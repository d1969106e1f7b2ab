import itertools
import random
import re
from fractions import Fraction

import pytest

from torusdyn import (
    GroupAction,
    IntegerMatrix,
    LatticeEndomorphism,
    compose,
    count_fixed,
    enumerate_fixed,
    lift_compatibility,
    orbit_partition,
    power,
    quotient_fixed_lower_bound,
    quotient_table,
    validate_action,
)
from torusdyn import fixpoint, quotient
from torusdyn.fixpoint import DegenerateFixedLocusError

from oracles import multiplication_by

HALF = Fraction(1, 2)


def bielliptic_action() -> GroupAction:
    involution = LatticeEndomorphism(
        IntegerMatrix.diagonal([1, 1, -1, -1]),
        (HALF, Fraction(0), Fraction(0), Fraction(0)),
    )
    return GroupAction((LatticeEndomorphism.identity(2), involution))


def trivial_action(n: int) -> GroupAction:
    return GroupAction((LatticeEndomorphism.identity(n // 2),))


class TestAffineAutomorphism:
    def test_linear_part_must_be_unimodular(self):
        scalar = LatticeEndomorphism(IntegerMatrix.scalar(2, 2))
        with pytest.raises(ValueError, match=r"action\[1\]: .*unimodular"):
            GroupAction((LatticeEndomorphism.identity(1), scalar))

    def test_composition(self):
        inv = bielliptic_action().elements[1]
        assert compose(inv, inv) == LatticeEndomorphism.identity(2)


class TestValidateAction:
    def test_trivial_group_valid(self):
        report = validate_action(trivial_action(2))
        assert report.valid and report.free

    def test_bielliptic_valid_and_free(self):
        report = validate_action(bielliptic_action())
        assert report.valid
        assert report.free
        assert report.violations == ()

    def test_freeness_fails_without_translation(self):
        # the same involution with s = 0 fixes the origin
        elements = (
            LatticeEndomorphism.identity(2),
            LatticeEndomorphism(IntegerMatrix.diagonal([1, 1, -1, -1])),
        )
        report = validate_action(GroupAction(elements))
        assert not report.free
        assert any("freeness" in v for v in report.violations)

    def test_closure_violation_named(self):
        # order-4 rotation without its square is not closed
        rot = LatticeEndomorphism(IntegerMatrix.from_rows([[0, -1], [1, 0]]))
        report = validate_action(
            GroupAction((LatticeEndomorphism.identity(1), rot))
        )
        assert not report.valid
        assert any("closure" in v for v in report.violations)

    def test_missing_identity_named(self):
        flip = LatticeEndomorphism(
            IntegerMatrix.identity(2), (HALF, Fraction(0))
        )
        report = validate_action(GroupAction((flip,)))
        assert any("identity" in v for v in report.violations)

    def test_order_independent_verdict(self):
        elements = bielliptic_action().elements
        for perm in itertools.permutations(elements):
            report = validate_action(GroupAction(perm))
            assert report.valid and report.free

    def test_idempotent(self):
        action = bielliptic_action()
        first = validate_action(action)
        second = validate_action(action)
        assert first == second


class TestLiftCompatibility:
    def test_mult_3_compatible(self):
        # [3] fixes the involution: 3s = s mod Z^4
        lift = lift_compatibility(multiplication_by(3, 2), bielliptic_action())
        assert lift == (0, 1)

    def test_mult_2_incompatible(self):
        # 2s = 0 and (U, 0) is not in the group
        with pytest.raises(
            ValueError,
            match="^endomorphism does not descend: "
            "no group element matches f composed with element 1$",
        ):
            lift_compatibility(multiplication_by(2, 2), bielliptic_action())

    def test_every_failing_element_named(self):
        # the powers of a quarter turn with a 2-torsion shift: [2] kills the
        # shift of each non-identity element, and no element has that
        # element's linear part with shift 0
        quarter = IntegerMatrix.from_rows([[0, -1], [1, 0]])
        elements = [LatticeEndomorphism.identity(1)]
        for _ in range(3):
            elements.append(
                compose(LatticeEndomorphism(quarter, (HALF, Fraction(0))), elements[-1])
            )
        with pytest.raises(ValueError) as refusal:
            lift_compatibility(multiplication_by(2, 1), GroupAction(tuple(elements)))
        assert str(refusal.value) == "endomorphism does not descend: " + "; ".join(
            f"no group element matches f composed with element {i}" for i in (1, 2, 3)
        )

    def test_rank_mismatch_refused(self):
        with pytest.raises(ValueError, match="^endomorphism and action ranks differ$"):
            lift_compatibility(multiplication_by(3, 1), bielliptic_action())

    def test_trivial_group_always_compatible(self):
        rng = random.Random(2)
        for _ in range(5):
            n = 2
            f = LatticeEndomorphism(
                IntegerMatrix.from_rows(
                    [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
                )
            )
            assert lift_compatibility(f, trivial_action(n)) == (0,)

    def test_compatibility_passes_to_powers(self):
        f = multiplication_by(3, 2)
        action = bielliptic_action()
        assert lift_compatibility(f, action) == (0, 1)
        for l in (2, 3, 4):
            assert lift_compatibility(power(f, l), action) == (0, 1)


class TestQuotientBound:
    def test_bielliptic_l1(self):
        bound = quotient_fixed_lower_bound(
            multiplication_by(3, 2), bielliptic_action(), 9, 1
        )
        assert bound.upstairs_count == 16
        assert bound.orbit_count == 8
        assert bound.lower_bound == Fraction(16, 2)
        assert bound.orbit_count >= bound.lower_bound

    def test_bielliptic_l2(self):
        bound = quotient_fixed_lower_bound(
            multiplication_by(3, 2), bielliptic_action(), 9, 2
        )
        assert bound.upstairs_count == 4096
        assert bound.orbit_count == 2048
        assert bound.lower_bound == Fraction(4096, 2)

    def test_trivial_group_orbit_count_is_count(self):
        f = multiplication_by(2, 1)
        bound = quotient_fixed_lower_bound(f, trivial_action(2), 4, 2)
        assert bound.orbit_count == count_fixed(f, 2) == 9

    def test_incompatible_lift_rejected(self):
        with pytest.raises(ValueError, match="descend"):
            quotient_fixed_lower_bound(
                multiplication_by(2, 2),
                bielliptic_action(),
                4,
                1,
            )

    def test_no_grid_built(self, monkeypatch):
        # 456,976 fixed points at l = 3, counted without enumerating any
        def refuse(*args):
            raise AssertionError("the quotient path must not enumerate")

        monkeypatch.setattr(fixpoint, "fixed_columns", refuse)
        monkeypatch.setattr(quotient, "_grid_classes", refuse)
        bound = quotient_fixed_lower_bound(
            multiplication_by(3, 2), bielliptic_action(), 9, 3
        )
        assert (bound.upstairs_count, bound.orbit_count) == (456976, 228488)

    @pytest.mark.parametrize("q", [1, 0, -5])
    def test_multiplier_below_two_refused_before_the_action(self, q):
        # mult-by-2 does not descend, so the action check would refuse too
        for m in (3, 2):
            with pytest.raises(ValueError, match="^multiplier q must be > 1$"):
                quotient_fixed_lower_bound(
                    multiplication_by(m, 2), bielliptic_action(), q, 1
                )

    def test_group_times_orbits_covers_fixed_set(self):
        f = multiplication_by(3, 2)
        action = bielliptic_action()
        for l in (1, 2):
            bound = quotient_fixed_lower_bound(f, action, 9, l)
            assert len(action) * bound.orbit_count >= bound.upstairs_count


@pytest.mark.parametrize("q", (9.0, 9.5, "9"))
@pytest.mark.parametrize("bound", (quotient_fixed_lower_bound, quotient_table))
def test_multiplier_refused_before_the_action_is_checked(monkeypatch, bound, q):
    # 9.0 used to pass q < 2 and fail in Fraction after the action, the
    # lift map and Fix(f) had been worked out
    def refuse(action):
        raise AssertionError("the action was validated before q")

    monkeypatch.setattr(quotient, "validate_action", refuse)
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        bound(multiplication_by(3, 2), bielliptic_action(), q, 1)


class TestQuotientTable:
    def test_rows_match_single_iterates(self):
        f = multiplication_by(3, 2)
        action = bielliptic_action()
        assert quotient_table(f, action, 9, 2) == [
            quotient_fixed_lower_bound(f, action, 9, l) for l in (1, 2)
        ]

    def test_degenerate_row_refused_before_any_grid(self, monkeypatch):
        # [-1] descends and fixes 16 points at l = 1, but M^2 - I = 0
        grids = []
        monkeypatch.setattr(fixpoint, "fixed_columns", lambda *args: grids.append(args))
        monkeypatch.setattr(quotient, "_grid_classes", lambda *args: grids.append(args))
        with pytest.raises(DegenerateFixedLocusError, match=re.escape("det(M^2 - I) = 0")):
            quotient_table(
                multiplication_by(-1, 2), bielliptic_action(), 2, 3
            )
        assert grids == []

    @pytest.mark.parametrize("q", [1, 0, -5])
    def test_multiplier_below_two_refused_before_the_action(self, q):
        for m in (3, 2):
            with pytest.raises(ValueError, match="^multiplier q must be > 1$"):
                quotient_table(
                    multiplication_by(m, 2), bielliptic_action(), q, 2
                )

    @pytest.mark.parametrize("l_max", [0, -3])
    def test_l_max_below_one_refused(self, l_max):
        with pytest.raises(ValueError, match="^l_max must be >= 1$"):
            quotient_table(
                multiplication_by(3, 2), bielliptic_action(), 9, l_max
            )

    def test_incompatible_lift_rejected(self):
        with pytest.raises(ValueError, match="descend"):
            quotient_table(
                multiplication_by(2, 2), bielliptic_action(), 4, 2
            )


class TestOrbitPartition:
    def test_partition_covers_and_is_disjoint(self):
        f = multiplication_by(3, 2)
        action = bielliptic_action()
        points = enumerate_fixed(f, 1)
        classes = orbit_partition(points, action)
        seen = [p.coordinates for cls in classes for p in cls]
        assert sorted(seen) == sorted(p.coordinates for p in points)
        assert len(seen) == len(set(seen))

    def test_free_action_forces_full_orbits(self):
        f = multiplication_by(3, 2)
        action = bielliptic_action()
        classes = orbit_partition(enumerate_fixed(f, 1), action)
        assert all(len(cls) == 2 for cls in classes)
