import copy
import gc
import itertools
import json
import math
import pickle
import random
import re
from collections import Counter
from fractions import Fraction

import pytest

from torusdyn import (
    ComplexTorus,
    IntegerMatrix,
    LatticeEndomorphism,
    Scenario,
    TorsionPoint,
    complementary_isogeny,
    compose,
    degree,
    det,
    enumerate_fixed,
    is_analytic,
    polarization_multiplier,
    power,
    resolve_scenario,
    restrict_to_sublattice,
    scenario_from_dict,
    scenario_to_dict,
)
from torusdyn import fixpoint, lattice, quotient
from torusdyn.intersection import standard_symplectic_form
from torusdyn.lattice import collector_paused

from oracles import (
    complementary_smith,
    leading_minors_positive,
    multiplication_by,
    nonsingular,
    random_matrix,
    random_nonsingular,
    random_sparse,
    random_unimodular,
)

J0 = IntegerMatrix.from_rows([[0, -1], [1, 0]])
S0 = IntegerMatrix.from_rows([[0, -1], [1, 0]])
GAUSSIAN = IntegerMatrix.from_rows([[1, -1], [1, 1]])
HALF = Fraction(1, 2)


def _cm_torus(g: int) -> ComplexTorus:
    """g square CM curves: multiplication by i and the Riemann form are both
    the standard symplectic form."""
    blocks = standard_symplectic_form(g)
    return ComplexTorus(g, complex_structure=blocks, riemann_form=blocks)


def endo(rows, t=None):
    return LatticeEndomorphism(IntegerMatrix.from_rows(rows), t or ())


def random_cm_structure(rng: random.Random, g: int) -> tuple[IntegerMatrix, IntegerMatrix, int]:
    """(numerators, S, denominator) of J = P J0 P^-1 = P J0 adj(P) / det P
    and S = adj(P)^T S0 adj(P), the structure of _cm_torus(g) carried
    through a random nonsingular P; J^T S is then congruent to J0^T S0."""
    base = _cm_torus(g)
    p = random_nonsingular(rng, 2 * g)
    hat, m = complementary_isogeny(LatticeEndomorphism(p))
    d = det(p)
    adj = hat.matrix * (d // m)
    sign = 1 if d > 0 else -1
    numerators = p * base.complex_structure * adj * sign
    return numerators, adj.transpose() * base.riemann_form * adj, abs(d)


def symmetric_cases():
    """Seeded symmetric matrices for the Sylvester test, n = 1..8, labelled
    by kind; the kind fixes whether the matrix is positive definite."""
    rng = random.Random(1852)
    for n in range(1, 9):
        identity = IntegerMatrix.identity(n)
        for seed in range(3):
            b = random_matrix(rng, n, -4, 4)
            bt = b.transpose()
            yield f"B^T B + I n={n} #{seed}", (bt * b + identity, True)
            yield f"-(B^T B + I) n={n} #{seed}", (-(bt * b + identity), False)
            # a zero row makes B^T B singular and positive semidefinite
            z = IntegerMatrix.from_rows(b.to_lists()[:-1] + [[0] * n])
            yield f"singular B^T B n={n} #{seed}", (z.transpose() * z, False)
            # inertia (n - 1, 1): one negative square
            p = random_nonsingular(rng, n)
            d = IntegerMatrix.diagonal([1] * (n - 1) + [-1])
            yield f"indefinite n={n} #{seed}", (p.transpose() * d * p, False)
            a = random_matrix(rng, n, -2, 2)
            yield f"random A + A^T n={n} #{seed}", (a + a.transpose(), None)
    # a zero leading minor followed by nonzero ones
    for rows in (
        [[0, 1], [1, 0]],
        [[1, 1, 0], [1, 1, 1], [0, 1, 1]],
        [[0, 0, 1], [0, 1, 0], [1, 0, 0]],
    ):
        yield f"zero leading minor {rows}", (IntegerMatrix.from_rows(rows), False)


SYMMETRIC_CASES = dict(symmetric_cases())


class TestSylvester:
    @pytest.mark.parametrize("label", list(SYMMETRIC_CASES))
    def test_matches_per_minor_oracle(self, label):
        h, definite = SYMMETRIC_CASES[label]
        expected = leading_minors_positive(h.to_lists())
        if definite is not None:
            assert expected == definite
        assert lattice._leading_minors_positive(h) == expected

    def test_one_elimination_for_the_large_torus(self, monkeypatch):
        torus = resolve_scenario("mult-by-2-g16").torus
        eliminations, det_sizes = [], []
        original_pivots, original_det = lattice.bareiss_pivots, lattice.det

        def counted_pivots(m):
            eliminations.append(m.rows)
            return original_pivots(m)

        def counted_det(m):
            det_sizes.append(m.rows)
            return original_det(m)

        monkeypatch.setattr(lattice, "bareiss_pivots", counted_pivots)
        monkeypatch.setattr(lattice, "det", counted_det)
        ComplexTorus(16, torus.complex_structure, torus.riemann_form)
        # one elimination of J^T S, whose positive minors certify det S != 0
        assert eliminations == [32]
        assert det_sizes == []


class TestComplexTorus:
    def test_valid_cm_curve(self):
        torus = ComplexTorus(1, complex_structure=J0, riemann_form=S0)
        assert torus.rank == 2

    def test_j_must_square_to_minus_identity(self):
        bad = IntegerMatrix.from_rows([[0, 1], [1, 0]])
        with pytest.raises(ValueError, match="square to -I"):
            ComplexTorus(1, complex_structure=bad)
        with pytest.raises(ValueError, match="square to -I"):
            ComplexTorus(1, complex_structure=J0, complex_denominator=2)

    def test_complex_denominator_checked(self):
        with pytest.raises(ValueError, match=">= 1"):
            ComplexTorus(1, complex_structure=-J0, complex_denominator=-1)
        with pytest.raises(ValueError, match="without a complex structure"):
            ComplexTorus(1, complex_denominator=2)
        with pytest.raises(ValueError, match="must be an integer"):
            ComplexTorus(1, complex_structure=J0, complex_denominator=1.0)

    def test_riemann_form_must_be_alternating(self):
        with pytest.raises(ValueError, match="alternating"):
            ComplexTorus(1, riemann_form=IntegerMatrix.identity(2))

    def test_riemann_form_must_be_nondegenerate(self):
        with pytest.raises(ValueError, match="nondegenerate"):
            ComplexTorus(1, riemann_form=IntegerMatrix.zero(2, 2))

    # S alternating on a product of two square CM curves, J = J0 + J0;
    # labelled by whether S is degenerate and which J check it fails
    @pytest.mark.parametrize(
        "rows, message, dets",
        [
            # degenerate S: its refusal comes first, whichever J check fails
            ([[0, -1, -1, -1], [1, 0, -1, -1], [1, 1, 0, 0], [1, 1, 0, 0]], "nondegenerate", 1),
            ([[0, -1, -1, 0], [1, 0, 0, -1], [1, 0, 0, -1], [0, 1, 1, 0]], "nondegenerate", 1),
            # nondegenerate S: the failing J check is named
            ([[0, -1, -1, -1], [1, 0, -1, -1], [1, 1, 0, -1], [1, 1, 1, 0]], "J-invariant", 1),
            ([[0, -1, -1, -1], [1, 0, 1, -1], [1, -1, 0, -1], [1, 1, 1, 0]],
             "positive definite", 1),
            # every J check passes: no determinant of S is taken
            ([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]], None, 0),
        ],
    )
    def test_refusal_order_and_determinants(self, monkeypatch, rows, message, dets):
        calls = []
        monkeypatch.setattr(lattice, "det", lambda m: calls.append(m) or det(m))
        j = IntegerMatrix.block_diagonal([J0, J0])
        s = IntegerMatrix.from_rows(rows)
        if message is None:
            ComplexTorus(2, j, s)
        else:
            with pytest.raises(ValueError, match=message):
                ComplexTorus(2, j, s)
        assert calls == [s] * dets

    def test_j_invariance_makes_j_transpose_s_symmetric(self):
        # all 729 alternating 4 x 4 S with entries in {-1, 0, 1} against
        # J = J0 + J0, for which J J = -I: wherever J^T S J = S holds, J^T S
        # is symmetric, so the constructor checks no symmetry of its own
        j = IntegerMatrix.block_diagonal([J0, J0])
        invariant = 0
        outcomes = Counter()
        for upper in itertools.product((-1, 0, 1), repeat=6):
            rows = [[0] * 4 for _ in range(4)]
            for (a, b), v in zip(itertools.combinations(range(4), 2), upper):
                rows[a][b], rows[b][a] = v, -v
            s = IntegerMatrix.from_rows(rows)
            h = j.transpose() * s
            if h * j == s:
                invariant += 1
                assert h == h.transpose(), rows
            try:
                ComplexTorus(2, j, s)
                outcomes["accepted"] += 1
            except ValueError as exc:
                outcomes[str(exc)] += 1
        assert invariant == 81
        assert outcomes == {
            "Riemann form not J-invariant (J^T S J != S)": 416,
            "Riemann form must be nondegenerate": 245,
            "J^T S must be positive definite": 67,
            "accepted": 1,
        }

    def test_positivity_enforced(self):
        # S with the opposite orientation makes J^T S negative definite
        with pytest.raises(ValueError, match="positive definite"):
            ComplexTorus(1, complex_structure=J0, riemann_form=-S0)

    def test_positivity_with_non_integral_complex_structure(self):
        # J = [[1/2, 5/2], [-1/2, -1/2]]; J^T S = [[1/2, 1/2], [1/2, 5/2]] for
        # S = -S0: leading minors 1/2 and 1
        j = IntegerMatrix.from_rows([[1, 5], [-1, -1]])
        ComplexTorus(1, complex_structure=j, riemann_form=-S0, complex_denominator=2)
        with pytest.raises(ValueError, match="positive definite"):
            ComplexTorus(1, complex_structure=j, riemann_form=S0, complex_denominator=2)

    @pytest.mark.parametrize("seed", range(15))
    def test_random_rational_complex_structure(self, seed):
        rng = random.Random(seed)
        g = 1 + seed % 3
        numerators, s, d = random_cm_structure(rng, g)
        torus = ComplexTorus(g, numerators, s, d)
        j, e = torus.complex_structure, torus.complex_denominator
        assert j * d == numerators * e and math.gcd(e, *j.entries) == 1
        with pytest.raises(ValueError, match="positive definite"):
            ComplexTorus(g, numerators, -s, d)
        assert ComplexTorus(g, numerators * 2, s, 2 * d) == torus

        scenario = Scenario("random", torus, LatticeEndomorphism.identity(g), analytic=True)
        data = json.loads(json.dumps(scenario_to_dict(scenario)))
        assert scenario_from_dict(data) == scenario

    def test_g_must_be_positive(self):
        with pytest.raises(ValueError):
            ComplexTorus(0)


class TestEndomorphismBasics:
    def test_translation_reduced_to_canonical(self):
        f = endo([[2, 0], [0, 2]], (Fraction(3, 2), Fraction(-1, 4)))
        assert f.translation == (HALF, Fraction(3, 4))

    def test_torsion_point_canonical(self):
        p = TorsionPoint.reduce([Fraction(5, 2), Fraction(-1, 3)])
        assert p.coordinates == (HALF, Fraction(2, 3))
        with pytest.raises(ValueError):
            TorsionPoint((Fraction(3, 2),))

    @pytest.mark.parametrize("bad", [-1, 15, 16])
    def test_from_grid_refuses_numerators_outside_the_range(self, bad):
        with pytest.raises(ValueError, match=r"\[0,1\)"):
            TorsionPoint.from_grid(15, [(0, bad), (3, 1)])

    def test_from_grid_equals_checked_construction(self):
        rng = random.Random(7)
        for n in (1, 2, 6, 12):
            grid = [tuple(rng.randrange(n) for _ in range(4)) for _ in range(50)]
            want = [TorsionPoint(tuple(Fraction(v, n) for v in a)) for a in grid]
            got = TorsionPoint.from_grid(n, [list(c) for c in zip(*grid)])
            assert got == want
            assert all(type(c) is Fraction for p in got for c in p.coordinates)
        assert TorsionPoint.from_grid(5, []) == []
        assert TorsionPoint.from_grid(5, [[], [], [], []]) == []

    def test_from_grid_refuses_columns_of_unequal_length(self):
        with pytest.raises(ValueError):
            TorsionPoint.from_grid(5, [(0, 1), (2,)])

    def test_torsion_point_is_slotted_and_frozen(self):
        checked = TorsionPoint((HALF, Fraction(2, 3)))
        (built,) = TorsionPoint.from_grid(6, [(3,), (4,)])
        for p in (checked, built):
            assert not hasattr(p, "__dict__")
            with pytest.raises(AttributeError):
                p.coordinates = (Fraction(0), Fraction(0))
            with pytest.raises(AttributeError):
                p.label = "x"
            with pytest.raises(TypeError):
                p[0] = Fraction(0)
            assert p == (HALF, Fraction(2, 3))
        assert TorsionPoint.__slots__ == ()

    def test_torsion_point_is_its_coordinate_tuple(self):
        checked = TorsionPoint((HALF, Fraction(2, 3)))
        (built,) = TorsionPoint.from_grid(6, [(3,), (4,)])
        for p in (checked, built):
            assert isinstance(p, tuple)
            assert p.coordinates is p
            assert TorsionPoint(p) == tuple(p) == p
            assert hash(TorsionPoint(p)) == hash(tuple(p)) == hash(p)
            assert {tuple(p): 1}[p] == 1

    @pytest.mark.parametrize(
        "clone",
        [copy.copy, copy.deepcopy, lambda p: pickle.loads(pickle.dumps(p))],
        ids=["copy", "deepcopy", "pickle"],
    )
    def test_torsion_point_survives_copy_and_pickle(self, clone):
        points = [TorsionPoint((HALF, Fraction(2, 3)))] + TorsionPoint.from_grid(
            6, [(3, 0), (4, 5)]
        )
        copies = [clone(p) for p in points]
        assert copies == points
        assert [hash(p) for p in copies] == [hash(p) for p in points]
        assert all(type(p) is TorsionPoint for p in copies)
        assert all(type(c) is Fraction for p in copies for c in p)
        # each copy is made by TorsionPoint.__new__, which checks it again
        forged = tuple.__new__(TorsionPoint, (Fraction(3, 2),))
        with pytest.raises(ValueError, match=r"\[0,1\)"):
            clone(forged)

    def test_grid_point_equals_and_hashes_like_checked_point(self):
        for n, a in ((15, (0, 3, 14, 7)), (2, (1, 0)), (1, (0, 0, 0, 0))):
            (built,) = TorsionPoint.from_grid(n, [[v] for v in a])
            checked = TorsionPoint(tuple(Fraction(v, n) for v in a))
            assert built == checked
            assert hash(built) == hash(checked)
            assert {built: 1}[checked] == 1

    def test_enumerated_points_share_one_fraction_per_residue(self):
        # [2]^4 - I = 15 I on E x E: 15^4 points over N = 15
        f = resolve_scenario("diagonal-subvariety").endomorphism
        points = enumerate_fixed(f, 4)
        assert len(points) == 15**4
        assert len({id(c) for p in points for c in p.coordinates}) <= 15

    def test_float_translation_refused(self):
        # Fraction(0.1) would be 3602879701896397/2^55, not 1/10
        with pytest.raises(ValueError, match="float"):
            endo([[2, 0], [0, 2]], (0.1, 0))

    def test_float_torsion_point_refused(self):
        with pytest.raises(ValueError, match="float"):
            TorsionPoint((0.1, 0))
        with pytest.raises(ValueError, match="float"):
            TorsionPoint.reduce([0.5, 0])

    def test_analytic_check(self):
        torus = ComplexTorus(1, complex_structure=J0)
        assert is_analytic(LatticeEndomorphism(GAUSSIAN), torus)
        assert not is_analytic(endo([[1, 1], [0, 1]]), torus)

    def test_value_at(self):
        f = endo([[2, 0], [0, 2]], (HALF, Fraction(0)))
        assert f.value_at((Fraction(1, 4), Fraction(1, 2))) == (Fraction(0), Fraction(0))


def _set_collector(enabled: bool) -> None:
    (gc.enable if enabled else gc.disable)()


class TestCollectorPaused:
    @pytest.mark.parametrize("enabled", (True, False))
    def test_restores_the_state_it_found(self, enabled):
        try:
            _set_collector(enabled)
            with collector_paused():
                assert not gc.isenabled()
                with collector_paused():
                    assert not gc.isenabled()
                assert not gc.isenabled()
            assert gc.isenabled() is enabled
        finally:
            gc.enable()

    @pytest.mark.parametrize("enabled", (True, False))
    def test_restores_the_state_when_the_body_raises(self, enabled):
        try:
            _set_collector(enabled)
            with pytest.raises(ZeroDivisionError):
                with collector_paused():
                    1 // 0
            assert gc.isenabled() is enabled
        finally:
            gc.enable()

    @pytest.mark.parametrize("enabled", (True, False))
    def test_public_calls_keep_the_collector_state(self, enabled):
        diagonal = resolve_scenario("diagonal-subvariety").endomorphism
        bielliptic = resolve_scenario("bielliptic-quotient")
        calls = [
            lambda: enumerate_fixed(diagonal, 2),
            lambda: TorsionPoint.from_grid(3, [(0, 2), (1, 2)]),
            lambda: quotient.orbit_partition(
                enumerate_fixed(bielliptic.endomorphism, 1), bielliptic.action
            ),
        ]
        try:
            for call in calls:
                _set_collector(enabled)
                call()
                assert gc.isenabled() is enabled
            _set_collector(enabled)
            with pytest.raises(ValueError):
                TorsionPoint.from_grid(3, [(0,), (3,)])
            assert gc.isenabled() is enabled
        finally:
            gc.enable()

    def test_bulk_build_runs_no_collection_while_paused(self):
        # unpaused, this build sets off 144 collections; paused, only the
        # one young collection after the pause is left
        diagonal = resolve_scenario("diagonal-subvariety").endomorphism
        grid = fixpoint.fixed_columns(diagonal, 4)
        collections = []

        def record(phase, info):
            if phase == "start":
                collections.append(info["generation"])

        threshold = gc.get_threshold()
        gc.set_threshold(700, 10, 10)
        gc.collect()
        gc.callbacks.append(record)
        try:
            TorsionPoint.from_grid(*grid)
        finally:
            gc.callbacks.remove(record)
            gc.set_threshold(*threshold)
        assert len(collections) <= 1, collections


class TestCompose:
    def test_identity_neutral(self):
        f = endo([[2, 1], [0, 1]], (HALF, Fraction(0)))
        assert compose(LatticeEndomorphism.identity(1), f) == f
        assert compose(f, LatticeEndomorphism.identity(1)) == f

    def test_multiplication_maps(self):
        two = multiplication_by(2, 1)
        three = multiplication_by(3, 1)
        assert compose(two, three) == multiplication_by(6, 1)

    def test_translation_formula(self):
        f = endo([[1, 1], [0, 1]], (HALF, Fraction(0)))
        h = endo([[2, 0], [0, 2]])
        fh = compose(f, h)
        assert fh.matrix == IntegerMatrix.from_rows([[2, 2], [0, 2]])
        assert fh.translation == (HALF, Fraction(0))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            compose(LatticeEndomorphism.identity(1), LatticeEndomorphism.identity(2))


class TestPower:
    def test_power_one(self):
        f = endo([[2, 1], [0, 1]], (HALF, Fraction(0)))
        assert power(f, 1) == f

    def test_scalar_cube(self):
        f = multiplication_by(2, 1)
        assert power(f, 3) == multiplication_by(8, 1)

    def test_translation_accumulates_mod_lattice(self):
        f = endo([[2, 0], [0, 2]], (HALF, Fraction(0)))
        sq = power(f, 2)
        assert sq.matrix == IntegerMatrix.scalar(2, 4)
        assert sq.translation == (HALF, Fraction(0))

    def test_zero_iterate_rejected(self):
        with pytest.raises(ValueError):
            power(LatticeEndomorphism.identity(1), 0)

    @pytest.mark.parametrize("l", (2.0, 2.5, "2"))
    def test_iterate_must_be_an_integer(self, l):
        # 2.0 used to reach binary_power's l & 1
        f = resolve_scenario("bielliptic-quotient").endomorphism
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            power(f, l)

    def test_degree_of_power(self):
        rng = random.Random(5)
        for _ in range(10):
            f = LatticeEndomorphism(random_nonsingular(rng, 4))
            assert degree(power(f, 3)) == degree(f) ** 3

    @pytest.mark.parametrize("seed", range(6))
    def test_equals_repeated_composition(self, seed):
        rng = random.Random(seed)
        n = rng.choice((2, 4))
        denominator = rng.randint(1, 30)
        f = LatticeEndomorphism(
            random_matrix(rng, n, -3, 3),
            tuple(Fraction(rng.randrange(denominator), denominator) for _ in range(n)),
        )
        iterate = f
        for l in range(1, 41):
            assert power(f, l) == iterate
            iterate = compose(f, iterate)

    def test_deep_iterate_of_finite_order_map(self):
        # the rotation by i has order 4 and I + M + M^2 + M^3 = 0, so the
        # translated map has order 4 as well: f^100001 = f
        f = endo([[0, -1], [1, 0]], (Fraction(1, 3), Fraction(0)))
        assert power(f, 100001) == f
        assert power(f, 100000) == LatticeEndomorphism.identity(1)


class TestDegree:
    def test_unpolarizable_product_degree(self):
        f = LatticeEndomorphism(IntegerMatrix.diagonal([1, 1, 1, 1, 4, 4]))
        assert degree(f) == 16

    def test_sumdiff_degree(self):
        f = endo(
            [
                [1, 0, 1, 0],
                [0, 1, 0, 1],
                [1, 0, -1, 0],
                [0, 1, 0, -1],
            ]
        )
        assert degree(f) == 4

    @pytest.mark.parametrize("m,g", [(2, 1), (3, 1), (2, 2), (5, 2)])
    def test_multiplication_map(self, m, g):
        f = multiplication_by(m, g)
        assert degree(f) == m ** (2 * g)

    def test_degree_zero_signals_non_isogeny(self):
        assert degree(endo([[1, 1], [1, 1]])) == 0

    def test_multiplicative_on_composition(self):
        rng = random.Random(11)
        for _ in range(10):
            f = LatticeEndomorphism(random_nonsingular(rng, 2))
            h = LatticeEndomorphism(random_nonsingular(rng, 2))
            assert degree(compose(f, h)) == degree(f) * degree(h)


class TestComplementaryIsogeny:
    def test_scalar(self):
        f = multiplication_by(2, 1)
        hat, m = complementary_isogeny(f)
        assert m == 2
        assert hat.matrix == IntegerMatrix.identity(2)

    def test_gaussian(self):
        # adjugate oracle: inverse of [[1,-1],[1,1]] is [[1,1],[-1,1]]/2
        hat, m = complementary_isogeny(LatticeEndomorphism(GAUSSIAN))
        assert m == 2
        assert hat.matrix == IntegerMatrix.from_rows([[1, 1], [-1, 1]])
        assert hat.matrix * GAUSSIAN == IntegerMatrix.scalar(2, 2)
        assert GAUSSIAN * hat.matrix == IntegerMatrix.scalar(2, 2)

    def test_diagonal(self):
        hat, m = complementary_isogeny(endo([[1, 0], [0, 6]]))
        assert m == 6
        assert hat.matrix == IntegerMatrix.diagonal([6, 1])

    @pytest.mark.parametrize(
        "rows",
        [
            [[1, 1], [1, 1]],
            [[0, 0], [0, 0]],
            [[2, 0, 0, 0], [0, 0, 0, 0], [0, 0, 3, 0], [0, 0, 0, 1]],
            [[0, 1, 0, 0], [0, 2, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1]],
        ],
    )
    def test_rejects_degenerate(self, rows):
        message = "degenerate endomorphism (degree 0) has no complementary isogeny"
        with pytest.raises(ValueError, match=re.escape(message)):
            complementary_isogeny(endo(rows))

    def test_rejects_translation(self):
        f = endo([[2, 0], [0, 2]], (HALF, Fraction(0)))
        with pytest.raises(ValueError, match="translation"):
            complementary_isogeny(f)

    def test_product_of_degrees(self):
        rng = random.Random(13)
        for n in (2, 4, 6, 8):
            for _ in range(10):
                f = LatticeEndomorphism(random_nonsingular(rng, n))
                hat, m = complementary_isogeny(f)
                assert hat.matrix * f.matrix == IntegerMatrix.scalar(n, m)
                assert f.matrix * hat.matrix == IntegerMatrix.scalar(n, m)
                assert m**n == degree(f) * degree(hat)
                # m is minimal: (m / p) M^{-1} is integral for no prime p | m
                assert math.gcd(m, *hat.matrix.entries) == 1


def complementary_cases():
    """Nonsingular maps for the Smith cross-check, labelled by kind."""
    rng = random.Random(2718)
    for n in (2, 4, 6, 8):
        for k in range(4):
            yield f"dense n={n} #{k}", random_nonsingular(rng, n, -9, 9)
            if n > 2:
                # at n = 2 a 60 % share of zeros leaves every matrix singular
                yield f"sparse n={n} #{k}", nonsingular(lambda: random_sparse(rng, n))
    for g in (1, 2, 5, 16, 64):
        for m in (2, 3):
            yield f"mult-by-{m}-g{g}", resolve_scenario(f"mult-by-{m}-g{g}").endomorphism.matrix
    blocks = [random_nonsingular(rng, 2, -5, 5) for _ in range(6)]
    diagonal = IntegerMatrix.block_diagonal(blocks)
    yield "block-diagonal n=12", diagonal
    yield "block-diagonal n=12 with scalar blocks", IntegerMatrix.block_diagonal(
        [IntegerMatrix.scalar(2, 4), *blocks[:3], IntegerMatrix.scalar(4, -6)]
    )
    for k in range(3):
        rows = diagonal.to_lists()
        rng.shuffle(rows)
        yield f"row-permuted block-diagonal #{k}", IntegerMatrix.from_rows(rows)
        rows = random_nonsingular(rng, 6, -4, 4).to_lists()
        rng.shuffle(rows)
        yield f"row-permuted dense #{k}", IntegerMatrix.from_rows(rows)
    yield "unimodular n=16", random_unimodular(rng, 16, steps=40)


COMPLEMENTARY_CASES = dict(complementary_cases())


class TestComplementaryIsogenyAgainstSmith:
    @pytest.mark.parametrize("label", list(COMPLEMENTARY_CASES))
    def test_equals_the_smith_construction(self, label):
        m = COMPLEMENTARY_CASES[label]
        hat, d = complementary_isogeny(LatticeEndomorphism(m))
        assert (hat.matrix.to_lists(), d) == complementary_smith(m)

    def test_takes_no_smith_form(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("complementary_isogeny took a Smith form")

        monkeypatch.setattr(lattice, "smith_normal_form", refuse)
        hat, m = complementary_isogeny(resolve_scenario("mult-by-2-g64").endomorphism)
        assert m == 2 and hat.matrix == IntegerMatrix.identity(128)
        hat, m = complementary_isogeny(LatticeEndomorphism(GAUSSIAN))
        assert m == 2


class TestPolarizationMultiplier:
    def test_multiplication_by_m(self):
        torus = ComplexTorus(1, riemann_form=S0)
        for m in (2, 3, 5):
            f = multiplication_by(m, 1)
            assert polarization_multiplier(f, torus) == m * m

    def test_sumdiff_has_q_2(self):
        torus = _cm_torus(2)
        f = endo(
            [
                [1, 0, 1, 0],
                [0, 1, 0, 1],
                [1, 0, -1, 0],
                [0, 1, 0, -1],
            ]
        )
        assert polarization_multiplier(f, torus) == 2

    def test_unpolarizable_product(self):
        torus = _cm_torus(3)
        f = LatticeEndomorphism(IntegerMatrix.diagonal([1, 1, 1, 1, 4, 4]))
        assert polarization_multiplier(f, torus) is None

    def test_missing_form_rejected(self):
        with pytest.raises(ValueError, match="Riemann form"):
            polarization_multiplier(
                LatticeEndomorphism.identity(1), ComplexTorus(1)
            )

    def test_powers_scale_multiplier(self):
        torus = _cm_torus(1)
        f = LatticeEndomorphism(GAUSSIAN)
        q = polarization_multiplier(f, torus)
        assert q == 2
        for l in range(1, 7):
            assert polarization_multiplier(power(f, l), torus) == q**l

    def test_polarized_degree_is_q_to_g(self):
        for g, f in (
            (1, LatticeEndomorphism(GAUSSIAN)),
            (2, multiplication_by(3, 2)),
        ):
            torus = _cm_torus(g)
            q = polarization_multiplier(f, torus)
            assert degree(f) == q**g


class TestSolveModLattice:
    @pytest.mark.parametrize(
        "rows, t",
        [
            ([[2]], [1]),  # an integer t still gives Fractions, never a float
            ([[4, 0], [0, 6]], [HALF, Fraction(1, 3)]),  # Smith form diag(2, 12)
            ([[2, 0], [0, 0]], [HALF, 3]),  # a zero divisor
            ([[2, 0]], [HALF]),  # wide: a free coordinate past the last divisor
            ([[1], [0]], [HALF, 1]),  # tall: the last row reads 0 = 1 mod Z
        ],
        ids=["integer-t", "chain", "zero-divisor", "wide", "tall"],
    )
    def test_one_solution(self, rows, t):
        a = IntegerMatrix.from_rows(rows)
        snf, x = lattice.solve_mod_lattice(a, t)
        assert snf.U * a * snf.V == snf.D
        assert len(x) == a.cols and all(type(c) is Fraction for c in x)
        assert all((v - c).denominator == 1 for v, c in zip(a.apply(x), t))

    @pytest.mark.parametrize(
        "rows, t",
        [([[2, 0], [0, 0]], [HALF, HALF]), ([[1], [0]], [0, HALF]), ([[0]], [Fraction(1, 3)])],
        ids=["zero-divisor", "tall", "zero"],
    )
    def test_no_solution_is_none(self, rows, t):
        assert lattice.solve_mod_lattice(IntegerMatrix.from_rows(rows), t)[1] is None


class TestRestrictToSublattice:
    DIAGONAL = IntegerMatrix.from_rows([[1, 0], [0, 1], [1, 0], [0, 1]])
    FIRST_FACTOR = IntegerMatrix.from_rows([[1, 0], [0, 1], [0, 0], [0, 0]])

    def test_diagonal_restriction(self):
        f = multiplication_by(2, 2)
        restricted = restrict_to_sublattice(f, self.DIAGONAL)
        assert restricted.matrix == IntegerMatrix.scalar(2, 2)

    def test_factor_restriction(self):
        f = LatticeEndomorphism(IntegerMatrix.diagonal([2, 2, 4, 4]))
        restricted = restrict_to_sublattice(f, self.FIRST_FACTOR)
        assert restricted.matrix == IntegerMatrix.scalar(2, 2)

    def test_non_invariant_rejected(self):
        f = endo(
            [
                [0, 0, 1, 0],
                [0, 1, 0, 0],
                [1, 0, 1, 0],
                [0, 0, 0, 1],
            ]
        )
        with pytest.raises(ValueError, match="not invariant"):
            restrict_to_sublattice(f, self.FIRST_FACTOR)

    def test_non_saturated_rejected(self):
        doubled = IntegerMatrix.from_rows([[2, 0], [0, 2], [2, 0], [0, 2]])
        f = multiplication_by(2, 2)
        with pytest.raises(ValueError, match="basis is not saturated"):
            restrict_to_sublattice(f, doubled)

    def test_translation_in_span(self):
        f = LatticeEndomorphism(
            IntegerMatrix.scalar(4, 2),
            (HALF, Fraction(0), HALF, Fraction(0)),
        )
        restricted = restrict_to_sublattice(f, self.DIAGONAL)
        assert restricted.translation == (HALF, Fraction(0))

    def test_translation_outside_span_rejected(self):
        f = LatticeEndomorphism(
            IntegerMatrix.scalar(4, 2),
            (HALF, Fraction(0), Fraction(0), Fraction(0)),
        )
        with pytest.raises(
            ValueError,
            match=r"^translation does not lie in the sublattice span modulo Z\^\{2g\}$",
        ):
            restrict_to_sublattice(f, self.DIAGONAL)

    @pytest.mark.parametrize(
        "basis, message",
        [
            # every defect at once: saturation is refused first
            ([[2, 0], [0, 2], [2, 0], [0, 2]], "basis is not saturated"),
            # saturated, neither invariant nor spanning t: invariance next
            ([[1, 0], [0, 1], [1, 0], [0, 1]], "sublattice is not invariant"),
        ],
        ids=["saturation-first", "invariance-before-span"],
    )
    def test_refusal_order(self, basis, message):
        # M maps the diagonal's (1, 0, 1, 0) to (1, 0, 2, 0), and t = (1/2, 0, 0, 0)
        # lies outside its span
        f = endo(
            [[0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 1, 0], [0, 0, 0, 1]],
            (HALF, Fraction(0), Fraction(0), Fraction(0)),
        )
        with pytest.raises(ValueError, match=f"^{message}"):
            restrict_to_sublattice(f, IntegerMatrix.from_rows(basis))

    def test_restrict_commutes_with_power(self):
        f = LatticeEndomorphism(
            IntegerMatrix.from_rows(
                [
                    [2, 1, 0, 0],
                    [1, 2, 0, 0],
                    [0, 0, 2, 1],
                    [0, 0, 1, 2],
                ]
            )
        )
        for l in (2, 3, 4):
            a = power(restrict_to_sublattice(f, self.DIAGONAL), l)
            b = restrict_to_sublattice(power(f, l), self.DIAGONAL)
            assert a == b

    @pytest.mark.parametrize("seed", range(8))
    def test_random_invariant_sublattice(self, seed):
        # M = P [[A, B], [E, C]] P^-1 maps the first k columns of the
        # unimodular P into their span exactly when E = 0, and then M' = A
        rng = random.Random(seed)
        n = rng.choice((4, 6))
        k = rng.choice(range(2, n, 2))
        p = random_unimodular(rng, n)
        p_inv = complementary_isogeny(LatticeEndomorphism(p))[0].matrix
        assert p * p_inv == IntegerMatrix.identity(n)
        basis = IntegerMatrix.from_rows([list(p.row(i)[:k]) for i in range(n)])
        block = random_matrix(rng, n).to_lists()
        for i in range(k, n):
            block[i][:k] = [0] * k
        m = p * IntegerMatrix.from_rows(block) * p_inv
        t_prime = [Fraction(rng.randint(0, 6), rng.randint(1, 6)) for _ in range(k)]
        f = LatticeEndomorphism(m, basis.apply(t_prime))

        restricted = restrict_to_sublattice(f, basis)
        assert basis * restricted.matrix == m * basis
        assert restricted.matrix.to_lists() == [row[:k] for row in block[:k]]
        assert restricted.translation == TorsionPoint.reduce(t_prime).coordinates

        block[k][rng.randrange(k)] = rng.choice((-2, -1, 1, 2))
        moved = LatticeEndomorphism(p * IntegerMatrix.from_rows(block) * p_inv)
        with pytest.raises(ValueError, match="not invariant"):
            restrict_to_sublattice(moved, basis)
