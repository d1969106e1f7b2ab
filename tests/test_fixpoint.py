import math
import random
import re
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest

from torusdyn import (
    BudgetExceededError,
    DegenerateFixedLocusError,
    IntegerMatrix,
    LatticeEndomorphism,
    SimpleFactorSpec,
    TorsionPoint,
    brute_force_count,
    compare_exact,
    count_fixed,
    det,
    eigenvalue_magnitude_check,
    enumerate_fixed,
    factor_product_formula,
    fixpoint,
    growth_table,
    periodic_subvariety_count,
    power,
)
from torusdyn import linalg
from torusdyn.lattice import complementary_isogeny
from torusdyn.linalg import (
    IntegerPolynomial,
    NonSquareMatrixError,
    charpoly,
    charpoly_power,
    power_bits,
)
from torusdyn.scenarios import resolve_scenario

from oracles import multiplication_by, random_matrix, random_nonsingular, random_unimodular
from test_grid_properties import FINITE_ORDER_BLOCKS

GAUSSIAN = LatticeEndomorphism(IntegerMatrix.from_rows([[1, -1], [1, 1]]))
HALF = Fraction(1, 2)


def mult(m, g=1):
    return multiplication_by(m, g)


class TestCountFixed:
    @pytest.mark.parametrize("m", (2, 3, 4))
    @pytest.mark.parametrize("g", (1, 2))
    @pytest.mark.parametrize("l", (1, 2, 3))
    def test_torsion_law(self, m, g, l):
        assert count_fixed(mult(m, g), l) == (m**l - 1) ** (2 * g)

    def test_gaussian_l2(self):
        # |(1+i)^2 - 1|^2 = |2i - 1|^2 = 5; brute oracle over the 1/5 grid agrees
        assert count_fixed(GAUSSIAN, 2) == 5

    def test_identity_degenerate(self):
        with pytest.raises(DegenerateFixedLocusError):
            count_fixed(LatticeEndomorphism.identity(1), 1)

    def test_translation_invariance(self):
        rng = random.Random(3)
        for _ in range(15):
            matrix = random_nonsingular(rng, 2)
            plain = LatticeEndomorphism(matrix)
            shifted = LatticeEndomorphism(
                matrix, (Fraction(rng.randint(0, 5), 6), Fraction(rng.randint(0, 5), 6))
            )
            for l in (1, 2, 3):
                try:
                    expected = count_fixed(plain, l)
                except DegenerateFixedLocusError:
                    continue
                assert count_fixed(shifted, l) == expected


def bareiss_iterate(m: IntegerMatrix, l: int) -> int:
    return det(m**l - IntegerMatrix.identity(m.rows))


def first_iterate_past_bound(m: IntegerMatrix) -> int:
    """The least l whose power_bits estimate exceeds count_fixed's bound."""
    per_iterate = power_bits(m, 1) - power_bits(m, 0)
    return (fixpoint._BAREISS_MAX_BITS - power_bits(m, 0)) // per_iterate + 1


def gaussian_count(l: int) -> int:
    """|(1 + i)^l - 1|^2, powering left to right in Z[i]."""
    re, im = 1, 0
    for bit in bin(l)[2:]:
        re, im = re * re - im * im, 2 * re * im
        if bit == "1":
            re, im = re - im, re + im
    return (re - 1) ** 2 + im**2


class TestLargeIterates:
    """det(M^l - I) from charpoly(M), the path count_fixed takes past the bound."""

    def test_equals_bareiss_on_both_sides_of_the_bound(self):
        rng = random.Random(89)
        for n in range(1, 9):
            for _ in range(4):
                m = random_matrix(rng, n)
                if power_bits(m, 1) == power_bits(m, 0):
                    continue  # |m| <= 1: the estimate never crosses
                past = first_iterate_past_bound(m)
                for l in (1, 2, 3, 7, past - 1, past):
                    assert fixpoint._determinant_from_charpoly(m, l) == bareiss_iterate(m, l)

    def test_count_fixed_on_both_sides_of_the_bound(self):
        rng = random.Random(97)
        for n in (2, 4, 6, 8):
            m = random_nonsingular(rng, n)
            past = first_iterate_past_bound(m)
            for l in (past - 1, past, past + 1):
                expected = bareiss_iterate(m, l)
                if expected == 0:
                    continue
                assert count_fixed(LatticeEndomorphism(m), l) == abs(expected)

    @pytest.mark.parametrize(
        "label, rows",
        (
            ("singular", [[1, 2, 0], [2, 4, 1], [3, 6, 1]]),
            ("singular rank 1", [[2, -1], [-4, 2]]),
            ("nilpotent", [[0, 1], [0, 0]]),
            ("zero", [[0, 0], [0, 0]]),
            ("scalar", [[3, 0, 0, 0], [0, 3, 0, 0], [0, 0, 3, 0], [0, 0, 0, 3]]),
            ("negative scalar", [[-2, 0, 0], [0, -2, 0], [0, 0, -2]]),
            ("jordan block", [[2, 1], [0, 2]]),
            ("negative det", [[-2, 0], [0, 3]]),
            ("negative det, dense", [[1, 2, 1], [3, -1, 2], [0, 1, 1]]),
            ("rank 1", [[-5]]),
        ),
    )
    def test_special_matrices(self, label, rows):
        m = IntegerMatrix.from_rows(rows)
        for l in (1, 2, 3, 64, 1023, 1024, 1025, 2049):
            assert fixpoint._determinant_from_charpoly(m, l) == bareiss_iterate(m, l), (label, l)

    def test_degenerate_iterates_are_zero_on_both_paths(self):
        rng = random.Random(101)
        for rows in FINITE_ORDER_BLOCKS:
            block = IntegerMatrix.from_rows(rows)
            order = next(k for k in range(1, 7) if block**k == IntegerMatrix.identity(2))
            matrix = IntegerMatrix.block_diagonal([random_nonsingular(rng, 2), block])
            p = random_unimodular(rng, 4)
            p_inv = complementary_isogeny(LatticeEndomorphism(p))[0].matrix
            m = p * matrix * p_inv
            past = -(-first_iterate_past_bound(m) // order) * order
            for l in (order, 2 * order, past):
                assert bareiss_iterate(m, l) == 0
                assert fixpoint._determinant_from_charpoly(m, l) == 0
            with pytest.raises(DegenerateFixedLocusError):
                count_fixed(LatticeEndomorphism(m), past)

    @pytest.mark.parametrize("l", (10**5, 10**5 + 1))
    def test_gaussian_closed_form(self, l):
        assert count_fixed(resolve_scenario("gaussian-cm").endomorphism, l) == gaussian_count(l)

    def test_scalar_closed_form(self):
        f = resolve_scenario("mult-by-3-g2").endomorphism
        assert count_fixed(f, 2000) == (3**2000 - 1) ** 4

    def test_path_switches_at_the_bound(self, monkeypatch):
        # gaussian-cm's estimate is l + 1 bits
        calls = Counter()

        def counted(name, original):
            def wrapper(*args):
                calls[name] += 1
                return original(*args)

            return wrapper

        monkeypatch.setattr(IntegerMatrix, "__pow__", counted("powers", IntegerMatrix.__pow__))
        monkeypatch.setattr(fixpoint, "det", counted("dets", fixpoint.det))
        monkeypatch.setattr(
            fixpoint, "charpoly_power", counted("charpoly_power", fixpoint.charpoly_power)
        )
        assert [power_bits(GAUSSIAN.matrix, l) for l in (1023, 1024)] == [1024, 1025]
        assert fixpoint._BAREISS_MAX_BITS == 1024
        assert count_fixed(GAUSSIAN, 1023) == gaussian_count(1023)
        assert calls == {"powers": 1, "dets": 1}
        calls.clear()
        assert count_fixed(GAUSSIAN, 1024) == gaussian_count(1024)
        assert calls == {"charpoly_power": 1}

    @pytest.mark.parametrize("l", (2.0, 2.5, "3"))
    def test_iterate_must_be_an_integer(self, l):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            count_fixed(GAUSSIAN, l)


BUILTINS = (
    "gaussian-cm",
    "mult-by-2-g3",
    "silverman-sumdiff",
    "unpolarizable-1x4",
    "bielliptic-quotient",
    "diagonal-subvariety",
)


def conjugated(rng: random.Random, blocks) -> IntegerMatrix:
    """P diag(blocks) P^-1 for a random unimodular P."""
    matrix = IntegerMatrix.block_diagonal([IntegerMatrix.from_rows(b) for b in blocks])
    p = random_unimodular(rng, matrix.rows)
    p_inv = complementary_isogeny(LatticeEndomorphism(p))[0].matrix
    return p * matrix * p_inv


HYPERBOLIC = [[2, 1], [1, 1]]
ROTATION = [[0, -1], [1, 0]]
SPLIT_CASES = {
    "repeated hyperbolic": [HYPERBOLIC, HYPERBOLIC],
    "repeated gaussian and a scalar": [[[1, -1], [1, 1]], [[1, -1], [1, 1]], [[2]], [[2]]],
    "three equal blocks": [[[2, -1], [3, 1]]] * 3,
    "jordan block": [[[2, 1], [0, 2]], [[2]], [[2]]],
    "singular factor x": [[[0]], [[5]], HYPERBOLIC, HYPERBOLIC],
    "repeated singular factor": [[[0]], [[0]], [[-3]], [[-3]]],
    "repeated rotation": [ROTATION, ROTATION, [[3]], [[3]]],
    "roots of unity of orders 3 and 6": [FINITE_ORDER_BLOCKS[2], FINITE_ORDER_BLOCKS[4], [[2]], [[2]]],
    "minus one twice": [[[-1]], [[-1]], [[2]], [[2]]],
}


def split_matrices() -> list:
    rng = random.Random(127)
    cases = [(name, resolve_scenario(name).endomorphism.matrix) for name in BUILTINS]
    cases += [(name, conjugated(rng, blocks)) for name, blocks in SPLIT_CASES.items()]
    return [pytest.param(m, id=name) for name, m in cases]


class TestSplitSpectrum:
    """Rows and counts from the squarefree factors of charpoly(M), against
    Bareiss on each M**l."""

    @pytest.mark.parametrize("m", split_matrices())
    def test_table_rows_and_counts_equal_bareiss(self, m):
        f = LatticeEndomorphism(m)
        l_max = 2**m.rows + 6
        expected = [bareiss_iterate(m, l) for l in range(1, l_max + 1)]
        assert list(fixpoint.iterate_determinants(f, l_max)) == list(enumerate(expected, 1))
        iterates = [1, 2, 3, l_max]
        if power_bits(m, 1) > power_bits(m, 0):
            past = first_iterate_past_bound(m)
            iterates += [past - 1, past]
        for l in iterates:
            d = bareiss_iterate(m, l)
            assert fixpoint._determinant_from_charpoly(m, l) == d, l
            if d:
                assert count_fixed(f, l) == abs(d)
            else:
                with pytest.raises(DegenerateFixedLocusError):
                    count_fixed(f, l)

    def test_unpolarizable_rows_are_all_degenerate(self):
        # charpoly (x - 4)^2 (x - 1)^4: the factor x - 1 gives D_l = 0
        f = resolve_scenario("unpolarizable-1x4").endomorphism
        assert {d for _, d in fixpoint.iterate_determinants(f, 70)} == {0}

    def test_linear_factors_form_no_generator(self, monkeypatch):
        # charpoly (x - 2)^6: every row and every count is (2^l - 1)^6
        f = resolve_scenario("mult-by-2-g3").endomorphism
        calls = Counter()
        for module, name in (
            (fixpoint, "power_sums"),
            (fixpoint, "power_sum_polynomial"),
            (linalg, "power_mod"),
        ):
            original = getattr(module, name)

            def counted(*args, name=name, original=original):
                calls[name] += 1
                return original(*args)

            monkeypatch.setattr(module, name, counted)
        rows = list(fixpoint.iterate_determinants(f, 80))
        assert rows == [(l, (2**l - 1) ** 6) for l in range(1, 81)]
        assert count_fixed(f, 1100) == (2**1100 - 1) ** 6
        # count_fixed's single factor x - 2 has no x^l mod (x - 2) formed
        assert not calls

    @pytest.mark.parametrize("degree", range(2, 9))
    def test_seed_rows_are_charpoly_powers(self, monkeypatch, degree):
        # _factor_rows builds its seed rows from one shared power_sums walk
        # for speed; seed l is charpoly_power(a, l) without its constant term
        rng = random.Random(139 + degree)
        seeded = math.comb(degree, degree // 2)
        built = []

        def recorded(sums, original=fixpoint.power_sum_polynomial):
            built.append(original(sums))
            return built[-1]

        monkeypatch.setattr(fixpoint, "power_sum_polynomial", recorded)
        for _ in range(5):
            a = IntegerPolynomial((*(rng.randint(-9, 9) for _ in range(degree)), 1))
            built.clear()
            next(fixpoint._factor_rows(a, seeded))
            # the seed rows come first, then one polynomial per inner column
            assert len(built) == seeded + degree - 1
            assert [p.coefficients for p in built[:seeded]] == [
                charpoly_power(a, l).coefficients[1:] for l in range(1, seeded + 1)
            ]


class TestEnumerateFixed:
    def test_mult_2_l1_only_origin(self):
        points = enumerate_fixed(mult(2), 1)
        assert points == [TorsionPoint.reduce([0, 0])]

    def test_mult_3_l1_two_torsion(self):
        points = enumerate_fixed(mult(3), 1)
        expected = sorted(
            (
                TorsionPoint((Fraction(a, 2), Fraction(b, 2)))
                for a in (0, 1)
                for b in (0, 1)
            ),
            key=lambda p: p.coordinates,
        )
        assert points == expected

    def test_translated_map_single_point(self):
        f = LatticeEndomorphism(IntegerMatrix.scalar(2, 2), (HALF, Fraction(0)))
        assert enumerate_fixed(f, 1) == [TorsionPoint((HALF, Fraction(0)))]

    def test_points_are_fixed_distinct_and_counted(self):
        cases = [
            (GAUSSIAN, 3),
            (mult(3), 2),
            (LatticeEndomorphism(IntegerMatrix.from_rows([[2, 1], [1, 1]])), 2),
            (
                LatticeEndomorphism(
                    IntegerMatrix.from_rows([[2, 1], [0, 3]]),
                    (Fraction(1, 3), HALF),
                ),
                1,
            ),
        ]
        for f, l in cases:
            points = enumerate_fixed(f, l)
            assert len(points) == count_fixed(f, l)
            assert len({p.coordinates for p in points}) == len(points)
            fl = power(f, l)
            for p in points:
                assert fl.value_at(p.coordinates) == p.coordinates

    def test_deep_iterate_of_finite_order_map(self):
        f = LatticeEndomorphism(
            IntegerMatrix.from_rows([[0, -1], [1, 0]]), (Fraction(1, 3), Fraction(0))
        )
        points = enumerate_fixed(f, 1)
        assert len(points) == 2
        assert enumerate_fixed(f, 100001) == points

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateFixedLocusError):
            enumerate_fixed(LatticeEndomorphism.identity(2), 3)

    def test_budget_refused_before_smith_form(self, monkeypatch):
        smith_calls = []
        monkeypatch.setattr(
            fixpoint, "smith_normal_form", lambda k: smith_calls.append(k)
        )
        # [2]^5 on g = 2 has 31^4 = 923,521 fixed points
        with pytest.raises(
            BudgetExceededError,
            match="^enumerating 923521 fixed points exceeds budget 923520$",
        ):
            enumerate_fixed(mult(2, 2), 5, budget=923520)
        with pytest.raises(BudgetExceededError):  # 63^4 > DEFAULT_BUDGET
            fixpoint.fixed_columns(mult(2, 2), 6)
        assert smith_calls == []

    def test_budget_is_inclusive(self):
        assert len(enumerate_fixed(mult(3), 2, budget=64)) == 64

    def test_grid_checked_against_determinant(self, monkeypatch):
        # the echelon basis's index is checked before any point is walked
        monkeypatch.setattr(fixpoint, "det", lambda k: 2 * det(k))
        with pytest.raises(
            AssertionError, match=re.escape("echelon basis of index 4 but |det(M^1 - I)| = 8")
        ):
            fixpoint.fixed_columns(mult(3), 1)


class TestBruteForce:
    def test_mult_2_l2(self):
        assert brute_force_count(mult(2), 2) == 9

    def test_gaussian_l1(self):
        # grid has a single point (D = 1), the origin
        assert brute_force_count(GAUSSIAN, 1) == 1

    def test_budget_refusal(self):
        with pytest.raises(BudgetExceededError):
            brute_force_count(mult(2, 2), 4, budget=1000)

    def test_agrees_with_determinant_count(self):
        rng = random.Random(9)
        checked = 0
        while checked < 12:
            f = LatticeEndomorphism(random_nonsingular(rng, 2, -3, 3))
            try:
                expected = count_fixed(f, 2)
            except DegenerateFixedLocusError:
                continue
            if expected > 4000:
                continue
            assert brute_force_count(f, 2, budget=10**6) == expected
            checked += 1

    def test_rank_six_scan_memory(self):
        # 20^6 = 6.4 * 10^7 grid points in two halves of 20^3 (under 1 MiB);
        # 6 lists of 20^5 residues, the first n - 1 coordinates, took 158 MiB
        f = LatticeEndomorphism(IntegerMatrix.scalar(6, 21))
        tracemalloc.start()
        try:
            count = brute_force_count(f, 1, budget=10**9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert count == count_fixed(f, 1) == 20**6
        assert peak < 8 * 2**20

    def test_translated_grid_refinement(self):
        # the solution x = (2/3, 0) lies outside the kernel grid (D = 1),
        # so the scan must refine by the translation denominator
        f = LatticeEndomorphism(
            IntegerMatrix.scalar(2, 2), (Fraction(1, 3), Fraction(0))
        )
        assert brute_force_count(f, 1) == count_fixed(f, 1) == 1

    @pytest.mark.parametrize("f, l", [(mult(-1), 2), (mult(1), 1), (mult(2), 2)])
    def test_smith_divisors_decide_degeneracy_without_det(self, monkeypatch, f, l):
        try:
            expected = count_fixed(f, l)
        except DegenerateFixedLocusError as refusal:
            expected = refusal
        calls = []
        bareiss = fixpoint.det
        monkeypatch.setattr(fixpoint, "det", lambda m: calls.append(m) or bareiss(m))
        if isinstance(expected, DegenerateFixedLocusError):
            with pytest.raises(DegenerateFixedLocusError, match=f"^{re.escape(str(expected))}$"):
                brute_force_count(f, l)
        else:
            assert brute_force_count(f, l) == expected
        assert calls == []


class TestIterateDeterminants:
    @pytest.mark.parametrize("l_max", [0, -3])
    def test_l_max_below_one_refused(self, l_max):
        rows = fixpoint.iterate_determinants(mult(2), l_max)
        with pytest.raises(ValueError, match="^l_max must be >= 1$"):
            next(rows)


@pytest.mark.parametrize("l", (2.0, "2"))
@pytest.mark.parametrize(
    "walk", (enumerate_fixed, fixpoint.fixed_columns, brute_force_count, power)
)
def test_point_walks_take_the_iterate_as_an_integer(walk, l):
    # each starts from power(f, l), which refuses an l that is not an int
    f = resolve_scenario("bielliptic-quotient").endomorphism
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        walk(f, l)


class TestGrowthTable:
    @pytest.mark.parametrize("q", (2.0, 4.5, "4"))
    def test_multiplier_must_be_an_integer(self, q):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            growth_table(mult(2), q, 1, 5)

    def test_mult_2_ratios(self):
        rows = growth_table(mult(2), 4, 1, 5)
        for row in rows:
            assert row.ratio == Fraction((2**row.l - 1) ** 2, 4**row.l)
        assert rows[1].ratio == Fraction(9, 16)

    def test_gaussian_first_row(self):
        rows = growth_table(GAUSSIAN, 2, 1, 3)
        assert rows[0].ratio == Fraction(1, 2)
        assert rows[0].asymptote == 2

    def test_asymptote_at_l1(self):
        rows = growth_table(mult(3, 2), 9, 2, 1)
        assert rows[0].asymptote == 9**2

    def test_degenerate_row_propagates_with_context(self):
        # eigenvalue 1 makes every iterate degenerate
        f = LatticeEndomorphism(IntegerMatrix.diagonal([1, 2]))
        with pytest.raises(DegenerateFixedLocusError, match="M\\^1"):
            growth_table(f, 2, 1, 3)

    @pytest.mark.parametrize(
        "f, q, g",
        [
            (mult(3), 6, 1),  # (3^l - 1)^2 is even: the counts share q's 2
            (mult(3), 12, 1),
            (mult(3), 9, 1),
            (mult(4), 9, 1),  # (4^l - 1)^2 is a multiple of 9
            (mult(4), 6, 2),
            (mult(3, 2), 6, 2),
            (mult(2), 4, 1),
            (GAUSSIAN, 2, 1),
        ],
    )
    def test_ratios_equal_fraction(self, f, q, g):
        for row in growth_table(f, q, g, 80):
            assert row.asymptote == q ** (g * row.l)
            expected = Fraction(row.exact_count, row.asymptote)
            assert (row.ratio.numerator, row.ratio.denominator) == (
                expected.numerator,
                expected.denominator,
            )
            assert hash(row.ratio) == hash(expected)
            assert str(row.ratio) == str(expected)

    def test_growth_row_on_counts_rich_in_q_primes(self):
        # counts whose q-part exceeds, meets or falls short of the asymptote's
        rng = random.Random(139)
        primes = (2, 3, 5, 7)
        for _ in range(400):
            q = rng.choice((2, 3, 4, 6, 9, 10, 12, 30, 49, 1024))
            k = rng.randint(1, 40)
            count = rng.randint(1, 10**6)
            for p in primes:
                count *= p ** rng.choice((0, 0, 1, 5, 40, 200))
            row = fixpoint.growth_row(k, count, q, q**k)
            expected = Fraction(count, q**k)
            assert row == fixpoint.GrowthRow(k, count, q**k, expected)
            assert (row.ratio.numerator, row.ratio.denominator) == (
                expected.numerator,
                expected.denominator,
            )

    def test_ratio_bound_on_builtins(self):
        # |ratio - 1| <= 2^(2 - l/2) checked exactly: 2^l (ratio-1)^2 <= 16
        scenarios = [
            (resolve_scenario("mult-by-2"), 4),
            (resolve_scenario("gaussian-cm"), 2),
            (resolve_scenario("silverman-sumdiff"), 2),
            (resolve_scenario("mult-by-3-g2"), 9),
            (resolve_scenario("bielliptic-quotient"), 9),
        ]
        for scenario, q in scenarios:
            rows = growth_table(scenario.endomorphism, q, scenario.torus.g, 12)
            for row in rows:
                if row.l >= 4:
                    assert 2**row.l * (row.ratio - 1) ** 2 <= 16


class TestFactorFormula:
    def test_single_factor_values(self):
        assert factor_product_formula([SimpleFactorSpec(g=1, q=2)], 3) == 7
        assert factor_product_formula([SimpleFactorSpec(g=2, q=3)], 1) == 4

    def test_multiplicity(self):
        one = factor_product_formula([SimpleFactorSpec(g=1, q=9, multiplicity=2)], 1)
        two = factor_product_formula(
            [SimpleFactorSpec(g=1, q=9), SimpleFactorSpec(g=1, q=9)], 1
        )
        assert one == two == 64

    def test_zero_dimension_unrepresentable(self):
        with pytest.raises(ValueError):
            SimpleFactorSpec(g=0, q=2)

    @pytest.mark.parametrize("l", [2.0, 2.5, "2"])
    def test_non_integer_iterate_refused(self, l):
        # 2.0 used to give the float 15.0
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            factor_product_formula([SimpleFactorSpec(1, 4)], l)

    @pytest.mark.parametrize("l", [0, -1])
    def test_iterate_below_one_refused(self, l):
        with pytest.raises(ValueError, match="^iterate must be >= 1$"):
            factor_product_formula([SimpleFactorSpec(1, 4)], l)

    @pytest.mark.parametrize(
        "fields",
        [{"g": 1.0, "q": 4}, {"g": 1, "q": 4.0}, {"g": 1, "q": 4, "multiplicity": 2.0}],
        ids=["g", "q", "multiplicity"],
    )
    def test_non_integer_field_refused(self, fields):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            SimpleFactorSpec(**fields)

    def test_fields_stored_as_int(self):
        class IntegerLike:
            def __init__(self, value):
                self.value = value

            def __index__(self):
                return self.value

        spec = SimpleFactorSpec(True, IntegerLike(4), IntegerLike(2))
        assert [type(v) for v in (spec.g, spec.q, spec.multiplicity)] == [int] * 3
        assert factor_product_formula([spec], 2) == 15**2


class TestCompareExact:
    def test_mult_2_rows(self):
        report = compare_exact(mult(2), [SimpleFactorSpec(g=1, q=4)], 2)
        first, second = report.rows
        assert (first.exact_count, first.formula_value, first.difference) == (1, 3, -2)
        assert (second.exact_count, second.formula_value, second.difference) == (
            9,
            15,
            -6,
        )

    def test_gaussian_agrees_at_l1(self):
        report = compare_exact(GAUSSIAN, [SimpleFactorSpec(g=1, q=2)], 1)
        row = report.rows[0]
        assert (row.exact_count, row.formula_value, row.difference) == (1, 1, 0)

    def test_degenerate_rows_flagged(self):
        f = LatticeEndomorphism(IntegerMatrix.diagonal([1, 1, 1, 1, 4, 4]))
        report = compare_exact(f, [SimpleFactorSpec(g=1, q=16)], 2)
        assert all(row.degenerate for row in report.rows)
        assert all(row.exact_count is None for row in report.rows)

    def test_deterministic(self):
        a = compare_exact(mult(2), [SimpleFactorSpec(g=1, q=4)], 5)
        b = compare_exact(mult(2), [SimpleFactorSpec(g=1, q=4)], 5)
        assert a == b


def lefschetz(m: IntegerMatrix, l: int = 1) -> int:
    """L(f^l) = charpoly(M^l)(1) = (-1)^n det(M^l - I), as verify
    lefschetz reads it: from the split of charpoly(M), no power of M."""
    return (-1) ** m.rows * fixpoint._determinant_from_charpoly(m, l)


class TestLefschetz:
    def test_mult_2(self):
        assert lefschetz(mult(2).matrix) == 1

    def test_mult_3(self):
        assert lefschetz(mult(3).matrix) == 4

    def test_zero_map(self):
        assert lefschetz(IntegerMatrix.zero(2, 2)) == 1

    def test_non_square_refused_by_charpoly(self):
        with pytest.raises(
            NonSquareMatrixError, match="^characteristic polynomial needs a square matrix$"
        ):
            lefschetz(IntegerMatrix.from_rows([[1, 2, 3], [4, 5, 6]]))

    def test_absolute_value_matches_count(self):
        rng = random.Random(21)
        for _ in range(20):
            f = LatticeEndomorphism(random_nonsingular(rng, 4))
            for l in (1, 2):
                assert lefschetz(f.matrix, l) == charpoly(f.matrix**l)(1)
                try:
                    expected = count_fixed(f, l)
                except DegenerateFixedLocusError:
                    continue
                assert abs(lefschetz(f.matrix, l)) == expected


class TestEigenvalueMagnitude:
    def test_multiplication_maps(self):
        for m in (2, 3, 4):
            check = eigenvalue_magnitude_check(mult(m), m * m)
            assert check.passed
            assert check.max_residual <= 1e-9

    def test_gaussian_roots(self):
        # roots of x^2 - 2x + 2 are 1 +- i with |root|^2 = 2
        check = eigenvalue_magnitude_check(GAUSSIAN, 2)
        assert check.passed
        assert sorted(round(z.real, 6) for z in check.roots) == [1.0, 1.0]

    def test_sumdiff_roots(self):
        # charpoly is (x^2 - 2)^2; roots +-sqrt(2) with |root|^2 = 2
        scenario = resolve_scenario("silverman-sumdiff")
        check = eigenvalue_magnitude_check(scenario.endomorphism, 2)
        assert check.passed
        assert check.max_residual <= 1e-9

    def test_failure_reported(self):
        f = LatticeEndomorphism(IntegerMatrix.diagonal([2, 3]))
        check = eigenvalue_magnitude_check(f, 4)
        assert not check.passed
        assert check.max_residual >= 1.0

    @pytest.mark.parametrize("tolerance", (math.inf, math.nan, -1.0))
    def test_tolerance_that_proves_nothing_rejected(self, tolerance):
        # an infinite tolerance would pass the map above, which fails
        f = LatticeEndomorphism(IntegerMatrix.diagonal([2, 3]))
        with pytest.raises(ValueError, match="tolerance must be finite and >= 0"):
            eigenvalue_magnitude_check(f, 4, tolerance)


class TestPeriodicSubvariety:
    def test_diagonal_restriction_counts(self):
        scenario = resolve_scenario("diagonal-subvariety")
        sub = scenario.subvariety
        for l in (1, 2, 3, 4):
            count = periodic_subvariety_count(
                scenario.endomorphism, sub.basis, sub.translate, sub.period, l
            )
            assert count == (2**l - 1) ** 2

    def test_coordinate_factor(self):
        f = LatticeEndomorphism(IntegerMatrix.diagonal([2, 2, 3, 3]))
        basis = IntegerMatrix.from_rows([[1, 0], [0, 1], [0, 0], [0, 0]])
        count = periodic_subvariety_count(
            f, basis, TorsionPoint.reduce([0, 0, 0, 0]), 1, 1
        )
        assert count == 1

    def test_restriction_is_built_once_for_a_table_of_counts(self, monkeypatch):
        scenario = resolve_scenario("diagonal-subvariety")
        sub = scenario.subvariety
        calls = []
        restrict = fixpoint.restrict_to_sublattice

        def counted(*args):
            calls.append(args)
            return restrict(*args)

        charpolys = []
        charpoly = fixpoint.charpoly

        def counted_charpoly(m):
            charpolys.append(m)
            return charpoly(m)

        fixpoint.periodic_subvariety_map.cache_clear()
        fixpoint._charpoly_split.cache_clear()
        monkeypatch.setattr(fixpoint, "restrict_to_sublattice", counted)
        monkeypatch.setattr(fixpoint, "charpoly", counted_charpoly)
        counts = [
            periodic_subvariety_count(
                scenario.endomorphism, sub.basis, sub.translate, sub.period, l
            )
            for l in range(1, 21)
        ]
        fixpoint.periodic_subvariety_map.cache_clear()
        fixpoint._charpoly_split.cache_clear()
        assert counts == [(2**l - 1) ** 2 for l in range(1, 21)]
        assert len(calls) == 1
        # one charpoly, of the restricted 2 x 2 map, for all 20 counts
        assert charpolys == [IntegerMatrix.scalar(2, 2)]

    def test_iterate_below_one_refused_by_count_fixed(self):
        scenario = resolve_scenario("diagonal-subvariety")
        sub = scenario.subvariety
        with pytest.raises(ValueError, match="^iterate must be >= 1$"):
            periodic_subvariety_count(
                scenario.endomorphism, sub.basis, sub.translate, sub.period, 0
            )

    @pytest.mark.parametrize("l", (2.0, "3"))
    def test_iterate_must_be_an_integer(self, l):
        scenario = resolve_scenario("diagonal-subvariety")
        sub = scenario.subvariety
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            periodic_subvariety_count(
                scenario.endomorphism, sub.basis, sub.translate, sub.period, l
            )

    def test_counts_equal_count_fixed_on_the_restriction(self):
        # builtin, torsion-translate and random invariant subtori, at small
        # iterates and on both sides of count_fixed's bit bound, where
        # count_fixed switches from Bareiss on M'^l to the charpoly path
        cases = subvariety_cases()
        for f, basis, translate, period in cases:
            restricted = fixpoint.periodic_subvariety_map(f, basis, translate, period)
            m = restricted.matrix
            iterates = [1, 2, 3, 7]
            if power_bits(m, 1) > power_bits(m, 0):
                past = first_iterate_past_bound(m)
                iterates += [past - 1, past]
            for l in iterates:
                try:
                    expected = count_fixed(restricted, l)
                except DegenerateFixedLocusError as exc:
                    message = f"^{re.escape(str(exc))}$"
                    with pytest.raises(DegenerateFixedLocusError, match=message):
                        periodic_subvariety_count(f, basis, translate, period, l)
                    continue
                assert periodic_subvariety_count(f, basis, translate, period, l) == expected
        assert len(cases) == 14

    @pytest.mark.parametrize("block", FINITE_ORDER_BLOCKS)
    def test_degenerate_iterate_refused_as_count_fixed_refuses_it(self, block):
        # the invariant subtorus carries a finite-order block, so M'^l = I at
        # every multiple l of its order
        rng = random.Random(137)
        order = next(
            k for k in range(1, 7)
            if IntegerMatrix.from_rows(block) ** k == IntegerMatrix.identity(2)
        )
        f, basis = invariant_subtorus(rng, IntegerMatrix.from_rows(block), 2)
        origin = TorsionPoint.reduce([0] * f.rank)
        restricted = fixpoint.periodic_subvariety_map(f, basis, origin, 1)
        for l in (order, 2 * order, 1000 * order):
            with pytest.raises(DegenerateFixedLocusError) as expected:
                count_fixed(restricted, l)
            message = f"^{re.escape(str(expected.value))}$"
            assert str(expected.value).startswith(f"det(M^{l} - I) = 0")
            with pytest.raises(DegenerateFixedLocusError, match=message):
                periodic_subvariety_count(f, basis, origin, 1, l)

    def test_nonperiodic_translate_rejected(self):
        f = mult(2, 2)
        basis = IntegerMatrix.from_rows([[1, 0], [0, 1], [1, 0], [0, 1]])
        bad = TorsionPoint.reduce([Fraction(1, 5), 0, Fraction(1, 5), 0])
        # a refusal is not cached: it raises again on every call
        for _ in range(2):
            with pytest.raises(ValueError, match="periodic"):
                periodic_subvariety_count(f, basis, bad, 1, 1)

    def test_periodic_translate_accepted(self):
        # on the diagonal, 1/3-torsion is fixed by [4] = [2]^2 up to lattice
        f = mult(2, 2)
        basis = IntegerMatrix.from_rows([[1, 0], [0, 1], [1, 0], [0, 1]])
        q = TorsionPoint.reduce([Fraction(1, 3), 0, Fraction(1, 3), 0])
        # [2]^2 maps 1/3 to 4/3 = 1/3 mod 1
        count = periodic_subvariety_count(f, basis, q, 2, 1)
        assert count == (4 - 1) ** 2

    def test_triple_path_agreement_on_restriction(self):
        scenario = resolve_scenario("diagonal-subvariety")
        sub = scenario.subvariety
        from torusdyn import restrict_to_sublattice

        restricted = restrict_to_sublattice(scenario.endomorphism, sub.basis)
        for l in (1, 2, 3):
            a = count_fixed(restricted, l)
            b = len(enumerate_fixed(restricted, l))
            c = brute_force_count(restricted, l)
            assert a == b == c


def invariant_subtorus(
    rng: random.Random, block: IntegerMatrix, rest: int
) -> tuple[LatticeEndomorphism, IntegerMatrix]:
    """f = P [[block, C], [0, B]] P^-1 with random C, B of size rest and
    unimodular P, and the basis of P's first k columns, which spans an
    invariant saturated sublattice on which f acts as block."""
    k = block.rows
    n = k + rest
    rows = [list(block.row(i)) + [rng.randint(-3, 3) for _ in range(rest)] for i in range(k)]
    rows += [[0] * k + list(row) for row in random_matrix(rng, rest).to_lists()]
    p = random_unimodular(rng, n)
    p_inv = complementary_isogeny(LatticeEndomorphism(p))[0].matrix
    f = LatticeEndomorphism(p * IntegerMatrix.from_rows(rows) * p_inv)
    basis = IntegerMatrix.from_rows([row[:k] for row in p.to_lists()])
    return f, basis


def subvariety_cases() -> list:
    """(f, basis, translate, period) on which a subvariety count is defined."""
    diagonal = resolve_scenario("diagonal-subvariety")
    sub = diagonal.subvariety
    torsion = TorsionPoint.reduce([Fraction(1, 3), 0, Fraction(1, 3), 0])
    cases = [
        (diagonal.endomorphism, sub.basis, sub.translate, sub.period),
        (mult(2, 2), IntegerMatrix.from_rows([[1, 0], [0, 1], [1, 0], [0, 1]]), torsion, 2),
    ]
    rng = random.Random(131)
    for k, rest in ((2, 2), (2, 4), (4, 2)):
        for period in (1, 2):
            for _ in range(2):
                f, basis = invariant_subtorus(rng, random_nonsingular(rng, k), rest)
                cases.append((f, basis, TorsionPoint.reduce([0] * f.rank), period))
    return cases
