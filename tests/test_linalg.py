import itertools
import math
import random
from collections import Counter

import pytest

from torusdyn import (
    IntegerMatrix,
    IntegerPolynomial,
    charpoly,
    det,
    exterior_trace_sum,
    pfaffian,
    smith_normal_form,
)
from torusdyn.linalg import (
    NonSquareMatrixError,
    SkewSymmetryError,
    power_sum_polynomial,
    power_sums,
)

from oracles import (
    charpoly_faddeev,
    det_cofactor,
    pfaffian_expansion,
    principal_minor_trace,
    random_matrix,
    random_skew,
    random_unimodular,
)

SUMDIFF = IntegerMatrix.from_rows(
    [
        [1, 0, 1, 0],
        [0, 1, 0, 1],
        [1, 0, -1, 0],
        [0, 1, 0, -1],
    ]
)


def count_products(monkeypatch) -> Counter:
    """Count IntegerMatrix-by-IntegerMatrix products from now on."""
    calls = Counter()
    original = IntegerMatrix.__mul__

    def counted(self, other):
        if isinstance(other, IntegerMatrix):
            calls["products"] += 1
        return original(self, other)

    monkeypatch.setattr(IntegerMatrix, "__mul__", counted)
    return calls


def charpoly_cases():
    """Seeded matrices for the charpoly cross-checks, labelled by kind."""
    rng = random.Random(2024)
    # n = 1..40 takes in every s^2 - 1, s^2, s^2 + 1 for s = ceil(sqrt n)
    for n in range(1, 41):
        yield f"dense n={n}", random_matrix(rng, n, -99, 99)
    for n in range(1, 7):
        big = 2**2000
        yield f"2000-bit n={n}", random_matrix(rng, n, -big, big)
    for n in (1, 4, 9, 10):
        yield f"nilpotent n={n}", IntegerMatrix.from_rows(
            [[rng.randint(-9, 9) if j > i else 0 for j in range(n)] for i in range(n)]
        )
        perm = rng.sample(range(n), n)
        yield f"permutation n={n}", IntegerMatrix.from_rows(
            [[int(j == perm[i]) for j in range(n)] for i in range(n)]
        )
        yield f"scalar n={n}", IntegerMatrix.scalar(n, rng.randint(-9, 9))
        yield f"zero n={n}", IntegerMatrix.zero(n, n)


CHARPOLY_CASES = dict(charpoly_cases())


def assert_smith_certificate(m: IntegerMatrix) -> None:
    """U m V = D with U, V unimodular, a divisor chain and prod d_i = |det m|."""
    snf = smith_normal_form(m)
    assert snf.U * m * snf.V == snf.D
    assert snf.D == IntegerMatrix.diagonal(snf.elementary_divisors)
    assert abs(det(snf.U)) == 1
    assert abs(det(snf.V)) == 1
    ds = snf.elementary_divisors
    assert all(d >= 0 for d in ds)
    nonzero = [d for d in ds if d != 0]
    # zeros trail and the chain divides
    assert list(ds[: len(nonzero)]) == nonzero
    for a, b in zip(nonzero, nonzero[1:]):
        assert b % a == 0
    assert math.prod(ds) == abs(det(m))


# A -> (U, D, V), the exact transforms of the reference elimination: least
# |entry| first in row-major order as pivot, row pass before column pass,
# fold-in of the first row the pivot does not divide, signs fixed last.
# The label names the step each case needs.
SMITH_TRANSFORMS = {
    "shear and xgcd": (
        [[2, 4], [3, 7]],
        [[-1, 1], [-3, 2]], [[1, 0], [0, 2]], [[1, -3], [0, 1]],
    ),
    "fold-in diag(2, 3)": (
        [[2, 0], [0, 3]],
        [[1, 1], [-3, -2]], [[1, 0], [0, 6]], [[-1, -3], [1, 2]],
    ),
    "fold-in of the first of two offending rows": (
        [[2, 0, 0], [0, 3, 0], [0, 0, 5]],
        [[1, 1, 0], [-3, -2, 1], [15, 10, -6]],
        [[1, 0, 0], [0, 1, 0], [0, 0, 30]],
        [[-1, -3, -15], [1, 2, 10], [0, -1, -6]],
    ),
    "row swap": (
        [[5, 3], [2, 7]],
        [[1, -2], [-2, 5]], [[1, 0], [0, 29]], [[1, 11], [0, 1]],
    ),
    "column swap": (
        [[5, 2], [7, 9]],
        [[-4, 1], [9, -2]], [[1, 0], [0, 31]], [[0, 1], [1, 13]],
    ),
    "negative pivot": (
        [[-3, 6], [6, 9]],
        [[-1, 0], [2, 1]], [[3, 0], [0, 21]], [[1, 2], [0, 1]],
    ),
    "4x2": (
        [[1, 2], [3, 4], [5, 6], [7, 8]],
        [[1, 0, 0, 0], [3, -1, 0, 0], [1, -2, 1, 0], [2, -3, 0, 1]],
        [[1, 0], [0, 2], [0, 0], [0, 0]],
        [[1, -2], [0, 1]],
    ),
    "2x4": (
        [[2, 4, 6, 8], [3, 5, 7, 11]],
        [[-1, 1], [3, -2]],
        [[1, 0, 0, 0], [0, 2, 0, 0]],
        [[1, -1, 1, -2], [0, 1, -2, -1], [0, 0, 1, 0], [0, 0, 0, 1]],
    ),
    "rank 2 of 3": (
        [[1, 2, 3], [2, 4, 6], [1, 1, 1]],
        [[1, 0, 0], [1, 0, -1], [-2, 1, 0]],
        [[1, 0, 0], [0, 1, 0], [0, 0, 0]],
        [[1, -2, 1], [0, 1, -2], [0, 0, 1]],
    ),
    "zero 2x3": (
        [[0, 0, 0], [0, 0, 0]],
        [[1, 0], [0, 1]], [[0, 0, 0], [0, 0, 0]], [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
    ),
}


class TestDeterminant:
    def test_identity(self):
        assert det(IntegerMatrix.identity(4)) == 1

    def test_diagonal(self):
        assert det(IntegerMatrix.diagonal([2, 2, 2, 2])) == 16

    def test_sumdiff_block(self):
        # frozen from the cofactor-expansion oracle
        assert det_cofactor(SUMDIFF.to_lists()) == 4
        assert det(SUMDIFF) == 4

    def test_non_square_rejected(self):
        with pytest.raises(NonSquareMatrixError):
            det(IntegerMatrix.from_rows([[1, 2, 3], [4, 5, 6]]))

    def test_matches_cofactor_oracle(self):
        rng = random.Random(101)
        for n in (2, 3, 4, 5):
            for _ in range(20):
                m = random_matrix(rng, n)
                assert det(m) == det_cofactor(m.to_lists())

    def test_singular(self):
        m = IntegerMatrix.from_rows([[1, 2], [2, 4]])
        assert det(m) == 0


class TestSmithNormalForm:
    def test_diag_2_3(self):
        # hand row/column reduction: gcd 1 splits off, lcm 6 remains
        snf = smith_normal_form(IntegerMatrix.diagonal([2, 3]))
        assert snf.elementary_divisors == (1, 6)

    def test_diag_2_2(self):
        snf = smith_normal_form(IntegerMatrix.diagonal([2, 2]))
        assert snf.elementary_divisors == (2, 2)

    def test_zero_matrix(self):
        snf = smith_normal_form(IntegerMatrix.zero(2, 2))
        assert snf.elementary_divisors == (0, 0)

    @pytest.mark.parametrize("seed", range(8))
    def test_decomposition_properties(self, seed):
        rng = random.Random(seed)
        n = rng.choice((2, 3, 4))
        assert_smith_certificate(random_matrix(rng, n, -6, 6))

    @pytest.mark.parametrize("n", [8, 10, 12])
    def test_random_dense_decomposition(self, n):
        # a dense [-99, 99] matrix has divisors (1, ..., 1, |det|); the
        # product through diag(1..n) makes the chain non-trivial
        rng = random.Random(n)
        a = random_matrix(rng, n, -99, 99)
        b = random_matrix(rng, n, -99, 99)
        assert_smith_certificate(a)
        assert_smith_certificate(a * IntegerMatrix.diagonal(range(1, n + 1)) * b)

    def test_rectangular(self):
        basis = IntegerMatrix.from_rows([[1, 0], [0, 1], [1, 0], [0, 1]])
        snf = smith_normal_form(basis)
        assert snf.elementary_divisors == (1, 1)
        assert snf.U * basis * snf.V == snf.D
        assert abs(det(snf.U)) == 1
        assert abs(det(snf.V)) == 1

    def test_rectangular_wide(self):
        m = IntegerMatrix.from_rows([[2, 4, 6], [4, 8, 10]])
        snf = smith_normal_form(m)
        assert snf.U * m * snf.V == snf.D
        assert snf.elementary_divisors == (2, 2)

    @pytest.mark.parametrize("label", SMITH_TRANSFORMS)
    def test_transforms_pinned(self, label):
        # the certificate holds for many (U, V); these are the ones callers
        # have always received, so a rewrite of the kernel must keep them
        a, u, d, v = SMITH_TRANSFORMS[label]
        snf = smith_normal_form(IntegerMatrix.from_rows(a))
        assert (snf.U.to_lists(), snf.D.to_lists(), snf.V.to_lists()) == (u, d, v)
        assert snf.elementary_divisors == tuple(d[k][k] for k in range(min(len(d), len(d[0]))))

    def test_largest_divisor(self):
        assert smith_normal_form(IntegerMatrix.diagonal([1, 6])).largest_divisor() == 6
        assert smith_normal_form(IntegerMatrix.zero(2, 2)).largest_divisor() == 0


class TestCharpoly:
    def test_rotation(self):
        p = charpoly(IntegerMatrix.from_rows([[0, -1], [1, 0]]))
        assert p.coefficients == (1, 0, 1)  # x^2 + 1

    def test_identity(self):
        p = charpoly(IntegerMatrix.identity(2))
        assert p.coefficients == (1, -2, 1)

    def test_twice_identity(self):
        p = charpoly(IntegerMatrix.scalar(2, 2))
        assert p.coefficients == (4, -4, 1)

    def test_2x2_closed_form(self):
        rng = random.Random(7)
        for _ in range(30):
            m = random_matrix(rng, 2, -9, 9)
            tr = m.trace()
            d = det(m)
            assert charpoly(m).coefficients == (d, -tr, 1)

    @pytest.mark.parametrize("n", (2, 3, 4, 5))
    def test_values_at_0_and_1(self, n):
        rng = random.Random(n)
        for _ in range(10):
            m = random_matrix(rng, n)
            p = charpoly(m)
            assert p.coefficients[-1] == 1
            assert len(p.coefficients) == n + 1
            sign = -1 if n % 2 else 1
            assert p(0) == sign * det(m)
            i_minus = IntegerMatrix.identity(n) - m
            assert p(1) == det_cofactor(i_minus.to_lists())

    @pytest.mark.parametrize("n", (1, 2, 3, 4, 5, 6))
    def test_coefficients_are_principal_minor_traces(self, n):
        # det(xI - m) = sum_k (-1)^k tr(wedge^k m) x^(n-k)
        rng = random.Random(300 + n)
        for _ in range(8):
            m = random_matrix(rng, n, -9, 9)
            rows = m.to_lists()
            expected = [(-1) ** k * principal_minor_trace(rows, k) for k in range(n + 1)]
            assert charpoly(m).coefficients == tuple(reversed(expected))

    def test_non_square_rejected(self):
        with pytest.raises(NonSquareMatrixError):
            charpoly(IntegerMatrix.from_rows([[1, 2, 3], [4, 5, 6]]))

    @pytest.mark.parametrize("label", list(CHARPOLY_CASES))
    def test_matches_faddeev_leverrier(self, label):
        m = CHARPOLY_CASES[label]
        assert charpoly(m).coefficients == charpoly_faddeev(m)

    def test_nilpotent_is_x_to_the_n(self):
        for n in (1, 4, 9, 10):
            assert charpoly(CHARPOLY_CASES[f"nilpotent n={n}"]).coefficients == (0,) * n + (1,)

    @pytest.mark.parametrize("n", (4, 5, 16, 17, 32))
    def test_at_most_two_sqrt_n_products(self, monkeypatch, n):
        m = random_matrix(random.Random(n), n, -99, 99)
        calls = count_products(monkeypatch)
        charpoly(m)
        assert calls["products"] <= 2 * math.isqrt(n - 1) + 2


class TestPowerSums:
    def test_traces_of_powers(self):
        rng = random.Random(61)
        for n in range(1, 9):
            for _ in range(5):
                m = random_matrix(rng, n)
                sums = itertools.islice(power_sums(charpoly(m)), 3 * n)
                assert list(sums) == [(m**j).trace() for j in range(1, 3 * n + 1)]

    def test_inverts_power_sum_polynomial(self):
        rng = random.Random(67)
        for degree in range(9):
            for _ in range(5):
                p = IntegerPolynomial(
                    tuple(rng.randint(-50, 50) for _ in range(degree)) + (1,)
                )
                assert power_sum_polynomial(list(itertools.islice(power_sums(p), degree))) == p

    def test_refuses_a_polynomial_that_is_not_monic(self):
        for coefficients in ((0,), (1, 2), (3, 0, -1)):
            with pytest.raises(ValueError, match="monic"):
                next(power_sums(IntegerPolynomial(coefficients)))


class TestPfaffian:
    def test_standard_block(self):
        assert pfaffian(IntegerMatrix.from_rows([[0, 1], [-1, 0]])) == 1

    def test_two_standard_blocks(self):
        block = IntegerMatrix.from_rows([[0, 1], [-1, 0]])
        assert pfaffian(IntegerMatrix.block_diagonal([block, block])) == 1

    def test_congruence_identity(self):
        # Pf(M^T S M) = det(M) Pf(S); both sides via independent routines
        rng = random.Random(23)
        block = IntegerMatrix.from_rows([[0, 1], [-1, 0]])
        s = IntegerMatrix.block_diagonal([block, block])
        for _ in range(25):
            m = random_matrix(rng, 4)
            assert pfaffian(m.transpose() * s * m) == det(m) * pfaffian(s)

    def test_squares_to_determinant(self):
        rng = random.Random(31)
        for n in (2, 4, 6, 8):
            for _ in range(10):
                s = random_skew(rng, n)
                assert pfaffian(s) == pfaffian_expansion(s.to_lists())
                assert pfaffian(s) ** 2 == det(s)

    def test_elimination_branch(self):
        # beyond the reach of the expansion oracle: Pf^2 = det and congruence
        rng = random.Random(47)
        for _ in range(5):
            s = random_skew(rng, 10, -4, 4)
            assert pfaffian(s) ** 2 == det(s)
        u = random_unimodular(rng, 10)
        s = random_skew(rng, 10, -3, 3)
        assert pfaffian(u.transpose() * s * u) == det(u) * pfaffian(s)

    def test_congruence_large_random_transform(self):
        rng = random.Random(53)
        for n in (4, 6):
            for _ in range(10):
                s = random_skew(rng, n)
                u = random_matrix(rng, n)
                assert pfaffian(u.transpose() * s * u) == det(u) * pfaffian(s)

    def test_odd_dimension_rejected(self):
        with pytest.raises(SkewSymmetryError):
            pfaffian(IntegerMatrix.zero(3, 3))

    def test_non_skew_rejected(self):
        with pytest.raises(SkewSymmetryError):
            pfaffian(IntegerMatrix.identity(2))


class TestExteriorTraceSum:
    def test_zero_matrix(self):
        # only the wedge^0 term survives
        assert exterior_trace_sum(IntegerMatrix.zero(2, 2)) == 1

    def test_twice_identity(self):
        assert exterior_trace_sum(IntegerMatrix.scalar(2, 2)) == 1

    def test_matches_minor_sum_oracle(self):
        rng = random.Random(77)
        for _ in range(15):
            m = random_matrix(rng, 4)
            expected = sum(
                (-1) ** k * principal_minor_trace(m.to_lists(), k) for k in range(5)
            )
            assert exterior_trace_sum(m) == expected

    @pytest.mark.parametrize("label", list(CHARPOLY_CASES))
    def test_equals_bareiss_det_i_minus_m(self, label):
        m = CHARPOLY_CASES[label]
        assert exterior_trace_sum(m) == det(IntegerMatrix.identity(m.rows) - m)

    def test_equals_det_i_minus_m(self):
        rng = random.Random(78)
        for n in (2, 3, 5):
            for _ in range(10):
                m = random_matrix(rng, n)
                i_minus = IntegerMatrix.identity(n) - m
                assert exterior_trace_sum(m) == det_cofactor(i_minus.to_lists())


class TestPolynomialAndMatrixBasics:
    def test_polynomial_normalisation(self):
        p = IntegerPolynomial((1, 2, 0, 0))
        assert p.coefficients == (1, 2)

    def test_polynomial_eval_types(self):
        p = IntegerPolynomial((1, 0, 1))
        assert p(2) == 5
        assert p(1j) == 0

    def test_matrix_power(self):
        m = IntegerMatrix.from_rows([[1, 1], [0, 1]])
        assert (m**5)[0, 1] == 5
        assert m**0 == IntegerMatrix.identity(2)
        g = IntegerMatrix.from_rows([[1, -1], [1, 1]])
        product = IntegerMatrix.identity(2)
        for e in range(10):
            assert g**e == product
            product = product * g

    def test_matrix_power_equals_repeated_products(self):
        m = random_matrix(random.Random(11), 3)
        product = IntegerMatrix.identity(3)
        for e in range(41):
            assert m**e == product
            product = product * m

    @pytest.mark.parametrize("e", (1, 2, 3, 7, 8, 31, 32, 40, 1000))
    def test_matrix_power_product_count(self, monkeypatch, e):
        # squarings for every bit below the top, one product per further set bit
        m = IntegerMatrix.from_rows([[1, 1], [1, 0]])
        calls = count_products(monkeypatch)
        m**e
        assert calls["products"] == e.bit_length() + e.bit_count() - 2

    def test_inexact_entries_refused(self):
        # int() would truncate 1.7 to 1
        with pytest.raises(ValueError, match="integers"):
            IntegerMatrix.from_rows([[1.7, 0], [0, 1]])
        with pytest.raises(ValueError, match="integers"):
            IntegerPolynomial((1.7, 2.9))

    def test_block_diagonal(self):
        a = IntegerMatrix.from_rows([[1, 2], [3, 4]])
        b = IntegerMatrix.from_rows([[5]])
        c = IntegerMatrix.block_diagonal([a, b])
        assert c.rows == c.cols == 3
        assert c[2, 2] == 5
        assert c[0, 2] == 0
