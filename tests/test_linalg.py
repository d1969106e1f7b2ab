import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from torusdyn import (
    IntegerMatrix,
    IntegerPolynomial,
    charpoly,
    det,
    pfaffian,
    smith_normal_form,
)
from torusdyn import linalg
from torusdyn.intersection import standard_symplectic_form
from torusdyn.linalg import (
    NonSquareMatrixError,
    SingularMatrixError,
    SkewSymmetryError,
    adjugate,
    charpoly_power,
    echelon_basis,
    power_bits,
    power_mod,
    power_sum_polynomial,
    power_sums,
    product_mod,
    squarefree_factors,
)

from oracles import (
    adjugate_cofactor,
    charpoly_faddeev,
    det_cofactor,
    exchanged_leading_minors,
    nonsingular,
    pfaffian_expansion,
    principal_minor_trace,
    product_schoolbook,
    random_matrix,
    random_nonsingular,
    random_skew,
    random_sparse,
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
    """Count IntegerMatrix-by-IntegerMatrix products from now on.

    "products" counts every product * forms, once; "packed" counts those
    that * hands to the Kronecker-packed _packed_product.
    """
    calls = Counter()
    original = IntegerMatrix.__mul__
    original_packed = linalg._packed_product

    def counted(self, other):
        if isinstance(other, IntegerMatrix):
            calls["products"] += 1
        return original(self, other)

    def counted_packed(a, b):
        calls["packed"] += 1
        return original_packed(a, b)

    monkeypatch.setattr(IntegerMatrix, "__mul__", counted)
    monkeypatch.setattr(linalg, "_packed_product", counted_packed)
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

    @pytest.mark.parametrize(
        "rows, expected",
        [
            ([[5]], 5),
            ([[0]], 0),
            ([[0, 1], [1, 0]], -1),
            # a 3-cycle: two row exchanges
            ([[0, 1, 0], [0, 0, 1], [1, 0, 0]], 1),
            ([[0, 0, 2], [0, 3, 0], [7, 0, 0]], -42),
            ([[0, 1, 2], [0, 3, 4], [0, 5, 6]], 0),
        ],
    )
    def test_row_exchanges(self, rows, expected):
        assert det_cofactor(rows) == expected
        assert det(IntegerMatrix.from_rows(rows)) == expected


def bareiss_cases():
    """Identity, diagonal, block-sparse and random matrices, n = 1..6."""
    rng = random.Random(4242)
    for n in range(1, 7):
        yield f"identity-{n}", IntegerMatrix.identity(n)
        diagonal = [rng.choice((-3, -1, 2, 5)) for _ in range(n)]
        yield f"diagonal-{n}", IntegerMatrix.diagonal(diagonal)
        blocks = [random_matrix(rng, 1 + rng.randrange(2)) for _ in range(n)]
        sparse = IntegerMatrix.block_diagonal(blocks)
        # a block-sparse matrix with its rows cycled, so that pivots are exchanged
        rows = sparse.to_lists()
        yield f"block-sparse-{n}", sparse
        yield f"block-cycled-{n}", IntegerMatrix.from_rows(rows[1:] + rows[:1])
        yield f"random-{n}", random_matrix(rng, n)


BAREISS_CASES = dict(bareiss_cases())


class TestBareissPivots:
    @pytest.mark.parametrize("label", list(BAREISS_CASES))
    def test_pivots_exchanges_and_det_match_cofactors(self, label):
        m = BAREISS_CASES[label]
        rows = m.to_lists()
        pivots, exchanges = linalg.bareiss_pivots(m)
        d = det_cofactor(rows)
        assert det(m) == d
        assert (-1) ** exchanges * pivots[-1] == d
        if not exchanges:
            # Sylvester's identity: the k-th pivot is the k-th leading minor
            assert pivots == [
                det_cofactor([r[:k] for r in rows[:k]]) for k in range(1, len(pivots) + 1)
            ]

    def test_cases_exchange_rows_and_end_singular(self):
        results = [linalg.bareiss_pivots(m) for m in BAREISS_CASES.values()]
        assert any(exchanges for _, exchanges in results)
        assert any(pivots[-1] == 0 for pivots, _ in results)

    @pytest.mark.parametrize("n", range(2, 8))
    def test_sparse_pivots_are_minors_of_the_exchanged_matrix(self, n):
        # a zero corner forces an exchange at the first step, and the zeros
        # leave most rows alone at most steps
        rng = random.Random(300 + n)
        exchanged = 0
        for _ in range(25):
            rows = random_sparse(rng, n).to_lists()
            rows[0][0] = 0
            pivots, exchanges = linalg.bareiss_pivots(IntegerMatrix.from_rows(rows))
            assert (pivots, exchanges) == exchanged_leading_minors(rows)
            exchanged += exchanges > 0
        assert exchanged > 0

    @pytest.mark.parametrize("n", (2, 5, 8))
    def test_dense_rows_take_the_plain_updates(self, n):
        # with no zero in a pivot column every row below the pivot is
        # updated at every step, each entry past the pivot column once, with
        # no rescaling, and the rows end as the elimination without the skip
        # leaves them
        rows = random_matrix(random.Random(n), n, 1, 9).to_lists()
        a = [CountedRow(row) for row in rows]
        linalg._bareiss(a, jordan=False)
        assert a == plain_bareiss_rows(rows)
        assert sum(row.entries for row in a) == sum(k * k for k in range(n))
        assert sum(row.rescales for row in a) == 0

    @pytest.mark.parametrize("jordan", (False, True))
    def test_scalar_rows_are_only_rescaled(self, jordan):
        # c I: no row is updated; row k is brought to the pivot c^k once
        n = 9
        a = [CountedRow(row) for row in IntegerMatrix.scalar(n, 3).to_lists()]
        pivots, exchanges, levels = linalg._bareiss(a, jordan)
        assert (pivots, exchanges) == ([3 ** (k + 1) for k in range(n)], 0)
        assert [(row.entries, row.rescales) for row in a] == [(0, 0)] + [(0, 1)] * (n - 1)
        assert levels == pivots


class CountedRow(list):
    """A row that counts the entries written to it one at a time, and the
    slices written at once (a rescaled row)."""

    entries = rescales = 0

    def __setitem__(self, index, value):
        if isinstance(index, slice):
            self.rescales += 1
        else:
            self.entries += 1
        super().__setitem__(index, value)


def plain_bareiss_rows(rows: list[list[int]]) -> list[list[int]]:
    """The rows after a forward Bareiss pass that updates every row below
    the pivot, columns past it only; assumes no pivot is 0."""
    a = [row[:] for row in rows]
    n = len(a)
    prev = 1
    for k in range(n):
        p = a[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * p - a[i][k] * a[k][j]) // prev
        prev = p
    return a


def adjugate_cases():
    """Nonsingular matrices for adjugate, labelled by kind."""
    rng = random.Random(5150)
    for n in range(1, 7):
        yield f"dense n={n}", random_nonsingular(rng, n, -9, 9)
        if n >= 3:
            # below n = 3 a 60 % share of zeros leaves every matrix singular
            yield f"sparse n={n}", nonsingular(lambda: random_sparse(rng, n))
        yield f"scalar n={n}", IntegerMatrix.scalar(n, rng.choice((-3, 2, 5)))
        perm = rng.sample(range(n), n)
        yield f"signed permutation n={n}", IntegerMatrix.from_rows(
            [[rng.choice((-1, 1)) if j == perm[i] else 0 for j in range(n)] for i in range(n)]
        )
    blocks = [random_nonsingular(rng, 2) for _ in range(3)]
    rows = IntegerMatrix.block_diagonal(blocks).to_lists()
    yield "block-diagonal 6", IntegerMatrix.from_rows(rows)
    yield "block-diagonal 6, rows cycled", IntegerMatrix.from_rows(rows[1:] + rows[:1])


ADJUGATE_CASES = dict(adjugate_cases())


class TestAdjugate:
    @pytest.mark.parametrize("label", list(ADJUGATE_CASES))
    def test_matches_the_cofactor_adjugate(self, label):
        m = ADJUGATE_CASES[label]
        rows = m.to_lists()
        d, adj = adjugate(m)
        assert d == det_cofactor(rows)
        assert adj.to_lists() == adjugate_cofactor(rows)

    @pytest.mark.parametrize("label", list(ADJUGATE_CASES))
    def test_adjugate_identity(self, label):
        m = ADJUGATE_CASES[label]
        d, adj = adjugate(m)
        scalar = IntegerMatrix.scalar(m.rows, d)
        assert m * adj == adj * m == scalar

    @pytest.mark.parametrize("n", (8, 12, 16, 32))
    def test_adjugate_identity_past_the_cofactor_oracle(self, n):
        rng = random.Random(n)
        unimodular = random_unimodular(rng, n, steps=3 * n)
        for m in (
            random_matrix(rng, n, -99, 99),
            random_sparse(rng, n, zeros=0.8) + IntegerMatrix.scalar(n, 7),
            unimodular,
            IntegerMatrix.scalar(n, -2) * unimodular,
        ):
            d, adj = adjugate(m)
            assert d == det(m)
            product = product_schoolbook(m.to_lists(), adj.to_lists())
            assert product == IntegerMatrix.scalar(n, d).to_lists()
            assert product_schoolbook(adj.to_lists(), m.to_lists()) == product

    def test_scalar_rows_are_brought_to_the_determinant_once(self):
        # 2I of size 256: no row is updated, each is only rescaled
        d, adj = adjugate(IntegerMatrix.scalar(256, 2))
        assert d == 2**256
        assert adj == IntegerMatrix.scalar(256, 2**255)

    @pytest.mark.parametrize(
        "rows", [[[0]], [[1, 2], [2, 4]], [[0, 1, 2], [0, 3, 4], [0, 5, 6]], [[1, 0], [0, 0]]]
    )
    def test_singular_refused(self, rows):
        with pytest.raises(SingularMatrixError, match="singular"):
            adjugate(IntegerMatrix.from_rows(rows))

    def test_non_square_refused(self):
        with pytest.raises(NonSquareMatrixError):
            adjugate(IntegerMatrix.from_rows([[1, 2, 3], [4, 5, 6]]))


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


def subgroup_mod(rows: list[list[int]], modulus: int) -> set[tuple[int, ...]]:
    """The subgroup of (Z/modulus)^n the rows generate, by closing under addition."""
    n = len(rows[0])
    group = {(0,) * n}
    frontier = list(group)
    while frontier:
        a = frontier.pop()
        for row in rows:
            b = tuple((x + y) % modulus for x, y in zip(a, row))
            if b not in group:
                group.add(b)
                frontier.append(b)
    return group


def assert_echelon(basis: list[list[int]], modulus: int, n: int) -> None:
    """Upper triangular, 0 < h_i | modulus on the diagonal, [0, modulus) after it."""
    assert len(basis) == n
    for i, b in enumerate(basis):
        assert len(b) == n
        assert not any(b[:i])
        assert 0 < b[i] <= modulus and modulus % b[i] == 0
        assert all(0 <= v < modulus for v in b[i + 1 :])


class TestEchelonBasis:
    @pytest.mark.parametrize("seed", range(40))
    def test_spans_the_generated_subgroup(self, seed):
        rng = random.Random(seed)
        n = rng.choice((1, 2, 3))
        modulus = rng.randint(1, 12)
        generators = [
            [rng.randint(-30, 30) for _ in range(n)] for _ in range(rng.randint(1, 4))
        ]
        basis = echelon_basis(generators, modulus)
        assert_echelon(basis, modulus, n)
        group = subgroup_mod(generators, modulus)
        assert subgroup_mod(basis, modulus) == group
        assert math.prod(modulus // b[i] for i, b in enumerate(basis)) == len(group)

    def test_zero_generators_leave_the_modulus_on_the_diagonal(self):
        assert echelon_basis([[0, 0], [0, 0]], 6) == [[6, 0], [0, 6]]

    def test_full_lattice_has_unit_pivots(self):
        # det [[2, 3], [1, 1]] = -1: the rows span Z^2
        basis = echelon_basis([[2, 3], [1, 1]], 7)
        assert [b[i] for i, b in enumerate(basis)] == [1, 1]

    def test_pivots_are_gcds_with_the_modulus(self):
        # 15 (1, 0) and 15 (0, 1) span 15 Z^2 + 60 Z^2 = 15 Z^2
        assert echelon_basis([[15, 0], [0, 15]], 60) == [[15, 0], [0, 15]]
        # (4, 6) alone: column 0 has gcd(4, 12) = 4, and 3 (4, 6) = (12, 18)
        # leaves (0, 18 mod 12 = 6) for column 1
        assert echelon_basis([[4, 6]], 12) == [[4, 6], [0, 6]]


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
        assert calls["packed"] == (calls["products"] if n >= linalg._PACK_MIN_N else 0)

    @pytest.mark.parametrize("n", (linalg._PACK_MIN_N - 1, linalg._PACK_MIN_N))
    def test_packing_starts_at_pack_min_n(self, monkeypatch, n):
        m = random_matrix(random.Random(n), n, -99, 99)
        calls = count_products(monkeypatch)
        coefficients = charpoly(m).coefficients
        assert calls["packed"] == (calls["products"] if n == linalg._PACK_MIN_N else 0)
        assert coefficients == charpoly_faddeev(m)

    def test_big_entries_stay_on_plain_products(self, monkeypatch):
        n = linalg._PACK_MIN_N
        big = 2**500
        m = random_matrix(random.Random(500), n, -big, big)
        calls = count_products(monkeypatch)
        coefficients = charpoly(m).coefficients
        assert calls["products"] > 0 and calls["packed"] == 0
        assert coefficients == charpoly_faddeev(m)

    def test_baby_steps_pack_when_only_the_giant_is_big(self, monkeypatch):
        # entries of 20 bits: m packs, G = m^4 has more than 64 bits
        n = 16
        m = random_matrix(random.Random(20), n, -(2**20), 2**20)
        calls = count_products(monkeypatch)
        coefficients = charpoly(m).coefficients
        assert (calls["packed"], calls["products"]) == (3, 6)
        assert coefficients == charpoly_faddeev(m)


def packed_product_cases():
    """Pairs (a, b) for _packed_product, labelled by kind."""
    rng = random.Random(2026)
    for n in (1, 2, 5, 12, 17):
        for bits in (1, 7, 8, 63, 64, 300):
            top = 2**bits
            yield f"random n={n} {bits}-bit", (
                random_matrix(rng, n, -top, top),
                random_matrix(rng, n, -top, top),
            )
    a = IntegerMatrix.from_rows([[rng.randint(-9, 9) for _ in range(7)] for _ in range(3)])
    b = IntegerMatrix.from_rows([[rng.randint(-9, 9) for _ in range(4)] for _ in range(7)])
    yield "rectangular 3x7 by 7x4", (a, b)
    # * packs both of these: at least _PACK_MIN_N rows, at most 64 bits on the left
    a = IntegerMatrix.from_rows([[rng.randint(-9, 9) for _ in range(5)] for _ in range(13)])
    b = IntegerMatrix.from_rows([[rng.randint(-9, 9) for _ in range(9)] for _ in range(5)])
    yield "rectangular 13x5 by 5x9", (a, b)
    yield "64-bit left by 2000-bit right", (
        random_matrix(rng, 12, -(2**64) + 1, 2**64 - 1),
        random_matrix(rng, 12, -(2**2000), 2**2000),
    )
    big = random_matrix(rng, 6, -(2**90), 2**90)
    yield "zero left", (IntegerMatrix.zero(6, 6), big)
    yield "zero right", (big, IntegerMatrix.zero(6, 6))
    one = IntegerMatrix.from_rows(
        [[-(2**70) if (i, j) == (2, 4) else 0 for j in range(6)] for i in range(6)]
    )
    yield "one nonzero left", (one, big)
    yield "one nonzero right", (big, one)


PACKED_PRODUCT_CASES = dict(packed_product_cases())


# bound -> (n, max|a|, max|b|) with n max|a| max|b| = bound, on both sides
# of the switch from 8-byte slots (bound below 2^62) to wider ones
WORD_SWITCH_BOUNDS = {
    2**62 - 1: (3, 2**31 - 1, (2**31 + 1) // 3),
    2**62: (4, 2**30, 2**30),
    2**62 + 1: (5, 1, (2**62 + 1) // 5),
    2**63 - 1: (7, 1, (2**63 - 1) // 7),
    2**63: (2, 2**31, 2**31),
}


def count_word_arrays(monkeypatch) -> Counter:
    """Count the arrays _packed_product makes from now on: two per product
    on 8-byte slots (packing b and cutting the rows), none on wider ones."""
    calls = Counter()
    original = linalg.array

    def counted(*args):
        calls["arrays"] += 1
        return original(*args)

    monkeypatch.setattr(linalg, "array", counted)
    return calls


class TestPackedProduct:
    @pytest.mark.parametrize("label", list(PACKED_PRODUCT_CASES))
    def test_equals_plain_product(self, label):
        a, b = PACKED_PRODUCT_CASES[label]
        expected = product_schoolbook(a.to_lists(), b.to_lists())
        assert linalg._packed_product(a, b).to_lists() == expected
        assert (a * b).to_lists() == expected

    def test_slots_reach_their_bound(self):
        # every entry of the product is n max|a| max|b| in size, of either
        # sign; the bound's bit lengths take every residue mod 8, on both
        # sides of the switch from 8-byte slots to wider ones
        for bits in range(1, 65):
            top = 2**bits - 1
            for n in (3, 12):
                plus = IntegerMatrix.from_rows([[top] * n] * n)
                signs = IntegerMatrix.from_rows(
                    [[top if (i + j) % 2 else -top for j in range(n)] for i in range(n)]
                )
                for a, b in ((plus, plus), (plus, -plus), (-plus, plus), (signs, plus)):
                    expected = product_schoolbook(a.to_lists(), b.to_lists())
                    assert linalg._packed_product(a, b).to_lists() == expected

    @pytest.mark.parametrize("bound", WORD_SWITCH_BOUNDS)
    @pytest.mark.parametrize("signs", ("++", "+-", "-+", "alternating"))
    def test_word_slots_switch_at_62_bits(self, monkeypatch, bound, signs):
        # n max|a| max|b| = bound exactly, and every entry of the product
        # reaches it: 8-byte slots while the bound has at most 62 bits
        n, left_top, right_top = WORD_SWITCH_BOUNDS[bound]
        assert n * left_top * right_top == bound
        left = [[left_top] * n for _ in range(3)]
        right = [[right_top] * 4 for _ in range(n)]
        if signs[0] == "-":
            left = [[-v for v in row] for row in left]
        if signs[-1] == "-":
            right = [[-v for v in row] for row in right]
        if signs == "alternating":
            left = [
                [v if (i + j) % 2 else -v for j, v in enumerate(row)]
                for i, row in enumerate(left)
            ]
        words = count_word_arrays(monkeypatch)
        a, b = IntegerMatrix.from_rows(left), IntegerMatrix.from_rows(right)
        assert linalg._packed_product(a, b).to_lists() == product_schoolbook(left, right)
        assert words["arrays"] == (2 if bound.bit_length() < 63 else 0)

    @pytest.mark.parametrize("bound", WORD_SWITCH_BOUNDS)
    def test_zero_factors_at_the_switch(self, monkeypatch, bound):
        # a zero factor on either side: the other one alone sets the slots
        n, _, top = WORD_SWITCH_BOUNDS[bound]
        full = IntegerMatrix.from_rows(
            [[top if (i + j) % 3 else -top for j in range(n)] for i in range(n)]
        )
        zero = IntegerMatrix.zero(n, n)
        words = count_word_arrays(monkeypatch)
        assert linalg._packed_product(zero, full) == zero
        assert linalg._packed_product(full, zero) == zero
        # packing b = full takes slots for n * top; b = 0 takes 8 bytes
        assert words["arrays"] == (4 if (n * top).bit_length() < 63 else 2)

    @pytest.mark.parametrize("right_top, words", [(858993459, True), (858993460, False)])
    def test_rectangular_at_the_switch(self, monkeypatch, right_top, words):
        # 13x5 by 5x9 with random signs: 5 * 2^30 * right_top is just below
        # 2^62 (62 bits), then 2^62 + 2^32 (63 bits)
        rng = random.Random(right_top)
        left_top = 2**30
        slot_bound = 5 * left_top * right_top
        assert slot_bound.bit_length() == (62 if words else 63)
        left = [[rng.choice((-1, 1)) * left_top for _ in range(5)] for _ in range(13)]
        right = [[rng.choice((-1, 1)) * right_top for _ in range(9)] for _ in range(5)]
        # one column of equal signs takes some entry of the product to the bound
        for i in range(5):
            right[i][0] = left[0][i] // left_top * right_top
        calls = count_word_arrays(monkeypatch)
        a, b = IntegerMatrix.from_rows(left), IntegerMatrix.from_rows(right)
        expected = product_schoolbook(left, right)
        assert expected[0][0] == slot_bound
        assert linalg._packed_product(a, b).to_lists() == expected
        assert (a * b).to_lists() == expected
        assert calls["arrays"] == (4 if words else 0)

    @pytest.mark.parametrize(
        "n, bits, packs",
        [
            (linalg._PACK_MIN_N, linalg._PACK_MAX_BITS, True),
            (linalg._PACK_MIN_N, linalg._PACK_MAX_BITS + 1, False),
            (linalg._PACK_MIN_N - 1, linalg._PACK_MAX_BITS, False),
        ],
    )
    def test_packing_bit_bound(self, monkeypatch, n, bits, packs):
        m = IntegerMatrix.scalar(n, -(2**bits - 1))
        assert max(abs(x) for x in m.entries).bit_length() == bits
        calls = count_products(monkeypatch)
        square = m * m
        assert (calls["products"], calls["packed"]) == (1, int(packs))
        assert square.to_lists() == product_schoolbook(m.to_lists(), m.to_lists())


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


def times_x_mod(coefficients: list[int], p: IntegerPolynomial) -> list[int]:
    """x * r mod the monic p, r given by its deg p ascending coefficients."""
    *tail, _ = p.coefficients
    shifted = [0, *coefficients]
    top = shifted.pop()
    return [c - top * t for c, t in zip(shifted, tail)]


def random_monic(rng: random.Random, degree: int) -> IntegerPolynomial:
    return IntegerPolynomial(tuple(rng.randint(-9, 9) for _ in range(degree)) + (1,))


class TestPowerMod:
    def test_equals_repeated_multiplication_by_x(self):
        rng = random.Random(71)
        for degree in range(1, 9):
            p = random_monic(rng, degree)
            r = times_x_mod([1] + [0] * (degree - 1), p)
            for l in range(1, 40):
                assert power_mod(p, l) == IntegerPolynomial(tuple(r))
                r = times_x_mod(r, p)

    def test_remainder_at_the_matrix_is_its_power(self):
        # Cayley-Hamilton: m^l = r(m) for r = x^l mod charpoly(m)
        rng = random.Random(73)
        for n in range(1, 7):
            m = random_matrix(rng, n)
            for l in (1, 2, 5, 17, 64):
                r = power_mod(charpoly(m), l)
                value = IntegerMatrix.zero(n, n)
                for c in reversed(r.coefficients):
                    value = value * m + IntegerMatrix.scalar(n, c)
                assert value == m**l

    def test_degree_one_is_a_constant(self):
        for a in (-3, -1, 0, 1, 2, 7):
            for l in (1, 2, 3, 10, 101):
                assert power_mod(IntegerPolynomial((-a, 1)), l) == IntegerPolynomial((a**l,))

    def test_refuses_a_polynomial_that_is_not_monic(self):
        one_plus_x = IntegerPolynomial((1, 1))
        for coefficients in ((0,), (1, 2), (3, 0, -1)):
            p = IntegerPolynomial(coefficients)
            with pytest.raises(ValueError, match="monic"):
                power_mod(p, 3)
            with pytest.raises(ValueError, match="monic"):
                product_mod(one_plus_x, one_plus_x, p)

    @pytest.mark.parametrize("l", (0, -1, -5))
    def test_refuses_an_exponent_below_one(self, l):
        with pytest.raises(ValueError, match="exponent must be >= 1"):
            power_mod(IntegerPolynomial((2, -3, 1)), l)

    @pytest.mark.parametrize("l", (2.0, 2.5, "3"))
    def test_exponent_must_be_an_integer(self, l):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            power_mod(IntegerPolynomial((2, -3, 1)), l)

    def test_product_mod_equals_the_product_reduced(self):
        rng = random.Random(79)
        for degree in range(1, 7):
            p = random_monic(rng, degree)
            for _ in range(5):
                a = [rng.randint(-50, 50) for _ in range(degree)]
                b = [rng.randint(-50, 50) for _ in range(degree)]
                # a * b = sum_j b_j x^j a, each x^j a reduced by times_x_mod
                expected, shifted = [0] * degree, a
                for coefficient in b:
                    expected = [e + coefficient * s for e, s in zip(expected, shifted)]
                    shifted = times_x_mod(shifted, p)
                product = product_mod(IntegerPolynomial(tuple(a)), IntegerPolynomial(tuple(b)), p)
                assert product == IntegerPolynomial(tuple(expected))


def power_product(factors) -> IntegerPolynomial:
    """prod a^i over the pairs (a, i), multiplied out by hand."""
    product = [1]
    for a, i in factors:
        for _ in range(i):
            out = [0] * (len(product) + len(a.coefficients) - 1)
            for j, x in enumerate(product):
                for k, y in enumerate(a.coefficients):
                    out[j + k] += x * y
            product = out
    return IntegerPolynomial(tuple(product))


# pairwise coprime squarefree pieces: x - r for distinct integers r, and
# x^2 + c for distinct c >= 1, whose roots are not real
LINEAR = [IntegerPolynomial((-r, 1)) for r in range(-4, 5)]
QUADRATIC = [IntegerPolynomial((c, 0, 1)) for c in range(1, 6)]


class TestSquarefreeFactors:
    def test_products_of_coprime_pieces_with_multiplicities(self):
        rng = random.Random(107)
        for _ in range(60):
            pieces = rng.sample(LINEAR, rng.randint(0, 3)) + rng.sample(QUADRATIC, rng.randint(0, 2))
            if not pieces:
                continue
            multiplicity = {piece: rng.randint(1, 4) for piece in pieces}
            p = power_product(multiplicity.items())
            # a_i is the product of the pieces of multiplicity i
            expected = [
                (power_product((piece, 1) for piece in pieces if multiplicity[piece] == i), i)
                for i in sorted(set(multiplicity.values()))
            ]
            assert squarefree_factors(p) == expected

    def test_products_of_random_monic_factors(self):
        rng = random.Random(109)
        for _ in range(60):
            factors = [(random_monic(rng, rng.randint(1, 3)), rng.randint(1, 4)) for _ in range(3)]
            p = power_product(factors)
            split = squarefree_factors(p)
            assert power_product(split) == p
            assert [i for _, i in split] == sorted({i for _, i in split})
            # squarefree and pairwise coprime: such a split of p is unique
            for a, _ in split:
                assert a.coefficients[-1] == 1 and len(a.coefficients) > 1
                assert squarefree_factors(a) == [(a, 1)]
            for (a, _), (b, _) in itertools.combinations(split, 2):
                assert squarefree_factors(a * b) == [(a * b, 1)]

    @pytest.mark.parametrize("k", (1, 2, 3, 6))
    def test_power_of_x(self, k):
        x = IntegerPolynomial((0, 1))
        assert squarefree_factors(power_product([(x, k)])) == [(x, k)]

    @pytest.mark.parametrize("c", (-3, 0, 1, 2**70))
    def test_degree_one(self, c):
        p = IntegerPolynomial((c, 1))
        assert squarefree_factors(p) == [(p, 1)]

    def test_repeated_roots_mod_the_prime(self):
        # x (x - P) and x^2 (x - P) reduce to x^2 and x^3 mod P = 2^61 - 1,
        # so the modular test fails and the rational split decides
        prime = linalg._SQUAREFREE_PRIME
        x, shifted = IntegerPolynomial((0, 1)), IntegerPolynomial((-prime, 1))
        p = power_product([(x, 1), (shifted, 1)])
        assert squarefree_factors(p) == [(p, 1)]
        assert squarefree_factors(power_product([(x, 2), (shifted, 1)])) == [(shifted, 1), (x, 2)]

    def test_refuses_a_polynomial_that_is_not_monic(self):
        for coefficients in ((0,), (1, 2), (3, 0, -1), (4, 4, 2)):
            with pytest.raises(ValueError, match="monic"):
                squarefree_factors(IntegerPolynomial(coefficients))

    @pytest.mark.parametrize(
        "p", ((2, -2, 1), (4, 0, -4, 0, 1)), ids=("squarefree", "repeated")
    )
    def test_perturbed_certificate_raises(self, monkeypatch, p):
        product = IntegerPolynomial.__mul__

        def perturbed(a, b):
            c = product(a, b).coefficients
            return IntegerPolynomial((c[0] + 1, *c[1:]))

        monkeypatch.setattr(IntegerPolynomial, "__mul__", perturbed)
        with pytest.raises(AssertionError, match="do not multiply back"):
            squarefree_factors(IntegerPolynomial(p))


def charpoly_power_cases():
    """Seeded n <= 7 matrices, labelled by kind: dense, singular, scalar,
    negative-determinant, and block-diagonal with repeated blocks, whose
    splits hold repeated and degree-1 factors."""
    rng = random.Random(131)
    for n in range(1, 8):
        for j in range(20):
            yield f"dense n={n} #{j}", random_matrix(rng, n)
        rows = random_matrix(rng, n).to_lists()
        rows[-1] = rows[0]
        yield f"singular n={n}", IntegerMatrix.from_rows(rows)
        yield f"scalar n={n}", IntegerMatrix.scalar(n, rng.choice((-3, -2, -1, 0, 1, 2, 3)))
        m = random_matrix(rng, n)
        while det(m) >= 0:
            m = random_matrix(rng, n)
        yield f"negative determinant n={n}", m
    for j in range(6):
        block = random_matrix(rng, 2)
        scalar = IntegerMatrix.scalar(1, rng.randint(-3, 3))
        yield f"repeated blocks #{j}", IntegerMatrix.block_diagonal([block, block, scalar, scalar])


class TestCharpolyPower:
    def test_split_powers_multiply_to_charpoly_of_the_power(self):
        rng = random.Random(137)
        kinds = Counter()
        for label, m in charpoly_power_cases():
            split = squarefree_factors(charpoly(m))
            kinds["degree 1"] += any(len(a.coefficients) == 2 for a, _ in split)
            kinds["repeated"] += any(i > 1 for _, i in split)
            for l in (1, 2, 3, rng.randint(4, 30)):
                got = power_product((charpoly_power(a, l), i) for a, i in split)
                assert got == charpoly(m**l), (label, l)
        assert kinds["degree 1"] and kinds["repeated"]

    def test_degree_one_forms_no_power_mod(self, monkeypatch):
        monkeypatch.setattr(linalg, "power_mod", None)
        for a in (-3, -1, 0, 1, 2, 7):
            for l in (1, 2, 3, 10, 101):
                assert charpoly_power(IntegerPolynomial((-a, 1)), l) == IntegerPolynomial((-(a**l), 1))

    def test_refuses_a_polynomial_that_is_not_monic(self):
        for coefficients in ((0,), (1,), (1, 2), (3, 0, -1)):
            with pytest.raises(ValueError, match="monic polynomial of degree >= 1"):
                charpoly_power(IntegerPolynomial(coefficients), 3)

    @pytest.mark.parametrize("l", (0, -1, -5))
    def test_refuses_an_exponent_below_one(self, l):
        with pytest.raises(ValueError, match="exponent must be >= 1"):
            charpoly_power(IntegerPolynomial((2, -3, 1)), l)

    @pytest.mark.parametrize("l", (2.0, 2.5, "3"))
    def test_exponent_must_be_an_integer(self, l):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            charpoly_power(IntegerPolynomial((2, -3, 1)), l)

    @pytest.mark.parametrize("b", (0, 1, -1, 2, -2, 3, -3, 6, -12, 64, -96, 2**70 * 3))
    @pytest.mark.parametrize("l", (1, 2, 3, 7, 64, 1001))
    def test_shifted_power(self, b, l):
        assert linalg._shifted_power(b, l) == b**l


class TestPowerBits:
    @pytest.mark.parametrize(
        "rows, per_iterate",
        (
            ([[0, 0, 0], [0, 0, 0], [0, 0, 0]], 0),  # |m| = 0
            ([[0, 1, 0], [0, 0, -1], [1, 0, 0]], 0),  # |m| = 1
            ([[1, -1, 0], [1, 1, 0], [0, 0, 1]], 1),  # |m| = 2
            ([[1, 2, 0], [0, -3, 0], [0, 0, 1]], 2),  # |m| = 3
        ),
    )
    def test_estimate(self, rows, per_iterate):
        m = IntegerMatrix.from_rows(rows)
        for l in (1, 2, 7, 1000):
            # ceil(log2 3) = 2
            assert power_bits(m, l) == per_iterate * l + 2

    def test_bounds_the_entries_of_the_power(self):
        rng = random.Random(83)
        for n in range(1, 9):
            m = random_matrix(rng, n)
            for l in (1, 2, 3, 10, 40):
                largest = max(map(abs, (m**l).entries))
                assert largest.bit_length() <= power_bits(m, l)


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

    @pytest.mark.parametrize("n", (2, 4, 6, 8, 10))
    def test_sparse_skew_matches_expansion(self, n):
        # rows with a[0][i] = a[1][i] = 0 are copied or rescaled, not updated
        rng = random.Random(400 + n)
        for _ in range(20):
            upper = random_sparse(rng, n, zeros=0.7, lo=-5, hi=5).to_lists()
            rows = [
                [upper[i][j] if j > i else -upper[j][i] if j < i else 0 for j in range(n)]
                for i in range(n)
            ]
            s = IntegerMatrix.from_rows(rows)
            assert pfaffian(s) == pfaffian_expansion(rows)
            assert pfaffian(s) ** 2 == det(s) == det_cofactor(rows)

    @pytest.mark.parametrize("g", range(1, 17))
    def test_standard_symplectic_form(self, g):
        s = standard_symplectic_form(g)
        assert pfaffian(s) == pfaffian_expansion(s.to_lists()) == (-1) ** g
        assert pfaffian(s) ** 2 == det(s) == 1
        # a multiple of it: each step scales the rows it copies
        assert pfaffian(s * 3) == (-3) ** g

    def test_odd_dimension_rejected(self):
        with pytest.raises(SkewSymmetryError):
            pfaffian(IntegerMatrix.zero(3, 3))

    def test_non_skew_rejected(self):
        with pytest.raises(SkewSymmetryError):
            pfaffian(IntegerMatrix.identity(2))


def lefschetz_number(m: IntegerMatrix) -> int:
    """sum_k (-1)^k tr(wedge^k m) = charpoly(m)(1), read off the split
    charpoly(m) = prod_i a_i^i as prod_i charpoly_power(a_i, 1)(1)^i, the
    algebra of the production path at l = 1."""
    return math.prod(
        charpoly_power(a, 1)(1) ** i for a, i in squarefree_factors(charpoly(m))
    )


class TestExteriorTraceSum:
    def test_zero_matrix(self):
        # only the wedge^0 term survives
        assert lefschetz_number(IntegerMatrix.zero(2, 2)) == 1

    def test_twice_identity(self):
        assert lefschetz_number(IntegerMatrix.scalar(2, 2)) == 1

    def test_matches_minor_sum_oracle(self):
        rng = random.Random(77)
        for _ in range(15):
            m = random_matrix(rng, 4)
            expected = sum(
                (-1) ** k * principal_minor_trace(m.to_lists(), k) for k in range(5)
            )
            assert lefschetz_number(m) == expected

    @pytest.mark.parametrize("label", list(CHARPOLY_CASES))
    def test_equals_bareiss_det_i_minus_m(self, label):
        m = CHARPOLY_CASES[label]
        assert lefschetz_number(m) == det(IntegerMatrix.identity(m.rows) - m)

    def test_equals_det_i_minus_m(self):
        rng = random.Random(78)
        for n in (2, 3, 5):
            for _ in range(10):
                m = random_matrix(rng, n)
                i_minus = IntegerMatrix.identity(n) - m
                assert lefschetz_number(m) == det_cofactor(i_minus.to_lists())


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

    @pytest.mark.parametrize("e", (2.0, 2.5, "3"))
    def test_matrix_power_exponent_must_be_an_integer(self, e):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            IntegerMatrix.identity(2) ** e

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

    def test_transpose_and_skew_symmetry(self):
        wide = IntegerMatrix.from_rows([[1, 2, 3], [4, 5, 6]])
        assert wide.transpose().to_lists() == [[1, 4], [2, 5], [3, 6]]
        assert wide.transpose().transpose() == wide
        assert not IntegerMatrix.zero(2, 3).is_skew_symmetric()
        assert IntegerMatrix.zero(1, 1).is_skew_symmetric()
        assert not IntegerMatrix.identity(1).is_skew_symmetric()
        assert random_skew(random.Random(5), 6).is_skew_symmetric()
        # skew but for one diagonal entry
        assert not IntegerMatrix.from_rows([[0, 1], [-1, 1]]).is_skew_symmetric()


def fraction_dot(m: IntegerMatrix, vector) -> tuple[Fraction, ...]:
    """m times vector with every product and sum taken in Fractions."""
    return tuple(
        sum((Fraction(a) * Fraction(v) for a, v in zip(m.row(i), vector)), Fraction(0))
        for i in range(m.rows)
    )


def random_rational(rng: random.Random) -> Fraction:
    """A Fraction with a signed numerator and a signed denominator, each up to
    10^30, or a small denominator, so that both lcm regimes show."""
    denominator = rng.choice([1, 2, 6, 12, rng.randint(1, 10**30)]) * rng.choice([1, -1])
    return Fraction(rng.randint(-(10**30), 10**30), denominator)


class TestApply:
    @pytest.mark.parametrize("kind", ["int", "fraction", "mixed"])
    def test_matches_the_fraction_dot_product(self, kind):
        rng = random.Random(2024)
        for _ in range(60):
            rows, cols = rng.randint(1, 8), rng.randint(1, 8)
            m = IntegerMatrix(rows, cols, tuple(rng.randint(-(10**6), 10**6) for _ in range(rows * cols)))
            if kind == "int":
                vector = [rng.randint(-(10**30), 10**30) for _ in range(cols)]
            elif kind == "fraction":
                vector = [random_rational(rng) for _ in range(cols)]
            else:
                vector = [rng.choice([rng.randint(-(10**30), 10**30), random_rational(rng)]) for _ in range(cols)]
                vector[rng.randrange(cols)] = random_rational(rng)
            result = m.apply(vector)
            assert result == fraction_dot(m, vector)
            assert {type(x) for x in result} == {int if kind == "int" else Fraction}

    def test_any_fraction_gives_fractions_even_over_denominator_one(self):
        m = IntegerMatrix.from_rows([[2, 2], [4, 6], [0, 0]])
        for vector in ([Fraction(2), 3], [2, Fraction(3)], [Fraction(1, 2), Fraction(3, 2)]):
            result = m.apply(vector)
            assert result == fraction_dot(m, vector)
            assert all(type(x) is Fraction and x.denominator == 1 for x in result)

    def test_ints_give_ints(self):
        result = IntegerMatrix.from_rows([[1, 2], [3, 4]]).apply([5, -6])
        assert result == (-7, -9)
        assert all(type(x) is int for x in result)

    @pytest.mark.parametrize("vector", [[0.5, Fraction(1, 4)], [0.1, 3], [Fraction(1, 3), 2.0]])
    def test_a_float_keeps_the_plain_dot_product(self, vector):
        m = IntegerMatrix.from_rows([[1, 2], [3, 4]])
        plain = tuple(sum(a * v for a, v in zip(m.row(i), vector)) for i in range(m.rows))
        result = m.apply(vector)
        assert result == plain
        assert all(type(x) is float for x in result)

    def test_length_mismatch_refused(self):
        with pytest.raises(ValueError, match="vector length mismatch"):
            IntegerMatrix.identity(2).apply([Fraction(1, 2)])
