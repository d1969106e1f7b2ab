"""Exact linear algebra over Z.

Everything here is arbitrary precision: matrices carry Python ints, and
float entries are refused; a rational matrix is an integer matrix over
one denominator kept beside it.  Two kernels do all the elimination:
fraction-free Bareiss for determinants and the Smith normal form with
its unimodular transforms; inverses, solves and definiteness tests
elsewhere are derived from them.  The Smith form has one elimination
step, a row step that clears the pivot's column by a shear or an xgcd
combination and applies the same operation to the transform; column
operations are that step run on the transposed block, with V held as
V^T.  The Pfaffian uses fraction-free skew elimination.  Characteristic
polynomials come from the power sums tr(m^k), formed by baby and giant
steps from about 2 sqrt(n) matrix products, and Newton's identities,
whose divisions are exact; power_sums runs them the other way.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Sequence


def exact_fraction(value) -> Fraction:
    """Fraction of an int, Fraction or rational string; a float is refused.

    Fraction(0.1) would silently be 3602879701896397/2^55.
    """
    if isinstance(value, float):
        raise ValueError(f"{value!r} is a float; give an exact rational such as '1/10'")
    return Fraction(value)


class NonSquareMatrixError(ValueError):
    """Operation requires a square matrix."""


class SkewSymmetryError(ValueError):
    """Operation requires an even-dimensional skew-symmetric matrix."""


def binary_power(base, exponent: int, product):
    """base to the power exponent >= 1 under an associative product.

    Starts from the lowest set bit, so no product with an identity is
    formed: exponent.bit_length() + exponent.bit_count() - 2 products.
    """
    result = None
    while True:
        if exponent & 1:
            result = base if result is None else product(result, base)
        exponent >>= 1
        if not exponent:
            return result
        base = product(base, base)


@dataclass(frozen=True)
class IntegerMatrix:
    """Immutable integer matrix, entries row-major."""

    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ValueError("matrix dimensions must be >= 1")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError(
                f"expected {self.rows * self.cols} entries, got {len(self.entries)}"
            )
        try:
            entries = tuple(map(operator.index, self.entries))
        except TypeError:
            raise ValueError("matrix entries must be integers") from None
        object.__setattr__(self, "entries", entries)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "IntegerMatrix":
        nrows = len(rows)
        if nrows == 0:
            raise ValueError("matrix dimensions must be >= 1")
        ncols = len(rows[0])
        if any(len(r) != ncols for r in rows):
            raise ValueError("ragged rows")
        return cls(nrows, ncols, tuple(x for r in rows for x in r))

    @classmethod
    def identity(cls, n: int) -> "IntegerMatrix":
        return cls(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    @classmethod
    def zero(cls, rows: int, cols: int) -> "IntegerMatrix":
        return cls(rows, cols, (0,) * (rows * cols))

    @classmethod
    def diagonal(cls, values: Sequence[int]) -> "IntegerMatrix":
        n = len(values)
        return cls(n, n, tuple(values[i] if i == j else 0 for i in range(n) for j in range(n)))

    @classmethod
    def scalar(cls, n: int, value: int) -> "IntegerMatrix":
        return cls.diagonal([value] * n)

    @classmethod
    def block_diagonal(cls, blocks: Sequence["IntegerMatrix"]) -> "IntegerMatrix":
        if not blocks:
            raise ValueError("need at least one block")
        rows = sum(b.rows for b in blocks)
        cols = sum(b.cols for b in blocks)
        out = [[0] * cols for _ in range(rows)]
        r0 = c0 = 0
        for b in blocks:
            for i in range(b.rows):
                for j in range(b.cols):
                    out[r0 + i][c0 + j] = b[i, j]
            r0 += b.rows
            c0 += b.cols
        return cls.from_rows(out)

    def __getitem__(self, ij: tuple[int, int]) -> int:
        i, j = ij
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def to_lists(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def transpose(self) -> "IntegerMatrix":
        return IntegerMatrix(
            self.cols,
            self.rows,
            tuple(self[i, j] for j in range(self.cols) for i in range(self.rows)),
        )

    def trace(self) -> int:
        if not self.is_square:
            raise NonSquareMatrixError("trace needs a square matrix")
        return sum(self[i, i] for i in range(self.rows))

    def __add__(self, other: "IntegerMatrix") -> "IntegerMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in addition")
        return IntegerMatrix(
            self.rows, self.cols, tuple(a + b for a, b in zip(self.entries, other.entries))
        )

    def __sub__(self, other: "IntegerMatrix") -> "IntegerMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in subtraction")
        return IntegerMatrix(
            self.rows, self.cols, tuple(a - b for a, b in zip(self.entries, other.entries))
        )

    def __neg__(self) -> "IntegerMatrix":
        return IntegerMatrix(self.rows, self.cols, tuple(-a for a in self.entries))

    def __mul__(self, other):
        if isinstance(other, IntegerMatrix):
            if self.cols != other.rows:
                raise ValueError("shape mismatch in multiplication")
            ocols = other.cols
            rows = [self.row(i) for i in range(self.rows)]
            columns = [other.entries[j::ocols] for j in range(ocols)]
            out = [sum(map(operator.mul, row, column)) for row in rows for column in columns]
            return IntegerMatrix(self.rows, ocols, tuple(out))
        if isinstance(other, int):
            return IntegerMatrix(self.rows, self.cols, tuple(a * other for a in self.entries))
        return NotImplemented

    def __pow__(self, exponent: int) -> "IntegerMatrix":
        if not self.is_square:
            raise NonSquareMatrixError("power needs a square matrix")
        if exponent < 0:
            raise ValueError("negative matrix powers are not integral in general")
        if exponent == 0:
            return IntegerMatrix.identity(self.rows)
        return binary_power(self, exponent, operator.mul)

    def apply(self, vector: Sequence) -> tuple:
        """Matrix times column vector; entries may be ints or Fractions."""
        if len(vector) != self.cols:
            raise ValueError("vector length mismatch")
        return tuple(sum(map(operator.mul, self.row(i), vector)) for i in range(self.rows))

    def is_skew_symmetric(self) -> bool:
        return self.is_square and all(
            self[i, j] == -self[j, i] for i in range(self.rows) for j in range(self.cols)
        )


@dataclass(frozen=True)
class IntegerPolynomial:
    """Integer polynomial, coefficients in ascending degree order."""

    coefficients: tuple[int, ...]

    def __post_init__(self):
        try:
            coeffs = tuple(map(operator.index, self.coefficients))
        except TypeError:
            raise ValueError("polynomial coefficients must be integers") from None
        while len(coeffs) > 1 and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        object.__setattr__(self, "coefficients", coeffs)

    def __call__(self, x):
        # Horner; works for int, Fraction, float, complex argument types.
        acc = 0
        for c in reversed(self.coefficients):
            acc = acc * x + c
        return acc


@dataclass(frozen=True)
class SmithDecomposition:
    """U * A * V = D with U, V unimodular and D diagonal.

    Elementary divisors are nonnegative, form a divisibility chain, and
    zeros trail.
    """

    U: IntegerMatrix
    D: IntegerMatrix
    V: IntegerMatrix
    elementary_divisors: tuple[int, ...] = field(default=())

    def largest_divisor(self) -> int:
        """Largest nonzero elementary divisor, 0 for the zero matrix."""
        nonzero = [d for d in self.elementary_divisors if d != 0]
        return nonzero[-1] if nonzero else 0


def det(m: IntegerMatrix) -> int:
    """Exact determinant by Bareiss fraction-free elimination."""
    if not m.is_square:
        raise NonSquareMatrixError("determinant needs a square matrix")
    n = m.rows
    if n == 1:
        return m[0, 0]
    a = m.to_lists()
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            pivot_row = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if pivot_row is None:
                return 0
            a[k], a[pivot_row] = a[pivot_row], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                # Exact division: Bareiss guarantees divisibility by prev.
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def _clear_first_column(lines: list[list[int]], trans: list[list[int]]) -> None:
    """Clear lines[i][0], i > 0, against the pivot lines[0][0] != 0 by row operations.

    trans[i] is the transform row of lines[i] and gets the same operation.
    The pivot stays nonzero: a shear leaves it alone and an xgcd step makes
    it the gcd g > 0.
    """
    for i in range(1, len(lines)):
        a, b = lines[0][0], lines[i][0]
        if b == 0:
            continue
        if b % a == 0:
            # pure shear; leaves the pivot row untouched, which the
            # termination argument of the caller's clearing loop relies on
            q = b // a
            for rows in (lines, trans):
                rows[i] = [v - q * u for u, v in zip(rows[0], rows[i])]
            continue
        g, x, y = _xgcd(a, b)
        p, q = a // g, b // g
        # [[x, y], [-q, p]] has determinant x*p + y*q = 1.
        for rows in (lines, trans):
            r0, ri = rows[0], rows[i]
            rows[0] = [x * u + y * v for u, v in zip(r0, ri)]
            rows[i] = [-q * u + p * v for u, v in zip(r0, ri)]


def _transpose(rows: list[list[int]]) -> list[list[int]]:
    return [list(column) for column in zip(*rows)]


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with g = gcd(a, b) > 0 and x*a + y*b = g."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        old_r, old_x, old_y = -old_r, -old_x, -old_y
    return old_r, old_x, old_y


def smith_normal_form(m: IntegerMatrix) -> SmithDecomposition:
    """Smith normal form with unimodular transforms: U * m * V = D.

    D is diagonal with nonnegative entries d_1 | d_2 | ... ; zeros trail.

    Step k works on the trailing block of rows and columns k, k+1, ...
    It moves the least nonzero entry (first in row-major order) to the
    corner, then alternates a row pass and a column pass until the
    corner's row and column are clean.  Both passes are the one row step
    _clear_first_column: the column pass runs it on the transposed block
    with the rows of V^T as its transform, so V is held as V^T and
    transposed once at the end.  If the corner does not divide some entry
    of the rest, the first such row is added to the corner's row and the
    passes repeat.  Negative divisors are made positive last, by negating
    rows of U.
    """
    rows, cols = m.rows, m.cols
    block = m.to_lists()
    U = [[int(i == j) for j in range(rows)] for i in range(rows)]
    Vt = [[int(i == j) for j in range(cols)] for i in range(cols)]
    divisors = [0] * min(rows, cols)
    for k in range(len(divisors)):
        sizes = [abs(v) for line in block for v in line]
        smallest = min(filter(None, sizes), default=0)
        if not smallest:
            break
        pi, pj = divmod(sizes.index(smallest), len(block[0]))
        # the rows of U and of V^T from k on, aligned with the rows and the
        # columns of block; the rows before k are final up to sign
        left, right = U[k:], Vt[k:]
        block[0], block[pi] = block[pi], block[0]
        left[0], left[pi] = left[pi], left[0]
        for line in block:
            line[0], line[pj] = line[pj], line[0]
        right[0], right[pj] = right[pj], right[0]
        while True:
            # Alternate row and column passes until the corner's row and
            # column are clean.  A row pass cleans the column and a column
            # pass the row, so after each pass only the other needs a look.
            while True:
                _clear_first_column(block, left)
                if not any(block[0][1:]):
                    break
                block = _transpose(block)
                _clear_first_column(block, right)
                block = _transpose(block)
                if not any(line[0] for line in block[1:]):
                    break
            # The corner must divide every remaining entry; if not, fold the bad row in.
            d = block[0][0]
            offender = next(
                (i for i in range(1, len(block)) if any(v % d for v in block[i])), None
            )
            if offender is None:
                break
            for lines in (block, left):
                lines[0] = [u + v for u, v in zip(lines[0], lines[offender])]
        U[k:], Vt[k:] = left, right
        divisors[k] = block[0][0]
        block = [line[1:] for line in block[1:]]

    D = [0] * (rows * cols)
    for k, d in enumerate(divisors):
        # Normalize signs to nonnegative (row negation keeps U unimodular).
        if d < 0:
            divisors[k] = d = -d
            U[k] = [-x for x in U[k]]
        D[k * cols + k] = d
    return SmithDecomposition(
        U=IntegerMatrix.from_rows(U),
        D=IntegerMatrix(rows, cols, tuple(D)),
        V=IntegerMatrix.from_rows(_transpose(Vt)),
        elementary_divisors=tuple(divisors),
    )


def charpoly(m: IntegerMatrix) -> IntegerPolynomial:
    """Characteristic polynomial det(xI - m), monic, computed over Z.

    The power sums p_k = tr(m^k), k = 1..n, come from baby and giant
    steps (Paterson-Stockmeyer; Preparata-Sarwate): with s = ceil(sqrt n)
    the powers m^1..m^(s-1) and G^1, G^2, ... of G = m^s give every
    p_(i+js) = tr(m^i G^j) as one dot product of entries, so about 2 sqrt n
    matrix products are formed instead of n.  Newton's identities
    (power_sum_polynomial) then yield the coefficients; every division is
    exact, so no rationals (let alone floats) appear.
    """
    if not m.is_square:
        raise NonSquareMatrixError("characteristic polynomial needs a square matrix")
    n = m.rows
    s = math.isqrt(n - 1) + 1
    powers = [m]
    while len(powers) < s:
        powers.append(powers[-1] * m)
    giant = powers.pop()
    # tr(X Y) pairs X[a][b] with Y[b][a]: hold the baby steps transposed
    transposed = [tuple(x for j in range(n) for x in a.entries[j::n]) for a in powers]
    sums = [0] * (n + 1)
    for i, a in enumerate(powers, 1):
        sums[i] = a.trace()
    g, k = giant, s
    while True:
        sums[k] = g.trace()
        for i, t in enumerate(transposed[: n - k], 1):
            sums[k + i] = sum(map(operator.mul, t, g.entries))
        k += s
        if k > n:
            break
        g = g * giant
    return power_sum_polynomial(sums[1:])


def power_sum_polynomial(sums: Sequence[int]) -> IntegerPolynomial:
    """Monic polynomial of degree N = len(sums) whose roots have power sums
    p_1, ..., p_N = sums.

    Newton's identities k c_(N-k) = -sum_(i=1..k) c_(N-k+i) p_i give the
    coefficients.  When the p_i are the traces tr(a^i) of an integer
    matrix a, the result is charpoly(a) and every division by k is exact;
    an inexact one raises ArithmeticError.
    """
    coeffs = [1]  # c_N, c_(N-1), ...
    for k in range(1, len(sums) + 1):
        total = sum(map(operator.mul, reversed(coeffs), sums[:k]))
        if total % k != 0:
            raise ArithmeticError("inexact division in characteristic polynomial")
        coeffs.append(-total // k)
    return IntegerPolynomial(tuple(reversed(coeffs)))


def power_sums(p: IntegerPolynomial) -> Iterator[int]:
    """Yield the power sums p_1, p_2, ... of the roots of the monic p, without end.

    The inverse of power_sum_polynomial: Newton's identities give p_1..p_N,
    N = deg p, and then p_k = -sum_(i=1..N) c_(N-i) p_(k-i), the linear
    recurrence with characteristic polynomial p, holding the last N values.
    """
    if p.coefficients[-1] != 1:
        raise ValueError("power sums need a monic polynomial")
    tail = p.coefficients[-2::-1]  # c_(N-1), ..., c_0
    window = deque(maxlen=len(tail))  # p_(k-1), p_(k-2), ...
    for k in itertools.count(1):
        total = sum(map(operator.mul, tail, window))
        if k <= len(tail):
            total += k * tail[k - 1]
        window.appendleft(-total)
        yield -total


def _pfaffian_eliminate(a: list[list[int]]) -> int:
    """Pfaffian by fraction-free skew elimination.

    A step pivots on p = a[0][1] and replaces the rows/cols from 2 on by
    (p a[i][k] + a[0][k] a[1][i] - a[0][i] a[1][k]) / prev, prev the
    previous pivot.  By the Pfaffian analogue of Sylvester's identity each
    new entry is the Pfaffian of the pivot rows so far together with
    {i, k}, so every division is exact and the last pivot is Pf(a).
    Row/column swaps flip the sign.
    """
    n = len(a)
    sign = 1
    prev = 1
    while n > 0:
        j = next((c for c in range(1, n) if a[0][c] != 0), None)
        if j is None:
            return 0
        if j != 1:
            for row in a:
                row[1], row[j] = row[j], row[1]
            a[1], a[j] = a[j], a[1]
            sign = -sign
        p = a[0][1]
        rest = range(2, n)
        a = [
            [(p * a[i][k] + a[0][k] * a[1][i] - a[0][i] * a[1][k]) // prev for k in rest]
            for i in rest
        ]
        prev = p
        n -= 2
    return sign * prev


def pfaffian(s: IntegerMatrix) -> int:
    """Pfaffian of an even-dimensional skew-symmetric integer matrix.

    Satisfies Pf(s)^2 = det(s) and Pf(U^T s U) = det(U) Pf(s).  Computed by
    fraction-free skew elimination in every dimension.
    """
    if not s.is_square or s.rows % 2 != 0:
        raise SkewSymmetryError("pfaffian needs an even-dimensional square matrix")
    if not s.is_skew_symmetric():
        raise SkewSymmetryError("pfaffian needs a skew-symmetric matrix")
    return _pfaffian_eliminate(s.to_lists())


def exterior_trace_sum(m: IntegerMatrix) -> int:
    """Alternating sum of exterior-power traces, sum_k (-1)^k tr(wedge^k m).

    For each k, tr(wedge^k m) is the k-th signed coefficient of the
    characteristic polynomial, so the sum collapses to det(I - m):
    evaluate charpoly at 1.
    """
    if not m.is_square:
        raise NonSquareMatrixError("exterior trace sum needs a square matrix")
    return int(charpoly(m)(1))
