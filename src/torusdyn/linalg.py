"""Exact linear algebra over Z.

Everything here is arbitrary precision: matrices carry Python ints, and
float entries are refused; a rational matrix is an integer matrix over
one denominator kept beside it.  Two kernels do all the elimination:
fraction-free Bareiss for determinants and the Smith normal form with
its unimodular transforms; inverses, solves and definiteness tests
elsewhere are derived from them.  The Pfaffian uses fraction-free
skew elimination.  Characteristic polynomials come from the power sums
tr(m^k), formed by baby and giant steps from about 2 sqrt(n) matrix
products, and Newton's identities, whose divisions are exact.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence


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

    def __rmul__(self, other):
        if isinstance(other, int):
            return self * other
        return NotImplemented

    def __pow__(self, exponent: int) -> "IntegerMatrix":
        if not self.is_square:
            raise NonSquareMatrixError("power needs a square matrix")
        if exponent < 0:
            raise ValueError("negative matrix powers are not integral in general")
        if exponent == 0:
            return IntegerMatrix.identity(self.rows)
        # start from the lowest set bit, so no product with the identity
        result, base, e = None, self, exponent
        while True:
            if e & 1:
                result = base if result is None else result * base
            e >>= 1
            if not e:
                return result
            base = base * base

    def apply(self, vector: Sequence) -> tuple:
        """Matrix times column vector; entries may be ints or Fractions."""
        if len(vector) != self.cols:
            raise ValueError("vector length mismatch")
        return tuple(
            sum(self.row(i)[k] * vector[k] for k in range(self.cols)) for i in range(self.rows)
        )

    def is_skew_symmetric(self) -> bool:
        return self.is_square and all(
            self[i, j] == -self[j, i] for i in range(self.rows) for j in range(self.cols)
        )

    def __str__(self) -> str:
        return "\n".join(" ".join(str(x) for x in self.row(i)) for i in range(self.rows))


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

    @property
    def degree(self) -> int:
        if self.coefficients == (0,):
            return -1
        return len(self.coefficients) - 1

    def __call__(self, x):
        # Horner; works for int, Fraction, float, complex argument types.
        acc = 0
        for c in reversed(self.coefficients):
            acc = acc * x + c
        return acc

    def is_monic(self) -> bool:
        return self.degree >= 0 and self.coefficients[-1] == 1

    def __str__(self) -> str:
        if self.degree < 0:
            return "0"
        terms = []
        for k in range(self.degree, -1, -1):
            c = self.coefficients[k]
            if c == 0:
                continue
            if k == 0:
                terms.append(f"{c:+d}")
            else:
                mag = "" if abs(c) == 1 else str(abs(c))
                sign = "+" if c > 0 else "-"
                var = "x" if k == 1 else f"x^{k}"
                terms.append(f"{sign}{mag}{var}")
        s = "".join(terms)
        return s[1:] if s.startswith("+") else s


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


def _clear_with_gcd(work, trans, i, j, col, by_rows):
    """2x2 unimodular transform sending (work[i][col], work[j][col]) to (g, 0).

    Applied to rows when by_rows, else to columns (col then indexes rows).
    The same transform is applied to the transform accumulator.
    """
    if by_rows:
        a, b = work[i][col], work[j][col]
    else:
        a, b = work[col][i], work[col][j]
    if b == 0:
        return
    if a == 0:
        # plain swap
        if by_rows:
            work[i], work[j] = work[j], work[i]
            trans[i], trans[j] = trans[j], trans[i]
        else:
            for row in work:
                row[i], row[j] = row[j], row[i]
            for row in trans:
                row[i], row[j] = row[j], row[i]
        return
    if b % a == 0:
        # pure shear; leaves the pivot line untouched, which the
        # termination argument of the caller's clearing loop relies on
        q = b // a
        if by_rows:
            work[j] = [v - q * u for u, v in zip(work[i], work[j])]
            trans[j] = [v - q * u for u, v in zip(trans[i], trans[j])]
        else:
            for row in work:
                row[j] -= q * row[i]
            for row in trans:
                row[j] -= q * row[i]
        return
    g, x, y = _xgcd(a, b)
    p, q = a // g, b // g
    # [[x, y], [-q, p]] has determinant x*p + y*q = 1.
    if by_rows:
        ri, rj = work[i], work[j]
        work[i] = [x * u + y * v for u, v in zip(ri, rj)]
        work[j] = [-q * u + p * v for u, v in zip(ri, rj)]
        ti, tj = trans[i], trans[j]
        trans[i] = [x * u + y * v for u, v in zip(ti, tj)]
        trans[j] = [-q * u + p * v for u, v in zip(ti, tj)]
    else:
        for row in work:
            u, v = row[i], row[j]
            row[i] = x * u + y * v
            row[j] = -q * u + p * v
        for row in trans:
            u, v = row[i], row[j]
            row[i] = x * u + y * v
            row[j] = -q * u + p * v


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
    """
    rows, cols = m.rows, m.cols
    work = m.to_lists()
    U = [[int(i == j) for j in range(rows)] for i in range(rows)]
    V = [[int(i == j) for j in range(cols)] for i in range(cols)]

    def clear(k):
        """Alternate row and column clearing until row and column k are clean."""
        while any(work[i][k] != 0 for i in range(k + 1, rows)) or any(
            work[k][j] != 0 for j in range(k + 1, cols)
        ):
            for i in range(k + 1, rows):
                _clear_with_gcd(work, U, k, i, k, by_rows=True)
            for j in range(k + 1, cols):
                _clear_with_gcd(work, V, k, j, k, by_rows=False)

    limit = min(rows, cols)
    for k in range(limit):
        # Bring a nonzero entry to (k, k) if one exists in the submatrix.
        pivot = None
        for i in range(k, rows):
            for j in range(k, cols):
                if work[i][j] != 0:
                    if pivot is None or abs(work[i][j]) < abs(work[pivot[0]][pivot[1]]):
                        pivot = (i, j)
        if pivot is None:
            break
        pi, pj = pivot
        if pi != k:
            work[k], work[pi] = work[pi], work[k]
            U[k], U[pi] = U[pi], U[k]
        if pj != k:
            for row in work:
                row[k], row[pj] = row[pj], row[k]
            for row in V:
                row[k], row[pj] = row[pj], row[k]
        clear(k)
        # Pivot must divide every remaining entry; if not, fold the bad row in.
        while True:
            offender = None
            for i in range(k + 1, rows):
                for j in range(k + 1, cols):
                    if work[i][j] % work[k][k] != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            for j in range(cols):
                work[k][j] += work[offender][j]
            for j in range(rows):
                U[k][j] += U[offender][j]
            clear(k)

    # Normalize signs to nonnegative (row negation keeps U unimodular).
    for k in range(limit):
        if work[k][k] < 0:
            for j in range(cols):
                work[k][j] = -work[k][j]
            for j in range(rows):
                U[k][j] = -U[k][j]

    divisors = tuple(work[k][k] for k in range(limit))
    Dm = IntegerMatrix.from_rows(work)
    Um = IntegerMatrix.from_rows(U)
    Vm = IntegerMatrix.from_rows(V)
    return SmithDecomposition(U=Um, D=Dm, V=Vm, elementary_divisors=divisors)


def charpoly(m: IntegerMatrix) -> IntegerPolynomial:
    """Characteristic polynomial det(xI - m), monic, computed over Z.

    The power sums p_k = tr(m^k), k = 1..n, come from baby and giant
    steps (Paterson-Stockmeyer; Preparata-Sarwate): with s = ceil(sqrt n)
    the powers m^1..m^(s-1) and G^1, G^2, ... of G = m^s give every
    p_(i+js) = tr(m^i G^j) as one dot product of entries, so about 2 sqrt n
    matrix products are formed instead of n.  Newton's identities
    k c_(n-k) = -sum_(i=1..k) c_(n-k+i) p_i then yield the coefficients;
    every division by k is exact, so no rationals (let alone floats)
    appear.
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
    coeffs = [1]  # c_n, c_(n-1), ...
    for k in range(1, n + 1):
        total = sum(map(operator.mul, reversed(coeffs), sums[1 : k + 1]))
        if total % k != 0:
            raise ArithmeticError("inexact division in characteristic polynomial")
        coeffs.append(-total // k)
    return IntegerPolynomial(tuple(reversed(coeffs)))


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
