"""Exact linear algebra over Z.

Everything here is arbitrary precision: matrices carry Python ints, and
float entries are refused; a rational matrix is an integer matrix over
one denominator kept beside it.  Two kernels do all the elimination.
One fraction-free (Bareiss) loop, _bareiss, serves det, through its
forward pass, and adjugate, through a Gauss-Jordan pass on [m | I]; a
row whose pivot-column entry is 0 is left alone and catches up later by
one exact multiply-divide, so scalar and sparse matrices cost about n^2
operations, not n^3.  The Smith normal form with its unimodular
transforms does the rest: solves mod Z^n, saturation tests and the
lattice bases elsewhere are derived from it.  The Smith form has one
elimination step, a row step that clears the pivot's column by a shear
or an xgcd combination and applies the same operation to the transform;
column operations are that step run on the transposed block, with V
held as V^T.  echelon_basis runs the same step, with no transform, for
an upper-triangular basis of a lattice containing N Z^n.  The Pfaffian
uses fraction-free skew elimination.  Characteristic polynomials come
from the power sums tr(m^k), formed by baby and giant steps from about
2 sqrt(n) matrix products, and Newton's identities, whose divisions are
exact; power_sums runs them the other way.  Every product whose left
factor has at least 12 rows and entries of at most 64 bits packs each
row of its right factor into one int (Kronecker substitution), so it
costs n^2 big-integer operations, not n^3 small ones.  Products have two
slot layouts: 8-byte slots, crossing between bytes and ints through
array('q') in one C call per row, while every entry of the product fits
in 62 bits, and wider slots cut by to_bytes otherwise.  power_mod takes
x^l mod a monic polynomial by binary powering with the schoolbook
product_mod, and charpoly_power turns charpoly(m) into charpoly(m^l)
through it.  squarefree_factors splits a monic polynomial by Yun's
algorithm, and power_bits estimates the bits of a matrix power's entries
before it is formed.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import sys
from array import array
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


class SingularMatrixError(ValueError):
    """Operation requires a nonsingular matrix."""


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


# the entry types IntegerMatrix.apply puts over one denominator
_RATIONAL_TYPES = frozenset({int, Fraction})


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
        columns = (self.entries[j :: self.cols] for j in range(self.cols))
        return IntegerMatrix(self.cols, self.rows, tuple(itertools.chain.from_iterable(columns)))

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
        """Matrix product, or every entry times an int.

        A left factor of at least _PACK_MIN_N = 12 rows with entries of at
        most _PACK_MAX_BITS = 64 bits goes through the Kronecker-packed
        _packed_product, n^2 big-integer operations in place of n^3
        interpreted multiply-adds; otherwise each entry is a dot product.
        Measured on seeded inputs (2-vCPU, Python 3.11), packing every
        product of a [-99, 99] charpoly takes 1.18x the time of dot products
        at n = 8, 1.04x at n = 11, 0.93x at n = 12, 0.70x at n = 16 and 0.45x
        at n = 32.  Per product, with right entries twice as long as the left
        ones, it takes 0.43-0.70x at n = 12 to 32 for 64-bit left entries,
        0.78-1.07x for 256-bit and 1.2-2x for 500-bit ones, where the
        big-integer arithmetic, not the interpreter, sets the cost.
        """
        if isinstance(other, IntegerMatrix):
            if self.cols != other.rows:
                raise ValueError("shape mismatch in multiplication")
            if self.rows >= _PACK_MIN_N and max(map(abs, self.entries)) < 1 << _PACK_MAX_BITS:
                return _packed_product(self, other)
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
        exponent = operator.index(exponent)
        if exponent < 0:
            raise ValueError("negative matrix powers are not integral in general")
        if exponent == 0:
            return IntegerMatrix.identity(self.rows)
        return binary_power(self, exponent, operator.mul)

    def apply(self, vector: Sequence) -> tuple:
        """Matrix times column vector.

        A vector of ints and Fractions with at least one Fraction is put
        over one denominator d, the lcm of its entries' denominators: each
        row is one integer dot product with the numerators, and each entry
        one Fraction(dot, d).  Every entry of the result is then a
        Fraction, even one whose denominator is 1, as the Fraction dot
        product gives.  A vector of ints gives ints, and any other vector,
        one with a float say, takes the plain dot product and its types.
        """
        if len(vector) != self.cols:
            raise ValueError("vector length mismatch")
        rows = map(self.row, range(self.rows))
        kinds = set(map(type, vector))
        if Fraction in kinds and kinds <= _RATIONAL_TYPES:
            d = math.lcm(*(v.denominator for v in vector))
            numerators = [v.numerator * (d // v.denominator) for v in vector]
            return tuple(Fraction(sum(map(operator.mul, row, numerators)), d) for row in rows)
        return tuple(sum(map(operator.mul, row, vector)) for row in rows)

    def is_skew_symmetric(self) -> bool:
        return self.is_square and self == -self.transpose()


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

    def __mul__(self, other: "IntegerPolynomial") -> "IntegerPolynomial":
        return IntegerPolynomial(tuple(_multiply(self.coefficients, other.coefficients)))

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


def _bareiss(a: list[list[int]], jordan: bool) -> tuple[list[int], int, list[int]]:
    """One fraction-free (Bareiss) elimination of the n rows a, in place.

    Step k takes as pivot row the first row i >= k whose column-k entry is
    nonzero, exchanging it with row k, and updates columns j > k of the
    rows below it, or with jordan of every other row (Gauss-Jordan), by
    row <- (row p - row[k] top) / s: p the pivot, top the pivot row and s
    the pivot the row was last brought to.  A row whose column-k entry is
    0 is left alone: the standard update, which divides by the previous
    pivot prev, would only scale it by p / prev.  So the standard row is
    prev / s times the stored one, and the next update, divided by the
    row's own s, equals the standard update and is exact by Sylvester's
    identity.  A row that becomes the pivot row first is brought to prev
    by one exact multiply-divide, so each pivot is the standard one: the
    k-th leading principal minor of the row-exchanged matrix.  On a
    matrix without zero pivot-column entries every row is updated at
    every step, with s = prev, as the elimination without the skip does.

    Returns (pivots, exchanges, levels): a missing pivot ends the pivots
    with 0 and stops; levels[i] is the s of row i, so at the end the
    standard row i is pivots[-1] / levels[i] times the stored one.
    Gauss-Jordan counts the pivot row as brought to p, as that pass
    divides it by p at the next step.
    """
    n = len(a)
    width = len(a[0])
    levels = [1] * n
    pivots = []
    exchanges = 0
    prev = 1
    for k in range(n):
        if a[k][k] == 0:
            pivot_row = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if pivot_row is None:
                pivots.append(0)
                break
            a[k], a[pivot_row] = a[pivot_row], a[k]
            levels[k], levels[pivot_row] = levels[pivot_row], levels[k]
            exchanges += 1
        top = a[k]
        s = levels[k]
        if s != prev:
            top[k:] = [v * prev // s for v in top[k:]]
        p = top[k]
        # an indexed loop over locals: a comprehension with zip measured
        # 10-80 % slower here, from dense n = 32 down to n = 6
        for i in range(n) if jordan else range(k + 1, n):
            row = a[i]
            x = row[k]
            if x and i != k:
                s = levels[i]
                for j in range(k + 1, width):
                    row[j] = (row[j] * p - x * top[j]) // s
                levels[i] = p
        levels[k] = p
        pivots.append(p)
        prev = p
    return pivots, exchanges, levels


def bareiss_pivots(m: IntegerMatrix) -> tuple[list[int], int]:
    """Pivots of one fraction-free (Bareiss) elimination of the square m,
    and its number of row exchanges.  A zero pivot is exchanged with the
    first nonzero entry below it; with none, m is singular and the pivots
    end with 0.  By Sylvester's identity the k-th pivot is the k-th leading
    principal minor of the row-exchanged m, so each division by the
    previous pivot is exact and the last pivot is its determinant.  The
    forward pass of _bareiss, which leaves a row with a zero pivot-column
    entry alone."""
    pivots, exchanges, _ = _bareiss(m.to_lists(), jordan=False)
    return pivots, exchanges


def det(m: IntegerMatrix) -> int:
    """Exact determinant: (-1)^exchanges times the last pivot of bareiss_pivots."""
    if not m.is_square:
        raise NonSquareMatrixError("determinant needs a square matrix")
    pivots, exchanges = bareiss_pivots(m)
    return (-1) ** exchanges * pivots[-1]


def adjugate(m: IntegerMatrix) -> tuple[int, IntegerMatrix]:
    """(det m, adj m) with m adj(m) = adj(m) m = det(m) I, for a nonsingular m.

    One fraction-free Gauss-Jordan pass of _bareiss on [m | I] leaves
    d I on the left, d the last pivot, and L with L m = d I on the right;
    d = (-1)^e det m for e row exchanges, so adj m = (-1)^e L.  A row the
    pass left alone since pivot s is brought to d by one multiply-divide
    of its right half, so a scalar or sparse m costs about n^2 operations.
    A singular m raises SingularMatrixError: its adjugate is not found by
    this pass.
    """
    if not m.is_square:
        raise NonSquareMatrixError("adjugate needs a square matrix")
    n = m.rows
    a = [row + [int(i == j) for j in range(n)] for i, row in enumerate(m.to_lists())]
    pivots, exchanges, levels = _bareiss(a, jordan=True)
    d = pivots[-1]
    if not d:
        raise SingularMatrixError("a singular matrix has no adjugate by elimination")
    sign = (-1) ** exchanges
    scale = sign * d
    entries = []
    for row, s in zip(a, levels):
        entries += [sign * v for v in row[n:]] if s == d else [v * scale // s for v in row[n:]]
    return scale, IntegerMatrix(n, n, tuple(entries))


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


def echelon_basis(generators: Sequence[Sequence[int]], modulus: int) -> list[list[int]]:
    """Upper-triangular basis b_0..b_(n-1) of L = span(generators) + modulus Z^n.

    The Hermite form modulo D (Cohen, A Course in Computational Algebraic
    Number Theory, 2.4.2).  Column c is cleared by the Smith form's row
    step _clear_first_column with the row modulus e_c first: it lies in L
    and keeps the pivot h_c > 0, the gcd of column c over the rows carried
    so far and modulus, so h_c divides modulus.  The pivot row becomes b_c;
    the other rows go on to column c + 1 reduced mod modulus, which L
    contains, and zero rows are dropped.  b_c..b_(n-1) span the vectors of
    L that vanish before column c, so [L : modulus Z^n] = prod modulus / h_c.
    Every entry off the diagonal is reduced to [0, modulus).
    """
    n = len(generators[0])
    rows = [[v % modulus for v in g] for g in generators]
    basis = []
    for c in range(n):
        lines = [[modulus] + [0] * (n - c - 1), *filter(any, rows)]
        # no transform is kept: each transform row is empty
        _clear_first_column(lines, [[]] * len(lines))
        pivot, *rest = lines[0]
        basis.append([0] * c + [pivot] + [v % modulus for v in rest])
        rows = [[v % modulus for v in line[1:]] for line in lines[1:]]
    return basis


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


# * packs a product whose left factor has at least this many rows and
# entries of at most this many bits
_PACK_MIN_N = 12
_PACK_MAX_BITS = 64


def _packed_product(a: IntegerMatrix, b: IntegerMatrix) -> IntegerMatrix:
    """a * b by Kronecker substitution: each row of b packed into one int.

    Row j of b becomes sum_c b[j, c] 2^(8wc), slots of w bytes with
    8w - 1 > bit_length(n max|a| max|b|), which bounds every entry of the
    product and of b.  Row i of a * b is then sum_j a[i, j] packed_j, n
    big-integer multiply-adds where * makes n^2 small ones.

    While that bound has fewer than 63 bits the slots are 8 bytes, the
    signed C long longs of array('q'): b's entries become bytes in one
    tobytes, and a row of slots in two's complement reads back as
    (int.from_bytes(row) ^ offsets) - offsets, offsets holding 2^63 in
    every slot, as flipping a slot's sign bit adds 2^63 to it.  Each row
    sum s goes back as ((s + offsets) ^ offsets).to_bytes, and one array
    cuts all of them into entries, so entries cross between bytes and ints
    in one C call per row.  Wider slots add 2^(8w-1) to every slot, which
    puts each in [0, 2^(8w)) whatever its sign, and to_bytes cuts the rows
    back into entries one at a time.
    """
    n, cols = b.rows, b.cols
    # a zero a still needs slots wide enough to pack b
    bound = n * (max(map(abs, a.entries)) or 1) * max(map(abs, b.entries))
    w = max(8, (bound.bit_length() + 1) // 8 + 1)
    size = w * cols
    half = 1 << (8 * w - 1)
    offsets = int.from_bytes(half.to_bytes(w, "little") * cols, "little")
    if w == 8:
        order = sys.byteorder
        blob = array("q", b.entries).tobytes()
        packed = [
            (int.from_bytes(blob[k : k + size], order) ^ offsets) - offsets
            for k in range(0, len(blob), size)
        ]
    else:
        blob = b"".join([(x + half).to_bytes(w, "little") for x in b.entries])
        packed = [
            int.from_bytes(blob[k : k + size], "little") - offsets
            for k in range(0, len(blob), size)
        ]
    sums = [sum(map(operator.mul, a.row(i), packed)) for i in range(a.rows)]
    if w == 8:
        entries = array(
            "q", b"".join([((s + offsets) ^ offsets).to_bytes(size, order) for s in sums])
        )
    else:
        blob = b"".join([(s + offsets).to_bytes(size, "little") for s in sums])
        entries = [int.from_bytes(blob[k : k + w], "little") - half for k in range(0, len(blob), w)]
    return IntegerMatrix(a.rows, cols, tuple(entries))


def charpoly(m: IntegerMatrix) -> IntegerPolynomial:
    """Characteristic polynomial det(xI - m), monic, computed over Z.

    The power sums p_k = tr(m^k), k = 1..n, come from baby and giant
    steps (Paterson-Stockmeyer; Preparata-Sarwate): with s = ceil(sqrt n)
    the powers m^1..m^(s-1) and G^1, G^2, ... of G = m^s give every
    p_(i+js) = tr(m^i G^j) as one dot product of entries, so about 2 sqrt n
    matrix products are formed instead of n.  Newton's identities
    (power_sum_polynomial) then yield the coefficients; every division is
    exact, so no rationals (let alone floats) appear.

    Each baby step is m * m^i and each giant step G * G^j (powers of one
    matrix commute), so the left factor is always the small base, whose
    entries decide whether * packs the product.
    """
    if not m.is_square:
        raise NonSquareMatrixError("characteristic polynomial needs a square matrix")
    n = m.rows
    s = math.isqrt(n - 1) + 1
    powers = [m]
    while len(powers) < s:
        powers.append(m * powers[-1])
    giant = powers.pop()
    # tr(X Y) pairs X[a][b] with Y[b][a]: hold the baby steps transposed
    transposed = [a.transpose().entries for a in powers]
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
        g = giant * g
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


def _multiply(a: Sequence, b: Sequence) -> list:
    """Schoolbook product of two nonempty ascending coefficient lists."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b, i):
            out[j] += x * y
    return out


def product_mod(
    a: IntegerPolynomial, b: IntegerPolynomial, p: IntegerPolynomial
) -> IntegerPolynomial:
    """a * b mod the monic p: the schoolbook product, then its remainder
    by p from _divmod_monic."""
    if p.coefficients[-1] != 1:
        raise ValueError("reduction mod p needs a monic polynomial")
    _, remainder = _divmod_monic(_multiply(a.coefficients, b.coefficients), p.coefficients)
    return IntegerPolynomial(tuple(remainder) or (0,))


def power_mod(p: IntegerPolynomial, l: int) -> IntegerPolynomial:
    """x^l mod the monic p, for l >= 1, by binary powering in Z[x]/(p).

    Each step is one product_mod, O(N^2) coefficient products for
    N = deg p, so O(N^2 log l) in all; no N x N matrix is formed.  For
    p = charpoly(m), r(m) = m^l with r the result, so its coefficients
    grow like the entries of m^l.
    """
    l = operator.index(l)
    if l < 1:
        raise ValueError("exponent must be >= 1")
    # x reduced mod p: a constant when deg p = 1
    x = product_mod(IntegerPolynomial((0, 1)), IntegerPolynomial((1,)), p)
    return binary_power(x, l, functools.partial(product_mod, p=p))


def _shifted_power(b: int, l: int) -> int:
    """b^l for l >= 1, with the 2-adic part of b taken by a shift.

    b = 2^s u, u odd, gives b^l = u^l 2^(sl): int.__pow__ multiplies its
    way up even for b = 2, while a shift only writes the bits.
    """
    if not b:
        return 0
    s = (b & -b).bit_length() - 1
    return (b >> s) ** l << (s * l)


def charpoly_power(a: IntegerPolynomial, l: int) -> IntegerPolynomial:
    """prod (x - alpha^l) over the roots alpha of the monic a, with
    multiplicity, for an int l >= 1: charpoly(m^l) for a = charpoly(m),
    with no power of m formed.

    With m = deg a and C a's companion matrix, r = x^l mod a (power_mod)
    has r(C) = C^l, so the traces sum_alpha alpha^(jl), j < m, are
    sum_i coeff_i(r^j) p_i with r^j = r^(j-1) r mod a, p_0 = m and
    p_1..p_(m-1) the power sums of a.  Newton's identities
    (power_sum_polynomial) turn them into the top m coefficients.  The
    constant term (-1)^m ((-1)^m a_0)^l is one integer power, so the last
    Newton step, with the largest products, is never taken; for m = 1
    neither x^l mod a nor Newton's identities are used.  A non-monic or
    constant a and l < 1 raise ValueError, an l that is not an int
    (operator.index) TypeError.
    """
    l = operator.index(l)
    if l < 1:
        raise ValueError("exponent must be >= 1")
    m = len(a.coefficients) - 1
    if m < 1 or a.coefficients[-1] != 1:
        raise ValueError("charpoly_power needs a monic polynomial of degree >= 1")
    top = (1,)
    if m > 1:
        sums = [m, *itertools.islice(power_sums(a), m - 1)]
        r_powers = itertools.accumulate(
            itertools.repeat(power_mod(a, l), m - 1), functools.partial(product_mod, p=a)
        )
        traces = [sum(map(operator.mul, r.coefficients, sums)) for r in r_powers]
        top = power_sum_polynomial(traces).coefficients
    sign = (-1) ** m
    constant = sign * _shifted_power(sign * a.coefficients[0], l)
    return IntegerPolynomial((constant, *top))


# squarefree_factors takes gcd(p, p') modulo this prime before any
# rational arithmetic
_SQUAREFREE_PRIME = 2**61 - 1


def _strip(c: list) -> list:
    """c without its zero top coefficients; the zero polynomial is []."""
    while c and not c[-1]:
        c.pop()
    return c


def _derivative(c: Sequence[int]) -> list[int]:
    return [k * x for k, x in enumerate(c)][1:]


def _divmod_monic(num: Sequence, den: Sequence) -> tuple[list, list]:
    """Quotient and remainder of num by den, whose top coefficient is 1.

    No coefficient is divided, so the result is exact over Z, over Q in
    Fractions, and over GF(P) once reduced mod P.  The remainder has
    deg den coefficients, zero tops included.
    """
    num = list(num)
    n = len(den) - 1
    quotient = []
    while len(num) > n:
        c = num.pop()
        quotient.append(c)
        for i, y in enumerate(den[:n], len(num) - n):
            num[i] -= c * y
    return quotient[::-1], num


def _exact_quotient(num: Sequence[int], den: Sequence[int]) -> list[int]:
    """num / den in Z[x] for a monic den; a remainder raises ArithmeticError."""
    quotient, remainder = _divmod_monic(num, den)
    if any(remainder):
        raise ArithmeticError("inexact polynomial division")
    return quotient


def _gcd(a: list, b: list, modulus: int | None = None) -> list:
    """gcd of a and b by Euclid's algorithm, monic unless b = 0.

    Over Q with Fraction coefficients, or over GF(modulus) with ints.
    """
    while b:
        if modulus is None:
            b = [x / b[-1] for x in b]
        else:
            inverse = pow(b[-1], -1, modulus)
            b = [x * inverse % modulus for x in b]
        remainder = _divmod_monic(a, b)[1]
        if modulus is not None:
            remainder = [x % modulus for x in remainder]
        a, b = b, _strip(remainder)
    return a


def _rational_gcd(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Monic gcd over Q of the monic a and of b, integral by Gauss's lemma."""
    return [int(x) for x in _gcd(list(map(Fraction, a)), list(map(Fraction, b)))]


def squarefree_factors(p: IntegerPolynomial) -> list[tuple[IntegerPolynomial, int]]:
    """The squarefree factorization p = prod_i a_i^i of a monic p, as (a_i, i).

    The a_i are monic, integral, squarefree and pairwise coprime; those
    equal to 1 are left out, so i runs over the multiplicities of p's
    roots, ascending.  Yun's algorithm: with g = gcd(p, p'), b = p / g
    and c = p' / g, each step takes d = c - b', a_i = gcd(b, d), then
    b <- b / a_i and c <- d / a_i, until b = 1.  The gcds are taken over
    Q in Fractions; each is monic and divides p, so it is integral, and
    every division is exact in Z[x].

    A squarefree p, the usual case, takes no rational arithmetic: if
    gcd(p, p') modulo the prime _SQUAREFREE_PRIME = 2^61 - 1 is 1, so is
    gcd(p, p') over Q, since a monic common factor over Z would keep its
    degree mod the prime.  p is then its own factor, of multiplicity 1.
    The product prod a_i^i is checked against p; a mismatch raises
    AssertionError.  A p that is not monic is refused with ValueError.
    """
    coefficients = list(p.coefficients)
    if coefficients[-1] != 1:
        raise ValueError("squarefree factors need a monic polynomial")
    derivative = _derivative(coefficients)
    prime = _SQUAREFREE_PRIME
    shared = _gcd([x % prime for x in coefficients], _strip([x % prime for x in derivative]), prime)
    if len(shared) == 1:
        factors = [(p, 1)] if len(coefficients) > 1 else []
    else:
        factors = []
        g = _rational_gcd(coefficients, derivative)
        b, c = _exact_quotient(coefficients, g), _exact_quotient(derivative, g)
        multiplicity = 1
        while len(b) > 1:
            d = _strip(
                [x - y for x, y in itertools.zip_longest(c, _derivative(b), fillvalue=0)]
            )
            a = _rational_gcd(b, d)
            if len(a) > 1:
                factors.append((IntegerPolynomial(tuple(a)), multiplicity))
            b, c = _exact_quotient(b, a), _exact_quotient(d, a)
            multiplicity += 1
    powers = (a for a, multiplicity in factors for _ in range(multiplicity))
    if functools.reduce(operator.mul, powers, IntegerPolynomial((1,))) != p:
        raise AssertionError("the squarefree factors do not multiply back to p")
    return factors


def power_bits(m: IntegerMatrix, l: int) -> int:
    """Estimated bit length of the entries of m^l: l ceil(log2 |m|) + ceil(log2 n).

    |m| is the largest absolute row sum, which is submultiplicative, so
    every entry of m^l is at most |m|^l in size; ceil(log2 n) more bits
    cover a sum of n such entries.  It reads only m's entries, so a
    caller can decide how to form m^l before forming it.
    """
    norm = max(sum(map(abs, m.row(i))) for i in range(m.rows))
    return l * max(norm - 1, 0).bit_length() + (m.rows - 1).bit_length()


def _pfaffian_eliminate(a: list[list[int]]) -> int:
    """Pfaffian by fraction-free skew elimination.

    A step pivots on p = a[0][1] and replaces the rows/cols from 2 on by
    (p a[i][k] + a[0][k] a[1][i] - a[0][i] a[1][k]) / prev, prev the
    previous pivot.  By the Pfaffian analogue of Sylvester's identity each
    new entry is the Pfaffian of the pivot rows so far together with
    {i, k}, so every division is exact and the last pivot is Pf(a).
    Row/column swaps flip the sign.  A row i with a[0][i] = a[1][i] = 0
    only scales by p / prev: it is copied as it is when p = prev and
    scaled otherwise, with no products of the pivot rows formed.
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
        top, second = a[0][2:], a[1][2:]
        rows = []
        for row, x, y in zip(a[2:], top, second):
            if x or y:
                row = [
                    (p * v + t * y - x * u) // prev for v, t, u in zip(row[2:], top, second)
                ]
            elif p != prev:
                row = [p * v // prev for v in row[2:]]
            else:
                row = row[2:]
            rows.append(row)
        a = rows
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
