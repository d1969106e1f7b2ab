"""Lattice model of complex tori and their endomorphisms.

A torus of half-dimension g is the quotient R^{2g} / Z^{2g}, optionally
carrying a rational complex structure J (J^2 = -I) and an integral
Riemann form S (nondegenerate alternating, compatible with J).  An
endomorphism is an integer matrix plus a rational translation; its
isogeny degree is |det M|.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .linalg import (
    IntegerMatrix,
    RationalMatrix,
    det,
    smith_normal_form,
)


def reduce_mod_lattice(vector: Sequence) -> tuple[Fraction, ...]:
    """Canonical representative of a rational vector mod Z^n, entries in [0,1)."""
    return tuple(Fraction(v) % 1 for v in vector)


def _leading_minors_positive(m: RationalMatrix) -> bool:
    """Sylvester test: all leading principal minors strictly positive."""
    for k in range(1, m.rows + 1):
        sub = RationalMatrix.from_rows(
            [[m[i, j] for j in range(k)] for i in range(k)]
        )
        if sub.determinant() <= 0:
            return False
    return True


@dataclass(frozen=True)
class ComplexTorus:
    """Rank-2g lattice torus with optional complex structure and Riemann form."""

    g: int
    complex_structure: RationalMatrix | None = None
    riemann_form: IntegerMatrix | None = None

    def __post_init__(self):
        if self.g < 1:
            raise ValueError("half-dimension g must be a positive integer")
        n = self.rank
        J = self.complex_structure
        S = self.riemann_form
        if J is not None:
            if (J.rows, J.cols) != (n, n):
                raise ValueError(f"complex structure must be {n}x{n}")
            if J * J != RationalMatrix.identity(n) * Fraction(-1):
                raise ValueError("complex structure must square to -I")
        if S is not None:
            if (S.rows, S.cols) != (n, n):
                raise ValueError(f"Riemann form must be {n}x{n}")
            if not S.is_skew_symmetric():
                raise ValueError("Riemann form must be alternating (S^T = -S)")
            if det(S) == 0:
                raise ValueError("Riemann form must be nondegenerate")
        if J is not None and S is not None:
            Sq = S.to_rational()
            if J.transpose() * Sq * J != Sq:
                raise ValueError("Riemann form not J-invariant (J^T S J != S)")
            H = J.transpose() * Sq
            if H != H.transpose():
                raise ValueError("J^T S must be symmetric")
            if not _leading_minors_positive(H):
                raise ValueError("J^T S must be positive definite")

    @property
    def rank(self) -> int:
        return 2 * self.g


@dataclass(frozen=True)
class TorsionPoint:
    """Point of finite order: rational coordinates, each in [0,1)."""

    coordinates: tuple[Fraction, ...]

    def __post_init__(self):
        coords = self.coordinates
        if type(coords) is not tuple or not all(type(c) is Fraction for c in coords):
            coords = tuple(Fraction(c) for c in coords)
            object.__setattr__(self, "coordinates", coords)
        for c in coords:
            if not 0 <= c.numerator < c.denominator:
                raise ValueError("coordinates must be canonical representatives in [0,1)")

    @classmethod
    def reduce(cls, vector: Sequence) -> "TorsionPoint":
        return cls(reduce_mod_lattice(vector))

    def __len__(self) -> int:
        return len(self.coordinates)


@dataclass(frozen=True)
class SimpleFactorSpec:
    """One isotypic block of a product torus: dimension, multiplier, multiplicity."""

    g: int
    q: int
    multiplicity: int = 1

    def __post_init__(self):
        if self.g < 1:
            raise ValueError("factor dimension g must be >= 1")
        if self.q < 2:
            raise ValueError("polarization multiplier q must be >= 2")
        if self.multiplicity < 1:
            raise ValueError("multiplicity must be >= 1")


@dataclass(frozen=True)
class LatticeEndomorphism:
    """Affine torus map x -> M x + t with M integral and t rational mod Z^{2g}."""

    matrix: IntegerMatrix
    translation: tuple[Fraction, ...] = ()

    def __post_init__(self):
        M = self.matrix
        if not M.is_square or M.rows % 2 != 0:
            raise ValueError("endomorphism matrix must be square of even dimension")
        t = self.translation if self.translation else (Fraction(0),) * M.rows
        if len(t) != M.rows:
            raise ValueError("translation length must match matrix dimension")
        object.__setattr__(self, "translation", reduce_mod_lattice(t))

    @classmethod
    def identity(cls, g: int) -> "LatticeEndomorphism":
        return cls(IntegerMatrix.identity(2 * g))

    @classmethod
    def multiplication_by(cls, m: int, g: int) -> "LatticeEndomorphism":
        return cls(IntegerMatrix.scalar(2 * g, m))

    @property
    def rank(self) -> int:
        return self.matrix.rows

    @property
    def g(self) -> int:
        return self.matrix.rows // 2

    def is_translation_free(self) -> bool:
        return all(c == 0 for c in self.translation)

    def value_at(self, point: Sequence) -> tuple[Fraction, ...]:
        """Image of a point of the torus, reduced to [0,1)^{2g}."""
        image = self.matrix.apply([Fraction(c) for c in point])
        return reduce_mod_lattice([a + b for a, b in zip(image, self.translation)])


def is_analytic(f: LatticeEndomorphism, torus: ComplexTorus) -> bool:
    """Whether the lift commutes with the complex structure (M J = J M).

    Vacuously true when the torus carries no complex structure.
    """
    J = torus.complex_structure
    if J is None:
        return True
    Mq = f.matrix.to_rational()
    return Mq * J == J * Mq


def compose(f: LatticeEndomorphism, h: LatticeEndomorphism) -> LatticeEndomorphism:
    """f after h: x -> M_f M_h x + (M_f t_h + t_f)."""
    if f.rank != h.rank:
        raise ValueError("dimension mismatch in composition")
    matrix = f.matrix * h.matrix
    shifted = f.matrix.apply(h.translation)
    translation = tuple(a + b for a, b in zip(shifted, f.translation))
    return LatticeEndomorphism(matrix, translation)


def power(f: LatticeEndomorphism, l: int) -> LatticeEndomorphism:
    """l-th iterate; accumulated translation (M^{l-1} + ... + I) t.

    l = 0 is rejected: the identity has its own constructor.
    """
    if l < 1:
        raise ValueError("iterate must be >= 1")
    matrix = f.matrix**l
    # Geometric-series recursion t_k = M t_{k-1} + t; never inverts M - I.
    t = f.translation
    acc = t
    for _ in range(l - 1):
        acc = reduce_mod_lattice(
            [a + b for a, b in zip(f.matrix.apply(acc), t)]
        )
    return LatticeEndomorphism(matrix, acc)


def degree(f: LatticeEndomorphism) -> int:
    """Isogeny degree |det M|; 0 means the map is not an isogeny."""
    return abs(det(f.matrix))


def complementary_isogeny(
    f: LatticeEndomorphism,
) -> tuple[LatticeEndomorphism, int]:
    """The complementary isogeny: minimal m > 0 with m M^{-1} integral.

    Returns (f_hat, m) with f_hat.matrix * M = M * f_hat.matrix = m I; m is
    the largest elementary divisor of M (the exponent of the kernel).
    """
    if not f.is_translation_free():
        raise ValueError("complementary isogeny needs a translation-free isogeny")
    if det(f.matrix) == 0:
        raise ValueError("degenerate endomorphism (degree 0) has no complementary isogeny")
    m = smith_normal_form(f.matrix).largest_divisor()
    inverse = f.matrix.to_rational().inverse()
    hat = (inverse * Fraction(m)).to_integer()
    return LatticeEndomorphism(hat), m


def polarization_multiplier(
    f: LatticeEndomorphism, torus: ComplexTorus
) -> int | None:
    """The integer q >= 1 with M^T S M = q S, if it exists.

    The check happens at the level of first Chern classes: S is the class
    of an ample bundle and q its pullback multiplier.  q > 1 is the
    polarized case.
    """
    S = torus.riemann_form
    if S is None:
        raise ValueError("torus carries no Riemann form")
    if f.rank != torus.rank:
        raise ValueError("endomorphism does not act on this torus")
    pulled = f.matrix.transpose() * S * f.matrix
    q: int | None = None
    for a, b in zip(pulled.entries, S.entries):
        if b == 0:
            if a != 0:
                return None
            continue
        if a % b != 0:
            return None
        ratio = a // b
        if q is None:
            q = ratio
        elif q != ratio:
            return None
    if q is None or q < 1:
        return None
    return q


def product(
    tori: Sequence[ComplexTorus], endos: Sequence[LatticeEndomorphism]
) -> tuple[ComplexTorus, LatticeEndomorphism]:
    """Block-diagonal product torus and endomorphism.

    J and S are assembled only when every factor supplies one.
    """
    if not tori or len(tori) != len(endos):
        raise ValueError("need equally many tori and endomorphisms, at least one")
    for torus, endo in zip(tori, endos):
        if torus.rank != endo.rank:
            raise ValueError("factor endomorphism does not act on its torus")
    g = sum(t.g for t in tori)
    J = None
    if all(t.complex_structure is not None for t in tori):
        blocks = [t.complex_structure for t in tori]
        n = 2 * g
        rows = [[Fraction(0)] * n for _ in range(n)]
        r0 = 0
        for b in blocks:
            for i in range(b.rows):
                for j in range(b.cols):
                    rows[r0 + i][r0 + j] = b[i, j]
            r0 += b.rows
        J = RationalMatrix.from_rows(rows)
    S = None
    if all(t.riemann_form is not None for t in tori):
        S = IntegerMatrix.block_diagonal([t.riemann_form for t in tori])
    torus = ComplexTorus(g, complex_structure=J, riemann_form=S)
    matrix = IntegerMatrix.block_diagonal([e.matrix for e in endos])
    translation = tuple(c for e in endos for c in e.translation)
    return torus, LatticeEndomorphism(matrix, translation)


def is_saturated(basis: IntegerMatrix) -> bool:
    """Full column rank with all elementary divisors 1 (primitive sublattice)."""
    snf = smith_normal_form(basis)
    divisors = snf.elementary_divisors
    if len(divisors) < basis.cols:
        return False
    return all(d == 1 for d in divisors[: basis.cols]) and all(
        d == 0 for d in divisors[basis.cols :]
    )


def _solve_columns(
    basis: IntegerMatrix, rhs: IntegerMatrix
) -> RationalMatrix | None:
    """Solve basis * X = rhs exactly; None when inconsistent.

    basis must have full column rank (checked by the caller via saturation).
    """
    nrows, ncols = basis.rows, basis.cols
    width = rhs.cols
    aug = [
        [Fraction(basis[i, j]) for j in range(ncols)]
        + [Fraction(rhs[i, j]) for j in range(width)]
        for i in range(nrows)
    ]
    pivot_cols = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, nrows) if aug[i][c] != 0), None)
        if pivot_row is None:
            continue
        aug[r], aug[pivot_row] = aug[pivot_row], aug[r]
        pivot = aug[r][c]
        aug[r] = [x / pivot for x in aug[r]]
        for i in range(nrows):
            if i != r and aug[i][c]:
                factor = aug[i][c]
                aug[i] = [x - factor * y for x, y in zip(aug[i], aug[r])]
        pivot_cols.append(c)
        r += 1
    if r < ncols:
        return None  # rank deficient
    # Consistency: all rows beyond the rank must have zero right-hand side.
    for i in range(r, nrows):
        if any(aug[i][ncols + j] != 0 for j in range(width)):
            return None
    return RationalMatrix.from_rows(
        [[aug[i][ncols + j] for j in range(width)] for i in range(ncols)]
    )


def restrict_to_sublattice(
    f: LatticeEndomorphism, basis: IntegerMatrix
) -> LatticeEndomorphism:
    """Restriction to an invariant saturated sublattice, in basis coordinates.

    Solves M * basis = basis * M' exactly and converts the translation to
    sublattice coordinates (it must lie in the rational span of the basis
    modulo Z^{2g}).
    """
    if basis.rows != f.rank:
        raise ValueError("basis rows must match the ambient rank")
    if basis.cols % 2 != 0 or basis.cols > basis.rows:
        raise ValueError("basis must have even column count at most the ambient rank")
    if not is_saturated(basis):
        raise ValueError("basis is not saturated (elementary divisors must all be 1)")
    solved = _solve_columns(basis, f.matrix * basis)
    if solved is None or not solved.is_integral():
        raise ValueError("sublattice is not invariant under the endomorphism")
    restricted = solved.to_integer()

    if f.is_translation_free():
        return LatticeEndomorphism(restricted)
    # Solve basis * t' = t mod Z^{2g} through the Smith form of the basis.
    snf = smith_normal_form(basis)
    u_t = snf.U.apply(f.translation)
    small = [Fraction(0)] * basis.cols
    for i in range(basis.rows):
        d = snf.D[i, i] if i < basis.cols else 0
        if d == 0:
            if u_t[i].denominator != 1:
                raise ValueError(
                    "translation does not lie in the sublattice span modulo Z^{2g}"
                )
        else:
            small[i] = u_t[i] / d
    t_prime = snf.V.apply(small)
    return LatticeEndomorphism(restricted, reduce_mod_lattice(t_prime))
