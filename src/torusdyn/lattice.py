"""Lattice model of complex tori and their endomorphisms.

A torus of half-dimension g is the quotient R^{2g} / Z^{2g}, optionally
carrying a rational complex structure J (J^2 = -I), held as integer
numerators over one denominator, and an integral Riemann form S
(nondegenerate alternating, compatible with J).  An endomorphism is an
integer matrix plus a rational translation; its isogeny degree is
|det M|.  Affine automorphisms x -> U x + s are endomorphisms with U
unimodular.
"""

from __future__ import annotations

import contextlib
import gc
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .linalg import (
    IntegerMatrix,
    SmithDecomposition,
    bareiss_pivots,
    binary_power,
    det,
    exact_fraction,
    smith_normal_form,
)


def reduce_mod_lattice(vector: Sequence) -> tuple[Fraction, ...]:
    """Canonical representative of a rational vector mod Z^n, entries in [0,1).

    A float entry is refused with ValueError.
    """
    return tuple(exact_fraction(v) % 1 for v in vector)


def _leading_minors_positive(h: IntegerMatrix) -> bool:
    """Sylvester test: all leading principal minors strictly positive.  They
    are the Bareiss pivots if no row is exchanged; an exchange means one is 0."""
    pivots, exchanges = bareiss_pivots(h)
    return not exchanges and all(p > 0 for p in pivots)


@dataclass(frozen=True)
class ComplexTorus:
    """Rank-2g lattice torus with optional complex structure and Riemann form.

    The complex structure is J = complex_structure / complex_denominator:
    integer numerators over one denominator d >= 1, kept in lowest terms
    as a Fraction is, so equal structures compare equal.  Every check is
    an integer identity on the numerators: J J = -d^2 I, J^T S J = d^2 S,
    which together make J^T S symmetric, and positive leading minors of
    J^T S (the k-th differs from the true one by the factor d^k > 0) read
    off one Bareiss elimination.  Those minors certify det(J^T S) > 0,
    hence det S != 0, so S's own determinant is taken only without J or
    when a J check fails, and its refusal ("nondegenerate") still comes
    first.  From g = 6 on, * packs J J, J^T S and J^T S J whose left
    factor's entries fit in 64 bits.
    """

    g: int
    complex_structure: IntegerMatrix | None = None
    riemann_form: IntegerMatrix | None = None
    complex_denominator: int = 1

    def __post_init__(self):
        if self.g < 1:
            raise ValueError("half-dimension g must be a positive integer")
        n = self.rank
        J = self.complex_structure
        S = self.riemann_form
        try:
            d = operator.index(self.complex_denominator)
        except TypeError:
            raise ValueError("complex denominator must be an integer") from None
        if d < 1:
            raise ValueError("complex denominator must be >= 1")
        if J is None and d != 1:
            raise ValueError("complex denominator given without a complex structure")
        if J is not None:
            if (J.rows, J.cols) != (n, n):
                raise ValueError(f"complex structure must be {n}x{n}")
            common = math.gcd(d, *J.entries)
            if common > 1:
                J = IntegerMatrix(n, n, tuple(e // common for e in J.entries))
                d //= common
                object.__setattr__(self, "complex_structure", J)
            object.__setattr__(self, "complex_denominator", d)
            if J * J != IntegerMatrix.scalar(n, -d * d):
                raise ValueError("complex structure must square to -I")
        if S is None:
            return
        if (S.rows, S.cols) != (n, n):
            raise ValueError(f"Riemann form must be {n}x{n}")
        if not S.is_skew_symmetric():
            raise ValueError("Riemann form must be alternating (S^T = -S)")
        failure = None
        if J is not None:
            H = J.transpose() * S
            # H is symmetric once J-invariance holds: J^T S J = d^2 S times J
            # on the right, with J J = -d^2 I, gives J^T S = -S J, and
            # (J^T S)^T = S^T J = -S J for alternating S
            if H * J != S * (d * d):
                failure = "Riemann form not J-invariant (J^T S J != S)"
            elif not _leading_minors_positive(H):
                failure = "J^T S must be positive definite"
        # a passing Sylvester test certifies det(J^T S) > 0, so det S != 0;
        # otherwise S's own refusal comes first
        if (J is None or failure) and det(S) == 0:
            raise ValueError("Riemann form must be nondegenerate")
        if failure:
            raise ValueError(failure)

    @property
    def rank(self) -> int:
        return 2 * self.g


_NOT_CANONICAL = "coordinates must be canonical representatives in [0,1)"


@contextlib.contextmanager
def collector_paused() -> Iterator[None]:
    """Pause the cyclic garbage collector around a bulk build of acyclic objects.

    Tuples of ints and points of Fractions can never form a reference cycle,
    yet every one of them is tracked, so building tens of thousands of
    them triggers young and full collections that rescan the growing
    list for nothing.  Reference counting still frees them.  On every
    exit, by return or by exception, the collector is left enabled or
    disabled as it was found, so nested pauses compose.  The switch is
    process-wide: a thread allocating meanwhile is not collected either.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def grid_residues(
    denominator: int, numerators: Iterable[Sequence[int]]
) -> dict[int, Fraction]:
    """v -> Fraction(v, denominator) for each distinct v in the numerator
    sequences, the columns of a point set or its points.

    Each distinct numerator is checked once for 0 <= v < denominator; one
    outside that range is refused with ValueError, as TorsionPoint
    refuses a coordinate outside [0,1).
    """
    residues = {}
    for v in set().union(*numerators):
        if not 0 <= v < denominator:
            raise ValueError(_NOT_CANONICAL)
        residues[v] = Fraction(v, denominator)
    return residues


class TorsionPoint(tuple):
    """Point of finite order: a tuple of Fractions, each in [0,1).

    The point is its coordinate tuple, so it equals, hashes and orders as
    the plain tuple of its coordinates does; it holds no __dict__.
    """

    __slots__ = ()

    def __new__(cls, coordinates: Iterable) -> "TorsionPoint":
        point = super().__new__(cls, map(exact_fraction, coordinates))
        for c in point:
            if not 0 <= c.numerator < c.denominator:
                raise ValueError(_NOT_CANONICAL)
        return point

    @property
    def coordinates(self) -> "TorsionPoint":
        """The point itself, not a copy."""
        return self

    @classmethod
    def reduce(cls, vector: Sequence) -> "TorsionPoint":
        return cls(reduce_mod_lattice(vector))

    @classmethod
    def from_grid(
        cls, denominator: int, columns: Sequence[Sequence[int]]
    ) -> "list[TorsionPoint]":
        """The points a / denominator for a in zip(*columns), in order.

        columns[r] lists coordinate r of every point, as fixpoint.fixed_columns
        returns them; columns of unequal length raise ValueError.
        grid_residues checks each distinct numerator once and makes one
        Fraction for it, shared by every point that has it; each column is
        mapped to its Fractions, and each zipped row of them becomes a
        point by tuple.__new__, without re-validating a coordinate, since
        each is one of those checked residues.  All of it runs with the
        cyclic collector paused (collector_paused).
        """
        lookup = grid_residues(denominator, columns).__getitem__
        with collector_paused():
            rows = zip(*[map(lookup, c) for c in columns], strict=True)
            return list(map(tuple.__new__, itertools.repeat(cls), rows))


@dataclass(frozen=True)
class SimpleFactorSpec:
    """One isotypic block of a product torus: dimension, multiplier, multiplicity.

    Each field is taken as an int (operator.index, so a float raises
    TypeError) before its range is checked.
    """

    g: int
    q: int
    multiplicity: int = 1

    def __post_init__(self):
        for name in ("g", "q", "multiplicity"):
            object.__setattr__(self, name, operator.index(getattr(self, name)))
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
        image = self.matrix.apply([exact_fraction(c) for c in point])
        return reduce_mod_lattice([a + b for a, b in zip(image, self.translation)])


def is_analytic(f: LatticeEndomorphism, torus: ComplexTorus) -> bool:
    """Whether the lift commutes with the complex structure (M J = J M).

    Vacuously true when the torus carries no complex structure.
    """
    J = torus.complex_structure
    if J is None:
        return True
    return f.matrix * J == J * f.matrix


def compose(f: LatticeEndomorphism, h: LatticeEndomorphism) -> LatticeEndomorphism:
    """f after h: x -> M_f M_h x + (M_f t_h + t_f)."""
    if f.rank != h.rank:
        raise ValueError("dimension mismatch in composition")
    matrix = f.matrix * h.matrix
    shifted = f.matrix.apply(h.translation)
    translation = tuple(a + b for a, b in zip(shifted, f.translation))
    return LatticeEndomorphism(matrix, translation)


def power(f: LatticeEndomorphism, l: int) -> LatticeEndomorphism:
    """l-th iterate x -> M^l x + (M^{l-1} + ... + I) t.

    Binary powering with compose: O(log l) compositions, each one matrix
    product and one translation step reduced mod Z^{2g}, so neither the
    matrix nor the translation is walked l times and M - I is never
    inverted.  Iterates of one map commute, so the order of each
    composition does not matter.  l = 0 is rejected: the identity has its
    own constructor.
    """
    if l < 1:
        raise ValueError("iterate must be >= 1")
    return binary_power(f, l, compose)


def degree(f: LatticeEndomorphism) -> int:
    """Isogeny degree |det M|; 0 means the map is not an isogeny."""
    return abs(det(f.matrix))


def complementary_isogeny(
    f: LatticeEndomorphism,
) -> tuple[LatticeEndomorphism, int]:
    """The complementary isogeny: minimal m > 0 with m M^{-1} integral.

    Returns (f_hat, m) with f_hat.matrix * M = M * f_hat.matrix = m I; m is
    the largest elementary divisor of M (the exponent of the kernel).  From
    the Smith form U M V = diag(d_i), m M^{-1} = V diag(m / d_i) U, so no
    rational inverse is formed.
    """
    if not f.is_translation_free():
        raise ValueError("complementary isogeny needs a translation-free isogeny")
    snf = smith_normal_form(f.matrix)
    if 0 in snf.elementary_divisors:
        raise ValueError("degenerate endomorphism (degree 0) has no complementary isogeny")
    m = snf.largest_divisor()
    scale = IntegerMatrix.diagonal([m // d for d in snf.elementary_divisors])
    return LatticeEndomorphism(snf.V * scale * snf.U), m


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


def solve_mod_lattice(
    a: IntegerMatrix, t: Sequence[Fraction]
) -> tuple[SmithDecomposition, tuple[Fraction, ...] | None]:
    """One solution of a x = t (mod Z^n), or None, with the Smith data.

    Returns (snf, x) for the one Smith form U a V = D.  With b = U t and
    y = V^{-1} x the system reads d_i y_i = b_i (mod Z), one line per row
    of D.  A zero row of D, one with d_i = 0 or one past the last divisor
    of a tall a, reads 0 = b_i (mod Z): when some such b_i is not an
    integer there is no solution and x is None.  Otherwise x = V y, with
    y_i = b_i / d_i on the nonzero divisors and y_i = 0 elsewhere, in
    exact Fractions; the other solutions add j / d_i to y_i and anything
    to the y_i of a zero divisor.
    """
    snf = smith_normal_form(a)
    divisors = snf.elementary_divisors
    b = snf.U.apply(t)
    if any(
        c.denominator != 1
        for d, c in itertools.zip_longest(divisors, b, fillvalue=0)
        if d == 0
    ):
        return snf, None
    y = [Fraction(c, d) if d else Fraction(0) for d, c in zip(divisors, b)]
    y += [Fraction(0)] * (a.cols - len(y))
    return snf, snf.V.apply(y)


def restrict_to_sublattice(
    f: LatticeEndomorphism, basis: IntegerMatrix
) -> LatticeEndomorphism:
    """Restriction to an invariant saturated sublattice, in basis coordinates.

    The Smith form U B V = [I; 0] of the k-column basis B comes from
    solve_mod_lattice(B, t).  It decides saturation and solves
    B M' = M B: that holds exactly when the rows k.. of U M B vanish, and
    then M' = V (U M B)[:k].  The translation t must lie in the span of B
    modulo Z^{2g}: t' is the solver's solution of B t' = t, and None
    refuses.  Saturation is refused first, then invariance, then the span.
    """
    if basis.rows != f.rank:
        raise ValueError("basis rows must match the ambient rank")
    if basis.cols % 2 != 0 or basis.cols > basis.rows:
        raise ValueError("basis must have even column count at most the ambient rank")
    snf, translation = solve_mod_lattice(basis, f.translation)
    if any(d != 1 for d in snf.elementary_divisors):
        raise ValueError("basis is not saturated (elementary divisors must all be 1)")
    k = basis.cols
    image = (snf.U * f.matrix * basis).to_lists()
    if any(any(row) for row in image[k:]):
        raise ValueError("sublattice is not invariant under the endomorphism")
    if translation is None:
        raise ValueError("translation does not lie in the sublattice span modulo Z^{2g}")
    restricted = snf.V * IntegerMatrix.from_rows(image[:k])
    return LatticeEndomorphism(restricted, translation)
