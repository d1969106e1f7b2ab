"""Finite groups of affine torus automorphisms and quotient fixed-point bounds.

A group element is a LatticeEndomorphism x -> U x + s whose matrix U is
unimodular.  It has a fixed point exactly when (U - I) x = -s (mod Z^n)
is solvable, which the one torus solver, lattice.solve_mod_lattice,
decides exactly; the action is free when no non-identity element has
one.  The quotient itself is never built.  An f that descends comes
with its lift map pi, f g = pi(g) f, which need not be a bijection; for a
free action the classes of Fix(f^l) upstairs all have |H_l| points,
H_l = {g : pi^l(g) = g}, so their number, the lower bound for fixed
points downstairs, is |det(M^l - I)| / |H_l| and no point is enumerated.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple, Sequence

from .fixpoint import check_multiplier, count_fixed, iterate_determinants, nondegenerate_count
from .lattice import (
    LatticeEndomorphism,
    TorsionPoint,
    compose,
    solve_mod_lattice,
)
from .linalg import IntegerMatrix, det


@dataclass(frozen=True)
class GroupAction:
    """Finite list of affine automorphisms, meant to be a free group action.

    Each element is a LatticeEndomorphism x -> U x + s with U unimodular;
    a non-unimodular element is refused and named as action[i].
    """

    elements: tuple[LatticeEndomorphism, ...]

    def __post_init__(self):
        if not self.elements:
            raise ValueError("a group action needs at least the identity element")
        ranks = {e.rank for e in self.elements}
        if len(ranks) != 1:
            raise ValueError("all elements must act on the same torus")
        for i, e in enumerate(self.elements):
            if abs(det(e.matrix)) != 1:
                raise ValueError(f"action[{i}]: linear part must be unimodular (|det| = 1)")
        object.__setattr__(self, "elements", tuple(self.elements))

    @property
    def rank(self) -> int:
        return self.elements[0].rank

    def __len__(self) -> int:
        return len(self.elements)


@dataclass(frozen=True)
class ActionReport:
    """Outcome of the group-action axioms, one named entry per violation."""

    valid: bool
    free: bool
    violations: tuple[str, ...] = field(default=())


class QuotientBound(NamedTuple):
    """Orbit count of the fixed set against the |G|-to-1 lower bound; the
    fields are the printed columns, in order."""

    l: int
    upstairs_count: int
    group_order: int
    orbit_count: int
    lower_bound: Fraction
    formula_bound: Fraction


def validate_action(action: GroupAction) -> ActionReport:
    """Check closure, identity, inverses, and fixed-point freeness."""
    violations: list[str] = []
    elements = action.elements
    members = set(elements)
    identity = LatticeEndomorphism.identity(elements[0].g)
    if len(members) != len(elements):
        violations.append("duplicate elements in the list")
    if identity not in members:
        violations.append("identity element missing")
    for i, a in enumerate(elements):
        for j, b in enumerate(elements):
            if compose(a, b) not in members:
                violations.append(f"closure fails: element {i} composed with {j}")
    for i, a in enumerate(elements):
        if not any(compose(a, b) == identity for b in elements):
            violations.append(f"inverse missing for element {i}")
    free = True
    for i, a in enumerate(elements):
        if a == identity:
            continue
        k = a.matrix - IntegerMatrix.identity(a.rank)
        if solve_mod_lattice(k, [-c for c in a.translation])[1] is not None:
            free = False
            violations.append(f"freeness fails: element {i} has a fixed point")
    return ActionReport(valid=not violations, free=free, violations=tuple(violations))


def lift_compatibility(f: LatticeEndomorphism, action: GroupAction) -> tuple[int, ...]:
    """The lift map pi, pi[i] = j when f g_i = g_j f as torus maps.

    Matrix parts must agree exactly; translations up to Z^{2g}.  The map,
    which need not be a bijection ([2] sends every 2-torsion translation
    to the identity), witnesses that f descends to the quotient.  When
    some g_i has no match, ValueError names each such element.
    """
    if f.rank != action.rank:
        raise ValueError("endomorphism and action ranks differ")
    images = [compose(g_prime, f) for g_prime in action.elements]
    lift: list[int] = []
    failures: list[str] = []
    for i, g in enumerate(action.elements):
        lhs = compose(f, g)
        if lhs in images:
            lift.append(images.index(lhs))
        else:
            failures.append(f"no group element matches f composed with element {i}")
    if failures:
        raise ValueError("endomorphism does not descend: " + "; ".join(failures))
    return tuple(lift)


def _grid_classes(
    common: int, points: Sequence[tuple[int, ...]], action: GroupAction
) -> list[list[int]]:
    """Classes of the G-relation on the points a / common of the torus.

    Returns lists of indices into points.  An element (U, s) maps a / N,
    N = common, to (U a + N s) / N; when N s is not integral that image
    lies off the (1/N)-grid, so outside the set, and the element relates
    no two points.  Otherwise it acts on numerators as
    a -> (U a + N s) mod N, in integers only.  One dict maps each
    distinct point to the index of its last copy, in order of first
    appearance; seeds are popped from its end, and a seed's class holds
    the seed and those of its images still in the dict, popped in the
    order of the group elements.
    """
    # distinct point -> index of its last copy, in order of first appearance
    remaining = dict(zip(points, range(len(points))))
    identity = LatticeEndomorphism.identity(action.rank // 2)
    moves = []
    for g in action.elements:
        shift = [c * common for c in g.translation]
        # the identity maps each seed to itself, which is already popped
        if g != identity and all(c.denominator == 1 for c in shift):
            moves.append((g.matrix.to_lists(), [int(c) for c in shift]))
    classes: list[list[int]] = []
    while remaining:
        seed, index = remaining.popitem()
        cls = [index]
        for rows, shift in moves:
            image = tuple(
                (sum(map(operator.mul, row, seed)) + s) % common
                for row, s in zip(rows, shift)
            )
            found = remaining.pop(image, None)
            if found is not None:
                cls.append(found)
        classes.append(cls)
    return classes


def orbit_partition(
    points: Sequence[TorsionPoint], action: GroupAction
) -> list[list[TorsionPoint]]:
    """Partition a G-stable-or-not point set into classes of the G-relation.

    Two points are related when some group element maps one to the other;
    images outside the given set are ignored (classes may be smaller than
    full orbits).  The points are put over their common denominator and
    classified on that integer grid by _grid_classes; the TorsionPoints
    themselves are only handed back.
    """
    common = math.lcm(*(c.denominator for p in points for c in p))
    numerators = [
        tuple(c.numerator * (common // c.denominator) for c in p) for p in points
    ]
    return [
        [points[i] for i in cls]
        for cls in _grid_classes(common, numerators, action)
    ]


def _require_descent(f: LatticeEndomorphism, action: GroupAction) -> tuple[int, ...]:
    """Refuse an invalid action, then return lift_compatibility's lift map
    pi, f g = pi(g) f, which refuses an f that does not descend."""
    report = validate_action(action)
    if not report.valid:
        raise ValueError("invalid group action: " + "; ".join(report.violations))
    return lift_compatibility(f, action)


def _cycle_lengths(lift: Sequence[int]) -> list[int]:
    """Length of the lift-map cycle through each element, 0 off every cycle.

    The map need not be a bijection, so each walk stops after |G| steps.
    """
    lengths = []
    for start in range(len(lift)):
        walk = [lift[start]]
        while walk[-1] != start and len(walk) < len(lift):
            walk.append(lift[walk[-1]])
        lengths.append(len(walk) if walk[-1] == start else 0)
    return lengths


def _orbit_bound(
    f: LatticeEndomorphism, order: int, q: int, l: int, upstairs: int, cycles: list[int]
) -> QuotientBound:
    # H_l = {g : pi^l(g) = g} moves each fixed point to fixed points only,
    # and freely, so every class of Fix(f^l) has |H_l| points
    stabilizer = sum(1 for c in cycles if c and l % c == 0)
    if not stabilizer or upstairs % stabilizer:
        raise AssertionError(
            f"|H_{l}| = {stabilizer} does not divide |Fix(f^{l})| = {upstairs}"
        )
    formula = Fraction((q**l - 1) ** f.g, order)
    return QuotientBound(
        l=l,
        upstairs_count=upstairs,
        group_order=order,
        orbit_count=upstairs // stabilizer,
        lower_bound=Fraction(upstairs, order),
        formula_bound=formula,
    )


def quotient_fixed_lower_bound(
    f: LatticeEndomorphism, action: GroupAction, q: int, l: int = 1
) -> QuotientBound:
    """Orbit count of Fix(f^l), a certified lower bound for the quotient count.

    The action is validated (it must be free) and f must descend through
    it, f g = pi(g) f.  For x in Fix(f^l), f^l(g x) = pi^l(g)(x), so g x is
    fixed exactly when g^-1 pi^l(g) fixes x, which for a free action means
    pi^l(g) = g.  Those g form H_l, each class of the fixed set has |H_l|
    points, and orbit_count = |det(M^l - I)| / |H_l|; no point is built.
    pi need not be a bijection: g is in H_l when it lies on a pi-cycle
    whose length divides l.  |H_l| must divide the upstairs count, or
    AssertionError is raised.  lower_bound is |Fix(f^l)| / |G|, kept as
    an exact rational; the multiplier-based value (q^l - 1)^g / |G| is
    reported for comparison but never asserted, and q < 2 is refused first.
    """
    q = check_multiplier(q)
    cycles = _cycle_lengths(_require_descent(f, action))
    return _orbit_bound(f, len(action), q, l, count_fixed(f, l), cycles)


def quotient_table(
    f: LatticeEndomorphism, action: GroupAction, q: int, l_max: int
) -> list[QuotientBound]:
    """quotient_fixed_lower_bound for l = 1..l_max, the action checked once.

    Every row's det(M^l - I) comes from iterate_determinants, which refuses
    l_max < 1; a degenerate row is refused with count_fixed's message.
    """
    q = check_multiplier(q)
    cycles = _cycle_lengths(_require_descent(f, action))
    return [
        _orbit_bound(f, len(action), q, l, nondegenerate_count(l, d), cycles)
        for l, d in iterate_determinants(f, l_max)
    ]
