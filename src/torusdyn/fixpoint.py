"""Exact fixed-point counting for iterates of lattice-torus endomorphisms.

Ground truth is the determinant count |det(M^l - I)|, valid because
nondegenerate fixed points are simple; an enumeration path (Smith form
congruence solving) and a brute-force grid scan provide two independent
cross-checks.  A single count takes the determinant by Bareiss on M^l
while M^l's entries stay small, and past a bit bound from charpoly(M):
power sums of x^l mod charpoly(M) and Newton's identities.  Growth
tables and comparison reports keep every value exact (big integers and
Fractions).  Their rows come from iterate_determinants: det(M^l - I) is
a signed sum of the traces of (wedge^k M)^l, each of which obeys a
linear recurrence (the rationality of the dynamical zeta function), and
Bareiss determinants of M^l check the first 2^n rows and the last.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

from .lattice import (
    LatticeEndomorphism,
    SimpleFactorSpec,
    TorsionPoint,
    collector_paused,
    power,
    restrict_to_sublattice,
    solve_mod_lattice,
)
from .linalg import (
    IntegerMatrix,
    IntegerPolynomial,
    binary_power,
    charpoly,
    det,
    power_bits,
    power_mod,
    power_sum_polynomial,
    power_sums,
    product_mod,
    smith_normal_form,
)

DEFAULT_BUDGET = 10**6

# count_fixed forms M^l for Bareiss only while linalg.power_bits(M, l)
# is at most this; see count_fixed for the measured crossover
_BAREISS_MAX_BITS = 1024


class DegenerateFixedLocusError(ValueError):
    """det(M^l - I) = 0: the fixed locus may be positive dimensional."""


class BudgetExceededError(RuntimeError):
    """Exhaustive scan would exceed the point budget; refusing, not truncating."""


class RootFindingError(RuntimeError):
    """Numeric root isolation did not converge."""


@dataclass(frozen=True)
class GrowthRow:
    """Exact count at iterate l next to the expected size q^{gl}."""

    l: int
    exact_count: int
    asymptote: int
    ratio: Fraction


@dataclass(frozen=True)
class ComparisonRow:
    l: int
    exact_count: int | None
    formula_value: int
    difference: int | None
    degenerate: bool = False


@dataclass(frozen=True)
class ComparisonReport:
    """Exact counts against a product-formula column; nothing is asserted
    about their equality, the difference column is the observation."""

    formula_label: str
    rows: tuple[ComparisonRow, ...]


@dataclass(frozen=True)
class EigenvalueCheck:
    """Result of testing | |lambda|^2 - q | <= tolerance on all roots."""

    passed: bool
    q: int
    tolerance: float
    max_residual: float
    roots: tuple[complex, ...]


def nondegenerate_count(l: int, d: int) -> int:
    """|d| for d = det(M^l - I), refusing a degenerate iterate."""
    if d == 0:
        raise DegenerateFixedLocusError(
            f"det(M^{l} - I) = 0: positive-dimensional fixed locus possible"
        )
    return abs(d)


def check_multiplier(q: int) -> None:
    """Refuse a multiplier q < 2, which no polarized map has."""
    if q < 2:
        raise ValueError("multiplier q must be > 1")


def count_fixed(f: LatticeEndomorphism, l: int = 1) -> int:
    """Number of solutions of f^l(P) = P on the torus.

    Equals |det(M^l - I)|: each fixed point is simple, and a rational
    translation moves solutions around without changing how many there
    are.  l is taken as an integer (operator.index) before any work.

    While linalg.power_bits(M, l), the estimated bits of M^l's entries,
    is at most _BAREISS_MAX_BITS = 1024, M^l is one binary power,
    O(log l) matrix products, and Bareiss takes det(M^l - I).  Past it,
    _determinant_from_charpoly takes the value from charpoly(M) and
    x^l mod charpoly(M), O(n^2 log l) coefficient products, with no
    power of M formed.  Bareiss time over the charpoly path's time on
    seeded random [-3, 3] matrices (2-vCPU, Python 3.11, median of 3 to
    7 calls; above 1 the charpoly path is faster):

        estimate   n = 2   n = 3   n = 4   n = 6   n = 8   n = 12
        64 bits    0.73    0.87    0.61    0.54    0.70    0.68
        256        0.89    1.04    0.85    0.92    1.35    1.45
        1024       1.13    1.21    1.07    1.41    1.86    2.27
        4096       1.71    1.53    1.29    1.58    1.11    1.74
        16384      4.61    2.17    1.56    2.16    1.83
        65536      9.43    2.51    1.45    3.07    3.61

    A second seed read 0.88 / 1.04 / 2.31 / 1.78 at 1024 bits for
    n = 2 / 4 / 6 / 8.  Sparse matrices keep Bareiss cheap a little
    longer: mult-by-2-g3 at l = 1100 and bielliptic-quotient at
    l = 10^4 run at 0.7-0.8, and both at l = 10^5 at 1.9-31.

    A table over l = 1..l_max goes through iterate_determinants instead.
    """
    l = operator.index(l)
    if l < 1:
        raise ValueError("iterate must be >= 1")
    m = f.matrix
    if power_bits(m, l) <= _BAREISS_MAX_BITS:
        d = det(m**l - IntegerMatrix.identity(f.rank))
    else:
        d = _determinant_from_charpoly(m, l)
    return nondegenerate_count(l, d)


def _determinant_from_charpoly(m: IntegerMatrix, l: int) -> int:
    """det(m^l - I), signed, from p = charpoly(m) and r = x^l mod p.

    With lambda the roots of p and e_k the elementary symmetric
    functions, det(m^l - I) = sum_k (-1)^(n-k) e_k(lambda^l).  Since
    r(m) = m^l, the traces tr(m^(jl)), j < n, are sum_i coeff_i(r^j) p_i
    with r^j = r^(j-1) r mod p, p_0 = n and p_1..p_(n-1) the power sums
    of p.  Newton's identities (power_sum_polynomial) turn them into
    e = sum_(k<n) (-1)^k e_k(lambda^l) x^(n-1-k): step k reads only
    p_1..p_k.  e_n(lambda^l) = det(m)^l is one integer power, so the
    last Newton step, with the largest products, is never taken, and
    det(m^l - I) = (-1)^n e(1) + det(m)^l.  For n = 1, r is a constant
    and e = 1.
    """
    n = m.rows
    p = charpoly(m)
    sums = [n, *itertools.islice(power_sums(p), n - 1)]
    r_powers = itertools.accumulate(
        itertools.repeat(power_mod(p, l), n - 1), functools.partial(product_mod, p=p)
    )
    traces = [sum(map(operator.mul, r.coefficients, sums)) for r in r_powers]
    sign = (-1) ** n
    return sign * power_sum_polynomial(traces)(1) + (sign * p.coefficients[0]) ** l


def iterate_determinants(
    f: LatticeEndomorphism, l_max: int
) -> Iterator[tuple[int, int]]:
    """Yield (l, det(M^l - I)) for l = 1..l_max, signed and exact.

    The rows come from power sums, one sequence per exterior power.  With
    lambda the eigenvalues of the n x n matrix M, column k holds
    s_k(l) = e_k(lambda^l) = tr((wedge^k M)^l), and
    det(M^l - I) = sum_k (-1)^(n-k) s_k(l).  Column k is power_sums of
    charpoly(wedge^k M), of degree C(n, k), which power_sum_polynomial
    builds from s_k(1..C(n, k)) by Newton's identities, so no exterior
    matrix is formed.  The seed s_k(l) is a signed coefficient of
    charpoly(M^l), built the same way from its power sums tr(M^(l i)),
    i <= n, which are power sums of charpoly(M): one charpoly in all.
    Only min(l_max, C(n, n/2)) seed rows are formed; a column longer than
    l_max is built from its first l_max values, whose power sums agree
    with the column up to l_max.

    Two paths give every checked row: Bareiss det(P - I) on the walked
    P = M^l, stepped as P <- P M, pins rows 1..min(2^n, l_max), and for
    l_max > 2^n one binary power M^l_max pins row l_max; the walk stops at
    row 2^n.  A mismatch raises AssertionError before that row is
    yielded.  A zero determinant (a degenerate iterate) is yielded like
    any other; the caller decides whether it refuses or flags it.  An
    l_max < 1 raises ValueError("l_max must be >= 1") at the first row.
    """
    if l_max < 1:
        raise ValueError("l_max must be >= 1")
    n = f.rank
    orders = [math.comb(n, k) for k in range(n + 1)]
    seeded = min(l_max, orders[n // 2])
    traces = list(itertools.islice(power_sums(charpoly(f.matrix)), n * seeded))
    # det(xI - M^l) = sum_k (-1)^k s_k(l) x^(n-k)
    charpolys = [
        power_sum_polynomial(traces[l - 1 : n * l : l]).coefficients
        for l in range(1, seeded + 1)
    ]
    columns = [
        power_sums(power_sum_polynomial([(-1) ** k * c[n - k] for c in charpolys[:order]]))
        for k, order in enumerate(orders)
    ]
    identity = IntegerMatrix.identity(n)
    checked = min(l_max, 2**n)
    m_l = f.matrix
    for l, values in zip(range(1, l_max + 1), zip(*columns)):
        d = sum(values[n::-2]) - sum(values[n - 1 :: -2])
        if 1 < l <= checked:
            m_l = m_l * f.matrix
        if l <= checked or l == l_max:
            check = m_l if l <= checked else binary_power(f.matrix, l_max, operator.mul)
            if det(check - identity) != d:
                raise AssertionError(f"det(M^{l} - I): the recurrence and Bareiss disagree")
        yield l, d


def fixed_grid(
    f: LatticeEndomorphism, l: int = 1, budget: int = DEFAULT_BUDGET
) -> tuple[int, list[tuple[int, ...]]]:
    """Fix(f^l) as integer numerators over one shared denominator N.

    Returns (N, points) with each point a tuple a in [0, N)^n standing for
    a / N in (1/N)Z^n / Z^n, sorted.  Solves (M^l - I) x = -t_l with
    solve_mod_lattice: with U K V = D and b = U(-t_l) the solutions are
    x = V y, where y_i runs over the d_i translates of b_i / d_i, so N is
    the lcm of d_i times the denominator of b_i.  M^l and t_l come from
    one call to power.

    The set is built as one list of numerators per coordinate: Smith axis
    i extends coordinate list r by the offsets (base + j step) V[r, i]
    mod N, j < d_i, so no tuple is made until the lists are zipped into
    points at the end; that zip and its sort run with the cyclic
    collector paused (lattice.collector_paused).

    The point count |det(M^l - I)| is known before any point is built:
    past the budget the call raises BudgetExceededError right after that
    determinant, before the Smith form and the grid walk.  The walk must
    produce exactly that many points (the Smith divisors multiply to the
    Bareiss determinant); anything else raises AssertionError.
    """
    n = f.rank
    f_l = power(f, l)
    k = f_l.matrix - IntegerMatrix.identity(n)
    count = nondegenerate_count(l, det(k))
    if count > budget:
        raise BudgetExceededError(
            f"enumerating {count} fixed points exceeds budget {budget}"
        )
    # K is nondegenerate, so no row of D is zero and a solution exists
    snf, rhs, _ = solve_mod_lattice(k, [-c for c in f_l.translation])
    divisors = snf.elementary_divisors
    common = 1
    for d, b in zip(divisors, rhs):
        common = math.lcm(common, d * b.denominator)
    # every solution is a sum over axes i of one vector y_i * V[:, i]
    columns: list[list[int]] = [[0] for _ in range(n)]
    for i, (d, b) in enumerate(zip(divisors, rhs)):
        base = int(b * common / d)
        step = common // d
        multiples = [(base + j * step) % common for j in range(d)]
        for r in range(n):
            v = snf.V[r, i]
            offsets = [m * v % common for m in multiples]
            columns[r] = [(p + o) % common for p in columns[r] for o in offsets]
    if len(columns[0]) != count:
        raise AssertionError(
            f"{len(columns[0])} grid points but |det(M^{l} - I)| = {count}"
        )
    with collector_paused():
        points = sorted(zip(*columns))
    return common, points


def enumerate_fixed(
    f: LatticeEndomorphism, l: int = 1, budget: int = DEFAULT_BUDGET
) -> list[TorsionPoint]:
    """All fixed points of f^l, as canonical torsion points, sorted.

    The points come from fixed_grid as integer numerators over a shared
    denominator N; they become TorsionPoints only here, through
    TorsionPoint.from_grid, which checks each distinct numerator once and
    makes one Fraction for it.  More than budget points are refused with
    BudgetExceededError before any is built, as in fixed_grid.
    """
    return TorsionPoint.from_grid(*fixed_grid(f, l, budget))


def brute_force_count(
    f: LatticeEndomorphism, l: int = 1, budget: int = DEFAULT_BUDGET
) -> int:
    """Independent oracle: exhaustively count the (1/G)-grid points of Fix(f^l).

    The kernel of K = M^l - I lies in (1/D)Z^n / Z^n for D the largest
    elementary divisor; with a translation of denominator r every solution
    lies on the grid of side G = D r.  Only the divisors are taken from
    the Smith form, never its transforms, so the scan stays independent
    of fixed_grid; their product |det(K)| refuses a degenerate iterate as
    count_fixed does, with no Bareiss determinant.  A grid point a / G is
    fixed when K a + G t = 0 mod G.  The residues of that sum over the
    first n - 1 coordinates are built one coordinate at a time, as one
    list of residues per row of K, and each prefix zipped from those lists
    is matched against a Counter of the residues -K[:, n-1] a_{n-1} of the
    last coordinate, so every one of the G^n grid points is accounted for.
    Refuses (never truncates) past the budget.
    """
    f_l = power(f, l)
    k = f_l.matrix - IntegerMatrix.identity(f.rank)
    divisors = smith_normal_form(k).elementary_divisors
    nondegenerate_count(l, math.prod(divisors))
    t_l = f_l.translation
    r = math.lcm(*(c.denominator for c in t_l))
    grid = divisors[-1] * r
    n = f.rank
    if grid**n > budget:
        raise BudgetExceededError(
            f"grid of {grid}^{n} points exceeds budget {budget}"
        )
    # sums[i] lists row i of K a + G t over the prefixes a_0..a_{n-2}
    sums = [[int(grid * c) % grid] for c in t_l]
    for j in range(n - 1):
        for i in range(n):
            multiples = [k[i, j] * a % grid for a in range(grid)]
            sums[i] = [(p + m) % grid for p in sums[i] for m in multiples]
    last = Counter(
        tuple(-k[i, n - 1] * a % grid for i in range(n)) for a in range(grid)
    )
    return sum(map(last.__getitem__, zip(*sums)))


def growth_table(
    f: LatticeEndomorphism, q: int, g: int, l_max: int
) -> list[GrowthRow]:
    """Exact counts for l = 1..l_max against the q^{gl} asymptote.

    The rows come from iterate_determinants' exterior-power recurrences,
    checked against Bareiss determinants.  The first degenerate iterate
    (det(M^l - I) = 0) raises DegenerateFixedLocusError, as count_fixed
    would at that l.
    """
    check_multiplier(q)
    rows = []
    for l, d in iterate_determinants(f, l_max):
        exact = nondegenerate_count(l, d)
        asymptote = q ** (g * l)
        rows.append(GrowthRow(l, exact, asymptote, Fraction(exact, asymptote)))
    return rows


def factor_product_formula(factors: Sequence[SimpleFactorSpec], l: int) -> int:
    """Product over simple factors of (q_i^l - 1)^{g_i}, with multiplicity."""
    if l < 1:
        raise ValueError("iterate must be >= 1")
    if not factors:
        raise ValueError("need at least one factor")
    value = 1
    for factor in factors:
        value *= (factor.q**l - 1) ** (factor.g * factor.multiplicity)
    return value


def compare_exact(
    f: LatticeEndomorphism, factors: Sequence[SimpleFactorSpec], l_max: int
) -> ComparisonReport:
    """Tabulate exact counts against the simple-factor product formula.

    The exact column comes from iterate_determinants' exterior-power
    recurrences, checked against Bareiss determinants.  The difference
    column is reported as-is; degenerate iterates are flagged inline
    instead of aborting the report.
    """
    label = "prod_i (q_i^l - 1)^(g_i * r_i)"
    rows = []
    for l, d in iterate_determinants(f, l_max):
        formula = factor_product_formula(factors, l)
        if d == 0:
            rows.append(ComparisonRow(l, None, formula, None, degenerate=True))
            continue
        exact = abs(d)
        rows.append(ComparisonRow(l, exact, formula, exact - formula))
    return ComparisonReport(formula_label=label, rows=tuple(rows))


def _squarefree_part(p: IntegerPolynomial) -> list[Fraction]:
    """Monic square-free part of p over Q (ascending coefficients).

    Dividing out gcd(p, p') before numeric root isolation keeps repeated
    eigenvalues from wrecking the root finder's accuracy.
    """

    def normalize(c: list[Fraction]) -> list[Fraction]:
        while len(c) > 1 and c[-1] == 0:
            c.pop()
        return c

    def polydiv(num: list[Fraction], den: list[Fraction]):
        num = num[:]
        quot = [Fraction(0)] * max(1, len(num) - len(den) + 1)
        while len(num) >= len(den) and any(num):
            shift = len(num) - len(den)
            factor = num[-1] / den[-1]
            quot[shift] = factor
            for i, c in enumerate(den):
                num[shift + i] -= factor * c
            num = normalize(num)
            if num == [Fraction(0)]:
                break
        return quot, num

    a = [Fraction(c) for c in p.coefficients]
    b = normalize([Fraction(i * c) for i, c in enumerate(p.coefficients)][1:])
    # Euclidean gcd with monic normalization at each step.
    while b != [Fraction(0)] and any(b):
        _, r = polydiv(a, b)
        a, b = b, normalize(r)
    gcd = [c / a[-1] for c in a]
    if len(gcd) == 1:
        return [Fraction(c) for c in p.coefficients]
    quot, rem = polydiv([Fraction(c) for c in p.coefficients], gcd)
    if any(rem) and rem != [Fraction(0)]:
        raise ArithmeticError("square-free reduction failed to divide exactly")
    return normalize(quot)


def eigenvalue_magnitude_check(
    f: LatticeEndomorphism, q: int, tolerance: float = 1e-9
) -> EigenvalueCheck:
    """Check that every root of charpoly(M) satisfies |lambda|^2 = q.

    Roots are isolated numerically on the square-free part of the
    characteristic polynomial; the achieved residual is reported either
    way.  The tolerance must be finite and >= 0: an infinite one would
    pass every map.
    """
    check_multiplier(q)
    if not (math.isfinite(tolerance) and tolerance >= 0):
        raise ValueError("tolerance must be finite and >= 0")
    p = charpoly(f.matrix)
    reduced = _squarefree_part(p)
    try:
        coeffs_desc = [float(c) for c in reversed(reduced)]
        roots = np.roots(coeffs_desc)
    except (np.linalg.LinAlgError, OverflowError, ValueError) as exc:
        raise RootFindingError(f"root isolation failed: {exc}") from exc
    if roots.size == 0 or not np.all(np.isfinite(roots)):
        raise RootFindingError("root isolation returned no finite roots")
    residuals = [abs(abs(z) ** 2 - q) for z in roots]
    max_residual = float(max(residuals))
    return EigenvalueCheck(
        passed=max_residual <= tolerance,
        q=q,
        tolerance=tolerance,
        max_residual=max_residual,
        roots=tuple(complex(z) for z in roots),
    )


@functools.lru_cache(maxsize=16)
def periodic_subvariety_map(
    f: LatticeEndomorphism,
    basis: IntegerMatrix,
    translate: TorsionPoint,
    period: int,
) -> LatticeEndomorphism:
    """The map f^period induces on the translate Q + B of an invariant subtorus.

    Recentring at the periodic translate Q kills the affine part, so the
    result is translation free: M' is the restriction of M^period to the
    sublattice spanned by the basis, in basis coordinates.  Its fixed
    points at iterate l are those of f^{period*l} on Q + B, and a table
    over l takes the rows of M' from iterate_determinants.

    Every argument is frozen, so the last 16 restrictions are cached and
    a count per l (periodic_subvariety_count) builds power(f, period) and
    its Smith form once.  A refusal is not cached: it raises again on
    every call.
    """
    if period < 1:
        raise ValueError("period must be >= 1")
    if len(translate) != f.rank:
        raise ValueError("translate length must match the ambient rank")
    f_m = power(f, period)
    image = f_m.value_at(translate.coordinates)
    if image != translate.coordinates:
        raise ValueError("translate is not periodic with the given period")
    recentred = LatticeEndomorphism(f_m.matrix)
    return restrict_to_sublattice(recentred, basis)


def periodic_subvariety_count(
    f: LatticeEndomorphism,
    basis: IntegerMatrix,
    translate: TorsionPoint,
    period: int,
    l: int,
) -> int:
    """Fixed points of f^{period*l} on the translate of an invariant subtorus.

    The count is |det(M'^l - I)| for M' the restriction of M^period to
    the sublattice (periodic_subvariety_map).
    """
    return count_fixed(periodic_subvariety_map(f, basis, translate, period), l)
