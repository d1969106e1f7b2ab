"""Exact fixed-point counting for iterates of lattice-torus endomorphisms.

Ground truth is the determinant count |det(M^l - I)|, valid because
nondegenerate fixed points are simple; an enumeration path (Smith form
congruence solving, then a sorted walk over an echelon basis of the
solution lattice) and a brute-force grid scan provide two independent
cross-checks.  Table rows and large single counts split over the
squarefree factors of charpoly(M) = prod_i a_i^i, as
det(M^l - I) = prod_i D_l(a_i)^i with D_l(a) the product of
alpha^l - 1 over the roots alpha of a, so a repeated eigenvalue is
paid for once; the split of the last few matrices is cached
(_charpoly_split).  A single count takes the determinant by Bareiss on
M^l while M^l's entries stay small, and past a bit bound from each
factor a: charpoly_power(a, l), read at 1.  Counts on a
periodic subvariety always take the second way, from the cached split
of the cached restriction, so a count per l forms no power of the
restricted map.  Growth tables and comparison reports keep every value
exact (big integers and Fractions); a growth ratio count / q^{gl} is
reduced by the part of the count made of q's primes, so no gcd of two
row-sized integers is taken.  Their rows come from
iterate_determinants: D_l(a) is a signed sum of the traces of the
exterior powers of a's companion matrix to the l, each of which obeys
a linear recurrence (the rationality of the dynamical zeta function),
and Bareiss determinants of M^l check the first 2^n rows and the last.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .lattice import (
    LatticeEndomorphism,
    SimpleFactorSpec,
    TorsionPoint,
    power,
    restrict_to_sublattice,
    solve_mod_lattice,
)
from .linalg import (
    IntegerMatrix,
    IntegerPolynomial,
    binary_power,
    charpoly,
    charpoly_power,
    det,
    echelon_basis,
    power_bits,
    power_sum_polynomial,
    power_sums,
    smith_normal_form,
    squarefree_factors,
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


class GrowthRow(NamedTuple):
    """Exact count at iterate l next to the expected size q^{gl}; the
    fields are the printed columns, in order."""

    l: int
    exact_count: int
    asymptote: int
    ratio: Fraction


class ComparisonRow(NamedTuple):
    """Exact count at iterate l against the factor formula; the fields are
    the printed columns, in order, and a degenerate iterate has no count
    and no difference."""

    l: int
    exact_count: int | None
    formula_value: int
    difference: int | None

    @property
    def degenerate(self) -> bool:
        return self.exact_count is None


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


def _checked_iterate(l: int) -> int:
    """l as an int (operator.index, so a float or a string raises
    TypeError), refusing l < 1."""
    l = operator.index(l)
    if l < 1:
        raise ValueError("iterate must be >= 1")
    return l


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
    _determinant_from_charpoly takes the value from the squarefree
    factors a of charpoly(M) (cached, _charpoly_split) and
    charpoly_power(a, l), O(m^2 log l) coefficient products for a of
    degree m, with no power of M formed.  The bound stays for any l,
    because a one-off count on a large matrix must not pay a charpoly: on mult-by-2-g64's 128 x 128
    M at l = 1, charpoly and split take 0.38-0.45 s against 3.5-4 ms
    for Bareiss (2-vCPU, Python 3.11).  Bareiss time
    over the charpoly path's time on seeded random [-3, 3] matrices,
    whose charpolys are squarefree (2-vCPU, Python 3.11, median of 3 to
    7 calls, measured before the split; above 1 the charpoly path is
    faster):

        estimate   n = 2   n = 3   n = 4   n = 6   n = 8   n = 12
        64 bits    0.73    0.87    0.61    0.54    0.70    0.68
        256        0.89    1.04    0.85    0.92    1.35    1.45
        1024       1.13    1.21    1.07    1.41    1.86    2.27
        4096       1.71    1.53    1.29    1.58    1.11    1.74
        16384      4.61    2.17    1.56    2.16    1.83
        65536      9.43    2.51    1.45    3.07    3.61

    A second seed read 0.88 / 1.04 / 2.31 / 1.78 at 1024 bits for
    n = 2 / 4 / 6 / 8.  The scalar and sparse builtins that cross the
    bound early have repeated eigenvalues, which the charpoly path pays
    for once: at l = 1100 / 10^4 (best of 5) the ratio reads 2.6 / 50
    on mult-by-2-g3, 1.9 / 16 on bielliptic-quotient and 1.9 / 15 on
    mult-by-3-g2.

    A table over l = 1..l_max goes through iterate_determinants instead.
    """
    l = _checked_iterate(l)
    m = f.matrix
    if power_bits(m, l) <= _BAREISS_MAX_BITS:
        d = det(m**l - IntegerMatrix.identity(f.rank))
    else:
        d = _determinant_from_charpoly(m, l)
    return nondegenerate_count(l, d)


@functools.lru_cache(maxsize=16)
def _charpoly_split(m: IntegerMatrix) -> tuple[tuple[IntegerPolynomial, int], ...]:
    """The squarefree factors (a_i, i) of charpoly(m) = prod_i a_i^i.

    linalg.squarefree_factors of linalg.charpoly, as a tuple.  m is
    frozen, so the splits of the last 16 matrices are cached: a table, a
    Serre check and the counts of one map take one charpoly between them,
    and a count per l on a periodic subvariety takes one in all.
    """
    return tuple(squarefree_factors(charpoly(m)))


def _determinant_from_charpoly(m: IntegerMatrix, l: int) -> int:
    """det(m^l - I), signed, from the squarefree factors of charpoly(m).

    With charpoly(m) = prod_i a_i^i (_charpoly_split, cached),
    det(m^l - I) = (-1)^n charpoly(m^l)(1) = (-1)^n prod_i c_i(1)^i for
    c_i = charpoly_power(a_i, l), so a repeated eigenvalue is paid for once.
    """
    return (-1) ** m.rows * math.prod(charpoly_power(a, l)(1) ** i for a, i in _charpoly_split(m))


def _factor_rows(a: IntegerPolynomial, l_max: int) -> Iterator[int]:
    """Yield D_l(a) = prod over the roots alpha of the monic a of
    (alpha^l - 1) for l = 1, 2, ..., without end.

    With m = deg a, D_l(a) = sum_k (-1)^(m-k) s_k(l) for the columns
    s_k(l) = e_k(alpha^l) = tr((wedge^k C)^l), C a's companion matrix.
    Column 0 is 1 and column m is ((-1)^m a_0)^l, a running product.
    Column k, 0 < k < m, is power_sums of charpoly(wedge^k C), of degree
    C(m, k), which power_sum_polynomial builds from s_k(1..C(m, k)) by
    Newton's identities, so no exterior matrix is formed.  The seed
    s_k(l) is a signed coefficient of charpoly_power(a, l), whose top
    m - 1 coefficients Newton's identities build here from the power sums
    p_(li), i < m, of one shared walk of a's power_sums (20 seed rows of a
    degree-6 factor: 0.27 ms, against 2.3 ms by charpoly_power).  Only
    min(l_max, C(m, m/2)) seed rows are formed; a column longer than
    l_max is built from its first l_max values, whose power sums agree
    with the column up to l_max.  For m = 1 there is no inner column and
    no seed.
    """
    m = len(a.coefficients) - 1
    orders = [math.comb(m, k) for k in range(1, m)]
    seeded = min(l_max, max(orders, default=0))
    traces = list(itertools.islice(power_sums(a), (m - 1) * seeded)) if m > 1 else []
    # prod_alpha (x - alpha^l) over x, its constant term dropped: the
    # coefficient of x^(m-1-k) is (-1)^k e_k(alpha^l), k < m
    seeds = [
        power_sum_polynomial(traces[l - 1 : (m - 1) * l : l]).coefficients
        for l in range(1, seeded + 1)
    ]
    columns = [
        itertools.repeat(1),
        *(
            power_sums(power_sum_polynomial([(-1) ** k * c[m - 1 - k] for c in seeds[:order]]))
            for k, order in enumerate(orders, 1)
        ),
        itertools.accumulate(itertools.repeat((-1) ** m * a.coefficients[0]), operator.mul),
    ]
    for values in zip(*columns):
        yield sum(values[m::-2]) - sum(values[m - 1 :: -2])


def iterate_determinants(
    f: LatticeEndomorphism, l_max: int
) -> Iterator[tuple[int, int]]:
    """Yield (l, det(M^l - I)) for l = 1..l_max, signed and exact.

    With charpoly(M) = prod_i a_i^i (_charpoly_split, cached),
    det(M^l - I) = prod_i D_l(a_i)^i, and the rows of each D_l(a_i) come
    from power sums, one sequence per exterior power of a_i's companion
    matrix (_factor_rows).  A row so costs sum_i 2^(deg a_i) recurrence
    terms, not 2^n: for charpoly(M) = (x - 2)^6 it is (2^l - 1)^6, one
    running product and one power.  At most one charpoly of M is formed.

    Two paths give every checked row: Bareiss det(P - I) on the walked
    P = M^l, stepped as P <- P M, pins rows 1..min(2^n, l_max), and for
    l_max > 2^n one binary power M^l_max pins row l_max; the walk stops at
    row 2^n.  These checks are taken on M, so they check the split too.
    A mismatch raises AssertionError before that row is yielded.  A zero
    determinant (a degenerate iterate) is yielded like any other; the
    caller decides whether it refuses or flags it.  An l_max < 1 raises
    ValueError("l_max must be >= 1") at the first row.
    """
    if l_max < 1:
        raise ValueError("l_max must be >= 1")
    n = f.rank
    factors = _charpoly_split(f.matrix)
    multiplicities = [i for _, i in factors]
    rows = zip(*(_factor_rows(a, l_max) for a, _ in factors))
    identity = IntegerMatrix.identity(n)
    checked = min(l_max, 2**n)
    m_l = f.matrix
    for l, values in zip(range(1, l_max + 1), rows):
        d = math.prod(map(pow, values, multiplicities))
        if 1 < l <= checked:
            m_l = m_l * f.matrix
        if l <= checked or l == l_max:
            check = m_l if l <= checked else binary_power(f.matrix, l_max, operator.mul)
            if det(check - identity) != d:
                raise AssertionError(f"det(M^{l} - I): the recurrence and Bareiss disagree")
        yield l, d


def _echelon_walk(
    start: Sequence[int], basis: Sequence[Sequence[int]], modulus: int
) -> list[list[int]]:
    """The coset start + span(basis) mod modulus as sorted numerator columns.

    basis is upper triangular with pivots h_i | modulus (linalg.echelon_basis).
    Level i fixes coordinate i: each node o is normalized to
    o - (o_i // h_i) b_i mod modulus, so that o_i < h_i, and then has the
    modulus / h_i children o + j b_i, whose coordinate i rises with j.
    Every column is a list over the nodes of the level, and each step is
    map and itertools over whole columns.
    """
    n = len(start)
    columns = [[s % modulus] for s in start]
    for i, b in enumerate(basis):
        h = b[i]
        if h == modulus:
            continue
        m = modulus // h
        quotients = list(map(operator.floordiv, columns[i], itertools.repeat(h)))
        columns[i] = list(map(h.__rmod__, columns[i]))
        for r in range(i + 1, n):
            if b[r]:
                shifts = map(b[r].__mul__, quotients)
                columns[r] = list(map(modulus.__rmod__, map(operator.sub, columns[r], shifts)))
        for r, step in enumerate(b):
            if not step:
                children = map(itertools.repeat, columns[r], itertools.repeat(m))
            else:
                ends = map(operator.add, columns[r], itertools.repeat(m * step))
                ranges = map(range, columns[r], ends, itertools.repeat(step))
                # coordinate i stays below modulus; the others wrap
                wrap = itertools.repeat(modulus.__rmod__)
                children = ranges if r == i else map(map, wrap, ranges)
            columns[r] = list(itertools.chain.from_iterable(children))
    return columns


def fixed_columns(
    f: LatticeEndomorphism, l: int = 1, budget: int = DEFAULT_BUDGET
) -> tuple[int, list[list[int]]]:
    """Fix(f^l) as integer numerators over one shared denominator N, by column.

    Returns (N, columns): the points are a / N in (1/N)Z^n / Z^n for the
    tuples a = zip(*columns) in [0, N)^n, in lexicographic order, and
    columns[r] lists coordinate r of every point.  M^l and t_l come from
    one call to power, and solve_mod_lattice gives U K V = D and one
    solution x of (M^l - I) x = -t_l.  N is the lcm of the largest d_i
    and the denominator of x, the walk starts at a_0 = N x, and the other
    points differ from it by the lattice L = {a : K a = 0 mod N}, spanned
    by (N / d_i) V[:, i] and N Z^n.

    linalg.echelon_basis turns those generators into an upper-triangular
    basis b_0..b_(n-1) of L with pivots h_i | N, and _echelon_walk runs
    over it: level i fixes coordinate i.  Each node o is first
    normalized, o - (o_i // h_i) b_i mod N, so that o_i < h_i, and then
    has the N / h_i children o + j b_i; their coordinate i, o_i + j h_i,
    rises with j, so every column comes out sorted and no point is
    sorted or made a tuple.  A level with h_i = N has one child per node
    and is skipped.  Each level is a few passes of map and itertools over
    its nodes, so no interpreted loop runs per point.

    The point count |det(M^l - I)| is known before any point is built:
    past the budget the call raises BudgetExceededError right after that
    determinant, before the Smith form and the walk.  The basis must have
    prod N / h_i equal to that count before the walk starts, and the walk
    must produce exactly that many points (the Smith divisors multiply
    to the Bareiss determinant); anything else raises AssertionError.
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
    snf, x = solve_mod_lattice(k, [-c for c in f_l.translation])
    divisors = snf.elementary_divisors
    common = math.lcm(divisors[-1], *(c.denominator for c in x))
    start = [c.numerator * (common // c.denominator) for c in x]
    axes = snf.V.transpose().to_lists()
    basis = echelon_basis(
        [[common // d * v for v in axis] for d, axis in zip(divisors, axes)], common
    )
    index = math.prod(common // b[i] for i, b in enumerate(basis))
    if index != count:
        raise AssertionError(f"echelon basis of index {index} but |det(M^{l} - I)| = {count}")
    columns = _echelon_walk(start, basis, common)
    if len(columns[0]) != count:
        raise AssertionError(
            f"{len(columns[0])} grid points but |det(M^{l} - I)| = {count}"
        )
    return common, columns


def enumerate_fixed(
    f: LatticeEndomorphism, l: int = 1, budget: int = DEFAULT_BUDGET
) -> list[TorsionPoint]:
    """All fixed points of f^l, as canonical torsion points, sorted.

    The points come from fixed_columns as sorted columns of integer
    numerators over a shared denominator N; they become TorsionPoints only
    here, through TorsionPoint.from_grid, which checks each distinct
    numerator once, makes one Fraction for it and builds the points column
    by column.  More than budget points are refused with
    BudgetExceededError before any is built, as in fixed_columns.
    """
    return TorsionPoint.from_grid(*fixed_columns(f, l, budget))


def _half_residues(
    k: IntegerMatrix, columns: range, start: Sequence[int], grid: int
) -> list[list[int]]:
    """Row i of start + K[:, columns] a mod grid, one list per row, over the
    grid^len(columns) vectors a in [0, grid)^len(columns), the last
    coordinate varying fastest."""
    sums = [[s % grid] for s in start]
    for j in columns:
        for i, row in enumerate(sums):
            multiples = [k[i, j] * a % grid for a in range(grid)]
            sums[i] = [(p + m) % grid for p in row for m in multiples]
    return sums


def brute_force_count(
    f: LatticeEndomorphism, l: int = 1, budget: int = DEFAULT_BUDGET
) -> int:
    """Independent oracle: exhaustively count the (1/G)-grid points of Fix(f^l).

    The kernel of K = M^l - I lies in (1/D)Z^n / Z^n for D the largest
    elementary divisor; with a translation of denominator r every solution
    lies on the grid of side G = D r.  Only the divisors are taken from
    the Smith form, never its transforms, so the scan stays independent
    of fixed_columns; their product |det(K)| refuses a degenerate iterate as
    count_fixed does, with no Bareiss determinant.  A grid point a / G is
    fixed when K a + G t = 0 mod G.  The scan meets in the middle: with
    h = n // 2, the residues of K[:, :h] a + G t over the G^h first halves
    a_0..a_(h-1) are built one coordinate at a time, as one list of
    residues per row of K, and each first half zipped from those lists is
    matched against a Counter of the residues -K[:, h:] a over the
    G^(n-h) second halves a_h..a_(n-1), so every one of the G^n grid
    points is accounted for in O(n G^ceil(n/2)) work and memory.  The
    match is dict.get with a default of 0, so a first half that no second
    half completes costs no call to Counter.__missing__.  Refuses (never
    truncates) past the budget, which counts the G^n grid points.
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
    h = n // 2
    first = _half_residues(k, range(h), [int(grid * c) for c in t_l], grid)
    second = Counter(zip(*_half_residues(-k, range(h, n), [0] * n, grid)))
    return sum(map(second.get, zip(*first), itertools.repeat(0)))


def growth_row(l: int, count: int, q: int, asymptote: int) -> GrowthRow:
    """The row (l, count, asymptote, count / asymptote) for an asymptote
    that is a power of q > 1, and a count > 0.

    gcd(count, q^k) divides the part of the count made of q's primes.
    That part comes from repeated gcds with q, then with what is left of
    the last gcd, each against one small operand, so a one-limb reduction
    of the count; only that part, when it is not 1, meets the asymptote
    in a gcd.  The reduced pair is coprime with a positive denominator,
    so the ratio is built as a normalized Fraction directly, with no gcd
    of its own (as Fraction._from_coprime_ints does on Python 3.12).
    """
    part, rest = 1, count
    shared = math.gcd(rest, q)
    while shared > 1:
        part *= shared
        rest //= shared
        shared = math.gcd(rest, shared)
    numerator, denominator = count, asymptote
    if part > 1:
        common = math.gcd(asymptote, part)
        numerator, denominator = count // common, asymptote // common
    ratio = object.__new__(Fraction)
    ratio._numerator, ratio._denominator = numerator, denominator
    return GrowthRow(l, count, asymptote, ratio)


def growth_table(
    f: LatticeEndomorphism, q: int, g: int, l_max: int
) -> list[GrowthRow]:
    """Exact counts for l = 1..l_max against the q^{gl} asymptote.

    The rows come from iterate_determinants' exterior-power recurrences,
    checked against Bareiss determinants, and each ratio is reduced by
    growth_row without a gcd of two row-sized integers.  The first
    degenerate iterate (det(M^l - I) = 0) raises DegenerateFixedLocusError,
    as count_fixed would at that l.
    """
    check_multiplier(q)
    rows = []
    step = q**g
    asymptote = 1
    for l, d in iterate_determinants(f, l_max):
        asymptote *= step
        rows.append(growth_row(l, nondegenerate_count(l, d), q, asymptote))
    return rows


def factor_product_formula(factors: Sequence[SimpleFactorSpec], l: int) -> int:
    """Product over simple factors of (q_i^l - 1)^{g_i}, with multiplicity.

    l is taken through _checked_iterate, as in count_fixed.
    """
    l = _checked_iterate(l)
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
            rows.append(ComparisonRow(l, None, formula, None))
            continue
        exact = abs(d)
        rows.append(ComparisonRow(l, exact, formula, exact - formula))
    return ComparisonReport(formula_label=label, rows=tuple(rows))


def eigenvalue_magnitude_check(
    f: LatticeEndomorphism, q: int, tolerance: float = 1e-9
) -> EigenvalueCheck:
    """Check that every root of charpoly(M) satisfies |lambda|^2 = q.

    Roots are isolated numerically on the square-free part of the
    characteristic polynomial, the product of its squarefree factors, so
    that repeated eigenvalues do not wreck the root finder's accuracy;
    the achieved residual is reported either way.  The tolerance must be
    finite and >= 0: an infinite one would pass every map.
    """
    check_multiplier(q)
    if not (math.isfinite(tolerance) and tolerance >= 0):
        raise ValueError("tolerance must be finite and >= 0")
    reduced = functools.reduce(operator.mul, (a for a, _ in _charpoly_split(f.matrix)))
    try:
        coeffs_desc = [float(c) for c in reversed(reduced.coefficients)]
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
    if f_m.value_at(translate) != translate:
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
    the sublattice (periodic_subvariety_map), taken from the cached
    squarefree split of charpoly(M') (_charpoly_split) and x^l mod each
    factor, so no power of M' is formed and a count per l pays the
    restriction and the charpoly once.  l is taken as an integer
    (operator.index) after the restriction is built; l < 1 is refused as
    count_fixed refuses it, and so is a degenerate iterate.
    """
    restricted = periodic_subvariety_map(f, basis, translate, period)
    l = _checked_iterate(l)
    return nondegenerate_count(l, _determinant_from_charpoly(restricted.matrix, l))
