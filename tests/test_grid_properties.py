"""Properties of the integer-grid point sets on seeded random maps.

Maps are M = I + R diag(d) R' with R, R' random unimodular, so that
det(M - I) = +-prod(d) is known by construction, plus a translation of a
random denominator.  Enumeration, the determinant count, the brute-force
grid scan and the per-point scan of tests/oracles.py must agree, and the
orbit classes must match the Fraction oracle.  The sorted echelon walk
behind fixed_columns and enumerate_fixed must give exactly the points of
the Smith-axis walk of tests/oracles.py, on those maps, on product
groups (V = I) and on cyclic groups over a large denominator.  The exterior-power
recurrences behind the growth and compare tables must match det(M**l - I)
row by row, past the rows their Bareiss check covers, also
on maps with a finite-order block, whose iterates are degenerate
whenever the order divides l.  The verdict of the torus solver on
A x = t (mod Z^n) must be certified by the data it returns, on such
degenerate iterates and on tall saturated bases.
"""

import itertools
import math
import operator
import random
import re
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from torusdyn import (
    BudgetExceededError,
    DegenerateFixedLocusError,
    GroupAction,
    IntegerMatrix,
    LatticeEndomorphism,
    SimpleFactorSpec,
    TorsionPoint,
    brute_force_count,
    compare_exact,
    complementary_isogeny,
    compose,
    count_fixed,
    det,
    enumerate_fixed,
    growth_table,
    iterate_determinants,
    lift_compatibility,
    orbit_partition,
    quotient_fixed_lower_bound,
    resolve_scenario,
    smith_normal_form,
    solve_mod_lattice,
    validate_action,
)
from torusdyn import fixpoint
from torusdyn.linalg import echelon_basis
from torusdyn.scenarios import BUILTINS

from oracles import (
    brute_force_scan,
    fixed_grid_smith_walk,
    orbit_partition_fractions,
    random_matrix,
    random_unimodular,
)

PROPERTIES = settings(max_examples=30, deadline=None, derandomize=True, database=None)

# diagonal entries and translation denominators keep the oracle scan small:
# grid side at most lcm(4, 5) * 6 at rank 2, lcm(2, 3) * 2 at rank 4 and
# 2 * 2 at rank 6
DIAGONAL = {
    2: [-5, -4, -3, -2, -1, 1, 2, 3, 4, 5],
    4: [-3, -2, -1, 1, 2, 3],
    6: [-2, -1, 1, 2],
}
MAX_DENOMINATOR = {2: 6, 4: 2, 6: 2}

seeds = st.integers(0, 2**32 - 1)


@st.composite
def fixed_point_maps(draw, rank: int) -> LatticeEndomorphism:
    rng = random.Random(draw(seeds))
    d = draw(st.lists(st.sampled_from(DIAGONAL[rank]), min_size=rank, max_size=rank))
    k = random_unimodular(rng, rank) * IntegerMatrix.diagonal(d) * random_unimodular(rng, rank)
    denominator = draw(st.integers(1, MAX_DENOMINATOR[rank]))
    translation = draw(
        st.lists(st.integers(0, denominator - 1), min_size=rank, max_size=rank)
    )
    return LatticeEndomorphism(
        IntegerMatrix.identity(rank) + k,
        tuple(Fraction(a, denominator) for a in translation),
    )


any_rank_maps = st.sampled_from([2, 4]).flatmap(fixed_point_maps)


# 2x2 integer blocks of order 1, 2, 3, 4 and 6
FINITE_ORDER_BLOCKS = [
    [[1, 0], [0, 1]],
    [[-1, 0], [0, -1]],
    [[0, -1], [1, -1]],
    [[0, -1], [1, 0]],
    [[1, -1], [1, 0]],
]


@st.composite
def maps_with_finite_order_block(draw) -> LatticeEndomorphism:
    """P diag(M, B) P^-1 for a random map M, a finite-order block B and a
    random unimodular P, so the degenerate iterates are not block diagonal."""
    f = draw(any_rank_maps)
    block = IntegerMatrix.from_rows(draw(st.sampled_from(FINITE_ORDER_BLOCKS)))
    matrix = IntegerMatrix.block_diagonal([f.matrix, block])
    p = random_unimodular(random.Random(draw(seeds)), matrix.rows)
    p_inv = complementary_isogeny(LatticeEndomorphism(p))[0].matrix
    return LatticeEndomorphism(p * matrix * p_inv, f.translation + (0, 0))


iterate_maps = st.one_of(any_rank_maps, maps_with_finite_order_block())
# half of the tables run past the 2^n rows that iterate_determinants
# checks against Bareiss
iterate_cases = iterate_maps.flatmap(
    lambda f: st.tuples(
        st.just(f),
        st.integers(1, 2**f.rank + 20) | st.integers(2**f.rank + 1, 2**f.rank + 20),
    )
)


def power_determinants(f: LatticeEndomorphism, l_max: int) -> list[int]:
    """det(M**l - I) for l = 1..l_max, each from its own binary power."""
    identity = IntegerMatrix.identity(f.rank)
    return [det(f.matrix**l - identity) for l in range(1, l_max + 1)]


def test_recurrence_matches_binary_powers():
    ranks_past, degenerate_past = set(), set()

    @PROPERTIES
    @given(iterate_cases)
    def check(case):
        f, l_max = case
        dets = power_determinants(f, l_max)
        assert list(iterate_determinants(f, l_max)) == list(enumerate(dets, start=1))
        if l_max > 2**f.rank:
            ranks_past.add(f.rank)
            degenerate_past.add(0 in dets[2**f.rank :])

    check()
    # rows past the Bareiss-checked range, degenerate ones among them, at every rank
    assert ranks_past == {2, 4, 6}
    assert True in degenerate_past


@PROPERTIES
@given(iterate_cases)
def test_growth_table_refuses_first_degenerate_iterate(case):
    f, l_max = case
    dets = power_determinants(f, l_max)
    if 0 not in dets:
        rows = growth_table(f, 2, 1, l_max)
        assert [r.exact_count for r in rows] == [abs(d) for d in dets]
        return
    first = dets.index(0) + 1
    with pytest.raises(DegenerateFixedLocusError, match=re.escape(f"det(M^{first} - I) = 0")):
        growth_table(f, 2, 1, l_max)


@PROPERTIES
@given(iterate_cases)
def test_compare_flags_exactly_the_degenerate_rows(case):
    f, l_max = case
    dets = power_determinants(f, l_max)
    report = compare_exact(f, [SimpleFactorSpec(1, 2)], l_max)
    assert [r.degenerate for r in report.rows] == [d == 0 for d in dets]
    assert [r.exact_count for r in report.rows] == [abs(d) or None for d in dets]


@st.composite
def congruence_systems(draw) -> tuple[IntegerMatrix, tuple[Fraction, ...]]:
    """(A, t) with t drawn on its own, A either K = M^l - I at an iterate
    that the finite-order block's order divides (12 is the lcm of the
    orders), or the first k columns of a random unimodular matrix."""
    if draw(st.booleans()):
        f = draw(maps_with_finite_order_block())
        a = f.matrix ** draw(st.sampled_from([12, 24])) - IntegerMatrix.identity(f.rank)
    else:
        n = draw(st.sampled_from([2, 4, 6]))
        k = draw(st.integers(1, n))
        u = random_unimodular(random.Random(draw(seeds)), n)
        a = IntegerMatrix.from_rows([row[:k] for row in u.to_lists()])
    denominator = draw(st.integers(1, 6))
    numerators = draw(st.lists(st.integers(-12, 12), min_size=a.rows, max_size=a.rows))
    return a, tuple(Fraction(v, denominator) for v in numerators)


def test_solver_verdict_is_certified_by_its_output():
    verdicts = set()

    @PROPERTIES
    @given(congruence_systems())
    def check(system):
        a, t = system
        snf, b, solvable = solve_mod_lattice(a, t)
        verdicts.add(solvable)
        divisors = snf.elementary_divisors
        if solvable:
            # y_i = b_i / d_i on the nonzero divisors, 0 elsewhere
            y = [c / d if d else Fraction(0) for d, c in zip(divisors, b)]
            x = snf.V.apply(y)
            assert all((v - c).denominator == 1 for v, c in zip(a.apply(x), t))
            return
        # a zero row of D (a zero divisor, or past the last one) with b_i
        # not integral; that row w of U has w A = 0 and w t not integral
        i = next(
            i
            for i, c in enumerate(b)
            if (i >= len(divisors) or divisors[i] == 0) and c.denominator != 1
        )
        w = snf.U.row(i)
        assert not any(a.transpose().apply(w))
        assert sum(map(operator.mul, w, t)).denominator != 1

    check()
    assert verdicts == {True, False}


@pytest.mark.parametrize(
    "rank, l_max, seed",
    [
        (8, 5, 1),
        (8, 80, 2),  # past the C(8, 4) = 70 seed rows, below 2^8 = 256
        (16, 3, 3),  # C(16, 8) = 12,870 seed rows if l_max did not bound them
    ],
)
def test_tables_at_ranks_8_and_16(monkeypatch, rank, l_max, seed):
    f = LatticeEndomorphism(random_matrix(random.Random(seed), rank))
    seeded = min(l_max, math.comb(rank, rank // 2))
    polynomials = []
    power_sum_polynomial, power_sums = fixpoint.power_sum_polynomial, fixpoint.power_sums

    def counted(sums):
        polynomials.append(len(sums))
        return power_sum_polynomial(sums)

    def bounded(p):
        # the longest sequence drawn is tr(M^j), j <= n * seeded; an unbounded
        # seed phase fails here at once instead of running for minutes
        for j, s in enumerate(power_sums(p), 1):
            assert j <= rank * seeded, "more traces than the seed rows need"
            yield s

    monkeypatch.setattr(fixpoint, "power_sum_polynomial", counted)
    monkeypatch.setattr(fixpoint, "power_sums", bounded)
    dets = power_determinants(f, l_max)
    assert list(iterate_determinants(f, l_max)) == list(enumerate(dets, start=1))
    # charpoly(M) is squarefree, one factor of degree n: the top n - 1
    # coefficients of charpoly(M^l) for each seed row, then one polynomial
    # per column k = 1..n-1 from its first min(l_max, C(n, k)) values; the
    # columns k = 0 and k = n are closed forms
    assert polynomials == [rank - 1] * seeded + [
        min(l_max, math.comb(rank, k)) for k in range(1, rank)
    ]


def count_calls(monkeypatch, *names) -> Counter:
    """Count the calls of the named IntegerMatrix methods from now on."""
    calls = Counter()
    for name in names:
        original = getattr(IntegerMatrix, name)

        def counted(*args, name=name, original=original):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(IntegerMatrix, name, counted)
    return calls


def test_growth_table_takes_one_product_per_row(monkeypatch):
    gaussian = resolve_scenario("gaussian-cm").endomorphism
    calls = count_calls(monkeypatch, "__mul__", "__pow__")
    assert len(growth_table(gaussian, 2, 1, 200)) == 200
    assert calls["__pow__"] == 0
    # 3 walked rows, 1 in charpoly(M) and 9 in the binary power M^200
    assert calls["__mul__"] == 3 + 1 + 9


@pytest.mark.parametrize(
    "table",
    [
        lambda f: growth_table(f, 2, 3, 10),
        lambda f: compare_exact(f, [SimpleFactorSpec(3, 2)], 10).rows,
    ],
    ids=["growth_table", "compare_exact"],
)
def test_rank6_table_products(monkeypatch, table):
    f = resolve_scenario("mult-by-2-g3").endomorphism
    calls = count_calls(monkeypatch, "__mul__")
    assert len(table(f)) == 10
    # 9 walked rows and 3 inside charpoly(M); no charpoly of any M^l
    assert calls["__mul__"] == 9 + 3


def counted_dets(monkeypatch, perturb=None):
    """Count the Bareiss calls of the tables; perturb adds 1 to that call's value."""
    calls = []

    def counted(m):
        calls.append(m)
        return det(m) + (len(calls) == perturb)

    monkeypatch.setattr(fixpoint, "det", counted)
    return calls


def test_growth_table_takes_a_det_per_checked_row(monkeypatch):
    # rank 2: Bareiss on rows 1..2^2 and once on M^2000
    gaussian = resolve_scenario("gaussian-cm").endomorphism
    calls = counted_dets(monkeypatch)
    assert len(growth_table(gaussian, 2, 1, 2000)) == 2000
    assert len(calls) == 4 + 1


@pytest.mark.parametrize(
    "name, l_max, perturb",
    [
        ("gaussian-cm", 2000, 1),  # a seeded row
        ("gaussian-cm", 2000, 4),  # the last walker row, past the seeds
        ("gaussian-cm", 2000, 5),  # the binary power at l_max
        ("mult-by-2-g2", 16, 16),  # l_max = 2^n, checked by the walker
    ],
)
def test_perturbed_bareiss_value_raises(monkeypatch, name, l_max, perturb):
    f = resolve_scenario(name).endomorphism
    counted_dets(monkeypatch, perturb)
    with pytest.raises(AssertionError, match="recurrence and Bareiss disagree"):
        growth_table(f, 2, 1, l_max)


def free_cyclic_action(
    rng: random.Random, linear: IntegerMatrix, shift: list[Fraction], order: int
) -> GroupAction:
    """The powers of P g P^-1 for g(x) = linear x + shift, P random unimodular."""
    rank = linear.rows
    p = random_unimodular(rng, rank)
    p_inv = complementary_isogeny(LatticeEndomorphism(p))[0].matrix
    generator = LatticeEndomorphism(p * linear * p_inv, p.apply(shift))
    elements = [LatticeEndomorphism.identity(rank // 2)]
    for _ in range(order - 1):
        elements.append(compose(generator, elements[-1]))
    return GroupAction(tuple(elements))


def free_actions(rng: random.Random, rank: int) -> list[GroupAction]:
    """Free actions of Z/2 and, at rank 4, Z/4: x_1 moves by 1/order while
    the other coordinates are flipped or rotated."""
    zero = [Fraction(0)] * (rank - 1)
    flip = IntegerMatrix.diagonal([1] * (rank // 2) + [-1] * (rank // 2))
    actions = [free_cyclic_action(rng, flip, [Fraction(1, 2)] + zero, 2)]
    if rank == 4:
        rotate = IntegerMatrix.from_rows(
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]]
        )
        actions.append(free_cyclic_action(rng, rotate, [Fraction(1, 4)] + zero, 4))
    return actions


def as_sets(classes) -> set[frozenset]:
    return {frozenset(p.coordinates for p in cls) for cls in classes}


# grid points the per-point oracle scan may visit at l = 2
SCAN_BUDGET = 10**5


# rank 4 and 6 grids pass the budget at l = 2 on most draws, so this
# property draws more examples than the others
@settings(PROPERTIES, max_examples=100)
@given(st.sampled_from([2, 4, 6]).flatmap(fixed_point_maps), st.sampled_from([1, 2]))
def test_four_counts_agree(f, l):
    # at l = 2 the scans read power's rational translation M t + t
    try:
        count = count_fixed(f, l)
        scanned = brute_force_scan(f, l, budget=SCAN_BUDGET)
    except (DegenerateFixedLocusError, BudgetExceededError):
        # only det(M^2 - I) may vanish, and only its grid pass the budget
        assert l == 2
        assume(False)
    points = enumerate_fixed(f, l)
    assert len(points) == count == brute_force_count(f, l, SCAN_BUDGET) == scanned


@PROPERTIES
@given(any_rank_maps)
def test_enumerated_points_are_fixed_and_distinct(f):
    points = enumerate_fixed(f, 1)
    assert all(a.coordinates < b.coordinates for a, b in zip(points, points[1:]))
    for p in points:
        image = f.matrix.apply(p.coordinates)
        for x, y, t in zip(p.coordinates, image, f.translation):
            assert (y + t - x).denominator == 1


@st.composite
def product_group_maps(draw) -> LatticeEndomorphism:
    """M = I + diag(d_1, d_1 d_2, ...): K = M - I is its own Smith form, so
    V = I and Fix(f) is a product of cyclic groups, moved by a translation."""
    rank = draw(st.sampled_from([2, 4]))
    factors = draw(st.lists(st.integers(1, {2: 6, 4: 2}[rank]), min_size=rank, max_size=rank))
    k = IntegerMatrix.diagonal(list(itertools.accumulate(factors, operator.mul)))
    denominator = draw(st.integers(1, 4))
    translation = draw(st.lists(st.integers(0, denominator - 1), min_size=rank, max_size=rank))
    return LatticeEndomorphism(
        IntegerMatrix.identity(rank) + k,
        tuple(Fraction(a, denominator) for a in translation),
    )


@st.composite
def cyclic_group_maps(draw) -> LatticeEndomorphism:
    """M = I + R diag(1, ..., 1, d) R': Fix(f) is cyclic of order |d|, and a
    translation of denominator up to 5000 puts it over an N up to |d| 5000."""
    rank = draw(st.sampled_from([2, 4, 6]))
    rng = random.Random(draw(seeds))
    d = draw(st.integers(1, 200)) * draw(st.sampled_from([1, -1]))
    k = (
        random_unimodular(rng, rank)
        * IntegerMatrix.diagonal([1] * (rank - 1) + [d])
        * random_unimodular(rng, rank)
    )
    denominator = draw(st.integers(1, 5000))
    translation = draw(st.lists(st.integers(0, denominator - 1), min_size=rank, max_size=rank))
    return LatticeEndomorphism(
        IntegerMatrix.identity(rank) + k,
        tuple(Fraction(a, denominator) for a in translation),
    )


def assert_walk_matches_oracle(f: LatticeEndomorphism, l: int = 1) -> int:
    """fixed_columns and enumerate_fixed against the Smith-axis walk; returns N."""
    common, grid = fixed_grid_smith_walk(f, l)
    n, columns = fixpoint.fixed_columns(f, l)
    assert (n, list(zip(*columns))) == (common, grid)
    assert enumerate_fixed(f, l) == [
        TorsionPoint(tuple(Fraction(v, common) for v in a)) for a in grid
    ]
    return common


@PROPERTIES
@given(st.sampled_from([2, 4, 6]).flatmap(fixed_point_maps))
def test_walk_matches_smith_axis_oracle(f):
    assert_walk_matches_oracle(f)


@PROPERTIES
@given(product_group_maps())
def test_walk_matches_oracle_on_product_groups(f):
    k = f.matrix - IntegerMatrix.identity(f.rank)
    assert smith_normal_form(k).V == IntegerMatrix.identity(f.rank)
    assert_walk_matches_oracle(f)


def test_walk_matches_oracle_on_cyclic_groups():
    denominators = []

    @PROPERTIES
    @given(cyclic_group_maps())
    def check(f):
        denominators.append(assert_walk_matches_oracle(f))

    check()
    # some fixed groups sit over an N far above their order
    assert max(denominators) > 10**5


def builtin_walk_cases() -> list[tuple[str, int]]:
    """(name, l), l <= 3, for each builtin iterate with 1 to 10^4 fixed points."""
    cases = []
    for name, l in itertools.product(["mult-by-2", *BUILTINS], [1, 2, 3]):
        m = resolve_scenario(name).endomorphism.matrix
        if 0 < abs(det(m**l - IntegerMatrix.identity(m.rows))) <= 10**4:
            cases.append((name, l))
    return cases


@pytest.mark.parametrize("name, l", builtin_walk_cases())
def test_walk_matches_oracle_on_builtins(name, l):
    assert_walk_matches_oracle(resolve_scenario(name).endomorphism, l)


@PROPERTIES
@given(st.sampled_from([2, 4, 6]).flatmap(fixed_point_maps) | cyclic_group_maps())
def test_echelon_basis_of_the_solution_lattice(f):
    """The basis fixed_columns walks: upper triangular, pivots h_i | N and
    prod N / h_i = |det(M - I)|."""
    k = f.matrix - IntegerMatrix.identity(f.rank)
    snf, rhs, _ = solve_mod_lattice(k, [-c for c in f.translation])
    divisors = snf.elementary_divisors
    common = math.lcm(*(d * b.denominator for d, b in zip(divisors, rhs)))
    axes = snf.V.transpose().to_lists()
    basis = echelon_basis([[common // d * v for v in a] for d, a in zip(divisors, axes)], common)
    for i, b in enumerate(basis):
        assert not any(b[:i])
        assert common % b[i] == 0
    assert math.prod(common // b[i] for i, b in enumerate(basis)) == abs(det(k))


def orbit_union(rng: random.Random, action: GroupAction, count: int) -> list[TorsionPoint]:
    """A G-stable set: the orbits of a few random points of the (1/12)-grid."""
    points = set()
    for _ in range(count):
        p = tuple(Fraction(rng.randrange(12), 12) for _ in range(action.rank))
        points.update(g.value_at(p) for g in action.elements)
    return [TorsionPoint(p) for p in sorted(points)]


# the Fraction oracle takes ~0.1 ms per image, so fewer and smaller cases
ORBIT_PROPERTIES = settings(PROPERTIES, max_examples=15)


@ORBIT_PROPERTIES
@given(st.sampled_from([2, 4]).flatmap(lambda n: st.tuples(fixed_point_maps(n), seeds)))
def test_orbit_partition_matches_fraction_oracle(case):
    f, seed = case
    rng = random.Random(seed)
    actions = free_actions(rng, f.rank)
    if f.rank == 4:
        actions.append(resolve_scenario("bielliptic-quotient").action)
    fixed = enumerate_fixed(f, 1)
    third_grid = [
        TorsionPoint(tuple(Fraction(a, 3) for a in p))
        for p in itertools.product(range(3), repeat=f.rank)
    ]
    for action in actions:
        assert validate_action(action).free
        # a fixed set of f is not G-stable in general, the random halves of
        # stable sets are not either, and every image leaves the (1/3)-grid
        for points in (fixed, orbit_union(rng, action, 6), third_grid):
            half = [p for p in points if rng.random() < 0.5]
            for chosen in (points, half):
                expected = as_sets(orbit_partition_fractions(chosen, action))
                assert as_sets(orbit_partition(chosen, action)) == expected


def as_lists(classes) -> list[list[tuple]]:
    return [[p.coordinates for p in cls] for cls in classes]


def repeated_point() -> list[TorsionPoint]:
    """Two related points, the first of them three times."""
    a = TorsionPoint((Fraction(1, 2), Fraction(0), Fraction(1, 3), Fraction(0)))
    b = TorsionPoint((Fraction(0), Fraction(0), Fraction(2, 3), Fraction(0)))
    return [a, a, b, a]


def bielliptic_half() -> list[TorsionPoint]:
    """Every other point of the bielliptic fixed set at l = 2: not G-stable."""
    return enumerate_fixed(resolve_scenario("bielliptic-quotient").endomorphism, 2)[::2]


@pytest.mark.parametrize(
    "points",
    [list, repeated_point, bielliptic_half],
    ids=["empty", "repeated-point", "bielliptic-half"],
)
def test_orbit_classes_and_seed_order_match_fraction_oracle(points):
    # same classes, in the same order and each in the same order, as the
    # oracle's popitem walk, duplicated points and non-G-stable sets included
    points = points()
    action = resolve_scenario("bielliptic-quotient").action
    expected = as_lists(orbit_partition_fractions(points, action))
    assert as_lists(orbit_partition(points, action)) == expected


@ORBIT_PROPERTIES
@given(seeds, st.sampled_from([2, 4]), st.sampled_from([-3, 5]), st.integers(1, 2))
def test_quotient_orbit_count_matches_fraction_oracle(seed, rank, m, l):
    # [m] with m = 1 mod 4 commutes with elements whose translation is 4-torsion
    f = LatticeEndomorphism.multiplication_by(m, rank // 2)
    assume(count_fixed(f, l) <= 600)
    points = enumerate_fixed(f, l)
    for action in free_actions(random.Random(seed), rank):
        bound = quotient_fixed_lower_bound(f, action, m * m, l)
        assert bound.orbit_count == len(orbit_partition_fractions(points, action))


def two_torsion_translations() -> GroupAction:
    """The four translations by 2-torsion points of R^2 / Z^2."""
    return GroupAction(tuple(
        LatticeEndomorphism(IntegerMatrix.identity(2), (Fraction(a, 2), Fraction(b, 2)))
        for a in range(2)
        for b in range(2)
    ))


@pytest.mark.parametrize(
    "rows, lift",
    [
        ([[1, 1], [1, 0]], (0, 2, 3, 1)),  # the non-identity elements in a 3-cycle
        ([[2, 0], [0, 2]], (0, 0, 0, 0)),  # every element to the identity
        ([[3, 1], [1, 1]], (0, 3, 3, 0)),  # neither injective nor constant
    ],
    ids=["3-cycle", "to-identity", "mixed"],
)
def test_orbit_count_follows_a_non_identity_lift(rows, lift):
    # f (x + s) = f(x) + M s, so f descends with lift map s -> M s mod Z^2
    f = LatticeEndomorphism(IntegerMatrix.from_rows(rows), (Fraction(1, 3), Fraction(0)))
    action = two_torsion_translations()
    assert lift_compatibility(f, action).permutation == lift
    for l in range(1, 7):
        bound = quotient_fixed_lower_bound(f, action, 2, l)
        expected = len(orbit_partition_fractions(enumerate_fixed(f, l), action))
        assert bound.orbit_count == expected, l


@pytest.mark.parametrize("bad", [Fraction(-1, 2), Fraction(3, 2), Fraction(1)])
def test_torsion_point_rejects_non_canonical_coordinates(bad):
    with pytest.raises(ValueError, match=r"\[0,1\)"):
        TorsionPoint((Fraction(0), bad))
