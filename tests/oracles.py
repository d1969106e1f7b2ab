"""Independent reference implementations used only by the tests.

Deliberately naive: schoolbook matrix products, cofactor determinants
and adjugates, the Sylvester test by one cofactor determinant per leading
minor, the Bareiss row exchanges and pivots by cofactor minors,
principal-minor sums, the Faddeev-LeVerrier characteristic polynomial,
the Pfaffian by expansion along the first row, the complementary isogeny
from the Smith form, a per-point grid scan, the fixed set walked over the
Smith axes and sorted, a Fraction orbit partition, and elementary random
matrix generators.  None of these share code with the package paths they
check, apart from the Smith form that the fixed-set walk and the Smith
complementary isogeny take from smith_normal_form.  Two helpers only build
test inputs and read test outputs: multiplication_by and parse_csv.  The
package imports nothing from here.
"""

from __future__ import annotations

import itertools
import random

from torusdyn import IntegerMatrix


def product_schoolbook(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    """a b by the triple loop, one multiply-add per index triple."""
    out = [[0] * len(b[0]) for _ in a]
    for i, row in enumerate(a):
        for k, x in enumerate(row):
            for j, y in enumerate(b[k]):
                out[i][j] += x * y
    return out


def det_cofactor(rows: list[list[int]]) -> int:
    """Cofactor expansion along the first row."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [[row[c] for c in range(n) if c != j] for row in rows[1:]]
        sign = 1 if j % 2 == 0 else -1
        total += sign * rows[0][j] * det_cofactor(minor)
    return total


def adjugate_cofactor(rows: list[list[int]]) -> list[list[int]]:
    """adj(m)[i][j] = (-1)^(i+j) det(m without row j and column i)."""
    n = len(rows)
    if n == 1:
        return [[1]]
    return [
        [
            (-1) ** (i + j)
            * det_cofactor(
                [[r[c] for c in range(n) if c != i] for k, r in enumerate(rows) if k != j]
            )
            for j in range(n)
        ]
        for i in range(n)
    ]


def exchanged_leading_minors(rows: list[list[int]]) -> tuple[list[int], int]:
    """The pivots and row exchanges of a Bareiss elimination, by cofactor minors.

    At step k the entry Bareiss meets in row i >= k, column k is the minor
    on rows 0..k-1, i and columns 0..k (Sylvester's identity), so row k is
    exchanged with the first row i >= k whose minor is nonzero and the
    pivot is the (k+1)-th leading principal minor of the exchanged rows.
    With no such row the minors end with 0.
    """
    rows = [list(r) for r in rows]
    n = len(rows)
    minors, exchanges = [], 0
    for k in range(n):
        def minor(i: int) -> int:
            return det_cofactor([r[: k + 1] for r in rows[:k] + [rows[i]]])

        i = next((i for i in range(k, n) if minor(i)), None)
        if i is None:
            minors.append(0)
            break
        if i != k:
            rows[k], rows[i] = rows[i], rows[k]
            exchanges += 1
        minors.append(minor(k))
    return minors, exchanges


def leading_minors_positive(rows: list[list[int]]) -> bool:
    """Sylvester's criterion: every leading principal minor is > 0."""
    return all(
        det_cofactor([row[:k] for row in rows[:k]]) > 0 for k in range(1, len(rows) + 1)
    )


def principal_minor_trace(rows: list[list[int]], k: int) -> int:
    """tr(wedge^k m) = sum of the k x k principal minors."""
    n = len(rows)
    if k == 0:
        return 1
    total = 0
    for subset in itertools.combinations(range(n), k):
        minor = [[rows[i][j] for j in subset] for i in subset]
        total += det_cofactor(minor)
    return total


def charpoly_faddeev(m: IntegerMatrix) -> tuple[int, ...]:
    """Coefficients of det(xI - m), ascending, by Faddeev-LeVerrier.

    One schoolbook product per coefficient: with M_0 = I,
    c_(n-k) = -tr(m M_(k-1)) / k and M_k = m M_(k-1) + c_(n-k) I.
    """
    n = m.rows
    rows = m.to_lists()
    coeffs = [0] * n + [1]
    mk = [[int(i == j) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        mk = product_schoolbook(rows, mk)
        tr = sum(mk[i][i] for i in range(n))
        assert tr % k == 0, "inexact division in Faddeev-LeVerrier"
        coeffs[n - k] = -tr // k
        for i in range(n):
            mk[i][i] += coeffs[n - k]
    return tuple(coeffs)


def pfaffian_expansion(a: list[list[int]]) -> int:
    """Pf(a) = sum_j (-1)^(j+1) a[0][j] Pf(a without rows/columns 0, j)."""
    n = len(a)
    if n == 0:
        return 1
    if n == 2:
        return a[0][1]
    total = 0
    for j in range(1, n):
        if a[0][j] == 0:
            continue
        keep = [i for i in range(1, n) if i != j]
        minor = [[a[r][c] for c in keep] for r in keep]
        sign = 1 if j % 2 == 1 else -1
        total += sign * a[0][j] * pfaffian_expansion(minor)
    return total


def random_sparse(
    rng: random.Random, n: int, zeros: float = 0.6, lo: int = -3, hi: int = 3
) -> IntegerMatrix:
    """n x n with at least the share zeros of its entries 0, the others
    nonzero in [lo, hi]."""
    entries = [0] * (n * n)
    for k in rng.sample(range(n * n), int(n * n * (1 - zeros))):
        entries[k] = rng.choice([v for v in range(lo, hi + 1) if v])
    return IntegerMatrix(n, n, tuple(entries))


def random_matrix(rng: random.Random, n: int, lo: int = -3, hi: int = 3) -> IntegerMatrix:
    return IntegerMatrix.from_rows(
        [[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)]
    )


def nonsingular(draw) -> IntegerMatrix:
    """The first matrix draw() gives with a nonzero cofactor determinant."""
    while True:
        m = draw()
        if det_cofactor(m.to_lists()) != 0:
            return m


def random_nonsingular(rng: random.Random, n: int, lo: int = -3, hi: int = 3) -> IntegerMatrix:
    return nonsingular(lambda: random_matrix(rng, n, lo, hi))


def random_skew(rng: random.Random, n: int, lo: int = -5, hi: int = 5) -> IntegerMatrix:
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = rng.randint(lo, hi)
            rows[i][j] = v
            rows[j][i] = -v
    return IntegerMatrix.from_rows(rows)


def random_unimodular(rng: random.Random, n: int, steps: int = 12) -> IntegerMatrix:
    """Product of elementary shears and swaps, so |det| = 1 by construction."""
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        op = rng.choice(("shear", "swap", "negate"))
        if op == "shear":
            c = rng.randint(-2, 2)
            rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
        elif op == "swap":
            rows[i], rows[j] = rows[j], rows[i]
        else:
            rows[i] = [-a for a in rows[i]]
    return IntegerMatrix.from_rows(rows)


def complementary_smith(m: IntegerMatrix) -> tuple[list[list[int]], int]:
    """(d_n m^{-1}, d_n) for d_n the largest elementary divisor of m.

    From the Smith form U m V = diag(d_i): d_n m^{-1} = V diag(d_n / d_i) U,
    with schoolbook products.  Assumes det m != 0.
    """
    # imported here, as in brute_force_scan
    from torusdyn import smith_normal_form

    snf = smith_normal_form(m)
    d = snf.largest_divisor()
    scaled = [
        [v * (d // e) for v, e in zip(row, snf.elementary_divisors)] for row in snf.V.to_lists()
    ]
    return product_schoolbook(scaled, snf.U.to_lists()), d


def brute_force_scan(f, l: int = 1, budget: int = 10**6) -> int:
    """Fixed points of f^l by one dot product per row and grid point.

    Scans the same (1/G)-grid as fixpoint.brute_force_count, G the largest
    elementary divisor of M^l - I times the translation denominator, and
    tests K a + G t = 0 mod G at every point a.  Assumes det(M^l - I) != 0.
    """
    # imported here: bench/oracle.py executes this file and relies on its
    # top-level imports staying as they are
    import math

    from torusdyn import BudgetExceededError, power, smith_normal_form

    n = f.rank
    k = f.matrix**l - IntegerMatrix.identity(n)
    t_l = power(f, l).translation
    grid = smith_normal_form(k).largest_divisor() * math.lcm(
        *(c.denominator for c in t_l)
    )
    if grid**n > budget:
        raise BudgetExceededError(f"grid of {grid}^{n} points exceeds budget {budget}")
    rows = [k.row(i) for i in range(n)]
    shifts = [int(grid * c) for c in t_l]
    count = 0
    for a in itertools.product(range(grid), repeat=n):
        for row, s in zip(rows, shifts):
            acc = sum(r_j * a_j for r_j, a_j in zip(row, a)) + s
            if acc % grid != 0:
                break
        else:
            count += 1
    return count


def fixed_grid_smith_walk(f, l: int = 1) -> tuple[int, list[tuple[int, ...]]]:
    """Fix(f^l) as (N, sorted numerator tuples), by a walk over the Smith axes.

    With U K V = D for K = M^l - I and b = U(-t_l), every fixed point is
    a = sum_i (base_i + j_i N / d_i) V[:, i] mod N, j_i < d_i, where
    base_i = b_i N / d_i and N is the lcm of d_i times the denominator of
    b_i.  Axis by axis, each coordinate list is extended by every multiple;
    the lists are zipped into tuples and sorted at the end.  Only the
    Smith form is shared with fixpoint.fixed_columns: b, N and the walk
    and its order are this function's own.  Assumes det(M^l - I) != 0
    and takes no budget.
    """
    # imported here, as in brute_force_scan
    import math

    from torusdyn import power, smith_normal_form

    n = f.rank
    f_l = power(f, l)
    k = f_l.matrix - IntegerMatrix.identity(n)
    snf = smith_normal_form(k)
    rhs = snf.U.apply([-c for c in f_l.translation])
    divisors = snf.elementary_divisors
    common = math.lcm(*(d * b.denominator for d, b in zip(divisors, rhs)))
    columns: list[list[int]] = [[0] for _ in range(n)]
    for i, (d, b) in enumerate(zip(divisors, rhs)):
        base = int(b * common / d)
        step = common // d
        multiples = [(base + j * step) % common for j in range(d)]
        for r in range(n):
            offsets = [m * snf.V[r, i] % common for m in multiples]
            columns[r] = [(p + o) % common for p in columns[r] for o in offsets]
    return common, sorted(zip(*columns))


def orbit_partition_fractions(points, action) -> list:
    """Classes of the G-relation, one Fraction image per element and seed.

    Same contract as quotient.orbit_partition: images outside the set are
    ignored, so a class may be smaller than a full orbit.
    """
    remaining = {p.coordinates: p for p in points}
    classes = []
    while remaining:
        _, seed = remaining.popitem()
        cls = [seed]
        for g in action.elements:
            image = g.value_at(seed.coordinates)
            if image in remaining:
                cls.append(remaining.pop(image))
        classes.append(cls)
    return classes


def multiplication_by(m: int, g: int):
    """[m] on a torus of half-dimension g: the scalar matrix m I_{2g}."""
    # imported here, as in brute_force_scan
    from torusdyn import LatticeEndomorphism

    return LatticeEndomorphism(IntegerMatrix.scalar(2 * g, m))


def parse_csv(text: str) -> tuple[tuple[str, ...], tuple[tuple[str, ...], ...]]:
    """Inverse of report.render_csv; returns (headers, rows)."""
    # imported here, as in brute_force_scan
    import csv
    import io

    parsed = [tuple(row) for row in csv.reader(io.StringIO(text))]
    if not parsed:
        raise ValueError("empty CSV")
    return parsed[0], tuple(parsed[1:])
