"""Independent answers for the benchmark's checks.

Nothing here calls into torusdyn's algorithms.  Counts come from closed
forms (Gaussian integers, trace recurrences of the generator's hidden
blocks), matrices are checked with plain list arithmetic, determinants
are computed exactly by Chinese remaindering over large primes, and
characteristic polynomials are checked by evaluation modulo primes.  For
small n the cofactor and principal-minor references of tests/oracles.py
are loaded read-only.

Every check returns None when the answer is right and a message when it
is not.
"""

from __future__ import annotations

import importlib.util
import math
from fractions import Fraction
from pathlib import Path

from gen import identity, matmul

# Mersenne primes; their product (about 2^384) bounds the exact determinants
PRIMES = (2**61 - 1, 2**89 - 1, 2**107 - 1, 2**127 - 1)
EVALUATION_POINTS = (3, 1_000_003, 2**40 + 15)


def load_test_oracles(root: Path):
    """tests/oracles.py as a module, without putting tests/ on sys.path."""
    spec = importlib.util.spec_from_file_location(
        "_torusdyn_test_oracles", root / "tests" / "oracles.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# ---------------------------------------------------------------------------
# closed forms


def gaussian_count(l: int) -> int:
    """|(1+i)^l - 1|^2 by Gaussian-integer square-and-multiply."""
    re, im = 1, 0
    base_re, base_im = 1, 1
    e = l
    while e:
        if e & 1:
            re, im = re * base_re - im * base_im, re * base_im + im * base_re
        base_re, base_im = base_re * base_re - base_im * base_im, 2 * base_re * base_im
        e >>= 1
    return (re - 1) ** 2 + im**2


def mult_count(m: int, g: int, l: int) -> int:
    """Fixed points of [m]^l on a g-dimensional torus."""
    return (m**l - 1) ** (2 * g)


def block_traces(trace: int, det: int, lmax: int) -> list[int]:
    """tr(A^l) for l = 0..lmax: t_l = tr * t_{l-1} - det * t_{l-2}."""
    t = [2, trace]
    while len(t) <= lmax:
        t.append(trace * t[-1] - det * t[-2])
    return t[: lmax + 1]


def block_counts(blocks, lmax: int) -> list[int]:
    """det(M^l - I) for M ~ diag(blocks), l = 0..lmax (signed).

    For a 2x2 block, det(A^l - I) = det(A)^l - tr(A^l) + 1.
    """
    out = [1] * (lmax + 1)
    for trace, det in blocks:
        traces = block_traces(trace, det, lmax)
        for l in range(lmax + 1):
            out[l] *= det**l - traces[l] + 1
    return out


def factor_formula(factors, l: int) -> int:
    """prod (q^l - 1)^(g r) over declared (g, q, r) factors."""
    value = 1
    for g, q, r in factors:
        value *= (q**l - 1) ** (g * r)
    return value


def parse_int(text: str) -> int:
    """Decimal string to int without int()'s 4300-digit limit."""
    text = text.strip()
    sign = -1 if text.startswith("-") else 1
    digits = text.lstrip("+-")
    if not digits.isdigit():
        raise ValueError(f"not an integer: {text[:40]!r}")
    value = 0
    for i in range(0, len(digits), 1000):
        chunk = digits[i : i + 1000]
        value = value * 10 ** len(chunk) + int(chunk)
    return sign * value


def parse_fraction(text: str) -> Fraction:
    num, _, den = text.partition("/")
    return Fraction(parse_int(num), parse_int(den) if den else 1)


# ---------------------------------------------------------------------------
# modular and list linear algebra


def det_mod(rows: list[list[int]], p: int) -> int:
    """Determinant modulo a prime by Gaussian elimination over GF(p)."""
    a = [[x % p for x in row] for row in rows]
    n = len(a)
    result = 1
    for k in range(n):
        pivot = next((i for i in range(k, n) if a[i][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            result = -result
        result = result * a[k][k] % p
        inv = pow(a[k][k], -1, p)
        for i in range(k + 1, n):
            f = a[i][k] * inv % p
            if f:
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[k])]
    return result % p


def det_exact(rows: list[list[int]]) -> int:
    """Exact determinant by Chinese remaindering of det_mod over PRIMES.

    Refuses matrices whose Hadamard bound does not fit under half the
    modulus, so the symmetric residue is the determinant itself.
    """
    hadamard_sq = math.prod(sum(x * x for x in row) for row in rows)
    modulus = math.prod(PRIMES)
    if 4 * hadamard_sq >= modulus * modulus:
        raise ValueError("matrix too large for the CRT determinant")
    value, m = 0, 1
    for p in PRIMES:
        r = det_mod(rows, p)
        value += m * ((r - value) * pow(m, -1, p) % p)
        m *= p
    return value - m if value > m // 2 else value


def matpow(rows: list[list[int]], e: int) -> list[list[int]]:
    out = identity(len(rows))
    for _ in range(e):
        out = matmul(out, rows)
    return out


def check_det(rows, value: int, cofactor=None) -> str | None:
    exact = cofactor(rows) if cofactor is not None else det_exact(rows)
    return None if exact == value else "det is wrong"


def check_charpoly(rows, coefficients, minor_trace=None) -> str | None:
    """coefficients ascending, monic; exact via principal minors when given."""
    n = len(rows)
    if len(coefficients) != n + 1 or coefficients[n] != 1:
        return "charpoly is not monic of degree n"
    if minor_trace is not None:
        for k in range(1, n + 1):
            expected = (-1) ** k * minor_trace(rows, k)
            if coefficients[n - k] != expected:
                return f"charpoly coefficient of x^{n - k} is wrong"
        return None
    if coefficients[0] != (-1) ** n * det_exact(rows):
        return "charpoly constant term != (-1)^n det"
    if coefficients[n - 1] != -sum(rows[i][i] for i in range(n)):
        return "charpoly x^(n-1) coefficient != -trace"
    # A wrong polynomial agrees at a random point mod p with probability <= n/p.
    for p in PRIMES[:2]:
        for x in EVALUATION_POINTS:
            shifted = [
                [(x if i == j else 0) - rows[i][j] for j in range(n)] for i in range(n)
            ]
            value = sum(c * pow(x, k, p) for k, c in enumerate(coefficients)) % p
            if det_mod(shifted, p) != value:
                return f"charpoly disagrees with det(xI - A) at x = {x} mod {p}"
    return None


def check_pfaffian(skew_rows, pf: int, cofactor=None) -> str | None:
    exact = cofactor(skew_rows) if cofactor is not None else det_exact(skew_rows)
    return None if pf * pf == exact else "Pf^2 != det"


def check_snf(rows, u, d, v, divisors) -> str | None:
    """U A V = D, D = diag(divisors), d_i | d_{i+1}, prod d_i = |det A|."""
    n = len(rows)
    if matmul(matmul(u, rows), v) != d:
        return "U A V != D"
    if any(d[i][j] != (divisors[i] if i == j else 0) for i in range(n) for j in range(n)):
        return "D is not diag(elementary divisors)"
    if any(x < 0 for x in divisors):
        return "negative elementary divisor"
    for a, b in zip(divisors, divisors[1:]):
        if (a == 0 and b != 0) or (a != 0 and b % a != 0):
            return "elementary divisors are not a divisibility chain"
    if math.prod(divisors) != abs(det_exact(rows)):
        return "product of elementary divisors != |det|"
    return None


def check_complementary(rows, hat, m: int) -> str | None:
    """hat M = M hat = m I with m minimal, i.e. gcd(m, entries of hat) = 1."""
    n = len(rows)
    scalar = [[m if i == j else 0 for j in range(n)] for i in range(n)]
    if m < 1 or matmul(hat, rows) != scalar or matmul(rows, hat) != scalar:
        return "hat M != m I"
    if math.gcd(m, *(x for row in hat for x in row)) != 1:
        return "m is not minimal"
    return None


def check_points(rows, translation, points, expected: int) -> str | None:
    """Each point x satisfies M x + t = x mod Z^n, all distinct, |set| = expected.

    points are coordinate tuples of Fractions; the substitution is done on
    integer numerators over a common denominator.
    """
    if len(points) != expected:
        return f"{len(points)} points, expected {expected}"
    if len(set(points)) != len(points):
        return "duplicate points"
    den = math.lcm(*(c.denominator for c in translation))
    for point in points:
        if any(c < 0 or c >= 1 for c in point):
            return "point outside [0, 1)"
        common = math.lcm(den, *(c.denominator for c in point))
        x = [c.numerator * (common // c.denominator) for c in point]
        s = [c.numerator * (common // c.denominator) for c in translation]
        for row, xi, si in zip(rows, x, s):
            if (sum(a * b for a, b in zip(row, x)) + si - xi) % common:
                return f"point {tuple(map(str, point))} is not fixed"
    return None
