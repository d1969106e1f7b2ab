"""Symbolic multidegree calculus on products and the pullback-degree identity.

Divisor classes pulled off the factors of an r-fold product commute and
satisfy the truncation rule D_i^{n+1} = 0 in factor dimension n.  The
expansion of (F_1 + ... + F_r)^{rn} is carried out with exact big-integer
coefficients; alongside the expansion value the (r!)^n closed-form
reading is reported side by side, but only the expansion is asserted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .linalg import IntegerMatrix, det, pfaffian

EXPANSION_CAP = 16


@dataclass(frozen=True)
class ExpansionComparison:
    r: int
    n: int
    expansion_coefficient: int
    factorial_power: int
    multinomial: int


@dataclass(frozen=True)
class PullbackCheck:
    """Both sides of Pf(M^T S M) = det(M) Pf(S), with the verdict."""

    lhs: int
    rhs: int
    determinant: int
    passed: bool


def expand_sum_power(r: int, n: int) -> int:
    """Coefficient of D_1^n ... D_r^n in (F_1 + ... + F_r)^{rn}.

    Expands the power one factor at a time over exponent vectors, dropping
    any monomial with an exponent above n (the truncation rule).
    """
    if r < 1 or n < 1:
        raise ValueError("need r >= 1 and n >= 1")
    if r * n > EXPANSION_CAP:
        raise ValueError(f"total degree r*n = {r * n} exceeds cap {EXPANSION_CAP}")
    terms: dict[tuple[int, ...], int] = {(0,) * r: 1}
    for _ in range(r * n):
        next_terms: dict[tuple[int, ...], int] = {}
        for exponents, coeff in terms.items():
            for i in range(r):
                if exponents[i] + 1 > n:
                    continue  # annihilated: D_i^{n+1} = 0
                bumped = exponents[:i] + (exponents[i] + 1,) + exponents[i + 1 :]
                next_terms[bumped] = next_terms.get(bumped, 0) + coeff
        terms = next_terms
    return terms.get((n,) * r, 0)


def compare_expansion_readings(r: int, n: int) -> ExpansionComparison:
    """Expansion coefficient next to the (r!)^n closed form and the multinomial.

    The three agree at n = 1; for n >= 2 the closed-form reading can
    differ, and only the expansion value is ever asserted.
    """
    coeff = expand_sum_power(r, n)
    return ExpansionComparison(
        r=r,
        n=n,
        expansion_coefficient=coeff,
        factorial_power=math.factorial(r) ** n,
        multinomial=math.factorial(r * n) // math.factorial(n) ** r,
    )


def pullback_degree_check(m: IntegerMatrix, s: IntegerMatrix) -> PullbackCheck:
    """Verify Pf(M^T S M) = det(M) Pf(S) with both sides computed separately."""
    pf = pfaffian(s)  # Pf(s)^2 = det(s), so Pf(s) = 0 exactly when s is degenerate
    if pf == 0:
        raise ValueError("form must be nondegenerate")
    if (m.rows, m.cols) != (s.rows, s.cols):
        raise ValueError("matrix dimension must match the form")
    lhs = pfaffian(m.transpose() * s * m)
    d = det(m)
    rhs = d * pf
    return PullbackCheck(lhs=lhs, rhs=rhs, determinant=d, passed=lhs == rhs)


def standard_symplectic_form(g: int) -> IntegerMatrix:
    """Block-diagonal symplectic form, one [[0, -1], [1, 0]] block per factor."""
    if g < 1:
        raise ValueError("g must be >= 1")
    block = IntegerMatrix.from_rows([[0, -1], [1, 0]])
    return IntegerMatrix.block_diagonal([block] * g)
