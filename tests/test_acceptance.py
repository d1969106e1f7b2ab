"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; plain `pytest` enforces the same assertions.
"""

import random
import time
from fractions import Fraction

from torusdyn import (
    IntegerMatrix,
    LatticeEndomorphism,
    brute_force_count,
    compare_exact,
    complementary_isogeny,
    count_fixed,
    degree,
    eigenvalue_magnitude_check,
    enumerate_fixed,
    expand_sum_power,
    growth_table,
    periodic_subvariety_count,
    polarization_multiplier,
    power,
    pullback_degree_check,
    quotient_fixed_lower_bound,
)
from torusdyn import det as bareiss_det
from torusdyn.cli import Options, run_command
from torusdyn.fixpoint import DegenerateFixedLocusError, _determinant_from_charpoly
from torusdyn.intersection import compare_expansion_readings, standard_symplectic_form
from torusdyn.linalg import smith_normal_form
from torusdyn.scenarios import builtin_scenarios, resolve_scenario

from oracles import multiplication_by, random_matrix, random_nonsingular

BUDGET = 10**6


def _pass(number: int, label: str) -> None:
    print(f"[acceptance] criterion {number:02d} ({label}): PASS")


def _polarized_builtins():
    out = []
    for scenario in builtin_scenarios():
        if scenario.torus.riemann_form is None:
            continue
        q = polarization_multiplier(scenario.endomorphism, scenario.torus)
        if q is not None and q > 1:
            out.append((scenario, q))
    return out


def test_criterion_01_torsion_law():
    start = time.perf_counter()
    for m in (2, 3, 4):
        for g in (1, 2):
            f = multiplication_by(m, g)
            for l in range(1, 6):
                assert count_fixed(f, l) == (m**l - 1) ** (2 * g)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"torsion law took {elapsed:.2f}s"
    _pass(1, "torsion law")


def test_criterion_02_triple_path_agreement():
    start = time.perf_counter()
    checked = 0
    for scenario in builtin_scenarios():
        f = scenario.endomorphism
        n = f.rank
        for l in range(1, 5):
            try:
                expected = count_fixed(f, l)
            except DegenerateFixedLocusError:
                continue
            d_max = smith_normal_form(
                f.matrix**l - IntegerMatrix.identity(n)
            ).largest_divisor()
            if d_max**n > BUDGET:
                continue
            assert len(enumerate_fixed(f, l)) == expected, (scenario.name, l)
            assert brute_force_count(f, l, budget=BUDGET) == expected, (
                scenario.name,
                l,
            )
            checked += 1
    elapsed = time.perf_counter() - start
    assert checked >= 15
    assert elapsed < 30.0, f"triple-path agreement took {elapsed:.2f}s"
    _pass(2, f"triple-path agreement on {checked} scenario iterates")


def test_criterion_03_asymptotic_growth():
    start = time.perf_counter()
    tolerance = Fraction(5, 1000)
    for name, q in (("mult-by-2", 4), ("gaussian-cm", 2)):
        scenario = resolve_scenario(name)
        rows = growth_table(scenario.endomorphism, q, scenario.torus.g, 20)
        ratio = rows[-1].ratio
        assert abs(ratio - 1) <= tolerance, (name, float(ratio))
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"growth tables took {elapsed:.2f}s"
    _pass(3, "asymptotic growth at l = 20")


def test_criterion_04_eigenvalue_magnitudes():
    for scenario, q in _polarized_builtins():
        check = eigenvalue_magnitude_check(scenario.endomorphism, q, tolerance=1e-9)
        assert check.passed, (scenario.name, check.max_residual)
        assert check.max_residual <= 1e-9
    _pass(4, "eigenvalue magnitude bound")


def test_criterion_05_lefschetz_identity():
    rng = random.Random(20250808)
    for _ in range(100):
        n = rng.randint(1, 8)
        m = random_matrix(rng, n, -3, 3)
        i_minus = IntegerMatrix.identity(n) - m
        # L(f) = charpoly(M)(1) = (-1)^n det(M - I), as verify lefschetz reads it
        assert (-1) ** n * _determinant_from_charpoly(m, 1) == bareiss_det(i_minus)
    for scenario in builtin_scenarios():
        f = scenario.endomorphism
        for l in (1, 2):
            try:
                expected = count_fixed(f, l)
            except DegenerateFixedLocusError:
                continue
            assert abs(_determinant_from_charpoly(f.matrix, l)) == expected, (scenario.name, l)
    _pass(5, "lefschetz identity")


def test_criterion_06_pullback_degree_identity():
    rng = random.Random(424242)
    for g in (2, 3):
        s = standard_symplectic_form(g)
        for _ in range(100):
            m = random_matrix(rng, 2 * g, -3, 3)
            check = pullback_degree_check(m, s)
            assert check.passed, (m.to_lists(), check.lhs, check.rhs)
    _pass(6, "pullback degree identity")


def test_criterion_07_polarization_examples():
    sumdiff = resolve_scenario("silverman-sumdiff")
    assert polarization_multiplier(sumdiff.endomorphism, sumdiff.torus) == 2

    unpol = resolve_scenario("unpolarizable-1x4")
    assert degree(unpol.endomorphism) == 16
    assert polarization_multiplier(unpol.endomorphism, unpol.torus) is None

    for m in (2, 3, 4):
        for g in (1, 2):
            scenario = resolve_scenario(f"mult-by-{m}-g{g}")
            assert (
                polarization_multiplier(scenario.endomorphism, scenario.torus)
                == m * m
            )
    _pass(7, "polarization examples")


def test_criterion_08_quotient_bound():
    scenario = resolve_scenario("bielliptic-quotient")
    q = polarization_multiplier(scenario.endomorphism, scenario.torus)
    assert q == 9
    for l in (1, 2):
        bound = quotient_fixed_lower_bound(
            scenario.endomorphism, scenario.action, q, l
        )
        upstairs = (3**l - 1) ** 4
        assert bound.upstairs_count == upstairs
        assert bound.orbit_count == upstairs // 2
        assert bound.orbit_count >= Fraction(upstairs, 2)
    _pass(8, "quotient lower bound")


def test_criterion_09_dual_isogeny():
    scenario = resolve_scenario("gaussian-cm")
    hat, m = complementary_isogeny(scenario.endomorphism)
    assert m == 2
    two_i = IntegerMatrix.scalar(2, 2)
    assert hat.matrix * scenario.endomorphism.matrix == two_i
    assert scenario.endomorphism.matrix * hat.matrix == two_i

    rng = random.Random(515151)
    for n in (2, 4):
        for _ in range(50):
            f = LatticeEndomorphism(random_nonsingular(rng, n))
            hat, m = complementary_isogeny(f)
            assert m**n == degree(f) * degree(hat)
    _pass(9, "dual isogeny")


def test_criterion_10_expansion_comparison():
    assert expand_sum_power(2, 1) == 2
    assert expand_sum_power(3, 1) == 6
    assert expand_sum_power(2, 2) == 6
    for r, n in ((2, 1), (3, 1), (2, 2)):
        comp = compare_expansion_readings(r, n)
        # both readings are reported; only the expansion value is asserted
        print(
            f"[acceptance]   expansion(r={r}, n={n}) = {comp.expansion_coefficient}"
            f" vs r!^n = {comp.factorial_power}"
        )
        assert comp.expansion_coefficient == comp.multinomial
    _pass(10, "product-divisor expansion comparison")


def test_criterion_11_comparison_report():
    scenario = resolve_scenario("mult-by-2")
    report = compare_exact(scenario.endomorphism, scenario.factors, 5)
    for row in report.rows:
        assert row.exact_count == (2**row.l - 1) ** 2
        assert row.formula_value == 4**row.l - 1
        assert row.difference == row.exact_count - row.formula_value
    assert report == compare_exact(scenario.endomorphism, scenario.factors, 5)

    cli_report = run_command("compare", scenario, Options(lmax=5))
    assert cli_report.rows == tuple(
        (str(l), str((2**l - 1) ** 2), str(4**l - 1), str((2**l - 1) ** 2 - (4**l - 1)))
        for l in range(1, 6)
    )
    assert cli_report == run_command("compare", scenario, Options(lmax=5))
    _pass(11, "comparison report columns")


def test_criterion_12_subvariety_growth():
    scenario = resolve_scenario("diagonal-subvariety")
    sub = scenario.subvariety
    for l in (1, 2, 3, 4, 5):
        count = periodic_subvariety_count(
            scenario.endomorphism, sub.basis, sub.translate, sub.period, l
        )
        assert count == (2**l - 1) ** 2
    count_20 = periodic_subvariety_count(
        scenario.endomorphism, sub.basis, sub.translate, sub.period, 20
    )
    ratio = Fraction(count_20, 4**20)
    assert abs(ratio - 1) <= Fraction(5, 1000)
    _pass(12, "subvariety growth")
