"""Command-line front end.

Subcommands: count, enumerate, growth, compare, quotient, subvariety,
verify, scenarios.  Data goes to stdout (or --out) as a table or CSV;
diagnostics go to stderr.  Exit codes: 0 success, 1 validation error,
2 degenerate case or budget refusal.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from fractions import Fraction

from . import fixpoint, intersection, quotient as quotient_mod
from .fixpoint import (
    BudgetExceededError,
    DEFAULT_BUDGET,
    DegenerateFixedLocusError,
    RootFindingError,
)
from .lattice import complementary_isogeny, degree, polarization_multiplier
from .linalg import IntegerMatrix
from .report import Report, render_csv, render_table
from .scenarios import (
    BUILTIN_DESCRIPTIONS,
    Scenario,
    ScenarioError,
    lift_int_digit_limit,
    resolve_scenario,
)

VERIFY_TARGETS = (
    "polarization",
    "serre",
    "lefschetz",
    "pfaffian",
    "proddiv",
    "dual-isogeny",
    "all",
)


@dataclass(frozen=True)
class Options:
    l: int = 1
    lmax: int | None = None
    budget: int = DEFAULT_BUDGET
    tolerance: float = 1e-9
    target: str = "all"


def _require_multiplier(scenario: Scenario) -> int:
    if scenario.torus.riemann_form is None:
        raise ScenarioError(
            f"scenario {scenario.name!r} carries no Riemann form"
        )
    q = polarization_multiplier(scenario.endomorphism, scenario.torus)
    if q is None or q < 2:
        raise ScenarioError(
            f"scenario {scenario.name!r} is not polarized (no multiplier q > 1)"
        )
    return q


def _echo(command: str, scenario_name: str, opts: Options) -> str:
    parts = [command, f"--scenario {scenario_name}"]
    if opts.lmax is not None:
        parts.append(f"--lmax {opts.lmax}")
    else:
        parts.append(f"--l {opts.l}")
    return " ".join(parts)


def _run_count(scenario: Scenario, opts: Options) -> Report:
    value = fixpoint.count_fixed(scenario.endomorphism, opts.l)
    return Report(
        command=_echo("count", scenario.name, opts),
        scenario=scenario.name,
        headers=("l", "fixed_points"),
        rows=((str(opts.l), str(value)),),
    )


def _run_enumerate(scenario: Scenario, opts: Options) -> Report:
    count = fixpoint.count_fixed(scenario.endomorphism, opts.l)
    if count > opts.budget:
        raise BudgetExceededError(
            f"enumerating {count} fixed points exceeds budget {opts.budget}"
        )
    points = fixpoint.enumerate_fixed(scenario.endomorphism, opts.l)
    n = scenario.torus.rank
    headers = ("index",) + tuple(f"x{i + 1}" for i in range(n))
    rows = tuple(
        (str(i),) + tuple(str(c) for c in p.coordinates)
        for i, p in enumerate(points)
    )
    return Report(
        command=_echo("enumerate", scenario.name, opts),
        scenario=scenario.name,
        headers=headers,
        rows=rows,
    )


def _growth_rows(table) -> tuple[tuple[str, ...], ...]:
    return tuple(
        (str(r.l), str(r.exact_count), str(r.asymptote), str(r.ratio))
        for r in table
    )


def _run_growth(scenario: Scenario, opts: Options) -> Report:
    q = _require_multiplier(scenario)
    lmax = opts.lmax if opts.lmax is not None else 10
    table = fixpoint.growth_table(scenario.endomorphism, q, scenario.torus.g, lmax)
    return Report(
        command=_echo("growth", scenario.name, opts),
        scenario=scenario.name,
        headers=("l", "exact_count", "asymptote", "ratio"),
        rows=_growth_rows(table),
    )


def _run_compare(scenario: Scenario, opts: Options) -> Report:
    if not scenario.factors:
        raise ScenarioError(
            f"scenario {scenario.name!r} declares no simple factors to compare against"
        )
    lmax = opts.lmax if opts.lmax is not None else 10
    report = fixpoint.compare_exact(scenario.endomorphism, scenario.factors, lmax)
    warnings = []
    rows = []
    for row in report.rows:
        if row.degenerate:
            warnings.append(f"l = {row.l}: degenerate (det(M^l - I) = 0), count omitted")
            rows.append((str(row.l), "degenerate", str(row.formula_value), ""))
        else:
            rows.append(
                (
                    str(row.l),
                    str(row.exact_count),
                    str(row.formula_value),
                    str(row.difference),
                )
            )
    return Report(
        command=_echo("compare", scenario.name, opts),
        scenario=scenario.name,
        headers=("l", "exact_count", "formula_value", "difference"),
        rows=tuple(rows),
        warnings=tuple(warnings),
        notes=(f"formula: {report.formula_label}",),
    )


def _run_quotient(scenario: Scenario, opts: Options) -> Report:
    if scenario.action is None:
        raise ScenarioError(f"scenario {scenario.name!r} declares no group action")
    q = _require_multiplier(scenario)
    iterates = (
        range(1, opts.lmax + 1) if opts.lmax is not None else (opts.l,)
    )
    rows = []
    for l in iterates:
        bound = quotient_mod.quotient_fixed_lower_bound(
            scenario.endomorphism, scenario.action, q, l, budget=opts.budget
        )
        rows.append(
            (
                str(l),
                str(bound.upstairs_count),
                str(bound.group_order),
                str(bound.orbit_count),
                str(bound.lower_bound),
                str(bound.formula_bound),
            )
        )
    return Report(
        command=_echo("quotient", scenario.name, opts),
        scenario=scenario.name,
        headers=(
            "l",
            "upstairs_count",
            "group_order",
            "orbit_count",
            "lower_bound",
            "formula_bound",
        ),
        rows=tuple(rows),
    )


def _run_subvariety(scenario: Scenario, opts: Options) -> Report:
    sub = scenario.subvariety
    if sub is None:
        raise ScenarioError(f"scenario {scenario.name!r} declares no subvariety")
    q = _require_multiplier(scenario)
    r = sub.basis.cols // 2
    restricted = fixpoint.periodic_subvariety_map(
        scenario.endomorphism, sub.basis, sub.translate, sub.period
    )
    # the restriction of M^period is polarized with multiplier q^period on
    # a subtorus of dimension r, so its growth table is the subvariety table
    if opts.lmax is not None:
        table = fixpoint.growth_table(restricted, q**sub.period, r, opts.lmax)
    else:
        count = fixpoint.count_fixed(restricted, opts.l)
        asymptote = q ** (r * sub.period * opts.l)
        table = [fixpoint.GrowthRow(opts.l, count, asymptote, Fraction(count, asymptote))]
    return Report(
        command=_echo("subvariety", scenario.name, opts),
        scenario=scenario.name,
        headers=("l", "count_on_subvariety", "asymptote", "ratio"),
        rows=_growth_rows(table),
    )


def _verify_polarization(scenario: Scenario) -> tuple[str, str]:
    if scenario.torus.riemann_form is None:
        raise ScenarioError("no Riemann form")
    q = polarization_multiplier(scenario.endomorphism, scenario.torus)
    deg = degree(scenario.endomorphism)
    if q is None:
        return "ok", f"degree = {deg}; no multiplier (blocks scale unequally)"
    return "ok", f"degree = {deg}; q = {q}"


def _verify_serre(scenario: Scenario, opts: Options) -> tuple[str, str]:
    q = _require_multiplier(scenario)
    check = fixpoint.eigenvalue_magnitude_check(
        scenario.endomorphism, q, opts.tolerance
    )
    status = "pass" if check.passed else "fail"
    return status, (
        f"q = {check.q}; max | |root|^2 - q | = {check.max_residual:.3e};"
        f" tolerance {check.tolerance:.1e}"
    )


def _verify_lefschetz(scenario: Scenario, opts: Options) -> tuple[str, str]:
    lef = fixpoint.lefschetz_number(scenario.endomorphism, opts.l)
    count = fixpoint.count_fixed(scenario.endomorphism, opts.l)
    status = "pass" if abs(lef) == count else "fail"
    return status, f"l = {opts.l}; lefschetz = {lef}; fixed points = {count}"


def _verify_pfaffian(scenario: Scenario) -> tuple[str, str]:
    S = scenario.torus.riemann_form
    if S is None:
        raise ScenarioError("no Riemann form")
    check = intersection.pullback_degree_check(scenario.endomorphism.matrix, S)
    status = "pass" if check.passed else "fail"
    return status, (
        f"Pf(M^T S M) = {check.lhs}; det(M) Pf(S) = {check.rhs}"
    )


def _verify_proddiv() -> list[tuple[str, str, str]]:
    rows = []
    for r, n in ((2, 1), (3, 1), (2, 2)):
        comp = intersection.compare_expansion_readings(r, n)
        status = "pass" if comp.expansion_coefficient == comp.multinomial else "fail"
        rows.append(
            (
                f"proddiv r={r} n={n}",
                status,
                f"expansion = {comp.expansion_coefficient};"
                f" r!^n reading = {comp.factorial_power};"
                f" multinomial = {comp.multinomial}",
            )
        )
    return rows


def _verify_dual_isogeny(scenario: Scenario) -> tuple[str, str]:
    f = scenario.endomorphism
    hat, m = complementary_isogeny(f)
    n = f.rank
    ok = (
        hat.matrix * f.matrix == IntegerMatrix.scalar(n, m)
        and f.matrix * hat.matrix == IntegerMatrix.scalar(n, m)
    )
    status = "pass" if ok else "fail"
    return status, f"m = {m}; deg = {degree(f)}; deg-hat = {degree(hat)}"


def _run_verify(scenario: Scenario, opts: Options) -> Report:
    target = opts.target
    rows: list[tuple[str, str, str]] = []
    warnings: list[str] = []

    def attempt(name: str, thunk):
        try:
            status, detail = thunk()
            rows.append((name, status, detail))
        except (ScenarioError, DegenerateFixedLocusError, ValueError) as exc:
            if target != "all":
                raise
            warnings.append(f"{name}: skipped ({exc})")

    if target in ("polarization", "all"):
        attempt("polarization", lambda: _verify_polarization(scenario))
    if target in ("serre", "all"):
        attempt("serre", lambda: _verify_serre(scenario, opts))
    if target in ("lefschetz", "all"):
        attempt("lefschetz", lambda: _verify_lefschetz(scenario, opts))
    if target in ("pfaffian", "all"):
        attempt("pfaffian", lambda: _verify_pfaffian(scenario))
    if target in ("proddiv", "all"):
        rows.extend(_verify_proddiv())
    if target in ("dual-isogeny", "all"):
        attempt("dual-isogeny", lambda: _verify_dual_isogeny(scenario))
    return Report(
        command=f"verify {target} --scenario {scenario.name}",
        scenario=scenario.name,
        headers=("check", "status", "detail"),
        rows=tuple(rows),
        warnings=tuple(warnings),
    )


def _run_scenarios() -> Report:
    rows = tuple(
        (name, description) for name, description in BUILTIN_DESCRIPTIONS.items()
    )
    return Report(
        command="scenarios",
        scenario="-",
        headers=("name", "description"),
        rows=rows,
    )


def run_command(command: str, scenario: Scenario | None, opts: Options) -> Report:
    """Dispatch a subcommand on a validated scenario."""
    if command == "scenarios":
        return _run_scenarios()
    if scenario is None:
        raise ScenarioError("this command needs --scenario")
    if command == "count":
        return _run_count(scenario, opts)
    if command == "enumerate":
        return _run_enumerate(scenario, opts)
    if command == "growth":
        return _run_growth(scenario, opts)
    if command == "compare":
        return _run_compare(scenario, opts)
    if command == "quotient":
        return _run_quotient(scenario, opts)
    if command == "subvariety":
        return _run_subvariety(scenario, opts)
    if command == "verify":
        return _run_verify(scenario, opts)
    raise ScenarioError(f"unknown command {command!r}")


class _Parser(argparse.ArgumentParser):
    # usage mistakes are validation errors (exit 1), not refusals (exit 2)
    def error(self, message):
        raise ScenarioError(message)


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--scenario", help="builtin name or path to a scenario JSON file")
    common.add_argument("--l", type=int, default=None, help="iterate (default 1)")
    common.add_argument("--lmax", type=int, default=None, help="table up to this iterate")
    common.add_argument(
        "--budget",
        type=int,
        default=DEFAULT_BUDGET,
        help="max grid points / enumerated points (default 1000000)",
    )
    common.add_argument(
        "--tolerance",
        type=float,
        default=1e-9,
        help="numeric tolerance for the serre check (default 1e-9)",
    )
    common.add_argument(
        "--format", choices=("table", "csv"), default="table", help="output format"
    )
    common.add_argument("--out", help="write output to this path instead of stdout")

    parser = _Parser(
        prog="torusdyn",
        description="Exact fixed-point counts, growth tables, and verification "
        "for endomorphisms of lattice tori.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("count", parents=[common], help="count fixed points of f^l")
    sub.add_parser("enumerate", parents=[common], help="list fixed points of f^l")
    sub.add_parser("growth", parents=[common], help="exact counts against q^(g l)")
    sub.add_parser(
        "compare", parents=[common], help="exact counts against the factor formula"
    )
    sub.add_parser(
        "quotient", parents=[common], help="orbit counts and the |G|-to-1 lower bound"
    )
    sub.add_parser(
        "subvariety", parents=[common], help="counts on an invariant subtorus translate"
    )
    verify = sub.add_parser(
        "verify", parents=[common], help="run identity checks against a scenario"
    )
    verify.add_argument(
        "target",
        nargs="?",
        choices=VERIFY_TARGETS,
        default="all",
        help="which check to run (default: all)",
    )
    verify.add_argument(
        "--all", action="store_true", help="run every applicable check"
    )
    sub.add_parser("scenarios", parents=[common], help="list builtin scenarios")
    return parser


def main(argv: list[str] | None = None) -> int:
    lift_int_digit_limit()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        # positional verify target wins; --all is a spelled-out synonym of the default
        opts = Options(
            l=args.l if args.l is not None else 1,
            lmax=args.lmax,
            budget=args.budget,
            tolerance=args.tolerance,
            target=getattr(args, "target", "all"),
        )
        if args.l is not None and args.l < 1:
            raise ScenarioError("--l must be >= 1")
        if args.lmax is not None and args.lmax < 1:
            raise ScenarioError("--lmax must be >= 1")
        scenario = None
        if args.scenario is not None:
            scenario = resolve_scenario(args.scenario)
        report = run_command(args.command, scenario, opts)
    except (DegenerateFixedLocusError, BudgetExceededError, RootFindingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ScenarioError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for note in report.notes:
        print(f"note: {note}", file=sys.stderr)
    for warning in report.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    rendered = render_csv(report) if args.format == "csv" else render_table(report)
    if args.out:
        try:
            with open(args.out, "w") as handle:
                handle.write(rendered)
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
            return 1
    else:
        sys.stdout.write(rendered)
    return 0


if __name__ == "__main__":
    sys.exit(main())
