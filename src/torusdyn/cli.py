"""Command-line front end.

The subcommands, their help and the flags each one reads are the entries
of COMMANDS; the verify targets are the entries of CHECKS.  Data
goes to stdout (or --out) as a table or CSV; diagnostics go to stderr.
Exit codes: 0 success, 1 validation error, 2 degenerate case or budget
refusal.
"""

from __future__ import annotations

import argparse
import math
import shlex
import sys
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

from . import fixpoint, intersection, quotient as quotient_mod
from .fixpoint import (
    BudgetExceededError,
    DEFAULT_BUDGET,
    DegenerateFixedLocusError,
    RootFindingError,
)
from .lattice import (
    complementary_isogeny,
    degree,
    grid_residues,
    polarization_multiplier,
)
from .linalg import IntegerMatrix, det
from .report import Report, render_csv, render_table
from .scenarios import (
    BUILTINS,
    MULT_BY,
    Scenario,
    ScenarioError,
    lift_int_digit_limit,
    resolve_scenario,
)

@dataclass(frozen=True)
class Options:
    l: int = 1
    lmax: int | None = None
    budget: int = DEFAULT_BUDGET
    tolerance: float = 1e-9
    target: str = "all"


def _riemann_form(scenario: Scenario) -> IntegerMatrix:
    S = scenario.torus.riemann_form
    if S is None:
        raise ScenarioError(f"scenario {scenario.name!r} carries no Riemann form")
    return S


def _require_multiplier(scenario: Scenario) -> int:
    _riemann_form(scenario)
    q = polarization_multiplier(scenario.endomorphism, scenario.torus)
    if q is None or q < 2:
        raise ScenarioError(
            f"scenario {scenario.name!r} is not polarized (no multiplier q > 1)"
        )
    return q


DEFAULT_LMAX = 10  # rows of a growth or compare table without --lmax


def _echo(command: str, reference: str, opts: Options) -> str:
    """The command line that reproduces this run's stdout.

    reference is what followed --scenario: a builtin name or the path of
    a scenario file.  The words are shell-quoted where they need it.
    """
    reads = COMMANDS[command].reads
    words = [command, opts.target] if command == "verify" else [command]
    words += ["--scenario", reference]
    if opts.lmax is not None and "lmax" in reads:
        words += ["--lmax", str(opts.lmax)]
    else:
        words += ["--l", str(opts.l)]
    for flag in FLAGS:
        value = getattr(opts, flag)
        if flag not in ("l", "lmax") and flag in reads and value != getattr(Options, flag):
            words += [f"--{flag}", repr(value)]
    return shlex.join(words)


def _cells(rows) -> tuple[tuple[str, ...], ...]:
    """The printed cells of table rows, each row's values in column order."""
    return tuple(tuple(map(str, row)) for row in rows)


# Each runner returns (headers, rows[, warnings[, notes]]) for run_command
# to wrap in a Report.


def _run_count(scenario: Scenario, opts: Options):
    value = fixpoint.count_fixed(scenario.endomorphism, opts.l)
    return ("l", "fixed_points"), _cells([(opts.l, value)])


def _run_enumerate(scenario: Scenario, opts: Options):
    # rendered from the numerator columns, one cell string per distinct residue
    common, columns = fixpoint.fixed_columns(scenario.endomorphism, opts.l, opts.budget)
    cells = {v: str(r) for v, r in grid_residues(common, columns).items()}
    headers = ("index",) + tuple(f"x{i + 1}" for i in range(scenario.torus.rank))
    return headers, tuple(
        zip(map(str, range(len(columns[0]))), *[map(cells.__getitem__, c) for c in columns])
    )


def _run_growth(scenario: Scenario, opts: Options):
    q = _require_multiplier(scenario)
    table = fixpoint.growth_table(scenario.endomorphism, q, scenario.torus.g, opts.lmax)
    return fixpoint.GrowthRow._fields, _cells(table)


def _run_compare(scenario: Scenario, opts: Options):
    if not scenario.factors:
        raise ScenarioError(
            f"scenario {scenario.name!r} declares no simple factors to compare against"
        )
    report = fixpoint.compare_exact(scenario.endomorphism, scenario.factors, opts.lmax)
    rows = _cells(
        (r.l, "degenerate", r.formula_value, "") if r.degenerate else r
        for r in report.rows
    )
    warnings = tuple(
        f"l = {r.l}: degenerate (det(M^l - I) = 0), count omitted"
        for r in report.rows
        if r.degenerate
    )
    notes = (f"formula: {report.formula_label}",)
    return fixpoint.ComparisonRow._fields, rows, warnings, notes


def _run_quotient(scenario: Scenario, opts: Options):
    if scenario.action is None:
        raise ScenarioError(f"scenario {scenario.name!r} declares no group action")
    q = _require_multiplier(scenario)
    f, action = scenario.endomorphism, scenario.action
    if opts.lmax is None:
        bounds = [quotient_mod.quotient_fixed_lower_bound(f, action, q, opts.l)]
    else:
        bounds = quotient_mod.quotient_table(f, action, q, opts.lmax)
    return quotient_mod.QuotientBound._fields, _cells(bounds)


def _run_subvariety(scenario: Scenario, opts: Options):
    sub = scenario.subvariety
    if sub is None:
        raise ScenarioError(f"scenario {scenario.name!r} declares no subvariety")
    q = _require_multiplier(scenario)
    r = sub.basis.cols // 2
    where = (scenario.endomorphism, sub.basis, sub.translate, sub.period)
    # the restriction of M^period is polarized with multiplier q^period on
    # a subtorus of dimension r, so its growth table is the subvariety table
    if opts.lmax is not None:
        restricted = fixpoint.periodic_subvariety_map(*where)
        table = fixpoint.growth_table(restricted, q**sub.period, r, opts.lmax)
    else:
        count = fixpoint.periodic_subvariety_count(*where, opts.l)
        table = [fixpoint.growth_row(opts.l, count, q, q ** (r * sub.period * opts.l))]
    return ("l", "count_on_subvariety", "asymptote", "ratio"), _cells(table)


# Each check returns its rows as (label suffix, status, detail); the row
# is labelled with the target's name followed by the suffix.


def _status(passed: bool) -> str:
    return "pass" if passed else "fail"


def _verify_polarization(scenario: Scenario, opts: Options):
    _riemann_form(scenario)
    q = polarization_multiplier(scenario.endomorphism, scenario.torus)
    scale = "no multiplier (blocks scale unequally)" if q is None else f"q = {q}"
    return [("", "ok", f"degree = {degree(scenario.endomorphism)}; {scale}")]


def _verify_serre(scenario: Scenario, opts: Options):
    q = _require_multiplier(scenario)
    check = fixpoint.eigenvalue_magnitude_check(
        scenario.endomorphism, q, opts.tolerance
    )
    return [(
        "",
        _status(check.passed),
        f"q = {check.q}; max | |root|^2 - q | = {check.max_residual:.3e};"
        f" tolerance {check.tolerance:.1e}",
    )]


def _verify_lefschetz(scenario: Scenario, opts: Options):
    # two paths: L(f^l) = charpoly(M^l)(1) = (-1)^n det(M^l - I) from the
    # split of charpoly(M), with no power of M, against Bareiss on M^l
    m = scenario.endomorphism.matrix
    lef = (-1) ** m.rows * fixpoint._determinant_from_charpoly(m, opts.l)
    k = m**opts.l - IntegerMatrix.identity(m.rows)
    count = fixpoint.nondegenerate_count(opts.l, det(k))
    detail = f"l = {opts.l}; lefschetz = {lef}; fixed points = {count}"
    return [("", _status(abs(lef) == count), detail)]


def _verify_pfaffian(scenario: Scenario, opts: Options):
    S = _riemann_form(scenario)
    check = intersection.pullback_degree_check(scenario.endomorphism.matrix, S)
    detail = f"Pf(M^T S M) = {check.lhs}; det(M) Pf(S) = {check.rhs}"
    return [("", _status(check.passed), detail)]


def _verify_proddiv(scenario: Scenario, opts: Options):
    rows = []
    for r, n in ((2, 1), (3, 1), (2, 2)):
        comp = intersection.compare_expansion_readings(r, n)
        rows.append(
            (
                f" r={r} n={n}",
                _status(comp.expansion_coefficient == comp.multinomial),
                f"expansion = {comp.expansion_coefficient};"
                f" r!^n reading = {comp.factorial_power};"
                f" multinomial = {comp.multinomial}",
            )
        )
    return rows


def _verify_dual_isogeny(scenario: Scenario, opts: Options):
    f = scenario.endomorphism
    hat, m = complementary_isogeny(f)
    scalar = IntegerMatrix.scalar(f.rank, m)
    ok = hat.matrix * f.matrix == scalar and f.matrix * hat.matrix == scalar
    return [("", _status(ok), f"m = {m}; deg = {degree(f)}; deg-hat = {degree(hat)}")]


CHECKS = {
    "polarization": _verify_polarization,
    "serre": _verify_serre,
    "lefschetz": _verify_lefschetz,
    "pfaffian": _verify_pfaffian,
    "proddiv": _verify_proddiv,
    "dual-isogeny": _verify_dual_isogeny,
}
VERIFY_TARGETS = (*CHECKS, "all")


def _run_verify(scenario: Scenario, opts: Options):
    rows: list[tuple[str, str, str]] = []
    warnings: list[str] = []
    for name, check in CHECKS.items():
        if opts.target not in (name, "all"):
            continue
        try:
            rows += [(name + suffix, *rest) for suffix, *rest in check(scenario, opts)]
        except (ValueError, RootFindingError) as exc:
            # ScenarioError and degenerate iterates are ValueErrors too
            if opts.target != "all":
                raise
            warnings.append(f"{name}: skipped ({exc})")
    return ("check", "status", "detail"), tuple(rows), tuple(warnings)


class Command(NamedTuple):
    help: str
    run: Callable | None
    reads: tuple[str, ...]  # which of --scenario and the FLAGS it uses

    def default(self, flag: str):
        """The value of a flag this command reads when it is not given."""
        if flag == "lmax" and "l" not in self.reads:
            return DEFAULT_LMAX  # growth and compare always tabulate
        return getattr(Options, flag)


COMMANDS = {
    "count": Command("count fixed points of f^l", _run_count, ("scenario", "l")),
    "enumerate": Command(
        "list fixed points of f^l", _run_enumerate, ("scenario", "l", "budget")
    ),
    "growth": Command(
        "exact counts against q^(g l)", _run_growth, ("scenario", "lmax")
    ),
    "compare": Command(
        "exact counts against the factor formula", _run_compare, ("scenario", "lmax")
    ),
    "quotient": Command(
        "orbit counts and the |G|-to-1 lower bound",
        _run_quotient,
        ("scenario", "l", "lmax"),
    ),
    "subvariety": Command(
        "counts on an invariant subtorus translate",
        _run_subvariety,
        ("scenario", "l", "lmax"),
    ),
    "verify": Command(
        "run identity checks against a scenario",
        _run_verify,
        ("scenario", "l", "tolerance"),
    ),
    "scenarios": Command("list builtin scenarios", None, ()),
}


class Flag(NamedTuple):
    type: Callable
    valid: Callable  # whether a given value is in range
    rule: str  # that range, as the refusal states it
    help: str


# The Options fields set by flags, in the order main checks them
FLAGS = {
    "l": Flag(int, lambda v: v >= 1, ">= 1", "iterate"),
    "lmax": Flag(int, lambda v: v >= 1, ">= 1", "table up to this iterate"),
    "tolerance": Flag(
        float,
        lambda v: math.isfinite(v) and v >= 0,
        "finite and >= 0",
        "numeric tolerance for the serre check",
    ),
    "budget": Flag(int, lambda v: v >= 1, ">= 1", "max enumerated points"),
}


def run_command(
    command: str,
    scenario: Scenario | None,
    opts: Options,
    reference: str | None = None,
) -> Report:
    """Dispatch a subcommand on a validated scenario.

    reference is the --scenario argument the scenario was resolved from,
    which the command echo repeats; without one the echo names the
    scenario, which reproduces a builtin but not a scenario file.
    """
    if command == "scenarios":
        rows = (MULT_BY, *((name, text) for name, (text, _) in BUILTINS.items()))
        return Report("scenarios", "-", ("name", "description"), rows)
    if scenario is None:
        raise ScenarioError("this command needs --scenario")
    if command not in COMMANDS:
        raise ScenarioError(f"unknown command {command!r}")
    if opts.lmax is None:
        opts = replace(opts, lmax=COMMANDS[command].default("lmax"))
    result = COMMANDS[command].run(scenario, opts)
    echo = _echo(command, reference or scenario.name, opts)
    return Report(echo, scenario.name, *result)


class _Parser(argparse.ArgumentParser):
    # usage mistakes are validation errors (exit 1), not refusals (exit 2)
    def error(self, message):
        raise ScenarioError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="torusdyn",
        description="Exact fixed-point counts, growth tables, and verification "
        "for endomorphisms of lattice tori.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        # flag -> (type, help), the help naming the command's default
        arguments = {"scenario": (str, "builtin name or path to a scenario JSON file")}
        for flag, spec in FLAGS.items():
            default = command.default(flag)
            suffix = "" if default is None else f" (default {default})"
            arguments[flag] = (spec.type, spec.help + suffix)
        # every flag is accepted, so that main can refuse one the command
        # does not read, but only those it reads are shown; none has a
        # parser default, so that main sees which were given
        for flag, (kind, text) in arguments.items():
            shown = text if flag in command.reads else argparse.SUPPRESS
            p.add_argument(f"--{flag}", type=kind, help=shown)
        p.add_argument(
            "--format", choices=("table", "csv"), default="table", help="output format"
        )
        p.add_argument("--out", help="write output to this path instead of stdout")
    verify = sub.choices["verify"]
    verify.add_argument(
        "target",
        nargs="?",
        choices=VERIFY_TARGETS,
        default=Options.target,
        help="which check to run (default: %(default)s)",
    )
    verify.add_argument(
        "--all", action="store_true", help="run every applicable check"
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    lift_int_digit_limit()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        # the echo repeats it on the one '# command:' line
        if args.scenario and "".join(args.scenario.splitlines()) != args.scenario:
            raise ScenarioError("--scenario must not contain a line break")
        given = {
            flag: getattr(args, flag)
            for flag in (*FLAGS, "scenario")
            if getattr(args, flag) is not None
        }
        for flag, value in given.items():
            if flag in FLAGS and not FLAGS[flag].valid(value):
                raise ScenarioError(f"--{flag} must be {FLAGS[flag].rule}")
            if flag not in COMMANDS[args.command].reads:
                raise ScenarioError(f"{args.command} does not read --{flag}")
        # quotient and subvariety read either, and --lmax would hide --l
        if "l" in given and "lmax" in given:
            raise ScenarioError("--l and --lmax cannot be combined")
        given.pop("scenario", None)
        opts = Options(**given, target=getattr(args, "target", Options.target))
        # --all is a spelled-out synonym of the default target, never a second one
        if getattr(args, "all", False) and opts.target != "all":
            raise ScenarioError(f"--all cannot be combined with target {opts.target}")
        scenario = None
        if args.scenario is not None:
            scenario = resolve_scenario(args.scenario)
        report = run_command(args.command, scenario, opts, args.scenario)
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
