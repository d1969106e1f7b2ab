"""The benchmark's four workloads: fixed job lists with their oracle checks.

A job is one call a user waits for: a library call on the in-process
workloads, one `python -m torusdyn.cli ...` invocation on cli-session.
Its check runs after the timed interval and returns None, or a
(kind, message) pair where kind is WRONG for an answer that contradicts
the oracle and ERROR for a crash or an unexpected exit code.

Library calls go through attribute lookups on the torusdyn package at
call time, so the traced run sees the wrapped functions.
"""

from __future__ import annotations

import csv
import io
import json
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import gen
import oracle

WRONG, ERROR = "wrong", "error"

# point-sets
DIAGONAL_ITERATE = 4  # [2]^4 on E x E: 15^4 = 50,625 points
BIELLIPTIC_ITERATE = 2  # [3]^2 on E x E: 8^4 = 4,096 points

# deep-iterates
GAUSSIAN_GROWTH_LMAX = 2000
MULT_COMPARE_LMAX = 500
GAUSSIAN_DEEP_ITERATES = (10**4, 10**5, 10**6)
HYPERBOLIC_GROWTH_LMAX = 150
ROOT_OF_UNITY_COMPARE_LMAX = 120
SUBVARIETY_LMAX = 150

# the builtins as the README describes them, for the oracles
SUMDIFF = [[1, 0, 1, 0], [0, 1, 0, 1], [1, 0, -1, 0], [0, 1, 0, -1]]
BUILTIN_NAMES = {
    "mult-by-<m>[-g<G>]",
    "gaussian-cm",
    "silverman-sumdiff",
    "unpolarizable-1x4",
    "bielliptic-quotient",
    "diagonal-subvariety",
}


@dataclass
class Job:
    name: str
    call: Callable[[], object]
    check: Callable[[object], tuple[str, str] | None]


def _wrong(message: str | None):
    return None if message is None else (WRONG, message)


def _scalar(n: int, m: int) -> list[list[int]]:
    return [[m if i == j else 0 for j in range(n)] for i in range(n)]


def _scenario_data(inputs: gen.Inputs, filename: str):
    """Matrix rows and translation of a generated scenario, read from its JSON."""
    data = json.loads(inputs.files[filename])
    rows = [[int(x) for x in row] for row in data["endomorphism"]["M"]]
    return rows, [Fraction(x) for x in data["endomorphism"]["t"]]


# ---------------------------------------------------------------------------
# checks shared by library results


def equals(expected):
    return lambda result: _wrong(None if result == expected else f"got {result}, expected {expected}")


def points_check(rows, translation, expected: int):
    return lambda result: _wrong(
        oracle.check_points(rows, translation, [p.coordinates for p in result], expected)
    )


def quotient_check(upstairs: int, q: int, g: int, l: int):
    """Free involution on a G-stable fixed set: exactly upstairs / 2 orbits."""

    def check(bound):
        order = 2
        if (bound.l, bound.upstairs_count, bound.group_order) != (l, upstairs, order):
            return WRONG, f"l, |Fix|, |G| = {bound.l}, {bound.upstairs_count}, {bound.group_order}"
        if bound.orbit_count < Fraction(upstairs, order):
            return WRONG, "orbit count below |Fix| / |G|"
        if bound.orbit_count * order != upstairs:
            return WRONG, f"{bound.orbit_count} orbits of a free involution on {upstairs} points"
        if bound.lower_bound != Fraction(upstairs, order):
            return WRONG, "lower bound != |Fix| / |G|"
        if bound.formula_bound != Fraction((q**l - 1) ** g, order):
            return WRONG, "formula bound != (q^l - 1)^g / |G|"
        return None

    return check


def growth_check(counts: Callable[[int], int], asymptote: Callable[[int], int], lmax: int):
    def check(rows):
        if [r.l for r in rows] != list(range(1, lmax + 1)):
            return WRONG, "growth rows are not l = 1..lmax"
        for r in rows:
            exact, big = counts(r.l), asymptote(r.l)
            if (r.exact_count, r.asymptote, r.ratio) != (exact, big, Fraction(exact, big)):
                return WRONG, f"growth row l = {r.l} is wrong"
        return None

    return check


def compare_check(counts: Callable[[int], int | None], formula: Callable[[int], int], lmax: int):
    """counts(l) is None where the row must be flagged degenerate."""

    def check(report):
        if [r.l for r in report.rows] != list(range(1, lmax + 1)):
            return WRONG, "compare rows are not l = 1..lmax"
        for r in report.rows:
            exact, value = counts(r.l), formula(r.l)
            if exact is None:
                ok = r.degenerate and r.exact_count is None and r.difference is None
            else:
                ok = not r.degenerate and (r.exact_count, r.difference) == (exact, exact - value)
            if not ok or r.formula_value != value:
                return WRONG, f"compare row l = {r.l} is wrong"
        return None

    return check


# ---------------------------------------------------------------------------
# in-process workloads


def point_sets(inputs: gen.Inputs, directory: Path, td) -> list[Job]:
    diagonal = td.resolve_scenario("diagonal-subvariety").endomorphism
    bielliptic = td.resolve_scenario("bielliptic-quotient")
    rank6 = td.resolve_scenario(str(directory / "rank6-involution.json"))
    rank6_meta = inputs.meta["rank6-involution.json"]
    rank6_count = abs(oracle.block_counts(rank6_meta["blocks"], 1)[1])
    jobs = [
        Job(
            f"enumerate_fixed diagonal-subvariety l={DIAGONAL_ITERATE}",
            lambda: td.enumerate_fixed(diagonal, DIAGONAL_ITERATE),
            points_check(
                oracle.matpow(_scalar(4, 2), DIAGONAL_ITERATE), [0] * 4,
                oracle.mult_count(2, 2, DIAGONAL_ITERATE),
            ),
        ),
        Job(
            f"brute_force_count diagonal-subvariety l={DIAGONAL_ITERATE}",
            lambda: td.brute_force_count(diagonal, DIAGONAL_ITERATE),
            equals(oracle.mult_count(2, 2, DIAGONAL_ITERATE)),
        ),
        Job(
            "polarization_multiplier bielliptic-quotient",
            lambda: td.polarization_multiplier(bielliptic.endomorphism, bielliptic.torus),
            equals(9),
        ),
        Job(
            f"quotient_fixed_lower_bound bielliptic-quotient l={BIELLIPTIC_ITERATE}",
            lambda: td.quotient_fixed_lower_bound(
                bielliptic.endomorphism, bielliptic.action, 9, BIELLIPTIC_ITERATE
            ),
            quotient_check(oracle.mult_count(3, 2, BIELLIPTIC_ITERATE), 9, 2, BIELLIPTIC_ITERATE),
        ),
    ]
    for i in range(gen.TRANSLATED_MAPS):
        filename = f"translated-{i}.json"
        f = td.resolve_scenario(str(directory / filename)).endomorphism
        rows, translation = _scenario_data(inputs, filename)
        count = inputs.meta[filename]["count"]
        jobs += [
            Job(f"count_fixed {filename}", lambda f=f: td.count_fixed(f, 1), equals(count)),
            Job(
                f"enumerate_fixed {filename}",
                lambda f=f: td.enumerate_fixed(f, 1),
                points_check(rows, translation, count),
            ),
            Job(f"brute_force_count {filename}", lambda f=f: td.brute_force_count(f, 1), equals(count)),
        ]
    jobs += [
        Job(
            "polarization_multiplier rank6-involution",
            lambda: td.polarization_multiplier(rank6.endomorphism, rank6.torus),
            equals(rank6_meta["q"]),
        ),
        Job(
            "quotient_fixed_lower_bound rank6-involution l=1",
            lambda: td.quotient_fixed_lower_bound(rank6.endomorphism, rank6.action, rank6_meta["q"], 1),
            quotient_check(rank6_count, rank6_meta["q"], 3, 1),
        ),
    ]
    return jobs


def exact_kernels(inputs: gen.Inputs, directory: Path, td, test_oracles) -> list[Job]:
    matrices = json.loads((directory / "matrices.json").read_text())
    jobs = []
    for n in gen.KERNEL_SIZES:
        small = n <= 8
        cofactor = test_oracles.det_cofactor if small else None
        minor_trace = test_oracles.principal_minor_trace if small else None
        s = td.standard_symplectic_form(n // 2)
        for k, rows in enumerate(matrices[str(n)]):
            a = td.IntegerMatrix.from_rows(rows)
            skew = a - a.transpose()
            skew_rows = skew.to_lists()
            label = f"n={n} #{k}"
            # (-1)^g det A is Pf(M^T S M) for the standard form, Pf(S) = (-1)^g
            sign = (-1) ** (n // 2)

            def pullback_check(r, rows=rows, sign=sign):
                d = oracle.det_exact(rows)
                ok = r.passed and r.determinant == d and r.lhs == r.rhs == sign * d
                return _wrong(None if ok else "Pf(M^T S M) != det(M) Pf(S)")

            jobs += [
                Job(f"det {label}", lambda a=a: td.det(a),
                    lambda r, rows=rows, c=cofactor: _wrong(oracle.check_det(rows, r, c))),
                Job(f"charpoly {label}", lambda a=a: td.charpoly(a),
                    lambda r, rows=rows, m=minor_trace: _wrong(
                        oracle.check_charpoly(rows, list(r.coefficients), m))),
                Job(f"pfaffian {label}", lambda skew=skew: td.pfaffian(skew),
                    lambda r, sr=skew_rows, c=cofactor: _wrong(oracle.check_pfaffian(sr, r, c))),
                Job(f"power 3 {label}", lambda a=a: a**3,
                    lambda r, rows=rows: _wrong(
                        None if r.to_lists() == oracle.matpow(rows, 3) else "A^3 is wrong")),
                Job(f"pullback_degree_check {label}",
                    lambda a=a, s=s: td.pullback_degree_check(a, s), pullback_check),
            ]
            if n <= gen.KERNEL_SNF_MAX:
                f = td.LatticeEndomorphism(a)
                jobs += [
                    Job(f"smith_normal_form {label}", lambda a=a: td.smith_normal_form(a),
                        lambda r, rows=rows: _wrong(oracle.check_snf(
                            rows, r.U.to_lists(), r.D.to_lists(), r.V.to_lists(),
                            list(r.elementary_divisors)))),
                    Job(f"complementary_isogeny {label}",
                        lambda f=f: td.complementary_isogeny(f),
                        lambda r, rows=rows: _wrong(
                            oracle.check_complementary(rows, r[0].matrix.to_lists(), r[1]))),
                ]
    return jobs


def deep_iterates(inputs: gen.Inputs, directory: Path, td) -> list[Job]:
    gaussian = td.resolve_scenario("gaussian-cm").endomorphism
    mult = td.resolve_scenario("mult-by-2-g3")
    diagonal = td.resolve_scenario("diagonal-subvariety")
    sub = diagonal.subvariety
    hyperbolic = td.resolve_scenario(str(directory / "hyperbolic-rank6.json"))
    hyp_meta = inputs.meta["hyperbolic-rank6.json"]
    roots = td.resolve_scenario(str(directory / "root-of-unity-rank6.json"))
    roots_blocks = inputs.meta["root-of-unity-rank6.json"]["blocks"]

    hyp_counts = [abs(c) for c in oracle.block_counts(hyp_meta["blocks"], HYPERBOLIC_GROWTH_LMAX)]
    roots_counts = [abs(c) for c in oracle.block_counts(roots_blocks, ROOT_OF_UNITY_COMPARE_LMAX)]
    gaussian_counts = _gaussian_counts(GAUSSIAN_GROWTH_LMAX)

    def eigen_check(r):
        ok = r.passed and r.q == hyp_meta["q"] and r.max_residual <= r.tolerance
        ok = ok and len(r.roots) >= len(hyp_meta["blocks"])
        return _wrong(None if ok else f"eigenvalue check failed: residual {r.max_residual}")

    jobs = [
        Job(
            f"growth_table gaussian-cm lmax={GAUSSIAN_GROWTH_LMAX}",
            lambda: td.growth_table(gaussian, 2, 1, GAUSSIAN_GROWTH_LMAX),
            growth_check(gaussian_counts.__getitem__, lambda l: 2**l, GAUSSIAN_GROWTH_LMAX),
        ),
        Job(
            f"compare_exact mult-by-2-g3 lmax={MULT_COMPARE_LMAX}",
            lambda: td.compare_exact(mult.endomorphism, mult.factors, MULT_COMPARE_LMAX),
            compare_check(
                lambda l: oracle.mult_count(2, 3, l),
                lambda l: oracle.factor_formula([(1, 4, 3)], l),
                MULT_COMPARE_LMAX,
            ),
        ),
    ]
    for l in GAUSSIAN_DEEP_ITERATES:
        jobs.append(Job(
            f"count_fixed gaussian-cm l={l}",
            lambda l=l: td.count_fixed(gaussian, l),
            lambda r, l=l: _wrong(None if r == oracle.gaussian_count(l) else "count is wrong"),
        ))
    jobs += [
        Job(
            f"growth_table hyperbolic-rank6 lmax={HYPERBOLIC_GROWTH_LMAX}",
            lambda: td.growth_table(hyperbolic.endomorphism, hyp_meta["q"], 3, HYPERBOLIC_GROWTH_LMAX),
            growth_check(hyp_counts.__getitem__, lambda l: hyp_meta["q"] ** (3 * l),
                         HYPERBOLIC_GROWTH_LMAX),
        ),
        Job(
            "eigenvalue_magnitude_check hyperbolic-rank6",
            lambda: td.eigenvalue_magnitude_check(hyperbolic.endomorphism, hyp_meta["q"]),
            eigen_check,
        ),
        Job(
            f"compare_exact root-of-unity-rank6 lmax={ROOT_OF_UNITY_COMPARE_LMAX}",
            lambda: td.compare_exact(roots.endomorphism, roots.factors, ROOT_OF_UNITY_COMPARE_LMAX),
            compare_check(
                lambda l: roots_counts[l] or None,
                lambda l: oracle.factor_formula([(1, 2, 3)], l),
                ROOT_OF_UNITY_COMPARE_LMAX,
            ),
        ),
        Job(
            f"periodic_subvariety_count diagonal-subvariety l=1..{SUBVARIETY_LMAX}",
            lambda: [
                td.periodic_subvariety_count(
                    diagonal.endomorphism, sub.basis, sub.translate, sub.period, l
                )
                for l in range(1, SUBVARIETY_LMAX + 1)
            ],
            lambda r: _wrong(
                None
                if r == [oracle.mult_count(2, 1, l) for l in range(1, SUBVARIETY_LMAX + 1)]
                else "subvariety counts are wrong"
            ),
        ),
    ]
    return jobs


def _gaussian_counts(lmax: int) -> list[int]:
    """|(1+i)^l - 1|^2 for l = 0..lmax, one Gaussian multiplication per step."""
    out, re, im = [], 1, 0
    for _ in range(lmax + 1):
        out.append((re - 1) ** 2 + im**2)
        re, im = re - im, re + im
    return out


# ---------------------------------------------------------------------------
# cli-session


def _parse(text: str, csv_format: bool):
    """(headers, rows) of a CSV stream or an aligned table."""
    if csv_format:
        parsed = list(csv.reader(io.StringIO(text)))
        return tuple(parsed[0]), [tuple(r) for r in parsed[1:]]
    lines = text.splitlines()
    if len(lines) < 4 or not lines[0].startswith("# command:"):
        raise ValueError("not a table")
    # columns are padded and joined with two spaces; no cell holds two spaces
    cells = [tuple(re.split(r"\s{2,}", line.strip())) for line in lines[2:3] + lines[4:]]
    return cells[0], cells[1:]


def _cell_ok(cell: str, expected) -> bool:
    if expected is None:
        return True
    if isinstance(expected, str):
        return cell == expected
    if isinstance(expected, Fraction):
        return oracle.parse_fraction(cell) == expected
    return oracle.parse_int(cell) == expected


def rows_equal(expected_rows):
    """Row check: each expected cell an int, Fraction, exact str or None."""

    def check(headers, rows):
        if len(rows) != len(expected_rows):
            return f"{len(rows)} rows, expected {len(expected_rows)}"
        for row, want in zip(rows, expected_rows):
            if len(row) < len(want) or not all(_cell_ok(c, w) for c, w in zip(row, want)):
                return f"row {row[:3]} is wrong"
        return None

    return check


def points_rows(rows, translation, expected: int):
    def check(headers, table):
        points = [tuple(oracle.parse_fraction(c) for c in row[1:]) for row in table]
        return oracle.check_points(rows, translation, points, expected)

    return check


def verify_rows(names, details=()):
    """Every check passes; details are substrings the detail column must hold."""

    def check(headers, rows):
        if [r[0] for r in rows] != list(names):
            return f"verify rows {[r[0] for r in rows]}"
        if any(r[1] not in ("ok", "pass") for r in rows):
            return f"verify statuses {[r[1] for r in rows]}"
        text = " ".join(r[2] for r in rows)
        missing = [d for d in details if d not in text]
        return f"verify details lack {missing}" if missing else None

    return check


@dataclass
class CliJob:
    argv: list[str]
    code: int
    check_rows: Callable | None = None
    stderr_has: str = ""


def _cli_check(job: CliJob):
    csv_format = "csv" in job.argv

    def check(result):
        code, out, err = result
        if code != job.code:
            first = err.strip().splitlines()[-1:] or [""]
            return ERROR, f"exit {code}, expected {job.code}: {first[0][:120]}"
        if job.stderr_has and job.stderr_has not in err:
            return WRONG, f"stderr lacks {job.stderr_has!r}"
        if job.check_rows is None:
            return None if out == "" else (WRONG, "refusal wrote to stdout")
        try:
            headers, rows = _parse(out, csv_format)
        except (ValueError, IndexError) as exc:
            return WRONG, f"unparseable output: {exc}"
        return _wrong(job.check_rows(headers, rows))

    return check


def cli_jobs(inputs: gen.Inputs, scenario_path: str) -> list[CliJob]:
    """All 8 subcommands on builtins and one generated scenario, small sizes."""
    meta = inputs.meta["cli-generated.json"]
    q, g = meta["q"], meta["g"]
    gen_rows, _ = _scenario_data(inputs, "cli-generated.json")
    counts = [abs(c) for c in oracle.block_counts(meta["blocks"], 12)]
    sub_counts = [abs(c) for c in oracle.block_counts([meta["subvariety_block"]], 8)]
    gauss = _gaussian_counts(64)
    zero4 = [Fraction(0)] * 4
    csv_ = ["--format", "csv"]

    def growth(count, big, lmax):
        return [(l, count(l), big(l), Fraction(count(l), big(l))) for l in range(1, lmax + 1)]

    def compare(count, formula, lmax):
        return [(l, count(l), formula(l), count(l) - formula(l)) for l in range(1, lmax + 1)]

    lefschetz3 = abs(oracle.det_exact(
        [[x - (i == j) for j, x in enumerate(row)] for i, row in enumerate(oracle.matpow(SUMDIFF, 3))]
    ))
    proddiv = ("proddiv r=2 n=1", "proddiv r=3 n=1", "proddiv r=2 n=2")
    every_check = ("polarization", "serre", "lefschetz", "pfaffian") + proddiv + ("dual-isogeny",)
    s = scenario_path
    return [
        CliJob(["scenarios"], 0, lambda h, rows: None if {r[0] for r in rows} == BUILTIN_NAMES
               else "builtin list differs"),
        CliJob(["count", "--scenario", "mult-by-2", "--l", "3"], 0, rows_equal([(3, 49)])),
        CliJob(["count", "--scenario", "mult-by-3-g2", "--l", "2", *csv_], 0,
               rows_equal([(2, oracle.mult_count(3, 2, 2))])),
        CliJob(["count", "--scenario", "gaussian-cm", "--l", "64", *csv_], 0,
               rows_equal([(64, gauss[64])])),
        # 6,021 digits: past the interpreter's default int -> str limit
        CliJob(["count", "--scenario", "gaussian-cm", "--l", "20000", *csv_], 0,
               rows_equal([(20000, oracle.gaussian_count(20000))])),
        CliJob(["enumerate", "--scenario", "mult-by-3", "--l", "1"], 0,
               points_rows(_scalar(2, 3), [Fraction(0)] * 2, 4)),
        CliJob(["enumerate", "--scenario", "bielliptic-quotient", "--l", "1", *csv_], 0,
               points_rows(_scalar(4, 3), zero4, 16)),
        CliJob(["enumerate", "--scenario", "diagonal-subvariety", "--l", "4", "--budget", "1000"],
               2, None, "exceeds budget 1000"),
        CliJob(["growth", "--scenario", "gaussian-cm", "--lmax", "40", *csv_], 0,
               rows_equal(growth(gauss.__getitem__, lambda l: 2**l, 40))),
        CliJob(["growth", "--scenario", "mult-by-2-g2", "--lmax", "12"], 0,
               rows_equal(growth(lambda l: oracle.mult_count(2, 2, l), lambda l: 4 ** (2 * l), 12))),
        CliJob(["compare", "--scenario", "mult-by-2-g3", "--lmax", "10", *csv_], 0,
               rows_equal(compare(lambda l: oracle.mult_count(2, 3, l),
                                  lambda l: oracle.factor_formula([(1, 4, 3)], l), 10))),
        CliJob(["compare", "--scenario", "diagonal-subvariety", "--lmax", "8"], 0,
               rows_equal(compare(lambda l: oracle.mult_count(2, 2, l),
                                  lambda l: oracle.factor_formula([(1, 4, 2)], l), 8))),
        CliJob(["quotient", "--scenario", "bielliptic-quotient", "--l", "1", *csv_], 0,
               rows_equal([(1, 16, 2, 8, 8, 32)])),
        CliJob(["subvariety", "--scenario", "diagonal-subvariety", "--lmax", "6", *csv_], 0,
               rows_equal(growth(lambda l: oracle.mult_count(2, 1, l), lambda l: 4**l, 6))),
        CliJob(["verify", "--all", "--scenario", "gaussian-cm"], 0,
               verify_rows(every_check, ("degree = 2; q = 2", "fixed points = 1"))),
        CliJob(["verify", "serre", "--scenario", "mult-by-2-g3", *csv_], 0,
               verify_rows(["serre"], ("q = 4",))),
        CliJob(["verify", "lefschetz", "--scenario", "silverman-sumdiff", "--l", "3", *csv_], 0,
               verify_rows(["lefschetz"], (f"fixed points = {lefschetz3}",))),
        CliJob(["verify", "pfaffian", "--scenario", "silverman-sumdiff"], 0,
               verify_rows(["pfaffian"])),
        CliJob(["verify", "dual-isogeny", "--scenario", "unpolarizable-1x4", *csv_], 0,
               verify_rows(["dual-isogeny"], ("m = 4; deg = 16",))),
        CliJob(["verify", "proddiv", "--scenario", "mult-by-2"], 0, verify_rows(proddiv)),
        CliJob(["count", "--scenario", s, "--l", "5", *csv_], 0, rows_equal([(5, counts[5])])),
        CliJob(["enumerate", "--scenario", s, "--l", "1", *csv_], 0,
               points_rows(gen_rows, zero4, counts[1])),
        CliJob(["growth", "--scenario", s, "--lmax", "12", *csv_], 0,
               rows_equal(growth(counts.__getitem__, lambda l: q ** (g * l), 12))),
        CliJob(["compare", "--scenario", s, "--lmax", "12"], 0,
               rows_equal(compare(counts.__getitem__,
                                  lambda l: oracle.factor_formula([(1, q, g)], l), 12))),
        CliJob(["quotient", "--scenario", s, "--l", "1", *csv_], 0,
               rows_equal([(1, counts[1], 2, counts[1] // 2, Fraction(counts[1], 2),
                            Fraction((q - 1) ** g, 2))])),
        CliJob(["subvariety", "--scenario", s, "--lmax", "8", *csv_], 0,
               rows_equal(growth(sub_counts.__getitem__, lambda l: q**l, 8))),
        CliJob(["verify", "--scenario", s], 0,
               verify_rows(every_check, (f"degree = {q**g}; q = {q}",))),
    ]


def cli_subprocess_job(job: CliJob, root: Path, env: dict) -> Job:
    def call():
        done = subprocess.run(
            [sys.executable, "-m", "torusdyn.cli", *job.argv],
            cwd=root, env=env, capture_output=True, text=True, timeout=120,
        )
        return done.returncode, done.stdout, done.stderr

    return Job(" ".join(job.argv), call, _cli_check(job))


def cli_inprocess_job(job: CliJob, td) -> Job:
    def call():
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = td.cli.main(list(job.argv))
        return code, out.getvalue(), err.getvalue()

    return Job(" ".join(job.argv), call, _cli_check(job))
