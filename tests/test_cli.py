import dataclasses
import hashlib
import json
import random
import re
import shlex
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusdyn import (
    IntegerMatrix,
    TorsionPoint,
    charpoly,
    count_fixed,
    enumerate_fixed,
)
from torusdyn import fixpoint, quotient as quotient_mod
from torusdyn.cli import COMMANDS, FLAGS, VERIFY_TARGETS, Options, main, run_command
from torusdyn.report import Report, render_csv
from torusdyn.scenarios import BUILTINS, SubvarietySpec, resolve_scenario, save_scenario_file

from oracles import parse_csv, random_unimodular


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCount:
    def test_mult_by_2_l3(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--scenario", "mult-by-2", "--l", "3")
        assert code == 0
        assert "49" in out

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "count", "--scenario", "mult-by-2", "--l", "3", "--format", "csv"
        )
        assert code == 0
        headers, rows = parse_csv(out)
        assert headers == ("l", "fixed_points")
        assert rows == (("3", "49"),)


def gaussian_power(z: tuple[int, int], e: int) -> tuple[int, int]:
    """z^e for a Gaussian integer z = (re, im), by repeated squaring."""

    def mul(a, b):
        return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])

    result = (1, 0)
    while e:
        if e & 1:
            result = mul(result, z)
        z = mul(z, z)
        e >>= 1
    return result


class TestBigCount:
    def test_gaussian_l_100000_prints_every_digit(self, capsys, default_int_digit_limit):
        # 1+i on C/Z[i] has |(1+i)^l - 1|^2 fixed points: ~30,000 digits here
        l = 100_000
        code, out, err = run_cli(
            capsys, "count", "--scenario", "gaussian-cm", "--l", str(l), "--format", "csv"
        )
        assert code == 0, err
        re, im = gaussian_power((1, 1), l)
        expected = (re - 1) ** 2 + im**2
        headers, rows = parse_csv(out)
        assert headers == ("l", "fixed_points")
        assert rows[0][0] == str(l)
        assert int(rows[0][1]) == expected
        assert len(rows[0][1]) > 4300


class TestEnumerate:
    def test_deterministic_listing(self, capsys):
        code, first, _ = run_cli(
            capsys, "enumerate", "--scenario", "mult-by-3", "--format", "csv"
        )
        assert code == 0
        code, second, _ = run_cli(
            capsys, "enumerate", "--scenario", "mult-by-3", "--format", "csv"
        )
        assert first == second
        headers, rows = parse_csv(first)
        assert headers == ("index", "x1", "x2")
        assert len(rows) == 4
        assert rows[0] == ("0", "0", "0")
        assert rows[-1] == ("3", "1/2", "1/2")

    @pytest.mark.parametrize(
        "name, l", [("mult-by-3", 2), ("bielliptic-quotient", 1), ("gaussian-cm", 5)]
    )
    def test_rows_are_the_enumerated_points(self, capsys, name, l):
        # the CLI renders from the numerators; the rows must still be the
        # TorsionPoints enumerate_fixed returns, coordinate by coordinate
        code, out, _ = run_cli(
            capsys, "enumerate", "--scenario", name, "--l", str(l), "--format", "csv"
        )
        assert code == 0
        points = enumerate_fixed(resolve_scenario(name).endomorphism, l)
        want = tuple(
            (str(i), *map(str, p.coordinates)) for i, p in enumerate(points)
        )
        assert parse_csv(out)[1] == want

    @pytest.mark.parametrize(
        "fmt, lines, digest",
        [
            ("csv", 50_626, "85b87c37ba8b8cef2731ba267105df3479b2dbdd0f136136a81a8224a3bd892e"),
            ("table", 50_629, "7dbc0452a5f78c7b5f8663503b7f73ecc41d6e83083a6852a56b00e81b0fa45f"),
        ],
    )
    def test_large_listing_is_pinned(self, capsys, fmt, lines, digest):
        # [2]^4 - I = 15 I on E x E: 15^4 = 50,625 rows, each byte pinned
        code, out, _ = run_cli(
            capsys, "enumerate", "--scenario", "diagonal-subvariety", "--l", "4",
            "--format", fmt,
        )
        assert code == 0
        assert out.count("\n") == lines
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestGrowth:
    def test_gaussian_csv(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "growth",
            "--scenario",
            "gaussian-cm",
            "--lmax",
            "10",
            "--format",
            "csv",
        )
        assert code == 0
        headers, rows = parse_csv(out)
        assert headers == ("l", "exact_count", "asymptote", "ratio")
        assert len(rows) == 10
        assert rows[0] == ("1", "1", "2", "1/2")

    def test_unpolarized_scenario_is_validation_error(self, capsys):
        code, _, err = run_cli(capsys, "growth", "--scenario", "unpolarizable-1x4")
        assert code == 1
        assert "not polarized" in err


class TestCompare:
    def test_mult_by_2_table(self, capsys):
        code, out, err = run_cli(
            capsys,
            "compare",
            "--scenario",
            "mult-by-2",
            "--lmax",
            "5",
            "--format",
            "csv",
        )
        assert code == 0
        headers, rows = parse_csv(out)
        assert headers == ("l", "exact_count", "formula_value", "difference")
        assert rows[0] == ("1", "1", "3", "-2")
        assert rows[1] == ("2", "9", "15", "-6")
        assert "formula" in err

    def test_missing_factors(self, capsys):
        code, _, err = run_cli(capsys, "compare", "--scenario", "silverman-sumdiff")
        assert code == 1
        assert "factors" in err

    def test_degenerate_row_is_flagged_not_refused(self, tmp_path, capsys):
        # a quarter turn has M^4 = I, so its fourth iterate is degenerate
        path = tmp_path / "quarter-turn.json"
        path.write_text(json.dumps({
            "name": "quarter-turn",
            "torus": {"g": "1"},
            "endomorphism": {"M": [["0", "-1"], ["1", "0"]]},
            "factors": [{"g": "1", "q": "2"}],
        }))
        warning = "warning: l = 4: degenerate (det(M^l - I) = 0), count omitted"
        argv = ("compare", "--lmax", "4", "--scenario", str(path))
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, err
        assert out.splitlines()[-1] == "4  degenerate   15"
        assert warning in err.splitlines()
        code, out, err = run_cli(capsys, *argv, "--format", "csv")
        assert code == 0, err
        assert parse_csv(out)[1][-1] == ("4", "degenerate", "15", "")
        assert warning in err.splitlines()


class TestQuotient:
    def test_bielliptic_rows(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "quotient",
            "--scenario",
            "bielliptic-quotient",
            "--lmax",
            "2",
            "--format",
            "csv",
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert rows[0] == ("1", "16", "2", "8", "8", "32")
        assert rows[1] == ("2", "4096", "2", "2048", "2048", "3200")

    def test_lmax_counts_without_any_grid(self, capsys, monkeypatch):
        # row 4 has 80^4 fixed points upstairs, past the enumeration budget
        def refuse(*args):
            raise AssertionError("the quotient path must not enumerate")

        monkeypatch.setattr(fixpoint, "fixed_columns", refuse)
        monkeypatch.setattr(quotient_mod, "_grid_classes", refuse)
        code, out, err = run_cli(
            capsys, "quotient", "--scenario", "bielliptic-quotient", "--lmax", "4"
        )
        assert (code, err) == (0, "")
        last = out.splitlines()[-1].split()
        assert last == ["4", "40960000", "2", "20480000", "20480000", "21516800"]

    def test_action_checked_once_per_table(self, capsys, monkeypatch):
        calls = []
        for name in ("validate_action", "lift_compatibility"):
            original = getattr(quotient_mod, name)

            def counted(*args, name=name, original=original):
                calls.append(name)
                return original(*args)

            monkeypatch.setattr(quotient_mod, name, counted)
        code, out, _ = run_cli(
            capsys, "quotient", "--scenario", "bielliptic-quotient", "--lmax", "3"
        )
        assert code == 0
        assert out.splitlines()[-1].split()[:2] == ["3", "456976"]
        assert sorted(calls) == ["lift_compatibility", "validate_action"]

    @pytest.mark.parametrize(
        "changes, message",
        [
            (
                # [2] sends the involution's 1/2 to 0, and (U, 0) is not in G
                {
                    "endomorphism": {"M": [[2 * (i == j) for j in range(4)] for i in range(4)]},
                    "factors": [{"g": 1, "q": 4, "r": 2}],
                },
                "endomorphism does not descend: "
                "no group element matches f composed with element 1",
            ),
            (
                {"action": BUILTINS["bielliptic-quotient"][1]()["action"][1:]},
                "invalid group action: identity element missing; "
                "closure fails: element 0 composed with 0",
            ),
        ],
        ids=["not-descending", "no-identity"],
    )
    def test_refusal_is_exact(self, tmp_path, capsys, changes, message):
        # bielliptic-quotient's scenario file with the given fields replaced
        path = tmp_path / "refused.json"
        path.write_text(
            json.dumps({"name": "refused", **BUILTINS["bielliptic-quotient"][1](), **changes})
        )
        code, out, err = run_cli(capsys, "quotient", "--scenario", str(path), "--l", "1")
        assert (code, out, err) == (1, "", f"error: {message}\n")


class TestSubvariety:
    def test_diagonal_counts(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "subvariety",
            "--scenario",
            "diagonal-subvariety",
            "--lmax",
            "3",
            "--format",
            "csv",
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert rows[0] == ("1", "1", "4", "1/4")
        assert rows[2] == ("3", "49", "64", "49/64")

    def test_period_two_translate(self, tmp_path, capsys):
        # [2]^2 = [4] fixes the 3-torsion translate Q of the diagonal, so the
        # rows count Fix([4]^l) on Q + diagonal against (q^2)^l = 16^l
        scenario = resolve_scenario("diagonal-subvariety")
        translate = TorsionPoint.reduce([Fraction(1, 3), 0, Fraction(1, 3), 0])
        sub = SubvarietySpec(scenario.subvariety.basis, translate, period=2)
        path = tmp_path / "period-two.json"
        save_scenario_file(dataclasses.replace(scenario, subvariety=sub), path)
        expected = [(str(l), str((4**l - 1) ** 2), str(16**l)) for l in (1, 2, 3)]
        for opts, want in ((("--lmax", "3"), expected), (("--l", "2"), expected[1:2])):
            code, out, err = run_cli(
                capsys, "subvariety", "--scenario", str(path), *opts, "--format", "csv"
            )
            assert code == 0, err
            _, rows = parse_csv(out)
            assert [row[:3] for row in rows] == want

    def two_curves_file(self, tmp_path, basis, translate=("0",) * 4) -> str:
        """E x E with J = S = J0 + J0 and M = diag(2, 2, -2, -2)."""
        j = [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]]
        m = [[2, 0, 0, 0], [0, 2, 0, 0], [0, 0, -2, 0], [0, 0, 0, -2]]
        data = {
            "name": "two-curves",
            "torus": {"g": 2, "J": j, "S": j},
            "endomorphism": {"M": m, "analytic": True},
            "subvariety": {"basis": basis, "translate": list(translate)},
        }
        path = tmp_path / "two-curves.json"
        path.write_text(json.dumps(data))
        return str(path)

    def test_real_subtorus_is_1(self, tmp_path, capsys):
        # span(e1, e3) takes one real direction from each curve: it is
        # invariant and saturated, but not a complex subtorus
        path = self.two_curves_file(tmp_path, [[1, 0], [0, 0], [0, 1], [0, 0]])
        code, out, err = run_cli(capsys, "subvariety", "--scenario", path, "--lmax", "3")
        assert (code, out) == (1, "")
        assert err == (
            "error: subvariety basis does not span a complex subtorus"
            " (J B is not in the span of B)\n"
        )

    def test_j_stable_random_basis_is_counted(self, tmp_path, capsys):
        # span(e1, e2), the first curve, in a random basis: [2] on it
        rng = random.Random(149)
        for _ in range(5):
            u = random_unimodular(rng, 2).to_lists()
            basis = [*u, [0, 0], [0, 0]]
            path = self.two_curves_file(tmp_path, basis)
            code, out, err = run_cli(
                capsys, "subvariety", "--scenario", path, "--lmax", "3", "--format", "csv"
            )
            assert code == 0, err
            _, rows = parse_csv(out)
            assert [row[:2] for row in rows] == [("1", "1"), ("2", "9"), ("3", "49")]

    @pytest.mark.parametrize(
        "basis, translate, reason",
        [
            # span(2 e1, 2 e2): J-stable and invariant, but of index 4 in its saturation
            ([[2, 0], [0, 2], [0, 0], [0, 0]], ("0",) * 4, "basis is not saturated"),
            # span(e1 + e3, e2 + e4): J-stable, but M moves it onto the antidiagonal
            ([[1, 0], [0, 1], [1, 0], [0, 1]], ("0",) * 4, "sublattice is not invariant"),
            # [2] sends the 2-torsion translate e1 / 2 to 0
            ([[1, 0], [0, 1], [0, 0], [0, 0]], ("1/2", "0", "0", "0"), "translate is not periodic"),
        ],
    )
    def test_bad_subvariety_is_refused_by_every_command(
        self, tmp_path, capsys, basis, translate, reason
    ):
        # the scenario is refused when it is built, so count, which never
        # reads the subvariety, refuses it as subvariety does
        path = self.two_curves_file(tmp_path, basis, translate)
        for argv in (("count", "--l", "2"), ("subvariety", "--l", "2")):
            code, out, err = run_cli(capsys, *argv, "--scenario", path)
            assert (code, out) == (1, "")
            assert err.startswith(f"error: subvariety: {reason}")


class TestVerify:
    def test_all_flag_reports_polarization(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--all", "--scenario", "silverman-sumdiff"
        )
        assert code == 0
        assert "q = 2" in out

    def test_single_target(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "pfaffian", "--scenario", "gaussian-cm"
        )
        assert code == 0
        assert "pass" in out

    def test_lefschetz_takes_one_power(self, capsys, monkeypatch):
        gaussian = resolve_scenario("gaussian-cm").endomorphism
        l = 20000
        want = (
            f"l = {l}; lefschetz = {charpoly(gaussian.matrix**l)(1)};"
            f" fixed points = {count_fixed(gaussian, l)}"
        )
        exponents = []
        original = IntegerMatrix.__pow__

        def counted(m, e):
            exponents.append(e)
            return original(m, e)

        monkeypatch.setattr(IntegerMatrix, "__pow__", counted)
        code, out, _ = run_cli(
            capsys, "verify", "lefschetz", "--scenario", "gaussian-cm", "--l", str(l),
            "--format", "csv",
        )
        assert code == 0
        assert exponents == [l]
        assert parse_csv(out)[1] == (("lefschetz", "pass", want),)

    def test_dual_isogeny_target(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "dual-isogeny", "--scenario", "gaussian-cm"
        )
        assert code == 0
        assert "m = 2" in out

    def test_verify_all_skips_inapplicable(self, capsys):
        code, out, err = run_cli(
            capsys, "verify", "--all", "--scenario", "unpolarizable-1x4"
        )
        assert code == 0
        assert "degree = 16" in out
        assert "skipped" in err

    def test_single_inapplicable_target_is_1(self, capsys):
        code, out, err = run_cli(
            capsys, "verify", "serre", "--scenario", "unpolarizable-1x4"
        )
        assert (code, out) == (1, "")
        assert err == "error: scenario 'unpolarizable-1x4' is not polarized (no multiplier q > 1)\n"

    def test_verify_all_skips_serre_when_root_isolation_fails(self, tmp_path, capsys):
        # q = 10^400 + 9 and the charpoly coefficients overflow a float
        big, i = str(10**200), [["0", "-1"], ["1", "0"]]
        path = tmp_path / "huge-cm.json"
        path.write_text(json.dumps({
            "name": "huge-cm",
            "torus": {"g": "1", "J": i, "S": i},
            "endomorphism": {"M": [[big, "-3"], ["3", big]], "analytic": True},
        }))
        code, out, err = run_cli(
            capsys, "verify", "--all", "--scenario", str(path), "--format", "csv"
        )
        assert code == 0, err
        checks = [row[0] for row in parse_csv(out)[1]]
        assert checks == [
            "polarization", "lefschetz", "pfaffian",
            "proddiv r=2 n=1", "proddiv r=3 n=1", "proddiv r=2 n=2", "dual-isogeny",
        ]
        assert err.startswith("warning: serre: skipped (root isolation failed: ")
        code, out, err = run_cli(capsys, "verify", "serre", "--scenario", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: root isolation failed: ")


class TestNoRiemannForm:
    REFUSAL = "scenario 'no-form' carries no Riemann form"

    @pytest.fixture
    def path(self, tmp_path):
        path = tmp_path / "no-form.json"
        path.write_text(json.dumps({
            "name": "no-form",
            "torus": {"g": "1"},
            "endomorphism": {"M": [["2", "0"], ["0", "2"]]},
        }))
        return str(path)

    def test_verify_all_skips_each_check_that_needs_it(self, capsys, path):
        code, out, err = run_cli(capsys, "verify", "--all", "--scenario", path, "--format", "csv")
        assert code == 0, err
        assert [row[0] for row in parse_csv(out)[1]] == [
            "lefschetz", "proddiv r=2 n=1", "proddiv r=3 n=1", "proddiv r=2 n=2", "dual-isogeny",
        ]
        assert err.splitlines() == [
            f"warning: {check}: skipped ({self.REFUSAL})"
            for check in ("polarization", "serre", "pfaffian")
        ]

    @pytest.mark.parametrize(
        "argv", [("verify", "pfaffian"), ("verify", "polarization"), ("growth",)]
    )
    def test_command_that_needs_it_is_1(self, capsys, path, argv):
        code, out, err = run_cli(capsys, *argv, "--scenario", path)
        assert (code, out, err) == (1, "", f"error: {self.REFUSAL}\n")


def help_entries(text: str) -> dict[str, list[str]]:
    """The first word of each argument entry of a --help text, by section."""
    entries: dict[str, list[str]] = {"positional": [], "options": []}
    section = None
    for line in text.splitlines():
        if line.endswith(":") and not line.startswith(" "):
            # "optional arguments:" before Python 3.10's "options:"
            section = "positional" if line.startswith("positional") else "options"
        elif section and re.match(r"  \S", line):
            entries[section].append(line.split()[0])
    return entries


class TestHelp:
    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_help_lists_only_the_flags_read(self, capsys, command):
        with pytest.raises(SystemExit) as stop:
            main([command, "--help"])
        assert stop.value.code == 0
        out = capsys.readouterr().out
        reads = COMMANDS[command].reads
        options = ["-h,", *(f"--{flag}" for flag in reads), "--format", "--out"]
        positional = []
        if command == "verify":
            options.append("--all")
            positional.append("{" + ",".join(VERIFY_TARGETS) + "}")
        entries = help_entries(out)
        assert sorted(entries["options"]) == sorted(options)
        assert entries["positional"] == positional
        for flag in set(FLAGS) & set(reads):
            default = getattr(Options, flag)
            if default is not None:
                assert f"(default {default})" in out

    @pytest.mark.parametrize(
        "command,text",
        [
            ("growth", "table up to this iterate (default 10)"),
            ("compare", "table up to this iterate (default 10)"),
            ("quotient", "table up to this iterate"),
            ("subvariety", "table up to this iterate"),
        ],
    )
    def test_lmax_help_names_the_default_applied(self, capsys, command, text):
        # growth and compare tabulate l = 1..10 without --lmax; quotient and
        # subvariety then count the single iterate --l
        with pytest.raises(SystemExit) as stop:
            main([command, "--help"])
        assert stop.value.code == 0
        lines = [" ".join(line.split()) for line in capsys.readouterr().out.splitlines()]
        assert f"--lmax LMAX {text}" in lines

    def test_top_level_help_lists_every_command(self, capsys):
        with pytest.raises(SystemExit) as stop:
            main(["--help"])
        assert stop.value.code == 0
        out = capsys.readouterr().out
        assert all(re.search(rf"^    {command} ", out, re.M) for command in COMMANDS)


class TestExitCodes:
    def test_degenerate_is_2(self, capsys):
        code, _, err = run_cli(capsys, "count", "--scenario", "unpolarizable-1x4")
        assert code == 2
        assert "degenerate" in err.lower() or "positive-dimensional" in err

    def test_budget_refusal_is_2(self, capsys):
        code, _, err = run_cli(
            capsys,
            "enumerate",
            "--scenario",
            "mult-by-2-g2",
            "--l",
            "5",
            "--budget",
            "100",
        )
        assert code == 2
        assert "budget" in err

    def test_validation_error_is_1(self, capsys):
        code, _, err = run_cli(capsys, "count", "--scenario", "no-such-scenario")
        assert code == 1
        assert "unknown scenario" in err

    def test_schema_error_is_1(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"name": "bad", "torus": {"g": "0"}}))
        code, _, err = run_cli(capsys, "count", "--scenario", str(path))
        assert code == 1
        assert "torus.g" in err

    def test_deeply_nested_json_is_1(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        code, out, err = run_cli(capsys, "count", "--scenario", str(path))
        assert (code, out) == (1, "")
        assert err.startswith("error: scenario file is not valid JSON: ")
        assert err.count("\n") == 1

    def test_line_break_in_scenario_name_is_1(self, tmp_path, capsys):
        path = tmp_path / "split.json"
        scenario = dataclasses.replace(resolve_scenario("gaussian-cm"), name="a\nb")
        save_scenario_file(scenario, path)
        code, out, err = run_cli(capsys, "count", "--scenario", str(path))
        assert (code, out, err) == (1, "", "error: name: must not contain a line break\n")

    def test_line_break_in_scenario_path_is_1(self, tmp_path, capsys):
        # a valid file, but the '# command:' echo would split over two lines
        directory = tmp_path / "two\nlines"
        directory.mkdir()
        path = directory / "gauss.json"
        save_scenario_file(resolve_scenario("gaussian-cm"), path)
        code, out, err = run_cli(capsys, "count", "--scenario", str(path))
        assert (code, out, err) == (1, "", "error: --scenario must not contain a line break\n")

    def test_empty_scenario_reference_is_1(self, capsys):
        code, out, err = run_cli(capsys, "count", "--scenario", "")
        assert (code, out, err) == (1, "", "error: empty scenario reference\n")

    def test_missing_scenario_flag_is_1(self, capsys):
        code, _, err = run_cli(capsys, "count")
        assert code == 1
        assert "--scenario" in err

    def test_bad_flag_value_is_1(self, capsys):
        code, _, err = run_cli(
            capsys, "count", "--scenario", "mult-by-2", "--l", "zero"
        )
        assert code == 1
        assert "invalid" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("verify", "serre", "--scenario", "gaussian-cm", "--tolerance", "inf"),
            ("verify", "serre", "--scenario", "gaussian-cm", "--tolerance", "nan"),
            ("verify", "serre", "--scenario", "gaussian-cm", "--tolerance", "-1"),
            ("enumerate", "--scenario", "mult-by-3", "--budget", "0"),
            ("enumerate", "--scenario", "mult-by-3", "--budget", "-1"),
        ],
    )
    def test_out_of_range_value_is_1(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {argv[-2]} must be")

    def test_bad_verify_target_is_1(self, capsys):
        code, _, err = run_cli(
            capsys, "verify", "no-such-target", "--scenario", "mult-by-2"
        )
        assert code == 1
        assert "invalid choice" in err


# a scenario each command runs on, and the iterates its CSV rows report
SCENARIO_FOR = {
    "count": "mult-by-2",
    "enumerate": "mult-by-2",
    "growth": "mult-by-2",
    "compare": "mult-by-2",
    "quotient": "bielliptic-quotient",
    "subvariety": "diagonal-subvariety",
    "verify": "mult-by-2",
}


def shown_iterates(command, rows):
    if command == "enumerate":  # [2]^l on an elliptic curve: (2^l - 1)^2 points
        return [l for l in range(1, 10) if (2**l - 1) ** 2 == len(rows)]
    if command == "verify":
        return [int(d.split(";")[0].removeprefix("l = ")) for c, _, d in rows if c == "lefschetz"]
    return [int(row[0]) for row in rows]


class TestIterateFlags:
    def test_every_command_has_a_case(self):
        assert set(SCENARIO_FOR) == set(COMMANDS) - {"scenarios"}

    @pytest.mark.parametrize("flag", ("l", "lmax"))
    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_flag_is_read_or_refused(self, capsys, command, flag):
        argv = [command, f"--{flag}", "2"]
        if command in SCENARIO_FOR:
            argv += ["--scenario", SCENARIO_FOR[command]]
        code, out, err = run_cli(capsys, *argv)
        if flag not in COMMANDS[command].reads:
            assert (code, out, err) == (1, "", f"error: {command} does not read --{flag}\n")
            return
        assert code == 0, err
        echo = out.splitlines()[0]
        assert echo.endswith(f" --{flag} 2"), echo
        code, out, err = run_cli(capsys, *argv, "--format", "csv")
        assert code == 0, err
        assert shown_iterates(command, parse_csv(out)[1]) == ([2] if flag == "l" else [1, 2])

    @pytest.mark.parametrize("flag, value", (("budget", "5"), ("tolerance", "3")))
    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_other_flag_is_read_or_refused(self, capsys, command, flag, value):
        argv = [command, f"--{flag}", value]
        if command in SCENARIO_FOR:
            argv += ["--scenario", SCENARIO_FOR[command]]
        code, out, err = run_cli(capsys, *argv)
        if flag not in COMMANDS[command].reads:
            assert (code, out, err) == (1, "", f"error: {command} does not read --{flag}\n")
        else:
            assert code in (0, 2), err  # a budget of 5 may refuse the fixed set

    @pytest.mark.parametrize(
        "command", [c for c in COMMANDS if {"l", "lmax"} <= set(COMMANDS[c].reads)]
    )
    def test_l_with_lmax_refused(self, capsys, command):
        argv = [command, "--l", "2", "--lmax", "1", "--scenario", SCENARIO_FOR[command]]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (1, "", "error: --l and --lmax cannot be combined\n")

    def test_scenarios_refuses_a_scenario(self, capsys):
        code, out, err = run_cli(capsys, "scenarios", "--scenario", "mult-by-2")
        assert (code, out, err) == (1, "", "error: scenarios does not read --scenario\n")

    @pytest.mark.parametrize("variant", ((), ("--l", "2"), ("--lmax", "3")))
    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_echo_reproduces_the_run(self, capsys, command, variant):
        argv = [command, *variant]
        if command in SCENARIO_FOR:
            argv += ["--scenario", SCENARIO_FOR[command]]
        code, out, err = run_cli(capsys, *argv)
        if variant and variant[0][2:] not in COMMANDS[command].reads:
            assert code == 1
            return
        assert code == 0, err
        echo = out.splitlines()[0].removeprefix("# command: ")
        assert run_cli(capsys, *shlex.split(echo))[:2] == (0, out), echo

    def test_echo_reproduces_a_file_scenario_run(self, tmp_path, capsys):
        # the file's name field differs from its file name, and its
        # directory name needs shell quoting
        directory = tmp_path / "two words"
        directory.mkdir()
        path = directory / "gauss-file.json"
        scenario = dataclasses.replace(resolve_scenario("gaussian-cm"), name="gauss-field")
        save_scenario_file(scenario, path)
        code, out, err = run_cli(capsys, "count", "--scenario", str(path), "--l", "2")
        assert code == 0, err
        echo = out.splitlines()[0].removeprefix("# command: ")
        assert shlex.split(echo) == ["count", "--scenario", str(path), "--l", "2"]
        assert "# scenario: gauss-field" in out
        assert run_cli(capsys, *shlex.split(echo)) == (0, out, "")

    @pytest.mark.parametrize(
        "argv",
        (
            "verify serre --scenario gaussian-cm --l 1 --tolerance 0.001",
            "enumerate --scenario mult-by-2 --l 1 --budget 7",
        ),
    )
    def test_echo_names_a_given_budget_or_tolerance(self, capsys, argv):
        code, out, _ = run_cli(capsys, *argv.split())
        assert code == 0
        assert out.splitlines()[0] == f"# command: {argv}"

    def test_all_flag_with_another_target_refused(self, capsys):
        code, out, err = run_cli(capsys, "verify", "serre", "--all", "--scenario", "gaussian-cm")
        assert (code, out) == (1, "")
        assert "--all" in err


class TestScenariosCommand:
    def test_lists_builtins(self, capsys):
        code, out, _ = run_cli(capsys, "scenarios")
        assert code == 0
        for name in (
            "gaussian-cm",
            "silverman-sumdiff",
            "unpolarizable-1x4",
            "bielliptic-quotient",
            "diagonal-subvariety",
            "mult-by-<m>",
        ):
            assert name in out


class TestBuiltinNameAgainstFile:
    """A builtin name wins over a file of that name; a path names the file."""

    @pytest.fixture
    def shadowing_file(self, tmp_path, monkeypatch):
        scenario = dataclasses.replace(resolve_scenario("mult-by-2"), name="from-file")
        save_scenario_file(scenario, tmp_path / "gaussian-cm")
        monkeypatch.chdir(tmp_path)

    def test_builtin_name_resolves_the_builtin(self, capsys, shadowing_file):
        code, out, _ = run_cli(capsys, "count", "--scenario", "gaussian-cm", "--l", "2")
        assert code == 0
        assert out.splitlines()[:2] == [
            "# command: count --scenario gaussian-cm --l 2",
            "# scenario: gaussian-cm",
        ]
        assert out.split()[-1] == "5"

    def test_path_loads_the_file(self, capsys, shadowing_file):
        code, out, _ = run_cli(capsys, "count", "--scenario", "./gaussian-cm", "--l", "2")
        assert code == 0
        assert out.splitlines()[:2] == [
            "# command: count --scenario ./gaussian-cm --l 2",
            "# scenario: from-file",
        ]
        assert out.split()[-1] == "9"


# any text, weighted towards the characters CSV has to quote
CELLS = st.text(
    st.one_of(st.sampled_from(',"\n\r '), st.characters(exclude_categories=("Cs",))),
    max_size=6,
)


class TestCsvRoundTrip:
    @pytest.mark.parametrize(
        "command,name,opts",
        [
            ("count", "mult-by-2", Options(l=3)),
            ("growth", "gaussian-cm", Options(lmax=6)),
            ("compare", "mult-by-2", Options(lmax=4)),
            ("enumerate", "mult-by-3", Options(l=1)),
            ("quotient", "bielliptic-quotient", Options(l=1)),
            ("verify", "silverman-sumdiff", Options()),
        ],
    )
    def test_reparsed_csv_equals_report(self, command, name, opts):
        report = run_command(command, resolve_scenario(name), opts)
        headers, rows = parse_csv(render_csv(report))
        assert headers == report.headers
        assert rows == report.rows

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        st.integers(1, 4).flatmap(
            lambda width: st.tuples(
                st.tuples(*[CELLS] * width),
                st.lists(st.tuples(*[CELLS] * width), max_size=4),
            )
        )
    )
    def test_random_cells_survive(self, table):
        headers, rows = table
        report = Report("command", "scenario", headers, tuple(rows))
        assert parse_csv(render_csv(report)) == (headers, tuple(rows))


class TestOutputFile:
    def test_out_writes_file(self, tmp_path, capsys):
        target = tmp_path / "table.csv"
        code, out, _ = run_cli(
            capsys,
            "growth",
            "--scenario",
            "mult-by-2",
            "--lmax",
            "3",
            "--format",
            "csv",
            "--out",
            str(target),
        )
        assert code == 0
        assert out == ""
        headers, rows = parse_csv(target.read_text())
        assert headers == ("l", "exact_count", "asymptote", "ratio")
        assert len(rows) == 3

    def test_file_scenario_accepted(self, tmp_path, capsys):
        path = tmp_path / "scenario.json"
        save_scenario_file(resolve_scenario("gaussian-cm"), path)
        code, out, _ = run_cli(
            capsys, "count", "--scenario", str(path), "--l", "2", "--format", "csv"
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert rows == (("2", "5"),)
