"""The benchmark's library contract: each workload builds and passes its oracles.

bench/run.py drives the package through its public names and checks every
answer against bench/oracle.py.  One pass of each workload at seed 1
catches, inside the tier-1 run, a change to a name, a signature or a
result that the benchmark relies on; installing bench/spans.py's tracer
does the same for the names the traced run rebinds, and the row types'
attributes that bench/workloads.py reads are pinned by name.  bench/ is imported from its
directory and left unchanged; the inputs it generates go to the ignored
bench/out/.
"""

import functools
import importlib
from fractions import Fraction
from pathlib import Path

import pytest

import torusdyn
import torusdyn.cli  # the cli-session jobs call torusdyn.cli.main
from torusdyn import ComparisonRow, GrowthRow, QuotientBound, enumerate_fixed
from torusdyn.cli import Options, run_command
from torusdyn.scenarios import resolve_scenario

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.mark.parametrize(
    "workload", ["cli-session", "point-sets", "exact-kernels", "deep-iterates"]
)
def test_one_pass_has_no_failed_operation(workload, monkeypatch, default_int_digit_limit):
    # default_int_digit_limit restores the int <-> str cap that cli.main lifts
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.chdir(BENCH.parent)  # cli-session passes scenario paths relative to the root
    run = importlib.import_module("run")
    jobs = run.build(workload, 1, torusdyn)
    tally = run.Tally()
    run.run_pass(jobs, run.oracle_checker(tally, {}))
    assert tally.attempted == len(jobs) > 0
    assert tally.failed == 0, dict(tally.messages)


def test_tracer_rebinds_and_restores_every_traced_name(monkeypatch):
    # bench/run.py --trace 1 wraps these names; a renamed or removed one
    # would otherwise break only the traced run
    monkeypatch.syspath_prepend(str(BENCH))
    spans = importlib.import_module("spans")

    def resolve(module_name, attr):
        owner = importlib.import_module(module_name)
        *path, last = attr.split(".")
        owner = functools.reduce(getattr, path, owner)
        return owner, last, getattr(owner, last)

    originals = {name: resolve(*where) for name, where in spans.TRACED.items()}
    assert all(callable(fn) for _, _, fn in originals.values())
    with spans.Tracer():
        for name, (owner, last, original) in originals.items():
            assert getattr(owner, last) is not original, f"{name} was not rebound"
    for name, (owner, last, original) in originals.items():
        assert getattr(owner, last) is original, f"{name} was not restored"


# the attributes of each row type that bench/workloads.py's checks read
BENCH_READS = {
    GrowthRow: ("l", "exact_count", "asymptote", "ratio"),
    ComparisonRow: ("l", "exact_count", "formula_value", "difference", "degenerate"),
    QuotientBound: (
        "l",
        "upstairs_count",
        "group_order",
        "orbit_count",
        "lower_bound",
        "formula_bound",
    ),
}


@pytest.mark.parametrize("row_type", list(BENCH_READS), ids=lambda t: t.__name__)
def test_rows_keep_every_attribute_the_bench_reads(row_type):
    # a named tuple: the row is its printed cells, in column order
    row = row_type(*range(1, len(row_type._fields) + 1))
    assert tuple(row) == tuple(range(1, len(row_type._fields) + 1))
    for name in BENCH_READS[row_type]:
        getattr(row, name)


def test_a_comparison_row_is_degenerate_exactly_without_a_count():
    assert ComparisonRow(1, None, 3, None).degenerate
    assert not ComparisonRow(1, 1, 3, -2).degenerate
    assert not ComparisonRow(1, 0, 3, -3).degenerate


@pytest.mark.parametrize(
    "command, scenario, row_type",
    [
        ("growth", "gaussian-cm", GrowthRow),
        ("compare", "gaussian-cm", ComparisonRow),
        ("quotient", "bielliptic-quotient", QuotientBound),
    ],
)
def test_table_headers_are_the_row_fields(command, scenario, row_type):
    report = run_command(command, resolve_scenario(scenario), Options(lmax=2))
    assert report.headers == row_type._fields


def test_a_point_is_its_own_coordinates():
    # point-sets' check holds [p.coordinates for p in result] beside the
    # result, 50,625 points here; a copy per point would add 50,625 tuples
    points = enumerate_fixed(resolve_scenario("diagonal-subvariety").endomorphism, 4)
    assert len(points) == 15**4
    assert all(p.coordinates is p for p in points)
    assert all(isinstance(p, tuple) for p in points)
    assert all(type(c) is Fraction for p in points for c in p)
