"""The benchmark's library contract: each workload builds and passes its oracles.

bench/run.py drives the package through its public names and checks every
answer against bench/oracle.py.  One pass of each workload at seed 1
catches, inside the tier-1 run, a change to a name, a signature or a
result that the benchmark relies on; installing bench/spans.py's tracer
does the same for the names the traced run rebinds.  bench/ is imported from its
directory and left unchanged; the inputs it generates go to the ignored
bench/out/.
"""

import functools
import importlib
from pathlib import Path

import pytest

import torusdyn
import torusdyn.cli  # the cli-session jobs call torusdyn.cli.main

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
