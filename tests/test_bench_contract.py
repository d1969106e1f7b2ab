"""The benchmark's library contract: each workload builds and passes its oracles.

bench/run.py drives the package through its public names and checks every
answer against bench/oracle.py.  One pass of each workload at seed 1
catches, inside the tier-1 run, a change to a name, a signature or a
result that the benchmark relies on.  bench/ is imported from its
directory and left unchanged; the inputs it generates go to the ignored
bench/out/.
"""

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
