"""Golden stdout, stderr and exit code of every subcommand on the six builtins.

cli_golden.json holds, for each command line of COMMAND_LINES, the exit
code, the exact stdout and the exact stderr (notes, warnings and refusal
messages), as a table and as CSV, at small sizes; `count
--l 1100` takes every builtin past count_fixed's bit bound, onto the
charpoly path, and `verify lefschetz --l 1100` pins the Lefschetz number
read from that path against Bareiss on M^l.  Any change to what the CLI
prints fails here.  To record an intended change, run
`PYTHONPATH=src python tests/test_cli_golden.py`, which rewrites the
JSON, and review its diff.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from torusdyn.cli import COMMANDS, main

GOLDEN = Path(__file__).with_name("cli_golden.json")

BUILTINS = (
    "mult-by-2",
    "gaussian-cm",
    "silverman-sumdiff",
    "unpolarizable-1x4",
    "bielliptic-quotient",
    "diagonal-subvariety",
)
RUNS = (
    "count --l 2",
    "count --l 1100",
    "enumerate --l 1",
    "growth --lmax 3",
    "compare --lmax 3",
    "quotient --l 1",
    "quotient --lmax 2",
    "subvariety --l 2",
    "subvariety --lmax 3",
    "verify --l 1",
    "verify lefschetz --l 1100",
)
COMMAND_LINES = [
    line + f" --format {fmt}"
    for fmt in ("table", "csv")
    for line in (
        "scenarios",
        *(f"{run} --scenario {name}" for name in BUILTINS for run in RUNS),
    )
]


def run(line: str) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(line.split())
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def test_every_command_is_covered():
    assert {line.split()[0] for line in COMMAND_LINES} == set(COMMANDS)


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("line", COMMAND_LINES)
def test_stdout_and_exit_code_match(golden, line):
    assert run(line) == golden[line]


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps({line: run(line) for line in COMMAND_LINES}, indent=1) + "\n"
    )
