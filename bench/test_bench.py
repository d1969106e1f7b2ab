"""Self-tests of the benchmark: generator, oracles, tracer and metric names.

    PYTHONPATH=src python -m pytest -q bench/test_bench.py
"""

import json
from fractions import Fraction
from pathlib import Path

import pytest

import gen
import oracle
import run
import spans
import workloads

import torusdyn
import torusdyn.cli

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())

# The per-layer metric names the benchmark promises, in the order they are reported.
PER_LAYER_NAMES = [
    "cli.interpreter_ms", "cli.import_ms", "cli.import_numpy_ms", "cli.main_ms",
    "scenarios.resolve_scenario.self_s", "scenarios.load_scenario_file.self_s",
    "report.render_table.self_s", "report.render_csv.self_s", "report.bytes",
    "fixpoint.enumerate_fixed.calls", "fixpoint.enumerate_fixed.self_s",
    "fixpoint.enumerate_fixed.points", "fixpoint.enumerate_fixed.points_per_s",
    "fixpoint.brute_force_count.self_s", "fixpoint.brute_force_count.grid_points",
    "fixpoint.brute_force_count.hit_ratio",
    "fixpoint.count_fixed.calls", "fixpoint.count_fixed.self_s",
    "fixpoint.growth_table.self_s", "fixpoint.compare_exact.self_s",
    "fixpoint.eigenvalue_magnitude_check.self_s", "fixpoint.periodic_subvariety_count.self_s",
    "quotient.orbit_partition.self_s", "quotient.orbit_partition.points_per_s",
    "quotient.validate_action.self_s", "quotient.lift_compatibility.self_s",
    "quotient.quotient_fixed_lower_bound.self_s",
    "lattice.power.calls", "lattice.power.self_s", "lattice.complementary_isogeny.self_s",
    "lattice.restrict_to_sublattice.self_s", "lattice.polarization_multiplier.self_s",
    "linalg.smith_normal_form.calls", "linalg.smith_normal_form.self_s",
    "linalg.smith_normal_form.transform_bits", "linalg.smith_normal_form.det_bits",
    "linalg.charpoly.self_s", "linalg.pfaffian.self_s",
    "linalg.matpow.calls", "linalg.matpow.self_s", "linalg.matpow.result_bits",
    "linalg.det.calls", "linalg.det.self_s",
    "intersection.pullback_degree_check.self_s", "intersection.expand_sum_power.self_s",
    "trace.overhead_ratio",
]


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_generator_is_deterministic(workload, tmp_path):
    first, second = gen.generate(workload, 7), gen.generate(workload, 7)
    first.write(tmp_path / "a")
    second.write(tmp_path / "b")
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert names == sorted(first.files)
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    assert first.meta == second.meta
    assert gen.generate(workload, 8).files != first.files


def test_generated_scenarios_load_and_match_their_structure():
    inputs = gen.generate("cli-session", 3)
    data = json.loads(inputs.files["cli-generated.json"])
    scenario = torusdyn.scenario_from_dict(data)
    meta = inputs.meta["cli-generated.json"]
    assert torusdyn.polarization_multiplier(scenario.endomorphism, scenario.torus) == meta["q"]
    assert torusdyn.validate_action(scenario.action).free
    expected = [abs(c) for c in oracle.block_counts(meta["blocks"], 4)]
    assert [torusdyn.count_fixed(scenario.endomorphism, l) for l in range(1, 5)] == expected[1:]


def _cli_job(jobs, argv_prefix):
    return next(j for j in jobs if j.argv[: len(argv_prefix)] == argv_prefix)


def test_oracle_flags_an_injected_wrong_count():
    specs = workloads.cli_jobs(gen.generate("cli-session", 1), "unused.json")
    spec = _cli_job(specs, ["count", "--scenario", "mult-by-2"])
    job = workloads.cli_inprocess_job(spec, torusdyn)
    code, out, err = job.call()
    assert job.check((code, out, err)) is None
    assert "49" in out
    kind, _ = job.check((code, out.replace("49", "48"), err))
    assert kind == workloads.WRONG
    kind, _ = job.check((1, "", "error: boom"))
    assert kind == workloads.ERROR


def test_oracle_checks_reject_wrong_library_answers():
    assert workloads.equals(16)(17)[0] == workloads.WRONG
    rows = [[3, 0], [0, 3]]
    good = [(Fraction(0), Fraction(0)), (Fraction(1, 2), Fraction(0)),
            (Fraction(0), Fraction(1, 2)), (Fraction(1, 2), Fraction(1, 2))]
    assert oracle.check_points(rows, [Fraction(0)] * 2, good, 4) is None
    assert oracle.check_points(rows, [Fraction(0)] * 2, good[:3], 4) is not None
    bad = good[:3] + [(Fraction(1, 3), Fraction(0))]
    assert oracle.check_points(rows, [Fraction(0)] * 2, bad, 4) is not None
    assert oracle.det_exact([[2, 1], [7, 4]]) == 1
    assert oracle.gaussian_count(3) == torusdyn.count_fixed(
        torusdyn.resolve_scenario("gaussian-cm").endomorphism, 3
    )


def test_the_big_cli_count_is_checked_against_its_exact_value():
    """The 6,021-digit count must be compared as a number, not skipped."""
    specs = workloads.cli_jobs(gen.generate("cli-session", 1), "unused.json")
    spec = _cli_job(specs, ["count", "--scenario", "gaussian-cm", "--l", "20000"])
    value = oracle.gaussian_count(20000)
    assert len(str(value // 10**4000)) + 4000 == 6021
    job = workloads.cli_inprocess_job(spec, torusdyn)
    digits = []
    while value:
        value, low = divmod(value, 10**1000)
        digits.append(low)
    text = str(digits[-1]) + "".join(f"{d:01000d}" for d in reversed(digits[:-1]))
    assert job.check((0, f"l,fixed_points\n20000,{text}\n", "")) is None
    assert job.check((0, f"l,fixed_points\n20000,{text[:-1]}7\n", ""))[0] == workloads.WRONG


def test_tracer_records_self_time_and_restores_functions():
    f = torusdyn.resolve_scenario("gaussian-cm").endomorphism
    original = torusdyn.fixpoint.det
    tracer = spans.Tracer()
    with tracer:
        assert torusdyn.fixpoint.det is not original
        torusdyn.count_fixed(f, 5)
    assert torusdyn.fixpoint.det is original
    assert torusdyn.linalg.IntegerMatrix.__pow__ is spans.sys.modules[
        "torusdyn.linalg"].IntegerMatrix.__dict__["__pow__"]
    names = [s.name for s in tracer.spans]
    assert names == ["fixpoint.count_fixed", "linalg.matpow", "linalg.det"]
    selfs = tracer.self_seconds()
    children = sum(s.seconds for s in tracer.spans[1:])
    assert selfs[0] == pytest.approx(tracer.spans[0].seconds - children, abs=1e-9)
    totals = spans.totals(tracer)
    assert totals["linalg.matpow"].attrs["result_bits"] > 0


def test_metric_names_match_benchmark_json():
    assert list(run.LAYERS) == PER_LAYER_NAMES
    assert [m["name"] for m in BENCHMARK["per_layer"]] == PER_LAYER_NAMES
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == {
        name: spec[0] for name, spec in run.LAYERS.items()
    }
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(gen.WORKLOADS)
    assert set(spans.TRACED) <= {spec[2] for spec in run.LAYERS.values()}
