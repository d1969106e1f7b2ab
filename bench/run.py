#!/usr/bin/env python3
"""torusdyn benchmark: four seeded, oracle-checked workloads.

    python3 bench/run.py --workload point-sets --seed 7 --seconds 20 --trace 0

Run from anywhere; the program measured is the checkout's src/ (put on
the path as PYTHONPATH=src, never an installed copy).  Load is one
process, one thread, closed loop: each job starts when the previous one
has been checked.  Generated inputs, run records and span files go to
bench/out/.

Workloads (see BENCHMARK.json for why each was chosen):
  cli-session    fresh `python -m torusdyn.cli` calls, all 8 subcommands
  point-sets     enumerate / brute-force / orbit counting on point sets
  exact-kernels  det, Smith form, charpoly, Pfaffian on dense n x n matrices
  deep-iterates  counts of small matrices at huge iterates

--trace 0 prints the end-to-end metrics: wall time of one pass over the
job list (median over the run's passes), set-up time and peak RSS.
Set-up is fresh process to first job ready (median of SETUP_PROBES);
on cli-session it is writing the generated scenario file (median over
one write after every call), and peak RSS is the largest CLI child's.
cli-session also prints the per-invocation latency p50/p90 with its
sample count.

--trace 1 prints the per-layer metrics: each is measured on the
workload named in LAYERS (one traced pass of each other workload), and
trace.overhead_ratio on the requested workload, from alternating
untraced and traced passes.  Spans are written to bench/out/spans-*.jsonl.

Every answer is checked against bench/oracle.py outside the timed
interval.  The last stdout line is the JSON result; `failed` counts
wrong answers, crashes and unexpected exit codes, and `correct` is
false only when an answer contradicted its oracle.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import gen
import oracle
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_PROBES = 7  # fresh-process set-ups per run (in-process workloads)
MIN_PASSES = 3
MIN_CLI_SAMPLES = 100  # so that ten samples lie beyond p90
PROBE_REPEATS = 5
CHILD_TIMEOUT = 120

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

CLI, POINTS, KERNELS, DEEP = "cli-session", "point-sets", "exact-kernels", "deep-iterates"

# per-layer metric -> (unit, workload it is measured on, span, field)
LAYERS: dict[str, tuple[str, str, str, str]] = {}


def _layer(span: str, workload: str, **fields: str) -> None:
    for name, unit in fields.items():
        LAYERS[f"{span}.{name}"] = (unit, workload, span, name)


for _name in ("interpreter_ms", "import_ms", "import_numpy_ms", "main_ms"):
    LAYERS[f"cli.{_name}"] = ("ms", CLI, "cli", _name)
_layer("scenarios.resolve_scenario", CLI, self_s="s")
_layer("scenarios.load_scenario_file", CLI, self_s="s")
_layer("report.render_table", CLI, self_s="s")
_layer("report.render_csv", CLI, self_s="s")
LAYERS["report.bytes"] = ("bytes", CLI, "report", "bytes")
_layer("fixpoint.enumerate_fixed", POINTS, calls="count", self_s="s", points="count", points_per_s="1/s")
_layer("fixpoint.brute_force_count", POINTS, self_s="s", grid_points="count", hit_ratio="ratio")
_layer("fixpoint.count_fixed", POINTS, calls="count", self_s="s")
for _fn in ("growth_table", "compare_exact", "eigenvalue_magnitude_check", "periodic_subvariety_count"):
    _layer(f"fixpoint.{_fn}", DEEP, self_s="s")
_layer("quotient.orbit_partition", POINTS, self_s="s", points_per_s="1/s")
for _fn in ("validate_action", "lift_compatibility", "quotient_fixed_lower_bound"):
    _layer(f"quotient.{_fn}", POINTS, self_s="s")
_layer("lattice.power", POINTS, calls="count", self_s="s")
_layer("lattice.complementary_isogeny", KERNELS, self_s="s")
_layer("lattice.restrict_to_sublattice", DEEP, self_s="s")
_layer("lattice.polarization_multiplier", POINTS, self_s="s")
_layer("linalg.smith_normal_form", KERNELS, calls="count", self_s="s", transform_bits="bits", det_bits="bits")
_layer("linalg.charpoly", KERNELS, self_s="s")
_layer("linalg.pfaffian", KERNELS, self_s="s")
_layer("linalg.matpow", DEEP, calls="count", self_s="s", result_bits="bits")
_layer("linalg.det", DEEP, calls="count", self_s="s")
_layer("intersection.pullback_degree_check", KERNELS, self_s="s")
_layer("intersection.expand_sum_power", CLI, self_s="s")
LAYERS["trace.overhead_ratio"] = ("ratio", "", "trace", "overhead_ratio")


class BenchError(RuntimeError):
    """The benchmark itself cannot run; no result is printed."""


def child_env() -> dict:
    """Environment for every child: src/ first on the path.

    The interpreter's int -> str digit limit is left at its default, and
    children cache bytecode the way an installed CLI does.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("PYTHONINTMAXSTRDIGITS", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def import_program():
    if not (SRC / "torusdyn" / "__init__.py").is_file():
        raise BenchError(f"no program: {SRC / 'torusdyn'} is missing")
    sys.path.insert(0, str(SRC))
    import torusdyn
    import torusdyn.cli  # noqa: F401  (rebound by the tracer too)

    if Path(torusdyn.__file__).resolve().parent != (SRC / "torusdyn").resolve():
        raise BenchError(f"imported torusdyn from {torusdyn.__file__}, not {SRC}")
    return torusdyn


def input_dir(workload: str, seed: int) -> Path:
    return OUT / "inputs" / f"{workload}-seed{seed}"


def build(workload: str, seed: int, td, subprocess_cli: bool = False):
    """Generate and write the inputs, then construct the workload's jobs."""
    inputs = gen.generate(workload, seed)
    directory = input_dir(workload, seed)
    inputs.write(directory)
    if workload == CLI:
        path = str(directory.relative_to(ROOT) / "cli-generated.json")
        specs = workloads.cli_jobs(inputs, path)
        if subprocess_cli:
            env = child_env()
            return [workloads.cli_subprocess_job(s, ROOT, env) for s in specs]
        return [workloads.cli_inprocess_job(s, td) for s in specs]
    if workload == POINTS:
        return workloads.point_sets(inputs, directory, td)
    if workload == KERNELS:
        return workloads.exact_kernels(inputs, directory, td, oracle.load_test_oracles(ROOT))
    return workloads.deep_iterates(inputs, directory, td)


# ---------------------------------------------------------------------------
# passes and their checks


@dataclass
class Crashed:
    error: str


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    messages: Counter = field(default_factory=Counter)

    def record(self, job, verdict) -> None:
        self.attempted += 1
        if verdict is None:
            return
        kind, message = verdict
        self.failed += 1
        self.wrong += kind == workloads.WRONG
        self.messages[f"{job.name}: {kind}: {message}"] += 1


def _fingerprint(result) -> int:
    return hash(tuple(result)) if isinstance(result, list) else hash(result)


def run_pass(jobs, after) -> list[float]:
    """Run every job once; after(i, job, result) runs outside the timing."""
    times = []
    for i, job in enumerate(jobs):
        start = time.perf_counter()
        try:
            result = job.call()
        except Exception as exc:  # a crash is a failed operation, not the end of the run
            result = Crashed(f"{type(exc).__name__}: {exc}")
        times.append(time.perf_counter() - start)
        after(i, job, result)
        del result
    return times


def oracle_checker(tally: Tally, fingerprints: dict):
    """Check against the oracle and remember each answer's fingerprint."""

    def after(i, job, result):
        if isinstance(result, Crashed):
            verdict = (workloads.ERROR, result.error)
        else:
            verdict = job.check(result)
            if verdict is None:
                fingerprints[i] = _fingerprint(result)
        tally.record(job, verdict)

    return after


def repeat_checker(tally: Tally, fingerprints: dict):
    """Later passes must reproduce the answers that passed the oracle;
    a job that failed it is checked in full again."""

    def after(i, job, result):
        if isinstance(result, Crashed):
            verdict = (workloads.ERROR, result.error)
        elif i not in fingerprints:
            verdict = job.check(result)
        elif _fingerprint(result) != fingerprints[i]:
            verdict = (workloads.WRONG, "answer differs from the checked first pass")
        else:
            verdict = None
        tally.record(job, verdict)

    return after


def percentile_ms(samples: list[float], q: int) -> float:
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1] * 1e3


# ---------------------------------------------------------------------------
# end-to-end runs


def measure_setup(workload: str, seed: int) -> float:
    """Median time from spawning a fresh process to its first job being ready."""
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "run.py"), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            _, err = proc.communicate(timeout=CHILD_TIMEOUT)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        if line.strip() != "ready" or proc.returncode != 0:
            raise BenchError(f"set-up probe failed: {err.strip()[-500:]}")
        times.append(ready - start)
    return statistics.median(times)


def run_end_to_end(workload: str, seed: int, seconds: float, td):
    tally, fingerprints = Tally(), {}
    if workload == CLI:
        jobs = build(CLI, seed, td, subprocess_cli=True)
        run_pass(jobs[:2], oracle_checker(tally, {}))  # warm the file cache
        min_samples = MIN_CLI_SAMPLES
        check_answer = oracle_checker(tally, fingerprints)  # CLI answers are cheap to check
        setups = []

        def check(i, job, result):
            # set-up is timed once after every call, so it reads the same machine as the calls
            check_answer(i, job, result)
            start = time.perf_counter()
            gen.generate(CLI, seed).write(input_dir(CLI, seed))
            setups.append(time.perf_counter() - start)
    else:
        setup_s = measure_setup(workload, seed)
        jobs = build(workload, seed, td)
        run_pass(jobs, oracle_checker(tally, fingerprints))  # warm-up, fully checked
        min_samples = MIN_PASSES * len(jobs)
        check = repeat_checker(tally, fingerprints)

    walls, latencies = [], []
    start = time.perf_counter()
    while len(latencies) < min_samples or time.perf_counter() - start < seconds:
        times = run_pass(jobs, check)
        walls.append(sum(times))
        latencies += times
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if workload == CLI else resource.RUSAGE_SELF)
    if workload == CLI:
        setup_s = statistics.median(setups)
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": setup_s,
        "peak_rss_mb": usage.ru_maxrss / 1024,
    }
    samples = {"passes": len(walls), "jobs_per_pass": len(jobs)}
    if workload == CLI:
        samples["cli_invocations"] = len(latencies)
        samples["cli_ms_p50"] = percentile_ms(latencies, 50)
        samples["cli_ms_p90"] = percentile_ms(latencies, 90)
    return metrics, END_TO_END, tally, samples


# ---------------------------------------------------------------------------
# traced run


def _probe_ms(argv: list[str]) -> float:
    start = time.perf_counter()
    subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True, timeout=CHILD_TIMEOUT, check=True)
    return (time.perf_counter() - start) * 1e3


def _import_times_ms() -> tuple[float, float]:
    """Cumulative import time of torusdyn and of numpy, from -X importtime."""
    done = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import torusdyn"],
        cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT, check=True,
    )
    cumulative = {}
    for line in done.stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[1].strip().isdigit():
            cumulative[parts[2].strip()] = int(parts[1]) / 1e3
    return cumulative["torusdyn"], cumulative["numpy"]


def cli_probes() -> dict[str, float]:
    interpreter = [_probe_ms([sys.executable, "-c", "pass"]) for _ in range(PROBE_REPEATS)]
    imports = [_import_times_ms() for _ in range(PROBE_REPEATS)]
    return {
        "interpreter_ms": statistics.median(interpreter),
        "import_ms": statistics.median(t for t, _ in imports),
        "import_numpy_ms": statistics.median(n for _, n in imports),
    }


def _brute_grid_points(td, tracer, index: int) -> int:
    """Grid the brute-force scan walked: (d_max * r)^n, worked out untraced."""
    import math

    args, kwargs = tracer.brute_args[index]
    f = args[0]
    l = args[1] if len(args) > 1 else kwargs.get("l", 1)
    k = f.matrix**l - td.IntegerMatrix.identity(f.rank)
    d_max = td.smith_normal_form(k).largest_divisor()
    r = math.lcm(*(c.denominator for c in td.power(f, l).translation))
    return (d_max * r) ** f.rank


def layer_values(td, traced: dict, probes: dict, main_ms: float, overhead: float) -> dict:
    """Per-layer metric values; traced maps workload -> (tracer, passes)."""
    per_workload = {}
    for workload, (tracer, passes) in traced.items():
        t = spans.totals(tracer)
        grid = sum(
            _brute_grid_points(td, tracer, i)
            for i, s in enumerate(tracer.spans) if s.name == "fixpoint.brute_force_count"
        )
        per_workload[workload] = (t, passes, grid)

    values = {}
    for metric, (unit, workload, span, name) in LAYERS.items():
        if span == "cli":
            values[metric] = main_ms if name == "main_ms" else probes[name]
            continue
        if span == "trace":
            values[metric] = overhead
            continue
        t, passes, grid = per_workload[workload]
        if span == "report":
            values[metric] = sum(
                t[s].attrs.get("bytes", 0) for s in ("report.render_table", "report.render_csv") if s in t
            ) / passes
            continue
        total = t.get(span) or spans.LayerTotals(attrs={})
        if name == "calls":
            values[metric] = total.calls / passes
        elif name == "self_s":
            values[metric] = total.self_s / passes
        elif name == "points":
            values[metric] = total.attrs.get("points", 0) / passes
        elif name == "points_per_s":
            values[metric] = total.attrs.get("points", 0) / total.dur_s if total.dur_s else 0.0
        elif name == "grid_points":
            values[metric] = grid / passes
        elif name == "hit_ratio":
            values[metric] = total.attrs.get("hits", 0) / grid if grid else 0.0
        else:
            values[metric] = total.attrs.get(name, 0)
    return values


def run_traced(workload: str, seed: int, seconds: float, td):
    tally = Tally()
    suites = {w: build(w, seed, td) for w in (CLI, POINTS, KERNELS, DEEP)}

    # the requested workload: alternate untraced and traced passes
    jobs, fingerprints = suites[workload], {}
    run_pass(jobs, oracle_checker(tally, fingerprints))
    check = repeat_checker(tally, fingerprints)
    tracer = spans.Tracer()
    untraced, traced_walls, cli_times = [], [], []
    start = time.perf_counter()
    while len(traced_walls) < 2 or time.perf_counter() - start < seconds:
        untraced.append(sum(run_pass(jobs, check)))
        with tracer:
            times = run_pass(jobs, check)
        traced_walls.append(sum(times))
        if workload == CLI:
            cli_times += times
    overhead = statistics.median(traced_walls) / statistics.median(untraced)
    traced = {workload: (tracer, len(traced_walls))}

    # one checked, traced pass of every other workload
    for other, other_jobs in suites.items():
        if other == workload:
            continue
        other_tracer = spans.Tracer()
        with other_tracer:
            times = run_pass(other_jobs, oracle_checker(tally, {}))
        traced[other] = (other_tracer, 1)
        if other == CLI:
            cli_times = times

    main_ms = statistics.median(cli_times) * 1e3
    values = layer_values(td, traced, cli_probes(), main_ms, overhead)
    for name, (tr, _) in traced.items():
        tr.write(OUT / f"spans-{workload}-seed{seed}-{name}.jsonl")
    units = {metric: spec[0] for metric, spec in LAYERS.items()}
    samples = {"untraced_passes": len(untraced), "traced_passes": len(traced_walls)}
    return values, units, tally, samples


# ---------------------------------------------------------------------------


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return done.stdout.strip() or None


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "torusdyn").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def run_record(args, td, samples) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": _git_commit(),
        "src_sha256": _src_digest(),
        "program": f"{Path(td.__file__).resolve().parent.relative_to(ROOT)} via PYTHONPATH=src",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "int_max_str_digits": sys.get_int_max_str_digits(),
        "samples": samples,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(CLI, POINTS, KERNELS, DEEP))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        td = import_program()
        if args.setup_probe:
            build(args.workload, args.seed, td)
            print("ready", flush=True)
            return 0
        run = run_traced if args.trace else run_end_to_end
        values, units, tally, samples = run(args.workload, args.seed, args.seconds, td)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2

    record = run_record(args, td, samples)
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    for message, count in tally.messages.items():
        print(f"# failure x{count}: {message}")
    for name, value in values.items():
        print(f"# {name:<48} {value:>16.6g} {units[name]}")
    print(f"# failed_ratio {tally.failed}/{tally.attempted} = {tally.failed / tally.attempted:.6g}")
    if "cli_invocations" in samples:
        for name in ("cli_ms_p50", "cli_ms_p90"):
            print(f"# {name:<48} {samples[name]:>16.6g} ms"
                  f" (over {samples['cli_invocations']} fresh-process invocations)")
    print(f"# run-record {json.dumps(record, sort_keys=True)}")
    result = {
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
