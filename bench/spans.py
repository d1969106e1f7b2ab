"""In-memory spans around torusdyn's public functions, for the traced run.

The tracer rebinds each listed function, in every torusdyn module that
holds a reference to it, to a wrapper that records (name, start, end,
parent).  IntegerMatrix.__pow__ is replaced on the class.  Nothing in the
package is edited; uninstall() puts every original back.  A span's self
time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import json
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path

# span name -> (module, attribute); "IntegerMatrix.__pow__" is a method
TRACED = {
    "linalg.det": ("torusdyn.linalg", "det"),
    "linalg.smith_normal_form": ("torusdyn.linalg", "smith_normal_form"),
    "linalg.charpoly": ("torusdyn.linalg", "charpoly"),
    "linalg.pfaffian": ("torusdyn.linalg", "pfaffian"),
    "linalg.matpow": ("torusdyn.linalg", "IntegerMatrix.__pow__"),
    "lattice.power": ("torusdyn.lattice", "power"),
    "lattice.complementary_isogeny": ("torusdyn.lattice", "complementary_isogeny"),
    "lattice.restrict_to_sublattice": ("torusdyn.lattice", "restrict_to_sublattice"),
    "lattice.polarization_multiplier": ("torusdyn.lattice", "polarization_multiplier"),
    "fixpoint.count_fixed": ("torusdyn.fixpoint", "count_fixed"),
    "fixpoint.enumerate_fixed": ("torusdyn.fixpoint", "enumerate_fixed"),
    "fixpoint.brute_force_count": ("torusdyn.fixpoint", "brute_force_count"),
    "fixpoint.growth_table": ("torusdyn.fixpoint", "growth_table"),
    "fixpoint.compare_exact": ("torusdyn.fixpoint", "compare_exact"),
    "fixpoint.eigenvalue_magnitude_check": ("torusdyn.fixpoint", "eigenvalue_magnitude_check"),
    "fixpoint.periodic_subvariety_count": ("torusdyn.fixpoint", "periodic_subvariety_count"),
    "quotient.orbit_partition": ("torusdyn.quotient", "orbit_partition"),
    "quotient.validate_action": ("torusdyn.quotient", "validate_action"),
    "quotient.lift_compatibility": ("torusdyn.quotient", "lift_compatibility"),
    "quotient.quotient_fixed_lower_bound": ("torusdyn.quotient", "quotient_fixed_lower_bound"),
    "intersection.pullback_degree_check": ("torusdyn.intersection", "pullback_degree_check"),
    "intersection.expand_sum_power": ("torusdyn.intersection", "expand_sum_power"),
    "scenarios.resolve_scenario": ("torusdyn.scenarios", "resolve_scenario"),
    "scenarios.load_scenario_file": ("torusdyn.scenarios", "load_scenario_file"),
    "report.render_table": ("torusdyn.report", "render_table"),
    "report.render_csv": ("torusdyn.report", "render_csv"),
}


def _max_bits(values) -> int:
    return max((abs(v).bit_length() for v in values), default=0)


def _snf_attrs(args, result):
    nonzero = [d for d in result.elementary_divisors if d]
    return {
        "transform_bits": max(_max_bits(result.U.entries), _max_bits(result.V.entries)),
        "det_bits": math.prod(nonzero).bit_length() if nonzero else 0,
    }


# Sizes recorded next to a span; computed after the span has ended.
ATTRS = {
    "linalg.smith_normal_form": _snf_attrs,
    "linalg.matpow": lambda args, result: {"result_bits": _max_bits(result.entries)},
    "fixpoint.enumerate_fixed": lambda args, result: {"points": len(result)},
    "fixpoint.brute_force_count": lambda args, result: {"hits": result},
    "quotient.orbit_partition": lambda args, result: {"points": len(args[0])},
    "report.render_table": lambda args, result: {"bytes": len(result.encode())},
    "report.render_csv": lambda args, result: {"bytes": len(result.encode())},
}


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int
    parent: int
    attrs: dict | None = None

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9


class Tracer:
    """Records spans while installed; keeps them in memory until written."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        # brute_force_count arguments, for the grid size worked out afterwards
        self.brute_args: dict[int, tuple] = {}

    def _wrap(self, name, fn):
        spans, stack, attrs = self.spans, self._stack, ATTRS.get(name)
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = Span(name, start, end, parent)
            if attrs is not None:
                spans[index].attrs = attrs(args, result)
            if name == "fixpoint.brute_force_count":
                self.brute_args[index] = (args, kwargs)
            return result

        return traced

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items() if k == "torusdyn" or k.startswith("torusdyn.")]
        for name, (module_name, attr) in TRACED.items():
            if attr == "IntegerMatrix.__pow__":
                owner = sys.modules[module_name].IntegerMatrix
                original = owner.__dict__["__pow__"]
                self._undo.append((owner, "__pow__", original))
                setattr(owner, "__pow__", self._wrap(name, original))
                continue
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._undo.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def self_seconds(self) -> list[float]:
        children = [0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                children[span.parent] += span.end_ns - span.start_ns
        return [(s.end_ns - s.start_ns - c) / 1e9 for s, c in zip(self.spans, children)]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            for span in self.spans:
                record = {
                    "name": span.name,
                    "start_ns": span.start_ns,
                    "dur_ns": span.end_ns - span.start_ns,
                    "parent": span.parent,
                }
                if span.attrs:
                    record.update(span.attrs)
                handle.write(json.dumps(record) + "\n")


@dataclass
class LayerTotals:
    """Per-name sums over a traced section of `passes` passes."""

    calls: int = 0
    self_s: float = 0.0
    dur_s: float = 0.0
    attrs: dict | None = None


def totals(tracer: Tracer) -> dict[str, LayerTotals]:
    """Sum calls, self and inclusive seconds and span sizes by name."""
    out: dict[str, LayerTotals] = {}
    for span, self_s in zip(tracer.spans, tracer.self_seconds()):
        t = out.setdefault(span.name, LayerTotals(attrs={}))
        t.calls += 1
        t.self_s += self_s
        t.dur_s += span.seconds
        for key, value in (span.attrs or {}).items():
            if key.endswith("_bits"):
                t.attrs[key] = max(t.attrs.get(key, 0), value)
            else:
                t.attrs[key] = t.attrs.get(key, 0) + value
    return out
