"""Benchmark-side tracing and per-layer attribution.

The benchmark adds no instrumentation to the program.  It records its own
spans around every public call it makes and merges them with the program's
``repro.telemetry`` snapshot: each request runs against a fresh recording
registry, and every benchmark span is mirrored into that registry, so the
program's own spans (``batch.evaluate_points``, ``cosim.run``, ...) nest
under the benchmark span of the call that caused them.  Spans stay in
memory and are written out once the run ends.

A span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import re
import time
from typing import Dict, Iterable, List, Mapping

from repro import telemetry


class _NullSpan:
    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def annotate(self, **attrs: float) -> None:
        pass


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Tracing off: spans cost one method call and record nothing."""

    def span(self, name: str, **attrs: float) -> _NullSpan:
        return _NULL_SPAN


class Tracer:
    """Records benchmark spans (request id, name, parent, start, end, attrs)."""

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self.request = -1
        self._stack: List[int] = []

    def span(self, name: str, **attrs: float) -> "_Span":
        return _Span(self, name, dict(attrs))


class _Span:
    def __init__(self, tracer: Tracer, name: str, attrs: dict) -> None:
        self.tracer = tracer
        self.name = name
        self.attrs = attrs

    def annotate(self, **attrs: float) -> None:
        self.attrs.update(attrs)
        self._mirror.annotate(**attrs)

    def __enter__(self) -> "_Span":
        tracer = self.tracer
        self.parent = tracer._stack[-1] if tracer._stack else None
        self.index = len(tracer.spans)
        tracer.spans.append({})
        tracer._stack.append(self.index)
        self._mirror = telemetry.get().span(self.name, **self.attrs)
        self._mirror.__enter__()
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        end = time.perf_counter()
        self._mirror.__exit__(*exc)
        tracer = self.tracer
        tracer._stack.pop()
        tracer.spans[self.index] = {
            "request": tracer.request,
            "name": self.name,
            "parent": self.parent,
            "start_s": self.start,
            "end_s": end,
            "attrs": self.attrs,
        }
        return False


def _walk(nodes: Mapping[str, dict]) -> Iterable[tuple]:
    for name, node in nodes.items():
        yield name, node
        yield from _walk(node.get("children") or {})


def span_totals(snapshots: Iterable[Mapping]) -> Dict[str, dict]:
    """Per span name, over every path it occurs on: calls, busy, self, counters."""
    totals: Dict[str, dict] = {}
    for snapshot in snapshots:
        for name, node in _walk(snapshot.get("spans") or {}):
            entry = totals.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "counters": {}})
            busy = node["total_ms"] / 1e3
            children = sum(child["total_ms"] for child in (node.get("children") or {}).values()) / 1e3
            entry["calls"] += node["count"]
            entry["busy_s"] += busy
            entry["self_s"] += busy - children
            for key, value in (node.get("counters") or {}).items():
                entry["counters"][key] = entry["counters"].get(key, 0) + value
    return totals


#: Every per-layer metric of the traced run, with its unit.
LAYER_UNITS = {
    "import.total_s": "s",
    "import.scipy_s": "s",
    "import.numpy_s": "s",
    "import.repro_self_s": "s",
    "core.analyze.calls": "count",
    "core.analyze.busy_s": "s",
    "batch.evaluate_grid.calls": "count",
    "batch.evaluate_grid.points": "count",
    "batch.evaluate_grid.groups": "count",
    "batch.evaluate_grid.busy_s": "s",
    "batch.evaluate_grid.points_per_s": "points/s",
    "batch.evaluate_points.calls": "count",
    "batch.evaluate_points.points": "count",
    "batch.evaluate_points.groups": "count",
    "batch.evaluate_points.points_per_group": "points",
    "batch.evaluate_points.busy_s": "s",
    "fleet.analyze.calls": "count",
    "fleet.analyze.users": "count",
    "fleet.analyze.busy_s": "s",
    "fleet.plan_capacity.calls": "count",
    "fleet.plan_capacity.evaluations": "count",
    "fleet.plan_capacity.busy_s": "s",
    "fleet.cache.hit_ratio": "ratio",
    "adaptive.prewarm.busy_s": "s",
    "adaptive.prewarm.self_s": "s",
    "adaptive.prewarm.distinct_keys": "count",
    "adaptive.control.busy_s": "s",
    "adaptive.switches": "count",
    "cosim.run.busy_s": "s",
    "cosim.run.self_s": "s",
    "cosim.epochs": "count",
    "cosim.epochs_converged": "count",
    "cosim.converged_ratio": "ratio",
    "cosim.best_response_iterations": "count",
    "cosim.iterations_per_epoch_p50": "count",
    "cosim.damping_blends": "count",
    "client.generate_s": "s",
    "trace.request_s": "s",
    "trace_overhead_ratio": "ratio",
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(snapshots: List[Mapping]) -> Dict[str, float]:
    """The per-layer metrics of a traced pass, from per-request snapshots."""
    spans = span_totals(snapshots)
    empty = {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "counters": {}}

    def span(name: str) -> dict:
        return spans.get(name, empty)

    merged = telemetry.merge_snapshots(snapshots)
    counters = merged["counters"]
    iterations = merged["histograms"].get("cosim.iterations_per_epoch") or {}
    hits = misses = 0
    for snapshot in snapshots:
        for key, value in snapshot["gauges"].items():
            if key.startswith("fleet.cache.") and key.endswith(".hits"):
                hits += value
            elif key.startswith("fleet.cache.") and key.endswith(".misses"):
                misses += value

    grid, points = span("batch.evaluate_grid"), span("batch.evaluate_points")
    analyze, plan = span("fleet.analyze"), span("bench.fleet.plan_capacity")
    prewarm, cosim = span("adaptive.prewarm"), span("cosim.run")
    core = span("bench.core.analyze")
    epochs = counters.get("cosim.epochs", 0)
    return {
        "core.analyze.calls": core["calls"],
        "core.analyze.busy_s": core["busy_s"],
        "batch.evaluate_grid.calls": grid["calls"],
        "batch.evaluate_grid.points": grid["counters"].get("points", 0),
        "batch.evaluate_grid.groups": grid["counters"].get("groups", 0),
        "batch.evaluate_grid.busy_s": grid["busy_s"],
        "batch.evaluate_grid.points_per_s": _ratio(grid["counters"].get("points", 0), grid["busy_s"]),
        "batch.evaluate_points.calls": points["calls"],
        "batch.evaluate_points.points": points["counters"].get("points", 0),
        "batch.evaluate_points.groups": points["counters"].get("groups", 0),
        "batch.evaluate_points.points_per_group": _ratio(
            points["counters"].get("points", 0), points["counters"].get("groups", 0)
        ),
        "batch.evaluate_points.busy_s": points["busy_s"],
        "fleet.analyze.calls": analyze["calls"],
        "fleet.analyze.users": analyze["counters"].get("users", 0),
        "fleet.analyze.busy_s": analyze["busy_s"],
        "fleet.plan_capacity.calls": plan["calls"],
        "fleet.plan_capacity.evaluations": plan["counters"].get("evaluations", 0),
        "fleet.plan_capacity.busy_s": plan["busy_s"],
        "fleet.cache.hit_ratio": _ratio(hits, hits + misses),
        "adaptive.prewarm.busy_s": prewarm["busy_s"],
        "adaptive.prewarm.self_s": prewarm["self_s"],
        "adaptive.prewarm.distinct_keys": prewarm["counters"].get("distinct_keys", 0),
        "adaptive.control.busy_s": span("adaptive.run")["busy_s"],
        "adaptive.switches": counters.get("adaptive.switches", 0),
        "cosim.run.busy_s": cosim["busy_s"],
        "cosim.run.self_s": cosim["self_s"],
        "cosim.epochs": epochs,
        "cosim.epochs_converged": counters.get("cosim.epochs_converged", 0),
        "cosim.converged_ratio": _ratio(counters.get("cosim.epochs_converged", 0), epochs),
        "cosim.best_response_iterations": counters.get("cosim.best_response_iterations", 0),
        "cosim.iterations_per_epoch_p50": iterations.get("p50") or 0.0,
        "cosim.damping_blends": counters.get("cosim.damping_blends", 0),
        "trace.request_s": span("bench.request")["busy_s"],
    }


_IMPORT_LINE = re.compile(r"^import time:\s+(\d+) \|\s+(\d+) \|(\s*)(\S+)\s*$")


def import_metrics(importtime_stderr: str) -> Dict[str, float]:
    """``import.*`` metrics from ``python -X importtime -c "import repro"``.

    ``import.total_s`` is the cumulative time of the top-level ``repro``
    import; the others add up the self times of every module of a package,
    wherever in the import tree it was pulled in.
    """
    total = 0.0
    selfs = {"numpy": 0.0, "scipy": 0.0, "repro": 0.0}
    for line in importtime_stderr.splitlines():
        match = _IMPORT_LINE.match(line)
        if match is None:
            continue
        self_us, cumulative_us, indent, module = match.groups()
        package = module.split(".", 1)[0]
        if package in selfs:
            selfs[package] += int(self_us) / 1e6
        if module == "repro" and len(indent) == 1:
            total = int(cumulative_us) / 1e6
    return {
        "import.total_s": total,
        "import.scipy_s": selfs["scipy"],
        "import.numpy_s": selfs["numpy"],
        "import.repro_self_s": selfs["repro"],
    }
