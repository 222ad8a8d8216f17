#!/usr/bin/env python3
"""The repository benchmark: three seeded user workloads against ``repro``.

Run from the repository root::

    python3 perfbench/run.py --workload design_sweep --seed 1 --seconds 20 --trace 0

Each workload is a closed loop with one client in one process: the next
request is issued only when the previous one has returned, and BLAS/OpenMP
pools are pinned to one thread.  Inputs are built from ``--seed`` before
each request's timer starts, and every result is checked for correctness
after it stops.

``--trace 0`` prints the end-to-end metrics (set-up time, work per second,
request latency, peak memory).  ``--trace 1`` prints the per-layer metrics:
it runs a fixed set of requests untraced and then traced, attributes the
traced time to ``repro``'s layers and writes the spans to ``perfbench/out``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import os

# Pin native thread pools before NumPy is imported anywhere in the process.
for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_name] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: Tail percentile per workload: about the highest with at least ten
#: requests beyond it at ``run_seconds`` on a 2-core box.  A cycle has an
#: odd number of requests, and each percentile falls inside one slot's run
#: of samples rather than between two slots of different cost, where it
#: would jump with the noise.
TAIL_PERCENTILE = {"design_sweep": 99.0, "fleet_plan": 85.0, "closed_loop": 86.0}
#: Cycles of slots in each pass of the traced run (a few seconds each).
TRACE_CYCLES = {"design_sweep": 20, "fleet_plan": 1, "closed_loop": 1}
#: Fresh interpreters started per run; set-up time is their median.
SETUP_PROBES = 5
IMPORT_PROBES = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "work_per_s": "items/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}
#: What one work item is, per workload (``work_per_s`` reads as this).
WORK_ITEM = {
    "design_sweep": ("points_per_s", "points/s"),
    "fleet_plan": ("users_per_s", "users/s"),
    "closed_loop": ("user_epochs_per_s", "user-epochs/s"),
}


def _bootstrap():
    """Import ``repro`` from this checkout's ``src`` (and nowhere else)."""
    package = SRC / "repro"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: no repro sources at {package}; run from a full checkout")
    sys.path[:0] = [str(SRC), str(HERE)]
    import repro

    if Path(repro.__file__).resolve().parent != package.resolve():
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not from {package}")
    import workloads

    return workloads


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def _setup_probe(workload: str) -> float:
    """Wall time from a fresh interpreter to the workload's first request being ready."""
    start = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--setup-probe"],
        stdout=subprocess.PIPE,
        env=_child_env(),
        cwd=str(ROOT),
        text=True,
    ) as child:
        line = child.stdout.readline()
        ready = time.perf_counter()
        child.stdout.read()
    if child.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe failed (exit {child.returncode})")
    return ready - start


def _import_profile(probes: int) -> dict:
    """Median ``import.*`` metrics over several ``-X importtime`` interpreters."""
    from tracing import import_metrics

    samples = []
    for _ in range(probes):
        done = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import repro"],
            capture_output=True,
            env=_child_env(),
            cwd=str(ROOT),
            text=True,
            check=True,
        )
        samples.append(import_metrics(done.stderr))
    return {name: statistics.median(s[name] for s in samples) for name in samples[0]}


class Session:
    """The closed-loop client: builds, issues and checks requests in order."""

    def __init__(self) -> None:
        from tracing import NullTracer

        self.tracer = NullTracer()
        self.attempted = 0
        self.failed = 0
        #: (position of the request in its cycle, latency, work items).
        self.samples = []
        self.generate_s = 0.0

    def issue(self, request, position: int) -> None:
        """Time one request's calls, then check its outputs off the clock."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            out = request.call(self.tracer)
        except Exception:
            self.failed += 1
            print(f"request {request.slot} raised:\n{traceback.format_exc()}", file=sys.stderr)
            return
        elapsed = time.perf_counter() - start
        self.samples.append((position, elapsed, request.items))
        errors = request.check(out)
        if errors:
            self.failed += 1
            print(f"request {request.slot} failed its check: {errors[0]}", file=sys.stderr)

    def latencies(self) -> list:
        return [latency for _, latency, _ in self.samples]

    def cycles(self, workload, seed: int, n_cycles=None, seconds=None) -> None:
        """Run whole cycles of slots: ``n_cycles`` of them, or as many as fit in ``seconds``."""
        rng = random.Random(seed)
        start = time.perf_counter()
        done = 0
        while True:
            cycle_start = time.perf_counter()
            position = 0
            for slot in range(len(workload.slots)):
                build_start = time.perf_counter()
                requests = workload.build(slot, rng)
                self.generate_s += time.perf_counter() - build_start
                for request in requests:
                    self.issue(request, position)
                    position += 1
            done += 1
            now = time.perf_counter()
            if n_cycles is not None and done >= n_cycles:
                return
            if seconds is not None and (now - start) + (now - cycle_start) > seconds:
                return


class TracedSession(Session):
    """Runs each request's calls against a fresh telemetry registry, under a span."""

    def __init__(self) -> None:
        super().__init__()
        from tracing import Tracer

        self.tracer = Tracer()
        self.snapshots = []

    def issue(self, request, position: int) -> None:
        from repro import telemetry

        def call(tracer):
            registry = telemetry.Telemetry()
            previous = telemetry.activate(registry)
            tracer.request += 1
            try:
                with tracer.span("bench.request"):
                    return request.call(tracer)
            finally:
                telemetry.activate(previous)
                self.snapshots.append(registry.snapshot())

        super().issue(dataclasses.replace(request, call=call), position)


def _warm_up(workloads, name: str, seed: int, session: Session) -> None:
    """One cycle at tiny size: fills lazy caches, checked like any request."""
    session.cycles(workloads.WORKLOADS[name]("tiny"), seed, n_cycles=1)
    session.samples.clear()
    session.generate_s = 0.0


def _percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q))


def _typical_work_per_s(samples) -> float:
    """Work per second of a typical cycle: per position in the cycle, the
    median latency over the run's cycles.  Medians keep a burst of CPU
    contention on a shared host from moving the figure; a position's work
    items are the same in every cycle."""
    by_position = {}
    for position, latency, items in samples:
        by_position.setdefault(position, ([], items))[0].append(latency)
    busy = sum(statistics.median(latencies) for latencies, _ in by_position.values())
    return sum(items for _, items in by_position.values()) / busy


def end_to_end(args, workloads) -> tuple:
    probes = SETUP_PROBES if args.scale == "full" else 1
    setup = [_setup_probe(args.workload) for _ in range(probes)]
    workload = workloads.WORKLOADS[args.workload](args.scale)
    session = Session()
    _warm_up(workloads, args.workload, args.seed, session)
    session.cycles(workload, args.seed, seconds=args.seconds)
    latencies = session.latencies()
    busy = sum(latencies)
    metrics = {
        "setup_s": statistics.median(setup),
        "work_per_s": _typical_work_per_s(session.samples),
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_tail_ms": _percentile(latencies, TAIL_PERCENTILE[args.workload]) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    alias, alias_unit = WORK_ITEM[args.workload]
    print(
        f"{args.workload}: {len(latencies)} requests in {busy:.2f} s busy, "
        f"tail = p{TAIL_PERCENTILE[args.workload]:g}, client generate {session.generate_s:.3f} s"
    )
    print(f"  {alias:<16} {metrics['work_per_s']:.6g} {alias_unit}")
    return session, {name: {"value": v, "unit": END_TO_END_UNITS[name]} for name, v in metrics.items()}


def per_layer(args, workloads) -> tuple:
    from repro import telemetry
    from tracing import LAYER_UNITS, layer_metrics

    metrics = _import_profile(IMPORT_PROBES if args.scale == "full" else 1)
    workload = workloads.WORKLOADS[args.workload](args.scale)
    cycles = TRACE_CYCLES[args.workload] if args.scale == "full" else 1
    session = Session()
    _warm_up(workloads, args.workload, args.seed, session)
    session.cycles(workload, args.seed, n_cycles=cycles)
    untraced_s = sum(session.latencies())

    traced = TracedSession()
    traced.cycles(workload, args.seed, n_cycles=cycles)
    layers = layer_metrics(traced.snapshots)
    metrics.update(layers)
    metrics["client.generate_s"] = session.generate_s
    metrics["trace_overhead_ratio"] = layers["trace.request_s"] / untraced_s - 1.0
    session.attempted += traced.attempted
    session.failed += traced.failed

    OUT.mkdir(exist_ok=True)
    trace_path = OUT / f"trace-{args.workload}-{args.seed}.json"
    with open(trace_path, "w", encoding="utf-8") as handle:
        merged = telemetry.merge_snapshots(traced.snapshots)
        json.dump({"spans": traced.tracer.spans, "telemetry": merged}, handle)
    print(
        f"{args.workload}: traced {layers['trace.request_s']:.3f} s vs untraced {untraced_s:.3f} s; "
        f"spans in {trace_path}"
    )
    if args.workload == "closed_loop":
        attributed = layers["cosim.run.self_s"] + layers["adaptive.prewarm.self_s"]
        attributed += layers["batch.evaluate_points.busy_s"] + layers["adaptive.control.busy_s"]
        print(
            f"  cosim.run self + adaptive.prewarm self + batch.evaluate_points + adaptive.control "
            f"= {attributed / layers['trace.request_s']:.1%} of traced request time"
        )
    return session, {name: {"value": metrics[name], "unit": unit} for name, unit in LAYER_UNITS.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("design_sweep", "fleet_plan", "closed_loop"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", choices=("full", "tiny"), default="full", help="tiny: the smoke-test size"
    )
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    workloads = _bootstrap()
    if args.setup_probe:
        workloads.WORKLOADS[args.workload]("full")
        print("ready", flush=True)
        return 0
    session, metrics = (per_layer if args.trace else end_to_end)(args, workloads)
    for name, metric in metrics.items():
        print(f"  {name:<40} {metric['value']:.6g} {metric['unit']}")
    print(
        json.dumps(
            {
                "correct": session.failed == 0,
                "attempted": session.attempted,
                "failed": session.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
