"""Seeded request generators and correctness checks for the three workloads.

A workload is a fixed cycle of request *slots*.  A slot pins what sets a
request's cost (grid shape, fleet size, epochs, controller, admission
policy); the seed draws everything else (axis values, devices, SLOs, edge
counts, trace seeds).  Two seeds therefore give different inputs of equal
cost, which keeps a run's figures steady across seeds while no seed can
tune the inputs to the code.

Every request is issued through the public ``repro`` API by ``call`` and
judged afterwards by ``check``, which returns the reasons it failed (an
empty list when the outputs are right).  Inputs are built by ``build``
before the request's timer starts; ``call`` wraps each public call in a
``tracer.span`` so the traced run can attribute time to layers.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Tuple

import numpy as np

from repro import (
    AdaptiveRuntime,
    ApplicationConfig,
    ConditionTrace,
    EpochConditions,
    EwmaPredictive,
    ExecutionMode,
    FleetAnalyzer,
    GreedyBatchSweep,
    HysteresisThreshold,
    NetworkConfig,
    OperatingPoint,
    ParameterGrid,
    StaticBaseline,
    XRPerformanceModel,
    evaluate_grid,
    plan_capacity,
    run_cosim,
)
from repro.adaptive import burst_trace, drift_trace, step_trace
from repro.fleet import homogeneous, mixed_devices, mixed_workloads
from repro.fleet.admission import (
    EnergyAwareAdmission,
    GreedySLOAdmission,
    RoundRobinAdmission,
)

EDGE = "EDGE-AGX"
#: The device catalog (Table I); the XR1-XR6 headsets and phones can host
#: fleet users, XR7 (an external Jetson board) only appears in grids.
DEVICES = ("XR1", "XR2", "XR3", "XR4", "XR5", "XR6", "XR7")
XR_DEVICES = DEVICES[:6]
LOCAL, REMOTE = ExecutionMode.LOCAL, ExecutionMode.REMOTE

#: Scalar-vs-batch agreement demanded of sampled grid points: the tolerance
#: of the scalar/batch parity property tests.
PARITY_REL_TOL = 1e-9
PARITY_ABS_TOL = 1e-12


@dataclass
class Request:
    """One closed-loop request: the public calls and how to judge them."""

    slot: str
    items: int
    call: Callable[[object], object]
    check: Callable[[object], List[str]]


def _spread(rng: random.Random, low: float, high: float, n: int) -> np.ndarray:
    """``n`` evenly spaced values over a seeded sub-range of ``[low, high]``."""
    if n == 1:
        return np.asarray([rng.uniform(low, high)])
    middle = 0.5 * (low + high)
    return np.linspace(rng.uniform(low, middle), rng.uniform(middle, high), n)


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=PARITY_REL_TOL, abs_tol=PARITY_ABS_TOL)


# ---------------------------------------------------------------------------
# design_sweep: offline design-space exploration (paper Figs. 4/5)
# ---------------------------------------------------------------------------

#: (frame sides, CPU clocks, bitrates, throughputs, devices, modes) per slot,
#: from 15 to 10^5 points: the small grids sit in the per-call overhead
#: regime, the large ones in the NumPy-kernel regime.
GRID_SLOTS: Tuple[Tuple[int, int, int, int, int, Tuple[ExecutionMode, ...]], ...] = (
    (5, 3, 1, 1, 1, (LOCAL,)),
    (6, 3, 2, 1, 1, (REMOTE,)),
    (5, 4, 2, 2, 1, (LOCAL,)),
    (5, 6, 3, 2, 1, (REMOTE,)),
    (10, 5, 2, 2, 1, (LOCAL, REMOTE)),
    (10, 9, 5, 1, 1, (LOCAL, REMOTE)),
    (10, 10, 5, 4, 1, (REMOTE,)),
    (15, 10, 5, 3, 2, (LOCAL,)),
    (10, 10, 5, 5, 2, (LOCAL, REMOTE)),
    (11, 10, 10, 5, 2, (LOCAL, REMOTE)),
    (20, 10, 10, 4, 3, (LOCAL, REMOTE)),
    (20, 20, 8, 5, 2, (LOCAL, REMOTE)),
    (25, 20, 10, 5, 2, (LOCAL, REMOTE)),
)
TINY_GRID_SLOTS = ((3, 2, 1, 1, 1, (LOCAL,)), (3, 2, 2, 2, 2, (LOCAL, REMOTE)))
#: Seeded grid points re-analysed by the scalar model next to the optimum.
SPOT_CHECKS = 2
DEADLINE_MS = 700.0


class DesignSweep:
    """Cartesian ``evaluate_grid`` sweeps, then scalar reports of chosen points.

    A request evaluates one grid, picks the least-energy point within the
    deadline, and asks the scalar model for the full report (with AoI) of
    that point and of seeded sample points — the reports a researcher reads
    after a sweep, and the parity spot-checks the check compares.
    """

    name = "design_sweep"

    def __init__(self, scale: str = "full") -> None:
        self.slots = GRID_SLOTS if scale == "full" else TINY_GRID_SLOTS
        self.app = ApplicationConfig.object_detection_default()
        self.network = NetworkConfig()
        self.models = {
            device: XRPerformanceModel(device=device, edge=EDGE) for device in DEVICES
        }

    def build(self, slot_index: int, rng: random.Random) -> List[Request]:
        sides, cpus, bitrates, throughputs, n_devices, modes = self.slots[slot_index]
        grid = ParameterGrid(
            frame_sides_px=_spread(rng, 300.0, 700.0, sides),
            cpu_freqs_ghz=_spread(rng, 0.6, 3.2, cpus),
            bitrates_mbps=_spread(rng, 2.0, 40.0, bitrates),
            throughputs_mbps=_spread(rng, 20.0, 500.0, throughputs),
            devices=tuple(rng.sample(DEVICES, n_devices)),
            modes=modes,
            edge=EDGE,
            app=self.app,
            network=self.network,
        )
        samples = [rng.randrange(grid.n_points) for _ in range(SPOT_CHECKS)]

        def call(tracer):
            with tracer.span("bench.batch.evaluate_grid"):
                result = evaluate_grid(grid)
            latency = result.total_latency_ms
            energy = np.where(latency <= DEADLINE_MS, result.total_energy_mj, np.inf)
            best = int(np.argmin(energy)) if np.isfinite(energy).any() else int(np.argmin(latency))
            indices = [best, *samples]
            reports = []
            for index in indices:
                device, app, network = self._point(grid, result, index)
                with tracer.span("bench.core.analyze"):
                    reports.append(self.models[device].analyze(app, network, include_aoi=True))
            return result, indices, reports

        label = f"grid{grid.n_points}"
        return [Request(label, grid.n_points, call, lambda out: self._check(grid, out))]

    @staticmethod
    def _point(grid: ParameterGrid, result, index: int):
        """The device, application and network of grid point ``index``."""
        group = index // grid.points_per_group
        device = grid.devices[group // len(grid.modes)]
        base = grid.group_app(grid.modes[group % len(grid.modes)])
        coords = {name: float(values[index]) for name, values in result.coords.items()}
        app = replace(
            base,
            cpu_freq_ghz=coords["cpu_freq_ghz"],
            frame_side_px=coords["frame_side_px"],
            gpu_freq_ghz=coords["gpu_freq_ghz"],
            encoder=replace(base.encoder, bitrate_mbps=coords["bitrate_mbps"]),
        )
        network = replace(grid.network, throughput_mbps=coords["throughput_mbps"])
        return device, app, network

    @staticmethod
    def _check(grid: ParameterGrid, out) -> List[str]:
        result, indices, reports = out
        errors = []
        if len(result) != grid.n_points:
            errors.append(f"grid returned {len(result)} of {grid.n_points} points")
        if not (np.isfinite(result.total_latency_ms).all() and (result.total_latency_ms > 0).all()):
            errors.append("grid latencies are not finite and positive")
        for index, scalar in zip(indices, reports):
            latency, energy = result.latency_at(index), result.energy_at(index)
            pairs = [
                (result.total_latency_ms[index], scalar.total_latency_ms),
                (result.total_energy_mj[index], scalar.total_energy_mj),
                (energy.thermal_mj, scalar.energy.thermal_mj),
                (energy.base_mj, scalar.energy.base_mj),
            ]
            if latency.per_segment_ms.keys() != scalar.latency.per_segment_ms.keys():
                errors.append(f"point {index}: batch and scalar segments differ")
                continue
            pairs += [
                (latency.per_segment_ms[s], v) for s, v in scalar.latency.per_segment_ms.items()
            ]
            pairs += [
                (energy.per_segment_mj[s], v) for s, v in scalar.energy.per_segment_mj.items()
            ]
            if not all(_close(float(a), float(b)) for a, b in pairs):
                errors.append(f"point {index}: batch and scalar disagree beyond 1e-9")
        return errors


# ---------------------------------------------------------------------------
# fleet_plan: edge-cell capacity planning
# ---------------------------------------------------------------------------

#: ("analyze", population kind, users, policy) or ("plan", policy, ceiling).
FLEET_SLOTS = (
    ("analyze", "homogeneous", 1000, "round_robin"),
    ("plan", "round_robin", 2048),
    ("analyze", "mixed_devices", 1000, "greedy_slo"),
    ("analyze", "mixed_workloads", 1200, "energy_aware"),
    ("analyze", "mixed_devices", 1800, "round_robin"),
    ("plan", "greedy_slo", 2048),
    ("analyze", "mixed_workloads", 2200, "greedy_slo"),
    ("analyze", "homogeneous", 2700, "energy_aware"),
    ("analyze", "mixed_devices", 3300, "energy_aware"),
    ("plan", "round_robin", 2048),
    ("analyze", "mixed_workloads", 4000, "round_robin"),
    ("analyze", "homogeneous", 5000, "round_robin"),
    ("plan", "energy_aware", 2048),
    ("analyze", "mixed_devices", 6500, "greedy_slo"),
    ("analyze", "mixed_workloads", 9000, "energy_aware"),
    ("analyze", "homogeneous", 13000, "greedy_slo"),
    ("analyze", "mixed_devices", 20000, "round_robin"),
)
TINY_FLEET_SLOTS = (
    ("analyze", "homogeneous", 20, "round_robin"),
    ("analyze", "mixed_devices", 30, "greedy_slo"),
    ("analyze", "mixed_workloads", 30, "energy_aware"),
    ("plan", "round_robin", 64),
    ("plan", "greedy_slo", 64),
    ("plan", "energy_aware", 64),
)


class _ExhaustiveRoundRobin(RoundRobinAdmission):
    """Round-robin admission that forces ``plan_capacity``'s exhaustive path."""


class FleetPlan:
    """``FleetAnalyzer.analyze`` on seeded fleets and ``plan_capacity`` searches."""

    name = "fleet_plan"

    def __init__(self, scale: str = "full") -> None:
        self.slots = FLEET_SLOTS if scale == "full" else TINY_FLEET_SLOTS
        default = ApplicationConfig.object_detection_default()
        self.apps = (default.with_mode(REMOTE), default.with_mode(LOCAL))

    def _policy(self, name: str, slo_ms: float):
        if name == "greedy_slo":
            return GreedySLOAdmission(slo_ms)
        if name == "energy_aware":
            return EnergyAwareAdmission()
        return RoundRobinAdmission()

    def _population(self, kind: str, n_users: int, rng: random.Random):
        if kind == "homogeneous":
            return homogeneous(n_users, device=rng.choice(XR_DEVICES))
        if kind == "mixed_devices":
            return mixed_devices(n_users, devices=tuple(rng.sample(XR_DEVICES, 3)))
        variants = [
            replace(app, frame_side_px=rng.uniform(300.0, 700.0), cpu_freq_ghz=rng.uniform(1.0, 3.0))
            for app in self.apps
        ]
        return mixed_workloads(n_users, apps=(*self.apps, *variants), device=rng.choice(XR_DEVICES))

    def build(self, slot_index: int, rng: random.Random) -> List[Request]:
        slot = self.slots[slot_index]
        if slot[0] == "plan":
            return [self._plan_request(slot[1], slot[2], rng)]
        _, kind, n_users, policy_name = slot
        slo_ms = rng.uniform(500.0, 1500.0)
        n_edges = rng.randint(1, 8)
        population = self._population(kind, n_users, rng)
        policy = self._policy(policy_name, slo_ms)

        def call(tracer):
            with tracer.span("bench.fleet.analyze"):
                return FleetAnalyzer(
                    population, edge=EDGE, n_edges=n_edges, policy=policy, slo_ms=slo_ms
                ).analyze()

        def check(report) -> List[str]:
            return fleet_invariants(report, population, n_edges, slo_ms)

        return [Request(f"{kind}{n_users}/{policy_name}", n_users, call, check)]

    def _plan_request(self, policy_name: str, ceiling: int, rng: random.Random) -> Request:
        device = rng.choice(XR_DEVICES)
        n_edges = rng.randint(1, 8)
        slo_ms = rng.uniform(750.0, 1500.0)
        policy = None if policy_name == "round_robin" else self._policy(policy_name, slo_ms)
        kwargs = dict(device=device, edge=EDGE, slo_ms=slo_ms, n_edges=n_edges, max_users=ceiling)

        def call(tracer):
            with tracer.span("bench.fleet.plan_capacity") as span:
                plan = plan_capacity(policy=policy, **kwargs)
                span.annotate(evaluations=plan.evaluations)
            return plan

        def check(plan) -> List[str]:
            if plan.max_users >= 1 and not plan.p95_at_capacity_ms <= slo_ms:
                return [f"p95 at capacity {plan.p95_at_capacity_ms} ms exceeds the SLO"]
            if policy is not None:
                # Greedy/energy-aware plans reach the ceiling on this model,
                # so a boundary check would prove nothing.
                return []
            slow = plan_capacity(policy=_ExhaustiveRoundRobin(), **kwargs)
            fields = ("max_users", "p95_at_capacity_ms", "evaluations", "ceiling_reached")
            errors = [
                f"fast-path {name} {getattr(plan, name)} != exhaustive {getattr(slow, name)}"
                for name in fields
                if getattr(plan, name) != getattr(slow, name)
            ]
            if not plan.ceiling_reached:
                beyond = FleetAnalyzer(
                    homogeneous(plan.max_users + 1, device=device),
                    edge=EDGE,
                    n_edges=n_edges,
                    policy=RoundRobinAdmission(),
                    slo_ms=slo_ms,
                    include_aoi=False,
                ).analyze()
                if not beyond.p95_latency_ms > slo_ms:
                    errors.append(f"{plan.max_users + 1} users still meet the SLO")
            return errors

        return Request(f"plan/{policy_name}", 0, call, check)


def fleet_invariants(report, population, n_edges: int, slo_ms: float) -> List[str]:
    """Accounting invariants every :class:`FleetReport` must satisfy."""
    errors = []
    outcomes = report.outcomes
    if report.n_users != len(population):
        errors.append(f"{report.n_users} outcomes for {len(population)} users")
    if [o.user for o in outcomes] != [u.name for u in population]:
        errors.append("outcomes are not in population order")
    if report.device_counts != population.device_counts:
        errors.append("device counts do not match the population")
    if len(report.edge_utilizations) != n_edges or min(report.edge_utilizations) < 0.0:
        errors.append("edge utilisations are not one non-negative value per edge")
    for outcome in outcomes:
        placed = outcome.edge_index is not None and 0 <= outcome.edge_index < n_edges
        if outcome.offloaded != placed:
            errors.append(f"{outcome.user}: offload flag and edge index disagree")
            break
        if not outcome.offloaded and outcome.edge_wait_ms != 0.0:
            errors.append(f"{outcome.user}: a local user waits for an edge")
            break
    offloaded = sum(1 for o in outcomes if o.offloaded)
    if offloaded != report.n_offloaded or sum(o.edge_index is not None for o in outcomes) != offloaded:
        errors.append("offload count does not match the outcomes")
    if offloaded == 0 and any(rho != 0.0 for rho in report.edge_utilizations):
        errors.append("idle edges report a load")
    violations = sum(1 for o in outcomes if not o.latency_ms <= slo_ms)
    if violations != report.slo_violations:
        errors.append(f"{report.slo_violations} SLO violations reported, {violations} counted")
    energies = [o.energy_mj for o in outcomes]
    if not math.isclose(report.total_energy_mj, math.fsum(energies), rel_tol=1e-9):
        errors.append("total energy is not the sum of the users' energy")
    if not report.p50_latency_ms <= report.p95_latency_ms <= report.p99_latency_ms:
        errors.append("latency percentiles are not ordered")
    return errors


# ---------------------------------------------------------------------------
# closed_loop: runtime adaptation under shared contention
# ---------------------------------------------------------------------------

EPOCHS = 16
#: ("cosim", devices, users, controller, trace, edges) — one device makes a
#: homogeneous population (one equivalence class), three a mixed one —
#: ("static", users) or ("single",): an N=1 co-simulation followed by the
#: ``AdaptiveRuntime`` construction and run it must reproduce.  Devices are
#: pinned per slot because they set how often best response flips.
COSIM_SLOTS = (
    ("cosim", ("XR1",), 10000, "greedy", "step", 8),  # the legacy bench shape
    ("cosim", ("XR2",), 64, "greedy", "step", 8),
    ("cosim", ("XR3",), 1000, "hysteresis", "burst", 2),
    ("single",),
    ("cosim", ("XR6",), 2500, "ewma", "drift", 4),
    ("cosim", ("XR1", "XR4", "XR5"), 500, "greedy", "burst", 4),
    ("static", 512),
    ("cosim", ("XR5",), 256, "ewma", "step", 2),
    ("cosim", ("XR2", "XR3", "XR6"), 3000, "hysteresis", "step", 8),
    ("cosim", ("XR1", "XR2", "XR6"), 10000, "ewma", "drift", 8),
)
TINY_COSIM_SLOTS = (
    ("cosim", ("XR1",), 16, "greedy", "step", 2),
    ("cosim", ("XR1", "XR2", "XR6"), 12, "ewma", "burst", 2),
    ("single",),
    ("static", 8),
)
CONTROLLERS = {
    "greedy": lambda seed: GreedyBatchSweep(),
    "hysteresis": lambda seed: HysteresisThreshold(),
    "ewma": lambda seed: EwmaPredictive(seed=seed),
}


def _trace(kind: str, n_epochs: int, seed: int) -> ConditionTrace:
    if kind == "step":
        return step_trace(n_epochs, seed=seed)
    if kind == "burst":
        return burst_trace(n_epochs, seed=seed, burst_every=max(2, n_epochs // 3), burst_duration=1 + n_epochs // 8)
    return drift_trace(n_epochs, seed=seed)


def _constant_trace(n_epochs: int, throughput_mbps: float) -> ConditionTrace:
    return ConditionTrace(
        name="constant",
        epoch_ms=100.0,
        epochs=tuple(
            EpochConditions(time_ms=i * 100.0, throughput_mbps=throughput_mbps, handoff_probability=0.0)
            for i in range(n_epochs)
        ),
    )


def _rate_errors(report) -> List[str]:
    """Every rate of a co-simulation report lies in [0, 1]."""
    rates = [
        ("deadline_miss_rate", [report.deadline_miss_rate]),
        ("convergence_rate", [report.convergence_rate]),
        ("offload_fraction", report.offload_fraction),
        ("miss_fraction", report.miss_fraction),
        ("user_miss_rate", report.user_miss_rate),
        ("class deadline_miss_rate", [c.deadline_miss_rate for c in report.class_reports]),
        (
            "class aoi_violation_rate",
            [c.aoi_violation_rate for c in report.class_reports if c.aoi_violation_rate is not None],
        ),
    ]
    errors = [f"{name} outside [0, 1]" for name, values in rates if not all(0.0 <= v <= 1.0 for v in values)]
    if len(report.converged) != report.n_epochs or len(report.user_miss_rate) != report.n_users:
        errors.append("report series do not match the run geometry")
    return errors


class ClosedLoop:
    """``run_cosim`` co-simulations plus N=1 ``AdaptiveRuntime`` requests."""

    name = "closed_loop"

    def __init__(self, scale: str = "full") -> None:
        self.slots = COSIM_SLOTS if scale == "full" else TINY_COSIM_SLOTS
        self.n_epochs = EPOCHS if scale == "full" else 6
        self.network = NetworkConfig()

    def build(self, slot_index: int, rng: random.Random) -> List[Request]:
        slot = self.slots[slot_index]
        if slot[0] == "single":
            return self._single(rng)
        if slot[0] == "static":
            return [self._static(slot[1], rng)]
        _, devices, n_users, controller, trace_kind, n_edges = slot
        seed = rng.randrange(2**31)
        if len(devices) == 1:
            kind, population = "homogeneous", homogeneous(n_users, device=devices[0])
        else:
            kind, population = "mixed_devices", mixed_devices(n_users, devices=devices)
        trace = _trace(trace_kind, self.n_epochs, seed)
        template = CONTROLLERS[controller](seed)

        def call(tracer):
            with tracer.span("bench.cosim.run_cosim"):
                return run_cosim(population, template, trace, n_edges=n_edges)

        return [Request(f"{kind}{n_users}/{controller}/{trace_kind}", n_users * self.n_epochs, call, _rate_errors)]

    def _single(self, rng: random.Random) -> List[Request]:
        seed = rng.randrange(2**31)
        device = rng.choice(XR_DEVICES)
        controller = rng.choice(sorted(CONTROLLERS))
        trace = _trace(rng.choice(("step", "burst", "drift")), self.n_epochs, seed)
        population = homogeneous(1, device=device)
        app = population.users[0].app
        cosim_out: Dict[str, object] = {}

        def cosim_call(tracer):
            with tracer.span("bench.cosim.run_cosim"):
                report = run_cosim(population, CONTROLLERS[controller](seed), trace)
            cosim_out["report"] = report
            return report

        def runtime_call(tracer):
            with tracer.span("bench.adaptive.runtime_init"):
                runtime = AdaptiveRuntime(trace=trace, device=device, edge=EDGE, app=app)
            with tracer.span("bench.adaptive.run"):
                return runtime.run(CONTROLLERS[controller](seed))

        def runtime_check(reference) -> List[str]:
            report = cosim_out.get("report")
            if report is None:
                return ["the paired N=1 co-simulation did not run"]
            if report.class_reports[0] != reference:
                return ["N=1 co-simulation class report differs from AdaptiveRuntime.run"]
            bad = [
                name
                for name in ("deadline_miss_rate", "aoi_violation_rate")
                if getattr(reference, name) is not None and not 0.0 <= getattr(reference, name) <= 1.0
            ]
            return [f"{name} outside [0, 1]" for name in bad]

        return [
            Request(f"single/{controller}", self.n_epochs, cosim_call, _rate_errors),
            Request(f"adaptive/{controller}", self.n_epochs, runtime_call, runtime_check),
        ]

    def _static(self, n_users: int, rng: random.Random) -> Request:
        device = rng.choice(XR_DEVICES)
        n_edges = rng.randint(1, 8)
        population = homogeneous(n_users, device=device)
        app = population.users[0].app
        network = self.network
        trace = _constant_trace(self.n_epochs, network.throughput_mbps)
        candidates = (OperatingPoint(app=app, network=network, device=device, edge=EDGE),)

        def call(tracer):
            with tracer.span("bench.cosim.run_cosim"):
                return run_cosim(
                    population, StaticBaseline(0), trace, n_edges=n_edges, candidates=candidates, network=network
                )

        def check(report) -> List[str]:
            errors = _rate_errors(report)
            fleet = FleetAnalyzer(population, edge=EDGE, n_edges=n_edges, network=network).analyze()
            expected = {
                "p50_latency_ms": fleet.p50_latency_ms,
                "p95_latency_ms": fleet.p95_latency_ms,
                "p99_latency_ms": fleet.p99_latency_ms,
                "mean_latency_ms": fleet.mean_latency_ms,
                "total_energy_mj": fleet.total_energy_mj,
                "mean_energy_mj": fleet.mean_energy_mj,
                "offload_fraction": fleet.n_offloaded / fleet.n_users,
            }
            errors += [
                f"all-static {name} differs from FleetAnalyzer.analyze()"
                for name, value in expected.items()
                if any(v != value for v in getattr(report, name))
            ]
            return errors

        return Request(f"static{n_users}", n_users * self.n_epochs, call, check)


WORKLOADS = {cls.name: cls for cls in (DesignSweep, FleetPlan, ClosedLoop)}

