"""Closed-loop co-simulation: an adaptive fleet that shapes its own channel.

PRs 1–3 built three layers that had never been composed: the fleet layer
(:mod:`repro.fleet`) freezes every user at a static operating point, and the
adaptive runtime (:mod:`repro.adaptive`) drives a single user against an
*exogenous* condition trace.  This engine closes the loop: every user in a
:class:`~repro.fleet.population.FleetPopulation` runs an adaptive
:class:`~repro.adaptive.controllers.Controller`, while the shared Wi-Fi
contention (:class:`~repro.fleet.contention.ContentionModel`) and the edge
GPU queueing (:class:`~repro.fleet.edge_scheduler.EdgeScheduler`) are
recomputed **from the controllers' own placement decisions** every control
epoch.

Fixed point per epoch
---------------------
Decisions determine load; load determines the conditions decisions are made
under.  Each epoch therefore runs a bounded best-response iteration: the
previous epoch's decisions seed a load estimate, every controller re-decides
against the implied (contended throughput, edge wait) conditions, and the
loop repeats until the decision vector stops changing or the iteration
budget is exhausted.  The endogenous quantities fed to the controllers are
relaxed between iterations (half old, half new) to tame decision flapping;
the *charged* outcomes always use the exact loads implied by the final
decisions.  Every epoch's convergence flag and iteration count are recorded
on the :class:`~repro.cosim.results.CosimReport` — an adversarial fleet
whose best responses cycle is reported, not hidden.

Equivalence classes
-------------------
Users sharing ``(device, app, controller, trace)`` see identical conditions
and make identical decisions, so the engine simulates one representative
controller per class and multiplies: a 10k-user homogeneous fleet costs the
same controller work as a single user plus O(users) NumPy arithmetic per
epoch.  The classes are the population's ``(device, app)`` classes
(:meth:`~repro.fleet.population.FleetPopulation.classes`, shared with the
fleet analyzer), split further by controller and trace identity only when
either is given per user (a mapping or a factory).  Candidate evaluation
inside each class goes through the vectorized batch engine's
structure-group path via the
:class:`~repro.adaptive.runtime.ControlContext` sweep cache, pre-warmed for
the class's exogenous trace when the class is built.

Degeneracies
------------
* ``N == 1``: contention leaves the channel untouched and a sole tenant
  waits zero, so the run reduces to :meth:`repro.adaptive.runtime
  .AdaptiveRuntime.run` and the class report equals its
  :class:`AdaptationReport` field for field.
* every controller a :class:`~repro.adaptive.controllers.StaticBaseline`
  pinned to the users' own operating point: decisions never move, the loop
  converges immediately, and the per-epoch fleet aggregates reproduce
  :meth:`repro.fleet.analyzer.FleetAnalyzer.analyze` bit for bit: both
  charge the same contended throughput, and both take per-edge loads and
  tagged M/G/1 waits from the one
  :meth:`~repro.fleet.edge_scheduler.EdgeScheduler.edge_loads` kernel.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro import telemetry
from repro.adaptive.controllers import Controller
from repro.adaptive.runtime import (
    AdaptationReport,
    CandidateEvaluation,
    ControlContext,
    EpochOutcome,
    build_adaptation_report,
    default_candidates,
)
from repro.adaptive.traces import ConditionTrace, EpochConditions
from repro.batch.grid import OperatingPoint
from repro.config.application import ApplicationConfig, ExecutionMode
from repro.config.device import EdgeServerSpec
from repro.config.network import NetworkConfig
from repro.core.coefficients import CoefficientSet
from repro.core.framework import XRPerformanceModel
from repro.cosim.results import CosimReport, ShardedCosimReport
from repro.exceptions import ConfigurationError
from repro.exec import resolve_backend
from repro.faults.report import fault_outcome
from repro.faults.schedule import EpochFaultState, FaultInjector, FaultSchedule
from repro.fleet.contention import ContentionModel
from repro.fleet.edge_scheduler import EdgeLoads, EdgeScheduler
from repro.fleet.population import FleetPopulation, UserProfile
from repro.simulation.des import EventScheduler

#: Per-user controller specification: one shared template instance, a
#: mapping from user name to controller, or a factory called per user.
ControllerLike = Union[
    Controller,
    Mapping[str, Controller],
    Callable[[UserProfile], Controller],
]

#: Per-user exogenous trace specification, mirroring :data:`ControllerLike`.
TraceLike = Union[
    ConditionTrace,
    Mapping[str, ConditionTrace],
    Callable[[UserProfile], ConditionTrace],
]

#: Relaxation factor on the endogenous throughput/wait between best-response
#: iterations (1.0 would be undamped best response).
_DAMPING = 0.5


class CosimControlContext(ControlContext):
    """A :class:`ControlContext` whose sweeps carry the fleet's edge wait.

    The engine sets :attr:`decision_wait_ms` before every controller
    decision; offloading candidates are then charged that wait on top of
    their closed-form latency (plus the radio-idle energy of waiting), so
    deadline-first selection sees the queueing the rest of the fleet causes.
    A wait of zero returns the memoized base evaluation object untouched —
    the fast path that keeps the ``N == 1`` degeneracy bit-exact.
    """

    def __init__(self, *args, radio_idle_power_w: float = 0.0, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.offload_mask = np.asarray(
            [
                point.app.inference.mode is not ExecutionMode.LOCAL
                for point in self.candidates
            ]
        )
        self.radio_idle_power_w = float(radio_idle_power_w)
        #: Edge queueing delay applied to offloading candidates during the
        #: current decision (set by the co-sim engine each iteration).
        self.decision_wait_ms = 0.0

    def sweep(self, conditions: EpochConditions) -> CandidateEvaluation:
        base = super().sweep(conditions)
        wait = self.decision_wait_ms
        if wait == 0.0:
            return base
        if math.isinf(wait):
            # A saturated edge has no steady state: offloading candidates
            # are infinitely late, and no waiting energy is charged (the
            # same convention as the fleet analyzer).
            latency = np.where(self.offload_mask, math.inf, base.latency_ms)
            energy = base.energy_mj
        else:
            latency = np.where(
                self.offload_mask, base.latency_ms + wait, base.latency_ms
            )
            energy = np.where(
                self.offload_mask,
                base.energy_mj + self.radio_idle_power_w * wait,
                base.energy_mj,
            )
        return CandidateEvaluation(
            latency_ms=latency, energy_mj=energy, min_roi=base.min_roi
        )


@dataclass
class _UserClass:
    """One equivalence class: users that are simulated by a single proxy."""

    name: str
    device: str
    app: ApplicationConfig
    template: Controller
    trace: ConditionTrace
    #: The member users' population indices, ascending.
    users: np.ndarray
    context: CosimControlContext = None  # type: ignore[assignment]
    controller: Controller = None  # type: ignore[assignment]
    arrival_per_ms: np.ndarray = None  # type: ignore[assignment]
    service_ms: np.ndarray = None  # type: ignore[assignment]
    frames_per_epoch: np.ndarray = None  # type: ignore[assignment]
    service_ref_ms: float = 1.0
    outcomes: List[EpochOutcome] = field(default_factory=list)

    @property
    def n_users(self) -> int:
        return len(self.users)


@dataclass
class _EpochLoads:
    """Exact fleet loads implied by one decision vector."""

    n_offloaded: int
    wait_user_ms: np.ndarray
    edge_rate: np.ndarray
    edge_busy: np.ndarray
    #: Worst wait over each class's offloading users (NaN: none offload).
    class_wait_ms: np.ndarray


class CoSimulation:
    """Closed-loop co-simulation of an adaptive multi-user XR fleet.

    Args:
        population: the fleet's users.
        controller: controller specification — a single template instance
            (deep-copied per equivalence class), a mapping from user name to
            controller, or a factory called once per user.  Users given the
            *same* controller object (and device, app, trace) form one
            equivalence class and are simulated by a single proxy; a factory
            returning fresh instances therefore opts a user out of sharing.
            A mapping missing a user raises :class:`ConfigurationError`.
        trace: exogenous per-user condition timeline(s) — the channel each
            user would see absent the rest of the fleet (fading, mobility
            handoffs, non-fleet contenders).  Same sharing semantics as
            ``controller``.  All traces must agree on epoch count/length.
        edge: edge server model shared by the ``n_edges`` servers.
        n_edges: number of identical edge servers behind the cell.
        network: base network configuration of the shared channel.
        contention: Wi-Fi contention model fed back from the offload count
            (defaults to one wrapping ``network``).
        scheduler: edge GPU queueing model.
        deadline_ms: per-frame end-to-end latency budget.
        objective: candidate-selection objective inside each class.
        candidates: explicit operating points shared by every class; None
            derives :func:`~repro.adaptive.runtime.default_candidates` from
            each class's device/app.
        coefficients / complexity_mode / include_aoi: forwarded to the batch
            evaluation contexts.
        max_iterations: best-response iteration budget per epoch (>= 2 so a
            fixed point can be verified).
        faults: optional :class:`~repro.faults.schedule.FaultSchedule`
            injected into the closed loop — dead edges leave the
            round-robin deal, brownouts and straggler windows inflate the
            affected edges' service times, and link degradation scales the
            exogenous channel before contention; controllers see the
            faulted conditions and react.  The report then carries a
            :class:`~repro.faults.report.FaultOutcome` with per-window miss
            rates and time-to-recover.  ``None`` (the default) is bit-exact
            with the pre-fault engine.
    """

    def __init__(
        self,
        population: FleetPopulation,
        controller: ControllerLike,
        trace: TraceLike,
        *,
        edge: Union[str, EdgeServerSpec] = "EDGE-AGX",
        n_edges: int = 1,
        network: Optional[NetworkConfig] = None,
        contention: Optional[ContentionModel] = None,
        scheduler: Optional[EdgeScheduler] = None,
        deadline_ms: float = 700.0,
        objective: str = "quality",
        candidates: Optional[Sequence[OperatingPoint]] = None,
        coefficients: Optional[CoefficientSet] = None,
        complexity_mode: str = "paper",
        include_aoi: bool = True,
        max_iterations: int = 8,
        faults: Optional[FaultSchedule] = None,
    ) -> None:
        if n_edges < 1:
            raise ConfigurationError(f"need at least one edge server, got {n_edges}")
        if max_iterations < 2:
            raise ConfigurationError(
                f"max_iterations must be >= 2 to verify a fixed point, "
                f"got {max_iterations}"
            )
        self.population = (
            population
            if isinstance(population, FleetPopulation)
            else FleetPopulation(users=tuple(population))
        )
        self.edge = edge
        self.n_edges = n_edges
        self.network = network if network is not None else NetworkConfig()
        self.contention = (
            contention if contention is not None else ContentionModel(network=self.network)
        )
        self.scheduler = scheduler if scheduler is not None else EdgeScheduler()
        self.deadline_ms = float(deadline_ms)
        self.objective = objective
        self.coefficients = (
            coefficients if coefficients is not None else CoefficientSet.paper()
        )
        self.complexity_mode = complexity_mode
        self.include_aoi = include_aoi
        self.max_iterations = int(max_iterations)
        self.faults = faults
        # Validates edge targets against the pool up front and memoizes the
        # per-epoch composed states.
        self._injector = (
            FaultInjector(faults, n_edges) if faults is not None else None
        )

        self._n_users = len(self.population)
        self._models: Dict[object, XRPerformanceModel] = {}
        self._share_cache: Dict[int, float] = {}
        self._classes, self._class_of_user = self._build_classes(controller, trace, candidates)

    # -- construction ---------------------------------------------------------

    def _per_user(self, spec, kind: str) -> Optional[list]:
        """Each user's value of a mapping or factory ``spec``; None when shared.

        The spec's kind is dispatched once: a mapping is looked up by user
        name, a callable that is neither a trace nor a controller is called
        once per user, and anything else is one object every user shares.
        """
        if isinstance(spec, Mapping):
            try:
                return [spec[user.name] for user in self.population]
            except KeyError as error:
                raise ConfigurationError(
                    f"no {kind} given for user {error.args[0]!r}"
                ) from None
        if callable(spec) and not isinstance(spec, (ConditionTrace, Controller)):
            return [spec(user) for user in self.population]
        return None

    def _model_for(self, device) -> XRPerformanceModel:
        key = device if isinstance(device, str) else id(device)
        model = self._models.get(key)
        if model is None:
            model = XRPerformanceModel(
                device=device,
                edge=self.edge,
                coefficients=self.coefficients,
                complexity_mode=self.complexity_mode,
            )
            self._models[key] = model
        return model

    def _build_classes(
        self,
        controller: ControllerLike,
        trace: TraceLike,
        candidates: Optional[Sequence[OperatingPoint]],
    ) -> Tuple[List[_UserClass], np.ndarray]:
        class_of_user, keys = self.population.classes()
        controllers = self._per_user(controller, "controller")
        traces = self._per_user(trace, "trace")
        if controllers is None and traces is None:
            members = [(device, app, controller, trace) for device, app in keys]
        else:
            # Split the population classes by controller/trace identity.
            controllers = controllers or [controller] * self._n_users
            traces = traces or [trace] * self._n_users
            refined: Dict[Tuple[int, int, int], int] = {}
            members = []
            class_of = []
            for user, population_class, user_controller, user_trace in zip(
                self.population, class_of_user.tolist(), controllers, traces
            ):
                cls_index = refined.setdefault(
                    (population_class, id(user_controller), id(user_trace)), len(members)
                )
                if cls_index == len(members):
                    members.append((user.device, user.app, user_controller, user_trace))
                class_of.append(cls_index)
            class_of_user = np.array(class_of, dtype=np.intp)
        order = np.argsort(class_of_user, kind="stable")
        sizes = np.bincount(class_of_user, minlength=len(members))
        classes = [
            _UserClass(
                name=f"{device}/{getattr(template, 'name', 'controller')}#{cls_index}",
                device=device,
                app=app,
                template=template,
                trace=cls_trace,
                users=cls_users,
            )
            for cls_index, ((device, app, template, cls_trace), cls_users) in enumerate(
                zip(members, np.split(order, np.cumsum(sizes)[:-1]))
            )
        ]
        reference = classes[0].trace
        for cls in classes:
            if not isinstance(cls.trace, ConditionTrace):
                raise ConfigurationError(
                    f"cannot interpret {cls.trace!r} as a condition trace"
                )
            if (
                cls.trace.n_epochs != reference.n_epochs
                or cls.trace.epoch_ms != reference.epoch_ms
            ):
                raise ConfigurationError(
                    "all class traces must share the same epoch count and length; "
                    f"got {cls.trace.n_epochs} x {cls.trace.epoch_ms} ms vs "
                    f"{reference.n_epochs} x {reference.epoch_ms} ms"
                )
        for cls in classes:
            cls_candidates = (
                tuple(candidates)
                if candidates is not None
                else default_candidates(
                    device=cls.device, edge=self.edge, app=cls.app, network=self.network
                )
            )
            cls.context = CosimControlContext(
                candidates=cls_candidates,
                deadline_ms=self.deadline_ms,
                objective=self.objective,
                coefficients=self.coefficients,
                complexity_mode=self.complexity_mode,
                include_aoi=self.include_aoi,
                radio_idle_power_w=self.network.radio_idle_power_w,
            )
            cls.arrival_per_ms = np.asarray(
                [point.app.frame_rate_fps / 1e3 for point in cls_candidates]
            )
            service = np.zeros(len(cls_candidates))
            for i, point in enumerate(cls_candidates):
                if cls.context.offload_mask[i]:
                    # The same per-frame edge busy time the fleet analyzer
                    # charges (memoized per device model).
                    service[i] = self._model_for(
                        point.device
                    ).latency_model.remote_inference_ms(point.app)
            cls.service_ms = service
            offloading = service[cls.context.offload_mask]
            cls.service_ref_ms = float(offloading.min()) if offloading.size else 1.0
            cls.frames_per_epoch = np.asarray(
                [
                    cls.trace.epoch_ms / point.app.frame_period_ms
                    for point in cls_candidates
                ]
            )
            cls.context.prewarm(cls.trace)
        return classes, class_of_user

    # -- endogenous conditions ------------------------------------------------

    def _share(self, n_offloaded: int) -> float:
        share = self._share_cache.get(n_offloaded)
        if share is None:
            share = self.contention.per_user_throughput_mbps(n_offloaded)
            self._share_cache[n_offloaded] = share
        return share

    def _endogenous(self, base: EpochConditions, n_offloaded: int) -> EpochConditions:
        """Fold the fleet's contention into one user's exogenous conditions.

        The effective throughput is the binding constraint of the user's own
        channel (fading, mobility, background stations) and the fleet's fair
        contended share: ``min(exogenous, share(n_offloaded))``.  With at
        most one offloader the exogenous conditions pass through untouched —
        the ``N == 1`` degeneracy — and when the fleet share binds the value
        equals :meth:`ContentionModel.per_user_throughput_mbps` exactly,
        which is what the static-fleet degeneracy relies on.
        """
        if n_offloaded <= 1:
            return base
        share = self._share(n_offloaded)
        if share >= base.throughput_mbps:
            return base
        return replace(base, throughput_mbps=share, n_contenders=n_offloaded)

    @staticmethod
    def _damp(previous: Optional[float], new: float) -> float:
        if previous is None or previous == new or math.isinf(new) or math.isinf(previous):
            return new
        return _DAMPING * new + (1.0 - _DAMPING) * previous

    # -- loads ----------------------------------------------------------------

    def _loads(
        self,
        decisions: Sequence[Optional[int]],
        fault_state: Optional[EpochFaultState] = None,
    ) -> _EpochLoads:
        """Edge loads and per-user waits implied by a decision vector.

        Users whose chosen candidate offloads are dealt round-robin onto the
        edge servers in population order, and
        :meth:`EdgeScheduler.edge_loads` — the kernel ``FleetAnalyzer``
        calls — sums each edge's offered load and charges every tenant the
        tagged M/G/1 wait of the *other* tenants' load (``inf`` when the
        edge's aggregate load is unstable).

        Under a fault state, dead edges leave the round-robin deal (the
        survivors absorb the load) and each surviving edge's service time
        is scaled by its effective multiplier (brownout/straggler).  With
        every edge dead, offloaders wait forever.
        """
        classes = self._classes
        offload_c = np.asarray(
            [
                decision is not None and bool(cls.context.offload_mask[decision])
                for cls, decision in zip(classes, decisions)
            ]
        )
        rate_c = np.asarray(
            [
                cls.arrival_per_ms[decision] if offloads else 0.0
                for cls, decision, offloads in zip(classes, decisions, offload_c)
            ]
        )
        service_c = np.asarray(
            [
                cls.service_ms[decision] if offloads else 0.0
                for cls, decision, offloads in zip(classes, decisions, offload_c)
            ]
        )
        offloader_indices = np.flatnonzero(offload_c[self._class_of_user])
        offloader_classes = self._class_of_user[offloader_indices]
        n_offloaded = int(offloader_indices.size)
        alive = np.asarray(
            fault_state.alive_edges if fault_state is not None else range(self.n_edges),
            dtype=np.intp,
        )
        if alive.size:
            loads = self.scheduler.edge_loads(
                alive[np.arange(n_offloaded) % alive.size],
                rate_c[offloader_classes],
                service_c[offloader_classes],
                self.n_edges,
                service_scale=(
                    [fault_state.service_scale(i) for i in range(self.n_edges)]
                    if fault_state is not None
                    else None
                ),
            )
        else:
            # Every edge is down: offloaded frames never complete.
            idle = np.zeros(self.n_edges)
            loads = EdgeLoads(idle, idle, np.full(n_offloaded, math.inf))
        wait_user = np.zeros(self._n_users)
        wait_user[offloader_indices] = loads.wait_ms
        class_wait = np.full(len(classes), math.nan)
        np.fmax.at(class_wait, offloader_classes, loads.wait_ms)
        return _EpochLoads(
            n_offloaded=n_offloaded,
            wait_user_ms=wait_user,
            edge_rate=loads.offered_rate_per_ms,
            edge_busy=loads.utilization,
            class_wait_ms=class_wait,
        )

    def _decision_wait(
        self,
        cls_index: int,
        loads: _EpochLoads,
        fault_state: Optional[EpochFaultState] = None,
    ) -> float:
        """The edge wait class ``cls_index`` should decide against.

        A class currently offloading sees the worst wait across the edges
        its users occupy (conservative when round robin splits the class).
        A class currently local sees the wait a marginal tenant would face
        on the least-loaded edge given everyone else's load — zero on an
        idle deployment, so the single-user degeneracy is unaffected.
        Under a fault state dead edges are out of bounds for the marginal
        tenant (infinite wait when every edge is dead), and the tenant's
        reference service time is scaled like the loads are.
        """
        wait = float(loads.class_wait_ms[cls_index])
        if not math.isnan(wait):
            return wait
        if fault_state is not None:
            if fault_state.n_edges_alive == 0:
                return math.inf
            masked_busy = np.where(
                np.asarray(fault_state.edge_capacity) > 0.0,
                loads.edge_busy,
                math.inf,
            )
            edge_index = int(np.argmin(masked_busy))
        else:
            edge_index = int(np.argmin(loads.edge_busy))
        if loads.edge_busy[edge_index] >= 1.0:
            return math.inf
        rate = float(loads.edge_rate[edge_index])
        if rate <= 0.0:
            return 0.0
        scale = (
            fault_state.service_scale(edge_index) if fault_state is not None else 1.0
        )
        return self.scheduler.tagged_waiting_time_ms(
            self._classes[cls_index].service_ref_ms * scale,
            rate,
            float(loads.edge_busy[edge_index]) / rate,
        )

    # -- the epoch loop -------------------------------------------------------

    def _decide_round(
        self,
        epoch: int,
        base: Sequence[EpochConditions],
        snapshots: Sequence[Controller],
        loads: _EpochLoads,
        wait_ms: Sequence[float],
        throughput_mbps: Sequence[float],
    ) -> List[int]:
        """One synchronized decision round under the given per-class conditions.

        Every controller is restored from its epoch-start snapshot first:
        the fixed-point search may call ``decide`` several times per epoch,
        but controller state must advance exactly once per epoch.
        """
        decisions: List[int] = []
        for cls_index, cls in enumerate(self._classes):
            conditions = self._endogenous(base[cls_index], loads.n_offloaded)
            if throughput_mbps[cls_index] != conditions.throughput_mbps:
                conditions = replace(
                    conditions, throughput_mbps=throughput_mbps[cls_index]
                )
            cls.controller = copy.deepcopy(snapshots[cls_index])
            cls.context.decision_wait_ms = wait_ms[cls_index]
            index = int(cls.controller.decide(epoch, conditions, cls.context))
            if not 0 <= index < cls.context.n_candidates:
                raise ConfigurationError(
                    f"controller {cls.controller.name!r} chose candidate "
                    f"{index}, but only {cls.context.n_candidates} exist"
                )
            decisions.append(index)
        return decisions

    def run(self) -> CosimReport:
        """Drive the closed loop over every epoch on the shared DES clock."""
        with telemetry.get().span(
            "cosim.run",
            users=self._n_users,
            epochs=self._classes[0].trace.n_epochs,
            classes=len(self._classes),
        ):
            return self._run()

    def _run(self) -> CosimReport:
        classes = self._classes
        n_users = self._n_users
        n_epochs = classes[0].trace.n_epochs
        epoch_ms = classes[0].trace.epoch_ms
        for cls in classes:
            cls.controller = copy.deepcopy(cls.template)
            cls.context.decision_wait_ms = 0.0
            cls.controller.reset(cls.context)
            cls.outcomes = []
        self._prev_decisions: List[Optional[int]] = [None] * len(classes)

        user_miss = np.zeros(n_users)
        user_latency_sum = np.zeros(n_users)
        user_energy_j = np.zeros(n_users)
        series: Dict[str, list] = {
            name: []
            for name in (
                "converged",
                "iterations",
                "offload_fraction",
                "miss_fraction",
                "p50",
                "p95",
                "p99",
                "mean_latency",
                "total_energy",
                "mean_energy",
                "mean_quality",
                "max_rho",
                "availability",
            )
        }
        sample_values: List[np.ndarray] = []
        sample_counts: List[np.ndarray] = []

        def step(scheduler: EventScheduler) -> None:
            epoch = len(series["converged"])
            self._run_epoch(
                epoch,
                scheduler.now_ms,
                user_miss,
                user_latency_sum,
                user_energy_j,
                series,
                sample_values,
                sample_counts,
            )
            if epoch + 1 < n_epochs:
                scheduler.schedule_in(epoch_ms, step)

        clock = EventScheduler()
        clock.schedule_at(0.0, step)
        clock.run(max_events=n_epochs + 1)
        # ``step`` refers to itself; dropping it breaks the cycle, so a
        # finished run is freed by reference counting, not the cyclic GC.
        del step

        class_reports: List[AdaptationReport] = []
        user_switches = np.zeros(n_users, dtype=int)
        for cls in classes:
            report = build_adaptation_report(
                cls.controller.name,
                cls.trace,
                cls.context,
                cls.frames_per_epoch,
                cls.outcomes,
            )
            class_reports.append(report)
            user_switches[cls.users] = report.switch_count

        all_samples = np.repeat(
            np.concatenate(sample_values), np.concatenate(sample_counts)
        )
        # Saturated-fleet samples are infinite; linear interpolation would
        # produce inf - inf = nan, so fall back to order statistics exactly
        # like FleetReport.  At N == 1 no queueing exists, every sample is
        # finite, and the plain linear path preserves the AdaptationReport
        # degeneracy.
        method = "linear" if np.isfinite(all_samples).all() else "lower"
        fleet_p50, fleet_p95, fleet_p99 = (
            float(np.percentile(all_samples, q, method=method)) for q in (50, 95, 99)
        )
        return CosimReport(
            n_users=n_users,
            n_epochs=n_epochs,
            epoch_ms=epoch_ms,
            deadline_ms=self.deadline_ms,
            n_edges=self.n_edges,
            max_iterations=self.max_iterations,
            class_names=tuple(cls.name for cls in classes),
            class_sizes=tuple(cls.n_users for cls in classes),
            class_reports=tuple(class_reports),
            converged=tuple(series["converged"]),
            iterations=tuple(series["iterations"]),
            offload_fraction=tuple(series["offload_fraction"]),
            miss_fraction=tuple(series["miss_fraction"]),
            p50_latency_ms=tuple(series["p50"]),
            p95_latency_ms=tuple(series["p95"]),
            p99_latency_ms=tuple(series["p99"]),
            mean_latency_ms=tuple(series["mean_latency"]),
            total_energy_mj=tuple(series["total_energy"]),
            mean_energy_mj=tuple(series["mean_energy"]),
            mean_quality=tuple(series["mean_quality"]),
            max_edge_utilization=tuple(series["max_rho"]),
            user_names=tuple(user.name for user in self.population),
            user_miss_rate=tuple(float(v) for v in user_miss / n_epochs),
            user_mean_latency_ms=tuple(float(v) for v in user_latency_sum / n_epochs),
            user_energy_j=tuple(float(v) for v in user_energy_j),
            user_switch_count=tuple(int(v) for v in user_switches),
            deadline_miss_rate=float(np.sum(user_miss) / (n_users * n_epochs)),
            fleet_p50_latency_ms=fleet_p50,
            fleet_p95_latency_ms=fleet_p95,
            fleet_p99_latency_ms=fleet_p99,
            total_energy_j=float(np.sum(user_energy_j)),
            mean_quality_overall=float(np.mean(series["mean_quality"])),
            switch_count=int(np.sum(user_switches)),
            epoch_availability=tuple(series["availability"]),
            faults=fault_outcome(self.faults, self.n_edges, series["miss_fraction"]),
        )

    def _run_epoch(
        self,
        epoch: int,
        now_ms: float,
        user_miss: np.ndarray,
        user_latency_sum: np.ndarray,
        user_energy_j: np.ndarray,
        series: Dict[str, list],
        sample_values: List[np.ndarray],
        sample_counts: List[np.ndarray],
    ) -> None:
        classes = self._classes
        fault_state = (
            self._injector.state(epoch) if self._injector is not None else None
        )
        base = [cls.trace[epoch] for cls in classes]
        if fault_state is not None:
            # Link degradation reshapes the exogenous channel *before*
            # contention; edge-side faults act through the loads below.
            base = [fault_state.apply_to_conditions(c) for c in base]
        snapshots = [copy.deepcopy(cls.controller) for cls in classes]
        decisions: List[Optional[int]] = list(self._prev_decisions)
        prev_wait: List[Optional[float]] = [None] * len(classes)
        prev_thr: List[Optional[float]] = [None] * len(classes)
        converged = False
        iterations = 0
        loads: Optional[_EpochLoads] = None
        # Whether `loads` was computed for the current `decisions` vector
        # (lets the charging step below skip a recomputation).
        loads_current = False
        registry = telemetry.get()
        n_blends = 0

        while iterations < self.max_iterations:
            iterations += 1
            loads = self._loads(decisions, fault_state)
            loads_current = True
            exact_wait = [
                self._decision_wait(cls_index, loads, fault_state)
                for cls_index in range(len(classes))
            ]
            exact_thr = [
                self._endogenous(base[cls_index], loads.n_offloaded).throughput_mbps
                for cls_index in range(len(classes))
            ]
            used_wait = [
                self._damp(previous, exact)
                for previous, exact in zip(prev_wait, exact_wait)
            ]
            used_thr = [
                self._damp(previous, exact)
                for previous, exact in zip(prev_thr, exact_thr)
            ]
            if registry.enabled:
                n_blends += sum(
                    used != exact for used, exact in zip(used_wait, exact_wait)
                )
                n_blends += sum(
                    used != exact for used, exact in zip(used_thr, exact_thr)
                )
            prev_wait, prev_thr = used_wait, used_thr
            new_decisions = self._decide_round(
                epoch, base, snapshots, loads, used_wait, used_thr
            )
            if new_decisions != decisions:
                decisions = new_decisions
                loads_current = False
                continue
            if used_wait == exact_wait and used_thr == exact_thr:
                # The stable decisions were made against their own exact
                # implied conditions: a genuine best-response fixed point.
                converged = True
                break
            # Decisions are stable only under the *damped* conditions, which
            # may be a relaxation artifact (e.g. a blended throughput parked
            # inside a hysteresis dead band).  Spend one iteration verifying
            # against the exact implied conditions before declaring a fixed
            # point.
            if iterations >= self.max_iterations:
                break
            iterations += 1
            verification = self._decide_round(
                epoch, base, snapshots, loads, exact_wait, exact_thr
            )
            prev_wait, prev_thr = list(exact_wait), list(exact_thr)
            if verification == decisions:
                converged = True
                break
            decisions = verification
            loads_current = False
        self._prev_decisions = decisions

        if registry.enabled:
            registry.add("cosim.epochs")
            if converged:
                registry.add("cosim.epochs_converged")
            else:
                registry.add("cosim.epochs_unconverged")
                if not loads_current:
                    # The budget ran out with decisions still moving in the
                    # final round: a best-response cycle, not a stable-but-
                    # unverified point.
                    registry.add("cosim.epochs_oscillating")
            registry.add("cosim.best_response_iterations", iterations)
            registry.add("cosim.damping_blends", n_blends)
            registry.record("cosim.iterations_per_epoch", iterations)
            if fault_state is not None and fault_state.any_fault:
                registry.add("faults.epochs_faulted")
                registry.add(
                    "faults.edges_dead",
                    fault_state.n_edges - fault_state.n_edges_alive,
                )

        # Charge outcomes with the exact (undamped) loads of the final
        # decisions — the realised regime, self-consistent when converged.
        # Every converged exit leaves `loads` computed for exactly this
        # decision vector; only budget-exhausted exits need a recomputation.
        if not loads_current:
            loads = self._loads(decisions, fault_state)
        n_classes = len(classes)
        latency_c = np.empty(n_classes)
        energy_c = np.empty(n_classes)
        quality_c = np.empty(n_classes)
        frames_c = np.empty(n_classes)
        roi_c: List[Optional[float]] = [None] * n_classes
        final_conditions: List[EpochConditions] = []
        for cls_index, cls in enumerate(classes):
            conditions = self._endogenous(base[cls_index], loads.n_offloaded)
            final_conditions.append(conditions)
            cls.context.decision_wait_ms = 0.0
            evaluation = cls.context.sweep(conditions)
            index = decisions[cls_index]
            latency_c[cls_index] = evaluation.latency_ms[index]
            energy_c[cls_index] = evaluation.energy_mj[index]
            quality_c[cls_index] = cls.context.quality[index]
            frames_c[cls_index] = cls.frames_per_epoch[index]
            if evaluation.min_roi is not None:
                roi_c[cls_index] = float(evaluation.min_roi[index])

        class_ids = self._class_of_user
        wait_user = loads.wait_user_ms
        latency_user = latency_c[class_ids] + wait_user
        wait_energy = np.where(
            np.isinf(wait_user), 0.0, self.network.radio_idle_power_w * wait_user
        )
        energy_user = energy_c[class_ids] + wait_energy
        missed_user = latency_user > self.deadline_ms

        user_miss += missed_user
        user_latency_sum += latency_user
        user_energy_j += energy_user * frames_c[class_ids] / 1e3

        method = "linear" if np.isfinite(latency_user).all() else "lower"
        series["converged"].append(converged)
        series["iterations"].append(iterations)
        series["offload_fraction"].append(loads.n_offloaded / self._n_users)
        series["miss_fraction"].append(float(np.mean(missed_user)))
        for name, q in (("p50", 50), ("p95", 95), ("p99", 99)):
            series[name].append(float(np.percentile(latency_user, q, method=method)))
        series["mean_latency"].append(float(np.mean(latency_user)))
        series["total_energy"].append(float(np.sum(energy_user)))
        series["mean_energy"].append(float(np.mean(energy_user)))
        series["mean_quality"].append(float(np.mean(quality_c[class_ids])))
        series["max_rho"].append(float(loads.edge_busy.max()))
        series["availability"].append(
            fault_state.availability if fault_state is not None else 1.0
        )
        values, counts = np.unique(latency_user, return_counts=True)
        sample_values.append(values)
        sample_counts.append(counts)

        for cls_index, cls in enumerate(classes):
            mean_latency = float(np.mean(latency_user[cls.users]))
            outcome = EpochOutcome(
                epoch=epoch,
                time_ms=now_ms,
                index=decisions[cls_index],
                latency_ms=mean_latency,
                energy_mj=float(np.mean(energy_user[cls.users])),
                quality=float(quality_c[cls_index]),
                deadline_missed=mean_latency > self.deadline_ms,
                min_roi=roi_c[cls_index],
            )
            cls.controller.observe(epoch, final_conditions[cls_index], outcome)
            cls.outcomes.append(outcome)


# ---------------------------------------------------------------------------
# Sharded entry point
# ---------------------------------------------------------------------------


def _run_shard(payload: tuple) -> Tuple[CosimReport, Optional[dict]]:
    """Run one shard; optionally capture its telemetry snapshot.

    ``capture`` makes the shard record into a *fresh* registry (restored
    afterwards) whether it runs in a pool worker or in-process during the
    serial fallback — the merged parent-side snapshot is identical either
    way, which keeps the fallback bit-compatible.
    """
    population, controller, trace, kwargs, capture = payload
    if not capture:
        return CoSimulation(population, controller, trace, **kwargs).run(), None
    # Thread-local activation: correct in a process worker, a thread
    # worker, and the in-process serial fallback alike.
    with telemetry.scoped(telemetry.Telemetry()) as registry:
        report = CoSimulation(population, controller, trace, **kwargs).run()
    return report, registry.snapshot()


def run_cosim(
    population: FleetPopulation,
    controller: ControllerLike,
    trace: TraceLike,
    *,
    n_shards: int = 1,
    shard_timeout_s: Optional[float] = None,
    backend: Optional[str] = None,
    **kwargs,
) -> Union[CosimReport, ShardedCosimReport]:
    """Run a co-simulation, optionally sharded across independent cells.

    With ``n_shards == 1`` this is exactly ``CoSimulation(...).run()``.
    Otherwise the population is partitioned round-robin into ``n_shards``
    independent cells — each with its own Wi-Fi channel and ``n_edges``
    edge servers — and the shards fan out through the execution backend
    named by ``backend`` (default: ``REPRO_EXEC_BACKEND``, then the
    hardened process pool; see :func:`repro.exec.resolve_backend`):
    unpicklable specifications fall back to in-process execution, and a
    shard whose worker crashes or exceeds ``shard_timeout_s`` is
    re-executed serially while completed shards keep their results.
    Shards are deterministic and merged in shard order, so every backend
    and every recovery path produces a result bit-identical to the
    all-serial run.
    """
    if n_shards < 1:
        raise ConfigurationError(f"n_shards must be >= 1, got {n_shards}")
    population = (
        population
        if isinstance(population, FleetPopulation)
        else FleetPopulation(users=tuple(population))
    )
    if n_shards == 1:
        return CoSimulation(population, controller, trace, **kwargs).run()
    if n_shards > len(population):
        raise ConfigurationError(
            f"cannot split {len(population)} users into {n_shards} shards"
        )
    registry = telemetry.get()
    capture = registry.enabled
    payloads = [
        (
            FleetPopulation(users=population.users[shard::n_shards]),
            controller,
            trace,
            kwargs,
            capture,
        )
        for shard in range(n_shards)
    ]
    with registry.span("cosim.run_sharded", users=len(population), shards=n_shards):
        results = resolve_backend(backend).map_tasks(
            _run_shard,
            payloads,
            max_workers=n_shards,
            timeout_s=shard_timeout_s,
            label="exec",
        )
        with registry.span("cosim.merge_shards", shards=n_shards):
            # Shard snapshots merge in shard order (associative, so any
            # grouping agrees on every deterministic field).
            for _, snapshot in results:
                if snapshot is not None:
                    registry.merge_snapshot(snapshot)
            return ShardedCosimReport.from_shards(
                tuple(report for report, _ in results)
            )
