"""The :class:`FleetAnalyzer` facade — multi-user fleet performance analysis.

Scales the paper's single-user analytical framework to ``N`` users sharing
one Wi-Fi channel and a pool of edge GPUs::

    from repro.fleet import FleetAnalyzer, homogeneous

    fleet = homogeneous(64, device="XR1")
    analyzer = FleetAnalyzer(fleet, edge="EDGE-AGX", slo_ms=100.0)
    print(analyzer.analyze().summary())

Composition: one :class:`XRPerformanceModel` per *device model* (memoized,
sharing a single :class:`CoefficientSet`), per-user network parameters
adjusted by the :class:`ContentionModel`, per-tenant edge queueing delay
from the :class:`EdgeScheduler`, and placements chosen by an
:class:`AdmissionPolicy`.  Users fall into the population's ``(device,
app)`` equivalence classes (:meth:`FleetPopulation.classes`).  Reports,
service times and outcome totals are computed once per class; only the
candidate, the policy decision and the outcome are built per user.

With a single user the analyzer degenerates exactly to the paper's model:
contention leaves the channel untouched at ``N == 1`` and a sole edge tenant
sees zero queueing, so the reported numbers equal
``XRPerformanceModel.analyze()`` verbatim.
"""

from __future__ import annotations

import math
from dataclasses import astuple, replace
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from repro import telemetry
from repro.config.application import ApplicationConfig, ExecutionMode
from repro.config.device import EdgeServerSpec
from repro.config.network import NetworkConfig
from repro.config.validation import ensure_positive
from repro.core.coefficients import CoefficientSet
from repro.core.framework import XRPerformanceModel
from repro.core.results import PerformanceReport
from repro.devices.catalog import get_edge_server
from repro.exceptions import ConfigurationError
from repro.faults.schedule import EpochFaultState
from repro.fleet.admission import (
    AdmissionPolicy,
    PlacementDecision,
    RoundRobinAdmission,
    UserCandidate,
    check_edge_count,
)
from repro.fleet.contention import ContentionModel
from repro.fleet.edge_scheduler import EdgeScheduler
from repro.fleet.population import FleetPopulation, UserProfile
from repro.fleet.results import FleetReport, UserOutcome

PopulationLike = Union[FleetPopulation, Sequence[UserProfile]]


def _resolve_population(population: PopulationLike) -> FleetPopulation:
    if isinstance(population, FleetPopulation):
        return population
    return FleetPopulation(users=tuple(population))


def _resolve_edge(edge: Union[str, EdgeServerSpec]) -> EdgeServerSpec:
    if isinstance(edge, EdgeServerSpec):
        return edge
    if isinstance(edge, str):
        return get_edge_server(edge)
    raise ConfigurationError(f"cannot interpret {edge!r} as an edge server")


class _UserClass(NamedTuple):
    """One (device, app) equivalence class of the population."""

    device: str
    apps: Tuple[ApplicationConfig, ApplicationConfig]  # (local, remote) variants
    candidate: UserCandidate  # statistics every member shares (named after the device)


class FleetAnalyzer:
    """Fleet-scale latency/energy/AoI analysis on shared infrastructure.

    Args:
        population: the fleet's users (a :class:`FleetPopulation` or any
            sequence of :class:`UserProfile`).
        edge: edge server model shared by all ``n_edges`` servers (catalog
            name or spec), mirroring the paper's homogeneous-edge assumption
            (Eq. 15).
        n_edges: number of identical edge servers behind the cell.
        network: single-user network configuration of the shared channel.
        coefficients: regression coefficients shared by every per-device
            model (defaults to the paper's published set).
        policy: admission/placement policy (defaults to round-robin).
        contention: shared-channel contention model (defaults to one wrapping
            ``network``).
        scheduler: edge GPU queueing model.
        slo_ms: optional per-user motion-to-photon SLO recorded on reports.
        complexity_mode: CNN-complexity mode forwarded to the per-device
            models.
        include_aoi: evaluate the AoI model per user (on by default).
        fault_state: optional composed fault state (one epoch of a
            :class:`~repro.faults.schedule.FaultSchedule`): dead edges leave
            the admission pool (offload-preferring users re-route to the
            survivors, or run locally when none remain), brownout/straggler
            windows inflate the affected edges' service times, and link
            degradation reshapes the shared channel before contention.  The
            report then carries availability/degradation metrics.  ``None``
            (the default) is bit-exact with the pre-fault analyzer.
    """

    def __init__(
        self,
        population: PopulationLike,
        edge: Union[str, EdgeServerSpec] = "EDGE-AGX",
        n_edges: int = 1,
        network: Optional[NetworkConfig] = None,
        coefficients: Optional[CoefficientSet] = None,
        policy: Optional[AdmissionPolicy] = None,
        contention: Optional[ContentionModel] = None,
        scheduler: Optional[EdgeScheduler] = None,
        slo_ms: Optional[float] = None,
        complexity_mode: str = "paper",
        include_aoi: bool = True,
        fault_state: Optional[EpochFaultState] = None,
    ) -> None:
        check_edge_count(n_edges)
        if slo_ms is not None:
            ensure_positive("SLO (ms)", slo_ms)
        self.population = _resolve_population(population)
        self.edge = _resolve_edge(edge)
        self.n_edges = n_edges
        self.network = network if network is not None else NetworkConfig()
        if fault_state is not None:
            if fault_state.n_edges != n_edges:
                raise ConfigurationError(
                    f"fault state describes {fault_state.n_edges} edge(s), "
                    f"but the analyzer has {n_edges}"
                )
            # Link degradation reshapes the channel before contention (the
            # default contention model below wraps the faulted network).
            self.network = fault_state.apply_to_network(self.network)
        self.fault_state = fault_state
        self.coefficients = coefficients if coefficients is not None else CoefficientSet.paper()
        self.policy = policy if policy is not None else RoundRobinAdmission()
        self.contention = (
            contention if contention is not None else ContentionModel(network=self.network)
        )
        self.scheduler = scheduler if scheduler is not None else EdgeScheduler()
        self.slo_ms = slo_ms
        self.complexity_mode = complexity_mode
        self.include_aoi = include_aoi
        # Per-device model cache: every entry shares self.coefficients, so a
        # mixed-device fleet builds at most one model per catalog entry.
        self._models: Dict[str, XRPerformanceModel] = {}
        # Per-(device, app, network) report cache, looked up once per user
        # class and side, so its hits and misses count configurations, not
        # users.  Missing keys are batch-evaluated together (_batch_reports).
        self._reports: Dict[Tuple[str, ApplicationConfig, NetworkConfig], PerformanceReport] = {}
        self._service_times: Dict[Tuple[str, ApplicationConfig], float] = {}
        # Mode-variant cache: with_mode() rebuilds frozen configs.
        self._mode_variants: Dict[Tuple[ApplicationConfig, ExecutionMode], ApplicationConfig] = {}
        # Hit/miss tallies per cache (plain ints; see cache_stats()).
        self._cache_hits: Dict[str, int] = {name: 0 for name in self._CACHE_NAMES}
        self._cache_misses: Dict[str, int] = {name: 0 for name in self._CACHE_NAMES}

    #: The instance caches cache_stats() reports on (name -> attribute).
    _CACHE_NAMES = {
        "models": "_models",
        "reports": "_reports",
        "service_times": "_service_times",
        "mode_variants": "_mode_variants",
    }

    def cache_stats(self) -> Dict[str, Dict[str, int]]:
        """Hit/miss/size statistics of the analyzer's memoization caches.

        Keys: ``models`` (per-device :class:`XRPerformanceModel`),
        ``reports`` (per ``(device, app, network)`` performance reports —
        batch-primed entries count as misses exactly once), ``service_times``
        (per ``(device, app)`` edge busy times) and ``mode_variants``
        (``app.with_mode`` rebuilds).  Lookups happen once per user class, so
        the counts do not grow with a class's size.  Deterministic per
        instance: the same call sequence produces the same statistics.
        """
        return {
            name: {
                "hits": self._cache_hits[name],
                "misses": self._cache_misses[name],
                "currsize": len(getattr(self, attribute)),
            }
            for name, attribute in self._CACHE_NAMES.items()
        }

    def _publish_cache_stats(self) -> None:
        """Record the current cache statistics as telemetry gauges."""
        registry = telemetry.get()
        for name, stats in self.cache_stats().items():
            for field_name, value in stats.items():
                registry.gauge(f"fleet.cache.{name}.{field_name}", value)

    # -- memoized building blocks ------------------------------------------------

    def _memo(self, name: str, key, build):
        """``build()`` memoized under ``key`` in cache ``name``, tallied."""
        cache = getattr(self, self._CACHE_NAMES[name])
        value = cache.get(key)
        if value is None:
            self._cache_misses[name] += 1
            value = cache[key] = build()
        else:
            self._cache_hits[name] += 1
        return value

    def model_for(self, device: str) -> XRPerformanceModel:
        """The (memoized) single-user model for one device catalog entry."""
        return self._memo(
            "models",
            device,
            lambda: XRPerformanceModel(
                device=device,
                edge=self.edge,
                coefficients=self.coefficients,
                complexity_mode=self.complexity_mode,
            ),
        )

    def _mode_variant(
        self, app: ApplicationConfig, mode: ExecutionMode
    ) -> ApplicationConfig:
        """Memoized ``app.with_mode(mode)`` (identity when already in the mode)."""
        return self._memo("mode_variants", (app, mode), lambda: app.with_mode(mode))

    def _batch_reports(
        self, keys: Sequence[Tuple[str, ApplicationConfig, NetworkConfig]]
    ) -> List[PerformanceReport]:
        """Reports for (device, app, network) keys; missing ones in one batch call.

        Each missing key counts as one miss and each requested key as one
        hit.  The batch engine's reports are bit-identical to scalar
        ``analyze()``.
        """
        from repro.batch import OperatingPoint, evaluate_points

        missing = [key for key in dict.fromkeys(keys) if key not in self._reports]
        if missing:
            self._cache_misses["reports"] += len(missing)
            batch = evaluate_points(
                [
                    OperatingPoint(app=app, network=network, device=device, edge=self.edge)
                    for device, app, network in missing
                ],
                coefficients=self.coefficients,
                complexity_mode=self.complexity_mode,
                include_aoi=self.include_aoi,
            )
            for index, key in enumerate(missing):
                self._reports[key] = batch.report_at(index)
        self._cache_hits["reports"] += len(keys)
        return [self._reports[key] for key in keys]

    def _service_time_ms(self, device: str, app: ApplicationConfig) -> float:
        """Edge GPU busy time per frame of one (device, app) class (memoized)."""
        return self._memo(
            "service_times",
            (device, app),
            lambda: self.model_for(device).latency_model.remote_inference_ms(app),
        )

    # -- pipeline stages -----------------------------------------------------------

    def _class_candidates(self) -> Tuple[List[int], List[_UserClass], List[UserCandidate]]:
        """Each user's class index, the classes, and the per-user candidates.

        The classes are :meth:`FleetPopulation.classes`; every mode variant,
        report and service time is looked up once per class.
        """
        class_array, keys = self.population.classes()
        class_of = class_array.tolist()
        wants = [app.inference.mode is not ExecutionMode.LOCAL for _, app in keys]
        sizes = np.bincount(class_array, minlength=len(keys)).tolist()
        n_wants = sum(size for size, offload in zip(sizes, wants) if offload)
        remote_network = self.contention.network_for(max(n_wants, 1))
        apps = [
            (
                self._mode_variant(app, ExecutionMode.LOCAL),
                app if offload else self._mode_variant(app, ExecutionMode.REMOTE),
            )
            for (_, app), offload in zip(keys, wants)
        ]
        reports = self._batch_reports(
            [
                key
                for (device, _), (local_app, remote_app) in zip(keys, apps)
                for key in ((device, local_app, self.network), (device, remote_app, remote_network))
            ]
        )
        classes: List[_UserClass] = []
        for (device, app), pair, offload, local, remote in zip(
            keys, apps, wants, reports[0::2], reports[1::2]
        ):
            candidate = UserCandidate(
                name=device,
                wants_offload=offload,
                frame_rate_fps=app.frame_rate_fps,
                service_time_ms=self._service_time_ms(device, pair[1]),
                local_latency_ms=local.total_latency_ms,
                remote_latency_ms=remote.total_latency_ms,
                local_energy_mj=local.total_energy_mj,
                remote_energy_mj=remote.total_energy_mj,
            )
            classes.append(_UserClass(device, pair, candidate))
        fields = [astuple(entry.candidate)[1:] for entry in classes]
        candidates = [
            UserCandidate(user.name, *fields[index])
            for user, index in zip(self.population, class_of)
        ]
        return class_of, classes, candidates

    def candidates(self) -> List[UserCandidate]:
        """Per-user statistics for the admission policy.

        Remote statistics are evaluated under the contention of *all*
        offload-preferring users — an upper bound on the contention any
        admitted subset will actually see — so SLO-guarding policies err
        towards rejecting rather than admitting users into violation.
        With a single user this bound coincides with the uncontended
        channel, preserving the single-user equivalence.
        """
        return self._class_candidates()[2]

    def placements(self) -> List[PlacementDecision]:
        """Admission/placement decisions for the whole fleet."""
        return self.policy.assign(self.candidates(), self.n_edges)

    # -- fleet analysis --------------------------------------------------------------

    def analyze(self) -> FleetReport:
        """Evaluate the whole fleet and aggregate into a :class:`FleetReport`."""
        with telemetry.get().span(
            "fleet.analyze", users=len(self.population), edges=self.n_edges
        ) as span:
            class_of, classes, candidates = self._class_candidates()
            span.annotate(classes=len(classes))
            report = self._analyze(class_of, classes, candidates)
        if telemetry.get().enabled:
            self._publish_cache_stats()
        return report

    def _placements_under_faults(
        self, candidates: List[UserCandidate]
    ) -> Tuple[List[PlacementDecision], int]:
        """Placements re-routed around dead edges.

        The admission policy sees only the surviving edges (as *slots*);
        its slot indices are then mapped back onto the physical pool.  With
        no edge alive every offload-preferring user is forced local.  With
        no fault state the policy sees the full pool untouched.
        """
        fault_state = self.fault_state
        if fault_state is None:
            return self.policy.assign(candidates, self.n_edges), 0
        alive = fault_state.alive_edges
        if not alive:
            forced_local = sum(1 for c in candidates if c.wants_offload)
            decisions = [
                PlacementDecision(
                    name=candidate.name,
                    offload=False,
                    edge_index=None,
                    reason=(
                        "forced local: every edge server is down"
                        if candidate.wants_offload
                        else "profile prefers local inference"
                    ),
                )
                for candidate in candidates
            ]
            return decisions, forced_local
        if len(alive) == self.n_edges:
            return self.policy.assign(candidates, self.n_edges), 0
        slot_decisions = self.policy.assign(candidates, len(alive))
        decisions = [
            replace(
                decision,
                edge_index=alive[decision.edge_index],
                reason=(
                    f"re-routed to edge {alive[decision.edge_index]} "
                    f"(degraded pool: {len(alive)}/{self.n_edges} alive)"
                ),
            )
            if decision.offload and decision.edge_index is not None
            else decision
            for decision in slot_decisions
        ]
        return decisions, 0

    def _analyze(
        self,
        class_of: List[int],
        classes: List[_UserClass],
        candidates: List[UserCandidate],
    ) -> FleetReport:
        fault_state = self.fault_state
        decisions, forced_local = self._placements_under_faults(candidates)
        offloaded = [decision.offload for decision in decisions]
        offload_classes = [index for index, offload in zip(class_of, offloaded) if offload]

        # Per-edge offered load and each offloader's tagged wait; a fault
        # state inflates the service time of the edges it degrades.
        rates = np.array([entry.candidate.arrival_rate_per_ms for entry in classes])
        services = np.array([entry.candidate.service_time_ms for entry in classes])
        loads = self.scheduler.edge_loads(
            [decision.edge_index for decision in decisions if decision.offload],
            rates[offload_classes],
            services[offload_classes],
            self.n_edges,
            service_scale=(
                [fault_state.service_scale(index) for index in range(self.n_edges)]
                if fault_state is not None
                else None
            ),
        )
        offloader_waits = iter(loads.wait_ms.tolist())

        # One outcome side per (class, offloaded) pair some user takes, in
        # order of first appearance; the post-admission contention level can
        # differ from the candidates' bound when a policy rejects users.
        pairs = list(dict.fromkeys(zip(class_of, offloaded)))
        # Local users keep the clean channel; offloaders share the contended one.
        n_stations = len(offload_classes)
        contended = self.contention.network_for(n_stations) if n_stations else self.network
        networks = (self.network, contended)
        keys = [
            (classes[index].device, classes[index].apps[offload], networks[offload])
            for index, offload in pairs
        ]
        sides = {}
        for pair, (_, app, network), report in zip(pairs, keys, self._batch_reports(keys)):
            fresh_fraction = None
            if report.aoi is not None and report.aoi.roi:
                fresh_fraction = len(report.aoi.fresh_sensors()) / len(report.aoi.roi)
            sides[pair] = (
                app.inference.mode.value,
                network,
                report,
                report.total_latency_ms,
                report.total_energy_mj,
                fresh_fraction,
            )

        outcomes: List[UserOutcome] = []
        for user, index, decision in zip(self.population, class_of, decisions):
            mode, network, report, latency_ms, energy_mj, fresh_fraction = sides[
                index, decision.offload
            ]
            wait_ms = next(offloader_waits) if decision.offload else 0.0
            # Waiting for a contended edge keeps the radio idle-listening;
            # bill that time at the radio idle power (W * ms = mJ).
            wait_energy_mj = network.radio_idle_power_w * wait_ms if wait_ms != math.inf else 0.0
            outcomes.append(
                UserOutcome(
                    user=user.name,
                    device=user.device,
                    mode=mode,
                    offloaded=decision.offload,
                    edge_index=decision.edge_index,
                    throughput_mbps=network.throughput_mbps,
                    edge_wait_ms=wait_ms,
                    latency_ms=latency_ms + wait_ms,
                    energy_mj=energy_mj + wait_energy_mj,
                    report=report,
                    aoi_fresh_fraction=fresh_fraction,
                )
            )
        if fault_state is not None:
            registry = telemetry.get()
            if registry.enabled and fault_state.any_fault:
                registry.add("faults.fleet.analyses")
                registry.add("faults.fleet.forced_local", forced_local)
                registry.add("faults.fleet.edges_dead", self.n_edges - fault_state.n_edges_alive)
        return FleetReport.from_outcomes(
            outcomes,
            edge_utilizations=loads.utilization,
            slo_ms=self.slo_ms,
            availability=fault_state.availability if fault_state is not None else 1.0,
            n_edges_alive=fault_state.n_edges_alive if fault_state is not None else None,
            fault_forced_local=forced_local,
        )
