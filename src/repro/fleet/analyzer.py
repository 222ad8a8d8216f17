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
:class:`AdmissionPolicy`.  All per-user evaluations are cached by
``(device, app, network)``, so a homogeneous 10k-user fleet costs a handful
of model evaluations rather than 10k.

With a single user the analyzer degenerates exactly to the paper's model:
contention leaves the channel untouched at ``N == 1`` and a sole edge tenant
sees zero queueing, so the reported numbers equal
``XRPerformanceModel.analyze()`` verbatim.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro import telemetry
from repro.config.application import ApplicationConfig, ExecutionMode
from repro.config.device import EdgeServerSpec
from repro.config.network import NetworkConfig
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
        if n_edges < 1:
            raise ConfigurationError(f"need at least one edge server, got {n_edges}")
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
            contention
            if contention is not None
            else ContentionModel(network=self.network)
        )
        self.scheduler = scheduler if scheduler is not None else EdgeScheduler()
        self.slo_ms = slo_ms
        self.complexity_mode = complexity_mode
        self.include_aoi = include_aoi
        # Per-device model cache: every entry shares self.coefficients, so a
        # mixed-device fleet builds at most one model per catalog entry.
        self._models: Dict[str, XRPerformanceModel] = {}
        # Per-(device, app, network) report cache: the per-user loop over a
        # 10k-user fleet hits this cache for all but a handful of evaluations.
        # Unique keys are batch-evaluated together (see _prime_reports).
        self._reports: Dict[
            Tuple[str, ApplicationConfig, NetworkConfig], PerformanceReport
        ] = {}
        self._service_times: Dict[Tuple[str, ApplicationConfig], float] = {}
        # Mode-variant cache: with_mode() rebuilds frozen configs, which
        # dominates the per-user loop on large homogeneous fleets.
        self._mode_variants: Dict[
            Tuple[ApplicationConfig, ExecutionMode], ApplicationConfig
        ] = {}
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
        (``app.with_mode`` rebuilds).  Deterministic per instance: the same
        call sequence produces the same statistics.
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

    def model_for(self, device: str) -> XRPerformanceModel:
        """The (memoized) single-user model for one device catalog entry."""
        model = self._models.get(device)
        if model is None:
            self._cache_misses["models"] += 1
            model = XRPerformanceModel(
                device=device,
                edge=self.edge,
                coefficients=self.coefficients,
                complexity_mode=self.complexity_mode,
            )
            self._models[device] = model
        else:
            self._cache_hits["models"] += 1
        return model

    def _mode_variant(
        self, app: ApplicationConfig, mode: ExecutionMode
    ) -> ApplicationConfig:
        """Memoized ``app.with_mode(mode)`` (identity when already in the mode)."""
        key = (app, mode)
        variant = self._mode_variants.get(key)
        if variant is None:
            self._cache_misses["mode_variants"] += 1
            variant = app.with_mode(mode)
            self._mode_variants[key] = variant
        else:
            self._cache_hits["mode_variants"] += 1
        return variant

    def _prime_reports(
        self, keys: Sequence[Tuple[str, ApplicationConfig, NetworkConfig]]
    ) -> None:
        """Batch-evaluate all not-yet-cached (device, app, network) keys at once.

        One call to the vectorized batch engine replaces one scalar
        ``analyze()`` per key; the resulting reports are bit-identical.
        """
        from repro.batch import OperatingPoint, evaluate_points

        missing = [key for key in dict.fromkeys(keys) if key not in self._reports]
        if not missing:
            return
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

    def _report(
        self, device: str, app: ApplicationConfig, network: NetworkConfig
    ) -> PerformanceReport:
        key = (device, app, network)
        report = self._reports.get(key)
        if report is None:
            self._cache_misses["reports"] += 1
            report = self.model_for(device).analyze(
                app, network, include_aoi=self.include_aoi
            )
            self._reports[key] = report
        else:
            self._cache_hits["reports"] += 1
        return report

    def _service_time_ms(self, device: str, app: ApplicationConfig) -> float:
        """Edge GPU busy time per frame for one user (memoized)."""
        key = (device, app)
        service = self._service_times.get(key)
        if service is None:
            self._cache_misses["service_times"] += 1
            service = self.model_for(device).latency_model.remote_inference_ms(app)
            self._service_times[key] = service
        else:
            self._cache_hits["service_times"] += 1
        return service

    # -- pipeline stages -----------------------------------------------------------

    def candidates(self) -> List[UserCandidate]:
        """Per-user statistics for the admission policy.

        Remote statistics are evaluated under the contention of *all*
        offload-preferring users — an upper bound on the contention any
        admitted subset will actually see — so SLO-guarding policies err
        towards rejecting rather than admitting users into violation.
        With a single user this bound coincides with the uncontended
        channel, preserving the single-user equivalence.
        """
        n_wants = sum(1 for user in self.population if user.wants_offload)
        remote_network = self.contention.network_for(max(n_wants, 1))
        # Collect every unique (device, app, network) key up front and
        # evaluate them in one vectorized batch instead of per-user calls.
        keys: List[Tuple[str, ApplicationConfig, NetworkConfig]] = []
        for user in self.population:
            keys.append(
                (user.device, self._mode_variant(user.app, ExecutionMode.LOCAL), self.network)
            )
            remote_app = (
                user.app
                if user.wants_offload
                else self._mode_variant(user.app, ExecutionMode.REMOTE)
            )
            keys.append((user.device, remote_app, remote_network))
        self._prime_reports(keys)
        result: List[UserCandidate] = []
        for user in self.population:
            local_app = self._mode_variant(user.app, ExecutionMode.LOCAL)
            remote_app = (
                user.app
                if user.wants_offload
                else self._mode_variant(user.app, ExecutionMode.REMOTE)
            )
            local = self._report(user.device, local_app, self.network)
            remote = self._report(user.device, remote_app, remote_network)
            result.append(
                UserCandidate(
                    name=user.name,
                    wants_offload=user.wants_offload,
                    frame_rate_fps=user.frame_rate_fps,
                    service_time_ms=self._service_time_ms(user.device, remote_app),
                    local_latency_ms=local.total_latency_ms,
                    remote_latency_ms=remote.total_latency_ms,
                    local_energy_mj=local.total_energy_mj,
                    remote_energy_mj=remote.total_energy_mj,
                )
            )
        return result

    def placements(self) -> List[PlacementDecision]:
        """Admission/placement decisions for the whole fleet."""
        return self.policy.assign(self.candidates(), self.n_edges)

    # -- fleet analysis --------------------------------------------------------------

    def analyze(self) -> FleetReport:
        """Evaluate the whole fleet and aggregate into a :class:`FleetReport`."""
        with telemetry.get().span(
            "fleet.analyze", users=len(self.population), edges=self.n_edges
        ):
            report = self._analyze()
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

    def _analyze(self) -> FleetReport:
        fault_state = self.fault_state
        candidates = self.candidates()
        decisions, forced_local = self._placements_under_faults(candidates)
        by_name = {candidate.name: candidate for candidate in candidates}

        offloaders = [decision for decision in decisions if decision.offload]
        n_stations = len(offloaders)
        contended = (
            self.contention.network_for(n_stations) if n_stations else self.network
        )

        # Per-edge offered load and each offloader's tagged wait; a fault
        # state inflates the service time of the edges it degrades.
        loads = self.scheduler.edge_loads(
            [decision.edge_index for decision in offloaders],
            [by_name[decision.name].arrival_rate_per_ms for decision in offloaders],
            [by_name[decision.name].service_time_ms for decision in offloaders],
            self.n_edges,
            service_scale=(
                [fault_state.service_scale(index) for index in range(self.n_edges)]
                if fault_state is not None
                else None
            ),
        )
        offloader_waits = iter(loads.wait_ms.tolist())

        # Batch-evaluate the outcome reports that candidates() did not already
        # cover (the post-admission contention level can differ from the
        # admission bound when a policy rejects users).
        outcome_keys: List[Tuple[str, ApplicationConfig, NetworkConfig]] = []
        for user, decision in zip(self.population, decisions):
            if decision.offload:
                outcome_app = (
                    user.app
                    if user.wants_offload
                    else self._mode_variant(user.app, ExecutionMode.REMOTE)
                )
                outcome_keys.append((user.device, outcome_app, contended))
            else:
                outcome_keys.append(
                    (
                        user.device,
                        self._mode_variant(user.app, ExecutionMode.LOCAL),
                        self.network,
                    )
                )
        self._prime_reports(outcome_keys)

        outcomes: List[UserOutcome] = []
        for user, decision in zip(self.population, decisions):
            if decision.offload:
                app = user.app if user.wants_offload else self._mode_variant(
                    user.app, ExecutionMode.REMOTE
                )
                network = contended
                wait_ms = next(offloader_waits)
            else:
                app = self._mode_variant(user.app, ExecutionMode.LOCAL)
                network = self.network
                wait_ms = 0.0
            report = self._report(user.device, app, network)
            # Waiting for a contended edge keeps the radio idle-listening;
            # bill that time at the radio idle power (W * ms = mJ).
            wait_energy_mj = (
                network.radio_idle_power_w * wait_ms if wait_ms != float("inf") else 0.0
            )
            fresh_fraction = None
            if report.aoi is not None and report.aoi.roi:
                fresh_fraction = len(report.aoi.fresh_sensors()) / len(report.aoi.roi)
            outcomes.append(
                UserOutcome(
                    user=user.name,
                    device=user.device,
                    mode=app.inference.mode.value,
                    offloaded=decision.offload,
                    edge_index=decision.edge_index,
                    throughput_mbps=network.throughput_mbps,
                    edge_wait_ms=wait_ms,
                    latency_ms=report.total_latency_ms + wait_ms,
                    energy_mj=report.total_energy_mj + wait_energy_mj,
                    report=report,
                    aoi_fresh_fraction=fresh_fraction,
                )
            )
        if fault_state is not None:
            registry = telemetry.get()
            if registry.enabled and fault_state.any_fault:
                registry.add("faults.fleet.analyses")
                registry.add("faults.fleet.forced_local", forced_local)
                registry.add(
                    "faults.fleet.edges_dead",
                    fault_state.n_edges - fault_state.n_edges_alive,
                )
        return FleetReport.from_outcomes(
            outcomes,
            edge_utilizations=loads.utilization,
            slo_ms=self.slo_ms,
            availability=(
                fault_state.availability if fault_state is not None else 1.0
            ),
            n_edges_alive=(
                fault_state.n_edges_alive if fault_state is not None else None
            ),
            fault_forced_local=forced_local,
        )
