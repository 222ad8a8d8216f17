"""FleetAnalyzer's equivalence-class evaluation against a per-user reference.

The analyzer groups users into ``(device, app)`` classes and evaluates every
configuration once per class.  These tests pin that the grouping changes
nothing observable: a plain per-user evaluation, written out below, must
agree with it bit for bit, and the analyzer's cache work must not grow with
the number of users in a class.
"""

import math
from dataclasses import fields, replace

import pytest

from repro.config.application import ApplicationConfig, ExecutionMode
from repro.config.network import NetworkConfig
from repro.core.framework import XRPerformanceModel
from repro.faults.schedule import EpochFaultState
from repro.fleet import (
    EnergyAwareAdmission,
    FleetAnalyzer,
    FleetReport,
    GreedySLOAdmission,
    RoundRobinAdmission,
    homogeneous,
)
from repro.fleet.admission import UserCandidate
from repro.fleet.population import FleetPopulation, UserProfile
from repro.fleet.results import UserOutcome

SLO_MS = 900.0
N_EDGES = 3


def _bits(value):
    """Floats as hex strings, so equality below means bit equality."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (tuple, list)):
        return [_bits(item) for item in value]
    return value


def _record(instance, skip=("report",)):
    return [_bits(getattr(instance, f.name)) for f in fields(instance) if f.name not in skip]


def _interleaved_population() -> FleetPopulation:
    """Three devices, shared and equal-but-distinct apps, classes interleaved."""
    base = ApplicationConfig.object_detection_default()
    shared_remote = base.with_mode(ExecutionMode.REMOTE)
    local_variant = replace(base, frame_side_px=420.0).with_mode(ExecutionMode.LOCAL)
    users = []
    for index in range(48):
        pick = index % 4
        if pick == 0:
            app = shared_remote
        elif pick == 1:
            app = base.with_mode(ExecutionMode.REMOTE)  # equal, not identical
        elif pick == 2:
            app = local_variant
        else:
            app = replace(local_variant)  # equal, not identical
        device = ("XR1", "XR2", "XR6")[(index // 2) % 3]
        users.append(UserProfile(name=f"user-{index:03d}", device=device, app=app))
    return FleetPopulation(users=tuple(users))


def _reference(analyzer: FleetAnalyzer):
    """Per-user candidates and fleet report: every user evaluated on its own."""
    population = analyzer.population
    models = {
        device: XRPerformanceModel(
            device=device,
            edge=analyzer.edge,
            coefficients=analyzer.coefficients,
            complexity_mode=analyzer.complexity_mode,
        )
        for device in population.device_counts
    }

    def report(user, app, network):
        return models[user.device].analyze(app, network, include_aoi=analyzer.include_aoi)

    def local_app(user):
        return user.app.with_mode(ExecutionMode.LOCAL)

    def remote_app(user):
        return user.app if user.wants_offload else user.app.with_mode(ExecutionMode.REMOTE)

    n_wants = sum(1 for user in population if user.wants_offload)
    remote_network = analyzer.contention.network_for(max(n_wants, 1))
    candidates = []
    for user in population:
        local = report(user, local_app(user), analyzer.network)
        remote = report(user, remote_app(user), remote_network)
        candidates.append(
            UserCandidate(
                name=user.name,
                wants_offload=user.wants_offload,
                frame_rate_fps=user.frame_rate_fps,
                service_time_ms=models[user.device].latency_model.remote_inference_ms(
                    remote_app(user)
                ),
                local_latency_ms=local.total_latency_ms,
                remote_latency_ms=remote.total_latency_ms,
                local_energy_mj=local.total_energy_mj,
                remote_energy_mj=remote.total_energy_mj,
            )
        )

    fault_state = analyzer.fault_state
    alive = fault_state.alive_edges if fault_state is not None else tuple(range(N_EDGES))
    decisions = [
        replace(decision, edge_index=alive[decision.edge_index]) if decision.offload else decision
        for decision in analyzer.policy.assign(candidates, len(alive))
    ]
    by_name = {candidate.name: candidate for candidate in candidates}
    offloaders = [decision for decision in decisions if decision.offload]
    contended = (
        analyzer.contention.network_for(len(offloaders)) if offloaders else analyzer.network
    )
    loads = analyzer.scheduler.edge_loads(
        [decision.edge_index for decision in offloaders],
        [by_name[decision.name].arrival_rate_per_ms for decision in offloaders],
        [by_name[decision.name].service_time_ms for decision in offloaders],
        N_EDGES,
        service_scale=(
            [fault_state.service_scale(index) for index in range(N_EDGES)]
            if fault_state is not None
            else None
        ),
    )
    waits = iter(loads.wait_ms.tolist())
    outcomes = []
    for user, decision in zip(population, decisions):
        if decision.offload:
            app, network, wait_ms = remote_app(user), contended, next(waits)
        else:
            app, network, wait_ms = local_app(user), analyzer.network, 0.0
        result = report(user, app, network)
        fresh = None
        if result.aoi is not None and result.aoi.roi:
            fresh = len(result.aoi.fresh_sensors()) / len(result.aoi.roi)
        outcomes.append(
            UserOutcome(
                user=user.name,
                device=user.device,
                mode=app.inference.mode.value,
                offloaded=decision.offload,
                edge_index=decision.edge_index,
                throughput_mbps=network.throughput_mbps,
                edge_wait_ms=wait_ms,
                latency_ms=result.total_latency_ms + wait_ms,
                energy_mj=result.total_energy_mj
                + (network.radio_idle_power_w * wait_ms if wait_ms != math.inf else 0.0),
                report=result,
                aoi_fresh_fraction=fresh,
            )
        )
    fleet = FleetReport.from_outcomes(
        outcomes,
        edge_utilizations=loads.utilization,
        slo_ms=analyzer.slo_ms,
        availability=fault_state.availability if fault_state is not None else 1.0,
        n_edges_alive=fault_state.n_edges_alive if fault_state is not None else None,
    )
    return candidates, fleet


POLICIES = {
    "round_robin": RoundRobinAdmission,
    "greedy_slo": lambda: GreedySLOAdmission(SLO_MS),
    "energy_aware": EnergyAwareAdmission,
}
BROWNOUT_AND_OUTAGE = EpochFaultState(
    epoch=0,
    n_edges=N_EDGES,
    edge_capacity=(0.0, 0.5, 1.0),
    edge_service_factor=(1.0, 1.0, 1.5),
    throughput_factor=0.7,
)


class TestClassGroupingMatchesPerUserReference:
    def test_population_mixes_shared_and_equal_but_distinct_apps(self):
        users = _interleaved_population().users
        assert users[0].app is users[4].app
        assert users[1].app == users[0].app and users[1].app is not users[0].app
        assert users[3].app == users[2].app and users[3].app is not users[2].app
        assert {user.device for user in users} == {"XR1", "XR2", "XR6"}

    @pytest.mark.parametrize("fault_state", [None, BROWNOUT_AND_OUTAGE], ids=["healthy", "faulted"])
    @pytest.mark.parametrize("policy", sorted(POLICIES))
    def test_bit_identical_to_per_user_evaluation(self, policy, fault_state):
        analyzer = FleetAnalyzer(
            _interleaved_population(),
            n_edges=N_EDGES,
            network=NetworkConfig(throughput_mbps=1000.0),
            policy=POLICIES[policy](),
            slo_ms=SLO_MS,
            fault_state=fault_state,
        )
        expected_candidates, expected = _reference(analyzer)
        report = analyzer.analyze()

        assert [_record(c) for c in analyzer.candidates()] == [
            _record(c) for c in expected_candidates
        ]
        expected_placements = analyzer.policy.assign(expected_candidates, N_EDGES)
        assert analyzer.placements() == expected_placements
        assert [_record(o) for o in report.outcomes] == [_record(o) for o in expected.outcomes]
        assert [
            _bits([o.report.total_latency_ms, o.report.total_energy_mj]) for o in report.outcomes
        ] == [
            _bits([o.report.total_latency_ms, o.report.total_energy_mj]) for o in expected.outcomes
        ]
        assert _record(report, skip=("outcomes",)) == _record(expected, skip=("outcomes",))
        # Both sides of admission are exercised.  Offloading never saves
        # device energy on this model, so the energy-aware policy keeps every
        # user local.
        assert report.n_offloaded < report.n_users
        assert (report.n_offloaded == 0) == (policy == "energy_aware")


class TestClassWorkCount:
    @staticmethod
    def _work(n_users):
        analyzer = FleetAnalyzer(homogeneous(n_users, device="XR1"), n_edges=2)
        analyzer.analyze()
        return {
            name: (stats["hits"], stats["misses"])
            for name, stats in analyzer.cache_stats().items()
        }

    def test_cache_work_does_not_grow_with_users(self):
        assert self._work(10) == self._work(5000)
