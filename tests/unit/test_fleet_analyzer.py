"""Unit tests for the fleet analyzer, report aggregation, and capacity planner."""

import math

import pytest

from repro.config.application import ApplicationConfig, ExecutionMode
from repro.core.framework import XRPerformanceModel
from repro.exceptions import ConfigurationError
from repro.fleet import (
    CapacityPlan,
    EdgePlan,
    FleetAnalyzer,
    FleetReport,
    GreedySLOAdmission,
    RoundRobinAdmission,
    bisect_capacity,
    homogeneous,
    mixed_devices,
    plan_capacity,
    plan_edges,
)

SLO_MS = 800.0


@pytest.fixture
def remote_fleet_app() -> ApplicationConfig:
    return ApplicationConfig.object_detection_default().with_mode(ExecutionMode.REMOTE)


class TestSingleUserEquivalence:
    @pytest.mark.parametrize("mode", (ExecutionMode.LOCAL, ExecutionMode.REMOTE))
    def test_one_user_reproduces_single_user_model_exactly(self, mode):
        app = ApplicationConfig.object_detection_default().with_mode(mode)
        single = XRPerformanceModel(device="XR1", edge="EDGE-AGX").analyze(app)
        fleet = FleetAnalyzer(homogeneous(1, device="XR1", app=app)).analyze()
        assert fleet.p50_latency_ms == single.total_latency_ms
        assert fleet.p95_latency_ms == single.total_latency_ms
        assert fleet.p99_latency_ms == single.total_latency_ms
        assert fleet.outcomes[0].energy_mj == single.total_energy_mj
        assert fleet.outcomes[0].edge_wait_ms == 0.0

    def test_one_user_aoi_matches(self, remote_fleet_app):
        single = XRPerformanceModel(device="XR1", edge="EDGE-AGX").analyze(
            remote_fleet_app
        )
        fleet = FleetAnalyzer(
            homogeneous(1, device="XR1", app=remote_fleet_app)
        ).analyze()
        outcome = fleet.outcomes[0]
        assert outcome.report.aoi.roi == single.aoi.roi


class TestFleetEffects:
    def test_more_users_never_faster(self, remote_fleet_app):
        def p95(n):
            return FleetAnalyzer(
                homogeneous(n, device="XR1", app=remote_fleet_app)
            ).analyze().p95_latency_ms

        assert p95(1) <= p95(2) <= p95(3)

    def test_saturated_edge_reports_infinite_latency(self, remote_fleet_app):
        report = FleetAnalyzer(
            homogeneous(16, device="XR1", app=remote_fleet_app)
        ).analyze()
        assert report.p95_latency_ms == math.inf
        assert not report.is_stable

    def test_saturated_edge_is_infinite_for_every_tenant(self):
        # A light tenant must not be reported with a finite wait when the
        # edge's aggregate load (dominated by heavy tenants) is unstable.
        from repro.fleet import mixed_workloads

        heavy = ApplicationConfig(
            frame_side_px=1400.0, frame_rate_fps=25.0
        ).with_mode(ExecutionMode.REMOTE)
        light = ApplicationConfig(frame_side_px=100.0, frame_rate_fps=10.0).with_mode(
            ExecutionMode.REMOTE
        )
        report = FleetAnalyzer(
            mixed_workloads(4, apps=(heavy, light)), edge="EDGE-TX2"
        ).analyze()
        assert not report.is_stable
        assert all(
            math.isinf(outcome.latency_ms)
            for outcome in report.outcomes
            if outcome.offloaded
        )

    def test_greedy_never_admits_users_into_violation(self):
        # Contention-bounded candidates: the SLO guard must hold in the
        # final contended report, not just against uncontended numbers.
        app = ApplicationConfig(frame_rate_fps=5.0).with_mode(ExecutionMode.REMOTE)
        slo = 551.0
        report = FleetAnalyzer(
            homogeneous(50, device="XR1", app=app),
            policy=GreedySLOAdmission(slo_ms=slo),
            slo_ms=slo,
        ).analyze()
        assert all(
            outcome.meets_slo(slo)
            for outcome in report.outcomes
            if outcome.offloaded
        )

    def test_greedy_policy_keeps_fleet_finite(self, remote_fleet_app):
        report = FleetAnalyzer(
            homogeneous(16, device="XR1", app=remote_fleet_app),
            policy=GreedySLOAdmission(slo_ms=SLO_MS),
            slo_ms=SLO_MS,
        ).analyze()
        assert report.p95_latency_ms < math.inf
        assert report.is_stable
        assert 0 < report.n_offloaded < report.n_users

    def test_extra_edges_raise_offload_count(self, remote_fleet_app):
        def offloaded(n_edges):
            return FleetAnalyzer(
                homogeneous(16, device="XR1", app=remote_fleet_app),
                n_edges=n_edges,
                policy=GreedySLOAdmission(slo_ms=SLO_MS),
            ).analyze().n_offloaded

        assert offloaded(2) > offloaded(1)

    def test_offloaders_share_contended_throughput(self, remote_fleet_app, network):
        report = FleetAnalyzer(
            homogeneous(4, device="XR1", app=remote_fleet_app)
        ).analyze()
        throughputs = {outcome.throughput_mbps for outcome in report.outcomes}
        assert len(throughputs) == 1
        assert throughputs.pop() < network.throughput_mbps

    def test_mixed_device_fleet_counts(self, remote_fleet_app):
        report = FleetAnalyzer(
            mixed_devices(6, devices=("XR1", "XR3"), app=remote_fleet_app),
            policy=GreedySLOAdmission(slo_ms=SLO_MS),
        ).analyze()
        assert report.device_counts == {"XR1": 3, "XR3": 3}

    def test_memoization_shares_models_and_reports(self, remote_fleet_app):
        analyzer = FleetAnalyzer(
            homogeneous(500, device="XR1", app=remote_fleet_app),
            policy=RoundRobinAdmission(),
        )
        analyzer.analyze()
        assert len(analyzer._models) == 1
        # local + remote candidates, plus the contended offload evaluation.
        assert len(analyzer._reports) <= 4

    def test_zero_edges_rejected(self, remote_fleet_app):
        with pytest.raises(ConfigurationError):
            FleetAnalyzer(homogeneous(2, app=remote_fleet_app), n_edges=0)


class TestFleetReport:
    def test_summary_mentions_percentiles_and_energy(self, remote_fleet_app):
        report = FleetAnalyzer(
            homogeneous(8, device="XR1", app=remote_fleet_app),
            policy=GreedySLOAdmission(slo_ms=SLO_MS),
            slo_ms=SLO_MS,
        ).analyze()
        text = report.summary()
        for token in ("p50", "p95", "p99", "fleet total", "SLO"):
            assert token in text

    def test_energy_aggregates_sum_per_user(self, remote_fleet_app):
        report = FleetAnalyzer(
            homogeneous(4, device="XR1", app=remote_fleet_app),
            policy=GreedySLOAdmission(slo_ms=SLO_MS),
        ).analyze()
        assert report.total_energy_mj == pytest.approx(
            sum(outcome.energy_mj for outcome in report.outcomes)
        )

    def test_slo_violation_count(self, remote_fleet_app):
        report = FleetAnalyzer(
            homogeneous(3, device="XR1", app=remote_fleet_app),
            slo_ms=1.0,  # impossible budget: everyone violates
        ).analyze()
        assert report.slo_violations == report.n_users
        assert not report.meets_slo()

    def test_meets_slo_requires_a_budget(self, remote_fleet_app):
        report = FleetAnalyzer(
            homogeneous(1, device="XR1", app=remote_fleet_app)
        ).analyze()
        with pytest.raises(ValueError):
            report.meets_slo()

    def test_zero_outcomes_yield_well_defined_report(self):
        # Regression: an all-rejected admission round used to blow up inside
        # NumPy's percentile machinery; it must degrade to NaN percentiles
        # with the SLO reported as not met.
        report = FleetReport.from_outcomes([], slo_ms=100.0)
        assert report.n_users == 0
        assert math.isnan(report.p50_latency_ms)
        assert math.isnan(report.p95_latency_ms)
        assert math.isnan(report.p99_latency_ms)
        assert math.isnan(report.mean_latency_ms)
        assert report.total_energy_mj == 0.0
        assert report.slo_violations == 0
        assert not report.meets_slo()
        assert not report.meets_slo(1e9)
        assert "0 users" in report.summary()


class TestBisectCapacity:
    def test_exact_threshold_found(self):
        capacity, capped, _ = bisect_capacity(lambda n: n <= 37, max_users=4096)
        assert capacity == 37
        assert not capped

    def test_infeasible_at_one(self):
        capacity, capped, evaluations = bisect_capacity(lambda n: False)
        assert capacity == 0
        assert not capped
        assert evaluations == 1

    def test_ceiling_reached(self):
        capacity, capped, _ = bisect_capacity(lambda n: True, max_users=100)
        assert capacity == 100
        assert capped

    def test_logarithmic_evaluation_count(self):
        _, _, evaluations = bisect_capacity(lambda n: n <= 1000, max_users=4096)
        assert evaluations <= 2 * math.ceil(math.log2(4096)) + 2

    def test_invalid_ceiling_rejected(self):
        with pytest.raises(ConfigurationError):
            bisect_capacity(lambda n: True, max_users=0)


class TestPlanCapacity:
    def test_capacity_is_the_slo_boundary(self):
        plan = plan_capacity(device="XR1", edge="EDGE-AGX", slo_ms=SLO_MS)
        assert isinstance(plan, CapacityPlan)
        assert plan.feasible
        assert plan.p95_at_capacity_ms <= SLO_MS
        # One more user must violate the SLO.
        beyond = FleetAnalyzer(
            homogeneous(plan.max_users + 1, device="XR1"),
            policy=RoundRobinAdmission(),
        ).analyze()
        assert beyond.p95_latency_ms > SLO_MS

    def test_more_edges_mean_more_capacity(self):
        single = plan_capacity(device="XR1", slo_ms=SLO_MS, n_edges=1)
        double = plan_capacity(device="XR1", slo_ms=SLO_MS, n_edges=2)
        assert double.max_users > single.max_users

    def test_impossible_slo_is_infeasible(self):
        plan = plan_capacity(device="XR1", slo_ms=1.0)
        assert not plan.feasible
        assert plan.max_users == 0
        assert "infeasible" in plan.summary()

    def test_summary_mentions_capacity(self):
        plan = plan_capacity(device="XR1", slo_ms=SLO_MS)
        assert str(plan.max_users) in plan.summary()

    def test_invalid_slo_rejected(self):
        with pytest.raises(ConfigurationError):
            plan_capacity(slo_ms=-5.0)

    @pytest.mark.parametrize("policy", [None, GreedySLOAdmission(slo_ms=SLO_MS)])
    def test_empty_edge_pool_rejected(self, policy):
        with pytest.raises(ConfigurationError, match="at least one edge"):
            plan_capacity(device="XR1", slo_ms=SLO_MS, n_edges=0, policy=policy)

    def test_unmeetable_slo_raises_when_feasibility_required(self):
        with pytest.raises(ConfigurationError, match="unmeetable"):
            plan_capacity(device="XR1", slo_ms=1.0, require_feasible=True)

    def test_unmeetable_slo_raises_for_custom_policy_too(self):
        with pytest.raises(ConfigurationError, match="unmeetable"):
            plan_capacity(
                device="XR1",
                slo_ms=1.0,
                policy=GreedySLOAdmission(slo_ms=1.0),
                require_feasible=True,
            )


class TestPlanEdges:
    def test_minimal_edge_count_found(self):
        plan = plan_edges(device="XR1", n_users=8, slo_ms=SLO_MS, max_edges=16)
        assert isinstance(plan, EdgePlan)
        assert 1 <= plan.n_edges <= 16
        assert plan.p95_ms <= SLO_MS
        assert str(plan.n_edges) in plan.summary()
        if plan.n_edges > 1:
            # One fewer edge must violate the SLO (minimality).
            fewer = FleetAnalyzer(
                homogeneous(8, device="XR1"),
                n_edges=plan.n_edges - 1,
                policy=RoundRobinAdmission(),
            ).analyze()
            assert fewer.p95_latency_ms > SLO_MS

    def test_unmeetable_slo_terminates_with_configuration_error(self):
        # The channel (not the edge count) is binding at a 1 ms SLO: the
        # search must probe the ceiling once and fail loudly instead of
        # looping or returning a bogus plan.
        with pytest.raises(ConfigurationError, match="unmeetable"):
            plan_edges(device="XR1", n_users=8, slo_ms=1.0, max_edges=8)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            plan_edges(slo_ms=0.0)
        with pytest.raises(ConfigurationError):
            plan_edges(n_users=0)
        with pytest.raises(ConfigurationError):
            plan_edges(max_edges=0)


class TestBoundaryValidation:
    """Invalid SLOs and edge counts fail with ConfigurationError at the entry point."""

    def test_greedy_policy_rejects_nan_slo(self):
        with pytest.raises(ConfigurationError, match="SLO"):
            GreedySLOAdmission(math.nan)

    @pytest.mark.parametrize("slo_ms", [math.nan, -1.0])
    def test_analyzer_rejects_invalid_slo(self, slo_ms, remote_fleet_app):
        with pytest.raises(ConfigurationError, match="SLO"):
            FleetAnalyzer(homogeneous(2, app=remote_fleet_app), slo_ms=slo_ms)

    def test_plan_capacity_rejects_nan_slo(self):
        with pytest.raises(ConfigurationError, match="SLO"):
            plan_capacity(device="XR1", slo_ms=math.nan, max_users=8)

    def test_plan_edges_rejects_nan_slo(self):
        with pytest.raises(ConfigurationError, match="SLO"):
            plan_edges(device="XR1", n_users=4, slo_ms=math.nan, max_edges=4)

    def test_analyzer_rejects_fractional_edge_count(self, remote_fleet_app):
        with pytest.raises(ConfigurationError, match="at least one edge"):
            FleetAnalyzer(homogeneous(2, app=remote_fleet_app), n_edges=2.5)

    def test_plan_capacity_rejects_fractional_edge_count(self):
        with pytest.raises(ConfigurationError, match="at least one edge"):
            plan_capacity(device="XR1", slo_ms=SLO_MS, n_edges=1.5, max_users=8)
