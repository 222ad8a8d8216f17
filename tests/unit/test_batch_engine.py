"""Unit tests for the vectorized batch evaluation engine (repro.batch)."""

import numpy as np
import pytest
from dataclasses import replace

from repro.batch import (
    OperatingPoint,
    ParameterGrid,
    evaluate_grid,
    evaluate_points,
)
from repro.batch.engine import _evaluate_groups, group_points
from repro.config.application import ApplicationConfig, CooperationConfig, ExecutionMode
from repro.config.network import NetworkConfig
from repro.core.framework import XRPerformanceModel
from repro.core.segments import Segment
from repro.exceptions import ConfigurationError, ModelDomainError


@pytest.fixture()
def app():
    return ApplicationConfig.object_detection_default()


@pytest.fixture()
def network():
    return NetworkConfig()


# ---------------------------------------------------------------------------
# ParameterGrid
# ---------------------------------------------------------------------------


class TestParameterGrid:
    def test_point_counts(self, app, network):
        grid = ParameterGrid(
            frame_sides_px=(300.0, 500.0),
            cpu_freqs_ghz=(1.0, 2.0, 3.0),
            devices=("XR1", "XR2"),
            modes=(ExecutionMode.LOCAL, ExecutionMode.REMOTE),
            app=app,
            network=network,
        )
        assert grid.points_per_group == 6
        assert grid.n_points == 24

    def test_unswept_axes_pin_to_base(self, app, network):
        grid = ParameterGrid(frame_sides_px=(400.0,), app=app, network=network)
        assert grid.axis_values("cpu_freq_ghz") == (app.cpu_freq_ghz,)
        assert grid.axis_values("throughput_mbps") == (network.throughput_mbps,)

    def test_point_order_matches_sweep_loop(self, app, network):
        grid = ParameterGrid(
            frame_sides_px=(300.0, 500.0), cpu_freqs_ghz=(1.0, 2.0),
            app=app, network=network,
        )
        numeric = grid.numeric_arrays()
        expected = [(1.0, 300.0), (1.0, 500.0), (2.0, 300.0), (2.0, 500.0)]
        observed = list(zip(numeric["cpu_freq_ghz"], numeric["frame_side_px"]))
        assert observed == expected

    def test_points_materialisation_round_trips(self, app, network):
        grid = ParameterGrid(
            frame_sides_px=(300.0, 700.0), cpu_freqs_ghz=(2.0,),
            app=app, network=network,
        )
        points = grid.points()
        assert [p.app.frame_side_px for p in points] == [300.0, 700.0]
        assert all(p.app.cpu_freq_ghz == 2.0 for p in points)

    def test_empty_axis_rejected(self, app):
        with pytest.raises(ConfigurationError):
            ParameterGrid(frame_sides_px=(), app=app).axis_values("frame_side_px")

    def test_negative_axis_rejected(self, app):
        with pytest.raises(ConfigurationError):
            ParameterGrid(frame_sides_px=(-1.0,), app=app).axis_values("frame_side_px")

    def test_unknown_axis_rejected(self, app):
        with pytest.raises(ConfigurationError):
            ParameterGrid(app=app).axis_values("bogus")

    @pytest.mark.parametrize(
        "axis",
        ["frame_sides_px", "cpu_freqs_ghz", "gpu_freqs_ghz", "bitrates_mbps", "throughputs_mbps"],
    )
    def test_nan_axis_rejected(self, app, axis):
        grid = ParameterGrid(app=app, **{axis: (float("nan"), 500.0)})
        with pytest.raises(ConfigurationError):
            evaluate_grid(grid)


# ---------------------------------------------------------------------------
# Scalar parity
# ---------------------------------------------------------------------------


def _scalar_report(device, mode, app, network, frame_side, cpu_freq):
    model = XRPerformanceModel(
        device=device, edge="EDGE-AGX", app=app.with_mode(mode), network=network
    )
    point = replace(app.with_mode(mode), frame_side_px=frame_side, cpu_freq_ghz=cpu_freq)
    return model.analyze(point, network, include_aoi=True)


class TestScalarParity:
    @pytest.mark.parametrize(
        "mode", [ExecutionMode.LOCAL, ExecutionMode.REMOTE, ExecutionMode.SPLIT]
    )
    def test_reports_bit_identical(self, mode, app, network):
        grid = ParameterGrid(
            frame_sides_px=(300.0, 700.0),
            cpu_freqs_ghz=(1.0, 3.0),
            devices=("XR2",),
            modes=(mode,),
            app=app,
            network=network,
        )
        result = evaluate_grid(grid, include_aoi=True)
        index = 0
        for cpu_freq in (1.0, 3.0):
            for frame_side in (300.0, 700.0):
                scalar = _scalar_report("XR2", mode, app, network, frame_side, cpu_freq)
                batch = result.report_at(index)
                assert batch.total_latency_ms == scalar.total_latency_ms
                assert batch.total_energy_mj == scalar.total_energy_mj
                assert batch.latency.per_segment_ms == dict(scalar.latency.per_segment_ms)
                assert batch.energy.per_segment_mj == dict(scalar.energy.per_segment_mj)
                assert batch.latency.included_segments == scalar.latency.included_segments
                assert batch.latency.client_compute == scalar.latency.client_compute
                assert batch.latency.edge_compute == scalar.latency.edge_compute
                assert batch.energy.mean_power_w == scalar.energy.mean_power_w
                assert batch.aoi.average_aoi_ms == scalar.aoi.average_aoi_ms
                assert batch.aoi.roi == scalar.aoi.roi
                assert batch.device_name == scalar.device_name
                assert batch.edge_name == scalar.edge_name
                index += 1

    def test_empty_sweep_axes_return_empty_dict(self, app, network):
        model = XRPerformanceModel(device="XR1", edge="EDGE-AGX", app=app, network=network)
        assert model.sweep(frame_sides_px=(), cpu_freqs_ghz=(2.0,)) == {}
        assert model.sweep(frame_sides_px=(300.0,), cpu_freqs_ghz=()) == {}

    def test_framework_sweep_routes_through_batch(self, app, network):
        model = XRPerformanceModel(device="XR1", edge="EDGE-AGX", app=app, network=network)
        results = model.sweep(frame_sides_px=(300.0, 500.0), cpu_freqs_ghz=(1.0, 2.0))
        assert set(results) == {(1.0, 300.0), (1.0, 500.0), (2.0, 300.0), (2.0, 500.0)}
        direct = model.analyze(
            replace(app, cpu_freq_ghz=2.0, frame_side_px=500.0), network, include_aoi=False
        )
        assert results[(2.0, 500.0)].total_latency_ms == direct.total_latency_ms

    def test_cooperation_segment(self, network):
        app = replace(
            ApplicationConfig.object_detection_default(),
            cooperation=CooperationConfig(enabled=True, include_in_totals=True),
        )
        model = XRPerformanceModel(device="XR1", edge="EDGE-AGX", app=app, network=network)
        scalar = model.analyze(app, network, include_aoi=False)
        batch = evaluate_points(
            [OperatingPoint(app=app, network=network, device="XR1", edge="EDGE-AGX")],
            include_aoi=False,
        )
        assert Segment.COOPERATION in batch.report_at(0).latency.included_segments
        assert batch.report_at(0).total_latency_ms == scalar.total_latency_ms

    def test_path_loss_network(self, app):
        network = NetworkConfig(enable_path_loss=True)
        model = XRPerformanceModel(device="XR1", edge="EDGE-AGX",
                                   app=app.with_mode(ExecutionMode.REMOTE), network=network)
        scalar = model.analyze(include_aoi=False)
        batch = evaluate_points(
            [
                OperatingPoint(
                    app=app.with_mode(ExecutionMode.REMOTE),
                    network=network,
                    device="XR1",
                    edge="EDGE-AGX",
                )
            ],
            include_aoi=False,
        )
        assert batch.report_at(0).total_latency_ms == scalar.total_latency_ms

    def test_throughput_axis(self, app, network):
        mode_app = app.with_mode(ExecutionMode.REMOTE)
        grid = ParameterGrid(
            throughputs_mbps=(50.0, 200.0),
            devices=("XR1",),
            app=mode_app,
            network=network,
        )
        result = evaluate_grid(grid)
        model = XRPerformanceModel(device="XR1", edge="EDGE-AGX", app=mode_app, network=network)
        for index, throughput in enumerate((50.0, 200.0)):
            scalar = model.analyze(
                mode_app, network.with_throughput(throughput), include_aoi=False
            )
            assert result.total_latency_ms[index] == scalar.total_latency_ms
        # Less throughput means slower transmission.
        assert result.total_latency_ms[0] > result.total_latency_ms[1]


# ---------------------------------------------------------------------------
# evaluate_points
# ---------------------------------------------------------------------------


class TestEvaluatePoints:
    def test_preserves_input_order_across_groups(self, app, network):
        points = [
            OperatingPoint(app=app.with_mode(ExecutionMode.REMOTE), network=network,
                           device="XR2", edge="EDGE-AGX"),
            OperatingPoint(app=app, network=network, device="XR1", edge="EDGE-AGX"),
            OperatingPoint(app=replace(app, frame_side_px=650.0), network=network,
                           device="XR1", edge="EDGE-AGX"),
        ]
        result = evaluate_points(points, include_aoi=False)
        assert len(result) == 3
        for index, point in enumerate(points):
            model = XRPerformanceModel(device=point.device, edge=point.edge,
                                       app=point.app, network=point.network)
            scalar = model.analyze(point.app, point.network, include_aoi=False)
            assert result.total_latency_ms[index] == scalar.total_latency_ms
        # Points 2 and 3 share a structure group; point 1 does not.
        assert len(result.groups) == 2

    def test_empty_points_rejected(self):
        with pytest.raises(ConfigurationError):
            evaluate_points([])

    def test_remote_without_edge_rejected(self, app, network):
        with pytest.raises(ModelDomainError):
            evaluate_points(
                [
                    OperatingPoint(
                        app=app.with_mode(ExecutionMode.REMOTE),
                        network=network,
                        device="XR1",
                        edge=None,
                    )
                ]
            )

    @pytest.mark.parametrize("column", ["frame_side_px", "throughput_mbps"])
    def test_nan_column_rejected_by_group_evaluation(self, app, network, column):
        point = OperatingPoint(app=app.with_mode(ExecutionMode.REMOTE), network=network)
        (group,) = group_points([point, point])
        columns = dict(group.columns)
        columns[column] = np.array([float("nan"), 500.0])
        with pytest.raises(ConfigurationError):
            _evaluate_groups([replace(group, columns=columns)], 2, None, "paper", False)

    def test_group_points_splits_on_structure_only(self, app, network):
        handoff_on = replace(network, handoff=replace(network.handoff, enabled=True))
        points = [
            OperatingPoint(app=app, network=network),
            OperatingPoint(app=replace(app, cpu_freq_ghz=3.0), network=handoff_on),
            OperatingPoint(
                app=replace(app, encoder=replace(app.encoder, bitrate_mbps=20.0)),
                network=replace(network, throughput_mbps=50.0),
            ),
        ]
        groups = group_points(points)
        assert [g.positions.tolist() for g in groups] == [[0, 2], [1]]
        assert groups[0].network is network
        np.testing.assert_array_equal(groups[0].columns["bitrate_mbps"], [10.0, 20.0])
        np.testing.assert_array_equal(groups[0].columns["throughput_mbps"], [200.0, 50.0])
        np.testing.assert_array_equal(groups[1].columns["cpu_freq_ghz"], [3.0])

    def test_local_without_edge_allowed(self, app, network):
        result = evaluate_points(
            [OperatingPoint(app=app, network=network, device="XR1", edge=None)],
            include_aoi=False,
        )
        assert result.report_at(0).edge_name is None
        assert result.report_at(0).latency.edge_compute is None


# ---------------------------------------------------------------------------
# BatchResult accessors
# ---------------------------------------------------------------------------


class TestBatchResult:
    def test_metric_and_segment_accessors(self, app, network):
        grid = ParameterGrid(frame_sides_px=(300.0, 500.0), app=app, network=network)
        result = evaluate_grid(grid)
        assert np.array_equal(result.metric("latency"), result.total_latency_ms)
        assert np.array_equal(result.metric("energy"), result.total_energy_mj)
        with pytest.raises(KeyError):
            result.metric("bogus")
        # Local-mode grid has no transmission segment: accessor yields zeros.
        assert np.all(result.segment_latency_ms(Segment.TRANSMISSION) == 0.0)
        assert np.all(result.segment_latency_ms(Segment.RENDERING) > 0.0)

    def test_index_bounds(self, app, network):
        grid = ParameterGrid(frame_sides_px=(300.0,), app=app, network=network)
        result = evaluate_grid(grid)
        assert result.report_at(-1).total_latency_ms == result.report_at(0).total_latency_ms
        with pytest.raises(IndexError):
            result.report_at(1)

    def test_reports_helper(self, app, network):
        grid = ParameterGrid(frame_sides_px=(300.0, 500.0), app=app, network=network)
        result = evaluate_grid(grid)
        reports = result.reports()
        assert len(reports) == 2
        assert reports[1].total_latency_ms == result.total_latency_ms[1]

    def test_coords_recorded(self, app, network):
        grid = ParameterGrid(
            frame_sides_px=(300.0, 500.0), cpu_freqs_ghz=(1.0, 2.0),
            app=app, network=network,
        )
        result = evaluate_grid(grid)
        assert list(result.coords["cpu_freq_ghz"]) == [1.0, 1.0, 2.0, 2.0]
        assert list(result.coords["frame_side_px"]) == [300.0, 500.0, 300.0, 500.0]


# ---------------------------------------------------------------------------
# Consumers stay consistent
# ---------------------------------------------------------------------------


class TestConsumers:
    def test_offloading_rank_matches_per_candidate_evaluate(self, app, network):
        model = XRPerformanceModel(device="XR6", edge="EDGE-AGX", app=app, network=network)
        planner = model.offloading_planner(objective="latency")
        ranked = planner.rank(app, network, n_edge_servers=2)
        assert len(ranked) == 3
        for decision in ranked:
            direct = planner.evaluate(
                planner._with_placement(app, decision.mode, decision.edge_shares), network
            )
            assert decision.total_latency_ms == direct.total_latency_ms
            assert decision.total_energy_mj == direct.total_energy_mj
        assert ranked[0].score <= ranked[-1].score

    def test_sweep_maintains_power_clamp_count(self, app, network):
        # Low clocks drive Eq. (21) negative, so the mean power clamps; the
        # batch-routed sweep must record the same diagnostic count as the
        # per-point scalar loop.
        sides = (300.0, 500.0)
        freqs = (0.7, 1.0)
        reference = XRPerformanceModel(device="XR1", edge="EDGE-AGX", app=app, network=network)
        for cpu_freq in freqs:
            for frame_side in sides:
                reference.analyze(
                    replace(app, cpu_freq_ghz=cpu_freq, frame_side_px=frame_side),
                    network,
                    include_aoi=False,
                )
        model = XRPerformanceModel(device="XR1", edge="EDGE-AGX", app=app, network=network)
        model.sweep(frame_sides_px=sides, cpu_freqs_ghz=freqs)
        assert model.power_model.clamp_count == reference.power_model.clamp_count
        assert model.power_model.clamp_count > 0

    def test_offloading_rank_honours_custom_energy_model(self, app, network):
        from repro.core import SEGMENT_POWER_FACTORS
        from repro.core.energy import XREnergyModel
        from repro.core.offloading import OffloadingPlanner
        from repro.core.power import PowerModel

        base = XRPerformanceModel(device="XR6", edge="EDGE-AGX", app=app, network=network)
        doubled = PowerModel(
            coefficients=base.coefficients,
            device=base.device,
            segment_factors={key: 2 * value for key, value in SEGMENT_POWER_FACTORS.items()},
        )
        planner = OffloadingPlanner(
            base.latency_model,
            XREnergyModel(latency_model=base.latency_model, power_model=doubled),
            objective="energy",
        )
        for decision in planner.rank(app, network):
            direct = planner.evaluate(
                planner._with_placement(app, decision.mode, decision.edge_shares), network
            )
            assert decision.total_energy_mj == direct.total_energy_mj

    def test_capacity_probe_inherits_population_default_app(self):
        from repro.core.coefficients import CoefficientSet
        from repro.fleet.capacity import _HomogeneousRoundRobinProbe
        from repro.fleet.population import homogeneous

        probe = _HomogeneousRoundRobinProbe(
            device="XR1", edge="EDGE-AGX", n_edges=1, app=None, network=None,
            coefficients=CoefficientSet.paper(), contention=None, scheduler=None,
        )
        assert probe.remote_app == homogeneous(1, device="XR1").users[0].app

    def test_fleet_analyzer_batch_priming_matches_scalar(self, network):
        from repro.fleet import FleetAnalyzer, homogeneous

        analyzer = FleetAnalyzer(homogeneous(4, device="XR1"), edge="EDGE-AGX")
        report = analyzer.analyze()
        # The single-user scalar model evaluated under the same contended
        # network must agree bit-for-bit with the primed batch reports.
        outcome = report.outcomes[0]
        model = XRPerformanceModel(device="XR1", edge="EDGE-AGX")
        contended = analyzer.contention.network_for(4)
        scalar = model.analyze(
            homogeneous(4, device="XR1").users[0].app, contended, include_aoi=True
        )
        assert outcome.report.total_latency_ms == scalar.total_latency_ms

    def test_plan_capacity_fast_path_equals_exhaustive_fallback(self):
        # A RoundRobinAdmission *subclass* forces the exhaustive FleetAnalyzer
        # fallback; the default policy takes the vectorized probe.  The two
        # paths must plan identical capacities.
        from repro.fleet import plan_capacity
        from repro.fleet.admission import RoundRobinAdmission

        class ExhaustiveRoundRobin(RoundRobinAdmission):
            pass

        fast = plan_capacity(device="XR1", edge="EDGE-AGX", slo_ms=800.0, max_users=64)
        slow = plan_capacity(
            device="XR1", edge="EDGE-AGX", slo_ms=800.0, max_users=64,
            policy=ExhaustiveRoundRobin(),
        )
        assert fast.max_users == slow.max_users
        assert fast.p95_at_capacity_ms == slow.p95_at_capacity_ms
        assert fast.evaluations == slow.evaluations
        assert fast.ceiling_reached == slow.ceiling_reached

    def test_capacity_probe_matches_full_analyzer(self):
        from repro.core.coefficients import CoefficientSet
        from repro.fleet import FleetAnalyzer, homogeneous
        from repro.fleet.admission import RoundRobinAdmission
        from repro.fleet.capacity import _HomogeneousRoundRobinProbe

        probe = _HomogeneousRoundRobinProbe(
            device="XR1", edge="EDGE-AGX", n_edges=2, app=None, network=None,
            coefficients=CoefficientSet.paper(), contention=None, scheduler=None,
        )
        for n_users in (1, 2, 5, 9):
            analyzer = FleetAnalyzer(
                homogeneous(n_users, device="XR1"),
                edge="EDGE-AGX",
                n_edges=2,
                policy=RoundRobinAdmission(),
                include_aoi=False,
            )
            assert probe.p95_latency_ms(n_users) == analyzer.analyze().p95_latency_ms
