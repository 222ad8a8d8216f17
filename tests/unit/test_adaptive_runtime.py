"""Unit tests for the adaptive runtime, control context and report."""

from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adaptive.controllers import GreedyBatchSweep, StaticBaseline
from repro.adaptive.runtime import (
    AdaptiveRuntime,
    CandidateEvaluation,
    ControlContext,
    _min_roi_array,
    candidate_quality,
    default_candidates,
)
from repro.adaptive.traces import (
    ConditionTrace,
    EpochConditions,
    burst_trace,
    drift_trace,
    mobility_fading_trace,
)
from repro.batch import evaluate_points
from repro.batch import engine
from repro.batch.engine import group_points
from repro.config.application import ApplicationConfig, CooperationConfig, ExecutionMode
from repro.config.network import NetworkConfig, SensorConfig
from repro.core.framework import XRPerformanceModel
from repro.exceptions import ConfigurationError


@pytest.fixture(scope="module")
def small_candidates():
    return default_candidates(cpu_freqs_ghz=(2.0,), frame_sides_px=(500.0,))


@pytest.fixture(scope="module")
def small_context(small_candidates):
    return ControlContext(candidates=small_candidates, deadline_ms=700.0)


class TestCandidateQuality:
    def test_remote_beats_local_at_equal_side(self, small_candidates):
        by_mode = {p.app.inference.mode: candidate_quality(p) for p in small_candidates}
        assert by_mode[ExecutionMode.REMOTE] > by_mode[ExecutionMode.SPLIT]
        assert by_mode[ExecutionMode.SPLIT] > by_mode[ExecutionMode.LOCAL]

    def test_larger_frames_score_higher(self):
        points = default_candidates(cpu_freqs_ghz=(2.0,), frame_sides_px=(300.0, 640.0))
        local = [p for p in points if p.app.inference.mode is ExecutionMode.LOCAL]
        assert candidate_quality(local[0]) < candidate_quality(local[1])

    def test_side_factor_saturates_at_cnn_input(self):
        points = default_candidates(cpu_freqs_ghz=(2.0,), frame_sides_px=(640.0, 700.0))
        remote = [p for p in points if p.app.inference.mode is ExecutionMode.REMOTE]
        assert candidate_quality(remote[0]) == candidate_quality(remote[1])


class TestControlContext:
    def test_validation(self, small_candidates):
        with pytest.raises(ConfigurationError):
            ControlContext(candidates=(), deadline_ms=100.0)
        with pytest.raises(ConfigurationError):
            ControlContext(candidates=small_candidates, deadline_ms=0.0)
        with pytest.raises(ConfigurationError):
            ControlContext(
                candidates=small_candidates, deadline_ms=100.0, objective="karma"
            )

    def test_sweep_is_memoized(self, small_context):
        conditions = EpochConditions(
            time_ms=0.0, throughput_mbps=42.0, handoff_probability=0.05
        )
        assert small_context.sweep(conditions) is small_context.sweep(conditions)

    def test_prewarm_covers_every_epoch(self, small_candidates):
        context = ControlContext(candidates=small_candidates, deadline_ms=700.0)
        trace = burst_trace(30, seed=3)
        fresh = context.prewarm(trace)
        assert 0 < fresh <= 30
        assert context.prewarm(trace) == 0  # everything cached now

    def test_prewarmed_sweep_matches_direct_evaluation(self, small_candidates):
        trace = drift_trace(20, seed=3)
        warmed = ControlContext(candidates=small_candidates, deadline_ms=700.0)
        warmed.prewarm(trace)
        cold = ControlContext(candidates=small_candidates, deadline_ms=700.0)
        for epoch in trace:
            np.testing.assert_array_equal(
                warmed.sweep(epoch).latency_ms, cold.sweep(epoch).latency_ms
            )
            np.testing.assert_array_equal(
                warmed.sweep(epoch).energy_mj, cold.sweep(epoch).energy_mj
            )

    def test_off_grid_handoff_falls_back_to_live_sweep(self, small_candidates):
        """Conditions off the 0.005 trace grid must be evaluated live.

        The bundled generators quantize handoff probabilities, but
        hand-built or co-sim-generated conditions need not be on that grid;
        they must neither raise nor silently reuse a neighbouring grid
        point's cached arrays.
        """
        trace = drift_trace(10, seed=3)
        context = ControlContext(candidates=small_candidates, deadline_ms=700.0)
        context.prewarm(trace)
        off_grid = EpochConditions(
            time_ms=0.0, throughput_mbps=42.0, handoff_probability=0.00314159
        )
        evaluation = context.sweep(off_grid)  # no KeyError
        fresh = ControlContext(candidates=small_candidates, deadline_ms=700.0)
        np.testing.assert_array_equal(
            evaluation.latency_ms, fresh.sweep(off_grid).latency_ms
        )
        np.testing.assert_array_equal(
            evaluation.energy_mj, fresh.sweep(off_grid).energy_mj
        )

    def test_off_grid_neighbours_do_not_alias(self, small_candidates):
        context = ControlContext(candidates=small_candidates, deadline_ms=700.0)
        on_grid = EpochConditions(
            time_ms=0.0, throughput_mbps=42.0, handoff_probability=0.005
        )
        off_grid = EpochConditions(
            time_ms=0.0, throughput_mbps=42.0, handoff_probability=0.0049
        )
        cached_on = context.sweep(on_grid)
        cached_off = context.sweep(off_grid)
        # Distinct conditions must own distinct cache entries, and a higher
        # handoff probability cannot make any candidate faster.
        assert cached_on is not cached_off
        assert context.sweep(off_grid) is cached_off
        assert (cached_on.latency_ms >= cached_off.latency_ms).all()

    def test_sweep_matches_scalar_model(self, small_context):
        """The adaptive evaluation path is the scalar model, bit-for-bit."""
        conditions = EpochConditions(
            time_ms=0.0, throughput_mbps=17.0, handoff_probability=0.2
        )
        evaluation = small_context.sweep(conditions)
        for i, point in enumerate(small_context.candidates):
            handoff = replace(
                point.network.handoff, enabled=True, handoff_probability=0.2
            )
            network = replace(
                point.network, throughput_mbps=17.0, handoff=handoff
            )
            report = XRPerformanceModel(
                device=point.device, edge=point.edge, app=point.app, network=network
            ).analyze()
            assert evaluation.latency_ms[i] == report.total_latency_ms
            assert evaluation.energy_mj[i] == report.total_energy_mj


def _reference_point(point, conditions):
    """A candidate under ``conditions``, built config by config."""
    network = point.network
    handoff = replace(
        network.handoff,
        enabled=True,
        handoff_probability=float(conditions.handoff_probability),
    )
    return replace(
        point,
        network=replace(
            network, throughput_mbps=float(conditions.throughput_mbps), handoff=handoff
        ),
    )


@pytest.fixture(scope="module")
def heterogeneous_candidates():
    sensors = (
        SensorConfig(name="imu", generation_frequency_hz=100.0),
        SensorConfig(name="camera", generation_frequency_hz=20.0, distance_m=35.0),
    )
    cooperating = replace(
        ApplicationConfig.object_detection_default(),
        cooperation=CooperationConfig(enabled=True, include_in_totals=True),
    )
    return default_candidates(
        device="XR1",
        app=cooperating,
        network=NetworkConfig(enable_path_loss=True, sensors=sensors),
        cpu_freqs_ghz=(1.0, 2.0),
        frame_sides_px=(300.0, 700.0),
    ) + default_candidates(
        device="XR2",
        network=NetworkConfig(throughput_mbps=50.0, sensors=sensors),
        cpu_freqs_ghz=(2.0,),
        frame_sides_px=(500.0,),
    )


#: Two conditions on the 0.005 handoff grid, two off it.
PARITY_CONDITIONS = (
    EpochConditions(time_ms=0.0, throughput_mbps=42.5, handoff_probability=0.005),
    EpochConditions(time_ms=100.0, throughput_mbps=17.0, handoff_probability=0.1),
    EpochConditions(time_ms=200.0, throughput_mbps=120.0, handoff_probability=0.00314159),
    EpochConditions(time_ms=300.0, throughput_mbps=42.5, handoff_probability=0.0049),
)


class TestReferenceParity:
    """The structure-group sweep equals evaluate_points on built configs."""

    @pytest.mark.parametrize("prewarmed", [False, True])
    def test_sweep_equals_evaluate_points(self, heterogeneous_candidates, prewarmed):
        context = ControlContext(candidates=heterogeneous_candidates, deadline_ms=700.0)
        if prewarmed:
            trace = ConditionTrace(name="parity", epoch_ms=100.0, epochs=PARITY_CONDITIONS)
            assert context.prewarm(trace) == len(PARITY_CONDITIONS)
        for conditions in PARITY_CONDITIONS:
            reference = evaluate_points(
                [_reference_point(p, conditions) for p in heterogeneous_candidates]
            )
            evaluation = context.sweep(conditions)
            np.testing.assert_array_equal(
                evaluation.latency_ms, reference.total_latency_ms
            )
            np.testing.assert_array_equal(evaluation.energy_mj, reference.total_energy_mj)
            assert evaluation.min_roi is not None
            np.testing.assert_array_equal(evaluation.min_roi, _min_roi_array(reference))

    def test_prewarm_builds_no_app_and_one_network_per_group_and_probability(
        self, monkeypatch
    ):
        candidates = default_candidates()
        trace = mobility_fading_trace(1000, seed=1)
        context = ControlContext(candidates=candidates, deadline_ms=700.0)
        built = Counter()
        for config in (ApplicationConfig, NetworkConfig):

            def counting(self, _original=config.__post_init__, _name=config.__name__):
                built[_name] += 1
                _original(self)

            monkeypatch.setattr(config, "__post_init__", counting)
        context.prewarm(trace)
        distinct_probabilities = len({epoch.handoff_probability for epoch in trace})
        assert built["ApplicationConfig"] == 0
        assert built["NetworkConfig"] == (
            len(group_points(candidates)) * distinct_probabilities
        )


#: A condition: throughput, then a handoff probability on or off the 0.005 grid.
_conditions = st.builds(
    lambda throughput, probability: EpochConditions(
        time_ms=0.0, throughput_mbps=throughput, handoff_probability=probability
    ),
    st.floats(min_value=1.0, max_value=500.0, allow_nan=False),
    st.one_of(
        st.integers(min_value=0, max_value=60).map(lambda k: k * 0.005),
        st.floats(min_value=0.0, max_value=0.3, allow_nan=False),
    ),
)
#: A context's life: live misses ("sweep") and prewarms in random order.
_operations = st.lists(
    st.one_of(
        st.tuples(st.just("sweep"), _conditions),
        st.tuples(st.just("prewarm"), st.lists(_conditions, min_size=1, max_size=4)),
    ),
    min_size=1,
    max_size=6,
)


class TestPreparedSweepParity:
    """Prepared-once sweeps equal evaluate_points on built configs, bit for bit."""

    @settings(max_examples=25, deadline=None)
    @given(operations=_operations)
    def test_interleaved_prewarm_and_live_misses(self, heterogeneous_candidates, operations):
        context = ControlContext(candidates=heterogeneous_candidates, deadline_ms=700.0)
        seen = []
        for kind, payload in operations:
            if kind == "sweep":
                context.sweep(payload)
                seen.append(payload)
            else:
                trace = ConditionTrace(name="mixed", epoch_ms=100.0, epochs=tuple(payload))
                context.prewarm(trace)
                seen.extend(payload)
        for conditions in seen:
            reference = evaluate_points(
                [_reference_point(p, conditions) for p in heterogeneous_candidates]
            )
            evaluation = context.sweep(conditions)
            np.testing.assert_array_equal(evaluation.latency_ms, reference.total_latency_ms)
            np.testing.assert_array_equal(evaluation.energy_mj, reference.total_energy_mj)
            np.testing.assert_array_equal(evaluation.min_roi, _min_roi_array(reference))

    def test_live_miss_builds_and_prepares_nothing(self, monkeypatch):
        """After the first sweep a miss only finishes the prepared groups."""
        context = ControlContext(candidates=default_candidates(), deadline_ms=700.0)
        context.sweep(
            EpochConditions(time_ms=0.0, throughput_mbps=80.0, handoff_probability=0.01)
        )
        calls = Counter()

        def counted(name):
            original = getattr(engine._GroupEvaluator, name)

            def counting(self, *args, **kwargs):
                calls[name] += 1
                return original(self, *args, **kwargs)

            return counting

        for name in ("__init__", "prepare", "finish"):
            monkeypatch.setattr(engine._GroupEvaluator, name, counted(name))
        context.sweep(
            EpochConditions(time_ms=0.0, throughput_mbps=33.3, handoff_probability=0.0123)
        )
        assert calls["__init__"] == 0
        assert calls["prepare"] == 0
        assert calls["finish"] == len(group_points(context.candidates))


class TestSelection:
    def _evaluation(self, latency, energy):
        return CandidateEvaluation(
            latency_ms=np.asarray(latency, dtype=float),
            energy_mj=np.asarray(energy, dtype=float),
        )

    def test_quality_objective_prefers_high_quality_feasible(self, small_context):
        # Candidates are (local, remote, split); remote has top quality.
        evaluation = self._evaluation([100.0, 200.0, 300.0], [1.0, 2.0, 3.0])
        assert small_context.select(evaluation, objective="quality") == 1

    def test_latency_objective_prefers_fastest(self, small_context):
        evaluation = self._evaluation([100.0, 90.0, 300.0], [1.0, 2.0, 3.0])
        assert small_context.select(evaluation, objective="latency") == 1

    def test_energy_objective_prefers_cheapest_feasible(self, small_context):
        evaluation = self._evaluation([100.0, 200.0, 800.0], [5.0, 2.0, 0.1])
        assert small_context.select(evaluation, objective="energy") == 1

    def test_infeasible_candidates_are_excluded(self, small_context):
        evaluation = self._evaluation([100.0, 800.0, 800.0], [9.0, 1.0, 1.0])
        for objective in ("quality", "latency", "energy"):
            assert small_context.select(evaluation, objective=objective) == 0

    def test_all_infeasible_falls_back_to_least_bad(self, small_context):
        evaluation = self._evaluation([900.0, 800.0, 950.0], [1.0, 2.0, 3.0])
        assert small_context.select(evaluation) == 1

    def test_unknown_objective_rejected(self, small_context):
        evaluation = self._evaluation([100.0, 200.0, 300.0], [1.0, 2.0, 3.0])
        with pytest.raises(ConfigurationError):
            small_context.select(evaluation, objective="vibes")


class TestRuntime:
    def test_report_geometry_and_aggregates(self):
        trace = burst_trace(40, seed=1)
        runtime = AdaptiveRuntime(trace=trace)
        report = runtime.run(GreedyBatchSweep())
        assert report.n_epochs == 40
        assert len(report.chosen_indices) == 40
        assert len(report.latency_ms) == 40
        assert report.p50_latency_ms <= report.p95_latency_ms <= report.p99_latency_ms
        assert report.deadline_miss_rate == pytest.approx(
            np.mean(np.asarray(report.latency_ms) > report.deadline_ms)
        )
        assert report.switch_count == int(
            np.count_nonzero(np.diff(report.chosen_indices))
        )
        assert report.trace_name == "burst"
        assert "miss rate" in report.summary()

    def test_aoi_disabled_drops_aoi_fields(self):
        runtime = AdaptiveRuntime(trace=burst_trace(10, seed=1), include_aoi=False)
        report = runtime.run(GreedyBatchSweep())
        assert report.min_roi is None
        assert report.aoi_violation_rate is None

    def test_total_energy_integrates_frames_per_epoch(self):
        trace = burst_trace(10, seed=1)
        runtime = AdaptiveRuntime(trace=trace)
        report = runtime.run(StaticBaseline(0))
        frames_per_epoch = trace.epoch_ms / runtime.candidates[0].app.frame_period_ms
        expected = sum(report.energy_mj) * frames_per_epoch / 1e3
        assert report.total_energy_j == pytest.approx(expected)

    def test_static_report_defaults_to_best_static(self):
        runtime = AdaptiveRuntime(trace=burst_trace(30, seed=1))
        best = runtime.static_report()
        rates = runtime.static_deadline_miss_rates()
        assert best.deadline_miss_rate == pytest.approx(rates.min())

    def test_out_of_range_controller_choice_rejected(self):
        runtime = AdaptiveRuntime(trace=burst_trace(5, seed=1))
        with pytest.raises(ConfigurationError):
            runtime.run(StaticBaseline(10_000))

    def test_to_dict_is_json_compatible(self):
        import json

        runtime = AdaptiveRuntime(trace=drift_trace(10, seed=1))
        report = runtime.run(GreedyBatchSweep())
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["n_epochs"] == 10
        assert payload["controller"] == "greedy-sweep"


class TestFinishedRunIsFreed:
    def test_runtime_is_freed_without_the_cyclic_gc(self):
        import gc
        import weakref

        enabled = gc.isenabled()
        gc.disable()
        try:
            runtime = AdaptiveRuntime(trace=burst_trace(6, seed=1))
            runtime.run(GreedyBatchSweep())
            ref = weakref.ref(runtime)
            del runtime
            assert ref() is None
        finally:
            if enabled:
                gc.enable()
