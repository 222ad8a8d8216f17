"""Fig. 4(f) benchmark: AoI staircase and RoI for a 100 Hz sensor.

The paper shows the 100 Hz sensor, polled every 5 ms, accumulating AoI in
steps of 5 ms (10, 15, 20 ms) with the corresponding RoI values 0.5, 0.33 and
0.25.
"""

import numpy as np
import pytest

from repro.config.workload import WorkloadConfig
from repro.evaluation.figures import figure_4f
from repro.simulation.sensor_sim import emulate_aoi


def test_bench_fig4f_roi(benchmark):
    workload = WorkloadConfig(
        sensor_frequencies_hz=(100.0,), sensor_distances_m=(15.0,), horizon_ms=40.0
    )

    # Benchmark the event-driven AoI emulation (the ground-truth generator).
    benchmark(emulate_aoi, workload)

    figure = figure_4f(workload=workload)
    print()
    print(figure.to_text())

    timeline = figure.analytical[0]
    # Paper values: AoI 10 / 15 / 20 ms, RoI 0.5 / 0.33 / 0.25 (our values
    # include the small buffering + propagation overhead).
    assert timeline.aoi_ms[:3] == pytest.approx([10.0, 15.0, 20.0], abs=1.5)
    assert timeline.roi[:3] == pytest.approx([0.5, 0.333, 0.25], abs=0.05)
    # The staircase increments by exactly (1/f_t - 1/f_req) = 5 ms per cycle.
    assert np.allclose(np.diff(timeline.aoi_ms), 5.0, atol=1e-6)
    # RoI degrades monotonically as the information goes stale.
    assert np.all(np.diff(timeline.roi) < 0.0)
