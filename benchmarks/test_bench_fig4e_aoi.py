"""Fig. 4(e) benchmark: AoI vs time for 200 / 100 / 66.67 Hz sensors.

The paper emulates three sensors against an application requiring one update
every 5 ms and shows AoI growing over time for the sensors that generate
slower than required.
"""

import numpy as np

from repro.config.workload import WorkloadConfig
from repro.core.aoi import AoIModel
from repro.evaluation.figures import figure_4e


def test_bench_fig4e_aoi(benchmark):
    workload = WorkloadConfig.paper_default()
    model = AoIModel(workload.buffer_service_rate_hz)

    # Benchmark the analytical AoI timeline evaluation for the whole workload.
    benchmark(model.timelines_for_workload, workload)

    figure = figure_4e(workload=workload)
    print()
    print(figure.to_text())

    # Analytical model tracks the event-driven emulation.
    assert figure.mean_error_percent() < 15.0

    by_frequency = {t.generation_frequency_hz: t for t in figure.analytical}
    # The 200 Hz sensor matches the requirement: its AoI stays flat.
    flat = by_frequency[200.0]
    assert np.max(flat.aoi_ms) - np.min(flat.aoi_ms) < 1.0
    # Slower sensors accumulate AoI; the slowest accumulates fastest.
    assert by_frequency[100.0].final_aoi_ms > by_frequency[200.0].final_aoi_ms
    assert by_frequency[66.67].final_aoi_ms > by_frequency[100.0].final_aoi_ms
    # Growth is roughly linear in time with slope (1/f_t - 1/f_req) per cycle.
    slow = by_frequency[66.67]
    increments = np.diff(slow.aoi_ms)
    assert np.allclose(increments, 1e3 / 66.67 - 5.0, atol=1e-3)
