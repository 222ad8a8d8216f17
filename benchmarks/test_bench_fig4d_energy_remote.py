"""Fig. 4(d) benchmark: end-to-end energy validation, remote inference.

Paper headline: 5.38 % mean error.
"""

from repro.config.application import ExecutionMode
from repro.core.framework import XRPerformanceModel
from repro.core.segments import Segment
from repro.evaluation.figures import figure_4d


def test_bench_fig4d_energy_remote(benchmark, figure_context):
    model = XRPerformanceModel(
        device=figure_context.testbed.device,
        edge=figure_context.testbed.edge,
        coefficients=figure_context.coefficients,
    )
    remote_app = model.app.with_mode(ExecutionMode.REMOTE)

    benchmark(model.analyze_energy, remote_app)

    figure = figure_4d(context=figure_context)
    print()
    print(figure.to_text())

    assert figure.mean_error_percent < 10.0
    for series in figure.comparison.series:
        assert series.ground_truth[0] < series.ground_truth[-1]

    # Sanity on the energy structure of the remote path: waiting for the edge
    # server draws much less power than the on-device encoder/renderer.
    energy = model.analyze_energy(remote_app)
    assert energy.segment_mj(Segment.REMOTE_INFERENCE) < energy.segment_mj(Segment.ENCODING)
