"""Fig. 4(b) benchmark: end-to-end latency validation, remote inference.

Paper headline: 3.23 % mean error (device mobility disabled).
"""

from repro.config.application import ExecutionMode
from repro.core.framework import XRPerformanceModel
from repro.evaluation.figures import figure_4b


def test_bench_fig4b_latency_remote(benchmark, figure_context):
    sweep = figure_context.sweep_config
    model = XRPerformanceModel(
        device=figure_context.testbed.device,
        edge=figure_context.testbed.edge,
        coefficients=figure_context.coefficients,
    )

    benchmark(
        model.sweep,
        frame_sides_px=sweep.frame_sides_px,
        cpu_freqs_ghz=sweep.cpu_freqs_ghz,
        mode=ExecutionMode.REMOTE,
    )

    figure = figure_4b(context=figure_context)
    print()
    print(figure.to_text())

    assert figure.mean_error_percent < 8.0

    # The remote path (encoding + transmission + edge inference) is slower than
    # the local path on this testbed but follows the same monotone shape.
    for series in figure.comparison.series:
        assert series.ground_truth[0] < series.ground_truth[-1]

    # No handoff is configured (the paper excludes mobility in this figure).
    breakdown = model.analyze_latency(
        model.app.with_mode(ExecutionMode.REMOTE), figure_context.network
    )
    from repro.core.segments import Segment

    assert breakdown.segment_ms(Segment.HANDOFF) == 0.0
