"""Fig. 4(a) benchmark: end-to-end latency validation, local inference.

The paper reports a 2.74 % mean error between the proposed analytical model
and the measured ground truth.  The benchmark times the analytical model's
sweep evaluation (the quantity a user of the framework pays for) and checks
that the reproduction's error against the simulated testbed stays within a
loose envelope of the paper's number while preserving the figure's shape.
"""

from repro.config.application import ExecutionMode
from repro.core.framework import XRPerformanceModel
from repro.evaluation.figures import figure_4a


def test_bench_fig4a_latency_local(benchmark, figure_context):
    sweep = figure_context.sweep_config
    model = XRPerformanceModel(
        device=figure_context.testbed.device,
        edge=figure_context.testbed.edge,
        coefficients=figure_context.coefficients,
    )

    # Benchmark the analytical sweep (15 operating points, Eq. 1 each).
    benchmark(
        model.sweep,
        frame_sides_px=sweep.frame_sides_px,
        cpu_freqs_ghz=sweep.cpu_freqs_ghz,
        mode=ExecutionMode.LOCAL,
    )

    figure = figure_4a(context=figure_context)
    print()
    print(figure.to_text())

    # Headline: the paper reports 2.74 % mean error; the simulated testbed
    # should keep the proposed model within a single-digit error.
    assert figure.mean_error_percent < 8.0

    # Shape: latency grows with frame size and shrinks with CPU frequency.
    comparison = figure.comparison
    for series in comparison.series:
        assert series.ground_truth[0] < series.ground_truth[-1]
        assert series.model[0] < series.model[-1]
    slowest = comparison.series_for(min(sweep.cpu_freqs_ghz))
    fastest = comparison.series_for(max(sweep.cpu_freqs_ghz))
    assert fastest.ground_truth[-1] < slowest.ground_truth[-1]
