"""Fig. 4(c) benchmark: end-to-end energy validation, local inference.

Paper headline: 3.52 % mean error.
"""

from repro.core.framework import XRPerformanceModel
from repro.evaluation.figures import figure_4c


def test_bench_fig4c_energy_local(benchmark, figure_context):
    model = XRPerformanceModel(
        device=figure_context.testbed.device,
        edge=figure_context.testbed.edge,
        coefficients=figure_context.coefficients,
    )

    # Benchmark a single-frame energy analysis (Eq. 19/20 evaluation).
    benchmark(model.analyze_energy)

    figure = figure_4c(context=figure_context)
    print()
    print(figure.to_text())

    assert figure.mean_error_percent < 10.0
    # Energy grows with frame size for every CPU frequency curve.
    for series in figure.comparison.series:
        assert series.ground_truth[0] < series.ground_truth[-1]
        assert series.model[0] < series.model[-1]
