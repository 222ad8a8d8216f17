"""Fig. 5(a) benchmark: latency accuracy of Proposed vs FACT vs LEAF.

The paper reports the proposed model beating FACT by 17.59 % and LEAF by
7.49 % in normalized latency accuracy for remote inference.
"""

from repro.evaluation.figures import figure_5a


def test_bench_fig5a_latency_comparison(benchmark, figure_context):
    figure = benchmark.pedantic(
        figure_5a, kwargs={"context": figure_context}, iterations=1, rounds=1
    )
    print()
    print(figure.to_text())

    # The proposed framework is the most accurate model, as in the paper.
    assert figure.mean_accuracy("Proposed") > figure.mean_accuracy("LEAF")
    assert figure.mean_accuracy("LEAF") > figure.mean_accuracy("FACT")
    assert figure.mean_accuracy("Proposed") > 93.0

    # Gains are positive and of the same order as the paper's 17.59 % / 7.49 %.
    assert 2.0 < figure.gain_vs_fact < 40.0
    assert 2.0 < figure.gain_vs_leaf < 25.0
