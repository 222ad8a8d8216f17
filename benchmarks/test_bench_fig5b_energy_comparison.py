"""Fig. 5(b) benchmark: energy accuracy of Proposed vs FACT vs LEAF.

The paper reports the proposed model beating FACT by 15.30 % and LEAF by
8.71 % in normalized energy accuracy for remote inference.
"""

from repro.evaluation.figures import figure_5b


def test_bench_fig5b_energy_comparison(benchmark, figure_context):
    figure = benchmark.pedantic(
        figure_5b, kwargs={"context": figure_context}, iterations=1, rounds=1
    )
    print()
    print(figure.to_text())

    assert figure.mean_accuracy("Proposed") > figure.mean_accuracy("LEAF")
    assert figure.mean_accuracy("Proposed") > figure.mean_accuracy("FACT")
    assert figure.mean_accuracy("Proposed") > 93.0

    assert 2.0 < figure.gain_vs_fact < 40.0
    assert 2.0 < figure.gain_vs_leaf < 25.0
