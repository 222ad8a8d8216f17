"""Ablation benchmarks for the design choices documented in DESIGN.md.

Four ablations: CNN-complexity placement (Eq. 11 verbatim vs proportional),
the memory-bandwidth term, paper-published vs testbed-calibrated regression
constants, and the M/M/1 vs M/D/1 buffer assumption.
"""

from repro.evaluation.ablations import (
    ablation_buffer_model,
    ablation_coefficient_source,
    ablation_complexity_mode,
    ablation_memory_term,
)


def test_bench_ablation_complexity_mode(benchmark):
    result = benchmark.pedantic(ablation_complexity_mode, iterations=1, rounds=1)
    print()
    print(result.to_text())
    assert len(result.rows) >= 9  # one row per lightweight CNN


def test_bench_ablation_memory_term(benchmark):
    result = benchmark.pedantic(ablation_memory_term, iterations=1, rounds=1)
    print()
    print(result.to_text())
    # Removing the memory term can only lower the predicted latency.
    for row in result.rows:
        assert float(row[1]) >= float(row[2])


def test_bench_ablation_coefficient_source(benchmark):
    result = benchmark.pedantic(
        ablation_coefficient_source, kwargs={"quick": False}, iterations=1, rounds=1
    )
    print()
    print(result.to_text())
    paper_error = float(result.headline.split("paper constants ")[1].split("%")[0])
    calibrated_error = float(result.headline.split("calibrated constants ")[1].split("%")[0])
    # Calibrating the regression constants against the deployed testbed is what
    # delivers the paper's headline accuracy.
    assert calibrated_error < paper_error
    assert calibrated_error < 10.0


def test_bench_ablation_buffer_model(benchmark):
    result = benchmark.pedantic(ablation_buffer_model, iterations=1, rounds=1)
    print()
    print(result.to_text())
    for row in result.rows:
        mm1, md1, simulated = (float(row[i]) for i in (1, 2, 3))
        assert md1 < mm1
        assert abs(simulated - mm1) / mm1 < 0.15
