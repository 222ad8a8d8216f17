"""Benchmarks for the extension experiments (beyond the paper's evaluation).

These back the paper's "can be incorporated according to system requirements"
claims with runnable numbers: mobility/handoff, path loss, multi-edge
splitting, and session-level analysis.
"""

from repro.evaluation.extensions import (
    adaptation_extension,
    mobility_extension,
    multi_edge_extension,
    pathloss_extension,
    session_extension,
)


def test_bench_extension_mobility(benchmark):
    result = benchmark.pedantic(mobility_extension, iterations=1, rounds=2)
    print()
    print(result.to_text())
    latencies = [float(row[2]) for row in result.rows]
    assert latencies[-1] > latencies[0]


def test_bench_extension_pathloss(benchmark):
    result = benchmark.pedantic(pathloss_extension, iterations=1, rounds=2)
    print()
    print(result.to_text())
    throughputs = [float(row[1]) for row in result.rows]
    assert throughputs[0] > throughputs[-1]


def test_bench_extension_multi_edge(benchmark):
    result = benchmark.pedantic(multi_edge_extension, iterations=1, rounds=2)
    print()
    print(result.to_text())
    remote = [float(row[1]) for row in result.rows]
    assert remote[-1] < remote[0]


def test_bench_extension_adaptation(benchmark):
    result = benchmark.pedantic(
        adaptation_extension, kwargs={"n_epochs": 150, "seed": 3}, iterations=1, rounds=1
    )
    print()
    print(result.to_text())
    # Rows: best static, hysteresis, greedy, ewma — all deadline-safe, and
    # the greedy sweep carries more inference quality than the static point.
    assert len(result.rows) == 4
    qualities = [float(row[3]) for row in result.rows]
    assert qualities[2] > qualities[0]


def test_bench_extension_session(benchmark):
    result = benchmark.pedantic(
        session_extension, kwargs={"n_frames": 200, "seed": 3}, iterations=1, rounds=1
    )
    print()
    print(result.to_text())
    assert len(result.rows) == 7
