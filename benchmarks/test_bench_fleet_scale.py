"""Benchmarks: fleet analyzer throughput vs. fleet size.

The fleet analyzer groups users into (device, app) equivalence classes and
evaluates every configuration once per class; per user it only builds the
admission candidate, runs the policy and builds the outcome.  Analysis time
therefore grows linearly with a small per-user constant.  These benchmarks
document that scaling — including the headline requirement that a
10,000-user fleet evaluates in seconds, not minutes.
"""

import time

import pytest

from repro.fleet import FleetAnalyzer, GreedySLOAdmission, homogeneous, mixed_devices


def _analyze(n_users: int, include_aoi: bool = False):
    analyzer = FleetAnalyzer(
        homogeneous(n_users, device="XR1"),
        edge="EDGE-AGX",
        policy=GreedySLOAdmission(slo_ms=800.0),
        slo_ms=800.0,
        include_aoi=include_aoi,
    )
    return analyzer.analyze()


@pytest.mark.parametrize("n_users", (100, 1000, 10000))
def test_bench_fleet_analysis_scaling(benchmark, n_users):
    report = benchmark.pedantic(_analyze, args=(n_users,), iterations=1, rounds=3)
    assert report.n_users == n_users
    assert report.p95_latency_ms > 0.0


def test_bench_mixed_device_fleet(benchmark):
    population = mixed_devices(1000, devices=("XR1", "XR2", "XR3", "XR6"))
    analyzer = FleetAnalyzer(
        population, policy=GreedySLOAdmission(slo_ms=800.0), slo_ms=800.0
    )
    report = benchmark.pedantic(analyzer.analyze, iterations=1, rounds=3)
    assert report.n_users == 1000
    assert set(report.device_counts) == {"XR1", "XR2", "XR3", "XR6"}


def test_ten_thousand_user_fleet_under_ten_seconds():
    """Headline requirement: a 10k-user fleet evaluates in under 10 s."""
    start = time.perf_counter()
    report = _analyze(10_000)
    elapsed = time.perf_counter() - start
    assert report.n_users == 10_000
    assert elapsed < 10.0, f"10k-user fleet took {elapsed:.1f} s"
