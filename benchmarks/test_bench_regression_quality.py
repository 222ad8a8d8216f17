"""Regression-quality benchmark: re-fitting Eqs. (3), (10), (12), (21).

The paper reports R^2 values of 0.87 (compute resource), 0.863 (mean power),
0.79 (encoding latency) and 0.844 (CNN complexity), training on devices
XR1/XR3/XR5/XR6 and testing on XR2/XR4/XR7.  The benchmark times one full
campaign fit and checks that the synthetic-campaign reproduction lands in the
same quality band with held-out devices scoring similarly to the training
devices.
"""

from repro.figures.builders import PAPER_R2
from repro.measurement.synthetic import CampaignConfig, SyntheticCampaign


def _fit_campaign():
    campaign = SyntheticCampaign(CampaignConfig(n_samples=6000, seed=2024))
    return campaign.fit()


def test_bench_regression_quality(benchmark):
    fits = benchmark.pedantic(_fit_campaign, iterations=1, rounds=3)
    summary = fits.r_squared_summary()
    paper = dict(PAPER_R2)

    # Each regression lands within a reasonable band of the paper's value.
    assert abs(summary["compute_resource"] - paper["compute_resource"]) < 0.15
    assert abs(summary["mean_power"] - paper["mean_power"]) < 0.15
    assert abs(summary["encoding_latency"] - paper["encoding_latency"]) < 0.18
    assert abs(summary["cnn_complexity"] - paper["cnn_complexity"]) < 0.18

    # Held-out devices (the paper's test split) generalise.
    assert abs(fits.resource.r_squared_test - fits.resource.r_squared_train) < 0.15
    assert abs(fits.power.r_squared_test - fits.power.r_squared_train) < 0.15
