"""Unit tests for the multi-tenant edge GPU scheduler."""

import math

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, ModelDomainError
from repro.fleet.edge_scheduler import EdgeScheduler
from repro.queueing.mg1 import MG1Queue


class TestConstruction:
    def test_unknown_discipline_rejected(self):
        with pytest.raises(ConfigurationError):
            EdgeScheduler(discipline="lifo")

    def test_negative_scv_rejected(self):
        with pytest.raises(ModelDomainError):
            EdgeScheduler(service_scv=-1.0)


class TestStabilityBoundary:
    def test_utilization(self):
        assert EdgeScheduler.utilization(0.05, 10.0) == pytest.approx(0.5)

    def test_stable_below_saturation(self):
        scheduler = EdgeScheduler()
        assert scheduler.is_stable(0.099, 10.0)
        assert not scheduler.is_stable(0.1, 10.0)

    def test_max_stable_arrival_rate(self):
        assert EdgeScheduler.max_stable_arrival_rate_per_ms(12.5) == pytest.approx(0.08)

    def test_saturated_queue_waits_forever(self):
        scheduler = EdgeScheduler()
        assert scheduler.waiting_time_ms(0.2, 10.0) == math.inf
        assert scheduler.waiting_time_ms(0.1, 10.0) == math.inf

    def test_wait_diverges_towards_saturation(self):
        scheduler = EdgeScheduler()
        waits = [scheduler.waiting_time_ms(rho / 10.0, 10.0) for rho in (0.5, 0.9, 0.99)]
        assert waits[0] < waits[1] < waits[2]


class TestWaitingTime:
    def test_idle_queue_waits_zero(self):
        scheduler = EdgeScheduler()
        assert scheduler.waiting_time_ms(0.0, 10.0) == 0.0

    def test_fifo_matches_pollaczek_khinchine(self):
        scheduler = EdgeScheduler(discipline="fifo", service_scv=0.5)
        queue = MG1Queue(
            arrival_rate_per_ms=0.04, mean_service_time_ms=10.0, service_scv=0.5
        )
        assert scheduler.waiting_time_ms(0.04, 10.0) == pytest.approx(
            queue.mean_waiting_time_ms
        )

    def test_ps_extra_delay(self):
        # M/G/1-PS sojourn is E[S] / (1 - rho); extra delay is E[S] rho / (1 - rho).
        scheduler = EdgeScheduler(discipline="ps")
        assert scheduler.waiting_time_ms(0.05, 10.0) == pytest.approx(10.0)

    def test_ps_is_insensitive_to_scv(self):
        low = EdgeScheduler(discipline="ps", service_scv=0.0)
        high = EdgeScheduler(discipline="ps", service_scv=3.0)
        assert low.waiting_time_ms(0.03, 10.0) == high.waiting_time_ms(0.03, 10.0)


class TestTaggedTenant:
    def test_sole_tenant_waits_zero(self):
        scheduler = EdgeScheduler()
        assert scheduler.tagged_waiting_time_ms(10.0, 0.0) == 0.0

    def test_background_load_adds_wait(self):
        scheduler = EdgeScheduler()
        assert scheduler.tagged_waiting_time_ms(10.0, 0.05) > 0.0

    def test_negative_background_rejected(self):
        with pytest.raises(ModelDomainError):
            EdgeScheduler().tagged_waiting_time_ms(10.0, -0.01)

    def test_non_positive_service_rejected(self):
        with pytest.raises(ModelDomainError):
            EdgeScheduler().tagged_waiting_time_ms(0.0, 0.01)


def _reference_edge_loads(scheduler, edges, rates, services, n_edges, scale):
    """Plain-Python per-tenant ``+=`` accumulation and scalar tagged waits."""
    edge_rate = [0.0] * n_edges
    edge_busy = [0.0] * n_edges
    for edge, rate, service in zip(edges, rates, services):
        edge_rate[edge] += rate
        edge_busy[edge] += rate * service * scale[edge]
    waits = []
    for edge, rate, service in zip(edges, rates, services):
        if edge_busy[edge] >= 1.0:
            waits.append(math.inf)
            continue
        background = max(edge_rate[edge] - rate, 0.0)
        background_busy = max(edge_busy[edge] - rate * service * scale[edge], 0.0)
        waits.append(
            scheduler.tagged_waiting_time_ms(
                service * scale[edge],
                background,
                background_busy / background if background > 0.0 else None,
            )
        )
    return edge_rate, edge_busy, waits


class TestEdgeLoads:
    """``edge_loads`` equals a plain-Python reference bit for bit."""

    @staticmethod
    def _assert_matches_reference(scheduler, edges, rates, services, n_edges, scale=None):
        loads = scheduler.edge_loads(edges, rates, services, n_edges, service_scale=scale)
        expected = _reference_edge_loads(
            scheduler, edges, rates, services, n_edges,
            scale if scale is not None else [1.0] * n_edges,
        )
        assert loads.offered_rate_per_ms.tolist() == expected[0]
        assert loads.utilization.tolist() == expected[1]
        assert loads.wait_ms.tolist() == expected[2]
        return loads

    @pytest.mark.parametrize("discipline", ["fifo", "ps"])
    @pytest.mark.parametrize("seed", range(20))
    def test_heterogeneous_tenants_with_scales(self, discipline, seed):
        rng = np.random.default_rng(seed)
        n_edges = int(rng.integers(1, 6))
        n_tenants = int(rng.integers(0, 25))
        edges = rng.integers(0, n_edges, n_tenants).tolist()
        rates = rng.choice([0.015, 0.03, 0.06, 0.09], n_tenants)
        rates = rates * rng.uniform(0.9, 1.1, n_tenants)
        services = rng.uniform(0.5, 12.0, n_tenants)
        scale = rng.choice([1.0, 1.05, 1 / 0.95, 2.5], n_edges).tolist()
        self._assert_matches_reference(
            EdgeScheduler(discipline=discipline), edges, rates.tolist(),
            services.tolist(), n_edges, scale,
        )

    @pytest.mark.parametrize("discipline", ["fifo", "ps"])
    def test_idle_edge_and_saturated_edge(self, discipline):
        # Edge 1 has no tenants; edge 2 is overloaded (rho = 1.26); edge 0
        # carries a sole tenant, who waits exactly zero.
        scheduler = EdgeScheduler(discipline=discipline)
        loads = self._assert_matches_reference(
            scheduler, [0, 2, 2], [0.03, 0.06, 0.06], [9.0, 10.0, 10.0], 3,
            [1.0, 1.0, 1.05],
        )
        assert loads.offered_rate_per_ms[1] == 0.0
        assert loads.utilization[1] == 0.0
        assert loads.wait_ms[0] == 0.0
        assert loads.utilization[2] >= 1.0
        assert math.isinf(loads.wait_ms[1]) and math.isinf(loads.wait_ms[2])

    def test_no_tenants(self):
        loads = EdgeScheduler().edge_loads([], [], [], 2)
        assert loads.offered_rate_per_ms.tolist() == [0.0, 0.0]
        assert loads.utilization.tolist() == [0.0, 0.0]
        assert loads.wait_ms.size == 0

    def test_per_tenant_service_times_vectorized(self):
        scheduler = EdgeScheduler(discipline="ps")
        waits = scheduler.tagged_waiting_times_ms([5.0, 8.0], [0.02, 0.2], [10.0, 10.0])
        assert waits[0] == scheduler.tagged_waiting_time_ms(5.0, 0.02, 10.0)
        assert math.isinf(waits[1])
