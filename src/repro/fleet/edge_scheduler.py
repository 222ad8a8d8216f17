"""Multi-tenant edge GPU scheduling model.

The paper's remote-inference latency (Eq. 13/15) assumes a dedicated edge
GPU.  When several users offload to the same server their frames queue.
:class:`EdgeScheduler` models one edge GPU as a stationary queue built on the
Pollaczek-Khinchine :class:`repro.queueing.mg1.MG1Queue`:

* ``"fifo"`` — frames are served in arrival order; the extra delay a tenant
  sees is the M/G/1 mean waiting time of the queue formed by the *other*
  tenants' frames (the tagged-customer view: with no other tenants the
  waiting time is exactly zero and the dedicated-GPU model is recovered),
* ``"ps"`` — the GPU is time-shared (processor sharing); the M/G/1-PS mean
  sojourn ``E[S] / (1 - rho)`` is insensitive to the service distribution
  and the extra delay is ``E[S] * rho / (1 - rho)``.

Overload (``rho >= 1``) is reported as an *infinite* waiting time rather
than an exception so capacity planners can treat saturation as an ordinary
infeasible point.

:meth:`EdgeScheduler.edge_loads` is the one place a placement's per-edge
offered load is summed and turned into per-tenant waits; the fleet analyzer,
the capacity probe and the co-simulation all call it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence, Union

import numpy as np

from repro.exceptions import ConfigurationError, ModelDomainError
from repro.queueing.mg1 import MG1Queue
from repro.queueing.vectorized import mg1_waiting_ms, ps_waiting_ms

#: Supported service disciplines.
DISCIPLINES = ("fifo", "ps")


class EdgeLoads(NamedTuple):
    """Loads and waits implied by one placement of tenants onto an edge pool.

    Attributes:
        offered_rate_per_ms: per-edge aggregate frame arrival rate.
        utilization: per-edge busy fraction ``sum(lambda * E[S] * scale)``.
        wait_ms: per-tenant tagged waiting time, in placement order.
    """

    offered_rate_per_ms: np.ndarray
    utilization: np.ndarray
    wait_ms: np.ndarray


@dataclass(frozen=True)
class EdgeScheduler:
    """Queueing model of one shared edge GPU.

    Attributes:
        discipline: ``"fifo"`` (M/G/1) or ``"ps"`` (processor sharing).
        service_scv: squared coefficient of variation of the inference
            service time for the FIFO discipline; CNN inference on a
            dedicated GPU is fairly regular, so the default sits between
            deterministic (0) and exponential (1) service.
    """

    discipline: str = "fifo"
    service_scv: float = 0.5

    def __post_init__(self) -> None:
        if self.discipline not in DISCIPLINES:
            raise ConfigurationError(
                f"discipline must be one of {DISCIPLINES}, got {self.discipline!r}"
            )
        if self.service_scv < 0.0:
            raise ModelDomainError(
                f"service SCV must be >= 0, got {self.service_scv}"
            )

    # -- load ----------------------------------------------------------------

    @staticmethod
    def utilization(arrival_rate_per_ms: float, service_time_ms: float) -> float:
        """Server utilisation ``rho = lambda * E[S]``."""
        if arrival_rate_per_ms < 0.0:
            raise ModelDomainError(
                f"arrival rate must be >= 0, got {arrival_rate_per_ms}"
            )
        if service_time_ms <= 0.0:
            raise ModelDomainError(
                f"service time must be > 0, got {service_time_ms}"
            )
        return arrival_rate_per_ms * service_time_ms

    def is_stable(self, arrival_rate_per_ms: float, service_time_ms: float) -> bool:
        """Whether the edge queue is stable under the offered load."""
        return self.utilization(arrival_rate_per_ms, service_time_ms) < 1.0

    @staticmethod
    def max_stable_arrival_rate_per_ms(service_time_ms: float) -> float:
        """Saturation arrival rate ``1 / E[S]`` (frames/ms)."""
        if service_time_ms <= 0.0:
            raise ModelDomainError(
                f"service time must be > 0, got {service_time_ms}"
            )
        return 1.0 / service_time_ms

    # -- waiting time ----------------------------------------------------------

    def waiting_time_ms(
        self, arrival_rate_per_ms: float, service_time_ms: float
    ) -> float:
        """Mean extra delay (beyond service) under the given offered load.

        Returns ``inf`` when the queue is saturated (``rho >= 1``); returns
        exactly 0 for an idle queue (``lambda == 0``).
        """
        rho = self.utilization(arrival_rate_per_ms, service_time_ms)
        if rho >= 1.0:
            return math.inf
        if self.discipline == "ps":
            return service_time_ms * rho / (1.0 - rho)
        queue = MG1Queue(
            arrival_rate_per_ms=arrival_rate_per_ms,
            mean_service_time_ms=service_time_ms,
            service_scv=self.service_scv,
        )
        return queue.mean_waiting_time_ms

    def tagged_waiting_time_ms(
        self,
        service_time_ms: float,
        background_arrival_rate_per_ms: float,
        background_service_time_ms: Optional[float] = None,
    ) -> float:
        """Extra delay one tenant sees from the *other* tenants' frames.

        This is the quantity the fleet analyzer adds to the single-user
        remote-inference latency: a sole tenant (background rate 0) waits
        exactly 0 ms, recovering the paper's dedicated-GPU model.

        Args:
            service_time_ms: the tagged tenant's own service time (enters
                the PS slowdown; FIFO waiting depends only on the
                background).
            background_arrival_rate_per_ms: aggregate frame rate of the
                other tenants on the same edge.
            background_service_time_ms: mean service time of the *other*
                tenants' frames; defaults to ``service_time_ms``
                (homogeneous fleet).  In mixed-workload fleets the
                background workload — not the tagged tenant's — determines
                the queue, including whether it is saturated at all.
        """
        if service_time_ms <= 0.0:
            raise ModelDomainError(
                f"service time must be > 0, got {service_time_ms}"
            )
        background_service = (
            background_service_time_ms
            if background_service_time_ms is not None
            else service_time_ms
        )
        rho = self.utilization(background_arrival_rate_per_ms, background_service)
        if rho >= 1.0:
            return math.inf
        if self.discipline == "ps":
            return service_time_ms * rho / (1.0 - rho)
        queue = MG1Queue(
            arrival_rate_per_ms=background_arrival_rate_per_ms,
            mean_service_time_ms=background_service,
            service_scv=self.service_scv,
        )
        return queue.mean_waiting_time_ms

    def tagged_waiting_times_ms(
        self,
        service_time_ms: Union[float, Sequence[float]],
        background_arrival_rates_per_ms: Sequence[float],
        background_service_times_ms: Sequence[float],
    ) -> np.ndarray:
        """Vectorized :meth:`tagged_waiting_time_ms` over background loads.

        ``service_time_ms`` is one tagged service time for every element or
        one per element.  Element ``i`` equals ``tagged_waiting_time_ms(
        service[i], rates[i], services[i])`` bit for bit (via the array
        queueing ports of :mod:`repro.queueing.vectorized`); saturated
        entries (``rho >= 1``) map to ``inf`` instead of raising, matching
        the scalar contract.
        """
        rates = np.asarray(background_arrival_rates_per_ms, dtype=float)
        services = np.asarray(background_service_times_ms, dtype=float)
        tagged = np.broadcast_to(np.asarray(service_time_ms, dtype=float), rates.shape)
        if np.any(tagged <= 0.0):
            raise ModelDomainError(
                f"service time must be > 0, got min {np.min(tagged)}"
            )
        rho = rates * services
        waits = np.full(rho.shape, math.inf)
        stable = rho < 1.0
        if np.any(stable):
            if self.discipline == "ps":
                waits[stable] = ps_waiting_ms(tagged[stable], rho[stable])
            else:
                waits[stable] = mg1_waiting_ms(
                    rates[stable], services[stable], self.service_scv
                )
        return waits

    def edge_loads(
        self,
        edge_index: Sequence[int],
        arrival_rate_per_ms: Sequence[float],
        service_time_ms: Sequence[float],
        n_edges: int,
        service_scale: Optional[Sequence[float]] = None,
    ) -> EdgeLoads:
        """Per-edge load and per-tenant waits of one placement.

        Tenant ``i`` sends ``arrival_rate_per_ms[i]`` frames/ms, each costing
        ``service_time_ms[i]`` on edge ``edge_index[i]`` of an ``n_edges``
        pool, inflated by that edge's ``service_scale`` (1 when omitted).
        Each edge's offered rate and busy fraction accumulate one tenant at
        a time in placement order; every tenant's busy time is scaled before
        it is summed.  A tenant waits the tagged wait of the *other*
        tenants' load on its edge — ``inf`` when the edge's aggregate load
        is ``>= 1`` — so a sole tenant waits exactly 0 ms.
        """
        edges = np.asarray(edge_index, dtype=np.intp)
        rates = np.asarray(arrival_rate_per_ms, dtype=float)
        unscaled = np.asarray(service_time_ms, dtype=float)
        scale = (
            1.0
            if service_scale is None
            else np.asarray(service_scale, dtype=float)[edges]
        )
        service = unscaled * scale
        busy = rates * unscaled * scale
        # bincount adds the weights sequentially in index order: the same
        # floating-point result as a per-tenant ``+=`` loop.
        edge_rate = np.bincount(edges, weights=rates, minlength=n_edges)
        edge_busy = np.bincount(edges, weights=busy, minlength=n_edges)
        background = np.maximum(edge_rate[edges] - rates, 0.0)
        background_busy = np.maximum(edge_busy[edges] - busy, 0.0)
        background_service = np.divide(
            background_busy, background, out=service.copy(), where=background > 0.0
        )
        waits = self.tagged_waiting_times_ms(service, background, background_service)
        waits[edge_busy[edges] >= 1.0] = math.inf
        return EdgeLoads(edge_rate, edge_busy, waits)
