"""Power model (Eq. 21): mean computation power, per-segment power, base power.

The mean power drawn while the compute complex is busy is the blended
quadratic regression of Eq. (21).  Individual pipeline segments stress
different parts of the SoC (hardware codec for encoding, GPU/NPU for
inference, radio for transmission), so each segment's power is the mean
computation power scaled by a per-segment factor — the same factors the
simulated testbed uses, playing the role of the per-segment power
measurements the paper's testbed provides.

The paper's published Eq. (21) coefficients become negative below roughly
1.3 GHz (CPU) / 0.5 GHz (GPU); the model clamps the mean power at the
device's base power and records that it clamped, as documented in DESIGN.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.config.application import ApplicationConfig
from repro.config.device import DeviceSpec
from repro.config.network import NetworkConfig
from repro.core.coefficients import CoefficientSet
from repro.core.segments import RADIO_SEGMENTS, Segment
from repro.exceptions import ModelDomainError

#: Relative power draw of each pipeline segment with respect to the mean
#: computation power ``P_mean``.  Encoding leans on the hardware codec (cheap),
#: inference leans on the GPU/NPU (expensive), transmission and handoff use the
#: radio instead of the compute complex.
SEGMENT_POWER_FACTORS: Dict[str, float] = {
    "frame_generation": 0.85,
    "volumetric": 1.00,
    "external": 0.20,
    "conversion": 0.90,
    "encoding": 0.50,
    "local_inference": 1.25,
    "remote_inference": 0.15,
    "transmission": 0.40,
    "handoff": 0.40,
    "rendering": 1.10,
    "cooperation": 0.40,
}


@dataclass
class PowerModel:
    """Evaluates segment power draws for one XR device.

    Attributes:
        coefficients: regression coefficient set (Eq. 21 blend).
        device: the XR device specification (base power, thermal fraction).
        segment_factors: per-segment scaling of the mean computation power.
        clamp_count: number of times the mean-power evaluation had to be
            clamped at the base power (diagnostic, mutated by evaluation).
    """

    coefficients: CoefficientSet
    device: DeviceSpec
    segment_factors: Dict[str, float] = field(
        default_factory=lambda: dict(SEGMENT_POWER_FACTORS)
    )
    clamp_count: int = 0

    # -- mean computation power (Eq. 21) ---------------------------------------------

    def mean_power_w(
        self, cpu_freq_ghz: float, gpu_freq_ghz: float, cpu_share: float
    ) -> float:
        """Mean computation power ``P_mean`` (W), clamped at the base power."""
        value = self.coefficients.power.evaluate(cpu_freq_ghz, gpu_freq_ghz, cpu_share)
        floor = max(self.device.base_power_w, 1e-3)
        if value < floor:
            self.clamp_count += 1
            return floor
        return value

    def mean_power_for(self, app: ApplicationConfig) -> float:
        """Mean computation power at an application's operating point."""
        return self.mean_power_w(app.cpu_freq_ghz, app.gpu_freq_ghz, app.cpu_share)

    # -- per-segment power -------------------------------------------------------------

    def segment_power_w(
        self,
        segment: Segment,
        app: ApplicationConfig,
        network: NetworkConfig | None = None,
    ) -> float:
        """Power drawn by the XR device while executing one segment.

        Radio-bound segments (transmission, handoff, cooperation) use the
        radio power from the network configuration when provided; compute
        segments scale the mean computation power by the segment factor.
        """
        if network is not None and segment in RADIO_SEGMENTS:
            if segment is Segment.HANDOFF:
                return network.handoff.power_w
            return network.radio_tx_power_w
        try:
            factor = self.segment_factors[segment.value]
        except KeyError as error:
            raise ModelDomainError(f"no power factor for segment {segment}") from error
        return factor * self.mean_power_for(app)

    # -- base power and thermal conversion ------------------------------------------------

    @property
    def base_power_w(self) -> float:
        """Always-on base power of the device (``E_base`` source)."""
        return self.device.base_power_w

    def base_energy_mj(self, total_latency_ms: float) -> float:
        """Base energy ``E_base`` accumulated over a frame's total latency."""
        if total_latency_ms < 0.0:
            raise ModelDomainError(
                f"total latency must be >= 0 ms, got {total_latency_ms}"
            )
        return self.base_power_w * total_latency_ms

    def thermal_energy_mj(self, compute_energy_mj: float) -> float:
        """Thermal conversion ``E_theta`` of the computation energy."""
        if compute_energy_mj < 0.0:
            raise ModelDomainError(
                f"compute energy must be >= 0 mJ, got {compute_energy_mj}"
            )
        return self.device.thermal_fraction * compute_energy_mj
