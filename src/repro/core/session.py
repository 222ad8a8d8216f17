"""Session-level analysis: from per-frame models to whole XR sessions.

The paper's models are per-frame.  A developer evaluating an XR product needs
session-level answers: what frame rate can the device sustain, how long does
the battery last, how hot does the device get, and what do the latency tails
look like once run-to-run variability is taken into account.
:class:`SessionAnalyzer` composes the per-frame analytical models with the
battery/thermal device models and (optionally) the simulated testbed's
stochastic traces to answer those questions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.config.application import ApplicationConfig
from repro.config.network import NetworkConfig
from repro.core.framework import XRPerformanceModel
from repro.devices.battery import Battery
from repro.devices.thermals import ThermalModel
from repro.exceptions import ConfigurationError
from repro.simulation.noise import NoiseModel
from repro.simulation.pipeline_sim import PipelineSimulator
from repro.simulation.testbed import truth_coefficients


@dataclass(frozen=True)
class SessionReport:
    """Summary of an XR session of many frames.

    Attributes:
        n_frames: number of frames analysed.
        mean_latency_ms: mean per-frame latency.
        p95_latency_ms: 95th-percentile per-frame latency.
        p99_latency_ms: 99th-percentile per-frame latency.
        achievable_fps: frame rate sustainable at the mean latency.
        mean_energy_mj: mean per-frame energy.
        session_energy_j: total energy over the session, in joules.
        battery_drain_fraction: fraction of the battery consumed.
        battery_life_s: projected time to empty at this workload (inf for
            tethered devices).
        final_temperature_c: device skin temperature at the end of the session.
        thermal_throttling: whether the skin temperature crossed the throttle
            threshold at any point.
    """

    n_frames: int
    mean_latency_ms: float
    p95_latency_ms: float
    p99_latency_ms: float
    achievable_fps: float
    mean_energy_mj: float
    session_energy_j: float
    battery_drain_fraction: float
    battery_life_s: float
    final_temperature_c: float
    thermal_throttling: bool

    def summary(self) -> str:
        """Multi-line human readable summary."""
        battery_life = (
            "unlimited (tethered)"
            if self.battery_life_s == float("inf")
            else f"{self.battery_life_s / 60.0:.0f} min"
        )
        return "\n".join(
            [
                f"frames analysed        : {self.n_frames}",
                f"mean / p95 / p99 latency: {self.mean_latency_ms:.1f} / "
                f"{self.p95_latency_ms:.1f} / {self.p99_latency_ms:.1f} ms",
                f"achievable frame rate  : {self.achievable_fps:.1f} fps",
                f"mean energy per frame  : {self.mean_energy_mj:.1f} mJ",
                f"session energy         : {self.session_energy_j:.1f} J",
                f"battery consumed       : {self.battery_drain_fraction * 100.0:.1f}%",
                f"projected battery life : {battery_life}",
                f"final skin temperature : {self.final_temperature_c:.1f} C"
                + (" (throttling)" if self.thermal_throttling else ""),
            ]
        )


class SessionAnalyzer:
    """Analyses whole sessions of an XR application on one device.

    Two modes are available:

    * **analytical** — every frame costs exactly the per-frame model's
      prediction; fast, used for capacity-planning style questions.
    * **simulated** — frames are drawn from the simulated testbed
      (stochastic latencies/powers), so the report includes realistic latency
      tails; used for the ``p95``/``p99`` style questions.
    """

    def __init__(self, model: XRPerformanceModel, use_simulation: bool = False, seed: int = 0):
        self.model = model
        self.use_simulation = use_simulation
        self.seed = seed

    def _simulated_frames(
        self, app: ApplicationConfig, network: NetworkConfig, n_frames: int
    ) -> tuple[np.ndarray, np.ndarray]:
        # Imported here: repro.core never imports repro.measurement at
        # module scope (see docs/ARCHITECTURE.md).
        from repro.measurement.truth import TestbedTruth

        truth = TestbedTruth()
        simulator = PipelineSimulator(
            device=self.model.device,
            edge=self.model.edge,
            exact_coefficients=truth_coefficients(truth, self.model.device.name),
            truth=truth,
            noise=NoiseModel(),
        )
        trace = simulator.simulate(app, network, n_frames=n_frames, seed=self.seed)
        return trace.latencies_ms, trace.energies_mj

    def _analytical_frames(
        self, app: ApplicationConfig, network: NetworkConfig, n_frames: int
    ) -> tuple[np.ndarray, np.ndarray]:
        report = self.model.analyze(app=app, network=network, include_aoi=False)
        latencies = np.full(n_frames, report.total_latency_ms)
        energies = np.full(n_frames, report.total_energy_mj)
        return latencies, energies

    def analyze_session(
        self,
        n_frames: int = 1000,
        app: Optional[ApplicationConfig] = None,
        network: Optional[NetworkConfig] = None,
    ) -> SessionReport:
        """Analyse a session of ``n_frames`` frames and summarise it."""
        if n_frames <= 0:
            raise ConfigurationError(f"n_frames must be > 0, got {n_frames}")
        app = app if app is not None else self.model.app
        network = network if network is not None else self.model.network

        if self.use_simulation:
            latencies, energies = self._simulated_frames(app, network, n_frames)
        else:
            latencies, energies = self._analytical_frames(app, network, n_frames)

        battery = Battery.from_spec(self.model.device)
        thermal = ThermalModel.from_spec(self.model.device)
        throttled = False
        for latency, energy in zip(latencies, energies):
            battery.drain(float(energy))
            thermal.step(float(energy), float(latency))
            throttled = throttled or thermal.is_throttling

        mean_latency = float(np.mean(latencies))
        mean_energy = float(np.mean(energies))
        session_energy_j = float(np.sum(energies)) / 1e3
        drained = 1.0 - battery.state_of_charge
        battery_life = Battery.from_spec(self.model.device).runtime_remaining_s(
            mean_energy, mean_latency
        )
        return SessionReport(
            n_frames=n_frames,
            mean_latency_ms=mean_latency,
            p95_latency_ms=float(np.percentile(latencies, 95)),
            p99_latency_ms=float(np.percentile(latencies, 99)),
            achievable_fps=1e3 / mean_latency,
            mean_energy_mj=mean_energy,
            session_energy_j=session_energy_j,
            battery_drain_fraction=drained,
            battery_life_s=battery_life,
            final_temperature_c=thermal.temperature_c,
            thermal_throttling=throttled,
        )
