"""Operating-point grids for the batch evaluation engine.

A :class:`ParameterGrid` describes a cartesian sweep over the numeric axes
the paper's figures are plotted against (frame side, CPU clock, GPU clock,
encoder bitrate, wireless throughput) crossed with the categorical axes
(device model, execution mode).  An explicit, possibly heterogeneous list of
points is expressed as a sequence of :class:`OperatingPoint` and evaluated
with :func:`repro.batch.engine.evaluate_points` instead.

Point ordering is deterministic and matches the scalar
:meth:`repro.core.framework.XRPerformanceModel.sweep` loop: devices vary
slowest, then modes, then CPU frequency, then frame side, then the remaining
numeric axes — so ``grid.points()[i]`` corresponds to index ``i`` of every
:class:`~repro.batch.result.BatchResult` array.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.config.application import ApplicationConfig, ExecutionMode
from repro.config.device import DeviceSpec, EdgeServerSpec
from repro.config.network import NetworkConfig
from repro.exceptions import ConfigurationError

DeviceLike = Union[str, DeviceSpec]
EdgeLike = Union[str, EdgeServerSpec, None]

#: Numeric axis names of a grid, in point-ordering precedence (slowest last
#: two categorical axes excluded).
NUMERIC_AXES: Tuple[str, ...] = (
    "cpu_freq_ghz",
    "frame_side_px",
    "gpu_freq_ghz",
    "bitrate_mbps",
    "throughput_mbps",
)


@dataclass(frozen=True)
class OperatingPoint:
    """One fully-specified operating point for batch evaluation.

    Attributes:
        app: the application configuration of the point (carries the frame
            side, clocks, encoder and inference placement).
        network: the network configuration of the point.
        device: XR device (catalog name or spec).
        edge: edge server (catalog name, spec, or None for local-only).
    """

    app: ApplicationConfig
    network: NetworkConfig = field(default_factory=NetworkConfig)
    device: DeviceLike = "XR1"
    edge: EdgeLike = "EDGE-AGX"


def _ensure_axis(name: str, values: Sequence[float]) -> Tuple[float, ...]:
    axis = tuple(float(v) for v in values)
    if not axis:
        raise ConfigurationError(f"grid axis {name!r} must not be empty")
    for value in axis:
        if not value > 0.0:  # NaN-safe
            raise ConfigurationError(
                f"grid axis {name!r} values must be > 0, got {value}"
            )
    return axis


@dataclass(frozen=True)
class ParameterGrid:
    """A cartesian operating-point grid.

    Numeric axes left at ``None`` are pinned to the base ``app``/``network``
    value, so the grid dimensionality is exactly the axes you specify.
    Categorical axes (``devices``, ``modes``) multiply the grid; a mode of
    ``None`` keeps the base application's own inference placement.

    Attributes:
        frame_sides_px: swept captured-frame sides (``s_f1``).
        cpu_freqs_ghz: swept CPU clocks (``f_c``).
        gpu_freqs_ghz: swept GPU clocks (``f_g``), or None to pin.
        bitrates_mbps: swept encoder bitrates, or None to pin.
        throughputs_mbps: swept wireless throughputs (``r_w``), or None.
        devices: device catalog names or specs (categorical axis).
        modes: execution modes (categorical axis; None entries keep the base
            application's mode).
        edge: shared edge server for every point.
        app: base application configuration the axes override.
        network: base network configuration the axes override.
    """

    frame_sides_px: Optional[Sequence[float]] = None
    cpu_freqs_ghz: Optional[Sequence[float]] = None
    gpu_freqs_ghz: Optional[Sequence[float]] = None
    bitrates_mbps: Optional[Sequence[float]] = None
    throughputs_mbps: Optional[Sequence[float]] = None
    devices: Tuple[DeviceLike, ...] = ("XR1",)
    modes: Tuple[Optional[ExecutionMode], ...] = (None,)
    edge: EdgeLike = "EDGE-AGX"
    app: ApplicationConfig = field(
        default_factory=ApplicationConfig.object_detection_default
    )
    network: NetworkConfig = field(default_factory=NetworkConfig)

    def __post_init__(self) -> None:
        if not self.devices:
            raise ConfigurationError("a grid needs at least one device")
        if not self.modes:
            raise ConfigurationError("a grid needs at least one mode entry")

    # -- axis resolution -----------------------------------------------------

    def axis_values(self, name: str) -> Tuple[float, ...]:
        """Resolved values of one numeric axis (the pinned base value if unswept)."""
        pinned = {
            "cpu_freq_ghz": self.app.cpu_freq_ghz,
            "frame_side_px": self.app.frame_side_px,
            "gpu_freq_ghz": self.app.gpu_freq_ghz,
            "bitrate_mbps": self.app.encoder.bitrate_mbps,
            "throughput_mbps": self.network.throughput_mbps,
        }
        swept = {
            "cpu_freq_ghz": self.cpu_freqs_ghz,
            "frame_side_px": self.frame_sides_px,
            "gpu_freq_ghz": self.gpu_freqs_ghz,
            "bitrate_mbps": self.bitrates_mbps,
            "throughput_mbps": self.throughputs_mbps,
        }
        if name not in pinned:
            raise ConfigurationError(f"unknown grid axis {name!r}")
        values = swept[name]
        if values is None:
            return (float(pinned[name]),)
        return _ensure_axis(name, values)

    @property
    def numeric_shape(self) -> Tuple[int, ...]:
        """Lengths of the numeric axes in :data:`NUMERIC_AXES` order."""
        return tuple(len(self.axis_values(name)) for name in NUMERIC_AXES)

    @property
    def points_per_group(self) -> int:
        """Number of points per (device, mode) combination."""
        return int(np.prod(self.numeric_shape))

    @property
    def n_points(self) -> int:
        """Total number of operating points in the grid."""
        return len(self.devices) * len(self.modes) * self.points_per_group

    # -- expansion -----------------------------------------------------------

    def group_app(self, mode: Optional[ExecutionMode]) -> ApplicationConfig:
        """The base application of one (mode) group."""
        return self.app if mode is None else self.app.with_mode(mode)

    def numeric_arrays(self) -> Dict[str, np.ndarray]:
        """Flattened per-point numeric values for one (device, mode) group.

        Arrays follow the documented point ordering: CPU frequency varies
        slowest, frame side next, then GPU clock, bitrate and throughput.
        """
        axes = [np.asarray(self.axis_values(name), dtype=float) for name in NUMERIC_AXES]
        mesh = np.meshgrid(*axes, indexing="ij")
        return {
            name: grid.ravel() for name, grid in zip(NUMERIC_AXES, mesh)
        }

    def group_keys(self) -> Iterator[Tuple[DeviceLike, Optional[ExecutionMode]]]:
        """Iterate over the categorical (device, mode) combinations in order."""
        for device in self.devices:
            for mode in self.modes:
                yield device, mode

    def points(self) -> List[OperatingPoint]:
        """Materialise every operating point (for interop with scalar code).

        This builds one :class:`OperatingPoint` (and application/network
        configuration) per point — the exact overhead the batch engine
        avoids — so prefer :func:`repro.batch.engine.evaluate_grid`, which
        consumes the grid without expanding it.
        """
        from dataclasses import replace

        result: List[OperatingPoint] = []
        numeric = self.numeric_arrays()
        for device, mode in self.group_keys():
            base = self.group_app(mode)
            for i in range(self.points_per_group):
                app = replace(
                    base,
                    cpu_freq_ghz=float(numeric["cpu_freq_ghz"][i]),
                    frame_side_px=float(numeric["frame_side_px"][i]),
                    gpu_freq_ghz=float(numeric["gpu_freq_ghz"][i]),
                    encoder=replace(
                        base.encoder, bitrate_mbps=float(numeric["bitrate_mbps"][i])
                    ),
                )
                network = replace(
                    self.network,
                    throughput_mbps=float(numeric["throughput_mbps"][i]),
                )
                result.append(
                    OperatingPoint(app=app, network=network, device=device, edge=self.edge)
                )
        return result
