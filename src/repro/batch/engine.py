"""Vectorized batch evaluation of the analytical XR performance models.

The scalar path (:class:`repro.core.framework.XRPerformanceModel`) evaluates
one operating point per call, constructing an application config, a latency
breakdown, an energy breakdown and an AoI result each time.  This engine
evaluates an entire grid of operating points with a handful of NumPy array
expressions instead: points are bucketed into *groups* (:class:`PointGroup`)
that share their structure (device, edge, execution mode, and every
configuration field that is not a numeric axis), and each group is evaluated
by :class:`_GroupEvaluator` in one vectorized pass over the closed-form
equations of Sections IV–VI.

Bit compatibility
-----------------
Every array expression reproduces the scalar model's floating-point
operation *order* (including the order segment latencies are summed into the
Eq. 1 / Eq. 19 totals), so a batch evaluation agrees with the scalar path to
the last bit — ``BatchResult.report_at(i)`` returns the exact report
``XRPerformanceModel.analyze`` would have produced for point ``i``.

The vectorized numeric axes are the frame side, the CPU/GPU clocks, the
encoder bitrate and the wireless throughput; every other field (sensors,
handoff, cooperation, CNN selection, buffer rate, frame rate, ...) is part
of the group structure and may differ freely *between* groups.

Prepare, then finish
--------------------
A group evaluation is two stages, and :meth:`_GroupEvaluator.evaluate` is
exactly ``finish(prepare(...))``.  :meth:`~_GroupEvaluator.prepare` computes
every term that depends on neither the throughput nor the handoff
probability (Eqs. 2-4, 9-15 and 21, their energies, and the rendering
partial sum ``side / c + raw_mem + buffering``);
:meth:`~_GroupEvaluator.finish` adds the throughput terms (the Eq. 8 result
transfer, Eq. 16 transmission, Eq. 18 cooperation) and the Eq. 17 handoff,
then the totals and AoI.  Addition is left-associative, so completing the
cached partial sum is the same operation sequence as the one-pass
expression, and the split changes no bit.  The adaptive
:class:`~repro.adaptive.runtime.ControlContext` prepares its candidate
groups once and then only finishes them per control epoch.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from operator import attrgetter
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro import telemetry
from repro.cnn.zoo import get_cnn
from repro.config.application import ApplicationConfig, EncoderConfig, ExecutionMode
from repro.config.device import DeviceSpec, EdgeServerSpec
from repro.config.network import NetworkConfig
from repro.core.coefficients import CoefficientSet
from repro.core.latency import COMPLEXITY_MODES, INFERENCE_RESULT_SIZE_MB
from repro.core.power import SEGMENT_POWER_FACTORS
from repro.core.segments import (
    COMMON_SEGMENTS,
    COMPUTE_SEGMENTS,
    LOCAL_ONLY_SEGMENTS,
    RADIO_SEGMENTS,
    REMOTE_ONLY_SEGMENTS,
    Segment,
)
from repro.devices.device import XRDevice
from repro.devices.edge_server import EdgeServer
from repro.devices.resolve import resolve_device_spec, resolve_edge_spec
from repro.exceptions import ConfigurationError, ModelDomainError
from repro.network.handoff import HandoffModel
from repro.network.wifi import WifiLink
from repro.queueing.vectorized import mm1_sojourn_ms
from repro.sensors.sensor import ExternalSensor

from repro.batch.grid import NUMERIC_AXES, OperatingPoint, ParameterGrid
from repro.batch.result import BatchResult, GroupAoI, GroupResult

DeviceLike = Union[str, DeviceSpec, XRDevice]
EdgeLike = Union[str, EdgeServerSpec, EdgeServer, None]

_as_device_spec = resolve_device_spec
_as_edge_spec = resolve_edge_spec


#: The :data:`NUMERIC_AXES` of an operating point, in that order.
_point_axes = attrgetter(
    "app.cpu_freq_ghz",
    "app.frame_side_px",
    "app.gpu_freq_ghz",
    "app.encoder.bitrate_mbps",
    "network.throughput_mbps",
)
#: Every other config field of an operating point: its group *structure*.
_point_structure = attrgetter(
    *(
        f"app.{f.name}"
        for f in fields(ApplicationConfig)
        if f.name not in ("cpu_freq_ghz", "frame_side_px", "gpu_freq_ghz", "encoder")
    ),
    *(f"app.encoder.{f.name}" for f in fields(EncoderConfig) if f.name != "bitrate_mbps"),
    *(f"network.{f.name}" for f in fields(NetworkConfig) if f.name != "throughput_mbps"),
)


@dataclass(frozen=True)
class PointGroup:
    """Operating points that share one structure, with their numeric axes as columns.

    Attributes:
        device / edge: the resolved device and edge specifications.
        app / network: a representative application and network; only their
            structure (non-numeric) fields are read.
        positions: global result index of each point of the group.
        columns: one array per :data:`NUMERIC_AXES` name, aligned with
            ``positions``.
    """

    device: DeviceSpec
    edge: Optional[EdgeServerSpec]
    app: ApplicationConfig
    network: NetworkConfig
    positions: np.ndarray
    columns: Mapping[str, np.ndarray]


def group_points(points: Sequence[OperatingPoint]) -> List[PointGroup]:
    """Bucket points by device, edge and structure, in order of first occurrence.

    Each group's representative app/network is its first point's.
    """
    buckets: Dict[tuple, List[int]] = {}
    for index, point in enumerate(points):
        key = (_as_device_spec(point.device), _as_edge_spec(point.edge), _point_structure(point))
        buckets.setdefault(key, []).append(index)
    groups: List[PointGroup] = []
    for (device, edge, _), indices in buckets.items():
        first = points[indices[0]]
        columns = np.array([_point_axes(points[i]) for i in indices], dtype=float).T.copy()
        groups.append(
            PointGroup(
                device=device,
                edge=edge,
                app=first.app,
                network=first.network,
                positions=np.asarray(indices, dtype=np.intp),
                columns=dict(zip(NUMERIC_AXES, columns)),
            )
        )
    return groups


@dataclass(frozen=True)
class _Prepared:
    """The throughput- and handoff-free part of one group's evaluation.

    Built by :meth:`_GroupEvaluator.prepare`; :meth:`_GroupEvaluator.finish`
    completes it.  ``latency`` / ``energy`` are in the scalar segment
    insertion order (which fixes the summation order of the totals); the
    throughput and handoff segments hold ``None`` until ``finish``.
    """

    client_compute: np.ndarray
    edge_compute: Optional[np.ndarray]
    mean_power: np.ndarray
    clamped_points: int
    latency: Dict[Segment, Optional[np.ndarray]]
    energy: Dict[Segment, Optional[np.ndarray]]
    rendering_partial: np.ndarray
    encoded_megabits: Optional[np.ndarray]

    def tile(self, reps: int) -> _Prepared:
        """The same terms repeated ``reps`` times over (``self`` when ``reps == 1``)."""
        if reps == 1:
            return self

        def tiled(values: Optional[np.ndarray]) -> Optional[np.ndarray]:
            return None if values is None else np.tile(values, reps)

        return _Prepared(
            client_compute=tiled(self.client_compute),
            edge_compute=tiled(self.edge_compute),
            mean_power=tiled(self.mean_power),
            clamped_points=self.clamped_points * reps,
            latency={segment: tiled(v) for segment, v in self.latency.items()},
            energy={segment: tiled(v) for segment, v in self.energy.items()},
            rendering_partial=tiled(self.rendering_partial),
            encoded_megabits=tiled(self.encoded_megabits),
        )


class _GroupEvaluator:
    """Vectorized evaluator for one structure group.

    All point-independent quantities (sensor latencies, buffering delays,
    handoff, CNN complexities, propagation delays) are computed once here —
    with the *scalar* code paths, so they are trivially identical to the
    scalar model — and the numeric axes stream through array expressions in
    :meth:`evaluate`.
    """

    def __init__(
        self,
        device: DeviceSpec,
        edge: Optional[EdgeServerSpec],
        app: ApplicationConfig,
        network: NetworkConfig,
        coefficients: CoefficientSet,
        complexity_mode: str = "paper",
        include_aoi: bool = False,
    ) -> None:
        if complexity_mode not in COMPLEXITY_MODES:
            raise ConfigurationError(
                f"complexity_mode must be one of {COMPLEXITY_MODES}, "
                f"got {complexity_mode!r}"
            )
        self.device = device
        self.edge = edge
        self.app = app
        self.network = network
        self.coefficients = coefficients
        self.complexity_mode = complexity_mode
        self.include_aoi = include_aoi

        mode = app.inference.mode
        self.mode = mode
        self.local = mode is ExecutionMode.LOCAL
        self.uses_local_path = self.local or (
            mode is ExecutionMode.SPLIT and app.inference.omega_client > 0.0
        )
        self.uses_remote_path = not self.local
        if self.uses_remote_path and edge is None:
            raise ModelDomainError(
                "remote inference requires an edge server specification"
            )

        # -- point-independent scalars (computed via the scalar code paths) --
        self.frame_period_ms = app.frame_period_ms
        self.mem_bw = device.memory_bandwidth_gb_s
        self.scene_data_mb = app.virtual_scene_data_mb
        self.virtual_scene_side_px = app.virtual_scene_side_px
        self.external_ms = self._external_information_ms()
        self.buffering_ms = self._buffering_ms()
        self.handoff_ms = self.handoff_latency_ms(network)
        self.edge_propagation_ms = network.propagation_delay_ms(network.edge_distance_m)
        # Result-transfer constants of Eq. (8).
        self.result_megabits = INFERENCE_RESULT_SIZE_MB * 8.0
        self.result_transfer_local_ms = INFERENCE_RESULT_SIZE_MB / self.mem_bw

        # Throughput handling: with path loss enabled the scalar WifiLink
        # derives r_w from the link budget and ignores the configured
        # throughput, so the vectorized axis collapses to that scalar.
        self.link_budget_throughput: Optional[float] = None
        if network.enable_path_loss:
            self.link_budget_throughput = WifiLink(config=network).throughput_mbps()

        # Local-inference constants.
        self.omega_client = app.inference.omega_client
        if self.uses_local_path and self.omega_client > 0.0:
            local_cnn = get_cnn(app.inference.local_cnn)
            self.local_complexity = coefficients.cnn_complexity.complexity(local_cnn)
            self.converted_side_px = (
                app.converted_frame_side_px
                if app.converted_frame_side_px is not None
                else local_cnn.input_side_px
            )
            self.converted_size_mb = app.converted_frame_size_mb(self.converted_side_px)
        # Remote-inference constants.
        self.edge_shares = app.inference.edge_shares
        if self.uses_remote_path and self.edge_shares:
            remote_cnn = get_cnn(app.inference.remote_cnn)
            self.remote_complexity = coefficients.cnn_complexity.complexity(remote_cnn)
        if self.uses_remote_path:
            # edge is non-None here: the constructor raised above otherwise.
            self.edge_scale = edge.compute_scale_vs_client
            self.edge_mem_bw = edge.memory_bandwidth_gb_s
        # Cooperation constants.
        self.cooperation_enabled = app.cooperation.enabled
        if self.cooperation_enabled:
            self.coop_megabits = app.cooperation.data_size_mb * 8.0
            self.coop_propagation_ms = network.propagation_delay_ms(
                app.cooperation.distance_m
            )

        # Included-segment set, exactly as the scalar end_to_end assembles it.
        included = set(COMMON_SEGMENTS)
        if self.uses_local_path:
            included |= LOCAL_ONLY_SEGMENTS
        if self.uses_remote_path:
            included |= REMOTE_ONLY_SEGMENTS
        if app.cooperation.enabled and app.cooperation.include_in_totals:
            included.add(Segment.COOPERATION)
        self._included_unrestricted = included

        # Energy constants.
        self.segment_factors = dict(SEGMENT_POWER_FACTORS)
        self.power_floor = max(device.base_power_w, 1e-3)
        self.compute_floor = 0.5  # ComputeResourceModel default clamp

        # AoI constants.
        self.aoi_active = bool(include_aoi and network.sensors)
        if self.aoi_active:
            self.updates_per_frame = max(app.sensor_updates_per_frame, 1)
            total_rate_hz = network.total_sensor_arrival_rate_hz
            if total_rate_hz > 0.0:
                self.aoi_buffer_time_ms = float(
                    mm1_sojourn_ms(total_rate_hz / 1e3, app.buffer_service_rate_hz / 1e3)
                )
            else:
                self.aoi_buffer_time_ms = 0.0
            # Eq. (23) terms that do not depend on the point, shaped
            # (sensor, update index, point) for broadcasting.
            speed = network.propagation_speed_m_per_s
            periods = [sensor.generation_period_ms for sensor in network.sensors]
            overheads = [
                (sensor.distance_m / speed) * 1e3 + self.aoi_buffer_time_ms
                for sensor in network.sensors
            ]
            self.aoi_sensor_names = tuple(sensor.name for sensor in network.sensors)
            self.aoi_period = np.array(periods)[:, None, None]
            self.aoi_overhead = np.array(overheads)[:, None, None]
            self.aoi_slow_offset = np.array(
                [
                    [index * period + overhead for index in range(1, self.updates_per_frame + 1)]
                    for period, overhead in zip(periods, overheads)
                ]
            )[:, :, None]
            self.aoi_request_index = np.arange(self.updates_per_frame, dtype=float)[:, None]

    # -- point-independent helpers (scalar) -----------------------------------

    def _external_information_ms(self) -> float:
        """Eq. (5)-(6), identical to ``XRLatencyModel.external_information_ms``."""
        network = self.network
        app = self.app
        if not network.sensors or app.sensor_updates_per_frame == 0:
            return 0.0
        totals = []
        for config in network.sensors:
            sensor = ExternalSensor(
                config=config,
                propagation_speed_m_per_s=network.propagation_speed_m_per_s,
            )
            totals.append(sensor.total_latency_ms(app.sensor_updates_per_frame))
        return max(totals)

    def handoff_latency_ms(self, network: NetworkConfig) -> float:
        """Eq. (17) for this group under ``network``'s handoff settings."""
        if not self.uses_remote_path:
            return 0.0
        return HandoffModel(network.handoff).mean_handoff_latency_ms(self.frame_period_ms)

    def _buffering_ms(self) -> float:
        """Eq. (7), identical to ``InputBuffer.analytical_delays(...).total_ms``."""
        app = self.app
        network = self.network
        service_per_ms = app.buffer_service_rate_hz / 1e3
        frame_delay = float(mm1_sojourn_ms(app.frame_rate_fps / 1e3, service_per_ms))
        volumetric_delay = float(mm1_sojourn_ms(app.frame_rate_fps / 1e3, service_per_ms))
        sensor_rate_hz = network.total_sensor_arrival_rate_hz
        if sensor_rate_hz > 0.0:
            external_delay = float(mm1_sojourn_ms(sensor_rate_hz / 1e3, service_per_ms))
        else:
            external_delay = 0.0
        return frame_delay + volumetric_delay + external_delay

    # -- vectorized evaluation --------------------------------------------------

    def _client_compute(self, fc: np.ndarray, fg: np.ndarray) -> np.ndarray:
        """Eq. (3) blended quadratic, clamped at the resource-model floor."""
        share = self.app.cpu_share
        blend = self.coefficients.resource
        if not (np.all(fc > 0.0) and np.all(fg > 0.0)):
            raise ModelDomainError("clock frequencies must be > 0 at every point")
        a0, a1, a2 = blend.cpu
        b0, b1, b2 = blend.gpu
        value = share * (a0 + a1 * fc + a2 * fc**2) + (1.0 - share) * (
            b0 + b1 * fg + b2 * fg**2
        )
        return np.where(value < self.compute_floor, self.compute_floor, value)

    def _mean_power(self, fc: np.ndarray, fg: np.ndarray) -> Tuple[np.ndarray, int]:
        """Eq. (21) blended quadratic, clamped at the device base power.

        Returns the clamped values and the number of clamped points, so the
        scalar :attr:`PowerModel.clamp_count` diagnostic can be maintained by
        callers that own a power model.
        """
        share = self.app.cpu_share
        blend = self.coefficients.power
        a0, a1, a2 = blend.cpu
        b0, b1, b2 = blend.gpu
        value = share * (a0 + a1 * fc + a2 * fc**2) + (1.0 - share) * (
            b0 + b1 * fg + b2 * fg**2
        )
        clamped = value < self.power_floor
        return np.where(clamped, self.power_floor, value), int(np.count_nonzero(clamped))

    def _encoding_numerator(self, side: np.ndarray, bitrate: np.ndarray) -> np.ndarray:
        """Eq. (10) workload numerator, in the scalar accumulation order."""
        enc = self.coefficients.encoding
        app = self.app
        value = (
            enc.intercept
            + enc.i_frame_interval * app.encoder.i_frame_interval
            + enc.b_frame_count * app.encoder.b_frame_count
            + enc.bitrate_mbps * bitrate
            + enc.frame_side_px * side
            + enc.frame_rate_fps * app.frame_rate_fps
            + enc.quantization * app.encoder.quantization
        )
        if np.any(value <= 0.0):
            raise ModelDomainError(
                "encoding regression evaluated to a non-positive workload for at "
                "least one grid point; the encoder configuration is outside the "
                "model domain"
            )
        return value

    def prepare(
        self,
        frame_side_px: np.ndarray,
        cpu_freq_ghz: np.ndarray,
        gpu_freq_ghz: np.ndarray,
        bitrate_mbps: np.ndarray,
    ) -> _Prepared:
        """Every term of the group that depends on neither throughput nor handoff.

        Covers Eqs. (2)-(4), (9)-(15) and (21) with their energies, plus the
        rendering partial sum ``side / c + raw_mem + buffering`` that
        :meth:`finish` completes with the Eq. (8) result transfer.
        """
        side = np.asarray(frame_side_px, dtype=float)
        fc = np.asarray(cpu_freq_ghz, dtype=float)
        fg = np.asarray(gpu_freq_ghz, dtype=float)
        bitrate = np.asarray(bitrate_mbps, dtype=float)
        n = side.shape[0]
        # Written as "not all > 0" so NaN fails the check too.
        if not np.all(side > 0.0):
            raise ConfigurationError("frame sides must be > 0 at every point")

        c = self._client_compute(fc, fg)
        raw_mb = ((side * side) * 1.5) / 1e6  # units.yuv_frame_size_mb
        raw_mem = raw_mb / self.mem_bw

        segments: Dict[Segment, Optional[np.ndarray]] = {}
        # Eq. (2)
        segments[Segment.FRAME_GENERATION] = (
            self.frame_period_ms + side / c + raw_mem
        )
        # Eq. (4)
        segments[Segment.VOLUMETRIC] = (
            self.virtual_scene_side_px / c + self.scene_data_mb / self.mem_bw
        )
        # Eqs. (5)-(6)
        segments[Segment.EXTERNAL] = np.full(n, self.external_ms)
        # Eq. (8) without its result-transfer term, which finish() adds last.
        segments[Segment.RENDERING] = None
        rendering_partial = side / c + raw_mem + self.buffering_ms

        if self.uses_local_path:
            # Eq. (9)
            segments[Segment.CONVERSION] = side / c + raw_mem
            # Eq. (11)
            if self.omega_client == 0.0:
                segments[Segment.LOCAL_INFERENCE] = np.zeros(n)
            else:
                if self.complexity_mode == "paper":
                    inference_compute = self.converted_side_px / (
                        c * self.local_complexity
                    )
                else:
                    inference_compute = (
                        self.converted_side_px * self.local_complexity / c
                    )
                segments[Segment.LOCAL_INFERENCE] = self.omega_client * (
                    inference_compute + self.converted_size_mb / self.mem_bw
                )

        edge_compute: Optional[np.ndarray] = None
        encoded_megabits: Optional[np.ndarray] = None
        if self.uses_remote_path:
            numerator = self._encoding_numerator(side, bitrate)
            # Eq. (10)
            segments[Segment.ENCODING] = numerator / c + raw_mem
            edge_compute = self.edge_scale * c
            # Eqs. (13)-(15)
            if not self.edge_shares:
                segments[Segment.REMOTE_INFERENCE] = np.zeros(n)
            else:
                # Eq. (14): decode latency derived from the encoding workload.
                encoding_compute = numerator / c
                decode = (
                    encoding_compute
                    * self.coefficients.decode_discount
                    * c
                    / edge_compute
                )
                encoded_mb = raw_mb / self.app.encoder.compression_ratio
                edge_mem = encoded_mb / self.edge_mem_bw
                remote: Optional[np.ndarray] = None
                for share in self.edge_shares:
                    if share == 0.0:
                        per_share = np.zeros(n)
                    else:
                        if self.complexity_mode == "paper":
                            inference_compute = side / (
                                edge_compute * self.remote_complexity
                            )
                        else:
                            inference_compute = (
                                side * self.remote_complexity / edge_compute
                            )
                        per_share = share * (inference_compute + edge_mem + decode)
                    remote = (
                        per_share if remote is None else np.maximum(remote, per_share)
                    )
                segments[Segment.REMOTE_INFERENCE] = remote
            # Eqs. (16)-(17), filled by finish(); Eq. (16)'s encoded megabits.
            segments[Segment.TRANSMISSION] = None
            segments[Segment.HANDOFF] = None
            encoded_megabits = (raw_mb / self.app.encoder.compression_ratio) * 8.0
        if self.cooperation_enabled:
            # Eq. (18), filled by finish().
            segments[Segment.COOPERATION] = None

        # -- energy (Eqs. 20-21) of the fixed segments --------------------------
        mean_power, clamped_points = self._mean_power(fc, fg)
        energy = {
            segment: (
                None
                if latency is None
                else (self.segment_factors[segment.value] * mean_power) * latency
            )
            for segment, latency in segments.items()
        }
        return _Prepared(
            client_compute=c,
            edge_compute=edge_compute,
            mean_power=mean_power,
            clamped_points=clamped_points,
            latency=segments,
            energy=energy,
            rendering_partial=rendering_partial,
            encoded_megabits=encoded_megabits,
        )

    def finish(
        self,
        prepared: _Prepared,
        throughput_mbps: np.ndarray,
        handoff_ms: float,
        positions: np.ndarray,
    ) -> GroupResult:
        """Complete a prepared group under per-point throughputs and a handoff latency.

        Fills the throughput terms (the Eq. 8 result transfer, Eq. 16
        transmission, Eq. 18 cooperation) and the Eq. 17 handoff, with their
        energies, then the Eq. 1 / Eq. 19 totals, thermal/base energy and AoI.
        ``throughput_mbps`` and ``positions`` may cover the prepared points
        several times over (one tile per condition, in order); the prepared
        arrays are then repeated to match.
        """
        positions = np.asarray(positions, dtype=np.intp)
        n = positions.shape[0]
        prepared = prepared.tile(n // prepared.client_compute.shape[0])
        if self.link_budget_throughput is not None:
            thr = np.full(n, self.link_budget_throughput)
        else:
            thr = np.asarray(throughput_mbps, dtype=float)
        if not np.all(thr > 0.0):
            raise ConfigurationError("throughputs must be > 0 at every point")

        # Eq. (8): rendering = raster + memory + buffering + result transfer.
        if self.local:
            result_transfer = np.full(n, self.result_transfer_local_ms)
        else:
            result_transfer = (
                self.result_megabits / thr
            ) * 1e3 + self.edge_propagation_ms
        # Filling the placeholders keeps the scalar segment insertion order.
        segments = dict(prepared.latency)
        energy = dict(prepared.energy)
        segments[Segment.RENDERING] = prepared.rendering_partial + result_transfer
        rendering_power = self.segment_factors[Segment.RENDERING.value] * prepared.mean_power
        energy[Segment.RENDERING] = rendering_power * segments[Segment.RENDERING]
        if self.uses_remote_path:
            # Eq. (16)
            segments[Segment.TRANSMISSION] = (
                prepared.encoded_megabits / thr
            ) * 1e3 + self.edge_propagation_ms
            # Eq. (17)
            segments[Segment.HANDOFF] = np.full(n, handoff_ms)
            energy[Segment.TRANSMISSION] = (
                self.network.radio_tx_power_w * segments[Segment.TRANSMISSION]
            )
            energy[Segment.HANDOFF] = self.network.handoff.power_w * segments[Segment.HANDOFF]
        if self.cooperation_enabled:
            # Eq. (18)
            segments[Segment.COOPERATION] = (
                self.coop_megabits / thr
            ) * 1e3 + self.coop_propagation_ms
            energy[Segment.COOPERATION] = (
                self.network.radio_tx_power_w * segments[Segment.COOPERATION]
            )

        included = frozenset(self._included_unrestricted & set(segments))

        # Eq. (1) total, in dict insertion order like LatencyBreakdown.total_ms.
        total_latency = np.zeros(n)
        for segment, values in segments.items():
            if segment in included:
                total_latency = total_latency + values

        compute_energy = np.zeros(n)
        for segment, values in energy.items():
            if segment in included and segment in COMPUTE_SEGMENTS:
                compute_energy = compute_energy + values
        thermal = self.device.thermal_fraction * compute_energy
        base = self.device.base_power_w * total_latency

        # Eq. (19) total, matching EnergyBreakdown.total_mj's summation order.
        segment_energy_total = np.zeros(n)
        for segment, values in energy.items():
            if segment in included:
                segment_energy_total = segment_energy_total + values
        total_energy = segment_energy_total + thermal + base

        aoi = self._evaluate_aoi(total_latency) if self.aoi_active else None

        # The scalar path clamps once per mean-power evaluation: one per
        # non-radio segment plus one for the report's mean_power_w field.
        power_evals_per_point = (
            sum(1 for segment in segments if segment not in RADIO_SEGMENTS) + 1
        )

        return GroupResult(
            device_name=self.device.name,
            edge_name=self.edge.name if self.edge is not None else None,
            mode=self.mode,
            included_segments=included,
            latency_segments_ms=segments,
            energy_segments_mj=energy,
            total_latency_ms=total_latency,
            thermal_mj=thermal,
            base_mj=base,
            total_energy_mj=total_energy,
            client_compute=prepared.client_compute,
            edge_compute=prepared.edge_compute,
            mean_power_w=prepared.mean_power,
            positions=positions,
            aoi=aoi,
            power_clamp_count=prepared.clamped_points * power_evals_per_point,
        )

    def evaluate(
        self,
        frame_side_px: np.ndarray,
        cpu_freq_ghz: np.ndarray,
        gpu_freq_ghz: np.ndarray,
        bitrate_mbps: np.ndarray,
        throughput_mbps: np.ndarray,
        positions: np.ndarray,
    ) -> GroupResult:
        """Evaluate the group over aligned per-point value arrays."""
        prepared = self.prepare(frame_side_px, cpu_freq_ghz, gpu_freq_ghz, bitrate_mbps)
        return self.finish(prepared, throughput_mbps, self.handoff_ms, positions)

    # -- AoI (Eqs. 22-26) --------------------------------------------------------

    def _evaluate_aoi(self, total_latency_ms: np.ndarray) -> GroupAoI:
        updates = self.updates_per_frame
        required_period = total_latency_ms / updates
        required_frequency = 1e3 / required_period
        # Every sensor and update index at once, shaped (sensor, update, point).
        request_time = self.aoi_request_index * required_period
        # Eq. (23): a sensor slower than the requirement accumulates AoI
        # linearly; a faster sensor always has a fresh sample.
        aoi = np.where(
            self.aoi_period >= required_period,
            self.aoi_slow_offset - request_time,
            request_time % self.aoi_period + self.aoi_overhead,
        )
        # Summed update by update, in the scalar model's order.
        accumulator = aoi[:, 0]
        for index in range(1, updates):
            accumulator = accumulator + aoi[:, index]
        mean_aoi = accumulator / updates
        processed = np.where(mean_aoi > 0.0, 1e3 / mean_aoi, np.inf)
        roi = processed / required_frequency
        names = self.aoi_sensor_names
        return GroupAoI(
            sensor_names=names,
            average_aoi_ms=dict(zip(names, mean_aoi)),
            roi=dict(zip(names, roi)),
            processed_frequency_hz=dict(zip(names, processed)),
            required_frequency_hz=required_frequency,
            buffer_time_ms=self.aoi_buffer_time_ms,
        )


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------


def evaluate_grid(
    grid: ParameterGrid,
    coefficients: Optional[CoefficientSet] = None,
    complexity_mode: str = "paper",
    include_aoi: bool = False,
) -> BatchResult:
    """Evaluate every operating point of a :class:`ParameterGrid`.

    The grid is consumed without materialising per-point configuration
    objects: each (device, mode) combination becomes one vectorized group.

    Args:
        grid: the cartesian grid to evaluate.
        coefficients: regression coefficients (the paper's set by default).
        complexity_mode: CNN-complexity placement mode (see DESIGN.md).
        include_aoi: evaluate the AoI model per point (off by default, like
            the scalar ``sweep``).
    """
    numeric = grid.numeric_arrays()
    per_group = grid.points_per_group
    edge = _as_edge_spec(grid.edge)
    groups = [
        PointGroup(
            device=_as_device_spec(device_like),
            edge=edge,
            app=grid.group_app(mode),
            network=grid.network,
            positions=np.arange(i * per_group, (i + 1) * per_group, dtype=np.intp),
            columns=numeric,
        )
        for i, (device_like, mode) in enumerate(grid.group_keys())
    ]
    coords = {name: np.tile(numeric[name], len(groups)) for name in NUMERIC_AXES}
    return _evaluate_groups(
        groups,
        grid.n_points,
        coefficients,
        complexity_mode,
        include_aoi,
        span="batch.evaluate_grid",
        coords=coords,
    )


def evaluate_points(
    points: Sequence[OperatingPoint],
    coefficients: Optional[CoefficientSet] = None,
    complexity_mode: str = "paper",
    include_aoi: bool = True,
) -> BatchResult:
    """Evaluate an explicit (possibly heterogeneous) list of operating points.

    Points are bucketed by structure — device, edge, and every configuration
    field that is not a vectorized numeric axis (:func:`group_points`) — and
    each bucket is evaluated in one vectorized pass, so ``N`` points over
    ``G`` distinct structures cost ``G`` group evaluations rather than ``N``
    scalar ones.  Result arrays are aligned with the input order.

    Args:
        points: the operating points to evaluate.
        coefficients: regression coefficients shared by every point.
        complexity_mode: CNN-complexity placement mode.
        include_aoi: evaluate the AoI model (on by default, matching the
            scalar ``analyze``).
    """
    if not points:
        raise ConfigurationError("evaluate_points needs at least one operating point")
    return _evaluate_groups(
        group_points(points), len(points), coefficients, complexity_mode, include_aoi
    )


def _evaluate_groups(
    groups: Sequence[PointGroup],
    n_points: int,
    coefficients: Optional[CoefficientSet],
    complexity_mode: str,
    include_aoi: bool,
    span: str = "batch.evaluate_points",
    coords: Optional[Dict[str, np.ndarray]] = None,
) -> BatchResult:
    """Evaluate structure groups whose positions tile ``range(n_points)``."""
    coefficients = coefficients if coefficients is not None else CoefficientSet.paper()
    with telemetry.get().span(span, points=n_points, groups=len(groups)):
        results = [
            _GroupEvaluator(
                device=group.device,
                edge=group.edge,
                app=group.app,
                network=group.network,
                coefficients=coefficients,
                complexity_mode=complexity_mode,
                include_aoi=include_aoi,
            ).evaluate(positions=group.positions, **group.columns)
            for group in groups
        ]
        return BatchResult(groups=results, n_points=n_points, coords=coords)
