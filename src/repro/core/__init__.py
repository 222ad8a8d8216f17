"""Core contribution: the XR performance analysis modeling framework.

This package implements Sections IV-VI of the paper:

* :mod:`repro.core.coefficients` — the regression coefficient sets (the
  paper's published constants and campaign-calibrated alternatives),
* :mod:`repro.core.resources` — the computation-resource availability model
  (Eq. 3) and the client/edge compute relation,
* :mod:`repro.core.power` — the mean-power model (Eq. 21) with per-segment
  power factors, base power and thermal conversion,
* :mod:`repro.core.latency` — the per-segment and end-to-end latency model
  (Eqs. 1-18),
* :mod:`repro.core.energy` — the per-segment and end-to-end energy model
  (Eqs. 19-20),
* :mod:`repro.core.aoi` — the Age-of-Information and Relevance-of-Information
  models (Eqs. 22-26),
* :mod:`repro.core.offloading` — local/remote/split placement comparison
  helpers built on top of the models,
* :mod:`repro.core.framework` — the :class:`XRPerformanceModel` facade that
  ties everything together (the main public entry point).
"""

from repro.core.aoi import AoIModel, AoIResult, AoITimeline
from repro.core.coefficients import (
    CoefficientSet,
    EncodingCoefficients,
    QuadraticBlend,
    calibrated_coefficients,
)
from repro.core.energy import XREnergyModel
from repro.core.framework import XRPerformanceModel
from repro.core.latency import XRLatencyModel
from repro.core.offloading import OffloadingDecision, OffloadingPlanner
from repro.core.power import SEGMENT_POWER_FACTORS, PowerModel
from repro.core.resources import ComputeResourceModel
from repro.core.results import EnergyBreakdown, LatencyBreakdown, PerformanceReport
from repro.core.segments import Segment
from repro.core.session import SessionAnalyzer, SessionReport

__all__ = [
    "AoIModel",
    "AoIResult",
    "AoITimeline",
    "CoefficientSet",
    "ComputeResourceModel",
    "EncodingCoefficients",
    "EnergyBreakdown",
    "LatencyBreakdown",
    "OffloadingDecision",
    "OffloadingPlanner",
    "PerformanceReport",
    "PowerModel",
    "QuadraticBlend",
    "SEGMENT_POWER_FACTORS",
    "Segment",
    "SessionAnalyzer",
    "SessionReport",
    "XREnergyModel",
    "XRLatencyModel",
    "XRPerformanceModel",
    "calibrated_coefficients",
]
