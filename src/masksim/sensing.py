"""Gas-sensor stream processing: from eCO2/TVOC samples to mask bits.

A worn mask captures exhaled breath, so both the equivalent CO2 (ppm) and
the total volatile organic compounds (ppb) read high at the sensor.  The
detector keeps a sliding window of recent samples and, once the window has
filled, emits one mask bit per sample: 1 when the windowed means clear the
configured thresholds (strictly greater; both thresholds under the default
AND rule), else 0.  The bit at each emission depends only on the window
contents, never on the previous bit.

``synth_stream`` fabricates sample streams from a wear schedule and stands
in for the physical sensor.  A detection goes onto the bus as a status record
on ``status_topic(agent)``, from where the gateway bridges it to the agent's
ledger channel.
"""

from __future__ import annotations

import logging
import math
from collections import deque
from dataclasses import dataclass
from enum import Enum

import numpy as np

# re-exported: callers import the status record's codec from here
from .records import decode_status, encode_status

log = logging.getLogger(__name__)


class CombineRule(Enum):
    AND = "and"
    OR = "or"


@dataclass(frozen=True)
class GasSample:
    eco2: float    # ppm
    tvoc: float    # ppb
    t: int = 0     # sample index

    def finite(self) -> bool:
        return math.isfinite(self.eco2) and math.isfinite(self.tvoc)


@dataclass(frozen=True)
class DetectorConfig:
    window: int = 10
    eco2_threshold: float = 500.0   # ppm
    tvoc_threshold: float = 50.0    # ppb
    combine: CombineRule = CombineRule.AND

    def __post_init__(self):
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if self.eco2_threshold <= 0 or self.tvoc_threshold <= 0:
            raise ValueError("thresholds must be positive")


class MaskDetector:
    """Sliding-window threshold detector for one agent's sensor stream."""

    def __init__(self, config: DetectorConfig):
        self.config = config
        self._window: deque[GasSample] = deque(maxlen=config.window)
        self.dropped = 0

    def push_and_detect(self, sample: GasSample) -> int | None:
        """Feed one sample; returns the mask bit, or ``None`` while the
        window is still filling.  Non-finite readings are dropped and logged
        as gaps."""
        if not sample.finite():
            self.dropped += 1
            log.warning("dropping non-finite sample at t=%s", sample.t)
            return None
        self._window.append(sample)
        means = self.window_means()
        if means is None:
            return None
        mean_eco2, mean_tvoc = means
        eco2_high = mean_eco2 > self.config.eco2_threshold
        tvoc_high = mean_tvoc > self.config.tvoc_threshold
        if self.config.combine is CombineRule.AND:
            return int(eco2_high and tvoc_high)
        return int(eco2_high or tvoc_high)

    def window_means(self) -> tuple[float, float] | None:
        if len(self._window) < self.config.window:
            return None
        n = len(self._window)
        return (sum(s.eco2 for s in self._window) / n,
                sum(s.tvoc for s in self._window) / n)


@dataclass(frozen=True)
class StreamLevels:
    """Mean sensor readings for the two wear states, plus Gaussian jitter."""
    ambient_eco2: float = 400.0
    ambient_tvoc: float = 5.0
    worn_eco2: float = 650.0
    worn_tvoc: float = 70.0
    sigma_eco2: float = 15.0
    sigma_tvoc: float = 5.0


def synth_stream(schedule: list[tuple[int, bool]],
                 rng: np.random.Generator,
                 levels: StreamLevels = StreamLevels()) -> list[GasSample]:
    """Generate a sample stream from a wear schedule.

    ``schedule`` is a list of (sample_count, worn) segments.  Readings are
    Gaussian around the segment's levels and clamped at zero (the physical
    quantities are non-negative).  Deterministic for a seeded rng.
    """
    samples: list[GasSample] = []
    t = 0
    for count, worn in schedule:
        eco2_mu = levels.worn_eco2 if worn else levels.ambient_eco2
        tvoc_mu = levels.worn_tvoc if worn else levels.ambient_tvoc
        eco2 = np.maximum(0.0, rng.normal(eco2_mu, levels.sigma_eco2, count))
        tvoc = np.maximum(0.0, rng.normal(tvoc_mu, levels.sigma_tvoc, count))
        for i in range(count):
            samples.append(GasSample(float(eco2[i]), float(tvoc[i]), t))
            t += 1
    return samples


def status_topic(agent_id: str) -> str:
    return f"mask/{agent_id}/status"
