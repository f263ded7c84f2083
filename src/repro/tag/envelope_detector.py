"""Envelope detector + comparator front end for query-packet detection.

A WiTAG tag has no WiFi receiver.  To find query packets and measure
subframe timing it uses the scheme of paper §7: the client puts a known
bit pattern in the payload of the first few subframes ("trigger
subframes") chosen so the transmitted waveform alternates between
distinguishable amplitude levels; the tag rectifies the RF envelope with a
passive detector and slices it with a micropower comparator.

The model here captures the two quantities that matter to the system
experiments: (1) whether the query is detected at all (sensitivity-limited)
and (2) how reliably each trigger edge is found (margin-limited, feeding
the timing model).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..phy.modulation import q_function


@dataclass(frozen=True)
class EnvelopeDetector:
    """A passive rectifier envelope detector.

    Attributes:
        sensitivity_dbm: minimum input power producing a usable envelope
            (passive Schottky detectors: around -45 to -50 dBm).
        output_noise_mv: RMS noise at the detector output.
        slope_mv_per_db: detector output change per dB of input power in
            the square-law region.
        power_uw: DC power draw (passive detector: ~0, biasing ~0.1 uW).
    """

    sensitivity_dbm: float = -46.0
    output_noise_mv: float = 0.8
    slope_mv_per_db: float = 2.5
    power_uw: float = 0.1

    def __post_init__(self) -> None:
        if self.output_noise_mv <= 0 or self.slope_mv_per_db <= 0:
            raise ValueError("noise and slope must be positive")

    def in_range(self, rx_power_dbm: float) -> bool:
        """Whether the input is above the detector's sensitivity floor."""
        return rx_power_dbm >= self.sensitivity_dbm


@dataclass(frozen=True)
class Comparator:
    """A micropower comparator slicing the envelope into binary levels.

    Attributes:
        input_offset_mv: worst-case input-referred offset.
        power_uw: DC draw (nanopower comparators: ~0.3-0.7 uW).
    """

    input_offset_mv: float = 0.5
    power_uw: float = 0.5


@dataclass(frozen=True)
class TriggerDetector:
    """End-to-end trigger-pattern detection model.

    The client encodes the trigger as amplitude steps of
    ``pattern_contrast_db`` between consecutive trigger subframes.  Each
    edge is detected iff the envelope swing exceeds the comparator noise +
    offset; the whole trigger requires every edge.

    Attributes:
        detector: the envelope detector.
        comparator: the slicer.
        n_trigger_subframes: how many trigger subframes the query carries
            (paper §7: "the first few subframes"; more subframes = more
            robust sync, fewer payload bits).
        pattern_contrast_db: amplitude contrast of the trigger pattern.
    """

    detector: EnvelopeDetector = EnvelopeDetector()
    comparator: Comparator = Comparator()
    n_trigger_subframes: int = 2
    pattern_contrast_db: float = 6.0
    #: Input level at which the detector's nominal slope applies; a
    #: square-law detector's absolute output swing grows with input power
    #: until saturation.
    reference_level_dbm: float = -40.0
    #: Saturation cap on the level-dependent swing gain.
    max_level_gain: float = 30.0

    def __post_init__(self) -> None:
        if self.n_trigger_subframes < 1:
            raise ValueError("need at least one trigger subframe")
        if self.pattern_contrast_db <= 0:
            raise ValueError("pattern contrast must be positive")

    def _level_gain(self, rx_power_dbm: float) -> float:
        """Swing scaling for the square-law region, saturating above."""
        gain = 10.0 ** ((rx_power_dbm - self.reference_level_dbm) / 10.0)
        return min(gain, self.max_level_gain)

    def edge_detection_probability(self, rx_power_dbm: float) -> float:
        """Probability of correctly detecting one trigger edge."""
        if not self.detector.in_range(rx_power_dbm):
            return 0.0
        swing_mv = (
            self.pattern_contrast_db
            * self.detector.slope_mv_per_db
            * self._level_gain(rx_power_dbm)
        )
        margin_mv = swing_mv / 2.0 - self.comparator.input_offset_mv
        if margin_mv <= 0:
            return 0.0
        return 1.0 - q_function(margin_mv / self.detector.output_noise_mv)

    def query_detection_probability(self, rx_power_dbm: float) -> float:
        """Probability that the full trigger pattern is recognised.

        Each trigger subframe contributes one edge; all must be seen.
        """
        p_edge = self.edge_detection_probability(rx_power_dbm)
        return p_edge**self.n_trigger_subframes

    def detect(
        self, rx_power_dbm: float, rng: np.random.Generator
    ) -> bool:
        """Draw one Bernoulli detection outcome."""
        return bool(rng.random() < self.query_detection_probability(rx_power_dbm))

    def period_estimate_jitter_s(self, rx_power_dbm: float) -> float:
        """RMS error of the subframe period measured from trigger edges.

        Edge-timing error maps comparator noise through the envelope
        slew; modelled as Gaussian jitter of a fraction of an OFDM
        symbol scaled by the inverse detection margin.

        Raises:
            ValueError: below sensitivity, where no edge is seen.
        """
        p_edge = self.edge_detection_probability(rx_power_dbm)
        if p_edge <= 0.0:
            raise ValueError("cannot estimate timing below sensitivity")
        # Edge-timing error: comparator noise divided by envelope slew,
        # improving with signal level and degrading as the edge margin
        # shrinks.
        base_jitter_s = 0.5e-6 / math.sqrt(self._level_gain(rx_power_dbm))
        jitter_s = base_jitter_s / max(p_edge, 1e-3)
        # Averaging over the trigger subframes reduces the error.
        return jitter_s / math.sqrt(self.n_trigger_subframes)

    def subframe_period_estimate_s(
        self,
        true_period_s: float,
        rx_power_dbm: float,
        rng: np.random.Generator,
    ) -> float:
        """Estimate of the subframe period measured from trigger edges.

        The true period plus one normal draw of
        :meth:`period_estimate_jitter_s`.
        """
        if true_period_s <= 0:
            raise ValueError("period must be positive")
        jitter_s = self.period_estimate_jitter_s(rx_power_dbm)
        return true_period_s + float(rng.normal(0.0, jitter_s))
