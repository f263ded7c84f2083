"""Subframe timing recovery and drift accounting.

After detecting the trigger pattern, the tag free-runs on its local clock,
toggling its reflection at what it believes are subframe boundaries.  The
tag counts clock cycles: with a 50 kHz clock and 20 us subframes, one
subframe is exactly one clock period — the reason the paper picks ~50 kHz
as WiTAG's clock rate (§7).  Error sources:

* **count rounding** — the tag can only realise toggle periods that are an
  integer number of clock cycles, so a subframe duration that is not a
  multiple of the clock period leaves a systematic residue that accumulates
  linearly with the subframe index (the query builder therefore pads
  subframes to a clock-period multiple; see ``repro.core.query``);
* **period-estimate error** — the trigger detector measures the subframe
  period imperfectly (envelope-edge jitter);
* **frequency drift** — ppm-scale for a crystal, thousands of ppm for a
  hot ring oscillator, growing linearly with elapsed time; and
* **random jitter** — trigger-edge sync jitter plus accumulated
  cycle-to-cycle oscillator jitter.

A toggle that lands outside its guard window corrupts a neighbouring
subframe instead of (or in addition to) its target; this is the timing
component of the BER floor visible at the easy tag positions in paper
Figure 5.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..phy.modulation import q_function
from .oscillator import Oscillator


@dataclass(frozen=True)
class TimingModel:
    """Per-subframe toggle alignment model for one query A-MPDU.

    Attributes:
        oscillator: the tag's clock source.
        subframe_s: true subframe duration.
        period_estimate_s: the tag's measured subframe period (from the
            trigger detector); defaults to perfect (``subframe_s``).
        temperature_c: ambient temperature (drives oscillator drift).
        guard_s: tolerable misalignment before a toggle spills into the
            wrong subframe (about half an OFDM symbol by default).
        sync_jitter_s: RMS error of the initial trigger-edge alignment.
        grid_s: known quantum of subframe durations.  Subframes occupy a
            whole number of OFDM symbols (4 us with the long guard
            interval), and the tag knows this by design — the trigger
            measurement only needs to pick *which* multiple, so the noisy
            period estimate is snapped to this grid (paper §7: the trigger
            lets the tag "determine the subframe length since it varies
            from one A-MPDU to another, depending on the physical
            transmission rate").  Set to ``None`` to model a naive tag
            that free-runs on its raw estimate.
    """

    oscillator: Oscillator
    subframe_s: float
    period_estimate_s: float | None = None
    temperature_c: float = 25.0
    guard_s: float = 2.0e-6
    sync_jitter_s: float = 0.7e-6
    grid_s: float | None = 4.0e-6

    def __post_init__(self) -> None:
        if self.subframe_s <= 0:
            raise ValueError("subframe duration must be positive")
        if self.guard_s <= 0:
            raise ValueError("guard must be positive")
        if self.sync_jitter_s < 0:
            raise ValueError("sync jitter cannot be negative")

    @property
    def clock_period_s(self) -> float:
        """One period of the tag clock at the current temperature."""
        return 1.0 / self.oscillator.frequency_at(self.temperature_c)

    @property
    def target_period_s(self) -> float:
        """The period the tag believes subframes have, after grid snap."""
        target = (
            self.subframe_s
            if self.period_estimate_s is None
            else self.period_estimate_s
        )
        if self.grid_s is not None and self.grid_s > 0:
            snapped = round(target / self.grid_s) * self.grid_s
            target = max(self.grid_s, snapped)
        return target

    @property
    def cycles_per_subframe(self) -> int:
        """Clock cycles the tag counts per subframe (rounded, >= 1)."""
        return max(1, round(self.target_period_s * self.oscillator.nominal_hz))

    @property
    def realized_period_s(self) -> float:
        """The toggle period the tag actually produces.

        Cycle count is computed against the *nominal* clock rate (that is
        all the tag knows); the physical period reflects the temperature-
        drifted rate.
        """
        return self.cycles_per_subframe * self.clock_period_s

    def mean_misalignment_s(self, subframe_index: int) -> float:
        """Deterministic misalignment of the toggle before subframe ``k``.

        The accumulated difference between the tag's realised period and
        the true subframe duration.
        """
        if subframe_index < 0:
            raise ValueError("subframe index must be >= 0")
        return subframe_index * (self.realized_period_s - self.subframe_s)

    def jitter_sigma_s(self, subframe_index: int) -> float:
        """RMS random misalignment at subframe ``k``.

        Sync jitter plus root-sum of accumulated cycle jitter.
        """
        cycles = self.cycles_per_subframe * max(subframe_index, 0)
        accumulated = self.oscillator.cycle_jitter_s * math.sqrt(cycles)
        return math.hypot(self.sync_jitter_s, accumulated)

    def misalignment_probability(self, subframe_index: int) -> float:
        """P(toggle misses its guard window) for subframe ``k``."""
        mu = self.mean_misalignment_s(subframe_index)
        sigma = self.jitter_sigma_s(subframe_index)
        if sigma <= 0:
            return 0.0 if abs(mu) <= self.guard_s else 1.0
        upper = (self.guard_s - mu) / sigma
        lower = (-self.guard_s - mu) / sigma
        return q_function(upper) + (1.0 - q_function(lower))

    def misalignment_params(
        self, count: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(mu, sigma)`` vectors for subframes ``0..count-1``.

        The one source of the tag's alignment draw: the FSM draws
        ``mu + sigma * rng.standard_normal(count)`` once per query, and
        a toggle stays aligned where the draw's magnitude is within
        :attr:`guard_s`.  The period scalars are derived once; each
        element then takes the scalar :meth:`mean_misalignment_s` /
        :meth:`jitter_sigma_s` expression (``math.hypot`` per element,
        not ``np.hypot``), so the vectors equal those methods bitwise
        and the draw equals one scalar ``rng.normal`` per subframe.
        """
        if count < 0:
            raise ValueError("count must be >= 0")
        cycles = self.cycles_per_subframe
        delta = self.realized_period_s - self.subframe_s
        jitter = self.oscillator.cycle_jitter_s
        mu = np.array([k * delta for k in range(count)], dtype=float)
        sigma = np.array(
            [
                math.hypot(self.sync_jitter_s, jitter * math.sqrt(cycles * k))
                for k in range(count)
            ],
            dtype=float,
        )
        return mu, sigma

    def max_reliable_subframes(self, *, target_error: float = 0.01) -> int:
        """How many subframes the tag stays aligned for.

        Returns the largest index k (capped at 4096) whose misalignment
        probability is below ``target_error`` — a design helper for
        choosing A-MPDU sizes and re-sync cadence.
        """
        if not 0 < target_error < 1:
            raise ValueError("target_error must be in (0, 1)")
        k = 0
        while k < 4096 and self.misalignment_probability(k) < target_error:
            k += 1
        return max(0, k - 1)
