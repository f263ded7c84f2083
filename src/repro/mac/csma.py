"""CSMA/CA (DCF/EDCA) channel-access model.

WiTAG's non-interference claim (paper §1, §4) rests on the fact that query
frames are *ordinary* WiFi transmissions: the client contends for the
channel with standard carrier sensing and backoff, and the tag itself
never emits on another channel.  This module models the distributed
coordination function so that the end-to-end simulator can account for
contention overhead in tag throughput, and so the non-interference
comparison against HitchHike/FreeRider-style systems (which reflect onto a
secondary channel *without* sensing) can be quantified.

The model is the classic slotted contention abstraction: per transmission
attempt, a station waits DIFS + a uniform backoff drawn from its current
contention window, freezing while others transmit.  It is deliberately a
transmission-cycle model rather than a full event-driven MAC — adequate
for throughput/interference accounting, and validated against Bianchi-style
saturation behaviour in tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..phy.constants import DIFS_5GHZ_S, SIFS_5GHZ_S, SLOT_TIME_S
from ..seeding import component_rng


@dataclass(frozen=True)
class DcfParameters:
    """DCF/EDCA contention parameters.

    Defaults are the 802.11 best-effort access category.
    """

    cw_min: int = 15
    cw_max: int = 1023
    slot_s: float = SLOT_TIME_S
    difs_s: float = DIFS_5GHZ_S
    sifs_s: float = SIFS_5GHZ_S

    def __post_init__(self) -> None:
        if self.cw_min < 1 or self.cw_max < self.cw_min:
            raise ValueError(
                f"need 1 <= cw_min <= cw_max, got {self.cw_min}/{self.cw_max}"
            )


@dataclass
class DcfStation:
    """One contending station's backoff state."""

    params: DcfParameters = field(default_factory=DcfParameters)
    retry_count: int = 0

    def contention_window(self) -> int:
        """Current CW after ``retry_count`` doublings, capped at cw_max."""
        cw = (self.params.cw_min + 1) * (2**self.retry_count) - 1
        return min(cw, self.params.cw_max)

    def draw_backoff_slots(self, rng: np.random.Generator) -> int:
        """Uniform backoff draw from [0, CW]."""
        return int(rng.integers(0, self.contention_window() + 1))

    def on_failure(self) -> None:
        """Double the window after a failed transmission."""
        self.retry_count += 1

    def on_success(self) -> None:
        """Reset the window after a successful transmission."""
        self.retry_count = 0


@dataclass
class ContentionModel:
    """Mean channel-access overhead with ``n_contenders`` other stations.

    For tag-throughput accounting we need the expected time a WiTAG client
    spends acquiring the channel per query cycle:

        ``E[access] = DIFS + E[backoff slots] * slot + E[wait for others]``

    The wait term uses a simple persistent-traffic abstraction: each
    contender occupies the channel for ``busy_s`` with probability
    ``activity`` during our backoff countdown.
    """

    params: DcfParameters = field(default_factory=DcfParameters)
    n_contenders: int = 0
    contender_busy_s: float = 1.5e-3
    contender_activity: float = 0.1
    rng: np.random.Generator = field(
        default_factory=lambda: component_rng("csma")
    )

    def __post_init__(self) -> None:
        if self.n_contenders < 0:
            raise ValueError("n_contenders must be >= 0")
        if not 0.0 <= self.contender_activity <= 1.0:
            raise ValueError("activity must be in [0, 1]")
        self._station = DcfStation(self.params)
        #: FIFO of per-attempt activity overrides (see push_activity).
        self._activity_queue: list[float] = []

    def push_activity(self, activity: float) -> None:
        """Queue a one-shot activity override for the next access draw.

        Dynamic-traffic drivers (:mod:`repro.traffic`) model a channel
        whose load changes between transmission opportunities: before
        each query they push the upcoming window's busy fraction, and
        the next :meth:`sample_access_delay_s` call consumes it instead
        of the static :attr:`contender_activity`.  Overrides drain in
        FIFO order, so an engine that pre-draws a whole chunk of access
        delays sees exactly the per-query activities a one-query-at-a-
        time loop would — the queue is what keeps dynamic contention
        independent of chunk size, bit for bit.
        """
        if not 0.0 <= activity <= 1.0:
            raise ValueError("activity must be in [0, 1]")
        self._activity_queue.append(float(activity))

    def _next_activity(self) -> float:
        if self._activity_queue:
            return self._activity_queue.pop(0)
        return self.contender_activity

    def sample_access_delay_s(self) -> float:
        """Draw one channel-access delay for a transmission attempt."""
        activity = self._next_activity()
        slots = self._station.draw_backoff_slots(self.rng)
        delay = self.params.difs_s + slots * self.params.slot_s
        if self.n_contenders and activity > 0.0:
            # Each countdown slot may be interrupted by a busy contender.
            p_busy = 1.0 - (1.0 - activity) ** self.n_contenders
            interruptions = self.rng.binomial(max(slots, 1), min(p_busy, 1.0))
            delay += interruptions * self.contender_busy_s
        return delay

    def mean_access_delay_s(self, activity: float | None = None) -> float:
        """Expected access delay (analytic, no sampling).

        Args:
            activity: evaluate at this busy fraction instead of the
                model's static :attr:`contender_activity` (the dynamic
                traffic layer uses this for its monotonicity contract:
                the expectation is nondecreasing in both ``activity``
                and ``n_contenders``).
        """
        if activity is None:
            activity = self.contender_activity
        elif not 0.0 <= activity <= 1.0:
            raise ValueError("activity must be in [0, 1]")
        mean_slots = self._station.contention_window() / 2.0
        delay = self.params.difs_s + mean_slots * self.params.slot_s
        if self.n_contenders and activity > 0.0:
            p_busy = 1.0 - (1.0 - activity) ** self.n_contenders
            delay += mean_slots * p_busy * self.contender_busy_s
        return delay
