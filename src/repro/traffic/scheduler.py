"""Predictive opportunity scheduling: which frames the tag rides.

FlexScatter's observation (arXiv 2412.08982) applied to WiTAG: ambient
traffic is bursty, and a tag that modulates through a congested window
mostly produces collisions — subframes destroyed by *other* stations
read as raw 0s at the AP, indistinguishable from tag corruption.  A tag
that instead sleeps through predicted-busy windows and rides
predicted-quiet ones converts wasted active time into energy savings
and delivers more correct bits per second.

The pieces, bottom-up:

* :class:`EwmaPredictor` / :class:`HoltPredictor` — one-step busy
  forecasts (exponentially weighted mean, and Holt's double-exponential
  level+trend variant that tracks ramps).
* :class:`OpportunityScheduler` — the causal decide-then-observe loop:
  before each window it forecasts from *past* observations and decides
  ride vs skip; after the window it feeds the realised busy fraction
  back.  Pure float arithmetic — no randomness — so decisions are a
  deterministic function of the traffic trace.
* :class:`ScheduledSession` — wraps a :class:`MeasurementSession`,
  stepping a traffic model once per window, pushing each ridden
  window's busy fraction into the CSMA layer
  (:meth:`ContentionModel.push_activity`), riding via the session's
  engine, then applying collision interference to the ridden queries.
  Because the decisions depend only on the traffic stream and the
  interference draws happen per ridden query in window order, the
  whole construction inherits the simulator's bitwise determinism
  contract.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Protocol

import numpy as np

from ..core.session import MeasurementSession, SessionStats
from ..seeding import component_rng
from ..tag.energy import EnergySimulator
from .models import TrafficModel

__all__ = [
    "EwmaPredictor",
    "HoltPredictor",
    "OpportunityScheduler",
    "ScheduledFleetPoller",
    "ScheduledSession",
    "WindowDecision",
]


class Predictor(Protocol):
    """One-step-ahead forecaster for the window busy fraction."""

    def predict(self) -> float:
        """Forecast the next window's busy fraction from past data."""
        ...  # pragma: no cover - protocol

    def observe(self, busy: float) -> None:
        """Feed the realised busy fraction of the window just past."""
        ...  # pragma: no cover - protocol


@dataclass
class EwmaPredictor:
    """Exponentially weighted moving average forecast.

    ``predict`` returns the current level (0 before any observation —
    an empty channel is the optimistic prior, so the first window is
    always ridden and the predictor bootstraps from real feedback).
    """

    alpha: float = 0.3
    level: float | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")

    def predict(self) -> float:
        return self.level if self.level is not None else 0.0

    def observe(self, busy: float) -> None:
        if self.level is None:
            self.level = float(busy)
        else:
            self.level = self.alpha * busy + (1.0 - self.alpha) * self.level


@dataclass
class HoltPredictor:
    """Holt double-exponential smoothing: level + trend.

    Tracks ramps an EWMA lags behind — when a burst builds over several
    windows the trend term pushes the forecast ahead of the level, so
    the scheduler backs off *before* the peak.  Forecasts are clamped
    to [0, 1] (a busy fraction).
    """

    alpha: float = 0.4
    beta: float = 0.2
    level: float | None = None
    trend: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError("beta must be in [0, 1]")

    def predict(self) -> float:
        if self.level is None:
            return 0.0
        return min(1.0, max(0.0, self.level + self.trend))

    def observe(self, busy: float) -> None:
        if self.level is None:
            self.level = float(busy)
            self.trend = 0.0
            return
        previous = self.level
        self.level = self.alpha * busy + (1.0 - self.alpha) * (
            self.level + self.trend
        )
        self.trend = (
            self.beta * (self.level - previous) + (1.0 - self.beta) * self.trend
        )


@dataclass(frozen=True)
class WindowDecision:
    """One transmission opportunity's scheduling record.

    Attributes:
        index: window ordinal within the session.
        busy: realised busy fraction of the window.
        predicted: the forecast the decision was based on (made before
            ``busy`` was known — the scheduler is causal).
        ride: whether the tag rode this window.
        forced: ride forced by the skip-streak guard, not the forecast.
    """

    index: int
    busy: float
    predicted: float
    ride: bool
    forced: bool = False


@dataclass
class OpportunityScheduler:
    """Causal ride/skip policy over predicted busy fractions.

    Rides a window when the forecast busy fraction is at or below
    ``ride_threshold``.  A skip-streak guard forces a ride after
    ``max_skip_streak`` consecutive skips, so a pessimistic forecast
    can never starve the tag entirely (the forced ride also refreshes
    the predictor with a real contention sample).

    Deterministic by construction: no randomness, pure float updates —
    the same traffic trace always yields the same decision sequence,
    which is what the equivalence tests pin down.
    """

    predictor: Predictor = field(default_factory=EwmaPredictor)
    ride_threshold: float = 0.35
    max_skip_streak: int = 25

    def __post_init__(self) -> None:
        if not 0.0 <= self.ride_threshold <= 1.0:
            raise ValueError("ride_threshold must be in [0, 1]")
        if self.max_skip_streak < 1:
            raise ValueError("max_skip_streak must be >= 1")
        self._skip_streak = 0

    def decide(self) -> tuple[bool, float, bool]:
        """Decide the upcoming window: (ride, forecast, forced)."""
        predicted = self.predictor.predict()
        ride = predicted <= self.ride_threshold
        forced = False
        if not ride and self._skip_streak >= self.max_skip_streak:
            ride = True
            forced = True
        self._skip_streak = 0 if ride else self._skip_streak + 1
        return ride, predicted, forced

    def observe(self, busy: float) -> None:
        """Feed the realised busy fraction of the decided window."""
        self.predictor.observe(busy)


@dataclass
class ScheduledSession:
    """A measurement session driven by ambient traffic and a scheduler.

    Each call processes transmission-opportunity *windows* of duration
    ``window_s``.  Per window, in order:

    1. the traffic model is stepped once (its own generator — stepping
       never perturbs PHY/tag/session streams) to get the window's
       realised busy fraction;
    2. the scheduler forecasts from past windows and decides ride/skip;
    3. ridden windows push their busy fraction into the CSMA layer and
       run one query through the wrapped session; collisions with ambient
       frames then destroy each data subframe with probability
       ``collision_scale * busy`` (a destroyed subframe reads as raw
       bit 0 at the AP, exactly like tag corruption);
    4. skipped windows advance simulated time by ``window_s`` with the
       tag asleep.

    Determinism: decisions depend only on the traffic stream and
    predictor state; ridden-window activities drain through the CSMA
    FIFO in per-query order whatever the session's chunk size;
    interference draws happen per ridden query in window order from a
    dedicated generator.  Same seed + same trace therefore gives
    bit-identical decisions and stats.

    Attributes:
        session: the wrapped measurement session.
        traffic: ambient-traffic model (see :mod:`repro.traffic.models`).
        scheduler: ride/skip policy.
        window_s: transmission-opportunity window duration.
        collision_scale: P(data subframe destroyed) per unit busy
            fraction during a ridden window.
        interference_rng: generator for collision draws (own stream).
        energy: optional tag energy simulator; ridden windows spend the
            active budget for the query cycle, skipped windows sleep.
    """

    session: MeasurementSession
    traffic: TrafficModel
    scheduler: OpportunityScheduler = field(
        default_factory=OpportunityScheduler
    )
    window_s: float = 0.02
    collision_scale: float = 1.0
    interference_rng: np.random.Generator = field(
        default_factory=lambda: component_rng("interference")
    )
    energy: EnergySimulator | None = None
    decisions: list[WindowDecision] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.window_s <= 0:
            raise ValueError("window_s must be positive")
        if not 0.0 <= self.collision_scale <= 1.0:
            raise ValueError("collision_scale must be in [0, 1]")
        self._elapsed_s = 0.0

    # -- MeasurementSession-compatible surface (runner duck typing) ----

    @property
    def system(self):
        """The wrapped session's system (runner/telemetry attach point)."""
        return self.session.system

    @property
    def results(self):
        """Ridden-query results (interference already applied)."""
        return self.session.results

    # -- scheduling loop ----------------------------------------------

    @property
    def windows(self) -> int:
        """Windows processed so far."""
        return len(self.decisions)

    @property
    def rides(self) -> int:
        """Windows the tag rode."""
        return sum(1 for d in self.decisions if d.ride)

    @property
    def skips(self) -> int:
        """Windows the tag slept through."""
        return len(self.decisions) - self.rides

    def plan_windows(self, count: int) -> list[WindowDecision]:
        """Step ``count`` windows through traffic model and scheduler.

        Decisions depend only on the traffic stream and predictor
        state, never on query outcomes, so the full plan is known
        before any query runs — which is what lets the ridden queries
        flow through the batch engine as one contiguous block, and
        lets callers (the adaptive FEC link) size a coded payload to
        the exact number of rides before executing.
        """
        if count < 1:
            raise ValueError("count must be >= 1")
        base = len(self.decisions)
        plan: list[WindowDecision] = []
        for i in range(count):
            busy = self.traffic.step(self.window_s)
            ride, predicted, forced = self.scheduler.decide()
            self.scheduler.observe(busy)
            plan.append(
                WindowDecision(
                    index=base + i,
                    busy=busy,
                    predicted=predicted,
                    ride=ride,
                    forced=forced,
                )
            )
        self.decisions.extend(plan)
        return plan

    def execute_plan(self, plan: list[WindowDecision]) -> SessionStats:
        """Run a plan from :meth:`plan_windows`; returns cumulative stats."""
        start = len(self.session.results)
        ridden = [d for d in plan if d.ride]
        contention = self.session.system.contention
        if contention is not None:
            for decision in ridden:
                contention.push_activity(decision.busy)
        if ridden:
            self.session.run_queries(len(ridden))
            for offset, decision in enumerate(ridden):
                index = start + offset
                self.session.results[index] = self._apply_interference(
                    self.session.results[index], decision.busy
                )

        # Elapsed time and energy, in window order.  Windows are a
        # fixed-cadence resource: a ridden window still occupies the
        # full window (the tag is active for the query cycle, asleep
        # for the remainder), and a query whose contention delays push
        # its cycle past the window overruns it.  Skipped windows are
        # pure sleep.  This keeps the goodput denominator comparable
        # between a scheduler that skips and one that rides everything.
        ride_results = iter(self.session.results[start:])
        rx_dbm = self.session.system.rx_power_at_tag_dbm
        for decision in plan:
            if decision.ride:
                cycle_s = next(ride_results).cycle_s
                dt_s = max(cycle_s, self.window_s)
                if self.energy is not None:
                    self.energy.step(cycle_s, active=True, rf_dbm=rx_dbm)
                    if dt_s > cycle_s:
                        self.energy.step(
                            dt_s - cycle_s,
                            active=False,
                            rf_dbm=self.energy.idle_rf_dbm,
                        )
            else:
                dt_s = self.window_s
                if self.energy is not None:
                    self.energy.step(
                        dt_s, active=False, rf_dbm=self.energy.idle_rf_dbm
                    )
            self._elapsed_s += dt_s
        return self.stats()

    def run_queries(self, count: int) -> SessionStats:
        """Process ``count`` windows; returns cumulative stats.

        ``count`` is a number of transmission opportunities, not ridden
        queries — the scheduler decides how many of them become queries.
        """
        return self.execute_plan(self.plan_windows(count))

    def run_for(self, duration_s: float) -> SessionStats:
        """Process windows until ``duration_s`` of window time passes."""
        if duration_s <= 0:
            raise ValueError("duration must be positive")
        count = max(1, math.ceil(duration_s / self.window_s))
        return self.run_queries(count)

    def _apply_interference(self, result, busy: float):
        """Destroy data subframes that collide with ambient frames.

        A collision destroys the subframe for the AP regardless of what
        the tag did, so the raw received bit becomes 0 — an error
        exactly when the tag sent a 1.  One uniform draw per data bit,
        consumed per ridden query in window order.
        """
        n = len(result.received_bits)
        p = min(1.0, self.collision_scale * busy)
        if n == 0 or p <= 0.0:
            return result
        mask = self.interference_rng.random(n) < p
        if not mask.any():
            return result
        received = tuple(
            0 if hit else bit
            for bit, hit in zip(result.received_bits, mask)
        )
        return replace(result, received_bits=received)

    def stats(self) -> SessionStats:
        """Cumulative stats over all windows processed so far.

        ``elapsed_s`` covers *every* window (ridden cycles plus skipped
        sleep time), so throughput/goodput is per second of tag
        existence — the honest denominator for comparing a scheduler
        that skips windows against one that rides everything.
        """
        inner = self.session.stats(self._elapsed_s)
        return inner

    def per_query_ber(self) -> list[float]:
        """BER of each ridden query (post-interference)."""
        return self.session.per_query_ber()


@dataclass
class ScheduledFleetPoller:
    """Traffic-aware polling over a tag fleet.

    The fleet face of the scheduler: ``poller`` is anything with a
    ``poll_round()`` returning ``{address: MultiTagQueryResult}``, such
    as a :class:`repro.core.fleet.TagFleet`.  Per window the traffic
    model is stepped and the scheduler decides; ridden windows poll the
    whole fleet once and collisions with ambient frames destroy each
    raw payload bit with probability ``collision_scale * busy`` (drawn
    per query in sorted address order).  Given equal traffic and
    interference streams, two pollers with bit-identical rounds give
    bit-identical decisions and corrupted results.
    """

    poller: object
    traffic: TrafficModel
    scheduler: OpportunityScheduler = field(
        default_factory=OpportunityScheduler
    )
    window_s: float = 0.02
    collision_scale: float = 1.0
    interference_rng: np.random.Generator = field(
        default_factory=lambda: component_rng("interference")
    )
    decisions: list[WindowDecision] = field(default_factory=list)
    rounds: list[dict] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.window_s <= 0:
            raise ValueError("window_s must be positive")
        if not 0.0 <= self.collision_scale <= 1.0:
            raise ValueError("collision_scale must be in [0, 1]")

    @property
    def rides(self) -> int:
        """Windows the fleet was polled in."""
        return sum(1 for d in self.decisions if d.ride)

    def run_windows(self, count: int) -> list[dict]:
        """Process ``count`` windows; returns the ridden rounds.

        Each returned round is a ``{address: MultiTagQueryResult}``
        dict with collision interference already applied.
        """
        if count < 1:
            raise ValueError("count must be >= 1")
        new_rounds: list[dict] = []
        base = len(self.decisions)
        for i in range(count):
            busy = self.traffic.step(self.window_s)
            ride, predicted, forced = self.scheduler.decide()
            self.scheduler.observe(busy)
            self.decisions.append(
                WindowDecision(
                    index=base + i,
                    busy=busy,
                    predicted=predicted,
                    ride=ride,
                    forced=forced,
                )
            )
            if not ride:
                continue
            round_ = self.poller.poll_round()
            corrupted = {
                name: self._corrupt(result, busy)
                for name, result in round_.items()
            }
            new_rounds.append(corrupted)
        self.rounds.extend(new_rounds)
        return new_rounds

    def _corrupt(self, result, busy: float):
        """Collision interference on one query's raw payload bits."""
        n = len(result.raw_bits)
        p = min(1.0, self.collision_scale * busy)
        if n == 0 or p <= 0.0:
            return result
        mask = self.interference_rng.random(n) < p
        if not mask.any():
            return result
        raw = tuple(
            0 if hit else bit for bit, hit in zip(result.raw_bits, mask)
        )
        return replace(result, raw_bits=raw)
