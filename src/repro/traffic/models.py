"""Ambient WiFi traffic models: the load a tag actually rides on.

The paper's core story (§1, §4) is that WiTAG piggybacks on *ordinary*
WiFi transmissions; until now the simulator generated its own query
traffic at a constant cadence, so that story was untested under
dynamic load.  This module supplies the missing ambient layer: models
of the channel-busy process seen by a reader cell, stepped once per
transmission opportunity ("window") and feeding the existing CSMA
layer (:class:`repro.mac.csma.ContentionModel`) through its dynamic
activity queue.

Three model families, following FlexScatter (arXiv 2412.08982) and
GuardRider (arXiv 1912.06493):

* :class:`OnOffTraffic` — the classic bursty alternating-renewal
  source: exponential ON/OFF sojourns, Poisson frame arrivals while ON.
* :class:`MarkovTraffic` — a Markov-modulated load: per-window state
  transitions over a finite rate set (an MMPP at window granularity).
* :class:`TraceReplayTraffic` — replay of recorded frame inter-arrival
  times (cyclic), the trace-driven mode a real deployment would feed
  from packet captures.

Every model exposes the same two-method surface:

* ``step(dt_s) -> float`` — advance one window and return its
  channel-busy fraction in ``[0, 1]`` (consuming only the model's own
  generator, so traffic streams never perturb PHY/tag/session streams);
* ``mean_busy_fraction`` — the configured long-run expectation, which
  the statistical test suite checks empirical busy fractions against.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Protocol, Sequence

import numpy as np

from ..seeding import component_rng

__all__ = [
    "MarkovTraffic",
    "OnOffTraffic",
    "TraceReplayTraffic",
    "TrafficModel",
]


class TrafficModel(Protocol):
    """The surface every ambient-traffic model exposes."""

    def step(self, dt_s: float) -> float:
        """Advance one window; return its busy fraction in [0, 1]."""
        ...  # pragma: no cover - protocol

    @property
    def mean_busy_fraction(self) -> float:
        """Long-run expected busy fraction."""
        ...  # pragma: no cover - protocol


def _check_window(dt_s: float) -> None:
    if dt_s <= 0.0:
        raise ValueError(f"window duration must be positive, got {dt_s}")


@dataclass
class OnOffTraffic:
    """Bursty ON/OFF (alternating renewal) ambient load.

    The source alternates between exponential ON bursts (mean
    ``mean_on_s``) and exponential OFF gaps (mean ``mean_off_s``).
    While ON it offers Poisson frame arrivals at ``rate_fps`` frames
    per second, each occupying the channel for ``frame_airtime_s`` —
    an ON-period busy fraction of ``min(1, rate_fps *
    frame_airtime_s)``.  A window's busy fraction is the ON-time it
    overlaps, weighted by that ON activity.

    Attributes:
        rate_fps: frame arrival rate during ON bursts.
        frame_airtime_s: channel time per frame.
        mean_on_s / mean_off_s: mean burst / gap durations.
        start_on: whether the process begins in the ON state.
        rng: the model's own generator (traffic never shares streams).
    """

    rate_fps: float = 600.0
    frame_airtime_s: float = 1.5e-3
    mean_on_s: float = 0.05
    mean_off_s: float = 0.15
    start_on: bool = False
    rng: np.random.Generator = field(
        default_factory=lambda: component_rng("traffic")
    )

    def __post_init__(self) -> None:
        if self.rate_fps < 0:
            raise ValueError("rate_fps cannot be negative")
        if self.frame_airtime_s <= 0:
            raise ValueError("frame airtime must be positive")
        if self.mean_on_s <= 0 or self.mean_off_s <= 0:
            raise ValueError("mean ON/OFF durations must be positive")
        self._on = bool(self.start_on)
        self._phase_left_s = self._draw_sojourn()

    def _draw_sojourn(self) -> float:
        mean = self.mean_on_s if self._on else self.mean_off_s
        return float(self.rng.exponential(mean))

    @property
    def on_activity(self) -> float:
        """Busy fraction while the source is in an ON burst."""
        return min(1.0, self.rate_fps * self.frame_airtime_s)

    @property
    def duty_cycle(self) -> float:
        """Long-run fraction of time spent ON."""
        return self.mean_on_s / (self.mean_on_s + self.mean_off_s)

    @property
    def mean_busy_fraction(self) -> float:
        return self.duty_cycle * self.on_activity

    def step(self, dt_s: float) -> float:
        """Advance one window; busy = (ON overlap / dt) * ON activity."""
        _check_window(dt_s)
        remaining = float(dt_s)
        on_time = 0.0
        while remaining > 0.0:
            take = min(remaining, self._phase_left_s)
            if self._on:
                on_time += take
            self._phase_left_s -= take
            remaining -= take
            if self._phase_left_s <= 0.0:
                self._on = not self._on
                self._phase_left_s = self._draw_sojourn()
        return (on_time / dt_s) * self.on_activity


@dataclass
class MarkovTraffic:
    """Markov-modulated ambient load over a finite set of rates.

    At every window the hidden state takes one transition of the chain
    ``transition`` (row-stochastic), then the window's busy fraction is
    ``min(1, rates_fps[state] * frame_airtime_s)`` — an MMPP collapsed
    to window granularity, the FlexScatter-style "predictable bursty
    station" model.

    Attributes:
        rates_fps: offered frame rate per hidden state.
        transition: row-stochastic transition matrix (one step per
            window); defaults to a sticky two-state chain.
        frame_airtime_s: channel time per frame.
        state: initial hidden state index.
        rng: the model's own generator.
    """

    rates_fps: Sequence[float] = (30.0, 600.0)
    transition: Sequence[Sequence[float]] | None = None
    frame_airtime_s: float = 1.5e-3
    state: int = 0
    rng: np.random.Generator = field(
        default_factory=lambda: component_rng("traffic")
    )

    def __post_init__(self) -> None:
        self.rates_fps = tuple(float(r) for r in self.rates_fps)
        if not self.rates_fps or any(r < 0 for r in self.rates_fps):
            raise ValueError("need at least one nonnegative rate")
        if self.frame_airtime_s <= 0:
            raise ValueError("frame airtime must be positive")
        n = len(self.rates_fps)
        if self.transition is None:
            if n != 2:
                raise ValueError(
                    "the default sticky chain needs exactly 2 states; "
                    "pass an explicit transition matrix"
                )
            matrix = np.array([[0.95, 0.05], [0.10, 0.90]])
        else:
            matrix = np.asarray(self.transition, dtype=float)
        if matrix.shape != (n, n):
            raise ValueError(
                f"transition matrix must be ({n}, {n}), got {matrix.shape}"
            )
        if (matrix < 0).any() or not np.allclose(matrix.sum(axis=1), 1.0):
            raise ValueError("transition rows must be nonnegative and sum to 1")
        if not 0 <= self.state < n:
            raise ValueError(f"state must be in [0, {n}), got {self.state}")
        self._matrix = matrix
        self._cumulative = np.cumsum(matrix, axis=1)

    def _activity(self, state: int) -> float:
        return min(1.0, self.rates_fps[state] * self.frame_airtime_s)

    @property
    def stationary_distribution(self) -> np.ndarray:
        """The chain's stationary distribution (left eigenvector)."""
        values, vectors = np.linalg.eig(self._matrix.T)
        index = int(np.argmin(np.abs(values - 1.0)))
        pi = np.real(vectors[:, index])
        pi = np.abs(pi)
        return pi / pi.sum()

    @property
    def mean_busy_fraction(self) -> float:
        pi = self.stationary_distribution
        return float(
            sum(
                p * self._activity(s)
                for s, p in enumerate(pi)
            )
        )

    def step(self, dt_s: float) -> float:
        """One chain transition, then the new state's busy fraction."""
        _check_window(dt_s)
        u = float(self.rng.random())
        row = self._cumulative[self.state]
        self.state = int(np.searchsorted(row, u, side="right"))
        if self.state >= len(self.rates_fps):  # u == 1.0 guard
            self.state = len(self.rates_fps) - 1
        return self._activity(self.state)


@dataclass
class TraceReplayTraffic:
    """Replay recorded frame inter-arrival times (cyclic).

    The trace-driven mode: feed inter-arrival gaps harvested from a
    real capture (or :meth:`to_file` output) and the model replays
    them against a running clock, reporting each window's busy
    fraction as ``min(1, arrivals * frame_airtime_s / dt)``.  The
    replay is purely deterministic — same trace, same windows, same
    busy fractions — which is what makes recorded-trace experiments
    reproducible.

    Attributes:
        inter_arrivals_s: the recorded gaps (seconds, positive).
        frame_airtime_s: channel time per replayed frame.
    """

    inter_arrivals_s: Sequence[float]
    frame_airtime_s: float = 1.5e-3

    def __post_init__(self) -> None:
        gaps = tuple(float(g) for g in self.inter_arrivals_s)
        if not gaps or any(g <= 0 for g in gaps):
            raise ValueError("need at least one positive inter-arrival gap")
        if self.frame_airtime_s <= 0:
            raise ValueError("frame airtime must be positive")
        self.inter_arrivals_s = gaps
        self._cursor = 0
        self._next_arrival_s = gaps[0]
        self._clock_s = 0.0

    @property
    def mean_busy_fraction(self) -> float:
        mean_gap = sum(self.inter_arrivals_s) / len(self.inter_arrivals_s)
        return min(1.0, self.frame_airtime_s / mean_gap)

    def step(self, dt_s: float) -> float:
        _check_window(dt_s)
        window_end = self._clock_s + dt_s
        arrivals = 0
        while self._next_arrival_s <= window_end:
            arrivals += 1
            self._cursor = (self._cursor + 1) % len(self.inter_arrivals_s)
            self._next_arrival_s += self.inter_arrivals_s[self._cursor]
        self._clock_s = window_end
        return min(1.0, arrivals * self.frame_airtime_s / dt_s)

    @classmethod
    def from_file(cls, path: str | Path, **kwargs) -> "TraceReplayTraffic":
        """Load a trace: a JSON list, or one float per text line."""
        text = Path(path).read_text(encoding="utf-8").strip()
        if not text:
            raise ValueError(f"empty trace file: {path}")
        if text[0] == "[":
            gaps = json.loads(text)
        else:
            gaps = [float(line) for line in text.splitlines() if line.strip()]
        return cls(inter_arrivals_s=gaps, **kwargs)

    def to_file(self, path: str | Path) -> int:
        """Write the trace as a JSON list; returns the gap count."""
        Path(path).write_text(
            json.dumps(list(self.inter_arrivals_s)) + "\n", encoding="utf-8"
        )
        return len(self.inter_arrivals_s)
