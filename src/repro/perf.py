"""Lightweight per-stage timing counters for hot-path instrumentation.

The fast-path work (vectorized PHY decode, batched sessions) needs a way
to answer "where did the milliseconds go?" without dragging in a
profiler.  :class:`StageCounters` accumulates cumulative wall-clock
seconds and call counts per named stage; the cost per sample is two
``perf_counter`` calls and a dict update, so it is cheap enough to leave
enabled permanently at A-MPDU granularity (it is deliberately *not* used
per subframe).

Consumers: :class:`repro.phy.error_model.LinkErrorModel` times its
vectorized decode stages, :class:`repro.core.system.WiTagSystem` times
the query-cycle stages, and
:meth:`repro.core.session.MeasurementSession.stage_timings` reports
both (``repro trace export --format flamegraph`` renders them).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator


@dataclass
class StageCounters:
    """Cumulative wall-clock seconds and call counts per named stage.

    Attributes:
        seconds: stage name -> cumulative seconds spent in that stage.
        calls: stage name -> number of recorded samples.
    """

    seconds: dict[str, float] = field(default_factory=dict)
    calls: dict[str, int] = field(default_factory=dict)

    def add(self, stage: str, elapsed_s: float, count: int = 1) -> None:
        """Record ``elapsed_s`` seconds (and ``count`` calls) for a stage."""
        self.seconds[stage] = self.seconds.get(stage, 0.0) + elapsed_s
        self.calls[stage] = self.calls.get(stage, 0) + count

    @contextmanager
    def timed(self, stage: str, count: int = 1) -> Iterator[None]:
        """Context manager measuring one timed sample of ``stage``."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add(stage, time.perf_counter() - start, count)

    def merge(self, other: "StageCounters") -> None:
        """Fold another counter set into this one (stage-wise sums)."""
        for stage, secs in other.seconds.items():
            self.add(stage, secs, other.calls.get(stage, 0))

    def reset(self) -> None:
        """Zero all stages."""
        self.seconds.clear()
        self.calls.clear()

    @property
    def total_seconds(self) -> float:
        """Sum of cumulative seconds across all stages."""
        return sum(self.seconds.values())

    def as_dict(self) -> dict[str, dict[str, float]]:
        """JSON-friendly snapshot: ``{stage: {seconds, calls}}``."""
        return {
            stage: {
                "seconds": self.seconds[stage],
                "calls": self.calls.get(stage, 0),
            }
            for stage in self.seconds
        }

    def per_call_us(self, stage: str) -> float:
        """Mean microseconds per recorded call of ``stage`` (0 if unseen).

        The batch engines record one sample covering many calls (``add``
        with ``count=n``), so this stays comparable across the scalar,
        per-query and session-batch paths.
        """
        calls = self.calls.get(stage, 0)
        if calls <= 0:
            return 0.0
        return 1e6 * self.seconds.get(stage, 0.0) / calls

    def as_rows_with_rate(self) -> list[list]:
        """Table rows ``[stage, seconds, calls, per_call_us]`` by cost.

        The one place per-call rate math lives: :meth:`rows` derives
        from this, and the rate column inherits :meth:`per_call_us`'s
        ``calls > 0`` guard.
        """
        return [
            [
                stage,
                self.seconds[stage],
                self.calls.get(stage, 0),
                self.per_call_us(stage),
            ]
            for stage in sorted(
                self.seconds, key=self.seconds.get, reverse=True
            )
        ]

    def rows(self) -> list[list]:
        """Table rows ``[stage, seconds, calls]`` sorted by cost."""
        return [row[:3] for row in self.as_rows_with_rate()]
