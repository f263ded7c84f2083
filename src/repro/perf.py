"""Lightweight per-stage timing counters for hot-path instrumentation.

The query engine (chunked PHY decode, batched sessions) needs a way
to answer "where did the milliseconds go?" without dragging in a
profiler.  :class:`StageCounters` accumulates cumulative wall-clock
seconds and call counts per named stage; the cost per sample is two
``perf_counter`` calls and a dict update, so it is cheap enough to leave
enabled permanently at chunk granularity (it is deliberately *not* used
per subframe).

Consumers: :class:`repro.phy.error_model.LinkErrorModel` times its
decode stages, :class:`repro.core.system.WiTagSystem` times
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
