"""Deterministic fault injection for the runner's chaos tests.

The engine has no fault-injection hooks: these tests inject failures
by wrapping the work function.  :class:`FaultyWork` is picklable, so it
rides to pool workers like any work function, and by unit index it
raises, sleeps, or kills its worker with ``os._exit`` — the failures
real runs meet (a raising unit, a hung unit, a dead worker).  Each
unit's attempt count lives in a file under a per-run state directory,
so a fault plan replays identically whichever process runs the unit.
"""

import os
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.seeding import derived_seed


class InjectedFault(RuntimeError):
    """Raised by an injected crash (or an exit fault downgraded to one)."""


#: Fault kinds in the priority order applied when one unit is named by
#: several (the most disruptive wins).
KINDS = ("exit", "crash", "hang")


@dataclass(frozen=True)
class FaultSpec:
    """Which units fault, how, and for how many of their attempts.

    Attributes:
        crash: unit indices that raise :class:`InjectedFault` before
            their work function runs.
        hang: unit indices that sleep :attr:`hang_s` before running
            (long enough to trip a ``RetryPolicy`` chunk deadline).
        exit: unit indices that kill their worker process with
            ``os._exit``, so the process pool sees a dead worker, not an
            exception.  In the coordinator's own process (the serial
            executor) the fault downgrades to a crash.
        failures: how many attempts of a faulty unit fault; later
            attempts run clean, so a retried chunk succeeds.  Set it
            above the retry budget to model a permanent fault.
        hang_s: how long a hang sleeps.
    """

    crash: tuple[int, ...] = ()
    hang: tuple[int, ...] = ()
    exit: tuple[int, ...] = ()
    failures: int = 1
    hang_s: float = 0.05

    def __post_init__(self) -> None:
        if self.failures < 0:
            raise ValueError("failures must be >= 0")
        if self.hang_s < 0:
            raise ValueError("hang_s must be >= 0")
        for kind in KINDS:
            object.__setattr__(
                self, kind, tuple(int(i) for i in getattr(self, kind))
            )

    @classmethod
    def seeded(
        cls,
        seed: int,
        n_units: int,
        *,
        crash_rate: float = 0.0,
        hang_rate: float = 0.0,
        exit_rate: float = 0.0,
        failures: int = 1,
        hang_s: float = 0.05,
    ) -> "FaultSpec":
        """Draw fault points from a seeded substream (reproducible chaos).

        Each unit independently gains each fault kind with the given
        probability, from a generator derived from ``seed`` alone.
        """
        rates = (exit_rate, crash_rate, hang_rate)
        if any(not 0.0 <= r <= 1.0 for r in rates):
            raise ValueError("fault rates must be in [0, 1]")
        rng = np.random.default_rng(
            np.random.SeedSequence(derived_seed(seed, 0xFA017))
        )
        picks = {
            kind: tuple(
                int(i) for i in np.flatnonzero(rng.random(n_units) < rate)
            )
            for kind, rate in zip(KINDS, rates)
        }
        return cls(**picks, failures=failures, hang_s=hang_s)

    @property
    def faulty_units(self) -> tuple[int, ...]:
        """All unit indices named by any fault kind, sorted."""
        return tuple(sorted({i for kind in KINDS for i in getattr(self, kind)}))

    def action(self, index: int, attempt: int) -> str | None:
        """The fault (if any) for attempt ``attempt`` of unit ``index``."""
        if attempt >= self.failures:
            return None
        for kind in KINDS:
            if index in getattr(self, kind):
                return kind
        return None


@dataclass(frozen=True)
class FaultyWork:
    """``fn`` with ``spec``'s faults injected by unit index (picklable).

    ``state_dir`` holds one file per unit, one byte per attempt; give
    every run its own directory so its attempts count from zero.
    """

    fn: Callable[..., Any]
    spec: FaultSpec
    state_dir: str
    coordinator_pid: int = field(default_factory=os.getpid)

    def next_attempt(self, index: int) -> int:
        """Count one more attempt of unit ``index``; returns its number."""
        path = os.path.join(self.state_dir, f"unit-{index}")
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND)
        try:
            os.write(fd, b".")
        finally:
            os.close(fd)
        return os.path.getsize(path) - 1

    def __call__(self, ctx, *args, **kwargs):
        index = ctx.index
        attempt = self.next_attempt(index)
        action = self.spec.action(index, attempt)
        if action == "exit":
            if os.getpid() != self.coordinator_pid:
                os._exit(13)
            raise InjectedFault(
                f"injected worker exit at unit {index} "
                f"(attempt {attempt}; serial executor downgrades to crash)"
            )
        if action == "crash":
            raise InjectedFault(
                f"injected crash at unit {index} (attempt {attempt})"
            )
        if action == "hang":
            time.sleep(self.spec.hang_s)
        return self.fn(ctx, *args, **kwargs)
