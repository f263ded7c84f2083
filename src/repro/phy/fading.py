"""Temporally correlated fading processes.

The paper (§5, footnote 2) notes WiFi channel coherence times around
100 ms — long against one A-MPDU (~1.3 ms) but short against a one-minute
measurement.  The default channel model draws independent fading per query
(a worst-case interleaving of channel states); this module provides the
correlated alternative: a Gauss-Markov (AR(1)) process whose autocorrelation
decays with the configured coherence time, so that consecutive query cycles
see nearly the same channel and deep fades arrive as multi-query bursts —
the structure that motivates message-level retransmission (see
``benchmarks/test_ablation_fec.py``).

The process generates the *scatter* component of a Rician channel; the LOS
component stays fixed.  For a step of ``dt`` seconds the innovation mixes
as ``x' = rho x + sqrt(1 - rho^2) w`` with ``rho = exp(-dt / tau)``, which
preserves the stationary complex-Gaussian distribution exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..seeding import component_rng


@dataclass
class GaussMarkovFading:
    """A unit-variance complex AR(1) fading process.

    Attributes:
        coherence_time_s: e-folding time of the autocorrelation
            (~100 ms for indoor WiFi per the paper's references).
        rng: randomness source.
    """

    coherence_time_s: float = 0.1
    rng: np.random.Generator = field(
        default_factory=lambda: component_rng("fading-gm")
    )

    def __post_init__(self) -> None:
        if self.coherence_time_s <= 0:
            raise ValueError(
                f"coherence time must be > 0, got {self.coherence_time_s}"
            )
        self._state = self._draw()

    def _draw(self) -> complex:
        return complex(
            self.rng.normal(0.0, math.sqrt(0.5)),
            self.rng.normal(0.0, math.sqrt(0.5)),
        )

    @property
    def state(self) -> complex:
        """Current unit-variance complex Gaussian sample."""
        return self._state

    def advance(self, dt_s: float) -> complex:
        """Step the process forward by ``dt_s`` and return the new state."""
        if dt_s < 0:
            raise ValueError(f"dt must be >= 0, got {dt_s}")
        rho = math.exp(-dt_s / self.coherence_time_s)
        innovation = self._draw()
        self._state = rho * self._state + math.sqrt(1.0 - rho * rho) * innovation
        return self._state

    def correlation_after(self, dt_s: float) -> float:
        """Theoretical autocorrelation after a ``dt_s`` step."""
        if dt_s < 0:
            raise ValueError(f"dt must be >= 0, got {dt_s}")
        return math.exp(-dt_s / self.coherence_time_s)


@dataclass
class CorrelatedFadingChannel:
    """Correlated Rician fading for the direct and tag paths of a link.

    Produces the same kind of samples as
    :meth:`repro.phy.channel.BackscatterChannel.sample_direct_fading` /
    ``sample_tag_fading``, but evolved continuously in time: call
    :meth:`advance` with the elapsed time of each query cycle.

    Attributes:
        direct_los: the static LOS direct-path gain.
        rician_k_db: K-factor of the direct path (None = no fading).
        tag_rician_k_db: K-factor of the tag path (None = no fading).
        coherence_time_s: shared coherence time.
        rng: randomness source.
    """

    direct_los: complex
    rician_k_db: float | None = 15.0
    tag_rician_k_db: float | None = 5.0
    coherence_time_s: float = 0.1
    rng: np.random.Generator = field(
        default_factory=lambda: component_rng("fading-correlated")
    )

    def __post_init__(self) -> None:
        seeds = np.random.SeedSequence(self.rng.integers(0, 2**63))
        child_a, child_b = seeds.spawn(2)
        self._direct_process = GaussMarkovFading(
            self.coherence_time_s, np.random.default_rng(child_a)
        )
        self._tag_process = GaussMarkovFading(
            self.coherence_time_s, np.random.default_rng(child_b)
        )

    def advance(self, dt_s: float) -> None:
        """Evolve both fading processes by ``dt_s`` seconds."""
        self._direct_process.advance(dt_s)
        self._tag_process.advance(dt_s)

    def sample_batch(
        self, dts_s: list[float] | np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Advance through a sequence of cycle durations, recording gains.

        For each ``dt`` in ``dts_s``, evolves both processes by ``dt``
        and records ``(direct_gain(), tag_fading())`` — exactly the
        per-query sequence of ``advance(dt)`` then the two reads, so
        the returned complex arrays are bitwise equal to that replay on
        the same generator state.  The AR(1) recursion is inherently
        sequential (state ``i`` feeds state ``i+1``), so this is a tight
        loop rather than a matrix pass; it exists to give the session-
        batch engine a single call per chunk.
        """
        count = len(dts_s)
        direct = np.empty(count, dtype=complex)
        tag = np.empty(count, dtype=complex)
        for i, dt_s in enumerate(dts_s):
            self.advance(dt_s)
            direct[i] = self.direct_gain()
            tag[i] = self.tag_fading()
        return direct, tag

    def direct_gain(self) -> complex:
        """Current faded direct-path gain."""
        if self.rician_k_db is None:
            return self.direct_los
        k = 10.0 ** (self.rician_k_db / 10.0)
        los_part = math.sqrt(k / (k + 1.0)) * self.direct_los
        scatter_scale = abs(self.direct_los) * math.sqrt(1.0 / (k + 1.0))
        return complex(los_part + scatter_scale * self._direct_process.state)

    def tag_fading(self) -> complex:
        """Current unit-mean tag-path fading multiplier."""
        if self.tag_rician_k_db is None:
            return 1.0 + 0.0j
        k = 10.0 ** (self.tag_rician_k_db / 10.0)
        los_part = math.sqrt(k / (k + 1.0))
        scatter_scale = math.sqrt(1.0 / (k + 1.0))
        return complex(los_part + scatter_scale * self._tag_process.state)
