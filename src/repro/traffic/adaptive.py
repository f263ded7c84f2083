"""Adaptive FEC over a scheduled session: the full closed loop.

This is where the tentpole pieces meet: a message stream is encoded
with a Reed–Solomon code whose redundancy a
:class:`repro.core.rate_control.RedundancyController` tunes to the
block corruption the decoder actually observes, and the coded bits
ride the transmission opportunities a
:class:`repro.traffic.scheduler.ScheduledSession` picks out of the
ambient traffic.  Runs proceed in feedback *rounds*: plan the next
batch of windows, size a coded payload to the exact ride count, load
it on the tag, execute, decode, feed the corruption back.

The same machinery runs the paper-static baseline — a scheduler that
rides every window plus a single-rung controller — so the adaptive
vs static comparison (pinned in ``tests/test_traffic_adaptive.py``)
differs only in policy, never in plumbing.

Everything here is deterministic given the component streams, so each
leg inherits the simulator's equivalence contract:
same seed, same trace → bit-identical reports across scalar/batch
tiers and serial/process-pool execution.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.fec import ReedSolomonCode
from ..core.rate_control import RedundancyController
from ..seeding import component_rng
from .scheduler import ScheduledSession

__all__ = ["AdaptiveFecLink", "LinkReport", "RoundReport"]


@dataclass(frozen=True)
class RoundReport:
    """One feedback round of the adaptive link.

    Attributes:
        round_index: ordinal of the round.
        nsym: Reed-Solomon parity symbols used this round.
        windows: transmission opportunities planned.
        rides: windows the tag rode.
        blocks: FEC blocks fully received and decoded.
        failed_blocks: blocks that decoded wrong (flagged uncorrectable,
            or silently miscorrected — measured against ground truth).
        message_bits: message bits carried by decoded blocks.
        delivered_bits: message bits from blocks decoded correctly.
    """

    round_index: int
    nsym: int
    windows: int
    rides: int
    blocks: int
    failed_blocks: int
    message_bits: int
    delivered_bits: int


@dataclass(frozen=True)
class LinkReport:
    """Aggregate outcome of an adaptive-link run.

    Attributes:
        rounds: per-round records, in order.
        elapsed_s: simulated time spanned by all windows (ridden query
            cycles plus skipped sleep), the goodput denominator.
        energy_j: tag energy consumed, when an energy simulator was
            attached (None otherwise).
    """

    rounds: tuple[RoundReport, ...]
    elapsed_s: float
    energy_j: float | None

    @property
    def message_bits(self) -> int:
        """Message bits across all decoded blocks."""
        return sum(r.message_bits for r in self.rounds)

    @property
    def delivered_bits(self) -> int:
        """Correctly decoded message bits."""
        return sum(r.delivered_bits for r in self.rounds)

    @property
    def goodput_bps(self) -> float:
        """Correct message bits per second of tag existence."""
        if self.elapsed_s <= 0:
            return 0.0
        return self.delivered_bits / self.elapsed_s

    @property
    def block_error_rate(self) -> float:
        """Fraction of decoded FEC blocks that came out wrong."""
        blocks = sum(r.blocks for r in self.rounds)
        if not blocks:
            return 0.0
        return sum(r.failed_blocks for r in self.rounds) / blocks

    @property
    def energy_per_bit_uj(self) -> float | None:
        """Microjoules consumed per correctly delivered message bit."""
        if self.energy_j is None or not self.delivered_bits:
            return None
        return self.energy_j * 1e6 / self.delivered_bits


@dataclass
class AdaptiveFecLink:
    """Feedback-round driver tying scheduler, codec and controller.

    Attributes:
        scheduled: the traffic-aware session the coded bits ride.
        controller: redundancy ladder; its ``levels`` are RS parity
            counts.  With ``adaptive=False`` it is never consulted for
            movement — the current rung stays fixed (the static-paper
            baseline).
        block_k: RS data bytes per block.
        message_rng: generator for the message stream (its own stream,
            like every other component).
        adaptive: feed block corruption back into the controller.
    """

    scheduled: ScheduledSession
    controller: RedundancyController = field(
        default_factory=RedundancyController
    )
    block_k: int = 8
    message_rng: np.random.Generator = field(
        default_factory=lambda: component_rng("message")
    )
    adaptive: bool = True
    reports: list[RoundReport] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.block_k < 1:
            raise ValueError("block_k must be >= 1")

    def run_round(self, windows: int) -> RoundReport:
        """One feedback round over ``windows`` opportunities."""
        plan = self.scheduled.plan_windows(windows)
        rides = sum(1 for d in plan if d.ride)
        system = self.scheduled.session.system
        bits_per_query = system.config.bits_per_query
        budget = rides * bits_per_query

        nsym = int(self.controller.level)
        code = ReedSolomonCode(k=self.block_k, nsym=nsym)
        block_coded = 8 * (self.block_k + nsym)
        n_blocks = budget // block_coded
        message: list[int] = []
        payload: list[int] = []
        if n_blocks:
            message = [
                int(b)
                for b in self.message_rng.integers(
                    0, 2, size=n_blocks * 8 * self.block_k
                )
            ]
            payload = code.encode(message)
        payload = payload + [0] * (budget - len(payload))

        # The tag queue must start empty so the coded stream aligns
        # with the concatenated sent bits (missed triggers keep bits
        # queued, never drop them — see TagStateMachine.process_query).
        start = len(self.scheduled.results)
        system.tag.data_queue.clear()
        if payload:
            system.load_tag_bits(payload)
        self.scheduled.execute_plan(plan)
        system.tag.data_queue.clear()

        received: list[int] = []
        for result in self.scheduled.results[start:]:
            received.extend(result.received_bits)
        usable = min(len(received), n_blocks * block_coded)
        usable -= usable % block_coded
        blocks = usable // block_coded
        failed = 0
        delivered = 0
        if blocks:
            decoded, flags = code.decode_blocks(received[:usable])
            bits_per_block = 8 * self.block_k
            for b in range(blocks):
                chunk = decoded[b * bits_per_block : (b + 1) * bits_per_block]
                truth = message[b * bits_per_block : (b + 1) * bits_per_block]
                if flags[b] and chunk == truth:
                    delivered += bits_per_block
                else:
                    failed += 1
        if self.adaptive:
            self.controller.observe_corruption(failed, blocks)

        report = RoundReport(
            round_index=len(self.reports),
            nsym=nsym,
            windows=windows,
            rides=rides,
            blocks=blocks,
            failed_blocks=failed,
            message_bits=blocks * 8 * self.block_k,
            delivered_bits=delivered,
        )
        self.reports.append(report)
        return report

    def run(self, rounds: int, windows_per_round: int) -> LinkReport:
        """Run ``rounds`` feedback rounds; returns the aggregate report."""
        if rounds < 1:
            raise ValueError("rounds must be >= 1")
        for _ in range(rounds):
            self.run_round(windows_per_round)
        energy = self.scheduled.energy
        return LinkReport(
            rounds=tuple(self.reports),
            elapsed_s=self.scheduled._elapsed_s,
            energy_j=None if energy is None else energy.consumed_j,
        )
