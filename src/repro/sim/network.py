"""Multi-station network scheduling around a WiTAG deployment.

Models the environment of the non-interference discussion: a WiTAG client
sharing the channel with ordinary WiFi stations through standard CSMA, and
a reader polling several tags round-robin (a tag responds only when its
query carries its trigger; this module's poller abstracts that as
time-division polling, the natural multi-tag extension the paper implies).

Two polling layers live here:

* :class:`TagPoller` — a round-robin poller, one
  :class:`MeasurementSession` per tag.  Each tag's session draws its
  data bits from its own RNG substream derived from ``(seed, tag
  name)``, so adding or removing a tag never perturbs the other tags'
  streams.
* :class:`FleetNetwork` — the warehouse-scale layer: several reader
  cells (:class:`ReaderCell`) over a floorplan, each polling its
  assigned slice of one shared tag population through a vectorized
  :class:`repro.core.fleet.TagFleet`, with per-AP CSMA contention from
  the cell's :class:`TrafficStation` mix, an event-driven schedule
  (each AP's next round starts when its previous one ends), pluggable
  AP selection (:class:`NearestApPolicy` / :class:`StrongestRxPolicy`)
  and mobility ticks that refresh only the moved tags' cached link
  state on every fleet (incremental invalidation, counted by
  ``invalidated_rows``).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Callable, Iterable, Protocol, Sequence

import numpy as np

from ..core.fleet import TagFleet
from ..core.session import MeasurementSession, SessionStats
from ..core.system import WiTagSystem
from ..core.throughput import block_ack_airtime_s
from ..mac.csma import ContentionModel
from ..seeding import child_sequence, derived_seed
from .events import EventLoop


@dataclass
class TrafficStation:
    """A background WiFi station with Poisson frame arrivals.

    Attributes:
        name: label.
        offered_load_fps: mean frames per second the station offers.
        frame_airtime_s: airtime per frame.
    """

    name: str
    offered_load_fps: float = 50.0
    frame_airtime_s: float = 1.5e-3

    def __post_init__(self) -> None:
        if self.offered_load_fps < 0:
            raise ValueError("offered load cannot be negative")
        if self.frame_airtime_s <= 0:
            raise ValueError("frame airtime must be positive")

    @property
    def channel_activity(self) -> float:
        """Fraction of time this station occupies the channel."""
        return min(1.0, self.offered_load_fps * self.frame_airtime_s)


@dataclass(frozen=True)
class PollResult:
    """Outcome of one multi-tag polling round."""

    tag_name: str
    stats: SessionStats


@dataclass
class TagPoller:
    """Round-robin poller over multiple WiTAG deployments.

    Each tag is its own :class:`WiTagSystem` (its own geometry); the
    poller divides reader time between them using the event loop, the way
    a deployment polling many sensors would.

    Attributes:
        systems: tag name -> system.
        dwell_s: reader time spent per tag per round.
        seed: root of the per-tag data-bit substreams.
    """

    systems: dict[str, WiTagSystem]
    dwell_s: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.systems:
            raise ValueError("need at least one tag system")
        if self.dwell_s <= 0:
            raise ValueError("dwell must be positive")
        # Per-tag session substreams keyed by (seed, tag name): a tag's
        # stream depends only on its own name, never on which other
        # tags are present — adding a tag cannot perturb existing
        # tags' numbers.
        self._sessions = {
            name: MeasurementSession(
                system, rng=_named_substream(self.seed, name)
            )
            for name, system in self.systems.items()
        }

    def run_rounds(self, n_rounds: int) -> list[PollResult]:
        """Poll every tag ``n_rounds`` times; returns per-tag aggregates.

        Uses an :class:`EventLoop` so dwell intervals interleave exactly as
        they would on a shared reader.
        """
        if n_rounds < 1:
            raise ValueError("need at least one round")
        loop = EventLoop()
        order = sorted(self._sessions)

        def poll(name: str) -> None:
            self._sessions[name].run_for(self.dwell_s)

        for round_index in range(n_rounds):
            for slot, name in enumerate(order):
                at = (round_index * len(order) + slot) * self.dwell_s
                loop.schedule(at, lambda n=name: poll(n))
        loop.run_all()
        return [
            PollResult(tag_name=name, stats=self._sessions[name].stats())
            for name in order
        ]


def _named_substream(seed: int, name: str) -> np.random.Generator:
    """A generator keyed by ``(seed, name)``.

    Name-keyed (not index-keyed) so the stream is independent of set
    membership and iteration order — the property the
    :class:`TagPoller` substream contract requires.
    """
    key = zlib.crc32(name.encode("utf-8"))
    return np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=(0x4E57, key))
    )


# ---------------------------------------------------------------------------
# Multi-AP fleet network
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReaderCell:
    """One reader (client + AP pair) placement in a fleet network.

    Attributes:
        name: cell label.
        ap_xy: AP (block-ACK receiver) position, metres.
        client_xy: query transmitter position; defaults to 1 m west of
            the AP (a reader's two radios are co-sited).
        stations: background WiFi stations contending in this cell.
    """

    name: str
    ap_xy: tuple[float, float]
    client_xy: tuple[float, float] | None = None
    stations: tuple[TrafficStation, ...] = ()

    @property
    def resolved_client_xy(self) -> tuple[float, float]:
        """The client position (applies the co-siting default)."""
        if self.client_xy is not None:
            return self.client_xy
        return (self.ap_xy[0] - 1.0, self.ap_xy[1])


class ApSelectionPolicy(Protocol):
    """Pluggable tag->AP assignment."""

    def assign(
        self, network: "FleetNetwork", current: np.ndarray | None
    ) -> np.ndarray:
        """Return the AP index per tag.

        Args:
            network: the fleet network (positions, fleets, cells).
            current: the previous assignment, or ``None`` on the
                initial call.
        """
        ...  # pragma: no cover - protocol


class NearestApPolicy:
    """Assign every tag to the geometrically nearest AP."""

    def assign(
        self, network: "FleetNetwork", current: np.ndarray | None
    ) -> np.ndarray:
        d2 = np.stack(
            [
                ((network.positions - np.asarray(cell.ap_xy)) ** 2).sum(
                    axis=1
                )
                for cell in network.cells
            ]
        )
        return d2.argmin(axis=0)


@dataclass
class StrongestRxPolicy:
    """Assign by strongest query power at the tag, with hysteresis.

    A tag switches cells only when another AP's client is at least
    ``hysteresis_db`` stronger than its current one — the standard
    anti-ping-pong guard for mobility.
    """

    hysteresis_db: float = 3.0

    def assign(
        self, network: "FleetNetwork", current: np.ndarray | None
    ) -> np.ndarray:
        power = np.stack(
            [fleet.rx_power_dbm for fleet in network.fleets]
        )
        best = power.argmax(axis=0)
        if current is None:
            return best
        cols = np.arange(power.shape[1])
        gain = power[best, cols] - power[current, cols]
        out = current.copy()
        switch = gain > self.hysteresis_db
        out[switch] = best[switch]
        return out


@dataclass
class RandomWalkMobility:
    """A bounded random-walk mobility trace.

    Each tick moves a deterministic pseudo-random subset of tags by a
    bounded step — exercising the fleets' *incremental* invalidation
    (only moved rows are refreshed).  The tick's draws depend only on
    ``(seed, tick_index)``, never on simulation state.

    Attributes:
        bounds: ``(xmin, ymin, xmax, ymax)`` clip box, metres.
        step_m: maximum per-axis step per tick.
        fraction: fraction of tags that move each tick.
    """

    bounds: tuple[float, float, float, float]
    step_m: float = 0.25
    fraction: float = 0.1
    seed: int = 0

    def __call__(
        self, tick: int, positions: np.ndarray
    ) -> tuple[list[int], list[tuple[float, float]]]:
        rng = np.random.default_rng(child_sequence(self.seed, tick))
        n = len(positions)
        count = max(1, int(round(self.fraction * n)))
        indices = np.sort(rng.choice(n, size=min(count, n), replace=False))
        steps = rng.uniform(-self.step_m, self.step_m, size=(len(indices), 2))
        xmin, ymin, xmax, ymax = self.bounds
        moved = np.clip(
            positions[indices] + steps, [xmin, ymin], [xmax, ymax]
        )
        return (
            [int(i) for i in indices],
            [(float(x), float(y)) for x, y in moved],
        )


#: A mobility trace: ``(tick_index, positions) -> (indices, new_xy)``.
MobilityTrace = Callable[
    [int, np.ndarray], tuple[list[int], list[tuple[float, float]]]
]


@dataclass(frozen=True)
class FleetRoundStats:
    """Aggregate outcome of one AP's polling round."""

    ap: str
    round_index: int
    start_s: float
    duration_s: float
    n_queries: int
    n_responded: int
    bits_sent: int
    bit_errors: int


class FleetNetwork:
    """Many reader cells polling one shared tag population.

    Each cell owns a full :class:`TagFleet` over *all* tags (per-tag
    link state to that cell's reader — a few MB per cell even at
    thousands of tags) but polls only the tags the AP-selection policy
    currently assigns to it.  Rounds are event-driven: an AP's next
    round starts when its previous one ends, with per-query channel
    access delays drawn from the cell's CSMA contention model, so
    lightly-loaded cells naturally poll faster than congested ones.

    Tag data queues are authoritative per assignment: on handoff the
    undelivered bits drain from the old cell's fleet and follow the
    tag to the new one.

    Attributes:
        cells: the reader cells.
        fleets: one :class:`TagFleet` per cell (same tag order).
        positions: authoritative ``(n_tags, 2)`` tag coordinates.
        assignment: AP index per tag.
        handoffs: cumulative tag reassignments across mobility ticks.
    """

    def __init__(
        self,
        cells: Sequence[ReaderCell],
        positions: Iterable[tuple[float, float]],
        *,
        seed: int = 0,
        policy: ApSelectionPolicy | None = None,
        mobility: MobilityTrace | None = None,
        mobility_dt_s: float = 1.0,
        names: Sequence[str] | None = None,
        **fleet_kwargs,
    ) -> None:
        self.cells = tuple(cells)
        if not self.cells:
            raise ValueError("need at least one reader cell")
        if len({cell.name for cell in self.cells}) != len(self.cells):
            raise ValueError("cell names must be distinct")
        self.positions = np.asarray(list(positions), dtype=float)
        self.seed = int(seed)
        self.policy = policy if policy is not None else NearestApPolicy()
        self.mobility = mobility
        if mobility_dt_s <= 0:
            raise ValueError("mobility_dt_s must be positive")
        self.mobility_dt_s = float(mobility_dt_s)
        # One fleet per cell over the whole population; per-cell seeds
        # are derived substreams, so cells never share tag streams.
        self.fleets = tuple(
            TagFleet.build(
                self.positions,
                names=names,
                client_xy=cell.resolved_client_xy,
                ap_xy=cell.ap_xy,
                seed=derived_seed(self.seed, ap_index),
                **fleet_kwargs,
            )
            for ap_index, cell in enumerate(self.cells)
        )
        self.names = self.fleets[0].names
        self._contention = tuple(
            self._build_contention(ap_index, cell)
            for ap_index, cell in enumerate(self.cells)
        )
        self.assignment = np.asarray(
            self.policy.assign(self, None), dtype=np.intp
        )
        if self.assignment.shape != (len(self.names),):
            raise ValueError(
                "policy returned assignment of shape "
                f"{self.assignment.shape}, need ({len(self.names)},)"
            )
        self.handoffs = 0
        self.mobility_ticks = 0
        #: Optional repro.obs.Telemetry; attach via attach_network.
        self.telemetry = None

    def _build_contention(
        self, ap_index: int, cell: ReaderCell
    ) -> ContentionModel | None:
        if not cell.stations:
            return None
        activity = float(
            np.mean([s.channel_activity for s in cell.stations])
        )
        busy_s = float(
            np.mean([s.frame_airtime_s for s in cell.stations])
        )
        return ContentionModel(
            n_contenders=len(cell.stations),
            contender_busy_s=busy_s,
            contender_activity=activity,
            rng=np.random.default_rng(
                child_sequence(self.seed, 0xC5 + ap_index)
            ),
        )

    @property
    def n_tags(self) -> int:
        """Number of tags in the population."""
        return len(self.names)

    @property
    def invalidated_rows(self) -> int:
        """Total per-fleet cache rows refreshed by mobility so far."""
        return sum(fleet.invalidated_rows for fleet in self.fleets)

    def assigned_names(self, ap_index: int) -> list[str]:
        """Tags currently assigned to one cell, in sorted name order."""
        return sorted(
            self.names[i]
            for i in np.flatnonzero(self.assignment == ap_index)
        )

    def load_bits(self, name: str, bits: Sequence[int]) -> None:
        """Queue bits on a tag (in its currently assigned cell)."""
        i = self.fleets[0]._tag_index(name)
        fleet = self.fleets[int(self.assignment[i])]
        fleet.load_bits(name, list(bits))

    def pending_bits(self, name: str) -> int:
        """Bits still queued for a tag in its assigned cell."""
        i = self.fleets[0]._tag_index(name)
        return self.fleets[int(self.assignment[i])].pending_bits(name)

    # -- mobility + handoff -------------------------------------------

    def _mobility_tick(self) -> None:
        """Advance mobility one tick and re-run AP selection.

        Moved tags' link rows are refreshed *incrementally* on every
        fleet; handoffs drain undelivered bits from the old cell's
        fleet into the new one.
        """
        assert self.mobility is not None
        indices, new_xy = self.mobility(self.mobility_ticks, self.positions)
        self.mobility_ticks += 1
        if indices:
            for fleet in self.fleets:
                fleet.update_positions(indices, new_xy)
            for i, (x, y) in zip(indices, new_xy):
                self.positions[i, 0] = x
                self.positions[i, 1] = y
        new_assignment = np.asarray(
            self.policy.assign(self, self.assignment), dtype=np.intp
        )
        changed = np.flatnonzero(new_assignment != self.assignment)
        telemetry = self.telemetry
        for i in changed:
            name = self.names[i]
            old_fleet = self.fleets[int(self.assignment[i])]
            new_fleet = self.fleets[int(new_assignment[i])]
            queue = old_fleet._fsms[i].data_queue
            if queue:
                new_fleet._fsms[i].data_queue.extend(queue)
                queue.clear()
            if telemetry is not None:
                telemetry.on_handoff(
                    self.cells[int(self.assignment[i])].name,
                    self.cells[int(new_assignment[i])].name,
                )
        self.handoffs += len(changed)
        self.assignment = new_assignment
        if telemetry is not None:
            telemetry.on_mobility_tick(
                len(indices) * len(self.fleets) if indices else 0
            )

    # -- polling -------------------------------------------------------

    def _run_ap_round(
        self, ap_index: int, round_index: int, start_s: float
    ) -> FleetRoundStats:
        cell = self.cells[ap_index]
        fleet = self.fleets[ap_index]
        names = self.assigned_names(ap_index)
        results = fleet.poll_tags(names) if names else {}

        n_responded = 0
        bits_sent = 0
        bit_errors = 0
        for name, result in results.items():
            if name in result.per_tag_sent:
                n_responded += 1
                sent = result.per_tag_sent[name]
                received = result.raw_bits[: len(sent)]
                bits_sent += len(sent)
                bit_errors += sum(
                    1 for s, r in zip(sent, received) if s != r
                )

        contention = self._contention[ap_index]
        sifs = fleet.config.band.sifs_s
        telemetry = self.telemetry
        if contention is not None:
            # A wait is a "stall" when it exceeds the contention-free
            # minimum (one DIFS): some station's backoff or busy
            # channel actually delayed the query.
            difs_s = contention.params.difs_s
            access_s = 0
            for _ in names:
                delay_s = contention.sample_access_delay_s()
                access_s += delay_s
                if telemetry is not None:
                    telemetry.on_channel_access(
                        cell.name, delay_s, stalled=delay_s > difs_s
                    )
        else:
            difs = sifs + 2 * 9e-6
            per_query_s = difs + 7.5 * 9e-6
            access_s = per_query_s * len(names)
            if telemetry is not None:
                for _ in names:
                    telemetry.on_channel_access(
                        cell.name, per_query_s, stalled=False
                    )
        airtime_s = fleet._builder.peek_airtime_s() if names else 0.0
        duration_s = access_s + len(names) * (
            airtime_s + sifs + block_ack_airtime_s()
        )
        stats = FleetRoundStats(
            ap=cell.name,
            round_index=round_index,
            start_s=start_s,
            duration_s=duration_s,
            n_queries=len(names),
            n_responded=n_responded,
            bits_sent=bits_sent,
            bit_errors=bit_errors,
        )
        if telemetry is not None:
            telemetry.on_fleet_round(stats)
        return stats

    def run_rounds(self, n_rounds: int) -> list[FleetRoundStats]:
        """Run ``n_rounds`` polling rounds on every cell, event-driven.

        Each AP's round ``r+1`` is scheduled at the simulated end of
        its round ``r`` (contention-dependent, so cells drift apart
        naturally); mobility ticks fire every ``mobility_dt_s`` while
        any cell still has rounds left.  Returns round stats in event
        completion order.
        """
        if n_rounds < 1:
            raise ValueError("need at least one round")
        loop = EventLoop()
        results: list[FleetRoundStats] = []
        remaining = [n_rounds] * len(self.cells)

        def run_round(ap_index: int, round_index: int) -> None:
            stats = self._run_ap_round(ap_index, round_index, loop.now_s)
            results.append(stats)
            remaining[ap_index] -= 1
            if remaining[ap_index] > 0:
                loop.schedule(
                    stats.duration_s,
                    lambda: run_round(ap_index, round_index + 1),
                )

        for ap_index in range(len(self.cells)):
            loop.schedule(0.0, lambda a=ap_index: run_round(a, 0))

        if self.mobility is not None:

            def tick() -> None:
                if not any(r > 0 for r in remaining):
                    return
                self._mobility_tick()
                loop.schedule(self.mobility_dt_s, tick)

            loop.schedule(self.mobility_dt_s, tick)
        loop.run_all()
        return results
