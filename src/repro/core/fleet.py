"""Struct-of-arrays fleet engine: vectorized thousand-tag polling.

A reader cell holds several tags that hear the same queries.  The
paper evaluates a single tag, but its trigger design (§7: "a specific,
known bit pattern in the payload of the first few subframes") extends
naturally to addressing — different known patterns select different
tags:

* an **addressed query** carries one tag's trigger pattern; only that
  tag synchronises and modulates, the others stay idle (their
  comparators never match), so the block ACK carries exactly one
  tag's bits;
* a **broadcast query** (no address) wakes *every* tag in range; each
  corrupts its own bit pattern and the AP sees the union of
  corruption — a collision that garbles everyone's data, which is why
  addressing (or round-robin polling) is required.

Corruption combining: a subframe fails if at least one responding
tag's perturbation defeats it.  Decode draws are made per tag against
that tag's own channel geometry and combined as independent events —
accurate when tag-to-tag coupling is negligible (tags are weak
scatterers).

The cell lives as parallel numpy arrays, not per-tag object graphs:

* per-tag link state lives in flat arrays — positions, rx power at the
  tag, LOS gains, tag-path gains, per-tag subcarrier rotations — not in
  per-link ``BackscatterChannel``/``LinkErrorModel`` objects;
* one shared :class:`~repro.phy.error_model.LinkErrorModel` decodes a
  whole polling round as a single ``(n_rows x n_subframes)`` pass
  through :meth:`subframe_outcomes_batch2d`, with a duck-typed
  :class:`_FleetChannelView` standing in for the channel so the
  existing broadcasting yields *per-row* channel vectors;
* per-tag generators ride along as arrays of ``np.random.Generator``
  and the batch decode draws row ``r`` from row ``r``'s own error
  stream (the ``rngs=`` parameter of the 2-D decode).

Draw-order contract: each tag owns three generators — channel
(construction phases + fading), error (CSI noise + outcome uniforms)
and tag FSM (detection + timing) — derived from the fleet seed via
``child_sequence(seed, tag_index).spawn(3)``.  Per query:

1. **FSM phase** — every candidate tag processes the query (detector
   uniform, period-estimate normal, per-bit alignment normals from
   *that tag's* FSM rng), in index order for a broadcast; an addressed
   query touches only the named tag's rng.
2. **Fading phase** — one coherence-interval sample per responding
   link, in responder order.  When *no* tag responds, one sample is
   drawn from tag 0's channel for the benign-channel decode.
3. **Decode phase** — each responding tag's full per-subframe outcome
   row is drawn *before* combining (CSI normals plus one uniform per
   subframe, from that tag's error rng), so a failing tag never
   truncates another tag's stream.

Each phase touches disjoint generators per tag, so the fleet runs each
phase batched across the queries of a round (FSM for all queries, then
fadings in row order, then the decode matrix) without changing any
single generator's stream, and any ``batch_tags`` chunking gives the
same bits.  The tests keep a per-tag object-graph cell that decodes
each query and each responder on its own (``tests/oracles/link.py``);
the fleet must equal it bit for bit.

Mobility: :meth:`TagFleet.update_positions` refreshes *only the moved
rows* — tag-path amplitude from the bistatic radar equation at the new
distances, LOS phase advanced by the path-length change (``-2 pi
delta / lambda``, path-continuous rather than redrawn), per-row
subcarrier rotation from the new excess delay, and rx power at the
tag.  The direct client->AP path and all fading sigmas it sets are
untouched, and unmoved rows keep their cached state bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from ..mac.block_ack import BlockAck, BlockAckScoreboard
from ..phy.channel import (
    STATE_CODES,
    BackscatterChannel,
    ChannelGeometry,
    PathLossModel,
    TagAntenna,
)
from ..phy.constants import SPEED_OF_LIGHT_M_S, Band
from ..phy.error_model import FadingBatch, LinkErrorModel
from ..phy.mcs import Mcs, highest_reliable_mcs
from ..phy.noise import ReceiverNoise
from ..phy.ofdm import data_subcarrier_offsets_hz, delay_phase_rotation
from ..seeding import child_sequence
from ..tag.antenna import phase_flip_design
from ..tag.envelope_detector import TriggerDetector
from ..tag.oscillator import witag_crystal_50khz
from ..tag.state_machine import QueryObservation, TagStateMachine
from .config import WiTagConfig
from .query import QueryBuilder
from .system import DEFAULT_AP, DEFAULT_CLIENT, Bits


@dataclass(frozen=True)
class MultiTagQueryResult:
    """Outcome of one query in a multi-tag cell.

    Attributes:
        address: the tag the query addressed (None = broadcast).
        block_ack: the AP's bitmap.
        raw_bits: payload-subframe bits as the reader sees them.
        responded: names of tags that detected and modulated.
        per_tag_sent: bits each responding tag attempted.
    """

    address: str | None
    block_ack: BlockAck
    raw_bits: tuple[int, ...]
    responded: tuple[str, ...]
    per_tag_sent: dict[str, tuple[int, ...]]


def _tag_generators(
    seed: int, index: int
) -> tuple[np.random.Generator, np.random.Generator, np.random.Generator]:
    """The (channel, error, tag-FSM) generators of one tag.

    Derived via ``child_sequence(seed, index).spawn(3)`` so a tag's
    streams depend only on the fleet seed and its own index — adding
    or removing other tags never perturbs them.
    """
    channel_seq, error_seq, tag_seq = child_sequence(seed, index).spawn(3)
    return (
        np.random.default_rng(channel_seq),
        np.random.default_rng(error_seq),
        np.random.default_rng(tag_seq),
    )


class _FleetChannelView:
    """Duck-typed per-row channel for the shared decode model.

    :meth:`LinkErrorModel.subframe_effective_sinrs_batch2d` only calls
    ``channel.channel_vector_batch``; this view reproduces
    :meth:`BackscatterChannel.channel_vector_batch` with *array-valued*
    tag-path gain and rotation, so the same broadcasting expression
    yields row ``r``'s channel from row ``r``'s tag — bitwise equal to
    that tag's own :class:`BackscatterChannel` (the elementwise
    operations keep its association order).
    """

    __slots__ = ("_h_tag_los", "_tag_rotation")

    def __init__(
        self, h_tag_los: np.ndarray, tag_rotation: np.ndarray
    ) -> None:
        self._h_tag_los = h_tag_los
        self._tag_rotation = tag_rotation

    def channel_vector_batch(
        self,
        state,
        direct_gains: np.ndarray,
        tag_fadings: np.ndarray,
    ) -> np.ndarray:
        gains = np.asarray(direct_gains, dtype=complex)
        fadings = np.asarray(tag_fadings, dtype=complex)
        gamma = state.reflection_coefficient
        tag_term = (gamma * fadings) * self._h_tag_los
        return gains[:, None] + tag_term[:, None] * self._tag_rotation


class TagFleet:
    """A reader cell's tags as struct-of-arrays link state.

    Build with :meth:`build`; poll with :meth:`run_query`,
    :meth:`poll_round` or :meth:`poll_tags`.

    Known difference from the single-tag engine: the fleet applies no
    misalignment collateral.  :meth:`WiTagSystem.run_queries_batch`
    lets a misaligned zero-bit toggle also corrupt one random
    neighbour subframe; the fleet decodes each responder's state codes
    as the FSM emitted them and never reads ``toggles_aligned``, so a
    fleet tag with drifting timing loses fewer bits than the same tag
    in a session.  Adding the spill here would change every fleet
    result (and the warehouse digests), so it waits for a deliberate
    re-pin.

    Attributes:
        names: tag addresses, in index order.
        positions: ``(n_tags, 2)`` tag coordinates in metres.
        rx_power_dbm: query power at each tag's antenna.
        config: shared reader configuration (one reader per cell).
        batch_tags: decode chunk size in rows; any value yields
            bitwise-identical results (per-row generators make chunk
            boundaries draw-neutral), it only bounds peak memory.
        invalidated_rows: cumulative count of per-tag cache rows
            refreshed by :meth:`update_positions` (observability for
            the incremental-invalidation contract).
        telemetry: optional :class:`repro.obs.Telemetry`; attach via
            :meth:`Telemetry.attach_fleet` for per-query metrics and
            trace records.
    """

    def __init__(self, **state) -> None:
        # Built via TagFleet.build(); the keyword form keeps the
        # constructor honest about the one blessed entry point.
        self.__dict__.update(state)

    # -- construction --------------------------------------------------

    @classmethod
    def build(
        cls,
        positions: Iterable[tuple[float, float]],
        *,
        names: Sequence[str] | None = None,
        client_xy: tuple[float, float] = (0.0, 0.0),
        ap_xy: tuple[float, float] = (8.0, 0.0),
        seed: int = 0,
        tx_power_dbm: float = 15.0,
        mismatch_gain_db: float = 22.0,
        rician_k_db: float | None = 15.0,
        tag_rician_k_db: float | None = 5.0,
        band: Band = Band.GHZ_2_4,
        channel_width_mhz: int = 20,
        mcs: Mcs | None = None,
        temperature_c: float = 25.0,
        batch_tags: int = 256,
    ) -> "TagFleet":
        """Construct a fleet over a floorplan's tag positions.

        Per-tag channels are materialised through real
        :class:`BackscatterChannel` objects (the same construction math
        and random-phase draws as a single-tag system) and immediately
        harvested into arrays; only the per-tag generators survive as
        objects.

        Args:
            positions: ``(x, y)`` per tag, metres.
            names: tag addresses; defaults to ``tag0000``.. so sorted
                order equals index order.
            client_xy / ap_xy: reader endpoints (client transmits the
                query A-MPDUs, AP returns the block ACK).
            mcs: query MCS; auto-selected from the client->AP link SNR
                when omitted (paper §4.1's rate rule).
            batch_tags: decode chunk size (memory bound, not a result
                knob).
        """
        pos = np.asarray(list(positions), dtype=float)
        if pos.ndim != 2 or pos.shape[1] != 2 or not len(pos):
            raise ValueError(
                f"positions must be (n_tags, 2), got {pos.shape}"
            )
        n = len(pos)
        if names is None:
            names = tuple(f"tag{i:04d}" for i in range(n))
        else:
            names = tuple(names)
            if len(names) != n or len(set(names)) != n:
                raise ValueError(
                    f"need {n} distinct names, got {len(names)} "
                    f"({len(set(names))} distinct)"
                )
        if batch_tags < 1:
            raise ValueError(f"batch_tags must be >= 1, got {batch_tags}")

        wavelength = band.wavelength_m
        cx, cy = float(client_xy[0]), float(client_xy[1])
        ax, ay = float(ap_xy[0]), float(ap_xy[1])
        tx_rx_m = math.hypot(ax - cx, ay - cy)
        direct_loss = PathLossModel()
        tx_tag_loss = PathLossModel()
        tag_rx_loss = PathLossModel()
        antenna = TagAntenna()
        receiver = ReceiverNoise(bandwidth_hz=channel_width_mhz * 1e6)
        if mcs is None:
            link_snr_db = (
                tx_power_dbm
                - direct_loss.path_loss_db(tx_rx_m, wavelength)
                - receiver.noise_floor_dbm
            )
            mcs = highest_reliable_mcs(link_snr_db)
        from ..sim.scenario import _fit_tag_clock  # lazy: avoids cycle

        config = WiTagConfig(
            mcs=mcs,
            tag_clock_hz=_fit_tag_clock(mcs, channel_width_mhz, False),
            band=band,
            channel_width_mhz=channel_width_mhz,
            tx_power_dbm=tx_power_dbm,
        )

        design = phase_flip_design()
        detector = TriggerDetector()
        oscillator = witag_crystal_50khz()
        tables: dict = {}

        tx_tag_m = np.empty(n)
        tag_rx_m = np.empty(n)
        rx_power = np.empty(n)
        h_direct_los = np.empty(n, dtype=complex)
        h_tag_los = np.empty(n, dtype=complex)
        offsets_hz = data_subcarrier_offsets_hz(channel_width_mhz)
        tag_rotation = np.empty((n, offsets_hz.size), dtype=complex)
        channel_rngs: list[np.random.Generator] = []
        error_rngs: list[np.random.Generator] = []
        fsms: list[TagStateMachine] = []
        for i in range(n):
            d1 = math.hypot(pos[i, 0] - cx, pos[i, 1] - cy)
            d2 = math.hypot(ax - pos[i, 0], ay - pos[i, 1])
            channel_rng, error_rng, tag_rng = _tag_generators(seed, i)
            channel = BackscatterChannel(
                geometry=ChannelGeometry(
                    tx_rx_m=tx_rx_m, tx_tag_m=d1, tag_rx_m=d2
                ),
                band=band,
                direct_loss=direct_loss,
                tx_tag_loss=tx_tag_loss,
                tag_rx_loss=tag_rx_loss,
                antenna=antenna,
                rician_k_db=rician_k_db,
                tag_rician_k_db=tag_rician_k_db,
                channel_width_mhz=channel_width_mhz,
                rng=channel_rng,
            )
            tx_tag_m[i] = d1
            tag_rx_m[i] = d2
            rx_power[i] = tx_power_dbm - tx_tag_loss.path_loss_db(
                d1, wavelength
            )
            h_direct_los[i] = channel._h_direct_los
            h_tag_los[i] = channel._h_tag_los
            tag_rotation[i] = channel._tag_rotation
            channel_rngs.append(channel_rng)
            error_rngs.append(error_rng)
            fsm = TagStateMachine(
                design=design,
                detector=detector,
                oscillator=oscillator,
                rng=tag_rng,
            )
            fsm._tables = tables  # shared across the fleet
            fsms.append(fsm)

        # Fading constants (see BackscatterChannel.sample_*_fading).
        if rician_k_db is not None:
            k_lin = 10.0 ** (rician_k_db / 10.0)
            d_los_part = math.sqrt(k_lin / (k_lin + 1.0)) * h_direct_los
            # Python's abs(complex), not np.abs: the two hypot
            # implementations can disagree by 1 ulp, and the per-tag
            # channel's sigma must be reproduced bit for bit for the
            # fading draws (and telemetry digests) to match exactly.
            d_sigma = np.array(
                [abs(complex(h)) for h in h_direct_los]
            ) * math.sqrt(1.0 / (k_lin + 1.0) / 2.0)
        else:
            d_los_part = d_sigma = None
        if tag_rician_k_db is not None:
            k_lin = 10.0 ** (tag_rician_k_db / 10.0)
            t_los_part = math.sqrt(k_lin / (k_lin + 1.0))
            t_sigma = math.sqrt(1.0 / (k_lin + 1.0) / 2.0)
        else:
            t_los_part = t_sigma = None

        decoder = LinkErrorModel(
            channel=_FleetChannelView(h_tag_los, tag_rotation),
            mcs=mcs,
            tx_power_dbm=tx_power_dbm,
            receiver=receiver,
            mismatch_gain_db=mismatch_gain_db,
            # Never drawn from: every batch decode passes per-row rngs.
            rng=np.random.default_rng(child_sequence(seed, n)),
        )

        fleet = cls(
            names=names,
            positions=pos,
            config=config,
            telemetry=None,
            batch_tags=int(batch_tags),
            temperature_c=float(temperature_c),
            invalidated_rows=0,
            rx_power_dbm=rx_power,
            _index={name: i for i, name in enumerate(names)},
            _seed=int(seed),
            _client_xy=(cx, cy),
            _ap_xy=(ax, ay),
            _tx_rx_m=tx_rx_m,
            _tx_tag_m=tx_tag_m,
            _tag_rx_m=tag_rx_m,
            _tx_power_dbm=float(tx_power_dbm),
            _mismatch_gain_db=float(mismatch_gain_db),
            _rician_k_db=rician_k_db,
            _tag_rician_k_db=tag_rician_k_db,
            _band=band,
            _channel_width_mhz=int(channel_width_mhz),
            _wavelength=wavelength,
            _offsets_hz=offsets_hz,
            _direct_loss=direct_loss,
            _tx_tag_loss=tx_tag_loss,
            _tag_rx_loss=tag_rx_loss,
            _antenna=antenna,
            _receiver=receiver,
            _scatter_amp=(
                math.sqrt(
                    4.0
                    * math.pi
                    * antenna.radar_cross_section_m2(wavelength)
                )
                / wavelength
            ),
            _h_direct_los=h_direct_los,
            _h_tag_los=h_tag_los,
            _tag_rotation=tag_rotation,
            _d_los_part=d_los_part,
            _d_sigma=d_sigma,
            _t_los_part=t_los_part,
            _t_sigma=t_sigma,
            _channel_rngs=channel_rngs,
            _error_rngs=error_rngs,
            _fsms=fsms,
            _design=design,
            _decoder=decoder,
            _builder=QueryBuilder(config, client=DEFAULT_CLIENT, ap=DEFAULT_AP),
            _scoreboard=BlockAckScoreboard(),
        )
        return fleet

    # -- basic accessors ----------------------------------------------

    @property
    def n_tags(self) -> int:
        """Number of tags in the fleet."""
        return len(self.names)

    def load_bits(self, name: str, bits: Bits) -> None:
        """Queue bits on one tag.

        Raises:
            KeyError: for an unknown tag address.
        """
        self._fsms[self._tag_index(name)].load_bits(list(bits))

    def pending_bits(self, name: str) -> int:
        """Bits still queued on one tag."""
        return self._fsms[self._tag_index(name)].pending_bits

    def _tag_index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(
                f"unknown tag {name!r}; fleet has {len(self.names)} tags"
            ) from None

    # -- mobility ------------------------------------------------------

    def update_positions(
        self,
        indices: Sequence[int],
        new_positions: Iterable[tuple[float, float]],
    ) -> None:
        """Move tags and refresh only the moved rows' link state.

        Per moved tag: tag-path amplitude from the bistatic radar
        equation at the new leg lengths, LOS phase advanced by
        ``-2 pi * (path-length change) / lambda`` (path-continuous —
        a fresh build at the same position would draw a different
        random phase), subcarrier rotation from the new excess delay,
        and rx power at the tag.  Unmoved rows are untouched bit for
        bit; the direct client->AP path (and hence the direct-fading
        sigma) never changes.
        """
        cx, cy = self._client_xy
        ax, ay = self._ap_xy
        wavelength = self._wavelength
        moved = 0
        for i, (x, y) in zip(indices, new_positions):
            x, y = float(x), float(y)
            d1 = math.hypot(x - cx, y - cy)
            d2 = math.hypot(ax - x, ay - y)
            if d1 <= 0.0 or d2 <= 0.0:
                raise ValueError(
                    f"tag {i} may not sit exactly on the client or AP"
                )
            delta_path = (d1 + d2) - (
                float(self._tx_tag_m[i]) + float(self._tag_rx_m[i])
            )
            amp = (
                self._tx_tag_loss.amplitude_gain(d1, wavelength)
                * self._tag_rx_loss.amplitude_gain(d2, wavelength)
                * self._scatter_amp
            )
            old = complex(self._h_tag_los[i])
            phase = math.atan2(old.imag, old.real) - (
                2.0 * math.pi * delta_path / wavelength
            )
            self._h_tag_los[i] = amp * np.exp(1j * phase)
            excess_s = (d1 + d2 - self._tx_rx_m) / SPEED_OF_LIGHT_M_S
            self._tag_rotation[i] = delay_phase_rotation(
                self._offsets_hz, excess_s
            )
            self.rx_power_dbm[i] = (
                self._tx_power_dbm
                - self._tx_tag_loss.path_loss_db(d1, wavelength)
            )
            self._tx_tag_m[i] = d1
            self._tag_rx_m[i] = d2
            self.positions[i, 0] = x
            self.positions[i, 1] = y
            moved += 1
        self.invalidated_rows += moved

    # -- fading --------------------------------------------------------

    def _draw_fading(self, i: int) -> tuple[complex, complex]:
        """One coherence-interval sample from tag ``i``'s channel rng.

        Bitwise equal to ``sample_direct_fading()`` followed by
        ``sample_tag_fading()`` on a :class:`BackscatterChannel` built
        for that tag (same ``rng.normal`` calls in the same order).
        """
        rng = self._channel_rngs[i]
        if self._d_sigma is None:
            direct = complex(self._h_direct_los[i])
        else:
            sigma = float(self._d_sigma[i])
            scatter = complex(
                rng.normal(0.0, sigma), rng.normal(0.0, sigma)
            )
            direct = complex(self._d_los_part[i] + scatter)
        if self._t_sigma is None:
            tag = complex(1.0, 0.0)
        else:
            tag = complex(
                self._t_los_part + rng.normal(0.0, self._t_sigma),
                rng.normal(0.0, self._t_sigma),
            )
        return direct, tag

    # -- polling -------------------------------------------------------

    def run_query(self, address: str | None = None) -> MultiTagQueryResult:
        """One query cycle, addressed or broadcast (``None``).

        An addressed query carries the named tag's trigger pattern;
        only that tag responds.  A broadcast query wakes every tag
        whose detector fires — their corruption superimposes.
        """
        return self._run_queries([address])[0]

    def poll_round(self) -> dict[str, MultiTagQueryResult]:
        """One addressed query per tag, in sorted address order.

        The whole round — every query's decode — runs as one batched
        ``(n_rows x n_subframes)`` PHY pass (chunked by
        ``batch_tags``).
        """
        order = sorted(self.names)
        results = self._run_queries(order)
        return dict(zip(order, results))

    def poll_tags(
        self, names: Sequence[str]
    ) -> dict[str, MultiTagQueryResult]:
        """One addressed query per named tag, in the given order.

        The multi-AP network layer uses this to poll just the tags
        currently assigned to one reader cell.
        """
        results = self._run_queries(list(names))
        return dict(zip(names, results))

    def _run_queries(
        self, addresses: Sequence[str | None]
    ) -> list[MultiTagQueryResult]:
        """Run a batch of query cycles through one decode pass."""
        for address in addresses:
            if address is not None:
                self._tag_index(address)  # validate early
        if not addresses:
            return []

        frames = [self._builder.build() for _ in addresses]
        first = frames[0]
        k = first.n_subframes
        idle = self._design.state_for_bit_one

        # Phase 1 — tag FSMs, in query order then tag index order.
        responders_per_q: list[list[int]] = []
        transmissions_per_q: list[dict[int, object]] = []
        for address in addresses:
            indices: Iterable[int] = (
                range(self.n_tags)
                if address is None
                else (self._tag_index(address),)
            )
            responders: list[int] = []
            transmissions: dict[int, object] = {}
            for i in indices:
                observation = QueryObservation(
                    n_subframes=k,
                    n_trigger_subframes=first.n_trigger_subframes,
                    subframe_s=first.mean_subframe_s,
                    rx_power_dbm=float(self.rx_power_dbm[i]),
                    temperature_c=self.temperature_c,
                )
                transmission = self._fsms[i].process_query(observation)
                if transmission.detected and transmission.bits_loaded:
                    responders.append(i)
                    transmissions[i] = transmission
            responders_per_q.append(responders)
            transmissions_per_q.append(transmissions)

        # Row assembly: one decode row of state codes per (query,
        # responder); a query nobody answered decodes one benign idle
        # row through tag 0's link.
        row_tag: list[int] = []
        rows_per_q: list[int] = []
        code_rows: list[np.ndarray] = []
        idle_row = np.full(k, STATE_CODES.index(idle), dtype=np.int8)
        for q in range(len(frames)):
            responders = responders_per_q[q]
            if responders:
                for i in responders:
                    row_tag.append(i)
                    code_rows.append(transmissions_per_q[q][i].codes)
                rows_per_q.append(len(responders))
            else:
                row_tag.append(0)
                code_rows.append(idle_row)
                rows_per_q.append(1)
        n_rows = len(row_tag)
        codes = np.stack(code_rows)

        # Phase 2 — fading, one draw per row in row order.
        direct = np.empty(n_rows, dtype=complex)
        tag_fade = np.empty(n_rows, dtype=complex)
        for r, i in enumerate(row_tag):
            direct[r], tag_fade[r] = self._draw_fading(i)

        # Phase 3 — one batched decode, chunked by batch_tags (memory
        # only: per-row generators make chunk boundaries draw-neutral).
        mpdu_bits = [8 * len(mpdu) for mpdu in first.mpdus]
        outcomes = np.empty((n_rows, k), dtype=bool)
        tag_indices = np.asarray(row_tag, dtype=np.intp)
        for start in range(0, n_rows, self.batch_tags):
            stop = min(start + self.batch_tags, n_rows)
            sel = tag_indices[start:stop]
            self._decoder.channel = _FleetChannelView(
                self._h_tag_los[sel], self._tag_rotation[sel]
            )
            outcomes[start:stop] = self._decoder.subframe_outcomes_batch2d(
                mpdu_bits,
                idle,
                codes[start:stop],
                FadingBatch(
                    direct_gains=direct[start:stop],
                    tag_fadings=tag_fade[start:stop],
                ),
                rngs=[self._error_rngs[i] for i in sel],
            )

        # Combine per query: a subframe survives only if every
        # responder's row survived.
        n_q = len(frames)
        survived = np.empty((n_q, k), dtype=bool)
        r = 0
        for q, count in enumerate(rows_per_q):
            if count == 1:
                survived[q] = outcomes[r]
            else:
                survived[q] = outcomes[r : r + count].all(axis=0)
            r += count

        # Results: bitmap via one packbits (ssn == frame.ssn, so the
        # raw bits reduce to the outcome row past the trigger
        # subframes, as in WiTagSystem.run_queries_batch).
        packed = np.packbits(survived, axis=1, bitorder="little")
        raw_rows = survived.astype(np.uint8).tolist()
        results: list[MultiTagQueryResult] = []
        for q, (frame, address) in enumerate(zip(frames, addresses)):
            bitmap = int.from_bytes(packed[q].tobytes(), "little")
            block_ack = BlockAck(
                receiver=DEFAULT_CLIENT,
                transmitter=DEFAULT_AP,
                ssn=frame.ssn,
                bitmap=bitmap,
            )
            responders = responders_per_q[q]
            transmissions = transmissions_per_q[q]
            results.append(
                MultiTagQueryResult(
                    address=address,
                    block_ack=block_ack,
                    raw_bits=tuple(
                        raw_rows[q][frame.n_trigger_subframes :]
                    ),
                    responded=tuple(self.names[i] for i in responders),
                    per_tag_sent={
                        self.names[i]: transmissions[i].bits_loaded
                        for i in responders
                    },
                )
            )

        telemetry = self.telemetry
        if telemetry is not None:
            # Per-query hook in query order, slicing the decode rows
            # back out of the batch arrays.
            cycle_s = self._builder.peek_airtime_s()
            row = 0
            for result, count in zip(results, rows_per_q):
                telemetry.on_cell_query(
                    result,
                    n_subframes=k,
                    code_rows=codes[row : row + count],
                    fading_rows=[
                        (complex(direct[r]), complex(tag_fade[r]))
                        for r in range(row, row + count)
                    ],
                    cycle_s=cycle_s,
                )
                row += count
            # The replay below touches the real scoreboard only for
            # the last query; account for the elided ones.
            telemetry.on_scoreboard_bulk(
                records=int(survived[:-1].sum()),
                resets=len(frames) - 1,
            )

        # Leave the mutable MAC state as one query after another would:
        # the scoreboard holds the last query's outcomes.
        self._scoreboard.reset(frames[-1].ssn)
        for index in np.flatnonzero(survived[-1]):
            self._scoreboard.record((frames[-1].ssn + int(index)) % 4096)
        return results
