"""The end-to-end WiTAG system simulator.

Wires every substrate together into the paper's Figure 2 loop:

1. the **client** builds a query A-MPDU (``repro.core.query``) and contends
   for the channel (``repro.mac.csma``);
2. the **tag** detects the trigger, synchronises and toggles its antenna
   per queued data bit (``repro.tag.state_machine``);
3. the **channel + AP receiver** decide each subframe's fate
   (``repro.phy.error_model``), including the consequences of tag timing
   misalignment (a toggle that slips out of its window corrupts a
   neighbouring subframe too);
4. the **AP** — which contains zero WiTAG-specific code — records
   successes on a standard block-ACK scoreboard and answers with a block
   ACK (``repro.mac.block_ack``);
5. the **reader** on the client recovers tag bits from the bitmap
   (``repro.core.decoder``).

Every query cycle runs through one engine,
:meth:`WiTagSystem.run_queries_batch`, which decodes a chunk of cycles as
one ``(n_queries, n_subframes)`` computation.  :meth:`WiTagSystem.run_query`
is a chunk of one for callers that act between queries (ARQ, rate
control, the pcap exporter); the session layer (``repro.core.session``)
feeds it whole chunks for minute-long BER/throughput experiments.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs.telemetry import Telemetry

from ..mac.addresses import MacAddress
from ..mac.block_ack import BlockAck, BlockAckScoreboard
from ..mac.csma import ContentionModel
from ..phy.channel import STATE_CODES
from ..phy.error_model import FadingBatch, LinkErrorModel
from ..phy.fading import CorrelatedFadingChannel
from ..seeding import component_rng
from ..tag.state_machine import QueryObservation, TagStateMachine
from .config import WiTagConfig
from .query import QueryBuilder, QueryFrame
from .throughput import block_ack_airtime_s

Bits = list[int]

DEFAULT_CLIENT = MacAddress.parse("02:57:49:54:41:47")  # 'WITAG'
DEFAULT_AP = MacAddress.parse("02:41:50:00:00:01")


@dataclass(frozen=True)
class QueryResult:
    """Everything observable about one query cycle.

    Attributes:
        query: the transmitted query frame.
        block_ack: the AP's response.
        detected: whether the tag recognised the trigger.
        sent_bits: bits the tag attempted to transmit this cycle.
        received_bits: raw bits the reader extracted for those positions.
        cycle_s: wall-clock duration of the cycle (access + PPDU + SIFS +
            block ACK).
        rx_power_at_tag_dbm: query signal power at the tag.
    """

    query: QueryFrame
    block_ack: BlockAck
    detected: bool
    sent_bits: tuple[int, ...]
    received_bits: tuple[int, ...]
    cycle_s: float
    rx_power_at_tag_dbm: float

    @property
    def bit_errors(self) -> int:
        """Hamming distance between sent and received bits."""
        return sum(
            1 for a, b in zip(self.sent_bits, self.received_bits) if a != b
        )

    @property
    def n_bits(self) -> int:
        return len(self.sent_bits)


@dataclass
class WiTagSystem:
    """A complete client/tag/AP deployment.

    Attributes:
        config: system configuration.
        error_model: channel + receiver decode model (carries geometry).
        tag: the tag's behavioural model.
        contention: optional CSMA contention model (idle channel when
            omitted — access time is DIFS + mean backoff).
        temperature_c: ambient temperature seen by the tag's oscillator.
        client / ap: MAC addresses used on the air.
        fading_channel: optional temporally correlated fading process
            (:class:`repro.phy.fading.CorrelatedFadingChannel`); when set,
            each query cycle advances it by the cycle duration instead of
            drawing independent fading per query.
        rng: randomness for the timing-misalignment collateral draws.
        telemetry: optional :class:`repro.obs.Telemetry`.  Usually wired
            via :meth:`repro.obs.Telemetry.attach` (which also hooks the
            error model, tag FSM and scoreboard); passing one at
            construction attaches it for you.  When attached, the query
            cycle's stages are timed as spans (``core.query``,
            ``tag.state_machine``, ``phy.error_model``,
            ``mac.block_ack``, and ``obs.on_query`` for the per-query
            telemetry hook itself).  ``None`` (the default) costs one
            ``is None`` check per hook site.
    """

    config: WiTagConfig
    error_model: LinkErrorModel
    tag: TagStateMachine = field(default_factory=TagStateMachine)
    contention: ContentionModel | None = None
    temperature_c: float = 25.0
    client: MacAddress = DEFAULT_CLIENT
    ap: MacAddress = DEFAULT_AP
    fading_channel: CorrelatedFadingChannel | None = None
    rng: np.random.Generator = field(
        default_factory=lambda: component_rng("system")
    )
    telemetry: "Telemetry | None" = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self.builder = QueryBuilder(self.config, self.client, self.ap)
        self._scoreboard = BlockAckScoreboard()
        self._last_cycle_s = 0.0
        wavelength = self.config.band.wavelength_m
        loss_db = self.error_model.channel.tx_tag_loss.path_loss_db(
            self.error_model.channel.geometry.tx_tag_m, wavelength
        )
        self._rx_at_tag_dbm = self.error_model.tx_power_dbm - loss_db
        if self.telemetry is not None:
            self.telemetry.attach(self)

    @property
    def rx_power_at_tag_dbm(self) -> float:
        """Query signal power at the tag's antenna."""
        return self._rx_at_tag_dbm

    def load_tag_bits(self, bits: Bits) -> None:
        """Queue data bits on the tag."""
        self.tag.load_bits(bits)

    def _access_delay_s(self) -> float:
        if self.contention is not None:
            return self.contention.sample_access_delay_s()
        sifs = self.config.band.sifs_s
        difs = sifs + 2 * 9e-6
        return difs + 7.5 * 9e-6  # mean CWmin/2 backoff on an idle channel

    def draw_cycle(self) -> tuple[QueryFrame, float]:
        """Build the next query frame and draw its access delay.

        The engine's per-query prologue.  The caller decodes the frames
        it collects with :meth:`run_queries_batch`.
        """
        if self.telemetry is None:
            frame = self.builder.build()
        else:
            with self.telemetry.spans.span("core.query"):
                frame = self.builder.build()
        return frame, self._access_delay_s()

    def run_query(self) -> QueryResult:
        """Execute one full query cycle (paper Figure 2, steps 1 and 2).

        A chunk of one: :meth:`draw_cycle`, then
        :meth:`run_queries_batch`.
        """
        frame, delay = self.draw_cycle()
        return self.run_queries_batch([frame], [delay])[0]

    def run_queries_batch(
        self,
        frames: Sequence[QueryFrame],
        access_delays_s: Sequence[float],
        *,
        load_bits: Callable[[], None] | None = None,
    ) -> list[QueryResult]:
        """Decode a chunk of prebuilt query cycles as one 2-D computation.

        ``frames[q]`` and ``access_delays_s[q]`` are query ``q``'s frame
        and access delay, built and drawn in order by
        :meth:`draw_cycle` (one builder, so one frame shape per chunk).
        The rest of each cycle runs here: a cheap per-query prologue
        (fading, then the tag FSM, whose ``int8`` row of state codes
        goes into one ``(count, n_subframes)`` code matrix, with the
        misalignment collateral marked by array operations) and then
        all PHY decode work on that matrix through
        :meth:`LinkErrorModel.subframe_outcomes_batch2d`; block-ACK
        bitmaps fall out of one ``np.packbits``.

        Determinism contract: each simulation component owns its own
        generator, and this method consumes each component's stream in
        exactly the per-query order of one cycle after another — so for
        a given seed the results are bitwise identical for any chunking
        of the queries, and equal to the per-subframe reference loop the
        tests keep (``tests/oracles/link.py``).

        Args:
            load_bits: optional callback invoked once per query before
                the tag processes it — the session layer uses this to
                top up the tag's data queue from the session generator
                in query order.

        Returns:
            One :class:`QueryResult` per frame, in order.
        """
        count = len(frames)
        if count != len(access_delays_s):
            raise ValueError(
                f"{count} frames but {len(access_delays_s)} access delays"
            )
        if count == 0:
            return []
        sifs = self.config.band.sifs_s
        ba_airtime_s = block_ack_airtime_s()
        cycles_s = [
            delay + frame.airtime_s + sifs + ba_airtime_s
            for frame, delay in zip(frames, access_delays_s)
        ]

        # Fading first: the channel / fading generators are consumed one
        # query cycle at a time, and nothing else shares their streams,
        # so the whole chunk can be drawn up front.
        if self.fading_channel is not None:
            # The correlated process advances by the previous cycle's
            # duration, which is fully determined by the access draw and
            # the frame airtime — both already known.
            dts = [self._last_cycle_s] + cycles_s[:-1]
            direct, tag_fade = self.fading_channel.sample_batch(dts)
            fading = FadingBatch(direct_gains=direct, tag_fadings=tag_fade)
        else:
            fading = self.error_model.sample_fading_batch(count)

        design = self.tag.design
        zero_code = STATE_CODES.index(design.state_for_bit_zero)
        first = frames[0]
        n_subframes = first.n_subframes
        # Every frame of a builder shares one schedule and shape, so one
        # observation serves the whole chunk.
        observation = QueryObservation(
            n_subframes=n_subframes,
            n_trigger_subframes=first.n_trigger_subframes,
            subframe_s=first.mean_subframe_s,
            rx_power_dbm=self._rx_at_tag_dbm,
            temperature_c=self.temperature_c,
        )
        codes = np.empty((count, n_subframes), dtype=np.int8)
        transmissions = []
        tel = self.telemetry
        if tel is not None:
            start = time.perf_counter()
        for q in range(count):
            if load_bits is not None:
                load_bits()
            transmission = self.tag.process_query(observation)
            transmissions.append(transmission)
            codes[q] = transmission.codes
            # Misalignment collateral: a misaligned zero-bit toggle
            # still corrupts (most of) its own subframe, and also
            # spills into one neighbour, chosen uniformly (the
            # reader cannot know the drift's sign): one uniform per
            # spilling bit, in bit order.
            aligned = transmission.toggles_aligned
            if aligned.all():
                continue
            zero_bits = np.array(transmission.bits_loaded) == 0
            spills = np.flatnonzero(zero_bits & ~aligned)
            neighbours = (
                observation.n_trigger_subframes
                + spills
                + np.where(self.rng.random(spills.size) < 0.5, 1, -1)
            )
            in_frame = (neighbours >= 0) & (neighbours < n_subframes)
            codes[q, neighbours[in_frame]] = zero_code
        if tel is not None:
            tel.spans.add(
                "tag.state_machine", time.perf_counter() - start, count
            )

        # MPDU sizes are fixed by the builder's byte plan, so one row
        # serves every query in the chunk.
        mpdu_bits = [8 * len(mpdu) for mpdu in first.mpdus]
        outcomes = self.error_model.subframe_outcomes_batch2d(
            mpdu_bits, design.state_for_bit_one, codes, fading
        )

        results: list[QueryResult] = []
        if tel is not None:
            start = time.perf_counter()
        outcome_matrix = np.ascontiguousarray(outcomes)
        packed = np.packbits(outcome_matrix, axis=1, bitorder="little")
        # Every block ACK below is built with ``ssn == frame.ssn``,
        # so the reader's bitmap offset is zero and
        # ``raw_bits_from_block_ack`` reduces to the outcome row
        # past the trigger subframes — slice it directly instead of
        # re-extracting 64 bits from the bitmap per query.
        raw_rows = outcome_matrix.astype(np.uint8).tolist()
        for q, frame in enumerate(frames):
            bitmap = int.from_bytes(packed[q].tobytes(), "little")
            block_ack = BlockAck(
                receiver=self.client,
                transmitter=self.ap,
                ssn=frame.ssn,
                bitmap=bitmap,
            )
            raw = raw_rows[q][frame.n_trigger_subframes :]
            transmission = transmissions[q]
            n_sent = len(transmission.bits_loaded)
            result = QueryResult(
                query=frame,
                block_ack=block_ack,
                detected=transmission.detected,
                sent_bits=transmission.bits_loaded,
                received_bits=tuple(raw[:n_sent]),
                cycle_s=cycles_s[q],
                rx_power_at_tag_dbm=self._rx_at_tag_dbm,
            )
            results.append(result)

        # Leave the mutable MAC state as one cycle after another would:
        # the scoreboard holds the last query's outcomes, and the next
        # fading advance uses the last cycle duration.  The trailing
        # replay fires the scoreboard's own telemetry hooks for the last
        # query; the bulk hook accounts for the count-1 resets and the
        # records of the earlier queries the chunk elides, so scoreboard
        # counters match a per-query scoreboard exactly.
        if tel is not None:
            total_true = int(outcome_matrix.sum())
            last_true = int(outcome_matrix[-1].sum())
            tel.on_scoreboard_bulk(
                records=total_true - last_true, resets=count - 1
            )
        last_frame = frames[-1]
        self._scoreboard.reset(last_frame.ssn)
        for index, ok in enumerate(outcomes[-1]):
            if ok:
                self._scoreboard.record((last_frame.ssn + index) % 4096)
        if tel is not None:
            tel.spans.add("mac.block_ack", time.perf_counter() - start, count)
            # The per-query hook builds the trace records: timed apart
            # from the MAC work above, in query order.
            with tel.spans.span("obs.on_query", count):
                row_true = outcome_matrix.sum(axis=1)
                for q, result in enumerate(results):
                    tel.on_query(
                        result,
                        n_failed=int(n_subframes - row_true[q]),
                        codes=codes[q],
                        fading=fading.sample(q),
                    )
        self._last_cycle_s = results[-1].cycle_s
        return results
