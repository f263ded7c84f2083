"""The tag's control finite-state machine.

Ties together the front end (envelope detector + comparator), the timing
model (oscillator drift) and the antenna design (reflection states) into
the behavioural loop of a WiTAG tag:

    IDLE -> (energy above sensitivity) -> DETECTING
    DETECTING -> (trigger pattern matched) -> SYNCED
    SYNCED: toggle the antenna per scheduled bit at each subframe boundary
    SYNCED -> (A-MPDU ends) -> IDLE

The FSM's product for each observed query is a :class:`TagTransmission`:
the reflection state the antenna actually held during each subframe, as
a row of integer codes into :data:`repro.phy.channel.STATE_CODES`,
including the consequences of missed triggers, plus whether each toggle
landed in its guard window.  The end-to-end system stacks these rows
into the code matrix the PHY error model decodes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs.telemetry import Telemetry

from ..phy.channel import STATE_CODES
from ..seeding import component_rng
from .antenna import TagDesign, phase_flip_design
from .envelope_detector import TriggerDetector
from .oscillator import Oscillator, witag_crystal_50khz
from .timing import SUBFRAME_GRID_S, TimingModel


class TagPhase(enum.Enum):
    """FSM phases."""

    IDLE = "idle"
    DETECTING = "detecting"
    SYNCED = "synced"


@dataclass(frozen=True)
class QueryObservation:
    """What the tag can observe about an on-air query A-MPDU.

    Attributes:
        n_subframes: total subframes (trigger + payload).
        n_trigger_subframes: leading subframes carrying the trigger pattern.
        subframe_s: true on-air duration of one subframe.
        rx_power_dbm: signal power at the tag's antenna.
        temperature_c: ambient temperature during the query.
    """

    n_subframes: int
    n_trigger_subframes: int
    subframe_s: float
    rx_power_dbm: float
    temperature_c: float = 25.0

    def __post_init__(self) -> None:
        if self.n_subframes < 1:
            raise ValueError("a query needs at least one subframe")
        if not 0 <= self.n_trigger_subframes < self.n_subframes:
            raise ValueError(
                "trigger subframes must leave room for payload subframes"
            )
        if self.subframe_s <= 0:
            raise ValueError("subframe duration must be positive")

    @property
    def n_payload_subframes(self) -> int:
        """Subframes available for tag bits."""
        return self.n_subframes - self.n_trigger_subframes


@dataclass(frozen=True, eq=False)
class TagTransmission:
    """The tag's actual behaviour during one query.

    Attributes:
        detected: whether the trigger was recognised at all.
        codes: read-only ``int8`` code of the antenna state held
            during each subframe (length ``n_subframes``), indexing
            :data:`repro.phy.channel.STATE_CODES`; all-idle if the
            trigger was missed.
        toggles_aligned: boolean array, per loaded bit, of whether its
            state toggle landed inside its guard window.
        bits_loaded: the data bits the FSM intended to transmit.
    """

    detected: bool
    codes: np.ndarray
    toggles_aligned: np.ndarray
    bits_loaded: tuple[int, ...]


@dataclass
class TagStateMachine:
    """Behavioural model of a complete WiTAG tag.

    Attributes:
        design: antenna design (phase-flip by default, per paper §5.2).
        detector: trigger detection front end.
        oscillator: local clock.
        data_queue: bits waiting to be transmitted, consumed FIFO.
        rng: randomness for detection/timing draws.
        telemetry: optional :class:`repro.obs.Telemetry`; counts trigger
            outcomes, consumed bits and toggle alignment.
    """

    design: TagDesign = field(default_factory=phase_flip_design)
    detector: TriggerDetector = field(default_factory=TriggerDetector)
    oscillator: Oscillator = field(default_factory=witag_crystal_50khz)
    data_queue: list[int] = field(default_factory=list)
    rng: np.random.Generator = field(
        default_factory=lambda: component_rng("tag")
    )
    phase: TagPhase = TagPhase.IDLE
    telemetry: "Telemetry | None" = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        # The last observation process_query() saw, with the design,
        # detector and oscillator it saw it through, and what that fixes
        # (see _observe()).
        self._observed: tuple | None = None
        self._invariants: tuple = ()
        # Tables derived from designs and observations, shared by every
        # FSM handed the same dict (a fleet shares one across its tags):
        # per design and query shape, the subframe rows; per oscillator
        # and observation, the alignment draw parameters (mu, sigma,
        # guard) by snapped period estimate.
        self._tables: dict = {}

    def load_bits(self, bits: list[int]) -> None:
        """Queue data bits for transmission (e.g. a framed sensor reading)."""
        bits = list(bits)
        if bits.count(0) + bits.count(1) != len(bits):
            bad = next(bit for bit in bits if bit not in (0, 1))
            raise ValueError(f"bits must be 0/1, got {bad}")
        self.data_queue.extend(bits)

    @property
    def pending_bits(self) -> int:
        """Number of bits still queued."""
        return len(self.data_queue)

    def process_query(self, query: QueryObservation) -> TagTransmission:
        """Run the FSM over one query A-MPDU.

        Consumes up to ``query.n_payload_subframes`` queued bits.  If the
        trigger is missed, no bits are consumed and the tag idles through
        the frame (all subframes decode; the reader sees all-ones where it
        expected data and the session layer detects the bad frame).

        A detected query draws its normals in one
        ``rng.standard_normal(1 + n_bits)`` call: element 0 is the
        period estimate's, the rest are the per-bit alignment draws
        ``mu + sigma * z``.  numpy draws ``normal(loc, scale)`` as
        ``loc + scale * standard_normal()``, element by element from
        the same stream, so this equals one scalar ``rng.normal`` for
        the estimate and one per bit.  The estimate only picks which
        multiple of the subframe grid the tag counts, so the
        ``(mu, sigma)`` vectors come from a table keyed by that
        multiple; everything else an observation fixes is derived once
        and kept while the observations repeat.
        """
        key = (query, self.design, self.detector, self.oscillator)
        if key != self._observed:
            self._observe(key)
        p_detect, jitter_s, rows, alignment = self._invariants
        n_payload, prefix, by_bit, idle, idle_row = rows
        rng = self.rng
        self.phase = TagPhase.DETECTING
        if not rng.random() < p_detect:
            self.phase = TagPhase.IDLE
            if self.telemetry is not None:
                self.telemetry.on_trigger(False)
            return TagTransmission(
                detected=False,
                codes=idle_row,
                toggles_aligned=_NO_TOGGLES,
                bits_loaded=(),
            )
        self.phase = TagPhase.SYNCED
        queue = self.data_queue
        n_bits = min(n_payload, len(queue))
        z = rng.standard_normal(1 + n_bits)
        period_estimate = query.subframe_s + jitter_s * z.item(0)
        bits = queue[:n_bits]
        del queue[:n_bits]

        if n_bits:
            step = round(period_estimate / SUBFRAME_GRID_S)
            entry = alignment.get(step)
            if entry is None:
                timing = TimingModel(
                    oscillator=self.oscillator,
                    subframe_s=query.subframe_s,
                    period_estimate_s=period_estimate,
                    temperature_c=query.temperature_c,
                )
                mu, sigma = timing.misalignment_params(n_payload)
                entry = alignment[step] = (mu, sigma, timing.guard_s)
            mu, sigma, guard = entry
            aligned = np.abs(mu[:n_bits] + sigma[:n_bits] * z[1:]) <= guard
        else:
            aligned = _NO_TOGGLES
        # Bit b goes out in state_for_bit(b): translate the 0/1 bytes.
        row = prefix + bytes(bits).translate(by_bit) + idle * (
            n_payload - n_bits
        )
        self.phase = TagPhase.IDLE
        if self.telemetry is not None:
            self.telemetry.on_trigger(True)
            self.telemetry.on_tag_bits(n_bits, int(np.count_nonzero(aligned)))
        return TagTransmission(
            detected=True,
            codes=np.frombuffer(row, dtype=np.int8),
            toggles_aligned=aligned,
            bits_loaded=tuple(bits),
        )

    def _observe(self, key: tuple) -> None:
        """Derive what an observation fixes for :meth:`process_query`.

        ``key`` is the observation with the design, detector and
        oscillator it was seen through.  Kept on the FSM: the trigger
        detection probability and the period-estimate jitter.  Looked up
        in (or added to) the shared tables: the payload size, the
        trigger prefix, the bit-to-code translation, the idle code and
        the all-idle row of this design and query shape, and this
        observation's alignment table.
        """
        query, design, detector, oscillator = key
        tables = self._tables
        n_payload = query.n_payload_subframes
        shape = ("rows", design, query.n_subframes, query.n_trigger_subframes)
        rows = tables.get(shape)
        if rows is None:
            idle = bytes((STATE_CODES.index(design.state_for_bit_one),))
            zero = STATE_CODES.index(design.state_for_bit_zero)
            rows = tables[shape] = (
                n_payload,
                idle * query.n_trigger_subframes,
                bytes.maketrans(b"\x00\x01", bytes((zero, idle[0]))),
                idle,
                np.frombuffer(idle * query.n_subframes, dtype=np.int8),
            )
        p_detect = detector.query_detection_probability(query.rx_power_dbm)
        self._invariants = (
            p_detect,
            # Never drawn below sensitivity, where it is undefined.
            detector.period_estimate_jitter_s(query.rx_power_dbm)
            if p_detect > 0.0
            else 0.0,
            rows,
            tables.setdefault(
                (
                    "alignment",
                    oscillator,
                    query.subframe_s,
                    query.temperature_c,
                    n_payload,
                ),
                {},
            ),
        )
        self._observed = key


#: The alignment flags of a query that loaded no bits.
_NO_TOGGLES = np.zeros(0, dtype=bool)
_NO_TOGGLES.flags.writeable = False
