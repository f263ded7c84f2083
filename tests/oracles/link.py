"""The query loop the engines replaced: one query, tag bit and draw at a time.

:meth:`repro.core.system.WiTagSystem.run_queries_batch` decodes a chunk
of query cycles as one ``(n_queries, n_subframes)`` computation, and
:class:`repro.core.fleet.TagFleet` decodes a polling round the same
way.  This module is the loop they must equal bit for bit, from the
same seeds:

* **PHY** — :func:`decode_row` decodes one A-MPDU on its own
  (:func:`effective_sinrs`): each subframe draws a fresh preamble CSI
  estimate (the body of :func:`estimate_csi`) and then its outcome
  uniform; the post-equalization SINR per subcarrier is taken for the
  row, EESM (:func:`eesm_effective_sinr`) one subframe at a time, and
  each uniform is compared with its success probability.  The coded
  BER is read through the production table
  (``mpdu_success_probabilities``), so the comparison needs no coding
  switch; ``tests/oracles/coding.py`` checks that table against the
  union bound.  :func:`per_subcarrier_sinr` is the textbook
  zero-forcing SINR that the decode scales.
* **tag** — :func:`process_query` draws one alignment normal per bit
  (:func:`aligned`) and records the antenna states as
  :class:`~repro.phy.channel.TagState` members.
* **system** — :func:`run_query` runs one query cycle, and
  :class:`Session` is a :class:`~repro.core.session.MeasurementSession`
  that runs its cycles one :func:`run_query` at a time.
* **fleet** — :class:`MultiTagCell` keeps a reader cell as a dict of
  per-tag object graphs (:class:`TagEndpoint`) and decodes each
  responder's row on its own; :func:`reference_cell` builds
  it from a fleet's seeds and :func:`attach_cell` instruments it.

Each component owns its generator, so the order in which this loop
visits components does not matter; within a component it draws in
exactly the engine's order.  The engines carry tag states as ``int8``
codes into :data:`~repro.phy.channel.STATE_CODES`; this loop keeps
:class:`~repro.phy.channel.TagState` members and converts at its edges
(:func:`state_codes`, :func:`code_matrix`, :func:`states_of`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.config import WiTagConfig
from repro.core.decoder import raw_bits_from_block_ack
from repro.core.fleet import MultiTagQueryResult, TagFleet, _tag_generators
from repro.core.query import QueryBuilder
from repro.core.session import MeasurementSession, SessionStats, _aggregate
from repro.core.system import (
    DEFAULT_AP,
    DEFAULT_CLIENT,
    QueryResult,
    WiTagSystem,
)
from repro.core.throughput import block_ack_airtime_s
from repro.mac.block_ack import BlockAckScoreboard, build_block_ack
from repro.obs import Telemetry
from repro.phy.channel import (
    STATE_CODES,
    BackscatterChannel,
    ChannelGeometry,
    TagState,
)
from repro.phy.csi import EESM_BETA, csi_noise_scale
from repro.phy.error_model import (
    FadingSample,
    LinkErrorModel,
    mpdu_success_probabilities,
)
from repro.phy.modulation import Modulation
from repro.seeding import component_rng
from repro.tag.state_machine import (
    QueryObservation,
    TagPhase,
    TagStateMachine,
)
from repro.tag.timing import TimingModel


def state_codes(states) -> np.ndarray:
    """Tag states as the engines' ``int8`` row of state codes."""
    return np.array([STATE_CODES.index(s) for s in states], dtype=np.int8)


def code_matrix(rows) -> np.ndarray:
    """Rows of tag states as the engines' code matrix."""
    return np.stack([state_codes(row) for row in rows])


def states_of(codes) -> list[TagState]:
    """The tag states an engine's row of state codes stands for."""
    return [STATE_CODES[c] for c in np.asarray(codes).tolist()]


# -- PHY -----------------------------------------------------------------


@dataclass(frozen=True)
class CsiEstimate:
    """A receiver's per-subcarrier channel estimate.

    Attributes:
        h: complex estimate per subcarrier (as produced from the preamble).
        estimation_snr_linear: SNR at which the estimate was taken.
    """

    h: np.ndarray
    estimation_snr_linear: float


def estimate_csi(
    true_channel: np.ndarray,
    snr_linear: float,
    rng: np.random.Generator,
    *,
    n_training_symbols: int = 2,
) -> CsiEstimate:
    """A preamble channel estimate: the true channel plus Gaussian error.

    The error's variance shrinks with SNR and with the number of
    training symbols averaged (L-LTF has two repetitions).  Draws ``n``
    real normals, then ``n`` imaginary ones.
    """
    h = np.asarray(true_channel, dtype=complex)
    scale = csi_noise_scale(
        h, snr_linear, n_training_symbols=n_training_symbols
    )
    error = rng.normal(0.0, 1.0, h.shape) + 1j * rng.normal(0.0, 1.0, h.shape)
    return CsiEstimate(h=h + scale * error, estimation_snr_linear=snr_linear)


def per_subcarrier_sinr(
    actual_channel: np.ndarray, estimate: np.ndarray, snr_linear: float
) -> np.ndarray:
    """Zero-forcing post-equalization SINR per subcarrier.

    ``SINR = 1 / (|h_a / h_e - 1|^2 + 1 / (snr |h_e|^2))`` for a
    transmit-referred SNR ``snr``: the textbook form of the stale-estimate
    distortion that :func:`effective_sinrs` scales by the mismatch gain.
    """
    h_a = np.asarray(actual_channel, dtype=complex)
    h_e = np.asarray(estimate, dtype=complex)
    if h_a.shape != h_e.shape:
        raise ValueError(
            f"shape mismatch: actual {h_a.shape} vs estimate {h_e.shape}"
        )
    if snr_linear <= 0:
        raise ValueError(f"SNR must be > 0, got {snr_linear}")
    ratio = np.divide(
        h_a, h_e, out=np.zeros_like(h_a), where=np.abs(h_e) > 0
    )
    mismatch = np.abs(ratio - 1.0) ** 2
    noise = 1.0 / (snr_linear * np.maximum(np.abs(h_e) ** 2, 1e-30))
    return 1.0 / (mismatch + noise)


def eesm_effective_sinr(
    sinrs_linear: np.ndarray, modulation: Modulation
) -> float:
    """``-beta * ln(mean(exp(-SINR_k / beta)))``, anchored at the minimum."""
    sinrs = np.asarray(sinrs_linear, dtype=float)
    if sinrs.size == 0:
        raise ValueError("need at least one subcarrier SINR")
    minimum = float(sinrs.min())
    if minimum < 0:
        raise ValueError("SINRs must be non-negative")
    beta = EESM_BETA[modulation]
    shifted = np.exp(-(sinrs - minimum) / beta)
    return minimum - beta * float(np.log(shifted.sum() / shifted.size))


def sample_fading(model: LinkErrorModel) -> FadingSample:
    """One coherence interval of the model's channel: direct, then tag."""
    return FadingSample(
        direct_gain=model.channel.sample_direct_fading(),
        tag_fading=model.channel.sample_tag_fading(),
    )


def effective_sinrs(
    model: LinkErrorModel,
    preamble_state: TagState,
    subframe_states,
    fading: FadingSample,
    *,
    uniforms: list[float] | None = None,
) -> list[float]:
    """AWGN-equivalent SINR of each subframe of one A-MPDU, in order.

    The receiver estimated the channel with the tag in
    ``preamble_state``; subframe ``i`` went out with the tag in
    ``subframe_states[i]``.  Each subframe draws a fresh CSI estimate
    (``n`` real normals, then ``n`` imaginary ones; then, when
    ``uniforms`` is given, one uniform appended to it).  The
    tag-induced channel change is amplified by the model's mismatch
    gain; the CSI estimation error is not.  The SINR algebra runs on
    the row of subframes, and EESM one subframe at a time.
    """
    states = list(subframe_states)
    if not states:
        return []
    channel = model.channel
    rng = model.rng

    def vector(state):
        return channel.channel_vector(
            state, fading.direct_gain, fading.tag_fading
        )

    h_preamble = vector(preamble_state)
    change_sq = {
        state: np.abs(vector(state) - h_preamble) ** 2 for state in set(states)
    }
    tx_snr = model.tx_referred_snr_linear
    rx_snr = tx_snr * float(np.mean(np.abs(h_preamble) ** 2))
    n = h_preamble.size
    noise_re = np.empty((len(states), n))
    noise_im = np.empty((len(states), n))
    for i in range(len(states)):
        noise_re[i] = rng.normal(0.0, 1.0, n)
        noise_im[i] = rng.normal(0.0, 1.0, n)
        if uniforms is not None:
            uniforms.append(rng.random())
    # estimate_csi's body, for every subframe of the row at once.
    scale = csi_noise_scale(h_preamble, max(rx_snr, 1e-12))
    estimate = h_preamble + scale * (noise_re + 1j * noise_im)
    safe_est_sq = np.maximum(np.abs(estimate) ** 2, 1e-30)
    mismatch_gain = 10.0 ** (model.mismatch_gain_db / 10.0)
    change = np.stack([change_sq[state] for state in states])
    tag_mismatch = mismatch_gain * (change / safe_est_sq)
    est_mismatch = np.abs(h_preamble - estimate) ** 2 / safe_est_sq
    noise = 1.0 / (tx_snr * safe_est_sq)
    sinrs = [
        eesm_effective_sinr(row, model.mcs.modulation)
        for row in 1.0 / (tag_mismatch + est_mismatch + noise)
    ]
    if model.telemetry is not None:
        model.telemetry.observe_sinrs(sinrs)
    return sinrs


def decode_row(
    model: LinkErrorModel,
    mpdu_bits,
    preamble_state: TagState,
    subframe_states,
    fading: FadingSample,
) -> list[bool]:
    """One A-MPDU's FCS outcomes, one subframe after another.

    Each subframe draws its CSI noise, then the uniform that decides
    it; the success probabilities of the row come from one read of the
    coded-BER table.
    """
    uniforms: list[float] = []
    sinrs = effective_sinrs(
        model, preamble_state, subframe_states, fading, uniforms=uniforms
    )
    p = mpdu_success_probabilities(model.mcs, mpdu_bits, np.array(sinrs))
    return [bool(u < q) for u, q in zip(uniforms, p.tolist())]


# -- tag -----------------------------------------------------------------


def sample_misalignment_s(
    timing: TimingModel, subframe_index: int, rng: np.random.Generator
) -> float:
    """Draw one toggle misalignment for subframe ``k`` of ``timing``."""
    return float(
        rng.normal(
            timing.mean_misalignment_s(subframe_index),
            timing.jitter_sigma_s(subframe_index),
        )
    )


def aligned(
    timing: TimingModel, subframe_index: int, rng: np.random.Generator
) -> bool:
    """Draw whether the toggle for subframe ``k`` stays in its window."""
    return (
        abs(sample_misalignment_s(timing, subframe_index, rng))
        <= timing.guard_s
    )


@dataclass(frozen=True)
class Transmission:
    """What :func:`process_query` records of one query, as tag states."""

    detected: bool
    states: tuple[TagState, ...]
    toggles_aligned: tuple[bool, ...]
    bits_loaded: tuple[int, ...]


def process_query(
    tag: TagStateMachine, query: QueryObservation
) -> Transmission:
    """The tag FSM over one query, one alignment draw per bit."""
    idle_state = tag.design.state_for_bit_one
    tag.phase = TagPhase.DETECTING
    if not tag.detector.detect(query.rx_power_dbm, tag.rng):
        tag.phase = TagPhase.IDLE
        if tag.telemetry is not None:
            tag.telemetry.on_trigger(False)
        return Transmission(
            detected=False,
            states=(idle_state,) * query.n_subframes,
            toggles_aligned=(),
            bits_loaded=(),
        )
    tag.phase = TagPhase.SYNCED
    period_estimate = tag.detector.subframe_period_estimate_s(
        query.subframe_s, query.rx_power_dbm, tag.rng
    )
    timing = TimingModel(
        oscillator=tag.oscillator,
        subframe_s=query.subframe_s,
        period_estimate_s=period_estimate,
        temperature_c=query.temperature_c,
    )
    n_bits = min(query.n_payload_subframes, len(tag.data_queue))
    bits = tuple(tag.data_queue[:n_bits])
    del tag.data_queue[:n_bits]
    states = [idle_state] * query.n_trigger_subframes
    toggles = []
    for k, bit in enumerate(bits):
        toggles.append(aligned(timing, k, tag.rng))
        states.append(tag.design.state_for_bit(bit))
    states.extend([idle_state] * (query.n_subframes - len(states)))
    tag.phase = TagPhase.IDLE
    if tag.telemetry is not None:
        tag.telemetry.on_trigger(True)
        tag.telemetry.on_tag_bits(n_bits, sum(toggles))
    return Transmission(
        detected=True,
        states=tuple(states),
        toggles_aligned=tuple(toggles),
        bits_loaded=bits,
    )


# -- system --------------------------------------------------------------


def _effective_states(system: WiTagSystem, transmission, query) -> list:
    """A misaligned zero-bit toggle also corrupts one random neighbour."""
    states = list(transmission.states)
    zero_state = system.tag.design.state_for_bit_zero
    for j, aligned in enumerate(transmission.toggles_aligned):
        if aligned or transmission.bits_loaded[j] != 0:
            continue
        k = query.n_trigger_subframes + j
        neighbour = k + (1 if system.rng.random() < 0.5 else -1)
        if 0 <= neighbour < len(states):
            states[neighbour] = zero_state
    return states


def run_query(system: WiTagSystem) -> QueryResult:
    """One full query cycle of ``system``, on its own."""
    query = system.builder.build()
    access_s = system._access_delay_s()
    observation = QueryObservation(
        n_subframes=query.n_subframes,
        n_trigger_subframes=query.n_trigger_subframes,
        subframe_s=query.mean_subframe_s,
        rx_power_dbm=system.rx_power_at_tag_dbm,
        temperature_c=system.temperature_c,
    )
    transmission = process_query(system.tag, observation)
    states = _effective_states(system, transmission, query)
    preamble_state = system.tag.design.state_for_bit_one
    if system.fading_channel is not None:
        system.fading_channel.advance(system._last_cycle_s)
        fading = FadingSample(
            direct_gain=system.fading_channel.direct_gain(),
            tag_fading=system.fading_channel.tag_fading(),
        )
    else:
        fading = sample_fading(system.error_model)

    scoreboard = system._scoreboard
    scoreboard.reset(query.ssn)
    outcomes = decode_row(
        system.error_model,
        [8 * len(mpdu) for mpdu in query.mpdus],
        preamble_state,
        states,
        fading,
    )
    for index, ok in enumerate(outcomes):
        if ok:
            scoreboard.record((query.ssn + index) % 4096)
    block_ack = build_block_ack(scoreboard, system.client, system.ap)
    raw = raw_bits_from_block_ack(block_ack, query)
    n_sent = len(transmission.bits_loaded)
    cycle_s = (
        access_s
        + query.airtime_s
        + system.config.band.sifs_s
        + block_ack_airtime_s()
    )
    system._last_cycle_s = cycle_s
    result = QueryResult(
        query=query,
        block_ack=block_ack,
        detected=transmission.detected,
        sent_bits=transmission.bits_loaded,
        received_bits=tuple(raw[:n_sent]),
        cycle_s=cycle_s,
        rx_power_at_tag_dbm=system.rx_power_at_tag_dbm,
    )
    if system.telemetry is not None:
        system.telemetry.on_query(
            result,
            n_failed=len(outcomes) - sum(outcomes),
            codes=state_codes(states),
            fading=fading,
        )
    return result


class Session(MeasurementSession):
    """A measurement session that runs one :func:`run_query` at a time.

    ``batch_queries`` has no effect: there are no chunks.
    """

    def _run(self, duration_s: float, count: float) -> SessionStats:
        first = len(self.results)
        elapsed = 0.0
        done = 0
        while done < count and elapsed < duration_s:
            self._ensure_tag_bits()
            result = run_query(self.system)
            self.results.append(result)
            elapsed += result.cycle_s
            done += 1
        return _aggregate(self.results[first:], elapsed)


# -- fleet ---------------------------------------------------------------


@dataclass
class TagEndpoint:
    """One tag of a :class:`MultiTagCell`, with its own link model."""

    name: str
    tag: TagStateMachine
    error_model: LinkErrorModel
    rx_power_dbm: float


@dataclass
class MultiTagCell:
    """A reader cell as a dict of per-tag object graphs.

    Per query: every candidate tag runs its FSM (all tags, in dict
    order, for a broadcast); each responder draws one fading sample
    from its own channel; each responder's full outcome row is drawn
    before the rows are combined (a subframe survives only if every
    responder's draw survived).  A query nobody answers decodes one
    benign row through the first endpoint's link.
    """

    config: WiTagConfig
    endpoints: dict[str, TagEndpoint]
    rng: np.random.Generator = field(
        default_factory=lambda: component_rng("multitag")
    )
    telemetry: Telemetry | None = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not self.endpoints:
            raise ValueError("a cell needs at least one tag")
        self.builder = QueryBuilder(
            self.config, client=DEFAULT_CLIENT, ap=DEFAULT_AP
        )
        self._scoreboard = BlockAckScoreboard()

    def load_bits(self, name: str, bits: list[int]) -> None:
        self._endpoint(name).tag.load_bits(bits)

    def _endpoint(self, name: str) -> TagEndpoint:
        try:
            return self.endpoints[name]
        except KeyError:
            raise KeyError(
                f"unknown tag {name!r}; cell has {sorted(self.endpoints)}"
            ) from None

    def run_query(self, address: str | None = None) -> MultiTagQueryResult:
        if address is not None:
            self._endpoint(address)
        query = self.builder.build()
        transmissions = {}
        for name, endpoint in self.endpoints.items():
            if address is not None and name != address:
                continue
            observation = QueryObservation(
                n_subframes=query.n_subframes,
                n_trigger_subframes=query.n_trigger_subframes,
                subframe_s=query.mean_subframe_s,
                rx_power_dbm=endpoint.rx_power_dbm,
            )
            transmission = process_query(endpoint.tag, observation)
            if transmission.detected and transmission.bits_loaded:
                transmissions[name] = transmission

        if transmissions:
            rows = [
                (self.endpoints[name], transmission.states)
                for name, transmission in transmissions.items()
            ]
        else:
            first = next(iter(self.endpoints.values()))
            idle = first.tag.design.state_for_bit_one
            rows = [(first, (idle,) * query.n_subframes)]
        fadings = [sample_fading(endpoint.error_model) for endpoint, _ in rows]
        mpdu_bits = [8 * len(mpdu) for mpdu in query.mpdus]
        survived = np.ones(query.n_subframes, dtype=bool)
        for (endpoint, states), fading in zip(rows, fadings):
            idle = endpoint.tag.design.state_for_bit_one
            survived &= decode_row(
                endpoint.error_model, mpdu_bits, idle, states, fading
            )

        self._scoreboard.reset(query.ssn)
        for index in np.flatnonzero(survived):
            self._scoreboard.record((query.ssn + int(index)) % 4096)
        block_ack = build_block_ack(
            self._scoreboard, DEFAULT_CLIENT, DEFAULT_AP
        )
        result = MultiTagQueryResult(
            address=address,
            block_ack=block_ack,
            raw_bits=tuple(raw_bits_from_block_ack(block_ack, query)),
            responded=tuple(transmissions),
            per_tag_sent={
                name: transmission.bits_loaded
                for name, transmission in transmissions.items()
            },
        )
        if self.telemetry is not None:
            self.telemetry.on_cell_query(
                result,
                n_subframes=query.n_subframes,
                code_rows=code_matrix(states for _, states in rows),
                fading_rows=[(f.direct_gain, f.tag_fading) for f in fadings],
                cycle_s=self.builder.peek_airtime_s(),
            )
        return result

    def poll_round(self) -> dict[str, MultiTagQueryResult]:
        """One addressed query per tag, in sorted address order."""
        return {
            name: self.run_query(address=name)
            for name in sorted(self.endpoints)
        }


def reference_cell(fleet: TagFleet) -> MultiTagCell:
    """The cell ``fleet`` must equal, rebuilt from its seeds.

    Fresh generators from the same seeds, so build the cell before
    polling the fleet.  Endpoints go in fleet index order (the first
    endpoint is tag 0).  Mobility updates are not reflected.
    """
    endpoints: dict[str, TagEndpoint] = {}
    for i, name in enumerate(fleet.names):
        channel_rng, error_rng, tag_rng = _tag_generators(fleet._seed, i)
        channel = BackscatterChannel(
            geometry=ChannelGeometry(
                tx_rx_m=fleet._tx_rx_m,
                tx_tag_m=float(fleet._tx_tag_m[i]),
                tag_rx_m=float(fleet._tag_rx_m[i]),
            ),
            band=fleet._band,
            direct_loss=fleet._direct_loss,
            tx_tag_loss=fleet._tx_tag_loss,
            tag_rx_loss=fleet._tag_rx_loss,
            antenna=fleet._antenna,
            rician_k_db=fleet._rician_k_db,
            tag_rician_k_db=fleet._tag_rician_k_db,
            channel_width_mhz=fleet._channel_width_mhz,
            rng=channel_rng,
        )
        error_model = LinkErrorModel(
            channel=channel,
            mcs=fleet.config.mcs,
            tx_power_dbm=fleet._tx_power_dbm,
            receiver=fleet._receiver,
            mismatch_gain_db=fleet._mismatch_gain_db,
            rng=error_rng,
        )
        endpoints[name] = TagEndpoint(
            name=name,
            tag=TagStateMachine(rng=tag_rng),
            error_model=error_model,
            rx_power_dbm=float(fleet.rx_power_dbm[i]),
        )
    return MultiTagCell(config=fleet.config, endpoints=endpoints)


def attach_cell(telemetry: Telemetry, cell: MultiTagCell) -> MultiTagCell:
    """Wire ``telemetry`` into a cell as ``attach_fleet`` wires a fleet."""
    if telemetry.metrics_enabled or telemetry.trace_enabled:
        cell.telemetry = telemetry
        cell._scoreboard._telemetry = telemetry
        for endpoint in cell.endpoints.values():
            endpoint.error_model.telemetry = telemetry
        telemetry._stamp_build_info()
    return cell
