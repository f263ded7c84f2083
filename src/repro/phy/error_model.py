"""Per-MPDU decode model under tag-induced channel mismatch.

This is where the PHY substrate meets WiTAG's mechanism.  For each subframe
of a query A-MPDU we ask: given the channel estimate the receiver formed
during the preamble (with the tag in its idle state) and the channel that
actually prevailed while this subframe was on the air (tag idle, or tag
flipped), what is the probability the subframe's FCS passes?

The pipeline is:

    channels (``repro.phy.channel``)
      -> preamble CSI estimate (``repro.phy.csi``)
      -> per-subcarrier post-equalization SINR
      -> EESM effective SINR
      -> uncoded BER (``repro.phy.modulation``)
      -> coded BER via union bound (``repro.phy.coding``)
      -> MPDU error probability ``1 - (1 - BER)^bits``

Calibration
-----------

An ideal zero-forcing equalizer understates how badly a real 802.11
receiver reacts to a *mid-frame* channel change.  Three effects, all absent
from the textbook math, amplify the damage in practice:

* **MIMO stream separation.**  The paper's testbed uses 3x3:3 adapters;
  spatial-stream demultiplexing inverts the channel matrix, so a rank-one
  perturbation is amplified by the matrix condition number (MOXcatter,
  MobiSys 2018, builds its entire design around this fragility).
* **Pilot tracking.**  Receivers track residual phase/frequency offset on
  pilot subcarriers; a step change in the channel derails these loops for
  many symbols.
* **Indoor multipath.**  The tag's perturbation reaches the receiver over
  every environmental path, not just the single geometric bounce of the
  bistatic radar equation.

Rather than simulate each, :class:`LinkErrorModel` exposes a single
documented knob, ``mismatch_gain_db``, that scales the *power* of the
tag-induced mismatch term.  The default (22 dB: approximately 12 dB MIMO
fragility + 5 dB pilot-tracking disturbance + 5 dB multipath) is calibrated so that the simulated LOS
BER-vs-position curve lands in the magnitude range of paper Figure 5; all
*relative* behaviour (the U-shape, NLOS ordering, design ablations) comes
from the physics, not from the knob.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs.telemetry import Telemetry

from ..perf import StageCounters
from ..seeding import component_rng
from .channel import BackscatterChannel, TagState
from .coding import (
    coded_bit_error_rate,
    coded_bit_error_rate_batch,
    packet_error_rate,
    packet_error_rate_batch,
)
from .csi import (
    csi_noise_scale,
    eesm_effective_sinr,
    eesm_effective_sinr_batch,
    estimate_csi,
)
from .mcs import Mcs
from .noise import ReceiverNoise, dbm_to_watts

#: Queries per block of the 2-D decode
#: (:meth:`LinkErrorModel.subframe_effective_sinrs_batch2d`).  Each
#: query's per-subcarrier temporaries take ~300 KB at 64 subframes x 52
#: subcarriers: one unblocked 256-query call peaks at 76 MB traced.
#: Measured on 1 s CSMA-contended sessions, 256-query chunks: peak RSS
#: 120.6 MB unblocked, 70.6 / 66.3 / 63.6 MB with blocks of 32 / 16 / 8
#: queries, against 63.9 MB for the per-query loop.  Throughput did not
#: differ measurably between those block sizes.
DECODE_BLOCK_QUERIES = 8


def mpdu_success_probability(
    mcs: Mcs, mpdu_bits: int, effective_sinr_linear: float
) -> float:
    """Probability that an MPDU of ``mpdu_bits`` passes its FCS.

    Args:
        mcs: modulation and coding of the PPDU.
        mpdu_bits: MPDU length in bits (header + payload + FCS).
        effective_sinr_linear: AWGN-equivalent SINR (post EESM).

    Returns:
        Success probability in [0, 1].
    """
    if mpdu_bits <= 0:
        raise ValueError(f"mpdu_bits must be > 0, got {mpdu_bits}")
    uncoded = mcs.modulation.bit_error_rate(max(effective_sinr_linear, 0.0))
    coded = coded_bit_error_rate(mcs.coding_rate, uncoded)
    return 1.0 - packet_error_rate(coded, mpdu_bits)


def mpdu_success_probabilities(
    mcs: Mcs,
    mpdu_bits,
    effective_sinrs_linear,
    *,
    exact: bool = False,
) -> np.ndarray:
    """Vectorized :func:`mpdu_success_probability` over many subframes.

    Args:
        mpdu_bits: MPDU length(s) in bits — scalar or array broadcastable
            against the SINR vector.
        effective_sinrs_linear: AWGN-equivalent SINRs (post EESM).
        exact: when True, evaluate the scalar reference per element
            (bit-identical to :func:`mpdu_success_probability`); when
            False (the fast path), use the vectorized uncoded-BER curve
            and the interpolated coded-BER table — accurate to ~1e-3
            relative on the coded BER, which is far below anything
            observable at packet level.

    Returns:
        Array of success probabilities in [0, 1].
    """
    sinrs = np.asarray(effective_sinrs_linear, dtype=float)
    bits = np.asarray(mpdu_bits)
    if np.any(bits <= 0):
        raise ValueError(f"mpdu_bits must be > 0, got {mpdu_bits}")
    if exact:
        bits_by_subframe = np.broadcast_to(bits, sinrs.shape)
        return np.array(
            [
                mpdu_success_probability(mcs, int(b), float(s))
                for b, s in zip(bits_by_subframe.ravel(), sinrs.ravel())
            ]
        ).reshape(sinrs.shape)
    uncoded = mcs.modulation.bit_error_rate_array(np.maximum(sinrs, 0.0))
    coded = coded_bit_error_rate_batch(mcs.coding_rate, uncoded)
    return 1.0 - packet_error_rate_batch(coded, bits)


@dataclass(frozen=True)
class FadingSample:
    """One coherence-interval snapshot of the channel's random state.

    Within a single A-MPDU the channel is coherent (frame time of a few
    milliseconds << ~100 ms coherence time, paper §5 footnote 2), so the
    same sample applies to the preamble and every subframe of one PPDU.
    """

    direct_gain: complex
    tag_fading: complex


@dataclass(frozen=True)
class FadingBatch:
    """Per-query fading samples for a whole session chunk.

    Row ``i`` holds the coherence-interval state of query ``i`` — the
    2-D decode APIs broadcast each row across that query's subframes
    exactly as :class:`FadingSample` is shared within one A-MPDU.
    """

    direct_gains: np.ndarray
    tag_fadings: np.ndarray

    def __post_init__(self) -> None:
        if self.direct_gains.shape != self.tag_fadings.shape:
            raise ValueError(
                "direct/tag fading shapes differ: "
                f"{self.direct_gains.shape} vs {self.tag_fadings.shape}"
            )

    def __len__(self) -> int:
        return int(self.direct_gains.shape[0])

    def sample(self, index: int) -> FadingSample:
        """The scalar :class:`FadingSample` view of row ``index``."""
        return FadingSample(
            direct_gain=complex(self.direct_gains[index]),
            tag_fading=complex(self.tag_fadings[index]),
        )


@dataclass
class LinkErrorModel:
    """Decode model for one client->AP link with a tag in the environment.

    Attributes:
        channel: the backscatter channel (geometry + tag reflection).
        mcs: MCS of query PPDUs.
        tx_power_dbm: client transmit power.
        receiver: AP receiver noise model.
        mismatch_gain_db: receiver-fragility / multipath calibration (see
            module docstring).  Applied to the power of the tag-induced
            channel mismatch only — never to thermal noise or to the
            benign (tag idle) case.
        rng: randomness source for CSI estimation noise and fading.
        counters: cumulative per-stage timing of the vectorized decode
            path (``channel``, ``csi``, ``eesm``, ``coding``); sampled
            once per A-MPDU, so the instrumentation overhead is a few
            microseconds per query.  The scalar reference methods are
            deliberately left un-instrumented.
        telemetry: optional :class:`repro.obs.Telemetry`; when attached,
            every effective-SINR evaluation feeds the
            ``phy_effective_sinr`` histogram.  All three tiers (scalar,
            per-query vectorized, session-batch 2-D) observe the same
            values in the same order, so histograms are tier-invariant.

    The vectorized decode calls the numpy array functions directly:
    :func:`repro.phy.csi.eesm_effective_sinr_batch` for EESM,
    :func:`mpdu_success_probabilities` for uncoded -> coded BER -> PER,
    and ``uniforms < probabilities`` for the outcome draw.
    """

    channel: BackscatterChannel
    mcs: Mcs
    tx_power_dbm: float = 15.0
    receiver: ReceiverNoise = field(default_factory=ReceiverNoise)
    mismatch_gain_db: float = 22.0
    rng: np.random.Generator = field(
        default_factory=lambda: component_rng("error-model")
    )
    counters: StageCounters = field(default_factory=StageCounters, repr=False)
    telemetry: "Telemetry | None" = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self._tx_ref_snr = (
            dbm_to_watts(self.tx_power_dbm) / self.receiver.noise_floor_w
        )
        self._mismatch_gain = 10.0 ** (self.mismatch_gain_db / 10.0)

    @property
    def tx_referred_snr_linear(self) -> float:
        """``P_tx / N``: SNR before applying any channel gain."""
        return self._tx_ref_snr

    def received_snr_db(self, idle_state: TagState) -> float:
        """Mean received SNR (dB) across subcarriers with the tag idle."""
        h = self.channel.channel_vector(idle_state)
        rx = self._tx_ref_snr * float(np.mean(np.abs(h) ** 2))
        return 10.0 * float(np.log10(max(rx, 1e-30)))

    def sample_fading(self) -> FadingSample:
        """Draw the channel's random state for one coherence interval."""
        return FadingSample(
            direct_gain=self.channel.sample_direct_fading(),
            tag_fading=self.channel.sample_tag_fading(),
        )

    def sample_fading_batch(self, count: int) -> FadingBatch:
        """Draw ``count`` coherence intervals in exact scalar order.

        Bitwise equal, per row, to ``count`` sequential calls of
        :meth:`sample_fading` on the same generator state (see
        :meth:`repro.phy.channel.BackscatterChannel.sample_fading_batch`).
        """
        direct, tag = self.channel.sample_fading_batch(count)
        return FadingBatch(direct_gains=direct, tag_fadings=tag)

    def subframe_effective_sinrs_batch2d(
        self,
        preamble_state: TagState,
        subframe_state_rows: Sequence[Sequence[TagState]],
        fading: FadingBatch,
        *,
        rngs: Sequence[np.random.Generator] | None = None,
        _uniforms: np.ndarray | None = None,
    ) -> np.ndarray:
        """:meth:`subframe_effective_sinrs` for a whole session chunk.

        Computes every subframe SINR of ``n_queries`` A-MPDUs into one
        ``(n_queries, n_subframes)`` matrix.  Tag states are
        deduplicated across the *whole matrix* (the design only ever
        uses a handful of states, so the channel-change power is one
        ``(n_distinct, n_queries, n_subcarriers)`` stack).  The CSI
        noise, the SINR algebra and EESM then run one block of
        :data:`DECODE_BLOCK_QUERIES` queries at a time, so the
        per-subcarrier temporaries stay a fixed size however large the
        chunk.  Blocks draw in query order, each query in the scalar
        order (per subframe: n real draws, n imaginary draws, then
        optionally the outcome uniform).  Given the same generator
        state, row ``q`` is bitwise equal to
        ``subframe_effective_sinrs(preamble_state,
        subframe_state_rows[q], fading.sample(q))``.

        Args:
            preamble_state: tag state during every PHY preamble.
            subframe_state_rows: per-query tag states; all rows must
                have equal length (one A-MPDU shape per chunk).
            fading: one coherence-interval sample per query.
            rngs: optional per-row generators (one per query row).
                When given, row ``q``'s CSI noise (and outcome
                uniforms) are drawn from ``rngs[q]`` instead of
                ``self.rng`` — the fleet engine uses this so each
                tag's row consumes that tag's own error stream,
                bitwise as the scalar per-tag loop would.  ``None``
                (the default) keeps the historical shared-generator
                path byte for byte.
            _uniforms: internal — a preallocated ``(n_queries,
                n_subframes)`` float array; when provided, one uniform
                per subframe is drawn into it after that subframe's
                noise draws, replicating the outcome stream.

        Returns:
            ``(n_queries, n_subframes)`` array of effective SINRs.
        """
        rows = [list(row) for row in subframe_state_rows]
        n_q = len(rows)
        if n_q != len(fading):
            raise ValueError(
                f"{n_q} state rows but {len(fading)} fading samples"
            )
        if n_q == 0:
            return np.empty((0, 0), dtype=float)
        k = len(rows[0])
        for row in rows:
            if len(row) != k:
                raise ValueError(
                    "all queries in a chunk must have the same subframe "
                    f"count, got {len(row)} vs {k}"
                )
        if k == 0:
            return np.empty((n_q, 0), dtype=float)

        if rngs is not None and len(rngs) != n_q:
            raise ValueError(
                f"{n_q} state rows but {len(rngs)} per-row generators"
            )

        start = time.perf_counter()
        h_preamble = self.channel.channel_vector_batch(
            preamble_state, fading.direct_gains, fading.tag_fadings
        )
        distinct: list[TagState] = []
        index_of: dict[TagState, int] = {}
        flat_codes: list[int] = []
        for row in rows:
            for state in row:
                j = index_of.get(state)
                if j is None:
                    j = index_of[state] = len(distinct)
                    distinct.append(state)
                flat_codes.append(j)
        codes = np.array(flat_codes, dtype=np.intp).reshape(n_q, k)
        change_sq = np.stack(
            [
                np.abs(
                    self.channel.channel_vector_batch(
                        state, fading.direct_gains, fading.tag_fadings
                    )
                    - h_preamble
                )
                ** 2
                for state in distinct
            ]
        )
        self.counters.add("channel", time.perf_counter() - start, n_q * k)

        start = time.perf_counter()
        n = h_preamble.shape[1]
        rx_snr = self._tx_ref_snr * np.mean(np.abs(h_preamble) ** 2, axis=1)
        scale = csi_noise_scale(
            h_preamble, np.maximum(rx_snr, 1e-12)[:, None]
        )
        block = min(n_q, DECODE_BLOCK_QUERIES)
        noise = np.empty((block, k, 2 * n))
        estimate = np.empty((block, k, n), dtype=complex)
        effective = np.empty((n_q, k))
        csi_s = time.perf_counter() - start
        eesm_s = 0.0
        for lo in range(0, n_q, block):
            hi = min(lo + block, n_q)
            start = time.perf_counter()
            # Per query, per subframe: n real draws, n imaginary draws,
            # then optionally the outcome uniform — the scalar order.
            for q in range(lo, hi):
                rng = self.rng if rngs is None else rngs[q]
                draw_normals = rng.standard_normal
                per_query = noise[q - lo]
                if _uniforms is None:
                    for i in range(k):
                        draw_normals(out=per_query[i])
                else:
                    draw_uniform = rng.random
                    uniform_row = _uniforms[q]
                    for i in range(k):
                        draw_normals(out=per_query[i])
                        uniform_row[i] = draw_uniform()
            # The algebra runs in place on the block's scratch buffers.
            # Every rewrite is bitwise-neutral: in-place multiply/add
            # keep the scalar expression's operand order up to
            # commutativity (exact for float multiply/add), and building
            # the complex noise by field assignment instead of
            # ``re + 1j * im`` can only flip the sign of a zero real
            # part, which ``abs()**2`` erases.
            est = estimate[: hi - lo]
            est.real = noise[: hi - lo, :, :n]
            est.imag = noise[: hi - lo, :, n:]
            est *= scale[lo:hi, None, :]
            h_block = h_preamble[lo:hi, None, :]
            est += h_block
            safe_est_sq = np.abs(est)
            np.multiply(safe_est_sq, safe_est_sq, out=safe_est_sq)
            np.maximum(safe_est_sq, 1e-30, out=safe_est_sq)
            tag_mismatch = change_sq[
                codes[lo:hi], np.arange(lo, hi)[:, None]
            ]
            np.divide(tag_mismatch, safe_est_sq, out=tag_mismatch)
            np.multiply(tag_mismatch, self._mismatch_gain, out=tag_mismatch)
            est_mismatch = np.abs(h_block - est)
            np.multiply(est_mismatch, est_mismatch, out=est_mismatch)
            np.divide(est_mismatch, safe_est_sq, out=est_mismatch)
            np.multiply(safe_est_sq, self._tx_ref_snr, out=safe_est_sq)
            np.divide(1.0, safe_est_sq, out=safe_est_sq)  # the noise term
            np.add(tag_mismatch, est_mismatch, out=tag_mismatch)
            np.add(tag_mismatch, safe_est_sq, out=tag_mismatch)
            np.divide(1.0, tag_mismatch, out=tag_mismatch)
            middle = time.perf_counter()
            effective[lo:hi] = eesm_effective_sinr_batch(
                tag_mismatch.reshape((hi - lo) * k, n), self.mcs.modulation
            ).reshape(hi - lo, k)
            csi_s += middle - start
            eesm_s += time.perf_counter() - middle
        self.counters.add("csi", csi_s, n_q * k)
        self.counters.add("eesm", eesm_s, n_q * k)
        if self.telemetry is not None:
            self.telemetry.observe_sinrs(effective)
        return effective

    def subframe_success_probabilities_batch2d(
        self,
        mpdu_bits,
        preamble_state: TagState,
        subframe_state_rows: Sequence[Sequence[TagState]],
        fading: FadingBatch,
        *,
        exact_coding: bool = False,
        rngs: Sequence[np.random.Generator] | None = None,
        _uniforms: np.ndarray | None = None,
    ) -> np.ndarray:
        """:meth:`subframe_success_probabilities` for a session chunk.

        ``mpdu_bits`` may be scalar, a length-``n_subframes`` row shared
        by every query, or a full ``(n_queries, n_subframes)`` matrix.
        """
        sinrs = self.subframe_effective_sinrs_batch2d(
            preamble_state,
            subframe_state_rows,
            fading,
            rngs=rngs,
            _uniforms=_uniforms,
        )
        start = time.perf_counter()
        probabilities = mpdu_success_probabilities(
            self.mcs, mpdu_bits, sinrs, exact=exact_coding
        )
        self.counters.add("coding", time.perf_counter() - start, sinrs.size)
        return probabilities

    def subframe_outcomes_batch2d(
        self,
        mpdu_bits,
        preamble_state: TagState,
        subframe_state_rows: Sequence[Sequence[TagState]],
        fading: FadingBatch,
        *,
        exact_coding: bool = False,
        rngs: Sequence[np.random.Generator] | None = None,
    ) -> np.ndarray:
        """:meth:`subframe_outcomes` for a whole session chunk.

        Returns a ``(n_queries, n_subframes)`` boolean matrix; with
        ``exact_coding=True`` it is bitwise equal to stacking the
        per-query :meth:`subframe_outcomes` (and hence the scalar
        :meth:`subframe_outcome` loop) from the same generator state.
        With ``rngs`` each row draws from its own generator instead
        (see :meth:`subframe_effective_sinrs_batch2d`).
        """
        rows = [list(row) for row in subframe_state_rows]
        n_q = len(rows)
        k = len(rows[0]) if n_q else 0
        uniforms = np.empty((n_q, k))
        probabilities = self.subframe_success_probabilities_batch2d(
            mpdu_bits,
            preamble_state,
            rows,
            fading,
            exact_coding=exact_coding,
            rngs=rngs,
            _uniforms=uniforms,
        )
        return uniforms < probabilities

    def subframe_effective_sinr(
        self,
        preamble_state: TagState,
        subframe_state: TagState,
        fading: FadingSample | None = None,
        *,
        include_estimation_noise: bool = True,
    ) -> float:
        """AWGN-equivalent SINR for one subframe.

        The receiver estimated the channel with the tag in
        ``preamble_state``; the subframe was transmitted with the tag in
        ``subframe_state``.  When the states coincide, the only impairments
        are thermal noise and CSI estimation error; when they differ, the
        stale estimate turns the tag's channel change into distortion,
        amplified by :attr:`mismatch_gain_db`.

        Args:
            fading: one coherence-interval sample shared by the preamble
                and the subframe; drawn fresh when omitted.
        """
        if fading is None:
            fading = self.sample_fading()
        h_preamble = self.channel.channel_vector(
            preamble_state, fading.direct_gain, fading.tag_fading
        )
        h_actual = self.channel.channel_vector(
            subframe_state, fading.direct_gain, fading.tag_fading
        )
        if include_estimation_noise:
            rx_snr = self._tx_ref_snr * float(
                np.mean(np.abs(h_preamble) ** 2)
            )
            estimate = estimate_csi(h_preamble, max(rx_snr, 1e-12), self.rng).h
        else:
            estimate = h_preamble
        safe_est_sq = np.maximum(np.abs(estimate) ** 2, 1e-30)
        # Tag-induced channel change: amplified by the fragility gain.
        tag_mismatch = self._mismatch_gain * (
            np.abs(h_actual - h_preamble) ** 2 / safe_est_sq
        )
        # CSI estimation error: an ordinary receiver impairment, NOT
        # amplified (the fragility gain models the reaction to mid-frame
        # channel *changes*, which a static estimation error is not).
        est_mismatch = np.abs(h_preamble - estimate) ** 2 / safe_est_sq
        noise = 1.0 / (self._tx_ref_snr * safe_est_sq)
        sinrs = 1.0 / (tag_mismatch + est_mismatch + noise)
        effective = eesm_effective_sinr(sinrs, self.mcs.modulation)
        if self.telemetry is not None:
            self.telemetry.observe_sinr(effective)
        return effective

    def subframe_effective_sinrs(
        self,
        preamble_state: TagState,
        subframe_states: Sequence[TagState] | Iterable[TagState],
        fading: FadingSample | None = None,
        *,
        include_estimation_noise: bool = True,
        _uniforms: list[float] | None = None,
    ) -> np.ndarray:
        """Vectorized :meth:`subframe_effective_sinr` for one A-MPDU.

        Computes the AWGN-equivalent SINR of every subframe in a single
        numpy pass.  The geometry-dependent terms (channel vectors and
        the tag-induced channel-change power) are evaluated once per
        *distinct* tag state — an A-MPDU only ever contains the design's
        two data states, so the per-subframe work reduces to the CSI
        estimation noise and the shared EESM reduction.

        Randomness is drawn in exactly the order the scalar method uses
        (per subframe: real noise, imaginary noise), so given the same
        generator state this returns bitwise-identical SINRs to calling
        :meth:`subframe_effective_sinr` in a loop — the equivalence suite
        asserts this.

        Args:
            preamble_state: tag state during the PHY preamble.
            subframe_states: tag state during each subframe, in order.
            fading: one coherence-interval sample shared by the preamble
                and all subframes (paper §5 footnote 2); drawn fresh when
                omitted.
            _uniforms: internal — when provided, one uniform draw per
                subframe is appended after that subframe's noise draws,
                replicating the scalar :meth:`subframe_outcome` stream.

        Returns:
            Array of effective SINRs, one per subframe.
        """
        states = list(subframe_states)
        k = len(states)
        if k == 0:
            return np.empty(0, dtype=float)
        if fading is None:
            fading = self.sample_fading()
        start = time.perf_counter()
        h_preamble = self.channel.channel_vector(
            preamble_state, fading.direct_gain, fading.tag_fading
        )
        # Deduplicate tag states: per coherence interval at most two
        # (preamble, subframe) combinations occur, so the channel-change
        # power |h_actual - h_preamble|^2 is computed once per state.
        distinct: list[TagState] = []
        index_of: dict[TagState, int] = {}
        row = np.empty(k, dtype=np.intp)
        for i, state in enumerate(states):
            j = index_of.get(state)
            if j is None:
                j = index_of[state] = len(distinct)
                distinct.append(state)
            row[i] = j
        change_sq = np.stack(
            [
                np.abs(
                    self.channel.channel_vector(
                        state, fading.direct_gain, fading.tag_fading
                    )
                    - h_preamble
                )
                ** 2
                for state in distinct
            ]
        )
        self.counters.add("channel", time.perf_counter() - start, k)

        if not include_estimation_noise:
            if _uniforms is not None:
                for _ in range(k):
                    _uniforms.append(self.rng.random())
            start = time.perf_counter()
            # Noise-free estimates collapse to one SINR row per distinct
            # state; EESM runs on those rows only and is scattered back.
            safe_est_sq = np.maximum(np.abs(h_preamble) ** 2, 1e-30)
            tag_mismatch = self._mismatch_gain * (change_sq / safe_est_sq)
            est_mismatch = np.abs(h_preamble - h_preamble) ** 2 / safe_est_sq
            noise = 1.0 / (self._tx_ref_snr * safe_est_sq)
            sinr_rows = 1.0 / (tag_mismatch + est_mismatch + noise)
            self.counters.add("csi", time.perf_counter() - start, k)
            start = time.perf_counter()
            effective = eesm_effective_sinr_batch(
                sinr_rows, self.mcs.modulation
            )[row]
            self.counters.add("eesm", time.perf_counter() - start, k)
            if self.telemetry is not None:
                self.telemetry.observe_sinrs(effective)
            return effective

        start = time.perf_counter()
        n = h_preamble.size
        rx_snr = self._tx_ref_snr * float(np.mean(np.abs(h_preamble) ** 2))
        scale = csi_noise_scale(h_preamble, max(rx_snr, 1e-12))
        noise_re = np.empty((k, n))
        noise_im = np.empty((k, n))
        rng = self.rng
        for i in range(k):
            # Draw order matches the scalar path exactly (estimate_csi's
            # real then imaginary parts, then the outcome uniform).
            noise_re[i] = rng.normal(0.0, 1.0, n)
            noise_im[i] = rng.normal(0.0, 1.0, n)
            if _uniforms is not None:
                _uniforms.append(rng.random())
        estimate = h_preamble + scale * (noise_re + 1j * noise_im)
        safe_est_sq = np.maximum(np.abs(estimate) ** 2, 1e-30)
        tag_mismatch = self._mismatch_gain * (change_sq[row] / safe_est_sq)
        est_mismatch = np.abs(h_preamble - estimate) ** 2 / safe_est_sq
        noise = 1.0 / (self._tx_ref_snr * safe_est_sq)
        sinr_rows = 1.0 / (tag_mismatch + est_mismatch + noise)
        self.counters.add("csi", time.perf_counter() - start, k)
        start = time.perf_counter()
        effective = eesm_effective_sinr_batch(sinr_rows, self.mcs.modulation)
        self.counters.add("eesm", time.perf_counter() - start, k)
        if self.telemetry is not None:
            self.telemetry.observe_sinrs(effective)
        return effective

    def subframe_success_probabilities(
        self,
        mpdu_bits,
        preamble_state: TagState,
        subframe_states: Sequence[TagState] | Iterable[TagState],
        fading: FadingSample | None = None,
        *,
        exact_coding: bool = False,
        _uniforms: list[float] | None = None,
    ) -> np.ndarray:
        """Vectorized :meth:`subframe_success_probability` for one A-MPDU.

        Args:
            mpdu_bits: per-subframe MPDU lengths in bits (scalar or
                array broadcastable against the subframe axis).
            exact_coding: evaluate the coded-BER union bound exactly per
                subframe instead of via the interpolated table; slower,
                bit-identical to the scalar reference.
        """
        sinrs = self.subframe_effective_sinrs(
            preamble_state, subframe_states, fading, _uniforms=_uniforms
        )
        start = time.perf_counter()
        probabilities = mpdu_success_probabilities(
            self.mcs, mpdu_bits, sinrs, exact=exact_coding
        )
        self.counters.add("coding", time.perf_counter() - start, sinrs.size)
        return probabilities

    def subframe_outcomes(
        self,
        mpdu_bits,
        preamble_state: TagState,
        subframe_states: Sequence[TagState] | Iterable[TagState],
        fading: FadingSample | None = None,
        *,
        exact_coding: bool = False,
    ) -> np.ndarray:
        """Vectorized :meth:`subframe_outcome`: one Bernoulli per subframe.

        The uniform deciding each subframe is drawn from the same stream,
        interleaved after that subframe's CSI noise exactly as the scalar
        loop draws it — with ``exact_coding=True`` the outcome vector is
        bitwise-identical to calling :meth:`subframe_outcome` per
        subframe from the same generator state.

        Returns:
            Boolean array, True where the subframe's FCS passes.
        """
        if fading is None:
            fading = self.sample_fading()
        uniforms: list[float] = []
        probabilities = self.subframe_success_probabilities(
            mpdu_bits,
            preamble_state,
            subframe_states,
            fading,
            exact_coding=exact_coding,
            _uniforms=uniforms,
        )
        return np.asarray(uniforms) < probabilities

    def subframe_success_probability(
        self,
        mpdu_bits: int,
        preamble_state: TagState,
        subframe_state: TagState,
        fading: FadingSample | None = None,
    ) -> float:
        """Probability that a subframe decodes, given tag behaviour."""
        sinr = self.subframe_effective_sinr(
            preamble_state, subframe_state, fading
        )
        return mpdu_success_probability(self.mcs, mpdu_bits, sinr)

    def subframe_outcome(
        self,
        mpdu_bits: int,
        preamble_state: TagState,
        subframe_state: TagState,
        fading: FadingSample | None = None,
    ) -> bool:
        """Draw one Bernoulli decode outcome for a subframe."""
        p = self.subframe_success_probability(
            mpdu_bits, preamble_state, subframe_state, fading
        )
        return bool(self.rng.random() < p)
