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

import functools
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs.telemetry import Telemetry

from ..seeding import component_rng
from .channel import STATE_CODES, BackscatterChannel, TagState
from .coding import coded_bit_error_rate_batch, packet_error_rate_batch
from .csi import csi_noise_scale, eesm_effective_sinr_batch
from .mcs import Mcs
from .noise import ReceiverNoise, dbm_to_watts

#: Queries per block of the 2-D decode
#: (:meth:`LinkErrorModel.subframe_effective_sinrs_batch2d`), which also
#: sizes the scratch buffers that call allocates.  Each query's
#: per-subcarrier temporaries take ~250 KB at 64 subframes x 52
#: subcarriers: one unblocked 256-query call peaks at 65 MB traced, 3 MB
#: in blocks of 8.  Measured on 1 s CSMA-contended LOS sessions (220
#: queries, one chunk): peak RSS 112.4 MB unblocked, 67.4 / 63.6 / 61.6 MB
#: with blocks of 32 / 16 / 8 queries, against 59.9 MB for one query at a
#: time.  A 687-query session ran no faster in blocks of 16 or 32.
DECODE_BLOCK_QUERIES = 8


def mpdu_success_probabilities(
    mcs: Mcs, mpdu_bits, effective_sinrs_linear
) -> np.ndarray:
    """Probability that each MPDU passes its FCS.

    Uncoded BER from the modulation curve, coded BER from the
    union-bound table built at import
    (:func:`repro.phy.coding.coded_bit_error_rate_batch`, within ~1e-3
    relative of the exact bound, far below anything observable at
    packet level), then ``1 - (1 - BER)^bits``.

    Args:
        mcs: modulation and coding of the PPDU.
        mpdu_bits: MPDU length(s) in bits (header + payload + FCS) —
            scalar or array broadcastable against the SINRs.
        effective_sinrs_linear: AWGN-equivalent SINRs (post EESM).

    Returns:
        Array of success probabilities in [0, 1].
    """
    sinrs = np.asarray(effective_sinrs_linear, dtype=float)
    bits = np.asarray(mpdu_bits)
    if np.any(bits <= 0):
        raise ValueError(f"mpdu_bits must be > 0, got {mpdu_bits}")
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
        rng: randomness source for CSI estimation noise and outcome
            draws.
        telemetry: optional :class:`repro.obs.Telemetry`; when attached,
            every effective-SINR evaluation feeds the
            ``phy_effective_sinr`` histogram, and a decode is timed as a
            ``phy.error_model`` span holding ``channel``, ``csi``,
            ``eesm`` and ``phy.coding``.

    The decode is one family of 2-D methods
    (:meth:`subframe_outcomes_batch2d` and the two it composes): a
    ``(n_queries, n_subframes)`` chunk at a time, whose tag states
    arrive as one integer matrix of codes into
    :data:`repro.phy.channel.STATE_CODES`, calling
    :func:`repro.phy.csi.eesm_effective_sinr_batch` for EESM,
    :func:`mpdu_success_probabilities` for uncoded -> coded BER -> PER,
    and ``uniforms < probabilities`` for the outcome draw.  The
    per-subframe scalar reference it must equal bit for bit lives with
    the tests (``tests/oracles/link.py``).
    """

    channel: BackscatterChannel
    mcs: Mcs
    tx_power_dbm: float = 15.0
    receiver: ReceiverNoise = field(default_factory=ReceiverNoise)
    mismatch_gain_db: float = 22.0
    rng: np.random.Generator = field(
        default_factory=lambda: component_rng("error-model")
    )
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

    def sample_fading_batch(self, count: int) -> FadingBatch:
        """Draw ``count`` coherence intervals in exact scalar order.

        Bitwise equal, per row, to ``count`` sequential
        ``sample_direct_fading()`` / ``sample_tag_fading()`` pairs on
        the same generator state (see
        :meth:`repro.phy.channel.BackscatterChannel.sample_fading_batch`).
        """
        direct, tag = self.channel.sample_fading_batch(count)
        return FadingBatch(direct_gains=direct, tag_fadings=tag)

    def subframe_effective_sinrs_batch2d(
        self,
        preamble_state: TagState,
        state_codes: np.ndarray,
        fading: FadingBatch,
        *,
        rngs: Sequence[np.random.Generator] | None = None,
        _uniforms: np.ndarray | None = None,
    ) -> np.ndarray:
        """AWGN-equivalent SINR of every subframe of a chunk of A-MPDUs.

        The receiver estimated each query's channel with the tag in
        ``preamble_state``; subframe ``i`` of query ``q`` was sent with
        the tag in ``STATE_CODES[state_codes[q, i]]``
        (:data:`repro.phy.channel.STATE_CODES`).  When the states
        coincide, the only impairments are thermal noise and CSI
        estimation error; when they differ, the stale estimate turns
        the tag's channel change into distortion, amplified by
        :attr:`mismatch_gain_db` (the CSI estimation error itself is an
        ordinary receiver impairment and is not amplified).

        Computes every subframe SINR of ``n_queries`` A-MPDUs into one
        ``(n_queries, n_subframes)`` matrix.  The channel-change power
        is one ``(n_codes, n_queries, n_subcarriers)`` stack, filled
        only for the codes present in the matrix (the design only ever
        uses two states), and each subframe reads its row by code.  The
        CSI noise, the SINR algebra and EESM then run one block of
        :data:`DECODE_BLOCK_QUERIES` queries at a time, in place on
        scratch buffers allocated once per call, so the per-subcarrier
        temporaries stay a fixed size however large the chunk.  Blocks
        draw in query order, each query in the scalar order (per
        subframe: n real draws, n imaginary draws, then optionally the
        outcome uniform), so results do not depend on how a caller
        chunks its queries.

        Args:
            preamble_state: tag state during every PHY preamble.
            state_codes: ``(n_queries, n_subframes)`` integer matrix of
                per-subframe tag-state codes, one row per query (one
                A-MPDU shape per chunk).
            fading: one coherence-interval sample per query.
            rngs: optional per-row generators (one per query row).
                When given, row ``q``'s CSI noise (and outcome
                uniforms) are drawn from ``rngs[q]`` instead of
                ``self.rng`` — the fleet engine uses this so each
                tag's row consumes that tag's own error stream.
                ``None`` (the default) draws every row from
                ``self.rng``.
            _uniforms: internal — a preallocated ``(n_queries,
                n_subframes)`` float array; when provided, one uniform
                per subframe is drawn into it after that subframe's
                noise draws, replicating the outcome stream.

        Returns:
            ``(n_queries, n_subframes)`` array of effective SINRs.
        """
        codes = np.asarray(state_codes)
        if codes.ndim != 2:
            raise ValueError(
                "state codes must be a (n_queries, n_subframes) matrix, "
                f"got shape {codes.shape}"
            )
        n_q, k = codes.shape
        if n_q != len(fading):
            raise ValueError(
                f"{n_q} state rows but {len(fading)} fading samples"
            )
        if n_q == 0 or k == 0:
            return np.empty((n_q, k), dtype=float)

        if rngs is not None and len(rngs) != n_q:
            raise ValueError(
                f"{n_q} state rows but {len(rngs)} per-row generators"
            )

        telemetry = self.telemetry
        if telemetry is not None:
            start = time.perf_counter()
        direct, tag = fading.direct_gains, fading.tag_fadings
        h_preamble = self.channel.channel_vector_batch(
            preamble_state, direct, tag
        )
        counts = np.bincount(codes.ravel(), minlength=len(STATE_CODES))
        if counts.size > len(STATE_CODES):
            raise ValueError(
                f"state codes must be below {len(STATE_CODES)}, "
                f"got {counts.size - 1}"
            )
        # Rows of absent codes stay unfilled: no subframe reads them.
        change_sq = np.empty((len(STATE_CODES),) + h_preamble.shape)
        for code in np.flatnonzero(counts).tolist():
            change = (
                self.channel.channel_vector_batch(
                    STATE_CODES[code], direct, tag
                )
                - h_preamble
            )
            change_sq[code] = np.abs(change) ** 2
        if telemetry is not None:
            telemetry.spans.add("channel", time.perf_counter() - start, n_q)

        n = h_preamble.shape[1]
        rx_snr = self._tx_ref_snr * np.mean(np.abs(h_preamble) ** 2, axis=1)
        scale = csi_noise_scale(
            h_preamble, np.maximum(rx_snr, 1e-12)[:, None]
        )
        block = min(n_q, DECODE_BLOCK_QUERIES)
        # Scratch for one block, allocated once per call.
        noise = np.empty((block, k, 2 * n))
        estimate = np.empty((block, k, n), dtype=complex)
        est_sq = np.empty((block, k, n))
        est_mismatch = np.empty((block, k, n))
        if _uniforms is not None:
            # Each query's subframe rows, split into views once per call.
            noise_rows = [list(per_query) for per_query in noise]
        effective = np.empty((n_q, k))
        for lo in range(0, n_q, block):
            hi = min(lo + block, n_q)
            m = hi - lo
            if telemetry is not None:
                start = time.perf_counter()
            # Per query, per subframe: n real draws, n imaginary draws,
            # then optionally the outcome uniform — the scalar order.
            # Without uniforms, one call draws a query's rows in that
            # same order.
            for q in range(lo, hi):
                rng = self.rng if rngs is None else rngs[q]
                if _uniforms is None:
                    rng.standard_normal(out=noise[q - lo])
                    continue
                draw_normals = rng.standard_normal
                draw_uniform = rng.random
                uniforms = []
                for row in noise_rows[q - lo]:
                    draw_normals(out=row)
                    uniforms.append(draw_uniform())
                _uniforms[q] = uniforms
            # The algebra runs in place on the scratch buffers.  Every
            # rewrite is bitwise-neutral: in-place multiply/add keep the
            # scalar expression's operand order up to commutativity
            # (exact for float multiply/add), and scaling the real noise
            # before packing it differs from the scalar complex-by-real
            # product ``scale * (re + 1j * im)`` only in the sign of a
            # zero part, which ``abs()**2`` erases.
            scaled = noise[:m].reshape(m, k, 2, n)
            np.multiply(scaled, scale[lo:hi, None, None, :], out=scaled)
            est = estimate[:m]
            est.real = scaled[:, :, 0]
            est.imag = scaled[:, :, 1]
            h_block = h_preamble[lo:hi, None, :]
            est += h_block
            safe_est_sq = np.abs(est, out=est_sq[:m])
            np.multiply(safe_est_sq, safe_est_sq, out=safe_est_sq)
            np.maximum(safe_est_sq, 1e-30, out=safe_est_sq)
            tag_mismatch = change_sq[
                codes[lo:hi], np.arange(lo, hi)[:, None]
            ]
            np.divide(tag_mismatch, safe_est_sq, out=tag_mismatch)
            np.multiply(tag_mismatch, self._mismatch_gain, out=tag_mismatch)
            np.subtract(h_block, est, out=est)
            mismatch = np.abs(est, out=est_mismatch[:m])
            np.multiply(mismatch, mismatch, out=mismatch)
            np.divide(mismatch, safe_est_sq, out=mismatch)
            np.multiply(safe_est_sq, self._tx_ref_snr, out=safe_est_sq)
            np.divide(1.0, safe_est_sq, out=safe_est_sq)  # the noise term
            np.add(tag_mismatch, mismatch, out=tag_mismatch)
            np.add(tag_mismatch, safe_est_sq, out=tag_mismatch)
            np.divide(1.0, tag_mismatch, out=tag_mismatch)
            if telemetry is not None:
                middle = time.perf_counter()
            effective[lo:hi] = eesm_effective_sinr_batch(
                tag_mismatch.reshape(m * k, n), self.mcs.modulation
            ).reshape(m, k)
            if telemetry is not None:
                telemetry.spans.add("csi", middle - start, m)
                telemetry.spans.add("eesm", time.perf_counter() - middle, m)
        if telemetry is not None:
            telemetry.observe_sinrs(effective)
        return effective

    def subframe_success_probabilities_batch2d(
        self,
        mpdu_bits,
        preamble_state: TagState,
        state_codes: np.ndarray,
        fading: FadingBatch,
        *,
        rngs: Sequence[np.random.Generator] | None = None,
        _uniforms: np.ndarray | None = None,
    ) -> np.ndarray:
        """Probability that each subframe of a chunk decodes.

        ``mpdu_bits`` may be scalar, a length-``n_subframes`` row shared
        by every query, or a full ``(n_queries, n_subframes)`` matrix.
        """
        sinrs = self.subframe_effective_sinrs_batch2d(
            preamble_state,
            state_codes,
            fading,
            rngs=rngs,
            _uniforms=_uniforms,
        )
        if self.telemetry is None:
            return mpdu_success_probabilities(self.mcs, mpdu_bits, sinrs)
        with self.telemetry.spans.span("phy.coding", len(sinrs)):
            return mpdu_success_probabilities(self.mcs, mpdu_bits, sinrs)

    def subframe_outcomes_batch2d(
        self,
        mpdu_bits,
        preamble_state: TagState,
        state_codes: np.ndarray,
        fading: FadingBatch,
        *,
        rngs: Sequence[np.random.Generator] | None = None,
    ) -> np.ndarray:
        """One Bernoulli decode outcome per subframe of a chunk.

        Returns a ``(n_queries, n_subframes)`` boolean matrix, True
        where the subframe's FCS passes.  The uniform deciding each
        subframe is drawn from the same stream, right after that
        subframe's CSI noise.  With ``rngs`` each row draws from its
        own generator instead (see
        :meth:`subframe_effective_sinrs_batch2d`).
        """
        uniforms = np.empty(np.shape(state_codes))
        decode = functools.partial(
            self.subframe_success_probabilities_batch2d,
            mpdu_bits,
            preamble_state,
            state_codes,
            fading,
            rngs=rngs,
            _uniforms=uniforms,
        )
        if self.telemetry is None:
            return uniforms < decode()
        with self.telemetry.spans.span("phy.error_model", len(uniforms)):
            return uniforms < decode()
