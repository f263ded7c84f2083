"""Channel estimation, equalization and effective-SINR computation.

802.11 receivers estimate per-subcarrier channel state information (CSI)
from the known training symbols in the PHY preamble (paper §3.2) and use
that single estimate to equalize *every* OFDM symbol that follows.  WiTAG
exploits precisely this: if the channel changes after the preamble, the
stale estimate turns into a multiplicative distortion that the receiver
cannot distinguish from noise.

Given the true channel ``h_a`` during a subframe and the (preamble-time)
estimate ``h_e``, a zero-forcing equalizer outputs

    ``x_hat = (h_a / h_e) x + n / h_e``

so the post-equalization SINR per subcarrier is

    ``SINR = P / ( P |h_a/h_e - 1|^2  +  N / |h_e|^2 )``

Across subcarriers we reduce to a single *effective* SINR with the
exponential effective SNR mapping (EESM), the standard abstraction used in
802.11/LTE system simulators.
"""

from __future__ import annotations

import numpy as np

from .modulation import Modulation

#: EESM beta calibration per modulation (typical literature values).
EESM_BETA: dict[Modulation, float] = {
    Modulation.BPSK: 1.0,
    Modulation.QPSK: 1.6,
    Modulation.QAM16: 5.0,
    Modulation.QAM64: 18.0,
    Modulation.QAM256: 36.0,
}


def csi_noise_scale(
    true_channel: np.ndarray,
    snr_linear: float | np.ndarray,
    *,
    n_training_symbols: int = 2,
) -> np.ndarray:
    """Per-subcarrier standard deviation of the CSI estimation error.

    The estimate equals the true channel during the preamble plus
    complex Gaussian error whose variance shrinks with SNR and with the
    number of training symbols averaged (L-LTF has two repetitions):
    the decode scales unit Gaussians by exactly this array.

    ``snr_linear`` may be a scalar, or an array broadcastable against
    ``true_channel`` (the session-batch engine passes per-coherence-
    interval SNRs of shape ``(n_queries, 1)`` with channels of shape
    ``(n_queries, n_subcarriers)``).

    Raises:
        ValueError: for non-positive SNR or training count.
    """
    snr = np.asarray(snr_linear, dtype=float)
    if np.any(snr <= 0):
        raise ValueError(f"SNR must be > 0, got {snr_linear}")
    if n_training_symbols < 1:
        raise ValueError(
            f"need >= 1 training symbol, got {n_training_symbols}"
        )
    h = np.asarray(true_channel, dtype=complex)
    return np.abs(h) / np.sqrt(2.0 * snr * n_training_symbols)


def eesm_effective_sinr_batch(
    sinrs_linear: np.ndarray, modulation: Modulation
) -> np.ndarray:
    """Exponential effective SNR mapping, one row per subframe.

    ``SINR_eff = -beta * ln( mean( exp(-SINR_k / beta) ) )``

    EESM compresses a frequency-selective SINR vector into the single
    AWGN SINR that yields the same coded error rate; ``beta`` is
    calibrated per modulation.  The log-sum-exp is anchored at each
    row's minimum SINR: numerically stable for arbitrarily large or
    small SINRs, and exactly equal to the textbook expression.
    Reductions along the contiguous last axis of a 2-D array use the
    same pairwise summation as their 1-D counterparts, so each row's
    result is bitwise equal to the one-row computation.

    ``exp`` runs only where the exponent is above -746: below it,
    ``e**x`` rounds to 0.0 (the smallest subnormal is ``e**-744.4``),
    and numpy's ``exp`` takes a slow path for such arguments, which
    make up about half of a real decode's.  Those terms stay exactly
    0.0, so the sum, the log and the result are unchanged.

    Args:
        sinrs_linear: ``(k, n_subcarriers)`` matrix, one row per subframe.

    Returns:
        Length-``k`` vector of effective SINRs.
    """
    sinrs = np.ascontiguousarray(sinrs_linear, dtype=float)
    if sinrs.ndim != 2 or sinrs.shape[1] == 0:
        raise ValueError(
            f"need a (k, n_subcarriers) matrix, got shape {sinrs.shape}"
        )
    minimum = np.min(sinrs, axis=1)
    if np.any(minimum < 0):
        raise ValueError("SINRs must be non-negative")
    beta = EESM_BETA[modulation]
    exponent = minimum[:, None] - sinrs
    exponent /= beta
    shifted = np.exp(
        exponent, out=np.zeros_like(exponent), where=exponent > -746.0
    )
    return minimum - beta * np.log(np.mean(shifted, axis=1))
