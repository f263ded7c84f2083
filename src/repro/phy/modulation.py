"""Modulation schemes and analytic bit-error-rate curves.

802.11n/ac use BPSK, QPSK, 16-QAM, 64-QAM and (VHT only) 256-QAM on each
OFDM data subcarrier.  WiTAG never demodulates symbols itself — the whole
point of the paper is that the tag operates above the PHY — but the
*simulation substrate* needs accurate uncoded BER curves to decide whether
an MPDU survives the channel, both in the benign case (no tag activity) and
when the tag has invalidated the receiver's channel estimate.

The closed forms below are the standard AWGN expressions built from the
Gaussian Q-function (see Proakis, *Digital Communications*):

* BPSK:   ``Pb = Q(sqrt(2 * snr))``
* QPSK:   same per-bit error rate as BPSK (Gray-coded quadrature).
* M-QAM:  ``Pb ~= 4/log2(M) * (1 - 1/sqrt(M)) * Q(sqrt(3*snr/(M-1)))``

where ``snr`` is the per-symbol signal-to-noise ratio (Es/N0).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erfc


def q_function(x: float) -> float:
    """Gaussian tail probability Q(x) = P[N(0,1) > x]."""
    return 0.5 * float(erfc(x / math.sqrt(2.0)))


class Modulation(enum.Enum):
    """Subcarrier modulations used by 802.11n/ac MCS indices."""

    BPSK = "BPSK"
    QPSK = "QPSK"
    QAM16 = "16-QAM"
    QAM64 = "64-QAM"
    QAM256 = "256-QAM"

    @property
    def bits_per_symbol(self) -> int:
        """Coded bits carried per subcarrier per OFDM symbol."""
        return _BITS[self]

    @property
    def constellation_size(self) -> int:
        """Number of constellation points (M)."""
        return 2 ** self.bits_per_symbol

    def bit_error_rate(self, snr_linear: float) -> float:
        """Uncoded bit error probability on an AWGN channel.

        Args:
            snr_linear: per-symbol SNR (Es/N0) as a linear ratio, >= 0.

        Returns:
            Probability in [0, 0.5] that a single coded bit is received in
            error before FEC decoding.
        """
        if snr_linear < 0:
            raise ValueError(f"SNR must be non-negative, got {snr_linear}")
        if snr_linear == 0.0:
            return 0.5
        if self in (Modulation.BPSK, Modulation.QPSK):
            # QPSK per-bit SNR equals Es/(2*N0); the per-bit error rate
            # matches BPSK when expressed in Eb/N0.  Using Es/N0 here:
            if self is Modulation.BPSK:
                return q_function(math.sqrt(2.0 * snr_linear))
            return q_function(math.sqrt(snr_linear))
        m = self.constellation_size
        k = self.bits_per_symbol
        arg = math.sqrt(3.0 * snr_linear / (m - 1))
        ser_factor = 4.0 * (1.0 - 1.0 / math.sqrt(m)) * q_function(arg)
        return min(0.5, ser_factor / k)

    def bit_error_rate_array(self, snr_linear) -> "np.ndarray":
        """Vectorized :meth:`bit_error_rate` over an array of SNRs.

        Applies the same closed forms elementwise (identical operations,
        so scalar and array evaluations agree bitwise); used by the
        PHY decode to price a whole chunk of subframes in one call.

        Args:
            snr_linear: array-like of per-symbol SNRs (Es/N0), all >= 0.

        Returns:
            Array of uncoded BERs in [0, 0.5], same shape as the input.
        """
        snr = np.asarray(snr_linear, dtype=float)
        if np.any(snr < 0):
            raise ValueError("SNRs must be non-negative")
        if self in (Modulation.BPSK, Modulation.QPSK):
            scaled = 2.0 * snr if self is Modulation.BPSK else snr
            ber = 0.5 * erfc(np.sqrt(scaled) / math.sqrt(2.0))
        else:
            m = self.constellation_size
            k = self.bits_per_symbol
            arg = np.sqrt(3.0 * snr / (m - 1))
            ser_factor = (
                4.0
                * (1.0 - 1.0 / math.sqrt(m))
                * (0.5 * erfc(arg / math.sqrt(2.0)))
            )
            ber = np.minimum(0.5, ser_factor / k)
        return np.where(snr == 0.0, 0.5, ber)

    def symbol_error_rate(self, snr_linear: float) -> float:
        """Uncoded symbol error probability on an AWGN channel."""
        if snr_linear < 0:
            raise ValueError(f"SNR must be non-negative, got {snr_linear}")
        if snr_linear == 0.0:
            return 1.0 - 1.0 / self.constellation_size
        if self is Modulation.BPSK:
            return q_function(math.sqrt(2.0 * snr_linear))
        if self is Modulation.QPSK:
            p = q_function(math.sqrt(snr_linear))
            return 1.0 - (1.0 - p) ** 2
        m = self.constellation_size
        sqrt_m = math.sqrt(m)
        p = 2.0 * (1.0 - 1.0 / sqrt_m) * q_function(
            math.sqrt(3.0 * snr_linear / (m - 1))
        )
        return 1.0 - (1.0 - p) ** 2


_BITS = {
    Modulation.BPSK: 1,
    Modulation.QPSK: 2,
    Modulation.QAM16: 4,
    Modulation.QAM64: 6,
    Modulation.QAM256: 8,
}


@dataclass(frozen=True)
class CodingRate:
    """Binary convolutional coding rate expressed as a fraction k/n."""

    numerator: int
    denominator: int

    def __post_init__(self) -> None:
        if not (0 < self.numerator <= self.denominator):
            raise ValueError(
                f"invalid coding rate {self.numerator}/{self.denominator}"
            )

    @property
    def value(self) -> float:
        """The rate as a float in (0, 1]."""
        return self.numerator / self.denominator

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.numerator}/{self.denominator}"


#: The coding rates used by 802.11n/ac MCSs.
RATE_1_2 = CodingRate(1, 2)
RATE_2_3 = CodingRate(2, 3)
RATE_3_4 = CodingRate(3, 4)
RATE_5_6 = CodingRate(5, 6)


def snr_db_to_linear(snr_db: float) -> float:
    """Convert an SNR in decibels to a linear power ratio."""
    return 10.0 ** (snr_db / 10.0)


def snr_linear_to_db(snr_linear: float) -> float:
    """Convert a linear SNR to decibels.

    Raises:
        ValueError: if the ratio is not strictly positive.
    """
    if snr_linear <= 0:
        raise ValueError(f"linear SNR must be > 0, got {snr_linear}")
    return 10.0 * math.log10(snr_linear)
