"""Coded bit-error-rate model for the 802.11 binary convolutional code.

All 802.11n/ac MCSs use the industry-standard rate-1/2, constraint-length-7
convolutional code (generator polynomials 133/171 octal), punctured up to
2/3, 3/4 or 5/6.  Simulating Viterbi decoding per bit would be prohibitively
slow for minute-long experiments, so — as is standard in 802.11 system-level
simulators (e.g. ns-3's error-rate models) — we use the union bound on the
first-event error probability:

    P_u <= sum_{d >= d_free} a_d * P2(d)

where ``a_d`` are the weight-spectrum coefficients of the punctured code and
``P2(d)`` is the pairwise error probability between codewords at Hamming
distance ``d`` on a BSC with crossover probability ``p`` (the uncoded BER
from :mod:`repro.phy.modulation`):

    P2(d) = sum_{k > d/2} C(d,k) p^k (1-p)^(d-k)        (d odd)
    P2(d) = 1/2 C(d,d/2) p^(d/2) (1-p)^(d/2) + ...      (d even)

The weight spectra below are the published values for the 133/171 code and
its standard puncturing patterns (Frenger et al., "Multi-rate convolutional
codes", and the tables used by ns-3/Matlab WLAN toolboxes).

The vectorized decode interpolates a log-log table of the bound per
coding rate.  All four tables are built once, when this module is
imported, from one grid of powers ``p**k`` and ``(1-p)**j`` shared by
every rate.  Each entry is bitwise the per-point union bound
(``tests/oracles/coding.py`` keeps that fill as the reference), and
worker processes forked afterwards inherit the tables instead of
building them again.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .modulation import CodingRate, RATE_1_2, RATE_2_3, RATE_3_4, RATE_5_6

#: Weight spectra: coding rate -> (d_free, [a_d for d = d_free .. d_free+9]).
_WEIGHT_SPECTRA: dict[tuple[int, int], tuple[int, tuple[int, ...]]] = {
    (1, 2): (10, (11, 0, 38, 0, 193, 0, 1331, 0, 7275, 0)),
    (2, 3): (6, (1, 16, 48, 158, 642, 2435, 9174, 34701, 131533, 499312)),
    (3, 4): (5, (8, 31, 160, 892, 4512, 23307, 121077, 625059, 3234886, 16753077)),
    (5, 6): (4, (14, 69, 654, 4996, 39677, 314973, 2503576, 19875546, 157824160, 1253169928)),
}


def _pairwise_error_probability(d: int, p: float) -> float:
    """Probability of choosing the wrong codeword at Hamming distance ``d``.

    ``p`` is the channel crossover probability (uncoded BER).
    """
    if p <= 0.0:
        return 0.0
    if p >= 0.5:
        return 0.5
    total = 0.0
    if d % 2 == 0:
        half = d // 2
        total += 0.5 * math.comb(d, half) * p**half * (1.0 - p) ** half
        start = half + 1
    else:
        start = (d + 1) // 2
    for k in range(start, d + 1):
        total += math.comb(d, k) * p**k * (1.0 - p) ** (d - k)
    return min(total, 1.0)


@lru_cache(maxsize=4096)
def _coded_ber_cached(rate_key: tuple[int, int], p_rounded: float) -> float:
    d_free, spectrum = _WEIGHT_SPECTRA[rate_key]
    bound = 0.0
    for offset, a_d in enumerate(spectrum):
        d = d_free + offset
        if a_d == 0:
            continue
        bound += a_d * _pairwise_error_probability(d, p_rounded)
    return min(0.5, bound)


def coded_bit_error_rate(rate: CodingRate, uncoded_ber: float) -> float:
    """Post-Viterbi bit error probability via the union bound.

    Args:
        rate: the punctured convolutional coding rate (1/2, 2/3, 3/4, 5/6).
        uncoded_ber: channel (pre-decoder) bit error probability in [0, 0.5].

    Returns:
        Estimated decoded BER, clipped to [0, 0.5].  The union bound is tight
        at the low BERs that matter for packet-error modelling and is clipped
        where it diverges (high channel BER), which the packet error model
        treats as certain loss anyway.

    Raises:
        ValueError: for an unsupported coding rate or out-of-range BER.
    """
    if not 0.0 <= uncoded_ber <= 0.5:
        raise ValueError(f"uncoded BER must be in [0, 0.5], got {uncoded_ber}")
    key = (rate.numerator, rate.denominator)
    if key not in _WEIGHT_SPECTRA:
        raise ValueError(f"unsupported coding rate {rate}")
    # Round to stabilise the cache.  That is an absolute step of 1e-9: a
    # BER below 5e-10 evaluates as exactly 0, where the true bound is at
    # most ~1e-17 even at rate 5/6, far below any effect observable in
    # packet-level experiments.
    p_rounded = round(uncoded_ber, 9)
    return _coded_ber_cached(key, p_rounded)


#: Grid bounds for the precomputed union-bound tables.  Below
#: ``TABLE_P_MIN`` the union bound is astronomically small (the rate-5/6
#: code, the weakest supported, gives ~1e-22 at p = 1e-12) and is treated
#: as exactly zero.
TABLE_P_MIN = 1e-12
TABLE_POINTS = 4096


def _build_coded_ber_tables() -> dict[tuple[int, int], tuple]:
    """Log-log sample grid of the union bound for every coding rate.

    Maps each rate to ``(log_p, log_coded)``: :data:`TABLE_POINTS`
    samples with ``p`` log-spaced over [:data:`TABLE_P_MIN`, 0.5].  The
    union bound is smooth and near-polynomial in log-log space, so
    linear interpolation on this grid reproduces the exact bound to
    better than 1e-3 relative error everywhere (asserted by the test
    suite).  Each sample is bitwise :func:`_coded_ber_cached` at its
    grid point: the powers come from Python's ``**`` (libm ``pow``,
    which numpy's vectorized power need not match bit for bit), and
    numpy only repeats the scalar multiplies, adds and clips in order.
    """
    log_p = np.linspace(
        math.log(TABLE_P_MIN), math.log(0.5), TABLE_POINTS
    )
    log_p.setflags(write=False)
    p = np.exp(log_p)
    grid = p.tolist()
    max_d = max(
        d_free + len(spectrum) - 1
        for d_free, spectrum in _WEIGHT_SPECTRA.values()
    )
    p_pow = [np.array([x**k for x in grid]) for k in range(max_d + 1)]
    q_pow = [
        np.array([(1.0 - x) ** j for x in grid]) for j in range(max_d // 2 + 1)
    ]
    tables = {}
    for rate_key, (d_free, spectrum) in _WEIGHT_SPECTRA.items():
        bound = np.zeros_like(p)
        for offset, a_d in enumerate(spectrum):
            d = d_free + offset
            if a_d == 0:
                continue
            total = np.zeros_like(p)
            if d % 2 == 0:
                half = d // 2
                total += 0.5 * math.comb(d, half) * p_pow[half] * q_pow[half]
                start = half + 1
            else:
                start = (d + 1) // 2
            for k in range(start, d + 1):
                total += math.comb(d, k) * p_pow[k] * q_pow[d - k]
            total = np.where(p >= 0.5, 0.5, np.minimum(total, 1.0))
            bound += a_d * np.where(p <= 0.0, 0.0, total)
        # The bound is strictly positive for p > 0; clip defensively so
        # the log never sees a zero.
        log_coded = np.log(np.maximum(np.minimum(0.5, bound), 1e-300))
        log_coded.setflags(write=False)
        tables[rate_key] = (log_p, log_coded)
    return tables


_CODED_BER_TABLES = _build_coded_ber_tables()


def coded_bit_error_rate_batch(rate: CodingRate, uncoded_ber) -> np.ndarray:
    """Vectorized :func:`coded_bit_error_rate` via table interpolation.

    This is the coding read of the PHY decode: it
    interpolates the rate's union-bound table in log-log space instead
    of evaluating the weight-spectrum sum per value.  The tables are
    built once at import from a power grid shared by all rates, are
    bitwise the per-point union bound (``tests/oracles/coding.py``), and
    are inherited by forked workers, so no call here fills anything.
    Accuracy is better than 1e-3 relative against the exact bound;
    uncoded BERs below :data:`TABLE_P_MIN` map to exactly 0 (the bound
    there is < 1e-22).  :func:`coded_bit_error_rate` remains the exact
    reference.

    Args:
        rate: the punctured convolutional coding rate (1/2, 2/3, 3/4, 5/6).
        uncoded_ber: array-like of channel BERs, each in [0, 0.5].

    Returns:
        Array of decoded BERs in [0, 0.5], same shape as the input.

    Raises:
        ValueError: for an unsupported coding rate or out-of-range BER.
    """
    p = np.asarray(uncoded_ber, dtype=float)
    if np.any((p < 0.0) | (p > 0.5)):
        raise ValueError("uncoded BER values must be in [0, 0.5]")
    key = (rate.numerator, rate.denominator)
    if key not in _WEIGHT_SPECTRA:
        raise ValueError(f"unsupported coding rate {rate}")
    log_p_grid, log_coded_grid = _CODED_BER_TABLES[key]
    out = np.zeros_like(p)
    in_table = p > TABLE_P_MIN
    if np.any(in_table):
        interp = np.exp(
            np.interp(np.log(p[in_table]), log_p_grid, log_coded_grid)
        )
        out[in_table] = np.minimum(0.5, interp)
    return out


def packet_error_rate_batch(coded_ber, length_bits) -> np.ndarray:
    """Vectorized :func:`packet_error_rate` (same log1p/expm1 formulation).

    Args:
        coded_ber: array-like of decoded BERs.
        length_bits: packet length(s) in bits — a scalar or an array
            broadcastable against ``coded_ber``.
    """
    ber = np.asarray(coded_ber, dtype=float)
    bits = np.asarray(length_bits)
    if np.any(bits < 0):
        raise ValueError("length_bits must be >= 0")
    safe = np.clip(ber, 0.0, np.nextafter(0.5, 0.0))
    per = -np.expm1(bits * np.log1p(-safe))
    per = np.where(ber >= 0.5, 1.0, per)
    return np.where(ber <= 0.0, 0.0, per)


def packet_error_rate(coded_ber: float, length_bits: int) -> float:
    """Probability that a packet of ``length_bits`` contains >= 1 bit error.

    Assumes independent bit errors after interleaving, the standard
    system-level approximation: ``PER = 1 - (1 - BER)^L``.
    """
    if length_bits < 0:
        raise ValueError(f"length_bits must be >= 0, got {length_bits}")
    if coded_ber <= 0.0:
        return 0.0
    if coded_ber >= 0.5:
        return 1.0
    # log1p formulation avoids underflow for tiny BERs on long frames.
    return -math.expm1(length_bits * math.log1p(-coded_ber))


SUPPORTED_RATES = (RATE_1_2, RATE_2_3, RATE_3_4, RATE_5_6)
