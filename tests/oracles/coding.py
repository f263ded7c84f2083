"""The per-point fill of the coded-BER interpolation tables.

:mod:`repro.phy.coding` builds all four union-bound tables at import,
from one grid of powers shared by every rate; this is the fill each of
them must equal byte for byte.  Every grid point goes through the
production scalar bound, ``_coded_ber_cached``, unrounded.
"""

import math

import numpy as np

from repro.phy.coding import TABLE_P_MIN, TABLE_POINTS, _coded_ber_cached


def coded_ber_table_reference(
    rate_key: tuple[int, int],
) -> tuple[np.ndarray, np.ndarray]:
    """``(log_p, log_coded)`` for one rate, one scalar bound per point."""
    log_p = np.linspace(
        math.log(TABLE_P_MIN), math.log(0.5), TABLE_POINTS
    )
    coded = np.array(
        [_coded_ber_cached(rate_key, float(p)) for p in np.exp(log_p)]
    )
    return log_p, np.log(np.maximum(coded, 1e-300))
