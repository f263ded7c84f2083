"""WiTAG reproduction: MAC-layer WiFi backscatter communication.

A full, simulation-backed reproduction of *WiTAG: Rethinking Backscatter
Communication for WiFi Networks* (Abedi, Mazaheri, Abari, Brecht --
HotNets 2018).

Subpackages:
    * :mod:`repro.core` -- the paper's contribution: query building, tag
      bit encoding/decoding via block ACKs, end-to-end system, sessions.
    * :mod:`repro.phy` -- 802.11n/ac PHY substrate (OFDM, MCS, channels,
      CSI, error models).
    * :mod:`repro.mac` -- 802.11 MAC substrate (frames, A-MPDU, block ACK,
      DCF, WEP/CCMP).
    * :mod:`repro.tag` -- tag hardware models (switch, antenna, oscillator,
      envelope detector, FSM, power, harvesting).
    * :mod:`repro.sim` -- scenarios, floor plans, event loop, tracing.
    * :mod:`repro.baselines` -- prior-system models and the requirements
      comparison.
    * :mod:`repro.analysis` -- BER/CDF/statistics utilities.
    * :mod:`repro.runner` -- parallel experiment engine with a
      bit-identical-for-any-worker-count determinism contract.
    * :mod:`repro.seeding` -- SeedSequence-based stream derivation.

Quickstart:
    >>> from repro.sim import los_scenario
    >>> from repro.core import MeasurementSession
    >>> system, info = los_scenario(tag_from_client_m=2.0, seed=1)
    >>> stats = MeasurementSession(system).run_queries(50)
    >>> stats.ber < 0.05
    True
"""

from importlib import metadata as _metadata

try:
    __version__ = _metadata.version("repro")
except _metadata.PackageNotFoundError:
    # Running from a source tree (PYTHONPATH=src) without an installed
    # distribution: fall back to the version pinned in pyproject.toml.
    __version__ = "1.0.0"

__all__ = ["__version__"]
