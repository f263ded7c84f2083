"""802.11n/ac physical-layer substrate.

Provides the OFDM timing, MCS rate tables, channel models, CSI estimation
and per-MPDU error models on which the WiTAG reproduction is built.  See
DESIGN.md for how each piece substitutes for the paper's hardware testbed.
"""

from .airtime import PpduTiming, SubframeSchedule, ppdu_airtime, subframe_schedule
from .channel import (
    STATE_CODES,
    BackscatterChannel,
    ChannelGeometry,
    PathLossModel,
    TagAntenna,
    TagState,
)
from .coding import coded_bit_error_rate, packet_error_rate
from .constants import Band, MAX_AMPDU_SUBFRAMES
from .error_model import FadingSample, LinkErrorModel
from .fading import CorrelatedFadingChannel, GaussMarkovFading
from .mcs import Mcs, highest_reliable_mcs, ht_mcs, vht_mcs
from .modulation import CodingRate, Modulation, snr_db_to_linear, snr_linear_to_db
from .noise import ReceiverNoise, dbm_to_watts, thermal_noise_dbm, watts_to_dbm
from .preamble import PhyFormat, PreambleInfo, preamble_info
from .waveform import OfdmModem, TagChannelWaveform, run_corruption_experiment

__all__ = [
    "Band",
    "BackscatterChannel",
    "ChannelGeometry",
    "CodingRate",
    "CorrelatedFadingChannel",
    "FadingSample",
    "GaussMarkovFading",
    "LinkErrorModel",
    "MAX_AMPDU_SUBFRAMES",
    "Mcs",
    "Modulation",
    "OfdmModem",
    "PathLossModel",
    "PhyFormat",
    "PpduTiming",
    "PreambleInfo",
    "ReceiverNoise",
    "STATE_CODES",
    "SubframeSchedule",
    "TagAntenna",
    "TagChannelWaveform",
    "TagState",
    "coded_bit_error_rate",
    "dbm_to_watts",
    "highest_reliable_mcs",
    "ht_mcs",
    "packet_error_rate",
    "ppdu_airtime",
    "run_corruption_experiment",
    "preamble_info",
    "snr_db_to_linear",
    "snr_linear_to_db",
    "subframe_schedule",
    "thermal_noise_dbm",
    "vht_mcs",
    "watts_to_dbm",
]
