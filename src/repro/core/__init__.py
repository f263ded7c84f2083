"""WiTAG core: the paper's primary contribution as a library.

Public API for building query frames, running end-to-end tag
communication, and decoding tag data from block ACKs.
"""

from .arq import ArqTransfer, TransferReport
from .config import EncryptionMode, WiTagConfig
from .decoder import TagReader, bit_errors, raw_bits_from_block_ack
from .encoder import LineCode, TagEncoder
from .errors import (
    ConfigurationError,
    DecodeError,
    FecError,
    FramingError,
    WiTagError,
)
from .fec import (
    BlockInterleaver,
    HammingCode,
    InterleavedCode,
    NoCode,
    RepetitionCode,
)
from .fleet import MultiTagQueryResult, TagFleet
from .framing import TagMessage, bits_to_bytes, bytes_to_bits, deframe, scan_for_frames
from .query import QueryBuilder, QueryFrame, TRIGGER_PATTERN
from .rate_control import AdaptiveSession, QueryRateController
from .session import MeasurementSession, SessionStats
from .system import DEFAULT_AP, DEFAULT_CLIENT, QueryResult, WiTagSystem
from .throughput import (
    CycleBreakdown,
    analytic_throughput_bps,
    block_ack_airtime_s,
    query_cycle,
    subframe_airtime_s,
)

__all__ = [
    "ArqTransfer",
    "BlockInterleaver",
    "ConfigurationError",
    "CycleBreakdown",
    "DEFAULT_AP",
    "DEFAULT_CLIENT",
    "DecodeError",
    "EncryptionMode",
    "FecError",
    "FramingError",
    "HammingCode",
    "InterleavedCode",
    "LineCode",
    "MeasurementSession",
    "MultiTagQueryResult",
    "NoCode",
    "QueryBuilder",
    "QueryFrame",
    "AdaptiveSession",
    "QueryRateController",
    "QueryResult",
    "RepetitionCode",
    "SessionStats",
    "TRIGGER_PATTERN",
    "TagEncoder",
    "TagFleet",
    "TagMessage",
    "TagReader",
    "TransferReport",
    "WiTagConfig",
    "WiTagError",
    "WiTagSystem",
    "analytic_throughput_bps",
    "bit_errors",
    "bits_to_bytes",
    "block_ack_airtime_s",
    "bytes_to_bits",
    "deframe",
    "query_cycle",
    "raw_bits_from_block_ack",
    "scan_for_frames",
    "subframe_airtime_s",
]
