"""Measurement analysis: BER estimation, CDFs, summaries, text reports."""

from .ber import BitErrorCounter
from .cdf import EmpiricalCdf
from .reporting import Table, format_value
from .stats import Summary, db, geometric_mean

__all__ = [
    "BitErrorCounter",
    "EmpiricalCdf",
    "Summary",
    "Table",
    "db",
    "format_value",
    "geometric_mean",
]
