"""Deployment scenarios: geometry, floor plans, event loop, tracing."""

from ..seeding import named_rngs, spawn_rngs
from .events import EventLoop
from .floorplan import FloorPlan, los_testbed, paper_testbed
from .geometry import Material, PathProfile, Point, Wall, path_profile
from .network import (
    FleetNetwork,
    FleetRoundStats,
    NearestApPolicy,
    PollResult,
    RandomWalkMobility,
    ReaderCell,
    StrongestRxPolicy,
    TagPoller,
    TrafficStation,
)
from .scenario import (
    DEFAULT_TX_POWER_DBM,
    ScenarioInfo,
    build_system,
    los_scenario,
    nlos_scenario,
)
from .pcap import PcapWriter, read_pcap
from .trace import TraceRecord, TraceWriter

__all__ = [
    "DEFAULT_TX_POWER_DBM",
    "EventLoop",
    "FleetNetwork",
    "FleetRoundStats",
    "FloorPlan",
    "Material",
    "NearestApPolicy",
    "PathProfile",
    "PcapWriter",
    "Point",
    "PollResult",
    "RandomWalkMobility",
    "ReaderCell",
    "ScenarioInfo",
    "StrongestRxPolicy",
    "TagPoller",
    "TraceRecord",
    "TraceWriter",
    "TrafficStation",
    "Wall",
    "build_system",
    "los_scenario",
    "los_testbed",
    "named_rngs",
    "nlos_scenario",
    "paper_testbed",
    "read_pcap",
    "path_profile",
    "spawn_rngs",
]
