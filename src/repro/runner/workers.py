"""Reusable, picklable work functions for common experiments.

Process-pool work functions must be importable top-level callables;
this module collects the ones shared by the CLI, the benchmarks and the
scaling tests so every consumer parallelizes the same physics.  All of
them draw randomness exclusively from their :class:`UnitContext`, so
any sweep built on them inherits the engine's determinism contract.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from ..core.fleet import TagFleet
from ..core.session import MeasurementSession
from ..obs.runtime import attach_active, attach_active_fleet
from ..sim.scenario import los_scenario, nlos_scenario
from .engine import UnitContext

__all__ = [
    "AdaptiveLinkSpec",
    "FleetSpec",
    "SessionSpec",
    "adaptive_link_stats",
    "fleet_poll_stats",
    "los_ber_point",
    "nlos_session_stats",
    "rng_probe",
]


@dataclass(frozen=True)
class SessionSpec:
    """Picklable session description for process-pool workers.

    The parallel engine rebuilds every session inside its worker; the
    cheapest thing to ship across the process boundary is a plain
    config, not a live simulator object graph (generators, cached
    channel vectors and memoized frames neither pickle small nor
    should they be shared).  A ``SessionSpec`` is exactly that config:
    calling it with a :class:`UnitContext` builds a fresh
    :class:`MeasurementSession` from scenario parameters and the
    context's substreams, so it can be passed directly as the
    ``build`` argument of :func:`repro.runner.run_sessions` /
    :func:`repro.core.session.run_parallel_sessions`.

    Attributes:
        kind: ``"los"`` (paper Fig. 5 geometry; reads
            ``tag_from_client_m`` from ``ctx.parameters["distance_m"]``
            when present, else :attr:`distance_m`) or ``"nlos"``
            (Fig. 6 locations via :attr:`location` /
            ``ctx.parameters["location"]``).
        distance_m: default LOS tag-from-client distance.
        location: default NLOS location key.
        phy_fast_path: per-A-MPDU vectorized decode flag.
        session_fast_path: batched session engine flag.
        batch_queries: session-engine chunk size.
        data_stream: context substream index for the session's random
            data bits.
    """

    kind: str = "los"
    distance_m: float = 4.0
    location: str = "A"
    phy_fast_path: bool = True
    session_fast_path: bool = True
    batch_queries: int = 256
    data_stream: int = 1

    def __post_init__(self) -> None:
        if self.kind not in ("los", "nlos"):
            raise ValueError(f"kind must be 'los' or 'nlos', got {self.kind}")

    def __call__(self, ctx: UnitContext) -> MeasurementSession:
        if self.kind == "los":
            distance_m = float(
                ctx.parameters.get("distance_m", self.distance_m)
            )
            system, _info = los_scenario(
                distance_m,
                seed=ctx.seed,
                phy_fast_path=self.phy_fast_path,
            )
        else:
            location = str(ctx.parameters.get("location", self.location))
            system, _info = nlos_scenario(
                location,
                seed=ctx.seed,
                phy_fast_path=self.phy_fast_path,
            )
        return MeasurementSession(
            system,
            rng=ctx.rng(self.data_stream),
            session_fast_path=self.session_fast_path,
            batch_queries=self.batch_queries,
        )


@dataclass(frozen=True)
class FleetSpec:
    """Picklable fleet description for process-pool workers.

    The fleet analogue of :class:`SessionSpec`: calling it with a
    :class:`UnitContext` builds a fresh
    :class:`repro.core.fleet.TagFleet` inside the worker — tag
    positions drawn uniformly over a warehouse floorplan from the
    context's position substream, link/tag/error streams derived from
    ``ctx.seed`` by ``TagFleet.build`` — so fleet workloads ride the
    same engine machinery (process pools, chunk integrity checks,
    checkpoint/resume) as session workloads.

    Attributes:
        n_tags: fleet size.
        floor_m: ``(width, height)`` of the floorplan; tags land
            uniformly in ``[1, width] x [-height/2, height/2]`` (the
            1 m standoff keeps every tag clear of the reader antennas
            on the ``y = 0`` axis).
        client_xy / ap_xy: reader antenna positions.
        batch_tags: decode chunk size (memory bound; results are
            bit-identical for any value).
        phy_exact_coding: exact per-subframe coded BER instead of the
            interpolation table (bitwise-matches the scalar reference).
        position_stream: context substream index for tag placement.
    """

    n_tags: int = 100
    floor_m: tuple[float, float] = (30.0, 20.0)
    client_xy: tuple[float, float] = (0.0, 0.0)
    ap_xy: tuple[float, float] = (8.0, 0.0)
    batch_tags: int = 256
    phy_exact_coding: bool = False
    position_stream: int = 2

    def __post_init__(self) -> None:
        if self.n_tags < 1:
            raise ValueError("n_tags must be >= 1")
        if min(self.floor_m) <= 0:
            raise ValueError("floorplan dimensions must be positive")

    def __call__(self, ctx: UnitContext) -> TagFleet:
        n_tags = int(ctx.parameters.get("n_tags", self.n_tags))
        rng = ctx.rng(self.position_stream)
        width, height = self.floor_m
        positions = np.column_stack(
            [
                rng.uniform(1.0, width, n_tags),
                rng.uniform(-height / 2.0, height / 2.0, n_tags),
            ]
        )
        return TagFleet.build(
            positions,
            client_xy=self.client_xy,
            ap_xy=self.ap_xy,
            seed=ctx.seed,
            batch_tags=self.batch_tags,
            phy_exact_coding=self.phy_exact_coding,
        )


def fleet_poll_stats(
    ctx: UnitContext,
    *,
    spec: FleetSpec | None = None,
    rounds: int = 1,
    bits_per_tag: int = 64,
    data_stream: int = 1,
) -> dict[str, Any]:
    """One fleet polling workload: ``rounds`` addressed rounds per unit.

    Builds the unit's fleet from ``spec`` (default :class:`FleetSpec`),
    queues ``bits_per_tag`` random bits on every tag from the unit's
    data substream, polls, and returns JSON-safe aggregates.
    """
    fleet = (spec or FleetSpec())(ctx)
    attach_active_fleet(fleet)
    data_rng = ctx.rng(data_stream)
    for name in fleet.names:
        fleet.load_bits(
            name, [int(b) for b in data_rng.integers(0, 2, bits_per_tag)]
        )
    queries = responded = bits_sent = bit_errors = 0
    for _ in range(rounds):
        for name, result in fleet.poll_round().items():
            queries += 1
            if name in result.per_tag_sent:
                responded += 1
                sent = result.per_tag_sent[name]
                received = result.raw_bits[: len(sent)]
                bits_sent += len(sent)
                bit_errors += sum(
                    1 for s, r in zip(sent, received) if s != r
                )
    return {
        "index": ctx.index,
        "seed": ctx.seed,
        "n_tags": fleet.n_tags,
        "rounds": rounds,
        "queries": queries,
        "responded": responded,
        "bits_sent": bits_sent,
        "bit_errors": bit_errors,
    }


@dataclass(frozen=True)
class AdaptiveLinkSpec:
    """Picklable adaptive-FEC-link description for pool workers.

    The traffic-aware analogue of :class:`SessionSpec`: calling it with
    a :class:`UnitContext` builds a complete
    :class:`repro.traffic.AdaptiveFecLink` — LOS scenario, bursty
    ON/OFF ambient traffic, predictive opportunity scheduler, energy
    simulator and redundancy controller — entirely from the context's
    substreams, so a sweep of adaptive links is bit-identical between
    serial and process-pool execution and between the scalar and batch
    session engines (``tests/test_session_batch.py`` pins this).

    With ``adaptive=False`` the same machinery runs the static-paper
    baseline: the scheduler rides every window
    (``ride_threshold=1.0``) and the controller is a single fixed rung
    (``static_nsym`` parity symbols), so the two legs differ only in
    policy.

    Attributes:
        adaptive: traffic-aware scheduling + feedback-driven redundancy
            (True) or the ride-everything fixed-redundancy baseline.
        distance_m: LOS tag-from-client distance.
        n_contenders: contending CSMA stations in the scenario.
        rate_fps: ambient frame rate during traffic bursts.
        mean_on_s / mean_off_s: mean ON/OFF sojourn durations.
        window_s: transmission-opportunity window duration.
        ride_threshold: forecast busy fraction at or below which the
            scheduler rides (adaptive leg).
        block_k: Reed-Solomon data bytes per FEC block.
        levels: redundancy ladder (RS parity counts) for the adaptive
            controller.
        static_nsym: the static leg's fixed parity count.
        increase_threshold: block corruption that steps the ladder up.
            The default sits *above* the erasure floor from unavoidable
            burst-onset mispredictions (exponential OFF sojourns are
            memoryless, so onsets cannot be forecast causally) — extra
            parity cannot fix a window destroyed by collisions, so the
            controller must not chase that corruption.
        decrease_after_clean: clean rounds before easing a rung down.
        session_fast_path: batched session engine flag.
    """

    adaptive: bool = True
    distance_m: float = 2.0
    n_contenders: int = 4
    rate_fps: float = 600.0
    mean_on_s: float = 0.30
    mean_off_s: float = 0.45
    window_s: float = 0.02
    ride_threshold: float = 0.35
    block_k: int = 8
    levels: tuple[int, ...] = (2, 4, 8, 16)
    static_nsym: int = 8
    increase_threshold: float = 0.25
    decrease_after_clean: int = 2
    session_fast_path: bool = True

    def __call__(self, ctx: UnitContext) -> Any:
        from ..core.rate_control import RedundancyController
        from ..tag.energy import EnergySimulator
        from ..traffic import (
            AdaptiveFecLink,
            HoltPredictor,
            OnOffTraffic,
            OpportunityScheduler,
            ScheduledSession,
        )

        system, _info = los_scenario(
            float(ctx.parameters.get("distance_m", self.distance_m)),
            seed=ctx.seed,
            n_contenders=self.n_contenders,
        )
        # The equivalence gate flips session_fast_path; exact coding
        # makes the batch engine bitwise-match the scalar loop.
        system.phy_exact_coding = True
        session = MeasurementSession(
            system,
            rng=ctx.rng(1),
            session_fast_path=self.session_fast_path,
        )
        traffic = OnOffTraffic(
            rate_fps=self.rate_fps,
            mean_on_s=self.mean_on_s,
            mean_off_s=self.mean_off_s,
            rng=ctx.rng(3),
        )
        if self.adaptive:
            scheduler = OpportunityScheduler(
                predictor=HoltPredictor(),
                ride_threshold=self.ride_threshold,
            )
            controller = RedundancyController(
                levels=self.levels,
                increase_threshold=self.increase_threshold,
                decrease_after_clean=self.decrease_after_clean,
            )
        else:
            scheduler = OpportunityScheduler(
                predictor=HoltPredictor(), ride_threshold=1.0
            )
            controller = RedundancyController(levels=(self.static_nsym,))
        scheduled = ScheduledSession(
            session,
            traffic,
            scheduler=scheduler,
            window_s=self.window_s,
            interference_rng=ctx.rng(4),
            energy=EnergySimulator(),
        )
        return AdaptiveFecLink(
            scheduled,
            controller=controller,
            block_k=self.block_k,
            message_rng=ctx.rng(5),
            adaptive=self.adaptive,
        )


def adaptive_link_stats(
    ctx: UnitContext,
    *,
    spec: AdaptiveLinkSpec | None = None,
    rounds: int = 6,
    windows_per_round: int = 100,
) -> dict[str, Any]:
    """One adaptive-link workload: ``rounds`` feedback rounds per unit.

    Builds the unit's link from ``spec`` (default
    :class:`AdaptiveLinkSpec`), runs it, and returns JSON-safe
    aggregates — including the per-round redundancy-rung trajectory and
    ride/skip decision digest the equivalence gate compares across
    execution tiers.
    """
    link = (spec or AdaptiveLinkSpec())(ctx)
    report = link.run(rounds, windows_per_round)
    decisions = link.scheduled.decisions
    return {
        "index": ctx.index,
        "seed": ctx.seed,
        "adaptive": link.adaptive,
        "windows": len(decisions),
        "rides": sum(1 for d in decisions if d.ride),
        "decision_bits": "".join("1" if d.ride else "0" for d in decisions),
        "rungs": [r.nsym for r in report.rounds],
        "message_bits": report.message_bits,
        "delivered_bits": report.delivered_bits,
        "block_error_rate": report.block_error_rate,
        "goodput_bps": report.goodput_bps,
        "elapsed_s": report.elapsed_s,
        "energy_j": report.energy_j,
        "energy_per_bit_uj": report.energy_per_bit_uj,
    }


def rng_probe(ctx: UnitContext) -> dict[str, Any]:
    """A cheap physics-free unit: the unit's first few substream draws.

    Useful wherever a sweep's *execution* is under test rather than its
    physics — fault-injection suites and checkpoint/resume roundtrips.
    The values are a pure function of ``(root_seed, index)``, so any
    retried, resumed or rescheduled run must reproduce them
    bit-for-bit; any drift is an engine bug, not a simulator change.
    """
    draws = ctx.rng(0).random(4)
    return {
        "index": ctx.index,
        "seed": ctx.seed,
        "draws": [float(d) for d in draws],
    }


def los_ber_point(
    ctx: UnitContext,
    *,
    sim_seconds: float = 1.0,
    phy_fast_path: bool = True,
    session_fast_path: bool = True,
) -> dict[str, Any]:
    """One Figure-5-style LOS point: BER/throughput at a tag distance.

    Expects ``ctx.parameters["distance_m"]``.  Scenario and data-bit
    streams derive from the unit's substreams, so the same root seed
    reproduces the same point bit-for-bit on any worker layout.
    ``phy_fast_path=False`` selects the scalar PHY reference loop;
    ``session_fast_path`` likewise selects between the batched
    session engine and the scalar per-query loop (bitwise-identical
    results either way).
    """
    distance_m = float(ctx.parameters["distance_m"])
    system, info = los_scenario(
        distance_m, seed=ctx.seed, phy_fast_path=phy_fast_path
    )
    attach_active(system)
    session = MeasurementSession(
        system, rng=ctx.rng(1), session_fast_path=session_fast_path
    )
    stats = session.run_for(sim_seconds)
    return {
        "distance_m": distance_m,
        "ber": stats.ber,
        "throughput_kbps": stats.throughput_bps / 1e3,
        "queries": stats.queries,
        "missed_triggers": stats.missed_triggers,
        "link_snr_db": info.link_snr_db,
    }


def nlos_session_stats(
    ctx: UnitContext, *, sim_seconds: float = 0.5
) -> dict[str, Any]:
    """One Figure-6-style NLOS run at ``ctx.parameters["location"]``."""
    location = str(ctx.parameters["location"])
    system, info = nlos_scenario(location, seed=ctx.seed)
    attach_active(system)
    session = MeasurementSession(system, rng=ctx.rng(1))
    stats = session.run_for(sim_seconds)
    return {
        "location": location,
        "ber": stats.ber,
        "throughput_kbps": stats.throughput_bps / 1e3,
        "queries": stats.queries,
        "link_snr_db": info.link_snr_db,
    }
