"""Fleet-scale telemetry: the engine equals the oracle cell's records.

The claim: attaching a :class:`repro.obs.Telemetry` to a
:class:`repro.core.fleet.TagFleet` produces *exactly* the metric
snapshot and trace records the object-graph
:class:`tests.oracles.link.MultiTagCell` oracle produces for the
same physics — for any ``batch_tags`` chunking, and through the
parallel engine for any worker count (chunk-ordered
``TelemetryAggregate`` merge).  Everything both paths record is
computed from the bitwise-identical query results the equivalence
suite (``tests/test_fleet.py``) already guarantees, so these tests
pin the instrumentation itself: same counters, same histogram sums
(SINR to the ULP), same digests.

Also covered here: the :class:`repro.sim.network.FleetNetwork` hooks
(per-AP rounds, handoffs, mobility invalidations, CSMA contention
stalls) and their zero-perturbation contract — attaching telemetry
must not change a single simulated value.
"""

import functools

import numpy as np
import pytest

from repro.core.fleet import TagFleet
from repro.obs import Telemetry, TraceSampler, TraceWriter, read_trace
from repro.runner import UnitContext, run_units
from repro.runner.workers import FleetSpec, fleet_poll_stats
from repro.sim.network import (
    FleetNetwork,
    RandomWalkMobility,
    ReaderCell,
    StrongestRxPolicy,
    TrafficStation,
)
from tests.oracles import link as oracle

pytestmark = pytest.mark.fleet


def make_fleet(n=6, seed=11, **kwargs) -> TagFleet:
    rng = np.random.default_rng(seed)
    positions = np.column_stack(
        [rng.uniform(1.0, 9.0, n), rng.uniform(-4.0, 4.0, n)]
    )
    return TagFleet.build(positions, seed=seed, **kwargs)


def load_some(target, names, seed=3, bits_per_tag=24):
    # Loads every tag but the last, and gives the first a short queue
    # that drains mid-run: exercises answered, idle and drained paths.
    rng = np.random.default_rng(seed)
    for i, name in enumerate(names[:-1]):
        n_bits = 5 if i == 0 else bits_per_tag
        target.load_bits(name, [int(b) for b in rng.integers(0, 2, n_bits)])


def drive(target):
    """The same mixed query script against a fleet or its reference."""
    for _ in range(2):
        target.poll_round()
    target.run_query(address=None)  # broadcast


def query_records(path):
    return [
        record
        for record in read_trace(str(path))
        if record.get("kind") == "query"
    ]


class TestFleetInvariance:
    """TagFleet and the oracle cell produce identical telemetry."""

    @pytest.mark.parametrize("batch_tags", [1, 2, 7, 64])
    def test_snapshot_and_trace_match_reference(self, batch_tags, tmp_path):
        fleet = make_fleet(batch_tags=batch_tags)
        cell = oracle.reference_cell(fleet)
        captures = {}
        for label, target, attach in (
            ("fleet", fleet, Telemetry.attach_fleet),
            ("cell", cell, oracle.attach_cell),
        ):
            telemetry = Telemetry(
                writer=TraceWriter(str(tmp_path / f"{label}.jsonl")),
                sampler=TraceSampler(every_n=1),
            )
            attach(telemetry, target)
            load_some(target, fleet.names)
            drive(target)
            telemetry.close()
            captures[label] = telemetry.metrics_snapshot()
        assert captures["fleet"] == captures["cell"]
        fleet_trace = query_records(tmp_path / "fleet.jsonl")
        cell_trace = query_records(tmp_path / "cell.jsonl")
        assert len(fleet_trace) == 13  # 2 rounds x 6 tags + broadcast
        assert fleet_trace == cell_trace

    def test_fully_idle_round_matches_reference(self):
        # No bits queued anywhere: every query takes the no-responder
        # branch, whose single fading draw must digest identically.
        fleet = make_fleet(n=3, seed=2)
        cell = oracle.reference_cell(fleet)
        snapshots = []
        for target, attach in (
            (fleet, Telemetry.attach_fleet),
            (cell, oracle.attach_cell),
        ):
            telemetry = Telemetry()
            attach(telemetry, target)
            target.poll_round()
            snapshots.append(telemetry.metrics_snapshot())
        assert snapshots[0] == snapshots[1]
        families = snapshots[0]["metrics"]
        idle = {
            entry["labels"]["outcome"]: entry["value"]
            for entry in families["fleet_queries_total"]["series"]
        }
        assert idle == {"answered": 0.0, "idle": 3.0}

    def test_attaching_telemetry_does_not_perturb_results(self):
        plain = make_fleet(seed=23)
        watched = make_fleet(seed=23)
        Telemetry().attach_fleet(watched)
        load_some(plain, plain.names)
        load_some(watched, watched.names)
        for _ in range(2):
            got = {
                name: (r.block_ack.bitmap, r.raw_bits)
                for name, r in watched.poll_round().items()
            }
            want = {
                name: (r.block_ack.bitmap, r.raw_bits)
                for name, r in plain.poll_round().items()
            }
            assert got == want

    def test_per_tag_series_account_for_every_bit(self):
        fleet = make_fleet()
        telemetry = Telemetry()
        telemetry.attach_fleet(fleet)
        load_some(fleet, fleet.names)
        want_bits: dict[str, int] = {}
        want_errors: dict[str, int] = {}
        results = []
        for _ in range(2):
            results.extend(fleet.poll_round().values())
        results.append(fleet.run_query(address=None))
        for result in results:
            for name in result.responded:
                sent = result.per_tag_sent[name]
                received = result.raw_bits[: len(sent)]
                want_bits[name] = want_bits.get(name, 0) + len(sent)
                want_errors[name] = want_errors.get(name, 0) + sum(
                    1 for s, r in zip(sent, received) if s != r
                )
        families = telemetry.metrics_snapshot()["metrics"]

        def by_tag(name):
            return {
                entry["labels"]["tag"]: entry["value"]
                for entry in families[name]["series"]
            }

        assert by_tag("fleet_tag_bits_total") == want_bits
        assert by_tag("fleet_tag_bit_errors_total") == want_errors
        assert by_tag("fleet_tag_delivered_bits_total") == {
            name: want_bits[name] - want_errors[name] for name in want_bits
        }
        answered = {
            entry["labels"]["outcome"]: entry["value"]
            for entry in families["fleet_queries_total"]["series"]
        }
        assert answered["answered"] + answered["idle"] == len(results)
        assert (
            families["fleet_query_ber"]["series"][0]["count"]
            == sum(1 for r in results if r.responded)
        )


class TestRunnerAggregation:
    """Fleet telemetry rides FleetSpec through the chunked engine."""

    @staticmethod
    def _run(n_workers):
        from repro.obs import TelemetrySpec

        fn = functools.partial(
            fleet_poll_stats,
            spec=FleetSpec(n_tags=5),
            rounds=1,
            bits_per_tag=8,
        )
        units = [
            UnitContext(index=i, parameters={"unit": i}, root_seed=21)
            for i in range(4)
        ]
        return run_units(
            fn,
            units,
            seed=21,
            n_workers=n_workers,
            chunk_size=2,
            telemetry=TelemetrySpec(metrics=True),
        )

    def test_serial_and_process_pool_aggregate_identically(self):
        serial = self._run(1)
        parallel = self._run(2)
        assert serial.values == parallel.values
        assert serial.telemetry is not None
        assert parallel.telemetry is not None
        assert (
            serial.telemetry.as_dict()["metrics"]
            == parallel.telemetry.as_dict()["metrics"]
        )
        families = serial.telemetry.as_dict()["metrics"]["metrics"]
        answered = {
            entry["labels"]["outcome"]: entry["value"]
            for entry in families["fleet_queries_total"]["series"]
        }
        assert answered["answered"] + answered["idle"] == 4 * 5
        assert answered["answered"] == sum(
            v["responded"] for v in serial.values
        )


class TestNetworkHooks:
    """FleetNetwork rounds, handoffs, mobility and contention."""

    @staticmethod
    def _network(seed=11):
        rng = np.random.default_rng(0)
        positions = rng.uniform(0.0, 10.0, size=(16, 2)) + [0.0, 1.0]
        cells = [
            ReaderCell(
                "ap0",
                ap_xy=(0.0, 0.0),
                stations=(TrafficStation("bg0"),),
            ),
            ReaderCell("ap1", ap_xy=(10.0, 0.0)),
        ]
        return FleetNetwork(
            cells,
            positions,
            seed=seed,
            policy=StrongestRxPolicy(hysteresis_db=0.5),
            mobility=RandomWalkMobility(
                bounds=(0.0, 1.0, 10.0, 11.0),
                step_m=4.0,
                fraction=0.8,
                seed=4,
            ),
            mobility_dt_s=0.002,
        )

    @staticmethod
    def _load(net, bits_per_tag=100):
        rng = np.random.default_rng(3)
        for name in net.names:
            net.load_bits(
                name, [int(b) for b in rng.integers(0, 2, bits_per_tag)]
            )

    def test_network_counters_mirror_the_simulation(self):
        net = self._network()
        telemetry = Telemetry()
        telemetry.attach_network(net)
        self._load(net)
        stats = net.run_rounds(4)
        families = telemetry.metrics_snapshot()["metrics"]

        def by_ap(name):
            return {
                entry["labels"]["ap"]: entry["value"]
                for entry in families[name]["series"]
            }

        assert by_ap("fleet_rounds_total") == {"ap0": 4.0, "ap1": 4.0}
        for field, family in (
            ("n_queries", "fleet_round_queries_total"),
            ("n_responded", "fleet_round_responses_total"),
            ("bits_sent", "fleet_round_bits_total"),
            ("bit_errors", "fleet_round_bit_errors_total"),
        ):
            want = {"ap0": 0.0, "ap1": 0.0}
            for s in stats:
                want[s.ap] += getattr(s, field)
            assert by_ap(family) == want, family
        durations = {
            entry["labels"]["ap"]: entry["sum"]
            for entry in families["fleet_round_duration_seconds"]["series"]
        }
        for ap in ("ap0", "ap1"):
            want = sum(s.duration_s for s in stats if s.ap == ap)
            assert durations[ap] == pytest.approx(want, rel=1e-12)
        assert net.mobility_ticks > 0 and net.handoffs > 0
        ticks = families["fleet_mobility_ticks_total"]["series"][0]["value"]
        assert ticks == net.mobility_ticks
        invalidations = families["fleet_mobility_invalidations_total"][
            "series"
        ][0]["value"]
        assert invalidations == net.invalidated_rows
        handoffs = sum(
            entry["value"]
            for entry in families["fleet_handoffs_total"]["series"]
        )
        assert handoffs == net.handoffs
        for entry in families["fleet_handoffs_total"]["series"]:
            assert entry["labels"]["from_ap"] != entry["labels"]["to_ap"]
        # Every executed query sampled exactly one access delay.
        access = {
            entry["labels"]["ap"]: entry["count"]
            for entry in families["fleet_access_delay_seconds"]["series"]
        }
        queries = {"ap0": 0, "ap1": 0}
        for s in stats:
            queries[s.ap] += s.n_queries
        assert access == queries

    def test_attaching_telemetry_does_not_perturb_rounds(self):
        plain = self._network()
        watched = self._network()
        Telemetry().attach_network(watched)
        self._load(plain)
        self._load(watched)
        assert watched.run_rounds(3) == plain.run_rounds(3)
        assert watched.handoffs == plain.handoffs
        assert watched.invalidated_rows == plain.invalidated_rows

    def test_contention_stalls_only_on_contended_cells(self):
        # ap0 carries a background station (CSMA contention); ap1 has
        # none, so its fallback access delays never count as stalls.
        net = self._network()
        telemetry = Telemetry()
        telemetry.attach_network(net)
        self._load(net, bits_per_tag=20)
        net.run_rounds(2)
        families = telemetry.metrics_snapshot()["metrics"]
        stalls = {
            entry["labels"]["ap"]: entry["value"]
            for entry in families["fleet_contention_stalls_total"]["series"]
        }
        assert "ap1" not in stalls or stalls["ap1"] == 0.0
