"""Fleet engine suite: oracle equivalence, mobility, multi-AP network.

The load-bearing contract here is **bitwise equivalence**:
:class:`repro.core.fleet.TagFleet` poll rounds must match the
object-graph :class:`tests.oracles.link.MultiTagCell` oracle bit for
bit — addressed, broadcast, idle and mixed queries, for any
``batch_tags`` chunking and any engine worker count.  The canonical
benchmark times the fleet and network on its ``warehouse-2000x4``
workload.

Also covered: the oracle cell's draw-order independence from
endpoint-dict insertion order and its one-fading no-responder branch,
``TagPoller`` per-tag RNG substreams, incremental mobility
invalidation, and the event-driven
:class:`repro.sim.network.FleetNetwork` layer.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fleet import TagFleet, _tag_generators
from repro.core.system import WiTagSystem
from repro.phy.channel import ChannelGeometry
from repro.runner import UnitContext, run_units
from repro.runner.workers import FleetSpec, fleet_poll_stats
from repro.sim.network import (
    FleetNetwork,
    NearestApPolicy,
    RandomWalkMobility,
    ReaderCell,
    StrongestRxPolicy,
    TagPoller,
    TrafficStation,
    _named_substream,
)
from repro.sim.scenario import build_system
from repro.tag.state_machine import TagStateMachine
from tests.oracles import link as oracle

pytestmark = pytest.mark.fleet


def make_fleet(n=5, seed=7, **kwargs) -> TagFleet:
    """A small fleet with tags scattered around the reader axis."""
    rng = np.random.default_rng(seed)
    positions = np.column_stack(
        [rng.uniform(1.0, 9.0, n), rng.uniform(-4.0, 4.0, n)]
    )
    return TagFleet.build(positions, seed=seed, **kwargs)


def load_all(target, names, seed=3, bits_per_tag=24):
    rng = np.random.default_rng(seed)
    for name in names:
        target.load_bits(
            name, [int(b) for b in rng.integers(0, 2, bits_per_tag)]
        )


def as_tuple(result):
    """A comparable, order-insensitive view of one query result."""
    return (
        result.address,
        result.block_ack.ssn,
        result.block_ack.bitmap,
        result.raw_bits,
        tuple(sorted(result.responded)),
        tuple(sorted(result.per_tag_sent.items())),
    )


def assert_rounds_equal(got, want):
    assert sorted(got) == sorted(want)
    for name in got:
        assert as_tuple(got[name]) == as_tuple(want[name]), name


class TestScalarEquivalence:
    """Fleet poll paths are bitwise identical to the oracle cell."""

    @pytest.mark.parametrize("batch_tags", [1, 2, 3, 256])
    def test_addressed_rounds_match_reference(self, batch_tags):
        fleet = make_fleet(n=5, seed=11, batch_tags=batch_tags)
        cell = oracle.reference_cell(fleet)
        load_all(fleet, fleet.names)
        load_all(cell, fleet.names)
        for _ in range(3):  # drains queues, advances SSNs
            assert_rounds_equal(fleet.poll_round(), cell.poll_round())

    def test_broadcast_matches_reference(self):
        fleet = make_fleet(n=4, seed=5)
        cell = oracle.reference_cell(fleet)
        load_all(fleet, fleet.names, bits_per_tag=10)
        load_all(cell, fleet.names, bits_per_tag=10)
        for _ in range(3):
            got = fleet.run_query(address=None)
            want = cell.run_query(address=None)
            assert as_tuple(got) == as_tuple(want)

    def test_idle_no_responder_matches_reference(self):
        # No queued bits anywhere: nobody responds, and the benign
        # no-responder decode (one fading from the first endpoint, one
        # outcome vector) must match the oracle's branch exactly.
        fleet = make_fleet(n=3, seed=2)
        cell = oracle.reference_cell(fleet)
        for address in (None, fleet.names[1], fleet.names[0]):
            got = fleet.run_query(address=address)
            want = cell.run_query(address=address)
            assert got.responded == () and want.responded == ()
            assert as_tuple(got) == as_tuple(want)

    def test_mixed_sequence_matches_reference(self):
        # Partial queues: some tags drain mid-sequence, flipping
        # queries between responding and idle along the way.
        fleet = make_fleet(n=4, seed=9)
        cell = oracle.reference_cell(fleet)
        for target in (fleet, cell):
            target.load_bits(fleet.names[0], [1, 0, 1])
            target.load_bits(fleet.names[2], [0, 1] * 40)
        script = [
            fleet.names[0],
            None,
            fleet.names[1],  # idle tag
            fleet.names[2],
            None,
            fleet.names[0],  # drained by now
        ]
        for address in script:
            got = fleet.run_query(address=address)
            want = cell.run_query(address=address)
            assert as_tuple(got) == as_tuple(want)

    def test_chunking_is_draw_neutral(self):
        # Per-row generators make batch_tags a pure memory knob: any
        # chunking gives bitwise-identical rounds.
        rounds = []
        for batch_tags in (1, 3, 256):
            fleet = make_fleet(n=6, seed=13, batch_tags=batch_tags)
            load_all(fleet, fleet.names)
            rounds.append(
                [
                    {n: as_tuple(r) for n, r in fleet.poll_round().items()}
                    for _ in range(2)
                ]
            )
        assert rounds[0] == rounds[1] == rounds[2]

    def test_worker_count_is_result_neutral(self):
        # The same fleet units through the parallel engine: serial vs a
        # two-process pool must return identical values (the engine's
        # determinism contract extends to fleet workloads).
        fn = functools.partial(
            fleet_poll_stats,
            spec=FleetSpec(n_tags=6),
            rounds=1,
            bits_per_tag=8,
        )
        units = [
            UnitContext(index=i, parameters={"unit": i}, root_seed=21)
            for i in range(3)
        ]
        serial = run_units(fn, list(units), seed=21, n_workers=1)
        parallel = run_units(fn, list(units), seed=21, n_workers=2)
        assert serial.values == parallel.values
        assert all(v["queries"] == 6 for v in serial.values)

    def test_load_bits_and_pending_roundtrip(self):
        fleet = make_fleet(n=3, seed=1)
        fleet.load_bits(fleet.names[1], [1, 0, 1, 1])
        assert fleet.pending_bits(fleet.names[1]) == 4
        assert fleet.pending_bits(fleet.names[0]) == 0
        with pytest.raises(KeyError, match="unknown tag"):
            fleet.load_bits("nope", [1])


#: Payload subframes of the fleet's default 64-subframe query.
PAYLOAD_BITS = 62


@st.composite
def fleet_scenarios(draw):
    """Fleet build arguments, per-tag bit loads and a polling script.

    Tags land anywhere between the client (0, 0) and the AP (8, 0),
    up to 4 m off axis; a tx power down to 6 dBm puts the far ones
    below the detector floor, so some queries go unanswered.  Each
    tag's load is empty, part of one query or more than one query
    holds.  A script step is either a poll round or one batch of
    addressed and broadcast queries, run by the fleet as one decode.
    """
    n = draw(st.integers(1, 8))
    coordinate = st.tuples(st.floats(0.5, 7.5), st.floats(-4.0, 4.0))
    build = dict(
        positions=draw(st.lists(coordinate, min_size=n, max_size=n)),
        seed=draw(st.integers(0, 2**16)),
        tx_power_dbm=draw(st.floats(6.0, 15.0)),
        rician_k_db=draw(st.sampled_from([15.0, None])),
        tag_rician_k_db=draw(st.sampled_from([5.0, None])),
        batch_tags=draw(st.integers(1, n + 1)),
    )
    load_sizes = {
        "none": st.just(0),
        "partial": st.integers(1, PAYLOAD_BITS - 1),
        "multi": st.integers(PAYLOAD_BITS + 1, 3 * PAYLOAD_BITS),
    }
    loads = [
        draw(
            st.sampled_from(sorted(load_sizes)).flatmap(load_sizes.get)
        )
        for _ in range(n)
    ]
    address = st.one_of(st.none(), st.integers(0, n - 1))
    script = draw(
        st.lists(
            st.one_of(
                st.just("round"),
                st.lists(address, min_size=1, max_size=n + 2),
            ),
            min_size=1,
            max_size=4,
        )
    )
    return build, loads, script


class TestFleetEqualsOracle:
    """Random cells: the fleet equals the oracle cell, bit for bit.

    Draws floorplans of 1-8 tags, bit loads, ``batch_tags`` from 1 to
    n+1 and scripts mixing addressed, broadcast and unanswered queries;
    the named cases of :class:`TestScalarEquivalence` pin each on fixed
    seeds.  Every tag's three generators must end in the same state.
    """

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(fleet_scenarios())
    def test_fleet_equals_oracle(self, scenario):
        build, loads, script = scenario
        fleet = TagFleet.build(**build)
        cell = oracle.reference_cell(fleet)
        rng = np.random.default_rng(build["seed"])
        for name, size in zip(fleet.names, loads):
            bits = [int(b) for b in rng.integers(0, 2, size)]
            fleet.load_bits(name, bits)
            cell.load_bits(name, bits)
        for step in script:
            if step == "round":
                assert_rounds_equal(fleet.poll_round(), cell.poll_round())
                continue
            addresses = [
                None if i is None else fleet.names[i] for i in step
            ]
            got = fleet._run_queries(addresses)
            want = [cell.run_query(address=a) for a in addresses]
            assert [as_tuple(r) for r in got] == [
                as_tuple(r) for r in want
            ]
        for i, name in enumerate(fleet.names):
            endpoint = cell.endpoints[name]
            assert fleet.pending_bits(name) == endpoint.tag.pending_bits
            assert [
                g.bit_generator.state
                for g in (
                    fleet._fsms[i].rng,
                    fleet._error_rngs[i],
                    fleet._channel_rngs[i],
                )
            ] == [
                g.bit_generator.state
                for g in (
                    endpoint.tag.rng,
                    endpoint.error_model.rng,
                    endpoint.error_model.channel.rng,
                )
            ]
        assert (
            fleet._builder.sequence.next_value
            == cell.builder.sequence.next_value
        )


class TestAddressedEqualsSingleTagSystem:
    """An addressed query with N idle neighbours == one WiTagSystem.

    The property from the ISSUE: idle neighbours draw nothing during an
    addressed query, so the fleet's result must equal a single-tag
    :class:`WiTagSystem` built from the addressed tag's own substreams.
    All-ones payloads keep the system's misalignment collateral from
    drawing (it only fires for zero bits), which is the one
    single-tag-system feature the multi-tag model omits.
    """

    @pytest.mark.parametrize("seed", [0, 4, 17])
    @pytest.mark.parametrize("target", [0, 2])
    def test_property(self, seed, target):
        fleet = make_fleet(n=3, seed=seed)
        name = fleet.names[target]
        n_bits = 12
        fleet.load_bits(name, [1] * n_bits)

        channel_rng, error_rng, tag_rng = _tag_generators(
            fleet._seed, target
        )
        from repro.phy.channel import BackscatterChannel
        from repro.phy.error_model import LinkErrorModel

        channel = BackscatterChannel(
            geometry=ChannelGeometry(
                tx_rx_m=fleet._tx_rx_m,
                tx_tag_m=float(fleet._tx_tag_m[target]),
                tag_rx_m=float(fleet._tag_rx_m[target]),
            ),
            band=fleet._band,
            direct_loss=fleet._direct_loss,
            tx_tag_loss=fleet._tx_tag_loss,
            tag_rx_loss=fleet._tag_rx_loss,
            antenna=fleet._antenna,
            rician_k_db=fleet._rician_k_db,
            tag_rician_k_db=fleet._tag_rician_k_db,
            channel_width_mhz=fleet._channel_width_mhz,
            rng=channel_rng,
        )
        system = WiTagSystem(
            config=fleet.config,
            error_model=LinkErrorModel(
                channel=channel,
                mcs=fleet.config.mcs,
                tx_power_dbm=fleet._tx_power_dbm,
                receiver=fleet._receiver,
                mismatch_gain_db=fleet._mismatch_gain_db,
                rng=error_rng,
            ),
            tag=TagStateMachine(rng=tag_rng),
        )
        system.load_tag_bits([1] * n_bits)

        got = fleet.run_query(address=name)
        want = system.run_query()

        assert np.isclose(
            float(fleet.rx_power_dbm[target]), want.rx_power_at_tag_dbm
        )
        assert got.responded == (name,)
        assert got.block_ack.ssn == want.block_ack.ssn
        assert got.block_ack.bitmap == want.block_ack.bitmap
        sent = got.per_tag_sent[name]
        assert sent == want.sent_bits
        assert tuple(got.raw_bits[: len(sent)]) == want.received_bits


class TestMultiTagDrawOrder:
    """The oracle cell's draw order, which the fleet engine follows."""

    def test_endpoint_dict_order_does_not_change_results(self):
        fleet = make_fleet(n=4, seed=23)
        forward = oracle.reference_cell(fleet)
        backward = oracle.reference_cell(fleet)
        backward.endpoints = dict(
            reversed(list(backward.endpoints.items()))
        )
        load_all(forward, fleet.names, bits_per_tag=16)
        load_all(backward, fleet.names, bits_per_tag=16)
        for address in (None, None, fleet.names[2], None):
            got = forward.run_query(address=address)
            want = backward.run_query(address=address)
            assert as_tuple(got) == as_tuple(want)

    def test_failing_tag_does_not_truncate_other_streams(self):
        # Every responder's full outcome vector must be drawn even when
        # an earlier tag already killed a subframe: a broadcast and the
        # same broadcast with one tag removed must give the surviving
        # tags identical per-tag decode draws.  With the old early
        # `break` the second cell's error stream advanced differently.
        fleet = make_fleet(n=3, seed=31)
        full = oracle.reference_cell(fleet)
        load_all(full, fleet.names, bits_per_tag=16)
        full.run_query(address=None)
        state_after_full = [
            full.endpoints[n].error_model.rng.bit_generator.state["state"]
            for n in fleet.names
        ]

        solo = oracle.reference_cell(fleet)
        load_all(solo, fleet.names, bits_per_tag=16)
        solo.endpoints[fleet.names[0]].tag.data_queue.clear()  # drop one
        solo.run_query(address=None)
        # Tags 1 and 2 must have consumed exactly as much of their own
        # error streams as in the full broadcast.
        for n in fleet.names[1:]:
            assert (
                solo.endpoints[n].error_model.rng.bit_generator.state[
                    "state"
                ]
                == state_after_full[fleet.names.index(n)]
            )

    def test_no_responder_branch_draws_one_fading(self):
        # The fixed branch consumes the first endpoint's channel stream
        # exactly like one responding link would: one fading sample.
        fleet = make_fleet(n=2, seed=6)
        idle_cell = oracle.reference_cell(fleet)
        idle_cell.run_query(address=None)  # nobody loaded: no responder

        probe_cell = oracle.reference_cell(fleet)
        oracle.sample_fading(
            probe_cell.endpoints[fleet.names[0]].error_model
        )
        first = fleet.names[0]
        assert (
            idle_cell.endpoints[first].error_model.channel.rng
            .bit_generator.state["state"]
            == probe_cell.endpoints[first].error_model.channel.rng
            .bit_generator.state["state"]
        )


@pytest.mark.adaptive
class TestScheduledFleetEquivalence:
    """Traffic-aware polling is tier-invariant at the fleet level.

    Given equal traffic and interference streams, the scheduler's
    ride/skip decisions and the collision-corrupted poll rounds must be
    bit-identical between a :class:`TagFleet` and its oracle cell.
    """

    @staticmethod
    def _wrap(poller):
        from repro.traffic import (
            HoltPredictor,
            OnOffTraffic,
            OpportunityScheduler,
            ScheduledFleetPoller,
        )

        return ScheduledFleetPoller(
            poller=poller,
            traffic=OnOffTraffic(
                rate_fps=600.0,
                mean_on_s=0.30,
                mean_off_s=0.45,
                rng=np.random.default_rng(3),
            ),
            scheduler=OpportunityScheduler(predictor=HoltPredictor()),
            interference_rng=np.random.default_rng(4),
        )

    def test_fleet_rounds_match_reference_cell(self):
        fleet = make_fleet(n=4, seed=11)
        cell = oracle.reference_cell(fleet)
        load_all(fleet, fleet.names, bits_per_tag=400)
        load_all(cell, fleet.names, bits_per_tag=400)
        a, b = self._wrap(fleet), self._wrap(cell)
        rounds_a = a.run_windows(25)
        rounds_b = b.run_windows(25)
        assert a.decisions == b.decisions
        assert a.rides == b.rides == len(rounds_a) > 0
        assert len(a.decisions) == 25
        for got, want in zip(rounds_a, rounds_b):
            assert_rounds_equal(got, want)

    def test_scheduled_polling_is_deterministic(self):
        def run():
            fleet = make_fleet(n=3, seed=8)
            load_all(fleet, fleet.names, bits_per_tag=200)
            poller = self._wrap(fleet)
            rounds = poller.run_windows(20)
            return (
                poller.decisions,
                [
                    {n: as_tuple(r) for n, r in round_.items()}
                    for round_ in rounds
                ],
            )

        assert run() == run()

    def test_run_windows_validation(self):
        poller = self._wrap(make_fleet(n=2, seed=1))
        with pytest.raises(ValueError):
            poller.run_windows(0)


class TestMobility:
    def test_update_positions_refreshes_only_moved_rows(self):
        fleet = make_fleet(n=6, seed=3)
        h_before = fleet._h_tag_los.copy()
        rot_before = fleet._tag_rotation.copy()
        rx_before = fleet.rx_power_dbm.copy()
        moved = [1, 4]
        fleet.update_positions(
            moved, [(5.5, 2.0), (2.5, -1.5)]
        )
        assert fleet.invalidated_rows == 2
        for i in range(6):
            if i in moved:
                assert fleet._h_tag_los[i] != h_before[i]
                assert not np.array_equal(
                    fleet._tag_rotation[i], rot_before[i]
                )
            else:
                assert fleet._h_tag_los[i] == h_before[i]
                assert np.array_equal(
                    fleet._tag_rotation[i], rot_before[i]
                )
                assert fleet.rx_power_dbm[i] == rx_before[i]

    def test_mobility_keeps_determinism(self):
        def run():
            fleet = make_fleet(n=4, seed=8)
            load_all(fleet, fleet.names)
            fleet.poll_round()
            fleet.update_positions([0, 2], [(3.0, 1.0), (6.0, -2.0)])
            return {
                n: as_tuple(r) for n, r in fleet.poll_round().items()
            }

        assert run() == run()

    def test_update_positions_rejects_zero_distance(self):
        fleet = make_fleet(n=2, seed=0)
        with pytest.raises(ValueError, match="client or AP"):
            fleet.update_positions([0], [(0.0, 0.0)])


class TestTagPollerSubstreams:
    """Satellite 3: per-tag RNG substreams in the round-robin poller."""

    @staticmethod
    def _systems(n, seed=3):
        return {
            f"t{i}": build_system(
                ChannelGeometry(
                    tx_rx_m=3.0, tx_tag_m=1.0 + 0.3 * i, tag_rx_m=2.5
                ),
                seed=seed + i,
            )[0]
            for i in range(n)
        }

    def test_adding_a_tag_never_perturbs_existing_streams(self):
        two = {
            r.tag_name: r.stats
            for r in TagPoller(self._systems(2), seed=7).run_rounds(2)
        }
        three = {
            r.tag_name: r.stats
            for r in TagPoller(self._systems(3), seed=7).run_rounds(2)
        }
        for name, stats in two.items():
            assert three[name] == stats

    def test_substream_depends_only_on_name(self):
        a = _named_substream(9, "tag-a").random(4)
        b = _named_substream(9, "tag-a").random(4)
        other = _named_substream(9, "tag-b").random(4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, other)


class TestFleetNetwork:
    @staticmethod
    def _network(seed=11, mobility=None, policy=None, mobility_dt_s=1.0):
        rng = np.random.default_rng(0)
        positions = rng.uniform(0.0, 10.0, size=(16, 2)) + [0.0, 1.0]
        cells = [
            ReaderCell(
                "ap0", ap_xy=(0.0, 0.0),
                stations=(TrafficStation("bg0"),),
            ),
            ReaderCell("ap1", ap_xy=(10.0, 0.0)),
        ]
        return FleetNetwork(
            cells,
            positions,
            seed=seed,
            policy=policy,
            mobility=mobility,
            mobility_dt_s=mobility_dt_s,
        )

    def test_assignment_partitions_the_population(self):
        net = self._network()
        assigned = set(net.assigned_names(0)) | set(net.assigned_names(1))
        assert assigned == set(net.names)
        assert (
            len(net.assigned_names(0)) + len(net.assigned_names(1))
            == net.n_tags
        )

    def test_event_driven_rounds_are_deterministic(self):
        def run():
            net = self._network(
                mobility=RandomWalkMobility(
                    bounds=(0.0, 1.0, 10.0, 11.0),
                    step_m=3.0,
                    fraction=0.5,
                    seed=4,
                ),
                mobility_dt_s=0.002,
            )
            load_all(net, net.names, bits_per_tag=200)
            return net.run_rounds(3), net.handoffs, net.invalidated_rows

        first, second = run(), run()
        assert first == second
        stats = first[0]
        assert len(stats) == 6  # 3 rounds x 2 APs
        assert sum(s.bits_sent for s in stats) > 0
        assert all(s.duration_s > 0 for s in stats)

    def test_mobility_handoff_conserves_queued_bits(self):
        net = self._network(
            policy=StrongestRxPolicy(hysteresis_db=0.5),
            mobility=RandomWalkMobility(
                bounds=(0.0, 1.0, 10.0, 11.0),
                step_m=4.0,
                fraction=0.8,
                seed=4,
            ),
            mobility_dt_s=0.002,
        )
        loaded = 16 * 100
        load_all(net, net.names, bits_per_tag=100)
        stats = net.run_rounds(4)
        assert net.mobility_ticks > 0
        assert net.invalidated_rows > 0
        sent = sum(s.bits_sent for s in stats)
        pending = sum(net.pending_bits(n) for n in net.names)
        assert sent + pending == loaded  # no bits lost across handoffs

    def test_nearest_policy_and_validation(self):
        net = self._network(policy=NearestApPolicy())
        ap_of_closest = net.assignment[
            int(np.argmin(net.positions[:, 0]))
        ]
        assert ap_of_closest == 0
        with pytest.raises(ValueError, match="at least one reader cell"):
            FleetNetwork([], [(1.0, 1.0)])
        with pytest.raises(ValueError, match="distinct"):
            FleetNetwork(
                [
                    ReaderCell("a", ap_xy=(0.0, 0.0)),
                    ReaderCell("a", ap_xy=(5.0, 0.0)),
                ],
                [(1.0, 1.0)],
            )


class TestMultiTagCellStillWorks:
    """The oracle cell API the fleet mirrors."""

    def test_poll_round_addresses_every_tag(self):
        fleet = make_fleet(n=3, seed=19)
        cell = oracle.reference_cell(fleet)
        load_all(cell, fleet.names)
        round_results = cell.poll_round()
        assert sorted(round_results) == sorted(fleet.names)
        for name, result in round_results.items():
            assert result.address == name

    def test_cell_rejects_unknown_address(self):
        cell = oracle.reference_cell(make_fleet(n=2, seed=1))
        with pytest.raises(KeyError, match="unknown tag"):
            cell.run_query(address="ghost")
