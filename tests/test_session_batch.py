"""Equivalence suite for the query engine against the per-query oracle.

The engine (:meth:`repro.core.system.WiTagSystem.run_queries_batch`,
driven by :class:`MeasurementSession`) runs whole chunks of query
cycles as one ``(n_queries, n_subframes)`` numpy computation.  Its
contract is *bitwise* equality with the per-subframe, per-query loop
in ``tests/oracles/link.py``: every simulation component owns its
generator and the engine consumes every stream in the loop's order, so
SessionStats, per-query BER vectors, block-ACK bitmaps, cycle times and
generator end-states must all be identical for any chunk size —
contended and encrypted sessions included — and, through the parallel
engine, for any worker count.  :class:`TestEngineEqualsOracle` draws
random scenarios for the same contract.
"""

import dataclasses
import functools
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import EncryptionMode
from repro.core.session import MeasurementSession
from repro.phy.channel import BackscatterChannel, ChannelGeometry, TagState
from repro.phy.coding import coded_bit_error_rate, packet_error_rate
from repro.phy.mcs import ht_mcs
from repro.runner import SessionSpec, UnitContext, run_sessions
from repro.sim.scenario import build_system, los_scenario, nlos_scenario
from repro.tag.oscillator import ring_oscillator_20mhz, witag_crystal_50khz
from repro.tag.state_machine import QueryObservation, TagStateMachine
from tests.oracles import link as oracle
from tests.oracles.query import build_reference

QUERIES = 30


def _session(*, batch: int = 8, data_seed: int = 6, system=None,
             **scenario_kwargs) -> MeasurementSession:
    """The engine: a session on a chunk size of ``batch`` queries."""
    if system is None:
        system, _ = los_scenario(4.0, seed=5, **scenario_kwargs)
    return MeasurementSession(
        system, rng=np.random.default_rng(data_seed), batch_queries=batch
    )


def _oracle(*, data_seed: int = 6, system=None,
            **scenario_kwargs) -> oracle.Session:
    """The same session on the per-query oracle loop."""
    if system is None:
        system, _ = los_scenario(4.0, seed=5, **scenario_kwargs)
    return oracle.Session(system, rng=np.random.default_rng(data_seed))


@functools.lru_cache(maxsize=None)
def _oracle_queries(count: int) -> tuple[oracle.Session, object]:
    """The default oracle session after ``count`` queries, and its stats."""
    reference = _oracle()
    return reference, reference.run_queries(count)


def _bitmaps(session: MeasurementSession) -> list[int]:
    return [r.block_ack.bitmap for r in session.results]


def _rng_states(session: MeasurementSession) -> list:
    """Every stream and counter a session consumes, for end-state checks."""
    system = session.system
    generators = [
        session.rng,
        system.rng,
        system.tag.rng,
        system.error_model.rng,
        system.error_model.channel.rng,
    ]
    if system.contention is not None:
        generators.append(system.contention.rng)
    fading = system.fading_channel
    if fading is not None:
        generators += [
            fading.rng,
            fading._direct_process.rng,
            fading._tag_process.rng,
        ]
    states: list = [g.bit_generator.state for g in generators]
    builder = system.builder
    states.append(builder.sequence.next_value)
    if builder._ccmp is not None:
        states.append(builder._ccmp.packet_number)
    if builder._wep is not None:
        states.append(builder._wep.next_iv)
    return states


def _assert_sessions_identical(reference: MeasurementSession,
                               engine: MeasurementSession) -> None:
    """The full bitwise contract between two finished sessions."""
    assert len(reference.results) == len(engine.results)
    assert _bitmaps(reference) == _bitmaps(engine)
    assert reference.per_query_ber() == engine.per_query_ber()
    assert [r.cycle_s for r in reference.results] == [
        r.cycle_s for r in engine.results
    ]
    assert [r.detected for r in reference.results] == [
        r.detected for r in engine.results
    ]
    assert _rng_states(reference) == _rng_states(engine)


class TestBitwiseEquivalence:
    def test_run_queries_matches_per_query_loop(self):
        reference, reference_stats = _oracle_queries(QUERIES)
        engine = _session()
        assert engine.run_queries(QUERIES) == reference_stats
        _assert_sessions_identical(reference, engine)
        assert [r.query.psdu for r in reference.results] == [
            r.query.psdu for r in engine.results
        ]

    def test_exact_coding_matches_scalar_phy_reference(self, monkeypatch):
        # The per-subframe reference priced with the exact union bound
        # instead of the coded-BER table decides every subframe of this
        # session as the engine does: the table's ~1e-3 relative error
        # moves no outcome here.
        def exact(mcs, mpdu_bits, sinrs):
            bits = np.broadcast_to(np.asarray(mpdu_bits), np.shape(sinrs))
            return np.array([
                1.0 - packet_error_rate(
                    coded_bit_error_rate(
                        mcs.coding_rate,
                        mcs.modulation.bit_error_rate(max(float(s), 0.0)),
                    ),
                    int(b),
                )
                for b, s in zip(bits.ravel(), np.ravel(sinrs))
            ])

        monkeypatch.setattr(oracle, "mpdu_success_probabilities", exact)
        reference = _oracle()
        engine = _session()
        assert reference.run_queries(QUERIES) == engine.run_queries(QUERIES)
        _assert_sessions_identical(reference, engine)

    @pytest.mark.parametrize("batch", [1, 3, 29, 1000])
    def test_chunk_size_invariance(self, batch):
        reference, reference_stats = _oracle_queries(QUERIES)
        chunked = _session(batch=batch)
        assert chunked.run_queries(QUERIES) == reference_stats
        _assert_sessions_identical(reference, chunked)

    def test_run_for_matches_scalar_loop(self):
        # 0.5 s is ~340 cycles: the count crosses many chunk boundaries
        # (batch_queries=16), and the prologue's float accumulation must
        # stop on the oracle loop's cycle.
        reference = _oracle()
        engine = _session(batch=16)
        assert reference.run_for(0.5) == engine.run_for(0.5)
        _assert_sessions_identical(reference, engine)

    def test_contention_batches_and_matches(self):
        # Random backoffs make cycle durations unpredictable; the
        # prologue draws them before each chunk, for run_queries and
        # run_for alike.
        reference = _oracle(n_contenders=3)
        engine = _session(n_contenders=3)
        assert reference.run_queries(QUERIES) == engine.run_queries(QUERIES)
        _assert_sessions_identical(reference, engine)
        reference2 = _oracle(n_contenders=3)
        engine2 = _session(n_contenders=3)
        assert reference2.run_for(0.3) == engine2.run_for(0.3)
        _assert_sessions_identical(reference2, engine2)

    def test_correlated_fading_matches(self):
        # The AR(1) fading process is sequential inside; the engine
        # must advance it by the same per-cycle dts.
        reference = _oracle(coherence_time_s=0.1)
        engine = _session(coherence_time_s=0.1)
        assert reference.run_queries(QUERIES) == engine.run_queries(QUERIES)
        _assert_sessions_identical(reference, engine)
        reference2 = _oracle(coherence_time_s=0.1)
        engine2 = _session(coherence_time_s=0.1)
        assert reference2.run_for(0.3) == engine2.run_for(0.3)
        _assert_sessions_identical(reference2, engine2)

    def test_encrypted_queries_match(self):
        # CCMP packet numbers must advance one build at a time, so the
        # frame memo is bypassed; the session still batches.
        kwargs = dict(
            encryption=EncryptionMode.WPA2_CCMP,
            encryption_key=bytes(range(16)),
        )
        reference = _oracle(**kwargs)
        engine = _session(**kwargs)
        assert reference.run_queries(12) == engine.run_queries(12)
        _assert_sessions_identical(reference, engine)
        assert reference.run_for(0.01) == engine.run_for(0.01)
        _assert_sessions_identical(reference, engine)

    def test_missed_triggers_match(self):
        # A weak tag link (tag 10 m from the client) misses some
        # queries; detection outcomes and the zero-bit results they
        # produce must agree.
        def system():
            return build_system(ChannelGeometry.on_line(20.0, 10.0), seed=5)[0]

        reference = _oracle(system=system())
        engine = _session(system=system())
        reference_stats = reference.run_queries(40)
        assert engine.run_queries(40) == reference_stats
        assert reference_stats.missed_triggers > 0
        _assert_sessions_identical(reference, engine)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rician_k_db": None, "tag_rician_k_db": None},
            {"rician_k_db": None},
            {"tag_rician_k_db": None},
        ],
        ids=["no-fading", "direct-static", "tag-static"],
    )
    def test_disabled_fading_variants_match(self, kwargs):
        reference = _oracle(**kwargs)
        engine = _session(**kwargs)
        assert reference.run_queries(15) == engine.run_queries(15)
        _assert_sessions_identical(reference, engine)

    def test_nlos_scenario_matches(self):
        reference = _oracle(system=nlos_scenario("B", seed=5)[0])
        engine = _session(system=nlos_scenario("B", seed=5)[0])
        assert reference.run_queries(20) == engine.run_queries(20)
        _assert_sessions_identical(reference, engine)


ENCRYPTION = {
    "open": {},
    "wep": {
        "encryption": EncryptionMode.WEP,
        "encryption_key": bytes(range(13)),
    },
    "ccmp": {
        "encryption": EncryptionMode.WPA2_CCMP,
        "encryption_key": bytes(range(16)),
    },
}


@st.composite
def scenarios(draw):
    """A system factory, a chunk size and the runs to make on it.

    Draws the MCS, the A-MPDU length, the encryption, 0-4 contenders,
    correlated or per-query fading, a LOS distance or an NLOS location,
    and a tx power that reaches from a solid link down to one whose
    tag misses its triggers (detector floor: -46 dBm).
    """
    kwargs = dict(
        seed=draw(st.integers(0, 2**16)),
        mcs=ht_mcs(draw(st.integers(0, 7))),
        n_contenders=draw(st.integers(0, 4)),
        coherence_time_s=draw(st.sampled_from([None, 0.1])),
        tx_power_dbm=draw(st.floats(-12.0, 15.0)),
        **ENCRYPTION[draw(st.sampled_from(sorted(ENCRYPTION)))],
    )
    location = draw(st.sampled_from(["LOS", "A", "B"]))
    distance_m = draw(st.floats(0.5, 7.5))
    n_subframes = draw(st.integers(3, 64))

    def build():
        if location == "LOS":
            system, _ = los_scenario(distance_m, **kwargs)
        else:
            system, _ = nlos_scenario(location, **kwargs)
        config = dataclasses.replace(system.config, n_subframes=n_subframes)
        return dataclasses.replace(system, config=config)

    runs = draw(
        st.lists(
            st.one_of(
                st.tuples(st.just("queries"), st.integers(1, 10)),
                st.tuples(st.just("for"), st.floats(0.002, 0.03)),
            ),
            min_size=1,
            max_size=2,
        )
    )
    return build, draw(st.integers(1, 64)), runs


class TestEngineEqualsOracle:
    """Random sessions: the engine equals the oracle loop, bit for bit.

    Draws the per-scenario cases (contention, correlated fading,
    WEP/CCMP, missed triggers, NLOS, ``run_for`` across chunks) in
    random combination; the named cases pin each one on fixed seeds,
    and the edges the draws reach rarely: every chunk size in
    ``run_for`` runs of ~290 cycles, partially missed triggers, static
    fading.
    """

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(scenarios())
    def test_session_equals_oracle(self, scenario):
        build, batch, runs = scenario
        engine = _session(batch=batch, system=build())
        reference = _oracle(system=build())
        for kind, amount in runs:
            if kind == "queries":
                assert engine.run_queries(amount) == (
                    reference.run_queries(amount)
                )
            else:
                assert engine.run_for(amount) == reference.run_for(amount)
        _assert_sessions_identical(reference, engine)
        assert [r.query.psdu for r in reference.results] == [
            r.query.psdu for r in engine.results
        ]


#: run_for configs whose cycle durations depend on draws or whose frames
#: cannot be memoized, with a duration that ends mid-chunk for every
#: chunk size tested (the oracle runs 289, 289, 23, 49 and 289 cycles).
RUN_FOR_CONFIGS = {
    "contended": ({"n_contenders": 3}, 1.3),
    "contended-correlated": (
        {"n_contenders": 3, "coherence_time_s": 0.1},
        1.3,
    ),
    "wpa2-ccmp": (
        {
            "n_contenders": 3,
            "encryption": EncryptionMode.WPA2_CCMP,
            "encryption_key": bytes(range(16)),
        },
        0.1,
    ),
    "wep": (
        {
            "encryption": EncryptionMode.WEP,
            "encryption_key": bytes(range(13)),
        },
        0.07,
    ),
    # The tag 10 m from the client misses some triggers.
    "missed-triggers": ({"n_contenders": 3}, 1.3),
}


def _run_for_system(config: str):
    kwargs = RUN_FOR_CONFIGS[config][0]
    if config == "missed-triggers":
        system, _ = build_system(
            ChannelGeometry.on_line(20.0, 10.0), seed=5, **kwargs
        )
    else:
        system, _ = los_scenario(4.0, seed=5, **kwargs)
    return system


@functools.lru_cache(maxsize=None)
def _scalar_run_for(config: str):
    """The oracle's finished session and stats for ``config``."""
    session = _oracle(system=_run_for_system(config))
    return session, session.run_for(RUN_FOR_CONFIGS[config][1])


class TestRunForOnBatchEngine:
    """run_for on every chunk size equals the oracle loop."""

    @pytest.mark.parametrize("batch", [1, 3, 16, 256])
    @pytest.mark.parametrize("config", list(RUN_FOR_CONFIGS))
    def test_run_for_matches_scalar_loop(self, config, batch):
        reference, reference_stats = _scalar_run_for(config)
        engine = _session(batch=batch, system=_run_for_system(config))
        assert engine.run_for(RUN_FOR_CONFIGS[config][1]) == reference_stats
        assert batch == 1 or reference_stats.queries % batch != 0
        if config == "missed-triggers":
            assert reference_stats.missed_triggers > 0
        _assert_sessions_identical(reference, engine)
        assert [r.query.psdu for r in reference.results] == [
            r.query.psdu for r in engine.results
        ]


def _scheduled(session: MeasurementSession):
    from repro.traffic import (
        HoltPredictor,
        OnOffTraffic,
        OpportunityScheduler,
        ScheduledSession,
    )

    session.system.load_tag_bits([1, 0] * 600)
    return ScheduledSession(
        session=session,
        traffic=OnOffTraffic(
            rate_fps=600.0,
            mean_on_s=0.30,
            mean_off_s=0.45,
            rng=np.random.default_rng(11),
        ),
        scheduler=OpportunityScheduler(predictor=HoltPredictor()),
        interference_rng=np.random.default_rng(12),
    )


@pytest.mark.adaptive
class TestScheduledSessionEquivalence:
    """Traffic-aware scheduling inherits the bitwise contract.

    Ride/skip decisions depend only on the traffic stream and predictor
    state, ridden-window activities drain through the CSMA FIFO in
    identical per-query order, and interference draws happen per ridden
    query in window order — so the engine and the oracle loop must
    agree bit for bit on decisions, results and stats.
    """

    def test_decisions_and_stats_match_across_session_tiers(self):
        def system():
            return los_scenario(2.0, seed=5, n_contenders=4)[0]

        reference = _scheduled(_oracle(system=system()))
        engine = _scheduled(_session(system=system(), batch=256))
        assert reference.run_queries(80) == engine.run_queries(80)
        assert reference.decisions == engine.decisions
        assert reference.rides == engine.rides == len(reference.results)
        assert [r.received_bits for r in reference.results] == [
            r.received_bits for r in engine.results
        ]
        assert reference.per_query_ber() == engine.per_query_ber()
        assert reference._elapsed_s == engine._elapsed_s

    def test_adaptive_link_reports_match_across_session_tiers(self):
        # The full closed loop (scheduler + RS codec + redundancy
        # controller) on the engine and on the oracle loop: round
        # reports, rung trajectories and energy ledgers must be
        # identical.
        from repro.runner.workers import AdaptiveLinkSpec

        def link():
            return AdaptiveLinkSpec()(
                UnitContext(index=0, parameters={}, root_seed=21)
            )

        engine, reference = link(), link()
        session = reference.scheduled.session
        reference.scheduled.session = oracle.Session(
            session.system, rng=session.rng
        )
        assert reference.run(3, 60) == engine.run(3, 60)
        assert reference.scheduled.decisions == engine.scheduled.decisions
        assert reference.controller.index == engine.controller.index

    @pytest.mark.runner
    def test_link_stats_independent_of_workers(self):
        from repro.runner import run_units
        from repro.runner.workers import AdaptiveLinkSpec, adaptive_link_stats

        fn = functools.partial(
            adaptive_link_stats,
            spec=AdaptiveLinkSpec(),
            rounds=2,
            windows_per_round=40,
        )
        units = [
            UnitContext(index=i, parameters={"unit": i}, root_seed=13)
            for i in range(3)
        ]
        serial = run_units(fn, list(units), seed=13, n_workers=1)
        parallel = run_units(fn, list(units), seed=13, n_workers=2)
        assert serial.values == parallel.values
        assert all(v["windows"] == 80 for v in serial.values)


class TestTelemetryEquivalence:
    """The engine emits the oracle loop's metric snapshot and trace."""

    @staticmethod
    def _instrumented(tmp_path, name, session):
        from repro.obs import Telemetry, TraceWriter

        telemetry = Telemetry(
            writer=TraceWriter(str(tmp_path / f"{name}.jsonl"))
        )
        telemetry.attach(session.system)
        stats = session.run_queries(QUERIES)
        telemetry.close()
        return telemetry, stats, tmp_path / f"{name}.jsonl"

    @staticmethod
    def _records(path):
        from repro.obs import read_trace

        queries, sessions = [], []
        for record in read_trace(str(path), validate=True):
            if record["kind"] == "query":
                queries.append(record)
            elif record["kind"] == "session":
                # Wall-clock spans legitimately differ per run.
                sessions.append(
                    {
                        k: v
                        for k, v in record.items()
                        if k != "spans"
                    }
                )
        return queries, sessions

    def test_all_tiers_emit_identical_telemetry(self, tmp_path):
        reference = self._instrumented(tmp_path, "oracle", _oracle())
        engine = self._instrumented(tmp_path, "engine", _session())
        assert reference[1] == engine[1]
        assert reference[0].metrics_snapshot() == engine[0].metrics_snapshot()
        reference_trace = self._records(reference[2])
        assert reference_trace == self._records(engine[2])
        queries, sessions = reference_trace
        assert len(queries) == QUERIES
        assert len(sessions) == 1

    def test_batch_scoreboard_counters_match_scalar(self, tmp_path):
        # The engine replays only each chunk's final query onto the
        # real scoreboard; the bulk hook must account for the rest.
        from repro.obs import Telemetry

        def run(session):
            telemetry = Telemetry()
            telemetry.attach(session.system)
            session.run_queries(QUERIES)
            snap = telemetry.metrics_snapshot()["metrics"]
            return {
                name: snap[name]["series"][0]["value"]
                for name in (
                    "mac_scoreboard_records_total",
                    "mac_scoreboard_resets_total",
                )
            }

        assert run(_oracle()) == run(_session())



@pytest.mark.runner
class TestWorkerInvariance:
    def test_results_independent_of_workers_and_chunking(self):
        # Worker count and chunk size are both result-neutral, and the
        # stats equal the oracle loop's run of each unit.
        def spec(batch):
            return SessionSpec(distance_m=4.0, batch_queries=batch)

        outcomes = [
            run_sessions(
                spec(batch), 3, queries=20, seed=9, n_workers=n_workers
            ).values
            for n_workers, batch in ((1, 7), (2, 7), (1, 256), (2, 1))
        ]
        assert all(values == outcomes[0] for values in outcomes[1:])
        reference = []
        for i in range(3):
            session = spec(7)(
                UnitContext(
                    index=i, parameters={"session": i}, root_seed=9
                )
            )
            reference.append(
                oracle.Session(session.system, rng=session.rng)
                .run_queries(20)
            )
        assert outcomes[0] == reference

    def test_session_spec_is_picklable_and_validates(self):
        spec = SessionSpec(kind="nlos", location="B")
        assert pickle.loads(pickle.dumps(spec)) == spec
        with pytest.raises(ValueError):
            SessionSpec(kind="underwater")


class TestCacheInvalidationFromSession:
    """Satellite: mutating geometry mid-run must propagate everywhere."""

    def test_mid_run_mutation_keeps_paths_identical(self):
        reference = _oracle()
        engine = _session()
        control = _session()
        for session in (reference, engine, control):
            session.run_queries(10)

        def mutate(session):
            channel = session.system.error_model.channel
            # Weaken the tag-reflected path in place — the kind of
            # derived-attribute mutation invalidate_caches() exists for.
            # (Corrupted subframes start surviving, so the change is
            # observable in the bitmaps, unlike a strengthening, which
            # only deepens already-certain failures.)
            channel._h_tag_los = channel._h_tag_los * 0.02
            channel.invalidate_caches()

        mutate(reference)
        mutate(engine)
        reference.run_queries(10)
        engine.run_queries(10)
        control.run_queries(10)
        _assert_sessions_identical(reference, engine)
        # The mutation visibly changed the physics of the second half
        # (weaker reflection -> different decode outcomes) — i.e. the
        # engine saw the new geometry, not a stale cache.
        assert _bitmaps(engine)[10:] != _bitmaps(control)[10:]
        assert _bitmaps(engine)[:10] == _bitmaps(control)[:10]

    def test_invalidate_refreshes_static_vectors_via_session(self):
        session = _session()
        session.run_queries(3)
        channel = session.system.error_model.channel
        before = channel.channel_vector(TagState.ABSORB)
        channel.invalidate_caches()
        after = channel.channel_vector(TagState.ABSORB)
        assert before is not after
        np.testing.assert_array_equal(before, after)


class TestBuilderMemo:
    def test_build_matches_reference_across_memo_cycle(self):
        # Unencrypted frames are pure functions of the SSN, which wraps
        # through a 64-value cycle for the default 64-subframe A-MPDU:
        # 130 builds revisit every memo entry at least once.
        ref_system, _ = los_scenario(4.0, seed=5)
        memo_system, _ = los_scenario(4.0, seed=5)
        for _ in range(130):
            expected = build_reference(ref_system.builder)
            got = memo_system.builder.build()
            assert got.psdu == expected.psdu
            assert got.mpdus == expected.mpdus
            assert got.ssn == expected.ssn
            assert got.airtime_s == expected.airtime_s
        assert (
            memo_system.builder.sequence.next_value
            == ref_system.builder.sequence.next_value
        )

    def test_peek_airtime_does_not_consume_sequence(self):
        system, _ = los_scenario(4.0, seed=5)
        before = system.builder.sequence.next_value
        airtime = system.builder.peek_airtime_s()
        assert system.builder.sequence.next_value == before
        assert airtime == system.builder.build().airtime_s


class TestFadingBatch:
    @pytest.mark.parametrize(
        "k_direct,k_tag",
        [(15.0, 5.0), (None, 5.0), (15.0, None), (None, None)],
    )
    def test_sample_fading_batch_matches_scalar_order(
        self, k_direct, k_tag
    ):
        def make():
            return BackscatterChannel(
                ChannelGeometry.on_line(8.0, 3.0),
                rician_k_db=k_direct,
                tag_rician_k_db=k_tag,
                rng=np.random.default_rng(17),
            )

        scalar, batch = make(), make()
        expected = []
        for _ in range(9):
            expected.append(
                (scalar.sample_direct_fading(), scalar.sample_tag_fading())
            )
        direct, tag = batch.sample_fading_batch(9)
        assert direct.tolist() == [d for d, _ in expected]
        assert tag.tolist() == [t for _, t in expected]
        assert (
            scalar.rng.bit_generator.state
            == batch.rng.bit_generator.state
        )


class TestTagFsm:
    def test_process_query_matches_reference(self):
        from repro.tag.state_machine import QueryObservation

        def make():
            system, _ = los_scenario(4.0, seed=5)
            system.load_tag_bits([1, 0] * 155)  # five queries' worth
            return system

        ref, engine = make(), make()
        for _ in range(5):
            frame = ref.builder.build()
            observation = QueryObservation(
                n_subframes=frame.n_subframes,
                n_trigger_subframes=frame.n_trigger_subframes,
                subframe_s=frame.mean_subframe_s,
                rx_power_dbm=ref.rx_power_at_tag_dbm,
                temperature_c=ref.temperature_c,
            )
            expected = oracle.process_query(ref.tag, observation)
            got = engine.tag.process_query(observation)
            assert got.detected == expected.detected
            assert oracle.states_of(got.codes) == list(expected.states)
            assert got.codes.dtype == np.int8
            assert tuple(got.toggles_aligned.tolist()) == (
                expected.toggles_aligned
            )
            assert got.bits_loaded == expected.bits_loaded
        assert (
            ref.tag.rng.bit_generator.state
            == engine.tag.rng.bit_generator.state
        )

    @pytest.mark.parametrize(
        "oscillator,temperatures",
        [
            (witag_crystal_50khz, (25.0, 30.0)),
            (ring_oscillator_20mhz, (27.0, 30.0)),
        ],
        ids=["crystal", "ring"],
    )
    def test_alternating_observations_match_reference(
        self, oscillator, temperatures
    ):
        """One FSM fed changing observations equals the per-bit loop.

        Every query alternates rx power (one level near the trigger
        sensitivity, so some triggers are missed), temperature and
        subframe duration (on and off the 4 us grid), and the queue
        runs dry partway, so later detected queries load a partial row
        and then no bits at all.
        """
        observations = [
            QueryObservation(
                n_subframes=n_subframes,
                n_trigger_subframes=2,
                subframe_s=subframe_s,
                rx_power_dbm=rx_power_dbm,
                temperature_c=temperature_c,
            )
            for n_subframes, subframe_s in ((64, 20e-6), (16, 23.7e-6))
            for rx_power_dbm in (-30.0, -46.0)
            for temperature_c in temperatures
        ]

        def make():
            tag = TagStateMachine(
                oscillator=oscillator(), rng=np.random.default_rng(23)
            )
            tag.load_bits([1, 0, 0] * 230 + [1])
            return tag

        ref, engine = make(), make()
        seen = set()
        for q in range(48):
            observation = observations[(5 * q) % len(observations)]
            expected = oracle.process_query(ref, observation)
            got = engine.process_query(observation)
            assert got.detected == expected.detected
            assert oracle.states_of(got.codes) == list(expected.states)
            assert tuple(got.toggles_aligned.tolist()) == (
                expected.toggles_aligned
            )
            assert got.bits_loaded == expected.bits_loaded
            assert engine.pending_bits == ref.pending_bits
            seen.add((got.detected, len(got.bits_loaded)
                      == observation.n_payload_subframes))
            if got.detected and not all(got.toggles_aligned):
                seen.add("misaligned")
        assert engine.pending_bits == 0
        assert {(False, False), (True, True), (True, False)} <= seen
        assert (
            ref.rng.bit_generator.state == engine.rng.bit_generator.state
        )
