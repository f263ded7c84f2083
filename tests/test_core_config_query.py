"""Unit tests for configuration and query A-MPDU construction."""

import pytest

from repro.core.config import EncryptionMode, WiTagConfig
from repro.core.errors import ConfigurationError
from repro.core.query import QueryBuilder, TRIGGER_PATTERN
from repro.core.system import DEFAULT_AP, DEFAULT_CLIENT
from repro.mac.ampdu import deaggregate
from repro.mac.frames import QosDataFrame
from repro.mac.security.ccmp import CcmpContext
from repro.mac.sequence import SequenceCounter
from repro.phy.mcs import ht_mcs
from tests.oracles import query as query_oracle


def make_builder(**config_kwargs):
    config = WiTagConfig(**config_kwargs)
    return QueryBuilder(config, client=DEFAULT_CLIENT, ap=DEFAULT_AP)


class TestConfig:
    def test_defaults(self):
        config = WiTagConfig()
        assert config.n_subframes == 64
        assert config.bits_per_query == 62
        assert config.tag_clock_period_s == pytest.approx(20e-6)

    def test_subframe_bounds(self):
        with pytest.raises(ConfigurationError):
            WiTagConfig(n_subframes=0)
        with pytest.raises(ConfigurationError):
            WiTagConfig(n_subframes=65)

    def test_trigger_bounds(self):
        with pytest.raises(ConfigurationError):
            WiTagConfig(n_subframes=4, n_trigger_subframes=4)

    def test_wep_key_length(self):
        with pytest.raises(ConfigurationError):
            WiTagConfig(encryption=EncryptionMode.WEP, encryption_key=b"xx")
        WiTagConfig(encryption=EncryptionMode.WEP, encryption_key=b"12345")

    def test_ccmp_key_length(self):
        with pytest.raises(ConfigurationError):
            WiTagConfig(
                encryption=EncryptionMode.WPA2_CCMP, encryption_key=b"short"
            )

    def test_width_validation(self):
        with pytest.raises(ConfigurationError):
            WiTagConfig(channel_width_mhz=30)


class TestQueryBuilder:
    def test_builds_configured_subframes(self):
        query = make_builder().build()
        assert query.n_subframes == 64
        assert query.n_payload_subframes == 62

    def test_all_mpdus_valid(self):
        query = make_builder().build()
        subframes = deaggregate(query.psdu)
        assert len(subframes) == 64
        assert all(s.fcs_ok for s in subframes)

    def test_sequence_numbers_consecutive(self):
        query = make_builder().build()
        sequences = [
            QosDataFrame.parse(m).seq.sequence for m in query.mpdus
        ]
        assert sequences == list(range(query.ssn, query.ssn + 64))

    def test_successive_queries_advance_ssn(self):
        builder = make_builder()
        first = builder.build()
        second = builder.build()
        assert second.ssn == (first.ssn + 64) % 4096

    def test_trigger_subframes_carry_pattern(self):
        query = make_builder().build()
        trigger_payload = QosDataFrame.parse(query.mpdus[0]).payload
        assert trigger_payload[: len(TRIGGER_PATTERN)] == TRIGGER_PATTERN

    def test_payload_subframes_zero_filled(self):
        query = make_builder().build()
        payload = QosDataFrame.parse(query.mpdus[5]).payload
        assert set(payload) <= {0}

    def test_boundaries_track_clock_grid(self):
        """Cumulative boundary error must stay within a fraction of a symbol."""
        query = make_builder().build()
        starts = [w[0] for w in query.schedule.windows]
        period = query.mean_subframe_s
        for k, start in enumerate(starts):
            deviation = abs(start - (starts[0] + k * period))
            assert deviation < 4e-6, f"subframe {k} off grid by {deviation}"

    def test_mean_subframe_matches_clock(self):
        query = make_builder().build()
        assert query.mean_subframe_s == pytest.approx(20e-6, rel=0.01)

    def test_airtime_plausible(self):
        # 64 x ~20 us subframes + 36 us preamble ~= 1.3 ms.
        query = make_builder().build()
        assert query.airtime_s == pytest.approx(1.32e-3, rel=0.03)

    def test_clock_too_fast_rejected(self):
        with pytest.raises(ConfigurationError):
            make_builder(mcs=ht_mcs(0), tag_clock_hz=500e3).build()


class TestBuildTemplateCache:
    """The templated build must be indistinguishable from the uncached
    reference serialization (only sequence numbers, packet numbers and
    IVs differ between consecutive builds)."""

    def test_cached_build_matches_reference(self):
        cached = make_builder()
        reference = make_builder()
        for _ in range(3):
            a = cached.build()
            b = query_oracle.build_reference(reference)
            assert a.psdu == b.psdu
            assert a.mpdus == b.mpdus
            assert a.ssn == b.ssn
            assert a.schedule == b.schedule

    def test_consecutive_builds_advance_sequence_numbers(self):
        builder = make_builder()
        first = builder.build()
        second = builder.build()
        assert second.ssn == (
            first.ssn + first.n_subframes
        ) % 4096
        assert first.mpdus != second.mpdus
        # Schedule is geometry-only and shared between builds.
        assert first.schedule is second.schedule

    def test_encrypted_builds_bypass_cache(self):
        """Encrypted builds share the templates but never repeat a frame:
        CCMP packet numbers advance, so consecutive queries differ at
        every position and each equals the uncached reference."""
        config = dict(
            encryption=EncryptionMode.WPA2_CCMP,
            encryption_key=bytes(range(16)),
        )
        builder = make_builder(**config)
        reference = make_builder(**config)
        q1 = builder.build()
        q2 = builder.build()
        assert q1.mpdus != q2.mpdus
        assert all(a != b for a, b in zip(q1.mpdus, q2.mpdus))
        for query in (q1, q2):
            expected = query_oracle.build_reference(reference)
            assert query.mpdus == expected.mpdus
            assert query.psdu == expected.psdu
        assert builder._frame_memo == {}


ORACLE_SWEEP = [
    pytest.param(mode, key, mcs, n, id=f"{mode.value}-mcs{mcs}-{n}")
    for mode, key in (
        (EncryptionMode.WPA2_CCMP, b"0123456789abcdef"),
        (EncryptionMode.WEP, b"12345"),
    )
    for mcs in (3, 7)
    for n in (8, 32, 64)
]


class TestEncryptedBuildsMatchOracle:
    """Sealed templated builds equal the from-scratch reference build."""

    @pytest.mark.parametrize("mode,key,mcs,n_subframes", ORACLE_SWEEP)
    def test_builds_match_reference(self, mode, key, mcs, n_subframes):
        config = dict(
            encryption=mode,
            encryption_key=key,
            mcs=ht_mcs(mcs),
            n_subframes=n_subframes,
        )
        builder = make_builder(**config)
        reference = make_builder(**config)
        for index in range(4):
            got = builder.build()
            expected = query_oracle.build_reference(reference)
            assert got.psdu == expected.psdu
            assert got.mpdus == expected.mpdus
            assert got.ssn == expected.ssn
            assert got.schedule == expected.schedule
        if mode is EncryptionMode.WPA2_CCMP:
            assert builder._ccmp.packet_number == (
                reference._ccmp.packet_number
            ) == 1 + 4 * n_subframes
        else:
            assert builder._wep.next_iv == reference._wep.next_iv == (
                4 * n_subframes
            )
        assert (
            builder.sequence.next_value == reference.sequence.next_value
        )

    @pytest.mark.parametrize("mode,key", [
        (EncryptionMode.WPA2_CCMP, b"0123456789abcdef"),
        (EncryptionMode.WEP, b"12345"),
    ], ids=["wpa2-ccmp", "wep"])
    def test_peek_consumes_nothing(self, mode, key):
        builder = make_builder(encryption=mode, encryption_key=key)
        reference = make_builder(encryption=mode, encryption_key=key)
        airtime = builder.peek_airtime_s()
        query = builder.build()
        assert airtime == query.airtime_s
        assert query.mpdus == query_oracle.build_reference(reference).mpdus


class TestBuildAcrossSequenceWrap:
    """The spliced build equals the from-scratch one through 4095 -> 0."""

    @pytest.mark.parametrize("mode,key", [
        (EncryptionMode.OPEN, None),
        (EncryptionMode.WPA2_CCMP, b"0123456789abcdef"),
        (EncryptionMode.WEP, b"12345"),
    ], ids=["open", "wpa2-ccmp", "wep"])
    @pytest.mark.parametrize("n_subframes", [64, 37])
    def test_builds_match_reference(self, mode, key, n_subframes):
        config = WiTagConfig(
            encryption=mode, encryption_key=key, n_subframes=n_subframes
        )
        builder, reference = (
            QueryBuilder(
                config,
                client=DEFAULT_CLIENT,
                ap=DEFAULT_AP,
                sequence=SequenceCounter(4096 - n_subframes - 5),
            )
            for _ in range(2)
        )
        ssns = []
        for _ in range(3):
            got = builder.build()
            expected = query_oracle.build_reference(reference)
            assert got.psdu == expected.psdu
            assert got.mpdus == expected.mpdus
            assert got.ssn == expected.ssn
            assert got.schedule == expected.schedule
            ssns.append(got.ssn)
        # The second query's sequence numbers wrap from 4095 to 0.
        assert ssns == [
            4096 - n_subframes - 5, 4091, n_subframes - 5
        ]
        assert builder.sequence.next_value == (
            reference.sequence.next_value
        )


class TestEncryptedQueries:
    def test_ccmp_queries_decryptable(self):
        key = b"0123456789abcdef"
        builder = make_builder(
            encryption=EncryptionMode.WPA2_CCMP, encryption_key=key
        )
        query = builder.build()
        receiver_ctx = CcmpContext(key)
        frame = QosDataFrame.parse(query.mpdus[0])
        plaintext = receiver_ctx.decrypt(
            frame.payload, bytes(DEFAULT_CLIENT)
        )
        assert plaintext[: len(TRIGGER_PATTERN)] == TRIGGER_PATTERN

    def test_ccmp_payload_is_ciphertext(self):
        builder = make_builder(
            encryption=EncryptionMode.WPA2_CCMP,
            encryption_key=b"0123456789abcdef",
        )
        query = builder.build()
        frame = QosDataFrame.parse(query.mpdus[0])
        assert TRIGGER_PATTERN not in frame.payload

    def test_wep_queries_build(self):
        builder = make_builder(
            encryption=EncryptionMode.WEP, encryption_key=b"12345"
        )
        query = builder.build()
        assert len(deaggregate(query.psdu)) == 64

    def test_encrypted_airtime_unchanged(self):
        """Encryption must not change the on-air shape of queries."""
        open_q = make_builder().build()
        enc_q = make_builder(
            encryption=EncryptionMode.WPA2_CCMP,
            encryption_key=b"0123456789abcdef",
        ).build()
        assert enc_q.airtime_s == pytest.approx(open_q.airtime_s, rel=1e-6)
        assert enc_q.mean_subframe_s == pytest.approx(
            open_q.mean_subframe_s, rel=1e-6
        )
