"""Integration tests: WiTAG on encrypted networks (the paper's key claim).

Paper Section 1: "because tags communicate by corrupting encrypted or
unencrypted MAC-layer subframes WiTAG works with networks that use
encryption" — while symbol-rewriting systems (HitchHike et al.) break the
decryption of any frame they touch.
"""

import hashlib

import numpy as np
import pytest

from repro.core.config import EncryptionMode
from repro.core.session import MeasurementSession
from repro.mac.frames import QosDataFrame
from repro.mac.security.ccmp import CcmpContext, MicError
from repro.mac.security.wep import IcvError, WepContext
from repro.phy.channel import ChannelGeometry
from repro.sim.scenario import build_system

CCMP_KEY = b"0123456789abcdef"
WEP_KEY = b"12345"


def encrypted_system(mode, key, seed=60):
    system, info = build_system(
        ChannelGeometry.on_line(8.0, 2.0),
        encryption=mode,
        encryption_key=key,
        seed=seed,
    )
    return system


def run_short_session(system, seconds=1.0, seed=4):
    return MeasurementSession(
        system, rng=np.random.default_rng(seed)
    ).run_for(seconds)


class TestWiTagUnderEncryption:
    def test_ber_unaffected_by_ccmp(self):
        """Tag BER on a WPA2 network matches the open-network BER."""
        open_stats = run_short_session(
            encrypted_system(EncryptionMode.OPEN, None)
        )
        ccmp_stats = run_short_session(
            encrypted_system(EncryptionMode.WPA2_CCMP, CCMP_KEY)
        )
        assert ccmp_stats.ber == pytest.approx(open_stats.ber, abs=0.01)
        assert ccmp_stats.throughput_bps == pytest.approx(
            open_stats.throughput_bps, rel=0.05
        )

    def test_ber_unaffected_by_wep(self):
        wep_stats = run_short_session(
            encrypted_system(EncryptionMode.WEP, WEP_KEY)
        )
        assert wep_stats.ber < 0.03

    def test_surviving_subframes_still_decrypt(self):
        """Subframes the tag leaves alone remain valid ciphertext."""
        system = encrypted_system(EncryptionMode.WPA2_CCMP, CCMP_KEY)
        system.load_tag_bits([1] * 62)  # tag corrupts nothing
        result = system.run_query()
        rx = CcmpContext(CCMP_KEY)
        decrypted = 0
        for index, mpdu in enumerate(result.query.mpdus):
            if not result.block_ack.bit(index):
                continue
            frame = QosDataFrame.parse(mpdu)
            rx.decrypt(frame.payload, bytes(system.client))
            decrypted += 1
        assert decrypted >= 60


#: benchmarks/test_sec5_corruption.py's 62-bit pattern.
E8_PATTERN = [1, 0, 1, 1, 0, 0, 1, 0] * 7 + [1, 0, 1, 0, 1, 0]


class TestE8Pinned:
    """E8 (paper §5) at fixed seed: the same 62 bits come through one
    query on an open, a WPA2-CCMP and a WEP network.

    The setup is the §5 corruption benchmark's (8 m span, tag at 1 m,
    seed 40, one ``run_query``), pinned exactly: no bit errors, the
    bitmap of the pattern, and the SHA-256 of each query's PSDU.
    """

    @pytest.mark.parametrize("mode,key,psdu_sha256", [
        (
            EncryptionMode.OPEN, None,
            "3299e258286f8db07ceba081bb3ae43d"
            "9fe39f2d64a19191b0bcef81b3ca00f4",
        ),
        (
            EncryptionMode.WPA2_CCMP, CCMP_KEY,
            "b2a07a91d90340da80f882e8189f4d39"
            "ed81b079110efdb01510392f6879043b",
        ),
        (
            EncryptionMode.WEP, WEP_KEY,
            "155c2cc33008da093f5f805bbf1baf4b"
            "6d2e8fbbea7ce8bfd6b95a0e1a45a8bc",
        ),
    ], ids=["open", "wpa2-ccmp", "wep"])
    def test_pattern_through_one_query(self, mode, key, psdu_sha256):
        system, _ = build_system(
            ChannelGeometry.on_line(8.0, 1.0),
            encryption=mode,
            encryption_key=key,
            seed=40,
        )
        system.load_tag_bits(list(E8_PATTERN))
        result = system.run_query()
        assert result.detected
        assert result.n_bits == 62
        assert result.bit_errors == 0
        assert result.block_ack.bitmap == 0x5535353535353537
        assert hashlib.sha256(result.query.psdu).hexdigest() == psdu_sha256


class TestSymbolRewritingBreaksEncryption:
    """Why HitchHike-class designs fail here (paper Section 2)."""

    def test_ccmp_rejects_symbol_rewrite(self):
        tx = CcmpContext(CCMP_KEY)
        protected, _ = tx.encrypt(b"a perfectly normal frame", b"\x02" * 6)
        # A codeword-translating tag flips bits *within* the payload while
        # keeping it a 'valid' PHY frame.
        rewritten = bytearray(protected)
        rewritten[10] ^= 0x0F
        with pytest.raises(MicError):
            CcmpContext(CCMP_KEY).decrypt(bytes(rewritten), b"\x02" * 6)

    def test_wep_rejects_symbol_rewrite(self):
        tx = WepContext(WEP_KEY)
        protected = bytearray(tx.encrypt(b"legacy data"))
        protected[7] ^= 0x3C
        with pytest.raises(IcvError):
            WepContext(WEP_KEY).decrypt(bytes(protected))

    def test_witag_never_touches_payload_bytes(self):
        """WiTAG's query MPDUs reach the AP bit-exact or not at all."""
        system = encrypted_system(EncryptionMode.WPA2_CCMP, CCMP_KEY)
        system.load_tag_bits([0, 1] * 31)
        result = system.run_query()
        # The system models corruption as FCS failure, never as delivered-
        # but-modified bytes: every acknowledged subframe equals what the
        # client transmitted.
        for index, mpdu in enumerate(result.query.mpdus):
            if result.block_ack.bit(index):
                assert QosDataFrame.parse(mpdu)  # parses + FCS verifies
