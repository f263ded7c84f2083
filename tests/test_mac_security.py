"""Unit tests for AES-128, CCMP and WEP against published vectors."""

import random

import numpy as np
import pytest

from repro.mac.security.aes import Aes128, SBOX, expand_key
from repro.mac.security.ccmp import (
    CCMP_HEADER_BYTES,
    CcmpContext,
    MicError,
    build_nonce,
    ccmp_header,
)
from repro.mac.security.wep import IcvError, WepContext, rc4, rc4_keystream
from tests.oracles import aes as aes_reference
from tests.oracles import ccmp as ccmp_reference

TA = b"\x02\x00\x00\x00\x00\x01"


class TestAes:
    def test_fips197_appendix_c(self):
        key = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
        plaintext = bytes.fromhex("00112233445566778899aabbccddeeff")
        expected = bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a")
        assert Aes128(key).encrypt_block(plaintext) == expected

    def test_fips197_appendix_b(self):
        key = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
        plaintext = bytes.fromhex("3243f6a8885a308d313198a2e0370734")
        expected = bytes.fromhex("3925841d02dc09fbdc118597196a0b32")
        assert Aes128(key).encrypt_block(plaintext) == expected

    def test_decrypt_inverts_encrypt(self):
        cipher = Aes128(b"sixteen byte key")
        for block in (bytes(16), bytes(range(16)), b"\xff" * 16):
            assert cipher.decrypt_block(cipher.encrypt_block(block)) == block

    def test_sbox_known_values(self):
        # S-box spot checks from FIPS-197 Figure 7.
        assert SBOX[0x00] == 0x63
        assert SBOX[0x53] == 0xED
        assert SBOX[0xFF] == 0x16

    def test_key_schedule_length(self):
        keys = expand_key(bytes(16))
        assert len(keys) == 11
        assert all(len(k) == 16 for k in keys)

    def test_bad_key_length(self):
        with pytest.raises(ValueError):
            Aes128(b"short")

    def test_bad_block_length(self):
        with pytest.raises(ValueError):
            Aes128(bytes(16)).encrypt_block(b"short")


class TestAesRoundTables:
    """The table-driven rounds equal the byte-wise FIPS-197 rounds."""

    def test_fips197_appendix_c1_reference(self):
        key = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
        plaintext = bytes.fromhex("00112233445566778899aabbccddeeff")
        expected = bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a")
        assert aes_reference.encrypt_block(key, plaintext) == expected
        assert Aes128(key).encrypt_block(plaintext) == expected

    def test_random_pairs_match_reference(self):
        rng = random.Random(197)
        for _ in range(1000):
            key = rng.randbytes(16)
            block = rng.randbytes(16)
            assert Aes128(key).encrypt_block(block) == (
                aes_reference.encrypt_block(key, block)
            ), (key.hex(), block.hex())

    def test_extreme_blocks_match_reference(self):
        # All-zero and all-one bytes reach the table ends (index 0, 255).
        for key in (bytes(16), b"\xff" * 16):
            cipher = Aes128(key)
            for block in (bytes(16), b"\xff" * 16):
                assert cipher.encrypt_block(block) == (
                    aes_reference.encrypt_block(key, block)
                )


class TestAesLanes:
    """``encrypt_blocks`` equals ``encrypt_block`` lane by lane."""

    @staticmethod
    def rows(data: bytes) -> np.ndarray:
        return np.frombuffer(data, dtype=np.uint8).reshape(-1, 16)

    def test_random_rows_match_block_and_reference(self):
        rng = random.Random(3610)
        for _ in range(10):
            key = rng.randbytes(16)
            cipher = Aes128(key)
            blocks = [rng.randbytes(16) for _ in range(100)]
            lanes = cipher.encrypt_blocks(self.rows(b"".join(blocks)))
            for block, lane in zip(blocks, lanes):
                expected = aes_reference.encrypt_block(key, block)
                assert lane.tobytes() == expected, (key.hex(), block.hex())
                assert cipher.encrypt_block(block) == expected

    def test_extreme_keys_and_blocks(self):
        for key in (bytes(16), b"\xff" * 16):
            cipher = Aes128(key)
            blocks = (bytes(16), b"\xff" * 16)
            lanes = cipher.encrypt_blocks(self.rows(b"".join(blocks)))
            for block, lane in zip(blocks, lanes):
                assert lane.tobytes() == aes_reference.encrypt_block(key, block)
                assert lane.tobytes() == cipher.encrypt_block(block)

    def test_shapes(self):
        cipher = Aes128(bytes(16))
        empty = cipher.encrypt_blocks(np.zeros((0, 16), dtype=np.uint8))
        assert empty.shape == (0, 16) and empty.dtype == np.uint8
        for shape in ((16,), (2, 15), (1, 2, 16)):
            with pytest.raises(ValueError):
                cipher.encrypt_blocks(np.zeros(shape, dtype=np.uint8))


#: RFC 3610 §8 packet vector #1 in the CCMP nonce layout: priority 0x00,
#: transmitter 00 00 03 02 01 00, packet number A0 A1 A2 A3 A4 A5.
RFC3610_KEY = bytes(range(0xC0, 0xD0))
RFC3610_TA = bytes.fromhex("000003020100")
RFC3610_PN = 0xA0A1A2A3A4A5
RFC3610_AAD = bytes(range(8))
RFC3610_PAYLOAD = bytes(range(0x08, 0x1F))
RFC3610_SEALED = bytes.fromhex(
    "588c979a61c663d2f066d0c2c0f989806d5f6b61dac38417e8d12cfdf926e0"
)


class TestCcmRfc3610:
    """A published CCM vector, so encrypt and decrypt cannot share a bug."""

    def test_encrypt(self):
        context = CcmpContext(RFC3610_KEY, packet_number=RFC3610_PN)
        protected, pn = context.encrypt(
            RFC3610_PAYLOAD, RFC3610_TA, aad=RFC3610_AAD
        )
        assert pn == RFC3610_PN
        assert protected == ccmp_header(RFC3610_PN) + RFC3610_SEALED

    def test_third_lane_of_a_batch(self):
        context = CcmpContext(RFC3610_KEY, packet_number=RFC3610_PN - 2)
        bodies = context.encrypt_many(
            [b"first", bytes(40), RFC3610_PAYLOAD],
            RFC3610_TA,
            aad=RFC3610_AAD,
        )
        assert bodies[2][CCMP_HEADER_BYTES:] == RFC3610_SEALED
        assert context.packet_number == RFC3610_PN + 1

    def test_reference(self):
        protected = ccmp_reference.encrypt(
            RFC3610_KEY, RFC3610_PN, RFC3610_PAYLOAD, RFC3610_TA,
            aad=RFC3610_AAD,
        )
        assert protected[CCMP_HEADER_BYTES:] == RFC3610_SEALED

    def test_decrypt(self):
        protected = ccmp_header(RFC3610_PN) + RFC3610_SEALED
        assert CcmpContext(RFC3610_KEY).decrypt(
            protected, RFC3610_TA, aad=RFC3610_AAD
        ) == RFC3610_PAYLOAD


def random_body(rng: random.Random) -> bytes:
    """0-200 bytes, empty and whole-block lengths drawn often."""
    kind = rng.random()
    if kind < 0.1:
        return b""
    if kind < 0.3:
        return rng.randbytes(16 * rng.randint(1, 12))
    return rng.randbytes(rng.randint(0, 200))


class TestCcmpLanes:
    """``encrypt_many`` equals sequential one-block-at-a-time CCM."""

    def test_random_batches_match_reference(self):
        rng = random.Random(48)
        for case in range(1000):
            key = rng.randbytes(16)
            transmitter = rng.randbytes(6)
            priority = rng.randint(0, 15)
            aad = rng.randbytes(rng.choice((0, 0, 1, 14, 22, 30)))
            # Half the batches are small, so lanes of unequal length
            # often finish their CBC-MAC chains at different steps.
            lanes = rng.randint(1, rng.choice((8, 70)))
            plaintexts = [random_body(rng) for _ in range(lanes)]
            first = rng.choice(
                (rng.randrange(2**32), rng.randrange(2**48 - lanes + 1),
                 2**48 - lanes)
            )
            context = CcmpContext(key, packet_number=first)
            bodies = context.encrypt_many(
                plaintexts, transmitter, aad=aad, priority=priority
            )
            expected = [
                ccmp_reference.encrypt(
                    key, first + i, plaintext, transmitter, aad, priority
                )
                for i, plaintext in enumerate(plaintexts)
            ]
            assert bodies == expected, (case, key.hex(), first)
            assert context.packet_number == first + lanes

    def test_matches_sequential_encrypt(self):
        rng = random.Random(7)
        plaintexts = [random_body(rng) for _ in range(40)]
        batch = CcmpContext(b"0123456789abcdef", packet_number=900)
        single = CcmpContext(b"0123456789abcdef", packet_number=900)
        assert batch.encrypt_many(plaintexts, TA, aad=b"hdr") == [
            single.encrypt(p, TA, aad=b"hdr")[0] for p in plaintexts
        ]
        assert batch.packet_number == single.packet_number == 940

    def test_empty_batch(self):
        context = CcmpContext(b"0123456789abcdef", packet_number=5)
        assert context.encrypt_many([], TA, aad=b"hdr") == []
        assert context.packet_number == 5

    def test_batch_past_last_packet_number_rejected(self):
        context = CcmpContext(b"0123456789abcdef", packet_number=2**48 - 3)
        with pytest.raises(ValueError):
            context.encrypt_many([b"a", b"b", b"c", b"d"], TA)
        assert context.packet_number == 2**48 - 3
        # Exactly up to 2^48 - 1 is fine.
        bodies = context.encrypt_many([b"a", b"b", b"c"], TA)
        assert bodies[-1][:CCMP_HEADER_BYTES] == ccmp_header(2**48 - 1)
        with pytest.raises(ValueError):
            context.encrypt(b"d", TA)
        assert context.packet_number == 2**48

    def test_decrypt_inverts_each_lane(self):
        rng = random.Random(11)
        key = rng.randbytes(16)
        plaintexts = [random_body(rng) for _ in range(30)]
        bodies = CcmpContext(key).encrypt_many(plaintexts, TA, aad=b"hdr")
        receiver = CcmpContext(key)
        for body, plaintext in zip(bodies, plaintexts):
            assert receiver.decrypt(body, TA, aad=b"hdr") == plaintext
        for lane in (0, 17, 29):
            body = bytearray(bodies[lane])
            bit = rng.randrange(8 * (len(body) - CCMP_HEADER_BYTES))
            body[CCMP_HEADER_BYTES + bit // 8] ^= 1 << (bit % 8)
            with pytest.raises(MicError):
                receiver.decrypt(bytes(body), TA, aad=b"hdr")


class TestCcmp:
    def test_roundtrip(self):
        tx = CcmpContext(b"0123456789abcdef")
        rx = CcmpContext(b"0123456789abcdef")
        protected, pn = tx.encrypt(b"temperature=23.5C", TA)
        assert pn == 1
        assert rx.decrypt(protected, TA) == b"temperature=23.5C"

    def test_packet_numbers_increment(self):
        tx = CcmpContext(b"0123456789abcdef")
        _, pn1 = tx.encrypt(b"a", TA)
        _, pn2 = tx.encrypt(b"b", TA)
        assert pn2 == pn1 + 1

    def test_ciphertext_differs_from_plaintext(self):
        tx = CcmpContext(b"0123456789abcdef")
        protected, _ = tx.encrypt(b"A" * 64, TA)
        assert b"A" * 16 not in protected

    def test_tampered_ciphertext_detected(self):
        """The HitchHike failure mode: modified symbols break the MIC."""
        tx = CcmpContext(b"0123456789abcdef")
        protected, _ = tx.encrypt(b"secret", TA)
        tampered = bytearray(protected)
        tampered[9] ^= 0x55
        with pytest.raises(MicError):
            CcmpContext(b"0123456789abcdef").decrypt(bytes(tampered), TA)

    def test_wrong_key_detected(self):
        tx = CcmpContext(b"0123456789abcdef")
        protected, _ = tx.encrypt(b"secret", TA)
        with pytest.raises(MicError):
            CcmpContext(b"fedcba9876543210").decrypt(protected, TA)

    def test_aad_binding(self):
        tx = CcmpContext(b"0123456789abcdef")
        protected, _ = tx.encrypt(b"payload", TA, aad=b"header-bytes")
        with pytest.raises(MicError):
            CcmpContext(b"0123456789abcdef").decrypt(
                protected, TA, aad=b"other-header"
            )

    def test_empty_payload(self):
        tx = CcmpContext(b"0123456789abcdef")
        protected, _ = tx.encrypt(b"", TA)
        assert CcmpContext(b"0123456789abcdef").decrypt(protected, TA) == b""

    def test_header_format(self):
        header = ccmp_header(0x010203040506, key_id=1)
        assert len(header) == 8
        assert header[3] == 0x20 | (1 << 6)  # ext IV + key id

    def test_nonce_validation(self):
        with pytest.raises(ValueError):
            build_nonce(2**48, TA)
        with pytest.raises(ValueError):
            build_nonce(1, b"short")

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            CcmpContext(b"0123456789abcdef").decrypt(b"\x00" * 10, TA)


class TestRc4:
    def test_known_keystream(self):
        # Classic RC4 test vector: key "Key" -> keystream EB9F7781B734...
        assert rc4_keystream(b"Key", 6).hex() == "eb9f7781b734"

    def test_known_ciphertext(self):
        # "Plaintext" under key "Key" -> BBF316E8D940AF0AD3.
        assert rc4(b"Key", b"Plaintext").hex() == "bbf316e8d940af0ad3"

    def test_symmetric(self):
        assert rc4(b"k1", rc4(b"k1", b"data")) == b"data"

    def test_validation(self):
        with pytest.raises(ValueError):
            rc4_keystream(b"", 4)
        with pytest.raises(ValueError):
            rc4_keystream(b"k", -1)


class TestWep:
    def test_roundtrip(self):
        tx = WepContext(b"12345")
        rx = WepContext(b"12345")
        assert rx.decrypt(tx.encrypt(b"legacy frame")) == b"legacy frame"

    def test_iv_rolls(self):
        tx = WepContext(b"12345")
        first = tx.encrypt(b"x")
        second = tx.encrypt(b"x")
        assert first[:3] != second[:3]
        assert first[4:] != second[4:]  # different keystream

    def test_tamper_detected(self):
        tx = WepContext(b"1234567890123")
        protected = bytearray(tx.encrypt(b"payload"))
        protected[6] ^= 0x80
        with pytest.raises(IcvError):
            WepContext(b"1234567890123").decrypt(bytes(protected))

    def test_key_length_validation(self):
        with pytest.raises(ValueError):
            WepContext(b"abc")

    def test_short_body_rejected(self):
        with pytest.raises(ValueError):
            WepContext(b"12345").decrypt(b"\x00" * 5)
