"""Unit tests for AES-128, CCMP and WEP against published vectors."""

import random

import pytest

from repro.mac.security.aes import Aes128, SBOX, expand_key
from repro.mac.security.ccmp import (
    CcmpContext,
    MicError,
    build_nonce,
    ccmp_header,
)
from repro.mac.security.wep import IcvError, WepContext, rc4, rc4_keystream
from tests.oracles import aes as aes_reference

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
