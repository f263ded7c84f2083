"""Pure-Python AES-128 block cipher, implemented from first principles.

WiTAG's headline compatibility claim is that it works on WPA-encrypted
networks, because the tag corrupts *ciphertext* subframes and never needs
to read or modify plaintext symbols (paper §1, §4).  To demonstrate that
end-to-end, the reproduction encrypts query MPDUs with real CCMP, which
needs AES-128.

This implementation derives the S-box from GF(2^8) arithmetic rather than
hardcoding it, and implements the full key schedule.  Encryption is
table-driven: four 256-entry round tables, derived at import from the
S-box and GF(2^8) doubling (``xtime``), fold SubBytes, ShiftRows and
MixColumns into four lookups per state column, with the state and round
keys held as four 32-bit big-endian column words.

:meth:`Aes128.encrypt_blocks` runs the same tables over many independent
blocks at once, one lane per row of an ``(n, 16)`` uint8 array: each
round is a byte gather (ShiftRows), one lookup into the four tables and
the XORs that fold the rows and the round key, each across every lane.
CCMP seals all MPDUs of a query through it (see :mod:`.ccmp`);
:meth:`Aes128.encrypt_block` is its one-block twin.
Decryption, off the hot path, keeps the byte-wise inverse rounds.  All
are validated against the FIPS-197 test vectors, and encryption against
a byte-wise reference round in the test suite.  It is of course not
constant-time and must never be used for actual security.
"""

from __future__ import annotations

import struct
import sys

import numpy as np

BLOCK_BYTES = 16
KEY_BYTES = 16
N_ROUNDS = 10


def _gf_mul(a: int, b: int) -> int:
    """Multiply in GF(2^8) with the AES reduction polynomial 0x11B."""
    result = 0
    while b:
        if b & 1:
            result ^= a
        a <<= 1
        if a & 0x100:
            a ^= 0x11B
        b >>= 1
    return result


def _gf_inverse(a: int) -> int:
    """Multiplicative inverse in GF(2^8); 0 maps to 0 by convention."""
    if a == 0:
        return 0
    # a^254 = a^-1 in GF(2^8) (Fermat).
    result = 1
    power = a
    exponent = 254
    while exponent:
        if exponent & 1:
            result = _gf_mul(result, power)
        power = _gf_mul(power, power)
        exponent >>= 1
    return result


def _build_sbox() -> tuple[bytes, bytes]:
    sbox = bytearray(256)
    for value in range(256):
        inv = _gf_inverse(value)
        out = 0
        for bit in range(8):
            b = (
                (inv >> bit)
                ^ (inv >> ((bit + 4) % 8))
                ^ (inv >> ((bit + 5) % 8))
                ^ (inv >> ((bit + 6) % 8))
                ^ (inv >> ((bit + 7) % 8))
                ^ (0x63 >> bit)
            ) & 1
            out |= b << bit
        sbox[value] = out
    inverse = bytearray(256)
    for i, v in enumerate(sbox):
        inverse[v] = i
    return bytes(sbox), bytes(inverse)


SBOX, INV_SBOX = _build_sbox()


def _build_round_tables() -> tuple[tuple[int, ...], ...]:
    """The four encryption round tables ``T0..T3``.

    ``T0[a]`` is the MixColumns image of a column holding ``SBOX[a]`` in
    row 0 and zeros elsewhere, packed big-endian: ``(2s, s, s, 3s)``.
    ``T1..T3`` are its byte rotations, the images for rows 1..3.
    """
    t0 = []
    for a in range(256):
        s = SBOX[a]
        s2 = _gf_mul(s, 2)  # xtime
        t0.append((s2 << 24) | (s << 16) | (s << 8) | (s2 ^ s))
    tables = [tuple(t0)]
    for _ in range(3):
        tables.append(
            tuple(((w >> 8) | (w << 24)) & 0xFFFFFFFF for w in tables[-1])
        )
    return tuple(tables)


_T0, _T1, _T2, _T3 = _build_round_tables()
_WORDS = struct.Struct(">4I")

# Lane-parallel encryption (Aes128.encrypt_blocks).  A lane's state is
# 16 bytes; after ShiftRows, byte ``4c + r`` of the gathered state is row
# r of column ``(c + r) % 4`` and indexes ``T_r``, which sits at offset
# ``256 r`` of the flat table.  Round inputs come either as a block (row
# r of column c at byte ``4c + r``) or as four native-endian column
# words, whose row r lives at byte ``4c + 3 - r`` on a little-endian
# machine.
_T_FLAT = np.array(_T0 + _T1 + _T2 + _T3, dtype=np.uint32)
_T_OFFSETS = np.tile(np.arange(4, dtype=np.uint16) * 256, 4)
_SBOX_LANES = np.frombuffer(SBOX, dtype=np.uint8)
_ROW_BYTE = (3, 2, 1, 0) if sys.byteorder == "little" else (0, 1, 2, 3)
_SHIFT_BLOCK = np.array(
    [4 * ((c + r) % 4) + r for c in range(4) for r in range(4)]
)
_SHIFT_WORDS = np.array(
    [4 * ((c + r) % 4) + _ROW_BYTE[r] for c in range(4) for r in range(4)]
)

_RCON = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36]


def expand_key(key: bytes) -> list[bytes]:
    """AES-128 key schedule: 11 round keys of 16 bytes each."""
    if len(key) != KEY_BYTES:
        raise ValueError(f"AES-128 key must be 16 bytes, got {len(key)}")
    words = [key[i : i + 4] for i in range(0, 16, 4)]
    for i in range(4, 4 * (N_ROUNDS + 1)):
        temp = words[i - 1]
        if i % 4 == 0:
            rotated = temp[1:] + temp[:1]
            temp = bytes(SBOX[b] for b in rotated)
            temp = bytes([temp[0] ^ _RCON[i // 4 - 1]]) + temp[1:]
        words.append(bytes(a ^ b for a, b in zip(words[i - 4], temp)))
    return [b"".join(words[4 * r : 4 * r + 4]) for r in range(N_ROUNDS + 1)]


def _sub_bytes(state: bytearray, box: bytes) -> None:
    for i in range(16):
        state[i] = box[state[i]]


def _inv_shift_rows(state: bytearray) -> None:
    for row in range(1, 4):
        values = [state[4 * col + row] for col in range(4)]
        values = values[-row:] + values[:-row]
        for col in range(4):
            state[4 * col + row] = values[col]


def _inv_mix_columns(state: bytearray) -> None:
    for col in range(4):
        a = state[4 * col : 4 * col + 4]
        state[4 * col + 0] = (
            _gf_mul(a[0], 14) ^ _gf_mul(a[1], 11) ^ _gf_mul(a[2], 13) ^ _gf_mul(a[3], 9)
        )
        state[4 * col + 1] = (
            _gf_mul(a[0], 9) ^ _gf_mul(a[1], 14) ^ _gf_mul(a[2], 11) ^ _gf_mul(a[3], 13)
        )
        state[4 * col + 2] = (
            _gf_mul(a[0], 13) ^ _gf_mul(a[1], 9) ^ _gf_mul(a[2], 14) ^ _gf_mul(a[3], 11)
        )
        state[4 * col + 3] = (
            _gf_mul(a[0], 11) ^ _gf_mul(a[1], 13) ^ _gf_mul(a[2], 9) ^ _gf_mul(a[3], 14)
        )


def _add_round_key(state: bytearray, round_key: bytes) -> None:
    for i in range(16):
        state[i] ^= round_key[i]


class Aes128:
    """AES-128 with a precomputed key schedule.

    Example:
        >>> cipher = Aes128(bytes(16))
        >>> block = cipher.encrypt_block(bytes(16))
        >>> cipher.decrypt_block(block) == bytes(16)
        True
    """

    def __init__(self, key: bytes) -> None:
        self._round_keys = expand_key(key)
        self._round_words = [_WORDS.unpack(rk) for rk in self._round_keys]
        self._lane_keys = np.frombuffer(
            b"".join(self._round_keys), dtype=np.uint8
        ).reshape(N_ROUNDS + 1, BLOCK_BYTES)
        self._lane_words = np.array(self._round_words, dtype=np.uint32)

    def encrypt_block(self, block: bytes) -> bytes:
        """Encrypt one 16-byte block."""
        if len(block) != BLOCK_BYTES:
            raise ValueError(f"block must be 16 bytes, got {len(block)}")
        t0, t1, t2, t3 = _T0, _T1, _T2, _T3
        keys = self._round_words
        k0, k1, k2, k3 = keys[0]
        s0, s1, s2, s3 = _WORDS.unpack(block)
        s0 ^= k0
        s1 ^= k1
        s2 ^= k2
        s3 ^= k3
        # Column c of the next state draws row r from column c + r
        # (ShiftRows); T_r folds in SubBytes and MixColumns.
        for rnd in range(1, N_ROUNDS):
            k0, k1, k2, k3 = keys[rnd]
            s0, s1, s2, s3 = (
                t0[s0 >> 24] ^ t1[(s1 >> 16) & 255]
                ^ t2[(s2 >> 8) & 255] ^ t3[s3 & 255] ^ k0,
                t0[s1 >> 24] ^ t1[(s2 >> 16) & 255]
                ^ t2[(s3 >> 8) & 255] ^ t3[s0 & 255] ^ k1,
                t0[s2 >> 24] ^ t1[(s3 >> 16) & 255]
                ^ t2[(s0 >> 8) & 255] ^ t3[s1 & 255] ^ k2,
                t0[s3 >> 24] ^ t1[(s0 >> 16) & 255]
                ^ t2[(s1 >> 8) & 255] ^ t3[s2 & 255] ^ k3,
            )
        # The last round has no MixColumns: SubBytes and ShiftRows only.
        box = SBOX
        k0, k1, k2, k3 = keys[N_ROUNDS]
        return _WORDS.pack(
            (box[s0 >> 24] << 24 | box[(s1 >> 16) & 255] << 16
             | box[(s2 >> 8) & 255] << 8 | box[s3 & 255]) ^ k0,
            (box[s1 >> 24] << 24 | box[(s2 >> 16) & 255] << 16
             | box[(s3 >> 8) & 255] << 8 | box[s0 & 255]) ^ k1,
            (box[s2 >> 24] << 24 | box[(s3 >> 16) & 255] << 16
             | box[(s0 >> 8) & 255] << 8 | box[s1 & 255]) ^ k2,
            (box[s3 >> 24] << 24 | box[(s0 >> 16) & 255] << 16
             | box[(s1 >> 8) & 255] << 8 | box[s2 & 255]) ^ k3,
        )

    def encrypt_blocks(self, blocks: np.ndarray) -> np.ndarray:
        """Encrypt every row of an ``(n, 16)`` uint8 array, one lane each.

        Returns a new ``(n, 16)`` uint8 array whose row ``i`` equals
        ``encrypt_block`` of row ``i``.
        """
        rows = np.asarray(blocks, dtype=np.uint8)
        if rows.ndim != 2 or rows.shape[1] != BLOCK_BYTES:
            raise ValueError(
                f"blocks must have shape (n, 16), got {rows.shape}"
            )
        n = len(rows)
        keys = self._lane_keys
        words = self._lane_words
        shifted = (rows ^ keys[0]).take(_SHIFT_BLOCK, axis=1)
        for rnd in range(1, N_ROUNDS):
            lookups = _T_FLAT.take(shifted + _T_OFFSETS).reshape(n, 4, 4)
            state = lookups[:, :, 0] ^ lookups[:, :, 1]
            state ^= lookups[:, :, 2]
            state ^= lookups[:, :, 3]
            state ^= words[rnd]
            shifted = state.view(np.uint8).take(_SHIFT_WORDS, axis=1)
        # The last round has no MixColumns: SubBytes and ShiftRows only.
        return _SBOX_LANES.take(shifted) ^ keys[N_ROUNDS]

    def decrypt_block(self, block: bytes) -> bytes:
        """Decrypt one 16-byte block."""
        if len(block) != BLOCK_BYTES:
            raise ValueError(f"block must be 16 bytes, got {len(block)}")
        state = bytearray(block)
        _add_round_key(state, self._round_keys[N_ROUNDS])
        _inv_shift_rows(state)
        _sub_bytes(state, INV_SBOX)
        for rnd in range(N_ROUNDS - 1, 0, -1):
            _add_round_key(state, self._round_keys[rnd])
            _inv_mix_columns(state)
            _inv_shift_rows(state)
            _sub_bytes(state, INV_SBOX)
        _add_round_key(state, self._round_keys[0])
        return bytes(state)
