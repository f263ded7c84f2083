"""Byte-wise AES-128 encryption rounds, as FIPS-197 §5.1 writes them.

SubBytes, ShiftRows, MixColumns and AddRoundKey on a 16-byte
column-major state (byte index ``4 * col + row``).
:class:`repro.mac.security.aes.Aes128` folds the first three into
round-table lookups on 32-bit column words; this is the reference it
must equal.
"""

from repro.mac.security.aes import (
    BLOCK_BYTES,
    N_ROUNDS,
    SBOX,
    _add_round_key,
    _gf_mul,
    _sub_bytes,
    expand_key,
)


def _shift_rows(state: bytearray) -> None:
    for row in range(1, 4):
        values = [state[4 * col + row] for col in range(4)]
        values = values[row:] + values[:row]
        for col in range(4):
            state[4 * col + row] = values[col]


def _mix_columns(state: bytearray) -> None:
    for col in range(4):
        a = state[4 * col : 4 * col + 4]
        state[4 * col + 0] = _gf_mul(a[0], 2) ^ _gf_mul(a[1], 3) ^ a[2] ^ a[3]
        state[4 * col + 1] = a[0] ^ _gf_mul(a[1], 2) ^ _gf_mul(a[2], 3) ^ a[3]
        state[4 * col + 2] = a[0] ^ a[1] ^ _gf_mul(a[2], 2) ^ _gf_mul(a[3], 3)
        state[4 * col + 3] = _gf_mul(a[0], 3) ^ a[1] ^ a[2] ^ _gf_mul(a[3], 2)


def encrypt_block(key: bytes, block: bytes) -> bytes:
    """Encrypt one 16-byte block with AES-128 under ``key``."""
    if len(block) != BLOCK_BYTES:
        raise ValueError(f"block must be 16 bytes, got {len(block)}")
    round_keys = expand_key(key)
    state = bytearray(block)
    _add_round_key(state, round_keys[0])
    for rnd in range(1, N_ROUNDS):
        _sub_bytes(state, SBOX)
        _shift_rows(state)
        _mix_columns(state)
        _add_round_key(state, round_keys[rnd])
    _sub_bytes(state, SBOX)
    _shift_rows(state)
    _add_round_key(state, round_keys[N_ROUNDS])
    return bytes(state)
