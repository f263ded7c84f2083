"""CCM (RFC 3610) with the 802.11 CCMP profile, one AES block at a time.

The counter-mode keystream, the CBC-MAC and the MIC mask, each computed
by sequential :meth:`~repro.mac.security.aes.Aes128.encrypt_block`
calls, as RFC 3610 §2.2-2.3 writes them.
:class:`repro.mac.security.ccmp.CcmpContext` seals many MPDUs in
lane-parallel AES passes; this is the reference it must equal.
"""

import struct

from repro.mac.security.aes import BLOCK_BYTES, Aes128
from repro.mac.security.ccmp import (
    MIC_BYTES,
    _L,
    build_nonce,
    ccmp_header,
)


def _xor_block(a: bytes, b: bytes) -> bytes:
    return bytes(x ^ y for x, y in zip(a, b))


def _pad_block(data: bytes) -> bytes:
    remainder = len(data) % BLOCK_BYTES
    if remainder == 0:
        return data
    return data + b"\x00" * (BLOCK_BYTES - remainder)


def _cbc_mac(cipher: Aes128, nonce: bytes, aad: bytes, plaintext: bytes) -> bytes:
    """CCM authentication tag (untruncated block) per RFC 3610."""
    flags = 0x40 if aad else 0x00  # Adata
    flags |= ((MIC_BYTES - 2) // 2) << 3
    flags |= _L - 1
    b0 = bytes([flags]) + nonce + struct.pack(">H", len(plaintext))
    mac = cipher.encrypt_block(b0)
    if aad:
        aad_block = struct.pack(">H", len(aad)) + aad
        aad_block = _pad_block(aad_block)
        for i in range(0, len(aad_block), BLOCK_BYTES):
            mac = cipher.encrypt_block(
                _xor_block(mac, aad_block[i : i + BLOCK_BYTES])
            )
    padded = _pad_block(plaintext)
    for i in range(0, len(padded), BLOCK_BYTES):
        mac = cipher.encrypt_block(_xor_block(mac, padded[i : i + BLOCK_BYTES]))
    return mac


def _ctr_keystream(cipher: Aes128, nonce: bytes, n_blocks: int) -> bytes:
    """CTR keystream blocks A_1..A_n (A_0 is reserved for the MIC)."""
    stream = bytearray()
    for counter in range(1, n_blocks + 1):
        a_i = bytes([_L - 1]) + nonce + struct.pack(">H", counter)
        stream.extend(cipher.encrypt_block(a_i))
    return bytes(stream)


def _mic_mask(cipher: Aes128, nonce: bytes) -> bytes:
    a_0 = bytes([_L - 1]) + nonce + struct.pack(">H", 0)
    return cipher.encrypt_block(a_0)[:MIC_BYTES]


def encrypt(
    key: bytes,
    packet_number: int,
    plaintext: bytes,
    transmitter: bytes,
    aad: bytes = b"",
    priority: int = 0,
) -> bytes:
    """``ccmp_header || ciphertext || MIC`` for one MPDU body."""
    cipher = Aes128(key)
    nonce = build_nonce(packet_number, transmitter, priority)
    n_blocks = (len(plaintext) + BLOCK_BYTES - 1) // BLOCK_BYTES
    keystream = _ctr_keystream(cipher, nonce, n_blocks)
    ciphertext = _xor_block(plaintext, keystream[: len(plaintext)])
    mic_full = _cbc_mac(cipher, nonce, aad, plaintext)
    mic = _xor_block(mic_full[:MIC_BYTES], _mic_mask(cipher, nonce))
    return ccmp_header(packet_number) + ciphertext + mic
