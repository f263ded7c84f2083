"""CCMP (AES-CCM) encryption of MPDU payloads, as used by WPA2.

CCMP = Counter mode encryption + CBC-MAC authentication (CCM, RFC 3610),
keyed with AES-128.  This is the cipher behind "WPA2-AES"; the reproduction
uses it to demonstrate the paper's claim that WiTAG works with encrypted
networks: the tag corrupts ciphertext subframes, the AP's FCS check fails,
and the block-ACK bit flips — no decryption ever needed by the tag
(paper §1 contribution 1, §2).

The implementation follows RFC 3610 with the 802.11 parameter profile:
M = 8 (MIC length), L = 2 (length field), 13-byte nonce built from the
packet number and transmitter address.

Bodies are sealed in lanes, one lane per MPDU, with
:meth:`~.aes.Aes128.encrypt_blocks`.  The counter blocks ``A_0 .. A_m``
and the first CBC-MAC block ``B_0`` depend only on the nonce and the
body length, so one AES pass covers them for every lane of a batch.
The CBC-MAC chains then advance one block per pass, across the lanes
whose bodies still have blocks left.  :meth:`CcmpContext.encrypt` and
:meth:`CcmpContext.decrypt` are batches of one; the one-block-at-a-time
CCM they must equal lives in the test suite as the reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .aes import Aes128, BLOCK_BYTES

MIC_BYTES = 8
#: CCMP header: PN0 PN1 rsvd keyid PN2 PN3 PN4 PN5.
CCMP_HEADER_BYTES = 8
_L = 2  # bytes in the length field
_NONCE_BYTES = 15 - _L
_PN_LIMIT = 2**48
#: B_0 flags: no Adata bit, M' = (M - 2) / 2 and L' = L - 1 (RFC 3610).
_B0_FLAGS = ((MIC_BYTES - 2) // 2) << 3 | (_L - 1)
_ADATA = 0x40


class MicError(ValueError):
    """Raised when the CCMP MIC does not verify (tampered ciphertext)."""


def build_nonce(packet_number: int, transmitter: bytes, priority: int = 0) -> bytes:
    """802.11 CCMP nonce: flags/priority octet + TA(6) + PN(6)."""
    if not 0 <= packet_number < _PN_LIMIT:
        raise ValueError("packet number must fit in 48 bits")
    if len(transmitter) != 6:
        raise ValueError("transmitter address must be 6 bytes")
    if not 0 <= priority <= 15:
        raise ValueError("priority must be 0-15")
    pn = packet_number.to_bytes(6, "big")
    return bytes([priority]) + transmitter + pn


def ccmp_header(packet_number: int, key_id: int = 0) -> bytes:
    """The 8-byte CCMP header inserted after the MAC header."""
    if not 0 <= packet_number < _PN_LIMIT:
        raise ValueError("packet number must fit in 48 bits")
    if not 0 <= key_id <= 3:
        raise ValueError("key id must be 0-3")
    pn = packet_number.to_bytes(6, "little")
    return bytes(
        [pn[0], pn[1], 0x00, 0x20 | (key_id << 6), pn[2], pn[3], pn[4], pn[5]]
    )


def _lane_nonces(
    first_pn: int, n: int, transmitter: bytes, priority: int
) -> np.ndarray:
    """Nonces for packet numbers ``first_pn .. first_pn + n - 1``, one row each."""
    joined = b"".join(
        build_nonce(pn, transmitter, priority)
        for pn in range(first_pn, first_pn + n)
    )
    return np.frombuffer(joined, dtype=np.uint8).reshape(n, _NONCE_BYTES)


def _pad(data: bytes) -> bytes:
    """``data`` zero-padded to whole blocks."""
    return data + bytes(-len(data) % BLOCK_BYTES)


def _ccm_lanes(
    cipher: Aes128,
    nonces: np.ndarray,
    texts: Sequence[bytes],
    aad: bytes,
    *,
    encrypting: bool,
) -> tuple[list[bytes], np.ndarray]:
    """CTR-transform each text and compute its MIC, one lane per text.

    ``texts`` are plaintexts when ``encrypting``, else ciphertexts; the
    CBC-MAC always runs over the plaintexts.

    Returns:
        (the transformed texts, an ``(n, 8)`` uint8 array of MICs).
    """
    n = len(texts)
    lengths = np.fromiter(map(len, texts), dtype=np.int64, count=n)
    if n and lengths.max() >= 1 << (8 * _L):
        raise ValueError("CCMP body must be shorter than 65536 bytes")
    n_blocks = -(-lengths // BLOCK_BYTES)

    # One pass over every lane's B_0, A_0, A_1 .. A_m, in that order.
    per_lane = n_blocks + 2
    lane = np.repeat(np.arange(n), per_lane)
    b0_rows = np.cumsum(per_lane) - per_lane
    position = np.arange(len(lane)) - b0_rows[lane]  # 0: B_0; 1 + i: A_i
    counters = np.where(position == 0, lengths[lane], position - 1)
    blocks = np.empty((len(lane), BLOCK_BYTES), dtype=np.uint8)
    blocks[:, 0] = np.where(
        position == 0, _B0_FLAGS | (_ADATA if aad else 0), _L - 1
    )
    blocks[:, 1 : 1 + _NONCE_BYTES] = nonces[lane]
    blocks[:, 14] = counters >> 8
    blocks[:, 15] = counters & 0xFF
    encrypted = cipher.encrypt_blocks(blocks)

    padded = np.frombuffer(b"".join(map(_pad, texts)), dtype=np.uint8)
    stream = (padded ^ encrypted[position >= 2].reshape(-1)).tobytes()
    starts = (np.cumsum(n_blocks) - n_blocks) * BLOCK_BYTES
    transformed = [
        stream[start : start + length]
        for start, length in zip(starts.tolist(), lengths.tolist())
    ]

    # CBC-MAC, one block per pass across the lanes that have one left:
    # the length-prefixed AAD blocks, then the lane's plaintext blocks.
    header = _pad(len(aad).to_bytes(2, "big") + aad) if aad else b""
    plaintexts = texts if encrypting else transformed
    chained = np.frombuffer(
        b"".join(header + _pad(text) for text in plaintexts), dtype=np.uint8
    ).reshape(-1, BLOCK_BYTES)
    steps = len(header) // BLOCK_BYTES + n_blocks
    first_row = np.cumsum(steps) - steps
    macs = encrypted[b0_rows]
    for step in range(int(steps.max(initial=0))):
        live = np.flatnonzero(steps > step)
        macs[live] = cipher.encrypt_blocks(
            macs[live] ^ chained[first_row[live] + step]
        )
    mics = macs[:, :MIC_BYTES] ^ encrypted[b0_rows + 1, :MIC_BYTES]
    return transformed, mics


@dataclass
class CcmpContext:
    """A pairwise CCMP context (temporal key + packet-number counter)."""

    temporal_key: bytes
    packet_number: int = 1

    def __post_init__(self) -> None:
        self._cipher = Aes128(self.temporal_key)

    def encrypt(
        self, plaintext: bytes, transmitter: bytes, aad: bytes = b"",
        priority: int = 0,
    ) -> tuple[bytes, int]:
        """Encrypt an MPDU body.

        Returns:
            (protected body, packet number used).  The protected body is
            ``ccmp_header || ciphertext || MIC`` — what would follow the
            MAC header on the air.
        """
        pn = self.packet_number
        (protected,) = self.encrypt_many(
            [plaintext], transmitter, aad, priority
        )
        return protected, pn

    def encrypt_many(
        self, plaintexts: Sequence[bytes], transmitter: bytes,
        aad: bytes = b"", priority: int = 0,
    ) -> list[bytes]:
        """Encrypt MPDU bodies under consecutive packet numbers.

        Byte-identical to one :meth:`encrypt` call per plaintext, in
        order, with the same ``aad`` and ``priority``; the packet number
        advances by ``len(plaintexts)``.

        Raises:
            ValueError: if the batch would pass packet number 2^48 - 1;
                no packet number is consumed then.
        """
        first = self.packet_number
        n = len(plaintexts)
        nonces = _lane_nonces(first, n, transmitter, priority)
        ciphertexts, mics = _ccm_lanes(
            self._cipher, nonces, plaintexts, aad, encrypting=True
        )
        self.packet_number = first + n
        return [
            ccmp_header(first + i) + ciphertext + mic.tobytes()
            for i, (ciphertext, mic) in enumerate(zip(ciphertexts, mics))
        ]

    def decrypt(
        self, protected: bytes, transmitter: bytes, aad: bytes = b"",
        priority: int = 0,
    ) -> bytes:
        """Decrypt and verify a protected MPDU body.

        Raises:
            MicError: if the MIC fails — e.g. the ciphertext was altered,
                which is exactly what happens when a HitchHike-style tag
                rewrites symbols of an encrypted frame.
            ValueError: if the body is too short to contain header + MIC.
        """
        if len(protected) < CCMP_HEADER_BYTES + MIC_BYTES:
            raise ValueError("protected body too short")
        header = protected[:CCMP_HEADER_BYTES]
        pn_bytes = bytes(
            [header[0], header[1], header[4], header[5], header[6], header[7]]
        )
        pn = int.from_bytes(pn_bytes, "little")
        nonces = _lane_nonces(pn, 1, transmitter, priority)
        (plaintext,), mics = _ccm_lanes(
            self._cipher,
            nonces,
            [protected[CCMP_HEADER_BYTES:-MIC_BYTES]],
            aad,
            encrypting=False,
        )
        if mics[0].tobytes() != protected[-MIC_BYTES:]:
            raise MicError("CCMP MIC verification failed")
        return plaintext
