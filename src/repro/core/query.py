"""Query A-MPDU construction.

A WiTAG query is an ordinary A-MPDU whose only purpose is to exist on the
air long enough, and in the right shape, for the tag to write bits into it
(paper §4): a couple of *trigger subframes* carrying a known amplitude
pattern (§7), followed by payload subframes the tag may corrupt.

Two details make queries tag-friendly:

* **Clock-grid padding.**  The tag toggles on its local clock (one cycle
  per subframe for the 50 kHz design point).  The builder pads subframes —
  with slightly alternating sizes, since A-MPDU subframes are 4-byte
  quantised — so that every cumulative subframe boundary stays within a
  fraction of an OFDM symbol of the ideal ``k * clock_period`` grid.  This
  bounds the tag's accumulated misalignment independent of frame length.
* **Trigger pattern.**  Trigger subframes carry payload bytes chosen to
  create amplitude contrast for the tag's envelope detector.  Payload
  subframes are null QoS frames padded to size.

When the network uses encryption, each MPDU body is protected with CCMP or
WEP before aggregation.  Nothing else changes — which is the paper's
encryption-compatibility argument made concrete.  Every query carries the
same plaintexts in the same subframe sizes, so a builder fixes its
delimiters, header templates, pads, plaintexts and airtime schedule once;
each build splices in sequence numbers, seals the bodies, appends the FCS
and joins the PSDU in one loop over the MPDUs.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass

from ..mac.addresses import MacAddress
from ..mac.ampdu import DELIMITER_BYTES, encode_delimiter
from ..mac.block_ack import SEQUENCE_MODULUS
from ..mac.frames import QosDataFrame, SequenceControl
from ..mac.security.ccmp import CCMP_HEADER_BYTES, MIC_BYTES, CcmpContext
from ..mac.security.wep import ICV_BYTES, IV_BYTES, WepContext
from ..mac.sequence import SequenceCounter
from ..phy.airtime import SubframeSchedule, subframe_schedule
from .config import EncryptionMode, WiTagConfig
from .errors import ConfigurationError

#: Alternating high/low amplitude bytes for the trigger pattern: runs of
#: ones and zeros produce OFDM waveforms with distinguishable envelope
#: statistics after scrambling-free payload mapping (model-level stand-in
#: for the paper's "specific bit patterns ... different signal amplitudes").
TRIGGER_PATTERN = bytes([0xFF, 0x00] * 8)

#: Minimum MPDU: QoS header + FCS.
_MIN_MPDU_BYTES = QosDataFrame.HEADER_BYTES + QosDataFrame.FCS_BYTES

#: Cap on memoized frames per builder (the default 64-subframe query
#: cycles through 64 distinct SSNs; pathological subframe counts are
#: bounded here rather than allowed to retain all 4096).
_FRAME_MEMO_MAX = 256


@dataclass(frozen=True)
class QueryFrame:
    """A fully built query A-MPDU ready for 'transmission'.

    Attributes:
        psdu: the serialized A-MPDU bytes.
        mpdus: the individual serialized MPDUs, in order.
        schedule: on-air timing of each subframe.
        ssn: starting sequence number (anchors the block-ACK bitmap).
        n_trigger_subframes: leading subframes not carrying tag bits.
    """

    psdu: bytes
    mpdus: tuple[bytes, ...]
    schedule: SubframeSchedule
    ssn: int
    n_trigger_subframes: int

    @property
    def n_subframes(self) -> int:
        return len(self.mpdus)

    @property
    def n_payload_subframes(self) -> int:
        return self.n_subframes - self.n_trigger_subframes

    @property
    def airtime_s(self) -> float:
        """Total PPDU airtime."""
        return self.schedule.timing.total_s

    @property
    def mean_subframe_s(self) -> float:
        """Mean start-to-start subframe period.

        This is the toggle period a synchronised tag must realise.  It is
        measured between window *starts*: adjacent subframes share their
        boundary OFDM symbol, so window durations overlap and would
        overestimate the period.
        """
        windows = self.schedule.windows
        if len(windows) == 1:
            return windows[0][1] - windows[0][0]
        return (windows[-1][0] - windows[0][0]) / (len(windows) - 1)


class QueryBuilder:
    """Builds query A-MPDUs for a configuration.

    Example:
        >>> from repro.mac.addresses import MacAddress
        >>> builder = QueryBuilder(
        ...     WiTagConfig(),
        ...     client=MacAddress.parse("02:00:00:00:00:01"),
        ...     ap=MacAddress.parse("02:00:00:00:00:02"),
        ... )
        >>> query = builder.build()
        >>> query.n_subframes
        64
    """

    def __init__(
        self,
        config: WiTagConfig,
        client: MacAddress,
        ap: MacAddress,
        *,
        sequence: SequenceCounter | None = None,
    ) -> None:
        self.config = config
        self.client = client
        self.ap = ap
        self.sequence = sequence or SequenceCounter()
        self._ccmp: CcmpContext | None = None
        self._wep: WepContext | None = None
        #: Bytes that sealing adds to each MPDU body.
        self._seal_overhead = 0
        if config.encryption is EncryptionMode.WPA2_CCMP:
            self._ccmp = CcmpContext(config.encryption_key)
            self._seal_overhead = CCMP_HEADER_BYTES + MIC_BYTES
        elif config.encryption is EncryptionMode.WEP:
            self._wep = WepContext(config.encryption_key)
            self._seal_overhead = IV_BYTES + 1 + ICV_BYTES  # IV, key id, ICV
        self._target_bytes = self._target_subframe_bytes()
        # Between builds only the per-MPDU sequence-control field, the
        # FCS and, on an encrypted network, the sealed bodies change:
        # CCMP packet numbers and WEP IVs advance every MPDU.  So each
        # subframe's delimiter, header halves and pad, the plaintexts
        # and the airtime schedule are fixed on first use (see
        # _fix_templates()), and every build, encrypted or not, splices
        # and seals against them.
        self._templates: (
            tuple[list[tuple[bytes, bytes, bytes, bytes]], list[bytes]]
            | None
        ) = None
        self._schedule: SubframeSchedule | None = None
        # Sequence numbers advance n_subframes per build (mod 4096), so
        # unencrypted frames repeat with period 4096 / gcd(4096,
        # n_subframes) — at most _FRAME_MEMO_MAX distinct SSNs for the
        # default 64-subframe query.  build() serves repeats from this
        # memo; QueryFrame is frozen so sharing is safe.  Encrypted
        # frames never repeat and never enter it.
        self._frame_memo: dict[int, QueryFrame] = {}

    def _target_subframe_bytes(self) -> float:
        """Ideal (fractional) on-air bytes per subframe.

        One tag clock period of airtime at the configured MCS.
        """
        cfg = self.config
        dbps = cfg.mcs.data_bits_per_symbol(cfg.channel_width_mhz)
        symbol_s = 0.0000036 if cfg.short_gi else 0.000004
        symbols = cfg.tag_clock_period_s / symbol_s
        target = symbols * dbps / 8.0
        if target < _MIN_MPDU_BYTES + DELIMITER_BYTES:
            raise ConfigurationError(
                "tag clock period too short for a minimal subframe at "
                f"this MCS (need >= {_MIN_MPDU_BYTES + DELIMITER_BYTES} "
                f"bytes, target {target:.1f})"
            )
        return target

    def _subframe_byte_plan(self) -> list[int]:
        """Per-subframe on-air sizes tracking the tag clock grid.

        Chooses each subframe's size so the *cumulative* boundary after
        subframe k is the 4-byte-quantised value nearest ``k * target``,
        bounding boundary error by 2 bytes regardless of frame length.
        """
        n = self.config.n_subframes
        plan: list[int] = []
        previous = 0
        minimum = _MIN_MPDU_BYTES + DELIMITER_BYTES
        for k in range(1, n + 1):
            cumulative = 4 * round(k * self._target_bytes / 4.0)
            size = cumulative - previous
            if size < minimum:
                size = minimum + (-minimum) % 4
                cumulative = previous + size
            plan.append(size)
            previous = cumulative
        return plan

    def _payload_for(self, subframe_bytes: int, trigger: bool) -> bytes:
        """MPDU payload filling a subframe to its planned on-air size."""
        payload_len = subframe_bytes - DELIMITER_BYTES - _MIN_MPDU_BYTES
        payload_len = max(0, payload_len - self._seal_overhead)
        if trigger:
            repeats = math.ceil(payload_len / len(TRIGGER_PATTERN)) if payload_len else 0
            return (TRIGGER_PATTERN * max(repeats, 1))[:payload_len]
        return bytes(payload_len)

    def _fix_templates(self) -> None:
        """Fix the subframe templates, plaintexts and airtime schedule.

        MPDU lengths never change between builds, so each subframe's
        template is fixed here: its delimiter, its MPDU header split
        around the 2-byte sequence-control field (bytes 22..24), and
        its pad.  A template depends only on the MPDU's length, so each
        distinct length is serialized once, with a placeholder body of
        the sealed length standing in for the ciphertext, and its
        template object is shared by every subframe of that length.
        """
        cfg = self.config
        by_length: dict[int, tuple[bytes, bytes, bytes, bytes]] = {}
        templates: list[tuple[bytes, bytes, bytes, bytes]] = []
        plaintexts: list[bytes] = []
        lengths: list[int] = []
        for index, size in enumerate(self._subframe_byte_plan()):
            plaintext = self._payload_for(size, index < cfg.n_trigger_subframes)
            body_bytes = len(plaintext) + self._seal_overhead
            mpdu_bytes = _MIN_MPDU_BYTES + body_bytes
            template = by_length.get(mpdu_bytes)
            if template is None:
                header = QosDataFrame(
                    receiver=self.ap,
                    transmitter=self.client,
                    destination=self.ap,
                    seq=SequenceControl(0),
                    payload=bytes(body_bytes),
                ).serialize()
                template = by_length[mpdu_bytes] = (
                    encode_delimiter(mpdu_bytes),
                    header[:22],
                    header[24 : QosDataFrame.HEADER_BYTES],
                    bytes(-mpdu_bytes % 4),
                )
            templates.append(template)
            plaintexts.append(plaintext)
            lengths.append(DELIMITER_BYTES + mpdu_bytes + len(template[3]))
        self._schedule = subframe_schedule(
            lengths,
            cfg.mcs,
            channel_width_mhz=cfg.channel_width_mhz,
            short_gi=cfg.short_gi,
            phy_format=cfg.phy_format,
        )
        self._templates = (templates, plaintexts)

    def _seal(self, plaintexts: list[bytes]) -> list[bytes]:
        """The MPDU bodies on the air, consuming packet numbers or IVs.

        CCMP seals the whole query in one lane-parallel pass; WEP keeps
        its scalar RC4, one MPDU at a time.
        """
        if self._ccmp is not None:
            return self._ccmp.encrypt_many(plaintexts, bytes(self.client))
        if self._wep is not None:
            return [self._wep.encrypt(plaintext) for plaintext in plaintexts]
        return plaintexts

    def build(self) -> QueryFrame:
        """Build the next query A-MPDU, consuming sequence numbers.

        Advances the sequence counter, and on an encrypted network the
        packet number or IV, by one per MPDU.  Each MPDU is its fixed
        header with the sequence-control bytes spliced in, the (sealed)
        body and a CRC-32 FCS; the PSDU joins them with their fixed
        delimiters and pads.  On an open network a frame is a pure
        function of its starting sequence number, so repeats within the
        modulo-4096 cycle come out of a per-SSN memo instead of being
        re-spliced.  Encrypted frames change with every packet number
        or IV, so they are sealed afresh on every call.
        """
        ssn = self.sequence.next_value
        cached = self._frame_memo.get(ssn)
        if cached is not None:
            self.sequence.advance(len(cached.mpdus))
            return cached
        if self._templates is None:
            self._fix_templates()
        templates, plaintexts = self._templates
        bodies = self._seal(plaintexts)
        mpdus: list[bytes] = []
        parts: list[bytes] = []
        seq = ssn
        for (delimiter, head, qos, pad), body in zip(templates, bodies):
            frame = head + (seq << 4).to_bytes(2, "little") + qos + body
            mpdu = frame + zlib.crc32(frame).to_bytes(4, "little")
            mpdus.append(mpdu)
            parts += (delimiter, mpdu, pad)
            seq = (seq + 1) % SEQUENCE_MODULUS
        self.sequence.advance(len(mpdus))
        frame = QueryFrame(
            psdu=b"".join(parts),
            mpdus=tuple(mpdus),
            schedule=self._schedule,
            ssn=ssn,
            n_trigger_subframes=self.config.n_trigger_subframes,
        )
        if (
            self.config.encryption is EncryptionMode.OPEN
            and len(self._frame_memo) < _FRAME_MEMO_MAX
        ):
            self._frame_memo[ssn] = frame
        return frame

    def peek_airtime_s(self) -> float:
        """Airtime of the next query, consuming no sequence number,
        packet number or IV.

        Every query has the same subframe sizes, encrypted or not, so
        this is the fixed schedule's airtime.  The fleet engine and the
        fleet network use it to time polling rounds with the (constant)
        query airtime; sessions never peek, they build.
        """
        if self._templates is None:
            self._fix_templates()
        return self._schedule.timing.total_s
