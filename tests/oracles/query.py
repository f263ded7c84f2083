"""The uncached query build: every MPDU serialized and sealed from scratch.

:class:`repro.core.query.QueryBuilder` fixes its header templates,
plaintexts and airtime schedule once, then splices and seals each
query; this is the build it must equal.  Each MPDU goes through
:class:`~repro.mac.frames.QosDataFrame`, CCMP bodies through the
one-block-at-a-time CCM of :mod:`tests.oracles.ccmp`.  The oracle
consumes the builder's own sequence numbers, packet numbers and IVs,
exactly as a build does.
"""

from repro.core.query import QueryBuilder, QueryFrame
from repro.mac.ampdu import aggregate, subframe_lengths
from repro.mac.frames import QosDataFrame, SequenceControl
from repro.phy.airtime import subframe_schedule
from tests.oracles import ccmp as ccmp_oracle


def protect(builder: QueryBuilder, payload: bytes) -> bytes:
    """Apply the builder's link encryption to one MPDU payload."""
    if builder._ccmp is not None:
        context = builder._ccmp
        packet_number = context.packet_number
        context.packet_number += 1
        return ccmp_oracle.encrypt(
            context.temporal_key, packet_number, payload, bytes(builder.client)
        )
    if builder._wep is not None:
        return builder._wep.encrypt(payload)
    return payload


def serialize_subframe(
    builder: QueryBuilder, size: int, trigger: bool, seq: int
) -> bytes:
    """One MPDU, serialized with its FCS, for any encryption."""
    payload = protect(builder, builder._payload_for(size, trigger))
    frame = QosDataFrame(
        receiver=builder.ap,
        transmitter=builder.client,
        destination=builder.ap,
        seq=SequenceControl(seq),
        payload=payload,
    )
    return frame.serialize()


def build_reference(builder: QueryBuilder) -> QueryFrame:
    """The next query of ``builder``, every MPDU built from scratch."""
    cfg = builder.config
    ssn = builder.sequence.next_value
    mpdus: list[bytes] = []
    for index, size in enumerate(builder._subframe_byte_plan()):
        trigger = index < cfg.n_trigger_subframes
        mpdus.append(
            serialize_subframe(
                builder, size, trigger, builder.sequence.allocate()
            )
        )
    schedule = subframe_schedule(
        subframe_lengths(mpdus),
        cfg.mcs,
        channel_width_mhz=cfg.channel_width_mhz,
        short_gi=cfg.short_gi,
        phy_format=cfg.phy_format,
    )
    return QueryFrame(
        psdu=aggregate(mpdus),
        mpdus=tuple(mpdus),
        schedule=schedule,
        ssn=ssn,
        n_trigger_subframes=cfg.n_trigger_subframes,
    )
