"""Scenario builders: from floor-plan geometry to a runnable system.

One-call constructors for the paper's experimental setups:

* :func:`los_scenario` — Figure 5: AP and client 8 m apart in the lab,
  tag on the line between them at a chosen distance from the client.
* :func:`nlos_scenario` — Figure 6: tag 1 m from the client, AP one or
  several rooms away (locations A and B of Figure 4).
* :func:`custom_scenario` — anything else, from raw geometry.

Each builder derives the link budget from the floor plan, auto-selects the
query MCS the way the paper prescribes (§4.1: the highest rate with
near-zero loss), sizes the tag clock so subframes fit, and wires up
independent random streams for every stochastic component.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.config import EncryptionMode, WiTagConfig
from ..core.system import WiTagSystem
from ..mac.csma import ContentionModel
from ..phy.channel import (
    BackscatterChannel,
    ChannelGeometry,
    PathLossModel,
    TagAntenna,
)
from ..phy.constants import Band
from ..phy.error_model import LinkErrorModel
from ..phy.fading import CorrelatedFadingChannel
from ..phy.mcs import Mcs, highest_reliable_mcs
from ..phy.noise import ReceiverNoise
from ..seeding import named_rngs
from ..tag.state_machine import TagStateMachine
from .floorplan import FloorPlan, los_testbed, paper_testbed

#: Default client transmit power (commodity NIC).
DEFAULT_TX_POWER_DBM = 15.0

#: Candidate tag clocks, fastest first; the builder picks the fastest one
#: whose period fits a minimal subframe at the chosen MCS.
_TAG_CLOCKS_HZ = (50e3, 25e3, 12.5e3, 6.25e3)

#: Minimum on-air subframe bytes (delimiter + QoS header + FCS).
_MIN_SUBFRAME_BYTES = 34


@dataclass(frozen=True)
class ScenarioInfo:
    """Descriptive summary of a built scenario."""

    name: str
    geometry: ChannelGeometry
    direct_obstruction_db: float
    link_snr_db: float
    mcs_index: int
    tag_clock_hz: float


def _fit_tag_clock(mcs: Mcs, channel_width_mhz: int, short_gi: bool) -> float:
    """Fastest candidate clock whose period holds a minimal subframe."""
    symbol_s = 0.0000036 if short_gi else 0.000004
    dbps = mcs.data_bits_per_symbol(channel_width_mhz)
    for clock in _TAG_CLOCKS_HZ:
        period = 1.0 / clock
        symbols = period / symbol_s
        capacity_bytes = symbols * dbps / 8.0
        if capacity_bytes >= _MIN_SUBFRAME_BYTES + 4:
            return clock
    return _TAG_CLOCKS_HZ[-1]


def build_system(
    geometry: ChannelGeometry,
    *,
    name: str = "custom",
    direct_obstruction_db: float = 0.0,
    tag_rx_obstruction_db: float | None = None,
    tx_power_dbm: float = DEFAULT_TX_POWER_DBM,
    band: Band = Band.GHZ_2_4,
    channel_width_mhz: int = 20,
    encryption: EncryptionMode = EncryptionMode.OPEN,
    encryption_key: bytes | None = None,
    mcs: Mcs | None = None,
    mismatch_gain_db: float = 22.0,
    rician_k_db: float | None = 15.0,
    tag_rician_k_db: float | None = 5.0,
    n_contenders: int = 0,
    tag: TagStateMachine | None = None,
    temperature_c: float = 25.0,
    coherence_time_s: float | None = None,
    seed: int = 0,
) -> tuple[WiTagSystem, ScenarioInfo]:
    """Construct a runnable :class:`WiTagSystem` from raw geometry.

    Args:
        geometry: client/tag/AP distances.
        direct_obstruction_db: wall loss on the client->AP path.
        tag_rx_obstruction_db: wall loss on the tag->AP leg; defaults to
            the direct path's obstruction (tag near the client).
        mcs: query MCS; auto-selected from the link SNR when omitted
            (paper §4.1's rate rule).
        mismatch_gain_db: receiver-fragility calibration, see
            :mod:`repro.phy.error_model`.
        n_contenders: other stations contending for the channel.
        coherence_time_s: when set, fading evolves as a correlated
            Gauss-Markov process with this coherence time (paper: ~100 ms)
            instead of independently per query.
        seed: master seed; all component streams derive from it.

    Returns:
        The system plus a :class:`ScenarioInfo` summary.
    """
    rngs = named_rngs(
        seed, "channel", "error", "tag", "system", "contention", "fading"
    )
    if tag_rx_obstruction_db is None:
        tag_rx_obstruction_db = direct_obstruction_db
    channel = BackscatterChannel(
        geometry=geometry,
        band=band,
        channel_width_mhz=channel_width_mhz,
        direct_loss=PathLossModel(obstruction_db=direct_obstruction_db),
        tx_tag_loss=PathLossModel(),
        tag_rx_loss=PathLossModel(obstruction_db=tag_rx_obstruction_db),
        antenna=TagAntenna(),
        rician_k_db=rician_k_db,
        tag_rician_k_db=tag_rician_k_db,
        rng=rngs["channel"],
    )
    receiver = ReceiverNoise(bandwidth_hz=channel_width_mhz * 1e6)
    wavelength = band.wavelength_m
    link_snr_db = tx_power_dbm - channel.direct_loss.path_loss_db(
        geometry.tx_rx_m, wavelength
    ) - receiver.noise_floor_dbm
    if mcs is None:
        mcs = highest_reliable_mcs(link_snr_db)
    tag_clock_hz = _fit_tag_clock(mcs, channel_width_mhz, False)
    config_kwargs = dict(
        mcs=mcs,
        tag_clock_hz=tag_clock_hz,
        band=band,
        channel_width_mhz=channel_width_mhz,
        tx_power_dbm=tx_power_dbm,
        encryption=encryption,
    )
    if encryption_key is not None:
        config_kwargs["encryption_key"] = encryption_key
    config = WiTagConfig(**config_kwargs)
    error_model = LinkErrorModel(
        channel=channel,
        mcs=mcs,
        tx_power_dbm=tx_power_dbm,
        receiver=receiver,
        mismatch_gain_db=mismatch_gain_db,
        rng=rngs["error"],
    )
    if tag is None:
        tag = TagStateMachine(rng=rngs["tag"])
    contention = None
    if n_contenders > 0:
        contention = ContentionModel(
            n_contenders=n_contenders, rng=rngs["contention"]
        )
    fading_channel = None
    if coherence_time_s is not None:
        fading_channel = CorrelatedFadingChannel(
            direct_los=channel.direct_gain,
            rician_k_db=rician_k_db,
            tag_rician_k_db=tag_rician_k_db,
            coherence_time_s=coherence_time_s,
            rng=rngs["fading"],
        )
    system = WiTagSystem(
        config=config,
        error_model=error_model,
        tag=tag,
        contention=contention,
        temperature_c=temperature_c,
        fading_channel=fading_channel,
        rng=rngs["system"],
    )
    info = ScenarioInfo(
        name=name,
        geometry=geometry,
        direct_obstruction_db=direct_obstruction_db,
        link_snr_db=link_snr_db,
        mcs_index=mcs.index,
        tag_clock_hz=tag_clock_hz,
    )
    return system, info


def los_scenario(
    tag_from_client_m: float,
    *,
    ap_client_m: float = 8.0,
    initiator: str = "client",
    seed: int = 0,
    **kwargs,
) -> tuple[WiTagSystem, ScenarioInfo]:
    """The Figure 5 LOS setup: tag on the client-AP line.

    Args:
        tag_from_client_m: tag distance from the client, strictly between
            0 and ``ap_client_m``.
        initiator: which device transmits the query A-MPDUs — "client"
            (the paper's experiments) or "ap" (paper §4: "the AP could
            also initiate this process"); the tag's two legs swap roles.
    """
    if initiator not in ("client", "ap"):
        raise ValueError(
            f"initiator must be 'client' or 'ap', got {initiator!r}"
        )
    plan: FloorPlan = los_testbed()
    link = plan.link("client_los", "ap")
    geometry = ChannelGeometry.on_line(ap_client_m, tag_from_client_m)
    if initiator == "ap":
        geometry = geometry.reversed()
    return build_system(
        geometry,
        name=f"LOS tag@{tag_from_client_m:g}m ({initiator}-initiated)",
        direct_obstruction_db=link.obstruction_db,
        seed=seed,
        **kwargs,
    )


def nlos_scenario(
    location: str,
    *,
    tag_from_client_m: float = 1.0,
    seed: int = 0,
    **kwargs,
) -> tuple[WiTagSystem, ScenarioInfo]:
    """The Figure 6 NLOS setup at location ``"A"`` or ``"B"``.

    The tag sits ``tag_from_client_m`` from the client; the AP is behind
    walls per the Figure 4 floor plan.  The tag->AP leg carries the same
    obstruction as the direct path (the tag is next to the client); the
    client->tag leg is clear.
    """
    if location not in ("A", "B"):
        raise ValueError(f"location must be 'A' or 'B', got {location!r}")
    plan = paper_testbed()
    link = plan.link(f"client_{location}", "ap")
    geometry = ChannelGeometry(
        tx_rx_m=link.distance_m,
        tx_tag_m=tag_from_client_m,
        tag_rx_m=link.distance_m - tag_from_client_m,
    )
    return build_system(
        geometry,
        name=f"NLOS location {location}",
        direct_obstruction_db=link.obstruction_db,
        seed=seed,
        **kwargs,
    )
