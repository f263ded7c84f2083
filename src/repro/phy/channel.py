"""Wireless channel model for backscatter links.

This module implements the physics that replaces the paper's testbed (see
DESIGN.md, substitution table).  A WiTAG link has two relevant propagation
components:

* the **direct path** from the querying client to the AP, modelled with
  log-distance path loss (plus wall losses in NLOS scenarios); and
* the **tag-reflected path** client -> tag -> AP, whose strength follows the
  bistatic radar equation — received reflected power is proportional to
  ``1 / (Ds^2 * Dr^2)`` where Ds/Dr are the tag's distances to sender and
  receiver.  The paper invokes exactly this relationship (§6.2, citing
  Skolnik's Radar Handbook) to explain why BER peaks when the tag sits
  midway between client and AP.

The tag perturbs the channel by changing its reflection coefficient
(:class:`TagState`): absorbing (open circuit), reflecting at 0 degrees, or
reflecting at 180 degrees.  The difference between channel vectors in two
states is the "channel change" of paper §5.2 and Figure 3.

Temporal variation (people walking in the lab) is modelled as Rician
fading around the geometric LOS solution with a configurable K-factor.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from ..seeding import component_rng
from .constants import Band, SPEED_OF_LIGHT_M_S
from .ofdm import data_subcarrier_offsets_hz, delay_phase_rotation


#: Unit tag-fading multiplier: the deterministic no-fading case.
_UNIT_FADING = 1.0 + 0.0j


class TagState(enum.Enum):
    """Reflection state of a backscatter tag antenna.

    ``ABSORB`` models an open-circuited (non-reflective) antenna — the basic
    design of paper §5.1.  ``REFLECT_0`` / ``REFLECT_180`` model the
    always-reflecting, phase-switched design of §5.2, implemented in the
    prototype with two short-circuited cables differing by a quarter
    wavelength.
    """

    ABSORB = "absorb"
    REFLECT_0 = "reflect-0"
    REFLECT_180 = "reflect-180"

    @property
    def reflection_coefficient(self) -> complex:
        """Field reflection coefficient of the antenna load."""
        if self is TagState.ABSORB:
            # An open-circuited antenna still re-radiates its structural
            # mode; -20 dB residual is typical for a matched dipole.
            return complex(0.1, 0.0)
        if self is TagState.REFLECT_0:
            return complex(1.0, 0.0)
        return complex(-1.0, 0.0)


#: Integer codes of the tag states: code ``c`` stands for
#: ``STATE_CODES[c]``.  The tag FSM emits a row of ``int8`` codes per
#: query, and the 2-D decode indexes its channel-change stack by them.
STATE_CODES: tuple[TagState, ...] = tuple(TagState)


@dataclass(frozen=True)
class PathLossModel:
    """Log-distance path loss with optional fixed obstruction loss.

    ``PL(d) = FSPL(ref) + 10 * n * log10(d / ref) + obstruction_db``

    Attributes:
        exponent: path-loss exponent (2.0 free space, ~2-2.5 indoor LOS,
            3-4 through walls — but NLOS wall losses are better expressed
            via ``obstruction_db``).
        reference_m: reference distance for the FSPL anchor.
        obstruction_db: additional fixed loss (walls, cabinets, doors).
    """

    exponent: float = 2.0
    reference_m: float = 1.0
    obstruction_db: float = 0.0

    def __post_init__(self) -> None:
        if self.exponent <= 0:
            raise ValueError(f"exponent must be > 0, got {self.exponent}")
        if self.reference_m <= 0:
            raise ValueError(
                f"reference distance must be > 0, got {self.reference_m}"
            )
        if self.obstruction_db < 0:
            raise ValueError(
                f"obstruction loss must be >= 0 dB, got {self.obstruction_db}"
            )

    def path_loss_db(self, distance_m: float, wavelength_m: float) -> float:
        """Total path loss in dB at ``distance_m``."""
        if distance_m <= 0:
            raise ValueError(f"distance must be > 0, got {distance_m}")
        d = max(distance_m, self.reference_m)
        fspl_ref = 20.0 * math.log10(
            4.0 * math.pi * self.reference_m / wavelength_m
        )
        return (
            fspl_ref
            + 10.0 * self.exponent * math.log10(d / self.reference_m)
            + self.obstruction_db
        )

    def amplitude_gain(self, distance_m: float, wavelength_m: float) -> float:
        """Field amplitude gain (sqrt of power gain) at ``distance_m``."""
        return 10.0 ** (-self.path_loss_db(distance_m, wavelength_m) / 20.0)


@dataclass(frozen=True)
class TagAntenna:
    """Electromagnetic model of the tag's antenna and switch.

    Attributes:
        gain_dbi: antenna gain (omnidirectional WiFi antennas ~2 dBi; the
            prototype used a standard omni).
        modulation_efficiency: fraction of intercepted field re-radiated
            after switch insertion loss and mismatch (0-1].
    """

    gain_dbi: float = 2.0
    modulation_efficiency: float = 0.85

    def __post_init__(self) -> None:
        if not 0.0 < self.modulation_efficiency <= 1.0:
            raise ValueError(
                "modulation efficiency must be in (0, 1], got "
                f"{self.modulation_efficiency}"
            )

    @property
    def gain_linear(self) -> float:
        """Linear antenna power gain."""
        return 10.0 ** (self.gain_dbi / 10.0)

    def radar_cross_section_m2(self, wavelength_m: float) -> float:
        """Effective antenna-mode RCS: ``G^2 * lambda^2 / (4 pi)``.

        This is the standard maximum antenna-mode scattering aperture of a
        loaded antenna (Ma et al., MobiCom 2017 — the paper's reference
        [11] — use the same formulation for RFID tags).
        """
        return (
            self.gain_linear**2
            * wavelength_m**2
            / (4.0 * math.pi)
            * self.modulation_efficiency
        )


@dataclass(frozen=True)
class ChannelGeometry:
    """Distances between client (sender), tag and AP (receiver).

    Attributes:
        tx_rx_m: client-to-AP distance.
        tx_tag_m: client-to-tag distance (Ds in the paper).
        tag_rx_m: tag-to-AP distance (Dr in the paper).
    """

    tx_rx_m: float
    tx_tag_m: float
    tag_rx_m: float

    def __post_init__(self) -> None:
        for name, value in (
            ("tx_rx_m", self.tx_rx_m),
            ("tx_tag_m", self.tx_tag_m),
            ("tag_rx_m", self.tag_rx_m),
        ):
            if value <= 0:
                raise ValueError(f"{name} must be > 0, got {value}")
        if self.tx_tag_m + self.tag_rx_m < self.tx_rx_m - 1e-9:
            raise ValueError(
                "triangle inequality violated: tx->tag->rx cannot be "
                "shorter than tx->rx"
            )

    @classmethod
    def on_line(cls, tx_rx_m: float, tag_from_tx_m: float) -> "ChannelGeometry":
        """Tag placed on the straight line between client and AP.

        This is the paper's Figure 5 setup: AP and client 8 m apart, tag at
        1..7 m from the client.
        """
        if not 0 < tag_from_tx_m < tx_rx_m:
            raise ValueError(
                f"tag must lie strictly between endpoints: 0 < "
                f"{tag_from_tx_m} < {tx_rx_m} required"
            )
        return cls(
            tx_rx_m=tx_rx_m,
            tx_tag_m=tag_from_tx_m,
            tag_rx_m=tx_rx_m - tag_from_tx_m,
        )

    def reversed(self) -> "ChannelGeometry":
        """The same deployment with transmitter and receiver swapped.

        Models the paper's §4 observation that "the AP could also initiate
        this process": an AP-initiated query sees the tag's legs exchanged.
        """
        return ChannelGeometry(
            tx_rx_m=self.tx_rx_m,
            tx_tag_m=self.tag_rx_m,
            tag_rx_m=self.tx_tag_m,
        )

    @property
    def excess_delay_s(self) -> float:
        """Extra propagation delay of the reflected path vs the direct one."""
        extra = self.tx_tag_m + self.tag_rx_m - self.tx_rx_m
        return extra / SPEED_OF_LIGHT_M_S


@dataclass
class BackscatterChannel:
    """Frequency-selective channel between client and AP with a tag present.

    The channel for tag state ``s`` at subcarrier ``k`` is

        ``h_k(s) = h_direct_k + Gamma(s) * h_tag_k * exp(-j 2 pi f_k tau)``

    where ``h_tag_k`` is the bistatic-radar amplitude of the reflected path
    and ``tau`` its excess delay.  Optional Rician fading perturbs the
    direct component to model motion in the environment.

    Attributes:
        geometry: link geometry.
        band: operating band (sets the wavelength).
        direct_loss: path-loss model for the client->AP path.
        tx_tag_loss: path-loss model for the client->tag leg.
        tag_rx_loss: path-loss model for the tag->AP leg (may differ from
            the client leg, e.g. when only the AP sits behind walls).
        antenna: tag antenna model.
        rician_k_db: Rician K-factor of the direct path in dB.  ``None``
            disables fading (a perfectly static environment).
        rng: random generator for fading and phases.
    """

    geometry: ChannelGeometry
    band: Band = Band.GHZ_2_4
    direct_loss: PathLossModel = field(default_factory=PathLossModel)
    tx_tag_loss: PathLossModel = field(default_factory=PathLossModel)
    tag_rx_loss: PathLossModel = field(default_factory=PathLossModel)
    antenna: TagAntenna = field(default_factory=TagAntenna)
    rician_k_db: float | None = 15.0
    tag_rician_k_db: float | None = 5.0
    channel_width_mhz: int = 20
    rng: np.random.Generator = field(
        default_factory=lambda: component_rng("channel")
    )

    def __post_init__(self) -> None:
        wavelength = self.band.wavelength_m
        self._offsets_hz = data_subcarrier_offsets_hz(self.channel_width_mhz)
        # Direct path: deterministic amplitude, random but fixed LOS phase.
        amp = self.direct_loss.amplitude_gain(self.geometry.tx_rx_m, wavelength)
        phase = 2.0 * math.pi * self.rng.random()
        self._h_direct_los = amp * np.exp(1j * phase)
        # Reflected path amplitude from the bistatic radar equation.
        sigma = self.antenna.radar_cross_section_m2(wavelength)
        g1 = self.tx_tag_loss.amplitude_gain(self.geometry.tx_tag_m, wavelength)
        g2 = self.tag_rx_loss.amplitude_gain(self.geometry.tag_rx_m, wavelength)
        # Each leg's amplitude_gain already includes one lambda/(4 pi d)
        # factor; the scattering aperture contributes sqrt(4 pi sigma)/lambda.
        scatter_amp = math.sqrt(4.0 * math.pi * sigma) / wavelength
        tag_phase = 2.0 * math.pi * self.rng.random()
        self._h_tag_los = g1 * g2 * scatter_amp * np.exp(1j * tag_phase)
        self._tag_rotation = delay_phase_rotation(
            self._offsets_hz, self.geometry.excess_delay_s
        )
        # Deterministic (no-fading) channel vectors are pure functions of
        # the geometry fixed above; cache them per tag state.
        self._static_vectors: dict[TagState, np.ndarray] = {}

    def invalidate_caches(self) -> None:
        """Drop cached deterministic channel vectors.

        The per-:class:`TagState` cache filled by :meth:`channel_vector`
        assumes the geometry, band, path-loss models and antenna fixed in
        ``__post_init__`` never change.  Anything that would re-run
        ``__post_init__`` (building a new channel) gets fresh caches
        automatically; call this only if you mutate derived attributes of
        an existing instance in place (tests do; production code should
        build a new channel instead).
        """
        self._static_vectors.clear()

    @property
    def n_subcarriers(self) -> int:
        """Number of modelled data subcarriers."""
        return int(self._offsets_hz.size)

    @property
    def direct_gain(self) -> complex:
        """LOS direct-path field gain (no fading)."""
        return complex(self._h_direct_los)

    @property
    def tag_path_amplitude(self) -> float:
        """Field amplitude of the tag-reflected path (state-independent)."""
        return abs(self._h_tag_los)

    def sample_direct_fading(self) -> complex:
        """Draw one Rician-faded direct-path gain.

        With K-factor K (linear), ``h = sqrt(K/(K+1)) h_los + sqrt(1/(K+1))
        * CN(0, |h_los|^2)``.  Returns the LOS gain unchanged when fading is
        disabled.
        """
        if self.rician_k_db is None:
            return complex(self._h_direct_los)
        k = 10.0 ** (self.rician_k_db / 10.0)
        los_part = math.sqrt(k / (k + 1.0)) * self._h_direct_los
        sigma = abs(self._h_direct_los) * math.sqrt(1.0 / (k + 1.0) / 2.0)
        scatter = complex(
            self.rng.normal(0.0, sigma), self.rng.normal(0.0, sigma)
        )
        return complex(los_part + scatter)

    def sample_tag_fading(self) -> complex:
        """Draw one Rician fading factor for the tag-reflected path.

        The reflected path traverses the same cluttered environment twice,
        so it fades more deeply than the direct path (lower default K).
        Returned as a unit-mean complex multiplier on the tag path gain.
        """
        if self.tag_rician_k_db is None:
            return complex(1.0, 0.0)
        k = 10.0 ** (self.tag_rician_k_db / 10.0)
        los_part = math.sqrt(k / (k + 1.0))
        sigma = math.sqrt(1.0 / (k + 1.0) / 2.0)
        return complex(
            los_part + self.rng.normal(0.0, sigma),
            self.rng.normal(0.0, sigma),
        )

    def sample_fading_batch(
        self, count: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Draw ``count`` coherence intervals of fading in scalar order.

        Returns ``(direct_gains, tag_fadings)`` complex arrays of length
        ``count``.  Element ``i`` is bitwise equal to the pair a scalar
        loop would produce with ``sample_direct_fading()`` followed by
        ``sample_tag_fading()`` on the same generator: the draws come
        from one row-major ``standard_normal`` matrix whose per-row
        layout matches the scalar call order (direct re, direct im, tag
        re, tag im), and each normal is reconstructed as ``sigma * z``
        exactly as the Generator does internally for ``normal(0, sigma)``.
        """
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        n_direct = 0 if self.rician_k_db is None else 2
        n_tag = 0 if self.tag_rician_k_db is None else 2
        total = n_direct + n_tag
        z = np.empty((count, total))
        if total and count:
            self.rng.standard_normal(out=z)
        if n_direct:
            k = 10.0 ** (self.rician_k_db / 10.0)
            los_part = math.sqrt(k / (k + 1.0)) * self._h_direct_los
            sigma = abs(self._h_direct_los) * math.sqrt(1.0 / (k + 1.0) / 2.0)
            scatter = np.empty(count, dtype=complex)
            scatter.real = sigma * z[:, 0]
            scatter.imag = sigma * z[:, 1]
            direct = los_part + scatter
        else:
            direct = np.full(count, complex(self._h_direct_los), dtype=complex)
        if n_tag:
            k = 10.0 ** (self.tag_rician_k_db / 10.0)
            los_part = math.sqrt(k / (k + 1.0))
            sigma = math.sqrt(1.0 / (k + 1.0) / 2.0)
            tag = np.empty(count, dtype=complex)
            tag.real = los_part + sigma * z[:, n_direct]
            tag.imag = sigma * z[:, n_direct + 1]
        else:
            tag = np.full(count, _UNIT_FADING, dtype=complex)
        return direct, tag

    def channel_vector_batch(
        self,
        state: TagState,
        direct_gains: np.ndarray,
        tag_fadings: np.ndarray,
    ) -> np.ndarray:
        """:meth:`channel_vector` for many coherence intervals at once.

        Args:
            state: the tag's reflection state (shared by all rows).
            direct_gains: complex ``(n_samples,)`` faded direct gains.
            tag_fadings: complex ``(n_samples,)`` tag-path multipliers.

        Returns:
            Complex ``(n_samples, n_subcarriers)`` matrix whose row ``i``
            is ``channel_vector(state, direct_gains[i], tag_fadings[i])``.
            Rows do not depend on ``n_samples``: the products are numpy
            array products whatever the count.
        """
        gains = np.asarray(direct_gains, dtype=complex)
        fadings = np.asarray(tag_fadings, dtype=complex)
        gamma = state.reflection_coefficient
        tag_term = (gamma * fadings) * self._h_tag_los
        return gains[:, None] + tag_term[:, None] * self._tag_rotation

    def channel_vector(
        self,
        state: TagState,
        direct_gain: complex | None = None,
        tag_fading: complex = 1.0 + 0.0j,
    ) -> np.ndarray:
        """Per-subcarrier channel for a tag state.

        Args:
            state: the tag's reflection state.
            direct_gain: a (possibly faded) direct-path gain; defaults to
                the static LOS value.  Pass the same sample to multiple
                calls to compare tag states under identical fading, which
                is physically correct within one A-MPDU (coherence time
                ~100 ms >> frame time of a few ms, paper §5 footnote 2).

        Returns:
            Complex array of length :attr:`n_subcarriers`.  Fully
            deterministic calls (no ``direct_gain``, unit ``tag_fading``)
            are cached per state and returned as read-only arrays; see
            :meth:`invalidate_caches` for the caching contract.  A faded
            call is one row of :meth:`channel_vector_batch`, bit for bit:
            numpy's array loops may fuse a complex multiply that its
            scalar arithmetic rounds twice, so the scalar expression
            would differ from the decode's in the last bit.
        """
        if direct_gain is None and tag_fading == _UNIT_FADING:
            cached = self._static_vectors.get(state)
            if cached is None:
                gamma = state.reflection_coefficient
                cached = self._h_direct_los + (
                    gamma * _UNIT_FADING * self._h_tag_los * self._tag_rotation
                )
                cached.flags.writeable = False
                self._static_vectors[state] = cached
            return cached
        h_d = self._h_direct_los if direct_gain is None else direct_gain
        return self.channel_vector_batch(
            state, np.array([h_d]), np.array([tag_fading])
        )[0]

    def channel_change(
        self,
        state_a: TagState,
        state_b: TagState,
        tag_fading: complex = 1.0 + 0.0j,
    ) -> np.ndarray:
        """Per-subcarrier channel difference between two tag states.

        This is the |h - h'| quantity of paper Figure 3; its magnitude
        determines how badly a mid-A-MPDU state flip corrupts subframes.
        """
        gamma_delta = (
            state_b.reflection_coefficient - state_a.reflection_coefficient
        )
        return gamma_delta * tag_fading * self._h_tag_los * self._tag_rotation

    def mean_change_magnitude(
        self, state_a: TagState, state_b: TagState
    ) -> float:
        """Mean |delta h| across subcarriers for two tag states."""
        return float(np.mean(np.abs(self.channel_change(state_a, state_b))))
