"""The paper's §4.1, E2, E3, E5 and E7 numbers, pinned for tier-1.

EXPERIMENTS.md reports these from the full-length benches in
``benchmarks/``; here the same scenarios and seeds run for 0.1 s of
simulated time per run (E3 keeps its bench's 150 samples), and the
results are pinned exactly, so a change that moves a published figure
shows up in tier-1 rather than only in a shape assert.  The §4.1 case
cross-checks the simulator's query cycle against the analytic model of
:func:`repro.core.throughput.query_cycle`.
"""

import dataclasses

import numpy as np
import pytest

from repro.analysis.cdf import EmpiricalCdf
from repro.core.session import MeasurementSession
from repro.core.system import WiTagSystem
from repro.core.throughput import query_cycle
from repro.phy.channel import STATE_CODES, BackscatterChannel, ChannelGeometry
from repro.phy.error_model import LinkErrorModel
from repro.phy.mcs import ht_mcs
from repro.sim.scenario import los_scenario, nlos_scenario
from repro.tag.antenna import open_short_design, phase_flip_design
from repro.tag.oscillator import ring_oscillator_20mhz, witag_crystal_50khz
from repro.tag.state_machine import TagStateMachine

RUN_SECONDS = 0.1


def _run(system, seed):
    session = MeasurementSession(system, rng=np.random.default_rng(seed))
    return session.run_for(RUN_SECONDS)


class TestSec41CycleModel:
    """Simulated idle-channel cycles equal the §4.1 analytic cycle."""

    @pytest.mark.parametrize("mcs_index", [3, 5, 7])
    @pytest.mark.parametrize("n_subframes", [16, 64])
    @pytest.mark.parametrize("tag_clock_hz", [25e3, 50e3])
    def test_mean_cycle_matches_query_cycle(
        self, mcs_index, n_subframes, tag_clock_hz
    ):
        base, _ = los_scenario(1.0, mcs=ht_mcs(mcs_index), seed=mcs_index)
        config = dataclasses.replace(
            base.config, n_subframes=n_subframes, tag_clock_hz=tag_clock_hz
        )
        system = WiTagSystem(
            config=config,
            error_model=base.error_model,
            tag=base.tag,
            rng=base.rng,
        )
        session = MeasurementSession(
            system, rng=np.random.default_rng(n_subframes)
        )
        stats = session.run_queries(20)
        cycle = query_cycle(config)
        assert abs(stats.elapsed_s / stats.queries - cycle.total_s) < 1e-15
        detected = [r for r in session.results if r.detected]
        assert detected
        assert {r.n_bits for r in detected} == {cycle.payload_bits}

    def test_default_operating_point(self):
        # EXPERIMENTS.md E4: 1.46 ms for 62 bits, 42.5 Kbps.
        cycle = query_cycle(los_scenario(1.0, seed=7)[0].config)
        assert cycle.total_s == pytest.approx(1.4575e-3, abs=1e-15)
        assert cycle.payload_bits == 62
        assert cycle.throughput_bps == pytest.approx(42538.59348, rel=1e-9)


class TestFig6NlosPin:
    """E2: 12 runs per NLOS location, the Fig. 6 bench's seeds."""

    # location -> (median BER, 90th-percentile BER)
    PINS = {
        "A": (0.0021037868162692847, 0.008485273492286114),
        "B": (0.014142122487143525, 0.02166900420757363),
    }

    @pytest.mark.parametrize("location", ["A", "B"])
    def test_ber_cdf(self, location):
        bers = [
            _run(nlos_scenario(location, seed=1000 + run)[0], run).ber
            for run in range(12)
        ]
        cdf = EmpiricalCdf.from_samples(bers)
        assert (cdf.median, cdf.percentile(90)) == self.PINS[location]


class TestHeadlinePin:
    """E7: throughput at the nine headline positions, min and max."""

    POSITIONS_M = [0.5, 1.5, 2.5, 3.5, 4.0, 4.5, 5.5, 6.5, 7.5]

    def test_min_and_max_throughput(self):
        rates = [
            _run(
                los_scenario(d, seed=700 + int(d * 10))[0], int(d * 10)
            ).throughput_bps
            for d in self.POSITIONS_M
        ]
        assert (min(rates), max(rates)) == (
            40430.55659134412,
            42478.93206055633,
        )


class TestFig3CorruptionPin:
    """E3: P(corrupted subframe still decodes) per reflection design.

    The Fig. 3 bench's scenario: one channel (seed 7) and one error
    model (seed 8) per tag position, open/short decoded first, then the
    phase flip, each as one call over 150 one-subframe queries without
    outcome uniforms.
    """

    N_SAMPLES = 150
    MPDU_BITS = 1000
    # tag distance (m) -> (open/short, phase-flip)
    PINS = {
        1.0: (0.07749347444494015, 0.006666583187815011),
        4.0: (0.6692963252809566, 0.07973796405023134),
        7.0: (0.07749347444494015, 0.006666583187815011),
    }

    @pytest.mark.parametrize("distance_m", sorted(PINS))
    def test_corruption_failure_probability(self, distance_m):
        channel = BackscatterChannel(
            geometry=ChannelGeometry.on_line(8.0, distance_m),
            rng=np.random.default_rng(7),
        )
        model = LinkErrorModel(
            channel=channel, mcs=ht_mcs(7), rng=np.random.default_rng(8)
        )
        failures = []
        for design in (open_short_design(), phase_flip_design()):
            fading = model.sample_fading_batch(self.N_SAMPLES)
            zero_code = STATE_CODES.index(design.state_for_bit_zero)
            probabilities = model.subframe_success_probabilities_batch2d(
                self.MPDU_BITS,
                design.state_for_bit_one,
                np.full((self.N_SAMPLES, 1), zero_code, dtype=np.int8),
                fading,
            )
            total = 0.0
            for p in probabilities[:, 0].tolist():
                total += p
            failures.append(total / self.N_SAMPLES)
        assert tuple(failures) == self.PINS[distance_m]


class TestSec7DriftPin:
    """E5: BER of a tag 2 m from the client as the room warms.

    The §7 bench's seeds (300 + temperature); the ring-clocked tag's
    drift breaks toggle alignment, so its runs exercise the
    misalignment collateral.
    """

    PINS = {
        ("crystal-50kHz", 30.0): 0.030388031790556335,
        ("ring-20MHz", 27.0): 0.19939223936418887,
        ("ring-20MHz", 30.0): 0.2267414679756896,
    }
    OSCILLATORS = {
        "crystal-50kHz": witag_crystal_50khz,
        "ring-20MHz": ring_oscillator_20mhz,
    }

    @pytest.mark.parametrize("kind,temperature_c", sorted(PINS))
    def test_ber_vs_temperature(self, kind, temperature_c):
        seed = 300 + int(temperature_c)
        tag = TagStateMachine(
            oscillator=self.OSCILLATORS[kind](),
            rng=np.random.default_rng(seed),
        )
        system, _ = los_scenario(2.0, seed=seed, tag=tag)
        system.temperature_c = temperature_c
        stats = _run(system, seed)
        assert stats.ber == self.PINS[(kind, temperature_c)]
