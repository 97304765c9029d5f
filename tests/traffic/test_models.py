"""Unit tests for the stochastic traffic models.

One file covers the whole family (uniform, burst, Poisson, on/off plus
the shared base machinery) because their contracts are symmetric: they
emit (length, dst, burst_id) tuples with a known offered load.
"""

import pytest

from repro.traffic.base import (
    FixedDestination,
    UniformRandomDestination,
    interval_for_load,
)
from repro.traffic.burst import BurstTraffic
from repro.traffic.onoff import OnOffTraffic
from repro.traffic.poisson import PoissonTraffic
from repro.traffic.rng import LfsrRandom
from repro.traffic.uniform import UniformTraffic

DST = FixedDestination(7)


def run_model(model, cycles):
    """Poll a model for `cycles` cycles; return the emissions."""
    emissions = []
    for now in range(cycles):
        e = model.poll(now)
        if e is not None:
            emissions.append((now, e))
    return emissions


def measured_load(model, cycles=20_000):
    emissions = run_model(model, cycles)
    return sum(e[1][0] for e in emissions) / cycles


class TestIntervalForLoad:
    def test_paper_setup(self):
        # 8-flit packets at 45% -> every ceil(8/0.45) = 18 cycles.
        assert interval_for_load(8, 0.45) == 18

    def test_full_load(self):
        assert interval_for_load(4, 1.0) == 4

    def test_never_below_serialisation(self):
        assert interval_for_load(8, 0.99) >= 8

    def test_validation(self):
        with pytest.raises(ValueError):
            interval_for_load(0, 0.5)
        with pytest.raises(ValueError):
            interval_for_load(4, 0.0)
        with pytest.raises(ValueError):
            interval_for_load(4, 1.5)


class TestDestinationChoosers:
    def test_fixed(self):
        rng = LfsrRandom(1)
        d = FixedDestination(3)
        assert d.next_destination(rng) == 3
        assert d.destinations() == (3,)

    def test_fixed_validation(self):
        with pytest.raises(ValueError):
            FixedDestination(-1)

    def test_uniform_random_covers_candidates(self):
        rng = LfsrRandom(2)
        d = UniformRandomDestination([1, 2, 3])
        seen = {d.next_destination(rng) for _ in range(200)}
        assert seen == {1, 2, 3}

    def test_uniform_random_empty_rejected(self):
        with pytest.raises(ValueError):
            UniformRandomDestination([])


class TestUniformTraffic:
    def test_fixed_cadence(self):
        m = UniformTraffic(length=4, interval=10, destination=DST)
        emissions = run_model(m, 50)
        assert [now for now, _ in emissions] == [0, 10, 20, 30, 40]
        assert all(e == (4, 7, None) for _, e in emissions)

    def test_expected_load_matches_measured(self):
        m = UniformTraffic(length=8, interval=18, destination=DST)
        assert measured_load(m, 18 * 100) == pytest.approx(
            m.expected_load(), rel=0.02
        )

    def test_randomised_length_range(self):
        m = UniformTraffic(
            length=(2, 6), interval=4, destination=DST, seed=5
        )
        lengths = {e[0] for _, e in run_model(m, 800)}
        assert lengths == {2, 3, 4, 5, 6}

    def test_randomised_interval_range(self):
        m = UniformTraffic(
            length=1, interval=(3, 5), destination=DST, seed=5
        )
        times = [now for now, _ in run_model(m, 400)]
        gaps = {b - a for a, b in zip(times, times[1:])}
        assert gaps == {3, 4, 5}

    def test_reset_restarts(self):
        m = UniformTraffic(length=2, interval=7, destination=DST)
        first = run_model(m, 30)
        m.reset()
        assert run_model(m, 30) == first

    def test_validation(self):
        with pytest.raises(ValueError):
            UniformTraffic(length=0, interval=5, destination=DST)
        with pytest.raises(ValueError):
            UniformTraffic(length=1, interval=0, destination=DST)
        with pytest.raises(ValueError):
            UniformTraffic(length=(4, 2), interval=5, destination=DST)


class TestBurstTraffic:
    def test_emissions_only_at_slot_boundaries(self):
        m = BurstTraffic(
            p_on=0.5, p_off=0.3, length=4, destination=DST, seed=11
        )
        for now, _ in run_model(m, 4_000):
            assert now % 4 == 0

    def test_burst_ids_group_packets(self):
        m = BurstTraffic(
            p_on=0.4, p_off=0.4, length=2, destination=DST, seed=7
        )
        emissions = run_model(m, 4_000)
        burst_ids = [e[1][2] for e in emissions]
        # Burst ids increase monotonically and repeat within bursts.
        assert burst_ids == sorted(burst_ids)
        assert len(set(burst_ids)) < len(burst_ids)

    def test_stationary_load(self):
        m = BurstTraffic(
            p_on=0.2, p_off=0.2, length=4, destination=DST, seed=3
        )
        assert m.stationary_on == pytest.approx(0.5)
        assert measured_load(m, 80_000) == pytest.approx(0.5, abs=0.05)

    def test_for_load_solves_parameters(self):
        m = BurstTraffic.for_load(
            0.45, mean_burst_packets=8, length=4, destination=DST
        )
        assert m.expected_load() == pytest.approx(0.45)
        assert 1.0 / m.p_off == pytest.approx(8.0)  # geometric ON dwell

    def test_for_load_infeasible_rejected(self):
        with pytest.raises(ValueError, match="p_on > 1"):
            BurstTraffic.for_load(
                0.99, mean_burst_packets=1, length=4, destination=DST
            )

    def test_mean_burst_length_measured(self):
        m = BurstTraffic(
            p_on=0.3, p_off=0.25, length=1, destination=DST, seed=9
        )
        emissions = run_model(m, 100_000)
        bursts = {}
        for _, (_, _, burst) in emissions:
            bursts[burst] = bursts.get(burst, 0) + 1
        mean = sum(bursts.values()) / len(bursts)
        assert mean == pytest.approx(4.0, rel=0.15)  # 1/p_off

    def test_validation(self):
        with pytest.raises(ValueError):
            BurstTraffic(0.0, 0.5, 4, DST)
        with pytest.raises(ValueError):
            BurstTraffic(0.5, 1.5, 4, DST)
        with pytest.raises(ValueError):
            BurstTraffic(0.5, 0.5, 0, DST)


class TestPoissonTraffic:
    def test_load_calibration(self):
        m = PoissonTraffic.for_load(0.4, length=4, destination=DST, seed=2)
        assert m.expected_load() == pytest.approx(0.4)
        assert measured_load(m, 60_000) == pytest.approx(0.4, abs=0.05)

    def test_interarrival_variability(self):
        m = PoissonTraffic(rate=0.05, length=1, destination=DST, seed=4)
        times = [now for now, _ in run_model(m, 20_000)]
        gaps = [b - a for a, b in zip(times, times[1:])]
        assert len(set(gaps)) > 5  # genuinely random gaps

    def test_reset(self):
        m = PoissonTraffic(rate=0.1, length=2, destination=DST, seed=6)
        first = run_model(m, 500)
        m.reset()
        assert run_model(m, 500) == first

    def test_validation(self):
        with pytest.raises(ValueError):
            PoissonTraffic(rate=0.0, length=2, destination=DST)
        with pytest.raises(ValueError):
            PoissonTraffic(rate=0.5, length=0, destination=DST)


class TestOnOffTraffic:
    def test_exact_burst_shape(self):
        m = OnOffTraffic(
            packets_per_burst=3, gap=10, length=2, destination=DST
        )
        emissions = run_model(m, 2 * (3 * 2 + 10))
        times = [now for now, _ in emissions]
        assert times == [0, 2, 4, 16, 18, 20]
        burst_ids = [e[2] for _, e in emissions]
        assert burst_ids == [0, 0, 0, 1, 1, 1]

    def test_duty_cycle_load(self):
        m = OnOffTraffic.for_load(
            0.5, packets_per_burst=4, length=2, destination=DST
        )
        assert m.expected_load() == pytest.approx(0.5, abs=0.05)
        assert measured_load(m, 16_000) == pytest.approx(0.5, abs=0.05)

    def test_zero_gap_is_full_load(self):
        m = OnOffTraffic(
            packets_per_burst=2, gap=0, length=3, destination=DST
        )
        assert m.expected_load() == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            OnOffTraffic(0, 1, 2, DST)
        with pytest.raises(ValueError):
            OnOffTraffic(1, -1, 2, DST)
        with pytest.raises(ValueError):
            OnOffTraffic(1, 1, 0, DST)
