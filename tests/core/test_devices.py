"""Unit tests for the TG/TR register-bench devices and control module."""

import pytest

from repro.core.control import (
    CTRL_RUN,
    CTRL_STAT_RESET,
    ControlDevice,
    STATUS_DONE,
    STATUS_RUNNING,
)
from repro.core.devices import (
    TGDevice,
    TG_CTRL_ENABLE,
    TG_CTRL_RESET,
    TRDevice,
    from_q16,
    to_q16,
)
from repro.core.errors import EmulationError
from repro.noc.flit import Packet
from repro.noc.link import Link
from repro.noc.ni import NetworkInterface
from repro.receptors.stochastic import StochasticReceptor
from repro.receptors.tracedriven import TraceDrivenReceptor
from repro.traffic.base import FixedDestination
from repro.traffic.burst import BurstTraffic
from repro.traffic.generator import TrafficGenerator
from repro.traffic.uniform import UniformTraffic


def make_tg(model=None):
    ni = NetworkInterface(0)
    ni.connect(Link(), credits=1000)
    model = model or UniformTraffic(
        length=4, interval=8, destination=FixedDestination(3)
    )
    gen = TrafficGenerator(0, model, ni, max_packets=10)
    return TGDevice("tg0", gen), gen


class TestQ16:
    def test_round_trip(self):
        assert from_q16(to_q16(0.45)) == pytest.approx(0.45, abs=1e-4)

    def test_edges(self):
        assert to_q16(0.0) == 0
        assert to_q16(1.0) == 1 << 16
        with pytest.raises(ValueError):
            to_q16(1.5)


class TestTGDevice:
    def test_model_type_register(self):
        device, _ = make_tg()
        assert device.bank["MODEL_TYPE"].read() == 1  # uniform

    def test_counters_live(self):
        device, gen = make_tg()
        gen.step(0)
        assert device.bank["SENT"].read() == 1
        assert device.bank["FLITS"].read() == 4

    def test_ctrl_enable_disable(self):
        device, gen = make_tg()
        device.bank["CTRL"].write(0)
        assert not gen.enabled
        device.bank["CTRL"].write(TG_CTRL_ENABLE)
        assert gen.enabled

    def test_ctrl_reset_applies_seed(self):
        device, gen = make_tg()
        gen.step(0)
        device.bank["SEED"].write(777)
        device.bank["CTRL"].write(TG_CTRL_ENABLE | TG_CTRL_RESET)
        assert gen.packets_sent == 0
        assert gen.model._seed == 777
        # The reset bit self-clears.
        assert not device.bank["CTRL"].read() & TG_CTRL_RESET

    def test_max_packets_register(self):
        device, gen = make_tg()
        device.bank["MAX_PKTS"].write(3)
        assert gen.max_packets == 3
        device.bank["MAX_PKTS"].write(0)
        assert gen.max_packets is None

    def test_uniform_params_via_registers(self):
        device, gen = make_tg()
        assert device.bank["PARAM0"].read() == 4  # length
        device.bank["PARAM0"].write(6)
        device.bank["PARAM1"].write(12)
        assert gen.model._length_range == (6, 6)
        assert gen.model._interval_range == (12, 12)

    def test_burst_params_q16(self):
        model = BurstTraffic(
            p_on=0.25, p_off=0.5, length=4,
            destination=FixedDestination(3),
        )
        device, gen = make_tg(model)
        assert device.bank["MODEL_TYPE"].read() == 2
        assert from_q16(device.bank["PARAM1"].read()) == pytest.approx(
            0.25, abs=1e-4
        )
        device.bank["PARAM2"].write(to_q16(0.125))
        assert gen.model.p_off == pytest.approx(0.125, abs=1e-4)

    def test_invalid_uniform_param_rejected(self):
        device, _ = make_tg()
        with pytest.raises(EmulationError):
            device.bank["PARAM0"].write(0)

    def test_backpressure_counter_exposed(self):
        device, gen = make_tg()
        assert device.bank["BACKPRES"].read() == 0

    def test_describe(self):
        device, _ = make_tg()
        assert "tg0" in device.describe()


class TestTRDevice:
    def deliver(self, receptor, at=10, stall=0, length=2):
        p = Packet(src=0, dst=1, length=length, injection_cycle=0)
        flits = p.flits()
        for f in flits:
            f.stall_cycles = stall
        receptor.on_packet(p, at, flits)

    def test_tracedriven_registers(self):
        r = TraceDrivenReceptor(1)
        device = TRDevice("tr1", r)
        assert device.bank["KIND"].read() == 2
        self.deliver(r, at=25, stall=3)
        assert device.bank["PACKETS"].read() == 1
        assert device.bank["LAT_COUNT"].read() == 1
        assert device.bank["LAT_MIN"].read() == 25
        assert device.bank["LAT_MAX"].read() == 25
        assert device.bank["STALL_LO"].read() == 6
        assert device.bank["CONGESTED"].read() == 1

    def test_latency_sum_split_across_words(self):
        r = TraceDrivenReceptor(1)
        device = TRDevice("tr1", r)
        self.deliver(r, at=100)
        lo = device.bank["LAT_SUM_LO"].read()
        hi = device.bank["LAT_SUM_HI"].read()
        assert (hi << 32) | lo == 100

    def test_stochastic_histogram_window(self):
        r = StochasticReceptor(1, length_bins=8, length_bin_width=1)
        device = TRDevice("tr1", r)
        assert device.bank["KIND"].read() == 1
        self.deliver(r, length=3)
        self.deliver(r, length=3)
        device.bank["HIST_SELECT"].write(0)  # length histogram
        device.bank["HIST_INDEX"].write(2)  # bin for value 3 (origin 1)
        assert device.bank["HIST_DATA"].read() == 2
        assert device.bank["HIST_TOTAL"].read() == 2

    def test_histogram_window_bounds_checked(self):
        r = StochasticReceptor(1, length_bins=4, length_bin_width=1)
        device = TRDevice("tr1", r)
        device.bank["HIST_INDEX"].write(99)
        with pytest.raises(EmulationError):
            device.bank["HIST_DATA"].read()

    def test_bad_hist_select_rejected(self):
        r = StochasticReceptor(1)
        device = TRDevice("tr1", r)
        device.bank["HIST_SELECT"].write(9)
        with pytest.raises(EmulationError):
            device.bank["HIST_DATA"].read()

    def test_ctrl_reset_clears(self):
        r = TraceDrivenReceptor(1)
        device = TRDevice("tr1", r)
        self.deliver(r)
        device.bank["CTRL"].write(3)  # enable + reset
        assert r.packets_received == 0


class TestControlDevice:
    def test_start_stop_via_register(self):
        c = ControlDevice()
        c.bank["CTRL"].write(CTRL_RUN)
        assert c.running
        assert c.bank["STATUS"].read() & STATUS_RUNNING
        c.bank["CTRL"].write(0)
        assert not c.running

    def test_done_status_probe(self):
        c = ControlDevice()
        c.is_done = lambda: True
        assert c.bank["STATUS"].read() & STATUS_DONE

    def test_cycle_counter_split(self):
        c = ControlDevice()
        c.get_cycles = lambda: (3 << 32) | 7
        assert c.bank["CYCLES_LO"].read() == 7
        assert c.bank["CYCLES_HI"].read() == 3

    def test_progress_counters(self):
        c = ControlDevice()
        c.get_sent = lambda: 11
        c.get_received = lambda: 9
        assert c.bank["SENT"].read() == 11
        assert c.bank["RECEIVED"].read() == 9

    def test_stat_reset_callback(self):
        c = ControlDevice()
        fired = []
        c.on_stat_reset = lambda: fired.append(True)
        c.bank["CTRL"].write(CTRL_RUN | CTRL_STAT_RESET)
        assert fired == [True]
        assert c.running  # run bit preserved
        assert not c.bank["CTRL"].read() & CTRL_STAT_RESET

    def test_direct_start_stop(self):
        c = ControlDevice()
        c.start()
        assert c.bank["CTRL"].read() & CTRL_RUN
        c.stop()
        assert not c.running
