"""Unit tests for the 4-bus / 1024-device fabric (Slide 8)."""

import pytest

from repro.core.bus import (
    AddressError,
    BusFabric,
    DEVICES_PER_BUS,
    Device,
    N_BUSES,
    make_address,
    split_address,
)


class Dummy(Device):
    kind = "dummy"

    def __init__(self, name="d"):
        super().__init__(name)
        self.bank.define("R0", value=0xAA)
        self.bank.define("R1", value=0xBB)


class TestAddressCodec:
    def test_round_trip(self):
        addr = make_address(2, 513, 0x10)
        assert split_address(addr) == (2, 513, 0x10)

    def test_fields_do_not_alias(self):
        a = make_address(0, 1, 0)
        b = make_address(1, 0, 0)
        c = make_address(0, 0, 4)
        assert len({a, b, c}) == 3

    def test_limits(self):
        make_address(N_BUSES - 1, DEVICES_PER_BUS - 1, 4095)
        with pytest.raises(AddressError):
            make_address(N_BUSES, 0, 0)
        with pytest.raises(AddressError):
            make_address(0, DEVICES_PER_BUS, 0)
        with pytest.raises(AddressError):
            make_address(0, 0, 4096)

    def test_split_rejects_out_of_space(self):
        with pytest.raises(AddressError):
            split_address(1 << 24)
        with pytest.raises(AddressError):
            split_address(-1)


class TestAttachment:
    def test_auto_slot_allocation(self):
        fabric = BusFabric()
        a, b = Dummy("a"), Dummy("b")
        base_a = fabric.attach(a)
        base_b = fabric.attach(b)
        assert split_address(base_a)[1] == 0
        assert split_address(base_b)[1] == 1

    def test_slots_count_per_bus(self):
        fabric = BusFabric()
        fabric.attach(Dummy("a"), bus=0)
        base = fabric.attach(Dummy("b"), bus=1)
        assert split_address(base) == (1, 0, 0)

    def test_double_attach_rejected(self):
        fabric = BusFabric()
        d = Dummy()
        fabric.attach(d)
        with pytest.raises(AddressError, match="already attached"):
            fabric.attach(d)

    def test_bad_bus_rejected(self):
        with pytest.raises(AddressError):
            BusFabric().attach(Dummy(), bus=9)

    def test_devices_listing_ordered(self):
        fabric = BusFabric()
        a = Dummy("a")
        b = Dummy("b")
        fabric.attach(a, bus=1)
        fabric.attach(b, bus=0)
        assert fabric.devices() == [b, a]

    def test_any_bus_takes_lowest_free_slot_then_spills(self):
        fabric = BusFabric()
        fabric.attach(Dummy("first"), bus=0)
        fabric.attach(Dummy("second"), bus=1)
        bases = [
            fabric.attach(Dummy(f"d{i}"), bus=None)
            for i in range(DEVICES_PER_BUS)
        ]
        assert split_address(bases[0])[:2] == (0, 1)
        assert split_address(bases[DEVICES_PER_BUS - 2])[:2] == (
            0, DEVICES_PER_BUS - 1
        )
        assert split_address(bases[DEVICES_PER_BUS - 1])[:2] == (1, 1)

    def test_full_named_bus_rejected_without_spilling(self):
        fabric = BusFabric()
        for i in range(DEVICES_PER_BUS):
            fabric.attach(Dummy(f"d{i}"), bus=2)
        extra = Dummy("extra")
        with pytest.raises(AddressError, match="bus 2 is full"):
            fabric.attach(extra, bus=2)
        # The failed attach left the device free for another bus.
        assert extra.base_address is None
        assert split_address(fabric.attach(extra, bus=None))[:2] == (0, 0)

    def test_every_bus_full_rejected(self):
        fabric = BusFabric()
        for i in range(N_BUSES * DEVICES_PER_BUS):
            fabric.attach(Dummy(f"d{i}"), bus=None)
        with pytest.raises(AddressError, match="all 4 buses are full"):
            fabric.attach(Dummy("extra"), bus=None)


class TestAccess:
    def test_read_write_through_fabric(self):
        fabric = BusFabric()
        d = Dummy()
        base = fabric.attach(d)
        assert fabric.read(base) == 0xAA
        fabric.write(base + 4, 0x123)
        assert d.bank["R1"].read() == 0x123

    def test_unmapped_device_raises(self):
        fabric = BusFabric()
        with pytest.raises(AddressError, match="no device"):
            fabric.read(make_address(0, 3, 0))

    def test_access_counters(self):
        fabric = BusFabric()
        base = fabric.attach(Dummy())
        fabric.read(base)
        fabric.read(base)
        fabric.write(base, 1)
        assert fabric.reads[0] == 2
        assert fabric.writes[0] == 1

    def test_register_address_helper(self):
        fabric = BusFabric()
        d = Dummy()
        fabric.attach(d)
        assert fabric.read(d.register_address("R1")) == 0xBB

    def test_register_address_requires_attachment(self):
        with pytest.raises(AddressError, match="not attached"):
            Dummy().register_address("R0")
