"""The memory-mapped bus fabric.

Slide 8: "The processor can access each component by accessing their
specific addresses.  In our design, we allow up to 4 internal busses
and 1024 devices in each internal bus."  The fabric therefore decodes a
24-bit physical address as::

    [23:22] bus index (4 buses)
    [21:12] device index within the bus (1024 devices)
    [11:0]  byte offset into the device's register bank (1024 words)

Every device owns one 4 KiB register window.  The fabric also counts
accesses per bus, which the FPGA cost model and the monitor use.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.errors import EmulationError
from repro.core.registers import RegisterBank

N_BUSES = 4
DEVICES_PER_BUS = 1024
DEVICE_WINDOW_BYTES = 4096

_BUS_SHIFT = 22
_DEVICE_SHIFT = 12
_OFFSET_MASK = DEVICE_WINDOW_BYTES - 1
ADDRESS_BITS = 24


class AddressError(EmulationError):
    """Access to an unmapped or malformed address."""


class Device:
    """Base class of every memory-mapped platform component.

    A device is a register bank plus an identity; subclasses populate
    the bank in :meth:`_define_registers` and react to writes through
    register callbacks.  The bank is built on the first access to
    :attr:`bank` — a bus read or write, a register lookup, the control
    module's ``start``/``stop`` — from the state the device holds then.
    A run changes that state only through register writes, so the
    registers read as if the bank had been built with the device, and
    a platform whose registers nobody touches allocates none.
    """

    #: Subclasses set a short type tag used in reports ("tg", "tr", ...).
    kind: str = "device"

    def __init__(self, name: str) -> None:
        self.name = name
        self._bank: Optional[RegisterBank] = None
        self.base_address: Optional[int] = None

    @property
    def bank(self) -> RegisterBank:
        """The device's registers, built on first access."""
        bank = self._bank
        if bank is None:
            bank = self._bank = RegisterBank(self.name)
            self._define_registers(bank)
        return bank

    def _define_registers(self, bank: RegisterBank) -> None:
        """Populate a new bank; subclasses define their register map."""

    def describe(self) -> str:
        """One-line description for the monitor's device listing."""
        return f"{self.kind} {self.name}"

    def register_address(self, register_name: str) -> int:
        """Absolute bus address of one of this device's registers."""
        if self.base_address is None:
            raise AddressError(
                f"device {self.name!r} is not attached to a bus"
            )
        return self.base_address + self.bank.offset_of(register_name)


def make_address(bus: int, device: int, offset: int = 0) -> int:
    """Compose a physical address from its fields."""
    if not 0 <= bus < N_BUSES:
        raise AddressError(f"bus index {bus} out of range [0, {N_BUSES})")
    if not 0 <= device < DEVICES_PER_BUS:
        raise AddressError(
            f"device index {device} out of range [0, {DEVICES_PER_BUS})"
        )
    if not 0 <= offset < DEVICE_WINDOW_BYTES:
        raise AddressError(
            f"offset 0x{offset:x} out of range"
            f" [0, 0x{DEVICE_WINDOW_BYTES:x})"
        )
    return (bus << _BUS_SHIFT) | (device << _DEVICE_SHIFT) | offset


def split_address(address: int) -> Tuple[int, int, int]:
    """Decompose a physical address into (bus, device, offset)."""
    if not 0 <= address < (1 << ADDRESS_BITS):
        raise AddressError(
            f"address 0x{address:x} outside the {ADDRESS_BITS}-bit"
            f" physical space"
        )
    bus = address >> _BUS_SHIFT
    device = (address >> _DEVICE_SHIFT) & (DEVICES_PER_BUS - 1)
    offset = address & _OFFSET_MASK
    return bus, device, offset


class BusFabric:
    """Up to 4 internal buses with up to 1024 devices each."""

    def __init__(self) -> None:
        self._devices: List[Dict[int, Device]] = [
            {} for _ in range(N_BUSES)
        ]
        # Per bus, a slot index below which every slot is occupied
        # (devices never detach), so allocation never rescans them.
        self._free = [0] * N_BUSES
        self.reads = [0] * N_BUSES
        self.writes = [0] * N_BUSES

    # ------------------------------------------------------------------
    # Attachment
    # ------------------------------------------------------------------
    def _lowest_free(self, bus: int) -> int:
        slots = self._devices[bus]
        slot = self._free[bus]
        while slot in slots:
            slot += 1
        self._free[bus] = slot
        return slot

    def attach(
        self,
        device: Device,
        bus: Optional[int] = 0,
        slot: Optional[int] = None,
    ) -> int:
        """Attach a device; return its base address.

        With ``slot=None`` the lowest free device index on ``bus`` is
        allocated.  With ``bus=None`` as well, the lowest free
        ``(bus, slot)`` is: bus 0 first, spilling to buses 1-3 once it
        is full (the platform-compilation step assigns addresses this
        way, in instantiation order).
        """
        if bus is None:
            if slot is not None:
                raise AddressError("an explicit slot needs a bus index")
            for bus in range(N_BUSES):
                slot = self._lowest_free(bus)
                if slot < DEVICES_PER_BUS:
                    break
            else:
                raise AddressError(
                    f"all {N_BUSES} buses are full"
                    f" ({DEVICES_PER_BUS} devices each)"
                )
        if not 0 <= bus < N_BUSES:
            raise AddressError(
                f"bus index {bus} out of range [0, {N_BUSES})"
            )
        slots = self._devices[bus]
        if slot is None:
            slot = self._lowest_free(bus)
        if slot >= DEVICES_PER_BUS:
            raise AddressError(
                f"bus {bus} is full ({DEVICES_PER_BUS} devices)"
            )
        if slot in slots:
            raise AddressError(
                f"device slot {slot} on bus {bus} is already occupied"
                f" by {slots[slot].name!r}"
            )
        if device.base_address is not None:
            raise AddressError(
                f"device {device.name!r} is already attached"
            )
        slots[slot] = device
        device.base_address = make_address(bus, slot, 0)
        return device.base_address

    def device_at(self, bus: int, slot: int) -> Device:
        try:
            return self._devices[bus][slot]
        except (IndexError, KeyError):
            raise AddressError(
                f"no device at bus {bus}, slot {slot}"
            ) from None

    def devices(self) -> List[Device]:
        """All attached devices, in (bus, slot) order."""
        result: List[Device] = []
        for bus_devices in self._devices:
            for slot in sorted(bus_devices):
                result.append(bus_devices[slot])
        return result

    # ------------------------------------------------------------------
    # Processor-facing access
    # ------------------------------------------------------------------
    def read(self, address: int) -> int:
        bus, slot, offset = split_address(address)
        device = self.device_at(bus, slot)
        self.reads[bus] += 1
        return device.bank.read(offset)

    def write(self, address: int, value: int) -> None:
        bus, slot, offset = split_address(address)
        device = self.device_at(bus, slot)
        self.writes[bus] += 1
        device.bank.write(offset, value)
