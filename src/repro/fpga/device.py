"""Virtex-2 Pro part database.

Slice and block-RAM capacities of the Xilinx Virtex-2 Pro family (from
the XC2VP data sheet).  The paper's board carries the part we infer
from Table 1's percentages (XC2VP20, 9280 slices); the conclusion slide
("with larger FPGAs it will be possible to emulate very large NoCs")
motivates keeping the whole family here so the capacity-planning bench
can sweep it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional


@dataclass(frozen=True)
class FpgaPart:
    """One FPGA device."""

    name: str
    slices: int
    bram_blocks: int  # 18 kbit block RAMs
    has_ppc: bool  # embedded PowerPC cores available

    def utilisation(self, used_slices: int) -> float:
        """Used fraction of the slice fabric."""
        if used_slices < 0:
            raise ValueError("slice count must be >= 0")
        return used_slices / self.slices

    def fits(self, used_slices: int, used_bram: int = 0) -> bool:
        return used_slices <= self.slices and used_bram <= self.bram_blocks


#: The Virtex-2 Pro family, smallest to largest.
VIRTEX2PRO_PARTS: List[FpgaPart] = [
    FpgaPart("XC2VP2", 1408, 12, False),
    FpgaPart("XC2VP4", 3008, 28, True),
    FpgaPart("XC2VP7", 4928, 44, True),
    FpgaPart("XC2VP20", 9280, 88, True),
    FpgaPart("XC2VP30", 13696, 136, True),
    FpgaPart("XC2VP40", 19392, 192, True),
    FpgaPart("XC2VP50", 23616, 232, True),
    FpgaPart("XC2VP70", 33088, 328, True),
    FpgaPart("XC2VP100", 44096, 444, True),
]

#: The paper's inferred target device.
PAPER_PART_NAME = "XC2VP20"


def part_by_name(name: str) -> FpgaPart:
    for part in VIRTEX2PRO_PARTS:
        if part.name == name:
            return part
    raise KeyError(
        f"unknown Virtex-2 Pro part {name!r}; known:"
        f" {[p.name for p in VIRTEX2PRO_PARTS]}"
    )


def smallest_fitting_part(
    used_slices: int, used_bram: int = 0
) -> Optional[FpgaPart]:
    """Smallest family member that fits the design, or None.

    Only parts with an embedded PowerPC qualify: the platform needs the
    one that orchestrates the emulation (Slide 8).
    """
    for part in VIRTEX2PRO_PARTS:
        if not part.has_ppc:
            continue
        if part.fits(used_slices, used_bram):
            return part
    return None
