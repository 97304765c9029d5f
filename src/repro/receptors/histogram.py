"""Fixed-bin histograms, hardware style.

The stochastic receptors of the platform keep histograms in small
banks of counter registers — one counter per bin, fixed bin width, one
overflow bin — because that is what fits in a few hundred FPGA slices
(Table 1 charges the TR for exactly these counters).  This class
reproduces that structure rather than using a dynamic container, so the
FPGA cost model can price a receptor directly from its histogram
geometry.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple


class Histogram:
    """A fixed-geometry counting histogram.

    Values land in ``n_bins`` bins of ``bin_width`` starting at
    ``origin``; values beyond the last bin are accumulated in a single
    overflow counter (as a saturating hardware histogram would), values
    below ``origin`` in an underflow counter.
    """

    #: The geometry is config (see :mod:`repro.checkpoint.walker`).
    __rebuilt__ = ("n_bins", "bin_width", "origin")

    def __init__(
        self, n_bins: int, bin_width: int = 1, origin: int = 0
    ) -> None:
        if n_bins < 1:
            raise ValueError(f"histogram needs >= 1 bin, got {n_bins}")
        if bin_width < 1:
            raise ValueError(f"bin width must be >= 1, got {bin_width}")
        self.n_bins = n_bins
        self.bin_width = bin_width
        self.origin = origin
        self.counts: List[int] = [0] * n_bins
        self.overflow = 0
        self.underflow = 0
        self.total = 0
        self._sum = 0
        self._min: Optional[int] = None
        self._max: Optional[int] = None

    # ------------------------------------------------------------------
    # Accumulation
    # ------------------------------------------------------------------
    def add(self, value: int) -> None:
        """Record one occurrence of ``value``."""
        self.total += 1
        self._sum += value
        if self._min is None or value < self._min:
            self._min = value
        if self._max is None or value > self._max:
            self._max = value
        offset = value - self.origin
        if offset < 0:
            self.underflow += 1
            return
        index = offset // self.bin_width
        if index >= self.n_bins:
            self.overflow += 1
        else:
            self.counts[index] += 1

    def merge(self, other: "Histogram") -> None:
        """Accumulate another histogram of identical geometry."""
        if (
            other.n_bins != self.n_bins
            or other.bin_width != self.bin_width
            or other.origin != self.origin
        ):
            raise ValueError(
                "cannot merge histograms with different geometry"
            )
        for i, c in enumerate(other.counts):
            self.counts[i] += c
        self.overflow += other.overflow
        self.underflow += other.underflow
        self.total += other.total
        self._sum += other._sum
        for bound in (other._min, other._max):
            if bound is None:
                continue
            if self._min is None or bound < self._min:
                self._min = bound
            if self._max is None or bound > self._max:
                self._max = bound

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def mean(self) -> float:
        """Exact mean of all recorded values (kept in a sum register)."""
        return self._sum / self.total if self.total else 0.0

    @property
    def min(self) -> Optional[int]:
        return self._min

    @property
    def max(self) -> Optional[int]:
        return self._max

    def bin_range(self, index: int) -> Tuple[int, int]:
        """Inclusive-exclusive value range of bin ``index``."""
        if not 0 <= index < self.n_bins:
            raise IndexError(f"bin {index} out of range [0, {self.n_bins})")
        lo = self.origin + index * self.bin_width
        return (lo, lo + self.bin_width)

    def quantile(self, q: float) -> int:
        """Approximate quantile from bin boundaries.

        Returns the upper edge of the bin where the cumulative count
        crosses ``q``; overflow maps to the recorded maximum.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.total == 0:
            return self.origin
        threshold = q * self.total
        cumulative = self.underflow
        if cumulative >= threshold and self.underflow:
            return self.origin
        for i, c in enumerate(self.counts):
            cumulative += c
            if cumulative >= threshold:
                return self.bin_range(i)[1]
        return self._max if self._max is not None else self.origin

    def nonzero_bins(self) -> List[Tuple[Tuple[int, int], int]]:
        """(range, count) for every populated bin, in value order."""
        return [
            (self.bin_range(i), c)
            for i, c in enumerate(self.counts)
            if c
        ]

    # ------------------------------------------------------------------
    # Rendering (what the monitor shows on the host PC)
    # ------------------------------------------------------------------
    def render(self, width: int = 40, title: str = "") -> str:
        """ASCII rendering, one row per populated bin."""
        lines: List[str] = []
        if title:
            lines.append(title)
        peak = max(self.counts + [self.overflow, self.underflow, 1])
        if self.underflow:
            bar = "#" * max(1, round(self.underflow / peak * width))
            lines.append(f"  <{self.origin:>6} | {bar} {self.underflow}")
        for (lo, hi), count in self.nonzero_bins():
            bar = "#" * max(1, round(count / peak * width))
            lines.append(f"{lo:>4}-{hi - 1:<4} | {bar} {count}")
        if self.overflow:
            hi = self.origin + self.n_bins * self.bin_width
            bar = "#" * max(1, round(self.overflow / peak * width))
            lines.append(f" >={hi:>6} | {bar} {self.overflow}")
        if self.total == 0:
            lines.append("(empty)")
        return "\n".join(lines)

    def reset(self) -> None:
        self.counts = [0] * self.n_bins
        self.overflow = 0
        self.underflow = 0
        self.total = 0
        self._sum = 0
        self._min = None
        self._max = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Histogram(bins={self.n_bins}, width={self.bin_width},"
            f" total={self.total})"
        )
