"""The latency analyzer (trace-driven receptor, Slide 11).

Latency is measured from packet *generation* (the cycle the traffic
model emitted it) to packet *completion* (tail flit reassembled at the
receptor), so it includes source queueing.  That definition is what
makes the paper's Slide 22 curve saturate: with finite TG queues the
worst-case latency is bounded by queue depth over drain rate, and the
bound is set by the congestion rate of the loaded links (90%).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional

from repro.noc.flit import Packet
from repro.receptors.histogram import Histogram


class LatencyAnalyzer:
    """Accumulates per-packet latency statistics.

    Keeps exact aggregate registers (count, sum, min, max) plus a
    histogram for distribution queries, and per-burst aggregates for
    the packets-per-burst sweeps of the paper's trace-driven figures.
    """

    #: Checkpoint code saves the per-burst defaultdict as rows (see
    #: :mod:`repro.checkpoint.walker`); every other field is walked.
    __rebuilt__ = ("_burst_acc",)

    def __init__(
        self, histogram_bins: int = 64, histogram_bin_width: int = 8
    ) -> None:
        self.count = 0
        self.total_latency = 0
        self.min_latency: Optional[int] = None
        self.max_latency: Optional[int] = None
        self.histogram = Histogram(
            histogram_bins, histogram_bin_width, origin=0
        )
        # Latency decomposition: generation -> wire (source queueing)
        # and wire -> reassembly (network time).  Only packets whose
        # NI stamped a wire_entry_cycle contribute.
        self.total_queueing = 0
        self.total_network = 0
        self.decomposed_count = 0
        # burst_id -> [packet count, latency sum]
        self._burst_acc: Dict[int, List[int]] = defaultdict(
            lambda: [0, 0]
        )

    def record(self, packet: Packet, completion_cycle: int) -> int:
        """Record one packet completion; return its latency in cycles."""
        latency = completion_cycle - packet.injection_cycle
        if latency < 0:
            raise ValueError(
                f"packet {packet.pid} completed at {completion_cycle}"
                f" before its injection at {packet.injection_cycle}"
            )
        self.count += 1
        self.total_latency += latency
        if self.min_latency is None or latency < self.min_latency:
            self.min_latency = latency
        if self.max_latency is None or latency > self.max_latency:
            self.max_latency = latency
        self.histogram.add(latency)
        if packet.wire_entry_cycle is not None:
            queueing = packet.wire_entry_cycle - packet.injection_cycle
            if 0 <= queueing <= latency:
                self.total_queueing += queueing
                self.total_network += latency - queueing
                self.decomposed_count += 1
        if packet.burst_id is not None:
            acc = self._burst_acc[packet.burst_id]
            acc[0] += 1
            acc[1] += latency
        return latency

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    @property
    def mean_latency(self) -> float:
        """Average packet latency in cycles (0 when nothing recorded)."""
        return self.total_latency / self.count if self.count else 0.0

    def quantile(self, q: float) -> int:
        """Approximate latency quantile from the histogram bins."""
        return self.histogram.quantile(q)

    # ------------------------------------------------------------------
    # Per-burst aggregates (packets/burst sweeps)
    # ------------------------------------------------------------------
    @property
    def bursts_seen(self) -> int:
        return len(self._burst_acc)

    def mean_latency_per_burst(self) -> Dict[int, float]:
        """burst_id -> mean latency of that burst's packets."""
        return {
            burst: acc[1] / acc[0]
            for burst, acc in self._burst_acc.items()
            if acc[0]
        }

    def mean_burst_size(self) -> float:
        """Average packets per observed burst."""
        if not self._burst_acc:
            return 0.0
        return sum(acc[0] for acc in self._burst_acc.values()) / len(
            self._burst_acc
        )

    def merge(self, other: "LatencyAnalyzer") -> None:
        """Fold another analyzer's records into this one."""
        self.count += other.count
        self.total_latency += other.total_latency
        if other.min_latency is not None:
            self.min_latency = (
                other.min_latency
                if self.min_latency is None
                else min(self.min_latency, other.min_latency)
            )
        if other.max_latency is not None:
            self.max_latency = (
                other.max_latency
                if self.max_latency is None
                else max(self.max_latency, other.max_latency)
            )
        self.histogram.merge(other.histogram)
        self.total_queueing += other.total_queueing
        self.total_network += other.total_network
        self.decomposed_count += other.decomposed_count
        for burst, acc in other._burst_acc.items():
            mine = self._burst_acc[burst]
            mine[0] += acc[0]
            mine[1] += acc[1]

    def reset(self) -> None:
        self.count = 0
        self.total_latency = 0
        self.min_latency = None
        self.max_latency = None
        self.histogram.reset()
        self.total_queueing = 0
        self.total_network = 0
        self.decomposed_count = 0
        self._burst_acc.clear()
