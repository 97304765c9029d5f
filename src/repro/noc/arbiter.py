"""Output-port arbitration policies.

When several input ports of a switch request the same output port in the
same cycle, an arbiter picks the winner.  The hardware platform uses
round-robin arbitration; fixed-priority and matrix arbiters are provided
for the ablation study on arbitration fairness under the paper's
90%-loaded links (DESIGN.md §5).
"""

from __future__ import annotations

from typing import List, Optional, Sequence


class Arbiter:
    """Base class: pick one requester among ``n_requesters`` candidates."""

    #: Not checkpointed (see :mod:`repro.checkpoint.walker`): config.
    __rebuilt__ = ("n_requesters",)

    def __init__(self, n_requesters: int) -> None:
        if n_requesters < 1:
            raise ValueError("arbiter needs at least one requester")
        self.n_requesters = n_requesters
        self.grants = 0
        self.grant_counts = [0] * n_requesters

    def grant(self, requests: Sequence[int]) -> Optional[int]:
        """Return the granted requester index, or ``None`` if no requests.

        ``requests`` is the list of requesting input-port indices (each
        in ``range(n_requesters)``); duplicates are not allowed.
        """
        if not requests:
            return None
        winner = self._select(requests)
        self.grants += 1
        self.grant_counts[winner] += 1
        return winner

    def grant_single(self, winner: int) -> int:
        """Uncontended grant: identical statistics and policy state to
        ``grant([winner])`` without the selection scan (the switch's
        grant loop calls this on the common single-requester case)."""
        self.grants += 1
        self.grant_counts[winner] += 1
        self._won(winner)
        return winner

    def _select(self, requests: Sequence[int]) -> int:
        raise NotImplementedError

    def _won(self, winner: int) -> None:
        """Advance policy state after ``winner`` took the grant."""

    def reset(self) -> None:
        self.grants = 0
        self.grant_counts = [0] * self.n_requesters


class FixedPriorityArbiter(Arbiter):
    """Always grants the lowest-indexed requester.

    Simple and cheap in hardware but unfair: under sustained contention
    the highest-index input can starve, which the ablation bench makes
    visible on the 90%-loaded links.
    """

    def _select(self, requests: Sequence[int]) -> int:
        return min(requests)


class RoundRobinArbiter(Arbiter):
    """Grants requesters in rotating order, starting after the last winner.

    This is the policy of the emulated switch: the pointer advances to
    one past the winner so that repeated contention shares the output
    port equally among the contenders.
    """

    def __init__(self, n_requesters: int) -> None:
        super().__init__(n_requesters)
        self._pointer = 0

    def _won(self, winner: int) -> None:
        # The pointer advances past the winner, exactly as the
        # rotating search would set it.
        self._pointer = (winner + 1) % self.n_requesters

    def grant_single(self, winner: int) -> int:
        # Base implementation with ``_won`` folded in: the platform
        # default arbiter takes this on every uncontended grant.
        self.grants += 1
        self.grant_counts[winner] += 1
        self._pointer = (winner + 1) % self.n_requesters
        return winner

    def _select(self, requests: Sequence[int]) -> int:
        if len(requests) == 1:
            # Uncontended grant: same pointer advance as a search win.
            candidate = requests[0]
            self._pointer = (candidate + 1) % self.n_requesters
            return candidate
        request_set = set(requests)
        for offset in range(self.n_requesters):
            candidate = (self._pointer + offset) % self.n_requesters
            if candidate in request_set:
                self._pointer = (candidate + 1) % self.n_requesters
                return candidate
        raise AssertionError("unreachable: requests was non-empty")

    def reset(self) -> None:
        super().reset()
        self._pointer = 0


class MatrixArbiter(Arbiter):
    """Least-recently-served arbitration via a priority matrix.

    Keeps a matrix ``w[i][j]`` meaning "i beats j"; the winner's row is
    cleared and its column set, so the most recent winner becomes the
    lowest priority.  This is the classical hardware matrix arbiter and
    gives strong fairness (LRU order) at a quadratic register cost, which
    the FPGA cost model charges accordingly.
    """

    def __init__(self, n_requesters: int) -> None:
        super().__init__(n_requesters)
        n = n_requesters
        # Upper triangle set: initial priority order 0 > 1 > ... > n-1.
        self._beats: List[List[bool]] = [
            [j > i for j in range(n)] for i in range(n)
        ]

    def _won(self, winner: int) -> None:
        # Even an uncontended winner becomes the least-recently-served.
        self._update(winner)

    def _select(self, requests: Sequence[int]) -> int:
        request_set = set(requests)
        for i in request_set:
            if all(
                self._beats[i][j] for j in request_set if j != i
            ):
                self._update(i)
                return i
        # The matrix invariant (total order) guarantees a winner exists.
        raise AssertionError("matrix arbiter found no winner")

    def _update(self, winner: int) -> None:
        for j in range(self.n_requesters):
            if j != winner:
                self._beats[winner][j] = False
                self._beats[j][winner] = True

    def reset(self) -> None:
        super().reset()
        n = self.n_requesters
        self._beats = [[j > i for j in range(n)] for i in range(n)]


#: Arbitration policy names, each with its arbiter class.
ARBITERS = {
    "round_robin": RoundRobinArbiter,
    "fixed_priority": FixedPriorityArbiter,
    "matrix": MatrixArbiter,
}


def make_arbiter(policy: str, n_requesters: int) -> Arbiter:
    """Instantiate an arbiter by policy name.

    Recognised policies: ``round_robin`` (the platform default),
    ``fixed_priority`` and ``matrix``.
    """
    try:
        cls = ARBITERS[policy]
    except KeyError:
        raise ValueError(
            f"unknown arbitration policy {policy!r}; "
            f"expected one of {sorted(ARBITERS)}"
        ) from None
    return cls(n_requesters)
