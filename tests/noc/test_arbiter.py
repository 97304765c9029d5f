"""Unit tests for the arbitration policies."""

import random

import pytest

from repro.noc.arbiter import (
    ARBITERS,
    FixedPriorityArbiter,
    MatrixArbiter,
    RoundRobinArbiter,
    make_arbiter,
)


class TestFixedPriority:
    def test_grants_lowest_index(self):
        arb = FixedPriorityArbiter(4)
        assert arb.grant([2, 1, 3]) == 1
        assert arb.grant([0, 3]) == 0

    def test_starves_high_index_under_contention(self):
        arb = FixedPriorityArbiter(2)
        winners = [arb.grant([0, 1]) for _ in range(10)]
        assert winners == [0] * 10


class TestRoundRobin:
    def test_rotates_under_full_contention(self):
        arb = RoundRobinArbiter(3)
        winners = [arb.grant([0, 1, 2]) for _ in range(6)]
        assert winners == [0, 1, 2, 0, 1, 2]

    def test_pointer_skips_idle_requesters(self):
        arb = RoundRobinArbiter(4)
        assert arb.grant([1, 3]) == 1
        assert arb.grant([1, 3]) == 3
        assert arb.grant([1, 3]) == 1

    def test_single_requester_always_wins(self):
        arb = RoundRobinArbiter(4)
        for _ in range(5):
            assert arb.grant([2]) == 2

    def test_fairness_over_long_run(self):
        arb = RoundRobinArbiter(4)
        for _ in range(400):
            arb.grant([0, 1, 2, 3])
        assert arb.grant_counts == [100, 100, 100, 100]

    def test_reset_restores_pointer(self):
        arb = RoundRobinArbiter(3)
        arb.grant([0, 1, 2])
        arb.reset()
        assert arb.grant([0, 1, 2]) == 0
        assert arb.grants == 1


class TestMatrix:
    def test_least_recently_served_order(self):
        arb = MatrixArbiter(3)
        assert arb.grant([0, 1, 2]) == 0
        # 0 just won, so it loses to both 1 and 2 now.
        assert arb.grant([0, 1]) == 1
        assert arb.grant([0, 1]) == 0
        assert arb.grant([1, 2]) == 2

    def test_fairness_under_contention(self):
        arb = MatrixArbiter(4)
        for _ in range(400):
            arb.grant([0, 1, 2, 3])
        assert arb.grant_counts == [100, 100, 100, 100]

    def test_reset(self):
        arb = MatrixArbiter(2)
        arb.grant([0, 1])
        arb.reset()
        assert arb.grant([0, 1]) == 0


class TestFactoryAndBase:
    def test_make_arbiter_by_name(self):
        assert isinstance(
            make_arbiter("round_robin", 2), RoundRobinArbiter
        )
        assert isinstance(
            make_arbiter("fixed_priority", 2), FixedPriorityArbiter
        )
        assert isinstance(make_arbiter("matrix", 2), MatrixArbiter)

    def test_unknown_policy_raises(self):
        with pytest.raises(ValueError, match="unknown arbitration"):
            make_arbiter("lottery", 2)

    def test_requester_count_validation(self):
        with pytest.raises(ValueError):
            RoundRobinArbiter(0)

    def test_grant_counts_track_winners(self):
        arb = RoundRobinArbiter(2)
        arb.grant([0])
        arb.grant([0, 1])
        assert arb.grants == 2
        assert sum(arb.grant_counts) == 2


@pytest.mark.parametrize("policy", sorted(ARBITERS))
def test_grant_single_matches_a_one_request_grant(policy):
    """The switch grants a lone requester through ``grant_single``: it
    must leave the same winner, grant statistics and policy state
    (``_pointer``, ``_beats``) as ``grant([w])`` after any history."""
    rng = random.Random(7)
    single, listed = make_arbiter(policy, 5), make_arbiter(policy, 5)
    for _ in range(300):
        requests = rng.sample(range(5), rng.randint(1, 5))
        if len(requests) == 1:
            assert single.grant_single(requests[0]) == listed.grant(requests)
        else:
            assert single.grant(requests) == listed.grant(requests)
        assert vars(single) == vars(listed)
    assert listed.grants == 300
