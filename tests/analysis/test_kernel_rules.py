"""Fixture pairs for the kernel-convention rules.

settle-on-read and parking-wake are the rules that encode *this*
codebase's invariants; their fixtures mirror the real code shapes in
``noc/switch.py``, ``noc/ni.py`` and ``traffic/generator.py``.
"""

import textwrap

from repro.analysis import run_lint


def lint(overlay, rules):
    return run_lint(
        [],
        rule_ids=rules,
        overlay={
            path: textwrap.dedent(src) for path, src in overlay.items()
        },
    )


# ----------------------------------------------------------------------
# settle-on-read
# ----------------------------------------------------------------------
def test_settle_flags_foreign_raw_read():
    result = lint(
        {
            "repro/stats/peek.py": """
            def stalls(ni):
                return ni._stall_cycles
            """
        },
        rules=["settle-on-read"],
    )
    assert len(result.findings) == 1
    assert "stall_cycles" in result.findings[0].message


def test_settle_owner_and_checkpoint_are_sanctioned():
    source = """
    def stalls(ni):
        return ni._stall_cycles
    """
    for path in (
        "repro/noc/ni.py",
        "repro/noc/network.py",
        "repro/checkpoint/capture.py",
        "repro/checkpoint/restore.py",
    ):
        result = lint({path: source}, rules=["settle-on-read"])
        assert result.findings == [], path


def test_settle_clean_property_read():
    result = lint(
        {
            "repro/stats/peek.py": """
            def stalls(ni):
                return ni.stall_cycles
            """
        },
        rules=["settle-on-read"],
    )
    assert result.findings == []


# ----------------------------------------------------------------------
# parking-wake
# ----------------------------------------------------------------------
def test_park_input_without_waiter_registration_fires():
    result = lint(
        {
            "repro/noc/switch.py": """
            class Switch:
                def traverse(self, i, now, flit, out):
                    self._park_input(i, now, flit, True)
            """
        },
        rules=["parking-wake"],
    )
    assert len(result.findings) == 1
    assert "credit_waiters" in result.findings[0].message


def test_park_input_with_waiter_registration_is_clean():
    result = lint(
        {
            "repro/noc/switch.py": """
            class Switch:
                def traverse(self, i, now, flit, out):
                    self._park_input(i, now, flit, True)
                    out.credit_waiters.append(i)

                def traverse_lock(self, i, now, flit, out):
                    self._park_input(i, now, flit, False)
                    out.lock_waiters.append(i)
            """
        },
        rules=["parking-wake"],
    )
    assert result.findings == []


def test_park_input_none_head_needs_no_waiter():
    result = lint(
        {
            "repro/noc/switch.py": """
            class Switch:
                def accumulate(self, i, now):
                    self._park_input(i, now, None, False)
            """
        },
        rules=["parking-wake"],
    )
    assert result.findings == []


def test_ni_park_outside_credit_guard_fires():
    result = lint(
        {
            "repro/noc/network.py": """
            def inject(ni, now):
                ni._park(now)
            """
        },
        rules=["parking-wake"],
    )
    assert len(result.findings) == 1
    assert "_credits" in result.findings[0].message


def test_ni_park_under_credit_guard_is_clean():
    result = lint(
        {
            "repro/noc/network.py": """
            def inject(ni, now):
                if ni._credits <= 0:
                    ni._stall_cycles += 1
                    ni._park(now)
            """
        },
        rules=["parking-wake"],
    )
    assert result.findings == []


def test_bp_since_without_watch_drain_fires():
    result = lint(
        {
            "repro/traffic/generator.py": """
            class TrafficGenerator:
                def poll(self, now):
                    if self.blocked(now):
                        self._bp_since = now
            """
        },
        rules=["parking-wake"],
    )
    assert len(result.findings) == 1
    assert "watch_drain" in result.findings[0].message


def test_bp_since_with_watch_drain_is_clean():
    result = lint(
        {
            "repro/traffic/generator.py": """
            class TrafficGenerator:
                def poll(self, now):
                    if self.blocked(now):
                        self._bp_since = now
                        self.ni.watch_drain(self.queue_limit, self._cb)

                def reset(self):
                    self._bp_since = None
            """
        },
        rules=["parking-wake"],
    )
    assert result.findings == []
