"""Crash-safe sweep execution: supervision, retries, journal, report.

The failing spec used throughout is deterministic: ``ring:6`` with
``routing="shortest"`` is refused at platform build (cyclic channel
dependency), so it raises the same ConfigError on every attempt in
every process — a reliable stand-in for a "poisoned" scenario.
"""

import hashlib
import json
import os

import pytest

from repro.core.errors import ConfigError, EmulationError, ScenarioTimeout
from repro.experiments import (
    FailureRecord,
    ResultCache,
    ScenarioSpec,
    SweepJournal,
    SweepReport,
    Sweep,
    SweepRunner,
    aggregate,
    run_sweep,
)
from repro.faults import FaultSchedule, link_down
from repro.util import canonical_json_bytes

GOOD = [
    ScenarioSpec(topology="mesh:3:3", packets=60, seed=s)
    for s in (1, 2, 3)
]
#: Deterministically refused at build: cyclic dependency on a ring.
BAD = ScenarioSpec(topology="ring:6", routing="shortest", packets=60)
#: A fault schedule naming a link ``mesh:3:3`` lacks (0 -> 8).
MISSING_LINK = ScenarioSpec(
    topology="mesh:3:3",
    packets=60,
    faults=FaultSchedule(events=(link_down(50, 0, 8),)),
)


def records(results):
    return [r.record() for r in results]


# ----------------------------------------------------------------------
# The bugfix: completed results survive a failing spec
# ----------------------------------------------------------------------
class TestPartialResults:
    def test_completed_results_survive_failing_spec_serial(self):
        # Regression: a worker exception used to propagate out of
        # SweepRunner.run and discard every completed ScenarioResult.
        specs = [GOOD[0], BAD, GOOD[1]]
        report = SweepRunner(retries=0).run(specs)
        assert isinstance(report, SweepReport)
        assert len(report) == 2
        assert [r.spec for r in report] == [GOOD[0], GOOD[1]]
        assert len(report.failures) == 1
        assert report.failures[0].error == "ConfigError"

    def test_completed_results_survive_failing_spec_parallel(self):
        specs = [GOOD[0], BAD, GOOD[1]]
        report = SweepRunner(workers=2, retries=0).run(specs)
        assert len(report) == 2
        assert len(report.failures) == 1
        serial = SweepRunner(retries=0).run(specs)
        assert records(report) == records(serial)

    def test_failure_never_raises_mid_sweep(self):
        report = run_sweep([BAD], retries=0)
        assert len(report) == 0
        assert not report.ok

    def test_surviving_metrics_bit_identical_to_clean_run(self):
        clean = SweepRunner().run(GOOD)
        mixed = SweepRunner(retries=0).run([GOOD[0], BAD, GOOD[1], GOOD[2]])
        assert records(mixed) == records(clean)


# ----------------------------------------------------------------------
# SweepReport protocol
# ----------------------------------------------------------------------
class TestSweepReport:
    def test_sequence_protocol(self):
        report = SweepRunner().run(GOOD[:2])
        assert len(report) == 2
        assert list(report) == report.results
        assert report[0].spec == GOOD[0]
        assert report[-1].spec == GOOD[1]
        assert report.ok
        assert report.total == 2

    def test_total_counts_failures(self):
        report = SweepRunner(retries=0).run([GOOD[0], BAD])
        assert report.total == 2
        assert len(report) == 1

    def test_duplicates_share_failure_record(self):
        report = SweepRunner(retries=0).run([BAD, GOOD[0], BAD])
        assert len(report.failures) == 2
        assert report.failures[0] is report.failures[1]
        assert report.total == 3


# ----------------------------------------------------------------------
# Retry / quarantine policy
# ----------------------------------------------------------------------
class TestRetryQuarantine:
    def test_attempts_equals_retries_plus_one(self, monkeypatch):
        # A failure a retry may cure is tried ``retries + 1`` times
        # (a ConfigError is not: see the test below).
        import repro.experiments.runner as runner_mod

        def failing_drive(*args, **kwargs):
            raise RuntimeError("fails every attempt")

        monkeypatch.setattr(runner_mod, "drive", failing_drive)
        runner = SweepRunner(retries=2)
        report = runner.run([GOOD[0]])
        assert report.failures[0].error == "RuntimeError"
        assert report.failures[0].attempts == 3
        assert runner.last_stats.retried == 2
        assert runner.last_stats.executed == 3

    @pytest.mark.parametrize("workers", [1, 2], ids=["serial", "supervised"])
    @pytest.mark.parametrize(
        "bad",
        [BAD, MISSING_LINK],
        ids=["refused-at-build", "fault-on-missing-link"],
    )
    def test_config_error_is_not_retried(self, workers, bad):
        """A ConfigError fails the same way every time: one attempt,
        no retry, in both the serial loop and the supervised pool."""
        runner = SweepRunner(workers=workers, retries=2)
        report = runner.run([GOOD[0], bad])
        assert len(report) == 1
        failure = report.failures[0]
        assert failure.error == "ConfigError"
        assert failure.attempts == 1
        assert runner.last_stats.retried == 0
        assert runner.last_stats.executed == 2

    def test_quarantine_status_default(self):
        report = SweepRunner(retries=0).run([BAD])
        assert report.failures[0].status == "quarantined"

    def test_no_quarantine_status(self):
        runner = SweepRunner(retries=0, quarantine=False)
        report = runner.run([BAD])
        assert report.failures[0].status == "failed"
        assert runner.last_stats.quarantined == 0
        assert runner.last_stats.failed == 1

    def test_progress_sees_failures(self):
        seen = []
        runner = SweepRunner(
            retries=0,
            progress=lambda done, total, r: seen.append((done, total, r)),
        )
        runner.run([GOOD[0], BAD])
        assert [s[:2] for s in seen] == [(1, 2), (2, 2)]
        kinds = [getattr(s[2], "failed", False) for s in seen]
        assert kinds == [False, True]

    def test_failure_record_duck_type(self):
        failure = SweepRunner(retries=0).run([BAD]).failures[0]
        assert failure.spec.label()
        assert failure.wall_seconds == 0.0
        assert failure.cached is False
        assert failure.key == BAD.key

    def test_validation(self):
        with pytest.raises(ConfigError):
            SweepRunner(retries=-1)
        with pytest.raises(ConfigError):
            SweepRunner(timeout=0)
        with pytest.raises(ConfigError):
            SweepRunner(resume=True)


# ----------------------------------------------------------------------
# Cooperative timeout (engine + serial runner)
# ----------------------------------------------------------------------
class TestTimeout:
    def test_engine_rejects_negative_budget(self):
        from repro.core.engine import EmulationEngine
        from repro.core.platform import build_platform

        platform = build_platform(GOOD[0].to_platform_config())
        with pytest.raises(EmulationError):
            EmulationEngine(platform).run(max_wall_seconds=-1.0)

    def test_zero_budget_times_out_immediately(self):
        from repro.experiments.runner import run_scenario

        big = ScenarioSpec(topology="mesh:6:6", packets=50_000)
        with pytest.raises(ScenarioTimeout) as err:
            run_scenario(big, timeout=1e-9)
        assert err.value.elapsed > 0.0

    def test_generous_budget_changes_nothing(self):
        from repro.experiments.runner import run_scenario

        plain = run_scenario(GOOD[0])
        budgeted = run_scenario(GOOD[0], timeout=600.0)
        assert budgeted.record() == plain.record()

    def test_serial_sweep_timeout_is_structured(self):
        # Budget generous enough for the small scenario, far too
        # small for the big one; the timeout must become a structured
        # failure record, not an exception out of run().
        big = ScenarioSpec(topology="mesh:6:6", packets=50_000)
        runner = SweepRunner(retries=1, timeout=0.5)
        report = runner.run([GOOD[0], big])
        assert len(report) == 1
        assert report[0].spec == GOOD[0]
        failure = report.failures[0]
        assert failure.error == "ScenarioTimeout"
        assert failure.attempts == 2


# ----------------------------------------------------------------------
# The sweep journal
# ----------------------------------------------------------------------
class TestSweepJournal:
    def test_write_load_round_trip(self, tmp_path):
        journal = SweepJournal(str(tmp_path / "sweep.journal"))
        journal.write("aaa", "done", attempts=1)
        journal.write("bbb", "quarantined", error="ConfigError",
                      attempts=2)
        entries = journal.load()
        assert entries["aaa"]["status"] == "done"
        assert entries["bbb"]["error"] == "ConfigError"

    def test_last_entry_wins(self, tmp_path):
        journal = SweepJournal(str(tmp_path / "sweep.journal"))
        journal.write("aaa", "failed", attempts=1)
        journal.write("aaa", "done", attempts=1)
        assert journal.load()["aaa"]["status"] == "done"

    def test_missing_file_loads_empty(self, tmp_path):
        assert SweepJournal(str(tmp_path / "absent.journal")).load() == {}

    def test_torn_trailing_line_is_skipped(self, tmp_path):
        journal = SweepJournal(str(tmp_path / "sweep.journal"))
        journal.write("aaa", "done", attempts=1)
        with open(journal.path, "a") as fh:
            fh.write('{"key": "bbb", "sta')  # crash mid-append
        entries = journal.load()
        assert list(entries) == ["aaa"]

    def test_append_after_torn_tail_heals_boundary(self, tmp_path):
        # A crash can leave the file without a trailing newline; the
        # next append must not merge into the wreckage.
        journal = SweepJournal(str(tmp_path / "sweep.journal"))
        with open(journal.path, "w") as fh:
            fh.write('{"key": "aaa", "sta')
        journal.write("bbb", "done", attempts=1)
        entries = journal.load()
        assert entries["bbb"]["status"] == "done"

    @pytest.mark.parametrize(
        "line",
        [
            '{"status": "quarantined", "key": ["a"]}',
            '{"status": "quarantined", "key": 7}',
            '{"status": "parked", "key": "aaa"}',
            '{"status": ["done"], "key": "aaa"}',
            '{"status": "quarantined", "key": "aaa", "attempts": "x"}',
            '{"status": "quarantined", "key": "aaa", "attempts": 1.5}',
        ],
        ids=[
            "list-key", "int-key", "unknown-status", "list-status",
            "str-attempts", "float-attempts",
        ],
    )
    def test_malformed_entry_is_skipped(self, tmp_path, line):
        journal = SweepJournal(str(tmp_path / "sweep.journal"))
        journal.write("bbb", "done", attempts=1)
        with open(journal.path, "a") as fh:
            fh.write(line + "\n")
        assert list(journal.load()) == ["bbb"]

    def test_lines_are_canonical_json(self, tmp_path):
        journal = SweepJournal(str(tmp_path / "sweep.journal"))
        journal.write("aaa", "done", attempts=1)
        with open(journal.path) as fh:
            line = fh.readline().strip()
        assert line == json.dumps(
            {"attempts": 1, "key": "aaa", "status": "done"},
            sort_keys=True, separators=(",", ":"),
        )

    def test_for_sweep_is_order_insensitive(self, tmp_path):
        a = SweepJournal.for_sweep(str(tmp_path), GOOD)
        b = SweepJournal.for_sweep(str(tmp_path), list(reversed(GOOD)))
        assert a.path == b.path
        other = SweepJournal.for_sweep(str(tmp_path), GOOD[:2])
        assert other.path != a.path

    def test_reset_truncates(self, tmp_path):
        journal = SweepJournal(str(tmp_path / "sweep.journal"))
        journal.write("aaa", "done", attempts=1)
        journal.reset()
        assert journal.load() == {}


class TestJournalResume:
    def test_fresh_run_truncates_stale_ledger(self, tmp_path):
        journal = SweepJournal(str(tmp_path / "sweep.journal"))
        journal.write("stale", "done", attempts=1)
        SweepRunner(journal=journal).run(GOOD[:1])
        entries = journal.load()
        assert "stale" not in entries
        assert entries[GOOD[0].key]["status"] == "done"

    def test_resume_skips_done_specs_via_cache(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        journal = SweepJournal.for_sweep(cache.root, GOOD)
        # Simulated crash: only the first two specs completed.
        SweepRunner(cache=cache, journal=journal).run(GOOD[:2])
        runner = SweepRunner(cache=cache, journal=journal, resume=True)
        report = runner.run(GOOD)
        assert len(report) == 3
        assert runner.last_stats.cached == 2
        assert runner.last_stats.executed == 1

    def test_resumed_results_bit_identical_to_serial(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        journal = SweepJournal.for_sweep(cache.root, GOOD)
        SweepRunner(cache=cache, journal=journal).run(GOOD[:2])
        resumed = SweepRunner(
            cache=cache, journal=journal, resume=True
        ).run(GOOD)
        clean = SweepRunner().run(GOOD)
        assert records(resumed) == records(clean)

    def test_done_with_cache_miss_re_runs(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        journal = SweepJournal.for_sweep(cache.root, GOOD[:1])
        SweepRunner(cache=cache, journal=journal).run(GOOD[:1])
        os.unlink(cache.path_for(GOOD[0].key))  # cache evicted
        runner = SweepRunner(cache=cache, journal=journal, resume=True)
        report = runner.run(GOOD[:1])
        assert len(report) == 1
        assert runner.last_stats.executed == 1

    def test_quarantined_specs_stay_parked(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        journal = SweepJournal(str(tmp_path / "cache" / "s.journal"))
        journal.write(
            BAD.key, "quarantined", error="ConfigError",
            message="poisoned", attempts=2,
        )
        runner = SweepRunner(cache=cache, journal=journal, resume=True)
        report = runner.run([GOOD[0], BAD])
        assert runner.last_stats.parked == 1
        assert runner.last_stats.executed == 1
        failure = report.failures[0]
        assert failure.status == "quarantined"
        assert failure.error == "ConfigError"
        assert failure.attempts == 2

    @pytest.mark.parametrize(
        "entry",
        [
            '{{"status":"quarantined","key":"{key}","attempts":"x"}}',
            '{{"status":"quarantined","key":["{key}"]}}',
        ],
        ids=["str-attempts", "list-key"],
    )
    def test_malformed_journal_line_re_runs_the_spec(self, tmp_path, entry):
        cache = ResultCache(str(tmp_path / "cache"))
        journal = SweepJournal(str(tmp_path / "cache" / "s.journal"))
        os.makedirs(cache.root, exist_ok=True)
        with open(journal.path, "w") as fh:
            fh.write(entry.format(key=GOOD[0].key) + "\n")
        runner = SweepRunner(cache=cache, journal=journal, resume=True)
        report = runner.run(GOOD[:1])
        assert report.ok
        assert runner.last_stats.executed == 1
        assert runner.last_stats.parked == 0

    def test_failed_specs_re_run_on_resume(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        journal = SweepJournal(str(tmp_path / "cache" / "s.journal"))
        journal.write(
            GOOD[0].key, "failed", error="WorkerCrash",
            message="worker died", attempts=2,
        )
        runner = SweepRunner(cache=cache, journal=journal, resume=True)
        report = runner.run(GOOD[:1])
        assert len(report) == 1
        assert runner.last_stats.executed == 1

    def test_outcomes_are_journaled(self, tmp_path):
        journal = SweepJournal(str(tmp_path / "sweep.journal"))
        SweepRunner(retries=0, journal=journal).run([GOOD[0], BAD])
        entries = journal.load()
        assert entries[GOOD[0].key]["status"] == "done"
        bad = entries[BAD.key]
        assert bad["status"] == "quarantined"
        assert bad["error"] == "ConfigError"
        assert bad["attempts"] == 1

    def test_resumed_grid_sweep_hash_is_pinned(self, tmp_path):
        """A 12-spec grid, half of it journaled by a "crashed" run,
        resumes serially to the pinned records: six specs replayed from
        the cache, six executed."""
        specs = Sweep.grid(
            ScenarioSpec(traffic="uniform", packets=900, seed=11),
            load=(0.15, 0.30, 0.45, 0.60),
            buffer_depth=(2, 4, 8),
        )
        assert len(specs) == 12
        cache = ResultCache(str(tmp_path / "cache"))
        journal = SweepJournal.for_sweep(cache.root, specs)
        SweepRunner(cache=cache, journal=journal).run(specs[:6])
        runner = SweepRunner(cache=cache, journal=journal, resume=True)
        report = runner.run(specs)
        assert report.ok
        assert runner.last_stats.executed == 6
        assert runner.last_stats.cached == 6
        digest = hashlib.sha256(
            canonical_json_bytes(records(report))
        ).hexdigest()[:16]
        assert digest == "1f0c198bbbc14059"


# ----------------------------------------------------------------------
# aggregate() over a SweepReport
# ----------------------------------------------------------------------
class TestAggregateMissing:
    def test_missing_column_counts_failures(self):
        report = SweepRunner(retries=0).run([GOOD[0], GOOD[1], BAD])
        rows = aggregate(report, by=["topology"])
        by_topo = {row["topology"]: row for row in rows}
        assert by_topo["mesh:3:3"]["n"] == 2
        assert by_topo["mesh:3:3"]["missing"] == 0
        assert by_topo["ring:6"]["n"] == 0
        assert by_topo["ring:6"]["missing"] == 1

    def test_all_failed_group_has_none_stats(self):
        report = SweepRunner(retries=0).run([GOOD[0], BAD])
        rows = aggregate(
            report, by=["topology"], metrics=["cycles"],
        )
        failed_row = [r for r in rows if r["topology"] == "ring:6"][0]
        assert failed_row["cycles.mean"] is None

    def test_plain_list_keeps_old_schema(self):
        report = SweepRunner().run(GOOD[:2])
        rows = aggregate(list(report), by=["topology"])
        assert "missing" not in rows[0]

    def test_report_without_failures_has_zero_missing(self):
        report = SweepRunner().run(GOOD[:2])
        rows = aggregate(report, by=["topology"])
        assert rows[0]["missing"] == 0


# ----------------------------------------------------------------------
# Chaos drills: the supervised pool under real process death
# ----------------------------------------------------------------------
pytestmark_chaos = pytest.mark.chaos


@pytest.mark.chaos
class TestChaosSupervision:
    def test_sigkilled_worker_is_retried_and_sweep_completes(self):
        # Worker is SIGKILLed on the spec's first attempt; the
        # supervisor must detect the death (never hang), respawn, and
        # the retry must succeed with bit-identical metrics.
        serial = SweepRunner().run(GOOD)
        runner = SweepRunner(
            workers=2,
            retries=1,
            chaos={"kill_on": {GOOD[1].key: 1}},
        )
        report = runner.run(GOOD)
        assert report.ok
        assert runner.last_stats.retried == 1
        assert records(report) == records(serial)

    def test_crash_every_attempt_quarantines_as_worker_crash(self):
        runner = SweepRunner(
            workers=2,
            retries=1,
            chaos={"kill_on": {GOOD[1].key: 0}},
        )
        report = runner.run(GOOD)
        assert len(report) == 2
        failure = report.failures[0]
        assert failure.error == "WorkerCrash"
        assert failure.status == "quarantined"
        assert failure.attempts == 2

    def test_hung_worker_is_killed_and_quarantined(self):
        # The spec hangs outside the engine's cooperative check, so
        # only the watchdog can reclaim the worker.
        serial = SweepRunner().run(GOOD)
        runner = SweepRunner(
            workers=2,
            retries=0,
            timeout=1.0,
            chaos={"hang_on": {GOOD[1].key: 0}},
        )
        report = runner.run(GOOD)
        assert len(report) == 2
        failure = report.failures[0]
        assert failure.error == "ScenarioTimeout"
        survivors = [
            r.record() for r in serial if r.spec.key != GOOD[1].key
        ]
        assert records(report) == survivors

    def test_acceptance_kill_plus_timeout_survivors_identical(self, tmp_path):
        # The issue's acceptance drill: one worker SIGKILLed, one
        # spec forced to time out — every other spec's result must be
        # bit-identical to serial execution.
        serial = SweepRunner().run(GOOD)
        runner = SweepRunner(
            workers=2,
            retries=1,
            timeout=1.5,
            chaos={
                "kill_on": {GOOD[0].key: 1},
                "hang_on": {GOOD[2].key: 0},
            },
        )
        report = runner.run(GOOD)
        assert len(report) == 2
        assert len(report.failures) == 1
        assert report.failures[0].error == "ScenarioTimeout"
        survivors = [
            r.record() for r in serial if r.spec.key != GOOD[2].key
        ]
        assert records(report) == survivors

    def test_journal_resume_after_worker_crash(self, tmp_path):
        # Crash-then-resume: the first (journaled) run loses a spec to
        # repeated worker death; the resumed run re-runs only it.
        cache = ResultCache(str(tmp_path / "cache"))
        journal = SweepJournal.for_sweep(cache.root, GOOD)
        first = SweepRunner(
            workers=2,
            retries=0,
            quarantine=False,  # leave it re-runnable, not parked
            cache=cache,
            journal=journal,
            chaos={"kill_on": {GOOD[1].key: 0}},
        )
        report1 = first.run(GOOD)
        assert len(report1) == 2
        assert journal.load()[GOOD[1].key]["status"] == "failed"

        resumed = SweepRunner(
            cache=cache, journal=journal, resume=True
        )
        report2 = resumed.run(GOOD)
        assert report2.ok
        assert resumed.last_stats.cached == 2
        assert resumed.last_stats.executed == 1
        clean = SweepRunner().run(GOOD)
        assert records(report2) == records(clean)


# ----------------------------------------------------------------------
# CLI flags
# ----------------------------------------------------------------------
class TestBatchCliFlags:
    def write_sweep(self, tmp_path, specs_doc):
        from repro.util import canonical_json

        path = tmp_path / "sweep.json"
        path.write_text(canonical_json(specs_doc))
        return str(path)

    def test_resume_journal_requires_cache(self, tmp_path, capsys):
        from repro.cli import main

        sweep = self.write_sweep(
            tmp_path,
            {"base": {"topology": "mesh:3:3", "packets": 60}},
        )
        code = main(
            ["batch", sweep, "--no-cache", "--resume-journal"]
        )
        assert code == 2
        assert "--resume-journal" in capsys.readouterr().err

    def test_failures_exit_nonzero_with_summary(self, tmp_path, capsys):
        from repro.cli import main

        sweep = self.write_sweep(
            tmp_path,
            {
                "base": {"packets": 60},
                "zip": {
                    "topology": ["mesh:3:3", "ring:6"],
                    "routing": ["auto", "shortest"],
                },
            },
        )
        code = main([
            "batch", sweep, "--retries", "0",
            "--cache-dir", str(tmp_path / "cache"),
        ])
        captured = capsys.readouterr()
        assert code == 1
        assert "--- failures ---" in captured.err
        assert "quarantined" in captured.err
        assert "1 failed" in captured.err

    def test_resume_journal_reruns_only_unfinished(self, tmp_path, capsys):
        from repro.cli import main

        doc = {
            "base": {"topology": "mesh:3:3", "packets": 60},
            "grid": {"seed": [1, 2, 3]},
        }
        sweep = self.write_sweep(tmp_path, doc)
        cache_dir = str(tmp_path / "cache")
        # Full journaled run, then simulate a crash that lost one
        # spec: drop its cache entry and journal line.
        assert main(["batch", sweep, "--cache-dir", cache_dir]) == 0
        cache = ResultCache(cache_dir)
        specs = [
            ScenarioSpec(topology="mesh:3:3", packets=60, seed=s)
            for s in (1, 2, 3)
        ]
        journal = SweepJournal.for_sweep(cache_dir, specs)
        entries = journal.load()
        lost = specs[2].key
        os.unlink(cache.path_for(lost))
        journal.reset()
        for key, entry in sorted(entries.items()):
            if key != lost:
                journal.write(key, entry["status"],
                              attempts=entry.get("attempts", 1))
        capsys.readouterr()
        code = main([
            "batch", sweep, "--cache-dir", cache_dir,
            "--resume-journal", "--progress",
        ])
        captured = capsys.readouterr()
        assert code == 0
        # Only the lost spec re-ran; the others came from the cache.
        assert "2 cached" in captured.err
        assert "1 executed" in captured.err
