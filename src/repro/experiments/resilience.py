"""Crash-safe sweep execution: supervision, retries, and the journal.

A multi-hour sweep must not lose everything because one worker was
OOM-killed, one scenario wedged, or the host rebooted.  This module is
the hardening layer under :class:`~repro.experiments.runner.
SweepRunner`, in three parts:

* **Supervised worker pool** — :func:`run_supervised` replaces the
  bare ``multiprocessing.Pool``.  Each worker gets its own duplex
  pipe (a SIGKILL mid-write can poison a *shared* queue's lock; a
  private pipe just reads EOF), receives one task at a time, and is
  polled with :func:`multiprocessing.connection.wait`.  A dead worker
  surfaces as a structured ``WorkerCrash`` attempt — never a hang,
  never a sweep-wide exception — and a watchdog hard-kills workers
  that blow past the per-scenario wall-clock budget plus grace (the
  out-of-process backstop behind the engine's cooperative
  :class:`~repro.core.errors.ScenarioTimeout`).
* **Retry / quarantine** — every failure consumes one of a bounded
  number of attempts; a spec that keeps failing is *quarantined* (a
  :class:`FailureRecord` in the report) instead of aborting the
  sweep.  Because :func:`~repro.experiments.runner.run_scenario` is a
  pure function of the spec, a retry that succeeds yields the same
  bits the first attempt would have.  A ``ConfigError`` (the platform
  rejects the spec) fails the same way every time, so it is never
  retried (:data:`NOT_RETRIED`).
* **Sweep journal** — :class:`SweepJournal` is an append-only ledger
  of per-spec outcomes (``done`` / ``failed`` / ``quarantined``) as
  canonical-JSON lines next to the cache.  After a process-level
  crash, ``repro batch --resume-journal`` re-runs only specs the
  ledger does not show finished; torn trailing lines from the crash
  itself are tolerated (last complete entry wins).

What stays deterministic: the metric records.  Retry counts, wall
clocks, error strings and journal entries are all provenance, kept
outside :meth:`~repro.experiments.runner.ScenarioResult.record`, so
serial, parallel, retried and resumed executions of the surviving
specs remain bit-identical.

Chaos drills
------------
The supervised pool takes an optional ``chaos`` mapping — a
first-class test hook, never set by production code paths::

    {"kill_on": {spec_key: attempt}, "hang_on": {spec_key: attempt}}

``kill_on`` SIGKILLs the worker right before running that spec's
given attempt (``0`` = every attempt); ``hang_on`` wedges it in a
sleep loop so the watchdog has something to kill.  The chaos suite
uses these to prove crash detection, retry and quarantine end to end.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.errors import EmulationError
from repro.util import canonical_json

__all__ = [
    "FailureRecord",
    "SweepJournal",
    "SweepReport",
    "WorkerCrash",
    "run_supervised",
]


#: Failure types a retry cannot change: the platform rejects the spec
#: itself, so the spec fails on its first attempt.
NOT_RETRIED = frozenset({"ConfigError"})


def retried(attempt: int, retries: int, error: str) -> bool:
    """Whether a spec whose ``attempt``-th run failed with ``error`` (an
    exception type name) runs again: attempts remain and a retry could
    change the outcome."""
    return attempt <= retries and error not in NOT_RETRIED


class WorkerCrash(EmulationError):
    """A pool worker died without reporting a result.

    Raised-shaped but never actually raised across the sweep: the
    supervisor converts worker death (SIGKILL, OOM kill, interpreter
    abort) into one failed *attempt* carrying this type's name, so the
    sweep retries or quarantines the spec instead of hanging on a
    queue that will never fill.
    """


@dataclass(frozen=True)
class FailureRecord:
    """One spec's final failure: what went wrong, how hard we tried.

    Duck-compatible with :class:`~repro.experiments.runner.
    ScenarioResult` where progress/report plumbing needs it (``spec``,
    ``wall_seconds``, ``cached``), and marked ``failed = True`` so
    callers can tell the two apart without isinstance checks.  All of
    this is provenance — none of it enters a deterministic record.
    """

    spec: Any
    error: str
    message: str
    attempts: int
    status: str  # "failed" | "quarantined"
    wall_seconds: float = 0.0
    #: Constants of the duck type, not fields: a failure is never served
    #: from the cache.
    cached = False
    failed = True

    @property
    def key(self) -> str:
        return self.spec.key


class SweepReport(Sequence):
    """What a sweep returns: completed results plus failure records.

    Sequence-compatible over the *completed* results (in spec order),
    so every pre-existing call site — iteration, indexing, ``len`` —
    keeps working; the new failure bookkeeping rides alongside:

    ``failures``
        One :class:`FailureRecord` per failed sweep position, in spec
        order.  Duplicate specs share the same record object, so
        ``len(report) + len(report.failures)`` equals the sweep size.
    ``corrupt_cache``
        Cache entries quarantined as ``<key>.corrupt`` during this
        sweep (see :class:`~repro.experiments.cache.ResultCache`).
    """

    def __init__(
        self,
        results: Sequence[Any],
        failures: Sequence[FailureRecord] = (),
        corrupt_cache: int = 0,
    ) -> None:
        self.results: List[Any] = list(results)
        self.failures: List[FailureRecord] = list(failures)
        self.corrupt_cache = corrupt_cache

    # Sequence protocol over the completed results.
    def __getitem__(self, index):
        return self.results[index]

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self) -> Iterator[Any]:
        return iter(self.results)

    @property
    def ok(self) -> bool:
        """True when every spec completed."""
        return not self.failures

    @property
    def total(self) -> int:
        """Sweep size: completed plus failed positions."""
        return len(self.results) + len(self.failures)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SweepReport(results={len(self.results)},"
            f" failures={len(self.failures)},"
            f" corrupt_cache={self.corrupt_cache})"
        )


# ----------------------------------------------------------------------
# The sweep journal
# ----------------------------------------------------------------------
#: Every status :meth:`SweepJournal.write` is called with.
_JOURNAL_STATUSES = ("done", "failed", "quarantined")


def _well_formed(entry: Any) -> bool:
    """A journal entry the runner can act on without a traceback."""
    if not isinstance(entry, dict):
        return False
    attempts = entry.get("attempts", 0)
    return (
        isinstance(entry.get("key"), str)
        and entry.get("status") in _JOURNAL_STATUSES
        and isinstance(attempts, int)
        and not isinstance(attempts, bool)
    )


class SweepJournal:
    """Append-only per-spec outcome ledger; the crash-recovery anchor.

    One canonical-JSON object per line::

        {"attempts": 1, "key": "<spec key>", "status": "done"}
        {"attempts": 2, "error": "ScenarioTimeout", "key": "...",
         "status": "quarantined"}

    Appends are flushed and fsynced, so every *completed* line
    survives a crash; a line torn by the crash itself fails to parse
    and is skipped on load (the last complete entry per key wins).
    The file lives next to the cache under a name derived from the
    sweep's spec-key set (:meth:`for_sweep`), so re-running the same
    sweep file resumes the same ledger while a different sweep gets
    its own.
    """

    def __init__(self, path: str) -> None:
        self.path = path

    @classmethod
    def for_sweep(cls, directory: str, specs: Sequence[Any]) -> "SweepJournal":
        """The canonical journal path of a sweep: hash of its key set.

        Order-insensitive (the keys are sorted and deduplicated), so
        reordering a sweep file still resumes the same journal.
        """
        import hashlib

        from repro.util import canonical_json_bytes

        keys = sorted({spec.key for spec in specs})
        digest = hashlib.sha256(
            canonical_json_bytes(keys)
        ).hexdigest()[:16]
        return cls(os.path.join(directory, f"sweep-{digest}.journal"))

    def load(self) -> Dict[str, Dict[str, Any]]:
        """Last complete entry per spec key; {} when absent/empty.

        Corrupt or torn lines (the tail a crash left behind) are
        skipped, not fatal — the corresponding spec simply re-runs.
        So are entries whose ``key`` is not a string, whose ``status``
        is not one the runner writes, or whose ``attempts`` is present
        but not an int.
        """
        import json

        entries: Dict[str, Dict[str, Any]] = {}
        try:
            with open(self.path, "r", encoding="utf-8") as handle:
                for line in handle:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        entry = json.loads(line)
                    except ValueError:
                        continue
                    if not _well_formed(entry):
                        continue
                    entries[entry["key"]] = entry
        except FileNotFoundError:
            return {}
        return entries

    def write(self, key: str, status: str, **extra: Any) -> None:
        """Append one outcome line, flushed and fsynced.

        If the previous process died mid-append the file ends in a
        torn line with no newline; writing straight after it would
        merge the new entry into the wreckage and lose both.  Heal
        the boundary first: a torn tail gets terminated (it then
        fails to parse and is skipped on load, as before) and the new
        entry starts clean.
        """
        entry = {"key": key, "status": status}
        entry.update(extra)
        os.makedirs(os.path.dirname(self.path) or ".", exist_ok=True)
        blob = (canonical_json(entry) + "\n").encode("utf-8")
        with open(self.path, "a+b") as handle:
            handle.seek(0, os.SEEK_END)
            if handle.tell() > 0:
                handle.seek(-1, os.SEEK_END)
                if handle.read(1) != b"\n":
                    handle.write(b"\n")
            handle.write(blob)
            handle.flush()
            os.fsync(handle.fileno())

    def reset(self) -> None:
        """Truncate: a fresh (non-resumed) run starts a fresh ledger."""
        os.makedirs(os.path.dirname(self.path) or ".", exist_ok=True)
        with open(self.path, "w", encoding="utf-8"):
            pass


# ----------------------------------------------------------------------
# The supervised worker pool
# ----------------------------------------------------------------------
#: Seconds of grace past the scenario budget before the watchdog
#: hard-kills a worker: the cooperative in-engine timeout gets first
#: shot (its error message names the cycle reached); the kill is the
#: backstop for code wedged outside the engine loop.
GRACE_SECONDS = 1.0


def _apply_memory_limit(limit_mb: int) -> None:
    """Best-effort address-space ceiling for the current process.

    ``resource`` is POSIX-only; where it is missing (or the limit
    cannot be lowered) the worker simply runs unlimited — the
    supervisor's crash detection still converts any OOM kill into a
    ``WorkerCrash`` attempt.
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX hosts
        return
    limit = int(limit_mb) << 20
    try:
        _, hard = resource.getrlimit(resource.RLIMIT_AS)
        if hard != resource.RLIM_INFINITY and hard < limit:
            limit = hard
        resource.setrlimit(resource.RLIMIT_AS, (limit, hard))
    except (ValueError, OSError):  # pragma: no cover - host policy
        return


def _worker_main(conn, config: Dict[str, Any]) -> None:
    """Worker loop: one task in, one structured reply out.

    Replies are ``("ok", task_id, record, wall)`` or ``("err",
    task_id, error_type, message)``; a ``None`` task is the stop
    sentinel.  Exceptions become "err" replies (the supervisor decides
    retry vs. quarantine); only interpreter-level exits escape, and
    those the supervisor reads as a crash from the pipe's EOF.
    """
    import signal

    memory_limit_mb = config.get("memory_limit_mb")
    if memory_limit_mb:
        _apply_memory_limit(memory_limit_mb)
    timeout = config.get("timeout")
    chaos = config.get("chaos") or {}
    kill_on = chaos.get("kill_on") or {}
    hang_on = chaos.get("hang_on") or {}

    from repro.experiments.runner import ScenarioHeap
    from repro.experiments.spec import ScenarioSpec

    with ScenarioHeap() as heap:
        while True:
            try:
                task = conn.recv()
            except (EOFError, OSError):  # supervisor went away
                break
            if task is None:
                break
            task_id, spec_dict, attempt = task
            spec = ScenarioSpec.from_dict(spec_dict)
            key = spec.key
            if key in kill_on and kill_on[key] in (0, attempt):
                os.kill(os.getpid(), signal.SIGKILL)
            if key in hang_on and hang_on[key] in (0, attempt):
                while True:  # wedged on purpose; the watchdog kills us
                    time.sleep(0.05)
            result, failure = heap.attempt(spec, timeout)
            if result is None:
                reply = ("err", task_id, *failure)
            else:
                reply = ("ok", task_id, result.record(), result.wall_seconds)
            try:
                conn.send(reply)
            except (BrokenPipeError, OSError):  # supervisor went away
                break
    conn.close()


class _Worker:
    """One supervised worker process and its private pipe."""

    def __init__(self, ctx, config: Dict[str, Any]) -> None:
        parent, child = ctx.Pipe(duplex=True)
        self.conn = parent
        self.proc = ctx.Process(
            target=_worker_main, args=(child, config), daemon=True
        )
        self.proc.start()
        child.close()
        #: (task_id, spec, attempt) in flight, or None when idle.
        self.task: Optional[Tuple[int, Any, int]] = None
        #: Watchdog deadline (perf_counter seconds), or None.
        self.deadline: Optional[float] = None

    def dispatch(
        self, task_id: int, spec: Any, attempt: int, budget: Optional[float]
    ) -> bool:
        """Send one task; False when the worker is already dead."""
        try:
            self.conn.send((task_id, spec.to_dict(), attempt))
        except (BrokenPipeError, OSError):
            return False
        self.task = (task_id, spec, attempt)
        if budget is not None:
            self.deadline = (
                time.perf_counter() + budget  # repro: allow[wall-clock] watchdog deadline; supervision only, never enters a deterministic record
            )
        return True

    def kill(self) -> None:
        """Hard-stop: SIGKILL (terminate is catchable) and reap."""
        if self.proc.is_alive():
            self.proc.kill()
        self.proc.join()
        self.conn.close()

    def stop(self) -> None:
        """Graceful stop: sentinel, short join, then hard-stop."""
        try:
            self.conn.send(None)
        except (BrokenPipeError, OSError):
            pass
        self.proc.join(timeout=5.0)
        self.kill()


def run_supervised(
    tasks: Sequence[Tuple[int, Any]],
    workers: int,
    retries: int = 1,
    timeout: Optional[float] = None,
    memory_limit_mb: Optional[int] = None,
    chaos: Optional[Mapping[str, Any]] = None,
    on_result: Optional[Callable[[int, Any, Any], None]] = None,
    on_failure: Optional[
        Callable[[int, Any, str, str, int], None]
    ] = None,
) -> int:
    """Run ``tasks`` (``(index, spec)`` pairs) on a supervised pool.

    Every task ends in exactly one of two callbacks: ``on_result(
    index, spec, ScenarioResult)`` on success, or ``on_failure(index,
    spec, error_type, message, attempts)`` after all attempts are
    spent (``attempts = retries + 1``, or 1 for a failure type in
    :data:`NOT_RETRIED`).  Worker death is a
    ``WorkerCrash`` attempt; a budget overrun is a ``ScenarioTimeout``
    attempt, enforced cooperatively in-engine first and by watchdog
    SIGKILL at ``timeout`` plus :data:`GRACE_SECONDS`.  Returns the
    number of task executions dispatched (retries included) — the
    sweep-level retry count is that minus ``len(tasks)``.
    """
    import multiprocessing
    from multiprocessing.connection import wait as conn_wait

    from repro.experiments.runner import ScenarioResult

    if not tasks:
        return 0
    ctx = multiprocessing.get_context()
    config: Dict[str, Any] = {
        "timeout": timeout,
        "memory_limit_mb": memory_limit_mb,
        "chaos": dict(chaos) if chaos else None,
    }
    budget = None if timeout is None else timeout + GRACE_SECONDS

    # task_id -> (spec, next attempt).  One task in flight per worker,
    # so a dead worker's task is always known and its timeout is
    # measured from dispatch, not from enqueue.
    queue: List[Tuple[int, Any, int]] = [
        (task_id, spec, 1) for task_id, spec in tasks
    ]
    queue.reverse()  # pop() from the end == submission order
    outstanding = len(tasks)
    dispatched = 0
    pool: List[_Worker] = [
        _Worker(ctx, config)
        for _ in range(min(workers, len(tasks)))
    ]

    def attempt_failed(
        task_id: int, spec: Any, attempt: int, error: str, message: str
    ) -> None:
        nonlocal outstanding
        if retried(attempt, retries, error):
            queue.append((task_id, spec, attempt + 1))
        else:
            if on_failure is not None:
                on_failure(task_id, spec, error, message, attempt)
            outstanding -= 1

    try:
        while outstanding > 0:
            # Fill idle workers (replacing any found dead on dispatch).
            for slot, worker in enumerate(pool):
                while worker.task is None and queue:
                    task_id, spec, attempt = queue.pop()
                    dispatched += 1
                    if worker.dispatch(task_id, spec, attempt, budget):
                        break
                    # Dead before dispatch: not the task's fault —
                    # replace the worker and retry the same attempt.
                    dispatched -= 1
                    queue.append((task_id, spec, attempt))
                    worker.kill()
                    worker = pool[slot] = _Worker(ctx, config)

            busy = [w for w in pool if w.task is not None]
            if not busy:  # pragma: no cover - internal invariant
                raise RuntimeError("supervised pool stalled")

            poll: Optional[float] = None
            if budget is not None:
                now = time.perf_counter()  # repro: allow[wall-clock] watchdog poll timing; supervision only, never enters a deterministic record
                nearest = min(w.deadline for w in busy)
                poll = max(0.0, min(nearest - now, 0.2))
            ready = conn_wait([w.conn for w in busy], timeout=poll)

            for worker in busy:
                if worker.conn not in ready:
                    continue
                task_id, spec, attempt = worker.task
                try:
                    reply = worker.conn.recv()
                except (EOFError, OSError):
                    # The pipe hit EOF: the worker died (SIGKILL, OOM
                    # kill, interpreter abort) mid-task.
                    worker.kill()
                    slot = pool.index(worker)
                    pool[slot] = _Worker(ctx, config)
                    attempt_failed(
                        task_id,
                        spec,
                        attempt,
                        WorkerCrash.__name__,
                        f"worker died while running {spec.label()}"
                        f" (attempt {attempt})",
                    )
                    continue
                worker.task = None
                worker.deadline = None
                kind = reply[0]
                if kind == "ok":
                    _, _, record, wall = reply
                    if on_result is not None:
                        on_result(
                            task_id,
                            spec,
                            ScenarioResult.from_record(
                                record, wall_seconds=wall
                            ),
                        )
                    outstanding -= 1
                else:
                    _, _, error, message = reply
                    attempt_failed(task_id, spec, attempt, error, message)

            # Watchdog: hard-kill workers past budget + grace.  The
            # cooperative in-engine timeout normally replies first;
            # this catches code wedged outside the engine loop.
            if budget is not None:
                now = time.perf_counter()  # repro: allow[wall-clock] watchdog deadline check; supervision only, never enters a deterministic record
                for slot, worker in enumerate(pool):
                    if worker.task is None or now < worker.deadline:
                        continue
                    task_id, spec, attempt = worker.task
                    worker.kill()
                    pool[slot] = _Worker(ctx, config)
                    attempt_failed(
                        task_id,
                        spec,
                        attempt,
                        "ScenarioTimeout",
                        f"worker hard-killed after exceeding the"
                        f" {timeout}s scenario budget (+{GRACE_SECONDS}s"
                        f" grace) on {spec.label()}"
                        f" (attempt {attempt})",
                    )
    finally:
        for worker in pool:
            worker.stop()
    return dispatched
