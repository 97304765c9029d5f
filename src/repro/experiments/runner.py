"""The sweep runner: specs in, deterministic results out.

The emulation engine runs one platform; design-space exploration runs
hundreds.  :class:`SweepRunner` is the host-side batch driver the
paper's "host PC" role implies: it takes a list of
:class:`~repro.experiments.spec.ScenarioSpec`, executes each through
:func:`~repro.core.engine.build_engine` + :func:`~repro.core.engine.drive`,
and reads the statistics out as :class:`ScenarioResult` records.

Three properties the sweeps rely on:

* **Determinism** — a scenario's metrics are a pure function of its
  spec: every generator seed is derived from ``(seed, spec hash, TG
  index)`` (:meth:`ScenarioSpec.stream_seed`) and each platform
  numbers its own packets, so serial, parallel and re-ordered
  executions produce bit-identical records.  Wall-clock
  speed is measured but kept *outside* the record.
* **Parallelism** — ``workers > 1`` fans scenarios out over a
  ``multiprocessing`` pool (one emulation per task, order-preserving),
  which is the software analogue of racking more FPGA boards: sweeps
  scale with cores because scenarios share nothing.
* **Incrementality** — with a :class:`~repro.experiments.cache.
  ResultCache` attached, already-computed scenarios are served from
  disk and only changed specs execute (the software mirror of Slide
  13's "avoids often hardware re-synthesis").

And one property the long sweeps rely on: **robustness**.  Execution
is supervised (:mod:`repro.experiments.resilience`): worker death,
timeouts and per-spec exceptions are retried (a ``ConfigError`` is
not) and then quarantined instead of aborting the sweep, every
outcome can be journaled for crash-safe resumption, and
:meth:`SweepRunner.run` always returns a structured
:class:`~repro.experiments.resilience.SweepReport` of completed
results plus failure records.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.engine import build_engine, drive
from repro.core.errors import ConfigError
from repro.experiments.cache import ResultCache
from repro.experiments.resilience import (
    NOT_RETRIED,
    FailureRecord,
    SweepJournal,
    SweepReport,
    run_supervised,
)
from repro.experiments.spec import ScenarioSpec

#: Bump when the metric record layout changes; stored in every record
#: so caches from older layouts read as misses, not as wrong data.
RECORD_SCHEMA = 1


@dataclass(frozen=True)
class ScenarioResult:
    """One scenario's outcome: the spec, its metrics, and provenance.

    ``metrics`` is the deterministic record (see
    :func:`repro.stats.summary.scenario_metrics`); ``wall_seconds`` and
    ``cached`` describe how this particular copy was obtained and are
    deliberately excluded from :meth:`record`, which is the canonical
    (cacheable, comparable) form.
    """

    spec: ScenarioSpec
    metrics: Mapping[str, Any]
    wall_seconds: float = 0.0
    cached: bool = False

    @property
    def key(self) -> str:
        return self.spec.key

    def record(self) -> Dict[str, Any]:
        """Canonical deterministic form: what the cache stores."""
        return {
            "schema": RECORD_SCHEMA,
            "key": self.spec.key,
            "spec": self.spec.to_dict(),
            "metrics": dict(self.metrics),
        }

    @classmethod
    def from_record(
        cls,
        record: Mapping[str, Any],
        wall_seconds: float = 0.0,
        cached: bool = False,
    ) -> "ScenarioResult":
        return cls(
            spec=ScenarioSpec.from_dict(record["spec"]),
            metrics=dict(record["metrics"]),
            wall_seconds=wall_seconds,
            cached=cached,
        )


def run_scenario(
    spec: ScenarioSpec, timeout: Optional[float] = None
) -> ScenarioResult:
    """Execute one scenario end to end (pure function of the spec).

    ``timeout`` arms the engine's cooperative wall-clock budget
    (:class:`~repro.core.errors.ScenarioTimeout` on overrun); it
    bounds *how long* the run may take without touching *what* it
    computes — a finished run's record is identical with or without
    the deadline.
    """
    started = time.perf_counter()  # repro: allow[wall-clock] wall-time telemetry only; never enters a hashed or cached record
    platform, engine = build_engine(spec)
    result = drive(engine, max_wall_seconds=timeout)
    from repro.stats.summary import scenario_metrics

    metrics = scenario_metrics(platform, result)
    return ScenarioResult(
        spec=spec,
        metrics=metrics,
        wall_seconds=time.perf_counter() - started,  # repro: allow[wall-clock] wall-time telemetry only; never enters a hashed or cached record
    )


class ScenarioHeap:
    """Runs scenarios one at a time, freeing each platform before the
    next one is built.

    A platform is cyclic garbage (devices, switches and wake hooks
    point back at it), which only a full collection frees; left to the
    collector's thresholds, finished platforms pile up between those
    passes.  Entering collects and freezes the heap built so far
    (imports, the sweep itself), so the full collection after each
    attempt walks only what the attempt allocated; leaving unfreezes.
    """

    def __enter__(self) -> "ScenarioHeap":
        gc.collect()
        gc.freeze()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        gc.unfreeze()

    def attempt(
        self, spec: ScenarioSpec, timeout: Optional[float]
    ) -> Tuple[Optional[ScenarioResult], Optional[Tuple[str, str]]]:
        """One :func:`run_scenario` call: its result, or the failure's
        exception type name and message.  Either way the attempt's
        platform is freed before this returns."""
        failure = None
        try:
            result: Optional[ScenarioResult] = run_scenario(
                spec, timeout=timeout
            )
        except Exception as exc:
            result, failure = None, (type(exc).__name__, str(exc))
        gc.collect()
        return result, failure


@dataclass
class SweepStats:
    """Execution accounting of one :meth:`SweepRunner.run` call.

    The robustness counters (``failed``, ``quarantined``, ``retried``,
    ``parked``, ``corrupt_cache``) are provenance, like
    ``wall_seconds``: they describe how the sweep went, never what the
    surviving scenarios computed.
    """

    scenarios: int = 0
    executed: int = 0
    cached: int = 0
    wall_seconds: float = 0.0
    workers: int = 1
    #: Specs that ended as FailureRecords (quarantined included).
    failed: int = 0
    #: The subset of ``failed`` parked with status "quarantined".
    quarantined: int = 0
    #: Extra execution attempts beyond each spec's first.
    retried: int = 0
    #: Specs skipped because a resumed journal holds them quarantined.
    parked: int = 0
    #: Corrupt cache entries renamed to ``<key>.corrupt`` this run.
    corrupt_cache: int = 0

    @property
    def scenarios_per_second(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return self.scenarios / self.wall_seconds


class SweepRunner:
    """Executes scenario lists serially or on a supervised pool.

    Parameters
    ----------
    workers:
        Process count; 1 (the default) runs in-process.  Results are
        identical either way — parallelism only changes wall-clock.
    cache:
        Optional :class:`~repro.experiments.cache.ResultCache`; hits
        skip execution, misses are stored after the run.
    progress:
        Optional callback ``(done, total, result)`` fired live as each
        scenario is retired (cache hits, duplicates and failures
        included): cache hits first, then executions as they complete,
        duplicates last.  ``result`` is a :class:`ScenarioResult` or,
        for a spec that exhausted its attempts, a
        :class:`~repro.experiments.resilience.FailureRecord`.
    retries:
        Extra attempts per failing spec (``attempts = retries + 1``).
        Because scenarios are pure functions of their specs, a retry
        that succeeds is bit-identical to a clean first run.
    timeout:
        Per-scenario wall-clock budget in seconds: cooperative
        in-engine deadline plus (pool runs only) a watchdog hard-kill
        at ``timeout + grace``.
    memory_limit_mb:
        Optional per-worker address-space ceiling (pool runs only);
        overruns fail the attempt as MemoryError or WorkerCrash.
    quarantine:
        When True (default), specs that exhaust their attempts are
        parked as ``status="quarantined"`` failure records; when
        False they are plain ``"failed"`` records.  Either way the
        sweep finishes and returns what survived.
    journal:
        Optional :class:`~repro.experiments.resilience.SweepJournal`;
        every final per-spec outcome is appended to the ledger.
    resume:
        With ``journal``, resume its ledger instead of truncating it:
        specs recorded ``done`` are served from cache (a cache miss
        re-runs them), ``quarantined`` specs stay parked without
        re-running, ``failed`` specs re-run.
    chaos:
        Fault-drill hooks forwarded to the supervised pool (see
        :mod:`repro.experiments.resilience`); test-only.
    """

    def __init__(
        self,
        workers: int = 1,
        cache: Optional[ResultCache] = None,
        progress: Optional[Callable[[int, int, Any], None]] = None,
        retries: int = 1,
        timeout: Optional[float] = None,
        memory_limit_mb: Optional[int] = None,
        quarantine: bool = True,
        journal: Optional["SweepJournal"] = None,
        resume: bool = False,
        chaos: Optional[Mapping[str, Any]] = None,
    ) -> None:
        if workers < 1:
            raise ConfigError(f"workers must be >= 1, got {workers}")
        if retries < 0:
            raise ConfigError(f"retries must be >= 0, got {retries}")
        if timeout is not None and timeout <= 0:
            raise ConfigError(f"timeout must be > 0, got {timeout}")
        if resume and journal is None:
            raise ConfigError("resume=True needs a journal")
        self.workers = workers
        self.cache = cache
        self.progress = progress
        self.retries = retries
        self.timeout = timeout
        self.memory_limit_mb = memory_limit_mb
        self.quarantine = quarantine
        self.journal = journal
        self.resume = resume
        self.chaos = chaos
        self.last_stats = SweepStats()
        self._done = 0

    # ------------------------------------------------------------------
    def run(self, specs: Sequence[ScenarioSpec]) -> SweepReport:
        """Run a sweep; a :class:`SweepReport` comes back in spec order.

        Duplicate specs (same content hash) execute once and share the
        outcome.  With a cache attached, previously stored scenarios
        are served from disk.  A failing spec never aborts the sweep:
        it is retried up to ``retries`` times (a ``ConfigError`` never
        is: it fails the same way every time) and then recorded as a
        :class:`~repro.experiments.resilience.FailureRecord` in
        ``report.failures`` while every other spec's result is kept.
        """
        started = time.perf_counter()  # repro: allow[wall-clock] wall-time telemetry only; never enters a hashed or cached record
        specs = list(specs)
        total = len(specs)
        results: List[Optional[ScenarioResult]] = [None] * total
        failures: Dict[int, FailureRecord] = {}
        self._done = 0
        corrupt_before = (
            self.cache.corrupt_quarantined
            if self.cache is not None
            else 0
        )

        ledger: Dict[str, Dict[str, Any]] = {}
        if self.journal is not None:
            if self.resume:
                ledger = self.journal.load()
            else:
                self.journal.reset()

        # Journal / cache pass + dedup: first occurrence of each key
        # executes; quarantined ledger entries stay parked.
        pending: List[Tuple[int, ScenarioSpec]] = []
        first_index: Dict[str, int] = {}
        duplicates: List[Tuple[int, int]] = []
        cached = parked = 0
        for i, spec in enumerate(specs):
            if not isinstance(spec, ScenarioSpec):
                raise ConfigError(
                    f"sweep item {i} is {type(spec).__name__}, not"
                    f" ScenarioSpec"
                )
            key = spec.key
            if key in first_index:
                duplicates.append((i, first_index[key]))
                continue
            first_index[key] = i
            entry = ledger.get(key)
            if entry is not None and entry["status"] == "quarantined":
                failures[i] = FailureRecord(
                    spec=spec,
                    error=str(entry.get("error", "unknown")),
                    message=str(
                        entry.get("message", "quarantined by journal")
                    ),
                    attempts=int(entry.get("attempts", 0)),
                    status="quarantined",
                )
                parked += 1
                self._tick(total, failures[i])
                continue
            if self.cache is not None:
                record = self.cache.get(spec)
                if record is not None:
                    results[i] = ScenarioResult.from_record(
                        record, cached=True
                    )
                    cached += 1
                    self._journal_done(key)
                    self._tick(total, results[i])
                    continue
            pending.append((i, spec))

        executed, retried = self._execute(
            pending, results, failures, total
        )

        for dup, first in duplicates:
            if first in failures:
                failures[dup] = failures[first]
            else:
                results[dup] = results[first]
            self._tick(total, results[dup] or failures[dup])
        final = [r for r in results if r is not None]
        failed = [failures[i] for i in sorted(failures)]
        if len(final) + len(failed) != total:  # pragma: no cover - internal invariant
            raise RuntimeError("sweep lost results")

        corrupt = (
            self.cache.corrupt_quarantined - corrupt_before
            if self.cache is not None
            else 0
        )
        self.last_stats = SweepStats(
            scenarios=total,
            executed=executed,
            cached=cached,
            wall_seconds=time.perf_counter() - started,  # repro: allow[wall-clock] wall-time telemetry only; never enters a hashed or cached record
            workers=self.workers,
            failed=len(failed),
            quarantined=sum(
                1 for f in failed if f.status == "quarantined"
            ),
            retried=retried,
            parked=parked,
            corrupt_cache=corrupt,
        )
        return SweepReport(
            results=final, failures=failed, corrupt_cache=corrupt
        )

    # ------------------------------------------------------------------
    def _tick(self, total: int, result: Any) -> None:
        """One scenario accounted for: fire the live progress hook."""
        self._done += 1
        if self.progress is not None:
            self.progress(self._done, total, result)

    def _journal_done(self, key: str) -> None:
        if self.journal is not None:
            self.journal.write(key, "done", attempts=1)

    def _finish(
        self,
        index: int,
        spec: ScenarioSpec,
        result: ScenarioResult,
        results: List[Optional[ScenarioResult]],
        total: int,
    ) -> None:
        """One spec completed: store, cache, journal, report."""
        results[index] = result
        if self.cache is not None:
            self.cache.put(spec, result.record())
        self._journal_done(spec.key)
        self._tick(total, result)

    def _fail(
        self,
        index: int,
        spec: ScenarioSpec,
        error: str,
        message: str,
        attempts: int,
        failures: Dict[int, FailureRecord],
        total: int,
    ) -> None:
        """One spec out of attempts: park it and journal the outcome."""
        status = "quarantined" if self.quarantine else "failed"
        failures[index] = FailureRecord(
            spec=spec,
            error=error,
            message=message,
            attempts=attempts,
            status=status,
        )
        if self.journal is not None:
            self.journal.write(
                spec.key,
                status,
                error=error,
                message=message,
                attempts=attempts,
            )
        self._tick(total, failures[index])

    def _execute(
        self,
        pending: List[Tuple[int, ScenarioSpec]],
        results: List[Optional[ScenarioResult]],
        failures: Dict[int, FailureRecord],
        total: int,
    ) -> Tuple[int, int]:
        """Run the cache misses; fill ``results``/``failures`` in place.

        Each completed scenario is cached, journaled and reported
        *immediately* — an interrupted sweep keeps everything already
        finished, which is what makes long parallel sweeps resumable.
        Returns ``(executions dispatched, retries among them)``.
        """
        if not pending:
            return 0, 0
        if self.workers == 1 or len(pending) == 1:
            executed = 0
            with ScenarioHeap() as heap:
                for i, spec in pending:
                    for attempt in range(1, self.retries + 2):
                        executed += 1
                        result, failure = heap.attempt(spec, self.timeout)
                        if result is not None:
                            self._finish(i, spec, result, results, total)
                            break
                        if (
                            attempt > self.retries
                            or failure[0] in NOT_RETRIED
                        ):
                            self._fail(
                                i, spec, *failure, attempt, failures, total
                            )
                            break
            return executed, executed - len(pending)

        dispatched = run_supervised(
            pending,
            workers=self.workers,
            retries=self.retries,
            timeout=self.timeout,
            memory_limit_mb=self.memory_limit_mb,
            chaos=self.chaos,
            on_result=lambda i, spec, result: self._finish(
                i, spec, result, results, total
            ),
            on_failure=lambda i, spec, error, message, attempts: (
                self._fail(
                    i, spec, error, message, attempts, failures, total
                )
            ),
        )
        return dispatched, dispatched - len(pending)

    # ------------------------------------------------------------------
    def run_warm(
        self,
        checkpoint,
        loads: Sequence[float],
        max_cycles: int,
    ) -> List["WarmResult"]:
        """Warm-started load sweep: one restore fork per point.

        ``checkpoint`` is a ramp checkpoint from
        :func:`make_ramp_checkpoint`; every point resumes it, applies
        its load (uniform traffic only) and measures ``max_cycles``.
        Cache keys fold the checkpoint's content hash in
        (:func:`warm_point_key`), so warm records never collide with
        cold spec-keyed records.  Runs in-process regardless of
        ``workers`` — a restore is far cheaper than a ramp, so the
        pool's serialization overhead would dominate.
        """
        started = time.perf_counter()  # repro: allow[wall-clock] wall-time telemetry only; never enters a hashed or cached record
        spec = checkpoint.spec
        cp_hash = checkpoint.content_hash
        total = len(loads)
        self._done = 0
        results: List[WarmResult] = []
        executed = cached = 0
        for load in loads:
            key = warm_point_key(spec, cp_hash, load, max_cycles)
            if self.cache is not None:
                record = self.cache.get_record(key)
                if record is not None:
                    warm = record.get("warm", {})
                    result = WarmResult(
                        spec=spec,
                        checkpoint_hash=warm.get(
                            "checkpoint", cp_hash
                        ),
                        load=load,
                        max_cycles=max_cycles,
                        metrics=dict(record["metrics"]),
                        cached=True,
                    )
                    results.append(result)
                    cached += 1
                    self._tick(total, result)
                    continue
            result = run_warm_point(checkpoint, load, max_cycles)
            if self.cache is not None:
                self.cache.put_record(key, result.record())
            results.append(result)
            executed += 1
            self._tick(total, result)
        self.last_stats = SweepStats(
            scenarios=total,
            executed=executed,
            cached=cached,
            wall_seconds=time.perf_counter() - started,  # repro: allow[wall-clock] wall-time telemetry only; never enters a hashed or cached record
            workers=1,
        )
        return results


# ----------------------------------------------------------------------
# Warm-started sweeps
# ----------------------------------------------------------------------
#
# A load sweep re-emulates the same warm-up transient once per point.
# With checkpoint/restore, the shared prefix is emulated *once*: ramp
# the spec to steady state, snapshot, then fork one restore per sweep
# point and mutate only the generators' emission interval before the
# measurement horizon.  The fork is bit-identical to running the same
# ramp cold (resume parity), so warm and cold executions of one point
# produce the same metric record — they cache separately only because
# the warm key folds the checkpoint's content hash in, and collapse to
# the same numbers whenever the checkpoint genuinely is the cold
# prefix.
#
# Changing ``ScenarioSpec.load`` or ``packets`` would change the spec
# hash and with it every derived generator seed — a *different*
# scenario, not a warm continuation.  The warm path therefore keeps
# the spec (and its RNG streams) fixed and varies the operating point
# by re-deriving the uniform models' emission interval, exactly the
# quantity ``interval_for_load`` computes at build time.


def make_ramp_checkpoint(spec: ScenarioSpec, ramp_cycles: int):
    """Emulate ``spec`` for ``ramp_cycles`` and checkpoint the state.

    The run is a ``finalize=False`` chunk (telemetry/fault books stay
    open), so restores continue it bit-identically.  Use an unbounded
    spec (``packets=None``) so the ramp never exhausts its budget.
    """
    from repro.checkpoint import snapshot

    platform, engine = build_engine(spec)
    engine.run(max_cycles=ramp_cycles, finalize=False)
    return snapshot(platform, spec, engine)


def _apply_point_load(platform, load: float) -> None:
    """Re-derive every uniform generator's emission interval for
    ``load`` flits/cycle/node, as ``make_traffic_model`` derives it at
    build time.  Only the uniform family has a load-equivalent
    interval; other families raise."""
    from repro.traffic.base import interval_for_load
    from repro.traffic.uniform import UniformTraffic

    for gen in platform.generators:
        model = gen.model
        if not isinstance(model, UniformTraffic):
            raise ConfigError(
                f"warm-start load sweeps need uniform traffic; TG at"
                f" node {gen.node} runs {type(model).__name__}"
            )
        interval = interval_for_load(
            model._length_range[1], load
        )
        model._interval_range = (interval, interval)


def warm_point_key(
    spec: ScenarioSpec,
    checkpoint_hash: str,
    load: float,
    max_cycles: int,
) -> str:
    """Cache key of one warm-started point.

    Folds the ramp checkpoint's content hash in, so warm results can
    never shadow (or be shadowed by) cold spec-keyed records, and two
    different ramps cache separately.
    """
    import hashlib

    from repro.util import canonical_json_bytes

    payload = {
        "schema": RECORD_SCHEMA,
        "spec_key": spec.key,
        "checkpoint": checkpoint_hash,
        "point": {"load": load, "max_cycles": max_cycles},
    }
    blob = canonical_json_bytes(payload)
    return hashlib.sha256(blob).hexdigest()[:16]


@dataclass(frozen=True)
class WarmResult:
    """One warm-started sweep point: provenance plus metrics."""

    spec: ScenarioSpec
    checkpoint_hash: str
    load: float
    max_cycles: int
    metrics: Mapping[str, Any]
    wall_seconds: float = 0.0
    cached: bool = False

    @property
    def key(self) -> str:
        return warm_point_key(
            self.spec, self.checkpoint_hash, self.load,
            self.max_cycles,
        )

    def record(self) -> Dict[str, Any]:
        """Canonical deterministic form: what the cache stores."""
        return {
            "schema": RECORD_SCHEMA,
            "key": self.key,
            "spec": self.spec.to_dict(),
            "warm": {
                "checkpoint": self.checkpoint_hash,
                "load": self.load,
                "max_cycles": self.max_cycles,
            },
            "metrics": dict(self.metrics),
        }


def run_warm_point(
    checkpoint, load: float, max_cycles: int
) -> WarmResult:
    """Fork one restore off ``checkpoint`` and measure ``max_cycles``
    at operating point ``load``."""
    from repro.checkpoint import restore
    from repro.stats.summary import scenario_metrics

    started = time.perf_counter()  # repro: allow[wall-clock] wall-time telemetry only; never enters a hashed or cached record
    platform, engine = restore(checkpoint)
    _apply_point_load(platform, load)
    result = engine.run(max_cycles=max_cycles)
    metrics = scenario_metrics(platform, result)
    return WarmResult(
        spec=checkpoint.spec,
        checkpoint_hash=checkpoint.content_hash,
        load=load,
        max_cycles=max_cycles,
        metrics=metrics,
        wall_seconds=time.perf_counter() - started,  # repro: allow[wall-clock] wall-time telemetry only; never enters a hashed or cached record
    )


def run_cold_point(
    spec: ScenarioSpec,
    ramp_cycles: int,
    load: float,
    max_cycles: int,
) -> WarmResult:
    """The cold twin of one warm point: re-emulate the whole ramp,
    then the measurement horizon, with no checkpoint involved.

    By resume parity its metrics are bit-identical to
    :func:`run_warm_point` on a checkpoint of the same ramp — the
    bench pins that claim — and its wall clock prices what the warm
    path saves (``checkpoint_hash`` is empty: nothing was restored).
    """
    from repro.stats.summary import scenario_metrics

    started = time.perf_counter()  # repro: allow[wall-clock] wall-time telemetry only; never enters a hashed or cached record
    platform, engine = build_engine(spec)
    engine.run(max_cycles=ramp_cycles, finalize=False)
    _apply_point_load(platform, load)
    result = engine.run(max_cycles=max_cycles)
    metrics = scenario_metrics(platform, result)
    return WarmResult(
        spec=spec,
        checkpoint_hash="",
        load=load,
        max_cycles=max_cycles,
        metrics=metrics,
        wall_seconds=time.perf_counter() - started,  # repro: allow[wall-clock] wall-time telemetry only; never enters a hashed or cached record
    )
