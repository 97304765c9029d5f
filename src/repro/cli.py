"""Command-line interface.

The hardware platform is driven from a host PC; this CLI is that
host-side tooling for the Python reproduction::

    python -m repro run    --traffic burst --packets 2000
    python -m repro run    --topology mesh:4:4 --traffic poisson
    python -m repro run    --profile --profile-out run.pstats
    python -m repro run    --progress --windows 1000 --windows-out w.json
    python -m repro run    --trace flits.jsonl --trace-perfetto t.json
    python -m repro synth  --receptors stochastic
    python -m repro speed  --packets 500
    python -m repro sweep  --metric latency
    python -m repro batch  sweep.json --workers 4 --progress

``run`` turns its flags into one scenario spec
(:class:`~repro.experiments.ScenarioSpec`), builds its platform (or
restores it with ``--resume``), drives it to the end and prints the
monitor's final report; a bad flag or spec exits 2, and a run that
fails (the drain guard, or no emission due before the horizon) prints
a one-line ``error:`` and exits 1.  Every topology, the paper platform included,
takes this one path: each TG's seed is the spec's stream seed
(``ScenarioSpec.stream_seed``), and the observer flags (``--windows``,
``--progress``, ``--trace``, ``--checkpoint-out``, ``--profile``) never
change the emulated result.  ``synth`` prints the Table 1-style
utilisation report only; ``speed`` measures the three engines and
prints the Table 2-style comparison; ``sweep`` regenerates the
packets-per-burst series of the trace-driven figures; ``batch``
expands a JSON sweep document into scenarios and runs them through the
experiment runner (parallel workers, on-disk result cache, aggregated
report — see ``repro.experiments``).

Robustness flags of ``batch`` (see ``repro.experiments.resilience``)::

    python -m repro batch sweep.json --workers 4 --retries 2 \
                          --scenario-timeout 120
    python -m repro batch sweep.json --resume-journal

* ``--retries N`` — extra attempts per failing scenario (default 1).
  Worker crashes (SIGKILL, OOM) and timeouts are retried like
  exceptions; a retry that succeeds is bit-identical to a clean run.
  A ``ConfigError`` fails the same way every time and is not retried.
* ``--scenario-timeout SECONDS`` — per-scenario wall-clock budget:
  cooperative in-engine deadline, backed (parallel runs) by a
  watchdog that hard-kills wedged workers past the grace period.
* ``--quarantine / --no-quarantine`` — park specs that exhaust their
  attempts as ``quarantined`` failure records (default) or plain
  ``failed`` ones; either way the sweep finishes, prints every
  surviving result and exits 1 if anything failed.
* ``--resume-journal`` — resume the sweep's append-only outcome
  journal (written next to the cache on every journaled run) after a
  process-level crash: specs recorded ``done`` are served from the
  cache, ``quarantined`` ones stay parked, everything else re-runs.
  Needs the cache (incompatible with ``--no-cache``).
* ``--memory-limit MB`` — per-worker address-space ceiling; overruns
  fail the attempt instead of stalling the host.

Telemetry flags of ``run`` (see ``repro.telemetry``):

* ``--windows N`` collects the boundary-differenced window series
  (window length N cycles) and prints it in the report;
  ``--windows-out FILE`` additionally writes it as JSON.
* ``--trace FILE`` streams every flit event (inject/hop/eject plus
  fault aborts) as JSON lines; ``--trace-perfetto FILE`` exports the
  same events as a Chrome/Perfetto ``trace_event`` file.
* ``--progress`` prints live run progress (cycles/sec, packets in
  flight, budget fraction) to stderr; on ``batch`` it prints the
  per-scenario retirement lines with wall-clock seconds.
* ``--profile-out FILE`` dumps the raw cProfile stats of a profiled
  run for ``pstats``/snakeviz (implies ``--profile``).

Checkpoint flags of ``run`` (see ``repro.checkpoint``)::

    python -m repro run --packets 5000 --checkpoint-out cp.json
    python -m repro run --packets 5000 --checkpoint-out cp.json \
                        --checkpoint-every 10000
    python -m repro run --packets 5000 --resume cp.json

* ``--checkpoint-out FILE`` snapshots the complete emulation state
  (versioned, content-hashed JSON) when the run stops; with
  ``--checkpoint-every N`` the file is atomically rewritten every N
  emulated cycles, so a crashed or killed long run resumes from the
  last boundary instead of cycle 0.
* ``--resume FILE`` restores a checkpoint and continues it —
  bit-identically to the uninterrupted run, except that the
  stagnation guard's clock restarts at the cut (checkpoint schema 1
  does not record it), so a stalled run degrades up to one
  stagnation window later.  The scenario flags must
  describe the *same* spec (guarded by a content-hash check), and the
  checkpoint's own fault schedule and telemetry are restored with it,
  so ``--fail-*``/``--heal-*``/``--windows`` are rejected.

Static analysis (see ``repro.analysis``)::

    python -m repro lint
    python -m repro lint src/repro --format json
    python -m repro lint --rule settle-on-read --rule wall-clock
    python -m repro lint --list-rules

``lint`` runs the determinism/invariant checker over Python sources
and exits 1 if any unsuppressed finding remains (2 on usage errors,
e.g. an unknown rule id).  Flags:

* ``PATHS`` — files and/or directories to check; defaults to the
  installed ``repro`` package, so a bare ``repro lint`` checks the
  whole reproduction source.
* ``--format {text,json}`` — human-readable lines (default) or the
  versioned machine-readable report
  (``repro.analysis.reporters.LINT_REPORT_SCHEMA``).
* ``--rule ID`` — run only the named rule (repeatable); see
  ``--list-rules`` for the catalogue.
* ``--baseline FILE`` — accept the findings recorded in a checked-in
  baseline (stale entries are themselves reported).
* ``--list-rules`` — print every rule id with its description.
* ``--verbose`` — also print suppressed findings and what suppressed
  them (pragma reason or baseline).

Findings are suppressed in code with ``# repro: allow[rule-id]
reason`` on the offending line (or a comment-only line directly
above); see ``ROADMAP.md``'s "Static analysis" section for the rule
catalogue and the pragma/baseline policy.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from typing import List, Optional

from repro.core.config import PAPER_CASES, ROUTINGS, parse_routing
from repro.core.engine import build_engine, drive
from repro.core.errors import ConfigError, EmulationError
from repro.experiments.spec import ScenarioSpec



def _add_platform_options(parser: argparse.ArgumentParser) -> None:
    """The scenario flags; each takes its type, choices and default
    from its ScenarioSpec field's declaration, except ``--routing``,
    whose default ``overlap`` is the CLI's own."""
    declared = {f.name: f for f in fields(ScenarioSpec)}

    def option(flag: str, name: str, help: str) -> None:
        spec_field = declared[name]
        param = spec_field.metadata["param"]
        parser.add_argument(
            flag,
            type=param.kind,
            choices=param.choices or None,
            default=spec_field.default,
            help=f"{help} (default: {spec_field.default})",
        )

    option(
        "--topology",
        "topology",
        "platform topology: 'paper' (6-switch platform) or a factory"
        " spec like mesh:3:3, torus:4:4, ring:6, star:4, spidergon:8,"
        " tree:2:3, full:4",
    )
    option("--traffic", "traffic", "traffic model family")
    option("--load", "load", "offered load per generator")
    option("--length", "length", "packet length in flits")
    parser.add_argument(
        "--routing",
        default="overlap",
        metavar="{" + ",".join(ROUTINGS) + "}",
        help=(
            "paper route case (paper topology) or table routing for"
            " factory topologies (default: overlap; non-paper"
            " topologies fall back to a deadlock-free default)"
        ),
    )
    option("--depth", "buffer_depth", "switch buffer depth in flits")
    option("--receptors", "receptors", "receptor kind")
    option("--seed", "seed", "LFSR seed")


def _scenario_from(
    args: argparse.Namespace, max_packets: Optional[int]
):
    """The ScenarioSpec the platform options describe."""
    routing = args.routing
    family, arg = parse_routing(routing)
    if args.topology != "paper" and family == "paper":
        # The paper route cases only exist on the paper platform; any
        # other fabric takes its deadlock-free default instead.
        routing = "auto"
    if family == "multipath":
        routing = f"multipath:{arg}"
    return ScenarioSpec(
        topology=args.topology,
        routing=routing,
        buffer_depth=args.depth,
        traffic=args.traffic,
        load=args.load,
        length=args.length,
        packets=max_packets,
        receptors=args.receptors,
        seed=args.seed,
    )


def _parse_link_fault(value: str, flag: str):
    """``A:B@CYCLE`` → (a, b, cycle) for --fail-link / --heal-link."""
    try:
        pair, at = value.split("@")
        a, b = pair.split(":")
        return int(a), int(b), int(at)
    except ValueError:
        raise ConfigError(
            f"bad {flag} {value!r}: expected SWITCH:SWITCH@CYCLE"
        )


def _parse_switch_fault(value: str):
    """``S@CYCLE`` → (switch, cycle) for --fail-switch."""
    try:
        s, at = value.split("@")
        return int(s), int(at)
    except ValueError:
        raise ConfigError(
            f"bad --fail-switch {value!r}: expected SWITCH@CYCLE"
        )


def _fault_schedule_from(args: argparse.Namespace):
    """Build the FaultSchedule the run flags describe (None if none)."""
    from repro.faults import (
        FaultSchedule,
        link_down,
        link_up,
        switch_down,
    )

    events = []
    for value in args.fail_link or ():
        a, b, cycle = _parse_link_fault(value, "--fail-link")
        events.append(link_down(cycle, a, b))
    for value in args.heal_link or ():
        a, b, cycle = _parse_link_fault(value, "--heal-link")
        events.append(link_up(cycle, a, b))
    for value in args.fail_switch or ():
        s, cycle = _parse_switch_fault(value)
        events.append(switch_down(cycle, s))
    if not events:
        return None
    return FaultSchedule.of(*events, repair=not args.no_repair)


def _fault_summary(report) -> str:
    """Terse stdout degradation summary of a faulted run."""
    lines = [
        "--- faults ---",
        f"dropped: {report.dropped_flits} flit(s) /"
        f" {report.dropped_packets} packet(s)",
    ]
    for event in report.events:
        repair = ""
        if event.repaired:
            repair = (
                f", rerouted in {event.repair_wall_seconds * 1e3:.2f} ms"
            )
        recovery = (
            f", recovered after {event.recovery_cycles} cycle(s)"
            if event.recovery_cycles is not None
            else ""
        )
        lines.append(
            f"cycle {event.cycle}: {event.kind} {event.detail} —"
            f" dropped {event.dropped_flits} flit(s)"
            f"{repair}{recovery}"
        )
    for window in report.windows:
        lines.append(
            f"window {window.label!r} [{window.start},"
            f" {window.end}): {window.packets_received} packet(s),"
            f" {window.throughput:.4f} packets/cycle"
        )
    if report.degraded:
        lines.append(f"DEGRADED: {report.degraded_reason}")
    return "\n".join(lines)


def _profiled(fn, top: int, out: Optional[str] = None):
    """Run ``fn`` under cProfile; return (result, profile table).

    The ``--profile`` flag of ``repro run``: future performance PRs
    start from measured hot spots instead of guesses.  The caller
    prints the table after the run's own report.  ``out`` dumps the
    raw stats (``--profile-out``) for pstats or snakeviz, keeping the
    full call graph instead of just the printed top rows.
    """
    import cProfile
    import io
    import pstats

    profile = cProfile.Profile()
    profile.enable()
    try:
        result = fn()
    finally:
        profile.disable()
    if out is not None:
        profile.dump_stats(out)
    buffer = io.StringIO()
    stats = pstats.Stats(profile, stream=buffer)
    stats.sort_stats("cumulative")
    stats.print_stats(top)
    table = (
        f"\n--- profile: top {top} by cumulative time ---\n"
        f"{buffer.getvalue()}"
    )
    return result, table


def cmd_run(args: argparse.Namespace) -> int:
    from repro.core.monitor import Monitor

    do_profile = args.profile or args.profile_out is not None
    # Only a run that saves or restores a checkpoint can raise a
    # checkpoint error, so only such a run imports the package.
    reported = (ConfigError,)
    if args.resume or args.checkpoint_out:
        from repro.checkpoint.errors import CheckpointError

        reported = (ConfigError, CheckpointError)
    try:
        spec = _scenario_from(args, args.packets)
        faults = _fault_schedule_from(args)
        if args.windows_out and args.windows is None and not args.resume:
            raise ConfigError("--windows-out needs --windows N")
        if args.checkpoint_every is not None:
            if args.checkpoint_every < 1:
                raise ConfigError(
                    "--checkpoint-every needs a positive cycle count"
                )
            if not args.checkpoint_out:
                raise ConfigError(
                    "--checkpoint-every needs --checkpoint-out FILE"
                )
        if args.checkpoint_out and (
            args.trace or args.trace_perfetto
        ):
            raise ConfigError(
                "--checkpoint-out is incompatible with"
                " --trace/--trace-perfetto (detach the tracer, "
                "checkpoint, then re-attach a fresh one instead)"
            )
        if args.resume and (
            faults is not None or args.windows is not None
        ):
            raise ConfigError(
                "--resume restores the checkpoint's own fault"
                " schedule and telemetry; drop the --fail-*/--heal-*/"
                "--windows flags"
            )
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.resume:
            from repro.checkpoint import load_checkpoint, restore

            checkpoint = load_checkpoint(args.resume, spec=spec)
            platform, engine = restore(checkpoint)
            print(
                f"resumed {args.resume} at cycle {checkpoint.cycle}"
                f" (spec {spec.key})",
                file=sys.stderr,
            )
        else:
            platform, engine = build_engine(spec, faults, args.windows)
        progress = None
        if args.progress:
            from repro.telemetry import format_progress

            def progress(sample) -> None:
                print(format_progress(sample), file=sys.stderr)

        tracer = None
        trace_stream = None
        if args.trace or args.trace_perfetto:
            from repro.telemetry import FlitTracer

            if args.trace:
                trace_stream = open(args.trace, "w", encoding="utf-8")
            # The in-memory event list only matters for the Perfetto
            # export; a pure JSONL trace streams straight to disk.
            tracer = FlitTracer(
                stream=trace_stream, keep=bool(args.trace_perfetto)
            )
            platform.network.attach_tracer(tracer)

        def execute():
            return drive(
                engine,
                spec,
                checkpoint_out=args.checkpoint_out,
                every=args.checkpoint_every,
                progress=progress,
            )

        try:
            if do_profile:
                result, table = _profiled(
                    execute, args.profile_top, args.profile_out
                )
            else:
                result, table = execute(), None
        finally:
            if tracer is not None:
                platform.network.detach_tracer()
                tracer.close()
                if trace_stream is not None:
                    trace_stream.close()
        if args.trace_perfetto:
            tracer.write_perfetto(args.trace_perfetto)
    except reported as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except EmulationError as exc:
        # The run itself failed (a drain timeout, or no emission due
        # before the horizon): a one-line error, not a traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.checkpoint_out:
        print(f"wrote {args.checkpoint_out}", file=sys.stderr)
    print(Monitor(platform).final_report(result))
    if result.faults is not None:
        print(_fault_summary(result.faults))
    if args.windows_out:
        from repro.util import canonical_json

        with open(args.windows_out, "w", encoding="utf-8") as fh:
            fh.write(
                canonical_json(
                    [w.to_dict() for w in result.windows or ()]
                )
            )
            fh.write("\n")
        print(f"wrote {args.windows_out}", file=sys.stderr)
    if args.trace:
        print(f"wrote {args.trace}", file=sys.stderr)
    if args.trace_perfetto:
        print(f"wrote {args.trace_perfetto}", file=sys.stderr)
    if table is not None:
        print(table)
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    from repro.fpga.synthesis import synthesize

    try:
        config = _scenario_from(args, None).to_platform_config()
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = synthesize(config, auto_part=args.auto_part)
    print(report.render())
    return 0 if report.fits else 1


def cmd_speed(args: argparse.Namespace) -> int:
    from repro.baselines.speed import measure_engine_speeds, speed_report

    if args.packets < 1:
        print(
            f"error: --packets must be >= 1, got {args.packets}",
            file=sys.stderr,
        )
        return 2
    measurements = measure_engine_speeds(
        emulation_packets=args.packets,
        tlm_packets=max(10, args.packets // 5),
        rtl_packets=max(5, args.packets // 40),
    )
    print(speed_report(measurements).render())
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    from repro.experiments.runner import run_scenario

    try:
        points = [
            (ppb, ScenarioSpec(
                topology="paper",
                routing=args.routing,
                traffic="trace",
                packets=None,
                seed=args.seed,
                traffic_params={
                    "n_bursts": max(2, args.budget // ppb),
                    "packets_per_burst": ppb,
                },
            ))
            for ppb in (1, 2, 4, 8, 16, 32, 64)
        ]
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"packets/burst  {args.metric}")
    for ppb, spec in points:
        metrics = run_scenario(spec).metrics
        if args.metric == "latency":
            value = f"{metrics['mean_latency']:.1f}"
        else:
            value = f"{metrics['congestion_rate']:.4f}"
        print(f"{ppb:>13}  {value}")
    return 0


def cmd_batch(args: argparse.Namespace) -> int:
    from repro.experiments import (
        DEFAULT_CACHE_DIR,
        ResultCache,
        Sweep,
        SweepJournal,
        SweepRunner,
        aggregate,
        render_table,
        rows_from_results,
        to_csv,
        to_json,
    )
    from repro.experiments.report import DEFAULT_METRICS

    try:
        specs = Sweep.from_file(args.sweep_file)
    except (OSError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    cache = None
    if not args.no_cache:
        cache = ResultCache(args.cache_dir or DEFAULT_CACHE_DIR)

    journal = None
    if cache is not None:
        journal = SweepJournal.for_sweep(cache.root, specs)
    elif args.resume_journal:
        print(
            "error: --resume-journal needs the cache (drop"
            " --no-cache); the journal lives next to it and resumes"
            " finished specs from it",
            file=sys.stderr,
        )
        return 2

    def progress(done: int, total: int, result) -> None:
        if getattr(result, "failed", False):
            tag = result.status
        elif result.cached:
            tag = "cached"
        else:
            tag = "ran"
        print(
            f"[{done}/{total}] {tag:>11}  {result.spec.label()}"
            f"  ({result.wall_seconds:.2f}s)",
            file=sys.stderr,
        )

    try:
        runner = SweepRunner(
            workers=args.workers,
            cache=cache,
            progress=(
                progress if args.verbose or args.progress else None
            ),
            retries=args.retries,
            timeout=args.scenario_timeout,
            memory_limit_mb=args.memory_limit,
            quarantine=args.quarantine,
            journal=journal,
            resume=args.resume_journal,
        )
        results = runner.run(specs)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    stats = runner.last_stats

    metrics = (
        [m.strip() for m in args.metrics.split(",") if m.strip()]
        if args.metrics
        else list(DEFAULT_METRICS)
    )
    rows = rows_from_results(results)
    # Column discovery scans every row: faulted and healthy scenarios
    # carry different spec/metric keys (faults, fault_* counters).
    row_fields: List[str] = []
    for row in rows:
        for f in row:
            if f not in row_fields:
                row_fields.append(f)
    spec_keys = set()
    for result in results:
        spec_keys.update(result.spec.to_dict())
    spec_fields = [
        f
        for f in row_fields
        if f in spec_keys or f.startswith("traffic_params.")
    ]
    varying = [
        f
        for f in spec_fields
        if len({repr(r.get(f)) for r in rows}) > 1
    ]
    columns = (
        ["key"]
        + varying
        + [m for m in metrics if any(m in r for r in rows)]
    )
    print(render_table(rows, columns=columns))

    if args.group_by:
        by = [f.strip() for f in args.group_by.split(",") if f.strip()]
        try:
            agg = aggregate(results, by=by, metrics=metrics)
        except ConfigError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print()
        print(render_table(agg))

    if args.csv:
        to_csv(rows, args.csv)
        print(f"wrote {args.csv}", file=sys.stderr)
    if args.json:
        to_json(rows, args.json)
        print(f"wrote {args.json}", file=sys.stderr)

    if results.failures:
        print("\n--- failures ---", file=sys.stderr)
        seen = set()
        for failure in results.failures:
            if id(failure) in seen:  # duplicate spec, same record
                continue
            seen.add(id(failure))
            print(
                f"{failure.status}: {failure.spec.label()} —"
                f" {failure.error} after {failure.attempts}"
                f" attempt(s): {failure.message}",
                file=sys.stderr,
            )

    extras = ""
    if stats.failed:
        extras += (
            f", {stats.failed} failed"
            f" ({stats.quarantined} quarantined)"
        )
    if stats.retried:
        extras += f", {stats.retried} retried"
    if stats.parked:
        extras += f", {stats.parked} parked by journal"
    if stats.corrupt_cache:
        extras += f", {stats.corrupt_cache} corrupt cache entr(ies)"
    print(
        f"\n{stats.scenarios} scenario(s): {stats.executed} executed,"
        f" {stats.cached} cached{extras}, {stats.workers} worker(s),"
        f" {stats.wall_seconds:.2f}s"
        f" ({stats.scenarios_per_second:.1f} scenarios/s)",
        file=sys.stderr,
    )
    return 1 if results.failures else 0


def cmd_lint(args: argparse.Namespace) -> int:
    """The ``lint`` subcommand: run the static analyzer."""
    import os

    from repro.analysis import (
        ALL_RULES,
        render_json,
        render_text,
        run_lint,
    )

    if args.list_rules:
        for rule in ALL_RULES:
            print(f"{rule.id}: {rule.description}")
        return 0
    paths = args.paths or [os.path.dirname(os.path.abspath(__file__))]
    try:
        result = run_lint(
            paths,
            rule_ids=args.rule or None,
            baseline=args.baseline,
        )
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(render_json(result))
    else:
        print(render_text(result, verbose=args.verbose))
    return 0 if result.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "NoC emulation framework (Genko et al., DATE 2005"
            " reproduction)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser(
        "run", help="run one emulation and print its report"
    )
    _add_platform_options(run_parser)
    run_parser.add_argument(
        "--packets",
        type=int,
        default=2000,
        help="packet budget per generator (default: 2000)",
    )
    run_parser.add_argument(
        "--fail-link",
        action="append",
        metavar="A:B@CYCLE",
        help=(
            "inject a link failure: kill the A->B and B->A links at"
            " CYCLE (repeatable)"
        ),
    )
    run_parser.add_argument(
        "--heal-link",
        action="append",
        metavar="A:B@CYCLE",
        help="bring a previously failed link pair back up at CYCLE",
    )
    run_parser.add_argument(
        "--fail-switch",
        action="append",
        metavar="S@CYCLE",
        help="kill switch S (all its links and nodes) at CYCLE",
    )
    run_parser.add_argument(
        "--no-repair",
        action="store_true",
        help=(
            "disable online routing repair: faults degrade the run"
            " instead of rerouting around the failure"
        ),
    )
    run_parser.add_argument(
        "--profile",
        action="store_true",
        help=(
            "wrap the engine loop in cProfile and print the top"
            " cumulative hot spots after the report"
        ),
    )
    run_parser.add_argument(
        "--profile-top",
        type=int,
        default=20,
        metavar="N",
        help="rows of the profile table (default: 20)",
    )
    run_parser.add_argument(
        "--profile-out",
        default=None,
        metavar="FILE",
        help=(
            "dump the raw cProfile stats to FILE for pstats/snakeviz"
            " (implies --profile)"
        ),
    )
    run_parser.add_argument(
        "--progress",
        action="store_true",
        help=(
            "print live run progress to stderr (cycles/sec, packets"
            " in flight, budget fraction)"
        ),
    )
    run_parser.add_argument(
        "--windows",
        type=int,
        default=None,
        metavar="N",
        help=(
            "collect the windowed telemetry series with N-cycle"
            " windows and print it in the report"
        ),
    )
    run_parser.add_argument(
        "--windows-out",
        default=None,
        metavar="FILE",
        help="write the window series as JSON (needs --windows)",
    )
    run_parser.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help=(
            "stream per-flit events (inject/hop/eject/abort) to FILE"
            " as JSON lines"
        ),
    )
    run_parser.add_argument(
        "--trace-perfetto",
        default=None,
        metavar="FILE",
        help=(
            "export the flit trace as a Chrome/Perfetto trace_event"
            " JSON file (open in ui.perfetto.dev)"
        ),
    )
    run_parser.add_argument(
        "--checkpoint-out",
        default=None,
        metavar="FILE",
        help=(
            "write a complete-state checkpoint (versioned,"
            " content-hashed JSON) when the run stops; resumable"
            " with --resume"
        ),
    )
    run_parser.add_argument(
        "--checkpoint-every",
        type=int,
        default=None,
        metavar="CYCLES",
        help=(
            "with --checkpoint-out: atomically rewrite the"
            " checkpoint every CYCLES emulated cycles (crash-safe"
            " long runs)"
        ),
    )
    run_parser.add_argument(
        "--resume",
        default=None,
        metavar="FILE",
        help=(
            "restore the checkpoint and continue it bit-identically;"
            " the scenario flags must describe the same spec"
            " (content-hash checked)"
        ),
    )
    run_parser.set_defaults(func=cmd_run)

    synth_parser = sub.add_parser(
        "synth", help="print the FPGA utilisation report"
    )
    _add_platform_options(synth_parser)
    synth_parser.add_argument(
        "--auto-part",
        action="store_true",
        help="pick the smallest fitting Virtex-2 Pro part",
    )
    synth_parser.set_defaults(func=cmd_synth)

    speed_parser = sub.add_parser(
        "speed", help="measure the engines and print the speed table"
    )
    speed_parser.add_argument(
        "--packets",
        type=int,
        default=500,
        help="fast-engine packet budget per flow (default: 500)",
    )
    speed_parser.set_defaults(func=cmd_speed)

    sweep_parser = sub.add_parser(
        "sweep", help="packets-per-burst sweep (trace-driven figures)"
    )
    sweep_parser.add_argument(
        "--metric",
        default="latency",
        choices=("latency", "congestion"),
        help="series to print (default: latency)",
    )
    sweep_parser.add_argument(
        "--routing",
        default="overlap",
        choices=PAPER_CASES,
    )
    sweep_parser.add_argument("--budget", type=int, default=512)
    sweep_parser.add_argument("--seed", type=int, default=1)
    sweep_parser.set_defaults(func=cmd_sweep)

    batch_parser = sub.add_parser(
        "batch",
        help=(
            "run a JSON sweep document through the experiment runner"
            " (parallel workers, result cache, aggregation)"
        ),
    )
    batch_parser.add_argument(
        "sweep_file",
        help=(
            "JSON sweep document: {\"base\": {spec fields},"
            " \"grid\"|\"zip\": {axis: [values...]}}"
        ),
    )
    batch_parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes (default: 1 = serial)",
    )
    batch_parser.add_argument(
        "--cache-dir",
        default=None,
        help="result cache directory (default: .repro-cache)",
    )
    batch_parser.add_argument(
        "--no-cache",
        action="store_true",
        help="always execute; neither read nor write the cache",
    )
    batch_parser.add_argument(
        "--group-by",
        default=None,
        help="comma-separated spec fields to aggregate over",
    )
    batch_parser.add_argument(
        "--metrics",
        default=None,
        help="comma-separated metric columns (default: core set)",
    )
    batch_parser.add_argument(
        "--csv", default=None, help="write per-scenario rows as CSV"
    )
    batch_parser.add_argument(
        "--json", default=None, help="write per-scenario rows as JSON"
    )
    batch_parser.add_argument(
        "--retries",
        type=int,
        default=1,
        metavar="N",
        help=(
            "extra attempts per failing scenario before it is parked"
            " (default: 1; crashes and timeouts count like"
            " exceptions)"
        ),
    )
    batch_parser.add_argument(
        "--scenario-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "per-scenario wall-clock budget: cooperative in-engine"
            " deadline plus, with workers, a watchdog hard-kill"
        ),
    )
    batch_parser.add_argument(
        "--quarantine",
        action=argparse.BooleanOptionalAction,
        default=True,
        help=(
            "park repeat offenders as 'quarantined' records (the"
            " default) instead of plain 'failed' ones; the sweep"
            " finishes either way"
        ),
    )
    batch_parser.add_argument(
        "--resume-journal",
        action="store_true",
        help=(
            "resume the sweep's outcome journal after a crash:"
            " re-run only specs not recorded done/quarantined"
            " (needs the cache)"
        ),
    )
    batch_parser.add_argument(
        "--memory-limit",
        type=int,
        default=None,
        metavar="MB",
        help=(
            "per-worker address-space ceiling; overruns fail the"
            " attempt instead of stalling the host"
        ),
    )
    batch_parser.add_argument(
        "--verbose",
        action="store_true",
        help="print per-scenario progress to stderr",
    )
    batch_parser.add_argument(
        "--progress",
        action="store_true",
        help=(
            "print per-scenario retirement lines with wall-clock"
            " seconds to stderr (same stream as --verbose)"
        ),
    )
    batch_parser.set_defaults(func=cmd_batch)

    lint_parser = sub.add_parser(
        "lint",
        help=(
            "statically check determinism and kernel conventions"
            " (see repro.analysis)"
        ),
    )
    lint_parser.add_argument(
        "paths",
        nargs="*",
        help=(
            "files/directories to check (default: the installed"
            " repro package)"
        ),
    )
    lint_parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (json is versioned and machine-readable)",
    )
    lint_parser.add_argument(
        "--rule",
        action="append",
        metavar="ID",
        help="run only this rule (repeatable; see --list-rules)",
    )
    lint_parser.add_argument(
        "--baseline",
        default=None,
        metavar="FILE",
        help="accept findings recorded in this baseline file",
    )
    lint_parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    lint_parser.add_argument(
        "--verbose",
        action="store_true",
        help="also print suppressed findings and why",
    )
    lint_parser.set_defaults(func=cmd_lint)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - module execution path
    raise SystemExit(main())
