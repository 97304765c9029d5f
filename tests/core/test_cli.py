"""Unit tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.traffic == "uniform"
        assert args.packets == 2000
        assert args.routing == "overlap"

    def test_bad_choice_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--traffic", "psychic"])


class TestCommands:
    def test_run_prints_report(self, capsys):
        code = main(
            ["run", "--packets", "100", "--traffic", "uniform"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "emulation report" in out
        assert "traffic generators:" in out

    def test_run_burst_with_options(self, capsys):
        code = main(
            [
                "run",
                "--packets", "60",
                "--traffic", "burst",
                "--routing", "disjoint",
                "--depth", "8",
                "--seed", "3",
            ]
        )
        assert code == 0
        assert "received 240" in capsys.readouterr().out

    def test_run_profile_prints_hot_spots(self, capsys):
        code = main(["run", "--packets", "40", "--profile"])
        out = capsys.readouterr().out
        assert code == 0
        # The emulation report still prints, followed by the profile.
        assert "emulation report" in out
        assert "profile: top 20 by cumulative time" in out
        assert "cumtime" in out
        # The engine loop itself must show up as a hot spot.
        assert "engine" in out

    def test_run_profile_generic_topology(self, capsys):
        code = main(
            [
                "run",
                "--topology", "mesh:2:2",
                "--packets", "30",
                "--profile",
                "--profile-top", "5",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "profile: top 5 by cumulative time" in out
        assert "cumtime" in out

    @pytest.mark.parametrize(
        "chunking",
        [[], ["--checkpoint-out", "cp.json", "--checkpoint-every", "800"]],
        ids=["one-run", "checkpointed"],
    )
    def test_run_that_cannot_end_is_a_clean_error(
        self, tmp_path, monkeypatch, capsys, chunking
    ):
        # Load 1e-100: every generator's first emission lies past the
        # horizon, so the engine refuses to idle towards it.
        monkeypatch.chdir(tmp_path)
        code = main(
            [
                "run",
                "--topology", "mesh:2:2",
                "--traffic", "poisson",
                "--load", "1e-100",
                "--packets", "2",
                "--seed", "3",
            ]
            + chunking
        )
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: run cannot end")
        assert "horizon" in err
        assert "Traceback" not in err

    def test_synth_prints_table(self, capsys):
        code = main(["synth", "--receptors", "stochastic"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Number of slices" in out
        assert "XC2VP20" in out

    def test_synth_overflow_exit_code(self, capsys):
        # Deep buffers blow past the XC2VP20 -> non-zero exit.
        code = main(["synth", "--depth", "64"])
        out = capsys.readouterr().out
        assert code == 1
        assert "DOES NOT FIT" in out

    def test_synth_auto_part_recovers(self, capsys):
        code = main(["synth", "--depth", "64", "--auto-part"])
        assert code == 0

    @pytest.mark.parametrize(
        "flags, digest",
        [
            ([], "790de8621ae3b911"),
            (["--traffic", "burst", "--receptors", "stochastic",
              "--depth", "2", "--routing", "disjoint"], "df151ab952dad24b"),
            (["--traffic", "poisson", "--receptors", "stochastic",
              "--depth", "64"], "3c8ac65b1b11d9d1"),
            (["--traffic", "onoff", "--depth", "2", "--routing", "split"],
             "9ea0fbe887bdee11"),
            (["--traffic", "trace", "--receptors", "stochastic",
              "--depth", "64", "--routing", "split"], "6419351d307e48f1"),
        ],
        ids=["default", "burst-d2", "poisson-d64", "onoff-split",
             "trace-d64-split"],
    )
    def test_synth_paper_report_unchanged(self, capsys, flags, digest):
        """Paper reports built from the spec, pinned to the digests the
        paper-config builder printed."""
        import hashlib

        code = main(["synth", *flags])
        out = capsys.readouterr().out
        assert code == (1 if "64" in flags else 0)
        assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest

    @pytest.mark.parametrize(
        "flags", [["--depth", "0"], ["--length", "0"]], ids=" ".join
    )
    def test_synth_paper_malformed_flags_exit_2(self, capsys, flags):
        code = main(["synth", *flags])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error:")
        assert captured.out == ""

    @pytest.mark.parametrize("packets", ["0", "-3"])
    def test_speed_bad_budget_exit_2(self, capsys, packets):
        code = main(["speed", "--packets", packets])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: --packets must be >= 1")

    @pytest.mark.parametrize(
        "path, value",
        [
            (["links"], None),
            (["nis", 0, "credits"], None),
            (["cycle"], "x"),
        ],
        ids=["no-links", "ni-credits", "cycle-type"],
    )
    def test_resume_malformed_state_is_a_clean_error(
        self, tmp_path, capsys, path, value
    ):
        """A checkpoint with a valid hash but malformed state exits 2
        with ``error:``, never a traceback."""
        import json

        from repro.checkpoint import Checkpoint
        from repro.experiments.spec import ScenarioSpec

        cp = tmp_path / "cp.json"
        flags = ["run", "--packets", "50"]
        assert main(flags + ["--checkpoint-out", str(cp)]) == 0
        record = json.loads(cp.read_text())
        *parents, key = path
        node = record["state"]
        for part in parents:
            node = node[part]
        if value is None:
            del node[key]
        else:
            node[key] = value
        record["hash"] = Checkpoint(
            spec=ScenarioSpec.from_dict(record["spec"]),
            state=record["state"],
        ).content_hash
        cp.write_text(json.dumps(record))
        capsys.readouterr()
        code = main(flags + ["--resume", str(cp)])
        err = capsys.readouterr().err
        assert code == 2
        assert "error:" in err
        assert "Traceback" not in err


class TestCheckpointEvery:
    """``--checkpoint-every`` chunks the run without changing it."""

    def run(self, tmp_path, capsys, flags, every):
        import json

        cp = tmp_path / f"cp-{every}.json"
        chunking = [] if every is None else ["--checkpoint-every", every]
        code = main(
            ["run", "--topology", "mesh:4:4"] + flags
            + ["--checkpoint-out", str(cp)] + chunking
        )
        captured = capsys.readouterr()
        assert code == 0, captured.err
        return captured, json.loads(cp.read_text())["hash"]

    def test_chunking_leaves_windows_and_checkpoint_alone(
        self, tmp_path, capsys
    ):
        seen = set()
        for every in (None, "97", "250"):
            windows = tmp_path / f"w-{every}.json"
            _, digest = self.run(
                tmp_path, capsys,
                ["--load", "0.2", "--packets", "50", "--windows", "500",
                 "--windows-out", str(windows)],
                every,
            )
            seen.add((windows.read_text(), digest))
        assert len(seen) == 1

    def test_checkpointed_degraded_run_matches(self, tmp_path, capsys):
        flags = [
            "--load", "0.1", "--packets", "50",
            "--fail-link", "5:6@300", "--no-repair",
        ]
        assert main(["run", "--topology", "mesh:4:4"] + flags) == 0
        want = capsys.readouterr().out
        captured, _ = self.run(tmp_path, capsys, flags, "250")
        assert "DEGRADED" in captured.out

        def emulated(out):
            # Everything but the wall-clock speed line.
            return [l for l in out.splitlines() if "engine speed" not in l]

        assert emulated(captured.out) == emulated(want)

    def test_progress_reports_the_whole_run(self, tmp_path, capsys):
        captured, _ = self.run(
            tmp_path, capsys, ["--packets", "50", "--progress"], "250"
        )
        lines = [
            l for l in captured.err.splitlines() if l.startswith("cycle")
        ]
        assert [l.endswith("done") for l in lines].count(True) == 1
        assert lines[-1].endswith("100%  done")
        assert not any("100%" in l for l in lines[:-1])

    @pytest.mark.parametrize(
        "flags",
        [
            ["--checkpoint-out", "cp.json", "--checkpoint-every", "0"],
            ["--checkpoint-every", "250"],
            ["--checkpoint-out", "cp.json", "--trace", "t.jsonl"],
        ],
        ids=["every-zero", "every-without-out", "out-with-trace"],
    )
    def test_bad_checkpoint_flags_exit_2(self, capsys, flags):
        code = main(["run", "--topology", "mesh:2:2"] + flags)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:")


class TestTopologyOptions:
    def test_run_generic_topology(self, capsys):
        code = main(
            [
                "run",
                "--topology", "mesh:2:2",
                "--traffic", "poisson",
                "--load", "0.1",
                "--packets", "20",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "emulation report" in out
        assert "mesh2x2" in out

    def test_run_cyclic_topology_deadlock_free(self, capsys):
        code = main(
            [
                "run",
                "--topology", "spidergon:8",
                "--load", "0.1",
                "--packets", "10",
            ]
        )
        assert code == 0
        assert "spidergon8" in capsys.readouterr().out

    def test_run_paper_default_unchanged(self):
        args = build_parser().parse_args(["run"])
        assert args.topology == "paper"
        assert args.routing == "overlap"

    def test_synth_generic_topology(self, capsys):
        code = main(["synth", "--topology", "ring:4"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Number of slices" in out

    def test_run_malformed_topology_clean_error(self, capsys):
        code = main(["run", "--topology", "mesh:bad", "--packets", "5"])
        captured = capsys.readouterr()
        assert code == 2
        assert "error:" in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize(
        "flags",
        [
            ["--load", "0"],
            ["--load", "1.5"],
            ["--length", "0"],
            ["--depth", "0"],
            ["--packets", "-5"],
            ["--packets", "0"],
        ],
        ids=" ".join,
    )
    def test_run_paper_path_malformed_flags_clean_error(
        self, flags, capsys
    ):
        """The default paper path validates through the scenario spec
        like every other topology."""
        code = main(["run", *flags])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error:")
        assert "Traceback" not in captured.err

    def test_synth_malformed_topology_clean_error(self, capsys):
        code = main(["synth", "--topology", "ring:0"])
        captured = capsys.readouterr()
        assert code == 2
        assert "error:" in captured.err


class TestBatchCommand:
    def make_sweep(self, tmp_path, payload=None):
        import json

        path = tmp_path / "sweep.json"
        path.write_text(
            json.dumps(
                payload
                or {
                    "base": {"traffic": "uniform", "packets": 30},
                    "grid": {"load": [0.15, 0.3], "buffer_depth": [2, 4]},
                }
            )
        )
        return str(path)

    def test_batch_wrong_typed_axis_value_exit_2(self, tmp_path, capsys):
        sweep = self.make_sweep(
            tmp_path,
            {"base": {"load": 0.3}, "grid": {"load": [0.1, "x"]}},
        )
        code = main(["batch", sweep, "--no-cache"])
        assert code == 2
        assert "load" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "base",
        [
            {"traffic_params": {"length": "x"}},
            {"traffic_params": {"length": 2.5}},
            {"traffic": "poisson", "traffic_params": {"rate": "fast"}},
        ],
    )
    def test_batch_wrong_typed_traffic_param_exit_2(
        self, tmp_path, capsys, base
    ):
        sweep = self.make_sweep(
            tmp_path,
            {"base": {"packets": 5, **base}, "grid": {"load": [0.1]}},
        )
        code = main(["batch", sweep, "--no-cache"])
        captured = capsys.readouterr()
        assert code == 2
        assert "traffic_params" in captured.err
        assert "executed" not in captured.err

    def test_batch_runs_grid(self, tmp_path, capsys):
        sweep = self.make_sweep(tmp_path)
        code = main(
            ["batch", sweep, "--cache-dir", str(tmp_path / "cache")]
        )
        captured = capsys.readouterr()
        assert code == 0
        # 4 scenario rows + header + rule.
        assert len(captured.out.strip().splitlines()) == 6
        assert "mean_latency" in captured.out
        assert "4 scenario(s): 4 executed, 0 cached" in captured.err

    def test_batch_second_run_cached(self, tmp_path, capsys):
        sweep = self.make_sweep(tmp_path)
        cache = str(tmp_path / "cache")
        main(["batch", sweep, "--cache-dir", cache])
        first = capsys.readouterr().out
        code = main(["batch", sweep, "--cache-dir", cache])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out == first  # cached rows render identically
        assert "0 executed, 4 cached" in captured.err

    def test_batch_no_cache(self, tmp_path, capsys, monkeypatch):
        # The default cache dir is relative to the working directory;
        # run from tmp_path so a --no-cache regression would be seen.
        monkeypatch.chdir(tmp_path)
        sweep = self.make_sweep(tmp_path)
        code = main(["batch", sweep, "--no-cache"])
        captured = capsys.readouterr()
        assert code == 0
        assert "4 executed" in captured.err
        assert not (tmp_path / ".repro-cache").exists()

    def test_batch_default_cache_dir(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        sweep = self.make_sweep(tmp_path)
        code = main(["batch", sweep])
        capsys.readouterr()
        assert code == 0
        assert len(list((tmp_path / ".repro-cache").glob("*.json"))) == 4

    def test_batch_group_by_and_exports(self, tmp_path, capsys):
        import csv
        import json

        sweep = self.make_sweep(tmp_path)
        csv_path = tmp_path / "rows.csv"
        json_path = tmp_path / "rows.json"
        code = main(
            [
                "batch", sweep,
                "--cache-dir", str(tmp_path / "cache"),
                "--group-by", "load",
                "--metrics", "cycles,mean_latency",
                "--csv", str(csv_path),
                "--json", str(json_path),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "cycles.mean" in out
        with open(csv_path, newline="") as fh:
            assert len(list(csv.DictReader(fh))) == 4
        assert len(json.loads(json_path.read_text())) == 4

    def test_batch_workers_match_serial(self, tmp_path, capsys):
        sweep = self.make_sweep(tmp_path)
        main(["batch", sweep, "--no-cache"])
        serial = capsys.readouterr().out
        code = main(["batch", sweep, "--no-cache", "--workers", "2"])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out == serial

    def test_batch_missing_file(self, tmp_path, capsys):
        code = main(["batch", str(tmp_path / "absent.json")])
        captured = capsys.readouterr()
        assert code == 2
        assert "error:" in captured.err

    def test_batch_bad_sweep_document(self, tmp_path, capsys):
        sweep = self.make_sweep(
            tmp_path, {"grid": {"warp": [1, 2]}}
        )
        code = main(["batch", sweep])
        captured = capsys.readouterr()
        assert code == 2
        assert "error:" in captured.err

    def test_batch_rejects_single_node_topology(self, tmp_path, capsys):
        sweep = self.make_sweep(tmp_path, {
            "base": {"load": 0.1, "packets": 5},
            "grid": {"topology": ["mesh:2:2", "mesh:4:4:0"]},
        })
        cache = tmp_path / "cache"
        code = main(["batch", sweep, "--cache-dir", str(cache)])
        captured = capsys.readouterr()
        assert code == 2
        assert "needs at least 2" in captured.err
        assert "executed" not in captured.err
        assert not cache.exists()

    def test_batch_bad_group_by(self, tmp_path, capsys):
        sweep = self.make_sweep(tmp_path)
        code = main(
            [
                "batch", sweep,
                "--no-cache",
                "--group-by", "flux_capacitor",
            ]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert "error:" in captured.err


class TestTelemetryFlags:
    def test_progress_prints_live_lines(self, capsys):
        code = main(["run", "--packets", "60", "--progress"])
        captured = capsys.readouterr()
        assert code == 0
        assert "emulation report" in captured.out
        lines = [
            l for l in captured.err.splitlines() if l.startswith("cycle")
        ]
        assert lines and lines[-1].endswith("done")

    def test_windows_flag_prints_series(self, capsys):
        code = main(["run", "--packets", "60", "--windows", "200"])
        out = capsys.readouterr().out
        assert code == 0
        assert "telemetry windows:" in out
        assert "in-flight" in out

    def test_windows_out_writes_json(self, tmp_path, capsys):
        import json

        path = tmp_path / "windows.json"
        code = main(
            [
                "run", "--packets", "60",
                "--windows", "200", "--windows-out", str(path),
            ]
        )
        assert code == 0
        series = json.loads(path.read_text())
        assert series and series[0]["index"] == 0
        assert all(w["end"] > w["start"] for w in series)

    def test_windows_out_requires_windows(self, capsys):
        code = main(
            ["run", "--packets", "60", "--windows-out", "w.json"]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert "--windows" in captured.err

    @pytest.mark.parametrize("topology", ["paper", "mesh:2:2"])
    def test_windows_zero_exit_2(self, tmp_path, capsys, topology):
        path = tmp_path / "w.json"
        code = main([
            "run", "--topology", topology, "--packets", "20",
            "--windows", "0", "--windows-out", str(path),
        ])
        captured = capsys.readouterr()
        assert code == 2
        assert "window_cycles must be >= 1" in captured.err
        assert not path.exists()

    def test_trace_writes_jsonl(self, tmp_path, capsys):
        import json

        path = tmp_path / "flits.jsonl"
        code = main(
            ["run", "--packets", "40", "--trace", str(path)]
        )
        assert code == 0
        lines = path.read_text().splitlines()
        assert lines
        kinds = {json.loads(l)["kind"] for l in lines}
        assert {"inject", "hop", "eject", "packet"} <= kinds

    def test_trace_perfetto_writes_trace_events(self, tmp_path, capsys):
        import json

        path = tmp_path / "trace.json"
        code = main(
            ["run", "--packets", "40", "--trace-perfetto", str(path)]
        )
        assert code == 0
        doc = json.loads(path.read_text())
        phases = {e["ph"] for e in doc["traceEvents"]}
        assert {"M", "X", "b", "e"} <= phases

    def test_profile_out_dumps_loadable_stats(self, tmp_path, capsys):
        import pstats

        path = tmp_path / "run.pstats"
        code = main(
            ["run", "--packets", "40", "--profile-out", str(path)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "profile: top 20" in out  # --profile implied
        stats = pstats.Stats(str(path))
        assert stats.total_calls > 0

    def test_profile_out_on_paper_flow_path(self, tmp_path, capsys):
        import pstats

        path = tmp_path / "paper.pstats"
        code = main(
            [
                "run", "--packets", "40", "--traffic", "burst",
                "--profile-out", str(path),
            ]
        )
        assert code == 0
        assert pstats.Stats(str(path)).total_calls > 0

    def test_telemetry_with_faults_and_saturation(self, tmp_path, capsys):
        """All flags at once on a faulted run: the flags compose."""
        import json

        wpath = tmp_path / "w.json"
        code = main(
            [
                "run", "--packets", "150", "--load", "0.9",
                "--fail-link", "1:4@300",
                "--windows", "250", "--windows-out", str(wpath),
                "--progress",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "faults:" in captured.out  # monitor section
        assert "--- faults ---" not in captured.out  # rendered once
        # The Monitor carries what the summary printed: drops, each
        # event with its repair wall time, and the windows.
        assert "  dropped         : " in captured.out
        assert "@300    link_down 1->4: dropped" in captured.out
        assert "rerouted, repair " in captured.out
        assert "  wire drops per link:" in captured.out
        assert "  throughput windows:" in captured.out
        series = json.loads(wpath.read_text())
        assert sum(w["fault_dropped_flits"] for w in series) > 0

    def test_batch_progress_prints_wall_seconds(self, tmp_path, capsys):
        import json

        path = tmp_path / "sweep.json"
        path.write_text(
            json.dumps(
                {
                    "base": {"traffic": "uniform", "packets": 30},
                    "grid": {"load": [0.15, 0.3], "buffer_depth": [2, 4]},
                }
            )
        )
        code = main(["batch", str(path), "--no-cache", "--progress"])
        captured = capsys.readouterr()
        assert code == 0
        # One line per retired scenario, counting up to the sweep size,
        # each ending in its wall-clock seconds.
        lines = [l for l in captured.err.splitlines() if l.startswith("[")]
        assert [l.split()[0] for l in lines] == [
            f"[{done}/4]" for done in range(1, 5)
        ]
        assert all(l.endswith("s)") for l in lines)
