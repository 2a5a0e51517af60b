"""Unit tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_analyze_args(self):
        args = build_parser().parse_args(
            ["analyze", "dr5", "mult", "--csm", "clustered2",
             "--strategy", "bfs"])
        assert args.design == "dr5"
        assert args.csm == "clustered2"
        assert args.strategy == "bfs"

    def test_run_is_an_alias_of_analyze(self):
        args = build_parser().parse_args(
            ["run", "dr5", "mult", "--engine", "event",
             "--strategy", "bfs", "--trace", "out.jsonl",
             "--progress"])
        assert args.engine == "event"
        assert args.strategy == "bfs"
        assert args.trace == "out.jsonl"
        assert args.progress

    def test_strategy_rejects_csm_names(self):
        # the CSM knob moved to --csm; --strategy is the frontier now
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["analyze", "dr5", "mult", "--strategy", "clustered2"])

    def test_rejects_unknown_design(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["analyze", "z80", "mult"])

    def test_rejects_unknown_benchmark(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["analyze", "dr5", "quicksort"])

    def test_verify_args(self):
        args = build_parser().parse_args(
            ["verify", "dr5", "mult", "--mode", "both", "--unroll", "3",
             "--max-conflicts", "5000", "--csm-states"])
        assert args.mode == "both"
        assert args.unroll == 3
        assert args.max_conflicts == 5000
        assert args.csm_states

    def test_verify_mode_defaults_to_sat(self):
        args = build_parser().parse_args(["verify", "dr5", "mult"])
        assert args.mode == "sat"
        assert args.unroll == 1

    def test_verify_rejects_unknown_mode(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["verify", "dr5", "mult", "--mode", "smt"])

    def test_analyze_resilience_args(self):
        args = build_parser().parse_args(
            ["analyze", "dr5", "mult", "--checkpoint", "run.ckpt",
             "--resume"])
        assert args.checkpoint == "run.ckpt"
        assert args.resume

    @pytest.mark.parametrize("flag", [["--engine", "parallel"],
                                      ["--workers", "2"],
                                      ["--quarantine-after", "2"]])
    def test_worker_pool_options_are_gone(self, flag):
        # the spawn-pool engine and its options were removed; only
        # `repro serve --workers` keeps process-level parallelism
        for command in ("run", "analyze", "submit"):
            with pytest.raises(SystemExit) as exc:
                build_parser().parse_args([command, "dr5", "mult"] + flag)
            assert exc.value.code == 2
        args = build_parser().parse_args(["serve", "--workers", "3"])
        assert args.workers == 3

    @pytest.mark.parametrize("argv", [
        ["serve", "--shard-segments", "10"],
        ["serve", "--quota-jobs", "2"],
        ["serve", "--max-retries", "0"],
        ["submit", "dr5", "mult", "--shard-segments", "10"]])
    def test_service_tuning_options_are_gone(self, argv, capsys):
        # jobs run unsharded, unmetered, with one fixed retry
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
        assert argv[-2] in capsys.readouterr().err

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_serve_rejects_workers_below_one(self, workers, capsys):
        # no worker slot would ever open: jobs would queue forever
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["serve", "--workers", workers])
        assert exc.value.code == 2
        assert "--workers" in capsys.readouterr().err

    def test_resume_requires_checkpoint(self):
        with pytest.raises(SystemExit):
            main(["analyze", "dr5", "mult", "--resume"])

    def test_grid_cache_option_is_gone(self, capsys):
        # the reporting grid keeps no results between processes
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["grid", "--cache", "X"])
        assert exc.value.code == 2
        assert "--cache" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "analyze"])
    def test_run_cache_option_is_gone(self, command, capsys):
        # every run simulates its own segments: no segment cache
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([command, "dr5", "mult",
                                       "--cache", "X"])
        assert exc.value.code == 2
        assert "--cache" in capsys.readouterr().err

    def test_lanes_option_is_gone(self, capsys):
        # the batch engine is always one 64-lane word
        for command in ("run", "analyze", "submit"):
            with pytest.raises(SystemExit) as exc:
                main([command, "dr5", "mult", "--engine", "batch",
                      "--lanes", "128"])
            assert exc.value.code == 2
            assert "--lanes" in capsys.readouterr().err


class TestCommands:
    def test_analyze_json(self, capsys):
        rc = main(["analyze", "dr5", "mult", "--json"])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert data["design"] == "dr5"
        assert data["paths_created"] > 1

    def test_analyze_plain(self, capsys):
        rc = main(["analyze", "omsp430", "mult"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "exercisable_gates" in out

    def test_bespoke_writes_verilog(self, tmp_path, capsys):
        out_v = tmp_path / "bespoke.v"
        rc = main(["bespoke", "dr5", "mult", "-o", str(out_v)])
        assert rc == 0
        text = out_v.read_text()
        assert text.startswith("module")
        assert "PASS" in capsys.readouterr().out

    def test_asm_lists_words(self, tmp_path, capsys):
        src = tmp_path / "p.s"
        src.write_text("movi r1, 7\n_halt: jmp _halt\n")
        rc = main(["asm", "omsp430", str(src)])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("0000:")
        assert len(out.strip().splitlines()) == 2

    def test_disasm_lists_instructions(self, tmp_path, capsys):
        src = tmp_path / "p.s"
        src.write_text("start: movi r1, 7\n_halt: jmp _halt\n")
        rc = main(["disasm", "omsp430", str(src)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "start:" in out
        assert "movi r1, 7" in out

    def test_verify_sat_json(self, tmp_path, capsys):
        report = tmp_path / "equiv.json"
        rc = main(["verify", "dr5", "mult", "--json",
                   "--report", str(report)])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert data["equiv_status"] == "UNSAT"
        assert data["ok"] is True
        assert data["equiv"]["compare_points"] > 0
        saved = json.loads(report.read_text())
        assert saved["equiv_status"] == "UNSAT"

    def test_verify_both_prints_table_and_breakdown(self, capsys):
        rc = main(["verify", "dr5", "mult", "--mode", "both"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "UNSAT" in out
        assert "simulation spot-check: PASS" in out
        assert "pruned gates by cell kind" in out
        assert "verdict: PASS" in out

    def test_trace_writes_vcd(self, tmp_path, capsys):
        out_vcd = tmp_path / "w.vcd"
        rc = main(["trace", "omsp430", "mult", "-o", str(out_vcd)])
        assert rc == 0
        assert "$enddefinitions" in out_vcd.read_text()

    def test_power_reports_savings(self, capsys):
        rc = main(["power", "dr5", "tea8"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "peak switching bound" in out
        assert "energy saving" in out

    def test_grid_prints_tables_and_writes_nothing(self, tmp_path,
                                                   monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        rc = main(["grid", "--quiet"])
        assert rc == 0
        rows = [[cell.strip() for cell in line.split("|")[1:-1]]
                for line in capsys.readouterr().out.splitlines()
                if line.startswith("| Div ")]
        table3_div, table4_div = rows
        # bm32/Div: exercisable gates; paths created, skipped, cycles
        assert table3_div[1] == "2638"
        assert table4_div[1:4] == ["67", "1", "302"]
        assert list(tmp_path.iterdir()) == []       # no store left behind

    @pytest.mark.parametrize("engine", ["serial", "event", "batch"])
    def test_run_with_trace_writes_jsonl(self, engine, tmp_path, capsys):
        from repro.coanalysis.trace import aggregate_trace, read_trace
        out = tmp_path / "run.jsonl"
        rc = main(["run", "dr5", "mult", "--strategy", "bfs",
                   "--engine", engine, "--trace", str(out), "--json"])
        assert rc == 0
        captured = capsys.readouterr()
        assert f"trace written to {out}" in captured.err
        summary = json.loads(captured.out)
        events = read_trace(out)
        assert events[0].kind == "run_start"
        assert events[-1].kind == "run_end"
        metrics = aggregate_trace(events)
        # the trace stream reconstructs the engine's own counters
        assert 1 + 2 * metrics.splits == summary["paths_created"]
        assert metrics.merges_covered == summary["paths_skipped"]
        assert metrics.simulated_cycles == summary["simulated_cycles"]
        assert metrics.summary() == summary["metrics"]

    def test_analyze_checkpoint_then_resume(self, tmp_path, capsys):
        ckpt = tmp_path / "run.ckpt"
        rc = main(["analyze", "dr5", "mult", "--checkpoint", str(ckpt)])
        assert rc == 0
        assert ckpt.exists()
        capsys.readouterr()
        rc = main(["analyze", "dr5", "mult", "--checkpoint", str(ckpt),
                   "--resume", "--json"])
        assert rc == 0
        captured = capsys.readouterr()
        assert "resumed from checkpoint" in captured.err
        assert json.loads(captured.out)["design"] == "dr5"


class TestErrorHandling:
    def test_coanalysis_error_exits_nonzero_one_line(self, monkeypatch,
                                                     capsys):
        from repro import cli
        from repro.coanalysis.results import CoAnalysisError

        def boom(*args, **kwargs):
            raise CoAnalysisError("path stack exceeded max_paths=7")

        monkeypatch.setattr(cli, "run_one", boom)
        rc = cli.main(["analyze", "dr5", "mult"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err == "error: path stack exceeded max_paths=7\n"
        assert captured.out == ""

    def test_keyboard_interrupt_hints_at_resume(self, monkeypatch, capsys):
        from repro import cli

        def interrupt(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "run_one", interrupt)
        rc = cli.main(["analyze", "dr5", "mult",
                       "--checkpoint", "run.ckpt"])
        assert rc == 130
        assert "--checkpoint run.ckpt --resume" in capsys.readouterr().err

    def test_timing_reports_slack(self, capsys):
        rc = main(["timing", "omsp430", "mult"])
        assert rc == 0
        assert "timing slack" in capsys.readouterr().out

    def test_coverage_json(self, capsys):
        rc = main(["coverage", "dr5", "mult", "--json"])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert data["program_words"] > 0


class TestStoreCommand:
    def test_parser_accepts_store_actions(self):
        for action in ("ls", "stats", "gc", "verify"):
            args = build_parser().parse_args(
                ["store", action, "--cache", "x", "--json"])
            assert args.action == action
            assert args.json

    def test_store_lifecycle(self, tmp_path, capsys):
        from repro.service import Scheduler
        cache = str(tmp_path / "store")
        with Scheduler(cache, workers=1) as sched:
            job = sched.submit({"design": "dr5", "benchmark": "mult"})
            assert sched.wait(job.job_id, timeout=300).state == "DONE"

        rc = main(["store", "stats", "--cache", cache, "--json"])
        assert rc == 0
        stats = json.loads(capsys.readouterr().out)
        # the result, the checkpoint and the trace, stored once each
        assert stats["objects"] == 3
        assert stats["manifest_kinds"] == {"job": 1, "jobresult": 1}

        rc = main(["store", "ls", "--cache", cache])
        assert rc == 0
        assert f"job-{job.job_id}" in capsys.readouterr().out

        rc = main(["store", "gc", "--cache", cache, "--json"])
        assert rc == 0
        gc = json.loads(capsys.readouterr().out)
        assert gc["removed"] == 0           # everything registered is live

        rc = main(["store", "verify", "--cache", cache, "--json"])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["ok"]

    def test_store_written_with_a_segment_cache_is_maintained(
            self, tmp_path, capsys):
        """Stores filled while runs had a segment cache hold
        ``segments-<fp>`` and ``run-<fp>`` manifests: ls lists them,
        gc keeps every blob they reference, and verify passes."""
        from repro.store import ContentStore
        cache = str(tmp_path / "store")
        store = ContentStore(cache)
        fp = "a" * 64
        segment = store.put_bytes(b"pickled segment record")
        checkpoint = store.put_bytes(b"checkpoint journal")
        trace = store.put_bytes(b'{"kind":"run_start"}\n')
        orphan = store.put_bytes(b"unreferenced")
        store.put_manifest(f"segments-{fp}", {
            "kind": "segments", "run": fp,
            "segments": {"b" * 64: segment}})
        store.put_manifest(f"run-{fp}", {
            "kind": "run", "fingerprint": fp,
            "components": {"design": "dr5", "application": "mult",
                           "netlist": "c" * 64},
            "summary": {"paths_created": 1},
            "segments_manifest": f"segments-{fp}",
            "artifacts": {"checkpoint": checkpoint, "trace": trace}})

        rc = main(["store", "ls", "--cache", cache, "--json"])
        assert rc == 0
        rows = {row["name"]: row
                for row in json.loads(capsys.readouterr().out)}
        assert rows[f"segments-{fp}"]["kind"] == "segments"
        assert rows[f"run-{fp}"]["kind"] == "run"
        assert rows[f"run-{fp}"]["design"] == "dr5"

        rc = main(["store", "gc", "--cache", cache, "--json"])
        assert rc == 0
        gc = json.loads(capsys.readouterr().out)
        assert (gc["kept"], gc["removed"]) == (3, 1)
        assert all(store.has(d) for d in (segment, checkpoint, trace))
        assert not store.has(orphan)

        rc = main(["store", "verify", "--cache", cache, "--json"])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["ok"]

    def test_store_verify_flags_corruption(self, tmp_path, capsys):
        from repro.store import ContentStore
        store = ContentStore(tmp_path / "s")
        digest = store.put_bytes(b"payload")
        store.object_path(digest).write_bytes(b"tampered")
        store.put_manifest("m", {"blob": digest})
        rc = main(["store", "verify", "--cache", str(tmp_path / "s")])
        assert rc == 1
        assert "!!" in capsys.readouterr().out
