"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_all_commands_registered(self):
        parser = build_parser()
        actions = [
            a for a in parser._actions if hasattr(a, "choices") and a.choices
        ]
        commands = set(actions[0].choices)
        assert commands == {
            "characterize",
            "figure",
            "tables",
            "whatif",
            "scaling",
            "tuning",
            "cluster",
            "resilience",
            "warmup",
            "heap-sweep",
            "methodology",
            "objprof",
            "compare",
            "save-config",
            "reproduce-all",
            "profile",
            "bench",
            "perf-diff",
            "perf-gate",
            "conform",
            "trace",
            "cache",
        }

    def test_scale_flag_after_subcommand(self):
        parser = build_parser()
        args = parser.parse_args(["figure", "3", "--scale", "bench"])
        assert args.scale == "bench"
        assert args.number == 3

    def test_missing_command_errors(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    @pytest.mark.parametrize(
        "argv", [["characterize", "--jobs", "2"], ["figure", "10", "--jobs", "2"]]
    )
    def test_jobs_only_on_reproduce_all(self, argv, capsys):
        # One Figure 10 campaign: the shared core.  Only the sweep
        # takes --jobs.
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err

    def test_reproduce_all_flags(self):
        parser = build_parser()
        args = parser.parse_args(
            [
                "reproduce-all",
                "--jobs",
                "4",
                "--only",
                "fig02_throughput,fig03_gc",
                "--only",
                "tab_locking",
                "--stats-json",
                "stats.json",
            ]
        )
        assert args.jobs == 4
        assert args.only == ["fig02_throughput,fig03_gc", "tab_locking"]
        assert args.stats_json == "stats.json"

    def test_reproduce_all_defaults_serial(self):
        args = build_parser().parse_args(["reproduce-all"])
        assert args.jobs == 1
        assert args.only is None
        assert args.resume is None
        assert args.task_timeout is None
        assert args.no_timing is False

    def test_reproduce_all_crash_safety_flags(self):
        args = build_parser().parse_args(
            [
                "reproduce-all",
                "--resume",
                "sweep.jsonl",
                "--task-timeout",
                "120",
                "--no-timing",
            ]
        )
        assert args.resume == "sweep.jsonl"
        assert args.task_timeout == 120.0
        assert args.no_timing is True

    def test_cache_actions_parse(self):
        parser = build_parser()
        for action in ("verify", "gc", "stats"):
            args = parser.parse_args(["cache", action, "--dir", "/tmp/c"])
            assert args.action == action
            assert args.dir == "/tmp/c"
        with pytest.raises(SystemExit):
            parser.parse_args(["cache", "defrag"])


class TestExecution:
    def test_figure_command_runs(self, capsys):
        assert main(["figure", "3", "--scale", "quick"]) == 0
        out = capsys.readouterr().out
        assert "Garbage Collection" in out
        assert "[ok]" in out

    def test_unknown_figure_number(self, capsys):
        assert main(["figure", "99"]) == 2
        assert "no figure 99" in capsys.readouterr().out

    def test_compare_command_runs(self, capsys):
        assert main(["compare", "--scale", "quick"]) == 0
        assert "Simple Java Benchmarks" in capsys.readouterr().out

    def test_objprof_flags_parse(self):
        parser = build_parser()
        args = parser.parse_args(
            ["objprof", "--scale", "quick", "--windows", "8",
             "--top", "3", "--no-validate"]
        )
        assert (args.windows, args.top, args.no_validate) == (8, 3, True)

    def test_objprof_command_runs(self, capsys, tmp_path):
        import json

        out_path = tmp_path / "sites.json"
        code = main(
            ["objprof", "--scale", "quick", "--windows", "8",
             "--no-validate", "--json", str(out_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Object-Centric Heap Profile" in out
        assert "[ext]" in out
        doc = json.loads(out_path.read_text())
        assert doc["ranking"]
        assert doc["reconciliation"] == {
            "fresh": True, "dark": True, "live": True
        }

    def test_reproduce_all_unknown_only_fails_fast(self, capsys):
        # A typo must not render as a clean empty sweep.
        assert main(["reproduce-all", "--scale", "quick", "--only", "fig99_nope"]) == 2
        out = capsys.readouterr().out
        assert "fig99_nope" in out
        assert "valid names" in out

    def test_reproduce_all_subset_with_stats(self, capsys, tmp_path):
        import json

        stats_path = tmp_path / "stats.json"
        code = main(
            [
                "reproduce-all",
                "--scale",
                "quick",
                "--only",
                "fig03_gc",
                "--stats-json",
                str(stats_path),
            ]
        )
        assert code == 0
        stats = json.loads(stats_path.read_text())
        assert set(stats["per_experiment"]) == {"fig03_gc"}
        assert {"wall_clock_s", "jobs", "cache_hits", "cache_misses"} <= set(stats)

    def test_cache_requires_directory(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_RUN_CACHE_DIR", raising=False)
        assert main(["cache", "verify"]) == 2
        assert "REPRO_RUN_CACHE_DIR" in capsys.readouterr().out

    def test_cache_verify_gc_cycle(self, capsys, tmp_path, monkeypatch):
        from repro.runcache import RunCache
        from repro.workload.presets import jas2004

        cache_dir = tmp_path / "cache"
        RunCache(disk_dir=cache_dir).get_or_run(jas2004(duration_s=120.0, seed=5))
        monkeypatch.setenv("REPRO_RUN_CACHE_DIR", str(cache_dir))

        assert main(["cache", "verify"]) == 0
        assert "CLEAN" in capsys.readouterr().out

        victim = sorted(cache_dir.glob("*.pkl"))[0]
        victim.write_bytes(b"rotten")
        assert main(["cache", "verify"]) == 1
        assert "DIRTY" in capsys.readouterr().out

        assert main(["cache", "stats"]) == 0
        assert "quarantined: 1" in capsys.readouterr().out

        assert main(["cache", "gc"]) == 0
        assert "removed 1 quarantined" in capsys.readouterr().out
        assert main(["cache", "verify"]) == 0
        assert "CLEAN" in capsys.readouterr().out

    def test_save_and_reuse_config(self, capsys, tmp_path):
        path = tmp_path / "manifest.json"
        assert main(["save-config", str(path), "--seed", "123"]) == 0
        assert path.exists()
        # The manifest drives another command.
        assert main(["figure", "3", "--config", str(path)]) == 0
        assert "Garbage Collection" in capsys.readouterr().out
