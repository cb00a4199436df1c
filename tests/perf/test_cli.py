"""The observatory CLI surface: bench / perf-diff / perf-gate.

Each test drives ``repro.cli.main`` with an isolated history file, so
the commands are exercised exactly as CI uses them — including the
exit codes the gate contract promises.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main


#: The whole quick-tier suite, as `repro bench --quick` runs it in CI.
ALL_KERNELS = {
    "cache_kernel",
    "counter_kernel",
    "window_execution",
    "characterize_windows",
    "reproduce_all_fused",
    "sut_tick_loop",
    "run_analysis",
    "runcache_read",
}


def bench(history, *extra, kernels="counter_kernel,window_execution"):
    """Drive `repro bench`; plumbing tests use a fast kernel subset."""
    args = [
        "bench",
        "--quick",
        "--history",
        str(history),
        "--reps",
        "5",
    ]
    if kernels is not None:
        args += ["--kernels", kernels]
    return main([*args, *extra])


class TestBench:
    def test_records_trajectory_points(self, tmp_path, capsys):
        history = tmp_path / "hist.jsonl"
        assert bench(history) == 0
        assert bench(history) == 0
        out = capsys.readouterr().out
        assert "trajectory point 1" in out
        assert "trajectory point 2" in out
        assert len(history.read_text().splitlines()) == 2

    def test_no_record_leaves_history_alone(self, tmp_path, capsys):
        history = tmp_path / "hist.jsonl"
        assert bench(history, "--no-record") == 0
        assert not history.exists()
        assert "Kernel suite (best of 5)" in capsys.readouterr().out

    def test_standalone_envelope(self, tmp_path):
        history = tmp_path / "hist.jsonl"
        envelope = tmp_path / "BENCH_suite.json"
        assert bench(history, "--json", str(envelope), kernels=None) == 0
        doc = json.loads(envelope.read_text())
        assert doc["schema"] == 2
        assert doc["kind"] == "perf_suite"
        assert doc["repetitions"] == 5
        assert set(doc["spread"]) == ALL_KERNELS

    def test_unknown_kernel_selection_raises(self, tmp_path):
        with pytest.raises(ValueError, match="unknown kernels"):
            bench(tmp_path / "h.jsonl", kernels="nonesuch")

    def test_rep_floor_propagates(self, tmp_path):
        with pytest.raises(ValueError, match=">= 5"):
            bench(tmp_path / "h.jsonl", "--reps", "2")


class TestPerfGate:
    def test_empty_history_skips_and_passes(self, tmp_path, capsys):
        code = main(
            ["perf-gate", "--history", str(tmp_path / "missing.jsonl")]
        )
        assert code == 0
        assert "SKIPPED" in capsys.readouterr().out

    def test_honest_rerun_passes_with_json_report(self, tmp_path, capsys):
        history = tmp_path / "hist.jsonl"
        bench(history)
        bench(history)
        gate_json = tmp_path / "gate.json"
        code = main(
            [
                "perf-gate",
                "--history",
                str(history),
                "--json",
                str(gate_json),
            ]
        )
        assert code == 0
        assert "verdict: PASS" in capsys.readouterr().out
        doc = json.loads(gate_json.read_text())
        assert doc["passed"] is True
        assert {v["kernel"] for v in doc["verdicts"]} == {
            "counter_kernel",
            "window_execution",
        }

    def test_regressed_history_exits_one(self, tmp_path, capsys):
        """A synthetic 2x-regressed history: the gate must exit 1."""
        from repro.obs.manifest import host_fingerprint

        def line(reps):
            return json.dumps(
                {
                    "schema": 2,
                    "kind": "perf_suite",
                    "host": host_fingerprint(),
                    "git_describe": "synthetic",
                    "recorded_at": None,
                    "repetitions": 5,
                    "spread": {},
                    "k": {"reps_s": reps, "best_s": min(reps), "windows": 4},
                }
            )

        base = [0.100, 0.101, 0.102, 0.103, 0.104]
        history = tmp_path / "hist.jsonl"
        history.write_text(
            line(base) + "\n" + line([2 * t for t in base]) + "\n"
        )
        code = main(["perf-gate", "--history", str(history)])
        assert code == 1
        assert "verdict: FAIL" in capsys.readouterr().out


class TestPerfDiff:
    def test_needs_two_records(self, tmp_path, capsys):
        history = tmp_path / "hist.jsonl"
        assert main(["perf-diff", "--history", str(history)]) == 2
        bench(history)
        assert main(["perf-diff", "--history", str(history)]) == 2
        assert "need two" in capsys.readouterr().out

    def test_diffs_latest_pair_and_writes_report(self, tmp_path, capsys):
        history = tmp_path / "hist.jsonl"
        bench(history)
        bench(history)
        report = tmp_path / "diff.txt"
        code = main(
            [
                "perf-diff",
                "--history",
                str(history),
                "--output",
                str(report),
            ]
        )
        assert code == 0
        text = report.read_text()
        assert "Perf diff" in text
        assert "window_execution" in text
        assert "Perf diff" in capsys.readouterr().out

    def test_out_of_range_index(self, tmp_path, capsys):
        history = tmp_path / "hist.jsonl"
        bench(history)
        bench(history)
        code = main(
            ["perf-diff", "--history", str(history), "--a", "5", "--b", "1"]
        )
        assert code == 2
        assert "out of range" in capsys.readouterr().out
