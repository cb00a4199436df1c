"""Smoke tests for the profiling harness and the ``repro profile`` CLI."""

import json

import pytest

from repro.cli import main
from repro.experiments.common import quick_config
from repro.perf.cprofile import profile_windows


class TestProfileWindows:
    @pytest.fixture(scope="class")
    def report(self):
        return profile_windows(quick_config(), windows=4, top_n=12)

    def test_names_the_hot_kernel(self, report):
        names = report.function_names()
        assert "run_until" in names
        assert "execute_window" in names

    def test_entries_sorted_by_inclusive_time(self, report):
        cums = [e.cumtime for e in report.entries]
        assert cums == sorted(cums, reverse=True)

    def test_totals_populated(self, report):
        assert report.windows == 4
        assert report.total_seconds > 0
        assert report.total_calls > 0
        assert len(report.entries) <= 12

    def test_json_round_trip(self, report):
        payload = json.loads(report.to_json())
        assert payload["windows"] == 4
        assert payload["entries"]
        assert {"function", "file", "line", "ncalls", "tottime", "cumtime"} <= set(
            payload["entries"][0]
        )


class TestProfileCli:
    def test_smoke(self, capsys, tmp_path):
        out_path = tmp_path / "profile.json"
        code = main(
            [
                "profile",
                "--scale",
                "quick",
                "--windows",
                "4",
                "--top",
                "10",
                "--json",
                str(out_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Profile: 4 windows" in out
        payload = json.loads(out_path.read_text())
        functions = [e["function"] for e in payload["entries"]]
        assert "run_until" in functions
