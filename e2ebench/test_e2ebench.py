"""Tests of the end-to-end benchmark itself.

Run from the repository root::

    PYTHONPATH=src python -m pytest e2ebench -q

The smoke tests run every workload at the minimal ``smoke`` size in
fresh interpreters, exactly as the benchmark does.
"""

from __future__ import annotations

import gc
import json
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import call
import run
from tracer import EXACT_COUNTS, FORBIDDEN_OWNERS, LAYER_UNITS, PROBES, LayerTracer

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


@pytest.fixture(scope="module")
def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _smoke(workload, trace, tmp_path, seed=2007):
    work = tmp_path / f"{workload}-{trace}"
    work.mkdir()
    return run.measure(workload, seed, 0.0, trace, "smoke", work)


# ----------------------------------------------------------------------
# BENCHMARK.json agrees with what the harness emits
# ----------------------------------------------------------------------
class TestSpec:
    def test_workload_names(self, spec):
        names = [w["name"] for w in spec["workloads"]]
        assert names == ["characterize", "sweep_sim", "sweep_replay"]
        assert set(names) == set(run.WORKLOADS)

    def test_end_to_end_metrics(self, spec):
        declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        assert declared == run.E2E_UNITS
        assert all(m["bound"] <= 0.25 for m in spec["end_to_end"])
        setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
        assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])

    def test_per_layer_metrics(self, spec):
        declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
        assert declared == {**LAYER_UNITS, **run.TRACE_UNITS}

    def test_name_grammar(self, spec):
        names = [w["name"] for w in spec["workloads"]]
        names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        assert len(names) == len(set(names))
        for name in names:
            assert NAME.match(name), name

    def test_command_stays_inside_paths(self, spec):
        assert spec["command"] == ["python3", "e2ebench/run.py"]
        assert spec["paths"] == ["e2ebench"]


# ----------------------------------------------------------------------
# The tracer measures the same program
# ----------------------------------------------------------------------
def _stock_core():
    from repro.config import JvmConfig, MachineConfig, SamplingConfig
    from repro.cpu.core_model import CoreModel, StaticSchedule
    from repro.cpu.phases import PhaseDescriptor, kernel_profile
    from repro.cpu.regions import AddressSpace
    from repro.util.rng import RngFactory

    machine = MachineConfig()
    space = AddressSpace.build(machine, JvmConfig())
    descriptor = PhaseDescriptor(slices=((kernel_profile(random.Random(7), space), 1.0),))
    return CoreModel(
        machine, space, StaticSchedule(descriptor), SamplingConfig(window_cycles=6000), RngFactory(5)
    )


class TestTracer:
    def test_fused_kernel_still_taken(self):
        with LayerTracer():
            core = _stock_core()
            runner = core.slice_runner_cls(
                profile=core.schedule.descriptor_for(0).slices[0][0],
                space=core.space,
                memory=core.memory,
                translation=core.translation,
                branches=core.branches,
                accountant=core.accountant_cls(core.machine.latencies, random.Random(2)),
                counters=core._bank,
                rng=random.Random(3),
            )
            assert runner._can_fuse()

    def test_windows_bit_identical_and_counted(self):
        core = _stock_core()
        plain = [core.execute_window(w) for w in range(3)]
        with LayerTracer() as tracer:
            core = _stock_core()
            traced = [core.execute_window(w) for w in range(3)]
        assert [dict(s.counts) for s in traced] == [dict(s.counts) for s in plain]
        window = tracer.stats["cpu.window"]
        assert window.calls == 3
        assert 0.0 < window.self_s <= window.inclusive_s
        assert tracer.tallies["instructions"] == sum(s.instructions for s in plain)

    def test_rebinds_by_name_imports_and_restores(self):
        import repro.experiments.tab_utilization as tab
        import repro.workload.metrics as metrics
        from repro.core.characterization import HardwareSummary
        from repro.cpu.core_model import CoreModel

        original = metrics.evaluate_run
        original_window = CoreModel.__dict__["execute_window"]
        original_summary = HardwareSummary.__dict__["from_snapshots"]
        with LayerTracer():
            assert tab.evaluate_run is metrics.evaluate_run
            assert metrics.evaluate_run is not original
            assert metrics.evaluate_run.__wrapped__ is original
            assert CoreModel.__dict__["execute_window"] is not original_window
        assert metrics.evaluate_run is original
        assert tab.evaluate_run is original
        assert CoreModel.__dict__["execute_window"] is original_window
        assert HardwareSummary.__dict__["from_snapshots"] is original_summary

    def test_never_targets_kernel_classes(self):
        owners = {qualname.split(".")[0] for _, _, qualname in PROBES if "." in qualname}
        assert not owners & FORBIDDEN_OWNERS

    def test_exact_counts_are_layer_metrics(self):
        assert set(EXACT_COUNTS) <= set(LAYER_UNITS)


# ----------------------------------------------------------------------
# The reference work that rescales the end-to-end times
# ----------------------------------------------------------------------
class TestReference:
    def test_round_allocates_no_tracked_objects(self):
        work = call.ReferenceWork()
        work.round()
        before = gc.get_count()[0]
        work.round()
        assert gc.get_count()[0] == before

    def test_sampler_times_a_round_even_for_an_instant_call(self):
        with call.SpeedSampler(call.ReferenceWork()) as sampler:
            pass
        assert len(sampler.rounds) >= 1
        assert all(r > 0 for r in sampler.rounds)

    def test_rescaled_is_seconds_at_the_reference_speed(self):
        assert run.rescaled(2.0, run.REFERENCE_ROUND_S) == 2.0
        assert run.rescaled(2.0, 2 * run.REFERENCE_ROUND_S) == 1.0


# ----------------------------------------------------------------------
# Minimal-size smoke of each workload
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def smokes(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("smoke")
    return {
        (w, t): _smoke(w, t, tmp)
        for w in run.WORKLOADS
        for t in (False, True)
    }


class TestSmoke:
    @pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
    def test_untraced_result(self, smokes, spec, workload):
        out = smokes[(workload, False)]
        result, detail = out["result"], out["detail"]
        assert result["correct"], detail
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
        assert all(m["value"] > 0 for m in result["metrics"].values())
        assert len(detail["digest"]) == 1
        assert result["attempted"] >= 1

    @pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
    def test_traced_equals_untraced(self, smokes, spec, workload):
        traced = smokes[(workload, True)]
        plain = smokes[(workload, False)]
        assert traced["result"]["correct"], traced["detail"]
        assert set(traced["result"]["metrics"]) == {m["name"] for m in spec["per_layer"]}
        assert traced["detail"]["digest"] == plain["detail"]["digest"]
        metrics = traced["result"]["metrics"]
        for key, value in plain["detail"]["counts"].items():
            assert metrics[key]["value"] == value, key

    def test_replay_equals_sim(self, smokes):
        sim = smokes[("sweep_sim", False)]["detail"]
        replay = smokes[("sweep_replay", False)]["detail"]
        assert replay["digest"] == sim["digest"]
        assert replay["counts"]["workload.sut.runs"] == 0
        assert sim["counts"]["workload.sut.runs"] > 0

    def test_digest_stable_across_sets(self, smokes, tmp_path):
        again = _smoke("characterize", False, tmp_path)
        assert again["detail"]["digest"] == smokes[("characterize", False)]["detail"]["digest"]

    def test_layers_attribute_the_right_workloads(self, smokes):
        char = smokes[("characterize", True)]["result"]["metrics"]
        replay = smokes[("sweep_replay", True)]["result"]["metrics"]
        assert char["cpu.windows"]["value"] > 0
        assert char["hpm.group_campaigns"]["value"] > 0
        assert replay["workload.sut.runs"]["value"] == 0
        assert replay["runcache.hit_ratio"]["value"] == 1.0
        assert replay["runcache.bytes_read"]["value"] > 0


# ----------------------------------------------------------------------
# The command line
# ----------------------------------------------------------------------
def test_cli_prints_result_last(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "e2ebench" / "run.py"), "--workload", "characterize",
         "--seed", "11", "--seconds", "0", "--trace", "0", "--size", "smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True


def test_cli_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "e2ebench", tmp_path / "e2ebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "e2ebench/run.py", "--workload", "characterize", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
