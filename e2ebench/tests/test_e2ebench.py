"""Tests of the benchmark itself, on tiny inputs.

Run from the repository root::

    python -m pytest -q e2ebench/tests
"""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "e2ebench"
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import reachtune  # noqa: E402
from layers import PER_LAYER  # noqa: E402
from run import END_TO_END  # noqa: E402
from spans import Recorder, self_times  # noqa: E402
from worker import HostProbe, pass_time  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NAMES = sorted(WORKLOADS)


def bench(workload: str, seed: int, trace: int, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.1", "--trace", str(trace),
         "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stderr
    return {name: m["value"] for name, m in result["metrics"].items()}


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        w.name: w.why for w in WORKLOADS.values()}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER


@pytest.mark.parametrize("workload", NAMES)
def test_tiny_run_passes_its_checks_and_repeats(workload):
    first = result_of(bench(workload, 5, 0))
    second = result_of(bench(workload, 5, 0))
    assert set(first) == set(END_TO_END)
    assert all(v > 0 for v in first.values())
    for name in ("steps", "hull_width"):
        assert first[name] == second[name]
    # reports carry the run's wall time, so their length varies by a few bytes
    assert abs(first["output_mb"] - second["output_mb"]) < 1e-4


@pytest.mark.parametrize("workload", NAMES)
def test_tiny_traced_run(workload):
    first = result_of(bench(workload, 5, 1))
    assert set(first) == set(PER_LAYER)
    assert abs(first["trace.coverage"] - 1.0) <= 0.05
    assert first["tuner.candidates"] == result_of(bench(workload, 5, 1))["tuner.candidates"]
    if workload == "fixed-verify":
        assert first["sampling.check_containment_s"] > 0
        assert first["layer.tuner.self_s"] == 0 and first["tuner.candidates"] == 0
    else:
        assert first["tuner.candidates"] > 0
    if workload == "highdim":
        assert first["modelio.write_result_s"] == 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "e2ebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("stiff", 1, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_wrappers_reach_every_alias_and_come_off():
    original = reachtune.reach.build_step_sets
    recorder = Recorder()
    recorder.install()
    try:
        wrapped = reachtune.reach.build_step_sets
        assert wrapped is not original
        assert reachtune.tuner.build_step_sets is wrapped
        assert reachtune.modelio.build_step_sets is wrapped
        reachtune.run(reachtune.random_system(2, 0), 0.5)
    finally:
        recorder.uninstall()
    assert reachtune.tuner.build_step_sets is original
    spans = recorder.spans()
    own = self_times(spans)
    assert own.min() >= -1e-9
    # self times of nested spans add up to the CPU time of the outermost one
    roots = spans["parent"] < 0
    assert own.sum() == pytest.approx(
        float((spans["cpu_end"] - spans["cpu_start"])[roots].sum()))
    names = {recorder.names[i] for i in spans["name"]}
    assert {"tuner.run", "reach.build_step_sets", "zonotope.reduce_order"} <= names


def test_probe_records_passes_and_stops(tmp_path):
    probe = HostProbe(tmp_path / "probe.txt")
    passes = probe.stop()
    assert probe.proc.returncode == 0
    assert len(passes) >= 3 and all(end > start for start, end in passes)
    whole = pass_time(passes, passes[0][0], passes[-1][1])
    durations = [end - start for start, end in passes]
    assert whole == pytest.approx(statistics.fmean(durations))
    # an interval holding no pass is widened until it holds three
    assert pass_time(passes, passes[-1][1] + 1.0, passes[-1][1] + 1.0) > 0
