"""Tiny-size smoke run of every workload, with its correctness checks on.

Run from the repository root with ``python3 -m pytest perfbench -q``.  It
takes seconds, so a broken workload, check or output format shows up before
a full benchmark run does.
"""

import dataclasses
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import workloads  # noqa: E402
from tracing import LAYER_UNITS, NullTracer  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _outputs(workload, seed: int = 7):
    rng = random.Random(seed)
    for slot in range(len(workload.slots)):
        for request in workload.build(slot, rng):
            yield request, request.call(NullTracer())


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_cycle_passes_its_checks(name):
    for request, out in _outputs(workloads.WORKLOADS[name]("tiny")):
        assert request.check(out) == [], request.slot


def test_grid_check_rejects_scalar_reports_of_other_points():
    workload = workloads.DesignSweep("tiny")

    class Shifted:
        def __init__(self, model):
            self.model = model

        def analyze(self, app, network, include_aoi):
            app = dataclasses.replace(app, frame_side_px=app.frame_side_px + 50.0)
            return self.model.analyze(app, network, include_aoi=include_aoi)

    workload.models = {device: Shifted(model) for device, model in workload.models.items()}
    for request, out in _outputs(workload):
        assert request.check(out), request.slot


def test_fleet_check_rejects_broken_accounting():
    workload = workloads.FleetPlan("tiny")
    for request, out in _outputs(workload):
        if request.slot.startswith("plan/"):
            continue
        assert request.check(dataclasses.replace(out, total_energy_mj=out.total_energy_mj * 1.01))
        assert request.check(dataclasses.replace(out, slo_violations=out.slo_violations + 1))


def test_single_user_check_rejects_a_diverging_runtime_report():
    workload = workloads.ClosedLoop("tiny")
    single = [s for s in range(len(workload.slots)) if workload.slots[s][0] == "single"][0]
    cosim, runtime = workload.build(single, random.Random(3))
    assert cosim.check(cosim.call(NullTracer())) == []
    reference = runtime.call(NullTracer())
    assert runtime.check(reference) == []
    assert runtime.check(dataclasses.replace(reference, switch_count=reference.switch_count + 1))


def _run(cwd: Path, trace: int) -> subprocess.CompletedProcess:
    command = [sys.executable, *BENCHMARK["command"][1:]]
    command += ["--workload", "closed_loop", "--seed", "11", "--seconds", "1"]
    command += ["--trace", str(trace), "--scale", "tiny"]
    return subprocess.run(command, cwd=str(cwd), capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace", [0, 1])
def test_run_prints_the_contract_result_line(trace):
    done = _run(ROOT, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer"] if trace else BENCHMARK["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    if trace:
        assert set(result["metrics"]) == set(LAYER_UNITS)


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    for path in BENCHMARK["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _run(tmp_path, 0)
    assert done.returncode != 0
    assert not done.stdout.strip()
