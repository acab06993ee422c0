"""Self-test of the benchmark at tiny levels.

    python3 -m pytest perfbench/test_bench.py -q

Checks that every metric named in BENCHMARK.json is emitted with its
unit, that counts repeat between traced runs, that a wrong result fails
the correctness check and raises fail_frac, and that the benchmark refuses
to run without the package sources.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import bench  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = "4,8"


def run(*extra, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--seconds", "1",
         "--levels", TINY, *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def assert_metrics(result, declared):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {m: v["unit"] for m, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    for value in result["metrics"].values():
        assert isinstance(value["value"], (int, float))


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_end_to_end_metrics_emitted_and_correct(workload):
    detail, result = result_of(run("--workload", workload, "--seed", "3",
                                   "--trace", "0"))
    assert_metrics(result, SPEC["end_to_end"])
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 2 * detail["env"]["repeat_count"] >= 6
    assert detail["fail_frac"] == 0.0
    assert detail["yardstick_s"]["count"] == result["attempted"]
    assert detail["wall_rel"] == pytest.approx(
        sum(detail["level_wall_rel"].values()))
    assert detail["seed"] == 3
    assert (detail["seed_note"] is None) == WORKLOADS[workload].seeded
    for key in ("nproc", "blas_threads_set", "python", "numpy", "scipy",
                "repeat_count", "commit"):
        assert key in detail["env"]


def test_per_layer_metrics_emitted_and_counts_repeat():
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]
    seen = []
    for _ in range(2):
        detail, result = result_of(run("--workload", "study-brick-k3",
                                       "--seed", "5", "--trace", "1"))
        assert_metrics(result, SPEC["per_layer"])
        assert result["correct"]
        assert (ROOT / detail["trace_file"]).is_file()
        seen.append({m: result["metrics"][m]["value"] for m in counts})
    assert seen[0] == seen[1]
    assert seen[0]["mesh.cells"] == 10 + 36


def test_unrecorded_seed_is_checked_by_order_bands():
    seed = max(bench.RECORDED_SEEDS) + 1000
    _, result = result_of(run("--workload", "study-brick-k3", "--seed",
                              str(seed)))
    assert result["correct"] and result["failed"] == 0


def test_perturbed_reference_fails_and_raises_fail_frac():
    reference = bench.load_reference()
    reference["solve-quad-k4-cg"]["any"]["8"]["h2_energy"] *= 1.01
    b = bench.Bench(WORKLOADS["solve-quad-k4-cg"], 0, (4, 8), reference,
                    bench.Tracer("test", False))
    passes = [b.run_pass(full_check=not i)[1] for i in range(3)]
    failed = [lv for levels in passes for lv in levels if lv["failures"]]
    assert [lv["n"] for lv in failed] == [8, 8, 8]
    assert len(failed) / (2 * len(passes)) == pytest.approx(0.5)
    assert "h2_energy" in failed[0]["failures"][0]


def test_dropped_boundary_datum_fails_the_order_bands():
    workload = WORKLOADS["study-brick-k3"]
    reference = bench.load_reference()
    b = bench.Bench(workload, 1000, (4, 8), reference,
                    bench.Tracer("test", False))
    b.problem = dataclasses.replace(
        b.problem, normal_flux=lambda x, y, nx, ny: 0.0 * x)
    _, levels = b.run_pass(full_check=True)
    assert all(level["failures"] for level in levels)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run("--workload", "study-brick-k3", "--seed", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
