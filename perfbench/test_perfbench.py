"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest -q perfbench

They show that every metric name is emitted, that a corrupted golden output
is caught as a failed call, that traced call counts repeat exactly, that a
call's reference-speed time comes from the calibration samples around it, and
that the benchmark refuses to run without the program.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from calibrate import REFERENCE_S, Calibration  # noqa: E402

ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]

OWN_METRICS = {
    "sweep_fp": {"primes_per_s", "primes_per_s_parallel", "sweep_ms_p50", "sweep_ms_p90"},
    "cli_qq": {"docs_per_s", "detect_ms_p50", "detect_ms_p90", "check_ms_p50", "check_ms_p90"},
    "identity_qq": {"pairs_per_s", "identity_ms_p50", "identity_ms_p90"},
}
COMMON = {"setup_s", "failed_ratio", "peak_rss_mb"}


def bench(*args, cwd=ROOT, run_py=HERE / "run.py"):
    proc = subprocess.run(
        [sys.executable, str(run_py), "--seconds", "1", "--size", "tiny", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return proc


def lines_of(proc):
    assert proc.returncode == 0, proc.stderr
    return [json.loads(line) for line in proc.stdout.strip().splitlines()]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_end_to_end_metric_is_emitted(workload):
    out = lines_of(bench("--workload", workload, "--seed", "3", "--trace", "0"))
    result = out[-1]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in BENCH["end_to_end"]}
    units = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    for name, m in result["metrics"].items():
        assert m["unit"] == units[name] and m["value"] > 0
    report = next(line for line in out if "report" in line)["report"]
    assert set(report) == OWN_METRICS[workload] | COMMON
    assert report["failed_ratio"]["value"] == 0
    assert any("env" in line for line in out)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_layers_and_repeats_counts(workload):
    counts = []
    for _ in range(2):
        result = lines_of(bench("--workload", workload, "--seed", "5", "--trace", "1"))[-1]
        assert result["correct"]
        assert set(result["metrics"]) == {m["name"] for m in BENCH["per_layer"]}
        counts.append((ROOT / ".perfbench_out" / f"calls_{workload}_seed5_tiny.json").read_text())
    fp_new = result["metrics"]["field.fp_new.calls"]["value"]
    assert fp_new > 0 if workload == "sweep_fp" else fp_new == 0
    assert result["metrics"]["trace.overhead"]["value"] > 0
    assert counts[0] == counts[1]


def corrupt(golden, workload):
    if workload == "cli_qq":
        for outs in golden["cli"].values():
            outs["detect"] = outs.get("detect", "") + " "
    else:
        for entry in golden["sweep"].values():
            entry["windows"] = {k: "0" * 16 for k in entry["windows"]}
    return golden


@pytest.mark.parametrize("workload", ["sweep_fp", "cli_qq"])
def test_corrupted_golden_raises_failed_ratio(workload, tmp_path):
    golden = corrupt(json.loads((HERE / "golden.json").read_text()), workload)
    path = tmp_path / "golden.json"
    path.write_text(json.dumps(golden))
    out = lines_of(bench("--workload", workload, "--seed", "3", "--trace", "0", "--golden", str(path)))
    result = out[-1]
    assert not result["correct"] and result["failed"] > 0
    report = next(line for line in out if "report" in line)["report"]
    assert report["failed_ratio"]["value"] > 0


def test_reference_time_uses_the_kernel_samples_around_the_call():
    cal = Calibration()
    cal.times, cal.kernel = [0.0, 1.0, 2.0], [0.01, 0.02, 0.03]
    # a call starting at 1.5 lies between the samples taken at 1.0 and 2.0
    assert cal.reference_seconds(1.5, 0.1) == pytest.approx(0.1 * REFERENCE_S / 0.025)
    assert cal.reference_seconds(2.5, 0.1) == pytest.approx(0.1 * REFERENCE_S / 0.03)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCH["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", WORKLOADS[0], "--seed", "1", "--trace", "0", cwd=tmp_path, run_py=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
