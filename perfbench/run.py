"""Benchmark of corrforms: three seeded workloads, end to end or traced.

Usage, from the repository root:

    python3 perfbench/run.py --workload sweep_fp --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload, each in a fresh process

The program is imported from ``src/`` of the checkout this file lives in;
without it the run exits with code 2 and prints no result.  Earlier stdout
lines are a JSON report (the metric names of the workload, sample counts and
the machine); the last line is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, with every
time taken at the reference speed of ``calibrate.py``; ``--trace 1`` runs one
fixed pass untraced and then traced, and reports the per-layer metrics in
wall time.  Spans and call counts of a traced run go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from calibrate import REFERENCE_S, Calibration, kernel_seconds  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import FULL, TINY, WORKLOADS  # noqa: E402

SETUP_SAMPLES = 7  # setup_s is the median of this many set-ups, each in a fresh process but the first
UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "ops_per_s": "1/s", "op_ms_p50": "ms", "op_ms_p90": "ms"}


class ProgramMissing(Exception):
    pass


def load_program():
    """Import corrforms from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "corrforms" / "__init__.py").is_file():
        raise ProgramMissing(f"no corrforms package under {src}")
    sys.path.insert(0, str(src))
    import corrforms
    import corrforms.cli  # noqa: F401  (the package does not import its CLI)

    if Path(corrforms.__file__).resolve().parent != (src / "corrforms").resolve():
        raise ProgramMissing(f"corrforms was imported from {corrforms.__file__}, not {src}")
    return corrforms


def environment():
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)), "cpu": cpu}


def metric(value, unit):
    return {"value": value, "unit": unit}


def command(args, workload, *extra):
    """This script on `workload` in a fresh interpreter, with the run's seed, size and golden file."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(args.seed), "--size", args.size]
    if args.golden:
        cmd += ["--golden", args.golden]
    return cmd + list(extra)


def setup_in_fresh_process(args):
    proc = subprocess.run(
        command(args, args.workload, "--setup-only"), cwd=ROOT, capture_output=True, text=True, timeout=120, check=True
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def timed_run(wl, args, setup_s):
    wl.calibration = Calibration()
    records = wl.measure(args.seconds)
    wl.at_reference_speed(records)
    failed = wl.failed(records)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setups = [setup_s] + [setup_in_fresh_process(args) for _ in range(SETUP_SAMPLES - 1)]
    own, generic, samples = wl.metrics(records)
    values = {"setup_s": statistics.median(setups), "peak_rss_mb": peak_rss_mb, **generic}
    report = {name: metric(v, u) for name, (v, u) in own.items()}
    report["setup_s"] = metric(values["setup_s"], "s")
    report["failed_ratio"] = metric(failed / len(records), "ratio")
    report["peak_rss_mb"] = metric(peak_rss_mb, "MB")
    samples["setup_runs"] = len(setups)
    samples["calibration_samples"] = len(wl.calibration.kernel)
    samples["calibration_kernel_ms_p50"] = statistics.median(wl.calibration.kernel) * 1e3
    print(json.dumps({"workload": wl.name, "seed": args.seed, "report": report, "samples": samples}))
    return len(records), failed, {name: metric(values[name], UNITS[name]) for name in UNITS}


def main(argv=None):
    kernel_before = kernel_seconds()
    start = perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=(FULL, TINY), default=FULL, help="tiny: a few calls, for tests")
    parser.add_argument("--golden", help="expected outputs (default: golden.json beside this file)")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        cf = load_program()
    except (ProgramMissing, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    with open(args.golden or HERE / "golden.json", encoding="utf-8") as fh:
        golden = json.load(fh)
    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}_", dir=ROOT / ".perfbench_work")
    try:
        wl = WORKLOADS[args.workload](cf, args.seed, golden, workdir, args.size)
        wl.warm_up()
        setup_s = perf_counter() - start
        # at the reference speed, like every timed call
        setup_s *= REFERENCE_S / ((kernel_before + kernel_seconds()) / 2)
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        print(json.dumps({"env": environment()}))
        if args.trace:
            attempted, failed, metrics = traced_result(wl, args)
        else:
            attempted, failed, metrics = timed_run(wl, args, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def traced_result(wl, args):
    """One fixed pass untraced, then the same pass traced; per-layer metrics."""
    plain = wl.trace_pass()
    extra = []
    efficiency = 0.0
    if wl.name == "sweep_fp":
        efficiency, extra = wl.parallel_efficiency(plain)
    tracer = wl.tracer = Tracer()
    traced = wl.trace_pass()
    wl.tracer = None
    records = plain + extra + traced
    failed = wl.failed(records)

    layer = tracer.layer_metrics()
    layer["sweep.parallel_efficiency"] = (efficiency, "ratio")
    overhead = sum(r.seconds for r in traced) / sum(r.seconds for r in plain)
    layer["trace.overhead"] = (overhead, "ratio")
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    stem = f"{wl.name}_seed{args.seed}_{args.size}"
    tracer.write_spans(out / f"spans_{stem}.json.gz")
    with open(out / f"calls_{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(tracer.call_counts(), fh, indent=1, sort_keys=True)
    print(json.dumps({
        "workload": wl.name, "seed": args.seed, "trace_overhead": overhead,
        "spans": len(tracer.span_name), "not_traced": tracer.missing,
    }))
    return len(records), failed, {name: metric(v, u) for name, (v, u) in layer.items()}


def run_all(args):
    """Every workload in its own fresh process; one combined result line."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOADS:
        cmd = command(args, name, "--seconds", str(args.seconds), "--trace", str(args.trace))
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
