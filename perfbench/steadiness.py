"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/steadiness.py --seeds 1-10 [--workloads sweep_fp,cli_qq] [--label NAME]

Runs the benchmark once per workload and seed, one run at a time, and prints
for every end-to-end metric the median of the runs and the spread: the
distance between the first and third quartile as a share of the median
(``statistics.quantiles(values, n=4)``).  A metric is steady when its spread
is below a third of its bound in BENCHMARK.json.  All runs are also written to
``.perfbench_out/steadiness_<label>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--label", default="runs")
    args = parser.parse_args()

    runs = {}
    for workload in args.workloads.split(","):
        for seed in seeds_of(args.seeds):
            cmd = [
                sys.executable, *bench["command"][1:], "--workload", workload, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", "0",
            ]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} calls failed")
            runs.setdefault(workload, []).append({"seed": seed, **result})

    print(f"{'workload':12} {'metric':12} {'median':>12} {'spread':>8} {'bound':>6}  steady")
    for workload, results in runs.items():
        for m in bench["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            s = spread(values) if len(values) > 1 else float("nan")
            verdict = "yes" if s < m["bound"] / 3 else "NO"
            print(f"{workload:12} {m['name']:12} {statistics.median(values):12.4f} {s:8.3f} {m['bound']:6.2f}  {verdict}")
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    (out / f"steadiness_{args.label}.json").write_text(json.dumps(runs, indent=1))


if __name__ == "__main__":
    main()
