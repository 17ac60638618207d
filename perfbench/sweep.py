"""Run the benchmark over several seeds and report each metric's spread.

Usage, from the root of a checkout:

    python3 perfbench/sweep.py [--runs 10] [--trace 0|1] [--out FILE] [workload ...]

Each run is ``perfbench/run.py`` with seeds 1..runs and the
``run_seconds`` of BENCHMARK.json, one after another.  For every
end-to-end metric the sweep prints the median of the runs and the
distance between their first and third quartiles as a share of the
median, and flags a spread above a third of the metric's bound.  With
``--out`` the medians and quartiles are written as JSON, which is how
perfbench/baseline.json was made.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workloads", nargs="*")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    for workload in args.workloads:
        if workload not in names:
            parser.error(f"unknown workload {workload!r}; choose from {names}")
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    report: dict[str, dict] = {}
    steady = True
    for workload in args.workloads or names:
        values: dict[str, list[float]] = {m["name"]: [] for m in metrics}
        failed = 0
        for seed in range(1, args.runs + 1):
            cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
            result = json.loads(done.stdout.splitlines()[-1])
            failed += result["failed"] + (not result["correct"])
            for name, metric in result["metrics"].items():
                values[name].append(metric["value"])
            print(f"{workload} seed={seed} " + " ".join(
                f"{n}={v['value']:.5g}" for n, v in result["metrics"].items()), flush=True)
        report[workload] = {"runs": args.runs, "failed": failed, "metrics": {}}
        for m in metrics:
            vals = values[m["name"]]
            q1, q2, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else vals * 3
            spread = (q3 - q1) / q2 if q2 else 0.0
            flag = ""
            if "bound" in m and spread > m["bound"] / 3 and m["name"] != "setup_s":
                flag = "  <- above a third of the bound"
                steady = False
            report[workload]["metrics"][m["name"]] = {
                "unit": m["unit"], "median": q2, "q1": q1, "q3": q3, "iqr_share": spread}
            print(f"  {workload:<15} {m['name']:<44} median={q2:.6g} {m['unit']} "
                  f"iqr/median={spread:.4f}{flag}", flush=True)
    if args.out:
        args.out.write_text(json.dumps(report, indent=2) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
