"""Steadiness self-check: run the benchmark over many seeds and compare.

    python3 perfbench/steady.py

For each workload in BENCHMARK.json, two sets each run the benchmark ten
times with distinct seeds, for BENCHMARK.json's run_seconds per run.  For
every end-to-end metric it prints the median of each set and its spread: the
distance between the first and third quartile as a share of the median.  A
spread above the metric's bound fails; so does a second-set median that
differs from the first by more than the bound, in either direction; so does
any run that is not correct.  The exit status is 0 only when nothing failed.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 10
SETS = 2


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, cwd=ROOT, timeout=600, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    ok = True
    for workload in [w["name"] for w in spec["workloads"]]:
        medians = []
        for index in range(SETS):
            results = []
            for seed in range(1 + index * RUNS, 1 + (index + 1) * RUNS):
                start = time.monotonic()
                results.append(run_once(workload, seed, seconds))
                values = " ".join(f"{k}={v['value']:.4g}" for k, v in results[-1]["metrics"].items())
                print(f"  {workload} seed {seed}: {values} wall={time.monotonic() - start:.1f}s",
                      flush=True)
            if not all(r["correct"] and r["failed"] == 0 for r in results):
                print(f"{workload} set {index + 1}: a run was not correct")
                ok = False
            medians.append({})
            for metric in spec["end_to_end"]:
                name, bound = metric["name"], metric["bound"]
                values = [r["metrics"][name]["value"] for r in results]
                medians[-1][name] = statistics.median(values)
                s = spread(values)
                verdict = "ok" if s <= bound else "SPREAD"
                ok &= verdict == "ok"
                print(f"{workload:<12} set {index + 1} {name:<15} median {medians[-1][name]:10.4f} "
                      f"{metric['unit']:<4} spread {s:6.3f} (bound {bound}, target {bound / 3:.3f}) "
                      f"{verdict}", flush=True)
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            change = (medians[1][name] - medians[0][name]) / medians[0][name]
            verdict = "ok" if abs(change) <= bound else "DRIFT"
            ok &= verdict == "ok"
            print(f"{workload:<12} set 2 vs 1 {name:<15} changed by {change:+.3f} "
                  f"(bound {bound}) {verdict}", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
