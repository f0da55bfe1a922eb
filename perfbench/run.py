"""Closed-loop benchmark of the k3mukai command line.

    python3 perfbench/run.py --workload ledger --seed 1 --seconds 30 --trace 0

One client sends the seeded requests of a workload one at a time, the next
only after the previous one returned.  Each request is an in-process call of
`k3mukai.cli.main(argv)` with stdout captured, so it goes through the real
entry point: parse, compute, then encode or render.  Every response is
checked by validate.py outside the timed region; a non-zero exit code, an
escaped exception (argparse's SystemExit included) or a wrong answer counts
as a failed request.

--trace 0 reports the end-to-end metrics of BENCHMARK.json.  Set-up time is
measured in fresh interpreters.  The timed loop makes whole passes over the
seeded working set after one untimed pass over it, so it sees warm caches.

--trace 1 reports the per-layer metrics.  After an untraced closed loop it
runs the working set twice under the tracer (tracing.py), requires the two
passes to give identical counts, and reports the layer times and counts of
the second.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.

The program is imported from the src/ directory next to this one; without it
the benchmark exits with a non-zero status and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import validate
import workloads
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

COLD_STARTS = 9

_COLD_START = """
import contextlib, io, sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import k3mukai.cli
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = k3mukai.cli.main(sys.argv[2:])
seconds = time.perf_counter() - start
import json
print(json.dumps({"seconds": seconds, "code": code, "out": out.getvalue(),
                  "module": k3mukai.cli.__file__}))
"""


class Tally:
    """Requests attempted and failed, with the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []
        self.bytes_out = 0

    def record(self, req: workloads.Request, error: str | None) -> None:
        self.attempted += 1
        if error is not None:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(f"{' '.join(req.argv)}: {error}")


def respond(cli, req: workloads.Request, tally: Tally) -> float:
    """Send one request, check its response, and return its latency."""
    out, err = io.StringIO(), io.StringIO()
    escaped = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        try:
            code = cli.main(list(req.argv))
        except SystemExit as exc:
            code, escaped = None, f"SystemExit({exc.code}) {err.getvalue().strip()}"
        except Exception as exc:  # any escaped exception is a failed request
            code, escaped = None, f"{type(exc).__name__}: {exc}"
        latency = perf_counter() - start
    text = out.getvalue()
    tally.bytes_out += len(text)
    tally.record(req, escaped or validate.check(req, code, text))
    return latency


def closed_loop(cli, requests: list, tally: Tally, seconds: float) -> list[list[float]]:
    """Latencies of whole passes over `requests`, sent back to back until
    `seconds` of busy time have passed."""
    passes = []
    busy = 0.0
    while busy < seconds:
        passes.append([respond(cli, req, tally) for req in requests])
        busy += sum(passes[-1])
    return passes


def timing_metrics(passes: list[list[float]]) -> dict[str, float]:
    """Throughput, p50 and p95 over all requests of the timed passes.

    Only whole passes are timed, so every seed contributes the same multiset
    of request shapes however many passes a run gets through.
    """
    latencies = [x for p in passes for x in p]
    return {
        "throughput_rps": len(latencies) / sum(latencies),
        "latency_p50_ms": statistics.median(latencies) * 1000,
        "latency_p95_ms": statistics.quantiles(latencies, n=100, method="inclusive")[94] * 1000,
    }


def cold_starts(workload: str, tally: Tally) -> list[float]:
    """Seconds from `import k3mukai.cli` to the first completed request, each
    in a fresh interpreter.  One extra start runs first and is dropped: it
    may compile the bytecode cache."""
    req = workloads.setup_request(workload)
    times = []
    for attempt in range(COLD_STARTS + 1):
        proc = subprocess.run(
            [sys.executable, "-c", _COLD_START, str(SRC), *req.argv],
            capture_output=True, text=True, timeout=120, cwd=ROOT, check=False,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"cold start failed: {proc.stderr.strip()[-500:]}")
        result = json.loads(proc.stdout)
        if not Path(result["module"]).resolve().is_relative_to(SRC):
            raise RuntimeError(f"cold start imported {result['module']}")
        if attempt:
            tally.record(req, validate.check(req, result["code"], result["out"]))
            times.append(result["seconds"])
    return times


def census_parallel_ratio(cli, repeats: int = 5) -> float:
    """Median time of census_records on a 40 x 40 grid with jobs=2 over jobs=1."""
    ratios = []
    for _ in range(repeats):
        timings = []
        for jobs in (1, 2):
            start = perf_counter()
            cli.census_records(40, 40, jobs=jobs)
            timings.append(perf_counter() - start)
        ratios.append(timings[1] / timings[0])
    return statistics.median(ratios)


def load_program():
    if not (SRC / "k3mukai" / "cli.py").is_file():
        raise SystemExit(f"error: no program sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import k3mukai.cli as cli
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: imported {cli.__file__}, not the sources at {SRC}")
    return cli


def end_to_end(cli, args, tally: Tally) -> tuple[dict, list[str], list[str]]:
    setup = cold_starts(args.workload, tally)
    requests = workloads.working_set(args.workload, args.seed)
    for req in requests:
        respond(cli, req, tally)
    passes = closed_loop(cli, requests, tally, args.seconds)
    metrics = {
        **timing_metrics(passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(setup),
    }
    notes = [
        f"timed {len(passes)} passes of {len(requests)} requests: "
        f"{len(passes) * len(requests)} latency samples in {sum(map(sum, passes)):.3f} s busy time",
        f"setup_s median of {len(setup)} cold starts: {[round(s, 4) for s in setup]}",
    ]
    return metrics, notes, []


def per_layer(cli, args, tally: Tally) -> tuple[dict, list[str], list[str]]:
    problems = []
    parallel = census_parallel_ratio(cli)
    requests = workloads.working_set(args.workload, args.seed)
    untraced_rps = timing_metrics(closed_loop(cli, requests, tally, args.seconds))["throughput_rps"]
    tracer = Tracer()
    tracer.install()
    try:
        passes = []
        for _ in range(2):
            tracer.reset()
            bytes_before = tally.bytes_out
            busy = 0.0
            for index, req in enumerate(requests):
                busy += respond(cli, req, tally)
                tracer.end_request(index)
            passes.append((tracer.counts(), busy))
    finally:
        tracer.uninstall()
    (counts, _), (again, _) = passes
    if counts != again:
        changed = sorted(k for k in counts.keys() | again.keys() if counts.get(k) != again.get(k))
        problems.append(f"counts differ between two traced passes: {changed[:5]}")
    metrics = tracer.layer_metrics()
    metrics["cli.bytes_out"] = tally.bytes_out - bytes_before
    metrics["cli.census_parallel_ratio"] = parallel
    traced_rps = 2 * len(requests) / sum(busy for _, busy in passes)
    metrics["trace.throughput_ratio"] = traced_rps / untraced_rps
    if args.workload == "ledger":
        for name in ("dual_surface.criterion_candidates", "quadforms.transform_calls"):
            if metrics[name] != 0:
                problems.append(f"ledger should bypass the searches, but {name} = {metrics[name]}")
    spans = OUT / f"spans-{args.workload}.csv"
    tracer.write_spans(spans)
    notes = [
        f"two traced passes of {len(requests)} requests: {traced_rps:.2f} req/s; "
        f"untraced {untraced_rps:.2f} req/s",
        f"counts identical across two traced passes: {counts == again}",
        f"{len(tracer.kept)} spans written to {spans.relative_to(ROOT)}",
    ]
    return metrics, notes, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = load_program()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} python={platform.python_version()} "
          f"host={platform.node()} ({platform.machine()}, {os.cpu_count()} cpus)")

    tally = Tally()
    metrics, notes, problems = (per_layer if args.trace else end_to_end)(cli, args, tally)
    if set(metrics) != {m["name"] for m in declared}:
        raise SystemExit(f"error: metrics {sorted(metrics)} do not match BENCHMARK.json")

    for note in notes:
        print(f"# {note}")
    print(f"# failed_ratio {tally.failed / max(tally.attempted, 1):.6f} "
          f"({tally.failed} of {tally.attempted} requests)")
    for line in tally.reasons + problems:
        print(f"# FAIL {line}")
    for m in declared:
        print(f"{m['name']} {metrics[m['name']]:.6g} {m['unit']}")
    print(json.dumps({
        "correct": tally.failed == 0 and not problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
