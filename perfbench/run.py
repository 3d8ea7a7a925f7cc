"""twodist benchmark: one workload per run, each in fresh processes.

    python3 perfbench/run.py --workload {catalog6,embed16,joins12,all}
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; the program is imported from ``src/``.
With --trace 0 it reports the end-to-end metrics, with --trace 1 the
per-layer ones from spans installed around the program's functions.  The
outputs are checked after timing.  Every metric is printed by name with
its unit; the last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed
import inputs
from spans import TARGETS

BENCH = Path(__file__).resolve().parent
PROGRAM = BENCH.parent / "src" / "twodist" / "__init__.py"
WORKER = BENCH / "worker.py"

DEADLINE_S = 170.0
# Set-up is timed in fresh interpreters before the timed pass, in the
# timed pass's own interpreter, and after the timed pass; run.py reports
# the median, so one slow start does not move it.
PROBES_BEFORE = 2
PROBES_AFTER = 2
P90_MIN_GRAPHS = 100

# Invariants memoized with lru_cache; their misses are computations done.
CACHED = (
    "invariants.profile",
    "invariants.cm_polynomials",
    "invariants.tau1_mu",
    "invariants.circumradius_invariant",
    "invariants.feasible_interval",
)

CHILD_ENV = dict(
    os.environ,
    OMP_NUM_THREADS="1",
    OPENBLAS_NUM_THREADS="1",
    MKL_NUM_THREADS="1",
    PYTHONHASHSEED="0",
)


class BenchError(Exception):
    """The benchmark could not produce a result."""


def make_job(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    job = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "probe": False,
        "warmup": inputs.warmup_word(workload),
    }
    if workload == "embed16":
        job["words"] = inputs.embed16_words(seed, inputs.load_refs("embed16")["graphs"])
    elif workload == "joins12":
        job["words"] = inputs.joins12_words(seed)
    return job


def spawn(job: dict, deadline: float) -> tuple[float, dict]:
    """Run the worker on a job; returns (set-up seconds scaled to the
    reference host speed, its result)."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time")
    factor = hostspeed.factor_now()
    started = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER)],
            input=json.dumps(job),
            capture_output=True,
            text=True,
            env=CHILD_ENV,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise BenchError(f"worker exited with code {proc.returncode}")
    result = json.loads(proc.stdout.splitlines()[-1])
    return (result["ready_at"] - started) * factor, result


def check(workload: str, result: dict) -> list[str]:
    import checks  # networkx loads only after timing

    words, outputs = result["words"], result["outputs"]
    if workload == "catalog6":
        return checks.check_catalog6(words, outputs, inputs.load_refs("catalog6"))
    if workload == "embed16":
        return checks.check_embed16(words, outputs, inputs.load_refs("embed16"))
    return checks.check_joins12(words, outputs)


def scaled_latencies(result: dict) -> list[float]:
    """Per-graph wall times in ms, scaled to the reference host speed
    (see hostspeed.py)."""
    return [ms * f for ms, f in zip(result["latencies_ms"], result["factors"])]


def end_to_end(result: dict, setup_s: list[float]) -> dict:
    lat = scaled_latencies(result)
    done = result["attempted"] - result["failed"]
    p50 = statistics.median(lat)
    # A 90th percentile is a tail only with at least 10 graphs beyond it;
    # a workload with fewer graphs reports its median in that place.
    tail = len(result["words"]) >= P90_MIN_GRAPHS
    p90 = statistics.quantiles(lat, n=10)[8] if tail else p50
    return {
        "graphs_per_s": (done / (sum(lat) / 1e3), "graphs/s"),
        "graph_ms_p50": (p50, "ms"),
        "graph_ms_p90": (p90, "ms"),
        "setup_s": (statistics.median(setup_s), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }


def per_layer(result: dict) -> dict:
    """Per-graph counts and self times of each traced layer."""
    graphs = result["attempted"]
    tr = result["trace"]
    calls, self_ns = tr["calls"], tr["self_ns"]
    out = {}
    for mod, path in TARGETS:
        name = f"{mod}.{path}"
        if name == "graphs.enumerate_graphs":
            # Set-up work, once per run.
            out[f"{name}.ms"] = (tr["setup_self_ns"].get(name, 0) / 1e6, "ms")
            continue
        if name != "cli.analysis_record":
            out[f"{name}.calls"] = (calls.get(name, 0) / graphs, "calls/graph")
        out[f"{name}.self_ms"] = (self_ns.get(name, 0) / 1e6 / graphs, "ms/graph")
    for name in CACHED:
        # Without a cache every call computes.
        misses = tr["misses"].get(name, calls.get(name, 0))
        out[f"{name}.misses"] = (misses / graphs, "misses/graph")
    out["bench.graph.self_ms"] = (self_ns.get("bench.graph", 0) / 1e6 / graphs, "ms/graph")
    out["bench.traced_graphs_per_s"] = (graphs / (sum(scaled_latencies(result)) / 1e3), "graphs/s")
    out["host.ref_ms"] = (result["host_ref_ms"], "ms")
    return out


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    job = make_job(workload, seed, seconds, trace)
    probe = dict(job, probe=True)
    setup = []
    if not trace:
        setup += [spawn(probe, deadline)[0] for _ in range(PROBES_BEFORE)]
    ready_s, result = spawn(job, deadline)
    setup.append(ready_s)
    if not trace:
        setup += [spawn(probe, deadline)[0] for _ in range(PROBES_AFTER)]
    problems = check(workload, result)
    metrics = per_layer(result) if trace else end_to_end(result, setup)

    raw = result["latencies_ms"]
    print(
        f"{workload} seed={seed}: {result['attempted']} graphs attempted, "
        f"{result['failed']} failed, {result['rounds']} round(s), "
        f"{len(problems)} check problem(s); unscaled: "
        f"{len(raw) / (sum(raw) / 1e3):.4g} graphs/s, p50 {statistics.median(raw):.4g} ms, "
        f"host.ref_ms {result['host_ref_ms']:.4g}"
    )
    for err in result["errors"]:
        print(f"  failed: {err}")
    for p in problems[:20]:
        print(f"  check: {p}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<48} {value:>14.6g} {unit}")
    return {
        "correct": not problems,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="twodist benchmark")
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not PROGRAM.is_file():
        print(f"program source {PROGRAM} not found; run from a twodist checkout", file=sys.stderr)
        return 2
    workloads = inputs.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {w: run_workload(w, args.seed, args.seconds, bool(args.trace)) for w in workloads}
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        final = results[args.workload]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
