"""One timed pass of a workload, in a fresh interpreter.

Reads a job (JSON) on stdin, imports the program from the checkout's
``src``, sets up (``enumerate_graphs`` for catalog6, then one warm-up graph
that is not part of the workload) and notes the moment it is ready.  Then
it times whole rounds of the workload until ``seconds`` have passed; each
round starts from empty ``invariants`` caches, as a fresh ``twodist``
process does.  The last line of stdout is a JSON object with the timings
and outputs.  ``ready_at`` is a ``time.monotonic()`` stamp, a system-wide
clock, so run.py can time set-up from before it started this process.

With ``probe`` set it stops once ready: run.py times set-up that way.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import resource
import statistics
import sys
from pathlib import Path
from time import monotonic, perf_counter

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import hostspeed  # noqa: E402  (imports numpy, so after the thread limits)


def make_op(workload: str):
    """The per-graph call sequence of a workload, and its input form."""
    from twodist import cli, geometry

    if workload == "catalog6":
        # What `twodist catalog` does per graph.
        def op(g):
            rec = cli.analysis_record(g)
            json.dumps(rec)
            return rec

        return op, False
    if workload == "embed16":
        # `twodist embed WORD --model euclidean`, minus interpreter start.
        def op(word):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(["embed", word, "--model", "euclidean"])
            if code != 0:
                raise RuntimeError(f"exit code {code}")
            return buf.getvalue()

        return op, True
    # joins12: the README's library path.
    def op(g):
        rec = cli.analysis_record(g)
        emb = geometry.jspherical_embedding(g)
        return rec, emb, geometry.kuperberg_decompose(emb)

    return op, False


def export(workload: str, out) -> dict:
    """A worker output in JSON form, for the checks in run.py."""
    if workload == "catalog6":
        return out
    if workload == "embed16":
        return json.loads(out)
    rec, emb, fz = out
    return {
        "record": rec,
        "points": emb.points.tolist(),
        "b": emb.b,
        "rank": emb.rank,
        "blocks": [list(block) for block, _ in fz.factors],
        "types": [kind for _, kind in fz.factors],
        "k": fz.k,
    }


def main() -> int:
    job = json.load(sys.stdin)
    workload = job["workload"]
    tracer = None
    from twodist import cli, graphs, invariants  # noqa: F401 (cli: traced)

    if job["trace"]:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    op, takes_words = make_op(workload)
    if workload == "catalog6":
        inputs = [g for n in range(1, 7) for g in graphs.enumerate_graphs(n)]
        words = [graphs.to_graph6(g) for g in inputs]
    else:
        words = job["words"]
        inputs = words if takes_words else [graphs.parse_graph6(w) for w in words]
    warm = job["warmup"]
    if warm in words:
        raise SystemExit("warm-up graph is part of the workload")
    op(warm if takes_words else graphs.parse_graph6(warm))
    ready_at = monotonic()
    if job["probe"]:
        print(json.dumps({"ready_at": ready_at}))
        return 0

    setup_totals = tracer.totals() if tracer else {}
    if tracer:
        tracer.reset()
        op = tracer.wrap("bench.graph", op)
    misses: dict[str, int] = {}
    latencies: list[float] = []
    mids: list[float] = []
    samples: list[tuple[float, float]] = []
    outputs: list = []
    errors_seen: list[str] = []
    rounds = 0
    gc.collect()
    start = perf_counter()
    while True:
        invariants.clear_caches()
        for x in inputs:
            t0 = perf_counter()
            try:
                out = op(x)
            except Exception as exc:  # a failed graph is counted, the run goes on
                out = None
                errors_seen.append(f"{type(exc).__name__}: {exc}")
            t1 = perf_counter()
            latencies.append((t1 - t0) * 1e3)
            mids.append((t0 + t1) / 2 - start)
            samples.append((perf_counter() - start, hostspeed.sample_ms()))
            if rounds == 0:
                outputs.append(out)
        rounds += 1
        if tracer:
            for name, count in tracer.cache_misses().items():
                misses[name] = misses.get(name, 0) + count
        if perf_counter() - start >= job["seconds"]:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    factors = hostspeed.factors(mids, samples)

    result = {
        "ready_at": ready_at,
        "rounds": rounds,
        "attempted": len(latencies),
        "failed": len(errors_seen),
        "errors": errors_seen[:10],
        "latencies_ms": latencies,
        "factors": factors,
        "peak_rss_mb": peak_rss_mb,
        "host_ref_ms": statistics.median(ms for _, ms in samples),
        "words": words,
        "outputs": [None if o is None else export(workload, o) for o in outputs],
    }
    if tracer:
        timed = tracer.totals(factors)
        result["trace"] = {
            "calls": {k: v[0] for k, v in timed.items()},
            "self_ns": {k: v[1] for k, v in timed.items()},
            "misses": misses,
            "setup_self_ns": {k: v[1] for k, v in setup_totals.items()},
        }
        out_dir = BENCH / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"trace-{workload}-seed{job['seed']}.json.gz")
    print(json.dumps(result, separators=(",", ":")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
