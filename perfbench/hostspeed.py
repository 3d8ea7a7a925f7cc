"""Host speed, sampled next to the program so that its drift can be taken out.

The 2-core host this benchmark was built on drifts: one catalog6 pass
took from 24 to 33 s within ten minutes, in episodes of 5-15 s where
everything ran up to 30% faster or 20% slower.  After every graph the
worker times ``sample_ms``, a fixed
computation of the benchmark's own shaped like the program's hot paths:
a small numpy loop like one enclosing-ball iteration, a Fraction sum and a
big-integer loop.  ``factors`` turns those timings into one factor per
graph, REF_MS over the median of the timings nearest to the graph, by
which run.py scales the graph's wall time.  Set-up times are scaled the
same way by ``factor_now`` taken just before each interpreter starts.  The
timings themselves are reported as ``host.ref_ms``.
"""

from __future__ import annotations

import statistics
from fractions import Fraction
from time import perf_counter

import numpy as np

# The reference's time on the 2-core host, outside its fast and slow
# episodes.  Scaled times read as times on that host.
REF_MS = 1.4
# Fast episodes can be shorter than a second, so only the timings next to
# a graph describe the host it ran on.
NEAREST = 3

_POINTS = np.sin(np.arange(132.0)).reshape(12, 11)
_SQNORMS = (_POINTS * _POINTS).sum(axis=1)


def sample_ms() -> float:
    start = perf_counter()
    lam = np.full(12, 1.0 / 12)
    for _ in range(60):
        c = lam @ _POINTS
        grad = _SQNORMS - 2.0 * _POINTS @ c + c @ c
        lam *= 0.9
        lam[int(np.argmax(grad))] += 0.1
    acc = Fraction(0)
    for k in range(1, 40):
        acc += Fraction(k, 2 * k + 1)
    word = 0
    for i in range(3000):
        word = (word * 31 + i) % 1_000_003
    return (perf_counter() - start) * 1e3


def factor_now() -> float:
    """REF_MS / the median of three reference timings taken now."""
    return REF_MS / statistics.median(sample_ms() for _ in range(3))


def factors(graph_mids: list[float], samples: list[tuple[float, float]]) -> list[float]:
    """REF_MS / local reference time, for each graph.

    ``graph_mids`` are the graphs' mid-times and ``samples`` (time, ms)
    pairs, both in seconds from the start of timing."""
    out = []
    for mid in graph_mids:
        near = sorted(samples, key=lambda s: abs(s[0] - mid))[:NEAREST]
        out.append(REF_MS / statistics.median(ms for _, ms in near))
    return out
