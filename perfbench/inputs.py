"""Seeded workload inputs, made without the program under test.

Graphs are adjacency bitmask rows (``rows[i]`` has bit j set iff ij is an
edge) and travel to the program as graph6 words, so the program receives
only the generated graphs.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

REFS = Path(__file__).resolve().parent / "refs"

WORKLOADS = ("catalog6", "embed16", "joins12")

# Graphs per round.  A round is sized to outlast --seconds on a 2-core host,
# so that a run normally analyses each graph once.
EMBED16_ROUND = 200
JOINS12_ROUND = 30

def graph6(n: int, rows: list[int]) -> str:
    """graph6 word of a graph with n <= 62 vertices."""
    bits = [rows[i] >> j & 1 for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    out = [chr(63 + n)]
    for k in range(0, len(bits), 6):
        val = 0
        for b in bits[k : k + 6]:
            val = val << 1 | b
        out.append(chr(63 + val))
    return "".join(out)


def cycle(n: int) -> list[int]:
    rows = [0] * n
    for i in range(n):
        j = (i + 1) % n
        rows[i] |= 1 << j
        rows[j] |= 1 << i
    return rows


def random_graph(rng: random.Random, n: int) -> list[int]:
    """G(n, 1/2)."""
    rows = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.5:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return rows


def complement_connected(n: int, rows: list[int]) -> bool:
    full = (1 << n) - 1
    comp = [(full ^ r) & ~(1 << i) for i, r in enumerate(rows)]
    seen, frontier = 1, 1
    while frontier:
        nxt = 0
        for v in range(n):
            if frontier >> v & 1:
                nxt |= comp[v]
        frontier = nxt & ~seen
        seen |= nxt
    return seen == full


def join_rows(factors: list[list[int]]) -> list[int]:
    """Join of the factors, vertices numbered factor by factor."""
    n = sum(len(f) for f in factors)
    full = (1 << n) - 1
    rows = []
    start = 0
    for f in factors:
        block = ((1 << len(f)) - 1) << start
        rows += [(r << start) | (full & ~block) for r in f]
        start += len(f)
    return rows


def permuted(rows: list[int], perm: list[int]) -> list[int]:
    """Relabel vertex v as perm[v]."""
    n = len(rows)
    out = [0] * n
    for v, r in enumerate(rows):
        for w in range(n):
            if r >> w & 1:
                out[perm[v]] |= 1 << perm[w]
    return out


def warmup_word(workload: str) -> str:
    """A graph outside the workload: C7 has 7 vertices (catalog6 stops at
    6), C16 is kept out of the embed16 pool, and C5 + C7 is not in the
    joins12 corpus (the worker checks)."""
    if workload == "catalog6":
        return graph6(7, cycle(7))
    if workload == "embed16":
        return graph6(16, cycle(16))
    return graph6(12, join_rows([cycle(5), cycle(7)]))


def joins12_corpus(count: int = JOINS12_ROUND) -> list[str]:
    """Joins of 2-3 join-indecomposable G(m, 1/2) factors, 12 vertices in
    all, each factor of size at least 2, with the vertices shuffled.

    The corpus comes from a fixed seed.  Per-graph cost here is heavy
    tailed (a few graphs take 5-15x the median), so a corpus drawn anew
    for each run seed moved graphs/s by about 20% between seeds."""
    rng = random.Random("joins12")
    words = []
    while len(words) < count:
        k = rng.choice((2, 3))
        cuts = sorted(rng.sample(range(2, 11), k - 1))
        sizes = [b - a for a, b in zip([0] + cuts, cuts + [12])]
        if min(sizes) < 2:
            continue
        factors = []
        for m in sizes:
            while True:
                f = random_graph(rng, m)
                if complement_connected(m, f):
                    break
            factors.append(f)
        perm = list(range(12))
        rng.shuffle(perm)
        words.append(graph6(12, permuted(join_rows(factors), perm)))
    return words


def joins12_words(seed: int) -> list[str]:
    """The joins12 corpus in a seeded order."""
    words = joins12_corpus()
    random.Random(f"joins12:{seed}").shuffle(words)
    return words


def load_refs(workload: str) -> dict:
    with open(REFS / f"{workload}.json", encoding="ascii") as fh:
        return json.load(fh)


def embed16_words(seed: int, pool: list[dict], count: int = EMBED16_ROUND) -> list[str]:
    """A seeded sample of the G(16, 1/2) reference pool."""
    rng = random.Random(f"embed16:{seed}")
    return [pool[i]["g6"] for i in rng.sample(range(len(pool)), count)]
