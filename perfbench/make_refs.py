"""Make the sympy reference values in refs/ anew.

    python3 perfbench/make_refs.py

For every graph it builds C(t), the bordered squared-distance determinant
with unit short distance and t = b^2 (0 on the diagonal, 1 on the border
and on edges, t on non-edges), with sympy, and stores the smallest real
root of C above 1 (30 significant digits, or "inf" when there is none)
with its multiplicity.

- refs/catalog6.json: every networkx atlas graph with 1 <= n <= 6.
- refs/embed16.json: the embed16 pool, G(16, 1/2) graphs drawn from a
  fixed seed.  Each run's --seed picks its graphs from this pool.
"""

from __future__ import annotations

import json
import random

import networkx as nx
import sympy as sp
from sympy.polys.matrices import DomainMatrix

from inputs import REFS, graph6, random_graph, warmup_word

T = sp.Symbol("t")
POOL_SEED = "embed16-pool"
POOL_SIZE = 500


def c_polynomial(g: nx.Graph) -> sp.Poly:
    n = g.number_of_nodes()
    ring = sp.ZZ[T]
    one, zero, t = ring(1), ring(0), ring(T)
    rows = [[zero] + [one] * n]
    for i in range(n):
        rows.append([one] + [zero if i == j else one if g.has_edge(i, j) else t for j in range(n)])
    det = DomainMatrix(rows, (n + 1, n + 1), ring).det()
    return sp.Poly(ring.to_sympy(det), T)


def smallest_root_above_one(c: sp.Poly) -> tuple[str, int]:
    best, mult = None, 0
    for factor, m in c.sqf_list()[1]:
        for root in factor.real_roots():
            if root > 1 and (best is None or root < best):
                best, mult = root, m
    if best is None:
        return "inf", 0
    return str(sp.N(best, 30)), mult


def reference(g: nx.Graph) -> dict:
    tau1, mu = smallest_root_above_one(c_polynomial(g))
    return {"tau1": tau1, "mu": mu}


def rows_to_nx(n: int, rows: list[int]) -> nx.Graph:
    g = nx.empty_graph(n)
    g.add_edges_from((i, j) for i in range(n) for j in range(i + 1, n) if rows[i] >> j & 1)
    return g


def main() -> None:
    catalog = []
    for i, g in enumerate(nx.graph_atlas_g()):
        if 1 <= g.number_of_nodes() <= 6:
            catalog.append({"atlas": i, "n": g.number_of_nodes(), **reference(g)})
    with open(REFS / "catalog6.json", "w", encoding="ascii") as fh:
        json.dump({"graphs": catalog}, fh, indent=0)

    rng = random.Random(POOL_SEED)
    seen = {warmup_word("embed16")}
    pool = []
    while len(pool) < POOL_SIZE:
        rows = random_graph(rng, 16)
        word = graph6(16, rows)
        if word in seen:
            continue
        seen.add(word)
        pool.append({"g6": word, **reference(rows_to_nx(16, rows))})
    with open(REFS / "embed16.json", "w", encoding="ascii") as fh:
        json.dump({"seed": POOL_SEED, "graphs": pool}, fh, indent=0)


if __name__ == "__main__":
    main()
