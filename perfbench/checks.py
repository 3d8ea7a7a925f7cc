"""Correctness checks on a run's outputs, made apart from the program.

They use numpy, networkx and the sympy reference values stored in
``refs/`` (see make_refs.py), never ``twodist`` itself.  Each check
returns a list of problems; an empty list means the outputs are correct.
"""

from __future__ import annotations

from collections import defaultdict

import networkx as nx
import numpy as np

CATALOG_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156}
DIST_TOL = 1e-6
SQRT2 = float(np.sqrt(2.0))


def nx_graph(word: str) -> nx.Graph:
    return nx.from_graph6_bytes(word.encode("ascii"))


def _tau1_matches(got, ref: str) -> bool:
    """A record's tau1 ("inf" or a [lo, hi] enclosure in decimals) against
    the sympy reference (a decimal string or "inf")."""
    if ref == "inf" or got == "inf":
        return ref == got
    value = float(ref)
    slack = 1e-12 * max(1.0, abs(value))
    return got[0] - slack <= value <= got[1] + slack


def multipartite_closed_form(g: nx.Graph):
    """(dim_e, dim_s, dim_j) of a complete multipartite graph other than a
    complete graph, or None for any other graph: with k parts of maximal
    size, (min(n-k, n-2), n-k, n-k)."""
    parts = list(nx.connected_components(nx.complement(g)))
    if len(parts) < 2 or any(
        g.subgraph(p).number_of_edges() for p in parts
    ):
        return None
    sizes = sorted((len(p) for p in parts), reverse=True)
    if sizes[0] == 1:
        return None  # complete graph
    n = g.number_of_nodes()
    d = n - sizes.count(sizes[0])
    return min(d, n - 2), d, d


def check_record(g: nx.Graph, rec: dict) -> list[str]:
    """Bounds every analysis record must satisfy."""
    n = g.number_of_nodes()
    e, s, j = rec["dim_e"], rec["dim_s"], rec["dim_j"]
    out = []
    if rec["n"] != n:
        out.append(f"n = {rec['n']}, graph has {n} vertices")
    if not e <= s <= n - 1:
        out.append(f"dims ({e}, {s}) break dim_e <= dim_s <= n-1")
    complete = g.number_of_edges() == n * (n - 1) // 2
    if complete:
        if j is not None:
            out.append(f"complete graph with dim_j = {j}")
    elif j not in (e, n - 1) or j < s:
        out.append(f"dim_j = {j} with dims ({e}, {s})")
    if (e + 1) * (e + 2) // 2 < n:
        out.append(f"dim_e = {e} breaks the two-distance set bound for n = {n}")
    closed = multipartite_closed_form(g)
    if closed is not None and closed != (e, s, j):
        out.append(f"complete multipartite closed form {closed}, got {(e, s, j)}")
    return [f"{rec['input']}: {p}" for p in out]


def _match_atlas(graphs: list[nx.Graph], atlas: list[nx.Graph]) -> list[int | None]:
    """For each graph, the index of the isomorphic atlas graph."""
    buckets = defaultdict(list)
    for i, h in enumerate(atlas):
        buckets[(h.number_of_nodes(), h.number_of_edges(), nx.weisfeiler_lehman_graph_hash(h))].append(i)
    found = []
    for g in graphs:
        key = (g.number_of_nodes(), g.number_of_edges(), nx.weisfeiler_lehman_graph_hash(g))
        found.append(next((i for i in buckets[key] if nx.is_isomorphic(g, atlas[i])), None))
    return found


def check_catalog6(words: list[str], outputs: list, refs: dict) -> list[str]:
    graphs = [nx_graph(w) for w in words]
    problems = []
    counts = defaultdict(int)
    for g in graphs:
        counts[g.number_of_nodes()] += 1
    if dict(counts) != CATALOG_COUNTS:
        problems.append(f"graph counts per n {dict(counts)}, expected {CATALOG_COUNTS}")
    ref_rows = refs["graphs"]
    atlas = [nx.graph_atlas(r["atlas"]) for r in ref_rows]
    matched = _match_atlas(graphs, atlas)
    seen = {}
    for word, idx in zip(words, matched):
        if idx is None:
            problems.append(f"{word}: no graph of the atlas is isomorphic to it")
        elif idx in seen:
            problems.append(f"{word} is isomorphic to {seen[idx]}")
        else:
            seen[idx] = word
    for g, idx, rec in zip(graphs, matched, outputs):
        if rec is None:
            continue
        problems += check_record(g, rec)
        if idx is None:
            continue
        ref = ref_rows[idx]
        if rec["mu"] != ref["mu"]:
            problems.append(f"{rec['input']}: mu = {rec['mu']}, reference {ref['mu']}")
        if not _tau1_matches(rec["tau1"], ref["tau1"]):
            problems.append(f"{rec['input']}: tau1 {rec['tau1']}, reference {ref['tau1']}")
    return problems


def _distance_residual(points: np.ndarray, g: nx.Graph, short: float, long: float) -> float:
    n = points.shape[0]
    diff = points[:, None, :] - points[None, :, :]
    dist = np.sqrt((diff**2).sum(axis=2))
    adj = nx.to_numpy_array(g, nodelist=range(n)) > 0
    target = np.where(adj, short, long)
    off = ~np.eye(n, dtype=bool)
    return float(np.abs(dist - target)[off].max()) if n > 1 else 0.0


def _rank(points: np.ndarray) -> int:
    if points.size == 0:
        return 0
    svals = np.linalg.svd(points, compute_uv=False)
    return int((svals > 1e-8 * max(1.0, svals[0])).sum())


def check_embed16(words: list[str], outputs: list, refs: dict) -> list[str]:
    by_word = {r["g6"]: r for r in refs["graphs"]}
    problems = []
    for word, out in zip(words, outputs):
        if out is None:
            continue
        ref = by_word[word]
        g = nx_graph(word)
        n = g.number_of_nodes()
        pts = np.array(out["points"], dtype=float).reshape(n, -1)
        b = out["b"]
        if ref["tau1"] == "inf":
            if b != 2.0:
                problems.append(f"{word}: no root above 1, yet b = {b}")
        elif abs(b * b - float(ref["tau1"])) > 1e-9 * float(ref["tau1"]):
            problems.append(f"{word}: b^2 = {b * b!r}, reference root {ref['tau1']}")
        resid = _distance_residual(pts, g, out["a"], b)
        if resid > DIST_TOL:
            problems.append(f"{word}: distance residual {resid:.3g}")
        rank = _rank(pts - pts.mean(axis=0))
        if rank != n - ref["mu"] - 1:
            problems.append(f"{word}: rank {rank}, expected n - mu - 1 = {n - ref['mu'] - 1}")
    return problems


def check_joins12(words: list[str], outputs: list) -> list[str]:
    problems = []
    for word, out in zip(words, outputs):
        if out is None:
            continue
        g = nx_graph(word)
        n = g.number_of_nodes()
        rec = out["record"]
        problems += check_record(g, rec)
        comps = {frozenset(c) for c in nx.connected_components(nx.complement(g))}
        blocks = {frozenset(b) for b in out["blocks"]}
        if comps != blocks:
            problems.append(f"{word}: factor vertex sets {sorted(map(sorted, blocks))}")
        pts = np.array(out["points"], dtype=float).reshape(n, -1)
        norms = np.linalg.norm(pts, axis=1)
        if float(np.abs(norms - 1.0).max()) > DIST_TOL:
            problems.append(f"{word}: points off the unit sphere")
        resid = _distance_residual(pts, g, SQRT2, out["b"])
        if resid > DIST_TOL:
            problems.append(f"{word}: distance residual {resid:.3g}")
        type_one = out["types"].count("I")
        record_k = sum(1 for f in rec["factors"] if f["type"] == "I")
        linear = n - _rank(pts)
        if not type_one == out["k"] == record_k == linear:
            problems.append(
                f"{word}: Type I count {type_one}, k {out['k']}, "
                f"join_decompose k {record_k}, n - linear rank {linear}"
            )
        if out["rank"] != rec["dim_j"]:
            problems.append(f"{word}: embedding rank {out['rank']}, dim_j {rec['dim_j']}")
    return problems
