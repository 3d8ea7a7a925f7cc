import importlib.util
import itertools
import json
import random
from pathlib import Path

import pytest
from hypothesis import strategies as st

from twodist.graphs import Graph, parse_graph6


def graph_from_bits(n: int, bits: int) -> Graph:
    edges = []
    pos = 0
    for i in range(n):
        for j in range(i + 1, n):
            if bits >> pos & 1:
                edges.append((i, j))
            pos += 1
    return Graph.from_edges(n, edges)


@st.composite
def graphs(draw, min_n: int = 1, max_n: int = 8):
    n = draw(st.integers(min_n, max_n))
    bits = draw(st.integers(0, (1 << (n * (n - 1) // 2)) - 1))
    return graph_from_bits(n, bits)


def joins12_corpus(count: int) -> list[Graph]:
    """The benchmark's 12-vertex joins, imported from its input module."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [parse_graph6(word) for word in module.joins12_corpus(count)]


def embed16_pool() -> list[Graph]:
    """The benchmark's 500 G(16, 1/2) graphs."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "refs" / "embed16.json"
    return [parse_graph6(ref["g6"]) for ref in json.loads(path.read_text())["graphs"]]


def random_graph(rng: random.Random, n: int) -> Graph:
    bits = rng.getrandbits(n * (n - 1) // 2)
    return graph_from_bits(n, bits)


@pytest.fixture
def rng():
    return random.Random(20240613)


def clebsch() -> Graph:
    """The folded 5-cube srg(16, 5, 0, 2): F_2^4, two vectors adjacent
    when they differ in one coordinate or in all four."""
    pairs = itertools.combinations(range(16), 2)
    return Graph.from_edges(16, [(u, v) for u, v in pairs if (u ^ v).bit_count() in (1, 4)])


def schlafli() -> Graph:
    """srg(27, 16, 10, 8): the 27 lines on a cubic surface, a_i, b_i
    (i < 6) and c_ij (i < j < 6), adjacent when skew.  a_i meets b_j for
    j != i, a_i and b_i meet c_ij, and c_ij meets c_kl for {i, j}, {k, l}
    disjoint; two a's or two b's are skew."""
    lines = [("a", {i}) for i in range(6)] + [("b", {i}) for i in range(6)]
    lines += [("c", set(pair)) for pair in itertools.combinations(range(6), 2)]

    def meet(x, y):
        (kx, sx), (ky, sy) = x, y
        if kx == ky:
            return kx == "c" and not sx & sy
        return bool(sx & sy) if "c" in (kx, ky) else sx != sy

    pairs = itertools.combinations(range(27), 2)
    return Graph.from_edges(27, [(i, j) for i, j in pairs if not meet(lines[i], lines[j])])


def triangular(m: int) -> Graph:
    """T(m), the line graph of K_m: 2-subsets of m points, adjacent when
    they share a point."""
    subsets = list(itertools.combinations(range(m), 2))
    pairs = itertools.combinations(range(len(subsets)), 2)
    return Graph.from_edges(
        len(subsets), [(i, j) for i, j in pairs if set(subsets[i]) & set(subsets[j])]
    )


def paley(q: int) -> Graph:
    """Paley(q), q a prime 1 mod 4: Z_q, adjacent when the difference is a
    nonzero square."""
    squares = {x * x % q for x in range(1, q)}
    return Graph.from_edges(
        q, [(i, j) for i, j in itertools.combinations(range(q), 2) if (j - i) % q in squares]
    )
