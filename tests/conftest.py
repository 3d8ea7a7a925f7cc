import importlib.util
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


def random_graph(rng: random.Random, n: int) -> Graph:
    bits = rng.getrandbits(n * (n - 1) // 2)
    return graph_from_bits(n, bits)


@pytest.fixture
def rng():
    return random.Random(20240613)
