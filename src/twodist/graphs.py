"""Simple undirected graphs: construction, graph6 and edge-list parsing,
complements, joins, complete multipartite graphs, and the decomposition
into induced subgraphs on the connected components of the complement.

Graphs are immutable; adjacency is stored as one bitmask per vertex, which
keeps complement/join/permutation operations cheap and makes graphs
hashable (labeled equality)."""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .config import get_config
from .errors import GraphFormatError, SizeLimitError


@dataclass(frozen=True)
class Graph:
    """Simple graph on vertices 0..n-1; ``rows[i]`` has bit j set iff ij
    is an edge.  Symmetric, loop-free."""

    n: int
    rows: tuple[int, ...]

    def __post_init__(self):
        if self.n < 1 or len(self.rows) != self.n:
            raise ValueError("inconsistent vertex count")
        # Every set bit above the diagonal must be mirrored; then twice
        # their count equals all set bits exactly when none is unmirrored.
        upper = total = 0
        for i, row in enumerate(self.rows):
            if row >> self.n:
                raise ValueError("adjacency bits beyond vertex range")
            if row & (1 << i):
                raise ValueError("loops are not allowed")
            total += row.bit_count()
            above = row >> (i + 1) << (i + 1)
            while above:
                j = above.bit_length() - 1
                if not self.rows[j] >> i & 1:
                    raise ValueError("adjacency must be symmetric")
                above ^= 1 << j
                upper += 1
        if 2 * upper != total:
            raise ValueError("adjacency must be symmetric")

    @staticmethod
    def from_edges(n: int, edges) -> "Graph":
        rows = [0] * n
        for u, v in edges:
            if u == v or not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"bad edge ({u}, {v})")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return Graph(n, tuple(rows))

    @staticmethod
    def empty(n: int) -> "Graph":
        return Graph(n, (0,) * n)

    @staticmethod
    def complete(n: int) -> "Graph":
        full = (1 << n) - 1
        return Graph(n, tuple(full ^ (1 << i) for i in range(n)))

    @staticmethod
    def cycle(n: int) -> "Graph":
        return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])

    @staticmethod
    def path(n: int) -> "Graph":
        return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])

    @staticmethod
    def petersen() -> "Graph":
        # Kneser graph K(5,2): 2-subsets of {0..4}, adjacent iff disjoint.
        verts = list(itertools.combinations(range(5), 2))
        edges = [
            (i, j)
            for i, a in enumerate(verts)
            for j, b in enumerate(verts)
            if i < j and not set(a) & set(b)
        ]
        return Graph.from_edges(10, edges)

    def adjacency(self) -> np.ndarray:
        """The n x n adjacency matrix as 0/1 ``uint8``, for any n: each
        row's bitmask unpacked from its little-endian bytes."""
        width = (self.n + 7) // 8
        buf = b"".join([row.to_bytes(width, "little") for row in self.rows])
        bits = np.unpackbits(np.frombuffer(buf, np.uint8), bitorder="little")
        return bits.reshape(self.n, -1)[:, : self.n]

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.rows[u] & (1 << v))

    def degree(self, v: int) -> int:
        return self.rows[v].bit_count()

    def degrees(self) -> tuple[int, ...]:
        return tuple(r.bit_count() for r in self.rows)

    def edges(self) -> list[tuple[int, int]]:
        return [
            (i, j)
            for i in range(self.n)
            for j in range(i + 1, self.n)
            if self.rows[i] >> j & 1
        ]

    @property
    def edge_count(self) -> int:
        return sum(r.bit_count() for r in self.rows) // 2

    def permuted(self, perm: tuple[int, ...]) -> "Graph":
        """Relabel: new vertex i is old vertex perm[i]."""
        rows = [0] * self.n
        for i, old_i in enumerate(perm):
            r = self.rows[old_i]
            for j, old_j in enumerate(perm):
                if r >> old_j & 1:
                    rows[i] |= 1 << j
        return Graph(self.n, tuple(rows))

    def induced(self, vertices) -> "Graph":
        verts = list(vertices)
        index = {v: i for i, v in enumerate(verts)}
        rows = [0] * len(verts)
        for i, v in enumerate(verts):
            r = self.rows[v]
            for w, j in index.items():
                if r >> w & 1:
                    rows[i] |= 1 << j
        return Graph(len(verts), tuple(rows))


@dataclass(frozen=True)
class MultipartiteSignature:
    """Multiset of part sizes, stored largest first."""

    parts: tuple[int, ...]

    def __post_init__(self):
        if not self.parts or any(p < 1 for p in self.parts):
            raise ValueError("parts must be positive integers")
        object.__setattr__(self, "parts", tuple(sorted(self.parts, reverse=True)))

    @property
    def total(self) -> int:
        return sum(self.parts)

    def __len__(self) -> int:
        return len(self.parts)


# ---------------------------------------------------------------------------
# graph6 and edge-list formats
# ---------------------------------------------------------------------------


# The largest n of graph6's four-byte size form, ``~`` and 18 bits.
GRAPH6_MAX_N = 258047


def parse_graph6(text: str) -> Graph:
    """Decode a graph6 word: one size byte for n <= 62, or ``~`` and three
    bytes (18 bits, big-endian) for n <= 258047."""
    s = text.strip()
    if not s:
        raise GraphFormatError("empty graph6 word")
    try:
        data = s.encode("ascii")
    except UnicodeEncodeError as exc:
        raise GraphFormatError("graph6 word must be ASCII") from exc
    for b in data:
        if not 63 <= b <= 126:
            raise GraphFormatError(f"byte {b} outside graph6 range 63..126")
    if data[0] != 126:
        n, body = data[0] - 63, data[1:]
    elif data[1:2] == b"~":
        raise GraphFormatError(f"vertex counts above {GRAPH6_MAX_N} are not supported")
    elif len(data) < 4:
        raise GraphFormatError("truncated graph6 vertex count")
    else:
        n = (data[1] - 63) << 12 | (data[2] - 63) << 6 | (data[3] - 63)
        body = data[4:]
    if n < 1:
        raise GraphFormatError("graph must have at least one vertex")
    if n > get_config().max_n:
        raise SizeLimitError(f"n={n} exceeds configured maximum")
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(body) != nbytes:
        raise GraphFormatError(
            f"expected {nbytes} edge bytes for n={n}, got {len(body)}"
        )
    bits = []
    for b in body:
        v = b - 63
        bits.extend((v >> k) & 1 for k in range(5, -1, -1))
    if any(bits[nbits:]):
        raise GraphFormatError("nonzero padding bits")
    rows = [0] * n
    pos = 0
    for j in range(1, n):
        for i in range(j):
            if bits[pos]:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            pos += 1
    return Graph(n, tuple(rows))


def to_graph6(g: Graph) -> str:
    """Encode as a graph6 word, with the four-byte size form for n > 62."""
    if g.n > GRAPH6_MAX_N:
        raise ValueError(f"graph6 encodes n <= {GRAPH6_MAX_N}")
    bits = []
    for j in range(1, g.n):
        for i in range(j):
            bits.append(1 if g.has_edge(i, j) else 0)
    while len(bits) % 6:
        bits.append(0)
    size = [g.n] if g.n <= 62 else [63, g.n >> 12, g.n >> 6 & 63, g.n & 63]
    out = [chr(v + 63) for v in size]
    for k in range(0, len(bits), 6):
        val = 0
        for b in bits[k : k + 6]:
            val = (val << 1) | b
        out.append(chr(val + 63))
    return "".join(out)


def parse_edgelist(text: str) -> Graph:
    """Edge-list format: first line is n, then lines "u v" (0-based);
    '#' starts a comment."""
    lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    if not lines:
        raise GraphFormatError("empty edge-list input")
    try:
        n = int(lines[0])
    except ValueError as exc:
        raise GraphFormatError(f"bad vertex count line: {lines[0]!r}") from exc
    if n < 1:
        raise GraphFormatError("graph must have at least one vertex")
    if n > get_config().max_n:
        raise SizeLimitError(f"n={n} exceeds configured maximum")
    edges = []
    for line in lines[1:]:
        parts = line.split()
        if len(parts) != 2:
            raise GraphFormatError(f"bad edge line: {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise GraphFormatError(f"bad edge line: {line!r}") from exc
        if u == v or not (0 <= u < n and 0 <= v < n):
            raise GraphFormatError(f"edge ({u}, {v}) out of range")
        edges.append((u, v))
    return Graph.from_edges(n, edges)


def format_edgelist(g: Graph) -> str:
    lines = [str(g.n)]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Constructions
# ---------------------------------------------------------------------------


def _complement_rows(g: Graph) -> tuple[int, ...]:
    full = (1 << g.n) - 1
    return tuple((full ^ r) & ~(1 << i) for i, r in enumerate(g.rows))


def complement(g: Graph) -> Graph:
    return Graph(g.n, _complement_rows(g))


def join(g1: Graph, g2: Graph) -> Graph:
    """Disjoint union plus all cross edges; g1's vertices come first."""
    n = g1.n + g2.n
    if n > get_config().max_n:
        raise SizeLimitError(f"join has n={n}, above configured maximum")
    mask1 = (1 << g1.n) - 1
    mask2 = ((1 << g2.n) - 1) << g1.n
    rows = [r | mask2 for r in g1.rows]
    rows += [(r << g1.n) | mask1 for r in g2.rows]
    return Graph(n, tuple(rows))


def disjoint_union(g1: Graph, g2: Graph) -> Graph:
    n = g1.n + g2.n
    if n > get_config().max_n:
        raise SizeLimitError(f"union has n={n}, above configured maximum")
    rows = list(g1.rows) + [r << g1.n for r in g2.rows]
    return Graph(n, tuple(rows))


def complete_multipartite(sig: MultipartiteSignature) -> Graph:
    """All edges between different parts, none inside a part."""
    n = sig.total
    if n > get_config().max_n:
        raise SizeLimitError(f"|sigma|={n} exceeds configured maximum")
    blocks = []
    start = 0
    for size in sig.parts:
        blocks.append((start, start + size))
        start += size
    full = (1 << n) - 1
    rows = []
    for start, stop in blocks:
        part_mask = ((1 << (stop - start)) - 1) << start
        for v in range(start, stop):
            rows.append(full & ~part_mask)
    return Graph(n, tuple(rows))


def _component_sets(rows: tuple[int, ...]) -> list[list[int]]:
    """Vertex sets of the connected components of the graph with these
    adjacency rows, ordered by smallest vertex."""
    n = len(rows)
    seen = 0
    out = []
    for start in range(n):
        if seen >> start & 1:
            continue
        comp = 1 << start
        frontier = comp
        while frontier:
            nxt = 0
            f = frontier
            while f:
                v = (f & -f).bit_length() - 1
                f &= f - 1
                nxt |= rows[v]
            frontier = nxt & ~comp
            comp |= nxt
        seen |= comp
        out.append([v for v in range(n) if comp >> v & 1])
    return out


def connected_component_sets(g: Graph) -> list[list[int]]:
    """Vertex sets of connected components, ordered by smallest vertex."""
    return _component_sets(g.rows)


def is_connected(g: Graph) -> bool:
    return len(connected_component_sets(g)) == 1


def complement_component_sets(g: Graph) -> list[list[int]]:
    """Vertex sets of the complement's connected components, read from
    the complemented rows without building the complement."""
    return _component_sets(_complement_rows(g))


def complement_components(g: Graph) -> list[Graph]:
    """Induced subgraphs on the connected components of the complement;
    [g] itself when the complement is connected.

    Their join reconstructs g up to relabeling, and each factor's
    complement is connected (so the factors cannot be joined further).
    Components are ordered by their smallest original vertex."""
    sets = complement_component_sets(g)
    return [g] if len(sets) == 1 else [g.induced(vs) for vs in sets]


# ---------------------------------------------------------------------------
# Predicates
# ---------------------------------------------------------------------------


def is_complete(g: Graph) -> bool:
    return g.edge_count == g.n * (g.n - 1) // 2


def is_empty_graph(g: Graph) -> bool:
    return g.edge_count == 0


def is_disjoint_clique_union(g: Graph) -> bool:
    return all(is_complete(g.induced(vs)) for vs in connected_component_sets(g))


def is_complete_multipartite(g: Graph) -> bool:
    return is_disjoint_clique_union(complement(g))


def is_strongly_regular(g: Graph) -> bool:
    """Parameter test for strong regularity, primitive convention.

    Requires a k-regular graph, neither complete nor empty, with constant
    counts of common neighbours over adjacent pairs (lambda) and
    non-adjacent pairs (mu), and both the graph and its complement
    connected (equivalently 1 <= mu < k)."""
    n = g.n
    if n < 2:
        return False
    degs = set(g.degrees())
    if len(degs) != 1:
        return False
    k = degs.pop()
    if k < 1 or k > n - 2:
        return False
    lam = set()
    mu = set()
    for i in range(n):
        for j in range(i + 1, n):
            common = (g.rows[i] & g.rows[j]).bit_count()
            (lam if g.has_edge(i, j) else mu).add(common)
    if len(lam) > 1 or len(mu) > 1:
        return False
    mu_val = mu.pop() if mu else 0
    return 1 <= mu_val < k


# ---------------------------------------------------------------------------
# Canonical forms and enumeration up to isomorphism
# ---------------------------------------------------------------------------

_CANON_SEARCH_LIMIT = 10**6


def _refined_classes(g: Graph) -> list[list[int]]:
    """Stable ordered partition from iterated neighbour-colour refinement.

    The class order is determined by hashable colour signatures, so it is
    identical for isomorphic graphs."""
    color = {v: (g.degree(v),) for v in range(g.n)}
    while True:
        sig = {
            v: (color[v], tuple(sorted(color[w] for w in range(g.n) if g.has_edge(v, w))))
            for v in range(g.n)
        }
        classes = sorted({s for s in sig.values()})
        new = {v: (classes.index(sig[v]),) for v in range(g.n)}
        if len(set(new.values())) == len(set(color.values())):
            ordered = {}
            for v in range(g.n):
                ordered.setdefault(sig[v], []).append(v)
            return [ordered[s] for s in sorted(ordered)]
        color = new


def _bitstring(g: Graph, perm: tuple[int, ...]) -> int:
    key = 0
    rows = g.rows
    for i, old_i in enumerate(perm):
        r = rows[old_i]
        for old_j in perm[i + 1 :]:
            key = (key << 1) | (r >> old_j & 1)
    return key


@functools.lru_cache(maxsize=100_000)
def canonical_key(g: Graph) -> tuple[int, int]:
    """Isomorphism-invariant key: (n, minimal adjacency bitstring over all
    vertex orders compatible with the refined colour classes)."""
    classes = _refined_classes(g)
    space = 1
    for cls in classes:
        space *= functools.reduce(lambda a, b: a * b, range(1, len(cls) + 1), 1)
        if space > _CANON_SEARCH_LIMIT:
            raise ValueError("canonical form search space too large")
    best = None
    for parts in itertools.product(*(itertools.permutations(c) for c in classes)):
        perm = tuple(v for part in parts for v in part)
        key = _bitstring(g, perm)
        if best is None or key < best:
            best = key
    return (g.n, best)


def canonical_form(g: Graph) -> Graph:
    """A canonical representative of the isomorphism class of g."""
    n, bits = canonical_key(g)
    edges = []
    pos = n * (n - 1) // 2
    for i in range(n):
        for j in range(i + 1, n):
            pos -= 1
            if bits >> pos & 1:
                edges.append((i, j))
    return Graph.from_edges(n, edges)


def are_isomorphic(g1: Graph, g2: Graph) -> bool:
    return g1.n == g2.n and canonical_key(g1) == canonical_key(g2)


@functools.lru_cache(maxsize=None)
def enumerate_graphs(n: int) -> tuple[Graph, ...]:
    """All graphs on n vertices up to isomorphism (canonical
    representatives, deterministic order).  Grows one vertex at a time,
    deduplicating by canonical key."""
    if n < 1:
        raise ValueError("n must be positive")
    if n == 1:
        return (Graph.empty(1),)
    out: dict[tuple[int, int], Graph] = {}
    for base in enumerate_graphs(n - 1):
        for mask in range(1 << (n - 1)):
            rows = [r | ((mask >> i & 1) << (n - 1)) for i, r in enumerate(base.rows)]
            rows.append(mask)
            g = Graph(n, tuple(rows))
            key = canonical_key(g)
            if key not in out:
                out[key] = canonical_form(g)
    return tuple(out[k] for k in sorted(out))
