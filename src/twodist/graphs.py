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
        # Hashed once: every lru_cache lookup on a graph reads it.
        object.__setattr__(self, "_hash", hash((self.n, self.rows)))

    def __hash__(self) -> int:
        return self._hash

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
        """The n x n adjacency matrix as read-only 0/1 ``uint8``, for any
        n: each row's bitmask unpacked from its little-endian bytes, once
        per graph."""
        return self._adjacency

    @functools.cached_property
    def _adjacency(self) -> np.ndarray:
        width = (self.n + 7) // 8
        buf = b"".join([row.to_bytes(width, "little") for row in self.rows])
        bits = np.unpackbits(np.frombuffer(buf, np.uint8), bitorder="little")
        matrix = bits.reshape(self.n, -1)[:, : self.n]
        matrix.flags.writeable = False
        return matrix

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


# graph6 packs six bits a byte, the first bit highest; _REVERSED6[v] is v
# with its six bits in reverse order, so the first bit comes lowest.
_REVERSED6 = tuple(int(f"{v:06b}"[::-1], 2) for v in range(64))


def parse_graph6(text: str) -> Graph:
    """Decode a graph6 word: one size byte for n <= 62, or ``~`` and three
    bytes (18 bits, big-endian) for n <= 258047.  The body is read into one
    integer whose bit p is the word's p-th edge bit; the bits of column j
    (the pairs ij, i < j) are then j adjacent bits of it."""
    s = text.strip()
    if not s:
        raise GraphFormatError("empty graph6 word")
    try:
        data = s.encode("ascii")
    except UnicodeEncodeError as exc:
        raise GraphFormatError("graph6 word must be ASCII") from exc
    if min(data) < 63 or max(data) > 126:
        b = next(b for b in data if not 63 <= b <= 126)
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
    bits = 0
    for b in reversed(body):
        bits = bits << 6 | _REVERSED6[b - 63]
    if bits >> nbits:
        raise GraphFormatError("nonzero padding bits")
    rows = [0] * n
    for j in range(1, n):
        column = bits >> (j * (j - 1) // 2) & ((1 << j) - 1)
        rows[j] = column
        while column:
            i = (column & -column).bit_length() - 1
            column &= column - 1
            rows[i] |= 1 << j
    return Graph(n, tuple(rows))


def to_graph6(g: Graph) -> str:
    """Encode as a graph6 word, with the four-byte size form for n > 62:
    the columns' bits gathered into one integer as ``parse_graph6`` reads
    them, then cut into six-bit bytes."""
    if g.n > GRAPH6_MAX_N:
        raise ValueError(f"graph6 encodes n <= {GRAPH6_MAX_N}")
    bits = 0
    for j in range(g.n - 1, 0, -1):
        bits = bits << j | g.rows[j] & ((1 << j) - 1)
    size = [g.n] if g.n <= 62 else [63, g.n >> 12, g.n >> 6 & 63, g.n & 63]
    out = [chr(v + 63) for v in size]
    for k in range(0, g.n * (g.n - 1) // 2, 6):
        out.append(chr(_REVERSED6[bits >> k & 63] + 63))
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

def _refined_cells(rows: tuple[int, ...]) -> list[int]:
    """Stable ordered partition from iterated neighbour-colour refinement,
    as one vertex bitmask per class.

    A vertex's colour starts as the rank of its degree.  Each round keys a
    vertex by its colour and, per colour, the negated count of its
    neighbours of that colour (descending counts order as the ascending
    sorted tuples of neighbour colours do), and ranks the keys into the
    next colours, until no class splits.  The class order comes from the
    keys, so it is identical for isomorphic graphs, and it refines the
    degree order: the last class holds vertices of maximum degree."""
    n = len(rows)
    degrees = [r.bit_count() for r in rows]
    levels = sorted(set(degrees))
    color = [levels.index(d) for d in degrees]
    count = len(levels)
    while True:
        masks = [0] * count
        for v, c in enumerate(color):
            masks[c] |= 1 << v
        if count == n:
            return masks
        keys = [(color[v], tuple([-(rows[v] & m).bit_count() for m in masks])) for v in range(n)]
        ranks = sorted(set(keys))
        if len(ranks) == count:
            return masks
        index = {key: i for i, key in enumerate(ranks)}
        color = [index[key] for key in keys]
        count = len(ranks)


def _split(row: int, cells: list[int]) -> tuple[int, list[int]]:
    """The least row a vertex with adjacency ``row`` gets over cells placed
    in order, each cell's non-neighbours before its neighbours, and the
    cells split that way (empty parts dropped)."""
    bits = 0
    out = []
    for m in cells:
        nbrs = m & row
        rest = m ^ nbrs
        bits = (bits << m.bit_count()) | ((1 << nbrs.bit_count()) - 1)
        if rest:
            out.append(rest)
        if nbrs:
            out.append(nbrs)
    return bits, out


class _Node:
    """A branching node of ``_leader_search``: position k, the vertices
    placed before it (``fixed``), whether its rows so far equal the least
    leaf's (``tied``), the least row k of its children and those children,
    the next child to try, and what its search has found so far."""

    __slots__ = (
        "k", "fixed", "tied", "least", "children", "next", "known", "replaced", "searched", "seen",
    )

    def __init__(
        self,
        k: int,
        fixed: int,
        tied: bool,
        least: int,
        children: list[tuple[int, list[int]]],
        known: int,
    ) -> None:
        self.k, self.fixed, self.tied, self.least = k, fixed, tied, least
        self.children, self.next, self.known = children, 0, known
        self.replaced = False
        self.searched = self.seen = 0


def _leader_search(rows: tuple[int, ...], cells: list[int]) -> int:
    """The least row-major upper-triangle bitstring over the vertex orders
    that list ``cells`` in order, each cell in any order.

    Positions are filled left to right.  At position k each vertex of the
    cell holding k is tried; ``_split`` gives row k its least value and
    splits the later cells, and a branch whose rows so far exceed the
    least leaf's is cut.  A leaf equal to the least one gives an
    automorphism, and the search returns to where the two paths part: the
    rest of that subtree is the image of one already searched.  A branch
    is skipped when a searched sibling lies in its orbit under the twin
    transpositions and the automorphisms found that fix the prefix."""
    n = len(rows)
    perm = [0] * n
    path = [0] * n
    best: list[int] = []
    best_perm: list[int] = []
    autos: list[tuple[list[int], int]] = []
    # twins[v]: v and the vertices whose transposition with v is an
    # automorphism (same neighbours apart from each other).
    groups: dict[tuple[int, int], int] = {}
    for v, r in enumerate(rows):
        groups[0, r] = groups.get((0, r), 0) | 1 << v
        groups[1, r | 1 << v] = groups.get((1, r | 1 << v), 0) | 1 << v
    twins = [groups[0, r] | groups[1, r | 1 << v] for v, r in enumerate(rows)]
    jump = n

    def orbit(v: int, fixed: int) -> int:
        gens = [img for img, fix in autos if fixed & ~fix == 0]
        orb = frontier = 1 << v
        while frontier:
            w = (frontier & -frontier).bit_length() - 1
            frontier &= frontier - 1
            new = twins[w] & ~fixed
            for img in gens:
                new |= 1 << img[w]
            new &= ~orb
            orb |= new
            frontier |= new
        return orb

    def enter(k: int, cells: list[int], fixed: int, tied: bool) -> bool | _Node:
        """Place the forced vertices below a node whose rows before k equal
        the least leaf's (``tied``) or are smaller.  A leaf or a cut ends
        its search: True when it replaced the least leaf, else False.  A
        branching node is returned to be searched."""
        nonlocal best, best_perm, jump
        while cells and not cells[0] & (cells[0] - 1):
            v = cells[0].bit_length() - 1
            row, cells = _split(rows[v], cells[1:])
            if tied:
                if row > best[k]:
                    return False
                tied = row == best[k]
            perm[k] = v
            path[k] = row
            fixed |= 1 << v
            k += 1
        if not cells:
            if not tied:
                best, best_perm = path[:], perm[:]
                return True
            img = list(range(n))
            fix = 0
            for a, b in zip(best_perm, perm):
                img[a] = b
                fix |= (a == b) << a
            autos.append((img, fix))
            jump = next(i for i in range(n) if best_perm[i] != perm[i])
            return False
        # Only the children whose row k is least among siblings can lead
        # to the least leaf.
        first, later = cells[0], cells[1:]
        least = -1
        children = []
        todo = first
        while todo:
            v = (todo & -todo).bit_length() - 1
            todo &= todo - 1
            row, sub = _split(rows[v], [first ^ 1 << v, *later])
            if least < 0 or row < least:
                least, children = row, []
            if row == least:
                children.append((v, sub))
        if tied and least > best[k]:
            return False
        path[k] = least
        return _Node(k, fixed, tied, least, children, len(autos))

    # Depth-first over an explicit stack of branching nodes, so the depth
    # of the search is not bounded by Python's recursion limit.  ``got`` is
    # a node to search, or how the search below the top node's current
    # child ended.
    stack: list[_Node] = []
    got = enter(0, cells, 0, False)
    while True:
        if isinstance(got, _Node):
            stack.append(got)
        elif not stack:
            break
        else:
            node = stack[-1]
            if got:
                node.replaced = node.tied = True
            if jump < node.k:
                stack.pop()
                got = node.replaced
                continue
            jump = n
        node = stack[-1]
        child = None
        while node.next < len(node.children):
            v, sub = node.children[node.next]
            node.next += 1
            if len(autos) != node.known:
                node.known = len(autos)
                node.seen = 0
                rest = node.searched
                while rest:
                    u = (rest & -rest).bit_length() - 1
                    rest &= rest - 1
                    node.seen |= orbit(u, node.fixed)
            if not node.seen >> v & 1:
                child = v, sub
                break
        if child is None:
            stack.pop()
            got = node.replaced
            continue
        v, sub = child
        node.searched |= 1 << v
        node.seen |= orbit(v, node.fixed)
        perm[node.k] = v
        got = enter(node.k + 1, sub, node.fixed | 1 << v, node.tied and node.least == best[node.k])
    key = 0
    for k, row in enumerate(best):
        key = (key << (n - 1 - k)) | row
    return key


@functools.lru_cache(maxsize=100_000)
def canonical_key(g: Graph) -> tuple[int, int]:
    """Isomorphism-invariant key: (n, least row-major upper-triangle
    adjacency bitstring over all vertex orders that list the refined
    colour classes in order).  Found by a lexicographic leader search
    (``_leader_search``) with no cap on its size."""
    return (g.n, _leader_search(g.rows, _refined_cells(g.rows)))


def _from_key(n: int, bits: int) -> Graph:
    """The graph whose row-major upper-triangle bitstring is ``bits``."""
    rows = [0] * n
    pos = n * (n - 1) // 2
    for i in range(n):
        for j in range(i + 1, n):
            pos -= 1
            if bits >> pos & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return Graph(n, tuple(rows))


def canonical_form(g: Graph) -> Graph:
    """A canonical representative of the isomorphism class of g."""
    return _from_key(*canonical_key(g))


def are_isomorphic(g1: Graph, g2: Graph) -> bool:
    return g1.n == g2.n and canonical_key(g1) == canonical_key(g2)


@functools.lru_cache(maxsize=None)
def enumerate_graphs(n: int) -> tuple[Graph, ...]:
    """All graphs on n vertices up to isomorphism (canonical
    representatives, ordered by canonical key).

    Grows each graph on n - 1 vertices by a vertex joined to a mask of
    them, on bit rows.  Every class has a growth whose new vertex lies in
    the last refined class (the class order is isomorphism-invariant), so
    only those are keyed; that class has maximum degree, which is tested
    first."""
    if n < 1:
        raise ValueError("n must be positive")
    if n == 1:
        return (Graph.empty(1),)
    new = 1 << (n - 1)
    keys = set()
    for base in enumerate_graphs(n - 1):
        rows = base.rows
        top = max(r.bit_count() for r in rows)
        at_top = sum(1 << v for v, r in enumerate(rows) if r.bit_count() == top)
        for mask in range(new):
            if mask.bit_count() < top + (mask & at_top > 0):
                continue
            ext = tuple([r | new if mask >> v & 1 else r for v, r in enumerate(rows)]) + (mask,)
            cells = _refined_cells(ext)
            if cells[-1] & new:
                keys.add(_leader_search(ext, cells))
    return tuple(_from_key(n, bits) for bits in sorted(keys))
