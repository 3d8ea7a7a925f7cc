import random
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings

from conftest import clebsch, graph_from_bits, graphs, paley, random_graph, schlafli, triangular
from reference import brute_force_key, refined_classes
from twodist.config import override
from twodist.errors import GraphFormatError, SizeLimitError
from twodist.graphs import (
    Graph,
    MultipartiteSignature,
    _refined_cells,
    are_isomorphic,
    canonical_form,
    canonical_key,
    complement,
    complement_components,
    complete_multipartite,
    disjoint_union,
    enumerate_graphs,
    format_edgelist,
    is_complete,
    is_complete_multipartite,
    is_connected,
    is_disjoint_clique_union,
    is_empty_graph,
    is_strongly_regular,
    join,
    parse_edgelist,
    parse_graph6,
    to_graph6,
)


class TestGraphType:
    def test_construction_and_queries(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        assert g.has_edge(0, 1) and g.has_edge(1, 0)
        assert not g.has_edge(0, 2)
        assert g.edges() == [(0, 1), (2, 3)]
        assert g.degrees() == (1, 1, 1, 1)
        assert g.edge_count == 2

    def test_rejects_loops_and_asymmetry(self):
        with pytest.raises(ValueError):
            Graph(2, (1, 2))  # loop at 0
        with pytest.raises(ValueError):
            Graph(2, (2, 0))  # asymmetric
        with pytest.raises(ValueError):
            Graph(2, (0, 1))  # a bit below the diagonal only
        with pytest.raises(ValueError):
            Graph(3, (2, 4, 1))  # the directed triangle 0 -> 1 -> 2 -> 0
        with pytest.raises(ValueError):
            Graph.from_edges(2, [(0, 0)])

    def test_builders(self):
        assert Graph.complete(4).edge_count == 6
        assert Graph.cycle(5).degrees() == (2,) * 5
        assert Graph.path(4).edge_count == 3
        pet = Graph.petersen()
        assert pet.n == 10 and pet.edge_count == 15
        assert pet.degrees() == (3,) * 10

    def test_induced_and_permuted(self):
        g = Graph.path(4)
        h = g.induced([1, 2, 3])
        assert h.edges() == [(0, 1), (1, 2)]
        p = g.permuted((3, 2, 1, 0))
        assert are_isomorphic(g, p)

    def test_signature_sorting(self):
        sig = MultipartiteSignature((1, 4, 2))
        assert sig.parts == (4, 2, 1)
        assert sig.total == 7
        with pytest.raises(ValueError):
            MultipartiteSignature((0, 2))


def bit_list_graph6(g):
    """graph6 by its definition: the pairs ij, i < j, column by column,
    as a list of bits padded to a multiple of six, six bits a byte."""
    bits = [int(g.has_edge(i, j)) for j in range(1, g.n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    n = g.n
    size = [n] if n <= 62 else [63, n >> 12, n >> 6 & 63, n & 63]
    body = [int("".join(map(str, bits[k : k + 6])), 2) for k in range(0, len(bits), 6)]
    return "".join(chr(v + 63) for v in size + body)


class TestAdjacency:
    @pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 16, 63, 64, 65, 100])
    def test_matches_edges(self, n):
        # any n: row masks past 63 bits do not fit an int64
        g = random_graph(random.Random(n), n)
        a = g.adjacency()
        assert a.shape == (n, n) and a.dtype == np.uint8
        expect = [[int(g.has_edge(i, j)) for j in range(n)] for i in range(n)]
        assert a.tolist() == expect

    def test_read_only_and_built_once(self):
        g = random_graph(random.Random(5), 9)
        a = g.adjacency()
        assert g.adjacency() is a
        with pytest.raises(ValueError, match="read-only"):
            a[0, 1] = 1 - a[0, 1]
        assert a.tolist() == Graph(g.n, g.rows).adjacency().tolist()

    def test_equal_graphs_hash_equal(self):
        rng = random.Random(6)
        for n in (1, 5, 16, 70):
            g = random_graph(rng, n)
            twin = Graph(n, tuple(list(g.rows)))
            assert twin == g and twin is not g and hash(twin) == hash(g)
            assert {g: n}[twin] == n
        assert hash(Graph.cycle(5)) != hash(Graph.path(5))

    def test_cycle_64(self):
        a = Graph.cycle(64).adjacency()
        assert (a == a.T).all() and (a.sum(axis=1) == 2).all()
        assert a[0, 63] == a[63, 0] == a[0, 1] == 1 and a[0, 2] == 0


class TestGraph6:
    def test_single_vertex(self):
        g = parse_graph6("@")
        assert g.n == 1 and g.edges() == []

    def test_two_vertices_no_edge(self):
        g = parse_graph6("A?")
        assert g.n == 2 and g.edges() == []

    def test_two_vertices_edge(self):
        # Frozen after checking a reference encoder (networkx) below.
        g = parse_graph6("A_")
        assert g.n == 2 and g.edges() == [(0, 1)]

    def test_reference_encoder_agreement(self):
        nx = pytest.importorskip("networkx")
        ref = nx.from_graph6_bytes(b"A_")
        assert sorted(ref.edges()) == [(0, 1)]
        for g in enumerate_graphs(5):
            nxg = nx.Graph()
            nxg.add_nodes_from(range(g.n))
            nxg.add_edges_from(g.edges())
            ref_word = nx.to_graph6_bytes(nxg, header=False).decode().strip()
            assert to_graph6(g) == ref_word

    def test_round_trip_small(self):
        for n in range(1, 7):
            for g in enumerate_graphs(n):
                assert parse_graph6(to_graph6(g)) == g

    @given(graphs(max_n=8))
    @settings(max_examples=80, deadline=None)
    def test_round_trip_random(self, g):
        assert parse_graph6(to_graph6(g)) == g

    def test_malformed_length(self):
        with pytest.raises(GraphFormatError):
            parse_graph6("B")  # n=3 needs one edge byte
        with pytest.raises(GraphFormatError):
            parse_graph6("A__")  # too many bytes

    def test_byte_out_of_range(self):
        with pytest.raises(GraphFormatError):
            parse_graph6("A" + chr(20))
        with pytest.raises(GraphFormatError):
            parse_graph6(chr(200))

    def test_nonzero_padding(self):
        # n=2 uses only the top bit of the edge byte.
        with pytest.raises(GraphFormatError):
            parse_graph6("AA")

    def test_size_limit(self):
        with override(max_n=4):
            with pytest.raises(SizeLimitError):
                parse_graph6(to_graph6(Graph.empty(5)))

    def test_extended_sizes_rejected(self):
        with pytest.raises(GraphFormatError):
            parse_graph6("~??")

    @pytest.mark.parametrize("n", [63, 64, 100])
    def test_long_size_form_against_networkx(self, n):
        # n > 62 takes the four-byte size form "~" + 18 bits
        nx = pytest.importorskip("networkx")
        g = random_graph(random.Random(n), n)
        nxg = nx.Graph()
        nxg.add_nodes_from(range(n))
        nxg.add_edges_from(g.edges())
        word = nx.to_graph6_bytes(nxg, header=False).decode().strip()
        assert word[0] == "~" and to_graph6(g) == word
        with override(max_n=n):
            assert parse_graph6(word) == g
        back = nx.from_graph6_bytes(to_graph6(g).encode())
        assert sorted(tuple(sorted(e)) for e in back.edges()) == g.edges()

    def test_seeded_round_trip_against_bit_list_encoder(self):
        # one word per n up to 70, the four-byte size form from 63 on, at
        # densities from empty to complete
        rng = random.Random(39)
        with override(max_n=70):
            for n in range(1, 71):
                p = rng.choice((0.0, 0.1, 0.5, 0.9, 1.0))
                g = Graph.from_edges(
                    n, [(i, j) for j in range(n) for i in range(j) if rng.random() < p]
                )
                word = bit_list_graph6(g)
                assert (word[0] == "~") == (n > 62)
                assert to_graph6(g) == word, n
                assert parse_graph6(word) == g, n

    def test_long_size_form_limits(self):
        with override(max_n=70):
            with pytest.raises(SizeLimitError):
                parse_graph6(to_graph6(Graph.empty(71)))
            with pytest.raises(GraphFormatError):
                parse_graph6("~~" + "?" * 6)  # the eight-byte form, n > 258047
            with pytest.raises(GraphFormatError):
                parse_graph6(to_graph6(Graph.empty(64))[:-1])  # one edge byte short


class TestEdgeList:
    def test_round_trip(self):
        g = Graph.from_edges(4, [(0, 1), (1, 3)])
        assert parse_edgelist(format_edgelist(g)) == g

    def test_comments_and_blanks(self):
        text = "# a graph\n3\n0 1  # edge\n\n1 2\n"
        g = parse_edgelist(text)
        assert g.edges() == [(0, 1), (1, 2)]

    def test_errors(self):
        with pytest.raises(GraphFormatError):
            parse_edgelist("")
        with pytest.raises(GraphFormatError):
            parse_edgelist("x\n")
        with pytest.raises(GraphFormatError):
            parse_edgelist("2\n0 5\n")
        with pytest.raises(GraphFormatError):
            parse_edgelist("2\n0\n")


class TestComplementJoin:
    def test_complement_k3(self):
        assert complement(Graph.complete(3)) == Graph.empty(3)

    @given(graphs(max_n=8))
    @settings(max_examples=60, deadline=None)
    def test_complement_involution(self, g):
        assert complement(complement(g)) == g

    def test_c5_self_complementary(self):
        c5 = Graph.cycle(5)
        assert are_isomorphic(c5, complement(c5))

    def test_join_basic(self):
        assert join(Graph.empty(2), Graph.empty(2)) == complete_multipartite(
            MultipartiteSignature((2, 2))
        )
        assert join(Graph.empty(1), Graph.empty(1)) == Graph.complete(2)

    def test_join_vertex_order(self):
        g = join(Graph.complete(2), Graph.empty(2))
        assert g.has_edge(0, 1)
        assert not g.has_edge(2, 3)
        assert g.has_edge(0, 2) and g.has_edge(1, 3)

    def test_join_size_limit(self):
        with override(max_n=3):
            with pytest.raises(SizeLimitError):
                join(Graph.empty(2), Graph.empty(2))

    @given(graphs(max_n=4), graphs(max_n=4))
    @settings(max_examples=60, deadline=None)
    def test_de_morgan(self, g1, g2):
        assert complement(join(g1, g2)) == disjoint_union(
            complement(g1), complement(g2)
        )


class TestMultipartite:
    def test_square(self):
        g = complete_multipartite(MultipartiteSignature((2, 2)))
        assert are_isomorphic(g, Graph.cycle(4))

    def test_all_ones_is_complete(self):
        g = complete_multipartite(MultipartiteSignature((1, 1, 1, 1)))
        assert g == Graph.complete(4)

    def test_octahedron(self):
        g = complete_multipartite(MultipartiteSignature((2, 2, 2)))
        assert g.n == 6 and g.edge_count == 12
        assert g == join(Graph.empty(2), join(Graph.empty(2), Graph.empty(2)))

    def test_equals_iterated_join_of_empties(self):
        sig = MultipartiteSignature((3, 2, 1))
        g = complete_multipartite(sig)
        expect = join(Graph.empty(3), join(Graph.empty(2), Graph.empty(1)))
        assert g == expect

    def test_size_limit(self):
        with override(max_n=4):
            with pytest.raises(SizeLimitError):
                complete_multipartite(MultipartiteSignature((3, 2)))


class TestComplementComponents:
    def test_octahedron(self):
        g = complete_multipartite(MultipartiteSignature((2, 2, 2)))
        comps = complement_components(g)
        assert [(c.n, c.edge_count) for c in comps] == [(2, 0)] * 3

    def test_c5_prime(self):
        comps = complement_components(Graph.cycle(5))
        assert len(comps) == 1 and comps[0] == Graph.cycle(5)

    def test_path3(self):
        comps = complement_components(Graph.path(3))
        assert [(c.n, c.edge_count) for c in comps] == [(2, 0), (1, 0)]

    def test_component_order_by_smallest_vertex(self):
        # complement of K2 u K1 u K2 (vertices 0,1 | 2 | 3,4)
        g = complement(Graph.from_edges(5, [(0, 1), (3, 4)]))
        comps = complement_components(g)
        assert [c.n for c in comps] == [2, 1, 2]

    def test_join_of_components_reconstructs(self):
        # Exhaustive on n <= 6: joining the factors back gives the graph
        # up to relabeling.
        for n in range(1, 7):
            for g in enumerate_graphs(n):
                comps = complement_components(g)
                rebuilt = comps[0]
                for h in comps[1:]:
                    rebuilt = join(rebuilt, h)
                assert are_isomorphic(rebuilt, g)

    def test_factors_are_join_indecomposable(self):
        for n in range(2, 7):
            for g in enumerate_graphs(n):
                for h in complement_components(g):
                    assert is_connected(complement(h))


class TestPredicates:
    def test_complete_empty(self):
        assert is_complete(Graph.complete(4))
        assert not is_complete(Graph.path(3))
        assert is_complete(Graph.empty(1))
        assert is_empty_graph(Graph.empty(3))

    def test_disjoint_clique_union(self):
        assert is_disjoint_clique_union(Graph.from_edges(5, [(0, 1), (2, 3), (2, 4), (3, 4)]))
        assert not is_disjoint_clique_union(Graph.path(3))
        assert is_disjoint_clique_union(Graph.empty(4))

    def test_complete_multipartite_predicate(self):
        assert is_complete_multipartite(complete_multipartite(MultipartiteSignature((3, 2))))
        assert is_complete_multipartite(Graph.complete(3))
        assert not is_complete_multipartite(Graph.path(4))

    def test_strongly_regular(self):
        assert is_strongly_regular(Graph.cycle(5))
        assert is_strongly_regular(Graph.petersen())
        # imprimitive parameter sets are excluded by convention
        assert not is_strongly_regular(Graph.cycle(4))
        assert not is_strongly_regular(complete_multipartite(MultipartiteSignature((2, 2, 2))))
        assert not is_strongly_regular(Graph.cycle(6))
        assert not is_strongly_regular(Graph.complete(4))
        assert not is_strongly_regular(Graph.empty(4))
        assert not is_strongly_regular(Graph.from_edges(4, [(0, 1), (2, 3)]))


class TestCanonical:
    def test_isomorphic_relabelings(self, rng):
        for _ in range(25):
            n = rng.randrange(2, 8)
            g = random_graph(rng, n)
            perm = tuple(rng.sample(range(n), n))
            assert are_isomorphic(g, g.permuted(perm))
            assert canonical_form(g) == canonical_form(g.permuted(perm))

    def test_non_isomorphic(self):
        assert not are_isomorphic(Graph.path(4), Graph.cycle(4))
        assert not are_isomorphic(Graph.cycle(6), disjoint_union(Graph.cycle(3), Graph.cycle(3)))

    def test_canonical_form_is_isomorphic(self, rng):
        for _ in range(10):
            g = random_graph(rng, 6)
            assert are_isomorphic(g, canonical_form(g))

    @pytest.mark.parametrize("n", range(1, 8))
    def test_matches_brute_force(self, n):
        # every class with n <= 7, under three seeded relabelings each:
        # the leader search's key is the least bitstring over all orders
        rng = random.Random(n)
        for g in enumerate_graphs(n):
            expect = brute_force_key(g)
            for _ in range(3):
                h = g.permuted(tuple(rng.sample(range(n), n)))
                cells = [[v for v in range(n) if cell >> v & 1] for cell in _refined_cells(h.rows)]
                assert cells == refined_classes(h)
                assert canonical_key(h) == expect, to_graph6(h)

    @pytest.mark.parametrize("n", [8, 9])
    def test_matches_brute_force_random(self, n):
        # edge densities 1/2, 1/4 and 3/4, each graph also relabelled
        rng = random.Random(n)
        for i in range(30):
            a, b = (rng.getrandbits(n * (n - 1) // 2) for _ in range(2))
            g = graph_from_bits(n, (a, a & b, a | b)[i % 3])
            h = g.permuted(tuple(rng.sample(range(n), n)))
            expect = brute_force_key(g)
            assert canonical_key(g) == canonical_key(h) == expect, to_graph6(g)

    def test_deep_search_needs_no_recursion(self):
        # the empty graph's search branches at each of its 150 positions;
        # its nodes sit on a stack of the search's own, so a recursion
        # limit 30 frames above the caller's depth gives the default's key
        g = Graph.empty(150)
        limit = sys.getrecursionlimit()
        with override(max_n=200):
            canonical_key.cache_clear()
            expect = canonical_key(g)
            canonical_key.cache_clear()
            depth = 0
            frame = sys._getframe()
            while frame is not None:
                depth, frame = depth + 1, frame.f_back
            sys.setrecursionlimit(depth + 30)
            try:
                got = canonical_key(g)
            finally:
                sys.setrecursionlimit(limit)
                canonical_key.cache_clear()
        assert sys.getrecursionlimit() == limit
        assert got == expect == (150, 0)


def two_switch(g: Graph, rng: random.Random) -> Graph:
    """g with edges ab, cd replaced by non-edges ac, bd: the same degree
    sequence."""
    edges = g.edges()
    while True:
        (a, b), (c, d) = rng.sample(edges, 2)
        if len({a, b, c, d}) == 4 and not g.has_edge(a, c) and not g.has_edge(b, d):
            kept = set(edges) - {(a, b), (c, d)}
            return Graph.from_edges(g.n, [*kept, (a, c), (b, d)])


class TestNamedSymmetricGraphs:
    """Vertex-transitive strongly regular graphs, whose refined classes
    are single classes of n vertices: each decision against a relabelled
    copy and against a 2-switched copy, which keeps the degree sequence and
    loses strong regularity, so it is not isomorphic."""

    @pytest.mark.parametrize(
        "build",
        [Graph.petersen, clebsch, lambda: paley(29), schlafli, lambda: triangular(8)],
        ids=["Petersen", "Clebsch", "Paley(29)", "Schlafli", "T(8)"],
    )
    def test_decisions(self, build):
        rng = random.Random(29)
        g = build()
        assert is_strongly_regular(g)
        other = two_switch(g, rng)
        assert other.degrees() == g.degrees() and not is_strongly_regular(other)
        for h, same in ((g, True), (other, False)):
            relabelled = h.permuted(tuple(rng.sample(range(g.n), g.n)))
            canonical_key.cache_clear()
            start = time.perf_counter()
            assert are_isomorphic(g, relabelled) is same
            assert (canonical_form(g) == canonical_form(relabelled)) is same
            assert time.perf_counter() - start < 2.0

    def test_relabelings_agree(self):
        # past brute force's reach, the key must not depend on the labels:
        # the named graphs, C20, the 5-cube and two Petersens, each also
        # 2-switched, under twelve seeded relabelings each
        rng = random.Random(5)
        cube = Graph.from_edges(32, [(u, u | 1 << b) for u in range(32) for b in range(5) if not u >> b & 1])
        named = [Graph.petersen(), clebsch(), paley(29), schlafli(), triangular(8)]
        with override(max_n=20):
            named += [Graph.cycle(20), cube, disjoint_union(Graph.petersen(), Graph.petersen())]
        for g in named + [two_switch(g, rng) for g in named]:
            keys = {canonical_key(g.permuted(tuple(rng.sample(range(g.n), g.n)))) for _ in range(12)}
            assert len(keys) == 1, to_graph6(g)


class TestEnumeration:
    def test_counts(self):
        # OEIS A000088
        expect = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044}
        for n, count in expect.items():
            assert len(enumerate_graphs(n)) == count

    def test_no_duplicates(self):
        seen = set()
        for g in enumerate_graphs(5):
            key = canonical_form(g)
            assert key not in seen
            seen.add(key)

    def test_matches_networkx_atlas(self):
        nx = pytest.importorskip("networkx")
        from networkx.generators.atlas import graph_atlas_g

        atlas = [a for a in graph_atlas_g() if a.number_of_nodes() == 5]
        assert len(atlas) == len(enumerate_graphs(5))
