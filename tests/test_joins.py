import math

import pytest

from conftest import joins12_corpus, random_graph
from twodist.geometry import beta_star_numeric, solve_phi
from twodist.graphs import (
    Graph,
    MultipartiteSignature,
    complement_component_sets,
    complete_multipartite,
    enumerate_graphs,
    is_complete,
    join,
)
from twodist.invariants import profile
from twodist.joins import dims_via_join, join_decompose, multipartite_dims


def all_signatures(total, max_parts=None):
    """All multiset part signatures summing to total (descending)."""

    def parts(remaining, cap):
        if remaining == 0:
            yield ()
            return
        for first in range(min(cap, remaining), 0, -1):
            for rest in parts(remaining - first, first):
                yield (first,) + rest

    return [s for s in parts(total, total) if max_parts is None or len(s) <= max_parts]


class TestJoinDecompose:
    def test_octahedron(self):
        g = complete_multipartite(MultipartiteSignature((2, 2, 2)))
        fz = join_decompose(g)
        assert fz.k == 3
        assert [h.n for h in fz.factors] == [2, 2, 2]
        assert all(abs(b - 2.0) < 1e-8 for b in fz.beta_stars)

    def test_path3(self):
        fz = join_decompose(Graph.path(3))
        assert fz.k == 1
        assert [h.n for h in fz.factors] == [2, 1]
        assert abs(fz.beta_stars[0] - 2.0) < 1e-8
        assert math.isinf(fz.beta_stars[1])

    def test_pentagon_prime(self):
        fz = join_decompose(Graph.cycle(5))
        assert len(fz.factors) == 1 and fz.k == 1

    def test_complete_graph_all_infinite(self):
        fz = join_decompose(Graph.complete(3))
        assert len(fz.factors) == 3
        assert fz.k == 0
        assert all(math.isinf(b) for b in fz.beta_stars)

    def test_relabelled_copies_tie_exactly(self):
        # Two copies of one factor under different labelings form the
        # minimal group, decided by exact comparison of beta*^2.
        for h in (Graph.path(4), Graph.cycle(5), Graph.empty(3)):
            perm = tuple(reversed(range(h.n)))
            fz = join_decompose(join(h, h.permuted(perm)))
            assert len(fz.factors) == 2 and fz.k == 2
            first, second = (profile(f).beta_star_squared for f in fz.factors)
            assert first.compare(second) == 0

    def test_beta_stars_sorted(self, rng):
        for _ in range(10):
            g = random_graph(rng, rng.randrange(2, 8))
            fz = join_decompose(g)
            assert list(fz.beta_stars) == sorted(fz.beta_stars)


class TestBetaStarOfJoin:
    """``profile`` takes a join's beta*^2 as the least of its factors';
    the direct solve on the joined graph is the oracle."""

    def test_small_joins_match_direct_solve(self):
        count = 0
        for n in range(2, 8):
            for g in enumerate_graphs(n):
                if is_complete(g) or len(complement_component_sets(g)) == 1:
                    continue
                beta = profile(g).beta_star_squared
                assert beta.compare(solve_phi(g, 1.0)) == 0, g
                count += 1
        assert count == 250

    def test_twelve_vertex_joins_match_direct_solve(self):
        for g in joins12_corpus(6):
            assert len(complement_component_sets(g)) > 1
            assert profile(g).beta_star_squared.compare(solve_phi(g, 1.0)) == 0, g


class TestDimsViaJoin:
    def test_octahedron(self):
        g = complete_multipartite(MultipartiteSignature((2, 2, 2)))
        assert dims_via_join(g) == (3, 3, 3)

    def test_star_k31(self):
        g = complete_multipartite(MultipartiteSignature((3, 1)))
        assert dims_via_join(g) == (3, 3, 2)

    def test_path3(self):
        assert dims_via_join(Graph.path(3)) == (2, 2, 1)

    def test_single_factor_delegates(self):
        p = profile(Graph.cycle(5))
        assert dims_via_join(Graph.cycle(5)) == (p.dim_j, p.dim_s, p.dim_e)

    def test_complete_delegates(self):
        assert dims_via_join(Graph.complete(4)) == (None, 3, 3)

    def test_matches_profile_on_random_joins(self, rng):
        for _ in range(40):
            n1 = rng.randrange(1, 5)
            n2 = rng.randrange(1, 9 - n1 - (1 if n1 < 4 else 0))
            g = join(random_graph(rng, n1), random_graph(rng, max(n2, 1)))
            p = profile(g)
            assert dims_via_join(g) == (p.dim_j, p.dim_s, p.dim_e)

    def test_beta_star_is_min_over_factors(self, rng):
        for _ in range(12):
            g1 = random_graph(rng, rng.randrange(1, 4))
            g2 = random_graph(rng, rng.randrange(1, 4))
            g = join(g1, g2)
            if is_complete(g):
                continue
            fz = join_decompose(g)
            finite = [b for b in fz.beta_stars if math.isfinite(b)]
            assert abs(beta_star_numeric(g) - min(finite)) < 1e-8


class TestMultipartiteDims:
    def test_square(self):
        assert multipartite_dims(MultipartiteSignature((2, 2))) == (2, 2, 2)

    def test_unbalanced_bipartite(self):
        for m, n in ((2, 1), (3, 2), (5, 3)):
            dims = multipartite_dims(MultipartiteSignature((m, n)))
            assert dims == (m + n - 2, m + n - 1, m + n - 1)

    def test_all_ones_complete(self):
        assert multipartite_dims(MultipartiteSignature((1, 1, 1))) == (2, 2, None)

    def test_single_part_rejected(self):
        with pytest.raises(ValueError):
            multipartite_dims(MultipartiteSignature((4,)))

    def test_matches_profile_small(self):
        for total in range(2, 8):
            for parts in all_signatures(total):
                if len(parts) < 2:
                    continue
                sig = MultipartiteSignature(parts)
                g = complete_multipartite(sig)
                p = profile(g)
                assert multipartite_dims(sig) == (p.dim_e, p.dim_s, p.dim_j), parts
