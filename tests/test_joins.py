import math
from functools import cmp_to_key

import pytest

from conftest import joins12_corpus, random_graph
from twodist.geometry import (
    beta_star_numeric,
    jspherical_embedding,
    kuperberg_decompose,
    solve_phi,
)
from twodist.graphs import (
    Graph,
    MultipartiteSignature,
    complement_component_sets,
    complement_components,
    complete_multipartite,
    enumerate_graphs,
    is_complete,
    join,
    to_graph6,
)
from twodist import invariants
from twodist.cli import analysis_record
from twodist.invariants import beta_star_squared, profile, t_star
from twodist.joins import dims_via_join, join_decompose, multipartite_dims
from twodist.polynomials import AlgebraicReal


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


def test_type_one_blocks_are_the_minimal_tie_group():
    # on the J-spherical embedding of a join, the Type I blocks are exactly
    # the vertex sets of join_decompose's minimal beta* tie group
    joins = [
        g
        for n in range(2, 8)
        for g in enumerate_graphs(n)
        if len(complement_component_sets(g)) > 1 and not is_complete(g)
    ]
    for g in joins + joins12_corpus(60):
        fz = join_decompose(g)
        sets = [vs for vs in complement_component_sets(g) if not is_complete(g.induced(vs))]
        least = min(
            (beta_star_squared(g.induced(vs)) for vs in sets),
            key=cmp_to_key(lambda u, v: u.compare(v)),
        )
        group = [vs for vs in sets if beta_star_squared(g.induced(vs)).compare(least) == 0]
        assert len(group) == fz.k
        assert sorted(map(g.induced, group), key=to_graph6) == sorted(
            fz.factors[: fz.k], key=to_graph6
        )
        split = kuperberg_decompose(jspherical_embedding(g))
        type_one = sorted(list(block) for block, kind in split.factors if kind == "I")
        assert type_one == sorted(group), to_graph6(g)


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
            g = join(h, h.permuted(perm))
            fz = join_decompose(g)
            assert len(fz.factors) == 2 and fz.k == 2
            first, second = (profile(f).beta_star_squared for f in fz.factors)
            assert first.compare(second) == 0
            # equal values have equal nearest floats, and the stable exact
            # sort keeps the complement components' order
            assert fz.beta_stars[0] == fz.beta_stars[1]
            assert list(fz.factors) == complement_components(g)

    def test_beta_stars_sorted(self, rng):
        for _ in range(10):
            g = random_graph(rng, rng.randrange(2, 8))
            fz = join_decompose(g)
            assert list(fz.beta_stars) == sorted(fz.beta_stars)


class TestOneJoinOrder:
    """A join's factors are ranked once, exactly, in
    ``invariants.join_decompose``: beta*^2 is the head of that order, the
    record certifies at most one nearest float, and no value is compared
    with itself."""

    def test_joins_ranked_once(self, monkeypatch):
        floats, selves = [], []
        newton, compare = AlgebraicReal._newton_float, AlgebraicReal.compare
        monkeypatch.setattr(
            AlgebraicReal, "_newton_float", lambda a: floats.append(a) or newton(a)
        )
        monkeypatch.setattr(
            AlgebraicReal, "compare", lambda a, b: selves.append(a == b) or compare(a, b)
        )
        joins = [
            g
            for n in range(2, 8)
            for g in enumerate_graphs(n)
            if len(complement_component_sets(g)) > 1 and not is_complete(g)
        ]
        assert len(joins) == 250
        try:
            for g in joins + joins12_corpus(60):
                invariants.clear_caches()
                floats.clear()
                analysis_record(g)
                assert len(floats) <= 1, to_graph6(g)
                fz = join_decompose(g)
                assert beta_star_squared(g) is fz.betas[0], to_graph6(g)
                for h, b in zip(fz.factors, fz.beta_stars):
                    assert b == (math.inf if is_complete(h) else beta_star_numeric(h))
            assert selves and not any(selves)
        finally:
            invariants.clear_caches()


class TestBetaStarOfJoin:
    """``profile`` takes a join's beta*^2 as the least of its factors'.  The
    direct solve at radius 1 reads the same ``beta_star_squared``; the
    oracle is 2 t* of the whole joined graph (``t_star``), certified on
    that graph's own tie polynomial."""

    def test_small_joins_match_direct_solve(self):
        count = 0
        for n in range(2, 8):
            for g in enumerate_graphs(n):
                if is_complete(g) or len(complement_component_sets(g)) == 1:
                    continue
                beta = profile(g).beta_star_squared
                assert beta.compare(solve_phi(g, 1.0)) == 0, g
                assert beta.compare(t_star(g).scaled(2)) == 0, g
                count += 1
        assert count == 250

    def test_twelve_vertex_joins_match_direct_solve(self):
        for g in joins12_corpus(6):
            assert len(complement_component_sets(g)) > 1
            beta = profile(g).beta_star_squared
            assert beta.compare(solve_phi(g, 1.0)) == 0, g
            assert beta.compare(t_star(g).scaled(2)) == 0, g


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
