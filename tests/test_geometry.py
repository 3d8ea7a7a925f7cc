import collections
import itertools
import math
import os
import random
import subprocess
import sys

import numpy as np
import pytest

from conftest import embed16_pool, joins12_corpus, random_graph
from reference import ball_solve_phi, loop_distance_residual, reference_min_enclosing_ball
from twodist import geometry, invariants
from twodist.errors import (
    CompleteGraphError,
    GeometricInconsistencyError,
    InfeasibleDistanceError,
    UndecidableEnclosureError,
)
from twodist.geometry import (
    HULL_TOL,
    MEB_GAP_RTOL,
    PointConfig,
    SQRT2,
    _origin_in_convex_hull,
    beta_star_numeric,
    jspherical_embedding,
    kuperberg_decompose,
    min_enclosing_ball,
    phi,
    realize,
    solve_phi,
)
from twodist.graphs import (
    Graph,
    MultipartiteSignature,
    complement_component_sets,
    complete_multipartite,
    enumerate_graphs,
    is_complete,
)
from twodist.invariants import cm_polynomials, feasible_interval


def disjoint_cliques(*sizes):
    from twodist.graphs import complement

    return complement(complete_multipartite(MultipartiteSignature(sizes)))


# ---------------------------------------------------------------------------
# realize
# ---------------------------------------------------------------------------


class TestRealize:
    def test_triangle(self):
        cfg = realize(Graph.complete(3), 5.0)  # b unused: no non-edges
        assert cfg.rank == 2
        d = cfg.distance_matrix()
        for i, j in ((0, 1), (0, 2), (1, 2)):
            assert abs(d[i, j] - 1.0) < 1e-9

    def test_unit_square(self):
        cfg = realize(complete_multipartite(MultipartiteSignature((2, 2))), math.sqrt(2))
        assert cfg.rank == 2
        assert cfg.max_distance_residual(
            complete_multipartite(MultipartiteSignature((2, 2)))
        ) < 1e-9

    def test_path3_collinear(self):
        g = Graph.path(3)
        cfg = realize(g, 2.0)
        assert cfg.rank == 1
        assert cfg.max_distance_residual(g) < 1e-9

    def test_single_vertex(self):
        cfg = realize(Graph.empty(1), 2.0)
        assert cfg.n == 1 and cfg.rank == 0

    def test_infeasible_above_window(self):
        with pytest.raises(InfeasibleDistanceError):
            realize(Graph.path(3), 3.0)  # t = 9 > 4

    def test_infeasible_below_window(self):
        with pytest.raises(InfeasibleDistanceError):
            realize(Graph.cycle(5), 0.5)  # t = 0.25 < (3-sqrt5)/2

    def test_distances_finite_and_positive(self):
        # Before any window test: a NaN ratio would pass it and fail in eigh.
        g = Graph.cycle(5)
        for a, b in ((1.0, math.nan), (1.0, math.inf), (1.0, 0.0), (1.0, -1.0),
                     (math.nan, 1.5), (0.0, 1.5), (-1.0, 1.5)):
            with pytest.raises(InfeasibleDistanceError, match="finite"):
                realize(g, b, a)
        with pytest.raises(InfeasibleDistanceError):
            realize(Graph.empty(1), math.nan)

    def test_distance_residuals_random(self, rng):
        for _ in range(30):
            g = random_graph(rng, rng.randrange(2, 8))
            lo, hi = feasible_interval(g)
            hi_eff = min(hi, 9.0)
            t = rng.uniform(max(lo, 1.0) + 1e-3, hi_eff) if hi_eff > 1 else 1.0
            cfg = realize(g, math.sqrt(t))
            assert cfg.max_distance_residual(g) < 1e-9

    def test_interior_rank_full(self, rng):
        # Between the window endpoints the configuration spans n-1 dims.
        for _ in range(15):
            g = random_graph(rng, rng.randrange(2, 7))
            lo, hi = feasible_interval(g)
            t = 0.5 * (max(lo, 1.0) + min(hi, 4.0))
            if not t > max(lo, 1.0):
                continue
            cfg = realize(g, math.sqrt(t))
            assert cfg.rank == g.n - 1

    def test_residual_equals_pairwise_loop(self):
        # bit for bit, on random points and edge patterns, n = 1 and 2 included
        rng = np.random.default_rng(7)
        for n in (1, 2, 3, 5, 9, 16):
            for _ in range(20):
                g = random_graph(random.Random(int(rng.integers(1 << 30))), n)
                scale = 10.0 ** rng.integers(-3, 4)
                pts = rng.standard_normal((n, int(rng.integers(0, 5)))) * scale
                a, b = (float(v) for v in rng.uniform(0.1, 3.0, 2))
                cfg = PointConfig(pts, a, b, pts.shape[1])
                got = cfg.max_distance_residual(g)
                assert type(got) is float and got == loop_distance_residual(cfg, g)
        for g in embed16_pool()[:5]:
            cfg = realize(g, math.sqrt(feasible_interval(g)[1]))
            assert cfg.max_distance_residual(g) == loop_distance_residual(cfg, g)

    def test_nan_distance_has_infinite_residual(self):
        # a NaN coordinate must fail every residual bound, not read as 0
        cfg = PointConfig(np.array([[math.nan], [0.0], [2.0]]), 1.0, 2.0, 1)
        g = Graph.from_edges(3, [(0, 1)])
        assert cfg.max_distance_residual(g) == math.inf
        assert loop_distance_residual(cfg, g) == math.inf


# ---------------------------------------------------------------------------
# minimum enclosing ball
# ---------------------------------------------------------------------------


def brute_circle_2d(points):
    """Brute-force smallest enclosing circle radius in the plane."""
    pts = [np.asarray(p, float) for p in points]

    def covers(c, r):
        return all(np.linalg.norm(p - c) <= r + 1e-9 for p in pts)

    best = math.inf
    for p, q in itertools.combinations_with_replacement(pts, 2):
        c = (p + q) / 2
        r = np.linalg.norm(p - c)
        if r < best and covers(c, r):
            best = r
    for p, q, s in itertools.combinations(pts, 3):
        d = 2 * (p[0] * (q[1] - s[1]) + q[0] * (s[1] - p[1]) + s[0] * (p[1] - q[1]))
        if abs(d) < 1e-12:
            continue
        ux = (
            (p @ p) * (q[1] - s[1]) + (q @ q) * (s[1] - p[1]) + (s @ s) * (p[1] - q[1])
        ) / d
        uy = (
            (p @ p) * (s[0] - q[0]) + (q @ q) * (p[0] - s[0]) + (s @ s) * (q[0] - p[0])
        ) / d
        c = np.array([ux, uy])
        r = np.linalg.norm(p - c)
        if r < best and covers(c, r):
            best = r
    return best


def assert_certified(points, ball, support):
    """Coverage, a duality gap within the solver's target, and the expected
    boundary points."""
    pts = np.asarray(points, float)
    scale = max(1.0, float((pts * pts).sum(axis=1).max()))
    assert ball.gap <= MEB_GAP_RTOL * scale
    assert np.linalg.norm(pts - ball.center, axis=1).max() <= ball.radius + 1e-9
    assert set(ball.support) == set(support)


def circle(m, dim=3):
    """m points on a circle of radius 2 off the origin, tilted in R^3 (any
    four of them affinely dependent) or in the plane."""
    angles = 2 * math.pi * np.arange(m) / m
    if dim == 2:
        unit = np.column_stack([np.cos(angles), np.sin(angles)])
        return np.array([3.0, -1.0]) + 2 * unit
    u = np.array([1.0, 1.0, 0.0]) / math.sqrt(2)
    v = np.array([1.0, -1.0, 1.0]) / math.sqrt(3)
    offset = np.array([3.0, -1.0, 2.0])
    return offset + 2 * (np.outer(np.cos(angles), u) + np.outer(np.sin(angles), v))


class TestEnclosingBall:
    def test_regular_triangle(self):
        cfg = realize(Graph.complete(3), 1.0, math.sqrt(2))
        ball = min_enclosing_ball(cfg.points)
        assert abs(ball.radius - math.sqrt(2 / 3)) < 1e-12

    def test_obtuse_triangle_diameter(self):
        ball = min_enclosing_ball([[0, 0], [4, 0], [1, 1]])
        assert np.allclose(ball.center, [2, 0], atol=1e-9)
        assert abs(ball.radius - 2.0) < 1e-12
        assert set(ball.support) == {0, 1}
        # Collinear points: the same diameter, interior points off the support.
        collinear = (
            ([[1, 0], [0, 0], [3, 0], [4, 0]], (1, 3)),
            ([[0, 0, 0], [1, 1, 1], [4, 4, 4]], (0, 2)),
        )
        for pts, ends in collinear:
            ball = min_enclosing_ball(pts)
            mid = (np.asarray(pts[ends[0]]) + np.asarray(pts[ends[1]])) / 2
            assert np.allclose(ball.center, mid, atol=1e-12)
            assert_certified(pts, ball, ends)

    def test_unit_square(self):
        ball = min_enclosing_ball([[0, 0], [1, 0], [0, 1], [1, 1]])
        assert abs(ball.radius - math.sqrt(2) / 2) < 1e-12
        assert len(ball.support) == 4
        # Eight cospherical points: ties that are affinely dependent.
        for pts in (circle(8), circle(8, dim=2)):
            ball = min_enclosing_ball(pts)
            assert abs(ball.radius - 2.0) < 1e-12
            assert_certified(pts, ball, range(8))

    def test_single_point(self):
        ball = min_enclosing_ball([[3.0, 4.0]])
        assert ball.radius == 0.0

    def test_coincident_points(self):
        ball = min_enclosing_ball([[1.0, 2.0], [1.0, 2.0], [1.0, 2.0]])
        assert ball.radius < 1e-12
        # Coincident points mixed with distinct ones.
        pts = [[0, 0], [0, 0], [4, 0], [1, 1], [4, 0], [0, 0]]
        ball = min_enclosing_ball(pts)
        assert np.allclose(ball.center, [2, 0], atol=1e-12)
        assert abs(ball.radius - 2.0) < 1e-12
        assert_certified(pts, ball, (0, 1, 2, 4, 5))
        pts = np.vstack([circle(5), circle(5)])
        ball = min_enclosing_ball(pts)
        assert abs(ball.radius - 2.0) < 1e-12
        assert_certified(pts, ball, range(10))

    def test_against_brute_force_2d(self, rng):
        for _ in range(40):
            n = rng.randrange(2, 9)
            pts = [[rng.uniform(-5, 5), rng.uniform(-5, 5)] for _ in range(n)]
            ball = min_enclosing_ball(pts)
            expect = brute_circle_2d(pts)
            assert abs(ball.radius - expect) < 1e-7
            # certificate and coverage
            scale = max(1.0, max(x * x + y * y for x, y in pts))
            assert ball.gap <= 10 * MEB_GAP_RTOL * scale
            for p in pts:
                assert np.linalg.norm(np.asarray(p) - ball.center) <= ball.radius + 1e-9

    def test_huge_coordinates_scale_the_ball(self):
        # Past ~1e77 the walk's stop threshold once overflowed to inf: no
        # point stopped the walk and the duality gap check raised.  Below
        # unit scale, tolerances floored at 1 once put all 12 points of the
        # rng(3) cloud on the sphere at 1e-100 and accepted its radius off
        # by 1.3e-6 at 1e-160.  At 1e200 the gap, scaled back by s^2, once
        # overflowed in numpy with a warning; past the float range it is inf.
        triangle = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3) / 2]])
        clouds = [np.random.default_rng(seed).standard_normal((12, 5)) for seed in (12, 3)]
        for pts in (triangle, *clouds):
            unit = min_enclosing_ball(pts)
            for scale in (1e-160, 1e-100, 1e100, 1e150, 1e200):
                ball = min_enclosing_ball(pts * scale)
                assert abs(ball.radius / scale - unit.radius) <= 1e-12 * unit.radius
                # scale * scale is inf at 1e200, where scale**2 raises OverflowError
                assert ball.gap <= MEB_GAP_RTOL * scale * scale
                assert set(ball.support) == set(unit.support)

    def test_high_dimension_simplex(self):
        cfg = realize(Graph.empty(9), math.sqrt(2) * 1.01, 1.0)
        ball = min_enclosing_ball(cfg.points)
        assert ball.gap <= 1e-12
        # The regular simplex: every point on the sphere, center at the
        # centroid.
        for n in range(2, 17):
            cfg = realize(Graph.empty(n), SQRT2, SQRT2)
            ball = min_enclosing_ball(cfg.points)
            assert abs(ball.radius - math.sqrt((n - 1) / n)) < 1e-12
            assert_certified(cfg.points, ball, range(n))

    def test_missed_certificate_raises(self, monkeypatch):
        from twodist import geometry

        certify = geometry._dual_certificate

        def loose(points, sqnorms, lam):
            c, primal, gap = certify(points, sqnorms, lam)
            return c, primal, gap + 1e-6

        monkeypatch.setattr(geometry, "_dual_certificate", loose)
        with pytest.raises(GeometricInconsistencyError, match="duality gap"):
            min_enclosing_ball([[0, 0], [4, 0], [1, 1]])


def random_clouds():
    """Seeded Gaussian clouds in 2 to 15 dimensions, some shifted and
    stretched, with fewer and more points than dimensions."""
    gen = np.random.default_rng(29)
    for d in range(2, 16):
        for n in (d, 3 * d):
            pts = gen.standard_normal((n, d))
            yield pts
            yield 7.0 + pts * gen.uniform(0.5, 3.0, d)


class TestUpdatedQR:
    """The ball against ``reference_min_enclosing_ball``, which factors T
    afresh at every pivot."""

    @staticmethod
    def assert_same_ball(points):
        pts = np.asarray(points, float)
        ball, ref = min_enclosing_ball(pts), reference_min_enclosing_ball(pts)
        scale = float(np.abs(pts).max())
        assert abs(ball.radius - ref.radius) <= 1e-12 * scale
        assert float(np.abs(ball.center - ref.center).max()) <= 1e-12 * scale
        assert_certified(pts, ball, ref.support)

    def test_catalog_configurations(self):
        gen = np.random.default_rng(31)
        for n in range(2, 7):
            for g in enumerate_graphs(n):
                lo, hi = feasible_interval(g)
                top = hi if hi < math.inf else max(lo, 1.0) + 3.0
                ts = list(lo + (top - lo) * gen.uniform(0.05, 0.95, 3))
                if hi < math.inf:
                    ts.append(hi)
                for t in ts:
                    self.assert_same_ball(realize(g, math.sqrt(t)).points)

    def test_pool_and_join_blocks(self):
        for g in embed16_pool()[:60]:
            hi = feasible_interval(g)[1]
            self.assert_same_ball(realize(g, math.sqrt(hi)).points)
        for g in joins12_corpus(6):
            config = jspherical_embedding(g)
            self.assert_same_ball(config.points)
            for block, _ in kuperberg_decompose(config).factors:
                self.assert_same_ball(config.points[list(block)])

    def test_clouds_and_degenerate_sets(self):
        for pts in random_clouds():
            self.assert_same_ball(pts)
        cube = np.array(list(itertools.product((0.0, 1.0), repeat=3)))
        for pts in (
            [[1.0, 2.0]] * 3,
            [[0, 0], [0, 0], [4, 0], [1, 1], [4, 0], [0, 0]],
            np.vstack([circle(5), circle(5)]),
            [[1, 0], [0, 0], [3, 0], [4, 0]],
            [[0, 0, 0], [1, 1, 1], [4, 4, 4]],
            circle(8),
            circle(8, dim=2),
            cube,
            2.0 + cube,
            realize(Graph.empty(16), SQRT2, SQRT2).points,
        ):
            self.assert_same_ball(pts)

    def test_factors_only_when_a_point_leaves(self, monkeypatch):
        calls = []
        qr = np.linalg.qr

        def counted(a, *args, **kwargs):
            calls.append(a.shape)
            return qr(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "qr", counted)
        # The regular simplex: every pivot adds a point.
        min_enclosing_ball(realize(Graph.empty(16), SQRT2, SQRT2).points)
        assert calls == []
        # The reference factors once per pivot, and each pivot adds a point
        # to T, removes one, or ends: its pivots P and final |T| give the
        # removals (P - |T|) / 2.
        removals = 0
        for pts in random_clouds():
            calls.clear()
            ref = reference_min_enclosing_ball(pts)
            left = (len(calls) - np.count_nonzero(ref.weights)) // 2
            calls.clear()
            min_enclosing_ball(pts)
            assert len(calls) <= left
            removals += left
        assert removals > 0


# ---------------------------------------------------------------------------
# phi and its inverse
# ---------------------------------------------------------------------------


class TestPhi:
    def test_regular_simplex_value(self, rng):
        # At x = sqrt(2) every graph realizes the regular simplex.
        for _ in range(12):
            g = random_graph(rng, rng.randrange(2, 8))
            n = g.n
            assert abs(phi(g, SQRT2) - math.sqrt((n - 1) / n)) < 1e-10

    def test_path3_right_triangle(self):
        assert abs(phi(Graph.path(3), 2.0) - 1.0) < 1e-10

    def test_empty3_equilateral(self):
        assert abs(phi(Graph.empty(3), math.sqrt(3)) - 1.0) < 1e-10

    def test_monotone_on_grids(self, rng):
        violations = 0
        for _ in range(200):
            g = random_graph(rng, rng.randrange(2, 9))
            lo, hi = feasible_interval(g)
            x_hi = math.sqrt(2 * min(hi, 8.0))
            xs = np.linspace(SQRT2, x_hi, 20)
            vals = [phi(g, float(x)) for x in xs]
            diffs = np.diff(vals)
            violations += int((diffs < -1e-9).sum())
        assert violations == 0

    def test_matches_exact_ratio_when_center_interior(self, rng):
        # With the full point set on the ball boundary, the squared radius
        # equals twice the exact rational function of t = x^2/2.
        from fractions import Fraction

        checked = 0
        for _ in range(60):
            g = random_graph(rng, rng.randrange(2, 8))
            lo, hi = feasible_interval(g)
            x = rng.uniform(SQRT2 + 1e-6, math.sqrt(2 * min(hi, 6.0)) - 1e-6)
            cfg = realize(g, x, SQRT2)
            ball = min_enclosing_ball(cfg.points)
            if len(ball.support) < g.n:
                continue
            c_poly, m_poly = cm_polynomials(g)
            t = Fraction(x * x / 2).limit_denominator(10**12)
            f_val = -float(m_poly(t)) / (2.0 * float(c_poly(t)))
            assert abs(ball.radius**2 - 2.0 * f_val) < 1e-8
            checked += 1
        assert checked >= 10


class TestSolvePhi:
    def test_empty3(self):
        got = math.sqrt(float(solve_phi(Graph.empty(3), 1.0)))
        assert abs(got - math.sqrt(3)) < 1e-9

    def test_empty_family(self):
        for n in range(2, 7):
            got = math.sqrt(float(solve_phi(Graph.empty(n), 1.0)))
            assert abs(got - math.sqrt(2 * n / (n - 1))) < 1e-9

    def test_square_hits_window_end(self):
        g = complete_multipartite(MultipartiteSignature((2, 2)))
        assert abs(math.sqrt(float(solve_phi(g, 1.0))) - 2.0) < 1e-9

    def test_intermediate_radius(self):
        # unique x with radius 0.95 for the empty triangle: scale the
        # circumscribed equilateral by 0.95
        got = math.sqrt(float(solve_phi(Graph.empty(3), 0.95)))
        assert abs(got - 0.95 * math.sqrt(3)) < 1e-9

    def test_unit_radius_at_solution(self, rng):
        # A float cross-check apart from the exact certificate: the ball
        # solved at the returned long distance has radius 1.
        checked = 0
        while checked < 25:
            g = random_graph(rng, rng.randrange(2, 9))
            if is_complete(g):
                continue
            x = math.sqrt(float(solve_phi(g, 1.0)))
            assert abs(phi(g, x) - 1.0) < 1e-9
            checked += 1

    def test_uncertified_support_raises(self, monkeypatch):
        from twodist import geometry

        monkeypatch.setattr(geometry, "_support_certified", lambda g, s, t: False)
        with pytest.raises(UndecidableEnclosureError):
            solve_phi(Graph.cycle(5), 1.0)

    def test_complete_rejected(self):
        with pytest.raises(CompleteGraphError):
            solve_phi(Graph.complete(3), 1.0)

    def test_radius_out_of_range(self):
        with pytest.raises(ValueError):
            solve_phi(Graph.empty(3), 0.5)  # below sqrt(2/3)
        with pytest.raises(ValueError):
            solve_phi(Graph.empty(3), 1.5)


def count_calls(monkeypatch, module, *names):
    """A Counter of the calls made to ``module``'s ``names`` from now on."""
    counts = collections.Counter()

    def counting(name, original):
        def wrapped(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        return wrapped

    for name in names:
        monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    return counts


class TestActiveSetSolve:
    """``solve_phi`` proposes supports by a float active set on the squared
    distances D(t) and certifies one root; ``reference.ball_solve_phi``,
    which proposes them by enclosing balls of realized points, is the
    oracle."""

    COUNTED = (
        "squarefree_decomposition",
        "_support_certified",
        "_walk_supports",
        "realize",
        "min_enclosing_ball",
    )

    def solve_against_oracle(self, graphs, monkeypatch):
        """Per-solve call counts of ``COUNTED``, after checking every
        beta*^2 against the oracle."""
        counts = count_calls(monkeypatch, geometry, *self.COUNTED)
        spent = []
        for g in graphs:
            invariants.clear_caches()
            before = counts.copy()
            got = solve_phi(g, 1.0)
            spent.append(counts - before)
            assert got.compare(ball_solve_phi(g, 1.0)) == 0, g
        return spent

    def assert_certified_once(self, spent):
        once = sum(
            c["squarefree_decomposition"] == 1
            and c["_support_certified"] == 1
            and not c["_walk_supports"]
            for c in spent
        )
        fallbacks = sum(c["_walk_supports"] for c in spent)
        assert once >= 0.98 * len(spent)
        assert fallbacks <= len(spent) - once

    def test_small_graphs_match_ball_oracle(self, monkeypatch):
        graphs = [g for n in range(2, 7) for g in enumerate_graphs(n) if not is_complete(g)]
        assert len(graphs) == 202
        self.assert_certified_once(self.solve_against_oracle(graphs, monkeypatch))

    def test_joins_match_ball_oracle_without_balls(self, monkeypatch):
        spent = self.solve_against_oracle(joins12_corpus(60), monkeypatch)
        self.assert_certified_once(spent)
        assert not any(c["realize"] or c["min_enclosing_ball"] for c in spent)

    def test_first_active_set_failure_falls_back(self, monkeypatch):
        # a singular first bordered system goes to the exact walk from all
        # n points, which still finds the oracle's beta*^2
        original = geometry._active_set
        for g in [Graph.cycle(5), Graph.path(4), Graph.empty(3)] + joins12_corpus(3):
            invariants.clear_caches()
            calls = []

            def first_fails(d, start):
                calls.append(start)
                return None if len(calls) == 1 else original(d, start)

            monkeypatch.setattr(geometry, "_active_set", first_fails)
            walks = count_calls(monkeypatch, geometry, "_walk_supports")
            got = solve_phi(g, 1.0)
            monkeypatch.undo()
            assert walks["_walk_supports"] == 1
            assert got.compare(ball_solve_phi(g, 1.0)) == 0, g

    def test_active_set_matches_enclosing_ball(self, rng):
        # the coordinate-free pivot against the ball of realized points at
        # unit short distance: same support, same squared radius, from a
        # cold and from a random warm start
        checked = 0
        while checked < 60:
            g = random_graph(rng, rng.randrange(2, 10))
            hi = feasible_interval(g)[1]
            if hi <= 1.002:
                continue
            t = rng.uniform(1.0 + 1e-3, min(hi, 6.0) - 1e-3)
            ball = min_enclosing_ball(realize(g, math.sqrt(t), 1.0).points)
            support = tuple(np.flatnonzero(ball.weights > 0.0).tolist())
            adjacency = np.array([[float(g.has_edge(i, j)) for j in range(g.n)] for i in range(g.n)])
            d = geometry._squared_distances(adjacency, t)
            warm = tuple(sorted(rng.sample(range(g.n), rng.randrange(1, g.n + 1))))
            for start in ((0,), warm):
                got, r2 = geometry._active_set(d, start)
                assert got == support, (g, t, start)
                assert abs(r2 - ball.radius**2) <= 1e-9 * max(1.0, r2)
            checked += 1

    def test_float_root_polished_to_nearest_float(self):
        from twodist.polynomials import IntPolynomial

        x = IntPolynomial.x()
        f = x * x - IntPolynomial.const(3)
        for k in range(1, 8):  # degree 16, real roots +-sqrt(3) only
            f = f * (x * x + x.scale(k) + IntPolynomial.const(17))
        got = geometry._float_root_near(f, 1.5, 2.0)
        assert got == math.sqrt(3)  # the correctly rounded root
        assert geometry._float_root_near(f, 1.5, 1.7) is None  # above the window
        assert geometry._float_root_near(IntPolynomial.const(3), 1.5, 2.0) is None


class TestBetaStar:
    def test_two_cliques_of_two(self):
        assert abs(beta_star_numeric(disjoint_cliques(2, 2)) - math.sqrt(3)) < 1e-9

    def test_two_cliques_of_four(self):
        assert abs(beta_star_numeric(disjoint_cliques(4, 4)) - math.sqrt(5 / 2)) < 1e-9

    def test_path3(self):
        assert abs(beta_star_numeric(Graph.path(3)) - 2.0) < 1e-9

    def test_exact_shortcut_square(self):
        g = complete_multipartite(MultipartiteSignature((2, 2)))
        assert abs(beta_star_numeric(g) - 2.0) < 1e-12

    def test_complete_rejected(self):
        with pytest.raises(CompleteGraphError):
            beta_star_numeric(Graph.complete(2))

    def test_solved_once_per_graph(self, monkeypatch):
        # profile is the one route to beta*: the record (which also runs the
        # join decomposition) and the embedding share a single solve.
        from twodist import cli, geometry, invariants

        calls = []
        solve = geometry.solve_phi

        def counting(g, r):
            calls.append((g, r))
            return solve(g, r)

        invariants.clear_caches()
        monkeypatch.setattr(geometry, "solve_phi", counting)
        g = Graph.empty(4)
        cli.analysis_record(g)
        geometry.jspherical_embedding(g)
        assert calls == [(g, 1.0)]

    def test_join_solved_once_per_factor(self, monkeypatch):
        # A join reads beta*^2 from its factors' profiles: one solve per
        # non-complete factor whose r^2 is not 1/2, none for the join.
        from twodist import cli, geometry, invariants
        from twodist.graphs import complement_components, join

        calls = []
        solve = geometry.solve_phi

        def counting(g, r):
            calls.append((g, r))
            return solve(g, r)

        invariants.clear_caches()
        monkeypatch.setattr(geometry, "solve_phi", counting)
        g = join(join(Graph.cycle(5), Graph.path(4)), Graph.complete(1))
        cli.analysis_record(g)
        geometry.jspherical_embedding(g)
        expect = [
            (h, 1.0)
            for h in complement_components(g)
            if not is_complete(h) and not invariants.circumradius_invariant(h).is_half
        ]
        assert expect == [(Graph.cycle(5), 1.0), (Graph.path(4), 1.0)]
        assert calls == expect


# ---------------------------------------------------------------------------
# J-spherical embeddings and decomposition
# ---------------------------------------------------------------------------


class TestJSphericalEmbedding:
    def test_antipodal_pair(self):
        w = jspherical_embedding(Graph.empty(2))
        assert w.rank == 1
        d = w.distance_matrix()
        assert abs(d[0, 1] - 2.0) < 1e-9
        assert np.allclose(np.linalg.norm(w.points, axis=1), 1.0, atol=1e-9)

    def test_octahedron(self):
        g = complete_multipartite(MultipartiteSignature((2, 2, 2)))
        w = jspherical_embedding(g)
        assert w.rank == 3
        norms = np.linalg.norm(w.points, axis=1)
        assert float(np.abs(norms - 1).max()) < 1e-8
        d = w.distance_matrix()
        for i in range(6):
            partners = [j for j in range(6) if j != i and abs(d[i, j] - 2.0) < 1e-6]
            others = [j for j in range(6) if j != i and abs(d[i, j] - SQRT2) < 1e-6]
            assert len(partners) == 1 and len(others) == 4

    def test_pentagon(self):
        w = jspherical_embedding(Graph.cycle(5))
        assert w.rank == 4
        norms = np.linalg.norm(w.points, axis=1)
        assert float(np.abs(norms - 1).max()) < 1e-8
        d = w.distance_matrix()
        offdiag = d[~np.eye(5, dtype=bool)]
        assert offdiag.min() > SQRT2 - 1e-8

    def test_min_distance_bound(self, rng):
        # every point pair sits at >= sqrt(2) on the unit sphere
        from twodist.graphs import is_complete

        for _ in range(10):
            g = random_graph(rng, rng.randrange(2, 7))
            if is_complete(g):
                continue
            w = jspherical_embedding(g)
            d = w.distance_matrix()
            offdiag = d[~np.eye(g.n, dtype=bool)]
            assert offdiag.min() > SQRT2 - 1e-8
            assert float(np.abs(np.linalg.norm(w.points, axis=1) - 1).max()) < 1e-8

    def test_complete_rejected(self):
        with pytest.raises(CompleteGraphError):
            jspherical_embedding(Graph.complete(3))


class TestKuperbergDecompose:
    def test_right_isosceles_triangle(self):
        pts = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
        cfg = PointConfig(pts, SQRT2, 2.0, 2)
        fz = kuperberg_decompose(cfg)
        assert fz.k == 1
        types = dict(fz.factors)
        assert types[(0, 1)] == "I"
        assert types[(2,)] == "II"

    def test_octahedron(self):
        g = complete_multipartite(MultipartiteSignature((2, 2, 2)))
        fz = kuperberg_decompose(jspherical_embedding(g))
        assert fz.k == 3
        assert all(label == "I" for _, label in fz.factors)
        assert all(len(ix) == 2 for ix, _ in fz.factors)

    def test_regular_simplex_single_factor(self):
        w = jspherical_embedding(Graph.empty(4))
        fz = kuperberg_decompose(w)
        assert fz.k == 1
        assert fz.factors == (((0, 1, 2, 3), "I"),)

    def test_partition_matches_complement_components(self, rng):
        from twodist.graphs import is_complete

        for _ in range(12):
            g = random_graph(rng, rng.randrange(2, 7))
            if is_complete(g):
                continue
            w = jspherical_embedding(g)
            fz = kuperberg_decompose(w)
            got = sorted(sorted(ix) for ix, _ in fz.factors)
            expect = sorted(sorted(vs) for vs in complement_component_sets(g))
            assert got == expect

    def test_orthonormal_basis(self):
        # The origin is off the affine hull of the basis, so the linear
        # rank (3), not the affine rank (2), satisfies |S| = rank + #TypeI.
        cfg = PointConfig(np.eye(3), SQRT2, SQRT2, 3)
        fz = kuperberg_decompose(cfg)
        assert fz.k == 0
        assert fz.factors == (((0,), "II"), ((1,), "II"), ((2,), "II"))

    def test_twelve_vertex_join(self):
        # Factors Db_ and FZ|Dw; the enclosing ball at beta* once ended at
        # an iteration cap ~1e-6 off the unit sphere, and the point
        # decomposition raised "points are not on the unit sphere".
        from twodist import cli
        from twodist.graphs import parse_graph6

        g = parse_graph6("K|}~|bnVz~z{")
        cli.analysis_record(g)
        fz = kuperberg_decompose(jspherical_embedding(g))
        assert fz.k == 1
        assert sorted(fz.factors) == [
            ((0, 2, 9, 10, 11), "I"),
            ((1, 3, 4, 5, 6, 7, 8), "II"),
        ]

    def test_off_sphere_rejected(self):
        pts = np.array([[2.0, 0.0], [-2.0, 0.0]])
        cfg = PointConfig(pts, SQRT2, 4.0, 1)
        with pytest.raises(GeometricInconsistencyError):
            kuperberg_decompose(cfg)

    def test_close_points_rejected(self):
        theta = 0.3
        pts = np.array([[1.0, 0.0], [math.cos(theta), math.sin(theta)]])
        cfg = PointConfig(pts, SQRT2, 2.0, 2)
        with pytest.raises(GeometricInconsistencyError):
            kuperberg_decompose(cfg)

    def test_type_count_identity(self, rng):
        # |S| = rank + (number of Type I blocks)
        from twodist.graphs import is_complete

        for _ in range(10):
            g = random_graph(rng, rng.randrange(2, 7))
            if is_complete(g):
                continue
            w = jspherical_embedding(g)
            fz = kuperberg_decompose(w)
            assert g.n == w.rank + fz.k


# ---------------------------------------------------------------------------
# Type I / II: the enclosing ball's center against a linear program
# ---------------------------------------------------------------------------


def lp_origin_in_hull(points, tol):
    """Independent oracle: exists lam >= 0, sum lam = 1 with
    |sum lam p|_inf <= tol, by minimizing t subject to +-(P^T lam) <= t."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    m, d = points.shape
    c = np.zeros(m + 1)
    c[-1] = 1.0
    a_ub = np.zeros((2 * d, m + 1))
    a_ub[:d, :m] = points.T
    a_ub[d:, :m] = -points.T
    a_ub[:, -1] = -1.0
    a_eq = np.zeros((1, m + 1))
    a_eq[0, :m] = 1.0
    res = linprog(
        c,
        A_ub=a_ub,
        b_ub=np.zeros(2 * d),
        A_eq=a_eq,
        b_eq=[1.0],
        bounds=[(0.0, None)] * (m + 1),
        method="highs",
    )
    assert res.success
    return res.fun <= tol


def unit_rows(x):
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def regular_simplex(k):
    """k + 1 unit vectors in R^k summing to zero."""
    e = np.eye(k + 1) - 1.0 / (k + 1)
    basis, _ = np.linalg.qr(e[:, :k])
    return unit_rows(e @ basis)


def placed(points, ambient, np_rng):
    """The points padded to ``ambient`` coordinates and rotated at random."""
    m, d = points.shape
    q, _ = np.linalg.qr(np_rng.standard_normal((ambient, ambient)))
    return np.hstack([points, np.zeros((m, ambient - d))]) @ q.T


def spherical_cap(m, d, np_rng):
    """m unit vectors within 80 degrees of one pole: the origin is off
    their convex hull by at least cos(80 degrees)."""
    pole = unit_rows(np_rng.standard_normal((1, d)))[0]
    out = []
    while len(out) < m:
        p = unit_rows(np_rng.standard_normal((1, d)))[0]
        if p @ pole > math.cos(math.radians(80)):
            out.append(p)
    return np.array(out)


class TestOriginInConvexHull:
    TOL = HULL_TOL

    def blocks(self, np_rng):
        """(points, Type I?) for every family, in a few sizes, rotated,
        with extra ambient dimensions."""
        for k in range(1, 6):
            half = unit_rows(np_rng.standard_normal((k, k + 1)))
            families = [
                (regular_simplex(k), True),
                (np.vstack([half, -half]), True),  # antipodal pairs
                (unit_rows(np_rng.standard_normal((1, k))), False),
                (np.eye(k), False),
                (spherical_cap(k + 2, k + 1, np_rng), False),
            ]
            for pts, type_one in families:
                for extra in (0, 2):
                    yield placed(pts, pts.shape[1] + extra, np_rng), type_one

    def test_families_agree_with_lp(self):
        np_rng = np.random.default_rng(20240613)
        count = 0
        for pts, type_one in self.blocks(np_rng):
            assert lp_origin_in_hull(pts, self.TOL) == type_one
            assert _origin_in_convex_hull(pts, self.TOL) == type_one
            count += 1
        assert count == 50

    def test_random_blocks_agree_with_lp(self):
        # Random unit vectors: the origin is inside or at a distance far
        # above the tolerance, and both tests see the same side.
        np_rng = np.random.default_rng(7)
        seen = set()
        for _ in range(60):
            d = int(np_rng.integers(1, 6))
            m = int(np_rng.integers(1, 2 * d + 3))
            pts = placed(unit_rows(np_rng.standard_normal((m, d))), d + 1, np_rng)
            expect = lp_origin_in_hull(pts, self.TOL)
            assert _origin_in_convex_hull(pts, self.TOL) == expect
            seen.add(expect)
        assert seen == {True, False}

    def test_no_coordinates_is_type_one(self):
        assert _origin_in_convex_hull(np.zeros((3, 0)), self.TOL)
        assert _origin_in_convex_hull(np.zeros((1, 0)), self.TOL)


def test_import_loads_no_scipy():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = (
        "import sys, twodist, twodist.cli; "
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
