import collections
import functools
import itertools
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import embed16_pool, joins12_corpus, random_graph
from reference import (
    ball_solve_phi,
    cmp_rational,
    distance_matrix,
    loop_distance_residual,
    lstsq_kuperberg_decompose,
    lstsq_origin_against_hull,
    origin_in_convex_hull,
    reference_min_enclosing_ball,
)
from twodist import geometry, invariants
from twodist.config import override
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
    _origin_against_hull,
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
    complement,
    complement_component_sets,
    complement_components,
    complete_multipartite,
    enumerate_graphs,
    is_complete,
    join,
    parse_graph6,
)
from twodist.invariants import cm_polynomials, feasible_interval
from twodist.polynomials import sign_at


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
        d = distance_matrix(cfg)
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

    def test_window_messages_name_both_ends(self):
        # only the end on t's side is checked, yet the message holds both
        for g in graphs_up_to_7()[:60]:
            lo, hi = feasible_interval(g)
            for t in (lo / 2, 1.5 * hi):
                if 0.0 < t < math.inf:
                    b = math.sqrt(t)
                    with pytest.raises(InfeasibleDistanceError) as err:
                        realize(g, b)
                    expect = f"t={b * b:.12g} outside feasible window [{lo:.12g}, {hi:.12g}]"
                    assert str(err.value) == expect

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
        assert ball.radius == 0.0 and math.copysign(1.0, ball.radius) == 1.0

    def test_coincident_points(self):
        ball = min_enclosing_ball([[1.0, 2.0], [1.0, 2.0], [1.0, 2.0]])
        assert ball.radius < 1e-12 and math.copysign(1.0, ball.radius) == 1.0
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

    def test_no_point_or_non_finite_difference_raises(self):
        # a NaN gap passes no "gap > bound" test: these raise before any ball
        for pts in (
            [[-1e308], [1e308]],  # finite points, infinite difference
            [[0, 0], [math.inf, 1]],
            [[0, 0], [math.nan, 1]],
            [[math.nan, 0], [1, 1]],
            np.empty((0, 2)),
        ):
            with pytest.raises(ValueError):
                min_enclosing_ball(pts)

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


@st.composite
def cospherical_clouds(draw):
    """Clouds in 1 to 8 dimensions: Gaussian points, points on one sphere
    in a random affine subspace (affinely dependent past its dimension
    + 1), and copies of drawn points, scaled and moved off the origin."""
    dim = draw(st.integers(1, 8))
    free, ring, copies = draw(st.integers(1, 10)), draw(st.integers(0, 10)), draw(st.integers(0, 4))
    sub = draw(st.integers(1, dim))
    scale, offset = draw(st.sampled_from([1e-3, 1.0, 1e3])), draw(st.sampled_from([0.0, 7.0, -100.0]))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pts = gen.standard_normal((free, dim)) * gen.uniform(0.5, 3.0, dim)
    basis = np.linalg.qr(gen.standard_normal((dim, sub)))[0]
    u = gen.standard_normal((ring, sub))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    pts = np.vstack([pts, 0.5 * gen.standard_normal(dim) + gen.uniform(0.5, 5.0) * u @ basis.T])
    pts = np.vstack([pts, pts[gen.integers(0, len(pts), copies)]])
    return offset + scale * pts


def primal_only():
    """``min_enclosing_ball`` with no block pivots: the single pivots
    (``geometry._single_pivots``) decide every ball."""
    return mock.patch.object(geometry, "PROPOSAL_PIVOTS", 0)


class TestUpdatedQR:
    """The ball, and the single pivots alone, against
    ``reference_min_enclosing_ball``, the walk on center coordinates that
    factors T afresh by QR at every pivot: a different algorithm."""

    @staticmethod
    def assert_same_ball(points):
        pts = np.asarray(points, float)
        ref = reference_min_enclosing_ball(pts)
        with primal_only():
            single = min_enclosing_ball(pts)
        scale = float(np.abs(pts).max())
        for ball in (min_enclosing_ball(pts), single):
            assert abs(ball.radius - ref.radius) <= 1e-12 * scale
            assert float(np.abs(ball.center - ref.center).max()) <= 1e-12 * scale
            assert_certified(pts, ball, ref.support)

    @given(cospherical_clouds())
    @example(7.0 + 1e-3 * circle(5, dim=2))
    @example(7.0 + 1e-3 * circle(8))
    @settings(max_examples=150, deadline=None)
    def test_clouds_with_ties_and_copies(self, pts):
        # The gap bound is the one min_enclosing_ball documents.  Far from
        # the origin, rounding leaves cospherical points off their sphere by
        # more than that bound, which is also the outside test's tolerance:
        # the examples pin two such circles.
        rel = pts - pts[0]
        ref = reference_min_enclosing_ball(pts)
        s = math.ldexp(1.0, math.frexp(float(np.abs(rel).max()))[1])
        bound = MEB_GAP_RTOL * max(s * s, float((rel * rel).sum(axis=1).max()))
        scale = float(np.abs(pts).max())
        with primal_only():
            single = min_enclosing_ball(pts)
        for ball in (min_enclosing_ball(pts), single):
            assert abs(ball.radius - ref.radius) <= 1e-12 * scale
            assert float(np.abs(ball.center - ref.center).max()) <= 1e-12 * scale
            assert ball.gap <= bound

    def test_far_circles_certified_in_one_pass(self, monkeypatch):
        # with an outside test looser than the gap bound these circles
        # missed the certificate and were certified a second time
        counts = count_calls(monkeypatch, geometry, "_dual_certificate", "_single_pivots")
        for pts in (7.0 + 1e-3 * circle(5, dim=2), 7.0 + 1e-3 * circle(8)):
            counts.clear()
            min_enclosing_ball(pts)
            assert counts == {"_dual_certificate": 1}, (pts, counts)

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
        # The program factors nothing: both phases solve on the squared
        # distances.  The regular simplex: every pivot adds a point.
        simplex = realize(Graph.empty(16), SQRT2, SQRT2).points
        min_enclosing_ball(simplex)
        with primal_only():
            min_enclosing_ball(simplex)
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
            calls.clear()
            with primal_only():
                min_enclosing_ball(pts)
            assert len(calls) <= left
            removals += left
        assert removals > 0


class TestBallProposal:
    """Block pivots propose the support, certified by the duality gap, and
    single pivots finish a ball they do not settle;
    ``reference_min_enclosing_ball``, the walk on center coordinates, is
    the oracle.  Checked at the embedding that ``embed`` prints, t = tau1
    (t = 4 where there is no tau1)."""

    @staticmethod
    def balls_against_oracle(graphs, monkeypatch):
        """(number of balls, number certified from the block pivots)."""
        single = count_calls(monkeypatch, geometry, "_single_pivots")
        certified = 0
        for g in graphs:
            tau1 = invariants.tau1_mu(g)[0]
            pts = realize(g, 2.0 if tau1 is None else math.sqrt(float(tau1))).points
            single.clear()
            ball = min_enclosing_ball(pts)
            assert abs(ball.radius - reference_min_enclosing_ball(pts).radius) <= 1e-12, g
            # T is affinely independent exactly: its bordered determinant
            # C_T does not vanish at t
            support = tuple(np.flatnonzero(ball.weights > 0.0).tolist())
            c_t = cm_polynomials(g.induced(support))[0]
            if tau1 is None:
                assert c_t(Fraction(4)) != 0, g
            else:
                assert sign_at(c_t, tau1) != 0, (g, support)
            if not single:
                certified += 1
        return len(graphs), certified

    def test_pool_certified_from_proposal(self, monkeypatch):
        # the start of support size settles 497 of the 500 pool balls
        balls, certified = self.balls_against_oracle(embed16_pool(), monkeypatch)
        assert certified >= 0.98 * balls

    def test_small_graphs_against_walk(self, monkeypatch):
        # and 1,205 of the 1,252 small ones
        balls, certified = self.balls_against_oracle(graphs_up_to_7(), monkeypatch)
        assert balls == 1252 and certified >= 0.95 * balls

    @pytest.mark.parametrize(
        "case, failure",
        [
            ("OnovzJpJkuo]UDzH]yxjO", "cycle"),
            ("DR[", "cycle"),
            ("E@T_", "cycle"),
            ("IV^NNqf|g", "cap"),
            ("cloud-15-7x2", "cap"),
            ("ELrw", "singular"),
            ("FTTjw", "singular"),
            ("FGLZw", "dependent"),
            ("FGL^w", "dependent"),
        ],
    )
    def test_single_pivots_finish_failed_block_pivots(self, monkeypatch, case, failure):
        # each way the block pivots give up: T comes back, PROPOSAL_PIVOTS
        # distinct T, a Gram matrix that is not positive definite, or an
        # accepted T that is affinely dependent.  A graph's ball is the one
        # embed prints.  From a start of support size no graph with n <= 7
        # and no pool graph reaches the cap: IV^NNqf|g is one of 3,000
        # seeded G(n, 1/2), n = 8 to 16.  So is a Gaussian cloud
        # "cloud-SEED-NxD" with n > d + 1
        if case.startswith("cloud-"):
            seed, shape = case.split("-")[1:]
            pts = np.random.default_rng(int(seed)).standard_normal(tuple(map(int, shape.split("x"))))
        else:
            g = parse_graph6(case)
            tau1 = invariants.tau1_mu(g)[0]
            pts = realize(g, 2.0 if tau1 is None else math.sqrt(float(tau1))).points
        block, singular = [], []
        solve, cholesky = geometry._bordered_solve, np.linalg.cholesky

        def logged_solve(d, support):
            if not single:
                block.append(tuple(support))
            return solve(d, support)

        def logged_cholesky(a):
            try:
                return cholesky(a)
            except np.linalg.LinAlgError:
                singular.append(a)
                raise

        single = count_calls(monkeypatch, geometry, "_single_pivots")
        monkeypatch.setattr(geometry, "_bordered_solve", logged_solve)
        monkeypatch.setattr(np.linalg, "cholesky", logged_cholesky)
        min_enclosing_ball(pts)
        monkeypatch.undo()
        if singular:
            got = "singular"
        elif len(block) < geometry.PROPOSAL_PIVOTS:
            got = "dependent"
        else:
            got = "cycle" if len(set(block)) < len(block) else "cap"
        assert single["_single_pivots"] == 1 and got == failure
        TestUpdatedQR.assert_same_ball(pts)


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

    @pytest.mark.parametrize(
        "word, beta2", [("C]", 4), ("E]~o", 4), ("FFzn_", 3), ("F]~vw", 4)]
    )
    def test_half_circumradius_is_twice_tau1(self, monkeypatch, word, beta2):
        # r^2 = 1/2: beta*^2 = 2*tau1 at the window end, where the all-vertex
        # tie polynomial has a multiple root; no root walk runs, also at the
        # 1e-12 above radius 1 that the range check allows
        g = parse_graph6(word)
        invariants.clear_caches()
        tau1, _ = invariants.tau1_mu(g)
        walks = count_calls(monkeypatch, invariants, "smallest_root_greater_than")
        for r in (1.0, 1.0 + 1e-13):
            got = solve_phi(g, r)
            assert walks["smallest_root_greater_than"] == 0
            assert cmp_rational(got, beta2) == 0 and got.compare(tau1.scaled(2)) == 0

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

        monkeypatch.setattr(geometry, "_support_certified", lambda g, s, adjugate, t: False)
        with pytest.raises(UndecidableEnclosureError):
            solve_phi(Graph.cycle(5), 0.97)

    def test_unit_radius_is_beta_star_squared(self, monkeypatch):
        # radius 1 reads beta*^2's one route: no active set, no bordered
        # matrix, no certificate, and no split or bisection on the way
        graphs = [g for g in graphs_up_to_7() if not is_complete(g)] + joins12_corpus(60)
        counts = count_calls(
            monkeypatch, geometry,
            "_active_set", "_bordered_adjugate", "det_poly_matrix", "_support_certified",
        )
        walk = count_calls(
            monkeypatch, invariants, "squarefree_decomposition", "smallest_root_greater_than"
        )
        for g in graphs:
            invariants.clear_caches()
            got = solve_phi(g, 1.0)
            assert got.compare(invariants.beta_star_squared(g)) == 0, g
        invariants.clear_caches()
        assert counts == {} and walk == {}

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
    """Below radius 1, ``solve_phi`` proposes supports by a float active set
    on the squared distances D(t) and certifies one root;
    ``reference.ball_solve_phi``, which proposes them by enclosing balls of
    realized points, is the oracle.  Radius 1 reads beta*^2 instead
    (``TestSolvePhi::test_unit_radius_is_beta_star_squared``), so these
    tests solve at r = 0.97 or 0.99.  The exact walk past a certified root
    runs the Descartes bisection, ``invariants.smallest_root_greater_than``,
    and a proposal that fails on the tie polynomial itself is tried on its
    squarefree split, ``invariants.squarefree_decomposition``."""

    COUNTED = ("_support_certified", "realize", "min_enclosing_ball")

    def solve_against_oracle(self, graphs, monkeypatch):
        """Per-solve call counts of ``COUNTED``, of the walk's split and of
        its bisection at r = 0.97, after checking every solve against the
        oracle."""
        counts = count_calls(monkeypatch, geometry, *self.COUNTED)
        walk = count_calls(
            monkeypatch, invariants, "squarefree_decomposition", "smallest_root_greater_than"
        )
        spent = []
        for g in graphs:
            invariants.clear_caches()
            invariants.tau1_mu(g)  # the window's own work is not the walk's
            before = counts + walk
            got = solve_phi(g, 0.97)
            spent.append(counts + walk - before)
            assert got.compare(ball_solve_phi(g, 0.97)) == 0, g
        return spent

    def assert_certified_once(self, spent):
        once = sum(
            c["squarefree_decomposition"] == 0
            and c["_support_certified"] == 1
            and not c["smallest_root_greater_than"]
            for c in spent
        )
        fallbacks = sum(bool(c["smallest_root_greater_than"]) for c in spent)
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

    def test_random_32_vertex_graphs_match_ball_oracle(self, rng, monkeypatch):
        # the pencil's float root is certified on its interval: no bisection
        # (r = 0.99: 0.97 is below sqrt(31/32))
        walks = count_calls(monkeypatch, invariants, "smallest_root_greater_than")
        with override(max_n=32):
            invariants.clear_caches()
            try:
                for _ in range(2):
                    g = random_graph(rng, 32)
                    invariants.tau1_mu(g)  # the window's own work is not the walk's
                    before = walks["smallest_root_greater_than"]
                    got = solve_phi(g, 0.99)
                    assert walks["smallest_root_greater_than"] == before, g
                    assert got.compare(ball_solve_phi(g, 0.99)) == 0, g
            finally:
                invariants.clear_caches()

    @pytest.mark.parametrize("seed, r", [(5, 0.99), (7, 0.995)])
    def test_random_48_vertex_graphs_solve(self, seed, r):
        # 48-point supports: each float root comes from the pencil of the
        # bordered matrix, and the active set then keeps its support
        rng = random.Random(seed)
        edges = [(i, j) for i in range(48) for j in range(i + 1, 48) if rng.random() < 0.5]
        g = Graph.from_edges(48, edges)
        with override(max_n=48):
            invariants.clear_caches()
            try:
                x = math.sqrt(float(solve_phi(g, r)))
                assert abs(phi(g, x) - r) <= 1e-12, g
            finally:
                invariants.clear_caches()

    def test_solve_caches_only_the_graph_walk_data(self):
        # the supports' bordered matrices are eliminated directly: no
        # support's induced graph reaches the invariant caches.  Only g's
        # own walk data is computed, or for a join its distinct factors'
        graphs = [g for n in range(2, 6) for g in enumerate_graphs(n) if not is_complete(g)]
        assert len(graphs) == 47
        for g in graphs:
            factors = set(complement_components(g))
            for r in (0.99, 0.97):
                invariants.clear_caches()
                solve_phi(g, r)
                assert invariants._walk_data.cache_info().currsize == len(factors), (g, r)
        invariants.clear_caches()

    def test_first_active_set_failure_falls_back(self, monkeypatch):
        # block pivots that settle nothing on the first active set leave it
        # to the single pivots, which propose the block pivots' support,
        # and the solve still finds the oracle's beta*^2
        original = geometry._active_set
        for g in [Graph.cycle(5), Graph.path(4), Graph.empty(3)] + joins12_corpus(3):
            invariants.clear_caches()
            invariants.tau1_mu(g)  # the window's own work is not the walk's
            first = []

            def first_fails(d, start):
                if first:
                    return original(d, start)
                with mock.patch.object(geometry, "PROPOSAL_PIVOTS", 0):
                    got = original(d, start)
                first.append((got[0], single["_single_pivots"], original(d, start)[0]))
                return got

            monkeypatch.setattr(geometry, "_active_set", first_fails)
            single = count_calls(monkeypatch, geometry, "_single_pivots")
            got = solve_phi(g, 0.97)
            monkeypatch.undo()
            support, ran, block = first[0]
            assert ran == 1 and support == block, g
            assert got.compare(ball_solve_phi(g, 0.97)) == 0, g

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
                got, _, r2 = geometry._active_set(d, start)
                assert got == support, (g, t, start)
                assert abs(r2 - ball.radius**2) <= 1e-9 * max(1.0, r2)
            checked += 1

    def test_float_root_polished_to_nearest_float(self, monkeypatch):
        # the pencil of the bordered matrix on all n points at r0 = 1/2
        # finds t* within an ulp, from the middle of (1, tau1)
        half = Fraction(1, 2)
        with override(max_n=48):
            for n, seed in ((7, 1), (16, 2), (32, 3), (48, 4)):
                g = random_graph(random.Random(seed), n)
                invariants.clear_caches()
                expect = float(invariants.t_star(g))
                top = float(invariants.tau1_mu(g)[0])
                a, everything = g.adjacency().astype(float), tuple(range(n))
                got = geometry._float_root_near(a, everything, half, 0.5 * (1.0 + top), top)
                assert abs(got - expect) <= math.ulp(expect), (n, got, expect)
                # t* is the least root above 1: none in (1, top] below it
                below = 0.5 * (1.0 + expect)
                assert geometry._float_root_near(a, everything, half, below, below) is None
            invariants.clear_caches()
        # an independent triple has t = 1.5 at squared radius 1/2: P(1.5) is
        # singular, and t itself is the root, with no eigenvalues taken
        a = parse_graph6("DFw").adjacency().astype(float)
        monkeypatch.setattr(np.linalg, "eigvals", None)
        assert geometry._float_root_near(a, (0, 1, 2), half, 1.5, 4.0) == 1.5


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
        # invariants.beta_star_squared is the one route to beta*: the record
        # (which also runs the join decomposition) and the embedding share a
        # single certificate.
        from twodist import cli, geometry, invariants

        invariants.clear_caches()
        calls = []
        certify = invariants.t_star
        monkeypatch.setattr(invariants, "t_star", lambda g: calls.append(g) or certify(g))
        g = Graph.empty(4)
        cli.analysis_record(g)
        geometry.jspherical_embedding(g)
        assert calls == [g]

    def test_join_solved_once_per_factor(self, monkeypatch):
        # A join reads beta*^2 from its factors' beta_star_squared: one
        # certificate per non-complete factor, none for the join.
        from twodist import cli, geometry, invariants
        from twodist.graphs import join

        invariants.clear_caches()
        calls = []
        certify = invariants.t_star
        monkeypatch.setattr(invariants, "t_star", lambda g: calls.append(g) or certify(g))
        g = join(join(Graph.cycle(5), Graph.path(4)), Graph.complete(1))
        cli.analysis_record(g)
        geometry.jspherical_embedding(g)
        expect = [h for h in complement_components(g) if not is_complete(h)]
        assert expect == [Graph.cycle(5), Graph.path(4)]
        assert calls == expect


@functools.lru_cache(maxsize=None)
def graphs_up_to_7():
    return tuple(g for n in range(1, 8) for g in enumerate_graphs(n))


def complement_perron_root(g):
    abar = np.array([[float(i != j and not g.has_edge(i, j)) for j in range(g.n)] for i in range(g.n)])
    return float(np.linalg.eigvalsh(abar)[-1])


class TestPerronRoot:
    """beta*^2 = 2 t*, t* = 1 + 1/rho with rho the Perron root of the
    complement, certified as the least root above 1 of the r0 = 1/2 tie
    polynomial (``invariants.t_star``); ``reference.ball_solve_phi`` is the
    oracle.  ``solve_phi`` at radius 1 reads ``beta_star_squared``, so
    comparing it checks that the public names agree."""

    def test_gram_determinant_is_tie_polynomial(self):
        # det(I + (1 - t)Abar) = (t - 1)^n chi(1/(t - 1)) = +-(M + C),
        # chi(x) = det(xI - Abar) = sum_i c_i x^(n - i)
        from twodist.polynomials import IntPolynomial

        shift = [(IntPolynomial.x() - IntPolynomial.const(1)) ** i for i in range(8)]
        for g in graphs_up_to_7():
            chi = invariants._walk_data(complement(g))[0]
            det = sum(map(IntPolynomial.scale, shift, chi), IntPolynomial.zero())
            c, m = cm_polynomials(g)
            assert det in (m + c, -(m + c)), g
        assert len(graphs_up_to_7()) == 1252

    def test_matches_solve_phi_and_ball_oracle(self):
        graphs = [g for g in graphs_up_to_7() if not is_complete(g)]
        assert len(graphs) == 1245
        for g in graphs + joins12_corpus(60):
            got = invariants.t_star(g).scaled(2)
            assert got.compare(solve_phi(g, 1.0)) == 0, g
            assert got.compare(ball_solve_phi(g, 1.0)) == 0, g

    def test_pool_agrees_with_perron_root(self):
        for g in embed16_pool()[:100]:
            expect = 2.0 + 2.0 / complement_perron_root(g)
            got = float(invariants.profile(g).beta_star_squared)
            assert abs(got - expect) <= 1e-12 * expect, g

    def test_proposal_certifies_without_bisection(self, monkeypatch):
        # the float Perron root proposes t*, and tau1's certificate accepts it
        graphs = [g for g in graphs_up_to_7() if g.n <= 6 and not is_complete(g)]
        for g in graphs + joins12_corpus(30):
            invariants.clear_caches()
            walks = count_calls(monkeypatch, invariants, "smallest_root_greater_than")
            invariants.t_star(g)
            monkeypatch.undo()
            assert walks["smallest_root_greater_than"] == 0, g

    def test_complete_rejected(self):
        with pytest.raises(CompleteGraphError):
            invariants.t_star(Graph.complete(4))

    def test_joins_take_no_ball_and_no_solve(self, monkeypatch):
        from twodist import cli

        counts = count_calls(monkeypatch, geometry, "solve_phi", "realize", "min_enclosing_ball")
        for g in joins12_corpus(60):
            invariants.clear_caches()
            cli.analysis_record(g)
            kuperberg_decompose(jspherical_embedding(g))
        assert counts == {}


class TestOneBetaStarRoute:
    """``invariants.beta_star_squared`` is beta*^2's one route: a join's
    least factor value, else 2 t*.  ``profile``, ``beta_star_numeric`` and
    ``join_decompose`` read it, so no join factor gets a full profile."""

    def test_join_minimum_is_twice_t_star(self):
        # Abar of a join is block-diagonal: its Perron root is the largest
        # block's, so t* of the whole join is the least over the factors
        joins = [
            g
            for g in graphs_up_to_7()
            if not is_complete(g) and len(complement_component_sets(g)) > 1
        ]
        assert len(joins) == 250
        for g in joins + joins12_corpus(60):
            got = invariants.beta_star_squared(g)
            assert got.compare(invariants.t_star(g).scaled(2)) == 0, g

    def test_half_radius_is_twice_tau1(self):
        # the identity behind the former r^2 = 1/2 shortcut
        count = 0
        for g in graphs_up_to_7():
            if not is_complete(g) and invariants.circumradius_invariant(g).is_half:
                tau1, _ = invariants.tau1_mu(g)
                assert invariants.beta_star_squared(g).compare(tau1.scaled(2)) == 0, g
                count += 1
        assert count == 11

    def test_complete_rejected(self):
        with pytest.raises(CompleteGraphError):
            invariants.beta_star_squared(Graph.complete(3))

    def test_factors_get_only_beta_star(self, monkeypatch):
        from twodist import cli, graphs

        for g in joins12_corpus(30):
            invariants.clear_caches()
            seen = collections.defaultdict(list)
            for module, name in (
                (invariants, "tau1_mu"),
                (invariants, "circumradius_invariant"),
                (invariants, "tau0"),
                (invariants, "is_complete_multipartite"),
                (graphs, "is_complete_multipartite"),
            ):
                original = getattr(module, name)
                monkeypatch.setattr(
                    module, name,
                    lambda h, name=name, original=original: seen[name].append(h) or original(h),
                )
            cli.analysis_record(g)
            kuperberg_decompose(jspherical_embedding(g))
            monkeypatch.undo()
            assert set(seen) == {"tau1_mu", "circumradius_invariant"}, g
            assert set(seen["tau1_mu"]) == set(seen["circumradius_invariant"]) == {g}

    def test_tau0_and_flags_on_first_access(self):
        invariants.clear_caches()
        p3, c5 = invariants.profile(Graph.path(3)), invariants.profile(Graph.cycle(5))
        assert invariants.tau0.cache_info().currsize == 0
        assert p3.tau0 is None and invariants.tau0(Graph.path(3)) is None
        assert c5.tau0 == invariants.tau0(Graph.cycle(5))
        assert abs(float(c5.tau0) - (3 - math.sqrt(5)) / 2) < 1e-12
        assert p3.flags == ("tau0-advisory",) and c5.flags == ()


# ---------------------------------------------------------------------------
# J-spherical embeddings and decomposition
# ---------------------------------------------------------------------------


class TestJSphericalEmbedding:
    def test_antipodal_pair(self):
        w = jspherical_embedding(Graph.empty(2))
        assert w.rank == 1
        d = distance_matrix(w)
        assert abs(d[0, 1] - 2.0) < 1e-9
        assert np.allclose(np.linalg.norm(w.points, axis=1), 1.0, atol=1e-9)

    def test_octahedron(self):
        g = complete_multipartite(MultipartiteSignature((2, 2, 2)))
        w = jspherical_embedding(g)
        assert w.rank == 3
        norms = np.linalg.norm(w.points, axis=1)
        assert float(np.abs(norms - 1).max()) < 1e-8
        d = distance_matrix(w)
        for i in range(6):
            partners = [j for j in range(6) if j != i and abs(d[i, j] - 2.0) < 1e-6]
            others = [j for j in range(6) if j != i and abs(d[i, j] - SQRT2) < 1e-6]
            assert len(partners) == 1 and len(others) == 4

    def test_pentagon(self):
        w = jspherical_embedding(Graph.cycle(5))
        assert w.rank == 4
        norms = np.linalg.norm(w.points, axis=1)
        assert float(np.abs(norms - 1).max()) < 1e-8
        d = distance_matrix(w)
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
            d = distance_matrix(w)
            offdiag = d[~np.eye(g.n, dtype=bool)]
            assert offdiag.min() > SQRT2 - 1e-8
            assert float(np.abs(np.linalg.norm(w.points, axis=1) - 1).max()) < 1e-8

    def test_complete_rejected(self):
        with pytest.raises(CompleteGraphError):
            jspherical_embedding(Graph.complete(3))

    def test_long_distance_past_beta_star_raises(self, monkeypatch):
        # above beta* the Gram matrix I + (1 - t)Abar has a negative eigenvalue
        wrong = beta_star_numeric(Graph.cycle(5)) * 1.01
        monkeypatch.setattr(geometry, "beta_star_numeric", lambda g: wrong)
        with pytest.raises(GeometricInconsistencyError, match="eigenvalue"):
            jspherical_embedding(Graph.cycle(5))


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

    def test_non_finite_long_distance_rejected(self):
        # A NaN b once made the long-distance threshold NaN: no pair reached
        # it, and the C5 + P3 join came out as one Type I block of 8 points.
        w = jspherical_embedding(join(Graph.cycle(5), Graph.path(3)))
        assert len(kuperberg_decompose(w).factors) == 3
        for b in (math.nan, math.inf):
            with pytest.raises(GeometricInconsistencyError, match="not finite"):
                kuperberg_decompose(PointConfig(w.points, SQRT2, b, w.rank))

    def test_nan_coordinates_rejected(self):
        # A NaN norm once passed the unit-sphere test, and LAPACK raised
        one_row = np.array([[1.0, 0.0], [0.0, 1.0], [math.nan, 0.0]])
        for pts in (np.full((3, 2), math.nan), one_row):
            with pytest.raises(GeometricInconsistencyError, match="unit sphere"):
                kuperberg_decompose(PointConfig(pts, SQRT2, 2.0, 2))

    def test_overflowing_coordinates_rejected(self):
        # The Gram product of these overflows (or meets inf * 0): numpy's
        # RuntimeWarning once escaped before the documented error
        for big in (1e200, math.inf):
            pts = np.array([[big, 0.0], [0.0, 1.0]])
            with pytest.raises(GeometricInconsistencyError, match="unit sphere"):
                kuperberg_decompose(PointConfig(pts, SQRT2, 2.0, 2))

    def test_no_points_rejected(self):
        with pytest.raises(ValueError, match="config.points"):
            kuperberg_decompose(PointConfig(np.zeros((0, 3)), SQRT2, 2.0, 0))


def orthogonal_unions(np_rng, count):
    """``count`` seeded unit-sphere two-distance sets with their expected
    decompositions: (config, {block: type}).  Each is 2-4 mutually
    orthogonal blocks, rotated at random in up to two extra dimensions,
    with the points shuffled: a regular simplex of 3-5 points or an
    antipodal pair (Type I), or a cap of 1-5 linearly independent unit
    vectors at inner products -c, 0 < c < 1/(k - 1) (Type II).  b is the
    least long distance."""
    for _ in range(count):
        parts = []  # (points, Type I?, long distance)
        for _ in range(int(np_rng.integers(2, 5))):
            family = int(np_rng.integers(3))
            if family == 0:
                k = int(np_rng.integers(3, 6))
                parts.append((regular_simplex(k - 1), True, math.sqrt(2 + 2 / (k - 1))))
            elif family == 1:
                parts.append((np.array([[1.0], [-1.0]]), True, 2.0))
            else:
                k = int(np_rng.integers(1, 6))
                c = float(np_rng.uniform(0.25, 0.9)) / max(k - 1, 1)
                gram = (1 + c) * np.eye(k) - c
                parts.append((np.linalg.cholesky(gram), False, math.sqrt(2 + 2 * c)))
        dim = sum(p.shape[1] for p, _, _ in parts)
        pts = np.zeros((sum(len(p) for p, _, _ in parts), dim))
        row = col = 0
        owner = []
        for idx, (p, _, _) in enumerate(parts):
            pts[row : row + len(p), col : col + p.shape[1]] = p
            owner += [idx] * len(p)
            row, col = row + len(p), col + p.shape[1]
        order = np_rng.permutation(len(pts))
        pts = placed(pts[order], dim + int(np_rng.integers(3)), np_rng)
        expect = {
            tuple(i for i in range(len(pts)) if owner[order[i]] == idx): "I" if one else "II"
            for idx, (_, one, _) in enumerate(parts)
        }
        b = min((d for p, _, d in parts if len(p) > 1), default=2.0)
        yield PointConfig(pts, SQRT2, b, dim), expect


class TestKuperbergAgainstLstsq:
    """``kuperberg_decompose`` reads one Gram matrix: squared distances, bit
    rows of the long-distance graph, and a bordered solve per block.
    ``reference.lstsq_kuperberg_decompose``, the pair loop over the
    distances with one least-squares projection per block, is the oracle:
    blocks, types, k and flags agree on J-spherical embeddings and on
    rotated unions of orthogonal blocks."""

    @staticmethod
    @functools.cache
    def corpus():
        graphs = [g for g in graphs_up_to_7() if g.n <= 6 and not is_complete(g)]
        configs = [jspherical_embedding(g) for g in graphs + joins12_corpus(60)]
        unions = list(orthogonal_unions(np.random.default_rng(20240613), 60))
        return configs, unions

    def test_agrees_with_lstsq_oracle(self):
        configs, unions = self.corpus()
        for config in configs:
            assert kuperberg_decompose(config) == lstsq_kuperberg_decompose(config)
        labels = collections.Counter()
        for config, expect in unions:
            fz = kuperberg_decompose(config)
            assert fz == lstsq_kuperberg_decompose(config)
            assert dict(fz.factors) == expect
            assert fz.k == list(expect.values()).count("I")
            labels.update(expect.values())
        assert labels["I"] > 20 and labels["II"] > 20

    def test_no_least_squares(self, monkeypatch):
        configs, unions = self.corpus()
        calls = count_calls(monkeypatch, np.linalg, "lstsq")
        for config in configs + [config for config, _ in unions]:
            kuperberg_decompose(config)
        assert calls == {}


# ---------------------------------------------------------------------------
# Type I / II: the projection of the origin and the reference enclosing
# ball's center against a linear program
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
            assert origin_in_convex_hull(pts, self.TOL) == type_one
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
            assert origin_in_convex_hull(pts, self.TOL) == expect
            seen.add(expect)
        assert seen == {True, False}

    def test_no_coordinates_is_type_one(self):
        assert origin_in_convex_hull(np.zeros((3, 0)), self.TOL)
        assert origin_in_convex_hull(np.zeros((1, 0)), self.TOL)

    def test_projection_agrees_with_lp_on_independent_families(self):
        # kuperberg_decompose's one projection of the origin, from the
        # block's Gram matrix, on the affinely independent families, against
        # the LP and the least-squares projection.  The origin is on the
        # affine hull of the simplex, and of a cap whose hull spans the
        # cap's own coordinates, where only the negative weights make it
        # Type II.
        np_rng = np.random.default_rng(20240613)
        count = 0
        for k in range(1, 6):
            families = [  # (points, Type I?, origin on the affine hull?)
                (regular_simplex(k), True, True),
                (np.eye(k), False, False),
                (spherical_cap(k + 2, k + 1, np_rng), False, True),
                (unit_rows(np_rng.standard_normal((1, k))), False, False),
            ]
            for block, type_one, on_hull in families:
                for extra in (0, 2):
                    pts = placed(block, block.shape[1] + extra, np_rng)
                    assert lp_origin_in_hull(pts, self.TOL) == type_one
                    (inside,), (distance,) = _origin_against_hull(
                        pts @ pts.T, pts, [(0, len(pts))]
                    )
                    assert inside == type_one
                    assert (distance <= self.TOL) == on_hull
                    oracle_inside, oracle_distance = lstsq_origin_against_hull(pts)
                    assert oracle_inside == type_one
                    assert (oracle_distance <= self.TOL) == on_hull
                    count += 1
        assert count == 40

    def test_dependent_block_raises(self):
        # antipodal pairs in more than one direction: affinely dependent
        half = unit_rows(np.random.default_rng(3).standard_normal((2, 3)))
        pts = np.vstack([half, -half])
        with pytest.raises(GeometricInconsistencyError, match="affine rank"):
            _origin_against_hull(pts @ pts.T, pts, [(0, len(pts))])
        with pytest.raises(GeometricInconsistencyError, match="affine rank"):
            lstsq_origin_against_hull(pts)
        # behind an independent block, in the one test of all blocks
        both = np.vstack([regular_simplex(2) @ np.eye(2, 3), pts])
        with pytest.raises(GeometricInconsistencyError, match="affine rank"):
            _origin_against_hull(both @ both.T, both, [(0, 3), (3, 7)])
        five = both[:5]
        (inside, _), _ = _origin_against_hull(five @ five.T, five, [(0, 3), (3, 5)])
        assert inside


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
