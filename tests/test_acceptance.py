"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from conftest import random_graph
from reference import distance_matrix
from twodist.config import override
from twodist.geometry import (
    PointConfig,
    SQRT2,
    beta_star_numeric,
    jspherical_embedding,
    kuperberg_decompose,
    min_enclosing_ball,
    phi,
    realize,
)
from twodist.graphs import (
    Graph,
    MultipartiteSignature,
    canonical_key,
    complement,
    complement_component_sets,
    complete_multipartite,
    enumerate_graphs,
    is_complete,
    is_disjoint_clique_union,
    is_strongly_regular,
    join,
    to_graph6,
)
from twodist.invariants import (
    circumradius_invariant,
    cm_polynomials,
    profile,
    tau1_mu,
)
from twodist.joins import dims_via_join, join_decompose, multipartite_dims
from twodist.oracle import reciprocal_check, verify_profile
from twodist.polynomials import IntPolynomial


def poly(*coeffs):
    return IntPolynomial.from_coeffs(coeffs)


def clique_union(sizes) -> Graph:
    """Disjoint union of cliques = complement of the complete multipartite."""
    return complement(complete_multipartite(MultipartiteSignature(tuple(sizes))))


def all_signatures(total):
    def parts(remaining, cap):
        if remaining == 0:
            yield ()
            return
        for first in range(min(cap, remaining), 0, -1):
            for rest in parts(remaining - first, first):
                yield (first,) + rest

    yield from parts(total, total)


def dim_s_of(g: Graph) -> int:
    """dim_s from the exact invariants only (no long-distance solve)."""
    _, mu = tau1_mu(g)
    if circumradius_invariant(g).is_finite:
        return g.n - mu - 1
    return g.n - 1


def test_criterion_1_beta_star_exact_targets():
    """Long-distance targets of clique-union families."""
    start = time.time()
    with override(max_n=17):
        for sizes in ((1, 1, 1), (2, 2), (1, 4)):
            got = beta_star_numeric(clique_union(sizes))
            assert abs(got - math.sqrt(3)) < 1e-9, (sizes, got)
        for sizes in ((1, 1, 1, 1, 1), (2, 2, 2), (4, 4), (2, 8), (1, 16)):
            got = beta_star_numeric(clique_union(sizes))
            assert abs(got - math.sqrt(5 / 2)) < 1e-9, (sizes, got)
    elapsed = time.time() - start
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    print(f"\nCRITERION 1 PASS (beta* exact targets, {elapsed:.1f}s)")


def test_criterion_2_cross_polytope_family():
    """Determinant polynomial, dimensions, and embedding of K_{2,...,2}."""
    t = IntPolynomial.x()
    for m in range(2, 7):
        g = complete_multipartite(MultipartiteSignature((2,) * m))
        c, _ = cm_polynomials(g)
        expected = IntPolynomial.const(2 * m) * t**m * poly(2, -1) ** (m - 1)
        assert c == expected, f"m={m}"
        p = profile(g)
        assert (p.dim_e, p.dim_s, p.dim_j) == (m, m, m)
        w = jspherical_embedding(g)
        assert w.rank == m
        pts = w.points
        assert float(np.abs(np.linalg.norm(pts, axis=1) - 1).max()) < 1e-9
        d = distance_matrix(w)
        # regular cross-polytope up to isometry: each point has exactly one
        # antipodal partner at distance 2 and the rest at sqrt(2)
        for i in range(2 * m):
            row = np.delete(d[i], i)
            assert ((np.abs(row - 2.0) < 1e-9) | (np.abs(row - SQRT2) < 1e-9)).all()
            assert int((np.abs(row - 2.0) < 1e-9).sum()) == 1
    print("\nCRITERION 2 PASS (cross-polytope family m=2..6)")


def test_criterion_3_multipartite_closed_form():
    """Closed form equals the pipeline for every signature with total <= 9."""
    checked = 0
    for total in range(2, 10):
        for parts in all_signatures(total):
            if len(parts) < 2:
                continue
            sig = MultipartiteSignature(parts)
            g = complete_multipartite(sig)
            p = profile(g)
            assert multipartite_dims(sig) == (p.dim_e, p.dim_s, p.dim_j), parts
            checked += 1
    # bipartite split for all m != n with m + n <= 9
    for m in range(1, 9):
        for n in range(1, m):
            if m + n > 9:
                continue
            p = profile(complete_multipartite(MultipartiteSignature((m, n))))
            assert p.dim_e == m + n - 2
            assert p.dim_s == m + n - 1
            assert p.dim_e < p.dim_s
    print(f"\nCRITERION 3 PASS (multipartite closed form, {checked} signatures)")


def test_criterion_4_pentagon():
    """Window endpoint and squared circumradius of the 5-cycle."""
    g = Graph.cycle(5)
    p = profile(g)
    assert (p.dim_e, p.dim_s, p.dim_j) == (2, 2, 4)
    root = p.tau1
    assert root.width <= Fraction(1, 10**12)
    # (3 + sqrt5)/2 is the larger root of t^2 - 3t + 1: exact sign change
    golden = poly(1, -3, 1)
    assert golden(root.lo) * golden(root.hi) < 0
    assert root.lo > 2  # isolates the larger root
    r2 = p.r_squared
    assert r2.kind == "finite"
    # (5 + sqrt5)/10 is the larger root of 100x^2 - 100x + 20
    target = poly(20, -100, 100)
    assert target(r2.lo) * target(r2.hi) < 0
    assert r2.lo > Fraction(1, 2)
    print("\nCRITERION 4 PASS (pentagon)")


def test_criterion_5_exhaustive_small_graphs():
    """Exhaustive n <= 6 invariant scan, zero failures."""
    start = time.time()
    counts = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156}
    failures = []
    for n in range(1, 7):
        gs = enumerate_graphs(n)
        assert len(gs) == counts[n]
        for g in gs:
            p = profile(g)
            rep = verify_profile(g, p)
            if not rep.ok:
                failures.append((to_graph6(g), "oracle", rep.failures()))
            if p.r_squared.kind == "finite" and not p.r_squared.lo > Fraction(1, 2):
                failures.append((to_graph6(g), "radius-lower-bound", p.r_squared))
            if not reciprocal_check(g).ok:
                failures.append((to_graph6(g), "reciprocal", None))
            if (p.dim_e == n - 1) != is_disjoint_clique_union(g):
                failures.append((to_graph6(g), "clique-union-characterization", p.dim_e))
            if n > (p.dim_e + 1) * (p.dim_e + 2) // 2:
                failures.append((to_graph6(g), "euclidean-cardinality-bound", p.dim_e))
            if n >= 2 and n > p.dim_s * (p.dim_s + 3) // 2:
                failures.append((to_graph6(g), "spherical-cardinality-bound", p.dim_s))
    elapsed = time.time() - start
    assert not failures, failures[:10]
    assert elapsed < 600.0, f"took {elapsed:.1f}s"
    print(f"\nCRITERION 5 PASS (exhaustive n<=6, 208 graphs, {elapsed:.1f}s)")


def test_criterion_6_strongly_regular_equivalence():
    """dim_s(G) + dim_s(Gbar) + 1 = n exactly for strongly regular graphs."""
    start = time.time()
    dim_s_by_key = {}
    classes = []
    # n = 1 is excluded: its dimension rests on the single-point convention
    # (dim 0), which makes the identity hold vacuously without the graph
    # being strongly regular.
    for n in range(2, 8):
        for g in enumerate_graphs(n):
            dim_s = dim_s_of(g)
            dim_s_by_key[canonical_key(g)] = dim_s
            classes.append(g)
            # radius lower bound and cardinality bounds, full n <= 7 range
            r2 = circumradius_invariant(g)
            if r2.kind == "finite":
                assert r2.lo > Fraction(1, 2), to_graph6(g)
            _, mu = tau1_mu(g)
            dim_e = n - mu - 1
            assert n <= (dim_e + 1) * (dim_e + 2) // 2, to_graph6(g)
            assert n <= dim_s * (dim_s + 3) // 2, to_graph6(g)
    mismatches = []
    for g in classes:
        identity = (
            dim_s_by_key[canonical_key(g)]
            + dim_s_by_key[canonical_key(complement(g))]
            + 1
            == g.n
        )
        if identity != is_strongly_regular(g):
            mismatches.append((to_graph6(g), identity, is_strongly_regular(g)))
    assert not mismatches, mismatches[:10]

    # Petersen and its complement, the triangular graph T(5)
    pet = Graph.petersen()
    t5 = complement(pet)
    ds_pet, ds_t5 = dim_s_of(pet), dim_s_of(t5)
    assert (ds_pet, ds_t5) == (5, 4)
    assert ds_pet + ds_t5 + 1 == 10
    assert is_strongly_regular(pet)
    for g in (pet, t5):
        rep = verify_profile(g)  # realized-rank cross-check at the endpoint
        assert rep.ok, rep.failures()
    elapsed = time.time() - start
    print(f"\nCRITERION 6 PASS (strongly regular equivalence n<=7 + Petersen, "
          f"{elapsed:.1f}s)")


def test_criterion_7_join_consistency(rng):
    """500 random joins: formula vs pipeline, and the minimum rule for the
    long distance."""
    start = time.time()
    beta_checked = 0
    for trial in range(500):
        n1 = rng.randrange(1, 7)
        n2 = rng.randrange(1, 8 - n1)
        g1, g2 = random_graph(rng, n1), random_graph(rng, n2)
        g = join(g1, g2)
        p = profile(g)
        assert dims_via_join(g) == (p.dim_j, p.dim_s, p.dim_e), (
            to_graph6(g1), to_graph6(g2))
        if not is_complete(g) and trial % 5 == 0:
            fz = join_decompose(g)
            finite = [b for b in fz.beta_stars if math.isfinite(b)]
            assert abs(beta_star_numeric(g) - min(finite)) < 1e-8
            beta_checked += 1
    elapsed = time.time() - start
    print(f"\nCRITERION 7 PASS (500 joins, {beta_checked} beta* checks, "
          f"{elapsed:.1f}s)")


def test_criterion_8_phi_properties(rng):
    """Radius function: simplex value at sqrt(2), monotonicity, and the
    exact-ratio identity at interior circumcenters."""
    # value at the short end for 50 random graphs
    for _ in range(50):
        g = random_graph(rng, rng.randrange(2, 9))
        assert abs(phi(g, SQRT2) - math.sqrt((g.n - 1) / g.n)) < 1e-10
    # monotonicity on sampled grids
    violations = 0
    ratio_checked = 0
    for _ in range(60):
        g = random_graph(rng, rng.randrange(2, 8))
        from twodist.invariants import feasible_interval

        lo, hi = feasible_interval(g)
        x_hi = math.sqrt(2 * min(hi, 8.0))
        xs = np.linspace(SQRT2, x_hi, 20)
        vals = [phi(g, float(x)) for x in xs]
        violations += int((np.diff(vals) < -1e-9).sum())
        # interior-circumcenter samples: squared radius equals twice the
        # rational determinant ratio at t = x^2/2
        c_poly, m_poly = cm_polynomials(g)
        for x in xs[3:-3:4]:
            cfg = realize(g, float(x), SQRT2)
            ball = min_enclosing_ball(cfg.points)
            if len(ball.support) < g.n:
                continue
            t = Fraction(float(x) ** 2 / 2).limit_denominator(10**12)
            f_val = -float(m_poly(t)) / (2.0 * float(c_poly(t)))
            assert abs(ball.radius**2 - 2.0 * f_val) < 1e-8
            ratio_checked += 1
    assert violations == 0
    assert ratio_checked >= 30
    print(f"\nCRITERION 8 PASS (phi properties, {ratio_checked} ratio samples)")


def test_criterion_9_kuperberg_decomposition():
    """Type structure of the produced unit-sphere representations."""
    octa = complete_multipartite(MultipartiteSignature((2, 2, 2)))
    fz = kuperberg_decompose(jspherical_embedding(octa))
    assert fz.k == 3
    assert all(label == "I" for _, label in fz.factors)

    # the right isosceles triangle on the unit circle
    pts = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
    fz = kuperberg_decompose(PointConfig(pts, SQRT2, 2.0, 2))
    labels = dict(fz.factors)
    assert labels[(0, 1)] == "I" and labels[(2,)] == "II"
    assert fz.k == 1

    subjects = []
    with override(max_n=17):
        for sizes in ((1, 1, 1), (2, 2), (1, 4), (1, 1, 1, 1, 1), (2, 2, 2),
                      (4, 4), (2, 8), (1, 16)):
            subjects.append(clique_union(sizes))
        for m in range(2, 7):
            subjects.append(complete_multipartite(MultipartiteSignature((2,) * m)))
        subjects.append(Graph.cycle(5))
        for g in subjects:
            w = jspherical_embedding(g)
            fz = kuperberg_decompose(w)
            got = sorted(sorted(ix) for ix, _ in fz.factors)
            expect = sorted(sorted(vs) for vs in complement_component_sets(g))
            assert got == expect, to_graph6(g)
            assert g.n == w.rank + fz.k
    print(f"\nCRITERION 9 PASS (kuperberg decomposition, {len(subjects) + 2} subjects)")
