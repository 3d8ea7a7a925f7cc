import json
from collections import Counter
from fractions import Fraction

import pytest

from twodist.graphs import (
    Graph,
    MultipartiteSignature,
    complement,
    complete_multipartite,
    enumerate_graphs,
    to_graph6,
)
from twodist.invariants import cm_polynomials, profile, tau1_mu
from twodist.oracle import (
    f_shape,
    probe_f_monotonicity,
    reciprocal_check,
    verify_profile,
)
from twodist.polynomials import AlgebraicReal, IntPolynomial


class TestVerifyProfile:
    def test_path3(self):
        rep = verify_profile(Graph.path(3))
        assert rep.ok, rep.failures()
        names = [name for name, _, _ in rep.checks]
        assert "determinant-agreement" in names
        assert "realized-rank" in names

    def test_octahedron_spherical(self):
        g = complete_multipartite(MultipartiteSignature((2, 2, 2)))
        rep = verify_profile(g)
        assert rep.ok, rep.failures()
        detail = dict((n, d) for n, _, d in rep.checks)
        # radius of the minimal representation is 1/sqrt(2)
        assert "0.5" in detail["spherical-at-window-end"]

    def test_pentagon(self):
        rep = verify_profile(Graph.cycle(5))
        assert rep.ok, rep.failures()

    def test_exhaustive_n4(self):
        for g in enumerate_graphs(4):
            rep = verify_profile(g, profile(g))
            assert rep.ok, (g, rep.failures())

    def test_report_json(self):
        rep = verify_profile(Graph.path(3))
        parsed = json.loads(rep.to_json())
        assert parsed["ok"] is True
        assert parsed["subject"] == "Bg"  # path 0-1-2 in graph6


def calibrate_reciprocal(max_n: int) -> set[tuple[int, int]]:
    """The (sign, exponent - n) pairs for which the complement's bordered
    determinant is sign * t^exponent * C(1/t) on every graph with at most
    max_n vertices."""
    fits: set[tuple[int, int]] | None = None
    for n in range(1, max_n + 1):
        for g in enumerate_graphs(n):
            c_g, _ = cm_polynomials(g)
            c_bar, _ = cm_polynomials(complement(g))
            local = set()
            for sign in (1, -1):
                for off in (-1, 0):
                    exponent = n + off
                    if (c_g.degree or 0) > exponent:
                        continue
                    if c_bar == c_g.reciprocal(exponent).scale(sign):
                        local.add((sign, off))
            fits = local if fits is None else fits & local
    return fits


class TestReciprocal:
    def test_calibration(self):
        # exponent n-1 with sign +1 fits every graph up to n=5, and
        # nothing else does
        assert calibrate_reciprocal(5) == {(1, -1)}

    def test_path3_example(self):
        rep = reciprocal_check(Graph.path(3))
        assert rep.ok

    def test_exhaustive_small(self):
        for n in range(1, 6):
            for g in enumerate_graphs(n):
                assert reciprocal_check(g).ok


def poly(*coeffs):
    return IntPolynomial.from_coeffs(list(coeffs))


def probe_detail(g):
    return probe_f_monotonicity(g).checks[0][2]


class TestMonotonicityProbe:
    def test_path3_closed_form(self):
        # C = t (t - 4) and M = 2t: f = 1/(4 - t) on (1, 4)
        rep = probe_f_monotonicity(Graph.path(3))
        assert rep.ok
        assert rep.checks[0][2] == "increasing and convex on (1, tau1)"

    def test_square(self):
        # K_{2,2} = C4 = C]: N2 = 0, so f is affine on (1, tau1)
        g = complete_multipartite(MultipartiteSignature((2, 2)))
        assert to_graph6(g) == "C]"
        assert probe_detail(g) == "increasing and affine on (1, tau1)"

    def test_pentagon(self):
        # C = -5 (t^2 - 3t + 1)^2 and M = 2 (t + 1)(t^2 - 3t + 1)^2: f = (t + 1)/5
        assert probe_detail(Graph.cycle(5)) == "increasing and affine on (1, tau1)"

    def test_requires_finite_window(self):
        with pytest.raises(ValueError):
            probe_f_monotonicity(Graph.complete(3))

    def test_synthetic_shapes(self):
        # C = t - 3, so tau1 = 3, and M = -2 C h gives f = -M/(2C) = h
        c = poly(-3, 1)
        tau1 = AlgebraicReal(c, Fraction(5, 2), Fraction(7, 2))
        shapes = {
            # (t - 2)^2: f' changes sign at 2; N1 = 4 (t - 3)^2 (t - 2) also
            # vanishes at tau1, to even order, and that root is not counted
            (4, -4, 1): "f' changes sign 1 time on (1, tau1)",
            # 4t^3 - 24t^2 + 45t: f' = 3 (2t - 3)(2t - 5)
            (0, 45, -24, 4): "f' changes sign 2 times on (1, tau1)",
            # (4t - 7)^3: f' has a root of even multiplicity at 7/4
            (-343, 588, -336, 64): "increasing, f'' changes sign 1 time on (1, tau1)",
            (0, 0, -1): "decreasing and concave on (1, tau1)",
            (5,): "constant on (1, tau1)",
            (1, 1): "increasing and affine on (1, tau1)",
            (0, 0, 0, 1): "increasing and convex on (1, tau1)",
        }
        for h, shape in shapes.items():
            m = (c * poly(*h)).scale(-2)
            assert f_shape(c, m, tau1) == shape, h

    def test_census_up_to_six(self):
        # every graph with 3 <= n <= 6 that has a tau1: no sign change of f'
        # or f'', 173 convex and 6 affine
        shapes = Counter(
            probe_detail(g)
            for n in range(3, 7)
            for g in enumerate_graphs(n)
            if tau1_mu(g)[0] is not None
        )
        assert shapes == {
            "increasing and convex on (1, tau1)": 173,
            "increasing and affine on (1, tau1)": 6,
        }
