import json

import pytest

from twodist.graphs import (
    Graph,
    MultipartiteSignature,
    complement,
    complete_multipartite,
    enumerate_graphs,
)
from twodist.invariants import cm_polynomials, profile
from twodist.oracle import (
    probe_f_monotonicity,
    reciprocal_check,
    verify_profile,
)


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


class TestMonotonicityProbe:
    def test_path3_closed_form(self):
        rep = probe_f_monotonicity(Graph.path(3), grid=80)
        assert rep.ok
        assert "0 monotonicity" in rep.checks[0][2]

    def test_square(self):
        g = complete_multipartite(MultipartiteSignature((2, 2)))
        rep = probe_f_monotonicity(g, grid=100)
        assert "0 monotonicity" in rep.checks[0][2]

    def test_pentagon(self):
        rep = probe_f_monotonicity(Graph.cycle(5), grid=100)
        assert "0 monotonicity" in rep.checks[0][2]

    def test_requires_finite_window(self):
        with pytest.raises(ValueError):
            probe_f_monotonicity(Graph.complete(3))
