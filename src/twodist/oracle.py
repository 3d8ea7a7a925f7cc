"""Independent brute-force cross-checks of the exact pipeline.

The checks here deliberately take different routes than the library
proper: determinants are re-evaluated in floating point at random
rational points, ranks come from realized coordinates rather than root
multiplicities, and sphericity is tested on actual distances to the
enclosing-ball center.  The conjecture probe decides the shape of the
squared circumradius exactly and reports it, but never fails."""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .graphs import Graph, complement, to_graph6
from .invariants import TwoDistanceProfile, _roots_up_to, cm_polynomials, profile, tau1_mu
from .polynomials import AlgebraicReal, IntPolynomial
from . import geometry


@dataclass
class OracleReport:
    subject: str
    checks: list[tuple[str, bool, str]] = field(default_factory=list)
    worst_residual: float = 0.0

    def add(self, name: str, ok: bool, detail: str, residual: float = 0.0):
        self.checks.append((name, ok, detail))
        self.worst_residual = max(self.worst_residual, residual)

    @property
    def ok(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    def failures(self) -> list[str]:
        return [name for name, ok, _ in self.checks if not ok]

    def to_json(self) -> str:
        return json.dumps(
            {
                "subject": self.subject,
                "ok": self.ok,
                "worst_residual": self.worst_residual,
                "checks": [
                    {"name": n, "ok": ok, "detail": d} for n, ok, d in self.checks
                ],
            }
        )


def _numeric_det(g: Graph, t: float, bordered: bool) -> float:
    """det of the distance matrix D(t), 1 on edges, t on the other pairs and
    0 on the diagonal, or of its bordered matrix [[0, 1^T], [1, D(t)]]."""
    d = np.where(g.adjacency(), 1.0, t)
    np.fill_diagonal(d, 0.0)
    if bordered:
        m = np.ones((g.n + 1, g.n + 1))
        m[0, 0] = 0.0
        m[1:, 1:] = d
        d = m
    return float(np.linalg.det(d))


def verify_profile(g: Graph, p: TwoDistanceProfile | None = None) -> OracleReport:
    """Cross-validate a profile against floating-point re-computation.

    (1) the exact determinant polynomials agree with numeric determinants
    at 10 random rational points; (2) the rank of the realized
    configuration at the window endpoint matches n - mu - 1; (3) when the
    squared circumradius is finite, the realization there is spherical
    with radius inside the enclosure."""
    if p is None:
        p = profile(g)
    report = OracleReport(subject=to_graph6(g))
    rng = random.Random(to_graph6(g))
    c_poly, m_poly = cm_polynomials(g)
    worst = 0.0
    for _ in range(10):
        q = Fraction(rng.randrange(1, 500), rng.randrange(1, 500))
        tf = float(q)
        for poly, det in (
            (c_poly, _numeric_det(g, tf, True)),
            (m_poly, _numeric_det(g, tf, False)),
        ):
            exact = float(poly(q))
            rel = abs(det - exact) / max(1.0, abs(exact))
            worst = max(worst, rel)
    report.add(
        "determinant-agreement",
        worst <= 1e-8,
        f"worst relative residual {worst:.3e} over 10 random points",
        worst,
    )
    # Rank of the realization at the upper window endpoint (or any interior
    # point when the window is unbounded) must equal n - mu - 1 (or n - 1).
    root, mu = tau1_mu(g)
    if root is None:
        t_val = 4.0
        expected_rank = g.n - 1
    else:
        t_val = float(root.refined(Fraction(1, 10**14)))
        expected_rank = g.n - mu - 1
    config = geometry.realize(g, math.sqrt(t_val))
    report.add(
        "realized-rank",
        config.rank == expected_rank,
        f"rank {config.rank} vs expected {expected_rank} at t={t_val:.6g}",
    )
    if p.r_squared.is_finite and root is not None:
        # Sphericity means a point equidistant from every vertex exists in
        # the affine hull; that circumcenter can sit outside the convex
        # hull, so solve the equidistance system rather than trusting the
        # enclosing-ball center.
        pts = config.points
        rows = 2.0 * (pts[1:] - pts[0])
        rhs = (pts[1:] ** 2).sum(axis=1) - (pts[0] ** 2).sum()
        center, *_ = np.linalg.lstsq(rows, rhs, rcond=None)
        dists = np.linalg.norm(pts - center, axis=1)
        spread = float(dists.max() - dists.min())
        radius_sq = float(dists.mean() ** 2)
        r_lo, r_hi = float(p.r_squared.lo), float(p.r_squared.hi)
        in_enc = r_lo - 1e-7 <= radius_sq <= r_hi + 1e-7
        report.add(
            "spherical-at-window-end",
            spread <= 1e-7 and in_enc,
            f"circumdistance spread {spread:.3e}, radius^2 {radius_sq:.12g} "
            f"vs enclosure [{float(p.r_squared.lo):.12g}, "
            f"{float(p.r_squared.hi):.12g}]",
            spread,
        )
    return report


def reciprocal_check(g: Graph) -> OracleReport:
    """The complement's bordered determinant must equal the reciprocal
    t^(n-1) C(1/t) of the graph's own."""
    report = OracleReport(subject=to_graph6(g))
    c_g, _ = cm_polynomials(g)
    c_bar, _ = cm_polynomials(complement(g))
    # Since Dbar(1/t) = D(t)/t; tau0 relies on the same identity.
    expected = c_g.reciprocal(g.n - 1)
    report.add(
        "reciprocal-polynomial",
        c_bar == expected,
        f"complement coeffs {c_bar.coeffs} vs reciprocal {expected.coeffs}",
    )
    return report


def _odd_roots(p: IntPolynomial, top: AlgebraicReal) -> tuple[int, int]:
    """(k, s): k counts p's roots of odd multiplicity in (1, top), where p
    changes sign, from the walk ``invariants._roots_up_to``, and s is p's
    sign at a rational point below its first root there; (0, 0) for p = 0."""
    if p.is_zero:
        return 0, 0
    roots = [(root, mult) for root, mult in _roots_up_to(p, None, top) if root.compare(top) < 0]
    x = (1 + min([top.lo] + [root.lo for root, _ in roots[:1]])) / 2
    return sum(mult % 2 for _, mult in roots), 1 if p(x) > 0 else -1


def f_shape(c: IntPolynomial, m: IntPolynomial, tau1: AlgebraicReal) -> str:
    """The shape of f = -M/(2C) on (1, tau1), tau1 C's least root above 1,
    decided exactly: f' = N1/(2C^2) and f'' = N2/(2C^3), N1 = M C' - M' C
    and N2 = N1' C - 2 C' N1, change sign at the roots of odd multiplicity
    of N1 and N2, and N1 = 0 (N2 = 0) means f is constant (affine)."""
    dc = c.derivative()
    n1 = m * dc - m.derivative() * c
    n2 = n1.derivative() * c - (dc * n1).scale(2)
    (turns, slope), (bends, bend) = _odd_roots(n1, tau1), _odd_roots(n2, tau1)
    if turns:
        return f"f' changes sign {turns} time{'s' * (turns > 1)} on (1, tau1)"
    if not slope:
        return "constant on (1, tau1)"
    shape = "increasing" if slope > 0 else "decreasing"
    if bends:
        return f"{shape}, f'' changes sign {bends} time{'s' * (bends > 1)} on (1, tau1)"
    bend *= 1 if c((1 + tau1.lo) / 2) > 0 else -1  # C keeps one sign on (1, tau1)
    return f"{shape} and {('affine', 'convex', 'concave')[bend]} on (1, tau1)"


def probe_f_monotonicity(g: Graph) -> OracleReport:
    """The shape of the squared circumradius f = -M/(2C) on (1, tau1),
    decided exactly (``f_shape``).  Informational: the report never fails."""
    root, _ = tau1_mu(g)
    if root is None:
        raise ValueError("requires a finite window endpoint")
    report = OracleReport(subject=to_graph6(g))
    report.add("f-monotonicity-probe", True, f_shape(*cm_polynomials(g), root))
    return report
