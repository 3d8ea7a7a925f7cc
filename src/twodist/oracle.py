"""Independent brute-force cross-checks of the exact pipeline.

The checks here deliberately take different routes than the library
proper: determinants are re-evaluated in floating point at random
rational points, ranks come from realized coordinates rather than root
multiplicities, and sphericity is tested on actual distances to the
enclosing-ball center.  Conjecture probes report observations but never
fail."""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .graphs import Graph, complement, to_graph6
from .invariants import (
    TwoDistanceProfile,
    cm_polynomials,
    profile,
    tau1_mu,
)
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
        if g.n == 1:
            spread, radius_sq = 0.0, 0.0
            in_enc = True
        else:
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


def probe_f_monotonicity(g: Graph, grid: int = 100) -> OracleReport:
    """Sample the squared-circumradius function -M/(2C) on a grid over
    (1, tau1) and report monotonicity/convexity violations.  Informational:
    the report never fails, it records observations about a conjecture."""
    root, _ = tau1_mu(g)
    if root is None:
        raise ValueError("requires a finite window endpoint")
    report = OracleReport(subject=to_graph6(g))
    c_poly, m_poly = cm_polynomials(g)
    t1 = float(root)
    ts = np.linspace(1.0, t1, grid + 2)[1:-1]
    vals = []
    for t in ts:
        c_val = float(c_poly(Fraction(t).limit_denominator(10**12)))
        m_val = float(m_poly(Fraction(t).limit_denominator(10**12)))
        vals.append(-m_val / (2.0 * c_val))
    diffs = np.diff(vals)
    mono_viol = int((diffs < -1e-9).sum())
    convex_viol = int((np.diff(diffs) < -1e-9).sum())
    report.add(
        "f-monotonicity-probe",
        True,
        f"{mono_viol} monotonicity and {convex_viol} convexity violations "
        f"on a {grid}-point grid",
        0.0,
    )
    return report
