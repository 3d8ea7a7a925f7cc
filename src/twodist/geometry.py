"""Numerical realization of two-distance configurations.

Coordinates come from double-centering the squared-distance matrix and an
eigendecomposition; enclosing balls from an away-step Frank-Wolfe pass on
the dual (maximize sum(lam*|p|^2) - |sum(lam*p)|^2 over the probability
simplex) followed by an equidistant active-set polish, certified by the
duality gap.  On top of those: the monotone enclosing-ball radius function
of the long distance, its inverse by bisection, embeddings on the unit
sphere with short distance sqrt(2), and the orthogonal join decomposition
of such point sets with Type I / Type II classification.  The long
distance beta* is obtained once, in ``invariants.profile``;
``beta_star_numeric`` and ``jspherical_embedding`` read that cached value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np
from scipy.optimize import linprog, nnls

from .config import get_config
from .errors import (
    CompleteGraphError,
    GeometricInconsistencyError,
    InfeasibleDistanceError,
)
from .graphs import Graph, complement_component_sets, is_complete
from . import invariants

SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class PointConfig:
    """Realized coordinates (n x d) of a two-distance configuration with
    short distance a and long distance b."""

    points: np.ndarray
    a: float
    b: float
    rank: int
    tol: float

    @property
    def n(self) -> int:
        return self.points.shape[0]

    def distance_matrix(self) -> np.ndarray:
        diff = self.points[:, None, :] - self.points[None, :, :]
        return np.sqrt((diff**2).sum(axis=2))

    def max_distance_residual(self, g: Graph) -> float:
        """Largest relative deviation of realized distances from (a, b)
        according to the graph's edge pattern."""
        d = self.distance_matrix()
        worst = 0.0
        scale = max(self.a, self.b, 1.0)
        for i in range(self.n):
            for j in range(i + 1, self.n):
                target = self.a if g.has_edge(i, j) else self.b
                worst = max(worst, abs(d[i, j] - target) / scale)
        return worst


@dataclass(frozen=True)
class Ball:
    center: np.ndarray
    radius: float
    support: tuple[int, ...]
    gap: float  # duality-gap certificate, absolute


@dataclass(frozen=True)
class PointFactorization:
    """Partition of a spherical point set into join factors.

    Each factor is Type I (origin inside the convex hull) or Type II
    (origin off the affine hull); exactly |S| - rank(S) factors are
    Type I."""

    factors: tuple[tuple[tuple[int, ...], str], ...]
    k: int
    flags: tuple[str, ...] = ()


def realize(g: Graph, b: float, a: float = 1.0) -> PointConfig:
    """Coordinates of the two-distance configuration of g with distances
    a on edges and b elsewhere.  The ratio (b/a)^2 must lie in the
    feasible window of g (checked against the exact enclosures)."""
    cfg = get_config()
    n = g.n
    if n == 1:
        return PointConfig(np.zeros((1, 0)), a, b, 0, cfg.dist_tol)
    t = (b / a) ** 2
    lo, hi = invariants.feasible_interval(g)
    slack = cfg.feas_slack * max(1.0, abs(t))
    if t < lo - slack or t > hi + slack:
        raise InfeasibleDistanceError(
            f"t={t:.12g} outside feasible window [{lo:.12g}, {hi:.12g}]"
        )
    sq = np.full((n, n), b * b)
    np.fill_diagonal(sq, 0.0)
    for i, j in g.edges():
        sq[i, j] = sq[j, i] = a * a
    centering = np.eye(n) - np.full((n, n), 1.0 / n)
    gram = -0.5 * centering @ sq @ centering
    gram = 0.5 * (gram + gram.T)
    eigvals, eigvecs = np.linalg.eigh(gram)
    scale = max(float(np.abs(eigvals).max()), 1e-300)
    if float(eigvals.min()) < -cfg.psd_tol * scale:
        raise InfeasibleDistanceError(
            f"Gram matrix has eigenvalue {eigvals.min():.3g} "
            f"(scale {scale:.3g}); distances not realizable"
        )
    cutoff = cfg.rank_rtol * scale
    keep = eigvals > cutoff
    pts = eigvecs[:, keep] * np.sqrt(eigvals[keep])
    return PointConfig(pts, a, b, int(keep.sum()), cfg.dist_tol)


# ---------------------------------------------------------------------------
# Minimum enclosing ball
# ---------------------------------------------------------------------------


def _dual_certificate(
    points: np.ndarray, sqnorms: np.ndarray, lam: np.ndarray
) -> tuple[np.ndarray, float, float]:
    """Center, primal squared radius, and duality gap at a feasible lam."""
    c = lam @ points
    primal = float((sqnorms - 2.0 * points @ c + c @ c).max())
    dual = float(lam @ sqnorms - c @ c)
    return c, primal, primal - dual


def _polish_support(
    points: np.ndarray, sqnorms: np.ndarray, support: list[int]
) -> Optional[tuple[np.ndarray, float, float, np.ndarray]]:
    """Equidistant-center solve on a candidate support set.

    Returns (center, primal r^2, gap, lam) or None when the support does
    not admit convex weights reproducing the center."""
    s = sorted(set(support))
    q0 = points[s[0]]
    if len(s) == 1:
        lam = np.zeros(len(points))
        lam[s[0]] = 1.0
        c, primal, gap = _dual_certificate(points, sqnorms, lam)
        return c, primal, gap, lam
    rows = 2.0 * (points[s[1:]] - q0)
    rhs = sqnorms[s[1:]] - sqnorms[s[0]] - rows @ q0
    # Center constrained to the affine hull of the support.
    basis = points[s[1:]] - q0
    sol, *_ = np.linalg.lstsq(rows @ basis.T, rhs, rcond=None)
    c = q0 + basis.T @ sol
    # Convex weights for the dual certificate.
    stack = np.vstack([points[s].T, np.ones(len(s))])
    target = np.concatenate([c, [1.0]])
    lam_s, resid = nnls(stack, target)
    scale = max(1.0, float(sqnorms.max()))
    if resid > 1e-6 * math.sqrt(scale):
        return None
    total = lam_s.sum()
    if total <= 0:
        return None
    lam = np.zeros(len(points))
    lam[s] = lam_s / total
    c2, primal, gap = _dual_certificate(points, sqnorms, lam)
    return c2, primal, gap, lam


def min_enclosing_ball(points: Sequence[Sequence[float]] | np.ndarray) -> Ball:
    """Smallest ball containing the points, with a dual certificate.

    An away-step Frank-Wolfe pass supplies the support estimate; the
    equidistant polish on that support drives the duality gap to rounding
    level.  The recorded gap bounds the squared-radius error."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise ValueError("points must be a 2-d array")
    n, d = pts.shape
    cfg = get_config()
    if n == 1 or d == 0:
        return Ball(pts[0].copy() if d else np.zeros(0), 0.0, tuple(range(n)), 0.0)
    sqnorms = (pts * pts).sum(axis=1)
    scale = max(1.0, float(sqnorms.max()))
    target = cfg.meb_gap_rtol * scale

    lam = np.full(n, 1.0 / n)
    best: tuple[np.ndarray, float, float, np.ndarray] | None = None

    def consider(cand):
        nonlocal best
        if cand is not None and (best is None or cand[2] < best[2]):
            best = cand

    for iteration in range(5000):
        c = lam @ pts
        grad = sqnorms - 2.0 * pts @ c + (c @ c)  # squared distances to c
        i_fw = int(np.argmax(grad))
        dual = float(lam @ sqnorms - c @ c)
        gap = float(grad[i_fw]) - dual
        consider((c, float(grad[i_fw]), gap, lam.copy()))
        if gap <= target:
            break
        if iteration % 25 == 0:
            r2 = float(grad[i_fw])
            sup = [i for i in range(n) if grad[i] >= r2 * (1.0 - 1e-6)]
            consider(_polish_support(pts, sqnorms, sup))
            if best is not None and best[2] <= target:
                break
        # Away-step Frank-Wolfe with exact line search.
        active = np.flatnonzero(lam > 1e-16)
        i_away = int(active[np.argmin(grad[active])])
        fw_gain = float(grad[i_fw]) - float(lam @ grad)
        away_gain = float(lam @ grad) - float(grad[i_away])
        if fw_gain >= away_gain:
            direction = pts[i_fw] - c
            denom = 2.0 * float(direction @ direction)
            step = min(fw_gain / denom, 1.0) if denom > 0 else 1.0
            lam *= 1.0 - step
            lam[i_fw] += step
        else:
            la = float(lam[i_away])
            if la >= 1.0:
                break  # single active vertex, nothing to move away from
            direction = c - pts[i_away]
            denom = 2.0 * float(direction @ direction)
            cap = la / (1.0 - la)
            step = min(away_gain / denom, cap) if denom > 0 else cap
            lam *= 1.0 + step
            lam[i_away] -= step
            lam[i_away] = max(lam[i_away], 0.0)
        lam = np.maximum(lam, 0.0)
        lam /= lam.sum()

    c, r2, gap, lam = best
    # One final polish attempt from the best certificate.
    dists = sqnorms - 2.0 * pts @ c + c @ c
    sup = [i for i in range(n) if dists[i] >= r2 * (1.0 - 1e-6)]
    final = _polish_support(pts, sqnorms, sup)
    if final is not None and final[2] < gap:
        c, r2, gap, lam = final
    radius = math.sqrt(max(r2, 0.0))
    dist = np.sqrt(np.maximum(sqnorms - 2.0 * pts @ c + c @ c, 0.0))
    sup_tol = 1e-7 * max(1.0, radius)
    support = tuple(i for i in range(n) if dist[i] >= radius - sup_tol)
    return Ball(c, radius, support, float(max(gap, 0.0)))


# ---------------------------------------------------------------------------
# The radius function and its inverse
# ---------------------------------------------------------------------------


def phi(g: Graph, x: float) -> float:
    """Radius of the smallest ball enclosing the configuration of g with
    short distance sqrt(2) and long distance x."""
    return min_enclosing_ball(realize(g, x, SQRT2).points).radius


def _bracket_upper(g: Graph, r: float) -> float:
    """Upper bisection endpoint with phi >= r."""
    t1, _ = invariants.tau1_mu(g)
    if t1 is not None:
        return math.sqrt(2.0 * float(t1))
    x = 2.0 * SQRT2
    while phi(g, x) < r:
        x *= 2.0
        if x > 1e9:  # the radius grows without bound; this cannot happen
            raise GeometricInconsistencyError("failed to bracket the radius")
    return x


def solve_phi(g: Graph, r: float) -> float:
    """The unique long distance x at which the enclosing-ball radius of
    the sqrt(2)-short configuration equals r.

    Monotonicity of the radius in x justifies plain bisection.  Requires
    sqrt((n-1)/n) < r <= 1 and a non-complete graph."""
    if is_complete(g):
        raise CompleteGraphError("complete graphs admit no such solve")
    n = g.n
    lo_r = math.sqrt((n - 1) / n)
    if not (lo_r < r <= 1.0 + 1e-12):
        raise ValueError(f"radius {r} outside (sqrt((n-1)/n), 1]")
    cfg = get_config()
    lo = SQRT2
    hi = _bracket_upper(g, r)
    phi_hi = phi(g, hi)
    if phi_hi < r:
        # Theory puts phi at the window endpoint at >= 1 >= r; allow only
        # rounding-level shortfalls.
        if r - phi_hi <= 1e-9:
            return hi
        raise GeometricInconsistencyError(
            f"phi({hi:.12g}) = {phi_hi:.12g} fails to reach r = {r:.12g}"
        )
    while hi - lo > cfg.bisect_rtol * hi:
        mid = 0.5 * (lo + hi)
        if phi(g, mid) < r:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def beta_star_numeric(g: Graph) -> float:
    """Long distance of the J-spherical representation (unit sphere, short
    distance sqrt(2)), read from the cached ``invariants.profile``: the
    exact sqrt(2*tau1) when the representation stays in the minimal
    dimension, the ``solve_phi`` bisection otherwise."""
    if is_complete(g):
        raise CompleteGraphError("complete graphs have no such representation")
    return invariants.profile(g).beta_star_squared.beta_star


def jspherical_embedding(g: Graph) -> PointConfig:
    """Coordinates of the unit-sphere representation with short distance
    sqrt(2) and long distance beta* from ``invariants.profile`` (an exact
    value refined to width 1e-14): recentered at the enclosing-ball center
    and scaled onto the sphere.  Its rank is the J-spherical dimension."""
    if is_complete(g):
        raise CompleteGraphError("complete graphs have no such representation")
    beta = invariants.profile(g).beta_star_squared
    if beta.exact is not None:
        b = math.sqrt(float(beta.exact.refined(Fraction(1, 10**14))))
    else:
        b = beta.beta_star
    config = realize(g, b, SQRT2)
    ball = min_enclosing_ball(config.points)
    if abs(ball.radius - 1.0) > 1e-6:
        raise GeometricInconsistencyError(
            f"expected unit enclosing radius, got {ball.radius:.12g}"
        )
    pts = (config.points - ball.center) / ball.radius
    return PointConfig(pts, SQRT2, b, config.rank, get_config().dist_tol)


# ---------------------------------------------------------------------------
# Join decomposition of spherical point sets
# ---------------------------------------------------------------------------


def _linear_rank(points: np.ndarray, rtol: float) -> int:
    svals = np.linalg.svd(points, compute_uv=False)
    if svals.size == 0 or svals[0] == 0.0:
        return 0
    return int((svals > rtol * svals[0]).sum())


def _origin_in_convex_hull(points: np.ndarray, tol: float) -> bool:
    """Linear feasibility: exists lam >= 0, sum lam = 1, |sum lam p|_inf <= tol."""
    m, d = points.shape
    if d == 0:
        return True
    # Variables: lam (m), t.  Minimize t with +-(P^T lam) <= t.
    c = np.zeros(m + 1)
    c[-1] = 1.0
    a_ub = np.zeros((2 * d, m + 1))
    a_ub[:d, :m] = points.T
    a_ub[d:, :m] = -points.T
    a_ub[:, -1] = -1.0
    a_eq = np.zeros((1, m + 1))
    a_eq[0, :m] = 1.0
    bounds = [(0.0, None)] * m + [(0.0, None)]
    res = linprog(
        c,
        A_ub=a_ub,
        b_ub=np.zeros(2 * d),
        A_eq=a_eq,
        b_eq=[1.0],
        bounds=bounds,
        method="highs",
    )
    return bool(res.success) and res.fun <= tol


def _origin_affine_distance(points: np.ndarray) -> float:
    """Distance from the origin to the affine hull of the points."""
    q0 = points[0]
    if len(points) == 1:
        return float(np.linalg.norm(q0))
    basis = points[1:] - q0
    sol, *_ = np.linalg.lstsq(basis.T, -q0, rcond=None)
    return float(np.linalg.norm(q0 + basis.T @ sol))


def kuperberg_decompose(config: PointConfig) -> PointFactorization:
    """Orthogonal join decomposition of a unit-sphere two-distance set
    with short distance sqrt(2).

    The partition comes from the connected components of the complement of
    the short-distance graph; each block is then verified geometrically
    (cross-block orthogonality) and labeled Type I when the origin lies in
    its convex hull, Type II when the origin is off its affine hull.
    Exactly |S| - rank(S) blocks must be Type I."""
    cfg = get_config()
    pts = config.points
    n = pts.shape[0]
    norms = np.linalg.norm(pts, axis=1)
    if n and float(np.abs(norms - 1.0).max()) > cfg.dist_tol:
        raise GeometricInconsistencyError("points are not on the unit sphere")
    dist = config.distance_matrix()
    if n > 1:
        offdiag = dist[~np.eye(n, dtype=bool)]
        if float(offdiag.min()) < SQRT2 - cfg.dist_tol:
            raise GeometricInconsistencyError(
                f"minimum distance {offdiag.min():.12g} below sqrt(2)"
            )
    threshold = 0.5 * (SQRT2 + max(config.b, SQRT2 + 4 * cfg.dist_tol))
    edges = [
        (i, j) for i in range(n) for j in range(i + 1, n) if dist[i, j] < threshold
    ]
    gamma = Graph.from_edges(n, edges)
    blocks = complement_component_sets(gamma)
    # Cross-block pairs sit at distance sqrt(2), i.e. orthogonal.
    for bi in range(len(blocks)):
        for bj in range(bi + 1, len(blocks)):
            inner = pts[blocks[bi]] @ pts[blocks[bj]].T
            if float(np.abs(inner).max()) > cfg.orth_tol:
                raise GeometricInconsistencyError(
                    "cross-factor inner products are not zero"
                )
    factors = []
    flags: list[str] = []
    k = 0
    for idx, block in enumerate(blocks):
        sub = pts[block]
        if _origin_in_convex_hull(sub, cfg.hull_tol):
            factors.append((tuple(block), "I"))
            k += 1
        else:
            if _origin_affine_distance(sub) <= cfg.hull_tol:
                # Origin on the affine hull but outside the hull interior:
                # a further decomposition exists in exact arithmetic.
                flags.append(f"factor-{idx}-origin-on-affine-hull")
            factors.append((tuple(block), "II"))
    rank = _linear_rank(pts, cfg.rank_rtol)
    if n != rank + k:
        raise GeometricInconsistencyError(
            f"|S| = {n} but rank + #TypeI = {rank} + {k}"
        )
    return PointFactorization(tuple(factors), k, tuple(flags))
