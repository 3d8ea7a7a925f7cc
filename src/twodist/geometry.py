"""Numerical realization of two-distance configurations.

Coordinates come from double-centering the squared-distance matrix and an
eigendecomposition; enclosing balls from exact-support pivoting, certified
by the duality gap of the support's barycentric weights.  On top of those:
the monotone enclosing-ball radius function of the long distance, and its
exact inverse ``solve_phi``.  That one realizes no coordinates: a float
active set on the squared distances proposes the ball's support, as the
standard quadratic program over the simplex, and one exact certificate
proves the root of the support's tie polynomial.  Then embeddings on the
unit sphere with short distance sqrt(2), and the orthogonal join
decomposition of such point sets with Type I / Type II classification
from the center of each block's enclosing ball.  The long distance beta*
is obtained once, in ``invariants.profile``; ``beta_star_numeric`` and
``jspherical_embedding`` read that cached value.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Sequence

import numpy as np

from .config import get_config
from .errors import (
    CompleteGraphError,
    GeometricInconsistencyError,
    InfeasibleDistanceError,
    UndecidableEnclosureError,
)
from .graphs import Graph, complement_component_sets, is_complete
from .polynomials import (
    AlgebraicReal,
    IntPolynomial,
    exact_div,
    poly_gcd,
    sign_at,
    smallest_root_greater_than,
    squarefree_decomposition,
)
from . import invariants

SQRT2 = math.sqrt(2.0)
# Relative tolerance below which a negative Gram eigenvalue means the
# requested distances are not realizable.
PSD_TOL = 1e-8
# Eigenvalue (or singular value) cutoff for numerical rank, relative to the
# largest one.
RANK_RTOL = 1e-9
# Largest duality gap an enclosing ball may carry, relative to the squared
# data scale; a larger one raises.
MEB_GAP_RTOL = 1e-14
# Max-norm distance from the origin within which a join block's
# enclosing-ball center makes it Type I, and its affine hull flags it.
HULL_TOL = 1e-8
# Cross-factor orthogonality tolerance in point-set decomposition.
ORTH_TOL = 1e-7
# Relative distance from the float tau1 within which a float t counts as
# the window end in ``solve_phi``'s proposals.
END_RTOL = 1e-9


@dataclass(frozen=True)
class PointConfig:
    """Realized coordinates (n x d) of a two-distance configuration with
    short distance a and long distance b."""

    points: np.ndarray
    a: float
    b: float
    rank: int

    @property
    def n(self) -> int:
        return self.points.shape[0]

    def distance_matrix(self) -> np.ndarray:
        diff = self.points[:, None, :] - self.points[None, :, :]
        return np.sqrt((diff**2).sum(axis=2))

    def max_distance_residual(self, g: Graph) -> float:
        """Largest relative deviation of realized distances from (a, b)
        according to the graph's edge pattern; inf when a distance is NaN,
        so that no residual bound accepts it."""
        i, j = np.triu_indices(self.n, 1)
        edge = (np.array(g.rows)[i] >> j & 1).astype(bool)
        target = np.where(edge, self.a, self.b)
        scale = max(self.a, self.b, 1.0)
        residual = np.abs(self.distance_matrix()[i, j] - target) / scale
        worst = float(np.max(residual, initial=0.0))  # NaN propagates
        return math.inf if math.isnan(worst) else worst


@dataclass(frozen=True)
class Ball:
    center: np.ndarray
    radius: float
    support: tuple[int, ...]
    gap: float  # duality-gap certificate, absolute; inf only past the float range
    weights: np.ndarray  # the center's barycentric weights; 0 off the pivot's support


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
    feasible window of g (checked against the exact enclosures).  Both
    distances must be finite and positive, and their squares and squared
    ratio finite and normal: a subnormal square would collapse the Gram
    matrix below its eigenvalue floor."""
    if not (0 < a < math.inf and 0 < b < math.inf):
        raise InfeasibleDistanceError(f"distances must be finite and > 0, got a={a}, b={b}")
    n = g.n
    if n == 1:
        return PointConfig(np.zeros((1, 0)), a, b, 0)
    try:
        t = (b / a) ** 2
    except OverflowError:
        t = math.inf
    squares = (t, a * a, b * b)
    if min(squares) < sys.float_info.min or max(squares) == math.inf:
        raise InfeasibleDistanceError(
            f"a^2, b^2 or (b/a)^2 is subnormal or not finite (a={a:.3g}, b={b:.3g})"
        )
    lo, hi = invariants.feasible_interval(g)
    slack = get_config().feas_slack * max(1.0, abs(t))
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
    if float(eigvals.min()) < -PSD_TOL * scale:
        raise InfeasibleDistanceError(
            f"Gram matrix has eigenvalue {eigvals.min():.3g} "
            f"(scale {scale:.3g}); distances not realizable"
        )
    keep = eigvals > RANK_RTOL * scale
    pts = eigvecs[:, keep] * np.sqrt(eigvals[keep])
    return PointConfig(pts, a, b, int(keep.sum()))


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


def _unscaled_gap(gap: float, e: int) -> float:
    """A gap certified on points scaled by 2**-e, at the points' own scale:
    gap * 4**e, or inf where that exceeds the float range."""
    try:
        return math.ldexp(gap, 2 * e)
    except OverflowError:
        return math.inf


def min_enclosing_ball(points: Sequence[Sequence[float]] | np.ndarray) -> Ball:
    """Smallest ball containing the points, with a dual certificate.

    Exact-support pivoting (Fischer, Gaertner & Kutz 2003): the center walks
    toward the circumcenter of aff(T), T the points on its sphere; a point
    reaching the sphere joins T, and at the circumcenter the most negative
    barycentric weight leaves T until none is negative.  The QR factors of
    T's difference vectors are updated, not recomputed: a point that joins
    T appends one Gram-Schmidt column, orthogonalized twice (Daniel, Gragg,
    Kaufman & Stewart 1976), and only a point that leaves T refactors.

    The walk and its certificate run on the differences p - p_0 divided by
    s, the least power of two above their largest absolute coordinate (an
    exact scaling), so every tolerance is relative to the data.  A duality
    gap above ``MEB_GAP_RTOL`` * max(s^2, max |p - p_0|^2), or no optimum
    in 20n pivots, raises ``GeometricInconsistencyError``.  ``support``
    lists every point within 1e-7 * max(s, radius) of the sphere."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise ValueError("points must be a 2-d array")
    n, d = pts.shape
    rel = pts - pts[0]  # rounding at the ball's scale, not the origin's
    e = math.frexp(float(np.abs(rel).max(initial=0.0)))[1]
    rel = np.ldexp(rel, -e)
    # T is affinely independent: at most min(n, d + 1) points.  With k + 1
    # points, q.T = basis[:, :k] @ tri[:k, :k] for the rows q of
    # rel[T[1:]] - t0, and the circumcenter t0 + basis[:, :k] @ y[:k] of
    # aff(T) solves q x = |q|^2 / 2, so tri[:k, :k].T @ y[:k] = |q|^2 / 2.
    cap = min(n - 1, d)
    basis = np.empty((d, cap))
    tri = np.zeros((cap, cap))
    y = np.empty(cap)
    support = [int(np.argmax((rel * rel).sum(axis=1)))]
    t0 = rel[support[0]]
    target = t0
    c = np.zeros(d)
    k = 0
    for _ in range(20 * n):
        q = basis[:, :k]
        # Walk orthogonally to aff(T), as exact arithmetic does, so that no
        # point of aff(T) can stop the walk and T stays affinely independent.
        step = target - c
        step -= q @ (q.T @ step)
        r2 = float((t0 - c) @ (t0 - c))
        step2 = float(step @ step)
        frac = np.full(n, np.inf)
        if k < cap and step2 > 1e-24 * r2:  # else T is full or the step rounding-level
            # Rate at which p's squared distance gains on the radius^2.
            grow = 2.0 * (t0 - rel) @ step
            grow[support] = 0.0
            moving = grow > 1e-14 * math.sqrt(r2) * math.sqrt(step2)
            room = r2 - ((rel[moving] - c) ** 2).sum(axis=1)
            frac[moving] = np.maximum(room, 0.0) / grow[moving]
        j = int(np.argmin(frac))
        if frac[j] < 1.0:
            c = c + frac[j] * step
            support.append(j)
            # One Gram-Schmidt column, orthogonalized twice.
            v = rel[j] - t0
            r = q.T @ v
            w = v - q @ r
            again = q.T @ w
            w -= q @ again
            r += again
            rho = math.sqrt(float(w @ w))
            basis[:, k] = w / rho
            tri[:k, k] = r
            tri[k, k] = rho
            y[k] = (0.5 * float(v @ v) - float(r @ y[:k])) / rho
            target = target + y[k] * basis[:, k]
            k += 1
            continue
        c = target
        # The weights, read only here: tri[:k, :k] @ mu = y[:k].
        mu = np.linalg.solve(tri[:k, :k], y[:k])
        weights = np.concatenate([[1.0 - mu.sum()], mu])
        i = int(np.argmin(weights))
        if weights[i] >= 0.0:
            break
        support.pop(i)
        # A point left T: factor its differences afresh.
        t0 = rel[support[0]]
        diff = rel[support[1:]] - t0
        k -= 1
        basis[:, :k], tri[:k, :k] = np.linalg.qr(diff.T)
        y[:k] = np.linalg.solve(tri[:k, :k].T, 0.5 * (diff * diff).sum(axis=1))
        target = t0 + basis[:, :k] @ y[:k]
    else:
        raise GeometricInconsistencyError(
            f"enclosing ball: no optimum in {20 * n} pivots"
        )
    lam = np.bincount(support, weights, n)
    sqnorms = (rel * rel).sum(axis=1)
    c, r2, gap = _dual_certificate(rel, sqnorms, lam)
    bound = MEB_GAP_RTOL * max(1.0, float(sqnorms.max()))
    if gap > bound:
        raise GeometricInconsistencyError(
            f"enclosing ball duality gap {_unscaled_gap(gap, e):.3g} "
            f"above {_unscaled_gap(bound, e):.3g}"
        )
    radius = math.sqrt(max(r2, 0.0))
    dist = np.sqrt(np.maximum(sqnorms - 2.0 * rel @ c + c @ c, 0.0))
    near = tuple(i for i in range(n) if dist[i] >= radius - 1e-7 * max(1.0, radius))
    return Ball(
        pts[0] + np.ldexp(c, e),
        float(np.ldexp(radius, e)),
        near,
        _unscaled_gap(max(gap, 0.0), e),
        lam,
    )


# ---------------------------------------------------------------------------
# The radius function and its exact inverse
# ---------------------------------------------------------------------------


def phi(g: Graph, x: float) -> float:
    """Radius of the smallest ball enclosing the configuration of g with
    short distance sqrt(2) and long distance x."""
    return min_enclosing_ball(realize(g, x, SQRT2).points).radius


def _roots_in_window(
    f: IntPolynomial, tau1: AlgebraicReal | None
) -> Iterator[AlgebraicReal]:
    """Yield the roots of f in (1, tau1] in increasing order; no upper end
    when tau1 is None."""
    # On the squarefree part each enclosure isolates its root among all of
    # f's roots, so the next search may start at its upper end.
    f = exact_div(f, poly_gcd(f, f.derivative()))
    bound = Fraction(1)
    while (got := smallest_root_greater_than(f, bound)) is not None:
        t = got[0]
        if tau1 is not None and t.compare(tau1) > 0:
            return
        yield t
        bound = t.hi


def _support_certified(g: Graph, support: tuple[int, ...], t: AlgebraicReal) -> bool:
    """Whether, at t = x^2/2, the circumcenter of the points ``support`` of
    g is the center of the enclosing ball of all n points, decided exactly.

    With B the bordered matrix of the support and C_T = det B, Cramer's
    rule gives adj(B) e_0 = (M_T, L_1, ..., L_k), all from
    ``invariants.bordered_adjugate``, which reuses the walk data that
    T's tie polynomial already cached: the circumcenter's barycentric
    weights are L_i / C_T, and the squared circumradius is -M_T / (2 C_T)
    at unit short distance.  Certified when C_T != 0, every weight is >= 0
    and every other point j lies inside or on the sphere:
    sign(sum_i D_ji L_i + M_T) * sign(C_T) <= 0."""
    c_t, m_t, *weights = invariants.bordered_adjugate(g.induced(support))
    sign_c = sign_at(c_t, t)
    if sign_c == 0:
        return False
    x = IntPolynomial.x()
    powers = [
        sum((w if g.has_edge(i, j) else x * w for i, w in zip(support, weights)), m_t)
        for j in range(g.n)
        if j not in support
    ]
    # A point outside T's sphere is the usual failure; test those first.
    return all(sign_at(p, t) != sign_c for p in powers) and all(
        sign_at(w, t) != -sign_c for w in weights
    )


def _squared_distances(adjacency: np.ndarray, t: float) -> np.ndarray:
    """D(t) = t(J - I) - (t - 1)A: squared distances 1 on edges and t
    elsewhere, the configuration of unit short distance."""
    d = t - (t - 1.0) * adjacency
    np.fill_diagonal(d, 0.0)
    return d


def _bordered_solve(d: np.ndarray, support: list[int]) -> tuple[np.ndarray, float]:
    """(lam, nu) solving [[D_T, 1], [1^T, 0]] [lam; nu] = [0; 1] for the
    points T = ``support``: the barycentric weights of T's circumcenter,
    and nu = -2 R_T^2.  A singular system raises ``LinAlgError``."""
    k = len(support)
    m = np.ones((k + 1, k + 1))
    m[:k, :k] = d[np.ix_(support, support)]
    m[k, k] = 0.0
    rhs = np.zeros(k + 1)
    rhs[k] = 1.0
    x = np.linalg.solve(m, rhs)
    return x[:k], float(x[k])


def _active_set(
    d: np.ndarray, start: Sequence[int]
) -> Optional[tuple[tuple[int, ...], float]]:
    """The support of the enclosing ball of the points with squared
    distances d, and its squared radius, in floats; None when a bordered
    system is singular or 20n pivots reach no optimum.

    A primal active-set pivot (Gaertner & Schoenherr, SoCG 2000) on the
    standard quadratic program max lam^T D lam / 2 over the simplex,
    warm-started at ``start``, which sheds its most negative weight until
    its circumcenter's weights are >= 0.  On T the bordered solve gives the
    weights lam and R^2 = -nu/2, and the point j lies outside the sphere
    when D[j, T] lam > -nu, the float form of ``_support_certified``.  The
    farthest such point joins T; while a weight is negative, lam steps
    toward the new solution until a weight reaches 0, and its point
    leaves."""
    n = len(d)
    tol = 1e-12 * max(1.0, float(d.max()))
    support = list(start)
    try:
        lam, nu = _bordered_solve(d, support)
        while lam.min() < 0.0:
            support.pop(int(np.argmin(lam)))
            lam, nu = _bordered_solve(d, support)
        for _ in range(20 * n):
            excess = d[:, support] @ lam + nu  # |p_j - c|^2 - R^2
            excess[support] = 0.0
            j = int(np.argmax(excess))
            if excess[j] <= tol:
                return tuple(sorted(support)), -0.5 * nu
            support.append(j)
            lam = np.append(lam, 0.0)
            while True:
                new, nu = _bordered_solve(d, support)
                negative = np.flatnonzero(new < 0.0)
                if not negative.size:
                    lam = new
                    break
                ratio = lam[negative] / (lam[negative] - new[negative])
                i = int(np.argmin(ratio))
                lam = lam + ratio[i] * (new - lam)
                support.pop(negative[i])
                lam = np.delete(lam, negative[i])
    except np.linalg.LinAlgError:
        return None
    return None


def _propose(
    adjacency: np.ndarray, t: float, top: float, support: tuple[int, ...]
) -> Optional[tuple[tuple[int, ...], float]]:
    """``_active_set`` at t warm-started at ``support``.  At the window end
    tau1 (``top``, within ``END_RTOL``) C vanishes, the points are affinely
    dependent and a warm start may keep a dependent T, which no exact
    certificate accepts; there it starts cold from T's first point, and a
    point on the sphere never joins."""
    start = support[:1] if t >= top * (1.0 - END_RTOL) else support
    return _active_set(_squared_distances(adjacency, t), start)


def _float_root_near(f: IntPolynomial, t: float, top: float) -> Optional[float]:
    """The real root of f in (1, top] nearest t, or None: ``np.roots``
    proposes it and two Newton steps, each computed exactly at the float
    and rounded, polish it to about an ulp.  ``top`` gets a relative slack
    of ``END_RTOL``, for a root at the window end."""
    if f.degree in (None, 0):
        return None
    shift = max(max(abs(c) for c in f.coeffs).bit_length() - 1000, 0)
    roots = np.roots([float(c >> shift) for c in reversed(f.coeffs)])
    real = roots.real[np.abs(roots.imag) <= 1e-6 * np.abs(roots)]
    real = real[(real > 1.0) & (real <= top * (1.0 + END_RTOL))]
    if not real.size:
        return None
    x = float(real[np.argmin(np.abs(real - t))])
    slope = f.derivative()
    for _ in range(2):
        num, den = x.as_integer_ratio()
        s = slope.homogeneous(num, den)
        if s == 0:
            break
        x = float(Fraction(num, den) - Fraction(f.homogeneous(num, den), s * den))
    return x if 1.0 < x <= top * (1.0 + END_RTOL) else None


def _walk_supports(
    g: Graph,
    r0: Fraction,
    tau1: Optional[AlgebraicReal],
    adjacency: np.ndarray,
    support: tuple[int, ...],
) -> AlgebraicReal:
    """``solve_phi``'s exact fallback from the support T: every root t of
    T's tie polynomial in (1, tau1], in increasing order, is tried with
    ``_support_certified``.  Failing all, the active set at the root whose
    squared radius is nearest r0 proposes the next T, and a T proposed
    twice raises ``UndecidableEnclosureError``."""
    width = get_config().tau_width
    top = math.inf if tau1 is None else float(tau1)
    proposed = set()
    while support not in proposed:
        proposed.add(support)
        tie = invariants.tie_polynomial(g.induced(support), r0)
        best, miss = support, math.inf
        for t in _roots_in_window(tie, tau1):
            t = t.refined(width)
            if _support_certified(g, support, t):
                return t.scaled(2)
            got = _propose(adjacency, float(t), top, support)
            if got is None:
                continue
            if abs(got[1] - r0) < miss:
                best, miss = got[0], abs(got[1] - r0)
            if got[1] >= r0:
                break  # the radius grows with t: later roots are farther from r
        support = best
    raise UndecidableEnclosureError(f"active-set support {support} proposed twice")


def solve_phi(g: Graph, r: float) -> AlgebraicReal:
    """The squared long distance x^2 at which the enclosing-ball radius of
    the sqrt(2)-short configuration of g equals r, as an exact algebraic
    number.  The radius grows with x, so x is unique.

    On an affinely independent support T the squared radius is -M_T/C_T
    in t = x^2/2, so it equals r^2 at the roots of T's tie polynomial for
    r0 = r^2/2 (``invariants.tie_polynomial``).  No coordinates are
    realized: at unit short distance the squared distances are
    D(t) = t(J - I) - (t - 1)A, and a float active set on D(t)
    (``_active_set``) proposes T, first in the middle of (1, tau1).
    The next t is the float root of T's tie polynomial in (1, tau1]
    nearest the last t, until the active set at t returns T again.  Then
    T's tie polynomial is split once, its least root above 1 is certified
    on an interval of the requested width (``invariants._certified_root``),
    compared with tau1, and ``_support_certified`` holds there: beta*^2 is
    proved, as the radius is monotone.  Any failure, a first active set
    with no support included, falls back to ``_walk_supports``, which
    tries every root of the tie polynomial exactly.  Requires
    sqrt((n-1)/n) < r <= 1 and a non-complete graph."""
    if is_complete(g):
        raise CompleteGraphError("complete graphs admit no such solve")
    n = g.n
    lo_r = math.sqrt((n - 1) / n)
    if not (lo_r < r <= 1.0 + 1e-12):
        raise ValueError(f"radius {r} outside (sqrt((n-1)/n), 1]")
    r0 = Fraction(r) ** 2 / 2  # the squared radius at unit short distance
    tau1, _ = invariants.tau1_mu(g)
    top = math.inf if tau1 is None else float(tau1)
    adjacency = (np.array(g.rows)[:, None] >> np.arange(n) & 1).astype(float)
    t = 2.0 if tau1 is None else 0.5 * (1.0 + top)
    # Inside the window all n points are affinely independent, and most
    # of them are usually on the sphere: start from all of them.
    got = _active_set(_squared_distances(adjacency, t), tuple(range(n)))
    if got is None:
        return _walk_supports(g, r0, tau1, adjacency, tuple(range(n)))
    support = got[0]
    for _ in range(n):
        tie = invariants.tie_polynomial(g.induced(support), r0)
        t = _float_root_near(tie, t, top)
        got = None if t is None else _propose(adjacency, t, top, support)
        if got is None:
            break
        if got[0] != support:
            support = got[0]
            continue
        root = invariants._certified_root(squarefree_decomposition(tie), t)
        if (
            root is not None
            and (tau1 is None or root[0].compare(tau1) <= 0)
            and _support_certified(g, support, root[0])
        ):
            return root[0].scaled(2)
        break
    return _walk_supports(g, r0, tau1, adjacency, support)


def beta_star_numeric(g: Graph) -> float:
    """Long distance of the J-spherical representation (unit sphere, short
    distance sqrt(2)), read from the exact beta*^2 of the cached
    ``invariants.profile``."""
    if is_complete(g):
        raise CompleteGraphError("complete graphs have no such representation")
    return math.sqrt(float(invariants.profile(g).beta_star_squared))


def jspherical_embedding(g: Graph) -> PointConfig:
    """Coordinates of the unit-sphere representation with short distance
    sqrt(2) and long distance beta* from ``invariants.profile``:
    recentered at the enclosing-ball center and scaled onto the sphere.
    Its rank is the J-spherical dimension."""
    b = beta_star_numeric(g)
    config = realize(g, b, SQRT2)
    ball = min_enclosing_ball(config.points)
    if abs(ball.radius - 1.0) > 1e-6:
        raise GeometricInconsistencyError(
            f"expected unit enclosing radius, got {ball.radius:.12g}"
        )
    pts = (config.points - ball.center) / ball.radius
    return PointConfig(pts, SQRT2, b, config.rank)


# ---------------------------------------------------------------------------
# Join decomposition of spherical point sets
# ---------------------------------------------------------------------------


def _linear_rank(points: np.ndarray, rtol: float) -> int:
    svals = np.linalg.svd(points, compute_uv=False)
    if svals.size == 0 or svals[0] == 0.0:
        return 0
    return int((svals > rtol * svals[0]).sum())


def _origin_in_convex_hull(points: np.ndarray, tol: float) -> bool:
    """Whether the unit vectors ``points`` hold the origin in their convex
    hull: their enclosing ball's center, a convex combination of them, is
    within ``tol`` of it (max-norm).  If some combination q is, the center
    c is within 2|q|: the weighted mean 1 - 2 q.c + |c|^2 of |p - c|^2 is
    at most the squared radius, which is at most 1."""
    if points.shape[1] == 0:
        return True
    return float(np.abs(min_enclosing_ball(points).center).max()) <= tol


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
    its convex hull (the block's enclosing ball is centered at the origin,
    ``_origin_in_convex_hull``), Type II otherwise; a Type II block whose
    affine hull passes within ``HULL_TOL`` of the origin is flagged.
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
            if float(np.abs(inner).max()) > ORTH_TOL:
                raise GeometricInconsistencyError(
                    "cross-factor inner products are not zero"
                )
    factors = []
    flags: list[str] = []
    k = 0
    for idx, block in enumerate(blocks):
        sub = pts[block]
        if _origin_in_convex_hull(sub, HULL_TOL):
            factors.append((tuple(block), "I"))
            k += 1
        else:
            if _origin_affine_distance(sub) <= HULL_TOL:
                # Origin on the affine hull but outside the hull interior:
                # a further decomposition exists in exact arithmetic.
                flags.append(f"factor-{idx}-origin-on-affine-hull")
            factors.append((tuple(block), "II"))
    rank = _linear_rank(pts, RANK_RTOL)
    if n != rank + k:
        raise GeometricInconsistencyError(
            f"|S| = {n} but rank + #TypeI = {rank} + {k}"
        )
    return PointFactorization(tuple(factors), k, tuple(flags))
