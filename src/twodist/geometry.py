"""Numerical realization of two-distance configurations.

Coordinates come from a Gram matrix (double-centered squared distances,
or the J-spherical one) by one eigendecomposition, ``_coordinates``.
Every enclosing-ball support comes from one float active set on the
squared distances, ``_active_set``: the standard quadratic program over
the simplex, a few block principal pivots, then feasible single pivots
when those do not settle it.  A point counts as
outside down to the duality-gap bound by which ``min_enclosing_ball``
certifies the barycentric weights, so one pass settles every ball.  On top
of those: the monotone enclosing-ball radius function of the long
distance, and its exact inverse ``solve_phi``.  At radius 1 that inverse
is beta*^2, read from ``invariants.beta_star_squared``.  Below 1 it
realizes no coordinates: the same active set, on the squared distances
D(t), proposes the support, the pencil of its bordered matrix a float
root, and one exact elimination of that matrix its tie polynomial, whose
roots one loop walks by tau1's least-root route until the support is
certified exactly at one.  Then embeddings on the unit sphere with short
distance sqrt(2), and the orthogonal join decomposition of such point sets.
Neither needs an enclosing ball: the embedding's Gram matrix is
I + (1 - t)Abar (Abar the complement's adjacency matrix, t = beta*^2/2),
and the decomposition reads one Gram matrix of the points.  Its blocks are
the components of the long-distance graph, found on bit rows, and each
block, affinely independent by the active set's own Cholesky test, is
Type I or Type II by the projection of the origin onto its affine hull:
the ball pivots' bordered system, on the block's Gram matrix in place of
its squared distances, one solve for all blocks.  The long distance beta*
is obtained once, in ``invariants.beta_star_squared`` (from the
complement's Perron root, certified by ``invariants.t_star``);
``beta_star_numeric`` and ``jspherical_embedding`` read that cached value.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .config import get_config
from .errors import (
    CompleteGraphError,
    GeometricInconsistencyError,
    InfeasibleDistanceError,
    UndecidableEnclosureError,
)
from .graphs import Graph, _component_sets, is_complete
from .polynomials import AlgebraicReal, IntPolynomial, det_poly_matrix, sign_at
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
# Max-norm distance from the origin within which the origin's projection
# onto a join block's affine hull makes it Type I (with barycentric weights
# >= -HULL_TOL), and Euclidean distance within which that hull flags it.
HULL_TOL = 1e-8
# Cross-factor orthogonality tolerance in point-set decomposition.
ORTH_TOL = 1e-7
# Block pivots ``_active_set`` spends on an enclosing ball's support before
# its single pivots.
PROPOSAL_PIVOTS = 8


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

    def max_distance_residual(self, g: Graph) -> float:
        """Largest relative deviation of realized distances from (a, b)
        according to the graph's edge pattern; inf when a distance is NaN,
        so that no residual bound accepts it."""
        i, j = np.triu_indices(self.n, 1)
        edge = g.adjacency()[i, j].astype(bool)
        target = np.where(edge, self.a, self.b)
        scale = max(self.a, self.b, 1.0)
        diff = self.points[i] - self.points[j]  # the upper pairs alone
        residual = np.abs(np.sqrt((diff**2).sum(axis=-1)) - target) / scale
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
    a on edges and b elsewhere.  The ratio t = (b/a)^2 must lie in the
    feasible window of g.  As tau0 < 1 < tau1, only the window end on t's
    side of 1 is certified and checked; the other end is computed only
    for the error message.  Both distances must be finite and positive,
    and their squares and squared ratio finite and normal: a subnormal
    square would collapse the Gram matrix below its eigenvalue floor."""
    if not (0 < a < math.inf and 0 < b < math.inf):
        raise InfeasibleDistanceError(f"distances must be finite and > 0, got a={a}, b={b}")
    n = g.n
    try:
        t = (b / a) ** 2
    except OverflowError:
        t = math.inf
    squares = (t, a * a, b * b)
    if min(squares) < sys.float_info.min or max(squares) == math.inf:
        raise InfeasibleDistanceError(
            f"a^2, b^2 or (b/a)^2 is subnormal or not finite (a={a:.3g}, b={b:.3g})"
        )
    slack = get_config().feas_slack * max(1.0, abs(t))
    if t > 1.0:
        end = invariants.tau1_mu(g)[0]
        outside = end is not None and t > float(end) + slack
    else:
        end = invariants.tau0(g) if t < 1.0 else None
        outside = end is not None and t < float(end) - slack
    if outside:
        lo, hi = invariants.feasible_interval(g)
        raise InfeasibleDistanceError(
            f"t={t:.12g} outside feasible window [{lo:.12g}, {hi:.12g}]"
        )
    sq = np.where(g.adjacency(), a * a, b * b)
    np.fill_diagonal(sq, 0.0)
    centering = np.eye(n) - np.full((n, n), 1.0 / n)
    gram = -0.5 * centering @ sq @ centering
    gram = 0.5 * (gram + gram.T)
    pts = _coordinates(gram, InfeasibleDistanceError, "; distances not realizable")
    return PointConfig(pts, a, b, pts.shape[1])


def _coordinates(gram: np.ndarray, error: type[Exception], what: str) -> np.ndarray:
    """Points whose Gram matrix is the symmetric ``gram``: its eigenvectors
    scaled by the square roots of its eigenvalues above ``RANK_RTOL`` times
    the largest modulus, one column per dimension.  An eigenvalue below
    -``PSD_TOL`` times that modulus raises ``error``, its message ending
    in ``what``."""
    eigvals, eigvecs = np.linalg.eigh(gram)
    scale = max(float(np.abs(eigvals).max()), 1e-300)
    if float(eigvals.min()) < -PSD_TOL * scale:
        raise error(
            f"Gram matrix has eigenvalue {eigvals.min():.3g} (scale {scale:.3g}){what}"
        )
    keep = eigvals > RANK_RTOL * scale
    return eigvecs[:, keep] * np.sqrt(eigvals[keep])


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


def _bordered_solve(d: np.ndarray, support: np.ndarray) -> tuple[np.ndarray, float]:
    """(lam, nu) solving [[D_T, 1], [1^T, 0]] [lam; nu] = [0; 1] for the
    points T = ``support``, an index array: the barycentric weights of T's
    circumcenter, and nu = -2 R_T^2.  A singular system raises
    ``LinAlgError``."""
    k = len(support)
    m = np.ones((k + 1, k + 1))
    m[:k, :k] = d[support][:, support]
    m[k, k] = 0.0
    rhs = np.zeros(k + 1)
    rhs[k] = 1.0
    x = np.linalg.solve(m, rhs)
    return x[:k], float(x[k])


def _difference_gram(d: np.ndarray, points: np.ndarray) -> np.ndarray:
    """The Gram matrix (D_0a + D_0b - D_ab)/2 of the differences p_a - p_0
    of the ``points`` less their first, p_0, from the squared distances
    alone."""
    rest = points[1:]
    head = d[points[0], rest]
    return 0.5 * (head[:, None] + head - d[np.ix_(rest, rest)])


def _affinely_independent(gram: np.ndarray) -> bool:
    """Whether points whose difference Gram matrix (of p_a - p_0) is
    ``gram`` are affinely independent: ``gram`` has a Cholesky factor, and
    the square of its every diagonal entry exceeds ``RANK_RTOL`` times the
    Gram matrix's own diagonal entry there."""
    try:
        diagonal = np.linalg.cholesky(gram).diagonal()
    except np.linalg.LinAlgError:
        return False
    return bool((diagonal * diagonal > RANK_RTOL * gram.diagonal()).all())


def _active_set(
    d: np.ndarray, start: Sequence[int]
) -> tuple[tuple[int, ...], np.ndarray, float]:
    """(T, lam, R^2): the support T of the enclosing ball of the points
    with squared distances d, in increasing order, its center's barycentric
    weights lam on T and its squared radius -nu/2 from the bordered solve
    on T in that order, in floats.  The one support of
    ``min_enclosing_ball`` and ``solve_phi``: the standard quadratic
    program max lam^T D lam / 2 over the simplex, whose optimum is the
    ball's center, in two phases on the same bordered solve
    (``_bordered_solve``, which gives T's circumcenter weights and R^2 =
    -nu/2) and the same outside test: the point j lies outside T's sphere
    when |p_j - c|^2 - R^2 = D[j, T] lam + nu exceeds ``MEB_GAP_RTOL`` *
    max(1, max D[0]), the float form of ``_support_certified``.  In
    ``min_enclosing_ball`` D[0, j] = |p_j - p_0|^2 exactly, so this is the
    bound its duality gap is checked against.

    First at most ``PROPOSAL_PIVOTS`` block principal pivots (Judice &
    Pires 1994) from T = ``start``: T keeps its points of positive weight
    and takes in every point outside.  A pivot that keeps T is accepted
    when T is affinely independent (``_affinely_independent`` on its
    difference Gram matrix, ``_difference_gram``).  A singular system, a
    dependent T or the cap, which a cycle of T reaches, leaves the ball to
    ``_single_pivots``."""
    tol = MEB_GAP_RTOL * max(1.0, float(d[0].max()))
    member = np.zeros(len(d), dtype=bool)
    member[list(start)] = True
    try:
        for _ in range(PROPOSAL_PIVOTS):
            support = np.flatnonzero(member)
            lam, nu = _bordered_solve(d, support)
            outside = d[:, support] @ lam + nu > tol
            outside[support] = False
            positive = lam > 0.0
            if positive.all() and not outside.any():
                if _affinely_independent(_difference_gram(d, support)):
                    return tuple(support.tolist()), lam, -0.5 * nu
                break
            member[support[~positive]] = False
            member |= outside
    except np.linalg.LinAlgError:
        pass
    return _single_pivots(d, tol)


def _single_pivots(d: np.ndarray, tol: float) -> tuple[tuple[int, ...], np.ndarray, float]:
    """``_active_set``'s second phase: the primal active-set method for
    convex quadratic programs (Nocedal & Wright, *Numerical Optimization*,
    2nd ed., section 16.5), one point per pivot, with ``tol`` the outside
    test's tolerance.  The weights lam stay >= 0 with sum 1, and T stays
    affinely independent, from the point farthest from point 0.  With w
    T's circumcenter weights, a pivot either
    - moves lam toward w, when some w <= 0, until a weight reaches 0, and
      that point leaves T; or
    - sets lam = w and lets the point j farthest outside join T, at weight
      0; or, when T's difference Gram system against j shows p_j = sum
      a_i p_i (within ``RANK_RTOL``), lam moves along e_j - a, which keeps
      the center and raises the objective by theta (|p_j - c|^2 - R^2) > 0,
      until a weight reaches 0 (the ratio test), and j takes that point's
      place.
    No point outside ends it; more than 20n pivots raise
    ``GeometricInconsistencyError``."""
    support = np.array([int(np.argmax(d[0]))])
    lam = np.ones(1)
    for _ in range(20 * len(d)):
        w, nu = _bordered_solve(d, support)
        if not (w > 0.0).all():
            ratio = np.divide(lam, lam - w, out=np.zeros(len(w)), where=lam > w)
            i = int(np.argmin(np.where(w > 0.0, np.inf, ratio)))
            lam = np.maximum(lam + ratio[i] * (w - lam), 0.0)
            support, lam = np.delete(support, i), np.delete(lam, i)
            continue
        lam, excess = w, d[:, support] @ w + nu
        excess[support] = -np.inf
        j = int(np.argmax(excess))
        if excess[j] <= tol:
            order = np.argsort(support)
            support = support[order]
            return tuple(support.tolist()), w[order], -0.5 * _bordered_solve(d, support)[1]
        gram = _difference_gram(d, np.append(support, j))
        a = np.linalg.solve(gram[:-1, :-1], gram[:-1, -1])
        if gram[-1, -1] - gram[:-1, -1] @ a > RANK_RTOL * gram[-1, -1]:
            support, lam = np.append(support, j), np.append(lam, 0.0)
            continue
        a = np.concatenate([[1.0 - a.sum()], a])
        ratio = np.divide(lam, a, out=np.full(len(a), np.inf), where=a > 0.0)
        i = int(np.argmin(ratio))
        lam = np.maximum(lam - ratio[i] * a, 0.0)
        support[i], lam[i] = j, ratio[i]
    raise GeometricInconsistencyError(f"active set: no optimum in {20 * len(d)} pivots")


def min_enclosing_ball(points: Sequence[Sequence[float]] | np.ndarray) -> Ball:
    """Smallest ball containing the points, with a dual certificate.

    ``_active_set`` finds the support on the squared distances, from one
    Gram matrix: block pivots from the min(n, d + 1) points of largest mean
    squared distance, as many as a support in R^d can hold, then single
    pivots if those do not settle it.  The duality gap of its barycentric
    weights certifies the ball, and the radius is read from the support
    alone, by its bordered solve, whichever pivots found it.  The active
    set's outside test counts a point as outside down to that certificate's
    own bound, so one pass settles every ball.

    All of it runs on the differences p - p_0 divided by s, the least power
    of two above their largest absolute coordinate (an exact scaling), so
    every tolerance is relative to the data.  A duality gap above
    ``MEB_GAP_RTOL`` * max(s^2, max |p - p_0|^2), or no optimum in 20n
    single pivots, raises ``GeometricInconsistencyError``.  ``support``
    lists every point within 1e-7 * max(s, radius) of the sphere; the
    points of positive ``weights`` are affinely independent.  No point, or
    a coordinate difference that is not finite, raises ``ValueError``."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or not len(pts):
        raise ValueError("points must be a non-empty 2-d array")
    with np.errstate(over="ignore", invalid="ignore"):  # tested just below
        rel = pts - pts[0]  # rounding at the ball's scale, not the origin's
    if not np.isfinite(rel).all():
        raise ValueError("point coordinates and their differences must be finite")
    n = len(pts)
    e = math.frexp(float(np.abs(rel).max(initial=0.0)))[1]
    rel = np.ldexp(rel, -e)
    sqnorms = (rel * rel).sum(axis=1)
    sq = sqnorms[:, None] + sqnorms - 2.0 * (rel @ rel.T)
    np.fill_diagonal(sq, 0.0)
    start = np.argsort(-sq.mean(axis=1), kind="stable")[: pts.shape[1] + 1]
    support, lam, r2 = _active_set(sq, start)
    lam = np.bincount(support, lam, n)
    c, _, gap = _dual_certificate(rel, sqnorms, lam)
    bound = MEB_GAP_RTOL * max(1.0, float(sqnorms.max()))
    if gap > bound:
        raise GeometricInconsistencyError(
            f"enclosing ball duality gap {_unscaled_gap(gap, e):.3g} "
            f"above {_unscaled_gap(bound, e):.3g}"
        )
    radius = math.sqrt(max(0.0, r2))
    dist = np.sqrt(np.maximum(sqnorms - 2.0 * rel @ c + c @ c, 0.0))
    near = tuple(i for i in range(n) if dist[i] >= radius - 1e-7 * max(1.0, radius))
    center, gap = pts[0] + np.ldexp(c, e), _unscaled_gap(max(gap, 0.0), e)
    return Ball(center, float(np.ldexp(radius, e)), near, gap, lam)


# ---------------------------------------------------------------------------
# The radius function and its exact inverse
# ---------------------------------------------------------------------------


def phi(g: Graph, x: float) -> float:
    """Radius of the smallest ball enclosing the configuration of g with
    short distance sqrt(2) and long distance x."""
    return min_enclosing_ball(realize(g, x, SQRT2).points).radius


def _bordered_adjugate(g: Graph, support: Sequence[int]) -> tuple[IntPolynomial, ...]:
    """``(C_T, M_T, L_1, ..., L_k)``: det B and adj(B) e_0 for the bordered
    matrix B = [[0, 1^T], [1, D_T(t)]] of the points T = ``support`` of g,
    D_T being 1 on edges, t on the other pairs and 0 on the diagonal, from
    one ``det_poly_matrix``.  C_T and M_T are T's C and M."""
    zero, one, x = IntPolynomial.zero(), IntPolynomial.const(1), IntPolynomial.x()
    rows = [[zero] + [one] * len(support)]
    for i in support:
        rows.append([one] + [zero if i == j else one if g.has_edge(i, j) else x for j in support])
    return det_poly_matrix(rows, len(support) + 1)


def _support_certified(
    g: Graph, support: tuple[int, ...], adjugate: Sequence[IntPolynomial], t: AlgebraicReal
) -> bool:
    """Whether, at t = x^2/2, the circumcenter of the points ``support`` of
    g is the center of the enclosing ball of all n points, decided exactly.

    With B the bordered matrix of the support and C_T = det B, Cramer's
    rule gives adj(B) e_0 = (M_T, L_1, ..., L_k), the tuple ``adjugate``
    = (C_T, M_T, L_1, ..., L_k) of ``_bordered_adjugate``: the
    circumcenter's barycentric weights are L_i / C_T, and the squared
    circumradius is -M_T / (2 C_T) at unit short distance.  Certified when
    C_T != 0, every weight is >= 0 and every other point j lies inside or
    on the sphere: sign(sum_i D_ji L_i + M_T) * sign(C_T) <= 0."""
    c_t, m_t, *weights = adjugate
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


def _float_root_near(
    adjacency: np.ndarray, support: Sequence[int], r0: Fraction, t: float, top: float
) -> Optional[float]:
    """The real root in (1, top] nearest t of the tie polynomial of the
    points ``support`` for the squared radius r0, or None, from the pencil
    of their bordered matrix.

    The tie polynomial q M_T + 2p C_T (r0 = p/q) is 2p det P(s), P(s) =
    [[1/(2 r0), 1^T], [1, D_T(s)]], since det P(s) is linear in its corner
    entry.  P(s) = P(t) + (s - t) Q with Q = [[0, 0], [0, J - I - A_T]], so
    det P(s) = 0 iff s = t - 1/lam for an eigenvalue lam != 0 of P(t)^-1 Q
    (real when its imaginary part is within 1e-6 of its modulus): one
    ``solve`` and one ``eigvals``, with no polynomial coefficients.  A
    singular P(t) makes t the root."""
    k = len(support)
    a = adjacency[np.ix_(support, support)]
    p = np.ones((k + 1, k + 1))
    p[0, 0] = 1.0 / (2.0 * float(r0))
    p[1:, 1:] = _squared_distances(a, t)
    q = np.zeros((k + 1, k + 1))
    q[1:, 1:] = 1.0 - a - np.eye(k)
    try:
        pencil = np.linalg.solve(p, q)
    except np.linalg.LinAlgError:  # P(t) is singular
        return t
    lam = np.linalg.eigvals(pencil)
    lam = lam.real[np.abs(lam.imag) <= 1e-6 * np.abs(lam)]
    with np.errstate(divide="ignore", over="ignore"):  # lam = 0: no finite root
        roots = t - 1.0 / lam
    roots = roots[(roots > 1.0) & (roots <= top)]
    return float(roots[np.argmin(np.abs(roots - t))]) if roots.size else None


def solve_phi(g: Graph, r: float) -> AlgebraicReal:
    """The squared long distance x^2 at which the enclosing-ball radius of
    the sqrt(2)-short configuration of g equals r, as an exact algebraic
    number; the radius grows with x, so x is unique.  Requires
    sqrt((n-1)/n) < r <= 1 and a non-complete graph.

    At r >= 1 (the range check allows 1e-12 above 1, read as radius 1), x^2
    is beta*^2 from ``invariants.beta_star_squared``, with no active set
    and no elimination.  So r = 1 + 1e-13 returns beta*^2 also where it is
    the window end 2 tau1 (the square C4: 4).

    Below 1, on an affinely independent support T the squared radius is r^2
    at the roots of T's tie polynomial q M_T + 2p C_T for r0 = r^2/2 = p/q.
    The float active set of ``min_enclosing_ball`` (``_active_set``), on
    the squared distances D(t) = t(J - I) - (t - 1)A, proposes T, first in
    the middle of (1, tau1) from all n points, later warm-started at the
    current T.  One loop over T follows.  While a float t is known, t moves
    to the float root nearest it (``_float_root_near``, the pencil of T's
    bordered matrix), and T to the active set's support there while that
    changes and is untried.  Then T's bordered matrix gets one exact
    adjugate column (``_bordered_adjugate``), the roots of its tie
    polynomial in (1, tau1] are walked (``invariants._roots_up_to``, the
    first certified on t's interval), and x^2 is twice the first at which
    ``_support_certified`` holds.  Failing all, the active set at the root
    whose squared radius is nearest r0 proposes the next T, with no t; a T
    proposed again raises ``UndecidableEnclosureError``."""
    if is_complete(g):
        raise CompleteGraphError("complete graphs admit no such solve")
    n = g.n
    if not (math.sqrt((n - 1) / n) < r <= 1.0 + 1e-12):
        raise ValueError(f"radius {r} outside (sqrt((n-1)/n), 1]")
    if r >= 1.0:
        return invariants.beta_star_squared(g)
    r0 = Fraction(r) ** 2 / 2  # the squared radius at unit short distance
    tau1, _ = invariants.tau1_mu(g)
    top = math.inf if tau1 is None else float(tau1)
    adjacency = g.adjacency().astype(float)
    t = 2.0 if tau1 is None else 0.5 * (1.0 + top)
    # Inside the window all n points are affinely independent, and most
    # of them are usually on the sphere: start from all of them.
    support = _active_set(_squared_distances(adjacency, t), range(n))[0]
    tried = set()
    while support not in tried:
        tried.add(support)
        if t is not None:
            t = _float_root_near(adjacency, support, r0, t, top)
            if t is not None:
                got = _active_set(_squared_distances(adjacency, t), support)[0]
                if got not in tried:
                    support = got
                    continue
        adjugate = _bordered_adjugate(g, support)
        tie = adjugate[1].scale(r0.denominator) + adjugate[0].scale(2 * r0.numerator)
        best, miss = support, math.inf
        for root, _ in invariants._roots_up_to(tie, t, tau1):
            if _support_certified(g, support, adjugate, root):
                return root.scaled(2)
            got, _, r2 = _active_set(_squared_distances(adjacency, float(root)), support)
            if abs(r2 - r0) < miss:
                best, miss = got, abs(r2 - r0)
            if r2 >= r0:
                break  # the radius grows with t: later roots are farther from r
        support, t = best, None
    raise UndecidableEnclosureError(f"active-set support {support} proposed twice")


def beta_star_numeric(g: Graph) -> float:
    """Long distance of the J-spherical representation (unit sphere, short
    distance sqrt(2)), read from the cached exact
    ``invariants.beta_star_squared``."""
    return math.sqrt(float(invariants.beta_star_squared(g)))


def jspherical_embedding(g: Graph) -> PointConfig:
    """Coordinates of the unit-sphere representation with short distance
    sqrt(2) and long distance beta* from ``beta_star_numeric``.  Its Gram
    matrix is G(t) = I + (1 - t)Abar at t = beta*^2/2, Abar = J - I - A the
    complement's adjacency matrix: inner products 0 on edges and 1 - t on
    non-edges, 1 on the diagonal.  The points are ``_coordinates`` of G, on
    the unit sphere by construction; their dimension is the J-spherical
    dimension, the rank.  A negative eigenvalue below ``PSD_TOL`` or a norm
    off 1 by more than 1e-6 raises ``GeometricInconsistencyError``."""
    b = beta_star_numeric(g)
    gram = np.where(g.adjacency().astype(bool), 0.0, 1.0 - 0.5 * b * b)
    np.fill_diagonal(gram, 1.0)
    pts = _coordinates(gram, GeometricInconsistencyError, " at beta*")
    off = float(np.abs(np.linalg.norm(pts, axis=1) - 1.0).max())
    if off > 1e-6:
        raise GeometricInconsistencyError(f"embedded norms off 1 by {off:.3g}")
    return PointConfig(pts, SQRT2, b, pts.shape[1])


# ---------------------------------------------------------------------------
# Join decomposition of spherical point sets
# ---------------------------------------------------------------------------


def _linear_rank(points: np.ndarray, rtol: float) -> int:
    svals = np.linalg.svd(points, compute_uv=False)
    if svals.size == 0 or svals[0] == 0.0:
        return 0
    return int((svals > rtol * svals[0]).sum())


def _origin_against_hull(
    gram: np.ndarray, points: np.ndarray, spans: Sequence[tuple[int, int]]
) -> tuple[list[bool], list[float]]:
    """(Type I?, distance) for each block points[start:stop] of affinely
    independent points, (start, stop) in ``spans``, which cover the points
    in order, from their Gram matrix ``gram``, of which only the blocks'
    diagonal parts are read.

    For a block T, the projection q = w^T P_T of the origin onto T's affine
    hull has the barycentric weights w of the ball pivots' bordered system
    (``_bordered_solve``) on T's Gram matrix, [[G_T, 1], [1^T, 0]] [w; nu]
    = [0; 1], which minimizes |q|^2 = w^T G_T w over sum w = 1.  All blocks
    take one solve, of those systems side by side (block-diagonal, one
    border row per block), and one affine-independence test
    (``_affinely_independent``) of their difference Gram matrices side by
    side.  q is summed from the points, not read as sqrt(-nu), which keeps
    its digits near the origin.  Type I when |q| <= ``HULL_TOL``
    (max-norm) and every w >= -``HULL_TOL``: the origin is in the convex
    hull.  The distance is |q|.  A block that is not affinely independent
    raises ``GeometricInconsistencyError``."""
    n, count = len(points), len(spans)
    bordered = np.zeros((n + count, n + count))
    differences = np.zeros((n - count, n - count))
    for t, (start, stop) in enumerate(spans):
        block = gram[start:stop, start:stop]
        bordered[start:stop, start:stop] = block
        bordered[start:stop, n + t] = bordered[n + t, start:stop] = 1.0
        # p_a - p_start for start < a < stop; the t blocks before lost a row each
        rows = slice(start - t, stop - t - 1)
        differences[rows, rows] = block[1:, 1:] - block[1:, :1] - block[:1, 1:] + block[0, 0]
    if not _affinely_independent(differences):
        raise GeometricInconsistencyError(
            f"a join block has affine rank below its size less one (spans {list(spans)})"
        )
    rhs = np.zeros(n + count)
    rhs[n:] = 1.0
    weights = np.linalg.solve(bordered, rhs)[:n]
    starts = [start for start, _ in spans]
    q = np.add.reduceat(weights[:, None] * points, starts)
    low = np.minimum.reduceat(weights, starts)
    inside = (np.abs(q).max(axis=1) <= HULL_TOL) & (low >= -HULL_TOL)
    return inside.tolist(), np.sqrt((q * q).sum(axis=1)).tolist()


def kuperberg_decompose(config: PointConfig) -> PointFactorization:
    """Orthogonal join decomposition of a unit-sphere two-distance set
    with short distance sqrt(2).

    Every test reads one Gram matrix G = P P^T of the points: the unit
    sphere its diagonal, the minimum distance and the long distances the
    squared distances g_ii + g_jj - 2 g_ij (clamped at 0).  The blocks are
    the connected components of the long-distance graph, from its bit rows;
    they must be mutually orthogonal (|G| <= ``ORTH_TOL`` across blocks).
    Each is labeled Type I when the origin lies in its convex hull, Type II
    otherwise; a Type II block whose affine hull passes within
    ``HULL_TOL`` of the origin is flagged.  A block's Gram matrix is I + (1
    - t)Abar_B with Abar_B connected, so by Perron-Frobenius the block is
    affinely independent, and when the origin lies in its affine hull its
    barycentric weights are positive: one projection of the origin onto
    that hull decides the type (``_origin_against_hull``, on G with the
    points in block order).  Exactly |S| - rank(S) blocks must be Type I.

    An empty point set raises ``ValueError``; a long distance b that is
    not finite, or a point off the unit sphere (a NaN coordinate included),
    raises ``GeometricInconsistencyError``."""
    cfg = get_config()
    pts = config.points
    n = pts.shape[0]
    if not n:
        raise ValueError("config.points must hold at least one point")
    if not math.isfinite(config.b):
        raise GeometricInconsistencyError(f"long distance {config.b} is not finite")
    with np.errstate(over="ignore", invalid="ignore"):  # tested just below
        gram = pts @ pts.T
    sqnorms = np.diagonal(gram)
    low, high = float(sqnorms.min()), float(sqnorms.max())
    # |p| within dist_tol of 1; a NaN fails both comparisons
    if not ((1.0 - cfg.dist_tol) ** 2 <= low and high <= (1.0 + cfg.dist_tol) ** 2):
        raise GeometricInconsistencyError("points are not on the unit sphere")
    sq = np.maximum(sqnorms[:, None] + sqnorms - 2.0 * gram, 0.0)
    np.fill_diagonal(sq, np.inf)  # out of the minimum
    least = float(sq.min())
    if least < (SQRT2 - cfg.dist_tol) ** 2:
        raise GeometricInconsistencyError(
            f"minimum distance {math.sqrt(least):.12g} below sqrt(2)"
        )
    threshold = 0.5 * (SQRT2 + max(config.b, SQRT2 + 4 * cfg.dist_tol))
    # Bit j of row i: i and j are at the long distance (i == j included,
    # which joins no components).
    packed = np.packbits(sq >= threshold * threshold, axis=1, bitorder="little")
    width, buf = packed.shape[1], packed.tobytes()
    rows = tuple(
        int.from_bytes(buf[i : i + width], "little") for i in range(0, n * width, width)
    )
    blocks = _component_sets(rows)
    order = np.array([i for block in blocks for i in block])
    by_block = gram[order[:, None], order]
    spans = []
    for block in blocks:
        start = spans[-1][1] if spans else 0
        spans.append((start, start + len(block)))
    if len(blocks) > 1:
        # Cross-block pairs sit at distance sqrt(2), i.e. orthogonal.
        across = np.ones((n, n), dtype=bool)
        for start, stop in spans:
            across[start:stop, start:stop] = False
        if float(np.abs(by_block[across]).max()) > ORTH_TOL:
            raise GeometricInconsistencyError("cross-factor inner products are not zero")
    inside, distance = _origin_against_hull(by_block, pts[order], spans)
    factors = []
    flags: list[str] = []
    for idx, block in enumerate(blocks):
        if inside[idx]:
            factors.append((tuple(block), "I"))
        else:
            if distance[idx] <= HULL_TOL:
                # Origin on the affine hull but outside the hull interior:
                # a further decomposition exists in exact arithmetic.
                flags.append(f"factor-{idx}-origin-on-affine-hull")
            factors.append((tuple(block), "II"))
    k = sum(inside)
    rank = _linear_rank(pts, RANK_RTOL)
    if n != rank + k:
        raise GeometricInconsistencyError(
            f"|S| = {n} but rank + #TypeI = {rank} + {k}"
        )
    return PointFactorization(tuple(factors), k, tuple(flags))
