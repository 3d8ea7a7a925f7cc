"""Reference routes the tests hold the program to.

Sturm isolation of real roots, Sturm root counts and the decisions
``multiplicity_at`` and ``AlgebraicReal.compare`` made with them, the exact
sign of an algebraic number minus a rational, interval images, the
bordered distance matrix, the enclosing ball that factors T afresh at
every pivot, the beta* solve whose supports enclosing balls of realized
points propose, and the pairwise loop for the distance residual:
independent of the Descartes bisection, sign tests, walk polynomials,
updated QR factors, active set and array code that ``twodist`` uses, and
called by no program path.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from twodist import invariants
from twodist.errors import GeometricInconsistencyError, UndecidableEnclosureError
from twodist.geometry import (
    MEB_GAP_RTOL,
    SQRT2,
    Ball,
    PointConfig,
    _roots_in_window,
    _support_certified,
    min_enclosing_ball,
    realize,
)
from twodist.graphs import Graph, is_complete
from twodist.polynomials import (
    AlgebraicReal,
    IntPolynomial,
    RationalLike,
    SturmChain,
    _as_fraction,
    _on_grid,
    _sign_changes,
    exact_div,
    poly_gcd,
    squarefree_decomposition,
)


def count_real_roots(p: IntPolynomial, lo: Fraction, hi: Fraction) -> int:
    """Distinct real roots of p in (lo, hi); endpoints must not be roots."""
    return SturmChain(p).count(lo, hi)


def is_valid(a: AlgebraicReal) -> bool:
    """Whether a's interval has nonroot endpoints and isolates one root."""
    f = a.defining
    return (
        a.lo < a.hi
        and f.homogeneous(a.lo.numerator, a.lo.denominator) != 0
        and f.homogeneous(a.hi.numerator, a.hi.denominator) != 0
        and count_real_roots(f, a.lo, a.hi) == 1
    )


def cmp_rational(a: AlgebraicReal, r: RationalLike) -> int:
    """Sign of (a - r), decided exactly."""
    r = _as_fraction(r)
    while True:
        if r <= a.lo:
            return 1
        if r >= a.hi:
            return -1
        if a.defining.homogeneous(r.numerator, r.denominator) == 0:
            return 0  # r is the unique root in the interval
        a = a.refined(a.width / 4)


def eval_interval(p: IntPolynomial, lo: Fraction, hi: Fraction) -> tuple[Fraction, Fraction]:
    """Exact interval image bound of p over [lo, hi]."""
    rlo, rhi, scale = p._image(*_on_grid(lo, hi))
    return Fraction(rlo, scale), Fraction(rhi, scale)


def bordered_matrix(g: Graph) -> list[list[IntPolynomial]]:
    """The bordered squared-distance matrix [[0, 1^T], [1, D]] of g in
    t = b^2 with unit short distance: D is 1 on edges, t on the other
    pairs and 0 on the diagonal."""
    zero = IntPolynomial.zero()
    one = IntPolynomial.const(1)
    t = IntPolynomial.x()
    rows = [[zero] + [one] * g.n]
    for i in range(g.n):
        rows.append(
            [one]
            + [zero if i == j else one if g.has_edge(i, j) else t for j in range(g.n)]
        )
    return rows


def sturm_leftmost_root_above(
    f: IntPolynomial, bound: Fraction
) -> Optional[tuple[Fraction, Fraction]]:
    """Isolating interval of the smallest real root of squarefree ``f``
    strictly above ``bound``, or None, by Sturm counts on the grid from
    ``bound`` to the Cauchy bound."""
    f = f.primitive()
    if f.homogeneous(bound.numerator, bound.denominator) == 0:
        # Deflate the (simple) rational root sitting exactly at the bound.
        f = exact_div(
            f, IntPolynomial.from_coeffs([-bound.numerator, bound.denominator])
        ).primitive()
    if f.degree in (None, 0):
        return None
    upper = f.root_bound()
    if upper <= bound:
        return None
    # The Cauchy bound is strict; guard anyway.
    while f.homogeneous(upper.numerator, upper.denominator) == 0:
        upper += 1
    chain = SturmChain(f)
    # Bisect numerators over a shared denominator, a/den < b/den, carrying
    # the sign variations at a; each point's chain is evaluated once.
    a, b, den = _on_grid(bound, upper)
    var_a = _sign_changes(chain._values(a, den))
    count = var_a - _sign_changes(chain._values(b, den))
    if count == 0:
        return None
    while count > 1:
        a, mid, b, den = 2 * a, a + b, 2 * b, 2 * den
        at_mid = chain._values(mid, den)
        if at_mid[0] == 0:
            # mid is a root: isolate it in [mid - delta, mid + delta], with
            # delta = (b - a)/4 halved until the count there is 1.
            a, mid, b, den = 4 * a, 4 * mid, 4 * b, 4 * den
            delta = (b - a) // 4
            while True:
                at_left = chain._values(mid - delta, den)
                at_right = chain._values(mid + delta, den)
                var_left = _sign_changes(at_left)
                if at_left[0] and at_right[0]:
                    if var_left - _sign_changes(at_right) == 1:
                        break
                a, mid, b, den = 2 * a, 2 * mid, 2 * b, 2 * den
            left = var_a - var_left
            if left < 1:
                return (Fraction(mid - delta, den), Fraction(mid + delta, den))
            b, count = mid - delta, left
        else:
            var_mid = _sign_changes(at_mid)
            left = var_a - var_mid
            if left >= 1:
                b, count = mid, left
            else:
                a, var_a = mid, var_mid
    return (Fraction(a, den), Fraction(b, den))


def sturm_smallest_root_greater_than(
    p: IntPolynomial, bound: RationalLike
) -> Optional[tuple[AlgebraicReal, int]]:
    """``polynomials.smallest_root_greater_than`` with each squarefree
    factor isolated by ``sturm_leftmost_root_above``."""
    if p.is_zero:
        raise ValueError("zero polynomial")
    bound = _as_fraction(bound)
    best: Optional[AlgebraicReal] = None
    best_mult = 0
    for factor, mult in squarefree_decomposition(p):
        got = sturm_leftmost_root_above(factor, bound)
        if got is None:
            continue
        cand = AlgebraicReal(factor, got[0], got[1])
        if best is None or cand.compare(best) < 0:
            best, best_mult = cand, mult
    if best is None:
        return None
    while best.lo <= bound:  # keep the enclosure clear of the bound
        best = best.refined(best.width / 4)
    return best, best_mult


def sturm_multiplicity_at(p: IntPolynomial, a: AlgebraicReal) -> int:
    """``polynomials.multiplicity_at`` with each gcd's root in a's
    interval counted by a Sturm chain."""
    d = a.defining.primitive()
    cur = p.primitive()
    mult = 0
    while True:
        g = poly_gcd(cur, d)
        if not g.degree or SturmChain(g).count(a.lo, a.hi) == 0:
            return mult
        cur = exact_div(cur, g).primitive()
        mult += 1


def sturm_compare(a: AlgebraicReal, b: AlgebraicReal) -> int:
    """``AlgebraicReal.compare`` with the common root in the overlap of
    the enclosures counted by a Sturm chain."""
    if a.hi > b.lo and b.hi > a.lo:
        g = poly_gcd(a.defining, b.defining)
        lo, hi = max(a.lo, b.lo), min(a.hi, b.hi)
        if g.degree and SturmChain(g).count(lo, hi) >= 1:
            return 0
        while a.hi > b.lo and b.hi > a.lo:
            a = a.refined(a.width / 4)
            b = b.refined(b.width / 4)
    return -1 if a.hi <= b.lo else 1


def reference_min_enclosing_ball(points: Sequence[Sequence[float]] | np.ndarray) -> Ball:
    """``geometry.min_enclosing_ball`` on the same walk, with aff(T)
    factored by ``np.linalg.qr`` and both triangular systems solved at
    every pivot, at the points' own scale."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise ValueError("points must be a 2-d array")
    n, d = pts.shape
    rel = pts - pts[0]  # rounding at the ball's scale, not the origin's
    c = np.zeros(d)
    support = [int(np.argmax((rel * rel).sum(axis=1)))]
    for _ in range(20 * n):
        t0 = rel[support[0]]
        q = rel[support[1:]] - t0
        # With q = tri.T @ basis.T, the circumcenter t0 + basis @ y of aff(T)
        # solves q x = |q|^2 / 2, and tri @ mu = y gives its weights.
        basis, tri = np.linalg.qr(q.T)
        y = np.linalg.solve(tri.T, 0.5 * (q * q).sum(axis=1))
        mu = np.linalg.solve(tri, y)
        weights = np.concatenate([[1.0 - mu.sum()], mu])
        target = t0 + basis @ y
        # Walk orthogonally to aff(T), as exact arithmetic does, so that no
        # point of aff(T) can stop the walk and T stays affinely independent.
        step = target - c
        step -= basis @ (basis.T @ step)
        r2 = float((t0 - c) @ (t0 - c))
        step2 = float(step @ step)
        frac = np.full(n, np.inf)
        if step2 > 1e-24 * r2:  # else a rounding-level step: no stops
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
            continue
        c = target
        k = int(np.argmin(weights))
        if weights[k] >= 0.0:
            break
        support.pop(k)
    else:
        raise GeometricInconsistencyError(
            f"enclosing ball: no optimum in {20 * n} pivots"
        )
    lam = np.bincount(support, weights, n)
    sqnorms = (pts * pts).sum(axis=1)
    c = lam @ pts
    r2 = float((sqnorms - 2.0 * pts @ c + c @ c).max())
    gap = r2 - float(lam @ sqnorms - c @ c)
    bound = MEB_GAP_RTOL * max(1.0, float(sqnorms.max()))
    if gap > bound:
        raise GeometricInconsistencyError(
            f"enclosing ball duality gap {gap:.3g} above {bound:.3g}"
        )
    radius = math.sqrt(max(r2, 0.0))
    dist = np.sqrt(np.maximum(sqnorms - 2.0 * pts @ c + c @ c, 0.0))
    near = tuple(i for i in range(n) if dist[i] >= radius - 1e-7 * max(1.0, radius))
    return Ball(c, radius, near, float(max(gap, 0.0)), lam)


def loop_distance_residual(config: PointConfig, g: Graph) -> float:
    """``PointConfig.max_distance_residual`` pair by pair: the largest
    |d_ij - target| / max(a, b, 1), target a on edges and b elsewhere, or
    inf at the first NaN."""
    d = config.distance_matrix()
    worst = 0.0
    scale = max(config.a, config.b, 1.0)
    for i in range(config.n):
        for j in range(i + 1, config.n):
            target = config.a if g.has_edge(i, j) else config.b
            residual = abs(d[i, j] - target) / scale
            if math.isnan(residual):
                return math.inf
            worst = max(worst, residual)
    return worst


def _ball_at(g: Graph, t: float) -> Ball:
    """Enclosing ball of the sqrt(2)-short configuration with t = x^2/2."""
    return min_enclosing_ball(realize(g, math.sqrt(2.0 * t), SQRT2).points)


def ball_solve_phi(g: Graph, r: float) -> AlgebraicReal:
    """``geometry.solve_phi`` with float enclosing balls proposing the
    supports: the ball at the window end proposes T (its points of
    positive weight), every root t of T's tie polynomial in (1, tau1] is
    tried with ``_support_certified``, and failing all, the ball at the
    root whose radius is nearest r proposes the next T; a T proposed
    twice raises ``UndecidableEnclosureError``."""
    if is_complete(g):
        raise ValueError("complete graphs admit no such solve")
    r0 = Fraction(r) ** 2 / 2  # the squared radius at unit short distance
    tau1, _ = invariants.tau1_mu(g)
    ball = _ball_at(g, 4.0 if tau1 is None else float(tau1))
    proposed = set()
    while True:
        # The pivot's final support: affinely independent, unlike the
        # near-sphere set ``ball.support``, which may hold ties.
        support = tuple(np.flatnonzero(ball.weights > 0.0).tolist())
        if support in proposed:
            raise UndecidableEnclosureError(
                f"enclosing-ball support {support} proposed twice"
            )
        proposed.add(support)
        radius_poly = invariants.tie_polynomial(g.induced(support), r0)
        balls = []  # no root keeps the ball, so T is proposed again and raises
        for t in _roots_in_window(radius_poly, tau1):
            t = t.refined(Fraction(1, 2**64))  # once, for every sign and the float
            if _support_certified(g, support, t):
                return t.scaled(2)
            ball = _ball_at(g, float(t))
            balls.append(ball)
            if ball.radius >= r:
                break  # the radius grows with t: later roots are farther from r
        ball = min(balls, key=lambda b: abs(b.radius - r), default=ball)
