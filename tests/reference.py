"""Reference routes the tests hold the program to.

Sturm isolation of real roots, Sturm root counts and the decisions
``multiplicity_at`` and ``AlgebraicReal.compare`` made with them and with
gcds from a remainder sequence of their own (``remainder_gcd``) and a
squarefree split over it (``remainder_squarefree``), the exact sign of an
algebraic number minus a rational, interval images, the bordered distance
matrix, walk data from packed-integer row sums, C and M from them for any
graph, the bordered matrix's adjugate column from its walk vectors, the
enclosing ball walked on center coordinates with T factored afresh at
every pivot, the beta* solve whose supports enclosing balls of realized points propose
and which tries every root of a support's tie polynomial from 1 upward,
the Type I test by an enclosing ball's center, the join blocks of a
point set by a search over its long distance pairs with a least-squares
projection of the origin per block, and the pairwise loop for the
distance residual, and the canonical key by neighbour-colour refinement
on colour tuples and a search over every vertex order that respects its
classes: independent of the Descartes counts, sign tests, float64 walk
kernel, modular coprimality test of ``poly_gcd``, join composition,
active set on squared distances, Bareiss elimination, float pencil,
certified root walk, Perron root, Gram-matrix bordered solve, bit-row
components, lexicographic leader search and array code that ``twodist``
uses, and called by no program path.  Only the beta* solve's root listing
(``roots_in_window``) runs the program's Descartes bisection, on the tie
polynomial's squarefree part, and the packed walk data the program's
Newton identities and its change of variable to t
(``invariants._adjugate_coeffs``, ``invariants._in_t``)."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterator, Optional, Sequence

import numpy as np

from twodist import invariants
from twodist.errors import GeometricInconsistencyError, UndecidableEnclosureError
from twodist.config import get_config
from twodist.geometry import (
    HULL_TOL,
    MEB_GAP_RTOL,
    ORTH_TOL,
    RANK_RTOL,
    SQRT2,
    Ball,
    PointConfig,
    PointFactorization,
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
    poly_rem,
    smallest_root_greater_than,
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


def _slots(x: int, n: int, width: int) -> list[int]:
    """The n entries packed in x, entry i in bits [i*width, (i+1)*width)."""
    mask = (1 << width) - 1
    return [(x >> (width * i)) & mask for i in range(n)]


def packed_walk_data(g: Graph) -> tuple[tuple[int, ...], tuple[int, ...], list[list[int]]]:
    """(c, w) as ``invariants._walk_data`` gives them, and v (for
    ``walk_adjugate``): the coefficients of det(xI - A), the walk sums
    w_j = 1^T A^j 1 and the walk vectors v_j = A^j 1, j < n, in Python
    integers.

    Row i of A^k is packed into one integer with slots of
    width = bits(D^n) + 1 bits (D the largest degree), which keeps the
    slots apart since every entry of A^k counts walks and is at most D^k.
    Row i of A^(k+1) is the sum of the packed rows of A^k at i's
    neighbours, and the sum of all packed rows packs 1^T A^k, which is
    (A^k 1)^T since A is symmetric."""
    n = g.n
    nbrs = [[j for j in range(n) if row >> j & 1] for row in g.rows]
    width = (max(map(len, nbrs)) ** n).bit_length() + 1
    mask = (1 << width) - 1
    rows = [1 << (width * i) for i in range(n)]
    traces = [n]
    walks = [sum(rows)]
    for k in range(1, n + 1):
        rows = [sum(map(rows.__getitem__, nb)) for nb in nbrs]
        traces.append(sum((row >> (width * i)) & mask for i, row in enumerate(rows)))
        if k < n:
            walks.append(sum(rows))
    vectors = [_slots(v, n, width) for v in walks]
    return tuple(invariants._newton(traces)), tuple(map(sum, vectors)), vectors


def packed_cm(g: Graph) -> tuple[IntPolynomial, IntPolynomial]:
    """(C, M) of any graph, a join included, from ``packed_walk_data`` by
    the kernel formula C = (-1)^n H_(n-1)(W), W(x) = 1^T adj(xI - A) 1,
    and M = (-1)^n H_n(P) - t C: the direct route, which
    ``invariants.cm_polynomials`` takes only when g's complement is
    connected."""
    c, w, _ = packed_walk_data(g)
    sign = (-1) ** g.n
    det = invariants._in_t(invariants._adjugate_coeffs(c, w), sign)
    return det, invariants._in_t(c, sign) - IntPolynomial.x() * det


def walk_adjugate(g: Graph) -> tuple[IntPolynomial, ...]:
    """``(C, M, L_1, ..., L_n)``: det B and adj(B) e_0 for g's bordered
    matrix B (``bordered_matrix``), from the walk vectors v_j = A^j 1 of
    ``packed_walk_data``.  By Cramer's rule L_v / C are the barycentric
    weights of the circumcenter.  L_v = (-1)^n H_(n-1)(u_v), u(x) =
    adj(xI - A) 1 = sum_k x^(n-1-k) sum_(i<=k) c_i v_(k-i), and
    H_k(f) = (1-t)^k f(t/(1-t)).  Row 0 of B adj(B) = det(B) I gives
    C = sum_v L_v, and M = (-1)^n H_n(P) - t C as in
    ``invariants.cm_polynomials``."""
    c, _, vectors = packed_walk_data(g)
    n, sign = g.n, (-1) ** g.n
    weights = [
        invariants._in_t(invariants._adjugate_coeffs(c, [v[u] for v in vectors]), sign)
        for u in range(n)
    ]
    det = sum(weights, IntPolynomial.zero())
    return (det, invariants._in_t(c, sign) - IntPolynomial.x() * det, *weights)


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
    """``polynomials.smallest_root_greater_than`` with p's squarefree part
    isolated by ``sturm_leftmost_root_above``, and the root's factor the
    one whose Sturm chain counts a root in its enclosure."""
    if p.is_zero:
        raise ValueError("zero polynomial")
    bound = _as_fraction(bound)
    factors = remainder_squarefree(p)
    squarefree = math.prod((f for f, _ in factors), start=IntPolynomial.const(1))
    got = sturm_leftmost_root_above(squarefree, bound)
    if got is None:
        return None
    root = AlgebraicReal(squarefree, *got)
    while root.lo <= bound:  # keep the enclosure clear of the bound
        root = root.refined(root.width / 4)
    f, mult = next((f, m) for f, m in factors if SturmChain(f).count(root.lo, root.hi))
    return AlgebraicReal(f, root.lo, root.hi), mult


def remainder_gcd(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial:
    """``polynomials.poly_gcd`` by a primitive remainder sequence over
    ``poly_rem`` alone, with no modular coprimality test."""
    a, b = a.primitive(), b.primitive()
    while not b.is_zero:
        a, b = b, poly_rem(a, b)
    return a.primitive()


def remainder_squarefree(p: IntPolynomial) -> list[tuple[IntPolynomial, int]]:
    """``polynomials.squarefree_decomposition`` by Yun's algorithm over
    ``remainder_gcd``: ``[(factor, multiplicity), ...]``, the factors
    squarefree, pairwise coprime and primitive, the multiplicities strictly
    increasing, and p their product of powers up to a rational constant."""
    f = p.primitive()
    if not f.degree:
        return []
    g = remainder_gcd(f, f.derivative())
    c = exact_div(f, g)
    d = exact_div(f.derivative(), g) - c.derivative()
    out, i = [], 1
    while c.degree:
        a = remainder_gcd(c, d)
        if a.degree:
            out.append((a, i))
        c = exact_div(c, a)
        d = exact_div(d, a) - c.derivative()
        i += 1
    return out


def sturm_multiplicity_at(p: IntPolynomial, a: AlgebraicReal) -> int:
    """``polynomials.multiplicity_at`` with each gcd's root in a's
    interval counted by a Sturm chain."""
    d = a.defining.primitive()
    cur = p.primitive()
    mult = 0
    while True:
        g = remainder_gcd(cur, d)
        if not g.degree or SturmChain(g).count(a.lo, a.hi) == 0:
            return mult
        cur = exact_div(cur, g).primitive()
        mult += 1


def sturm_compare(a: AlgebraicReal, b: AlgebraicReal) -> int:
    """``AlgebraicReal.compare`` with the common root in the overlap of
    the enclosures counted by a Sturm chain."""
    if a.hi > b.lo and b.hi > a.lo:
        g = remainder_gcd(a.defining, b.defining)
        lo, hi = max(a.lo, b.lo), min(a.hi, b.hi)
        if g.degree and SturmChain(g).count(lo, hi) >= 1:
            return 0
        while a.hi > b.lo and b.hi > a.lo:
            a = a.refined(a.width / 4)
            b = b.refined(b.width / 4)
    return -1 if a.hi <= b.lo else 1


def reference_min_enclosing_ball(points: Sequence[Sequence[float]] | np.ndarray) -> Ball:
    """The smallest enclosing ball by exact-support pivoting on center
    coordinates (Fischer, Gaertner & Kutz, ESA 2003), a different algorithm
    from ``geometry.min_enclosing_ball``'s active set: the center walks
    toward the circumcenter of aff(T), a point reaching the sphere joins T,
    and at the circumcenter the most negative weight leaves T.  aff(T) is
    factored by ``np.linalg.qr`` and both triangular systems are solved at
    every pivot.  All of it runs on the points less p_0, and the center is
    moved back by p_0 at the end."""
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
    # Measured on rel too: at the points' own scale r^2 and the gap would
    # lose eps * max |p|^2 to cancellation.  The bound takes the smaller of
    # the two scales, so it is never looser than at the points' own.
    lam = np.bincount(support, weights, n)
    sqnorms = (rel * rel).sum(axis=1)
    c = lam @ rel
    r2 = float((sqnorms - 2.0 * rel @ c + c @ c).max())
    gap = r2 - float(lam @ sqnorms - c @ c)
    scale = min(float(sqnorms.max()), float((pts * pts).sum(axis=1).max()))
    bound = MEB_GAP_RTOL * max(1.0, scale)
    if gap > bound:
        raise GeometricInconsistencyError(
            f"enclosing ball duality gap {gap:.3g} above {bound:.3g}"
        )
    radius = math.sqrt(max(r2, 0.0))
    dist = np.sqrt(np.maximum(sqnorms - 2.0 * rel @ c + c @ c, 0.0))
    near = tuple(i for i in range(n) if dist[i] >= radius - 1e-7 * max(1.0, radius))
    return Ball(pts[0] + c, radius, near, float(max(gap, 0.0)), lam)


def origin_in_convex_hull(points: np.ndarray, tol: float) -> bool:
    """Whether the unit vectors ``points`` hold the origin in their convex
    hull: their enclosing ball's center, a convex combination of them, is
    within ``tol`` of it (max-norm).  If some combination q is, the center
    c is within 2|q|: the weighted mean 1 - 2 q.c + |c|^2 of |p - c|^2 is
    at most the squared radius, which is at most 1."""
    if points.shape[1] == 0:
        return True
    return float(np.abs(min_enclosing_ball(points).center).max()) <= tol


def distance_matrix(config: PointConfig) -> np.ndarray:
    """The n x n distances of the config's points, from their coordinate
    differences."""
    diff = config.points[:, None, :] - config.points[None, :, :]
    return np.sqrt((diff**2).sum(axis=2))


def lstsq_origin_against_hull(points: np.ndarray) -> tuple[bool, float]:
    """(Type I?, distance) for the affinely independent ``points``, by one
    ``np.linalg.lstsq`` projection q of the origin onto their affine hull
    in the basis p_a - p_0, with its barycentric weights w.  Type I when
    |q| <= ``HULL_TOL`` (max-norm) and every w >= -``HULL_TOL``; the
    distance is |q|.  A ``lstsq`` rank below len(points) - 1 raises
    ``GeometricInconsistencyError``."""
    q0 = points[0]
    basis = (points[1:] - q0).T
    sol, _, rank, _ = np.linalg.lstsq(basis, -q0, rcond=None)
    if rank < len(points) - 1:
        raise GeometricInconsistencyError(
            f"join block of {len(points)} points has affine rank {rank}"
        )
    q = q0 + basis @ sol
    weights = np.append(sol, 1.0 - sol.sum())
    inside = float(np.abs(q).max()) <= HULL_TOL and float(weights.min()) >= -HULL_TOL
    return inside, float(np.linalg.norm(q))


def lstsq_kuperberg_decompose(config: PointConfig) -> PointFactorization:
    """``geometry.kuperberg_decompose`` pair by pair: distances from point
    differences, the blocks by a depth-first search over the pairs at the
    long distance (at least halfway between sqrt(2) and b), in order of
    their least point, one product per pair of blocks for their
    orthogonality, ``lstsq_origin_against_hull`` per block and an SVD
    for the rank, with the program's tolerances."""
    cfg = get_config()
    pts = config.points
    n = pts.shape[0]
    if float(np.abs(np.linalg.norm(pts, axis=1) - 1.0).max()) > cfg.dist_tol:
        raise GeometricInconsistencyError("points are not on the unit sphere")
    dist = distance_matrix(config)
    if n > 1 and float(dist[~np.eye(n, dtype=bool)].min()) < SQRT2 - cfg.dist_tol:
        raise GeometricInconsistencyError("minimum distance below sqrt(2)")
    threshold = 0.5 * (SQRT2 + max(config.b, SQRT2 + 4 * cfg.dist_tol))
    blocks, seen = [], set()
    for start in range(n):  # depth-first, over the pairs at the long distance
        if start in seen:
            continue
        seen.add(start)
        block, stack = [], [start]
        while stack:
            v = stack.pop()
            block.append(v)
            for u in range(n):
                if u not in seen and dist[v, u] >= threshold:
                    seen.add(u)
                    stack.append(u)
        blocks.append(sorted(block))
    for bi in range(len(blocks)):
        for bj in range(bi + 1, len(blocks)):
            if float(np.abs(pts[blocks[bi]] @ pts[blocks[bj]].T).max()) > ORTH_TOL:
                raise GeometricInconsistencyError("cross-factor inner products are not zero")
    factors, flags, k = [], [], 0
    for idx, block in enumerate(blocks):
        inside, distance = lstsq_origin_against_hull(pts[block])
        factors.append((tuple(block), "I" if inside else "II"))
        k += inside
        if not inside and distance <= HULL_TOL:
            flags.append(f"factor-{idx}-origin-on-affine-hull")
    svals = np.linalg.svd(pts, compute_uv=False)
    rank = int((svals > RANK_RTOL * svals[0]).sum()) if svals.size and svals[0] else 0
    if n != rank + k:
        raise GeometricInconsistencyError(f"|S| = {n} but rank + #TypeI = {rank} + {k}")
    return PointFactorization(tuple(factors), k, tuple(flags))


def loop_distance_residual(config: PointConfig, g: Graph) -> float:
    """``PointConfig.max_distance_residual`` pair by pair: the largest
    |d_ij - target| / max(a, b, 1), target a on edges and b elsewhere, or
    inf at the first NaN."""
    d = distance_matrix(config)
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


def roots_in_window(
    f: IntPolynomial, tau1: AlgebraicReal | None
) -> Iterator[AlgebraicReal]:
    """Yield the roots of f in (1, tau1] in increasing order; no upper end
    when tau1 is None."""
    # On the squarefree part each enclosure isolates its root among all of
    # f's roots, so the next search may start at its upper end.
    f = exact_div(f, remainder_gcd(f, f.derivative())).primitive()
    bound = Fraction(1)
    while (got := smallest_root_greater_than(f, bound, [(f, 1)])) is not None:
        t = got[0]
        if tau1 is not None and sturm_compare(t, tau1) > 0:
            return
        yield t
        bound = t.hi


def _ball_at(g: Graph, t: float) -> Ball:
    """Enclosing ball of the sqrt(2)-short configuration with t = x^2/2."""
    return min_enclosing_ball(realize(g, math.sqrt(2.0 * t), SQRT2).points)


def ball_solve_phi(g: Graph, r: float) -> AlgebraicReal:
    """``geometry.solve_phi`` with float enclosing balls proposing the
    supports: the ball at the window end proposes T (its points of
    positive weight), every root t of T's tie polynomial in (1, tau1] is
    tried with ``_support_certified`` on T's ``walk_adjugate``, and
    failing all, the ball at the root whose radius is nearest r proposes
    the next T; a T proposed twice raises ``UndecidableEnclosureError``."""
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
        adjugate = walk_adjugate(g.induced(support))
        radius_poly = adjugate[1].scale(r0.denominator) + adjugate[0].scale(2 * r0.numerator)
        balls = []  # no root keeps the ball, so T is proposed again and raises
        for t in roots_in_window(radius_poly, tau1):
            t = t.refined(Fraction(1, 2**64))  # once, for every sign and the float
            if _support_certified(g, support, adjugate, t):
                return t.scaled(2)
            ball = _ball_at(g, float(t))
            balls.append(ball)
            if ball.radius >= r:
                break  # the radius grows with t: later roots are farther from r
        ball = min(balls, key=lambda b: abs(b.radius - r), default=ball)


def refined_classes(g: Graph) -> list[list[int]]:
    """Stable ordered partition from iterated neighbour-colour refinement:
    colours start as degree tuples, and each round keys a vertex by its
    colour and the sorted tuple of its neighbours' colours, until the
    number of classes stops growing.  The class order is the key order, so
    it is identical for isomorphic graphs."""
    color = {v: (g.degree(v),) for v in range(g.n)}
    while True:
        sig = {
            v: (color[v], tuple(sorted(color[w] for w in range(g.n) if g.has_edge(v, w))))
            for v in range(g.n)
        }
        classes = sorted({s for s in sig.values()})
        new = {v: (classes.index(sig[v]),) for v in range(g.n)}
        if len(set(new.values())) == len(set(color.values())):
            ordered = {}
            for v in range(g.n):
                ordered.setdefault(sig[v], []).append(v)
            return [ordered[s] for s in sorted(ordered)]
        color = new


def brute_force_key(g: Graph) -> tuple[int, int]:
    """(n, least row-major upper-triangle adjacency bitstring) over every
    vertex order that lists ``refined_classes(g)`` in order, each class in
    any order: the product of the classes' factorials orders, all tried."""
    best = None
    for parts in itertools.product(*(itertools.permutations(c) for c in refined_classes(g))):
        perm = [v for part in parts for v in part]
        key = 0
        for i, u in enumerate(perm):
            for w in perm[i + 1 :]:
                key = (key << 1) | (g.rows[u] >> w & 1)
        if best is None or key < best:
            best = key
    return (g.n, best)
