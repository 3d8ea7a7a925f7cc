"""Exact two-distance invariants of a graph.

Builds the two determinant polynomials of a graph (the bordered
squared-distance determinant C and its unbordered companion M, both in
t = b^2 with unit short distance) from the characteristic and walk
polynomials of its adjacency matrix, extracts the ends of the feasible
window, the smallest root tau1 of C above 1 together with its multiplicity
and the largest root tau0 of C below 1 (both proposed by one float
spectrum of the adjacency matrix compressed to 1^perp, and certified by
Descartes counts on one squarefree split of C), classifies the squared
circumradius of the minimal representation exactly, and assembles the
full invariant profile:

    dim_e = n - mu - 1
    dim_s = dim_e if the squared circumradius is finite, else n - 1
    dim_j = dim_e if the squared circumradius equals 1/2 exactly, else n - 1
            (undefined for complete graphs)

The squared circumradius is the limit of -M/(2C) at the root.  Whether it
equals a rational r0 = p/q is algebraic: it does iff the tie polynomial
q*M + 2p*C vanishes there to higher order than C.  The 1/2 test is the case
r0 = 1/2; ``dim_s_bounded`` asks about any r0, and ``geometry.solve_phi``
finds beta* among the roots of a support's tie polynomial.  Otherwise the
limit is enclosed by certified interval arithmetic over rationals, away
from r0.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .config import get_config
from .errors import CompleteGraphError
from .graphs import (
    Graph,
    complement,
    complement_components,
    is_complete,
    is_complete_multipartite,
)
from .polynomials import (
    AlgebraicReal,
    IntPolynomial,
    descartes_count,
    enclose_rational_limit,
    multiplicity_at,
    smallest_root_greater_than,
    squarefree_decomposition,
)

INFINITE = "infinite"
FINITE = "finite"
HALF = "half"


@dataclass(frozen=True)
class RSquared:
    """Classification of the squared circumradius of the minimal
    representation: exactly 1/2, a finite rational enclosure, or infinite
    (the minimal representation is not spherical)."""

    kind: str
    lo: Optional[Fraction] = None
    hi: Optional[Fraction] = None

    @staticmethod
    def infinite() -> "RSquared":
        return RSquared(INFINITE)

    @staticmethod
    def half() -> "RSquared":
        return RSquared(HALF, Fraction(1, 2), Fraction(1, 2))

    @staticmethod
    def finite(lo: Fraction, hi: Fraction) -> "RSquared":
        return RSquared(FINITE, lo, hi)

    @property
    def is_finite(self) -> bool:
        return self.kind != INFINITE

    @property
    def is_half(self) -> bool:
        return self.kind == HALF


@dataclass(frozen=True)
class TwoDistanceProfile:
    n: int
    tau1: Optional[AlgebraicReal]  # None means +infinity
    mu: int
    tau0: Optional[AlgebraicReal]  # None means 0
    dim_e: int
    dim_s: int
    dim_j: Optional[int]  # None for complete graphs
    r_squared: RSquared
    beta_star_squared: Optional[AlgebraicReal]  # None for complete graphs
    flags: tuple[str, ...] = ()


def _newton(power_sums: list[int]) -> list[int]:
    """Coefficients c_0 = 1, c_1, ..., c_n of det(xI - A) = sum c_i x^(n-i)
    from the power sums s_k = tr A^k (``power_sums[k]``, k = 0..n), by
    Newton's identities k c_k = -sum_{i=1..k} c_{k-i} s_i.  Each division
    is exact for an integer matrix; a remainder raises ``ValueError``."""
    c = [1]
    for k in range(1, len(power_sums)):
        q, r = divmod(-sum(c[k - i] * power_sums[i] for i in range(1, k + 1)), k)
        if r:
            raise ValueError(f"Newton's identity leaves remainder {r} / {k} at c_{k}")
        c.append(q)
    return c


def _slots(x: int, n: int, width: int) -> list[int]:
    """The n entries packed in x, entry i in bits [i*width, (i+1)*width)."""
    mask = (1 << width) - 1
    return [(x >> (width * i)) & mask for i in range(n)]


@functools.lru_cache(maxsize=None)
def _walk_data(g: Graph) -> tuple[tuple[int, ...], int, tuple[int, ...]]:
    """(c, w, v) for the adjacency matrix A of g: the coefficients of
    det(xI - A) (``_newton`` on the traces of A^k, k <= n), and the walk
    vectors v_j = A^j 1, j < n, each packed into one integer with slots
    of w bits (``_slots``).

    Row i of A^k is packed the same way.  Every entry of A^k and of A^k 1
    counts walks, so it is at most D^k (D the largest degree) and
    w = bits(D^n) + 1 keeps the slots apart.  Row i of A^(k+1) is the sum
    of the packed rows of A^k at i's neighbours, and the sum of all packed
    rows packs 1^T A^k, which is (A^k 1)^T since A is symmetric."""
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
    return tuple(_newton(traces)), width, tuple(walks)


def _adjugate_coeffs(c: Sequence[int], walk: Sequence[int]) -> list[int]:
    """Coefficients of x^(n-1-k), k < n, of y^T adj(xI - A) z given
    walk[j] = y^T A^j z: adj(xI - A) = sum_k x^(n-1-k) sum_{i<=k} c_i A^(k-i)."""
    return [sum(c[i] * walk[k - i] for i in range(k + 1)) for k in range(len(walk))]


def _in_t(d: Sequence[int], sign: int) -> IntPolynomial:
    """sign * (1-t)^m f(t/(1-t)) for f(x) = sum_k d_k x^(m-k), m = len(d)-1,
    i.e. sign * sum_k d_k t^(m-k) (1-t)^k, by Horner in (1-t)."""
    m = len(d) - 1
    out = [0] * (m + 1)
    out[0] = d[m]
    for k in range(m - 1, -1, -1):
        for i in range(m - k, 0, -1):  # times (1 - t)
            out[i] -= out[i - 1]
        out[m - k] += d[k]
    return IntPolynomial.from_coeffs([sign * v for v in out])


@functools.lru_cache(maxsize=None)
def cm_polynomials(g: Graph) -> tuple[IntPolynomial, IntPolynomial]:
    """The pair (C, M): bordered and plain squared-distance determinants
    as exact polynomials in t = b^2 (unit short distance on edges), i.e.
    det B and adj(B)_00 for the bordered matrix B = [[0, 1^T], [1, D]],
    D being 1 on edges, t on the other pairs and 0 on the diagonal.

    They come from the characteristic polynomial P(x) = det(xI - A) and
    the walk polynomial W(x) = 1^T adj(xI - A) 1 of the adjacency matrix A
    (``_walk_data``).  The distance matrix is (1-t)(A - xI) + tJ with
    x = t/(1-t); the border removes tJ, and the matrix determinant lemma
    det(xI - A - sJ) = P(x) - s W(x) gives, with H_k(f) = (1-t)^k f(x),
    C = (-1)^n H_(n-1)(W) and M = (-1)^n [H_n(P) - t H_(n-1)(W)]."""
    c, width, walks = _walk_data(g)
    sign = (-1) ** g.n
    det = _in_t(_adjugate_coeffs(c, [sum(_slots(v, g.n, width)) for v in walks]), sign)
    return det, _in_t(c, sign) - IntPolynomial.x() * det


@functools.lru_cache(maxsize=None)
def bordered_adjugate(g: Graph) -> tuple[IntPolynomial, ...]:
    """``(C, M, L_1, ..., L_n)``: det B and adj(B) e_0 for the bordered
    matrix B of ``cm_polynomials``, equal to ``det_poly_matrix(B, n + 1)``.
    By Cramer's rule L_v / C are the barycentric weights of the
    circumcenter.  L_v = (-1)^n H_(n-1)(u_v) with u(x) = adj(xI - A) 1,
    from the cached walk data, and row 0 of B adj(B) = det(B) I gives
    C = sum_v L_v (W = 1^T u); M follows as in ``cm_polynomials``."""
    c, width, walks = _walk_data(g)
    sign = (-1) ** g.n
    entries = [_slots(v, g.n, width) for v in walks]
    weights = [
        _in_t(_adjugate_coeffs(c, [e[u] for e in entries]), sign) for u in range(g.n)
    ]
    det = sum(weights, IntPolynomial.zero())
    return (det, _in_t(c, sign) - IntPolynomial.x() * det, *weights)


def tie_polynomial(g: Graph, r0: Fraction) -> IntPolynomial:
    """q*M + 2p*C for r0 = p/q: its roots are where -M/(2C), the squared
    circumradius at unit short distance, equals r0 or C and M both vanish."""
    c, m = cm_polynomials(g)
    return m.scale(r0.denominator) + c.scale(2 * r0.numerator)


def _limit_against(g: Graph, r0: Fraction) -> Optional[tuple[Fraction, Fraction]]:
    """None when the finite squared circumradius equals r0 exactly, else a
    certified enclosure (lo, hi) of it that excludes r0.

    Equal iff the tie polynomial vanishes at tau1 to order > mu_C.
    Otherwise the limit of -M/(2C) is enclosed through the mu_C-th
    derivatives on a refined interval."""
    root, mu = tau1_mu(g)
    tie = tie_polynomial(g, r0)
    if tie.is_zero or multiplicity_at(tie, root) > mu:
        return None
    c, m = cm_polynomials(g)
    for _ in range(mu):
        m, c = m.derivative(), c.derivative()
    return enclose_rational_limit(-m, c.scale(2), root, get_config().r2_width, r0)


@functools.lru_cache(maxsize=None)
def _spectrum(g: Graph) -> tuple[float, float]:
    """The smallest and largest eigenvalue of B = Q^T A Q, the adjacency
    matrix compressed to 1^perp (Q an orthonormal basis of it), in floats;
    (0.0, 0.0) for one vertex, where B is empty.  One ``eigvalsh`` of
    PAP - J, P = I - J/n: it has B's spectrum plus -n from the direction 1,
    below every eigenvalue of B (those are at least -(n - 1))."""
    n = g.n
    a = (np.array(g.rows)[:, None] >> np.arange(n) & 1).astype(float)
    r = a.sum(axis=0) / n
    a -= r
    a -= r[:, None]
    a += r.sum() / n - 1
    ev = np.linalg.eigvalsh(a)
    return (float(ev[1]), float(ev[-1])) if n > 1 else (0.0, 0.0)


def _spectrum_end(g: Graph, largest: bool) -> float:
    """The largest (or smallest) eigenvalue of B (``_spectrum``).  The
    roots of C are x/(1 + x) over the eigenvalues x != -1 of B, since the
    walk polynomial is n det(xI - B)."""
    return _spectrum(g)[largest]


def _power_of_two_at_most(x: Fraction) -> Fraction:
    """The largest power of two <= x, for x > 0."""
    p = Fraction(2) ** (x.numerator.bit_length() - x.denominator.bit_length())
    return p if p <= x else p / 2


def _certified_root(
    factors: list[tuple[IntPolynomial, int]], t: float
) -> Optional[tuple[AlgebraicReal, int]]:
    """The root nearest 1 on t's side (the smallest above 1, or the largest
    in (0, 1)) of the product of ``factors`` (a squarefree split) and its
    multiplicity, refined to ``tau_width``, when a proposal t near it
    certifies; None when the certificate fails.  One certificate serves
    tau1, tau0 and ``geometry.solve_phi``'s beta*^2.

    The interval [lo, hi] is centred on t with half-width the larger of
    8 ulp(t) and the largest power of two <= tau_width / 2: it has the
    requested width unless 8 ulp(t) is the larger, and its ends are exact
    dyadic rationals no finer than t.  It must lie in (1, inf) or in
    (0, 1).  f is the one factor that changes sign across it, so f has a
    root in (lo, hi).  A Descartes count of 1 for f and 0 for every other
    factor on (1, hi), or on (lo, 1) below 1, proves that root is the only
    root between 1 and the interval.  The counts are exact proofs whether
    or not the factors are real-rooted, so the tie polynomials of beta*^2
    certify alike."""
    width = get_config().tau_width
    half = max(_power_of_two_at_most(width / 2), Fraction(8 * math.ulp(t)))
    lo, hi = Fraction(t) - half, Fraction(t) + half
    if lo <= 0 or lo <= 1 <= hi:
        return None
    owners = [
        (f, mult)
        for f, mult in factors
        if f.homogeneous(lo.numerator, lo.denominator)
        * f.homogeneous(hi.numerator, hi.denominator)
        < 0
    ]
    if len(owners) != 1:
        return None
    f, mult = owners[0]
    span = (1, hi) if lo > 1 else (lo, 1)
    if any(descartes_count(h, *span) != int(h is f) for h, _ in factors):
        return None
    return AlgebraicReal(f, lo, hi).refined(width), mult


def _root_above_one(
    p: IntPolynomial,
    proposal: Optional[float],
    factors: Optional[list[tuple[IntPolynomial, int]]] = None,
) -> Optional[tuple[AlgebraicReal, int]]:
    """``smallest_root_greater_than(p, 1)`` with the root refined to
    ``tau_width``, for a polynomial p whose roots the spectrum proposes:
    ``proposal`` is a float near the smallest root above 1, or None when
    there is none, and ``factors`` p's squarefree split (made here when not
    given).  The proposal is certified (``_certified_root``); otherwise
    sign variations of f(1 + x) of 0 on every factor f prove there is no
    root above 1, and failing both, Descartes bisection
    (``smallest_root_greater_than``) decides."""
    if factors is None:
        factors = squarefree_decomposition(p)
    if proposal is not None:
        got = _certified_root(factors, proposal)
        if got is not None:
            return got
    if all(descartes_count(f, 1) == 0 for f, _ in factors):
        return None
    got = smallest_root_greater_than(p, 1)
    return None if got is None else (got[0].refined(get_config().tau_width), got[1])


def _root_below_one(
    p: IntPolynomial,
    proposal: Optional[float],
    factors: list[tuple[IntPolynomial, int]],
) -> Optional[AlgebraicReal]:
    """The largest root of p in (0, 1), refined to ``tau_width``, or None:
    the mirror of ``_root_above_one`` on p's squarefree split ``factors``.
    A count of 0 on (0, 1) for every factor proves there is none; failing
    the proposal and that count, the root is 1/s for the smallest root
    s > 1 of the reciprocal polynomial t^deg p(1/t), found by Descartes
    bisection."""
    if proposal is not None:
        got = _certified_root(factors, proposal)
        if got is not None:
            return got[0]
    if all(descartes_count(f, 0, 1) == 0 for f, _ in factors):
        return None
    got = smallest_root_greater_than(p.reciprocal(p.degree), 1)
    return None if got is None else got[0].refined(get_config().tau_width).reciprocal()


@functools.lru_cache(maxsize=None)
def _window(
    g: Graph,
) -> tuple[Optional[tuple[AlgebraicReal, int]], Optional[AlgebraicReal]]:
    """The ends of the feasible window from one spectrum and one
    squarefree split of C: (tau1 with its multiplicity, or None; tau0, or
    None).  C's roots are x/(1 + x) over the eigenvalues x of B, and
    x/(1 + x) increases in x on each side of -1: the smallest eigenvalue,
    when below -1, proposes tau1, the smallest root above 1; the largest,
    when positive, proposes tau0, the largest root in (0, 1)."""
    c, _ = cm_polynomials(g)
    factors = squarefree_decomposition(c)
    x = _spectrum_end(g, largest=False)
    above = _root_above_one(c, x / (1 + x) if x < -1 else None, factors)
    x = _spectrum_end(g, largest=True)
    return above, _root_below_one(c, x / (1 + x) if x > 0 else None, factors)


@functools.lru_cache(maxsize=None)
def tau1_mu(g: Graph) -> tuple[Optional[AlgebraicReal], int]:
    """Smallest root of C strictly above 1 with its exact multiplicity;
    (None, 0) when every root is <= 1.  Read from ``_window``."""
    got = _window(g)[0]
    return (None, 0) if got is None else got


def tau0(g: Graph) -> Optional[AlgebraicReal]:
    """Lower endpoint of the feasible window (None means the window
    extends to 0): the largest root of C in (0, 1), which is 1/tau1 of the
    complement, since the complement's C is t^(n-1) C(1/t).  Read from
    ``_window``, which certifies it on C's own squarefree split."""
    return _window(g)[1]


@functools.lru_cache(maxsize=None)
def circumradius_invariant(g: Graph) -> RSquared:
    """Exact classification of the squared circumradius.

    With mu_C, mu_M the multiplicities of tau1 in C and M: the limit of
    -M/(2C) is infinite iff tau1 is infinite or mu_M < mu_C.  Otherwise
    it is exactly 1/2 or enclosed away from 1/2 (``_limit_against``)."""
    root, mu = tau1_mu(g)
    if root is None:
        return RSquared.infinite()
    _, m = cm_polynomials(g)
    if multiplicity_at(m, root) < mu:
        return RSquared.infinite()
    got = _limit_against(g, Fraction(1, 2))
    return RSquared.half() if got is None else RSquared.finite(*got)


def feasible_interval(g: Graph) -> tuple[float, float]:
    """Float window [t_lo, t_hi] of realizable squared distance ratios."""
    t1, _ = tau1_mu(g)
    t0 = tau0(g)
    lo = 0.0 if t0 is None else float(t0)
    hi = float("inf") if t1 is None else float(t1)
    return lo, hi


@functools.lru_cache(maxsize=None)
def profile(g: Graph) -> TwoDistanceProfile:
    """Full invariant record of a graph, and the one place beta* is
    obtained, as the exact algebraic number beta*^2: 2*tau1 when
    r^2 = 1/2; else, for a join, the least beta*^2 of its non-complete
    factors (the complement's components, the join structure that
    ``joins`` orders by), compared exactly; else ``geometry.solve_phi``."""
    n = g.n
    root, mu = tau1_mu(g)
    t0 = tau0(g)
    dim_e = n - mu - 1
    r2 = circumradius_invariant(g)
    dim_s = dim_e if r2.is_finite else n - 1
    flags: list[str] = []
    if is_complete_multipartite(g) or is_complete_multipartite(complement(g)):
        flags.append("tau0-advisory")
    if is_complete(g):
        return TwoDistanceProfile(
            n, root, mu, t0, dim_e, dim_s, None, r2, None, tuple(flags)
        )
    dim_j = dim_e if r2.is_half else n - 1
    if r2.is_half:
        beta = root.scaled(2)
    elif len(factors := complement_components(g)) > 1:
        betas = (profile(h).beta_star_squared for h in factors if not is_complete(h))
        beta = min(betas, key=functools.cmp_to_key(AlgebraicReal.compare))
    else:
        from . import geometry  # deferred: geometry depends on this module

        beta = geometry.solve_phi(g, 1.0)
    beta = beta.refined(get_config().tau_width)
    return TwoDistanceProfile(
        n, root, mu, t0, dim_e, dim_s, dim_j, r2, beta, tuple(flags)
    )


def dim_s_bounded(g: Graph, r0_squared: Fraction | int | float) -> int:
    """Smallest dimension of a spherical representation whose radius is at
    most sqrt(r0_squared): n - mu - 1 when the squared circumradius is
    <= r0_squared, else n - 1.  Decided exactly."""
    if is_complete(g):
        raise CompleteGraphError("undefined for complete graphs")
    r0 = Fraction(r0_squared).limit_denominator(10**15) if isinstance(
        r0_squared, float
    ) else Fraction(r0_squared)
    if r0 < Fraction(1, 2):
        raise ValueError("r0_squared must be at least 1/2")
    n = g.n
    _, mu = tau1_mu(g)
    r2 = circumradius_invariant(g)
    if r2.kind == INFINITE:
        return n - 1
    if r2.kind == HALF:
        return n - mu - 1
    got = _limit_against(g, r0)
    return n - mu - 1 if got is None or got[1] < r0 else n - 1


def clear_caches() -> None:
    """Drop memoized invariants (use after changing tolerances)."""
    _walk_data.cache_clear()
    cm_polynomials.cache_clear()
    bordered_adjugate.cache_clear()
    _spectrum.cache_clear()
    _window.cache_clear()
    tau1_mu.cache_clear()
    circumradius_invariant.cache_clear()
    profile.cache_clear()
