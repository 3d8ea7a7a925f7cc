"""Exact two-distance invariants of a graph.

Builds the two determinant polynomials of a graph (the bordered
squared-distance determinant C and its unbordered companion M, both in
t = b^2 with unit short distance), extracts the smallest root of C above 1
together with its multiplicity, classifies the squared circumradius of the
minimal representation exactly, and assembles the full invariant profile:

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
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .config import get_config
from .errors import CompleteGraphError
from .graphs import (
    Graph,
    complement,
    is_complete,
    is_complete_multipartite,
)
from .polynomials import (
    AlgebraicReal,
    IntPolynomial,
    det_poly_matrix,
    enclose_rational_limit,
    multiplicity_at,
    smallest_root_greater_than,
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


@functools.lru_cache(maxsize=None)
def cm_polynomials(g: Graph) -> tuple[IntPolynomial, IntPolynomial]:
    """The pair (C, M): bordered and plain squared-distance determinants
    as exact polynomials in t = b^2 (unit short distance on edges).  M is
    the first entry of the bordered matrix's adjugate column, so one
    elimination per point gives both."""
    return det_poly_matrix(bordered_matrix(g), 1)


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
def tau1_mu(g: Graph) -> tuple[Optional[AlgebraicReal], int]:
    """Smallest root of C strictly above 1 with its exact multiplicity;
    (None, 0) when every root is <= 1."""
    c, _ = cm_polynomials(g)
    got = smallest_root_greater_than(c, 1)
    if got is None:
        return None, 0
    root, mult = got
    return root.refined(get_config().tau_width), mult


@functools.lru_cache(maxsize=None)
def tau0(g: Graph) -> Optional[AlgebraicReal]:
    """Lower endpoint of the feasible window: 1/tau1 of the complement
    (None means the window extends to 0).  The complement's C is
    t^(n-1) C(1/t), so its smallest root above 1 comes from g's own C."""
    c, _ = cm_polynomials(g)
    got = smallest_root_greater_than(c.reciprocal(g.n - 1), 1)
    return None if got is None else got[0].refined(get_config().tau_width).reciprocal()


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
    r^2 = 1/2, ``geometry.solve_phi`` otherwise."""
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
    if r2.is_half:
        dim_j = dim_e
        beta = root.scaled(2)
    else:
        dim_j = n - 1
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
    cm_polynomials.cache_clear()
    tau1_mu.cache_clear()
    tau0.cache_clear()
    circumradius_invariant.cache_clear()
    profile.cache_clear()
