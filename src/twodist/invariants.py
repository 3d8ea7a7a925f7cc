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

The 1/2 test is algebraic: the limit of -M/(2C) at the root equals 1/2
exactly iff M + C vanishes there to higher order than C.  Everything else
about the limit is certified interval arithmetic over rationals.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .config import get_config
from .errors import CompleteGraphError, UndecidableEnclosureError
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
class BetaStarSquared:
    """Squared long distance of the J-spherical representation.

    ``exact`` carries the algebraic value 2*tau1 when the representation
    stays in the minimal dimension; otherwise the value comes from
    bisection and only the float enclosure [lo, hi] is available."""

    exact: Optional[AlgebraicReal]
    lo: float
    hi: float

    @property
    def value(self) -> float:
        return (self.lo + self.hi) / 2

    @property
    def beta_star(self) -> float:
        return self.value**0.5


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
    beta_star_squared: Optional[BetaStarSquared]  # None for complete graphs
    flags: tuple[str, ...] = ()


def _poly_entry(is_edge: bool) -> IntPolynomial:
    return IntPolynomial.const(1) if is_edge else IntPolynomial.x()


@functools.lru_cache(maxsize=None)
def cm_polynomials(g: Graph) -> tuple[IntPolynomial, IntPolynomial]:
    """The pair (C, M): bordered and plain squared-distance determinants
    as exact polynomials in t = b^2 (unit short distance on edges)."""
    n = g.n
    zero = IntPolynomial.zero()
    one = IntPolynomial.const(1)
    bordered = [[zero] + [one] * n]
    for i in range(n):
        row = [one]
        for j in range(n):
            row.append(zero if i == j else _poly_entry(g.has_edge(i, j)))
        bordered.append(row)
    plain = [
        [zero if i == j else _poly_entry(g.has_edge(i, j)) for j in range(n)]
        for i in range(n)
    ]
    return det_poly_matrix(bordered), det_poly_matrix(plain)


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


def tau0(g: Graph) -> Optional[AlgebraicReal]:
    """Lower endpoint of the feasible window: 1/tau1 of the complement
    (None means the window extends to 0)."""
    root, _ = tau1_mu(complement(g))
    return None if root is None else root.reciprocal()


@functools.lru_cache(maxsize=None)
def circumradius_invariant(g: Graph) -> RSquared:
    """Exact classification of the squared circumradius.

    With mu_C, mu_M the multiplicities of tau1 in C and M: the limit of
    -M/(2C) is infinite iff tau1 is infinite or mu_M < mu_C.  It equals
    1/2 exactly iff M + C vanishes at tau1 to order > mu_C.  Otherwise the
    limit is enclosed by evaluating the mu_C-th derivatives on a refined
    interval until the enclosure is narrow and excludes 1/2."""
    root, mu = tau1_mu(g)
    if root is None:
        return RSquared.infinite()
    c, m = cm_polynomials(g)
    if multiplicity_at(m, root) < mu:
        return RSquared.infinite()
    if multiplicity_at(m + c, root) > mu:
        return RSquared.half()
    num, den = m, c
    for _ in range(mu):
        num = num.derivative()
        den = den.derivative()
    cfg = get_config()
    lo, hi, _ = enclose_rational_limit(
        -num, den.scale(2), root, cfg.r2_width, exclude=(Fraction(1, 2),)
    )
    return RSquared.finite(lo, hi)


@functools.lru_cache(maxsize=None)
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
    obtained: exactly when r^2 = 1/2, by ``geometry.solve_phi`` otherwise."""
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
        exact = root.scaled(2).refined(get_config().tau_width)
        beta = BetaStarSquared(exact, float(exact.lo), float(exact.hi))
    else:
        dim_j = n - 1
        from . import geometry  # deferred: geometry depends on this module

        x = geometry.solve_phi(g, 1.0)
        err = 4 * get_config().bisect_rtol * x + 1e-15
        beta = BetaStarSquared(None, (x - err) ** 2, (x + err) ** 2)
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
    root, mu = tau1_mu(g)
    r2 = circumradius_invariant(g)
    if r2.kind == INFINITE:
        return n - 1
    if r2.kind == HALF:
        return n - mu - 1
    # Exact tie test: the limit equals r0 = p/q iff q*M + 2p*C vanishes at
    # tau1 to order > mu_C (same mechanism as the 1/2 test).
    c, m = cm_polynomials(g)
    tie = m.scale(r0.denominator) + c.scale(2 * r0.numerator)
    if not tie.is_zero and multiplicity_at(tie, root) > mu:
        return n - mu - 1
    num, den = m, c
    for _ in range(mu):
        num = num.derivative()
        den = den.derivative()
    lo, hi, _ = enclose_rational_limit(
        -num, den.scale(2), root, get_config().r2_width, exclude=(r0,)
    )
    if hi < r0:
        return n - mu - 1
    if lo > r0:
        return n - 1
    raise UndecidableEnclosureError(
        f"circumradius enclosure [{lo}, {hi}] straddles {r0}"
    )


def clear_caches() -> None:
    """Drop memoized invariants (use after changing tolerances)."""
    cm_polynomials.cache_clear()
    tau1_mu.cache_clear()
    circumradius_invariant.cache_clear()
    feasible_interval.cache_clear()
    profile.cache_clear()
