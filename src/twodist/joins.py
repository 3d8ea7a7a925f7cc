"""Join decomposition of graphs and closed-form representation numbers.

A graph is join-decomposable exactly when its complement is disconnected;
the factors are the induced subgraphs on the complement's components.
Ordering the factors by their unit-sphere long distance (complete factors
count as infinite: they admit no such representation) gives the closed
form for the representation numbers of the join: the factors tied at the
minimum contribute their own J-spherical dimension, every other factor
contributes its vertex count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .config import get_config
from .graphs import Graph, MultipartiteSignature, complement_components, is_complete
from .invariants import circumradius_invariant, profile, tau1_mu
from . import geometry


@dataclass(frozen=True)
class JoinFactorization:
    """Ordered join factors with their long distances.

    ``beta_stars`` uses ``math.inf`` for complete factors.  Factors are
    sorted ascending by long distance, the minimal tie group first;
    ``k`` is the size of that group (0 when every factor is complete)."""

    factors: tuple[Graph, ...]
    beta_stars: tuple[float, ...]
    k: int


def join_decompose(g: Graph) -> JoinFactorization:
    """Factor g into its join-indecomposable parts and group them by long
    distance.  Complete factors (necessarily single vertices here) sort
    last with an infinite marker."""
    comps = complement_components(g)
    annotated = [
        (h, math.inf if is_complete(h) else geometry.beta_star_numeric(h))
        for h in comps
    ]
    annotated.sort(key=lambda pair: pair[1])
    tie = get_config().beta_tie_tol
    finite = [b for _, b in annotated if math.isfinite(b)]
    k = sum(1 for b in finite if b <= finite[0] + tie) if finite else 0
    return JoinFactorization(
        tuple(h for h, _ in annotated),
        tuple(b for _, b in annotated),
        k,
    )


def dims_via_join(g: Graph) -> tuple[int | None, int, int]:
    """(dim_j, dim_s, dim_e) computed through the join decomposition.

    For two or more factors whose minimal long-distance group has k >= 2
    members, the unit-sphere representation witnesses everything:
    dim_j = sum of the minimal group's J-spherical dimensions plus the
    vertex counts of the rest (= n - k), dim_s = dim_j, and
    dim_e = min(dim_j, n - 2).

    With a single minimal factor the join structure only determines
    dim_j = n - 1; the minimal factor may be realized at its own window
    endpoint with degenerate rank, which changes dim_e and can make the
    minimal representation spherical after all.  The wheel (5-cycle plus
    hub) realizes six icosahedron vertices: dim_j = 5 while mu = 2 and the
    rank-3 representation is spherical, so dim_e = dim_s = 3.  Those two
    numbers therefore come from the root multiplicity and the
    finite-circumradius test of the joined graph itself.

    A single factor, or a complete graph, falls back to the direct
    invariant pipeline."""
    fz = join_decompose(g)
    if len(fz.factors) == 1 or fz.k == 0:
        p = profile(g)
        return p.dim_j, p.dim_s, p.dim_e
    dim_j = sum(profile(h).dim_j for h in fz.factors[: fz.k])
    dim_j += sum(h.n for h in fz.factors[fz.k :])
    if fz.k >= 2:
        return dim_j, dim_j, min(dim_j, g.n - 2)
    _, mu = tau1_mu(g)
    dim_e = g.n - mu - 1
    dim_s = dim_e if circumradius_invariant(g).is_finite else g.n - 1
    return dim_j, dim_s, dim_e


def multipartite_dims(
    sig: MultipartiteSignature,
) -> tuple[int, int, int | None]:
    """(dim_e, dim_s, dim_j) of the complete multipartite graph with the
    given part sizes, via the closed form: with k parts of maximal size,
    dim_s = dim_j = n - k and dim_e = min(n - k, n - 2).

    The all-ones signature is the complete graph; there the closed form
    does not apply and the complete-graph conventions are returned
    (dim_e = dim_s = n - 1, dim_j undefined)."""
    if len(sig) < 2:
        raise ValueError("need at least two parts")
    n = sig.total
    if sig.parts[0] == 1:
        return n - 1, n - 1, None
    k = sum(1 for p in sig.parts if p == sig.parts[0])
    d = n - k
    return min(d, n - 2), d, d
