"""Exact two-distance invariants of a graph.

Builds the two determinant polynomials of a graph (the bordered
squared-distance determinant C and its unbordered companion M, both in
t = b^2 with unit short distance) from the characteristic and walk
polynomials of its adjacency matrix A, extracts the ends of the feasible
window, classifies the squared circumradius of the minimal representation
exactly, and assembles the full invariant profile:

    dim_e = n - mu - 1
    dim_s = dim_e if the squared circumradius is finite, else n - 1
    dim_j = dim_e if the squared circumradius equals 1/2 exactly, else n - 1
            (undefined for complete graphs)

A join's C and M come from its factors' by the paper's join formula
(``cm_polynomials``), and its factors are ranked by beta*^2 once, exactly
(``join_decompose``).  So only a graph whose complement is connected needs
the traces tr A^k and the walk sums 1^T A^k 1, k <= n, as exact integers.
``_walk_data`` computes them with one float64 matrix product per power
whose entries stay exact integers: directly when n D^n <= 2^53 (D the
largest degree), else modulo word-size primes, all in the same product,
lifted by the Chinese remainder theorem.  A graph too large for any such
set of primes raises ``SizeLimitError``.

tau1 (C's least root above 1, with its multiplicity mu), tau0, ``t_star``
and the root walk ``_roots_up_to`` take one route, ``_least_root_above``;
tau0, C's largest root below 1, is read from C's reciprocal polynomial,
the complement's C.

The squared circumradius is the limit of -M/(2C) at tau1.  At a rational
tau1 it is an exact rational, compared with r0 directly.  At an irrational
one it equals a rational r0 = p/q iff the tie polynomial q*M + 2p*C
vanishes there to higher order than C, and is otherwise enclosed away from
r0 by certified interval arithmetic over rationals.  The 1/2 test is the
case r0 = 1/2; ``dim_s_bounded`` asks about any r0.  The r0 = 1/2 tie
polynomial of the whole graph is also the Gram determinant of the
J-spherical configuration, so ``t_star`` reads beta*^2/2 as its least
root above 1, proposed by the complement's Perron root.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Sequence

import numpy as np

from .config import get_config
from .errors import CompleteGraphError, SizeLimitError
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
    RationalLike,
    descartes_count,
    enclose_rational_limit,
    exact_div,
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
    representation: exactly 1/2, a finite rational enclosure (lo == hi
    when the value is exact), or infinite (the minimal representation is
    not spherical)."""

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
    graph: Graph
    n: int
    tau1: Optional[AlgebraicReal]  # None means +infinity
    mu: int
    dim_e: int
    dim_s: int
    dim_j: Optional[int]  # None for complete graphs
    r_squared: RSquared
    beta_star_squared: Optional[AlgebraicReal]  # None for complete graphs

    @functools.cached_property
    def tau0(self) -> Optional[AlgebraicReal]:
        """The window's lower end (None means 0), certified on first access."""
        return tau0(self.graph)

    @functools.cached_property
    def flags(self) -> tuple[str, ...]:
        """("tau0-advisory",) when g or its complement is complete multipartite."""
        g = self.graph
        advisory = is_complete_multipartite(g) or is_complete_multipartite(complement(g))
        return ("tau0-advisory",) if advisory else ()


def _newton(power_sums: list[int]) -> list[int]:
    """Coefficients c_0 = 1, c_1, ..., c_n of det(xI - A) = sum c_i x^(n-i)
    from the power sums s_k = tr A^k (``power_sums[k]``, k = 0..n), by
    Newton's identities k c_k = -sum_{i=1..k} c_{k-i} s_i.  Each division
    is exact for an integer matrix; a remainder raises ``ValueError``."""
    c = [1]
    for k in range(1, len(power_sums)):
        q, r = divmod(-sum(map(operator.mul, c[::-1], power_sums[1:])), k)
        if r:
            raise ValueError(f"Newton's identity leaves remainder {r} / {k} at c_{k}")
        c.append(q)
    return c


# Every integer of magnitude at most 2^53 is a float64, and so is every sum
# of such integers whose terms' magnitudes add up to at most 2^53.
_EXACT = 1 << 53
# Floats of the powers of A that ``_walk_data`` holds at once (512 KB), but
# never fewer than two powers.
_CHUNK = 1 << 16


def _is_prime(q: int) -> bool:
    """Miller-Rabin for odd 3 <= q < 2^32 with the bases 2, 7 and 61, which
    no composite below 4,759,123,141 passes (Jaeschke 1993): exact here."""
    s = ((q - 1) & (1 - q)).bit_length() - 1  # q - 1 = 2^s o, o odd
    for a in (2, 7, 61):
        x = pow(a, (q - 1) >> s, q)
        if a % q == 0 or x in (1, q - 1):
            continue
        for _ in range(s - 1):
            x = x * x % q
            if x == q - 1:
                break
        else:
            return False
    return True


@functools.lru_cache(maxsize=None)
def _moduli(n: int, d: int) -> tuple[tuple[int, ...], int, tuple[int, ...]]:
    """(moduli, their product m, CRT basis) for ``_walk_data`` on n vertices
    of largest degree d.  No moduli when n d^n <= 2^53.  Else the fewest
    largest odd primes p < 2^32 with n^2 d p <= 2^53 whose product m exceeds
    n d^n, and basis[i] = 1 mod moduli[i], 0 mod the others.  Raises
    ``SizeLimitError`` when the primes below that cap run out."""
    bound = n * d**n
    moduli: list[int] = []
    m = 1
    if bound > _EXACT:
        cap = min((1 << 32) - 1, _EXACT // (n * n * d))
        q = cap - 1 + cap % 2  # odd
        while m <= bound:
            while q >= 3 and not _is_prime(q):
                q -= 2
            if q < 3:
                raise SizeLimitError(f"n={n}: too few primes for exact walk counts")
            moduli.append(q)
            m *= q
            q -= 2
    basis = tuple(m // p * pow(m // p, -1, p) for p in moduli)
    return tuple(moduli), m, basis


def _lift(values: np.ndarray, moduli: tuple[int, ...], m: int, basis: tuple[int, ...]) -> list[int]:
    """Row i of values, exact integers congruent to x_i modulo each of the
    moduli, lifted to the x_i in [0, m) by the Chinese remainder theorem;
    without moduli, the row's one entry is x_i itself."""
    if not moduli:
        return values.reshape(-1).astype(np.int64).tolist()
    return [sum(map(operator.mul, row, basis)) % m for row in values.astype(np.int64).tolist()]


@functools.lru_cache(maxsize=None)
def _walk_data(g: Graph) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(c, w) for the adjacency matrix A of g: the coefficients c of
    det(xI - A) (``_newton`` on the traces of A^k, k <= n) and the walk
    sums w_j = 1^T A^j 1, j < n, from one float64 ``np.matmul`` per power.

    Exactness.  Every entry of A^k counts walks, so it is at most D^k (D
    the largest degree), and tr A^k and 1^T A^k 1 are at most n D^k.  When
    n D^n <= 2^53 (every graph with n <= 13) floats hold all of these
    exactly, and the pass yields the integers themselves.  Else
    P_1 holds one copy of A per modulus p, side by side (A^0 = I needs no
    product), and P_k = A P_(k-1) is one matmul for all of them.  Let E
    bound the magnitude of P's entries, 1 at first.  Since A is 0/1, each
    entry of A P is a sum of at most D entries of P, so its magnitude and
    its partial sums' are at most D E, and the product is exact while
    D E <= L = 2^53 / n^2.  When the next product could pass L, each entry
    x is reduced modulo its block's p to x - p rint(x fl(1/p)): the float
    quotient is within 3 |x| 2^-53 / p <= 3 / (p n^2) of x/p, so the result
    is congruent to x with magnitude at most p/2 + 3/n^2, hence at most
    (p + 1)/2, and every step is exact.  (``np.fmod`` is exact too, but
    costs ~65 ns an entry against ~2 ns for this on a 2-core x86-64 host.)
    The primes satisfy n^2 D p <= 2^53, so D (p + 1)/2 <= L and E <= L
    always: the traces and the walk sums of a block, sums of at most n^2
    entries, stay within 2^53.  The moduli's product m exceeds n D^n, so
    ``_lift`` recovers each nonnegative count exactly.  The powers are
    read in chunks of ``_CHUNK`` floats, so at most max(2, _CHUNK / (n^2 r))
    powers of n^2 r floats are held at once, r the number of moduli."""
    n, d = g.n, max(g.degrees())
    moduli, m, basis = _moduli(n, d)  # before any n x n array
    a = g.adjacency().astype(np.float64)
    r = max(len(moduli), 1)
    if moduli:
        p = np.repeat(np.array(moduli, dtype=np.float64), n)
        inv = 1.0 / p
        top, limit = (max(moduli) + 1) // 2, _EXACT // (n * n)
    traces = np.full((n + 1, r), float(n))  # row 0: tr I = 1^T I 1 = n
    walks = traces.copy()
    stack = np.empty((min(max(_CHUNK // (n * n * r), 2), n), n, n * r))
    stack[0].reshape(n, r, n)[...] = a[:, None, :]
    bound, k = 1, 1  # stack[0] holds A^k
    while True:
        j = 0
        while j + 1 < len(stack) and k + j < n:
            power = np.matmul(a, stack[j], out=stack[j + 1])
            bound *= d
            if moduli and bound * d > limit:  # reduce before the next product
                scratch = power * inv
                np.rint(scratch, out=scratch)
                scratch *= p
                power -= scratch
                bound = top
            j += 1
        blocks = stack[: j + 1].reshape(j + 1, n, r, n)
        blocks.trace(axis1=1, axis2=3, out=traces[k : k + j + 1])
        blocks.sum(axis=(1, 3), out=walks[k : k + j + 1])
        k += j
        if k == n:
            break
        stack[0] = stack[j]
    c = _newton(_lift(traces, moduli, m, basis))
    return tuple(c), tuple(_lift(walks[:n], moduli, m, basis))


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
def join_factors(g: Graph) -> tuple[Graph, ...]:
    """g's join factors, the induced subgraphs on its complement's
    components (``complement_components``); (g,) when the complement is
    connected.  Found once per graph for ``cm_polynomials``,
    ``beta_star_squared`` and ``join_decompose``."""
    return tuple(complement_components(g))


@functools.lru_cache(maxsize=None)
def cm_polynomials(g: Graph) -> tuple[IntPolynomial, IntPolynomial]:
    """The pair (C, M): bordered and plain squared-distance determinants
    as exact polynomials in t = b^2 (unit short distance on edges), i.e.
    det B and adj(B)_00 for the bordered matrix B = [[0, 1^T], [1, D]],
    D being 1 on edges, t on the other pairs and 0 on the diagonal.

    A join (complement disconnected) takes the paper's join formula over
    its factors (``join_factors``), with e_i = C_i + M_i:
    C = sum_i C_i prod_(j != i) e_j and M = prod_j e_j - C, folded
    pairwise as (C, E) <- (C e_i + E C_i, E e_i).  The factors are
    co-connected, so the recursion is one level deep, and a complete graph
    is a join of single vertices.

    Any other graph's C and M come from the characteristic polynomial
    P(x) = det(xI - A) and the walk polynomial W(x) = 1^T adj(xI - A) 1
    of its adjacency matrix A (``_walk_data``: P from the traces tr A^k,
    W from the walk sums 1^T A^k 1, exact integers lifted from float64
    products; past the kernel's exact range, ``SizeLimitError``).  The
    distance matrix is (1-t)(A - xI) + tJ with x = t/(1-t); the border
    removes tJ, and the matrix determinant lemma
    det(xI - A - sJ) = P(x) - s W(x) gives, with H_k(f) = (1-t)^k f(x),
    C = (-1)^n H_(n-1)(W) and M = (-1)^n [H_n(P) - t H_(n-1)(W)]."""
    factors = join_factors(g)
    if len(factors) > 1:
        c, m = cm_polynomials(factors[0])
        e = c + m
        for h in factors[1:]:
            ch, mh = cm_polynomials(h)
            eh = ch + mh
            c, e = c * eh + e * ch, e * eh
        return c, e - c
    c, w = _walk_data(g)
    sign = (-1) ** g.n
    det = _in_t(_adjugate_coeffs(c, w), sign)
    return det, _in_t(c, sign) - IntPolynomial.x() * det


def tie_polynomial(g: Graph, r0: Fraction) -> IntPolynomial:
    """q*M + 2p*C for r0 = p/q: its roots are where -M/(2C), the squared
    circumradius at unit short distance, equals r0 or C and M both vanish."""
    c, m = cm_polynomials(g)
    return m.scale(r0.denominator) + c.scale(2 * r0.numerator)


def _limit_against(g: Graph, r0: Fraction) -> Optional[tuple[Fraction, Fraction]]:
    """None when the finite squared circumradius equals r0 exactly, else a
    certified enclosure (lo, hi) of it that excludes r0.  Callers reach it
    only when mu_M >= mu = mu_C at a finite tau1, so the limit of -M/(2C)
    there is -M^(mu)/(2 C^(mu)), and the tie polynomial vanishes to order
    > mu iff the limit is r0.  At a rational tau1 the exact limit decides;
    at an irrational one the tie polynomial does, and the limit is else
    enclosed on a refined interval."""
    root, mu = tau1_mu(g)
    c, m = cm_polynomials(g)
    for _ in range(mu):
        m, c = m.derivative(), c.derivative()
    tau = root.rational
    if tau is not None:
        exact = -m(tau) / (2 * c(tau))
        return None if exact == r0 else (exact, exact)
    tie = tie_polynomial(g, r0)
    if tie.is_zero or multiplicity_at(tie, root) > mu:
        return None
    return enclose_rational_limit(-m, c.scale(2), root, get_config().r2_width, r0)


@functools.lru_cache(maxsize=None)
def _spectrum(g: Graph) -> tuple[float, float]:
    """The smallest and largest eigenvalue of B = Q^T A Q, the adjacency
    matrix compressed to 1^perp (Q an orthonormal basis of it), in floats;
    (0.0, 0.0) for one vertex, where B is empty.  One ``eigvalsh`` of
    PAP - J, P = I - J/n: it has B's spectrum plus -n from the direction 1,
    below every eigenvalue of B (those are at least -(n - 1)).  The roots
    of C are x/(1 + x) over the eigenvalues x != -1 of B, since the walk
    polynomial is n det(xI - B)."""
    n = g.n
    a = g.adjacency().astype(float)
    r = a.sum(axis=0) / n
    a -= r
    a -= r[:, None]
    a += r.sum() / n - 1
    ev = np.linalg.eigvalsh(a)
    return (float(ev[1]), float(ev[-1])) if n > 1 else (0.0, 0.0)


def _log2_floor(p: int, q: int) -> int:
    """floor(log2(p / q)) for positive integers p and q."""
    k = p.bit_length() - q.bit_length()
    return k if p << max(-k, 0) >= q << max(k, 0) else k - 1


def _proposal_interval(t: float) -> Optional[tuple[Fraction, Fraction]]:
    """[lo, hi] centred on t with half-width 2**e, the larger of 8 ulp(t)
    and the largest power of two <= tau_width / 2: it has the requested
    width unless 8 ulp(t) is the larger, and its ends are exact dyadic
    rationals no finer than t, formed on integers.  None unless lo > 1."""
    width = get_config().tau_width
    e = max(
        _log2_floor(width.numerator, 2 * width.denominator),
        math.frexp(8 * math.ulp(t))[1] - 1,
    )
    n, d = t.as_integer_ratio()
    den = max(d, 1 << max(-e, 0))  # t and 2**e are both integers over den
    mid = n * (den // d)
    half = den << e if e >= 0 else den >> -e
    lo, hi = Fraction(mid - half, den), Fraction(mid + half, den)
    return (lo, hi) if lo > 1 else None


def _certified_root(
    factors: list[tuple[IntPolynomial, int]], lo: Fraction, hi: Fraction
) -> Optional[tuple[AlgebraicReal, int]]:
    """The smallest root above 1 of the product of ``factors`` and its
    multiplicity, enclosed in (lo, hi), 1 < lo, or None when that interval
    does not certify it.  ``factors`` is a squarefree split, one polynomial
    with multiplicity 1 (its root is then proved simple), or a rational
    root's linear factor and cofactor (``_rational_root``).

    On (lo, hi) f is the one factor that changes sign, so f has a root
    there, and no factor vanishes at either end.  A Descartes count of 1
    for f and 0 for every other factor on (1, hi) proves that root is the
    least above 1, and a simple root of f.  The counts are exact proofs
    whether or not the factors are real-rooted, so the tie polynomials of
    beta*^2 certify alike."""
    ends = [
        f.homogeneous(lo.numerator, lo.denominator)
        * f.homogeneous(hi.numerator, hi.denominator)
        for f, _ in factors
    ]
    owners = [fm for fm, v in zip(factors, ends) if v < 0]
    if len(owners) != 1 or 0 in ends:
        return None
    f, mult = owners[0]
    if any(descartes_count(h, 1, hi) != int(h is f) for h, _ in factors):
        return None
    return AlgebraicReal(f, lo, hi), mult


def _rational_root(
    p: IntPolynomial, n: int, t: float, lo: Fraction, hi: Fraction
) -> Optional[tuple[AlgebraicReal, int]]:
    """The rational root k/(k + n) of p that t proposes, with its
    multiplicity, certified as p's least root above 1 on t's interval
    (lo, hi), or None.  p is the C of an n-vertex graph or its reciprocal,
    without its power of t, or ``t_star``'s tie polynomial.  The walk
    polynomial n det(xI - B) has leading coefficient n, so a rational
    eigenvalue x = t/(1 - t) of B has n x integral: n x within 1e-6 of the
    integer k proposes k/(k + n).  At t* = 1 + 1/rho, x = -(rho + 1) is
    integral when the Perron root rho is rational, hence an integer.  The
    multiplicity is the number of exact divisions by the root's linear
    factor, and ``_certified_root`` certifies it on that factor and the
    cofactor."""
    x = t / (1 - t)
    k = round(n * x)
    if abs(n * x - k) > 1e-6 or k + n == 0:
        return None
    root = Fraction(k, k + n)
    linear = IntPolynomial((-root.numerator, root.denominator))
    mult = 0
    while p.homogeneous(root.numerator, root.denominator) == 0:
        p = exact_div(p, linear)
        mult += 1
    return _certified_root([(linear, mult), (p, 1)], lo, hi) if mult else None


def _without_zero_roots(p: IntPolynomial) -> IntPolynomial:
    """p / t^k for the largest k with t^k dividing p != 0."""
    k = next(i for i, c in enumerate(p.coeffs) if c)
    return IntPolynomial(p.coeffs[k:])


def _least_root_above(
    p: IntPolynomial, t: Optional[float], n: Optional[int] = None, bound: RationalLike = 1
) -> Optional[tuple[AlgebraicReal, int]]:
    """p's least root above ``bound`` (>= 1) and its multiplicity, refined
    to ``tau_width`` once, on the way out, in an enclosure that holds no
    other root of p, or None: the one route of tau1, tau0, ``t_star`` and
    the root walk ``_roots_up_to``.  q is p without its power of t (roots
    at 0 never matter).  A float proposal t of the least root above 1 gives
    one interval (``_proposal_interval``), on which ``_certified_root``
    decides once: for the rational root t proposes when n is set
    (``_rational_root``), else for a simple root of q.  Failing that, a
    Descartes count of 0 on q over (bound, inf) proves there is no root;
    else q's one squarefree split certifies on the same interval, or is
    bisected (``smallest_root_greater_than``, which finds none when the
    count came from complex roots)."""
    q = _without_zero_roots(p)
    got = interval = None
    if t is not None:
        assert bound == 1, "a proposal is of the least root above 1"
        interval = _proposal_interval(t)
    if interval is not None:
        got = _rational_root(q, n, t, *interval) if n else None
        got = got or _certified_root([(q, 1)], *interval)
    if got is None and descartes_count(q, bound):
        factors = squarefree_decomposition(q)
        if interval is not None:
            got = _certified_root(factors, *interval)
        got = got or smallest_root_greater_than(q, bound, factors)
    return None if got is None else (got[0].refined(get_config().tau_width), got[1])


def _roots_up_to(
    p: IntPolynomial, t: Optional[float], top: Optional[AlgebraicReal]
) -> Iterator[tuple[AlgebraicReal, int]]:
    """Yield p's roots in (1, top] (no upper end when top is None) in
    increasing order, with their multiplicities: the first proposed by the
    float t, each later one the least above the last one's enclosure,
    which holds no other root of p (``_least_root_above``)."""
    got = _least_root_above(p, t)
    while got is not None and (top is None or got[0].compare(top) <= 0):
        yield got
        got = _least_root_above(p, None, bound=got[0].hi)


def _proposal(x: float) -> Optional[float]:
    """C's root x/(1 + x) above 1 for an eigenvalue x < -1 of B, else None."""
    return x / (1 + x) if x < -1 else None


@functools.lru_cache(maxsize=None)
def tau1_mu(g: Graph) -> tuple[Optional[AlgebraicReal], int]:
    """Smallest root of C strictly above 1 with its exact multiplicity;
    (None, 0) when every root is <= 1.  x/(1 + x) increases in x on each
    side of -1, so B's smallest eigenvalue (``_spectrum``), when below -1,
    proposes it (``_least_root_above``)."""
    c, _ = cm_polynomials(g)
    got = _least_root_above(c, _proposal(_spectrum(g)[0]), g.n)
    return (None, 0) if got is None else got


@functools.lru_cache(maxsize=None)
def tau0(g: Graph) -> Optional[AlgebraicReal]:
    """Lower endpoint of the feasible window (None means the window
    extends to 0): the largest root of C in (0, 1), which is 1/tau1 of the
    complement, since the complement's C is C's reciprocal t^(n-1) C(1/t).
    So it is the reciprocal of that polynomial's least root above 1
    (``_least_root_above``), proposed by the complement's smallest
    eigenvalue -1 - x, x the largest of B (the complement's B is -I - B),
    from the same cached spectrum, with no complement walk data.
    Certified only when asked: ``realize`` above t = 1 never asks."""
    c, _ = cm_polynomials(g)
    x = -1 - _spectrum(g)[1]
    got = _least_root_above(c.reciprocal(g.n - 1), _proposal(x), g.n)
    return None if got is None else got[0].reciprocal()


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
def t_star(g: Graph) -> AlgebraicReal:
    """t* = beta*^2 / 2 for a non-complete graph: the largest t at which
    unit vectors exist with inner product 0 on edges and 1 - t on
    non-edges (short distance sqrt(2), long distance sqrt(2t)).

    Their Gram matrix is G(t) = I + (1 - t)Abar, Abar = J - I - A the
    complement's adjacency matrix with Perron root rho >= 1, so G(t) is
    PSD exactly for t <= 1 + 1/rho.  Below that bound G is definite: the
    vectors are linearly independent and their enclosing radius is < 1.
    At it, nonnegative Perron vectors span the kernel: the origin is in
    their convex hull and the radius is 1.  By the matrix determinant
    lemma det G(t) = (t - 1)^n det(xI - Abar) at x = 1/(t - 1) is +-(M + C),
    the r0 = 1/2 tie polynomial up to a factor 2, so t* is its least root
    above 1 (``_least_root_above``): one ``eigvalsh`` of Abar proposes
    it, a simple root (the Perron root of the connected complement is),
    or, for an integral rho, the rational root (rho + 1)/rho."""
    if is_complete(g):
        raise CompleteGraphError("complete graphs have no such configuration")
    n = g.n
    rho = float(np.linalg.eigvalsh(1.0 - np.eye(n) - g.adjacency())[-1])
    return _least_root_above(tie_polynomial(g, Fraction(1, 2)), 1.0 + 1.0 / rho, n)[0]


@functools.lru_cache(maxsize=None)
def beta_star_squared(g: Graph) -> AlgebraicReal:
    """beta*^2 = 2 t* of a non-complete graph, refined to ``tau_width``.  For
    a join, the least over its non-complete factors, the head of
    ``join_decompose``'s exact order: Abar is block-diagonal, so its Perron
    root is the largest block's.  Otherwise 2 t* from ``t_star``."""
    if is_complete(g):
        raise CompleteGraphError("complete graphs have no such representation")
    if len(join_factors(g)) == 1:
        return t_star(g).scaled(2).refined(get_config().tau_width)
    return join_decompose(g).betas[0]


@dataclass(frozen=True)
class JoinFactorization:
    """Join factors ascending by long distance, the ``k`` of the minimal tie
    group first.  ``betas`` holds each factor's exact ``beta_star_squared``,
    None for a complete factor (a single vertex here), which sorts last."""

    factors: tuple[Graph, ...]
    betas: tuple[Optional[AlgebraicReal], ...]
    k: int

    @property
    def beta_stars(self) -> tuple[float, ...]:
        """The long distances as floats, ``math.inf`` for complete factors."""
        return tuple(math.inf if b is None else math.sqrt(float(b)) for b in self.betas)


@functools.lru_cache(maxsize=None)
def join_decompose(g: Graph) -> JoinFactorization:
    """g's join factors (``join_factors``) ranked by long distance, compared
    exactly on each factor's ``beta_star_squared``: the one place a join's
    factors are ordered.  A value met twice (one enclosure of one defining
    polynomial, as isomorphic factors give) is equal with no comparison."""
    order = functools.cmp_to_key(lambda u, v: 0 if u[0] == v[0] else u[0].compare(v[0]))
    factors = join_factors(g)
    ranked = sorted(((beta_star_squared(h), h) for h in factors if not is_complete(h)), key=order)
    above_head = (i for i in range(1, len(ranked)) if order(ranked[i]) > order(ranked[0]))
    k = next(above_head, len(ranked))
    complete = tuple(h for h in factors if is_complete(h))
    return JoinFactorization(
        tuple(h for _, h in ranked) + complete,
        tuple(b for b, _ in ranked) + (None,) * len(complete),
        k,
    )


@functools.lru_cache(maxsize=None)
def profile(g: Graph) -> TwoDistanceProfile:
    """Full invariant record of a graph; tau0 and the flags are computed when read."""
    n = g.n
    root, mu = tau1_mu(g)
    dim_e = n - mu - 1
    r2 = circumradius_invariant(g)
    dim_s = dim_e if r2.is_finite else n - 1
    if is_complete(g):
        return TwoDistanceProfile(g, n, root, mu, dim_e, dim_s, None, r2, None)
    dim_j = dim_e if r2.is_half else n - 1
    beta = beta_star_squared(g)
    return TwoDistanceProfile(g, n, root, mu, dim_e, dim_s, dim_j, r2, beta)


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
    """Drop memoized invariants (use after changing tolerances).  The walk
    kernel's ``_moduli`` stay: a pure function of (n, d) that reads no
    configuration, so ``batch`` searches for each size's primes once."""
    _walk_data.cache_clear()
    join_factors.cache_clear()
    cm_polynomials.cache_clear()
    _spectrum.cache_clear()
    tau1_mu.cache_clear()
    tau0.cache_clear()
    circumradius_invariant.cache_clear()
    t_star.cache_clear()
    beta_star_squared.cache_clear()
    join_decompose.cache_clear()
    profile.cache_clear()
