"""Exact univariate polynomial algebra over big integers.

Coefficients are arbitrary-precision integers, stored lowest degree first.
On top of the ring arithmetic this module provides fraction-free
determinants of polynomial matrices, Yun squarefree decomposition, Sturm
root counting, isolation of real roots, and certified interval refinement.
No floating point enters any decision made here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import UndecidableEnclosureError

RationalLike = Fraction | int


def _as_fraction(x: RationalLike) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


@dataclass(frozen=True)
class IntPolynomial:
    """Integer polynomial; ``coeffs[i]`` multiplies ``t**i``.

    The trailing coefficient is nonzero unless the polynomial is zero, in
    which case ``coeffs`` is empty and ``degree`` is ``None``.
    """

    coeffs: tuple[int, ...]

    @staticmethod
    def from_coeffs(seq: Sequence[int]) -> "IntPolynomial":
        c = list(int(v) for v in seq)
        while c and c[-1] == 0:
            c.pop()
        return IntPolynomial(tuple(c))

    @staticmethod
    def zero() -> "IntPolynomial":
        return IntPolynomial(())

    @staticmethod
    def const(c: int) -> "IntPolynomial":
        return IntPolynomial.from_coeffs([c])

    @staticmethod
    def x() -> "IntPolynomial":
        return IntPolynomial((0, 1))

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> Optional[int]:
        return len(self.coeffs) - 1 if self.coeffs else None

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, v in enumerate(b):
            out[i] += v
        return IntPolynomial.from_coeffs(out)

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        return self + (-other)

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial(tuple(-c for c in self.coeffs))

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        if self.is_zero or other.is_zero:
            return IntPolynomial.zero()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPolynomial.from_coeffs(out)

    def scale(self, k: int) -> "IntPolynomial":
        return IntPolynomial.from_coeffs([c * k for c in self.coeffs])

    def __pow__(self, e: int) -> "IntPolynomial":
        out = IntPolynomial.const(1)
        for _ in range(e):
            out = out * self
        return out

    def __call__(self, x: RationalLike) -> RationalLike:
        acc: RationalLike = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def eval_interval(self, lo: Fraction, hi: Fraction) -> tuple[Fraction, Fraction]:
        """Exact interval image bound of the polynomial over [lo, hi]."""
        rlo = rhi = Fraction(0)
        for c in reversed(self.coeffs):
            prods = (rlo * lo, rlo * hi, rhi * lo, rhi * hi)
            rlo, rhi = min(prods) + c, max(prods) + c
        return rlo, rhi

    def derivative(self) -> "IntPolynomial":
        return IntPolynomial.from_coeffs(
            [i * c for i, c in enumerate(self.coeffs)][1:]
        )

    def content(self) -> int:
        return math.gcd(*(abs(c) for c in self.coeffs)) if self.coeffs else 0

    def reduced(self) -> "IntPolynomial":
        """Divide out the content, keeping the sign of the leading term."""
        if self.is_zero:
            return self
        c = self.content()
        return IntPolynomial(tuple(v // c for v in self.coeffs))

    def primitive(self) -> "IntPolynomial":
        """Content-free with positive leading coefficient."""
        p = self.reduced()
        if p.coeffs and p.coeffs[-1] < 0:
            p = -p
        return p

    def reciprocal(self, exponent: int) -> "IntPolynomial":
        """Return ``t**exponent * p(1/t)``; requires ``deg p <= exponent``."""
        if self.is_zero:
            return self
        d = len(self.coeffs) - 1
        if d > exponent:
            raise ValueError("degree exceeds reciprocal exponent")
        rev = [0] * (exponent - d) + list(reversed(self.coeffs))
        return IntPolynomial.from_coeffs(rev)

    def root_bound(self) -> Fraction:
        """Cauchy bound: every real root has absolute value below this."""
        if self.degree in (None, 0):
            return Fraction(1)
        lead = abs(self.coeffs[-1])
        m = max(abs(c) for c in self.coeffs[:-1])
        return 1 + Fraction(m, lead)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.is_zero:
            return "IntPolynomial(0)"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c:
                terms.append(f"{c}" if i == 0 else f"{c}*t^{i}")
        return "IntPolynomial(" + " + ".join(terms) + ")"


def _divmod_fractions(
    num: Sequence[Fraction], den: Sequence[Fraction]
) -> tuple[list[Fraction], list[Fraction]]:
    """Polynomial division over the rationals on coefficient lists."""
    num = list(num)
    dn = len(den) - 1
    lead = den[-1]
    quot = [Fraction(0)] * max(len(num) - dn, 0)
    for i in range(len(num) - 1, dn - 1, -1):
        q = num[i] / lead
        quot[i - dn] = q
        if q:
            for j in range(dn + 1):
                num[i - dn + j] -= q * den[j]
    while num and num[-1] == 0:
        num.pop()
    return quot, num


def poly_rem(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial:
    """Remainder of a by b, scaled by a positive constant to integers."""
    _, rem = _divmod_fractions(
        [Fraction(c) for c in a.coeffs], [Fraction(c) for c in b.coeffs]
    )
    if not rem:
        return IntPolynomial.zero()
    den = math.lcm(*(f.denominator for f in rem))
    return IntPolynomial.from_coeffs([int(f * den) for f in rem]).reduced()


def exact_div(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial:
    """Exact quotient a / b; raises if b does not divide a over Q."""
    if b.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    if a.is_zero:
        return a
    quot, rem = _divmod_fractions(
        [Fraction(c) for c in a.coeffs], [Fraction(c) for c in b.coeffs]
    )
    if rem:
        raise ValueError("inexact polynomial division")
    den = math.lcm(*(f.denominator for f in quot)) if quot else 1
    if den != 1:
        # a, b primitive implies an integer quotient; tolerate content noise
        # by clearing denominators (quotient is only used up to constants).
        quot = [f * den for f in quot]
    return IntPolynomial.from_coeffs([int(f) for f in quot])


def poly_gcd(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial:
    """Primitive gcd over Q, positive leading coefficient."""
    a, b = a.primitive(), b.primitive()
    while not b.is_zero:
        a, b = b, poly_rem(a, b)
    return a.primitive()


class SturmChain:
    """Sturm sequence of a polynomial; counts distinct real roots exactly."""

    def __init__(self, p: IntPolynomial):
        if p.is_zero:
            raise ValueError("zero polynomial")
        chain = [p.reduced()]
        d = p.derivative()
        if not d.is_zero:
            chain.append(d.reduced())
            while True:
                r = poly_rem(chain[-2], chain[-1])
                if r.is_zero:
                    break
                chain.append(-r)
        self.chain = chain

    def variations(self, x: Fraction) -> int:
        signs = []
        for q in self.chain:
            v = q(x)
            if v:
                signs.append(v > 0)
        return sum(1 for s, t in zip(signs, signs[1:]) if s != t)

    def count(self, lo: Fraction, hi: Fraction) -> int:
        """Distinct real roots in (lo, hi); endpoints must not be roots."""
        p = self.chain[0]
        if p(lo) == 0 or p(hi) == 0:
            raise ValueError("Sturm count requires nonroot endpoints")
        if lo >= hi:
            return 0
        return self.variations(lo) - self.variations(hi)


def count_real_roots(p: IntPolynomial, lo: Fraction, hi: Fraction) -> int:
    return SturmChain(p).count(lo, hi)


@dataclass(frozen=True)
class AlgebraicReal:
    """A real algebraic number: squarefree defining polynomial plus an
    isolating rational interval with nonroot endpoints."""

    defining: IntPolynomial
    lo: Fraction
    hi: Fraction

    def is_valid(self) -> bool:
        f = self.defining
        return (
            self.lo < self.hi
            and f(self.lo) != 0
            and f(self.hi) != 0
            and count_real_roots(f, self.lo, self.hi) == 1
        )

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def refined(self, width: RationalLike) -> "AlgebraicReal":
        """Same root, interval width at most ``width``."""
        width = _as_fraction(width)
        lo, hi, f = self.lo, self.hi, self.defining
        if hi - lo <= width:
            return self
        positive_at_lo = f(lo) > 0
        while hi - lo > width:
            mid = (lo + hi) / 2
            v = f(mid)
            if v == 0:
                # The root itself is rational; shrink symmetrically around it.
                d = min(mid - lo, hi - mid, width) / 2
                return AlgebraicReal(f, mid - d, mid + d)
            if (v > 0) == positive_at_lo:
                lo = mid
            else:
                hi = mid
        return AlgebraicReal(f, lo, hi)

    def approx(self, width: RationalLike) -> Fraction:
        r = self.refined(width)
        return (r.lo + r.hi) / 2

    def to_float(self) -> float:
        return float(self.approx(Fraction(1, 2**54) * max(1, math.ceil(abs(self.hi)))))

    __float__ = to_float

    def cmp_rational(self, r: RationalLike) -> int:
        """Sign of (self - r), decided exactly."""
        r = _as_fraction(r)
        a = self
        while True:
            if r <= a.lo:
                return 1
            if r >= a.hi:
                return -1
            if a.defining(r) == 0:
                return 0  # r is the unique root in the interval
            a = a.refined(a.width / 4)

    def compare(self, other: "AlgebraicReal") -> int:
        """Sign of (self - other), decided exactly."""
        g = poly_gcd(self.defining, other.defining)
        deg = g.degree
        if deg is not None and deg > 0:
            lo, hi = max(self.lo, other.lo), min(self.hi, other.hi)
            if lo < hi and SturmChain(g).count(lo, hi) >= 1:
                return 0
        a, b = self, other
        while a.hi > b.lo and b.hi > a.lo:
            a = a.refined(a.width / 4)
            b = b.refined(b.width / 4)
        return -1 if a.hi <= b.lo else 1

    def scaled(self, k: int) -> "AlgebraicReal":
        """The algebraic number k * self, for a positive integer k."""
        if k <= 0:
            raise ValueError("positive scale required")
        d = len(self.defining.coeffs) - 1
        coeffs = [c * k ** (d - i) for i, c in enumerate(self.defining.coeffs)]
        return AlgebraicReal(
            IntPolynomial.from_coeffs(coeffs).primitive(), self.lo * k, self.hi * k
        )

    def reciprocal(self) -> "AlgebraicReal":
        """1 / self, for a root known to be positive."""
        if self.lo <= 0:
            raise ValueError("reciprocal requires a positive enclosure")
        d = len(self.defining.coeffs) - 1
        rev = IntPolynomial.from_coeffs(list(reversed(self.defining.coeffs)))
        return AlgebraicReal(rev.primitive(), 1 / self.hi, 1 / self.lo)


# ---------------------------------------------------------------------------
# Determinants of polynomial matrices
# ---------------------------------------------------------------------------


def bareiss_determinant(matrix: Sequence[Sequence[int]]) -> int:
    """Fraction-free elimination; exact integer determinant."""
    a = [list(int(v) for v in row) for row in matrix]
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("matrix must be square")
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            pivot_row = next((i for i in range(k + 1, n) if a[i][k]), None)
            if pivot_row is None:
                return 0
            a[k], a[pivot_row] = a[pivot_row], a[k]
            sign = -sign
        pivot = a[k][k]
        for i in range(k + 1, n):
            aik = a[i][k]
            row_i, row_k = a[i], a[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pivot - aik * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    return sign * a[-1][-1]


def _interpolate_integer(xs: Sequence[int], ys: Sequence[int]) -> IntPolynomial:
    """Exact Newton interpolation; the result must have integer coefficients."""
    n = len(xs)
    coef = [Fraction(y) for y in ys]
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) / (xs[i] - xs[i - j])
    cur = [coef[-1]]
    for i in range(n - 2, -1, -1):
        nxt = [Fraction(0)] * (len(cur) + 1)
        for k, c in enumerate(cur):
            nxt[k + 1] += c
            nxt[k] -= c * xs[i]
        nxt[0] += coef[i]
        cur = nxt
    if any(f.denominator != 1 for f in cur):
        raise ValueError("interpolation produced non-integer coefficients")
    return IntPolynomial.from_coeffs([int(f) for f in cur])


def det_poly_matrix(matrix: Sequence[Sequence[IntPolynomial]]) -> IntPolynomial:
    """Exact determinant of a square matrix of degree-at-most-1 polynomials.

    The matrix is evaluated at size+1 integer points, each determinant is
    computed fraction-free, and the polynomial is recovered by exact
    interpolation (its degree is bounded by the matrix size).
    """
    size = len(matrix)
    if any(len(row) != size for row in matrix):
        raise ValueError("matrix must be square")
    for row in matrix:
        for entry in row:
            if entry.degree is not None and entry.degree > 1:
                raise ValueError("entries must have degree at most 1")
    if size == 0:
        return IntPolynomial.const(1)
    xs = list(range(size + 1))
    ys = [
        bareiss_determinant([[p(x) for p in row] for row in matrix]) for x in xs
    ]
    return _interpolate_integer(xs, ys)


# ---------------------------------------------------------------------------
# Squarefree decomposition (Yun) and root machinery
# ---------------------------------------------------------------------------


def squarefree_decomposition(
    p: IntPolynomial,
) -> list[tuple[IntPolynomial, int]]:
    """Yun's algorithm.  Returns ``[(factor, multiplicity), ...]`` with
    pairwise-coprime squarefree factors and strictly increasing
    multiplicities; the product of ``factor**multiplicity`` equals ``p``
    up to a rational constant."""
    if p.is_zero:
        raise ValueError("zero polynomial")
    f = p.primitive()
    if f.degree == 0:
        return []
    fp = f.derivative()
    g = poly_gcd(f, fp)
    if g.degree == 0:
        return [(f, 1)]
    out: list[tuple[IntPolynomial, int]] = []
    c = exact_div(f, g)
    d = exact_div(fp, g) - c.derivative()
    i = 1
    while c.degree is not None and c.degree > 0:
        a = poly_gcd(c, d)
        if a.degree is not None and a.degree > 0:
            out.append((a, i))
        c = exact_div(c, a)
        d = exact_div(d, a) - c.derivative()
        i += 1
    return out


def _leftmost_root_above(
    f: IntPolynomial, bound: Fraction
) -> Optional[tuple[Fraction, Fraction]]:
    """Isolating interval of the smallest real root of squarefree ``f``
    strictly above ``bound``, or None."""
    f = f.primitive()
    if f(bound) == 0:
        # Deflate the (simple) rational root sitting exactly at the bound.
        f = exact_div(
            f, IntPolynomial.from_coeffs([-bound.numerator, bound.denominator])
        ).primitive()
    if f.degree in (None, 0):
        return None
    upper = f.root_bound()
    if upper <= bound:
        return None
    while f(upper) == 0:  # Cauchy bound is strict; guard anyway
        upper += 1
    chain = SturmChain(f)
    count = chain.count(bound, upper)
    if count == 0:
        return None
    a, b = bound, upper
    while count > 1:
        mid = (a + b) / 2
        if f(mid) == 0:
            delta = (b - a) / 4
            while (
                f(mid - delta) == 0
                or f(mid + delta) == 0
                or chain.count(mid - delta, mid + delta) != 1
            ):
                delta /= 2
            left = chain.count(a, mid - delta) if mid - delta > a else 0
            if left >= 1:
                b = mid - delta
                count = left
            else:
                return (mid - delta, mid + delta)
        else:
            left = chain.count(a, mid)
            if left >= 1:
                b = mid
                count = left
            else:
                a = mid
                count -= left
    return (a, b)


def smallest_root_greater_than(
    p: IntPolynomial, bound: RationalLike
) -> Optional[tuple[AlgebraicReal, int]]:
    """Smallest real root of ``p`` strictly greater than ``bound`` with its
    exact multiplicity, or None when every real root is <= bound."""
    if p.is_zero:
        raise ValueError("zero polynomial")
    bound = _as_fraction(bound)
    best: Optional[AlgebraicReal] = None
    best_mult = 0
    for factor, mult in squarefree_decomposition(p):
        got = _leftmost_root_above(factor, bound)
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


def multiplicity_at(p: IntPolynomial, a: AlgebraicReal) -> int:
    """Exact multiplicity of the root ``a`` in ``p`` (0 when p(a) != 0).

    Decided by repeated gcd with the defining polynomial of ``a`` plus a
    Sturm count on the isolating interval; no floating point."""
    if p.is_zero:
        raise ValueError("zero polynomial")
    d = a.defining.primitive()
    cur = p.primitive()
    mult = 0
    while True:
        g = poly_gcd(cur, d)
        deg = g.degree
        if deg is None or deg == 0:
            break
        if SturmChain(g).count(a.lo, a.hi) == 0:
            break
        cur = exact_div(cur, g).primitive()
        mult += 1
    return mult


def enclose_rational_limit(
    numerator: IntPolynomial,
    denominator: IntPolynomial,
    at: AlgebraicReal,
    width: Fraction,
    exclude: Sequence[Fraction] = (),
    max_halvings: int = 256,
) -> tuple[Fraction, Fraction, AlgebraicReal]:
    """Certified enclosure of numerator/denominator at an algebraic point.

    The denominator must be nonzero at the point.  The point's interval is
    bisected until the quotient enclosure is narrower than ``width`` and
    excludes every value in ``exclude``.  Returns (lo, hi, refined point).
    """
    a = at
    for _ in range(max_halvings):
        nlo, nhi = numerator.eval_interval(a.lo, a.hi)
        dlo, dhi = denominator.eval_interval(a.lo, a.hi)
        if dlo <= 0 <= dhi:
            a = a.refined(a.width / 2)
            continue
        quotients = (nlo / dlo, nlo / dhi, nhi / dlo, nhi / dhi)
        qlo, qhi = min(quotients), max(quotients)
        if qhi - qlo <= width and all(not (qlo <= e <= qhi) for e in exclude):
            return qlo, qhi, a
        a = a.refined(a.width / 2)
    raise UndecidableEnclosureError(
        "enclosure failed to separate after maximal refinement"
    )
