"""Exact univariate polynomial algebra over big integers.

Coefficients are arbitrary-precision integers, stored lowest degree first.
On top of the ring arithmetic this module provides det B and adj(B) e_0
of a polynomial matrix B (a support's bordered matrix in ``solve_phi``)
from one fraction-free elimination of [B | e_0] per sample point, Yun
squarefree decomposition, Descartes root counting, isolation of real
roots, certified interval refinement, and exact signs at algebraic points.

Descartes' rule of signs, after a Moebius map of an interval onto
(0, inf), bounds the roots there from above with the right parity, so a
count of 0 or 1 is a proof for any polynomial, and every count is exact on
a polynomial with only real roots; ``invariants`` certifies each root on
its own polynomial with it (C or a tie polynomial, which need not be
squarefree) and takes a squarefree split only when that fails.  An
``AlgebraicReal`` asks only that its enclosure hold exactly one root of
its defining polynomial, simple.  Bisection until every count is 0 or 1
isolates the real roots of any squarefree polynomial, tie polynomials
included (``smallest_root_greater_than``).  Where a polynomial has at most
one root in an interval, simple, a sign change decides it with no count:
``_common_root`` tests a gcd that way, for ``vanishes_at`` and
``AlgebraicReal.compare``.  ``vanishes_at`` is the one zero test at an
algebraic point: an interval image that excludes 0 decides with no gcd,
and so does the exact value at a rational point.  ``multiplicity_at``
counts how many of p, p', ... it holds for, and ``sign_at`` calls it once
when an image cannot decide; no program path calls ``multiplicity_at``.
``poly_gcd`` is the one gcd route, Brown's modular gcd: a gcd image
modulo 2**61 - 1 of degree 0 proves two inputs coprime, and otherwise the
first image, or several combined by the Chinese remainder theorem when
its coefficients need more primes, lifts to the gcd, checked by exact
division.  ``poly_rem``'s integer remainder sequence serves only
``SturmChain``, which is built by no program path; the tests count with
it.

Every loop runs on integers.  The sign of p at a rational n/d (d > 0) is
the sign of the integer d**deg * p(n/d), computed by homogeneous Horner;
bisection points and interval images are integer numerators over one
shared denominator.  Remainders are pseudo-remainders with a positive
multiplier, made primitive, so Sturm signs survive; quotients divide over
the integers; interpolation is Lagrange over one common denominator.
``Fraction`` appears only at the interface: enclosure endpoints and the
value of a polynomial at a ``Fraction``.
No floating point enters any decision made here: the Newton steps of
``AlgebraicReal.to_float`` only propose its float, which a sign change
across the float's rounding interval then certifies.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Sequence

from .errors import UndecidableEnclosureError

RationalLike = Fraction | int


def _as_fraction(x: RationalLike) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def _on_grid(lo: RationalLike, hi: RationalLike) -> tuple[int, int, int]:
    """(a, b, den) with lo = a/den and hi = b/den over one denominator."""
    den = math.lcm(lo.denominator, hi.denominator)
    return (
        lo.numerator * (den // lo.denominator),
        hi.numerator * (den // hi.denominator),
        den,
    )


def _sign_changes(values: Sequence[int]) -> int:
    """Sign changes along a sequence, zeros skipped."""
    signs = [v > 0 for v in values if v]
    return sum(1 for s, t in zip(signs, signs[1:]) if s != t)


@dataclass(frozen=True)
class IntPolynomial:
    """Integer polynomial; ``coeffs[i]`` multiplies ``t**i``.

    The trailing coefficient is nonzero unless the polynomial is zero, in
    which case ``coeffs`` is empty and ``degree`` is ``None``.
    """

    coeffs: tuple[int, ...]

    @staticmethod
    def from_coeffs(seq: Sequence[int]) -> "IntPolynomial":
        c = list(map(int, seq))
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
        if isinstance(x, Fraction):
            if self.is_zero:
                return Fraction(0)
            return Fraction(
                self.homogeneous(x.numerator, x.denominator), x.denominator**self.degree
            )
        acc: RationalLike = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def homogeneous(self, n: int, d: int) -> int:
        """The integer d**deg * p(n/d); for d > 0 its sign is that of p(n/d)."""
        coeffs = self.coeffs
        if not coeffs:
            return 0
        acc, dk = coeffs[-1], 1
        for c in coeffs[-2::-1]:
            dk *= d
            acc = acc * n + c * dk
        return acc

    def _image(self, a: int, b: int, den: int) -> tuple[int, int, int]:
        """Interval Horner over [a/den, b/den], den > 0: returns (lo, hi, s)
        with the image bound [lo/s, hi/s], s a positive power of den."""
        coeffs = self.coeffs
        if not coeffs:
            return 0, 0, 1
        rlo = rhi = coeffs[-1]
        scale = 1
        for c in coeffs[-2::-1]:
            scale *= den
            prods = (rlo * a, rlo * b, rhi * a, rhi * b)
            rlo, rhi = min(prods) + c * scale, max(prods) + c * scale
        return rlo, rhi, scale

    def derivative(self) -> "IntPolynomial":
        return IntPolynomial.from_coeffs(
            [i * c for i, c in enumerate(self.coeffs)][1:]
        )

    def content(self) -> int:
        return math.gcd(*self.coeffs)

    def reduced(self) -> "IntPolynomial":
        """Divide out the content, keeping the sign of the leading term."""
        if self.is_zero:
            return self
        c = self.content()
        return self if c == 1 else IntPolynomial(tuple(v // c for v in self.coeffs))

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


def poly_rem(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial:
    """Remainder of a by b over Q, scaled by a positive constant to a
    content-free integer polynomial.

    Integer pseudo-division: each step multiplies the running remainder by
    |lc(b)| / g > 0 (g its gcd with the leading term) before cancelling
    that term, so the result is a positive multiple of the rational
    remainder and Sturm signs survive."""
    rem = list(a.coeffs)
    *low, lead = b.coeffs
    db = len(low)
    scale, sign = abs(lead), 1 if lead > 0 else -1
    while len(rem) > db:
        top = rem.pop()
        g = math.gcd(top, scale)
        m, q = scale // g, sign * top // g
        if m != 1:
            rem = [m * v for v in rem]
        shift = len(rem) - db
        for j, c in enumerate(low):
            rem[shift + j] -= q * c
        while rem and rem[-1] == 0:
            rem.pop()
    return IntPolynomial(tuple(rem)).reduced()


def exact_div(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial:
    """Exact quotient a / b over the integers.  Callers pass a primitive b,
    so by Gauss's lemma the quotient is integral whenever b divides a;
    raises ``ValueError`` when the division is inexact or the quotient is
    not integral."""
    if b.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    if a.is_zero:
        return a
    rem = list(a.coeffs)
    *low, lead = b.coeffs
    db = len(low)
    quot = [0] * max(len(rem) - db, 0)
    for i in range(len(rem) - 1, db - 1, -1):
        q, r = divmod(rem[i], lead)
        if r:
            raise ValueError("polynomial quotient is not integral")
        quot[i - db] = q
        if q:
            for j, c in enumerate(low):
                rem[i - db + j] -= q * c
    if any(rem[:db]):
        raise ValueError("inexact polynomial division")
    return IntPolynomial.from_coeffs(quot)


# The first modulus of ``poly_gcd``: 2**61 - 1.
_PRIME = (1 << 61) - 1


def is_prime(q: int) -> bool:
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


def _primes() -> Iterator[int]:
    """The moduli of ``poly_gcd``: ``_PRIME``, then the odd primes below
    2**32, downwards."""
    yield _PRIME
    for q in range((1 << 32) - 1, 2, -2):
        if is_prime(q):
            yield q


def _gcd_mod_p(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    """The monic gcd modulo the prime p of the polynomials with
    coefficients a and b, lowest degree first; p divides neither leading
    coefficient."""
    u = [c % p for c in a]
    v = [c % p for c in b]
    while v:
        inv = pow(v[-1], -1, p)
        while len(u) >= len(v):  # u <- u mod v
            q = u.pop() * inv % p
            shift = len(u) - len(v) + 1
            for j, c in enumerate(v[:-1]):
                u[shift + j] = (u[shift + j] - q * c) % p
            while u and u[-1] == 0:
                u.pop()
        u, v = v, u
    inv = pow(u[-1], -1, p)
    return [c * inv % p for c in u]


def poly_gcd(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial:
    """Primitive gcd over Q, positive leading coefficient, by Brown's
    modular algorithm (J. ACM 18, 1971; von zur Gathen & Gerhard, *Modern
    Computer Algebra*, ch. 6).

    For primitive a and b, G = (l / lc(g)) g is an integer multiple of
    their primitive gcd g with leading coefficient l = gcd(lc a, lc b).
    Modulo a prime p dividing neither leading coefficient, g's image
    divides the gcd image, so that image has degree at least deg g, and
    degree 0 proves a and b coprime with no lift.  The images of the least
    degree seen, scaled to leading coefficient l, are combined by the
    Chinese remainder theorem; an image of larger degree comes from an
    unlucky prime and is dropped, and one of smaller degree starts the
    combination over.  The primitive part of the symmetric lift is the
    gcd as soon as it divides both inputs (``exact_div``): it then
    divides g, and its degree is at least g's.  Usually the first prime,
    ``_PRIME``, decides."""
    if a.is_zero or b.is_zero:
        return (a if b.is_zero else b).primitive()
    a, b = a.primitive(), b.primitive()
    lead = math.gcd(a.coeffs[-1], b.coeffs[-1])
    image: list[int] = []
    modulus = 1
    for p in _primes():
        if a.coeffs[-1] % p == 0 or b.coeffs[-1] % p == 0:
            continue
        g = _gcd_mod_p(a.coeffs, b.coeffs, p)
        if len(g) == 1:
            return IntPolynomial.const(1)
        if image and len(g) > len(image):
            continue
        g = [c * lead % p for c in g]
        if not image or len(g) < len(image):
            image, modulus = g, p
        else:
            k = pow(modulus, -1, p)
            image = [x + modulus * ((y - x) * k % p) for x, y in zip(image, g)]
            modulus *= p
        half = modulus // 2
        candidate = IntPolynomial(tuple(c - modulus if c > half else c for c in image)).primitive()
        try:
            exact_div(a, candidate)
            exact_div(b, candidate)
        except ValueError:
            continue
        return candidate
    raise ArithmeticError("poly_gcd ran out of primes")


class SturmChain:
    """Sturm sequence of a polynomial; counts distinct real roots exactly.

    No program path builds one.  It stays here as the tests' reference
    counter, independent of Descartes' rule, and because the benchmark's
    tracer resolves it by name."""

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

    def _values(self, n: int, d: int) -> list[int]:
        """The chain's homogeneous values at n/d (d > 0): integers with the
        signs of the chain at n/d; entry 0 vanishes at a root."""
        return [q.homogeneous(n, d) for q in self.chain]

    def count(self, lo: RationalLike, hi: RationalLike) -> int:
        """Distinct real roots in (lo, hi); endpoints must not be roots."""
        at_lo = self._values(lo.numerator, lo.denominator)
        at_hi = self._values(hi.numerator, hi.denominator)
        if not at_lo[0] or not at_hi[0]:
            raise ValueError("Sturm count requires nonroot endpoints")
        if lo >= hi:
            return 0
        return _sign_changes(at_lo) - _sign_changes(at_hi)


def _taylor_shift(coeffs: Sequence[int], a: int) -> list[int]:
    """Coefficients of p(x + a) from those of p, lowest degree first."""
    c = list(coeffs)
    for i in range(len(c) - 1):
        for j in range(len(c) - 2, i - 1, -1):
            c[j] += a * c[j + 1]
    return c


def _descartes(coeffs: Sequence[int], a: int, b: Optional[int], den: int) -> int:
    """``descartes_count`` of the polynomial with ``coeffs`` on (a/den,
    b/den), or on (a/den, inf) when b is None; den > 0."""
    deg = len(coeffs) - 1
    q = _taylor_shift([c * den ** (deg - i) for i, c in enumerate(coeffs)], a)
    if b is not None:
        q = _taylor_shift([c * (b - a) ** i for i, c in enumerate(q)][::-1], 1)
    return _sign_changes(q)


def descartes_count(
    p: IntPolynomial, lo: RationalLike, hi: Optional[RationalLike] = None
) -> int:
    """Sign variations of p carried from the open interval (lo, hi), lo < hi,
    or (lo, inf) when hi is None, onto (0, inf).

    By Descartes' rule of signs this bounds the number of roots of p in the
    interval, counted with multiplicity, from above, and has the same
    parity: 0 and 1 are exact counts for any p, and every count is exact
    when p has only real roots (Collins & Akritas, SYMSAC 1976).  Roots at
    the endpoints are not counted.  With lo = a/den and hi = b/den,
    q(x) = den**deg p((a + x)/den) has integer coefficients, and
    (1 + y)**deg q((b - a)/(1 + y)) maps y in (0, inf) onto (lo, hi)."""
    if p.is_zero:
        raise ValueError("zero polynomial")
    if hi is None:
        return _descartes(p.coeffs, lo.numerator, None, lo.denominator)
    return _descartes(p.coeffs, *_on_grid(lo, hi))


def _changes_sign(g: IntPolynomial, lo: Fraction, hi: Fraction) -> bool:
    """Whether g has opposite signs at lo and hi.  Where g has at most one
    root in (lo, hi), simple, and none at either end, that is whether it
    has one."""
    return (g.homogeneous(lo.numerator, lo.denominator) > 0) != (
        g.homogeneous(hi.numerator, hi.denominator) > 0
    )


def _common_root(
    p: IntPolynomial, q: IntPolynomial, lo: Fraction, hi: Fraction
) -> Optional[IntPolynomial]:
    """g = gcd(p, q) when p and q share a root in (lo, hi), else None.
    Callers pass an interval where q has at most one root, simple, and at
    whose ends p or q is nonzero: g divides both, so it has at most one
    root there, simple, none at either end, and a sign change decides."""
    g = poly_gcd(p, q)
    return g if g.degree and _changes_sign(g, lo, hi) else None


@dataclass(frozen=True)
class AlgebraicReal:
    """A real algebraic number: a defining polynomial with exactly one root
    in a rational interval, that root simple, and nonroot endpoints.  The
    polynomial need not be squarefree: roots elsewhere may be multiple.
    ``refined``, ``compare``, ``vanishes_at``, ``multiplicity_at`` and
    ``to_float`` rely on nothing more."""

    defining: IntPolynomial
    lo: Fraction
    hi: Fraction

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def rational(self) -> Optional[Fraction]:
        """The value when ``defining`` is linear, else None."""
        c = self.defining.coeffs
        return Fraction(-c[0], c[1]) if len(c) == 2 else None

    def refined(self, width: RationalLike) -> "AlgebraicReal":
        """Same root, interval width at most ``width``."""
        width = _as_fraction(width)
        f = self.defining
        if self.hi - self.lo <= width:
            return self
        # Bisect the numerators lo = a/den, hi = b/den; each halving doubles den.
        # Signs are read against hi: ``smallest_root_greater_than`` refines
        # candidates whose lo is the bound, which may be a root of f.
        a, b, den = _on_grid(self.lo, self.hi)
        positive_at_hi = f.homogeneous(b, den) > 0
        while (b - a) * width.denominator > width.numerator * den:
            a, mid, b, den = 2 * a, a + b, 2 * b, 2 * den
            v = f.homogeneous(mid, den)
            if v == 0:
                # The root itself is rational; shrink symmetrically around it.
                m = Fraction(mid, den)
                d = min(Fraction(mid - a, den), width) / 2
                return AlgebraicReal(f, m - d, m + d)
            if (v > 0) == positive_at_hi:
                b = mid
            else:
                a = mid
        return AlgebraicReal(f, Fraction(a, den), Fraction(b, den))

    def _newton_float(self) -> Optional[float]:
        """The nearest float to the root, from two Newton steps off the
        float midpoint of the enclosure, or None.  Each step subtracts from
        the float x = n/d the int/int quotient of the exact integers
        d**deg f(n/d) and d**(deg - 1) f'(n/d) d.  x is the nearest float
        when f changes sign strictly between the half-ulp boundaries around
        x, clamped to the enclosure; a zero there (a tie), an overflow or a
        zero slope gives None.  x and its neighbours are integers over
        powers of two, so the boundaries are numerators over the one
        denominator 2**(k + 1), 2**k the largest of theirs."""
        f = self.defining
        slope = f.derivative()
        try:
            x = (float(self.lo) + float(self.hi)) / 2
            for _ in range(2):
                n, d = x.as_integer_ratio()
                x -= f.homogeneous(n, d) / (slope.homogeneous(n, d) * d)
            ratios = [
                y.as_integer_ratio()
                for y in (math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf))
            ]
        except (OverflowError, ZeroDivisionError):
            return None
        den = max(d for _, d in ratios)
        below, at, above = (num * (den // d) for num, d in ratios)
        lo, hi = (below + at, 2 * den), (at + above, 2 * den)
        if lo[0] * self.lo.denominator <= self.lo.numerator * lo[1]:
            lo = self.lo.numerator, self.lo.denominator
        if hi[0] * self.hi.denominator >= self.hi.numerator * hi[1]:
            hi = self.hi.numerator, self.hi.denominator
        if lo[0] * hi[1] >= hi[0] * lo[1]:
            return None
        at_lo, at_hi = f.homogeneous(*lo), f.homogeneous(*hi)
        return x if (at_lo < 0 < at_hi) or (at_hi < 0 < at_lo) else None

    @functools.cached_property
    def _float(self) -> float:
        f, a = self.defining, self
        if a.lo < 0 < a.hi and f.coeffs[0] == 0:
            return 0.0
        x = self._newton_float()
        if x is not None:
            return x
        while True:
            lo, hi = float(a.lo), float(a.hi)
            if lo == hi:  # rounding is monotone: the root rounds there too
                return lo
            if math.nextafter(lo, math.inf) == hi:
                # One half-ulp boundary m lies in the enclosure; its sign
                # against hi's says on which side of it the root lies.
                m = (Fraction(lo) + Fraction(hi)) / 2
                v = f.homogeneous(m.numerator, m.denominator)
                if v == 0:
                    return float(m)  # a tie, rounded to even
                at_hi = f.homogeneous(a.hi.numerator, a.hi.denominator)
                return lo if (v > 0) == (at_hi > 0) else hi
            # The float spacing at the end nearer 0, the least in the
            # enclosure, leaves at most one boundary strictly inside it.
            a = a.refined(min(a.width / 2, Fraction(math.ulp(min(abs(lo), abs(hi))))))

    def to_float(self) -> float:
        """Nearest float (ties to even); the refinement runs once per
        number."""
        return self._float

    __float__ = to_float

    def compare(self, other: "AlgebraicReal") -> int:
        """Sign of (self - other), decided exactly: overlapping enclosures
        hold equal numbers exactly when the defining polynomials share a
        root in the overlap (``_common_root``), else they are refined apart."""
        a, b = self, other
        if a.hi > b.lo and b.hi > a.lo:
            # Overlapping enclosures: equal numbers share a root there.  Each
            # end of the overlap is an end of a's enclosure or of b's, so a
            # nonroot of a's defining polynomial or of b's.
            lo, hi = max(a.lo, b.lo), min(a.hi, b.hi)
            if _common_root(a.defining, b.defining, lo, hi) is not None:
                return 0
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
        rev = IntPolynomial.from_coeffs(list(reversed(self.defining.coeffs)))
        return AlgebraicReal(rev.primitive(), 1 / self.hi, 1 / self.lo)


# ---------------------------------------------------------------------------
# Determinants of polynomial matrices
# ---------------------------------------------------------------------------


def _bareiss_eliminate(a: list[list[int]]) -> int:
    """Fraction-free forward elimination, in place, on the leading square
    block of the rows ``a``; further columns ride along.  Returns the sign
    of the row swaps, or 0 when the block is singular."""
    n = len(a)
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
            for j in range(k + 1, len(row_i)):
                row_i[j] = (row_i[j] * pivot - aik * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    return sign


def _interpolate_integer(xs: Sequence[int], ys: Sequence[int]) -> IntPolynomial:
    """The polynomial of degree below len(xs) through the points (xs[i],
    ys[i]), for distinct integer nodes; raises ``ValueError`` unless its
    coefficients are integers.

    Lagrange form over one common denominator: with w_i = prod_{j != i}
    (x_i - x_j) and W = lcm |w_i|, W p = sum_i y_i (W / w_i) P / (t - x_i)
    for P = prod_j (t - x_j), and one exact division by W gives p."""
    full = [1]  # P, lowest degree first
    for x in xs:
        full = [a - x * b for a, b in zip([0] + full, full + [0])]
    weights = [
        math.prod(xi - xj for j, xj in enumerate(xs) if j != i)
        for i, xi in enumerate(xs)
    ]
    common = math.lcm(*weights)
    acc = [0] * len(xs)
    for xi, yi, wi in zip(xs, ys, weights):
        if not yi:
            continue
        k = yi * (common // wi)
        carry = 0  # synthetic division of P by (t - xi), from the top
        for m in range(len(xs), 0, -1):
            carry = full[m] + carry * xi
            acc[m - 1] += k * carry
    coeffs = []
    for c in acc:
        q, r = divmod(c, common)
        if r:
            raise ValueError("interpolation produced non-integer coefficients")
        coeffs.append(q)
    return IntPolynomial.from_coeffs(coeffs)


def det_poly_matrix(
    matrix: Sequence[Sequence[IntPolynomial]], k: int = 0
) -> tuple[IntPolynomial, ...]:
    """``(det B, a_0, ..., a_{k-1})`` for a square matrix B of
    degree-at-most-1 polynomials, where ``a = adj(B) e_0``: a_i is the
    determinant of B with column i replaced by e_0.

    At each integer x one fraction-free elimination of [B(x) | e_0] gives
    det B(x) (0 where a pivot vanishes) and, where B(x) is nonsingular,
    adj(B(x)) e_0 by back substitution.  det B has degree at most the size,
    so size+1 points recover it; each a_i, a minor, has degree below the
    size, so it is interpolated from that many nonsingular points.  Asking
    for a_i when det B is the zero polynomial raises ``ValueError``.
    ``geometry.solve_phi`` gets the bordered matrix of a support this way;
    ``invariants.cm_polynomials`` gets a whole graph's det B and adj(B)_00
    from the walk data instead, and the tests hold it to this route.
    """
    size = len(matrix)
    if any(len(row) != size for row in matrix):
        raise ValueError("matrix must be square")
    for row in matrix:
        for entry in row:
            if entry.degree is not None and entry.degree > 1:
                raise ValueError("entries must have degree at most 1")
    if not 0 <= k <= size:
        raise ValueError("k must lie in [0, size]")
    if size == 0:
        return (IntPolynomial.const(1),)
    # (c0, c1) of each entry c0 + c1 t, so evaluating at x is integer work.
    lines = [[(entry.coeffs + (0, 0))[:2] for entry in row] for row in matrix]
    dets: list[int] = []
    xs: list[int] = []  # the nonsingular points
    columns: list[list[int]] = []
    x = 0
    while len(dets) <= size or (k and len(xs) < size):
        if len(dets) == size + 1 and not any(dets):
            raise ValueError("adjugate entries of a matrix with zero determinant")
        a = [
            [c0 + c1 * x for c0, c1 in row] + [int(i == 0)]
            for i, row in enumerate(lines)
        ]
        sign = _bareiss_eliminate(a)
        last = a[-1][size - 1]  # sign * det B(x) unless sign is 0
        if len(dets) <= size:
            dets.append(sign * last)
        if k and sign and last and len(xs) < size:
            # The last pivot times the solution of B(x) y = e_0 is an
            # integer vector, sign * adj(B(x)) e_0.
            y = [0] * size
            for i in reversed(range(size)):
                acc = last * a[i][size] - sum(a[i][j] * y[j] for j in range(i + 1, size))
                y[i] = acc // a[i][i]
            xs.append(x)
            columns.append([sign * v for v in y])
        x += 1
    adj = [_interpolate_integer(xs, [col[i] for col in columns]) for i in range(k)]
    return (_interpolate_integer(list(range(size + 1)), dets), *adj)


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
    strictly above ``bound``, or None.

    Descartes bisection of the grid from ``bound`` to the Cauchy bound,
    leftmost interval first: a count of 0 drops an interval, 1 isolates
    its root, and more splits it at the midpoint.  A midpoint that is a
    root is isolated in (mid - delta, mid + delta), and the search goes on
    to its left.  Bisection ends because f is squarefree (Collins &
    Akritas, SYMSAC 1976)."""
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
    # Pending intervals (a/den, b/den), the leftmost last.  A midpoint
    # root's interval is marked isolated: it is the answer once everything
    # to its left has dropped.
    todo = [(*_on_grid(bound, upper), False)]
    while todo:
        a, b, den, isolated = todo.pop()
        count = 1 if isolated else _descartes(f.coeffs, a, b, den)
        if count == 1:
            return (Fraction(a, den), Fraction(b, den))
        if count == 0:
            continue
        a, mid, b, den = 2 * a, a + b, 2 * b, 2 * den
        if f.homogeneous(mid, den) == 0:
            # delta = (b - a)/4, halved until the interval isolates mid.
            a, mid, b, den = 4 * a, 4 * mid, 4 * b, 4 * den
            delta = (b - a) // 4
            while (
                f.homogeneous(mid - delta, den) == 0
                or f.homogeneous(mid + delta, den) == 0
                or _descartes(f.coeffs, mid - delta, mid + delta, den) != 1
            ):
                a, mid, den = 2 * a, 2 * mid, 2 * den
            todo += [(mid - delta, mid + delta, den, True), (a, mid - delta, den, False)]
        else:
            todo += [(mid, b, den, False), (a, mid, den, False)]
    return None


def smallest_root_greater_than(
    p: IntPolynomial,
    bound: RationalLike,
    factors: Optional[list[tuple[IntPolynomial, int]]] = None,
) -> Optional[tuple[AlgebraicReal, int]]:
    """Smallest real root of ``p`` strictly greater than ``bound`` with its
    exact multiplicity, or None when every real root is <= bound.  One
    Descartes bisection of p's squarefree part (the product of the factors
    of ``squarefree_decomposition(p)``, passed as ``factors`` when the
    caller has them) isolates it among all of p's roots; the one factor
    that changes sign across that enclosure defines it and gives its
    multiplicity."""
    if p.is_zero:
        raise ValueError("zero polynomial")
    bound = _as_fraction(bound)
    if factors is None:
        factors = squarefree_decomposition(p)
    squarefree = math.prod((f for f, _ in factors), start=IntPolynomial.const(1))
    got = _leftmost_root_above(squarefree, bound)
    if got is None:
        return None
    root = AlgebraicReal(squarefree, *got)
    while root.lo <= bound:  # keep the enclosure clear of the bound
        root = root.refined(root.width / 4)
    f, mult = next((f, m) for f, m in factors if _changes_sign(f, root.lo, root.hi))
    return AlgebraicReal(f, root.lo, root.hi), mult


def multiplicity_at(p: IntPolynomial, a: AlgebraicReal) -> int:
    """Exact multiplicity of the root ``a`` in ``p`` (0 when p(a) != 0): the
    number of p, p', p'', ... that vanish at ``a`` (``vanishes_at``), each
    tested against the divisor the one before returned, as
    ``invariants.circumradius_invariant`` tests M up to tau1's multiplicity
    in C.  No program path calls it; it stays for the tests and because the
    benchmark's tracer resolves it by name."""
    if p.is_zero:
        raise ValueError("zero polynomial")
    mult, divisor = 0, a.defining
    while True:
        divisor = vanishes_at(p, a, divisor)
        if divisor is None:
            return mult
        p = p.derivative()
        mult += 1


def vanishes_at(
    p: IntPolynomial, a: AlgebraicReal, divisor: Optional[IntPolynomial] = None
) -> Optional[IntPolynomial]:
    """None when p(a) != 0; else a factor of ``divisor`` that vanishes at
    ``a``.  ``divisor`` is a factor of a's defining polynomial that vanishes
    at a (by default the defining polynomial), so a caller testing several
    polynomials at one point passes each answer on as the next divisor, and
    the gcds shrink.

    An interval image of p over a's enclosure that excludes 0 decides
    p(a) != 0; at a rational a (a linear defining polynomial) the
    homogeneous value decides; else one gcd with the divisor does
    (``_common_root`` on the enclosure)."""
    if divisor is None:
        divisor = a.defining
    if p.is_zero:
        return divisor
    lo, hi, _ = p._image(*_on_grid(a.lo, a.hi))
    if lo > 0 or hi < 0:
        return None
    x = a.rational
    if x is not None:
        return divisor if p.homogeneous(x.numerator, x.denominator) == 0 else None
    return _common_root(p, divisor, a.lo, a.hi)


def sign_at(p: IntPolynomial, a: AlgebraicReal) -> int:
    """Sign of ``p`` at the algebraic point ``a``, decided exactly.

    The interval image of ``p`` over the enclosure of ``a`` decides a
    nonzero sign.  When the first image holds 0, ``vanishes_at`` tells a
    root apart from a value the enclosure is still too wide to separate,
    and a nonzero value is then refined until an image excludes 0."""
    lo, hi, _ = p._image(*_on_grid(a.lo, a.hi))
    if lo <= 0 <= hi and vanishes_at(p, a) is not None:
        return 0
    while lo <= 0 <= hi:
        a = a.refined(a.width / 2)
        lo, hi, _ = p._image(*_on_grid(a.lo, a.hi))
    return 1 if lo > 0 else -1


# Halvings of the point's enclosure before a limit enclosure gives up.
MAX_HALVINGS = 256


def enclose_rational_limit(
    numerator: IntPolynomial,
    denominator: IntPolynomial,
    at: AlgebraicReal,
    width: Fraction,
    exclude: Fraction,
) -> tuple[Fraction, Fraction]:
    """Certified enclosure of numerator/denominator at an algebraic point.

    The denominator must be nonzero at the point.  The point's interval is
    bisected, as ``AlgebraicReal.refined`` does, on integer numerators
    a/den and b/den, until interval images of the two polynomials there
    give a quotient enclosure narrower than ``width`` that excludes
    ``exclude``.  Returns (lo, hi); no ``Fraction`` is formed before."""
    f = at.defining
    a, b, den = _on_grid(at.lo, at.hi)
    positive_at_hi = f.homogeneous(b, den) > 0
    wn, wd = width.numerator, width.denominator
    en, ed = exclude.numerator, exclude.denominator
    for _ in range(MAX_HALVINGS):
        dlo, dhi, ds = denominator._image(a, b, den)
        if dlo > 0 or dhi < 0:
            nlo, nhi, ns = numerator._image(a, b, den)
            if dhi < 0:  # divide by the positive interval [-dhi, -dlo]
                nlo, nhi, dlo, dhi = -nhi, -nlo, -dhi, -dlo
            # The quotient's ends (n ds)/(d ns), both denominators positive.
            lo_n, lo_d = nlo * ds, (dhi if nlo >= 0 else dlo) * ns
            hi_n, hi_d = nhi * ds, (dlo if nhi >= 0 else dhi) * ns
            if (hi_n * lo_d - lo_n * hi_d) * wd <= wn * lo_d * hi_d and (
                en * lo_d < lo_n * ed or en * hi_d > hi_n * ed
            ):
                return Fraction(lo_n, lo_d), Fraction(hi_n, hi_d)
        a, mid, b, den = 2 * a, a + b, 2 * b, 2 * den
        v = f.homogeneous(mid, den)
        if v == 0:  # the point itself is rational
            a = b = mid
        elif (v > 0) == positive_at_hi:
            b = mid
        else:
            a = mid
    raise UndecidableEnclosureError(
        "enclosure failed to separate after maximal refinement"
    )
