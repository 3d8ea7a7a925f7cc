import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from twodist.polynomials import (
    AlgebraicReal,
    IntPolynomial,
    SturmChain,
    _PRIME,
    _gcd_mod_p,
    _interpolate_integer,
    descartes_count,
    det_poly_matrix,
    exact_div,
    multiplicity_at,
    poly_gcd,
    poly_rem,
    sign_at,
    smallest_root_greater_than,
    squarefree_decomposition,
    vanishes_at,
)
from reference import (
    cmp_rational,
    count_real_roots,
    eval_interval,
    is_valid,
    remainder_gcd,
    remainder_squarefree,
    roots_in_window,
    sturm_compare,
    sturm_multiplicity_at,
    sturm_smallest_root_greater_than,
)

T = IntPolynomial.x()
ONE = IntPolynomial.const(1)
ZERO = IntPolynomial.zero()


def poly(*coeffs):
    return IntPolynomial.from_coeffs(coeffs)


def coprime_mod_prime(a, b):
    """poly_gcd's first test: _PRIME divides neither leading coefficient
    and the gcd image modulo it is constant, which proves a and b coprime."""
    return (
        a.coeffs[-1] % _PRIME != 0
        and b.coeffs[-1] % _PRIME != 0
        and len(_gcd_mod_p(a.coeffs, b.coeffs, _PRIME)) == 1
    )


class TestArithmetic:
    def test_degree_conventions(self):
        assert ZERO.degree is None
        assert ZERO.is_zero
        assert ONE.degree == 0
        assert poly(0, 0, 3).degree == 2
        assert poly(1, 2, 0, 0) == poly(1, 2)

    def test_ring_ops(self):
        p = poly(1, 2)  # 1 + 2t
        q = poly(-1, 1)  # t - 1
        assert p * q == poly(-1, -1, 2)
        assert p + q == poly(0, 3)
        assert p - p == ZERO
        assert (T**3).coeffs == (0, 0, 0, 1)

    def test_eval(self):
        p = poly(0, -4, 1)
        assert p(5) == 5
        assert p(Fraction(1, 2)) == Fraction(-7, 4)

    def test_interval_eval_contains_values(self):
        p = poly(3, -2, 0, 1)
        lo, hi = eval_interval(p, Fraction(-1), Fraction(2))
        for x in (Fraction(-1), Fraction(0), Fraction(1, 3), Fraction(2)):
            assert lo <= p(x) <= hi

    def test_derivative(self):
        assert poly(5, 3, 0, 2).derivative() == poly(3, 0, 6)
        assert ONE.derivative() == ZERO

    def test_primitive_and_reduced(self):
        p = poly(-6, 0, -9)
        assert p.reduced() == poly(-2, 0, -3)  # sign kept
        assert p.primitive() == poly(2, 0, 3)  # positive leading coeff

    def test_reciprocal(self):
        p = poly(0, -4, 1)  # t^2 - 4t
        assert p.reciprocal(2) == poly(1, -4)  # 1 - 4t
        assert p.reciprocal(3) == poly(0, 1, -4)
        with pytest.raises(ValueError):
            p.reciprocal(1)

    def test_exact_div_and_gcd(self):
        p = poly(-4, 1) * poly(1, 1) * poly(1, 1)
        assert exact_div(p, poly(1, 1)) == poly(-4, 1) * poly(1, 1)
        with pytest.raises(ValueError):
            exact_div(poly(1, 1), poly(0, 1))
        g = poly_gcd(poly(-4, 1) * poly(1, 1), poly(-4, 1) * poly(2, 1))
        assert g == poly(-4, 1)


def det_of(matrix):
    (d,) = det_poly_matrix(matrix)
    return d


class TestDeterminant:
    def test_one_by_one(self):
        assert det_poly_matrix([[T]]) == (T,)

    def test_two_by_two_constant(self):
        assert det_poly_matrix([[ZERO, ONE], [ONE, ZERO]]) == (IntPolynomial.const(-1),)

    def test_path3_plain_matrix(self):
        # Hollow 3x3 with t in the single non-adjacent slot: cofactor
        # expansion gives 2t.
        m = [[ZERO, ONE, T], [ONE, ZERO, ONE], [T, ONE, ZERO]]
        assert det_poly_matrix(m) == (poly(0, 2),)

    def test_rejects_high_degree_entries(self):
        with pytest.raises(ValueError):
            det_poly_matrix([[T * T]])

    def test_bareiss_matches_numpy(self, rng):
        # Constant matrices: the determinant polynomial is the integer
        # determinant.
        for _ in range(30):
            n = rng.randrange(1, 7)
            m = [[rng.randrange(-9, 10) for _ in range(n)] for _ in range(n)]
            exact = det_of([[IntPolynomial.const(v) for v in row] for row in m])(0)
            approx = np.linalg.det(np.array(m, dtype=float))
            assert abs(exact - approx) <= 1e-6 * max(1.0, abs(approx))

    def test_matches_float_det_at_random_points(self, rng):
        # Random degree-<=1 matrices, sizes up to 8, coefficients in [-9, 9].
        for _ in range(12):
            n = rng.randrange(1, 9)
            entries = [
                [poly(rng.randrange(-9, 10), rng.randrange(-9, 10)) for _ in range(n)]
                for _ in range(n)
            ]
            d = det_of(entries)
            for _ in range(10):
                x = rng.randrange(-6, 7)
                numeric = np.linalg.det(
                    np.array([[float(p(x)) for p in row] for row in entries])
                )
                exact = float(d(x))
                assert abs(numeric - exact) <= 1e-8 * max(1.0, abs(exact))

    def test_adjugate_column_is_cramer(self, rng):
        # Entry i is the determinant with column i replaced by e_0; the
        # square's bordered matrix has det -4t^2 (t - 2), so x = 0 and 2 are
        # skipped as solve points.  A matrix with det = 0 identically has no
        # nonsingular point, and asking for its adjugate column raises.
        square = [[ZERO, ONE, ONE, ONE, ONE], [ONE, ZERO, ONE, T, ONE],
                  [ONE, ONE, ZERO, ONE, T], [ONE, T, ONE, ZERO, ONE],
                  [ONE, ONE, T, ONE, ZERO]]
        singular = [[T, ONE, T], [ONE, T, ONE], [T, ONE, T]]
        cases = [square, singular]
        for _ in range(12):
            n = rng.randrange(1, 8)
            cases.append([
                [poly(rng.randrange(-9, 10), rng.randrange(-9, 10)) for _ in range(n)]
                for _ in range(n)
            ])
        for m in cases:
            d = det_of(m)
            if d.is_zero:
                with pytest.raises(ValueError):
                    det_poly_matrix(m, 1)
                continue
            e0 = [ONE] + [ZERO] * (len(m) - 1)
            cramer = [
                det_of([row[:i] + [e] + row[i + 1 :] for row, e in zip(m, e0)])
                for i in range(len(m))
            ]
            assert det_poly_matrix(m, len(m)) == (d, *cramer)

    def test_matches_sympy(self, rng):
        sympy = pytest.importorskip("sympy")
        t = sympy.symbols("t")

        def to_sympy(p):
            return sum(c * t**i for i, c in enumerate(p.coeffs))

        for _ in range(5):
            n = rng.randrange(1, 6)
            entries = [
                [poly(rng.randrange(-5, 6), rng.randrange(-5, 6)) for _ in range(n)]
                for _ in range(n)
            ]
            ours = det_of(entries)
            det = sympy.expand(sympy.Matrix([[to_sympy(e) for e in row]
                                             for row in entries]).det())
            expect = sympy.Poly(det, t).all_coeffs() if det != 0 else []
            got = list(reversed(ours.coeffs)) if not ours.is_zero else []
            assert [int(c) for c in expect] == got


class TestSquarefree:
    def test_two_simple_roots(self):
        out = squarefree_decomposition(poly(0, -4, 1))
        assert out == [(poly(0, -4, 1), 1)]

    def test_cube(self):
        assert squarefree_decomposition(poly(0, 0, 0, 1)) == [(poly(0, 1), 3)]

    def test_double_pair(self):
        p = poly(0, -2, 1) ** 2  # t^2 (t-2)^2
        assert squarefree_decomposition(p) == [(poly(0, -2, 1), 2)]

    def test_mixed_multiplicities(self):
        p = poly(-1, 1) * poly(-2, 1) ** 2 * poly(-3, 1) ** 4
        out = squarefree_decomposition(p)
        assert [(f.coeffs, m) for f, m in out] == [
            ((-1, 1), 1),
            ((-2, 1), 2),
            ((-3, 1), 4),
        ]

    def test_constant_input(self):
        assert squarefree_decomposition(IntPolynomial.const(7)) == []
        with pytest.raises(ValueError):
            squarefree_decomposition(ZERO)

    @given(
        st.lists(
            st.tuples(st.integers(-4, 4), st.integers(1, 3)),
            min_size=1,
            max_size=3,
            unique_by=lambda rm: rm[0],
        ),
        st.integers(1, 5),
    )
    @settings(max_examples=60, deadline=None)
    def test_reconstruction(self, roots, lead):
        p = IntPolynomial.const(lead)
        for r, m in roots:
            p = p * poly(-r, 1) ** m
        out = squarefree_decomposition(p)
        # degree bookkeeping: sum of deg(factor) * multiplicity = deg p
        assert sum(f.degree * m for f, m in out) == p.degree
        # multiplicities strictly increasing
        mults = [m for _, m in out]
        assert mults == sorted(set(mults))
        # product reconstructs p up to a constant
        prod = IntPolynomial.const(1)
        for f, m in out:
            prod = prod * f**m
        assert prod.primitive() == p.primitive()
        # factors pairwise coprime and squarefree
        for i, (f, _) in enumerate(out):
            assert poly_gcd(f, f.derivative()).degree == 0
            for h, _ in out[i + 1 :]:
                assert poly_gcd(f, h).degree == 0


class TestRootIsolation:
    def test_simple_quadratic(self):
        root, mult = smallest_root_greater_than(poly(0, -4, 1), 1)
        assert mult == 1
        assert cmp_rational(root, 4) == 0

    def test_family_double_root(self):
        # 2m * t^m * (2-t)^(m-1) at m=3: smallest root above 1 is 2, twice.
        p = IntPolynomial.const(6) * T**3 * poly(2, -1) ** 2
        root, mult = smallest_root_greater_than(p, 1)
        assert mult == 2
        assert cmp_rational(root, 2) == 0

    def test_no_roots(self):
        assert smallest_root_greater_than(IntPolynomial.const(-3), 1) is None
        assert smallest_root_greater_than(poly(1, 0, 1), 0) is None

    def test_root_at_bound_excluded(self):
        # Roots at exactly the bound must not be returned.
        p = poly(-1, 1) * poly(-5, 1)
        root, mult = smallest_root_greater_than(p, 1)
        assert cmp_rational(root, 5) == 0

    def test_picks_smallest_across_factors(self):
        p = poly(-2, 1) ** 3 * poly(-3, 1)
        root, mult = smallest_root_greater_than(p, 1)
        assert cmp_rational(root, 2) == 0 and mult == 3

    def test_enclosure_properties(self, rng):
        for _ in range(40):
            deg = rng.randrange(1, 6)
            p = IntPolynomial.from_coeffs(
                [rng.randrange(-8, 9) for _ in range(deg)] + [rng.randrange(1, 9)]
            )
            bound = Fraction(rng.randrange(-3, 3))
            got = smallest_root_greater_than(p, bound)
            if got is None:
                continue
            root, mult = got
            assert root.lo > bound
            assert count_real_roots(root.defining, root.lo, root.hi) == 1
            assert mult >= 1


class TestRefine:
    def test_rational_root(self):
        a = AlgebraicReal(poly(-4, 1), Fraction(3), Fraction(5))
        r = a.refined(Fraction(1, 100))
        assert r.width <= Fraction(1, 100)
        assert r.lo < 4 < r.hi

    def test_golden_ratio(self):
        a = AlgebraicReal(poly(-1, -1, 1), Fraction(1), Fraction(2))
        r = a.refined(Fraction(1, 10**12))
        assert abs(float(r) - 1.618033988749894) < 1e-11
        assert r.width <= Fraction(1, 10**12)

    def test_idempotent_root_identity(self):
        a = AlgebraicReal(poly(-1, -1, 1), Fraction(1), Fraction(2))
        r1 = a.refined(Fraction(1, 10**6))
        r2 = r1.refined(Fraction(1, 10**9))
        assert r1.compare(r2) == 0
        assert a.compare(r2) == 0

    def test_endpoints_nonroots(self):
        a = AlgebraicReal(poly(-4, 1), Fraction(3), Fraction(5))
        r = a.refined(Fraction(1, 10**6))
        assert r.defining(r.lo) != 0 and r.defining(r.hi) != 0

    def test_float_refines_once(self, monkeypatch):
        a = AlgebraicReal(poly(-1, -1, 1), Fraction(1), Fraction(2))
        calls = []
        refined = AlgebraicReal.refined

        def counting(self, width):
            calls.append(width)
            return refined(self, width)

        monkeypatch.setattr(AlgebraicReal, "refined", counting)
        assert float(a) == float(a) == a.to_float()
        assert abs(float(a) - 1.618033988749894) < 1e-15
        assert len(calls) == 1


class TestAlgebraicCompare:
    def test_same_root_different_defining(self):
        a = AlgebraicReal(poly(-2, 1), Fraction(0), Fraction(5))
        b = AlgebraicReal(poly(-4, 0, 1), Fraction(1), Fraction(3))  # t^2-4
        assert a.compare(b) == 0

    def test_ordering(self):
        a = AlgebraicReal(poly(-2, 1), Fraction(1), Fraction(3))
        b = AlgebraicReal(poly(-3, 1), Fraction(1), Fraction(4))
        assert a.compare(b) == -1
        assert b.compare(a) == 1

    def test_close_roots(self):
        a = AlgebraicReal(poly(-200, 100), Fraction(0), Fraction(10))  # 2
        b = AlgebraicReal(poly(-201, 100), Fraction(0), Fraction(10))  # 2.01
        assert a.compare(b) == -1

    def test_root_of_defining_outside_overlap(self):
        # 2 is a root of b's defining polynomial, outside b's enclosure and
        # so outside the overlap (8/5, 9/5): a zero test of b's defining
        # polynomial at a would call the two equal, the gcd on the overlap
        # does not
        a = AlgebraicReal(poly(-2, 1), Fraction(3, 2), Fraction(5, 2))  # 2
        b = AlgebraicReal(poly(-2, 1) * poly(-3, 0, 1), Fraction(8, 5), Fraction(9, 5))  # sqrt 3
        assert vanishes_at(b.defining, a) is not None
        assert a.compare(b) == sturm_compare(a, b) == 1
        assert b.compare(a) == sturm_compare(b, a) == -1

    def test_disjoint_enclosures_skip_gcd(self, monkeypatch):
        from twodist import polynomials

        def no_gcd(a, b):
            raise AssertionError("gcd computed for disjoint enclosures")

        monkeypatch.setattr(polynomials, "poly_gcd", no_gcd)
        a = AlgebraicReal(poly(-2, 0, 1), Fraction(1), Fraction(3, 2))  # sqrt 2
        b = AlgebraicReal(poly(-3, 0, 1), Fraction(3, 2), Fraction(2))  # sqrt 3
        assert a.compare(b) == -1
        assert b.compare(a) == 1

    def test_cmp_rational(self):
        a = AlgebraicReal(poly(-4, 0, 1), Fraction(1), Fraction(3))  # 2
        assert cmp_rational(a, 2) == 0
        assert cmp_rational(a, Fraction(199, 100)) == 1
        assert cmp_rational(a, Fraction(201, 100)) == -1

    def test_scaled(self):
        a = AlgebraicReal(poly(-1, -1, 1), Fraction(1), Fraction(2))
        b = a.scaled(2)
        assert abs(float(b) - 2 * 1.618033988749894) < 1e-9
        assert is_valid(b)

    def test_reciprocal(self):
        a = AlgebraicReal(poly(-4, 0, 1), Fraction(1), Fraction(3))  # 2
        r = a.reciprocal()
        assert cmp_rational(r, Fraction(1, 2)) == 0
        assert is_valid(r)


class TestMultiplicity:
    def test_cubic_factor(self):
        p = poly(-4, 1) ** 3 * poly(1, 1)
        a = AlgebraicReal(poly(-4, 1), Fraction(3), Fraction(5))
        assert multiplicity_at(p, a) == 3

    def test_no_real_root(self):
        a = AlgebraicReal(poly(-4, 1), Fraction(3), Fraction(5))
        assert multiplicity_at(poly(1, 0, 1), a) == 0

    def test_path3_sum_poly(self):
        # M + C for the 3-path is t^2 - 2t; 4 is not a root, so the
        # squared circumradius there is not exactly 1/2.
        a = AlgebraicReal(poly(-4, 1), Fraction(3), Fraction(5))
        assert multiplicity_at(poly(0, -2, 1), a) == 0

    def test_defining_with_extra_roots(self):
        # The defining polynomial may carry other roots; only the isolated
        # one counts.
        d = poly(-4, 0, 1)  # roots +-2
        a = AlgebraicReal(d, Fraction(1), Fraction(3))  # the root 2
        p = poly(2, 1) ** 5 * poly(-2, 1) ** 2  # (t+2)^5 (t-2)^2
        assert multiplicity_at(p, a) == 2

    @given(st.integers(0, 4), st.integers(1, 4), st.integers(-3, 3))
    @settings(max_examples=40, deadline=None)
    def test_constructed_products(self, k, other_mult, other_root):
        target = poly(-7, 2)  # root 7/2
        if other_root == Fraction(7, 2):
            other_root = 0
        p = poly(-other_root, 1) ** other_mult
        if k:
            p = p * target**k
        a = AlgebraicReal(target, Fraction(3), Fraction(4))
        assert multiplicity_at(p, a) == k


class TestCoprimeShortcut:
    """Polynomials proved coprime modulo a prime share no root: ``poly_gcd``
    then returns 1 from one constant image with no lift, so
    ``multiplicity_at`` and ``compare`` lift no gcd, and decide as before."""

    def count_lifts(self, monkeypatch):
        # the gcd images of positive degree, each of which poly_gcd lifts
        from twodist import polynomials

        calls = []
        original = polynomials._gcd_mod_p

        def image(*args):
            got = original(*args)
            if len(got) > 1:
                calls.append(args)
            return got

        monkeypatch.setattr(polynomials, "_gcd_mod_p", image)
        return calls

    def test_multiplicity_skips_gcd(self, monkeypatch):
        calls = self.count_lifts(monkeypatch)
        a = AlgebraicReal(poly(-2, 0, 1), Fraction(1), Fraction(2))  # sqrt 2
        assert multiplicity_at(poly(-3, 0, 1) ** 2, a) == 0
        assert multiplicity_at(poly(5), a) == 0
        assert not calls
        assert multiplicity_at(poly(-2, 0, 1) ** 2 * poly(1, 1), a) == 2
        assert calls
        # one lifted image for each of the two gcds that find t^2 - 2, of
        # p and of p', none for p'', which is nonzero at sqrt 2
        assert len(calls) == 2

    def test_gcd_of_coprime_pair_is_one(self, monkeypatch):
        calls = self.count_lifts(monkeypatch)
        assert poly_gcd(poly(-2, 0, 1), poly(-3, 0, 1)) == ONE
        assert poly_gcd(poly(6), poly(-2, 0, 1)) == ONE
        assert not calls
        # zero inputs skip the modular test
        assert poly_gcd(poly(-4, 0, 2), ZERO) == poly(-2, 0, 1)
        assert poly_gcd(ZERO, ZERO) == ZERO

    def test_compare_skips_gcd(self, monkeypatch):
        calls = self.count_lifts(monkeypatch)
        a = AlgebraicReal(poly(-2, 0, 1), Fraction(1), Fraction(2))  # sqrt 2
        b = AlgebraicReal(poly(-3, 0, 1), Fraction(1), Fraction(2))  # sqrt 3
        assert a.compare(b) == sturm_compare(a, b) == -1
        assert b.compare(a) == 1
        assert not calls
        c = AlgebraicReal(poly(-2, 0, 1) * poly(-3, 1), Fraction(13, 10), Fraction(3, 2))
        assert a.compare(c) == 0 and calls


    def test_multiplicity_image_skips_modular_test(self, monkeypatch):
        # an interval image of p over the enclosure that excludes 0
        # decides p(a) != 0 before the modular test
        from twodist import polynomials

        calls = []
        original = polynomials._gcd_mod_p
        monkeypatch.setattr(
            polynomials, "_gcd_mod_p", lambda *args: calls.append(args) or original(*args)
        )
        a = AlgebraicReal(poly(-2, 0, 1), Fraction(1), Fraction(2)).refined(Fraction(1, 10**6))
        assert multiplicity_at(poly(-3, 0, 1), a) == 0 and not calls
        assert multiplicity_at(poly(-2, 0, 1) * poly(-3, 0, 1), a) == 1 and calls


class TestModularGcd:
    """``poly_gcd`` combines gcd images modulo primes by the Chinese
    remainder theorem, drops images of too large a degree, and stops when
    the lifted candidate divides both inputs; ``reference.remainder_gcd``
    is an integer remainder sequence that shares none of that."""

    def record_images(self, monkeypatch):
        from twodist import polynomials

        images = []
        original = polynomials._gcd_mod_p

        def image(a, b, p):
            got = original(a, b, p)
            images.append((p, len(got) - 1))
            return got

        monkeypatch.setattr(polynomials, "_gcd_mod_p", image)
        return images

    def test_planted_factors_past_one_prime(self, rng, monkeypatch):
        # common factors with coefficients above 2**61: one image cannot
        # hold the gcd, so several primes are combined
        images = self.record_images(monkeypatch)
        big = 1 << 70
        for _ in range(20):
            common = poly(*[rng.randrange(-big, big) for _ in range(rng.randrange(2, 5))])
            a = common * poly(*[rng.randrange(-9, 10) for _ in range(rng.randrange(2, 5))])
            b = common * poly(*[rng.randrange(-big, big) for _ in range(rng.randrange(2, 4))])
            if a.is_zero or b.is_zero or not common.degree:
                continue
            images.clear()
            got = poly_gcd(a, b)
            assert got == remainder_gcd(a, b)
            exact_div(got, common.primitive())  # the planted factor divides it
            assert max(abs(c) for c in got.coeffs) > _PRIME
            assert len(images) >= 2 and images[0][0] == _PRIME
            assert {d for _, d in images} == {got.degree}

    def test_unlucky_prime_is_dropped(self, monkeypatch):
        from twodist import polynomials

        images = self.record_images(monkeypatch)
        q = 1_000_003  # prime
        primes = polynomials._primes

        def unlucky_first():
            yield q
            yield from primes()

        # modulo q both inputs reduce to (t - 1)(t - 3), though their gcd
        # is t - 1: the first image has degree 2, its lift fails the trial
        # division, and the next image, of degree 1, starts over
        a, b = poly(-1, 1) * poly(-3, 1), poly(-1, 1) * poly(-3 - q, 1)
        monkeypatch.setattr(polynomials, "_primes", unlucky_first)
        assert poly_gcd(a, b) == remainder_gcd(a, b) == poly(-1, 1)
        assert images == [(q, 2), (_PRIME, 1)]

        def unlucky_second():
            first = primes()
            yield next(first)
            yield q
            yield from first

        # a gcd past one prime: the unlucky image after the first is
        # dropped by its degree and never combined
        common = poly(3 << 64, -(5 << 63) - 1, 7 << 62)
        a, b = common * poly(-3, 1), common * poly(-3 - q, 1)
        images.clear()
        monkeypatch.setattr(polynomials, "_primes", unlucky_second)
        got = poly_gcd(a, b)
        assert got == remainder_gcd(a, b) == common.primitive()
        assert images[:2] == [(_PRIME, 2), (q, 3)] and len(images) >= 3
        assert {d for _, d in images[2:]} == {2}


class TestReferenceGcd:
    """The Sturm references take their gcds from a remainder sequence of
    their own (``reference.remainder_gcd``), so a fault in the modular
    coprimality test could not pass the program and its oracles alike."""

    def test_equals_poly_gcd(self, rng):
        planted = 0
        for _ in range(80):
            common = poly(*[rng.randrange(-9, 10) for _ in range(rng.randrange(1, 4))])
            a = common * poly(*[rng.randrange(-9, 10) for _ in range(rng.randrange(2, 5))])
            b = common * poly(*[rng.randrange(-9, 10) for _ in range(rng.randrange(2, 4))])
            if a.is_zero or b.is_zero:
                continue
            got = remainder_gcd(a, b)
            assert got == poly_gcd(a, b)
            if common.degree:
                planted += 1
                exact_div(got, common.primitive())  # the planted factor divides it
        assert planted >= 40
        for a, b in (
            (poly(-2, 0, 1), poly(-3, 0, 1)),
            (poly(6), poly(-2, 0, 1)),
            (poly(-2, 0, 1) * poly(1, 1), poly(-3, 0, 1) * poly(5, 2)),
        ):
            assert remainder_gcd(a, b) == poly_gcd(a, b) == ONE
        assert remainder_gcd(poly(-4, 0, 2), ZERO) == poly_gcd(poly(-4, 0, 2), ZERO)
        assert remainder_gcd(ZERO, ZERO) == ZERO

    def test_split_equals_squarefree_decomposition(self, rng):
        # planted repeated factors, each drawn primitive and squarefree
        # apart from the others only by chance
        planted = 0
        for _ in range(60):
            p = poly(rng.randrange(1, 10))
            for mult in range(1, rng.randrange(2, 5)):
                factor = poly(*[rng.randrange(-9, 10) for _ in range(rng.randrange(2, 4))])
                if not factor.is_zero:
                    p = p * factor**mult
            got = remainder_squarefree(p)
            assert got == squarefree_decomposition(p)
            planted += any(m > 1 for _, m in got)
        assert planted >= 30
        assert remainder_squarefree(poly(6)) == squarefree_decomposition(poly(6)) == []

    def test_references_take_no_modular_test(self, monkeypatch):
        from twodist import polynomials

        def refuse(*args):
            raise AssertionError("a reference took the modular coprimality test")

        sqrt2 = AlgebraicReal(poly(-2, 0, 1), Fraction(1), Fraction(2))
        sqrt3 = AlgebraicReal(poly(-3, 0, 1), Fraction(1), Fraction(2))
        shared = AlgebraicReal(poly(-2, 0, 1) * poly(-3, 1), Fraction(13, 10), Fraction(3, 2))
        f = poly(-2, 0, 1) ** 2 * poly(-3, 0, 1) * poly(-5, 1)
        monkeypatch.setattr(polynomials, "_gcd_mod_p", refuse)
        assert sturm_multiplicity_at(f, sqrt2) == 2
        assert sturm_multiplicity_at(poly(-3, 0, 1), sqrt2) == 0
        assert sturm_compare(sqrt2, sqrt3) == -1 and sturm_compare(sqrt2, shared) == 0
        roots = list(roots_in_window(f, AlgebraicReal(poly(-4, 1), Fraction(3), Fraction(5))))
        assert [cmp_rational(r, 2) for r in roots] == [-1, -1]
        assert sturm_compare(roots[0], sqrt2) == 0 and sturm_compare(roots[1], sqrt3) == 0
        for p, mult in ((poly(-2, 0, 1) * poly(-3, 0, 1), 1), (f, 2)):
            root, got = sturm_smallest_root_greater_than(p, 1)
            assert sturm_compare(root, sqrt2) == 0 and got == mult
        assert remainder_squarefree(f) == [(poly(-3, 0, 1) * poly(-5, 1), 1), (poly(-2, 0, 1), 2)]


class TestNearestFloat:
    """``to_float`` takes two Newton steps from the enclosure's float
    midpoint and accepts when the defining polynomial changes sign across
    the half-ulp boundaries; a tie bisects as before."""

    def count_refined(self, monkeypatch):
        calls = []
        original = AlgebraicReal.refined
        monkeypatch.setattr(
            AlgebraicReal, "refined", lambda *args: calls.append(args) or original(*args)
        )
        return calls

    def numbers(self):
        width = Fraction(1, 10**13)
        out = [
            AlgebraicReal(poly(-k, 0, 1), Fraction(1), Fraction(k)).refined(width)
            for k in range(2, 60)
            if round(k**0.5) ** 2 != k
        ]
        rng = random.Random(11)
        for _ in range(40):
            cubic = poly(rng.randint(-50, 50), rng.randint(-50, 50), rng.randint(-9, 9), 1)
            while (got := smallest_root_greater_than(cubic, -100)) is None:
                cubic = cubic + poly(1)
            out.append(got[0].refined(width))
        # a defining polynomial with a double root elsewhere
        out.append(AlgebraicReal(poly(-2, 0, 1) * poly(-5, 1) ** 2, Fraction(1), Fraction(2)).refined(width))
        return out

    def test_newton_without_refinement(self, monkeypatch):
        numbers = self.numbers()
        expect = []
        for a in numbers:
            narrow = a.refined(Fraction(1, 2**90))
            assert float(narrow.lo) == float(narrow.hi)
            expect.append(float(narrow.lo))
        calls = self.count_refined(monkeypatch)
        assert [a.to_float() for a in numbers] == expect
        assert calls == []

    def test_tie_bisects_to_even(self, monkeypatch):
        calls = self.count_refined(monkeypatch)
        for num in (2**53 + 1, 2**53 + 3):  # halfway between two floats
            root = Fraction(num, 2**53)
            a = AlgebraicReal(poly(-num, 2**53), root - Fraction(1, 2**44), root + Fraction(1, 2**44))
            assert a.to_float() == float(root)  # rounded half to even
        assert float(Fraction(2**53 + 1, 2**53)) == 1.0 and calls


def isolated_roots(d):
    """Every real root of the squarefree d, by Sturm isolation."""
    roots, bound = [], -d.root_bound()
    while (got := sturm_smallest_root_greater_than(d, bound)) is not None:
        roots.append(got[0])
        bound = got[0].hi
    return roots


class TestSignDecisions:
    """``multiplicity_at`` and ``compare`` decide a root of a gcd in an
    enclosure by a sign change; Sturm counts decide the same."""

    def squarefree(self, rng, shared):
        """A squarefree product of ``shared`` and a few random factors."""
        while True:
            d = shared
            for _ in range(rng.randrange(1, 4)):
                d = d * rng.choice([
                    poly(-rng.randrange(-9, 10), rng.randrange(1, 4)),
                    poly(-rng.randrange(2, 30), 0, rng.randrange(1, 3)),
                    poly(1, -1, 1),
                ])
            if poly_gcd(d, d.derivative()).degree == 0:
                return d.primitive()

    def narrowed(self, rng, a):
        return a.refined(a.width / rng.choice([1, 3, 16, 1000]))

    def test_sqrt2_from_two_defining_polynomials(self):
        a = AlgebraicReal(poly(-2, 0, 1), Fraction(1), Fraction(2))
        b = AlgebraicReal(poly(-2, 0, 1) * poly(-3, 1), Fraction(13, 10), Fraction(3, 2))
        assert a.compare(b) == b.compare(a) == sturm_compare(a, b) == 0
        c = AlgebraicReal(poly(-3, 0, 1) * poly(-3, 1), Fraction(3, 2), Fraction(2))
        assert a.compare(c) == sturm_compare(a, c) == -1
        p = poly(-2, 0, 1) ** 3 * poly(-3, 1)
        assert multiplicity_at(p, a) == multiplicity_at(p, b) == sturm_multiplicity_at(p, b) == 3
        assert multiplicity_at(p, c) == sturm_multiplicity_at(p, c) == 0  # sqrt 3

    def test_random_divisors_match_sturm(self, rng):
        shared_factors = [poly(-2, 0, 1), poly(-7, 3), poly(-5, 0, 2) * poly(1, 1)]
        equal = multiple = 0
        for _ in range(25):
            shared = rng.choice(shared_factors)
            d1, d2 = self.squarefree(rng, shared), self.squarefree(rng, shared)
            roots1, roots2 = isolated_roots(d1), isolated_roots(d2)
            for a in roots1:
                a = self.narrowed(rng, a)
                p = IntPolynomial.const(rng.choice([-2, 1, 3]))
                for f, _ in squarefree_decomposition(d1 * d2):
                    p = p * f ** rng.randrange(0, 4)
                got = multiplicity_at(p, a)
                assert got == sturm_multiplicity_at(p, a)
                multiple += got > 1
                for b in roots2:
                    b = self.narrowed(rng, b)
                    got = a.compare(b)
                    assert got == sturm_compare(a, b) == -b.compare(a)
                    equal += got == 0
        assert equal >= 20 and multiple >= 20


class TestSignAt:
    def test_signs_at_sqrt2(self):
        a = AlgebraicReal(poly(-2, 0, 1), Fraction(1), Fraction(2))
        assert sign_at(poly(-2, 0, 1) * poly(5, 1), a) == 0
        assert sign_at(poly(-1, 1), a) == 1
        # 1414213562373095 / 10^15 is below sqrt 2 by about 5e-17
        assert sign_at(poly(-1414213562373095, 10**15), a) == 1
        assert sign_at(poly(1414213562373096, -(10**15)), a) == 1
        assert sign_at(poly(-1414213562373096, 10**15), a) == -1
        assert sign_at(ZERO, a) == 0


class TestSturm:
    def test_count_roots(self):
        p = poly(0, -4, 1)  # roots 0, 4
        assert count_real_roots(p, Fraction(-1), Fraction(5)) == 2
        assert count_real_roots(p, Fraction(1), Fraction(5)) == 1
        assert count_real_roots(p, Fraction(1), Fraction(3)) == 0

    def test_repeated_roots_counted_once(self):
        p = poly(-1, 1) ** 4
        assert count_real_roots(p, Fraction(0), Fraction(2)) == 1

    def test_requires_nonroot_endpoints(self):
        with pytest.raises(ValueError):
            count_real_roots(poly(0, 1), Fraction(0), Fraction(1))

    def test_chain_reuse(self):
        chain = SturmChain(poly(-2, 0, 1) * poly(-3, 0, 1))
        assert chain.count(Fraction(1), Fraction(2)) == 2  # sqrt2, sqrt3


def fraction_horner(p, x):
    """Reference value of p at a rational x, in Fraction arithmetic."""
    acc = Fraction(0)
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


def sign(v):
    return (v > 0) - (v < 0)


def random_product(rng):
    """A random integer polynomial with rational roots, some repeated, an
    irreducible quadratic now and then, and a leading coefficient of
    either sign."""
    p = IntPolynomial.const(rng.choice([-3, -2, -1, 1, 2, 5]))
    for _ in range(rng.randrange(1, 5)):
        root = poly(-rng.randrange(-12, 13), rng.randrange(1, 5))  # b t - a
        p = p * root ** rng.randrange(1, 4)
    if rng.random() < 0.5:
        p = p * poly(-rng.randrange(1, 30), 0, rng.randrange(1, 4))  # c t^2 - k
    return p


class TestIntegerKernel:
    def test_sturm_counts_match_sympy(self, rng):
        sympy = pytest.importorskip("sympy")
        t = sympy.symbols("t")
        checked = negative_lead = repeated = 0
        for _ in range(30):
            p = random_product(rng)
            negative_lead += p.coeffs[-1] < 0
            repeated += poly_gcd(p, p.derivative()).degree > 0
            chain = SturmChain(p)
            reference = sympy.Poly(list(reversed(p.coeffs)), t)
            for _ in range(6):
                lo = Fraction(rng.randrange(-40, 40), rng.choice([1, 3, 7, 9, 10]))
                hi = lo + Fraction(rng.randrange(1, 60), rng.choice([1, 3, 5, 11]))
                if fraction_horner(p, lo) == 0 or fraction_horner(p, hi) == 0:
                    continue
                expect = reference.count_roots(
                    sympy.Rational(lo.numerator, lo.denominator),
                    sympy.Rational(hi.numerator, hi.denominator),
                )
                assert chain.count(lo, hi) == expect
                assert count_real_roots(p, lo, hi) == expect
                checked += 1
        assert checked >= 100 and negative_lead >= 5 and repeated >= 5

    def test_poly_rem_is_positive_multiple(self, rng):
        sympy = pytest.importorskip("sympy")
        t = sympy.symbols("t")

        def rational_rem(a, b):
            r = sympy.rem(
                sympy.Poly(list(reversed(a.coeffs)), t),
                sympy.Poly(list(reversed(b.coeffs)), t),
                domain=sympy.QQ,
            )
            return [Fraction(int(c.p), int(c.q)) for c in reversed(r.all_coeffs())]

        cases = [(poly(2, 0, 0, 1), poly(1, 3, -2))]  # b = -2t^2 + 3t + 1
        for _ in range(30):
            a = IntPolynomial.from_coeffs(
                [rng.randrange(-20, 21) for _ in range(rng.randrange(3, 9))] + [1]
            )
            b = IntPolynomial.from_coeffs(
                [rng.randrange(-20, 21) for _ in range(rng.randrange(1, 5))]
                + [rng.choice([-7, -3, -1, 2, 5])]
            )
            cases.append((a, b))
        assert sum(b.coeffs[-1] < 0 for _, b in cases) >= 5
        for a, b in cases:
            got, expect = poly_rem(a, b), rational_rem(a, b)
            if not any(expect):
                assert got.is_zero
                continue
            while expect[-1] == 0:
                expect.pop()
            ratio = got.coeffs[-1] / expect[-1]
            assert ratio > 0
            assert list(got.coeffs) == [ratio * c for c in expect]
            assert got.content() == 1

    def test_integer_sign_matches_fraction_horner(self, rng):
        zeros = 0
        for _ in range(300):
            p = IntPolynomial.from_coeffs(
                [rng.randrange(-50, 51) for _ in range(rng.randrange(1, 10))]
            )
            x = Fraction(rng.randrange(-10**6, 10**6), rng.randrange(1, 10**4))
            if rng.random() < 0.2:
                p = p * poly(-x.numerator, x.denominator)  # x is a root
            expect = fraction_horner(p, x)
            zeros += expect == 0
            assert sign(p.homogeneous(x.numerator, x.denominator)) == sign(expect)
            value = p(x)
            assert isinstance(value, Fraction) and value == expect
        assert zeros >= 20

    def test_interpolation_from_any_distinct_nodes(self, rng):
        for _ in range(30):
            p = IntPolynomial.from_coeffs(
                [rng.randrange(-10**12, 10**12) for _ in range(rng.randrange(1, 12))]
            )
            # shuffled, negative and gapped nodes, sometimes more than needed
            nodes = rng.sample(range(-40, 40), len(p.coeffs) + rng.randrange(3))
            values = [sum(c * x**i for i, c in enumerate(p.coeffs)) for x in nodes]
            assert _interpolate_integer(nodes, values) == p
        assert _interpolate_integer([5, -3], [0, 0]) == ZERO
        with pytest.raises(ValueError):
            _interpolate_integer([0, 2], [0, 1])  # t / 2
        with pytest.raises(ValueError):
            _interpolate_integer([1, 0, -1], [1, 0, 0])  # (t^2 + t) / 2

    def test_isolation_matches_sturm_reference(self, rng):
        # Random products, some times a rational root at the bound, some
        # times complex pairs t^2 + 1 and t^2 - t + 1.  Two products put a
        # rational root on a grid midpoint: t (t + 4)(t - 2) from -3 (the
        # grid (-3, 9) halves to (-3, 3), whose midpoint 0 is the answer)
        # and (t - 1)(t - 2) from 0 (midpoint 2 of (0, 4), the answer 1
        # left of it).  Both routes isolate the root on p's squarefree part.
        # Descartes counts are exact on a real-rooted product, so its
        # enclosure is the Sturm route's own; next to complex roots a count
        # may exceed the root count and bisection go on, and the enclosure
        # is of the same root of the same factor.
        cases = [(T * poly(4, 1) * poly(-2, 1), Fraction(-3)), (poly(-1, 1) * poly(-2, 1), Fraction(0))]
        for _ in range(150):
            p = random_product(rng)
            bound = Fraction(rng.randrange(-12, 13), rng.randrange(1, 5))
            if rng.random() < 0.4:
                p = p * poly(-bound.numerator, bound.denominator) ** rng.randrange(1, 3)
            for _ in range(rng.choice([0, 0, 1, 2])):
                p = p * rng.choice([poly(1, 0, 1), poly(1, -1, 1)])
            cases.append((p, bound))
        same = at_bound = complex_roots = repeated = 0
        for p, bound in cases:
            got = smallest_root_greater_than(p, bound)
            expect = sturm_smallest_root_greater_than(p, bound)
            if expect is None:
                assert got is None
                continue
            root, mult = got
            assert mult == expect[1] == sturm_multiplicity_at(p, root)
            assert root.defining == expect[0].defining
            assert root.compare(expect[0]) == 0 and root.lo > bound and is_valid(root)
            f = exact_div(p, poly_gcd(p, p.derivative()))
            assert count_real_roots(f, root.lo, root.hi) == 1  # isolated among p's roots
            real_rooted = count_real_roots(f, -f.root_bound(), f.root_bound()) == f.degree
            assert got == expect or not real_rooted
            same += got == expect
            at_bound += p(bound) == 0
            complex_roots += not real_rooted
            repeated += poly_gcd(p, p.derivative()).degree > 0
        assert same >= 80 and at_bound >= 30 and complex_roots >= 30 and repeated >= 50

    def test_exact_div_integral_only(self):
        assert exact_div(poly(-4, 0, 1), poly(2, 1)) == poly(-2, 1)
        assert exact_div(poly(-2, 3, 2), poly(-1, 2)) == poly(2, 1)
        with pytest.raises(ValueError):
            exact_div(poly(1, 1), poly(2, 2))  # quotient 1/2
        with pytest.raises(ValueError):
            exact_div(poly(0, 0, 1), poly(0, 2))  # quotient t/2, remainder 0
        with pytest.raises(ValueError):
            exact_div(poly(1, 0, 1), poly(1, 1))  # remainder 2


def open_count(reference, sympy, lo, hi):
    """Roots of a sympy polynomial in the open interval (lo, hi), with
    multiplicity, from ``count_roots`` on its squarefree factors."""
    total = 0
    for factor, mult in reference.sqf_list()[1]:
        inside = int(factor.count_roots(lo, hi))
        inside -= (factor.eval(lo) == 0) + (factor.eval(hi) == 0)
        total += mult * inside
    return total


class TestDescartes:
    def linear_product(self, rng):
        """A random product of rational linear factors, some repeated."""
        p = IntPolynomial.const(rng.choice([-3, -1, 1, 2]))
        for _ in range(rng.randrange(1, 6)):
            p = p * poly(-rng.randrange(-12, 13), rng.randrange(1, 5)) ** rng.randrange(1, 3)
        return p

    def intervals(self, rng, p):
        """Random intervals, about half with an endpoint at a root of p."""
        roots = [Fraction(-f.coeffs[0], f.coeffs[1]) for f, _ in squarefree_decomposition(p)
                 if f.degree == 1]
        for _ in range(8):
            lo = Fraction(rng.randrange(-40, 40), rng.choice([1, 3, 4, 7]))
            if roots and rng.random() < 0.5:
                lo = rng.choice(roots)
            hi = lo + Fraction(rng.randrange(1, 60), rng.choice([1, 2, 5, 11]))
            if roots and rng.random() < 0.3:
                hi = max(roots) if max(roots) > lo else hi
            yield lo, hi

    def test_exact_on_linear_products(self, rng):
        sympy = pytest.importorskip("sympy")
        t = sympy.symbols("t")
        checked = at_root = 0
        for _ in range(40):
            p = self.linear_product(rng)
            reference = sympy.Poly(list(reversed(p.coeffs)), t)
            for lo, hi in self.intervals(rng, p):
                slo = sympy.Rational(lo.numerator, lo.denominator)
                shi = sympy.Rational(hi.numerator, hi.denominator)
                at_root += p(lo) == 0 or p(hi) == 0
                assert descartes_count(p, lo, hi) == open_count(reference, sympy, slo, shi)
                checked += 1
            # (lo, inf): above every root there is nothing left to count
            lo = Fraction(rng.randrange(-15, 15), rng.choice([1, 2, 3]))
            above = open_count(reference, sympy, sympy.Rational(lo.numerator, lo.denominator),
                               sympy.Integer(10**6))
            assert descartes_count(p, lo) == above
        assert checked >= 250 and at_root >= 60

    def test_upper_bound_with_parity(self, rng):
        sympy = pytest.importorskip("sympy")
        t = sympy.symbols("t")
        loose = 0
        for _ in range(40):
            p = random_product(rng)
            for _ in range(rng.randrange(1, 3)):  # complex pairs (t - a)^2 + b
                a, b = rng.randrange(-6, 7), rng.randrange(1, 5)
                p = p * poly(a * a + b, -2 * a, 1)
            reference = sympy.Poly(list(reversed(p.coeffs)), t)
            for _ in range(6):
                lo = Fraction(rng.randrange(-20, 20), rng.choice([1, 2, 3]))
                hi = lo + Fraction(rng.randrange(1, 40), rng.choice([1, 2, 7]))
                true = open_count(reference, sympy, sympy.Rational(lo.numerator, lo.denominator),
                                  sympy.Rational(hi.numerator, hi.denominator))
                got = descartes_count(p, lo, hi)
                assert got >= true and (got - true) % 2 == 0
                loose += got > true
        assert loose >= 5

    def test_endpoints_excluded(self):
        p = poly(-1, 1) * poly(-2, 1) * poly(-3, 1)  # roots 1, 2, 3
        assert descartes_count(p, 1, 3) == 1
        assert descartes_count(p, 1, 2) == 0
        assert descartes_count(p, Fraction(1, 2), 2) == 1
        assert descartes_count(p, 1) == 2
        assert descartes_count(p, 3) == 0
        assert descartes_count(poly(0, 0, 1), -1, 1) == 2  # t^2, double root 0
        with pytest.raises(ValueError):
            descartes_count(ZERO, 0, 1)


class TestModularSquarefree:
    def test_matches_sympy_sqf_list(self, rng):
        sympy = pytest.importorskip("sympy")
        t = sympy.symbols("t")
        repeated = shortcut = 0
        for _ in range(60):
            p = IntPolynomial.const(rng.choice([-2, 1, 3]))
            for _ in range(rng.randrange(1, 5)):
                factor = poly(*[rng.randrange(-9, 10) for _ in range(rng.randrange(2, 4))])
                if factor.degree:
                    p = p * factor ** rng.choice([1, 1, 1, 2, 3])
            if not p.degree:
                continue
            f = p.primitive()
            shortcut += coprime_mod_prime(f, f.derivative())
            got = squarefree_decomposition(p)
            expect = []
            for factor, mult in sympy.Poly(list(reversed(p.coeffs)), t).sqf_list()[1]:
                coeffs = [int(c) for c in reversed(factor.all_coeffs())]
                expect.append((IntPolynomial.from_coeffs(coeffs).primitive(), mult))
            expect = [fm for fm in expect if fm[0].degree]
            assert sorted(got, key=lambda fm: fm[1]) == sorted(expect, key=lambda fm: fm[1])
            repeated += any(m > 1 for _, m in got)
        assert repeated >= 10 and shortcut >= 10

    def test_modular_test_is_sound(self, rng):
        for _ in range(50):
            g = poly(rng.randrange(-9, 10), rng.randrange(1, 9))
            a = g * poly(*[rng.randrange(-9, 10) for _ in range(4)])
            b = g * poly(*[rng.randrange(-9, 10) for _ in range(3)])
            if a.degree and b.degree:
                assert not coprime_mod_prime(a, b)
        # coprime pairs: decided, unless the prime divides a leading coefficient
        assert coprime_mod_prime(poly(-2, 0, 1), poly(0, 2))
        assert not coprime_mod_prime(poly(-2, 0, _PRIME), poly(0, 2 * _PRIME))
        assert squarefree_decomposition(poly(-2, 0, _PRIME)) == [(poly(-2, 0, _PRIME), 1)]
