import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from twodist.polynomials import (
    AlgebraicReal,
    IntPolynomial,
    SturmChain,
    bareiss_determinant,
    count_real_roots,
    det_poly_matrix,
    exact_div,
    multiplicity_at,
    poly_gcd,
    smallest_root_greater_than,
    squarefree_decomposition,
)

T = IntPolynomial.x()
ONE = IntPolynomial.const(1)
ZERO = IntPolynomial.zero()


def poly(*coeffs):
    return IntPolynomial.from_coeffs(coeffs)


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
        lo, hi = p.eval_interval(Fraction(-1), Fraction(2))
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


class TestDeterminant:
    def test_one_by_one(self):
        assert det_poly_matrix([[T]]) == T

    def test_two_by_two_constant(self):
        assert det_poly_matrix([[ZERO, ONE], [ONE, ZERO]]) == IntPolynomial.const(-1)

    def test_path3_plain_matrix(self):
        # Hollow 3x3 with t in the single non-adjacent slot: cofactor
        # expansion gives 2t.
        m = [[ZERO, ONE, T], [ONE, ZERO, ONE], [T, ONE, ZERO]]
        assert det_poly_matrix(m) == poly(0, 2)

    def test_rejects_high_degree_entries(self):
        with pytest.raises(ValueError):
            det_poly_matrix([[T * T]])

    def test_bareiss_matches_numpy(self, rng):
        for _ in range(30):
            n = rng.randrange(1, 7)
            m = [[rng.randrange(-9, 10) for _ in range(n)] for _ in range(n)]
            exact = bareiss_determinant(m)
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
            d = det_poly_matrix(entries)
            for _ in range(10):
                x = rng.randrange(-6, 7)
                numeric = np.linalg.det(
                    np.array([[float(p(x)) for p in row] for row in entries])
                )
                exact = float(d(x))
                assert abs(numeric - exact) <= 1e-8 * max(1.0, abs(exact))

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
            ours = det_poly_matrix(entries)
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
        assert root.cmp_rational(4) == 0

    def test_family_double_root(self):
        # 2m * t^m * (2-t)^(m-1) at m=3: smallest root above 1 is 2, twice.
        p = IntPolynomial.const(6) * T**3 * poly(2, -1) ** 2
        root, mult = smallest_root_greater_than(p, 1)
        assert mult == 2
        assert root.cmp_rational(2) == 0

    def test_no_roots(self):
        assert smallest_root_greater_than(IntPolynomial.const(-3), 1) is None
        assert smallest_root_greater_than(poly(1, 0, 1), 0) is None

    def test_root_at_bound_excluded(self):
        # Roots at exactly the bound must not be returned.
        p = poly(-1, 1) * poly(-5, 1)
        root, mult = smallest_root_greater_than(p, 1)
        assert root.cmp_rational(5) == 0

    def test_picks_smallest_across_factors(self):
        p = poly(-2, 1) ** 3 * poly(-3, 1)
        root, mult = smallest_root_greater_than(p, 1)
        assert root.cmp_rational(2) == 0 and mult == 3

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

    def test_cmp_rational(self):
        a = AlgebraicReal(poly(-4, 0, 1), Fraction(1), Fraction(3))  # 2
        assert a.cmp_rational(2) == 0
        assert a.cmp_rational(Fraction(199, 100)) == 1
        assert a.cmp_rational(Fraction(201, 100)) == -1

    def test_scaled(self):
        a = AlgebraicReal(poly(-1, -1, 1), Fraction(1), Fraction(2))
        b = a.scaled(2)
        assert abs(float(b) - 2 * 1.618033988749894) < 1e-9
        assert b.is_valid()

    def test_reciprocal(self):
        a = AlgebraicReal(poly(-4, 0, 1), Fraction(1), Fraction(3))  # 2
        r = a.reciprocal()
        assert r.cmp_rational(Fraction(1, 2)) == 0
        assert r.is_valid()


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
