import functools
import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from conftest import (
    clebsch,
    embed16_pool,
    joins12_corpus,
    paley,
    random_graph,
    schlafli,
    triangular,
)
from twodist.config import get_config, override
from twodist.errors import CompleteGraphError, SizeLimitError
from twodist.graphs import (
    Graph,
    MultipartiteSignature,
    canonical_form,
    complement,
    complement_components,
    complete_multipartite,
    enumerate_graphs,
    is_disjoint_clique_union,
    is_strongly_regular,
    join,
    parse_graph6,
    to_graph6,
)
from twodist import geometry, invariants, polynomials
from twodist.cli import _enclosure, analysis_record, main
from twodist.invariants import (
    RSquared,
    circumradius_invariant,
    cm_polynomials,
    dim_s_bounded,
    feasible_interval,
    profile,
    tau0,
    tau1_mu,
)
from twodist.polynomials import (
    AlgebraicReal,
    IntPolynomial,
    det_poly_matrix,
    multiplicity_at,
    poly_gcd,
    poly_rem,
    squarefree_decomposition,
)
from reference import (
    bordered_matrix,
    cmp_rational,
    is_valid,
    packed_cm,
    packed_walk_data,
    remainder_gcd,
    sturm_multiplicity_at,
    sturm_smallest_root_greater_than,
    walk_adjugate,
)


def poly(*coeffs):
    return IntPolynomial.from_coeffs(coeffs)


def cross_polytope_graph(m):
    return complete_multipartite(MultipartiteSignature((2,) * m))


def cross_polytope_poly(m):
    # 2m * t^m * (2 - t)^(m-1), expanded with exact ring arithmetic
    t = IntPolynomial.x()
    return IntPolynomial.const(2 * m) * t**m * poly(2, -1) ** (m - 1)


class TestCmPolynomials:
    def test_path3(self):
        c, m = cm_polynomials(Graph.path(3))
        assert c == poly(0, -4, 1)  # t^2 - 4t
        assert m == poly(0, 2)  # 2t

    def test_triangle(self):
        c, m = cm_polynomials(Graph.complete(3))
        assert c == IntPolynomial.const(-3)
        # all distances are 1, so M is the constant det of the hollow ones matrix
        assert m == IntPolynomial.const(2)

    def test_square(self):
        c, m = cm_polynomials(cross_polytope_graph(2))
        assert c == poly(0, 0, 8, -4)
        assert m == poly(0, 0, -4, 0, 1)  # t^4 - 4t^2

    def test_cross_polytope_family(self):
        for m_parts in (2, 3, 4):
            c, _ = cm_polynomials(cross_polytope_graph(m_parts))
            assert c == cross_polytope_poly(m_parts)

    def test_single_vertex(self):
        c, m = cm_polynomials(Graph.empty(1))
        assert c == IntPolynomial.const(-1)
        assert m.is_zero

    def test_degree_bounds(self, rng):
        for _ in range(25):
            n = rng.randrange(1, 8)
            g = random_graph(rng, n)
            c, m = cm_polynomials(g)
            assert c.degree is None or c.degree <= n - 1
            assert m.is_zero or m.degree <= n

    def test_value_at_one_never_zero(self, rng):
        # At t = 1 the configuration is the regular simplex.
        for _ in range(20):
            g = random_graph(rng, rng.randrange(2, 8))
            c, m = cm_polynomials(g)
            assert c(1) != 0
            assert m(1) != 0


class TestSpectralRoute:
    """C and M from the adjacency's characteristic and walk polynomials,
    against the per-point Bareiss elimination of B; and that elimination's
    adj(B) e_0, ``solve_phi``'s route, against the walk vectors'
    (``reference.walk_adjugate``)."""

    def test_cm_all_small_graphs(self):
        count = 0
        for n in range(1, 8):
            for g in enumerate_graphs(n):
                assert cm_polynomials(g) == det_poly_matrix(bordered_matrix(g), 1), g
                count += 1
        assert count == 1252

    def test_adjugate_column_small_graphs(self):
        for n in range(1, 8):
            graphs = enumerate_graphs(n)
            for g in graphs if n <= 5 else graphs[::25]:
                assert det_poly_matrix(bordered_matrix(g), n + 1) == walk_adjugate(g), g

    def test_adjugate_column_sixteen_vertices(self, rng):
        graphs = [random_graph(rng, 16) for _ in range(3)]
        for g in graphs:
            assert det_poly_matrix(bordered_matrix(g), 17) == walk_adjugate(g)
        for g in graphs:
            # solve_phi's bordered matrix of a support, in the support's order
            support = tuple(sorted(rng.sample(range(16), 9)))
            got = geometry._bordered_adjugate(g, support)
            assert got == walk_adjugate(g.induced(support)), (g, support)

    def test_single_vertex(self):
        one = IntPolynomial.const(1)
        assert walk_adjugate(Graph.empty(1)) == (-one, IntPolynomial.zero(), -one)
        assert walk_adjugate(Graph.empty(1)) == det_poly_matrix(
            bordered_matrix(Graph.empty(1)), 2
        )

    def test_newton_exact(self):
        # The triangle: tr A^k = 3, 0, 6, 6, so det(xI - A) = x^3 - 3x - 2.
        assert invariants._newton([3, 0, 6, 6]) == [1, 0, -3, -2]

    def test_newton_remainder_raises(self):
        # s_1 = 1, s_2 = 0 gives 2 c_2 = 1, which no integer matrix has.
        with pytest.raises(ValueError, match="remainder"):
            invariants._newton([2, 1, 0])

    def test_clear_caches_empties_walk_data(self):
        cm_polynomials(Graph.cycle(6))
        assert invariants._walk_data.cache_info().currsize > 0
        invariants.clear_caches()
        assert invariants._walk_data.cache_info().currsize == 0
        assert cm_polynomials.cache_info().currsize == 0

    def test_clear_caches_empties_every_cache(self):
        # every lru_cache defined in the module, found by introspection,
        # but the walk kernel's moduli, a pure function of (n, d) that
        # clear_caches keeps
        caches = [
            fn
            for fn in vars(invariants).values()
            if hasattr(fn, "cache_clear")
            and getattr(fn, "__module__", None) == invariants.__name__
            and fn is not invariants._moduli
        ]
        assert {"_walk_data", "_spectrum", "profile"} <= {fn.__name__ for fn in caches}
        invariants.clear_caches()
        try:
            # P3 = K_{1,2} is a join: it fills join_decompose's cache
            for g in (Graph.cycle(5), Graph.path(4), Graph.petersen(), Graph.path(3)):
                profile(g).tau0  # certified on first access, into tau0's cache
            assert all(fn.cache_info().currsize > 0 for fn in caches)
            kept = invariants._moduli.cache_info().currsize
            assert kept > 0
        finally:
            invariants.clear_caches()
        assert [fn.__name__ for fn in caches if fn.cache_info().currsize] == []
        assert invariants._moduli.cache_info().currsize == kept


@functools.lru_cache(maxsize=None)
def graphs_up_to_7():
    return tuple(g for n in range(1, 8) for g in enumerate_graphs(n))


@functools.lru_cache(maxsize=None)
def joins_up_to_7():
    return tuple(g for g in graphs_up_to_7() if len(complement_components(g)) > 1)


def product(polys):
    return functools.reduce(lambda p, q: p * q, polys, IntPolynomial.const(1))


class TestWalkKernel:
    """``_walk_data``'s float64 kernel against the packed-integer oracle
    (``reference.packed_walk_data``), and closed forms of C and M on graphs
    that reach each of its paths: no moduli (n d^n <= 2^53: every graph
    with n <= 13, and the empty graphs), moduli with a reduction every few
    powers (K_n from n = 14 on, the pool, G(n, 1/2) past 16 vertices), and
    powers read in several chunks (K_n from n = 26 on, G(n, 1/2) from
    n = 32 on)."""

    @staticmethod
    def assert_matches_oracle(g):
        ref_c, ref_w, _ = packed_walk_data(g)
        assert invariants._walk_data(g) == (ref_c, ref_w), g

    def test_matches_packed_oracle(self):
        graphs = graphs_up_to_7() + tuple(embed16_pool()) + tuple(joins12_corpus(60))
        assert len(graphs) == 1252 + 500 + 60
        invariants.clear_caches()
        try:
            for g in graphs:
                self.assert_matches_oracle(g)
        finally:
            invariants.clear_caches()

    def test_matches_packed_oracle_up_to_64_vertices(self):
        rng = random.Random(24)
        with override(max_n=70):
            for n in (20, 24, 32, 48, 62, 64):
                for _ in range(2):
                    g = random_graph(rng, n)
                    assert invariants._moduli(n, max(g.degrees()))[0], g
                    self.assert_matches_oracle(g)
        invariants.clear_caches()

    def test_moduli_only_past_the_float_range(self):
        # n d^n <= 2^53 for every graph with n <= 13; K_14 is past it
        assert all(invariants._moduli(n, n - 1)[0] == () for n in range(1, 14))
        moduli, m, basis = invariants._moduli(14, 13)
        assert len(moduli) == 2 and m > 14 * 13**14
        for p, b in zip(moduli, basis):
            assert 14**2 * 13 * p <= 2**53 and p < 2**32
            assert all(b % q == (q == p) for q in moduli)
        # past n^2 d = 2^21 the primes shrink below 2^32
        moduli, m, _ = invariants._moduli(200, 199)
        assert max(moduli) <= 2**53 // (200**2 * 199) < 2**32 and m > 200 * 199**200

    def test_clear_caches_keeps_moduli(self, capsys, tmp_path):
        # batch clears the invariants after every word, but each size's
        # primes are searched for once, and its output does not change
        words = [to_graph6(g) for g in embed16_pool()[:4]]
        assert all(invariants._moduli(16, max(parse_graph6(w).degrees()))[0] for w in words)
        path = tmp_path / "pool.g6"
        path.write_text("\n".join(words) + "\n")
        invariants._moduli.cache_clear()
        assert main(["batch", str(path)]) == 0
        cold, searched = capsys.readouterr().out, invariants._moduli.cache_info()
        assert main(["batch", str(path)]) == 0
        warm, again = capsys.readouterr().out, invariants._moduli.cache_info()
        assert again.currsize == searched.currsize > 0
        assert again.misses == searched.misses and again.hits > searched.hits
        assert warm == cold and len(cold.splitlines()) == len(words)

    def test_past_the_exact_range_raises_size_limit(self):
        # n^2 d p <= 2^53 leaves primes below 9 here, whose product is far
        # below n d^n: no modulus set keeps the counts exact
        with pytest.raises(SizeLimitError, match="too few primes"):
            invariants._moduli(10**5, 10**5 - 1)

    def test_past_the_exact_range_exits_size_limit(self, monkeypatch, capsys):
        # 2^12 stands in for 2^53: K_10 then needs primes p with
        # 10^2 * 9 * p <= 2^12, and 3 alone cannot hold 10 * 9^10.  K_10
        # is a join of single vertices, so cm_polynomials never runs the
        # kernel on it; the complement of C_10 (D = 7) is connected and
        # co-connected, and 5 * 3 cannot hold 10 * 7^10
        # clear_caches keeps _moduli, which reads _EXACT: clear it too
        monkeypatch.setattr(invariants, "_EXACT", 1 << 12)
        invariants.clear_caches()
        invariants._moduli.cache_clear()
        try:
            with pytest.raises(SizeLimitError, match="too few primes"):
                invariants._walk_data(Graph.complete(10))
            g = complement(Graph.cycle(10))
            with pytest.raises(SizeLimitError, match="too few primes"):
                cm_polynomials(g)
            assert main(["analyze", to_graph6(g)]) == 3
            assert "size limit" in capsys.readouterr().err
        finally:
            invariants.clear_caches()
            invariants._moduli.cache_clear()

    def test_complete_and_empty_closed_forms(self):
        t = IntPolynomial.x()
        with override(max_n=70):
            invariants.clear_caches()
            try:
                for n in range(1, 71):
                    sign = (-1) ** n
                    c, m = cm_polynomials(Graph.complete(n))
                    assert (c, m) == (poly(sign * n), poly(-sign * (n - 1))), n
                    c, m = cm_polynomials(Graph.empty(n))
                    assert c == (t ** (n - 1)).scale(sign * n), n
                    assert m == (t**n).scale(-sign * (n - 1)), n
            finally:
                invariants.clear_caches()

    @staticmethod
    def assert_join_identity(g):
        # e_i = C_i + M_i over the factors (the complement's components):
        # C = sum_i C_i prod_(j != i) e_j and M = prod_j e_j - C, on the
        # packed-integer oracle's C and M, which are the kernel formula on
        # each graph's own walk data; cm_polynomials composes a join's
        # from its factors and must give the same pair
        parts = [packed_cm(f) for f in complement_components(g)]
        assert len(parts) > 1, g
        e = [c + m for c, m in parts]
        expect = sum(
            (c * product(e[:i] + e[i + 1 :]) for i, (c, _) in enumerate(parts)),
            IntPolynomial.zero(),
        )
        direct = packed_cm(g)
        assert direct == (expect, product(e) - expect), g
        assert cm_polynomials(g) == direct, g

    def test_join_identity(self):
        joins = joins_up_to_7()
        assert len(joins) == 256
        for g in joins + tuple(joins12_corpus(60)):
            self.assert_join_identity(g)
        rng = random.Random(40)
        with override(max_n=70):
            invariants.clear_caches()
            try:
                for _ in range(30):
                    sizes = [rng.randint(2, 13) for _ in range(rng.choice((2, 3)))]
                    factors = [random_graph(rng, k) for k in sizes]
                    self.assert_join_identity(functools.reduce(join, factors))
                # 2-3 G(m, 1/2) factors of 60 and 70 vertices in all
                for n, k in itertools.product((60, 70), (2, 3)):
                    cuts = sorted(rng.sample(range(2, n - 1, 2), k - 1))
                    sizes = [b - a for a, b in zip([0] + cuts, cuts + [n])]
                    factors = [random_graph(rng, m) for m in sizes]
                    self.assert_join_identity(functools.reduce(join, factors))
            finally:
                invariants.clear_caches()

    def test_joins_run_the_kernel_on_their_factors_only(self):
        # the join itself never reaches _walk_data: one kernel run for each
        # distinct factor (equal labeled factors, such as K_n's single
        # vertices, share a cache entry)
        try:
            for g in joins_up_to_7():
                invariants.clear_caches()
                cm_polynomials(g)
                factors = set(complement_components(g))
                assert invariants._walk_data.cache_info().misses == len(factors), g
        finally:
            invariants.clear_caches()


class TestExtremalClosedForms:
    """Largest two-distance sets of the literature (Lisonek 1997; Musin
    2009; Neumaier 1981 for conference graphs) through ``profile`` and
    ``analysis_record``: dim_e = dim_s, and tau1, mu and the exact r^2
    where tau1 = 2 is rational."""

    @pytest.mark.parametrize(
        "name, build, degree, dim, mu, r2",
        [
            ("Clebsch complement", lambda: complement(clebsch()), 10, 5, 10, Fraction(5, 8)),
            ("Schlafli", schlafli, 16, 6, 20, Fraction(2, 3)),
            ("T(8)", lambda: triangular(8), 12, 7, 20, Fraction(3, 4)),
            ("T(9)", lambda: triangular(9), 14, 8, 27, Fraction(7, 9)),
            ("Paley(29)", lambda: paley(29), 14, 14, None, None),
            ("Paley(37)", lambda: paley(37), 18, 18, None, None),
        ],
    )
    def test_closed_form(self, name, build, degree, dim, mu, r2):
        with override(max_n=40):
            g = build()
            assert set(g.degrees()) == {degree} and is_strongly_regular(g), name
            invariants.clear_caches()
            try:
                p = profile(g)
                record = analysis_record(g)
            finally:
                invariants.clear_caches()
        assert p.dim_e == p.dim_s == record["dim_e"] == record["dim_s"] == dim, name
        if mu is None:  # a conference graph: tau1 is irrational
            assert p.tau1.defining.degree == 2 and p.r_squared.lo < p.r_squared.hi, name
            return
        assert cmp_rational(p.tau1, 2) == 0 and record["tau1"] == [2.0, 2.0], name
        assert p.mu == record["mu"] == mu, name
        assert p.r_squared.lo == p.r_squared.hi == r2, name
        assert record["r_squared"][0] <= float(r2) <= record["r_squared"][1], name


class TestTau1Mu:
    def test_cross_polytopes(self):
        for m_parts in (2, 3, 4):
            root, mult = tau1_mu(cross_polytope_graph(m_parts))
            assert cmp_rational(root, 2) == 0
            assert mult == m_parts - 1

    def test_path3(self):
        root, mult = tau1_mu(Graph.path(3))
        assert cmp_rational(root, 4) == 0 and mult == 1

    def test_complete(self):
        for n in (1, 2, 4):
            root, mult = tau1_mu(Graph.complete(n))
            assert root is None and mult == 0

    def test_pentagon_golden(self):
        root, mult = tau1_mu(Graph.cycle(5))
        assert mult == 2
        # (3 + sqrt5)/2 is a root of t^2 - 3t + 1 and lies in the enclosure
        target = poly(1, -3, 1)
        assert target(root.lo) * target(root.hi) < 0
        assert abs(float(root) - (3 + math.sqrt(5)) / 2) < 1e-12

    def test_disjoint_cliques_infinite(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        root, mult = tau1_mu(g)
        assert root is None and mult == 0


class TestTau0:
    def test_pentagon(self):
        t0 = tau0(Graph.cycle(5))
        assert abs(float(t0) - (3 - math.sqrt(5)) / 2) < 1e-12
        # (3 - sqrt5)/2 is the other root of t^2 - 3t + 1
        target = poly(1, -3, 1)
        assert target(t0.lo) * target(t0.hi) < 0

    def test_zero_marker(self):
        # complement of the square is a disjoint clique union: tau0 = 0
        assert tau0(cross_polytope_graph(2)) is None

    def test_reciprocal_pair(self, rng):
        g = Graph.path(4)
        t1, _ = tau1_mu(complement(g))
        t0 = tau0(g)
        assert abs(float(t0) * float(t1) - 1.0) < 1e-10
        # tau0 is read from g's own C; the complement's root checks it.
        for _ in range(20):
            g = random_graph(rng, rng.randrange(1, 9))
            t1, _ = tau1_mu(complement(g))
            t0 = tau0(g)
            assert (t0 is None) == (t1 is None)
            if t1 is not None:
                assert t0.compare(t1.reciprocal()) == 0


class TestCircumradius:
    def test_path3_infinite(self):
        assert circumradius_invariant(Graph.path(3)).kind == "infinite"

    def test_square_half(self):
        assert circumradius_invariant(cross_polytope_graph(2)).kind == "half"

    def test_pentagon_enclosure(self):
        r2 = circumradius_invariant(Graph.cycle(5))
        assert r2.kind == "finite"
        assert r2.hi - r2.lo <= Fraction(1, 10**12)
        # contains (5 + sqrt5)/10, the squared circumradius of the
        # unit-side regular pentagon: root of 100x^2 - 100x + 20
        target = poly(20, -100, 100)
        assert target(r2.lo) * target(r2.hi) < 0
        # and excludes 1/2
        assert r2.lo > Fraction(1, 2)

    def test_petersen_three_quarters(self):
        r2 = circumradius_invariant(Graph.petersen())
        assert r2.kind == "finite"
        assert r2.lo <= Fraction(3, 4) <= r2.hi
        assert r2.lo == r2.hi == Fraction(3, 4)  # tau1 = 3/2 is rational

    def test_cycle64_exact(self):
        # tau1 = 2 is rational, so r^2 = 31/32 is exact, not an enclosure
        # whose ends have thousands of digits
        with override(max_n=70):
            invariants.clear_caches()
            try:
                r2 = circumradius_invariant(Graph.cycle(64))
            finally:
                invariants.clear_caches()
        assert r2.kind == "finite" and r2.lo == r2.hi == Fraction(31, 32)

    def test_exact_iff_rational_tau1(self):
        # r^2 collapses onto one rational exactly when tau1 is rational; that
        # value lies in the interval route's enclosure, and dim_s_bounded
        # decides budgets just below and above it
        exact = 0
        for n in range(2, 7):
            for g in enumerate_graphs(n):
                root, mu = tau1_mu(g)
                r2 = circumradius_invariant(g)
                if r2.kind != "finite":
                    continue
                c, m = cm_polynomials(g)
                for _ in range(mu):
                    m, c = m.derivative(), c.derivative()
                lo, hi = polynomials.enclose_rational_limit(
                    -m, c.scale(2), root, get_config().r2_width, Fraction(1, 2)
                )
                assert lo <= r2.lo <= r2.hi <= hi
                assert (r2.lo == r2.hi) == (root.defining.degree == 1), g
                if r2.lo == r2.hi:
                    exact += 1
                    eps = Fraction(1, 10**40)
                    assert dim_s_bounded(g, r2.lo + eps) == n - mu - 1
                    assert dim_s_bounded(g, r2.lo - eps) == n - 1
        assert exact == 19

    def test_empty_graph_infinite(self):
        assert circumradius_invariant(Graph.empty(4)).kind == "infinite"

    def test_lower_bound_small_graphs(self):
        for n in range(2, 6):
            for g in enumerate_graphs(n):
                r2 = circumradius_invariant(g)
                if r2.kind == "finite":
                    assert r2.lo > Fraction(1, 2)


class TestCircumradiusAgainstSympy:
    def test_classification_up_to_six(self):
        # an oracle of sympy's own for every graph with n <= 6: the exact
        # least root of C above 1, its multiplicities in C and M (powers of
        # its minimal polynomial), from those the kind of r^2, and each
        # finite enclosure against -M^(mu)/(2 C^(mu)) there to 30 digits
        sympy = pytest.importorskip("sympy")
        t = sympy.symbols("t")

        def multiplicity(p, f):
            k = 0
            while True:
                q, r = p.div(f)
                if not r.is_zero:
                    return k
                p, k = q, k + 1

        kinds = {}
        invariants.clear_caches()
        try:
            for n in range(1, 7):
                for g in enumerate_graphs(n):
                    c, m = (sympy.Poly(list(reversed(p.coeffs)) or [0], t) for p in cm_polynomials(g))
                    above = [r for r in sympy.Poly(c, t).real_roots() if r > 1]
                    r2 = circumradius_invariant(g)
                    if not above:
                        assert tau1_mu(g) == (None, 0) and r2.kind == "infinite", g
                        kinds["no tau1"] = kinds.get("no tau1", 0) + 1
                        continue
                    root = min(above)
                    f = sympy.Poly(sympy.minimal_polynomial(root, t), t)
                    mu, mu_m = multiplicity(c, f), multiplicity(m, f)
                    assert tau1_mu(g)[1] == mu, g
                    if mu_m < mu:
                        kind = "infinite"
                    else:
                        cd, md = c.diff((t, mu)), m.diff((t, mu))
                        kind = "half" if (md + cd).rem(f).is_zero else "finite"
                    assert r2.kind == kind, g
                    kinds[kind] = kinds.get(kind, 0) + 1
                    if kind != "finite":
                        continue
                    value = -md.as_expr().subs(t, root) / (2 * cd.as_expr().subs(t, root))
                    if f.degree() == 1:
                        assert r2.lo == r2.hi and sympy.Rational(r2.lo) == value, g
                    else:
                        value = value.evalf(30)
                        eps = sympy.Rational(1, 10**25)
                        lo, hi = sympy.Rational(r2.lo), sympy.Rational(r2.hi)
                        assert lo - eps <= value <= hi + eps and lo < hi, g
        finally:
            invariants.clear_caches()
        assert kinds == {"no tau1": 29, "infinite": 128, "finite": 45, "half": 6}


class TestMultiplicityOnProgramPolynomials:
    def test_tau1_in_c_and_m_up_to_seven(self):
        # on every graph with n <= 7 that has a tau1, multiplicity_at's
        # chain of derivatives gives tau1_mu's mu (found by exact division
        # or the squarefree split) in C, both multiplicities agree with the
        # reference's Sturm counts, and the one in M reaches mu exactly when
        # r^2 is finite: the paper's condition for dim_s = dim_e
        seen = mu_two = 0
        invariants.clear_caches()
        try:
            for g in graphs_up_to_7():
                root, mu = tau1_mu(g)
                if root is None:
                    continue
                c, m = cm_polynomials(g)
                in_c, in_m = multiplicity_at(c, root), multiplicity_at(m, root)
                assert in_c == mu == sturm_multiplicity_at(c, root), g
                assert in_m == sturm_multiplicity_at(m, root), g
                assert (in_m >= mu) == circumradius_invariant(g).is_finite, g
                seen += 1
                mu_two += mu == 2
        finally:
            invariants.clear_caches()
        assert (seen, mu_two) == (1208, 40)


class TestProfile:
    def test_pentagon(self):
        p = profile(Graph.cycle(5))
        assert (p.dim_e, p.dim_s, p.dim_j) == (2, 2, 4)
        assert p.mu == 2

    def test_bipartite_unbalanced(self):
        for m, n in ((2, 1), (3, 2), (4, 1)):
            g = complete_multipartite(MultipartiteSignature((m, n)))
            p = profile(g)
            assert p.dim_e == m + n - 2
            assert p.dim_s == m + n - 1

    def test_empty_graphs(self):
        for n in range(2, 7):
            p = profile(Graph.empty(n))
            assert p.dim_e == n - 1
            assert p.dim_s == n - 1
            assert p.dim_j == n - 1
            beta_sq = p.beta_star_squared
            assert cmp_rational(beta_sq, Fraction(2 * n, n - 1)) == 0
            assert abs(float(beta_sq) - 2 * n / (n - 1)) < 1e-8

    def test_complete_graph_conventions(self):
        p = profile(Graph.complete(4))
        assert p.tau1 is None and p.mu == 0
        assert p.dim_e == p.dim_s == 3
        assert p.dim_j is None and p.beta_star_squared is None

    def test_single_vertex(self):
        p = profile(Graph.empty(1))
        assert p.n == 1 and p.dim_e == 0 and p.dim_s == 0
        assert p.dim_j is None

    def test_square_exact_beta(self):
        p = profile(cross_polytope_graph(2))
        assert (p.dim_e, p.dim_s, p.dim_j) == (2, 2, 2)
        beta_sq = p.beta_star_squared
        assert isinstance(beta_sq, AlgebraicReal)
        assert cmp_rational(beta_sq, 4) == 0  # beta* = 2 exactly

    def test_dimension_identity(self, rng):
        for _ in range(20):
            g = random_graph(rng, rng.randrange(2, 8))
            p = profile(g)
            assert p.dim_e == g.n - p.mu - 1
            assert p.dim_e <= p.dim_s <= g.n - 1
            if p.dim_j is not None:
                assert g.n / 2 <= p.dim_j <= g.n - 1
                assert isinstance(p.beta_star_squared, AlgebraicReal)

    def test_cardinality_bounds_small(self):
        for n in range(1, 6):
            for g in enumerate_graphs(n):
                p = profile(g)
                assert n <= (p.dim_e + 1) * (p.dim_e + 2) // 2
                if n >= 2:
                    assert n <= p.dim_s * (p.dim_s + 3) // 2

    def test_einhorn_schoenberg_small(self):
        for n in range(1, 6):
            for g in enumerate_graphs(n):
                p = profile(g)
                assert (p.dim_e == n - 1) == is_disjoint_clique_union(g)

    def test_planar_census(self):
        # the regular pentagon is the only 5-point two-distance set in the
        # plane, so C5 is the only 5-vertex graph with dim_e = 2
        planar = [g for g in enumerate_graphs(5) if profile(g).dim_e == 2]
        assert planar == [canonical_form(Graph.cycle(5))]

    def test_no_seven_points_in_space(self):
        # a two-distance set in R^3 has at most 6 points (Einhorn and
        # Schoenberg, Indag. Math. 28, 1966); R^4 holds 7-point ones
        assert min(profile(g).dim_e for g in enumerate_graphs(7)) == 4

    def test_tau0_advisory_flag(self):
        assert "tau0-advisory" in profile(Graph.path(3)).flags  # P3 = K_{1,2}
        assert "tau0-advisory" not in profile(Graph.cycle(5)).flags


class TestFeasibleInterval:
    def test_pentagon_window(self):
        lo, hi = feasible_interval(Graph.cycle(5))
        assert abs(lo - (3 - math.sqrt(5)) / 2) < 1e-9
        assert abs(hi - (3 + math.sqrt(5)) / 2) < 1e-9

    def test_unbounded(self):
        lo, hi = feasible_interval(Graph.empty(3))
        assert hi == math.inf


class TestDimSBounded:
    def test_half_budget_equals_dim_j(self):
        for g in (cross_polytope_graph(2), Graph.cycle(5), Graph.path(3),
                  Graph.empty(4)):
            p = profile(g)
            assert dim_s_bounded(g, Fraction(1, 2)) == p.dim_j

    def test_path3_large_budget(self):
        assert dim_s_bounded(Graph.path(3), 1) == 2  # radius infinite

    def test_square_loose_budget(self):
        assert dim_s_bounded(cross_polytope_graph(2), 0.64) == 2

    def test_pentagon_thresholds(self):
        g = Graph.cycle(5)
        # squared circumradius is (5+sqrt5)/10 ~ 0.7236
        assert dim_s_bounded(g, Fraction(7, 10)) == 4
        assert dim_s_bounded(g, Fraction(3, 4)) == 2

    def test_petersen_exact_tie(self):
        # squared circumradius is exactly 3/4: the algebraic tie test
        # must decide <= without refinement.
        g = Graph.petersen()
        assert dim_s_bounded(g, Fraction(3, 4)) == 5
        assert dim_s_bounded(g, Fraction(74, 100)) == 9

    def test_complete_rejected(self):
        with pytest.raises(CompleteGraphError):
            dim_s_bounded(Graph.complete(3), 1)

    def test_small_budget_rejected(self):
        with pytest.raises(ValueError):
            dim_s_bounded(Graph.path(3), Fraction(1, 4))


def spectral_window(g):
    """Float oracle for (tau1, mu, tau0): C's roots are x/(1 + x) over the
    eigenvalues x of the adjacency matrix compressed to the complement of
    the all-ones vector, so tau1 comes from the smallest eigenvalue when it
    is below -1 (mu its multiplicity) and tau0 from the largest when it is
    positive."""
    n = g.n
    a = np.array([[float(g.has_edge(i, j)) for j in range(n)] for i in range(n)])
    # the last n - 1 columns of a QR of [1 | e_1 .. e_(n-1)] span 1^perp
    q, _ = np.linalg.qr(np.column_stack([np.ones(n), np.eye(n)[:, : n - 1]]))
    ev = np.linalg.eigvalsh(q[:, 1:].T @ a @ q[:, 1:])
    tau1, mu, tau0 = math.inf, 0, 0.0
    if len(ev) and ev[0] < -1 - 1e-9:
        tau1, mu = ev[0] / (1 + ev[0]), int(np.sum(ev < ev[0] + 1e-7))
    if len(ev) and ev[-1] > 1e-9:
        tau0 = ev[-1] / (1 + ev[-1])
    return tau1, mu, tau0


def sturm_window(g):
    """(tau1, mu, tau0) by Sturm isolation of C and of its reciprocal."""
    c, _ = cm_polynomials(g)
    width = get_config().tau_width
    got = sturm_smallest_root_greater_than(c, 1)
    t1 = (None, 0) if got is None else (got[0].refined(width), got[1])
    got = sturm_smallest_root_greater_than(c.reciprocal(g.n - 1), 1)
    return t1, None if got is None else got[0].refined(width).reciprocal()


def assert_same_root(got, expect):
    """got is expect's algebraic number, by the same defining polynomial,
    in a valid enclosure at most ``tau_width`` wide."""
    assert (got is None) == (expect is None)
    if got is not None:
        assert got.defining == expect.defining and got.compare(expect) == 0
        assert is_valid(got) and got.width <= get_config().tau_width


def assert_root_of_c(g, got, expect):
    """got is expect's algebraic number, defined by a divisor of g's C (C
    itself without its power of t, a linear factor or a factor of C's
    squarefree split), in a valid enclosure at most ``tau_width`` wide."""
    assert (got is None) == (expect is None)
    if got is not None:
        c, _ = cm_polynomials(g)
        assert got.compare(expect) == 0
        assert poly_rem(c, got.defining).is_zero
        assert is_valid(got) and got.width <= get_config().tau_width


def assert_same_window(g, t1, t0):
    """tau1_mu(g) and tau0(g) are the roots (t1, t0) of a reference route.
    Each is certified on C (tau0 on C's reciprocal) itself, or on its
    squarefree split when that fails, so its defining polynomial divides C
    rather than being the reference's."""
    root, mu = tau1_mu(g)
    assert mu == t1[1]
    assert_root_of_c(g, root, t1[0])
    assert_root_of_c(g, invariants.tau0(g), t0)


def count_fallbacks(monkeypatch):
    """The list of calls made to the bisection fallback from now on."""
    calls = []
    original = invariants.smallest_root_greater_than
    monkeypatch.setattr(
        invariants,
        "smallest_root_greater_than",
        lambda *args: calls.append(args) or original(*args),
    )
    return calls


class TestSpectralWindow:
    """tau1, mu and tau0 come from a spectral proposal certified by
    Descartes counts; the float spectrum and Sturm isolation check them."""

    def check_against_spectrum(self, g):
        tau1, mu, tau0_ = spectral_window(g)
        root, got_mu = tau1_mu(g)
        low = invariants.tau0(g)
        assert got_mu == mu
        assert (root is None) == math.isinf(tau1)
        if root is not None:
            assert abs(float(root) - tau1) <= 1e-9 * tau1
        assert (low is None) == (tau0_ == 0)
        if low is not None:
            assert abs(float(low) - tau0_) <= 1e-9

    def test_small_graphs_match_spectrum(self):
        for n in range(1, 8):
            for g in enumerate_graphs(n):
                self.check_against_spectrum(g)

    @pytest.mark.parametrize("n, count", [(16, 6), (24, 3), (32, 3)])
    def test_random_graphs_match_spectrum(self, rng, n, count):
        with override(max_n=n):
            invariants.clear_caches()
            try:
                for _ in range(count):
                    self.check_against_spectrum(random_graph(rng, n))
            finally:
                invariants.clear_caches()

    @pytest.mark.parametrize("width, max_n", [(None, 7), (1, 6)])
    def test_small_enclosures_equal_sturm_isolation(self, width, max_n):
        # at width 1 the interval t +- 1/2 around a proposal t reaches 1 when
        # t <= 3/2, or holds another root, and the bisection fallback runs;
        # every root is the same.  tau0 is 1/s for the least root s > 1 of
        # C's reciprocal, certified there when s > 3/2 and no other root
        # is within 1/2, else bisected, always on a divisor of C.
        changes = {} if width is None else {"tau_width": Fraction(width)}
        with override(**changes):
            invariants.clear_caches()
            try:
                for n in range(1, max_n + 1):
                    for g in enumerate_graphs(n):
                        t1, t0 = sturm_window(g)
                        assert_same_window(g, t1, t0)
            finally:
                invariants.clear_caches()

    def test_wrong_proposal_does_not_certify(self):
        # roots sqrt5 (simple) and sqrt11 (double); a proposal at sqrt11
        # changes its factor's sign but misses the smaller root
        p = poly(-5, 0, 1) * poly(-11, 0, 1) ** 2
        factors = squarefree_decomposition(p)
        near11 = invariants._proposal_interval(math.sqrt(11))
        assert invariants._certified_root(factors, *near11) is None
        assert invariants._certified_root(factors[::-1], *near11) is None
        root, mult = invariants._least_root_above(p, math.sqrt(11))
        assert mult == 1 and cmp_rational(root, Fraction(2236, 1000)) > 0
        assert cmp_rational(root, Fraction(2237, 1000)) < 0
        # sqrt5 is a simple root of p: certified on p itself, not its split
        got, mult = invariants._least_root_above(p, math.sqrt(5))
        assert mult == 1 and got.defining == p.primitive() and got.compare(root) == 0
        assert is_valid(got) and got.width <= get_config().tau_width
        single = poly(-11, 0, 1) * poly(-13, 0, 1)  # one factor, two roots
        near13 = invariants._proposal_interval(math.sqrt(13))
        assert invariants._certified_root(squarefree_decomposition(single), *near13) is None

    def test_walk_isolates_roots_on_different_factors(self):
        # 1.414213562373095 and sqrt2, 4.9e-17 apart; with the linear factor
        # squared they lie on different factors of the squarefree split, and
        # an enclosure of the first that isolates it on its own factor only
        # holds the second too, so a walk from its upper end would miss it
        sqrt2 = AlgebraicReal(poly(-2, 0, 1), Fraction(1), Fraction(2))
        rational = Fraction(1414213562373095, 10**15)
        linear = poly(-1414213562373095, 10**15)
        for square in (1, 2):
            p = poly(-2, 0, 1) * linear**square
            factors = squarefree_decomposition(p)
            assert len(factors) == square
            # two factors change sign around the float sqrt2: no certificate
            near2 = invariants._proposal_interval(math.sqrt(2))
            assert invariants._certified_root(factors, *near2) is None
            for proposal in (math.sqrt(2), None):
                got = list(invariants._roots_up_to(p, proposal, None))
                assert [mult for _, mult in got] == [square, 1]
                first, second = (root for root, _ in got)
                assert cmp_rational(first, rational) == 0
                assert second.compare(sqrt2) == 0 and cmp_rational(second, rational) > 0
                for root in (first, second):
                    assert is_valid(root) and root.width <= get_config().tau_width

    def test_root_at_certificate_end_is_walked(self):
        # a root of another factor at the upper end of sqrt2's certificate
        # interval: the counts on (1, hi) miss it, so no certificate, and
        # the walk from the bisected root still yields it
        t = math.sqrt(2)
        _, hi = invariants._proposal_interval(t)
        # 2**-45, the largest power of two <= tau_width / 2, above 8 ulp(t)
        assert hi == Fraction(t) + Fraction(1, 2**45)
        p = poly(-2, 0, 1) * poly(-hi.numerator, hi.denominator) ** 2
        factors = squarefree_decomposition(p)
        assert len(factors) == 2
        assert invariants._certified_root(factors, *invariants._proposal_interval(t)) is None
        got = list(invariants._roots_up_to(p, t, None))
        assert [mult for _, mult in got] == [1, 2]
        assert got[0][0].compare(AlgebraicReal(poly(-2, 0, 1), Fraction(1), Fraction(2))) == 0
        assert cmp_rational(got[1][0], hi) == 0

    def test_complex_roots_above_bound_end_the_walk(self):
        # roots 3 +- i: Descartes counts above 1 and above 2 are not 0, yet
        # there is no real root there, so the walk ends after the root 2
        complex_pair = poly(10, -6, 1)
        assert polynomials.descartes_count(complex_pair, 1) == 2
        assert invariants._least_root_above(complex_pair, None) is None
        assert invariants._least_root_above(complex_pair, 3.0) is None
        for proposal in (2.0, None):
            got = list(invariants._roots_up_to(poly(-2, 1) * complex_pair, proposal, None))
            assert [mult for _, mult in got] == [1]
            assert cmp_rational(got[0][0], Fraction(2)) == 0 and is_valid(got[0][0])

    def test_complex_factor_does_not_stop_certificate(self):
        # the tie polynomials of beta*^2 need not be real-rooted: a factor
        # with complex roots counts 0 and lets sqrt3 certify, while a root
        # sqrt2 between 1 and the proposal stops it
        complex_factor = poly(1, 1, 1)
        factors = squarefree_decomposition(poly(-3, 0, 1) * complex_factor)
        near3 = invariants._proposal_interval(math.sqrt(3))
        root, mult = invariants._certified_root(factors, *near3)
        assert mult == 1 and is_valid(root) and root.width <= get_config().tau_width
        assert root.compare(AlgebraicReal(poly(-3, 0, 1), Fraction(1), Fraction(2))) == 0
        below = squarefree_decomposition(poly(-2, 0, 1) * poly(-3, 0, 1) * complex_factor)
        assert invariants._certified_root(below, *near3) is None
        # a proposal away from every root certifies nothing
        assert invariants._certified_root(factors, *invariants._proposal_interval(1.6)) is None

    def test_pool_enclosures_equal_sturm_isolation(self, monkeypatch):
        fallbacks = count_fallbacks(monkeypatch)
        invariants.clear_caches()
        for g in embed16_pool():
            t1, t0 = sturm_window(g)
            assert_same_window(g, t1, t0)
        assert fallbacks == []

    def test_no_fallback_on_small_graphs_and_joins(self, monkeypatch):
        # every proposal certifies, rational roots and roots near 1 included
        fallbacks = count_fallbacks(monkeypatch)
        invariants.clear_caches()
        try:
            graphs = [g for n in range(1, 8) for g in enumerate_graphs(n)]
            for g in graphs + joins12_corpus(60):
                tau1_mu(g)
                invariants.tau0(g)
        finally:
            invariants.clear_caches()
        assert fallbacks == []

    def test_forced_fallback_same_enclosures(self, monkeypatch):
        graphs = [g for n in range(1, 7) for g in enumerate_graphs(n)]
        graphs += embed16_pool()[:20]
        invariants.clear_caches()
        expect = [(tau1_mu(g), invariants.tau0(g)) for g in graphs]
        invariants.clear_caches()
        fallbacks = count_fallbacks(monkeypatch)
        original = invariants._spectrum
        shifted = functools.lru_cache(lambda g: tuple(x + 1e-3 for x in original(g)))
        monkeypatch.setattr(invariants, "_spectrum", shifted)
        try:
            for g, (t1, t0) in zip(graphs, expect):
                assert_same_window(g, t1, t0)
        finally:
            invariants.clear_caches()
        # every proposal missed: each root above 1 came from the bisection fallback
        roots = sum((t1[0] is not None) + (t0 is not None) for t1, t0 in expect)
        assert len(fallbacks) == roots > 100

    def test_pool_window_from_one_spectrum_and_split(self, monkeypatch):
        # per graph one eigvalsh and no squarefree split of C (both ends
        # certify on C itself), enclosures born at the requested width (no
        # halving), and nearest floats
        counts = {"eigvalsh": 0, "split": 0}
        halved = []

        def counting(name, fn):
            def wrapper(*args):
                counts[name] += 1
                return fn(*args)

            return wrapper

        def refined(self, width, original=AlgebraicReal.refined):
            if self.width > width:
                halved.append((self, width))
            return original(self, width)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting("eigvalsh", np.linalg.eigvalsh))
        monkeypatch.setattr(
            invariants,
            "squarefree_decomposition",
            counting("split", invariants.squarefree_decomposition),
        )
        monkeypatch.setattr(AlgebraicReal, "refined", refined)
        roots = []
        invariants.clear_caches()
        try:
            for g in embed16_pool():
                cm_polynomials(g)  # C itself is not the window's work
                counts.update(eigvalsh=0, split=0)
                roots += [tau1_mu(g)[0], invariants.tau0(g)]
                assert counts == {"eigvalsh": 1, "split": 0}
            assert halved == []
            monkeypatch.undo()
            for x in roots:  # to_float against a 2**-90 enclosure
                narrow = x.refined(Fraction(1, 2**90))
                assert float(narrow.lo) == float(narrow.hi) == float(x)
        finally:
            invariants.clear_caches()


class TestRootOnItsPolynomial:
    """tau1, tau0 and t* are certified on C and the tie polynomial
    themselves; C's squarefree split is the fallback."""

    def test_rational_root_certificate(self):
        # (t - 2)^3 (t^2 - 7): n x = -2 proposes t = 2, a triple root
        p = poly(-2, 1) ** 3 * poly(-7, 0, 1)
        near2 = invariants._proposal_interval(2.0)
        root, mult = invariants._rational_root(p, 1, 2.0, *near2)
        assert mult == 3 and root.defining == poly(-2, 1)
        assert (root.lo, root.hi) == invariants._proposal_interval(2.0)
        assert cmp_rational(root, 2) == 0 and is_valid(root)
        # n x off an integer proposes nothing
        x = -2.001
        t = x / (1 + x)
        assert invariants._rational_root(p, 1, t, *invariants._proposal_interval(t)) is None
        # a root of the cofactor between 1 and the interval's upper end
        # (hi = 2 + 2**-45): 3/2, or 2 + 2**-46
        _, hi = invariants._proposal_interval(2.0)
        for other in (poly(-3, 2), poly(-(4 * hi.denominator + 1), 2 * hi.denominator)):
            assert invariants._rational_root(poly(-2, 1) * other, 1, 2.0, *near2) is None
        # tau0's side: 1/2 (double) is C's largest root in (0, 1) unless 3/4
        # is one, so on C's reciprocal 2 (double) is the least root above 1
        # unless 4/3 is one; the complement's x = -1 - 1 proposes t = 2
        low = poly(-1, 2) ** 2 * poly(-1, 4)
        root, mult = invariants._rational_root(low.reciprocal(3), 1, 2.0, *near2)
        assert mult == 2 and cmp_rational(root, 2) == 0
        assert cmp_rational(root.reciprocal(), Fraction(1, 2)) == 0
        higher = (low * poly(-3, 4)).reciprocal(4)
        assert invariants._rational_root(higher, 1, 2.0, *near2) is None

    def test_simple_root_on_polynomial_with_multiple_roots(self):
        # the polynomial itself, not its split: a double root elsewhere does
        # not matter, a double root at the proposal does not certify
        p = poly(-3, 0, 1) * poly(-5, 1) ** 2
        near3 = invariants._proposal_interval(math.sqrt(3))
        root, mult = invariants._certified_root([(p, 1)], *near3)
        assert mult == 1 and root.defining == p and is_valid(root)
        assert root.compare(AlgebraicReal(poly(-3, 0, 1), Fraction(1), Fraction(2))) == 0
        assert invariants._certified_root([(poly(-3, 0, 1) ** 2, 1)], *near3) is None

    def test_one_interval_per_proposal(self, monkeypatch):
        # a proposal's interval is built once, and the rational, simple-root
        # and split certificates all read it
        per_call, built = [], []
        least, interval = invariants._least_root_above, invariants._proposal_interval

        def counting_least(p, t, *args, **kwargs):
            before = len(built)
            got = least(p, t, *args, **kwargs)
            if t is not None:
                per_call.append(len(built) - before)
            return got

        monkeypatch.setattr(invariants, "_least_root_above", counting_least)
        monkeypatch.setattr(
            invariants, "_proposal_interval", lambda t: built.append(t) or interval(t)
        )
        invariants.clear_caches()
        try:
            for n in range(1, 8):
                for g in enumerate_graphs(n):
                    tau1_mu(g)
                    invariants.tau0(g)
                    if len(complement_components(g)) == 1 and n > 1:
                        invariants.t_star(g)
        finally:
            invariants.clear_caches()
        assert len(per_call) > 1000 and set(per_call) == {1}

    def test_rational_tau1_takes_no_tie_polynomial(self, monkeypatch):
        # at a rational tau1 the exact limit -M^(mu)/(2 C^(mu)) decides
        # r^2 = 1/2; the vanishing tests taken are those of M, M', ...,
        # stopping at the first that is nonzero, never one of the tie
        # polynomial.  The decision agrees with the tie polynomial's, taken
        # outside the count.
        calls = {"tie": 0, "vanish": 0}
        tested = []

        def counting(name, fn):
            def wrapper(*args):
                calls[name] += 1
                if name == "vanish":
                    tested.append(args[0])
                return fn(*args)

            return wrapper

        graphs = [Graph.petersen()] + [g for n in range(1, 8) for g in enumerate_graphs(n)]
        invariants.clear_caches()
        try:
            rational = 0
            for g in graphs:
                root, mu = tau1_mu(g)
                if root is None or root.rational is None:
                    continue
                rational += 1
                _, m = cm_polynomials(g)
                derivatives = [m]
                for _ in range(mu):
                    derivatives.append(derivatives[-1].derivative())
                order_m = polynomials.multiplicity_at(m, root)
                with monkeypatch.context() as mp:
                    tie, vanish = invariants.tie_polynomial, invariants.vanishes_at
                    mp.setattr(invariants, "tie_polynomial", counting("tie", tie))
                    mp.setattr(invariants, "vanishes_at", counting("vanish", vanish))
                    calls.update(tie=0, vanish=0)
                    tested.clear()
                    r2 = circumradius_invariant(g)
                    assert calls == {"tie": 0, "vanish": min(mu, order_m + 1)}, to_graph6(g)
                    assert tested == derivatives[: len(tested)], to_graph6(g)
                if g == Graph.petersen():
                    three_quarters = RSquared.finite(Fraction(3, 4), Fraction(3, 4))
                    assert root.rational == 2 and r2 == three_quarters
                if r2.is_finite:
                    tie = invariants.tie_polynomial(g, Fraction(1, 2))
                    half = tie.is_zero or polynomials.multiplicity_at(tie, root) > mu
                    assert r2.is_half == half and (half or r2.lo == r2.hi != Fraction(1, 2))
            assert rational > 100
        finally:
            invariants.clear_caches()

    def test_t_star_rational_on_regular_complements(self):
        # a connected k-regular complement has Perron root k: t* = 1 + 1/k,
        # proposed by the rational test and defined by its linear factor
        seen = 0
        invariants.clear_caches()
        try:
            for n in range(2, 8):
                for g in enumerate_graphs(n):
                    degrees = set(complement(g).degrees())
                    if len(degrees) != 1 or len(complement_components(g)) != 1:
                        continue
                    (k,) = degrees
                    if k == 0:
                        continue
                    seen += 1
                    assert invariants.t_star(g).rational == 1 + Fraction(1, k), to_graph6(g)
        finally:
            invariants.clear_caches()
        assert seen == 15

    def test_exact_iff_rational(self):
        # tau1 is defined by a linear factor, and printed as its exact value,
        # exactly when it is a rational root of C (sympy's factorization)
        sympy = pytest.importorskip("sympy")
        t = sympy.symbols("t")
        graphs = [g for n in range(1, 8) for g in enumerate_graphs(n)]
        invariants.clear_caches()
        try:
            rational = 0
            for g in graphs + joins12_corpus(60):
                root, _ = tau1_mu(g)
                if root is None:
                    continue
                c, _ = cm_polynomials(g)
                _, factors = sympy.Poly(list(reversed(c.coeffs)), t).factor_list()
                roots = [-f.nth(0) / f.nth(1) for f, _ in factors if f.degree() == 1]
                hits = [Fraction(int(r.p), int(r.q)) for r in roots if r > 1]
                hits = [r for r in hits if cmp_rational(root, r) == 0]
                printed = analysis_record(g)["tau1"]
                assert (root.defining.degree == 1) == bool(hits), g
                if hits:
                    rational += 1
                    assert printed == _enclosure(hits[0], hits[0])
                else:
                    assert printed == _enclosure(root.lo, root.hi)
            assert rational == 170  # at n <= 7; none in the joins
        finally:
            invariants.clear_caches()

    def test_no_root_above_one_takes_no_split(self, monkeypatch):
        # P3: tau1 = 4 certifies on C; tau0's proposal is float noise (B's
        # largest eigenvalue ~1e-16), and a Descartes count of 0 on C's
        # reciprocal proves the window reaches 0, with no split
        splits = []
        original = invariants.squarefree_decomposition
        monkeypatch.setattr(
            invariants,
            "squarefree_decomposition",
            lambda *args: splits.append(args) or original(*args),
        )
        g = parse_graph6("BW")
        invariants.clear_caches()
        try:
            cm_polynomials(g)
            root, mu = tau1_mu(g)
            assert cmp_rational(root, 4) == 0 and mu == 1
            assert tau0(g) is None
            assert splits == []
        finally:
            invariants.clear_caches()

    def test_pool_and_joins_take_no_split_gcd_or_bisection(self, monkeypatch):
        # a gcd taken is a lifted image: poly_gcd proves coprime pairs
        # from one constant image modulo a prime, with no lift
        calls = {"split": 0, "lift": 0}

        def counting(name, fn):
            def wrapper(*args):
                got = fn(*args)
                calls[name] += name != "lift" or len(got) > 1
                return got

            return wrapper

        monkeypatch.setattr(
            invariants, "squarefree_decomposition",
            counting("split", invariants.squarefree_decomposition),
        )
        monkeypatch.setattr(polynomials, "_gcd_mod_p", counting("lift", polynomials._gcd_mod_p))
        fallbacks = count_fallbacks(monkeypatch)
        pool, joins = embed16_pool(), joins12_corpus(60)
        invariants.clear_caches()
        try:
            for g in pool + joins:
                cm_polynomials(g)  # C itself is not root work
                tau1_mu(g)
                circumradius_invariant(g)
                for h in complement_components(g):  # a join's factors
                    invariants.t_star(h)
            assert calls == {"split": 0, "lift": 0} and fallbacks == []
            monkeypatch.undo()
            roots = [tau1_mu(g)[0] for g in pool]
            roots += [invariants.beta_star_squared(g) for g in joins]
            for x in roots:  # to_float against a 2**-90 enclosure
                narrow = x.refined(Fraction(1, 2**90))
                assert float(narrow.lo) == float(narrow.hi) == x.to_float()
        finally:
            invariants.clear_caches()


class TestModularGcdOnProgramCalls:
    def test_equals_remainder_gcd(self, monkeypatch):
        # every gcd taken while analysing all graphs with n <= 6, the
        # joins12 corpus and 20 embed16 pool graphs, against an integer
        # remainder sequence (reference.remainder_gcd)
        pairs = set()
        original = polynomials.poly_gcd
        monkeypatch.setattr(
            polynomials, "poly_gcd", lambda a, b: pairs.add((a, b)) or original(a, b)
        )
        graphs = [g for n in range(1, 7) for g in enumerate_graphs(n)]
        invariants.clear_caches()
        try:
            for g in graphs + joins12_corpus(60) + embed16_pool()[:20]:
                analysis_record(g)
            for g in joins12_corpus(60):  # the joins12 workload's other calls
                geometry.kuperberg_decompose(geometry.jspherical_embedding(g))
        finally:
            invariants.clear_caches()
        shared = 0
        for a, b in pairs:
            got = original(a, b)
            assert got == remainder_gcd(a, b), (a, b)
            shared += got.degree > 0
        # 40 distinct pairs, all but one sharing a factor
        assert len(pairs) == 40 and shared == 39


def test_no_program_path_builds_a_sturm_chain(monkeypatch):
    # Descartes counts and sign tests decide every root; SturmChain stays
    # only as the tests' reference counter.
    def refuse(*args):
        raise AssertionError("a program path built a Sturm chain")

    monkeypatch.setattr(polynomials, "SturmChain", refuse)
    invariants.clear_caches()
    try:
        for n in range(1, 7):
            for g in enumerate_graphs(n):
                analysis_record(g)
        for g in joins12_corpus(6):
            analysis_record(g)
            geometry.kuperberg_decompose(geometry.jspherical_embedding(g))
    finally:
        invariants.clear_caches()
