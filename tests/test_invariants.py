import math
from fractions import Fraction

import numpy as np
import pytest

from conftest import embed16_pool, joins12_corpus, random_graph
from twodist.config import get_config, override
from twodist.errors import CompleteGraphError
from twodist.graphs import (
    Graph,
    MultipartiteSignature,
    complement,
    complete_multipartite,
    enumerate_graphs,
    is_disjoint_clique_union,
)
from twodist import geometry, invariants, polynomials
from twodist.cli import analysis_record
from twodist.invariants import (
    bordered_adjugate,
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
    poly_gcd,
    poly_rem,
    squarefree_decomposition,
)
from reference import (
    bordered_matrix,
    cmp_rational,
    is_valid,
    sturm_smallest_root_greater_than,
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
    """C, M and adj(B) e_0 from the adjacency's characteristic and walk
    polynomials, against the per-point Bareiss elimination of B."""

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
                assert bordered_adjugate(g) == det_poly_matrix(bordered_matrix(g), n + 1), g

    def test_adjugate_column_sixteen_vertices(self, rng):
        for _ in range(3):
            g = random_graph(rng, 16)
            assert bordered_adjugate(g) == det_poly_matrix(bordered_matrix(g), 17)

    def test_single_vertex(self):
        one = IntPolynomial.const(1)
        assert bordered_adjugate(Graph.empty(1)) == (-one, IntPolynomial.zero(), -one)
        assert bordered_adjugate(Graph.empty(1)) == det_poly_matrix(
            bordered_matrix(Graph.empty(1)), 2
        )

    def test_newton_exact(self):
        # The triangle: tr A^k = 3, 0, 6, 6, so det(xI - A) = x^3 - 3x - 2.
        assert invariants._newton([3, 0, 6, 6]) == [1, 0, -3, -2]

    def test_newton_remainder_raises(self):
        # s_1 = 1, s_2 = 0 gives 2 c_2 = 1, which no integer matrix has.
        with pytest.raises(ValueError, match="remainder"):
            invariants._newton([2, 1, 0])

    def test_certificate_reuses_walk_data(self, rng):
        invariants.clear_caches()
        g = random_graph(rng, 9)
        cm_polynomials(g)
        misses = invariants._walk_data.cache_info().misses
        assert misses == 1
        # A frozen dataclass: the induced graph on every vertex equals g.
        bordered_adjugate(g.induced(range(g.n)))
        assert invariants._walk_data.cache_info().misses == misses

    def test_clear_caches_empties_walk_data(self):
        cm_polynomials(Graph.cycle(6))
        assert invariants._walk_data.cache_info().currsize > 0
        invariants.clear_caches()
        assert invariants._walk_data.cache_info().currsize == 0
        assert cm_polynomials.cache_info().currsize == 0

    def test_clear_caches_empties_every_cache(self):
        # every lru_cache defined in the module, found by introspection
        caches = [
            fn
            for fn in vars(invariants).values()
            if hasattr(fn, "cache_clear")
            and getattr(fn, "__module__", None) == invariants.__name__
        ]
        assert {"_walk_data", "_spectrum", "profile"} <= {fn.__name__ for fn in caches}
        invariants.clear_caches()
        try:
            for g in (Graph.cycle(5), Graph.path(4), Graph.petersen()):
                profile(g)
                bordered_adjugate(g)
            assert all(fn.cache_info().currsize > 0 for fn in caches)
        finally:
            invariants.clear_caches()
        assert [fn.__name__ for fn in caches if fn.cache_info().currsize] == []

    def test_adjugate_cached_and_cleared(self):
        # The certificate asks for the same induced support many times.
        invariants.clear_caches()
        g = Graph.cycle(6)
        first = bordered_adjugate(g)
        assert bordered_adjugate(g.induced(range(g.n))) is first
        assert bordered_adjugate.cache_info().currsize == 1
        invariants.clear_caches()
        assert bordered_adjugate.cache_info().currsize == 0


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

    def test_empty_graph_infinite(self):
        assert circumradius_invariant(Graph.empty(4)).kind == "infinite"

    def test_lower_bound_small_graphs(self):
        for n in range(2, 6):
            for g in enumerate_graphs(n):
                r2 = circumradius_invariant(g)
                if r2.kind == "finite":
                    assert r2.lo > Fraction(1, 2)


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
    """got is expect's algebraic number, defined by a squarefree factor of
    g's C, in a valid enclosure at most ``tau_width`` wide."""
    assert (got is None) == (expect is None)
    if got is not None:
        c, _ = cm_polynomials(g)
        f = got.defining
        assert got.compare(expect) == 0
        assert poly_rem(c, f).is_zero and poly_gcd(f, f.derivative()).degree == 0
        assert is_valid(got) and got.width <= get_config().tau_width


def assert_same_window(g, t1, t0, tau0_on_c=False):
    """tau1_mu(g) and tau0(g) are the roots (t1, t0) of a reference route.
    With ``tau0_on_c``, tau0 is certified on C's own squarefree split, so
    its defining polynomial is a factor of C rather than the reference's."""
    root, mu = tau1_mu(g)
    assert mu == t1[1]
    assert_same_root(root, t1[0])
    if tau0_on_c:
        assert_root_of_c(g, invariants.tau0(g), t0)
    else:
        assert_same_root(invariants.tau0(g), t0)


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
        # every root is the same.  It reaches 0 or 1 around every tau0, so
        # each tau0 comes from the reciprocal fallback, as the reference's.
        changes = {} if width is None else {"tau_width": Fraction(width)}
        with override(**changes):
            invariants.clear_caches()
            try:
                for n in range(1, max_n + 1):
                    for g in enumerate_graphs(n):
                        t1, t0 = sturm_window(g)
                        assert_same_window(g, t1, t0, tau0_on_c=width is None)
            finally:
                invariants.clear_caches()

    def test_wrong_proposal_does_not_certify(self):
        # roots sqrt5 (simple) and sqrt11 (double); a proposal at sqrt11
        # changes its factor's sign but misses the smaller root
        p = poly(-5, 0, 1) * poly(-11, 0, 1) ** 2
        factors = squarefree_decomposition(p)
        assert invariants._certified_root(factors, math.sqrt(11)) is None
        assert invariants._certified_root(factors[::-1], math.sqrt(11)) is None
        root, mult = invariants._root_above_one(p, math.sqrt(11))
        assert mult == 1 and cmp_rational(root, Fraction(2236, 1000)) > 0
        assert cmp_rational(root, Fraction(2237, 1000)) < 0
        got, mult = invariants._root_above_one(p, math.sqrt(5))
        assert mult == 1
        assert_same_root(got, root)
        single = poly(-11, 0, 1) * poly(-13, 0, 1)  # one factor, two roots
        assert invariants._certified_root(squarefree_decomposition(single), math.sqrt(13)) is None

    def test_complex_factor_does_not_stop_certificate(self):
        # the tie polynomials of beta*^2 need not be real-rooted: a factor
        # with complex roots counts 0 and lets sqrt3 certify, while a root
        # sqrt2 between 1 and the proposal stops it
        complex_factor = poly(1, 1, 1)
        factors = squarefree_decomposition(poly(-3, 0, 1) * complex_factor)
        root, mult = invariants._certified_root(factors, math.sqrt(3))
        assert mult == 1 and is_valid(root) and root.width <= get_config().tau_width
        assert root.compare(AlgebraicReal(poly(-3, 0, 1), Fraction(1), Fraction(2))) == 0
        below = squarefree_decomposition(poly(-2, 0, 1) * poly(-3, 0, 1) * complex_factor)
        assert invariants._certified_root(below, math.sqrt(3)) is None
        # a proposal away from every root certifies nothing
        assert invariants._certified_root(factors, 1.6) is None

    def test_pool_enclosures_equal_sturm_isolation(self, monkeypatch):
        fallbacks = count_fallbacks(monkeypatch)
        invariants.clear_caches()
        for g in embed16_pool():
            t1, t0 = sturm_window(g)
            assert_same_window(g, t1, t0, tau0_on_c=True)
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
        original_end = invariants._spectrum_end
        monkeypatch.setattr(
            invariants, "_spectrum_end", lambda g, largest: original_end(g, largest) + 1e-3
        )
        try:
            for g, (t1, t0) in zip(graphs, expect):
                assert_same_window(g, t1, t0, tau0_on_c=True)
        finally:
            invariants.clear_caches()
        # every proposal missed: each root above 1 came from the bisection fallback
        roots = sum((t1[0] is not None) + (t0 is not None) for t1, t0 in expect)
        assert len(fallbacks) == roots > 100

    def test_pool_window_from_one_spectrum_and_split(self, monkeypatch):
        # per graph one eigvalsh and one squarefree split of C, enclosures
        # born at the requested width (no halving), and nearest floats
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
                assert counts == {"eigvalsh": 1, "split": 1}
            assert halved == []
            monkeypatch.undo()
            for x in roots:  # to_float against a 2**-90 enclosure
                narrow = x.refined(Fraction(1, 2**90))
                assert float(narrow.lo) == float(narrow.hi) == float(x)
        finally:
            invariants.clear_caches()


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
