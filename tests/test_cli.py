import json
import math
import os
import subprocess
import sys
from fractions import Fraction

from conftest import joins12_corpus
from reference import cmp_rational
from twodist.cli import _enclosure, analysis_record, main
from twodist.config import override
from twodist.graphs import (
    Graph,
    MultipartiteSignature,
    complete_multipartite,
    enumerate_graphs,
    parse_graph6,
    to_graph6,
)
from twodist.invariants import circumradius_invariant, tau1_mu

SQUARE = to_graph6(complete_multipartite(MultipartiteSignature((2, 2))))
OCTA = to_graph6(complete_multipartite(MultipartiteSignature((2, 2, 2))))
C5 = "Dhc"
K3 = to_graph6(Graph.complete(3))
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_fresh(*argv):
    """stdout of the CLI in a new interpreter."""
    code = "import sys; from twodist.cli import main; sys.exit(main(sys.argv[1:]))"
    out = subprocess.run(
        [sys.executable, "-c", code, *argv],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=SRC), timeout=120,
    )
    assert out.returncode == 0, out.stderr
    return out.stdout


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestAnalyze:
    def test_square(self, capsys):
        code, out, _ = run(capsys, "analyze", SQUARE)
        assert code == 0
        rec = json.loads(out)
        assert rec["dim_e"] == 2 and rec["dim_s"] == 2 and rec["dim_j"] == 2
        assert rec["mu"] == 1
        assert rec["tau1"] == [2.0, 2.0]
        assert rec["r_squared"] == "1/2"
        assert rec["beta_star"] == "sqrt(2*tau1)"

    def test_pentagon(self, capsys):
        code, out, _ = run(capsys, "analyze", C5)
        rec = json.loads(out)
        assert (rec["dim_e"], rec["dim_s"], rec["dim_j"]) == (2, 2, 4)
        lo, hi = rec["tau1"]
        assert lo <= (3 + math.sqrt(5)) / 2 <= hi + 1e-12

    def test_printed_enclosures_hold_their_values(self):
        # Ends rounded to the nearest 15 digits once missed the root: 'DB{'
        # printed tau1 from 2.80606343352537, above 2.8060634335253694...,
        # and 'D?{' printed its rational tau1 = 8/3 as [2.66666666666667] * 2.
        rec = analysis_record(parse_graph6("DB{"))
        assert rec["tau1"][0] < 2.8060634335253694 < rec["tau1"][1]
        lo, hi = (Fraction(repr(v)) for v in analysis_record(parse_graph6("D?{"))["tau1"])
        assert lo < Fraction(8, 3) < hi and hi - lo < 1e-13
        graphs = [g for n in range(1, 8) for g in enumerate_graphs(n)]
        printed = 0
        for g in graphs + joins12_corpus(60):
            root, _ = tau1_mu(g)
            if root is not None and root.defining.degree > 1:
                lo, hi = (Fraction(repr(v)) for v in _enclosure(root.lo, root.hi))
                assert cmp_rational(root, lo) > 0 > cmp_rational(root, hi)
                printed += 1
            r2 = circumradius_invariant(g)
            if r2.kind == "finite":
                lo, hi = (Fraction(repr(v)) for v in _enclosure(r2.lo, r2.hi))
                with override(r2_width=Fraction(1, 10**30)):
                    fine = circumradius_invariant.__wrapped__(g)
                assert lo <= fine.lo and fine.hi <= hi
        assert printed > 1000

    def test_complete_triangle(self, capsys):
        code, out, _ = run(capsys, "analyze", K3)
        rec = json.loads(out)
        assert rec["dim_j"] is None
        assert rec["tau1"] == "inf"
        assert rec["r_squared"] == "inf"
        assert rec["beta_star"] is None

    def test_edgelist_input(self, capsys, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("3\n0 1\n1 2\n")
        code, out, _ = run(capsys, "analyze", str(path), "--format", "edgelist")
        assert code == 0
        rec = json.loads(out)
        assert rec["n"] == 3 and rec["dim_e"] == 1

    def test_parse_error_exit(self, capsys):
        code, _, err = run(capsys, "analyze", "notagraph6!!")
        assert code == 2

    def test_size_limit_exit(self, capsys):
        word = to_graph6(Graph.empty(6))
        code, _, _ = run(capsys, "--max-n", "5", "analyze", word)
        assert code == 3

    def test_factors_listed(self, capsys):
        code, out, _ = run(capsys, "analyze", OCTA)
        rec = json.loads(out)
        assert rec["factors"] == [{"size": 2, "type": "I"}] * 3

    def test_undecidable_exit(self, capsys, monkeypatch):
        from twodist import geometry, invariants

        invariants.clear_caches()
        monkeypatch.setattr(geometry, "_support_certified", lambda g, s, t: False)
        code, out, err = run(capsys, "analyze", C5)
        assert code == 4
        assert out == ""
        assert "proposed twice" in err


class TestEmbed:
    def test_parser_reuse_leaks_no_option(self, capsys):
        # main reuses one parser per process; --b of a first call must not
        # reach a second call that omits it.
        code, first, _ = run(capsys, "embed", C5, "--b", "1.2")
        assert code == 0 and json.loads(first)["b"] == 1.2
        code, second, _ = run(capsys, "embed", C5)
        assert code == 0
        assert second == run_fresh("embed", C5)
        assert json.loads(second)["b"] != 1.2

    def test_octahedron_jspherical(self, capsys):
        code, out, _ = run(capsys, "embed", OCTA, "--model", "jspherical")
        assert code == 0
        rec = json.loads(out)
        assert len(rec["points"]) == 6
        assert rec["rank"] == 3
        assert abs(rec["radius"] - 1.0) < 1e-8
        assert abs(rec["a"] - math.sqrt(2)) < 1e-12

    def test_path3_euclidean_collinear(self, capsys):
        code, out, _ = run(capsys, "embed", "Bg", "--model", "euclidean")
        rec = json.loads(out)
        assert rec["rank"] == 1
        assert abs(rec["b"] - 2.0) < 1e-9

    def test_complete_jspherical_exit(self, capsys):
        code, _, err = run(capsys, "embed", "A_", "--model", "jspherical")
        assert code == 6

    def test_infeasible_b_exit(self, capsys):
        code, _, _ = run(capsys, "embed", "Bg", "--model", "euclidean", "--b", "3.0")
        assert code == 5

    def test_nonfinite_or_nonpositive_b_exit(self, capsys):
        for b in ("nan", "inf", "0", "-1"):
            code, out, err = run(capsys, "embed", C5, "--model", "euclidean", "--b", b)
            assert code == 5, b
            assert out == "" and "finite and > 0" in err

    def test_huge_b(self, capsys):
        # B? is three vertices, no edge: an equilateral triangle of side b
        code, out, _ = run(capsys, "embed", "B?", "--b", "1e100")
        assert code == 0
        assert abs(json.loads(out)["radius"] - 1e100 / math.sqrt(3)) <= 1e-12 * 1e100
        # (b/a)^2 overflows: B?'s window is unbounded, Dhc's is not
        for word in ("B?", "Dhc"):
            code, out, err = run(capsys, "embed", word, "--b", "1e160")
            assert code == 5, word
            assert out == "" and "not finite" in err

    def test_tiny_b(self, capsys):
        # (b/a)^2 = 1e-304 is a normal float: the triangle of side b
        code, out, _ = run(capsys, "embed", "B?", "--b", "1e-152")
        assert code == 0
        got = json.loads(out)
        assert got["rank"] == 2 and got["b"] == 1e-152
        assert abs(got["radius"] - 1e-152 / math.sqrt(3)) <= 1e-12 * 1e-152
        expect = [[0.5 / math.sqrt(3), 0.5], [-1 / math.sqrt(3), 0.0], [0.5 / math.sqrt(3), -0.5]]
        for row, want in zip(got["points"], expect):
            assert all(abs(x / 1e-152 - w) <= 1e-12 for x, w in zip(row, want))
        # A subnormal (b/a)^2 once dropped every Gram eigenvalue: rank 0,
        # three empty points, radius 0, exit 0.
        for b in ("1e-155", "1e-160"):
            code, out, err = run(capsys, "embed", "B?", "--b", b)
            assert code == 5, b
            assert out == "" and "subnormal" in err

    def test_geometric_inconsistency_exit(self, capsys, monkeypatch):
        from twodist import geometry
        from twodist.errors import GeometricInconsistencyError

        def broken(g):
            raise GeometricInconsistencyError("points are not on the unit sphere")

        monkeypatch.setattr(geometry, "jspherical_embedding", broken)
        code, out, err = run(capsys, "embed", OCTA, "--model", "jspherical")
        assert code == 7
        assert out == ""
        assert "unit sphere" in err

    def test_missed_ball_certificate_exit(self, capsys, monkeypatch):
        from twodist import geometry

        certify = geometry._dual_certificate

        def loose(points, sqnorms, lam):
            c, primal, gap = certify(points, sqnorms, lam)
            return c, primal, gap + 1e-6

        monkeypatch.setattr(geometry, "_dual_certificate", loose)
        code, out, err = run(capsys, "embed", OCTA, "--model", "jspherical")
        assert code == 7
        assert out == ""
        assert "duality gap" in err

    def test_spherical_model(self, capsys):
        code, out, _ = run(capsys, "embed", C5, "--model", "spherical")
        rec = json.loads(out)
        assert rec["rank"] == 2
        assert abs(rec["radius"] - math.sqrt((5 + math.sqrt(5)) / 10)) < 1e-8

    def test_spherical_model_nonspherical_graph(self, capsys):
        # radius infinite: falls back to the scaled unit-sphere embedding
        code, out, _ = run(capsys, "embed", "Bg", "--model", "spherical")
        rec = json.loads(out)
        assert rec["rank"] == 2
        assert abs(rec["radius"] - 1 / math.sqrt(2)) < 1e-8


class TestDecompose:
    def test_octahedron(self, capsys):
        code, out, _ = run(capsys, "decompose", OCTA)
        rec = json.loads(out)
        assert rec["k"] == 3
        assert [f["size"] for f in rec["factors"]] == [2, 2, 2]
        assert all(abs(f["beta_star"] - 2.0) < 1e-6 for f in rec["factors"])

    def test_path3(self, capsys):
        code, out, _ = run(capsys, "decompose", "Bg")
        rec = json.loads(out)
        assert rec["k"] == 1
        assert rec["factors"][1]["beta_star"] == "inf"


class TestBatch:
    def test_order_and_errors(self, capsys, tmp_path):
        path = tmp_path / "batch.g6"
        path.write_text(f"{SQUARE}\n!!bad!!\n{C5}\n")
        code, out, _ = run(capsys, "batch", str(path))
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 3
        recs = [json.loads(line) for line in lines]
        assert recs[0]["input"] == SQUARE and recs[0]["dim_e"] == 2
        assert "error" in recs[1]
        assert recs[2]["input"] == C5

    def test_empty_file(self, capsys, tmp_path):
        path = tmp_path / "empty.g6"
        path.write_text("")
        code, out, _ = run(capsys, "batch", str(path))
        assert code == 0 and out.strip() == ""

    def test_missing_file(self, capsys):
        code, _, _ = run(capsys, "batch", "/nonexistent/file.g6")
        assert code == 2

    def test_header_stripped(self, capsys, tmp_path):
        path = tmp_path / "h.g6"
        path.write_text(f">>graph6<<{SQUARE}\n")
        code, out, _ = run(capsys, "batch", str(path))
        assert json.loads(out)["n"] == 4

    def test_csv_output(self, capsys, tmp_path):
        path = tmp_path / "batch.g6"
        path.write_text(f"{SQUARE}\n{K3}\n")
        code, out, _ = run(capsys, "batch", str(path), "--output", "csv")
        lines = out.strip().splitlines()
        assert lines[0].startswith("input,n,dim_e")
        assert len(lines) == 3

    def test_parallel_jobs_match_serial(self, capsys, tmp_path):
        path = tmp_path / "batch.g6"
        words = [SQUARE, C5, K3, "Bg", "A_"]
        path.write_text("\n".join(words) + "\n")
        code, serial, _ = run(capsys, "batch", str(path))
        code, parallel, _ = run(capsys, "batch", str(path), "--jobs", "2")
        assert serial == parallel

    def test_import_loads_no_multiprocessing(self):
        # the process pool is imported by batch --jobs alone
        code = (
            "import sys, twodist, twodist.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] in "
            "('multiprocessing', 'concurrent')))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=SRC), timeout=120,
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "[]"

    def test_json_array_output(self, capsys, tmp_path):
        path = tmp_path / "batch.g6"
        path.write_text(f"{SQUARE}\n")
        code, out, _ = run(capsys, "batch", str(path), "--output", "json")
        arr = json.loads(out)
        assert isinstance(arr, list) and arr[0]["n"] == 4


class TestCatalog:
    def test_counts_small(self, capsys):
        code, out, _ = run(capsys, "catalog", "--max-n", "5")
        recs = [json.loads(line) for line in out.strip().splitlines()]
        by_n = {}
        for r in recs:
            by_n[r["n"]] = by_n.get(r["n"], 0) + 1
        assert by_n == {1: 1, 2: 2, 3: 4, 4: 11, 5: 34}

    def test_filter_dim_e_2(self, capsys):
        code, out, _ = run(capsys, "catalog", "--max-n", "5", "--filter", "dim_e=2")
        recs = [json.loads(line) for line in out.strip().splitlines()]
        inputs = {r["input"] for r in recs}
        assert all(r["dim_e"] == 2 for r in recs)
        # contains the square and the pentagon (as canonical forms)
        from twodist.graphs import canonical_form, parse_graph6

        assert to_graph6(canonical_form(parse_graph6(C5))) in inputs
        assert to_graph6(canonical_form(parse_graph6(SQUARE))) in inputs

    def test_filter_clique_unions(self, capsys):
        code, out, _ = run(capsys, "catalog", "--max-n", "4", "--filter", "dim_e=n-1")
        recs = [json.loads(line) for line in out.strip().splitlines()]
        # partitions of 1..4: 1, 2, 3, 5 clique-union classes
        by_n = {}
        for r in recs:
            by_n[r["n"]] = by_n.get(r["n"], 0) + 1
        assert by_n == {1: 1, 2: 2, 3: 3, 4: 5}

    def test_filter_dim_j_half_n(self, capsys):
        code, out, _ = run(capsys, "catalog", "--max-n", "6", "--filter", "dim_j=n/2")
        recs = [json.loads(line) for line in out.strip().splitlines()]
        hits = [r for r in recs if r["n"] == 6]
        assert len(hits) == 1
        from twodist.graphs import are_isomorphic, parse_graph6

        assert are_isomorphic(
            parse_graph6(hits[0]["input"]),
            complete_multipartite(MultipartiteSignature((2, 2, 2))),
        )

    def test_max_n_limit(self, capsys):
        code, _, _ = run(capsys, "catalog", "--max-n", "9")
        assert code == 3

    def test_bad_filter_key_exit(self, capsys):
        code, out, err = run(capsys, "catalog", "--filter", "foo=1")
        assert code == 2
        assert out == ""  # rejected before the first graph
        assert "foo" in err

    def test_bad_filter_value_exit(self, capsys):
        code, out, err = run(capsys, "catalog", "--filter", "dim_e=x")
        assert code == 2
        assert out == ""
        assert "dim_e=x" in err


class TestVerifyCommand:
    def test_small_scan(self, capsys):
        code, out, _ = run(capsys, "verify", "--max-n", "4")
        assert code == 0
        reports = [json.loads(line) for line in out.strip().splitlines()]
        assert len(reports) == 1 + 2 + 4 + 11
        assert all(r["ok"] for r in reports)

    def test_input_file(self, capsys, tmp_path):
        path = tmp_path / "in.g6"
        path.write_text(f"{C5}\n")
        code, out, _ = run(capsys, "verify", "--input", str(path), "--probe")
        reports = [json.loads(line) for line in out.strip().splitlines()]
        assert len(reports) == 1 and reports[0]["ok"]
        names = [c["name"] for c in reports[0]["checks"]]
        assert "f-monotonicity-probe" in names


class TestConfig:
    def test_env_max_n(self, capsys, monkeypatch):
        from twodist import config as cfgmod

        monkeypatch.setenv("TWODIST_MAX_N", "4")
        cfgmod.set_config(cfgmod.Config.from_env())
        try:
            code, _, _ = run(capsys, "analyze", to_graph6(Graph.empty(5)))
            assert code == 3
        finally:
            monkeypatch.delenv("TWODIST_MAX_N")
            cfgmod.set_config(cfgmod.Config())

    def test_flag_overrides_env(self, capsys, monkeypatch):
        from twodist import config as cfgmod

        monkeypatch.setenv("TWODIST_MAX_N", "4")
        try:
            code, _, _ = run(
                capsys, "--max-n", "6", "analyze", to_graph6(Graph.empty(5))
            )
            assert code == 0
        finally:
            monkeypatch.delenv("TWODIST_MAX_N")
            cfgmod.set_config(cfgmod.Config())

    def test_precision_bits_jspherical(self, capsys):
        # The flag sets enclosure widths only; the bisected beta* of the
        # path (r^2 infinite) still puts the points on the unit sphere.
        from twodist import config as cfgmod
        from twodist.invariants import clear_caches

        clear_caches()
        try:
            code, out, _ = run(capsys, "--precision-bits", "10", "embed", "Bg",
                               "--model", "jspherical")
            assert code == 0
            rec = json.loads(out)
            assert abs(rec["radius"] - 1.0) < 1e-9
            assert abs(rec["b"] - 2.0) < 1e-9
        finally:
            cfgmod.set_config(cfgmod.Config())
            clear_caches()

    def test_config_change_clears_caches(self, capsys):
        # Two calls in one process: the second must not read enclosures
        # refined under the first call's widths, and an unchanged
        # configuration keeps what the caches hold.
        from twodist import config as cfgmod
        from twodist.invariants import clear_caches, profile

        clear_caches()
        try:
            code, coarse, _ = run(capsys, "--precision-bits", "4", "analyze", C5)
            assert code == 0
            lo, hi = json.loads(coarse)["tau1"]
            assert hi - lo > 1e-3
            code, fine, _ = run(capsys, "analyze", C5)
            assert code == 0
            lo, hi = json.loads(fine)["tau1"]
            assert lo <= (3 + math.sqrt(5)) / 2 <= hi and hi - lo < 1e-9
            hits = profile.cache_info().hits
            code, again, _ = run(capsys, "analyze", C5)
            assert again == fine
            assert profile.cache_info().hits > hits
        finally:
            cfgmod.set_config(cfgmod.Config())
            clear_caches()

    def test_bad_env_max_n_exit(self, capsys, monkeypatch):
        monkeypatch.setenv("TWODIST_MAX_N", "abc")
        code, _, err = run(capsys, "analyze", C5)
        assert code == 2
        assert "TWODIST_MAX_N" in err

    def test_bad_env_tol_exit(self, capsys, monkeypatch):
        monkeypatch.setenv("TWODIST_TOL", "tiny")
        code, _, err = run(capsys, "analyze", C5)
        assert code == 2
        assert "TWODIST_TOL" in err

    def test_bad_tol_exit(self, capsys, monkeypatch):
        for tol in ("-1", "nan", "inf"):
            code, out, err = run(capsys, "--tol", tol, "analyze", C5)
            assert code == 2, tol
            assert out == "" and "finite and >= 0" in err
            monkeypatch.setenv("TWODIST_TOL", tol)
            code, out, err = run(capsys, "analyze", C5)
            assert code == 2, tol
            assert out == "" and "TWODIST_TOL" in err
            monkeypatch.delenv("TWODIST_TOL")

    def test_negative_precision_bits_exit(self, capsys):
        code, out, err = run(capsys, "--precision-bits", "-1", "analyze", C5)
        assert code == 2
        assert out == "" and "--precision-bits" in err

    def test_zero_tol_and_precision_bits(self, capsys):
        from twodist import config as cfgmod
        from twodist.invariants import clear_caches

        clear_caches()
        try:
            for flags in (("--tol", "0"), ("--precision-bits", "0")):
                code, out, _ = run(capsys, *flags, "analyze", C5)
                assert code == 0, flags
                assert json.loads(out)["dim_e"] == 2
                cfgmod.set_config(cfgmod.Config())
                clear_caches()
        finally:
            cfgmod.set_config(cfgmod.Config())
            clear_caches()
