"""Print one line per output of the twodist tree at --src, for a parity diff.

    python tools/parity.py --src src > after.txt
    python tools/parity.py --src ../parent/src > before.txt
    diff before.txt after.txt

The lines are, in order:

- ``enumerate``: for each n <= 8, the number of graphs ``enumerate_graphs(n)``
  gives and the SHA-256 of their graph6 words in order, one per line;
- ``record``: ``analysis_record`` plus the float tau0 of every graph with
  n <= 7, of the embed16 pool and of ``joins12_corpus(60)``;
- ``multiplicity``: ``multiplicity_at(C, tau1)`` and ``multiplicity_at(M,
  tau1)`` of every graph with n <= 7 that has a tau1, in enumeration order;
- ``decompose``: the exit code and output of ``twodist decompose WORD``
  on every graph of the ``record`` lines, in the same order;
- ``kuperberg``: the blocks, types, k and flags of
  ``kuperberg_decompose(jspherical_embedding(g))``, or the class of the
  error it raises, on every non-complete graph of the ``record`` lines, in
  the same order;
- ``embed``: the output of ``twodist embed WORD --model euclidean`` on every
  non-complete graph with n <= 7, then on each graph of the embed16 pool:
  the enclosing radius at tau1 (t = 4 without tau1), so a diff covers the
  balls that the block pivots settle and those that the single pivots
  finish;
- ``solve``: ``float(solve_phi(g, r))`` for r = 1 and r = 0.97 on every
  non-complete graph with 2 <= n <= 7, then on ``joins12_corpus(60)`` and
  on the first 50 graphs of the embed16 pool, whose supports pass 7
  points.  At r = 1 ``solve_phi`` reads ``beta_star_squared``, and at
  0.97 it runs the active set and the exact certificate; a diff against a
  tree that solved r = 1 by the certificate cross-checks the two routes;
- ``verify``: the exit code and one output line of
  ``twodist verify --max-n 7 --probe`` (the oracle's float determinants,
  realized ranks, reciprocal checks and the exact shape of the squared
  circumradius on (1, tau1)) per line;
- ``catalog``: the exit code, the line count and the SHA-256 of the
  stdout of ``twodist catalog --max-n 8``, 13,598 records.

The inputs come from this checkout's ``perfbench/`` (the pool's graph6 words
and the joins generator), so two trees' dumps share them.  The invariant
caches are cleared after each graph: a dump holds one graph's worth at a
time.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _joins12_words(count: int) -> list[str]:
    spec = importlib.util.spec_from_file_location("perfbench_inputs", PERFBENCH / "inputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.joins12_corpus(count)


def _pool_words() -> list[str]:
    refs = json.loads((PERFBENCH / "refs" / "embed16.json").read_text())
    return [ref["g6"] for ref in refs["graphs"]]


def _run(argv: list[str]) -> tuple[int, str]:
    """``twodist ARGV``'s exit code and stdout, run in process."""
    from twodist import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue().rstrip("\n")


def _kuperberg(geometry, g) -> str:
    """The join blocks of g's J-spherical points with their types, k and
    flags, as JSON, or the name of the error class raised."""
    try:
        fz = geometry.kuperberg_decompose(geometry.jspherical_embedding(g))
    except Exception as exc:  # any error: its class is the line
        return type(exc).__name__
    return json.dumps([[[list(block), label] for block, label in fz.factors], fz.k, list(fz.flags)])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, help="directory holding the twodist package")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(Path(args.src).resolve()))
    from twodist import cli, geometry, invariants, polynomials
    from twodist.graphs import enumerate_graphs, is_complete, parse_graph6, to_graph6

    for n in range(1, 9):
        words = "\n".join(to_graph6(g) for g in enumerate_graphs(n))
        print("enumerate", n, len(enumerate_graphs(n)), hashlib.sha256(words.encode()).hexdigest())
    small = [g for n in range(1, 8) for g in enumerate_graphs(n)]
    pool = _pool_words()
    joins = _joins12_words(60)
    graphs = [(to_graph6(g), g) for g in small]
    graphs += [(w, parse_graph6(w)) for w in pool + joins]
    for word, g in graphs:
        tau0 = invariants.tau0(g)
        rec = cli.analysis_record(g, word)
        print("record", json.dumps(rec), repr(None if tau0 is None else float(tau0)))
        invariants.clear_caches()
    for g in small:
        root, _ = invariants.tau1_mu(g)
        if root is not None:
            c, m = invariants.cm_polynomials(g)
            mults = (polynomials.multiplicity_at(p, root) for p in (c, m))
            print("multiplicity", to_graph6(g), *mults)
        invariants.clear_caches()
    for word, _ in graphs:
        print("decompose", word, *_run(["decompose", word]))
        invariants.clear_caches()
    for word, g in graphs:
        if not is_complete(g):
            print("kuperberg", word, _kuperberg(geometry, g))
            invariants.clear_caches()
    embedded = [to_graph6(g) for g in small if not is_complete(g)]
    for word in embedded + pool:
        print("embed", word, *_run(["embed", word, "--model", "euclidean"]))
        invariants.clear_caches()
    solved = [g for g in small if g.n >= 2 and not is_complete(g)]
    solved += [parse_graph6(w) for w in joins + pool[:50]]
    for r in (1.0, 0.97):
        for g in solved:
            print("solve", r, to_graph6(g), repr(float(geometry.solve_phi(g, r))))
            invariants.clear_caches()
    code, out = _run(["verify", "--max-n", "7", "--probe"])
    for line in out.splitlines():
        print("verify", code, line)
    invariants.clear_caches()
    code, out = _run(["catalog", "--max-n", "8"])
    print("catalog", code, len(out.splitlines()), hashlib.sha256((out + "\n").encode()).hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
