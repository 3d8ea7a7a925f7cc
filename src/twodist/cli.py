"""Command-line interface.

Subcommands: analyze, embed, decompose, batch, catalog, verify.

Exit codes: 0 success; 2 parse error, unreadable input, bad filter,
environment value or configuration (a negative or non-finite tolerance,
negative precision bits); 3 size limit; 4 undecidable enclosure; 5
infeasible distance (also one not finite and positive, or with a square
or squared ratio that is not finite or is subnormal); 6 complete graph
where a J-spherical operation was requested; 7 geometric inconsistency.
"""

from __future__ import annotations

import argparse
import csv
import decimal
import json
import math
import sys
from dataclasses import replace
from fractions import Fraction

from .config import Config, get_config, set_config
from .errors import (
    CompleteGraphError,
    GeometricInconsistencyError,
    GraphFormatError,
    InfeasibleDistanceError,
    SizeLimitError,
    TwoDistError,
    UndecidableEnclosureError,
)
from .graphs import (
    Graph,
    enumerate_graphs,
    is_complete,
    parse_edgelist,
    parse_graph6,
    to_graph6,
)
from .invariants import circumradius_invariant, clear_caches, profile, tau1_mu
from .joins import join_decompose
from .oracle import probe_f_monotonicity, reciprocal_check, verify_profile
from . import geometry

EXIT_PARSE = 2
EXIT_SIZE = 3
EXIT_UNDECIDABLE = 4
EXIT_INFEASIBLE = 5
EXIT_COMPLETE = 6
EXIT_GEOMETRY = 7

GRAPH6_HEADER = ">>graph6<<"


def _dec(x) -> float:
    """Decimal rendering: 15 significant digits, round-tripped."""
    return float(f"{float(x):.15g}")


def _enclosure(lo: Fraction, hi: Fraction) -> list[float]:
    """Decimal rendering of an enclosure: 15 significant digits, lo rounded
    down and hi up, so the printed interval holds the exact one."""
    return [
        float(decimal.Context(prec=15, rounding=mode).divide(x.numerator, x.denominator))
        for x, mode in ((lo, decimal.ROUND_FLOOR), (hi, decimal.ROUND_CEILING))
    ]


def _load_graph(args) -> Graph:
    if args.format == "edgelist":
        with open(args.input, "r", encoding="ascii") as fh:
            return parse_edgelist(fh.read())
    word = args.input
    if word.startswith(GRAPH6_HEADER):
        word = word[len(GRAPH6_HEADER):]
    return parse_graph6(word)


def analysis_record(g: Graph, input_str: str | None = None) -> dict:
    """The JSON-facing record for one graph."""
    p = profile(g)
    record: dict = {
        "input": input_str if input_str is not None else to_graph6(g),
        "n": g.n,
        "dim_e": p.dim_e,
        "dim_s": p.dim_s,
        "dim_j": p.dim_j,
    }
    if p.tau1 is None:
        record["tau1"] = "inf"
    elif p.tau1.defining.degree == 1:
        # rational root: the enclosure collapses onto the exact value
        a0, a1 = p.tau1.defining.coeffs
        exact = Fraction(-a0, a1)
        record["tau1"] = _enclosure(exact, exact)
    else:
        record["tau1"] = _enclosure(p.tau1.lo, p.tau1.hi)
    record["mu"] = p.mu
    if p.r_squared.kind == "infinite":
        record["r_squared"] = "inf"
    elif p.r_squared.kind == "half":
        record["r_squared"] = "1/2"
    else:
        record["r_squared"] = _enclosure(p.r_squared.lo, p.r_squared.hi)
    if p.beta_star_squared is None:
        record["beta_star"] = None
    elif p.r_squared.is_half:
        record["beta_star"] = "sqrt(2*tau1)"
    else:
        record["beta_star"] = _dec(geometry.beta_star_numeric(g))
    fz = join_decompose(g)
    record["factors"] = [
        {"size": h.n, "type": "I" if i < fz.k else "II"}
        for i, h in enumerate(fz.factors)
    ]
    return record


def _cmd_analyze(args) -> int:
    g = _load_graph(args)
    print(json.dumps(analysis_record(g, args.input)))
    return 0


def _cmd_embed(args) -> int:
    g = _load_graph(args)
    if args.model == "jspherical":
        config = geometry.jspherical_embedding(g)
    elif args.model == "euclidean":
        if args.b is not None:
            b = args.b
        else:
            root, _ = tau1_mu(g)
            b = math.sqrt(float(root)) if root is not None else 2.0
        config = geometry.realize(g, b)
    else:  # spherical
        if is_complete(g):
            config = geometry.realize(g, 2.0)
        else:
            root, _ = tau1_mu(g)
            if circumradius_invariant(g).is_finite:
                config = geometry.realize(g, math.sqrt(float(root)))
            else:
                js = geometry.jspherical_embedding(g)
                config = geometry.PointConfig(
                    js.points / math.sqrt(2.0),
                    1.0,
                    js.b / math.sqrt(2.0),
                    js.rank,
                )
    residual = config.max_distance_residual(g)
    if residual > 1e-6:
        raise GeometricInconsistencyError(
            f"embedding distance residual {residual:.3e}"
        )
    ball = geometry.min_enclosing_ball(config.points)
    out = {
        "points": [[_dec(v) for v in row] for row in config.points],
        "a": _dec(config.a),
        "b": _dec(config.b),
        "rank": config.rank,
        "radius": _dec(ball.radius),
    }
    print(json.dumps(out))
    return 0


def _cmd_decompose(args) -> int:
    g = _load_graph(args)
    fz = join_decompose(g)
    out = {
        "input": args.input,
        "k": fz.k,
        "factors": [
            {
                "graph6": to_graph6(h),
                "size": h.n,
                "beta_star": "inf" if math.isinf(b) else _dec(b),
                "type": "I" if i < fz.k else "II",
            }
            for i, (h, b) in enumerate(zip(fz.factors, fz.beta_stars))
        ],
    }
    print(json.dumps(out))
    return 0


def _analyze_word(word: str) -> dict:
    try:
        return analysis_record(parse_graph6(word), word)
    except TwoDistError as exc:
        return {"input": word, "error": str(exc)}


_CSV_FIELDS = [
    "input", "n", "dim_e", "dim_s", "dim_j", "tau1", "mu",
    "r_squared", "beta_star", "factors", "error",
]


def _emit_records(records, output: str) -> None:
    if output == "jsonl":
        for rec in records:
            print(json.dumps(rec))
    elif output == "json":
        print(json.dumps(list(records)))
    else:  # csv
        writer = csv.DictWriter(sys.stdout, fieldnames=_CSV_FIELDS)
        writer.writeheader()
        for rec in records:
            row = {}
            for key in _CSV_FIELDS:
                val = rec.get(key)
                if isinstance(val, (list, dict)):
                    val = json.dumps(val)
                row[key] = val
            writer.writerow(row)


def _cmd_batch(args) -> int:
    try:
        with open(args.input, "r", encoding="ascii") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        print(f"cannot read {args.input}: {exc}", file=sys.stderr)
        return EXIT_PARSE
    words = []
    for line in lines:
        word = line.strip()
        if word.startswith(GRAPH6_HEADER):
            word = word[len(GRAPH6_HEADER):]
        if word:
            words.append(word)
    if args.jobs > 1 and len(words) > 1:
        # Imported here: multiprocessing is a cost only batch runs pay.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            records = list(pool.map(_analyze_word, words, chunksize=8))
    else:
        records = [_analyze_word(w) for w in words]
    _emit_records(records, args.output)
    return 0


def _parse_filter(expr: str, n: int) -> tuple[str, int | None]:
    key, _, raw = expr.partition("=")
    key, raw = key.strip(), raw.strip()
    if key not in ("dim_e", "dim_s", "dim_j"):
        raise ValueError(f"unknown filter key {key!r}")
    named = {"n-1": n - 1, "n-2": n - 2, "n/2": n // 2 if n % 2 == 0 else None}
    return key, named[raw] if raw in named else int(raw)


def _cmd_catalog(args) -> int:
    if args.max_n > 8:
        print("catalog supports max-n up to 8", file=sys.stderr)
        return EXIT_SIZE
    if args.filter:
        try:  # checked before the first graph is analysed
            _parse_filter(args.filter, 1)
        except ValueError as exc:
            print(f"bad filter {args.filter!r}: {exc}", file=sys.stderr)
            return EXIT_PARSE
    for n in range(1, args.max_n + 1):
        for g in enumerate_graphs(n):
            rec = analysis_record(g)
            if args.filter:
                key, want = _parse_filter(args.filter, n)
                if want is None or rec[key] != want:
                    continue
            print(json.dumps(rec))
    return 0


def _cmd_verify(args) -> int:
    graphs: list[Graph] = []
    if args.input:
        with open(args.input, "r", encoding="ascii") as fh:
            for line in fh.read().splitlines():
                word = line.strip()
                if word.startswith(GRAPH6_HEADER):
                    word = word[len(GRAPH6_HEADER):]
                if word:
                    graphs.append(parse_graph6(word))
    else:
        for n in range(1, args.max_n + 1):
            graphs.extend(enumerate_graphs(n))
    failures = 0
    for g in graphs:
        rep = verify_profile(g)
        rec = reciprocal_check(g)
        rep.checks.extend(rec.checks)
        if args.probe and tau1_mu(g)[0] is not None:
            rep.checks.extend(probe_f_monotonicity(g, args.grid).checks)
        if not rep.ok:
            failures += 1
        print(rep.to_json())
    return 0 if failures == 0 else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twodist",
        description="Two-distance representation numbers of graphs",
    )
    parser.add_argument("--tol", type=float, help="distance tolerance override")
    parser.add_argument("--max-n", type=int, dest="max_n_cfg",
                        help="vertex count limit override")
    parser.add_argument("--precision-bits", type=int,
                        help="root and circumradius enclosure width (bits)")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input(p):
        p.add_argument("input", help="graph6 word, or path with --format edgelist")
        p.add_argument("--format", choices=("graph6", "edgelist"),
                       default="graph6")

    p = sub.add_parser("analyze", help="invariants of one graph as JSON")
    add_input(p)

    p = sub.add_parser("embed", help="coordinates of a representation")
    add_input(p)
    p.add_argument("--model", choices=("euclidean", "spherical", "jspherical"),
                   default="euclidean")
    p.add_argument("--b", type=float, help="explicit long distance (euclidean)")

    p = sub.add_parser("decompose", help="join decomposition of a graph")
    add_input(p)

    p = sub.add_parser("batch", help="analyze a file of graph6 lines")
    p.add_argument("input", help="path to graph6 lines")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--output", choices=("jsonl", "json", "csv"), default="jsonl")

    p = sub.add_parser("catalog", help="enumerate small graphs up to isomorphism")
    p.add_argument("--max-n", type=int, default=6, dest="max_n")
    p.add_argument("--filter", help="dim_e=K | dim_s=K | dim_j=K (K int, n-1, n-2, n/2)")

    p = sub.add_parser("verify", help="run the oracle cross-checks")
    p.add_argument("--input", help="path to graph6 lines (default: enumerate)")
    p.add_argument("--max-n", type=int, default=5, dest="max_n")
    p.add_argument("--probe", action="store_true",
                   help="include the monotonicity probe")
    p.add_argument("--grid", type=int, default=100)
    return parser


# Built once per process; each parse_args call returns a new Namespace.
_PARSER = _build_parser()

_COMMANDS = {
    "analyze": _cmd_analyze,
    "embed": _cmd_embed,
    "decompose": _cmd_decompose,
    "batch": _cmd_batch,
    "catalog": _cmd_catalog,
    "verify": _cmd_verify,
}


def _apply_config(args) -> None:
    cfg = Config.from_env()
    changes = {}
    if args.tol is not None:
        changes["dist_tol"] = args.tol
        changes["feas_slack"] = args.tol
    if args.max_n_cfg is not None:
        changes["max_n"] = args.max_n_cfg
    if args.precision_bits is not None:
        if args.precision_bits < 0:
            raise ValueError(f"--precision-bits must be >= 0, got {args.precision_bits}")
        changes["tau_width"] = Fraction(1, 2**args.precision_bits)
        changes["r2_width"] = Fraction(1, 2**args.precision_bits)
    cfg = replace(cfg, **changes)
    if cfg != get_config():
        clear_caches()  # the cached invariants were refined under the old widths
    set_config(cfg)


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        _apply_config(args)
    except ValueError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    try:
        return _COMMANDS[args.command](args)
    except GraphFormatError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except SizeLimitError as exc:
        print(f"size limit: {exc}", file=sys.stderr)
        return EXIT_SIZE
    except UndecidableEnclosureError as exc:
        print(f"undecidable: {exc}", file=sys.stderr)
        return EXIT_UNDECIDABLE
    except InfeasibleDistanceError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except CompleteGraphError as exc:
        print(f"complete graph: {exc}", file=sys.stderr)
        return EXIT_COMPLETE
    except GeometricInconsistencyError as exc:
        print(f"geometric inconsistency: {exc}", file=sys.stderr)
        return EXIT_GEOMETRY
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
