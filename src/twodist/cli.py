"""Command-line interface.

Subcommands: analyze, embed, decompose, batch, catalog, verify.

Exit codes: 0 success; 1 a verify cross-check failed; 2 parse error
(also an input file that is not ASCII text), unreadable input, bad
filter, environment value or configuration (a negative or non-finite
tolerance, negative precision bits, a vertex limit (--max-n,
TWODIST_MAX_N) below 1, a catalog or verify --max-n below 1); 3 size
limit (also a catalog or verify --max-n above 8, or a graph past the
exact range of the walk counts);
4 undecidable enclosure; 5 infeasible distance (also one not finite and
positive, or with a square or squared ratio that is not finite or is
subnormal); 6 complete graph where a J-spherical operation was
requested; 7 geometric inconsistency.
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
from .invariants import circumradius_invariant, clear_caches, join_decompose, profile, tau1_mu
from .oracle import probe_f_monotonicity, reciprocal_check, verify_profile
from . import geometry

EXIT_PARSE = 2
EXIT_SIZE = 3
EXIT_UNDECIDABLE = 4
EXIT_INFEASIBLE = 5
EXIT_COMPLETE = 6
EXIT_GEOMETRY = 7

# The error classes a command may raise: exit code and stderr prefix.
_EXITS = {
    GraphFormatError: (EXIT_PARSE, "parse error"),
    SizeLimitError: (EXIT_SIZE, "size limit"),
    UndecidableEnclosureError: (EXIT_UNDECIDABLE, "undecidable"),
    InfeasibleDistanceError: (EXIT_INFEASIBLE, "infeasible"),
    CompleteGraphError: (EXIT_COMPLETE, "complete graph"),
    GeometricInconsistencyError: (EXIT_GEOMETRY, "geometric inconsistency"),
    OSError: (EXIT_PARSE, "i/o error"),
}

GRAPH6_HEADER = ">>graph6<<"
# The largest n a catalog or verify scan enumerates: 12,346 graphs at 8.
# Enumeration has no cap, but n = 9 has 274,668 graphs (OEIS A000088),
# 22 times as many to analyse.
SCAN_MAX_N = 8


def _dec(x) -> float:
    """Decimal rendering: 15 significant digits, round-tripped."""
    return float(f"{float(x):.15g}")


def _dec_text(x: float) -> str:
    """``json.dumps(_dec(x))`` from one decimal conversion.  At most 15
    significant digits read back to a double whose shortest repr has the
    same digits (DBL_DIG = 15), so only the layout can differ: repr writes
    ".0" after an integral value, and 1e15 <= |y| < 1e16 without an
    exponent.  Subnormals, which hold fewer than 15 digits, nan and inf
    take ``json.dumps`` itself."""
    text = f"{x:.15g}"
    if "e+" in text or not math.isfinite(x) or 0.0 < abs(x) < sys.float_info.min:
        return json.dumps(_dec(x))
    return text if "." in text or "e" in text else text + ".0"


def _enclosure(lo: Fraction, hi: Fraction) -> list[float]:
    """Decimal rendering of an enclosure: 15 significant digits, lo rounded
    down and hi up, so the printed interval holds the exact one."""
    return [
        float(decimal.Context(prec=15, rounding=mode).divide(x.numerator, x.denominator))
        for x, mode in ((lo, decimal.ROUND_FLOOR), (hi, decimal.ROUND_CEILING))
    ]


def _read_input(path: str) -> str:
    """The text of an input file; bytes that are not ASCII are a parse error."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise GraphFormatError(
            f"{path}: byte {exc.object[exc.start]:#04x} at offset {exc.start} is not ASCII"
        ) from None


def _graph6_words(path: str) -> list[str]:
    """The graph6 words of an input file, one a line: each line stripped,
    a ``>>graph6<<`` header dropped, blank lines skipped."""
    lines = _read_input(path).splitlines()
    words = (line.strip().removeprefix(GRAPH6_HEADER) for line in lines)
    return [word for word in words if word]


def _load_graph(args) -> Graph:
    if args.format == "edgelist":
        return parse_edgelist(_read_input(args.input))
    return parse_graph6(args.input.removeprefix(GRAPH6_HEADER))


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
    elif p.tau1.rational is not None:
        # rational root: the enclosure collapses onto the exact value
        record["tau1"] = _enclosure(p.tau1.rational, p.tau1.rational)
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
    # J-spherical points lie on the unit sphere with the origin in their hull
    # (invariants.t_star): radius 1, or 1/sqrt(2) for the scaled copy.
    radius = None
    if args.model == "jspherical":
        config = geometry.jspherical_embedding(g)
        radius = 1.0
    elif args.model == "euclidean":
        if args.b is not None:
            b = args.b
        else:
            root, _ = tau1_mu(g)
            b = math.sqrt(float(root)) if root is not None else 2.0
        config = geometry.realize(g, b)
    elif is_complete(g):  # spherical from here on
        config = geometry.realize(g, 2.0)
    elif circumradius_invariant(g).is_finite:
        config = geometry.realize(g, math.sqrt(float(tau1_mu(g)[0])))
    else:
        js, root2 = geometry.jspherical_embedding(g), math.sqrt(2.0)
        config = geometry.PointConfig(js.points / root2, 1.0, js.b / root2, js.rank)
        radius = math.sqrt(0.5)  # correctly rounded, unlike 1 / root2
    residual = config.max_distance_residual(g)
    if residual > 1e-6:
        raise GeometricInconsistencyError(
            f"embedding distance residual {residual:.3e}"
        )
    if radius is None:
        radius = geometry.min_enclosing_ball(config.points).radius
    # json.dumps of {"points", "a", "b", "rank", "radius"}, token by token
    rows = ", ".join(f"[{', '.join(map(_dec_text, row))}]" for row in config.points.tolist())
    print(
        f'{{"points": [{rows}], "a": {_dec_text(config.a)}, "b": {_dec_text(config.b)}, '
        f'"rank": {config.rank}, "radius": {_dec_text(radius)}}}'
    )
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
    """One batch record.  The invariant caches are cleared after each word,
    serial or in a ``--jobs`` worker, so a batch holds one graph's worth."""
    try:
        return analysis_record(parse_graph6(word), word)
    except TwoDistError as exc:
        return {"input": word, "error": str(exc)}
    finally:
        clear_caches()


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
    words = _graph6_words(args.input)
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


def _scan_limit_error(args) -> int | None:
    """The exit code for a catalog or verify --max-n outside 1..SCAN_MAX_N,
    after a message; None when it is inside."""
    if args.max_n < 1:  # a scan of no graph would pass for success
        print(f"--max-n must be >= 1, got {args.max_n}", file=sys.stderr)
        return EXIT_PARSE
    if args.max_n > SCAN_MAX_N:
        print(f"{args.command} supports max-n up to {SCAN_MAX_N}", file=sys.stderr)
        return EXIT_SIZE
    return None


def _cmd_catalog(args) -> int:
    error = _scan_limit_error(args)
    if error is not None:
        return error
    try:  # parsed once per n, before the first graph is analysed
        wants = [_parse_filter(args.filter, n) if args.filter else None
                 for n in range(1, args.max_n + 1)]
    except ValueError as exc:
        print(f"bad filter {args.filter!r}: {exc}", file=sys.stderr)
        return EXIT_PARSE
    for n, want in enumerate(wants, 1):
        for g in enumerate_graphs(n):
            rec = analysis_record(g)
            clear_caches()  # one graph's invariants held at a time
            if want is None or (want[1] is not None and rec[want[0]] == want[1]):
                print(json.dumps(rec))
    return 0


def _cmd_verify(args) -> int:
    error = _scan_limit_error(args)
    if error is not None:
        return error
    if args.input:
        graphs = map(parse_graph6, _graph6_words(args.input))
    else:
        graphs = (g for n in range(1, args.max_n + 1) for g in enumerate_graphs(n))
    passed = True
    for g in graphs:
        rep = verify_profile(g)
        rep.checks.extend(reciprocal_check(g).checks)
        if args.probe and tau1_mu(g)[0] is not None:
            rep.checks.extend(probe_f_monotonicity(g).checks)
        clear_caches()  # one graph's invariants held at a time
        passed = passed and rep.ok
        print(rep.to_json())
    return 0 if passed else 1


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
                   help="include the exact shape of the squared circumradius on (1, tau1)")
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
    except tuple(_EXITS) as exc:
        code, prefix = next(_EXITS[c] for c in type(exc).__mro__ if c in _EXITS)
        print(f"{prefix}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
