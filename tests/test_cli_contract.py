"""The CLI contract: every documented input, well formed or not, ends in an
exit code that the ``twodist.cli`` docstring lists, with no traceback on
stderr and JSON on stdout when it succeeds."""

import contextlib
import io
import json
import os
import re
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import graphs
from twodist import cli, invariants
from twodist.config import Config, get_config, set_config
from twodist.graphs import Graph, format_edgelist, to_graph6

DOCUMENTED = {int(code) for code in re.findall(r"(?:Exit codes:|;)\s+(\d+) ", cli.__doc__)}
DEFAULT_MAX_N = Config().max_n

# Well-formed values of each global flag and variable (None leaves it
# unset), and malformed ones; one of them is malformed in a third of the
# calls.
VALID = {
    "--tol": [None, "0", "1e-9", "1e-3", "0.5"],
    "--max-n": [None, "1", "4", "16", "64"],
    "--precision-bits": [None, "0", "8", "53", "120"],
    "TWODIST_MAX_N": [None, "5", "16", "64"],
    "TWODIST_TOL": [None, "1e-7", "1e-9"],
}
INVALID = {
    "--tol": ["-1", "nan", "inf"],
    "--max-n": ["-1", "0"],
    "--precision-bits": ["-1"],
    "TWODIST_MAX_N": ["0", "x"],
    "TWODIST_TOL": ["-1", "abc", "nan"],
}


def effective_max_n(flag, env):
    """The vertex limit a call runs under: the flag, else the variable."""
    for value in (flag, env):
        if value is not None:
            try:
                return int(value)
            except ValueError:
                return DEFAULT_MAX_N
    return DEFAULT_MAX_N


@st.composite
def graph6_words(draw):
    word = to_graph6(draw(graphs(1, 8)))
    kind = draw(st.sampled_from(["valid", "header", "truncated", "extended", "text"]))
    if kind == "header":
        return ">>graph6<<" + word
    if kind == "truncated":
        return word[: draw(st.integers(0, max(len(word) - 1, 0)))]
    if kind == "extended":
        return word + draw(st.characters(min_codepoint=32, max_codepoint=255))
    if kind == "text":
        return draw(st.text(st.characters(min_codepoint=32, max_codepoint=255), max_size=6))
    return word


@st.composite
def edge_list_graphs(draw, max_n):
    """A graph with n at, just below or just above the vertex limit."""
    n = max(1, min(max_n, 66) + draw(st.integers(-1, 1)))
    family = draw(st.sampled_from(["cycle", "path", "empty", "complete", "random"]))
    if n < 3 or family == "empty":
        return Graph.empty(n)
    if family == "complete" and n <= 20:
        return Graph.complete(n)
    if family == "random" and n <= 17:
        return draw(graphs(n, n))
    return Graph.path(n) if family == "path" else Graph.cycle(n)


@st.composite
def file_inputs(draw, folder, max_n, as_edge_list):
    """The path of a file to read: absent, not ASCII, or well formed."""
    kind = draw(st.sampled_from(["missing", "not-ascii", "well-formed"]))
    path = os.path.join(folder, f"input{draw(st.integers(0, 10**6))}.txt")
    if kind == "missing":
        return path
    if as_edge_list:
        text = format_edgelist(draw(edge_list_graphs(max_n)))
    else:
        text = "\n".join(draw(st.lists(graph6_words(), max_size=3)))
    body = text.encode("ascii", "backslashreplace")
    if kind == "not-ascii":
        body += "# café\n".encode()
    with open(path, "wb") as fh:
        fh.write(body)
    return path


@st.composite
def invocations(draw, folder):
    """(argv, environment) of one CLI call."""
    knobs = {name: draw(st.sampled_from(values)) for name, values in VALID.items()}
    broken = draw(st.sampled_from([None] * 2 * len(INVALID) + list(INVALID)))
    if broken is not None:
        knobs[broken] = draw(st.sampled_from(INVALID[broken]))
    env = {name: value for name, value in knobs.items() if name.startswith("TWODIST_")}
    argv = []
    for flag in ("--tol", "--max-n", "--precision-bits"):
        if knobs[flag] is not None:
            argv += [flag, knobs[flag]]
    limit = effective_max_n(knobs["--max-n"], env["TWODIST_MAX_N"])
    command = draw(st.sampled_from(["analyze", "embed", "decompose", "batch", "catalog", "verify"]))
    argv.append(command)
    if command in ("analyze", "embed", "decompose"):
        if command == "embed":
            argv += ["--model", draw(st.sampled_from(["euclidean", "spherical", "jspherical"]))]
            b = draw(st.sampled_from([None, "0.5", "2", "0", "-1", "nan", "1e160"]))
            if b is not None:
                argv += ["--b", b]
        if draw(st.booleans()):
            argv += ["--format", "edgelist", draw(file_inputs(folder, limit, True))]
        else:
            argv += ["--", draw(graph6_words())]
    elif command == "batch":
        output = draw(st.sampled_from(["jsonl", "json", "csv"]))
        argv += ["--output", output, draw(file_inputs(folder, limit, False))]
    elif command == "catalog":
        argv += ["--max-n", draw(st.sampled_from(["-1", "0", "1", "3", "4", "9", "12"]))]
        filt = draw(st.sampled_from([None, "dim_e=2", "dim_j=n/2", "dim_s=n-1", "foo=1", "dim_e=x"]))
        if filt is not None:
            argv += ["--filter", filt]
    else:  # verify
        argv += ["--max-n", draw(st.sampled_from(["-1", "0", "1", "3", "9", "10"]))]
        if draw(st.booleans()):
            argv += ["--input", draw(file_inputs(folder, limit, False))]
        if draw(st.booleans()):
            argv.append("--probe")
    return argv, env


def run_in_process(argv, env):
    """(exit code, stdout, stderr) of ``cli.main`` under the environment
    ``env``; an uncaught exception propagates and fails the test."""
    saved = {key: os.environ.get(key) for key in env}
    config = get_config()
    out, err = io.StringIO(), io.StringIO()
    try:
        for key, value in env.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse's usage errors
                code = exc.code
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
        set_config(config)
        invariants.clear_caches()  # refined under the call's configuration
    return code, out.getvalue(), err.getvalue()


def test_documented_codes():
    assert DOCUMENTED == {0, 1, 2, 3, 4, 5, 6, 7}


@settings(
    max_examples=100,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(data=st.data())
def test_every_input_ends_in_a_documented_exit(data):
    with tempfile.TemporaryDirectory() as folder:
        argv, env = data.draw(invocations(folder))
        code, out, err = run_in_process(argv, env)
    assert code in DOCUMENTED, (argv, env, code, err)
    assert "Traceback" not in err, (argv, env, err)
    if code == 0:
        lines = out.splitlines()
        if "--output" in argv and argv[argv.index("--output") + 1] == "csv":
            assert lines[0].startswith("input,")
        else:
            for line in lines:
                json.loads(line)
