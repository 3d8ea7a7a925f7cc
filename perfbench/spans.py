"""Spans around the program's layers, installed from outside the program.

Each traced function is replaced by a wrapper at every ``twodist`` module
that binds it (``invariants`` imports names from ``polynomials``, ``cli``
and ``joins`` import ``profile`` and friends), so every call goes through
the wrapper.  The wrapper sits outside any ``lru_cache``: a cache hit
counts as a call.  Classes are traced through a method on the class.

Spans (name, start, end, parent) are kept in memory; self time is a span's
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
from time import perf_counter_ns

# (module, attribute path) of every traced layer.  A class name stands for
# its constructions.
TARGETS = (
    ("invariants", "profile"),
    ("invariants", "cm_polynomials"),
    ("invariants", "tau1_mu"),
    ("invariants", "tau0"),
    ("invariants", "circumradius_invariant"),
    ("invariants", "feasible_interval"),
    ("polynomials", "det_poly_matrix"),
    ("polynomials", "squarefree_decomposition"),
    ("polynomials", "smallest_root_greater_than"),
    ("polynomials", "multiplicity_at"),
    ("polynomials", "enclose_rational_limit"),
    ("polynomials", "SturmChain"),
    ("polynomials", "AlgebraicReal.refined"),
    ("geometry", "realize"),
    ("geometry", "min_enclosing_ball"),
    ("geometry", "phi"),
    ("geometry", "solve_phi"),
    ("geometry", "beta_star_numeric"),
    ("geometry", "jspherical_embedding"),
    ("geometry", "kuperberg_decompose"),
    ("joins", "join_decompose"),
    ("graphs", "enumerate_graphs"),
    ("cli", "analysis_record"),
)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[tuple[int, int, int, int] | None] = []
        self.stack: list[int] = [-1]
        self.cached: dict[str, object] = {}  # name -> lru_cache'd original

    def wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[idx] = (name_id, start, end, parent)

        functools.update_wrapper(wrapper, fn)
        if hasattr(fn, "cache_info"):
            # invariants.clear_caches() reaches the cache through the
            # module global, which is now this wrapper.
            wrapper.cache_info = fn.cache_info
            wrapper.cache_clear = fn.cache_clear
            self.cached[name] = fn
        return wrapper

    def install(self) -> None:
        """Wrap every target at every twodist module that binds it."""
        modules = [m for k, m in sys.modules.items() if k == "twodist" or k.startswith("twodist.")]
        for mod_name, path in TARGETS:
            home = sys.modules[f"twodist.{mod_name}"]
            name = f"{mod_name}.{path}"
            if "." in path:
                cls_name, meth = path.split(".")
                cls = getattr(home, cls_name)
                setattr(cls, meth, self.wrap(name, getattr(cls, meth)))
                continue
            obj = getattr(home, path)
            if isinstance(obj, type):
                obj.__init__ = self.wrap(name, obj.__init__)
                continue
            wrapper = self.wrap(name, obj)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is obj:
                        setattr(mod, key, wrapper)

    def cache_misses(self) -> dict[str, int]:
        return {name: fn.cache_info().misses for name, fn in self.cached.items()}

    def reset(self) -> None:
        self.spans.clear()

    def totals(self, weights: list[float] | None = None) -> dict[str, tuple[int, float]]:
        """name -> (calls, self time in ns) over the recorded spans.

        With ``weights``, the self time of every span under the k-th root
        span is scaled by ``weights[k]``."""
        spans = self.spans
        child = [0] * len(spans)
        for name_id, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        calls = [0] * len(self.names)
        self_ns = [0.0] * len(self.names)
        root = -1
        for i, (name_id, start, end, parent) in enumerate(spans):
            if parent < 0:
                root += 1
            weight = weights[root] if weights else 1.0
            calls[name_id] += 1
            self_ns[name_id] += (end - start - child[i]) * weight
        return {n: (calls[i], self_ns[i]) for i, n in enumerate(self.names)}

    def write(self, path) -> None:
        """All spans as gzipped JSON: names plus [name, start, end, parent]."""
        with gzip.open(path, "wt", encoding="ascii", compresslevel=1) as fh:
            json.dump({"names": self.names, "spans": self.spans}, fh, separators=(",", ":"))
