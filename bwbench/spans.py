"""In-memory spans around calls into bwlab's public functions.

A Tracer replaces each listed function by a wrapper that records one
span (name, start, end, parent, extra) per call.  The wrapper is bound
under every name that held the original in any loaded bwlab module,
because `from .f2linalg import rank` binds `rank` inside f2quad and a
patch of f2linalg alone would miss those calls.  Spans stay in memory
until the round ends.  The stack of open spans assumes that the wrapped
functions are called from the main thread only, which holds for bwlab:
its thread pool runs the enumeration blocks, which call none of them.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from fractions import Fraction

# (module, function) pairs that get a span; the span's name is "module.function"
TRACED = (
    ("exlat", "enumerate_norm"), ("exlat", "minimum_norm"),
    ("exlat", "generated_by_norm_vectors"), ("exlat", "lll_reduce"),
    ("exlat", "hnf_basis"), ("exlat", "dual"),
    ("exlat", "quotient_invariants"), ("exlat", "determinant"),
    ("bw", "bw16"), ("bw", "bw32"), ("bw", "bw1"),
    ("bw", "similarity_invariants"), ("bw", "tower_check"),
    ("f2linalg", "rank"),
    ("f2quad", "isometry_counts"), ("f2quad", "singular_count"),
    ("f2quad", "transport"),
    ("srg", "perp_graph"), ("srg", "srg_params"),
    ("qser", "t1_series"), ("qser", "j_series"),
    ("gord", "e6_order"), ("gord", "shape_order"),
    ("xrep", "closure"), ("xrep", "char_norm"),
    ("verify", "run_check"), ("cli", "main"),
)

CONSTRUCT = ("bw.bw16", "bw.bw32", "bw.bw1")

# per-layer metric -> unit; every traced round reports all of them
LAYER_UNITS = {
    "exlat.enumerate_norm.s": "s",
    "exlat.enumerate_norm.calls": "count",
    "exlat.enumerate_norm.vectors": "count",
    "exlat.enumerate_norm.repeat_calls": "count",
    "exlat.enumerate_norm.repeat_s": "s",
    "exlat.minimum_norm.s": "s",
    "exlat.minimum_norm.enum_calls": "count",
    "exlat.generated_by_norm_vectors.self_s": "s",
    "exlat.lll_reduce.s": "s",
    "exlat.hnf_basis.s": "s",
    "exlat.hnf_basis.calls": "count",
    "exlat.dual.s": "s",
    "exlat.quotient_invariants.s": "s",
    "exlat.determinant.s": "s",
    "bw.construct.s": "s",
    "bw.similarity_invariants.self_s": "s",
    "bw.tower_check.s": "s",
    "f2quad.isometry_counts.s": "s",
    "f2linalg.rank.calls": "count",
    "f2linalg.rank.s": "s",
    "f2quad.singular_count.s": "s",
    "f2quad.transport.s": "s",
    "srg.perp_graph.s": "s",
    "srg.srg_params.s": "s",
    "srg.srg_params.pairs": "count",
    "qser.t1_series.s": "s",
    "qser.j_series.calls": "count",
    "gord.e6_order.s": "s",
    "gord.shape_order.s": "s",
    "xrep.closure.s": "s",
    "xrep.char_norm.s": "s",
    "verify.run_check.self_s": "s",
    "cli.main.self_s": "s",
}


class Tracer:
    """Collects spans as [name, start, end, parent index, extra]."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self._asked: set = set()

    def _wrap(self, name: str, fn, extra):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, self._open[-1] if self._open else -1, None]
            self._open.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._open.pop()
            if extra is not None:
                span[4] = extra(args, kwargs, result)
            return result
        return traced

    def install(self) -> None:
        """Bind a wrapper in place of every traced function, wherever bound."""
        from bwlab import exlat
        hnf = exlat.hnf_basis  # the cached original, read before patching

        def enumerated(args, kwargs, result):
            # (vectors returned, whether this canonical (lattice, norm)
            # pair was asked before in the round); hnf_basis of the
            # argument is a cache hit, as enumerate_norm has just made it
            norm = args[1] if len(args) > 1 else kwargs["n"]
            key = (hnf(args[0]), Fraction(norm))
            repeat = key in self._asked
            self._asked.add(key)
            count = result if isinstance(result, int) else len(result)
            return count, repeat

        def pairs(args, kwargs, result):
            n = (args[0] if args else kwargs["g"]).n
            return n * (n - 1) // 2

        extras = {"exlat.enumerate_norm": enumerated, "srg.srg_params": pairs}
        modules = [m for k, m in sys.modules.items()
                   if k.startswith("bwlab.") and m is not None]
        for mod_name, fn_name in TRACED:
            name = f"{mod_name}.{fn_name}"
            original = getattr(sys.modules[f"bwlab.{mod_name}"], fn_name)
            wrapper = self._wrap(name, original, extras.get(name))
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "extra"],
                       "spans": self.spans}, fh)

    def layer_metrics(self) -> dict[str, float]:
        """Every LAYER_UNITS metric from the recorded spans."""
        spans = self.spans
        child = [0.0] * len(spans)
        for s in spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]

        def inside(i: int, names) -> bool:
            p = spans[i][3]
            while p >= 0:
                if spans[p][0] in names:
                    return True
                p = spans[p][3]
            return False

        total: dict[str, float] = {}
        own: dict[str, float] = {}
        calls: dict[str, int] = {}
        for i, (name, start, end, _, _) in enumerate(spans):
            calls[name] = calls.get(name, 0) + 1
            own[name] = own.get(name, 0.0) + (end - start - child[i])
            if not inside(i, (name,)):  # time nested in itself counts once
                total[name] = total.get(name, 0.0) + (end - start)

        enum = [(i, s) for i, s in enumerate(spans)
                if s[0] == "exlat.enumerate_norm"]
        construct = sum(s[2] - s[1] for i, s in enumerate(spans)
                        if s[0] in CONSTRUCT and not inside(i, CONSTRUCT))
        out: dict[str, float] = {
            "exlat.enumerate_norm.vectors": sum(s[4][0] for _, s in enum),
            "exlat.enumerate_norm.repeat_calls": sum(1 for _, s in enum if s[4][1]),
            "exlat.enumerate_norm.repeat_s": sum(
                s[2] - s[1] for _, s in enum if s[4][1]),
            "exlat.minimum_norm.enum_calls": sum(
                1 for i, _ in enum if inside(i, ("exlat.minimum_norm",))),
            "bw.construct.s": construct,
            "srg.srg_params.pairs": sum(
                s[4] for s in spans if s[0] == "srg.srg_params"),
        }
        for metric in LAYER_UNITS:
            if metric in out:
                continue
            layer, quantity = metric.rsplit(".", 1)
            source = {"s": total, "self_s": own, "calls": calls}[quantity]
            out[metric] = source.get(layer, 0)
        return out
