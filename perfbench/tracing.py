"""Layer tracing from outside the library.

``Tracer.install`` replaces the public functions of the library's modules,
a few methods that are choke points, and every module-level alias of them
(``cli.boundary_facets``, ``functionals._cover_moves``, the package's
re-exports) with wrappers that time each call.  Nothing in the library is
edited; the wrappers live only in the traced process.

Per name the tracer keeps calls, total time (outermost call of a recursion
only) and self time (duration minus the time of wrapped calls made inside
it).  Spans (id, name, start, end, parent id) are kept in memory for the
top ``SPAN_DEPTH`` levels of the call stack, where every operation is one
root span, and written out when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from collections import defaultdict
from time import perf_counter

SPAN_DEPTH = 3
SPAN_CAP = 200_000

MODULES = ("core", "poset", "functionals", "decompose", "hilbert", "io", "cli")

# (module, class, attribute, metric name) of the methods wrapped besides the
# public functions.
METHODS = [
    ("core", "BettiDiagram", "__add__", "core.BettiDiagram.add"),
    ("core", "BettiDiagram", "scaled", "core.BettiDiagram.scaled"),
    ("core", "LaurentPolynomial", "exact_div_one_minus_t", "core.exact_div_one_minus_t"),
    ("poset", "Chain", "__init__", "poset.Chain.init"),
    ("functionals", "Functional", "__call__", "functionals.Functional.eval"),
    ("decompose", "Decomposition", "reconstruct", "decompose.reconstruct"),
    ("hilbert", "HilbertSeries", "expand", "hilbert.expand"),
]


class _Counted:
    """Iterator over a materialized result that counts the items taken."""

    def __init__(self, items, counters, key):
        self._it = iter(items)
        self._counters = counters
        self._key = key

    def __iter__(self):
        return self

    def __next__(self):
        item = next(self._it)
        self._counters[self._key] += 1
        return item


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}
        self.counters: dict[str, int] = defaultdict(int)
        self.spans: list[tuple] = []
        self.dropped_spans = 0
        self._stack: list[list] = []
        self._depth: dict[str, int] = defaultdict(int)
        self._ids = 0

    # -- spans ---------------------------------------------------------
    def enter(self, name: str) -> list:
        stack = self._stack
        sid = None
        if len(stack) < SPAN_DEPTH:
            if len(self.spans) < SPAN_CAP:
                self._ids += 1
                sid = self._ids
            else:
                self.dropped_spans += 1
        parent = stack[-1][3] if stack else None
        frame = [name, 0.0, 0.0, sid, parent]
        stack.append(frame)
        self._depth[name] += 1
        frame[1] = perf_counter()
        return frame

    def exit(self, frame: list) -> None:
        end = perf_counter()
        name, start, child, sid, parent = frame
        self._stack.pop()
        duration = end - start
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = [0, 0.0, 0.0]
        st[0] += 1
        st[2] += duration - child
        self._depth[name] -= 1
        if not self._depth[name]:
            st[1] += duration
        if self._stack:
            self._stack[-1][2] += duration
        if sid is not None:
            self.spans.append((sid, name, start, end, parent))

    def wrap(self, name: str, fn):
        enter, exit_ = self.enter, self.exit

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_(frame)

        return wrapper

    def calls(self, name: str) -> int:
        st = self.stats.get(name)
        return st[0] if st else 0

    # -- special wrappers ----------------------------------------------
    def _materialized(self, name, fn, made_key, used_key=None):
        """Generator functions: time the whole production, count items."""
        enter, exit_, counters = self.enter, self.exit, self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = enter(name)
            try:
                items = list(fn(*args, **kwargs))
            finally:
                exit_(frame)
            counters[made_key] += len(items)
            if used_key is None:
                return iter(items)
            return _Counted(items, counters, used_key)

        return wrapper

    def _counting_delta(self, inner, watched, key):
        """Count calls of ``watched`` made while ``inner`` runs."""
        counters, calls = self.counters, self.calls

        @functools.wraps(inner)
        def wrapper(*args, **kwargs):
            before = calls(watched)
            try:
                return inner(*args, **kwargs)
            finally:
                counters[key] += calls(watched) - before

        return wrapper

    def _special(self, lib, name, fn):
        if name == "poset.maximal_chains":
            return self._materialized(name, fn, "chains")
        if name == "poset.complete_chain":
            return self._materialized(name, fn, "completions", "completions_used")
        wrapped = self.wrap(name, fn)
        counters = self.counters
        if name == "functionals.boundary_facets":
            # Builds are cache misses while the facet sets are cached;
            # without that cache every call builds.
            cache = getattr(lib.functionals, "_boundary_facets_cached", None)
            misses = getattr(cache, "cache_info", None)

            @functools.wraps(fn)
            def facets(*args, **kwargs):
                before = misses().misses if misses else 0
                out = wrapped(*args, **kwargs)
                if not misses or misses().misses > before:
                    counters["facet_builds"] += 1
                    counters["facets_built"] += len(out)
                return out

            return facets
        if name == "functionals.coefficient_functional":
            seen = set()

            @functools.wraps(fn)
            def functional(*args, **kwargs):
                out = wrapped(*args, **kwargs)
                seen.add(out.coefficients)
                counters["distinct_functionals"] = len(seen)
                return out

            return functional
        if name == "functionals.membership_by_inequalities":
            return self._counting_delta(wrapped, "functionals.Functional.eval", "membership_evals")
        if name == "decompose.greedy_decompose":
            return self._counting_delta(wrapped, "core.pure_diagram", "greedy_steps")
        return wrapped

    # -- installation --------------------------------------------------
    def install(self, lib) -> None:
        """Wrap the library in place; ``lib`` exposes its modules by name."""
        replaced = {}
        for short in MODULES:
            module = getattr(lib, short)
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != module.__name__:
                    continue
                replaced[obj] = self._special(lib, f"{short}.{attr}", obj)
        moves = getattr(lib.poset, "_moves", None)
        if moves is not None:
            replaced[moves] = self.wrap("poset.moves", moves)
        for modname, module in list(sys.modules.items()):
            if modname == "bettidecomp" or modname.startswith("bettidecomp."):
                for attr, obj in list(vars(module).items()):
                    if inspect.isfunction(obj) and obj in replaced:
                        setattr(module, attr, replaced[obj])
        for short, cls_name, attr, name in METHODS:
            cls = getattr(getattr(lib, short), cls_name)
            setattr(cls, attr, self.wrap(name, vars(cls)[attr]))
        pure = lib.core.PureDiagram
        betti = functools.cached_property(self.wrap("core.betti", vars(pure)["betti"].func))
        betti.__set_name__(pure, "betti")
        pure.betti = betti

    # -- output --------------------------------------------------------
    def dump(self, path) -> None:
        doc = {
            "stats": {
                name: {"calls": c, "total_s": t, "self_s": s}
                for name, (c, t, s) in sorted(self.stats.items())
            },
            "counters": dict(self.counters),
            "dropped_spans": self.dropped_spans,
            "spans": self.spans,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)


def layer_metrics(tr: Tracer, extra: dict) -> dict:
    """The per-layer metrics, by name, as (value, unit)."""
    st = tr.stats
    c = tr.counters
    calls = tr.calls

    def total(name):
        return st[name][1] if name in st else 0.0

    def self_s(name):
        return st[name][2] if name in st else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    chains_made = c["chains"] + c["completions"]
    out = {
        "core.pure_diagram.calls": (calls("core.pure_diagram"), "count"),
        "core.betti.calls": (calls("core.betti"), "count"),
        "core.betti.self_s": (self_s("core.betti"), "s"),
        "core.BettiDiagram.add.calls": (calls("core.BettiDiagram.add"), "count"),
        "core.BettiDiagram.add.self_s": (self_s("core.BettiDiagram.add"), "s"),
        "core.BettiDiagram.scaled.calls": (calls("core.BettiDiagram.scaled"), "count"),
        "core.BettiDiagram.scaled.self_s": (self_s("core.BettiDiagram.scaled"), "s"),
        "core.hk_residuals.calls": (calls("core.hk_residuals"), "count"),
        "core.hk_residuals.self_s": (self_s("core.hk_residuals"), "s"),
        "core.exact_div_one_minus_t.calls": (calls("core.exact_div_one_minus_t"), "count"),
        "core.exact_div_one_minus_t.self_s": (self_s("core.exact_div_one_minus_t"), "s"),
        "core.codimension.self_s": (self_s("core.codimension"), "s"),
        "poset.moves.calls": (calls("poset.moves"), "count"),
        "poset.moves.self_s": (self_s("poset.moves"), "s"),
        "poset.count_maximal_chains.total_s": (total("poset.count_maximal_chains"), "s"),
        "poset.maximal_chains.total_s": (total("poset.maximal_chains"), "s"),
        "poset.maximal_chains.chains": (c["chains"], "count"),
        "poset.tableau_from_chain.calls": (calls("poset.tableau_from_chain"), "count"),
        "poset.tableau_from_chain.self_s": (self_s("poset.tableau_from_chain"), "s"),
        "poset.tableau_from_chain.calls_per_chain": (
            ratio(calls("poset.tableau_from_chain"), chains_made), "1/chain"),
        "poset.covers.calls": (calls("poset.covers"), "count"),
        "poset.covers.self_s": (self_s("poset.covers"), "s"),
        "poset.Chain.init.calls": (calls("poset.Chain.init"), "count"),
        "poset.Chain.init.self_s": (self_s("poset.Chain.init"), "s"),
        "poset.complete_chain.total_s": (total("poset.complete_chain"), "s"),
        "poset.complete_chain.completions": (c["completions"], "count"),
        "poset.complete_chain.used_share": (ratio(c["completions_used"], c["completions"]), "share"),
        "functionals.boundary_facets.calls": (calls("functionals.boundary_facets"), "count"),
        "functionals.boundary_facets.builds": (c["facet_builds"], "count"),
        "functionals.boundary_facets.total_s": (total("functionals.boundary_facets"), "s"),
        "functionals.boundary_facets.facets": (c["facets_built"], "count"),
        "functionals.coefficient_functional.calls": (calls("functionals.coefficient_functional"), "count"),
        "functionals.coefficient_functional.self_s": (self_s("functionals.coefficient_functional"), "s"),
        "functionals.distinct_functional_share": (
            ratio(c["distinct_functionals"], calls("functionals.coefficient_functional")), "share"),
        "functionals.Functional.evals": (calls("functionals.Functional.eval"), "count"),
        "functionals.Functional.eval_self_s": (self_s("functionals.Functional.eval"), "s"),
        "functionals.evals_per_membership": (
            ratio(c["membership_evals"], calls("functionals.membership_by_inequalities")), "1/call"),
        "functionals.membership_by_inequalities.total_s": (
            total("functionals.membership_by_inequalities"), "s"),
        "functionals.verify_fan_convexity.total_s": (total("functionals.verify_fan_convexity"), "s"),
        "functionals.expand_in_chain.total_s": (total("functionals.expand_in_chain"), "s"),
        "functionals.derived_window.self_s": (self_s("functionals.derived_window"), "s"),
        "decompose.greedy_decompose.calls": (calls("decompose.greedy_decompose"), "count"),
        "decompose.greedy_decompose.total_s": (total("decompose.greedy_decompose"), "s"),
        "decompose.greedy_steps": (c["greedy_steps"], "count"),
        "decompose.s_per_step": (ratio(total("decompose.greedy_decompose"), c["greedy_steps"]), "s/step"),
        "decompose.verify_decomposition.total_s": (total("decompose.verify_decomposition"), "s"),
        "decompose.reconstruct.self_s": (self_s("decompose.reconstruct"), "s"),
        "hilbert.multiplicity_bounds.total_s": (total("hilbert.multiplicity_bounds"), "s"),
        "hilbert.expand.calls": (calls("hilbert.expand"), "count"),
        "hilbert.expand.self_s": (self_s("hilbert.expand"), "s"),
        "hilbert.multiplicity.self_s": (self_s("hilbert.multiplicity"), "s"),
        "io.parse_diagram.self_s": (self_s("io.parse_diagram"), "s"),
        "io.emit_decomposition.self_s": (self_s("io.emit_decomposition"), "s"),
        "io.encode.calls": (calls("io.encode"), "count"),
        "io.encode.self_s": (self_s("io.encode"), "s"),
        "cli.run.calls": (calls("cli.run"), "count"),
        "cli.run.self_s": (self_s("cli.run"), "s"),
    }
    out.update(extra)
    return out
