"""Per-layer tracing of ontofocus from outside the library.

``Tracer.install`` rebinds every public function of every layer (one
layer per module) both in its home module and in every module that
imported it by name, so ``ontofocus.focusing.mixed_sat`` and
``ontofocus.closedworld.is_model`` are traced like the originals.
``Tracer.uninstall`` puts the original functions back.

Each call of a traced function is timed and counted.  Calls of functions
outside ``LEAVES`` are recorded as spans: name, the span that caused it,
the problem it belongs to, start, end and busy time.  A generator is one
span, timed across each of its ``next()`` calls.  Functions in
``LEAVES`` are called too often for one span each: they are timed under
the enclosing span without being recorded, and so is everything they
call; calls from a leaf into its own layer are only counted.  Self time
is busy time minus the time of the calls nested inside.  Spans stay in
memory until ``write``.
"""

from __future__ import annotations

import importlib
import inspect
import json
from time import perf_counter_ns
from typing import Dict, List

LAYERS = (
    "syntax",
    "parser",
    "oracle",
    "closedworld",
    "entailment",
    "focusing",
    "mosaic",
    "ineq",
    "horn",
)

LEAVES = {
    "syntax": {
        "is_valid_identifier", "role", "inv", "named", "nominal", "atom", "conj",
        "disj", "axiom_sort_key", "cq", "instance_query", "role_query", "is_cq",
        "is_atomic_query", "is_instance_query", "query_class", "as_cqs",
        "role_closure", "closure_of", "dialect_le", "dialect_rank", "generic_truth",
    },
    "oracle": {
        "simple_extension", "member", "generic_member", "concept_extension",
        "is_model", "evaluate_cq", "evaluate_query", "fresh_constant", "candidate_atoms",
    },
    "closedworld": {"in_cwa", "in_fix", "closed_extension_exists"},
    "entailment": {"evaluate_with_markers", "check_coherence"},
    "ineq": {"fin", "ext_sum", "inf_var", "check_solution"},
}

# Counts read off a traced function's result, by function and count name.
EXTRAS = {
    "oracle.is_model": {"accept": lambda r: int(bool(r))},
    "mosaic.enumerate_tiles": {"tiles": len},
    "mosaic.enumerate_lite_tiles": {"tiles": len},
    "mosaic.build_mosaic_system": {
        "vars": lambda r: len(r[0].variables),
        "rows": lambda r: len(r[0].inequations),
        "implications": lambda r: len(r[0].implications),
    },
    "entailment.enumerate_ntypes": {"ntypes": len},
    "entailment.minimal_coherent_sets": {
        "families": lambda r: len(r[0]),
        "complete": lambda r: int(bool(r[1])),
    },
}

# Result kinds, by function and result type: each call counts once under
# the kind of its result, and its busy time is added to that kind's time.
RESULT_KINDS = {
    "ineq.solve_enriched": {"Solution": "sat", "NoSolution": "unsat", "UnknownAtCap": "unknown"},
}


class Stat:
    __slots__ = ("calls", "ns", "self_ns", "yielded", "extra", "by_result_ns")

    def __init__(self):
        self.calls = 0
        self.ns = 0
        self.self_ns = 0
        self.yielded = 0
        self.extra: Dict[str, int] = {}
        self.by_result_ns: Dict[str, int] = {}


class Span:
    """A timed call; `id` is None for calls timed but not recorded."""

    __slots__ = ("id", "key", "layer", "parent", "problem", "start", "end", "busy", "child")

    def __init__(self, sid, key, layer, parent, problem):
        self.id = sid
        self.key = key
        self.layer = layer
        self.parent = parent
        self.problem = problem
        self.start = 0
        self.end = 0
        self.busy = 0
        self.child = 0


class Tracer:
    def __init__(self):
        self.stats: Dict[str, Stat] = {}
        self.spans: List[Span] = []
        self.stack: List[Span] = []
        self.problem = -1
        self._originals: List[tuple] = []

    def begin(self, problem: int) -> None:
        """Start a problem from the top level, even when the previous one
        was cut off inside a traced call."""
        self.problem = problem
        self.stack.clear()

    def stat(self, key: str) -> Stat:
        s = self.stats.get(key)
        if s is None:
            s = self.stats[key] = Stat()
        return s

    # -- frames -------------------------------------------------------------

    def _counted_only(self, layer: str) -> bool:
        top = self.stack[-1] if self.stack else None
        return top is not None and top.id is None and top.layer == layer

    def _new(self, key: str, layer: str, leaf: bool) -> Span:
        top = self.stack[-1] if self.stack else None
        if leaf or (top is not None and top.id is None):
            return Span(None, key, layer, None, self.problem)
        span = Span(len(self.spans), key, layer, top.id if top else None, self.problem)
        self.spans.append(span)
        return span

    def _enter(self, span: Span) -> int:
        self.stack.append(span)
        now = perf_counter_ns()
        if not span.start:
            span.start = now
        return now

    def _exit(self, span: Span, started: int) -> None:
        now = perf_counter_ns()
        dt = now - started
        span.end = now
        span.busy += dt
        # the deadline can interrupt this bookkeeping in a nested call and
        # leave that call's frame on the stack: unwind down to this span
        if span in self.stack:
            del self.stack[self.stack.index(span):]
        if self.stack:
            self.stack[-1].child += dt

    @staticmethod
    def _finish(span: Span, stat: Stat) -> None:
        stat.ns += span.busy
        stat.self_ns += span.busy - span.child

    @staticmethod
    def _observe(stat: Stat, key: str, result, ns: int) -> None:
        for name, count in EXTRAS.get(key, {}).items():
            stat.extra[name] = stat.extra.get(name, 0) + count(result)
        kinds = RESULT_KINDS.get(key)
        if kinds is not None:
            kind = kinds[type(result).__name__]
            stat.extra[kind] = stat.extra.get(kind, 0) + 1
            stat.by_result_ns[kind] = stat.by_result_ns.get(kind, 0) + ns

    def _wrap(self, layer: str, name: str, fn, leaf: bool):
        tracer, key = self, "%s.%s" % (layer, name)
        stat = self.stat(key)

        if inspect.isgeneratorfunction(fn):

            def traced(*args, **kwargs):
                stat.calls += 1
                if tracer._counted_only(layer):
                    yield from fn(*args, **kwargs)
                    return
                span = tracer._new(key, layer, leaf)
                it = fn(*args, **kwargs)
                try:
                    while True:
                        t0 = tracer._enter(span)
                        try:
                            item = next(it)
                        except StopIteration:
                            return
                        finally:
                            tracer._exit(span, t0)
                        stat.yielded += 1
                        yield item
                finally:
                    it.close()
                    tracer._finish(span, stat)

        else:

            def traced(*args, **kwargs):
                stat.calls += 1
                if tracer._counted_only(layer):
                    return fn(*args, **kwargs)
                span = tracer._new(key, layer, leaf)
                t0 = tracer._enter(span)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer._exit(span, t0)
                    tracer._finish(span, stat)
                tracer._observe(stat, key, result, span.busy)
                return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        return traced

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Rebind every public function of every layer, everywhere."""
        modules = [importlib.import_module("ontofocus")]
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module("ontofocus." + layer)
            modules.append(mod)
            for name, fn in list(vars(mod).items()):
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__ and not name.startswith("_"):
                    leaf = name in LEAVES.get(layer, ())
                    wrappers[fn] = self._wrap(layer, name, fn, leaf)
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._originals.append((mod, name, value))
                    setattr(mod, name, wrappers[value])

    def uninstall(self) -> None:
        for mod, name, fn in reversed(self._originals):
            setattr(mod, name, fn)
        self._originals.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results ------------------------------------------------------------

    def layer_self_s(self) -> Dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for key, s in self.stats.items():
            out[key.split(".", 1)[0]] += s.self_ns / 1e9
        return out

    def write(self, path: str) -> None:
        """One JSON line per recorded span: id, name, parent, problem,
        start and end (ns), busy and self time (ns)."""
        with open(path, "w") as f:
            for sp in self.spans:
                f.write(json.dumps([sp.id, sp.key, sp.parent, sp.problem, sp.start, sp.end, sp.busy, sp.busy - sp.child]))
                f.write("\n")
