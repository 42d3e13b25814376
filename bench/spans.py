"""Spans around the public functions of each `planarblocks` layer.

``Tracer.install`` rebinds the traced functions in every `planarblocks`
module namespace that holds them, because the modules import each other
with ``from .x import y`` and patching only the defining module would
miss those calls.  ``Graph.has_edge`` and ``NestedFamily.__init__`` are
patched on their classes.  ``uninstall`` puts the originals back.

Each span records its name, start, end, parent span and operation id,
and stays in memory until ``dump``.  ``Graph.has_edge`` runs hundreds of
thousands of times per triblocks pass, so it gets no span of its own: its
calls and time are added to the enclosing span and to the layer totals.

Layer totals are kept as spans close.  A layer's time is the duration of
its outermost spans (a span nested in a span of the same layer is not
counted twice), except for the ``self`` layers, whose time is the span's
duration minus that of its traced children.
"""

from __future__ import annotations

import importlib
import json
import pkgutil
from collections import defaultdict
from time import perf_counter

# traced function -> (layer time metric, time is self time)
TIMED = {
    "run": ("cli.self_ms", True),
    "parse_edge_list": ("graph.parse_ms", False),
    "homeomorphic_reduce": ("graph.reduce_ms", False),
    "connected_components": ("graph.connectivity_ms", False),
    "is_connected": ("graph.connectivity_ms", False),
    "is_k_connected": ("graph.connectivity_ms", False),
    "is_three_connected_by_cutsets": ("graph.connectivity_ms", False),
    "make_separation": ("separation.make_ms", False),
    "cut_vertices": ("blocks1.cut_vertices_ms", False),
    "b1_family": ("blocks1.family_ms", False),
    "NestedFamily.__init__": ("treeset.family_check_ms", False),
    "build_structure_tree": ("treeset.tree_ms", False),
    "verify_tree_correspondence": ("treeset.verify_ms", False),
    "triblock_tree": ("blocks2.self_ms", True),
    "torso": ("blocks2.torso_ms", False),
    "automorphism_group": ("symmetry.aut_ms", False),
    "orbit_of_separation": ("symmetry.orbit_ms", False),
    "planarity_test": ("planar.test_ms", True),
    "facial_walks": ("planar.faces_ms", False),
    "parse_presentation": ("cayley.parse_ms", False),
    "coset_enumerate": ("cayley.enumerate_ms", False),
    "cayley_graph": ("cayley.graph_ms", False),
    "dumps": ("serialize.dumps_ms", False),
}


def _cosets(args, result, exc):
    if exc is not None:
        witness = getattr(exc, "witness", None) or {}
        return witness.get("defined", witness.get("order", 0))
    return result.order


# traced function -> (count metric, count of one call from its
# arguments, result and exception)
COUNTED = {
    "make_separation": ("separation.made", lambda a, r, e: e is None),
    "b1_family": ("blocks1.family_size",
                  lambda a, r, e: len(r.elements) if e is None else 0),
    "build_structure_tree": ("treeset.trees_built", lambda a, r, e: 1),
    "torso": ("blocks2.torsos", lambda a, r, e: 1),
    "automorphism_group": ("symmetry.group_elements",
                           lambda a, r, e: r.order if e is None else 0),
    "orbit_of_separation": ("symmetry.orbit_images",
                            lambda a, r, e: len(a[1])),
    "coset_enumerate": ("cayley.cosets", _cosets),
    "dumps": ("serialize.bytes",
              lambda a, r, e: len(r.encode()) if e is None else 0),
}

HAS_EDGE_CALLS = "graph.has_edge_calls"
HAS_EDGE_MS = "graph.has_edge_ms"

# every layer metric a traced pass reports, zero where the layer is idle
LAYER_METRICS = tuple(sorted(
    {m for m, _ in TIMED.values()} | {m for m, _ in COUNTED.values()}
    | {HAS_EDGE_CALLS, HAS_EDGE_MS}))
TIME_METRICS = frozenset({m for m, _ in TIMED.values()} | {HAS_EDGE_MS})


class Tracer:
    def __init__(self):
        self.spans = []        # (op, name, start, end, parent, self_s)
        self.op = -1           # operation id stamped on new spans
        self.totals = defaultdict(float)   # seconds or counts
        self._stack = []       # [span index or -1, child seconds]
        self._depth = defaultdict(int)     # layer -> open outermost spans
        self._patched = []     # (namespace, attribute, original)

    # ------------------------------------------------------------ patching

    def _wrap(self, name, fn):
        metric, self_time = TIMED[name]
        counted = COUNTED.get(name)
        stack, depth, totals, spans = (self._stack, self._depth,
                                       self.totals, self.spans)

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            frame = [len(spans), 0.0]
            spans.append(None)
            stack.append(frame)
            depth[metric] += 1
            result = exc = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                end = perf_counter()
                stack.pop()
                depth[metric] -= 1
                took = end - start
                own = took - frame[1]
                if self_time:
                    totals[metric] += own
                elif depth[metric] == 0:
                    totals[metric] += took
                if counted is not None:
                    totals[counted[0]] += counted[1](args, result, exc)
                spans[frame[0]] = (self.op, name, start, end, parent, own)
                if stack:
                    stack[-1][1] += took

        traced.__wrapped__ = fn
        return traced

    def _wrap_has_edge(self, fn):
        stack, totals = self._stack, self.totals

        def traced(graph, u, v):
            start = perf_counter()
            try:
                return fn(graph, u, v)
            finally:
                took = perf_counter() - start
                totals[HAS_EDGE_CALLS] += 1
                totals[HAS_EDGE_MS] += took
                if stack:
                    stack[-1][1] += took

        traced.__wrapped__ = fn
        return traced

    def install(self):
        import planarblocks
        from planarblocks.graph import Graph
        from planarblocks.treeset import NestedFamily

        modules = [importlib.import_module("planarblocks." + m.name)
                   for m in pkgutil.iter_modules(planarblocks.__path__)]
        modules.append(planarblocks)
        wrappers = {}
        for module in modules:
            for name in TIMED:
                fn = module.__dict__.get(name)
                if fn is None or not callable(fn) or not getattr(
                        fn, "__module__", "").startswith("planarblocks"):
                    continue
                if id(fn) not in wrappers:
                    wrappers[id(fn)] = self._wrap(name, fn)
                self._patch(module, name, wrappers[id(fn)])
        self._patch(Graph, "has_edge", self._wrap_has_edge(Graph.has_edge))
        self._patch(NestedFamily, "__init__",
                    self._wrap("NestedFamily.__init__", NestedFamily.__init__))

    def _patch(self, owner, attribute, value):
        self._patched.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, value)

    def uninstall(self):
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)

    # --------------------------------------------------------------- output

    def take_totals(self):
        """Layer totals since the last call, every layer present."""
        out = {m: self.totals.get(m, 0.0) for m in LAYER_METRICS}
        self.totals.clear()
        return out

    def dump(self, path):
        """Write every span as one JSON line; times in seconds."""
        with open(path, "w", encoding="utf-8") as fh:
            for op, name, start, end, parent, own in self.spans:
                fh.write(json.dumps({"op": op, "name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "self": own}) + "\n")
