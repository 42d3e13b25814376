"""Finite simple graphs with deterministic iteration order.

Vertices are integers; edges are stored as (min, max) tuples.  All
operations iterate vertices and edges in sorted order so that every
downstream computation (decompositions, serializations) is reproducible
byte for byte.

The decomposition layers all ask one question: what is left of a graph
once one or two vertices are removed?  `connected_components(g, drop)`
answers it without copying the graph, and `separating_sets(g, size)`
lists every vertex set of that size whose removal disconnects g, with
the components it leaves.

`Graph.index` numbers the sorted vertices and the sorted edges from 0,
so that a set of vertices or of edges is one int bitmask.  Separations
are held as such masks: containment, complements and intersections are
then a few big-int operations instead of set operations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, reduce
from itertools import combinations, compress
from operator import or_

from .errors import MalformedInput, NotConnected


def edge_key(u, v):
    """Canonical form of an undirected edge."""
    return (u, v) if u <= v else (v, u)


@dataclass(frozen=True)
class Graph:
    vertices: tuple
    edges: tuple
    _adj: dict = field(init=False, repr=False, compare=False, hash=False, default=None)
    vertex_set: frozenset = field(init=False, repr=False, compare=False,
                                  hash=False, default=None)
    edge_set: frozenset = field(init=False, repr=False, compare=False,
                                hash=False, default=None)
    # vertex -> its incident edge keys, filled on first request so that
    # short-lived subgraphs pay nothing for it
    _incident: dict = field(init=False, repr=False, compare=False,
                            hash=False, default=None)

    def __post_init__(self):
        adj = {v: [] for v in self.vertices}
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        for v in adj:
            adj[v] = tuple(sorted(adj[v]))
        object.__setattr__(self, "_adj", adj)
        object.__setattr__(self, "vertex_set", frozenset(self.vertices))
        object.__setattr__(self, "edge_set", frozenset(self.edges))
        object.__setattr__(self, "_incident", {})

    def __hash__(self):
        return hash((self.vertices, self.edges))

    def neighbors(self, v):
        return self._adj[v]

    def degree(self, v):
        return len(self._adj[v])

    def incident_edges(self, v):
        es = self._incident.get(v)
        if es is None:
            es = self._incident[v] = tuple(edge_key(v, w)
                                           for w in self._adj[v])
        return es

    def has_edge(self, u, v):
        return edge_key(u, v) in self.edge_set

    def __contains__(self, v):
        return v in self._adj

    @cached_property
    def index(self):
        """Bit positions of the vertices and edges, built on first use."""
        return GraphIndex(self)


def set_bits(mask):
    """Positions of the set bits of mask, ascending, one step per bit."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _selected(items, mask):
    """The items at the set bits of mask, in order, from one scan of its
    binary digits."""
    return compress(items, map("1".__eq__, bin(mask)[:1:-1]))


class GraphIndex:
    """Bit i of a vertex mask is vertex i of the sorted vertices, and bit
    k of an edge mask is edge k of the sorted edges.  `star[i]` holds
    vertex i's neighbours as a vertex mask and, shifted past the vertex
    bits, its edges as an edge mask, so one OR over a vertex set gives
    both its neighbours and the edges at it."""

    __slots__ = ("vertices", "edges", "vertex_bit", "edge_bit", "star",
                 "all_vertices", "all_edges")

    def __init__(self, g):
        self.vertices = tuple(sorted(g.vertices))
        self.edges = tuple(sorted(g.edges))
        self.vertex_bit = {v: 1 << i for i, v in enumerate(self.vertices)}
        self.edge_bit = {e: 1 << k for k, e in enumerate(self.edges)}
        n = len(self.vertices)
        star = dict.fromkeys(self.vertices, 0)
        for (u, v), bit in self.edge_bit.items():
            star[u] |= self.vertex_bit[v] | bit << n
            star[v] |= self.vertex_bit[u] | bit << n
        self.star = tuple(star.values())
        self.all_vertices = (1 << n) - 1
        self.all_edges = (1 << len(self.edges)) - 1

    def vertex_mask(self, vs):
        """(mask of the host vertices in vs, sorted list of the others)."""
        return _mask_of(self.vertex_bit, set(vs))

    def edge_mask(self, es):
        """(mask of the host edges in es, sorted list of the others);
        edges may be given in either orientation."""
        return _mask_of(self.edge_bit, {edge_key(*e) for e in es})

    def vertices_of(self, mask):
        return tuple(_selected(self.vertices, mask))

    def edges_of(self, mask):
        return tuple(_selected(self.edges, mask))

    def incident(self, i):
        """Edge mask of the edges at vertex i."""
        return self.star[i] >> len(self.vertices)

    def reach(self, mask):
        """(neighbours of, edges at) the vertices of a vertex mask."""
        star = reduce(or_, _selected(self.star, mask), 0)
        return star & self.all_vertices, star >> len(self.vertices)


def _mask_of(bits, items):
    """(OR of the bits of the known items, sorted list of the others)."""
    return (reduce(or_, map(bits.__getitem__, items.intersection(bits)), 0),
            sorted(items.difference(bits)))


def build_graph(vertices, edges):
    """Validate and build a Graph; rejects loops and stray endpoints.

    Duplicate vertex ids and duplicate edge pairs collapse silently (the
    edge set is a set); only loops are errors.
    """
    vs = sorted(set(vertices))
    if not vs:
        raise MalformedInput("graph needs at least one vertex")
    vset = set(vs)
    seen = set()
    for e in edges:
        try:
            u, v = e
        except (TypeError, ValueError):
            raise MalformedInput("edge is not a pair", witness=repr(e))
        if u == v:
            raise MalformedInput("loop edge", witness=[u, v])
        if u not in vset or v not in vset:
            raise MalformedInput("edge endpoint not a vertex", witness=[u, v])
        seen.add(edge_key(u, v))
    return Graph(tuple(vs), tuple(sorted(seen)))


def parse_edge_list(text):
    """Parse the edge-list exchange format.

    One "u v" pair per line, '#' starts a comment, and an optional
    "vertices: n" header declares vertices 0..n-1 (needed for isolated
    vertices).
    """
    vertices = set()
    declared = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("vertices:"):
            if declared is not None:
                raise MalformedInput("repeated vertices header", witness=lineno)
            body = line[len("vertices:"):].strip()
            if not body.isdigit() or int(body) < 1:
                raise MalformedInput("vertices header needs a positive count",
                                     witness=line)
            declared = int(body)
            continue
        parts = line.split()
        if len(parts) != 2 or not all(p.isdigit() for p in parts):
            raise MalformedInput("expected 'u v' with non-negative integers",
                                 witness={"line": lineno, "text": raw.rstrip()})
        u, v = int(parts[0]), int(parts[1])
        vertices.update((u, v))
        edges.append((u, v))
    if declared is not None:
        extra = [v for v in vertices if v >= declared]
        if extra:
            raise MalformedInput("edge endpoint outside declared range",
                                 witness=sorted(extra))
        vertices = set(range(declared))
    if not vertices:
        raise MalformedInput("empty input")
    return build_graph(sorted(vertices), edges)


def format_edge_list(g):
    lines = ["vertices: %d" % (max(g.vertices) + 1)] if g.vertices else []
    lines += ["%d %d" % e for e in g.edges]
    return "\n".join(lines) + "\n"


def connected_components(g, drop=()):
    """Components of g minus the vertices in drop, as sorted vertex
    tuples ordered by smallest member.  The BFS skips the dropped
    vertices, so no copy of the graph is made."""
    seen = set(drop)
    out = []
    for start in g.vertices:
        if start in seen:
            continue
        seen.add(start)
        comp = [start]
        for x in comp:      # the list grows behind the scan: a BFS queue
            for y in g.neighbors(x):
                if y not in seen:
                    seen.add(y)
                    comp.append(y)
        out.append(tuple(sorted(comp)))
    return out


def is_connected(g):
    return len(connected_components(g)) == 1


def induced_subgraph(g, vs):
    vset = set(vs)
    return Graph(tuple(sorted(vset)),
                 tuple(e for e in g.edges if e[0] in vset and e[1] in vset))


def remove_vertices(g, drop):
    keep = [v for v in g.vertices if v not in drop]
    return induced_subgraph(g, keep)


def is_simple_cycle(g):
    return (len(g.vertices) >= 3
            and all(g.degree(v) == 2 for v in g.vertices)
            and is_connected(g))


def separating_sets(g, size):
    """(drop, components of g - drop) for every `size`-subset drop of the
    vertices whose removal leaves at least two components, in
    `combinations` order."""
    for drop in combinations(g.vertices, size):
        comps = connected_components(g, drop)
        if len(comps) > 1:
            yield drop, comps


def has_cutset(g, size):
    """True if removing some `size`-subset of vertices disconnects g."""
    return next(separating_sets(g, size), None) is not None


def is_k_connected(g, k):
    """Vertex connectivity test for k in {1, 2, 3}, by cutset enumeration.

    k=3 follows the convention that a 3-connected graph has at least 5
    vertices; the decomposition layer separately admits tiny torsos.
    """
    if k not in (1, 2, 3):
        raise MalformedInput("k must be 1, 2 or 3", witness=k)
    if k == 1:
        return is_connected(g)
    if k == 2:
        return len(g.vertices) >= 3 and is_connected(g) and not has_cutset(g, 1)
    return (len(g.vertices) >= 5 and is_connected(g)
            and not has_cutset(g, 1) and not has_cutset(g, 2))


def is_three_connected_by_cutsets(g):
    """Cutset criterion used by the decomposition layer: no cutset of
    size at most 2.  Admits K4, unlike the strict is_k_connected."""
    return (len(g.vertices) >= 4 and is_connected(g)
            and not has_cutset(g, 1) and not has_cutset(g, 2))


def is_simple_path(g):
    """True when g is homeomorphic to an interval (a path with >= 1 edge)."""
    if len(g.vertices) < 2 or not is_connected(g):
        return False
    degs = sorted(g.degree(v) for v in g.vertices)
    return degs[:2] == [1, 1] and all(d == 2 for d in degs[2:])


@dataclass(frozen=True)
class ReducedGraph:
    graph: Graph
    walks: dict  # reduced edge -> host vertex walk from min to max endpoint
    is_cycle: bool
    is_path: bool = False
    # reduced edge -> extra host walks whose suppression collapsed onto it
    parallels: dict = field(default_factory=dict)

    def all_host_walks(self, reduced_edge):
        return (self.walks[reduced_edge],) + tuple(
            self.parallels.get(reduced_edge, ()))

    def edge_map(self):
        """Total map original host edge -> reduced edge."""
        out = {}
        for e in self.graph.edges:
            for walk in self.all_host_walks(e):
                for i in range(len(walk) - 1):
                    out[edge_key(walk[i], walk[i + 1])] = e
        return out


def homeomorphic_reduce(g):
    """Iteratively suppress degree-2 vertices, collapsing parallel edges.

    A simple-cycle input is returned unchanged with the cycle flag set
    (the 2-regular exemption); everything else, paths included, reduces
    until no degree-2 vertex remains.  Each reduced edge maps to the host
    walk it replaces; when a suppression creates a parallel edge, the
    branch already present survives and the collapsed branch is kept as a
    parallel walk of the surviving edge, so the edge map stays total.
    """
    if not is_connected(g):
        raise NotConnected("cannot reduce a disconnected graph",
                           witness=connected_components(g)[0])
    if is_simple_cycle(g):
        return ReducedGraph(g, {e: e for e in g.edges}, True)
    path_input = is_simple_path(g)

    def oriented(walk, start):
        return walk if walk[0] == start else tuple(reversed(walk))

    adj = {v: set(g.neighbors(v)) for v in g.vertices}
    walks = {e: e for e in g.edges}
    parallels = {}
    changed = True
    while changed:
        changed = False
        for v in sorted(adj):
            if len(adj[v]) != 2:
                continue
            u, w = sorted(adj[v])
            pu = walks.pop(edge_key(u, v))
            pw = walks.pop(edge_key(v, w))
            side = parallels.pop(edge_key(u, v), []) + parallels.pop(
                edge_key(v, w), [])
            adj[u].discard(v)
            adj[w].discard(v)
            del adj[v]
            joined = oriented(pu, u) + oriented(pw, v)[1:]
            joined = oriented(joined, min(u, w))
            k = edge_key(u, w)
            if w not in adj[u]:
                adj[u].add(w)
                adj[w].add(u)
                walks[k] = joined
                if side:
                    parallels.setdefault(k, []).extend(side)
            else:
                parallels.setdefault(k, []).extend([joined] + side)
            changed = True
            break
    vs = tuple(sorted(adj))
    es = tuple(sorted(edge_key(a, b) for a in adj for b in adj[a] if a < b))
    return ReducedGraph(Graph(vs, es), walks, False, path_input,
                        {e: tuple(ws) for e, ws in parallels.items()})
