"""Finite simple graphs with deterministic iteration order.

Vertices are integers; edges are stored as (min, max) tuples.  All
operations iterate vertices and edges in sorted order so that every
downstream computation (decompositions, serializations) is reproducible
byte for byte.

The decomposition layers ask what is left once one or two vertices go.
`connected_components(g, drop)` lists the pieces without copying the
graph.  One lowpoint DFS (Hopcroft and Tarjan, 1973) finds the cut
vertices, and run once per skipped vertex v, the 2-cuts {v, w}: the
cut vertices w of g - v (`cut_vertices`, `two_cuts`).

`Graph.index` numbers the sorted vertices and the sorted edges from 0,
so that a set of vertices or of edges is one int bitmask.  Separations
are held as such masks: containment, complements and intersections are
then a few big-int operations instead of set operations.

A `Graph` is built once and nothing assigns to it after, so each fact
about it stays valid once found.  Each is computed on first use and
kept on the object: its adjacency, its vertex and edge sets, its index,
its components (`Graph.components`, which `is_connected`,
`require_connected` and `is_simple_cycle` read) and its 2-cuts
(`Graph.cut_pairs`, which `two_cuts` returns).  The decomposition layers
hand the same object on wherever a graph does not change, so each fact
is found once per distinct graph.
"""

from collections import deque
from functools import cached_property, reduce
from heapq import heappop, heappush
from itertools import compress, islice
from operator import or_

from .errors import MalformedInput, NotConnected, TooLarge

# vertices a "vertices:" header may add beyond those its edges name
MAX_UNNAMED_VERTICES = 2 ** 20


def edge_key(u, v):
    """Canonical form of an undirected edge."""
    return (u, v) if u <= v else (v, u)


class Graph:
    """Adjacency lists and vertex and edge sets are built on first use.
    Two graphs are equal when their vertex and edge tuples are."""

    def __init__(self, vertices, edges):
        self.vertices = vertices
        self.edges = edges

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.vertices == other.vertices and self.edges == other.edges

    def __hash__(self):
        return hash((self.vertices, self.edges))

    def __repr__(self):
        return "Graph(vertices=%r, edges=%r)" % (self.vertices, self.edges)

    @cached_property
    def _adj(self):
        adj = {v: [] for v in self.vertices}
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        for v, around in adj.items():
            adj[v] = tuple(sorted(around))
        return adj

    @cached_property
    def vertex_set(self):
        return frozenset(self.vertices)

    @cached_property
    def edge_set(self):
        return frozenset(self.edges)

    @cached_property
    def components(self):
        """The components, as `connected_components` lists them."""
        return tuple(connected_components(self))

    @cached_property
    def cut_pairs(self):
        """The 2-cuts with their components, as `two_cuts` lists them."""
        return tuple(_two_cut_pass(self))

    def neighbors(self, v):
        return self._adj[v]

    def degree(self, v):
        return len(self._adj[v])

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
    """(OR of the bits of the known items, sorted list of the others).
    Both walk the items, not the index: a keys view intersects from the
    smaller side, and a set's difference with a dict probes the dict."""
    return (reduce(or_, map(bits.__getitem__, bits.keys() & items), 0),
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
    vertices).  A header that adds more than MAX_UNNAMED_VERTICES
    vertices no edge names is refused as TooLarge before they are built.
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
        if declared - len(vertices) > MAX_UNNAMED_VERTICES:
            raise TooLarge("vertices header adds too many isolated vertices",
                           witness={"declared": declared,
                                    "limit": MAX_UNNAMED_VERTICES})
        vertices = set(range(declared))
    if not vertices:
        raise MalformedInput("empty input")
    return build_graph(sorted(vertices), edges)


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
    return len(g.components) == 1


def require_connected(g, message):
    """Raise NotConnected(message), with the components of g as sorted
    vertex lists for its witness, unless g is connected."""
    comps = g.components
    if len(comps) > 1:
        raise NotConnected(message, witness=[list(c) for c in comps])


def induced_subgraph(g, vs):
    vset = set(vs)
    return Graph(tuple(sorted(vset)),
                 tuple(e for e in g.edges if e[0] in vset and e[1] in vset))


def is_simple_cycle(g):
    return (len(g.vertices) >= 3
            and all(g.degree(v) == 2 for v in g.vertices)
            and is_connected(g))


def _lowpoint_dfs(g, skip=None):
    """(order, parent, split) of one iterative lowpoint DFS of g minus the
    vertex skip, from its least vertex: discovery order, DFS parents
    (None at the root), and for each cut vertex c of g - skip the children
    whose lowpoint does not climb above c.  Each of their subtrees is a
    component of g - skip - c and, unless c is the root, the rest is one
    more.  skip counts as seen, discovered after every vertex, so it is
    never entered and never a lowpoint.
    """
    drop = () if skip is None else (skip,)
    root = min((v for v in g.vertices if v != skip), default=None)
    order = [root]                      # DFS discovery order
    disc = dict.fromkeys(drop, len(g.vertices))
    disc[root] = 0
    low = {root: 0}
    parent = {root: None}
    split = {}
    stack = [(root, iter(g.neighbors(root)))] if root is not None else []
    while stack:
        v, todo = stack[-1]
        for w in todo:
            if w not in disc:
                disc[w] = low[w] = len(order)
                parent[w] = v
                order.append(w)
                stack.append((w, iter(g.neighbors(w))))
                break
            if disc[w] < low[v] and w != parent[v]:
                low[v] = disc[w]
        else:
            stack.pop()
            p = parent[v]
            if p is not None:
                if low[v] < low[p]:
                    low[p] = low[v]
                if low[v] >= disc[p]:
                    split.setdefault(p, []).append(v)
    if root is None or len(order) + len(drop) < len(g.vertices):
        comps = connected_components(g, drop) if drop else g.components
        raise NotConnected("cut vertices are defined for connected graphs",
                           witness=[list(c) for c in comps])
    # every child of the root splits off; it is a cut vertex with two
    if len(split.get(root, ())) == 1:
        del split[root]
    return order, parent, split


def cut_vertices(g):
    """Vertices whose removal disconnects the connected graph g, sorted."""
    return tuple(sorted(_lowpoint_dfs(g)[2]))


def two_cuts(g):
    """(pair, components of g - pair) for every vertex pair whose removal
    disconnects the 2-connected graph g, in `combinations` order, found
    once per `Graph` object (`Graph.cut_pairs`)."""
    return g.cut_pairs


def _two_cut_pass(g):
    """The 2-cuts of `two_cuts`.  {v, w} is one when w is a cut vertex of
    g - v, so one `_lowpoint_dfs` per skipped v finds them all in
    O(n (n + m)) time."""
    position = {v: i for i, v in enumerate(g.vertices)}
    for i, v in enumerate(g.vertices[:-1]):
        later = [w for w in _lowpoint_dfs(g, v)[2] if position[w] > i]
        for w in sorted(later, key=position.__getitem__):
            yield (v, w), connected_components(g, (v, w))


def is_two_connected(g):
    """At least 3 vertices, connected, and no cut vertex, read off one
    lowpoint DFS, which stops short of a vertex of another component."""
    if len(g.vertices) < 3:
        return False
    try:
        return not _lowpoint_dfs(g)[2]
    except NotConnected:
        return False


class ReducedGraph:
    def __init__(self, graph, walks):
        self.graph = graph
        # reduced edge -> its host walks, the surviving one first
        self.walks = walks

    def edge_map(self):
        """Total map original host edge -> reduced edge."""
        return {edge_key(a, b): e for e, walks in self.walks.items()
                for walk in walks for a, b in zip(walk, walk[1:])}


def _walk_from(walk, start):
    return tuple(walk) if walk[0] == start else tuple(reversed(walk))


def homeomorphic_reduce(g):
    """Suppress degree-2 vertices, least first, collapsing parallel edges.

    A simple cycle, or a graph without a degree-2 vertex, comes back as
    the very same `Graph` object; anything else, paths included, reduces
    until no degree-2 vertex remains.  walks[e] holds the host
    walks e replaces: the surviving branch from min to max endpoint, then
    the branches that collapsed onto e, in collapse order.  A heap holds
    the degree-2 vertices, and a vertex enters it again only when a
    collapse drops its degree to 2, so each is handled once.  Each join
    puts the shorter walk onto the longer: O((n + m) log n) in all.
    """
    require_connected(g, "cannot reduce a disconnected graph")
    walks = {e: (e,) for e in g.edges}
    todo = [v for v in g.vertices if g.degree(v) == 2]      # sorted: a heap
    if not todo or is_simple_cycle(g):
        return ReducedGraph(g, walks)
    adj = {v: set(g.neighbors(v)) for v in g.vertices}
    while todo:
        v = heappop(todo)
        if len(adj[v]) != 2:        # a collapse took it down to degree 1
            continue
        u, w = sorted(adj.pop(v))
        a, *side = walks.pop(edge_key(u, v))
        b, *more = walks.pop(edge_key(v, w))
        if len(a) < len(b):
            a, b = b, a
        # a surviving walk is a deque, either way round, until oriented
        a = a if isinstance(a, deque) else deque(a)
        (a.extendleft if a[0] == v else a.extend)(
            islice(b if b[0] == v else reversed(b), 1, None))
        k = (u, w)
        adj[u].discard(v)
        adj[w].discard(v)
        if w in adj[u]:
            walks[k] += (_walk_from(a, u), *side, *more)
            for x in k:
                if len(adj[x]) == 2:
                    heappush(todo, x)
        else:
            adj[u].add(w)
            adj[w].add(u)
            walks[k] = (a, *side, *more)
    walks = {e: (_walk_from(a, e[0]), *rest)
             for e, (a, *rest) in walks.items()}
    return ReducedGraph(Graph(tuple(sorted(adj)), tuple(sorted(walks))), walks)
