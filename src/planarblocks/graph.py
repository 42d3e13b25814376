"""Finite simple graphs with deterministic iteration order.

Vertices are integers; edges are stored as (min, max) tuples.  All
operations iterate vertices and edges in sorted order so that every
downstream computation (decompositions, serializations) is reproducible
byte for byte.

One depth-first search on vertex positions, `PalmForest` (Hopcroft
and Tarjan, 1973), finds every connectivity fact: its trees are the
components, its lowpoints the cut vertices, and run once per skipped
vertex v, the 2-cuts {v, w}: the cut vertices w of g - v, whose split
subtrees and the rest are the components of g - {v, w} (`two_cuts`).

A `Graph` is built once and nothing assigns to it after, so each fact
about it stays valid once found.  Each is computed on first use and
kept on the object: its adjacency, its vertex and edge sets, its palm
forest (`Graph.palm`, whose roots `is_connected`, `require_connected`
and `is_simple_cycle` count), its components (`Graph.components`) and
its 2-cuts (`Graph.cut_pairs`, which `two_cuts` returns).  The
decomposition layers hand the same object on wherever a graph does not
change, so each fact is found once per distinct graph.
"""

from collections import deque
from functools import cached_property
from heapq import heappop, heappush
from itertools import islice, repeat

from .errors import MalformedInput, NotConnected, TooLarge, to_int

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
    def palm(self):
        """The `PalmForest` of the graph on the positions of `vertices`,
        each vertex's neighbours searched in sorted order."""
        vs, around = self.vertices, self._adj.values()
        if vs != tuple(range(len(vs))):     # positions are not the names
            at = {v: i for i, v in enumerate(vs)}
            around = [[at[w] for w in a] for a in around]
        return PalmForest(list(around))

    @cached_property
    def components(self):
        """The trees of the palm forest as sorted vertex tuples."""
        vs = self.vertices
        return tuple(tuple(sorted(map(vs.__getitem__, tree)))
                     for tree in self.palm.trees())

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
            declared = to_int(body) if body.isdecimal() else 0
            if declared < 1:
                raise MalformedInput("vertices header needs a positive count",
                                     witness=line)
            continue
        parts = line.split()
        if len(parts) != 2 or not all(p.isdecimal() for p in parts):
            raise MalformedInput("expected 'u v' with non-negative integers",
                                 witness={"line": lineno, "text": raw.rstrip()})
        u, v = to_int(parts[0]), to_int(parts[1])
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


class PalmForest:
    """One iterative DFS of the graph whose vertex v has the neighbours
    adj[v], less skip, from each vertex not reached yet in index order:
    O(n + m).  A back arc runs to an ancestor other than the parent, from
    the descendant.  low1[v] and low2[v] are the least and next least DFS
    number of v and the back arc ends below it; skip, numbered after
    every vertex, is never entered nor a lowpoint."""

    __slots__ = ("adj", "num", "parent", "low1", "low2", "size", "order",
                 "tail", "head", "roots")

    def __init__(self, adj, skip=-1):
        n = len(adj)
        self.adj = adj
        self.num = num = [-1] * n           # DFS number: place in `order`
        self.parent = parent = [-1] * n     # -1 at a root
        self.low1 = low1 = [0] * n
        self.low2 = low2 = [0] * n
        self.size = size = [1] * n          # vertices in the subtree
        self.order = order = []             # vertices in discovery order
        # arc k, in scan order, runs from tail[k] to head[k]
        self.tail, self.head = tail, head = [], []
        self.roots = roots = []             # one per tree, ascending
        if skip >= 0:
            num[skip] = n
        for root in range(n):
            if num[root] >= 0:
                continue
            num[root] = low1[root] = low2[root] = len(order)
            order.append(root)
            roots.append(root)
            stack = [(root, iter(adj[root]))]
            while stack:
                v, todo = stack[-1]
                nv, pv = num[v], parent[v]
                for w in todo:
                    nw = num[w]
                    if nw < 0:                      # tree arc
                        tail.append(v)
                        head.append(w)
                        num[w] = low1[w] = low2[w] = len(order)
                        parent[w] = v
                        order.append(w)
                        stack.append((w, iter(adj[w])))
                        break
                    if nw < nv and w != pv:         # back arc
                        tail.append(v)
                        head.append(w)
                        if nw < low1[v]:
                            low2[v] = low1[v]
                            low1[v] = nw
                        elif nw != low1[v] and nw < low2[v]:
                            low2[v] = nw
                else:
                    stack.pop()
                    if pv >= 0:
                        size[pv] += size[v]
                        a = low1[v]
                        b = low2[v]
                        if a < low1[pv]:
                            low2[pv] = low1[pv] if low1[pv] < b else b
                            low1[pv] = a
                        elif a == low1[pv]:
                            if b < low2[pv]:
                                low2[pv] = b
                        elif a < low2[pv]:
                            low2[pv] = a

    def trees(self):
        """Each DFS tree's vertices: the interval of `order` its root heads."""
        for r in self.roots:
            yield self.order[self.num[r]:self.num[r] + self.size[r]]

    def splits(self):
        """cut vertex -> its children whose subtrees split off it: those
        whose low1 does not climb above it, all at a root with two."""
        num, parent, low1 = self.num, self.parent, self.low1
        out = {}
        for w in self.order:
            p = parent[w]
            if p >= 0 and low1[w] >= num[p]:
                out.setdefault(p, []).append(w)
        return {p: heads for p, heads in out.items()
                if len(heads) > 1 or parent[p] >= 0}


def connected_components(g):
    """The list of `Graph.components`: sorted vertex tuples."""
    return list(g.components)


def is_connected(g):
    return len(g.palm.roots) == 1


def require_connected(g, message):
    """Raise NotConnected(message), with the components of g as sorted
    vertex lists for its witness, unless g is connected."""
    if len(g.palm.roots) > 1:
        raise NotConnected(message, witness=[list(c) for c in g.components])


def component_graphs(g):
    """The components of g as graphs, in the order of `Graph.components`,
    from one pass over its sorted edges, each sent to its end's tree of
    the palm forest."""
    comps, vs = connected_components(g), g.vertices
    tree = {}
    for t, members in enumerate(g.palm.trees()):
        tree.update(zip(map(vs.__getitem__, members), repeat(t)))
    edges = [[] for _ in comps]
    for e in g.edges:
        edges[tree[e[0]]].append(e)
    return [Graph(c, tuple(es)) for c, es in zip(comps, edges)]


def is_simple_cycle(g):
    return (len(g.vertices) >= 3
            and all(g.degree(v) == 2 for v in g.vertices)
            and is_connected(g))


def _splits(g):
    """`PalmForest.splits` of the connected graph g."""
    require_connected(g, "cut vertices are defined for connected graphs")
    return g.palm.splits()


def cut_vertices(g):
    """Vertices whose removal disconnects the connected graph g, sorted."""
    return tuple(sorted(map(g.vertices.__getitem__, _splits(g))))


def two_cuts(g):
    """(pair, components of g - pair) for every vertex pair whose removal
    disconnects the 2-connected graph g, in `combinations` order, found
    once per `Graph` object (`Graph.cut_pairs`)."""
    return g.cut_pairs


def _two_cut_pass(g):
    """The 2-cuts of `two_cuts`: {v, w} is one when w is a cut vertex of
    g - v, so one `PalmForest` per skipped v finds them all, in
    O(n (n + m)) time.  The subtree of each child that splits off w is a
    component of g - {v, w}, and unless w is the root, the rest is one."""
    vs, adj = g.vertices, g.palm.adj
    for v in range(len(vs) - 1):
        palm = PalmForest(adj, v)
        order, num, size = palm.order, palm.num, palm.size
        if len(palm.roots) > 1:
            raise NotConnected("cut vertices are defined for connected graphs",
                               witness=[sorted(map(vs.__getitem__, t))
                                        for t in palm.trees()])
        for w, heads in sorted(palm.splits().items()):
            if w > v:
                pieces, rest, at = [], order[:num[w]], num[w] + 1
                for h in heads:
                    rest += order[at:num[h]]
                    at = num[h] + size[h]
                    pieces.append(order[num[h]:at])
                rest += order[at:]
                yield (vs[v], vs[w]), sorted(
                    tuple(sorted(map(vs.__getitem__, p)))
                    for p in pieces + [rest] if p)


def is_two_connected(g):
    """At least 3 vertices, connected, and no cut vertex."""
    return len(g.vertices) >= 3 and is_connected(g) and not g.palm.splits()


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
