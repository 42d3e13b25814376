"""Planarity with certificates, rotation systems, and faces.

A rotation is held in one form, each vertex's neighbours in cyclic
order, from the edge-addition engine or the group that gives it to the
`planar` command, which prints it as edge keys.  `RotationSystem`
validates it once, by counting, with no adjacency of the host built:
it builds each vertex's successor map (`_successors`).  A sphere
embedding is accepted only through `certify_embedding`, which searches
those maps for connectivity, traces the faces once (`facial_walks`)
and checks Euler's formula; the result keeps the walks, and only the
commands that print faces canonicalise them (`PlanarityResult.faces`).
A Cayley graph brings its own rotation (`cayley.equivariant_rotation`);
any other graph is decided by one run of `edgeaddition` over its palm
forest, which returns either an int rotation, certified on the same
int numbering, or a Kuratowski subgraph, accepted only through
`certify_kuratowski`, a linear walk along the paths between branch
vertices.
"""

from functools import cached_property
from itertools import islice

from .errors import InvariantViolated, MalformedInput, invariant
from .graph import Graph, edge_key, require_connected


class RotationSystem:
    """A rotation of `host`: `rotation` maps each vertex to its
    neighbours in cyclic order.  It is built only when every vertex's
    order permutes its neighbours; otherwise MalformedInput names the
    first vertex of `host.vertices` whose order does not.  Keys that are
    not host vertices are ignored.
    """

    def __init__(self, host, rotation):
        self.host = host
        self.rotation = rotation
        self._names = None      # the vertices that `_after` numbers, if any
        self._after = _successors(
            self, host.vertices,
            [rotation.get(v, ()) for v in host.vertices], host.edges)

    @classmethod
    def indexed(cls, host, edges, rotation):
        """The rotation of host given on the positions of its vertices
        in `host.vertices`: `edges` are the host edges as position
        pairs, and rotation[i] lists the positions of vertex i's
        neighbours in cyclic order.  It is validated and traced on the
        positions; `rotation` names them on first use."""
        r = cls.__new__(cls)
        r.host, r._positions = host, rotation
        n = len(host.vertices)
        r._names = None if host.vertices == tuple(range(n)) else host.vertices
        r._after = _successors(r, range(n), rotation, edges)
        return r

    @cached_property
    def rotation(self):
        """The rotation by vertex names (a system built by `indexed`)."""
        vs = self.host.vertices
        return {vs[v]: [vs[w] for w in around]
                for v, around in enumerate(self._positions)}


def _successors(r, vertices, orders, edges):
    """{v: {u: the neighbour after u in v's order}} for the vertices and
    their orders, once counting shows that each order permutes the
    neighbours of its vertex: no order repeats an entry (its successor
    map is as long as it is), the orders hold 2|E| entries in all, and
    both darts of every host edge occur.  Only a rotation that fails is
    scanned against the host's adjacency, for the first vertex whose
    order does not sort to its neighbours."""
    try:
        after = {}
        for v, order in zip(vertices, orders):
            out = after[v] = dict(zip(order, order[1:]))
            if order:
                out[order[-1]] = order[0]
        darts = 2 * len(edges)
        if sum(map(len, orders)) == darts == sum(map(len, after.values())):
            for u, w in edges:
                if w not in after[u] or u not in after[w]:
                    break
            else:
                return after
    except TypeError:           # an order that is no sequence of vertices
        pass
    g, rotation = r.host, r.rotation
    raise MalformedInput(
        "rotation at a vertex must permute its incident edges",
        witness=next((v for v in g.vertices if tuple(
            sorted(rotation.get(v, ()))) != g.neighbors(v)), None))


def _connected(after):
    """Whether the graph that the successor maps describe is connected:
    a search from its first vertex reaches them all."""
    reached = list(islice(after, 1))
    seen = set(reached)
    for x in reached:       # the list grows behind the scan: a BFS queue
        for y in after[x]:
            if y not in seen:
                seen.add(y)
                reached.append(y)
    return len(reached) == len(after)


def canonical_face(walk):
    """Cyclic sequence minimal under rotation and reversal.

    The least rotation must begin at the walk's least vertex, so only
    the rotations starting there are tried.
    """
    if not walk:
        return ()
    low = min(walk)
    return min(seq[i:] + seq[:i]
               for seq in (tuple(walk), tuple(reversed(walk)))
               for i, v in enumerate(seq) if v == low)


def facial_walks(r):
    """Closed walks partitioning the darts, traced by the sharp-left rule.

    The dart (u, v) is followed by (v, w), w the neighbour after u in
    v's rotation, read off the successor maps of the rotation system.
    Each walk is the vertex sequence (one entry per dart) and starts at
    its least dart, and the walks are sorted, so each starts at the
    least dart no earlier walk used.  The vertices are visited least
    first, each tracing a walk from every dart into it not used yet:
    the walk's other vertices come later, so its least dart leaves this
    one.  An edgeless host gets the single empty outer face so Euler
    counts stay honest.
    """
    g = r.host
    if not g.edges:
        return (((),) if len(g.vertices) else ())
    names = r._names
    # a copy of each map, whose entry u at v is popped once (u, v) is used
    after = {v: out.copy() for v, out in r._after.items()}
    walks = []
    for v0 in sorted(after, key=None if names is None else names.__getitem__):
        into = after[v0]
        while into:
            # (u0, v0) is used now, and the walk runs from (v0, w) to it
            u0, w = into.popitem()
            walk = []
            u, v = v0, w
            while True:
                walk.append(u)
                if u == u0 and v == v0:
                    break
                w = after[v].pop(u, None)
                if w is None:
                    raise InvariantViolated(
                        "faces must partition the darts",
                        witness=(u, v) if names is None else (names[u],
                                                              names[v]))
                u, v = v, w
            if names is not None:
                walk = [names[x] for x in walk]
            if walk.count(walk[0]) > 1:
                # the least dart leaves v0 for its least next vertex
                i = min((j for j, x in enumerate(walk) if x == walk[0]),
                        key=lambda j: walk[j + 1 - len(walk)])
                walk = walk[i:] + walk[:i]
            walks.append(tuple(walk))
    walks.sort()
    return tuple(walks)


class PlanarityResult:
    def __init__(self, planar, embedding, walks, witness):
        self.planar = planar
        self.embedding = embedding  # RotationSystem, None when nonplanar
        self.walks = walks  # facial walks as `facial_walks` traced them
        self.witness = witness      # Kuratowski subdivision when nonplanar

    @cached_property
    def faces(self):
        """The facial walks canonicalised and sorted."""
        if self.walks is None:
            return None
        return tuple(sorted(canonical_face(w) for w in self.walks))

    @property
    def face_count(self):
        return len(self.walks) if self.walks is not None else None


def planarity_test(g):
    """Embed g in the sphere or refute with a Kuratowski subdivision.

    One edge-addition run over g's palm forest, on the positions of the
    vertices in `g.vertices`, decides; its rotation must pass
    `certify_embedding`'s checks, and its witness, returned as a host
    subgraph, `certify_kuratowski`.  A graph with no vertex raises
    MalformedInput, as `build_graph` does, and a disconnected host
    NotConnected, before any run.
    """
    if not g.vertices:
        raise MalformedInput("graph needs at least one vertex")
    _require_connected(g)
    # imported here: certifying a given rotation, all a planar Cayley
    # graph needs, loads no engine
    from .edgeaddition import edge_addition
    palm = g.palm
    rotation, witness = edge_addition(palm)
    if rotation is None:
        vs = g.vertices
        kept = [edge_key(vs[a], vs[b]) for a, b in witness]
        ws = Graph(tuple(sorted({v for e in kept for v in e})),
                   tuple(sorted(kept)))
        invariant(ws.edge_set <= g.edge_set,
                  "Kuratowski witness must live in the host")
        certify_kuratowski(ws)
        return PlanarityResult(False, None, None, ws)
    return _certify(g, RotationSystem.indexed,
                    list(zip(palm.tail, palm.head)), rotation)


def _require_connected(g):
    require_connected(g, "planarity certificates assume a connected host")


def certify_embedding(g, neighbor_order):
    """The sphere embedding of g given by a vertex -> neighbours in
    cyclic order map, once g is connected, each vertex's order permutes
    its neighbours, the faces traced once partition the darts and
    V - E + F = 2; each check raises, also under `python -O`, and a
    disconnected host is refused before a bad order."""
    return _certify(g, RotationSystem, neighbor_order)


def _certify(g, build, *args):
    """The certified embedding of the rotation system build(g, *args).
    Connectivity is searched on its successor maps, and the components
    of g are found only for the error, which comes before any other."""
    try:
        r = build(g, *args)
    except (MalformedInput, TypeError):     # a rotation that is no permutation
        _require_connected(g)
        raise
    if not _connected(r._after):
        _require_connected(g)
    walks = facial_walks(r)
    invariant(len(g.vertices) - len(g.edges) + len(walks) == 2,
              "sphere embeddings satisfy Euler's formula")
    return PlanarityResult(True, r, walks, None)


def subdivision_kind(vertices, adj):
    """("K5" or "K33", None) when the graph on `vertices`, in which v's
    neighbours are adj[v], subdivides K5 or K3,3; otherwise (None,
    the witness of the first check it fails).  Linear in the graph.

    Every vertex has degree at least 2.  The paths between branch
    vertices (degree 3 or more) through vertices of degree 2 cover
    every edge, and with those vertices suppressed the graph is simple:
    5 branch vertices of degree 4, pairwise joined, or 6 of degree 3
    that split into two triples with no path inside either.
    """
    low = [v for v in vertices if len(adj[v]) < 2]
    if low:
        return None, low
    branch = [v for v in vertices if len(adj[v]) > 2]
    links = set()       # branch pairs joined by a path
    walked = 0          # edges on those paths, each counted from both ends
    for b in branch:
        for x in adj[b]:
            prev, cur = b, x
            walked += 1
            while len(adj[cur]) == 2:
                a, c = adj[cur]
                prev, cur = cur, (c if a == prev else a)
                walked += 1
            if cur == b:
                return None, b
            links.add(edge_key(b, cur))
    paths = sum(len(adj[b]) for b in branch) // 2
    if walked != sum(len(adj[v]) for v in vertices) or \
            len(links) != paths:
        return None, sorted(links)
    degrees = {len(adj[b]) for b in branch}
    if len(branch) == 5 and degrees == {4}:
        return "K5", None
    if not (len(branch) == 6 and degrees == {3}):
        return None, sorted(links)
    first = branch[0]
    side = [v for v in branch if edge_key(first, v) not in links]
    if len(side) == 3 and not any(
            edge_key(a, b) in links for a in side for b in side if a < b):
        return "K33", None
    return None, sorted(links)


def certify_kuratowski(w):
    """The graph that w subdivides, "K5" or "K33", in time linear in w
    (`subdivision_kind`).  Anything else raises InvariantViolated, also
    under `python -O`."""
    kind, witness = subdivision_kind(
        w.vertices, {v: w.neighbors(v) for v in w.vertices})
    invariant(kind is not None, "Kuratowski witness must subdivide K5 or K3,3",
              witness=witness)
    return kind
