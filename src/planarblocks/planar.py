"""Planarity with certificates, rotation systems, and faces.

A rotation is held in one form, each vertex's neighbours in cyclic
order, from the left-right test or the group that gives it to the
`planar` command, which prints it as edge keys.  A sphere embedding is
accepted only through `certify_embedding`, which traces its faces once
(`facial_walks`, one successor per dart) and checks Euler's formula;
the result keeps the walks, and only the commands that print faces
canonicalise them (`PlanarityResult.faces`).  A refutation is accepted
only through `certify_kuratowski`, which checks that its witness
subdivides K5 or K3,3.  A Cayley graph brings its own rotation
(`cayley.equivariant_rotation`); any other graph is decided by the
left-right planarity test of `leftright`, which also finds the
Kuratowski subgraph of a nonplanar graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import InvariantViolated, MalformedInput, invariant
from .graph import Graph, edge_key, require_connected


@dataclass(frozen=True)
class RotationSystem:
    host: Graph
    rotation: dict  # vertex -> its neighbours in cyclic order

    def __post_init__(self):
        for v in self.host.vertices:
            around = self.rotation.get(v, ())
            if tuple(sorted(around)) != self.host.neighbors(v):
                raise MalformedInput(
                    "rotation at a vertex must permute its incident edges",
                    witness=v)


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
    v's rotation.  Each walk is the vertex sequence (one entry per dart)
    and starts at the least dart no earlier walk used.  An edgeless host
    gets the single empty outer face so Euler counts stay honest.
    """
    g = r.host
    if not g.edges:
        return (((),) if len(g.vertices) else ())
    # after[v][u] follows u in v's rotation; popped once (u, v) is used
    after = {v: dict(zip(around, around[1:] + around[:1]))
             for v, around in r.rotation.items()}
    walks = []
    for u0, v0 in [(u, v) for u in sorted(g.vertices) for v in g.neighbors(u)]:
        if u0 not in after[v0]:
            continue
        u, v, walk = u0, v0, []
        while True:
            w = after[v].pop(u, None)
            if w is None:
                raise InvariantViolated("faces must partition the darts",
                                        witness=(u, v))
            walk.append(u)
            u, v = v, w
            if u == u0 and v == v0:
                break
        walks.append(tuple(walk))
    return tuple(walks)


@dataclass(frozen=True)
class PlanarityResult:
    planar: bool
    embedding: RotationSystem | None
    walks: tuple | None      # facial walks as `facial_walks` traced them
    witness: Graph | None    # Kuratowski subdivision when nonplanar

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

    Embeddings pass `certify_embedding` and witnesses `certify_kuratowski`;
    witnesses are returned as host subgraphs so callers can verify them
    on their own terms.  A disconnected host raises NotConnected either
    way.
    """
    # imported here, so that certifying a given rotation, all that a
    # planar Cayley graph needs, does not load the test
    from .leftright import edge_order, kuratowski_edges, left_right
    vs = g.vertices
    index = {v: i for i, v in enumerate(vs)}
    order = edge_order(len(vs), [(index[u], index[v]) for u, v in g.edges])
    rotation = left_right(len(vs), order, embed=True)
    if rotation is None:
        _require_connected(g)
        kept = [edge_key(vs[a], vs[b])
                for a, b in kuratowski_edges(len(vs), order)]
        ws = Graph(tuple(sorted({v for e in kept for v in e})),
                   tuple(sorted(kept)))
        invariant(ws.edge_set <= g.edge_set,
                  "Kuratowski witness must live in the host")
        certify_kuratowski(ws)
        return PlanarityResult(False, None, None, ws)
    # vertex -> neighbors in clockwise order
    return certify_embedding(g, {vs[v]: [vs[w] for w in around]
                                 for v, around in enumerate(rotation)})


def _require_connected(g):
    require_connected(g, "planarity certificates assume a connected host")


def certify_embedding(g, neighbor_order):
    """The sphere embedding of g given by a vertex -> neighbours in
    cyclic order map, once g is connected, each vertex's order permutes
    its neighbours, the faces traced once partition the darts and
    V - E + F = 2; each check raises, also under `python -O`."""
    _require_connected(g)
    r = RotationSystem(g, neighbor_order)
    walks = facial_walks(r)
    invariant(len(g.vertices) - len(g.edges) + len(walks) == 2,
              "sphere embeddings satisfy Euler's formula")
    return PlanarityResult(True, r, walks, None)


def certify_kuratowski(w):
    """The graph that w subdivides, "K5" or "K33", in time linear in w.

    Every vertex of w has degree at least 2.  The paths between branch
    vertices (degree 3 or more) through vertices of degree 2 cover
    every edge, and with those vertices suppressed w is a simple graph:
    5 branch vertices of degree 4, pairwise joined, or 6 of degree 3
    that split into two triples with no path inside either.  Anything
    else raises InvariantViolated, also under `python -O`.
    """
    message = "Kuratowski witness must subdivide K5 or K3,3"
    invariant(all(w.degree(v) >= 2 for v in w.vertices), message,
              witness=[v for v in w.vertices if w.degree(v) < 2])
    branch = [v for v in w.vertices if w.degree(v) > 2]
    links = set()       # branch pairs joined by a path
    walked = 0          # edges on those paths, each counted from both ends
    for b in branch:
        for x in w.neighbors(b):
            prev, cur = b, x
            walked += 1
            while w.degree(cur) == 2:
                a, c = w.neighbors(cur)
                prev, cur = cur, (c if a == prev else a)
                walked += 1
            invariant(cur != b, message, witness=b)
            links.add(edge_key(b, cur))
    paths = sum(w.degree(b) for b in branch) // 2
    invariant(walked == 2 * len(w.edges) and len(links) == paths, message,
              witness=sorted(links))
    degrees = {w.degree(b) for b in branch}
    if len(branch) == 5 and degrees == {4}:
        return "K5"
    invariant(len(branch) == 6 and degrees == {3}, message,
              witness=sorted(links))
    first = branch[0]
    side = [v for v in branch if edge_key(first, v) not in links]
    invariant(len(side) == 3 and not any(
        edge_key(a, b) in links for a in side for b in side if a < b),
        message, witness=sorted(links))
    return "K33"
