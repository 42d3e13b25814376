"""Planarity with certificates, rotation systems, and faces.

A sphere embedding is accepted only through `certify_embedding`, which
traces its faces here and checks Euler's formula.  A Cayley graph brings
its own rotation (`cayley.equivariant_rotation`); otherwise networkx's
left-right test gives the yes/no answer and a rotation.  The Kuratowski
subgraph of a nonplanar graph is extracted here, by greedy edge deletion
in networkx's own order with batched planarity tests.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import MalformedInput, NotConnected, invariant
from .graph import Graph, edge_key, is_connected


@dataclass(frozen=True)
class RotationSystem:
    host: Graph
    rotation: dict  # vertex -> cyclic tuple of incident edges

    def __post_init__(self):
        for v in self.host.vertices:
            around = self.rotation.get(v, ())
            if sorted(around) != sorted(self.host.incident_edges(v)):
                raise MalformedInput(
                    "rotation at a vertex must permute its incident edges",
                    witness=v)

    def next_dart(self, u, v):
        """Dart following (u, v) on the face to its left: turn sharp
        left at v, i.e. take the successor of uv in v's rotation."""
        around = self.rotation[v]
        i = around.index(edge_key(u, v))
        e = around[(i + 1) % len(around)]
        w = e[0] if e[1] == v else e[1]
        return (v, w)


def rotation_from_neighbors(g, neighbor_order):
    """RotationSystem from a vertex -> ordered neighbor list map."""
    rot = {v: tuple(edge_key(v, w) for w in neighbor_order.get(v, ()))
           for v in g.vertices}
    return RotationSystem(g, rot)


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

    Each walk is the vertex sequence (one entry per dart).  An edgeless
    host gets the single empty outer face so Euler counts stay honest.
    """
    g = r.host
    if not g.edges:
        return (((),) if len(g.vertices) else ())
    # each walk starts at the least dart no earlier walk used
    darts = sorted([(u, v) for u, v in g.edges] + [(v, u) for u, v in g.edges])
    used = set()
    walks = []
    for start in darts:
        if start in used:
            continue
        dart = start
        walk = []
        while True:
            invariant(dart not in used, "faces must partition the darts",
                      witness=dart)
            used.add(dart)
            walk.append(dart[0])
            dart = r.next_dart(*dart)
            if dart == start:
                break
        walks.append(tuple(walk))
    return tuple(walks)


@dataclass(frozen=True)
class PlanarityResult:
    planar: bool
    embedding: RotationSystem | None
    faces: tuple | None      # canonicalized facial walks
    witness: Graph | None    # Kuratowski subdivision when nonplanar

    @property
    def face_count(self):
        return len(self.faces) if self.faces is not None else None


def planarity_test(g):
    """Embed g in the sphere or refute with a Kuratowski subdivision.

    Embeddings pass `certify_embedding`; witnesses are returned as host
    subgraphs so callers can verify them on their own terms.  A
    disconnected host raises NotConnected either way.
    """
    # networkx costs most of the package's import time, so only the
    # commands that test planarity load it
    import networkx as nx
    h = nx.Graph()
    h.add_nodes_from(g.vertices)
    h.add_edges_from(g.edges)
    ok, cert = nx.check_planarity(h)
    if not ok:
        _require_connected(g)
        kept = _kuratowski_edges(h)
        ws = Graph(tuple(sorted({v for e in kept for v in e})),
                   tuple(sorted(edge_key(u, v) for u, v in kept)))
        invariant(ws.edge_set <= g.edge_set,
                  "Kuratowski witness must live in the host")
        return PlanarityResult(False, None, None, ws)
    # vertex -> neighbors in clockwise order
    return certify_embedding(g, cert.get_data())


def _require_connected(g):
    if not is_connected(g):
        raise NotConnected("planarity certificates assume a connected host")


def certify_embedding(g, neighbor_order):
    """The sphere embedding of g given by a vertex -> neighbor order map,
    once g is connected, the rotation permutes each vertex's edges, the
    faces partition the darts and V - E + F = 2; each check raises, also
    under `python -O`."""
    _require_connected(g)
    rot = rotation_from_neighbors(g, neighbor_order)
    walks = facial_walks(rot)
    faces = tuple(sorted(canonical_face(w) for w in walks))
    invariant(len(g.vertices) - len(g.edges) + len(faces) == 2,
              "sphere embeddings satisfy Euler's formula")
    return PlanarityResult(True, rot, faces, None)


def _kuratowski_edges(h):
    """Edges of a Kuratowski subgraph of the nonplanar networkx graph h,
    which is consumed.

    Greedy deletion in the order of networkx's `get_counterexample`:
    h's nodes in order, each one's edges in h's adjacency order, each
    edge tried once from its earlier endpoint; an edge is deleted when
    the graph stays nonplanar without it.  Planarity is monotone under
    subgraphs, so a batch whose removal leaves h nonplanar removes
    exactly the edges that one-by-one deletion would, and the result is
    the same edge set.  Batches double after such a removal and halve
    after one that makes h planar; a batch of one that makes h planar
    keeps its edge.
    """
    from networkx import check_planarity
    position = {v: i for i, v in enumerate(h)}
    order = [(u, v) for u in h for v in h[u] if position[v] > position[u]]
    kept = []
    i, size = 0, 1
    while i < len(order):
        batch = order[i:i + size]
        h.remove_edges_from(batch)
        if not check_planarity(h)[0]:
            i += len(batch)
            size *= 2
        else:
            h.add_edges_from(batch)
            if size == 1:
                kept.append(batch[0])
                i += 1
            else:
                size //= 2
    return kept
