"""Hinge separations, torsos, and the tri-block tree.

The tri-block tree of a connected graph is the structure tree of one
nested family over its reduced host: the one-boundary family of
`blocks1` at the cut vertices, and in each block the hinge (two
boundary vertex) separations that no other hinge separation of the
block crosses.  Those are the separations of Tutte's decomposition of
the block into cycles, bonds and 3-connected pieces.  Their set is
defined without reference to vertex names, so every automorphism
preserves it and no group has to be computed.

Each such separation is, up to complement, one component of the block
minus a vertex pair, plus the pair, with or without the edge joining
the pair, read off int masks.  The block's 2-cuts (`graph.two_cuts`,
one lowpoint DFS per vertex) are decided pair by pair: {x, y} is
crossed exactly when some other 2-cut, apart from it, has its two
vertices in different components of the block minus {x, y}.  Sides are
built only at the uncrossed pairs, and each is lifted to the host
through the block-cut tree, as an OR of the sides of its tree edges
that hang off the block.  Where a pair leaves two components and is
joined by an edge, both sides with the edge are kept, so the pair and
its edge form a bond tree vertex of their own.  A piece of the host
that meets a block only at a cut vertex of a hinge goes with the sides
that hold the centre of the block's tree vertices through that cut
vertex (`_pendant_homes`), so the lifted sides stay nested.  No side
is checked as it is built: `triblock_tree` certifies the whole tree
(`treeset.certify_tree`).

One `Graph` object stands for each distinct graph on the way.  The
reduced host is the input itself when no vertex is suppressed, and a
block that no hinge splits is its region (`build_structure_tree` is
handed the blocks), its torso when no virtual edge is added, and its
witness when no path is.  A graph keeps its components and its 2-cuts
(`graph.Graph`), so `_classify` reads the 2-cuts the block pass found;
only a torso with virtual edges, a graph of its own, is searched again.
Every check of `torso`, `_classify` and `_check_edge_partition` still
runs on every torso.
"""

from collections import deque
from functools import reduce
from itertools import combinations
from operator import or_

from .errors import HingeVertex, MalformedInput, invariant
from .graph import (Graph, edge_key, homeomorphic_reduce, is_connected,
                    is_simple_cycle, is_two_connected, require_connected,
                    two_cuts)
from .separation import Separation, separation_complement
from .treeset import build_structure_tree, certify_tree
from .blocks1 import BlockCutTree, b1_family


# ---------------------------------------------------------------------------
# the canonical hinge family


def _uncrossed_sides(z):
    """The hinge sides of the 2-connected graph z that no hinge
    separation of z crosses, as (side, complement) pairs sorted by the
    side's sort key.

    A 2-cut {x, y} is crossed when another 2-cut {u, w}, apart from it,
    has u and w in different components of z minus {x, y}; then every
    side at {x, y} crosses a side at {u, w}, and otherwise all are
    nested.  An uncrossed pair keeps each component plus the pair, and
    with the pair's edge too when the edge joins it and two components
    remain; with three or more, the sides with the edge cross.
    """
    ix = z.index
    cuts = [(pair, comps, {v: i for i, c in enumerate(comps) for v in c})
            for pair, comps in two_cuts(z)]
    sides = []
    for pair, comps, label in cuts:
        if any(label[u] != label[w] for (u, w), _, _ in cuts
               if u not in pair and w not in pair):
            continue
        bm = ix.vertex_mask(pair)[0]
        joined = ix.edge_bit.get(pair, 0) if len(comps) == 2 else 0
        for extra in (0, joined) if joined else (0,):
            for comp in comps:
                inner = ix.vertex_mask(comp)[0]
                s = Separation(z, inner | bm, ix.reach(inner)[1] | extra, bm)
                sides.append((s, separation_complement(s)))
    return sorted(sides, key=lambda c: c[0].sort_key())


def _pendant_homes(pairs, cuts):
    """Each kept side of a block with the cut vertices of its hinge whose
    pendant pieces it takes, then its complement where the two do not
    lift to complements.

    A pendant piece meets the block only at a cut vertex v and belongs
    at the centre of the block tree vertices that hold v.  That centre
    lies on the side of A exactly when the longest chain of sides with v
    in their hinge is longer strictly inside A than inside A*.  On a tie
    the centre is the edge of A itself: neither side takes the piece, A
    and A* lift to two separations, and the two-vertex tree vertex
    between them holds it.
    """
    sides = dict.fromkeys(s for pair in pairs for s in pair)
    reach = {}      # (side, v) -> longest chain through v strictly inside
    for v in cuts:
        at_v = sorted((s for s in sides if v in s.boundary),
                      key=lambda s: s.vmask.bit_count() + s.emask.bit_count())
        for n, s in enumerate(at_v):
            reach[s, v] = max((1 + reach[t, v] for t in at_v[:n]
                               if t.subgraph_leq(s)), default=0)
    for s, sc in pairs:
        hinge = s.boundary & cuts
        take = {v for v in hinge if reach[s, v] > reach[sc, v]}
        give = {v for v in hinge if reach[sc, v] > reach[s, v]}
        yield s, take
        if take | give != hinge:
            yield sc, give


def _canonical_tree(h):
    """Structure tree of the one-boundary family of h together with the
    uncrossed hinge separations of each of its blocks.

    The blocks come off the block-cut tree that `b1_family` reads off
    its DFS.  Blocks of at most three vertices and cycles have none.
    A block vertex hangs the side of its tree edge away from the block,
    and a block side lifts to the OR of what its interior vertices and
    the hinge vertices it takes (`_pendant_homes`) hang.  Each lifted
    side enters followed by its complement, unless the side is already
    present.  A side and its complement lift to complements unless a
    pendant piece goes with neither.
    """
    bct = BlockCutTree(h, b1_family(h))
    tree, ix = bct.tree, h.index
    elements = list(bct.family.elements)
    cuts = set(bct.cuts)
    present = set()
    known = {}      # a block by its masks: the region of a block left whole
    for ci, z in sorted(bct.block_classes.items()):
        known[ix.vertex_mask(z.vertices)[0],
              reduce(or_, map(ix.edge_bit.__getitem__, z.edges), 0)] = z
        if len(z.vertices) <= 3 or is_simple_cycle(z):
            continue
        hang = {v: ix.vertex_bit[v] for v in z.vertices}
        for i in tree.classes[ci]:
            hang[bct.cut_classes[tree.class_of[i ^ 1]]] |= elements[i].vmask
        zx = z.index
        for zsep, take in _pendant_homes(_uncrossed_sides(z),
                                         cuts & z.vertex_set):
            hinge = zsep.key[2]
            bm = ix.vertex_mask(hinge)[0]
            inner = reduce(or_, map(hang.__getitem__, (
                *zx.vertices_of(zsep.vmask & ~zsep.bmask), *take))) & ~bm
            em = ix.reach(inner)[1]
            if zsep.emask & zx.edge_bit.get(hinge, 0):
                em |= ix.edge_bit[hinge]
            s = Separation(h, inner | bm, em, bm)
            if s in present:
                continue
            sc = separation_complement(s)
            present.update((s, sc))
            elements += (s, sc)
    return build_structure_tree(h, elements, known)


# ---------------------------------------------------------------------------
# torsos


def _region_parts(tree, ci):
    """(region, torso graph, virtual edges, virtual generators) of a class.

    One virtual edge per hinge member whose boundary pair is not already
    joined in the torso built so far; members are visited in sort-key
    order so the generator choice is reproducible.
    """
    fam = tree.family
    zprime = tree.region(ci)
    zvs = zprime.vertex_set
    zes = set(zprime.edges)
    virtuals = []
    gens = {}
    hinges = [i for i in tree.classes[ci]
              if fam.elements[i].bmask.bit_count() == 2]
    for i in sorted(hinges,
                    key=lambda i: (fam.elements[i].sort_key(), i & 1)):
        e = fam.elements[i]
        invariant(e.boundary <= zvs, "hinge must survive into the region")
        k = edge_key(*e.boundary)
        if k not in zes:
            zes.add(k)
            virtuals.append(k)
            gens[k] = e
    z = Graph(zprime.vertices, tuple(sorted(zes))) if virtuals else zprime
    return zprime, z, tuple(sorted(virtuals)), gens


def _bfs_path(g, src, dst):
    """Shortest src-dst path, or None."""
    if src == dst:
        return (src,)
    prev = {src: None}
    queue = deque([src])
    while queue:
        x = queue.popleft()
        for y in g.neighbors(x):
            if y in prev:
                continue
            prev[y] = x
            if y == dst:
                path = [y]
                while prev[path[-1]] is not None:
                    path.append(prev[path[-1]])
                return tuple(reversed(path))
            queue.append(y)
    return None


class Torso:
    def __init__(self, z_prime, virtual_edges, z, witness, witness_paths):
        self.z_prime = z_prime      # intersection of member complements
        self.virtual_edges = virtual_edges
        self.z = z                  # z_prime plus virtual edges
        self.witness = witness      # host subgraph that is a subdivision of z
        self.witness_paths = witness_paths  # virtual edge -> host path


def torso(g, tree, v):
    """Torso of tree class v: region plus one virtual edge per unjoined
    member hinge, together with a host witness subdivision.

    Single-vertex regions (cut-point classes) have no torso and raise
    HingeVertex.
    """
    if tree.family.host != g:
        raise MalformedInput("tree does not describe this host")
    cut = tree.cut_vertex(v)
    if cut is not None:
        raise HingeVertex("single-vertex region has no torso", witness=cut)
    zprime, z, virtuals, gens = _region_parts(tree, v)
    invariant(is_connected(z), "torso must be connected")
    if len(z.vertices) >= 3:
        invariant(is_two_connected(z), "torso must be 2-connected")
    # the member side meets the region only at its hinge, so its path
    # crosses no other hinge
    paths = {}
    for k in virtuals:
        e = gens[k]
        side = Graph(tuple(sorted(e.va)), tuple(sorted(e.ea)))
        path = _bfs_path(side, k[0], k[1])
        invariant(path is not None, "member side must connect its hinge")
        paths[k] = path
    interiors = []
    for k in virtuals:
        inner = set(paths[k][1:-1])
        invariant(not inner & zprime.vertex_set,
                  "witness path internals must avoid the region")
        interiors.append(inner)
    for a, b in combinations(interiors, 2):
        invariant(not a & b, "witness paths must be internally disjoint")
    wvs = set(zprime.vertices)
    path_edges = set()
    for k in virtuals:
        walk = paths[k]
        wvs.update(walk)
        path_edges.update(edge_key(x, y) for x, y in zip(walk, walk[1:]))
    witness = zprime if not paths else Graph(
        tuple(sorted(wvs)), tuple(sorted(path_edges.union(zprime.edges))))
    invariant(set(witness.edges) <= g.edge_set, "witness must live in the host")
    for inner in interiors:
        for w in inner:
            invariant(witness.degree(w) == 2,
                      "subdivision vertices have degree 2")
    # contracting each path back to its virtual edge must give z exactly
    kept = witness.edge_set - path_edges
    invariant(witness.vertex_set.difference(*interiors) == z.vertex_set
              and kept.union(virtuals) == z.edge_set,
              "witness paths must contract to the torso")
    return Torso(zprime, virtuals, z, witness, paths)


# ---------------------------------------------------------------------------
# the combined tree


KIND_CUT_POINT = "CutPoint"
KIND_CYCLE = "Cycle"
KIND_THREE_CONNECTED = "ThreeConnected"


class TriBlockTree:
    def __init__(self, original, reduced, graph, family, tree, kinds,
                 cut_classes, torsos, edges):
        self.original = original
        self.reduced = reduced      # the ReducedGraph of original
        self.graph = graph          # the reduced host the tree describes
        self.family = family
        self.tree = tree
        self.kinds = kinds          # vertex id -> KIND_*
        # vertex id -> cut vertex (CutPoint vertices)
        self.cut_classes = cut_classes
        self.torsos = torsos        # vertex id -> Torso (Cycle, 3-connected)
        self.edges = edges          # (i, j) tree edges, i < j

    @property
    def vertex_count(self):
        return len(self.kinds)


def triblock_tree(g):
    """Decompose a connected graph into cut points, cycles, and
    3-connected torsos after suppressing its degree-2 vertices.

    The one-boundary family at cut vertices and the uncrossed hinge
    separations of the blocks live in a single nested family over the
    reduced host; hinge sides absorb hanging pieces through the
    block-cut tree, so no per-part bookkeeping is needed.  A pair with
    two components joined by a host edge gives a bond: a two-vertex
    torso holding the pair and that edge.  The tree is certified.
    """
    require_connected(g, "decomposition needs a connected graph")
    red = homeomorphic_reduce(g)
    h = red.graph
    tree = _canonical_tree(h)
    kinds = {}
    cut_classes = {}
    torsos = {}
    for ci in range(tree.vertex_count):
        cut = tree.cut_vertex(ci)
        if cut is not None:
            kinds[ci] = KIND_CUT_POINT
            cut_classes[ci] = cut
            continue
        t = torso(h, tree, ci)
        torsos[ci] = t
        kinds[ci] = _classify(t.z)
    _check_edge_partition(h, kinds, cut_classes, torsos)
    certify_tree(tree)
    return TriBlockTree(g, red, h, tree.family, tree, kinds, cut_classes,
                        torsos, tree.edges)


def _classify(z):
    # torso() has found z connected, and 2-connected from 3 vertices on
    if len(z.vertices) >= 3 and all(z.degree(v) == 2 for v in z.vertices):
        return KIND_CYCLE
    if len(z.vertices) <= 3:
        return KIND_THREE_CONNECTED
    invariant(not two_cuts(z),
              "non-cycle torso of the final tree must be 3-connected")
    return KIND_THREE_CONNECTED


def _check_edge_partition(h, kinds, cut_classes, torsos):
    seen = {}
    for ci, t in torsos.items():
        for e in t.z_prime.edges:
            invariant(e not in seen, "host edge claimed by two torsos")
            seen[e] = ci
    invariant(set(seen) == h.edge_set, "torsos must cover every host edge")
