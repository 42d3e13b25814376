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
one palm forest per skipped vertex) are decided pair by pair: {x, y} is
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

The family and its tree are one record (`treeset.NestedFamily`) that
holds the reduced host, the tree edges and the cut-point classes; a
`TriBlockTree` adds the input, its reduction, and each class's kind and
torso.

Hinge work is done only where a block has a hinge: a block without a
2-cut builds no mask index, and when no block has one the block-cut
family of `b1_family` is returned as the whole family.  One `Graph`
object stands for each distinct graph on the way.  The reduced host is
the input itself when no vertex is suppressed, and a block that no
hinge splits is its region, its torso when no virtual edge is added,
and its witness when no path is; a witness path is searched on the
host's adjacency within the member side's edge mask (`_side_path`).  A
graph keeps its palm forest and its 2-cuts (`graph.Graph`), so
`_classify` reads the 2-cuts the block pass found; only a torso with
virtual edges, a graph of its own, is searched again.  Every check of
`torso`, `_classify` and `_check_edge_partition` still runs on every
torso, and `certify_tree` on every family.
"""

from collections import deque
from functools import reduce
from itertools import combinations
from operator import or_

from .errors import HingeVertex, invariant
from .graph import (Graph, edge_key, homeomorphic_reduce, is_connected,
                    is_simple_cycle, is_two_connected, require_connected,
                    two_cuts)
from .separation import (Separation, build_structure_tree,
                         separation_complement, side_masks)
from .treeset import certify_tree
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
    cuts = [(pair, comps, {v: i for i, c in enumerate(comps) for v in c})
            for pair, comps in two_cuts(z)]
    if not cuts:
        return []
    ix = z.index
    sides = []
    for pair, comps, label in cuts:
        if any(label[u] != label[w] for (u, w), _, _ in cuts
               if u not in pair and w not in pair):
            continue
        bm = ix.vertex_mask(pair)
        joined = ix.edge_bit.get(pair, 0) if len(comps) == 2 else 0
        for extra in (0, joined) if joined else (0,):
            for comp in comps:
                inner = ix.vertex_mask(comp)
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
    """The nested family, tree included, of h's one-boundary family and
    the uncrossed hinge separations of each of its blocks.

    The blocks come off the block-cut tree that `b1_family` reads off
    its DFS.  Blocks of at most three vertices, cycles and blocks
    without a 2-cut have none, and when no block has one the block-cut
    family is the whole family, returned as `b1_family` built it, in
    the interval form.  Otherwise its sides become masks
    (`separation.side_masks`), a block vertex hangs the side of its tree
    edge away from the block, and a block side lifts to the OR of what
    its interior vertices and the hinge vertices it takes
    (`_pendant_homes`) hang.
    Each lifted side enters followed by its complement, unless the side
    is already present.  A side and its complement lift to complements
    unless a pendant piece goes with neither.
    """
    fam = b1_family(h)
    bct = BlockCutTree(h, fam)
    split = [(ci, z, sides) for ci, z in bct.block_classes.items()
             if len(z.vertices) > 3 and not is_simple_cycle(z)
             for sides in (_uncrossed_sides(z),) if sides]
    if not split:
        return fam
    ix = h.index
    elements = list(side_masks(fam))
    cuts = set(bct.cuts)
    present = set()
    # a block by its masks: the region of a block left whole
    known = {(ix.vertex_mask(z.vertices),
              reduce(or_, map(ix.edge_bit.__getitem__, z.edges), 0)): z
             for z in bct.block_classes.values()}
    for ci, z, sides in split:
        hang = {v: ix.vertex_bit[v] for v in z.vertices}
        for i in fam.classes[ci]:
            hang[bct.cut_classes[fam.class_of[i ^ 1]]] |= elements[i].vmask
        zx = z.index
        for zsep, take in _pendant_homes(sides, cuts & z.vertex_set):
            hinge = zsep.key[2]
            bm = ix.vertex_mask(hinge)
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


def _region_parts(family, ci):
    """(region, torso graph, virtual edges, virtual generators) of a class.

    One virtual edge per boundary pair of a hinge member that the region
    does not join, generated by the least member at that pair in
    sort-key order, so the choice is reproducible.  Pairs are read off
    the boundaries, so a side is decoded only where two members share a
    pair.
    """
    elements = family.elements
    zprime = family.regions[ci]
    zvs = zprime.vertex_set
    at = {}         # boundary pair -> its hinge members
    for i in family.classes[ci]:
        # a block-cut side, in the interval form, has one boundary vertex
        pair = () if type(elements[i]) is tuple else elements[i].boundary
        if len(pair) == 2:
            at.setdefault(tuple(sorted(pair)), []).append(i)
    gens = {}
    for k, members in at.items():
        invariant(zvs.issuperset(k), "hinge must survive into the region")
        if k not in zprime.edge_set:
            gens[k] = elements[members[0] if len(members) == 1 else min(
                members, key=lambda i: (elements[i].sort_key(), i & 1))]
    virtuals = tuple(sorted(gens))
    z = Graph(zprime.vertices, tuple(sorted(zprime.edges + virtuals))) \
        if virtuals else zprime
    return zprime, z, virtuals, gens


def _side_path(side, src, dst):
    """Shortest src-dst path within a side, or None: a breadth-first
    search on the host's sorted adjacency that follows only the side's
    edges, so it finds the path a graph of the side would give
    (`bfs_path` in `tests/oracles.py`) without building that graph."""
    if src == dst:
        return (src,)
    host, em = side.host, side.emask
    bit = host.index.edge_bit
    prev = {src: None}
    queue = deque([src])
    while queue:
        x = queue.popleft()
        for y in host.neighbors(x):
            if y in prev or not em & bit[edge_key(x, y)]:
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


def torso(family, v):
    """Torso of class v of the family's tree: region plus one virtual
    edge per unjoined member hinge, together with a witness subdivision
    in the family's host.

    Single-vertex regions (cut-point classes) have no torso and raise
    HingeVertex.
    """
    if v in family.cut_classes:
        raise HingeVertex("single-vertex region has no torso",
                          witness=family.cut_classes[v])
    zprime, z, virtuals, gens = _region_parts(family, v)
    # a simple graph on at most 2 vertices is connected when it has
    # |V| - 1 edges, so only a larger torso builds its palm forest
    invariant(is_connected(z) if len(z.vertices) >= 3
              else len(z.edges) >= len(z.vertices) - 1,
              "torso must be connected")
    if len(z.vertices) >= 3:
        invariant(is_two_connected(z), "torso must be 2-connected")
    # the member side meets the region only at its hinge, so its path
    # crosses no other hinge
    paths = {}
    for k in virtuals:
        path = _side_path(gens[k], k[0], k[1])
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
    invariant(set(witness.edges) <= family.host.edge_set,
              "witness must live in the host")
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
    """The tri-block tree of `original`: `family` holds the reduced host
    (`family.host`), the tree's edges and its cut-point classes."""

    def __init__(self, original, reduced, family, kinds, torsos):
        self.original = original
        self.reduced = reduced      # the ReducedGraph of original
        self.family = family
        self.kinds = kinds          # vertex id -> KIND_*
        self.torsos = torsos        # vertex id -> Torso (Cycle, 3-connected)


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
    fam = _canonical_tree(h)
    kinds = {}
    torsos = {}
    for ci in range(fam.vertex_count):
        if ci in fam.cut_classes:
            kinds[ci] = KIND_CUT_POINT
            continue
        t = torso(fam, ci)
        torsos[ci] = t
        kinds[ci] = _classify(t.z)
    _check_edge_partition(h, torsos)
    certify_tree(fam)
    return TriBlockTree(g, red, fam, kinds, torsos)


def _classify(z):
    # torso() has found z connected, and 2-connected from 3 vertices on
    if len(z.vertices) >= 3 and all(z.degree(v) == 2 for v in z.vertices):
        return KIND_CYCLE
    if len(z.vertices) <= 3:
        return KIND_THREE_CONNECTED
    invariant(not two_cuts(z),
              "non-cycle torso of the final tree must be 3-connected")
    return KIND_THREE_CONNECTED


def _check_edge_partition(h, torsos):
    seen = {}
    for ci, t in torsos.items():
        for e in t.z_prime.edges:
            invariant(e not in seen, "host edge claimed by two torsos")
            seen[e] = ci
    invariant(set(seen) == h.edge_set, "torsos must cover every host edge")
