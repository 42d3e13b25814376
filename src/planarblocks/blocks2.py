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
the pair.  The block's 2-cuts (`graph.two_cuts`, one palm forest per
skipped vertex) are decided pair by pair: {x, y} is crossed exactly
when some other 2-cut, apart from it, has its two vertices in different
components of the block minus {x, y}.  As in Dunwoody's construction,
the tree comes first: the uncrossed pairs give the block's hinge tree
(`_hinge_tree`), which takes the block's place in the block-cut tree,
and a piece of the host that meets the block only at a cut vertex hangs
at the centre of the block's tree vertices that hold that vertex, so
the sides stay nested.  Where a pair leaves two components and is
joined by an edge, the pair and its edge form a bond tree vertex of
their own.  Every side is then an interval of the tree's preorder
(`treeset`), and none is spelled out or checked as it is built:
`triblock_tree` certifies the whole tree (`treeset.certify_tree`).

The family and its tree are one record (`treeset.NestedFamily`) that
holds the reduced host, the tree edges and the cut-point classes; a
`TriBlockTree` adds the input, its reduction, and each class's kind and
torso.

Hinge work is done only where a block has a hinge: when no block has
one, the block-cut family is the whole family.  One `Graph` object stands
for each distinct graph on the way.  The reduced host is the input itself
when no vertex is suppressed, and a block that no hinge splits is its
region, its torso when no virtual edge is added, and its witness when no
path is; a witness path is searched on the host's adjacency within the
member side, an edge lying in the side where the place of its region
does (`_side_path`).  A graph keeps its palm forest and its 2-cuts
(`graph.Graph`), so `_classify` reads the 2-cuts the block pass found;
only a torso with virtual edges, a graph of its own, is searched again.
Every check of `torso`, `_classify` and `_check_edge_partition` still
runs on every torso, and `certify_tree` on every family.
"""

from collections import deque
from itertools import chain, combinations

from .errors import HingeVertex, invariant
from .graph import (Graph, edge_key, homeomorphic_reduce, is_connected,
                    is_simple_cycle, is_two_connected, require_connected,
                    two_cuts)
from .treeset import certify_tree, family_of_tree
from .blocks1 import block_cut_edges


# ---------------------------------------------------------------------------
# the canonical hinge family


def _hinge_tree(z, cuts):
    """The tree of the hinge separations of the 2-connected graph z that
    no hinge separation of z crosses, with the pieces of the host that
    hang at the vertices `cuts` of z re-hung at their homes, or None
    when z has no such separation.

    A 2-cut {x, y} (`two_cuts`) is crossed when another 2-cut {u, w},
    apart from it, has u and w in different components of z minus
    {x, y}; then every side at {x, y} crosses a side at {u, w}, and
    otherwise all are nested.  An uncrossed pair keeps each component
    plus the pair as a side, and with the pair's edge too when the edge
    joins it and two components remain.  A pair with three or more
    components, or with two and its edge, is a bond: a node on the pair
    and its edge between the nodes of its components.

    Rooted at the node holding z's least edge, each tree edge has one
    side without that edge, its down side, and the node just inside a
    down side is its region less the down sides below it.  Placed
    smallest first, a down side takes as children the largest down
    sides placed so far that hold its interior vertices (a union-find),
    and a bond's those of its components.  An edge lies in the node of
    the deeper of the least down sides holding its ends, or in its bond.

    Each tree edge enters where its first side that is one component of
    z minus a pair does, that side first, the sides sorted by edge count
    and then sorted edges.  Two sides with equal counts are not nested,
    so their sorted edges differ first at the least edge of one: z's
    least edge, else the lesser least edge of their complements, else
    of the sides.  A piece hanging at v goes to the centre of the nodes
    that hold v, the side holding the centre being the one with the
    longer chain of sides at v inside it; a centre on a tree edge is a
    node on the edge's pair alone, which splits the edge.

    Returns (regions, pairs, homes): each node's region, the tree edges
    as `treeset.family_of_tree` takes them, in the order their elements
    enter, and the node each vertex of `cuts` hangs at.
    """
    found = [(pair, comps, {v: i for i, c in enumerate(comps) for v in c})
             for pair, comps in two_cuts(z)]
    kept = [(pair, comps, label) for pair, comps, label in found
            if not any(label[u] != label[w] for (u, w), _, _ in found
                       if u not in pair and w not in pair)]
    if not kept:
        return None
    least = z.edges[0]
    pair_of, inner, kids, size, listed = [], [], [], [], []  # per down side
    bond = {}           # a bond's edge -> the down side of its node

    def down(pair, vs, below, sides):
        pair_of.append(pair)
        inner.append(vs)        # interior vertices, or None for a bond
        kids.append(below)      # a bond's components, or None
        size.append(len(vs) if below is None else sum(map(size.__getitem__,
                                                          below)))
        listed.append(sides)    # (down side listed, its complement listed)
        return len(pair_of) - 1
    for pair, comps, label in kept:
        x, y = pair
        joined = z.has_edge(x, y)
        k = -1 if least == pair else label[
            least[0] if least[0] not in pair else least[1]]
        two = len(comps) == 2
        if two and not joined:
            down(pair, comps[1 - k], None, (True, True))
            continue
        sides = [down(pair, c, None, (True, two))
                 for i, c in enumerate(comps) if i != k]
        # with the root's edge, the bond is the root
        hub = -1 if k < 0 else down(pair, None, sides, (two, True))
        if joined:
            bond[pair] = hub
    count = len(pair_of)
    placed = sorted(range(count),
                    key=lambda d: (size[d], kids[d] is not None))
    first = {}          # vertex -> least down side holding it inside
    top = list(range(count))    # toward the largest down side placed above
    parent = [-1] * count       # -1: the root
    for d in placed:
        if kids[d] is not None:
            for c in kids[d]:
                parent[c] = top[c] = d
            continue
        for u in inner[d]:
            t = first.setdefault(u, d)
            while top[t] != t:
                top[t] = t = top[top[t]]
            if t != d:
                parent[t] = top[t] = d
    # node d + 1 lies just inside down side d, node 0 is the root
    verts = [set() for _ in range(count + 1)]
    for u in z.vertices:
        verts[first.get(u, -1) + 1].add(u)
    for d, pair in enumerate(pair_of):
        verts[d + 1].update(pair)
        verts[parent[d] + 1].update(pair)
    edges = [[] for _ in verts]
    cnt = [0] * len(verts)
    low = [len(z.edges)] * len(verts)   # least edge rank
    for r, f in enumerate(z.edges):
        d = bond.get(f)
        if d is None:
            a, b = first.get(f[0], -1), first.get(f[1], -1)
            d = b if a < 0 or b >= 0 and size[b] < size[a] else a
        edges[d + 1].append(f)
        cnt[d + 1] += 1
        low[d + 1] = min(low[d + 1], r)
    for d in placed:
        cnt[parent[d] + 1] += cnt[d + 1]
        low[parent[d] + 1] = min(low[parent[d] + 1], low[d + 1])
    order = []          # (sort key, down side, its side listed first)
    for d, sides in enumerate(listed):
        c, r = cnt[d + 1], low[d + 1]
        keys = ((c, 1, r), (len(z.edges) - c, 0, -r))
        order.append(min((keys[s], d, s == 0) for s in (0, 1) if sides[s]))
    order.sort()
    # the centre of the nodes holding each hanging vertex
    at = {}
    for d, pair in enumerate(pair_of):
        for v in pair:
            at.setdefault(v, []).append(d)
    homes, ties = {}, {}
    for v in cuts:
        if v not in at:
            homes[v] = first.get(v, -1) + 1
            continue
        near = {}
        for d in at[v]:
            a, b = d + 1, parent[d] + 1
            near.setdefault(a, []).append((b, d))
            near.setdefault(b, []).append((a, d))
        end, _ = _farthest(near, at[v][0] + 1)
        other, back = _farthest(near, end)
        path, via = [other], []
        while back[path[-1]] is not None:
            x, d = back[path[-1]]
            path.append(x)
            via.append(d)
        half = len(via) // 2
        if len(via) % 2:
            ties.setdefault(via[half], []).append(v)
        else:
            homes[v] = path[half]
    regions = [Graph(tuple(sorted(vs)), tuple(es))
               for vs, es in zip(verts, edges)]
    pairs = []
    for _, d, is_down in order:
        inside, outside = d + 1, parent[d] + 1
        if not is_down:
            inside, outside = outside, inside
        if d in ties:
            split = len(regions)
            regions.append(Graph(pair_of[d], ()))
            homes.update(dict.fromkeys(ties[d], split))
            pairs += ((split, inside, pair_of[d]),
                      (split, outside, pair_of[d]))
        else:
            pairs.append((outside, inside, pair_of[d]))
    return regions, pairs, homes


def _farthest(near, start):
    """The last node a breadth-first search of the tree `near` reaches
    from start, and the (node, tree edge) each node was reached by."""
    back = {start: None}
    queue = [start]
    for x in queue:
        for y, d in near[x]:
            if y not in back:
                back[y] = (x, d)
                queue.append(y)
    return queue[-1], back


def _canonical_tree(h):
    """The nested family, tree included, of h's one-boundary family and
    the uncrossed hinge separations of each of its blocks.

    The tree is built as a tree: in the block-cut tree
    (`blocks1.block_cut_edges`), the node of each block with an
    uncrossed 2-cut gives way to the block's hinge tree (`_hinge_tree`),
    and each cut vertex of the block joins the node it hangs at there.
    Blocks of at most three vertices and cycles have none, and when no
    block has one the block-cut family is the whole family.  The
    family is read off the tree in the interval form
    (`treeset.family_of_tree`): the block-cut elements first, then each
    block's hinge elements, blocks in the order of their classes.
    """
    pairs, regions = block_cut_edges(h)
    cuts = {bd[0] for _, _, bd in pairs}
    if not pairs:
        regions = [h]
    home = {}           # (block node, cut vertex) -> node
    hinge = []
    for b in (dict.fromkeys(b for _, b, _ in pairs) if pairs else (0,)):
        z = regions[b]
        tree = None if len(z.vertices) <= 3 or is_simple_cycle(z) else \
            _hinge_tree(z, cuts.intersection(z.vertices))
        if tree is None:
            continue
        parts, tree_pairs, homes = tree
        base = len(regions)
        regions += parts
        hinge += [(base + a, base + c, bd) for a, c, bd in tree_pairs]
        home.update(((b, v), base + x) for v, x in homes.items())
    pairs = [(c, home.get((b, bd[0]), b), bd) for c, b, bd in pairs]
    return family_of_tree(h, pairs + hinge, regions)


# ---------------------------------------------------------------------------
# torsos


def _region_parts(family, ci):
    """(region, torso graph, virtual edges, virtual generators) of a class.

    One virtual edge per boundary pair of a hinge member that the region
    does not join, generated by the least member at that pair in
    sort-key order (`_sort_key`), so the choice is reproducible.  Pairs
    are read off the boundaries, so a side is read only where two
    members share a pair.  It orders whole sides, pendant pieces
    included, not the block's sides that order the elements.
    """
    elements = family.elements
    zprime = family.regions[ci]
    zvs = zprime.vertex_set
    at = {}         # boundary pair -> its hinge members
    for i in family.classes[ci]:
        if len(elements[i][3]) == 2:
            at.setdefault(elements[i][3], []).append(i)
    gens = {}
    for k, members in at.items():
        invariant(zvs.issuperset(k), "hinge must survive into the region")
        if k not in zprime.edge_set:
            gens[k] = members[0] if len(members) == 1 else min(
                members, key=lambda i: _sort_key(family, i))
    virtuals = tuple(sorted(gens))
    z = Graph(zprime.vertices, tuple(sorted(zprime.edges + virtuals))) \
        if virtuals else zprime
    return zprime, z, virtuals, gens


def _sort_key(family, i):
    """Element i's side by its edge count, then its sorted edges.  The
    members at one pair have disjoint sides, none without an edge, so
    sorted edges differ first at the lesser least edge."""
    edges = [r.edges for r in family.side_regions(i)]
    return sum(map(len, edges)), min(chain.from_iterable(edges))


def _side_path(family, i, src, dst):
    """Shortest src-dst path within the side of element i, or None: a
    breadth-first search on the host's sorted adjacency that follows
    only the side's edges, an edge being in the side when the place of
    its region is (`NestedFamily.edge_places`), so it finds the path a
    graph of the side would give (`bfs_path` in `tests/oracles.py`)
    without building that graph."""
    if src == dst:
        return (src,)
    host = family.host
    lo, hi, out, _ = family.elements[i]
    place = family.edge_places
    prev = {src: None}
    queue = deque([src])
    while queue:
        x = queue.popleft()
        for y in host.neighbors(x):
            if y in prev or (lo <= place[edge_key(x, y)] < hi) == out:
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
        path = _side_path(family, gens[k], k[0], k[1])
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
