"""Hinge separations, the nested-family engine, torsos, tri-block trees.

The decomposition works over one host graph throughout.  Every hinge
(two boundary vertex) side is made by `component_side` from components
of the host minus a vertex pair, as `separating_sets` lists them.  A
nested, automorphism-closed subfamily is grown by repeatedly splitting
the first structure-tree class whose torso is neither tiny, nor a
cycle, nor 3-connected by cutsets.  One scan of the torso's vertex
pairs (`_split_sides`) both decides that and yields the single-component
sides, and the split uses the least of them by sort key, which is
subgraph-minimal.  A torso separation is carried back to the host by
routing each side through the components behind the class's virtual
edges, so the same loop serves both 2-connected hosts and hosts with
cut vertices (where the one-boundary family of blocks1 seeds the tree
and hinge sides simply swallow the hanging pieces).  The structure tree
of the last round is the tree of the result.
"""

from __future__ import annotations

import warnings
from collections import deque
from dataclasses import dataclass
from itertools import combinations

from .errors import (HingeVertex, InvariantViolated, MalformedInput,
                     NoSeparationExists, NotConnected, PreconditionViolated,
                     invariant)
from .graph import (Graph, connected_components, edge_key, homeomorphic_reduce,
                    is_connected, is_k_connected, is_simple_cycle,
                    is_three_connected_by_cutsets, separating_sets)
from .separation import Separation, component_side, separation_complement
from .treeset import NestedFamily, StructureTree, build_structure_tree
from .blocks1 import b1_family
from .symmetry import (DEFAULT_AUT_BOUND, automorphism_group,
                       orbit_of_separation)


# ---------------------------------------------------------------------------
# enumeration


def _require_two_connected(g):
    if not is_connected(g):
        raise NotConnected("host must be connected",
                           witness=[len(c) for c in connected_components(g)])
    if not is_k_connected(g, 2):
        raise PreconditionViolated("host must be 2-connected")
    if len(g.vertices) < 4:
        raise PreconditionViolated("host needs at least 4 vertices")
    if is_simple_cycle(g):
        raise PreconditionViolated("cycles have no torso structure to find")


def _all_hinge_separations(g):
    """Every hinge separation of g, sorted.

    Sides are unions of components of g - {u, w} plus the boundary; when
    the edge uw exists each union is tried with and without it.  The
    separation validator filters out sides whose boundary vertex has no
    edge on one side, single edges, and whole-graph-minus-an-edge.
    """
    out = {}
    for pair, comps in separating_sets(g, 2):
        edge_choices = (False, True) if g.has_edge(*pair) else (False,)
        for r in range(1, len(comps)):
            for chosen in combinations(comps, r):
                for with_edge in edge_choices:
                    try:
                        s = component_side(g, pair, chosen, with_edge)
                    except MalformedInput:
                        continue
                    side = Graph(tuple(sorted(s.va)), tuple(sorted(s.ea)))
                    invariant(is_connected(side), "hinge side of a "
                              "2-connected host must be connected")
                    out.setdefault(s.key, s)
    return tuple(sorted(out.values(), key=Separation.sort_key))


def all_separations(g):
    """Every hinge separation of a 2-connected, non-cycle host."""
    _require_two_connected(g)
    return _all_hinge_separations(g)


def enumerate_separations_at(g, u):
    """Hinge separations whose boundary contains u, sorted."""
    _require_two_connected(g)
    if u not in g:
        raise MalformedInput("no such vertex", witness=u)
    return tuple(s for s in _all_hinge_separations(g) if u in s.boundary)


def _component_sides(g):
    """One hinge side per component C of g - {u, w}, for every pair
    {u, w} that leaves at least two: C plus u and w, without the edge uw.

    In a 2-connected host every hinge side at {u, w} contains such a
    side, and a strictly smaller side has strictly fewer edges, so the
    least of these by sort key is a subgraph-minimal hinge separation.
    O(n^2) pairs, one component search each.
    """
    return [component_side(g, pair, (comp,))
            for pair, comps in separating_sets(g, 2) for comp in comps]


def minimal_separation_containing(g, x0):
    """A subgraph-minimal hinge separation with x0 among its vertices;
    of those, the least by sort key."""
    _require_two_connected(g)
    if x0 not in g:
        raise MalformedInput("no such vertex", witness=x0)
    cands = [s for s in _component_sides(g) if x0 in s.va]
    if not cands:
        raise NoSeparationExists("host has no hinge separations", witness=x0)
    return min(cands, key=Separation.sort_key)


def nested(a, b):
    """The corner inclusions that hold between two separations.

    Returns a tuple drawn from ("A<=B", "A<=B*", "A*<=B", "A*<=B*");
    empty means the pair is not nested.
    """
    if a.host != b.host:
        raise MalformedInput("separations live on different hosts")
    ac = separation_complement(a)
    bc = separation_complement(b)
    out = []
    if a.subgraph_leq(b):
        out.append("A<=B")
    if a.subgraph_leq(bc):
        out.append("A<=B*")
    if ac.subgraph_leq(b):
        out.append("A*<=B")
    if ac.subgraph_leq(bc):
        out.append("A*<=B*")
    return tuple(out)


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
    order = sorted(tree.classes[ci],
                   key=lambda i: (fam.elements[i].sort_key(), fam.rank[i]))
    for i in order:
        e = fam.elements[i]
        if len(e.boundary) != 2:
            continue
        invariant(e.boundary <= zvs, "hinge must survive into the region")
        k = edge_key(*e.boundary)
        if k not in zes:
            zes.add(k)
            virtuals.append(k)
            gens[k] = e
    z = Graph(zprime.vertices, tuple(sorted(zes)))
    return zprime, z, tuple(sorted(virtuals)), gens


def _split_sides(z):
    """The single-component hinge sides of torso z, or None when z needs
    no split: it is tiny, a cycle, or 3-connected by cutsets (it has no
    such side)."""
    if len(z.vertices) <= 3 or is_simple_cycle(z):
        return None
    invariant(is_k_connected(z, 2), "split target must be 2-connected")
    return _component_sides(z) or None


def _bfs_path(g, src, dst, avoid):
    """Shortest src-dst path with internals outside `avoid`, or None."""
    if src == dst:
        return (src,)
    prev = {src: None}
    queue = deque([src])
    while queue:
        x = queue.popleft()
        for y in g.neighbors(x):
            if y in prev or (y != dst and y in avoid):
                continue
            prev[y] = x
            if y == dst:
                path = [y]
                while prev[path[-1]] is not None:
                    path.append(prev[path[-1]])
                return tuple(reversed(path))
            queue.append(y)
    return None


@dataclass(frozen=True)
class Torso:
    tree_vertex: int
    z_prime: Graph       # intersection of member complements
    virtual_edges: tuple
    z: Graph             # z_prime plus virtual edges
    witness: Graph       # host subgraph that is a subdivision of z
    witness_paths: dict  # virtual edge -> host path realizing it
    generators: dict     # virtual edge -> the member separation behind it


def torso(g, tree, v):
    """Torso of tree class v: region plus one virtual edge per unjoined
    member hinge, together with a host witness subdivision.

    Single-vertex regions (cut-point classes) have no torso and raise
    HingeVertex.
    """
    if tree.family.host != g:
        raise MalformedInput("tree does not describe this host")
    zprime, z, virtuals, gens = _region_parts(tree, v)
    if tree.classes[v] and len(zprime.vertices) == 1 and not zprime.edges:
        raise HingeVertex("single-vertex region has no torso",
                          witness=zprime.vertices[0])
    invariant(is_connected(z), "torso must be connected")
    if len(z.vertices) >= 3:
        invariant(is_k_connected(z, 2), "torso must be 2-connected")
    hinge_vertices = {x for k in virtuals for x in k}
    paths = {}
    for k in virtuals:
        e = gens[k]
        side = Graph(tuple(sorted(e.va)), tuple(sorted(e.ea)))
        path = _bfs_path(side, k[0], k[1], hinge_vertices - set(k))
        if path is None:
            warnings.warn("witness path had to cross another hinge")
            path = _bfs_path(side, k[0], k[1], set())
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
    wes = set(zprime.edges)
    for k in virtuals:
        walk = paths[k]
        wvs.update(walk)
        for i in range(len(walk) - 1):
            wes.add(edge_key(walk[i], walk[i + 1]))
    witness = Graph(tuple(sorted(wvs)), tuple(sorted(wes)))
    invariant(set(witness.edges) <= g.edge_set, "witness must live in the host")
    for inner in interiors:
        for w in inner:
            invariant(witness.degree(w) == 2,
                      "subdivision vertices have degree 2")
    # contracting each path back to its virtual edge must give z exactly
    invariant(Graph(zprime.vertices,
                    tuple(sorted(set(zprime.edges) | set(virtuals)))) == z,
              "witness paths must contract to the torso")
    return Torso(v, zprime, virtuals, z, witness, paths, gens)


# ---------------------------------------------------------------------------
# the enlargement engine


def _family_of(host, entries):
    elements = [s for s, _ in entries]
    rank = [r for _, r in entries]
    comp = []
    for i in range(0, len(entries), 2):
        comp.extend((i + 1, i))
    return NestedFamily(host, elements, comp, rank)


def _add_orbit(entries, sep, aut_gens):
    """Append the orbit of sep (with complements) to the entry list,
    skipping images already present as rank-0 members."""
    present = {s.sort_key() for s, r in entries if r == 0}
    added = 0
    for img in orbit_of_separation(sep, aut_gens):
        if img.sort_key() in present:
            continue
        entries.append((img, 0))
        entries.append((separation_complement(img), 1))
        present.add(img.sort_key())
        added += 1
    return added


def _lift_torso_separation(host, tree, ci, zsep):
    """Carry a separation of the torso of class ci back to the host.

    Host components behind a virtual edge follow the side of the torso
    that took the edge; the component structure of host - hinge does the
    rest, and a real hinge edge follows the torso edge joining the hinge
    (which exists in the torso whenever the host edge does).
    """
    x, y = sorted(zsep.boundary)
    bd_taken = edge_key(x, y) in zsep.ea
    seeds = set(zsep.va) - set(zsep.boundary)
    if bd_taken:
        fam = tree.family
        for i in tree.classes[ci]:
            e = fam.elements[i]
            if len(e.boundary) == 2 and e.boundary == zsep.boundary:
                seeds |= set(e.va) - set(e.boundary)
    comps = [c for c in connected_components(host, (x, y))
             if not seeds.isdisjoint(c)]
    return component_side(host, (x, y), comps, bd_taken)


def _enlarge_to_conforming(host, entries, max_aut):
    """Grow the family until every class torso is a cycle, tiny, or
    3-connected by cutsets, and return the structure tree of the final
    family.  Mutates and consumes `entries`.

    Every round adds at least one fresh orbit of hinge separations, so
    the loop is bounded by the (finite) number of hinge separations.
    An empty family is seeded with the least side that holds the least
    host vertex.
    """
    aut_gens = None
    split = {}  # torso -> _split_sides(torso); most torsos recur unchanged
    for _ in range(10000):
        tree = build_structure_tree(_family_of(host, entries))
        for ci in range(tree.vertex_count):
            z = _region_parts(tree, ci)[1]
            if z not in split:
                split[z] = _split_sides(z)
            sides = split[z]
            if sides is not None:
                break
        else:
            return tree
        if not entries:
            sides = [s for s in sides if host.vertices[0] in s.va]
        zsep = min(sides, key=Separation.sort_key)
        lifted = _lift_torso_separation(host, tree, ci, zsep)
        if aut_gens is None:
            aut_gens = automorphism_group(
                host, max_vertices=max_aut).generators
        invariant(_add_orbit(entries, lifted, aut_gens),
                  "enlargement made no progress")
    raise InvariantViolated("enlargement failed to stabilize")


def build_nested_family(g, max_aut=DEFAULT_AUT_BOUND):
    """Automorphism-closed nested family of hinge separations whose
    structure tree has only cycle / tiny / 3-connected torsos.

    The host must be 2-connected, not a cycle, and not already
    3-connected by cutsets.
    """
    _require_two_connected(g)
    if is_three_connected_by_cutsets(g):
        raise PreconditionViolated("host is already 3-connected by cutsets")
    fam = _enlarge_to_conforming(g, [], max_aut).family
    invariant(fam.elements, "a splittable host must yield a nonempty family")
    return fam


# ---------------------------------------------------------------------------
# the combined tree


KIND_CUT_POINT = "CutPoint"
KIND_CYCLE = "Cycle"
KIND_THREE_CONNECTED = "ThreeConnected"


@dataclass(frozen=True)
class TriBlockTree:
    original: Graph
    reduced: "ReducedGraph"  # noqa: F821 - runtime type from graph module
    graph: Graph             # the reduced host the tree describes
    family: NestedFamily
    tree: StructureTree
    kinds: dict          # vertex id -> KIND_*
    cut_classes: dict    # vertex id -> cut vertex (CutPoint vertices)
    torsos: dict         # vertex id -> Torso (Cycle / ThreeConnected)
    edges: tuple         # (i, j) tree edges, i < j

    @property
    def vertex_count(self):
        return len(self.kinds)


def triblock_tree(g, max_aut=DEFAULT_AUT_BOUND):
    """Decompose a connected graph into cut points, cycles, and
    3-connected torsos after suppressing its degree-2 vertices.

    The one-boundary family at cut vertices and the hinge families of
    the 2-connected parts live in a single nested family over the
    reduced host; hinge sides absorb hanging pieces through the
    component structure, so no per-part bookkeeping is needed.
    """
    if not is_connected(g):
        raise NotConnected("decomposition needs a connected graph",
                           witness=[len(c) for c in connected_components(g)])
    red = homeomorphic_reduce(g)
    h = red.graph
    fam1 = b1_family(h)
    tree = _enlarge_to_conforming(h, list(zip(fam1.elements, fam1.rank)),
                                  max_aut)
    kinds = {}
    cut_classes = {}
    torsos = {}
    for ci in range(tree.vertex_count):
        reg = tree.region(ci)
        if tree.classes[ci] and len(reg.vertices) == 1 and not reg.edges:
            kinds[ci] = KIND_CUT_POINT
            cut_classes[ci] = reg.vertices[0]
            continue
        t = torso(h, tree, ci)
        torsos[ci] = t
        kinds[ci] = _classify(t.z)
    _check_edge_partition(h, kinds, cut_classes, torsos)
    return TriBlockTree(g, red, h, tree.family, tree, kinds, cut_classes,
                        torsos, tree.edges)


def _classify(z):
    if is_simple_cycle(z):
        return KIND_CYCLE
    if len(z.vertices) <= 3:
        return KIND_THREE_CONNECTED
    invariant(is_three_connected_by_cutsets(z),
              "non-cycle torso of the final tree must be 3-connected")
    return KIND_THREE_CONNECTED


def _check_edge_partition(h, kinds, cut_classes, torsos):
    seen = {}
    for ci, t in torsos.items():
        for e in t.z_prime.edges:
            invariant(e not in seen, "host edge claimed by two torsos")
            seen[e] = ci
    invariant(set(seen) == h.edge_set, "torsos must cover every host edge")
