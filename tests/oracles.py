"""Independent oracles the test suite checks the package against.

Each oracle recomputes its answer from first principles (brute force
where affordable) so that agreement is evidence, not circularity.  The
reference hinge family keeps its own copies of the functions it stands
in for, `reference_pendant_homes` included.  What is still imported
from `src` is the ground an oracle stands on, each piece tested on its
own:

- the `graph` primitives (`Graph`, `build_graph`, `edge_key`,
  `connected_components`, `two_cuts` and the connectivity tests), which
  the cutset oracles check in tests/test_graph.py, against the component
  BFS that skips dropped vertices (`bfs_components`) and the lowpoint DFS
  on vertex names (`lowpoint_dfs`) kept here as references;
- `b1_family` and `BlockCutTree`, which give the reference hinge family
  its blocks, and which `one_boundary_family`, `mask_b1_family` and the
  block-cut tree certificate check;
- `Separation`, `separation_complement`, `NestedFamily` and
  `build_structure_tree`, which hold a family and its tree as one
  record, checked against their set definitions in
  tests/test_separation.py and tests/test_treeset.py; the oracles of a
  tree (`verify_tree_correspondence`, `tree_order`, `path_coherent`
  and the rest) take that record and read its classes and edges;
- `blocks2._canonical_tree`, only as the family `build_nested_family`
  returns;
- `planar`'s `facial_walks`, `canonical_face` and `planarity_test`,
  whose embeddings the face oracles take as input (the rotation check
  and the face tracer that certificates are checked against are the
  oracle's own), and `cayley`'s
  `GroupTable`, `check_relators` and signature helpers, with which
  `reference_coset_enumerate` holds, checks and bounds its table;
- `cli.COMMANDS`, for the commands and bounds that the reference
  argparse parser of the command line declares;
- `graph.PalmForest`, the orientation of the reference left-right
  test (`left_right`, Brandes' test in networkx's adjacency and
  tie-breaking orders, `edge_order`), whose decisions and rotations
  are checked against networkx's, and which the package's
  edge-addition engine replaced; with `planar.subdivision_kind`,
  checked against `kuratowski_kind`, it gives the yes/no tests and the
  stopping rule of the greedy Kuratowski extractor
  (`greedy_kuratowski_edges`), which the engine's linear isolation
  replaced.

The package builds its sides straight from masks and leaves them to
`treeset.certify_tree`.  The sides the tests build by hand go through
`make_separation` here instead, which checks each condition of a
separation on its own and names the first that fails; the orbit oracle
checks every image it makes with it.
"""

from __future__ import annotations

import argparse
from collections import deque
from fractions import Fraction
from functools import reduce
from itertools import combinations, permutations
from math import gcd
from operator import or_
from types import SimpleNamespace

from planarblocks.blocks1 import BlockCutTree, b1_family
from planarblocks.blocks2 import _canonical_tree
from planarblocks.cayley import (GroupTable, check_relators,
                                euler_characteristic, free_abelian_rank,
                                surface_signature)
from planarblocks.cli import COMMANDS
from planarblocks.errors import (DEFAULT_COSET_LIMIT, InvariantViolated,
                                 MalformedInput, NotAnAutomorphism,
                                 NotConnected, NotNested, Overflow,
                                 PreconditionViolated, invariant)
from planarblocks.graph import (Graph, PalmForest, build_graph,
                                connected_components, edge_key,
                                is_connected, is_simple_cycle,
                                is_two_connected, require_connected,
                                two_cuts)
from planarblocks.planar import (canonical_face, facial_walks, planarity_test,
                                 subdivision_kind)
from planarblocks.separation import (Separation, build_structure_tree,
                                     separation_complement, set_bits)
from planarblocks.treeset import NestedFamily


# ------------------------------------------------- checked separations

def _mask_of(bits, items):
    """(OR of the bits of the known items, sorted list of the others).
    Both walk the items, not the index: a keys view intersects from the
    smaller side, and a set's difference with a dict probes the dict."""
    return (reduce(or_, map(bits.__getitem__, bits.keys() & items), 0),
            sorted(items.difference(bits)))


def vertex_mask(ix, vs):
    """(mask of the host vertices in vs, sorted list of the others)."""
    return _mask_of(ix.vertex_bit, set(vs))


def edge_mask(ix, es):
    """(mask of the host edges in es, sorted list of the others); edges
    may be given in either orientation."""
    return _mask_of(ix.edge_bit, {edge_key(*e) for e in es})


def incident(ix, i):
    """Edge mask of the edges at vertex i."""
    return ix.star[i] >> len(ix.vertices)


def _mask(ix, items, to_mask, everything, message):
    """items as a mask: an int mask as given, or the mask of a collection
    of host vertices or edges.  Raises MalformedInput(message) when some
    item is not in the host."""
    if isinstance(items, int):
        if items < 0 or items & ~everything:
            raise MalformedInput(message)
        return items
    mask, stray = to_mask(ix, items)
    if stray:
        raise MalformedInput(message, witness=stray)
    return mask


def make_separation(host, va, ea, boundary):
    """Build a Separation after checking every defining invariant.

    va, ea and boundary are collections of host vertices and edges, or
    int masks over `host.index`.  That ea lies inside va and the
    interior keeps its edges is one test on the neighbours and edges of
    the interior: they lie in va and make up ea, up to an edge joining
    the boundary.
    """
    ix = host.index
    vm = _mask(ix, va, vertex_mask, ix.all_vertices,
               "va not a subset of host vertices")
    em = _mask(ix, ea, edge_mask, ix.all_edges,
               "ea not a subset of host edges")
    bm, stray = ((boundary, None) if isinstance(boundary, int)
                 else vertex_mask(ix, boundary))
    if stray or bm.bit_count() not in (1, 2) or bm & ~vm:
        raise MalformedInput("boundary must be 1 or 2 vertices inside va",
                             witness=sorted(set(boundary)) if stray
                             else list(ix.vertices_of(bm)))
    near, at = ix.reach(vm & ~bm)
    hinge = tuple(ix.vertices[i] for i in set_bits(bm))
    joined = ix.edge_bit.get(hinge, 0) if len(hinge) == 2 else 0
    if near & ~vm or at & ~em or em & ~at & ~joined:
        raise _misplaced_edges(ix, vm, em, bm)
    for i in set_bits(bm):
        edges = incident(ix, i)
        if not edges & em or not edges & ~em:
            raise MalformedInput(
                "boundary vertex needs incident edges on both sides",
                witness={"vertex": ix.vertices[i],
                         "inside": (edges & em).bit_count(),
                         "outside": (edges & ~em).bit_count()})
    if len(hinge) == 2:
        if em.bit_count() == 1:
            raise MalformedInput("hinge separation may not be a single edge",
                                 witness=list(ix.edges_of(em)))
        rest = ix.all_edges & ~em
        if rest.bit_count() == 1:
            raise MalformedInput(
                "hinge separation may not be the host minus one edge",
                witness=list(ix.edges_of(rest)))
    return Separation(host, vm, em, bm)


def _misplaced_edges(ix, vm, em, bm):
    """The error for an edge of ea that leaves va (the least such edge)
    or else for the least interior vertex missing some of its edges."""
    leaving = em & ix.reach(ix.all_vertices & ~vm)[1]
    if leaving:
        return MalformedInput("edge of ea leaves va",
                              witness=list(ix.edges_of(leaving & -leaving)[0]))
    for i in set_bits(vm & ~bm):
        missing = incident(ix, i) & ~em
        if missing:
            return MalformedInput(
                "interior vertex missing incident edges",
                witness={"vertex": ix.vertices[i],
                         "edges": list(ix.edges_of(missing))})
    return InvariantViolated("edge masks disagree with the vertex masks")


# ------------------------------------------------------- block structure

def component_side(host, boundary, comps, with_edge=False):
    """The side spanned by some components of host - boundary.

    Its vertices are those of the components plus the boundary, its
    edges every host edge at a component vertex, and the edge joining a
    two-vertex boundary only when with_edge.
    """
    ix = host.index
    inner = _mask(ix, [v for c in comps for v in c], vertex_mask,
                  ix.all_vertices, "va not a subset of host vertices")
    em = ix.reach(inner)[1]
    if with_edge and len(boundary) == 2:
        em |= ix.edge_bit.get(edge_key(*boundary), 0)
    return make_separation(host, inner | vertex_mask(ix, boundary)[0], em,
                           boundary)


def induced_subgraph(g, vs):
    """The subgraph of g on the vertices vs, with every edge of g
    between them."""
    vset = set(vs)
    return Graph(tuple(sorted(vset)),
                 tuple(e for e in g.edges if e[0] in vset and e[1] in vset))


def remove_vertices(g, drop):
    """g minus the vertices in drop, as a copy with the same labels."""
    keep = [v for v in g.vertices if v not in drop]
    return induced_subgraph(g, keep)


def bfs_components(g, drop=()):
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


def lowpoint_dfs(g, skip=None):
    """(order, parent, split) of one iterative lowpoint DFS of g minus the
    vertex skip, from its least vertex, on vertex names and dicts:
    discovery order, DFS parents (None at the root), and for each cut
    vertex c of g - skip the children whose lowpoint does not climb above
    c.  Each of their subtrees is a component of g - skip - c and, unless
    c is the root, the rest is one more.  skip counts as seen, discovered
    after every vertex, so it is never entered and never a lowpoint.
    NotConnected, with the components of g - skip, when g - skip is not
    connected.
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
        raise NotConnected("cut vertices are defined for connected graphs",
                           witness=[list(c) for c in bfs_components(g, drop)])
    # every child of the root splits off; it is a cut vertex with two
    if len(split.get(root, ())) == 1:
        del split[root]
    return order, parent, split


def separating_sets(g, size):
    """(drop, components of g - drop) for every `size`-subset drop of the
    vertices whose removal leaves at least two components, in
    `combinations` order: one component search per subset."""
    for drop in combinations(g.vertices, size):
        comps = bfs_components(g, drop)
        if len(comps) > 1:
            yield drop, comps


def is_three_connected_by_cutsets(g):
    """Cutset criterion used by the decomposition layer: at least 4
    vertices and no cutset of size at most 2, so K4 passes."""
    return (len(g.vertices) >= 4 and is_two_connected(g)
            and not two_cuts(g))


def lowpoint_blocks(g):
    """Biconnected components by the classic DFS lowpoint method.

    Returns (blocks, articulation_points) where blocks is a set of
    frozensets of edges; an isolated vertex contributes no block.
    """
    index = {}
    low = {}
    parent = {}
    stack = []
    blocks = set()
    arts = set()
    counter = [0]

    for root in g.vertices:
        if root in index:
            continue
        # iterative DFS, each frame tracks the neighbor iterator
        index[root] = low[root] = counter[0]
        counter[0] += 1
        parent[root] = None
        frames = [(root, iter(g.neighbors(root)))]
        root_children = 0
        while frames:
            v, it = frames[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = counter[0]
                    counter[0] += 1
                    parent[w] = v
                    stack.append(edge_key(v, w))
                    frames.append((w, iter(g.neighbors(w))))
                    if v == root:
                        root_children += 1
                    advanced = True
                    break
                if w != parent[v] and index[w] < index[v]:
                    stack.append(edge_key(v, w))
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            frames.pop()
            if frames:
                u = frames[-1][0]
                low[u] = min(low[u], low[v])
                if low[v] >= index[u]:
                    block = set()
                    while stack:
                        e = stack.pop()
                        block.add(e)
                        if e == edge_key(u, v):
                            break
                    blocks.add(frozenset(block))
                    if u != root:
                        arts.add(u)
        if root_children >= 2:
            arts.add(root)
    return blocks, arts


def is_automorphism(g, perm):
    if sorted(perm) != list(g.vertices) or sorted(perm.values()) != list(g.vertices):
        return False
    return all(g.has_edge(perm[u], perm[v]) for u, v in g.edges)


def brute_automorphisms(g):
    """Every adjacency-preserving permutation, by filtering n!."""
    vs = g.vertices
    out = []
    eset = g.edge_set
    for perm in permutations(vs):
        m = dict(zip(vs, perm))
        if all(edge_key(m[u], m[v]) in eset for u, v in g.edges):
            out.append(m)
    return out


def group_closure(g, gens):
    """Every product of the generators, as dicts over g.vertices, keyed
    by the tuple of images of g.vertices; the identity is always in."""
    vs = g.vertices
    ident = {v: v for v in vs}
    seen = {vs: ident}
    frontier = [ident]
    while frontier:
        q = frontier.pop()
        for r in gens:
            s = {v: r[q[v]] for v in vs}
            k = tuple(s[v] for v in vs)
            if k not in seen:
                seen[k] = s
                frontier.append(s)
    return seen


def greedy_generators(g, elements):
    """Greedy generating subset: scan the elements in lexicographic order
    of their images of g.vertices and keep each one that the elements
    kept so far do not generate."""
    vs = g.vertices

    def key(p):
        return tuple(p[v] for v in vs)

    gens = []
    have = {vs}
    for p in sorted(elements, key=key):
        if key(p) in have:
            continue
        gens.append(p)
        have = set(group_closure(g, gens))
    return gens


def element_tree_action_violations(fam, elements):
    """The action of a group on a family's tree, checked element by
    element: each element must map every family member onto a member at
    an index of the same parity, and each element that maps the members of a class
    into that class must map the class's region (the intersection of
    the members' complements) onto itself."""
    host = fam.host
    index = {(a.va, a.ea, i & 1): i for i, a in enumerate(fam.elements)}
    violations = []
    for k, p in enumerate(elements):
        images = []
        for i, a in enumerate(fam.elements):
            images.append(index.get((
                frozenset(p[v] for v in a.va),
                frozenset(edge_key(p[u], p[v]) for u, v in a.ea),
                i & 1)))
        if None in images:
            violations.append(("missing-image", k))
            continue
        for ci, cls in enumerate(fam.classes):
            if not cls or any(images[i] not in cls for i in cls):
                continue
            va, ea = set(host.vertices), set(host.edges)
            for i in cls:
                va &= fam.elements[i ^ 1].va
                ea &= fam.elements[i ^ 1].ea
            if {p[v] for v in va} != va or \
                    {edge_key(p[u], p[v]) for u, v in ea} != ea:
                violations.append(("stabilizer-moves-torso", k, ci))
    return violations


def is_free(group):
    """True iff no non-identity element of the AutGroup fixes a vertex."""
    return all(group.stabilizer_of_vertex(v).order == 1
               for v in group.host.vertices)


def orbit_of_separation(a, perms):
    """Field-distinct images of a under the group generated by perms,
    sorted; every image is moved on sets and validated as a separation
    by `make_separation`."""
    seen = {a.sort_key(): a}
    frontier = [a]
    while frontier:
        x = frontier.pop()
        for p in perms:
            y = make_separation(x.host, {p[v] for v in x.va},
                                {edge_key(p[u], p[v]) for u, v in x.ea},
                                {p[b] for b in x.boundary})
            k = y.sort_key()
            if k not in seen:
                seen[k] = y
                frontier.append(y)
    return [seen[k] for k in sorted(seen)]


# ------------------------------------------------------- structure trees

def directed_edge(family, i):
    """Directed edge of element i in the family's tree: class(A*) ->
    class(A)."""
    return (family.class_of[i ^ 1], family.class_of[i])


def family_strict(family, i, j):
    """A < B from the definition: subgraph containment, with equal
    subgraphs that are not a complement pair ordered by their place in
    the pairs, the even index below the odd one."""
    if i == j:
        return False
    a, b = family.elements[i], family.elements[j]
    if a.va == b.va and a.ea == b.ea:
        return j != i ^ 1 and i & 1 < j & 1
    return a.va <= b.va and a.ea <= b.ea


def sim_classes(family):
    """The ~-classes from the definition, ordered by least member.

    A ~ B when A < B* with no element strictly between; the classes are
    the closure of that relation under union.
    """
    n = len(family.elements)
    label = list(range(n))
    for i in range(n):
        for j in range(n):
            jc = j ^ 1
            if i == j or not family_strict(family, i, jc):
                continue
            if any(family_strict(family, i, k) and family_strict(family, k, jc)
                   for k in range(n)):
                continue
            old, new = label[j], label[i]
            label = [new if x == old else x for x in label]
    groups = {}
    for i, x in enumerate(label):
        groups.setdefault(x, set()).add(i)
    return tuple(sorted((frozenset(g) for g in groups.values()), key=min))


def _class_edges(family):
    """Class of every element, and the class graph's adjacency."""
    class_of = {i: ci for ci, cls in enumerate(family.classes) for i in cls}
    adj = {ci: set() for ci in range(len(family.classes))}
    for i in range(0, len(class_of), 2):
        adj[class_of[i]].add(class_of[i + 1])
        adj[class_of[i + 1]].add(class_of[i])
    return class_of, adj


def tree_path(family, a, b):
    """Vertex path between two classes of the family's tree by BFS, or
    None."""
    _, adj = _class_edges(family)
    prev = {a: None}
    frontier = [a]
    while frontier and b not in prev:
        nxt = []
        for x in frontier:
            for y in sorted(adj[x]):
                if y not in prev:
                    prev[y] = x
                    nxt.append(y)
        frontier = nxt
    if b not in prev:
        return None
    out = [b]
    while out[-1] != a:
        out.append(prev[out[-1]])
    return tuple(reversed(out))


def path_coherent(family, i, j):
    """The edge of element i lies on the directed path toward the edge of
    element j; the edge of A runs from class(A*) to class(A)."""
    if i == j:
        return True
    if j == i ^ 1:
        return False
    class_of, _ = _class_edges(family)
    ti, hi = class_of[i ^ 1], class_of[i]
    tj, hj = class_of[j ^ 1], class_of[j]
    path = tree_path(family, ti, hj)
    return path is not None and len(path) >= 2 and path[1] == hi \
        and path[-2] == tj


def tree_order(family):
    """up[i] read off the family's tree: the elements whose edges lie
    beyond the head of i's edge, directed away from it, as an int
    bitmask.

    With the tree rooted at class 0, a downward element's set is the
    downward elements of the subtree below its head, found bottom-up;
    an upward element's is everything leaving its head, less the branch
    it came up, found top-down.  The branches at a class are disjoint,
    so taking one away is one XOR.
    """
    classes, class_of = family.classes, family.class_of
    n = len(class_of)
    if not n:
        return ()
    into = [None] * len(classes)    # class -> the element down into it
    order = [0]
    for x in order:
        for b in classes[x]:
            y = class_of[b ^ 1]
            if y and into[y] is None:
                into[y] = b ^ 1
                order.append(y)
    up = [0] * n
    below = [0] * len(classes)      # downward elements under each class
    for y in reversed(order):
        for b in classes[y]:
            if b != into[y]:
                below[y] |= 1 << (b ^ 1) | up[b ^ 1]
        if into[y] is not None:
            up[into[y]] = below[y]
    for x in order:
        d = into[x]
        leaving = below[x] | (0 if d is None else 1 << (d ^ 1) | up[d ^ 1])
        for b in classes[x]:
            if b != d:
                up[b] = leaving ^ (1 << (b ^ 1) | up[b ^ 1])
    return tuple(up)


class MaskOrder:
    """The strict order of separations in complement pairs, compared pair
    by pair from their masks: subgraph containment, with the twin rule
    of `family_strict`.  Bit j of up[i] is set when element i lies
    strictly below element j."""

    def __init__(self, elements):
        rows = [(s.vmask, s.emask) for s in elements]
        self.up = tuple(
            sum(1 << j for j, (vj, ej) in enumerate(rows)
                if not (vi & ~vj or ei & ~ej)
                and ((vi, ei) != (vj, ej) or j != i ^ 1 and i & 1 < j & 1))
            for i, (vi, ei) in enumerate(rows))

    def strict(self, i, j):
        return bool(self.up[i] >> j & 1)

    def leq(self, i, j):
        return i == j or self.strict(i, j)

    def crossing(self):
        """The first pair (i, j), i < j, for which none of i<=j, i<=j*,
        i*<=j, i*<=j* holds, or None when the family is nested."""
        up = self.up
        for i in range(len(up)):
            near = up[i] | up[i ^ 1] | 1 << i | 1 << (i ^ 1)
            for j in range(i + 1, len(up)):
                if not (near >> j & 1 or near >> (j ^ 1) & 1):
                    return i, j
        return None

    def classes(self):
        """The ~-classes by least member: class(i) is i plus the
        complements of the elements covering i.  Raises NotNested when
        two members of a class disagree on it."""
        up = self.up
        cls = []
        for i, above in enumerate(up):
            beyond = 0
            for k in set_bits(above):
                beyond |= up[k]
            cls.append(sum(1 << (k ^ 1) for k in set_bits(above & ~beyond))
                       | 1 << i)
        out = []
        for i, mask in enumerate(cls):
            for j in set_bits(mask):
                if cls[j] != mask:
                    raise NotNested("equivalence closure is inconsistent",
                                    witness={"a": i, "b": j})
            if mask & -mask == 1 << i:
                out.append(frozenset(set_bits(mask)))
        return tuple(out)


def mask_family(host, elements):
    """The elements in a family whose tree comes from `MaskOrder`: its
    classes from the covers, each region the intersection of the
    complements of the class's members, on sets."""
    classes = MaskOrder(elements).classes() or (frozenset(),)
    regions = []
    for cls in classes:
        vs, es = set(host.vertices), set(host.edges)
        for i in cls:
            vs &= elements[i ^ 1].va
            es &= elements[i ^ 1].ea
        regions.append(Graph(tuple(sorted(vs)), tuple(sorted(es))))
    return NestedFamily(host, elements, classes, regions)


def verify_tree_correspondence(fam):
    """Recompute the correspondence and report any violation.

    Checks tree shape, the stored classes, and that the family order
    agrees with coherent directed paths in the tree.  The order and the
    classes come from the elements' masks (`MaskOrder`), whichever
    producer built the tree.
    """
    order = MaskOrder(fam.elements)
    violations = []
    n = len(fam.elements)
    if n == 0:
        if len(fam.classes) != 1:
            violations.append("empty family must give a single-vertex tree")
        return {"ok": not violations, "violations": violations}
    k = len(fam.classes)
    if n // 2 != k - 1:
        violations.append("edge count is not vertex count minus one")
    try:
        classes = order.classes()
    except NotNested as exc:
        violations.append("equivalence classes inconsistent: %s" % exc)
        classes = None
    if classes is not None and classes != fam.classes:
        violations.append("stored classes differ from recomputed ~-classes")
    parts = connected_components(Graph(tuple(range(k)), fam.edges))
    if len(parts) > 1:
        violations.append("tree is disconnected at class %d" % parts[1][0])
    members = [sum(1 << i for i in cls) for cls in fam.classes]
    for i in range(n):
        reach = 0
        for b in set_bits(members[fam.class_of[i]] & ~(1 << i)):
            reach |= 1 << (b ^ 1) | order.up[b ^ 1]
        diff = (order.up[i] ^ reach) & ~(1 << i)
        if diff:
            j = (diff & -diff).bit_length() - 1
            violations.append(
                "order/path mismatch for elements %d,%d (leq=%s path=%s)"
                % (i, j, order.leq(i, j), bool(reach >> j & 1)))
    return {"ok": not violations, "violations": violations}


# ------------------------------------------------------------ separations

def pull_back_separation(original, reduced, a):
    """Pull a separation of a reduced graph back to its original graph.

    Every edge of ea expands to the original walk(s) it replaced,
    including branches that collapsed onto it, so interior vertices of
    the result keep all their incident edges and the boundary carries
    over unchanged.
    """
    if a.host != reduced.graph:
        raise MalformedInput("separation does not live on the reduced graph")
    walks = [walk for e in a.ea for walk in reduced.walks[e]]
    return make_separation(
        original, set(a.va).union(*walks),
        {edge_key(x, y) for walk in walks for x, y in zip(walk, walk[1:])},
        a.boundary)


def interior(a):
    """The vertices of separation a off its boundary."""
    return a.va - a.boundary


def nested(a, b):
    """The corner inclusions that hold between two separations.

    Returns a tuple drawn from ("A<=B", "A<=B*", "A*<=B", "A*<=B*");
    empty means the pair is not nested.
    """
    if a.host != b.host:
        raise MalformedInput("separations live on different hosts")
    ac, bc = separation_complement(a), separation_complement(b)
    return tuple(name for name, x, y in (("A<=B", a, b), ("A<=B*", a, bc),
                                         ("A*<=B", ac, b), ("A*<=B*", ac, bc))
                 if x.subgraph_leq(y))


def edge_subset_separations(g, boundary_size):
    """All separations with the given boundary size, enumerated from the
    definition over every edge subset.

    A candidate side is determined by its edge set: the vertices are the
    endpoints, and the boundary is forced to be the endpoints that also
    have host edges outside.  Hinge sides (boundary two) may not be a
    single edge nor the host minus one edge.
    """
    edges = list(g.edges)
    out = set()
    for bits in range(1, 2 ** len(edges) - 1):
        ea = frozenset(e for i, e in enumerate(edges) if bits >> i & 1)
        va = {x for e in ea for x in e}
        border = frozenset(
            v for v in va
            if any(edge_key(v, w) not in ea for w in g.neighbors(v)))
        if len(border) != boundary_size:
            continue
        if boundary_size == 2:
            if len(ea) == 1 or len(g.edge_set - ea) == 1:
                continue
        out.add((frozenset(va), ea, border))
    return out


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
                    if not is_connected(side):
                        raise AssertionError("hinge side must be connected")
                    out.setdefault(s.key, s)
    return tuple(sorted(out.values(), key=Separation.sort_key))


def _require_two_connected(g):
    if not is_connected(g):
        raise NotConnected("host must be connected",
                           witness=[list(c) for c in connected_components(g)])
    if not is_two_connected(g):
        raise PreconditionViolated("host must be 2-connected")
    if len(g.vertices) < 4:
        raise PreconditionViolated("host needs at least 4 vertices")
    if is_simple_cycle(g):
        raise PreconditionViolated("cycles have no torso structure to find")


def build_nested_family(g):
    """The hinge separations of g that no hinge separation crosses, with
    complements: the family `triblock_tree` builds its tree from, taken
    on the host as given.

    The host must be 2-connected, not a cycle, and not already
    3-connected by cutsets.
    """
    _require_two_connected(g)
    if is_three_connected_by_cutsets(g):
        raise PreconditionViolated("host is already 3-connected by cutsets")
    fam = _canonical_tree(g)
    invariant(fam.elements, "a splittable host must yield a nonempty family")
    return fam


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


def totally_nested_keys(g):
    """Sorted keys of the hinge separations of g that no hinge separation
    of g crosses.  Two separations cross when none of A<=B, A<=B*, A*<=B,
    A*<=B* holds between them as subgraphs."""
    seps = [(s, separation_complement(s)) for s in all_separations(g)]

    def leq(x, y):
        return x.va <= y.va and x.ea <= y.ea

    def crosses(a, ac, b, bc):
        return not (leq(a, b) or leq(a, bc) or leq(ac, b) or leq(ac, bc))

    return sorted(a.key for a, ac in seps
                  if not any(crosses(a, ac, b, bc) for b, bc in seps))


# ---------------------------------------------------- separations as sets
#
# The package holds separations as bitmasks; these spell out on Python
# sets what its mask code computes.

def separation_fault(host, va, ea, boundary):
    """The message make_separation raises for (va, ea, boundary), or None
    when they form a separation: its checks, in its order, on sets."""
    va = frozenset(va)
    ea = frozenset(edge_key(*e) for e in ea)
    boundary = frozenset(boundary)
    if not va <= host.vertex_set:
        return "va not a subset of host vertices"
    if not ea <= host.edge_set:
        return "ea not a subset of host edges"
    if len(boundary) not in (1, 2) or not boundary <= va:
        return "boundary must be 1 or 2 vertices inside va"
    if any(u not in va or v not in va for u, v in ea):
        return "edge of ea leaves va"
    for w in va - boundary:
        if any(edge_key(w, x) not in ea for x in host.neighbors(w)):
            return "interior vertex missing incident edges"
    for b in boundary:
        inside = sum(edge_key(b, x) in ea for x in host.neighbors(b))
        if inside == 0 or inside == host.degree(b):
            return "boundary vertex needs incident edges on both sides"
    if len(boundary) == 2:
        if len(ea) == 1:
            return "hinge separation may not be a single edge"
        if len(host.edge_set - ea) == 1:
            return "hinge separation may not be the host minus one edge"
    return None


def _set_key(va, ea, boundary):
    return (tuple(sorted(va)), tuple(sorted(ea)), tuple(sorted(boundary)))


def _side_and_complement(g, comps, boundary, with_edge=False):
    """Keys of the side spanned by some components of g - boundary (every
    edge among its vertices, the edge joining the boundary only when
    with_edge) and of its complement."""
    va = set(boundary).union(*comps)
    joined = edge_key(*boundary) if len(boundary) == 2 else None
    ea = {e for e in g.edges if e[0] in va and e[1] in va
          and (with_edge or e != joined)}
    rest = (set(g.vertices) - va) | set(boundary)
    return (_set_key(va, ea, boundary),
            _set_key(rest, set(g.edges) - ea, boundary))


def one_boundary_family(g):
    """The keys of b1_family by its definition on sets: at each cut
    vertex in vertex order, each component of g - c by least vertex
    spans a side, followed by its complement."""
    keys = []
    for (c,), comps in separating_sets(g, 1):
        for comp in comps:
            keys.extend(_side_and_complement(g, [comp], (c,)))
    return keys


def mask_b1_family(g):
    """The one-boundary family built from masks alone: at each cut vertex
    c, found by brute force, and each component of g - c by least
    vertex, the side `make_separation` checks, then its complement, with
    the tree of `mask_family`."""
    elements = []
    for (c,), comps in separating_sets(g, 1):
        for comp in comps:
            side = component_side(g, (c,), [comp])
            elements += (side, separation_complement(side))
    return mask_family(g, elements)


def mask_block_cut_tree(g):
    """(family, cut classes, block classes) of the mask-generic build:
    `mask_b1_family` with the tree of its ~-classes, verified, and
    each class's region as the intersection of its members'
    complements, a single vertex for a cut."""
    family = mask_b1_family(g)
    report = verify_tree_correspondence(family)
    invariant(report["ok"], "mask-built tree fails", report["violations"])
    cuts, blocks = {}, {}
    for ci, reg in enumerate(family.regions):
        if family.classes[ci] and not reg.edges and len(reg.vertices) == 1:
            cuts[ci] = reg.vertices[0]
        else:
            blocks[ci] = reg
    return family, cuts, blocks


def class_preorder(family):
    """The classes of the family's tree in the preorder of a recursive
    depth-first search from class 0 that takes children by ascending
    number: the places the interval form of `treeset` counts."""
    _, adj = _class_edges(family)
    out = []

    def visit(x, parent):
        out.append(x)
        for y in sorted(adj[x]):
            if y != parent:
                visit(y, x)
    visit(0, None)
    return out


def spelled_out(family):
    """The family with each element of the interval form (lo, hi, out,
    boundary) spelled out on sets: the union of the regions of the
    classes at places lo .. hi - 1 of `class_preorder`, or with out of
    the others, with its boundary, as the Separation `make_separation`
    checks.  A family in masks comes back as it is."""
    elements = family.elements
    if not elements or not isinstance(elements[0], tuple):
        return family
    places = class_preorder(family)
    sides = []
    for lo, hi, out, boundary in elements:
        inside = set(places[lo:hi])
        chosen = [family.regions[x] for x in places if (x in inside) != out]
        sides.append(make_separation(
            family.host, set().union(*(r.vertices for r in chosen)),
            set().union(*(r.edges for r in chosen)), boundary))
    return NestedFamily(family.host, sides, family.classes, family.regions)


def uncrossed_side_keys(z):
    """(side key, complement key) of each candidate hinge side of the
    2-connected z that crosses no other candidate, by sort key: the set
    definition of blocks2._uncrossed_sides.  A candidate is one component
    of z minus a vertex pair plus the pair, with and without the edge
    joining the pair."""
    cands = []
    for pair, comps in separating_sets(z, 2):
        for with_edge in (False, True) if z.has_edge(*pair) else (False,):
            for comp in comps:
                cands.append(_side_and_complement(z, [comp], pair, with_edge))

    def leq(x, y):
        return set(x[0]) <= set(y[0]) and set(x[1]) <= set(y[1])

    def crosses(a, b):
        return not any(leq(x, y) for x in a for y in b)

    kept = [a for a in cands if not any(crosses(a, b) for b in cands)]
    return sorted(kept, key=lambda a: (len(a[0][1]), a[0][1], a[0][2]))


# ------------------------------------------------ reference hinge family
#
# The hinge family as it was built before its sides were lifted through
# the block-cut tree: each side checked by `make_separation`, and
# carried to the host through the components of the host minus its
# pair.  `blocks2._canonical_tree` must give the same family.

def reference_uncrossed_sides(z):
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
    sides = []
    for pair, comps, label in cuts:
        if any(label[u] != label[w] for (u, w), _, _ in cuts
               if u not in pair and w not in pair):
            continue
        bond = len(comps) == 2 and z.has_edge(*pair)
        for with_edge in (False, True) if bond else (False,):
            for comp in comps:
                s = component_side(z, pair, (comp,), with_edge)
                sides.append((s, separation_complement(s)))
    return sorted(sides, key=lambda c: c[0].sort_key())


def reference_lift_torso_separation(host, zsep, hang=()):
    """Carry a hinge separation of a torso back to the host.

    The host components of host - hinge that meet the interior of zsep
    make up the side, with those that meet no torso vertex and hang at
    a vertex of `hang`.  The host edge joining the hinge goes with it
    when zsep holds the torso edge joining the hinge.
    """
    x, y = sorted(zsep.boundary)
    seeds = zsep.va - zsep.boundary
    near = {u for v in hang for u in host.neighbors(v)} - zsep.host.vertex_set
    comps = [c for c in bfs_components(host, (x, y))
             if not seeds.isdisjoint(c) or not near.isdisjoint(c)]
    return component_side(host, (x, y), comps, edge_key(x, y) in zsep.ea)


def reference_pendant_homes(pairs, cuts):
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


def reference_canonical_tree(h):
    """The nested family, with its structure tree, of the one-boundary
    family of h together with the uncrossed hinge separations of each of
    its blocks.

    The blocks come off the block-cut tree that `b1_family` reads off
    its DFS.  Blocks of at most three vertices and cycles have none.
    Each lifted side enters followed by its complement, unless the side
    is already present.  A side and its complement lift to complements
    unless a pendant piece goes with neither.
    """
    bct = BlockCutTree(h, b1_family(h))
    elements = list(spelled_out(bct.family).elements)
    cuts = set(bct.cuts)
    present = set()
    for z in bct.blocks:
        if len(z.vertices) <= 3 or is_simple_cycle(z):
            continue
        pairs = reference_uncrossed_sides(z)
        for zsep, hang in reference_pendant_homes(pairs, cuts & z.vertex_set):
            s = reference_lift_torso_separation(h, zsep, hang)
            if s in present:
                continue
            sc = separation_complement(s)
            present.update((s, sc))
            elements += (s, sc)
    return build_structure_tree(h, elements)


def bfs_path(g, src, dst):
    """Shortest src-dst path in the graph g, or None: the witness path
    search of a torso as it ran on a graph built from the member side,
    `Graph(sorted(e.va), sorted(e.ea))`.  `blocks2._side_path` must find
    the same path on the host's masks."""
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


# ------------------------------------------------- left-right test

def edge_order(n, edges):
    """The edges of the graph on 0..n-1 in networkx's edge order: by
    their lesser endpoint, and at each vertex in the order `edges` lists
    its edges.  Adjacency lists appended from this order are the ones
    networkx's left-right test searches.
    """
    later = [[] for _ in range(n)]
    for a, b in edges:
        later[a].append(b)
        later[b].append(a)
    return [(u, w) for u in range(n) for w in later[u] if w > u]


def left_right(n, edges, embed=False):
    """Brandes' left-right planarity test of the simple graph on 0..n-1
    with the given edge pairs: None when it is not planar, otherwise
    True, or with `embed` each vertex's neighbours in clockwise order.

    Three iterative phases over edge ids 0..m-1, numbered as the DFS
    orients them: the arcs of the palm forest.  A tree edge's `lowpt`
    and `lowpt2` are its head's low1 and low2 capped at its tail's DFS
    number, a back edge's its head's and its tail's numbers.  networkx
    counts heights instead, but both order a vertex's ancestors alike,
    so no comparison changes; the nesting depth counts from the number
    of the tree's root, height 0, so signed depths sort alike too.  The
    testing DFS visits each vertex's out-edges by nesting depth and
    merges their return edges on a stack of conflict pairs, each a list
    [left low, left high, right low, right high] of edge ids (None for
    an empty interval), recording for each edge a `ref` edge and the
    `side` (1 or -1) it has relative to it.  The embedding resolves
    `side` along `ref` chains, re-sorts by signed nesting depth, and
    places each back edge at its ancestor, after its `right_ref` (the
    child entered last) or before its `left_ref` (that child, or the
    back edge placed there last).  Each vertex's rotation is a cyclic
    list (`cw`, `ccw`) with a marked first neighbour, as in networkx, so
    the rotation is the one networkx returns.
    """
    if n > 2 and len(edges) > 3 * n - 6:
        return None
    adj = [[] for _ in range(n)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)

    # orientation: the palm forest, its arcs numbered as edge ids
    palm = PalmForest(adj)
    num, parent, low1, low2 = palm.num, palm.parent, palm.low1, palm.low2
    src, dst, roots = palm.tail, palm.head, palm.roots
    base = []       # DFS number -> that of its tree's root, height 0
    for r in roots:
        base += [num[r]] * palm.size[r]
    m = len(src)
    lowpt, lowpt2, nesting = [0] * m, [0] * m, [0] * m
    parent_edge = [-1] * n      # id of the tree edge into a vertex
    out = [[] for _ in range(n)]    # a vertex's out-edges, in DFS order
    for e, (v, w) in enumerate(zip(src, dst)):
        nv = num[v]
        if parent[w] == v:          # tree edge
            parent_edge[w] = e
            low = low1[w] if low1[w] < nv else nv
            second = low2[w] if low2[w] < nv else nv
        else:                       # back edge
            low, second = num[w], nv
        lowpt[e] = low
        lowpt2[e] = second
        nesting[e] = 2 * (low - base[nv]) + (second < nv)
        out[v].append(e)

    # testing
    ordered = [sorted(es, key=nesting.__getitem__) for es in out]
    ref = [None] * m
    side = [1] * m
    lowpt_edge = [None] * m
    bottom = [0] * m            # stack height when an edge was entered
    S = []                      # conflict pairs

    def add_constraints(ei, e):
        P = [None, None, None, None]
        # merge the return edges of ei into P's right interval
        while True:
            Q = S.pop()
            if Q[0] is not None or Q[1] is not None:
                Q = [Q[2], Q[3], Q[0], Q[1]]
                if Q[0] is not None or Q[1] is not None:
                    return False
            if lowpt[Q[2]] > lowpt[e]:
                if P[2] is None and P[3] is None:
                    P[3] = Q[3]
                elif P[2] is not None:
                    ref[P[2]] = Q[3]
                P[2] = Q[2]
            else:           # align
                ref[Q[2]] = lowpt_edge[e]
            if len(S) == bottom[ei]:
                break
        # merge the conflicting return edges of earlier siblings into
        # P's left interval
        low = lowpt[ei]
        while True:
            T = S[-1]
            if not ((T[0] is not None or T[1] is not None)
                    and lowpt[T[1]] > low
                    or (T[2] is not None or T[3] is not None)
                    and lowpt[T[3]] > low):
                break
            Q = S.pop()
            if (Q[2] is not None or Q[3] is not None) and lowpt[Q[3]] > low:
                Q = [Q[2], Q[3], Q[0], Q[1]]
                if (Q[2] is not None or Q[3] is not None) and \
                        lowpt[Q[3]] > low:
                    return False
            if P[2] is not None:
                ref[P[2]] = Q[3]
            if Q[2] is not None:
                P[2] = Q[2]
            if P[0] is None and P[1] is None:
                P[1] = Q[1]
            elif P[0] is not None:
                ref[P[0]] = Q[1]
            P[0] = Q[0]
        if P != [None, None, None, None]:
            S.append(P)
        return True

    def lowest(P):
        if P[0] is None and P[1] is None:
            return lowpt[P[2]]
        if P[2] is None and P[3] is None:
            return lowpt[P[0]]
        return min(lowpt[P[0]], lowpt[P[2]])

    def remove_back_edges(e):
        u = src[e]
        hu = num[u]
        # drop the conflict pairs whose edges all return to u
        while S and lowest(S[-1]) == hu:
            P = S.pop()
            if P[0] is not None:
                side[P[0]] = -1
        if S:
            # trim the back edges ending at u from the next one
            P = S.pop()
            while P[1] is not None and dst[P[1]] == u:
                P[1] = ref[P[1]]
            if P[1] is None and P[0] is not None:     # just emptied
                ref[P[0]] = P[2]
                side[P[0]] = -1
                P[0] = None
            while P[3] is not None and dst[P[3]] == u:
                P[3] = ref[P[3]]
            if P[3] is None and P[2] is not None:     # just emptied
                ref[P[2]] = P[0]
                side[P[2]] = -1
                P[2] = None
            S.append(P)
        # e takes the side of a highest return edge
        if lowpt[e] < hu:
            hl, hr = S[-1][1], S[-1][3]
            ref[e] = hl if hl is not None and (
                hr is None or lowpt[hl] > lowpt[hr]) else hr

    def integrate(v, ei):
        # the return edges of ei, an out-edge of v, join those of the
        # edge into v
        if lowpt[ei] >= num[v]:
            return True
        if ei == ordered[v][0]:
            lowpt_edge[parent_edge[v]] = lowpt_edge[ei]
            return True
        return add_constraints(ei, parent_edge[v])

    for root in roots:
        stack = [(root, iter(ordered[root]))]
        while stack:
            v, todo = stack[-1]
            for ei in todo:
                bottom[ei] = len(S)
                w = dst[ei]
                if parent_edge[w] == ei:        # tree edge
                    stack.append((w, iter(ordered[w])))
                    break
                lowpt_edge[ei] = ei
                S.append([None, None, ei, ei])
                if not integrate(v, ei):
                    return None
            else:
                stack.pop()
                e = parent_edge[v]
                if e >= 0:
                    remove_back_edges(e)
                    if not integrate(src[e], e):
                        return None
    if not embed:
        return True

    # embedding: each edge's side made absolute along its ref chain
    for e in range(m):
        chain = []
        while ref[e] is not None:
            chain.append(e)
            e = ref[e]
        s = side[e]
        for x in reversed(chain):
            s = side[x] = side[x] * s
            ref[x] = None
    signed = [side[e] * nesting[e] for e in range(m)]
    cw = [{} for _ in range(n)]
    ccw = [{} for _ in range(n)]
    first = [None] * n

    def place(v, w, before=None, after=None):
        # w into v's rotation just counterclockwise of `before` (as first
        # neighbour if `before` was) or just clockwise of `after`
        c, a = cw[v], ccw[v]
        if before is None and after is None:
            c[w] = a[w] = first[v] = w
        elif before is not None:
            prev = a[before]
            c[w], a[w] = before, prev
            c[prev] = a[before] = w
            if first[v] == before:
                first[v] = w
        else:
            nxt = c[after]
            c[w], a[w] = nxt, after
            a[nxt] = c[after] = w

    for v in range(n):
        ordered[v] = sorted(out[v], key=signed.__getitem__)
        prev = None
        for e in ordered[v]:
            place(v, dst[e], after=prev)
            prev = dst[e]
    left_ref = [None] * n
    right_ref = [None] * n
    for root in roots:
        stack = [(root, iter(ordered[root]))]
        while stack:
            v, todo = stack[-1]
            for e in todo:
                w = dst[e]
                if parent_edge[w] == e:         # tree edge
                    place(w, v, before=first[w])
                    left_ref[v] = right_ref[v] = w
                    stack.append((w, iter(ordered[w])))
                    break
                if side[e] == 1:
                    place(w, v, after=right_ref[w])
                else:
                    place(w, v, before=left_ref[w])
                    left_ref[w] = v
            else:
                stack.pop()
    rotation = []
    for v in range(n):
        around = []
        w = first[v]
        if w is not None:
            around.append(w)
            x = cw[v][w]
            while x != w:
                around.append(x)
                x = cw[v][x]
        rotation.append(around)
    return rotation


# --------------------------------------------------- Kuratowski witnesses

def kuratowski_kind(g):
    """Classify g as a subdivision of K5 or K3,3, or return None.

    Branch vertices are those of degree >= 3; every other vertex must
    have degree exactly 2 and lie on exactly one branch-to-branch chain.
    """
    branch = [v for v in g.vertices if g.degree(v) >= 3]
    if any(g.degree(v) < 2 for v in g.vertices):
        return None
    chains = []
    used = set()
    for b in branch:
        for w in g.neighbors(b):
            first = edge_key(b, w)
            if first in used:
                continue
            path = [b, w]
            used.add(first)
            prev = b
            while g.degree(path[-1]) == 2:
                nxts = [x for x in g.neighbors(path[-1]) if x != prev]
                if len(nxts) != 1:
                    return None
                prev = path[-1]
                used.add(edge_key(prev, nxts[0]))
                path.append(nxts[0])
            if path[-1] not in branch:
                return None
            chains.append((path[0], path[-1], tuple(path[1:-1])))
    if used != g.edge_set:
        return None
    inner = [v for v in g.vertices if g.degree(v) == 2]
    touched = [v for _, _, mid in chains for v in mid]
    if sorted(touched) != sorted(inner):
        return None
    ends = sorted((tuple(sorted((a, b))) for a, b, _ in chains))
    if len(branch) == 5 and all(g.degree(v) >= 4 for v in branch):
        want = sorted(tuple(sorted(p)) for p in combinations(branch, 2))
        if ends == want:
            return "K5"
    if len(branch) == 6:
        # try every 3+3 bipartition of the branch vertices
        for part in combinations(branch, 3):
            left = set(part)
            right = set(branch) - left
            want = sorted(tuple(sorted((a, b)))
                          for a in left for b in right)
            if ends == want:
                return "K33"
    return None


def networkx_kuratowski_edges(g):
    """Sorted edge keys of the Kuratowski subgraph that networkx's own
    one-edge-at-a-time extraction finds in the nonplanar g (networkx is
    the reference implementation of the left-right test)."""
    import networkx as nx
    h = nx.Graph()
    h.add_nodes_from(g.vertices)
    h.add_edges_from(g.edges)
    ok, cert = nx.check_planarity(h, counterexample=True)
    if ok:
        raise ValueError("graph is planar")
    return tuple(sorted(edge_key(u, v) for u, v in cert.edges()))


def _two_core(n, edges):
    """Each vertex's neighbours in the 2-core of the graph on 0..n-1 with
    these edges: what is left once vertices of degree 1 are peeled off,
    one at a time.  A vertex off the core gets an empty list."""
    adj = [[] for _ in range(n)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    degree = list(map(len, adj))
    leaves = [v for v in range(n) if degree[v] == 1]
    for v in leaves:        # the list grows behind the scan
        degree[v] = 0
        for w in adj[v]:
            if degree[w]:
                degree[w] -= 1
                if degree[w] == 1:
                    leaves.append(w)
    return [[w for w in around if degree[w]] if degree[v] else []
            for v, around in enumerate(adj)]


def greedy_kuratowski_edges(n, order):
    """Edges of a Kuratowski subgraph of the nonplanar graph on 0..n-1
    whose edges, in networkx's edge order, are `order`.

    The result is networkx's `get_counterexample`, edge for edge: each
    edge in turn is deleted when the graph stays nonplanar without it.
    Three rules find the same edges with fewer tests.  An edge off the
    2-core of the graph left is on no Kuratowski subgraph, so it is
    deleted untested.  Once that 2-core subdivides K5 or K3,3
    (`planar.subdivision_kind`), losing any of its edges makes the graph
    planar, so it is the answer.  And planarity is monotone under
    subgraphs, so a batch of edges whose removal leaves the graph
    nonplanar goes at once, as one-by-one deletion would remove each:
    batches double after such a removal and halve after one that makes
    the graph planar, and a batch of one that makes it planar keeps its
    edge.  The graph at each test is the kept edges and those not tried
    yet, less the batch.
    """
    kept, rest = [], order
    size = 1
    while True:
        # the graph left is kept + rest, nonplanar; kept is on its core
        core = _two_core(n, kept + rest)
        rest = [e for e in rest if core[e[0]] and core[e[1]]]
        # branch vertices of degree 4 or 3, five or six, else no walk
        branch = [len(around) for around in core if len(around) > 2]
        if branch in ([4] * 5, [3] * 6) and subdivision_kind(
                [v for v in range(n) if core[v]], core)[0]:
            return kept + rest
        i = 0
        while i < len(rest):
            if left_right(n, kept + rest[i + size:]) is None:
                rest = rest[i + size:]
                size *= 2
                break
            if size == 1:
                kept.append(rest[i])
                i += 1
            else:
                size //= 2
        else:
            return kept


def greedy_kuratowski_witness(g):
    """Sorted edge keys of the greedy extractor's Kuratowski subgraph of
    the nonplanar g, numbered as `planarity_test` numbers it."""
    vs = g.vertices
    index = {v: i for i, v in enumerate(vs)}
    order = edge_order(len(vs), [(index[u], index[v]) for u, v in g.edges])
    return tuple(sorted(edge_key(vs[a], vs[b])
                        for a, b in greedy_kuratowski_edges(len(vs), order)))


# ------------------------------------------------------------- faces

def brute_canonical_face(walk):
    """Cyclic sequence minimal under rotation and reversal, found by
    trying all 2L rotations of the walk and of its reverse."""
    n = len(walk)
    if n == 0:
        return ()
    best = None
    for seq in (tuple(walk), tuple(reversed(walk))):
        for i in range(n):
            cand = seq[i:] + seq[:i]
            if best is None or cand < best:
                best = cand
    return best


def edge_key_facial_walks(r):
    """The facial walks of the rotation system r, traced the way the
    package once did: each vertex's rotation rewritten as edge keys, and
    each dart's successor found by looking its edge up in the rotation
    at its head.  The walks start at the least unused dart, in order."""
    g = r.host
    rot = {v: tuple(edge_key(v, w) for w in r.rotation.get(v, ()))
           for v in g.vertices}

    def next_dart(u, v):
        around = rot[v]
        e = around[(around.index(edge_key(u, v)) + 1) % len(around)]
        return (v, e[0] if e[1] == v else e[1])

    if not g.edges:
        return (((),) if len(g.vertices) else ())
    darts = sorted([(u, v) for u, v in g.edges] + [(v, u) for u, v in g.edges])
    used = set()
    walks = []
    for start in darts:
        if start in used:
            continue
        dart, walk = start, []
        while True:
            invariant(dart not in used, "faces must partition the darts",
                      witness=dart)
            used.add(dart)
            walk.append(dart[0])
            dart = next_dart(*dart)
            if dart == start:
                break
        walks.append(tuple(walk))
    return tuple(walks)


def per_vertex_rotation_check(host, rotation):
    """The rotation check as the package once made it, vertex by vertex
    against the host's sorted adjacency: the first vertex of
    `host.vertices` whose order does not sort to its neighbours is the
    witness.  Keys that are not host vertices are ignored."""
    for v in host.vertices:
        if tuple(sorted(rotation.get(v, ()))) != host.neighbors(v):
            raise MalformedInput(
                "rotation at a vertex must permute its incident edges",
                witness=v)


def reference_embedding_walks(g, rotation):
    """The facial walks of the sphere embedding that the rotation gives
    the host g, with the checks in the order the package once made
    them: connectivity from the host's components, the per-vertex
    rotation check, the faces by the edge-key tracer, Euler's formula."""
    require_connected(g, "planarity certificates assume a connected host")
    per_vertex_rotation_check(g, rotation)
    walks = edge_key_facial_walks(SimpleNamespace(host=g, rotation=rotation))
    invariant(len(g.vertices) - len(g.edges) + len(walks) == 2,
              "sphere embeddings satisfy Euler's formula")
    return walks


def euler_genus(r):
    """Genus of the surface the rotation system describes; 0 is planar."""
    f = len(facial_walks(r))
    v = len(r.host.vertices)
    e = len(r.host.edges)
    two_minus_two_g = v - e + f
    invariant(two_minus_two_g % 2 == 0, "Euler characteristic must be even",
              witness=two_minus_two_g)
    return (2 - two_minus_two_g) // 2


def apply_to_face(perm, face):
    return canonical_face(tuple(perm[v] for v in face))


def facial_preservation_check(r, sigma):
    """True iff sigma maps every facial walk of r to a facial walk of r
    (as cyclic sequences up to rotation and reversal)."""
    if not is_automorphism(r.host, sigma):
        raise NotAnAutomorphism("sigma does not preserve the host",
                                witness=sigma)
    faces = {canonical_face(w) for w in facial_walks(r)}
    return all(apply_to_face(sigma, f) in faces for f in faces)


def face_size_multiset(g):
    res = planarity_test(g)
    if not res.planar:
        raise PreconditionViolated("host is not planar")
    return tuple(sorted(len(f) for f in res.faces))


def face_multiset_uniqueness_check(g):
    """Check that every vertex relabeling embeds with the same face-size
    multiset (the sphere embedding of a 3-connected planar graph is
    essentially unique).

    Relabelings sharing an edge set reuse one embedding, so the work is
    |V|! / |Aut(g)| planarity calls rather than |V|!.
    """
    if not (is_three_connected_by_cutsets(g) and len(g.vertices) <= 10):
        raise PreconditionViolated(
            "uniqueness check needs a 3-connected host with at most 10 vertices")
    base = face_size_multiset(g)
    vs = g.vertices
    seen = {}
    relabelings = 0
    for perm in permutations(vs):
        mapping = dict(zip(vs, perm))
        edges = tuple(sorted(edge_key(mapping[u], mapping[v])
                             for u, v in g.edges))
        relabelings += 1
        if edges in seen:
            continue
        seen[edges] = face_size_multiset(Graph(vs, edges))
    distinct = set(seen.values())
    invariant(distinct == {base}, "face multiset must not depend on labels")
    return {
        "face_multiset": base,
        "relabelings": relabelings,
        "distinct_edge_sets": len(seen),
        "ok": True,
    }


# --------------------------------------------------- permutation groups

def perm_compose(p, q):
    """p after q, both tuples mapping i -> p[i]."""
    return tuple(p[q[i]] for i in range(len(p)))


def perm_inverse(p):
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[j] = i
    return tuple(out)


def perm_order(p):
    ident = tuple(range(len(p)))
    k, cur = 1, p
    while cur != ident:
        cur = perm_compose(p, cur)
        k += 1
    return k


def closure(gens):
    """Group generated by permutation tuples."""
    n = len(gens[0])
    ident = tuple(range(n))
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for x in frontier:
            for gperm in gens:
                y = perm_compose(gperm, x)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


def von_dyck_permutation_group(m1, m2, m3, max_degree=5):
    """Search small symmetric groups for x, y with |x| = m1, |y| = m2,
    |xy| = m3, maximizing nothing, returning the largest closure found
    with exactly those orders (the finite von Dyck group realization)."""
    best = None
    for degree in range(3, max_degree + 1):
        elements = list(permutations(range(degree)))
        xs = [p for p in elements if perm_order(p) == m1]
        ys = [p for p in elements if perm_order(p) == m2]
        for x in xs:
            for y in ys:
                if perm_order(perm_compose(x, y)) != m3:
                    continue
                grp = closure([x, y])
                size = len(grp)
                # 2/(1/m1 + 1/m2 + 1/m3 - 1) is the spherical order
                target = 2 / (1 / m1 + 1 / m2 + 1 / m3 - 1)
                if abs(size - target) < 1e-9:
                    return grp, x, y
                if best is None or size > best[0]:
                    best = (size, grp, x, y)
    if best is None:
        raise AssertionError("no permutation realization found")
    return best[1], best[2], best[3]


def verify_table_isomorphism(tbl, images):
    """Check the group table is isomorphic to a permutation group via
    the generator images mapping (name -> permutation tuple).

    Walks the table breadth-first assigning permutations to elements;
    any inconsistency or non-bijectivity is a failure (returns False).
    """
    n = len(next(iter(images.values())))
    ident = tuple(range(n))
    assign = {tbl.identity: ident}
    frontier = [tbl.identity]
    while frontier:
        nxt = []
        for gel in frontier:
            for s in tbl.generators:
                h = tbl.images[s][gel]
                # right multiplication: word(h) = word(g) . s
                img = perm_compose(assign[gel], images[s])
                if h in assign:
                    if assign[h] != img:
                        return False
                else:
                    assign[h] = img
                    nxt.append(h)
        frontier = nxt
    if len(assign) != tbl.order:
        return False
    return len(set(assign.values())) == tbl.order


def element_words(tbl):
    """Shortest right-multiplication word from the identity to each
    element of the table, breadth-first in generator order."""
    words = {tbl.identity: ()}
    frontier = [tbl.identity]
    letters = [(s, 1) for s in tbl.generators]
    letters += [(s, -1) for s in tbl.generators]
    while frontier:
        nxt = []
        for g in frontier:
            for letter in letters:
                h = tbl.perm(letter)[g]
                if h not in words:
                    words[h] = words[g] + (letter,)
                    nxt.append(h)
        frontier = nxt
    invariant(len(words) == tbl.order, "generators must generate",
              witness={"reached": len(words), "order": tbl.order})
    return words


def regular_action(tbl):
    """The action of the group on itself by left multiplication.

    Left translations commute with the right multiplications defining
    the Cayley edges, so each is a graph automorphism; the action is
    free and transitive (see `check_regular_action`).
    """
    # h.g for g = p.x is (h.p).x: walk the breadth-first word tree, one
    # letter per element, parents first
    steps = []
    for g, word in element_words(tbl).items():
        if word:
            s, p = word[-1]
            steps.append((g, tbl.perm((s, -p))[g], word[-1]))
    perms = []
    for h in range(tbl.order):
        image = [None] * tbl.order
        image[tbl.identity] = h
        for g, parent, letter in steps:
            image[g] = tbl.perm(letter)[image[parent]]
        perms.append(dict(enumerate(image)))
    return tuple(perms)


def check_regular_action(tbl, graph):
    """Check the left-regular action is simply transitive by graph
    automorphisms; returns the action."""
    perms = regular_action(tbl)
    for h, perm in enumerate(perms):
        image = {edge_key(perm[u], perm[v]) for u, v in graph.edges}
        invariant(image == set(graph.edges),
                  "left translation must be a graph automorphism",
                  witness={"element": h})
        fixed = [g for g in range(tbl.order) if perm[g] == g]
        if h == tbl.identity:
            invariant(len(fixed) == tbl.order,
                      "the identity must translate trivially")
        else:
            invariant(not fixed, "non-identity translation must be free",
                      witness={"element": h})
    invariant({perm[tbl.identity] for perm in perms} == set(range(tbl.order)),
              "action must be transitive")
    return perms


# --------------------------------------------- planar discontinuous groups

def orbifold_euler_characteristic(p, m, s):
    """2 - 2p - s - sum(1 - 1/m_j), exactly."""
    return 2 - 2 * p - s - sum(1 - Fraction(1, mj) for mj in m)


def spherical_order(p, m, s):
    """The order of the group of the signature (p; m; s), read from the
    closed forms of the finite planar discontinuous groups, or None when
    the group is infinite.

    Boundary generators make the group a free product of the cyclic
    groups Z_{m_j} with s - 1 copies of Z, finite only for s = 1 and at
    most one cone point.  With s = 0 and p = 0, one cone point gives the
    trivial group, two give Z_gcd, and three give a dihedral group of
    order 2n or the tetrahedral, octahedral or icosahedral rotation
    group.  Every other signature is infinite.
    """
    m = tuple(sorted(m))
    if p:
        return None
    if s == 1 and len(m) < 2:
        return m[0] if m else 1
    if s:
        return None
    if len(m) < 2:
        return 1
    if len(m) == 2:
        return gcd(*m)
    if len(m) == 3 and m[:2] == (2, 2):
        return 2 * m[2]
    return {(2, 3, 3): 12, (2, 3, 4): 24, (2, 3, 5): 60}.get(m)


def rational_rank(rows):
    """The rank over Q of an integer matrix, by Gaussian elimination in
    `Fraction`s."""
    rows = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        top = rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                f = rows[i][c] / top[c]
                rows[i] = [x - f * y for x, y in zip(rows[i], top)]
        rank += 1
    return rank


def reference_coset_enumerate(pr, limit=DEFAULT_COSET_LIMIT):
    """`cayley.coset_enumerate` as it was before its scan was inlined:
    the same HLT definitions and coincidences, through small helper
    closures over a table of rows and with every relator spelled out in
    full.  The package must give the identical GroupTable, or an
    Overflow with the identical message and witness."""
    if limit < 1:
        raise MalformedInput("limit must be positive", witness=limit)
    signature = surface_signature(pr)
    if signature is not None:
        num, den = euler_characteristic(*signature)
        if num <= 0:
            raise Overflow("group is infinite", witness={
                "limit": limit,
                "euler_characteristic": (str(num) if den == 1
                                         else "%d/%d" % (num, den))})
    rank = free_abelian_rank(pr)
    if rank:
        raise Overflow("group is infinite",
                       witness={"free_abelian_rank": rank, "limit": limit})
    gens = pr.generators
    nsym = 2 * len(gens)
    code = {}
    for i, s in enumerate(gens):
        code[(s, 1)] = 2 * i
        code[(s, -1)] = 2 * i + 1
    # a relator that is a power w^n, n >= 2, of its primitive root w
    # carries w and the set of cosets known to close it (see the scan
    # below); other relators carry None for that set
    relators = []
    for w, n in pr.relators:
        root = [code[l] for l in w]
        for d in range(1, len(root)):
            if len(root) % d == 0 and root == root[:d] * (len(root) // d):
                root, n = root[:d], n * (len(root) // d)
                break
        word = root * n
        relators.append((tuple(word[:-1]), word[-1], tuple(root),
                         set() if n >= 2 else None))
    closed_sets = [closed for *_, closed in relators if closed is not None]

    cap = 2 * limit + 32
    # table[a][s] is a coset, possibly one merged away since it was
    # written; parent[a] == a exactly when coset a is live
    table = [[None] * nsym]
    parent = [0]

    def find(a):
        root = a
        while parent[root] != root:
            root = parent[root]
        while parent[a] != root:
            parent[a], a = root, parent[a]
        return root

    def entry(a, s):
        v = table[a][s]
        if v is not None and parent[v] != v:
            v = table[a][s] = find(v)
        return v

    pending = []

    def set_entry(a, s, b):
        table[a][s] = b
        back = entry(b, s ^ 1)
        if back is None:
            table[b][s ^ 1] = a
        elif back != a:
            pending.append((back, a))

    def define(a, s):
        # a new row has no entries, so no coincidence can arise here
        b = len(table)
        if b >= cap:
            raise Overflow("coset limit exceeded",
                           witness={"limit": limit, "defined": b})
        row = [None] * nsym
        row[s ^ 1] = a
        table.append(row)
        parent.append(b)
        table[a][s] = b
        return b

    def merge_queue():
        while pending:
            a, b = pending.pop()
            a, b = find(a), find(b)
            if a == b:
                continue
            if a > b:
                a, b = b, a
            parent[b] = a
            for closed in closed_sets:
                if b in closed:
                    closed.add(a)
            row = table[b]
            table[b] = [None] * nsym
            for s in range(nsym):
                v = row[s]
                if v is None:
                    continue
                v = find(v)
                u = entry(a, s)
                if u is None:
                    set_entry(a, s, v)
                elif u != v:
                    pending.append((u, v))

    # HLT: scan every relator from each live coset in turn, defining
    # cosets along it; no merge happens mid-scan, so the scan reads the
    # table directly and resolves only entries that point at a coset
    # merged away by an earlier coincidence.
    #
    # A scan of a power relator w^n that closes with no coincidence
    # leaves a closed walk: every coset c at a w-boundary of it has
    # c.w^n = c in the table.  Merging never erases a live coset's entry
    # and hands a merged coset's entries to its survivor, so a live
    # coset c keeps c.w^n = c through any later coincidence, and the
    # survivor of a merge inherits it from the coset merged into it.  A
    # scan of w^n from c would then define nothing and close where it
    # began; it is skipped, and definitions and coincidences keep their
    # order.
    alpha = 0
    while alpha < len(table):
        if parent[alpha] != alpha:
            alpha += 1
            continue
        for body, last, root, closed in relators:
            if closed is not None and alpha in closed:
                continue
            cur = alpha
            for s in body:
                row = table[cur]
                nxt = row[s]
                if nxt is None:
                    nxt = define(cur, s)
                elif parent[nxt] != nxt:
                    nxt = row[s] = find(nxt)
                cur = nxt
            t = entry(cur, last)
            if t is None:
                set_entry(cur, last, alpha)
            elif t != alpha:
                pending.append((t, alpha))
            if pending:
                merge_queue()
                if parent[alpha] != alpha:
                    break
            elif closed is not None:
                cur = alpha
                while True:
                    closed.add(cur)
                    for s in root:
                        cur = table[cur][s]
                    if cur == alpha:
                        break
        else:
            row = table[alpha]
            for s in range(nsym):
                if row[s] is None:
                    define(alpha, s)
        alpha += 1

    live = [a for a in range(len(table)) if parent[a] == a]
    if len(live) > limit:
        raise Overflow("group order exceeds limit",
                       witness={"limit": limit, "order": len(live)})

    # breadth-first standardization from the identity coset
    label = {0: 0}
    order_of = [0]
    for a in order_of:
        for s in range(nsym):
            b = entry(a, s)
            invariant(b is not None, "finished table must be complete",
                      witness={"coset": label[a]})
            if b not in label:
                label[b] = len(order_of)
                order_of.append(b)
    invariant(len(order_of) == len(live), "table must be connected",
              witness={"reached": len(order_of), "live": len(live)})

    images = {s: [label[entry(a, 2 * i)] for a in order_of]
              for i, s in enumerate(gens)}
    tbl = GroupTable(len(live), gens, images)
    check_relators(tbl, pr)
    return tbl


def relator_words(pr):
    """All defining relators w^n of pr, expanded to plain words."""
    return tuple(w * n for w, n in pr.relators)


def exponent_sums(pr):
    """One row per relator: how often each generator occurs in it,
    inverses counting -1, read off the expanded relator words."""
    rows = []
    for word in relator_words(pr):
        row = dict.fromkeys(pr.generators, 0)
        for name, sign in word:
            row[name] += sign
        rows.append(list(row.values()))
    return rows


# ------------------------------------------------------- serialization

def jsonable(x):
    """Recursively coerce pipeline values into JSON-representable ones:
    the coercions `serialize.dumps` makes, for the stdlib to encode."""
    if isinstance(x, dict):
        return {str(k): jsonable(v) for k, v in sorted(x.items(), key=lambda kv: str(kv[0]))}
    if isinstance(x, (set, frozenset)):
        return [jsonable(v) for v in sorted(x, key=repr)]
    if isinstance(x, (list, tuple)):
        return [jsonable(v) for v in x]
    if isinstance(x, (str, int, float, bool)) or x is None:
        return x
    if hasattr(x, "vertices") and hasattr(x, "edges"):  # a graph
        return {"vertices": list(x.vertices),
                "edges": [list(e) for e in x.edges]}
    return repr(x)


# ------------------------------------------------- homeomorphic reduction

def restart_reduction(g):
    """(reduced graph, walks) of `graph.homeomorphic_reduce` by its
    defining loop: after every suppression rescan the vertices from the
    least and suppress the first of degree 2.  A simple cycle comes back
    unchanged.  walks[e] lists the host walks e replaces: the surviving
    branch, oriented from min to max endpoint, then the branches that
    collapsed onto it, in collapse order."""
    if is_simple_cycle(g):
        return g, {e: (e,) for e in g.edges}

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
            joined = oriented(oriented(pu, u) + oriented(pw, v)[1:], min(u, w))
            k = edge_key(u, w)
            if w not in adj[u]:
                adj[u].add(w)
                adj[w].add(u)
                walks[k] = joined
                parallels.setdefault(k, []).extend(side)
            else:
                parallels.setdefault(k, []).extend([joined] + side)
            changed = True
            break
    es = tuple(sorted(walks))
    return (Graph(tuple(sorted(adj)), es),
            {e: (walks[e],) + tuple(parallels.get(e, ())) for e in es})


# ------------------------------------------------------- edge-list text

def format_edge_list(g):
    lines = ["vertices: %d" % (max(g.vertices) + 1)] if g.vertices else []
    lines += ["%d %d" % e for e in g.edges]
    return "\n".join(lines) + "\n"


# ------------------------------------------------------ random instances

def random_connected_graph(rng, max_vertices=14):
    """Random tree plus random extra edges; always connected."""
    n = rng.randint(1, max_vertices)
    vs = list(range(n))
    edges = set()
    for v in range(1, n):
        edges.add(edge_key(v, rng.randrange(v)))
    possible = [edge_key(u, v) for u, v in combinations(vs, 2)]
    extra = rng.randint(0, max(0, len(possible) // 3))
    for e in rng.sample(possible, min(extra, len(possible))):
        edges.add(e)
    return build_graph(vs, sorted(edges))


def random_maximal_planar_edges(rng, n, flips=None):
    """The edges of a random maximal planar graph on 0..n-1, n >= 4:
    K4, with each further vertex stacked into a random triangular face,
    and then `flips` (n by default) random edges flipped, each replaced
    by the other diagonal of its two faces when that is no edge yet,
    which keeps every face a triangle."""
    faces = [list(f) for f in combinations(range(4), 3)]
    for v in range(4, n):
        a, b, c = faces.pop(rng.randrange(len(faces)))
        faces += [[a, b, v], [b, c, v], [a, c, v]]
    edges = {edge_key(a, b) for f in faces for a, b in combinations(f, 2)}
    for _ in range(n if flips is None else flips):
        a, b = rng.choice(sorted(edges))
        c, d = [next(x for x in f if x not in (a, b)) for f in faces
                if a in f and b in f]
        if edge_key(c, d) in edges:
            continue
        edges.remove(edge_key(a, b))
        edges.add(edge_key(c, d))
        faces = [f for f in faces if not (a in f and b in f)]
        faces += [[a, c, d], [b, c, d]]
    return sorted(edges)


def _two_connected(g):
    """Independent 2-connectedness: one lowpoint block covering all
    edges, no articulation points, at least 3 vertices."""
    if len(g.vertices) < 3:
        return False
    blocks, arts = lowpoint_blocks(g)
    return not arts and len(blocks) == 1 and \
        frozenset(g.edges) in blocks


def random_two_connected_graph(rng, max_vertices=10):
    """Rejection-sample a 2-connected graph (cycle plus random chords)."""
    while True:
        n = rng.randint(3, max_vertices)
        vs = list(range(n))
        rng.shuffle(vs)
        edges = {edge_key(vs[i], vs[(i + 1) % n]) for i in range(n)}
        possible = [edge_key(u, v) for u, v in combinations(range(n), 2)]
        extra = rng.randint(0, len(possible) // 2)
        for e in rng.sample(possible, extra):
            edges.add(e)
        g = build_graph(range(n), sorted(edges))
        if _two_connected(g):
            return g


def chorded_cycle(rng, n=16, chords=9):
    """An n-cycle plus `chords` distinct random chords: 2-connected, and
    after suppressing its degree-2 vertices usually neither a cycle nor
    3-connected."""
    cycle = {edge_key(i, (i + 1) % n) for i in range(n)}
    possible = [e for e in combinations(range(n), 2) if e not in cycle]
    return build_graph(range(n), sorted(cycle | set(rng.sample(possible,
                                                               chords))))


GLUED_PIECES = (
    ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)),            # K4
    ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),             # two K4s
     (0, 4), (0, 5), (1, 4), (1, 5), (4, 5)),                    # on 0-1
    ((0, 2), (0, 3), (1, 2), (1, 3), (2, 3),                     # the same
     (0, 4), (0, 5), (1, 4), (1, 5), (4, 5)),                    # without 0-1
    ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4),                     # wheel
     (0, 5), (1, 5), (2, 5), (3, 5), (4, 5)),
)


def glued_blocks(rng, pieces=3):
    """A connected graph of minimum degree 3: a core (a random 2-connected
    graph or one of GLUED_PIECES) with up to `pieces` of GLUED_PIECES
    hung at single vertices, often at a vertex of a hinge pair.
    Minimum degree 3 means suppressing degree-2 vertices changes
    nothing, so relabelling the graph relabels its decomposition."""
    core = None
    while core is None and rng.random() < 0.5:
        g = random_two_connected_graph(rng, max_vertices=9)
        if min(g.degree(v) for v in g.vertices) >= 3:
            core = g.edges
    edges = set(core or rng.choice(GLUED_PIECES))
    n = 1 + max(x for e in edges for x in e)
    for _ in range(rng.randint(1, pieces)):
        piece = rng.choice(GLUED_PIECES)
        at = rng.choice(sorted({x for e in edges for x in e}))
        hang = rng.randrange(4)
        name = {v: at if v == hang else n + v for e in piece for v in e}
        edges.update(edge_key(name[u], name[v]) for u, v in piece)
        n += 6
    return build_graph(sorted({x for e in edges for x in e}), sorted(edges))


def caterpillar(rng, spine=12, legs=10):
    """A path of `spine` vertices with `legs` pendant vertices hung at
    random spine vertices, under random vertex names."""
    edges = [(i, i + 1) for i in range(spine - 1)]
    edges += [(rng.randrange(spine), spine + k) for k in range(legs)]
    name = list(range(spine + legs))
    rng.shuffle(name)
    return build_graph(name, [(name[u], name[v]) for u, v in edges])


def cactus(rng, cycles=8):
    """Cycles of 3 to 6 vertices and some pendant edges, each hung at a
    random vertex of what is built so far, under random vertex names:
    every edge lies on at most one cycle."""
    edges = [(i, (i + 1) % 4) for i in range(4)]
    n = 4
    for _ in range(cycles):
        at = rng.randrange(n)
        size = rng.choice((2, 3, 4, 5, 6))     # 2: a pendant edge
        ring = [at] + list(range(n, n + size - 1))
        n += size - 1
        edges += list(zip(ring, ring[1:]))
        if size > 2:
            edges.append((ring[-1], at))
    name = list(range(n))
    rng.shuffle(name)
    return build_graph(name, [(name[u], name[v]) for u, v in edges])


def random_path_family(rng, max_elements=60):
    """Nested family on a path host by recursive interval splitting.

    Intervals of at least two edges become separation sides (prefixes
    and suffixes get a one-vertex boundary, middles a hinge); splitting
    recurses until pieces are too small or a coin says stop.  The sides
    form a laminar set, so the family is nested by construction.
    """
    n_edges = rng.randint(4, 40)
    host = build_graph(range(n_edges + 1),
                       [(i, i + 1) for i in range(n_edges)])
    sides = []

    def interval_sep(lo, hi):
        # edges lo..hi inclusive
        ea = [(i, i + 1) for i in range(lo, hi + 1)]
        if len(ea) < 2 or len(ea) > n_edges - 2:
            return None
        va = set(range(lo, hi + 2))
        border = set()
        if lo > 0:
            border.add(lo)
        if hi < n_edges - 1:
            border.add(hi + 1)
        return make_separation(host, va, ea, border)

    def split(lo, hi):
        if hi - lo < 1 or len(sides) >= max_elements // 2 - 1:
            return
        mid = rng.randint(lo, hi - 1)
        for a, b in ((lo, mid), (mid + 1, hi)):
            sep = interval_sep(a, b)
            if sep is not None:
                sides.append(sep)
            if rng.random() < 0.8:
                split(a, b)

    split(0, n_edges - 1)
    if not sides:
        return random_path_family(rng, max_elements)
    uniq = {s.key: s for s in sides}
    return family_from_sides(host, list(uniq.values()))


def pairs_from_sides(sides):
    """Elements from representative sides: each side's pair, the lesser
    key first, deduped and ordered by that key.

    Suitable when all sides are distinct as subgraphs (hinge families);
    the cut-vertex families, whose twins are ordered by their place in
    the pairs, come from `b1_family`.
    """
    pairs = {}
    for s in sides:
        pair = sorted((s, separation_complement(s)), key=lambda t: t.key)
        pairs.setdefault(pair[0].key, pair)
    return [t for k in sorted(pairs) for t in pairs[k]]


def family_from_sides(host, sides):
    """The family of `pairs_from_sides`, built by `build_structure_tree`."""
    return build_structure_tree(host, pairs_from_sides(sides))


# ---------------------------------------------------------- command line
#
# The argparse parser the CLI used before it read its command lines
# itself, kept as the reference for `cli._read_argv`.

class _Help(Exception):
    """Carries the help text of ``-h`` back to `argparse_command_line`."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise MalformedInput("bad command line: %s" % message)

    def print_help(self, file=None):
        raise _Help(self.format_help())


def _build_parser():
    parser = _Parser(prog="planarblocks",
                     description="block/triblock decompositions, planar "
                                 "embeddings, symmetry, Cayley graphs")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, _, bound, _) in COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("input", help="input file (edge list, or a "
                                     "presentation for 'cayley')")
        p.add_argument("--format", choices=("json", "dot", "text"),
                       default="text")
        if bound is not None:
            what = "coset count" if name == "cayley" else \
                "automorphism search size"
            p.add_argument("--limit", type=int, default=bound,
                           help="%s bound (default %d)" % (what, bound))
        elif name == "triblocks":
            p.add_argument("--limit", type=int,
                           help="accepted and ignored: the decomposition "
                                "searches no automorphisms")
        if name in ("blocks", "triblocks"):
            p.add_argument("--per-component", action="store_true",
                           dest="per_component")
        if name == "blocks":
            p.add_argument("--reduce", action="store_true")
    return parser


_PARSER = _build_parser()


def argparse_command_line(argv):
    """("fields", dict), ("help", text) or ("error", message) of argv
    under the argparse reference parser."""
    try:
        return "fields", vars(_PARSER.parse_args(argv))
    except _Help as exc:
        return "help", exc.args[0]
    except MalformedInput as exc:
        return "error", str(exc)
