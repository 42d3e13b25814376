"""Automorphism groups, orbits, quotient graphs, and tree actions.

A group is held only as strong generators along a base (Sims 1970):
the generators fixing the first i base vertices generate the pointwise
stabiliser of those vertices, so the group order is the product of the
basic orbit lengths.  The search adds a generator only for an orbit
point the generators so far do not reach, and never lists the group.
``automorphism_group`` uses the base ``g.vertices``; the stabiliser of
a vertex v is the same search along a base that starts at v, read from
its second level: a stabiliser chain along another base (Seress,
*Permutation Group Algorithms*, 2003).  Orbits of
vertices and edges are closures under the generators, and the tree
action is checked generator by generator.  Permutations are
dicts vertex -> vertex over the host's vertex set.
"""

from collections import Counter

from .errors import DEFAULT_AUT_BOUND, NotAnAutomorphism, TooLarge
from .graph import edge_key
from .separation import Separation


def apply_to_edge(perm, e):
    return edge_key(perm[e[0]], perm[e[1]])


def apply_to_separation(a, perm):
    """Image of a separation under a permutation of the host's vertices,
    its masks moved bit by bit, or None when the image of one of its
    edges is not a host edge.  The image is not checked as a separation:
    an automorphism maps separations to separations."""
    ix = a.host.index
    em = 0
    for e in ix.edges_of(a.emask):
        bit = ix.edge_bit.get(apply_to_edge(perm, e))
        if bit is None:
            return None
        em |= bit

    def moved(mask):
        return ix.vertex_mask(map(perm.__getitem__, ix.vertices_of(mask)))
    return Separation(a.host, moved(a.vmask), em, moved(a.bmask))


def _closure(start, perms, image):
    """The set of everything reachable from start by applying perms."""
    seen = {start}
    frontier = [start]
    while frontier:
        x = frontier.pop()
        for p in perms:
            y = image(x, p)
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return seen


class AutGroup:
    def __init__(self, host, generators, order):
        self.host = host
        # strong generators along the search base, lex order
        self.generators = generators
        self.order = order

    def orbit_of_vertex(self, v):
        return frozenset(_closure(v, self.generators, lambda x, p: p[x]))

    def orbit_of_edge(self, e):
        return frozenset(_closure(e, self.generators,
                                  lambda x, p: apply_to_edge(p, x)))

    def orbits(self):
        """(vertex orbits, edge orbits) of the host, each orbit a sorted
        tuple and each list sorted."""
        g = self.host
        return (sorted({tuple(sorted(self.orbit_of_vertex(v)))
                        for v in g.vertices}),
                sorted({tuple(sorted(self.orbit_of_edge(e))) for e in g.edges}))

    def stabilizer_of_vertex(self, v):
        """The stabiliser of v, searched along the base v, then the other
        vertices in order, from the level after v."""
        g = self.host
        base = (v,) + tuple(u for u in g.vertices if u != v)
        return AutGroup(g, *_strong_generators(g, base, 1))


def automorphism_group(g, max_vertices=DEFAULT_AUT_BOUND):
    """Strong generators of Aut(g) along the base g.vertices.

    Hosts above the vertex bound are refused rather than risking an
    exponential blowup.
    """
    n = len(g.vertices)
    if n > max_vertices:
        raise TooLarge("automorphism search bound exceeded",
                       witness={"vertices": n, "bound": max_vertices})
    return AutGroup(g, *_strong_generators(g, g.vertices, 0))


def _strong_generators(g, base, first):
    """(generators, order) of the pointwise stabiliser of base[:first].

    Levels run from the last base vertex to base[first].  At level i,
    for each later vertex w outside the orbit of base[i] under the
    generators so far, one backtracking search looks for an automorphism
    fixing base[:i] and sending base[i] to w; the first found becomes a
    generator.  Candidates are tried in base order, so each generator is
    the lex-least element of its coset, and the list is the greedy
    generating subset of the element list sorted by images of the base.
    The searches walk disjoint subtrees of the full search tree.  The
    order is the product of the basic orbit lengths.
    """
    nbrs = {v: frozenset(g.neighbors(v)) for v in base}
    gens = []
    order = 1
    for i in range(len(base) - 1, first - 1, -1):
        orbit = _closure(base[i], gens, lambda x, p: p[x])
        for w in base[i + 1:]:
            if w in orbit:
                continue
            perm = _coset_leader(base, nbrs, i, w)
            if perm is not None:
                gens.append(perm)
                orbit = _closure(base[i], gens, lambda x, p: p[x])
        order *= len(orbit)
    return tuple(gens), order


def _coset_leader(base, nbrs, i, w):
    """The lex-least automorphism fixing base[:i] and sending base[i] to
    w, or None.  Vertices are mapped in base order; an image must be
    unused, of equal degree, and adjacent to exactly the images of the
    already mapped neighbours."""
    perm = {u: u for u in base[:i]}
    image = set(perm)

    def options(k, pool):
        want = {perm[u] for u in nbrs[base[k]] if u in perm}
        d = len(nbrs[base[k]])
        return iter([x for x in pool if x not in image
                     and len(nbrs[x]) == d and nbrs[x] & image == want])

    stack = [options(i, (w,))]  # stack[j]: images left for base[i + j]
    while stack:
        v = base[i + len(stack) - 1]
        if v in perm:
            image.discard(perm.pop(v))
        x = next(stack[-1], None)
        if x is None:
            stack.pop()
            continue
        perm[v] = x
        image.add(x)
        if len(perm) == len(base):
            return perm
        stack.append(options(i + len(stack), base))
    return None


class QuotientGraph:
    def __init__(self, host, vertex_orbits, edge_orbits, edges):
        self.host = host
        self.vertex_orbits = vertex_orbits  # sorted tuples of host vertices
        self.edge_orbits = edge_orbits      # sorted tuples of host edges
        # (orbit index, orbit index, multiplicity), i <= j
        self.edges = edges

    @property
    def vertex_count(self):
        return len(self.vertex_orbits)


def quotient_graph(g, group):
    """G\\X: vertex orbits joined by edge orbits, loops and multiplicities
    kept explicit since quotients need not be simple."""
    vorbs, eorbs = group.orbits()
    vindex = {v: i for i, orb in enumerate(vorbs) for v in orb}
    counts = Counter(edge_key(vindex[u], vindex[v]) for (u, v), *_ in eorbs)
    edges = tuple((i, j, m) for (i, j), m in sorted(counts.items()))
    return QuotientGraph(g, tuple(vorbs), tuple(eorbs), edges)


def tree_action_check(family, group):
    """Check that the group permutes the family, induces tree
    automorphisms, and that vertex stabilizers fix their torsos.

    Everything is checked on the generators.  Each generator must map
    the region of every class onto the region of the image class; as
    the generators generate the group, every element fixing a class then
    fixes its region.

    Returns {"ok": bool, "violations": [...]}; never raises, not even
    for a generator that is a permutation of the host's vertices but no
    automorphism.
    """
    violations = []
    index = {(a, i & 1): i for i, a in enumerate(family.elements)}
    for gi, perm in enumerate(group.generators):
        image = {}
        for i, a in enumerate(family.elements):
            j = index.get((apply_to_separation(a, perm), i & 1))
            if j is None:
                violations.append({
                    "kind": "missing-image",
                    "generator": gi,
                    "element": i,
                    "image": {"va": sorted(perm[v] for v in a.va),
                              "ea": sorted(apply_to_edge(perm, e)
                                           for e in a.ea)},
                })
                continue
            image[i] = j
        if len(image) < len(family.elements):
            continue
        for i in range(len(family.elements)):
            if image[i ^ 1] != image[i] ^ 1:
                violations.append({"kind": "complement-not-respected",
                                   "generator": gi, "element": i})
        cmap = {}
        ok = True
        for ci, cls in enumerate(family.classes):
            imgs = {family.class_of[image[i]] for i in cls}
            if len(imgs) > 1:
                violations.append({"kind": "class-split",
                                   "generator": gi, "class": ci})
                ok = False
                continue
            if imgs:
                cmap[ci] = imgs.pop()
        for ci, cj in cmap.items():
            reg, target = family.regions[ci], family.regions[cj]
            if {perm[v] for v in reg.vertices} != target.vertex_set or \
                    {apply_to_edge(perm, e) for e in reg.edges} \
                    != target.edge_set:
                violations.append({"kind": "stabilizer-moves-torso",
                                   "generator": gi, "class": ci})
        if ok and cmap:
            before = set(family.edges)
            after = {tuple(sorted((cmap[a], cmap[b]))) for a, b in before
                     if a in cmap and b in cmap}
            if before != after:
                violations.append({"kind": "not-a-tree-automorphism",
                                   "generator": gi})
    return {"ok": not violations, "violations": violations}


def check_orbit_stabilizer(g, group):
    """Assert |orbit(v)| * |stab(v)| = |G| for every vertex."""
    for v in g.vertices:
        if len(group.orbit_of_vertex(v)) \
                * group.stabilizer_of_vertex(v).order != group.order:
            raise NotAnAutomorphism("orbit-stabilizer identity fails",
                                    witness=v)
    return True
