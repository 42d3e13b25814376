"""Automorphism groups, orbits, quotient graphs, and tree actions.

A group is held only as strong generators along a base (Sims 1970):
the generators fixing the first i base vertices generate the pointwise
stabiliser of those vertices, so the group order is the product of the
basic orbit lengths.  The search adds a generator only for an orbit
point the generators so far do not reach, and never lists the group.
``automorphism_group`` uses the base ``g.vertices``; the stabiliser of
a vertex v is the same search along a base that starts at v, read from
its second level: a stabiliser chain along another base (Seress,
*Permutation Group Algorithms*, 2003).  Orbits of vertices and edges
are closures under the generators, and the tree action is checked
generator by generator, on regions and tree edges.  Permutations are
dicts vertex -> vertex over the host's vertex set.
"""

from collections import Counter

from .errors import DEFAULT_AUT_BOUND, NotAnAutomorphism, TooLarge
from .graph import edge_key


def apply_to_edge(perm, e):
    return edge_key(perm[e[0]], perm[e[1]])


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
    """Check that the group permutes the family, inducing automorphisms
    of its tree that map each class's region onto the region of its
    image.

    Each generator is mapped over the regions and the tree edges, and a
    side is spelled out only for a violation: the image of a class is
    the class whose region is the image of its region
    (`_class_images`), and each element must go to the element of its
    parity on the image of its tree edge, so that the sides, the
    regions beyond the edges, go to sides, with no two classes going to
    one.  As the generators generate the group, every element fixing a
    class then fixes its region.

    Returns {"ok": bool, "violations": [...]}; never raises, not even
    for a generator that is a permutation of the host's vertices but no
    automorphism.
    """
    classes, regions, class_of = family.classes, family.regions, \
        family.class_of
    holder = {}     # host edge -> the class whose region holds it
    bare = {}       # vertices of a region without edges -> its classes
    for ci, reg in enumerate(regions):
        if reg.edges:
            holder.update(dict.fromkeys(reg.edges, ci))
        else:
            bare.setdefault(frozenset(reg.vertices), []).append(ci)
    near = [set() for _ in classes]
    for a, b in family.edges:
        near[a].add(b)
        near[b].add(a)
    element_of = {(class_of[i], class_of[i ^ 1]): i
                  for i in range(len(class_of))}
    violations = []
    for gi, perm in enumerate(group.generators):
        image = _class_images(regions, holder, bare, near, perm)
        for i in range(len(class_of)):
            j = element_of.get((image[class_of[i]], image[class_of[i ^ 1]]))
            if j is None or (i ^ j) & 1:
                side = family.side_regions(i)
                violations.append({
                    "kind": "missing-image",
                    "generator": gi,
                    "element": i,
                    "image": {"va": sorted({perm[v] for r in side
                                            for v in r.vertices}),
                              "ea": sorted(apply_to_edge(perm, e)
                                           for r in side for e in r.edges)},
                })
        if len(set(image) - {None}) < len(image) - image.count(None):
            violations.append({"kind": "not-a-tree-automorphism",
                               "generator": gi})
    return {"ok": not violations, "violations": violations}


def _class_images(regions, holder, bare, near, perm):
    """The image of each class under perm, or None: the class whose
    region is the image of its region, found by one of its edges, or
    for a region without edges, of those on its vertices' images the
    only one next to the images found of its neighbours."""
    image = [None] * len(regions)
    open_ = []      # (class, candidates) left to its neighbours
    for ci, reg in enumerate(regions):
        if reg.edges:
            cj = holder.get(apply_to_edge(perm, reg.edges[0]))
            if cj is not None and regions[cj].edge_set == {
                    apply_to_edge(perm, e) for e in reg.edges} \
                    and regions[cj].vertex_set == {
                    perm[v] for v in reg.vertices}:
                image[ci] = cj
            continue
        options = bare.get(frozenset(perm[v] for v in reg.vertices), ())
        if len(options) == 1:
            image[ci] = options[0]
        elif options:
            open_.append((ci, options))
    while open_:
        left = []
        for ci, options in open_:
            fixed = [image[x] for x in near[ci] if image[x] is not None]
            fit = [cj for cj in options if near[cj].issuperset(fixed)]
            if fixed and len(fit) == 1:
                image[ci] = fit[0]
            else:
                left.append((ci, options))
        if len(left) == len(open_):
            break
        open_ = left
    return image


def check_orbit_stabilizer(g, group):
    """Assert |orbit(v)| * |stab(v)| = |G| for every vertex."""
    for v in g.vertices:
        if len(group.orbit_of_vertex(v)) \
                * group.stabilizer_of_vertex(v).order != group.order:
            raise NotAnAutomorphism("orbit-stabilizer identity fails",
                                    witness=v)
    return True
