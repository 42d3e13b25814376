"""Automorphism groups, orbits, quotient graphs, and tree actions.

A group is held as strong generators along the base ``g.vertices``
(Sims 1970): the generators fixing the first i vertices generate the
pointwise stabiliser of those vertices, so the group order is the
product of the basic orbit lengths.  The search adds a generator only
for an orbit point the generators so far do not reach, and never lists
the group.  Orbits of vertices, edges and separations are closures
under the generators; the full element list is built only on request,
by the stabiliser checks.  Permutations are dicts vertex -> vertex over
the host's vertex set.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import NotAnAutomorphism, TooLarge
from .graph import Graph, edge_key
from .separation import make_separation

DEFAULT_AUT_BOUND = 12


def is_automorphism(g, perm):
    if sorted(perm) != list(g.vertices) or sorted(perm.values()) != list(g.vertices):
        return False
    return all(g.has_edge(perm[u], perm[v]) for u, v in g.edges)


def apply_to_edge(perm, e):
    return edge_key(perm[e[0]], perm[e[1]])


def apply_to_separation(a, perm):
    """Image of a separation under a host automorphism (same host)."""
    return make_separation(a.host,
                           {perm[v] for v in a.va},
                           {apply_to_edge(perm, e) for e in a.ea},
                           {perm[b] for b in a.boundary})


def compose(p, q):
    """p after q."""
    return {v: p[q[v]] for v in q}


def invert(p):
    return {w: v for v, w in p.items()}


def perm_key(g, perm):
    return tuple(perm[v] for v in g.vertices)


def _closure(start, perms, image, key=lambda x: x):
    """Everything reachable from start by applying perms: key -> item."""
    seen = {key(start): start}
    frontier = [start]
    while frontier:
        x = frontier.pop()
        for p in perms:
            y = image(x, p)
            k = key(y)
            if k not in seen:
                seen[k] = y
                frontier.append(y)
    return seen


@dataclass(frozen=True)
class AutGroup:
    host: Graph
    generators: tuple  # strong generators along host.vertices, lex order
    order: int

    def orbit_of_vertex(self, v):
        return frozenset(_closure(v, self.generators, lambda x, p: p[x]))

    def orbit_of_edge(self, e):
        return frozenset(_closure(e, self.generators,
                                  lambda x, p: apply_to_edge(p, x)))

    @cached_property
    def elements(self):
        """Every automorphism, identity first, sorted by perm_key.  Built
        by closing the generators, so it costs the group order."""
        ident = {v: v for v in self.host.vertices}
        found = _closure(ident, self.generators, lambda q, r: compose(r, q),
                         key=lambda p: perm_key(self.host, p))
        return tuple(found[k] for k in sorted(found))

    def stabilizer_of_vertex(self, v):
        return tuple(p for p in self.elements if p[v] == v)

    def is_free(self):
        """True iff no non-identity element fixes a vertex."""
        ident = {v: v for v in self.host.vertices}
        for p in self.elements:
            if p == ident:
                continue
            if any(p[v] == v for v in self.host.vertices):
                return False
        return True


def automorphism_group(g, max_vertices=DEFAULT_AUT_BOUND):
    """Strong generators of Aut(g) along the base g.vertices.

    Levels run from the last vertex to the first.  At level i, for each
    later vertex w of the same degree outside the orbit of vs[i] under
    the generators so far, one backtracking search looks for an
    automorphism fixing vs[:i] and sending vs[i] to w; the first found
    becomes a generator.  Candidates are tried in vertex order, so each
    generator is the lex-least element of its coset, and the list is the
    greedy generating subset of the lex-sorted element list.  The
    searches walk disjoint subtrees of the full search tree.  Hosts
    above the vertex bound are refused rather than risking an
    exponential blowup.
    """
    n = len(g.vertices)
    if n > max_vertices:
        raise TooLarge("automorphism search bound exceeded",
                       witness={"vertices": n, "bound": max_vertices})
    vs = g.vertices
    nbrs = {v: frozenset(g.neighbors(v)) for v in vs}
    gens = []
    order = 1
    for i in range(n - 1, -1, -1):
        orbit = _closure(vs[i], gens, lambda x, p: p[x])
        for w in vs[i + 1:]:
            if w in orbit:
                continue
            perm = _coset_leader(vs, nbrs, i, w)
            if perm is not None:
                gens.append(perm)
                orbit = _closure(vs[i], gens, lambda x, p: p[x])
        order *= len(orbit)
    return AutGroup(g, tuple(gens), order)


def _coset_leader(vs, nbrs, i, w):
    """The lex-least automorphism fixing vs[:i] and sending vs[i] to w,
    or None.  Vertices are mapped in order; an image must be unused, of
    equal degree, and adjacent to exactly the images of the already
    mapped neighbours."""
    perm = {u: u for u in vs[:i]}
    image = set(perm)

    def options(k, pool):
        want = {perm[u] for u in nbrs[vs[k]] if u in perm}
        d = len(nbrs[vs[k]])
        return iter([x for x in pool if x not in image
                     and len(nbrs[x]) == d and nbrs[x] & image == want])

    stack = [options(i, (w,))]   # stack[j] holds the images left for vs[i + j]
    while stack:
        v = vs[i + len(stack) - 1]
        if v in perm:
            image.discard(perm.pop(v))
        x = next(stack[-1], None)
        if x is None:
            stack.pop()
            continue
        perm[v] = x
        image.add(x)
        if len(perm) == len(vs):
            return perm
        stack.append(options(i + len(stack), vs))
    return None


def orbit_of_separation(a, perms):
    """Field-distinct images of a under the group generated by perms,
    sorted; every image is validated as a separation."""
    seen = _closure(a, perms, apply_to_separation, key=lambda s: s.sort_key())
    return [seen[k] for k in sorted(seen)]


@dataclass(frozen=True)
class QuotientGraph:
    host: Graph
    vertex_orbits: tuple  # sorted tuples of host vertices
    edge_orbits: tuple    # sorted tuples of host edges
    edges: tuple          # (orbit index, orbit index, multiplicity), i <= j

    @property
    def vertex_count(self):
        return len(self.vertex_orbits)


def quotient_graph(g, group):
    """G\\X: vertex orbits joined by edge orbits, loops and multiplicities
    kept explicit since quotients need not be simple."""
    vorbs = sorted({tuple(sorted(group.orbit_of_vertex(v))) for v in g.vertices})
    vindex = {}
    for i, orb in enumerate(vorbs):
        for v in orb:
            vindex[v] = i
    eorbs = sorted({tuple(sorted(group.orbit_of_edge(e))) for e in g.edges})
    counts = {}
    for orb in eorbs:
        u, v = orb[0]
        key = tuple(sorted((vindex[u], vindex[v])))
        counts[key] = counts.get(key, 0) + 1
    edges = tuple((i, j, m) for (i, j), m in sorted(counts.items()))
    return QuotientGraph(g, tuple(vorbs), tuple(eorbs), edges)


def tree_action_check(tree, group):
    """Check that the group permutes the family, induces tree
    automorphisms, and that vertex stabilizers fix their torsos.

    Returns {"ok": bool, "violations": [...]}; never raises.
    """
    fam = tree.family
    violations = []
    index = {}
    for i, a in enumerate(fam.elements):
        index[(a.sort_key(), fam.rank[i])] = i
    for gi, perm in enumerate(group.generators):
        image = {}
        for i, a in enumerate(fam.elements):
            img = apply_to_separation(a, perm)
            j = index.get((img.sort_key(), fam.rank[i]))
            if j is None:
                violations.append({
                    "kind": "missing-image",
                    "generator": gi,
                    "element": i,
                    "image": {"va": sorted(img.va), "ea": sorted(img.ea)},
                })
                continue
            image[i] = j
        if len(image) < len(fam.elements):
            continue
        for i in range(len(fam.elements)):
            if image[fam.comp[i]] != fam.comp[image[i]]:
                violations.append({"kind": "complement-not-respected",
                                   "generator": gi, "element": i})
        cmap = {}
        ok = True
        for ci, cls in enumerate(tree.classes):
            imgs = {tree.class_of[image[i]] for i in cls}
            if len(imgs) > 1:
                violations.append({"kind": "class-split",
                                   "generator": gi, "class": ci})
                ok = False
                continue
            if imgs:
                cmap[ci] = imgs.pop()
        if ok and cmap:
            before = {tuple(sorted((tree.class_of[i], tree.class_of[j])))
                      for i, j in tree.pairs}
            after = {tuple(sorted((cmap[a], cmap[b]))) for a, b in before
                     if a in cmap and b in cmap}
            if before != after:
                violations.append({"kind": "not-a-tree-automorphism",
                                   "generator": gi})
    for ci in range(len(tree.classes)):
        reg = tree.region(ci)
        for p in group.elements:
            if not tree.classes[ci]:
                continue
            stays = all(
                index.get((apply_to_separation(fam.elements[i], p).sort_key(),
                           fam.rank[i])) in tree.classes[ci]
                for i in tree.classes[ci])
            if stays:
                mapped_vs = {p[v] for v in reg.vertices}
                mapped_es = {apply_to_edge(p, e) for e in reg.edges}
                if mapped_vs != set(reg.vertices) or mapped_es != set(reg.edges):
                    violations.append({"kind": "stabilizer-moves-torso",
                                       "class": ci})
                    break
    return {"ok": not violations, "violations": violations}


def check_orbit_stabilizer(g, group):
    """Assert |orbit(v)| * |stab(v)| = |G| for every vertex."""
    for v in g.vertices:
        if len(group.orbit_of_vertex(v)) * len(group.stabilizer_of_vertex(v)) \
                != group.order:
            raise NotAnAutomorphism("orbit-stabilizer identity fails",
                                    witness=v)
    return True
