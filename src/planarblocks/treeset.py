"""Structure trees of nested separation families.

A family is a finite set of separations closed under complementation
such that every pair (A, B) satisfies at least one of A<=B, A<=B*,
A*<=B, A*<=B*.  It lists complements in adjacent pairs: element i ^ 1
is the complement of element i.  Elements are compared by subgraph
containment; two distinct elements with identical subgraphs (which
happens when a cut vertex leaves exactly two components, so a minimal
element coincides with the complement of its twin) are ordered by their
place in the pairs, an element at an even index below a twin at an odd
one, so that the order stays a strict partial order reversed by
complementation.

Two elements are equivalent, A ~ B, when A < B* with nothing of the
family strictly between (and A ~ A), so class(A) is A plus the
complements of the elements covering A.  The tree has the equivalence
classes as vertices and one edge per complement pair; the directed edge
of A runs from class(A*) to class(A), so A <= B exactly when the edge
of A lies on the directed path toward the edge of B.  Each class holds
its region, the intersection of the complements of its members.  A side
is the union of the regions beyond its edge, and adjacent regions meet
exactly in their edge's boundary: the regions are the pieces of a tree
decomposition of the host.

A family and its tree are one record, a `NestedFamily`: its host, its
elements, its classes with their regions, and the tree edges and cut
vertices read off them, with no order stored and nothing pointing back
at the record.  Two producers make one.  The block-cut tree reads its
classes off a lowpoint DFS (`blocks1.b1_family`).  Any other family,
such as the combined hinge family, goes through `build_structure_tree`,
which reads them off the containment of the sides.

Either way one certificate, `certify_tree`, checks the tree in one
linear pass over its regions and sides, and recomputes neither the
order nor the classes.
"""

from functools import reduce
from itertools import repeat
from operator import or_

from .errors import MalformedInput, NotNested, invariant
from .graph import Graph, edge_key, set_bits


class NestedFamily:
    """A nested family and its structure tree, one record: the elements
    in complement pairs, the classes (the tree's vertices, numbered by
    least member) with their regions, and what is read off them once:
    each element's class, the tree edges as sorted class pairs, and the
    vertex of each cut-point class, whose region is that vertex alone.
    No order is computed; `certify_tree` checks the tree."""

    def __init__(self, host, elements, classes, regions):
        self.host = host
        self.elements = tuple(elements)
        self.classes = classes = tuple(classes)
        self.regions = regions = tuple(regions)
        self.vertex_count = len(classes)
        lookup = [None] * len(self.elements)
        for ci, cls in enumerate(classes):
            for i in cls:
                lookup[i] = ci
        self.class_of = tuple(lookup)
        self.edges = tuple(sorted({edge_key(lookup[i], lookup[i + 1])
                                   for i in range(0, len(lookup), 2)}))
        self.cut_classes = {
            ci: reg.vertices[0] for ci, (cls, reg)
            in enumerate(zip(classes, regions))
            if cls and not reg.edges and len(reg.vertices) == 1}


def _regions(host, elements, classes, known):
    """Each class's region: the intersection of the complements of its
    members, the whole host for the empty class.  A region whose masks
    key a graph of `known` is that graph object."""
    ix = host.index
    out = []
    for cls in classes:
        vm, em = ix.all_vertices, ix.all_edges
        for i in cls:
            other = elements[i ^ 1]
            vm &= other.vmask
            em &= other.emask
        out.append(known.get((vm, em))
                   or Graph(ix.vertices_of(vm), ix.edges_of(em)))
    return tuple(out)


def build_structure_tree(host, elements, known=None):
    """The family of elements given in complement pairs, with its
    structure tree read off the containment of its sides.  `known` maps
    the (vertex mask, edge mask) of a subgraph of the host to a graph
    already built for it, such as a block, which is then reused as the
    region with those masks.

    Of each pair the side without host edge 0 points away from the
    root class.  The sides are placed smallest first, and of two twins
    the even one first, so each side's parent is the first side placed
    after it that meets it.  Each edge keeps the first side to hold it,
    and `top` leads from there to the largest side placed so far above
    it.  A side meets earlier sides only through those tops, which are
    disjoint: it takes each as a child, or crosses one it does not hold
    whole.  Each side becomes a child once and each edge gets its first
    side once.  class(X) is then X* plus the children of X, and the root
    class the sides below nothing.

    Sides are compared only through the edges they share, so the
    elements must be separations: the neighbours and edges of a side's
    interior lie in it and make up its edges, up to the edge joining a
    hinge, and each boundary vertex has edges on both sides.  Every
    vertex of a side then has an edge in it, and the interiors of two
    sides without a common edge are disjoint.  A crossing of such elements
    raises NotNested.  Hand-built elements that fail those conditions
    are outside this contract: a crossing between sides without a
    common edge goes unchecked.
    """
    elements = tuple(elements)
    n = len(elements)
    if n % 2:
        raise MalformedInput("family must list complements in pairs",
                             witness=n)
    ix = host.index
    for i, a in enumerate(elements):
        if a.host is not host and a.host != host:
            raise MalformedInput("element lives on another host", witness=i)
        b = elements[i ^ 1]
        if (b.bmask != a.bmask or b.emask != ix.all_edges & ~a.emask
                or b.vmask != ix.all_vertices & ~a.vmask | a.bmask):
            raise NotNested("paired element is not the complement",
                            witness={"element": i, "partner": i ^ 1})
    # k, or k + 1 when element k holds edge 0
    sides = sorted((k | elements[k].emask & 1 for k in range(0, n, 2)),
                   key=lambda i: (elements[i].emask.bit_count(),
                                  elements[i].vmask.bit_count(), i & 1))
    first = [-1] * len(ix.edges)    # place of the first side holding an edge
    top = list(range(len(sides)))   # toward the largest side placed above
    members = [[i ^ 1] for i in sides] + [[]]   # the root's class last
    taken = 0
    for p, i in enumerate(sides):
        s = elements[i]
        inside = s.emask & taken
        while inside:
            c = first[(inside & -inside).bit_length() - 1]
            while top[c] != c:
                top[c] = c = top[top[c]]
            t = elements[sides[c]]
            # twins are nested only as an even side below an odd one
            if (t.emask & ~s.emask or t.vmask & ~s.vmask
                    or t.vmask == s.vmask and t.emask == s.emask
                    and (i ^ sides[c]) & 1 == 0):
                raise NotNested("pair fails the nesting condition",
                                witness={"a": list(t.key), "b": list(s.key)})
            top[c] = p
            members[p].append(sides[c])
            inside &= ~t.emask
        for k in set_bits(s.emask & ~taken):
            first[k] = p
        taken |= s.emask
    members[-1] = [i for p, i in enumerate(sides) if top[p] == p]
    # only the root's class of the empty family is empty
    classes = sorted(map(frozenset, members), key=lambda c: min(c, default=0))
    return NestedFamily(host, elements, classes,
                        _regions(host, elements, classes, known or {}))


def certify_tree(family):
    """Check the structure tree of a family and its regions in one linear
    pass, raising InvariantViolated (also under ``python -O``) at the
    first fault.

    1. The tree has one edge per complement pair and is connected.
    2. The regions are subgraphs of the host that partition its edges
       and cover its vertices; adjacent regions meet exactly in their
       edge's boundary, of one or two vertices; and the regions have
       |V| + sum |B_e| vertices in all, the sum over the tree edges e.
    3. Every side equals the OR of the regions beyond its edge, built
       bottom-up, and its partner is its exact complement.
    4. Every side is a separation, read from bottom-up reach masks: the
       neighbours and edges of its interior lie in it and make up its
       edges, up to the edge joining a hinge; each boundary vertex has
       edges on both sides; and a hinge side is neither a single edge
       nor the host minus one edge.  No other code in the package
       judges whether a side is a separation.

    By the count in 2, the regions holding a vertex span one tree edge
    fewer than there are of them, so they form a subtree; the interior
    of a side is then the vertices whose subtree's top lies beyond its
    edge, as 4 reads it, and each region is the intersection of the
    complements of its class's members.  Together these imply nesting
    and that the order is the tree-path order, twins included.  Two
    sides are unions of the regions of subtrees, so nested or disjoint
    subtrees, and regions on the two sides of an edge share only its
    boundary, so the sides are nested as their edges lie on the tree's
    directed paths.  A complement pair needs only one side checked
    under 4: the other inherits the conditions.  The messages call the
    regions blocks and a boundary's vertices cut vertices, as the
    block-cut tree does.
    """
    host, elements, regions = family.host, family.elements, family.regions
    classes, class_of = family.classes, family.class_of
    ix = host.index
    n = len(ix.vertices)
    k = len(classes)
    invariant(len(elements) == 2 * len(family.edges) == 2 * (k - 1),
              "tree edges are not one per complement pair",
              {"vertices": k, "edges": len(family.edges),
               "elements": len(elements)})
    if not elements:
        invariant(regions[0].vertex_set == host.vertex_set
                  and regions[0].edge_set == host.edge_set,
                  "the one block is not the host")
        return
    # 1: rooted at class 0 in BFS order; element into[y] of the parent's
    # class has its edge into y, and its side is the subtree at y
    into = [None] * k
    order = [0]
    for x in order:
        for b in classes[x]:
            y = class_of[b ^ 1]
            if y and into[y] is None:
                into[y] = b
                order.append(y)
    invariant(len(order) == k, "tree is disconnected")
    # 2: the regions, each with the stars of the vertices it is the
    # first (the nearest the root) to hold; a vertex or edge not in the
    # host adds no bit, so its region has fewer bits than members
    vbit, ebit, star = ix.vertex_bit, ix.edge_bit, ix.star
    rows = [0] * k
    reach = [0] * k
    covered = held = 0
    size = 0        # vertices of the regions less those of the boundaries
    for x in order:
        reg = regions[x]
        vm = reduce(or_, map(vbit.get, reg.vertices, repeat(0)), 0)
        em = reduce(or_, map(ebit.get, reg.edges, repeat(0)), 0)
        invariant(len(reg.vertices) == vm.bit_count()
                  and len(reg.edges) == em.bit_count(),
                  "block is not a subgraph of the host", x)
        both = em & covered
        invariant(not both, "edge in two blocks",
                  both and list(ix.edges_of(both & -both)[0]))
        covered |= em
        first = vm & ~held
        if first:
            reach[x] = reduce(or_, map(star.__getitem__, set_bits(first)))
        held |= vm
        size += len(reg.vertices)
        rows[x] = vm | em << n
        if x:
            bm = elements[into[x]].bmask
            invariant(vm & rows[class_of[into[x]]] == bm
                      and 1 <= bm.bit_count() <= 2,
                      "adjacent blocks do not meet in their boundary", x)
            size -= bm.bit_count()
    invariant(covered == ix.all_edges, "blocks do not cover the host edges")
    invariant(held == ix.all_vertices, "blocks do not cover the host vertices")
    invariant(size == n, "regions share more than cut vertices")
    # 3 and 4: subtree regions and reach masks, bottom-up
    for y in reversed(order[1:]):
        up = class_of[into[y]]
        rows[up] |= rows[y]
        reach[up] |= reach[y]
    for y in order[1:]:
        j = into[y]
        side, other = elements[j], elements[j ^ 1]
        vm, em, bm = rows[y] & ix.all_vertices, rows[y] >> n, side.bmask
        invariant(side.vmask == vm and side.emask == em,
                  "side is not the union of the regions beyond its edge", j)
        invariant(other.bmask == bm
                  and other.emask == ix.all_edges & ~em
                  and other.vmask == ix.all_vertices & ~vm | bm,
                  "paired element is not the complement",
                  {"element": j, "partner": j ^ 1})
        hinge = set_bits(bm)
        joined = ebit.get(tuple(ix.vertices[i] for i in hinge), 0) \
            if len(hinge) == 2 else 0
        near, at = reach[y] & ix.all_vertices, reach[y] >> n
        invariant(not near & ~vm and not at & ~em and not em & ~at & ~joined,
                  "interior of a side reaches outside it", j)
        for i in hinge:
            edges = star[i] >> n
            invariant(edges & em and edges & ~em,
                      "boundary vertex needs incident edges on both sides", j)
        if len(hinge) == 2:
            invariant(em.bit_count() != 1
                      and (ix.all_edges & ~em).bit_count() != 1,
                      "hinge separation may not be a single edge", j)
