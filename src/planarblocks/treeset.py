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
at the record.  The block-cut tree reads its classes off a lowpoint DFS
(`blocks1.b1_family`); any other family, such as the combined hinge
family, goes through `separation.build_structure_tree`, which reads them
off the containment of the sides.

Since the tree comes first, a side is the regions of one subtree or of
all but one.  In the interval form, which `b1_family` builds in time and
memory linear in the host, an element is the tuple (lo, hi, out,
boundary): the regions of the classes at places lo .. hi - 1 of the
tree's `preorder`, or with `out` of the other classes, and the vertices
it shares with its complement.  The hinge layer still holds its sides as
masks (`separation.Separation`).  One certificate, `certify_tree`,
checks either form in one linear pass over the tree, the regions and the
boundaries, and recomputes neither the order nor the classes.
"""

from collections import Counter
from functools import reduce
from itertools import chain, repeat
from operator import attrgetter, or_

from .errors import invariant
from .graph import edge_key


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


def preorder(k, edges):
    """The k classes of a tree given by its edges as sorted pairs, in the
    preorder of a depth-first search from class 0 that takes children
    by ascending number, with each class's parent (0 at the root) and
    the size of its subtree.  Classes the search does not reach are
    left out of the order."""
    adj = [[] for _ in range(k)]    # ascending: (a, x) before (x, b)
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    up = [-1] * k
    up[0] = 0
    order = []
    stack = [0]
    while stack:
        x = stack.pop()
        order.append(x)
        for y in reversed(adj[x]):
            if up[y] < 0:
                up[y] = x
                stack.append(y)
    size = [1] * k
    for y in reversed(order[1:]):
        size[up[y]] += size[y]
    return order, up, size


def certify_tree(family):
    """Check the structure tree of a family and its regions in one linear
    pass, raising InvariantViolated (also under ``python -O``) at the
    first fault.

    1. The tree has one edge per complement pair and is connected.
    2. Every side is the union of the regions beyond its edge (an
       interval holds its subtree's places in the `preorder`, a mask is
       the OR of the regions), and its partner is its exact complement.
    3. The regions are subgraphs of the host that partition its edges
       and cover its vertices; each holds the ends of its edges; adjacent
       regions meet exactly in their edge's boundary, of one or two
       vertices; a vertex without an edge in a region is in the
       boundaries of no tree edge at it or of two or more; and the
       regions have |V| + sum |B_e| vertices in all, over the tree edges.
    4. No side of a hinge is a single edge.

    No other code in the package judges whether a side is a separation.
    By the count in 3, the regions holding a vertex form a subtree, each
    of whose edges has the vertex in its boundary.  A side's interior
    vertices then lie in its regions alone, with their edges and
    neighbours; each side of a boundary vertex holds a leaf of its
    subtree, which has an edge at it.  Sides are unions of the regions
    of subtrees, so they nest as their edges lie on the tree's directed
    paths, twins included.  The messages call the regions blocks and a
    boundary's vertices cut vertices, as the block-cut tree does.
    """
    host, elements, regions = family.host, family.elements, family.regions
    class_of = family.class_of
    k = len(family.classes)
    invariant(len(elements) == 2 * len(family.edges) == 2 * (k - 1),
              "tree edges are not one per complement pair",
              {"vertices": k, "edges": len(family.edges),
               "elements": len(elements)})
    if not elements:
        invariant(regions[0].vertex_set == host.vertex_set
                  and regions[0].edge_set == host.edge_set,
                  "the one block is not the host")
        return
    # 1: element into[y] of y's parent has its edge into y, and its side
    # is the subtree at y, the places pos[y] .. pos[y] + size[y] - 1
    order, up, size = preorder(k, family.edges)
    invariant(len(order) == k, "tree is disconnected")
    into = [0] * k
    for i in range(0, len(elements), 2):
        if up[class_of[i + 1]] == class_of[i]:
            into[class_of[i + 1]] = i
        else:
            into[class_of[i]] = i + 1
    # 2: the sides against the subtrees
    masks = type(elements[0]) is not tuple
    if masks:
        ix = host.index
        rows = _subtree_rows(ix, regions, order, up)
        n = len(ix.vertices)
    for p, y in enumerate(order[1:], 1):
        j = into[y]
        side, other = elements[j], elements[j ^ 1]
        if masks:
            vm, em, bm = rows[y] & ix.all_vertices, rows[y] >> n, side.bmask
            same = side.vmask == vm and side.emask == em
            paired = (other.bmask == bm and other.emask == ix.all_edges & ~em
                      and other.vmask == ix.all_vertices & ~vm | bm)
        else:
            same = side[0] == p and side[1] == p + size[y] and not side[2]
            paired = other == (p, p + size[y], True, side[3])
        if not (same and paired):
            invariant(same,
                      "side is not the union of the regions beyond its edge",
                      j)
            invariant(False, "paired element is not the complement",
                      {"element": j, "partner": j ^ 1})
    # 3: the whole of the regions at once, then each with its children
    vertex_set, edge_set = host.vertex_set, host.edge_set
    held = list(chain.from_iterable(map(attrgetter("vertices"), regions)))
    listed = list(chain.from_iterable(map(attrgetter("edges"), regions)))
    covered = set(listed)
    if not (vertex_set.issuperset(held) and covered <= edge_set):
        invariant(False, "block is not a subgraph of the host", next(
            x for x in order if not vertex_set.issuperset(regions[x].vertices)
            or not edge_set.issuperset(regions[x].edges)))
    if len(covered) != len(listed):
        twice = Counter(listed)
        invariant(False, "edge in two blocks",
                  list(min(e for e in covered if twice[e] > 1)))
    invariant(len(covered) == len(edge_set),
              "blocks do not cover the host edges")
    invariant(len(set(held)) == len(vertex_set),
              "blocks do not cover the host vertices")
    bounds = [elements[j].boundary if masks else elements[j][3]
              for j in into]
    bounds[0] = ()
    kid, sib = [-1] * k, [-1] * k       # first child, next sibling
    for y in reversed(order[1:]):
        sib[y] = kid[up[y]]
        kid[up[y]] = y
    for x in order:
        reg = regions[x]
        here = set(reg.vertices)
        ends = set(chain.from_iterable(reg.edges))
        if not here.issuperset(ends):
            invariant(False, "interior of a side reaches outside it", x)
        bare = here.difference(ends)
        near = list(bounds[x])      # the boundaries at x, bare ones kept
        y = kid[x]
        while y >= 0:
            bm = bounds[y]
            if not (0 < len(bm) < 3
                    and here.intersection(regions[y].vertices) == set(bm)):
                invariant(False, "adjacent blocks do not meet in their "
                          "boundary", y)
            if bare:
                near += bm
            y = sib[y]
        for v in bare:
            invariant(near.count(v) != 1,
                      "boundary vertex needs incident edges on both sides", v)
    invariant(len(held) - sum(map(len, bounds)) == len(vertex_set),
              "regions share more than cut vertices")
    # 4: hinge sides by their edge counts
    if any(len(bm) == 2 for bm in bounds):
        below = [len(reg.edges) for reg in regions]
        for y in reversed(order[1:]):
            below[up[y]] += below[y]
        for y in order[1:]:
            if len(bounds[y]) == 2:
                invariant(below[y] != 1 and below[0] - below[y] != 1,
                          "hinge separation may not be a single edge",
                          into[y])


def _subtree_rows(ix, regions, order, up):
    """Each class's subtree as one int over the index ix: the OR of the
    vertex masks of its regions and, shifted past them, of their edge
    masks."""
    n, vbit, ebit = len(ix.vertices), ix.vertex_bit, ix.edge_bit
    # a vertex or edge not in the host adds no bit
    rows = [reduce(or_, map(vbit.get, reg.vertices, repeat(0)), 0)
            | reduce(or_, map(ebit.get, reg.edges, repeat(0)), 0) << n
            for reg in regions]
    for y in reversed(order[1:]):
        rows[up[y]] |= rows[y]
    return rows
