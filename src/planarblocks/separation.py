"""Separations as int masks: the mask layer of the hinge family.

A separation A of a host graph X is a subgraph (va, ea) whose interior
vertices keep every host edge, while each boundary vertex keeps at least
one incident edge inside and at least one outside.  A two-vertex boundary
is a hinge; hinge separations additionally may not be a single edge nor
the whole graph minus one edge, so that complements stay in the class.

The block-cut tree holds its sides in the interval form of `treeset`
and loads nothing of this module.  The hinge layer (`blocks2`) and the
tree action check (`symmetry`) still compare sides as masks, until the
hinge family is read off a tree as the block-cut family is.  `GraphIndex`
(`Graph.index`) numbers the sorted vertices and edges from 0, so that a
set of vertices or of edges is one int: a `Separation` holds its
vertices, edges and boundary as the masks `vmask`, `emask` and `bmask`,
and equality, hashing, containment and the complement are a few big-int
operations.  The sets `va`, `ea` and
`boundary` and the sorted `key` are decoded on first use and kept.
`side_masks` derives the masks of a family in the interval form, and
`build_structure_tree` reads the tree of a family of masks off the
containment of its sides.  Nothing here judges a side:
`treeset.certify_tree` checks every side of the trees the package
returns, and the conditions are symmetric under complement, so
`separation_complement` checks nothing again.
"""

from functools import cached_property, reduce
from itertools import compress
from operator import or_

from .errors import MalformedInput, NotNested
from .graph import Graph
from .treeset import NestedFamily, _subtree_rows, preorder


def set_bits(mask):
    """Positions of the set bits of mask, ascending, one step per bit."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _selected(items, mask):
    """The items at the set bits of mask, in order, from one scan of its
    binary digits."""
    return compress(items, map("1".__eq__, bin(mask)[:1:-1]))


class GraphIndex:
    """Bit i of a vertex mask is vertex i of the sorted vertices, and bit
    k of an edge mask is edge k of the sorted edges.  `star[i]` holds
    vertex i's neighbours as a vertex mask and, shifted past the vertex
    bits, its edges as an edge mask, so one OR over a vertex set gives
    both its neighbours and the edges at it."""

    __slots__ = ("vertices", "edges", "vertex_bit", "edge_bit", "star",
                 "all_vertices", "all_edges")

    def __init__(self, g):
        self.vertices = tuple(sorted(g.vertices))
        self.edges = tuple(sorted(g.edges))
        self.vertex_bit = {v: 1 << i for i, v in enumerate(self.vertices)}
        self.edge_bit = {e: 1 << k for k, e in enumerate(self.edges)}
        n = len(self.vertices)
        star = dict.fromkeys(self.vertices, 0)
        for (u, v), bit in self.edge_bit.items():
            star[u] |= self.vertex_bit[v] | bit << n
            star[v] |= self.vertex_bit[u] | bit << n
        self.star = tuple(star.values())
        self.all_vertices = (1 << n) - 1
        self.all_edges = (1 << len(self.edges)) - 1

    def vertex_mask(self, vs):
        """Mask of the vertices in vs, each a host vertex."""
        return reduce(or_, map(self.vertex_bit.__getitem__, vs), 0)

    def vertices_of(self, mask):
        return tuple(_selected(self.vertices, mask))

    def edges_of(self, mask):
        return tuple(_selected(self.edges, mask))

    def reach(self, mask):
        """(neighbours of, edges at) the vertices of a vertex mask."""
        star = reduce(or_, _selected(self.star, mask), 0)
        return star & self.all_vertices, star >> len(self.vertices)


class Separation:
    def __init__(self, host, vmask, emask, bmask):
        self.host = host
        self.vmask = vmask
        self.emask = emask
        self.bmask = bmask

    def __hash__(self):
        return hash((self.vmask, self.emask, self.bmask))

    def __eq__(self, other):
        return isinstance(other, Separation) and self.vmask == other.vmask \
            and self.emask == other.emask and self.bmask == other.bmask \
            and (self.host is other.host or self.host == other.host)

    @cached_property
    def key(self):
        ix = self.host.index
        return (ix.vertices_of(self.vmask), ix.edges_of(self.emask),
                ix.vertices_of(self.bmask))

    @cached_property
    def va(self):
        return frozenset(self.key[0])

    @cached_property
    def ea(self):
        return frozenset(self.key[1])

    @cached_property
    def boundary(self):
        vs = self.host.index.vertices
        return frozenset(vs[i] for i in set_bits(self.bmask))

    def sort_key(self):
        return (self.emask.bit_count(), self.key[1], self.key[2])

    def subgraph_leq(self, other):
        return not (self.vmask & ~other.vmask or self.emask & ~other.emask)


def separation_complement(a):
    """A*: the other side across the same boundary, unchecked."""
    ix = a.host.index
    return Separation(a.host, ix.all_vertices & ~a.vmask | a.bmask,
                      ix.all_edges & ~a.emask, a.bmask)


def side_masks(family):
    """The elements of `family` as mask Separations over its host's
    index: an element in the interval form becomes the OR of the
    regions at its places, found bottom-up over the tree, and a family
    already in masks is returned as it is."""
    elements = family.elements
    if not elements or type(elements[0]) is not tuple:
        return elements
    host, regions = family.host, family.regions
    ix = host.index
    order, up, _ = preorder(len(regions), family.edges)
    rows = _subtree_rows(ix, regions, order, up)
    n = len(ix.vertices)
    out = []
    for lo, _, flip, boundary in elements:
        bm = ix.vertex_mask(boundary)
        row = rows[order[lo]]
        if flip:
            row = rows[0] & ~row | bm
        out.append(Separation(host, row & ix.all_vertices, row >> n, bm))
    return tuple(out)


# ---------------------------------------------------------------------------
# the structure tree of a family of masks


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
