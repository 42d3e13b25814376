"""Separations: one-sided subgraphs cut off by one or two boundary vertices.

A separation A of a host graph X is a subgraph (va, ea) whose interior
vertices keep every host edge, while each boundary vertex keeps at least
one incident edge inside and at least one outside.  A two-vertex boundary
is a hinge; hinge separations additionally may not be a single edge nor
the whole graph minus one edge, so that complements stay in the class.

A separation holds its vertices, edges and boundary as int bitmasks over
the host's index (`Graph.index`): `vmask`, `emask` and `bmask`.
Equality, hashing, containment and the complement are a few big-int
operations, whatever the size of the sides.  The sets `va`, `ea` and
`boundary` and the sorted `key` are decoded from the masks on first use
and kept.  `make_separation` checks every invariant with one OR per
interior vertex.  `blocks1` and `blocks2` build their `Separation`s
straight from masks, and `treeset.certify_tree` checks each of them
as a separation.  The conditions are symmetric under complement, so
`separation_complement` checks nothing again.
"""

from functools import cached_property

from .errors import InvariantViolated, MalformedInput
from .graph import set_bits


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
        return frozenset(self.key[2])

    def sort_key(self):
        return (self.emask.bit_count(), self.key[1], self.key[2])

    def subgraph_leq(self, other):
        return not (self.vmask & ~other.vmask or self.emask & ~other.emask)


def _mask(items, to_mask, everything, message):
    """items as a mask: an int mask as given, or the mask of a collection
    of host vertices or edges.  Raises MalformedInput(message) when some
    item is not in the host."""
    if isinstance(items, int):
        if items < 0 or items & ~everything:
            raise MalformedInput(message)
        return items
    mask, stray = to_mask(items)
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
    vm = _mask(va, ix.vertex_mask, ix.all_vertices,
               "va not a subset of host vertices")
    em = _mask(ea, ix.edge_mask, ix.all_edges, "ea not a subset of host edges")
    bm, stray = ((boundary, None) if isinstance(boundary, int)
                 else ix.vertex_mask(boundary))
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
        edges = ix.incident(i)
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
        missing = ix.incident(i) & ~em
        if missing:
            return MalformedInput(
                "interior vertex missing incident edges",
                witness={"vertex": ix.vertices[i],
                         "edges": list(ix.edges_of(missing))})
    return InvariantViolated("edge masks disagree with the vertex masks")


def separation_complement(a):
    """A*: the other side across the same boundary, unchecked."""
    ix = a.host.index
    return Separation(a.host, ix.all_vertices & ~a.vmask | a.bmask,
                      ix.all_edges & ~a.emask, a.bmask)
