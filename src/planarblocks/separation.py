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
and kept.  A `Separation` checks nothing when it is built: `blocks1`
and `blocks2` build theirs straight from masks, and
`treeset.certify_tree` checks every side of the trees they return
against the conditions above.  The conditions are symmetric under
complement, so `separation_complement` checks nothing again.
"""

from functools import cached_property


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


def separation_complement(a):
    """A*: the other side across the same boundary, unchecked."""
    ix = a.host.index
    return Separation(a.host, ix.all_vertices & ~a.vmask | a.bmask,
                      ix.all_edges & ~a.emask, a.bmask)
