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
complementation.  Bit j of the int ``up[i]`` is set when element i
lies strictly below element j.

Two elements are equivalent, A ~ B, when A < B* with nothing of the
family strictly between (and A ~ A), so class(A) is A plus the
complements of the elements covering A.  The tree has the equivalence
classes as vertices and one edge per complement pair; the directed edge
of A runs from class(A*) to class(A), so A <= B exactly when the edge
of A lies on the directed path toward the edge of B.  Each class holds
its region, the intersection of the complements of its members, built
once with the tree.  A side is the union of the regions beyond its
edge, and adjacent regions meet exactly in their edge's boundary: the
regions are the pieces of a tree decomposition of the host.

Where the tree comes first, as the block-cut tree does off its DFS, the
family is a `TreeFamily`: it holds its host, its elements and its tree,
regions included, and no order is computed.  Any other family, such as
the combined hinge family, is a `NestedFamily`, checked on construction,
which computes its order from the masks (see `separation`) once, and
`build_structure_tree` reads the classes off that order.  Each
element's vertex bits, then edge bits, split into maximal aligned
power-of-two blocks, and the elements containing it as a subgraph are
the AND, over its blocks, of the elements holding that block or an
enclosing one.  For n elements that is one n-bit operation per block:
O(log k) blocks on a host of k vertices and edges when a side's
vertices and edges are runs in the index order, as on a path, and never
more than the side has vertices and edges.  The nesting check takes
O(n) operations on n-bit ints, the complement of a set of elements
being one swap of adjacent bits.  The classes take one more such pass,
with the elements relabelled lowest first, and then one step per
covering pair.

Either way one certificate, `certify_tree`, checks the tree in one
linear pass over its regions and sides, and recomputes neither the
order nor the classes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, reduce
from itertools import repeat
from operator import and_, or_

from .errors import MalformedInput, NotNested, invariant
from .graph import Graph, connected_components, edge_key, set_bits


def _pair_swap(n):
    """Bit i to bit i ^ 1: the complement map of a family."""
    even = (1 << 2 * ((n + 1) // 2)) // 3

    def swap(mask):
        return (mask & even) << 1 | (mask >> 1) & even
    return swap


def _aligned_blocks(mask, leaves):
    """The set bits of mask as maximal aligned power-of-two blocks, named
    as the nodes of a heap whose leaves are the bit positions: bit p is
    node leaves + p, and node k has parent k >> 1."""
    out = []
    while mask:
        low = mask & -mask
        carry = mask + low              # clears the lowest run of ones
        lo = leaves + low.bit_length() - 1
        hi = leaves + (carry & -carry).bit_length() - 1
        mask &= carry
        while lo < hi:
            if lo & 1:
                out.append(lo)
                lo += 1
            if hi & 1:
                hi -= 1
                out.append(hi)
            lo >>= 1
            hi >>= 1
    return out


class NestedFamily:
    """Separation family in complement pairs (element i ^ 1 is the
    complement of element i)."""

    def __init__(self, host, elements):
        self.host = host
        self.elements = tuple(elements)
        self._validate()

    def __len__(self):
        return len(self.elements)

    def _validate(self):
        n = len(self.elements)
        if n % 2:
            raise MalformedInput("family must list complements in pairs",
                                 witness=n)
        all_vertices = (1 << len(self.host.vertices)) - 1
        all_edges = (1 << len(self.host.edges)) - 1
        for i, a in enumerate(self.elements):
            if a.host is not self.host and a.host != self.host:
                raise MalformedInput("element lives on another host",
                                     witness=i)
            b = self.elements[i ^ 1]
            if (b.bmask != a.bmask or b.emask != all_edges & ~a.emask
                    or b.vmask != all_vertices & ~a.vmask | a.bmask):
                raise NotNested("paired element is not the complement",
                                witness={"element": i, "partner": i ^ 1})
        if not n:
            self.up = ()
            return
        self.up = self._order()
        image = _pair_swap(n)
        full = (1 << n) - 1
        for i in range(n):
            # j > i is nested with i when j or j* lies at or above i or i*
            near = self.up[i] | self.up[i ^ 1] | 1 << i | 1 << (i ^ 1)
            crossing = full & ~near & ~image(near) & ~((2 << i) - 1)
            if crossing:
                j = (crossing & -crossing).bit_length() - 1
                raise NotNested(
                    "pair fails the nesting condition",
                    witness={"a": list(self.elements[i].key),
                             "b": list(self.elements[j].key)})

    @cached_property
    def _rows(self):
        """Each element as one int: its vertex bits, then its edge bits."""
        shift = len(self.host.vertices)
        return [s.vmask | s.emask << shift for s in self.elements]

    @cached_property
    def _blocks(self):
        """Each row as its maximal aligned power-of-two blocks."""
        leaves = 1 << max(self._rows, default=0).bit_length().bit_length()
        return [_aligned_blocks(row, leaves) for row in self._rows]

    def _order(self, label=None):
        """up[i]: bitmask of the elements strictly above element i, with
        element j at bit label[j] (by default, bit j).

        An element is a row of vertex bits then edge bits, split into its
        maximal aligned power-of-two blocks of set bits.  A block lies in
        element j exactly when one of j's own blocks is the block or
        encloses it, so the elements containing element i as a subgraph
        are the AND, over the blocks of i, of the elements holding the
        block or an enclosing one.
        """
        bit = [1 << p for p in label or range(len(self.elements))]
        rows, blocks = self._rows, self._blocks
        held = {}       # block -> elements holding it or an enclosing one
        for j, own in enumerate(blocks):
            for k in own:
                held[k] = held.get(k, 0) | bit[j]
        for k in sorted(held):          # enclosing blocks come first
            parent = k >> 1
            while parent and parent not in held:
                parent >>= 1
            if parent:
                held[k] |= held[parent]
        twins = {}      # row -> elements equal to it as subgraphs
        for j, row in enumerate(rows):
            twins[row] = twins.get(row, 0) | 1 << j
        up = []
        for i, row in enumerate(rows):
            above = reduce(and_, map(held.__getitem__, blocks[i]))
            for j in set_bits(twins[row]):
                if j in (i, i ^ 1) or i & 1 >= j & 1:
                    above &= ~bit[j]
            up.append(above)
        return tuple(up)

    @cached_property
    def lowest_first(self):
        """(lowest, up): the elements from lowest to highest (most elements
        above first), and the order relabelled so, with element j at bit
        p where lowest[p] == j."""
        lowest = sorted(range(len(self.elements)),
                        key=lambda i: -self.up[i].bit_count())
        label = [0] * len(lowest)
        for p, i in enumerate(lowest):
            label[i] = p
        return lowest, self._order(label)

    def strict(self, i, j):
        return bool(self.up[i] >> j & 1)

    def leq(self, i, j):
        return i == j or self.strict(i, j)


@dataclass(frozen=True)
class StructureTree:
    family: object          # a NestedFamily or a TreeFamily
    classes: tuple          # frozensets of element indices
    regions: tuple = field(repr=False, compare=False)   # Graph per class
    class_of: tuple = field(init=False, repr=False, compare=False, hash=False,
                            default=None)
    _graph: Graph = field(init=False, repr=False, compare=False, hash=False,
                          default=None)

    def __post_init__(self):
        lookup = [None] * len(self.family.elements)
        for ci, cls in enumerate(self.classes):
            for i in cls:
                lookup[i] = ci
        edges = {edge_key(lookup[i], lookup[i + 1])
                 for i in range(0, len(lookup), 2)}
        object.__setattr__(self, "class_of", tuple(lookup))
        object.__setattr__(self, "_graph", Graph(tuple(range(len(self.classes))),
                                                 tuple(sorted(edges))))

    @property
    def vertex_count(self):
        return len(self.classes)

    @property
    def edge_count(self):
        return len(self.family.elements) // 2

    @property
    def edges(self):
        """Tree edges as sorted (ci, cj) pairs with ci < cj."""
        return self._graph.edges

    def neighbors(self, ci):
        return self._graph.neighbors(ci)

    def region(self, ci):
        """Intersection of the complements of the class members: the cut
        vertex alone for a cut-point class, the block for a block class,
        the whole host for the empty class."""
        return self.regions[ci]

    def cut_vertex(self, ci):
        """The vertex of a cut-point class, whose region is one vertex and
        no edge, or None for any other class."""
        reg = self.regions[ci]
        if self.classes[ci] and not reg.edges and len(reg.vertices) == 1:
            return reg.vertices[0]
        return None


class TreeFamily:
    """A family whose structure tree came with it: `tree` holds the
    classes, in the numbering `build_structure_tree` would give them, and
    each class's region.  No order is computed; `certify_tree` checks
    the tree."""

    def __init__(self, host, elements, classes, regions):
        self.host = host
        self.elements = tuple(elements)
        self.tree = StructureTree(self, tuple(classes), tuple(regions))


def _unreached(tree):
    """Least class not connected to class 0, or None."""
    parts = connected_components(tree._graph)
    return parts[1][0] if len(parts) > 1 else None


def _classes(family):
    """The ~-classes, ordered by least member.

    class(i) is i plus the complements of the elements covering i; two
    members that disagree on their class make the family not nested.
    The covers are read from the order relabelled lowest first (most
    elements above first; `NestedFamily.lowest_first`): there the lowest
    bit of any set of elements above i is a minimal one, so each cover
    costs one step, and the elements above a cover drop out with it.
    """
    lowest_first, up = family.lowest_first
    cls = []
    for i in range(len(up)):
        rest = up[i]
        mask = 1 << i
        while rest:
            low = rest & -rest
            k = lowest_first[low.bit_length() - 1]
            mask |= 1 << (k ^ 1)
            rest &= ~up[k] & ~low
        cls.append(mask)
    out = []
    done = 0
    for i, mask in enumerate(cls):
        if done >> i & 1:
            continue
        for j in set_bits(mask):
            if cls[j] != mask:
                raise NotNested("equivalence closure is inconsistent",
                                witness={"a": i, "b": j})
        done |= mask
        out.append(frozenset(set_bits(mask)))
    return tuple(out)


def _regions(family, classes):
    """Each class's region: the intersection of the complements of its
    members, the whole host for the empty class."""
    ix = family.host.index
    out = []
    for cls in classes:
        vm, em = ix.all_vertices, ix.all_edges
        for i in cls:
            other = family.elements[i ^ 1]
            vm &= other.vmask
            em &= other.emask
        out.append(Graph(ix.vertices_of(vm), ix.edges_of(em)))
    return tuple(out)


def build_structure_tree(family):
    """Build the tree of ~-classes, each with its region; the edge of A
    joins class(A) to class(A*)."""
    classes = _classes(family) if family.elements else (frozenset(),)
    tree = StructureTree(family, classes, _regions(family, classes))
    if tree.edge_count != tree.vertex_count - 1:
        raise NotNested("class graph is not a tree",
                        witness={"vertices": tree.vertex_count,
                                 "edges": tree.edge_count})
    ci = _unreached(tree)
    if ci is not None:
        raise NotNested("class graph is disconnected", witness=ci)
    return tree


def certify_tree(tree):
    """Check a structure tree and its regions in one linear pass, raising
    InvariantViolated (also under ``python -O``) at the first fault.

    1. The tree has one edge per complement pair and is connected.
    2. The regions are subgraphs of the host that partition its edges
       and cover its vertices; adjacent regions meet exactly in their
       edge's boundary, of one or two vertices; and the regions have
       |V| + sum |B_e| vertices in all, the sum over the tree edges e.
    3. Every side equals the OR of the regions beyond its edge, built
       bottom-up, and its partner is its exact complement.
    4. Every side passes the conditions of `make_separation`, read from
       bottom-up reach masks: the neighbours and edges of its interior
       lie in it and make up its edges, up to the edge joining a hinge;
       each boundary vertex has edges on both sides; and a hinge side
       is neither a single edge nor the host minus one edge.

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
    fam = tree.family
    host, elements, regions = fam.host, fam.elements, tree.regions
    ix = host.index
    n = len(ix.vertices)
    k = tree.vertex_count
    invariant(len(elements) % 2 == 0 and
              len(tree.edges) == tree.edge_count == k - 1,
              "tree edges are not one per complement pair",
              {"vertices": k, "edges": len(tree.edges),
               "pairs": len(elements) / 2})
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
        for b in tree.classes[x]:
            y = tree.class_of[b ^ 1]
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
            invariant(vm & rows[tree.class_of[into[x]]] == bm
                      and 1 <= bm.bit_count() <= 2,
                      "adjacent blocks do not meet in their boundary", x)
            size -= bm.bit_count()
    invariant(covered == ix.all_edges, "blocks do not cover the host edges")
    invariant(held == ix.all_vertices, "blocks do not cover the host vertices")
    invariant(size == n, "regions share more than cut vertices")
    # 3 and 4: subtree regions and reach masks, bottom-up
    for y in reversed(order[1:]):
        up = tree.class_of[into[y]]
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
