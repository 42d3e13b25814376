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
of A lies on the directed path toward the edge of B.  In a tree that
holds when up[A] is the successors of A (the complements of the other
members of class(A)) and everything above them, which verification
checks per element.

Where the tree comes first, as the block-cut tree does off its DFS, the
family is a `TreeFamily`: it carries its tree, classes and regions
included, and reads ``up`` off it on first use, O(1) n-bit operations
per element.  Its checks are those of whoever built the tree
(`blocks1.certify_block_cut_tree`), and no mask order is computed.

Any other family, such as the combined hinge family, is checked on
construction and computes its order from the masks (see `separation`),
once, and its tree and the verification come from that order.  Each
element's vertex bits, then edge bits, split into maximal aligned
power-of-two blocks, and the elements containing it as a subgraph are
the AND, over its blocks, of the elements holding that block or an
enclosing one.  For n elements that is one n-bit operation per block:
O(log k) blocks on a host of k vertices and edges when a side's
vertices and edges are runs in the index order, as on a path, and never
more than the side has vertices and edges.  The nesting check takes
O(n) operations on n-bit ints, the complement of a set of elements
being one swap of adjacent bits.  The classes take one more such pass,
with the elements relabelled lowest first, which the family keeps for
the verification, and then one step per covering pair; the verification
adds one step per class member.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, reduce
from operator import and_

from .errors import MalformedInput, NotNested
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
        p where lowest[p] == j.  Computed once, for the tree and for its
        verification."""
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
    family: NestedFamily
    classes: tuple          # frozensets of element indices
    regions: tuple = field(default=None, repr=False, compare=False)
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
        """Intersection of the complements of the class members.

        For a cut-point class this is the cut vertex alone; for a block
        class it is the block.  The empty class yields the whole host.
        A tree read off its family's construction holds its regions.
        """
        if self.regions is not None:
            return self.regions[ci]
        fam = self.family
        if not self.classes[ci]:        # no separation: no index needed
            return Graph(tuple(sorted(fam.host.vertices)),
                         tuple(sorted(fam.host.edges)))
        ix = fam.host.index
        vm, em = ix.all_vertices, ix.all_edges
        for i in self.classes[ci]:
            other = fam.elements[i ^ 1]
            vm &= other.vmask
            em &= other.emask
        return Graph(ix.vertices_of(vm), ix.edges_of(em))


class TreeFamily(NestedFamily):
    """A family whose structure tree came with it: `tree` holds the
    classes, in the numbering `build_structure_tree` would give them, and
    each class's region.  No mask order is computed; `up` is read off the
    tree on first use."""

    def __init__(self, host, elements, classes, regions):
        self.host = host
        self.elements = tuple(elements)
        self.tree = StructureTree(self, tuple(classes), tuple(regions))

    @cached_property
    def up(self):
        return _tree_order(self.tree)


def _tree_order(tree):
    """up[i] read off the tree: the elements whose edges lie beyond the
    head of i's edge, directed away from it.

    With the tree rooted at class 0, a downward element's set is the
    downward elements of the subtree below its head, found bottom-up;
    an upward element's is everything leaving its head, less the branch
    it came up, found top-down.  The branches at a class are disjoint,
    so taking one away is one XOR: O(1) n-bit operations per element.
    """
    classes, class_of = tree.classes, tree.class_of
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


def build_structure_tree(family):
    """Build the tree of ~-classes; the edge of A joins class(A) to class(A*)."""
    if not family.elements:
        return StructureTree(family, (frozenset(),))
    tree = StructureTree(family, _classes(family))
    if tree.edge_count != tree.vertex_count - 1:
        raise NotNested("class graph is not a tree",
                        witness={"vertices": tree.vertex_count,
                                 "edges": tree.edge_count})
    ci = _unreached(tree)
    if ci is not None:
        raise NotNested("class graph is disconnected", witness=ci)
    return tree


def verify_tree_correspondence(tree):
    """Recompute the correspondence and report any violation.

    Checks tree shape, the stored classes, and that the family order
    agrees with coherent directed paths in the tree.
    """
    fam = tree.family
    violations = []
    n = len(fam.elements)
    if n == 0:
        if tree.vertex_count != 1:
            violations.append("empty family must give a single-vertex tree")
        return {"ok": not violations, "violations": violations}
    if tree.edge_count != tree.vertex_count - 1:
        violations.append("edge count is not vertex count minus one")
    try:
        classes = _classes(fam)
    except NotNested as exc:
        violations.append("equivalence classes inconsistent: %s" % exc)
        classes = None
    if classes is not None and classes != tree.classes:
        violations.append("stored classes differ from recomputed ~-classes")
    ci = _unreached(tree)
    if ci is not None:
        violations.append("tree is disconnected at class %d" % ci)
    members = [sum(1 << i for i in cls) for cls in tree.classes]
    for i in range(n):
        reach = 0
        for b in set_bits(members[tree.class_of[i]] & ~(1 << i)):
            reach |= 1 << (b ^ 1) | fam.up[b ^ 1]
        diff = (fam.up[i] ^ reach) & ~(1 << i)
        if diff:
            j = (diff & -diff).bit_length() - 1
            violations.append(
                "order/path mismatch for elements %d,%d (leq=%s path=%s)"
                % (i, j, fam.leq(i, j), bool(reach >> j & 1)))
    return {"ok": not violations, "violations": violations}
