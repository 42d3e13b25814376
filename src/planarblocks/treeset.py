"""Structure trees of nested separation families.

A family is a finite set of separations closed under complementation
such that every pair (A, B) satisfies at least one of A<=B, A<=B*,
A*<=B, A*<=B*.  Elements are compared by subgraph containment; two
distinct elements with identical subgraphs (which happens when a cut
vertex leaves exactly two components, so a minimal element coincides
with the complement of its twin) are ordered by an explicit rank so
that the order stays a strict partial order reversed by complementation.
The family computes this order once: bit j of the int ``up[i]`` is set
when element i lies strictly below element j.

Two elements are equivalent, A ~ B, when A < B* with nothing of the
family strictly between (and A ~ A), so class(A) is A plus the
complements of the elements covering A.  The tree has the equivalence
classes as vertices and one edge per complement pair; the directed edge
of A runs from class(A*) to class(A), so A <= B exactly when the edge
of A lies on the directed path toward the edge of B.  In a tree that
holds when up[A] is the successors of A (the complements of the other
members of class(A)) and everything above them, which verification
checks per element.  For n elements the order costs one n-bit AND per
vertex and edge of each element; the nesting check, the classes and the
verification each cost O(n^2) operations on n-bit ints.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

from .errors import MalformedInput, NotNested
from .graph import Graph, connected_components, edge_key
from .separation import separation_complement


def _bits(mask):
    """Indices of the set bits of mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


class NestedFamily:
    """Separation family with an explicit complement pairing and ranks."""

    def __init__(self, host, elements, comp, rank=None):
        self.host = host
        self.elements = tuple(elements)
        self.comp = tuple(comp)
        self.rank = tuple(rank) if rank is not None else (0,) * len(self.elements)
        self._validate()

    def __len__(self):
        return len(self.elements)

    def _validate(self):
        n = len(self.elements)
        if not (len(self.comp) == len(self.rank) == n):
            raise MalformedInput("family arrays disagree in length")
        for i in range(n):
            j = self.comp[i]
            if j == i or not (0 <= j < n) or self.comp[j] != i:
                raise MalformedInput("complement map is not a fixed-point-free "
                                     "involution", witness=i)
            a, b = self.elements[i], self.elements[j]
            if (b.boundary != a.boundary or b.ea != a.host.edge_set - a.ea
                    or b.va != (a.host.vertex_set - a.va) | a.boundary):
                raise NotNested("paired element is not the complement",
                                witness={"element": i, "partner": j})
        self.up = self._order()
        full = (1 << n) - 1
        for i in range(n):
            # j > i is nested with i when j or j* lies at or above i or i*
            ci = self.comp[i]
            near = self.up[i] | self.up[ci] | 1 << i | 1 << ci
            for j in _bits(full & ~near & ~((2 << i) - 1)):
                if not near >> self.comp[j] & 1:
                    raise NotNested(
                        "pair fails the nesting condition",
                        witness={"a": list(self.elements[i].key),
                                 "b": list(self.elements[j].key)})

    def _order(self):
        """up[i]: bitmask of the elements strictly above element i."""
        holders = {}    # vertex or edge -> elements containing it
        twins = {}      # subgraph -> elements equal to it as subgraphs
        for j, s in enumerate(self.elements):
            for x in chain(s.va, s.ea):
                holders[x] = holders.get(x, 0) | 1 << j
            twins[s.va, s.ea] = twins.get((s.va, s.ea), 0) | 1 << j
        up = []
        for i, s in enumerate(self.elements):
            above = (1 << len(self.elements)) - 1
            for x in chain(s.va, s.ea):
                above &= holders[x]
            for j in _bits(twins[s.va, s.ea]):
                if j == i or j == self.comp[i] or self.rank[i] >= self.rank[j]:
                    above &= ~(1 << j)
            up.append(above)
        return tuple(up)

    def strict(self, i, j):
        return bool(self.up[i] >> j & 1)

    def leq(self, i, j):
        return i == j or self.strict(i, j)


@dataclass(frozen=True)
class StructureTree:
    family: NestedFamily
    classes: tuple          # frozensets of element indices
    pairs: tuple            # (i, comp[i]) with i < comp[i]
    class_of: tuple = field(init=False, repr=False, compare=False, hash=False,
                            default=None)
    _graph: Graph = field(init=False, repr=False, compare=False, hash=False,
                          default=None)

    def __post_init__(self):
        lookup = [None] * len(self.family.elements)
        for ci, cls in enumerate(self.classes):
            for i in cls:
                lookup[i] = ci
        edges = {edge_key(lookup[i], lookup[j]) for i, j in self.pairs}
        object.__setattr__(self, "class_of", tuple(lookup))
        object.__setattr__(self, "_graph", Graph(tuple(range(len(self.classes))),
                                                 tuple(sorted(edges))))

    @property
    def vertex_count(self):
        return len(self.classes)

    @property
    def edge_count(self):
        return len(self.pairs)

    @property
    def edges(self):
        """Tree edges as sorted (ci, cj) pairs with ci < cj."""
        return self._graph.edges

    def directed_edge(self, i):
        """Directed edge of element i: class(A*) -> class(A)."""
        return (self.class_of[self.family.comp[i]], self.class_of[i])

    def neighbors(self, ci):
        return self._graph.neighbors(ci)

    def region(self, ci):
        """Intersection of the complements of the class members.

        For a cut-point class this is the cut vertex alone; for a block
        class it is the block.  The empty class yields the whole host.
        """
        fam = self.family
        members = sorted(self.classes[ci])
        va = set(fam.host.vertex_set)
        ea = set(fam.host.edge_set)
        for i in members:
            comp = fam.elements[fam.comp[i]]
            va &= comp.va
            ea &= comp.ea
        return Graph(tuple(sorted(va)), tuple(sorted(ea)))


def _unreached(tree):
    """Least class not connected to class 0, or None."""
    parts = connected_components(tree._graph)
    return parts[1][0] if len(parts) > 1 else None


def _classes(family):
    """The ~-classes, ordered by least member.

    class(i) is i plus the complements of the elements covering i; two
    members that disagree on their class make the family not nested.
    """
    up, comp = family.up, family.comp
    cls = []
    for i in range(len(up)):
        beyond = 0
        for k in _bits(up[i]):
            beyond |= up[k]
        mask = 1 << i
        for k in _bits(up[i] & ~beyond):
            mask |= 1 << comp[k]
        cls.append(mask)
    out = []
    done = 0
    for i, mask in enumerate(cls):
        if done >> i & 1:
            continue
        for j in _bits(mask):
            if cls[j] != mask:
                raise NotNested("equivalence closure is inconsistent",
                                witness={"a": i, "b": j})
        done |= mask
        out.append(frozenset(_bits(mask)))
    return tuple(out)


def build_structure_tree(family):
    """Build the tree of ~-classes; the edge of A joins class(A) to class(A*)."""
    if not family.elements:
        return StructureTree(family, (frozenset(),), ())
    pairs = tuple((i, j) for i, j in enumerate(family.comp) if i < j)
    tree = StructureTree(family, _classes(family), pairs)
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

    Checks tree shape, the element/directed-edge bijection, and that the
    family order agrees with coherent directed paths in the tree.
    """
    fam = tree.family
    violations = []
    n = len(fam.elements)
    if n == 0:
        if tree.vertex_count != 1 or tree.edge_count != 0:
            violations.append("empty family must give a single-vertex tree")
        return {"ok": not violations, "violations": violations}
    if tree.edge_count * 2 != n:
        violations.append("directed edges do not biject with elements")
    if tree.edge_count != tree.vertex_count - 1:
        violations.append("edge count is not vertex count minus one")
    seen = set()
    for i, j in tree.pairs:
        if fam.comp[i] != j:
            violations.append("pair (%d,%d) is not a complement pair" % (i, j))
        seen.update((i, j))
    if seen != set(range(n)):
        violations.append("some element is missing from the edge pairing")
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
        for b in _bits(members[tree.class_of[i]] & ~(1 << i)):
            reach |= 1 << fam.comp[b] | fam.up[fam.comp[b]]
        diff = (fam.up[i] ^ reach) & ~(1 << i)
        if diff:
            j = (diff & -diff).bit_length() - 1
            violations.append(
                "order/path mismatch for elements %d,%d (leq=%s path=%s)"
                % (i, j, fam.leq(i, j), bool(reach >> j & 1)))
    return {"ok": not violations, "violations": violations}


def family_from_sides(host, sides):
    """Family from representative sides: adds complements, dedupes by fields.

    Suitable when all sides are distinct as subgraphs (hinge families);
    use explicit element/rank lists for the tagged cut-vertex families.
    """
    by_key = {}
    for s in sides:
        for t in (s, separation_complement(s)):
            by_key.setdefault(t.key, t)
    elements = sorted(by_key.values(), key=lambda s: s.key)
    index = {s.key: i for i, s in enumerate(elements)}
    comp = tuple(index[separation_complement(s).key] for s in elements)
    return NestedFamily(host, elements, comp)
