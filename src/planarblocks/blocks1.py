"""One-boundary families at the cut vertices, and block-cut trees.

At each cut vertex c the family receives, for every component C of
X - c, the minimal element spanned by C (all of C plus c and the joining
edges) and its complement.  When c leaves exactly two components the
minimal element on one side coincides, as a subgraph, with the
complement of the other; the two are kept as distinct family members,
and the minimal element, first in its pair, lies below its twin, the
second of another pair: exactly what the structure-tree order needs to
keep one tree edge per side.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import or_

from .errors import invariant
from .graph import Graph, _lowpoint_dfs
from .separation import make_separation, separation_complement
from .treeset import NestedFamily, StructureTree, build_structure_tree


def _cut_pieces(g):
    """(c, components of g - c) for every cut vertex c, in vertex order.

    Each component is (vertex mask, mask of the edges at its vertices)
    over `g.index`, and they come ordered by least vertex.  The subtree
    masks of one `graph._lowpoint_dfs` are ORed together bottom-up: each
    subtree it splits off at c is a component of g - c, and unless c is
    the root, the rest of g - c is one more.
    """
    order, parent, split = _lowpoint_dfs(g)
    if not split:
        return []
    ix = g.index
    n = len(ix.vertices)
    # the vertex's own bit, then the edges at it past the vertex bits
    sub = {v: 1 << i | ix.incident(i) << n for i, v in enumerate(ix.vertices)}
    for v in reversed(order[1:]):
        sub[parent[v]] |= sub[v]
    out = []
    for c in sorted(split):
        pieces = [(sub[k] & ix.all_vertices, sub[k] >> n) for k in split[c]]
        if c != order[0]:
            below = reduce(or_, (sub[k] for k in split[c]))
            pieces.append((ix.all_vertices & ~below & ~ix.vertex_bit[c],
                           ix.all_edges & ~(below >> n)))
        pieces.sort(key=lambda p: (p[0] & -p[0]).bit_length())
        out.append((c, pieces))
    return out


def b1_family(g):
    """All single-component minimal elements at every cut vertex, plus
    complements.  Connected input; a 2-connected graph gives the empty
    family."""
    elements = []
    for c, pieces in _cut_pieces(g):
        bit = g.index.vertex_bit[c]
        for vm, em in pieces:
            minimal = make_separation(g, vm | bit, em, bit)
            elements += (minimal, separation_complement(minimal))
    return NestedFamily(g, elements)


@dataclass(frozen=True)
class BlockCutTree:
    graph: Graph
    family: NestedFamily
    tree: StructureTree
    cut_classes: dict     # tree vertex -> cut vertex id (J side)
    block_classes: dict   # tree vertex -> block subgraph (K side)

    @property
    def blocks(self):
        return tuple(self.block_classes[ci] for ci in sorted(self.block_classes))

    @property
    def cuts(self):
        return tuple(sorted(set(self.cut_classes.values())))


def block_cut_tree(g):
    """Bipartite tree whose K-vertices carry the maximal 2-connected
    subgraphs (bridges included) and whose J-vertices carry cut vertices.

    Each tree edge joins the J-vertex of a cut c to the K-vertex of a
    block containing c.
    """
    family = b1_family(g)
    tree = build_structure_tree(family)
    cut_classes = {}
    block_classes = {}
    for ci in range(tree.vertex_count):
        reg = tree.region(ci)
        if tree.classes[ci] and not reg.edges and len(reg.vertices) == 1:
            cut_classes[ci] = reg.vertices[0]
        else:
            block_classes[ci] = reg
    # sanity: J/K split must be a bipartition of the tree
    for ci in cut_classes:
        for cj in tree.neighbors(ci):
            invariant(cj in block_classes, "cut class adjacent to a cut class")
    covered = {}
    for ci, blk in block_classes.items():
        for e in blk.edges:
            invariant(e not in covered, "edge in two blocks", list(e))
            covered[e] = ci
    invariant(set(covered) == set(g.edges),
              "blocks do not cover the host edges")
    return BlockCutTree(g, family, tree, cut_classes, block_classes)
