"""Cut vertices, one-boundary separation families, and block-cut trees.

At each cut vertex c the family receives, for every component C of
X - c, the minimal element spanned by C (all of C plus c and the joining
edges) and its complement.  When c leaves exactly two components the
minimal element on one side coincides, as a subgraph, with the
complement of the other; the two are kept as distinct family members
and disambiguated by rank (minimal elements rank 0, complements rank 1),
which is exactly what the structure-tree order needs to keep one tree
edge per side.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotConnected, invariant
from .graph import Graph, connected_components, is_connected, separating_sets
from .separation import component_side, separation_complement
from .treeset import NestedFamily, StructureTree, build_structure_tree


def _cut_pieces(g):
    """(c, components of g - c) for every cut vertex c, in vertex order."""
    if not is_connected(g):
        raise NotConnected("cut vertices are defined for connected graphs",
                           witness=[list(c) for c in connected_components(g)])
    return [(c, pieces) for (c,), pieces in separating_sets(g, 1)]


def cut_vertices(g):
    """Vertices whose removal disconnects the graph."""
    return tuple(c for c, _ in _cut_pieces(g))


def b1_family(g):
    """All single-component minimal elements at every cut vertex, plus
    complements.  Connected input; a 2-connected graph gives the empty
    family."""
    elements = []
    comp = []
    rank = []
    for c, pieces in _cut_pieces(g):
        for piece in pieces:
            minimal = component_side(g, (c,), (piece,))
            complement = separation_complement(minimal)
            i = len(elements)
            elements.extend((minimal, complement))
            comp.extend((i + 1, i))
            rank.extend((0, 1))
    return NestedFamily(g, elements, comp, rank)


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
