"""Block-cut trees, read off one lowpoint DFS, and their certificate.

The block-cut tree of a connected graph has a node for each block (a
maximal 2-connected subgraph, or a bridge) and one for each cut vertex,
and joins each cut vertex to the blocks that contain it.  The graph's
palm forest (`Graph.palm`) finds it: a block is headed by a child that
splits off its parent (`PalmForest.splits`) or by the root's first
child, its top is the head's DFS parent, and an edge lies in the block
of its later-found end.

Its directed edges are the elements of the one-boundary family: at each
cut vertex c, for every component C of X - c, the minimal element
spanned by C (all of C plus c and the joining edges) and its complement.
When c leaves exactly two components, the minimal element on one side
coincides, as a subgraph, with the complement of the other; the two are
distinct members on distinct tree edges, the minimal one below its twin.
As in Dunwoody's "Cutting up graphs" (Combinatorica 1982), the tree
comes first: `block_cut_edges` reads the tree's nodes and edges off the
DFS, and `treeset.family_of_tree` the family, one record with its tree
(`treeset.NestedFamily`), in which each side, the regions of a subtree
or of all but one, is an interval of the tree's preorder, an Euler-tour
numbering (Tarjan and Vishkin, SIAM J. Comput. 1985), not a set.  So
the family takes time and memory linear in the graph.  The tri-block
tree (`blocks2`) starts from the same nodes and edges.
`certify_block_cut_tree` checks the result in one linear pass: the
certificate of every structure tree (`treeset.certify_tree`), and on
top of it what makes the tree a block-cut tree.
"""

from .errors import invariant
from .graph import Graph, _splits, edge_key
from .treeset import certify_tree, family_of_tree


def b1_family(g):
    """All single-component minimal elements at every cut vertex, plus
    complements, as the family whose classes are the block-cut tree's
    vertices: cut vertices ascending, components by least vertex, each
    minimal side followed by its complement, in the interval form.
    Connected input; a 2-connected graph, an edge or a vertex gives the
    empty family, whose one region is g itself."""
    return family_of_tree(g, *block_cut_edges(g))


def block_cut_edges(g):
    """(pairs, regions) of the block-cut tree of the connected graph g,
    as `treeset.family_of_tree` takes them: node c is the cut vertex v
    at position c and node n + h the block headed by h, each region a
    graph, and pair (c, n + h, (v,)) joins the cut vertex to a block at
    it.  At each cut vertex, by least vertex but the cut vertex, come
    the side toward the root, which holds vertex 0, and then the blocks
    it tops.  No pair when g has no cut vertex."""
    split = _splits(g)
    if not split:
        return [], []
    palm, vs, n = g.palm, g.vertices, len(g.vertices)
    order, parent = palm.order, palm.parent
    root = order[0]         # vertex 0, the least
    # the root's children, and every child that splits off its parent
    heads = {order[1]}.union(*split.values())
    block = [root] * n      # vertex below the root -> its block's head
    verts = {h: [parent[h]] for h in heads}
    for v in order[1:]:
        block[v] = h = v if v in heads else block[parent[v]]
        verts[h].append(v)
    least = list(range(n))  # the least vertex of each DFS subtree
    for v in reversed(order[1:]):
        if least[v] < least[parent[v]]:
            least[parent[v]] = least[v]
    edges = {h: [] for h in heads}
    for v, w in zip(palm.tail, palm.head):  # the later end's block
        edges[block[w if parent[w] == v else v]].append(edge_key(vs[v], vs[w]))
    regions = [None] * 2 * n
    for c in split:
        regions[c] = Graph((vs[c],), ())
    for h in heads:
        regions[n + h] = Graph(tuple(sorted(map(vs.__getitem__, verts[h]))),
                               tuple(sorted(edges[h])))
    pairs = [(c, n + h, (vs[c],)) for c in sorted(split)
             for h in ([block[c]] if c != root else [])
             + sorted(split[c], key=least.__getitem__)]
    return pairs, regions


class BlockCutTree:
    """The block-cut tree of `graph`, read off `family`, a
    `treeset.NestedFamily` such as `b1_family` builds: its cut-point
    classes, and the regions of the others as blocks."""

    def __init__(self, graph, family):
        self.graph = graph
        self.family = family
        self.cut_classes = cut_classes = family.cut_classes
        self.block_classes = {ci: reg for ci, reg in enumerate(family.regions)
                              if ci not in cut_classes}

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
    block containing c.  `certify_block_cut_tree` checks the result.
    """
    return BlockCutTree(g, b1_family(g))


def certify_block_cut_tree(bct):
    """Check a block-cut tree and its family in one linear pass, raising
    InvariantViolated (also under ``python -O``) at the first fault.

    The tree must be the tree of `bct.graph`, and the checks a block-cut
    tree adds to those of every structure tree (`treeset.certify_tree`)
    hold: the cut/block graph is bipartite, each cut vertex has one tree
    vertex and lies in the blocks next to it, and every block with
    members has an edge.
    """
    g, fam = bct.graph, bct.family
    cut_of, block_of = bct.cut_classes, bct.block_classes
    if fam.host is not g:
        # the blocks are subgraphs of the family's host, so they cover
        # no edge it lacks
        invariant(fam.host.edge_set >= g.edge_set,
                  "blocks do not cover the host edges")
        invariant(fam.host == g, "family lives on another host")
    invariant(len(set(cut_of.values())) == len(cut_of),
              "a cut vertex has two tree vertices")
    for a, b in fam.edges:
        if (a in cut_of) == (b in cut_of):
            invariant(False, "cut class adjacent to a cut class" if a in cut_of
                      else "block class adjacent to a block class", [a, b])
    # a block's members point away from it, so their partners lie in the
    # cut classes next to it
    for blk, reg in block_of.items():
        near = {fam.class_of[i ^ 1] for i in fam.classes[blk]}
        if not {cut_of[c] for c in near}.issubset(reg.vertices):
            invariant(False, "cut vertex not in an adjacent block", [min(
                c for c in near if cut_of[c] not in reg.vertex_set), blk])
    # a class without members is the one of an empty family, or apart
    # from the tree, which certify_tree reports
    bare = next((ci for ci, blk in block_of.items()
                 if not blk.edges and fam.classes[ci]), None)
    invariant(bare is None, "block without an edge", bare)
    certify_tree(fam)
