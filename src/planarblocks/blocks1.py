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
A side is the union of the regions beyond its edge, so the sides come
bottom-up, one OR per tree node, and the family and its tree are built
as one record (`treeset.NestedFamily`), the classes read off the DFS.
Of the two producers of a family this is the DFS read; the other,
`treeset.build_structure_tree`, reads the classes off the containment
of the sides and is not called here.  When c leaves
exactly two components, the minimal element on one side coincides, as a
subgraph, with the complement of the other; the two are distinct family
members on distinct tree edges, the minimal one below its twin.

`certify_block_cut_tree` checks the result in one linear pass: the
certificate of every structure tree (`treeset.certify_tree`), and on
top of it what makes the tree a block-cut tree.
"""

from .errors import invariant
from .graph import Graph, _splits, edge_key
from .separation import Separation
from .treeset import NestedFamily, certify_tree


def b1_family(g):
    """All single-component minimal elements at every cut vertex, plus
    complements, as the family whose classes are the block-cut tree's
    vertices: cut vertices ascending, components by least vertex, each
    minimal side followed by its complement.  Connected input; a
    2-connected graph, an edge or a vertex gives the empty family, whose
    one region is g itself."""
    split = _splits(g)
    if not split:
        return NestedFamily(g, (), (frozenset(),), (g,))
    palm, vs, ix = g.palm, g.vertices, g.index
    order, parent = palm.order, palm.parent
    n = len(vs)
    root = order[0]
    # the root's children, and every child that splits off its parent
    heads = {order[1]}.union(*split.values())
    block = [root] * n      # vertex below the root -> head of its block
    verts = {h: [parent[h]] for h in heads}
    for v in order[1:]:
        block[v] = h = v if v in heads else block[parent[v]]
        verts[h].append(v)
    edges = {h: [] for h in heads}
    emask = dict.fromkeys(heads, 0)
    for v, w in zip(palm.tail, palm.head):  # the later end's block
        e = edge_key(vs[v], vs[w])
        h = block[w if parent[w] == v else v]
        edges[h].append(e)
        emask[h] |= ix.edge_bit[e]
    # each block's region, then the regions of its subtree below it; a
    # cut vertex's subtree is the vertex and the blocks it tops
    sub = {h: ix.vertex_mask(map(vs.__getitem__, verts[h])) | emask[h] << n
           for h in heads}
    below = {}
    for v in reversed(order):
        if v in split:
            below[v] = ix.vertex_bit[vs[v]]
            for h in split[v]:
                below[v] |= sub[h]
            if v != root:
                sub[block[v]] |= below[v]
    everything = ix.all_vertices | ix.all_edges << n
    elements = []
    nodes = []      # (is a cut, vertex): the node an element points into
    for c in sorted(split, key=vs.__getitem__):
        cb = ix.vertex_bit[vs[c]]
        sides = [(sub[h], h) for h in split[c]]
        if c != root:
            sides.append((everything & ~below[c] | cb, block[c]))
        # by least vertex but c: the lowest bit of the side without c
        sides.sort(key=lambda s: (s[0] ^ cb) & -(s[0] ^ cb))
        for row, h in sides:
            vm, em = row & ix.all_vertices, row >> n
            elements += (Separation(g, vm, em, cb),
                         Separation(g, ix.all_vertices & ~vm | cb,
                                    ix.all_edges & ~em, cb))
            nodes += ((True, c), (False, h))
    # classes are numbered by least member, as build_structure_tree does
    number = {}
    classes = []
    for i, node in enumerate(nodes):
        ci = number.setdefault(node, len(number))
        if ci == len(classes):
            classes.append([])
        classes[ci].append(i)
    regions = [Graph((vs[x],), ()) if cut else
               Graph(tuple(sorted(map(vs.__getitem__, verts[x]))),
                     tuple(sorted(edges[x])))
               for cut, x in number]
    return NestedFamily(g, elements, map(frozenset, classes), regions)


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
        invariant((a in cut_of) != (b in cut_of),
                  "cut class adjacent to a cut class" if a in cut_of
                  else "block class adjacent to a block class", [a, b])
        c, blk = (a, b) if a in cut_of else (b, a)
        invariant(cut_of[c] in block_of[blk].vertex_set,
                  "cut vertex not in an adjacent block", [c, blk])
    # a class without members is the one of an empty family, or apart
    # from the tree, which certify_tree reports
    bare = next((ci for ci, blk in block_of.items()
                 if not blk.edges and fam.classes[ci]), None)
    invariant(bare is None, "block without an edge", bare)
    certify_tree(fam)
