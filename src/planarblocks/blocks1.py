"""Block-cut trees, read off one lowpoint DFS, and their certificate.

The block-cut tree of a connected graph has a node for each block (a
maximal 2-connected subgraph, or a bridge) and one for each cut vertex,
and joins each cut vertex to the blocks that contain it.  One
Hopcroft-Tarjan lowpoint DFS (`graph._lowpoint_dfs`) finds it: a block
is headed by the first of its vertices the DFS enters, its top is the
head's DFS parent, and an edge lies in the block of its later-found end.

Its directed edges are the elements of the one-boundary family: at each
cut vertex c, for every component C of X - c, the minimal element
spanned by C (all of C plus c and the joining edges) and its complement.
A side is the union of the regions beyond its edge, so the sides come
bottom-up, one OR per tree node, and the family's order is read off the
tree (`treeset.TreeFamily`), never computed from masks.  When c leaves
exactly two components, the minimal element on one side coincides, as a
subgraph, with the complement of the other; the two are distinct family
members on distinct tree edges, the minimal one below its twin.

`certify_block_cut_tree` checks a tree in one linear pass.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from .errors import invariant
from .graph import Graph, _lowpoint_dfs
from .separation import Separation
from .treeset import StructureTree, TreeFamily


def b1_family(g):
    """All single-component minimal elements at every cut vertex, plus
    complements, as the family of the block-cut tree (`family.tree`):
    cut vertices ascending, components by least vertex, each minimal
    side followed by its complement.  Connected input; a 2-connected
    graph, an edge or a vertex gives the empty family."""
    order, parent, split = _lowpoint_dfs(g)
    if not split:
        whole = Graph(tuple(sorted(g.vertices)), tuple(sorted(g.edges)))
        return TreeFamily(g, (), (frozenset(),), (whole,))
    ix = g.index
    n = len(ix.vertices)
    root = order[0]
    found = {v: i for i, v in enumerate(order)}
    # the root's children, and every child that splits off its parent
    heads = {order[1]}.union(*split.values())
    block = {}      # vertex below the root -> head of its DFS edge's block
    verts = {h: [parent[h]] for h in heads}
    for v in order[1:]:
        block[v] = h = v if v in heads else block[parent[v]]
        verts[h].append(v)
    edges = {h: [] for h in heads}
    emask = dict.fromkeys(heads, 0)
    for k, (u, w) in enumerate(ix.edges):
        h = block[u if found[u] > found[w] else w]
        edges[h].append((u, w))
        emask[h] |= 1 << k
    # each block's region, then the regions of its subtree below it; a
    # cut vertex's subtree is the vertex and the blocks it tops
    sub = {h: ix.vertex_mask(verts[h])[0] | emask[h] << n for h in heads}
    below = {}
    for v in reversed(order):
        if v in split:
            below[v] = ix.vertex_bit[v]
            for h in split[v]:
                below[v] |= sub[h]
            if v != root:
                sub[block[v]] |= below[v]
    everything = ix.all_vertices | ix.all_edges << n
    elements = []
    nodes = []      # (is a cut, vertex): the node an element points into
    for c in sorted(split):
        bit = ix.vertex_bit[c]
        sides = [(sub[h], h) for h in split[c]]
        if c != root:
            sides.append((everything & ~below[c] | bit, block[c]))
        # by least vertex but c: the lowest bit of the side without c
        sides.sort(key=lambda s: (s[0] ^ bit) & -(s[0] ^ bit))
        for row, h in sides:
            vm, em = row & ix.all_vertices, row >> n
            elements += (Separation(g, vm, em, bit),
                         Separation(g, ix.all_vertices & ~vm | bit,
                                    ix.all_edges & ~em, bit))
            nodes += ((True, c), (False, h))
    # classes are numbered by least member, as build_structure_tree does
    number = {}
    classes = []
    for i, node in enumerate(nodes):
        ci = number.setdefault(node, len(number))
        if ci == len(classes):
            classes.append([])
        classes[ci].append(i)
    regions = [Graph((x,), ()) if cut else
               Graph(tuple(sorted(verts[x])), tuple(edges[x]))
               for cut, x in number]
    return TreeFamily(g, elements, map(frozenset, classes), regions)


@dataclass(frozen=True)
class BlockCutTree:
    """The block-cut tree of `graph`, read off the tree of `family`, a
    `treeset.TreeFamily` such as `b1_family` builds."""

    graph: Graph
    family: TreeFamily
    tree: StructureTree = field(init=False)
    cut_classes: dict = field(init=False)   # tree vertex -> cut vertex
    block_classes: dict = field(init=False)  # tree vertex -> block subgraph

    def __post_init__(self):
        tree = self.family.tree
        cut_classes = {}
        block_classes = {}
        for ci in range(tree.vertex_count):
            reg = tree.region(ci)
            if tree.classes[ci] and not reg.edges and len(reg.vertices) == 1:
                cut_classes[ci] = reg.vertices[0]
            else:
                block_classes[ci] = reg
        object.__setattr__(self, "tree", tree)
        object.__setattr__(self, "cut_classes", cut_classes)
        object.__setattr__(self, "block_classes", block_classes)

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

    1. The cut/block graph is a bipartite tree, each cut vertex once,
       and a cut node is adjacent only to blocks that contain its vertex.
    2. The block regions partition the host's edges, every block has an
       edge, and each vertex lies in one region, a cut vertex in its own
       and its neighbours' only.
    3. Every side equals the OR of the regions beyond its edge, built
       bottom-up, and its partner is its exact complement.
    4. Every side passes the conditions of `make_separation`: interior
       neighbours and edges inside, read from bottom-up reach masks, and
       the boundary vertex with edges on both sides.

    Together these imply nesting and that the order is the tree-path
    order, twins included.  Two sides are unions of the regions of
    subtrees, so nested or disjoint subtrees, and regions on the two
    sides of an edge share only its cut vertex (2), so the sides are
    nested; `TreeFamily.up` reads the order off the same tree.  A
    complement pair needs only one side checked under 4: the other
    inherits the conditions.
    """
    g, fam, tree = bct.graph, bct.family, bct.tree
    ix = g.index
    n = len(ix.vertices)
    k = tree.vertex_count
    cut_of, block_of = bct.cut_classes, bct.block_classes
    invariant(len(set(cut_of.values())) == len(cut_of),
              "a cut vertex has two tree vertices")
    # 1: a bipartite tree, rooted at vertex 0 in BFS order
    invariant(len(fam.elements) % 2 == 0 and
              len(tree.edges) == tree.edge_count == k - 1,
              "tree edges are not one per complement pair",
              {"vertices": k, "edges": len(tree.edges),
               "pairs": len(fam.elements) / 2})
    adj = [[] for _ in range(k)]
    for a, b in tree.edges:
        adj[a].append(b)
        adj[b].append(a)
        invariant((a in cut_of) != (b in cut_of),
                  "cut class adjacent to a cut class" if a in cut_of
                  else "block class adjacent to a block class", [a, b])
        c, blk = (a, b) if a in cut_of else (b, a)
        invariant(cut_of[c] in block_of[blk].vertex_set,
                  "cut vertex not in an adjacent block", [c, blk])
    if not fam.elements:
        blk = block_of[0]
        invariant(blk.vertex_set == g.vertex_set
                  and blk.edge_set == g.edge_set,
                  "the one block is not the host")
        return
    parent = [None] * k
    order = [0]
    for x in order:
        for y in adj[x]:
            if y and parent[y] is None:
                parent[y] = x
                order.append(y)
    invariant(len(order) == k, "tree is disconnected")
    # 2: the regions
    rows = [0] * k
    covered = 0
    for ci, blk in block_of.items():
        vm, stray = ix.vertex_mask(blk.vertices)
        em, loose = ix.edge_mask(blk.edges)
        invariant(not stray and not loose
                  and len(blk.vertices) == vm.bit_count()
                  and len(blk.edges) == em.bit_count(),
                  "block is not a subgraph of the host", ci)
        invariant(em, "block without an edge", ci)
        both = em & covered
        invariant(not both, "edge in two blocks",
                  both and list(ix.edges_of(both & -both)[0]))
        covered |= em
        rows[ci] = vm | em << n
    invariant(covered == ix.all_edges, "blocks do not cover the host edges")
    invariant(fam.host is g or fam.host == g, "family lives on another host")
    count = Counter(v for blk in block_of.values() for v in blk.vertices)
    invariant(len(count) == n, "blocks do not cover the host vertices")
    # each cut vertex lies in the blocks next to its node, so it is in no
    # other block when each other vertex lies in one
    invariant(sum(count.values()) == n - len(cut_of) + sum(
        len(adj[c]) for c in cut_of), "regions share more than cut vertices")
    # 3 and 4: subtree regions, and the neighbours and edges of each
    # subtree's vertices but the cut vertex above it, bottom-up
    position = {v: i for i, v in enumerate(ix.vertices)}
    cuts = set(cut_of.values())
    reach = [0] * k
    for ci, blk in block_of.items():
        for v in blk.vertices:
            if v not in cuts:
                reach[ci] |= ix.star[position[v]]
    star = {}
    for c, v in cut_of.items():
        rows[c] = ix.vertex_bit[v]
        star[c] = ix.star[position[v]]
    for y in reversed(order[1:]):
        rows[parent[y]] |= rows[y]
        reach[parent[y]] |= reach[y] | star.get(y, 0)
    for i in range(0, len(fam.elements), 2):
        a, b = tree.class_of[i], tree.class_of[i + 1]
        y = a if parent[a] == b else b
        c = y if y in cut_of else parent[y]
        bit = ix.vertex_bit[cut_of[c]]
        j = i if b == y else i + 1      # the element whose tail is y
        side, other = fam.elements[j], fam.elements[j ^ 1]
        invariant(side.vmask == rows[y] & ix.all_vertices
                  and side.emask == rows[y] >> n and side.bmask == bit,
                  "side is not the union of the regions beyond its edge", j)
        invariant(other.bmask == bit
                  and other.emask == ix.all_edges & ~side.emask
                  and other.vmask == ix.all_vertices & ~side.vmask | bit,
                  "paired element is not the complement",
                  {"element": j, "partner": j ^ 1})
        near, at = reach[y] & ix.all_vertices, reach[y] >> n
        invariant(not near & ~side.vmask and at == side.emask,
                  "interior of a side reaches outside it", j)
        edges = ix.incident(position[cut_of[c]])
        invariant(edges & side.emask and edges & ~side.emask,
                  "boundary vertex needs incident edges on both sides", j)
