import json
import os
import random
import subprocess
import sys
import time
from types import SimpleNamespace

import pytest

from planarblocks import blocks2, cli, treeset
from planarblocks.blocks1 import (BlockCutTree, b1_family, block_cut_tree,
                                  certify_block_cut_tree)
from planarblocks.errors import InvariantViolated, NotConnected
from planarblocks.graph import Graph, build_graph, cut_vertices
from planarblocks.separation import Separation
from planarblocks.treeset import NestedFamily

from conftest import (complete_graph, cycle_graph, fixture_path, g_of,
                      path_graph)
from oracles import (MaskOrder, cactus, caterpillar, glued_blocks,
                     edge_mask, lowpoint_blocks, mask_block_cut_tree,
                     one_boundary_family, random_connected_graph,
                     random_two_connected_graph, separating_sets,
                     separation_fault, tree_order, verify_tree_correspondence)


def test_cut_vertices_fixtures(bowtie, k4):
    assert cut_vertices(bowtie) == (0,)
    assert cut_vertices(k4) == ()
    assert cut_vertices(path_graph(4)) == (1, 2)
    bridge_tris = g_of("0-1,0-2,1-2,2-3,3-4,3-5,4-5")
    assert cut_vertices(bridge_tris) == (2, 3)


def test_cut_vertices_need_connected():
    with pytest.raises(NotConnected):
        cut_vertices(build_graph(range(4), [(0, 1), (2, 3)]))


def test_b1_family_bowtie(bowtie):
    fam = b1_family(bowtie)
    assert len(fam.elements) == 4
    keys = [s.key for s in fam.elements]
    assert keys[0] == ((0, 1, 2), ((0, 1), (0, 2), (1, 2)), (0,))
    assert keys[1] == ((0, 3, 4), ((0, 3), (0, 4), (3, 4)), (0,))
    # the two sides at the cut coincide as subgraphs; the minimal element
    # (even index) lies below its twin (odd index)
    assert keys[2] == keys[1] and keys[3] == keys[0]
    up = tree_order(fam)
    assert up[2] >> 1 & 1 and not up[1] >> 2 & 1
    assert up[0] >> 3 & 1 and not up[3] >> 0 & 1


def test_b1_family_two_connected_is_empty(k4, c6):
    assert len(b1_family(k4).elements) == 0
    assert len(b1_family(c6).elements) == 0


def test_b1_family_bridge_triangles():
    g = g_of("0-1,0-2,1-2,2-3,3-4,3-5,4-5")
    fam = b1_family(g)
    # two cut vertices, two components each: four sides, eight entries
    assert len(fam.elements) == 8
    assert len({(s.va, s.ea) for s in fam.elements}) == 4
    bct = block_cut_tree(g)
    assert bct.family.vertex_count == 5


def test_block_cut_tree_bowtie(bowtie):
    bct = block_cut_tree(bowtie)
    assert bct.family.vertex_count == 3
    assert bct.cut_classes == {0: 0}
    assert [b.edges for b in bct.blocks] == [
        ((0, 1), (0, 2), (1, 2)), ((0, 3), (0, 4), (3, 4))]
    assert bct.cuts == (0,)
    assert verify_tree_correspondence(bct.family)["ok"]


def test_block_cut_tree_path():
    bct = block_cut_tree(path_graph(4))
    assert bct.family.vertex_count == 5
    assert [b.edges for b in bct.blocks] == [((0, 1),), ((1, 2),), ((2, 3),)]
    assert bct.cuts == (1, 2)


def test_block_cut_tree_single_vertex():
    bct = block_cut_tree(build_graph([0], []))
    assert bct.family.vertex_count == 1
    assert len(bct.blocks) == 1
    assert bct.blocks[0].vertices == (0,)
    assert bct.cuts == ()


def test_block_cut_tree_two_connected(k4):
    bct = block_cut_tree(k4)
    assert bct.family.vertex_count == 1
    assert bct.blocks[0] == k4


def test_tree_is_bipartite_cut_block(book_k4):
    # the book does not reduce; hang one extra edge to get cut vertices
    g = g_of("0-1,0-2,0-3,1-2,1-3,2-3,0-4,0-5,1-4,1-5,4-5,"
             "2-6,2-7,2-8,6-7,6-8,7-8,8-9")
    bct = block_cut_tree(g)
    for a, b in bct.family.edges:
        assert (a in bct.cut_classes) != (b in bct.cut_classes)
        assert a in bct.block_classes or b in bct.block_classes


def test_blocks_match_lowpoint_oracle_random():
    rng = random.Random(99)
    for _ in range(40):
        g = random_connected_graph(rng, 12)
        bct = block_cut_tree(g)
        oracle_blocks, oracle_arts = lowpoint_blocks(g)
        mine = {frozenset(b.edges) for b in bct.blocks if b.edges}
        assert mine == oracle_blocks
        assert set(bct.cuts) == oracle_arts
        assert verify_tree_correspondence(bct.family)["ok"]


def test_edge_partition_over_blocks(book_k4):
    bct = block_cut_tree(book_k4)
    seen = {}
    for b in bct.blocks:
        for e in b.edges:
            assert e not in seen
            seen[e] = True
    assert set(seen) == book_k4.edge_set


def _cut_hosts():
    rng = random.Random("b1-family-masks")
    for _ in range(30):
        yield random_connected_graph(rng)
    for _ in range(15):
        yield glued_blocks(rng)
    for _ in range(15):
        yield caterpillar(rng)


def test_b1_family_matches_set_definition():
    for g in _cut_hosts():
        fam = b1_family(g)
        assert [s.key for s in fam.elements] == one_boundary_family(g)
        for s in fam.elements:
            assert separation_fault(g, s.va, s.ea, s.boundary) is None
        assert cut_vertices(g) == tuple(c for (c,), _ in separating_sets(g, 1))


def test_path_800_b1_family_is_fast():
    g = path_graph(800)
    t0 = time.monotonic()
    fam = b1_family(g)
    elapsed = time.monotonic() - t0
    assert len(fam.elements) == 4 * 798
    assert elapsed < 3.0, elapsed


def _oracle_hosts():
    rng = random.Random("dfs-tree-oracle")
    for _ in range(30):
        yield random_connected_graph(rng)
    for _ in range(10):
        yield glued_blocks(rng)
        yield caterpillar(rng)
        yield cactus(rng)
        yield random_two_connected_graph(rng)
    yield build_graph([0], [])                              # one vertex
    yield build_graph([0, 1], [(0, 1)])                     # K2
    yield complete_graph(4)
    yield cycle_graph(6)
    for n in (2, 3, 7):                                     # stars K1,n
        yield build_graph(range(n + 1), [(0, i) for i in range(1, n + 1)])
    yield path_graph(3)                                     # one twin pair
    yield g_of("0-1,0-2,1-2,0-3,0-4,3-4")                   # the bowtie


def test_dfs_tree_matches_the_mask_built_tree():
    for g in _oracle_hosts():
        bct = block_cut_tree(g)
        certify_block_cut_tree(bct)
        family, cuts, blocks = mask_block_cut_tree(g)
        assert [s.key for s in bct.family.elements] == \
            [s.key for s in family.elements]
        assert tree_order(bct.family) == MaskOrder(family.elements).up
        assert bct.family.classes == family.classes
        assert bct.family.edges == family.edges
        assert bct.cut_classes == cuts
        assert bct.block_classes == blocks
        assert verify_tree_correspondence(bct.family)["ok"]


# (what is corrupted, the message the certificate reports)
FAULTS = (
    ("short side", "side is not the union of the regions beyond its edge"),
    ("edge in two blocks", "edge in two blocks"),
    ("block without edge", "block without an edge"),
    ("partner", "paired element is not the complement"),
    ("cut next to cut", "cut class adjacent to a cut class"),
    ("cut vertex twice", "a cut vertex has two tree vertices"),
    ("swapped", "side is not the union of the regions beyond its edge"),
    ("cut outside its block", "cut vertex not in an adjacent block"),
    ("stray vertex", "block is not a subgraph of the host"),
    ("vertex in two blocks", "regions share more than cut vertices"),
    ("other host", "family lives on another host"),
    ("blocks swap edges", "interior of a side reaches outside it"),
    ("host in two pieces",
     "boundary vertex needs incident edges on both sides"),
    ("one block short", "the one block is not the host"),
    ("lone vertex", "blocks do not cover the host vertices"),
    ("cycle of classes", "tree is disconnected"))


def _region(vertices, *edges):
    return SimpleNamespace(vertices=vertices, edges=edges,
                           vertex_set=frozenset(vertices))


def _put(items, i, item):
    return items[:i] + [item] + items[i + 1:]


def corrupted_trees():
    """(fault, tree) for each fault of FAULTS.  Most change one thing in
    the block-cut tree of two triangles joined by a bridge, whose tree
    is rooted at the cut 2, the class of element 0.  The last five are
    wrong throughout: the path 0-1-2 with the edges of its blocks
    swapped, sides and all; a triangle and an edge apart, glued at 1 by
    hand; the path's tree on a host with one more vertex; K4 as one
    block without one of its edges; and classes whose pairs close a
    cycle."""
    g = g_of("0-1,0-2,1-2,2-3,3-4,3-5,4-5")
    fam = b1_family(g)
    classes = fam.classes
    elements, regions = list(fam.elements), list(fam.regions)
    tri = fam.class_of[1]               # the triangle 0-1-2 under the root
    bridge = regions.index(Graph((2, 3), ((2, 3),)))

    def rebuilt(elements=elements, regions=regions, host=g):
        return BlockCutTree(g, NestedFamily(host, elements, classes, regions))
    a, b = elements[0], elements[1]
    out = {"short side": rebuilt(
        _put(elements, 0, Separation(g, a.vmask & ~1, a.emask, a.bmask)))}
    out["edge in two blocks"] = rebuilt(regions=_put(regions, tri, Graph(
        (0, 1, 2, 3), regions[tri].edges + ((2, 3),))))
    out["block without edge"] = rebuilt(
        regions=_put(regions, bridge, Graph((2, 3), ())))
    out["partner"] = rebuilt(_put(elements, 1, Separation(
        g, b.vmask, b.emask & b.emask - 1, b.bmask)))
    out["cut next to cut"] = rebuilt(
        regions=_put(regions, bridge, Graph((0,), ())))
    out["cut vertex twice"] = rebuilt(
        regions=_put(regions, bridge, Graph((2,), ())))
    out["swapped"] = rebuilt([elements[2], elements[1], elements[0]]
                             + elements[3:])
    out["cut outside its block"] = rebuilt(
        regions=_put(regions, tri, Graph((0, 1), ((0, 1),))))
    out["stray vertex"] = rebuilt(regions=_put(regions, bridge, Graph(
        (2, 3, 9), ((2, 3),))))
    out["vertex in two blocks"] = rebuilt(regions=_put(regions, tri, Graph(
        (0, 1, 2, 4), regions[tri].edges)))
    out["other host"] = rebuilt(host=Graph(g.vertices + (9,), g.edges))
    # a Graph holds the ends of its edges, so these two regions are
    # plain records; the path's edges are bits 0 and 1 of an edge mask
    p3 = path_graph(3)
    fam = b1_family(p3)
    swap = [Separation(p3, s.vmask, (s.emask & 1) << 1 | s.emask >> 1,
                       s.bmask) for s in fam.elements]
    out["blocks swap edges"] = BlockCutTree(p3, NestedFamily(
        p3, swap, fam.classes, (Graph((1,), ()), _region((0, 1), (1, 2)),
                                _region((1, 2), (0, 1)))))
    lone = Graph(p3.vertices + (3,), p3.edges)
    out["lone vertex"] = BlockCutTree(lone, NestedFamily(
        lone, fam.elements, fam.classes, fam.regions))
    apart = g_of("0-1,1-2,0-2,3-4")
    side, rest = ((0, 1, 2), ((0, 1), (0, 2), (1, 2))), ((1, 3, 4), ((3, 4),))
    ix = apart.index
    sides = [Separation(apart, ix.vertex_mask(vs), edge_mask(ix, es)[0],
                        ix.vertex_bit[1])
             for vs, es in (side, rest, rest, side)]
    out["host in two pieces"] = BlockCutTree(apart, NestedFamily(
        apart, sides, (frozenset({0, 2}), frozenset({1}), frozenset({3})),
        (Graph((1,), ()), Graph(*side), Graph(*rest))))
    k4 = complete_graph(4)
    out["one block short"] = BlockCutTree(k4, NestedFamily(
        k4, (), (frozenset(),), (Graph(k4.vertices, k4.edges[1:]),)))
    # four pairs around the cycle cut 0, block, cut 2, block; a fifth,
    # empty class keeps the edge count one short of the class count
    c4 = cycle_graph(4)
    dummy = Separation(c4, 1, 1, 1)
    out["cycle of classes"] = BlockCutTree(c4, NestedFamily(
        c4, [dummy] * 8, [frozenset(c) for c in
                          ({0, 7}, {1, 2}, {3, 4}, {5, 6}, ())],
        (Graph((0,), ()), Graph((0, 1, 2), ((0, 1), (1, 2))), Graph((2,), ()),
         Graph((0, 2, 3), ((0, 3), (2, 3))), Graph((1,), ()))))
    return [(fault, out[fault]) for fault, _ in FAULTS]


def test_certificate_reports_each_corruption():
    certify_block_cut_tree(block_cut_tree(g_of("0-1,0-2,1-2,2-3,3-4,3-5,4-5")))
    for (fault, bct), (_, message) in zip(corrupted_trees(), FAULTS):
        with pytest.raises(InvariantViolated) as err:
            certify_block_cut_tree(bct)
        assert str(err.value) == message, fault


FAULTS_UNDER_O = """
import json, sys
sys.path.insert(0, sys.argv[1])
from test_blocks1 import corrupted_trees
from planarblocks.blocks1 import certify_block_cut_tree
from planarblocks.errors import InvariantViolated
assert False, "this script must run under -O"
caught = []
for fault, bct in corrupted_trees():
    try:
        certify_block_cut_tree(bct)
    except InvariantViolated as exc:
        caught.append([fault, str(exc)])
print(json.dumps(caught))
"""


def test_certificate_reports_each_corruption_under_dash_o():
    tests = os.path.dirname(__file__)
    src = os.path.join(os.path.dirname(tests), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-O", "-c", FAULTS_UNDER_O, tests],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [list(f) for f in FAULTS]


def _cactus_of_squares(k):
    """k 4-cycles, each hung at the far corner of the one before."""
    edges, top = [], 0
    for i in range(k):
        ring = [top, 3 * i + 1, 3 * i + 2, 3 * i + 3]
        edges += [(ring[j], ring[(j + 1) % 4]) for j in range(4)]
        top = ring[2]
    return build_graph(range(3 * k + 1), edges)


@pytest.mark.parametrize("host, blocks", [(path_graph(3200), 3199),
                                         (_cactus_of_squares(1000), 1000)],
                         ids=["path-3200", "cactus-1000"])
def test_block_cut_tree_and_certificate_scale(host, blocks):
    t0 = time.monotonic()
    bct = block_cut_tree(host)
    certify_block_cut_tree(bct)
    elapsed = time.monotonic() - t0
    assert len(bct.blocks) == blocks
    assert elapsed < 2.0, elapsed


def test_blocks_command_computes_no_mask_order(monkeypatch):
    def refuse(*args):
        raise AssertionError("a tree was built by containment")
    monkeypatch.setattr(treeset, "build_structure_tree", refuse)
    monkeypatch.setattr(blocks2, "build_structure_tree", refuse)
    for name in ("bowtie.edges", "book_k4.edges", "path4.edges"):
        code, out = cli.run(["blocks", fixture_path(name), "--format",
                             "json"])
        assert code == 0, out
        assert json.loads(out)["cut_vertices"]
