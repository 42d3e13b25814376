import json
import os
import random
import subprocess
import sys
import time
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from planarblocks import blocks1, cli
from planarblocks.blocks1 import (BlockCutTree, b1_family, block_cut_tree,
                                  certify_block_cut_tree)
from planarblocks.errors import InvariantViolated, NotConnected
from planarblocks.graph import Graph, build_graph, cut_vertices
from planarblocks.treeset import NestedFamily

from conftest import (FIXTURES, complete_graph, cycle_graph, fixture_path,
                      g_of, path_graph)
from oracles import (MaskOrder, cactus, caterpillar, format_edge_list,
                     glued_blocks, lowpoint_blocks, mask_block_cut_tree,
                     one_boundary_family, random_connected_graph,
                     random_two_connected_graph, separating_sets,
                     separation_fault, spelled_out, tree_order,
                     verify_tree_correspondence)


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
    assert b1_family(bowtie).elements == (
        (1, 2, False, (0,)), (1, 2, True, (0,)),
        (2, 3, False, (0,)), (2, 3, True, (0,)))
    fam = spelled_out(b1_family(bowtie))
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
    fam = spelled_out(b1_family(g))
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
    assert verify_tree_correspondence(spelled_out(bct.family))["ok"]


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
        assert verify_tree_correspondence(spelled_out(bct.family))["ok"]


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
        fam = spelled_out(b1_family(g))
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
        assert [s.key for s in spelled_out(bct.family).elements] == \
            [s.key for s in family.elements]
        assert tree_order(bct.family) == MaskOrder(family.elements).up
        assert bct.family.classes == family.classes
        assert bct.family.edges == family.edges
        assert bct.cut_classes == cuts
        assert bct.block_classes == blocks
        assert verify_tree_correspondence(spelled_out(bct.family))["ok"]


def _random_tree(rng, n):
    return build_graph(range(n), [(rng.randrange(i), i) for i in range(1, n)])


HOST_KINDS = {
    "path": lambda rng: path_graph(rng.randint(1, 40)),
    "cactus": lambda rng: cactus(rng, rng.randint(0, 8)),
    "caterpillar": lambda rng: caterpillar(rng, rng.randint(2, 12),
                                           rng.randint(0, 10)),
    "tree": lambda rng: _random_tree(rng, rng.randint(1, 40)),
    "connected": random_connected_graph}


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(HOST_KINDS)), st.integers(0, 2 ** 32))
def test_interval_sides_match_the_mask_oracles(kind, seed):
    # the interval sides, spelled out on sets, are the sides of the mask
    # build and of the set definition, element by element, and the tree,
    # its order and its blocks are theirs
    g = HOST_KINDS[kind](random.Random(seed))
    bct = block_cut_tree(g)
    certify_block_cut_tree(bct)
    fam = spelled_out(bct.family)
    family, cuts, blocks = mask_block_cut_tree(g)
    keys = [s.key for s in fam.elements]
    assert keys == [s.key for s in family.elements] == one_boundary_family(g)
    assert tree_order(bct.family) == MaskOrder(fam.elements).up \
        == MaskOrder(family.elements).up
    assert bct.family.classes == family.classes
    assert bct.family.edges == family.edges
    assert bct.family.regions == family.regions
    assert bct.cut_classes == cuts and bct.block_classes == blocks
    if g.edges:
        want_blocks, want_cuts = lowpoint_blocks(g)
        assert {frozenset(b.edges) for b in bct.blocks} == want_blocks
        assert set(bct.cuts) == want_cuts


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
    is rooted at the cut 2, the class of element 0, with its classes in
    preorder 0, 1, 2, 3, 4: element 0 is the triangle 0-1-2 at place 1,
    and element 2 the bridge and beyond, places 2 to 4.  The sides are in
    the interval form (lo, hi, out, boundary).  The last five are wrong
    throughout: the path 0-1-2 with the edges of its blocks swapped; a
    triangle and an edge apart, glued at 1 by hand; the path's tree on a
    host with one more vertex; K4 as one block without one of its
    edges; and classes whose pairs close a cycle."""
    g = g_of("0-1,0-2,1-2,2-3,3-4,3-5,4-5")
    fam = b1_family(g)
    classes = fam.classes
    elements, regions = list(fam.elements), list(fam.regions)
    assert elements[:4] == [(1, 2, False, (2,)), (1, 2, True, (2,)),
                            (2, 5, False, (2,)), (2, 5, True, (2,))]
    tri = fam.class_of[1]               # the triangle 0-1-2 under the root
    bridge = regions.index(Graph((2, 3), ((2, 3),)))

    def rebuilt(elements=elements, regions=regions, host=g):
        return BlockCutTree(g, NestedFamily(host, elements, classes, regions))
    out = {"short side": rebuilt(_put(elements, 0, (1, 1, False, (2,))))}
    out["edge in two blocks"] = rebuilt(regions=_put(regions, tri, Graph(
        (0, 1, 2, 3), regions[tri].edges + ((2, 3),))))
    out["block without edge"] = rebuilt(
        regions=_put(regions, bridge, Graph((2, 3), ())))
    out["partner"] = rebuilt(_put(elements, 1, (1, 2, False, (2,))))
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
    # plain records; the intervals follow the tree, not the regions
    p3 = path_graph(3)
    fam = b1_family(p3)
    out["blocks swap edges"] = BlockCutTree(p3, NestedFamily(
        p3, fam.elements, fam.classes, (
            Graph((1,), ()), _region((0, 1), (1, 2)),
            _region((1, 2), (0, 1)))))
    lone = Graph(p3.vertices + (3,), p3.edges)
    out["lone vertex"] = BlockCutTree(lone, NestedFamily(
        lone, fam.elements, fam.classes, fam.regions))
    apart = g_of("0-1,1-2,0-2,3-4")
    side, rest = ((0, 1, 2), ((0, 1), (0, 2), (1, 2))), ((1, 3, 4), ((3, 4),))
    # the triangle at place 1 and the edge at place 2, both below the cut
    out["host in two pieces"] = BlockCutTree(apart, NestedFamily(
        apart, [(1, 2, False, (1,)), (1, 2, True, (1,)),
                (2, 3, False, (1,)), (2, 3, True, (1,))],
        (frozenset({0, 2}), frozenset({1}), frozenset({3})),
        (Graph((1,), ()), Graph(*side), Graph(*rest))))
    k4 = complete_graph(4)
    out["one block short"] = BlockCutTree(k4, NestedFamily(
        k4, (), (frozenset(),), (Graph(k4.vertices, k4.edges[1:]),)))
    # four pairs around the cycle cut 0, block, cut 2, block; a fifth,
    # empty class keeps the edge count one short of the class count
    c4 = cycle_graph(4)
    dummy = (0, 1, False, (0,))
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
    # the family is read off the tree once, in the interval form, and no
    # order of its sides is computed
    built = []
    read = blocks1.family_of_tree

    def counted(host, pairs, regions):
        built.append(read(host, pairs, regions))
        return built[-1]
    monkeypatch.setattr(blocks1, "family_of_tree", counted)
    for name in ("bowtie.edges", "book_k4.edges", "path4.edges"):
        built.clear()
        code, out = cli.run(["blocks", fixture_path(name), "--format",
                             "json"])
        assert code == 0, out
        assert json.loads(out)["cut_vertices"]
        (fam,) = built
        assert all(type(e) is tuple and len(e) == 4 for e in fam.elements)


# runs each command line read from stdin; prints each exit code with
# whether the output refuses a disconnected host, then the loaded
# modules named after separations
SEPARATION_LOADED = """
import json, sys
from planarblocks.cli import run
outs = [run(argv) for argv in json.loads(sys.stdin.read())]
print(json.dumps([[[code, "not-connected" in out] for code, out in outs],
                  [m for m in sys.modules if "separation" in m]]))
"""


def test_blocks_command_builds_no_mask(tmp_path):
    # every side is an interval of its tree's preorder, so the package
    # has no mask layer: no command loads a separation module, and the
    # blocks command answers on every host with memory linear in it
    files = sorted(os.path.join(FIXTURES, name) for name in os.listdir(FIXTURES)
                   if name.endswith(".edges"))
    rng = random.Random("no-mask")
    hosts = [path_graph(n) for n in (2, 3, 40, 1000)]
    hosts += [cactus(rng) for _ in range(5)]
    hosts += [caterpillar(rng) for _ in range(5)]
    hosts += [_random_tree(rng, n) for n in (5, 60, 2000)]
    hosts += [_cactus_of_squares(300)]
    for i, g in enumerate(hosts):
        files.append(str(tmp_path / ("host%d.edges" % i)))
        with open(files[-1], "w", encoding="utf-8") as fh:
            fh.write(format_edge_list(g))
    argvs = [["blocks", path, "--format", "json"] + extra for path in files
             for extra in ([], ["--per-component"], ["--reduce"])]
    argvs += [[cmd, fixture_path("book_k4.edges")] for cmd in
              ("triblocks", "planar", "faces", "autos", "quotient", "check")]
    argvs.append(["cayley", fixture_path("d3.pres")])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(os.path.dirname(FIXTURES), os.pardir, "src"),
                    env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", SEPARATION_LOADED],
                          input=json.dumps(argvs), capture_output=True,
                          text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    outcomes, loaded = json.loads(proc.stdout)
    assert loaded == []
    for argv, (code, refused) in zip(argvs, outcomes):
        assert code == 0 or refused, argv
    assert sorted({argv[0] for argv in argvs}) == sorted(cli.COMMANDS)
