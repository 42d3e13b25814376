import random
import time

import pytest

from planarblocks.blocks1 import b1_family, block_cut_tree
from planarblocks.errors import NotConnected
from planarblocks.graph import build_graph, cut_vertices
from planarblocks.treeset import verify_tree_correspondence

from conftest import g_of, path_graph
from oracles import (caterpillar, glued_blocks, lowpoint_blocks,
                     one_boundary_family, random_connected_graph,
                     separating_sets, separation_fault)


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
    assert fam.strict(2, 1) and not fam.strict(1, 2)
    assert fam.strict(0, 3) and not fam.strict(3, 0)


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
    assert bct.tree.vertex_count == 5


def test_block_cut_tree_bowtie(bowtie):
    bct = block_cut_tree(bowtie)
    assert bct.tree.vertex_count == 3
    assert bct.cut_classes == {0: 0}
    assert [b.edges for b in bct.blocks] == [
        ((0, 1), (0, 2), (1, 2)), ((0, 3), (0, 4), (3, 4))]
    assert bct.cuts == (0,)
    assert verify_tree_correspondence(bct.tree)["ok"]


def test_block_cut_tree_path():
    bct = block_cut_tree(path_graph(4))
    assert bct.tree.vertex_count == 5
    assert [b.edges for b in bct.blocks] == [((0, 1),), ((1, 2),), ((2, 3),)]
    assert bct.cuts == (1, 2)


def test_block_cut_tree_single_vertex():
    bct = block_cut_tree(build_graph([0], []))
    assert bct.tree.vertex_count == 1
    assert len(bct.blocks) == 1
    assert bct.blocks[0].vertices == (0,)
    assert bct.cuts == ()


def test_block_cut_tree_two_connected(k4):
    bct = block_cut_tree(k4)
    assert bct.tree.vertex_count == 1
    assert bct.blocks[0] == k4


def test_tree_is_bipartite_cut_block(book_k4):
    # the book does not reduce; hang one extra edge to get cut vertices
    g = g_of("0-1,0-2,0-3,1-2,1-3,2-3,0-4,0-5,1-4,1-5,4-5,"
             "2-6,2-7,2-8,6-7,6-8,7-8,8-9")
    bct = block_cut_tree(g)
    for ci in bct.cut_classes:
        for cj in bct.tree.neighbors(ci):
            assert cj in bct.block_classes


def test_blocks_match_lowpoint_oracle_random():
    rng = random.Random(99)
    for _ in range(40):
        g = random_connected_graph(rng, 12)
        bct = block_cut_tree(g)
        oracle_blocks, oracle_arts = lowpoint_blocks(g)
        mine = {frozenset(b.edges) for b in bct.blocks if b.edges}
        assert mine == oracle_blocks
        assert set(bct.cuts) == oracle_arts
        assert verify_tree_correspondence(bct.tree)["ok"]


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
