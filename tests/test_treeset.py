import random
import time

import pytest

from planarblocks.blocks1 import b1_family
from planarblocks.blocks2 import triblock_tree
from planarblocks.errors import MalformedInput, NotNested
from planarblocks.graph import build_graph
from planarblocks.separation import make_separation, separation_complement
from planarblocks.treeset import (NestedFamily, StructureTree,
                                  build_structure_tree,
                                  verify_tree_correspondence)

from conftest import path_graph
from oracles import (directed_edge, family_from_sides, family_strict,
                     path_coherent, random_connected_graph, random_path_family,
                     random_two_connected_graph, sim_classes)


def _interval(host, lo, hi, n_edges):
    ea = [(i, i + 1) for i in range(lo, hi + 1)]
    border = {v for v in (lo, hi + 1) if 0 < v < n_edges}
    return make_separation(host, set(range(lo, hi + 2)), ea, border)


@pytest.fixture
def path8_family():
    host = build_graph(range(9), [(i, i + 1) for i in range(8)])
    sides = [_interval(host, 0, 3, 8), _interval(host, 0, 1, 8),
             _interval(host, 2, 3, 8), _interval(host, 4, 6, 8)]
    return host, family_from_sides(host, sides)


def test_family_from_sides_closes_under_complement(path8_family):
    host, fam = path8_family
    assert len(fam.elements) == 8
    for i, a in enumerate(fam.elements):
        partner = fam.elements[i ^ 1]
        assert partner.key == separation_complement(a).key


def test_family_rejects_broken_complement_map(k4e):
    a = make_separation(k4e, {0, 1, 2}, {(0, 2), (1, 2)}, {0, 1})
    with pytest.raises(MalformedInput):
        NestedFamily(k4e, [a, separation_complement(a), a])
    with pytest.raises(NotNested):
        NestedFamily(k4e, [a, a])
    # a valid separation on the same hinge, but not the other side of a
    b = make_separation(k4e, {0, 1, 3}, {(0, 3), (1, 3)}, {0, 1})
    assert b.key != separation_complement(a).key
    with pytest.raises(NotNested) as err:
        NestedFamily(k4e, [a, b])
    assert err.value.witness == {"element": 0, "partner": 1}


def test_family_rejects_crossing_pair(c6_chord):
    # corner sides around different hinges of the chorded cycle cross
    a = make_separation(c6_chord, {0, 1, 2}, {(0, 1), (1, 2)}, {0, 2})
    b = make_separation(c6_chord, {1, 2, 3}, {(1, 2), (2, 3)}, {1, 3})
    elements = [a, separation_complement(a), b, separation_complement(b)]
    with pytest.raises(NotNested):
        NestedFamily(c6_chord, elements)


def test_strict_orders_equal_subgraphs_by_pair_place(bowtie):
    fam = b1_family(bowtie)
    # elements 1 and 2 are the same subgraph; the even one lies below
    a, b = fam.elements[1], fam.elements[2]
    assert (a.va, a.ea) == (b.va, b.ea)
    assert fam.strict(2, 1)
    assert not fam.strict(1, 2)
    # a complement pair is never ordered, identical subgraphs or not
    assert not fam.strict(0, 1) or not fam.strict(1, 0)


def test_leq_reflexive_antisymmetric(path8_family):
    _, fam = path8_family
    n = len(fam.elements)
    for i in range(n):
        assert fam.leq(i, i)
        for j in range(n):
            if i != j:
                assert not (fam.strict(i, j) and fam.strict(j, i))


def test_structure_tree_bijection(path8_family):
    _, fam = path8_family
    tree = build_structure_tree(fam)
    assert tree.edge_count * 2 == len(fam.elements)
    assert tree.edge_count == tree.vertex_count - 1
    report = verify_tree_correspondence(tree)
    assert report["ok"], report["violations"]


def test_directed_edge_reversal_is_complement(path8_family):
    _, fam = path8_family
    tree = build_structure_tree(fam)
    for i in range(len(fam.elements)):
        a, b = directed_edge(tree, i)
        bc, ac = directed_edge(tree, i ^ 1)
        assert (a, b) == (ac, bc)


def test_order_coherence_on_tree(path8_family):
    _, fam = path8_family
    tree = build_structure_tree(fam)
    # A <= B iff walking from edge(A) toward edge(B) keeps direction
    n = len(fam.elements)
    for i in range(n):
        for j in range(n):
            assert fam.leq(i, j) == path_coherent(tree, i, j), (i, j)


def test_empty_family_single_vertex(k4):
    fam = NestedFamily(k4, [])
    tree = build_structure_tree(fam)
    assert tree.vertex_count == 1
    assert tree.edge_count == 0
    assert verify_tree_correspondence(tree)["ok"]


def test_b1_family_tree_classes(bowtie):
    fam = b1_family(bowtie)
    tree = build_structure_tree(fam)
    assert tree.classes == (frozenset({0, 2}), frozenset({1}), frozenset({3}))
    assert tree.edges == ((0, 1), (0, 2))
    assert verify_tree_correspondence(tree)["ok"]


def test_region_of_class(bowtie):
    fam = b1_family(bowtie)
    tree = build_structure_tree(fam)
    center = tree.region(0)
    assert center.vertices == (0,)
    assert center.edges == ()
    left = tree.region(1)
    assert left.vertices == (0, 1, 2)
    assert left.edges == ((0, 1), (0, 2), (1, 2))


def test_random_path_families_verify():
    rng = random.Random(20260815)
    for _ in range(25):
        fam = random_path_family(rng)
        assert len(fam.elements) <= 60
        tree = build_structure_tree(fam)
        report = verify_tree_correspondence(tree)
        assert report["ok"], report["violations"]


def _glued_two_connected(rng, parts=3):
    """Random 2-connected graphs glued along an edge or at a vertex.

    A lone random 2-connected graph is nearly always 3-connected or
    series-parallel, so its tri-block family is empty; the gluing seams
    give hinges and cut vertices.
    """
    g = random_two_connected_graph(rng)
    for _ in range(parts - 1):
        b = random_two_connected_graph(rng)
        rename = {w: w + max(g.vertices) + 1 for w in b.vertices}
        u, v = rng.choice(g.edges)
        x, y = rng.choice(b.edges)
        rename[x] = u
        if rng.random() < 0.7:
            rename[y] = v
        g = build_graph(set(g.vertices) | set(rename.values()),
                        list(g.edges) + [(rename[p], rename[q])
                                         for p, q in b.edges])
    return g


def _random_families(source, count):
    rng = random.Random("%s:20261018" % source)
    for _ in range(count):
        if source == "path":
            yield random_path_family(rng, max_elements=40)
        elif source == "blocks":
            yield b1_family(random_connected_graph(rng))
        else:
            yield triblock_tree(_glued_two_connected(rng)).family


@pytest.mark.parametrize("source", ["path", "blocks", "triblocks"])
def test_order_classes_and_coherence_match_oracles(source):
    for fam in _random_families(source, 20):
        n = len(fam.elements)
        for i in range(n):
            for j in range(n):
                assert fam.strict(i, j) == family_strict(fam, i, j), (i, j)
        tree = build_structure_tree(fam)
        # an empty family gives the one-vertex tree
        assert tree.classes == (sim_classes(fam) or (frozenset(),))
        coherent = all((i == j or family_strict(fam, i, j))
                       == path_coherent(tree, i, j)
                       for i in range(n) for j in range(n))
        report = verify_tree_correspondence(tree)
        assert report["ok"] == coherent, report["violations"]
        assert coherent


def _bowtie_tree(bowtie, classes):
    tree = build_structure_tree(b1_family(bowtie))
    assert tree.classes == (frozenset({0, 2}), frozenset({1}), frozenset({3}))
    return StructureTree(tree.family, classes)


def test_verify_reports_a_moved_element(bowtie):
    tree = _bowtie_tree(bowtie, classes=(frozenset({0}), frozenset({1, 2}),
                                         frozenset({3})))
    report = verify_tree_correspondence(tree)
    assert not report["ok"]
    assert "stored classes differ from recomputed ~-classes" \
        in report["violations"]
    assert "order/path mismatch for elements 0,3 (leq=True path=False)" \
        in report["violations"]
    assert not path_coherent(tree, 0, 3)


def test_verify_reports_a_disconnected_class_graph(bowtie):
    # the pair (2, 3) becomes a loop at class 2, so the edge count still
    # matches a tree while class 2 hangs apart
    tree = _bowtie_tree(bowtie, classes=(frozenset({0}), frozenset({1}),
                                         frozenset({2, 3})))
    report = verify_tree_correspondence(tree)
    assert not report["ok"]
    assert "tree is disconnected at class 2" in report["violations"]
    assert "edge count is not vertex count minus one" \
        not in report["violations"]


def test_path_200_tree_builds_and_verifies_fast():
    fam = b1_family(path_graph(200))
    assert len(fam.elements) == 792
    t0 = time.monotonic()
    tree = build_structure_tree(fam)
    report = verify_tree_correspondence(tree)
    elapsed = time.monotonic() - t0
    assert report["ok"], report["violations"][:3]
    assert tree.vertex_count == 199 + 198
    assert elapsed < 5.0, elapsed
