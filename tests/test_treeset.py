import json
import os
import random
import subprocess
import sys
import time
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from planarblocks import blocks2, cli, separation
from planarblocks.blocks1 import b1_family
from planarblocks.blocks2 import triblock_tree
from planarblocks.errors import InvariantViolated, MalformedInput, NotNested
from planarblocks.graph import Graph, build_graph, is_simple_cycle
from planarblocks.separation import (Separation, build_structure_tree,
                                     separation_complement)
from planarblocks.treeset import NestedFamily, certify_tree

from conftest import cycle_graph, fixture_path, g_of, path_graph
from oracles import (MaskOrder, all_separations, caterpillar, chorded_cycle,
                     directed_edge, family_from_sides, family_strict,
                     glued_blocks, make_separation, mask_family,
                     pairs_from_sides, path_coherent, random_connected_graph,
                     random_path_family, random_two_connected_graph,
                     sim_classes, spelled_out, tree_order,
                     verify_tree_correspondence)


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
        build_structure_tree(k4e, [a, separation_complement(a), a])
    with pytest.raises(NotNested):
        build_structure_tree(k4e, [a, a])
    # a valid separation on the same hinge, but not the other side of a
    b = make_separation(k4e, {0, 1, 3}, {(0, 3), (1, 3)}, {0, 1})
    assert b.key != separation_complement(a).key
    with pytest.raises(NotNested) as err:
        build_structure_tree(k4e, [a, b])
    assert err.value.witness == {"element": 0, "partner": 1}


def _paired(*sides):
    """Each side followed by its complement, from the masks alone."""
    out = []
    for t in sides:
        ix = t.host.index
        out += (t, Separation(t.host, ix.all_vertices & ~t.vmask | t.bmask,
                              ix.all_edges & ~t.emask, t.bmask))
    return out


def test_family_rejects_crossing_pair(c6_chord):
    # corner sides around different hinges of the chorded cycle cross
    a = make_separation(c6_chord, {0, 1, 2}, {(0, 1), (1, 2)}, {0, 2})
    b = make_separation(c6_chord, {1, 2, 3}, {(1, 2), (2, 3)}, {1, 3})
    with pytest.raises(NotNested):
        build_structure_tree(c6_chord, _paired(a, b))
    # two triangles and the path 1-0-5-2 on the hinge {1, 2}: the side of
    # triangle 1-2-3 with the edge 1-2 has its vertices inside the side
    # of both triangles without it, but not its edges
    g = g_of("1-2,1-3,2-3,1-4,2-4,0-1,0-5,2-5")
    a = make_separation(g, {1, 2, 3}, {(1, 2), (1, 3), (2, 3)}, {1, 2})
    b = make_separation(g, {1, 2, 3, 4}, {(1, 3), (2, 3), (1, 4), (2, 4)},
                        {1, 2})
    assert MaskOrder(_paired(a, b)).crossing() == (0, 2)
    with pytest.raises(NotNested) as err:
        build_structure_tree(g, _paired(a, b))
    assert err.value.witness == {"a": list(a.key), "b": list(b.key)}
    # built by hand, not by make_separation: a side of the path holding
    # vertex 1 but none of its edges has its one edge in the side
    # {2, 3, 4} and its vertices not
    p5 = path_graph(5)
    elements = _paired(Separation(p5, 0b11100, 0b1100, 0b100),
                       Separation(p5, 0b11010, 0b1000, 0b1000))
    assert MaskOrder(elements).crossing() == (0, 2)
    with pytest.raises(NotNested):
        build_structure_tree(p5, elements)


def test_equal_sides_nest_only_as_twins(k4e):
    # a side listed twice is nested with itself only as the twins of a
    # cut vertex are: the even one below the odd one
    a = make_separation(k4e, {0, 1, 2}, {(0, 2), (1, 2)}, {0, 1})
    ac = separation_complement(a)
    for elements in ([a, ac, a, ac], [ac, a, ac, a]):
        assert MaskOrder(elements).crossing() == (0, 2)
        with pytest.raises(NotNested):
            build_structure_tree(k4e, elements)
    twins = [a, ac, ac, a]
    assert MaskOrder(twins).crossing() is None
    assert build_structure_tree(k4e, twins).classes == \
        mask_family(k4e, twins).classes == \
        (frozenset({0, 2}), frozenset({1}), frozenset({3}))


def test_strict_orders_equal_subgraphs_by_pair_place(bowtie):
    elements = spelled_out(b1_family(bowtie)).elements
    order = MaskOrder(elements)
    # elements 1 and 2 are the same subgraph; the even one lies below
    a, b = elements[1], elements[2]
    assert (a.va, a.ea) == (b.va, b.ea)
    assert order.strict(2, 1)
    assert not order.strict(1, 2)
    # a complement pair is never ordered, identical subgraphs or not
    assert not order.strict(0, 1) or not order.strict(1, 0)


def test_leq_reflexive_antisymmetric(path8_family):
    _, fam = path8_family
    order = MaskOrder(fam.elements)
    n = len(fam.elements)
    for i in range(n):
        assert order.leq(i, i)
        for j in range(n):
            if i != j:
                assert not (order.strict(i, j) and order.strict(j, i))


def test_structure_tree_bijection(path8_family):
    _, fam = path8_family
    assert len(fam.edges) * 2 == len(fam.elements)
    assert len(fam.edges) == fam.vertex_count - 1
    report = verify_tree_correspondence(fam)
    assert report["ok"], report["violations"]


def test_directed_edge_reversal_is_complement(path8_family):
    _, fam = path8_family
    for i in range(len(fam.elements)):
        a, b = directed_edge(fam, i)
        bc, ac = directed_edge(fam, i ^ 1)
        assert (a, b) == (ac, bc)


def test_order_coherence_on_tree(path8_family):
    _, fam = path8_family
    order = MaskOrder(fam.elements)
    # A <= B iff walking from edge(A) toward edge(B) keeps direction
    n = len(fam.elements)
    for i in range(n):
        for j in range(n):
            assert order.leq(i, j) == path_coherent(fam, i, j), (i, j)


def test_empty_family_single_vertex(k4):
    fam = build_structure_tree(k4, [])
    assert fam.vertex_count == 1
    assert fam.edges == ()
    assert verify_tree_correspondence(fam)["ok"]


def _b1_sides(g):
    return spelled_out(b1_family(g)).elements


def test_b1_family_tree_classes(bowtie):
    fam = build_structure_tree(bowtie, _b1_sides(bowtie))
    assert fam.classes == (frozenset({0, 2}), frozenset({1}), frozenset({3}))
    assert fam.edges == ((0, 1), (0, 2))
    assert verify_tree_correspondence(fam)["ok"]


def test_region_of_class(bowtie):
    fam = build_structure_tree(bowtie, _b1_sides(bowtie))
    center = fam.regions[0]
    assert center.vertices == (0,)
    assert center.edges == ()
    left = fam.regions[1]
    assert left.vertices == (0, 1, 2)
    assert left.edges == ((0, 1), (0, 2), (1, 2))


def test_random_path_families_verify():
    rng = random.Random(20260815)
    for _ in range(25):
        fam = random_path_family(rng)
        assert len(fam.elements) <= 60
        report = verify_tree_correspondence(fam)
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
            g = random_connected_graph(rng)
            yield build_structure_tree(g, _b1_sides(g))
        else:
            yield spelled_out(triblock_tree(_glued_two_connected(rng)).family)


@pytest.mark.parametrize("source", ["path", "blocks", "triblocks"])
def test_order_classes_and_coherence_match_oracles(source):
    for fam in _random_families(source, 20):
        n = len(fam.elements)
        order = MaskOrder(fam.elements)
        for i in range(n):
            for j in range(n):
                assert order.strict(i, j) == family_strict(fam, i, j), (i, j)
        # an empty family gives the one-vertex tree
        assert fam.classes == (sim_classes(fam) or (frozenset(),))
        coherent = all((i == j or family_strict(fam, i, j))
                       == path_coherent(fam, i, j)
                       for i in range(n) for j in range(n))
        report = verify_tree_correspondence(fam)
        assert report["ok"] == coherent, report["violations"]
        assert coherent


def _bowtie_tree(bowtie, classes):
    fam = build_structure_tree(bowtie, _b1_sides(bowtie))
    assert fam.classes == (frozenset({0, 2}), frozenset({1}), frozenset({3}))
    return NestedFamily(bowtie, fam.elements, classes, fam.regions)


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
    host = path_graph(200)
    elements = _b1_sides(host)
    assert len(elements) == 792
    t0 = time.monotonic()
    fam = build_structure_tree(host, elements)
    report = verify_tree_correspondence(fam)
    elapsed = time.monotonic() - t0
    assert report["ok"], report["violations"][:3]
    assert fam.vertex_count == 199 + 198
    assert elapsed < 5.0, elapsed


# ---------------------------------------------------------------------------
# the containment build against the oracle order


def _family_of(source, rng):
    """(host, elements) of a random family of the given source."""
    if source == "path":
        fam = random_path_family(rng)
        return fam.host, fam.elements
    if source == "star":
        n = rng.randint(1, 9)
        g = build_graph(range(n + 1), [(0, i) for i in range(1, n + 1)])
    elif source == "bowtie":
        g = g_of("0-1,0-2,1-2,0-3,0-4,3-4")
    elif source == "caterpillar":
        g = caterpillar(rng, spine=rng.randint(2, 12), legs=rng.randint(1, 10))
    else:
        fam = spelled_out(triblock_tree(source(rng)).family)
        return fam.host, fam.elements
    return g, _b1_sides(g)


@settings(max_examples=120, deadline=None)
@given(st.sampled_from([glued_blocks, chorded_cycle,
                        random_two_connected_graph, random_connected_graph,
                        "path", "bowtie", "star", "caterpillar"]),
       st.integers(0, 2 ** 32))
def test_containment_tree_matches_the_oracle(source, seed):
    _assert_oracle_tree(*_family_of(source, random.Random(seed)))


def _assert_oracle_tree(host, elements):
    fam = build_structure_tree(host, elements)
    want = mask_family(host, elements)
    assert fam.classes == want.classes
    assert fam.regions == want.regions


def _hinge_family(rng):
    """(host, elements): the pairs of a few random hinge separations of a
    random 2-connected host that is not a cycle."""
    while True:
        g = random_two_connected_graph(rng, max_vertices=8)
        if is_simple_cycle(g) or len(g.vertices) < 4:
            continue
        seps = all_separations(g)
        if seps:
            k = rng.randint(1, min(6, len(seps)))
            return g, pairs_from_sides(rng.sample(seps, k))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2 ** 32))
def test_containment_tree_raises_exactly_on_a_crossing(seed):
    host, elements = _hinge_family(random.Random(seed))
    if MaskOrder(elements).crossing() is not None:
        with pytest.raises(NotNested):
            build_structure_tree(host, elements)
    else:
        _assert_oracle_tree(host, elements)


def test_random_hinge_families_cross_and_nest():
    rng = random.Random(23)
    crossed = [MaskOrder(_hinge_family(rng)[1]).crossing() is not None
               for _ in range(60)]
    assert any(crossed) and not all(crossed)


# ---------------------------------------------------------------------------
# the certificate of every structure tree


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([glued_blocks, chorded_cycle,
                        random_two_connected_graph, random_connected_graph]),
       st.integers(0, 2 ** 32))
def test_every_triblock_tree_is_certified(make, seed):
    tbt = triblock_tree(make(random.Random(seed)))
    certify_tree(tbt.family)
    fam = spelled_out(tbt.family)
    report = verify_tree_correspondence(fam)
    assert report["ok"], report["violations"]
    assert tree_order(fam) == MaskOrder(fam.elements).up


def test_triblocks_computes_the_classes_once(monkeypatch):
    # one counter behind both names, so a build reached through either
    # module is counted
    calls = []
    build = separation.build_structure_tree

    def counted(host, elements, *known):
        calls.append(elements)
        return build(host, elements, *known)
    monkeypatch.setattr(separation, "build_structure_tree", counted)
    monkeypatch.setattr(blocks2, "build_structure_tree", counted)
    code, out = cli.run(["triblocks", fixture_path("book_k4.edges")])
    assert code == 0, out
    assert len(calls) == 1


# (what is corrupted, the message the certificate reports)
HINGE_FAULTS = (
    ("hinge side short",
     "side is not the union of the regions beyond its edge"),
    ("torsos trade an edge",
     "side is not the union of the regions beyond its edge"),
    ("partner", "paired element is not the complement"),
    ("third shared vertex", "adjacent blocks do not meet in their boundary"),
    ("single-edge side", "hinge separation may not be a single edge"),
    ("host minus one edge side", "hinge separation may not be a single edge"),
    ("pair inside a class", "tree edges are not one per complement pair"))


def corrupted_hinge_trees():
    """(fault, family) for each fault of HINGE_FAULTS.  The first four
    change one thing in the tri-block tree of two K4s sharing the edge
    0-1: a bond {0, 1} with that edge, the root, and a torso on each
    side of it.  The fifth is a 4-cycle cut at its edge 0-1 into that
    edge and the rest, by hand, and the sixth the same pair swapped, so
    that the side checked is the rest, the host minus one edge.  The
    last merges the bond's class with the first torso's, so the pair
    between them joins a class to itself."""
    g = g_of("0-1,0-2,0-3,1-2,1-3,2-3,0-4,0-5,1-4,1-5,4-5")
    fam = triblock_tree(g).family
    elements, regions = list(fam.elements), list(fam.regions)
    assert regions[0] == Graph((0, 1), ((0, 1),))

    def rebuilt(elements=elements, regions=regions):
        return NestedFamily(g, elements, fam.classes, regions)
    a, b = elements[0], elements[1]
    left = regions[1]                   # the torso on 0, 1, 2, 3
    out = {"hinge side short": rebuilt(
        [Separation(g, a.vmask & ~(1 << 2), a.emask, a.bmask)]
        + elements[1:])}
    # a Graph holds the ends of its edges, so these are plain records
    out["torsos trade an edge"] = rebuilt(regions=[
        regions[0],
        SimpleNamespace(vertices=left.vertices,
                        edges=left.edges[:-1] + ((4, 5),)),
        SimpleNamespace(vertices=regions[2].vertices,
                        edges=regions[2].edges[:-1] + ((2, 3),))])
    out["partner"] = rebuilt(
        [a, Separation(g, b.vmask, b.emask & b.emask - 1, b.bmask)]
        + elements[2:])
    out["third shared vertex"] = rebuilt(
        regions=[Graph((0, 1, 2), ((0, 1),))] + regions[1:])
    c4 = cycle_graph(4)
    ix = c4.index
    edge = ix.edge_bit[(0, 1)]
    hinge = ix.vertex_bit[0] | ix.vertex_bit[1]
    lone = Separation(c4, hinge, edge, hinge)
    rest = Separation(c4, ix.all_vertices, ix.all_edges & ~edge, hinge)
    path = Graph(c4.vertices, tuple(e for e in c4.edges if e != (0, 1)))
    out["single-edge side"] = NestedFamily(
        c4, (lone, rest), (frozenset({0}), frozenset({1})),
        (path, Graph((0, 1), ((0, 1),))))
    out["host minus one edge side"] = NestedFamily(
        c4, (rest, lone), (frozenset({0}), frozenset({1})),
        (Graph((0, 1), ((0, 1),)), path))
    out["pair inside a class"] = NestedFamily(
        g, elements, (fam.classes[0] | fam.classes[1], fam.classes[2]),
        regions[:2])
    return [(fault, out[fault]) for fault, _ in HINGE_FAULTS]


def test_certificate_reports_each_hinge_corruption():
    certify_tree(triblock_tree(
        g_of("0-1,0-2,0-3,1-2,1-3,2-3,0-4,0-5,1-4,1-5,4-5")).family)
    for (fault, family), (_, message) in zip(corrupted_hinge_trees(),
                                             HINGE_FAULTS):
        with pytest.raises(InvariantViolated) as err:
            certify_tree(family)
        assert str(err.value) == message, fault
        if fault == "pair inside a class":
            # the counts go out as JSON ints, the loop (0, 0) an edge
            assert json.dumps(err.value.witness) == \
                '{"vertices": 2, "edges": 2, "elements": 4}'


HINGE_FAULTS_UNDER_O = """
import json, sys
sys.path.insert(0, sys.argv[1])
from test_treeset import corrupted_hinge_trees
from planarblocks.errors import InvariantViolated
from planarblocks.treeset import certify_tree
assert False, "this script must run under -O"
caught = []
for fault, family in corrupted_hinge_trees():
    try:
        certify_tree(family)
    except InvariantViolated as exc:
        caught.append([fault, str(exc)])
print(json.dumps(caught))
"""


def test_certificate_reports_each_hinge_corruption_under_dash_o():
    tests = os.path.dirname(__file__)
    src = os.path.join(os.path.dirname(tests), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-O", "-c", HINGE_FAULTS_UNDER_O,
                           tests], capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [list(f) for f in HINGE_FAULTS]
