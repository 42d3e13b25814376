"""Hinge separations, the enlargement engine, torsos, and the
combined cut-point / cycle / 3-connected tree."""

import random
import time

import pytest

from planarblocks import (
    NestedFamily,
    all_separations,
    b1_family,
    build_graph,
    build_nested_family,
    build_structure_tree,
    enumerate_separations_at,
    make_separation,
    minimal_separation_containing,
    nested,
    separation_complement,
    torso,
    triblock_tree,
    verify_tree_correspondence,
)
from planarblocks.graph import is_simple_cycle
from planarblocks.blocks2 import (
    KIND_CUT_POINT,
    KIND_CYCLE,
    KIND_THREE_CONNECTED,
    _lift_torso_separation,
)
from planarblocks.errors import (
    HingeVertex,
    MalformedInput,
    NoSeparationExists,
    NotConnected,
    NotNested,
    PreconditionViolated,
)

from conftest import g_of, k4_book
from oracles import edge_subset_separations, random_two_connected_graph


# ---------------------------------------------------------------------------
# enumeration against the brute-force oracle


def test_k4e_enumerate_at_vertex(k4e):
    keys = tuple(s.sort_key() for s in enumerate_separations_at(k4e, 0))
    assert keys == (
        (2, ((0, 2), (1, 2)), (0, 1)),
        (2, ((0, 3), (1, 3)), (0, 1)),
        (3, ((0, 1), (0, 2), (1, 2)), (0, 1)),
        (3, ((0, 1), (0, 3), (1, 3)), (0, 1)),
    )


def test_k4e_all_separations_frozen(k4e):
    keys = sorted(s.sort_key() for s in all_separations(k4e))
    assert keys == [
        (2, ((0, 2), (1, 2)), (0, 1)),
        (2, ((0, 3), (1, 3)), (0, 1)),
        (3, ((0, 1), (0, 2), (1, 2)), (0, 1)),
        (3, ((0, 1), (0, 3), (1, 3)), (0, 1)),
    ]


def test_all_separations_matches_edge_subset_oracle():
    rng = random.Random(404)
    for _ in range(30):
        g = random_two_connected_graph(rng, max_vertices=7)
        if len(g.vertices) < 4 or is_simple_cycle(g):
            continue
        got = sorted(s.sort_key() for s in all_separations(g))
        want = sorted(
            (len(ea), tuple(sorted(ea)), tuple(sorted(border)))
            for va, ea, border in edge_subset_separations(g, boundary_size=2))
        assert got == want, g.edges


def test_all_separations_closed_under_complement():
    rng = random.Random(405)
    for _ in range(20):
        g = random_two_connected_graph(rng, max_vertices=8)
        if len(g.vertices) < 4 or is_simple_cycle(g):
            continue
        keys = {s.sort_key() for s in all_separations(g)}
        for s in all_separations(g):
            assert separation_complement(s).sort_key() in keys


def test_minimal_separation_frozen(k4e, twosquares):
    assert minimal_separation_containing(k4e, 0).sort_key() == \
        (2, ((0, 2), (1, 2)), (0, 1))
    # the theta graph: smallest side holding vertex 0 is a corner path
    assert minimal_separation_containing(twosquares, 0).sort_key() == \
        (2, ((0, 2), (2, 3)), (0, 3))
    assert len(all_separations(twosquares)) == 12


def test_minimal_separation_matches_edge_subset_oracle():
    rng = random.Random(406)
    checked = 0
    for _ in range(30):
        g = random_two_connected_graph(rng, max_vertices=7)
        if len(g.vertices) < 4 or is_simple_cycle(g):
            continue
        sides = edge_subset_separations(g, boundary_size=2)
        for x0 in g.vertices:
            cands = [c for c in sides if x0 in c[0]]
            minimal = [c for c in cands
                       if not any(d != c and d[0] <= c[0] and d[1] <= c[1]
                                  for d in cands)]
            if not minimal:
                with pytest.raises(NoSeparationExists):
                    minimal_separation_containing(g, x0)
                continue
            want = min((len(ea), tuple(sorted(ea)), tuple(sorted(border)))
                       for va, ea, border in minimal)
            assert minimal_separation_containing(g, x0).sort_key() == want, \
                (g.edges, x0)
            checked += 1
    assert checked >= 30


def test_sixteen_page_book_triblock_tree_is_fast():
    # 34 vertices; enumerating every hinge side would take about 31 s
    book = k4_book(16)
    t0 = time.monotonic()
    t = triblock_tree(book, max_aut=34)
    elapsed = time.monotonic() - t0
    assert t.vertex_count == 17
    assert elapsed < 2.0, elapsed


def test_minimal_separation_contains_vertex(prism, k4e):
    s = minimal_separation_containing(k4e, 3)
    assert 3 in s.va
    with pytest.raises(NoSeparationExists):
        minimal_separation_containing(prism, 0)


def test_k4_has_no_hinge_separations(k4):
    assert enumerate_separations_at(k4, 0) == ()
    assert all_separations(k4) == ()
    with pytest.raises(NoSeparationExists):
        minimal_separation_containing(k4, 0)


def test_all_separations_requires_connected():
    disc = build_graph((0, 1, 2, 3), ((0, 1), (2, 3)))
    with pytest.raises(NotConnected):
        all_separations(disc)


# ---------------------------------------------------------------------------
# nested() inclusion reporting


def test_nested_reports_inclusions(k4e):
    a = make_separation(k4e, (0, 1, 2), ((0, 2), (1, 2)), (0, 1))
    b = make_separation(k4e, (0, 1, 3), ((0, 3), (1, 3)), (0, 1))
    assert nested(a, b) == ("A<=B*",)
    assert nested(b, a) == ("A<=B*",)
    assert nested(a, a) == ("A<=B", "A*<=B*")
    assert nested(a, separation_complement(a)) == ("A<=B*", "A*<=B")


def test_nested_crossing_pair_is_empty(c6):
    x = make_separation(c6, (0, 1, 2, 3),
                        ((0, 1), (1, 2), (2, 3)), (0, 3))
    y = make_separation(c6, (0, 1, 2, 5),
                        ((0, 5), (0, 1), (1, 2)), (2, 5))
    assert nested(x, y) == ()
    assert nested(y, x) == ()


def test_nested_requires_same_host(c6, c6_chord):
    x = make_separation(c6, (0, 1, 2, 3), ((0, 1), (1, 2), (2, 3)), (0, 3))
    y = make_separation(c6_chord, (0, 1, 2, 3),
                        ((0, 1), (1, 2), (2, 3)), (0, 3))
    with pytest.raises(MalformedInput):
        nested(x, y)


# ---------------------------------------------------------------------------
# the enlargement engine on 2-connected hosts


def test_build_family_k4e_frozen(k4e):
    fam = build_nested_family(k4e)
    assert tuple(e.sort_key() for e in fam.elements) == (
        (2, ((0, 2), (1, 2)), (0, 1)),
        (3, ((0, 1), (0, 3), (1, 3)), (0, 1)),
        (2, ((0, 3), (1, 3)), (0, 1)),
        (3, ((0, 1), (0, 2), (1, 2)), (0, 1)),
    )
    assert fam.comp == (1, 0, 3, 2)
    assert fam.rank == (0, 1, 0, 1)
    tree = build_structure_tree(fam)
    assert tree.classes == (frozenset({0, 2}), frozenset({1}), frozenset({3}))
    assert tree.pairs == ((0, 1), (2, 3))
    assert verify_tree_correspondence(tree)["ok"]


def test_k4e_torsos(k4e):
    tree = build_structure_tree(build_nested_family(k4e))
    hinge = torso(k4e, tree, 0)
    assert hinge.z.vertices == (0, 1)
    assert hinge.z.edges == ((0, 1),)
    assert hinge.virtual_edges == ()
    tri = torso(k4e, tree, 1)
    assert tri.z_prime.edges == ((0, 2), (1, 2))
    assert tri.virtual_edges == ((0, 1),)
    assert tri.z.edges == ((0, 1), (0, 2), (1, 2))
    assert tri.witness_paths == {(0, 1): (0, 1)}


def test_build_family_c5chord(c5_chord):
    fam = build_nested_family(c5_chord)
    assert len(fam.elements) == 2
    tree = build_structure_tree(fam)
    assert tree.vertex_count == 2
    square = torso(c5_chord, tree, 0)
    assert square.z.edges == ((0, 2), (0, 4), (2, 3), (3, 4))
    assert square.virtual_edges == ()
    tri = torso(c5_chord, tree, 1)
    assert tri.z.edges == ((0, 1), (0, 2), (1, 2))
    assert tri.virtual_edges == ((0, 2),)
    assert tri.witness_paths == {(0, 2): (0, 2)}


def test_build_family_two_squares_sharing_a_pair():
    # two 4-cycles glued along a non-adjacent vertex pair: the hinge
    # class owns no host edge, so its torso is a purely virtual K2
    g = g_of("0-2,1-2,0-3,1-3,0-4,1-4,0-5,1-5")
    fam = build_nested_family(g)
    assert len(fam.elements) == 8
    tree = build_structure_tree(fam)
    assert tree.vertex_count == 5
    hub = torso(g, tree, 0)
    assert hub.z_prime.edges == ()
    assert hub.virtual_edges == ((0, 1),)
    assert hub.z.vertices == (0, 1)
    assert hub.z.edges == ((0, 1),)
    assert hub.witness_paths == {(0, 1): (0, 2, 1)}
    for ci in range(1, 5):
        petal = torso(g, tree, ci)
        assert petal.virtual_edges == ((0, 1),)
        assert len(petal.z.vertices) == 3


def test_build_family_grid(grid3x3):
    fam = build_nested_family(grid3x3)
    assert len(fam.elements) == 8
    tree = build_structure_tree(fam)
    assert tree.vertex_count == 5
    center = torso(grid3x3, tree, 0)
    assert center.z.vertices == (1, 3, 4, 5, 7)
    assert center.virtual_edges == ((1, 3), (1, 5), (3, 7), (5, 7))
    assert center.witness_paths == {
        (1, 3): (1, 0, 3), (1, 5): (1, 2, 5),
        (3, 7): (3, 6, 7), (5, 7): (5, 8, 7)}
    corner = torso(grid3x3, tree, 1)
    assert corner.z.edges == ((0, 1), (0, 3), (1, 3))
    assert corner.witness_paths == {(1, 3): (1, 4, 3)}


def test_build_family_preconditions(prism, c6, k4):
    for g in (prism, k4):
        with pytest.raises(PreconditionViolated):
            build_nested_family(g)
    with pytest.raises(PreconditionViolated):
        build_nested_family(c6)
    disc = build_graph((0, 1, 2, 3), ((0, 1), (2, 3)))
    with pytest.raises(NotConnected):
        build_nested_family(disc)


def test_build_family_crossing_orbit_fails_honestly(twosquares):
    # the theta graph's automorphisms carry the seed separation onto a
    # crossing image; the engine reports that instead of hiding it
    with pytest.raises(NotNested):
        build_nested_family(twosquares)


def test_family_verifies_on_random_hosts():
    rng = random.Random(406)
    checked = 0
    for _ in range(25):
        g = random_two_connected_graph(rng, max_vertices=8)
        try:
            fam = build_nested_family(g)
        except (PreconditionViolated, NotNested):
            continue
        tree = build_structure_tree(fam)
        assert verify_tree_correspondence(tree)["ok"]
        checked += 1
    assert checked >= 5


# ---------------------------------------------------------------------------
# torso details


def test_torso_edge_partition(k4e, c5_chord, grid3x3):
    for g in (k4e, c5_chord, grid3x3):
        tree = build_structure_tree(build_nested_family(g))
        seen = []
        for ci in range(tree.vertex_count):
            seen.extend(torso(g, tree, ci).z_prime.edges)
        assert sorted(seen) == list(g.edges)


def test_torso_witness_contracts_to_z(grid3x3):
    tree = build_structure_tree(build_nested_family(grid3x3))
    for ci in range(tree.vertex_count):
        t = torso(grid3x3, tree, ci)
        assert set(t.witness.edges) <= set(grid3x3.edges) | set(t.z.edges)
        for ve, path in t.witness_paths.items():
            assert (path[0], path[-1]) == ve
            for a, b in zip(path, path[1:]):
                assert grid3x3.has_edge(a, b)
            # interior path vertices are private to the witness path
            for v in path[1:-1]:
                assert v not in t.z.vertices


def test_torso_on_cut_point_class_raises(bowtie):
    fam = b1_family(bowtie)
    tree = build_structure_tree(fam)
    assert tree.classes == (
        frozenset({0, 2}), frozenset({1}), frozenset({3}))
    with pytest.raises(HingeVertex):
        torso(bowtie, tree, 0)
    assert torso(bowtie, tree, 1).z.edges == ((0, 1), (0, 2), (1, 2))
    assert torso(bowtie, tree, 2).z.edges == ((0, 3), (0, 4), (3, 4))


# ---------------------------------------------------------------------------
# lifting torso separations back to the host


def _k4_chain(parts):
    pieces = []
    for i in range(parts):
        a, b, c, d = 2 * i, 2 * i + 1, 2 * i + 2, 2 * i + 3
        pieces.extend(f"{x}-{y}" for x, y in
                      ((a, b), (a, c), (a, d), (b, c), (b, d), (c, d)))
    return g_of(",".join(sorted(set(pieces))))


def test_lift_is_identity_on_whole_graph_torso():
    host = g_of("0-1,0-2,0-3,1-2,1-3,2-6,6-7,2-7")
    tree = build_structure_tree(NestedFamily(host, (), ()))
    assert tree.classes == (frozenset(),)
    plain = make_separation(host, (0, 1, 3), ((0, 3), (1, 3)), (0, 1))
    assert _lift_torso_separation(host, tree, 0, plain) == plain
    # a separation that takes the hinge edge must keep it when lifted
    taken = make_separation(
        host, (0, 1, 2, 6, 7),
        ((0, 1), (0, 2), (1, 2), (2, 6), (2, 7), (6, 7)), (0, 1))
    assert _lift_torso_separation(host, tree, 0, taken) == taken


def test_lift_pulls_in_material_behind_the_region():
    host = _k4_chain(4)
    left = make_separation(host, (0, 1, 2, 3),
                           ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3)), (2, 3))
    fam = NestedFamily(host, (left, separation_complement(left)), (1, 0))
    tree = build_structure_tree(fam)
    ci = next(i for i in range(tree.vertex_count)
              if len(torso(host, tree, i).z.vertices) == 8)
    z = torso(host, tree, ci).z
    zsep = make_separation(z, (2, 3, 4, 5),
                           ((2, 3), (2, 4), (2, 5), (3, 4), (3, 5)), (4, 5))
    lifted = _lift_torso_separation(host, tree, ci, zsep)
    # the side behind the region hinge {2,3} rides along with it
    assert lifted.sort_key() == (
        10,
        ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
         (2, 4), (2, 5), (3, 4), (3, 5)),
        (4, 5))


# ---------------------------------------------------------------------------
# the combined tree


def test_triblock_cycle(c6):
    t = triblock_tree(c6)
    assert t.kinds == {0: KIND_CYCLE}
    assert t.edges == ()
    assert len(t.family.elements) == 0
    assert t.torsos[0].z.edges == c6.edges


def test_triblock_path_reduces_to_an_edge():
    t = triblock_tree(g_of("0-1,1-2,2-3"))
    assert t.kinds == {0: KIND_THREE_CONNECTED}
    assert t.graph.vertices == (0, 3)
    assert t.graph.edges == ((0, 3),)


def test_triblock_triangle_bowtie_collapses(bowtie):
    # both triangles are parallel families of degree-2 paths, so the
    # reduction folds the whole graph onto one edge
    t = triblock_tree(bowtie)
    assert t.kinds == {0: KIND_THREE_CONNECTED}
    assert t.graph.edges == ((2, 4),)


def test_triblock_theta_collapses(twosquares):
    t = triblock_tree(twosquares)
    assert t.kinds == {0: KIND_THREE_CONNECTED}
    assert t.graph.edges == ((4, 5),)


def test_triblock_k4_single_vertex(k4):
    t = triblock_tree(k4)
    assert t.kinds == {0: KIND_THREE_CONNECTED}
    assert t.edges == ()
    assert t.torsos[0].z.edges == k4.edges
    assert t.torsos[0].virtual_edges == ()


def test_triblock_two_k4s_at_a_vertex(bowtie_k4s):
    t = triblock_tree(bowtie_k4s)
    assert t.kinds == {0: KIND_CUT_POINT,
                       1: KIND_THREE_CONNECTED,
                       2: KIND_THREE_CONNECTED}
    assert t.cut_classes == {0: 0}
    assert t.edges == ((0, 1), (0, 2))
    assert len(t.family.elements) == 4
    assert t.torsos[1].z.vertices == (0, 1, 2, 3)
    assert t.torsos[2].z.vertices == (0, 4, 5, 6)
    assert t.torsos[1].virtual_edges == ()
    assert t.torsos[2].virtual_edges == ()


def test_triblock_book_with_pendant_k4(book_k4):
    t = triblock_tree(book_k4)
    assert t.kinds == {0: KIND_CUT_POINT,
                       1: KIND_THREE_CONNECTED,
                       2: KIND_THREE_CONNECTED,
                       3: KIND_THREE_CONNECTED}
    assert t.cut_classes == {0: 2}
    assert t.edges == ((0, 1), (0, 2), (1, 3))
    assert len(t.family.elements) == 6
    assert t.torsos[1].z.vertices == (0, 1, 2, 3)
    assert t.torsos[1].virtual_edges == ((0, 1),)
    assert t.torsos[2].z.vertices == (2, 6, 7, 8)
    assert t.torsos[2].virtual_edges == ()
    assert t.torsos[3].z.vertices == (0, 1, 4, 5)
    assert t.torsos[3].virtual_edges == ()


def test_triblock_k4_chain():
    t = triblock_tree(_k4_chain(3))
    assert t.kinds == {0: KIND_THREE_CONNECTED,
                       1: KIND_THREE_CONNECTED,
                       2: KIND_THREE_CONNECTED}
    assert t.edges == ((0, 1), (0, 2))
    assert t.torsos[0].z.vertices == (2, 3, 4, 5)
    assert t.torsos[0].virtual_edges == ()
    assert t.torsos[1].virtual_edges == ((2, 3),)
    assert t.torsos[1].witness_paths == {(2, 3): (2, 3)}
    assert t.torsos[2].virtual_edges == ((4, 5),)


def test_triblock_edge_partition(book_k4, bowtie_k4s, grid3x3):
    for g in (book_k4, bowtie_k4s, grid3x3):
        t = triblock_tree(g)
        seen = []
        for to in t.torsos.values():
            seen.extend(to.z_prime.edges)
        assert sorted(seen) == list(t.graph.edges)


def test_triblock_requires_connected():
    disc = build_graph((0, 1, 2, 3), ((0, 1), (2, 3)))
    with pytest.raises(NotConnected):
        triblock_tree(disc)
