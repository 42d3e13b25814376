"""Automorphism groups, orbits, quotients, and the action on
structure trees."""

import random
import time

import pytest

from conftest import complete_graph, cycle_graph, g_of, k4_book, path_graph
from oracles import (all_separations, brute_automorphisms,
                     element_tree_action_violations, greedy_generators,
                     group_closure, is_automorphism, is_free,
                     make_separation, orbit_of_separation,
                     random_connected_graph, spelled_out)
from planarblocks import (
    automorphism_group,
    b1_family,
    build_structure_tree,
    quotient_graph,
    tree_action_check,
    triblock_tree,
)
from planarblocks.symmetry import (AutGroup, apply_to_separation,
                                   check_orbit_stabilizer)
from planarblocks.errors import TooLarge
from planarblocks.graph import build_graph, is_two_connected


# ---------------------------------------------------------------------------
# group computation against the brute-force oracle


def test_group_orders_on_fixtures(k4, c6, bowtie, caterpillar7):
    assert automorphism_group(k4).order == 24
    assert automorphism_group(c6).order == 12
    assert automorphism_group(bowtie).order == 8
    g = automorphism_group(caterpillar7)
    assert g.order == 1
    assert is_free(g)
    assert g.generators == ()


def test_group_matches_brute_force_on_random_graphs():
    rng = random.Random(77)
    for _ in range(25):
        g = random_connected_graph(rng, max_vertices=7)
        got = automorphism_group(g)
        want = brute_automorphisms(g)
        assert got.order == len(want)
        keys = {tuple(p[v] for v in g.vertices) for p in want}
        assert set(group_closure(g, got.generators)) == keys
        for v in g.vertices:
            stab = got.stabilizer_of_vertex(v)
            assert stab.order == sum(p[v] == v for p in want)
            for p in stab.generators:
                assert p[v] == v and is_automorphism(g, p)


def test_strong_generators_and_orbits_match_brute_force():
    rng = random.Random(4)
    # the book's page orbits need products of generators
    samples = [k4_book(3)] + [random_connected_graph(rng, max_vertices=8)
                              for _ in range(120)]
    hinge_hosts = 0
    for g in samples:
        want = brute_automorphisms(g)
        got = automorphism_group(g)
        assert got.order == len(want)
        assert list(got.generators) == greedy_generators(g, want)
        for v in g.vertices:
            assert got.orbit_of_vertex(v) == {p[v] for p in want}
        for u, v in g.edges:
            assert got.orbit_of_edge((u, v)) == {
                tuple(sorted((p[u], p[v]))) for p in want}
        if is_two_connected(g) and len(g.edges) > len(g.vertices):
            hinge_hosts += 1
            for s in all_separations(g):
                orbit = orbit_of_separation(s, got.generators)
                assert [x.sort_key() for x in orbit] == sorted(
                    {apply_to_separation(s, p).sort_key() for p in want})
    assert hinge_hosts >= 10


def test_star_group_is_found_from_generators_alone():
    star = build_graph(range(12), [(0, v) for v in range(1, 12)])
    t0 = time.monotonic()
    gr = automorphism_group(star)
    elapsed = time.monotonic() - t0
    assert gr.order == 39916800
    assert len(gr.generators) == 10
    assert gr.orbit_of_vertex(1) == frozenset(range(1, 12))
    assert not hasattr(gr, "elements")
    assert elapsed < 1.0, elapsed


def test_six_page_book_triblock_tree_is_fast():
    # 14 vertices, |Aut| = 2 * 2^6 * 6!
    book = k4_book(6)
    t0 = time.monotonic()
    t = triblock_tree(book)
    elapsed = time.monotonic() - t0
    assert t.family.vertex_count == 7
    assert automorphism_group(book, max_vertices=14).order == 2 * 2 ** 6 * 720
    assert elapsed < 2.0, elapsed


def test_group_elements_form_a_group(bowtie):
    gr = automorphism_group(bowtie)
    for p in gr.generators:
        assert is_automorphism(bowtie, p)
    assert len(group_closure(bowtie, gr.generators)) == gr.order


def test_group_bound_is_enforced():
    with pytest.raises(TooLarge):
        automorphism_group(complete_graph(13))
    long_path = path_graph(13)
    with pytest.raises(TooLarge):
        automorphism_group(long_path)
    assert automorphism_group(long_path, max_vertices=13).order == 2


def test_orbits_and_stabilizers(c6):
    gr = automorphism_group(c6)
    assert gr.orbit_of_vertex(0) == frozenset(range(6))
    assert gr.orbit_of_edge((0, 1)) == frozenset(
        ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)))
    assert gr.stabilizer_of_vertex(0).order == 2
    assert check_orbit_stabilizer(c6, gr)
    assert not is_free(gr)


def test_orbit_stabilizer_on_fixtures(k4, bowtie, caterpillar7):
    for g in (k4, bowtie, caterpillar7):
        assert check_orbit_stabilizer(g, automorphism_group(g))


# ---------------------------------------------------------------------------
# the action on separations


def test_apply_to_separation(bowtie):
    s = make_separation(bowtie, (0, 1, 2), ((0, 1), (0, 2), (1, 2)), (0,))
    swap = {0: 0, 1: 3, 2: 4, 3: 1, 4: 2}
    assert apply_to_separation(s, swap).sort_key() == \
        (3, ((0, 3), (0, 4), (3, 4)), (0,))


def test_orbit_of_separation(bowtie):
    s = make_separation(bowtie, (0, 1, 2), ((0, 1), (0, 2), (1, 2)), (0,))
    orbit = orbit_of_separation(s, brute_automorphisms(bowtie))
    keys = sorted(x.sort_key() for x in orbit)
    assert keys == [
        (3, ((0, 1), (0, 2), (1, 2)), (0,)),
        (3, ((0, 3), (0, 4), (3, 4)), (0,)),
    ]


# ---------------------------------------------------------------------------
# quotients


def test_quotient_bowtie(bowtie):
    q = quotient_graph(bowtie, automorphism_group(bowtie))
    assert q.vertex_orbits == ((0,), (1, 2, 3, 4))
    assert q.edge_orbits == (((0, 1), (0, 2), (0, 3), (0, 4)), ((1, 2), (3, 4)))
    assert q.edges == ((0, 1, 1), (1, 1, 1))
    assert q.vertex_count == 2


def test_quotient_cycle_is_a_point_with_a_loop(c6):
    q = quotient_graph(c6, automorphism_group(c6))
    assert q.vertex_orbits == ((0, 1, 2, 3, 4, 5),)
    assert q.edges == ((0, 0, 1),)


def test_quotient_under_trivial_group(caterpillar7):
    q = quotient_graph(caterpillar7, automorphism_group(caterpillar7))
    assert len(q.vertex_orbits) == 7
    assert len(q.edges) == 6


# ---------------------------------------------------------------------------
# tree action


def test_tree_action_on_block_tree(bowtie):
    fam = b1_family(bowtie)
    rep = tree_action_check(fam, automorphism_group(bowtie))
    assert rep == {"ok": True, "violations": []}


def test_tree_action_on_triblock_tree(bowtie_k4s):
    t = triblock_tree(bowtie_k4s)
    gr = automorphism_group(t.family.host)
    assert gr.order == 72
    assert tree_action_check(t.family, gr)["ok"]


def test_tree_action_reports_missing_orbit_members(bowtie):
    fam = b1_family(bowtie)
    # keep only one triangle's entries: the vertex swap now has no image
    part = build_structure_tree(bowtie, spelled_out(fam).elements[:2])
    rep = tree_action_check(part, automorphism_group(bowtie))
    assert not rep["ok"]
    assert {v["kind"] for v in rep["violations"]} == {"missing-image"}


def test_tree_action_check_reports_a_non_automorphism():
    # the swap of the triangle's edge 0-1 with the path's edge 3-4 is a
    # permutation of the vertices but sends the edge 0-2 off the host
    g = g_of("0-1,0-2,1-2,2-3,3-4")
    perm = {0: 3, 1: 4, 2: 2, 3: 0, 4: 1}
    fam = b1_family(g)
    rep = tree_action_check(fam, AutGroup(g, (perm,), 2))
    assert not rep["ok"]
    assert {v["kind"] for v in rep["violations"]} == {"missing-image"}
    sides = spelled_out(fam).elements
    for v in rep["violations"]:
        a = sides[v["element"]]
        assert v["image"] == {
            "va": sorted(perm[x] for x in a.va),
            "ea": sorted(tuple(sorted((perm[x], perm[y]))) for x, y in a.ea)}
    assert apply_to_separation(sides[0], perm) is None


def _without_pair(fam, i):
    """The family with element i and its complement dropped."""
    return build_structure_tree(fam.host, [
        a for k, a in enumerate(spelled_out(fam).elements)
        if k >> 1 != i >> 1])


def test_tree_action_check_agrees_with_element_oracle(bowtie_k4s):
    families = []
    for g in (bowtie_k4s, k4_book(3)):
        t = triblock_tree(g)
        families.append(t.family)
        families.append(_without_pair(t.family, 0))
    rng = random.Random(31)
    for _ in range(40):
        fam = b1_family(random_connected_graph(rng, max_vertices=7))
        if not fam.elements:
            continue
        families.append(fam)
        families.append(_without_pair(fam, 0))
    invariant = 0
    for fam in families:
        host = fam.host
        want = element_tree_action_violations(spelled_out(fam),
                                              brute_automorphisms(host))
        got = tree_action_check(fam, automorphism_group(host))
        assert got["ok"] == (not want), (host.edges, got, want)
        invariant += got["ok"]
    # both outcomes are reached
    assert 10 <= invariant <= len(families) - 10, (invariant, len(families))
