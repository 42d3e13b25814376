"""Hinge separations, the canonical hinge family, torsos, and the
combined cut-point / cycle / 3-connected tree."""

import os
import random
import subprocess
import sys
import time
from collections import Counter
from functools import cached_property

import pytest
from hypothesis import assume, given, settings, strategies as st

from planarblocks import (
    b1_family,
    build_graph,
    homeomorphic_reduce,
    torso,
    triblock_tree,
)
from planarblocks import blocks2, cli, graph
from planarblocks.graph import Graph, edge_key, is_simple_cycle
from planarblocks.blocks2 import (
    KIND_CUT_POINT,
    KIND_CYCLE,
    KIND_THREE_CONNECTED,
    _canonical_tree,
    _region_parts,
)
from planarblocks.treeset import certify_tree
from planarblocks.errors import (
    HingeVertex,
    InvariantViolated,
    MalformedInput,
    NotConnected,
    PreconditionViolated,
)

from conftest import (complete_graph, cycle_graph, fixture_path, g_of,
                      grid_graph, k4_book, k4_ring, k4_w5_chain,
                      wheel_graph)
from oracles import (all_separations, bfs_path, build_nested_family,
                     build_structure_tree, chorded_cycle,
                     edge_subset_separations, enumerate_separations_at,
                     glued_blocks, induced_subgraph, interval_form,
                     is_three_connected_by_cutsets, lowpoint_blocks,
                     make_separation, mask_canonical_tree, mask_torso_parts,
                     nested, random_two_connected_graph,
                     reference_canonical_tree,
                     reference_lift_torso_separation, separation_complement,
                     separation_fault, separating_sets, spelled_out,
                     totally_nested_keys, uncrossed_side_keys,
                     verify_tree_correspondence)


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


def test_sixteen_page_book_triblock_tree_is_fast():
    # 34 vertices; enumerating every hinge side would take about 31 s
    book = k4_book(16)
    t0 = time.monotonic()
    t = triblock_tree(book)
    elapsed = time.monotonic() - t0
    assert t.family.vertex_count == 17
    assert elapsed < 2.0, elapsed


@pytest.mark.parametrize("shape, vertices, tree_vertices", [
    ("chain", 102, 99),    # 50 K4 torsos and the 49 bonds between them
    ("book", 130, 65),     # 64 K4 torsos round one bond
])
def test_large_triblock_trees_are_fast(shape, vertices, tree_vertices):
    g = _k4_chain(50) if shape == "chain" else k4_book(64)
    assert len(g.vertices) == vertices
    t0 = time.monotonic()
    t = triblock_tree(g)
    elapsed = time.monotonic() - t0
    assert t.family.vertex_count == tree_vertices
    assert elapsed < 2.0, elapsed


@pytest.mark.parametrize("shape, vertices, tree_vertices", [
    ("grid", 400, 1),      # one 3-connected torso once the corners go
    ("chain", 202, 199),   # 100 K4 torsos and the 99 bonds between them
])
def test_two_cuts_cost_one_search_per_vertex(shape, vertices, tree_vertices):
    # a component search per vertex pair took 27 s on the 20 x 20 grid
    g = grid_graph(20, 20) if shape == "grid" else _k4_chain(100)
    assert len(g.vertices) == vertices
    t0 = time.monotonic()
    t = triblock_tree(g)
    elapsed = time.monotonic() - t0
    assert t.family.vertex_count == tree_vertices
    assert elapsed < 5.0, elapsed


def test_k4_has_no_hinge_separations(k4):
    assert enumerate_separations_at(k4, 0) == ()
    assert all_separations(k4) == ()


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
# the canonical hinge family on 2-connected hosts


def test_build_family_k4e_frozen(k4e):
    fam = build_nested_family(k4e)
    assert tuple(e.sort_key() for e in spelled_out(fam).elements) == (
        (2, ((0, 2), (1, 2)), (0, 1)),
        (3, ((0, 1), (0, 3), (1, 3)), (0, 1)),
        (2, ((0, 3), (1, 3)), (0, 1)),
        (3, ((0, 1), (0, 2), (1, 2)), (0, 1)),
    )
    assert fam.classes == (frozenset({0, 2}), frozenset({1}), frozenset({3}))
    assert fam.edges == ((0, 1), (0, 2))
    assert verify_tree_correspondence(fam)["ok"]


def test_k4e_torsos(k4e):
    fam = build_nested_family(k4e)
    hinge = torso(fam, 0)
    assert hinge.z.vertices == (0, 1)
    assert hinge.z.edges == ((0, 1),)
    assert hinge.virtual_edges == ()
    tri = torso(fam, 1)
    assert tri.z_prime.edges == ((0, 2), (1, 2))
    assert tri.virtual_edges == ((0, 1),)
    assert tri.z.edges == ((0, 1), (0, 2), (1, 2))
    assert tri.witness_paths == {(0, 1): (0, 1)}


EDGELESS_TORSO = """
import sys
sys.path.insert(0, sys.argv[1])
from oracles import build_nested_family
from planarblocks import blocks2
from planarblocks.errors import InvariantViolated
from planarblocks.graph import Graph
assert False, "this script must run under -O"
pair = Graph((0, 1), ())
blocks2._region_parts = lambda family, v: (pair, pair, (), {})
host = Graph((0, 1, 2, 3), ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3)))
try:
    blocks2.torso(build_nested_family(host), 0)
except InvariantViolated as exc:
    print(exc)
"""


def test_an_edgeless_pair_is_no_connected_torso(monkeypatch, k4e):
    # a torso on two vertices is judged by its edge count, with no palm
    pair = Graph((0, 1), ())
    monkeypatch.setattr(blocks2, "_region_parts",
                        lambda family, v: (pair, pair, (), {}))
    with pytest.raises(InvariantViolated, match="torso must be connected"):
        torso(build_nested_family(k4e), 0)
    tests = os.path.dirname(__file__)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(os.path.dirname(tests), "src"),
                    env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-O", "-c", EDGELESS_TORSO, tests],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "torso must be connected\n"


def test_build_family_c5chord(c5_chord):
    # the chord's pair leaves two components and is an edge, so all four
    # sides at {0, 2} are uncrossed, and the chord becomes a bond between
    # the triangle and the square (Tutte's decomposition)
    fam = build_nested_family(c5_chord)
    sides = spelled_out(fam).elements
    assert sorted(e.key for e in sides) == totally_nested_keys(c5_chord)
    assert [e.key[1] for e in sides] == [
        ((0, 1), (1, 2)),
        ((0, 2), (0, 4), (2, 3), (3, 4)),
        ((0, 1), (0, 2), (1, 2)),
        ((0, 4), (2, 3), (3, 4))]
    assert fam.vertex_count == 3
    assert fam.edges == ((0, 1), (0, 2))
    bond = torso(fam, 0)
    assert bond.z.edges == bond.z_prime.edges == ((0, 2),)
    assert bond.virtual_edges == ()
    tri = torso(fam, 1)
    assert tri.z.edges == ((0, 1), (0, 2), (1, 2))
    assert tri.virtual_edges == ((0, 2),)
    assert tri.witness_paths == {(0, 2): (0, 2)}
    square = torso(fam, 2)
    assert square.z.edges == ((0, 2), (0, 4), (2, 3), (3, 4))
    assert square.virtual_edges == ((0, 2),)


def test_build_family_two_squares_sharing_a_pair():
    # two 4-cycles glued along a non-adjacent vertex pair: the hinge
    # class owns no host edge, so its torso is a purely virtual K2
    g = g_of("0-2,1-2,0-3,1-3,0-4,1-4,0-5,1-5")
    fam = build_nested_family(g)
    assert len(fam.elements) == 8
    assert fam.vertex_count == 5
    hub = torso(fam, 0)
    assert hub.z_prime.edges == ()
    assert hub.virtual_edges == ((0, 1),)
    assert hub.z.vertices == (0, 1)
    assert hub.z.edges == ((0, 1),)
    assert hub.witness_paths == {(0, 1): (0, 2, 1)}
    for ci in range(1, 5):
        petal = torso(fam, ci)
        assert petal.virtual_edges == ((0, 1),)
        assert len(petal.z.vertices) == 3


def test_build_family_grid(grid3x3):
    fam = build_nested_family(grid3x3)
    assert len(fam.elements) == 8
    assert fam.vertex_count == 5
    center = torso(fam, 0)
    assert center.z.vertices == (1, 3, 4, 5, 7)
    assert center.virtual_edges == ((1, 3), (1, 5), (3, 7), (5, 7))
    assert center.witness_paths == {
        (1, 3): (1, 0, 3), (1, 5): (1, 2, 5),
        (3, 7): (3, 6, 7), (5, 7): (5, 8, 7)}
    corner = torso(fam, 1)
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


def test_build_family_theta_keeps_the_spine_sides(twosquares):
    # of the theta graph's 12 hinge separations, the paths round each
    # square cross each other; only the four sides at the spine {0, 1}
    # are uncrossed: a bond on the edge 0-1 between two 4-cycles
    assert len(all_separations(twosquares)) == 12
    fam = build_nested_family(twosquares)
    sides = spelled_out(fam).elements
    assert sorted(e.key for e in sides) == totally_nested_keys(twosquares)
    assert {e.boundary for e in sides} == {frozenset({0, 1})}
    assert fam.edges == ((0, 1), (0, 2))
    assert torso(fam, 0).z.edges == ((0, 1),)
    for ci, square in ((1, (2, 3)), (2, (4, 5))):
        t = torso(fam, ci)
        assert t.z.vertices == (0, 1) + square
        assert t.virtual_edges == ((0, 1),)


def test_family_verifies_on_random_hosts():
    rng = random.Random(406)
    checked = 0
    for _ in range(25):
        g = random_two_connected_graph(rng, max_vertices=8)
        try:
            fam = build_nested_family(g)
        except PreconditionViolated:
            continue
        assert verify_tree_correspondence(fam)["ok"]
        checked += 1
    assert checked >= 5


@st.composite
def _two_connected_hosts(draw):
    return random_two_connected_graph(draw(st.randoms(use_true_random=False)),
                                      max_vertices=9)


def _family_keys(g):
    """Sorted element keys of build_nested_family(g), or [] when the host
    is 3-connected by cutsets and so has no hinge family to build."""
    try:
        return sorted(e.key for e in
                      spelled_out(build_nested_family(g)).elements)
    except PreconditionViolated:
        assert is_three_connected_by_cutsets(g)
        return []


@settings(max_examples=150, deadline=None)
@given(_two_connected_hosts())
def test_family_is_the_totally_nested_hinge_separations(g):
    assume(len(g.vertices) >= 4 and not is_simple_cycle(g))
    assert _family_keys(g) == totally_nested_keys(g), g.edges


def test_family_matches_oracle_on_chorded_cycles():
    # 16-cycles with 9 random chords, reduced as triblocks reduces them:
    # the kind of host on which an automorphism-orbit construction once
    # produced a crossing family
    rng = random.Random(185)
    nonempty = 0
    for _ in range(150):
        h = homeomorphic_reduce(chorded_cycle(rng)).graph
        want = totally_nested_keys(h)
        assert _family_keys(h) == want, h.edges
        nonempty += bool(want)
    assert nonempty >= 10


def _pair_kind(z, pair, comps, kept):
    """How the hinge tree treats the 2-cut pair of z, from its kept
    sides."""
    if pair not in kept:
        return "crossed"
    if not z.has_edge(*pair):
        return "unjoined"
    return "bond" if len(comps) == 2 else "joined, 3+ components"


def test_uncrossed_sides_match_set_definition():
    # the per-pair crossing rule against the candidate-by-candidate
    # definition spelled out on sets: the hinge tree of a block holds
    # every uncrossed side, each tree edge entering where its first
    # listed side does in sort-key order, that side first
    rng = random.Random("uncrossed-masks")
    zs = [chorded_cycle(rng, n=rng.randint(6, 14), chords=rng.randint(1, 6))
          for _ in range(60)]
    for _ in range(60):
        for edges in lowpoint_blocks(glued_blocks(rng))[0]:
            b = build_graph(sorted({x for e in edges for x in e}),
                            sorted(edges))
            if len(b.vertices) > 3 and not is_simple_cycle(b):
                zs.append(b)
    zs += [k4_book(p) for p in (3, 4, 5)] + [_k4_chain(4), grid_graph(4, 5)]
    kinds = set()
    for z in zs:
        sides = spelled_out(_canonical_tree(z)).elements
        listed = uncrossed_side_keys(z)
        assert sorted(s.key for s in sides) == \
            sorted({k for pair in listed for k in pair})
        entered = []
        for s, sc in listed:
            if s not in entered and sc not in entered:
                entered += (s, sc)
        assert [s.key for s in sides] == entered
        for s in sides:
            assert separation_fault(z, s.va, s.ea, s.boundary) is None
        kept = {tuple(sorted(s.boundary)) for s in sides}
        kinds.update(_pair_kind(z, pair, comps, kept)
                     for pair, comps in separating_sets(z, 2))
    assert kinds == {"crossed", "unjoined", "bond", "joined, 3+ components"}


def test_triblock_tree_answers_on_chorded_cycles():
    rng = random.Random(185)
    for _ in range(900):
        g = chorded_cycle(rng)
        t = triblock_tree(g)
        assert sum(len(to.z_prime.edges) for to in t.torsos.values()) == \
            len(t.family.host.edges)


# ---------------------------------------------------------------------------
# torso details


def test_torso_edge_partition(k4e, c5_chord, grid3x3):
    for g in (k4e, c5_chord, grid3x3):
        fam = build_nested_family(g)
        seen = []
        for ci in range(fam.vertex_count):
            seen.extend(torso(fam, ci).z_prime.edges)
        assert sorted(seen) == list(g.edges)


def test_torso_witness_contracts_to_z(grid3x3):
    fam = build_nested_family(grid3x3)
    for ci in range(fam.vertex_count):
        t = torso(fam, ci)
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
    assert fam.classes == (
        frozenset({0, 2}), frozenset({1}), frozenset({3}))
    with pytest.raises(HingeVertex):
        torso(fam, 0)
    assert torso(fam, 1).z.edges == ((0, 1), (0, 2), (1, 2))
    assert torso(fam, 2).z.edges == ((0, 3), (0, 4), (3, 4))


# ---------------------------------------------------------------------------
# lifting block sides to the host through the block-cut tree


def _k4_chain(parts):
    pieces = []
    for i in range(parts):
        a, b, c, d = 2 * i, 2 * i + 1, 2 * i + 2, 2 * i + 3
        pieces.extend(f"{x}-{y}" for x, y in
                      ((a, b), (a, c), (a, d), (b, c), (b, d), (c, d)))
    return g_of(",".join(sorted(set(pieces))))


def _hang_k4s(g):
    """g with a K4 hung at each of its vertices."""
    edges = list(g.edges)
    n = max(g.vertices) + 1
    for v in g.vertices:
        k4 = (v, n, n + 1, n + 2)
        edges += [(x, y) for i, x in enumerate(k4) for y in k4[i + 1:]]
        n += 3
    return build_graph(range(n), edges)


def _lifted_keys(host):
    return {e.sort_key() for e in spelled_out(_canonical_tree(host)).elements}


def test_lift_is_identity_on_whole_graph_torso():
    host = g_of("0-1,0-2,0-3,1-2,1-3,2-6,6-7,2-7")
    plain = make_separation(host, (0, 1, 3), ((0, 3), (1, 3)), (0, 1))
    assert reference_lift_torso_separation(host, plain) == plain
    # a separation that takes the hinge edge must keep it when lifted
    taken = make_separation(
        host, (0, 1, 2, 6, 7),
        ((0, 1), (0, 2), (1, 2), (2, 6), (2, 7), (6, 7)), (0, 1))
    assert reference_lift_torso_separation(host, taken) == taken
    # the block-cut lift gives both sides as they are
    keys = _lifted_keys(host)
    assert plain.sort_key() in keys
    assert taken.sort_key() in keys


def test_lift_pulls_in_material_behind_the_region():
    host = _k4_chain(4)
    left = make_separation(host, (0, 1, 2, 3),
                           ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3)), (2, 3))
    fam = interval_form(build_structure_tree(
        host, (left, separation_complement(left))))
    ci = next(i for i in range(fam.vertex_count)
              if len(torso(fam, i).z.vertices) == 8)
    z = torso(fam, ci).z
    zsep = make_separation(z, (2, 3, 4, 5),
                           ((2, 3), (2, 4), (2, 5), (3, 4), (3, 5)), (4, 5))
    lifted = reference_lift_torso_separation(host, zsep)
    # the side behind the region hinge {2,3} rides along with it
    want = (
        10,
        ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
         (2, 4), (2, 5), (3, 4), (3, 5)),
        (4, 5))
    assert lifted.sort_key() == want
    # and the block-cut lift holds that side, not the torso's region
    keys = _lifted_keys(host)
    assert want in keys
    assert zsep.sort_key() not in keys


def _lift_corpus(rng):
    # a side that holds the hinge edge with a triangle hung behind it,
    # and a K4 chain whose sides take the blocks behind their region
    yield g_of("0-1,0-2,0-3,1-2,1-3,2-6,6-7,2-7")
    yield _k4_chain(4)
    for parts in (1, 2, 3, 6):
        yield _hang_k4s(_k4_chain(parts))
    for pages in (1, 2, 3):
        yield _hang_k4s(k4_book(pages))
    for _ in range(200):
        yield glued_blocks(rng, pieces=6)
    for _ in range(100):
        yield chorded_cycle(rng, rng.randint(6, 16), rng.randint(2, 8))


def test_lift_matches_the_reference_hinge_family():
    rng = random.Random("block-cut-lift")
    for g in _lift_corpus(rng):
        for h in {g, homeomorphic_reduce(g).graph}:
            got = spelled_out(_canonical_tree(h))
            want = reference_canonical_tree(h)
            assert [e.key for e in got.elements] == \
                [e.key for e in want.elements], h.edges
            assert got.classes == want.classes, h.edges
            assert got.edges == want.edges, h.edges


# ---------------------------------------------------------------------------
# the combined tree


def test_triblock_cycle(c6):
    t = triblock_tree(c6)
    assert t.kinds == {0: KIND_CYCLE}
    assert t.family.edges == ()
    assert len(t.family.elements) == 0
    assert t.torsos[0].z.edges == c6.edges


def test_triblock_path_reduces_to_an_edge():
    t = triblock_tree(g_of("0-1,1-2,2-3"))
    assert t.kinds == {0: KIND_THREE_CONNECTED}
    assert t.family.host.vertices == (0, 3)
    assert t.family.host.edges == ((0, 3),)


def test_triblock_triangle_bowtie_collapses(bowtie):
    # both triangles are parallel families of degree-2 paths, so the
    # reduction folds the whole graph onto one edge
    t = triblock_tree(bowtie)
    assert t.kinds == {0: KIND_THREE_CONNECTED}
    assert t.family.host.edges == ((2, 4),)


def test_triblock_theta_collapses(twosquares):
    t = triblock_tree(twosquares)
    assert t.kinds == {0: KIND_THREE_CONNECTED}
    assert t.family.host.edges == ((4, 5),)


def test_triblock_k4_single_vertex(k4):
    t = triblock_tree(k4)
    assert t.kinds == {0: KIND_THREE_CONNECTED}
    assert t.family.edges == ()
    assert t.torsos[0].z.edges == k4.edges
    assert t.torsos[0].virtual_edges == ()


def test_triblock_two_k4s_at_a_vertex(bowtie_k4s):
    t = triblock_tree(bowtie_k4s)
    assert t.kinds == {0: KIND_CUT_POINT,
                       1: KIND_THREE_CONNECTED,
                       2: KIND_THREE_CONNECTED}
    assert t.family.cut_classes == {0: 0}
    assert t.family.edges == ((0, 1), (0, 2))
    assert len(t.family.elements) == 4
    assert t.torsos[1].z.vertices == (0, 1, 2, 3)
    assert t.torsos[2].z.vertices == (0, 4, 5, 6)
    assert t.torsos[1].virtual_edges == ()
    assert t.torsos[2].virtual_edges == ()


def _hinges_on(t, block):
    """Sorted keys of the hinge elements of t whose hinge lies in the
    block, each cut down to the block."""
    return sorted({(tuple(sorted(e.va & block.vertex_set)),
                    tuple(sorted(e.ea & block.edge_set)), e.key[2])
                   for e in spelled_out(t.family).elements
                   if len(e.boundary) == 2 and e.boundary <= block.vertex_set})


@pytest.mark.parametrize("block, home", [
    # two K4 pages on the spine 0-1: the bond
    ("0-1,0-2,0-3,1-2,1-3,2-3,0-4,0-5,1-4,1-5,4-5", (0, 1)),
    # the same pages without the spine edge: a torso on the pair alone
    ("0-2,0-3,1-2,1-3,2-3,0-4,0-5,1-4,1-5,4-5", (0, 1)),
    # three torsos in a row at the pairs 0-1 and 0-2: the middle one
    ("0-3,1-2,1-3,2-3,0-4,0-5,1-4,1-5,4-5,0-6,0-7,2-6,2-7,6-7", (0, 1, 2, 3)),
    # a third page on the pair 0-1 puts a torso on the pair alone there;
    # the centre is the tree edge from it to the page split at 0-2, so
    # the K4 hangs at a second torso on the pair, which splits that edge
    ("0-3,1-2,1-3,2-3,0-4,0-5,1-4,1-5,4-5,0-11,0-12,1-11,1-12,11-12,"
     "0-6,0-7,2-6,2-7,6-7", (0, 1)),
])
def test_triblock_pendant_at_a_hinge_vertex(block, home):
    # a K4 hung at vertex 0, which lies in every torso of the block,
    # hangs at the centre of those torsos; each side of a hinge at 0
    # once lifted without it, and two sides then crossed
    host = g_of(block + ",0-8,0-9,0-10,8-9,8-10,9-10")
    t = triblock_tree(host)
    assert verify_tree_correspondence(t.family)["ok"]
    assert _hinges_on(t, g_of(block)) == totally_nested_keys(g_of(block))
    [(cut, vertex)] = t.family.cut_classes.items()
    assert vertex == 0
    around = [b if a == cut else a for a, b in t.family.edges if cut in (a, b)]
    assert sorted(t.torsos[ci].z.vertices for ci in around) \
        == sorted([home, (0, 8, 9, 10)])
    _same_family(t.family, mask_canonical_tree(host))


def test_triblock_tree_on_glued_blocks():
    # per block, the hinge elements are the totally nested hinge
    # separations of the block, and relabelling the host relabels them
    rng = random.Random(4631)
    for _ in range(150):
        g = glued_blocks(rng)
        t = triblock_tree(g)
        assert t.family.host == g
        assert verify_tree_correspondence(spelled_out(t.family))["ok"], \
            g.edges
        for edges in lowpoint_blocks(g)[0]:
            b = build_graph(sorted({x for e in edges for x in e}),
                            sorted(edges))
            small = len(b.vertices) < 4 or is_simple_cycle(b)
            assert _hinges_on(t, b) == \
                ([] if small else totally_nested_keys(b)), g.edges
        perm = list(g.vertices)
        rng.shuffle(perm)
        name = dict(zip(g.vertices, perm))
        moved = build_graph(perm, [(name[u], name[v]) for u, v in g.edges])
        assert sorted(e.key for e in spelled_out(
            triblock_tree(moved).family).elements) == sorted(
                _renamed(e, name) for e in spelled_out(t.family).elements), \
            g.edges


def _renamed(s, name):
    """Key of separation s with its vertices renamed."""
    return (tuple(sorted(name[v] for v in s.va)),
            tuple(sorted(tuple(sorted((name[u], name[v]))) for u, v in s.ea)),
            tuple(sorted(name[v] for v in s.boundary)))


def test_triblock_book_with_pendant_k4(book_k4):
    t = triblock_tree(book_k4)
    # the hinge elements are the uncrossed sides of the two-page block,
    # each carrying the pendant K4 when it holds vertex 2
    block = induced_subgraph(book_k4, range(6))
    assert _hinges_on(t, block) == totally_nested_keys(block)
    assert t.kinds == {0: KIND_CUT_POINT,
                       1: KIND_THREE_CONNECTED,
                       2: KIND_THREE_CONNECTED,
                       3: KIND_THREE_CONNECTED,
                       4: KIND_THREE_CONNECTED}
    assert t.family.cut_classes == {0: 2}
    assert t.family.edges == ((0, 1), (0, 2), (1, 3), (3, 4))
    assert len(t.family.elements) == 8
    assert t.torsos[1].z.vertices == (0, 1, 2, 3)
    assert t.torsos[1].virtual_edges == ((0, 1),)
    assert t.torsos[2].z.vertices == (2, 6, 7, 8)
    assert t.torsos[2].virtual_edges == ()
    # the bond: the spine and its real edge
    assert t.torsos[3].z.vertices == (0, 1)
    assert t.torsos[3].z_prime.edges == ((0, 1),)
    assert t.torsos[3].virtual_edges == ()
    assert t.torsos[4].z.vertices == (0, 1, 4, 5)
    assert t.torsos[4].virtual_edges == ((0, 1),)


def test_triblock_k4_chain():
    # three K4s glued along 2-3 and 4-5: a bond at each glued edge
    # between the K4 torsos, as in Tutte's decomposition
    host = _k4_chain(3)
    t = triblock_tree(host)
    assert sorted(e.key for e in spelled_out(t.family).elements) == \
        totally_nested_keys(host)
    assert t.kinds == {ci: KIND_THREE_CONNECTED for ci in range(5)}
    assert t.family.edges == ((0, 1), (0, 4), (2, 3), (2, 4))
    for bond, pair in ((0, (2, 3)), (2, (4, 5))):
        assert t.torsos[bond].z.vertices == pair
        assert t.torsos[bond].z_prime.edges == (pair,)
        assert t.torsos[bond].virtual_edges == ()
    assert t.torsos[1].z.vertices == (0, 1, 2, 3)
    assert t.torsos[1].virtual_edges == ((2, 3),)
    assert t.torsos[1].witness_paths == {(2, 3): (2, 3)}
    assert t.torsos[3].z.vertices == (4, 5, 6, 7)
    assert t.torsos[3].virtual_edges == ((4, 5),)
    assert t.torsos[4].z.vertices == (2, 3, 4, 5)
    assert t.torsos[4].z_prime.edges == ((2, 4), (2, 5), (3, 4), (3, 5))
    assert t.torsos[4].virtual_edges == ((2, 3), (4, 5))


def test_triblock_edge_partition(book_k4, bowtie_k4s, grid3x3):
    for g in (book_k4, bowtie_k4s, grid3x3):
        t = triblock_tree(g)
        seen = []
        for to in t.torsos.values():
            seen.extend(to.z_prime.edges)
        assert sorted(seen) == list(t.family.host.edges)


@pytest.mark.parametrize("name", ["k4", "k5", "prism", "octahedron", "q3",
                                  "bowtie", "grid3x3", "book_k4",
                                  "k4_w5_chain"])
def test_triblocks_passes_over_each_graph_once(name, monkeypatch, tmp_path):
    # one Graph object serves as block, region, torso and witness, and
    # keeps its palm forest and its 2-cuts, so no search runs twice on it
    if name == "k4_w5_chain":
        path = tmp_path / "k4_w5_chain.edges"
        path.write_text("".join("%d %d\n" % e for e in k4_w5_chain(6).edges))
    else:
        path = fixture_path(name + ".edges")
    searched = []       # (search, graph), graphs kept so that ids stay unique
    two_cut_pass = graph._two_cut_pass
    palm = graph.Graph.palm.func

    def cut_pass(g):
        searched.append(("2-cuts", g))
        return two_cut_pass(g)

    def whole_search(g):
        searched.append(("palm", g))
        return palm(g)
    monkeypatch.setattr(graph, "_two_cut_pass", cut_pass)
    counted = cached_property(whole_search)
    counted.__set_name__(graph.Graph, "palm")
    monkeypatch.setattr(graph.Graph, "palm", counted)
    blocks = []         # the blocks whose hinge sides are sought
    hinge_tree = blocks2._hinge_tree
    monkeypatch.setattr(blocks2, "_hinge_tree",
                        lambda z, cuts: blocks.append(z)
                        or hinge_tree(z, cuts))
    trees = []
    build = blocks2.triblock_tree
    monkeypatch.setattr(blocks2, "triblock_tree",
                        lambda g: trees.append(build(g)) or trees[-1])
    code, out = cli.run(["triblocks", str(path), "--format", "json"])
    assert code == 0, out
    (t,) = trees
    counts = Counter((kind, id(g)) for kind, g in searched)
    assert {kind for kind, _ in counts} == {"2-cuts", "palm"}
    assert max(counts.values()) == 1, counts
    # a torso left a whole block reads the block's 2-cuts; only a torso
    # with virtual edges is a graph of its own, searched anew
    apart = blocks + [to.z for to in t.torsos.values() if to.virtual_edges]
    for kind, h in searched:
        assert kind != "2-cuts" or any(h is z for z in apart), h
    g = t.original
    assert (t.reduced.graph is g) == all(g.degree(v) != 2 for v in g.vertices)
    bare = [to for to in t.torsos.values() if not to.virtual_edges]
    assert bare
    for to in bare:
        assert to.z is to.z_prime and to.witness is to.z_prime


def test_triblock_adjacency_grows_linearly_on_books(monkeypatch):
    # a torso's witness path is searched on the host's adjacency, so no
    # graph of a member side is built: doubling the pages doubles the
    # adjacency entries built, where one side graph per page made them
    # grow 3.9x
    books = {pages: k4_book(pages) for pages in (32, 64)}
    entries = []
    adj = graph.Graph._adj.func

    def counted(g):
        a = adj(g)
        entries.append(sum(map(len, a.values())))
        return a
    wrapped = cached_property(counted)
    wrapped.__set_name__(graph.Graph, "_adj")
    monkeypatch.setattr(graph.Graph, "_adj", wrapped)
    built = {}
    for pages, g in books.items():
        entries.clear()
        triblock_tree(g)
        built[pages] = sum(entries)
    assert built[64] <= 2.2 * built[32], built


# ---------------------------------------------------------------------------
# hinge-free hosts keep the block-cut family


PRISM = g_of("0-1,1-2,2-0,3-4,4-5,5-3,0-3,1-4,2-5")
HINGE_FREE_PIECES = (complete_graph(4), complete_graph(5), wheel_graph(5),
                     wheel_graph(6), PRISM, cycle_graph(3), cycle_graph(5))
# K4 books (two pages are two K4s glued along an edge), and two K4s
# glued along an edge less that edge
HINGE_PIECES = (k4_book(2), k4_book(3),
                g_of("0-2,0-3,1-2,1-3,2-3,0-4,0-5,1-4,1-5,4-5"))


@st.composite
def glued_trees(draw, first, pieces):
    """A tree of one piece of `first` and up to five of `pieces`, each
    glued at one of its vertices to a vertex placed before, under
    random vertex names."""
    edges, n = [], 0
    for k in range(draw(st.integers(1, 6))):
        piece = draw(st.sampled_from(first if k == 0 else pieces))
        hang = draw(st.sampled_from(piece.vertices))
        at = draw(st.integers(0, n - 1)) if k else None
        fresh = iter(range(n, n + len(piece.vertices)))
        name = {v: at if v == hang and k else next(fresh)
                for v in piece.vertices}
        n = max(n, max(name.values()) + 1)
        edges += [(name[u], name[v]) for u, v in piece.edges]
    perm = draw(st.permutations(range(n)))
    return build_graph(perm, [(perm[u], perm[v]) for u, v in edges])


def _triblock_tree_counting_builds(g):
    """triblock_tree(g), the hinge trees it built and how often it read a
    family off a tree."""
    trees, reads = [], []
    hinge_tree, read = blocks2._hinge_tree, blocks2.family_of_tree

    def built(*args):
        tree = hinge_tree(*args)
        if tree is not None:
            trees.append(tree)
        return tree

    def counted(*args):
        reads.append(args)
        return read(*args)
    blocks2._hinge_tree, blocks2.family_of_tree = built, counted
    try:
        return triblock_tree(g), len(trees), len(reads)
    finally:
        blocks2._hinge_tree, blocks2.family_of_tree = hinge_tree, read


def _same_family(got, want):
    got, want = spelled_out(got), spelled_out(want)
    assert [e.key for e in got.elements] == [e.key for e in want.elements]
    assert got.classes == want.classes
    assert [(r.vertices, r.edges) for r in got.regions] == \
        [(r.vertices, r.edges) for r in want.regions]
    assert got.edges == want.edges
    assert got.cut_classes == want.cut_classes


@settings(max_examples=80, deadline=None)
@given(glued_trees(HINGE_FREE_PIECES, HINGE_FREE_PIECES))
def test_hinge_free_host_keeps_the_block_cut_family(g):
    # no block of a vertex-glued tree of 3-connected pieces and cycles
    # has a 2-cut, so the block-cut family is the tree, as a structure
    # tree built from its elements reads it
    t, trees, reads = _triblock_tree_counting_builds(g)
    assert (trees, reads) == (0, 1)
    h = t.family.host
    _same_family(t.family, build_structure_tree(
        h, spelled_out(b1_family(h)).elements))


@settings(max_examples=40, deadline=None)
@given(glued_trees(HINGE_PIECES, HINGE_FREE_PIECES + HINGE_PIECES))
def test_host_with_a_hinge_block_builds_the_combined_tree(g):
    t, trees, reads = _triblock_tree_counting_builds(g)
    assert trees >= 1 and reads == 1
    _same_family(t.family, reference_canonical_tree(t.family.host))


@st.composite
def hinge_hosts(draw):
    """A K4 book, a K4 edge chain, a ring of K4s less an edge, a chain of
    K4s and wheels glued at vertices, random 2-connected graphs glued at
    vertices, or `glued_blocks`; maybe with K4s hung at some vertices and
    some edges subdivided; under random vertex names."""
    rng = draw(st.randoms(use_true_random=False))
    kind = draw(st.sampled_from(["book", "chain", "ring", "k4_w5", "glued",
                                 "glued_blocks"]))
    size = draw(st.integers(1, 5))
    if kind == "book":
        g = k4_book(size)
    elif kind == "chain":
        g = _k4_chain(size)
    elif kind == "ring":
        g = k4_ring(size + 1)
    elif kind == "k4_w5":
        g = k4_w5_chain(size + 1)
    elif kind == "glued_blocks":
        g = glued_blocks(rng, pieces=size + 1)
    else:
        edges = list(random_two_connected_graph(rng, max_vertices=8).edges)
        for _ in range(size):
            n = 1 + max(x for e in edges for x in e)
            at = rng.choice([x for e in edges for x in e])
            piece = random_two_connected_graph(rng, max_vertices=7)
            name = {v: n + v for v in piece.vertices}
            name[piece.vertices[0]] = at
            edges += [(name[u], name[v]) for u, v in piece.edges]
        g = build_graph(sorted({x for e in edges for x in e}), edges)
    if draw(st.booleans()):
        edges = list(g.edges)
        n = max(g.vertices) + 1
        for v in rng.sample(g.vertices, min(3, len(g.vertices))):
            k4 = (v, n, n + 1, n + 2)
            edges += [(x, y) for i, x in enumerate(k4) for y in k4[i + 1:]]
            n += 3
        g = build_graph(sorted({x for e in edges for x in e}), edges)
    if draw(st.booleans()):
        g = _subdivided(rng, g, draw(st.integers(1, 4)))
    perm = list(g.vertices)
    rng.shuffle(perm)
    name = dict(zip(g.vertices, perm))
    return build_graph(perm, [(name[u], name[v]) for u, v in g.edges])


@settings(max_examples=200, deadline=None)
@given(hinge_hosts())
def test_the_tree_built_as_a_tree_is_the_mask_builders(g):
    # element by element, in order, with its classes, regions, tree
    # edges, cut classes and torsos, the tri-block tree is the family
    # the mask builder reads off the containment of its sides, and its
    # sides are those of the reference hinge family
    t = triblock_tree(g)
    h = t.family.host
    want = mask_canonical_tree(h)
    _same_family(t.family, want)
    assert [e.key for e in spelled_out(t.family).elements] == \
        [e.key for e in reference_canonical_tree(h).elements]
    certify_tree(t.family)
    for ci, to in t.torsos.items():
        virtuals, paths = mask_torso_parts(want, ci)
        assert to.virtual_edges == virtuals
        assert to.witness_paths == paths
        region = want.regions[ci]
        walked = {edge_key(x, y) for p in paths.values()
                  for x, y in zip(p, p[1:])}
        assert to.witness == Graph(
            tuple(sorted(set(region.vertices).union(*paths.values()))),
            tuple(sorted(walked.union(region.edges))))


# ---------------------------------------------------------------------------
# witness paths searched on the host's adjacency


def _subdivided(rng, g, k):
    """g with k of its edges, drawn by rng, each split by a new vertex."""
    edges = set(g.edges)
    n = max(g.vertices) + 1
    for u, v in rng.sample(sorted(edges), min(k, len(edges))):
        edges -= {(u, v)}
        edges |= {(u, n), (v, n)}
        n += 1
    return build_graph(sorted({x for e in edges for x in e}), sorted(edges))


def _witness_corpus():
    rng = random.Random(4631)
    for _ in range(150):
        yield glued_blocks(rng)
    yield from _lift_corpus(random.Random("block-cut-lift"))
    rng = random.Random("witness-paths")
    for size in (1, 2, 3, 5, 8):
        for g in (k4_book(size), _k4_chain(size)):
            yield g
            yield _subdivided(rng, g, 2 * size)


def test_witness_paths_match_the_side_graph_search():
    # each virtual edge's path is the one a breadth-first search finds on
    # a graph of its member side
    searched = 0
    for g in _witness_corpus():
        t = triblock_tree(g)
        sides = spelled_out(t.family).elements
        for ci, to in t.torsos.items():
            _, _, virtuals, gens = _region_parts(t.family, ci)
            assert tuple(to.witness_paths) == virtuals == to.virtual_edges
            for k in virtuals:
                side = Graph(tuple(sorted(sides[gens[k]].va)),
                             tuple(sorted(sides[gens[k]].ea)))
                assert to.witness_paths[k] == bfs_path(side, *k), g.edges
                searched += 1
    assert searched > 1000


def test_triblock_requires_connected():
    disc = build_graph((0, 1, 2, 3), ((0, 1), (2, 3)))
    with pytest.raises(NotConnected):
        triblock_tree(disc)
