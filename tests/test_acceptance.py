"""Acceptance gate: nine criteria, each with an independent oracle or
an exactly known answer.  Each test prints one PASS line; a failure of
any assertion is the corresponding FAIL.

Tolerances: graph-combinatorial results are exact (integer) matches;
the only numeric budgets are the stated wall-clock limits (criteria 1,
5, 7), asserted against a monotonic clock.
"""

import itertools
import json
import random
import time

from conftest import complete_graph, fixture_path, g_of, wheel_graph
from oracles import (
    check_regular_action,
    face_multiset_uniqueness_check,
    facial_preservation_check,
    group_closure,
    interval_form,
    kuratowski_kind,
    lowpoint_blocks,
    nested,
    perm_compose,
    perm_inverse,
    random_connected_graph,
    random_path_family,
    random_two_connected_graph,
    remove_vertices,
    verify_table_isomorphism,
    verify_tree_correspondence,
    von_dyck_permutation_group,
)
from planarblocks import (
    automorphism_group,
    block_cut_tree,
    cayley_graph,
    coset_enumerate,
    parse_presentation,
    planarity_test,
    triblock_tree,
)
from planarblocks.treeset import certify_tree
from planarblocks.blocks2 import (
    KIND_CUT_POINT,
    KIND_CYCLE,
    KIND_THREE_CONNECTED,
)
from planarblocks.cli import run
from planarblocks.graph import is_connected

EDGE_FIXTURES = (
    "bowtie.edges", "book_k4.edges", "c6.edges", "disconnected.edges",
    "grid3x3.edges", "k33.edges", "k4.edges", "k4e.edges", "k5.edges",
    "octahedron.edges", "path4.edges", "prism.edges", "q3.edges",
    "twosquares.edges",
)


def _corpus_two_connected(n=100, seed=2024):
    rng = random.Random(seed)
    return [random_two_connected_graph(rng, max_vertices=10)
            for _ in range(n)]


# ---------------------------------------------------------------------------


def test_a1_block_cut_matches_lowpoint_oracle():
    t0 = time.monotonic()
    rng = random.Random(11)
    for _ in range(200):
        g = random_connected_graph(rng, max_vertices=14)
        bct = block_cut_tree(g)
        if not g.edges:
            # a lone vertex is its own block; the edge-set oracle is mute
            assert len(bct.blocks) == 1 and not bct.cuts
            continue
        got = {frozenset(b.edges) for b in bct.blocks}
        want_blocks, want_cuts = lowpoint_blocks(g)
        assert got == want_blocks
        assert set(bct.cuts) == want_cuts
        # every edge in exactly one block
        counts = {}
        for b in bct.blocks:
            for e in b.edges:
                counts[e] = counts.get(e, 0) + 1
        assert counts == {e: 1 for e in g.edges}
        # the tree is bipartite between cut classes and block classes,
        # and every tree edge joins a cut to a block containing it
        class_of = bct.family.class_of
        for i, j in ((class_of[k], class_of[k ^ 1])
                     for k in range(len(bct.family.elements))):
            kinds = {i in bct.cut_classes, j in bct.cut_classes}
            assert kinds == {True, False}
            cut_side = i if i in bct.cut_classes else j
            block_side = j if cut_side == i else i
            assert bct.cut_classes[cut_side] in \
                bct.block_classes[block_side].vertices
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0, f"block-cut corpus took {elapsed:.1f}s"
    print("A1 block-cut tree vs DFS-lowpoint oracle on 200 graphs: PASS")


def test_a2_final_family_is_nested():
    violations = 0
    for g in _corpus_two_connected():
        fam = triblock_tree(g).family
        for a, b in itertools.combinations(fam.elements, 2):
            if nested(a, b) == ():
                violations += 1
    assert violations == 0
    print("A2 nesting soundness on 100 final families: PASS")


def test_a3_torso_classification_and_witnesses():
    for g in _corpus_two_connected():
        tbt = triblock_tree(g)
        host = tbt.family.host
        seen_edges = []
        for ci, kind in tbt.kinds.items():
            assert kind in (KIND_CUT_POINT, KIND_CYCLE, KIND_THREE_CONNECTED)
            if ci not in tbt.torsos:
                continue
            t = tbt.torsos[ci]
            seen_edges.extend(t.z_prime.edges)
            if kind == KIND_THREE_CONNECTED and len(t.z.vertices) >= 4:
                # brute force: no 2-subset of vertices disconnects z
                for pair in itertools.combinations(t.z.vertices, 2):
                    rest = remove_vertices(t.z, pair)
                    if rest.vertices:
                        assert is_connected(rest), (g.edges, ci, pair)
            # the witness contracts onto the torso: identity on z, one
            # host path per virtual edge, internally disjoint
            assert set(t.z.edges) == \
                set(t.z_prime.edges) | set(t.virtual_edges)
            assert set(t.witness_paths) == set(t.virtual_edges)
            interior_seen = set()
            for (u, v), path in t.witness_paths.items():
                assert (path[0], path[-1]) == (u, v)
                for a, b in zip(path, path[1:]):
                    assert host.has_edge(a, b)
                inner = set(path[1:-1])
                assert not inner & set(t.z.vertices)
                assert not inner & interior_seen
                interior_seen |= inner
        assert sorted(seen_edges) == list(host.edges)
    print("A3 torso classification, edge partition, witnesses: PASS")


def test_a4_planarity_inheritance():
    corpus = _corpus_two_connected() + [
        complete_graph(5),
        g_of("0-3,0-4,0-5,1-3,1-4,1-5,2-3,2-4,2-5"),
        g_of("0-1,1-2,2-3,3-4,4-0,5-7,7-9,9-6,6-8,8-5,"
             "0-5,1-6,2-7,3-8,4-9"),
    ]
    saw_nonplanar = 0
    for g in corpus:
        res = planarity_test(g)
        tbt = triblock_tree(g)
        torso_results = [planarity_test(t.z) for t in tbt.torsos.values()]
        if res.planar:
            assert all(r.planar for r in torso_results)
        else:
            saw_nonplanar += 1
            nonplanar_torso = any(not r.planar for r in torso_results)
            witness_ok = kuratowski_kind(res.witness) in ("K5", "K33")
            assert nonplanar_torso or witness_ok
    assert saw_nonplanar >= 3
    print("A4 planarity inheritance over the corpus: PASS")


def test_a5_facial_preservation_and_uniqueness():
    t0 = time.monotonic()
    fixtures = {
        "K4": complete_graph(4),
        "Q3": g_of("0-1,1-2,2-3,3-0,4-5,5-6,6-7,7-4,0-4,1-5,2-6,3-7"),
        "prism": g_of("0-1,1-2,2-0,3-4,4-5,5-3,0-3,1-4,2-5"),
        "W5": wheel_graph(6),
        "W6": wheel_graph(7),
        "W7": wheel_graph(8),
        "octahedron": g_of("0-1,0-2,0-3,0-4,1-2,2-3,3-4,4-1,"
                           "5-1,5-2,5-3,5-4"),
    }
    for name, g in fixtures.items():
        emb = planarity_test(g).embedding
        group = automorphism_group(g, max_vertices=10)
        elements = group_closure(g, group.generators).values()
        assert len(elements) == group.order, name
        for sigma in elements:
            assert facial_preservation_check(emb, sigma), name
        report = face_multiset_uniqueness_check(g)
        assert report["ok"], name
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"facial fixtures took {elapsed:.1f}s"
    print("A5 facial preservation + face-multiset uniqueness: PASS")


def test_a6_euler_and_face_partition():
    expected = {
        "k4.edges": 4,
        "q3.edges": 6,
        "octahedron.edges": 8,
    }
    from planarblocks.graph import parse_edge_list
    for name in EDGE_FIXTURES:
        with open(fixture_path(name)) as f:
            g = parse_edge_list(f.read())
        if not is_connected(g):
            continue
        res = planarity_test(g)
        if not res.planar:
            continue
        v, e, faces = len(g.vertices), len(g.edges), res.face_count
        assert v - e + faces == 2, name
        assert sum(len(f) for f in res.faces) == 2 * e, name
        if name in expected:
            assert faces == expected[name], name
    print("A6 Euler relation and face partition on fixtures: PASS")


def test_a7_cayley_pipeline():
    t0 = time.monotonic()
    for name, signature, order in (("vd233.pres", (2, 3, 3), 12),
                                   ("vd234.pres", (2, 3, 4), 24)):
        with open(fixture_path(name)) as f:
            pr = parse_presentation(f.read())
        tbl = coset_enumerate(pr)
        assert tbl.order == order
        elements, x, y = von_dyck_permutation_group(*signature)
        assert len(elements) == order
        z = perm_inverse(perm_compose(x, y))
        assert verify_table_isomorphism(tbl, {"e1": x, "e2": y, "e3": z})
        g = cayley_graph(tbl, pr)
        # free + transitive + automorphic action; raises on violation
        action = check_regular_action(tbl, g)
        assert len(action) == order
        assert planarity_test(g).planar
        tbt = triblock_tree(g)
        assert set(tbt.kinds.values()) <= \
            {KIND_CUT_POINT, KIND_CYCLE, KIND_THREE_CONNECTED}
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0, f"cayley pipeline took {elapsed:.1f}s"
    print("A7 triangle-group pipeline vs permutation oracles: PASS")


def test_a8_structure_tree_bijection():
    rng = random.Random(88)
    for _ in range(100):
        fam = random_path_family(rng, max_elements=60)
        assert len(fam.elements) <= 60
        report = verify_tree_correspondence(fam)
        assert report["ok"], report
        assert report["violations"] == []
        certify_tree(interval_form(fam))
    print("A8 tree bijection on 100 recursive path families: PASS")


def test_a9_cli_determinism():
    matrix = []
    for name in EDGE_FIXTURES:
        path = fixture_path(name)
        for cmd in ("blocks", "triblocks", "planar", "faces", "autos",
                    "quotient", "check"):
            formats = ("text", "json")
            if cmd in ("blocks", "triblocks", "planar", "quotient"):
                formats += ("dot",)
            for fmt in formats:
                matrix.append([cmd, path, "--format", fmt])
    for name in ("z6.pres", "d3.pres", "vd233.pres", "vd234.pres"):
        for fmt in ("text", "json", "dot"):
            matrix.append(["cayley", fixture_path(name), "--format", fmt])
    for argv in matrix:
        first = run(list(argv))
        for _ in range(2):
            assert run(list(argv)) == first, argv
    print(f"A9 determinism over {len(matrix)} CLI invocations x3: PASS")
