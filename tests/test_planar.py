"""Rotation systems, face tracing, planarity certificates, and the
facial symmetry checks."""

import os
import random
import subprocess
import sys
import time
from itertools import combinations

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (complete_graph, crossed_grid, cycle_graph, g_of,
                      grid_graph, path_graph, wheel_graph)
from oracles import (
    apply_to_face,
    brute_automorphisms,
    brute_canonical_face,
    edge_key_facial_walks,
    edge_order,
    euler_genus,
    face_multiset_uniqueness_check,
    face_size_multiset,
    facial_preservation_check,
    greedy_kuratowski_witness,
    kuratowski_kind,
    left_right,
    networkx_kuratowski_edges,
    per_vertex_rotation_check,
    random_maximal_planar_edges,
    reference_embedding_walks,
)
from planarblocks import (
    Graph,
    RotationSystem,
    build_graph,
    canonical_face,
    cayley_graph,
    certify_embedding,
    edge_key,
    certify_kuratowski,
    coset_enumerate,
    facial_walks,
    is_connected,
    parse_presentation,
    planarity_test,
)
from planarblocks.errors import (
    InvariantViolated,
    MalformedInput,
    NotAnAutomorphism,
    NotConnected,
    PreconditionViolated,
)
import oracles
from planarblocks import edgeaddition


# ---------------------------------------------------------------------------
# rotation systems and face tracing


def test_canonical_face_rotation_and_reversal():
    assert canonical_face((2, 0, 1)) == (0, 1, 2)
    assert canonical_face((1, 0, 2)) == (0, 1, 2)
    assert canonical_face((3, 1, 2, 0)) == (0, 2, 1, 3)
    assert canonical_face(()) == ()


@given(st.lists(st.integers(0, 4), max_size=12))
def test_canonical_face_agrees_with_all_rotations(walk):
    # few labels, so most walks repeat their least vertex
    assert canonical_face(tuple(walk)) == brute_canonical_face(walk)


def test_rotation_system_validates():
    tri = complete_graph(3)
    with pytest.raises(MalformedInput):
        RotationSystem(tri, {0: (1,), 1: (0, 2), 2: (1, 0)})
    with pytest.raises(MalformedInput):
        RotationSystem(tri, {0: (1, 1), 1: (0, 2), 2: (1, 0)})


def test_rotation_system_takes_neighbour_orders():
    k4 = complete_graph(4)
    order = {0: (3, 1, 2), 1: (0, 2, 3), 2: (0, 1, 3), 3: (0, 1, 2)}
    assert RotationSystem(k4, order).rotation == order
    for bad in ({**order, 0: (3, 1, 4)}, {v: order[v] for v in (1, 2, 3)}):
        with pytest.raises(MalformedInput,
                           match="rotation at a vertex must permute"):
            RotationSystem(k4, bad)


def test_facial_walks_triangle():
    tri = complete_graph(3)
    r = RotationSystem(tri, {0: (1, 2), 1: (0, 2), 2: (0, 1)})
    walks = facial_walks(r)
    assert walks == ((0, 1, 2), (0, 2, 1))


def test_facial_walks_single_edge_and_point():
    k2 = complete_graph(2)
    r = RotationSystem(k2, {0: (1,), 1: (0,)})
    assert facial_walks(r) == ((0, 1),)
    k1 = build_graph((0,), ())
    r1 = RotationSystem(k1, {0: ()})
    assert facial_walks(r1) == ((),)
    assert euler_genus(r1) == 0


def test_face_lengths_sum_to_twice_edges():
    for g in (complete_graph(4), wheel_graph(6),
              g_of("0-1,1-2,2-3,3-0,4-5,5-6,6-7,7-4,0-4,1-5,2-6,3-7")):
        r = planarity_test(g)
        assert sum(len(f) for f in r.faces) == 2 * len(g.edges)


# ---------------------------------------------------------------------------
# planarity certificates


def test_k4_embedding_frozen(k4):
    res = planarity_test(k4)
    assert res.planar
    assert res.faces == ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3))
    assert res.face_count == 4
    assert euler_genus(res.embedding) == 0


def test_cube_has_six_quadrilaterals(q3):
    res = planarity_test(q3)
    assert res.planar
    assert res.face_count == 6
    assert sorted(len(f) for f in res.faces) == [4, 4, 4, 4, 4, 4]


def test_octahedron_has_eight_triangles(octahedron):
    res = planarity_test(octahedron)
    assert res.planar
    assert face_size_multiset(octahedron) == (3,) * 8


def test_k5_witness(k5):
    res = planarity_test(k5)
    assert not res.planar
    assert res.embedding is None and res.faces is None
    assert kuratowski_kind(res.witness) == "K5"


def test_k33_witness(k33):
    res = planarity_test(k33)
    assert not res.planar
    assert kuratowski_kind(res.witness) == "K33"


def test_petersen_witness_is_a_subdivision():
    pet = g_of("0-1,1-2,2-3,3-4,4-0,5-7,7-9,9-6,6-8,8-5,"
               "0-5,1-6,2-7,3-8,4-9")
    res = planarity_test(pet)
    assert not res.planar
    assert set(res.witness.edges) <= set(pet.edges)
    assert kuratowski_kind(res.witness) == "K33"


def _random_nonplanar(rng, shuffled):
    """A connected graph on 6 to 12 vertices with more than 3n - 6 edges,
    so nonplanar; `shuffled` lists its vertices and edges out of order."""
    while True:
        n = rng.randint(6, 12)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = sorted(rng.sample(pairs, rng.randint(3 * n - 5,
                                                     min(len(pairs), 4 * n))))
        g = Graph(tuple(range(n)), tuple(edges))
        if is_connected(g):
            break
    if shuffled:
        vs, es = list(g.vertices), list(g.edges)
        rng.shuffle(vs)
        rng.shuffle(es)
        g = Graph(tuple(vs), tuple(es))
    return g


def _kuratowski_hosts():
    rng = random.Random(20071)
    for i in range(24):
        yield _random_nonplanar(rng, shuffled=i % 4 == 0)
    yield g_of("0-1,1-2,2-3,3-4,4-0,5-7,7-9,9-6,6-8,8-5,"
               "0-5,1-6,2-7,3-8,4-9")
    pr = parse_presentation("gens: a b\nrels: a^6, b^6, (a*b*a^-1*b^-1)")
    yield cayley_graph(coset_enumerate(pr), pr)


def _assert_refuted(g, res, oracles_too=True):
    """res refutes g with a Kuratowski subdivision of g that both judges
    certify, inside one block of g, and a second run on a graph built
    anew gives the same witness.  With `oracles_too`, the greedy
    extractor and networkx each find a certified witness as well; the
    kinds are not compared, since one graph can hold both a K5 and a
    K3,3 subdivision."""
    assert not res.planar
    w = res.witness
    assert w.edge_set <= g.edge_set
    assert w.vertices == tuple(sorted({v for e in w.edges for v in e}))
    assert certify_kuratowski(w) == kuratowski_kind(w)
    h = nx.Graph(list(g.edges))
    assert any(w.edge_set <= {edge_key(*e) for e in block}
               for block in nx.biconnected_component_edges(h))
    again = planarity_test(Graph(g.vertices, g.edges)).witness
    assert (again.vertices, again.edges) == (w.vertices, w.edges)
    if oracles_too:
        for edges in (greedy_kuratowski_witness(g),
                      networkx_kuratowski_edges(g)):
            other = Graph(tuple(sorted({v for e in edges for v in e})),
                          tuple(sorted(edges)))
            assert certify_kuratowski(other) == kuratowski_kind(other)


def test_kuratowski_witness_is_certified_as_the_oracles_are():
    # a linear isolation finds its own subdivision, not networkx's; it
    # must be one all the same, also when the vertex and edge tuples are
    # not sorted
    for g in _kuratowski_hosts():
        _assert_refuted(g, planarity_test(g))


def _z10_cubed():
    pr = parse_presentation("gens: a b c\nrels: a^10, b^10, c^10, "
                            "(a*b*a^-1*b^-1), (a*c*a^-1*c^-1), "
                            "(b*c*b^-1*c^-1)")
    return cayley_graph(coset_enumerate(pr), pr)


def _blocks_with_a_late_nonplanar_one(rng):
    """A connected graph of several blocks: planar cycles and wheels, and
    one nonplanar block from `_random_nonplanar` glued on at a cut vertex
    away from vertex 0, where the search starts, so that it is not the
    first block; further planar blocks may hang off it."""
    edges, n = [(0, 1), (1, 2), (2, 0)], 3
    for _ in range(rng.randint(1, 4)):
        at, k = rng.randrange(1, n), rng.randint(3, 7)
        ring = [at] + list(range(n, n + k - 1))
        edges += list(zip(ring, ring[1:] + ring[:1]))
        if rng.random() < 0.5:
            edges += [(n + k - 1, x) for x in ring]
            k += 1
        n += k - 1
    core = _random_nonplanar(rng, shuffled=False)
    at = rng.randrange(1, n)
    names = [at] + list(range(n, n + len(core.vertices) - 1))
    edges += [(names[a], names[b]) for a, b in core.edges]
    n += len(core.vertices) - 1
    for _ in range(rng.randint(0, 3)):
        at, k = rng.choice(names[1:]), rng.randint(3, 6)
        ring = [at] + list(range(n, n + k - 1))
        edges += list(zip(ring, ring[1:] + ring[:1]))
        n += k - 1
    return build_graph(range(n), edges)


def test_kuratowski_witness_lies_in_a_late_nonplanar_block():
    rng = random.Random(35)
    for _ in range(40):
        g = _blocks_with_a_late_nonplanar_one(rng)
        assert not nx.is_biconnected(nx.Graph(list(g.edges)))
        _assert_refuted(g, planarity_test(g))


@pytest.mark.parametrize("build", [
    _z10_cubed, lambda: crossed_grid(25), lambda: crossed_grid(50)],
    ids=["Z10^3", "crossed25", "crossed50"])
def test_kuratowski_isolation_at_scale(build):
    # Petersen and Z6 x Z6 are among `_kuratowski_hosts`; the greedy
    # oracle and networkx take seconds on these larger hosts, so only
    # the certificate, the block and the repeat are checked
    g = build()
    _assert_refuted(g, planarity_test(g), oracles_too=False)


def test_a_disconnected_nonplanar_host_is_refused_before_isolation(
        monkeypatch):
    # a planar host too is refused before the embedding, with the
    # witness its rotation's certificate gave
    def unreachable(palm):
        raise AssertionError("the engine ran on a disconnected host")
    monkeypatch.setattr(edgeaddition, "edge_addition", unreachable)
    for edges, parts in (
            ("0-1,0-2,0-3,0-4,1-2,1-3,1-4,2-3,2-4,3-4,5-6",
             [[0, 1, 2, 3, 4], [5, 6]]),
            ("0-1,1-2,2-0,3-4", [[0, 1, 2], [3, 4]])):
        with pytest.raises(NotConnected) as caught:
            planarity_test(g_of(edges))
        assert caught.value.witness == parts


EMPTY_UNDER_O = """
from planarblocks import Graph, planarity_test
from planarblocks.errors import MalformedInput
assert False, "this script must run under -O"
try:
    planarity_test(Graph((), ()))
except MalformedInput as exc:
    print(exc.kind, exc)
"""


def test_a_graph_without_vertices_is_malformed_input(monkeypatch):
    # refused as build_graph refuses it, before the engine runs, and not
    # as an internal fault of the Euler count, also under -O
    def unreachable(palm):
        raise AssertionError("the engine ran on an empty host")
    monkeypatch.setattr(edgeaddition, "edge_addition", unreachable)
    with pytest.raises(MalformedInput,
                       match="^graph needs at least one vertex$"):
        planarity_test(Graph((), ()))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(os.path.dirname(os.path.dirname(
            __file__)), "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-O", "-c", EMPTY_UNDER_O],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "malformed-input graph needs at least one vertex\n"


def test_the_crossed_grid_is_refuted_in_linear_time():
    # 78 s by greedy deletion with left-right tests
    g = crossed_grid(100)
    start = time.perf_counter()
    res = planarity_test(g)
    assert time.perf_counter() - start < 5
    assert certify_kuratowski(res.witness) == "K33"


@st.composite
def small_graphs(draw):
    """A graph on at most 12 vertices at a drawn edge density, its
    vertex and edge tuples in a drawn order and its labels spread out."""
    n = draw(st.integers(1, 12))
    density = draw(st.floats(0, 1))
    rng = draw(st.randoms(use_true_random=False))
    labels = rng.sample(range(3 * n), n)
    pairs = [(labels[i], labels[j]) for i in range(n) for j in range(i + 1, n)]
    es = [(min(e), max(e)) for e in pairs if rng.random() < density]
    rng.shuffle(es)
    return Graph(tuple(labels), tuple(es))


def _assert_certified_rotation(g, res):
    """res embeds g, and its rotation passes the oracle's own checks:
    the per-vertex rotation check, the edge-key face tracer and Euler's
    formula, with the walks the certificate traced."""
    assert res.planar
    assert reference_embedding_walks(g, res.embedding.rotation) == res.walks
    assert euler_genus(res.embedding) == 0


@settings(max_examples=300, deadline=None)
@given(small_graphs())
def test_left_right_agrees_with_networkx(g):
    h = nx.Graph()
    h.add_nodes_from(g.vertices)
    h.add_edges_from(g.edges)
    ok, cert = nx.check_planarity(h)
    index = {v: i for i, v in enumerate(g.vertices)}
    edges = [(index[u], index[v]) for u, v in g.edges]
    assert (left_right(len(g.vertices), edges) is not None) == ok
    if ok and nx.__version__ == "3.6.1":
        # the reference test keeps the search, tie-breaking and placement
        # orders of that networkx release, disconnected hosts too: each
        # tree's nesting depths count from its own root, as networkx's
        # heights do
        order = edge_order(len(g.vertices), edges)
        rotation = left_right(len(g.vertices), order, embed=True)
        vs = g.vertices
        assert {vs[v]: [vs[w] for w in around]
                for v, around in enumerate(rotation)} == cert.get_data()
    if not is_connected(g):
        with pytest.raises(NotConnected):
            planarity_test(g)
        return
    res = planarity_test(g)
    assert res.planar == ok
    if ok:
        _assert_certified_rotation(g, res)
        # networkx's own embedding passes the certificate too
        assert certify_embedding(g, cert.get_data()).face_count == \
            res.face_count
    else:
        assert res.witness.edge_set <= g.edge_set
        assert certify_kuratowski(res.witness) == kuratowski_kind(res.witness)


def _chorded_cycle(n):
    """The n-cycle with the nested chords {i, n - 1 - i} inside and the
    chords {i, i + 2} on its second half outside, every fourth i."""
    chords = [(i, n - 1 - i) for i in range(1, n // 2 - 1)]
    chords += [(i, i + 2) for i in range(n // 2, n - 2, 4)]
    return build_graph(range(n), [(i, (i + 1) % n) for i in range(n)]
                       + chords)


def _dihedral_cayley_graph(n):
    pr = parse_presentation("gens: a b\nrels: a^%d, b^2, (a*b)^2" % n)
    return cayley_graph(coset_enumerate(pr), pr)


@pytest.mark.parametrize("build", [
    lambda: grid_graph(10, 10), lambda: grid_graph(30, 30),
    lambda: _chorded_cycle(200), lambda: wheel_graph(12),
    lambda: wheel_graph(300), lambda: _dihedral_cayley_graph(50)],
    ids=["grid10x10", "grid30x30", "chorded200", "wheel12", "wheel300",
         "D50"])
def test_left_right_agrees_with_networkx_on_deep_trees(build):
    # DFS trees hundreds of vertices deep: the reference test's
    # orientation numbers vertices in DFS order, networkx counts heights,
    # and the rotations must agree all the same; the engine's rotation
    # is its own, and passes the oracle's checks
    g = build()
    h = nx.Graph()
    h.add_nodes_from(g.vertices)
    h.add_edges_from(g.edges)
    ok, cert = nx.check_planarity(h)
    res = planarity_test(g)
    assert ok and res.planar
    _assert_certified_rotation(g, res)
    if nx.__version__ == "3.6.1":
        n = len(g.vertices)
        index = {v: i for i, v in enumerate(g.vertices)}
        order = edge_order(n, [(index[u], index[v]) for u, v in g.edges])
        vs = g.vertices
        assert {vs[v]: [vs[w] for w in around] for v, around in enumerate(
            left_right(n, order, embed=True))} == cert.get_data()


@st.composite
def planarity_corpus(draw):
    """A crossed grid (`conftest.crossed_grid`), or a random maximal
    planar graph with one edge added or not, its labels spread out and
    its vertex and edge tuples in a drawn order. On 4 vertices the
    maximal planar graph is K4, which has no edge left to add."""
    rng = draw(st.randoms(use_true_random=False))
    if draw(st.booleans()):
        g = crossed_grid(draw(st.integers(2, 9)))
        n, edges = len(g.vertices), list(g.edges)
    else:
        n = draw(st.integers(4, 40))
        edges = random_maximal_planar_edges(rng, n)
        if n > 4 and draw(st.booleans()):
            have = set(edges)
            edges.append(rng.choice([(a, b) for a, b in combinations(
                range(n), 2) if (a, b) not in have]))
    labels = rng.sample(range(3 * n), n)
    es = [edge_key(labels[a], labels[b]) for a, b in edges]
    rng.shuffle(es)
    return Graph(tuple(labels), tuple(es))


@settings(max_examples=200, deadline=None)
@given(planarity_corpus())
def test_engine_reference_and_networkx_agree_on_the_corpus(g):
    # each rotation certified, each witness a subdivision
    h = nx.Graph(list(g.edges))
    ok = nx.check_planarity(h)[0]
    index = {v: i for i, v in enumerate(g.vertices)}
    assert (left_right(len(g.vertices), [(index[u], index[v])
                                         for u, v in g.edges])
            is not None) == ok
    res = planarity_test(g)
    assert res.planar == ok
    if ok:
        _assert_certified_rotation(g, res)
    else:
        assert certify_kuratowski(res.witness) == kuratowski_kind(res.witness)


@settings(max_examples=300, deadline=None)
@given(small_graphs(), st.randoms(use_true_random=False))
def test_facial_walks_agree_with_the_edge_key_tracer(g, rng):
    # any cyclic order at every vertex, planar or not: the same walks in
    # the same order as the tracer that looked each dart up by edge key
    rotation = {}
    for v in g.vertices:
        around = list(g.neighbors(v))
        rng.shuffle(around)
        rotation[v] = around
    r = RotationSystem(g, rotation)
    assert facial_walks(r) == edge_key_facial_walks(r)


def _outcome(f, *args):
    """("returns", what f(*args) returns), or the type name, message
    and witness of what it raises."""
    try:
        return "returns", f(*args)
    except Exception as exc:
        return type(exc).__name__, str(exc), getattr(exc, "witness", None)


@st.composite
def corrupted_rotations(draw):
    """(host, rotation): a host from `small_graphs`, made connected or
    not, and a shuffled rotation of it with one corruption: a neighbour
    dropped or duplicated, two entries swapped inside an order or across
    two, a foreign or an unhashable entry, an extra vertex key, or
    none."""
    g = draw(small_graphs())
    rng = draw(st.randoms(use_true_random=False))
    vs = list(g.vertices)
    if draw(st.booleans()):
        g = Graph(g.vertices, tuple(sorted(set(g.edges) | {
            edge_key(a, b) for a, b in zip(vs, vs[1:])})))
    rotation = {}
    for v in vs:
        around = list(g.neighbors(v))
        rng.shuffle(around)
        rotation[v] = around
    v = rng.choice(vs)
    around = rotation[v]
    at = rng.randrange(len(around) + 1)
    how = draw(st.sampled_from(("drop", "duplicate", "swap", "swap across",
                                "foreign", "unhashable", "extra key",
                                "none")))
    if how == "drop" and around:
        del around[at - 1]
    elif how == "duplicate" and around:
        x = rng.choice(around)
        if draw(st.booleans()):
            around.insert(at, x)
        else:
            around[at - 1] = x
    elif how == "swap" and len(around) > 1:
        i, j = rng.sample(range(len(around)), 2)
        around[i], around[j] = around[j], around[i]
    elif how == "swap across":
        other = rotation[rng.choice(vs)]
        if around and other:
            i, j = rng.randrange(len(around)), rng.randrange(len(other))
            around[i], other[j] = other[j], around[i]
    elif how == "foreign":
        x = rng.choice([w for w in vs + [max(vs) + 1]
                        if w != v and w not in around])
        if around and draw(st.booleans()):
            around[at - 1] = x
        else:
            around.insert(at, x)
    elif how == "unhashable":
        around.insert(at, [rng.choice(vs)])
    elif how == "extra key":
        rotation[max(vs) + 1 + rng.randrange(3)] = rng.sample(
            vs, min(2, len(vs)))
    return g, rotation


@settings(max_examples=400, deadline=None)
@given(corrupted_rotations())
def test_certificate_failures_match_the_per_vertex_check(case):
    # counting and a search over the successor maps refuse what the
    # per-vertex check against the host's adjacency and the host's
    # components refused, with the same kind, message and witness
    g, rotation = case
    got = _outcome(RotationSystem, g, rotation)
    want = _outcome(per_vertex_rotation_check, g, rotation)
    assert got[0] == want[0] if want[0] == "returns" else got == want
    got = _outcome(certify_embedding, g, rotation)
    want = _outcome(reference_embedding_walks, g, rotation)
    if want[0] == "returns":
        assert got[0] == "returns" and got[1].walks == want[1]
    else:
        assert got == want


@st.composite
def subdivided_kuratowski_hosts(draw):
    """K5 or K3,3 with each edge a chain of up to 8 edges, pendant trees
    grown at random vertices and a few extra chords, its labels spread
    out and its vertex and edge tuples in a drawn order."""
    rng = draw(st.randoms(use_true_random=False))
    if draw(st.booleans()):
        n, base = 5, list(combinations(range(5), 2))
    else:
        n, base = 6, [(a, b) for a in range(3) for b in range(3, 6)]
    edges = set()
    for a, b in base:
        k = draw(st.integers(0, 7))
        chain = [a, *range(n, n + k), b]
        n += k
        edges.update(zip(chain, chain[1:]))
    for _ in range(draw(st.integers(0, 8))):
        edges.add((rng.randrange(n), n))
        n += 1
    for _ in range(draw(st.integers(0, 3))):
        edges.add(tuple(rng.sample(range(n), 2)))
    labels = rng.sample(range(3 * n), n)
    es = list({edge_key(labels[a], labels[b]) for a, b in edges})
    rng.shuffle(es)
    return Graph(tuple(labels), tuple(es))


@settings(max_examples=200, deadline=None)
@given(subdivided_kuratowski_hosts())
def test_kuratowski_isolation_certifies_subdivided_hosts(g):
    # pendant trees and extra chords around a subdivision: the isolated
    # witness is one, and the greedy oracle and networkx find one too
    _assert_refuted(g, planarity_test(g))


def _counted_extraction(monkeypatch, g):
    """(left-right tests made, witness edges) of the greedy extractor
    on g, numbered as `planarity_test` numbers it."""
    calls = []
    test = oracles.left_right

    def counted(*args, **kwargs):
        calls.append(args)
        return test(*args, **kwargs)
    monkeypatch.setattr(oracles, "left_right", counted)
    edges = greedy_kuratowski_witness(g)
    return len(calls), edges


@pytest.mark.parametrize("n, most", [(6, 25), (3, 18)])
def test_kuratowski_extraction_tests_fewer_edges(monkeypatch, n, most):
    # the greedy oracle: 44 tests on Z6 x Z6 and 24 on Z3 x Z3 before
    # edges off the 2-core went untested and the extraction stopped at a
    # subdivision
    pr = parse_presentation(
        "gens: a b\nrels: a^%d, b^%d, (a*b*a^-1*b^-1)" % (n, n))
    g = cayley_graph(coset_enumerate(pr), pr)
    tests, edges = _counted_extraction(monkeypatch, g)
    assert tests <= most
    assert edges == networkx_kuratowski_edges(g)


def test_a_subdivision_with_pendant_trees_needs_no_test(monkeypatch):
    g = g_of("0-3,0-4,0-6,6-5,1-3,1-4,1-5,2-7,7-8,8-3,2-4,2-5,"
             "5-9,9-10,9-11,2-12")
    assert _counted_extraction(monkeypatch, g) == (
        0, networkx_kuratowski_edges(g))


def test_deep_searches_stay_iterative():
    # far deeper than the recursion limit, on every phase of the test
    for g, faces in ((path_graph(5000), 1), (cycle_graph(2000), 2),
                     (grid_graph(60, 60), 59 * 59 + 1)):
        res = planarity_test(g)
        assert res.planar and res.face_count == faces
    # K5 with one edge subdivided into a 5,000-edge path, refuted by the
    # engine and by the reference test
    es = [(u, v) for u in range(5) for v in range(u + 1, 5) if (u, v) != (0, 1)]
    es += [(0, 5)] + [(v, v + 1) for v in range(5, 5003)] + [(5003, 1)]
    res = planarity_test(build_graph(range(5004), es))
    assert not res.planar and certify_kuratowski(res.witness) == "K5"
    assert left_right(5004, es) is None


def test_certify_kuratowski_names_the_graph(k5, k33):
    assert certify_kuratowski(k5) == "K5"
    assert certify_kuratowski(k33) == "K33"
    # K3,3 with two edges subdivided
    sub = g_of("0-3,0-4,0-6,6-5,1-3,1-4,1-5,2-7,7-8,8-3,2-4,2-5")
    assert certify_kuratowski(sub) == "K33"


@pytest.mark.parametrize("edges", [
    # K5 minus an edge
    "0-2,0-3,0-4,1-2,1-3,1-4,2-3,2-4,3-4",
    # the prism: 6 vertices of degree 3, two triangles
    "0-1,1-2,2-0,3-4,4-5,5-3,0-3,1-4,2-5",
    # K5 with a pendant edge
    "0-1,0-2,0-3,0-4,1-2,1-3,1-4,2-3,2-4,3-4,4-5",
    # K3,3 plus a disjoint triangle
    "0-3,0-4,0-5,1-3,1-4,1-5,2-3,2-4,2-5,6-7,7-8,8-6",
    # K5 with one edge doubled by a path
    "0-1,0-2,0-3,0-4,1-2,1-3,1-4,2-3,2-4,3-4,0-5,5-1",
    # a cycle
    "0-1,1-2,2-0",
])
def test_certify_kuratowski_refuses_other_graphs(edges):
    with pytest.raises(InvariantViolated,
                       match="Kuratowski witness must subdivide K5 or K3,3"):
        certify_kuratowski(g_of(edges))


def test_planarity_requires_connected():
    with pytest.raises(NotConnected):
        planarity_test(build_graph((0, 1, 2, 3), ((0, 1), (2, 3))))


def test_nonplanar_rotation_has_positive_genus(q3):
    emb = planarity_test(q3).embedding
    rot = dict(emb.rotation)
    swapped = list(rot[0])
    swapped[0], swapped[1] = swapped[1], swapped[0]
    rot[0] = tuple(swapped)
    bad = RotationSystem(q3, rot)
    assert euler_genus(bad) == 1
    assert len(facial_walks(bad)) == 4


# ---------------------------------------------------------------------------
# facial preservation under automorphisms


def test_apply_to_face_canonicalizes():
    assert apply_to_face({0: 1, 1: 2, 2: 0}, (0, 1, 2)) == (0, 1, 2)
    assert apply_to_face({0: 5, 1: 6, 2: 7}, (0, 1, 2)) == (5, 6, 7)


def test_k4_automorphisms_preserve_faces(k4):
    emb = planarity_test(k4).embedding
    for sigma in brute_automorphisms(k4):
        assert facial_preservation_check(emb, sigma)


def test_cube_rotation_preserves_faces(q3):
    emb = planarity_test(q3).embedding
    sigma = {0: 1, 1: 2, 2: 3, 3: 0, 4: 5, 5: 6, 6: 7, 7: 4}
    assert facial_preservation_check(emb, sigma)


def test_scrambled_rotation_breaks_preservation(q3):
    emb = planarity_test(q3).embedding
    rot = dict(emb.rotation)
    swapped = list(rot[0])
    swapped[0], swapped[1] = swapped[1], swapped[0]
    rot[0] = tuple(swapped)
    bad = RotationSystem(q3, rot)
    sigma = {0: 1, 1: 2, 2: 3, 3: 0, 4: 5, 5: 6, 6: 7, 7: 4}
    assert not facial_preservation_check(bad, sigma)


def test_preservation_rejects_non_automorphisms(k4):
    emb = planarity_test(k4).embedding
    with pytest.raises(NotAnAutomorphism):
        facial_preservation_check(emb, {0: 1, 1: 0, 2: 2, 3: 3, 4: 4})
    with pytest.raises(NotAnAutomorphism):
        facial_preservation_check(emb, {0: 0, 1: 1, 2: 3, 3: 3})


# ---------------------------------------------------------------------------
# uniqueness of the face multiset over relabelings


def test_uniqueness_k4(k4):
    u = face_multiset_uniqueness_check(k4)
    assert u == {"face_multiset": (3, 3, 3, 3), "relabelings": 24,
                 "distinct_edge_sets": 1, "ok": True}


def test_uniqueness_cube(q3):
    u = face_multiset_uniqueness_check(q3)
    assert u["ok"]
    assert u["face_multiset"] == (4, 4, 4, 4, 4, 4)
    assert u["relabelings"] == 40320
    assert u["distinct_edge_sets"] == 840


def test_uniqueness_needs_three_connected(k4e):
    with pytest.raises(PreconditionViolated):
        face_multiset_uniqueness_check(k4e)
