import json
import os
import random
import subprocess
import sys
import time
from itertools import combinations

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from planarblocks.blocks1 import block_cut_tree
from planarblocks.errors import MalformedInput, NotConnected, TooLarge
from planarblocks.graph import (MAX_UNNAMED_VERTICES, build_graph,
                                connected_components,
                                cut_vertices, edge_key,
                                homeomorphic_reduce, induced_subgraph,
                                is_connected, is_simple_cycle,
                                is_two_connected, PalmForest,
                                parse_edge_list, two_cuts)

from conftest import complete_graph, cycle_graph, g_of, path_graph
from oracles import (bfs_components, chorded_cycle, format_edge_list,
                     glued_blocks, is_three_connected_by_cutsets,
                     lowpoint_blocks, lowpoint_dfs, random_connected_graph,
                     remove_vertices, restart_reduction, separating_sets)


def test_edge_key_orients():
    assert edge_key(3, 1) == (1, 3)
    assert edge_key(1, 3) == (1, 3)


def test_build_graph_rejects_loops_and_strays():
    with pytest.raises(MalformedInput):
        build_graph([0, 1], [(0, 0)])
    with pytest.raises(MalformedInput):
        build_graph([0, 1], [(0, 2)])
    with pytest.raises(MalformedInput):
        build_graph([], [])


def test_vertex_and_edge_sets_are_cached(k4e):
    assert k4e.edge_set is k4e.edge_set
    assert k4e.vertex_set is k4e.vertex_set
    assert k4e.edge_set == frozenset(k4e.edges)
    assert k4e.vertex_set == frozenset(k4e.vertices)
    for u in range(-1, 5):
        for v in range(-1, 5):
            assert k4e.has_edge(u, v) == (edge_key(u, v) in k4e.edges)


def test_build_graph_collapses_duplicates():
    g = build_graph([0, 1, 1], [(1, 0), (0, 1)])
    assert g.vertices == (0, 1)
    assert g.edges == ((0, 1),)


def test_parse_format_roundtrip(q3):
    text = format_edge_list(q3)
    assert parse_edge_list(text) == q3


def test_parse_edge_list_errors():
    with pytest.raises(MalformedInput):
        parse_edge_list("0 1\n1 -2\n")
    with pytest.raises(MalformedInput):
        parse_edge_list("")
    with pytest.raises(MalformedInput):
        parse_edge_list("vertices: 2\n0 5\n")


def test_parse_edge_list_isolated_vertices():
    g = parse_edge_list("vertices: 4\n0 1\n")
    assert g.vertices == (0, 1, 2, 3)
    assert g.edges == ((0, 1),)


def test_header_may_add_up_to_the_bound_of_unnamed_vertices(monkeypatch):
    from planarblocks import graph
    monkeypatch.setattr(graph, "MAX_UNNAMED_VERTICES", 3)
    # 0 and 4 are named by the edge, so the header adds 3 unnamed ones
    assert len(parse_edge_list("vertices: 5\n0 4\n").vertices) == 5
    with pytest.raises(TooLarge) as info:
        parse_edge_list("vertices: 6\n0 4\n")
    assert info.value.witness == {"declared": 6, "limit": 3}
    # a header naming only its edges' vertices always answers
    assert len(parse_edge_list("vertices: 6\n0 1\n2 3\n4 5\n").vertices) == 6
    # and the out-of-range check still comes first
    with pytest.raises(MalformedInput):
        parse_edge_list("vertices: 100\n0 100\n")


def test_huge_header_is_refused_in_bounded_memory(tmp_path):
    # a header of 10^14 vertices would need petabytes as a vertex set
    import resource
    room = 1000 * 10 ** 6

    def bound():
        resource.setrlimit(resource.RLIMIT_AS, (room, room))
    path = tmp_path / "huge.edges"
    path.write_text("vertices: 99999999999999\n0 1\n")
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "planarblocks", "blocks", str(path),
         "--format", "json"],
        capture_output=True, text=True, env=env, timeout=60,
        preexec_fn=bound)
    elapsed = time.monotonic() - t0
    assert proc.stderr == "", proc.stderr
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["error"] == {
        "kind": "too-large",
        "message": "vertices header adds too many isolated vertices",
        "witness": {"declared": 99999999999999,
                    "limit": MAX_UNNAMED_VERTICES}}
    assert elapsed < 1.0, elapsed


def test_adjacency_accessors(k4e):
    assert k4e.neighbors(0) == (1, 2, 3)
    assert k4e.degree(2) == 2
    assert k4e.neighbors(2) == (0, 1)
    assert k4e.has_edge(3, 1) and not k4e.has_edge(2, 3)
    assert 3 in k4e and 9 not in k4e


def test_connected_components():
    g = build_graph(range(5), [(0, 1), (1, 2), (3, 4)])
    assert connected_components(g) == [(0, 1, 2), (3, 4)]
    assert not is_connected(g)
    assert is_connected(induced_subgraph(g, (0, 1, 2)))


def test_component_search_matches_a_copy_without_the_dropped_vertices():
    rng = random.Random(7)
    for _ in range(150):
        g = random_connected_graph(rng, 10)
        for size in (0, 1, 2):
            disconnecting = []
            for drop in combinations(g.vertices, size):
                rest = remove_vertices(g, drop)
                assert bfs_components(g, drop) == connected_components(rest)
                if rest.vertices and not is_connected(rest):
                    disconnecting.append((drop, connected_components(rest)))
            if size:
                assert list(separating_sets(g, size)) == disconnecting
        _, arts = lowpoint_blocks(g)
        assert {c for (c,), _ in separating_sets(g, 1)} == arts


def test_remove_vertices_keeps_labels(bowtie):
    h = remove_vertices(bowtie, {0})
    assert h.vertices == (1, 2, 3, 4)
    assert h.edges == ((1, 2), (3, 4))


def test_shape_predicates(c6):
    assert is_simple_cycle(c6)
    assert not is_simple_cycle(path_graph(4))


def test_connectivity_predicates(k4, k5, prism, k4e, c6, bowtie):
    assert is_two_connected(c6)
    assert is_two_connected(k4e)
    assert is_two_connected(complete_graph(3))
    assert not is_two_connected(path_graph(4))
    assert not is_two_connected(bowtie)
    assert not is_two_connected(complete_graph(2))
    assert not is_two_connected(build_graph(range(4), [(0, 1), (2, 3)]))
    # no cutset of size at most 2 and at least 4 vertices: K4 passes
    assert is_three_connected_by_cutsets(k4)
    assert is_three_connected_by_cutsets(k5)
    assert is_three_connected_by_cutsets(prism)
    assert not is_three_connected_by_cutsets(k4e)
    assert not is_three_connected_by_cutsets(c6)


@st.composite
def _blocks(draw):
    """A chorded cycle, or one block of a glued_blocks host."""
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    if draw(st.booleans()):
        return chorded_cycle(rng, n=rng.randint(5, 14),
                             chords=rng.randint(0, 5))
    return draw(st.sampled_from(block_cut_tree(glued_blocks(rng)).blocks))


def _connectivity_by_cutsets(g):
    """(is_two_connected, is_three_connected_by_cutsets) of g by their
    definitions, from the cutset oracle."""
    n = len(g.vertices)
    no_cut = is_connected(g) and not any(separating_sets(g, 1))
    return (n >= 3 and no_cut,
            n >= 4 and no_cut and not any(separating_sets(g, 2)))


@settings(max_examples=150, deadline=None)
@given(_blocks())
def test_one_lowpoint_dfs_answers_the_cutset_oracle(b):
    assert list(two_cuts(b)) == list(separating_sets(b, 2)), b.edges
    assert (is_two_connected(b), is_three_connected_by_cutsets(b)) == \
        _connectivity_by_cutsets(b)
    for v in b.vertices:
        rest = induced_subgraph(b, [u for u in b.vertices if u != v])
        want = tuple(c for (c,), _ in separating_sets(rest, 1))
        assert cut_vertices(rest) == want
        assert tuple(sorted(lowpoint_dfs(b, v)[2])) == want
        skipped = PalmForest(b.palm.adj, b.vertices.index(v))
        assert tuple(sorted(b.vertices[c] for c in skipped.splits())) == want
        assert (is_two_connected(rest), is_three_connected_by_cutsets(rest)) \
            == _connectivity_by_cutsets(rest)


def test_skipping_a_cut_vertex_reports_the_pieces(bowtie):
    with pytest.raises(NotConnected) as err:
        lowpoint_dfs(bowtie, 0)
    assert err.value.witness == [[1, 2], [3, 4]]
    with pytest.raises(NotConnected) as err:
        two_cuts(bowtie)
    assert err.value.witness == [[1, 2], [3, 4]]


@st.composite
def _spread_hosts(draw):
    """Up to four pieces, each a random connected graph, one vertex
    among them as often as not, on labels spread out and shuffled."""
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    pieces = [random_connected_graph(rng, rng.choice((1, 3, 8)))
              for _ in range(draw(st.integers(1, 4)))]
    n = sum(len(p.vertices) for p in pieces)
    labels = rng.sample(range(5 * n), n)
    vs, es, base = [], [], 0
    for p in pieces:
        vs += labels[base:base + len(p.vertices)]
        es += [(labels[base + u], labels[base + v]) for u, v in p.edges]
        base += len(p.vertices)
    return build_graph(vs, es)


def _outcome(f, *args):
    try:
        return f(*args)
    except NotConnected as exc:
        return "not connected", exc.witness


def _two_cuts_by_search(g):
    """`two_cuts` of g from the name-keyed lowpoint DFS per skipped
    vertex and the BFS that skips the pair."""
    out = []
    for i, v in enumerate(g.vertices[:-1]):
        split = lowpoint_dfs(g, v)[2]
        out += [((v, w), bfs_components(g, (v, w)))
                for w in g.vertices[i + 1:] if w in split]
    return out


def _nx_pieces(h, vs):
    return sorted(tuple(sorted(c)) for c in nx.connected_components(
        h.subgraph(vs)))


@settings(max_examples=200, deadline=None)
@given(_spread_hosts())
def test_palm_forest_facts_match_the_searches_and_networkx(g):
    h = nx.Graph()
    h.add_nodes_from(g.vertices)
    h.add_edges_from(g.edges)
    comps = bfs_components(g)
    assert list(g.components) == connected_components(g) == comps
    assert _nx_pieces(h, g.vertices) == comps
    assert _outcome(lambda: list(two_cuts(g))) == \
        _outcome(_two_cuts_by_search, g)
    if len(comps) > 1:
        assert not is_two_connected(g)
        assert _outcome(cut_vertices, g) == \
            ("not connected", [list(c) for c in comps])
    for comp in comps:
        c = induced_subgraph(g, comp)
        cuts = tuple(sorted(nx.articulation_points(h.subgraph(comp))))
        assert cut_vertices(c) == cuts == tuple(sorted(lowpoint_dfs(c)[2]))
        blocks = list(nx.biconnected_components(h.subgraph(comp)))
        assert is_two_connected(c) == (len(comp) >= 3 and len(blocks) == 1)
        assert _outcome(lambda: list(two_cuts(c))) == \
            _outcome(_two_cuts_by_search, c)
        if is_two_connected(c):
            assert list(two_cuts(c)) == [
                ((v, w), _nx_pieces(h, set(comp) - {v, w}))
                for v, w in combinations(comp, 2)
                if nx.number_connected_components(
                    h.subgraph(set(comp) - {v, w})) > 1]


def test_reduce_keeps_simple_cycles(c6):
    rg = homeomorphic_reduce(c6)
    assert rg.graph == c6
    assert rg.walks == {e: (e,) for e in c6.edges}


def test_reduce_path_collapses_to_edge():
    rg = homeomorphic_reduce(path_graph(4))
    assert rg.graph.vertices == (0, 3)
    assert rg.graph.edges == ((0, 3),)
    assert rg.walks == {(0, 3): ((0, 1, 2, 3),)}


def test_reduce_theta_collapses_to_edge(twosquares):
    rg = homeomorphic_reduce(twosquares)
    assert rg.graph.edges == ((4, 5),)
    # 0-2-3-1 collapses onto the edge 0-1, and once 0 and 1 go, both
    # collapse onto the edge 4-5 behind its own walk
    assert rg.walks == {(4, 5): ((4, 5), (4, 0, 1, 5), (0, 2, 3, 1))}
    # every host edge must map onto the single surviving edge
    em = rg.edge_map()
    assert set(em) == twosquares.edge_set
    assert set(em.values()) == {(4, 5)}


def test_reduce_leaves_reduced_graphs_alone(bowtie_k4s, book_k4):
    for g in (bowtie_k4s, book_k4):
        rg = homeomorphic_reduce(g)
        assert rg.graph == g
        assert set(rg.edge_map()) == g.edge_set


def test_reduce_edge_map_total(grid3x3):
    rg = homeomorphic_reduce(grid3x3)
    # grid corners have degree 2: the grid reduces to a 4-spoke wheel
    assert rg.graph.vertices == (1, 3, 4, 5, 7)
    assert len(rg.graph.edges) == 8
    assert set(rg.edge_map()) == grid3x3.edge_set


def test_reduce_disconnected_rejected():
    g = build_graph(range(4), [(0, 1), (2, 3)])
    with pytest.raises(NotConnected):
        homeomorphic_reduce(g)


def _subdivide(edges, n, lengths):
    """(edges, n): each edge split by its number of new vertices, numbered
    from n on, and the next unused number."""
    out = []
    for (u, v), k in zip(edges, lengths):
        path = [u, *range(n, n + k), v]
        out += zip(path, path[1:])
        n += k
    return out, n


@st.composite
def _subdivided_graphs(draw):
    """A random connected graph with its edges subdivided and chords
    added, often between two subdivision vertices, relabelled at random:
    suppressions then collapse parallel branches, in an order set by the
    new names."""
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    g = random_connected_graph(rng, max_vertices=7)
    edges, n = _subdivide(g.edges, len(g.vertices),
                          [rng.randint(0, 4) for _ in g.edges])
    if n > 1:
        edges += [rng.sample(range(n), 2) for _ in range(rng.randint(0, 4))]
    name = rng.sample(range(4 * n), n)
    return build_graph(name, [(name[u], name[v]) for u, v in edges])


@settings(max_examples=300, deadline=None)
@given(_subdivided_graphs())
def test_reduce_matches_the_restart_loop(g):
    rg = homeomorphic_reduce(g)
    graph, walks = restart_reduction(g)
    assert rg.graph == graph
    assert rg.walks == walks        # each edge's walks in the same order
    assert rg.edge_map() == {edge_key(a, b): e for e, ws in walks.items()
                             for w in ws for a, b in zip(w, w[1:])}
    assert set(rg.edge_map()) == g.edge_set


def test_subdivided_k4_reduces_in_one_pass():
    # rescanning from the least vertex after every suppression is
    # quadratic, and took more than twice this budget
    k = 4000
    edges, n = _subdivide(complete_graph(4).edges, 4, [k] * 6)
    g = build_graph(range(n), edges)
    assert len(g.vertices) == 24004
    t0 = time.monotonic()
    rg = homeomorphic_reduce(g)
    elapsed = time.monotonic() - t0
    assert rg.graph == complete_graph(4)
    assert all(len(w) == k + 2 for (w,) in rg.walks.values())
    assert elapsed < 2.0, elapsed


def test_no_degree_two_after_reduction(bowtie, twosquares, c5_chord, grid3x3):
    for g in (bowtie, twosquares, c5_chord, grid3x3):
        rg = homeomorphic_reduce(g)
        assert all(rg.graph.degree(v) != 2 for v in rg.graph.vertices)


def test_graph_iteration_is_sorted():
    g = build_graph([3, 1, 2], [(3, 1), (2, 1)])
    assert g.vertices == (1, 2, 3)
    assert g.edges == ((1, 2), (1, 3))


def test_records_compare_by_value():
    # graphs, presentations and group tables compare by their contents,
    # and graphs and presentations hash by them: `surface_signature`
    # compares presentations, and the layers compare hosts
    from planarblocks.cayley import GroupTable, Presentation
    from planarblocks.graph import Graph
    g = Graph((0, 1, 2), ((0, 1), (1, 2)))
    assert g == Graph(tuple([0, 1, 2]), ((0, 1), (1, 2)))
    assert g != Graph((0, 1, 2), ((0, 1),))
    assert g != ((0, 1, 2), ((0, 1), (1, 2)))
    assert hash(g) == hash(((0, 1, 2), ((0, 1), (1, 2))))
    assert repr(g) == "Graph(vertices=(0, 1, 2), edges=((0, 1), (1, 2)))"
    rels = (((("a", 1),), 2), ((("b", 1),), 3), ((("a", 1), ("b", 1)), 2))
    pr = Presentation(("a", "b"), rels)
    assert pr == Presentation(("a", "b"), tuple(list(rels)))
    assert pr != Presentation(("b", "a"), rels)
    assert pr != Presentation(("a", "b"), rels[:2])
    assert hash(pr) == hash((("a", "b"), rels))
    assert len({pr, Presentation(("a", "b"), rels)}) == 1
    images = {"a": [1, 0, 5, 4, 3, 2], "b": [2, 4, 3, 0, 5, 1]}
    tbl = GroupTable(6, ("a", "b"), images)
    assert tbl == GroupTable(6, ("a", "b"), dict(images))
    assert tbl != GroupTable(6, ("a",), {"a": images["a"]})
    assert tbl != GroupTable(6, ("b", "a"), images)
    with pytest.raises(TypeError):
        hash(tbl)
