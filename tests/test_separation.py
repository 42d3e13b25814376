import random
from itertools import combinations

import pytest

from planarblocks.blocks1 import b1_family
from planarblocks.errors import MalformedInput
from planarblocks.graph import build_graph, homeomorphic_reduce
from planarblocks.separation import separation_complement

from conftest import g_of
from oracles import (glued_blocks, interior, make_separation,
                     pull_back_separation, random_connected_graph,
                     random_two_connected_graph, separation_fault,
                     spelled_out)


def test_make_separation_basic(k4e):
    a = make_separation(k4e, {0, 1, 2}, {(0, 2), (1, 2)}, {0, 1})
    assert a.va == frozenset({0, 1, 2})
    assert a.ea == frozenset({(0, 2), (1, 2)})
    assert a.boundary == frozenset({0, 1})
    assert interior(a) == frozenset({2})
    assert a.key == ((0, 1, 2), ((0, 2), (1, 2)), (0, 1))


def test_sort_key_orders_by_size_then_lex(k4e):
    small = make_separation(k4e, {0, 1, 2}, {(0, 2), (1, 2)}, {0, 1})
    big = make_separation(k4e, {0, 1, 2}, {(0, 1), (0, 2), (1, 2)}, {0, 1})
    assert small.sort_key() < big.sort_key()
    assert small.subgraph_leq(big)
    assert not big.subgraph_leq(small)


def test_complement_is_involution(k4e):
    a = make_separation(k4e, {0, 1, 2}, {(0, 2), (1, 2)}, {0, 1})
    b = separation_complement(a)
    assert b.key == ((0, 1, 3), ((0, 1), (0, 3), (1, 3)), (0, 1))
    assert separation_complement(b) == a


def test_interior_vertex_must_keep_all_edges(k4e):
    # vertex 2 is interior but edge (1, 2) is left out
    with pytest.raises(MalformedInput):
        make_separation(k4e, {0, 1, 2}, {(0, 2)}, {0, 1})


def test_boundary_needs_edges_on_both_sides(k4e):
    # all edges at vertex 0 are inside, so 0 cannot be a boundary vertex
    with pytest.raises(MalformedInput):
        make_separation(k4e, {0, 1, 2, 3},
                        {(0, 1), (0, 2), (0, 3), (1, 2)}, {0, 3})


def test_hinge_single_edge_rejected(c6_chord):
    with pytest.raises(MalformedInput):
        make_separation(c6_chord, {0, 3}, {(0, 3)}, {0, 3})


def test_hinge_host_minus_one_edge_rejected(c6_chord):
    ea = set(c6_chord.edges) - {(0, 3)}
    with pytest.raises(MalformedInput):
        make_separation(c6_chord, set(c6_chord.vertices), ea, {0, 3})


def test_boundary_size_validation(k4e):
    with pytest.raises(MalformedInput):
        make_separation(k4e, {0, 1, 2}, {(0, 2), (1, 2)}, set())
    with pytest.raises(MalformedInput):
        make_separation(k4e, {0, 1, 2}, {(0, 2), (1, 2)}, {0, 1, 2})
    with pytest.raises(MalformedInput):
        make_separation(k4e, {0, 1, 2}, {(0, 2), (1, 2)}, {0, 3})


def test_stray_vertices_and_edges_rejected(k4e):
    with pytest.raises(MalformedInput):
        make_separation(k4e, {0, 1, 9}, {(0, 2)}, {0})
    with pytest.raises(MalformedInput):
        make_separation(k4e, {0, 1, 2}, {(2, 3)}, {0, 1})


def test_masks_outside_the_host_rejected(k4e):
    ix = k4e.index
    a = make_separation(k4e, 0b0111, 0b01010, 0b0011)
    assert a.key == ((0, 1, 2), ((0, 2), (1, 2)), (0, 1))
    with pytest.raises(MalformedInput, match="va not a subset"):
        make_separation(k4e, 0b10111, 0b01010, 0b0011)
    with pytest.raises(MalformedInput, match="ea not a subset"):
        make_separation(k4e, 0b0111, 1 << len(ix.edges), 0b0011)
    with pytest.raises(MalformedInput, match="boundary must be"):
        make_separation(k4e, 0b0111, 0b01010, -1)


def test_one_boundary_separation(bowtie):
    a = make_separation(bowtie, {0, 1, 2}, {(0, 1), (0, 2), (1, 2)}, {0})
    b = separation_complement(a)
    assert b.key == ((0, 3, 4), ((0, 3), (0, 4), (3, 4)), (0,))


def test_pull_back_expands_walks(book_k4):
    # subdivide edge 4-5 of the book through a new vertex 9
    edges = [e for e in book_k4.edges if e != (4, 5)] + [(4, 9), (5, 9)]
    host = build_graph(range(10), edges)
    rg = homeomorphic_reduce(host)
    assert rg.graph == book_k4
    a = make_separation(rg.graph, {0, 1, 4, 5},
                        {(0, 4), (0, 5), (1, 4), (1, 5), (4, 5)}, {0, 1})
    back = pull_back_separation(host, rg, a)
    assert back.host == host
    assert back.va == frozenset({0, 1, 4, 5, 9})
    assert back.ea == frozenset({(0, 4), (0, 5), (1, 4), (1, 5), (4, 9), (5, 9)})
    assert back.boundary == frozenset({0, 1})


def test_pull_back_checks_host(book_k4):
    rg = homeomorphic_reduce(book_k4)
    a = make_separation(book_k4, {0, 1, 4, 5},
                        {(0, 4), (0, 5), (1, 4), (1, 5), (4, 5)}, {0, 1})
    other = homeomorphic_reduce(g_of("0-1,1-2,2-0"))
    with pytest.raises(MalformedInput):
        pull_back_separation(book_k4, other, a)


def test_separation_equality_includes_host(c6, c6_chord):
    va, ea, bd = {0, 1, 2, 3}, {(0, 1), (1, 2), (2, 3)}, {0, 3}
    a = make_separation(c6, va, ea, bd)
    b = make_separation(c6, va, ea, bd)
    c = make_separation(c6_chord, va, ea, bd)
    assert a == b
    assert a.key == c.key
    assert a != c


def _near_separation(rng, g):
    """A random vertex set with the boundary and edges a separation on it
    would have, then often one vertex, edge or boundary vertex toggled,
    or a stray vertex or edge added."""
    vs, es = list(g.vertices), list(g.edges)
    va = set(rng.sample(vs, rng.randint(1, len(vs))))
    boundary = {v for v in va if any(w not in va for w in g.neighbors(v))}
    if not boundary or rng.random() < 0.2:
        boundary = set(rng.sample(sorted(va), min(len(va), rng.randint(0, 3))))
    ea = {e for e in es if e[0] in va and e[1] in va
          and (e[0] not in boundary or e[1] not in boundary
               or rng.random() < 0.5)}
    change = rng.randrange(8)
    if change == 0:
        va ^= {rng.choice(vs)}
    elif change == 1:
        ea ^= {rng.choice(es)} if es else set()
    elif change == 2:
        boundary ^= {rng.choice(sorted(va) or vs)}
    elif change == 3:
        va.add(max(vs) + 1)
    elif change == 4:
        ea.add((max(vs) + 1, max(vs) + 2))
    return va, ea, boundary


def test_make_separation_agrees_with_set_checks():
    rng = random.Random("make-separation-masks")
    seen = set()
    for _ in range(1500):
        g = (random_connected_graph(rng, 9) if rng.random() < 0.6
             else random_two_connected_graph(rng, 8))
        va, ea, boundary = _near_separation(rng, g)
        want = separation_fault(g, va, ea, boundary)
        try:
            s = make_separation(g, va, ea, boundary)
        except MalformedInput as exc:
            assert str(exc) == want, (va, ea, boundary)
        else:
            assert want is None, (va, ea, boundary, want)
            assert s.key == (tuple(sorted(va)), tuple(sorted(ea)),
                             tuple(sorted(boundary)))
            # the complement is built unchecked: its sets pass too
            cva = g.vertex_set - set(va) | set(boundary)
            cea = g.edge_set - set(ea)
            assert separation_fault(g, cva, cea, boundary) is None
            assert separation_complement(s) == \
                make_separation(g, cva, cea, boundary)
        seen.add(want)
    # every outcome of make_separation was reached, passing included
    assert len(seen) == 9, seen


def test_masks_order_and_compare_as_the_sets_do():
    rng = random.Random("separation-mask-order")
    for _ in range(20):
        g = glued_blocks(rng)
        sides = spelled_out(b1_family(g)).elements
        for a, b in combinations(sides, 2):
            assert a.subgraph_leq(b) == (a.va <= b.va and a.ea <= b.ea)
            assert (a == b) == (a.key == b.key)
            if a == b:
                assert hash(a) == hash(b)
        for a in sides:
            ac = separation_complement(a)
            assert ac.va == (g.vertex_set - a.va) | a.boundary
            assert ac.ea == g.edge_set - a.ea
            assert a.sort_key() == (len(a.ea), a.key[1], a.key[2])
