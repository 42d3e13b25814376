"""`serialize.dumps` against the stdlib encoder on random payloads.

The oracle is the coercion in `oracles.jsonable` followed by
``json.dumps(..., sort_keys=True, indent=2)``; the writer must give the
same text byte for byte.
"""

import json

from hypothesis import given, settings, strategies as st

from oracles import jsonable
from planarblocks.graph import Graph
from planarblocks.serialize import dumps


def oracle(payload):
    body = dict(payload)
    body["schema"] = 1
    return json.dumps(jsonable(body), sort_keys=True, indent=2) + "\n"


def _graph(edges, isolated):
    vertices = sorted({v for e in edges for v in e} | set(isolated))
    return Graph(tuple(vertices), tuple(sorted(edges)))


small = st.integers(-3, 40)
graphs = st.builds(
    _graph,
    st.sets(st.tuples(small, small).filter(lambda e: e[0] < e[1]),
            max_size=6),
    st.sets(small, max_size=3))
texts = st.text(st.one_of(
    st.characters(),
    st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7fé ퟿\U0001f600')),
    max_size=8)
floats = st.one_of(st.floats(), st.sampled_from(
    [float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 1e300, 5e-324]))
# True beside 1 and False beside 0, so a bool is never written as an int
ints = st.one_of(st.integers(), st.sampled_from([0, 1, True, False, -1]))
hashables = st.one_of(st.none(), ints, floats, texts,
                      st.tuples(small, small), st.frozensets(small, max_size=3))
# keys that collide once made strings: 1 and "1", None and "None", a
# tuple and its repr
keys = st.one_of(hashables, st.sampled_from(
    [1, "1", None, "None", (1, 2), "(1, 2)", 2.5, "2.5", "schema"]))
# one graph object that recurs wherever it is drawn, at any depth
shared_graphs = st.shared(graphs, key="one graph")
scalars = st.one_of(
    hashables, graphs, shared_graphs,
    st.sampled_from([1 + 2j, range(3), b"\x00b", Ellipsis]))  # written as repr
rows = st.one_of(
    st.lists(ints, max_size=5),
    st.lists(st.one_of(st.tuples(small, small),
                       st.lists(ints, min_size=2, max_size=2)), max_size=5),
    st.lists(st.lists(small, max_size=3), max_size=4))


def _containers(inner):
    return st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(keys, inner, max_size=4),
        st.sets(st.one_of(hashables, graphs, shared_graphs), max_size=4),
        st.frozensets(hashables, max_size=4))


values = st.recursive(st.one_of(scalars, rows), _containers, max_leaves=24)


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(keys, values, max_size=6), shared_graphs)
def test_dumps_matches_the_stdlib_encoder(payload, g):
    # the shared graph also sits at the top and two levels down, where
    # its text is the first one re-based to the new indent
    payload = {**payload, "top": g, "deep": [{"g": g}, (g, [g])]}
    assert dumps(payload) == oracle(payload)


def test_dumps_handles_the_edge_cases_by_name():
    payload = {1: "one", "1": "string one", (0, 1): [], "e": {},
               "b": [True, 0, False, 1], "f": [float("nan"), -0.0,
                                              float("inf"), float("-inf")],
               "s": {3, "3", (3,), None}, "g": _graph({(0, 1), (1, 2)}, {5}),
               "rows": [(0, 1), [1, 2]], "ragged": [[0], [1, 2], []],
               "bool rows": [(True, 0), (1, 2)], "u": 'é"\\\n\x00'}
    assert dumps(payload) == oracle(payload)
    # the blocks payload: one block at depth 2 under "blocks", then at
    # depth 3 in its tree vertex, and the same deeper first
    block = _graph({(0, 1), (0, 2), (1, 2)}, ())
    for payload in ({"blocks": [block],
                     "tree_vertices": [{"graph": block, "id": 0}]},
                    {"a": [{"graph": block}], "b": [block], "c": block,
                     "d": [[[block]]], "e": (block, block)}):
        assert dumps(payload) == oracle(payload)
