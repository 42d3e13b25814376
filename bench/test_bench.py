"""Tests of the benchmark's own parts: seeded inputs and output checks.

    python3 -m pytest bench/test_bench.py -q

Each checker is shown a real output, which it must accept, and corrupted
copies of it, each of which it must reject.
"""

from __future__ import annotations

import copy
import filecmp
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
from planarblocks import cli  # noqa: E402


# ------------------------------------------------------------------ inputs

@pytest.mark.parametrize("workload", sorted(inputs.WORKLOADS))
def test_same_seed_gives_identical_bytes(workload, tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    inputs.write_corpus(workload, inputs.DEFAULT_SEED, str(a))
    inputs.write_corpus(workload, inputs.DEFAULT_SEED, str(b))
    names = sorted(os.listdir(a))
    assert names == sorted(os.listdir(b))
    _, mismatch, errors = filecmp.cmpfiles(a, b, names, shallow=False)
    assert not mismatch and not errors


@pytest.mark.parametrize("workload", ["blocks", "triblocks", "cayley"])
def test_other_seed_gives_other_inputs_of_the_same_make_up(workload):
    one = inputs.corpus(workload, inputs.DEFAULT_SEED)
    two = inputs.corpus(workload, inputs.CONFIRM_SEED)
    assert [op["name"] for op in one] == [op["name"] for op in two]
    assert [op["text"] for op in one] != [op["text"] for op in two]


def test_glued_blocks_have_one_cut_vertex_per_joint():
    import random
    for seed in range(20):
        g = inputs.glue_at_vertices(random.Random(seed),
                                    [inputs.cycle(4)] * 6)
        blocks, cuts = checks.lowpoint_blocks(checks.G(range(g[0]), g[1]))
        assert len(blocks) == 6 and len(cuts) == 5


# ------------------------------------------------------------------ checks

def _run(tmp_path, command, text, *flags, suffix=".edges"):
    path = tmp_path / ("input" + suffix)
    path.write_text(text)
    code, out = cli.run([command, str(path), "--format", "json", *flags])
    return code, json.loads(out)


def _edges(graph):
    return inputs.edge_list_text(graph, "test")


def test_blocks_check_accepts_and_rejects(tmp_path):
    g = inputs.glue_at_vertices(__import__("random").Random(3),
                                [inputs.cycle(4), inputs.complete(4),
                                 inputs.path(2), inputs.cycle(3)])
    graph = checks.parse_edge_list(_edges(g))
    code, out = _run(tmp_path, "blocks", _edges(g))
    assert checks.check_blocks(graph, code, out, {}) == []

    bad = copy.deepcopy(out)
    bad["cut_vertices"] = bad["cut_vertices"][1:]
    assert checks.check_blocks(graph, code, bad, {})

    bad = copy.deepcopy(out)
    bad["blocks"][0]["edges"] += bad["blocks"][1]["edges"]
    del bad["blocks"][1]
    assert checks.check_blocks(graph, code, bad, {})

    bad = copy.deepcopy(out)
    bad["tree_edges"] = bad["tree_edges"][1:]
    assert checks.check_blocks(graph, code, bad, {})

    bad = copy.deepcopy(out)
    cut = next(n for n in bad["tree_vertices"] if n["kind"] == "cut")
    cut["vertex"] = next(v for v in graph.vertices
                         if v not in out["cut_vertices"])
    assert checks.check_blocks(graph, code, bad, {})


def test_blocks_check_wants_the_named_error(tmp_path):
    g = inputs.disjoint_union(inputs.cycle(3), inputs.path(2))
    code, out = _run(tmp_path, "blocks", _edges(g))
    graph = checks.parse_edge_list(_edges(g))
    assert checks.check_blocks(graph, code, out,
                               {"error": "not-connected"}) == []
    assert checks.check_blocks(graph, code, out, {"error": "overflow"})
    assert checks.check_blocks(graph, code, out, {})


def _triblocks(tmp_path, graph, *flags):
    code, out = _run(tmp_path, "triblocks", _edges(graph), *flags)
    return checks.parse_edge_list(_edges(graph)), code, out


def test_triblocks_check_accepts_and_rejects(tmp_path):
    graph, code, out = _triblocks(tmp_path, inputs.book(3))
    expect = {"k4_torsos": 3}
    assert checks.check_triblocks(graph, code, out, expect) == []
    assert checks.check_triblocks(graph, code, out, {"k4_torsos": 4})
    assert checks.check_triblocks(graph, code, out,
                                  {"kinds": {"ThreeConnected": 3}})

    torsos = [i for i, n in enumerate(out["tree_vertices"])
              if len(n["torso"]["vertices"]) == 4]

    bad = copy.deepcopy(out)
    region = bad["tree_vertices"][torsos[0]]["region"]
    region["edges"] = region["edges"][1:]
    assert checks.check_triblocks(graph, code, bad, expect)

    bad = copy.deepcopy(out)
    witness = bad["tree_vertices"][torsos[0]]["witness"]
    witness["vertices"].append(99)
    witness["edges"].append([0, 99])
    assert checks.check_triblocks(graph, code, bad, expect)

    bad = copy.deepcopy(out)
    bad["tree_edges"].append(list(bad["tree_edges"][0]))
    assert checks.check_triblocks(graph, code, bad, expect)

    bad = copy.deepcopy(out)
    bad["reduced"]["edges"].append([2, 5])
    assert checks.check_triblocks(graph, code, bad, expect)


def test_triblocks_check_tests_torso_shapes(tmp_path):
    graph, code, out = _triblocks(tmp_path, inputs.cycle(6))
    assert checks.check_triblocks(graph, code, out, {}) == []
    bad = copy.deepcopy(out)
    bad["tree_vertices"][0]["torso"]["edges"].append([0, 3])
    bad["tree_vertices"][0]["virtual_edges"].append([0, 3])
    assert checks.check_triblocks(graph, code, bad, {})

    graph, code, out = _triblocks(tmp_path, inputs.prism(3))
    assert checks.check_triblocks(graph, code, out, {}) == []
    bad = copy.deepcopy(out)
    # a 6-vertex "3-connected" torso with the cut vertex 0
    bad["tree_vertices"][0]["torso"] = {
        "vertices": list(range(6)),
        "edges": [[0, 1], [0, 2], [1, 2], [0, 3], [0, 4], [3, 4], [4, 5],
                  [3, 5]]}
    assert checks.check_triblocks(graph, code, bad, {})


def _cayley(tmp_path, text):
    return _run(tmp_path, "cayley", text, suffix=".pres")


def _walks(tmp_path, out):
    code, faces = _run(tmp_path, "faces", "vertices: %d\n" % len(
        out["graph"]["vertices"]) + "".join(
            "%d %d\n" % tuple(e) for e in out["graph"]["edges"]))
    assert code == 0
    return faces["walks"]


def test_cayley_check_accepts_and_rejects_planar(tmp_path):
    code, out = _cayley(tmp_path, "surface(0, [2,3,4], 0)\n")
    walks = _walks(tmp_path, out)
    expect = {"order": 24, "planar": True}
    assert checks.check_cayley(code, out, expect, walks) == []
    assert checks.check_cayley(code, out, {"order": 12}, walks)
    assert checks.check_cayley(code, out, {"order": 24, "planar": False},
                               walks)
    assert checks.check_cayley(code, out, expect, None)

    bad = copy.deepcopy(out)
    bad["face_count"] += 1
    assert checks.check_cayley(code, bad, expect, walks)

    swapped = copy.deepcopy(walks)
    longest = max(swapped, key=len)
    longest[0], longest[1] = longest[1], longest[0]
    assert checks.check_cayley(code, out, expect, swapped)

    assert checks.check_cayley(code, out, expect, walks[1:])


def test_cayley_check_accepts_and_rejects_kuratowski(tmp_path):
    code, out = _cayley(tmp_path,
                        "gens: a b\nrels: a^3, b^3, (a*b*a^-1*b^-1)\n")
    expect = {"order": 9, "planar": False}
    assert checks.check_cayley(code, out, expect) == []

    bad = copy.deepcopy(out)
    bad["witness"]["edges"] = bad["witness"]["edges"][1:]
    assert checks.check_cayley(code, bad, expect)

    bad = copy.deepcopy(out)
    bad["graph"]["edges"] = [e for e in bad["graph"]["edges"]
                             if e != bad["witness"]["edges"][0]]
    assert checks.check_cayley(code, bad, expect)


def test_cayley_check_wants_overflow(tmp_path):
    code, out = _cayley(tmp_path, "surface(0, [2,3,7], 0)\n")
    assert checks.check_cayley(code, out, {"error": "overflow"}) == []
    code, out = _cayley(tmp_path, "gens: a\nrels: a^5\n")
    assert checks.check_cayley(code, out, {"error": "overflow"})


def test_kuratowski_kind_from_definitions():
    k5 = checks.G(range(5), [(i, j) for i in range(5)
                             for j in range(i + 1, 5)])
    assert checks.kuratowski_kind(k5, k5) == "K5"
    n, es = inputs.k33()
    k33 = checks.G(range(n), es)
    assert checks.kuratowski_kind(k33, k33) == "K33"
    # subdividing an edge keeps the kind
    sub = checks.G(range(7), [e for e in es if e != (0, 3)]
                   + [(0, 6), (6, 3)])
    assert checks.kuratowski_kind(sub, sub) == "K33"
    # K3,3 minus an edge and K5 plus a pendant edge are no witnesses
    less = checks.G(range(6), es[1:])
    assert checks.kuratowski_kind(less, less) is None
    more = checks.G(range(6), k5.edges + [(0, 5)])
    assert checks.kuratowski_kind(more, more) is None
