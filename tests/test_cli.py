"""Command line behavior: exit codes, formats, limits, determinism."""

import ast
import glob
import json
import os
import re
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

from conftest import FIXTURES, fixture_path
from oracles import argparse_command_line
from planarblocks.cli import COMMANDS, _read_argv, run
from planarblocks.errors import MalformedInput


def fx(name):
    return fixture_path(name)


# ---------------------------------------------------------------------------
# exit codes


def test_triblocks_json_exit_zero():
    code, out = run(["triblocks", fx("bowtie.edges"), "--format", "json"])
    assert code == 0
    d = json.loads(out)
    assert d["schema"] == 1
    assert d["command"] == "triblocks"
    assert len(d["tree_vertices"]) == 3
    kinds = [v["kind"] for v in d["tree_vertices"]]
    assert kinds == ["CutPoint", "ThreeConnected", "ThreeConnected"]
    assert d["tree_edges"] == [[0, 1], [0, 2]]


def test_planar_text_reports_witness():
    code, out = run(["planar", fx("k5.edges")])
    assert code == 0
    assert out.startswith("planar: no\n")
    assert "witness edges:" in out
    code, out = run(["planar", fx("k4.edges")])
    assert code == 0
    assert out.startswith("planar: yes\n")


def test_domain_errors_exit_one_with_json_error():
    code, out = run(["blocks", fx("disconnected.edges")])
    assert code == 1
    err = json.loads(out)["error"]
    assert err["kind"] == "not-connected"
    assert err["witness"]


def test_not_connected_witness_is_the_components_everywhere():
    for argv in (["blocks"], ["blocks", "--reduce"], ["triblocks"],
                 ["planar"], ["faces"]):
        code, out = run([argv[0], fx("disconnected.edges"), *argv[1:]])
        assert code == 1, argv
        err = json.loads(out)["error"]
        assert err["kind"] == "not-connected", argv
        assert err["witness"] == [[0, 1, 2], [3, 4]], argv


def test_help_is_returned_not_printed(capsys):
    code, out = run(["autos", "--help"])
    assert code == 0
    assert out.startswith("usage: planarblocks autos")
    assert "--limit" in out
    code, out = run(["--help"])
    assert code == 0
    assert out.startswith("usage: planarblocks")
    assert "triblocks" in out
    assert capsys.readouterr().out == ""


def test_parse_errors_exit_two():
    code, out = run(["planar", "no-such-file.edges"])
    assert code == 2
    assert json.loads(out)["error"]["kind"] == "malformed-input"
    code, out = run(["bogus-command"])
    assert code == 2
    code, out = run(["planar", fx("k4.edges"), "--format", "yaml"])
    assert code == 2
    code, out = run([])
    assert code == 2


def test_malformed_edge_file_exits_two(tmp_path):
    bad = tmp_path / "bad.edges"
    bad.write_text("0 1\n1 x\n")
    code, out = run(["planar", str(bad)])
    assert code == 2
    assert json.loads(out)["error"]["kind"] == "malformed-input"


def test_superscript_digits_are_malformed(tmp_path):
    # str.isdigit accepts superscript digits, which int() refuses
    bad = tmp_path / "bad.edges"
    for text in ("0 \u00b9\n", "vertices: \u00b2\n0 1\n"):
        bad.write_text(text, encoding="utf-8")
        code, out = run(["blocks", str(bad)])
        assert code == 2, text
        assert json.loads(out)["error"]["kind"] == "malformed-input", text


def test_dot_rejected_where_unsupported():
    for cmd in ("faces", "autos", "check"):
        code, out = run([cmd, fx("k4.edges"), "--format", "dot"])
        assert code == 2, cmd
        assert "dot output" in json.loads(out)["error"]["message"]
    # --limit exists only on the commands that read a bound
    for cmd in ("blocks", "planar", "faces"):
        code, out = run([cmd, fx("k4.edges"), "--limit", "3"])
        assert code == 2, cmd
        err = json.loads(out)["error"]
        assert err["kind"] == "malformed-input", cmd
        assert "unrecognized arguments: --limit 3" in err["message"], cmd


def test_non_utf8_input_is_malformed(tmp_path):
    for cmd, name in (("blocks", "g.edges"), ("cayley", "g.pres")):
        path = tmp_path / name
        path.write_bytes(b"\xff0 1\n")
        code, out = run([cmd, str(path)])
        assert code == 2, cmd
        err = json.loads(out)["error"]
        assert err["kind"] == "malformed-input", cmd
        assert err["witness"] == str(path), cmd


# ---------------------------------------------------------------------------
# the command-line grammar


def test_help_is_fixed_text(monkeypatch):
    # one help text per command: COLUMNS, the terminal width, does not
    # change it
    for argv in [["--help"]] + [[cmd, "--help"] for cmd in COMMANDS]:
        texts = set()
        for columns in ("40", "200"):
            monkeypatch.setenv("COLUMNS", columns)
            code, out = run(argv)
            assert code == 0, argv
            texts.add(out)
        assert len(texts) == 1, argv
    _, out = run(["--help"])
    assert out.startswith("usage: planarblocks <command>")
    assert all(cmd in out for cmd in COMMANDS)
    for cmd, (_, _, _, options) in COMMANDS.items():
        _, out = run([cmd, "-h"])
        assert out.startswith("usage: planarblocks %s " % cmd)
        assert all(name in out for name in ("-h, --help",) + options)
    assert "automorphism search size bound (default 12)" in \
        run(["autos", "-h"])[1]
    assert "coset count bound (default 10000)" in run(["cayley", "-h"])[1]
    assert "accepted and ignored" in run(["triblocks", "-h"])[1]


# each message as argparse worded it
COMMAND_LINE_ERRORS = [
    (["bogus"], "argument command: invalid choice: 'bogus' (choose from "
     "'blocks', 'triblocks', 'planar', 'faces', 'autos', 'quotient', "
     "'cayley', 'check')"),
    ([], "the following arguments are required: command"),
    (["autos"], "the following arguments are required: input"),
    (["autos", "g.edges", "--format", "yaml"],
     "argument --format: invalid choice: 'yaml' (choose from 'json', "
     "'dot', 'text')"),
    (["autos", "g.edges", "--limit", "x"],
     "argument --limit: invalid int value: 'x'"),
    (["autos", "g.edges", "--limit"],
     "argument --limit: expected one argument"),
    (["blocks", "g.edges", "-x", "--lim=3", "y"],
     "unrecognized arguments: -x --lim=3 y"),
]


@pytest.mark.parametrize("argv,message", COMMAND_LINE_ERRORS)
def test_command_line_errors_keep_their_messages(argv, message):
    code, out = run(argv)
    assert code == 2
    err = json.loads(out)["error"]
    assert err["kind"] == "malformed-input"
    assert err["message"] == "bad command line: " + message


_VALUES = ["json", "dot", "text", "yaml", "3", "-3", "0", "+5", "x"]
_TOKENS = (list(COMMANDS) + ["bogus", "g.edges", "-", "-x", "y",
                             "--format", "--form", "--f", "--limit",
                             "--lim", "--per-component", "--per",
                             "--reduce", "--red", "-h", "--help", "--he",
                             "-hh", "--=v", "--"]
           + ["--format=" + v for v in _VALUES]
           + ["--limit=" + v for v in _VALUES] + _VALUES)


def _outcome(argv):
    try:
        fields = _read_argv(argv)
    except MalformedInput as exc:
        return "error", str(exc)
    return ("help", None) if isinstance(fields, str) else ("fields", fields)


@settings(max_examples=400, deadline=None)
@given(st.one_of(
    st.lists(st.sampled_from(_TOKENS), max_size=8),
    st.builds(lambda cmd, rest: [cmd] + rest,
              st.sampled_from(list(COMMANDS)),
              st.lists(st.sampled_from(_TOKENS), max_size=8))))
def test_command_line_reader_agrees_with_argparse(argv):
    kind, got = argparse_command_line(argv)
    want = (kind, None if kind == "help" else got)
    assert _outcome(argv) == want


# tokens at the edges of argparse's grammar: one matching
# ^-\d+$|^-\d*\.\d+$ is a positional (\d is any decimal digit, and $ also
# matches before a final newline), each letter after -h is one more short
# option, and "--=" names a prefix that every long option shares
@pytest.mark.parametrize("token", ["-3", "-3.5", "-.5", "-3.", "-3e5", "--3",
                                   "-3\n", "-٣", "-hh", "-hhx", "-h=",
                                   "--=v", "--he=h"])
@pytest.mark.parametrize("at", ["limit", "input", "stray", "first"])
def test_odd_tokens_read_as_argparse_reads_them(token, at):
    argv = {"limit": ["autos", "g.edges", "--limit", token],
            "input": ["autos", token],
            "stray": ["triblocks", "g.edges", token],
            "first": [token, "blocks", "g.edges"]}[at]
    kind, got = argparse_command_line(argv)
    assert _outcome(argv) == (kind, None if kind == "help" else got)


# ---------------------------------------------------------------------------
# per-command shapes


def test_blocks_json_shape():
    code, out = run(["blocks", fx("bowtie.edges"), "--format", "json"])
    d = json.loads(out)
    assert code == 0
    assert d["cut_vertices"] == [0]
    assert len(d["blocks"]) == 2
    kinds = {v["kind"] for v in d["tree_vertices"]}
    assert kinds == {"cut", "block"}


def test_blocks_reduce_flag_adds_provenance():
    code, out = run(["blocks", fx("grid3x3.edges"), "--reduce",
                     "--format", "json"])
    d = json.loads(out)
    assert code == 0
    assert "reduced_from" in d


def test_blocks_per_component_on_disconnected():
    code, out = run(["blocks", fx("disconnected.edges"), "--per-component"])
    assert code == 0
    assert out.count("blocks:") == 2


def _write_edges(path, edges):
    path.write_text("".join("%d %d\n" % e for e in edges))
    return str(path)


def test_per_component_splits_the_edges_in_one_pass(tmp_path):
    # each component's graph comes from one pass over the host's edges,
    # not one scan of them per component, which is quadratic here
    k = 16000
    host = _write_edges(tmp_path / "triangles.edges", [
        e for i in range(k)
        for e in ((3 * i, 3 * i + 1), (3 * i, 3 * i + 2),
                  (3 * i + 1, 3 * i + 2))])
    for cmd in ("blocks", "triblocks"):
        t0 = time.monotonic()
        code, out = run([cmd, host, "--per-component", "--format", "json"])
        elapsed = time.monotonic() - t0
        assert code == 0
        assert len(json.loads(out)["components"]) == k
        assert elapsed < 10.0, (cmd, elapsed)


def test_each_component_answers_as_a_run_on_it_alone(tmp_path):
    # glued blocks, a path, a K4 and a cycle with a pendant edge, the
    # vertices of each part spread over the whole range of names
    parts = [[(0, 5), (5, 10), (0, 10), (10, 15), (15, 20), (10, 20)],
             [(1, 6), (6, 11), (11, 16)],
             [(2, 7), (2, 12), (2, 17), (7, 12), (7, 17), (12, 17)],
             [(3, 8), (8, 13), (13, 18), (3, 18), (18, 23)]]
    host = _write_edges(tmp_path / "host.edges", [e for p in parts for e in p])
    for cmd in ("blocks", "triblocks"):
        code, out = run([cmd, host, "--per-component", "--format", "json"])
        assert code == 0
        whole = json.loads(out)["components"]
        assert len(whole) == len(parts)
        for i, part in enumerate(parts):
            alone = json.loads(run([cmd, _write_edges(
                tmp_path / ("part%d.edges" % i), part), "--format",
                "json"])[1])
            del alone["schema"], alone["command"]
            assert whole[i] == alone, (cmd, i)


def test_faces_json_shape():
    code, out = run(["faces", fx("q3.edges"), "--format", "json"])
    d = json.loads(out)
    assert code == 0
    assert d["face_count"] == 6
    assert sorted(len(f) for f in d["faces"]) == [4] * 6


def test_faces_traces_the_faces_once(monkeypatch):
    from planarblocks import planar
    calls = []
    trace = planar.facial_walks

    def counted(r):
        calls.append(r)
        return trace(r)
    monkeypatch.setattr(planar, "facial_walks", counted)
    code, _ = run(["faces", fx("q3.edges"), "--format", "json"])
    assert code == 0 and len(calls) == 1


def test_faces_on_nonplanar_is_a_domain_error():
    code, out = run(["faces", fx("k5.edges")])
    assert code == 1
    err = json.loads(out)["error"]
    assert err["kind"] == "precondition-violated"


def test_autos_text_and_json():
    code, out = run(["autos", fx("k4.edges")])
    assert code == 0
    assert out.startswith("order: 24\n")
    code, out = run(["autos", fx("c6.edges"), "--format", "json"])
    d = json.loads(out)
    assert d["order"] == 12
    assert d["vertex_orbits"] == [[0, 1, 2, 3, 4, 5]]


def test_quotient_json():
    code, out = run(["quotient", fx("c6.edges"), "--format", "json"])
    d = json.loads(out)
    assert code == 0
    assert d["vertex_orbits"] == [[0, 1, 2, 3, 4, 5]]
    assert d["edges"] == [{"from": 0, "to": 0, "multiplicity": 1}]


def test_cayley_pipeline_output():
    code, out = run(["cayley", fx("vd233.pres"), "--format", "json"])
    d = json.loads(out)
    assert code == 0
    assert d["order"] == 12
    assert d["planar"] is True
    assert d["face_count"] == 20
    assert len(d["graph"]["vertices"]) == 12


def test_cayley_overflow_exits_one():
    code, out = run(["cayley", fx("z2.pres"), "--limit", "50"])
    assert code == 1
    assert json.loads(out)["error"]["kind"] == "overflow"


def test_check_passes_on_good_input():
    code, out = run(["check", fx("k4.edges")])
    assert code == 0
    assert out.endswith("result: OK\n")
    assert "PASS" in out


def test_check_skips_inapplicable_suites():
    code, out = run(["check", fx("disconnected.edges")])
    assert code == 0
    assert "SKIP (not-connected" in out
    assert out.endswith("result: OK\n")


def test_check_json_shape():
    code, out = run(["check", fx("q3.edges"), "--format", "json"])
    d = json.loads(out)
    assert code == 0
    assert d["ok"] is True
    names = [row["name"] for row in d["invariants"]]
    assert "planarity-certificate" in names


# ---------------------------------------------------------------------------
# limits


def test_limit_flag_controls_aut_bound():
    code, out = run(["autos", fx("grid3x3.edges"), "--limit", "3"])
    assert code == 1
    assert json.loads(out)["error"]["kind"] == "too-large"


# a number of 5,000 digits, past the interpreter's limit on the digits
# int() converts (4,300 unless PYTHONINTMAXSTRDIGITS sets another)
_LONG = "7" * 5000
HUGE_NUMBERS = {
    "edge label": ("planar", ".edges", "1 %s\n" % _LONG),
    "vertices header": ("blocks", ".edges", "vertices: 1%s\n0 1\n" % _LONG),
    "power": ("cayley", ".pres", "gens: a\nrels: a^%s\n" % _LONG),
    "word power": ("cayley", ".pres", "gens: a b\nrels: (a*b)^%s\n" % _LONG),
    "power in a word": ("cayley", ".pres",
                        "gens: a b\nrels: a*b^%s\n" % _LONG),
    "surface count": ("cayley", ".pres", "surface(%s, [], 0)\n" % _LONG),
}


@pytest.mark.parametrize("case", list(HUGE_NUMBERS))
def test_number_past_the_digit_limit_is_refused(tmp_path, case):
    command, suffix, text = HUGE_NUMBERS[case]
    path = tmp_path / ("huge" + suffix)
    path.write_text(text)
    proc = _python(["-m", "planarblocks", command, str(path),
                    "--format", "json"])
    assert proc.stderr == ""
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["error"] == {
        "kind": "too-large", "message": "number has too many digits",
        "witness": {"digits": max(map(len, re.findall(r"\d+", text))),
                    "limit": sys.get_int_max_str_digits()}}


LIMIT_ZERO = """{
  "error": {
    "kind": "malformed-input",
    "message": "limit must be at least 1",
    "witness": 0
  },
  "schema": 1
}
"""


def test_limit_below_one_is_a_parse_error():
    assert run(["autos", fx("k4.edges"), "--limit", "0"]) == (2, LIMIT_ZERO)
    assert run(["triblocks", fx("k4.edges"), "--limit", "0"]) == \
        (2, LIMIT_ZERO)
    assert run(["cayley", fx("z6.pres"), "--limit", "0"]) == (2, LIMIT_ZERO)


def test_limit_environment_variable_is_ignored(monkeypatch):
    unset = run(["autos", fx("grid3x3.edges")])
    assert unset[0] == 0
    monkeypatch.setenv("PLANAR_BLOCKS_LIMIT", "3")
    assert run(["autos", fx("grid3x3.edges")]) == unset


def _edge_file(tmp_path, edges):
    path = tmp_path / "g.edges"
    path.write_text("".join("%d %d\n" % e for e in edges))
    return str(path)


def test_triblocks_needs_no_bound(tmp_path):
    # a reduced host that an automorphism-orbit construction turned into
    # a crossing family ("not-nested")
    found = _edge_file(tmp_path, (
        (0, 1), (0, 2), (0, 11), (0, 15), (1, 2), (1, 15), (2, 3), (2, 11),
        (3, 5), (3, 7), (5, 7), (5, 10), (7, 10), (10, 11), (11, 15)))
    code, out = run(["triblocks", found, "--format", "json"])
    assert code == 0, out
    assert [v["kind"] for v in json.loads(out)["tree_vertices"]] == \
        ["Cycle", "ThreeConnected", "ThreeConnected", "ThreeConnected"]
    # six K4s glued along edges: 14 vertices, above the automorphism
    # bound that --limit still sets for autos
    chain = _edge_file(tmp_path, sorted(
        {(2 * i + a, 2 * i + b) for i in range(6)
         for a, b in ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))}))
    code, out = run(["triblocks", chain, "--format", "json"])
    assert code == 0, out
    kinds = [v["kind"] for v in json.loads(out)["tree_vertices"]]
    assert kinds == ["ThreeConnected"] * 11
    assert run(["triblocks", chain, "--limit", "3", "--format", "json"]) == \
        (code, out)
    assert run(["autos", chain])[0] == 1


def test_pendant_at_a_bond_answers(tmp_path):
    # two K4 pages on the spine 0-1 and a K4 hung at spine vertex 0: the
    # sides at the spine once lifted into a crossing family
    pages = _edge_file(tmp_path, (
        (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (0, 4), (0, 5),
        (1, 4), (1, 5), (4, 5), (0, 6), (0, 7), (0, 8), (6, 7), (6, 8),
        (7, 8)))
    code, out = run(["triblocks", pages, "--format", "json"])
    assert code == 0, out
    tree = json.loads(out)
    assert [v["kind"] for v in tree["tree_vertices"]] == \
        ["CutPoint"] + ["ThreeConnected"] * 4
    assert tree["tree_edges"] == [[0, 1], [0, 2], [1, 3], [1, 4]]
    code, out = run(["check", pages])
    assert code == 0, out
    rows = dict(line.split(None, 1) for line in out.splitlines()[:-1])
    assert rows["triblock-tree"].startswith("PASS")
    assert rows["tree-action"].startswith("PASS")


# ---------------------------------------------------------------------------
# dot output


def test_dot_outputs_parse_as_graphviz():
    for cmd, fixture in (("blocks", "bowtie.edges"),
                         ("triblocks", "bowtie.edges"),
                         ("quotient", "c6.edges")):
        code, out = run([cmd, fx(fixture), "--format", "dot"])
        assert code == 0, cmd
        assert out.startswith("graph "), cmd
        assert out.rstrip().endswith("}"), cmd


# ---------------------------------------------------------------------------
# cost of the symmetry commands


def test_star_autos_and_check_do_not_list_the_group(tmp_path):
    # K1,8 has 40,320 automorphisms; listing them takes seconds
    path = tmp_path / "star.edges"
    path.write_text("".join("0 %d\n" % v for v in range(1, 9)))
    for cmd, head in (("autos", "order: 40320\n"),
                      ("check", "graph-canonical-order")):
        t0 = time.monotonic()
        code, out = run([cmd, str(path)])
        elapsed = time.monotonic() - t0
        assert code == 0, out
        assert out.startswith(head), out
        assert elapsed < 0.5, (cmd, elapsed)


# ---------------------------------------------------------------------------
# python -O


def _python(args, **kw):
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable] + args, capture_output=True,
                          text=True, env=env, timeout=120, **kw)


FORCED_FAILURE = """
import json, sys
from planarblocks import blocks1, cli, treeset
from planarblocks.errors import invariant
assert False, "this script must run under -O"
treeset.certify_tree = lambda family: invariant(
    False, "tree verification failed", ["forced"])
blocks1.certify_block_cut_tree = lambda bct: invariant(
    False, "tree verification failed", ["forced"])
print(json.dumps([cli.run([cmd, sys.argv[1]]) for cmd in ("check", "blocks")]))
"""


def test_failed_verification_is_reported_under_dash_o():
    proc = _python(["-O", "-c", FORCED_FAILURE, fx("bowtie.edges")])
    assert proc.returncode == 0, proc.stderr
    (check_code, check_out), (blocks_code, blocks_out) = \
        json.loads(proc.stdout)
    assert check_code == 1
    assert "block-cut-tree             FAIL" in check_out
    assert "triblock-tree              FAIL" in check_out
    assert check_out.endswith("result: FAIL\n")
    assert blocks_code == 1
    err = json.loads(blocks_out)["error"]
    assert err["kind"] == "invariant-violated"
    assert err["witness"] == ["forced"]


INVARIANTS_UNDER_O = """
import json, sys
sys.path.insert(0, sys.argv[1])
from oracles import check_regular_action
from planarblocks import (Graph, GroupTable, cayley_graph, coset_enumerate,
                          parse_presentation)
from planarblocks.cayley import check_relators
from planarblocks.errors import InvariantViolated
assert False, "this script must run under -O"
caught = []
try:
    GroupTable(2, ("a",), {"a": [0, 0]})
except InvariantViolated as exc:
    caught.append(str(exc))
pr = parse_presentation("gens: a; rels: a^6")
tbl = coset_enumerate(pr)
g = cayley_graph(tbl, pr)
cut = Graph(g.vertices, g.edges[1:])
try:
    check_regular_action(tbl, cut)
except InvariantViolated as exc:
    caught.append(str(exc))
# a 6-cycle does not close a^4
try:
    check_relators(tbl, parse_presentation("gens: a; rels: a^4"))
except InvariantViolated as exc:
    caught.append(str(exc))
print(json.dumps(caught))
"""


def test_cayley_invariants_hold_under_dash_o():
    proc = _python(["-O", "-c", INVARIANTS_UNDER_O,
                    os.path.dirname(__file__)])
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [
        "generator must act as a permutation",
        "left translation must be a graph automorphism",
        "relators must trace to the identity everywhere"]


CERTIFICATE_UNDER_O = """
import json
from planarblocks import (Graph, cayley_graph, certify_embedding,
                          coset_enumerate, edgeaddition,
                          equivariant_rotation, parse_presentation,
                          planarity_test)
from planarblocks.errors import PlanarBlocksError
assert False, "this script must run under -O"
pr = parse_presentation("surface(0, [2,3,3], 0)")
tbl = coset_enumerate(pr)
g = cayley_graph(tbl, pr)
rotation = equivariant_rotation(tbl)
certify_embedding(g, rotation)
swapped = dict(rotation)
swapped[0] = [rotation[0][1], rotation[0][0]] + rotation[0][2:]
dropped = dict(rotation)
dropped[0] = rotation[0][1:]
apart = Graph(g.vertices + (12,), g.edges)
caught = []
for host, order in ((g, swapped), (g, dropped), (apart, rotation)):
    try:
        certify_embedding(host, order)
    except PlanarBlocksError as exc:
        caught.append([exc.kind, str(exc)])
def complete(n):
    return Graph(tuple(range(n)), tuple((a, b) for a in range(n)
                                        for b in range(a + 1, n)))
engine = edgeaddition.edge_addition
# an isolation that drops one edge of K5's witness
edgeaddition.edge_addition = lambda palm: (None, engine(palm)[1][1:])
try:
    planarity_test(complete(5))
except PlanarBlocksError as exc:
    caught.append([exc.kind, str(exc)])
# an embedding of K4 with two neighbours of one vertex swapped
def swapped_embedding(palm):
    rotation, witness = engine(palm)
    rotation[0][:2] = rotation[0][1::-1]
    return rotation, witness
edgeaddition.edge_addition = swapped_embedding
try:
    planarity_test(complete(4))
except PlanarBlocksError as exc:
    caught.append([exc.kind, str(exc)])
print(json.dumps(caught))
"""


def test_wrong_rotations_fail_the_certificate_under_dash_o():
    proc = _python(["-O", "-c", CERTIFICATE_UNDER_O])
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [
        ["invariant-violated", "sphere embeddings satisfy Euler's formula"],
        ["malformed-input",
         "rotation at a vertex must permute its incident edges"],
        ["not-connected", "planarity certificates assume a connected host"],
        ["invariant-violated",
         "Kuratowski witness must subdivide K5 or K3,3"],
        ["invariant-violated", "sphere embeddings satisfy Euler's formula"]]


DECOMPOSITION_INVARIANTS = """
import json, sys
from planarblocks import blocks1, blocks2, cli
from planarblocks.graph import Graph
assert False, "this script must run under -O"
# blocks1: a family on the host minus one edge leaves that edge uncovered
b1_family = blocks1.b1_family
blocks1.b1_family = lambda g: b1_family(Graph(g.vertices, g.edges[1:]))
# blocks2: a torso that reads as not 2-connected fails its check
is_two_connected = blocks2.is_two_connected
blocks2.is_two_connected = lambda g: False
runs = [cli.run(["blocks", sys.argv[1]]), cli.run(["triblocks", sys.argv[2]])]
# blocks2: a 2-connected torso that shows a 2-cut fails its kind; the
# block's own 2-cut pass, the first call, runs as it is, and each torso,
# with its virtual edge a graph apart from the block, is searched anew
blocks2.is_two_connected = is_two_connected
two_cuts = blocks2.two_cuts
calls = []
def cut_on_recheck(g):
    calls.append(g)
    return two_cuts(g) if len(calls) == 1 else ((g.vertices[:2], []),)
blocks2.two_cuts = cut_on_recheck
runs.append(cli.run(["triblocks", sys.argv[3]]))
blocks2.two_cuts = two_cuts
# blocks2: a virtual edge whose member side has no path fails its torso
side_path = blocks2._side_path
blocks2._side_path = lambda *args: None
runs.append(cli.run(["triblocks", sys.argv[3]]))
blocks2._side_path = side_path
# blocks2: a witness path paired with itself shares its interior
combinations = blocks2.combinations
blocks2.combinations = lambda items, r: ((x, x) for x in items)
runs.append(cli.run(["triblocks", sys.argv[3]]))
blocks2.combinations = combinations
# blocks2: a torso that drops one region edge leaves it uncovered
torso = blocks2.torso
def with_region(t, z_prime):
    return blocks2.Torso(z_prime, t.virtual_edges, t.z, t.witness,
                         t.witness_paths)
def lossy_torso(*args):
    t = torso(*args)
    return with_region(t, Graph(t.z_prime.vertices, t.z_prime.edges[1:]))
blocks2.torso = lossy_torso
runs.append(cli.run(["triblocks", sys.argv[3]]))
# blocks2: a torso that claims every host edge meets the next torso
def greedy_torso(family, v):
    return with_region(torso(family, v), family.host)
blocks2.torso = greedy_torso
runs.append(cli.run(["triblocks", sys.argv[3]]))
blocks2.torso = torso
# blocks2: a witness path through its own hinge vertex meets the region
blocks2._side_path = lambda family, i, src, dst: (src, src, dst)
runs.append(cli.run(["triblocks", sys.argv[3]]))
# blocks2: a witness path through a vertex the host lacks leaves the host
blocks2._side_path = lambda family, i, src, dst: (src, -1, dst)
runs.append(cli.run(["triblocks", sys.argv[3]]))
# blocks2: a witness path that doubles back on itself through a vertex
# of its side has a vertex of degree 3 in the witness
def looping_path(family, i, src, dst):
    p = side_path(family, i, src, dst)
    inside = {v for r in family.side_regions(i) for v in r.vertices}
    y = next(w for w in family.host.neighbors(p[1])
             if w in inside and w not in p)
    return p[:2] + (y,) + p[1:]
blocks2._side_path = looping_path
runs.append(cli.run(["triblocks", sys.argv[3]]))
blocks2._side_path = side_path
# blocks2: a torso that forgets its virtual edges does not contract to
# the graph that holds them
region_parts = blocks2._region_parts
def forgetful_parts(family, ci):
    zprime, z, virtuals, gens = region_parts(family, ci)
    return zprime, z, (), gens
blocks2._region_parts = forgetful_parts
runs.append(cli.run(["triblocks", sys.argv[3]]))
print(json.dumps(runs))
"""


def test_decomposition_invariants_hold_under_dash_o(tmp_path):
    # two K4s less the edge 0-1, sharing 0 and 1: each torso's virtual
    # edge 0-1 is witnessed by a path through the other piece
    pair = tmp_path / "two_k4e.edges"
    pair.write_text("0 2\n0 3\n1 2\n1 3\n2 3\n0 4\n0 5\n1 4\n1 5\n4 5\n")
    proc = _python(["-O", "-c", DECOMPOSITION_INVARIANTS, fx("bowtie.edges"),
                    fx("k4.edges"), str(pair)])
    assert proc.returncode == 0, proc.stderr
    runs = json.loads(proc.stdout)
    assert [code for code, _ in runs] == [1] * 11
    errors = [json.loads(out)["error"] for _, out in runs]
    assert {e["kind"] for e in errors} == {"invariant-violated"}
    assert [e["message"] for e in errors] == [
        "blocks do not cover the host edges",
        "torso must be 2-connected",
        "non-cycle torso of the final tree must be 3-connected",
        "member side must connect its hinge",
        "witness paths must be internally disjoint",
        "torsos must cover every host edge",
        "host edge claimed by two torsos",
        "witness path internals must avoid the region",
        "witness must live in the host",
        "subdivision vertices have degree 2",
        "witness paths must contract to the torso"]


def test_src_has_no_assert():
    # python -O strips assert statements; library checks must use
    # errors.invariant so that they hold in every mode
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    files = sorted(glob.glob(os.path.join(src, "planarblocks", "*.py")))
    assert files
    found = []
    for path in files:
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        found += ["%s:%d" % (os.path.basename(path), node.lineno)
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def test_src_imports_are_used():
    # every name a module imports, at its top or inside a function, is
    # read somewhere in that module, so a removal leaves no stale import
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    files = sorted(glob.glob(os.path.join(src, "planarblocks", "*.py")))
    assert files
    unused = []
    for path in files:
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (
                    isinstance(node, ast.ImportFrom)
                    and node.module != "__future__"):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = node.lineno
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        unused += ["%s:%d %s" % (os.path.basename(path), line, name)
                   for name, line in sorted(imported.items())
                   if name not in read]
    assert unused == []


def test_src_definitions_are_used():
    # every module-level function and class is named somewhere in src/
    # outside its own definition and the export table of __init__.py,
    # so code that nothing in the package uses is deleted, not kept
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    files = [path for path in sorted(
        glob.glob(os.path.join(src, "planarblocks", "*.py")))
        if os.path.basename(path) != "__init__.py"]
    assert files
    texts = {}
    for path in files:
        with open(path, encoding="utf-8") as fh:
            texts[path] = fh.read()
    words = re.findall(r"\w+", "\n".join(texts.values()))
    unused = []
    for path, text in texts.items():
        lines = text.splitlines()
        for node in ast.parse(text, path).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or (
                    node.name.startswith("__") and node.name.endswith("__")):
                continue
            own = re.findall(r"\w+", "\n".join(
                lines[node.lineno - 1:node.end_lineno]))
            if words.count(node.name) == own.count(node.name):
                unused.append("%s:%d %s" % (os.path.basename(path),
                                            node.lineno, node.name))
    assert unused == []


MODULES_LOADED = """
import json, sys
import planarblocks.cli

def loaded():
    return sorted(m for m in sys.modules
                  if m.startswith("planarblocks")
                  or m in ("networkx", "argparse", "gettext", "locale"))

at_import = loaded()
planarblocks.cli.run(sys.argv[1:])
print(json.dumps([at_import, loaded()]))
"""

# loaded by importing the CLI, before any command runs
CLI_MODULES = ["planarblocks", "planarblocks.cli", "planarblocks.errors",
               "planarblocks.graph", "planarblocks.serialize"]


def test_each_command_loads_only_its_modules(tmp_path):
    # no command loads networkx, which is a test oracle only, nor
    # argparse and the gettext and locale it imports: the CLI reads its
    # command lines itself, help included; blocks2, cayley, planar and
    # symmetry are loaded only by the commands that run them, and
    # edgeaddition only by a planarity test, which a planar group's
    # Cayley graph does not need
    z3xz3 = tmp_path / "z3xz3.pres"
    z3xz3.write_text("gens: a b\nrels: a^3, b^3, (a*b*a^-1*b^-1)\n")
    trivial = tmp_path / "trivial.pres"
    trivial.write_text("gens: a\nrels: a\n")
    runs = {("blocks", fx("path4.edges")): ["blocks1", "treeset"],
            ("triblocks", fx("k4.edges")): ["blocks1", "blocks2", "treeset"],
            ("planar", fx("k4.edges")): ["edgeaddition", "planar"],
            ("planar", fx("k5.edges")): ["edgeaddition", "planar"],
            ("cayley", fx("d3.pres")): ["cayley", "planar"],
            ("cayley", str(trivial)): ["cayley", "planar"],
            ("cayley", str(z3xz3)): ["cayley", "edgeaddition", "planar"],
            ("autos", "--help"): []}
    for (cmd, path), extra in runs.items():
        proc = _python(["-c", MODULES_LOADED, cmd, path])
        assert proc.returncode == 0, proc.stderr
        at_import, after = json.loads(proc.stdout)
        assert at_import == CLI_MODULES
        assert after == sorted(CLI_MODULES + [
            "planarblocks." + m for m in extra]), cmd


# run under python -S, so that no module a site .pth file imports counts;
# prints the exit codes, then each module of sys.argv[1] that was loaded
HEAVY_LOADED = """
import sys
from planarblocks.cli import run
heavy, argv = sys.argv[1].split(","), sys.argv[2:]
codes = [run(argv + ["--format", fmt])[0] for fmt in ("text", "json")]
print(*codes, *[m for m in heavy if m in sys.modules])
"""

# each costs start-up time and none is needed: records are plain classes,
# the JSON escaper comes from _json and argv is read with str methods
HEAVY_MODULES = ["dataclasses", "inspect", "ast", "dis", "tokenize", "json",
                 "json.decoder", "__future__"]


@pytest.mark.parametrize("argv", [
    ["blocks", fx("bowtie.edges")], ["triblocks", fx("book_k4.edges")],
    ["planar", fx("k33.edges")], ["faces", fx("octahedron.edges")],
    ["autos", fx("k4.edges")], ["quotient", fx("prism.edges")],
    ["cayley", fx("vd233.pres")], ["check", fx("grid3x3.edges")]],
    ids=lambda argv: argv[0])
def test_no_command_loads_a_heavy_module(argv):
    # cayley parses presentations with regular expressions; nothing else
    # needs re
    heavy = HEAVY_MODULES + ([] if argv[0] == "cayley" else ["re"])
    proc = _python(["-S", "-c", HEAVY_LOADED, ",".join(heavy)] + argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "0"]


def test_edge_lists_are_parsed_by_the_current_parser(monkeypatch):
    # a tracer patches the parser in its module; the CLI must call that
    from planarblocks import graph
    calls = []
    parse = graph.parse_edge_list

    def traced(text):
        calls.append(text)
        return parse(text)
    monkeypatch.setattr(graph, "parse_edge_list", traced)
    code, _ = run(["blocks", fx("path4.edges")])
    assert code == 0 and len(calls) == 1


def test_every_exported_name_resolves():
    import importlib
    import types

    import planarblocks
    assert "certify_tree" in dir(planarblocks)
    for name in planarblocks.__all__:
        value = getattr(planarblocks, name)
        if isinstance(value, types.ModuleType):
            assert value is importlib.import_module("planarblocks." + name)
        else:
            home = importlib.import_module(value.__module__)
            assert getattr(home, name) is value, name
    # test-only helpers live in tests/oracles.py, not in the package
    for name in ("no_such_name", "build_nested_family", "make_separation",
                 "face_multiset_uniqueness_check", "face_size_multiset"):
        assert name not in planarblocks.__all__
        with pytest.raises(AttributeError):
            getattr(planarblocks, name)


def _every_command_line():
    for name in sorted(os.listdir(FIXTURES)):
        if name.endswith(".pres"):
            cmds = ("cayley",)
        else:
            cmds = ("blocks", "triblocks", "planar", "faces", "autos",
                    "quotient", "check")
        for cmd in cmds:
            for fmt in ("text", "json"):
                yield [cmd, fx(name), "--format", fmt]


RUN_ALL = """
import json, sys
from planarblocks.cli import run
print(json.dumps([run(argv) for argv in json.loads(sys.stdin.read())]))
"""


def test_dash_o_gives_the_same_output_on_every_fixture():
    argvs = list(_every_command_line())
    proc = _python(["-O", "-c", RUN_ALL], input=json.dumps(argvs))
    assert proc.returncode == 0, proc.stderr
    optimized = json.loads(proc.stdout)
    assert len(optimized) == len(argvs)
    for argv, got in zip(argvs, optimized):
        assert tuple(got) == run(argv), argv


def test_python_dash_m_runs_the_cli():
    proc = _python(["-m", "planarblocks", "autos", fx("k4.edges")])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("order: 24\n")
