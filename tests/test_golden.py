"""CLI stdout pinned byte for byte: exit code and sha256 of every output.

``golden_cli.json`` maps each command line below to ``[exit code,
sha256(stdout)]``.  The package computes every output itself, its
embeddings, faces and Kuratowski witnesses included, so every entry is
compared whatever networkx version, if any, is installed.

    PYTHONPATH=src python tests/test_golden.py

rewrites the file from the current code; do that only in a change that
means to alter output, and say which outputs moved.

    PYTHONPATH=src python tests/test_golden.py --diff

lists those outputs without rewriting anything: one command line per
entry whose exit code or bytes differ from the file (or that the file
lacks), and exits 1 if there is any.
"""

import gc
import hashlib
import importlib
import json
import os
import pkgutil
import sys
import tempfile
from collections import deque

import pytest
from hypothesis import example, given, settings, strategies as st

sys.path.insert(0, os.path.dirname(__file__))

import planarblocks  # noqa: E402
from conftest import (FIXTURES, complete_graph, fixture_path,  # noqa: E402
                      grid_graph, k4_book, k4_edge_chain, k4_ring,
                      k4_w5_chain, wheel_graph)
from planarblocks.cli import run  # noqa: E402
from planarblocks.graph import build_graph  # noqa: E402

GOLDEN = os.path.join(os.path.dirname(__file__), "golden_cli.json")
EDGE_COMMANDS = ("blocks", "triblocks", "planar", "faces", "autos",
                 "quotient", "check")
FORMATS = ("text", "json", "dot")


def command_lines():
    """Every pinned command line, with fixture names as given on disk."""
    names = sorted(os.listdir(FIXTURES))
    for name in names:
        if not name.endswith(".edges"):
            continue
        for fmt in FORMATS:
            for cmd in EDGE_COMMANDS:
                yield [cmd, name, "--format", fmt]
            yield ["blocks", name, "--per-component", "--format", fmt]
            yield ["triblocks", name, "--per-component", "--format", fmt]
            yield ["blocks", name, "--reduce", "--format", fmt]
            for cmd in ("triblocks", "autos", "quotient", "check"):
                yield [cmd, name, "--limit", "3", "--format", fmt]
    for name in names:
        if not name.endswith(".pres"):
            continue
        for fmt in FORMATS:
            for limit in ([], ["--limit", "3"], ["--limit", "50"]):
                yield ["cayley", name, *limit, "--format", fmt]


def outcome(argv):
    code, out = run([argv[0], fixture_path(argv[1]), *argv[2:]])
    return [code, hashlib.sha256(out.encode()).hexdigest()]


def _load():
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def test_golden_file_covers_every_command_line():
    assert [argv for argv, _ in _load()["runs"]] == list(command_lines())


@pytest.mark.parametrize("command", EDGE_COMMANDS + ("cayley",))
def test_output_matches_golden_bytes(command):
    runs = [(argv, want) for argv, want in _load()["runs"]
            if argv[0] == command]
    assert runs
    moved = [" ".join(argv) for argv, want in runs if outcome(argv) != want]
    assert not moved, moved


def test_cayley_bytes_need_no_networkx(monkeypatch):
    # each .pres fixture is planar and embedded by its group
    from planarblocks import planar

    def refuse(g):
        raise AssertionError("planarity_test ran")
    monkeypatch.setattr(planar, "planarity_test", refuse)
    runs = [(argv, want) for argv, want in _load()["runs"]
            if argv[0] == "cayley"]
    assert len(runs) == 45
    assert [argv for argv, want in runs if outcome(argv) != want] == []


def _module_containers():
    """(module, name) -> size of every dict, list, set or other sized
    value at the top level of a loaded `planarblocks` module, and of
    every function cache there."""
    sizes = {}
    for modname, module in sorted(sys.modules.items()):
        if modname.split(".")[0] != "planarblocks":
            continue
        for name, value in vars(module).items():
            if hasattr(value, "cache_info"):
                sizes[modname, name] = value.cache_info().currsize
            elif isinstance(value, (dict, list, set, frozenset, tuple,
                                    bytearray, deque)):
                sizes[modname, name] = len(value)
    return sizes


def test_no_module_level_container_grows_across_runs():
    # caches live on objects or within one call, so no pass over every
    # command line changes a module-level container, the first included
    for info in pkgutil.iter_modules(planarblocks.__path__):
        importlib.import_module("planarblocks." + info.name)
    argvs = list(command_lines())
    sizes = [_module_containers()]
    for _ in range(2):
        for argv in argvs:
            outcome(argv)
        sizes.append(_module_containers())
    assert sizes[0]
    assert sizes[1] == sizes[0] and sizes[2] == sizes[0]


def _edge_text(g):
    return "".join("%d %d\n" % e for e in g.edges)


# one command line for each kind of error a command line can meet, with
# presentations that answer and overflow
ERROR_RUNS = (
    ("blocks", "edges", "0 1\n1 1\n", []),                  # malformed
    ("planar", "edges", "0 1\n2 3\n", []),                  # not connected
    ("faces", "edges", _edge_text(complete_graph(5)), []),   # precondition
    ("autos", "edges", _edge_text(k4_book(3)), ["--limit", "3"]),  # too large
    ("cayley", "pres", "gens: a\nrels: a^100\n", ["--limit", "50"]),
    ("cayley", "pres", "surface(0, [2,3,7], 0)\n", []),     # infinite
    ("cayley", "pres", "surface(0, [1,3,3], 0)\n", []),     # bad exponent
    ("cayley", "pres", "gens: a a\nrels: a\n", []),         # malformed
    ("cayley", "pres", "gens: a b\nrels: a^4, b^2, (a*b)^2\n", []))


@st.composite
def command_runs(draw):
    """(command, file suffix, input text, options): every command on a K4
    book, edge chain or ring, a glued K4/wheel chain, a planar grid or
    wheel, or a nonplanar K5, K3,3 or crossed grid, under random vertex
    names, or a presentation that answers, overflows or is refused."""
    if draw(st.integers(0, 4)) == 0:
        return draw(st.sampled_from(ERROR_RUNS))
    size = draw(st.integers(1, 4))
    g = draw(st.sampled_from([
        k4_book(size), k4_edge_chain(size), k4_ring(size + 1),
        k4_w5_chain(size + 1), grid_graph(size + 1, 3),
        wheel_graph(size + 3), complete_graph(5),
        build_graph(range(6), [(a, b) for a in range(3)
                               for b in range(3, 6)]),
        build_graph(range(9), list(grid_graph(3, 3).edges)
                    + [(0, 8), (2, 6)])]))
    names = draw(st.permutations(g.vertices))
    g = build_graph(names, [(names[u], names[v]) for u, v in g.edges])
    command = draw(st.sampled_from(EDGE_COMMANDS))
    options = ["--format", draw(st.sampled_from(("text", "json")))]
    if command in ("blocks", "triblocks") and draw(st.booleans()):
        options.append("--per-component")
    if command in ("autos", "quotient", "check") and draw(st.booleans()):
        options += ["--limit", str(draw(st.integers(1, 12)))]
    return command, "edges", _edge_text(g), options


def json_command_lines():
    return [argv for argv in command_lines()
            if argv[argv.index("--format") + 1] == "json"]


@pytest.fixture(scope="module")
def warm_commands():
    """Runs each command once on the fixtures, so that it has loaded its
    modules before a run is measured."""
    argvs = json_command_lines()
    for command in dict.fromkeys(argv[0] for argv in argvs):
        outcome(next(argv for argv in argvs if argv[0] == command))


def test_no_golden_command_line_leaves_cyclic_garbage(warm_commands):
    # every pinned JSON command line, fixture hosts and presentations
    # included.  Everything alive before the loop is frozen, so each
    # collection walks only what the runs made, whatever the tests
    # before this one left on the heap
    left = []
    gc.collect()
    gc.disable()
    gc.freeze()
    try:
        for argv in json_command_lines():
            outcome(argv)
            if gc.collect():
                left.append(" ".join(argv))
    finally:
        gc.unfreeze()
        gc.enable()
    assert not left, left


@settings(max_examples=150, deadline=None)
@given(command_runs())
@example(ERROR_RUNS[0])
@example(ERROR_RUNS[1])
@example(ERROR_RUNS[2])
@example(ERROR_RUNS[3])
@example(ERROR_RUNS[4])
@example(ERROR_RUNS[5])
@example(ERROR_RUNS[6])
@example(ERROR_RUNS[7])
@example(ERROR_RUNS[8])
def test_no_command_leaves_cyclic_garbage(warm_commands, command_run):
    # no object of a run points back at its owner, so reference counting
    # alone frees each run's host graph, palm arrays, tree records and
    # sides.  Everything alive before a run is frozen, so the collection
    # after it walks only what the run made, whatever the tests and
    # examples before it left on the heap
    command, suffix, text, options = command_run
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input." + suffix)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        gc.collect()
        gc.disable()
        gc.freeze()
        try:
            code, out = run([command, path] + options)
            left = gc.collect()
        finally:
            gc.unfreeze()
            gc.enable()
    assert code in (0, 1, 2), out
    assert left == 0, (command, options, text)


def moved_command_lines():
    """The command lines whose outcome differs from the golden file."""
    want = {tuple(argv): result for argv, result in _load()["runs"]}
    return [argv for argv in command_lines()
            if outcome(argv) != want.get(tuple(argv))]


if __name__ == "__main__":
    if sys.argv[1:] == ["--diff"]:
        lines = [" ".join(argv) for argv in moved_command_lines()]
        print("\n".join(lines) if lines else "no entry moved")
        sys.exit(1 if lines else 0)
    if sys.argv[1:]:
        sys.exit("usage: test_golden.py [--diff]")
    runs = ",\n".join(json.dumps([argv, outcome(argv)])
                      for argv in command_lines())
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        fh.write('{"runs": [\n%s\n]}\n' % runs)
