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
from collections import deque

import pytest

sys.path.insert(0, os.path.dirname(__file__))

import planarblocks  # noqa: E402
from conftest import FIXTURES, fixture_path  # noqa: E402
from planarblocks.cli import run  # noqa: E402

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


def test_no_command_leaves_cyclic_garbage():
    # no object of a run points back at its owner, so reference counting
    # alone frees each run's host graph, palm arrays and masks; the first
    # run of each command loads its modules first
    argvs = [argv for argv in command_lines()
             if argv[argv.index("--format") + 1] == "json"]
    for command in {argv[0] for argv in argvs}:
        outcome(next(argv for argv in argvs if argv[0] == command))
    left = []
    gc.collect()
    gc.disable()
    try:
        for argv in argvs:
            outcome(argv)
            if gc.collect():
                left.append(" ".join(argv))
    finally:
        gc.enable()
    assert not left, left


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
