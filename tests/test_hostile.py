"""Large legal inputs, each answered or refused under a memory cap.

Every case runs one command line in its own interpreter, under an
address-space cap (RLIMIT_AS) of 1 GB, set in the child before the
package is imported, and a wall bound.  It must exit 0, 1 or 2, write
one JSON document to stdout and nothing to stderr: no MemoryError, no
traceback, no hang.  The cases run two at a time, each writing to its
own files.  A change that mends a case adds it here.
"""

import json
import os
import random
import subprocess
import sys
import time

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")
CAP_BYTES = 1 << 30
WALL_S = 60
AT_ONCE = 2

# the child caps its own address space, then runs the command line
CAPPED = """
import resource, runpy, sys
resource.setrlimit(resource.RLIMIT_AS, (%d, %d))
sys.argv = ["planarblocks"] + sys.argv[1:]
runpy.run_module("planarblocks", run_name="__main__")
""" % (CAP_BYTES, CAP_BYTES)


def _path(n):
    return [(i, i + 1) for i in range(n - 1)]


def _random_tree(n, seed):
    rng = random.Random(seed)
    return [(rng.randrange(i), i) for i in range(1, n)]


def _grid(r, crossed=False):
    """The r x r grid, with the chords 0 - (n - 1) and (r - 1) - (n - r)
    joining opposite corners when `crossed`: one nonplanar block."""
    n = r * r
    es = [(i * r + j, i * r + j + 1)
          for i in range(r) for j in range(r - 1)]
    es += [(i * r + j, (i + 1) * r + j)
           for i in range(r - 1) for j in range(r)]
    return es + [(0, n - 1), (r - 1, n - r)] if crossed else es


# (name, edges): block-cut trees of about 100,000 nodes, whose sides
# would take quadratic memory as n-bit masks, and grids of 40,000
# vertices, which one edge-addition run embeds or refutes
HOSTS = (("path-51200", lambda: _path(51200)),
         ("random-tree-60000", lambda: _random_tree(60000, 60000)),
         ("grid-200", lambda: _grid(200)),
         ("crossed-grid-200", lambda: _grid(200, crossed=True)))
CASES = [(command, name) for name in ("path-51200", "random-tree-60000")
         for command in ("blocks", "triblocks")]
CASES += [("planar", "grid-200"), ("faces", "grid-200"),
          ("planar", "crossed-grid-200")]
# what each planarity case's JSON must hold: the grid's 199^2 squares
# and its outer face, or a refutation with a witness
GRID_FACES = 199 * 199 + 1
EXPECTED = {("planar", "grid-200"): {"planar": True, "face_count": GRID_FACES},
            ("faces", "grid-200"): {"face_count": GRID_FACES},
            ("planar", "crossed-grid-200"): {"planar": False}}


@pytest.fixture(scope="module")
def outcomes(tmp_path_factory):
    """(exit code, stdout, stderr, seconds) of each case."""
    where = tmp_path_factory.mktemp("hostile")
    inputs = {}
    for name, make in HOSTS:
        inputs[name] = str(where / (name + ".edges"))
        with open(inputs[name], "w", encoding="utf-8") as fh:
            fh.writelines("%d %d\n" % e for e in make())
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    queue, running, done = list(CASES), [], {}
    while queue or running:
        while queue and len(running) < AT_ONCE:
            command, name = case = queue.pop(0)
            out, err = (where / ("%s-%s.%s" % (command, name, s))
                        for s in ("out", "err"))
            with open(out, "w") as fo, open(err, "w") as fe:
                proc = subprocess.Popen(
                    [sys.executable, "-c", CAPPED, command, inputs[name],
                     "--format", "json"], stdout=fo, stderr=fe, env=env)
            running.append((case, proc, out, err, time.monotonic()))
        case, proc, out, err, start = running.pop(0)
        try:
            proc.wait(timeout=max(1, WALL_S - (time.monotonic() - start)))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        done[case] = (proc.returncode, out.read_text(), err.read_text(),
                      time.monotonic() - start)
    return done


@pytest.mark.parametrize("command, host", CASES,
                         ids=["%s-%s" % case for case in CASES])
def test_large_input_answers_under_the_cap(outcomes, command, host):
    code, out, err, seconds = outcomes[command, host]
    assert err == "", err[-2000:]
    assert code in (0, 1, 2), code
    assert seconds < WALL_S
    payload = json.loads(out)
    if (command, host) in EXPECTED:
        assert code == 0
        for key, value in EXPECTED[command, host].items():
            assert payload[key] == value, key
        assert payload["faces" if payload.get("planar", True)
                       else "witness"]
    elif code == 0:
        assert payload["command"] == command
        assert payload["tree_vertices"]
    else:
        assert "error" in payload
