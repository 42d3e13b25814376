"""Seeded input corpora for the three benchmark workloads.

Every workload has a small tier (fixture-scale graphs and presentations,
where start-up, parsing and serialisation dominate) and a large tier
(where one layer's asymptotic cost dominates).  The seed decides vertex
labels, edge order, gluing points and Cayley generator letters, never
the amount of structure: every seed gives the same number of cut
vertices, blocks, K4 pages and group orders, so the work of a pass stays
nearly constant across seeds while its details change.

Each operation is a dict with the command line to run (relative file
name in place of the path) and what the independent checks should
expect.  ``write_corpus`` writes the files; the program under test only
ever sees those files.
"""

from __future__ import annotations

import json
import os
import random

DEFAULT_SEED = 1
CONFIRM_SEED = 7919


# ------------------------------------------------------------ graph shapes
# A graph is (n, edges) on the vertices 0..n-1.

def complete(n):
    return n, [(i, j) for i in range(n) for j in range(i + 1, n)]


def cycle(n):
    return n, [(i, (i + 1) % n) for i in range(n)]


def path(n):
    return n, [(i, i + 1) for i in range(n - 1)]


def k33():
    return 6, [(i, j) for i in range(3) for j in range(3, 6)]


def prism(k):
    es = [(i, (i + 1) % k) for i in range(k)]
    es += [(k + i, k + (i + 1) % k) for i in range(k)]
    es += [(i, k + i) for i in range(k)]
    return 2 * k, es


def cube():
    es = [(i, (i + 1) % 4) for i in range(4)]
    es += [(4 + i, 4 + (i + 1) % 4) for i in range(4)]
    es += [(i, i + 4) for i in range(4)]
    return 8, es


def octahedron():
    return 6, [(i, j) for i in range(6) for j in range(i + 1, 6)
               if j != i + 3]


def grid(r, c):
    es = [(i * c + j, i * c + j + 1) for i in range(r) for j in range(c - 1)]
    es += [(i * c + j, (i + 1) * c + j) for i in range(r - 1) for j in range(c)]
    return r * c, es


def wheel(k):
    """Hub 0 joined to the cycle 1..k."""
    es = [(0, i) for i in range(1, k + 1)]
    es += [(i, i % k + 1) for i in range(1, k + 1)]
    return k + 1, es


def book(pages):
    """K4 pages sharing the spine edge 0-1."""
    es = [(0, 1)]
    for i in range(pages):
        a, b = 2 + 2 * i, 3 + 2 * i
        es += [(0, a), (0, b), (1, a), (1, b), (a, b)]
    return 2 + 2 * pages, es


def k4_edge_chain(k):
    """K4s on {2i, 2i+1, 2i+2, 2i+3}: consecutive ones share an edge."""
    es = set()
    for i in range(k):
        vs = range(2 * i, 2 * i + 4)
        es.update((a, b) for a in vs for b in vs if a < b)
    return 2 * k + 2, sorted(es)


def bowtie():
    """Two K4s sharing vertex 0."""
    return 7, complete(4)[1] + [(0, v) for v in (4, 5, 6)] + [
        (4, 5), (4, 6), (5, 6)]


def book_with_tail():
    """Two K4 pages on the spine 0-1 and a K4 hanging at vertex 2."""
    _, es = book(2)
    es += [(2, 6), (2, 7), (2, 8), (6, 7), (6, 8), (7, 8)]
    return 9, es


def disjoint_union(*graphs):
    n, es = 0, []
    for m, fs in graphs:
        es += [(u + n, v + n) for u, v in fs]
        n += m
    return n, es


def glue_at_vertices(rng, blocks):
    """Glue 2-connected blocks into a tree of blocks.

    Each new block shares one of its vertices with a vertex of the graph
    so far that is not yet a cut vertex, so every seed gives exactly
    len(blocks) - 1 cut vertices and len(blocks) blocks.
    """
    n, es = blocks[0][0], list(blocks[0][1])
    cuts = set()
    for m, fs in blocks[1:]:
        at = rng.choice([v for v in range(n) if v not in cuts])
        cuts.add(at)
        # local vertex 0 of the new block becomes `at`
        relabel = {0: at}
        relabel.update({i: n + i - 1 for i in range(1, m)})
        es += [(relabel[u], relabel[v]) for u, v in fs]
        n += m - 1
    return n, es


def caterpillar(rng, spine, leaves):
    """A spine path with at least one leaf on every spine vertex."""
    counts = [1] * spine
    for _ in range(leaves - spine):
        counts[rng.randrange(spine)] += 1
    _, es = path(spine)
    n = spine
    for v, c in enumerate(counts):
        for _ in range(c):
            es.append((v, n))
            n += 1
    return n, es


def subdivide(rng, graph, count):
    """Subdivide `count` distinct edges once each."""
    n, es = graph
    es = list(es)
    for i in rng.sample(range(len(es)), count):
        u, v = es[i]
        es[i] = (u, n)
        es.append((n, v))
        n += 1
    return n, es


def relabel(rng, graph, permute=True):
    """Random edge order and endpoint order, and unless ``permute`` is
    false a random vertex permutation."""
    n, es = graph
    perm = list(range(n))
    if permute:
        rng.shuffle(perm)
    out = [(perm[u], perm[v]) if rng.random() < 0.5 else (perm[v], perm[u])
           for u, v in es]
    rng.shuffle(out)
    return n, out


def edge_list_text(graph, comment):
    n, es = graph
    lines = ["# %s" % comment, "vertices: %d" % n]
    lines += ["%d %d" % e for e in es]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------- corpora

def _graph_op(rng, name, tier, command, graph, expect=None, limit=None,
              fixed_labels=False):
    # The automorphism search visits vertices in label order, so its cost
    # on one graph moves several-fold with the labelling (0.85 s to 3.5 s
    # for the chain of eight K4s).  Inputs that reach it keep the labels
    # of their construction, so that passes of any seed stay comparable.
    g = relabel(rng, graph, permute=not fixed_labels)
    argv = [command, name + ".edges", "--format", "json"]
    if limit is not None:
        argv += ["--limit", str(limit)]
    return {"name": name, "tier": tier, "argv": argv,
            "file": name + ".edges",
            "text": edge_list_text(g, name),
            "expect": expect or {}}


TC = "ThreeConnected"

FIXTURE_SHAPES = (
    # (name, graph, what the triblocks checks expect); the shapes are
    # those of the repository's test fixtures
    ("path4", path(4), {"kinds": {TC: 1}}),
    ("k4", complete(4), {"kinds": {TC: 1}, "k4_torsos": 1}),
    ("k4e", (4, [e for e in complete(4)[1] if e != (2, 3)]),
     {"kinds": {TC: 1}}),
    ("c6", cycle(6), {"kinds": {"Cycle": 1}}),
    ("k33", k33(), {"kinds": {TC: 1}}),
    ("k5", complete(5), {"kinds": {TC: 1}}),
    ("prism", prism(3), {"kinds": {TC: 1}}),
    ("octahedron", octahedron(), {"kinds": {TC: 1}}),
    ("q3", cube(), {"kinds": {TC: 1}}),
    ("grid3x3", grid(3, 3), {}),
    ("bowtie", bowtie(), {"kinds": {TC: 2, "CutPoint": 1}, "k4_torsos": 2}),
    ("book_k4", book_with_tail(), {"k4_torsos": 3}),
    ("twosquares", (6, [(0, 1), (0, 2), (2, 3), (3, 1), (0, 4), (4, 5),
                        (5, 1)]), {"kinds": {TC: 1}}),
)


def blocks_ops(rng):
    ops = []
    for name, graph, _ in FIXTURE_SHAPES:
        ops.append(_graph_op(rng, name, "small", "blocks", graph,
                             fixed_labels=True))
    ops.append(_graph_op(rng, "disconnected", "small", "blocks",
                         disjoint_union(cycle(3), path(2)),
                         expect={"error": "not-connected"}, fixed_labels=True))
    ops.append(_graph_op(rng, "path40", "large", "blocks", path(40)))
    ops.append(_graph_op(rng, "caterpillar", "large", "blocks",
                         caterpillar(rng, 20, 30)))
    ops.append(_graph_op(rng, "cactus", "large", "blocks",
                         glue_at_vertices(rng, [cycle(4)] * 24)))
    ops.append(_graph_op(rng, "k4_vertex_chain", "large", "blocks",
                         glue_at_vertices(rng, [complete(4)] * 24)))
    return ops


def triblocks_ops(rng):
    ops = [_graph_op(rng, name, "small", "triblocks", graph, expect=expect,
                     fixed_labels=True)
           for name, graph, expect in FIXTURE_SHAPES]
    # (name, graph, expect, --limit): edge-glued chains above 12 reduced
    # vertices pass the default automorphism bound only with --limit
    big = [("book4", book(4), {"k4_torsos": 4}, None),
           ("book4_subdivided", subdivide(rng, book(4), 8),
            {"k4_torsos": 4}, None)]
    chain = k4_edge_chain(6)
    big.append(("k4_edge_chain6", chain, {"k4_torsos": 6}, chain[0]))
    blocks = [complete(4), wheel(5)] * 8
    glued = {"kinds": {TC: len(blocks), "CutPoint": len(blocks) - 1},
             "k4_torsos": len(blocks) // 2}
    mixed = glue_at_vertices(rng, blocks)
    big.append(("k4_wheel_chain", mixed, glued, None))
    chain = subdivide(rng, chain, 10)
    big.append(("k4_edge_chain6_subdivided", chain, {"k4_torsos": 6},
                chain[0]))
    big.append(("k4_wheel_chain_subdivided", subdivide(rng, mixed, 12),
                glued, None))
    for name, g, expect, limit in big:
        ops.append(_graph_op(rng, name, "large", "triblocks", g,
                             expect=expect, limit=limit, fixed_labels=True))
    return ops


def _letters(rng, count):
    return rng.sample("abcdghjkmnpqrstuvwxyz", count)


def _pres_op(name, tier, text, expect):
    return {"name": name, "tier": tier,
            "argv": ["cayley", name + ".pres", "--format", "json"],
            "file": name + ".pres", "text": text, "expect": expect}


def _cyclic(rng, n):
    (a,) = _letters(rng, 1)
    return "gens: %s\nrels: %s^%d\n" % (a, a, n)


def _dihedral(rng, n):
    a, b = _letters(rng, 2)
    return "gens: %s %s\nrels: %s^%d, %s^2, (%s*%s)^2\n" % (a, b, a, n, b, a, b)


def _abelian2(rng, n, m):
    """Z_n x Z_m; the commutator must be parenthesised to parse."""
    a, b = _letters(rng, 2)
    return ("gens: %s %s\nrels: %s^%d, %s^%d, (%s*%s*%s^-1*%s^-1)\n"
            % (a, b, a, n, b, m, a, b, a, b))


def cayley_ops(rng):
    ops = [
        _pres_op("z6", "small", _cyclic(rng, 6),
                 {"order": 6, "planar": True}),
        _pres_op("d3", "small", _dihedral(rng, 3),
                 {"order": 6, "planar": True}),
        _pres_op("vd233", "small", "surface(0, [2,3,3], 0)\n",
                 {"order": 12, "planar": True}),
        _pres_op("vd234", "small", "surface(0, [2,3,4], 0)\n",
                 {"order": 24, "planar": True}),
        _pres_op("vd235", "small", "surface(0, [2,3,5], 0)\n",
                 {"order": 60, "planar": True}),
        _pres_op("z3xz3", "small", _abelian2(rng, 3, 3),
                 {"order": 9, "planar": False}),
    ]
    # sizes fixed, so that every seed does the same work; the seed picks
    # the generator letters
    for name, text, order in (
            ("cyclic", _cyclic(rng, 1000), 1000),
            ("dihedral", _dihedral(rng, 500), 1000),
            ("prism", _abelian2(rng, 500, 2), 1000)):
        ops.append(_pres_op(name, "large", text,
                            {"order": order, "planar": True}))
    ops.append(_pres_op("vd22n", "large", "surface(0, [2,2,250], 0)\n",
                        {"order": 500}))
    ops.append(_pres_op("z6xz6", "large", _abelian2(rng, 6, 6),
                        {"order": 36, "planar": False}))
    ops.append(_pres_op("vd237", "large", "surface(0, [2,3,7], 0)\n",
                        {"error": "overflow"}))
    ops.append(_pres_op("torus", "large", "surface(1, [], 0)\n",
                        {"error": "overflow"}))
    return ops


WORKLOADS = {
    "blocks": blocks_ops,
    "triblocks": triblocks_ops,
    "cayley": cayley_ops,
}


def corpus(workload, seed):
    """The operations of one workload, smallest first within each tier."""
    rng = random.Random("%s:%d" % (workload, seed))
    return WORKLOADS[workload](rng)


def write_corpus(workload, seed, directory):
    """Write every input file plus a manifest; returns the manifest path."""
    os.makedirs(directory, exist_ok=True)
    ops = corpus(workload, seed)
    for op in ops:
        with open(os.path.join(directory, op["file"]), "w",
                  encoding="utf-8", newline="\n") as fh:
            fh.write(op["text"])
    manifest = [{k: v for k, v in op.items() if k != "text"} for op in ops]
    target = os.path.join(directory, "manifest.json")
    with open(target, "w", encoding="utf-8") as fh:
        json.dump({"workload": workload, "seed": seed, "ops": manifest}, fh,
                  indent=1, sort_keys=True)
    return target
