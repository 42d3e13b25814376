"""Command-line front end.

Every command reads one input file, writes one result to stdout, and
exits 0 (success), 1 (structured domain error), or 2 (parse error).
Output is deterministic: identical input and flags give identical bytes.
Domain errors are always emitted as schema-1 JSON regardless of the
requested format, so scripts can rely on the error shape.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import serialize
from .blocks1 import block_cut_tree
from .blocks2 import triblock_tree
from .cayley import DEFAULT_COSET_LIMIT, cayley_graph, coset_enumerate, parse_presentation
from .errors import (InvariantViolated, MalformedInput, PlanarBlocksError,
                     PreconditionViolated, invariant)
from .graph import (connected_components, homeomorphic_reduce, induced_subgraph,
                    is_connected, parse_edge_list)
from .planar import facial_walks, planarity_test
from .symmetry import (DEFAULT_AUT_BOUND, automorphism_group, check_orbit_stabilizer,
                       quotient_graph, tree_action_check)
from .treeset import verify_tree_correspondence

COMMANDS = ("blocks", "triblocks", "planar", "faces", "autos",
            "quotient", "cayley", "check")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise MalformedInput("bad command line: %s" % message)


def _build_parser():
    parser = _Parser(prog="planarblocks",
                     description="block/triblock decompositions, planar "
                                 "embeddings, symmetry, Cayley graphs")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("input", help="input file (edge list, or a "
                                     "presentation for 'cayley')")
        p.add_argument("--format", choices=("json", "dot", "text"),
                       default="text")
        p.add_argument("--limit", type=int, default=None,
                       help="search bound override (automorphism bound, "
                            "coset limit); also via PLANAR_BLOCKS_LIMIT")
        if name in ("blocks", "triblocks"):
            p.add_argument("--per-component", action="store_true",
                           dest="per_component")
        if name == "blocks":
            p.add_argument("--reduce", action="store_true")
    return parser


_PARSER = _build_parser()


def _limit(args, fallback):
    if args.limit is not None:
        if args.limit < 1:
            raise MalformedInput("limit must be at least 1",
                                 witness=args.limit)
        return args.limit
    env = os.environ.get("PLANAR_BLOCKS_LIMIT")
    if env is not None:
        if not env.isdigit() or int(env) < 1:
            raise MalformedInput("PLANAR_BLOCKS_LIMIT must be a positive "
                                 "integer", witness=env)
        return int(env)
    return fallback


def _read(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise MalformedInput("cannot read input: %s" % exc, witness=path)


def _components(g, per_component):
    if per_component:
        return [induced_subgraph(g, comp) for comp in connected_components(g)]
    return [g]


# ---------------------------------------------------------------- blocks

def _fmt_vertex_list(vs):
    return "{%s}" % ",".join(map(str, vs))


def _run_blocks(args):
    g = parse_edge_list(_read(args.input))
    results = []
    for comp in _components(g, args.per_component):
        part = {}
        if args.reduce:
            rg = homeomorphic_reduce(comp)
            part["reduced_from"] = serialize.graph_payload(comp)
            comp = rg.graph
        bct = block_cut_tree(comp)
        report = verify_tree_correspondence(bct.tree)
        invariant(report["ok"], "tree verification failed",
                  report["violations"])
        part.update(serialize.blocks_payload(bct))
        results.append((part, bct))
    if args.format == "dot":
        return "".join(serialize.blocks_dot(bct) for _, bct in results)
    if args.format == "json":
        if args.per_component:
            return serialize.dumps({"command": "blocks",
                                    "components": [p for p, _ in results]})
        return serialize.dumps({"command": "blocks", **results[0][0]})
    lines = []
    for part, _ in results:
        lines.append("blocks: %d  cuts: %d  tree edges: %d" % (
            len(part["blocks"]), len(part["cut_vertices"]),
            len(part["tree_edges"])))
        for node in part["tree_vertices"]:
            if node["kind"] == "cut":
                lines.append("  [%d] cut vertex %d" % (node["id"], node["vertex"]))
            else:
                gg = node["graph"]
                lines.append("  [%d] block %s, %d edges" % (
                    node["id"], _fmt_vertex_list(gg["vertices"]),
                    len(gg["edges"])))
        for i, j in part["tree_edges"]:
            lines.append("  tree %d -- %d" % (i, j))
    return "\n".join(lines) + "\n"


# ------------------------------------------------------------- triblocks

def _run_triblocks(args):
    g = parse_edge_list(_read(args.input))
    bound = _limit(args, DEFAULT_AUT_BOUND)
    results = []
    for comp in _components(g, args.per_component):
        tbt = triblock_tree(comp, max_aut=bound)
        report = verify_tree_correspondence(tbt.tree)
        invariant(report["ok"], "tree verification failed",
                  report["violations"])
        results.append(tbt)
    if args.format == "dot":
        return "".join(serialize.triblocks_dot(t) for t in results)
    if args.format == "json":
        if args.per_component:
            return serialize.dumps({
                "command": "triblocks",
                "components": [serialize.triblocks_payload(t) for t in results]})
        return serialize.dumps({"command": "triblocks",
                                **serialize.triblocks_payload(results[0])})
    lines = []
    for tbt in results:
        lines.append("tree vertices: %d  (reduced host: %d vertices, %d edges)"
                     % (tbt.vertex_count, len(tbt.graph.vertices),
                        len(tbt.graph.edges)))
        for ci in range(tbt.vertex_count):
            kind = tbt.kinds[ci]
            if ci in tbt.cut_classes:
                lines.append("  [%d] %s at vertex %d" % (ci, kind,
                                                         tbt.cut_classes[ci]))
            else:
                t = tbt.torsos[ci]
                lines.append("  [%d] %s on %s, %d edges (%d virtual)" % (
                    ci, kind, _fmt_vertex_list(t.z.vertices),
                    len(t.z.edges), len(t.virtual_edges)))
        for i, j in tbt.edges:
            lines.append("  tree %d -- %d" % (i, j))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------- planar

def _run_planar(args):
    g = parse_edge_list(_read(args.input))
    res = planarity_test(g)
    if args.format == "dot":
        return serialize.graph_dot(res.witness if not res.planar else g)
    if args.format == "json":
        return serialize.dumps({"command": "planar",
                                **serialize.planar_payload(res)})
    if not res.planar:
        lines = ["planar: no", "witness edges:"]
        lines += ["  %d %d" % e for e in res.witness.edges]
        return "\n".join(lines) + "\n"
    lines = ["planar: yes", "faces: %d" % res.face_count]
    lines += ["  (%s)" % " ".join(map(str, f)) for f in res.faces]
    return "\n".join(lines) + "\n"


def _run_faces(args):
    g = parse_edge_list(_read(args.input))
    res = planarity_test(g)
    if not res.planar:
        raise PreconditionViolated(
            "faces need a planar host",
            witness=[list(e) for e in res.witness.edges])
    walks = facial_walks(res.embedding)
    if args.format == "json":
        return serialize.dumps({"command": "faces",
                                "face_count": len(walks),
                                "faces": [list(f) for f in res.faces],
                                "walks": [list(w) for w in walks]})
    lines = ["faces: %d" % len(walks)]
    lines += ["  (%s)" % " ".join(map(str, f)) for f in res.faces]
    return "\n".join(lines) + "\n"


# -------------------------------------------------------------- symmetry

def _run_autos(args):
    g = parse_edge_list(_read(args.input))
    group = automorphism_group(g, max_vertices=_limit(args, DEFAULT_AUT_BOUND))
    check_orbit_stabilizer(g, group)
    payload = serialize.autos_payload(group)
    if args.format == "json":
        return serialize.dumps({"command": "autos", **payload})
    lines = ["order: %d" % payload["order"],
             "generators: %d" % len(payload["generators"])]
    for orb in payload["vertex_orbits"]:
        lines.append("  vertex orbit %s" % _fmt_vertex_list(orb))
    for orb in payload["edge_orbits"]:
        lines.append("  edge orbit {%s}" %
                     ",".join("%d-%d" % tuple(e) for e in orb))
    return "\n".join(lines) + "\n"


def _run_quotient(args):
    g = parse_edge_list(_read(args.input))
    group = automorphism_group(g, max_vertices=_limit(args, DEFAULT_AUT_BOUND))
    q = quotient_graph(g, group)
    if args.format == "dot":
        return serialize.quotient_dot(q)
    if args.format == "json":
        return serialize.dumps({"command": "quotient",
                                **serialize.quotient_payload(q)})
    lines = ["orbits: %d vertices, %d edges" % (len(q.vertex_orbits),
                                                len(q.edge_orbits))]
    for i, orb in enumerate(q.vertex_orbits):
        lines.append("  orbit %d = %s" % (i, _fmt_vertex_list(orb)))
    for i, j, m in q.edges:
        lines.append("  %d -- %d  (multiplicity %d)" % (i, j, m))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------- cayley

def _run_cayley(args):
    pr = parse_presentation(_read(args.input))
    tbl = coset_enumerate(pr, limit=_limit(args, DEFAULT_COSET_LIMIT))
    graph = cayley_graph(tbl, pr)
    res = planarity_test(graph)
    if args.format == "dot":
        return serialize.graph_dot(graph, name="cayley")
    if args.format == "json":
        return serialize.dumps({"command": "cayley",
                                **serialize.cayley_payload(tbl, graph, res)})
    lines = ["order: %d" % tbl.order,
             "generators: %s" % " ".join(tbl.generators),
             "cayley graph: %d vertices, %d edges" % (len(graph.vertices),
                                                      len(graph.edges)),
             "planar: %s" % ("yes" if res.planar else "no")]
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------- check

def _check_invariants(g, bound):
    """Replay the per-module invariant suites on one input graph.

    Each entry is (name, status, detail) with status pass/fail/skip;
    preconditions that do not hold for this input produce skips.
    """
    results = []

    def attempt(name, fn):
        try:
            detail = fn()
            results.append((name, "pass", detail or ""))
        except InvariantViolated as exc:
            detail = str(exc) if exc.witness is None \
                else "%s: %s" % (exc, exc.witness)
            results.append((name, "fail", detail))
        except PlanarBlocksError as exc:
            results.append((name, "skip", "%s: %s" % (exc.kind, exc)))

    def canonical():
        invariant(list(g.vertices) == sorted(set(g.vertices)),
                  "vertices are not sorted and distinct")
        invariant(list(g.edges) == sorted(set(g.edges)),
                  "edges are not sorted and distinct")
        return "%d vertices, %d edges" % (len(g.vertices), len(g.edges))
    attempt("graph-canonical-order", canonical)

    def blocks():
        bct = block_cut_tree(g)
        report = verify_tree_correspondence(bct.tree)
        invariant(report["ok"], "tree verification failed",
                  report["violations"])
        return "%d blocks, %d cuts" % (len(bct.blocks), len(bct.cuts))
    attempt("block-cut-tree", blocks)

    def reduction():
        rg = homeomorphic_reduce(g)
        covered = set(rg.edge_map())
        invariant(covered == g.edge_set, "reduction loses edges",
                  sorted(g.edge_set - covered))
        return "reduced to %d vertices" % len(rg.graph.vertices)
    attempt("reduction-edge-cover", reduction)

    state = {}

    def triblocks():
        tbt = triblock_tree(g, max_aut=bound)
        report = verify_tree_correspondence(tbt.tree)
        invariant(report["ok"], "tree verification failed",
                  report["violations"])
        state["tbt"] = tbt
        return "%d tree vertices" % tbt.vertex_count
    attempt("triblock-tree", triblocks)

    def planar():
        res = planarity_test(g)
        state["planar"] = res
        if res.planar:
            return "planar, %d faces" % res.face_count
        return "nonplanar, witness with %d edges" % len(res.witness.edges)
    attempt("planarity-certificate", planar)

    def inheritance():
        tbt = state.get("tbt")
        res = state.get("planar")
        if tbt is None or res is None:
            raise PreconditionViolated("needs triblock tree and planarity")
        torso_planar = [planarity_test(t.z).planar
                        for t in tbt.torsos.values()]
        if res.planar:
            invariant(all(torso_planar), "planar host with nonplanar torso")
            return "all %d torsos planar" % len(torso_planar)
        invariant(not all(torso_planar) or res.witness is not None,
                  "nonplanar host without a witness")
        return "nonplanar witnessed"
    attempt("planarity-inheritance", inheritance)

    def autos():
        group = automorphism_group(g, max_vertices=bound)
        check_orbit_stabilizer(g, group)
        state["group"] = group
        return "order %d" % group.order
    attempt("orbit-stabilizer", autos)

    def action():
        tbt = state.get("tbt")
        if tbt is None:
            raise PreconditionViolated("needs the triblock tree")
        # the tree's family lives on the reduced host, so the acting
        # group must be computed there
        group = automorphism_group(tbt.graph, max_vertices=bound)
        report = tree_action_check(tbt.tree, group)
        invariant(report["ok"], "tree action check failed",
                  report["violations"])
        return "equivariant under order-%d group" % group.order
    attempt("tree-action", action)

    return results


def _run_check(args):
    g = parse_edge_list(_read(args.input))
    results = _check_invariants(g, _limit(args, DEFAULT_AUT_BOUND))
    failed = any(status == "fail" for _, status, _ in results)
    if args.format == "json":
        body = {"command": "check",
                "ok": not failed,
                "invariants": [{"name": n, "status": s, "detail": d}
                               for n, s, d in results]}
        return (1 if failed else 0), serialize.dumps(body)
    lines = []
    for name, status, detail in results:
        suffix = " (%s)" % detail if detail else ""
        lines.append("%-26s %s%s" % (name, status.upper(), suffix))
    lines.append("result: %s" % ("FAIL" if failed else "OK"))
    return (1 if failed else 0), "\n".join(lines) + "\n"


_RUNNERS = {
    "blocks": _run_blocks,
    "triblocks": _run_triblocks,
    "planar": _run_planar,
    "faces": _run_faces,
    "autos": _run_autos,
    "quotient": _run_quotient,
    "cayley": _run_cayley,
}


def run(argv):
    """Execute one command line; returns (exit code, output text)."""
    try:
        args = _PARSER.parse_args(argv)
        if args.format == "dot" and args.command in ("faces", "autos", "check"):
            raise MalformedInput("dot output is not available for %r"
                                 % args.command)
        if args.command == "check":
            return _run_check(args)
        return 0, _RUNNERS[args.command](args)
    except MalformedInput as exc:
        return 2, serialize.dumps({"error": exc.payload()})
    except PlanarBlocksError as exc:
        return 1, serialize.dumps({"error": exc.payload()})


def main():
    code, output = run(sys.argv[1:])
    sys.stdout.write(output)
    return code


if __name__ == "__main__":
    sys.exit(main())
