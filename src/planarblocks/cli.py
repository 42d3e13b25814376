"""Command-line front end.

Every command reads one input file, writes one result to stdout, and
exits 0 (success), 1 (structured domain error, or a failed ``check``),
or 2 (parse error).  ``COMMANDS`` gives each command its input parser,
the builder of its result payload, and its default search bound (or
None: the command has no bound and takes no ``--limit``, except that
``triblocks`` still accepts one and ignores it).  JSON
output is the payload; text and DOT output are views of it (see
``serialize``).  Output is deterministic: identical input and flags give
identical bytes.  Domain errors are always emitted as schema-1 JSON
regardless of the requested format, so scripts can rely on the error
shape.
"""

from __future__ import annotations

import argparse
import sys

from . import serialize
from .errors import (DEFAULT_AUT_BOUND, DEFAULT_COSET_LIMIT, InvariantViolated,
                     MalformedInput, PlanarBlocksError, PreconditionViolated,
                     invariant)
from .graph import (connected_components, edge_key, homeomorphic_reduce,
                    induced_subgraph)


# the parsers are looked up when called, so that a patched parser (a
# tracer's, say) is the one that runs

def _parse_edge_list(text):
    from .graph import parse_edge_list
    return parse_edge_list(text)


def _parse_presentation(text):
    from .cayley import parse_presentation
    return parse_presentation(text)


# ------------------------------------------------------ payload builders
#
# Each takes the parsed input, the search bound and the parsed command
# line, and returns the payload of one result: plain values, tuples and
# graphs, which `serialize.dumps` writes as JSON.  Each imports the
# modules it runs, so a command loads only those.

def _blocks(g, bound, args):
    from .blocks1 import block_cut_tree, certify_block_cut_tree
    bct = block_cut_tree(homeomorphic_reduce(g).graph if args.reduce else g)
    certify_block_cut_tree(bct)
    payload = {
        "tree_vertices": [
            {"id": ci, "kind": "cut", "vertex": bct.cut_classes[ci]}
            if ci in bct.cut_classes else
            {"id": ci, "kind": "block", "graph": bct.block_classes[ci]}
            for ci in range(bct.tree.vertex_count)],
        "tree_edges": bct.tree.edges,
        "blocks": bct.blocks,
        "cut_vertices": bct.cuts,
        "family_size": len(bct.family.elements),
    }
    if args.reduce:
        payload["reduced_from"] = g
    return payload


def _triblocks(g, bound, args):
    from .blocks2 import triblock_tree
    tbt = triblock_tree(g)
    nodes = []
    for ci in range(tbt.vertex_count):
        node = {"id": ci, "kind": tbt.kinds[ci]}
        if ci in tbt.cut_classes:
            node["vertex"] = tbt.cut_classes[ci]
        if ci in tbt.torsos:
            t = tbt.torsos[ci]
            node.update(region=t.z_prime, virtual_edges=t.virtual_edges,
                        torso=t.z, witness=t.witness)
        nodes.append(node)
    return {"input": tbt.original, "reduced": tbt.graph,
            "tree_vertices": nodes, "tree_edges": tbt.edges,
            "family_size": len(tbt.family.elements)}


def _planar(g, bound, args):
    from .planar import planarity_test
    res = planarity_test(g)
    if not res.planar:
        return {"planar": False, "witness": res.witness}
    rotation = {v: tuple(edge_key(v, w) for w in around)
                for v, around in res.embedding.rotation.items()}
    return {"planar": True, "rotation": rotation, "faces": res.faces,
            "face_count": res.face_count}


def _faces(g, bound, args):
    from .planar import planarity_test
    res = planarity_test(g)
    if not res.planar:
        raise PreconditionViolated(
            "faces need a planar host",
            witness=[list(e) for e in res.witness.edges])
    return {"face_count": res.face_count, "faces": res.faces,
            "walks": res.walks}


def _autos(g, bound, args):
    from .symmetry import automorphism_group, check_orbit_stabilizer
    group = automorphism_group(g, max_vertices=bound)
    check_orbit_stabilizer(g, group)
    vs = g.vertices
    vertex_orbits, edge_orbits = group.orbits()
    return {
        "order": group.order,
        "generators": [[perm[v] for v in vs] for perm in group.generators],
        "vertex_order": vs,
        "vertex_orbits": vertex_orbits,
        "edge_orbits": edge_orbits,
    }


def _quotient(g, bound, args):
    from .symmetry import automorphism_group, quotient_graph
    q = quotient_graph(g, automorphism_group(g, max_vertices=bound))
    return {"vertex_orbits": q.vertex_orbits, "edge_orbits": q.edge_orbits,
            "edges": [{"from": i, "to": j, "multiplicity": m}
                      for i, j, m in q.edges]}


def _cayley(pr, bound, args):
    from .cayley import cayley_graph, coset_enumerate, equivariant_rotation
    from .planar import certify_embedding, planarity_test
    tbl = coset_enumerate(pr, limit=bound)
    graph = cayley_graph(tbl, pr)
    rotation = equivariant_rotation(tbl)
    # the left-right test refutes, or embeds a planar graph the search
    # missed
    res = (planarity_test(graph) if rotation is None
           else certify_embedding(graph, rotation))
    payload = {"order": tbl.order, "generators": tbl.generators,
               "graph": graph, "planar": res.planar}
    if res.planar:
        payload["face_count"] = res.face_count
    else:
        payload["witness"] = res.witness
    return payload


def _check(g, bound, args):
    """Replay the per-module invariant suites on one input graph.

    Each row has a name, a status (pass/fail/skip) and a detail;
    preconditions that do not hold for this input produce skips.
    """
    from .blocks1 import block_cut_tree, certify_block_cut_tree
    from .blocks2 import triblock_tree
    from .planar import planarity_test
    from .symmetry import (automorphism_group, check_orbit_stabilizer,
                           tree_action_check)
    count = serialize.counted
    rows = []

    def attempt(name, fn):
        try:
            status, detail = "pass", fn() or ""
        except InvariantViolated as exc:
            status, detail = "fail", (str(exc) if exc.witness is None
                                      else "%s: %s" % (exc, exc.witness))
        except PlanarBlocksError as exc:
            status, detail = "skip", "%s: %s" % (exc.kind, exc)
        rows.append({"name": name, "status": status, "detail": detail})

    def canonical():
        invariant(list(g.vertices) == sorted(set(g.vertices)),
                  "vertices are not sorted and distinct")
        invariant(list(g.edges) == sorted(set(g.edges)),
                  "edges are not sorted and distinct")
        return "%s, %s" % (count(len(g.vertices), "vertex", "vertices"),
                           count(len(g.edges), "edge"))
    attempt("graph-canonical-order", canonical)

    def blocks():
        bct = block_cut_tree(g)
        certify_block_cut_tree(bct)
        return "%s, %s" % (count(len(bct.blocks), "block"),
                           count(len(bct.cuts), "cut"))
    attempt("block-cut-tree", blocks)

    def reduction():
        rg = homeomorphic_reduce(g)
        covered = set(rg.edge_map())
        invariant(covered == g.edge_set, "reduction loses edges",
                  sorted(g.edge_set - covered))
        return "reduced to " + count(len(rg.graph.vertices), "vertex",
                                     "vertices")
    attempt("reduction-edge-cover", reduction)

    state = {}

    def triblocks():
        tbt = triblock_tree(g)
        state["tbt"] = tbt
        return count(tbt.vertex_count, "tree vertex", "tree vertices")
    attempt("triblock-tree", triblocks)

    def planar():
        res = planarity_test(g)
        state["planar"] = res
        if res.planar:
            return "planar, " + count(res.face_count, "face")
        return "nonplanar, witness with " + count(len(res.witness.edges),
                                                  "edge")
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
            return "all %s planar" % count(len(torso_planar), "torso")
        invariant(not all(torso_planar) or res.witness is not None,
                  "nonplanar host without a witness")
        return "nonplanar witnessed"
    attempt("planarity-inheritance", inheritance)

    def autos():
        group = automorphism_group(g, max_vertices=bound)
        check_orbit_stabilizer(g, group)
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

    return {"ok": all(r["status"] != "fail" for r in rows),
            "invariants": rows}


COMMANDS = {
    "blocks": (_parse_edge_list, _blocks, None),
    "triblocks": (_parse_edge_list, _triblocks, None),
    "planar": (_parse_edge_list, _planar, None),
    "faces": (_parse_edge_list, _faces, None),
    "autos": (_parse_edge_list, _autos, DEFAULT_AUT_BOUND),
    "quotient": (_parse_edge_list, _quotient, DEFAULT_AUT_BOUND),
    "cayley": (_parse_presentation, _cayley, DEFAULT_COSET_LIMIT),
    "check": (_parse_edge_list, _check, DEFAULT_AUT_BOUND),
}


class _Help(Exception):
    """Carries the help text of ``-h`` back to `run`."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise MalformedInput("bad command line: %s" % message)

    def print_help(self, file=None):
        raise _Help(self.format_help())


def _build_parser():
    parser = _Parser(prog="planarblocks",
                     description="block/triblock decompositions, planar "
                                 "embeddings, symmetry, Cayley graphs")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, _, bound) in COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("input", help="input file (edge list, or a "
                                     "presentation for 'cayley')")
        p.add_argument("--format", choices=("json", "dot", "text"),
                       default="text")
        if bound is not None:
            what = "coset count" if name == "cayley" else \
                "automorphism search size"
            p.add_argument("--limit", type=int, default=bound,
                           help="%s bound (default %d)" % (what, bound))
        elif name == "triblocks":
            p.add_argument("--limit", type=int,
                           help="accepted and ignored: the decomposition "
                                "searches no automorphisms")
        if name in ("blocks", "triblocks"):
            p.add_argument("--per-component", action="store_true",
                           dest="per_component")
        if name == "blocks":
            p.add_argument("--reduce", action="store_true")
    return parser


_PARSER = _build_parser()


def _read(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise MalformedInput("cannot read input: %s" % exc, witness=path)


def run(argv):
    """Execute one command line; returns (exit code, output text)."""
    try:
        args = _PARSER.parse_args(argv)
        if args.format == "dot" and args.command not in serialize.DOT:
            raise MalformedInput("dot output is not available for %r"
                                 % args.command)
        parse, build, _ = COMMANDS[args.command]
        source = parse(_read(args.input))
        bound = getattr(args, "limit", None)
        if bound is not None and bound < 1:
            raise MalformedInput("limit must be at least 1", witness=bound)
        if getattr(args, "per_component", False):
            payload = {"components": [
                build(induced_subgraph(source, comp), bound, args)
                for comp in connected_components(source)]}
        else:
            payload = build(source, bound, args)
        code = 0 if payload.get("ok", True) else 1
        return code, serialize.render(args.command, args.format, payload)
    except _Help as exc:
        return 0, exc.args[0]
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
