"""Command-line front end.

Every command reads one input file, writes one result to stdout, and
exits 0 (success), 1 (structured domain error, or a failed ``check``),
or 2 (parse error).  ``COMMANDS`` gives each command its input parser,
the builder of its result payload, its default search bound (or None:
the command has no bound), and its options besides ``-h``/``--help``:
``--limit`` on the commands with a bound, and on ``triblocks``, which
accepts it and ignores it.  `_read_argv` reads a command line in one
pass against that table, in argparse's grammar and with its error
messages, and `_help` writes each command's help from it as fixed text.
JSON output is the payload; text and DOT output are views of it (see
``serialize``).  Output is deterministic: identical input and flags give
identical bytes.  Domain errors are always emitted as schema-1 JSON
regardless of the requested format, so scripts can rely on the error
shape.
"""

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
    bct = block_cut_tree(homeomorphic_reduce(g).graph if args["reduce"]
                         else g)
    certify_block_cut_tree(bct)
    payload = {
        "tree_vertices": [
            {"id": ci, "kind": "cut", "vertex": bct.cut_classes[ci]}
            if ci in bct.cut_classes else
            {"id": ci, "kind": "block", "graph": bct.block_classes[ci]}
            for ci in range(bct.family.vertex_count)],
        "tree_edges": bct.family.edges,
        "blocks": bct.blocks,
        "cut_vertices": bct.cuts,
        "family_size": len(bct.family.elements),
    }
    if args["reduce"]:
        payload["reduced_from"] = g
    return payload


def _triblocks(g, bound, args):
    from .blocks2 import triblock_tree
    tbt = triblock_tree(g)
    fam = tbt.family
    nodes = []
    for ci in range(fam.vertex_count):
        node = {"id": ci, "kind": tbt.kinds[ci]}
        if ci in fam.cut_classes:
            node["vertex"] = fam.cut_classes[ci]
        if ci in tbt.torsos:
            t = tbt.torsos[ci]
            node.update(region=t.z_prime, virtual_edges=t.virtual_edges,
                        torso=t.z, witness=t.witness)
        nodes.append(node)
    return {"input": tbt.original, "reduced": fam.host,
            "tree_vertices": nodes, "tree_edges": fam.edges,
            "family_size": len(fam.elements)}


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
        return count(len(tbt.kinds), "tree vertex", "tree vertices")
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
        group = automorphism_group(tbt.family.host, max_vertices=bound)
        report = tree_action_check(tbt.family, group)
        invariant(report["ok"], "tree action check failed",
                  report["violations"])
        return "equivariant under order-%d group" % group.order
    attempt("tree-action", action)

    return {"ok": all(r["status"] != "fail" for r in rows),
            "invariants": rows}


COMMANDS = {
    "blocks": (_parse_edge_list, _blocks, None,
               ("--format", "--per-component", "--reduce")),
    "triblocks": (_parse_edge_list, _triblocks, None,
                  ("--format", "--limit", "--per-component")),
    "planar": (_parse_edge_list, _planar, None, ("--format",)),
    "faces": (_parse_edge_list, _faces, None, ("--format",)),
    "autos": (_parse_edge_list, _autos, DEFAULT_AUT_BOUND,
              ("--format", "--limit")),
    "quotient": (_parse_edge_list, _quotient, DEFAULT_AUT_BOUND,
                 ("--format", "--limit")),
    "cayley": (_parse_presentation, _cayley, DEFAULT_COSET_LIMIT,
               ("--format", "--limit")),
    "check": (_parse_edge_list, _check, DEFAULT_AUT_BOUND,
              ("--format", "--limit")),
}

_FORMATS = ("json", "dot", "text")

# the options of the program itself, which every command also takes
_HELP = ("-h", "--help")

# flag -> the field it sets
_FLAGS = {"--per-component": "per_component", "--reduce": "reduce"}


def _bad(message):
    return MalformedInput("bad command line: " + message)


def _negative_number(token):
    r"""argparse's test for a token that is a negative number, not an
    option: whether it matches ``^-\d+$|^-\d*\.\d+$``, where ``\d`` is
    any decimal digit and ``$`` also matches before one final newline."""
    body = token[1:-1] if token.endswith("\n") else token[1:]
    whole, dot, frac = body.partition(".")
    return token[:1] == "-" and (
        body.isdecimal()
        or dot and (not whole or whole.isdecimal()) and frac.isdecimal())


def _option(token, names):
    """Read one token against the option names of a command line.

    Returns None for a positional token, else the option's name (""
    for an unknown option) and its attached ``=value`` or None.  A long
    option may be given by a unique prefix of its name, and a prefix
    that several names share is an error; ``-h`` takes the letters after
    it as its value.
    """
    if token[:1] != "-" or token == "-":
        return None
    if token in names:
        return token, None
    name, eq, value = token.partition("=")
    if eq and name in names:
        return name, value
    if token[1] == "-":
        matches = [o for o in names if o.startswith(name)]
        if len(matches) == 1:
            return matches[0], value if eq else None
        if matches:
            raise _bad("ambiguous option: %s could match %s"
                       % (token, ", ".join(matches)))
    elif token[:2] in names:
        return token[:2], token[2:]
    if _negative_number(token) or " " in token:
        return None
    return "", None


def _no_value(name, value):
    """Raise argparse's error for a flag given an attached value.  Only
    ``h``s after ``-h`` pass: argparse reads each as ``-h`` again."""
    if name == "-h" and value:
        value = value.lstrip("h") or None
    if value is not None:
        raise _bad("argument %s: ignored explicit argument %r" % (
            "-h/--help" if name in _HELP else name, value))


def _help(command):
    """The fixed help text of one command, or of the program for None."""
    if command is None:
        return ("usage: planarblocks <command> [options] input\n\n"
                "block/triblock decompositions, planar embeddings, "
                "symmetry, Cayley graphs\n\n"
                "commands:\n  %s\n\n"
                "options:\n"
                "  -h, --help            show this help message and exit\n"
                "\n'planarblocks <command> --help' lists the options of "
                "one command.\n" % ", ".join(COMMANDS))
    _, _, bound, options = COMMANDS[command]
    if bound is not None:
        limit = "%s bound (default %d)" % (
            "coset count" if command == "cayley"
            else "automorphism search size", bound)
    else:
        limit = ("accepted and ignored: the decomposition searches no "
                 "automorphisms")
    shown = {"--format": ("--format {%s}" % ",".join(_FORMATS), ""),
             "--limit": ("--limit N", limit)}
    rows = [("-h, --help", "show this help message and exit")]
    rows += [shown.get(name, (name, "")) for name in options]
    return ("usage: planarblocks %s [-h] %s input\n\n"
            "positional arguments:\n"
            "  input                 input file (edge list, or a "
            "presentation for 'cayley')\n\n"
            "options:\n%s" % (
                command, " ".join("[%s]" % label for label, _ in rows[1:]),
                "".join(("  %-20s  %s" % row).rstrip() + "\n"
                        for row in rows)))


def _read_argv(argv):
    """Read a command line in one pass over `argv`.

    Returns its fields (``command``, ``input``, ``format``, and
    ``limit``, ``per_component`` and ``reduce`` where the command takes
    them), or a help text where ``-h``/``--help`` comes before any
    error.  The grammar is argparse's: options in any order after the
    command, ``--opt value`` or ``--opt=value``, unique prefixes of long
    options, the last repeat winning, and ``--`` ending the options.
    """
    extras = []           # unknown options and surplus positionals
    for at, token in enumerate(argv):
        # before the command, only -h/--help is an option
        option = None if token == "--" else _option(token, _HELP)
        if option is None:
            break
        if option[0]:
            _no_value(*option)
            return _help(None)
        extras.append(token)
    else:
        raise _bad("the following arguments are required: command")
    if token == "--" and at + 1 == len(argv):
        raise _bad("the following arguments are required: command")
    if token not in COMMANDS:
        raise _bad("argument command: invalid choice: %r (choose from %s)"
                   % (token, ", ".join(map(repr, COMMANDS))))
    command = token
    _, _, bound, options = COMMANDS[command]
    names = _HELP + options
    args = {"command": command, "input": None, "format": "text"}
    if "--limit" in options:
        args["limit"] = bound
    args.update((_FLAGS[name], False) for name in options if name in _FLAGS)
    rest = argv[at + 1:]
    # argparse sorts every token before the first '--' into options and
    # positionals before it reads any, so an ambiguous prefix fails first
    for token in rest:
        if token == "--":
            break
        _option(token, names)
    taken = None          # index in `rest` of the input
    dashes = False        # '--' was read: later tokens are positional
    i = 0
    while i < len(rest):
        token = rest[i]
        i += 1
        if token == "--" and not dashes:
            dashes = True
            # a '--' next to the input, before or after it, is its own
            if taken is not None and taken != i - 2:
                extras.append(token)
            continue
        option = None if dashes else _option(token, names)
        if option is None:
            if taken is None:
                args["input"], taken = token, i - 1
            else:
                extras.append(token)
            continue
        name, value = option
        if not name:
            extras.append(token)
        elif name in _HELP or name in _FLAGS:
            _no_value(name, value)
            if name in _HELP:
                return _help(command)
            args[_FLAGS[name]] = True
        else:
            if value is None:
                if (i == len(rest) or rest[i] == "--"
                        or _option(rest[i], names) is not None):
                    raise _bad("argument %s: expected one argument" % name)
                value = rest[i]
                i += 1
            if name == "--format":
                if value not in _FORMATS:
                    raise _bad("argument --format: invalid choice: %r "
                               "(choose from %s)"
                               % (value, ", ".join(map(repr, _FORMATS))))
                args["format"] = value
            else:
                try:
                    args["limit"] = int(value)
                except ValueError:
                    raise _bad("argument --limit: invalid int value: %r"
                               % value) from None
    if taken is None:
        raise _bad("the following arguments are required: input")
    if extras:
        raise _bad("unrecognized arguments: " + " ".join(extras))
    return args


def _read(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise MalformedInput("cannot read input: %s" % exc, witness=path)


def run(argv):
    """Execute one command line; returns (exit code, output text)."""
    try:
        args = _read_argv(argv)
        if isinstance(args, str):
            return 0, args
        command, fmt = args["command"], args["format"]
        if fmt == "dot" and command not in serialize.DOT:
            raise MalformedInput("dot output is not available for %r"
                                 % command)
        parse, build, _, _ = COMMANDS[command]
        source = parse(_read(args["input"]))
        bound = args.get("limit")
        if bound is not None and bound < 1:
            raise MalformedInput("limit must be at least 1", witness=bound)
        if args.get("per_component"):
            payload = {"components": [
                build(induced_subgraph(source, comp), bound, args)
                for comp in connected_components(source)]}
        else:
            payload = build(source, bound, args)
        code = 0 if payload.get("ok", True) else 1
        return code, serialize.render(command, fmt, payload)
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
