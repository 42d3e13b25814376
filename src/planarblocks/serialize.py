"""Stable serialization of pipeline results.

Each command's result is one payload (built in ``cli``).  JSON output
is the payload plus its ``command`` and a top-level ``schema: 1``
marker, emitted with sorted keys so identical inputs produce identical
bytes.  Text and DOT output are views rendered from the payload alone,
the same values the JSON writes, so every fact they show is in the JSON
too.  DOT output is for eyeballing only and makes no stability promise
beyond determinism.

`dumps` writes the JSON in one walk over the payload, coercing as it
goes: dict keys become strings and objects list them sorted, sets
become arrays sorted by ``repr``, tuples become arrays, a graph becomes
``{"edges", "vertices"}``, and any other value its ``repr`` as a
string.  The text is the standard library's indent-2, sorted-key,
ASCII-only spelling, byte for byte; the stdlib reaches it only through
its pure-Python encoder, one generator step per token, so an array of
plain ints is written here with one ``join``, and an array of rows of
them with one ``%`` format over all their ints.  Strings are escaped
by the C escaper that encoder calls, ``encode_basestring_ascii`` of the
``_json`` extension, imported from there so that no command loads the
``json`` package.

A payload often holds one graph object at several places: a block in
both the tree and the block list, or a block that is the region, the
torso and the witness of its tree vertex.  Each graph object is written
once per call, in place; each repeat is the text of the first, re-based
to its own indent.  The memo of written graphs lives for one call.
"""

from _json import encode_basestring_ascii as _string
from itertools import chain

from .graph import Graph

SCHEMA = 1

_INFINITY = float("inf")


def _float(x):
    if x != x:
        return "NaN"
    if x == _INFINITY:
        return "Infinity"
    if x == -_INFINITY:
        return "-Infinity"
    return float.__repr__(x)


def _array(xs, nl, out, seen):
    if not xs:
        out.append("[]")
        return
    inner = nl + "  "
    kinds = set(map(type, xs))
    if kinds == {int}:
        out.append("[" + inner + ("," + inner).join(map(repr, xs)) + nl + "]")
    elif (kinds <= {tuple, list} and len(set(map(len, xs))) == 1
          and set(map(type, ints := tuple(chain.from_iterable(xs)))) == {int}):
        # rows of plain ints, all one length, such as edges: one format
        # call over all their ints
        deeper = inner + "  "
        row = "[" + deeper + ("," + deeper).join(["%d"] * len(xs[0])) + inner + "]"
        out.append("[" + inner + ("," + inner).join([row] * len(xs)) % ints
                   + nl + "]")
    else:
        sep = "[" + inner
        for x in xs:
            out.append(sep)
            _write(x, inner, out, seen)
            sep = "," + inner
        out.append(nl + "]")


def _object(d, nl, out, seen):
    if not d:
        out.append("{}")
        return
    inner = nl + "  "
    sep = "{" + inner
    # a later key wins when two keys share a string
    items = d.items() if set(map(type, d)) == {str} else {
        str(k): v for k, v in d.items()}.items()
    for k, v in sorted(items):
        out.append(sep + _string(k) + ": ")
        _write(v, inner, out, seen)
        sep = "," + inner
    out.append(nl + "}")


def _write(x, nl, out, seen):
    """Append the JSON text of x, whose inner lines start after nl.
    `seen` maps the id of each graph written so far to its nl and the
    span of `out` that holds its text.  The commonest exact types are
    looked up first; the chain below handles each the same way."""
    kind = type(x)
    if kind is int:
        out.append(int.__repr__(x))
    elif kind is dict:
        _object(x, nl, out, seen)
    elif kind is Graph:
        _graph(x, nl, out, seen)
    elif isinstance(x, str):
        out.append(_string(x))
    elif x is None:
        out.append("null")
    elif x is True:
        out.append("true")
    elif x is False:
        out.append("false")
    elif isinstance(x, int):
        out.append(int.__repr__(x))
    elif isinstance(x, float):
        out.append(_float(x))
    elif isinstance(x, dict):
        _object(x, nl, out, seen)
    elif isinstance(x, (list, tuple)):
        _array(x, nl, out, seen)
    elif isinstance(x, (set, frozenset)):
        _array(sorted(x, key=repr), nl, out, seen)
    elif hasattr(x, "vertices") and hasattr(x, "edges"):
        _graph(x, nl, out, seen)
    else:
        out.append(_string(repr(x)))


def _graph(x, nl, out, seen):
    first = seen.get(id(x))
    if first is not None:
        first_nl, start, end = first
        text = "".join(out[start:end])
        out.append(text if first_nl == nl else text.replace(first_nl, nl))
        return
    start = len(out)
    inner = nl + "  "
    out.append("{" + inner + '"edges": ')
    _array(x.edges, inner, out, seen)
    out.append("," + inner + '"vertices": ')
    _array(x.vertices, inner, out, seen)
    out.append(nl + "}")
    seen[id(x)] = nl, start, len(out)


def dumps(payload):
    body = dict(payload)
    body["schema"] = SCHEMA
    out = []
    _write(body, "\n", out, {})
    out.append("\n")
    return "".join(out)


# ---------------------------------------------------------------- views
#
# Each view takes one payload and returns output lines.

def counted(n, noun, nouns=None):
    """n and the noun, singular for a count of 1: "1 edge", "2 edges"."""
    return "%d %s" % (n, noun if n == 1 else nouns or noun + "s")


def _vertex_set(vs):
    return "{%s}" % ",".join(map(str, vs))


def _size(g):
    return "%s, %s" % (counted(len(g.vertices), "vertex", "vertices"),
                       counted(len(g.edges), "edge"))


def _face_lines(faces):
    return ["  (%s)" % " ".join(map(str, f)) for f in faces]


def _dot(name, nodes, edges):
    return ["graph %s {" % name] + ["  %s;" % x for x in nodes + edges] + ["}"]


def graph_dot(g, name="g"):
    return _dot(name, ["%d" % v for v in g.vertices],
                ["%d -- %d" % e for e in g.edges])


def _tree_dot(name, p, label):
    """A structure tree, each node labelled by ``label(node)``."""
    return _dot(name, ['n%d [label="%s"]' % (n["id"], label(n))
                       for n in p["tree_vertices"]],
                ["n%d -- n%d" % tuple(e) for e in sorted(p["tree_edges"])])


def _tree_edge_lines(p):
    return ["  tree %d -- %d" % tuple(e) for e in p["tree_edges"]]


def blocks_text(p):
    lines = ["blocks: %d  cuts: %d  tree edges: %d" % (
        len(p["blocks"]), len(p["cut_vertices"]), len(p["tree_edges"]))]
    for n in p["tree_vertices"]:
        if n["kind"] == "cut":
            lines.append("  [%d] cut vertex %d" % (n["id"], n["vertex"]))
        else:
            lines.append("  [%d] block %s, %s" % (
                n["id"], _vertex_set(n["graph"].vertices),
                counted(len(n["graph"].edges), "edge")))
    return lines + _tree_edge_lines(p)


def blocks_dot(p):
    return _tree_dot("blockcut", p, lambda n: (
        "cut %d" % n["vertex"] if n["kind"] == "cut"
        else "block " + _vertex_set(n["graph"].vertices)))


def triblocks_text(p):
    host = p["reduced"]
    lines = ["tree vertices: %d  (reduced host: %s)" % (
        len(p["tree_vertices"]), _size(host))]
    for n in p["tree_vertices"]:
        if "vertex" in n:
            lines.append("  [%d] %s at vertex %d" % (n["id"], n["kind"],
                                                     n["vertex"]))
        else:
            lines.append("  [%d] %s on %s, %s (%d virtual)" % (
                n["id"], n["kind"], _vertex_set(n["torso"].vertices),
                counted(len(n["torso"].edges), "edge"),
                len(n["virtual_edges"])))
    return lines + _tree_edge_lines(p)


def triblocks_dot(p):
    return _tree_dot("triblock", p, lambda n: (
        "%s %d" % (n["kind"], n["vertex"]) if "vertex" in n
        else "%s %s" % (n["kind"], _vertex_set(n["torso"].vertices))))


def planar_text(p):
    if not p["planar"]:
        return (["planar: no", "witness edges:"]
                + ["  %d %d" % e for e in p["witness"].edges])
    return (["planar: yes", "faces: %d" % p["face_count"]]
            + _face_lines(p["faces"]))


def planar_dot(p):
    """The Kuratowski witness, or the host rebuilt from its rotation."""
    if not p["planar"]:
        return graph_dot(p["witness"])
    rotation = p["rotation"]
    return graph_dot(Graph(tuple(sorted(rotation)),
                           tuple(sorted({e for around in rotation.values()
                                         for e in around}))))


def faces_text(p):
    return ["faces: %d" % p["face_count"]] + _face_lines(p["faces"])


def autos_text(p):
    return (["order: %d" % p["order"],
             "generators: %d" % len(p["generators"])]
            + ["  vertex orbit " + _vertex_set(o) for o in p["vertex_orbits"]]
            + ["  edge orbit {%s}" % ",".join("%d-%d" % tuple(e) for e in o)
               for o in p["edge_orbits"]])


def quotient_text(p):
    return (["orbits: %s, %s" % (
                counted(len(p["vertex_orbits"]), "vertex", "vertices"),
                counted(len(p["edge_orbits"]), "edge"))]
            + ["  orbit %d = %s" % (i, _vertex_set(o))
               for i, o in enumerate(p["vertex_orbits"])]
            + ["  %(from)d -- %(to)d  (multiplicity %(multiplicity)d)" % e
               for e in p["edges"]])


def quotient_dot(p):
    return _dot("quotient", ['n%d [label="%s"]' % (i, _vertex_set(o))
                             for i, o in enumerate(p["vertex_orbits"])],
                ['n%(from)d -- n%(to)d [label="%(multiplicity)d"]' % e
                 for e in p["edges"]])


def cayley_text(p):
    g = p["graph"]
    return ["order: %d" % p["order"],
            "generators: %s" % " ".join(p["generators"]),
            "cayley graph: " + _size(g),
            "planar: %s" % ("yes" if p["planar"] else "no")]


def check_text(p):
    return (["%-26s %s%s" % (r["name"], r["status"].upper(),
                             " (%s)" % r["detail"] if r["detail"] else "")
             for r in p["invariants"]]
            + ["result: %s" % ("OK" if p["ok"] else "FAIL")])


TEXT = {"blocks": blocks_text, "triblocks": triblocks_text,
        "planar": planar_text, "faces": faces_text, "autos": autos_text,
        "quotient": quotient_text, "cayley": cayley_text,
        "check": check_text}
# a command missing here has no DOT view
DOT = {"blocks": blocks_dot, "triblocks": triblocks_dot,
       "planar": planar_dot, "quotient": quotient_dot,
       "cayley": lambda p: graph_dot(p["graph"], "cayley")}


def render(command, fmt, payload):
    """One command's stdout: its payload as JSON, or the text or DOT view
    of the payload, once per entry of ``components`` if the payload holds
    one result per component."""
    if fmt == "json":
        return dumps({"command": command, **payload})
    view = (TEXT if fmt == "text" else DOT)[command]
    return "".join("\n".join(view(part)) + "\n"
                   for part in payload.get("components", [payload]))
