"""Stable serialization of pipeline results.

JSON output carries a top-level ``schema: 1`` marker and is emitted with
sorted keys so identical inputs produce identical bytes.  DOT output is
for eyeballing only and makes no stability promise beyond determinism.
"""

from __future__ import annotations

import json

SCHEMA = 1


def jsonable(x):
    """Recursively coerce pipeline values into JSON-representable ones."""
    if isinstance(x, dict):
        return {str(k): jsonable(v) for k, v in sorted(x.items(), key=lambda kv: str(kv[0]))}
    if isinstance(x, (set, frozenset)):
        return [jsonable(v) for v in sorted(x, key=repr)]
    if isinstance(x, (list, tuple)):
        return [jsonable(v) for v in x]
    if isinstance(x, (str, int, float, bool)) or x is None:
        return x
    if hasattr(x, "vertices") and hasattr(x, "edges"):
        return graph_payload(x)
    return repr(x)


def dumps(payload):
    body = dict(payload)
    body["schema"] = SCHEMA
    return json.dumps(jsonable(body), sort_keys=True, indent=2) + "\n"


def graph_payload(g):
    return {"vertices": list(g.vertices),
            "edges": [list(e) for e in g.edges]}


def graph_dot(g, name="g"):
    lines = ["graph %s {" % name]
    for v in g.vertices:
        lines.append("  %d;" % v)
    for u, v in g.edges:
        lines.append("  %d -- %d;" % (u, v))
    lines.append("}")
    return "\n".join(lines) + "\n"


def tree_dot(labels, edges, name="tree"):
    """DOT for a tree with string node labels keyed by node id."""
    lines = ["graph %s {" % name]
    for ci in sorted(labels):
        lines.append('  n%d [label="%s"];' % (ci, labels[ci]))
    for i, j in sorted(edges):
        lines.append("  n%d -- n%d;" % (i, j))
    lines.append("}")
    return "\n".join(lines) + "\n"


def blocks_payload(bct):
    nodes = []
    for ci in range(bct.tree.vertex_count):
        if ci in bct.cut_classes:
            nodes.append({"id": ci, "kind": "cut",
                          "vertex": bct.cut_classes[ci]})
        else:
            blk = bct.block_classes[ci]
            nodes.append({"id": ci, "kind": "block",
                          "graph": graph_payload(blk)})
    return {
        "tree_vertices": nodes,
        "tree_edges": bct.tree.edges,
        "blocks": [graph_payload(b) for b in bct.blocks],
        "cut_vertices": list(bct.cuts),
        "family_size": len(bct.family.elements),
    }


def blocks_dot(bct):
    labels = {}
    for ci in range(bct.tree.vertex_count):
        if ci in bct.cut_classes:
            labels[ci] = "cut %d" % bct.cut_classes[ci]
        else:
            blk = bct.block_classes[ci]
            labels[ci] = "block {%s}" % ",".join(map(str, blk.vertices))
    return tree_dot(labels, bct.tree.edges, name="blockcut")


def torso_payload(t):
    return {
        "region": graph_payload(t.z_prime),
        "virtual_edges": [list(e) for e in t.virtual_edges],
        "torso": graph_payload(t.z),
        "witness": graph_payload(t.witness),
    }


def triblocks_payload(tbt):
    nodes = []
    for ci in range(tbt.vertex_count):
        kind = tbt.kinds[ci]
        node = {"id": ci, "kind": kind}
        if ci in tbt.cut_classes:
            node["vertex"] = tbt.cut_classes[ci]
        if ci in tbt.torsos:
            node.update(torso_payload(tbt.torsos[ci]))
        nodes.append(node)
    return {
        "input": graph_payload(tbt.original),
        "reduced": graph_payload(tbt.graph),
        "tree_vertices": nodes,
        "tree_edges": [list(e) for e in tbt.edges],
        "family_size": len(tbt.family.elements),
    }


def triblocks_dot(tbt):
    labels = {}
    for ci in range(tbt.vertex_count):
        if ci in tbt.cut_classes:
            labels[ci] = "%s %d" % (tbt.kinds[ci], tbt.cut_classes[ci])
        else:
            t = tbt.torsos[ci]
            labels[ci] = "%s {%s}" % (tbt.kinds[ci],
                                      ",".join(map(str, t.z.vertices)))
    return tree_dot(labels, tbt.edges, name="triblock")


def planar_payload(res):
    if not res.planar:
        return {"planar": False,
                "witness": graph_payload(res.witness)}
    return {
        "planar": True,
        "rotation": {v: [list(e) for e in around]
                     for v, around in res.embedding.rotation.items()},
        "faces": [list(f) for f in res.faces],
        "face_count": res.face_count,
    }


def autos_payload(group):
    vorbs = sorted({tuple(sorted(group.orbit_of_vertex(v)))
                    for v in group.host.vertices})
    eorbs = sorted({tuple(sorted(group.orbit_of_edge(e)))
                    for e in group.host.edges})
    return {
        "order": group.order,
        "generators": [[perm[v] for v in group.host.vertices]
                       for perm in group.generators],
        "vertex_order": list(group.host.vertices),
        "vertex_orbits": [list(o) for o in vorbs],
        "edge_orbits": [[list(e) for e in o] for o in eorbs],
    }


def quotient_payload(q):
    return {
        "vertex_orbits": [list(o) for o in q.vertex_orbits],
        "edge_orbits": [[list(e) for e in o] for o in q.edge_orbits],
        "edges": [{"from": i, "to": j, "multiplicity": m}
                  for i, j, m in q.edges],
    }


def quotient_dot(q):
    lines = ["graph quotient {"]
    for i, o in enumerate(q.vertex_orbits):
        lines.append('  n%d [label="{%s}"];' % (i, ",".join(map(str, o))))
    for i, j, m in q.edges:
        lines.append('  n%d -- n%d [label="%d"];' % (i, j, m))
    lines.append("}")
    return "\n".join(lines) + "\n"


def cayley_payload(tbl, graph, res):
    out = {
        "order": tbl.order,
        "generators": list(tbl.generators),
        "graph": graph_payload(graph),
        "planar": res.planar,
    }
    if res.planar:
        out["face_count"] = res.face_count
    else:
        out["witness"] = graph_payload(res.witness)
    return out
