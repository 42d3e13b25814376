"""Independent checks of `planarblocks` command output.

Nothing here imports `planarblocks`: every check recomputes what it needs
from the input text (DFS lowpoints, brute-force cutsets, closed-form
group orders) or verifies a certificate on its own terms (dart
partitions and Euler's formula for embeddings, branch-vertex tracing for
Kuratowski subdivisions).  Each check returns a list of problems; an
empty list means the output is accepted.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations


def _key(u, v):
    return (u, v) if u <= v else (v, u)


class G:
    """Plain undirected simple graph for the checks."""

    def __init__(self, vertices, edges):
        self.vertices = sorted(set(vertices))
        self.edges = sorted({_key(u, v) for u, v in edges})
        self.adj = {v: set() for v in self.vertices}
        for u, v in self.edges:
            self.adj[u].add(v)
            self.adj[v].add(u)

    @classmethod
    def from_payload(cls, payload):
        return cls(payload["vertices"], [tuple(e) for e in payload["edges"]])

    def degree(self, v):
        return len(self.adj[v])

    def components(self, drop=()):
        drop = set(drop)
        seen = set(drop)
        out = []
        for s in self.vertices:
            if s in seen:
                continue
            comp = {s}
            stack = [s]
            seen.add(s)
            while stack:
                x = stack.pop()
                for y in self.adj[x]:
                    if y not in seen:
                        seen.add(y)
                        comp.add(y)
                        stack.append(y)
            out.append(comp)
        return out

    def connected(self, drop=()):
        return len(self.components(drop)) <= 1


def parse_edge_list(text):
    """The edge-list format: 'u v' lines, '#' comments, 'vertices: n'."""
    vertices, edges = set(), []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("vertices:"):
            vertices.update(range(int(line.split(":", 1)[1])))
            continue
        u, v = map(int, line.split())
        vertices.update((u, v))
        edges.append((u, v))
    return G(vertices, edges)


def lowpoint_blocks(g):
    """(blocks as frozensets of edges, cut vertices) by Hopcroft-Tarjan."""
    index, low, blocks, cuts = {}, {}, set(), set()
    for root in g.vertices:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        frames = [(root, None, iter(sorted(g.adj[root])))]
        stack, children = [], 0
        while frames:
            v, parent, it = frames[-1]
            for w in it:
                if w not in index:
                    index[w] = low[w] = len(index)
                    stack.append(_key(v, w))
                    frames.append((w, v, iter(sorted(g.adj[w]))))
                    children += v == root
                    break
                if w != parent and index[w] < index[v]:
                    stack.append(_key(v, w))
                    low[v] = min(low[v], index[w])
            else:
                frames.pop()
                if not frames:
                    continue
                u = frames[-1][0]
                low[u] = min(low[u], low[v])
                if low[v] >= index[u]:
                    block = set()
                    while True:
                        e = stack.pop()
                        block.add(e)
                        if e == _key(u, v):
                            break
                    blocks.add(frozenset(block))
                    if u != root:
                        cuts.add(u)
        if children >= 2:
            cuts.add(root)
    return blocks, cuts


def is_tree(n, edges):
    """True when `edges` on the nodes 0..n-1 form a tree."""
    if len(edges) != n - 1:
        return False
    return G(range(n), edges).connected() if n else False


def _error_problems(code, out, expect):
    want = expect.get("error")
    if want is None:
        if code != 0 or "error" in out:
            return ["unexpected error: %r" % (out.get("error"),)]
        return []
    got = out.get("error", {}).get("kind")
    if code != 1 or got != want:
        return ["expected error %r, got exit %d kind %r" % (want, code, got)]
    return []


# ------------------------------------------------------------------ blocks

def check_blocks(graph, code, out, expect):
    problems = _error_problems(code, out, expect)
    if problems or "error" in expect:
        return problems
    blocks, cuts = lowpoint_blocks(graph)
    got = {frozenset(tuple(e) for e in b["edges"]) for b in out["blocks"]}
    if got != blocks:
        problems.append("blocks differ from the lowpoint blocks")
    if sorted(out["cut_vertices"]) != sorted(cuts):
        problems.append("cut vertices differ from the lowpoint ones")
    nodes = out["tree_vertices"]
    if [n["id"] for n in nodes] != list(range(len(nodes))):
        problems.append("tree vertex ids are not 0..k-1")
        return problems
    if not is_tree(len(nodes), [tuple(e) for e in out["tree_edges"]]):
        problems.append("block-cut tree is not a tree")
    cut_of = {n["id"]: n["vertex"] for n in nodes if n["kind"] == "cut"}
    block_of = {n["id"]: frozenset(tuple(e) for e in n["graph"]["edges"])
                for n in nodes if n["kind"] == "block"}
    block_vs = {n["id"]: set(G.from_payload(n["graph"]).vertices)
                for n in nodes if n["kind"] == "block"}
    if len(cut_of) + len(block_of) != len(nodes):
        problems.append("tree vertex of unknown kind")
    if sorted(cut_of.values()) != sorted(cuts):
        problems.append("cut tree vertices are not the cut vertices")
    if set(block_of.values()) != blocks or len(block_of) != len(blocks):
        problems.append("block tree vertices are not the blocks")
    degree = Counter()
    for i, j in out["tree_edges"]:
        c, b = (i, j) if i in cut_of else (j, i)
        if c not in cut_of or b not in block_of:
            problems.append("tree edge %d-%d is not cut-block" % (i, j))
        elif cut_of[c] not in block_vs[b]:
            problems.append("tree edge joins cut %d to a block without it"
                            % cut_of[c])
        degree[c] += 1
    for c, v in cut_of.items():
        holding = sum(1 for b in block_vs.values() if v in b)
        if degree[c] != holding:
            problems.append("cut %d meets %d blocks in the tree, %d in the "
                            "graph" % (v, degree[c], holding))
    return problems


# --------------------------------------------------------------- triblocks

def has_small_cutset(g):
    """A cutset of one or two vertices, found by brute force, or None."""
    for size in (1, 2):
        for drop in combinations(g.vertices, size):
            if not g.connected(drop):
                return drop
    return None


def _reduction_problems(graph, reduced):
    """The reduced host must come from the input by suppressing degree-2
    vertices: each of its edges is an input path whose inner vertices are
    gone, and it has no degree-2 vertex left unless it is a cycle."""
    problems = []
    keep = set(reduced.vertices)
    if not keep <= set(graph.vertices):
        return ["reduced host has vertices the input lacks"]
    if not reduced.connected():
        problems.append("reduced host is disconnected")
    is_cycle = all(reduced.degree(v) == 2 for v in reduced.vertices)
    if not is_cycle and any(reduced.degree(v) == 2 for v in reduced.vertices):
        problems.append("reduced host keeps a degree-2 vertex")
    for u, v in reduced.edges:
        seen, stack = {u}, [u]
        while stack and v not in seen:
            x = stack.pop()
            for y in graph.adj[x]:
                if y not in seen and (y == v or y not in keep):
                    seen.add(y)
                    stack.append(y)
        if v not in seen:
            problems.append("reduced edge %d-%d is no suppressed path"
                            % (u, v))
    return problems


def _is_k4(g):
    return len(g.vertices) == 4 and len(g.edges) == 6


def check_triblocks(graph, code, out, expect):
    problems = _error_problems(code, out, expect)
    if problems or "error" in expect:
        return problems
    if G.from_payload(out["input"]).edges != graph.edges:
        problems.append("input payload is not the input graph")
    host = G.from_payload(out["reduced"])
    problems += _reduction_problems(graph, host)
    nodes = out["tree_vertices"]
    if [n["id"] for n in nodes] != list(range(len(nodes))):
        return problems + ["tree vertex ids are not 0..k-1"]
    if not is_tree(len(nodes), [tuple(e) for e in out["tree_edges"]]):
        problems.append("triblock tree is not a tree")
    kinds = Counter(n["kind"] for n in nodes)
    if "kinds" in expect and dict(kinds) != expect["kinds"]:
        problems.append("torso kinds %r, expected %r"
                        % (dict(kinds), expect["kinds"]))
    claimed = Counter()
    k4s = 0
    host_edges = set(host.edges)
    for n in nodes:
        if n["kind"] == "CutPoint":
            v = n["vertex"]
            if v not in host.adj or host.connected((v,)):
                problems.append("CutPoint %r is no cut vertex of the host"
                                % v)
            continue
        region = G.from_payload(n["region"])
        z = G.from_payload(n["torso"])
        virtual = {tuple(e) for e in n["virtual_edges"]}
        claimed.update(region.edges)
        if set(z.edges) != set(region.edges) | virtual \
                or z.vertices != region.vertices:
            problems.append("torso %d is not region plus virtual edges"
                            % n["id"])
        witness = G.from_payload(n["witness"])
        if not set(witness.edges) <= host_edges \
                or not set(witness.vertices) <= set(host.vertices):
            problems.append("witness of torso %d leaves the host" % n["id"])
        if n["kind"] == "Cycle":
            if not z.connected() or any(z.degree(v) != 2 for v in z.vertices):
                problems.append("Cycle torso %d is not a cycle" % n["id"])
        elif n["kind"] == "ThreeConnected":
            if len(z.vertices) >= 5 and (not z.connected()
                                         or has_small_cutset(z)):
                problems.append("ThreeConnected torso %d has a small cutset"
                                % n["id"])
            k4s += _is_k4(z)
        else:
            problems.append("unknown tree vertex kind %r" % n["kind"])
    if set(claimed) != host_edges or any(c > 1 for c in claimed.values()):
        problems.append("torso regions do not partition the host edges")
    if "k4_torsos" in expect and k4s != expect["k4_torsos"]:
        problems.append("%d K4 torsos, expected %d"
                        % (k4s, expect["k4_torsos"]))
    return problems


# ------------------------------------------------------------------ cayley

def check_faces(graph, walks):
    """Walks must be the faces of a sphere embedding of a connected graph:
    each dart used once, one rotation cycle at every vertex, and
    V - E + F = 2."""
    problems = []
    darts = Counter()
    succ = {v: {} for v in graph.vertices}
    for walk in walks:
        k = len(walk)
        for i in range(k):
            u, v, w = walk[i], walk[(i + 1) % k], walk[(i + 2) % k]
            darts[(u, v)] += 1
            if succ[v].setdefault(u, w) != w:
                problems.append("two successors of dart %d-%d" % (u, v))
    want = {(u, v) for e in graph.edges for u, v in (e, e[::-1])}
    if set(darts) != want or any(c != 1 for c in darts.values()):
        problems.append("walks do not use every dart exactly once")
    if sum(len(w) for w in walks) != 2 * len(graph.edges):
        problems.append("face lengths do not sum to 2E")
    for v in graph.vertices:
        seen, x = [], min(graph.adj[v]) if graph.adj[v] else None
        while x is not None and x not in seen:
            seen.append(x)
            x = succ[v].get(x)
        if set(seen) != graph.adj[v] or x != (seen[0] if seen else None):
            problems.append("rotation at %d is not one cycle" % v)
            break
    if len(graph.vertices) - len(graph.edges) + len(walks) != 2:
        problems.append("V - E + F != 2")
    return problems


def kuratowski_kind(graph, witness):
    """'K5' or 'K33' when the witness is a subdivision of one inside
    `graph`, else None."""
    if not set(witness.edges) <= set(graph.edges):
        return None
    degs = Counter(witness.degree(v) for v in witness.vertices)
    branch = [v for v in witness.vertices if witness.degree(v) > 2]
    if set(degs) - {2, 3, 4} or not branch:
        return None
    bset = set(branch)
    links = Counter()
    used = 0
    for b in branch:
        for w in witness.adj[b]:
            prev, cur, length = b, w, 1
            while cur not in bset:
                nxt = [x for x in witness.adj[cur] if x != prev]
                prev, cur, length = cur, nxt[0], length + 1
            if cur == b:
                return None
            links[_key(b, cur)] += 1
            used += length
    if used != 2 * len(witness.edges) or any(c != 2 for c in links.values()):
        return None
    pairs = set(links)
    if len(branch) == 5 and degs[4] == 5 and len(pairs) == 10:
        return "K5"
    if len(branch) == 6 and degs[3] == 6 and len(pairs) == 9:
        side = {branch[0]} | {x for x in branch
                              if _key(branch[0], x) not in pairs
                              and x != branch[0]}
        if len(side) == 3 and all(_key(a, b) not in pairs
                                  for a, b in combinations(side, 2)):
            return "K33"
    return None


def check_cayley(code, out, expect, walks=None):
    """`walks` are the facial walks of the Cayley graph, needed when it is
    planar."""
    problems = _error_problems(code, out, expect)
    if problems or "error" in expect:
        return problems
    graph = G.from_payload(out["graph"])
    if out["order"] != expect["order"]:
        problems.append("order %d, expected %d"
                        % (out["order"], expect["order"]))
    if graph.vertices != list(range(out["order"])):
        problems.append("Cayley graph vertices are not the group elements")
    if not graph.connected():
        problems.append("Cayley graph is disconnected")
    if len({graph.degree(v) for v in graph.vertices}) > 1:
        problems.append("Cayley graph is not regular")
    if "planar" in expect and out["planar"] != expect["planar"]:
        problems.append("planar is %r, expected %r"
                        % (out["planar"], expect["planar"]))
    if out["planar"]:
        if len(graph.vertices) - len(graph.edges) + out["face_count"] != 2:
            problems.append("V - E + F != 2")
        if walks is None:
            problems.append("no facial walks to check")
        else:
            if len(walks) != out["face_count"]:
                problems.append("face count differs from the walks")
            problems += check_faces(graph, walks)
    elif kuratowski_kind(graph, G.from_payload(out["witness"])) is None:
        problems.append("witness is no Kuratowski subdivision")
    return problems
