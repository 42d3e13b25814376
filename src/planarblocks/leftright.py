"""The left-right planarity test on int index arrays.

`left_right` is Brandes' left-right test ("The Left-Right Planarity
Test", 2009, after de Fraysseix, Ossona de Mendez and Rosenstiehl,
"Tremaux trees and planarity", 2006), with the embedding.  Its three
phases are iterative, so a DFS deeper than Python's recursion limit
(a long path or cycle, a large grid) is no problem; the first is the
palm forest of `graph.PalmForest`.  It keeps the adjacency, DFS and
tie-breaking orders of the networkx implementation, so its rotations
are the ones networkx gives.  A graph it refutes gets its Kuratowski
subgraph from `kuratowski`, and `planar` certifies what both return.
"""

from .graph import PalmForest


def edge_order(n, edges):
    """The edges of the graph on 0..n-1 in networkx's edge order: by
    their lesser endpoint, and at each vertex in the order `edges` lists
    its edges.  Adjacency lists appended from this order are the ones
    networkx's left-right test searches.
    """
    later = [[] for _ in range(n)]
    for a, b in edges:
        later[a].append(b)
        later[b].append(a)
    return [(u, w) for u in range(n) for w in later[u] if w > u]


def left_right(n, edges, embed=False):
    """Brandes' left-right planarity test of the simple graph on 0..n-1
    with the given edge pairs: None when it is not planar, otherwise
    True, or with `embed` each vertex's neighbours in clockwise order.

    Three iterative phases over edge ids 0..m-1, numbered as the DFS
    orients them: the arcs of the palm forest.  A tree edge's `lowpt`
    and `lowpt2` are its head's low1 and low2 capped at its tail's DFS
    number, a back edge's its head's and its tail's numbers.  networkx
    counts heights instead, but both order a vertex's ancestors alike,
    so no comparison changes; the nesting depth counts from the number
    of the tree's root, height 0, so signed depths sort alike too.  The
    testing DFS visits each vertex's out-edges by nesting depth and
    merges their return edges on a stack of conflict pairs, each a list
    [left low, left high, right low, right high] of edge ids (None for
    an empty interval), recording for each edge a `ref` edge and the
    `side` (1 or -1) it has relative to it.  The embedding resolves
    `side` along `ref` chains, re-sorts by signed nesting depth, and
    places each back edge at its ancestor, after its `right_ref` (the
    child entered last) or before its `left_ref` (that child, or the
    back edge placed there last).  Each vertex's rotation is a cyclic
    list (`cw`, `ccw`) with a marked first neighbour, as in networkx, so
    the rotation is the one networkx returns.
    """
    if n > 2 and len(edges) > 3 * n - 6:
        return None
    adj = [[] for _ in range(n)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)

    # orientation: the palm forest, its arcs numbered as edge ids
    palm = PalmForest(adj)
    num, parent, low1, low2 = palm.num, palm.parent, palm.low1, palm.low2
    src, dst, roots = palm.tail, palm.head, palm.roots
    base = []       # DFS number -> that of its tree's root, height 0
    for r in roots:
        base += [num[r]] * palm.size[r]
    m = len(src)
    lowpt, lowpt2, nesting = [0] * m, [0] * m, [0] * m
    parent_edge = [-1] * n      # id of the tree edge into a vertex
    out = [[] for _ in range(n)]    # a vertex's out-edges, in DFS order
    for e, (v, w) in enumerate(zip(src, dst)):
        nv = num[v]
        if parent[w] == v:          # tree edge
            parent_edge[w] = e
            low = low1[w] if low1[w] < nv else nv
            second = low2[w] if low2[w] < nv else nv
        else:                       # back edge
            low, second = num[w], nv
        lowpt[e] = low
        lowpt2[e] = second
        nesting[e] = 2 * (low - base[nv]) + (second < nv)
        out[v].append(e)

    # testing
    ordered = [sorted(es, key=nesting.__getitem__) for es in out]
    ref = [None] * m
    side = [1] * m
    lowpt_edge = [None] * m
    bottom = [0] * m            # stack height when an edge was entered
    S = []                      # conflict pairs

    def add_constraints(ei, e):
        P = [None, None, None, None]
        # merge the return edges of ei into P's right interval
        while True:
            Q = S.pop()
            if Q[0] is not None or Q[1] is not None:
                Q = [Q[2], Q[3], Q[0], Q[1]]
                if Q[0] is not None or Q[1] is not None:
                    return False
            if lowpt[Q[2]] > lowpt[e]:
                if P[2] is None and P[3] is None:
                    P[3] = Q[3]
                elif P[2] is not None:
                    ref[P[2]] = Q[3]
                P[2] = Q[2]
            else:           # align
                ref[Q[2]] = lowpt_edge[e]
            if len(S) == bottom[ei]:
                break
        # merge the conflicting return edges of earlier siblings into
        # P's left interval
        low = lowpt[ei]
        while True:
            T = S[-1]
            if not ((T[0] is not None or T[1] is not None)
                    and lowpt[T[1]] > low
                    or (T[2] is not None or T[3] is not None)
                    and lowpt[T[3]] > low):
                break
            Q = S.pop()
            if (Q[2] is not None or Q[3] is not None) and lowpt[Q[3]] > low:
                Q = [Q[2], Q[3], Q[0], Q[1]]
                if (Q[2] is not None or Q[3] is not None) and \
                        lowpt[Q[3]] > low:
                    return False
            if P[2] is not None:
                ref[P[2]] = Q[3]
            if Q[2] is not None:
                P[2] = Q[2]
            if P[0] is None and P[1] is None:
                P[1] = Q[1]
            elif P[0] is not None:
                ref[P[0]] = Q[1]
            P[0] = Q[0]
        if P != [None, None, None, None]:
            S.append(P)
        return True

    def lowest(P):
        if P[0] is None and P[1] is None:
            return lowpt[P[2]]
        if P[2] is None and P[3] is None:
            return lowpt[P[0]]
        return min(lowpt[P[0]], lowpt[P[2]])

    def remove_back_edges(e):
        u = src[e]
        hu = num[u]
        # drop the conflict pairs whose edges all return to u
        while S and lowest(S[-1]) == hu:
            P = S.pop()
            if P[0] is not None:
                side[P[0]] = -1
        if S:
            # trim the back edges ending at u from the next one
            P = S.pop()
            while P[1] is not None and dst[P[1]] == u:
                P[1] = ref[P[1]]
            if P[1] is None and P[0] is not None:     # just emptied
                ref[P[0]] = P[2]
                side[P[0]] = -1
                P[0] = None
            while P[3] is not None and dst[P[3]] == u:
                P[3] = ref[P[3]]
            if P[3] is None and P[2] is not None:     # just emptied
                ref[P[2]] = P[0]
                side[P[2]] = -1
                P[2] = None
            S.append(P)
        # e takes the side of a highest return edge
        if lowpt[e] < hu:
            hl, hr = S[-1][1], S[-1][3]
            ref[e] = hl if hl is not None and (
                hr is None or lowpt[hl] > lowpt[hr]) else hr

    def integrate(v, ei):
        # the return edges of ei, an out-edge of v, join those of the
        # edge into v
        if lowpt[ei] >= num[v]:
            return True
        if ei == ordered[v][0]:
            lowpt_edge[parent_edge[v]] = lowpt_edge[ei]
            return True
        return add_constraints(ei, parent_edge[v])

    for root in roots:
        stack = [(root, iter(ordered[root]))]
        while stack:
            v, todo = stack[-1]
            for ei in todo:
                bottom[ei] = len(S)
                w = dst[ei]
                if parent_edge[w] == ei:        # tree edge
                    stack.append((w, iter(ordered[w])))
                    break
                lowpt_edge[ei] = ei
                S.append([None, None, ei, ei])
                if not integrate(v, ei):
                    return None
            else:
                stack.pop()
                e = parent_edge[v]
                if e >= 0:
                    remove_back_edges(e)
                    if not integrate(src[e], e):
                        return None
    if not embed:
        return True

    # embedding: each edge's side made absolute along its ref chain
    for e in range(m):
        chain = []
        while ref[e] is not None:
            chain.append(e)
            e = ref[e]
        s = side[e]
        for x in reversed(chain):
            s = side[x] = side[x] * s
            ref[x] = None
    signed = [side[e] * nesting[e] for e in range(m)]
    cw = [{} for _ in range(n)]
    ccw = [{} for _ in range(n)]
    first = [None] * n

    def place(v, w, before=None, after=None):
        # w into v's rotation just counterclockwise of `before` (as first
        # neighbour if `before` was) or just clockwise of `after`
        c, a = cw[v], ccw[v]
        if before is None and after is None:
            c[w] = a[w] = first[v] = w
        elif before is not None:
            prev = a[before]
            c[w], a[w] = before, prev
            c[prev] = a[before] = w
            if first[v] == before:
                first[v] = w
        else:
            nxt = c[after]
            c[w], a[w] = nxt, after
            a[nxt] = c[after] = w

    for v in range(n):
        ordered[v] = sorted(out[v], key=signed.__getitem__)
        prev = None
        for e in ordered[v]:
            place(v, dst[e], after=prev)
            prev = dst[e]
    left_ref = [None] * n
    right_ref = [None] * n
    for root in roots:
        stack = [(root, iter(ordered[root]))]
        while stack:
            v, todo = stack[-1]
            for e in todo:
                w = dst[e]
                if parent_edge[w] == e:         # tree edge
                    place(w, v, before=first[w])
                    left_ref[v] = right_ref[v] = w
                    stack.append((w, iter(ordered[w])))
                    break
                if side[e] == 1:
                    place(w, v, after=right_ref[w])
                else:
                    place(w, v, before=left_ref[w])
                    left_ref[w] = v
            else:
                stack.pop()
    rotation = []
    for v in range(n):
        around = []
        w = first[v]
        if w is not None:
            around.append(w)
            x = cw[v][w]
            while x != w:
                around.append(x)
                x = cw[v][x]
        rotation.append(around)
    return rotation
