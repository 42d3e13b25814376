"""A Kuratowski subgraph of a nonplanar graph in linear time.

`kuratowski_edges` runs the edge-addition embedding of Boyer and
Myrvold ("On the cutting edge: simplified O(n) planarity by edge
addition", JGAA 8, 2004) over the graph's palm forest
(`graph.PalmForest`), from the last DFS number to the first, and stops
at the first vertex v whose Walkdown leaves a back edge unembedded.
The bicomp where it stopped then holds a K5 or K3,3 subdivision, which
their minors A to E isolate in time linear in the graph.

While v is processed, a vertex is pertinent when a back edge to v
from it or from below it waits, and externally active when it, or a
child whose bicomp is not merged yet, has a back edge to an ancestor
of v; the Walkdown stops at an externally active vertex that is not
pertinent.

Vertices are DFS numbers; the root copy of v in the bicomp of its
child c is the virtual vertex n + c.  Edge k is the palm arc k, its
arcs 2k (from the tree parent's or the ancestor's side) and 2k + 1.
Each vertex keeps its embedded arcs in a deque whose two ends are its
edges on the external face (sides 0 and 1), and `ext_v`/`ext_s` link
each side to the next vertex on the external face that a short
circuit does not skip, and to the side it enters there.  A bicomp is
flipped lazily: only its root's deque is reversed, and the tree arc
into its child records the flip for the vertices below, which are
oriented alike only when isolation reads faces.
"""

from collections import deque

from .errors import invariant


def kuratowski_edges(palm):
    """The edges, as pairs of positions, of a subdivision of K5 or K3,3
    in the connected nonplanar graph whose palm forest is `palm`."""
    order, num = palm.order, palm.num
    n, m = len(order), len(palm.tail)
    par, size, lowpt = [-1] * n, [0] * n, [0] * n
    for i, x in enumerate(order):
        p = palm.parent[x]
        par[i] = num[p] if p >= 0 else -1
        size[i] = palm.size[x]
        lowpt[i] = palm.low1[x]
    least = list(range(n))      # least DFS number a back edge reaches
    fwd = [[] for _ in range(n)]    # (descendant, edge) of back edges
    tgt = [0] * (2 * m)
    tree = bytearray(m)
    tree_arc = [0] * n          # arc into each child from its parent
    flipped = bytearray(2 * m)  # set on a tree arc below a lazy flip
    rot = [None] * (2 * n)
    ext_v = [0] * (4 * n)       # ext_v[2x + s], ext_s[2x + s]: the next
    ext_s = [0] * (4 * n)       # vertex from x's side s, and its side

    def join(x, xs, y, ys):     # x's side xs and y's side ys face
        ext_v[2 * x + xs], ext_s[2 * x + xs] = y, ys
        ext_v[2 * y + ys], ext_s[2 * y + ys] = x, xs

    for k, (t, h) in enumerate(zip(palm.tail, palm.head)):
        a, b = num[t], num[h]
        if par[b] == a:         # tree edge: a singleton bicomp
            tree[k] = 1
            tree_arc[b] = 2 * k
            r = n + b
            tgt[2 * k], tgt[2 * k + 1] = b, r
            rot[r], rot[b] = deque([2 * k]), deque([2 * k + 1])
            join(r, 0, b, 1)
            join(r, 1, b, 0)
        else:                   # back edge from a to its ancestor b
            tgt[2 * k] = a
            fwd[b].append((a, k))
            if b < least[a]:
                least[a] = b
    kids = [[] for _ in range(n)]   # each vertex's children by lowpoint
    for c in sorted(range(n), key=lowpt.__getitem__):
        if par[c] >= 0:
            kids[par[c]].append(c)
    first_kid = [0] * n         # kids before it are merged
    merged = bytearray(n)
    visited = [-1] * (2 * n)
    flag = [-1] * n             # flag[w] == v: w's back edge to v waits
    flag_edge = [0] * n
    done = bytearray(m)
    roots = [None] * n          # a deque of pertinent child bicomps

    def ext_active(w):
        if least[w] < v:
            return True
        ks, i = kids[w], first_kid[w]
        while i < len(ks) and merged[ks[i]]:
            i += 1
        first_kid[w] = i
        return i < len(ks) and lowpt[ks[i]] < v

    def pertinent(w):
        return flag[w] == v or bool(roots[w])

    def walkup(d, k):
        # mark the bicomp roots between d and v pertinent, walking each
        # external face both ways at once
        flag[d], flag_edge[d] = v, k
        x = y = d
        xs, ys = 1, 0
        while visited[x] != v and visited[y] != v:
            visited[x] = visited[y] = v
            if x >= n:
                r = x
            elif y >= n:
                r = y
            else:
                i = 2 * x + 1 - xs
                x, xs = ext_v[i], ext_s[i]
                i = 2 * y + 1 - ys
                y, ys = ext_v[i], ext_s[i]
                continue
            c = r - n
            p = par[c]
            if p == v:
                todo.append(r)
                return
            if roots[p] is None:
                roots[p] = deque()
            # a bicomp reaching above v goes last: the Walkdown enters
            # the others first, and isolation reads minor B off the end
            if lowpt[c] < v:
                roots[p].append(r)
            else:
                roots[p].appendleft(r)
            x = y = p
            xs, ys = 1, 0

    def merge(z, zs, r, rs):
        # the bicomp of root r joins z, entered from its side zs; the walk
        # leaves r by side rs, so r's other side takes z's side zs, and r
        # is flipped first when that side is zs too
        i = 2 * r + 1 - rs
        join(z, zs, ext_v[i], ext_s[i])
        arcs = rot[r]
        if zs == rs:
            arcs.reverse()
            flipped[tree_arc[r - n]] ^= 1
        for a in arcs:
            tgt[a ^ 1] = z
        if zs:
            rot[z].extend(arcs)
        else:
            rot[z].extendleft(reversed(arcs))
        rot[r] = None
        roots[z].popleft()
        merged[r - n] = True

    def first_active(r, s):
        i = 2 * r + s
        x, xs = ext_v[i], ext_s[i]
        while not pertinent(x) and not ext_active(x):
            i = 2 * x + 1 - xs
            x, xs = ext_v[i], ext_s[i]
        return x, xs

    def walkdown(r):
        # embed the back edges from v into the bicomp of its root copy
        # r along the external face, each way in turn; the root of a
        # descendant bicomp where the walk is blocked, else None
        for s in (0, 1):
            i = 2 * r + s
            w, ws = ext_v[i], ext_s[i]
            stack = []
            while w != r:
                if flag[w] == v:
                    while stack:
                        merge(*stack.pop())
                    k = flag_edge[w]
                    a = 2 * k
                    tgt[a], tgt[a + 1] = w, r
                    if s:
                        rot[r].append(a)
                    else:
                        rot[r].appendleft(a)
                    if ws:
                        rot[w].append(a + 1)
                    else:
                        rot[w].appendleft(a + 1)
                    join(r, s, w, ws)
                    done[k] = 1
                    flag[w] = -1
                if roots[w]:
                    q = roots[w][0]
                    x, xs = first_active(q, 0)
                    y, ys = first_active(q, 1)
                    # towards a vertex that is pertinent and reaches no
                    # higher if either is, else towards a pertinent one
                    if pertinent(x) and not ext_active(x):
                        out = 0
                    elif pertinent(y) and not ext_active(y):
                        out = 1
                    else:
                        out = 0 if pertinent(x) else 1
                    stack.append((w, ws, q, out))
                    w, ws = (x, xs) if out == 0 else (y, ys)
                elif not ext_active(w):
                    i = 2 * w + 1 - ws
                    w, ws = ext_v[i], ext_s[i]
                else:
                    if stack:
                        return stack[-1][2]
                    # a short circuit past the inactive vertices walked
                    join(r, s, w, ws)
                    break
            if w == r:
                break
        return None

    def isolate(r):
        # the Kuratowski subgraph in the bicomp of root r, which v's
        # Walkdown could not finish: minor A when r is no copy of v
        top = par[r - n]
        lists = {}          # deques oriented alike, as lists
        below = [(r, 0)]
        for u, odd in below:        # the list grows behind the scan
            arcs = list(rot[u])
            if odd:
                arcs.reverse()
            lists[u] = arcs
            for a in arcs:
                if not a & 1 and tree[a >> 1]:
                    below.append((tgt[a], odd ^ flipped[a]))
        # the external face from r's side 0 round to its side 1
        ring = [r]
        a = lists[r][0]
        while tgt[a] != r:
            u = tgt[a]
            ring.append(u)
            arcs = lists[u]
            a = arcs[0] if arcs[-1] == a ^ 1 else arcs[-1]
        at = {u: i for i, u in enumerate(ring)}
        big = len(ring)
        live = [i for i in range(1, big)
                if pertinent(ring[i]) or ext_active(ring[i])]
        ix, iy = live[0], live[-1]
        iw = next(i for i in range(ix + 1, iy) if pertinent(ring[i]))
        x, y, w = ring[ix], ring[iy], ring[iw]
        edges = set()

        def link(a, b):
            a = top if a == r else a
            b = top if b == r else b
            edges.add((a, b) if a < b else (b, a))

        def along(i, j):            # the ring from position i to j
            for t in range(i, j):
                link(ring[t], ring[(t + 1) % big])

        def trace(path):
            for a, b in zip(path, path[1:]):
                link(a, b)

        def climb(u, anc):          # the tree path up to an ancestor
            while u != anc:
                link(u, par[u])
                u = par[u]

        def lowest(c):              # below c, a back edge to lowpt[c]
            d = c
            while least[d] != lowpt[c]:
                d = kids[d][0]
            return d

        def outward(t):
            # a path from the externally active t to an ancestor of v,
            # which it returns
            if least[t] < v:
                link(t, least[t])
                return least[t]
            ext_active(t)
            c = kids[t][first_kid[t]]
            d = lowest(c)
            link(t, c)
            climb(d, c)
            link(d, lowpt[c])
            return lowpt[c]

        def to_v(c):                # below c, a back edge to v not embedded
            return next(d for d, k in fwd[v]
                        if not done[k] and c <= d < c + size[c])

        def inward(t):              # a path from the pertinent t to v
            if flag[t] == v:
                link(t, v)
                return
            c = roots[t][0] - n
            d = to_v(c)
            link(t, c)
            climb(d, c)
            link(d, v)

        def finish():
            return [(order[a], order[b]) for a, b in edges]

        if top != v:                                    # minor A
            along(0, big)
            inward(w)
            climb(v, min(outward(x), outward(y)))
            climb(top, v)
            return finish()
        q = roots[w][-1] if roots[w] else None
        if q is not None and lowpt[q - n] < v:          # minor B
            c = q - n
            along(0, big)
            us = [outward(x), outward(y), lowpt[c]]
            d = to_v(c)
            link(d, v)
            climb(d, c)
            d = lowest(c)
            link(d, lowpt[c])
            climb(d, c)
            link(w, c)
            climb(max(us), min(us))
            return finish()
        # the highest x-y path: on the faces at r, from the last vertex
        # of the ring's y side to the first of its x side
        pos = {}
        for arcs in lists.values():
            for i, a in enumerate(arcs):
                pos[a] = i
        near = lists[r]
        walk = []
        for a in reversed(near[1:]):
            while tgt[a] != r:
                u = tgt[a]
                walk.append(u)
                arcs = lists[u]
                a = arcs[(pos[a ^ 1] + 1) % len(arcs)]
        start = 0
        for j, u in enumerate(walk):
            t = at.get(u)
            if t is None:
                continue
            if t < iw:
                break
            start = j
        path, seen = [], {}
        for u in walk[start:j + 1]:     # with the walk's loops cut out
            if u in seen:
                for cut in path[seen[u] + 1:]:
                    del seen[cut]
                del path[seen[u] + 1:]
            else:
                seen[u] = len(path)
                path.append(u)
        a, b = at[path[-1]], at[path[0]]
        # a path from the x-y path's inside up to r: searched from r
        # round the ring and the path, so above the path
        inside = set(path[1:-1])
        reach, queue, z = {r: None}, [r], None
        for u in queue:             # the list grows behind the scan
            for e in lists[u]:
                q = tgt[e]
                if q in inside:
                    up, z = [q, u], q
                    while reach[up[-1]] is not None:
                        up.append(reach[up[-1]])
                    break
                if q not in reach and q not in at and q not in seen:
                    reach[q] = u
                    queue.append(q)
            if z is not None:
                break
        if a < ix or b > iy or z is not None:
            if a < ix:                                  # minor C
                along(0, max(b, iy))
            elif b > iy:
                along(min(a, ix), big)
            else:                                       # minor D
                along(ix, iy)
                trace(up)
            trace(path)
            inward(w)
            climb(v, min(outward(x), outward(y)))
            return finish()
        # minor E: an externally active vertex below the x-y path
        iz = iw if ext_active(w) else next(
            t for t in range(a + 1, b) if t != iw and ext_active(ring[t]))
        if iz != iw:                                    # E1
            if iz < iw:
                along(0, iy)
                other = outward(y)
            else:
                along(ix, big)
                other = outward(x)
            trace(path)
            inward(w)
            climb(v, min(outward(ring[iz]), other))
            return finish()
        us = [outward(x), outward(y), outward(w)]
        high, low = max(us), min(us)
        if a > ix or b < iy:                            # E4
            if a > ix:
                along(0, iw)
                along(b, big)
            else:
                along(0, a)
                along(iw, big)
            climb(high, low)
        else:
            if us.count(high) > 1:                      # K5
                along(0, big)
            elif us[2] == high:                         # E2
                along(0, big)
                climb(v, low)
                return finish()
            elif us[0] == high:                         # E3
                along(ix, iw)
                along(iy, big)
            else:
                along(0, ix)
                along(iw, iy)
            climb(v, low)
        trace(path)
        inward(w)
        return finish()

    for v in range(n - 1, -1, -1):
        todo = []
        for d, k in fwd[v]:
            walkup(d, k)
        for r in todo:
            blocked = walkdown(r)
            if blocked is not None:
                return isolate(blocked)
        for d, k in fwd[v]:
            if not done[k]:
                c = next(c for c in kids[v] if c <= d < c + size[c])
                return isolate(n + c)
    invariant(False, "the edge-addition embedding must fail on a "
              "nonplanar graph")
