"""Planarity by edge addition, in linear time: a rotation or a
Kuratowski subgraph.

`edge_addition` runs the edge-addition embedding of Boyer and Myrvold
("On the cutting edge: simplified O(n) planarity by edge addition",
JGAA 8, 2004) over the graph's palm forest (`graph.PalmForest`), from
the last DFS number to the first, embedding the back edges from each
vertex into the bicomps below it.  If every back edge is embedded, the
bicomps still apart join their cut vertices, the lazy flips are pushed
down the DFS tree, and each vertex's arcs are its rotation.  Otherwise
it stops at the first vertex v whose Walkdown leaves a back edge
unembedded; the bicomp where it stopped then holds a K5 or K3,3
subdivision, which their minors A to E isolate in time linear in the
graph.

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
oriented alike only when isolation reads faces or the embedding is
written out.
"""

from collections import deque
from itertools import accumulate, groupby


def edge_addition(palm):
    """Whether the connected graph whose palm forest is `palm` is
    planar, on the positions that the palm numbers: (rotation, None),
    rotation[i] listing the neighbours of i in cyclic order, when it is,
    and otherwise (None, the edges, as pairs of positions, of a
    subdivision of K5 or K3,3)."""
    order, num = palm.order, palm.num
    n, m = len(order), len(palm.tail)
    par = [num[p] for p in map(palm.parent.__getitem__, order)]
    size = list(map(palm.size.__getitem__, order))
    lowpt = list(map(palm.low1.__getitem__, order))
    least = list(range(n))      # least DFS number a back edge reaches
    src = list(map(num.__getitem__, palm.tail))     # edge k's ends
    dst = list(map(num.__getitem__, palm.head))
    ups = []                    # the back edges
    tgt = [0] * (2 * m)
    tree_arc = [0] * n          # arc into each child from its parent
    flipped = bytearray(2 * m)  # set on a tree arc below a lazy flip
    # ext_v[2x + s], ext_s[2x + s]: the next vertex from x's side s, and
    # its side; each tree edge starts as a singleton bicomp, where the
    # child b and the root copy n + b face each other on both sides
    ext_v = [0] * (4 * n)
    ext_v[0:2 * n:2] = ext_v[1:2 * n:2] = range(n, 2 * n)
    ext_v[2 * n::2] = ext_v[2 * n + 1::2] = range(n)
    ext_s = [1, 0] * (2 * n)

    def join(x, xs, y, ys):     # x's side xs and y's side ys face
        ext_v[2 * x + xs], ext_s[2 * x + xs] = y, ys
        ext_v[2 * y + ys], ext_s[2 * y + ys] = x, xs

    for k, (a, b) in enumerate(zip(src, dst)):
        if a < b:               # tree edge
            tree_arc[b] = 2 * k
            tgt[2 * k], tgt[2 * k + 1] = b, n + b
        else:                   # back edge from a to its ancestor b
            ups.append(k)
            if b < least[a]:
                least[a] = b
    # each vertex's arcs; a root copy's are made when a Walkup first
    # reaches it, as until then they are its tree arc alone
    rot = [deque((a + 1,)) for a in tree_arc] + [None] * n
    for x in palm.roots:        # no parent and no tree arc
        par[num[x]] = -1
        rot[num[x]] = deque()
    # the children of vertex w by lowpoint: kid[kid_from[w]:kid_from[w + 1]]
    kid = sorted(range(1, n), key=lowpt.__getitem__)
    kid.sort(key=par.__getitem__)
    kid_from = [0] * (n + 1)
    for c in kid:
        kid_from[par[c] + 1] += 1
    kid_from = list(accumulate(kid_from))
    first_kid = kid_from[:n]    # w's kids before kid[first_kid[w]] merged
    merged = bytearray(n)
    visited = [-1] * (2 * n)
    flag = [-1] * n             # flag[w] == v: w's back edge to v waits
    flag_edge = [0] * n
    done = bytearray(m)
    roots = [None] * n          # a deque of pertinent child bicomps

    def ext_active(w):
        if least[w] < v:
            return True
        i, end = first_kid[w], kid_from[w + 1]
        while i < end and merged[kid[i]]:
            i += 1
        first_kid[w] = i
        return i < end and lowpt[kid[i]] < v

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
            if rot[r] is None:
                rot[r] = deque((tree_arc[c],))
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
        if not roots[z]:
            roots[z] = None
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
                if not a & 1 and tree_arc[tgt[a]] == a:
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
                d = kid[kid_from[d]]
            return d

        def outward(t):
            # a path from the externally active t to an ancestor of v,
            # which it returns
            if least[t] < v:
                link(t, least[t])
                return least[t]
            ext_active(t)
            c = kid[first_kid[t]]
            d = lowest(c)
            link(t, c)
            climb(d, c)
            link(d, lowpt[c])
            return lowpt[c]

        def to_v(c):                # below c, a back edge to v not embedded
            return next(src[k] for k in mine
                        if not done[k] and c <= src[k] < c + size[c])

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

    # each vertex v with back edges up to it, the last first
    ups.sort(key=dst.__getitem__, reverse=True)
    for v, mine in groupby(ups, dst.__getitem__):
        mine = list(mine)
        todo = []
        for k in mine:
            walkup(src[k], k)
        for r in todo:
            blocked = walkdown(r)
            if blocked is not None:
                return None, isolate(blocked)
        for k in mine:
            if not done[k]:
                d = src[k]
                c = next(c for c in kid[kid_from[v]:kid_from[v + 1]]
                         if c <= d < c + size[c])
                return None, isolate(n + c)
    # planar: each bicomp still apart joins its cut vertex as it is, and
    # a vertex is reversed when the flips on its tree path are odd
    odd = bytearray(n)
    for c in range(1, n):
        p = par[c]
        if not merged[c]:
            arcs = rot[n + c] or (tree_arc[c],)
            for a in arcs:
                tgt[a ^ 1] = p
            rot[p].extend(arcs)
        odd[c] = odd[p] ^ flipped[tree_arc[c]]
    end = list(map(order.__getitem__, tgt))
    rotation = [None] * n
    for u, flip, arcs in zip(order, odd, rot):
        if flip:
            arcs.reverse()
        rotation[u] = list(map(end.__getitem__, arcs))
    return rotation, None
