"""Group presentations in surface form, coset enumeration, and Cayley
graphs.

A presentation is its generators and one tuple of relators w^n, each a
(word, exponent) pair, in the order the enumeration scans them.  The
surface form has generators a_i, b_i (handle pairs), e_j (cone
generators with exponents m_j >= 2) and f_k (boundary generators), and
relators e_j^m_j, then optional extra relators w_t^{n_t}, then the
surface word [a1,b1]...[ap,bp] e1...er f1...fs.

Before any table is built, two certificates can prove the group
infinite, at a cost independent of the coset limit: a signature (p; m;
s) whose orbifold Euler characteristic 2 - 2p - s - sum(1 - 1/m_j) is
at most 0 (`euler_characteristic`), read from a surface presentation
with no extra relators or from a triangle presentation
<x, y | x^l, y^m, (x*y)^n>, with any signs on x and y in the last
relator (`surface_signature`), and any presentation
whose abelianisation has a free part (`free_abelian_rank`).

Enumeration is HLT coset enumeration over the trivial subgroup (Holt,
Eick & O'Brien, Handbook of Computational Group Theory, 2005, ch. 5):
each relator w^n is walked from each live coset in turn as n copies of
w, defining cosets along it, and coincidences are merged after it
closes.  A walk back at its start after k copies skips whole multiples
of k, so a^300000000 costs its cosets, not its letters, and w^n is not
scanned from a coset known to close it, so Z_n, or D_n spelled with
(a*b)^n, costs O(n), not O(n^2).  The finished table is standardized by
breadth-first renumbering so that equal presentations always yield the
identical table, and certified by tracing every relator w^n from every
element at once: the permutation of w, one list per letter
(`GroupTable.trace_word`), raised to the n-th power by repeated squaring
(`GroupTable.trace_power`).

A planar Cayley graph is usually embedded by its group: a rotation at
the identity, repeated at every element and mirrored where a character
G -> {+1, -1} says so, is tried in every cyclic order, with its faces
counted on words (`equivariant_rotation`).  Only when none has Euler's
face count does `planar.planarity_test`, the left-right test, decide.
"""

import math
import re
from itertools import permutations
from operator import eq

from .errors import (DEFAULT_COSET_LIMIT, BadExponent, InvariantViolated,
                     MalformedInput, Overflow, TooLarge, invariant, to_int)
from .graph import Graph

# letters a word in a relator may spell out once its powers are expanded
MAX_WORD_LETTERS = 2 ** 20


# A word is a tuple of letters (generator name, +1 or -1).


def invert_word(w):
    return tuple((s, -p) for s, p in reversed(w))


class Presentation:
    """Generators and relators; two presentations are equal when both
    tuples are."""

    def __init__(self, generators, relators):
        self.generators = generators    # symbol names, in declaration order
        self.relators = relators        # (word, exponent >= 1), in scan order
        names = set(generators)
        if len(names) != len(generators):
            raise MalformedInput("repeated generator name",
                                 witness=generators)
        for w, n in relators:
            if n < 1:
                raise BadExponent("relator exponent must be positive",
                                  witness={"word": w, "exponent": n})
            if not w:
                raise MalformedInput("empty relator word")
            if any(a == b and p == -q for (a, p), (b, q) in zip(w, w[1:])):
                raise MalformedInput("relator word is not reduced", witness=w)
            for s, p in w:
                if s not in names or p not in (1, -1):
                    raise MalformedInput("bad letter in relator",
                                         witness=(s, p))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.generators == other.generators
                and self.relators == other.relators)

    def __hash__(self):
        return hash((self.generators, self.relators))


def surface_presentation(p, m, s, extras=()):
    """Presentation with p handle pairs, cone exponents m and s boundary
    generators: the relators e_j^m_j, the extra relators (word, exponent),
    then the surface word, left out when it is empty."""
    if p < 0 or s < 0:
        raise MalformedInput("counts must be non-negative", witness=(p, s))
    handles = [("a%d" % i, "b%d" % i) for i in range(1, p + 1)]
    cone = ["e%d" % j for j in range(1, len(m) + 1)]
    bound = ["f%d" % k for k in range(1, s + 1)]
    rels = []
    for e, mj in zip(cone, m):
        if mj < 2:
            raise BadExponent("power relator exponent must be at least 2",
                              witness={"generator": e, "exponent": mj})
        rels.append((((e, 1),), mj))
    rels += extras
    word = [x for a, b in handles for x in ((a, 1), (b, 1), (a, -1), (b, -1))]
    word += [(x, 1) for x in cone + bound]
    if word:
        rels.append((tuple(word), 1))
    gens = [x for pair in handles for x in pair] + cone + bound
    return Presentation(tuple(gens), tuple(rels))


_ATOM = re.compile(r"^(?:\(([^()]+)\)|([A-Za-z]\w*))(?:\^(-?\d+))?$")


def _parse_word(text):
    """The letters of a word such as a*b^-2, its powers summed first and
    refused as TooLarge past MAX_WORD_LETTERS before any is spelled out."""
    powers = []
    for piece in text.split("*"):
        piece = piece.strip()
        mm = re.fullmatch(r"([A-Za-z]\w*)(?:\^(-?\d+))?", piece)
        if not mm:
            raise MalformedInput("cannot parse word", witness=text)
        name, exp = mm.group(1), to_int(mm.group(2) or "1")
        if exp == 0:
            raise MalformedInput("zero exponent in word", witness=piece)
        powers.append((name, exp))
    letters = sum(abs(exp) for _, exp in powers)
    if letters > MAX_WORD_LETTERS:
        raise TooLarge("word has too many letters",
                       witness={"letters": letters, "limit": MAX_WORD_LETTERS})
    return tuple(x for name, exp in powers
                 for x in [(name, 1 if exp > 0 else -1)] * abs(exp))


def _parse_relator(tok):
    """One relator token: name, name^n, (word)^n, or a bare word such as
    a*b^-1, which has exponent 1 -> (word, exponent)."""
    mm = _ATOM.match(tok.strip())
    if not mm:
        try:
            return _parse_word(tok), 1
        except MalformedInput:
            raise MalformedInput("cannot parse relator", witness=tok) from None
    inner, name, exp = mm.groups()
    n = to_int(exp) if exp is not None else 1
    word = _parse_word(inner) if inner is not None else ((name, 1),)
    if n < 0:
        word, n = invert_word(word), -n
    return word, n


def parse_presentation(text):
    """Parse the presentation exchange format.

    Either `gens: a b` / `rels: a^2, b^3, (a*b)^3` sections (newline or
    ';' separated), or the shorthand `surface(p, [m...], s)`, which may
    be followed by a rels section adding extra relators.
    """
    gens = None
    rels = []
    base = None
    parts = []
    for raw in text.replace(";", "\n").splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            parts.append(line)
    for line in parts:
        if line.startswith("surface(") and line.endswith(")"):
            if base is not None or gens is not None:
                raise MalformedInput("conflicting presentation sections",
                                     witness=line)
            body = line[len("surface("):-1]
            mm = re.fullmatch(
                r"\s*(\d+)\s*,\s*\[([\d\s,]*)\]\s*,\s*(\d+)\s*", body)
            # an empty list is no cone point; an empty entry is refused
            inner = mm and mm.group(2).strip()
            ms = [x.strip() for x in inner.split(",")] if inner else []
            if not mm or not all(map(str.isdecimal, ms)):
                raise MalformedInput("cannot parse surface shorthand",
                                     witness=line)
            base = (to_int(mm.group(1)), tuple(map(to_int, ms)),
                    to_int(mm.group(3)))
        elif line.startswith("gens:"):
            if gens is not None or base is not None:
                raise MalformedInput("conflicting presentation sections",
                                     witness=line)
            gens = tuple(line[len("gens:"):].split())
            if not gens:
                raise MalformedInput("no generators declared")
        elif line.startswith("rels:"):
            body = line[len("rels:"):].strip()
            if body:
                rels += [_parse_relator(t) for t in body.split(",")]
        else:
            raise MalformedInput("unrecognized presentation line",
                                 witness=line)
    if base is not None:
        return surface_presentation(base[0], base[1], base[2], extras=rels)
    if gens is None:
        raise MalformedInput("presentation needs gens: or surface(...)")
    # plain form: positive powers of single letters are scanned first,
    # the rest in input order
    rels.sort(key=lambda r: not (len(r[0]) == 1 and r[0][0][1] == 1
                                 and r[1] >= 2))
    return Presentation(tuple(gens), tuple(rels))


class GroupTable:
    """A permutation table of a finite group on its elements; two tables
    are equal when their order, generators and images are."""

    identity = 0    # elements are numbered from the identity

    def __init__(self, order, generators, images):
        self.order = order
        self.generators = generators
        self.images = images    # generator s -> the list whose entry g is g.s
        # letter -> list whose entry g is g.letter
        self._perms = perms = {}
        for s in generators:
            image = images[s]
            invariant(sorted(image) == list(range(order)),
                      "generator must act as a permutation",
                      witness={"generator": s})
            inverse = [0] * order
            for g, h in enumerate(image):
                inverse[h] = g
            perms[(s, 1)] = image
            perms[(s, -1)] = inverse

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.order == other.order
                and self.generators == other.generators
                and self.images == other.images)

    def perm(self, letter):
        """The list whose entry g is g.letter; callers must not write it."""
        return self._perms[letter]

    def trace_word(self, word):
        """The list whose entry g is g.word, one list pass per letter."""
        cur = list(range(self.order))
        for letter in word:
            p = self._perms[letter]
            cur = [p[x] for x in cur]
        return cur

    def trace_power(self, word, n):
        """The list whose entry g is g.word^n, by repeated squaring of
        the trace of word: O(len(word) + log n) list passes."""
        base = self.trace_word(word)
        cur = list(range(self.order))
        while True:
            if n & 1:
                cur = [base[x] for x in cur]
            n >>= 1
            if not n:
                return cur
            base = [base[x] for x in base]


def surface_signature(pr):
    """(p, m, s) when pr is `surface_presentation(p, m, s)` with no extra
    relators, or (0, (l, m, n), 0) when it is the triangle presentation
    <x, y | x^l, y^m, (x^i*y^j)^n>, l, m, n >= 2, i, j in {1, -1}, in any
    relator order and with (y^j*x^i)^n as well; else None.  Inverting
    a generator is an automorphism of the free group that keeps the
    normal closure of x^l, and (y*x)^n is conjugate to (x*y)^n, so every
    such spelling presents the same group."""
    rels = pr.relators
    if len(pr.generators) == 2 and len(rels) == 3:
        x, y = pr.generators
        exponent = dict(rels)
        cone = [exponent.get(((x, 1),)), exponent.get(((y, 1),))]
        cone += [n for w, n in rels
                 if len(w) == 2 and {w[0][0], w[1][0]} == {x, y}]
        if len(cone) == 3 and None not in cone and min(cone) >= 2:
            return 0, tuple(cone), 0
    if not rels or rels[-1][1] != 1:
        return None
    p = sum(sign < 0 for _, sign in rels[-1][0]) // 2
    m = tuple(mj for _, mj in rels[:-1])
    s = len(pr.generators) - 2 * p - len(m)
    if s < 0 or min(m, default=2) < 2 or surface_presentation(p, m, s) != pr:
        return None
    return p, m, s


def euler_characteristic(p, m, s):
    """The orbifold Euler characteristic 2 - 2p - s - sum(1 - 1/m_j) of
    the signature (p; m; s), as a reduced fraction (numerator,
    denominator > 0).  Its group is finite exactly when it is positive
    (Zieschang, Vogt & Coldewey, Surfaces and Planar Discontinuous
    Groups, 1980)."""
    den = math.lcm(*m)
    num = (2 - 2 * p - s - len(m)) * den + sum(den // mj for mj in m)
    g = math.gcd(num, den)
    return num // g, den // g


def free_abelian_rank(pr):
    """The rank of the free part of pr's abelianisation: the number of
    generators less the rank over Q of the relators' exponent-sum
    matrix.  When it is positive the group maps onto Z, so it is
    infinite.

    The rank comes from fraction-free (Bareiss) elimination: after k
    pivots every entry below them is a (k+1)-minor of the matrix, so the
    division by the previous pivot is exact and entries stay integers.
    """
    col = {s: i for i, s in enumerate(pr.generators)}
    rows = []
    for w, n in pr.relators:
        row = [0] * len(col)
        for s, p in w:
            row[col[s]] += p * n
        rows.append(row)
    rank, prev = 0, 1
    for c in range(len(col)):
        i = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if i is None:
            continue
        top = rows[i]
        rows[i], rows[rank] = rows[rank], top
        for k in range(rank + 1, len(rows)):
            r = rows[k]
            rows[k] = [(top[c] * x - r[c] * y) // prev
                       for x, y in zip(r, top)]
        prev = top[c]
        rank += 1
    return len(col) - rank


def coset_enumerate(pr, limit=DEFAULT_COSET_LIMIT):
    """Enumerate the group of pr over the trivial subgroup.

    Completes with a GroupTable when the group is finite with order at
    most `limit`; raises Overflow otherwise.  Two certificates run before
    any table is built, and each proves the group infinite at a cost
    that does not depend on `limit`: a signature read by
    `surface_signature` whose orbifold Euler characteristic is at most 0
    (witness `euler_characteristic`, a reduced fraction such as "-1/42"
    or "0"), and then any presentation whose abelianisation has a free
    part (witness `free_abelian_rank`).  Past them, Overflow only
    reports the search bound: the working table may transiently hold
    more cosets than the final order, so the hard definition cap is
    2*limit + 32 (witness `defined`), and a finished table larger than
    `limit` is refused (witness `order`).
    """
    if limit < 1:
        raise MalformedInput("limit must be positive", witness=limit)
    signature = surface_signature(pr)
    if signature is not None:
        num, den = euler_characteristic(*signature)
        if num <= 0:
            raise Overflow("group is infinite", witness={
                "limit": limit,
                "euler_characteristic": (str(num) if den == 1
                                         else "%d/%d" % (num, den))})
    rank = free_abelian_rank(pr)
    if rank:
        raise Overflow("group is infinite",
                       witness={"free_abelian_rank": rank, "limit": limit})
    gens = pr.generators
    nsym = 2 * len(gens)
    code = {(s, p): 2 * i + (p < 0) for i, s in enumerate(gens)
            for p in (1, -1)}
    # w^n is walked as n - 1 whole copies of its primitive root w and one
    # copy less its last letter, never spelled out; a power, n >= 2, also
    # carries the set of cosets known to close it (see the scan below)
    relators = []
    for w, n in pr.relators:
        root = [code[l] for l in w]
        for d in range(1, len(root)):
            if len(root) % d == 0 and root == root[:d] * (len(root) // d):
                root, n = root[:d], n * (len(root) // d)
                break
        relators.append((root, root[:-1], root[-1], n - 1,
                         set() if n >= 2 else None))
    closed_sets = [closed for *_, closed in relators if closed is not None]

    cap = 2 * limit + 32
    # table[a][s] is a coset, possibly one merged away since it was
    # written; parent[a] == a exactly when coset a is live
    table = [[None] * nsym]
    parent = [0]
    pending = []

    def find(a):
        root = a
        while parent[root] != root:
            root = parent[root]
        while parent[a] != root:
            parent[a], a = root, parent[a]
        return root

    # HLT: scan every relator from each live coset in turn, defining
    # cosets along it; no merge happens mid-scan, so the scan reads the
    # table directly and resolves only entries that point at a coset
    # merged away by an earlier coincidence.  A walk along w^n back at
    # alpha after k whole copies of w would only repeat them, so it
    # skips whole multiples of k: they define and merge nothing.
    #
    # A scan of w^n that closes with no coincidence leaves c.w^n = c in
    # the table for every coset c at a w-boundary of its walk.  Merging
    # never erases a live coset's entry and hands a merged coset's
    # entries to its survivor, so c keeps it, and a survivor inherits
    # it.  A scan of w^n from c would define nothing and close where it
    # began, so it is skipped, and definitions keep their order.
    for alpha, alpha_row in enumerate(table):   # runs on as table grows
        if parent[alpha] != alpha:
            continue
        for root, head, last, whole, closed in relators:
            if closed is not None and alpha in closed:
                continue
            cur, left = alpha, whole    # left: whole copies still to walk
            while True:
                for s in (root if left else head):
                    row = table[cur]
                    nxt = row[s]
                    if nxt is None:
                        nxt = row[s] = len(table)
                        if nxt >= cap:
                            raise Overflow("coset limit exceeded", witness={
                                "limit": limit, "defined": nxt})
                        table.append([None] * nsym)
                        table[nxt][s ^ 1] = cur
                        parent.append(nxt)
                    elif parent[nxt] != nxt:
                        nxt = row[s] = find(nxt)
                    cur = nxt
                if not left:
                    break
                left -= 1
                if cur == alpha:
                    left %= whole - left
            # the last letter closes the walk at alpha: cur.last = alpha
            row = table[cur]
            t = row[last]
            if t is not None and parent[t] != t:
                t = row[last] = find(t)
            if t is None:
                row[last] = alpha
                row = table[alpha]
                t = row[last ^ 1]
                if t is not None and parent[t] != t:
                    t = row[last ^ 1] = find(t)
                if t is None:
                    row[last ^ 1] = cur
                elif t != cur:
                    pending.append((t, cur))
            elif t != alpha:
                pending.append((t, alpha))
            if not pending and closed is not None:
                cur = alpha
                while True:
                    closed.add(cur)
                    for s in root:
                        cur = table[cur][s]
                    if cur == alpha:
                        break
            # merge the coincidences, last in first out: the smaller
            # coset survives and takes over the entries of the other
            while pending:
                a, b = pending.pop()
                a, b = find(a), find(b)
                if a == b:
                    continue
                if a > b:
                    a, b = b, a
                parent[b] = a
                for closed_set in closed_sets:
                    if b in closed_set:
                        closed_set.add(a)
                keep = table[a]
                for s, v in enumerate(table[b]):
                    if v is None:
                        continue
                    if parent[v] != v:
                        v = find(v)
                    u = keep[s]
                    if u is not None and parent[u] != u:
                        u = keep[s] = find(u)
                    if u is None:
                        keep[s] = v
                        row = table[v]
                        t = row[s ^ 1]
                        if t is not None and parent[t] != t:
                            t = row[s ^ 1] = find(t)
                        if t is None:
                            row[s ^ 1] = a
                        elif t != a:
                            pending.append((t, a))
                    elif u != v:
                        pending.append((u, v))
            if parent[alpha] != alpha:
                break
        else:
            for s in range(nsym):
                if alpha_row[s] is None:
                    b = alpha_row[s] = len(table)
                    if b >= cap:
                        raise Overflow("coset limit exceeded", witness={
                            "limit": limit, "defined": b})
                    table.append([None] * nsym)
                    table[b][s ^ 1] = alpha
                    parent.append(b)

    live = sum(map(eq, parent, range(len(parent))))
    if live > limit:
        raise Overflow("group order exceeds limit",
                       witness={"limit": limit, "order": live})

    # breadth-first standardization from the identity coset
    label = [0] + [None] * (len(table) - 1)
    order_of = [0]
    for a in order_of:
        row = table[a]
        if None in row:
            raise InvariantViolated("finished table must be complete",
                                    witness={"coset": label[a]})
        for s, b in enumerate(row):
            if parent[b] != b:
                b = row[s] = find(b)
            if label[b] is None:
                label[b] = len(order_of)
                order_of.append(b)
    invariant(len(order_of) == live, "table must be connected",
              witness={"reached": len(order_of), "live": live})

    images = {s: [label[table[a][2 * i]] for a in order_of]
              for i, s in enumerate(gens)}
    tbl = GroupTable(live, gens, images)
    check_relators(tbl, pr)
    return tbl


def check_relators(tbl, pr):
    """Certificate: every relator w^n traces to the identity at every
    element of the table.  Raises InvariantViolated naming the first
    relator (its index in `pr.relators`) that does not."""
    identity = list(range(tbl.order))
    for i, (w, n) in enumerate(pr.relators):
        invariant(tbl.trace_power(w, n) == identity,
                  "relators must trace to the identity everywhere",
                  witness={"relator": i})


def cayley_graph(tbl, pr):
    """Cayley graph of the table on the presentation's generators.

    One undirected edge {g, g.x} per generator x; an involution thus
    contributes a single edge, and generators acting identically
    collapse (the graph is simple).  Generators equal to the identity
    would be loops and are skipped.
    """
    n = tbl.order
    keys = set()    # the edge (g, h), g < h, as the int g*n + h
    for s in tbl.generators:
        keys.update([g * n + h if g < h else h * n + g
                     for g, h in enumerate(tbl.perm((s, 1))) if g != h])
    return Graph(tuple(range(n)), tuple(divmod(k, n) for k in sorted(keys)))


# Letter darts at the identity past which `equivariant_rotation` gives
# up.  With d of them it tries (d-1)! cyclic orders for each of at most
# 2^d characters, each order one walk over 2d states plus the orders of
# its face words, cached per element.  At d = 6 Z_10^3 (960 candidates)
# is refused in about 24 ms, and `planarity_test` then refutes it in
# about 7 ms; at d = 7 there would be 720 orders per character.
MAX_ROTATION_LETTERS = 6


def _character(tbl, negated):
    """The list of eps(g) for the homomorphism eps: G -> {1, -1} that
    sends the generators in `negated` to -1 and the others to 1, or None
    when propagating these signs over the table is inconsistent."""
    cols = [(tbl.perm((s, 1)), -1 if s in negated else 1)
            for s in tbl.generators]
    eps = [0] * tbl.order
    eps[tbl.identity] = 1
    frontier = [tbl.identity]
    for g in frontier:
        for col, flip in cols:
            h, sign = col[g], eps[g] * flip
            if not eps[h]:
                eps[h] = sign
                frontier.append(h)
            elif eps[h] != sign:
                return None
    return eps


def rotation_candidates(tbl):
    """(face count, eps, ring) for each rotation tried, in order: each
    character eps, trivial first, with each cyclic order `ring` of the
    letters (s and s^-1 per generator s, s alone for an involution) that
    starts with the first one.  None are tried when two letters reach
    the same neighbour, or when there are none or over the bound.

    The rotation at g lists g.x over the x of `ring`, mirrored where
    eps(g) = -1.  The face after dart (g, x) leaves g.x by the letter
    after x^-1 there, so it depends only on x and eps(g), and a cycle of
    that map on (letter, eps) states, read as a word w and entered at
    eps = sigma, closes |{g : eps(g) = sigma}| / ord(w) faces.
    """
    e = tbl.identity
    letters = []
    for s in tbl.generators:
        h, k = tbl.perm((s, 1))[e], tbl.perm((s, -1))[e]
        letters += [(s, 1)] * (h != e) + [(s, -1)] * (k != h)
    if len({tbl.perm(x)[e] for x in letters}) < len(letters) or \
            not 0 < len(letters) <= MAX_ROTATION_LETTERS:
        return
    inverse = {(s, p): (s, -p) if (s, -p) in letters else (s, p)
               for s, p in letters}
    orders = {}  # element -> its order, shared by every candidate

    def order_of(word):
        cols = [tbl.perm(x) for x in word]
        h = e
        for col in cols:
            h = col[h]
        if h not in orders:
            g, n = h, 1
            while g != e:
                for col in cols:
                    g = col[g]
                n += 1
            orders[h] = n
        return orders[h]

    gens = list(dict.fromkeys(s for s, _ in letters))
    for mask in range(1 << len(gens)):
        eps = _character(tbl, {s for i, s in enumerate(gens) if mask >> i & 1})
        if eps is None:
            continue
        sign = {x: eps[tbl.perm(x)[e]] for x in letters}
        count = {1: eps.count(1), -1: eps.count(-1)}
        for rest in permutations(letters[1:]):
            ring = (letters[0],) + rest
            pos = {x: i for i, x in enumerate(ring)}
            seen, faces = set(), 0
            for start in [(x, sigma) for x in ring for sigma in (1, -1)]:
                if start in seen:
                    continue
                word, (x, sigma) = [], start
                while (x, sigma) not in seen:
                    seen.add((x, sigma))
                    word.append(x)
                    sigma *= sign[x]
                    x = ring[(pos[inverse[x]] + sigma) % len(ring)]
                if count[start[1]]:
                    faces += count[start[1]] // order_of(word)
            yield faces, eps, ring


def equivariant_rotation(tbl):
    """The vertex -> neighbour order of the first of `rotation_candidates`
    with 2 - |V| + |E| faces, a sphere embedding of the Cayley graph that
    every left translation preserves or mirrors; callers certify it with
    `planar.certify_embedding`.  None leaves the graph to
    `planar.planarity_test`."""
    if tbl.order == 1:      # no letters: one vertex, and its one face
        return {tbl.identity: []}
    for faces, eps, ring in rotation_candidates(tbl):
        if faces == 2 - tbl.order + tbl.order * len(ring) // 2:
            rows = zip(*[tbl.perm(x) for x in ring])
            return {g: list(row[::eps[g]]) for g, row in enumerate(rows)}
    return None
