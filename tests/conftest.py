import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))

from planarblocks.graph import build_graph, edge_key

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def fixture_path(name):
    return os.path.join(FIXTURES, name)


def g_of(text):
    """Tiny builder: "0-1,1-2" -> graph on the mentioned vertices."""
    es = [tuple(map(int, p.split("-"))) for p in text.split(",")]
    vs = sorted({x for e in es for x in e})
    return build_graph(vs, es)


def complete_graph(n):
    return build_graph(range(n), [(i, j) for i in range(n)
                                  for j in range(i + 1, n)])


def cycle_graph(n):
    return build_graph(range(n), [(i, (i + 1) % n) for i in range(n)])


def path_graph(n):
    return build_graph(range(n), [(i, i + 1) for i in range(n - 1)])


def k4_book(pages):
    """K4 pages sharing the spine edge 0-1."""
    es = [(0, 1)]
    for i in range(pages):
        a, b = 2 + 2 * i, 3 + 2 * i
        es += [(0, a), (0, b), (1, a), (1, b), (a, b)]
    return build_graph(range(2 + 2 * pages), es)


def k4_edge_chain(links):
    """K4s on 2i .. 2i + 3, each sharing an edge with the next."""
    return build_graph(range(2 * links + 2), sorted(
        {(2 * i + a, 2 * i + b) for i in range(links)
         for a in range(4) for b in range(a + 1, 4)}))


def k4_w5_chain(links):
    """K4s and wheels W5 in turn, each glued at its vertex 0 to the last
    vertex of the one before."""
    edges, base = [], 0
    for k in range(links):
        piece = complete_graph(4) if k % 2 == 0 else wheel_graph(5)
        edges += [(base + u, base + v) for u, v in piece.edges]
        base += len(piece.vertices) - 1
    return build_graph(range(base + 1), edges)


def k4_ring(links):
    """`links` copies of K4 less an edge, each joined by one edge to the
    next, around a cycle: copy i holds 4i .. 4i + 3, less the edge from
    4i to 4i + 3, which it joins to 4i + 4."""
    es = []
    for i in range(links):
        a, b, c, d = range(4 * i, 4 * i + 4)
        es += [(a, b), (a, c), (b, c), (b, d), (c, d),
               edge_key(d, (d + 1) % (4 * links))]
    return build_graph(range(4 * links), es)


def grid_graph(rows, cols):
    """The rows x cols grid, vertex r * cols + c at row r, column c."""
    es = [(r * cols + c, r * cols + c + 1)
          for r in range(rows) for c in range(cols - 1)]
    es += [(r * cols + c, (r + 1) * cols + c)
           for r in range(rows - 1) for c in range(cols)]
    return build_graph(range(rows * cols), es)


def crossed_grid(r):
    """The r x r grid plus the chords 0 - (n - 1) and (r - 1) - (n - r)
    joining opposite corners: one nonplanar block, no vertex of degree
    below 2."""
    n = r * r
    g = grid_graph(r, r)
    return build_graph(range(n), g.edges + ((0, n - 1), (r - 1, n - r)))


def wheel_graph(n):
    """Hub 0 plus a rim cycle on 1..n-1 (n vertices total)."""
    rim = [(i, i % (n - 1) + 1) for i in range(1, n)]
    return build_graph(range(n), [(0, i) for i in range(1, n)] + rim)


@pytest.fixture
def k4():
    return complete_graph(4)


@pytest.fixture
def k4e():
    return g_of("0-1,0-2,0-3,1-2,1-3")


@pytest.fixture
def k5():
    return complete_graph(5)


@pytest.fixture
def k33():
    return build_graph(range(6), [(i, j) for i in range(3) for j in range(3, 6)])


@pytest.fixture
def q3():
    return g_of("0-1,1-2,2-3,3-0,4-5,5-6,6-7,7-4,0-4,1-5,2-6,3-7")


@pytest.fixture
def c6():
    return cycle_graph(6)


@pytest.fixture
def c5_chord():
    return g_of("0-1,1-2,2-3,3-4,4-0,0-2")


@pytest.fixture
def c6_chord():
    return g_of("0-1,1-2,2-3,3-4,4-5,5-0,0-3")


@pytest.fixture
def grid3x3():
    return g_of("0-1,1-2,3-4,4-5,6-7,7-8,0-3,3-6,1-4,4-7,2-5,5-8")


@pytest.fixture
def prism():
    return g_of("0-1,1-2,2-0,3-4,4-5,5-3,0-3,1-4,2-5")


@pytest.fixture
def octahedron():
    return g_of("0-1,0-2,0-3,0-4,1-2,2-3,3-4,4-1,5-1,5-2,5-3,5-4")


@pytest.fixture
def bowtie():
    return g_of("0-1,0-2,1-2,0-3,0-4,3-4")


@pytest.fixture
def bowtie_k4s():
    """Two 4-cliques sharing vertex 0."""
    return g_of("0-1,0-2,0-3,1-2,1-3,2-3,0-4,0-5,0-6,4-5,4-6,5-6")


@pytest.fixture
def book_k4():
    """Two 4-cliques sharing the edge 0-1, plus one hanging at vertex 2."""
    return g_of("0-1,0-2,0-3,1-2,1-3,2-3,0-4,0-5,1-4,1-5,4-5,"
                "2-6,2-7,2-8,6-7,6-8,7-8")


@pytest.fixture
def twosquares():
    """Two 4-cycles sharing the edge 0-1 (a theta graph)."""
    return g_of("0-1,0-2,2-3,3-1,0-4,4-5,5-1")


@pytest.fixture
def caterpillar7():
    """A 7-vertex tree with trivial automorphism group."""
    return g_of("0-1,1-2,2-3,3-4,1-5,5-6")
