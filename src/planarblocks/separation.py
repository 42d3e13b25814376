"""Separations: one-sided subgraphs cut off by one or two boundary vertices.

A separation A of a host graph X is a subgraph (va, ea) whose interior
vertices keep every host edge, while each boundary vertex keeps at least
one incident edge inside and at least one outside.  A two-vertex boundary
is a hinge; hinge separations additionally may not be a single edge nor
the whole graph minus one edge, so that complements stay in the class.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import MalformedInput
from .graph import Graph, edge_key


@dataclass(frozen=True)
class Separation:
    host: Graph
    va: frozenset
    ea: frozenset
    boundary: frozenset
    _key: tuple = field(init=False, repr=False, compare=False, hash=False, default=None)

    def __post_init__(self):
        object.__setattr__(
            self, "_key",
            (tuple(sorted(self.va)), tuple(sorted(self.ea)), tuple(sorted(self.boundary))))

    def __hash__(self):
        return hash(self._key)

    def __eq__(self, other):
        return isinstance(other, Separation) and self._key == other._key \
            and self.host == other.host

    @property
    def key(self):
        return self._key

    @property
    def interior(self):
        return self.va - self.boundary

    def sort_key(self):
        return (len(self.ea), self._key[1], self._key[2])

    def subgraph_leq(self, other):
        return self.va <= other.va and self.ea <= other.ea

    def subgraph_eq(self, other):
        return self.va == other.va and self.ea == other.ea


def make_separation(host, va, ea, boundary):
    """Build a Separation after checking every defining invariant."""
    va = frozenset(va)
    ea = frozenset(edge_key(*e) for e in ea)
    boundary = frozenset(boundary)
    if not va <= host.vertex_set:
        raise MalformedInput("va not a subset of host vertices",
                             witness=sorted(va - host.vertex_set))
    if not ea <= host.edge_set:
        raise MalformedInput("ea not a subset of host edges",
                             witness=sorted(ea - host.edge_set))
    if len(boundary) not in (1, 2) or not boundary <= va:
        raise MalformedInput("boundary must be 1 or 2 vertices inside va",
                             witness=sorted(boundary))
    for u, v in ea:
        if u not in va or v not in va:
            raise MalformedInput("edge of ea leaves va", witness=[u, v])
    for w in sorted(va - boundary):
        missing = [e for e in host.incident_edges(w) if e not in ea]
        if missing:
            raise MalformedInput("interior vertex missing incident edges",
                                 witness={"vertex": w, "edges": sorted(missing)})
    for b in sorted(boundary):
        inside = [e for e in host.incident_edges(b) if e in ea]
        outside = [e for e in host.incident_edges(b) if e not in ea]
        if not inside or not outside:
            raise MalformedInput(
                "boundary vertex needs incident edges on both sides",
                witness={"vertex": b, "inside": len(inside), "outside": len(outside)})
    if len(boundary) == 2:
        if len(ea) == 1:
            raise MalformedInput("hinge separation may not be a single edge",
                                 witness=sorted(ea))
        if len(host.edge_set - ea) == 1:
            raise MalformedInput(
                "hinge separation may not be the host minus one edge",
                witness=sorted(host.edge_set - ea))
    return Separation(host, va, ea, boundary)


def component_side(host, boundary, comps, with_edge=False):
    """The side spanned by some components of host - boundary.

    Its vertices are those of the components plus the boundary, its
    edges every host edge among them, except that the edge joining a
    two-vertex boundary is kept only when with_edge.
    """
    va = set(boundary)
    for c in comps:
        va.update(c)
    skip = edge_key(*boundary) if len(boundary) == 2 and not with_edge else None
    ea = [(x, y) for x in va for y in host.neighbors(x)
          if x < y and y in va and (x, y) != skip]
    return make_separation(host, va, ea, boundary)


def separation_complement(a):
    """A*: the other side across the same boundary."""
    va = (a.host.vertex_set - a.va) | a.boundary
    ea = a.host.edge_set - a.ea
    return make_separation(a.host, va, ea, a.boundary)


def pull_back_separation(original, reduced, a):
    """Pull a separation of a reduced graph back to its original graph.

    Every edge of ea expands to the original walk(s) it replaced,
    including branches that collapsed onto it, so interior vertices of
    the result keep all their incident edges and the boundary carries
    over unchanged.
    """
    if a.host != reduced.graph:
        raise MalformedInput("separation does not live on the reduced graph")
    va = set(a.va)
    ea = set()
    for e in a.ea:
        for walk in reduced.all_host_walks(e):
            va.update(walk)
            for i in range(len(walk) - 1):
                ea.add(edge_key(walk[i], walk[i + 1]))
    return make_separation(original, va, ea, a.boundary)
