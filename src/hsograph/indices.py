"""Degree-based indices: hyperbolic Sombor (HSO) and Sombor (SO).

HSO sums sqrt(du^2 + dv^2) / min(du, dv) over edges; SO drops the divisor.
One pass over a graph's edges reads each edge's term from a memo keyed by
its sorted end-degree pair; HSO and SO are math.fsum over those terms, so
closed-form comparisons are not polluted by accumulation error.  HSO, SO
and the distinct pairs stay memoized on the graph for every checker.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import cached_property, lru_cache
from operator import itemgetter

from .graph import Graph

SQRT2 = math.sqrt(2.0)
SQRT5 = math.sqrt(5.0)


class DomainViolationError(ValueError):
    """Arguments outside the domain a formula or statement is stated over:
    a degree, an order or a graph class."""


class EdgeTerm(namedtuple("EdgeTerm", "u v du dv value")):
    """One edge's HSO contribution together with its endpoint degrees."""

    __slots__ = ()


class IndexValue(namedtuple("IndexValue", "hso so graph")):
    """HSO and SO of one graph.  The per-edge breakdown is built from the
    graph the first time per_edge is read, so the checking path never
    allocates one object per edge.  The repr leaves the graph out."""

    def __repr__(self):
        return f"IndexValue(hso={self.hso!r}, so={self.so!r})"

    @cached_property
    def per_edge(self) -> tuple[EdgeTerm, ...]:
        """One EdgeTerm per edge, in Graph.edges() order."""
        degs = self.graph.degrees
        return tuple(EdgeTerm(u, v, degs[u], degs[v], edge_term(degs[u], degs[v]))
                     for u, v in self.graph.edges())


def edge_term(du: int, dv: int) -> float:
    """sqrt(du^2 + dv^2) / min(du, dv); symmetric in its arguments."""
    if du < 1 or dv < 1:
        raise DomainViolationError("an edge endpoint cannot have degree zero")
    return _pair_term(du, dv)[1]


@lru_cache(maxsize=None)
def _pair_term(du: int, dv: int) -> tuple[tuple[int, int], float, float]:
    """((lo, hi), HSO term, SO root) of an edge with end degrees du and dv,
    sorted as lo <= hi: root = sqrt(lo^2 + hi^2) and the term root / lo.
    Memoized for the process, so every graph with this pair holds the one
    (lo, hi) tuple."""
    if du > dv:
        return _pair_term(dv, du)
    root = math.sqrt(du * du + dv * dv)
    return (du, dv), root / du, root


def hso(g: Graph) -> IndexValue:
    """HSO and SO of g, computed on the first call for g and memoized on it
    (an IndexValue would hold g and make a cycle)."""
    return IndexValue(*_profile(g)[:2], g)


def _profile(g: Graph) -> tuple[float, float, tuple[tuple[int, int], ...]]:
    """The memoized (HSO, SO, distinct sorted degree pairs) of g, filled by
    the first call; the checkers read it here, not through an IndexValue."""
    memo = g._hso
    if memo is None:
        memo = g._hso = _profile_pass(g)
    return memo


def _profile_pass(g: Graph) -> tuple[float, float, tuple[tuple[int, int], ...]]:
    """(HSO, SO, distinct sorted degree pairs) of g in one pass over the
    adjacency bitmasks, which reads each edge's entry from _pair_term.

    math.fsum rounds the exact sum once, so the totals are those of the
    edge terms in any order: each pair's term taken as many times as it
    has edges.  The pairs kept are _pair_term's own tuples.
    """
    degs = g.degrees
    entries = []
    add = entries.append
    for u, high in enumerate(g.rows):
        du = degs[u]
        high >>= u + 1
        while high:
            low = high & -high
            high ^= low
            add(_pair_term(du, degs[u + low.bit_length()]))
    return (math.fsum(map(itemgetter(1), entries)), math.fsum(map(itemgetter(2), entries)),
            tuple(dict.fromkeys(map(itemgetter(0), entries))))


def so(g: Graph) -> float:
    """Sombor index: sum of sqrt(du^2 + dv^2) over edges."""
    return _profile(g)[1]


def edge_term_bounds(du: int, dv: int, max_degree: int) -> tuple[float, float]:
    """Interval guaranteed to contain edge_term(du, dv) in a graph with the
    given maximum degree.

    Pendant edges (one endpoint of degree 1) lie in [sqrt(5), sqrt(D^2+1)];
    edges between two vertices of degree >= 2 lie in [sqrt(2), sqrt(D^2+4)/2].
    An isolated K2 edge (both degrees 1) is outside the pendant interval and
    is rejected rather than silently mis-bounded.
    """
    lo, hi = min(du, dv), max(du, dv)
    if lo < 1:
        raise DomainViolationError("an edge endpoint cannot have degree zero")
    if hi > max_degree:
        raise DomainViolationError(
            f"degree {hi} exceeds stated maximum degree {max_degree}"
        )
    if lo == 1 and hi == 1:
        raise DomainViolationError("bounds are undefined for an isolated K2 edge")
    if lo == 1:
        return (SQRT5, math.sqrt(max_degree * max_degree + 1))
    return (SQRT2, math.sqrt(max_degree * max_degree + 4) / 2.0)
