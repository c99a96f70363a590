"""Degree-based indices: hyperbolic Sombor (HSO) and Sombor (SO).

HSO sums sqrt(du^2 + dv^2) / min(du, dv) over edges; SO drops the divisor.
Sums use math.fsum so closed-form comparisons are not polluted by
accumulation error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

from .graph import Graph

SQRT2 = math.sqrt(2.0)
SQRT5 = math.sqrt(5.0)


class ZeroDegreeError(ValueError):
    pass


class DegreeExceedsDeltaError(ValueError):
    pass


class K2EdgeError(ValueError):
    pass


@dataclass(frozen=True)
class EdgeTerm:
    """One edge's HSO contribution together with its endpoint degrees."""

    u: int
    v: int
    du: int
    dv: int
    value: float


@dataclass(frozen=True)
class IndexValue:
    """HSO and SO of one graph.  The per-edge breakdown is built from the
    graph the first time per_edge is read, so the checking path never
    allocates one object per edge."""

    hso: float
    so: float
    graph: Graph = field(repr=False)

    @cached_property
    def per_edge(self) -> tuple[EdgeTerm, ...]:
        """One EdgeTerm per edge, in Graph.edges() order."""
        degs = self.graph.degrees
        return tuple(EdgeTerm(u, v, degs[u], degs[v], edge_term(degs[u], degs[v]))
                     for u, v in self.graph.edges())


def edge_term(du: int, dv: int) -> float:
    """sqrt(du^2 + dv^2) / min(du, dv); symmetric in its arguments."""
    if du < 1 or dv < 1:
        raise ZeroDegreeError("an edge endpoint cannot have degree zero")
    return math.sqrt(du * du + dv * dv) / min(du, dv)


def hso(g: Graph) -> IndexValue:
    """HSO and SO of g, computed on the first call for g and memoized on it
    as the float pair (an IndexValue would hold g and make a cycle)."""
    return IndexValue(*_hso_pair(g), g)


def _hso_pair(g: Graph) -> tuple[float, float]:
    """The memoized (HSO, SO) float pair of g, filled by the first call; the
    checkers read it here rather than through an IndexValue."""
    pair = g._hso
    if pair is None:
        pair = g._hso = _hso_so(g)
    return pair


def _hso_so(g: Graph) -> tuple[float, float]:
    """(HSO, SO) of g in one pass over the adjacency bitmasks.

    Each edge contributes root = sqrt(du^2 + dv^2) to SO and root / min(du, dv)
    to HSO, the same float operations as edge_term; math.fsum rounds each sum
    correctly, so the totals do not depend on the order the edges are visited.
    """
    degs = g.degrees
    sqrt = math.sqrt
    roots = []
    terms = []
    add_root = roots.append
    add_term = terms.append
    for u, high in enumerate(g.rows):
        du = degs[u]
        high >>= u + 1
        while high:
            low = high & -high
            high ^= low
            dv = degs[u + low.bit_length()]
            root = sqrt(du * du + dv * dv)
            add_root(root)
            add_term(root / (du if du < dv else dv))
    return math.fsum(terms), math.fsum(roots)


def so(g: Graph) -> float:
    """Sombor index: sum of sqrt(du^2 + dv^2) over edges."""
    return _hso_pair(g)[1]


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
        raise ZeroDegreeError("an edge endpoint cannot have degree zero")
    if hi > max_degree:
        raise DegreeExceedsDeltaError(
            f"degree {hi} exceeds stated maximum degree {max_degree}"
        )
    if lo == 1 and hi == 1:
        raise K2EdgeError("bounds are undefined for an isolated K2 edge")
    if lo == 1:
        return (SQRT5, math.sqrt(max_degree * max_degree + 1))
    return (SQRT2, math.sqrt(max_degree * max_degree + 4) / 2.0)
