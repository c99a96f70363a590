"""Exhaustive enumeration of small graphs, one representative per isomorphism class.

Every level is built the same way: one-step augmentation of the level
below, then canonical-form deduplication (McKay, "Isomorph-free exhaustive
generation", J. Algorithms 26, 1998).  All graphs on n vertices come from
those on n-1 plus a new vertex joined to every subset of the old ones;
disconnected graphs stay in these levels (a connected graph minus a vertex
need not be connected) and connectivity is filtered at the end.  Trees come
from trees plus a leaf.  Connected graphs with m edges come from those with
m-1 edges plus one non-edge, starting at the trees: removing a cycle edge
keeps a graph connected, so every one of them is reached.

Streams are deterministic: each level is sorted by canonical code and every
emitted graph is already in its canonical labeling, so repeated runs yield
byte-identical graph6 sequences and consumers may slice a stream by index
ranges for parallel work.
"""

from __future__ import annotations

from functools import lru_cache

from .graph import (
    Graph,
    OrderTooLargeError,
    _canonical_code_order,
    _relabel_rows,
)

TREE_MAX_N = 12
CONNECTED_MAX_N = 9


class InfeasibleEdgeCountError(ValueError):
    pass


def _distinct(n, candidates):
    """The first graph per canonical code among row tuples on n vertices,
    each in its canonical labeling, sorted by code."""
    found = {}
    for rows in candidates:
        code, order = _canonical_code_order(rows, n)
        if code not in found:
            found[code] = Graph(n, _relabel_rows(rows, order))
    return tuple(found[code] for code in sorted(found))


def _with_new_vertex(parents, leaf_only):
    """Rows of each parent plus a last vertex joined to every neighbour mask,
    or to each single old vertex when leaf_only is set."""
    for parent in parents:
        old_n = parent.n
        top = 1 << old_n
        masks = (1 << v for v in range(old_n)) if leaf_only else range(1 << old_n)
        for mask in masks:
            rows = list(parent.rows)
            rows.append(mask)
            rest = mask
            while rest:
                low = rest & -rest
                rows[low.bit_length() - 1] |= top
                rest ^= low
            yield tuple(rows)


def _with_new_edge(parents):
    """Rows of each parent plus one of its non-edges."""
    for parent in parents:
        base = parent.rows
        for u in range(parent.n):
            for v in range(u + 1, parent.n):
                if not base[u] >> v & 1:
                    rows = list(base)
                    rows[u] |= 1 << v
                    rows[v] |= 1 << u
                    yield tuple(rows)


@lru_cache(maxsize=None)
def _all_level(n):
    """All graphs on n vertices (connected or not), canonical and sorted."""
    if n == 1:
        return (Graph(1, (0,)),)
    return _distinct(n, _with_new_vertex(_all_level(n - 1), leaf_only=False))


@lru_cache(maxsize=None)
def _tree_level(n):
    """All free trees on n vertices via leaf attachment."""
    if n == 1:
        return (Graph(1, (0,)),)
    return _distinct(n, _with_new_vertex(_tree_level(n - 1), leaf_only=True))


@lru_cache(maxsize=None)
def _edge_level(n, m):
    """All connected graphs on n vertices with m >= n - 1 edges."""
    if m == n - 1:
        return _tree_level(n)
    return _distinct(n, _with_new_edge(_edge_level(n, m - 1)))


def trees(n: int):
    """Every free tree on n vertices exactly once, sorted by canonical code."""
    if n < 1:
        raise ValueError("order must be at least 1")
    if n > TREE_MAX_N:
        raise OrderTooLargeError(f"tree enumeration supports n <= {TREE_MAX_N}")
    yield from _tree_level(n)


def connected_graphs(n: int):
    """Every connected graph on n vertices exactly once, sorted by canonical code."""
    if n < 1:
        raise ValueError("order must be at least 1")
    if n > CONNECTED_MAX_N:
        raise OrderTooLargeError(f"connected enumeration supports n <= {CONNECTED_MAX_N}")
    for g in _all_level(n):
        if g.is_connected():
            yield g


def connected_graphs_with_edges(n: int, m: int):
    """Every connected graph with exactly m edges on n vertices, once per class."""
    if n < 1:
        raise ValueError("order must be at least 1")
    if not n - 1 <= m <= n * (n - 1) // 2:
        raise InfeasibleEdgeCountError(
            f"no connected graph on {n} vertices has {m} edges"
        )
    if n > TREE_MAX_N:
        raise OrderTooLargeError(f"edge-count enumeration supports n <= {TREE_MAX_N}")
    yield from _edge_level(n, m)


def unicyclic_graphs(n: int):
    """Connected graphs with exactly one cycle (m = n)."""
    if n < 3:
        raise InfeasibleEdgeCountError("unicyclic graphs need n >= 3")
    return connected_graphs_with_edges(n, n)


def bicyclic_graphs(n: int):
    """Connected graphs with cyclomatic number two (m = n + 1)."""
    if n < 4:
        raise InfeasibleEdgeCountError("bicyclic graphs need n >= 4")
    return connected_graphs_with_edges(n, n + 1)


def graphs_in_class(tag: str, n: int):
    """Dispatch a class stream by tag: tree, unicyclic, bicyclic or connected."""
    if tag == "tree":
        return trees(n)
    if tag == "unicyclic":
        return unicyclic_graphs(n)
    if tag == "bicyclic":
        return bicyclic_graphs(n)
    if tag == "connected":
        return connected_graphs(n)
    raise ValueError(f"unknown graph class {tag!r}")
