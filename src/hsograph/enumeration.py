"""Exhaustive enumeration of small graphs, one representative per isomorphism class.

Every level is built from the level below by McKay's canonical deletion
("Isomorph-free exhaustive generation", J. Algorithms 26, 1998).  Connected
graphs on n vertices come from every graph on n-1 plus a new vertex joined to
a subset of the old ones that meets each of its components.  The parents are
the connected level below and the disconnected graphs, each built as the
disjoint union of its components, a multiset of connected graphs from lower
levels (Harary and Palmer, Graphical Enumeration, 1973), and never labeled.
No class is lost: in a connected child the canonical deletion vertex meets
every component of what its deletion leaves.  The component test is
invariant under Aut(parent), so the sibling filter below still sees whole
orbits.

A class level holds the connected graphs on n vertices with m edges, so of
cyclomatic number m - n + 1.  It comes from the same class one order below
plus a leaf, and from its leafless members, added as seeds.  In a class
graph with a leaf the minimum degree is 1, so the canonical deletion vertex
is a leaf, and deleting a leaf keeps the graph connected and its cyclomatic
number unchanged.  Up to bicyclic graphs the leafless members are the
subdivisions of the class's kernels, each labeled once: none for trees past
n = 1, the cycle for unicyclic graphs, and for bicyclic graphs the theta
graphs and two cycles joined by a path (of length 0 in the figure-eight).
Above that the edge rule joins a non-edge covering every leaf in each class
graph one number below with at most one leaf: deleting a cycle edge ab from
a graph of minimum degree 2 keeps it connected, one number lower and with
leaves only at a and b, and not at both, since the canonical edge, outranking
the edges between two vertices of degree 2, has an endpoint of degree >= 3.

A class of graph.CLASSES is its cyclomatic number m - n + 1, the class's
index in that one tuple.  So graphs_in_class streams a class as the
connected graphs with n - 1 + index edges, and trees, unicyclic_graphs and
bicyclic_graphs are graphs_in_class with the tag bound.

A child is kept only if what was just added is what canonical deletion would
remove again, up to automorphism:

- Vertex rule: the canonical deletion vertex is chosen among the vertices of
  minimum degree, then those with the largest sum of neighbour degrees, then
  the one with the last canonical position.  Deleting any vertex leaves a
  graph, and deleting a leaf of a class graph leaves one of the same class.
- Edge rule: the canonical deletable edge is chosen among the cycle edges
  (whose removal keeps the graph connected) with the largest sorted pair of
  endpoint degrees, then by the last canonical position.

Each child is kept iff its new vertex or edge lies in the Aut(child) orbit of
the canonical one.  Then every class appears, and two kept children are
isomorphic only if they come from the same parent by augmentations (the new
vertex's neighbour mask or the added edge, in the parent's labels) in one
Aut(parent) orbit.  Children from one orbit are isomorphic and pass or fail
the rule together, so a sibling filter labels one child per orbit and skips
the rest before any labeling.  The invariant tests also run before any
canonical labeling.  The orbits come from the automorphism generators of the
labeling search: the child's for the deletion rule, the parent's for the
sibling filter.  The search finds them in any labeling, so a union's
labeling is never needed.

Each level is cached as the sorted tuple of its canonical codes, and a
stream (or the next level's build) makes a fresh Graph, with its own memo,
from each code in turn, connected by construction, so its connectivity memo
is set and never swept.  The code is also the graph's graph6 body, so each
graph's graph6 is formatted from it and never encoded bit by bit.  Streams
are deterministic: every graph is in its canonical labeling and in code
order, repeated runs yield byte-identical graph6 sequences and consumers may
slice a stream by index ranges for parallel work.  The stream functions
check their arguments when called but build the level only when the first
graph is asked for, so a caller can check every order of a range before it
builds or writes anything.
"""

from __future__ import annotations

from functools import lru_cache, partial
from itertools import combinations

from .graph import (
    BICYCLIC,
    CLASSES,
    TREE,
    UNICYCLIC,
    Graph,
    OrderTooLargeError,
    _bits,
    _canonical_code_order,
    _code_graph6,
    _sweep_connected,
    _unpack,
)

TREE_MAX_N = 12
CONNECTED_MAX_N = 9


class InfeasibleEdgeCountError(ValueError):
    pass


def _image(mask, image):
    """The image of a vertex set, given as a bitmask, under a vertex map (a
    sequence of vertex images)."""
    moved = 0
    while mask:
        low = mask & -mask
        mask ^= low
        moved |= 1 << image[low.bit_length() - 1]
    return moved


def _orbit(mask, generators):
    """Images of a vertex set, given as a bitmask, under the group spanned
    by the generators (tuples of vertex images)."""
    orbit = {mask}
    frontier = [mask]
    while frontier:
        current = frontier.pop()
        for image in generators:
            moved = _image(current, image)
            if moved not in orbit:
                orbit.add(moved)
                frontier.append(moved)
    return orbit


def _canonical_deletion(parents, children):
    """The level grown from parents, as the sorted canonical codes of every
    child (augmentation, rows, new, rivals) whose new vertex or edge (a
    bitmask) is the canonical one up to automorphism among itself and its
    rivals (the others that tie with it on invariants), one per class.
    The augmentation is what the child adds to its parent, as a bitmask in the
    parent's labels; only the first child of each Aut(parent) orbit of
    augmentations is labeled."""
    codes = []
    for parent in parents:
        tried = set()  # augmentations tried, closed under Aut(parent) once known
        parent_generators = None
        for augmentation, rows, new, rivals in children(parent):
            if tried:
                if parent_generators is None:
                    # many parents yield a single child, so the parent's
                    # group is found only once a second child arrives
                    _, _, parent_generators = _canonical_code_order(parent.rows, parent.n)
                    tried = _orbit(tried.pop(), parent_generators)
                if augmentation in tried:
                    continue  # isomorphic to a sibling already tried
                tried |= _orbit(augmentation, parent_generators)
            else:
                tried.add(augmentation)
            n = len(rows)
            code, order, generators = _canonical_code_order(rows, n)
            if rivals:
                # the canonical one is the tied set whose vertices sit last
                # in the canonical order
                position = [0] * n
                for p, v in enumerate(order):
                    position[v] = p
                chosen = max((new, *rivals), key=lambda mask: _image(mask, position))
                if chosen != new and new not in _orbit(chosen, generators):
                    continue
            codes.append(code)
    return tuple(sorted(codes))


def _min_degree_masks(degrees):
    """Non-empty neighbour masks that give a new vertex the minimum degree of
    the child: any k old vertices for 0 < k <= the old minimum degree d, or
    for k = d + 1 every vertex of degree d plus enough of the others."""
    low = min(degrees)
    vertices = [1 << v for v in range(len(degrees))]
    for k in range(1, low + 1):
        for chosen in combinations(vertices, k):
            yield sum(chosen)
    forced = sum(bit for bit, d in zip(vertices, degrees) if d == low)
    free = [bit for bit, d in zip(vertices, degrees) if d > low]
    need = low + 1 - forced.bit_count()
    if need >= 0:
        for chosen in combinations(free, need):
            yield forced + sum(chosen)


def _vertex_children(parent, masks):
    """Children with a last vertex joined to each neighbour mask in masks
    (non-empty bitmasks of the parent's vertices) that meets every component
    of the parent, so the child is connected, and passes the vertex rule's
    invariants."""
    x = parent.n
    top = 1 << x
    for mask in masks:
        rows = list(parent.rows)
        rows.append(mask)
        degrees = list(parent.degrees)
        k = mask.bit_count()
        degrees.append(k)
        best = 0  # the new vertex's sum of neighbour degrees
        rest = mask
        while rest:
            low = rest & -rest
            rest ^= low
            v = low.bit_length() - 1
            rows[v] |= top
            degrees[v] += 1
            best += degrees[v]
        rivals = []
        for v in range(x):
            if degrees[v] != k:
                continue
            score = 0
            rest = rows[v]
            while rest:
                low = rest & -rest
                rest ^= low
                score += degrees[low.bit_length() - 1]
            if score > best:
                break
            if score == best:
                rivals.append(1 << v)
        else:
            # a non-empty mask meets the one component of a connected parent
            if parent._connected or _sweep_connected(rows):
                yield mask, tuple(rows), top, rivals


def _edge_children(parent, pairs):
    """Children with an edge joining each pair (a, b) of pairs, non-adjacent
    vertices of the parent, that pass the edge rule's invariants: no cycle
    edge of the child has a larger sorted endpoint-degree pair."""
    base = parent.rows
    degrees = parent.degrees
    edges = []
    for u, w in parent.edges():
        # side: the part of parent - uw holding u; uw lies on a cycle of the
        # child iff it does in the parent or the new edge crosses that cut
        side = 1 << u
        frontier = base[u] & ~(1 << w)
        while frontier:
            side |= frontier
            nxt = 0
            for v in _bits(frontier):
                nxt |= base[v]
            frontier = nxt & ~side
        edges.append((u, w, side, bool(side >> w & 1)))
    for a, b in pairs:
        deg = list(degrees)
        deg[a] += 1
        deg[b] += 1
        top = (deg[a], deg[b]) if deg[a] < deg[b] else (deg[b], deg[a])
        rivals = []
        for u, w, side, cyclic in edges:
            du, dw = deg[u], deg[w]
            key = (du, dw) if du < dw else (dw, du)
            if key < top or not (cyclic or (side >> a & 1) != (side >> b & 1)):
                continue
            if key > top:
                break
            rivals.append(1 << u | 1 << w)
        else:
            rows = list(base)
            rows[a] |= 1 << b
            rows[b] |= 1 << a
            new = 1 << a | 1 << b
            yield new, tuple(rows), new, rivals


def _on_demand(level, n, *args):
    """Iterate the graphs of level(n, *args), each built from its code in
    canonical labeling with its graph6 formatted from that code; the level
    is built when the first one is asked for."""
    for code in level(n, *args):
        g = Graph(n, _unpack(n, code))
        g._graph6 = _code_graph6(n, code)
        g._connected = True
        yield g


def _multisets(total, k, i, largest):
    """Each multiset of connected graphs of total order total, from the i-th
    code of order k up to order largest, as a non-decreasing tuple of
    (order, code) pairs."""
    if not total:
        yield ()
    for k in range(k, min(total, largest) + 1):
        codes = _connected_level(k)
        for j in range(i, len(codes)):
            for rest in _multisets(total - k, k, j, largest):
                yield (k, codes[j]), *rest
        i = 0


def _unions(n):
    """Every disconnected graph on n vertices once per class: the disjoint
    union of each multiset of two or more connected graphs, its parts in the
    labelings of their codes side by side.  No union is labeled."""
    for parts in _multisets(n, 1, 0, n - 1):
        rows = []
        for k, code in parts:
            offset = len(rows)
            rows += [row << offset for row in _unpack(k, code)]
        g = Graph(n, tuple(rows))
        g._connected = False
        yield g


def _all_graphs(n):
    """Every graph on n vertices once per class: the connected level, in
    canonical labeling and code order, then the unions."""
    yield from _on_demand(_connected_level, n)
    yield from _unions(n)


@lru_cache(maxsize=None)
def _connected_level(n):
    """Codes of all connected graphs on n vertices, sorted: the connected
    children of every graph on n - 1 vertices."""
    if n == 1:
        return (0,)
    return _canonical_deletion(_all_graphs(n - 1),
                               lambda g: _vertex_children(g, _min_degree_masks(g.degrees)))


def _subdivision(k, paths):
    """Rows of the graph on kernel vertices 0..k-1 joined by paths (start,
    end, length), each path's inner vertices new; start == end closes a
    cycle."""
    rows = [0] * (k + sum(length - 1 for _, _, length in paths))
    fresh = k
    for start, end, length in paths:
        walk = [start, *range(fresh, fresh + length - 1), end]
        fresh += length - 1
        for u, v in zip(walk, walk[1:]):
            rows[u] |= 1 << v
            rows[v] |= 1 << u
    return rows


def _leaf_covers(g):
    """The non-edges ab of g with every leaf of g in {a, b}."""
    leaves = sum(1 << v for v, d in enumerate(g.degrees) if d == 1)
    return [(a, b) for a, b in combinations(range(g.n), 2)
            if not (g.rows[a] >> b & 1 or leaves & ~(1 << a | 1 << b))]


def _leafless(n, index):
    """Codes of the connected graphs on n >= 2 vertices with cyclomatic
    number index and minimum degree at least 2, sorted: none for trees, the
    cycle C_n for unicyclic graphs, for bicyclic graphs the theta graphs
    (paths of lengths a <= b <= c, b >= 2, between two vertices) and the
    cycles C_p, C_q (3 <= p <= q) joined by a path of length l >= 0, where
    a + b + c = p + q + l = n + 1, and above that the edge rule's children
    of the graphs with index - 1 and at most one leaf: every cycle of a
    leafless graph of index >= 2 meets a vertex of degree >= 3, so the
    canonical edge has such an endpoint, which keeps degree >= 2."""
    if index > 2:
        parents = (g for g in _on_demand(_class_level, n, index - 1) if g.degrees.count(1) <= 1)
        return _canonical_deletion(parents, lambda g: _edge_children(g, _leaf_covers(g)))
    seeds = []
    if index == 1 and n >= 3:
        seeds.append((1, [(0, 0, n)]))
    if index == 2:
        for a in range(1, n):
            for b in range(max(a, 2), (n + 1 - a) // 2 + 1):
                seeds.append((2, [(0, 1, a), (0, 1, b), (0, 1, n + 1 - a - b)]))
        for p in range(3, n):
            for q in range(p, n + 2 - p):
                l = n + 1 - p - q
                k, bridge = (1, []) if l == 0 else (2, [(0, 1, l)])
                seeds.append((k, [(0, 0, p), (k - 1, k - 1, q), *bridge]))
    return tuple(sorted(_canonical_code_order(_subdivision(k, paths), n)[0]
                        for k, paths in seeds))


@lru_cache(maxsize=None)
def _class_level(n, index):
    """Codes of all connected graphs on n vertices with cyclomatic number
    index, that is with n - 1 + index edges, sorted: the level below plus a
    leaf, and the leafless members."""
    if n == 1:
        return () if index else (0,)
    # each mask is one vertex: the new vertex is a leaf, so the child keeps the class
    grown = _canonical_deletion(_on_demand(_class_level, n - 1, index),
                                lambda g: _vertex_children(g, [1 << v for v in range(g.n)]))
    return tuple(sorted(grown + _leafless(n, index)))


def connected_graphs(n: int):
    """Every connected graph on n vertices exactly once, sorted by canonical code."""
    if n < 1:
        raise ValueError("order must be at least 1")
    if n > CONNECTED_MAX_N:
        raise OrderTooLargeError(f"connected enumeration supports n <= {CONNECTED_MAX_N}, got {n}")
    return _on_demand(_connected_level, n)


def connected_graphs_with_edges(n: int, m: int):
    """Every connected graph with exactly m edges on n vertices, once per class."""
    if n < 1:
        raise ValueError("order must be at least 1")
    if not n - 1 <= m <= n * (n - 1) // 2:
        raise InfeasibleEdgeCountError(
            f"no connected graph on {n} {'vertex' if n == 1 else 'vertices'} "
            f"has {m} {'edge' if m == 1 else 'edges'}"
        )
    if n > TREE_MAX_N:
        raise OrderTooLargeError(f"edge-count enumeration supports n <= {TREE_MAX_N}, got {n}")
    return _on_demand(_class_level, n, m - n + 1)


def graphs_in_class(tag: str, n: int):
    """Every graph on n vertices of class tag: all connected graphs for
    "connected", else the connected graphs whose cyclomatic number is the
    tag's index in graph.CLASSES, that is with n - 1 + index edges."""
    if tag == "connected":
        return connected_graphs(n)
    if tag not in CLASSES:
        raise ValueError(f"unknown graph class {tag!r}")
    return connected_graphs_with_edges(n, n - 1 + CLASSES.index(tag))


# the class streams: trees(n) is graphs_in_class(TREE, n), and so on
trees = partial(graphs_in_class, TREE)
unicyclic_graphs = partial(graphs_in_class, UNICYCLIC)
bicyclic_graphs = partial(graphs_in_class, BICYCLIC)
