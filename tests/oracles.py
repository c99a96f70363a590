"""Independent counting and isomorphism oracles for cross-checking the package.

Nothing here touches the package's enumeration or canonical-form machinery.
Unlabeled counts come from the permutation cycle index of the pair action
plus the multiset (Euler) transform; labeled counts come from the classical
connected-graph recurrence and from direct bitmask sweeps with a
self-contained connectivity check; isomorphism at tiny orders is decided by
brute-force minimization over all vertex permutations.  The plain equitable
refinement, which counts every vertex against every cell in every round, is
the reference for the package's refinement, and relabeling rows neighbour by
neighbour is the reference for its canonical relabeling.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, permutations
from math import comb, factorial, fsum, gcd, sqrt


# ---------------------------------------------------------------------------
# unlabeled counts via the cycle index of S_n acting on vertex pairs
# ---------------------------------------------------------------------------


def _partitions(n, largest=None):
    if largest is None:
        largest = n
    if n == 0:
        yield ()
        return
    for part in range(min(n, largest), 0, -1):
        for rest in _partitions(n - part, part):
            yield (part,) + rest


def _perm_class_size(n, lam):
    """Number of permutations in S_n with cycle type lam."""
    z = 1
    mult = {}
    for a in lam:
        mult[a] = mult.get(a, 0) + 1
    for a, k in mult.items():
        z *= (a ** k) * factorial(k)
    return factorial(n) // z


def _pair_orbit_lengths(lam):
    """Cycle lengths of the induced action on unordered vertex pairs."""
    out = []
    for idx, a in enumerate(lam):
        # pairs inside one cycle of length a
        if a % 2 == 1:
            out.extend([a] * ((a - 1) // 2))
        else:
            out.extend([a] * (a // 2 - 1))
            out.append(a // 2)
        # pairs across two distinct cycles
        for b in lam[idx + 1:]:
            out.extend([a * b // gcd(a, b)] * gcd(a, b))
    return out


@lru_cache(maxsize=None)
def unlabeled_graph_counts_by_edges(n):
    """List c[m] = number of unlabeled graphs with n vertices and m edges."""
    max_m = n * (n - 1) // 2
    total = [0] * (max_m + 1)
    for lam in _partitions(n):
        weight = _perm_class_size(n, lam)
        poly = [1]
        for length in _pair_orbit_lengths(lam):
            nxt = [0] * (len(poly) + length)
            for power, coeff in enumerate(poly):
                nxt[power] += coeff
                nxt[power + length] += coeff
            poly = nxt
        for power, coeff in enumerate(poly):
            if power <= max_m:
                total[power] += weight * coeff
    nfact = factorial(n)
    assert all(value % nfact == 0 for value in total)
    return [value // nfact for value in total]


def unlabeled_graph_count(n):
    return sum(unlabeled_graph_counts_by_edges(n))


@lru_cache(maxsize=None)
def connected_unlabeled_counts(max_n):
    """dict (n, m) -> number of connected unlabeled graphs, for n <= max_n.

    Inverse bivariate Euler transform: all graphs are multisets of connected
    components, so the full generating function is the product over
    components (k, mu) of (1 - x^k y^mu)^(-c[k, mu]).
    """
    conn = {}
    # product[(a, b)] = graphs of total order a / size b with all components counted so far
    product = {(0, 0): 1}
    for n in range(1, max_n + 1):
        g_row = unlabeled_graph_counts_by_edges(n)
        for m, total in enumerate(g_row):
            conn[(n, m)] = total - product.get((n, m), 0)
        # fold the new connected species into the product
        for m in range(len(g_row)):
            c = conn[(n, m)]
            if c == 0:
                continue
            updated = {}
            for (a, b), coeff in product.items():
                for j in range(0, (max_n - a) // n + 1):
                    key = (a + j * n, b + j * m)
                    if key[0] > max_n:
                        break
                    updated[key] = updated.get(key, 0) + coeff * comb(c + j - 1, j)
            product = updated
    return conn


def connected_count(n, max_n=10):
    conn = connected_unlabeled_counts(max_n)
    return sum(value for (k, m), value in conn.items() if k == n)


def connected_count_with_edges(n, m, max_n=10):
    return connected_unlabeled_counts(max_n).get((n, m), 0)


def tree_count(n):
    if n == 1:
        return 1
    return connected_count_with_edges(n, n - 1, max_n=max(n, 10))


def unicyclic_count(n):
    return connected_count_with_edges(n, n, max_n=max(n, 10))


def bicyclic_count(n):
    return connected_count_with_edges(n, n + 1, max_n=max(n, 10))


# ---------------------------------------------------------------------------
# labeled counts: recurrence and direct sweeps
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def labeled_connected_count(n):
    """Classical recurrence: c_n = 2^C(n,2) - sum over the component of vertex 1."""
    if n == 1:
        return 1
    total = 2 ** comb(n, 2)
    for k in range(1, n):
        total -= comb(n - 1, k - 1) * labeled_connected_count(k) * 2 ** comb(n - k, 2)
    return total


def _own_connected(n, adj):
    seen = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == n


def labeled_sweep(n):
    """Directly sweep all 2^C(n,2) labeled graphs (n <= 6): returns
    (connected_total, dict m -> connected_count_with_m_edges)."""
    pairs = list(combinations(range(n), 2))
    total = 0
    by_edges = {}
    for bits in range(1 << len(pairs)):
        adj = [[] for _ in range(n)]
        m = 0
        code = bits
        for pair_idx in range(len(pairs)):
            if code == 0:
                break
            if code & 1:
                u, v = pairs[pair_idx]
                adj[u].append(v)
                adj[v].append(u)
                m += 1
            code >>= 1
        if _own_connected(n, adj):
            total += 1
            by_edges[m] = by_edges.get(m, 0) + 1
    return total, by_edges


def labeled_filter_count(n, m):
    """Count labeled connected graphs with exactly m edges by filtering all
    C(C(n,2), m) edge subsets."""
    pairs = list(combinations(range(n), 2))
    count = 0
    for chosen in combinations(pairs, m):
        adj = [[] for _ in range(n)]
        for u, v in chosen:
            adj[u].append(v)
            adj[v].append(u)
        if _own_connected(n, adj):
            count += 1
    return count


# ---------------------------------------------------------------------------
# unlabeled connected counts by Burnside sum over permutation classes
# ---------------------------------------------------------------------------


def _perm_from_cycle_type(lam):
    perm = []
    start = 0
    for a in lam:
        perm.extend([start + (i + 1) % a for i in range(a)])
        start += a
    return perm


def _pair_orbits_of(perm, n):
    pairs = list(combinations(range(n), 2))
    index = {pair: i for i, pair in enumerate(pairs)}
    seen = [False] * len(pairs)
    orbits = []
    for i, (u, v) in enumerate(pairs):
        if seen[i]:
            continue
        orbit = []
        a, b = u, v
        while True:
            key = (a, b) if a < b else (b, a)
            j = index[key]
            if seen[j]:
                break
            seen[j] = True
            orbit.append(key)
            a, b = perm[a], perm[b]
        orbits.append(orbit)
    return orbits


def _count_fixed_connected(perm, n, m):
    """Connected m-edge graphs fixed by perm = unions of whole pair orbits."""
    orbits = _pair_orbits_of(perm, n)
    sizes = [len(o) for o in orbits]
    hits = 0
    chosen = []

    def descend(idx, remaining):
        nonlocal hits
        if remaining == 0:
            adj = [[] for _ in range(n)]
            for oi in chosen:
                for u, v in orbits[oi]:
                    adj[u].append(v)
                    adj[v].append(u)
            if _own_connected(n, adj):
                hits += 1
            return
        if idx >= len(orbits):
            return
        if sum(sizes[idx:]) < remaining:
            return
        if sizes[idx] <= remaining:
            chosen.append(idx)
            descend(idx + 1, remaining - sizes[idx])
            chosen.pop()
        descend(idx + 1, remaining)

    descend(0, m)
    return hits


def burnside_connected_count(n, m):
    """Number of unlabeled connected graphs with n vertices and m edges,
    averaged over S_n one conjugacy class at a time.

    The identity class is delegated to the labeled edge-subset filter; other
    classes have few pair orbits and enumerate quickly.
    """
    total = 0
    for lam in _partitions(n):
        weight = _perm_class_size(n, lam)
        if all(a == 1 for a in lam):
            fixed = labeled_filter_count(n, m)
        else:
            fixed = _count_fixed_connected(_perm_from_cycle_type(lam), n, m)
        total += weight * fixed
    assert total % factorial(n) == 0
    return total // factorial(n)


# ---------------------------------------------------------------------------
# brute-force isomorphism for tiny orders
# ---------------------------------------------------------------------------


def brute_min_code(n, edge_set):
    """Lexicographically minimal frozen edge set over all n! relabelings."""
    best = None
    for perm in permutations(range(n)):
        relabeled = tuple(sorted(
            (min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in edge_set
        ))
        if best is None or relabeled < best:
            best = relabeled
    return (n, best)


# ---------------------------------------------------------------------------
# reference equitable refinement
# ---------------------------------------------------------------------------


def reference_refine(rows, cells):
    """Equitable refinement of an ordered partition (list of vertex lists):
    every round counts each vertex against every cell.  Kept as the reference
    for the package's refinement, which counts only against the cells that
    the last round made."""
    while True:
        masks = []
        for cell in cells:
            m = 0
            for v in cell:
                m |= 1 << v
            masks.append(m)
        new_cells = []
        changed = False
        for cell in cells:
            if len(cell) == 1:
                new_cells.append(cell)
                continue
            keyed = {}
            for v in cell:
                rv = rows[v]
                key = tuple((rv & m).bit_count() for m in masks)
                keyed.setdefault(key, []).append(v)
            if len(keyed) == 1:
                new_cells.append(cell)
            else:
                changed = True
                for key in sorted(keyed):
                    new_cells.append(keyed[key])
        if not changed:
            return new_cells
        cells = new_cells


# ---------------------------------------------------------------------------
# relabeling rows vertex by vertex
# ---------------------------------------------------------------------------


def reference_relabel_rows(rows, order):
    """Rows of the graph with vertex order[p] moved to position p, mapped
    neighbour by neighbour.  Kept as the reference for canonical_relabel,
    which builds the relabeled graph from its canonical code instead."""
    n = len(order)
    bit = [0] * n  # bit[v]: v's new position, as a bitmask
    for p, v in enumerate(order):
        bit[v] = 1 << p
    new_rows = [0] * n
    for p, v in enumerate(order):
        acc = 0
        rest = rows[v]
        while rest:
            low = rest & -rest
            rest ^= low
            acc |= bit[low.bit_length() - 1]
        new_rows[p] = acc
    return tuple(new_rows)


# ---------------------------------------------------------------------------
# the pendant-split weight scanned on a float grid
# ---------------------------------------------------------------------------


def reference_pendant_split_scan(n, grid=1000):
    """Sample the split weight x*sqrt((x+2)^2+1) + (n-x-3)*sqrt((n-x-1)^2+1)
    on a uniform grid over [1, floor((n-3)/2)] and confirm it never increases.

    True iff consecutive grid values are non-increasing and every central
    finite-difference slope is at most +1e-9.  This scan decided the check
    before the exact convexity test replaced it.
    """
    hi = (n - 3) // 2
    if hi <= 1:
        return True  # single-point domain

    def weight(x):
        a = x + 2.0
        b = n - x - 1.0
        return x * sqrt(a * a + 1.0) + (n - x - 3.0) * sqrt(b * b + 1.0)

    step = (hi - 1.0) / (grid - 1)
    values = [weight(1.0 + i * step) for i in range(grid)]
    for prev, cur in zip(values, values[1:]):
        if cur > prev + 1e-9:
            return False
    for i in range(1, grid - 1):
        slope = (values[i + 1] - values[i - 1]) / (2.0 * step)
        if slope > 1e-9:
            return False
    return True


# ---------------------------------------------------------------------------
# seeded random connected graphs as plain edge lists
# ---------------------------------------------------------------------------


def random_connected_edges(n, rng, chords):
    """Edges of a random connected graph on 0..n-1: a random recursive tree
    (each vertex hangs on a random earlier one) under a random relabeling,
    plus `chords` distinct random non-edges."""
    label = list(range(n))
    rng.shuffle(label)
    edges = {frozenset((label[v], label[rng.randrange(v)])) for v in range(1, n)}
    absent = [frozenset(p) for p in combinations(range(n), 2) if frozenset(p) not in edges]
    edges.update(rng.sample(absent, chords))
    return sorted(tuple(sorted(e)) for e in edges)


def random_prufer_edges(n, rng, chords):
    """Edges of a random connected graph on 0..n-1: the labelled tree of a
    uniformly random Prüfer sequence under a random relabeling, plus `chords`
    distinct random non-edges, listed in random order and orientation."""
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    tree = []
    for v in seq:
        leaf = degree.index(1)
        tree.append((leaf, v))
        degree[leaf] -= 1
        degree[v] -= 1
    tree.append(tuple(u for u in range(n) if degree[u] == 1))
    label = list(range(n))
    rng.shuffle(label)
    edges = {frozenset((label[u], label[v])) for u, v in tree}
    absent = [frozenset(p) for p in combinations(range(n), 2) if frozenset(p) not in edges]
    edges = [tuple(e) for e in edges] + [tuple(e) for e in rng.sample(absent, chords)]
    rng.shuffle(edges)
    return [(u, v) if rng.random() < 0.5 else (v, u) for u, v in edges]


def degree_fields(rows):
    """(edge count, maximum degree, minimum degree) of the graph whose
    adjacency bitmasks are rows, counted bit by bit."""
    degrees = [sum(row >> v & 1 for v in range(len(rows))) for row in rows]
    return sum(degrees) // 2, max(degrees), min(degrees)


def reference_profile(degrees, edges):
    """(HSO, SO, set of sorted end-degree pairs) of a graph from its degrees
    and edges: one term per edge, each sum taken with math.fsum."""
    pairs = [tuple(sorted((degrees[u], degrees[v]))) for u, v in edges]
    roots = [sqrt(i * i + j * j) for i, j in pairs]
    return fsum(root / i for root, (i, _) in zip(roots, pairs)), fsum(roots), set(pairs)
