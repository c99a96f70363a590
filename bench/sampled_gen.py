"""Seeded inputs for the sampled-checks workload, built without hsograph.

Each graph is a uniformly random labelled tree, decoded from a random
Prüfer sequence, plus a number of random chords (non-edges of the tree).
The chord count fixes the class: 0 a tree, 1 unicyclic, 2 bicyclic, 3 or
more a general connected graph.  Orders and classes are spread evenly so
that every theorem checker gets inputs, and the mix is the same for every
seed; only the graphs change.
"""

from __future__ import annotations

import heapq
import math
import random

ORDERS = range(10, 17)
# None stands for "several": 3 to 6 chords, drawn per graph.
CHORD_CLASSES = (0, 1, 2, None)
PER_CELL = 125

CONNECTED_THEOREMS = ("sandwich", "general-lower", "edge-count-bounds", "lemma-edge-bounds")
CLASS_THEOREMS = {0: ("tree-bounds",), 1: ("unicyclic-bounds",), 2: ("bicyclic-lower", "bicyclic-upper")}
THEOREMS = CONNECTED_THEOREMS + sum(CLASS_THEOREMS.values(), ())


def theorems_for(chords: int) -> tuple[str, ...]:
    """The checkers that apply to a tree plus this many chords."""
    return CONNECTED_THEOREMS + CLASS_THEOREMS.get(chords, ())


def prufer_tree(n: int, rng: random.Random) -> list[tuple[int, int]]:
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for v in seq:
        edges.append((heapq.heappop(leaves), v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return edges


def with_chords(n: int, edges, chords: int, rng: random.Random) -> list[tuple[int, int]]:
    present = {frozenset(e) for e in edges}
    absent = [(u, v) for v in range(n) for u in range(v) if frozenset((u, v)) not in present]
    return list(edges) + rng.sample(absent, chords)


def graph6(n: int, edges) -> str:
    """graph6 of a graph on 0..n-1: header 63+n, upper triangle column by column."""
    adjacent = {frozenset(e) for e in edges}
    bits = [frozenset((i, j)) in adjacent for j in range(1, n) for i in range(j)]
    bits += [False] * (-len(bits) % 6)
    body = "".join(
        chr(63 + sum(bit << (5 - k) for k, bit in enumerate(bits[i:i + 6])))
        for i in range(0, len(bits), 6)
    )
    return chr(63 + n) + body


def hso(n: int, edges) -> float:
    """HSO from the edge list, independent of hsograph.indices."""
    degree = [0] * n
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    return math.fsum(
        math.hypot(degree[u], degree[v]) / min(degree[u], degree[v]) for u, v in edges
    )


def generate(seed: int) -> list[dict]:
    """Every input graph for one seed, in file order."""
    rng = random.Random(seed)
    graphs = []
    for n in ORDERS:
        for cls in CHORD_CLASSES:
            for _ in range(PER_CELL):
                chords = rng.randint(3, 6) if cls is None else cls
                edges = with_chords(n, prufer_tree(n, rng), chords, rng)
                graphs.append({"graph6": graph6(n, edges), "n": n, "chords": chords,
                               "hso": hso(n, edges)})
    return graphs


def write_inputs(graphs, path) -> None:
    with open(path, "w") as fh:
        for g in graphs:
            fh.write(f"{g['graph6']} {g['chords']}\n")
