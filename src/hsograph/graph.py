"""Simple undirected graphs as immutable bitmask-adjacency values.

Vertices are the integers 0..n-1.  Each vertex stores its neighborhood as
an integer bitmask, which keeps edge tests, frontier expansion and the
canonical-labeling inner loops at roughly one machine word per operation
for the orders this package targets (n <= 62 for graph6 serialization,
n <= 16 for canonical forms).

Graphs are values: every mutating operation returns a fresh Graph and the
input is never touched, so instances can be shared freely across workers.
A Graph's degrees, edge count m, max_degree and min_degree are fields set
as it is made, from the degrees tuple.  It fills a memo of its graph6
string, its connectivity and its HSO, SO and distinct sorted degree pairs
(one pass of indices) on first use, so every checker of one graph shares
one computation of each.
The graph6 memo is set as the graph is made where its source already says
it: parse_graph6 keeps the text it decoded when that text is the canonical
encoding, and an enumeration stream formats each graph's canonical code
with _code_graph6.  Any other graph is encoded from its rows on the first
to_graph6 call.  The memo is never pickled: a graph sent to a worker arrives
with an empty one.  A graph's canonical code is the graph6 body of its
canonical relabeling, less padding; _unpack turns either back into rows and
_code_graph6 turns a code into graph6.
"""

from __future__ import annotations

import binascii
from collections import namedtuple
from functools import lru_cache

GRAPH6_MAX_N = 62
CANONICAL_MAX_N = 16

# The classes of connected graphs the paper treats, indexed by cyclomatic
# number m - n + 1.  classify, enumeration.graphs_in_class and the CLI's
# --class choices all read the classes from this one tuple.
CLASSES = TREE, UNICYCLIC, BICYCLIC = ("tree", "unicyclic", "bicyclic")
OTHER_CONNECTED = "other-connected"
DISCONNECTED = "disconnected"

_G6_PREFIX = ">>graph6<<"


class GraphError(ValueError):
    """Base for graph construction and mutation failures."""


class VertexOutOfRangeError(GraphError):
    pass


class SelfLoopError(GraphError):
    pass


class DuplicateEdgeError(GraphError):
    pass


class EdgePresentError(GraphError):
    pass


class EdgeAbsentError(GraphError):
    pass


class OrderTooLargeError(GraphError):
    pass


class Graph6Error(GraphError):
    """Base for graph6 encode/decode failures."""


class MalformedHeaderError(Graph6Error):
    pass


class TruncatedBodyError(Graph6Error):
    pass


class IllegalCharacterError(Graph6Error):
    pass


def _bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Graph:
    """Immutable simple graph; build instances via from_edge_list or parse_graph6.

    n, rows, degrees, the edge count m, max_degree and min_degree are plain
    fields, all set as the graph is made."""

    # _graph6, _connected and _hso memoize to_graph6(), is_connected() and
    # the (hso, so, pairs) of indices; None until first asked for
    __slots__ = ("n", "rows", "degrees", "m", "max_degree", "min_degree",
                 "_graph6", "_connected", "_hso")

    def __init__(self, n: int, rows: tuple[int, ...]):
        # Trusted constructor: rows must already be a symmetric, loop-free
        # adjacency.  The public entry points validate.
        self.n = n
        self.rows = rows
        self.degrees = degrees = tuple(map(int.bit_count, rows))
        self.m = sum(degrees) // 2
        self.max_degree = max(degrees)
        self.min_degree = min(degrees)
        self._graph6 = None
        self._connected = None
        self._hso = None

    def __eq__(self, other):
        return isinstance(other, Graph) and self.n == other.n and self.rows == other.rows

    def __hash__(self):
        return hash((self.n, self.rows))

    def __reduce__(self):
        return (Graph, (self.n, self.rows))

    def __repr__(self):
        return f"Graph(n={self.n}, edges={list(self.edges())})"

    def _check_vertex(self, v):
        if not 0 <= v < self.n:
            raise VertexOutOfRangeError(f"vertex {v} not in [0, {self.n})")

    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return bool(self.rows[u] >> v & 1)

    def edges(self):
        """Yield edges as (u, v) pairs with u < v, in row order."""
        for u in range(self.n):
            high = self.rows[u] >> (u + 1)
            for off in _bits(high):
                yield (u, u + 1 + off)

    def add_edge(self, u: int, v: int) -> "Graph":
        self._check_vertex(u)
        self._check_vertex(v)
        if u == v:
            raise SelfLoopError(f"cannot add loop at vertex {u}")
        if self.rows[u] >> v & 1:
            raise EdgePresentError(f"edge ({u}, {v}) already present")
        rows = list(self.rows)
        rows[u] |= 1 << v
        rows[v] |= 1 << u
        return Graph(self.n, tuple(rows))

    def remove_edge(self, u: int, v: int) -> "Graph":
        self._check_vertex(u)
        self._check_vertex(v)
        if u == v:
            raise SelfLoopError(f"no loop can exist at vertex {u}")
        if not self.rows[u] >> v & 1:
            raise EdgeAbsentError(f"edge ({u}, {v}) not present")
        rows = list(self.rows)
        rows[u] &= ~(1 << v)
        rows[v] &= ~(1 << u)
        return Graph(self.n, tuple(rows))

    def is_connected(self) -> bool:
        """Whether every vertex is reached from vertex 0; swept on first call."""
        connected = self._connected
        if connected is None:
            connected = self._connected = _sweep_connected(self.rows)
        return connected

    def classify(self) -> str:
        """CLASSES[m - n + 1] for a connected graph whose cyclomatic number
        indexes CLASSES, else other-connected or disconnected."""
        if not self.is_connected():
            return DISCONNECTED
        c = self.m - self.n + 1
        return CLASSES[c] if c < len(CLASSES) else OTHER_CONNECTED

    def to_graph6(self) -> str:
        """The graph6 string of this graph.  It is the parsed text or the
        stream code's encoding when the graph came from one, else encoded
        from the rows on the first call."""
        text = self._graph6
        if text is None:
            text = self._graph6 = _encode_graph6(self.rows)
        return text


def _sweep_connected(rows) -> bool:
    """Breadth-first sweep from vertex 0 over whole frontiers at once."""
    seen = 1
    frontier = 1
    while frontier:
        nxt = 0
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            nxt |= rows[low.bit_length() - 1]
        frontier = nxt & ~seen
        seen |= frontier
    return seen == (1 << len(rows)) - 1


def _encode_graph6(rows) -> str:
    """Encode in graph6: the upper triangle packed column-major, as _unpack
    reads it, formatted by _code_graph6."""
    code = 0
    for j in range(1, len(rows)):
        rj = rows[j]
        for i in range(j):
            code = code << 1 | (rj >> i & 1)
    return _code_graph6(len(rows), code)


# base64 writes 6-bit groups from 0 up as this alphabet, graph6 as chr(63 + group)
_BASE64_TO_GRAPH6 = bytes.maketrans(
    b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/", bytes(range(63, 127)))


def _code_graph6(n, code) -> str:
    """graph6 of the graph on n vertices whose packed upper triangle is code:
    header byte 63+n, then code shifted left by the padding, 6 bits a character."""
    if n > GRAPH6_MAX_N:
        raise OrderTooLargeError(f"graph6 short form requires n <= {GRAPH6_MAX_N}")
    npairs = n * (n - 1) // 2
    need = (npairs + 5) // 6
    # whole 3-byte groups, so base64 pads nothing; the characters past need are dropped
    nbytes = (need + 3) // 4 * 3
    body = binascii.b2a_base64((code << (8 * nbytes - npairs)).to_bytes(nbytes, "big"), newline=False)
    return chr(63 + n) + body[:need].translate(_BASE64_TO_GRAPH6).decode("ascii")


def from_edge_list(n: int, edges) -> Graph:
    """Build a graph on vertices 0..n-1 with exactly the given edges."""
    if n < 1:
        raise GraphError("graph order must be at least 1")
    rows = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise VertexOutOfRangeError(f"edge ({u}, {v}) has an endpoint outside [0, {n})")
        if u == v:
            raise SelfLoopError(f"self-loop at vertex {u}")
        if rows[u] >> v & 1:
            raise DuplicateEdgeError(f"edge ({u}, {v}) listed twice")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(n, tuple(rows))


def parse_graph6(text: str) -> Graph:
    """Decode a graph6 string (short header form, n <= 62)."""
    s = text.strip()
    if s.startswith(_G6_PREFIX):
        s = s[len(_G6_PREFIX):]
    if not s:
        raise MalformedHeaderError("empty graph6 string")
    head = ord(s[0])
    if head == 126:
        raise MalformedHeaderError("extended graph6 headers (n > 62) are not supported")
    if not 63 <= head <= 125:
        raise MalformedHeaderError(f"invalid graph6 header byte {s[0]!r}")
    n = head - 63
    if n == 0:
        raise MalformedHeaderError("empty graphs (n = 0) are not supported")
    npairs = n * (n - 1) // 2
    need = (npairs + 5) // 6
    body = s[1:]
    if len(body) < need:
        raise TruncatedBodyError(f"graph6 body needs {need} characters, got {len(body)}")
    if len(body) > need:
        raise Graph6Error(f"unexpected trailing characters after graph6 body: {body[need:]!r}")
    code = 0
    for ch in body:
        val = ord(ch) - 63
        if not 0 <= val <= 63:
            raise IllegalCharacterError(f"illegal graph6 body character {ch!r}")
        code = code << 6 | val
    # the low 6 * need - npairs bits are padding, ignored
    pad = 6 * need - npairs
    g = Graph(n, _unpack(n, code >> pad))
    if s == text and not code & ((1 << pad) - 1):
        # no prefix, no whitespace and zero padding: text is the encoding
        g._graph6 = text
    return g


@lru_cache(maxsize=None)
def _pairs(n):
    """The pair (i, j) of each bit of a packed upper triangle, low bit first."""
    return tuple(reversed([(i, j) for j in range(1, n) for i in range(j)]))


def _unpack(n, code):
    """Rows of the graph whose upper triangle, packed column-major with pair
    (0, 1) most significant, is code: a graph6 body without its padding."""
    pairs = _pairs(n)
    rows = [0] * n
    while code:
        low = code & -code
        code ^= low
        i, j = pairs[low.bit_length() - 1]
        rows[i] |= 1 << j
        rows[j] |= 1 << i
    return tuple(rows)


# ---------------------------------------------------------------------------
# Canonical forms
#
# Exact canonical labeling by individualization-refinement inside the degree
# partition.  The refinement is the usual equitable one (split cells by
# neighbor counts against every cell, sub-cells ordered by count vector), and
# at each branching step only one representative per "swap-equivalent" pair
# class is tried: u and v branch identically whenever transposing them is an
# automorphism, i.e. N(u)\{v} = N(v)\{u}.  The minimum leaf code over the
# search tree is a full isomorphism invariant: equal codes iff isomorphic.
#
# Each refinement round counts only against the fresh cells: the parts made
# by the last round's splits, less the last part of each split (McKay and
# Piperno, "Practical graph isomorphism, II", 2014).  This gives the same
# ordered partitions as counting against every cell.  Within every cell the
# counts against the cells of the round before are equal.  So an unsplit
# cell neither groups nor orders anything, and the count against the last
# part of a split is the whole cell's count less the counts against the other
# parts, which come before it in the count vector.  At the root every degree
# cell but the last is fresh; after individualizing v only [v] is.
#
# A cell is a bitmask of its vertices; each cell's vertices are in increasing
# order wherever a list would hold them, so the mask loses nothing.  A round
# counts every vertex's neighbours in a fresh cell at once, as bit planes: bit
# v of plane k is bit k of v's count, at most 15 at n <= 16, so four planes.
# Splitting a cell by the planes in turn, most significant plane of the first
# fresh cell first and the 0-side before the 1-side, puts its parts in
# increasing order of count vector.  A leaf's code is built column by column.
#
# The same search yields generators of the automorphism group: the twin
# transpositions it prunes by, and the map from the best leaf so far to
# every later leaf with the same code.  Every leaf of the unpruned tree is the
# image of an explored leaf under the twin transpositions, and Aut(G) acts
# freely on the leaves, so together these generate Aut(G).
# ---------------------------------------------------------------------------


class CanonicalForm(namedtuple("CanonicalForm", "n code")):
    """Relabeling-invariant code: upper-triangle bits under the canonical order.

    The code packs pair (i, j) bits in column-major order (0,1), (0,2),
    (1,2), (0,3), ... with the first pair most significant, so integer
    comparison equals lexicographic bit-string comparison.  It is the graph6
    body, less padding, of the graph in canonical labeling: _unpack(n, code)
    builds that graph's rows.  Forms order by (n, code).
    """

    __slots__ = ()


def _refine(rows, cells, fresh):
    """Equitable refinement of an ordered partition (a list of vertex
    bitmasks) whose cells are equitable against every cell but the fresh ones
    (bitmasks too, in partition order), counted in bit planes as above."""
    while fresh:
        planes = []
        for f in fresh:
            if not f & (f - 1):
                planes.append(rows[f.bit_length() - 1])
                continue
            # ripple-add the rows of f into the planes
            p0 = p1 = p2 = p3 = 0
            while f:
                low = f & -f
                f ^= low
                r = rows[low.bit_length() - 1]
                carry = p0 & r
                p0 ^= r
                if carry:
                    r = p1 & carry
                    p1 ^= carry
                    if r:
                        carry = p2 & r
                        p2 ^= r
                        p3 |= carry
            # a small cell's high planes are zero, and split nothing
            if p3:
                planes.append(p3)
            if p2:
                planes.append(p2)
            if p1:
                planes.append(p1)
            planes.append(p0)
        new_cells = []
        split = []
        for cell in cells:
            if not cell & (cell - 1):
                new_cells.append(cell)
                continue
            parts = None
            for plane in planes:
                one = cell & plane
                if not one or one == cell:
                    continue  # splits no part of the cell
                if parts is None:
                    parts = [cell ^ one, one]
                    continue
                sub = []
                for part in parts:
                    one = part & plane
                    if one and one != part:
                        sub += (part ^ one, one)
                    else:
                        sub.append(part)
                parts = sub
            if parts is None:
                new_cells.append(cell)
            else:
                new_cells += parts
                split += parts[:-1]
        if len(new_cells) == len(rows):
            return new_cells  # discrete: nothing left to split
        cells = new_cells
        fresh = split
    return cells


def _canonical_code_order(rows, n):
    """Return (code, order, generators): the minimal leaf code, one vertex
    order achieving it, and permutations (tuples of vertex images) that
    generate the automorphism group."""
    by_deg = [0] * n
    for v in range(n):
        by_deg[rows[v].bit_count()] |= 1 << v
    cells = [cell for cell in by_deg if cell]
    start = _refine(rows, cells, cells[:-1])
    best_code = None
    best_order = None
    generators = []
    twins = set()
    stack = [start]
    while stack:
        cells = stack.pop()
        if len(cells) == n:
            # position p is bit n-1-p, so the row of order[j], relabeled and
            # shifted down by n-j, is column j of the code: pairs (0, j) to
            # (j-1, j), most significant first
            order = [cell.bit_length() - 1 for cell in cells]
            at = [0] * n
            bit = 1 << n
            for v in order:
                bit >>= 1
                at[v] = bit
            code = 0
            placed = cells[0]
            for j in range(1, n):
                r = rows[order[j]] & placed
                placed |= cells[j]
                column = 0
                while r:
                    low = r & -r
                    r ^= low
                    column |= at[low.bit_length() - 1]
                code = code << j | column >> (n - j)
            if best_code is None or code < best_code:
                best_code = code
                best_order = tuple(order)
            elif code == best_code:
                image = [0] * n
                for u, v in zip(best_order, order):
                    image[u] = v
                generators.append(tuple(image))
            continue
        for idx, cell in enumerate(cells):
            if cell & (cell - 1):
                break
        reps = []
        rest = cell
        while rest:
            low = rest & -rest
            rest ^= low
            v = low.bit_length() - 1
            rv = rows[v]
            for r in reps:
                if (rv & ~(1 << r)) == (rows[r] & ~low):
                    twins.add((r, v))
                    break
            else:
                reps.append(v)
        pre = cells[:idx]
        post = cells[idx + 1:]
        for v in reps:
            low = 1 << v
            stack.append(_refine(rows, pre + [low, cell ^ low] + post, [low]))
    for r, v in twins:
        image = list(range(n))
        image[r], image[v] = v, r
        generators.append(tuple(image))
    return best_code, best_order, generators


def canonical_form(g: Graph) -> CanonicalForm:
    """Canonical code of g; equal codes iff isomorphic (exact at supported orders)."""
    if g.n > CANONICAL_MAX_N:
        raise OrderTooLargeError(f"canonical forms support n <= {CANONICAL_MAX_N}, got {g.n}")
    code, _, _ = _canonical_code_order(g.rows, g.n)
    return CanonicalForm(g.n, code)


def canonical_relabel(g: Graph) -> Graph:
    """Copy of g relabeled into its canonical vertex order."""
    return Graph(g.n, _unpack(g.n, canonical_form(g).code))
