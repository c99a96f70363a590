"""Named extremal graph families: constructors, closed-form HSO values, a
recognizer that decides membership from degrees, and the one table of which
families attain the least and the greatest HSO in each graph class.

Each family has a fixed labeling convention (hub and cycle vertices first,
pendants last) so serialized output is reproducible byte for byte.  The
closed forms are evaluated independently of the graph constructions, which
lets tests cross-validate one against the other.

Kinds and their parameters:

  path:N star:N cycle:N complete:N   -- single parameter, the order
  tripend:A1,A2,A3                   -- triangle with A1 >= A2 >= A3 pendants
                                        on its three vertices (n = A1+A2+A3+3)
  sprime:N                           -- tripend with all pendants on one vertex
  cprime:P,Q                         -- cycles C_P and C_Q joined by a bridge
                                        edge (n = P+Q)
  cdprime:P,Q                        -- cycles C_P and C_Q merged along one
                                        shared edge (n = P+Q-2)
  c33:N                              -- two triangles merged at a vertex, with
                                        n-5 pendants on the merged vertex
  sdprime:N                          -- K4 minus an edge, with n-4 pendants on
                                        a degree-3 vertex
"""

from __future__ import annotations

import math
from collections import namedtuple

from .graph import Graph, from_edge_list
from .indices import SQRT2, SQRT5

_MIN_ORDER = {
    "path": 1,
    "star": 1,
    "cycle": 3,
    "complete": 1,
    "tripend": 3,
    "sprime": 3,
    "cprime": 6,
    "cdprime": 4,
    "c33": 5,
    "sdprime": 4,
}
KINDS = tuple(_MIN_ORDER)


class InvalidParametersError(ValueError):
    pass


class FamilySpec(namedtuple("FamilySpec", "kind n params")):
    """Symbolic description of one family member: kind, order and parameters.
    Every way of making one validates it: the constructor, _make and _replace."""

    __slots__ = ()

    def __new__(cls, kind: str, n: int, params: tuple[int, ...] = ()):
        if kind not in KINDS:
            raise InvalidParametersError(f"unknown family kind {kind!r}")
        if n < _MIN_ORDER[kind]:
            raise InvalidParametersError(f"{kind} needs order >= {_MIN_ORDER[kind]}, got {n}")
        if kind == "tripend":
            if len(params) != 3:
                raise InvalidParametersError("tripend takes three pendant counts")
            a1, a2, a3 = params
            if not a1 >= a2 >= a3 >= 0:
                raise InvalidParametersError(
                    "tripend pendant counts must be non-increasing and non-negative"
                )
            if a1 + a2 + a3 != n - 3:
                raise InvalidParametersError("tripend pendant counts must sum to n - 3")
        elif kind in ("cprime", "cdprime"):
            if len(params) != 2:
                raise InvalidParametersError(f"{kind} takes two cycle lengths")
            p, q = params
            if p < 3 or q < 3:
                raise InvalidParametersError("cycle lengths must be at least 3")
            expect = p + q if kind == "cprime" else p + q - 2
            if expect != n:
                raise InvalidParametersError(
                    f"{kind} cycle lengths ({p}, {q}) give order {expect}, not {n}"
                )
        elif params:
            raise InvalidParametersError(f"{kind} takes no extra parameters")
        return super().__new__(cls, kind, n, params)

    @classmethod
    def _make(cls, iterable):
        # the inherited _make, which _replace calls, would skip __new__
        return cls(*iterable)

    def label(self) -> str:
        if self.params:
            return f"{self.kind}:{','.join(str(p) for p in self.params)}"
        return f"{self.kind}:{self.n}"


def path(n: int) -> FamilySpec:
    return FamilySpec("path", n)


def star(n: int) -> FamilySpec:
    return FamilySpec("star", n)


def cycle(n: int) -> FamilySpec:
    return FamilySpec("cycle", n)


def complete(n: int) -> FamilySpec:
    return FamilySpec("complete", n)


def triangle_pendants(a1: int, a2: int, a3: int) -> FamilySpec:
    return FamilySpec("tripend", a1 + a2 + a3 + 3, (a1, a2, a3))


def sprime(n: int) -> FamilySpec:
    return FamilySpec("sprime", n)


def cprime(p: int, q: int) -> FamilySpec:
    return FamilySpec("cprime", p + q, (p, q))


def cdprime(p: int, q: int) -> FamilySpec:
    return FamilySpec("cdprime", p + q - 2, (p, q))


def c33(n: int) -> FamilySpec:
    return FamilySpec("c33", n)


def sdprime(n: int) -> FamilySpec:
    return FamilySpec("sdprime", n)


def _cycle_edges(vertices):
    k = len(vertices)
    return [(vertices[i], vertices[(i + 1) % k]) for i in range(k)]


def build(spec: FamilySpec) -> Graph:
    """Labeled realization of the family member described by spec."""
    n = spec.n
    kind = spec.kind
    if kind == "path":
        return from_edge_list(n, [(i, i + 1) for i in range(n - 1)])
    if kind == "star":
        return from_edge_list(n, [(0, i) for i in range(1, n)])
    if kind == "cycle":
        return from_edge_list(n, _cycle_edges(list(range(n))))
    if kind == "complete":
        return from_edge_list(n, [(i, j) for i in range(n) for j in range(i + 1, n)])
    if kind in ("tripend", "sprime"):
        a1, a2, a3 = spec.params if kind == "tripend" else (n - 3, 0, 0)
        edges = [(0, 1), (1, 2), (0, 2)]
        nxt = 3
        for hub, count in ((0, a1), (1, a2), (2, a3)):
            for _ in range(count):
                edges.append((hub, nxt))
                nxt += 1
        return from_edge_list(n, edges)
    if kind == "cprime":
        p, q = spec.params
        edges = _cycle_edges(list(range(p)))
        edges += _cycle_edges(list(range(p, p + q)))
        edges.append((0, p))  # bridge between the two cycles
        return from_edge_list(n, edges)
    if kind == "cdprime":
        p, q = spec.params
        edges = _cycle_edges(list(range(p)))
        # second cycle reuses the edge (0, 1); its other q-2 vertices follow
        edges += _cycle_edges([0] + list(range(p, p + q - 2)) + [1])[:-1]
        return from_edge_list(n, edges)
    if kind == "c33":
        edges = [(0, 1), (1, 2), (0, 2), (0, 3), (3, 4), (0, 4)]
        edges += [(0, i) for i in range(5, n)]
        return from_edge_list(n, edges)
    if kind == "sdprime":
        edges = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]  # K4 minus the edge (2, 3)
        edges += [(0, i) for i in range(4, n)]
        return from_edge_list(n, edges)
    raise InvalidParametersError(f"unknown family kind {kind!r}")


def is_member(g: Graph, kind: str) -> bool:
    """True when g is isomorphic to a member of the family kind.

    Decided from degrees and connectivity alone, so it works at any order.
    path, star, cycle, sprime and sdprime have one member per order;
    cprime and cdprime stand for every pair of cycle lengths.
    """
    n, m, degs = g.n, g.m, g.degrees
    top = g.max_degree
    if kind == "path":
        return m == n - 1 and top <= 2 and g.is_connected()
    if kind == "star":
        return m == n - 1 and top == n - 1
    if kind == "cycle":
        return n >= 3 and top == 2 == g.min_degree and g.is_connected()
    if kind == "sprime":
        return n >= 3 and m == n and top == n - 1
    if kind == "sdprime":
        return n >= 4 and m == n + 1 and top == n - 1 and sorted(degs)[-2] == 3
    if kind in ("cprime", "cdprime"):
        # degrees {3, 3, 2, ...} (all 2 or 3 and m = n + 1) with the two 3s
        # adjacent: two cycles sharing the edge between them (cdprime) or
        # hanging off its two ends (cprime)
        if not (g.min_degree == 2 and top == 3 and m == n + 1) or not g.is_connected():
            return False
        u, v = (w for w in range(n) if degs[w] == 3)
        return g.has_edge(u, v) and g.remove_edge(u, v).is_connected() == (kind == "cdprime")
    raise InvalidParametersError(f"no recognizer for family kind {kind!r}")


def _triangle_pendants_value(a1: int, a2: int, a3: int) -> float:
    """Closed form for a triangle carrying a1 >= a2 >= a3 pendants."""
    d1, d2, d3 = a1 + 2.0, a2 + 2.0, a3 + 2.0
    return math.fsum(
        [
            a1 * math.sqrt(d1 * d1 + 1.0),
            a2 * math.sqrt(d2 * d2 + 1.0),
            a3 * math.sqrt(d3 * d3 + 1.0),
            math.sqrt((d1 / d2) ** 2 + 1.0),
            math.sqrt((d2 / d3) ** 2 + 1.0),
            math.sqrt((d1 / d3) ** 2 + 1.0),
        ]
    )


def closed_form_hso(spec: FamilySpec) -> float:
    """The family's HSO value straight from its closed form."""
    n = spec.n
    kind = spec.kind
    if kind == "path":
        if n <= 2:
            return SQRT2 if n == 2 else 0.0
        return 2.0 * SQRT5 + (n - 3) * SQRT2
    if kind == "star":
        return (n - 1) * math.sqrt(n * n - 2.0 * n + 2.0)
    if kind == "cycle":
        return SQRT2 * n
    if kind == "complete":
        return SQRT2 * n * (n - 1) / 2.0
    if kind == "tripend":
        return _triangle_pendants_value(*spec.params)
    if kind == "sprime":
        return _triangle_pendants_value(n - 3, 0, 0)
    if kind in ("cprime", "cdprime"):
        return (n - 3) * SQRT2 + 2.0 * math.sqrt(13.0)
    if kind == "c33":
        return math.fsum(
            [
                (n - 5) * math.sqrt(n * n - 2.0 * n + 2.0),
                2.0 * math.sqrt(n * n - 2.0 * n + 5.0),
                2.0 * SQRT2,
            ]
        )
    if kind == "sdprime":
        return math.fsum(
            [
                (n - 4) * math.sqrt(n * n - 2.0 * n + 2.0),
                math.sqrt(n * n - 2.0 * n + 5.0),
                math.sqrt(n * n - 2.0 * n + 10.0) / 3.0,
                math.sqrt(13.0),
            ]
        )
    raise InvalidParametersError(f"unknown family kind {kind!r}")


# graph class -> (least HSO, greatest HSO); each extreme is (the family
# kinds that attain it, the member whose closed-form HSO at order n is its
# value, the least order of that closed form).  verify and search read the
# equality families and the bound values from here and nowhere else.
_EXTREMES = {
    "tree": ((("path",), path, 2), (("star",), star, 2)),
    "unicyclic": ((("cycle",), cycle, 3), (("sprime",), sprime, 3)),
    "bicyclic": ((("cprime", "cdprime"), lambda n: cdprime(3, n - 1), 4), (("sdprime",), sdprime, 4)),
    "connected": ((("cycle",), cycle, 3), (("star",), star, 2)),
}


def parse_family(text: str) -> FamilySpec:
    """Parse the CLI grammar kind:params, e.g. star:7, tripend:4,2,1, cprime:5,4."""
    kind, sep, rest = text.partition(":")
    if not sep or kind not in KINDS:
        raise InvalidParametersError(f"not a family spec: {text!r}")
    try:
        values = [int(part) for part in rest.split(",")]
    except ValueError:
        raise InvalidParametersError(f"non-integer family parameters in {text!r}") from None
    if kind == "tripend":
        if len(values) != 3:
            raise InvalidParametersError("tripend:A1,A2,A3 takes three integers")
        return triangle_pendants(*values)
    if kind in ("cprime", "cdprime"):
        if len(values) != 2:
            raise InvalidParametersError(f"{kind}:P,Q takes two integers")
        return cprime(*values) if kind == "cprime" else cdprime(*values)
    if len(values) != 1:
        raise InvalidParametersError(f"{kind}:N takes a single integer")
    return FamilySpec(kind, values[0])
