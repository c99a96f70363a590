"""Machine checks for every HSO bound and equality characterization.

check_theorem places one graph in the class and order range that THEOREMS
registers for the statement, verifies the numeric inequality at the given
tolerance, flags which side (if any) is attained, classifies the graph
structurally, and reports whether the numeric equality flags agree with the
structural characterization the statement asserts.  A bound violation or a
numeric/structural disagreement is a hard failure for the campaigns built
on top of these.

The class bounds and their equality families come from families._EXTREMES,
and membership is decided by families.is_member from degrees and
connectivity, so every checker takes any order that graph6 can carry
(n <= 62).

Every checker reads per-graph facts that are computed at most once: the
graph's m, max_degree and min_degree fields, set as it is made, and the
HSO, SO and distinct sorted degree pairs that one indices pass over the
edges memoizes on it.  No checker walks the edges again, except the lemma's
note on offending edges, and that only when there is an offence.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import lru_cache, partial

from .families import _EXTREMES, closed_form_hso, is_member
from .graph import DISCONNECTED, Graph
from .indices import SQRT2, DomainViolationError, _profile, edge_term, edge_term_bounds

DEFAULT_TOLERANCE = 1e-9

CSV_COLUMNS = (
    "theorem",
    "graph6",
    "value",
    "lower",
    "upper",
    "eq_lower",
    "eq_upper",
    "structural_class",
    "consistent",
)


class OrderTooSmallError(DomainViolationError):
    pass


class UnknownCheckError(ValueError):
    pass


class TheoremReport(namedtuple("TheoremReport", "theorem graph6 n value bound_lower bound_upper "
                               "holds equality_lower equality_upper structural_class "
                               "consistent note", defaults=("",))):
    """Outcome of checking one theorem on one graph, complete as the checker
    makes it."""

    __slots__ = ()

    def to_dict(self) -> dict:
        return {
            "theorem": self.theorem,
            "graph6": self.graph6,
            "n": self.n,
            "value": self.value,
            "lower": self.bound_lower,
            "upper": self.bound_upper,
            "eq_lower": self.equality_lower,
            "eq_upper": self.equality_upper,
            "structural_class": self.structural_class,
            "consistent": self.consistent,
            "holds": self.holds,
            "note": self.note,
        }

    def csv_row(self) -> list:
        return [
            self.theorem,
            self.graph6,
            repr(self.value),
            "" if self.bound_lower is None else repr(self.bound_lower),
            "" if self.bound_upper is None else repr(self.bound_upper),
            int(self.equality_lower),
            int(self.equality_upper),
            self.structural_class,
            int(self.consistent),
        ]

    def text_line(self) -> str:
        return (f"{self.theorem} {self.graph6} value={self.value!r} lower={self.bound_lower!r} "
                f"upper={self.bound_upper!r} eq_lower={self.equality_lower} "
                f"eq_upper={self.equality_upper} class={self.structural_class} "
                f"consistent={self.consistent} holds={self.holds}")


def _slack(bound: float, tolerance: float) -> float:
    return tolerance * max(1.0, abs(bound))


def is_heavy_independent(g: Graph) -> bool:
    """True when g is connected, not regular, and its vertices of degree above
    the minimum form an independent set.

    Equivalently: every edge has an endpoint of minimum degree, so every
    degree pair (i, j) has i = min_degree.  With the regular graphs these
    are exactly the graphs attaining the upper end of the SO/HSO sandwich.
    """
    if not g.is_connected():
        raise DomainViolationError("is_heavy_independent requires a connected graph")
    dmin = g.min_degree
    return g.max_degree != dmin and all(lo == dmin for lo, _ in _profile(g)[2])


def _sandwich(theorem: str, g: Graph, tolerance: float) -> TheoremReport:
    """The lower end is attained exactly by regular graphs; the upper end by
    regular graphs and by the heavy-independent class."""
    value, so, _ = _profile(g)
    dmax, dmin = g.max_degree, g.min_degree
    regular = dmax == dmin
    return _bounded_report(
        theorem, g, value, so / dmax, so / dmin,
        ("regular", regular),
        ("regular" if regular else "heavy-independent", regular or is_heavy_independent(g)),
        tolerance,
    )


def _bounded_report(theorem, g, value, lower, upper, matches_lower, matches_upper, tolerance):
    """Each matches_* is (structural tag, whether g is in that side's equality
    class); a side whose bound is None is neither checked nor attained.  Each
    bounded side is tested once, with the slack _slack(bound, tolerance)
    computed inline."""
    lower_tag, in_lower = matches_lower
    upper_tag, in_upper = matches_upper
    holds = consistent = True
    eq_lower = eq_upper = False
    if lower is not None:
        slack = tolerance * max(1.0, abs(lower))
        eq_lower = abs(value - lower) <= slack
        holds = not value < lower - slack
        consistent = eq_lower == in_lower
    if upper is not None:
        slack = tolerance * max(1.0, abs(upper))
        eq_upper = abs(value - upper) <= slack
        holds = holds and not value > upper + slack
        consistent = consistent and eq_upper == in_upper
    if in_lower:
        tag = lower_tag if not in_upper or upper_tag == lower_tag else f"{lower_tag}+{upper_tag}"
    else:
        tag = upper_tag if in_upper else "none"
    return TheoremReport(
        theorem, g.to_graph6(), g.n, value, lower, upper,
        holds, eq_lower, eq_upper, tag, consistent,
    )


def _class_bounds(theorem: str, g: Graph, tolerance: float) -> TheoremReport:
    """Each bounded side is a closed form from families._EXTREMES, attained
    exactly by the family kinds listed there for that side."""
    lower, upper = closed_form_bound(theorem, g.n)
    matches = []
    for bound, (kinds, _, _) in zip((lower, upper), _EXTREMES[THEOREMS[theorem].graph_class]):
        kind = None if bound is None else next((k for k in kinds if is_member(g, k)), None)
        matches.append((kind, kind is not None))
    report = _bounded_report(theorem, g, _profile(g)[0], lower, upper, *matches, tolerance)
    if theorem == "bicyclic-lower" and g.n < 6:
        return report._replace(note="bridged pair needs n >= 6; only merged pairs exist")
    if theorem == "unicyclic-bounds" and g.n <= 4 and report.equality_upper:
        # At n <= 4 the maximizer family degenerates (sprime:3 is the
        # triangle); record the fact instead of treating it as a finding.
        return report._replace(note="upper equality at degenerate order")
    return report


def _edge_count_bounds(theorem: str, g: Graph, tolerance: float) -> TheoremReport:
    """Both ends are attained exactly by regular graphs."""
    dmax, dmin, m = g.max_degree, g.min_degree, g.m
    regular = dmax == dmin
    return _bounded_report(
        theorem, g, _profile(g)[0],
        (1.0 + dmin / (math.sqrt(dmax * dmax + dmin * dmin) + dmax)) * m,
        (dmax / dmin + SQRT2 - 1.0) * m,
        ("regular", regular), ("regular", regular),
        tolerance,
    )


def _lemma_edge_bounds(theorem: str, g: Graph, tolerance: float) -> TheoremReport:
    """Per-edge interval check, parameterized both by the maximum degree and
    by n - 1, with the stated equality degree patterns.

    Pendant edges lie in [sqrt(5), sqrt(D^2+1)] with the lower end at degrees
    (2, 1) and the upper end at (D, 1); edges between degree >= 2 endpoints
    lie in [sqrt(2), sqrt(D^2+4)/2] with the lower end at equal degrees and
    the upper end at (D, 2).

    Every verdict depends only on the edge's sorted degree pair, the caps
    and the tolerance, so each (pair, caps, tolerance) is judged once per
    process, and the graph's distinct pairs come from the memoized HSO
    pass.  Only when some verdict has an offence are the edges walked, in
    order, to collect the first four offences for the note.
    """
    value, _, pairs = _profile(g)
    caps = (g.max_degree, g.n - 1)
    verdicts = {pair: _lemma_verdict(*pair, caps, tolerance) for pair in pairs}
    kinds = {kind for _, _, offences in verdicts.values() for _, kind in offences}
    note = ""
    if kinds:
        degs = g.degrees
        bad = []
        for u, v in g.edges():
            du, dv = degs[u], degs[v]
            bad.extend((u, v, cap, kind)
                       for cap, kind in verdicts[(du, dv) if du <= dv else (dv, du)][2])
            if len(bad) >= 4:
                break
        note = f"offending edges: {bad[:4]}"
    return TheoremReport(
        theorem, g.to_graph6(), g.n, value, None, None,
        "outside" not in kinds,
        any(eq_lower for eq_lower, _, _ in verdicts.values()),
        any(eq_upper for _, eq_upper, _ in verdicts.values()),
        "none", "equality-pattern" not in kinds, note,
    )


@lru_cache(maxsize=None)
def _lemma_verdict(lo_deg: int, hi_deg: int, caps: tuple[int, int], tolerance: float):
    """(eq_lower, eq_upper, offences) of every edge whose sorted degrees are
    (lo_deg, hi_deg): whether the term meets either end of its interval under
    some cap, and each (cap, kind) in cap order where it leaves its interval
    ("outside") or misses its equality pattern ("equality-pattern").
    Memoized for the process; the result is an immutable tuple."""
    term = edge_term(lo_deg, hi_deg)
    eq_lower = eq_upper = False
    offences = []
    for cap in caps:
        lo_bound, hi_bound = edge_term_bounds(lo_deg, hi_deg, cap)
        # lower end at (2, 1) or equal degrees; upper end at (cap, 1) or (cap, 2)
        pat_lower = hi_deg == 2 if lo_deg == 1 else lo_deg == hi_deg
        pat_upper = hi_deg == cap and lo_deg <= 2
        lo_slack = _slack(lo_bound, tolerance)
        hi_slack = _slack(hi_bound, tolerance)
        eq_lo = abs(term - lo_bound) <= lo_slack
        eq_hi = abs(term - hi_bound) <= hi_slack
        eq_lower = eq_lower or eq_lo
        eq_upper = eq_upper or eq_hi
        if not lo_bound - lo_slack <= term <= hi_bound + hi_slack:
            offences.append((cap, "outside"))
        if eq_lo != pat_lower or eq_hi != pat_upper:
            offences.append((cap, "equality-pattern"))
    return eq_lower, eq_upper, tuple(offences)


def pendant_split_weight(x: float, n: int) -> float:
    """Pendant HSO load when n-3 pendants split as (x, n-3-x) between two hubs
    of degrees x+2 and n-x-1.

    Defined for real 1 <= x <= floor((n-3)/2) with n >= 5.
    """
    if n < 5:
        raise DomainViolationError("the split weight needs n >= 5")
    hi = (n - 3) // 2
    if not 1.0 <= x <= hi:
        raise DomainViolationError(f"x = {x} outside [1, {hi}]")
    a = x + 2.0
    b = n - x - 1.0
    return x * math.sqrt(a * a + 1.0) + (n - x - 3.0) * math.sqrt(b * b + 1.0)


def check_pendant_split_monotone(n: int) -> bool:
    """Decide in integer arithmetic that the split weight never increases on
    its domain 1 <= x <= hi = floor((n-3)/2).

    With h(t) = (t-2)*sqrt(t^2+1) the weight is h(x+2) + h(n-1-x), and
    h''(t)*(t^2+1)^(3/2) = 2t^3+3t-2 > 0 for t >= 1, so the weight is convex
    in x and never increases on the domain iff its slope at x = hi is <= 0.
    """
    if n < 5:
        raise OrderTooSmallError("f-monotone needs n >= 5")
    return _split_slope_nonpositive((n - 3) // 2, n)


def _split_slope_nonpositive(x: int, n: int) -> bool:
    """Whether the slope h'(a) - h'(b) of the split weight at integer x is
    <= 0, with a = x+2 and b = n-1-x.  As h'(t) = P(t)/sqrt(t^2+1) with
    P(t) = 2t^2-2t+1 > 0, that is P(a)^2 (b^2+1) <= P(b)^2 (a^2+1)."""
    a, b = x + 2, n - 1 - x
    pa, pb = 2 * a * a - 2 * a + 1, 2 * b * b - 2 * b + 1
    return pa * pa * (b * b + 1) <= pb * pb * (a * a + 1)


class Theorem(namedtuple("Theorem", "checker graph_class min_n bounds",
                         defaults=((False, False),))):
    """A checked statement: its checker, class and least order, and whether
    its class's least and greatest HSO in families._EXTREMES bound it.  The checker
    maps (theorem, g, tolerance), g already in that class and order, to a TheoremReport."""

    __slots__ = ()

    def covers(self, graph_class: str) -> bool:
        """Whether the theorem speaks of the graphs of graph_class: its own
        class, or any class when it is stated over connected graphs."""
        return self.graph_class in (graph_class, "connected")


THEOREMS = {
    # SO(G)/maxdeg <= HSO(G) <= SO(G)/mindeg
    "sandwich": Theorem(_sandwich, "connected", 2),
    # HSO(path) <= HSO(T) <= HSO(star) for every tree T
    "tree-bounds": Theorem(_class_bounds, "tree", 3, (True, True)),
    # HSO(G) >= HSO(cycle) = sqrt(2) n for every connected G
    "general-lower": Theorem(_class_bounds, "connected", 3, (True, False)),
    # HSO(G) <= HSO(star) = (n-1) sqrt(n^2-2n+2) for every connected G
    "star-max": Theorem(_class_bounds, "connected", 2, (False, True)),
    # HSO(cycle) <= HSO(G) <= HSO(sprime) for every unicyclic G
    "unicyclic-bounds": Theorem(_class_bounds, "unicyclic", 3, (True, True)),
    # HSO(G) >= HSO(cprime) = HSO(cdprime) for every bicyclic G
    "bicyclic-lower": Theorem(_class_bounds, "bicyclic", 4, (True, False)),
    # HSO(G) <= HSO(sdprime) for every bicyclic G
    "bicyclic-upper": Theorem(_class_bounds, "bicyclic", 4, (False, True)),
    # (1 + mindeg/(sqrt(maxdeg^2+mindeg^2) + maxdeg)) m <= HSO(G) <= (maxdeg/mindeg + sqrt(2)-1) m
    "edge-count-bounds": Theorem(_edge_count_bounds, "connected", 2),
    # every edge term lies in its pendant or inner interval, under both caps
    "lemma-edge-bounds": Theorem(_lemma_edge_bounds, "connected", 3),
}


@lru_cache(maxsize=None)
def closed_form_bound(theorem: str, n: int) -> tuple[float | None, float | None]:
    """Bound values (lower, upper) at order n of a THEOREMS row with a bounded
    side, None on an unbounded side.  They start at the least order of the
    bounded closed forms, which can lie below the theorem's own (K2 for trees).
    Memoized per (theorem, n); a refused input raises again on every call."""
    record = THEOREMS.get(theorem)
    if record is None or not any(record.bounds):
        raise UnknownCheckError(f"no closed-form bound for theorem {theorem!r}")
    bounds_lower, bounds_upper = record.bounds
    (_, lower, lower_n), (_, upper, upper_n) = _EXTREMES[record.graph_class]
    min_n = max(lower_n if bounds_lower else 0, upper_n if bounds_upper else 0)
    if n < min_n:
        raise OrderTooSmallError(f"{theorem} is stated for n >= {min_n}, got {n}")
    return (closed_form_hso(lower(n)) if bounds_lower else None,
            closed_form_hso(upper(n)) if bounds_upper else None)


def check_theorem(theorem: str, g: Graph, tolerance: float = DEFAULT_TOLERANCE) -> TheoremReport:
    """Check g against the registered theorem, after checking that g lies in
    the theorem's class and order range."""
    try:
        record = THEOREMS[theorem]
    except KeyError:
        raise UnknownCheckError(f"unknown theorem identifier {theorem!r}") from None
    graph_class = g.classify()
    if not record.covers(graph_class) or graph_class == DISCONNECTED:
        raise DomainViolationError(
            f"{theorem} is stated over {record.graph_class} graphs, not {graph_class}")
    if g.n < record.min_n:
        raise OrderTooSmallError(f"{theorem} is stated for n >= {record.min_n}, got {g.n}")
    return record.checker(theorem, g, tolerance)


# the public checkers: check_<theorem>(g, tolerance) is check_theorem(<theorem>, g, tolerance)
check_sandwich = partial(check_theorem, "sandwich")
check_tree_bounds = partial(check_theorem, "tree-bounds")
check_general_lower = partial(check_theorem, "general-lower")
check_star_max = partial(check_theorem, "star-max")
check_unicyclic_bounds = partial(check_theorem, "unicyclic-bounds")
check_bicyclic_lower = partial(check_theorem, "bicyclic-lower")
check_bicyclic_upper = partial(check_theorem, "bicyclic-upper")
check_edge_count_bounds = partial(check_theorem, "edge-count-bounds")
check_lemma_edge_bounds = partial(check_theorem, "lemma-edge-bounds")
