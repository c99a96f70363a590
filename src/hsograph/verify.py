"""Machine checks for every HSO bound and equality characterization.

Each checker takes one graph, verifies the numeric inequality at the given
tolerance, flags which side (if any) is attained, classifies the graph
structurally, and reports whether the numeric equality flags agree with the
structural characterization the statement asserts.  A bound violation or a
numeric/structural disagreement is a hard failure for the campaigns built
on top of these.

Family membership is decided by families.is_member from degrees and
connectivity, with no canonical labeling, so every checker takes any order
that graph6 can carry (n <= 62).
"""

from __future__ import annotations

import logging
import math
from collections.abc import Callable
from dataclasses import dataclass

from .families import closed_form_bound, is_member
from .graph import BICYCLIC, TREE, UNICYCLIC, Graph
from .indices import SQRT2, edge_term, edge_term_bounds, hso

logger = logging.getLogger(__name__)

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


class DisconnectedInputError(ValueError):
    pass


class NotATreeError(ValueError):
    pass


class NotUnicyclicError(ValueError):
    pass


class NotBicyclicError(ValueError):
    pass


class OrderTooSmallError(ValueError):
    pass


class DomainViolationError(ValueError):
    pass


class UnknownCheckError(ValueError):
    pass


@dataclass
class TheoremReport:
    """Outcome of checking one theorem on one graph."""

    theorem: str
    graph6: str
    n: int
    value: float
    bound_lower: float | None
    bound_upper: float | None
    holds: bool
    equality_lower: bool
    equality_upper: bool
    structural_class: str
    consistent: bool
    note: str = ""

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


def _slack(bound: float, tolerance: float) -> float:
    return tolerance * max(1.0, abs(bound))


def _close(value: float, bound: float, tolerance: float) -> bool:
    return abs(value - bound) <= _slack(bound, tolerance)


def _require_connected(g: Graph):
    if not g.is_connected():
        raise DisconnectedInputError("checker requires a connected graph")


def is_heavy_independent(g: Graph) -> bool:
    """True when g is connected, not regular, and its vertices of degree above
    the minimum form an independent set.

    Equivalently: every edge has an endpoint of minimum degree.  Together
    with the regular graphs these are exactly the graphs attaining the upper
    end of the SO/HSO sandwich.
    """
    _require_connected(g)
    return _heavy_independent(g)


def _heavy_independent(g: Graph) -> bool:
    """is_heavy_independent for a graph already known to be connected."""
    dmin = g.min_degree
    if g.max_degree == dmin:
        return False
    degs = g.degrees
    return all(degs[u] == dmin or degs[v] == dmin for u, v in g.edges())


def check_sandwich(g: Graph, tolerance: float = DEFAULT_TOLERANCE) -> TheoremReport:
    """SO(G)/maxdeg <= HSO(G) <= SO(G)/mindeg.

    The lower end is attained exactly by regular graphs; the upper end by
    regular graphs and by the heavy-independent class.
    """
    _require_connected(g)
    if g.n < 2:
        raise OrderTooSmallError("sandwich comparison needs at least one edge")
    iv = hso(g)
    regular = g.max_degree == g.min_degree
    heavy = not regular and _heavy_independent(g)
    return _bounded_report(
        "sandwich", g, iv.hso, iv.so / g.max_degree, iv.so / g.min_degree,
        ("regular", regular),
        ("regular" if regular else "heavy-independent", regular or heavy),
        tolerance,
    )


def _bounded_report(theorem, g, value, lower, upper, matches_lower, matches_upper,
                    tolerance, note=""):
    eq_lower = lower is not None and _close(value, lower, tolerance)
    eq_upper = upper is not None and _close(value, upper, tolerance)
    holds = True
    if lower is not None and value < lower - _slack(lower, tolerance):
        holds = False
    if upper is not None and value > upper + _slack(upper, tolerance):
        holds = False
    consistent = True
    if lower is not None:
        consistent = consistent and (eq_lower == matches_lower[1])
    if upper is not None:
        consistent = consistent and (eq_upper == matches_upper[1])
    tags = []
    for name, flag in (matches_lower, matches_upper):
        if flag and name not in tags:
            tags.append(name)
    structural = "+".join(tags) if tags else "none"
    return TheoremReport(
        theorem, g.to_graph6(), g.n, value, lower, upper,
        holds, eq_lower, eq_upper, structural, consistent, note,
    )


def check_tree_bounds(t: Graph, tolerance: float = DEFAULT_TOLERANCE) -> TheoremReport:
    """Tree sandwich: path minimizes, star maximizes."""
    if t.classify() != TREE:
        raise NotATreeError("input is not a tree")
    if t.n < 3:
        raise OrderTooSmallError("tree bounds are stated for n >= 3")
    lower, upper = closed_form_bound("tree-bounds", t.n)
    return _bounded_report(
        "tree-bounds", t, hso(t).hso, lower, upper,
        ("path", is_member(t, "path")), ("star", is_member(t, "star")),
        tolerance,
    )


def check_general_lower(g: Graph, tolerance: float = DEFAULT_TOLERANCE) -> TheoremReport:
    """HSO(G) >= sqrt(2) n for connected G, attained exactly by cycles."""
    _require_connected(g)
    if g.n < 3:
        raise OrderTooSmallError("the general lower bound is stated for n >= 3")
    lower, _ = closed_form_bound("general-lower", g.n)
    return _bounded_report(
        "general-lower", g, hso(g).hso, lower, None,
        ("cycle", is_member(g, "cycle")), ("", False),
        tolerance,
    )


def check_unicyclic_bounds(g: Graph, tolerance: float = DEFAULT_TOLERANCE) -> TheoremReport:
    """Unicyclic sandwich: cycle minimizes, one-hub triangle-pendant graph maximizes."""
    if g.classify() != UNICYCLIC:
        raise NotUnicyclicError("input is not unicyclic")
    lower, upper = closed_form_bound("unicyclic-bounds", g.n)
    report = _bounded_report(
        "unicyclic-bounds", g, hso(g).hso, lower, upper,
        ("cycle", is_member(g, "cycle")), ("sprime", is_member(g, "sprime")),
        tolerance,
    )
    if g.n <= 4 and report.equality_upper:
        # At n <= 4 the maximizer family degenerates (sprime:3 is the
        # triangle); record the fact instead of treating it as a finding.
        report.note = "upper equality at degenerate order"
        logger.info("unicyclic upper equality at n=%d for %s", g.n, report.graph6)
    return report


def check_bicyclic_lower(g: Graph, tolerance: float = DEFAULT_TOLERANCE) -> TheoremReport:
    """Bicyclic lower bound, attained exactly by two cycles joined by a bridge
    or merged along an edge."""
    if g.classify() != BICYCLIC:
        raise NotBicyclicError("input is not bicyclic")
    lower, _ = closed_form_bound("bicyclic-lower", g.n)
    bridged = is_member(g, "cprime")
    return _bounded_report(
        "bicyclic-lower", g, hso(g).hso, lower, None,
        ("cprime" if bridged else "cdprime", bridged or is_member(g, "cdprime")), ("", False),
        tolerance,
        "" if g.n >= 6 else "bridged pair needs n >= 6; only merged pairs exist",
    )


def check_bicyclic_upper(g: Graph, tolerance: float = DEFAULT_TOLERANCE) -> TheoremReport:
    """Bicyclic upper bound, attained exactly by K4-minus-an-edge with all
    extra pendants on one degree-3 vertex."""
    if g.classify() != BICYCLIC:
        raise NotBicyclicError("input is not bicyclic")
    _, upper = closed_form_bound("bicyclic-upper", g.n)
    return _bounded_report(
        "bicyclic-upper", g, hso(g).hso, None, upper,
        ("", False), ("sdprime", is_member(g, "sdprime")),
        tolerance,
    )


def check_edge_count_bounds(g: Graph, tolerance: float = DEFAULT_TOLERANCE) -> TheoremReport:
    """Bounds linear in the edge count with maximum/minimum degree coefficients;
    both ends are attained exactly by regular graphs."""
    _require_connected(g)
    if g.n < 2:
        raise OrderTooSmallError("edge-count bounds need at least one edge")
    dmax, dmin = g.max_degree, g.min_degree
    regular = dmax == dmin
    return _bounded_report(
        "edge-count-bounds", g, hso(g).hso,
        (1.0 + dmin / (math.sqrt(dmax * dmax + dmin * dmin) + dmax)) * g.m,
        (dmax / dmin + SQRT2 - 1.0) * g.m,
        ("regular", regular), ("regular", regular),
        tolerance,
    )


def check_lemma_edge_bounds(g: Graph, tolerance: float = DEFAULT_TOLERANCE) -> TheoremReport:
    """Per-edge interval check, parameterized both by the maximum degree and
    by n - 1, with the stated equality degree patterns.

    Pendant edges lie in [sqrt(5), sqrt(D^2+1)] with the lower end at degrees
    (2, 1) and the upper end at (D, 1); edges between degree >= 2 endpoints
    lie in [sqrt(2), sqrt(D^2+4)/2] with the lower end at equal degrees and
    the upper end at (D, 2).

    Every verdict depends only on the edge's sorted degree pair, so each
    distinct pair is judged once per call and the edges, walked in order,
    only collect the first four offences for the note.
    """
    _require_connected(g)
    if g.n < 3:
        raise OrderTooSmallError("per-edge bounds need n >= 3")
    degs = g.degrees
    caps = (g.max_degree, g.n - 1)
    verdicts = {}
    bad = []
    for u, v in g.edges():
        du, dv = degs[u], degs[v]
        pair = (du, dv) if du <= dv else (dv, du)
        verdict = verdicts.get(pair)
        if verdict is None:
            verdict = verdicts[pair] = _lemma_verdict(*pair, caps, tolerance)
        offences = verdict[2]
        if offences and len(bad) < 4:
            bad.extend((u, v, cap, kind) for cap, kind in offences)
    kinds = {kind for _, _, offences in verdicts.values() for _, kind in offences}
    note = "" if not bad else f"offending edges: {bad[:4]}"
    return TheoremReport(
        "lemma-edge-bounds", g.to_graph6(), g.n, hso(g).hso, None, None,
        "outside" not in kinds,
        any(eq_lower for eq_lower, _, _ in verdicts.values()),
        any(eq_upper for _, eq_upper, _ in verdicts.values()),
        "none", "equality-pattern" not in kinds, note,
    )


def _lemma_verdict(lo_deg: int, hi_deg: int, caps: tuple[int, int], tolerance: float):
    """(eq_lower, eq_upper, offences) of every edge whose sorted degrees are
    (lo_deg, hi_deg): whether the term meets either end of its interval under
    some cap, and each (cap, kind) in cap order where it leaves its interval
    ("outside") or misses its equality pattern ("equality-pattern")."""
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


def check_pendant_split_monotone(n: int, grid: int) -> bool:
    """Scan the split weight over a uniform grid and confirm it never increases.

    True iff consecutive grid values are non-increasing and every central
    finite-difference slope is at most +1e-9.
    """
    if n < 5:
        raise DomainViolationError("the split weight needs n >= 5")
    if grid < 2:
        raise DomainViolationError("grid must have at least 2 points")
    hi = (n - 3) // 2
    if hi <= 1:
        return True  # single-point domain
    step = (hi - 1.0) / (grid - 1)
    values = [pendant_split_weight(1.0 + i * step, n) for i in range(grid)]
    for prev, cur in zip(values, values[1:]):
        if cur > prev + 1e-9:
            return False
    for i in range(1, grid - 1):
        slope = (values[i + 1] - values[i - 1]) / (2.0 * step)
        if slope > 1e-9:
            return False
    return True


@dataclass(frozen=True)
class Theorem:
    """A checked statement: its checker, the class it is stated over, and the
    least order it is stated for."""

    checker: Callable[[Graph, float], TheoremReport]
    graph_class: str
    min_n: int


THEOREMS = {
    "sandwich": Theorem(check_sandwich, "connected", 2),
    "tree-bounds": Theorem(check_tree_bounds, "tree", 3),
    "general-lower": Theorem(check_general_lower, "connected", 3),
    "unicyclic-bounds": Theorem(check_unicyclic_bounds, "unicyclic", 3),
    "bicyclic-lower": Theorem(check_bicyclic_lower, "bicyclic", 4),
    "bicyclic-upper": Theorem(check_bicyclic_upper, "bicyclic", 4),
    "edge-count-bounds": Theorem(check_edge_count_bounds, "connected", 2),
    "lemma-edge-bounds": Theorem(check_lemma_edge_bounds, "connected", 3),
}


def check_theorem(theorem: str, g: Graph, tolerance: float = DEFAULT_TOLERANCE) -> TheoremReport:
    """Dispatch a graph to the checker registered under the theorem identifier."""
    try:
        checker = THEOREMS[theorem].checker
    except KeyError:
        raise UnknownCheckError(f"unknown theorem identifier {theorem!r}") from None
    return checker(g, tolerance)
