"""Counterexample and extremal-value campaigns over enumerated graph classes.

Two searches live here: the edge-addition monotonicity hunt (adding an
edge can lower HSO, and the witnesses prove it) and the per-order extremal
tables cross-checked against the characterized families.  Each one maps
sweep over the chained stream of its orders and folds each result as it
comes, so none holds a whole level; g.n tells the orders apart.  The
monotonicity hunt returns an iterator of its witnesses, in stream order.
check_conjecture_star_max summarizes the star-max theorem of
verify.THEOREMS at one order, the same checks as `verify star-max`.
"""

from __future__ import annotations

from collections import deque, namedtuple
from functools import partial
from itertools import chain, groupby, islice
from operator import attrgetter, itemgetter

from .families import _EXTREMES, is_member
from .graph import OrderTooLargeError, parse_graph6
from .indices import hso
from .enumeration import connected_graphs, graphs_in_class
from .verify import DEFAULT_TOLERANCE, THEOREMS, OrderTooSmallError, check_theorem

MONOTONICITY_MAX_N = 8

# A pooled sweep sends its workers slices of SLICE graphs, SLICES_PER_JOB per worker ahead.
# Smaller or larger slices, or fewer or more of them, ran no faster at n = 8 and 9 with
# two workers, and the window sets the pooled run's peak memory.
SLICE = 1024
SLICES_PER_JOB = 2


class MonotonicityWitness(namedtuple("MonotonicityWitness", "graph6_before graph6_after "
                                     "added_edge hso_before hso_after delta")):
    """A connected graph plus an edge whose insertion lowers HSO."""

    __slots__ = ()
    CSV_COLUMNS = ("graph6_before", "graph6_after", "u", "v", "hso_before", "hso_after", "delta")

    def to_dict(self) -> dict:
        return {**self._asdict(), "added_edge": list(self.added_edge)}

    def csv_row(self) -> list:
        return [self.graph6_before, self.graph6_after, *self.added_edge,
                repr(self.hso_before), repr(self.hso_after), repr(self.delta)]

    def text_line(self) -> str:
        # two-column interchange format: before after
        return f"{self.graph6_before} {self.graph6_after}"


class CampaignSummary:
    """Aggregate of one verification or search run over an enumerated class:
    its counters and tables start empty and fill as the run goes."""

    def __init__(self, label: str, graph_class: str, n_lo: int, n_hi: int):
        self.label, self.graph_class, self.n_lo, self.n_hi = label, graph_class, n_lo, n_hi
        self.graphs_examined = 0
        self.violations = []
        self.extremal_min, self.extremal_max = {}, {}
        self.details = {}

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "graph_class": self.graph_class,
            "n_lo": self.n_lo,
            "n_hi": self.n_hi,
            "graphs_examined": self.graphs_examined,
            "violations": self.violations,
            "extremal_min": {str(k): list(v) for k, v in self.extremal_min.items()},
            "extremal_max": {str(k): list(v) for k, v in self.extremal_max.items()},
            # the equality cases are in the reports; the keys keep the JSON layout
            "eq_lower_witnesses": {},
            "eq_upper_witnesses": {},
            "details": self.details,
        }


def sweep(fn, stream, jobs: int = 1):
    """Yield (g, fn(g)) for each graph g of stream, in stream order.

    Serially this is a lazy map.  With several jobs one worker pool takes the
    stream in slices of SLICE graphs and keeps at most SLICES_PER_JOB * jobs
    of them in flight, so a sweep holds a bounded window of the stream
    however long it is.  fn must pickle: a module-level function or a
    functools.partial of one.
    """
    if jobs <= 1:
        for g in stream:
            yield g, fn(g)
        return
    import multiprocessing  # only pooled runs pay for the import

    stream = iter(stream)
    with multiprocessing.Pool(jobs) as pool:
        tasks = ((chunk, pool.map_async(fn, chunk, chunksize=len(chunk)))
                 for chunk in iter(lambda: list(islice(stream, SLICE)), []))
        pending = deque(islice(tasks, SLICES_PER_JOB * jobs))
        while pending:
            chunk, values = pending.popleft()
            pending.extend(islice(tasks, 1))
            yield from zip(chunk, values.get())


def _hso_value(g) -> float:
    return hso(g).hso


def _edge_drops(g, tolerance: float) -> list[MonotonicityWitness]:
    """Every non-edge uv of g with HSO(g + uv) < HSO(g) - tolerance."""
    before = hso(g).hso
    found = []
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if g.rows[u] >> v & 1:
                continue
            bigger = g.add_edge(u, v)
            after = hso(bigger).hso
            if after - before < -tolerance:
                found.append(MonotonicityWitness(g.to_graph6(), bigger.to_graph6(), (u, v),
                                                 before, after, after - before))
    return found


def find_monotonicity_counterexamples(
    n_max: int, tolerance: float = DEFAULT_TOLERANCE, jobs: int = 1
):
    """Iterate over all (connected G, non-edge uv) with HSO(G + uv) < HSO(G) -
    tolerance, over every connected graph with at most n_max vertices.

    n_max is checked when called; nothing is built until the iterator is.
    graph6_before is G in its canonical labeling and graph6_after is that
    labeling plus uv, so the pairs are reproducible and the before graph is
    the after graph less the recorded edge.  The witnesses come in the
    stream's own order, which is (graph6_before, added_edge) order.
    """
    if not 3 <= n_max <= MONOTONICITY_MAX_N:
        error = OrderTooSmallError if n_max < 3 else OrderTooLargeError
        raise error(f"monotonicity search supports 3 <= n_max <= {MONOTONICITY_MAX_N}")
    stream = chain.from_iterable(connected_graphs(n) for n in range(3, n_max + 1))
    drops = partial(_edge_drops, tolerance=tolerance)
    return (w for _, found in sweep(drops, stream, jobs) for w in found)


def witnesses_with_delta(witnesses, target_delta: float, tolerance: float = DEFAULT_TOLERANCE):
    """Iterate over the witnesses whose HSO drop matches a target value."""
    return (w for w in witnesses if abs(w.delta - target_delta) <= tolerance)


def check_conjecture_star_max(
    n: int, tolerance: float = DEFAULT_TOLERANCE, jobs: int = 1
) -> CampaignSummary:
    """The star-max theorem of verify.THEOREMS checked on every connected
    graph of order n, with the first greatest report in extremal_max.

    A report above the star's value ("exceeds"), or meeting it off the star
    ("inconsistent"), would be a major find: it lands in summary.violations.
    """
    min_n = THEOREMS["star-max"].min_n
    if n < min_n:
        raise OrderTooSmallError(f"conjecture sweep needs n >= {min_n}")
    summary = CampaignSummary("search:conjecture", "connected", n, n)
    best = None
    for _, r in sweep(partial(check_theorem, "star-max", tolerance=tolerance),
                      connected_graphs(n), jobs):
        summary.graphs_examined += 1
        if not (r.holds and r.consistent):
            summary.violations.append({"graph6": r.graph6, "value": r.value,
                                       "star_value": r.bound_upper,
                                       "reason": "inconsistent" if r.holds else "exceeds"})
        # max keeps the first greatest report, in stream order
        best = max(best or r, r, key=attrgetter("value"))
    summary.extremal_max[n] = (best.graph6, best.value)
    summary.details["star_value"] = best.bound_upper
    # star-max bounds only the upper side, so any structural tag is the star
    summary.details["maximizer_is_star"] = best.structural_class != "none"
    return summary


def extremal_table(graph_class: str, n_lo: int, n_hi: int, jobs: int = 1) -> CampaignSummary:
    """Per-order minimum and maximum HSO over a class, with each extremal
    witness checked against the family the theory says it should be.

    A mismatch lands in summary.violations.  Ties resolve to the smallest
    graph6 string, which the sorted streams give for free.
    """
    if graph_class not in _EXTREMES:
        raise ValueError(f"unknown graph class {graph_class!r}")
    (min_kinds, _, _), (max_kinds, _, _) = _EXTREMES[graph_class]
    summary = CampaignSummary("search:extremal-table", graph_class, n_lo, n_hi)
    levels = [graphs_in_class(graph_class, n) for n in range(n_lo, n_hi + 1)]
    results = sweep(_hso_value, chain.from_iterable(levels), jobs)
    for n, level in groupby(results, key=lambda result: result[0].n):
        lo = hi = None
        for result in level:
            summary.graphs_examined += 1
            # min and max keep the first least and greatest (g, value), in stream order
            lo = min(lo or result, result, key=itemgetter(1))
            hi = max(hi or result, result, key=itemgetter(1))
        for side, (g, value), kinds, table in (
            ("min", lo, min_kinds, summary.extremal_min),
            ("max", hi, max_kinds, summary.extremal_max),
        ):
            table[n] = (g.to_graph6(), value)
            # K1 and K2 are the only connected graphs of their orders
            if g.n > 2 and not any(is_member(g, kind) for kind in kinds):
                summary.violations.append(
                    {"n": n, "side": side, "graph6": g.to_graph6(), "value": value}
                )
    return summary


def revalidate_witness(w: MonotonicityWitness) -> bool:
    """Recompute both HSO values of a witness from its serialized graphs."""
    before = parse_graph6(w.graph6_before)
    after = parse_graph6(w.graph6_after)
    u, v = w.added_edge
    if after.remove_edge(u, v).rows != before.rows:
        return False
    fresh_before = hso(before).hso
    fresh_after = hso(after).hso
    return (
        abs(fresh_before - w.hso_before) <= 1e-12
        and abs(fresh_after - w.hso_after) <= 1e-12
        and abs((fresh_after - fresh_before) - w.delta) <= 1e-12
    )
