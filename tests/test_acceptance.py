"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines
and timings.  Every numeric tolerance is pinned here, not deferred.
"""

from __future__ import annotations

import math
import random
import time

from hsograph.cli import run_verify_campaign
from hsograph.enumeration import (
    _all_graphs,
    bicyclic_graphs,
    connected_graphs,
    trees,
    unicyclic_graphs,
)
from hsograph.families import (
    build,
    c33,
    cdprime,
    closed_form_hso,
    complete,
    cprime,
    cycle,
    parse_family,
    path,
    sdprime,
    sprime,
    star,
    triangle_pendants,
)
from hsograph.graph import canonical_form, from_edge_list, parse_graph6
from hsograph.indices import hso
from hsograph.search import check_conjecture_star_max, find_monotonicity_counterexamples
from hsograph.verify import (
    check_edge_count_bounds,
    check_lemma_edge_bounds,
    check_pendant_split_monotone,
    check_sandwich,
)

import oracles

REL_TOL = 1e-9

TREE_COUNTS = {3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23, 9: 47, 10: 106}
CONNECTED_COUNTS = {2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}


class _Criterion:
    def __init__(self, number, budget_s, label):
        self.number = number
        self.budget_s = budget_s
        self.label = label

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.number} {status} ({elapsed:.2f}s of {self.budget_s}s): {self.label}")
        if exc_type is None:
            assert elapsed < self.budget_s, (
                f"criterion {self.number} exceeded its runtime budget: "
                f"{elapsed:.2f}s >= {self.budget_s}s"
            )
        return False


def _agree(spec):
    value = closed_form_hso(spec)
    direct = hso(build(spec)).hso
    assert abs(direct - value) <= REL_TOL * max(1.0, abs(value)), spec
    return value


def test_criterion_1_closed_form_agreement():
    with _Criterion(1, 5, "closed forms match definitional HSO for every family"):
        for n in range(3, 13):
            rem = n - 3
            for a1 in range(rem, -1, -1):
                for a2 in range(min(a1, rem - a1), -1, -1):
                    a3 = rem - a1 - a2
                    if 0 <= a3 <= a2:
                        _agree(triangle_pendants(a1, a2, a3))
        for n in range(6, 13):
            for p in range(3, n - 2):
                _agree(cprime(p, n - p))
        for n in range(4, 13):
            for p in range(3, n):
                _agree(cdprime(p, n + 2 - p))
        for n in range(1, 51):
            _agree(path(n))
            _agree(star(n))
            _agree(complete(n))
            if n >= 3:
                _agree(cycle(n))
                _agree(sprime(n))
            if n >= 4:
                _agree(sdprime(n))
            if n >= 5:
                _agree(c33(n))


def _campaign(theorem, n):
    """The summary of the campaign at order n, and its reports with a lower
    and with an upper equality case."""
    lower, upper = [], []

    def write(reports):
        for r in reports:
            if r.equality_lower:
                lower.append(r)
            if r.equality_upper:
                upper.append(r)

    summary = run_verify_campaign(theorem, n, n, write=write)
    return summary, lower, upper


def test_criterion_2_tree_theorem():
    with _Criterion(2, 60, "tree bounds exhaustive 3 <= n <= 10 with unique witnesses"):
        for n in range(3, 11):
            summary, lower, upper = _campaign("tree-bounds", n)
            assert summary.graphs_examined == TREE_COUNTS[n]
            assert summary.graphs_examined == oracles.tree_count(n)
            if n <= 7:
                # labeled-filter oracle: edge subsets of size n-1, connectivity
                # filtered, equals Cayley's count; Burnside collapse to classes
                assert oracles.labeled_filter_count(n, n - 1) == n ** (n - 2)
                assert oracles.burnside_connected_count(n, n - 1) == TREE_COUNTS[n]
            assert not summary.violations
            path_code = canonical_form(build(path(n)))
            star_code = canonical_form(build(star(n)))
            assert len(lower) == 1 and canonical_form(parse_graph6(lower[0].graph6)) == path_code
            assert len(upper) == 1 and canonical_form(parse_graph6(upper[0].graph6)) == star_code


def test_criterion_3_unicyclic_theorem():
    with _Criterion(3, 120, "unicyclic bounds exhaustive 3 <= n <= 10"):
        for n in range(3, 11):
            summary, lower, upper = _campaign("unicyclic-bounds", n)
            assert summary.graphs_examined == oracles.unicyclic_count(n)
            assert not summary.violations
            cycle_code = canonical_form(build(cycle(n)))
            hub_code = canonical_form(build(sprime(n)))
            if n >= 5:
                assert len(lower) == 1 and canonical_form(parse_graph6(lower[0].graph6)) == cycle_code
                assert len(upper) == 1 and canonical_form(parse_graph6(upper[0].graph6)) == hub_code
            else:
                # degenerate orders: equality still lands on the named family,
                # and the reports carry an explanatory note instead of failing
                assert all(canonical_form(parse_graph6(r.graph6)) == hub_code for r in upper)
                assert upper and all(r.note for r in upper)


def test_criterion_4_bicyclic_theorems():
    with _Criterion(4, 600, "bicyclic bounds exhaustive 4 <= n <= 10 with exact witnesses"):
        for n in range(4, 11):
            lo_summary, lower, _ = _campaign("bicyclic-lower", n)
            hi_summary, _, upper = _campaign("bicyclic-upper", n)
            expected_count = oracles.bicyclic_count(n)
            assert lo_summary.graphs_examined == expected_count
            assert hi_summary.graphs_examined == expected_count
            assert not lo_summary.violations
            assert not hi_summary.violations
            # upper equality witness is exactly the pendant-loaded K4-e graph
            hub_code = canonical_form(build(sdprime(n)))
            assert len(upper) == 1 and canonical_form(parse_graph6(upper[0].graph6)) == hub_code
            # lower equality witnesses are exactly the cycle-pair classes at n
            expected_codes = {canonical_form(build(cprime(p, n - p))) for p in range(3, n - 2)}
            expected_codes |= {canonical_form(build(cdprime(p, n + 2 - p))) for p in range(3, n)}
            got_codes = {canonical_form(parse_graph6(r.graph6)) for r in lower}
            assert got_codes == expected_codes and expected_codes


def test_criterion_5_sandwich_and_edge_count():
    with _Criterion(5, 60, "sandwich + edge-count bounds exhaustive 2 <= n <= 7"):
        for n in range(2, 8):
            count = 0
            for g in connected_graphs(n):
                count += 1
                r1 = check_sandwich(g, REL_TOL)
                r2 = check_edge_count_bounds(g, REL_TOL)
                assert r1.holds and r1.consistent, r1.to_dict()
                assert r2.holds and r2.consistent, r2.to_dict()
            assert count == CONNECTED_COUNTS[n]
            assert count == oracles.connected_count(n)
        # the n = 7 class count is pinned by two independent oracle routes,
        # and the labeled recurrence reproduces the classical total
        assert oracles.connected_count(7) == 853
        assert oracles.labeled_connected_count(7) == 1866256


def test_criterion_6_per_edge_bounds():
    with _Criterion(6, 60, "per-edge intervals exhaustive 3 <= n <= 7"):
        for n in range(3, 8):
            for g in connected_graphs(n):
                r = check_lemma_edge_bounds(g, REL_TOL)
                assert r.holds and r.consistent, r.to_dict()


def test_criterion_7_pendant_split_monotone():
    with _Criterion(7, 5, "pendant split weight non-increasing for 5 <= n <= 2000"):
        for n in range(5, 2001):
            assert check_pendant_split_monotone(n)


def test_criterion_8_monotonicity_reproduction():
    with _Criterion(8, 10, "edge addition can lower HSO; triangle pair found"):
        witnesses = list(find_monotonicity_counterexamples(5, REL_TOL))
        assert witnesses
        expected_delta = 3 * math.sqrt(2) - 2 * math.sqrt(5)
        path3_code = canonical_form(build(path(3)))
        triangle_code = canonical_form(build(cycle(3)))
        hits = [
            w for w in witnesses
            if canonical_form(parse_graph6(w.graph6_before)) == path3_code
            and canonical_form(parse_graph6(w.graph6_after)) == triangle_code
        ]
        assert len(hits) == 1
        assert abs(hits[0].delta - expected_delta) <= 1e-9


def test_criterion_9_conjecture_sweep():
    with _Criterion(9, 900, "star maximizes HSO over connected graphs 2 <= n <= 8"):
        for n in range(2, 9):
            summary = check_conjecture_star_max(n, REL_TOL)
            assert not summary.violations
            assert summary.details["maximizer_is_star"]
            _, value = summary.extremal_max[n]
            expected = (n - 1) * math.sqrt(n * n - 2 * n + 2)
            assert abs(value - expected) <= REL_TOL * max(1.0, expected)


def test_criterion_10_infrastructure(tmp_path):
    with _Criterion(10, 120, "graph6 round trips, canonical invariance, parallel determinism"):
        # round trips over everything enumerable at n <= 7
        for n in range(1, 8):
            for g in _all_graphs(n):
                assert parse_graph6(g.to_graph6()).rows == g.rows
        for stream in (trees(7), unicyclic_graphs(7), bicyclic_graphs(7), connected_graphs(7)):
            for g in stream:
                s = g.to_graph6()
                assert parse_graph6(s).to_graph6() == s
        # canonical invariance under 20 random relabelings per graph
        rng = random.Random(1234)
        for n in range(2, 8):
            for g in _all_graphs(n):
                code = canonical_form(g)
                edges = list(g.edges())
                for _ in range(20):
                    perm = list(range(n))
                    rng.shuffle(perm)
                    relabeled = from_edge_list(n, [(perm[u], perm[v]) for u, v in edges])
                    assert canonical_form(relabeled) == code
        # byte-identical campaign output regardless of worker count
        from hsograph.cli import main as cli_main

        serial = tmp_path / "serial.csv"
        parallel = tmp_path / "parallel.csv"
        args = ["verify", "edge-count-bounds", "--n", "2..6", "--format", "csv"]
        assert cli_main(args + ["--jobs", "1", "--out", str(serial)]) == 0
        assert cli_main(args + ["--jobs", "4", "--out", str(parallel)]) == 0
        assert serial.read_bytes() == parallel.read_bytes()
        # family grammar reaches the same graphs the campaigns verified
        assert canonical_form(build(parse_family("sprime:7"))) == canonical_form(
            build(triangle_pendants(4, 0, 0))
        )
