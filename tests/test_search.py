"""Monotonicity counterexamples, star-max summaries and extremal tables."""

from __future__ import annotations

import math

import pytest

from hsograph import enumeration, search, verify
from hsograph.enumeration import connected_graphs
from hsograph.families import build, closed_form_hso, cycle, is_member, path, sdprime, sprime, star
from hsograph.graph import OrderTooLargeError, canonical_form, from_edge_list, parse_graph6
from hsograph.indices import hso
from hsograph.search import (
    check_conjecture_star_max,
    extremal_table,
    find_monotonicity_counterexamples,
    revalidate_witness,
    sweep,
    witnesses_with_delta,
)

P3_TO_TRIANGLE_DELTA = 3 * math.sqrt(2) - 2 * math.sqrt(5)


class TestMonotonicity:
    def test_smallest_order_yields_exactly_the_triangle_pair(self):
        witnesses = list(find_monotonicity_counterexamples(3))
        assert len(witnesses) == 1
        w = witnesses[0]
        before = parse_graph6(w.graph6_before)
        after = parse_graph6(w.graph6_after)
        assert canonical_form(before) == canonical_form(build(path(3)))
        assert canonical_form(after) == canonical_form(build(cycle(3)))
        assert abs(w.delta - P3_TO_TRIANGLE_DELTA) <= 1e-9

    def test_no_disconnected_inputs(self):
        for w in find_monotonicity_counterexamples(5):
            assert parse_graph6(w.graph6_before).is_connected()
            assert parse_graph6(w.graph6_after).is_connected()

    def test_revalidation(self):
        witnesses = list(find_monotonicity_counterexamples(5))
        assert witnesses  # non-empty at n_max = 5
        assert all(revalidate_witness(w) for w in witnesses)

    def test_removing_added_edge_restores_before(self):
        for w in find_monotonicity_counterexamples(4):
            after = parse_graph6(w.graph6_after)
            u, v = w.added_edge
            restored = after.remove_edge(u, v)
            assert canonical_form(restored) == canonical_form(parse_graph6(w.graph6_before))

    def test_sorted_output(self):
        witnesses = list(find_monotonicity_counterexamples(5))
        keys = [(w.graph6_before, w.added_edge) for w in witnesses]
        assert keys == sorted(keys)

    def test_delta_filter(self):
        witnesses = list(find_monotonicity_counterexamples(5))
        subset = list(witnesses_with_delta(witnesses, P3_TO_TRIANGLE_DELTA, 1e-9))
        assert subset and all(abs(w.delta - P3_TO_TRIANGLE_DELTA) <= 1e-9 for w in subset)
        # the drop reported for the figure-only example elsewhere; no claim it
        # occurs at these orders, only that the filter behaves
        rare = witnesses_with_delta(witnesses, -(2 * math.sqrt(17) - 2 * math.sqrt(5) - math.sqrt(2)), 1e-9)
        assert all(abs(w.delta + 2 * math.sqrt(17) - 2 * math.sqrt(5) - math.sqrt(2)) <= 1e-9 for w in rare)

    def test_order_caps(self):
        with pytest.raises(verify.OrderTooSmallError):
            find_monotonicity_counterexamples(2)
        with pytest.raises(OrderTooLargeError):
            find_monotonicity_counterexamples(9)

    def test_levels_built_only_when_iterated(self, monkeypatch):
        # test_order_caps shows that n_max is checked at the call
        def fail(*args, **kwargs):
            raise AssertionError("a level built before the witnesses were drawn")

        monkeypatch.setattr(enumeration, "_connected_level", fail)
        witnesses = find_monotonicity_counterexamples(8)
        with pytest.raises(AssertionError, match="a level built"):
            next(witnesses)


class TestConjectureSweep:
    def test_unique_graph_at_two(self):
        summary = check_conjecture_star_max(2)
        g6, value = summary.extremal_max[2]
        assert abs(value - math.sqrt(2)) < 1e-12
        assert summary.details["maximizer_is_star"]
        assert not summary.violations

    def test_star_wins_at_four(self):
        summary = check_conjecture_star_max(4)
        _, value = summary.extremal_max[4]
        assert abs(value - 3 * math.sqrt(10)) < 1e-12
        assert summary.details["maximizer_is_star"]
        assert summary.graphs_examined == 6

    def test_star_wins_at_five(self):
        summary = check_conjecture_star_max(5)
        _, value = summary.extremal_max[5]
        assert abs(value - 4 * math.sqrt(17)) < 1e-12
        assert summary.details["maximizer_is_star"]
        assert summary.graphs_examined == 21
        assert not summary.violations

    def test_unrecognized_maximizer_is_a_violation(self, monkeypatch):
        # a graph meeting the star's value without being recognized as the
        # star breaks the characterization, though none exceeds the bound
        recognize = verify.is_member
        monkeypatch.setattr(verify, "is_member", lambda g, kind: kind != "star" and recognize(g, kind))
        summary = check_conjecture_star_max(4)
        assert [v["graph6"] for v in summary.violations] == ["CF"]
        violation = summary.violations[0]
        assert abs(violation["value"] - violation["star_value"]) < 1e-12
        assert violation["reason"] == "inconsistent"
        assert not summary.details["maximizer_is_star"]

    def test_value_above_the_star_is_a_violation(self, monkeypatch):
        # closed_form_hso less 1, so the star and C^ beat the star's value at
        # n = 4; closed_form_bound memoizes, so its cache is emptied around the run
        closed_form = verify.closed_form_hso
        monkeypatch.setattr(verify, "closed_form_hso", lambda spec: closed_form(spec) - 1.0)
        verify.closed_form_bound.cache_clear()
        try:
            violations = check_conjecture_star_max(4).violations
        finally:
            verify.closed_form_bound.cache_clear()
        assert [v["graph6"] for v in violations] == ["CF", "C^"]
        for v in violations:
            assert abs(v["star_value"] - (3 * math.sqrt(10) - 1.0)) < 1e-12
            assert v["value"] > v["star_value"]
            assert v["reason"] == "exceeds"
        assert abs(violations[0]["value"] - 3 * math.sqrt(10)) < 1e-12

    def test_order_caps(self):
        with pytest.raises(verify.OrderTooSmallError):
            check_conjecture_star_max(1)
        with pytest.raises(OrderTooLargeError):
            check_conjecture_star_max(10)

    def test_summary_serialization(self):
        assert "wall_time" not in check_conjecture_star_max(4).to_dict()


class TestExtremalTable:
    def test_trees(self):
        summary = extremal_table("tree", 4, 7)
        assert not summary.violations
        for n in range(4, 8):
            min_g6, min_v = summary.extremal_min[n]
            max_g6, max_v = summary.extremal_max[n]
            assert canonical_form(parse_graph6(min_g6)) == canonical_form(build(path(n)))
            assert canonical_form(parse_graph6(max_g6)) == canonical_form(build(star(n)))
            assert abs(min_v - closed_form_hso(path(n))) < 1e-9
            assert abs(max_v - closed_form_hso(star(n))) < 1e-9

    def test_unicyclic(self):
        summary = extremal_table("unicyclic", 3, 7)
        assert not summary.violations
        for n in range(3, 8):
            min_g6, _ = summary.extremal_min[n]
            max_g6, _ = summary.extremal_max[n]
            assert canonical_form(parse_graph6(min_g6)) == canonical_form(build(cycle(n)))
            assert canonical_form(parse_graph6(max_g6)) == canonical_form(build(sprime(n)))

    def test_bicyclic(self):
        summary = extremal_table("bicyclic", 4, 7)
        assert not summary.violations
        for n in range(4, 8):
            max_g6, _ = summary.extremal_max[n]
            assert canonical_form(parse_graph6(max_g6)) == canonical_form(build(sdprime(n)))
            min_g6, min_v = summary.extremal_min[n]
            lo_expected = (n - 3) * math.sqrt(2) + 2 * math.sqrt(13)
            assert abs(min_v - lo_expected) < 1e-9

    def test_connected(self):
        summary = extremal_table("connected", 3, 6)
        assert not summary.violations
        for n in range(3, 7):
            min_g6, _ = summary.extremal_min[n]
            max_g6, _ = summary.extremal_max[n]
            assert canonical_form(parse_graph6(min_g6)) == canonical_form(build(cycle(n)))
            assert canonical_form(parse_graph6(max_g6)) == canonical_form(build(star(n)))

    def test_connected_from_order_one(self):
        summary = extremal_table("connected", 1, 6)
        assert not summary.violations
        # K1 and K2 are the only connected graphs of their orders
        assert summary.extremal_min[1] == summary.extremal_max[1] == ("@", 0.0)
        assert summary.extremal_min[2] == summary.extremal_max[2] == ("A_", math.sqrt(2))
        # from n = 3 on, only the cycle passes as the minimum
        assert not is_member(build(path(4)), "cycle")

    def test_unknown_class(self):
        with pytest.raises(ValueError):
            extremal_table("planar", 3, 5)

    def test_examined_counts(self):
        summary = extremal_table("tree", 3, 6)
        assert summary.graphs_examined == 1 + 2 + 3 + 6

    def test_repeated_runs_identical(self):
        first = extremal_table("unicyclic", 3, 6).to_dict()
        second = extremal_table("unicyclic", 3, 6).to_dict()
        assert first == second

    def test_parallel_matches_serial(self):
        serial = extremal_table("tree", 3, 7, jobs=1).to_dict()
        parallel = extremal_table("tree", 3, 7, jobs=3).to_dict()
        assert serial == parallel
        a = check_conjecture_star_max(6, jobs=1).to_dict()
        b = check_conjecture_star_max(6, jobs=2).to_dict()
        assert a == b


def stream_window(jobs):
    """How many graphs a sweep may draw beyond those it has yielded."""
    return 1 if jobs == 1 else (search.SLICES_PER_JOB * jobs + 1) * search.SLICE


class Drawn:
    """A stream of the given graphs that counts how many have been drawn."""

    def __init__(self):
        self.count = 0

    def stream(self, graphs):
        for g in graphs:
            self.count += 1
            yield g


class TestSweepStreams:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_yields_within_a_bounded_window(self, jobs):
        level = list(connected_graphs(5))
        total = stream_window(2) + 3 * search.SLICE
        graphs = [level[i % len(level)] for i in range(total)]
        drawn = Drawn()
        results = []
        for g, value in sweep(search._hso_value, drawn.stream(graphs), jobs):
            if not results:
                # the first result comes before the stream's last graph is drawn
                assert drawn.count < total
            results.append((g, value))
            assert drawn.count - len(results) <= stream_window(jobs)
        assert drawn.count == total
        assert [g for g, _ in results] == graphs
        assert [value for _, value in results] == [hso(g).hso for g in graphs]

    def test_empty_stream(self):
        assert list(sweep(search._hso_value, iter([]), 1)) == []
        assert list(sweep(search._hso_value, iter([]), 2)) == []


def relabeled(n, edges, perm):
    return from_edge_list(n, [(perm[u], perm[v]) for u, v in edges])


class TestRunningExtremes:
    """The streamed folds keep the first graph of a tie, as min and max do."""

    PATH5 = [(0, 1), (1, 2), (2, 3), (3, 4)]
    STAR5 = [(0, 1), (0, 2), (0, 3), (0, 4)]
    SPIDER5 = [(0, 1), (0, 2), (0, 3), (3, 4)]

    def tied(self):
        """Two labelings each of P5 and K1,4, with the larger graph6 first in
        each tie, so that the first tie is not the least graph6."""
        paths = sorted((relabeled(5, self.PATH5, p) for p in ([0, 1, 2, 3, 4], [2, 0, 3, 4, 1])),
                       key=lambda g: g.to_graph6(), reverse=True)
        stars = sorted((relabeled(5, self.STAR5, p) for p in ([0, 1, 2, 3, 4], [4, 0, 1, 2, 3])),
                       key=lambda g: g.to_graph6(), reverse=True)
        assert paths[0].to_graph6() != paths[1].to_graph6()
        assert stars[0].to_graph6() != stars[1].to_graph6()
        assert hso(paths[0]).hso == hso(paths[1]).hso
        assert hso(stars[0]).hso == hso(stars[1]).hso
        spider = from_edge_list(5, self.SPIDER5)
        return [spider, paths[0], stars[0], paths[1], spider, stars[1]], paths[0], stars[0]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_extremal_table_keeps_the_first_tie(self, jobs, monkeypatch):
        graphs, first_path, first_star = self.tied()
        drawn = Drawn()
        monkeypatch.setattr(search, "graphs_in_class", lambda cls, n: drawn.stream(graphs))
        summary = extremal_table("tree", 5, 5, jobs=jobs)
        assert summary.graphs_examined == len(graphs) == drawn.count
        assert summary.extremal_min[5] == (first_path.to_graph6(), hso(first_path).hso)
        assert summary.extremal_max[5] == (first_star.to_graph6(), hso(first_star).hso)
        assert not summary.violations

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_conjecture_keeps_the_first_greatest(self, jobs, monkeypatch):
        graphs, _, first_star = self.tied()
        monkeypatch.setattr(search, "connected_graphs", lambda n: iter(graphs))
        summary = check_conjecture_star_max(5, jobs=jobs)
        assert summary.graphs_examined == len(graphs)
        assert summary.extremal_max[5] == (first_star.to_graph6(), hso(first_star).hso)
        assert summary.details["maximizer_is_star"]
