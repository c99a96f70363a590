"""Enumeration counts, dedup exactness, determinism and the counting oracles."""

from __future__ import annotations

from itertools import combinations, permutations

import pytest

from hsograph import enumeration
from hsograph.enumeration import (
    InfeasibleEdgeCountError,
    _all_graphs,
    _canonical_deletion,
    _class_level,
    _connected_level,
    _edge_children,
    _leafless,
    _on_demand,
    _orbit,
    _unions,
    _unpack,
    bicyclic_graphs,
    connected_graphs,
    connected_graphs_with_edges,
    graphs_in_class,
    trees,
    unicyclic_graphs,
)
from hsograph.graph import (
    BICYCLIC,
    CLASSES,
    TREE,
    UNICYCLIC,
    CanonicalForm,
    OrderTooLargeError,
    _canonical_code_order,
    canonical_form,
    _sweep_connected,
    canonical_relabel,
    parse_graph6,
)

import oracles

# classical counts, frozen: free trees, connected graphs, unicyclic, bicyclic
TREE_COUNTS = [1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551]          # n = 1..12
CONNECTED_COUNTS = [1, 1, 2, 6, 21, 112, 853, 11117]                 # n = 1..8
UNICYCLIC_COUNTS = {3: 1, 4: 2, 5: 5, 6: 13, 7: 33, 8: 89, 9: 240, 10: 657, 11: 1806,
                    12: 5026}
BICYCLIC_COUNTS = {4: 1, 5: 5, 6: 19, 7: 67, 8: 236, 9: 797, 10: 2678, 11: 8833,
                   12: 28908}


class TestCounts:
    def test_tree_counts_match_frozen_and_oracle(self):
        for n in range(1, 13):
            count = len(list(trees(n)))
            assert count == TREE_COUNTS[n - 1]
            assert count == oracles.tree_count(n)

    def test_connected_counts(self):
        for n in range(1, 9):
            count = len(list(connected_graphs(n)))
            assert count == CONNECTED_COUNTS[n - 1]
            assert count == oracles.connected_count(n)

    def test_all_graph_levels_match_cycle_index(self):
        for n in range(1, 9):
            assert len(list(_all_graphs(n))) == oracles.unlabeled_graph_count(n)

    def test_unions_are_the_disconnected_classes(self):
        # A000088(n) - A001349(n) graphs, none connected, no two isomorphic
        for n in range(1, 8):
            unions = list(_unions(n))
            assert len(unions) == oracles.unlabeled_graph_count(n) - oracles.connected_count(n)
            assert not any(_sweep_connected(g.rows) for g in unions)
            assert len({canonical_form(g) for g in unions}) == len(unions)

    def test_unique_bicyclic_on_four(self):
        graphs = list(connected_graphs_with_edges(4, 5))
        assert len(graphs) == 1
        g = graphs[0]
        assert sorted(g.degrees, reverse=True) == [3, 3, 2, 2]  # K4 minus an edge

    def test_unicyclic_five(self):
        assert len(list(connected_graphs_with_edges(5, 5))) == 5

    def test_class_counts_match_oracle(self):
        for n, expected in UNICYCLIC_COUNTS.items():
            assert len(list(unicyclic_graphs(n))) == expected == oracles.unicyclic_count(n)
        for n, expected in BICYCLIC_COUNTS.items():
            assert len(list(bicyclic_graphs(n))) == expected == oracles.bicyclic_count(n)

    def test_edge_counts_against_cycle_index(self):
        for n in range(2, 7):
            for m in range(n - 1, n * (n - 1) // 2 + 1):
                count = len(list(connected_graphs_with_edges(n, m)))
                assert count == oracles.connected_count_with_edges(n, m)


class TestLabeledOracles:
    def test_sweeps_match_recurrence(self):
        for n in range(1, 7):
            total, _ = oracles.labeled_sweep(n)
            assert total == oracles.labeled_connected_count(n)

    def test_labeled_trees_match_cayley(self):
        for n in range(2, 8):
            assert oracles.labeled_filter_count(n, n - 1) == n ** (n - 2)

    def test_burnside_matches_euler_transform(self):
        for n in range(3, 7):
            for m in (n - 1, n, n + 1):
                assert oracles.burnside_connected_count(n, m) == \
                    oracles.connected_count_with_edges(n, m)


class TestStreamProperties:
    def test_no_two_share_canonical_form(self):
        for n in range(2, 8):
            codes = [canonical_form(g) for g in connected_graphs(n)]
            assert len(codes) == len(set(codes))
        for stream in (_all_graphs(7), trees(9), unicyclic_graphs(8), bicyclic_graphs(8)):
            codes = [canonical_form(g) for g in stream]
            assert len(codes) == len(set(codes))

    def test_emitted_in_canonical_labeling_and_sorted(self):
        # verify campaigns report graphs in stream order, which rests on this
        streams = [connected_graphs(n) for n in range(2, 8)]
        streams += [trees(n) for n in range(1, 11)]
        streams += [unicyclic_graphs(n) for n in range(3, 10)]
        streams += [bicyclic_graphs(n) for n in range(4, 10)]
        for stream in streams:
            graphs = list(stream)
            codes = [canonical_form(g).code for g in graphs]
            assert codes == sorted(codes)
            g6s = [g.to_graph6() for g in graphs]
            assert g6s == sorted(g6s)

    def test_union_over_edges_equals_connected(self):
        for n in range(2, 8):
            union = set()
            for m in range(n - 1, n * (n - 1) // 2 + 1):
                union.update(canonical_form(g) for g in connected_graphs_with_edges(n, m))
            direct = {canonical_form(g) for g in connected_graphs(n)}
            assert union == direct

    def test_trees_equal_edge_constrained(self):
        for n in range(2, 9):
            a = [canonical_form(g) for g in trees(n)]
            b = [canonical_form(g) for g in connected_graphs_with_edges(n, n - 1)]
            assert a == b

    def test_trees_equal_edge_constrained_to_ten(self):
        for n in (9, 10):
            a = [canonical_form(g) for g in trees(n)]
            b = [canonical_form(g) for g in connected_graphs_with_edges(n, n - 1)]
            assert a == b

    def test_streams_are_restartable_and_deterministic(self):
        first = [(g.n, g.rows) for g in trees(7)]
        second = [(g.n, g.rows) for g in trees(7)]
        assert first == second
        first = [(g.n, g.rows) for g in connected_graphs(5)]
        second = [(g.n, g.rows) for g in connected_graphs(5)]
        assert first == second

    @pytest.mark.parametrize("tag", CLASSES)
    def test_class_stream_holds_only_its_class(self, tag):
        public = {TREE: trees, UNICYCLIC: unicyclic_graphs, BICYCLIC: bicyclic_graphs}[tag]
        for n in range(1, 9):
            if n - 1 + CLASSES.index(tag) > n * (n - 1) // 2:
                continue  # below the class's least order
            graphs = list(public(n))
            assert graphs == list(graphs_in_class(tag, n))
            assert all(g.classify() == tag for g in graphs)

    def test_graph6_round_trip_over_streams(self):
        for g in connected_graphs(6):
            assert parse_graph6(g.to_graph6()).rows == g.rows


class TestClassLevels:
    """Each class level is the class one order below plus a leaf, and its
    leafless members as seeds."""

    def test_leaf_route_equals_edge_route(self):
        # the edge rule, applied from the trees up with every non-edge,
        # builds the same levels
        for n in range(1, 11):
            codes = _class_level(n, 0)
            for index in range(1, 4):
                codes = _canonical_deletion(
                    _on_demand(lambda _, parent=codes: parent, n),
                    lambda g: _edge_children(g, [(a, b) for a, b in combinations(range(g.n), 2)
                                                 if not g.rows[a] >> b & 1]))
                assert _class_level(n, index) == codes

    def test_seeds_are_the_leafless_members(self):
        for n in range(2, 13):
            for index in range(len(CLASSES)):
                seeds = _leafless(n, index)
                assert len(set(seeds)) == len(seeds)
                leafless = tuple(code for code in _class_level(n, index)
                                 if min(row.bit_count() for row in _unpack(n, code)) >= 2)
                assert seeds == leafless

    def test_tricyclic_counts_match_oracle(self):
        for n in range(4, 11):
            assert len(_class_level(n, 3)) == oracles.connected_count_with_edges(n, n + 2)
        assert len(_class_level(10, 3)) == 8548

    def test_four_cycle_count_at_nine_matches_oracle(self):
        # index 4 is seeded from the tricyclic graphs with at most one leaf;
        # the connected-level comparison below reaches only n = 8
        assert len(_class_level(9, 4)) == oracles.connected_count_with_edges(9, 12) == 4495

    def test_every_edge_count_is_the_connected_level_filtered(self):
        for n in range(1, 9):
            connected = _connected_level(n)
            for m in range(n - 1, n * (n - 1) // 2 + 1):
                assert _class_level(n, m - n + 1) == tuple(
                    code for code in connected if code.bit_count() == m)


def _contract_levels():
    """(level, args) of the connected graphs to n = 7, each class (trees,
    unicyclic, bicyclic) to n = 10, and the tricyclic graphs to n = 8."""
    for n in range(1, 8):
        yield _connected_level, (n,)
    for index in range(len(CLASSES)):
        for n in range(1, 11):
            yield _class_level, (n, index)
    for n in range(1, 9):
        yield _class_level, (n, 3)


class TestLevelContract:
    """A cached level is its sorted canonical codes, and each graph a stream
    builds from a code is the graph with that code, in canonical labeling."""

    def test_levels_are_strictly_increasing_int_tuples(self):
        for level, args in _contract_levels():
            codes = level(*args)
            assert type(codes) is tuple
            assert all(type(code) is int for code in codes)
            assert all(a < b for a, b in zip(codes, codes[1:]))

    def test_graphs_are_their_codes_in_canonical_labeling(self):
        for level, args in _contract_levels():
            n = args[0]
            for code, g in zip(level(*args), _on_demand(level, *args), strict=True):
                assert canonical_form(g) == CanonicalForm(n, code)
                assert g == canonical_relabel(g)

    def test_graphs_are_connected(self):
        # each stream presets the connectivity memo, so it must be true
        for level, args in _contract_levels():
            for g in _on_demand(level, *args):
                assert g._connected and _sweep_connected(g.rows)


def _image(mask, perm):
    return sum(1 << perm[v] for v in range(len(perm)) if mask >> v & 1)


class TestAutomorphismGenerators:
    """The labeling search's generators span Aut(G): checked against all n!
    permutations, since the deletion rules rest on the orbits they give."""

    def test_generators_are_automorphisms(self):
        for n in range(1, 7):
            for g in _all_graphs(n):
                _, _, generators = _canonical_code_order(g.rows, n)
                for perm in generators:
                    assert sorted(perm) == list(range(n))
                    assert all(_image(g.rows[v], perm) == g.rows[perm[v]] for v in range(n))

    def test_orbits_match_brute_force(self):
        for n in range(1, 7):
            for g in _all_graphs(n):
                _, _, generators = _canonical_code_order(g.rows, n)
                group = [p for p in permutations(range(n))
                         if oracles.reference_relabel_rows(g.rows, p) == g.rows]
                for v in range(n):
                    assert _orbit(1 << v, generators) == {1 << p[v] for p in group}
                for u, v in g.edges():
                    edge = 1 << u | 1 << v
                    assert _orbit(edge, generators) == {_image(edge, p) for p in group}
                # the sibling filter takes orbits of whole neighbour masks
                for size in range(2, n):
                    for chosen in combinations(range(n), size):
                        mask = sum(1 << v for v in chosen)
                        assert _orbit(mask, generators) == {_image(mask, p) for p in group}


def _labeling_calls(monkeypatch, build):
    """The canonical labelings that build() makes."""
    calls = 0
    label = enumeration._canonical_code_order

    def counted(rows, n):
        nonlocal calls
        calls += 1
        return label(rows, n)

    with monkeypatch.context() as patch:
        patch.setattr(enumeration, "_canonical_code_order", counted)
        build()
    return calls


class TestLabelingBudget:
    """One labeling per Aut(parent) orbit of the children that pass the
    invariants, plus one for the group of each parent with two or more.
    Each count covers the levels its call builds beyond those already
    cached."""

    def test_labeling_calls(self, monkeypatch):
        """Level 8 of the connected graphs, the bicyclic n = 9 chain from
        K4 - e up, then the tree levels 10..12."""
        for level in (_connected_level, _class_level):
            level.cache_clear()
        _connected_level(7)
        _class_level(9, CLASSES.index(TREE))
        for build, budget in ((lambda: _connected_level(8), 13_000),
                              (lambda: list(bicyclic_graphs(9)), 1_600),
                              (lambda: list(trees(12)), 1_500)):
            assert _labeling_calls(monkeypatch, build) <= budget

    def test_tricyclic_labeling_calls(self, monkeypatch):
        """The tricyclic levels 4..10, the bicyclic levels to n = 10 cached."""
        _class_level.cache_clear()
        _class_level(10, CLASSES.index(BICYCLIC))
        assert _labeling_calls(monkeypatch, lambda: _class_level(10, 3)) <= 16_000


class TestCaps:
    def test_tree_cap(self):
        with pytest.raises(OrderTooLargeError):
            list(trees(13))

    def test_connected_cap(self):
        with pytest.raises(OrderTooLargeError):
            list(connected_graphs(10))

    def test_edge_constrained_caps(self):
        with pytest.raises(OrderTooLargeError):
            list(connected_graphs_with_edges(13, 13))

    def test_infeasible_edge_counts(self):
        with pytest.raises(InfeasibleEdgeCountError):
            list(connected_graphs_with_edges(5, 3))
        with pytest.raises(InfeasibleEdgeCountError):
            list(connected_graphs_with_edges(4, 7))
        with pytest.raises(InfeasibleEdgeCountError):
            list(unicyclic_graphs(2))
        with pytest.raises(InfeasibleEdgeCountError):
            list(bicyclic_graphs(3))

    def test_order_at_least_one(self):
        with pytest.raises(ValueError):
            list(trees(0))
