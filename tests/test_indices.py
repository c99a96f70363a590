"""HSO/SO values, per-edge terms and the per-edge bound intervals."""

from __future__ import annotations

import math
import random

import pytest

import oracles
from hsograph import indices
from hsograph.enumeration import bicyclic_graphs, connected_graphs, trees
from hsograph.families import build, complete, cycle, path, star
from hsograph.graph import from_edge_list
from hsograph.indices import (
    DegreeExceedsDeltaError,
    EdgeTerm,
    K2EdgeError,
    ZeroDegreeError,
    edge_term,
    edge_term_bounds,
    hso,
    so,
)

REL = 1e-12


def close(a, b, rel=REL):
    return abs(a - b) <= rel * max(1.0, abs(b))


class TestEdgeTerm:
    def test_equal_degrees(self):
        assert close(edge_term(1, 1), math.sqrt(2))

    def test_pendant_next_to_two(self):
        assert close(edge_term(2, 1), math.sqrt(5))

    def test_three_two(self):
        assert close(edge_term(3, 2), math.sqrt(13) / 2)

    def test_zero_degree(self):
        with pytest.raises(ZeroDegreeError):
            edge_term(0, 3)

    def test_symmetric(self):
        for a in range(1, 13):
            for b in range(1, 13):
                assert edge_term(a, b) == edge_term(b, a)

    def test_strictly_increasing_in_ratio(self):
        # the term equals sqrt(r^2 + 1) for r = max/min, so equal ratios tie
        # (up to a last-place rounding wiggle) and larger ratios dominate
        seen = {}
        for a in range(1, 13):
            for b in range(1, 13):
                ratio = max(a, b) / min(a, b)
                value = edge_term(a, b)
                if ratio in seen:
                    assert close(value, seen[ratio])
                else:
                    seen[ratio] = value
        ratios = sorted(seen)
        values = [seen[r] for r in ratios]
        assert all(y - x > 1e-9 for x, y in zip(values, values[1:]))


class TestIndexValues:
    def test_cycle6(self):
        assert close(hso(build(cycle(6))).hso, 6 * math.sqrt(2))

    def test_star5(self):
        assert close(hso(build(star(5))).hso, 4 * math.sqrt(17))

    def test_k1(self):
        iv = hso(build(path(1)))
        assert iv.hso == 0.0 and iv.so == 0.0 and iv.per_edge == ()

    def test_so_regular_cycle4(self):
        assert close(so(build(cycle(4))), 8 * math.sqrt(2))

    def test_so_star4(self):
        assert close(so(build(star(4))), 3 * math.sqrt(10))

    def test_so_k2(self):
        assert close(so(build(path(2))), math.sqrt(2))

    def test_per_edge_sums(self):
        for g in [build(star(6)), build(cycle(5)), build(complete(4))]:
            iv = hso(g)
            assert close(iv.hso, math.fsum(t.value for t in iv.per_edge))
            assert close(iv.so, so(g))

    def test_per_edge_degrees(self):
        g = from_edge_list(4, [(0, 1), (1, 2), (1, 3)])
        for t in hso(g).per_edge:
            assert t.du == g.degrees[t.u]
            assert t.dv == g.degrees[t.v]


def reference_hso(g):
    """(HSO, SO, per-edge terms) by the plain per-edge loop: one EdgeTerm per
    edge in Graph.edges() order, each sum taken with math.fsum."""
    degs = g.degrees
    terms, roots = [], []
    for u, v in g.edges():
        du, dv = degs[u], degs[v]
        root = math.sqrt(du * du + dv * dv)
        roots.append(root)
        terms.append(EdgeTerm(u, v, du, dv, root / min(du, dv)))
    return math.fsum(t.value for t in terms), math.fsum(roots), tuple(terms)


def exactness_graphs():
    """Every connected graph with n <= 7, every tree with n <= 10, every
    bicyclic graph with n <= 9, and seeded random connected graphs at
    n = 10..40 from trees to dense."""
    yield from (g for n in range(1, 8) for g in connected_graphs(n))
    yield from (t for n in range(1, 11) for t in trees(n))
    yield from (g for n in range(4, 10) for g in bicyclic_graphs(n))
    rng = random.Random(2025)
    for n in range(10, 41):
        for chords in (0, 1, 2, n // 2, 2 * n):
            yield from_edge_list(n, oracles.random_connected_edges(n, rng, chords))


class TestExactness:
    def test_bit_identical_to_per_edge_loop(self):
        count = 0
        for g in exactness_graphs():
            value, so_value, terms = reference_hso(g)
            iv = hso(g)
            assert iv.hso == value, g
            assert iv.so == so_value, g
            assert so(g) == so_value, g
            assert iv.per_edge == terms, g
            count += 1
        assert count > 2000

    def test_per_edge_built_on_first_read(self, monkeypatch):
        built = []

        def counting_term(*args):
            built.append(args)
            return EdgeTerm(*args)

        monkeypatch.setattr(indices, "EdgeTerm", counting_term)
        g = build(cycle(6))
        iv = hso(g)
        assert close(iv.hso, 6 * math.sqrt(2)) and close(iv.so, 12 * math.sqrt(2))
        assert built == []
        first = iv.per_edge
        assert len(built) == g.m
        assert iv.per_edge is first and len(built) == g.m

    def test_immutable(self):
        iv = hso(build(star(4)))
        with pytest.raises(AttributeError):
            iv.hso = 0.0


class TestEdgeTermBounds:
    def test_pendant_attains_upper(self):
        lo, hi = edge_term_bounds(4, 1, 4)
        assert close(lo, math.sqrt(5)) and close(hi, math.sqrt(17))
        assert close(edge_term(4, 1), hi)

    def test_equal_degrees_attain_lower(self):
        lo, hi = edge_term_bounds(3, 3, 5)
        assert close(lo, math.sqrt(2)) and close(hi, math.sqrt(29) / 2)
        assert close(edge_term(3, 3), lo)

    def test_max_over_two_attains_upper(self):
        lo, hi = edge_term_bounds(5, 2, 5)
        assert close(hi, math.sqrt(29) / 2)
        assert close(edge_term(5, 2), hi)

    def test_degree_exceeds_max(self):
        with pytest.raises(DegreeExceedsDeltaError):
            edge_term_bounds(6, 1, 5)

    def test_isolated_edge_rejected(self):
        with pytest.raises(K2EdgeError):
            edge_term_bounds(1, 1, 3)

    def test_zero_degree(self):
        with pytest.raises(ZeroDegreeError):
            edge_term_bounds(0, 2, 3)

    def test_contains_term_everywhere(self):
        for dmax in range(2, 13):
            for a in range(1, dmax + 1):
                for b in range(1, dmax + 1):
                    if a == b == 1:
                        continue
                    lo, hi = edge_term_bounds(a, b, dmax)
                    t = edge_term(a, b)
                    assert lo - 1e-12 <= t <= hi + 1e-12

    def test_contains_every_real_edge(self):
        # every edge of every connected graph with 3 <= n <= 6 sits inside its
        # pendant or non-pendant interval
        for n in range(3, 7):
            for g in connected_graphs(n):
                dmax = g.max_degree
                for t in hso(g).per_edge:
                    lo, hi = edge_term_bounds(t.du, t.dv, dmax)
                    assert lo - 1e-12 <= t.value <= hi + 1e-12


class TestEdgeCountLowerBoundInvariant:
    def test_hso_at_least_sqrt2_m_iff_regular(self):
        # exhaustive over all connected graphs with 2 <= n <= 7
        for n in range(2, 8):
            for g in connected_graphs(n):
                value = hso(g).hso
                floor = math.sqrt(2) * g.m
                assert value >= floor - 1e-9
                attained = abs(value - floor) <= 1e-9 * max(1.0, floor)
                assert attained == (g.max_degree == g.min_degree)
