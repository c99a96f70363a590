"""Per-theorem checkers: bound values, equality flags, structural agreement."""

from __future__ import annotations

import math
import random

import pytest

import oracles
from hsograph import graph, indices, verify
from hsograph.enumeration import bicyclic_graphs, connected_graphs, trees, unicyclic_graphs
from hsograph.families import build, c33, cdprime, complete, cprime, cycle, path, sdprime, sprime, star
from hsograph.graph import OrderTooLargeError, canonical_form, from_edge_list
from hsograph.indices import edge_term, hso
from hsograph.verify import (
    DomainViolationError,
    OrderTooSmallError,
    TheoremReport,
    UnknownCheckError,
    check_bicyclic_lower,
    check_bicyclic_upper,
    check_edge_count_bounds,
    check_general_lower,
    check_lemma_edge_bounds,
    check_pendant_split_monotone,
    check_sandwich,
    check_star_max,
    check_theorem,
    check_tree_bounds,
    check_unicyclic_bounds,
    is_heavy_independent,
    pendant_split_weight,
)

SQ2 = math.sqrt(2)
SQ5 = math.sqrt(5)


def two_components():
    return from_edge_list(4, [(0, 1), (2, 3)])


class TestHeavyIndependent:
    def test_star_center_is_heavy(self):
        assert is_heavy_independent(build(star(6)))

    def test_regular_graphs_excluded(self):
        assert not is_heavy_independent(build(cycle(5)))

    def test_adjacent_middle_vertices(self):
        # both middle vertices of P4 exceed the minimum degree and touch
        assert not is_heavy_independent(build(path(4)))

    def test_requires_connected(self):
        with pytest.raises(DomainViolationError, match="is_heavy_independent requires a connected graph"):
            is_heavy_independent(two_components())

    def test_matches_edge_definition(self):
        # not regular, and every edge has an endpoint of minimum degree
        for g in (g for n in range(1, 8) for g in connected_graphs(n)):
            degs, dmin = g.degrees, g.min_degree
            expected = g.max_degree != dmin and all(min(degs[u], degs[v]) == dmin
                                                     for u, v in g.edges())
            assert is_heavy_independent(g) is expected, g


class TestSandwich:
    def test_one_connectivity_sweep(self, monkeypatch):
        # classify and is_heavy_independent both ask; the memo sweeps once
        sweeps = []
        sweep = graph._sweep_connected
        monkeypatch.setattr(graph, "_sweep_connected",
                            lambda rows: sweeps.append(rows) or sweep(rows))
        assert check_sandwich(build(star(5))).structural_class == "heavy-independent"
        assert len(sweeps) == 1

    def test_no_sweep_over_the_connected_stream(self, monkeypatch):
        # every streamed graph comes with its connectivity known
        def fail(rows):
            raise AssertionError("connectivity swept")

        monkeypatch.setattr(graph, "_sweep_connected", fail)
        for n in range(2, 8):
            for g in connected_graphs(n):
                assert check_theorem("sandwich", g).holds

    def test_cycle_attains_both(self):
        r = check_sandwich(build(cycle(6)))
        assert r.holds and r.consistent
        assert r.equality_lower and r.equality_upper
        assert r.structural_class == "regular"
        assert abs(r.value - 6 * SQ2) < 1e-12

    def test_star_attains_right_only(self):
        r = check_sandwich(build(star(4)))
        assert r.holds and r.consistent
        assert not r.equality_lower and r.equality_upper
        assert r.structural_class == "heavy-independent"
        assert abs(r.value - 3 * math.sqrt(10)) < 1e-12

    def test_path4_strict_both_sides(self):
        r = check_sandwich(build(path(4)))
        assert r.holds and r.consistent
        assert not r.equality_lower and not r.equality_upper
        assert r.structural_class == "none"
        assert abs(r.value - (2 * SQ5 + SQ2)) < 1e-12
        assert abs(r.bound_lower - (SQ5 + SQ2)) < 1e-12
        assert abs(r.bound_upper - (2 * SQ5 + 2 * SQ2)) < 1e-12

    def test_k2_regular(self):
        r = check_sandwich(build(path(2)))
        assert r.equality_lower and r.equality_upper and r.consistent

    def test_requires_connected(self):
        with pytest.raises(DomainViolationError,
                           match="sandwich is stated over connected graphs, not disconnected"):
            check_sandwich(two_components())


class TestTreeBounds:
    def test_path_attains_lower(self):
        r = check_tree_bounds(build(path(7)))
        assert r.equality_lower and not r.equality_upper
        assert r.structural_class == "path" and r.consistent

    def test_star_attains_upper(self):
        r = check_tree_bounds(build(star(7)))
        assert r.equality_upper and not r.equality_lower
        assert r.structural_class == "star" and r.consistent

    def test_chair_strictly_inside(self):
        chair = from_edge_list(5, [(0, 1), (1, 2), (2, 3), (1, 4)])
        r = check_tree_bounds(chair)
        assert r.holds and r.consistent
        assert not r.equality_lower and not r.equality_upper

    def test_p3_attains_both(self):
        # the one tree on three vertices is both the path and the star
        r = check_tree_bounds(build(path(3)))
        assert r.equality_lower and r.equality_upper and r.consistent
        assert r.structural_class == "path+star"

    def test_rejects_non_tree(self):
        with pytest.raises(DomainViolationError,
                           match="tree-bounds is stated over tree graphs, not unicyclic"):
            check_tree_bounds(build(cycle(4)))

    def test_rejects_tiny(self):
        with pytest.raises(OrderTooSmallError, match="tree-bounds is stated for n >= 3, got 2"):
            check_tree_bounds(build(path(2)))


class TestGeneralLower:
    def test_cycle_attains(self):
        r = check_general_lower(build(cycle(9)))
        assert r.equality_lower and r.structural_class == "cycle" and r.consistent

    def test_path5_strict(self):
        r = check_general_lower(build(path(5)))
        assert r.holds and not r.equality_lower
        assert abs(r.value - (2 * SQ5 + 2 * SQ2)) < 1e-12
        assert abs(r.bound_lower - 5 * SQ2) < 1e-12

    def test_k4_strict(self):
        r = check_general_lower(build(complete(4)))
        assert r.holds and not r.equality_lower and r.consistent

    def test_requires_connected(self):
        with pytest.raises(DomainViolationError,
                           match="general-lower is stated over connected graphs, not disconnected"):
            check_general_lower(two_components())


class TestUnicyclicBounds:
    def test_cycle_attains_lower(self):
        r = check_unicyclic_bounds(build(cycle(8)))
        assert r.equality_lower and not r.equality_upper and r.consistent

    def test_one_hub_attains_upper(self):
        r = check_unicyclic_bounds(build(sprime(6)))
        assert r.equality_upper and not r.equality_lower and r.consistent

    def test_tadpole_strictly_inside(self):
        tadpole = from_edge_list(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)])
        r = check_unicyclic_bounds(tadpole)
        assert r.holds and r.consistent
        assert not r.equality_lower and not r.equality_upper

    def test_triangle_attains_both_and_is_noted(self):
        r = check_unicyclic_bounds(build(cycle(3)))
        assert r.equality_lower and r.equality_upper and r.consistent
        assert r.note  # degenerate-order upper equality is recorded

    def test_rejects_tree(self):
        with pytest.raises(DomainViolationError,
                           match="unicyclic-bounds is stated over unicyclic graphs, not tree"):
            check_unicyclic_bounds(build(path(4)))


class TestBicyclicBounds:
    def test_bridged_pair_attains_lower(self):
        r = check_bicyclic_lower(build(cprime(3, 4)))
        assert r.equality_lower and r.structural_class == "cprime" and r.consistent

    def test_merged_pair_attains_lower(self):
        r = check_bicyclic_lower(build(cdprime(4, 4)))
        assert r.equality_lower and r.structural_class == "cdprime" and r.consistent

    def test_hub_graph_attains_upper(self):
        r = check_bicyclic_upper(build(sdprime(8)))
        assert r.equality_upper and r.structural_class == "sdprime" and r.consistent

    def test_small_orders_flagged(self):
        r = check_bicyclic_lower(build(cdprime(3, 3)))
        assert r.note and r.equality_lower and r.consistent

    def test_c33_not_extremal(self):
        r_lo = check_bicyclic_lower(build(c33(7)))
        r_hi = check_bicyclic_upper(build(c33(7)))
        assert r_lo.holds and not r_lo.equality_lower
        assert r_hi.holds and not r_hi.equality_upper
        assert r_lo.consistent and r_hi.consistent

    def test_rejects_non_bicyclic(self):
        with pytest.raises(DomainViolationError,
                           match="bicyclic-lower is stated over bicyclic graphs, not unicyclic"):
            check_bicyclic_lower(build(cycle(5)))
        with pytest.raises(DomainViolationError,
                           match="bicyclic-upper is stated over bicyclic graphs, not tree"):
            check_bicyclic_upper(build(path(5)))


class TestEdgeCountBounds:
    def test_complete_attains_both(self):
        r = check_edge_count_bounds(build(complete(5)))
        assert r.equality_lower and r.equality_upper and r.consistent
        assert abs(r.value - SQ2 * 10) < 1e-12

    def test_star_strict(self):
        r = check_edge_count_bounds(build(star(4)))
        assert r.holds and r.consistent
        assert not r.equality_lower and not r.equality_upper
        assert abs(r.bound_upper - (3 + SQ2 - 1) * 3) < 1e-12

    def test_path_strict(self):
        r = check_edge_count_bounds(build(path(5)))
        assert r.holds and r.consistent
        assert not r.equality_lower and not r.equality_upper

    def test_requires_connected(self):
        with pytest.raises(DomainViolationError,
                           match="edge-count-bounds is stated over connected graphs, not disconnected"):
            check_edge_count_bounds(two_components())


class TestLemmaEdgeBounds:
    def test_star_pendants_attain_upper(self):
        r = check_lemma_edge_bounds(build(star(5)))
        assert r.holds and r.consistent and r.equality_upper

    def test_cycle_edges_attain_lower(self):
        r = check_lemma_edge_bounds(build(cycle(7)))
        assert r.holds and r.consistent and r.equality_lower

    def test_path5_mixed(self):
        r = check_lemma_edge_bounds(build(path(5)))
        assert r.holds and r.consistent

    def test_rejects_tiny(self):
        with pytest.raises(OrderTooSmallError, match="lemma-edge-bounds is stated for n >= 3, got 2"):
            check_lemma_edge_bounds(build(path(2)))


def reference_lemma_edge_bounds(g, tolerance=1e-9):
    """The lemma check judged edge by edge, each edge under each cap on its
    own; the intervals come from verify.edge_term_bounds at call time."""
    def slack(bound):
        return tolerance * max(1.0, abs(bound))

    degs = g.degrees
    caps = (g.max_degree, g.n - 1)
    holds = consistent = True
    eq_lower = eq_upper = False
    bad = []
    for u, v in g.edges():
        du, dv = degs[u], degs[v]
        lo_deg, hi_deg = min(du, dv), max(du, dv)
        term = edge_term(du, dv)
        for cap in caps:
            lo, hi = verify.edge_term_bounds(du, dv, cap)
            pat_lower = hi_deg == 2 if lo_deg == 1 else du == dv
            pat_upper = hi_deg == cap and lo_deg <= 2
            eq_lo = abs(term - lo) <= slack(lo)
            eq_hi = abs(term - hi) <= slack(hi)
            eq_lower = eq_lower or eq_lo
            eq_upper = eq_upper or eq_hi
            if not (term >= lo - slack(lo) and term <= hi + slack(hi)):
                holds = False
                bad.append((u, v, cap, "outside"))
            if eq_lo != pat_lower or eq_hi != pat_upper:
                consistent = False
                bad.append((u, v, cap, "equality-pattern"))
    note = f"offending edges: {bad[:4]}" if bad else ""
    return TheoremReport("lemma-edge-bounds", g.to_graph6(), g.n, hso(g).hso, None, None,
                         holds, eq_lower, eq_upper, "none", consistent, note).to_dict()


def lemma_graphs():
    """Every connected graph with 3 <= n <= 7, every tree with 3 <= n <= 10,
    every bicyclic graph with n <= 9, and seeded random connected graphs at
    n = 10..40."""
    yield from (g for n in range(3, 8) for g in connected_graphs(n))
    yield from (t for n in range(3, 11) for t in trees(n))
    yield from (g for n in range(4, 10) for g in bicyclic_graphs(n))
    rng = random.Random(2025)
    for n in range(10, 41):
        for chords in (0, 1, 2, n // 2, 2 * n):
            yield from_edge_list(n, oracles.random_connected_edges(n, rng, chords))


@pytest.fixture
def fresh_verdicts():
    """Empty the process-wide verdict cache before a test patches the
    bounds and again at teardown, so that no verdict judged under one set
    of bounds answers under the other."""
    verify._lemma_verdict.cache_clear()
    yield
    verify._lemma_verdict.cache_clear()


class TestLemmaAgainstPerEdgeReference:
    def test_same_report(self):
        for g in lemma_graphs():
            assert check_lemma_edge_bounds(g).to_dict() == reference_lemma_edge_bounds(g), g

    def test_each_tolerance_its_own_report(self):
        # path 0-1-2-3-4 under caps (2, 4): at tolerance 0.5 the inner term
        # sqrt(2) at degrees (2, 2) lies within the slack of the inner upper
        # end sqrt(20)/2 under cap 4, an equality its pattern rules out; at
        # 1e-9 it does not.  Each tolerance keeps its own verdicts, in any order.
        g = build(path(5))
        reports = {}
        for tolerance in (1e-9, 0.5, 1e-9, 0.5):
            report = check_lemma_edge_bounds(g, tolerance).to_dict()
            assert report == reference_lemma_edge_bounds(g, tolerance)
            assert report == reports.setdefault(tolerance, report)
        assert reports[1e-9]["consistent"] and not reports[0.5]["consistent"]

    def test_planted_fault_same_note(self, monkeypatch, fresh_verdicts):
        true_bounds = verify.edge_term_bounds

        def narrowed(du, dv, cap):
            lo, hi = true_bounds(du, dv, cap)
            # raise every lower end, and pull the upper end well in under odd
            # caps only, so that an edge can offend under one cap and not the
            # other, and in one kind and not the other
            return lo + 0.01, hi - (1.2 if cap % 2 else 0.0)

        monkeypatch.setattr(verify, "edge_term_bounds", narrowed)
        notes = 0
        for g in lemma_graphs():
            report = check_lemma_edge_bounds(g).to_dict()
            assert report == reference_lemma_edge_bounds(g), g
            notes += report["note"].count("(") == 4
        assert notes > 1000

    def test_planted_fault_note_in_edge_order(self, monkeypatch, fresh_verdicts):
        true_bounds = verify.edge_term_bounds

        def narrowed(du, dv, cap):
            lo, hi = true_bounds(du, dv, cap)
            return (lo + 0.01 if cap == 4 and min(du, dv) >= 2 else lo), hi

        monkeypatch.setattr(verify, "edge_term_bounds", narrowed)
        # path 0-1-2-3-4 under caps (2, 4): the pendant edge (0, 1) is fine, and
        # the inner edges at degrees (2, 2) fall below the raised lower end
        # under cap 4 only; the note keeps the first two of them in edge order
        r = check_lemma_edge_bounds(build(path(5)))
        assert not r.holds and not r.consistent
        assert r.note == ("offending edges: [(1, 2, 4, 'outside'), (1, 2, 4, 'equality-pattern'), "
                          "(2, 3, 4, 'outside'), (2, 3, 4, 'equality-pattern')]")


class TestSlackBoundary:
    """A value exactly one slack from a bound attains it and lies within it.
    Every value, bound and tolerance here is dyadic, so each slack and each
    difference is exact."""

    @pytest.mark.parametrize("offset", [-1, 1])
    @pytest.mark.parametrize("side", ["lower", "upper"])
    def test_bounded_report(self, side, offset):
        # bound 2.0 at tolerance 2**-20 has slack 2**-19
        g = build(path(3))
        bounds = (2.0, None) if side == "lower" else (None, 2.0)

        def report(distance):
            return verify._bounded_report("t", g, 2.0 + offset * distance, *bounds,
                                          ("x", True), ("x", True), 2.0 ** -20)

        at = report(2.0 ** -19)
        assert (at.equality_lower, at.equality_upper) == (side == "lower", side == "upper")
        assert at.holds and at.consistent
        past = report(2.0 ** -18)
        assert not (past.equality_lower or past.equality_upper or past.consistent)
        # past the slack, the value lies outside only on the far side of the bound
        assert past.holds is ((offset > 0) == (side == "lower"))

    @pytest.mark.parametrize("bounds, tolerance, eq", [
        ((2.0, 100.0), 2.0 ** -4, (True, False)),  # term = lower + slack
        ((1.0, 2.0), 2.0 ** -4, (False, True)),    # term = upper + slack
        ((4.25, 100.0), 0.5, (True, False)),       # term = lower - slack
        ((1.0, 4.25), 0.5, (False, True)),         # term = upper - slack
    ])
    def test_lemma_verdict(self, monkeypatch, fresh_verdicts, bounds, tolerance, eq):
        # degrees (8, 15) give the dyadic term sqrt(289) / 8 = 2.125; an
        # equality there misses both patterns under caps (15, 20)
        assert edge_term(8, 15) == 2.125
        monkeypatch.setattr(verify, "edge_term_bounds", lambda du, dv, cap: bounds)
        pattern = ((15, "equality-pattern"), (20, "equality-pattern"))
        assert verify._lemma_verdict(8, 15, (15, 20), tolerance) == (*eq, pattern)


class TestPendantSplitWeight:
    def test_value_at_one(self):
        assert abs(pendant_split_weight(1, 10) - (math.sqrt(10) + 6 * math.sqrt(65))) < 1e-12

    def test_value_at_two(self):
        assert abs(pendant_split_weight(2, 10) - (2 * math.sqrt(17) + 5 * math.sqrt(50))) < 1e-12

    def test_domain_boundary_accepted(self):
        for n in range(5, 201):
            pendant_split_weight((n - 3) // 2, n)

    def test_domain_violations(self):
        with pytest.raises(DomainViolationError, match=r"x = 0.5 outside \[1, 3\]"):
            pendant_split_weight(0.5, 10)
        with pytest.raises(DomainViolationError, match=r"x = 4 outside \[1, 3\]"):
            pendant_split_weight(4, 10)
        with pytest.raises(DomainViolationError, match="the split weight needs n >= 5"):
            pendant_split_weight(1, 4)

    def test_monotone_scan(self):
        assert check_pendant_split_monotone(10)
        assert check_pendant_split_monotone(200)

    def test_single_point_domain(self):
        assert check_pendant_split_monotone(5)
        assert check_pendant_split_monotone(6)

    def test_order_below_domain(self):
        with pytest.raises(OrderTooSmallError, match="f-monotone needs n >= 5"):
            check_pendant_split_monotone(4)

    def test_slope_test_fails_one_step_past_domain(self):
        # the planted fault: at x = hi + 1 the heavier hub takes the larger
        # share, so the slope is positive and the test must say so
        for n in range(5, 201):
            assert not verify._split_slope_nonpositive((n - 3) // 2 + 1, n), n

    def test_agrees_with_grid_scan(self):
        for n in range(5, 201):
            assert check_pendant_split_monotone(n) == oracles.reference_pendant_split_scan(n), n

    def test_sympy_certificate(self):
        sp = pytest.importorskip("sympy")
        x, n, t, s = sp.symbols("x n t s", positive=True)

        def h(u):
            return (u - 2) * sp.sqrt(u * u + 1)

        weight = x * sp.sqrt((x + 2) ** 2 + 1) + (n - x - 3) * sp.sqrt((n - x - 1) ** 2 + 1)
        assert sp.simplify(weight - h(x + 2) - h(n - 1 - x)) == 0
        for xv, nv in ((1, 10), (2, 10), (3, 11), (7, 41)):
            exact = float(weight.subs({x: xv, n: nv}))
            assert abs(pendant_split_weight(xv, nv) - exact) <= 1e-12 * exact
        # h' = P / sqrt(t^2+1) and h'' (t^2+1)^(3/2) = 2t^3+3t-2
        p = 2 * t * t - 2 * t + 1
        assert sp.simplify(sp.diff(h(t), t) - p / sp.sqrt(t * t + 1)) == 0
        curvature = sp.diff(h(t), t, 2) * (t * t + 1) ** sp.Rational(3, 2)
        assert sp.expand(sp.simplify(curvature - (2 * t ** 3 + 3 * t - 2))) == 0
        # at t = 1 + s both polynomials have only positive coefficients, so
        # they are positive for every t >= 1
        for poly in (p, 2 * t ** 3 + 3 * t - 2):
            coeffs = sp.Poly(sp.expand(poly.subs(t, 1 + s)), s).all_coeffs()
            assert all(c > 0 for c in coeffs), coeffs


class TestDispatchAndSweeps:
    def test_dispatch(self):
        r = check_theorem("sandwich", build(cycle(4)))
        assert r.theorem == "sandwich"
        with pytest.raises(UnknownCheckError, match="unknown theorem identifier 'bogus'"):
            check_theorem("bogus", build(cycle(4)))

    def test_sandwich_sweep_small(self):
        for n in range(2, 7):
            for g in connected_graphs(n):
                r = check_sandwich(g)
                assert r.holds and r.consistent, r.to_dict()

    def test_tree_sweep_small(self):
        for n in range(3, 9):
            for t in trees(n):
                r = check_tree_bounds(t)
                assert r.holds and r.consistent, r.to_dict()

    def test_unicyclic_sweep_small(self):
        for n in range(3, 8):
            for g in unicyclic_graphs(n):
                r = check_unicyclic_bounds(g)
                assert r.holds and r.consistent, r.to_dict()

    def test_bicyclic_sweep_small(self):
        for n in range(4, 8):
            for g in bicyclic_graphs(n):
                lo = check_bicyclic_lower(g)
                hi = check_bicyclic_upper(g)
                assert lo.holds and lo.consistent, lo.to_dict()
                assert hi.holds and hi.consistent, hi.to_dict()

    def test_one_computation_of_each_fact(self, monkeypatch):
        # two triangles sharing an edge, with a pendant path: bicyclic, and
        # without the cprime/cdprime degrees whose recognizer sweeps g minus
        # an edge as well
        edges = [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (3, 4), (4, 5)]
        calls = []
        for module, name in ((graph, "_sweep_connected"), (graph, "_encode_graph6"),
                             (indices, "_profile_pass")):
            real = getattr(module, name)
            monkeypatch.setattr(module, name,
                                lambda *args, real=real, name=name: calls.append(name) or real(*args))
        theorems = [t for t, record in verify.THEOREMS.items() if record.covers("bicyclic")]
        g = from_edge_list(6, edges)
        reports = [check_theorem(t, g) for t in theorems]
        assert len(reports) == 7
        assert sorted(calls) == ["_encode_graph6", "_profile_pass", "_sweep_connected"]
        # the same reports as a fresh graph per theorem gives
        assert reports == [check_theorem(t, from_edge_list(6, edges)) for t in theorems]

    def test_one_hso_pass_per_graph(self, monkeypatch):
        # every applicable checker reads the one memoized profile, and none
        # walks the edges again when the lemma finds no offence: a tree, a
        # unicyclic, a bicyclic and a three-chord graph of each order 4..16
        passes = []
        walks = []
        compute = indices._profile_pass
        edges = graph.Graph.edges
        monkeypatch.setattr(indices, "_profile_pass", lambda g: passes.append(g) or compute(g))
        monkeypatch.setattr(graph.Graph, "edges", lambda g: walks.append(g) or edges(g))
        rng = random.Random(20)
        checked = 0
        for n in range(4, 17):
            for chords in range(4):
                g = from_edge_list(n, oracles.random_connected_edges(n, rng, chords))
                graph_class = g.classify()
                walks.clear()
                for theorem, record in verify.THEOREMS.items():
                    if record.covers(graph_class) and n >= record.min_n:
                        report = check_theorem(theorem, g)
                        assert theorem != "lemma-edge-bounds" or report.note == ""
                        checked += 1
                assert len(passes) == 1 and passes.pop() is g
                assert walks == []
        assert checked == 13 * (4 * 5 + 1 + 1 + 2)

    def test_report_serialization(self):
        r = check_sandwich(build(cycle(4)))
        d = r.to_dict()
        assert d["theorem"] == "sandwich" and d["consistent"] is True
        row = r.csv_row()
        assert row[0] == "sandwich" and len(row) == 9


PUBLIC_CHECKERS = {
    "sandwich": check_sandwich,
    "tree-bounds": check_tree_bounds,
    "general-lower": check_general_lower,
    "star-max": check_star_max,
    "unicyclic-bounds": check_unicyclic_bounds,
    "bicyclic-lower": check_bicyclic_lower,
    "bicyclic-upper": check_bicyclic_upper,
    "edge-count-bounds": check_edge_count_bounds,
    "lemma-edge-bounds": check_lemma_edge_bounds,
}

CLASS_MEMBER = {"connected": cycle(5), "tree": path(5), "unicyclic": cycle(5),
                "bicyclic": cdprime(3, 4)}


@pytest.mark.parametrize("theorem", list(verify.THEOREMS))
def test_registry_contract(theorem):
    """check_theorem and the public check_* name both refuse a graph outside
    the registered class with a DomainViolationError that names the class,
    and a class graph below the registered least order with
    OrderTooSmallError."""
    record = verify.THEOREMS[theorem]
    outside_class = f"{theorem} is stated over {record.graph_class} graphs"
    # two components lie outside every class; K4 is connected, with
    # cyclomatic number 3
    outside = [two_components()]
    if record.graph_class != "connected":
        outside.append(build(complete(4)))
    # no unicyclic graph has n < 3 and no bicyclic graph has n < 4, so for
    # those classes the order check has nothing to refuse
    too_small = [g for n in range(1, record.min_n) for g in connected_graphs(n)
                 if record.covers(g.classify())]
    assert bool(too_small) == (record.graph_class in ("connected", "tree"))
    member = build(CLASS_MEMBER[record.graph_class])
    for check in (lambda g, tol: check_theorem(theorem, g, tol), PUBLIC_CHECKERS[theorem]):
        for g in outside:
            with pytest.raises(DomainViolationError, match=outside_class) as refused:
                check(g, 1e-9)
            assert not isinstance(refused.value, OrderTooSmallError)
        for g in too_small:
            with pytest.raises(OrderTooSmallError):
                check(g, 1e-9)
        assert check(member, 1e-9) == check_theorem(theorem, member)
    assert check_theorem(theorem, member).theorem == theorem


@pytest.mark.parametrize("theorem, covered", [
    ("sandwich", {"tree", "unicyclic", "bicyclic", "connected"}),
    ("tree-bounds", {"tree"}),
    ("unicyclic-bounds", {"unicyclic"}),
    ("bicyclic-upper", {"bicyclic"}),
])
def test_theorem_covers_its_class_and_a_connected_one_every_class(theorem, covered):
    # a class theorem does not cover the connected graphs, which hold other classes
    record = verify.THEOREMS[theorem]
    assert {c for c in ("tree", "unicyclic", "bicyclic", "connected") if record.covers(c)} == covered


class TestPastCanonicalReach:
    def test_family_equality_above_n16(self):
        # canonical labeling stops at n = 16; the checkers do not call it
        with pytest.raises(OrderTooLargeError):
            canonical_form(build(star(30)))
        report = check_tree_bounds(build(star(30)))
        assert report.holds and report.consistent
        assert report.equality_upper and report.structural_class == "star"
        g = build(cprime(10, 10))
        perm = list(range(g.n))
        random.Random(3).shuffle(perm)
        report = check_bicyclic_lower(from_edge_list(g.n, [(perm[u], perm[v]) for u, v in g.edges()]))
        assert report.holds and report.consistent
        assert report.equality_lower and report.structural_class == "cprime"
