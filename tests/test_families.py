"""Family constructors, closed forms and order-parameterized bounds."""

from __future__ import annotations

import math
import random

import pytest

from hsograph.enumeration import bicyclic_graphs, connected_graphs, trees, unicyclic_graphs
from hsograph.families import (
    FamilySpec,
    InvalidParametersError,
    build,
    c33,
    cdprime,
    closed_form_hso,
    complete,
    cprime,
    cycle,
    is_member,
    parse_family,
    path,
    sdprime,
    sprime,
    star,
    triangle_pendants,
)
from hsograph.graph import BICYCLIC, TREE, UNICYCLIC, canonical_form, from_edge_list
from hsograph.indices import hso
from hsograph.verify import OrderTooSmallError, UnknownCheckError, closed_form_bound

REL = 1e-9


def agree(spec):
    direct = hso(build(spec)).hso
    closed = closed_form_hso(spec)
    return abs(direct - closed) <= REL * max(1.0, abs(closed))


def tripend_specs(n):
    rem = n - 3
    for a1 in range(rem, -1, -1):
        for a2 in range(min(a1, rem - a1), -1, -1):
            a3 = rem - a1 - a2
            if 0 <= a3 <= a2:
                yield triangle_pendants(a1, a2, a3)


class TestBuild:
    def test_star_degrees(self):
        assert build(star(6)).degrees == (5, 1, 1, 1, 1, 1)

    def test_sprime5(self):
        g = build(sprime(5))
        assert sorted(g.degrees, reverse=True) == [4, 2, 2, 1, 1]
        assert g.classify() == UNICYCLIC

    def test_sdprime6(self):
        g = build(sdprime(6))
        assert sorted(g.degrees, reverse=True) == [5, 3, 2, 2, 1, 1]
        assert g.classify() == BICYCLIC

    def test_classification_per_kind(self):
        assert build(path(6)).classify() == TREE
        assert build(star(6)).classify() == TREE
        assert build(cycle(6)).classify() == UNICYCLIC
        assert build(triangle_pendants(2, 1, 0)).classify() == UNICYCLIC
        assert build(sprime(6)).classify() == UNICYCLIC
        for spec in [cprime(3, 3), cdprime(3, 5), c33(6), sdprime(6)]:
            assert build(spec).classify() == BICYCLIC

    def test_invalid_parameters(self):
        with pytest.raises(InvalidParametersError):
            triangle_pendants(1, 2, 0)  # not non-increasing
        with pytest.raises(InvalidParametersError):
            cprime(2, 4)
        with pytest.raises(InvalidParametersError):
            FamilySpec("c33", 4)
        with pytest.raises(InvalidParametersError):
            FamilySpec("cycle", 2)
        with pytest.raises(InvalidParametersError):
            FamilySpec("nosuch", 5)
        with pytest.raises(InvalidParametersError):
            FamilySpec("tripend", 6, (2, 1, 1))  # sums to 4, not n - 3


class TestClosedForms:
    def test_star5_value(self):
        assert abs(closed_form_hso(star(5)) - 4 * math.sqrt(17)) < 1e-12

    def test_bridged_pair_value_n8(self):
        expected = 5 * math.sqrt(2) + 2 * math.sqrt(13)
        for p in (3, 4, 5):
            assert abs(closed_form_hso(cprime(p, 8 - p)) - expected) < 1e-12

    def test_path_small_orders(self):
        assert closed_form_hso(path(1)) == 0.0
        assert abs(closed_form_hso(path(2)) - math.sqrt(2)) < 1e-15
        assert abs(closed_form_hso(path(3)) - 2 * math.sqrt(5)) < 1e-12

    def test_all_kinds_match_direct_computation(self):
        # multi-parameter families across every parameterization at n <= 12
        for n in range(3, 13):
            for spec in tripend_specs(n):
                assert agree(spec)
        for n in range(6, 13):
            for p in range(3, n - 2):
                assert agree(cprime(p, n - p))
        for n in range(4, 13):
            for p in range(3, n):
                assert agree(cdprime(p, n + 2 - p))
        # single-parameter families up to n = 50
        for n in range(1, 51):
            assert agree(path(n))
            assert agree(star(n))
            assert agree(complete(n))
            if n >= 3:
                assert agree(cycle(n))
                assert agree(sprime(n))
            if n >= 5:
                assert agree(c33(n))
            if n >= 4:
                assert agree(sdprime(n))

    def test_split_independence(self):
        for n in range(6, 13):
            values = {closed_form_hso(cprime(p, n - p)) for p in range(3, n - 2)}
            directs = {round(hso(build(cprime(p, n - p))).hso, 12) for p in range(3, n - 2)}
            assert len(values) == 1 and len(directs) == 1
        for n in range(4, 13):
            directs = {round(hso(build(cdprime(p, n + 2 - p))).hso, 12) for p in range(3, n)}
            assert len(directs) == 1

    def test_bridged_equals_merged(self):
        for n in range(6, 13):
            a = hso(build(cprime(3, n - 3))).hso
            b = hso(build(cdprime(3, n - 1))).hso
            assert abs(a - b) <= 1e-12 * max(1.0, a)

    def test_sprime_is_one_hub_tripend(self):
        for n in range(3, 10):
            assert canonical_form(build(sprime(n))) == canonical_form(
                build(triangle_pendants(n - 3, 0, 0))
            )


class TestClosedFormBounds:
    def test_tree_bounds_n4(self):
        lo, hi = closed_form_bound("tree-bounds", 4)
        assert abs(lo - (2 * math.sqrt(5) + math.sqrt(2))) < 1e-12
        assert abs(hi - 3 * math.sqrt(10)) < 1e-12

    def test_bicyclic_lower_n9(self):
        lo, hi = closed_form_bound("bicyclic-lower", 9)
        assert hi is None
        assert abs(lo - (6 * math.sqrt(2) + 2 * math.sqrt(13))) < 1e-12

    def test_unicyclic_lower_n7(self):
        lo, hi = closed_form_bound("unicyclic-bounds", 7)
        assert abs(lo - 7 * math.sqrt(2)) < 1e-12
        assert hi is not None

    def test_unicyclic_upper_matches_sprime(self):
        for n in range(3, 20):
            _, hi = closed_form_bound("unicyclic-bounds", n)
            assert abs(hi - closed_form_hso(sprime(n))) < 1e-12 * max(1.0, hi)

    def test_bicyclic_upper_matches_sdprime(self):
        for n in range(4, 20):
            _, hi = closed_form_bound("bicyclic-upper", n)
            assert abs(hi - closed_form_hso(sdprime(n))) < 1e-12 * max(1.0, hi)

    def test_tree_upper_matches_star(self):
        for theorem in ("tree-bounds", "star-max"):
            for n in range(2, 20):
                _, hi = closed_form_bound(theorem, n)
                assert abs(hi - closed_form_hso(star(n))) < 1e-12 * max(1.0, hi)

    def test_tree_bounds_n2_is_k2(self):
        # P2 = S2 = K2, whose HSO is sqrt(2); the path formula for n >= 3
        # would put the lower bound above the upper one
        assert closed_form_bound("tree-bounds", 2) == (math.sqrt(2), math.sqrt(2))

    def test_lower_never_above_upper(self):
        for theorem, least in (("tree-bounds", 2), ("general-lower", 3),
                               ("unicyclic-bounds", 3), ("bicyclic-lower", 4),
                               ("bicyclic-upper", 4), ("star-max", 2)):
            for n in range(least, 31):
                lo, hi = closed_form_bound(theorem, n)
                assert lo is None or hi is None or lo <= hi, (theorem, n)

    def test_unknown_theorem(self):
        with pytest.raises(UnknownCheckError,
                           match="no closed-form bound for theorem 'no-such-theorem'"):
            closed_form_bound("no-such-theorem", 5)

    def test_order_out_of_range(self):
        # the same type check_theorem raises for an order below a floor,
        # which the CLI turns into exit 2
        with pytest.raises(OrderTooSmallError, match="bicyclic-lower is stated for n >= 4, got 3"):
            closed_form_bound("bicyclic-lower", 3)
        with pytest.raises(OrderTooSmallError, match="tree-bounds is stated for n >= 2, got 1"):
            closed_form_bound("tree-bounds", 1)


class TestParseFamily:
    def test_round_trip_labels(self):
        for text in ["star:7", "path:4", "cycle:5", "complete:4", "tripend:4,2,1",
                     "sprime:6", "cprime:5,4", "cdprime:3,4", "c33:8", "sdprime:9"]:
            spec = parse_family(text)
            assert spec.label() == text
            build(spec)

    def test_rejects_bad_grammar(self):
        for text in ["star", "star:x", "tripend:1,2", "cprime:5", "what:3"]:
            with pytest.raises(InvalidParametersError):
                parse_family(text)


RECOGNIZED = ("path", "star", "cycle", "sprime", "sdprime", "cprime", "cdprime")


def members(kind, n):
    """Every member of a recognized family at order n (none below its least order)."""
    if kind == "cprime":
        return [cprime(p, n - p) for p in range(3, n - 2)]
    if kind == "cdprime":
        return [cdprime(p, n + 2 - p) for p in range(3, n)]
    try:
        return [FamilySpec(kind, n)]
    except InvalidParametersError:
        return []


def relabeled(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return from_edge_list(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


class TestIsMember:
    def test_agrees_with_canonical_matching(self):
        graphs = [g for n in range(1, 10) for g in trees(n)]
        graphs += [g for n in range(3, 10) for g in unicyclic_graphs(n)]
        graphs += [g for n in range(4, 10) for g in bicyclic_graphs(n)]
        graphs += [g for n in range(1, 8) for g in connected_graphs(n)]
        codes = {}
        for g in graphs:
            if g.n not in codes:
                codes[g.n] = {kind: {canonical_form(build(spec)) for spec in members(kind, g.n)}
                              for kind in RECOGNIZED}
            code = canonical_form(g)
            for kind in RECOGNIZED:
                assert is_member(g, kind) == (code in codes[g.n][kind]), (g.to_graph6(), kind)

    def test_relabeled_members_beyond_canonical_reach(self):
        rng = random.Random(17)
        for n in range(17, 41):
            for kind in RECOGNIZED:
                for spec in members(kind, n):
                    g = relabeled(build(spec), rng)
                    assert [k for k in RECOGNIZED if is_member(g, k)] == [kind], spec

    def test_near_misses(self):
        for n in range(5, 20):
            assert not is_member(build(c33(n)), "sdprime")
        # theta graph with hubs 0 and 1 apart: three paths of length 2 (K_{2,3})
        theta = from_edge_list(5, [(0, 2), (2, 1), (0, 3), (3, 1), (0, 4), (4, 1)])
        # figure-eight: two triangles sharing one vertex
        figure_eight = build(c33(5))
        # two triangles joined by a path of length 2: degrees {3, 3, 2, ...}, hubs apart
        dumbbell = from_edge_list(7, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4),
                                      (4, 5), (5, 6), (4, 6)])
        for g in (theta, figure_eight, dumbbell):
            assert not is_member(g, "cprime") and not is_member(g, "cdprime")
        # disconnected graphs with the right degrees: triangle plus an edge,
        # two triangles, and K4 minus an edge beside a triangle
        triangle = [(0, 1), (1, 2), (0, 2)]
        assert not is_member(from_edge_list(5, triangle + [(3, 4)]), "path")
        assert not is_member(from_edge_list(6, triangle + [(3, 4), (4, 5), (3, 5)]), "cycle")
        k4_minus_edge = [(3, 4), (3, 5), (3, 6), (4, 5), (4, 6)]
        split = from_edge_list(7, triangle + k4_minus_edge)
        assert not is_member(split, "cprime") and not is_member(split, "cdprime")

    def test_unsupported_kind(self):
        with pytest.raises(InvalidParametersError):
            is_member(build(c33(6)), "c33")
