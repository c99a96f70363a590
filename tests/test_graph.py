"""Graph representation, graph6 codec, classification and canonical forms."""

from __future__ import annotations

import math
import pickle
import random

import pytest

import networkx as nx

from hsograph.graph import (
    DISCONNECTED,
    BICYCLIC,
    CLASSES,
    OTHER_CONNECTED,
    TREE,
    UNICYCLIC,
    Graph,
    Graph6Error,
    GraphError,
    OrderTooLargeError,
    _canonical_code_order,
    _encode_graph6,
    _refine,
    _sweep_connected,
    canonical_form,
    canonical_relabel,
    from_edge_list,
    parse_graph6,
)
from hsograph.enumeration import _all_graphs, connected_graphs, graphs_in_class
from hsograph.families import (FamilySpec, InvalidParametersError, build, complete, cycle,
                               sdprime, star)
from hsograph.indices import _pair_term, _profile, _profile_pass, edge_term, hso

import oracles


def p(n):
    return from_edge_list(n, [(i, i + 1) for i in range(n - 1)])


class TestConstruction:
    def test_path3(self):
        g = p(3)
        assert g.degrees == (1, 2, 1)
        assert g.m == 2

    def test_single_vertex(self):
        g = from_edge_list(1, [])
        assert g.n == 1
        assert g.degrees == (0,)

    def test_star4(self):
        g = from_edge_list(4, [(0, 1), (0, 2), (0, 3)])
        assert g.degrees == (3, 1, 1, 1)

    def test_out_of_range(self):
        with pytest.raises(GraphError, match=r"edge \(0, 3\) has an endpoint outside \[0, 3\)"):
            from_edge_list(3, [(0, 3)])

    def test_self_loop(self):
        with pytest.raises(GraphError, match="self-loop at vertex 1"):
            from_edge_list(3, [(1, 1)])

    def test_duplicate_edge(self):
        with pytest.raises(GraphError, match=r"edge \(1, 0\) listed twice"):
            from_edge_list(3, [(0, 1), (1, 0)])

    def test_handshake_over_enumerated(self):
        for g in _all_graphs(6):
            assert sum(g.degrees) == 2 * g.m


class TestGraph6:
    def test_bw_is_triangle(self):
        g = parse_graph6("Bw")
        assert g.n == 3
        assert set(g.edges()) == {(0, 1), (0, 2), (1, 2)}
        assert repr(g) == "Graph(n=3, edges=[(0, 1), (0, 2), (1, 2)])"

    def test_bg_is_path(self):
        g = parse_graph6("Bg")
        assert set(g.edges()) == {(0, 1), (1, 2)}

    def test_k1_encodes_to_at(self):
        assert from_edge_list(1, []).to_graph6() == "@"

    def test_prefix_stripped(self):
        assert parse_graph6(">>graph6<<Bw").rows == parse_graph6("Bw").rows

    def test_round_trip_labeled(self):
        for g in _all_graphs(5):
            assert parse_graph6(g.to_graph6()).rows == g.rows

    def test_round_trip_strings(self):
        # the decoded text is already the encoding, so it is kept as the memo
        for g in _all_graphs(6):
            s = g.to_graph6()
            parsed = parse_graph6(s)
            assert parsed._graph6 == s == _encode_graph6(parsed.rows)

    def test_round_trip_large_random(self):
        rng = random.Random(7)
        n = 62
        edges = set()
        while len(edges) < 300:
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v:
                edges.add((min(u, v), max(u, v)))
        g = from_edge_list(n, sorted(edges))
        assert parse_graph6(g.to_graph6()).rows == g.rows

    def test_matches_networkx(self):
        for g in _all_graphs(6):
            mine = g.to_graph6()
            theirs = nx.from_graph6_bytes(mine.encode())
            assert set(theirs.edges()) == set(g.edges())
            back = nx.to_graph6_bytes(theirs, header=False).decode().strip()
            assert parse_graph6(back).rows == g.rows

    def test_decode_matches_networkx_on_random_graphs(self):
        rng = random.Random(6)
        for n in range(7, 63):
            npairs = n * (n - 1) // 2
            pad = -npairs % 6  # padding bits in the last body character
            for density in (0.1, 0.5, 0.9):
                theirs = nx.Graph()
                theirs.add_nodes_from(range(n))
                theirs.add_edges_from((i, j) for j in range(1, n) for i in range(j)
                                      if rng.random() < density)
                text = nx.to_graph6_bytes(theirs, header=False).decode().strip()
                mine = parse_graph6(text)
                assert mine.n == n
                assert set(mine.edges()) == {tuple(sorted(e)) for e in theirs.edges()}
                if pad:
                    # set padding bits are ignored, by networkx and here
                    last = ord(text[-1]) - 63 | rng.randrange(1, 1 << pad)
                    junk = text[:-1] + chr(63 + last)
                    assert junk != text
                    assert parse_graph6(junk).rows == mine.rows
                    assert set(nx.from_graph6_bytes(junk.encode()).edges()) == set(theirs.edges())

    @pytest.mark.parametrize("text, encoded", [
        ("Bx", "Bw"),  # nonzero padding
        (">>graph6<<Bw", "Bw"),
        (" Bw\n", "Bw"),
        (">>graph6<<DhC\t", "DhC"),
        (">>graph6<<Bx\n", "Bw"),
    ])
    def test_other_text_re_encoded(self, text, encoded):
        g = parse_graph6(text)
        assert g._graph6 is None
        assert g.to_graph6() == encoded == _encode_graph6(g.rows)

    def test_truncated_body(self):
        with pytest.raises(Graph6Error, match="graph6 body needs 1 characters, got 0"):
            parse_graph6("B")

    def test_bad_header(self):
        with pytest.raises(Graph6Error, match=r"invalid graph6 header byte '\\x14'"):
            parse_graph6(chr(20) + "w")
        with pytest.raises(Graph6Error, match="empty graph6 string"):
            parse_graph6("")
        with pytest.raises(Graph6Error, match=r"extended graph6 headers \(n > 62\) are not supported"):
            parse_graph6("~??")

    def test_illegal_character(self):
        with pytest.raises(Graph6Error, match="illegal graph6 body character '!'"):
            parse_graph6("B!")

    def test_trailing_garbage(self):
        with pytest.raises(Graph6Error):
            parse_graph6("Bww")

    def test_encode_order_cap(self):
        g = Graph(63, tuple(0 for _ in range(63)))
        with pytest.raises(OrderTooLargeError):
            g.to_graph6()


class TestConnectivityAndClass:
    def test_path_connected(self):
        assert p(5).is_connected()

    def test_two_disjoint_edges(self):
        g = from_edge_list(4, [(0, 1), (2, 3)])
        assert not g.is_connected()
        assert g.classify() == DISCONNECTED

    def test_k1_connected(self):
        assert from_edge_list(1, []).is_connected()

    def test_classify(self):
        assert build(cycle(6)).classify() == UNICYCLIC
        assert build(sdprime(7)).classify() == BICYCLIC
        assert p(4).classify() == TREE
        k4 = from_edge_list(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
        assert k4.classify() == OTHER_CONNECTED


class TestMutation:
    def test_add_edge_makes_triangle(self):
        g = p(3).add_edge(0, 2)
        assert canonical_form(g) == canonical_form(parse_graph6("Bw"))

    def test_input_unmodified(self):
        g = p(3)
        g.add_edge(0, 2)
        assert g.degrees == (1, 2, 1)

    def test_remove_edge(self):
        tri = p(3).add_edge(0, 2)
        assert canonical_form(tri.remove_edge(0, 2)) == canonical_form(p(3))

    def test_add_present(self):
        with pytest.raises(GraphError, match=r"edge \(0, 1\) already present"):
            p(3).add_edge(0, 1)

    def test_remove_absent(self):
        with pytest.raises(GraphError, match=r"edge \(0, 2\) not present"):
            p(3).remove_edge(0, 2)

    def test_add_loop(self):
        with pytest.raises(GraphError, match="cannot add loop at vertex 1"):
            p(3).add_edge(1, 1)


@pytest.mark.parametrize("call, error, message", [
    (lambda: connected_graphs(0), ValueError, "order must be at least 1"),
    (lambda: graphs_in_class("cubic", 5), ValueError, "unknown graph class 'cubic'"),
    (lambda: from_edge_list(0, []), GraphError, "graph order must be at least 1"),
    (lambda: p(3).remove_edge(1, 1), GraphError, "no loop can exist at vertex 1"),
    (lambda: p(3).has_edge(0, 3), GraphError, r"vertex 3 not in \[0, 3\)"),
    (lambda: FamilySpec("tripend", 6, (3, 0)), InvalidParametersError,
     "tripend takes three pendant counts"),
    (lambda: FamilySpec("cprime", 6, (3,)), InvalidParametersError,
     "cprime takes two cycle lengths"),
    (lambda: FamilySpec("star", 5, (1,)), InvalidParametersError,
     "star takes no extra parameters"),
], ids=["connected-order-0", "unknown-class", "order-0", "remove-loop", "has-edge-range",
        "tripend-params", "cprime-params", "star-params"])
def test_input_validation_raises(call, error, message):
    with pytest.raises(error, match=message):
        call()


def _memo_graphs():
    """Every graph with n <= 7, connected or not, and seeded random graphs
    at n = 10..16 from sparse to dense."""
    yield from (g for n in range(1, 8) for g in _all_graphs(n))
    rng = random.Random(14)
    for n in range(10, 17):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        for density in (0.1, 0.2, 0.5, 0.9):
            yield from_edge_list(n, [e for e in pairs if rng.random() < density])


def _memo(g):
    return g._graph6, g._connected, g._hso


def assert_profile(g):
    """The memoized profile of g against a per-edge reference: HSO and SO
    bit for bit as math.fsum over edge_term and over the roots, and the
    pairs distinct, each the per-pair memo's own tuple."""
    value, so_value, pairs = _profile(g)
    degs = g.degrees
    terms = [(degs[u], degs[v]) for u, v in g.edges()]
    assert (value, so_value) == (math.fsum(edge_term(du, dv) for du, dv in terms),
                                 math.fsum(math.sqrt(du * du + dv * dv) for du, dv in terms))
    assert (value, so_value, set(pairs)) == oracles.reference_profile(degs, g.edges())
    assert len(set(pairs)) == len(pairs)
    assert all(pair is _pair_term(*pair)[0] for pair in pairs)


def _assert_degree_fields(g):
    """m, max_degree and min_degree, set as g was made, match its degrees."""
    degrees = g.degrees
    assert degrees == tuple(bin(row).count("1") for row in g.rows)
    assert ((g.m, g.max_degree, g.min_degree) == (sum(degrees) // 2, max(degrees), min(degrees))
            == oracles.degree_fields(g.rows))


class TestMemo:
    """to_graph6, is_connected and hso compute once per graph and keep the
    result on it; the memo never leaves the graph.  The degree fields are
    set as each graph is made, however it is made."""

    def test_memo_matches_fresh_computation(self):
        count = 0
        for g in _memo_graphs():
            fresh = Graph(g.n, g.rows)
            assert _memo(fresh) == (None, None, None)
            for _ in range(2):  # the first call fills the memo, the second reads it
                assert g.to_graph6() == _encode_graph6(g.rows) == fresh.to_graph6()
                assert g.is_connected() is _sweep_connected(g.rows) is fresh.is_connected()
                iv = hso(g)
                assert (iv.hso, iv.so) == _profile_pass(g)[:2] == (hso(fresh).hso, hso(fresh).so)
                assert iv.graph is g
            assert _memo(g) == _memo(fresh) == (g.to_graph6(), g.is_connected(), _profile_pass(g))
            _assert_degree_fields(g)
            _assert_degree_fields(parse_graph6(g.to_graph6()))
            count += 1
        assert count == 1252 + 7 * 4

    def test_stream_graph6_from_code(self):
        # every stream graph arrives with its graph6 formatted from its code
        streams = [connected_graphs(n) for n in range(1, 9)]
        streams += [graphs_in_class(tag, n) for index, tag in enumerate(CLASSES)
                    for n in range(1, 11) if n - 1 + index <= n * (n - 1) // 2]
        count = 0
        for stream in streams:
            for g in stream:
                assert g._graph6 is not None
                assert g.to_graph6() == _encode_graph6(g.rows)
                _assert_degree_fields(g)
                count += 1
        # connected to n = 8, then trees, unicyclic and bicyclic graphs to n = 10
        assert count == 12113 + 201 + 1040 + 3803

    def test_pickle_drops_memo(self):
        g = build(sdprime(7))
        filled = (g.to_graph6(), g.is_connected(), (hso(g).hso, hso(g).so))
        copy = pickle.loads(pickle.dumps(g))
        assert copy == g
        assert _memo(copy) == (None, None, None)
        _assert_degree_fields(copy)
        assert (copy.m, copy.max_degree, copy.min_degree) == (8, 6, 1)
        assert (copy.to_graph6(), copy.is_connected(), (hso(copy).hso, hso(copy).so)) == filled

    def test_removing_a_bridge_disconnects(self):
        g = p(5)
        assert g.is_connected()
        cut = g.remove_edge(2, 3)
        assert _memo(cut) == (None, None, None)
        _assert_degree_fields(cut)
        assert (cut.m, cut.max_degree, cut.min_degree) == (3, 2, 1)
        assert not cut.is_connected()
        assert cut.classify() == DISCONNECTED
        assert g.is_connected()

    def test_adding_an_edge_starts_a_fresh_memo(self):
        g = from_edge_list(4, [(0, 1), (2, 3)])
        assert not g.is_connected() and g.to_graph6() == "C`"
        joined = g.add_edge(1, 2)
        assert _memo(joined) == (None, None, None)
        _assert_degree_fields(joined)
        assert (joined.m, joined.max_degree, joined.min_degree) == (3, 2, 1)
        assert joined.is_connected()
        assert joined.to_graph6() == p(4).to_graph6()

    def test_checker_pair_is_the_index_value(self):
        # the HSO and SO the checkers read are bit for bit the public
        # IndexValue's and a fresh fsum over the edge terms, and the pairs
        # are the graph's distinct sorted end-degree pairs
        for g in _memo_graphs():
            profile = _profile(g)
            assert profile is _profile(g) is g._hso
            assert_profile(g)
            iv = hso(g)
            assert profile[:2] == (iv.hso, iv.so)


def _random_relabel(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return from_edge_list(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


class TestCanonicalForm:
    def test_relabelings_share_code(self):
        a = from_edge_list(3, [(0, 1), (1, 2)])
        b = from_edge_list(3, [(2, 0), (0, 1)])
        assert canonical_form(a) == canonical_form(b)

    def test_different_graphs_differ(self):
        assert canonical_form(p(3)) != canonical_form(parse_graph6("Bw"))
        assert canonical_form(build(star(4))) != canonical_form(p(4))

    def test_invariance_random_relabelings(self):
        rng = random.Random(2024)
        for n in range(2, 7):
            for g in _all_graphs(n):
                code = canonical_form(g)
                for _ in range(20):
                    assert canonical_form(_random_relabel(g, rng)) == code

    def test_exact_against_brute_force(self):
        # canonical codes must induce exactly the same equivalence classes as
        # minimization over all n! permutations
        for n in range(2, 7):
            mapping = {}
            rng = random.Random(99)
            for g in _all_graphs(n):
                for h in [g, _random_relabel(g, rng)]:
                    brute = oracles.brute_min_code(h.n, list(h.edges()))
                    mine = canonical_form(h)
                    assert mapping.setdefault(brute, mine) == mine
            assert len(set(mapping.values())) == len(mapping)

    def test_agrees_with_networkx_isomorphism(self):
        def to_nx(g):
            out = nx.Graph()
            out.add_nodes_from(range(g.n))
            out.add_edges_from(g.edges())
            return out

        graphs = list(_all_graphs(5))
        for i, g in enumerate(graphs):
            for h in graphs[i + 1:]:
                # the enumerated graphs are duplicate-free, so networkx must
                # agree that all pairs are non-isomorphic
                assert not nx.is_isomorphic(to_nx(g), to_nx(h))

    def test_relabel_is_stable(self):
        for g in _all_graphs(5):
            c = canonical_relabel(g)
            assert canonical_form(c) == canonical_form(g)
            assert canonical_relabel(c).rows == c.rows

    def test_relabel_matches_reference(self):
        # every graph with n <= 7, as enumerated and relabeled,
        # and seeded random graphs at n = 10..16
        rng = random.Random(15)
        for g in _memo_graphs():
            for h in (g, _random_relabel(g, rng)):
                _, order, _ = _canonical_code_order(h.rows, h.n)
                assert canonical_relabel(h).rows == oracles.reference_relabel_rows(h.rows, order)

    def test_order_cap(self):
        g = Graph(17, tuple(0 for _ in range(17)))
        with pytest.raises(OrderTooLargeError):
            canonical_form(g)


def _refinement_graphs():
    """Every graph on up to 7 vertices, seeded random connected graphs and
    the cycles on 9..16 vertices, then graphs on 16 vertices where counts of
    8 to 15 set the top count plane: K16, K1,15, K8,8, the complement of C16
    and one whose root order that plane decides."""
    for n in range(1, 8):
        yield from _all_graphs(n)
    rng = random.Random(16)
    for n in range(9, 17):
        for chords in (0, n // 2, 2 * n):
            yield from_edge_list(n, oracles.random_connected_edges(n, rng, chords))
        yield build(cycle(n))
    yield build(complete(16))
    yield build(star(16))
    yield from_edge_list(16, [(u, v) for u in range(8) for v in range(8, 16)])
    yield from_edge_list(16, [(u, v) for u in range(16) for v in range(u + 2, 16) if v - u < 15])
    # the root's first fresh cell is the eight vertices of degree 2; vertices
    # 8 and 9, both of degree 9, have 8 and 2 neighbours there, so only the
    # top plane puts 9 first
    yield from_edge_list(16, [(u, 8) for u in range(8)] + [(2, 3), (4, 5), (6, 7)]
                         + [(u, 9) for u in (0, 1, 8, *range(10, 16))]
                         + [(w, w + 1) for w in range(10, 15)] + [(10, 15)])


def _mask(cell):
    return sum(1 << v for v in cell)


def _reference_refine(rows, cells):
    """oracles.reference_refine on bitmask cells: each mask goes in as its
    vertex list in increasing order, and each refined list comes back as a
    mask."""
    lists = [[v for v in range(len(rows)) if cell >> v & 1] for cell in cells]
    return [_mask(cell) for cell in oracles.reference_refine(rows, lists)]


# search-tree nodes checked per graph: every node of every graph but the dense
# ones on 16 vertices, whose trees have up to 16! leaves
_NODE_BUDGET = 10_000


class TestRefinement:
    """Refining only against the cells that the last round made gives the
    ordered partition that counting against every cell gives."""

    def test_partitions_match_reference(self):
        for g in _refinement_graphs():
            by_degree = [0] * g.n
            for v in range(g.n):
                by_degree[g.degrees[v]] |= 1 << v
            cells = [cell for cell in by_degree if cell]
            root = _refine(g.rows, cells, cells[:-1])
            assert root == _reference_refine(g.rows, cells)
            # the nodes of the search tree, without the twin pruning, depth first
            stack = [root]
            budget = _NODE_BUDGET
            while stack and budget > 0:
                cells = stack.pop()
                at = next((i for i, c in enumerate(cells) if c & (c - 1)), None)
                if at is None:
                    continue
                for v in range(g.n):
                    if cells[at] >> v & 1:
                        low = 1 << v
                        individualized = cells[:at] + [low, cells[at] ^ low] + cells[at + 1:]
                        refined = _refine(g.rows, individualized, [low])
                        assert refined == _reference_refine(g.rows, individualized)
                        stack.append(refined)
                        budget -= 1

    def test_canonical_labeling_matches_reference(self, monkeypatch):
        graphs = list(_refinement_graphs())
        labelings = [_canonical_code_order(g.rows, g.n) for g in graphs]
        forms = [canonical_form(g) for g in graphs]
        monkeypatch.setattr("hsograph.graph._refine",
                            lambda rows, cells, fresh: _reference_refine(rows, cells))
        assert [_canonical_code_order(g.rows, g.n) for g in graphs] == labelings
        assert [canonical_form(g) for g in graphs] == forms
