"""Property-based fuzzing of the two text parsers: graph6 and family specs.

Round trips must hold for every order graph6 carries (n <= 62), and any
malformed string may raise only the parser's own error type.  The runs are
derandomized and bounded, so the module is deterministic and takes a few
seconds.
"""

from __future__ import annotations

import pickle

import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import oracles  # noqa: E402
from hsograph.families import KINDS, FamilySpec, InvalidParametersError, build, parse_family  # noqa: E402
from hsograph.graph import (  # noqa: E402
    GRAPH6_MAX_N,
    Graph,
    GraphError,
    _encode_graph6,
    from_edge_list,
    parse_graph6,
)

FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=300,
                suppress_health_check=[HealthCheck.too_slow])

# every character graph6 can hold, a few it cannot, and some non-ASCII
G6_ALPHABET = st.characters(min_codepoint=32, max_codepoint=130) | st.sampled_from("é€\x00\t\n ~")


@st.composite
def graphs(draw, max_n=GRAPH6_MAX_N):
    n = draw(st.integers(1, max_n))
    pairs = [(u, v) for v in range(1, n) for u in range(v)]
    mask = draw(st.integers(0, 2 ** len(pairs) - 1))
    return from_edge_list(n, [p for i, p in enumerate(pairs) if mask >> i & 1])


@st.composite
def mutated_graph6(draw):
    """A valid graph6 string with one character changed, dropped or added."""
    text = draw(graphs(max_n=20)).to_graph6()
    i = draw(st.integers(0, len(text)))
    ch = draw(st.characters(min_codepoint=63, max_codepoint=126) | G6_ALPHABET)
    op = draw(st.sampled_from(("replace", "drop", "insert")))
    if op == "replace" and i < len(text):
        return text[:i] + ch + text[i + 1:]
    if op == "drop" and i < len(text):
        return text[:i] + text[i + 1:]
    return text[:i] + ch + text[i:]


@FUZZ
@given(graphs())
def test_graph6_round_trip(g):
    text = g.to_graph6()
    back = parse_graph6(text)
    assert back == g
    assert back._graph6 == text == _encode_graph6(g.rows)
    wrapped = parse_graph6(">>graph6<<" + text + "\n")
    assert wrapped == g
    assert wrapped._graph6 is None and wrapped.to_graph6() == text


@FUZZ
@given(graphs(), st.data())
def test_degree_fields(g, data):
    """m, max_degree and min_degree match the degrees of a graph however it
    was made: built, parsed, unpickled, or with one edge added or removed."""
    made = [g, parse_graph6(g.to_graph6()), pickle.loads(pickle.dumps(g))]
    if g.n >= 2:
        u, v = data.draw(st.lists(st.integers(0, g.n - 1), min_size=2, max_size=2, unique=True))
        made.append(g.remove_edge(u, v) if g.has_edge(u, v) else g.add_edge(u, v))
    for h in made:
        degrees = h.degrees
        assert degrees == tuple(row.bit_count() for row in h.rows)
        assert (h.m, h.max_degree, h.min_degree) == (sum(degrees) // 2, max(degrees), min(degrees))
        assert (h.m, h.max_degree, h.min_degree) == oracles.degree_fields(h.rows)


@FUZZ
@given(st.text(G6_ALPHABET, max_size=40) | mutated_graph6())
def test_graph6_malformed_raises_only_graph_error(text):
    try:
        g = parse_graph6(text)
    except GraphError:
        return
    assert isinstance(g, Graph) and 1 <= g.n <= GRAPH6_MAX_N
    # the parsed text is kept as the graph6 memo exactly when it is the encoding
    kept = g._graph6 is not None
    encoded = g.to_graph6()
    assert encoded == _encode_graph6(g.rows)
    assert kept == (text == encoded)
    # an accepted string re-encodes to itself, up to the padding bits of its
    # last character
    body = text.strip().removeprefix(">>graph6<<")
    assert len(encoded) == len(body) and encoded[:-1] == body[:-1]
    assert all(not row >> v & 1 for v, row in enumerate(g.rows))
    assert all((g.rows[u] >> v & 1) == (g.rows[v] >> u & 1) for u in range(g.n) for v in range(g.n))


PARAM = st.integers(-3, 40).map(str)
FAMILY_PARAMS = st.lists(
    st.one_of(PARAM, PARAM, PARAM, st.sampled_from(("", " 7", "+4", "1_0", "x", "3.0", "9" * 5000))),
    min_size=1, max_size=3,
)


@st.composite
def family_texts(draw):
    """kind:params with a real kind, mostly integer parameters and a colon."""
    kind = draw(st.sampled_from(KINDS))
    sep = draw(st.just(":") | st.sampled_from(("", "::", ";", " :")))
    return kind + sep + ",".join(draw(FAMILY_PARAMS))


def _parse_family_or_invalid(text):
    try:
        spec = parse_family(text)
    except InvalidParametersError:
        return
    assert isinstance(spec, FamilySpec)
    assert parse_family(spec.label()) == spec
    if spec.n <= GRAPH6_MAX_N:
        g = build(spec)
        assert g.n == spec.n and g.is_connected()


@FUZZ
@given(family_texts())
def test_parse_family_specs(text):
    _parse_family_or_invalid(text)


@FUZZ
@given(st.text(max_size=30))
def test_parse_family_any_text(text):
    _parse_family_or_invalid(text)


def _spec(kind, n, a, b):
    """A family spec of the given kind and order, its parameters drawn from a and b."""
    if kind == "tripend":
        return FamilySpec(kind, n, tuple(sorted((a, b, n - 3 - a - b), reverse=True)))
    if kind == "cprime":
        return FamilySpec(kind, n, (a, n - a))
    if kind == "cdprime":
        return FamilySpec(kind, n, (a, n + 2 - a))
    return FamilySpec(kind, n)


@FUZZ
@given(st.sampled_from(KINDS), st.integers(1, GRAPH6_MAX_N), st.integers(0, 20), st.integers(0, 20))
def test_family_label_round_trip(kind, n, a, b):
    try:
        spec = _spec(kind, n, a, b)
    except InvalidParametersError:
        return
    assert parse_family(spec.label()) == spec
    g = build(spec)
    assert g.n == n and parse_graph6(g.to_graph6()) == g
