"""The value types' contract: repr, equality, hashing, ordering, immutability,
pickling and validation, as callers and the --jobs path rely on them."""

from __future__ import annotations

import pickle

import pytest

from hsograph.families import FamilySpec, InvalidParametersError
from hsograph.graph import CanonicalForm, parse_graph6
from hsograph.indices import EdgeTerm, IndexValue, hso
from hsograph.search import MonotonicityWitness
from hsograph.verify import Theorem, TheoremReport, _sandwich

C4 = parse_graph6("Cr")


def _report(**changes):
    fields = dict(theorem="sandwich", graph6="Cr", n=4, value=5.5, bound_lower=5.0,
                  bound_upper=6.0, holds=True, equality_lower=False, equality_upper=False,
                  structural_class="unicyclic", consistent=True)
    return TheoremReport(**{**fields, **changes})


def _witness():
    return MonotonicityWitness("A_", "Bw", (0, 1), 1.5, 1.25, -0.25)


# (a fresh instance, its exact repr, the name of a field to assign)
VALUES = {
    "CanonicalForm": (lambda: CanonicalForm(4, 30), "CanonicalForm(n=4, code=30)", "code"),
    "EdgeTerm": (lambda: EdgeTerm(0, 1, 1, 2, 2.5),
                 "EdgeTerm(u=0, v=1, du=1, dv=2, value=2.5)", "value"),
    "IndexValue": (lambda: hso(parse_graph6("Cr")),
                   "IndexValue(hso=5.656854249492381, so=11.313708498984761)", "hso"),
    "FamilySpec": (lambda: FamilySpec("cprime", 6, (3, 3)),
                   "FamilySpec(kind='cprime', n=6, params=(3, 3))", "n"),
    # bounds left to its default
    "Theorem": (lambda: Theorem(_sandwich, "connected", 2),
                f"Theorem(checker={_sandwich!r}, graph_class='connected', min_n=2, "
                "bounds=(False, False))", "min_n"),
    "MonotonicityWitness": (_witness,
                            "MonotonicityWitness(graph6_before='A_', graph6_after='Bw', "
                            "added_edge=(0, 1), hso_before=1.5, hso_after=1.25, delta=-0.25)",
                            "delta"),
    # note left to its default
    "TheoremReport": (_report,
                      "TheoremReport(theorem='sandwich', graph6='Cr', n=4, value=5.5, "
                      "bound_lower=5.0, bound_upper=6.0, holds=True, equality_lower=False, "
                      "equality_upper=False, structural_class='unicyclic', consistent=True, "
                      "note='')", "note"),
}


@pytest.mark.parametrize("name", VALUES)
def test_repr_and_equality(name):
    make, text, _ = VALUES[name]
    a, b = make(), make()
    assert repr(a) == text
    assert a == b and not a != b


@pytest.mark.parametrize("name", VALUES)
def test_hash_and_immutability(name):
    make, _, field = VALUES[name]
    a, b = make(), make()
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    with pytest.raises(AttributeError):
        setattr(a, field, getattr(b, field))


@pytest.mark.parametrize("name", VALUES)
def test_pickle_round_trip(name):
    # reports and witnesses cross the worker pool of a --jobs run
    value = VALUES[name][0]()
    copy = pickle.loads(pickle.dumps(value))
    assert copy == value and type(copy) is type(value)


def test_canonical_form_orders_by_order_then_code():
    forms = [CanonicalForm(4, 30), CanonicalForm(3, 7), CanonicalForm(4, 2), CanonicalForm(3, 5)]
    assert sorted(forms) == [CanonicalForm(3, 5), CanonicalForm(3, 7),
                             CanonicalForm(4, 2), CanonicalForm(4, 30)]
    assert CanonicalForm(3, 99) < CanonicalForm(4, 0)
    assert CanonicalForm(4, 2) <= CanonicalForm(4, 2) < CanonicalForm(4, 3)


def test_index_value_leaves_graph_out_of_repr_and_builds_per_edge_once():
    value = hso(C4)
    assert value.graph is C4
    assert "graph" not in repr(value)
    assert value.per_edge is value.per_edge
    assert value.per_edge[0] == EdgeTerm(0, 1, 2, 2, 2 ** 0.5)
    assert value == IndexValue(value.hso, value.so, C4)
    assert value != IndexValue(value.hso, value.so, parse_graph6("Cw"))


def test_theorem_report_equality_covers_every_field():
    assert _report() == _report()
    assert _report() != _report(note="upper equality at degenerate order")
    assert _report() != _report(consistent=False)
    assert _report() != _report(bound_upper=None)


def test_family_spec_validates_through_replace_and_make():
    # the constructor's own checks are in test_families
    spec = FamilySpec("cprime", 6, (3, 3))
    assert spec._replace(n=7, params=(3, 4)) == FamilySpec("cprime", 7, (3, 4))
    assert FamilySpec._make(("star", 5, ())) == FamilySpec("star", 5)
    with pytest.raises(InvalidParametersError):
        spec._replace(n=7)
    with pytest.raises(InvalidParametersError):
        FamilySpec._make(("cycle", 2, ()))


def test_named_tuples_compare_as_plain_tuples():
    assert CanonicalForm(4, 30) == (4, 30)
    assert EdgeTerm(0, 1, 1, 2, 2.5) == (0, 1, 1, 2, 2.5)
    assert FamilySpec("star", 4) == ("star", 4, ())
    assert tuple(_witness()) == ("A_", "Bw", (0, 1), 1.5, 1.25, -0.25)
