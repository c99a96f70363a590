"""Toolkit for the hyperbolic Sombor index of small simple graphs.

Computes HSO and the plain Sombor index, builds the named extremal graph
families with their closed forms, enumerates small graphs exhaustively up
to isomorphism, and machine-checks every bound and equality
characterization at desk scale.
"""

__version__ = "0.1.0"

from .graph import (
    Graph,
    CanonicalForm,
    canonical_form,
    canonical_relabel,
    from_edge_list,
    parse_graph6,
)
from .indices import EdgeTerm, IndexValue, edge_term, edge_term_bounds, hso, so
from .families import FamilySpec, build, closed_form_hso, parse_family
from .verify import closed_form_bound

__all__ = [
    "Graph",
    "CanonicalForm",
    "canonical_form",
    "canonical_relabel",
    "from_edge_list",
    "parse_graph6",
    "EdgeTerm",
    "IndexValue",
    "edge_term",
    "edge_term_bounds",
    "hso",
    "so",
    "FamilySpec",
    "build",
    "closed_form_bound",
    "closed_form_hso",
    "parse_family",
    "__version__",
]
