"""Simplicial complex toolkit.

Finite abstract simplicial complexes, held as their faces or as their
facets, collapse and shelling machinery, house-with-rooms gadget builders,
and a reduction from 3-CNF satisfiability to collapsing K_phi and shelling sd²(K_phi).
"""

from shellkit.complex_core import (
    Complex,
    LabeledComplex,
    Feature,
    Subdivision,
    barycentric_subdivision,
    canonical_form,
    cone,
    join,
    is_pseudomanifold,
    vertex_links_connected,
)
from shellkit.collapse import (
    CollapsePair,
    SearchResult,
    collapses_to,
    free_faces,
    is_collapsible_2d_greedy,
    is_collapsible_dfs,
    verify_collapse_sequence,
)
from shellkit.shelling import (
    decide_k_decomposable,
    decide_shellable,
    hachimori_decide_sd2,
    verify_shelling,
)
from shellkit.reduction import (
    Formula,
    ReductionCertificate,
    build_K_phi,
    decide_phi_via_complex,
    parse_cnf,
    sat_oracle,
    schedule_collapse,
)

__all__ = [
    "Complex",
    "LabeledComplex",
    "Feature",
    "Subdivision",
    "barycentric_subdivision",
    "canonical_form",
    "cone",
    "join",
    "is_pseudomanifold",
    "vertex_links_connected",
    "CollapsePair",
    "SearchResult",
    "collapses_to",
    "free_faces",
    "is_collapsible_2d_greedy",
    "is_collapsible_dfs",
    "verify_collapse_sequence",
    "decide_k_decomposable",
    "decide_shellable",
    "hachimori_decide_sd2",
    "verify_shelling",
    "Formula",
    "ReductionCertificate",
    "build_K_phi",
    "decide_phi_via_complex",
    "parse_cnf",
    "sat_oracle",
    "schedule_collapse",
]

__version__ = "0.1.0"
