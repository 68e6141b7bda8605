"""The benchmark's tracing hooks and the package's public names still resolve.

``perfbench/spans.py`` patches the functions listed in its ``TARGETS`` by
module and attribute name, so a refactor that renames or deletes one of
them breaks every traced benchmark run.  The module is loaded by path and
only read.
"""

import importlib
import importlib.util
from pathlib import Path

import shellkit

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"

PUBLIC_NAMES = [
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


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves():
    targets = _load_spans().TARGETS
    attrs = {attr for _, _, attr, _ in targets}
    assert "Complex.remove_facet" in attrs
    for _, module_name, attr, _ in targets:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            assert hasattr(owner, part), f"{module_name}.{attr}"
            owner = getattr(owner, part)
        assert callable(owner), f"{module_name}.{attr}"


def test_public_names_unchanged():
    assert shellkit.__all__ == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert hasattr(shellkit, name), name
