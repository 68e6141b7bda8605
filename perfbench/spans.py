"""In-memory spans around the public functions of each shellkit module.

The tracer patches each listed function (and ``Complex.remove_facet``) in
every loaded ``shellkit`` module that refers to it, so calls made through
the CLI, through other modules and through the benchmark all record a
span.  A span is ``[name, start, end, parent index, job id, count]``;
spans are kept in a list and only reduced to per-layer numbers when the
run ends.  Spans inside the program are not recorded: a closure such as
the sweep's per-candidate ``attempt`` shows up as its callees' spans
parented to ``decide_phi_via_complex``.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# (span name, module, attribute, count extractor or None).  The span name's
# first dotted part is the layer.  A count extractor maps (args, result) to
# the amount of work the call did.
_NODES = lambda args, res: res.nodes  # noqa: E731

TARGETS = (
    ("reduction.build_K_phi", "shellkit.reduction", "build_K_phi", None),
    ("reduction.decide_phi_via_complex", "shellkit.reduction", "decide_phi_via_complex", None),
    ("reduction.schedule_collapse", "shellkit.reduction", "schedule_collapse", None),
    ("reduction.sat_oracle", "shellkit.reduction", "sat_oracle", None),
    ("collapse.greedy", "shellkit.collapse", "is_collapsible_2d_greedy", None),
    ("collapse.dfs", "shellkit.collapse", "is_collapsible_dfs", _NODES),
    (
        "collapse.verify_collapse_sequence",
        "shellkit.collapse",
        "verify_collapse_sequence",
        lambda args, res: len(args[1]),
    ),
    ("shelling.decide_shellable", "shellkit.shelling", "decide_shellable", _NODES),
    ("shelling.decide_k_decomposable", "shellkit.shelling", "decide_k_decomposable", _NODES),
    ("shelling.hachimori_decide_sd2", "shellkit.shelling", "hachimori_decide_sd2", None),
    ("shelling.verify_shelling", "shellkit.shelling", "verify_shelling", None),
    ("shelling.verify_decomposition", "shellkit.shelling", "verify_decomposition", None),
    ("complex_core.remove_facet", "shellkit.complex_core", "Complex.remove_facet", None),
    ("complex_core.subdivide_labeled", "shellkit.complex_core", "subdivide_labeled", None),
    ("complex_core.to_json", "shellkit.complex_core", "to_json", lambda args, res: len(res)),
    ("complex_core.from_json", "shellkit.complex_core", "from_json", None),
    ("complex_core.vertex_links_connected", "shellkit.complex_core", "vertex_links_connected", None),
    ("complex_core.canonical_form", "shellkit.complex_core", "canonical_form", None),
    ("gadgets.build", "shellkit.gadgets", "build_one_house", None),
    ("gadgets.build", "shellkit.gadgets", "build_three_house", None),
    ("gadgets.build", "shellkit.gadgets", "build_literal_house", None),
    ("gadgets.build", "shellkit.gadgets", "build_variable_sphere", None),
    ("gadgets.build", "shellkit.gadgets", "build_O", None),
    ("gadgets.build", "shellkit.gadgets", "fixtures", None),
    ("gadgets.build", "shellkit.gadgets", "dunce_hat", None),
    ("gadgets.build", "shellkit.gadgets", "modified_dunce_hat", None),
    ("gadgets.build", "shellkit.gadgets", "torus_7", None),
    ("gadgets.build", "shellkit.gadgets", "boundary_simplex", None),
    ("cli.main", "shellkit.cli", "main", None),
)

LAYERS = ("reduction", "collapse", "shelling", "complex_core", "gadgets", "cli")


class Tracer:
    """Records spans for the calls listed in ``TARGETS`` while installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.job: str = "setup"
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, count):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.job, None]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    span[5] = count(args, result)
                return result
            finally:
                span[2] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n.startswith("shellkit") and m]
        for name, module_name, attr, count in TARGETS:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[method]
                self._undo.append((cls, method, original))
                setattr(cls, method, self._wrap(name, original, count))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, count)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._undo.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    # -- reduction of spans to numbers ----------------------------------------

    def _outermost(self, names) -> list[list]:
        """Spans named in ``names`` with no ancestor span also in ``names``,
        so recursive or nested calls are not counted twice."""
        out = []
        for span in self.spans:
            if span[0] not in names:
                continue
            parent = span[3]
            while parent >= 0 and self.spans[parent][0] not in names:
                parent = self.spans[parent][3]
            if parent < 0:
                out.append(span)
        return out

    def seconds(self, *names: str) -> float:
        return sum(s[2] - s[1] for s in self._outermost(set(names)))

    def calls(self, name: str, parent: str | None = None) -> int:
        return sum(
            1
            for s in self.spans
            if s[0] == name and (parent is None or (s[3] >= 0 and self.spans[s[3]][0] == parent))
        )

    def total(self, name: str) -> int:
        return sum(s[5] or 0 for s in self.spans if s[0] == name)

    def self_seconds(self) -> dict[str, float]:
        """Per layer: span time minus the time of the spans directly below."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span[3] >= 0:
                child_time[span[3]] += span[2] - span[1]
        out: dict[str, float] = defaultdict(float)
        for span, below in zip(self.spans, child_time):
            out[span[0].split(".")[0]] += (span[2] - span[1]) - below
        return {layer: out.get(layer, 0.0) for layer in LAYERS}

    def job_counts(self) -> dict[str, dict[str, int]]:
        """Per job: the counts of ``TARGETS`` and the sweep candidates, for
        the determinism check."""
        out: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        sweeps = ("reduction.decide_phi_via_complex", "shelling.hachimori_decide_sd2")
        for span in self.spans:
            if span[5] is not None:
                out[span[4]][span[0]] += span[5]
            if span[0] == "collapse.greedy" and span[3] >= 0:
                parent = self.spans[span[3]][0]
                if parent in sweeps:
                    out[span[4]][parent + ".candidates"] += 1
        return {job: dict(counts) for job, counts in out.items()}
