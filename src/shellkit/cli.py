"""Command-line surface: build, decide, verify, convert, and report.

Every subcommand emits a RunReport (line-oriented text, or one JSON
object with ``--json``) and exits 0 on yes/valid, 1 on no/invalid, 2 on
a usage, parse or precondition ``ValueError``, 3 when a search budget ran
out, and 4 on an ``InternalError``: a failed gadget, compile or
subdivision check, a witness of ``check`` that does not replay, or a no
of ``solve-sat`` that brute force refutes.  Any other exception is a
crash of shellkit and exits 4 too, with its type named on stderr, never
1.  So batch callers can tell refutation from resignation and a bad input
from a fault of shellkit.
The searches keep their levels on an explicit stack, so only a shedding
tree's JSON, written by ``check k-decomposable`` and read by ``verify``,
recurses once per level of its nesting; a tree nested deeper than
Python's recursion limit ends with a message that names the command and
exit 3, as a budget that ran out, never with a "no".

Every decider returns a ``SearchResult``, and this module alone knows the
witness format: ``check`` builds the document of a yes, replays it and
only then writes it, and ``verify`` reads it back through the same
replay.  The report's ``nodes`` counts what ran: search nodes, collapse
steps or removals checked, and in ``verify`` the facets placed,
tree nodes checked or pairs replayed.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping

from shellkit.collapse import (
    DEFAULT_BUDGET,
    CollapseError,
    CollapsePair,
    is_collapsible_dfs,
    verify_collapse_sequence,
)
from shellkit.complex_core import (
    Complex,
    FormatError,
    InternalError,
    LabeledComplex,
    _encode,
    face_key,
    face_sort_key,
    format_facet_lines,
    from_json,
    is_pseudomanifold,
    parse_facet_lines,
    read_faces,
    read_object,
    sorted_face_keys,
    subdivide_labeled,
    to_json,
    vertex_links_connected,
)
from shellkit.gadgets import (
    OneHouseSpec,
    build_literal_house,
    build_O,
    build_one_house,
    build_three_house,
    build_variable_sphere,
    fixtures,
)
from shellkit.reduction import (
    SAT_ORACLE_MAX_N,
    Formula,
    _satisfies,
    assignment_from_removal,
    build_K_phi,
    decide_phi_via_complex,
    parse_cnf,
    sat_oracle,
)
from shellkit.shelling import (
    ShellingError,
    decide_k_decomposable,
    decide_shellable,
    hachimori_decide_sd2,
    verify_decomposition,
    verify_shelling,
)

_EXIT = {"yes": 0, "no": 1, "inadmissible": 1, "budget_exceeded": 3}


@dataclass(frozen=True)
class RunReport:
    """Summary of one command run."""

    command: str
    input_digest: str
    verdict: str
    witness_path: str | None = None
    wall_time: float = 0.0
    search_nodes: int = 0
    # ``main`` sets this from the verdict.
    budget_status: str = "within"


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text()


def _load_complex(text: str) -> LabeledComplex:
    if text.lstrip().startswith("{"):
        return from_json(text)
    return LabeledComplex(parse_facet_lines(text), {})


def _stem(path: str) -> Path:
    if path == "-":
        return Path("stdin")
    p = Path(path)
    return p.with_name(p.stem)


def _write_output(path: str, text: str) -> str | None:
    """Write text to ``path``, with ``-`` meaning stdout; returns the path
    written, or None for stdout."""
    if path == "-":
        sys.stdout.write(text)
        return None
    Path(path).write_text(text)
    return path


# -- subcommands -------------------------------------------------------------------


def _cmd_stats(args: argparse.Namespace) -> tuple[RunReport, dict]:
    text = _read_input(args.input)
    k = _load_complex(text).complex
    links_ok, _ = vertex_links_connected(k)
    pure = k.is_pure(k.dim)
    payload = {
        "f-vector": list(k.f_vector()),
        "reduced-euler-characteristic": k.reduced_euler_characteristic(),
        "dimension": k.dim,
        "pure": pure,
        # A pseudomanifold is pure and nonempty; anything else is not one.
        "pseudomanifold": is_pseudomanifold(k) if pure and k else "no",
        "links-connected": links_ok,
    }
    report = RunReport("stats", _digest(text), "yes")
    return report, {"stats": payload}


def _parse_property(prop: str) -> tuple[str, int | None]:
    if prop in ("shellable", "collapsible", "hachimori-sd2"):
        return prop, None
    if prop.startswith("k-decomposable(") and prop.endswith(")"):
        try:
            return "k-decomposable", int(prop[len("k-decomposable(") : -1])
        except ValueError:
            raise ValueError(f"bad decomposability order in {prop!r}") from None
    raise ValueError(
        f"unknown property {prop!r}; the properties are shellable, "
        "collapsible, k-decomposable(N) for order N, and hachimori-sd2"
    )


def _cmd_check(args: argparse.Namespace) -> tuple[RunReport, dict]:
    if args.budget < 0:
        raise ValueError(f"--budget must be >= 0, got {args.budget}")
    prop, kk = _parse_property(args.property)
    text = _read_input(args.input)
    k = _load_complex(text).complex
    if prop == "shellable":
        res = decide_shellable(k, budget=args.budget)
    elif prop == "collapsible":
        res = is_collapsible_dfs(k, budget=args.budget)
    elif prop == "k-decomposable":
        res = decide_k_decomposable(k, kk, budget=args.budget)
    else:
        res = hachimori_decide_sd2(k, budget=args.budget)
    witness_path = None
    if res.yes:
        # Fail closed: a witness is written only after it replays on the input.
        try:
            doc = _witness_doc(prop, k, res.witness, kk)
            _replay_witness(k, doc)
        except (CollapseError, ShellingError) as exc:
            raise InternalError(f"the {prop} witness does not verify: {exc}") from None
        witness_path = args.witness or f"{_stem(args.input)}.{prop}.witness.json"
        Path(witness_path).write_text(_dump(doc))
    report = RunReport(
        f"check {prop}", _digest(text), res.verdict, witness_path, search_nodes=res.nodes
    )
    return report, {}


def _cmd_reduce(args: argparse.Namespace) -> tuple[RunReport, dict]:
    text = _read_input(args.input)
    phi = parse_cnf(text)
    lc = build_K_phi(phi)
    if args.sd2:
        # The carriers are not written; holding them keeps the level below alive.
        lc = subdivide_labeled(lc, 2)[0]
    out = args.output or f"{_stem(args.input)}{'.sd2' if args.sd2 else ''}.kphi.json"
    written = _write_output(out, to_json(lc))
    payload = {
        "output_path": written,
        "f-vector": list(lc.complex.f_vector()),
        "reduced-euler-characteristic": lc.complex.reduced_euler_characteristic(),
    }
    report = RunReport("reduce", _digest(text), "yes")
    return report, payload


# -- witnesses ---------------------------------------------------------------------
# A witness is a dict until ``_dump`` writes it: ``_witness_doc`` builds one,
# and ``_replay_witness`` and ``_verify_reduction_certificate`` read one.


def _dump(doc: Mapping) -> str:
    """The text of a witness file: the document in the canonical JSON form
    of ``complex_core`` and a newline."""
    return _encode(doc) + "\n"


def _sorted_rows(faces: Iterable[frozenset]) -> list[list[int]]:
    return list(map(list, sorted_face_keys(faces)))


def _witness_doc(prop: str, k: Complex | Formula, witness: tuple, kk: int | None = None) -> dict:
    """The document for the witness of a yes: of ``check prop`` on the
    complex ``k`` (``kk`` is the order of ``k-decomposable``), or with
    ``prop`` "sat" the certificate of ``solve-sat`` on the formula ``k``.
    A collapse's target is read off its pairs, as the vertices of ``k``
    that no pair frees (taking out triangles keeps every vertex); the
    replay in ``check`` confirms it."""
    if prop == "shellable":
        return {"kind": "shelling", "order": [list(face_key(f)) for f in witness]}
    if prop == "k-decomposable":
        return {"kind": "decomposition", "k": kk, "tree": witness[0]}
    if prop == "sat":
        (cert,) = witness
        return {
            "kind": "reduction-certificate",
            "formula": {"n": k.n, "clauses": [list(c) for c in k.clauses]},
            "removal": _sorted_rows(cert.removal),
            "pairs": [p.as_lists() for p in cert.pairs],
            "assignment": {str(v): bool(cert.assignment[v]) for v in sorted(cert.assignment)},
        }
    # Removed facets claim Hachimori's criterion for sd²(k).
    removal, pairs = witness if prop == "hachimori-sd2" else (None, witness)
    freed = {p.free for p in pairs}
    target = [[v] for v in k.vertices if frozenset([v]) not in freed]
    doc = {"kind": "collapse", "pairs": [p.as_lists() for p in pairs], "target_facets": target}
    if removal is not None:
        doc["removed_facets"] = _sorted_rows(removal)
    return doc


def _pairs_from_json(raw) -> tuple:
    """Collapse pairs from a JSON list of ``[free, coface]`` face pairs,
    read in one pass: the shape of every entry is checked, every face is
    read by one ``read_faces`` call, and the faces pair off in order.  A
    malformed entry, a bad face, or a free face that is not a proper
    nonempty subface of its coface raises FormatError, in that order."""
    if not isinstance(raw, list):
        raise FormatError("collapse witness needs a 'pairs' list")
    for entry in raw:
        if not (isinstance(entry, list) and len(entry) == 2):
            raise FormatError(f"bad collapse pair: {entry!r}")
    faces = read_faces([face for entry in raw for face in entry], "collapse pair")
    try:
        return tuple(map(CollapsePair, faces[::2], faces[1::2]))
    except CollapseError as exc:
        raise FormatError(str(exc)) from None


def _replay_removal(
    k: Complex, removed: Iterable[frozenset], pairs: tuple, target: Complex | None = None
) -> int:
    """Take the facets in ``removed`` out of ``k``, replay ``pairs`` on the
    rest (ending at ``target`` when given), and require the collapse to end
    at a single vertex; returns the number of pairs replayed."""
    try:
        rest = k.remove_facets(removed)
    except ValueError as exc:
        raise CollapseError(str(exc)) from None
    final = verify_collapse_sequence(rest, pairs, target)
    if sorted(map(len, final.facets)) != [1]:
        raise CollapseError("the collapse does not end at a single vertex")
    return len(pairs)


def _replay_witness(k: Complex, doc: Mapping) -> int:
    """Replay a shelling, decomposition or collapse witness on ``k``, and
    return what was replayed: facets placed, tree nodes checked or pairs.
    A collapse witness claims that ``k`` less its ``removed_facets``, if
    any, collapses to a single vertex.

    Raises ShellingError or CollapseError when the witness does not hold,
    and FormatError when the document is malformed or of another kind.
    """
    kind = doc.get("kind")
    if kind == "shelling":
        order = read_faces(doc.get("order"), "shelling order")
        if not order:
            raise FormatError("shelling witness needs a nonempty 'order' list")
        verify_shelling(k, order)
        return len(order)
    if kind == "decomposition":
        kk = doc.get("k")
        if type(kk) is not int or kk < 0:
            raise FormatError("decomposition witness needs integer 'k' >= 0")
        return verify_decomposition(k, kk, doc.get("tree"))
    if kind != "collapse":
        raise FormatError(f"unknown witness kind {kind!r}")
    pairs = _pairs_from_json(doc.get("pairs"))
    target = Complex.from_facets(read_faces(doc.get("target_facets"), "'target_facets'"))
    removed = read_faces(doc.get("removed_facets", []), "'removed_facets'")
    replayed = _replay_removal(k, removed, pairs, target)
    if "removed_facets" in doc:
        # Hachimori's criterion for sd²(k): k is 2-dimensional with connected
        # vertex links, and taking out the triangles leaves a complex that
        # collapses to a single vertex.  Such a k is pure: a maximal edge or
        # vertex would disconnect a link or the complex.
        if k.dim != 2 or any(len(f) != 3 for f in removed):
            raise CollapseError("removed facets must be triangles of a 2-complex")
        ok, bad = vertex_links_connected(k)
        if not ok:
            raise CollapseError(f"the link of vertex {bad[0]} is disconnected")
    return replayed


def _verify_reduction_certificate(text: str, doc: Mapping) -> int | None:
    """Replay a certificate on the formula in ``text``: the number of pairs
    replayed, or None when its removal is inadmissible.  Every field is
    required and read before the removal is judged, so a missing or
    mistyped one is a FormatError, even beside an inadmissible removal,
    and the assignment is compared as written, keys included."""
    spec = doc.get("formula")
    if not isinstance(spec, dict):
        raise FormatError("reduction certificate needs a 'formula' object")
    clauses = spec.get("clauses")
    if not (isinstance(clauses, list) and all(isinstance(c, list) for c in clauses)):
        raise FormatError("certificate formula needs a list of clauses")
    witness_phi = Formula(spec.get("n"), tuple(map(tuple, clauses)))
    assignment = doc.get("assignment")
    if not isinstance(assignment, dict) or not all(
        isinstance(b, bool) for b in assignment.values()
    ):
        raise FormatError("certificate 'assignment' must map variables to true or false")
    phi = parse_cnf(text)
    if phi != witness_phi:
        raise ValueError("witness formula does not match the input formula")
    lc = build_K_phi(phi)
    removal = frozenset(read_faces(doc.get("removal"), "'removal'"))
    pairs = _pairs_from_json(doc.get("pairs"))
    extracted = assignment_from_removal(lc, removal)
    if extracted is None:
        return None
    if {str(v): b for v, b in extracted.items()} != assignment or not _satisfies(phi, extracted):
        raise CollapseError("certificate assignment does not match its removal")
    return _replay_removal(lc.complex, sorted(removal, key=face_sort_key), pairs)


def _cmd_verify(args: argparse.Namespace) -> tuple[RunReport, dict]:
    text = _read_input(args.input)
    doc = read_object(Path(args.witness).read_text(), "witness")
    kind = doc.get("kind")
    reason, nodes = None, 0
    try:
        if kind == "reduction-certificate":
            nodes = _verify_reduction_certificate(text, doc)
        else:
            nodes = _replay_witness(_load_complex(text).complex, doc)
        verdict = "yes" if nodes is not None else "inadmissible"
    except (CollapseError, ShellingError) as exc:
        verdict, reason = "no", str(exc)
    report = RunReport(
        f"verify {kind}", _digest(text), verdict, args.witness, search_nodes=nodes or 0
    )
    return report, {"reason": reason} if reason else {}


def _cmd_solve_sat(args: argparse.Namespace) -> tuple[RunReport, dict]:
    text = _read_input(args.input)
    phi = parse_cnf(text)
    res = decide_phi_via_complex(phi)
    report = RunReport("solve-sat", _digest(text), res.verdict, search_nodes=res.nodes)
    if res.verdict == "budget_exceeded":
        # The search stops at the first removal past its budget.
        return report, {"reason": f"removal budget of {res.nodes - 1} exceeded"}
    if not res.yes:
        # A yes reads back as a model of phi (``decide_phi_via_complex``
        # checks it), so only a no is cross-checked by brute force.
        model = sat_oracle(phi) if phi.n <= SAT_ORACLE_MAX_N else None
        if model is not None:
            dump = {
                "formula": {"n": phi.n, "clauses": [list(c) for c in phi.clauses]},
                "complex_verdict": "unsat",
                "oracle_verdict": "sat",
                "oracle_model": model,
            }
            print(
                "internal disagreement between the complex pipeline and the "
                "brute-force oracle:\n" + _encode(dump),
                file=sys.stderr,
            )
            raise InternalError("solver disagreement; see diagnostic dump on stderr")
        return report, {}
    doc = _witness_doc("sat", phi, res.witness)
    witness_path = args.witness or f"{_stem(args.input)}.sat.witness.json"
    Path(witness_path).write_text(_dump(doc))
    report = dataclasses.replace(report, witness_path=witness_path)
    return report, {"assignment": doc["assignment"]}


def _gadget_builders() -> dict:
    builders = {
        "one_house": lambda: build_one_house(OneHouseSpec()),
        "three_house": build_three_house,
        "variable_sphere": build_variable_sphere,
        "o_gadget": build_O,
        "literal_house_1": lambda: build_literal_house(1),
    }
    for name, lc in fixtures().items():
        builders[name] = lambda lc=lc: lc
    return builders


def _cmd_gadget(args: argparse.Namespace) -> tuple[RunReport, dict]:
    builders = _gadget_builders()
    if args.name is None:
        payload = {"gadgets": sorted(builders)}
        return RunReport("gadget", "-", "yes"), payload
    if args.name not in builders:
        raise ValueError(
            f"unknown gadget {args.name!r}; available: {', '.join(sorted(builders))}"
        )
    text = format_facet_lines(builders[args.name]().complex)
    written = _write_output(args.output, text)
    report = RunReport(f"gadget {args.name}", _digest(text), "yes")
    return report, {"output_path": written}


def _cmd_subdivide(args: argparse.Namespace) -> tuple[RunReport, dict]:
    text = _read_input(args.input)
    lc = _load_complex(text)
    # The carriers are not written; holding them keeps the level below alive.
    sub = subdivide_labeled(lc, args.levels)[0]
    as_json = text.lstrip().startswith("{")
    out_text = to_json(sub) if as_json else format_facet_lines(sub.complex)
    ext = "json" if as_json else "txt"
    out = args.output or f"{_stem(args.input)}.sd{args.levels}.{ext}"
    written = _write_output(out, out_text)
    payload = {
        "output_path": written,
        "f-vector": list(sub.complex.f_vector()),
    }
    report = RunReport("subdivide", _digest(text), "yes")
    return report, payload


# -- entry point -------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shellkit",
        description="Build, decide, verify, and convert small simplicial complexes.",
    )
    parser.add_argument("--json", action="store_true", help="emit one JSON report line")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stats", help="print f-vector and structural facts")
    p.add_argument("input", help="facet-list or JSON complex file, - for stdin")
    p.set_defaults(handler=_cmd_stats)

    p = sub.add_parser("check", help="decide a property and write a witness")
    p.add_argument(
        "property",
        help="shellable | collapsible | k-decomposable(N) | hachimori-sd2",
    )
    p.add_argument("input", help="facet-list or JSON complex file, - for stdin")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.add_argument("--witness", default=None, help="witness output path")
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser("reduce", help="compile DIMACS 3-CNF into its complex")
    p.add_argument("input", help="DIMACS CNF file, - for stdin")
    p.add_argument("-o", "--output", default=None, help="output path, - for stdout")
    p.add_argument(
        "--sd2", action="store_true", help="emit the double barycentric subdivision"
    )
    p.set_defaults(handler=_cmd_reduce)

    p = sub.add_parser("verify", help="replay a witness against its input")
    p.add_argument("input", help="complex file, or CNF for reduction certificates")
    p.add_argument("witness", help="witness JSON file")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("solve-sat", help="decide satisfiability via the complex")
    p.add_argument("input", help="DIMACS CNF file, - for stdin")
    p.add_argument("--witness", default=None, help="certificate output path")
    p.set_defaults(handler=_cmd_solve_sat)

    p = sub.add_parser("gadget", help="dump a gadget mesh as facet lines")
    p.add_argument("name", nargs="?", default=None, help="omit to list gadget names")
    p.add_argument("-o", "--output", default="-", help="output path, default stdout")
    p.set_defaults(handler=_cmd_gadget)

    p = sub.add_parser("subdivide", help="barycentrically subdivide a complex")
    p.add_argument("input", help="facet-list or JSON complex file, - for stdin")
    p.add_argument("--levels", type=int, default=1)
    p.add_argument("-o", "--output", default=None, help="output path, - for stdout")
    p.set_defaults(handler=_cmd_subdivide)
    return parser


# Built once per process: building costs far more than parsing, and the
# handlers look up the deciders when they run.
_PARSER = _build_parser()


def _emit(report: RunReport, payload: Mapping, as_json: bool, to_stderr: bool) -> None:
    out = sys.stderr if to_stderr else sys.stdout
    if as_json:
        doc = dataclasses.asdict(report)
        doc.update(payload)
        print(_encode(doc), file=out)
        return
    stats = payload.get("stats")
    if stats:
        for key, value in stats.items():
            if isinstance(value, bool):
                value = "yes" if value else "no"
            print(f"{key}: {value}", file=out)
    print(f"command: {report.command}", file=out)
    print(f"input: {report.input_digest}", file=out)
    print(f"verdict: {report.verdict}", file=out)
    if report.witness_path:
        print(f"witness: {report.witness_path}", file=out)
    for key, value in payload.items():
        if key != "stats" and value is not None:
            print(f"{key.replace('_', '-')}: {value}", file=out)
    print(f"nodes: {report.search_nodes}", file=out)
    print(f"budget: {report.budget_status}", file=out)
    print(f"time: {report.wall_time:.3f}s", file=out)


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    started = time.perf_counter()
    gc.freeze()  # the command's collections skip every object alive before it
    try:
        report, payload = args.handler(args)
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    except RecursionError:
        print(
            f"error: {args.command}: the witness nests deeper than the recursion limit "
            f"({sys.getrecursionlimit()}); no verdict",
            file=sys.stderr,
        )
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4
    finally:
        gc.collect()  # frees the command's own cycles; the frozen heap is not scanned
        gc.unfreeze()
    report = dataclasses.replace(
        report,
        wall_time=time.perf_counter() - started,
        budget_status="exceeded" if report.verdict == "budget_exceeded" else "within",
    )
    stdout_taken = payload.get("output_path", "unused") is None
    _emit(report, payload, args.json, to_stderr=stdout_taken)
    return _EXIT[report.verdict]


if __name__ == "__main__":
    sys.exit(main())
