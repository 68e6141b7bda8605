"""Command-line surface: build, decide, verify, convert, and report.

Every subcommand emits a RunReport (line-oriented text, or one JSON
object with ``--json``) and exits 0 on yes/valid, 1 on no/invalid, 2 on
usage or parse or precondition errors, 3 when a search budget ran out,
and 4 when an internal invariant failed, so batch callers can tell
refutation from resignation and a bad input from a fault of shellkit.
The deciders recurse once per search level, so an input that drives one
deeper than Python's recursion limit (``check shellable`` on a strip of a
thousand triangles) ends with a message and exit 3, as a cap that ran
out, never with a "no".
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from shellkit.collapse import (
    DEFAULT_BUDGET,
    CollapseError,
    CollapsePair,
    _pairs_from_json,
    collapse_witness_from_json,
    collapse_witness_to_json,
    is_collapsible_2d_greedy,
    is_collapsible_dfs,
    verify_collapse_sequence,
)
from shellkit.complex_core import (
    Complex,
    FormatError,
    InternalError,
    LabeledComplex,
    face_key,
    face_sort_key,
    format_facet_lines,
    from_json,
    is_pseudomanifold,
    parse_facet_lines,
    read_faces,
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
    Formula,
    ReductionError,
    _SWEEP_CAP,
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
    decomposition_witness_from_json,
    decomposition_witness_to_json,
    hachimori_decide_sd2,
    shelling_witness_from_json,
    shelling_witness_to_json,
    verify_decomposition,
    verify_shelling,
)

_EXIT = {"yes": 0, "no": 1, "inadmissible": 1, "budget_exceeded": 3}


class CliError(ValueError):
    """User-facing command error (usage, parse, precondition)."""


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
        "pseudomanifold": is_pseudomanifold(k) if pure and k.faces else "no",
        "links-connected": links_ok,
    }
    report = RunReport("stats", _digest(text), "yes")
    return report, {"stats": payload}


def _parse_property(args: argparse.Namespace) -> tuple[str, int | None]:
    prop = args.property
    if prop.startswith("k-decomposable(") and prop.endswith(")"):
        try:
            return "k-decomposable", int(prop[len("k-decomposable(") : -1])
        except ValueError:
            raise CliError(f"bad decomposability order in {prop!r}") from None
    if prop == "k-decomposable":
        if args.k is None:
            raise CliError("k-decomposable needs --k or the k-decomposable(N) form")
        return prop, args.k
    return prop, None


def _cmd_check(args: argparse.Namespace) -> tuple[RunReport, dict]:
    if args.budget < 0:
        raise CliError(f"--budget must be >= 0, got {args.budget}")
    prop, kk = _parse_property(args)
    text = _read_input(args.input)
    k = _load_complex(text).complex
    witness_json: str | None = None
    pairs = removal = None
    nodes = 0

    if prop == "shellable":
        res = decide_shellable(k, budget=args.budget)
        verdict, nodes = res.verdict, res.nodes
        if res.yes:
            witness_json = shelling_witness_to_json(res.witness)
    elif prop == "collapsible":
        if k.dim <= 2:
            ok, pairs = is_collapsible_2d_greedy(k)
            verdict = "yes" if ok else "no"
        else:
            res = is_collapsible_dfs(k, budget=args.budget)
            verdict, nodes, pairs = res.verdict, res.nodes, res.witness
    elif prop == "k-decomposable":
        res = decide_k_decomposable(k, kk, budget=args.budget)
        verdict, nodes = res.verdict, res.nodes
        if res.yes:
            witness_json = decomposition_witness_to_json(kk, res.witness[0])
    elif prop == "hachimori-sd2":
        res = hachimori_decide_sd2(k, budget=args.budget)
        verdict, nodes = res.verdict, res.nodes
        if res.yes:
            removal, pairs = res.witness
    else:
        raise CliError(f"unknown property {args.property!r}")

    # Fail closed: a witness is written only after it replays on the input.
    try:
        if pairs is not None:
            witness_json = _collapse_witness_json(k, pairs, removal)
        if witness_json is not None:
            _replay_witness(k, json.loads(witness_json))
    except (CollapseError, ShellingError) as exc:
        raise InternalError(f"the {prop} witness does not verify: {exc}") from None
    witness_path = None
    if witness_json is not None:
        witness_path = args.witness or f"{_stem(args.input)}.{prop}.witness.json"
        Path(witness_path).write_text(witness_json)
    report = RunReport(
        f"check {prop}", _digest(text), verdict, witness_path, search_nodes=nodes
    )
    return report, {}


def _cmd_reduce(args: argparse.Namespace) -> tuple[RunReport, dict]:
    text = _read_input(args.input)
    phi = parse_cnf(text)
    lc = build_K_phi(phi)
    if args.sd2:
        lc, _ = subdivide_labeled(lc, 2)
    out = args.output or f"{_stem(args.input)}{'.sd2' if args.sd2 else ''}.kphi.json"
    written = _write_output(out, to_json(lc))
    payload = {
        "output_path": written,
        "f-vector": list(lc.complex.f_vector()),
        "reduced-euler-characteristic": lc.complex.reduced_euler_characteristic(),
    }
    report = RunReport("reduce", _digest(text), "yes")
    return report, payload


def _collapse_witness_json(
    k: Complex, pairs: Sequence[CollapsePair], removal: Iterable[frozenset] | None
) -> str:
    """A collapse witness for ``k`` with the facets in ``removal`` taken out
    first; ``removal=None`` leaves out the ``removed_facets`` key."""
    k = k.remove_facets(removal or ())
    doc = json.loads(collapse_witness_to_json(pairs, verify_collapse_sequence(k, pairs)))
    if removal is not None:
        doc["removed_facets"] = [
            list(face_key(f)) for f in sorted(removal, key=face_sort_key)
        ]
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def _replay_witness(k: Complex, doc: Mapping) -> None:
    """Replay a shelling, decomposition or collapse witness on ``k``.

    Raises ShellingError or CollapseError when the witness does not hold,
    and FormatError when the document is malformed or of another kind.
    """
    kind = doc.get("kind")
    if kind == "shelling":
        verify_shelling(k, shelling_witness_from_json(doc))
    elif kind == "decomposition":
        kk, tree = decomposition_witness_from_json(doc)
        verify_decomposition(k, kk, tree)
    elif kind == "collapse":
        pairs, target = collapse_witness_from_json(doc)
        removed = doc.get("removed_facets")
        if removed is None:
            verify_collapse_sequence(k, pairs, target)
            return
        # Removed facets claim Hachimori's criterion for sd²(k): k is
        # 2-dimensional with connected vertex links, and taking out the
        # triangles leaves a complex that collapses to a single vertex.
        removed = read_faces(removed, "'removed_facets'")
        final = verify_collapse_sequence(k.remove_facets(removed), pairs, target)
        if k.dim != 2 or any(len(f) != 3 for f in removed):
            raise CollapseError("removed facets must be triangles of a 2-complex")
        ok, bad = vertex_links_connected(k)
        if not ok:
            raise CollapseError(f"the link of vertex {bad[0]} is disconnected")
        if sorted(map(len, final.facets)) != [1]:
            raise CollapseError("the collapse does not end at a single vertex")
    else:
        raise FormatError(f"unknown witness kind {kind!r}")


def _verify_reduction_certificate(text: str, doc: Mapping) -> str:
    spec = doc.get("formula")
    if not isinstance(spec, dict):
        raise FormatError("reduction certificate needs a 'formula' object")
    clauses = spec.get("clauses", [])
    if not (isinstance(clauses, list) and all(isinstance(c, list) for c in clauses)):
        raise FormatError("certificate formula needs a list of clauses")
    witness_phi = Formula(spec.get("n", -1), tuple(map(tuple, clauses)))
    raw_assignment = doc.get("assignment") or {}
    if not isinstance(raw_assignment, dict) or not all(
        isinstance(b, bool) for b in raw_assignment.values()
    ):
        raise FormatError("certificate 'assignment' must map variables to true or false")
    assignment = {int(v): b for v, b in raw_assignment.items()}
    phi = parse_cnf(text)
    if phi != witness_phi:
        raise CliError("witness formula does not match the input formula")
    lc = build_K_phi(phi)
    removal = frozenset(read_faces(doc.get("removal", []), "'removal'"))
    try:
        extracted = assignment_from_removal(lc, removal)
    except ReductionError:
        extracted = None
    if extracted is None:
        return "inadmissible"
    if extracted != assignment or not _satisfies(phi, assignment):
        raise CollapseError("certificate assignment does not match its removal")
    pairs = _pairs_from_json(doc.get("pairs", []))
    k = lc.complex.remove_facets(sorted(removal, key=face_sort_key))
    final = verify_collapse_sequence(k, pairs)
    if sorted(map(len, final.facets)) != [1]:
        raise CollapseError("certificate collapse does not end at a single vertex")
    return "yes"


def _cmd_verify(args: argparse.Namespace) -> tuple[RunReport, dict]:
    text = _read_input(args.input)
    witness_text = Path(args.witness).read_text()
    try:
        doc = json.loads(witness_text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"bad witness JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise FormatError("witness must be a JSON object")
    kind = doc.get("kind")
    reason = None
    try:
        if kind == "reduction-certificate":
            verdict = _verify_reduction_certificate(text, doc)
        else:
            _replay_witness(_load_complex(text).complex, doc)
            verdict = "yes"
    except (CollapseError, ShellingError) as exc:
        verdict, reason = "no", str(exc)
    report = RunReport(f"verify {kind}", _digest(text), verdict, args.witness)
    return report, {"reason": reason} if reason else {}


def _cmd_solve_sat(args: argparse.Namespace) -> tuple[RunReport, dict]:
    text = _read_input(args.input)
    phi = parse_cnf(text)
    res = decide_phi_via_complex(phi)
    report = RunReport("solve-sat", _digest(text), res.verdict, search_nodes=res.nodes)
    if res.verdict == "budget_exceeded":
        reason = "removal enumeration needs more candidates than its cap"
        return report, {"reason": f"{reason}; cap is {_SWEEP_CAP}"}
    cert = res.witness[0] if res.yes else None
    model = sat_oracle(phi) if phi.n <= 24 else None
    if phi.n <= 24 and (cert is None) != (model is None):
        dump = {
            "formula": {"n": phi.n, "clauses": [list(c) for c in phi.clauses]},
            "complex_verdict": "unsat" if cert is None else "sat",
            "oracle_verdict": "unsat" if model is None else "sat",
            "oracle_model": model,
        }
        print(
            "internal disagreement between the complex pipeline and the "
            "brute-force oracle:\n" + json.dumps(dump, indent=2),
            file=sys.stderr,
        )
        raise InternalError("solver disagreement; see diagnostic dump on stderr")
    if cert is None:
        return report, {}
    assignment = {str(v): bool(cert.assignment[v]) for v in sorted(cert.assignment)}
    doc = {
        "kind": "reduction-certificate",
        "formula": {"n": phi.n, "clauses": [list(c) for c in phi.clauses]},
        "removal": [list(face_key(f)) for f in sorted(cert.removal, key=face_sort_key)],
        "pairs": [p.as_lists() for p in cert.pairs],
        "assignment": assignment,
    }
    witness_path = args.witness or f"{_stem(args.input)}.sat.witness.json"
    Path(witness_path).write_text(
        json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    )
    report = dataclasses.replace(report, witness_path=witness_path)
    return report, {"assignment": assignment}


def _gadget_builders() -> dict:
    builders = {
        "one_house": lambda: build_one_house(OneHouseSpec()),
        "three_house": build_three_house,
        "variable_sphere": lambda: build_variable_sphere("u1"),
        "o_gadget": lambda: build_O("u1"),
        "literal_house_1": lambda: build_literal_house(1),
    }
    for name in sorted(fixtures()):
        builders[name] = (lambda n=name: fixtures()[n])
    return builders


def _cmd_gadget(args: argparse.Namespace) -> tuple[RunReport, dict]:
    builders = _gadget_builders()
    if args.name is None:
        payload = {"gadgets": sorted(builders)}
        return RunReport("gadget", "-", "yes"), payload
    if args.name not in builders:
        raise CliError(
            f"unknown gadget {args.name!r}; available: {', '.join(sorted(builders))}"
        )
    text = format_facet_lines(builders[args.name]().complex)
    written = _write_output(args.output, text)
    report = RunReport(f"gadget {args.name}", _digest(text), "yes")
    return report, {"output_path": written}


def _cmd_subdivide(args: argparse.Namespace) -> tuple[RunReport, dict]:
    text = _read_input(args.input)
    lc = _load_complex(text)
    sub, _ = subdivide_labeled(lc, args.levels)
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
    p.add_argument("--k", type=int, default=None, help="order for k-decomposable")
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


def _emit(report: RunReport, payload: Mapping, as_json: bool, to_stderr: bool) -> None:
    out = sys.stderr if to_stderr else sys.stdout
    if as_json:
        doc = dataclasses.asdict(report)
        doc.update(payload)
        print(json.dumps(doc, sort_keys=True, separators=(",", ":")), file=out)
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
    parser = _build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        report, payload = args.handler(args)
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    except RecursionError:
        print(
            f"error: the search went deeper than the recursion limit "
            f"({sys.getrecursionlimit()}); no verdict",
            file=sys.stderr,
        )
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
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
