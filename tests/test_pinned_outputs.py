"""Pinned outputs of the collapse core and of subdivision on fixed inputs.

One SHA-256 covers the verdicts, search node counts and witness pairs of
free_faces, the greedy and DFS collapse deciders, collapses_to,
decide_shellable, hachimori_decide_sd2, decide_phi_via_complex and
schedule_collapse.  The digest was recorded before the face indexes, DFS
drivers, erasure loops and tree pruners were merged into one
implementation each, so a refactor that changes any verdict, node count
or witness byte fails here.
k-decomposability is left out on purpose: its witnesses changed when
memoized shedding trees started being renamed into the ids of the
complex they are returned for.

A second SHA-256 covers subdivision: the JSON of labeled subdivisions at
one and two levels, and the faces and carriers of
barycentric_subdivision on the fixtures and on the void and empty-face
complexes.  It was recorded before the chain enumerators, carrier
composers and level loops were merged into one flag-based routine.

A third SHA-256 covers decide_k_decomposable: verdicts, node counts and
shedding trees on the pure fixtures, the octahedron, cone(dunce_hat())
and seeded random pure 2-complexes at k = 0, 1, 2, with budget overruns.
It was recorded while the search still built a full-face Complex, with
its link and deletion, at every node.

The first and third digests were recorded again when both deciders
started to refute complexes that fail the cheap shellability tests
(``shelling._may_be_shellable``) without a search.  Only node counts
moved, and a few budget overruns became verdicts; every other verdict and
every witness was checked equal, record by record, before the new digests
were taken.

A fourth SHA-256 covers schedule_collapse: the removal and the collapse
sequence for the formula without variables and for seeded satisfiable
formulas with n = 2..6, repeated literals among them, under every model
of the n = 2 formulas and the first and last model of the others.  It
was recorded while every gluing step still replayed its pairs on a
fresh copy of the whole complex.

A fifth SHA-256 covers build_K_phi: the JSON of the compiled complex,
labels included, for the formula without variables, one with repeated
literals in its clauses, one with literals that never occur, and seeded
satisfiable formulas with n = 1..6.  It was recorded while every label
was still validated by expanding its full closure, the union of the parts
closed every mapped facet a second time, and each gadget copy was built
on its own.

Since hachimori_decide_sd2 refuses non-pure input, the first digest's
records for non-pure 2-complexes run the criterion's prechecks and its
removal search directly, which is what the criterion answered when the
digest was recorded.

The first and fourth digests were recorded again when the DFS behind
is_collapsible_dfs and collapses_to became a search by dimension
(erasure up to dimension 2, branching only on top-dimensional moves).
Compared record by record with the records before: every verdict held,
except that 37 budget overruns of collapses_to onto a vertex, on
2-dimensional inputs, became "no"; node counts and the DFS witnesses
moved; every other record, greedy, disk-onto-tree and removal search
included, stayed byte-identical.  The schedules kept their removals and
their numbers of pairs; the pairs of the three-house exits and the
retractions moved to the lexicographic greedy collapse.

A sixth SHA-256 covers the command line: the exit codes, the --json
reports (without node counts, times and witness paths) and the witness
files of check, verify and solve-sat on the fixtures, seeded pure
2-complexes and seeded formulas.  It was recorded while the witness
writers and readers still lived in the shelling and collapse modules.

The first, third and sixth digests were recorded again when the shelling
deciders gained two rules: a pure d-complex (d >= 1) with χ̃ = 0 and no
ridge in one facet alone is refuted without a search, and a cone is
decided through the link of its least apex, its witness lifted back.
Compared record by record with the records before, no yes became no and
no no became yes, and no witness byte changed.  Six core records moved:
the two decide_shellable budget overruns, on the dunce hat and its cone,
became ("no", 0), and four two-facet cones went from 2 nodes to 0 with
the same shelling.  Six decomposition records moved: the dunce hat's
refutations at k = 0, 1, 2 took 1 node instead of 175, 353 and 407, and
its cone's three budget overruns became "no" in 1 node.  One command-line
record moved: check shellable on the dunce hat exits 1 (no) where it
exited 3.  The core and command-line records also gained the dunce hat
with a pendant triangle on its least edge, whose shelling search still
overruns budget 200 and --budget 3000, and so keeps a budget overrun
among the core records and an exit 3 among the command-line ones.

The first digest was recorded again when collapses_to became the one
collapse onto a target, and check_disk, collapse_disk_to_tree and the
greedy decider's kept vertex were removed.  The greedy records with a
kept vertex now come from collapses_to onto that vertex, and the four
disk-onto-tree records from collapses_to onto the tree.  Compared record
by record with the records before, only the check_disk entries went:
one from each of the 85 records of a 2-dimensional input, 16 of them
"disk" and 69 the reason it was not one.  No other entry moved; every
verdict, node count and witness byte is the same.

The first and fourth digests were recorded again when schedule_collapse
started to collapse each house with one collapses_to onto the faces it
shares, in K_phi's coordinates, in place of a wall, fan and cap phase or
a three-house exit mapped from the house's own coordinates.  Compared
record by record with the records before: every record of the first
digest but its one schedule stayed byte-identical; every schedule, that
one and the 19 of the fourth digest, kept its removal and its number of
pairs, each part of K_phi lost the same faces, and every sequence
replays to v_and.  Only the order of the pairs moved.

The second digest was recorded again when the house builders stopped
labeling the fan, the cap and the apex of their assembly (``_fan``,
``_cap`` and ``_apex``), which nothing read.  Compared record by record
with the records before: only the two records of build_literal_house(1),
at one and two levels, moved, and their JSON equals the JSON before with
those three labels taken out.  Every carrier, every facet and the other
22 records stayed byte-identical.
"""

import contextlib
import hashlib
import io
import json
import random
from pathlib import Path

import pytest

from conftest import pendant_dunce_hat, random_complex, random_pure_2complex
from shellkit import cli
from shellkit.collapse import (
    SearchResult,
    collapses_to,
    find_removal,
    free_faces,
    is_collapsible_2d_greedy,
    is_collapsible_dfs,
)
from shellkit.complex_core import (
    Complex,
    LabeledComplex,
    barycentric_subdivision,
    cone,
    face_key,
    face_sort_key,
    format_facet_lines,
    subdivide_labeled,
    to_json,
    vertex_links_connected,
)
from shellkit.gadgets import build_literal_house, build_three_house, dunce_hat, fixtures
from shellkit.reduction import (
    Formula,
    _satisfies,
    build_K_phi,
    decide_phi_via_complex,
    random_formula,
    sat_oracle,
    schedule_collapse,
)
from shellkit.shelling import (
    ShellingError,
    decide_k_decomposable,
    decide_shellable,
    hachimori_decide_sd2,
)

PINNED_SHA256 = "7cbae23395fbaa1a14de2be1667139bddd1bb78daa8deae3955de4ab8df6d726"
SUBDIVISION_SHA256 = "3ce929cb903c8918a2803d239fa38e92abe7c2d69536bf305f85f5244f24f4bd"
DECOMPOSITION_SHA256 = "a7fcd1ef48439f2fb3d7ed7c425ef060944c7f84e332cd9b5f089d8f6cb0b90d"
SCHEDULE_SHA256 = "3944e193906e0482d46e8532697d0e86d6ef72cb8112e5e52fed4ccbf956139b"
K_PHI_SHA256 = "5d973ea5f1d9e515df112344101b44890f4c3fdcffa62b727f036dd5fe211b23"
CLI_SHA256 = "0fc83f3c687d5f890f92b969265bee045a2d70b5bfed130d4d7408bb3410a943"
CLI_PROPERTIES = ("shellable", "collapsible", "k-decomposable(0)", "k-decomposable(1)", "hachimori-sd2")


def _faces(faces):
    return [list(face_key(f)) for f in faces]


def _pairs(pairs):
    return None if pairs is None else [p.as_lists() for p in pairs]


def _search(res, witness):
    return [res.verdict, res.nodes, None if res.witness is None else witness(res.witness)]


def _sd2_search_on_non_pure(k: Complex):
    """What hachimori_decide_sd2 answered on a non-pure 2-complex when the
    digest was recorded: its prechecks, then its removal search.  It now
    refuses such input."""
    with pytest.raises(ShellingError):
        hachimori_decide_sd2(k)
    chi = k.reduced_euler_characteristic()
    if chi < 0 or not vertex_links_connected(k)[0]:
        return SearchResult("no", None, 0)
    triangles = sorted((f for f in k.faces if len(f) == 3), key=face_key)
    return find_removal(k, [[t] for t in triangles], 2000)


def _complex_records(k: Complex) -> list:
    out = [[[list(face_key(a)), list(face_key(b))] for a, b in free_faces(k)]]
    if k.dim <= 2:
        res = is_collapsible_2d_greedy(k)
        out.append([res.yes, _pairs(res.witness)])
        res = collapses_to(k, Complex.from_facets([[k.vertices[-1]]]))
        out.append([res.yes, _pairs(res.witness)])
    out.append(_search(is_collapsible_dfs(k, budget=200), _pairs))
    point = Complex.from_facets([[k.vertices[0]]])
    out.append(_search(collapses_to(k, point, budget=200), _pairs))
    if k.is_pure():
        out.append(_search(decide_shellable(k, budget=200), _faces))
    if k.dim == 2:
        if k.is_pure():
            res = hachimori_decide_sd2(k, budget=2000)
        else:
            res = _sd2_search_on_non_pure(k)
        # The digest was recorded with the criterion's own verdict words.
        verdict = {"yes": "shellable", "no": "not_shellable"}.get(res.verdict, res.verdict)
        cert = None
        if res.yes:
            removal, pairs = res.witness
            cert = [_faces(removal), _pairs(pairs)]
        out.append([verdict, cert])
    return out


def pinned_records() -> list:
    rng = random.Random(2024)
    fan = Complex.from_facets([[0, 1, 2], [0, 2, 3], [0, 3, 4], [0, 4, 5]])
    inputs = [lc.complex for _, lc in sorted(fixtures().items())]
    inputs += [cone(dunce_hat()), fan]
    # Its shelling search overruns budget 200: the one overrun here.
    inputs += [pendant_dunce_hat()]
    inputs += [random_pure_2complex(rng) for _ in range(60)]
    inputs += [random_complex(rng) for _ in range(30)]
    records = [_complex_records(k) for k in inputs]
    for tree in ([[0, 1]], [[1, 2], [2, 3]], [[0]], [[2, 3], [3, 4], [4, 5]]):
        records.append(_pairs(collapses_to(fan, Complex.from_facets(tree)).witness))

    for phi in (
        Formula(1, ((1, 1, 1),)),
        Formula(1, ((1, 1, 1), (-1, -1, -1))),
        Formula(2, ((1, -2, 2), (-1, 1, 2))),
        Formula(2, ((1, 2, 2), (-1, -2, -2), (1, -2, -2))),
    ):
        res = decide_phi_via_complex(phi)
        if res.yes:
            (cert,) = res.witness
            records.append([_faces(cert.removal), _pairs(cert.pairs)])
        else:
            records.append(None)
    phi = Formula(1, ((1, 1, 1),))
    removal, sequence = schedule_collapse(phi, sat_oracle(phi))
    records.append([sorted(_faces(removal)), _pairs(sequence)])
    return records


def test_collapse_core_outputs_are_pinned():
    records = pinned_records()
    blob = json.dumps(records, sort_keys=True, separators=(",", ":"))
    # The digest only pins what the inputs reach: both verdicts of each
    # decider and a DFS budget overrun.
    for outcome in ("yes", "no", "budget_exceeded", "shellable", "not_shellable"):
        assert f'"{outcome}"' in blob, outcome
    assert hashlib.sha256(blob.encode()).hexdigest() == PINNED_SHA256


def _carriers(sub) -> list:
    return [[v, list(face_key(c))] for v, c in sorted(sub.vertex_carrier.items())]


def subdivision_records() -> list:
    labeled = [
        build_K_phi(Formula(1, ((1, 1, 1),))),
        build_three_house(),
        build_literal_house(1),
        LabeledComplex(dunce_hat(), {}),
    ]
    records = []
    for lc in labeled:
        for levels in (1, 2):
            sub, overall = subdivide_labeled(lc, levels)
            records.append([to_json(sub), _carriers(overall)])
    empty_face = Complex(frozenset({frozenset()}), _trusted=True)
    inputs = [lc.complex for _, lc in sorted(fixtures().items())]
    for k in inputs + [Complex.from_facets([]), empty_face]:
        for levels in (1, 2):
            sub = barycentric_subdivision(k, levels)
            faces = sorted(sub.complex.faces, key=face_sort_key)
            records.append([_faces(faces), _carriers(sub), sub.levels])
    return records


def test_subdivision_outputs_are_pinned():
    blob = json.dumps(subdivision_records(), sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(blob.encode()).hexdigest() == SUBDIVISION_SHA256


def decomposition_records() -> list:
    rng = random.Random(5)
    octahedron = Complex.from_facets(
        [[a, b, c] for a in (0, 1) for b in (2, 3) for c in (4, 5)]
    )
    inputs = [(lc.complex, 2000) for _, lc in sorted(fixtures().items())]
    inputs += [(octahedron, 2000), (cone(dunce_hat()), 300)]
    # A small vertex pool makes yes-instances and memo hits common.
    inputs += [(random_pure_2complex(rng, pool=6), 2000) for _ in range(40)]
    records = [
        _search(decide_k_decomposable(k, kk, budget=budget), list)
        for k, budget in inputs
        for kk in (0, 1, 2)
    ]
    records.append(_search(decide_k_decomposable(octahedron, 0, budget=5), list))
    return records


def test_decomposition_outputs_are_pinned():
    blob = json.dumps(decomposition_records(), sort_keys=True, separators=(",", ":"))
    for outcome in ("yes", "no", "budget_exceeded"):
        assert f'"{outcome}"' in blob, outcome
    assert hashlib.sha256(blob.encode()).hexdigest() == DECOMPOSITION_SHA256


def _models(phi: Formula) -> list[dict[int, bool]]:
    out = []
    for bits in range(2**phi.n):
        a = {i: bool(bits >> (i - 1) & 1) for i in range(1, phi.n + 1)}
        if _satisfies(phi, a):
            out.append(a)
    return out


def schedule_inputs() -> list[tuple[Formula, dict[int, bool]]]:
    rng = random.Random(6)
    formulas = [Formula(0, ()), Formula(2, ((1, 1, -2), (2, 2, 2), (1, -1, -1)))]
    for n in (2, 2, 3, 3, 4, 5, 6):
        while True:
            phi = random_formula(n, n, rng)
            if sat_oracle(phi) is not None:
                formulas.append(phi)
                break
    inputs = []
    for phi in formulas:
        models = _models(phi)
        picked = models if phi.n <= 2 else [models[0], models[-1]]
        inputs += [(phi, a) for a in picked]
    return inputs


def schedule_records() -> list:
    records = []
    for phi, a in schedule_inputs():
        removal, sequence = schedule_collapse(phi, a)
        records.append([sorted(_faces(removal)), _pairs(sequence)])
    return records


def test_schedule_collapse_outputs_are_pinned():
    inputs = schedule_inputs()
    assert any(len(set(c)) < 3 for phi, _ in inputs for c in phi.clauses)
    assert {phi.n for phi, _ in inputs} == {0, 2, 3, 4, 5, 6}
    blob = json.dumps(schedule_records(), sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(blob.encode()).hexdigest() == SCHEDULE_SHA256


def compile_inputs() -> list[Formula]:
    rng = random.Random(10)
    formulas = [
        Formula(0, ()),
        Formula(2, ((1, 1, -2), (2, 2, 2), (-1, -1, 1))),
        Formula(3, ((1, 2, 2), (-2, 1, 1))),
    ]
    for n in (1, 2, 3, 4, 5, 6):
        while True:
            phi = random_formula(n, n, rng)
            if sat_oracle(phi) is not None:
                formulas.append(phi)
                break
    return formulas


def test_build_K_phi_outputs_are_pinned():
    formulas = compile_inputs()
    assert any(len(set(c)) < 3 for phi in formulas for c in phi.clauses)
    occurring = {lit for c in formulas[2].clauses for lit in c}
    assert {-1, 3, -3}.isdisjoint(occurring)
    blob = "".join(to_json(build_K_phi(phi)) for phi in formulas)
    assert hashlib.sha256(blob.encode()).hexdigest() == K_PHI_SHA256


def _cli_record(argv: list[str]) -> list:
    """The exit code and --json report of one CLI run, without its node
    count, time and witness path, and the witness file it wrote."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["--json", *argv])
    report = json.loads(out.getvalue() or "{}")
    path = report.pop("witness_path", None)
    report.pop("search_nodes", None)
    report.pop("wall_time", None)
    witness = Path(path).read_text() if path and argv[0] != "verify" else None
    return [argv[:2] if argv[0] == "check" else argv[:1], code, report, witness]


def cli_records(work: Path) -> list:
    rng = random.Random(14)
    inputs = [(name, lc.complex) for name, lc in sorted(fixtures().items())]
    # Its shelling search overruns --budget 3000: the one exit 3 here.
    inputs += [("pendant_dunce_hat", pendant_dunce_hat())]
    inputs += [(f"k{i}", random_pure_2complex(rng, pool=6 + i % 2)) for i in range(40)]
    records = []
    for name, k in inputs:
        path = work / f"{name}.txt"
        path.write_text(format_facet_lines(k))
        for prop in CLI_PROPERTIES:
            witness = work / f"{name}.{prop}.json"
            argv = ["check", prop, str(path), "--budget", "3000", "--witness", str(witness)]
            records.append(_cli_record(argv))
            if records[-1][1] == 0:
                records.append(_cli_record(["verify", str(path), str(witness)]))
    formulas = [Formula(1, ((1, 1, 1), (-1, -1, -1))), Formula(2, ((1, 1, 1), (-1, -1, -1), (2, 2, -2)))]
    formulas += [random_formula(1 + i % 3, 2 + i % 3, rng) for i in range(10)]
    for i, phi in enumerate(formulas):
        cnf, cert = work / f"phi{i}.cnf", work / f"phi{i}.cert.json"
        lines = [f"p cnf {phi.n} {len(phi.clauses)}"] + [f"{a} {b} {c} 0" for a, b, c in phi.clauses]
        cnf.write_text("\n".join(lines) + "\n")
        records.append(_cli_record(["solve-sat", str(cnf), "--witness", str(cert)]))
        if records[-1][1] == 0:
            records.append(_cli_record(["verify", str(cnf), str(cert)]))
    return records


def test_cli_witness_bytes_are_pinned(tmp_path):
    records = cli_records(tmp_path)
    # Both verdicts of every check property and of solve-sat, a budget
    # overrun and a usage error are reached, and every witness verifies.
    for argv in [["check", prop] for prop in CLI_PROPERTIES] + [["solve-sat"]]:
        assert {code for r, code, _, _ in records if r == argv} >= {0, 1}, argv
    assert {code for _, code, _, _ in records} == {0, 1, 2, 3}
    assert {code for r, code, _, _ in records if r == ["verify"]} == {0}
    blob = json.dumps(records, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(blob.encode()).hexdigest() == CLI_SHA256
