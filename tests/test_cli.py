"""End-to-end runs of the command line entry point, in process."""

import gc
import json
import random
import sys
import weakref

import pytest
from conftest import misplaced_vertex_labels, pendants_at, recursion_headroom, strip

from shellkit import cli, complex_core, gadgets, reduction
from shellkit.collapse import SearchResult, is_collapsible_2d_greedy
from shellkit.complex_core import (
    Complex,
    Feature,
    FormatError,
    InternalError,
    cone,
    face_key,
    format_facet_lines,
    from_json,
    parse_facet_lines,
    read_faces,
    subdivide_labeled,
    to_json,
)
from shellkit.gadgets import OneHouseSpec, boundary_simplex, build_one_house
from shellkit.reduction import Formula, build_K_phi, random_formula

SPHERE = "0 1 2\n0 1 3\n0 2 3\n1 2 3\n"
WEDGE = "0 1 2\n2 3 4\n"
CNF = "p cnf 2 2\n1 -2 2 0\n-1 1 2 0\n"
UNSAT = "p cnf 1 2\n1 1 1 0\n-1 -1 -1 0\n"


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_stats_plain(tmp_path, capsys):
    path = tmp_path / "sphere.txt"
    path.write_text(SPHERE)
    code, out, _ = run(["stats", str(path)], capsys)
    assert code == 0
    assert "f-vector: [1, 4, 6, 4]" in out
    assert "reduced-euler-characteristic: 1" in out
    assert "pseudomanifold: closed" in out
    assert "verdict: yes" in out


def test_stats_json(tmp_path, capsys):
    path = tmp_path / "sphere.txt"
    path.write_text(SPHERE)
    code, out, _ = run(["--json", "stats", str(path)], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "yes"
    assert doc["stats"]["dimension"] == 2
    assert len(doc["input_digest"]) == 12


def test_stats_non_pure_is_not_a_pseudomanifold(tmp_path, capsys):
    path = tmp_path / "mixed.txt"
    path.write_text("0 1 2\n2 3\n")
    code, out, _ = run(["stats", str(path)], capsys)
    assert code == 0
    assert "pure: no" in out
    assert "pseudomanifold: no" in out
    code, out, _ = run(["--json", "stats", str(path)], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["stats"]["pure"] is False
    assert doc["stats"]["pseudomanifold"] == "no"


def test_stats_void_complex(tmp_path, capsys):
    path = tmp_path / "void.txt"
    path.write_text("# no facets\n")
    code, out, _ = run(["stats", str(path)], capsys)
    assert code == 0
    assert "f-vector: [0]" in out
    assert "pseudomanifold: no" in out
    code, out, _ = run(["--json", "stats", str(path)], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["stats"]["f-vector"] == [0]
    assert doc["stats"]["dimension"] == -1
    assert doc["stats"]["reduced-euler-characteristic"] == 0
    assert doc["stats"]["pseudomanifold"] == "no"


def test_a_void_document_subdivides_to_the_empty_face_complex(tmp_path, capsys):
    # sd of the void complex is {∅}, written as the one facet [], and
    # stats reads it back with the f-vector subdivide reported.  {∅} is
    # shelled by the order [[]] and decomposed by the leaf [], and both
    # replay.
    path = tmp_path / "void.json"
    path.write_text('{"facets":[],"labels":{},"vertices":[]}\n')
    code, out, _ = run(["--json", "subdivide", str(path)], capsys)
    assert code == 0 and json.loads(out)["f-vector"] == [1]
    sd = tmp_path / "void.sd1.json"
    assert sd.read_text() == '{"facets":[[]],"labels":{},"vertices":[]}\n'
    code, out, _ = run(["--json", "stats", str(sd)], capsys)
    assert code == 0 and json.loads(out)["stats"]["f-vector"] == [1]
    # {∅} is pure of dimension -1 with no ridge: a closed pseudomanifold.
    assert json.loads(out)["stats"]["pseudomanifold"] == "closed"
    order, tree = tmp_path / "order.json", tmp_path / "tree.json"
    code, _, _ = run(["check", "shellable", str(sd), "--witness", str(order)], capsys)
    assert code == 0 and order.read_text() == '{"kind":"shelling","order":[[]]}\n'
    code, _, _ = run(["check", "k-decomposable(0)", str(sd), "--witness", str(tree)], capsys)
    assert code == 0
    assert tree.read_text() == '{"k":0,"kind":"decomposition","tree":{"leaf":[]}}\n'
    for witness in (order, tree):
        code, out, _ = run(["verify", str(sd), str(witness)], capsys)
        assert code == 0 and "verdict: yes" in out


def test_a_void_facet_line_file_is_not_subdivided(tmp_path, capsys):
    # sd of the void complex is {∅}, which facet lines cannot hold: the
    # command exits 2 before it writes, and JSON input subdivides instead.
    path = tmp_path / "void.txt"
    path.write_text("# none\n")
    code, out, err = run(["subdivide", str(path)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: facet lines cannot hold the empty-face complex") and "JSON" in err
    assert [p.name for p in tmp_path.iterdir()] == ["void.txt"]


class _Node:
    pass


def test_command_runs_with_the_prior_heap_frozen(tmp_path, capsys, monkeypatch):
    """A command's collections skip the objects alive before it, the
    cycles it made are freed when it returns, and the heap is thawed
    again on every exit: a verdict, an error or a fault."""
    path = tmp_path / "sphere.txt"
    path.write_text(SPHERE)
    seen, cycles = [], []
    parse = cli._PARSER.parse_args

    def frozen_then(outcome):
        def handler(args):
            seen.append(gc.get_freeze_count())
            node = _Node()
            node.self = node
            cycles.append(weakref.ref(node))
            del node  # a raised error's traceback keeps this frame
            if isinstance(outcome, Exception):
                raise outcome
            return handler.real(args)

        def parse_args(argv):
            args = parse(argv)
            handler.real = args.handler
            args.handler = handler
            return args

        monkeypatch.setattr(cli._PARSER, "parse_args", parse_args)

    assert gc.get_freeze_count() == 0
    # No automatic collection, so only the command's own can free a cycle.
    gc.disable()
    try:
        for outcome, want in ((None, 0), (ValueError("bad input"), 2), (InternalError("fault"), 4)):
            frozen_then(outcome)
            code, _, _ = run(["stats", str(path)], capsys)
            assert code == want
            assert seen[-1] > 0
            assert cycles[-1]() is None
            assert gc.get_freeze_count() == 0
    finally:
        gc.enable()


def test_check_shellable_writes_witness(tmp_path, capsys):
    path = tmp_path / "sphere.txt"
    path.write_text(SPHERE)
    code, out, _ = run(["check", "shellable", str(path)], capsys)
    assert code == 0
    witness = tmp_path / "sphere.shellable.witness.json"
    assert witness.exists()
    assert f"witness: {witness}" in out
    vcode, vout, _ = run(["verify", str(path), str(witness)], capsys)
    assert vcode == 0 and "verdict: yes" in vout


def test_check_no_has_exit_one(tmp_path, capsys):
    path = tmp_path / "wedge.txt"
    path.write_text(WEDGE)
    code, out, _ = run(["check", "shellable", str(path)], capsys)
    assert code == 1
    assert "verdict: no" in out
    assert not (tmp_path / "wedge.shellable.witness.json").exists()


def test_check_fails_closed_on_a_bad_witness(tmp_path, capsys, monkeypatch):
    # 2 3 4 meets 0 1 2 only in a vertex, so this order is not a shelling.
    order = tuple(map(frozenset, ((0, 1, 2), (2, 3, 4), (1, 2, 3))))
    monkeypatch.setattr(cli, "decide_shellable", lambda k, budget: SearchResult("yes", order, 3))
    path = tmp_path / "disk.txt"
    path.write_text("0 1 2\n1 2 3\n2 3 4\n")
    code, out, err = run(["check", "shellable", str(path)], capsys)
    assert code == 4
    assert out == ""
    assert err.startswith("internal error: the shellable witness does not verify")
    assert not (tmp_path / "disk.shellable.witness.json").exists()


def test_check_k_decomposable_both_spellings(tmp_path, capsys):
    path = tmp_path / "sphere.txt"
    path.write_text(SPHERE)
    for order in (0, 2):
        code, _, _ = run(["check", f"k-decomposable({order})", str(path)], capsys)
        assert code == 0
    # The order has one spelling: --k is gone, and the bare name says so.
    with pytest.raises(SystemExit) as exc:
        cli.main(["check", "k-decomposable", "--k", "2", str(path)])
    assert exc.value.code == 2
    code, out, err = run(["check", "k-decomposable", str(path)], capsys)
    assert (code, out) == (2, "")
    assert "k-decomposable(N)" in err


def test_check_hachimori_witness_replays(tmp_path, capsys):
    path = tmp_path / "sphere.txt"
    path.write_text(SPHERE)
    code, _, _ = run(["check", "hachimori-sd2", str(path)], capsys)
    assert code == 0
    doc = json.loads((tmp_path / "sphere.hachimori-sd2.witness.json").read_text())
    assert doc["kind"] == "collapse"
    assert len(doc["removed_facets"]) == 1
    vcode, vout, _ = run(
        ["verify", str(path), str(tmp_path / "sphere.hachimori-sd2.witness.json")],
        capsys,
    )
    assert vcode == 0 and "verdict: yes" in vout


@pytest.mark.parametrize(
    "tamper",
    [lambda r: [[0, 1, 7]], lambda r: r + r, lambda r: [[0, 1]]],
    ids=["not-a-face", "repeated", "an-edge"],
)
def test_verify_tampered_removal_is_a_no(tamper, tmp_path, capsys):
    # A well-formed removed_facets list that is not a sequence of facets
    # is a witness that does not hold, not a parse error.
    path = tmp_path / "sphere.txt"
    path.write_text(SPHERE)
    run(["check", "hachimori-sd2", str(path)], capsys)
    witness = tmp_path / "sphere.hachimori-sd2.witness.json"
    doc = json.loads(witness.read_text())
    doc["removed_facets"] = tamper(doc["removed_facets"])
    witness.write_text(json.dumps(doc))
    code, out, _ = run(["verify", str(path), str(witness)], capsys)
    assert code == 1, out
    assert "verdict: no" in out and "is not a facet" in out


def test_check_budget_exceeded_exit_three(tmp_path, capsys):
    # K_phi of the unsatisfiable n=1 formula needs 7 removals checked.
    cnf = tmp_path / "unsat.cnf"
    cnf.write_text(UNSAT)
    run(["reduce", str(cnf)], capsys)
    code, out, _ = run(
        ["check", "hachimori-sd2", "--budget", "1", str(tmp_path / "unsat.kphi.json")], capsys
    )
    assert code == 3
    assert "budget: exceeded" in out


def test_verify_rejects_tampered_witness(tmp_path, capsys):
    path = tmp_path / "sphere.txt"
    path.write_text(SPHERE)
    run(["check", "shellable", str(path)], capsys)
    witness = tmp_path / "sphere.shellable.witness.json"
    doc = json.loads(witness.read_text())
    doc["order"] = doc["order"][:-1]
    witness.write_text(json.dumps(doc))
    code, out, _ = run(["verify", str(path), str(witness)], capsys)
    assert code == 1
    assert "verdict: no" in out
    assert "reason:" in out


# Collapse witnesses with removed facets that replay, but do not show
# Hachimori's criterion for sd² of the input: (input, removed facets,
# whether the remainder is collapsed, exit code of check hachimori-sd2).
FORGED_SD2 = {
    # Vertex 0's link is a triangle boundary plus the edge 4 5.
    "disconnected link": (SPHERE + "0 4 5\n", [[1, 2, 3]], True, 1),
    # Taking out the isolated vertex 6 leaves a disk.  The criterion is
    # defined for pure input only, so check refuses this one.
    "removed vertex": ("0 1 2\n0 2 3\n6\n", [[6]], True, 2),
    # A pendant edge leaves a collapsible complex, but vertex 3's link is
    # the edge 0 2 plus the vertex 4.
    "pendant edge": ("0 1 2\n0 2 3\n3 4\n", [], True, 2),
    "one-dimensional": ("0 1\n", [], True, 2),
    "no collapse": ("0 1 2\n", [], False, 0),
}


@pytest.mark.parametrize("case", sorted(FORGED_SD2))
def test_verify_checks_the_whole_sd2_claim(case, tmp_path, capsys):
    text, removed, collapse, check_code = FORGED_SD2[case]
    k = parse_facet_lines(text)
    removed = [frozenset(f) for f in removed]
    pairs = is_collapsible_2d_greedy(k.remove_facets(removed)).witness if collapse else ()
    path = tmp_path / "k.txt"
    path.write_text(text)
    witness = tmp_path / "forged.json"
    witness.write_text(cli._dump(cli._witness_doc("hachimori-sd2", k, (removed, pairs))))
    code, out, _ = run(["verify", str(path), str(witness)], capsys)
    assert code == 1
    assert "verdict: no" in out and "reason:" in out
    assert run(["check", "hachimori-sd2", str(path)], capsys)[0] == check_code


def test_certificate_and_sd2_witness_share_the_removal_replay(tmp_path, capsys):
    # A certificate's removal and pairs, written as a removed_facets witness
    # on the reduce output, show Hachimori's criterion for sd²(K_phi).
    rng = random.Random(15)
    cnf, cert, kphi = tmp_path / "phi.cnf", tmp_path / "cert.json", tmp_path / "kphi.json"
    sd2 = tmp_path / "sd2.json"
    for n in (1, 2, 3, 1, 2, 3):
        while True:
            phi = random_formula(n, rng.randint(1, 3), rng)
            lines = [f"p cnf {n} {len(phi.clauses)}"] + [f"{a} {b} {c} 0" for a, b, c in phi.clauses]
            cnf.write_text("\n".join(lines) + "\n")
            code = run(["solve-sat", str(cnf), "--witness", str(cert)], capsys)[0]
            if code == 0:
                break
            # Redraw only an unsatisfiable formula, so a broken compile fails here.
            assert code == 1, (phi, code)
        assert run(["reduce", str(cnf), "-o", str(kphi)], capsys)[0] == 0
        cert_doc = json.loads(cert.read_text())
        removal = [frozenset(f) for f in cert_doc["removal"]]
        pairs = cli._pairs_from_json(cert_doc["pairs"])
        k = cli._load_complex(kphi.read_text()).complex
        sd2_doc = cli._witness_doc("hachimori-sd2", k, (removal, pairs))
        assert (sd2_doc["removed_facets"], sd2_doc["pairs"]) == (cert_doc["removal"], cert_doc["pairs"])
        for short in (False, True):
            for doc, path, source in ((cert_doc, cert, cnf), (sd2_doc, sd2, kphi)):
                path.write_text(json.dumps({**doc, "pairs": doc["pairs"][: -1 if short else None]}))
                code, out, _ = run(["verify", str(source), str(path)], capsys)
                assert code == (1 if short else 0), (phi, doc["kind"], out)


def test_report_counts_the_removals_tried(tmp_path, capsys):
    unsat, sat = tmp_path / "unsat.cnf", tmp_path / "sat.cnf"
    unsat.write_text(UNSAT)
    sat.write_text(CNF)
    run(["reduce", str(unsat)], capsys)
    for argv, exit_code, nodes in (
        (["solve-sat", str(unsat)], 1, 2),
        (["check", "hachimori-sd2", str(tmp_path / "unsat.kphi.json")], 1, 7),
    ):
        code, out, _ = run(["--json", *argv], capsys)
        assert (code, json.loads(out)["search_nodes"]) == (exit_code, nodes), argv
    code, out, _ = run(["--json", "solve-sat", str(sat)], capsys)
    assert code == 0
    assert json.loads(out)["search_nodes"] >= 1
    # Greedy check collapsible counts its collapse steps, and verify counts
    # what it replayed: facets placed, tree nodes checked or pairs.
    disk, sphere = tmp_path / "disk.txt", tmp_path / "sphere.txt"
    disk.write_text("0 1 2\n0 2 3\n")
    sphere.write_text(SPHERE)
    code, out, _ = run(["--json", "check", "collapsible", str(disk)], capsys)
    assert (code, json.loads(out)["search_nodes"]) == (0, 5)
    for prop in ("shellable", "k-decomposable(0)", "hachimori-sd2"):
        assert run(["check", prop, str(sphere)], capsys)[0] == 0
    replayed = {}
    for path, witness in (
        (disk, "disk.collapsible"),
        (sphere, "sphere.shellable"),
        (sphere, "sphere.k-decomposable"),
        (sphere, "sphere.hachimori-sd2"),
        (sat, "sat.sat"),
    ):
        argv = ["--json", "verify", str(path), str(tmp_path / f"{witness}.witness.json")]
        code, out, _ = run(argv, capsys)
        assert code == 0, witness
        replayed[witness] = json.loads(out)["search_nodes"]
    assert all(count > 0 for count in replayed.values()), replayed
    assert (replayed["disk.collapsible"], replayed["sphere.shellable"]) == (5, 4)

    def tree_nodes(tree):
        return 1 + sum(tree_nodes(tree[key]) for key in ("link", "delete") if key in tree)

    tree = json.loads((tmp_path / "sphere.k-decomposable.witness.json").read_text())["tree"]
    assert replayed["sphere.k-decomposable"] == tree_nodes(tree) > 1


def test_verify_garbage_witness_is_usage_error(tmp_path, capsys):
    path = tmp_path / "sphere.txt"
    path.write_text(SPHERE)
    witness = tmp_path / "bad.json"
    witness.write_text("{]")
    code, _, err = run(["verify", str(path), str(witness)], capsys)
    assert code == 2
    assert "error:" in err


def test_reduce_then_stats(tmp_path, capsys):
    cnf = tmp_path / "phi.cnf"
    cnf.write_text(CNF)
    code, out, _ = run(["reduce", str(cnf)], capsys)
    assert code == 0
    built = tmp_path / "phi.kphi.json"
    assert built.exists()
    assert f"output-path: {built}" in out
    scode, sout, _ = run(["stats", str(built)], capsys)
    assert scode == 0
    assert "f-vector: [1, 113, 431, 321]" in sout
    assert "reduced-euler-characteristic: 2" in sout
    assert "links-connected: yes" in sout


def test_reduce_sd2_writes_the_double_subdivision(tmp_path, capsys):
    cnf, out_path = tmp_path / "phi.cnf", tmp_path / "phi.sd2.json"
    cnf.write_text("p cnf 1 1\n1 1 1 0\n")
    code, out, _ = run(["--json", "reduce", "--sd2", str(cnf), "-o", str(out_path)], capsys)
    assert code == 0
    assert json.loads(out)["f-vector"] == [1, 2978, 9132, 6156]
    sd2, _ = subdivide_labeled(build_K_phi(Formula(1, ((1, 1, 1),))), 2)
    assert out_path.read_text() == to_json(sd2)


def test_json_vertex_declarations(tmp_path, capsys):
    path = tmp_path / "input.json"
    path.write_text('{"vertices":[0,1],"facets":[[0,1,2]]}')
    code, out, err = run(["stats", str(path)], capsys)
    assert (code, out) == (2, "")
    assert err == "error: facets use undeclared vertices: [2]\n"
    # A declared vertex in no facet is an isolated 0-face.
    text = '{"vertices":[0,1,2,{"id":3}],"facets":[[0,1,2]]}'
    path.write_text(text)
    code, out, _ = run(["--json", "stats", str(path)], capsys)
    assert code == 0
    assert json.loads(out)["stats"]["f-vector"] == [1, 4, 3, 1]
    lc = from_json(to_json(from_json(text)))
    assert lc.complex.f_vector() == (1, 4, 3, 1) and frozenset([3]) in lc.complex.faces
    assert to_json(lc) == to_json(from_json(text))


_ID = "vertex id must be an int, got {}"
_TOKEN = "line 1: invalid literal for int() with base 10: {!r}"
_REPEAT = "facet [0, 1, 0] repeats a vertex"
_LIMIT = "facet with 17 vertices exceeds limit"

# One fault per document, through every reader of vertex ids: facets, the
# declared ids, and per reader what it gives, a FormatError text or None
# for no FormatError.  The facet lines are the facets' JSON tokens; the
# pair reader reads each facet as the coface of the pair [[0], facet].
READER_CASES = {
    # name: (facets, declared, facet lines, from_facets, read_faces, from_json, pair reader)
    "true": ([[0, True]], [0, 1], _TOKEN.format("true"), *[_ID.format(True)] * 4),
    "float": ([[0, 1.0]], [0, 1], _TOKEN.format("1.0"), *[_ID.format(1.0)] * 4),
    "string": ([[0, "1"]], [0, 1], _TOKEN.format('"1"'), *[_ID.format("'1'")] * 4),
    "null": ([[0, None]], [0, 1], _TOKEN.format("null"), *[_ID.format(None)] * 4),
    "nested": ([[0, [1]]], [0, 1], _TOKEN.format("[1]"), *[_ID.format([1])] * 4),
    "repeat": (
        [[0, 1, 0]],
        [0, 1],
        _REPEAT,
        _REPEAT,
        f"'facets': face {_REPEAT[6:]}",
        _REPEAT,
        f"collapse pair: face {_REPEAT[6:]}",
    ),
    "17-vertices": ([[*range(17)]], [*range(17)], _LIMIT, _LIMIT, None, _LIMIT, None),
    "undeclared": ([[0, 1]], [0], None, None, None, "facets use undeclared vertices: [1]", None),
}


@pytest.mark.parametrize("case", sorted(READER_CASES))
def test_every_reader_names_a_fault_alike(case, tmp_path, capsys):
    facets, declared, *expected = READER_CASES[case]
    doc = json.dumps({"facets": facets, "labels": {}, "vertices": [{"id": v} for v in declared]})
    pairs = [[[0], f] for f in facets]
    files = {name: tmp_path / name for name in ("k.txt", "k.json", "triangle.txt", "w.json")}
    files["k.txt"].write_text("".join(" ".join(map(json.dumps, f)) + "\n" for f in facets))
    files["k.json"].write_text(doc)
    files["triangle.txt"].write_text(TRIANGLE)
    files["w.json"].write_text(json.dumps({"kind": "collapse", "pairs": pairs, "target_facets": [[0, 1, 2]]}))
    readers = [
        (lambda: parse_facet_lines(files["k.txt"].read_text()), ["stats", "k.txt"]),
        (lambda: Complex.from_facets(facets), None),
        (lambda: read_faces(facets, "'facets'"), None),
        (lambda: from_json(doc), ["stats", "k.json"]),
        (lambda: cli._pairs_from_json(pairs), ["verify", "triangle.txt", "w.json"]),
    ]
    for (call, argv), message in zip(readers, expected):
        if message is None:
            call()
        else:
            with pytest.raises(FormatError) as exc:
                call()
            assert type(exc.value) is FormatError and str(exc.value) == message, argv
        if argv:
            code, _, err = run([argv[0], *(str(files[name]) for name in argv[1:])], capsys)
            if message is None:
                # Read: stats says yes, and no pair collapses the triangle.
                assert (code, err) == (int(argv[0] == "verify"), ""), argv
            else:
                assert (code, err) == (2, f"error: {message}\n"), argv


def test_reduce_to_stdout_keeps_report_on_stderr(tmp_path, capsys):
    cnf = tmp_path / "phi.cnf"
    cnf.write_text(CNF)
    code, out, err = run(["reduce", str(cnf), "-o", "-"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["labels"]
    assert "verdict: yes" in err


def test_solve_sat_certificate_round_trip(tmp_path, capsys):
    cnf = tmp_path / "phi.cnf"
    cnf.write_text(CNF)
    code, out, _ = run(["solve-sat", str(cnf)], capsys)
    assert code == 0
    cert = tmp_path / "phi.sat.witness.json"
    assert cert.exists()
    doc = json.loads(cert.read_text())
    assert doc["kind"] == "reduction-certificate"
    assert doc["formula"]["n"] == 2
    assert "assignment" in out
    vcode, vout, _ = run(["verify", str(cnf), str(cert)], capsys)
    assert vcode == 0 and "verdict: yes" in vout


def test_solve_sat_unsat(tmp_path, capsys):
    cnf = tmp_path / "phi.cnf"
    cnf.write_text(UNSAT)
    code, out, _ = run(["solve-sat", str(cnf)], capsys)
    assert code == 1
    assert "verdict: no" in out


def test_solve_sat_removal_budget_overrun_exits_three(capsys, monkeypatch):
    import io

    # The ROADMAP's unsatisfiable n=3 formula needs 8 removals checked.
    monkeypatch.setattr(reduction, "DEFAULT_BUDGET", 4)
    monkeypatch.setattr("sys.stdin", io.StringIO("p cnf 3 3\n1 1 1 0\n-1 -1 -1 0\n2 3 -2 0\n"))
    code, out, _ = run(["--json", "solve-sat", "-"], capsys)
    assert code == 3
    doc = json.loads(out)
    assert doc["verdict"] == "budget_exceeded"
    assert doc["budget_status"] == "exceeded"
    assert doc["witness_path"] is None


def test_solve_sat_decides_seven_variables(tmp_path, capsys):
    # 8**7 candidate removals; the budget counts only those the walk checks.
    cnf = tmp_path / "seven.cnf"
    cnf.write_text("p cnf 7 1\n1 2 3 0\n")
    code, out, _ = run(["solve-sat", str(cnf)], capsys)
    assert code == 0 and "verdict: yes" in out
    vcode, vout, _ = run(["verify", str(cnf), str(tmp_path / "seven.sat.witness.json")], capsys)
    assert vcode == 0 and "verdict: yes" in vout


def test_internal_error_exits_four(tmp_path, capsys, monkeypatch):
    def broken(phi):
        raise InternalError("erasure and greedy disagree")

    monkeypatch.setattr(cli, "decide_phi_via_complex", broken)
    cnf = tmp_path / "phi.cnf"
    cnf.write_text(CNF)
    code, out, err = run(["solve-sat", str(cnf)], capsys)
    assert code == 4
    assert out == ""
    assert err == "internal error: erasure and greedy disagree\n"


def test_crash_exits_four(tmp_path, capsys, monkeypatch):
    # An exception no handler names is a fault of shellkit, never a "no".
    def broken(k, budget):
        raise KeyError("lost facet")

    monkeypatch.setattr(cli, "decide_shellable", broken)
    path = tmp_path / "sphere.txt"
    path.write_text(SPHERE)
    code, out, err = run(["check", "shellable", str(path)], capsys)
    assert (code, out) == (4, "")
    assert err == "internal error: KeyError: 'lost facet'\n"
    assert list(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize("command", ["reduce", "solve-sat", "verify"])
def test_broken_compile_exits_four(command, tmp_path, capsys, monkeypatch):
    # A compile whose link check fails is a fault of shellkit, not of the
    # formula, on every command that compiles K_phi.
    cnf, cert = tmp_path / "phi.cnf", tmp_path / "cert.json"
    cnf.write_text(CNF)
    assert run(["solve-sat", str(cnf), "--witness", str(cert)], capsys)[0] == 0
    monkeypatch.setattr(reduction, "_amalgamate_with_maps", pendants_at(lambda g: [max(g)], []))
    argv = {"reduce": [str(cnf)], "solve-sat": [str(cnf)], "verify": [str(cnf), str(cert)]}
    code, out, err = run([command, *argv[command]], capsys)
    assert (code, out) == (4, "")
    assert err.startswith("internal error: compiled complex has a disconnected link at (")
    assert not (tmp_path / "phi.kphi.json").exists()


def test_misplaced_compiled_label_exits_four(tmp_path, capsys, monkeypatch):
    cnf = tmp_path / "phi.cnf"
    cnf.write_text(CNF)
    monkeypatch.setattr(reduction, "map_feature", misplaced_vertex_labels)
    code, out, err = run(["reduce", str(cnf)], capsys)
    assert (code, out) == (4, "")
    assert err == "internal error: compiled label 'v_and': face (-1,) is not in the complex\n"


@pytest.mark.parametrize("command", ["reduce --sd2", "subdivide"])
def test_misplaced_subdivided_label_exits_four(command, tmp_path, capsys, monkeypatch):
    # A label of a validated complex maps to a valid label, so a subdivided
    # label off the complex is a fault of the map, on K_phi or a JSON input.
    # A path that skips the barycenter of its first edge keeps its vertices
    # but not that edge, which only the star index of the facets-only sd
    # can refuse.
    cnf, kphi = tmp_path / "phi.cnf", tmp_path / "phi.kphi.json"
    cnf.write_text(CNF)
    assert run(["reduce", str(cnf), "-o", str(kphi)], capsys)[0] == 0
    map_once = complex_core._map_feature_once
    name, *flags = command.split()
    for misplace in ("vertex", "path edge"):
        off = []

        def misplaced(feat, *maps):
            mapped = map_once(feat, *maps)
            if misplace == "vertex":
                return Feature.vertex(-1) if mapped.kind == "vertex" else mapped
            if mapped.kind == "path":
                mapped = Feature.path(mapped.value[:1] + mapped.value[2:])
                off.append(face_key(mapped.value[:2]))
            return mapped

        monkeypatch.setattr(complex_core, "_map_feature_once", misplaced)
        code, out, err = run([name, *flags, str(cnf if flags else kphi)], capsys)
        assert (code, out) == (4, "")
        # The first label checked: on K_phi v_and or f_and, in JSON the least name.
        if misplace == "vertex":
            label, face = ("v_and" if flags else "v(u1)"), (-1,)
        else:
            label, face = ("f_and" if flags else "b(u1)"), off[0]
        assert err == f"internal error: subdivided label {label!r}: face {face} is not in the complex\n"


def test_failed_gadget_check_exits_four(capsys, monkeypatch):
    # A gadget check whose ridge map holds no ridge finds no free face.
    monkeypatch.setattr(gadgets, "ridge_holders", lambda facets: {})
    code, out, err = run(["gadget", "three_house"], capsys)
    assert (code, out) == (4, "")
    assert err.startswith("internal error: three-house: free faces [] != expected [(2, 3), ")


def test_solve_sat_runs_brute_force_only_on_a_no(tmp_path, capsys, monkeypatch):
    calls = []
    oracle = cli.sat_oracle
    monkeypatch.setattr(cli, "sat_oracle", lambda phi: calls.append(phi) or oracle(phi))
    # The walk reads a yes back as a model, so nothing is left to check; brute
    # force would try 2**20 assignments to reach the only model, all-true.
    unit = tmp_path / "unit.cnf"
    unit.write_text("p cnf 20 20\n" + "".join(f"{i} {i} {i} 0\n" for i in range(1, 21)))
    code, out, _ = run(["solve-sat", str(unit)], capsys)
    assert (code, calls) == (0, [])
    assert "verdict: yes" in out
    unsat = tmp_path / "unsat.cnf"
    unsat.write_text(UNSAT)
    assert run(["solve-sat", str(unsat)], capsys)[0] == 1
    assert calls == [Formula(1, ((1, 1, 1), (-1, -1, -1)))]


def test_solve_sat_no_refuted_by_brute_force_exits_four(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "decide_phi_via_complex", lambda phi: SearchResult("no", None, 2))
    cnf = tmp_path / "phi.cnf"
    cnf.write_text(CNF)
    code, out, err = run(["solve-sat", str(cnf)], capsys)
    assert (code, out) == (4, "")
    head, _, rest = err.partition(":\n")
    assert head == "internal disagreement between the complex pipeline and the brute-force oracle"
    dump, _, last = rest.rpartition("}\n")
    assert json.loads(dump + "}") == {
        "formula": {"n": 2, "clauses": [[1, -2, 2], [-1, 1, 2]]},
        "complex_verdict": "unsat",
        "oracle_verdict": "sat",
        "oracle_model": {"1": False, "2": False},
    }
    assert last == "internal error: solver disagreement; see diagnostic dump on stderr\n"


@pytest.mark.parametrize("prop, budget", [("shellable", "-5"), ("hachimori-sd2", "-1")])
def test_check_negative_budget_is_usage_error(prop, budget, tmp_path, capsys):
    path = tmp_path / "strip.txt"
    path.write_text("0 1 2\n1 2 3\n2 3 4\n")
    code, out, err = run(["check", prop, str(path), "--budget", budget], capsys)
    assert code == 2
    assert out == ""
    assert err == f"error: --budget must be >= 0, got {budget}\n"
    assert list(tmp_path.iterdir()) == [path]


def test_only_a_witness_deeper_than_recursion_limit_exits_three(tmp_path, capsys):
    # The searches keep their levels on an explicit stack, so with 100
    # frames of headroom a 300-triangle strip gets a shelling and the cone
    # over a 150-triangle strip a collapse.  Only a shedding tree's JSON
    # recurses once per level: the strip's vertex decomposition nests 299
    # deep, too deep to write.
    path = tmp_path / "strip.txt"
    path.write_text(format_facet_lines(strip(300)))
    cone_path = tmp_path / "cone.txt"
    cone_path.write_text(format_facet_lines(cone(strip(150))))
    witness = tmp_path / "strip.shellable.witness.json"
    with recursion_headroom(100):
        assert run(["check", "shellable", str(path)], capsys)[0] == 0
        assert run(["verify", str(path), str(witness)], capsys)[0] == 0
        assert run(["check", "collapsible", str(cone_path)], capsys)[0] == 0
        code, out, err = run(["check", "k-decomposable(0)", str(path)], capsys)
        limit = sys.getrecursionlimit()
    assert (code, out) == (3, "")
    assert err == (
        "error: check: the witness nests deeper than the recursion limit "
        f"({limit}); no verdict\n"
    )
    assert not (tmp_path / "strip.k-decomposable.witness.json").exists()
    # Under the restored limit the same strip is a yes with a witness.
    assert run(["check", "k-decomposable(0)", str(path)], capsys)[0] == 0
    witness = tmp_path / "strip.k-decomposable.witness.json"
    assert run(["verify", str(path), str(witness)], capsys)[0] == 0


def test_verify_deeper_than_recursion_limit_names_the_witness(tmp_path, capsys):
    # verify searches nothing; a shedding tree nested 5,000 deep is too
    # deep to read, and the message says so rather than blame a search.
    path = tmp_path / "triangle.txt"
    path.write_text("0 1 2\n")
    node = '{"shedding":[0],"link":{"leaf":[]},"delete":'
    tree = node * 5000 + '{"leaf":[]}' + "}" * 5000
    witness = tmp_path / "deep.json"
    witness.write_text('{"kind":"decomposition","k":0,"tree":' + tree + "}")
    code, out, err = run(["verify", str(path), str(witness)], capsys)
    assert code == 3
    assert out == ""
    assert err == (
        "error: verify: the witness nests deeper than the recursion limit "
        f"({sys.getrecursionlimit()}); no verdict\n"
    )


# Each case is (complex file text or None for the CNF, witness base, patch):
# "stats", or "check" and a property, runs on the text; otherwise verify
# runs on a witness of the given kind with the patch applied on top, where
# a DROP value drops the key, or on the patch itself when it is a list.
DROP = object()
TRIANGLE = "0 1 2\n"
TRIANGLE_BOUNDARY = "0 1\n1 2\n0 2\n"
TRIANGLE_BOUNDARY_TREE = {
    "shedding": [0],
    "link": {"shedding": [1], "link": {"leaf": []}, "delete": {"leaf": [2]}},
    "delete": {"leaf": [1, 2]},
}
MALFORMED = {
    "complex-not-json": ('{"vertices":[0],"facets":[[0]]', "stats", {}),
    "complex-without-facets": ('{"vertices":[0]}', "stats", {}),
    "complex-without-vertices": ('{"facets":[[0]]}', "stats", {}),
    "label-without-value": (
        '{"vertices":[0],"facets":[[0]],"labels":{"x":{"kind":"vertex"}}}',
        "stats",
        {},
    ),
    "edge-label-not-a-pair": (
        '{"vertices":[0,1],"facets":[[0,1]],"labels":{"x":{"kind":"edge","value":[0]}}}',
        "stats",
        {},
    ),
    "path-label-not-a-list": (
        '{"vertices":[0,1],"facets":[[0,1]],"labels":{"x":{"kind":"path","value":5}}}',
        "stats",
        {},
    ),
    "label-kind-unknown": (
        '{"vertices":[0],"facets":[[0]],"labels":{"x":{"kind":"cone","value":0}}}',
        "stats",
        {},
    ),
    "decomposability-order-not-an-integer": (TRIANGLE, "check k-decomposable(x)", {}),
    "decomposability-order-negative": (TRIANGLE, "check k-decomposable(-1)", {}),
    "witness-a-json-list": (TRIANGLE, "shelling", [{"kind": "shelling", "order": [[0, 1, 2]]}]),
    "facets-not-faces": ('{"vertices":[0],"facets":[5]}', "stats", {}),
    "vertices-not-a-list": ('{"vertices":5,"facets":[[0]]}', "stats", {}),
    "vertex-entry-without-id": ('{"vertices":[{"v":0}],"facets":[[0]]}', "stats", {}),
    "labels-not-an-object": ('{"vertices":[0],"facets":[[0]],"labels":[1]}', "stats", {}),
    # Falsy, but present and not an object.
    "labels-an-empty-list": ('{"vertices":[0],"facets":[[0]],"labels":[]}', "stats", {}),
    "labels-zero": ('{"vertices":[0],"facets":[[0]],"labels":0}', "stats", {}),
    "labels-false": ('{"vertices":[0],"facets":[[0]],"labels":false}', "stats", {}),
    "labels-an-empty-string": ('{"vertices":[0],"facets":[[0]],"labels":""}', "stats", {}),
    "labels-null": ('{"vertices":[0],"facets":[[0]],"labels":null}', "stats", {}),
    "collapse-without-pairs": (TRIANGLE, "collapse", {"pairs": DROP}),
    "label-facets-not-faces": (
        '{"vertices":[0],"facets":[[0]],"labels":{"x":{"kind":"subcomplex","value":[5]}}}',
        "stats",
        {},
    ),
    "removed-facets-not-faces": (TRIANGLE, "collapse", {"removed_facets": [5]}),
    # Present but null is no list of faces, not an absent key.
    "removed-facets-null": (TRIANGLE, "collapse", {"removed_facets": None}),
    "pair-face-not-a-list": (TRIANGLE, "collapse", {"pairs": [[1, [0, 1]]]}),
    "pair-not-proper": (TRIANGLE, "collapse", {"pairs": [[[0, 1], [0, 1]]]}),
    "pair-face-repeats-a-vertex": (TRIANGLE, "collapse", {"pairs": [[[0, 0], [0, 1]]]}),
    "target-not-faces": (TRIANGLE, "collapse", {"target_facets": [[0, "1"]]}),
    "shelling-order-not-faces": (TRIANGLE, "shelling", {"order": [1, 2]}),
    "shelling-order-empty": (TRIANGLE, "shelling", {"order": []}),
    "shelling-without-order": (TRIANGLE, "shelling", {"order": DROP}),
    "decomposition-without-tree": (TRIANGLE_BOUNDARY, "decomposition", {}),
    "decomposition-tree-not-an-object": (TRIANGLE_BOUNDARY, "decomposition", {"tree": [0]}),
    # The tree's shape is read before the complex is judged empty or impure.
    "decomposition-without-tree-on-an-impure-complex": ("0 1 2\n2 3\n", "decomposition", {}),
    "decomposition-tree-not-an-object-on-an-impure-complex": (
        "0 1 2\n2 3\n",
        "decomposition",
        {"tree": [0]},
    ),
    "decomposition-tree-not-an-object-on-the-void-complex": ("", "decomposition", {"tree": [0]}),
    "decomposition-link-not-an-object": (
        TRIANGLE_BOUNDARY,
        "decomposition",
        {"tree": {"shedding": [0], "link": 5, "delete": {"leaf": [1, 2]}}},
    ),
    "decomposition-delete-not-an-object": (
        TRIANGLE_BOUNDARY,
        "decomposition",
        {
            "tree": {
                "shedding": [0],
                "link": {"shedding": [1], "link": {"leaf": []}, "delete": {"leaf": [2]}},
                "delete": [1, 2],
            }
        },
    ),
    # The next three trees are valid for k=1 once True reads as 1.
    "decomposition-k-a-bool": (
        TRIANGLE_BOUNDARY,
        "decomposition",
        {"k": True, "tree": TRIANGLE_BOUNDARY_TREE},
    ),
    "decomposition-k-negative": (
        TRIANGLE,
        "decomposition",
        {"k": -1, "tree": {"leaf": [0, 1, 2]}},
    ),
    "decomposition-leaf-vertex-a-bool": (
        TRIANGLE_BOUNDARY,
        "decomposition",
        {"tree": {**TRIANGLE_BOUNDARY_TREE, "delete": {"leaf": [True, 2]}}},
    ),
    "decomposition-shedding-vertex-a-bool": (
        TRIANGLE_BOUNDARY,
        "decomposition",
        {
            "tree": {
                "shedding": [True],
                "link": {"shedding": [0], "link": {"leaf": []}, "delete": {"leaf": [2]}},
                "delete": {"leaf": [0, 2]},
            }
        },
    ),
    # Read as a set, [0, 0] is the shedding vertex of the valid tree.
    "decomposition-shedding-repeats-a-vertex": (
        TRIANGLE_BOUNDARY,
        "decomposition",
        {"tree": {**TRIANGLE_BOUNDARY_TREE, "shedding": [0, 0]}},
    ),
    "decomposition-shedding-not-a-list": (
        TRIANGLE_BOUNDARY,
        "decomposition",
        {"tree": {**TRIANGLE_BOUNDARY_TREE, "shedding": 5}},
    ),
    "decomposition-leaf-not-a-list": (
        TRIANGLE_BOUNDARY,
        "decomposition",
        {"tree": {**TRIANGLE_BOUNDARY_TREE, "delete": {"leaf": 5}}},
    ),
    "certificate-clauses-not-lists": (None, "certificate", {"formula": {"n": 2, "clauses": [5]}}),
    "certificate-n-not-an-integer": (None, "certificate", {"formula": {"n": "2", "clauses": []}}),
    "certificate-literal-a-bool": (
        None,
        "certificate",
        {"formula": {"n": 2, "clauses": [[1, -2, 2], [-1, True, 2]]}},
    ),
    "certificate-removal-not-faces": (None, "certificate", {"removal": [5, 6]}),
    # Every value is truthy, and bool() would read each as true.
    "certificate-assignment-value-not-a-bool": (
        None,
        "certificate",
        {"assignment": {"1": "no", "2": "no"}},
    ),
    "certificate-assignment-not-an-object": (None, "certificate", {"assignment": [1]}),
    "certificate-pair-not-proper": (None, "certificate", {"pairs": [[[0, 1], [0, 1]]]}),
    # Every field is read before the removal is judged, and no removal is
    # inadmissible.
    "certificate-pair-malformed-beside-an-inadmissible-removal": (
        None,
        "certificate",
        {"removal": [], "pairs": [[5]]},
    ),
    "certificate-without-formula-clauses": (None, "certificate", {"formula": {"n": 2}}),
    "certificate-without-removal": (None, "certificate", {"removal": DROP}),
    "certificate-without-pairs": (None, "certificate", {"pairs": DROP}),
    "certificate-without-assignment": (None, "certificate", {"assignment": DROP}),
    "certificate-assignment-an-empty-list": (None, "certificate", {"assignment": []}),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_json_is_usage_error(case, tmp_path, capsys):
    text, base, patch = MALFORMED[case]
    path = tmp_path / ("phi.cnf" if text is None else "input.json")
    path.write_text(CNF if text is None else text)
    if base.startswith(("stats", "check")):
        argv = [*base.split(), str(path)]
    else:
        witness = tmp_path / "witness.json"
        if base == "certificate":
            run(["solve-sat", str(path), "--witness", str(witness)], capsys)
            doc = json.loads(witness.read_text())
        elif base == "collapse":
            doc = {"kind": "collapse", "pairs": [], "target_facets": [[0, 1, 2]]}
        elif base == "decomposition":
            doc = {"kind": "decomposition", "k": 1}
        else:
            doc = {"kind": "shelling", "order": [[0, 1, 2]]}
        if isinstance(patch, dict):
            patch = {k: v for k, v in {**doc, **patch}.items() if v is not DROP}
        witness.write_text(json.dumps(patch))
        argv = ["verify", str(path), str(witness)]
    code, out, err = run(argv, capsys)
    assert code == 2, (out, err)
    assert err.startswith("error:")
    assert "Traceback" not in err


# Keys whose value is a set of faces: a repeated entry there is the same
# witness, so verify may accept it.
SET_VALUED = ("target_facets", "removal")


def parsed(value, key=None):
    """A witness document with every scalar tagged by its type, so that
    True, 1 and 1.0 differ, and the set-valued keys read as sets."""
    if isinstance(value, dict):
        return frozenset((k, parsed(v, k)) for k, v in value.items())
    if isinstance(value, list):
        items = tuple(parsed(v) for v in value)
        return frozenset(items) if key in SET_VALUED else items
    return type(value).__name__, value


def mutations(rng: random.Random, doc: dict, count: int):
    """``count`` copies of ``doc``, each with one value changed: its type
    swapped, its key dropped, or its list entry repeated.  The value is
    found by a walk down from the top that stops at each level with
    probability one half, so every field of the format gets its share."""
    for _ in range(count):
        mutant = json.loads(json.dumps(doc))
        parent = mutant
        while True:
            key = rng.choice(list(parent) if isinstance(parent, dict) else range(len(parent)))
            old = parent[key]
            if not (isinstance(old, (dict, list)) and old and rng.random() < 0.5):
                break
            parent = old
        number = isinstance(old, (int, float))
        ops = ["bool", "float", "string", "null", "list", "object"]
        ops.append("drop" if isinstance(parent, dict) else "repeat")
        op = rng.choice(ops)
        if op == "drop":
            del parent[key]
        elif op == "repeat":
            parent.insert(key, old)
        else:
            parent[key] = {
                "bool": bool(old) if number else True,
                "float": float(old) if number else 0.5,
                "string": str(old),
                "null": None,
                "list": [old],
                "object": {"0": old},
            }[op]
        yield mutant


def test_verify_fuzz_never_accepts_another_witness(tmp_path, capsys):
    disk = "0 1 2\n0 2 3\n0 3 4\n"
    kinds = (
        ("shelling", SPHERE, ["check", "shellable"], 200),
        ("decomposition", disk, ["check", "k-decomposable(0)"], 200),
        ("collapse", disk, ["check", "collapsible"], 200),
        ("removed-facets", SPHERE, ["check", "hachimori-sd2"], 200),
        # Each certificate replay builds K_phi, so it gets fewer draws.
        ("certificate", CNF, ["solve-sat"], 80),
    )
    rng = random.Random(1711)
    witness = tmp_path / "mutant.json"
    for name, text, argv, count in kinds:
        source, valid = tmp_path / f"{name}.in", tmp_path / f"{name}.json"
        source.write_text(text)
        assert run([*argv, str(source), "--witness", str(valid)], capsys)[0] == 0
        doc = json.loads(valid.read_text())
        exits = []
        for mutant in mutations(rng, doc, count):
            witness.write_text(json.dumps(mutant))
            code, out, err = run(["verify", str(source), str(witness)], capsys)
            assert code in (1, 2) or (code == 0 and parsed(mutant) == parsed(doc)), (
                name, mutant, out, err,
            )
            exits.append(code)
        assert exits.count(1) and exits.count(2) > count // 2, (name, exits)


# Shedding trees that are well formed but wrong: (complex, k, tree, reason).
FORGED_TREES = {
    "empty leaf": (TRIANGLE, 0, {"leaf": []}, "leaf [] claims an empty complex"),
    "shedding face above k": (
        TRIANGLE_BOUNDARY,
        0,
        {**TRIANGLE_BOUNDARY_TREE, "shedding": [0, 1]},
        "shedding face of dimension 1 exceeds k=0",
    ),
    "node not pure": ("0 1 2\n2 3\n", 0, {"shedding": [3]}, "node complex is not pure"),
    # The link of 0 is the edge 1 2, but deleting 0 leaves only that edge.
    "deletion not pure": (
        TRIANGLE,
        0,
        {"shedding": [0], "link": {"leaf": [1, 2]}, "delete": {"leaf": [1, 2]}},
        "deletion of [0] is not pure 2-dimensional",
    ),
}


@pytest.mark.parametrize("case", sorted(FORGED_TREES))
def test_verify_refuses_a_forged_shedding_tree(case, tmp_path, capsys):
    text, kk, tree, reason = FORGED_TREES[case]
    path, witness = tmp_path / "input.txt", tmp_path / "witness.json"
    path.write_text(text)
    witness.write_text(json.dumps({"kind": "decomposition", "k": kk, "tree": tree}))
    code, out, _ = run(["verify", str(path), str(witness)], capsys)
    assert code == 1, out
    assert "verdict: no" in out and f"reason: {reason}\n" in out


def test_verify_refuses_a_decomposition_of_an_empty_complex(tmp_path, capsys):
    # check refuses an empty input (exit 2) and verify refuses a shelling
    # of it; a shedding tree of it is refused too, not accepted as a leaf.
    path, witness = tmp_path / "empty.txt", tmp_path / "witness.json"
    path.write_text("")
    assert run(["check", "k-decomposable(0)", str(path)], capsys)[0] == 2
    witness.write_text(json.dumps({"kind": "decomposition", "k": 0, "tree": {"leaf": []}}))
    code, out, _ = run(["verify", str(path), str(witness)], capsys)
    assert code == 1, out
    assert "verdict: no" in out and "reason: a decomposition needs a nonempty complex\n" in out
    assert "yes" not in out


def test_decomposition_witness_with_int_ids_verifies(tmp_path, capsys):
    # The trees of the bool cases above, with ints in place of the bools.
    path = tmp_path / "input.txt"
    path.write_text(TRIANGLE_BOUNDARY)
    shed_1 = {
        "shedding": [1],
        "link": {"shedding": [0], "link": {"leaf": []}, "delete": {"leaf": [2]}},
        "delete": {"leaf": [0, 2]},
    }
    for tree in (TRIANGLE_BOUNDARY_TREE, shed_1):
        witness = tmp_path / "witness.json"
        witness.write_text(json.dumps({"kind": "decomposition", "k": 1, "tree": tree}))
        assert run(["verify", str(path), str(witness)], capsys)[0] == 0


@pytest.mark.parametrize(
    "label",
    [
        {"kind": "edge", "value": [0, 0]},
        {"kind": "path", "value": [0, 0]},
        {"kind": "subcomplex", "value": [[]]},
    ],
)
def test_degenerate_label_is_rejected_on_load(label, tmp_path, capsys):
    path = tmp_path / "input.json"
    doc = {"vertices": [0, 1, 2], "facets": [[0, 1, 2]], "labels": {"bad": label}}
    path.write_text(json.dumps(doc))
    code, out, err = run(["stats", str(path)], capsys)
    assert code == 2, (out, err)
    assert err.startswith("error: label 'bad'")


def test_verify_certificate_against_other_formula(tmp_path, capsys):
    cnf = tmp_path / "phi.cnf"
    cnf.write_text(CNF)
    run(["solve-sat", str(cnf)], capsys)
    other = tmp_path / "other.cnf"
    other.write_text("p cnf 1 1\n1 1 1 0\n")
    code, _, err = run(
        ["verify", str(other), str(tmp_path / "phi.sat.witness.json")], capsys
    )
    assert code == 2
    assert "error:" in err


def test_verify_inadmissible_removal(tmp_path, capsys):
    cnf = tmp_path / "phi.cnf"
    cnf.write_text(CNF)
    run(["solve-sat", str(cnf)], capsys)
    cert = tmp_path / "phi.sat.witness.json"
    doc = json.loads(cert.read_text())
    doc["removal"] = doc["removal"][:1]
    cert.write_text(json.dumps(doc))
    code, out, _ = run(["verify", str(cnf), str(cert)], capsys)
    assert code == 1
    assert "verdict: inadmissible" in out


def test_verify_refuses_a_certificate_with_another_assignment(tmp_path, capsys):
    cnf = tmp_path / "phi.cnf"
    cnf.write_text(CNF)
    run(["solve-sat", str(cnf)], capsys)
    cert = tmp_path / "phi.sat.witness.json"
    doc = json.loads(cert.read_text())
    doc["assignment"]["1"] = not doc["assignment"]["1"]
    cert.write_text(json.dumps(doc))
    code, out, _ = run(["verify", str(cnf), str(cert)], capsys)
    assert code == 1
    assert "reason: certificate assignment does not match its removal\n" in out


def test_verify_refuses_a_collapse_of_k_onto_k(tmp_path, capsys):
    # No pairs, with the input's facets as the target: a collapse witness
    # claims a collapse to a single vertex, and this complex, with χ̃ = -1,
    # has none.
    text = "0 1 2\n1 2 3\n2 3 4\n3 4 0\n4 0 1\n0 2 5\n"
    path, witness = tmp_path / "k.txt", tmp_path / "witness.json"
    path.write_text(text)
    facets = [list(face_key(f)) for f in parse_facet_lines(text).facets]
    witness.write_text(json.dumps({"kind": "collapse", "pairs": [], "target_facets": facets}))
    code, out, _ = run(["verify", str(path), str(witness)], capsys)
    assert code == 1, out
    assert "reason: the collapse does not end at a single vertex\n" in out
    assert run(["check", "collapsible", str(path)], capsys)[0] == 1


@pytest.mark.parametrize("key", ["01", " 1", "+1", "\u0661"])
def test_verify_compares_the_assignment_as_written(key, tmp_path, capsys):
    # The key reads as 1 through int() and comes after "1", so a reader
    # that parsed the keys would see x1 set as the removal sets it, where
    # the document sets x1 both ways.
    cnf, cert = tmp_path / "phi.cnf", tmp_path / "cert.json"
    cnf.write_text(CNF)
    assert run(["solve-sat", str(cnf), "--witness", str(cert)], capsys)[0] == 0
    doc = json.loads(cert.read_text())
    x1 = doc["assignment"].pop("1")
    doc["assignment"] = {"1": not x1, key: x1, **doc["assignment"]}
    cert.write_text(json.dumps(doc))
    code, out, _ = run(["verify", str(cnf), str(cert)], capsys)
    assert code == 1, out
    assert "reason: certificate assignment does not match its removal\n" in out


@pytest.mark.parametrize(
    "command, text, line",
    [
        ("stats", "0 1 2\n0 1_2 3\n", 2),
        ("stats", "0 1 \u0663\n", 1),
        ("reduce", "p cnf 10 1\n1_0 2 3 0\n", 2),
        ("reduce", "p cnf 1_0 1\n1 2 3 0\n", 1),
        ("reduce", "p cnf 3 1\n1 2 \u0663 0\n", 2),
    ],
)
def test_integer_tokens_are_ascii_digits(command, text, line, tmp_path, capsys):
    # int() also reads "1_0" as 10 and other scripts' digits, such as
    # U+0663, as theirs.
    path = tmp_path / "input.txt"
    path.write_text(text, encoding="utf-8")
    code, out, err = run([command, str(path), *(["-o", "-"] if command == "reduce" else [])], capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: line {line}: ")


def test_gadget_listing_and_dump(tmp_path, capsys):
    code, out, _ = run(["gadget"], capsys)
    assert code == 0
    assert "one_house" in out and "torus_7" in out
    code, out, _ = run(["gadget", "one_house"], capsys)
    assert code == 0
    dumped = parse_facet_lines(out)
    assert dumped.f_vector() == build_one_house(OneHouseSpec()).complex.f_vector()


def test_gadget_unknown_name(capsys):
    code, _, err = run(["gadget", "nonsense"], capsys)
    assert code == 2
    assert "error:" in err


def test_subdivide_stdin_stdout(tmp_path, capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("0 1 2\n"))
    code, out, err = run(["subdivide", "-", "-o", "-"], capsys)
    assert code == 0
    k = parse_facet_lines(out)
    assert k.f_vector() == (1, 7, 12, 6)
    assert "verdict: yes" in err


def test_subdivide_default_path_and_levels(tmp_path, capsys):
    path = tmp_path / "tri.txt"
    path.write_text("0 1 2\n")
    code, _, _ = run(["subdivide", "--levels", "2", str(path)], capsys)
    assert code == 0
    sd2 = tmp_path / "tri.sd2.txt"
    k = parse_facet_lines(sd2.read_text())
    assert k.f_vector() == (1, 25, 60, 36)


def test_subdivide_negative_levels_is_usage_error(tmp_path, capsys):
    path = tmp_path / "tri.txt"
    path.write_text("0 1 2\n")
    code, out, err = run(["subdivide", "--levels", "-1", str(path)], capsys)
    assert code == 2
    assert out == ""
    assert err == "error: levels must be >= 0\n"
    assert list(tmp_path.iterdir()) == [path]


def test_parse_error_is_usage_error(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("0 1 x\n")
    code, _, err = run(["stats", str(path)], capsys)
    assert code == 2
    assert "error:" in err


def test_boundary_delta_gadget_matches_builder(capsys):
    code, out, _ = run(["gadget", "boundary_delta_3"], capsys)
    assert code == 0
    dumped = parse_facet_lines(out)
    assert dumped.f_vector() == boundary_simplex(3).f_vector()
