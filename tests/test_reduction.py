"""CNF parsing, formula-to-complex compilation, and the collapse schedule."""

import random
from collections import Counter

import pytest
from conftest import misplaced_vertex_labels, oracle_build_K_phi, pendants_at

from shellkit import complex_core, reduction
from shellkit.collapse import CollapseError, SearchResult, _FaceIndex, verify_collapse_sequence
from shellkit.complex_core import (
    Complex,
    FormatError,
    InternalError,
    LabeledComplex,
    facets_of,
    subdivide_labeled,
    to_json,
    vertex_links_connected,
)
from shellkit.gadgets import fixtures
from shellkit.reduction import (
    Formula,
    assignment_from_removal,
    build_K_phi,
    decide_phi_via_complex,
    parse_cnf,
    random_formula,
    sat_oracle,
    schedule_collapse,
)

XXX = Formula(1, ((1, 1, 1),))
CONTRA = Formula(1, ((1, 1, 1), (-1, -1, -1)))
MIXED = Formula(2, ((1, -2, 2), (-1, 1, 2)))


# -- parsing --


def test_parse_cnf_round_trip():
    phi = parse_cnf("c comment\np cnf 2 2\n1 -2 2 0\n-1 1 2 0\n")
    assert phi == MIXED
    assert phi.n == 2 and phi.size == 6


def test_parse_cnf_errors():
    # DIMACS is input text, so a malformed one is a FormatError.
    with pytest.raises(FormatError, match="header"):
        parse_cnf("1 2 3 0\n")
    with pytest.raises(FormatError, match="exactly 3"):
        parse_cnf("p cnf 3 1\n1 2 0\n")
    with pytest.raises(FormatError, match="range"):
        parse_cnf("p cnf 1 1\n1 1 2 0\n")
    with pytest.raises(FormatError, match="header declares 2 clauses, found 1"):
        parse_cnf("p cnf 1 2\n1 1 1 0\n")
    with pytest.raises(FormatError, match="unterminated clause"):
        parse_cnf("p cnf 1 1\n1 1 1\n")
    # A repeated, misshapen, non-integer or negative header, a bad literal
    # and no header at all; only the error class is pinned.
    for text in (
        "p cnf 1 0\np cnf 1 0\n",
        "p cnf 1\n",
        "p cnf one 0\n",
        "p cnf -1 0\n",
        "p cnf 1 1\n1 x 1 0\n",
        "c no header\n",
    ):
        with pytest.raises(FormatError):
            parse_cnf(text)


def test_formula_validation():
    with pytest.raises(ValueError, match=r"\(1, 1\) does not have 3 literals"):
        Formula(1, ((1, 1),))
    with pytest.raises(ValueError, match="literal 0 out of range"):
        Formula(1, ((0, 1, 1),))
    with pytest.raises(ValueError, match="literal 2 out of range"):
        Formula(1, ((2, 1, 1),))
    # Booleans are ints in Python but not literals or counts.
    with pytest.raises(ValueError, match="literal True out of range"):
        Formula(1, ((1, 1, True),))
    with pytest.raises(ValueError, match="variable count must be a nonnegative integer"):
        Formula(True, ((1, 1, 1),))


def test_sat_oracle():
    assert sat_oracle(XXX) == {1: True}
    assert sat_oracle(CONTRA) is None
    model = sat_oracle(MIXED)
    assert model is not None
    assert any(
        (lit > 0) == model[abs(lit)] for lit in MIXED.clauses[0]
    )
    # All-false comes first in the sweep order.
    assert sat_oracle(Formula(2, ((-1, -1, -2),))) == {1: False, 2: False}


# -- compilation --


def test_build_K_phi_frozen():
    k = build_K_phi(XXX).complex
    assert k.f_vector() == (1, 62, 231, 171)
    assert k.reduced_euler_characteristic() == 1

    k2 = build_K_phi(MIXED).complex
    assert k2.f_vector() == (1, 113, 431, 321)
    assert k2.reduced_euler_characteristic() == 2


def test_build_K_phi_labels():
    lc = build_K_phi(MIXED)
    for name in (
        "A",
        "v_and",
        "f_and",
        "f(u1)",
        "f(u2)",
        "S(u1)",
        "O(u1)",
        "C(c1)",
        "C(c2)",
        "s(u1)",
        "b(u2)",
        "D[u1]",
        "D[~u1]",
    ):
        assert name in lc.labels, name


def test_chi_equals_variable_count():
    rng = random.Random(37)
    for _ in range(10):
        n, m = rng.randint(1, 3), rng.randint(1, 3)
        phi = random_formula(n, m, rng)
        k = build_K_phi(phi).complex
        assert k.reduced_euler_characteristic() == n
        ok, bad = vertex_links_connected(k)
        assert ok, bad


def test_sd2_keeps_chi_and_connected_links():
    rng = random.Random(41)
    for _ in range(3):
        phi = random_formula(1, 2, rng)
        _, sub = subdivide_labeled(build_K_phi(phi), 2)
        assert sub.complex.reduced_euler_characteristic() == phi.n
        ok, bad = vertex_links_connected(sub.complex)
        assert ok, bad


def test_compiled_labels_are_read_only():
    # The tables of ``fixtures()`` and of K_phi are read-only: no caller
    # may edit a complex it was handed.
    lc = build_K_phi(XXX)
    names = set(lc.labels)
    with pytest.raises(TypeError):
        del lc.labels["D[u1]"]
    with pytest.raises(TypeError):
        lc.labels["D[u1]"] = lc.labels["D[~u1]"]
    with pytest.raises(TypeError):
        del fixtures()["torus_7"]
    assert set(build_K_phi(Formula(1, ((1, 1, 1),))).labels) == names
    assert schedule_collapse(XXX, {1: True})


def test_compile_matches_the_whole_complex_oracle(monkeypatch):
    glued_sets = []
    check = reduction._check_compiled

    def record(phi, lc, glued):
        glued_sets.append(glued)
        check(phi, lc, glued)

    monkeypatch.setattr(reduction, "_check_compiled", record)
    rng = random.Random(2707)
    formulas = [Formula(0, ()), XXX, MIXED, Formula(3, ((1, -1, 1), (2, 2, 2), (-3, 3, -3)))]
    while len(formulas) < 104:
        # Mostly small formulas keep the test quick; every n up to 8 occurs.
        n = min(rng.randint(0, 8), rng.randint(0, 8))
        formulas.append(random_formula(n, rng.randint(0, n), rng) if n else Formula(0, ()))
    assert {phi.n for phi in formulas} == set(range(9))
    repeats = 0
    for phi in formulas:
        lc, ref = build_K_phi(phi), oracle_build_K_phi(phi)
        k = lc.complex
        assert k.faces == ref.complex.faces
        assert k._facets == facets_of(k.faces), "facets not recorded at the glue"
        assert lc.labels == ref.labels
        assert to_json(lc) == to_json(ref)
        glued = glued_sets.pop()
        assert vertex_links_connected(k, glued) == vertex_links_connected(k) == (True, ())
        repeats += any(len(set(map(abs, c))) < 3 for c in phi.clauses)
    assert repeats >= 20


def test_whole_part_labels_hold_the_faces_of_K_phi():
    # Each part's label holds the very face objects of K_phi, with no copy.
    rng = random.Random(3902)
    for n in range(1, 5):
        phi = random_formula(n, n + 1, rng)
        lc = build_K_phi(phi)
        stored = {f: f for f in lc.complex.faces}
        parts = ["A"] + [f"C(c{j})" for j in range(1, len(phi.clauses) + 1)]
        for i in range(1, n + 1):
            parts += [f"S(u{i})", f"O(u{i})", f"B(u{i})", f"X[u{i}]", f"X[~u{i}]"]
        for name in parts:
            feat = lc.feature(name)
            assert feat.kind == "subcomplex" and feat.value, name
            assert all(stored[f] is f for f in feat.value), name


def test_subcomplex_reads_every_label_of_K_phi():
    # One reader for the labelled pieces of K_phi: the closure of any
    # feature, and for a subcomplex label the closure of its facets.
    rng = random.Random(2901)
    for n in range(1, 5):
        lc = build_K_phi(random_formula(n, n + 1, rng))
        for name, feat in lc.labels.items():
            piece = lc.subcomplex(name)
            assert piece.faces - {frozenset()} == feat.face_set(), name
            if feat.kind == "subcomplex":
                assert piece == Complex.from_facets(feat.value), name
        both = lc.feature("s(u1)").face_set() | lc.feature("p(u1)").face_set()
        assert lc.subcomplex("s(u1)", "p(u1)").faces - {frozenset()} == both


@pytest.mark.parametrize("phi", [XXX, MIXED])
@pytest.mark.parametrize("where", ["one", "every"])
def test_compile_checks_the_link_at_each_glued_vertex(monkeypatch, phi, where):
    seen = []
    pick = (lambda glued: [max(glued)]) if where == "one" else sorted
    monkeypatch.setattr(reduction, "_amalgamate_with_maps", pendants_at(pick, seen))
    with pytest.raises(InternalError, match="disconnected link") as info:
        build_K_phi(phi)
    assert str(info.value).endswith(str(tuple(pick(seen[0]))))


def test_compile_refuses_a_label_outside_K_phi(monkeypatch):
    # A label mapped off K_phi is a fault of the compile, not of the formula.
    monkeypatch.setattr(reduction, "map_feature", misplaced_vertex_labels)
    with pytest.raises(InternalError, match=r"^compiled label 'v_and': face \(-1,\) is not in"):
        build_K_phi(XXX)


def test_cold_compile_checks_only_what_gluing_adds(monkeypatch):
    # No pass over K_phi's faces looks for its facets, each variable gadget
    # is built once per compile, however many variables there are, and the
    # three-house once, however many clauses.
    scanned = []
    facets_of_faces = complex_core.facets_of

    def scan(faces):
        scanned.append(faces)
        return facets_of_faces(faces)

    monkeypatch.setattr(complex_core, "facets_of", scan)
    builds = Counter()
    for name in ("build_variable_sphere", "build_O", "build_three_house"):

        def counted(name=name, build=getattr(reduction, name)):
            builds[name] += 1
            return build()

        monkeypatch.setattr(reduction, name, counted)
    lc = build_K_phi(Formula(3, ((1, -2, 3), (-1, 2, -3), (2, 2, -1))))
    assert builds == {"build_variable_sphere": 1, "build_O": 1, "build_three_house": 1}
    assert all(faces != lc.complex.faces for faces in scanned)


# -- collapse schedule --


def test_schedule_collapse_single_variable():
    lc = build_K_phi(XXX)
    removal, pairs = schedule_collapse(XXX, {1: True})
    assert len(removal) == 1
    k = lc.complex
    for tau in removal:
        k = k.remove_facet(tau)
    final = verify_collapse_sequence(k, pairs)
    v_and = lc.feature("v_and").value[0]
    assert final.facets == frozenset({frozenset({v_and})})


def test_schedule_collapse_mixed_formula():
    removal, pairs = schedule_collapse(MIXED, sat_oracle(MIXED))
    assert len(removal) == 2
    lc = build_K_phi(MIXED)
    k = lc.complex
    for tau in removal:
        k = k.remove_facet(tau)
    final = verify_collapse_sequence(k, pairs)
    assert len(final.facets) == 1


def test_schedule_collapse_rejects_bad_assignments():
    with pytest.raises(ValueError, match="satisfy"):
        schedule_collapse(XXX, {1: False})
    with pytest.raises(ValueError, match="cover exactly the formula's variables"):
        schedule_collapse(MIXED, {1: True})


@pytest.mark.parametrize("phi", [XXX, MIXED])
def test_schedule_replays_each_pair_once(monkeypatch, phi):
    build_K_phi(phi)
    replayed = []
    replay = _FaceIndex.collapse

    def count(index, pairs):
        replayed.extend(pairs)
        return replay(index, pairs)

    monkeypatch.setattr(_FaceIndex, "collapse", count)
    _, sequence = schedule_collapse(phi, sat_oracle(phi))
    assert replayed == list(sequence)


@pytest.mark.parametrize("phi", [XXX, MIXED])
def test_house_targets_keep_what_neighbours_share(monkeypatch, phi):
    # Each house is collapsed onto the faces it shares with pieces that
    # are still whole.  Collapsing B(u1) or A onto one endpoint of b(u1)
    # or of the f(u1) edge instead removes a face a neighbour still holds,
    # so the replay of that house on K_phi must refuse it.
    lc = build_K_phi(phi)
    model = sat_oracle(phi)
    subcomplex = LabeledComplex.subcomplex
    shared = {
        "b(u1)": ["b(u1)"],
        "f(u1)": [f"f(u{i})" for i in range(1, phi.n + 1)],
    }
    for label, kept_labels in shared.items():
        (edge,) = lc.feature(label).edge_list()
        for v in sorted(edge):

            def to_endpoint(lc, *names, kept_labels=kept_labels, v=v):
                if list(names) == kept_labels:
                    return Complex.from_facets([[v]])
                return subcomplex(lc, *names)

            monkeypatch.setattr(LabeledComplex, "subcomplex", to_endpoint)
            with pytest.raises(CollapseError, match=r"not free \(2 maximal cofaces\)"):
                schedule_collapse(phi, model)


def test_schedule_refuses_a_truncated_piece_witness(monkeypatch):
    # A piece whose pairs stop short leaves faces of the piece behind.
    search = reduction.collapses_to

    def first_pair(k, target):
        res = search(k, target)
        return SearchResult(res.verdict, res.witness[:1], res.nodes)

    monkeypatch.setattr(reduction, "collapses_to", first_pair)
    with pytest.raises(CollapseError, match="remove other faces"):
        schedule_collapse(XXX, {1: True})


def test_removal_reads_back_as_assignment():
    rng = random.Random(41)
    done = 0
    while done < 6:
        phi = random_formula(rng.randint(1, 3), rng.randint(1, 3), rng)
        model = sat_oracle(phi)
        if model is None:
            continue
        removal, _ = schedule_collapse(phi, model)
        lc = build_K_phi(phi)
        assert assignment_from_removal(lc, removal) == model
        done += 1


def test_assignment_from_removal_rejects_wrong_cardinality():
    # A removal of the wrong size is inadmissible like any other.
    lc = build_K_phi(MIXED)
    (cert,) = decide_phi_via_complex(MIXED).witness
    removal = frozenset(cert.removal)
    assert assignment_from_removal(lc, removal) == cert.assignment
    assert assignment_from_removal(lc, frozenset()) is None
    assert assignment_from_removal(lc, frozenset(cert.removal[:1])) is None
    extra = next(f for f in lc.complex.facets if f not in removal)
    assert assignment_from_removal(lc, removal | {extra}) is None


def test_assignment_from_removal_inadmissible_is_none():
    lc = build_K_phi(XXX)
    outside = next(
        f
        for f in lc.complex.facets
        if f not in lc.subcomplex("S(u1)").facets
    )
    assert assignment_from_removal(lc, frozenset({outside})) is None


# -- the decision procedure --


def test_decide_agrees_with_oracle():
    rng = random.Random(43)
    for _ in range(12):
        phi = random_formula(rng.randint(1, 2), rng.randint(1, 2), rng)
        res = decide_phi_via_complex(phi)
        model = sat_oracle(phi)
        assert res.verdict == ("no" if model is None else "yes"), phi
        if res.yes:
            (cert,) = res.witness
            assert len(cert.removal) == phi.n
            assert sat_oracle(Formula(phi.n, phi.clauses)) is not None


def test_decide_unsat_full_sweep():
    assert decide_phi_via_complex(CONTRA).verdict == "no"


def test_decide_certificate_replays():
    res = decide_phi_via_complex(MIXED)
    assert res.yes
    (cert,) = res.witness
    k = build_K_phi(MIXED).complex
    for tau in cert.removal:
        k = k.remove_facet(tau)
    final = verify_collapse_sequence(k, cert.pairs)
    assert len(final.facets) == 1


def test_simplex_count_grows_linearly():
    counts = []
    for k in range(1, 5):
        phi = Formula(k, tuple((i, i, i) for i in range(1, k + 1)))
        counts.append(len(build_K_phi(phi).complex.faces))
    increments = {b - a for a, b in zip(counts, counts[1:])}
    assert len(increments) == 1
