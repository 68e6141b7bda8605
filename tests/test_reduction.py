"""CNF parsing, formula-to-complex compilation, and the collapse schedule."""

import random

import pytest

from shellkit import reduction
from shellkit.collapse import CollapseError, _FaceIndex, _glue_step, verify_collapse_sequence
from shellkit.complex_core import Complex, subdivide_labeled, vertex_links_connected
from shellkit.reduction import (
    CnfError,
    Formula,
    ReductionError,
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
    with pytest.raises(CnfError, match="header"):
        parse_cnf("1 2 3 0\n")
    with pytest.raises(CnfError, match="exactly 3"):
        parse_cnf("p cnf 3 1\n1 2 0\n")
    with pytest.raises(CnfError, match="range"):
        parse_cnf("p cnf 1 1\n1 1 2 0\n")
    with pytest.raises(CnfError):
        parse_cnf("p cnf 1 2\n1 1 1 0\n")
    with pytest.raises(CnfError):
        parse_cnf("p cnf 1 1\n1 1 1\n")


def test_formula_validation():
    with pytest.raises(ReductionError):
        Formula(1, ((1, 1),))
    with pytest.raises(ReductionError):
        Formula(1, ((0, 1, 1),))
    with pytest.raises(ReductionError):
        Formula(1, ((2, 1, 1),))
    # Booleans are ints in Python but not literals or counts.
    with pytest.raises(ReductionError):
        Formula(1, ((1, 1, True),))
    with pytest.raises(ReductionError):
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


def test_build_K_phi_caches():
    assert build_K_phi(XXX) is build_K_phi(Formula(1, ((1, 1, 1),)))


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
    with pytest.raises(ReductionError, match="satisfy"):
        schedule_collapse(XXX, {1: False})
    with pytest.raises(ReductionError):
        schedule_collapse(MIXED, {1: True})


@pytest.mark.parametrize("phi", [XXX, MIXED])
def test_house_targets_keep_what_neighbours_share(monkeypatch, phi):
    # Each house is collapsed onto the faces it shares with pieces that
    # are still whole.  Dropping one of them from the schedule's own
    # target, b(u1) from B(u1) or an f(u_i) edge from A, must fail the
    # constrain check of the gluing step at that house's turn.
    steps = []  # each piece, its kept faces and its pairs, in order
    glue = reduction._glue_step

    def record(index, m, m_prime, pairs):
        steps.append((m, m_prime, tuple(pairs)))
        glue(index, m, m_prime, pairs)

    monkeypatch.setattr(reduction, "_glue_step", record)
    removal, _ = schedule_collapse(phi, sat_oracle(phi))
    lc = build_K_phi(phi)
    shared = {
        "B(u1)": ["b(u1)"],
        "A": [f"f(u{i})" for i in range(1, phi.n + 1)],
    }
    for part, labels in shared.items():
        house = lc.subcomplex(part)
        turn = next(s for s, (m, _, _) in enumerate(steps) if m == house)
        _, kept, pairs = steps[turn]

        def index_at_turn() -> _FaceIndex:
            index = _FaceIndex(lc.complex)
            index.remove(removal)
            index.collapse([p for _, _, earlier in steps[:turn] for p in earlier])
            return index

        edges = [frozenset(e) for name in labels for e in lc.feature(name).edge_list()]
        assert edges and all(e in kept.faces for e in edges)
        for edge in edges:
            dropped = Complex.from_faces(kept.faces - {edge})
            with pytest.raises(CollapseError, match="constrain complex"):
                _glue_step(index_at_turn(), house, dropped, pairs)
        index = index_at_turn()
        _glue_step(index, house, kept, pairs)
        assert not any(f in index.faces for f in house.faces - kept.faces)


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
    lc = build_K_phi(XXX)
    with pytest.raises(ReductionError):
        assignment_from_removal(lc, frozenset())


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
