"""Acceptance gate: twelve end-to-end checks with explicit time budgets.

Each test exercises one advertised guarantee of the package, prints a
single PASS line, and asserts the wall-clock budget it ran under.
"""

import itertools
import math
import random
import statistics
import time

from shellkit.collapse import (
    collapses_to,
    free_faces,
    is_collapsible_2d_greedy,
    is_collapsible_dfs,
    verify_collapse_sequence,
)
from shellkit.complex_core import Complex, cone, vertex_links_connected
from shellkit.gadgets import (
    OneHouseSpec,
    boundary_simplex,
    build_one_house,
    build_three_house,
    torus_7,
)
from shellkit.reduction import (
    Formula,
    build_K_phi,
    decide_phi_via_complex,
    random_formula,
    sat_oracle,
    schedule_collapse,
)
from shellkit.shelling import (
    decide_k_decomposable,
    decide_shellable,
    hachimori_decide_sd2,
    verify_shelling,
)

from conftest import oracle_is_collapsible_dfs, random_pure_2complex


def _twenty_formulas() -> list[Formula]:
    rng = random.Random(101)
    out = [
        random_formula(n, m, rng)
        for n in range(1, 5)
        for m in range(1, 5)
    ]
    while len(out) < 20:
        out.append(random_formula(rng.randint(1, 4), rng.randint(1, 4), rng))
    return out


def _edges(k: Complex):
    return {f for f in k.faces if len(f) == 2}


def test_criterion_01_euler_characteristic_counts_variables():
    worst = 0.0
    for phi in _twenty_formulas():
        t0 = time.perf_counter()
        k = build_K_phi(phi).complex
        assert k.reduced_euler_characteristic() == phi.n, phi
        worst = max(worst, time.perf_counter() - t0)
    assert worst < 1.0
    print(f"PASS criterion 1: chi-tilde = n on 20 formulas, worst {worst:.3f}s")


def test_criterion_02_vertex_links_connected():
    worst = 0.0
    for phi in _twenty_formulas():
        k = build_K_phi(phi).complex
        t0 = time.perf_counter()
        ok, offender = vertex_links_connected(k)
        assert ok, (phi, offender)
        worst = max(worst, time.perf_counter() - t0)
    assert worst < 1.0
    print(f"PASS criterion 2: links connected on 20 formulas, worst {worst:.3f}s")


def test_criterion_03_house_gadget_guarantees():
    t0 = time.perf_counter()

    plain = build_one_house(OneHouseSpec())
    assert {f for f, _ in free_faces(plain.complex)} == {
        frozenset(plain.feature("f").value)
    }
    three = build_three_house()
    assert {f for f, _ in free_faces(three.complex)} == {
        frozenset(three.feature(name).value) for name in ("f1", "f2", "f3")
    }

    # The house collapses onto random lower-wall subtrees through the
    # anchor endpoint of the free edge; three attachments give the wall
    # several rays.
    house = build_one_house(OneHouseSpec(attachments=("t", "s", "r")))
    wall = house.subcomplex("L")
    f_edge = frozenset(house.feature("f").value)
    anchor = house.feature("anchor").value[0]
    wall_edges = [tuple(sorted(e)) for e in _edges(wall) if frozenset(e) != f_edge]
    rng = random.Random(99)
    for _ in range(5):
        tree_vertices, tree_edges = {anchor}, []
        want = rng.randint(0, 5)
        while len(tree_edges) < want:
            frontier = [
                e
                for e in wall_edges
                if (e[0] in tree_vertices) != (e[1] in tree_vertices)
            ]
            if not frontier:
                break
            pick = rng.choice(frontier)
            tree_edges.append(pick)
            tree_vertices.update(pick)
        target = Complex.from_facets(tree_edges or [[anchor]])
        assert collapses_to(house.complex, target, budget=10**7).yes, tree_edges

    # The three-house collapses onto its spine plus any two free edges.
    spine = [three.feature("e").value] + [
        e
        for name in ("p1", "p2", "p3")
        for e in zip(
            three.feature(name).value, three.feature(name).value[1:]
        )
    ]
    free_pairs = itertools.combinations(("f1", "f2", "f3"), 2)
    for keep in free_pairs:
        target = Complex.from_facets(
            spine + [three.feature(name).value for name in keep]
        )
        assert collapses_to(three.complex, target, budget=10**7).yes, keep

    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(f"PASS criterion 3: house gadget guarantees in {elapsed:.2f}s")


def test_criterion_04_satisfiable_pipeline():
    t0 = time.perf_counter()
    rng = random.Random(202)
    done = 0
    while done < 10:
        phi = random_formula(rng.randint(1, 3), rng.randint(1, 3), rng)
        model = sat_oracle(phi)
        if model is None:
            continue
        removal, pairs = schedule_collapse(phi, model)
        assert len(removal) == phi.n, phi
        k = build_K_phi(phi).complex
        for tau in removal:
            assert len(tau) == 3
            k = k.remove_facet(tau)
        final = verify_collapse_sequence(k, pairs)
        assert len(final.facets) == 1 and len(next(iter(final.facets))) == 1
        done += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(f"PASS criterion 4: 10 satisfiable schedules replay in {elapsed:.2f}s")


def _admissible_removals(lc, n):
    pools = [sorted(lc.subcomplex(f"S(u{i})").facets) for i in range(1, n + 1)]
    return itertools.product(*pools)


def test_criterion_05_unsatisfiable_pipeline():
    t0 = time.perf_counter()
    contra = Formula(1, ((1, 1, 1), (-1, -1, -1)))
    instances = [contra]
    rng = random.Random(303)
    while len(instances) < 6:
        phi = random_formula(rng.randint(1, 2), rng.randint(1, 2), rng)
        if sat_oracle(phi) is None:
            instances.append(phi)
    for phi in instances:
        lc = build_K_phi(phi)
        for cand in _admissible_removals(lc, phi.n):
            k = lc.complex
            for tau in cand:
                k = k.remove_facet(tau)
            assert not is_collapsible_2d_greedy(k).yes, (phi, cand)
    # n = 1: sweep every chi-tilde-sized subset of triangles, not just the
    # admissible ones.
    base = build_K_phi(contra).complex
    chi = base.reduced_euler_characteristic()
    triangles = [f for f in base.faces if len(f) == 3]
    swept = 0
    for cand in itertools.combinations(triangles, chi):
        k = base
        for tau in cand:
            if tau not in k.facets:
                break
            k = k.remove_facet(tau)
        else:
            assert not is_collapsible_2d_greedy(k).yes, cand
            swept += 1
    assert swept == math.comb(len(triangles), chi)
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    print(
        f"PASS criterion 5: unsat removals stay uncollapsible "
        f"({swept} swept) in {elapsed:.2f}s"
    )


def _exhaustive_small_formulas():
    out = []
    for n in (1, 2):
        literals = [i for v in range(1, n + 1) for i in (v, -v)]
        clauses = sorted(
            {
                tuple(sorted(c))
                for c in itertools.combinations_with_replacement(literals, 3)
            }
        )
        for m in (1, 2):
            for chosen in itertools.combinations_with_replacement(clauses, m):
                out.append(Formula(n, chosen))
    return out


def test_criterion_06_oracle_equivalence():
    t0 = time.perf_counter()
    family = _exhaustive_small_formulas()
    assert len(family) == 244
    rng = random.Random(707)
    for _ in range(50):
        family.append(random_formula(rng.randint(1, 3), rng.randint(1, 3), rng))
    disagreements = 0
    for phi in family:
        expected = "no" if sat_oracle(phi) is None else "yes"
        if decide_phi_via_complex(phi).verdict != expected:
            disagreements += 1
    assert disagreements == 0
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    print(
        f"PASS criterion 6: decision matches oracle on {len(family)} "
        f"formulas in {elapsed:.2f}s"
    )


def test_criterion_07_shellability_facts():
    t0 = time.perf_counter()
    for d in (2, 3, 4):
        res = decide_shellable(boundary_simplex(d))
        assert res.yes, d
    bd3 = boundary_simplex(3)
    for order in itertools.permutations(sorted(bd3.facets)):
        verify_shelling(bd3, list(order))
    assert decide_shellable(torus_7()).verdict == "no"
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    print(f"PASS criterion 7: sphere boundaries shell, torus does not, {elapsed:.2f}s")


def test_criterion_08_decomposability_equivalence():
    t0 = time.perf_counter()
    rng = random.Random(404)
    for _ in range(200):
        k = random_pure_2complex(rng, max_facets=8)
        verdicts = [
            decide_k_decomposable(k, kk).verdict for kk in (0, 1, 2)
        ]
        shell = decide_shellable(k).verdict
        assert "budget_exceeded" not in verdicts + [shell]
        assert (verdicts[2] == "yes") == (shell == "yes"), k.facets
        for lower, higher in zip(verdicts, verdicts[1:]):
            assert not (lower == "yes" and higher == "no"), k.facets
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    print(f"PASS criterion 8: shellable = 2-decomposable on 200 complexes, {elapsed:.2f}s")


def test_criterion_09_cone_transfer():
    t0 = time.perf_counter()
    rng = random.Random(505)
    for _ in range(50):
        k = random_pure_2complex(rng, max_facets=6)
        base = decide_shellable(k).yes
        for ell in (0, 1):
            assert decide_shellable(cone(k, ell)).yes == base, (k.facets, ell)
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    print(f"PASS criterion 9: cone transfer on 50 instances, {elapsed:.2f}s")


def test_criterion_10_hachimori_consistency():
    t0 = time.perf_counter()
    from shellkit.complex_core import barycentric_subdivision

    cases = [
        [[0, 1, 2]],
        [[0, 1, 2], [1, 2, 3]],
        [[0, 1, 2], [1, 2, 3], [2, 3, 4]],
        [[0, 1, 2], [0, 2, 3], [0, 3, 4]],
        [[0, 1, 2], [0, 2, 3], [0, 3, 4], [0, 4, 1]],
        [[0, 1, 2], [2, 3, 4]],
        [[0, 1, 2], [3, 4, 5]],
        sorted(map(sorted, boundary_simplex(3).facets)),
        [[0, 1, 2], [0, 1, 3], [0, 2, 3]],
        [[0, 1, 2], [1, 2, 3], [2, 3, 4], [3, 4, 5], [4, 5, 6]],
    ]
    for facets in cases:
        k = Complex.from_facets(facets)
        verdict = hachimori_decide_sd2(k).verdict
        sd2 = barycentric_subdivision(k, 2).complex
        direct = decide_shellable(sd2).verdict
        assert verdict == direct, facets
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    print(f"PASS criterion 10: sd2 decision matches direct search on 10 complexes, {elapsed:.2f}s")


def test_criterion_11_greedy_dfs_equivalence():
    t0 = time.perf_counter()
    # The decider is compared with the greedy one and with the all-dimension
    # search of the oracle, which shares no code with either.
    rng = random.Random(606)
    for _ in range(500):
        k = random_pure_2complex(rng, max_facets=12, pool=10)
        ok = is_collapsible_2d_greedy(k).yes
        res = is_collapsible_dfs(k)
        assert res.verdict in ("yes", "no"), k.facets
        assert res.yes == ok, k.facets
        assert res.verdict == oracle_is_collapsible_dfs(k).verdict, k.facets
        if res.yes:
            end = verify_collapse_sequence(k, res.witness)
            assert len(end.facets) == 1 and end.dim == 0
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    print(f"PASS criterion 11: greedy agrees with DFS on 500 complexes, {elapsed:.2f}s")


def test_criterion_12_linear_size_reduction():
    ratios = []
    for n in range(1, 6):
        phi = Formula(n, tuple((v, v, v) for v in range(1, n + 1)))
        total = len(build_K_phi(phi).complex.faces - {frozenset()})
        ratios.append(total / phi.size)
    spread = statistics.pstdev(ratios) / statistics.mean(ratios)
    assert spread < 0.05, ratios
    assert max(ratios) < 2 * min(ratios)
    print(
        f"PASS criterion 12: simplex/size ratio spread {spread:.3%} "
        f"across {ratios}"
    )
