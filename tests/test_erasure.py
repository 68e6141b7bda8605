"""Fast paths against the code they replaced, kept here as the reference.

The removal searches puncture an incremental erasure engine instead of
building and greedily collapsing one complex per candidate, and
``Complex.facets`` marks codimension-1 subfaces instead of scanning for
supersets.  Each reference below is the straightforward version.
"""

import itertools
import math
import random
from collections import Counter

import pytest

from conftest import recursion_headroom
from shellkit import collapse
from shellkit.collapse import SearchResult, TriangleErasure, find_removal, is_collapsible_2d_greedy
from shellkit.complex_core import (
    Complex,
    InternalError,
    face_key,
    one_skeleton_connected,
    vertex_links_connected,
)
from shellkit.gadgets import dunce_hat
from shellkit.reduction import (
    Formula,
    _satisfies,
    assignment_from_removal,
    build_K_phi,
    decide_phi_via_complex,
    random_formula,
    sat_oracle,
)
from shellkit.shelling import ShellingError, hachimori_decide_sd2


def facets_by_subset_scan(k: Complex) -> frozenset:
    return frozenset(
        f for f in k.faces if f and not any(f < g for g in k.faces if len(g) == len(f) + 1)
    )


def erase_naive(triangles) -> set:
    """Remove triangles with a free edge, one at a time, until none has one."""
    live = set(triangles)
    while True:
        count = Counter(e for t in live for e in itertools.combinations(sorted(t), 2))
        free = [
            t for t in live
            if any(count[e] == 1 for e in itertools.combinations(sorted(t), 2))
        ]
        if not free:
            return live
        live.remove(min(free, key=face_key))


def first_greedy_removal(k: Complex, candidates):
    """The removal loop the erasure search replaced."""
    for removal in candidates:
        trimmed = k
        for tau in removal:
            trimmed = trimmed.remove_facet(tau)
        res = is_collapsible_2d_greedy(trimmed)
        if res.yes:
            return tuple(removal), res.witness
    return None


def random_small_complex(rng: random.Random) -> Complex:
    """Triangles, stray edges and isolated vertices, often disconnected."""
    pool = rng.randint(3, 8)
    facets = [rng.sample(range(pool), 3) for _ in range(rng.randint(0, 9))]
    facets += [rng.sample(range(pool + 2), 2) for _ in range(rng.randint(0, 2))]
    facets += [[rng.randrange(pool + 3)] for _ in range(rng.randint(0, 1))]
    if not facets:
        facets = [[0, 1, 2]]
    return Complex.from_facets(facets)


# -- (a) the engine's verdict against the greedy decider ---------------------


def test_erasure_matches_greedy_after_random_removals():
    # Each puncture takes what erase(K - R) loses against the erasure
    # before it, and undoing the punctures in reverse order puts it back.
    # With χ̃ distinct picks from a connected K, an erasure that leaves no
    # triangle is the greedy decider's yes (find_removal's docstring).
    rng = random.Random(2016)
    seen = Counter()
    for _ in range(400):
        k = random_small_complex(rng)
        triangles = sorted((f for f in k.faces if len(f) == 3), key=face_key)
        engine = TriangleErasure(k)
        face = {i: t for t, i in engine.tri_id.items()}
        base = erase_naive(triangles)
        assert engine.remaining == len(base)
        connected = one_skeleton_connected(k)
        for _ in range(4):
            removal, punctures = [], []
            for _ in range(rng.randint(0, min(3, len(triangles)))):
                tau = rng.choice(triangles)
                if tau in removal:
                    continue
                before = erase_naive(set(triangles) - set(removal))
                removal.append(tau)
                after = erase_naive(set(triangles) - set(removal))
                taken = engine.puncture(engine.tri_id[tau])
                punctures.append(taken)
                assert len(set(taken)) == len(taken)
                assert {face[i] for i in taken} == before - after
                if tau in before:
                    assert taken[0] == engine.tri_id[tau]
                else:
                    assert taken == []
                    seen["already erased"] += 1
                assert engine.remaining == len(after)
                if connected and k.reduced_euler_characteristic() == len(removal):
                    emptied = engine.remaining == 0
                    assert emptied == is_collapsible_2d_greedy(k.remove_facets(removal)).yes, (
                        sorted(map(face_key, k.facets)),
                        sorted(map(face_key, removal)),
                    )
                    seen["collapsible" if emptied else "not collapsible"] += 1
                else:
                    seen["chi != |R| or disconnected"] += 1
            lost = base - erase_naive(set(triangles) - set(removal))
            assert {face[i] for taken in punctures for i in taken} == lost
            for taken in reversed(punctures):
                engine.undo(taken)
            assert engine.remaining == len(base)
        seen["connected" if connected else "disconnected"] += 1
        seen["non-pure" if not k.is_pure(2) else "pure"] += 1
    for case in (
        "already erased", "collapsible", "not collapsible", "chi != |R| or disconnected",
        "disconnected", "connected", "non-pure", "pure",
    ):
        assert seen[case] > 0, case


def test_erasure_puncture_of_erased_triangle():
    # The pendant triangle {1, 2, 4} erases at once, so puncturing it takes
    # nothing; a triangle of the sphere takes the whole sphere, after which
    # the other three are erased too and take nothing.
    sphere = [frozenset(t) for t in ([0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3])]
    k = Complex.from_facets([*sphere, [1, 2, 4]])
    engine = TriangleErasure(k)
    tid = engine.tri_id
    assert engine.remaining == 4
    assert engine.puncture(tid[frozenset({1, 2, 4})]) == []
    taken = engine.puncture(tid[sphere[0]])
    assert taken[0] == tid[sphere[0]] and sorted(taken) == sorted(tid[t] for t in sphere)
    assert engine.remaining == 0
    assert [engine.puncture(tid[t]) for t in sphere] == [[]] * 4
    engine.undo(taken)
    assert engine.remaining == 4
    assert sorted(engine.puncture(tid[sphere[3]])) == sorted(taken)
    # A lone triangle erases completely, so its puncture takes nothing.
    lone = TriangleErasure(Complex.from_facets([[0, 1, 2]]))
    assert lone.remaining == 0 and lone.puncture(0) == [] and lone.remaining == 0


# -- (b) the removal searches against the candidate loops --------------------


def _decide_phi_reference(phi: Formula):
    lc = build_K_phi(phi)
    pools = [
        sorted(lc.subcomplex(f"S(u{i})").facets, key=face_key)
        for i in range(1, phi.n + 1)
    ]
    found = first_greedy_removal(lc.complex, itertools.product(*pools))
    if found is None:
        return None
    removal, pairs = found
    extracted = assignment_from_removal(lc, frozenset(removal))
    assert extracted is not None and _satisfies(phi, extracted)
    return removal, pairs, extracted


def test_decide_phi_matches_product_loop():
    rng = random.Random(2017)
    family = [random_formula(rng.randint(1, 2), rng.randint(1, 3), rng) for _ in range(10)]
    family += [Formula(2, ((1, 2, 2), (-1, -2, -2), (1, -2, -2), (-1, 2, 2)))]
    outcomes = Counter()
    for phi in family:
        res = decide_phi_via_complex(phi)
        ref = _decide_phi_reference(phi)
        outcomes[res.yes] += 1
        if ref is None:
            assert res.verdict == "no", phi
            continue
        assert res.yes, phi
        (cert,) = res.witness
        assert (cert.removal, cert.pairs, cert.assignment) == ref, phi
    assert outcomes[True] and outcomes[False]


def test_decide_phi_full_sweep_matches_combinations_loop():
    # Every set of chi triangles of K_phi, as Hachimori's criterion searches.
    for phi in (Formula(1, ((1, 1, 1),)), Formula(1, ((1, 1, 1), (-1, -1, -1)))):
        k = build_K_phi(phi).complex
        res = hachimori_decide_sd2(k)
        ref = _hachimori_reference(k)
        if ref is None:
            assert res.verdict == "no"
        else:
            assert res.verdict == "yes"
            assert res.witness == ref


def _hachimori_reference(k: Complex, pool=None):
    chi = k.reduced_euler_characteristic()
    if pool is None:
        candidates = sorted((f for f in k.faces if len(f) == 3), key=face_key)
    else:
        candidates = sorted({frozenset(f) for f in pool}, key=face_key)
    return first_greedy_removal(k, itertools.combinations(candidates, chi))


def _find_in_pool(k: Complex, pool):
    """The search ``hachimori_decide_sd2`` runs, over a part of the triangles."""
    pool = sorted({frozenset(f) for f in pool}, key=face_key)
    return find_removal(k, [[t] for t in pool], 10**6)


def test_hachimori_matches_combinations_loop():
    rng = random.Random(2018)
    verdicts = Counter()
    checked = 0
    while checked < 120:
        k = random_small_complex(rng)
        if k.dim != 2:
            continue
        chi = k.reduced_euler_characteristic()
        checked += 1
        if rng.random() < 0.3 and chi >= 0:
            triangles = sorted((f for f in k.faces if len(f) == 3), key=face_key)
            pool = rng.sample(triangles, rng.randint(1, len(triangles)))
            res = _find_in_pool(k, pool)
            verdicts[f"pool {res.verdict}"] += 1
            assert res.witness == _hachimori_reference(k, pool)
            continue
        if not k.is_pure():
            # The criterion refuses non-pure input; its search still runs.
            with pytest.raises(ShellingError):
                hachimori_decide_sd2(k)
            if chi >= 0:
                triangles = [f for f in k.faces if len(f) == 3]
                res = _find_in_pool(k, triangles)
                verdicts[f"non-pure {res.verdict}"] += 1
                assert res.witness == _hachimori_reference(k)
            continue
        res = hachimori_decide_sd2(k)
        verdicts[res.verdict] += 1
        if res.yes:
            assert res.witness == _hachimori_reference(k)
        elif chi >= 0 and vertex_links_connected(k)[0]:
            assert _hachimori_reference(k) is None
    for case in ("yes", "no", "pool yes", "pool no", "non-pure yes", "non-pure no"):
        assert verdicts[case] > 0, case


def test_hachimori_on_compiled_complexes_matches_combinations_loop():
    rng = random.Random(2019)
    for _ in range(3):
        phi = random_formula(1, rng.randint(1, 2), rng)
        lc = build_K_phi(phi)
        pool = sorted(lc.subcomplex("S(u1)").facets, key=face_key)
        res = _find_in_pool(lc.complex, pool)
        assert res.witness == _hachimori_reference(lc.complex, pool)


def test_pooled_search_is_the_whole_criterion_search_on_k_phi():
    # A collapsible removal of χ̃ = n triangles of K_phi takes one per
    # variable sphere (decide_phi_via_complex's docstring), so the pooled
    # search and the search over every set of n triangles agree.
    rng = random.Random(2042)
    family = [random_formula(1 + i % 2, rng.randint(2, 5), rng) for i in range(6)]
    family += [
        Formula(1, ((1, 1, 1), (-1, -1, -1))),
        Formula(2, ((1, 2, 2), (-1, -2, -2), (1, -2, -2), (-1, 2, 2))),
    ]
    verdicts = Counter()
    for phi in family:
        lc = build_K_phi(phi)
        full = hachimori_decide_sd2(lc.complex)
        pooled = decide_phi_via_complex(phi)
        assert full.verdict == pooled.verdict == ("no" if sat_oracle(phi) is None else "yes")
        verdicts[full.verdict] += 1
        if full.yes:
            removal = set(full.witness[0])
            for i in range(1, phi.n + 1):
                assert len(removal & lc.feature(f"S(u{i})").value) == 1, (phi, i)
    assert verdicts["yes"] and verdicts["no"], verdicts


def random_pooled_complex(rng: random.Random):
    """A random pure 2-complex with chi >= 2, its triangles split into chi
    disjoint pools, or None when the draw has chi < 2."""
    n = rng.randint(6, 7)
    k = Complex.from_facets(
        rng.sample(list(itertools.combinations(range(n), 3)), rng.randint(6, 13))
    )
    chi = k.reduced_euler_characteristic()
    if chi < 2:
        return None
    triangles = sorted(k.facets, key=face_key)
    rng.shuffle(triangles)
    cuts = [0, *sorted(rng.sample(range(1, len(triangles)), chi - 1)), len(triangles)]
    return k, [triangles[a:b] for a, b in zip(cuts, cuts[1:])]


def test_product_order_matches_product_loop_on_random_pools():
    # Dominance pruning skips removals, never the first collapsible one.
    rng = random.Random(2021)
    verdicts = Counter()
    while sum(verdicts.values()) < 120:
        case = random_pooled_complex(rng)
        if case is None:
            continue
        k, pools = case
        res = find_removal(k, pools, 10**6)
        assert res.witness == first_greedy_removal(k, itertools.product(*pools)), (
            sorted(map(face_key, k.facets)), [sorted(map(face_key, p)) for p in pools],
        )
        assert res.nodes <= math.prod(map(len, pools))
        verdicts[res.verdict] += 1
    assert verdicts["yes"] and verdicts["no"], verdicts


def budget_sweep_cases():
    """(complex, pools) pairs: random pooled 2-complexes over their pools
    and over one singleton pool per triangle; K_phi over its sphere pools
    for n <= 3, sat and unsat; K_phi of the unsatisfiable n=1 formula
    over all its triangles, as the sd² criterion searches; removals of no
    triangle; and a disconnected complex."""
    rng = random.Random(2022)
    cases = []
    while len(cases) < 80:
        case = random_pooled_complex(rng)
        if case is None:
            continue
        k, pools = case
        flat = sorted(k.facets, key=face_key)
        cases += [(k, pools), (k, [[t] for t in flat])]
    for phi in (
        Formula(1, ((1, 1, 1), (-1, -1, -1))),
        Formula(2, ((1, 2, 2), (-1, -2, -2), (1, -2, -2))),
        Formula(3, ((1, 1, 1), (-1, -1, -1), (2, 3, -2))),
        Formula(3, ((1, 2, 3), (-1, -2, 3), (-3, 1, 1))),
    ):
        lc = build_K_phi(phi)
        pools = [
            sorted(lc.subcomplex(f"S(u{i})").facets, key=face_key)
            for i in range(1, phi.n + 1)
        ]
        cases.append((lc.complex, pools))
    kphi = build_K_phi(Formula(1, ((1, 1, 1), (-1, -1, -1)))).complex
    cases.append((kphi, [[t] for t in sorted(kphi.facets, key=face_key)]))
    for facets in ([[0, 1, 2]], [[0, 1], [1, 2], [0, 2]]):
        cases.append((Complex.from_facets(facets), []))
    a, b = frozenset({0, 1, 2}), frozenset({3, 4, 5})
    cases.append((Complex.from_facets([a, b]), [[a], [b]]))
    return cases


def test_removal_budget_sweep():
    # Below the unbounded count N the walk overruns at the first removal
    # past the budget; from N on the budget is invisible.
    verdicts = Counter()
    for k, pools in budget_sweep_cases():
        full = find_removal(k, pools, 10**6)
        verdicts[full.verdict] += 1
        for b in range(full.nodes + 2):
            res = find_removal(k, pools, b)
            if b < full.nodes:
                assert (res.verdict, res.witness, res.nodes) == ("budget_exceeded", None, b + 1)
            else:
                assert res == full, (b, full)
    assert verdicts["yes"] and verdicts["no"] > 4, verdicts


def test_find_removal_needs_distinct_picks():
    k = Complex.from_facets([[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3], [1, 2, 4]])
    a, b, c = frozenset({0, 1, 2}), frozenset({0, 1, 3}), frozenset({1, 2, 4})
    with pytest.raises(ValueError, match="picked twice"):
        find_removal(k, [[a, b], [c, a]], budget=10)
    with pytest.raises(ValueError, match="picked twice"):
        find_removal(k, [[a], [b], [a]], budget=10)
    # A repeat inside one pool still picks distinct triangles.
    assert find_removal(k, [[a, a]], budget=10).yes


def test_find_removal_refuses_a_pool_entry_off_the_triangles():
    sphere = Complex.from_facets([[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]])
    for pools, face in (([[{0, 1}]], r"\(0, 1\)"), ([[{4, 5, 6}]], r"\(4, 5, 6\)")):
        with pytest.raises(ValueError, match=face + " is not a triangle"):
            find_removal(sphere, pools, budget=10)


def test_find_removal_pick_count_edge_cases():
    # The walk picks χ̃ triangles.  With χ̃ < 0, or fewer pools than χ̃,
    # no removal of that size exists: a no at 0 nodes.  With χ̃ = 0 the
    # one empty removal is checked, whatever the pools.
    cycle = Complex.from_facets([[0, 1], [1, 2], [0, 2], [2, 3], [3, 4], [2, 4]])
    assert cycle.reduced_euler_characteristic() == -2
    assert find_removal(cycle, [], budget=10) == SearchResult("no", None, 0)
    sphere = Complex.from_facets([[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]])
    assert find_removal(sphere, [], budget=10) == SearchResult("no", None, 0)
    assert find_removal(sphere, [], budget=0) == SearchResult("no", None, 0)
    two = sphere.remove_facet({1, 2, 3})
    assert two.reduced_euler_characteristic() == 0
    for pools in ([], [[frozenset({0, 1, 2})]]):
        res = find_removal(two, pools, budget=10)
        assert (res.verdict, res.nodes, res.witness[0]) == ("yes", 1, ())
        res = find_removal(two, pools, budget=0)
        assert (res.verdict, res.nodes) == ("budget_exceeded", 1)
    hat = dunce_hat()
    assert find_removal(hat, [[t] for t in hat.facets], budget=10) == SearchResult("no", None, 1)


def test_removal_walk_deeper_than_the_recursion_limit():
    # A wedge of 150 tetrahedron boundaries at vertex 0 has χ̃ = 150, and
    # one triangle off each sphere leaves a wedge of disks, a collapsible
    # complex.  With one single-triangle pool per sphere the walk goes 150
    # levels deep, 50 past its headroom of frames, and still answers.
    n = 150
    spheres = [[0, 3 * i + 1, 3 * i + 2, 3 * i + 3] for i in range(n)]
    k = Complex.from_facets(t for s in spheres for t in itertools.combinations(s, 3))
    pools = [[frozenset(s[1:])] for s in spheres]
    with recursion_headroom(100):
        res = find_removal(k, pools, budget=10)
    assert (res.verdict, res.nodes) == ("yes", 1)
    assert res.witness[0] == tuple(pool[0] for pool in pools)


def test_removals_tried_are_pinned():
    # Dominance pruning checks far fewer removals than the 8 triangles of
    # one sphere, the 241 of K_phi and the 8**n over n spheres.
    contra = Formula(1, ((1, 1, 1), (-1, -1, -1)))
    results = [
        decide_phi_via_complex(contra),
        hachimori_decide_sd2(build_K_phi(contra).complex),
        decide_phi_via_complex(Formula(3, ((1, 1, 1), (-1, -1, -1), (2, 3, -2)))),
    ]
    # The first unsatisfiable draws for n = 4..6: 2**n removals checked
    # of 8**n candidates, which the budget does not count.
    for n in (4, 5, 6):
        rng = random.Random(7)
        phi = random_formula(n, 5 * n, rng)
        while sat_oracle(phi) is not None:
            phi = random_formula(n, 5 * n, rng)
        results.append(decide_phi_via_complex(phi))
    tried = [(res.verdict, res.nodes) for res in results]
    assert tried == [("no", 2), ("no", 7), ("no", 8), ("no", 16), ("no", 32), ("no", 64)]


def test_find_removal_raises_when_greedy_disagrees(monkeypatch):
    monkeypatch.setattr(collapse, "is_collapsible_2d_greedy", lambda k: SearchResult("no", None, 0))
    with pytest.raises(InternalError, match="greedy disagrees"):
        find_removal(Complex.from_facets([[0, 1, 2]]), [], budget=1)


# -- (c) linear facets against the subset scan -------------------------------


def test_facets_match_subset_scan():
    rng = random.Random(2020)
    dims = Counter()
    for _ in range(300):
        pool = rng.randint(1, 8)
        facets = [
            rng.sample(range(pool), rng.randint(1, min(pool, 5)))
            for _ in range(rng.randint(1, 6))
        ]
        k = Complex.from_facets(facets)
        dims[k.dim] += 1
        assert k.facets == facets_by_subset_scan(k)
        assert k.facets == frozenset(
            frozenset(f) for f in facets if not any(set(f) < set(g) for g in facets)
        )
    assert all(dims[d] for d in range(5)), dims
    assert Complex.from_facets([]).facets == frozenset()
