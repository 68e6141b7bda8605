"""Shelling order search, decomposability, and the sd2 shellability test."""

import collections
import functools
import gc
import itertools
import json
import math
import random
import sys

import pytest

from conftest import (
    EMPTY_FACE_COMPLEX,
    UnionFind,
    deletion_of,
    grown_pure_complex,
    link_of,
    oracle_decide_k_decomposable,
    oracle_verify_decomposition,
    pendant_dunce_hat,
    pinched_complex,
    random_complex,
    random_pure_2complex,
    recursion_headroom,
    strip,
)
from shellkit.collapse import (
    collapses_to,
    find_removal,
    is_collapsible_2d_greedy,
    is_collapsible_dfs,
    verify_collapse_sequence,
)
from shellkit.complex_core import (
    Complex,
    FormatError,
    _put_back,
    _rank_colors,
    barycentric_subdivision,
    canonical_form,
    cone,
    face_key,
    graph_connected,
    ridge_holders,
    subfaces,
    vertex_links_connected,
)
from shellkit import cli, shelling
from shellkit.gadgets import dunce_hat, fixtures, torus_7
from shellkit.reduction import Formula, build_K_phi
from shellkit.shelling import (
    ShellingError,
    _built_state,
    _cone_base,
    _facet_graph,
    _frontier,
    _may_be_shellable,
    _restriction_ok,
    _shed,
    decide_k_decomposable,
    decide_shellable,
    hachimori_decide_sd2,
    verify_decomposition,
    verify_shelling,
)

BD3 = [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]]


def shelling_step_ok_brute(closed: set, facet: frozenset, d: int) -> bool:
    """Definition check: the new facet meets the old closure in a pure
    (d-1)-complex."""
    meet = set()
    for r in range(1, len(facet) + 1):
        for sub in itertools.combinations(sorted(facet), r):
            if frozenset(sub) in closed:
                meet.add(frozenset(sub))
    if not meet:
        return False
    maximal = [f for f in meet if not any(f < g for g in meet)]
    return all(len(f) == d for f in maximal)


def is_shelling_brute(facets_in_order, d) -> bool:
    closed: set = set()
    for i, facet in enumerate(facets_in_order):
        if i > 0 and not shelling_step_ok_brute(closed, facet, d):
            return False
        for r in range(1, len(facet) + 1):
            for sub in itertools.combinations(sorted(facet), r):
                closed.add(frozenset(sub))
    return True


def test_verify_shelling_matches_brute_oracle():
    k = Complex.from_facets(BD3)
    for order in itertools.permutations(sorted(k.facets, key=sorted)):
        assert is_shelling_brute(order, 2)
        verify_shelling(k, order)

    disk = Complex.from_facets([[0, 1, 2], [2, 3, 4], [1, 2, 3]])
    bad = [frozenset({0, 1, 2}), frozenset({2, 3, 4}), frozenset({1, 2, 3})]
    assert not is_shelling_brute(bad, 2)
    with pytest.raises(ShellingError):
        verify_shelling(disk, bad)


def test_verify_shelling_requires_exact_facet_list():
    k = Complex.from_facets(BD3)
    with pytest.raises(ShellingError):
        verify_shelling(k, [sorted(f) for f in sorted(k.facets, key=sorted)][:3])


def prefix_intersection_ok(candidate, chosen, d) -> bool:
    """The shelling step test before restriction faces: intersect the
    candidate with every chosen facet and ask for a nonempty pure
    (d-1)-dimensional union (for d = 0: the empty face alone)."""
    inters = [candidate & prev for prev in chosen]
    if d == 0:
        return all(not x for x in inters)
    tops = [x for x in inters if len(x) == d]
    if not tops:
        return False
    return all(any(x <= t for t in tops) for x in inters)


def test_restriction_face_test_matches_prefix_intersection():
    rng = random.Random(23)
    outcomes = collections.Counter()
    for _ in range(600):
        d = rng.randint(0, 3)
        pool = range(d + 1 + rng.randint(1, 4))
        want = min(rng.randint(2, 9), math.comb(len(pool), d + 1))
        facets = set()
        while len(facets) < want:
            facets.add(frozenset(rng.sample(pool, d + 1)))
        order = sorted(facets, key=sorted)
        rng.shuffle(order)
        chosen = order[: rng.randint(1, len(order) - 1)]
        placed = collections.Counter(g for f in chosen for g in subfaces(f, range(d + 2)))
        # Placed candidates too: there R(F) = F is a placed facet, the one
        # case where "R(F) lies in G" and "R(F) lies strictly in G" differ.
        for candidate in order:
            expected = prefix_intersection_ok(candidate, chosen, d)
            assert _restriction_ok(candidate, placed) == expected, (chosen, candidate)
            outcomes[d, expected, candidate in chosen] += 1
    # For d = 0 every new facet is accepted.
    for d in range(4):
        assert outcomes[d, True, False] > 20 and outcomes[d, False, True] > 20, outcomes
        assert d == 0 or outcomes[d, False, False] > 20, outcomes


def test_verify_shelling_on_a_long_strip():
    # One restriction-face test per facet: a 5,000-facet strip replays in
    # linear time, where intersecting with every predecessor is quadratic.
    n = 5000
    strip = [[i, i + 1, i + 2] for i in range(n)]
    k = Complex.from_facets(strip)
    verify_shelling(k, strip)
    swapped = strip[:2500] + [strip[2501], strip[2500]] + strip[2502:]
    # (2501, 2502, 2503) meets its predecessors in the vertex 2501 alone.
    with pytest.raises(ShellingError, match="facet #2501 "):
        verify_shelling(k, swapped)


def test_decider_node_counts_are_pinned():
    fx = fixtures()
    res = decide_shellable(fx["torus_7"].complex)
    # χ̃(torus) = -1: refuted before the search.
    assert (res.verdict, res.nodes) == ("no", 0)
    res = decide_k_decomposable(fx["modified_dunce_hat"].complex, 1)
    assert (res.verdict, res.nodes) == ("yes", 113)
    # χ̃(dunce hat) = 0 and no ridge is free: refuted before the search.
    res = decide_shellable(dunce_hat())
    assert (res.verdict, res.nodes) == ("no", 0)
    # A cone is decided through its apex's link, here the dunce hat.
    coned = cone(dunce_hat())
    for res in [decide_shellable(coned)] + [decide_k_decomposable(coned, kk) for kk in (0, 1)]:
        assert res.verdict == "no" and res.nodes <= 1, res


# A pure 2-complex whose shelling search refutes it in 133 nodes, and
# whose vertex-decomposability search refutes it in 29.
SEARCHED_NO = [
    [0, 3, 7], [0, 4, 5], [0, 5, 6], [0, 6, 7], [1, 2, 3],
    [1, 2, 5], [1, 3, 5], [2, 3, 5], [3, 5, 7], [4, 5, 7],
]


def test_recursive_search_budget_sweep():
    # A node past the budget ends the whole search: the verdict is
    # budget_exceeded, never a refutation, and below the unbounded count
    # the shelling deciders stop at budget + 1 nodes.  From that count on
    # the budget is invisible.
    mdh = fixtures()["modified_dunce_hat"].complex
    searched_no = Complex.from_facets(SEARCHED_NO)
    runs = [
        (decide_shellable, mdh, ("yes", 14)),
        (decide_shellable, searched_no, ("no", 133)),
        (lambda k, budget: decide_k_decomposable(k, 1, budget), mdh, ("yes", 113)),
        (lambda k, budget: decide_k_decomposable(k, 0, budget), searched_no, ("no", 29)),
    ]
    for decide, k, pinned in runs:
        full = decide(k, budget=10**6)
        assert (full.verdict, full.nodes) == pinned
        for b in range(full.nodes + 2):
            res = decide(k, budget=b)
            if b < full.nodes:
                assert (res.verdict, res.witness, res.nodes) == ("budget_exceeded", None, b + 1)
            else:
                assert res == full, b
    # The collapse search spends its budget on states above dimension 2
    # (28 here) and adds the erasure steps below it to ``nodes``.
    coned = cone(dunce_hat())
    full = is_collapsible_dfs(coned)
    assert (full.verdict, full.nodes) == ("yes", 80)
    for b in range(30):
        res = is_collapsible_dfs(coned, budget=b)
        if b < 28:
            assert (res.verdict, res.witness) == ("budget_exceeded", None)
            assert res.nodes > b
        else:
            assert res == full, b


def test_decide_shellable_frozen():
    assert decide_shellable(Complex.from_facets([[0, 1], [1, 2], [0, 2]])).yes
    assert decide_shellable(Complex.from_facets(BD3)).yes
    assert decide_shellable(fixtures()["boundary_delta_4"].complex).yes
    assert decide_shellable(fixtures()["torus_7"].complex).verdict == "no"
    assert decide_shellable(Complex.from_facets([[0, 1, 2], [2, 3, 4]])).verdict == "no"


def test_decide_shellable_witness_verifies():
    res = decide_shellable(Complex.from_facets(BD3))
    verify_shelling(Complex.from_facets(BD3), res.witness)


def test_decide_shellable_rejects_impure():
    with pytest.raises(ShellingError):
        decide_shellable(Complex.from_facets([[0, 1, 2], [3, 4]]))


def test_k_decomposable_frozen():
    tri = Complex.from_facets([[0, 1, 2]])
    assert decide_k_decomposable(tri, 0).yes
    bd3 = Complex.from_facets(BD3)
    assert decide_k_decomposable(bd3, 0).yes
    assert decide_k_decomposable(bd3, 2).yes
    wedge = Complex.from_facets([[0, 1, 2], [2, 3, 4]])
    assert decide_k_decomposable(wedge, 2).verdict == "no"


def test_shellable_iff_2_decomposable_random():
    rng = random.Random(31)
    for _ in range(40):
        k = random_pure_2complex(rng, max_facets=6, pool=7)
        a = decide_shellable(k)
        b = decide_k_decomposable(k, 2)
        assert a.verdict in ("yes", "no") and b.verdict in ("yes", "no")
        assert a.yes == b.yes


OCTAHEDRON = [[a, b, c] for a in (0, 1) for b in (2, 3) for c in (4, 5)]


@pytest.mark.parametrize(
    "name, k, kk",
    [("octahedron", Complex.from_facets(OCTAHEDRON), kk) for kk in (0, 1, 2)]
    + [("modified_dunce_hat", fixtures()["modified_dunce_hat"].complex, 1)],
)
def test_k_decomposable_witness_after_memo_hit_verifies(name, k, kk):
    # These searches reach the same facet set along different branches,
    # so the tree they return includes memoized subtrees.
    res = decide_k_decomposable(k, kk)
    assert res.yes, name
    verify_decomposition(k, kk, res.witness[0])


def test_k_decomposable_yes_witnesses_verify_random():
    # Few vertices make repeated facet sets, and so memo hits, common.
    rng = random.Random(41)
    yes = 0
    for _ in range(60):
        k = random_pure_2complex(rng, max_facets=8, pool=5)
        for kk in (0, 1, 2):
            res = decide_k_decomposable(k, kk, budget=20000)
            if res.yes:
                yes += 1
                verify_decomposition(k, kk, res.witness[0])
    assert yes >= 100


def reference_canonical(k: Complex):
    """The canonical key and renaming computed from the full face set:
    vertices are the 0-faces and adjacency the 1-faces."""
    if not k.faces:
        return ("void",), {}
    verts = k.vertices
    adj = {v: [] for v in verts}
    for f in k.faces:
        if len(f) == 2:
            a, b = f
            adj[a].append(b)
            adj[b].append(a)
    profile = {v: [] for v in verts}
    for facet in k.facets:
        for v in facet:
            profile[v].append(len(facet))
    ranks = _rank_colors({v: (tuple(sorted(profile[v])),) for v in verts}, verts)
    while True:
        sig = {v: (ranks[v], tuple(sorted(ranks[u] for u in adj[v]))) for v in verts}
        new_ranks = _rank_colors(sig, verts)
        if len(set(new_ranks.values())) == len(set(ranks.values())):
            break
        ranks = new_ranks
    rename = {v: i for i, v in enumerate(sorted(verts, key=lambda v: (ranks[v], v)))}
    facets = tuple(sorted(tuple(sorted(rename[v] for v in f)) for f in k.facets))
    return ("cx", facets), rename


def reference_k_decomposable(k: Complex, kk: int, budget: int):
    """The unpruned search on full-face complexes: every tried face builds
    its link and deletion by their definitions and checks purity.  Results are memoized by the face set."""
    memo = {}
    nodes = 0
    budget_hit = False

    def rec(c: Complex):
        nonlocal nodes, budget_hit
        if budget_hit:
            return None
        nodes += 1
        if nodes > budget:
            budget_hit = True
            return None
        if len(c.faces) <= 1:
            return {"leaf": []}
        if len(c.facets) == 1:
            (facet,) = c.facets
            return {"leaf": list(face_key(facet))}
        if c.faces in memo:
            return memo[c.faces]
        d = c.dim
        if not c.is_pure(d):
            memo[c.faces] = None
            return None
        for sigma in sorted((f for f in c.faces if f and len(f) <= kk + 1), key=face_key):
            lk = link_of(c, sigma)
            if lk.dim != d - len(sigma) or not lk.is_pure(lk.dim):
                continue
            dl = deletion_of(c, sigma)
            if not dl.faces or dl.dim != d or not dl.is_pure(d):
                continue
            lk_tree = rec(lk)
            if lk_tree is None:
                if budget_hit:
                    return None
                continue
            dl_tree = rec(dl)
            if dl_tree is None:
                if budget_hit:
                    return None
                continue
            tree = {"shedding": list(face_key(sigma)), "link": lk_tree, "delete": dl_tree}
            memo[c.faces] = tree
            return tree
        memo[c.faces] = None
        return None

    tree = rec(k)
    if tree is not None:
        return "yes", nodes, tree
    return ("budget_exceeded" if budget_hit else "no"), nodes, None


def reference_shellable(k: Complex) -> bool:
    """Exhaustive shelling search on the definition, with no precheck:
    orders grow one facet at a time, each step tested by intersecting
    with every chosen facet, and results are memoized by the chosen set."""
    facets = list(k.facets)

    @functools.cache
    def extends(used: frozenset) -> bool:
        return len(used) == len(facets) or any(
            extends(used | {f})
            for f in facets
            if f not in used and (not used or prefix_intersection_ok(f, used, k.dim))
        )

    return extends(frozenset())


def random_pure_complex(rng: random.Random, d: int) -> Complex:
    pool = rng.randint(d + 2, d + 4)
    want = rng.randint(1, min(8, math.comb(pool, d + 1)))
    facets = set()
    while len(facets) < want:
        facets.add(frozenset(rng.sample(range(pool), d + 1)))
    return Complex.from_facets(facets)


def random_pure_complexes(count: int) -> list[Complex]:
    rng = random.Random(53)
    return [random_pure_complex(rng, rng.randint(0, 3)) for _ in range(count)]


def k_decomposable_mismatches(complexes, seen: collections.Counter) -> list:
    """Searches where decide_k_decomposable departs from the unpruned
    oracle: a different verdict or witness wherever the oracle decides, or
    more nodes.  Every yes the library returns must verify."""
    bad = []
    for k in complexes:
        for kk in range(k.dim + 2):
            for budget in (12, 3000):
                res = decide_k_decomposable(k, kk, budget=budget)
                verdict, nodes, tree = reference_k_decomposable(k, kk, budget)
                got = None
                if res.yes:
                    verify_decomposition(k, kk, res.witness[0])
                    got = cli._dump(cli._witness_doc("k-decomposable", k, res.witness, kk))
                if tree is not None:
                    tree = cli._dump(cli._witness_doc("k-decomposable", k, (tree,), kk))
                same = verdict == "budget_exceeded" or (res.verdict, got) == (verdict, tree)
                if not same or res.nodes > nodes:
                    bad.append((sorted(map(sorted, k.facets)), kk, budget, res, verdict, nodes))
                seen[budget, verdict, res.verdict] += 1
    return bad


def shellable_mismatches(complexes) -> list:
    """Complexes where decide_shellable's verdict departs from the
    exhaustive search on the definition; every yes must verify."""
    bad = []
    for k in complexes:
        res = decide_shellable(k, budget=3000)
        assert res.verdict != "budget_exceeded"
        if res.yes:
            verify_shelling(k, res.witness)
        if res.yes != reference_shellable(k):
            bad.append((sorted(map(sorted, k.facets)), res))
    return bad


def test_k_decomposable_matches_full_face_oracle():
    seen = collections.Counter()
    assert k_decomposable_mismatches(random_pure_complexes(90), seen) == []
    decided = {v: sum(n for (_, ref, _), n in seen.items() if ref == v) for v in ("yes", "no")}
    assert min(decided.values()) >= 40, seen
    # The library still runs out of budget, and the pruning decides some
    # searches on which the unpruned oracle runs out.
    assert seen[12, "budget_exceeded", "budget_exceeded"] >= 20, seen
    assert seen[12, "budget_exceeded", "no"] + seen[12, "budget_exceeded", "yes"] >= 10, seen


def test_inherited_search_matches_rebuilding_oracle():
    # Random pure complexes of dimension 1, 2 and 3, their cones and the
    # cones of those cones, at every k from 0 to d: the search whose
    # deletion children inherit their parent's state returns what the
    # search that rebuilds it at every node returns, the same verdict, tree
    # and node count, under a budget that binds and one that does not.
    rng = random.Random(71)
    bases = [Complex.from_facets(BD3), Complex.from_facets(SEARCHED_NO)]
    bases.append(barycentric_subdivision(Complex.from_facets(BD3), 1).complex)
    # The dunce hat with a 2-sphere on one of its triangles: shedding the
    # sphere's apex leaves the hat, with χ̃ = 0 and no free ridge, which
    # the χ̃ = 0 rule refutes though the shed left three ridges empty.
    hat = dunce_hat()
    apex, t = max(hat.vertices) + 1, min(hat.facets, key=face_key)
    bases.append(Complex.from_facets([*hat.facets, *({apex} | t - {u} for u in t)]))
    bases += [random_pure_complex(rng, 1 + i % 3) for i in range(30)]
    bases += [grown_pure_complex(rng, 2 + i % 2, 12) for i in range(60)]
    seen = collections.Counter()
    for family, complexes in (
        ("base", bases),
        ("cone", [cone(k) for k in bases[::3]]),
        ("cone of cone", [cone(cone(k)) for k in bases[::5]]),
    ):
        for k in complexes:
            for kk in range(k.dim + 1):
                for budget in (15, 3000):
                    res = decide_k_decomposable(k, kk, budget=budget)
                    assert res == oracle_decide_k_decomposable(k, kk, budget), (k.facets, kk)
                    seen[family, budget, res.verdict] += 1
    for family in ("base", "cone", "cone of cone"):
        assert seen[family, 3000, "yes"] >= 5 and seen[family, 3000, "no"] >= 5, seen
    assert seen["base", 15, "budget_exceeded"] >= 5, seen


def test_shed_state_matches_the_built_deletion_and_restores():
    # Down random chains of deletions from a state built from scratch,
    # _shed edits the node's state into the one _built_state builds from
    # the child's facets: the same ridge map and candidates once the keys
    # left empty are dropped, with the candidates in the same order, the
    # same facet graph on the child's facets and χ̃; and it refutes
    # exactly the children the built prune refutes.  After each
    # _put_back, the parent's state is its snapshot from before the shed:
    # the same keys in the same order, the same lists in the same order
    # and the same χ̃, also back up a whole chain of deletions.  The
    # children are those the search makes: σ in a live facet with no ridge
    # f - v (v in σ) of a single facet, and two or more facets left.
    # χ̃(del σ) = χ̃(K) - (-1)^|σ| χ̃(lk σ) holds on the built complexes,
    # and the deletion is pure with the facets that miss σ.
    def as_sets(holders):
        return {face: set(around) for face, around in holders.items() if around}

    def snapshot(state):
        by_ridge, adj, chi, cofacets = state
        return [
            [(face, list(around)) for face, around in by_ridge.items()],
            adj,
            chi,
            [(face, list(around)) for face, around in cofacets.items()],
        ]

    def same_state(got, built, facets):
        by_ridge, adj, chi, cofacets = got
        assert as_sets(by_ridge) == as_sets(built[0])
        assert {f: set(adj[f]) & facets for f in facets} == {f: set(built[1][f]) for f in facets}
        assert chi == built[2]
        assert [face for face, around in cofacets.items() if around] == list(built[3])
        assert as_sets(cofacets) == as_sets(built[3])

    rng = random.Random(73)
    checked = collections.Counter()
    complexes = [grown_pure_complex(rng, 1 + i % 3, rng.randint(4, 12)) for i in range(60)]
    complexes += [pinched_complex(rng, 1 + i % 3, 10 + i % 5) for i in range(60)]
    for k in complexes:
        d = k.dim
        for kk in range(min(d, 2)):
            facets, state = k.facets, _built_state(k.facets, kk)
            chain = []  # (parent's state, records, its snapshot) per shed kept
            while state is not None and len(facets) > 1:
                passed = []
                for sigma, around in state[3].items():
                    if not around or any(len(state[0][f - {v}]) == 1 for f in around for v in sigma):
                        continue
                    child = facets.difference(around)
                    if len(child) < 2:
                        continue  # rec answers a leaf before it sheds
                    node = Complex.from_facets(facets)
                    dl, lk = deletion_of(node, sigma), link_of(node, sigma)
                    assert dl.is_pure(d) and dl.facets == child
                    chi = node.reduced_euler_characteristic()
                    lk_chi = lk.reduced_euler_characteristic()
                    assert dl.reduced_euler_characteristic() == chi - (-1) ** len(sigma) * lk_chi
                    before = snapshot(state)
                    shed, records = _shed(state, child, kk, sigma, around)
                    built = _built_state(child, kk)
                    assert (shed is None) == (built is None), (sorted(map(sorted, facets)), sigma)
                    if shed is not None:
                        same_state(shed, built, child)
                        passed.append((child, sigma))
                    _put_back(*records)
                    assert snapshot(state) == before
                    checked[len(sigma), shed is None] += 1
                if not passed:
                    break
                child, sigma = rng.choice(passed)
                before = snapshot(state)
                shed, records = _shed(state, child, kk, sigma, state[3][sigma])
                chain.append((state, records, before))
                facets, state = child, shed
            for parent, records, before in reversed(chain):
                _put_back(*records)
                assert snapshot(parent) == before
    assert min(checked[size, refuted] for size in (1, 2) for refuted in (False, True)) >= 50, checked


def test_inherited_search_matches_rebuilding_oracle_on_pinched_complexes():
    # The draws kept are those where the rebuilding oracle refutes some
    # deletion child on one rule alone: a star graph, which only the stars
    # re-tested at the shed facets' vertices see, or the facet graph, which
    # the frontier walk tests.  On them the inherited search returns the
    # oracle's verdict, tree and node count.  The star rule alone refutes
    # mostly at d = 3; the facet graph alone mostly at d = 1, where no star
    # is tested (at d = 2 a deletion that cuts the facet graph mostly cuts
    # the star of a vertex on both sides too).
    rng = random.Random(83)
    kept = collections.Counter()
    for i in range(300):
        k = pinched_complex(rng, 1 + i % 3, 10 + i % 5)
        for kk in range(k.dim + 1):
            refuted = []
            full = oracle_decide_k_decomposable(k, kk, 3000, refuted)
            alone = {next(iter(rules)) for deletion, rules in refuted if deletion and len(rules) == 1}
            alone &= {"star", "graph"}
            if not alone:
                continue
            for budget in (15, 3000):
                ref = full if budget == 3000 else oracle_decide_k_decomposable(k, kk, budget)
                assert decide_k_decomposable(k, kk, budget) == ref, (sorted(map(sorted, k.facets)), kk)
            kept.update(alone)
            kept[full.verdict] += 1
    assert kept["star"] >= 40 and kept["graph"] >= 40 and kept["yes"] >= 80, kept


def test_frontier_walk_matches_the_built_deletion():
    # For every face σ of random pure complexes with a connected facet
    # graph, the walk from the frontier answers as connectivity of the
    # facet graph of what is left, found by union-find over its shared
    # ridges; where the deletion is pure, what is left is its facet set.
    rng = random.Random(89)
    seen = collections.Counter()
    for i in range(150):
        k = grown_pure_complex(rng, 1 + i % 3, rng.randint(3, 14))
        adj = _facet_graph(ridge_holders(k.facets))
        for sigma in k.faces - {frozenset()}:
            around = [f for f in k.facets if sigma <= f]
            child = k.facets.difference(around)
            if not child:
                continue
            uf = UnionFind()
            for f, g in itertools.combinations(child, 2):
                if len(f & g) == k.dim:
                    uf.union(f, g)
            connected = len({uf.find(f) for f in child}) == 1
            assert graph_connected(child, adj, _frontier(child, adj, around)) == connected
            dl = deletion_of(k, sigma)
            if dl.is_pure(k.dim):
                assert dl.facets == child
            seen[len(sigma), connected] += 1
    assert min(seen[size, c] for size in (1, 2) for c in (False, True)) >= 30, seen


def test_deciders_leave_no_reference_cycles():
    # A search's state is freed when the call returns, by reference
    # counting alone, on a yes, a no and an overrun where it has one.
    mdh = fixtures()["modified_dunce_hat"].complex
    searched_no = Complex.from_facets(SEARCHED_NO)
    cone_strip = cone(strip(12))
    apex = Complex.from_facets([[max(cone_strip.vertices)]])
    # Two solid tetrahedra hung on the dunce hat: a searched collapse no.
    hat = dunce_hat()
    a, b = hat.vertices[:2]
    hung = Complex.from_facets([*hat.facets, [a, 100, 101, 102], [b, 103, 104, 105]])
    vertex = Complex.from_facets([[a]])
    sphere = Complex.from_facets(subfaces(range(4), [3]))
    sphere_pool = [sorted(sphere.facets, key=face_key)]
    # Two hollow tetrahedra hung on the dunce hat: χ̃ = 2, and a removal no.
    hat_spheres = Complex.from_facets(
        [*hat.facets, *subfaces({a, 100, 101, 102}, [3]), *subfaces({a, 103, 104, 105}, [3])]
    )
    hat_pools = [[t] for t in sorted(hat_spheres.facets, key=face_key)]
    calls = [
        ("yes", lambda: decide_k_decomposable(mdh, 1)),
        ("no", lambda: decide_k_decomposable(searched_no, 0)),
        ("budget_exceeded", lambda: decide_k_decomposable(mdh, 1, budget=5)),
        ("yes", lambda: decide_shellable(mdh)),
        ("no", lambda: decide_shellable(searched_no)),
        ("budget_exceeded", lambda: decide_shellable(mdh, budget=3)),
        ("yes", lambda: is_collapsible_dfs(cone_strip)),
        ("no", lambda: is_collapsible_dfs(hung)),
        ("budget_exceeded", lambda: is_collapsible_dfs(cone_strip, budget=3)),
        ("yes", lambda: collapses_to(cone_strip, apex)),
        ("no", lambda: collapses_to(hung, vertex)),
        ("budget_exceeded", lambda: collapses_to(cone_strip, apex, budget=3)),
        ("yes", lambda: is_collapsible_2d_greedy(mdh)),
        ("no", lambda: is_collapsible_2d_greedy(pendant_dunce_hat())),
        ("yes", lambda: find_removal(sphere, sphere_pool, 10)),
        ("no", lambda: find_removal(hat_spheres, hat_pools, 100)),
        ("budget_exceeded", lambda: find_removal(hat_spheres, hat_pools, 3)),
    ]
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        for verdict, call in calls:
            res = call()
            assert (res.verdict, res.nodes > 0) == (verdict, True)
            assert gc.collect() == 0, res
    finally:
        if was_enabled:
            gc.enable()


def test_decide_shellable_matches_definition_oracle():
    complexes = random_pure_complexes(120)
    assert shellable_mismatches(complexes) == []
    verdicts = collections.Counter(reference_shellable(k) for k in complexes)
    assert min(verdicts.values()) >= 20, verdicts


def test_shellable_precheck_is_the_built_state_of_the_base():
    # decide_shellable answers no in 0 nodes exactly when the prune of
    # _built_state refutes the base of its cone rule at k = 0; a complex
    # with one facet or of dimension 0 is a yes without a search.  The
    # searched no and the pendant dunce hat pass the prune and are searched.
    complexes = random_pure_complexes(120)
    complexes += [Complex.from_facets(SEARCHED_NO), pendant_dunce_hat()]
    seen = collections.Counter()
    for k in complexes + [cone(k) for k in complexes[::2]]:
        base = _cone_base(k)[0]
        res = decide_shellable(k, budget=3000)
        refuted = _built_state(base, 0) is None
        assert ((res.verdict, res.nodes) == ("no", 0)) == refuted, k.facets
        seen[refuted, res.verdict] += 1
    assert seen[True, "no"] >= 20 and seen[False, "yes"] >= 20, seen
    assert seen[False, "no"] and seen[False, "budget_exceeded"], seen


def test_oracle_comparisons_catch_a_wrong_pruning_rule(monkeypatch):
    # A mutant of _may_be_shellable whose χ̃ test has the wrong sign
    # refutes shellable complexes; both oracle comparisons must see it.
    def chi_sign_flipped(facets, by_ridge, adj, chi, stars):
        k = Complex.from_facets(facets)
        return (-1) ** k.dim * k.reduced_euler_characteristic() <= 0

    monkeypatch.setattr(shelling, "_may_be_shellable", chi_sign_flipped)
    complexes = random_pure_complexes(30)
    assert k_decomposable_mismatches(complexes, collections.Counter())
    assert shellable_mismatches(complexes)


def test_cone_rule_matches_unpruned_oracles():
    # Random pure 1- and 2-complexes, closed surfaces among them, their
    # cones and the cones of those cones.  The deciders go through the
    # apex link and lift the witness; the oracles search the whole cone.
    rng = random.Random(62)
    bases = [Complex.from_facets(BD3), Complex.from_facets(OCTAHEDRON)]
    bases += [
        random_pure_2complex(rng, max_facets=6, pool=6) if i % 2 else random_pure_complex(rng, 1)
        for i in range(40)
    ]
    seen = collections.Counter()
    for family, complexes in (
        ("base", bases),
        ("cone", [cone(k) for k in bases]),
        ("cone of cone", [cone(cone(k)) for k in bases]),
    ):
        for k in complexes:
            res = decide_shellable(k, budget=3000)
            assert res.yes == reference_shellable(k) and res.verdict != "budget_exceeded", k.facets
            if res.yes:
                verify_shelling(k, res.witness)
            seen[family, "shellable", res.verdict] += 1
            for kk in range(k.dim + 1):
                res = decide_k_decomposable(k, kk, budget=3000)
                verdict, _, _ = reference_k_decomposable(k, kk, 3000)
                assert verdict in ("budget_exceeded", res.verdict), (k.facets, kk, res)
                if res.yes:
                    verify_decomposition(k, kk, res.witness[0])
                seen[family, "k-decomposable", res.verdict] += 1
    for family in ("base", "cone", "cone of cone"):
        for what in ("shellable", "k-decomposable"):
            assert seen[family, what, "yes"] >= 10 and seen[family, what, "no"] >= 10, seen


def _pinched_sphere() -> Complex:
    """sd(∂Δ³) with the barycentres of the edges 01 and 23 identified,
    and a pendant triangle on the edge 0 a.  The two barycentres are three
    edges apart, so the quotient is still a simplicial complex: a sphere
    with two points glued, χ̃ = 0, facet graph connected, and the glued
    vertex's link two disjoint 4-cycles.  The pendant triangle keeps
    χ̃ = 0, adds a free edge and leaves that link disconnected."""
    sub = barycentric_subdivision(Complex.from_facets(BD3), 1)
    carrier = {c: v for v, c in sub.vertex_carrier.items()}
    a, b = carrier[frozenset({0, 1})], carrier[frozenset({2, 3})]
    facets = [[a if v == b else v for v in f] for f in sub.complex.facets]
    return Complex.from_facets(facets + [[carrier[frozenset({0})], a, max(sub.complex.vertices) + 1]])


def full_prune(k: Complex) -> bool:
    """The prune on the whole of ``k``: the facet-graph test for d >= 1,
    then ``_may_be_shellable`` with every star tested and χ̃ counted over
    the face set."""
    by_ridge = ridge_holders(k.facets)
    adj = {f: [g for g in k.facets if len(f & g) == k.dim] for f in k.facets}
    if k.dim >= 1 and not graph_connected(k.facets, adj):
        return False
    stars = [[f for f in k.facets if v in f] for v in k.vertices]
    return _may_be_shellable(k.facets, by_ridge, adj, k.reduced_euler_characteristic(), stars)


def test_may_be_shellable_each_rule_refutes():
    def facet_graph_connected(k):
        adj = collections.defaultdict(list)
        for f, g in itertools.combinations(k.facets, 2):
            if len(f & g) == k.dim:
                adj[f].append(g)
                adj[g].append(f)
        return graph_connected(k.facets, adj)

    def has_free_ridge(k):
        return any(n == 1 for n in collections.Counter(f - {v} for f in k.facets for v in f).values())

    # Each refuted complex fails one of the four tests alone.
    disjoint = Complex.from_facets([[0, 1, 2], [3, 4, 5]])
    pinched = _pinched_sphere()
    torus = torus_7()
    hat = dunce_hat()
    assert not facet_graph_connected(disjoint)
    assert vertex_links_connected(disjoint)[0] and disjoint.reduced_euler_characteristic() == 1
    assert facet_graph_connected(pinched) and not vertex_links_connected(pinched)[0]
    assert pinched.reduced_euler_characteristic() == 0 and has_free_ridge(pinched)
    assert facet_graph_connected(torus) and vertex_links_connected(torus)[0]
    assert torus.reduced_euler_characteristic() == -1
    assert facet_graph_connected(hat) and vertex_links_connected(hat)[0]
    assert hat.reduced_euler_characteristic() == 0 and not has_free_ridge(hat)
    refuted = [disjoint, pinched, torus, hat, Complex.from_facets([[0, 1], [2, 3]])]
    assert not any(map(full_prune, refuted))
    # Necessary, not sufficient: the dunce hat with a pendant triangle
    # passes, but it is contractible and not collapsible, so not shellable.
    pendant = pendant_dunce_hat()
    assert pendant.reduced_euler_characteristic() == 0 and has_free_ridge(pendant)
    assert is_collapsible_2d_greedy(pendant).verdict == "no"
    passing = [Complex.from_facets(BD3), Complex.from_facets(OCTAHEDRON), pendant]
    passing += [Complex.from_facets([[0], [1], [2]]), Complex.from_facets([[0, 1], [1, 2]])]
    assert all(map(full_prune, passing))


def test_canonical_from_facets_matches_full_face_oracle():
    rng = random.Random(59)
    inputs = [Complex.from_facets([]), Complex.from_facets([[]])]
    for _ in range(150):
        k = random_complex(rng)
        inputs.append(k)
        # An isolated vertex, as a JSON document can declare one.
        inputs.append(Complex.from_faces(k.faces | {frozenset([rng.randint(8, 9)])}))
    assert any(not k.is_pure() for k in inputs)
    for k in inputs:
        assert canonical_form(k) == reference_canonical(k)[0]


def test_verify_decomposition_and_tampering():
    bd3 = Complex.from_facets(BD3)
    res = decide_k_decomposable(bd3, 0)
    tree = res.witness[0]
    verify_decomposition(bd3, 0, tree)
    # A face of the wrong shape is a parse error, not a refutation.
    with pytest.raises(FormatError, match="list of vertex ids"):
        verify_decomposition(bd3, 0, {"leaf": True})
    with pytest.raises(ShellingError):
        verify_decomposition(bd3, 0, {"leaf": [0, 1, 2]})
    bad = json.loads(json.dumps(tree))
    bad["shedding"] = [0, 9]
    with pytest.raises(ShellingError, match="not in complex"):
        verify_decomposition(bd3, 0, bad)
    # Forged leaves: one facet of a two-facet node, at the root and as the
    # deletion of a strip's end vertex, and a proper face of a node's only
    # facet, at the root and as a link.
    pair = Complex.from_facets([[0, 1, 2], [1, 2, 3]])
    strip = Complex.from_facets([[0, 1, 2], [1, 2, 3], [2, 3, 4]])
    triangle = Complex.from_facets([[0, 1, 2]])
    forged = [
        (pair, {"leaf": [0, 1, 2]}),
        (strip, {"shedding": [0], "link": {"leaf": [1, 2]}, "delete": {"leaf": [1, 2, 3]}}),
        (triangle, {"leaf": [0, 1]}),
        (pair, {"shedding": [0], "link": {"leaf": [1]}, "delete": {"leaf": [1, 2, 3]}}),
    ]
    for k, tree in forged:
        with pytest.raises(ShellingError, match="does not match"):
            verify_decomposition(k, 0, tree)
    for k in (pair, strip, triangle):
        assert verify_decomposition(k, 0, decide_k_decomposable(k, 0).witness[0]) >= 1


def random_shedding_tree(rng: random.Random, facets: frozenset, kk: int) -> dict:
    """A shedding tree grown on ``facets`` with random shedding faces of at
    most ``kk`` + 1 vertices, each node's children formed by the facet
    rules, {F - σ : F ⊇ σ} and the facets that miss σ, but with no purity
    test: the tree is wrong wherever a deletion is not pure."""
    if len(facets) == 1:
        return {"leaf": list(face_key(next(iter(facets))))}
    f = rng.choice(sorted(facets, key=face_key))
    sigma = frozenset(rng.sample(sorted(f), rng.randint(1, min(kk + 1, len(f)))))
    around = {g for g in facets if sigma <= g}
    kept = facets - around
    return {
        "shedding": sorted(sigma),
        "link": random_shedding_tree(rng, frozenset(g - sigma for g in around), kk),
        "delete": random_shedding_tree(rng, kept, kk) if kept else {"leaf": sorted(f)},
    }


def tree_nodes(tree: dict) -> list[dict]:
    """Every node of a shedding tree."""
    nodes, stack = [], [tree]
    while stack:
        nodes.append(stack.pop())
        stack += [nodes[-1][key] for key in ("link", "delete") if key in nodes[-1]]
    return nodes


def tampered(rng: random.Random, tree: dict, faces: list, how: str) -> dict:
    """A copy of ``tree`` with one node changed: its shedding face swapped
    for one of ``faces``, its children swapped, its subtree cut to one of
    the subtree's leaves, or a leaf swapped for another leaf of the tree or
    one of ``faces``."""
    tree = json.loads(json.dumps(tree))
    nodes = tree_nodes(tree)
    leaves = [node for node in nodes if "leaf" in node]
    inner = [node for node in nodes if "shedding" in node]
    if how == "wrong leaf" or not inner:
        rng.choice(leaves)["leaf"] = rng.choice([leaf["leaf"] for leaf in leaves] + faces)
        return tree
    node = rng.choice(inner)
    if how == "shedding face":
        node["shedding"] = rng.choice(faces)
    elif how == "children":
        node["link"], node["delete"] = node["delete"], node["link"]
    else:
        cut = rng.choice([below["leaf"] for below in tree_nodes(node) if "leaf" in below])
        node.clear()
        node["leaf"] = cut
    return tree


def test_replay_matches_the_recursive_face_set_replay():
    # On random pure complexes of dimension 1 to 3 and their cones, the
    # replay on facet sets accepts and refuses the trees that the replay
    # on face sets (``oracle_verify_decomposition``) does, with the same
    # node count or the same reason: the deciders' trees at every k, the
    # same trees checked at every other k, four tamperings of each, and
    # random trees grown without the purity tests.
    def replay(verify, k, kk, tree):
        try:
            return verify(k, kk, tree)
        except ShellingError as exc:
            return str(exc)

    rng = random.Random(97)
    seen = collections.Counter()
    for i in range(60):
        d = 1 + i % 3
        base = grown_pure_complex(rng, d, rng.randint(2, 9)) if i % 2 else random_pure_complex(rng, d)
        for k in (base, cone(base)):
            faces = [sorted(f) for f in k.faces if f]
            for kk in range(k.dim + 1):
                trees = [("random", random_shedding_tree(rng, k.facets, kk)) for _ in range(3)]
                res = decide_k_decomposable(k, kk, budget=3000)
                if res.yes:
                    tree = res.witness[0]
                    trees.append(("decider", tree))
                    for how in ("shedding face", "children", "cut", "wrong leaf"):
                        trees += [(how, tampered(rng, tree, faces, how)) for _ in range(2)]
                for family, tree in trees:
                    for at in range(k.dim + 1):
                        got = replay(verify_decomposition, k, at, tree)
                        assert got == replay(oracle_verify_decomposition, k, at, tree), (
                            sorted(map(sorted, k.facets)), at, tree,
                        )
                        seen[family, at == kk, got.split()[0] if isinstance(got, str) else "yes"] += 1
    assert seen["decider", True, "yes"] >= 100, seen
    for how in ("shedding face", "children", "cut", "wrong leaf", "random"):
        assert sum(n for (f, _, v), n in seen.items() if f == how and v != "yes") >= 50, seen
    assert seen["random", True, "yes"] >= 20 and seen["random", True, "deletion"] >= 20, seen


def test_replay_of_a_tree_deeper_than_the_recursion_limit():
    # The strip of triangles i i+1 i+2 is vertex decomposable: step i sheds
    # vertex i, whose link is the leaf [i+1, i+2], and the last leaf is the
    # end triangle.  The tree nests 3,000 deep, past the recursion limit,
    # and the replay walks it from a stack.
    n = 3000
    assert sys.getrecursionlimit() < n
    k = Complex.from_facets([i, i + 1, i + 2] for i in range(n))
    tree = {"leaf": [n - 1, n, n + 1]}
    for i in reversed(range(n - 1)):
        tree = {"shedding": [i], "link": {"leaf": [i + 1, i + 2]}, "delete": tree}
    assert verify_decomposition(k, 0, tree) == 2 * n - 1


def test_searches_deeper_than_the_recursion_limit():
    # The searches keep their levels on one explicit stack, not in Python
    # frames: with 100 frames of headroom, the shelling search places 300
    # facets one level below the other, the decomposition search sheds 299
    # vertices, and the collapse search removes 150 tetrahedra.
    k, coned = strip(300), cone(strip(150))
    with recursion_headroom(100):
        order = decide_shellable(k)
        tree = decide_k_decomposable(k, 0)
        pairs = is_collapsible_dfs(coned)
    assert (order.verdict, order.nodes) == ("yes", 300)
    verify_shelling(k, order.witness)
    assert (tree.verdict, tree.nodes) == ("yes", 599)
    assert verify_decomposition(k, 0, tree.witness[0]) == 599
    assert pairs.verdict == "yes"
    verify_collapse_sequence(coned, pairs.witness)


def test_the_empty_face_complex_replays_and_the_void_does_not():
    # The empty-face complex {∅} has one facet, ∅: it is decomposed by
    # the leaf [] and shelled by the order (∅,), and both replay, but the
    # empty order does not; the void complex has no decomposition to
    # replay.
    res = decide_k_decomposable(EMPTY_FACE_COMPLEX, 0)
    assert (res.verdict, res.witness) == ("yes", ({"leaf": []},))
    assert verify_decomposition(EMPTY_FACE_COMPLEX, 0, res.witness[0]) == 1
    res = decide_shellable(EMPTY_FACE_COMPLEX)
    assert (res.verdict, res.witness, res.nodes) == ("yes", (frozenset(),), 0)
    verify_shelling(EMPTY_FACE_COMPLEX, res.witness)
    with pytest.raises(ShellingError, match="does not enumerate the facets"):
        verify_shelling(EMPTY_FACE_COMPLEX, [])
    with pytest.raises(ShellingError, match="needs a nonempty complex"):
        verify_decomposition(Complex.from_facets([]), 0, {"leaf": []})


def test_shelling_searches_and_replays_read_no_closure():
    # The last level of sd² holds only its facets, and both searches and
    # both replays read facets alone, so none of them builds the face set.
    for facets in ([[0, 1], [1, 2], [0, 2]], [[0, 1, 2], [1, 2, 3]]):
        k = barycentric_subdivision(Complex.from_facets(facets), 2).complex
        order = decide_shellable(k)
        assert order.yes and k._faces is None
        verify_shelling(k, order.witness)
        assert k._faces is None
        k = barycentric_subdivision(Complex.from_facets(facets), 2).complex
        tree = decide_k_decomposable(k, 0)
        assert tree.yes and k._faces is None
        verify_decomposition(k, 0, tree.witness[0])
        assert k._faces is None


def test_hachimori_frozen_verdicts():
    mdh = fixtures()["modified_dunce_hat"].complex
    res = hachimori_decide_sd2(mdh)
    assert res.verdict == "yes"
    removal, pairs = res.witness
    assert removal == ()
    verify_collapse_sequence(mdh, pairs)

    assert hachimori_decide_sd2(fixtures()["torus_7"].complex).verdict == "no"
    wedge = Complex.from_facets([[0, 1, 2], [2, 3, 4]])
    assert hachimori_decide_sd2(wedge).verdict == "no"
    disjoint = Complex.from_facets([[0, 1, 2], [3, 4, 5]])
    assert hachimori_decide_sd2(disjoint).verdict == "no"


def test_hachimori_certificate_replays():
    bd3 = Complex.from_facets(BD3)
    res = hachimori_decide_sd2(bd3)
    assert res.verdict == "yes"
    removal, pairs = res.witness
    assert len(removal) == 1
    trimmed = bd3
    for tau in removal:
        trimmed = trimmed.remove_facet(tau)
    final = verify_collapse_sequence(trimmed, pairs)
    assert all(len(f) == 1 for f in final.facets) and len(final.facets) == 1


def test_hachimori_matches_direct_sd2_decision():
    for facets in (BD3, [[0, 1, 2]], [[0, 1, 2], [2, 3, 4]]):
        k = Complex.from_facets(facets)
        res = hachimori_decide_sd2(k)
        direct = decide_shellable(barycentric_subdivision(k, 2).complex)
        assert res.yes == direct.yes


def test_hachimori_budget_and_pool():
    # K_phi of the unsatisfiable n=1 formula needs 7 removals checked.
    kphi = build_K_phi(Formula(1, ((1, 1, 1), (-1, -1, -1)))).complex
    res = hachimori_decide_sd2(kphi, budget=1)
    assert (res.verdict, res.nodes) == ("budget_exceeded", 2)

    # bd3 plus a pendant triangle: only removals inside the sphere work.
    k = Complex.from_facets(BD3 + [[1, 2, 4]])
    pool = [frozenset({1, 2, 4}), frozenset({0, 1, 2})]
    res = find_removal(k, [pool], budget=1)
    assert (res.verdict, res.nodes) == ("budget_exceeded", 2)
    res = find_removal(k, [pool], budget=2)
    assert (res.verdict, res.nodes, res.witness[0]) == ("yes", 2, (frozenset({0, 1, 2}),))
    assert find_removal(k, [[frozenset({1, 2, 4})]], budget=1).verdict == "no"


def test_hachimori_rejects_wrong_dimension():
    with pytest.raises(ShellingError):
        hachimori_decide_sd2(Complex.from_facets([[0, 1], [1, 2]]))


def test_witness_json_round_trips():
    bd3 = Complex.from_facets(BD3)
    order = decide_shellable(bd3).witness
    doc = json.loads(cli._dump(cli._witness_doc("shellable", bd3, order)))
    assert tuple(map(frozenset, doc["order"])) == order
    assert cli._replay_witness(bd3, doc) == len(order)

    res = decide_k_decomposable(bd3, 1)
    doc = json.loads(cli._dump(cli._witness_doc("k-decomposable", bd3, res.witness, 1)))
    assert (doc["k"], doc["tree"]) == (1, res.witness[0])
    assert cli._replay_witness(bd3, doc) == verify_decomposition(bd3, 1, res.witness[0]) > 1
