"""Collapse machinery: free faces, replay verification, deciders, gluing."""

import itertools
import json
import random

import pytest

from conftest import (
    oracle_collapses_to,
    oracle_is_collapsible_dfs,
    random_complex,
    random_pure_2complex,
    restore_faces,
)
from shellkit import cli
from shellkit.collapse import (
    CollapseError,
    _FaceIndex,
    _sole_facets,
    CollapsePair,
    collapses_to,
    free_faces,
    is_collapsible_2d_greedy,
    is_collapsible_dfs,
    verify_collapse_sequence,
)
from shellkit.complex_core import Complex, cone, facets_of, is_pseudomanifold
from shellkit.gadgets import dunce_hat, fixtures

STRIP = [[0, 1, 2], [1, 2, 3]]
FAN = [[0, 1, 2], [0, 2, 3], [0, 3, 4]]


def free_faces_brute(k: Complex) -> set:
    out = set()
    for sigma in k.faces:
        if not sigma:
            continue
        cofacets = [t for t in k.facets if sigma < t]
        if len(cofacets) == 1:
            out.add((sigma, cofacets[0]))
    return out


def facets_scan(index: _FaceIndex) -> set:
    """Reference: faces of the index with no coface one dimension up."""
    return {
        f
        for f in index.faces
        if not any(len(g) == len(f) + 1 for g in index.cofaces(f))
    }


def free_gap_one_pairs_scan(index: _FaceIndex, facets) -> set:
    """Reference: ridges of the facets whose strict cofaces in the index
    have one maximal element, one dimension up."""
    candidates = set()
    for facet in facets:
        if len(facet) > 1:
            vs = sorted(facet)
            candidates.update(map(frozenset, itertools.combinations(vs, len(vs) - 1)))
    out = set()
    for ridge in candidates:
        strict = index.cofaces(ridge)
        maximal = [g for g in strict if not any(g < h for h in strict)]
        if len(maximal) == 1 and len(maximal[0]) == len(ridge) + 1:
            out.add((ridge, maximal[0]))
    return out


def collapse_walk(rng: random.Random, k: Complex, undo: float = 0.0):
    """Yield the face index of ``k`` along a random walk of gap-one
    collapses, read off the facet rule and the free-face rule, until no
    move is left.  With probability ``undo`` a step takes back the last
    move instead."""
    index = _FaceIndex(k)
    made = []
    while True:
        yield index
        if made and rng.random() < undo:
            restore_faces(index, made.pop())
            continue
        moves = sorted(
            (
                (sorted(f), sorted(g), f, g)
                for f, g in _sole_facets(facets_of(index.faces)).items()
                if g is not None and len(g) == len(f) + 1
            ),
            key=lambda mv: mv[:2],
        )
        if not moves:
            return
        move = rng.choice(moves)[2:]
        index.remove(move)
        made.append(move)


def test_free_faces_match_brute_oracle():
    rng = random.Random(23)
    samples = [Complex.from_facets(STRIP), Complex.from_facets(FAN)]
    samples += [random_pure_2complex(rng) for _ in range(20)]
    # Mixed dimensions up to 3, where a free face's facet may be more than
    # one dimension up.
    samples += [cone(random_complex(rng)) for _ in range(20)]
    for k in samples:
        assert set(free_faces(k)) == free_faces_brute(k)


def test_free_faces_frozen():
    tri = Complex.from_facets([[0, 1, 2]])
    assert len(free_faces(tri)) == 6
    assert free_faces(fixtures()["torus_7"].complex) == []
    strip_free = {tuple(sorted(f)) for f, _ in free_faces(Complex.from_facets(STRIP))}
    assert strip_free == {(0,), (3,), (0, 1), (0, 2), (1, 3), (2, 3)}


def collapse_step(k: Complex, free, coface) -> Complex:
    return verify_collapse_sequence(k, (CollapsePair(frozenset(free), frozenset(coface)),))


def test_elementary_collapse():
    k = Complex.from_facets(STRIP)
    smaller = collapse_step(k, [0, 1], [0, 1, 2])
    assert frozenset({0, 1}) not in smaller.faces
    assert frozenset({0, 1, 2}) not in smaller.faces
    assert frozenset({0, 2}) in smaller.faces
    assert collapse_step(k, [0], [0, 1, 2]) == k.delete([0])
    with pytest.raises(CollapseError, match="not free"):
        collapse_step(k, [1, 2], [1, 2, 3])
    with pytest.raises(CollapseError, match="already removed"):
        collapse_step(k, [0, 3], [0, 1, 3])
    with pytest.raises(CollapseError, match="recorded coface"):
        collapse_step(k, [0], [0, 1])


def test_facet_and_free_rules_match_coface_scan():
    # The facet rule and the free-face rule agree with coface intersection
    # in the face index, on mixed-dimension complexes up to dimension 3,
    # along random collapse walks that also take moves back.
    rng = random.Random(71)
    states = undos = 0
    for i in range(120):
        k = random_complex(rng)
        k = cone(k) if i % 2 else k
        assert k.facets == facets_of(k.faces)
        size = None
        for index in collapse_walk(rng, k, undo=0.3):
            facets = facets_scan(index)
            assert facets == facets_of(index.faces)
            assert free_gap_one_pairs_scan(index, facets) == {
                (f, g) for f, g in _sole_facets(facets).items()
                if g is not None and len(g) == len(f) + 1
            }
            undos += size is not None and len(index.faces) > size
            size = len(index.faces)
            states += 1
        for f, g in free_faces(k):
            assert collapse_step(k, f, g) == k.delete(f)
    assert states > 500 and undos > 100


def test_verify_collapse_sequence_replays():
    k = Complex.from_facets(STRIP)
    pairs = (
        CollapsePair(frozenset({0, 1}), frozenset({0, 1, 2})),
        CollapsePair(frozenset({0}), frozenset({0, 2})),
        CollapsePair(frozenset({1, 2}), frozenset({1, 2, 3})),
        CollapsePair(frozenset({1}), frozenset({1, 3})),
        CollapsePair(frozenset({2}), frozenset({2, 3})),
    )
    final = verify_collapse_sequence(k, pairs)
    assert final.facets == frozenset({frozenset({3})})


def test_verify_collapse_sequence_rejects_tampering():
    k = Complex.from_facets(STRIP)
    with pytest.raises(CollapseError, match="step 0"):
        verify_collapse_sequence(
            k, (CollapsePair(frozenset({1, 2}), frozenset({0, 1, 2})),)
        )
    good = (CollapsePair(frozenset({0, 1}), frozenset({0, 1, 2})),)
    with pytest.raises(CollapseError):
        verify_collapse_sequence(k, good, target=Complex.from_facets([[3]]))


def test_greedy_frozen_verdicts():
    res = is_collapsible_2d_greedy(fixtures()["modified_dunce_hat"].complex)
    assert res.yes and res.witness and res.nodes == len(res.witness)
    assert not is_collapsible_2d_greedy(fixtures()["dunce_hat"].complex).yes
    assert not is_collapsible_2d_greedy(fixtures()["torus_7"].complex).yes
    assert is_collapsible_2d_greedy(Complex.from_facets([[0, 1, 2]])).yes
    assert not is_collapsible_2d_greedy(Complex.from_facets([[0, 1, 2], [3, 4, 5]])).yes


def test_greedy_witness_replays_to_point():
    k = fixtures()["modified_dunce_hat"].complex
    pairs = is_collapsible_2d_greedy(k).witness
    final = verify_collapse_sequence(k, pairs)
    assert len(final.facets) == 1 and all(len(f) == 1 for f in final.facets)


def test_greedy_keep_vertex():
    k = Complex.from_facets(FAN)
    for v in k.vertices:
        res = collapses_to(k, Complex.from_facets([[v]]))
        assert res.yes
        final = verify_collapse_sequence(k, res.witness)
        assert final.facets == frozenset({frozenset({v})})


def test_dfs_agrees_with_greedy_on_random_family():
    rng = random.Random(29)
    for _ in range(80):
        k = random_pure_2complex(rng, max_facets=7, pool=8)
        res = is_collapsible_dfs(k, budget=10**6)
        assert res.verdict in ("yes", "no")
        assert res.yes == is_collapsible_2d_greedy(k).yes
        if res.yes:
            verify_collapse_sequence(k, res.witness)


def test_dfs_budget_exhaustion_reported():
    # The budget bounds the states of the search above dimension 2, so a
    # 3-dimensional input is needed to overrun it.
    res = is_collapsible_dfs(cone(dunce_hat()), budget=3)
    assert res.verdict == "budget_exceeded"
    assert res.witness is None


def test_dfs_no_free_faces_is_a_fast_no():
    # The dunce hat has no free face at all, so even a tiny budget
    # exhausts the search honestly.
    res = is_collapsible_dfs(fixtures()["dunce_hat"].complex, budget=3)
    assert res.verdict == "no"


def test_dfs_node_counts_are_pinned():
    # 28 states above dimension 2 and 52 erasure steps below it.
    res = is_collapsible_dfs(cone(dunce_hat()))
    assert (res.verdict, res.nodes) == ("yes", 80)
    # A 2-dimensional yes counts its erasure steps, as the greedy decider.
    k = fixtures()["modified_dunce_hat"].complex
    assert is_collapsible_dfs(k).nodes == is_collapsible_2d_greedy(k).nodes == 19
    # Two solid tetrahedra hung on the dunce hat come off in either order
    # to one state, so this count depends on the memo: 233 without one.
    hat = dunce_hat()
    a, b = hat.vertices[:2]
    k = Complex.from_facets([*hat.facets, [a, 100, 101, 102], [b, 103, 104, 105]])
    res = is_collapsible_dfs(k)
    assert (res.verdict, res.nodes) == ("no", 137)


def random_pure_3complex(rng: random.Random) -> Complex:
    """Random pure 3-complex: two to five distinct tetrahedra on 7 vertices."""
    want = rng.randint(2, 5)
    facets = set()
    while len(facets) < want:
        facets.add(frozenset(rng.sample(range(7), 4)))
    return Complex.from_facets(facets)


def replays(k: Complex, res, target: Complex | None) -> bool:
    """Does the witness of a yes collapse ``k`` onto ``target``, or onto
    one vertex when there is no target?"""
    end = verify_collapse_sequence(k, res.witness, target)
    return target is not None or (len(end.facets) == 1 and end.dim == 0)


def test_incremental_search_matches_rebuilding_oracle():
    # The search by dimension gives the verdict of the all-dimension search
    # that rebuilds its state at every node, for the whole-complex decider
    # and for collapses onto a vertex and onto a random subcomplex, in
    # dimensions 2 and 3.  Every yes replays onto its target, also where
    # the oracle overran its budget.
    rng = random.Random(404)
    budget = 600
    seen = set()
    decided = set()
    for i in range(75):
        if i % 3 == 0:
            k = random_pure_2complex(rng, max_facets=9, pool=8)
        elif i % 3 == 1:
            k = cone(random_pure_2complex(rng, max_facets=5, pool=7))
        else:
            k = random_pure_3complex(rng)
        faces = sorted((f for f in k.faces if f), key=sorted)
        vertex = Complex.from_facets([[rng.choice(k.vertices)]])
        sub = Complex.from_facets(rng.sample(faces, rng.randint(1, len(faces) // 3 + 1)))
        runs = [(is_collapsible_dfs(k, budget), oracle_is_collapsible_dfs(k, budget), None)]
        for target in (vertex, sub):
            runs.append(
                (collapses_to(k, target, budget), oracle_collapses_to(k, target, budget), target)
            )
        for got, want, target in runs:
            if want.verdict != "budget_exceeded":
                assert got.verdict == want.verdict
            if k.dim <= 2:
                assert got.verdict != "budget_exceeded"
            if got.yes:
                assert replays(k, got, target)
            seen.add((k.dim, want.verdict))
            decided.add((k.dim, got.verdict))
    assert seen >= {(d, v) for d in (2, 3) for v in ("yes", "no", "budget_exceeded")}
    assert decided >= {(d, v) for d in (2, 3) for v in ("yes", "no")}


def test_collapse_search_backtracks():
    # The lexicographically least tetrahedron move, (0 1 2, 0 1 2 5), then
    # (0 3 4, 0 3 4 5) strands six triangles; the search must come back and
    # take (0 3 5, 0 3 4 5) instead.  A search that tries only the least
    # top move at each state says no here.
    k = Complex.from_facets([[0, 1, 2, 5], [0, 1, 3], [0, 3, 4, 5], [1, 3, 4]])
    target = Complex.from_facets([[0, 4], [1, 2, 5], [1, 4]])
    res = collapses_to(k, target)
    assert (res.verdict, res.nodes) == ("yes", 13)
    assert replays(k, res, target)
    assert oracle_collapses_to(k, target).yes


def test_collapses_to_frozen():
    strip = Complex.from_facets(STRIP)
    edge = Complex.from_facets([[2, 3]])
    res = collapses_to(strip, edge)
    assert res.yes
    assert verify_collapse_sequence(strip, res.witness).faces == edge.faces
    with pytest.raises(CollapseError):
        collapses_to(strip, Complex.from_facets([[4, 5]]))


def test_collapses_to_refuses_impossible_target():
    torus = fixtures()["torus_7"].complex
    vertex = Complex.from_facets([[1]])
    assert collapses_to(torus, vertex, budget=20000).verdict != "yes"


def test_collapse_disk_to_tree():
    fan = Complex.from_facets(FAN)
    tree = Complex.from_facets([[1, 2], [2, 3], [3, 4]])
    res = collapses_to(fan, tree)
    assert res.yes
    assert verify_collapse_sequence(fan, res.witness).faces == tree.faces
    # A disk cannot collapse onto a cycle: a no, not an error.
    cycle = Complex.from_facets([[0, 2], [1, 2], [0, 1]])
    assert collapses_to(fan, cycle).verdict == "no"
    with pytest.raises(CollapseError):
        collapses_to(fan, Complex.from_facets([[7, 8]]))


def lex_erasure_oracle(k: Complex, keep: set) -> tuple[list, set, int]:
    """Brute force: at each step scan every face for the lexicographically
    least free edge, then vertex, outside ``keep``, and collapse it into
    its only coface.  Returns the pairs, the faces left and the number of
    edge steps."""
    faces = {f for f in k.faces if f}
    pairs = []
    for size in (2, 1):
        edge_steps = len(pairs)
        while True:
            free = []
            for f in faces:
                if len(f) == size and f not in keep:
                    cofaces = [g for g in faces if f < g]
                    if len(cofaces) == 1:
                        free.append((sorted(f), f, cofaces[0]))
            if not free:
                break
            _, f, g = min(free, key=lambda c: c[0])
            pairs.append(CollapsePair(f, g))
            faces -= {f, g}
    return pairs, faces, edge_steps


def random_disk(rng: random.Random, steps: int) -> Complex:
    """A disk grown from a triangle: each step glues a triangle along one
    boundary edge with a new vertex, or along two consecutive boundary
    edges whose ends are not yet joined, which makes their middle vertex
    interior."""
    boundary = [0, 1, 2]
    facets = [(0, 1, 2)]
    edges = {frozenset(e) for e in ((0, 1), (1, 2), (0, 2))}
    for fresh in range(3, 3 + steps):
        i = rng.randrange(len(boundary))
        a, b, c = boundary[i - 1], boundary[i], boundary[(i + 1) % len(boundary)]
        if len(boundary) > 3 and frozenset((a, c)) not in edges and rng.random() < 0.4:
            facets.append((a, b, c))
            edges.add(frozenset((a, c)))
            del boundary[i]
        else:
            facets.append((b, c, fresh))
            edges |= {frozenset((b, fresh)), frozenset((c, fresh))}
            boundary.insert(i + 1, fresh)
    return Complex.from_facets(facets)


def random_subtree(rng: random.Random, k: Complex) -> Complex:
    """A random tree in the 1-skeleton of ``k``, grown from one vertex; it
    spans ``k`` when it reaches every vertex."""
    edges = [f for f in k.faces if len(f) == 2]
    size = rng.choice([1, rng.randint(1, len(k.vertices)), len(k.vertices)])
    reached = {rng.choice(k.vertices)}
    tree = [[v] for v in reached]
    while len(reached) < size:
        a, b = rng.choice([sorted(e) for e in edges if len(e & reached) == 1])
        reached |= {a, b}
        tree.append([a, b])
    return Complex.from_facets(tree)


def test_greedy_layer_matches_lex_erasure_oracle():
    rng = random.Random(15)
    yes = 0
    for _ in range(150):
        k = random_pure_2complex(rng, max_facets=7, pool=8)
        for keep_vertex in (None, rng.choice(k.vertices)):
            if keep_vertex is None:
                pairs, left, edge_steps = lex_erasure_oracle(k, set())
                res = is_collapsible_2d_greedy(k)
            else:
                pairs, left, edge_steps = lex_erasure_oracle(k, {frozenset([keep_vertex])})
                res = collapses_to(k, Complex.from_facets([[keep_vertex]]))
            assert res.yes == (len(left) == 1), sorted(map(sorted, k.facets))
            if res.yes:
                yes += 1
                assert (res.witness, res.nodes) == (tuple(pairs), len(pairs))
            else:
                assert res.nodes == len(pairs)
    # A stalled triangle erasure ends the collapse before the pendant path
    # that the oracle goes on to prune.
    hat = dunce_hat()
    a, b = sorted(min(hat.facets, key=sorted))[:2]
    k = Complex.from_facets([*hat.facets, [a, b, 100], [100, 101]])
    pairs, left, edge_steps = lex_erasure_oracle(k, set())
    res = is_collapsible_2d_greedy(k)
    assert (res.verdict, res.nodes, edge_steps, len(pairs)) == ("no", 1, 1, 3)
    disks = 0
    for _ in range(80):
        disk = random_disk(rng, rng.randint(1, 20))
        assert is_pseudomanifold(disk) == "with_boundary"
        assert disk.reduced_euler_characteristic() == 0
        tree = random_subtree(rng, disk)
        pairs, left, _ = lex_erasure_oracle(disk, {f for f in tree.faces if f})
        assert left == {f for f in tree.faces if f}
        res = collapses_to(disk, tree)
        assert (res.verdict, res.witness, res.nodes) == ("yes", tuple(pairs), len(pairs))
        disks += len(disk.facets) > 6
    assert yes > 50 and disks > 40


def test_witness_json_round_trip():
    k = Complex.from_facets(STRIP)
    pairs = is_collapsible_2d_greedy(k).witness
    final = verify_collapse_sequence(k, pairs)
    doc = cli._witness_doc("collapsible", k, pairs)
    back = json.loads(cli._dump(doc))
    assert back == doc
    assert cli._pairs_from_json(back["pairs"]) == pairs
    assert Complex.from_facets(back["target_facets"]) == final
    assert cli._replay_witness(k, back) == len(pairs)
