"""Core complex machinery against independent brute-force oracles."""

import gc
import itertools
import json
import random
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    EMPTY_FACE_COMPLEX,
    deletion_of,
    link_of,
    oracle_subdivide_labeled,
    oracle_to_json,
    oracle_vertex_links_connected,
    pinched_complex,
    random_complex,
    random_pure_2complex,
)
from shellkit import complex_core
from shellkit.complex_core import (
    Complex,
    Feature,
    FormatError,
    LabeledComplex,
    _BATCH,
    _sd_f_vector,
    barycentric_subdivision,
    canonical_form,
    cone,
    face_key,
    face_sort_key,
    facets_of,
    format_facet_lines,
    from_json,
    is_pseudomanifold,
    join,
    parse_facet_lines,
    ridge_holders,
    subdivide_labeled,
    subfaces,
    to_json,
    vertex_links_connected,
)
from shellkit.gadgets import build_O, fixtures
from shellkit.reduction import Formula, build_K_phi, random_formula

BD3 = [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]]
STRIP = [[0, 1, 2], [1, 2, 3]]
WEDGE = [[0, 1, 2], [2, 3, 4]]


# -- independent oracles --


def all_faces_brute(facets) -> set:
    faces = set()
    for f in facets:
        for r in range(1, len(f) + 1):
            faces.update(map(frozenset, itertools.combinations(f, r)))
    return faces


def chi_reduced_brute(facets) -> int:
    return sum((-1) ** (len(f) - 1) for f in all_faces_brute(facets)) - 1


def chains_brute(faces) -> set:
    """Every nonempty chain under strict inclusion, as a set of faces, by DFS."""
    faces = sorted(faces, key=len)
    out = set()
    stack = [(f,) for f in faces]
    while stack:
        chain = stack.pop()
        out.add(frozenset(chain))
        for g in faces:
            if len(g) > len(chain[-1]) and chain[-1] < g:
                stack.append(chain + (g,))
    return out


def random_complex_upto(rng: random.Random, dim: int) -> Complex:
    """Random complex with facets of dimension at most ``dim``, often non-pure
    and sometimes with isolated vertices."""
    pool = rng.randint(1, 7)
    facets = [
        rng.sample(range(pool), rng.randint(1, min(pool, dim + 1)))
        for _ in range(rng.randint(1, 5))
    ]
    facets += [[pool + i] for i in range(rng.randint(0, 2))]
    return Complex.from_facets(facets)


# -- construction and enumeration --


def test_face_enumeration_small():
    k = Complex.from_facets(STRIP)
    assert k.f_vector() == (1, 4, 5, 2)
    assert k.dim == 2
    assert k.facets == frozenset({frozenset({0, 1, 2}), frozenset({1, 2, 3})})
    assert frozenset({1, 2}) in k
    assert frozenset({0, 3}) not in k
    assert k.vertices == (0, 1, 2, 3)


def test_from_facets_drops_nested_faces():
    k = Complex.from_facets([[0, 1, 2], [0, 1], [2]])
    assert k.facets == frozenset({frozenset({0, 1, 2})})


def random_facet_list(rng: random.Random, sizes: tuple[int, ...]) -> list:
    """Facets of the given sizes on a small pool, with duplicates and faces
    of other facets mixed in, shuffled, each a list, tuple or frozenset."""
    pool = rng.randint(max(sizes), 8)
    facets = [rng.sample(range(pool), rng.choice(sizes)) for _ in range(rng.randint(1, 6))]
    for _ in range(rng.randint(0, 3)):
        f = rng.choice(facets)
        facets.append(rng.sample(f, rng.choice([s for s in sizes if s <= len(f)])))
    rng.shuffle(facets)
    return [rng.choice((list, tuple, frozenset))(f) for f in facets]


def test_from_facets_matches_closure_oracle():
    # Nested facets before their cofaces in the mixed-size draws: recording
    # the given facets there would name non-maximal faces as facets.
    rng = random.Random(20)
    draws = 0
    for _ in range(300):
        sizes = rng.choice(((1,), (2,), (3,), (4,), (1, 3), (2, 3), (1, 2, 3, 4)))
        facets = random_facet_list(rng, sizes)
        k = Complex.from_facets(facets)
        assert k.faces == all_faces_brute(facets) | {frozenset()}
        assert k.facets == facets_of(k.faces)
        sd = subdivide_labeled(LabeledComplex(k, {}), rng.randint(1, 2 if k.dim < 2 else 1))[0]
        assert sd.complex.facets == facets_of(sd.complex.faces)
        draws += any(
            len(f) < len(g) and set(f) < set(g)
            for i, f in enumerate(facets)
            for g in facets[i + 1 :]
        )
    assert draws >= 50
    assert Complex.from_facets([]).faces == frozenset()
    assert subdivide_labeled(LabeledComplex(Complex.empty(), {}), 1)[0].complex.faces == {
        frozenset()
    }


def _assert_closed_twin(k: Complex, twin: Complex, rng: random.Random) -> None:
    """``k`` answers as ``twin``, its closure in the closed form, on every
    query and in both writers; a facets-only ``k`` builds no closure
    before equality asks for one."""
    facets_only = k._faces is None
    assert k.f_vector() == twin.f_vector()
    assert k.reduced_euler_characteristic() == twin.reduced_euler_characteristic()
    assert (k.dim, k.vertices, k.facets, len(k), bool(k)) == (
        twin.dim, twin.vertices, twin.facets, len(twin), bool(twin)
    )
    vs = list(twin.vertices)
    probes = list(twin.faces) + [frozenset([-1]), frozenset(vs[:1] + [-1])]
    probes += [frozenset(rng.sample(vs, rng.randint(1, min(4, len(vs))))) for _ in range(20)]
    assert all((f in k) == (f in twin) for f in probes)
    assert to_json(k) == to_json(twin)
    assert format_facet_lines(k) == format_facet_lines(twin)
    assert (k._faces is None) == facets_only
    assert k == twin and twin == k and hash(k) == hash(twin)
    assert k.faces == twin.faces


def test_from_facets_agrees_with_its_closed_twin():
    # Pure and mixed-size facet lists with repeated and nested facets, and
    # JSON documents that declare vertices in no facet: one facet size is
    # read in the facets-only form, any other list closed, and either form
    # answers as the closed form of the oracle's closure.
    rng = random.Random(50)
    forms = Counter()
    for _ in range(300):
        sizes = rng.choice(((1,), (2,), (3,), (4,), (1, 3), (2, 3), (1, 2, 3, 4)))
        facets = random_facet_list(rng, sizes)
        k = Complex.from_facets(facets)
        twin = Complex.from_faces(all_faces_brute(facets))
        forms["facets-only" if k._faces is None else "closed"] += 1
        _assert_closed_twin(k, twin, rng)
    for _ in range(150):
        facets = random_facet_list(rng, rng.choice(((2,), (3,), (2, 3))))
        used = sorted(set().union(*map(set, facets)))
        isolated = list(range(max(used) + 1, max(used) + 1 + rng.randint(0, 2)))
        declared = used + isolated
        rng.shuffle(declared)
        doc = {"facets": [list(f) for f in facets], "labels": {}, "vertices": [{"id": v} for v in declared]}
        k = from_json(json.dumps(doc)).complex
        twin = Complex.from_faces(all_faces_brute(facets + [[v] for v in isolated]))
        forms["json " + ("facets-only" if k._faces is None else "closed")] += 1
        _assert_closed_twin(k, twin, rng)
    assert min(forms.values()) >= 30 and len(forms) == 4, forms


def test_label_faces_are_the_complexs_own_faces():
    # A subdivided label and a label read from JSON hold the facets of
    # their complex, not equal copies of them.
    kphi = build_K_phi(Formula(1, ((1, 1, 1),)))
    for levels in (1, 2):
        lc = subdivide_labeled(kphi, levels)[0]
        for sub in (lc, from_json(to_json(lc))):
            own = {id(f) for f in sub.complex.facets}
            faces = [f for feat in sub.labels.values() if feat.kind == "subcomplex" for f in feat.value]
            assert len(faces) > 1000
            assert all(id(f) in own for f in faces)


@pytest.mark.parametrize(
    "facets, message",
    [
        ([[0, 1], []], "empty facet"),
        ([[0, 1, 0]], "facet [0, 1, 0] repeats a vertex"),
        ([(2, 1, 2)], "facet [2, 1, 2] repeats a vertex"),
        ([[0, True]], "vertex id must be an int, got True"),
        ([[0, "1"]], "vertex id must be an int, got '1'"),
        ([[0, 1.0]], "vertex id must be an int, got 1.0"),
        ([range(17)], "facet with 17 vertices exceeds limit"),
        # The checks run in this order: vertex type, empty, repeat, size.
        ([[0, 0, "a"]], "vertex id must be an int, got 'a'"),
        ([[*range(17), 0]], f"facet {[*range(17), 0]} repeats a vertex"),
    ],
)
def test_from_facets_input_errors(facets, message):
    with pytest.raises(FormatError) as exc:
        Complex.from_facets(facets)
    assert type(exc.value) is FormatError and str(exc.value) == message


def test_f_vector_frozen():
    assert Complex.from_facets(BD3).f_vector() == (1, 4, 6, 4)
    assert fixtures()["torus_7"].complex.f_vector() == (1, 7, 21, 14)
    assert fixtures()["boundary_delta_4"].complex.f_vector() == (1, 5, 10, 10, 5)


def test_chi_frozen_values():
    assert Complex.from_facets(BD3).reduced_euler_characteristic() == 1
    assert fixtures()["torus_7"].complex.reduced_euler_characteristic() == -1
    assert fixtures()["dunce_hat"].complex.reduced_euler_characteristic() == 0
    assert fixtures()["modified_dunce_hat"].complex.reduced_euler_characteristic() == 0


def test_chi_matches_alternating_sum_oracle():
    rng = random.Random(7)
    samples = [BD3, STRIP, WEDGE] + [
        [sorted(f) for f in random_complex(rng).facets] for _ in range(20)
    ]
    for facets in samples:
        k = Complex.from_facets(facets)
        assert k.reduced_euler_characteristic() == chi_reduced_brute(facets)


def test_is_pure():
    assert Complex.from_facets(BD3).is_pure()
    assert Complex.from_facets(BD3).is_pure(2)
    assert not Complex.from_facets(BD3).is_pure(1)
    assert not Complex.from_facets([[0, 1, 2], [3, 4]]).is_pure()


def test_link_matches_definition_oracle():
    # On random complexes of mixed dimension, the facets of the link of
    # each face σ are {F - σ : F ⊋ σ} over the facets F: the rule the
    # shedding-tree replay and the cone rule read links by.
    rng = random.Random(11)
    for _ in range(20):
        k = random_complex(rng)
        for sigma in k.nonempty_faces:
            rule = {f - sigma for f in k.facets if sigma < f}
            assert link_of(k, sigma).facets == rule, (k.facets, sigma)


def test_link_frozen():
    k = Complex.from_facets(BD3)
    assert link_of(k, [0]).facets == frozenset(
        {frozenset({1, 2}), frozenset({1, 3}), frozenset({2, 3})}
    )
    assert link_of(k, [0, 1]).facets == frozenset({frozenset({2}), frozenset({3})})


def test_delete_and_remove_facet():
    k = Complex.from_facets(STRIP)
    assert deletion_of(k, [1, 2]).facets == frozenset(
        {frozenset({0, 1}), frozenset({0, 2}), frozenset({1, 3}), frozenset({2, 3})}
    )
    trimmed = k.remove_facet([0, 1, 2])
    assert frozenset({0, 1, 2}) not in trimmed.faces
    assert frozenset({0, 1}) in trimmed.faces
    with pytest.raises(ValueError):
        k.remove_facet([1, 2])


def remove_facets_one_by_one(k: Complex, facets) -> Complex:
    """Reference: the per-facet loop, a new complex and its facets for every
    facet removed."""
    for raw in facets:
        f = frozenset(raw)
        if f not in k.facets:
            raise ValueError(f"{face_key(f)} is not a facet")
        k = Complex(k.faces - {f}, _trusted=True)
    return k


def _outcome(fn):
    try:
        return fn().faces
    except ValueError as exc:
        return ("ValueError", str(exc))


def test_remove_facets_matches_one_by_one():
    rng = random.Random(41)
    raised = valid = 0
    for _ in range(400):
        k = random_complex(rng, max_facets=6, pool=7)
        faces = sorted(k.nonempty_faces, key=sorted)
        cur, picks = k, []
        for _ in range(rng.randint(0, 6)):
            roll = rng.random()
            if roll < 0.6 and cur.facets:
                # A facet by its turn, possibly one that earlier removals exposed.
                pick = rng.choice(sorted(cur.facets, key=sorted))
            elif roll < 0.75:
                pick = rng.choice(faces)
            elif roll < 0.85 and picks:
                pick = rng.choice(picks)
            elif roll < 0.95:
                pick = frozenset(rng.sample(range(9), rng.randint(1, 3)))
            else:
                pick = frozenset()
            picks.append(pick)
            if pick in cur.facets:
                cur = cur.remove_facet(pick)
        order = [sorted(f) for f in picks]
        expected = _outcome(lambda: remove_facets_one_by_one(k, order))
        assert _outcome(lambda: k.remove_facets(order)) == expected
        raised += isinstance(expected, tuple)
        valid += not isinstance(expected, tuple) and any(f not in k.facets for f in picks)
    # Both kinds of outcome occur, and so do removals of exposed faces.
    assert raised > 50 and valid > 20


# -- join, cone --


def test_join_chi_product_rule():
    rng = random.Random(13)
    pairs = []
    for _ in range(15):
        a = random_complex(rng, max_facets=4, pool=5)
        b_raw = random_complex(rng, max_facets=4, pool=5)
        pairs.append((a, Complex.from_facets([[v + 10 for v in f] for f in b_raw.facets])))
    # The void and the empty-face complex (reduced Euler characteristics
    # 0 and -1), on either side and against each other.
    edge = Complex.from_facets([[20, 21]])
    for special in (Complex.empty(), EMPTY_FACE_COMPLEX):
        pairs += [(special, edge), (edge, special), (special, EMPTY_FACE_COMPLEX)]
    for a, b in pairs:
        j = join(a, b)
        assert (
            j.reduced_euler_characteristic()
            == -a.reduced_euler_characteristic() * b.reduced_euler_characteristic()
        )


def test_empty_face_complex_is_the_join_identity():
    edge = Complex.from_facets([[0, 1]])
    assert join(EMPTY_FACE_COMPLEX, EMPTY_FACE_COMPLEX) == EMPTY_FACE_COMPLEX != Complex.empty()
    assert join(EMPTY_FACE_COMPLEX, edge) == edge == join(edge, EMPTY_FACE_COMPLEX)
    assert join(Complex.empty(), EMPTY_FACE_COMPLEX) == Complex.empty()
    assert join(EMPTY_FACE_COMPLEX, Complex.empty()) == Complex.empty()


def test_cone_frozen():
    bd3 = Complex.from_facets(BD3)
    assert cone(bd3, 0).f_vector() == (1, 5, 10, 10, 4)
    assert cone(bd3, 1).f_vector() == (1, 6, 15, 20, 14, 4)
    assert cone(bd3, 0).reduced_euler_characteristic() == 0


def test_join_disjointness_check():
    a = Complex.from_facets([[0, 1]])
    with pytest.raises(ValueError):
        join(a, a)


# -- structural predicates --


def test_is_pseudomanifold_frozen():
    assert is_pseudomanifold(Complex.from_facets(BD3)) == "closed"
    assert is_pseudomanifold(fixtures()["torus_7"].complex) == "closed"
    assert is_pseudomanifold(Complex.from_facets(STRIP)) == "with_boundary"
    assert is_pseudomanifold(Complex.from_facets(WEDGE)) == "with_boundary"
    assert is_pseudomanifold(fixtures()["modified_dunce_hat"].complex) == "no"


def test_pseudomanifold_matches_ridge_count_oracle():
    rng = random.Random(17)
    for _ in range(20):
        k = random_pure_2complex(rng)
        counts = {}
        for f in k.facets:
            for e in itertools.combinations(sorted(f), 2):
                counts[e] = counts.get(e, 0) + 1
        expected = (
            "no"
            if max(counts.values()) > 2
            else ("closed" if min(counts.values()) == 2 else "with_boundary")
        )
        assert is_pseudomanifold(k) == expected


def random_facet_lists(count: int, seed: int) -> list[list[frozenset]]:
    """Lists of 1 to 8 facets of 1 to 4 vertices each, mixed sizes and
    repeats allowed, on 7 vertices."""
    rng = random.Random(seed)
    return [
        [frozenset(rng.sample(range(7), rng.randint(1, 4))) for _ in range(rng.randint(1, 8))]
        for _ in range(count)
    ]


def test_subfaces_matches_subset_filter():
    rng = random.Random(24)
    for facets in random_facet_lists(300, 24):
        for f in facets:
            sizes = rng.sample(range(len(f) + 2), rng.randint(1, len(f) + 2))
            got = subfaces(f, sizes)
            vs = sorted(f)
            masks = range(1 << len(vs))
            subsets = [frozenset(v for i, v in enumerate(vs) if m >> i & 1) for m in masks]
            assert Counter(got) == Counter(g for g in subsets if len(g) in sizes), (f, sizes)
            # Size by size, in the order asked for.
            assert [len(g) for g in got] == sorted(map(len, got), key=sizes.index), (f, sizes)


def test_ridge_holders_matches_scan():
    seen = Counter()
    for facets in random_facet_lists(300, 25):
        ridges = {g for f in facets for g in subfaces(f, [len(f) - 1])}
        expected = {r: [f for f in facets if len(f) == len(r) + 1 and r < f] for r in ridges}
        assert ridge_holders(facets) == expected, facets
        seen.update(min(len(fs), 3) for fs in expected.values())
    # Ridges held once, twice, and three or more times.
    assert min(seen[n] for n in (1, 2, 3)) > 40, seen


def test_vertex_links_connected():
    ok, bad = vertex_links_connected(Complex.from_facets(BD3))
    assert ok and bad == ()
    ok, bad = vertex_links_connected(Complex.from_facets(WEDGE))
    assert not ok and bad == (2,)


def test_vertex_links_match_union_find_oracle():
    o_gadget = build_O()
    cases = [
        Complex.empty(),
        Complex.from_facets(WEDGE),
        Complex.from_facets(WEDGE + [[4, 5], [6]]),
        Complex.from_facets([[0, 1, 2, 3], [3, 4, 5, 6], [6, 7]]),
        o_gadget.complex,
        fixtures()["torus_7"].complex,
    ]
    rng = random.Random(21)
    cases += [random_complex_upto(rng, rng.randint(1, 3)) for _ in range(300)]
    pinched = 0
    for k in cases:
        ok, bad = vertex_links_connected(k)
        assert (ok, bad) == oracle_vertex_links_connected(k)
        pinched += not ok
        # Checking some vertices finds exactly the failing ones among them.
        some = [v for v in k.vertices if rng.random() < 0.5]
        within = tuple(v for v in bad if v in some)
        assert vertex_links_connected(k, some) == (not within, within)
    assert pinched >= 50
    v = o_gadget.feature("v(u)").value[0]
    assert vertex_links_connected(o_gadget.complex) == (False, (v,))


# Each vertex's link, all at once and for a subset: the vertex where the
# pieces meet is the only one whose link falls apart.
LINK_EDGE_CASES = {
    "bowtie": ([[0, 1, 2], [0, 3, 4]], (0,)),
    "triangle and dangling edge": ([[0, 1, 2], [0, 3]], (0,)),
    "two tetrahedra at a vertex": ([[0, 1, 2, 3], [0, 4, 5, 6]], (0,)),
    # A merge that kept the vertex itself would join the fans through it.
    "two fans at a vertex": ([[0, 1, 2], [0, 2, 3], [0, 4, 5], [0, 5, 6]], (0,)),
}


@pytest.mark.parametrize("case", LINK_EDGE_CASES)
def test_vertex_links_edge_cases(case):
    facets, pinched = LINK_EDGE_CASES[case]
    k = Complex.from_facets(facets)
    assert vertex_links_connected(k) == oracle_vertex_links_connected(k) == (False, pinched)
    assert vertex_links_connected(k, [0]) == (False, (0,))
    others = [v for v in k.vertices if v != 0]
    assert vertex_links_connected(k, others) == (True, ())
    assert vertex_links_connected(k, [0, *others]) == (False, (0,))


# -- canonical form --


def test_canonical_form_distinguishes():
    tri = Complex.from_facets([[0, 1, 2]])
    path = Complex.from_facets([[0, 1], [1, 2]])
    assert canonical_form(tri) != canonical_form(path)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**30), st.integers(0, 2**30))
def test_canonical_form_stable_and_faithful(seed, shuffle_seed):
    # Degree-refined renaming, not full canonization: the guarantees are
    # determinism, insensitivity to input order, and idempotence of the
    # renaming (equal keys always mean isomorphic complexes).
    rng = random.Random(seed)
    k = random_complex(rng)
    form = canonical_form(k)
    assert form == canonical_form(k)

    facets = [sorted(f) for f in k.facets]
    random.Random(shuffle_seed).shuffle(facets)
    assert canonical_form(Complex.from_facets(facets)) == form

    renamed = Complex.from_facets(form[1])
    assert canonical_form(renamed) == form


# -- barycentric subdivision --


def test_faces_are_counted_once():
    # f_vector keeps its count, and reduced_euler_characteristic reads it.
    k = Complex.from_facets(BD3)
    assert k._f_vector is None
    f = k.f_vector()
    assert f == (1, 4, 6, 4) and k.f_vector() is f
    k._f_vector = (1, 4, 6, 5)
    assert k.reduced_euler_characteristic() == 2


def test_subdivision_frozen():
    sd = barycentric_subdivision(Complex.from_facets(BD3)).complex
    assert sd.f_vector() == (1, 14, 36, 24)
    assert sd.reduced_euler_characteristic() == 1


def test_subdivision_faces_are_chains_oracle():
    rng = random.Random(23)
    cases = [Complex.empty()] + [Complex.from_facets(f) for f in (BD3, STRIP, [[0, 1, 2, 3]])]
    cases += [random_complex_upto(rng, dim) for dim in (0, 1, 2, 3) for _ in range(8)]
    for k in cases:
        sub = barycentric_subdivision(k)
        chains = {
            frozenset(sub.vertex_carrier[v] for v in f) for f in sub.complex.nonempty_faces
        }
        assert chains == chains_brute(k.nonempty_faces)
        # The carriers name the new faces one to one; the empty face is kept.
        assert len(chains) == len(sub.complex) - 1


def test_subdivided_subcomplex_label_is_maximal_chains():
    rng = random.Random(29)
    for _ in range(12):
        k = random_complex_upto(rng, 3)
        faces = sorted(k.nonempty_faces, key=sorted)
        part = rng.sample(faces, rng.randint(1, min(4, len(faces))))
        lc = LabeledComplex(k, {"part": Feature.subcomplex(part)})
        sub, overall = subdivide_labeled(lc, 1)
        chains = chains_brute(all_faces_brute(part))
        maximal = {c for c in chains if not any(c < d for d in chains)}
        image = {
            frozenset(overall.vertex_carrier[v] for v in f)
            for f in sub.feature("part").value
        }
        assert image == maximal


def test_subdivided_json_labels_map_like_their_closure():
    # Labels read from JSON may mix face sizes, list a face of another
    # face or repeat one.  Each maps to the faces whose carrier lies in the
    # closure of the label, as the closure of its faces does.
    text = json.dumps({
        "vertices": list(range(5)),
        "facets": [[0, 1, 2], [0, 2, 3], [3, 4]],
        "labels": {
            "mixed": {"kind": "subcomplex", "value": [[0, 1, 2], [3, 4]]},
            "redundant": {"kind": "subcomplex", "value": [[0, 1, 2], [0, 1], [2]]},
            "repeat": {"kind": "subcomplex", "value": [[0, 2, 3], [3, 2, 0]]},
            "plain": {"kind": "subcomplex", "value": [[0, 1, 2], [0, 2, 3]]},
        },
    })
    lc = from_json(text)
    for levels in (1, 2):
        sub, overall = subdivide_labeled(lc, levels)
        for name, feat in lc.labels.items():
            closure = Complex.from_facets(feat.value).faces
            preimage = Complex.from_faces(
                g for g in sub.complex.faces if overall.face_carrier(g) in closure
            )
            assert sub.feature(name) == Feature.subcomplex(preimage.facets), (name, levels)


def test_subcomplex_labels_hold_face_sets():
    # A subcomplex label is a set of faces: their order and repeats do not
    # count, and only to_json orders them, each once, by face_key.
    assert Feature.subcomplex([(0, 1), (1, 0)]) == Feature.subcomplex([[1, 0]])
    assert Feature("subcomplex", [[2, 0]]) == Feature.subcomplex([(0, 2), [2, 0]])
    text = json.dumps({
        "vertices": list(range(5)),
        "facets": [[0, 1, 2], [2, 3], [3, 4]],
        "labels": {
            "part": {"kind": "subcomplex", "value": [[4], [4, 3], [2, 1, 0], [4], [0, 2, 1]]},
        },
    })
    lc = from_json(text)
    assert json.loads(to_json(lc))["labels"]["part"]["value"] == [[0, 1, 2], [3, 4], [4]]
    assert to_json(from_json(to_json(lc))) == to_json(lc)
    k_phi = build_K_phi(Formula(1, ((1, 1, 1),)))
    sd, _ = subdivide_labeled(k_phi, 1)
    for labeled in (k_phi, sd, lc, from_json(to_json(sd))):
        values = [feat.value for feat in labeled.labels.values() if feat.kind == "subcomplex"]
        assert values
        for value in values:
            assert type(value) is frozenset and all(type(f) is frozenset for f in value)


def random_labels(rng: random.Random, k: Complex) -> dict[str, Feature]:
    """A vertex, an edge, a path (closed when the walk allows) and two
    subcomplexes of ``k``: distinct faces of mixed sizes, and faces with a
    repeat and a redundant subface."""
    if not k.vertices:
        return {}
    faces = sorted(k.nonempty_faces, key=face_key)
    labels = {"spot": Feature.vertex(rng.choice(k.vertices))}
    labels["part"] = Feature.subcomplex(rng.sample(faces, rng.randint(1, min(4, len(faces)))))
    f = rng.choice(faces)
    labels["messy"] = Feature.subcomplex([f, f, *subfaces(f, [rng.randint(1, len(f))])[:1]])
    edges = [face_key(e) for e in faces if len(e) == 2]
    if edges:
        a, b = rng.choice(edges)
        labels["edge"] = Feature.edge(b, a)
        walk = [a, b]
        for _ in range(rng.randint(0, 4)):
            ends = [c for c in k.vertices if frozenset((walk[-1], c)) in k.faces]
            ends = [c for c in ends if c not in walk or (c == walk[0] and len(walk) > 2)]
            if not ends:
                break
            walk.append(rng.choice(ends))
            if walk[-1] == walk[0]:
                break
        labels["walk"] = Feature.path(walk)
    return labels


def test_subdivision_matches_flag_closure_oracle():
    # Every face of sd(K) is made once, as a chain topped by a face of K;
    # the oracle closes the flags of the facets instead.  Labels go
    # through JSON, as the CLI reads them.
    rng = random.Random(33)
    cases = [LabeledComplex(Complex.empty(), {}), LabeledComplex(EMPTY_FACE_COMPLEX, {})]
    for dim in (0, 1, 2, 3):
        for pure in (True, False):
            for _ in range(4):
                pool = rng.randint(dim + 1, dim + 5)
                sizes = [dim + 1] + [
                    dim + 1 if pure else rng.randint(1, dim + 1) for _ in range(rng.randint(0, 5))
                ]
                facets = [rng.sample(range(pool), size) for size in sizes]
                if dim and not pure:
                    # A smaller facet through a new vertex can lie in no other.
                    facets.append([pool, *rng.sample(range(pool), rng.randint(0, dim - 1))])
                k = Complex.from_facets(facets)
                cases.append(from_json(to_json(LabeledComplex(k, random_labels(rng, k)))))
    assert sum(not lc.complex.is_pure() for lc in cases) == 12
    assert sum(lc.complex.dim == 3 for lc in cases) >= 8
    kinds = Counter(feat.kind for lc in cases for feat in lc.labels.values())
    assert min(kinds[kind] for kind in ("vertex", "edge", "path", "subcomplex")) >= 10
    for lc in cases:
        for levels in (0, 1, 2):
            sub, overall = subdivide_labeled(lc, levels)
            want, want_carrier = oracle_subdivide_labeled(lc, levels)
            assert sub.complex.faces == want.complex.faces
            if levels and lc.complex.vertices:
                # Recorded, so no pass over the faces looks for them.
                assert sub.complex._facets is not None
            assert sub.complex.facets == facets_of(sub.complex.faces)
            assert overall.vertex_carrier == want_carrier
            assert overall.levels == levels
            assert dict(sub.labels) == dict(want.labels)
            assert to_json(sub) == to_json(want)


def test_last_level_is_facets_only_and_matches_the_oracle():
    # The last level keeps only its facets and a counted f-vector.  Every
    # query but the face set answers from them, and the face set derived
    # later is the oracle's closure of the flags.
    rng = random.Random(41)
    cases = []
    for dim in (1, 2, 3):
        for _ in range(5):
            cases.append(random_complex_upto(rng, dim))
            cases.append(pinched_complex(rng, dim, rng.randint(3, 6)))
    assert sum(not k.is_pure() for k in cases) >= 4
    checked = 0
    for k in cases:
        lc = from_json(to_json(LabeledComplex(k, random_labels(rng, k))))
        for levels in (1, 2) if k.dim < 3 else (1,):
            sub, overall = subdivide_labeled(lc, levels)
            want, want_carrier = oracle_subdivide_labeled(lc, levels)
            sd, closed = sub.complex, want.complex
            assert sd._faces is None
            assert sd.facets == closed.facets
            assert dict(sub.labels) == dict(want.labels)
            assert overall.vertex_carrier == want_carrier
            counts = Counter(map(len, closed.faces))
            assert sd.f_vector() == tuple(counts[size] for size in range(max(counts) + 1))
            assert sd.reduced_euler_characteristic() == k.reduced_euler_characteristic()
            assert (sd.dim, sd.vertices, len(sd), bool(sd)) == (
                closed.dim, closed.vertices, len(closed), bool(closed)
            )
            assert sd.is_pure() == closed.is_pure() and sd.is_pure(0) == closed.is_pure(0)
            # Membership: every face below the facets, and near misses.
            probes = list(closed.faces) + [
                frozenset(rng.sample(closed.vertices, rng.randint(1, min(4, len(closed.vertices)))))
                for _ in range(40)
            ] + [frozenset([-1]), frozenset([closed.vertices[0], -1])]
            assert all((f in sd) == (f in closed.faces) for f in probes)
            checked += sum(f not in closed.faces for f in probes)
            assert to_json(sub) == to_json(want)
            assert format_facet_lines(sd) == format_facet_lines(closed)
            assert sd._faces is None
            # Equality and hash agree with the closed twin.
            assert sd == closed and closed == sd and sd != Complex.empty()
            assert sd != EMPTY_FACE_COMPLEX and EMPTY_FACE_COMPLEX != sd
            assert sd != closed.remove_facets([min(closed.facets, key=face_sort_key)])
            assert hash(sd) == hash(closed)
            assert sd.faces == closed.faces
    assert checked >= 500
    # The void and the empty-face complex subdivide to the empty-face
    # complex, whose closure is {∅}, and still compare as they do.
    for k in (Complex.empty(), EMPTY_FACE_COMPLEX):
        for levels in (1, 2):
            sub, overall = subdivide_labeled(LabeledComplex(k, {}), levels)
            assert sub.complex.faces == {frozenset()}
            assert sub.complex == EMPTY_FACE_COMPLEX != Complex.empty()
            assert (sub.complex.f_vector(), len(sub.complex), bool(sub.complex)) == ((1,), 1, True)
            assert overall.vertex_carrier == {}
    assert (Complex.empty().f_vector(), bool(Complex.empty())) == ((0,), False)
    assert hash(EMPTY_FACE_COMPLEX) != hash(Complex.empty())


def test_pseudomanifold_check_of_sd2_builds_no_closure():
    # Emptiness is asked of the complex, not of its face set.
    book = [[0, 1, 2], [0, 1, 3], [0, 1, 4]]
    for facets, kind in ((BD3, "closed"), (STRIP, "with_boundary"), (book, "no")):
        sd2 = subdivide_labeled(LabeledComplex(Complex.from_facets(facets), {}), 2)[0].complex
        assert is_pseudomanifold(sd2) == kind
        assert canonical_form(sd2)[0] == "cx"
        assert sd2._faces is None


def test_membership_of_both_forms_agrees_with_the_closure():
    # The empty face, faces on vertices the complex lacks, facets and
    # their ridges, on the closed and the facets-only form alike.
    rng = random.Random(45)
    void_sd = subdivide_labeled(LabeledComplex(Complex.empty(), {}), 1)[0].complex
    cases = [Complex.empty(), EMPTY_FACE_COMPLEX, void_sd]
    for _ in range(6):
        k = random_complex(rng)
        cases += [k, subdivide_labeled(LabeledComplex(k, {}), 1)[0].complex]
    facets_only = [k for k in cases if k._faces is None]
    assert len(facets_only) == 7
    for k in cases:
        closure = {g for f in k.facets for g in subfaces(f, range(len(f) + 1))}
        closure |= {frozenset()} if k else set()
        vs = list(k.vertices)
        probes = [frozenset(), frozenset([-1]), frozenset(vs[:1] + [-1])]
        probes += [frozenset(rng.sample(vs, min(len(vs), rng.randint(1, 3)))) for _ in range(30)]
        probes += list(k.facets) + [f - {v} for f in k.facets for v in f]
        assert all((f in k) == (f in closure) for f in probes)
        assert k._off(probes) == {f for f in probes if f not in closure}
    assert all(k._faces is None for k in facets_only)


def test_sd_f_vector_counts_ordered_partitions():
    # The chains of j faces topped by an s-vertex face g are the ordered
    # partitions of g into j blocks, j! S(s, j) of them: the surjections of
    # g onto j ordered blocks.
    for s in range(1, 6):
        simplex = Complex.from_facets([range(s)])
        sub, carrier = oracle_subdivide_labeled(LabeledComplex(simplex, {}), 1)
        top = Counter(
            len(c)
            for c in sub.complex.faces
            if frozenset().union(*(carrier[v] for v in c)) == set(range(s))
        )
        for j in range(1, s + 1):
            onto = sum(len(set(blocks)) == j for blocks in itertools.product(range(j), repeat=s))
            assert top[j] == onto
        assert _sd_f_vector(simplex.f_vector()) == sub.complex.f_vector()


def test_sd2_of_k_phi_is_written_without_its_closure():
    # sd²'s last level is its facets and a counted f-vector: writing it,
    # counting it and reading χ̃ build no face below the facets, and no
    # carrier is composed until one is read.
    lc, sub = subdivide_labeled(build_K_phi(Formula(1, ((1, 1, 1),))), 2)
    text = _written_and_read_back(lc)
    assert lc.complex.f_vector() == (1, 2978, 9132, 6156)
    assert lc.complex.reduced_euler_characteristic() == 1
    assert format_facet_lines(lc.complex).count("\n") == 6156
    assert lc.complex._faces is None
    assert "vertex_carrier" not in vars(sub)
    assert from_json(text).complex.f_vector() == lc.complex.f_vector()
    # The level below is kept for the carriers but is not compared, and
    # the old positional form (complex, vertex_carrier, levels) is refused.
    again = subdivide_labeled(build_K_phi(Formula(1, ((1, 1, 1),))), 2)[1]
    assert sub == again and sub._below is not again._below
    with pytest.raises(TypeError):
        type(sub)(sub.complex, sub.vertex_carrier, 2)


def test_subdivision_preserves_chi():
    rng = random.Random(19)
    for _ in range(8):
        k = random_complex(rng)
        chi = k.reduced_euler_characteristic()
        sub = barycentric_subdivision(k, 2)
        assert sub.complex.reduced_euler_characteristic() == chi


def test_subdivision_carriers():
    k = Complex.from_facets(STRIP)
    sub = barycentric_subdivision(k)
    for v in sub.complex.vertices:
        carrier = sub.face_carrier([v])
        assert carrier in k.faces and carrier


def test_subdivide_labeled_transports_features():
    lc = LabeledComplex(
        Complex.from_facets(STRIP),
        {"rim": Feature.path([0, 1, 3]), "spot": Feature.vertex(2)},
    )
    sub, _ = subdivide_labeled(lc, 1)
    rim = sub.feature("rim")
    assert rim.kind == "path"
    assert rim.value[0] != rim.value[-1]
    assert len(rim.value) == 5
    assert sub.feature("spot").kind == "vertex"


# -- features and labels --


def test_feature_face_sets():
    assert Feature.vertex(3).face_set() == {frozenset({3})}
    assert Feature.edge(1, 2).face_set() == {
        frozenset({1}),
        frozenset({2}),
        frozenset({1, 2}),
    }
    path = Feature.path([0, 1, 2])
    assert frozenset({0, 1}) in path.face_set()
    assert frozenset({0, 2}) not in path.face_set()


def test_labeled_complex_validates_features():
    k = Complex.from_facets(STRIP)
    with pytest.raises(ValueError):
        LabeledComplex(k, {"bad": Feature.edge(0, 3)})
    with pytest.raises(ValueError, match="revisits"):
        LabeledComplex(k, {"p": Feature.path([0, 1, 2, 1])})
    for feat in (Feature.edge(0, 0), Feature.path([0, 1, 1, 2]), Feature.subcomplex([[]])):
        with pytest.raises(ValueError, match="label 'bad'"):
            LabeledComplex(k, {"bad": feat})


def _validate_feature_closure_oracle(name: str, feat: Feature, k: Complex) -> None:
    """The feature check that expands the feature's full closure."""
    for face in feat.face_set():
        if face not in k.faces:
            raise ValueError(f"label {name!r}: face {face_key(face)} is not in the complex")
    if feat.kind == "path":
        vs = feat.value
        if len(vs) < 2:
            raise ValueError(f"label {name!r}: path needs at least two vertices")
        interior = vs[:-1] if vs[0] == vs[-1] else vs
        if len(set(interior)) != len(interior):
            raise ValueError(f"label {name!r}: path revisits a vertex")


def _degenerate(feat: Feature) -> bool:
    if feat.kind == "subcomplex":
        return any(not f for f in feat.value)
    return feat.kind != "vertex" and any(a == b for a, b in zip(feat.value, feat.value[1:]))


def random_feature(rng: random.Random, k: Complex) -> Feature:
    """A feature of a random kind, drawn from the faces of ``k`` half the
    time and from a vertex pool wider than the complex otherwise."""
    faces = sorted(k.nonempty_faces, key=face_sort_key)
    inside = rng.random() < 0.5
    verts = list(k.vertices) if inside else list(range(9))
    kind = rng.choice(("vertex", "edge", "path", "subcomplex"))
    if kind == "vertex":
        return Feature.vertex(rng.choice(verts))
    if kind == "subcomplex":
        if inside:
            picked = rng.sample(faces, min(len(faces), rng.randint(0, 3)))
        else:
            picked = [rng.sample(verts, rng.randint(1, 3)) for _ in range(rng.randint(0, 3))]
        if rng.random() < 0.1:
            picked.append([])
        return Feature.subcomplex(picked)
    edges = [face_key(f) for f in faces if len(f) == 2]
    if inside and edges:
        walk = list(rng.choice(edges))
        for _ in range(rng.randint(0, 3)):
            walk.append(rng.choice([b for e in edges for a, b in (e, e[::-1]) if a == walk[-1]]))
    else:
        walk = [rng.choice(verts) for _ in range(rng.randint(1, 4))]
    if rng.random() < 0.1:
        i = rng.randrange(len(walk))
        walk.insert(i, walk[i])
    if kind == "edge":
        return Feature.edge(walk[0], walk[-1])
    return Feature.path(walk)


def _label_check(name: str, feat: Feature, k: Complex) -> None:
    LabeledComplex(k, {name: feat})


def _check_outcome(check, feat: Feature, k: Complex):
    try:
        check("x", feat, k)
    except Exception as exc:  # the exception type is what is compared
        return type(exc)
    return None


def test_feature_check_matches_closure_oracle():
    rng = random.Random(12)
    seen = Counter()
    for _ in range(300):
        k = random_complex(rng)
        for _ in range(8):
            feat = random_feature(rng, k)
            want = _check_outcome(_validate_feature_closure_oracle, feat, k)
            if want is None and _degenerate(feat):
                want = ValueError
            got = _check_outcome(_label_check, feat, k)
            assert got == want, (feat, sorted(map(face_key, k.facets)))
            # The facets-only form checks the same labels by its facets.
            facets_only = Complex._of_facets(k.facets, k.f_vector())
            assert _check_outcome(_label_check, feat, facets_only) == want
            seen[feat.kind, got is None, _degenerate(feat)] += 1
    for kind in ("vertex", "edge", "path", "subcomplex"):
        assert seen[kind, True, False] and seen[kind, False, False], kind
        if kind != "vertex":
            assert seen[kind, False, True], kind


# -- serialization --


def test_parse_format_round_trip():
    k = Complex.from_facets(BD3)
    assert parse_facet_lines(format_facet_lines(k)) == k


def test_parse_errors_carry_line_numbers():
    with pytest.raises(FormatError, match="line 2"):
        parse_facet_lines("0 1 2\n0 1 x\n")


def test_parse_skips_blank_and_comment_lines():
    k = parse_facet_lines("# comment\n0 1 2\n\n1 2 3\n")
    assert len(k.facets) == 2


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**30))
def test_parse_format_round_trip_random(seed):
    k = random_complex(random.Random(seed))
    assert parse_facet_lines(format_facet_lines(k)) == k


def test_json_round_trip_with_labels():
    k = Complex.from_facets([[0, 1, 2], [1, 2, 3], [9]])
    lc = LabeledComplex(
        k,
        {
            "f": Feature.edge(0, 1),
            "p": Feature.path([0, 2, 3]),
            "v": Feature.vertex(9),
            "wall": Feature.subcomplex([[1, 2, 3]]),
        },
    )
    back = from_json(to_json(lc))
    assert back.complex == lc.complex
    assert back.labels == lc.labels


def test_json_accepts_bare_complex():
    k = Complex.from_facets(STRIP)
    back = from_json(to_json(k))
    assert back.complex == k and back.labels == {}


def test_from_json_records_the_facets_it_reads(monkeypatch):
    # Only a declared vertex that lies in no facet joins the facet lists as
    # a singleton, so a one-size complex is read in the facets-only form and
    # no pass over its faces looks for its facets.
    scanned = []
    facets_of_faces = complex_core.facets_of

    def scan(faces):
        scanned.append(faces)
        return facets_of_faces(faces)

    monkeypatch.setattr(complex_core, "facets_of", scan)
    sd, _ = subdivide_labeled(build_K_phi(Formula(1, ((1, 1, 1),))), 1)
    back = from_json(to_json(sd))
    assert back.complex.facets == sd.complex.facets
    assert scanned == []
    # A declared vertex in no facet is still a facet.
    lone = from_json('{"vertices":[0,1,2,3],"facets":[[0,1,2]]}').complex
    assert lone.facets == {frozenset([0, 1, 2]), frozenset([3])}


def _written_and_read_back(lc: LabeledComplex | Complex) -> str:
    text = to_json(lc)
    assert text == oracle_to_json(lc)
    back = from_json(text)
    assert to_json(back) == text
    assert dict(back.labels) == dict(getattr(lc, "labels", {}))
    return text


def test_to_json_is_the_whole_document_writers_text():
    # to_json encodes at most _BATCH items per encoder call.  Facet,
    # vertex and label counts and label sizes on both sides of each batch
    # edge, names that JSON escapes, the degenerate complexes and K_phi
    # all give the whole-document writer's text, which reads back.
    b = _BATCH
    sizes = (0, 1, b - 1, b, b + 1, 3 * b + 1)
    odd = '"\\\n é∂'  # a quote, a backslash, a newline and non-ASCII text
    rng = random.Random(44)

    def triangles(m: int) -> list[frozenset]:
        out: set = set()
        while len(out) < m:
            out.add(frozenset(rng.sample(range(m // 4 + 5), 3)))
        return sorted(out, key=face_key)

    for k in (Complex.empty(), EMPTY_FACE_COMPLEX, Complex.from_facets([[0, 1, 2], [7]])):
        _written_and_read_back(k)
    for m in sizes:
        # m facets, and m isolated vertices with a label each.
        tri = triangles(m)
        _written_and_read_back(
            LabeledComplex(Complex.from_facets(tri), {f"s{odd}": Feature.subcomplex(tri[: m // 2])})
        )
        dots = Complex.from_facets([[v] for v in range(m)])
        _written_and_read_back(LabeledComplex(dots, {f"{v}{odd}": Feature.vertex(v) for v in range(m)}))
    # Labels of each size, small and large in turn, on one complex: its
    # faces of every size, and the vertices of a long path.
    path = range(10**6, 10**6 + 3 * b + 1)
    k = Complex.from_facets(triangles(3 * b + 1) + list(zip(path, path[1:])))
    faces = sorted(k.nonempty_faces, key=face_key)
    labels = {"a": Feature.vertex(path[0])}
    for s in sizes:
        labels[f"{s:05}{odd}"] = Feature.subcomplex(rng.sample(faces, s))
        if s > 1:
            labels[f"{s:05}{odd}path"] = Feature.path(path[:s])
    _written_and_read_back(LabeledComplex(k, labels))
    for n in (1, 2, 3):
        _written_and_read_back(build_K_phi(random_formula(n, 2 * n, rng)))


def _traced(call, *args):
    """``call(*args)`` under ``tracemalloc``: its result, the bytes it
    allocated that are still held when it returns, and its traced peak."""
    gc.collect()
    tracemalloc.start()
    try:
        out = call(*args)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, kept, peak


def test_sd2_text_is_written_in_bounded_memory():
    # The writer holds the text, the list of the facet keys that the last
    # level recorded and one batch: about 2.2 times the text on sd² of
    # K_phi at n = 1.  One json.dumps over the whole document
    # (oracle_to_json) peaks at about 21 times.
    lc = subdivide_labeled(build_K_phi(Formula(1, ((1, 1, 1),))), 2)[0]
    text, _, peak = _traced(to_json, lc)
    assert len(text) == 226_928
    assert peak < 5 * len(text)


def test_last_subdivision_level_peaks_near_what_it_keeps():
    # The last level maps the labels, drops the lower flags before it
    # builds sd's facet set, and checks the labels against a star index
    # that it does not keep.  On K_phi at n = 1 the peak is about 1.12
    # times what the call keeps; holding the lower flags through the
    # label check reads about 1.19.
    kphi = build_K_phi(Formula(1, ((1, 1, 1),)))
    (lc, _), kept, peak = _traced(subdivide_labeled, kphi, 2)
    assert len(lc.complex.facets) == 6156
    assert peak < 1.16 * kept

