"""Core complex machinery against independent brute-force oracles."""

import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import oracle_vertex_links_connected, random_complex, random_pure_2complex
from shellkit.complex_core import (
    Complex,
    Feature,
    FormatError,
    LabeledComplex,
    _validate_feature,
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


def link_brute(k: Complex, sigma: frozenset) -> set:
    out = set()
    for tau in k.faces:
        if tau and not (tau & sigma) and (tau | sigma) in k.faces:
            out.add(tau)
    return out


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
    rng = random.Random(11)
    for _ in range(10):
        k = random_complex(rng)
        for sigma in list(k.faces)[:40]:
            if not sigma:
                continue
            got = set(k.link(sigma).nonempty_faces)
            assert got == link_brute(k, sigma)


def test_link_frozen():
    k = Complex.from_facets(BD3)
    assert k.link([0]).facets == frozenset(
        {frozenset({1, 2}), frozenset({1, 3}), frozenset({2, 3})}
    )
    assert k.link([0, 1]).facets == frozenset({frozenset({2}), frozenset({3})})


def test_delete_and_remove_facet():
    k = Complex.from_facets(STRIP)
    assert k.delete([1, 2]).facets == frozenset(
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
    for _ in range(15):
        a = random_complex(rng, max_facets=4, pool=5)
        b_raw = random_complex(rng, max_facets=4, pool=5)
        b = Complex.from_facets([[v + 10 for v in f] for f in b_raw.facets])
        j = join(a, b)
        assert (
            j.reduced_euler_characteristic()
            == -a.reduced_euler_characteristic() * b.reduced_euler_characteristic()
        )


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
    o_gadget = build_O("u1")
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
    assert pinched >= 50
    v = o_gadget.feature("v(u1)").value[0]
    assert vertex_links_connected(o_gadget.complex) == (False, (v,))


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
        return () in feat.value
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
            got = _check_outcome(_validate_feature, feat, k)
            assert got == want, (feat, sorted(map(face_key, k.facets)))
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
