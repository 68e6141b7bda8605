"""House builders, their frozen meshes, and feature-based amalgamation."""

import importlib.resources
import random

import pytest
from conftest import pinched_complex, random_pure_2complex

from shellkit.collapse import (
    CollapsePair,
    _FaceIndex,
    collapses_to,
    free_faces,
    is_collapsible_2d_greedy,
    verify_collapse_sequence,
)
from shellkit.complex_core import (
    Complex,
    canonical_form,
    facets_of,
    format_facet_lines,
    vertex_links_connected,
)
from shellkit.gadgets import (
    OneHouseSpec,
    _amalgamate_with_maps,
    _check_door_rotation,
    _check_gadget,
    _check_three_house_star,
    build_literal_house,
    build_O,
    build_one_house,
    build_three_house,
    build_variable_sphere,
    fixtures,
    map_feature,
    three_house_exit,
)
from shellkit.complex_core import Feature, InternalError, LabeledComplex

GOLDEN = {
    "one_house": lambda: build_one_house(OneHouseSpec()),
    "three_house": build_three_house,
    "variable_sphere": build_variable_sphere,
    "o_gadget": build_O,
    "literal_house_1": lambda: build_literal_house(1),
}


def golden_text(name: str) -> str:
    root = importlib.resources.files("shellkit") / "data" / "golden"
    return (root / f"{name}.txt").read_text()


def test_golden_files_match_builders():
    for name, build in GOLDEN.items():
        assert format_facet_lines(build().complex) == golden_text(name), name
    for name, lc in fixtures().items():
        assert format_facet_lines(lc.complex) == golden_text(name), name


def test_one_house_frozen():
    lc = build_one_house(OneHouseSpec())
    k = lc.complex
    assert k.f_vector() == (1, 9, 25, 17)
    assert k.reduced_euler_characteristic() == 0
    free = {f for f, _ in free_faces(k)}
    assert free == set(lc.feature("f").edge_list())
    assert is_collapsible_2d_greedy(k).yes


def test_one_house_attachments():
    spec = OneHouseSpec(attachments=("t", "s"))
    lc = build_one_house(spec)
    wall = lc.subcomplex("L")
    for name in ("t", "s"):
        feat = lc.feature(name)
        assert all(f in wall.faces for f in feat.face_set())
    for bad in (("t", "t"), ("anchor",)):
        with pytest.raises(ValueError, match="duplicate or reserved"):
            build_one_house(OneHouseSpec(attachments=bad))


def test_three_house_frozen():
    lc = build_three_house()
    k = lc.complex
    assert k.f_vector() == (1, 17, 58, 42)
    assert k.reduced_euler_characteristic() == 0
    free = {f for f, _ in free_faces(k)}
    expected = set()
    for name in ("f1", "f2", "f3"):
        expected.update(lc.feature(name).edge_list())
    assert free == expected


def test_three_house_exit_targets_collapse():
    lc = build_three_house()
    k = lc.complex
    spanned = ["e", "p1", "p2", "p3"]
    for entry, keep in ((3, ("f1", "f2")), (2, ("f1", "f3")), (1, ("f2", "f3"))):
        faces = set()
        for name in spanned + list(keep):
            faces.update(lc.feature(name).face_set())
        target = Complex.from_faces(faces)
        res = collapses_to(k, target)
        assert res.yes, keep
        # The house is 2-dimensional, so each exit is one erasure per face
        # size: one node per pair.
        assert (res.nodes, len(res.witness)) == (49, 49), keep
        assert three_house_exit(lc, entry) == (res.witness, target)
        verify_collapse_sequence(k, res.witness, target)


# The three-house's vertices are v = 0, w = 1 and five rings of three, one
# vertex per wall: alpha, beta, rim_b, rim_c and mid are 2..6 + 5i for wall i.
DOOR_ROTATION = {x: x if x < 2 else 2 + (x + 3) % 15 for x in range(17)}


def test_door_rotation_carries_the_door_1_exit_to_the_others():
    lc = build_three_house()
    k = lc.complex
    _check_door_rotation(lc, DOOR_ROTATION)

    def image(face):
        return frozenset(map(DOOR_ROTATION.__getitem__, face))

    witness, kept = three_house_exit(lc, 1)
    for entry in (2, 3):
        # The image of the door-1 witness is an exit through the next door.
        witness = [CollapsePair(image(p.free), image(p.coface)) for p in witness]
        kept = Complex.from_faces(map(image, kept.faces - {frozenset()}))
        names = ["e", "p1", "p2", "p3"] + [f"f{t}" for t in (1, 2, 3) if t != entry]
        assert kept == lc.subcomplex(*names) == three_house_exit(lc, entry)[1]
        verify_collapse_sequence(k, witness, kept)


def test_door_rotation_refuses_a_tampered_house():
    lc = build_three_house()
    k, labels = lc.complex, dict(lc.labels)
    wall = min(k.facets, key=sorted)
    tampered = [
        LabeledComplex(k.remove_facets([wall]), labels),
        LabeledComplex(k, {**labels, "f2": labels["f3"], "f3": labels["f2"]}),
        LabeledComplex(k, {**labels, "p3": Feature.path(reversed(labels["p3"].value))}),
        LabeledComplex(k, {**labels, "e": Feature.edge(0, 6)}),
    ]
    for house in tampered:
        with pytest.raises(InternalError, match="three-house: the door rotation does not"):
            _check_door_rotation(house, DOOR_ROTATION)
    # A rotation that keeps one ring in place is no automorphism.
    mid_fixed = {x: x if x % 5 == 1 else r for x, r in DOOR_ROTATION.items()}
    with pytest.raises(InternalError, match="does not map facets onto facets"):
        _check_door_rotation(lc, mid_fixed)


def gadget_shapes():
    yield "one-house", build_one_house(OneHouseSpec())
    yield "one-house b", build_one_house(OneHouseSpec(attachments=("b",)))
    yield "one-house t s", build_one_house(OneHouseSpec(attachments=("t", "s")))
    for count in range(4):
        yield f"literal house {count}", build_literal_house(count)
    yield "three-house", build_three_house()
    yield "variable sphere", build_variable_sphere()
    yield "O", build_O()


def test_one_pass_gadget_check_matches_the_separate_rules():
    # On every gadget shape and on random pure 2-complexes, pinched ones
    # included, the one-pass check accepts exactly the free faces, reduced
    # Euler characteristic and disconnected links that free_faces,
    # reduced_euler_characteristic and vertex_links_connected find.
    rng = random.Random(3901)
    shapes = [(what, lc.complex) for what, lc in gadget_shapes()]
    shapes += [("random", random_pure_2complex(rng, 10, 8)) for _ in range(150)]
    shapes += [("pinched", pinched_complex(rng, 2, rng.randint(4, 12))) for _ in range(60)]
    seen = {"free vertex": 0, "pinch": 0, "chi": set()}
    for what, k in shapes:
        free = {f for f, _ in free_faces(k)}
        chi = k.reduced_euler_characteristic()
        pinched = vertex_links_connected(k)[1]
        lc = LabeledComplex(k, {})
        _check_gadget(lc, what, chi, free, pinched)
        with pytest.raises(InternalError, match="reduced Euler characteristic"):
            _check_gadget(lc, what, chi + 1, free, pinched)
        with pytest.raises(InternalError, match="free faces"):
            _check_gadget(lc, what, chi, free ^ {min(k.facets, key=sorted)}, pinched)
        if pinched:
            with pytest.raises(InternalError, match="disconnected links"):
                _check_gadget(lc, what, chi, free, pinched[1:])
        seen["free vertex"] += any(len(f) == 1 for f in free)
        seen["pinch"] += bool(pinched)
        seen["chi"].add(chi)
    assert seen["free vertex"] >= 50 and seen["pinch"] >= 50, seen
    assert {-1, 0, 1, 2} <= seen["chi"], seen


def test_variable_sphere_frozen():
    lc = build_variable_sphere()
    k = lc.complex
    assert k.f_vector() == (1, 6, 12, 8)
    assert k.reduced_euler_characteristic() == 1
    upper = lc.subcomplex("D[u]")
    lower = lc.subcomplex("D[~u]")
    assert len(upper.facets) == 4 and len(lower.facets) == 4
    assert upper.facets | lower.facets == k.facets
    assert lc.feature("s(u)").kind == "path"
    assert lc.feature("v(u)").kind == "vertex"


def test_o_gadget_frozen():
    lc = build_O()
    k = lc.complex
    assert k.f_vector() == (1, 6, 11, 5)
    # The O gadget is a triangulated ring, not a disk.
    assert k.reduced_euler_characteristic() == -1
    assert not is_collapsible_2d_greedy(k).yes
    for name in ("v(u)", "v_and", "s(u)", "b(u)", "p(u)"):
        assert name in lc.labels


def test_literal_house_frozen():
    expected = {
        0: (1, 12, 34, 23),
        1: (1, 16, 46, 31),
        2: (1, 21, 61, 41),
        3: (1, 26, 76, 51),
    }
    for occ, fv in expected.items():
        lc = build_literal_house(occ)
        assert lc.complex.f_vector() == fv, occ
        assert lc.complex.reduced_euler_characteristic() == 0
        for i in range(1, occ + 1):
            assert f"occ{i}.p" in lc.labels
            assert f"occ{i}.f" in lc.labels
        assert f"occ{occ + 1}.p" not in lc.labels


def test_house_label_tables_are_pinned():
    # Every label is one that K_phi glues along or the docstrings promise;
    # the assembly's layers carry none.
    assert set(build_one_house(OneHouseSpec()).labels) == {"f", "anchor", "L"}
    spec = OneHouseSpec(attachments=("t", "s"))
    assert set(build_one_house(spec).labels) == {"f", "anchor", "L", "t", "s"}
    assert set(build_literal_house(2).labels) == {
        "f", "p", "v", "v_and", "L", "occ1.p", "occ1.f", "occ2.p", "occ2.f"
    }


def test_collapse_house_reaches_target():
    # Target a wall attachment edge.  The free edge is where the collapse
    # starts, so it can never be part of the target.
    lc = build_one_house(OneHouseSpec(attachments=("t",)))
    k = lc.complex
    target = Complex.from_facets(lc.feature("t").edge_list())
    res = collapses_to(k, target)
    assert res.yes
    pairs = res.witness
    index = _FaceIndex(k)
    assert index.collapse(pairs) == k.faces - target.faces
    assert verify_collapse_sequence(k, pairs) == index.complex() == target


# -- amalgamation --


def two_triangle_parts():
    a = LabeledComplex(
        Complex.from_facets([[0, 1, 2]]), {"hinge": Feature.edge(0, 1)}
    )
    b = LabeledComplex(
        Complex.from_facets([[0, 1, 2]]), {"hinge": Feature.edge(1, 2)}
    )
    return [("a", a), ("b", b)]


def test_amalgamate_two_triangles():
    merged, vmaps, glued, part_facets = _amalgamate_with_maps(
        two_triangle_parts(), [("a", "hinge", "b", "hinge")]
    )
    assert merged.f_vector() == (1, 4, 5, 2)
    # a.hinge = (0, 1) meets b.hinge = (1, 2) position by position.
    assert (vmaps["a"][0], vmaps["a"][1]) == (vmaps["b"][1], vmaps["b"][2])
    assert glued == {vmaps["a"][0], vmaps["a"][1]}
    assert merged.facets == facets_of(merged.faces)
    # Each part's mapped facets, as the objects the merged complex holds.
    stored = {f: f for f in merged.faces}
    for name in ("a", "b"):
        (facet,) = part_facets[name]
        assert facet == frozenset(vmaps[name][v] for v in (0, 1, 2))
        assert stored[facet] is facet
    # With facets of mixed sizes the merged facets are found, not recorded.
    tri = LabeledComplex(Complex.from_facets([[0, 1, 2]]), {"tip": Feature.vertex(2)})
    edge = LabeledComplex(Complex.from_facets([[0, 1]]), {"tip": Feature.vertex(0)})
    mixed, vmaps, glued, part_facets = _amalgamate_with_maps(
        [("t", tri), ("e", edge)], [("t", "tip", "e", "tip")]
    )
    assert mixed.facets == facets_of(mixed.faces) and len(mixed.facets) == 2
    # A vertex glued outside any shared edge is glued too.
    assert glued == {vmaps["t"][2]} == {vmaps["e"][0]}
    assert part_facets["e"] == [frozenset(vmaps["e"][v] for v in (0, 1))]


def test_amalgamate_records_no_part_facet_below_another():
    # A 1-dimensional part glued onto a triangle's edge: its facet is an
    # edge of the triangle in the quotient, so it is not a facet there.
    tri = LabeledComplex(Complex.from_facets([[0, 1, 2]]), {"e": Feature.edge(0, 1)})
    edge = LabeledComplex(Complex.from_facets([[0, 1]]), {"e": Feature.edge(0, 1)})
    for parts in ([("t", tri), ("x", edge)], [("x", edge), ("t", tri)]):
        merged, vmaps, glued, part_facets = _amalgamate_with_maps(parts, [("t", "e", "x", "e")])
        assert merged.f_vector() == (1, 3, 3, 1) and len(glued) == 2
        assert merged.facets == facets_of(merged.faces) == set(part_facets["t"])
        assert part_facets["x"] == [frozenset(vmaps["t"][v] for v in (0, 1))]


def test_amalgamate_is_order_insensitive():
    one, _, _, facets_one = _amalgamate_with_maps(
        two_triangle_parts(), [("a", "hinge", "b", "hinge")]
    )
    parts = list(reversed(two_triangle_parts()))
    other, _, _, facets_other = _amalgamate_with_maps(parts, [("a", "hinge", "b", "hinge")])
    assert canonical_form(one) == canonical_form(other)
    assert set(facets_one) == set(facets_other) == {"a", "b"}


def test_amalgamate_rejects_length_mismatch():
    a = LabeledComplex(
        Complex.from_facets([[0, 1, 2], [1, 2, 3]]), {"p": Feature.path([0, 1, 3])}
    )
    b = LabeledComplex(
        Complex.from_facets([[0, 1, 2]]), {"p": Feature.path([0, 1])}
    )
    with pytest.raises(InternalError, match="vertices"):
        _amalgamate_with_maps([("a", a), ("b", b)], [("a", "p", "b", "p")])


def test_amalgamate_rejects_kind_mismatch():
    a = LabeledComplex(Complex.from_facets([[0, 1, 2]]), {"x": Feature.vertex(0)})
    b = LabeledComplex(Complex.from_facets([[0, 1, 2]]), {"x": Feature.edge(0, 1)})
    with pytest.raises(InternalError, match="cannot identify"):
        _amalgamate_with_maps([("a", a), ("b", b)], [("a", "x", "b", "x")])


def test_amalgamate_rejects_hidden_overlap():
    # Gluing two triangles along two shared edges makes their third edges
    # coincide as well, so the parts overlap beyond what was declared.
    a = LabeledComplex(
        Complex.from_facets([[0, 1, 2]]),
        {"e1": Feature.edge(0, 1), "e2": Feature.edge(1, 2)},
    )
    b = LabeledComplex(
        Complex.from_facets([[0, 1, 2]]),
        {"e1": Feature.edge(0, 1), "e2": Feature.edge(1, 2)},
    )
    with pytest.raises(InternalError, match="overlap"):
        _amalgamate_with_maps(
            [("a", a), ("b", b)],
            [("a", "e1", "b", "e1"), ("a", "e2", "b", "e2")],
        )


def test_amalgamate_rejects_a_triangle_of_glued_vertices():
    # All three edges are identified, so every vertex and edge may be
    # shared, and only the triangle, all of whose vertices are glued,
    # overlaps beyond what was declared.
    edges = {"e1": Feature.edge(0, 1), "e2": Feature.edge(1, 2), "e3": Feature.edge(2, 0)}
    a = LabeledComplex(Complex.from_facets([[0, 1, 2]]), edges)
    b = LabeledComplex(Complex.from_facets([[0, 1, 2], [0, 1, 3]]), edges)
    idents = [("a", name, "b", name) for name in edges]
    with pytest.raises(InternalError, match=r"overlap.*\[\(0, 1, 2\)\]"):
        _amalgamate_with_maps([("a", a), ("b", b)], idents)


def test_gadget_check_refuses_a_pinched_torus():
    # Two octahedra sharing both poles: pure, with reduced Euler
    # characteristic 1 and no free faces, whose links at the poles are two
    # circles each.
    def octahedron(rim):
        return [(pole, rim[i], rim[(i + 1) % 4]) for pole in (4, 5) for i in range(4)]

    pinched = Complex.from_facets(octahedron([0, 1, 2, 3]) + octahedron([6, 7, 8, 9]))
    assert pinched.reduced_euler_characteristic() == 1 and not free_faces(pinched)
    with pytest.raises(InternalError, match=r"disconnected links at \(4, 5\)"):
        _check_gadget(LabeledComplex(pinched, {}), "sphere", 1, ())
    _check_gadget(build_variable_sphere(), "sphere", 1, ())


def _o_boundary(lc):
    return [e for name in ("s(u)", "b(u)", "p(u)") for e in lc.feature(name).edge_list()]


def test_gadget_check_refuses_an_unlisted_pinch():
    o = build_O()
    _check_gadget(o, "O", -1, _o_boundary(o), pinched=(0,))
    with pytest.raises(InternalError, match=r"disconnected links at \(0,\)"):
        _check_gadget(o, "O", -1, _o_boundary(o))


def test_gadget_check_refuses_a_missing_door():
    three = build_three_house()
    doors = [three.feature(f"f{t}").edge_list()[0] for t in (1, 2, 3)]
    _check_gadget(three, "three-house", 0, doors)
    with pytest.raises(InternalError, match="free faces"):
        _check_gadget(three, "three-house", 0, doors[:2])


def test_gadget_check_refuses_a_wrong_euler_characteristic():
    house = build_one_house(OneHouseSpec())
    door = house.feature("f").edge_list()
    _check_gadget(house, "one-house", 0, door)
    with pytest.raises(InternalError, match="reduced Euler characteristic is not 1"):
        _check_gadget(house, "one-house", 1, door)


def test_gadget_check_refuses_an_impure_complex():
    # A triangle with a pendant edge at 0 is 2-dimensional but not pure.
    # Its free faces, its χ̃ and its one pinch at 0 are given as the other
    # rules read them, so only the purity test refuses it.
    k = Complex.from_facets([[0, 1, 2], [0, 3]])
    free = [frozenset(f) for f in ([0, 1], [0, 2], [1, 2], [0], [1], [2], [3])]
    with pytest.raises(InternalError, match="not pure 2-dimensional"):
        _check_gadget(LabeledComplex(k, {}), "pendant", 0, free, pinched=(0,))


# Contact features of a three-house, with hub 0, that are no 4-ray star
# though each p_i ends where f_i starts: (e, p1, f1, p2, f2, p3, f3).
NOT_A_STAR = {
    # Ten distinct edges, the hub of degree 4 and the degrees of a
    # subdivided 4-ray star, but p1 runs through the hub and p3, f3 are a
    # triangle apart: three rays and a triangle.
    "star plus triangle": ((0, 1), (2, 0, 3), (3, 4), (0, 5, 6), (6, 7), (8, 9, 10), (10, 8)),
    # Every ray starts at the hub, but p1 and p3 meet at 3.
    "rays that meet": ((0, 1), (0, 2, 3), (3, 4), (0, 5, 6), (6, 7), (0, 8, 3), (3, 9)),
}


@pytest.mark.parametrize("case", sorted(NOT_A_STAR))
def test_three_house_star_check_refuses_what_is_no_star(case):
    e, *doors = NOT_A_STAR[case]
    labels = {"v": Feature.vertex(0), "e": Feature.edge(*e)}
    for pos in (1, 2, 3):
        p, f = doors[2 * pos - 2 : 2 * pos]
        labels[f"p{pos}"], labels[f"f{pos}"] = Feature.path(p), Feature.edge(*f)
    edges = {frozenset(x) for feat in labels.values() for x in feat.edge_list()}
    assert len(edges) == 10
    lc = LabeledComplex(Complex.from_facets(edges), labels)
    with pytest.raises(InternalError, match="4-ray star"):
        _check_three_house_star(lc)
    _check_three_house_star(build_three_house())


def test_amalgamate_refuses_to_merge_two_vertices_of_one_part():
    # Vertices 0 and 1 of a are both identified with vertex 0 of b.
    a = LabeledComplex(
        Complex.from_facets([[0, 1, 2]]), {"x": Feature.vertex(0), "y": Feature.vertex(1)}
    )
    b = LabeledComplex(Complex.from_facets([[0, 1, 2]]), {"z": Feature.vertex(0)})
    idents = [("a", "x", "b", "z"), ("a", "y", "b", "z")]
    with pytest.raises(InternalError, match="identifications merge vertices 0 and 1 of part 'a'"):
        _amalgamate_with_maps([("a", a), ("b", b)], idents)


def test_amalgamate_rejects_duplicate_part_names():
    a = LabeledComplex(Complex.from_facets([[0, 1, 2]]), {})
    with pytest.raises(InternalError, match="part name"):
        _amalgamate_with_maps([("a", a), ("a", a)], [])


def test_map_feature():
    vmap = {0: 10, 1: 11, 2: 12}
    assert map_feature(Feature.edge(0, 1), vmap) == Feature.edge(10, 11)
    assert map_feature(Feature.path([0, 1, 2]), vmap).value == (10, 11, 12)
    assert map_feature(Feature.vertex(2), vmap) == Feature.vertex(12)
