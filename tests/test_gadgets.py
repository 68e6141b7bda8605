"""House builders, their frozen meshes, and feature-based amalgamation."""

import importlib.resources

import pytest

from shellkit.collapse import (
    _FaceIndex,
    collapses_to,
    free_faces,
    is_collapsible_2d_greedy,
    verify_collapse_sequence,
)
from shellkit.complex_core import Complex, canonical_form, format_facet_lines
from shellkit.gadgets import (
    GadgetError,
    HouseAttachment,
    OneHouseSpec,
    _amalgamate_with_maps,
    build_literal_house,
    build_O,
    build_one_house,
    build_three_house,
    build_variable_sphere,
    fixtures,
    map_feature,
    three_house_exit,
)
from shellkit.complex_core import Feature, LabeledComplex

GOLDEN = {
    "one_house": lambda: build_one_house(OneHouseSpec()),
    "three_house": build_three_house,
    "variable_sphere": lambda: build_variable_sphere("u1"),
    "o_gadget": lambda: build_O("u1"),
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


def test_one_house_subdivided_free_edge():
    lc = build_one_house(OneHouseSpec(free_edge_subdivisions=3))
    free = {f for f, _ in free_faces(lc.complex)}
    arc = set(lc.feature("f").edge_list())
    assert len(arc) == 3
    assert free == arc


def test_one_house_attachments():
    spec = OneHouseSpec(attachments=(HouseAttachment("t", 2), HouseAttachment("s", 1)))
    lc = build_one_house(spec)
    wall = lc.subcomplex("L")
    for name in ("t", "s"):
        feat = lc.feature(name)
        assert all(f in wall.faces for f in feat.face_set())
    with pytest.raises(GadgetError):
        build_one_house(OneHouseSpec(free_edge_subdivisions=0))


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


def test_variable_sphere_frozen():
    lc = build_variable_sphere("u1")
    k = lc.complex
    assert k.f_vector() == (1, 6, 12, 8)
    assert k.reduced_euler_characteristic() == 1
    upper = lc.subcomplex("D[u1]")
    lower = lc.subcomplex("D[~u1]")
    assert len(upper.facets) == 4 and len(lower.facets) == 4
    assert upper.facets | lower.facets == k.facets
    assert lc.feature("s(u1)").kind == "path"
    assert lc.feature("v(u1)").kind == "vertex"


def test_o_gadget_frozen():
    lc = build_O("u1")
    k = lc.complex
    assert k.f_vector() == (1, 6, 11, 5)
    # The O gadget is a triangulated ring, not a disk.
    assert k.reduced_euler_characteristic() == -1
    assert not is_collapsible_2d_greedy(k).yes
    for name in ("v(u1)", "v_and", "s(u1)", "b(u1)", "p(u1)"):
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
    spec = OneHouseSpec(attachments=(HouseAttachment("t", 2), HouseAttachment("s", 1)))
    assert set(build_one_house(spec).labels) == {"f", "anchor", "L", "t", "s"}
    assert set(build_literal_house(2).labels) == {
        "f", "p", "v", "v_and", "L", "occ1.p", "occ1.f", "occ2.p", "occ2.f"
    }


def test_collapse_house_reaches_target():
    # Target a wall attachment path.  The free arc is where the collapse
    # starts, so it can never be part of the target.
    lc = build_one_house(OneHouseSpec(attachments=(HouseAttachment("t", 2),)))
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
    glued, vmaps = _amalgamate_with_maps(
        two_triangle_parts(), [("a", "hinge", "b", "hinge")]
    )
    assert glued.f_vector() == (1, 4, 5, 2)
    # a.hinge = (0, 1) meets b.hinge = (1, 2) position by position.
    assert (vmaps["a"][0], vmaps["a"][1]) == (vmaps["b"][1], vmaps["b"][2])


def test_amalgamate_is_order_insensitive():
    one, _ = _amalgamate_with_maps(two_triangle_parts(), [("a", "hinge", "b", "hinge")])
    parts = list(reversed(two_triangle_parts()))
    other, _ = _amalgamate_with_maps(parts, [("a", "hinge", "b", "hinge")])
    assert canonical_form(one) == canonical_form(other)


def test_amalgamate_rejects_length_mismatch():
    a = LabeledComplex(
        Complex.from_facets([[0, 1, 2], [1, 2, 3]]), {"p": Feature.path([0, 1, 3])}
    )
    b = LabeledComplex(
        Complex.from_facets([[0, 1, 2]]), {"p": Feature.path([0, 1])}
    )
    with pytest.raises(GadgetError, match="vertices"):
        _amalgamate_with_maps([("a", a), ("b", b)], [("a", "p", "b", "p")])


def test_amalgamate_rejects_kind_mismatch():
    a = LabeledComplex(Complex.from_facets([[0, 1, 2]]), {"x": Feature.vertex(0)})
    b = LabeledComplex(Complex.from_facets([[0, 1, 2]]), {"x": Feature.edge(0, 1)})
    with pytest.raises(GadgetError, match="cannot identify"):
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
    with pytest.raises(GadgetError, match="overlap"):
        _amalgamate_with_maps(
            [("a", a), ("b", b)],
            [("a", "e1", "b", "e1"), ("a", "e2", "b", "e2")],
        )


def test_amalgamate_rejects_duplicate_part_names():
    a = LabeledComplex(Complex.from_facets([[0, 1, 2]]), {})
    with pytest.raises(GadgetError, match="part name"):
        _amalgamate_with_maps([("a", a), ("a", a)], [])


def test_map_feature():
    vmap = {0: 10, 1: 11, 2: 12}
    assert map_feature(Feature.edge(0, 1), vmap) == Feature.edge(10, 11)
    assert map_feature(Feature.path([0, 1, 2]), vmap).value == (10, 11, 12)
    assert map_feature(Feature.vertex(2), vmap) == Feature.vertex(12)
