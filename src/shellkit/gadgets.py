"""Gadget meshes: Bing-house variants, marked spheres, and small fixtures.

The houses here are triangulated Bing houses (a box with two rooms whose
only free face is one marked boundary edge ``f``).  Each house is
assembled from three layers:

* a *lower wall* ``L``: a triangulated disk carrying ``f`` on its boundary
  together with any requested interior attachment edges,
* a *fan* over the rest of the boundary of ``L`` from a fresh apex, and
* a *cap*: a modified dunce hat whose subdivided free edge is glued onto
  the path contact--apex--far, closing every face of ``L`` except ``f``.

The lower wall is meshed as a flower of ladders around a hub, which scales
to any number of attachment rays.  Every builder of a part that K_phi
glues calls :func:`_check_gadget`, the one postcondition rule (purity,
exact free-face set, reduced Euler characteristic, the exact set of
disconnected vertex links, all read off the ridge map and the vertex
stars of its facets), and raises ``InternalError`` on any violation, as
the glue checks of ``_amalgamate_with_maps`` do, so a constructed gadget
is trustworthy by construction.  The three-house also checks its exits:
one collapse through door 1, carried to doors 2 and 3 by a door rotation
that it checks to be an automorphism (``_check_door_rotation``).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from types import MappingProxyType
from typing import Collection, Mapping, Sequence

from shellkit.collapse import CollapseSequence, collapses_to
from shellkit.complex_core import (
    Complex,
    Face,
    Feature,
    InternalError,
    LabeledComplex,
    _link_connected,
    _stars,
    face_key,
    is_pseudomanifold,
    ridge_holders,
    sorted_face_keys,
    subfaces,
)


# -- fixture facet lists -------------------------------------------------------

#: 7-vertex modified dunce hat; its unique free face is the edge {1, 3},
#: contained only in the facet {1, 3, 4}.
MODIFIED_DUNCE_HAT_FACETS: tuple[tuple[int, int, int], ...] = (
    (1, 2, 5),
    (1, 2, 6),
    (1, 2, 7),
    (1, 3, 4),
    (1, 4, 5),
    (1, 6, 7),
    (2, 3, 4),
    (2, 3, 5),
    (2, 3, 6),
    (2, 4, 7),
    (3, 5, 6),
    (4, 5, 7),
    (5, 6, 7),
)

#: Cap used by the houses: the modified dunce hat with its free edge
#: {1, 3} subdivided by the vertex 8, so the facet {1, 3, 4} becomes a fan
#: from 4 over the arc 1--8--3.  Standalone, its free faces are exactly the
#: arc edges; glued along the arc it loses them while staying collapsible.
SUBDIVIDED_CAP_FACETS: tuple[Face, ...] = tuple(
    frozenset(f) for f in MODIFIED_DUNCE_HAT_FACETS + ((1, 8, 4), (8, 3, 4)) if f != (1, 3, 4)
)


def modified_dunce_hat() -> LabeledComplex:
    """The 7-vertex collapsible complex with exactly one free edge."""
    k = Complex.from_facets(MODIFIED_DUNCE_HAT_FACETS)
    return LabeledComplex(k, {"free_edge": Feature.edge(1, 3)})


def dunce_hat() -> Complex:
    """A 13-vertex dunce hat triangulation with no free faces.

    A 9-gon with vertex classes 0,1,2,0,1,2,0,2,1 (so all three boundary
    identifications of the classic picture are realized) is coned to an
    interior ring and hub, keeping every edge in at least two triangles.
    """
    cls = (0, 1, 2, 0, 1, 2, 0, 2, 1)
    ring = [3 + i for i in range(9)]
    hub = 12
    facets = []
    for i in range(9):
        j = (i + 1) % 9
        facets.append((cls[i], ring[i], ring[j]))
        facets.append((cls[i], ring[j], cls[j]))
        facets.append((hub, ring[i], ring[j]))
    return Complex.from_facets(facets)


def torus_7() -> Complex:
    """The 7-vertex torus: facets {i, i+1, i+3} and {i, i+2, i+3} mod 7."""
    facets = [((i) % 7, (i + 1) % 7, (i + 3) % 7) for i in range(7)]
    facets += [((i) % 7, (i + 2) % 7, (i + 3) % 7) for i in range(7)]
    return Complex.from_facets(facets)


def boundary_simplex(d: int) -> Complex:
    """The boundary of the d-simplex on vertices 0..d."""
    if d < 1:
        raise ValueError("boundary_simplex needs d >= 1")
    return Complex.from_facets(subfaces(range(d + 1), [d]))


def fixtures() -> Mapping[str, LabeledComplex]:
    """Named small complexes used across tests and the CLI, read-only."""
    out = {
        "modified_dunce_hat": modified_dunce_hat(),
        "dunce_hat": LabeledComplex(dunce_hat(), {}),
        "torus_7": LabeledComplex(torus_7(), {}),
    }
    for d in (2, 3, 4):
        out[f"boundary_delta_{d}"] = LabeledComplex(boundary_simplex(d), {})
    return MappingProxyType(out)


# -- flower meshes for lower walls ---------------------------------------------


def _ladder(base: int, upper: Sequence[int], lower: Sequence[int]) -> list[Face]:
    """Triangles of a fan-free strip between two rays sharing ``base``.

    The strip starts at the triangle (base, upper[0], lower[0]) and zigzags
    outward, ending at the tip edge {upper[-1], lower[-1]}.  Every interior
    edge lies in two of its triangles; the two chains, the two spokes at
    ``base`` and the tip edge each lie in exactly one.
    """
    tris = [frozenset((base, upper[0], lower[0]))]
    i = j = 0
    p, q = len(upper) - 1, len(lower) - 1
    while i < p or j < q:
        if i < p and (j >= q or i <= j):
            tris.append(frozenset((upper[i], lower[j], upper[i + 1])))
            i += 1
        else:
            tris.append(frozenset((lower[j], upper[i], lower[j + 1])))
            j += 1
    return tris


def _open_flower(hub: int, rays: Sequence[Sequence[int]]) -> list[Face]:
    """Disk made of ladders between consecutive rays around ``hub``.

    The boundary runs hub -> rays[0] -> ray tips -> reversed rays[-1] -> hub.
    """
    if len(rays) < 2:
        raise InternalError("an open flower needs at least two rays")
    tris: list[Face] = []
    for a, b in zip(rays, rays[1:]):
        tris.extend(_ladder(hub, a, b))
    return tris


def _closed_flower(hub: int, rays: Sequence[Sequence[int]]) -> list[Face]:
    """Disk of ladders wrapping all the way around ``hub``.

    The hub becomes interior; the boundary is the cycle through the ray
    tips.  Needs at least three rays so the wraparound ladder does not
    touch the first one.
    """
    if len(rays) < 3:
        raise InternalError("a closed flower needs at least three rays")
    tris = _open_flower(hub, rays)
    tris.extend(_ladder(hub, rays[-1], rays[0]))
    return tris


# -- house assembly ------------------------------------------------------------


@dataclass(frozen=True)
class OneHouseSpec:
    """Build plan for a one-free-edge house: the names of its attachments.

    Each attachment is an edge of the lower wall from the anchor endpoint
    of ``f`` into the wall's interior.
    """

    attachments: tuple[str, ...] = ()

    def validate(self) -> None:
        seen = set()
        for name in self.attachments:
            if not name or name.startswith("_"):
                raise ValueError(f"bad attachment name: {name!r}")
            if name in seen or name in ("f", "anchor", "L"):
                raise ValueError(f"duplicate or reserved attachment name: {name}")
            seen.add(name)


def _cap_facets(contact: int, apex: int, far: int, fresh: Sequence[int]) -> list[Face]:
    """The house cap: subdivided-free-edge dunce hat glued along an arc.

    Vertex 1 goes to ``contact``, the subdivision vertex 8 to ``apex``,
    vertex 3 to ``far``; the rest are fresh.
    """
    names = {1: contact, 8: apex, 3: far}
    for old, new in zip((2, 4, 5, 6, 7), fresh):
        names[old] = new
    return [frozenset(names[v] for v in f) for f in SUBDIVIDED_CAP_FACETS]


def _assemble_house(
    wall: list[Face],
    f_path: Sequence[int],
    rim_path: Sequence[int],
    next_id: int,
) -> list[Face]:
    """The facets of a house: a lower wall, the fan coning the rest of its
    boundary off a fresh apex, and the cap on the free arc.

    ``f_path`` runs contact -> far along the free arc; ``rim_path`` is the
    rest of the wall boundary, with the same two endpoints.  The apex and
    the cap's fresh vertices take the six ids from ``next_id`` on.
    """
    contact, far = f_path[0], f_path[-1]
    if {rim_path[0], rim_path[-1]} != {contact, far}:
        raise InternalError("rim path must share both endpoints with the free arc")
    apex = next_id
    fresh = [next_id + 1 + i for i in range(5)]
    fan = [
        frozenset((apex, rim_path[t], rim_path[t + 1]))
        for t in range(len(rim_path) - 1)
    ]
    return wall + fan + _cap_facets(contact, apex, far, fresh)


def _check_gadget(
    lc: LabeledComplex, what: str, chi: int, free: Collection[Face], pinched: tuple[int, ...] = ()
) -> None:
    """The one postcondition rule for every part that K_phi glues.

    ``lc`` must be pure 2-dimensional, its free faces must be exactly
    ``free``, its reduced Euler characteristic ``chi``, and the vertices
    with a disconnected link exactly ``pinched``, in vertex order.  So
    every link is checked: ``reduction._check_compiled`` relies on this
    to check links only at the vertices that gluing merges.

    After the purity test, everything is read off two maps of the facets:
    the ridge map (``ridge_holders``) and the stars of the vertices, in
    vertex order (``complex_core._stars``).  In a pure 2-complex every
    face lies in a triangle, and every edge is a ridge, so:

    * a free face, one with a single facet over it (the rule of
      ``collapse.free_faces``), is a ridge with one holder or a vertex
      whose star has one facet;
    * the reduced Euler characteristic is V - E + F - 1, with V the
      vertices, E the ridges and F the facets;
    * each link is decided from its star by the merge of
      ``vertex_links_connected``, ``complex_core._link_connected``.
    """
    k = lc.complex
    if not k.is_pure(2):
        raise InternalError(f"{what}: not pure 2-dimensional")
    facets = k.facets
    holders = ridge_holders(facets)
    stars = _stars(facets, k.vertices)
    got = {ridge for ridge, held in holders.items() if len(held) == 1}
    got.update(frozenset([v]) for v, star in stars.items() if len(star) == 1)
    if got != set(free):
        raise InternalError(
            f"{what}: free faces {sorted(map(face_key, got))} != "
            f"expected {sorted(map(face_key, free))}"
        )
    if len(stars) - len(holders) + len(facets) - 1 != chi:
        raise InternalError(f"{what}: reduced Euler characteristic is not {chi}")
    failing = tuple(v for v, star in stars.items() if not _link_connected(v, star))
    if failing != pinched:
        raise InternalError(f"{what}: disconnected links at {failing} != expected {pinched}")


def build_one_house(spec: OneHouseSpec) -> LabeledComplex:
    """A house whose only free face is the edge ``f``.

    Labels: ``f`` (the free edge), ``anchor`` (the wall-boundary endpoint
    of ``f`` where attachments start), ``L`` (the lower-wall subcomplex)
    and one edge per requested attachment.
    """
    spec.validate()
    hub, contact = 0, 1
    # Attachment i is the edge from the hub to 2 + 2i, on the ray
    # 2 + 2i -> 3 + 2i; the one-vertex guard ray comes last.
    ends = {name: 2 + 2 * i for i, name in enumerate(spec.attachments)}
    guard = 2 + 2 * len(ends)
    rays = [[contact]] + [[end, end + 1] for end in ends.values()] + [[guard]]

    wall = _open_flower(hub, rays)
    rim = [r[-1] for r in rays] + [hub]
    f_path = [hub, contact]
    facets = _assemble_house(wall, f_path, rim, guard + 1)

    labels = {
        "f": Feature.edge(hub, contact),
        "anchor": Feature.vertex(hub),
        "L": Feature.subcomplex(wall),
    }
    labels.update((name, Feature.edge(hub, end)) for name, end in ends.items())
    lc = LabeledComplex(Complex.from_facets(facets), labels)
    _check_gadget(lc, "one-house", 0, [frozenset(f_path)])
    return lc


def build_literal_house(occurrences: int) -> LabeledComplex:
    """A house keyed to one literal, with an interior hub vertex.

    The lower wall is a closed flower: the hub (labeled ``v_and``) is
    interior, the free edge ``f`` joins the wall-boundary vertex ``v`` to
    the tip ``z`` of a neighbouring ray, and the two-edge path ``p`` runs
    from ``v`` through the wall interior to the hub.  Each of the
    ``occurrences`` extra rays carries a two-edge path ``occN.p`` from the
    hub and an interior edge ``occN.f`` continuing it.  A one-vertex
    spacer ray sits between consecutive occurrence rays so the wall has
    no edge joining two of them; such an edge could coincide with an
    edge of a clause house glued onto both.
    """
    if occurrences < 0:
        raise ValueError("occurrence count cannot be negative")
    hub = 0
    x, v = 1, 2
    zr, z = 3, 4
    guard = 5
    rays: list[list[int]] = [[guard]]
    occ_feats: list[tuple[list[int], tuple[int, int]]] = []
    next_id = 6
    for n in range(occurrences):
        if n:
            rays.append([next_id])
            next_id += 1
        q1, q2, q3, pad = range(next_id, next_id + 4)
        rays.append([q1, q2, q3, pad])
        occ_feats.append(([hub, q1, q2], (q2, q3)))
        next_id += 4
    rays.append([x, v])
    rays.append([zr, z])

    wall = _closed_flower(hub, rays)
    tips = [r[-1] for r in rays]
    # Boundary cycle through the tips; remove the edge {v, z} and walk the
    # rest from z back around to v.
    rim = [z] + tips[: tips.index(v) + 1]
    f_path = [v, z]
    facets = _assemble_house(wall, f_path, rim, next_id)

    labels = {
        "f": Feature.edge(v, z),
        "p": Feature.path((v, x, hub)),
        "v": Feature.vertex(v),
        "v_and": Feature.vertex(hub),
        "L": Feature.subcomplex(wall),
    }
    for n, (p_verts, f_edge) in enumerate(occ_feats, start=1):
        labels[f"occ{n}.p"] = Feature.path(p_verts)
        labels[f"occ{n}.f"] = Feature.edge(*f_edge)
    lc = LabeledComplex(Complex.from_facets(facets), labels)
    _check_gadget(lc, "literal house", 0, [frozenset(f_path)])
    return lc


# -- the three-free-edge house -------------------------------------------------


def build_three_house() -> LabeledComplex:
    """The clause house: three free edges, any two of which can be kept.

    Three quadrilateral wall disks are seamed in a cycle: the rim of
    wall i (its boundary minus the free door edge f_i) runs as an
    interior path of wall i-1, and all three rims share the edge ``e``
    at the star vertex ``v``.  Every rim edge therefore carries three
    triangles and only the doors stay free.  Collapsing in through any
    door consumes that wall, which drops the next wall's rim edges to a
    single triangle and lets the cascade continue around the cycle, so
    the house collapses onto the contact star no matter which two free
    edges are kept.  Labels: ``v``, ``e``, ``f1..f3``, and two-edge
    paths ``p1..p3`` with p_i meeting f_i in one vertex and missing the
    other free edges.

    Its postconditions include an exit through each door, checked by one
    collapse.  The door rotation fixes ``v`` and ``w`` and shifts each of
    the five rings (``alpha``, ``beta``, ``rim_b``, ``rim_c``, ``mid``)
    by one wall; ``_check_door_rotation`` checks that it is an
    automorphism of the house that takes f_i to f_(i+1), p_i to p_(i+1)
    and e to itself.  An automorphism maps a free face and its only
    facet to a free face and its only facet, so it maps a collapse onto
    a subcomplex to a collapse onto the image of that subcomplex.  It
    maps the kept set of door 1 (e, p1..p3, f2, f3) onto that of door 2
    (e, p2, p3, p1, f3, f1) and, applied twice, onto that of door 3.  So
    ``three_house_exit`` through door 1 alone proves all three exits.
    """
    v, w = 0, 1
    alpha = [2 + 5 * i for i in range(3)]
    beta = [3 + 5 * i for i in range(3)]
    rim_b = [4 + 5 * i for i in range(3)]
    rim_c = [5 + 5 * i for i in range(3)]
    mid = [6 + 5 * i for i in range(3)]

    facets: list[Face] = []
    for i in range(3):
        j = (i + 1) % 3
        a, b, bh, ch, m = alpha[i], beta[i], rim_b[i], rim_c[i], mid[i]
        # The next wall's rim rides through this wall's interior: its
        # door endpoints pp/ss and rim vertices qq/rr, with the edges
        # pp-qq, qq-w, v-rr, rr-ss carrying that rim.  No pp-ss edge, so
        # the next door stays free.
        pp, qq, rr, ss = beta[j], rim_b[j], rim_c[j], alpha[j]
        facets += [
            frozenset((a, b, pp)),
            frozenset((a, pp, m)),
            frozenset((m, pp, qq)),
            frozenset((b, bh, pp)),
            frozenset((pp, bh, qq)),
            frozenset((bh, w, qq)),
            frozenset((qq, w, ss)),
            frozenset((w, v, ss)),
            frozenset((v, ss, rr)),
            frozenset((m, qq, ss)),
            frozenset((m, ss, rr)),
            frozenset((m, rr, v)),
            frozenset((v, ch, m)),
            frozenset((ch, a, m)),
        ]

    labels: dict[str, Feature] = {
        "v": Feature.vertex(v),
        "e": Feature.edge(v, w),
    }
    for pos in (1, 2, 3):
        i = pos - 1
        labels[f"f{pos}"] = Feature.edge(alpha[i], beta[i])
        labels[f"p{pos}"] = Feature.path((v, mid[i], alpha[i]))

    lc = LabeledComplex(Complex.from_facets(facets), labels)
    _check_gadget(lc, "three-house", 0, [frozenset(door) for door in zip(alpha, beta)])
    _check_three_house_star(lc)
    rotate = {x: x for x in lc.complex.vertices}  # v and w stay
    for ring in (alpha, beta, rim_b, rim_c, mid):
        rotate.update(zip(ring, ring[1:] + ring[:1]))
    _check_door_rotation(lc, rotate)
    three_house_exit(lc, 1)
    return lc


def _check_door_rotation(lc: LabeledComplex, rotate: Mapping[int, int]) -> None:
    """``rotate``, a permutation of the three-house's vertices, must map
    its facets onto its facets, so it is an automorphism, and take each
    door's labels to the next door's: f_i to f_(i+1), p_i to p_(i+1)
    (indices mod 3), and e to itself."""
    facets = lc.complex.facets
    if {frozenset(map(rotate.__getitem__, f)) for f in facets} != facets:
        raise InternalError("three-house: the door rotation does not map facets onto facets")
    moves = [("e", "e")] + [(f"{x}{i}", f"{x}{i % 3 + 1}") for x in "fp" for i in (1, 2, 3)]
    for name, image in moves:
        if map_feature(lc.feature(name), rotate) != lc.feature(image):
            raise InternalError(f"three-house: the door rotation does not take {name} to {image}")


def _check_three_house_star(lc: LabeledComplex) -> None:
    """The union of e, p1..p3, f1..f3 must be a subdivided 4-ray star: e
    and each p_i then f_i are paths from the hub v that meet only at v."""
    hub = lc.feature("v").value[0]
    rays = [lc.feature("e").value]
    for pos in (1, 2, 3):
        p, f = lc.feature(f"p{pos}").value, lc.feature(f"f{pos}").value
        if p[-1] != f[0]:
            raise InternalError("p does not end at its free edge")
        rays.append(p + f[1:])
    rest = [x for ray in rays for x in ray[1:]]
    if any(ray[0] != hub for ray in rays) or len({hub, *rest}) != len(rest) + 1:
        raise InternalError("contact features do not form a 4-ray star")


def three_house_exit(lc: LabeledComplex, entry: int) -> tuple[CollapseSequence, Complex]:
    """Collapse the three-house ``lc`` once door ``f<entry>`` is free.

    Returns the witness and the kept subcomplex: the hub edge ``e``, all
    three two-edge paths, and the two doors other than ``entry``.  The
    build runs it through door 1 as a postcondition, and its door rotation
    carries that exit to the other two doors.  The collapse
    schedule keeps the same faces of each clause house, read off K_phi's
    own labels, with ``f_and`` in the place of ``e``.
    """
    names = ["e", "p1", "p2", "p3"] + [f"f{t}" for t in (1, 2, 3) if t != entry]
    kept = lc.subcomplex(*names)
    result = collapses_to(lc.complex, kept)
    if not result.yes:
        raise InternalError(
            f"three-house failed to collapse keeping all doors but f{entry}: {result.verdict}"
        )
    return result.witness, kept


# -- variable-side gadgets -------------------------------------------------------


def build_variable_sphere() -> LabeledComplex:
    """An octahedron split into two disks D[u] and D[~u] by a 4-cycle.

    Labels, for the placeholder variable ``u``: the equator path ``s(u)``,
    its marked vertex ``v(u)``, the two open disks ``D[u]`` / ``D[~u]``,
    and the spoke edges ``f[u]`` / ``f[~u]`` joining v(u) to the poles.
    """
    rim = [0, 1, 2, 3]
    pole_pos, pole_neg = 4, 5
    upper = [frozenset((pole_pos, rim[i], rim[(i + 1) % 4])) for i in range(4)]
    lower = [frozenset((pole_neg, rim[i], rim[(i + 1) % 4])) for i in range(4)]
    k = Complex.from_facets(upper + lower)
    labels = {
        "v(u)": Feature.vertex(0),
        "s(u)": Feature.path((0, 1, 2, 3, 0)),
        "f[u]": Feature.edge(0, pole_pos),
        "f[~u]": Feature.edge(0, pole_neg),
        "D[u]": Feature.subcomplex(upper),
        "D[~u]": Feature.subcomplex(lower),
    }
    if is_pseudomanifold(k) != "closed":
        raise InternalError("variable sphere is not a closed pseudomanifold")
    lc = LabeledComplex(k, labels)
    _check_gadget(lc, "variable sphere", 1, ())
    return lc


def build_O() -> LabeledComplex:
    """The pinched annulus tying a variable sphere to the conjunction hub.

    A strip of five triangles whose boundary is the disjoint-but-for-v(u)
    union of the 4-cycle ``s(u)`` and the 3-cycle ``b(u)`` + ``p(u)``:
    ``b(u)`` is a single edge from ``v_and`` to ``v(u)`` and ``p(u)`` a
    two-edge path back.  Its link at v(u) has two components; both circles
    get filled by neighbouring gadgets in the assembled complex.  No
    vertex lies in a single triangle, so its free faces are exactly these
    boundary edges.
    """
    c0, c1, c2, c3 = 0, 1, 2, 3
    hub, x = 4, 5
    facets = [
        frozenset((c0, c1, hub)),
        frozenset((c1, c2, hub)),
        frozenset((hub, c2, x)),
        frozenset((c2, c3, x)),
        frozenset((x, c3, c0)),
    ]
    k = Complex.from_facets(facets)
    labels = {
        "v(u)": Feature.vertex(c0),
        "v_and": Feature.vertex(hub),
        "s(u)": Feature.path((c0, c1, c2, c3, c0)),
        "b(u)": Feature.edge(hub, c0),
        "p(u)": Feature.path((c0, x, hub)),
    }
    lc = LabeledComplex(k, labels)
    boundary = [e for n in ("s(u)", "b(u)", "p(u)") for e in lc.feature(n).edge_list()]
    _check_gadget(lc, "O gadget", -1, boundary, pinched=(c0,))
    return lc


# -- amalgamation ----------------------------------------------------------------


def map_feature(feat: Feature, vmap: Mapping[int, int]) -> Feature:
    """Rewrite a feature through a vertex map."""
    image = vmap.__getitem__
    if feat.kind == "subcomplex":
        return Feature.subcomplex(map(image, f) for f in feat.value)
    return Feature(feat.kind, tuple(map(image, feat.value)))


def _pairing(fa: Feature, fb: Feature, what: str) -> list[tuple[int, int]]:
    """Positional vertex pairs induced by identifying two features."""
    if fa.kind != fb.kind:
        raise InternalError(f"{what}: cannot identify a {fa.kind} with a {fb.kind}")
    if fa.kind == "subcomplex":
        raise InternalError(f"{what}: subcomplex features cannot be identified")
    if len(fa.value) != len(fb.value):
        raise InternalError(
            f"{what}: features have {len(fa.value)} and {len(fb.value)} vertices"
        )
    return list(zip(fa.value, fb.value))


def _amalgamate_with_maps(
    parts: Sequence[tuple[str, LabeledComplex]],
    identifications: Sequence[tuple[str, str, str, str]],
) -> tuple[Complex, dict[str, dict[int, int]], frozenset[int], dict[str, list[Face]]]:
    """Quotient labeled parts along feature identifications
    ``(part_a, label_a, part_b, label_b)``: the two features must have the
    same kind and vertex count and merge positionally, and faces of two
    parts may coincide only inside identified features.  Returns the
    merged complex, without labels, the vertex map of each part into it,
    the glued vertices (those with two or more preimages), and the mapped
    facets of each part.  Callers map the labels they need through the
    maps, and label a whole part by its mapped facets.  The vertex classes
    are one ``parent`` map whose ``find`` halves paths; each class is
    numbered when the parts' vertices first reach it, whatever its root.

    What the parts fix is not checked again here; the glue checks what
    gluing can break.

    * Injectivity, at the glue: no part has two of its vertices merged.
    * Faces, from the parts: each part maps injectively, so its mapped
      faces are closed under subsets and the faces of the union are
      exactly the mapped faces of all parts.
    * Facets, from the parts: when the facets of all parts have one size
      s, every part is pure, so its faces of size s are its facets, and
      the faces of size s of the union are the mapped facets of the
      parts.  No face has more than s vertices, so these are exactly the
      facets of the union, and they are recorded with no pass over the
      faces.  With mixed sizes the facets stay lazy.
    * Overlaps, at the glue: each part maps injectively, so a face of
      two or more parts is among the faces mapped so far when the second
      of them is mapped.  One set intersection per part finds them, and
      each nonempty one must lie in an identified feature.
    * Glued vertices, from the overlaps: the two preimages of a vertex
      lie in two parts, as each part maps injectively, so the vertex is
      a face of both and in ``overlap``.
    * The mapped facets of a part are the objects the merged face set
      holds when they have three or more vertices.  A set keeps the first
      of two equal objects added, so a facet's image is held unless an
      earlier part has an equal face, an overlap; but overlaps lie in
      identified features, vertices, edges and paths, whose faces have at
      most two vertices.
    """
    table = dict(parts)
    if len(table) != len(parts):
        raise InternalError("part names must be unique")
    parent: dict = {}

    def find(x):
        while parent.get(x, x) != x:
            parent[x] = x = parent.get(parent[x], parent[x])
        return x

    shared: dict[tuple[str, str], Feature] = {}
    for pa, la, pb, lb in identifications:
        for p in (pa, pb):
            if p not in table:
                raise InternalError(f"identification names unknown part {p!r}")
        what = f"{pa}.{la} <-> {pb}.{lb}"
        fa, fb = table[pa].feature(la), table[pb].feature(lb)
        for va, vb in _pairing(fa, fb, what):
            parent[find((pb, vb))] = find((pa, va))
        shared[pa, la] = fa

    vmaps: dict[str, dict[int, int]] = {}
    ids: dict = {}
    for name, lc in parts:
        vmap: dict[int, int] = {}
        seen: dict[int, int] = {}
        for v in lc.complex.vertices:
            mv = vmap[v] = ids.setdefault(find((name, v)), len(ids))
            if mv in seen:
                raise InternalError(
                    f"identifications merge vertices {seen[mv]} and {v} of part {name!r}"
                )
            seen[mv] = v
        vmaps[name] = vmap

    # The two features of an identification merge positionally, so they
    # map to the same faces: one side of each is expanded, and a feature
    # identified several times, like O(u)'s p(u), once.
    allowed: set[Face] = set()
    for (pname, _), feat in shared.items():
        allowed |= map_feature(feat, vmaps[pname]).face_set()
    faces: set[Face] = set()
    overlap: set[Face] = set()
    part_facets: dict[str, list[Face]] = {}
    for name, lc in parts:
        image = vmaps[name].__getitem__
        top = lc.complex.facets
        mapped = [frozenset(map(image, face)) for face in chain(top, lc.complex.faces - top)]
        part_facets[name] = mapped[: len(top)]
        overlap |= faces.intersection(mapped)
        faces.update(mapped)
    overlap.discard(frozenset())
    collisions = sorted_face_keys(overlap - allowed)
    if collisions:
        raise InternalError(
            f"parts overlap outside the declared identifications: {collisions[:8]}"
        )
    glued = frozenset(chain.from_iterable(f for f in overlap if len(f) == 1))

    tops = list(chain.from_iterable(part_facets.values()))
    facets = tops if len(set(map(len, tops))) == 1 else None
    return Complex.from_faces(faces, facets), vmaps, glued, part_facets
