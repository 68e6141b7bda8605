"""Gadget meshes: Bing-house variants, marked spheres, and small fixtures.

The houses here are triangulated Bing houses (a box with two rooms whose
only free faces are the edges subdividing one marked boundary edge ``f``).
Each house is assembled from three layers:

* a *lower wall* ``L``: a triangulated disk carrying ``f`` on its boundary
  together with any requested interior attachment features,
* a *fan* over the rest of the boundary of ``L`` from a fresh apex, and
* a *cap*: a modified dunce hat whose subdivided free edge is glued onto
  the path contact--apex--far, closing every face of ``L`` except ``f``.

The lower wall is meshed as a flower of ladders around a hub, which scales
to any number of attachment rays.  All builders machine-check their
advertised postconditions (purity, exact free-face set, link connectivity,
reduced Euler characteristic) and raise :class:`GadgetError` on any
violation, so a constructed gadget is trustworthy by construction.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from shellkit.collapse import CollapseSequence, collapses_to, free_faces
from shellkit.complex_core import (
    Complex,
    Face,
    Feature,
    LabeledComplex,
    UnionFind,
    boundary_ridges,
    face_key,
    is_pseudomanifold,
    subfaces,
    vertex_links_connected,
)


class GadgetError(ValueError):
    """A gadget construction violated one of its checked postconditions."""


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
        raise GadgetError("boundary_simplex needs d >= 1")
    return Complex.from_facets(subfaces(range(d + 1), [d]))


@functools.lru_cache(maxsize=1)
def fixtures() -> dict[str, LabeledComplex]:
    """Named small complexes used across tests and the CLI."""
    out = {
        "modified_dunce_hat": modified_dunce_hat(),
        "dunce_hat": LabeledComplex(dunce_hat(), {}),
        "torus_7": LabeledComplex(torus_7(), {}),
    }
    for d in (2, 3, 4):
        out[f"boundary_delta_{d}"] = LabeledComplex(boundary_simplex(d), {})
    return out


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
        raise GadgetError("an open flower needs at least two rays")
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
        raise GadgetError("a closed flower needs at least three rays")
    tris = _open_flower(hub, rays)
    tris.extend(_ladder(hub, rays[-1], rays[0]))
    return tris


# -- house assembly ------------------------------------------------------------


@dataclass(frozen=True)
class HouseAttachment:
    """A named feature requested inside a house's lower wall.

    The feature is a path of ``edges`` edges starting at the anchor vertex
    and running into the interior of the lower wall; with ``edges == 1`` it
    is a single interior edge at the anchor.
    """

    name: str
    edges: int = 1


@dataclass(frozen=True)
class OneHouseSpec:
    """Build plan for a one-free-edge house.

    ``free_edge_subdivisions`` is the number of edges in the free arc
    ``f``.  Attachments all start at the anchor endpoint of ``f`` and stay
    interior to the lower wall otherwise.
    """

    free_edge_subdivisions: int = 1
    attachments: tuple[HouseAttachment, ...] = ()

    def validate(self) -> None:
        if self.free_edge_subdivisions < 1:
            raise GadgetError("free edge needs at least one edge")
        seen = set()
        for att in self.attachments:
            if not att.name or att.name.startswith("_"):
                raise GadgetError(f"bad attachment name: {att.name!r}")
            if att.name in seen or att.name in ("f", "anchor", "L"):
                raise GadgetError(f"duplicate or reserved attachment name: {att.name}")
            if att.edges < 1:
                raise GadgetError("attachment needs at least one edge")
            seen.add(att.name)


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
        raise GadgetError("rim path must share both endpoints with the free arc")
    apex = next_id
    fresh = [next_id + 1 + i for i in range(5)]
    fan = [
        frozenset((apex, rim_path[t], rim_path[t + 1]))
        for t in range(len(rim_path) - 1)
    ]
    return wall + fan + _cap_facets(contact, apex, far, fresh)


def _path_feature(vertices: Sequence[int]) -> Feature:
    if len(vertices) == 2:
        return Feature.edge(*vertices)
    return Feature.path(vertices)


def _check_house(lc: LabeledComplex, arc_edges: set[Face], what: str) -> None:
    k = lc.complex
    if not k.is_pure(2):
        raise GadgetError(f"{what}: not pure 2-dimensional")
    free = {f for f, _ in free_faces(k)}
    if free != arc_edges:
        raise GadgetError(
            f"{what}: free faces {sorted(map(face_key, free))} != "
            f"expected {sorted(map(face_key, arc_edges))}"
        )
    ok, failing = vertex_links_connected(k)
    if not ok:
        raise GadgetError(f"{what}: disconnected links at {failing}")
    if k.reduced_euler_characteristic() != 0:
        raise GadgetError(f"{what}: reduced Euler characteristic is not 0")


def build_one_house(spec: OneHouseSpec) -> LabeledComplex:
    """A house whose free faces are exactly the edges subdividing ``f``.

    Labels: ``f`` (the free arc), ``anchor`` (the wall-boundary endpoint of
    ``f`` where attachments start), ``L`` (the lower-wall subcomplex) and
    one label per requested attachment.
    """
    spec.validate()
    j = spec.free_edge_subdivisions
    hub = 0
    arc = list(range(1, j + 1))
    next_id = j + 1
    rays: list[list[int]] = [arc]
    attach_feats: list[tuple[str, list[int]]] = []
    for att in spec.attachments:
        chain = list(range(next_id, next_id + att.edges))
        pad = next_id + att.edges
        rays.append(chain + [pad])
        attach_feats.append((att.name, [hub] + chain))
        next_id = pad + 1
    guard = next_id
    rays.append([guard])
    next_id += 1

    wall = _open_flower(hub, rays)
    tips = [r[-1] for r in rays]
    rim = tips + list(reversed(rays[-1][:-1])) + [hub]
    f_path = [hub] + arc
    facets = _assemble_house(wall, f_path, rim, next_id)

    labels = {
        "f": _path_feature(f_path),
        "anchor": Feature.vertex(hub),
        "L": Feature.subcomplex(map(face_key, wall)),
    }
    for name, verts in attach_feats:
        labels[name] = _path_feature(verts)
    lc = LabeledComplex(Complex.from_facets(facets), labels)
    arc_edges = {frozenset(e) for e in zip(f_path, f_path[1:])}
    _check_house(lc, arc_edges, "one-house")
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
        raise GadgetError("occurrence count cannot be negative")
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
        "L": Feature.subcomplex(map(face_key, wall)),
    }
    for n, (p_verts, f_edge) in enumerate(occ_feats, start=1):
        labels[f"occ{n}.p"] = Feature.path(p_verts)
        labels[f"occ{n}.f"] = Feature.edge(*f_edge)
    lc = LabeledComplex(Complex.from_facets(facets), labels)
    _check_house(lc, {frozenset(f_path)}, "literal house")
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
    other free edges.  The house is built and checked once per process,
    and its postconditions include ``three_house_exit`` through each door.
    """
    return _three_house()


@functools.lru_cache(maxsize=1)
def _three_house() -> LabeledComplex:
    """The one build behind ``build_three_house``."""
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
    free_edges = set()
    for pos in (1, 2, 3):
        i = pos - 1
        labels[f"f{pos}"] = Feature.edge(alpha[i], beta[i])
        labels[f"p{pos}"] = Feature.path((v, mid[i], alpha[i]))
        free_edges.add(frozenset((alpha[i], beta[i])))

    lc = LabeledComplex(Complex.from_facets(facets), labels)
    _check_house(lc, free_edges, "three-house")
    _check_three_house_star(lc)
    for entry in (1, 2, 3):
        three_house_exit(lc, entry)
    return lc


def _check_three_house_star(lc: LabeledComplex) -> None:
    """The union of e, p1..p3, f1..f3 must be a subdivided 4-ray star."""
    edges: set[Face] = set(lc.feature("e").edge_list())
    for pos in (1, 2, 3):
        p = lc.feature(f"p{pos}")
        f = lc.feature(f"f{pos}")
        if p.value[-1] != f.value[0]:
            raise GadgetError("p does not end at its free edge")
        edges.update(p.edge_list())
        edges.update(f.edge_list())
    hub = lc.feature("v").value[0]
    degree: dict[int, int] = {}
    for e in edges:
        for vtx in e:
            degree[vtx] = degree.get(vtx, 0) + 1
    if len(edges) != 10 or degree.get(hub) != 4:
        raise GadgetError("contact features do not form a 4-ray star")
    if sorted(degree.values()) != sorted([4] + [2] * 6 + [1] * 4):
        raise GadgetError("contact features do not form a subdivided star")


def _features_complex(lc: LabeledComplex, names: Iterable[str]) -> Complex:
    """The subcomplex that the closures of the named features span."""
    faces: set[Face] = set()
    for name in names:
        faces |= lc.feature(name).face_set()
    return Complex.from_faces(faces)


def three_house_exit(lc: LabeledComplex, entry: int) -> tuple[CollapseSequence, Complex]:
    """Collapse the three-house ``lc`` once door ``f<entry>`` is free.

    Returns the witness and the kept subcomplex: the hub edge ``e``, all
    three two-edge paths, and the two doors other than ``entry``.  The
    build runs it through every door as a postcondition.  The collapse
    schedule keeps the same faces of each clause house, read off K_phi's
    own labels, with ``f_and`` in the place of ``e``.
    """
    names = ["e", "p1", "p2", "p3"] + [f"f{t}" for t in (1, 2, 3) if t != entry]
    kept = _features_complex(lc, names)
    result = collapses_to(lc.complex, kept)
    if not result.yes:
        raise GadgetError(
            f"three-house failed to collapse keeping all doors but f{entry}: {result.verdict}"
        )
    return result.witness, kept


# -- variable-side gadgets -------------------------------------------------------


def build_variable_sphere(u: str) -> LabeledComplex:
    """An octahedron split into two disks D[u] and D[~u] by a 4-cycle.

    Labels (for variable name ``u``): the equator path ``s(u)``, its
    marked vertex ``v(u)``, the two open disks ``D[u]`` / ``D[~u]``, and
    the spoke edges ``f[u]`` / ``f[~u]`` joining v(u) to the two poles.
    """
    rim = [0, 1, 2, 3]
    pole_pos, pole_neg = 4, 5
    upper = [frozenset((pole_pos, rim[i], rim[(i + 1) % 4])) for i in range(4)]
    lower = [frozenset((pole_neg, rim[i], rim[(i + 1) % 4])) for i in range(4)]
    k = Complex.from_facets(upper + lower)
    labels = {
        f"v({u})": Feature.vertex(0),
        f"s({u})": Feature.path((0, 1, 2, 3, 0)),
        f"f[{u}]": Feature.edge(0, pole_pos),
        f"f[~{u}]": Feature.edge(0, pole_neg),
        f"D[{u}]": Feature.subcomplex(map(face_key, upper)),
        f"D[~{u}]": Feature.subcomplex(map(face_key, lower)),
    }
    lc = LabeledComplex(k, labels)
    if is_pseudomanifold(k) != "closed":
        raise GadgetError("variable sphere is not a closed pseudomanifold")
    if k.reduced_euler_characteristic() != 1:
        raise GadgetError("variable sphere must have reduced Euler characteristic 1")
    if free_faces(k):
        raise GadgetError("variable sphere must have no free faces")
    return lc


def build_O(u: str) -> LabeledComplex:
    """The pinched annulus tying a variable sphere to the conjunction hub.

    A strip of five triangles whose boundary is the disjoint-but-for-v(u)
    union of the 4-cycle ``s(u)`` and the 3-cycle ``b(u)`` + ``p(u)``:
    ``b(u)`` is a single edge from ``v_and`` to ``v(u)`` and ``p(u)`` a
    two-edge path back.  Its link at v(u) has two components; both circles
    get filled by neighbouring gadgets in the assembled complex.
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
        f"v({u})": Feature.vertex(c0),
        "v_and": Feature.vertex(hub),
        f"s({u})": Feature.path((c0, c1, c2, c3, c0)),
        f"b({u})": Feature.edge(hub, c0),
        f"p({u})": Feature.path((c0, x, hub)),
    }
    lc = LabeledComplex(k, labels)
    if not k.is_pure(2):
        raise GadgetError("O gadget is not pure")
    if k.reduced_euler_characteristic() != -1:
        raise GadgetError("O gadget must have reduced Euler characteristic -1")
    boundary = set(boundary_ridges(k))
    wanted = set(lc.feature(f"s({u})").edge_list())
    wanted |= set(lc.feature(f"b({u})").edge_list())
    wanted |= set(lc.feature(f"p({u})").edge_list())
    if boundary != wanted:
        raise GadgetError("O gadget boundary is not s + b + p")
    ok, failing = vertex_links_connected(k)
    if ok or tuple(failing) != (c0,):
        raise GadgetError("O gadget must be pinched exactly at v(u)")
    return lc


# -- amalgamation ----------------------------------------------------------------


def map_feature(feat: Feature, vmap: Mapping[int, int]) -> Feature:
    """Rewrite a feature through a vertex map."""
    if feat.kind == "vertex":
        return Feature.vertex(vmap[feat.value[0]])
    if feat.kind == "edge":
        return Feature.edge(vmap[feat.value[0]], vmap[feat.value[1]])
    if feat.kind == "path":
        return Feature.path(vmap[v] for v in feat.value)
    return Feature.subcomplex(tuple(vmap[v] for v in f) for f in feat.value)


def _pairing(fa: Feature, fb: Feature, what: str) -> list[tuple[int, int]]:
    """Positional vertex pairs induced by identifying two features."""
    if fa.kind != fb.kind:
        raise GadgetError(f"{what}: cannot identify a {fa.kind} with a {fb.kind}")
    if fa.kind == "subcomplex":
        raise GadgetError(f"{what}: subcomplex features cannot be identified")
    if len(fa.value) != len(fb.value):
        raise GadgetError(
            f"{what}: features have {len(fa.value)} and {len(fb.value)} vertices"
        )
    return list(zip(fa.value, fb.value))


def _amalgamate_with_maps(
    parts: Sequence[tuple[str, LabeledComplex]],
    identifications: Sequence[tuple[str, str, str, str]],
) -> tuple[Complex, dict[str, dict[int, int]]]:
    """Quotient labeled parts along feature identifications
    ``(part_a, label_a, part_b, label_b)``: the two features must have the
    same kind and vertex count and merge positionally, and faces of two
    parts may coincide only inside identified features.  Returns the
    merged complex, without labels, and the vertex map of each part into
    it; callers map the labels they need through the maps.
    """
    table = dict(parts)
    if len(table) != len(parts):
        raise GadgetError("part names must be unique")
    uf = UnionFind()
    shared_feats: list[tuple[str, Feature]] = []
    for pa, la, pb, lb in identifications:
        for p in (pa, pb):
            if p not in table:
                raise GadgetError(f"identification names unknown part {p!r}")
        what = f"{pa}.{la} <-> {pb}.{lb}"
        fa, fb = table[pa].feature(la), table[pb].feature(lb)
        for va, vb in _pairing(fa, fb, what):
            uf.union((pa, va), (pb, vb))
        shared_feats.append((pa, fa))
        shared_feats.append((pb, fb))

    vmaps: dict[str, dict[int, int]] = {}
    ids: dict = {}
    for name, lc in parts:
        vmap: dict[int, int] = {}
        for v in lc.complex.vertices:
            root = uf.find((name, v))
            if root not in ids:
                ids[root] = len(ids)
            vmap[v] = ids[root]
        if len(set(vmap.values())) != len(vmap):
            seen: dict[int, int] = {}
            for v, mv in vmap.items():
                if mv in seen:
                    raise GadgetError(
                        f"identifications merge vertices {seen[mv]} and {v} "
                        f"of part {name!r}"
                    )
                seen[mv] = v
        vmaps[name] = vmap

    allowed: set[Face] = set()
    for pname, feat in shared_feats:
        vmap = vmaps[pname]
        for face in feat.face_set():
            allowed.add(frozenset(vmap[v] for v in face))
    # Each part maps injectively, so its mapped faces are closed under
    # subsets and the faces of the union are exactly the keys of ``owners``.
    owners: dict[Face, set[str]] = {}
    for name, lc in parts:
        vmap = vmaps[name]
        for face in lc.complex.faces:
            if face:
                owners.setdefault(frozenset(vmap[v] for v in face), set()).add(name)
    collisions = sorted(
        (face_key(f) for f, who in owners.items() if len(who) > 1 and f not in allowed),
        key=lambda t: (len(t), t),
    )
    if collisions:
        raise GadgetError(
            f"parts overlap outside the declared identifications: {collisions[:8]}"
        )

    return Complex.from_faces(owners), vmaps

