"""Finite abstract simplicial complexes.

Faces are ``frozenset`` instances over integer vertex ids.  A complex is
held in one of two forms, which only :class:`Complex` tells apart.  The
closed form stores the full set of its faces (not just facets).  The
facets-only form stores the facets, records or counts its f-vector, and
derives the face set the first time something reads it;
:meth:`Complex.from_facets` of one facet size and every level of
:func:`subdivide_labeled` build it.  Each form has one membership rule,
``Complex._off``.  The empty face is a member of every nonempty complex,
which makes the reduced Euler characteristic a plain signed count over all
faces and gives the f-vector its leading ``f_{-1}`` entry.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, combinations, filterfalse, repeat
from math import factorial
from types import MappingProxyType
from typing import Collection, Iterable, Iterator, Mapping, Sequence

Face = frozenset

#: Refuse to close over facets larger than this (closure is 2**size faces).
MAX_FACET_SIZE = 16


class FormatError(ValueError):
    """Raised for malformed input: facet lines, DIMACS CNF, JSON documents or witnesses."""


class InternalError(RuntimeError):
    """An internal invariant failed: a fault of shellkit, not of its input."""


def face_key(face: Iterable[int]) -> tuple[int, ...]:
    """Deterministic sort key for a face: its sorted vertex tuple."""
    return tuple(sorted(face))


def face_sort_key(face: Iterable[int]) -> tuple:
    """Sort faces by dimension first, then lexicographically."""
    k = face_key(face)
    return (len(k), k)


def sorted_face_keys(faces: Iterable[Iterable[int]]) -> list[tuple[int, ...]]:
    """The ``face_key`` of each face, in ``face_sort_key`` order.  Each key
    is computed once: a stable sort by size after the lexicographic one."""
    keys = sorted(map(face_key, faces))
    keys.sort(key=len)
    return keys


def facets_of(faces: Collection[frozenset]) -> frozenset:
    """Facets of a closed face set: its inclusion-maximal faces, so none
    for the void complex and ∅ alone for the empty-face complex {∅}.  A
    non-maximal face of a closed face set has a coface one dimension up,
    so marking every codimension-1 subface finds them."""
    covered = set()
    for f in faces:
        if f:
            covered.update(f - {v} for v in f)
    return frozenset(f for f in faces if f not in covered)


def subfaces(facet: Collection[int], sizes: Iterable[int]) -> list[frozenset]:
    """The faces of ``facet`` with the given numbers of vertices, size by
    size in the order of ``sizes``, each size in no particular order.
    Every face enumeration but ``_faces_of_size``'s goes through it."""
    return [frozenset(c) for r in sizes for c in combinations(facet, r)]


def _faces_of_size(facets: Iterable[Sequence[int]], r: int) -> Iterator[tuple[int, ...]]:
    """Each r-subset of each of ``facets``, a tuple in its facet's order,
    so those of a key are keys: the one closure and count kernel."""
    return chain.from_iterable(map(combinations, facets, repeat(r)))


def _closure(facets: Collection[frozenset]) -> frozenset:
    """The faces that ``facets`` span, size by size; facets keep their objects."""
    faces = set(facets)
    for r in range(max(map(len, facets), default=0)):
        faces.update(map(frozenset, _faces_of_size(facets, r)))
    return frozenset(faces)


def _f_vector_of(facets: Collection[frozenset]) -> tuple[int, ...]:
    """The f-vector of the complex that one or more distinct ``facets``
    span, counted size by size: no larger face holds a largest facet, so
    those are counted as given."""
    top = max(map(len, facets))
    counts = [len(set().union(*facets))]
    counts += (len(set(map(frozenset, _faces_of_size(facets, r)))) for r in range(2, top))
    counts.append(sum(len(f) == top for f in facets))
    # For top <= 1 the vertices are the largest faces, or there are none.
    return (1, *counts[:top])


def ridge_holders(facets: Iterable[frozenset]) -> dict[frozenset, list[frozenset]]:
    """Each ridge of ``facets`` (a facet minus one vertex) mapped to the
    facets that hold it, in the order given.  This is the one ridge map
    of the package: a ridge's degree is the length of its list."""
    holders: dict[frozenset, list[frozenset]] = {}
    for f in facets:
        for v in f:
            holders.setdefault(f - {v}, []).append(f)
    return holders


def _stars(facets: Iterable[frozenset], vertices: Iterable[int]) -> dict[int, list[frozenset]]:
    """Each of ``vertices`` mapped to its star, the facets through it, in
    the order of ``facets``; a vertex of no facet gets an empty list.  The
    one vertex-star map of the package: one pass that skips every facet
    through none of the vertices."""
    stars: dict[int, list[frozenset]] = {v: [] for v in vertices}
    asked = frozenset(stars)
    for g in filterfalse(asked.isdisjoint, facets):
        for v in asked & g:
            stars[v].append(g)
    return stars


def _drop_holders(holders: dict, keys: Iterable[frozenset], gone: Collection[frozenset]) -> tuple:
    """Take the facets ``gone`` out of the lists of ``keys`` in ``holders``,
    a map like ``ridge_holders``'s, in place; returns the record for
    ``_put_back``.  A key left with no holders keeps an empty list, so the
    keys and their order stay, and a loop over the map may run on across
    the edit and its undo.  Each list is replaced, not edited, so a list
    read before the edit is left whole."""
    saved = {key: holders[key] for key in keys}
    holders.update((key, [g for g in around if g not in gone]) for key, around in saved.items())
    return holders, saved


def _put_back(*records: tuple) -> None:
    """Undo the ``_drop_holders`` calls that returned ``records``: the
    lists they replaced go back.  Edits of one map are undone in the
    reverse of their order."""
    for holders, saved in reversed(records):
        holders.update(saved)


def _validate_vertex(v) -> int:
    if type(v) is int:
        return v
    if isinstance(v, bool) or not isinstance(v, int):
        raise FormatError(f"vertex id must be an int, got {v!r}")
    return v


def _face_lists(raw, what: str) -> list:
    if not (isinstance(raw, list) and all(isinstance(f, list) for f in raw)):
        raise FormatError(f"{what} must be a list of faces, each a list of vertex ids")
    return raw


def read_faces(raw, what: str) -> list[frozenset]:
    """Faces from a JSON document: a list of lists of distinct int vertex
    ids.  Any other shape raises FormatError naming ``what``."""
    faces = [frozenset(map(_validate_vertex, f)) for f in _face_lists(raw, what)]
    for face, f in zip(raw, faces):
        if len(face) != len(f):
            raise FormatError(f"{what}: face {face} repeats a vertex")
    return faces


class Complex:
    """An immutable abstract simplicial complex.

    Construct through :meth:`from_facets` (validates) or :meth:`from_faces`
    (trusted input: the face set must already be closed under taking
    subsets).  The facets are the inclusion-maximal faces: the void
    complex has no face and no facet, and the empty face, which every
    other complex contains, is the one facet of the empty-face complex
    {∅}.  Its form (see the module docstring) is known to this class
    alone: every slot is set by ``__init__``, ``in`` and the label check
    ask :meth:`_off`, and the writers and the subdivision
    :meth:`_facet_keys`.  On the facets-only form only reading
    :attr:`faces`, equality, hashing and the removal of facets build the
    face set.
    """

    __slots__ = ("_faces", "_facets", "_vertices", "_dim", "_f_vector", "_keys")

    def __init__(
        self, faces: frozenset | None, facets=None, f_vector=None, keys=None, *, _trusted=False
    ):
        if not _trusted:
            raise TypeError("use Complex.from_facets or Complex.from_faces")
        self._faces = faces
        self._facets = None if facets is None else frozenset(facets)
        self._vertices = None
        self._dim = None
        self._f_vector = f_vector
        self._keys = keys

    # -- construction ---------------------------------------------------

    @classmethod
    def from_facets(cls, facets: Iterable[Iterable[int]]) -> "Complex":
        """The complex that a facet list spans: ``[]`` is the void complex
        and ``[[]]`` the empty-face complex, and an empty facet beside
        others lies in their closure.

        Rejects repeated vertices inside a facet and non-integer vertex
        ids; a repeat is kept once.  Distinct faces of one size are the
        facets, held in the facets-only form; with mixed sizes a face may
        lie in another, and the closure is built here.
        """
        given: set = set()
        for raw in facets:
            vs = list(map(_validate_vertex, raw))
            f = frozenset(vs)
            if len(f) != len(vs):
                raise FormatError(f"facet {vs} repeats a vertex")
            if len(vs) > MAX_FACET_SIZE:
                raise FormatError(f"facet with {len(vs)} vertices exceeds limit")
            given.add(f)
        if len(set(map(len, given))) == 1:
            return cls(None, given, _trusted=True)
        return cls(_closure(given), _trusted=True)

    @classmethod
    def from_faces(
        cls, faces: Iterable[frozenset], facets: Iterable[frozenset] | None = None
    ) -> "Complex":
        """Wrap an already-closed face set, adding ∅ only beside a nonempty
        face: ``[]`` is the void complex and ``[∅]`` the empty-face complex.

        The faces are copied into the frozenset the complex keeps (once
        more when ∅ is added).  ``facets``, when given, is trusted like
        the faces: it must be exactly their inclusion-maximal ones, and is
        recorded as :attr:`facets` so that no pass over the faces looks for
        them.
        """
        fs = frozenset(faces)
        if fs and frozenset() not in fs:
            fs |= {frozenset()}
        return cls(fs, facets, _trusted=True)

    @classmethod
    def _of_facets(cls, facets, f_vector: tuple[int, ...], keys: Mapping | None = None) -> Complex:
        """The facets-only form, trusted: ``facets`` are the facets of a
        complex whose f-vector is ``f_vector``; ``keys`` may map each to
        its ``face_key`` in ``face_sort_key`` order."""
        return cls(None, facets, f_vector, keys, _trusted=True)

    # -- basic queries ---------------------------------------------------

    @property
    def faces(self) -> frozenset:
        """Every face, the empty one included; on the facets-only form the
        closure of the facets, built the first time it is read."""
        if self._faces is None:
            self._faces = _closure(self._facets)
        return self._faces

    def _off(self, faces: Collection[frozenset]) -> set[frozenset]:
        """The faces of ``faces`` that the complex does not hold.  The closed
        form builds a set only when its one subset test fails.  The
        facets-only form holds the empty face, and a face below the facets
        when a facet in the star of its least vertex holds it.  Each call
        builds those stars by one :func:`_stars` pass over all facets, so
        that form is asked in batches, not one ``in`` at a time."""
        held, facets = self._faces, self._facets
        if held is not None:
            return set() if held.issuperset(faces) else {f for f in faces if f not in held}
        below = {f for f in faces if f and f not in facets}
        stars = _stars(facets, map(min, below))
        return {f for f in below if not any(map(f.issubset, stars[min(f)]))}

    def __contains__(self, face) -> bool:
        return not self._off([frozenset(face)])

    def __bool__(self) -> bool:
        return self._faces is None or bool(self._faces)

    def __len__(self) -> int:
        return sum(self.f_vector()) if self._faces is None else len(self._faces)

    def __eq__(self, other) -> bool:
        return isinstance(other, Complex) and self.faces == other.faces

    def __hash__(self) -> int:
        return hash(self.faces)

    def __repr__(self) -> str:
        return f"Complex(dim={self.dim}, facets={len(self.facets)})"

    @property
    def vertices(self) -> tuple[int, ...]:
        """The vertices in order: the union of the facets when they are
        recorded, else of the faces."""
        if self._vertices is None:
            faces = self._faces if self._facets is None else self._facets
            self._vertices = tuple(sorted(set().union(*faces)))
        return self._vertices

    @property
    def dim(self) -> int:
        """Largest face dimension; -1 for the void and empty-face complexes."""
        if self._dim is None:
            faces = self._faces if self._facets is None else self._facets
            self._dim = max(map(len, faces), default=0) - 1
        return self._dim

    @property
    def facets(self) -> frozenset:
        """Inclusion-maximal faces: recorded by :meth:`from_facets` when
        its facets all have one size, else found once by :func:`facets_of`."""
        if self._facets is None:
            self._facets = facets_of(self._faces)
        return self._facets

    def f_vector(self) -> tuple[int, ...]:
        """(f_{-1}, f_0, ..., f_d); the void complex reports (0,).  Counted
        once, from the faces or, facets-only, from the facets."""
        if self._f_vector is None:
            if self._faces is None:
                self._f_vector = _f_vector_of(self._facets)
            else:
                counts = Counter(map(len, self._faces))
                self._f_vector = tuple(counts[size] for size in range(max(counts, default=0) + 1))
        return self._f_vector

    def reduced_euler_characteristic(self) -> int:
        """Sum of (-1)^dim over every face, the empty face included."""
        return sum(c if size % 2 else -c for size, c in enumerate(self.f_vector()))

    def _facet_keys(self) -> list[tuple[int, ...]]:
        """Each facet's ``face_key`` in ``face_sort_key`` order: recorded, or sorted here."""
        return sorted_face_keys(self.facets) if self._keys is None else list(self._keys.values())

    def _keys_of(self, faces: Iterable[frozenset]) -> list[tuple[int, ...]]:
        """Each face's ``face_key``; a recorded facet's is looked up."""
        keys = self._keys or {}
        return [keys.get(f) or face_key(f) for f in faces]

    def is_pure(self, d: int | None = None) -> bool:
        """True when every facet has dimension ``d`` (default: ``self.dim``)."""
        d = self.dim if d is None else d
        return all(len(f) == d + 1 for f in self.facets)

    # perfbench traces this and tests/test_bench_hooks.py pins it, so it
    # leaves with the next benchmark change.
    def remove_facet(self, facet: Iterable[int]) -> "Complex":
        """Drop a single maximal face, keeping all of its proper faces."""
        return self.remove_facets([facet])

    def remove_facets(self, facets: Iterable[Iterable[int]]) -> "Complex":
        """Drop the given facets in order; a repeat or a face that is not a
        facet by its turn raises ``ValueError``.

        Removing facets keeps the face set closed, so a face is a facet by
        its turn when it is a facet here, or when each face one vertex
        bigger has already been dropped: the empty face once every vertex
        is, which leaves the void complex.
        """
        faces = self.faces
        removed: set = set()
        for raw in facets:
            f = frozenset(raw)
            covered = f not in self.facets and any(
                f | {v} in faces and f | {v} not in removed
                for v in self.vertices
                if v not in f
            )
            if f in removed or f not in faces or covered:
                raise ValueError(f"{face_key(f)} is not a facet")
            removed.add(f)
        return Complex(faces - removed, _trusted=True)


# -- joins and cones -------------------------------------------------------


def join(k: Complex, l: Complex) -> Complex:
    """Simplicial join: all unions of a face of ``k`` with a face of ``l``.

    The vertex sets must be disjoint.  Its facets are the unions of a
    facet of each, so the empty-face complex, whose one facet ∅ is the
    unit of ∪, is the join identity, and the void complex, with no facet,
    annihilates.
    """
    if set(k.vertices) & set(l.vertices):
        overlap = sorted(set(k.vertices) & set(l.vertices))
        raise ValueError(f"join requires disjoint vertex ids, shared: {overlap}")
    return Complex.from_facets(a | b for a in k.facets for b in l.facets)


def cone(k: Complex, ell: int = 0) -> Complex:
    """Join ``k`` with a full ``ell``-simplex on fresh vertex ids."""
    if ell < 0:
        raise ValueError("cone dimension must be >= 0")
    base = max(k.vertices, default=-1) + 1
    apex = Complex.from_facets([range(base, base + ell + 1)])
    return join(k, apex)


# -- pseudomanifold and link checks ----------------------------------------


def is_pseudomanifold(k: Complex) -> str:
    """Classify a pure complex by its ridge degrees.

    Returns ``"closed"`` (every (d-1)-face in exactly two facets),
    ``"with_boundary"`` (degrees one or two, at least one boundary ridge),
    or ``"no"`` (some ridge in three or more facets).  Raises on non-pure
    input.
    """
    if not k:
        raise ValueError("pseudomanifold check needs a nonempty complex")
    d = k.dim
    if not k.is_pure(d):
        raise ValueError("pseudomanifold check needs a pure complex")
    degrees = [len(fs) for fs in ridge_holders(k.facets).values()]
    if any(c > 2 for c in degrees):
        return "no"
    if all(c == 2 for c in degrees):
        return "closed"
    return "with_boundary"


def graph_connected(vertices: Iterable, adj: Mapping, seeds: Iterable | None = None) -> bool:
    """Connectivity of the graph that ``adj``, a map from a vertex to its
    neighbours, induces on the distinct ``vertices``: one breadth-first
    search from any of them, passing through them alone, must reach them
    all.  ``adj`` may name other vertices, which are skipped, and a vertex
    with no neighbours may be missing from it.  An empty or one-vertex
    graph counts as connected.

    With ``seeds``, some of the vertices, the answer is whether the seeds
    lie in one component: the search starts from a seed and stops as soon
    as it has met them all."""
    left = set(vertices)
    want = left if seeds is None else set(seeds)
    if not want:
        return True
    start = want.pop()
    left.discard(start)
    queue = [start]
    for x in queue:  # the loop reads what it appends: breadth first
        if not want:
            return True
        for y in adj.get(x, ()):
            if y in left:
                left.remove(y)
                want.discard(y)
                queue.append(y)
    return not want


def one_skeleton_connected(k: Complex) -> bool:
    """Connectivity of the graph of vertices and edges (void: True).  Every
    edge lies in a facet, and a facet's vertices are joined by its edges,
    so joining each facet's vertices to its first one gives the same
    components."""
    adj: dict[int, list] = {}
    for a, *rest in filter(None, k.facets):
        for b in rest:
            adj.setdefault(a, []).append(b)
            adj.setdefault(b, []).append(a)
    return graph_connected(k.vertices, adj)


def vertex_links_connected(
    k: Complex, vertices: Collection[int] | None = None
) -> tuple[bool, tuple[int, ...]]:
    """Check vertex links for 1-skeleton connectivity: every link, or only
    those of ``vertices``, some of ``k``'s vertices.

    Returns ``(ok, failing_vertices)``, the failing vertices in vertex
    order.  A link that is empty or a single vertex counts as connected.

    One :func:`_stars` pass over the facets collects the star of each
    vertex checked, and no other vertex gets any link data;
    :func:`_link_connected` then decides each link from its star.
    """
    check = k.vertices if vertices is None else sorted(vertices)
    stars = _stars(k.facets, check)
    bad = tuple(v for v in check if not _link_connected(v, stars[v]))
    return (not bad, bad)


def _link_connected(v: int, star: Sequence[frozenset]) -> bool:
    """Whether the 1-skeleton of the link of ``v`` is connected, read off
    ``star``, the facets through ``v``; an empty star counts as connected.

    The link of v is the union of the simplices F - v over the facets F of
    the star, and the 1-skeleton of each is connected, so the link's is
    connected exactly when these simplices chain together through shared
    vertices.  A set-growth merge decides it: start from the vertices of
    one facet of the star, add every facet that meets them, and repeat
    until a pass adds none; a facet left over lies in another component.
    Every facet of the star holds v, so v leaves the reached set after
    each merge; through v any two facets would meet.  No adjacency map is
    built per link: running :func:`graph_connected` on one costs about
    twice as much.
    """
    reach = set(star[0]) if star else set()
    reach.discard(v)
    rest = star[1:]
    while rest:
        left = []
        for f in rest:
            if reach.isdisjoint(f):
                left.append(f)
            else:
                reach.update(f)
                reach.discard(v)
        if len(left) == len(rest):
            return False
        rest = left
    return True


# -- barycentric subdivision ------------------------------------------------


@dataclass(frozen=True)
class Subdivision:
    """A subdivided complex plus the carrier table back to the original.

    ``vertex_carrier`` maps each new vertex id to the original face it
    subdivides (after composing through all levels).  It is composed the
    first time it is read: new vertex i is the barycenter of face i of
    ``_barycenters``, the face keys of the complex one level down, whose
    carriers come from ``_below``, the subdivision one level fewer (None at
    level 0, where each vertex carries itself).  The carrier of a new face
    is the union of its vertices' carriers, which is always an original
    face because carriers along a chain are nested.  Equality compares
    ``complex`` and ``levels`` only.
    """

    complex: Complex
    levels: int
    _below: "Subdivision | None" = field(default=None, repr=False, compare=False, kw_only=True)
    _barycenters: Sequence[tuple] = field(default=(), repr=False, compare=False, kw_only=True)

    @cached_property
    def vertex_carrier(self) -> Mapping[int, frozenset]:
        if self._below is None:
            return {v: frozenset([v]) for v in self.complex.vertices}
        return {i: self._below.face_carrier(f) for i, f in enumerate(self._barycenters)}

    def face_carrier(self, face: Iterable[int]) -> frozenset:
        return frozenset().union(*(self.vertex_carrier[v] for v in face))


def barycentric_subdivision(k: Complex, levels: int = 1) -> Subdivision:
    """Barycentric subdivision iterated ``levels`` times.

    ``levels=0`` returns an identity subdivision (each vertex carried by
    itself).  New vertex ids are assigned by sorting the subdivided faces
    by dimension then lexicographically, so the numbering is deterministic.
    """
    return subdivide_labeled(LabeledComplex(k, {}), levels)[1]


# -- canonical form ---------------------------------------------------------


# perfbench traces this and tests/test_bench_hooks.py pins it, so it
# leaves with the next benchmark change.
def canonical_form(k: Complex) -> tuple:
    """Hashable memoization key: equal keys imply isomorphic complexes.

    Vertices are colored by iterated refinement (facet-size profile, then
    neighbor color multisets over the 1-skeleton) and renamed in
    (color, original id) order.  The key is the renamed facet set.  The
    converse direction is not promised: isomorphic complexes with different
    ids may produce different keys, which only costs memo hits.
    """
    if not k:
        return ("void",)
    adj: dict[int, set[int]] = {}
    profile: dict[int, list[int]] = {}
    for facet in k.facets:
        for v in facet:
            adj.setdefault(v, set()).update(facet - {v})
            profile.setdefault(v, []).append(len(facet))
    verts = sorted(adj)
    color = {v: (tuple(sorted(profile[v])),) for v in verts}
    ranks = _rank_colors(color, verts)
    classes = len(set(ranks.values()))
    # Once every vertex has its own colour no round can split a class.
    while classes < len(verts):
        sig = {
            v: (ranks[v], tuple(sorted(ranks[u] for u in adj[v]))) for v in verts
        }
        new_ranks = _rank_colors(sig, verts)
        new_classes = len(set(new_ranks.values()))
        if new_classes == classes:
            break
        ranks, classes = new_ranks, new_classes
    order = sorted(verts, key=lambda v: (ranks[v], v))
    rename = {v: i for i, v in enumerate(order)}
    key = tuple(sorted(tuple(sorted(rename[v] for v in f)) for f in k.facets))
    return ("cx", key)


def _rank_colors(color: Mapping[int, tuple], verts: Iterable[int]) -> dict[int, int]:
    distinct = sorted(set(color.values()))
    rank = {c: i for i, c in enumerate(distinct)}
    return {v: rank[color[v]] for v in verts}


# -- labels -----------------------------------------------------------------

_FEATURE_KINDS = ("vertex", "edge", "path", "subcomplex")


@dataclass(frozen=True)
class Feature:
    """A named landmark inside a complex.

    kind "vertex": value is an int.
    kind "edge": value is an ordered vertex pair (orientation matters for
        amalgamation).
    kind "path": value is an ordered vertex tuple; closed paths repeat the
        first vertex at the end.
    kind "subcomplex": value is the frozenset of the frozenset faces whose
        closure it is (a repeat is held once); only :func:`to_json` orders them.
    """

    kind: str
    value: tuple | frozenset

    def __post_init__(self):
        if self.kind not in _FEATURE_KINDS:
            raise ValueError(f"unknown feature kind {self.kind!r}")
        if self.kind == "subcomplex":
            object.__setattr__(self, "value", frozenset(map(frozenset, self.value)))

    @classmethod
    def vertex(cls, v: int) -> "Feature":
        return cls("vertex", (v,))

    @classmethod
    def edge(cls, a: int, b: int) -> "Feature":
        return cls("edge", (a, b))

    @classmethod
    def path(cls, vs: Iterable[int]) -> "Feature":
        return cls("path", tuple(vs))

    @classmethod
    def subcomplex(cls, facets: Iterable[Iterable[int]]) -> "Feature":
        return cls("subcomplex", facets)

    def edge_list(self) -> list[frozenset]:
        """Edges traversed by a vertex (none), edge (one) or path feature."""
        if self.kind == "subcomplex":
            raise ValueError("subcomplex feature has no edge list")
        return [frozenset(p) for p in zip(self.value, self.value[1:])]

    def face_set(self) -> set[frozenset]:
        """Closure of the feature as a set of nonempty faces."""
        if self.kind == "subcomplex":
            return {g for facet in self.value for g in subfaces(facet, range(1, len(facet) + 1))}
        return {frozenset([v]) for v in self.value}.union(self.edge_list())


def _feature_faces(name: str, feat: Feature) -> Collection[frozenset]:
    """The faces that generate ``feat``, once it is checked to be well
    formed: the facets of a subcomplex, the edges of an edge or path, else
    the vertex.  A complex is closed under subsets, so it holds ``feat``
    exactly when it holds these.  Each step of an edge or path must join two distinct
    vertices, and each face of a subcomplex must be nonempty."""
    if feat.kind == "subcomplex":
        if frozenset() in feat.value:
            raise ValueError(f"label {name!r}: subcomplex has an empty face")
        return feat.value
    vs = feat.value
    if any(a == b for a, b in zip(vs, vs[1:])):
        raise ValueError(f"label {name!r}: a {feat.kind} step must join two distinct vertices")
    if feat.kind == "path":
        if len(vs) < 2:
            raise ValueError(f"label {name!r}: path needs at least two vertices")
        interior = vs[:-1] if vs[0] == vs[-1] else vs
        if len(set(interior)) != len(interior):
            raise ValueError(f"label {name!r}: path revisits a vertex")
    return feat.face_set() if feat.kind == "vertex" else feat.edge_list()


@dataclass(frozen=True)
class LabeledComplex:
    """A complex together with a name -> Feature landmark table, kept read-only."""

    complex: Complex
    labels: Mapping[str, Feature]

    def __post_init__(self):
        # One membership query for every label's faces.
        object.__setattr__(self, "labels", MappingProxyType(dict(self.labels)))
        wanted = {name: _feature_faces(name, feat) for name, feat in self.labels.items()}
        off = self.complex._off([*chain.from_iterable(wanted.values())])
        for name, faces in wanted.items():
            if not off.isdisjoint(faces):
                face = next(f for f in faces if f in off)
                raise ValueError(f"label {name!r}: face {face_key(face)} is not in the complex")

    def feature(self, name: str) -> Feature:
        if name not in self.labels:
            raise KeyError(f"no label {name!r}")
        return self.labels[name]

    def subcomplex(self, *names: str) -> Complex:
        """The closure of the named features, of any kind."""
        faces: set[frozenset] = set()
        for name in names:
            faces |= self.feature(name).face_set()
        return Complex.from_faces(faces)


def subdivide_labeled(lc: LabeledComplex, levels: int = 1) -> tuple[LabeledComplex, Subdivision]:
    """Subdivide a labeled complex, mapping every label through.

    Vertices map to vertices, edges to two-edge paths, paths to paths twice
    as long, and subcomplexes to their carrier preimage (one level at a
    time).  A mapped label that fails validation is a fault of this map,
    an ``InternalError``.

    Each level numbers the nonempty faces of its input K in
    ``face_sort_key`` order: vertex i of sd K is the barycenter of face i,
    and a face of sd K is a chain of faces of K, the increasing tuple of
    their numbers, which is its ``face_key``.  The faces of K are the
    subsets of its facets' keys, which level 0 sorts and each later level
    reads as the level below recorded them, so no level builds a closure.
    Only full flags are made; those of the facets of K are the facets of
    sd K, held facets-only with their keys recorded in ``face_sort_key``
    order, and labels share their frozensets.  The f-vector is counted:

        f_j(sd K) = sum over s of f_s(K) * j! * S(s, j),

    for j >= 1, where f_s counts the faces of s vertices, S(s, j) is a
    Stirling number of the second kind, and f_{-1}(sd K) = 1.  Proof: the
    chains g_1 < ... < g_j = g of j nonempty faces topped by an s-vertex
    face g are in bijection with the ordered partitions of g into j
    blocks.  A chain gives the blocks g_1, g_2 - g_1, ..., g_j - g_{j-1},
    each nonempty because the inclusions are strict; the blocks give back
    the chain of their prefix unions, each a subset of g and so a face of
    K.  There are S(s, j) partitions of an s-set into j blocks, and j!
    orders of each; summing over the faces g of K counts every chain once,
    by its top.
    """
    if levels < 0:
        raise ValueError("levels must be >= 0")
    current = lc
    overall = Subdivision(lc.complex, 0)
    for level in range(levels):
        k = current.complex
        top = k._facet_keys()
        # The key of every nonempty face of k in face_sort_key order: size by size, each sorted.
        keys = [g for r in range(1, k.dim + 2) for g in sorted(set(_faces_of_size(top, r)))]
        flags = _chains(keys)
        # The full flags of the facets of k are the facets of sd k.  The void
        # complex and {∅} have only the empty chain: sd of either is {∅}.
        facets = [c for f in top for c in flags[f]] or [()]
        # face_sort_key order, with no per-face sort: each flag is its key.
        facets.sort()
        facets.sort(key=len)
        own = {c: frozenset(c) for c in facets}
        labels = {
            name: _map_feature_once(feat, k, flags, own) for name, feat in current.labels.items()
        }
        # The labels are mapped, so every lower flag can go before sd is built.
        del flags
        # Each facet with its key, in face_sort_key order; the reverse map goes first.
        keyed = {f: c for c, f in own.items()}
        del own
        sd = Complex._of_facets(keyed, _sd_f_vector(k.f_vector()), keyed)
        try:
            current = LabeledComplex(sd, labels)
        except ValueError as exc:
            # The labels of a validated LabeledComplex map to valid labels.
            raise InternalError(f"subdivided {exc}") from None
        overall = Subdivision(sd, level + 1, _below=overall, _barycenters=keys)
    return current, overall


def _sd_f_vector(fk: tuple[int, ...]) -> tuple[int, ...]:
    """The f-vector of sd K from the f-vector ``fk`` of K:
    f_j(sd K) = sum over s of fk[s] * j! * S(s, j), proved in
    :func:`subdivide_labeled`.  S(s, j) comes from the recurrence
    S(s, j) = j S(s - 1, j) + S(s - 1, j - 1), with S(0, 0) = 1."""
    stirling = [[1]]
    for s in range(1, len(fk)):
        prev = stirling[-1] + [0]
        stirling.append([0] + [j * prev[j] + prev[j - 1] for j in range(1, s + 1)])
    return (1,) + tuple(
        factorial(j) * sum(fk[s] * stirling[s][j] for s in range(j, len(fk)))
        for j in range(1, len(fk))
    )


def _chains(keys: list[tuple[int, ...]]) -> dict[tuple, list[tuple]]:
    """Each face of K by its key in ``keys``, the keys of all its nonempty
    faces in ``face_sort_key`` order, mapped to its full flags: the chains
    with one face of each size up to it, as tuples of positions in ``keys``.

    A full flag of g is a full flag of a ridge of g (its key less one
    entry) with g's position appended; the one flag of the empty face is
    the empty chain, so a vertex's is its position alone.  Ridges come
    first in ``keys``, so one pass makes every flag once; g's position is
    the largest, so appending it keeps a flag an increasing tuple, its key.
    """
    flags: dict[tuple[int, ...], list[tuple[int, ...]]] = {(): [()]}
    for i, g in enumerate(keys):
        top, ridges = (i,), (g[:j] + g[j + 1 :] for j in range(len(g)))
        flags[g] = [c + top for h in ridges for c in flags[h]]
    return flags


def _map_feature_once(feat: Feature, k: Complex, flags: Mapping, own: Mapping) -> Feature:
    """``feat``, a label of ``k``, mapped onto sd k through ``flags``, the
    full flags of each face of ``k`` by its key; a flag in ``own`` maps to
    sd's frozenset."""

    def vid(face) -> int:
        # The barycenter of a face is the top of each of its flags, their last position.
        return flags[face_key(face)][0][-1]

    if feat.kind == "vertex":
        return Feature.vertex(vid(feat.value))
    if feat.kind in ("edge", "path"):
        # An edge (a, b) maps like the two-vertex path: a, ab, b.
        vs = feat.value
        out = [vid(vs[:1])]
        for a, b in zip(vs, vs[1:]):
            out.append(vid((a, b)))
            out.append(vid((b,)))
        return Feature.path(out)
    # The maximal chains inside a closure are the full flags of its facets.
    # Faces of one size are already the facets of their closure, so only
    # a label with mixed sizes needs the closure.
    facets = feat.value
    if len(set(map(len, facets))) > 1:
        facets = Complex.from_facets(facets).facets
    return Feature.subcomplex(own.get(c, c) for g in k._keys_of(facets) for c in flags[g])


# -- serialization -----------------------------------------------------------


def parse_facet_lines(text: str) -> Complex:
    """Facet-list text: one facet per line, whitespace-separated vertex ids.

    ``#`` starts a comment; blank lines are skipped.  A line that is not
    ASCII or holds ``_`` is refused, so an id is a sign and ASCII digits.
    """
    facets = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if not line.isascii() or "_" in line:
            raise FormatError(f"line {lineno}: vertex ids must be ASCII digits")
        try:
            facets.append([int(tok) for tok in line.split()])
        except ValueError as exc:
            raise FormatError(f"line {lineno}: {exc}") from None
    return Complex.from_facets(facets)


def format_facet_lines(k: Complex) -> str:
    """Facet-list text, one line per facet in ``face_sort_key`` order.  It
    has no line for the empty face, so the empty-face complex {∅} raises
    ``ValueError``; JSON writes it."""
    keys = k._facet_keys()
    if keys == [()]:
        raise ValueError("facet lines cannot hold the empty-face complex {∅}; write it as JSON")
    lines = [" ".join(map(str, key)) for key in keys]
    return "\n".join(lines) + "\n"


#: The most items :func:`to_json` hands the JSON encoder in one call.
_BATCH = 512
_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def to_json(lc: LabeledComplex | Complex) -> str:
    """Canonical JSON for a (labeled) complex; round-trips bit-exactly.
    The one place that orders a subcomplex label's faces: by ``face_key``.

    The text is the compact, key-sorted ``json.dumps`` of {"facets": the
    sorted face keys, "labels": {name: {"kind", "value"}}, "vertices":
    [{"id": v}, ...]} and a newline, but no such tree is built: each label
    is one entry, and at most ``_BATCH`` items go to the encoder per call."""
    if isinstance(lc, Complex):
        lc = LabeledComplex(lc, {})
    k = lc.complex
    parts = ['{"facets":[', *_array_items(k._facet_keys())]
    parts += ('],"labels":{', ",".join(_label_entries(lc.labels, k)), '},"vertices":[')
    parts += _array_items(k.vertices, lambda batch: [{"id": v} for v in batch])
    parts.append("]}\n")
    return "".join(parts)


def _array_items(items: Sequence, each=None) -> Iterator[str]:
    """The items of a JSON array, ``_BATCH`` per encoder call (each batch
    mapped by ``each`` first), and the commas between the batches."""
    for i in range(0, len(items), _BATCH):
        if i:
            yield ","
        batch = items[i : i + _BATCH]
        yield _encode(batch if each is None else each(batch))[1:-1]


def _label_entries(labels: Mapping[str, Feature], k: Complex) -> Iterator[str]:
    """The entries of the "labels" object, one per label in name order: a
    vertex label's value is its vertex, and a subcomplex label's faces,
    keyed by ``k``, go to the encoder ``_BATCH`` at a time."""
    for name, feat in sorted(labels.items()):
        if feat.kind == "subcomplex":
            value = f'[{"".join(_array_items(sorted(k._keys_of(feat.value))))}]'
        else:
            value = _encode(feat.value[0] if feat.kind == "vertex" else feat.value)
        yield f'{_encode(name)}:{{"kind":{_encode(feat.kind)},"value":{value}}}'


def read_object(text: str, what: str) -> dict:
    """The JSON object in ``text``; anything else raises FormatError naming ``what``."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"bad {what} JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise FormatError(f"{what} must be a JSON object")
    return doc


def from_json(text: str) -> LabeledComplex:
    """The labeled complex of a :func:`to_json` document, built by one
    :meth:`Complex.from_facets` call over its facet lists and each declared
    vertex in no facet as a singleton; labels hold its facets' objects.  An
    undeclared vertex or a malformed field raises FormatError."""
    doc = read_object(text, "complex")
    facets, vertices = _face_lists(doc.get("facets"), "'facets'"), doc.get("vertices")
    if not isinstance(vertices, list):
        raise FormatError("'vertices' must be a list")
    declared = {_validate_vertex(v.get("id") if isinstance(v, dict) else v) for v in vertices}
    # Only int ids are read here: from_facets refuses a facet with any other.
    isolated = declared.difference(v for f in facets for v in f if type(v) is int)
    k = Complex.from_facets(chain(facets, ([v] for v in isolated)))
    if len(k.vertices) != len(declared):
        raise FormatError(f"facets use undeclared vertices: {sorted(set(k.vertices) - declared)}")
    raw_labels = doc.get("labels", {})
    if not isinstance(raw_labels, dict):
        raise FormatError("'labels' must be an object")
    held = {f: f for f in k.facets}
    labels = {name: _feature_from_json(name, spec, held) for name, spec in raw_labels.items()}
    try:
        return LabeledComplex(k, labels)
    except ValueError as exc:
        raise FormatError(str(exc)) from None


def _feature_from_json(name: str, spec, held: Mapping[frozenset, frozenset]) -> Feature:
    """Label ``name``, one shape rule per kind; :func:`_feature_faces` checks a
    path.  A subcomplex face is read as its value in ``held``, if any."""
    if not isinstance(spec, dict) or "kind" not in spec or "value" not in spec:
        raise FormatError(f"label {name!r}: need kind and value")
    kind, value = spec["kind"], spec["value"]
    if kind == "vertex":
        return Feature.vertex(_validate_vertex(value))
    if kind in ("edge", "path"):
        if not isinstance(value, list) or (kind == "edge" and len(value) != 2):
            raise FormatError(f"label {name!r}: {kind} value must list vertices, two for an edge")
        return Feature(kind, tuple(map(_validate_vertex, value)))
    if kind == "subcomplex":
        faces = read_faces(value, f"label {name!r}: subcomplex value")
        return Feature.subcomplex(held.get(f, f) for f in faces)
    raise FormatError(f"label {name!r}: unknown kind {kind!r}")
