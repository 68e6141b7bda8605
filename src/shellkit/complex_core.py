"""Finite abstract simplicial complexes with explicit face storage.

A complex is stored as the full set of its faces (not just facets).  Faces
are ``frozenset`` instances over integer vertex ids.  The empty face is a
member of every nonempty complex, which makes the reduced Euler
characteristic a plain signed count over all stored faces and gives the
f-vector its leading ``f_{-1}`` entry.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations, permutations
from typing import Collection, Iterable, Iterator, Mapping

Face = frozenset

#: Refuse to close over facets larger than this (closure is 2**size faces).
MAX_FACET_SIZE = 16


class FormatError(ValueError):
    """Raised for malformed facet-list text, JSON documents, or witnesses."""


class InternalError(RuntimeError):
    """An internal invariant failed: a fault of shellkit, not of its input."""


def face_key(face: Iterable[int]) -> tuple[int, ...]:
    """Deterministic sort key for a face: its sorted vertex tuple."""
    return tuple(sorted(face))


def face_sort_key(face: Iterable[int]) -> tuple:
    """Sort faces by dimension first, then lexicographically."""
    k = face_key(face)
    return (len(k), k)


def facets_of(faces: Collection[frozenset]) -> frozenset:
    """Facets of a closed face set: the nonempty faces that are not a
    codimension-1 face of another face.

    In a closed face set a non-maximal face always has a coface one
    dimension up, so marking every codimension-1 subface finds them.
    """
    covered = set()
    for f in faces:
        if len(f) > 1:
            covered.update(f - {v} for v in f)
    return frozenset(f for f in faces if f and f not in covered)


def subfaces(facet: Collection[int], sizes: Iterable[int]) -> list[frozenset]:
    """The faces of ``facet`` with the given numbers of vertices, size by
    size in the order of ``sizes``, each size in no particular order.
    Every face enumeration but ``Complex.from_facets``'s goes through it."""
    return [frozenset(c) for r in sizes for c in combinations(facet, r)]


def ridge_holders(facets: Iterable[frozenset]) -> dict[frozenset, list[frozenset]]:
    """Each ridge of ``facets`` (a facet minus one vertex) mapped to the
    facets that hold it, in the order given.  This is the one ridge map
    of the package: a ridge's degree is the length of its list."""
    holders: dict[frozenset, list[frozenset]] = {}
    for f in facets:
        for v in f:
            holders.setdefault(f - {v}, []).append(f)
    return holders


class UnionFind:
    """Disjoint sets over arbitrary hashable items, with path compression."""

    def __init__(self) -> None:
        self._parent: dict = {}

    def find(self, x):
        parent = self._parent
        if x not in parent:
            parent[x] = x
            return x
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def union(self, a, b) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self._parent[rb] = ra


def _validate_vertex(v) -> int:
    if type(v) is int:
        return v
    if isinstance(v, bool) or not isinstance(v, int):
        raise FormatError(f"vertex id must be an int, got {v!r}")
    return v


def read_faces(raw, what: str) -> list[frozenset]:
    """Faces from a JSON document: a list of lists of distinct int vertex
    ids.  Any other shape raises FormatError naming ``what``."""
    if not (isinstance(raw, list) and all(isinstance(f, list) for f in raw)):
        raise FormatError(f"{what} must be a list of faces, each a list of vertex ids")
    faces = [frozenset(map(_validate_vertex, f)) for f in raw]
    for face, f in zip(raw, faces):
        if len(face) != len(f):
            raise FormatError(f"{what}: face {face} repeats a vertex")
    return faces


class Complex:
    """An immutable abstract simplicial complex.

    Construct through :meth:`from_facets` (validates and closes downward) or
    :meth:`from_faces` (trusted input: the face set must already be closed
    under taking subsets).  The void complex has no faces at all; every other
    complex contains the empty face.
    """

    __slots__ = ("_faces", "_hash", "_facets", "_vertices", "_dim")

    def __init__(self, faces: frozenset, _trusted: bool = False):
        if not _trusted:
            raise TypeError("use Complex.from_facets or Complex.from_faces")
        self._faces = faces
        self._hash = None
        self._facets = None
        self._vertices = None
        self._dim = None

    # -- construction ---------------------------------------------------

    @classmethod
    def from_facets(cls, facets: Iterable[Iterable[int]]) -> "Complex":
        """Build the closure of a facet list.

        Rejects empty facets, repeated vertices inside a facet, and
        non-integer vertex ids.  Facets that are faces of other facets are
        harmless (they disappear into the closure).  The facets of a closure
        are the inclusion-maximal faces given, so when every given facet has
        the same size the distinct ones are recorded as :attr:`facets`, with
        no pass over the faces; with mixed sizes ``facets`` stays lazy.
        """
        faces: set = set()
        given: list = []
        sizes: set = set()
        for raw in facets:
            vs = list(map(_validate_vertex, raw))
            if not vs:
                raise FormatError("empty facet")
            f = frozenset(vs)
            if len(f) != len(vs):
                raise FormatError(f"facet {vs} repeats a vertex")
            if len(vs) > MAX_FACET_SIZE:
                raise FormatError(f"facet with {len(vs)} vertices exceeds limit")
            sizes.add(len(vs))
            if f in faces:
                continue
            given.append(f)
            faces.add(f)
            for r in range(len(vs)):
                faces.update(map(frozenset, combinations(vs, r)))
        k = cls(frozenset(faces), _trusted=True)
        if len(sizes) == 1:
            k._facets = frozenset(given)
        return k

    @classmethod
    def from_faces(cls, faces: Iterable[frozenset]) -> "Complex":
        """Wrap an already-closed face set (the empty face is added)."""
        fs = set(faces)
        fs.discard(frozenset())
        if fs:
            fs.add(frozenset())
        return cls(frozenset(fs), _trusted=True)

    @classmethod
    def empty(cls) -> "Complex":
        """The void complex (no faces, not even the empty one)."""
        return cls(frozenset(), _trusted=True)

    # -- basic queries ---------------------------------------------------

    @property
    def faces(self) -> frozenset:
        return self._faces

    @property
    def nonempty_faces(self) -> Iterator[frozenset]:
        return (f for f in self._faces if f)

    def __contains__(self, face) -> bool:
        return frozenset(face) in self._faces

    def __bool__(self) -> bool:
        return bool(self._faces)

    def __len__(self) -> int:
        return len(self._faces)

    def __eq__(self, other) -> bool:
        return isinstance(other, Complex) and self._faces == other._faces

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self._faces)
        return self._hash

    def __repr__(self) -> str:
        return f"Complex(dim={self.dim}, facets={len(self.facets)})"

    @property
    def vertices(self) -> tuple[int, ...]:
        if self._vertices is None:
            self._vertices = tuple(sorted(v for f in self._faces if len(f) == 1 for v in f))
        return self._vertices

    @property
    def dim(self) -> int:
        """Largest face dimension; -1 for the void and empty-face complexes."""
        if self._dim is None:
            self._dim = max((len(f) for f in self._faces), default=0) - 1
        return self._dim

    @property
    def facets(self) -> frozenset:
        """Inclusion-maximal nonempty faces: recorded by :meth:`from_facets`
        when its facets all have one size, else found once by
        :func:`facets_of`."""
        if self._facets is None:
            self._facets = facets_of(self._faces)
        return self._facets

    def f_vector(self) -> tuple[int, ...]:
        """(f_{-1}, f_0, ..., f_d); the void complex reports (0,)."""
        if not self._faces:
            return (0,)
        counts = [0] * (self.dim + 2)
        for f in self._faces:
            counts[len(f)] += 1
        return tuple(counts)

    def reduced_euler_characteristic(self) -> int:
        """Sum of (-1)^dim over every face, the empty face included."""
        return sum(-1 if len(f) % 2 == 0 else 1 for f in self._faces)

    def is_pure(self, d: int | None = None) -> bool:
        """True when every facet has dimension ``d`` (default: ``self.dim``)."""
        if not self._faces:
            return True
        if d is None:
            d = self.dim
        return all(len(f) == d + 1 for f in self.facets)

    # -- local operations -------------------------------------------------

    def link(self, sigma: Iterable[int]) -> "Complex":
        """Faces disjoint from ``sigma`` whose union with it is a face.

        ``link(())`` is the complex itself.  The link of a face not in the
        complex is void.
        """
        s = frozenset(sigma)
        if s not in self._faces:
            return Complex.empty()
        if not s:
            return self
        out = {f for f in self._faces if not (f & s) and (f | s) in self._faces}
        return Complex(frozenset(out), _trusted=True)

    def delete(self, sigma: Iterable[int]) -> "Complex":
        """Remove every face containing ``sigma`` (a no-op if absent)."""
        s = frozenset(sigma)
        if not s:
            return Complex.empty()
        out = frozenset(f for f in self._faces if not s <= f)
        return Complex(out, _trusted=True)

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
        bigger has already been dropped.
        """
        removed: set = set()
        for raw in facets:
            f = frozenset(raw)
            covered = f not in self.facets and any(
                f | {v} in self._faces and f | {v} not in removed
                for v in self.vertices
                if v not in f
            )
            if not f or f in removed or f not in self._faces or covered:
                raise ValueError(f"{face_key(f)} is not a facet")
            removed.add(f)
        return Complex(self._faces - removed, _trusted=True)


# -- joins and cones -------------------------------------------------------


def join(k: Complex, l: Complex) -> Complex:
    """Simplicial join: all unions of a face of ``k`` with a face of ``l``.

    The vertex sets must be disjoint.  The empty-face complex is the join
    identity and the void complex annihilates.
    """
    if set(k.vertices) & set(l.vertices):
        overlap = sorted(set(k.vertices) & set(l.vertices))
        raise ValueError(f"join requires disjoint vertex ids, shared: {overlap}")
    if not k.faces or not l.faces:
        return Complex.empty()
    out = {a | b for a in k.faces for b in l.faces}
    return Complex(frozenset(out), _trusted=True)


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
    if not k.faces:
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


def graph_connected(vertices: Collection, adj: Mapping) -> bool:
    """Connectivity of a graph given as its distinct vertices and a map
    from a vertex to its neighbours, all among ``vertices`` (a vertex with
    none may be missing from ``adj``): one depth-first search from any
    vertex must reach them all.  An empty or one-vertex graph counts as
    connected."""
    if len(vertices) <= 1:
        return True
    start = next(iter(vertices))
    seen = {start}
    stack = [start]
    while stack:
        for y in adj.get(stack.pop(), ()):
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return len(seen) == len(vertices)


def one_skeleton_connected(k: Complex) -> bool:
    """Connectivity of the graph of vertices and edges (void: True)."""
    adj: dict[int, list] = {}
    for f in k.faces:
        if len(f) == 2:
            a, b = f
            adj.setdefault(a, []).append(b)
            adj.setdefault(b, []).append(a)
    return graph_connected(k.vertices, adj)


def vertex_links_connected(k: Complex) -> tuple[bool, tuple[int, ...]]:
    """Check every vertex link for 1-skeleton connectivity.

    Returns ``(ok, failing_vertices)``, the failing vertices in vertex
    order.  A link that is empty or a single vertex counts as connected.
    One pass over the faces reads every link: an edge {a, b} puts b among
    the link vertices of a and a among those of b, and a triangle {a, b, c}
    puts the edge {b, c} in the link of a, {a, c} in that of b and {a, b}
    in that of c.  Then :func:`graph_connected` runs on each link, whose
    edge ends closure puts among its vertices.
    """
    link_vertices: dict[int, list] = {v: [] for v in k.vertices}
    link_adj: dict[int, dict] = {v: {} for v in k.vertices}
    for f in k.faces:
        if len(f) == 2:
            a, b = f
            link_vertices[a].append(b)
            link_vertices[b].append(a)
        elif len(f) == 3:
            a, b, c = f
            for v, x, y in ((a, b, c), (b, a, c), (c, a, b)):
                adj = link_adj[v]
                adj.setdefault(x, []).append(y)
                adj.setdefault(y, []).append(x)
    bad = [v for v in k.vertices if not graph_connected(link_vertices[v], link_adj[v])]
    return (not bad, tuple(bad))


def boundary_ridges(k: Complex) -> list[frozenset]:
    """Ridges ((d-1)-faces) contained in exactly one top-dimensional facet."""
    top = (f for f in k.facets if len(f) == k.dim + 1)
    return sorted((r for r, fs in ridge_holders(top).items() if len(fs) == 1), key=face_key)


# -- barycentric subdivision ------------------------------------------------


@dataclass(frozen=True)
class Subdivision:
    """A subdivided complex plus the carrier table back to the original.

    ``vertex_carrier`` maps each new vertex id to the original face it
    subdivides (after composing through all levels).  The carrier of a new
    face is the union of its vertices' carriers, which is always an original
    face because carriers along a chain are nested.
    """

    complex: Complex
    vertex_carrier: Mapping[int, frozenset]
    levels: int

    def face_carrier(self, face: Iterable[int]) -> frozenset:
        return frozenset().union(*(self.vertex_carrier[v] for v in face))


def _flags(faces: Iterable[frozenset], vid: Mapping[frozenset, int]) -> Iterator[tuple[int, ...]]:
    """The maximal chains of faces inside each given face, as ``vid`` tuples.

    A maximal chain {v1} < {v1, v2} < ... < f is one ordering of the
    vertices of f, so each face yields one tuple per vertex ordering.
    """
    for f in faces:
        for order in permutations(sorted(f)):
            yield tuple(vid[frozenset(order[:i])] for i in range(1, len(order) + 1))


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
    if not k.faces:
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
    kind "subcomplex": value is a tuple of facet tuples.
    """

    kind: str
    value: tuple

    def __post_init__(self):
        if self.kind not in _FEATURE_KINDS:
            raise ValueError(f"unknown feature kind {self.kind!r}")

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
        return cls("subcomplex", tuple(sorted(face_key(f) for f in facets)))

    def edge_list(self) -> list[frozenset]:
        """Edges traversed by a path or edge feature."""
        if self.kind == "edge":
            return [frozenset(self.value)]
        if self.kind == "path":
            return [frozenset(p) for p in zip(self.value, self.value[1:])]
        raise ValueError(f"{self.kind} feature has no edge list")

    def face_set(self) -> set[frozenset]:
        """Closure of the feature as a set of nonempty faces."""
        if self.kind == "vertex":
            return {frozenset(self.value)}
        if self.kind in ("edge", "path"):
            out = {frozenset([v]) for v in self.value}
            out.update(self.edge_list())
            return out
        return {g for facet in self.value for g in subfaces(facet, range(1, len(facet) + 1))}


def _validate_feature(name: str, feat: Feature, k: Complex) -> None:
    """Check that ``feat`` is well formed and lies in ``k``.

    Only the faces that generate the feature are looked up: the vertex, the
    vertices and edges of an edge or path, or the facets of a subcomplex.
    The face set of a ``Complex`` is closed under subsets, so this accepts
    exactly when every face of ``feat.face_set()`` is in ``k``.  Each step
    of an edge or path must join two distinct vertices and each face of a
    subcomplex must be nonempty.
    """
    if feat.kind == "vertex":
        faces = [frozenset(feat.value)]
    elif feat.kind == "subcomplex":
        faces = [frozenset(f) for f in feat.value]
        if frozenset() in faces:
            raise ValueError(f"label {name!r}: subcomplex has an empty face")
    else:
        vs = feat.value
        if any(a == b for a, b in zip(vs, vs[1:])):
            raise ValueError(
                f"label {name!r}: a {feat.kind} step must join two distinct vertices"
            )
        if feat.kind == "path":
            if len(vs) < 2:
                raise ValueError(f"label {name!r}: path needs at least two vertices")
            interior = vs[:-1] if vs[0] == vs[-1] else vs
            if len(set(interior)) != len(interior):
                raise ValueError(f"label {name!r}: path revisits a vertex")
        faces = [frozenset([v]) for v in vs] + feat.edge_list()
    for face in faces:
        if face not in k.faces:
            raise ValueError(
                f"label {name!r}: face {face_key(face)} is not in the complex"
            )


@dataclass(frozen=True)
class LabeledComplex:
    """A complex together with a name -> Feature landmark table."""

    complex: Complex
    labels: Mapping[str, Feature]

    def __post_init__(self):
        object.__setattr__(self, "labels", dict(self.labels))
        for name, feat in self.labels.items():
            _validate_feature(name, feat, self.complex)

    def feature(self, name: str) -> Feature:
        if name not in self.labels:
            raise KeyError(f"no label {name!r}")
        return self.labels[name]

    def subcomplex(self, name: str) -> Complex:
        feat = self.feature(name)
        if feat.kind != "subcomplex":
            raise ValueError(f"label {name!r} has kind {feat.kind}, not subcomplex")
        return Complex.from_facets(feat.value)


def subdivide_labeled(lc: LabeledComplex, levels: int = 1) -> tuple[LabeledComplex, Subdivision]:
    """Subdivide a labeled complex, mapping every label through.

    Vertices map to vertices, edges to two-edge paths, paths to paths twice
    as long, and subcomplexes to their carrier preimage (one level at a
    time).
    """
    if levels < 0:
        raise ValueError("levels must be >= 0")
    current = lc
    overall = Subdivision(lc.complex, {v: frozenset([v]) for v in lc.complex.vertices}, 0)
    for _ in range(levels):
        k = current.complex
        originals = sorted(k.nonempty_faces, key=face_sort_key)
        vid = {f: i for i, f in enumerate(originals)}
        # Every chain of faces extends to the flag of a facet, so sd is the
        # closure of the flags; the empty face makes sd(void) the empty-face
        # complex.
        flags = Complex.from_facets(_flags(k.facets, vid))
        sd = flags or Complex(frozenset({frozenset()}), _trusted=True)
        labels = {name: _map_feature_once(feat, vid) for name, feat in current.labels.items()}
        current = LabeledComplex(sd, labels)
        overall = Subdivision(
            complex=sd,
            vertex_carrier={i: overall.face_carrier(f) for i, f in enumerate(originals)},
            levels=overall.levels + 1,
        )
    return current, overall


def _map_feature_once(feat: Feature, vid: Mapping[frozenset, int]) -> Feature:
    if feat.kind == "vertex":
        return Feature.vertex(vid[frozenset(feat.value)])
    if feat.kind == "edge":
        a, b = feat.value
        return Feature.path(
            (vid[frozenset([a])], vid[frozenset((a, b))], vid[frozenset([b])])
        )
    if feat.kind == "path":
        vs = feat.value
        out = [vid[frozenset([vs[0]])]]
        for a, b in zip(vs, vs[1:]):
            out.append(vid[frozenset((a, b))])
            out.append(vid[frozenset([b])])
        return Feature.path(out)
    # The maximal chains inside a closure are the flags of its facets.
    return Feature.subcomplex(_flags(Complex.from_facets(feat.value).facets, vid))


# -- serialization -----------------------------------------------------------


def parse_facet_lines(text: str) -> Complex:
    """Facet-list text: one facet per line, whitespace-separated vertex ids.

    ``#`` starts a comment; blank lines are skipped.
    """
    facets = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            facets.append([int(tok) for tok in line.split()])
        except ValueError as exc:
            raise FormatError(f"line {lineno}: {exc}") from None
    return Complex.from_facets(facets)


def format_facet_lines(k: Complex) -> str:
    lines = [" ".join(str(v) for v in face_key(f)) for f in sorted(k.facets, key=face_sort_key)]
    return "\n".join(lines) + "\n"


def to_json(lc: LabeledComplex | Complex) -> str:
    """Canonical JSON for a (labeled) complex; round-trips bit-exactly."""
    if isinstance(lc, Complex):
        lc = LabeledComplex(lc, {})
    doc = {
        "vertices": [{"id": v} for v in lc.complex.vertices],
        "facets": [list(face_key(f)) for f in sorted(lc.complex.facets, key=face_sort_key)],
        "labels": {
            name: {"kind": feat.kind, "value": _feature_value_json(feat)}
            for name, feat in sorted(lc.labels.items())
        },
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def _feature_value_json(feat: Feature):
    if feat.kind == "vertex":
        return feat.value[0]
    if feat.kind in ("edge", "path"):
        return list(feat.value)
    return [list(f) for f in feat.value]


def from_json(text: str) -> LabeledComplex:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"bad JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise FormatError("top level must be an object")
    for key in ("vertices", "facets"):
        if key not in doc:
            raise FormatError(f"missing key {key!r}")
    k = Complex.from_facets(read_faces(doc["facets"], "'facets'"))
    vertices = doc["vertices"]
    if not isinstance(vertices, list):
        raise FormatError("'vertices' must be a list")
    declared = {_validate_vertex(v.get("id") if isinstance(v, dict) else v) for v in vertices}
    used = set(k.vertices)
    if not used <= declared:
        raise FormatError(f"facets use undeclared vertices: {sorted(used - declared)}")
    isolated = declared - used
    if isolated:
        # Isolated vertices are legitimate 0-faces.
        faces = set(k.faces) | {frozenset([v]) for v in isolated} | {frozenset()}
        k = Complex(frozenset(faces), _trusted=True)
    raw_labels = doc.get("labels") or {}
    if not isinstance(raw_labels, dict):
        raise FormatError("'labels' must be an object")
    labels = {name: _feature_from_json(name, spec) for name, spec in raw_labels.items()}
    try:
        return LabeledComplex(k, labels)
    except ValueError as exc:
        raise FormatError(str(exc)) from None


def _feature_from_json(name: str, spec) -> Feature:
    if not isinstance(spec, dict) or "kind" not in spec or "value" not in spec:
        raise FormatError(f"label {name!r}: need kind and value")
    kind, value = spec["kind"], spec["value"]
    if kind == "vertex":
        return Feature.vertex(_validate_vertex(value))
    if kind == "edge":
        if not isinstance(value, list) or len(value) != 2:
            raise FormatError(f"label {name!r}: edge value must be a pair")
        return Feature.edge(*map(_validate_vertex, value))
    if kind == "path":
        if not isinstance(value, list) or len(value) < 2:
            raise FormatError(f"label {name!r}: path value must list vertices")
        return Feature.path([_validate_vertex(v) for v in value])
    if kind == "subcomplex":
        return Feature.subcomplex(read_faces(value, f"label {name!r}: subcomplex value"))
    raise FormatError(f"label {name!r}: unknown kind {kind!r}")
