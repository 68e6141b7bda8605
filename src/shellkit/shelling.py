"""Shelling orders and k-decomposability.

An order of the facets of a pure d-complex is a shelling when each facet
after the first meets the union of its predecessors in a nonempty pure
(d-1)-dimensional complex.  For d = 0 that intersection is the empty face
alone, so any set of isolated vertices is shellable.  A single facet is
always shellable.
"""

from __future__ import annotations

from collections import Counter
from typing import Collection, Iterable, Mapping, Sequence

from shellkit.complex_core import (
    Complex,
    Face,
    FormatError,
    face_key,
    graph_connected,
    read_faces,
    ridge_holders,
    subfaces,
    vertex_links_connected,
)
from shellkit.collapse import DEFAULT_BUDGET, SearchResult, _BudgetExceeded, find_removal


class ShellingError(ValueError):
    """A shelling or decomposition verification failed."""


def _check_pure_input(k: Complex) -> int:
    if not k.faces:
        raise ShellingError("shellability needs a nonempty complex")
    d = k.dim
    if not k.is_pure(d):
        raise ShellingError("shellability is defined for pure complexes only")
    return d


def _restriction_ok(facet: Face, placed: Counter) -> bool:
    """May ``facet`` come next after at least one placed facet?  ``placed``
    counts the faces of the placed facets.

    The restriction face R is the set of v in ``facet`` whose ridge
    facet - v lies in a placed facet.  The facet meets the union of the
    placed ones in a nonempty pure (d-1)-complex exactly when R is nonempty
    and lies in no placed facet G: then F ∩ G lies in the placed ridge
    F - v for a v in R that misses G.  An empty R lies in every placed
    facet, so one lookup tests both.  For d = 0 the ridge is the empty
    face, so R is the facet itself.
    """
    r = frozenset(v for v in facet if placed[facet - {v}])
    return not placed[r]


def _may_be_shellable(facets: Collection[Face], by_ridge: Mapping[Face, list[Face]]) -> bool:
    """False when the pure complex with these (nonempty) facets cannot be
    shellable; True promises nothing.  ``by_ridge`` is the caller's
    ``ridge_holders`` map of ``facets``, which the caller reads too.

    A shellable pure d-complex passes four tests.  For d >= 1 each facet
    after the first meets its predecessors along a ridge, so the facet
    graph (facets joined along shared ridges) is connected.  Its vertex
    links are shellable, so for d >= 2 each link's facet graph is
    connected; the facets f - v of the link of v meet along r - v for the
    ridges r through v, so that graph is the one on the facets through v
    joined along the ridges through v.  It is a wedge of d-spheres up to
    homotopy, so (-1)^d χ̃ >= 0.  And for d >= 1, when χ̃ = 0 some ridge
    lies in one facet alone: a shelling has exactly (-1)^d χ̃ facets whose
    restriction face is the whole facet (Björner and Wachs, 1996), so with
    χ̃ = 0 the last facet F has a vertex v outside its restriction face,
    and the ridge F - v lies in no other facet.
    """
    d = len(next(iter(facets))) - 1
    star: dict[int, list[Face]] = {}
    for f in facets:
        for v in f:
            star.setdefault(v, []).append(f)
    adj: dict[Face, list[Face]] = {}
    star_adj: dict[int, dict[Face, list[Face]]] = {v: {} for v in star}
    for ridge, around in by_ridge.items():
        f = around[0]
        for g in around[1:]:
            for graph in (adj, *(star_adj[v] for v in ridge)):
                graph.setdefault(f, []).append(g)
                graph.setdefault(g, []).append(f)
    if d >= 1 and not graph_connected(facets, adj):
        return False
    if d >= 2 and not all(graph_connected(star[v], star_adj[v]) for v in star):
        return False
    faces = {g for f in facets for g in subfaces(f, range(d + 2))}
    chi = sum(1 if len(g) % 2 else -1 for g in faces)
    if d >= 1 and chi == 0 and all(len(around) > 1 for around in by_ridge.values()):
        return False
    return (-1) ** d * chi >= 0


def _cone_base(k: Complex) -> tuple[Complex, frozenset]:
    """``k`` as a join base * apexes: while the complex has two or more
    facets and some vertex lies in all of them, it is the cone over the
    link of the least such vertex v, so pass to that link and add v to
    the apexes.  A pure d-complex goes down at most d + 1 times."""
    apexes: frozenset = frozenset()
    while len(k.facets) > 1 and (common := frozenset.intersection(*k.facets)):
        v = min(common)
        k, apexes = k.link([v]), apexes | {v}
    return k, apexes


def verify_shelling(k: Complex, order: Sequence[Iterable[int]]) -> None:
    """Raise ShellingError unless ``order`` is a shelling of ``k``.

    One restriction-face test per facet, so the check is linear in the
    number of facets.
    """
    d = _check_pure_input(k)
    facets = [frozenset(f) for f in order]
    if len(set(facets)) != len(facets):
        raise ShellingError("order repeats a facet")
    if set(facets) != set(k.facets):
        raise ShellingError("order does not enumerate the facets exactly")
    placed: Counter = Counter()
    for i, facet in enumerate(facets):
        if i and not _restriction_ok(facet, placed):
            raise ShellingError(
                f"facet #{i + 1} {face_key(facet)} meets its predecessors "
                f"in a set that is not pure {d - 1}-dimensional and nonempty"
            )
        placed.update(subfaces(facet, range(d + 2)))


def decide_shellable(k: Complex, budget: int = DEFAULT_BUDGET) -> SearchResult:
    """Backtracking shellability decider with a node budget.

    Failed prefixes are memoized as bitmasks of facet indices: whether a
    partial order extends depends only on which facets it uses, not their
    order.  Candidates go most placed ridge neighbours first, and each is
    tested by its restriction face (``_restriction_ok``) in d + 2 lookups.
    The verdict "no" is an exhaustive refutation, or, at 0 nodes, a failed
    ``_may_be_shellable``.

    A cone is decided through its apex link (``_cone_base``): a cone
    v * L is shellable exactly when L is (Provan and Billera, 1980), and a
    shelling of L lifts to one of v * L by adding v to every facet.  So
    the search runs on the base L, ``nodes`` counts that search, and the
    apexes join every facet of its shelling.
    """
    _check_pure_input(k)
    k, apexes = _cone_base(k)
    d = k.dim
    facets = sorted(k.facets, key=face_key)
    m = len(facets)
    if m == 1 or d == 0:
        return SearchResult("yes", tuple(f | apexes for f in facets), 0)
    # Sound precheck: a complex that fails it has no shelling.  It runs
    # once, on the whole complex.  Inside the search it could not prune:
    # each prefix the search builds is a shelling of its own facets, so it
    # passes, and the facets left to place need not pass it.
    by_ridge = ridge_holders(facets)
    if not _may_be_shellable(facets, by_ridge):
        return SearchResult("no", None, 0)
    # Bit j of nbrs[i] is set when facets i and j share a ridge, and two
    # facets share at most one.
    bit = {f: 1 << i for i, f in enumerate(facets)}
    nbrs = [sum(bit[g] for v in f for g in by_ridge[f - {v}] if g != f) for f in facets]
    faces_of = [subfaces(f, range(d + 2)) for f in facets]

    dead: set[int] = set()
    nodes = 0
    chosen: list[Face] = []
    placed: Counter = Counter()

    def extend(used: int) -> bool:
        nonlocal nodes
        if len(chosen) == m:
            return True
        if used in dead:
            return False
        nodes += 1
        if nodes > budget:
            raise _BudgetExceeded
        # Most chosen neighbours first; ties in facet order, since the
        # facets are sorted and the sort is stable.
        remaining = [i for i in range(m) if not used >> i & 1]
        for i in sorted(remaining, key=lambda i: -(nbrs[i] & used).bit_count()):
            if chosen and not _restriction_ok(facets[i], placed):
                continue
            chosen.append(facets[i])
            placed.update(faces_of[i])
            if extend(used | 1 << i):
                return True
            chosen.pop()
            placed.subtract(faces_of[i])
        dead.add(used)
        return False

    try:
        if extend(0):
            return SearchResult("yes", tuple(f | apexes for f in chosen), nodes)
    except _BudgetExceeded:
        return SearchResult("budget_exceeded", None, nodes)
    return SearchResult("no", None, nodes)


# -- k-decomposability --------------------------------------------------------


def decide_k_decomposable(k: Complex, kk: int, budget: int = DEFAULT_BUDGET) -> SearchResult:
    """Provan–Billera style k-decomposability decider.

    A pure complex is k-decomposable when it is a full simplex, or some
    nonempty shedding face of dimension <= k has a pure k-decomposable
    link and a pure (same-dimensional) k-decomposable deletion.  Witness
    is a nested shedding tree.  0-decomposable is vertex-decomposable and
    d-decomposable coincides with shellable.

    The search runs on facet sets.  In a pure d-complex the link of σ is
    pure of dimension d - |σ|, with facets {F - σ : F ⊇ σ}.  A face that
    misses σ but lies in some F ⊇ σ lies in a ridge F - v with v in σ, and
    every other facet through that ridge misses σ; so the deletion is pure
    d-dimensional exactly when each such ridge lies in two or more facets,
    and its facets are then those missing σ.  One ``ridge_holders`` map per
    node tests every σ, and serves ``_may_be_shellable`` too; both
    children are pure by construction.

    A k-decomposable complex is shellable (Provan and Billera, 1980), so
    a node that fails ``_may_be_shellable`` is refuted at once; the full
    search would refute it too, so verdicts and trees do not change.
    Results are memoized exactly, by the facet set.  The search tries
    shedding faces in one fixed order and each child's result depends on
    its facet set alone, so the tree returned for a "yes" is the first one
    in that order.

    A cone v * L is k-decomposable exactly when L is (Provan and Billera,
    1980), so a cone is decided through its apex link (``_cone_base``), as
    in ``decide_shellable``: the search runs on the base L, ``nodes``
    counts that search, and the cone's tree is the lift of the base's
    tree.  The link and deletion of a shedding face σ in v * L are the
    cones over its link and deletion in L, so the lift keeps every
    shedding face and adds v to every leaf; the leaf [] of the empty-face
    complex becomes [v].
    """
    if kk < 0:
        raise ShellingError("k must be >= 0")
    _check_pure_input(k)
    k, apexes = _cone_base(k)
    # Facet set, as a bitmask over ids handed out to facets as they are
    # first seen -> the tree rec returned for it, or None for no.
    exact: dict[int, dict | None] = {}
    facet_ids: dict[Face, int] = {}
    nodes = 0

    def rec(facets: frozenset) -> dict | None:
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise _BudgetExceeded
        if not facets:
            # The empty-face complex, the link of a facet: nothing to shed.
            return {"leaf": []}
        if len(facets) == 1:
            (facet,) = facets
            return {"leaf": list(face_key(facet))}
        mask = 0
        for f in facets:
            mask |= 1 << facet_ids.setdefault(f, len(facet_ids))
        if mask in exact:
            return exact[mask]
        by_ridge = ridge_holders(facets)
        if not _may_be_shellable(facets, by_ridge):
            exact[mask] = None
            return None
        # v is in boundary[f] when the ridge f - v lies in f alone.
        boundary = {f: {v for v in f if len(by_ridge[f - {v}]) == 1} for f in facets}
        cofacets: dict[Face, list[Face]] = {}
        for f in facets:
            for sigma in subfaces(f, range(1, min(kk + 1, len(f)) + 1)):
                cofacets.setdefault(sigma, []).append(f)
        for sigma in sorted(cofacets, key=face_key):
            around = cofacets[sigma]
            if any(not boundary[f].isdisjoint(sigma) for f in around):
                continue
            lk_tree = rec(frozenset(f - sigma for f in around if f != sigma))
            if lk_tree is None:
                continue
            dl_tree = rec(facets.difference(around))
            if dl_tree is None:
                continue
            tree = {"shedding": list(face_key(sigma)), "link": lk_tree, "delete": dl_tree}
            exact[mask] = tree
            return tree
        exact[mask] = None
        return None

    try:
        tree = rec(k.facets)
    except _BudgetExceeded:
        return SearchResult("budget_exceeded", None, nodes)
    if tree is not None:
        return SearchResult("yes", (_cone_tree(tree, apexes),), nodes)
    return SearchResult("no", None, nodes)


def _cone_tree(tree: dict, apexes: frozenset) -> dict:
    """The shedding tree of the join of the complex that ``tree``
    decomposes with the simplex on ``apexes``."""
    if not apexes:
        return tree
    if "leaf" in tree:
        return {"leaf": list(face_key(apexes.union(tree["leaf"])))}
    return {
        "shedding": tree["shedding"],
        "link": _cone_tree(tree["link"], apexes),
        "delete": _cone_tree(tree["delete"], apexes),
    }


def verify_decomposition(k: Complex, kk: int, tree: Mapping) -> int:
    """Check a shedding tree and return the number of its nodes checked:
    links and deletions are recomputed, never trusted from the witness.  A
    node that is not an object, a face that is not a list, a vertex id
    that is not an int (a bool included), or a face that repeats a vertex
    is a ``FormatError``."""
    if not isinstance(tree, Mapping):
        raise FormatError("decomposition tree node must be an object")
    if "leaf" in tree:
        (facet,) = read_faces([tree["leaf"]], "leaf")
        if not facet:
            if len(k.faces) > 1:
                raise ShellingError("leaf [] claims an empty complex")
            return 1
        if k != Complex.from_facets([facet]):
            raise ShellingError(
                f"leaf {list(face_key(facet))} does not match the complex at this node"
            )
        return 1
    if "shedding" not in tree:
        raise ShellingError("tree node needs 'leaf' or 'shedding'")
    (sigma,) = read_faces([tree["shedding"]], "shedding face")
    if not sigma or sigma not in k.faces:
        raise ShellingError(f"shedding face {list(face_key(sigma))} not in complex")
    if len(sigma) > kk + 1:
        raise ShellingError(
            f"shedding face of dimension {len(sigma) - 1} exceeds k={kk}"
        )
    d = k.dim
    if not k.is_pure(d):
        raise ShellingError("node complex is not pure")
    lk = k.link(sigma)
    if lk.dim != d - len(sigma) or not lk.is_pure(lk.dim):
        raise ShellingError(f"link of {sorted(sigma)} is not pure of the right dim")
    dl = k.delete(sigma)
    if not dl.faces or dl.dim != d or not dl.is_pure(d):
        raise ShellingError(f"deletion of {sorted(sigma)} is not pure {d}-dimensional")
    checked = 1
    for child_key, sub in (("link", lk), ("delete", dl)):
        if child_key not in tree:
            raise ShellingError(f"tree node missing {child_key!r}")
        checked += verify_decomposition(sub, kk, tree[child_key])
    return checked


# -- shellability of the double barycentric subdivision -----------------------


def hachimori_decide_sd2(k: Complex, budget: int = DEFAULT_BUDGET) -> SearchResult:
    """Decide shellability of sd²(k) without constructing it.

    The double barycentric subdivision of a pure 2-complex is shellable
    exactly when every vertex link of the complex itself is connected
    and removing some set of χ̃ triangles leaves it collapsible.  Any
    other input raises ShellingError, as in ``decide_shellable``.  A
    disconnected link or a negative χ̃ is a no with 0 nodes; otherwise
    the removal sets are searched with ``collapse.find_removal`` in
    ``itertools.combinations`` order over the triangles, and its result
    is returned as it is: on yes the witness is ``(removal, pairs)``, the
    removed triangles and a collapse of the remainder to a vertex, and
    ``nodes`` counts the removals checked after dominance pruning.  The
    verdict is budget_exceeded once the removals checked overrun
    ``budget``.
    """
    if k.dim != 2 or not k.is_pure():
        raise ShellingError("the sd2 criterion applies to pure 2-dimensional complexes")
    chi = k.reduced_euler_characteristic()
    if chi < 0 or not vertex_links_connected(k)[0]:
        return SearchResult("no", None, 0)
    triangles = sorted((f for f in k.faces if len(f) == 3), key=face_key)
    return find_removal(k, [triangles] * chi, budget, ascending=True)

