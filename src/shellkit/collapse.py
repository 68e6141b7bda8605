"""Free faces, elementary collapses, and collapsibility deciders.

A face is free when the faces strictly containing it have a unique maximal
element; equivalently, exactly one facet strictly contains it.  An
elementary collapse deletes a free face together with every face containing
it, which preserves the reduced Euler characteristic.

Witness sequences emitted by the deciders here always pair a free face with
a coface exactly one dimension up; searches branch over such pairs, which
is complete because any wider collapse factors into one-dimension steps.
Every sequence is replayed by one checked loop, ``_FaceIndex.collapse``;
gluing a local collapse into a larger complex is that same replay there.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterable, Sequence

from shellkit.complex_core import (
    Complex,
    Face,
    InternalError,
    _drop_holders,
    _put_back,
    face_key,
    face_sort_key,
    one_skeleton_connected,
    ridge_holders,
    sorted_face_keys,
    subfaces,
)

DEFAULT_BUDGET = 10**6


class CollapseError(ValueError):
    """A collapse step or gluing precondition failed."""


class _BudgetExceeded(Exception):
    """Raised by the search node that overruns its budget; caught once,
    where the search starts, so no refutation is recorded after it."""


def _run(search, *args):
    """``search(*args)`` for a recursive search written as a generator
    function: where it would call itself on ``args``, it yields ``args``
    and receives that call's result, and its return value is its result.
    The calls in progress are generators on one list, so the depth of a
    search is bounded by memory, not by the recursion limit, and no
    search refers to itself."""
    stack = [search(*args)]
    result = None
    while stack:
        try:
            call = stack[-1].send(result)
        except StopIteration as done:
            stack.pop()
            result = done.value
        else:
            stack.append(search(*call))
            result = None
    return result


@dataclass(frozen=True)
class CollapsePair:
    """One collapse step: remove ``free`` and everything above it."""

    free: Face
    coface: Face

    def __post_init__(self):
        if not self.free or not self.free < self.coface:
            raise CollapseError(
                f"free face {face_key(self.free)} must be a proper nonempty "
                f"subface of {face_key(self.coface)}"
            )

    def as_lists(self) -> list[list[int]]:
        return [list(face_key(self.free)), list(face_key(self.coface))]


CollapseSequence = tuple  # of CollapsePair


@dataclass(frozen=True)
class SearchResult:
    """Outcome of a budgeted search: yes / no / budget_exceeded."""

    verdict: str
    witness: tuple | None
    nodes: int

    @property
    def yes(self) -> bool:
        return self.verdict == "yes"


def _sole_facets(facets: Iterable[Face]) -> dict[Face, Face | None]:
    """Each nonempty proper face of ``facets`` mapped to the one facet
    containing it, or to None when two or more do.

    By the rule in the module docstring, the faces mapped to a facet are
    exactly the free faces, and that facet is their unique maximal coface.
    """
    facet_of: dict[Face, Face | None] = {}
    for facet in facets:
        for s in subfaces(facet, range(1, len(facet))):
            facet_of[s] = None if s in facet_of else facet
    return facet_of


def free_faces(k: Complex) -> list[tuple[Face, Face]]:
    """All free faces with their unique maximal coface, sorted.

    The maximal coface is always a facet; the dimension gap may exceed one
    (a pendant triangle's interior vertex is free with the triangle as its
    coface).
    """
    out = [(f, g) for f, g in _sole_facets(k.facets).items() if g is not None]
    out.sort(key=lambda p: face_sort_key(p[0]))
    return out


class _FaceIndex:
    """Mutable set of nonempty faces with a by-vertex index.

    The checked collapse replay removes a handful of faces in place,
    looking up cofaces through the vertex index instead of scanning every
    face.  ``reduction.schedule_collapse`` glues its pieces into one of
    K_phi, where this replay is also the gluing check.
    """

    def __init__(self, k: Complex):
        self.faces: set[Face] = {f for f in k.faces if f}
        self.by_vertex: dict[int, set[Face]] = {}
        for f in self.faces:
            for v in f:
                self.by_vertex.setdefault(v, set()).add(f)

    def cofaces(self, face: Face) -> list[Face]:
        """Faces strictly containing ``face`` (face itself excluded)."""
        it = iter(face)
        cands = self.by_vertex.get(next(it), set())
        for v in it:
            cands = cands & self.by_vertex.get(v, set())
        return [g for g in cands if len(g) > len(face)]

    def remove(self, faces: Iterable[Face]) -> None:
        for g in faces:
            self.faces.discard(g)
            for v in g:
                self.by_vertex[v].discard(g)

    def complex(self) -> Complex:
        return Complex.from_faces(self.faces)

    def collapse(self, pairs: Sequence[CollapsePair]) -> set[Face]:
        """Replay ``pairs`` in place, checking each step; returns the faces
        removed.

        Each step requires the free face to be present with a unique
        maximal coface equal to the recorded one.
        """
        removed: set[Face] = set()
        for i, pair in enumerate(pairs):
            f = pair.free
            if f not in self.faces:
                raise CollapseError(f"step {i}: {face_key(f)} already removed")
            cof = self.cofaces(f)
            maximal = [g for g in cof if not any(g < h for h in cof)]
            if len(maximal) != 1:
                raise CollapseError(
                    f"step {i}: {face_key(f)} is not free "
                    f"({len(maximal)} maximal cofaces)"
                )
            if maximal[0] != pair.coface:
                raise CollapseError(
                    f"step {i}: recorded coface {face_key(pair.coface)} but the "
                    f"unique maximal coface is {face_key(maximal[0])}"
                )
            cof.append(f)
            self.remove(cof)
            removed.update(cof)
        return removed


def verify_collapse_sequence(
    k: Complex,
    pairs: Sequence[CollapsePair],
    target: Complex | None = None,
) -> Complex:
    """Replay ``pairs`` on ``k``, checking each step, and return the result.

    Each step requires the free face to be present with a unique maximal
    coface equal to the recorded one.  When ``target`` is given the final
    face set must match it exactly.
    """
    index = _FaceIndex(k)
    index.collapse(pairs)
    result = index.complex()
    if target is not None and result != target:
        missing = sorted_face_keys(f for f in target.faces - result.faces if f)
        extra = sorted_face_keys(f for f in result.faces - target.faces if f)
        raise CollapseError(
            f"sequence ends at the wrong complex (missing {missing[:5]}, "
            f"extra {extra[:5]})"
        )
    return result


# -- lexicographic erasure and the greedy 2-dimensional decider ---------------


def _erase(faces: Iterable[Face], keep: set[Face]) -> tuple[list[CollapsePair], set[Face]]:
    """Collapse the lexicographically least free ridge outside ``keep``
    into the one face of ``faces`` holding it, until no ridge is free.

    ``faces`` all have one size, and their ridges are their faces one
    vertex smaller; their ``ridge_holders`` map keeps each ridge's live
    holders.  A ridge's count of live holders only falls, so it enters the
    heap when it becomes free, and stale entries are skipped.  Returns the
    pairs and the faces left.
    """
    live = set(faces)
    holders = ridge_holders(live)
    # A ridge is free when it has one holder and is not kept; a collapsed
    # ridge has no holder left, so it never looks free.
    heap = [face_key(r) for r, fs in holders.items() if len(fs) == 1 and r not in keep]
    heapq.heapify(heap)
    pairs: list[CollapsePair] = []
    while heap:
        r = frozenset(heapq.heappop(heap))
        if len(holders[r]) != 1 or r in keep:
            continue
        (f,) = holders[r]
        pairs.append(CollapsePair(r, f))
        live.discard(f)
        for v in f:
            other = f - {v}
            fs = holders[other]
            fs.remove(f)
            if len(fs) == 1 and other not in keep:
                heapq.heappush(heap, face_key(other))
    return pairs, live


def _erase_down(live: set[Face], keep: set[Face], top: int) -> list[CollapsePair]:
    """Run ``_erase`` on the faces of ``live`` of each size from ``top``
    down to edges, until a size leaves a face outside ``keep``.

    No face larger than ``top`` may lie outside ``keep``: then a ridge
    outside ``keep`` lies in no larger face, and the faces of its own
    size are all the cofaces it can have.  The erased faces leave
    ``live`` in place; returns the pairs.
    """
    pairs: list[CollapsePair] = []
    for size in range(top, 1, -1):
        step, left = _erase([f for f in live if len(f) == size], keep)
        pairs += step
        live.difference_update(f for p in step for f in (p.free, p.coface))
        if not left <= keep:
            break
    return pairs


def is_collapsible_2d_greedy(k: Complex) -> SearchResult:
    """Greedy collapsibility decider for complexes of dimension <= 2.

    Erases triangles through the lexicographically least free edge, then
    prunes the least free vertex, until nothing is free.  Complete in
    dimension two, because erasure is confluent: the complex is
    collapsible exactly when one vertex is left.  On yes the witness is
    the pairs, which collapse the complex to that vertex; ``nodes``
    counts the collapse steps made, a stalled erasure's included.  It is
    ``_collapse_search`` onto one face with nothing kept, which at
    dimension 2 or less is one ``_erase_down``.  To collapse onto a
    chosen vertex, or any other subcomplex, use ``collapses_to``.
    """
    if k.dim > 2:
        raise ValueError("greedy decider requires dimension <= 2")
    return _collapse_search(k, set(), 1, DEFAULT_BUDGET)


class TriangleErasure:
    """Incremental greedy erasure of a 2-complex's triangles, with undo.

    Erasing a triangle through a free edge (one lying in exactly one live
    triangle) is the 2-dimensional elementary collapse.  It is confluent:
    an edge's live-triangle count only ever falls, so every maximal
    erasure leaves the same triangles, namely the largest subset with no
    free edge.  Hence erase(K - R - t) = erase(erase(K - R) - t), and a
    removal search can puncture one triangle at a time, paying only for
    what that triangle frees, and undo a puncture by putting back what it
    took.

    Triangles (ids in ``face_key`` order; in dimension <= 2 every
    triangle is a facet) and the edges in a triangle, in the order of the
    triangles' ``ridge_holders`` map, are numbered once; the state is a
    live flag per triangle, a live-triangle count per edge and
    ``remaining``, the number of live triangles.  The edge order sets only
    the order of erasures, which by confluence leave the same triangles.
    """

    def __init__(self, k: Complex):
        if k.dim > 2:
            raise ValueError("erasure requires dimension <= 2")
        triangles = sorted((f for f in k.facets if len(f) == 3), key=face_key)
        self.tri_id: dict[Face, int] = {t: i for i, t in enumerate(triangles)}
        self._edge_tris = [[self.tri_id[t] for t in ts] for ts in ridge_holders(triangles).values()]
        self._tri_edges: list[list[int]] = [[] for _ in triangles]
        for e, ts in enumerate(self._edge_tris):
            for t in ts:
                self._tri_edges[t].append(e)
        self._count = [len(ts) for ts in self._edge_tris]
        self._live = [True] * len(triangles)
        self.remaining = len(triangles)
        self._take(list(dict.fromkeys(ts[0] for ts in self._edge_tris if len(ts) == 1)))

    def _take(self, taken: list[int]) -> list[int]:
        """Take the distinct live triangles ``taken``, then erase what
        they free; returns ``taken``, the erased ids appended.  A triangle
        is marked dead when it is taken and its edges are counted down
        when the loop reaches it, so an edge whose count falls to 1 holds
        at most one live triangle, and that one is free; an edge becomes
        free only when its count falls, so none is left free."""
        count, live, edge_tris = self._count, self._live, self._edge_tris
        for t in taken:
            live[t] = False
        for t in taken:  # the loop reads what it appends
            for e in self._tri_edges[t]:
                count[e] -= 1
                if count[e] == 1:
                    for s in edge_tris[e]:
                        if live[s]:
                            live[s] = False
                            taken.append(s)
        self.remaining -= len(taken)
        return taken

    def puncture(self, t: int) -> list[int]:
        """Remove triangle ``t`` and erase what it frees; returns the ids
        taken, ``t`` first if it was live, for ``undo``.  An erased
        triangle frees nothing, so puncturing it takes nothing."""
        return self._take([t] if self._live[t] else [])

    def undo(self, taken: list[int]) -> None:
        """Put back the triangles ``taken``, the list one ``puncture``
        returned; punctures are undone in the reverse of their order."""
        count, live = self._count, self._live
        for t in taken:
            live[t] = True
            for e in self._tri_edges[t]:
                count[e] += 1
        self.remaining += len(taken)


def find_removal(k: Complex, pools: Sequence[Sequence[Face]], budget: int) -> SearchResult:
    """First removal of χ̃(k) triangles, one from each of χ̃ of the pools,
    that leaves ``k`` collapsible: Hachimori's criterion on its pools.

    With χ̃ pools every removal takes one triangle per pool, in
    ``itertools.product`` order; with one singleton pool per triangle it
    is every set of χ̃ triangles, in ``itertools.combinations`` order.
    The walk runs on ``_run`` over one ``TriangleErasure``: level ``i``
    picks from a pool after the previous pick's, leaving enough pools for
    the levels below, punctures on the way down and undoes on the way
    up.  A disconnected complex, a negative χ̃ or fewer pools than χ̃ is
    a no with 0 nodes; otherwise ``nodes`` counts the removals checked,
    the empty one of χ̃ = 0 included, and the verdict is budget_exceeded,
    with ``nodes`` = ``budget`` + 1, at the first one past ``budget``.
    On yes the witness is ``(removal, pairs)``: the greedy decider
    replays the verdict on the punctured complex, and its pairs collapse
    it to a vertex.  A disagreement is an internal error, not a property
    of the input.  A pool entry that is not a triangle of ``k``, or a
    triangle in two pools, raises ValueError; a repeat inside one pool is
    picked once.

    So the picks of a removal R are distinct, and K - R is collapsible
    exactly when erasure leaves no triangle.  Removing triangles keeps
    the 1-skeleton, so K - R is connected, and χ̃(K - R) = χ̃ - |R| = 0.
    Erasure keeps both, so a remainder with no triangle is a connected
    graph with χ̃ = 0, a tree, which collapses to a vertex; and by
    confluence a remainder with a triangle is one that no collapse
    empties of triangles.

    The walk skips, unchecked, every candidate that an earlier refuted
    sibling dominates, siblings being ordered by (pool, position).  Say
    the prefix P plus the candidate t, from pool q, is refuted, and a
    later sibling t', from pool q' >= q, is among what t's puncture took,
    so it is not live in erase(K - P - t).  Erasure is monotone and
    confluent, so for every completion C of t', erase(K - P - t' - C)
    contains erase(K - P - t - t' - C), which is erase(K - P - t - C).  A
    removal is collapsible exactly when nothing is left, and each
    completion of t' picks from pools after q' >= q, so it is one of t,
    and P plus t' is refuted too.  The dominated ids of a level are what
    its refuted candidates' punctures took, and they hold for that level's
    prefix only, so each level entered starts an empty set.  The first
    collapsible removal does not change; only the count of removals
    checked falls.
    """
    engine = TriangleErasure(k)
    # Per pool, each distinct triangle's id mapped to the triangle.
    ids: list[dict[int, Face]] = []
    pool_of: dict[int, int] = {}
    for q, pool in enumerate(pools):
        ids.append({})
        for t in map(frozenset, pool):
            i = engine.tri_id.get(t)
            if i is None:
                raise ValueError(f"{face_key(t)} is not a triangle of the complex")
            if pool_of.setdefault(i, q) != q:
                raise ValueError(f"triangle {face_key(t)} could be picked twice")
            ids[q][i] = t
    picks = k.reduced_euler_characteristic()
    if not (k.vertices and one_skeleton_connected(k)) or not 0 <= picks <= len(ids):
        return SearchResult("no", None, 0)
    chosen: list[Face] = []
    tried = 0

    def walk(prev: int):
        nonlocal tried
        level = len(chosen)
        if level == picks:
            tried += 1
            if tried > budget:
                raise _BudgetExceeded
            return engine.remaining == 0
        dominated: set[int] = set()
        for q in range(prev + 1, len(ids) - (picks - level) + 1):
            for i, t in ids[q].items():
                if i in dominated:
                    continue
                chosen.append(t)
                taken = engine.puncture(i)
                if (yield (q,)):
                    return True
                chosen.pop()
                engine.undo(taken)
                dominated.update(taken)
        return False

    try:
        found = _run(walk, -1)
    except _BudgetExceeded:
        return SearchResult("budget_exceeded", None, tried)
    if not found:
        return SearchResult("no", None, tried)
    removal = tuple(chosen)
    greedy = is_collapsible_2d_greedy(k.remove_facets(removal))
    if not greedy.yes:
        raise InternalError(
            f"erasure found {sorted(map(face_key, removal))} collapsible, greedy disagrees"
        )
    return SearchResult("yes", (removal, greedy.witness), tried)


# -- collapse search by dimension ---------------------------------------------


def _collapse_search(k: Complex, keep: set[Face], size: int, budget: int) -> SearchResult:
    """Collapse ``k`` onto ``size`` faces without collapsing a face of ``keep``.

    A collapse can be reordered so that the dimensions of its steps never
    increase (Whitehead, 1939), so the faces outside ``keep`` go one size
    at a time, from the top down.  Up to triangles one lexicographic
    ``_erase_down`` is exact: erasure in one size is confluent, so every
    maximal erasure of the triangles leaves the same ones, and the graph
    left collapses onto the target exactly when the target's inclusion is
    a homotopy equivalence, whichever edges the erasure used.  Above that
    a DFS branches over the (ridge, top face) moves in lex order,
    memoizes refuted states by their exact removed-face set, and hands
    each state with no top face outside ``keep`` to the size below.  One
    map per size, edited per move: the ``ridge_holders`` map of the top
    faces outside ``keep`` is built once per entry into a size, and each
    move drops its top face from it (``complex_core._drop_holders``) and
    puts the face back (``_put_back``) when the move is undone.  A ridge
    left with no live holder keeps an empty list, so no top face is left
    when every list is empty.
    ``nodes`` counts the states the DFS enters plus the erasure steps;
    ``budget`` bounds the states only.  The DFS runs on ``_run``.
    """
    live = {f for f in k.faces if f}
    removed: set[Face] = set()
    memo: set[frozenset[Face]] = set()
    states = steps = 0

    def search(top: int, holders: dict | None = None):
        nonlocal states, steps
        if top <= 3:
            pairs = _erase_down(live, keep, top)
            steps += len(pairs)
            # Collapses keep the face set closed and never remove a kept face.
            if len(live) == size:
                return pairs
            # The erased faces go back, for the DFS above to backtrack over.
            live.update(f for p in pairs for f in (p.free, p.coface))
            return None
        states += 1
        if states > budget:
            raise _BudgetExceeded
        key = frozenset(removed)
        if key in memo:
            return None
        if holders is None:
            # As in ``_erase_down``, a free ridge is one that a single face
            # of size ``top`` outside keep holds.  The ridges are put in
            # lex order once, and the edits keep it.
            holders = ridge_holders(f for f in live if len(f) == top and f not in keep)
            holders = {r: holders[r] for r in sorted(holders, key=face_key)}
        found = None if any(holders.values()) else (yield (top - 1,))
        for ridge, face in [(r, h[0]) for r, h in holders.items() if len(h) == 1 and r not in keep]:
            move = (ridge, face)
            record = _drop_holders(holders, [face - {v} for v in face], {face})
            live.difference_update(move)
            removed.update(move)
            rest = yield (top, holders)
            _put_back(record)
            live.update(move)
            removed.difference_update(move)
            if rest is not None:
                found = [CollapsePair(*move), *rest]
                break
        if found is None:
            memo.add(key)
        return found

    try:
        pairs = _run(search, k.dim + 1)
    except _BudgetExceeded:
        return SearchResult("budget_exceeded", None, states + steps)
    if pairs is not None:
        return SearchResult("yes", tuple(pairs), states + steps)
    return SearchResult("no", None, states + steps)


def is_collapsible_dfs(k: Complex, budget: int = DEFAULT_BUDGET) -> SearchResult:
    """Exact collapsibility decider: does ``k`` collapse to a vertex?

    Runs the search by dimension of ``_collapse_search``, so only faces
    above dimension 2 are searched, under ``budget`` states; the verdict
    "no" is only returned after the search space is exhausted within
    budget.  Elementary collapses preserve the reduced Euler
    characteristic and connectivity, so complexes failing either invariant
    of the point are refused without search.
    """
    if k.reduced_euler_characteristic() != 0 or not one_skeleton_connected(k):
        return SearchResult("no", None, 0)
    # Collapses keep the face set closed, so a single face left is a vertex.
    return _collapse_search(k, set(), 1, budget)


def collapses_to(
    k: Complex, target: Complex, budget: int = DEFAULT_BUDGET
) -> SearchResult:
    """Search for a collapse of ``k`` onto the subcomplex ``target``: the
    one collapse onto a target, be it a disk onto a tree, a house onto
    the faces it shares with its neighbours, or a complex onto a vertex.

    Moves never remove a target face, and the search by dimension of
    ``_collapse_search`` spends ``budget`` on states above dimension 2
    only; up to dimension 2 it is one lexicographic ``_erase_down``,
    exact because erasure is confluent.  A target that is not a
    subcomplex raises CollapseError.
    """
    target_faces = {f for f in target.faces if f}
    if not target_faces <= k.faces:
        raise CollapseError("target is not a subcomplex")
    # No move removes a target face (the target is closed), so the search
    # is done when the face counts are equal.
    return _collapse_search(k, target_faces, len(target_faces), budget)
