"""Shelling orders and k-decomposability.

An order of the facets of a pure d-complex is a shelling when each facet
after the first meets the union of its predecessors in a nonempty pure
(d-1)-dimensional complex.  For d = 0 that intersection is the empty face
alone, so any set of isolated vertices is shellable.  A single facet is
always shellable, the facet ∅ of the empty-face complex {∅} too.
"""

from __future__ import annotations

from collections import Counter
from typing import Collection, Iterable, Mapping, Sequence

from shellkit.complex_core import (
    Complex,
    Face,
    FormatError,
    _drop_holders,
    _f_vector_of,
    _put_back,
    face_key,
    graph_connected,
    read_faces,
    ridge_holders,
    subfaces,
    vertex_links_connected,
)
from shellkit.collapse import DEFAULT_BUDGET, SearchResult, _BudgetExceeded, _run, find_removal


class ShellingError(ValueError):
    """A shelling or decomposition verification failed."""


def _check_pure_input(k: Complex) -> int:
    if not k:
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


def _may_be_shellable(
    facets: Collection[Face],
    by_ridge: Mapping[Face, list[Face]],
    adj: Mapping[Face, list[Face]],
    chi: int,
    stars: Iterable[Collection[Face]],
) -> bool:
    """False when the pure complex with these (nonempty) facets cannot be
    shellable, given that its facet graph (facets joined along shared
    ridges) is connected for d >= 1; True promises nothing.  ``by_ridge``
    is its ``ridge_holders`` map, ``adj`` the ``_facet_graph`` of its
    facets or of a complex that holds them, ``chi`` its χ̃, and ``stars``
    the stars (the facets through one vertex) whose connectivity is
    tested: every star, unless the caller knows that the others pass.

    A shellable pure d-complex passes four tests.  For d >= 1 each facet
    after the first meets its predecessors along a ridge, so the facet
    graph is connected.  That test needs the graph alone, so
    ``_built_state`` and ``_shed``, which build or edit a node's state,
    run it first and do the rest only for a complex that passes; the
    other three are here, and only those two call this.  Its vertex
    links are shellable, so for d >= 2 each link's facet graph is
    connected; the facets f - v of the link of v meet along r - v for the
    ridges r through v, so that graph is the one on the facets through v
    joined along the ridges through v, which is the facet graph restricted
    to the star: two facets through v that share a ridge share v too.  It
    is a wedge of d-spheres up to homotopy, so (-1)^d χ̃ >= 0.  And for
    d >= 1, when χ̃ = 0 some ridge lies in one facet alone: a shelling has
    exactly (-1)^d χ̃ facets whose restriction face is the whole facet
    (Björner and Wachs, 1996), so with χ̃ = 0 the last facet F has a
    vertex v outside its restriction face, and the ridge F - v lies in no
    other facet.  A ridge whose facets were all shed keeps an empty list
    (``_shed``), so the test looks for a list of length exactly 1.
    """
    d = len(next(iter(facets))) - 1
    if d >= 2 and not all(graph_connected(star, adj) for star in stars):
        return False
    if d >= 1 and chi == 0 and not any(len(around) == 1 for around in by_ridge.values()):
        return False
    return (-1) ** d * chi >= 0


def _facet_graph(by_ridge: Mapping[Face, list[Face]]) -> dict[Face, list[Face]]:
    """Each facet mapped to every facet it shares a ridge with.  Each
    ridge joins all its holders pairwise, so the graph restricted to any
    subset of the facets is that subset's own facet graph."""
    adj: dict[Face, list[Face]] = {}
    for around in by_ridge.values():
        for f in around:
            adj.setdefault(f, []).extend(g for g in around if g is not f)
    return adj


def _reduced_euler(facets: Collection[Face]) -> int:
    """χ̃ of the complex spanned by one or more distinct ``facets``, signed
    over the f-vector that ``complex_core._f_vector_of`` counts size by
    size.  No closure is built."""
    return sum(n if r % 2 else -n for r, n in enumerate(_f_vector_of(facets)))


def _cone_base(k: Complex) -> tuple[frozenset, frozenset]:
    """``k`` as a join base * apexes, the base as its facet set: when the
    complex has two or more facets, the vertices in all of them are the
    apexes, and the base has the facets {F - apexes}.  A complex is the
    cone over the link of a vertex v in every facet, with the facets
    {F - v}; so the base is the link of each apex in turn.  Its facets
    are distinct and share no vertex, so it is no cone."""
    facets = k.facets
    if len(facets) > 1 and (apexes := frozenset.intersection(*facets)):
        return frozenset(f - apexes for f in facets), apexes
    return facets, frozenset()


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
    The verdict "no" is an exhaustive refutation, or, at 0 nodes, the
    prune of ``_built_state``, run once, on the whole complex.  Inside the
    search it could not prune: each prefix the search builds is a shelling
    of its own facets, so it passes, and the facets left to place need
    not pass it.

    A cone is decided through its apex link (``_cone_base``): a cone
    v * L is shellable exactly when L is (Provan and Billera, 1980), and a
    shelling of L lifts to one of v * L by adding v to every facet.  So
    the search runs on the base L, ``nodes`` counts that search, and the
    apexes join every facet of its shelling.  ``extend`` yields its calls
    to ``collapse._run``, so the recursion limit does not bound the depth.
    """
    _check_pure_input(k)
    base, apexes = _cone_base(k)
    facets = sorted(base, key=face_key)
    if len(facets) <= 1 or len(facets[0]) == 1:
        return SearchResult("yes", tuple(f | apexes for f in facets), 0)
    state = _built_state(facets, 0)
    if state is None:
        return SearchResult("no", None, 0)
    d, m, adj = len(facets[0]) - 1, len(facets), state[1]
    # Bit j of nbrs[i] is set when facets i and j share a ridge, and two
    # facets share at most one.
    bit = {f: 1 << i for i, f in enumerate(facets)}
    nbrs = [sum(bit[g] for g in adj[f]) for f in facets]
    faces_of = [subfaces(f, range(d + 2)) for f in facets]

    dead: set[int] = set()
    nodes = 0
    chosen: list[Face] = []
    placed: Counter = Counter()

    def extend(used: int):
        nonlocal nodes
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
            # A full order and a refuted prefix are answered here, so only
            # the prefixes searched make a call and count a node.
            after = used | 1 << i
            if len(chosen) == m or (after not in dead and (yield (after,))):
                return True
            chosen.pop()
            placed.subtract(faces_of[i])
        dead.add(used)
        return False

    try:
        if _run(extend, 0):
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
    pure of dimension d - |σ|, with facets {F - σ : F ⊇ σ}: {∅} for a
    facet σ, whose one facet is a leaf like any other.  A face that
    misses σ but lies in some F ⊇ σ lies in a ridge F - v with v in σ, and
    every other facet through that ridge misses σ; so the deletion is pure
    d-dimensional exactly when each such ridge lies in two or more facets,
    and its facets are then those missing σ.  So the node's ridge map
    tests every σ, read per candidate, and serves ``_may_be_shellable``
    too; both children are pure by construction.

    A k-decomposable complex is shellable (Provan and Billera, 1980), so
    a node that fails the prune, the facet-graph test and then
    ``_may_be_shellable``, is refuted at once; the full search would
    refute it too, so verdicts and trees do not change.  The prune is a
    conjunction of tests that read the node alone, so their order changes
    no answer: the facet-graph test runs first, before any other state is
    built, because most refuted nodes fail it.  Each node's state comes
    from ``_built_state`` or ``_shed``, which run the prune and return
    None for a node it refutes.
    Results are memoized exactly, by the facet set.  The search tries
    shedding faces in one fixed order and each child's result depends on
    its facet set alone, so the tree returned for a "yes" is the first one
    in that order.

    The root and every link child (the facets through σ, few) build their
    state from their facets (``_built_state``): the ridge map, the facet
    graph, χ̃, and the shedding candidates, each face of at most k + 1
    vertices with the facets through it, in ``face_key`` order
    (``_cofacets``).  A deletion child shares its parent's maps: ``_shed``
    edits them in place for the child, which loses only the facets
    through σ, the shed facets, and ``_put_back`` undoes the edits once
    the child's search returns.  So one set of maps serves every chain of
    deletions, and a leaf or a memo hit, which answers before it reads a
    state, pays for no shed:
    - *Ridge map and candidates.*  A face's holders in the child are its
      holders in the parent less the shed facets, and only the faces of
      shed facets hold one.  So the shed gives those faces alone new
      lists (``complex_core._drop_holders``), and ``_put_back`` puts the
      old ones back.  A face left with no holders keeps an
      empty list, so the keys keep their order and a parent's loop over
      its candidates runs on across the child's edit.  The candidate loop
      skips a face with no holders, stars are read only where they are
      nonempty, and the χ̃ = 0 rule looks for a ridge of exactly one
      facet.
    - *Facet graph.*  Whether two facets share a ridge depends on the two
      alone, and ``_facet_graph`` joins every two holders of a ridge, so
      the graph built at the nearest node built from scratch, walked
      through the node's own facets only, is the node's facet graph.  It
      is shared, not copied.
    - *Connectivity from the frontier.*  For d >= 1 the parent's facet
      graph is connected, since the parent passed the prune.  So a path
      in it joins each child facet g to a shed facet; the last child
      facet on the path before its first shed facet is a *frontier*
      facet, a child facet that shares a ridge with a shed facet
      (``_frontier``), and the path up to it runs through child facets.
      So every child facet lies in the component of a frontier facet, and
      the child's facet graph is connected exactly when all its frontier
      facets lie in one component.  ``graph_connected`` tests that with
      one breadth-first walk from a frontier facet through the child's
      facets, which stops once it has met them all: about the shed star's
      surroundings on a connected child, not the whole graph.
    - *χ̃.*  Let σ̄ be the full simplex on σ.  K = del σ ∪ (σ̄ * lk σ), and
      the two meet in ∂σ̄ * lk σ, the faces τ ∪ λ with τ ⊊ σ and λ in
      lk σ.  With χ̃(A ∪ B) = χ̃(A) + χ̃(B) - χ̃(A ∩ B),
      χ̃(A * B) = -χ̃(A) χ̃(B), χ̃(σ̄) = 0 and χ̃(∂σ̄) = (-1)^|σ| (a sphere
      of dimension |σ| - 2; the empty-face complex when |σ| = 1):
      χ̃(del σ) = χ̃(K) - (-1)^|σ| χ̃(lk σ).  The deletion is pure, so
      del σ is the complex the child's facets span, and χ̃(lk σ) is
      counted size by size over the link's facets.  χ̃ is a number of
      each node's own state, so the parent's needs no undo.
    - *Stars.*  A vertex on no shed facet keeps its star, and its star
      graph joins facets through the vertex only, so that graph is the
      parent's too.  A child is explored only after its parent passed
      ``_may_be_shellable``, so, down the chain of deletions from a node
      built from scratch, where every star was tested, each such star
      graph is connected.  Only the stars of the shed facets' vertices are
      tested again.
    Each node's prune therefore answers as it would on a state built from
    scratch, and no verdict, tree or node count depends on the shed.

    A cone v * L is k-decomposable exactly when L is (Provan and Billera,
    1980), so a cone is decided through its apex link (``_cone_base``), as
    in ``decide_shellable``: the search runs on the base L, ``nodes``
    counts that search, and the cone's tree is the lift of the base's
    tree.  The link and deletion of a shedding face σ in v * L are the
    cones over its link and deletion in L, so the lift keeps every
    shedding face and adds v to every leaf; the search makes its leaves
    so, and the leaf [] of the empty-face complex becomes [v].  ``rec``
    yields its calls to ``collapse._run``, as ``extend`` does.
    """
    if kk < 0:
        raise ShellingError("k must be >= 0")
    # A shedding face has at most d + 1 vertices, so a k above d asks what k = d asks.
    kk = min(kk, _check_pure_input(k))
    base, apexes = _cone_base(k)
    # Facet set, as a bitmask over ids handed out to facets as they are
    # first seen -> the tree rec returned for it, or None for no.  An int
    # key keeps no facet set alive; frozenset keys would hold every one seen
    # (traced peak 4.3 -> 5.2 MB on sd^2 of a 3-simplex boundary, k = 0).
    exact: dict[int, dict | None] = {}
    facet_ids: dict[Face, int] = {}
    nodes = 0

    def rec(facets: frozenset, mask: int | None = None, state: tuple | None = None):
        """The tree of the node with these facets, or None.  A deletion
        child also gets its mask and the state its parent shed into it,
        None when the shed's prune refutes it; any other node is built by
        ``_built_state``.  A node the prune refutes has no candidates, so
        every no leaves by the one exit at the end."""
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise _BudgetExceeded
        if len(facets) == 1:
            (facet,) = facets
            return {"leaf": list(face_key(facet | apexes))}
        if mask is None:
            mask = sum(1 << facet_ids.setdefault(f, len(facet_ids)) for f in facets)
            if mask not in exact:
                state = _built_state(facets, kk)
        if mask in exact:
            return exact[mask]
        by_ridge, cofacets = (state[0], state[3]) if state else ({}, {})
        for sigma, around in cofacets.items():
            # σ is shed only when it lies in a live facet and each ridge
            # f - v, v in σ, has other holders.
            if not around or any(len(by_ridge[f - {v}]) == 1 for f in around for v in sigma):
                continue
            lk_tree = yield (frozenset(f - sigma for f in around),)
            if lk_tree is None:
                continue
            child = facets.difference(around)
            child_mask = mask & ~sum(1 << facet_ids[f] for f in around)
            # A leaf or a memo hit answers before it reads a state, so it
            # pays for no shed.
            fresh = len(child) > 1 and child_mask not in exact
            shed, records = _shed(state, child, kk, sigma, around) if fresh else (None, ())
            dl_tree = yield (child, child_mask, shed)
            _put_back(*records)
            if dl_tree is None:
                continue
            tree = {"shedding": list(face_key(sigma)), "link": lk_tree, "delete": dl_tree}
            exact[mask] = tree
            return tree
        exact[mask] = None
        return None

    try:
        tree = _run(rec, base)
    except _BudgetExceeded:
        return SearchResult("budget_exceeded", None, nodes)
    if tree is not None:
        return SearchResult("yes", (tree,), nodes)
    return SearchResult("no", None, nodes)


def _cofacets(facets: Iterable[Face], kk: int) -> dict[Face, list[Face]]:
    """Each face of at most ``kk`` + 1 vertices of ``facets`` mapped to the
    facets through it, the faces in ``face_key`` order."""
    cofacets: dict[Face, list[Face]] = {}
    for f in facets:
        for sigma in subfaces(f, range(1, kk + 2)):
            cofacets.setdefault(sigma, []).append(f)
    return {sigma: cofacets[sigma] for sigma in sorted(cofacets, key=face_key)}


def _frontier(
    child: Collection[Face], adj: Mapping[Face, list[Face]], around: list[Face]
) -> set[Face]:
    """The facets of a deletion ``child`` that share a ridge with a shed
    facet, one of ``around``, in the facet graph ``adj`` of a complex that
    holds them all."""
    return {g for f in around for g in adj[f] if g in child}


def _built_state(facets: Collection[Face], kk: int) -> tuple | None:
    """A node's state built from its (two or more, distinct) facets: the
    ridge map, the facet graph, χ̃ and ``_cofacets(facets, kk)``, or None
    when the prune refutes the node: the facet-graph test (d >= 1) first,
    then ``_may_be_shellable`` on every star."""
    by_ridge = ridge_holders(facets)
    adj = _facet_graph(by_ridge)
    if len(next(iter(facets))) > 1 and not graph_connected(facets, adj):
        return None
    chi, cofacets = _reduced_euler(facets), _cofacets(facets, kk)
    stars = [around for sigma, around in cofacets.items() if len(sigma) == 1]
    if not _may_be_shellable(facets, by_ridge, adj, chi, stars):
        return None
    return by_ridge, adj, chi, cofacets


def _shed(state: tuple, facets: frozenset, kk: int, sigma: Face, around: list[Face]) -> tuple:
    """The state of a node's deletion of the shedding face ``sigma``, made
    by editing the maps of the node's ``state`` in place, where ``facets``
    are the child's facets and ``around`` the facets through ``sigma``; or
    None when the prune refutes the child: the facet-graph test from the
    frontier first, then ``_may_be_shellable`` on the stars of the shed
    facets' vertices.  It comes with the records of the edits, for
    ``_put_back`` once the child's search returns, since the two states
    share their maps.  The proof is in ``decide_k_decomposable``."""
    by_ridge, adj, chi, cofacets = state
    if len(around[0]) > 1 and not graph_connected(facets, adj, _frontier(facets, adj, around)):
        return None, ()
    gone = set(around)
    ridges = {f - {v} for f in around for v in f}
    touched = {tau for f in around for tau in subfaces(f, range(1, kk + 2))}
    records = _drop_holders(by_ridge, ridges, gone), _drop_holders(cofacets, touched, gone)
    chi -= (-1) ** len(sigma) * _reduced_euler([f - sigma for f in around])
    stars = [cofacets[tau] for tau in touched if len(tau) == 1 and cofacets[tau]]
    shed = (by_ridge, adj, chi, cofacets)
    return (shed if _may_be_shellable(facets, by_ridge, adj, chi, stars) else None), records


def verify_decomposition(k: Complex, kk: int, tree) -> int:
    """Check a shedding tree and return the number of its nodes checked:
    links and deletions are recomputed, never trusted from the witness.  A
    node that is not an object (the root is read first, whatever ``k`` is),
    a face that is not a list, a vertex id that is not an int (a bool
    included), or a face that repeats a vertex is a ``FormatError``.

    ``k`` must be nonempty and pure; then every node is a pure complex,
    held as its facet set, and the tree is walked from an explicit stack,
    each link before its deletion.  In a pure d-complex the link of σ has
    the facets {F - σ : F ⊇ σ}; that of a facet is {∅}, the empty-face
    complex of the leaf [].  Every face of the deletion of σ lies in a
    facet that misses σ or in some F - v, F ⊇ σ a facet and v in σ, and
    F - v lies in no other facet G through σ, since G ⊇ (F - v) ∪ σ = F.
    So the deletion is pure d-dimensional exactly when some facet misses
    σ and each F - v is a ridge of such a facet, and its facets are then
    those that miss σ.  Both children are pure by construction, so no
    node is tested for purity again.
    """
    if not isinstance(tree, Mapping):
        raise FormatError("decomposition tree node must be an object")
    if not k:
        raise ShellingError("a decomposition needs a nonempty complex")
    if not k.is_pure():
        raise ShellingError("node complex is not pure")
    checked = 0
    # (a node's facets, the tree node that holds its subtree, and the key)
    stack = [(k.facets, {"tree": tree}, "tree")]
    while stack:
        facets, parent, key = stack.pop()
        if key not in parent:
            raise ShellingError(f"tree node missing {key!r}")
        node = parent[key]
        if not isinstance(node, Mapping):
            raise FormatError("decomposition tree node must be an object")
        checked += 1
        if "leaf" in node:
            (leaf,) = read_faces([node["leaf"]], "leaf")
            if facets != {leaf}:
                if not leaf:
                    raise ShellingError("leaf [] claims an empty complex")
                raise ShellingError(
                    f"leaf {list(face_key(leaf))} does not match the complex at this node"
                )
            continue
        if "shedding" not in node:
            raise ShellingError("tree node needs 'leaf' or 'shedding'")
        (sigma,) = read_faces([node["shedding"]], "shedding face")
        around = [f for f in facets if sigma <= f]
        if not sigma or not around:
            raise ShellingError(f"shedding face {list(face_key(sigma))} not in complex")
        if len(sigma) > kk + 1:
            raise ShellingError(f"shedding face of dimension {len(sigma) - 1} exceeds k={kk}")
        kept = facets.difference(around)
        if not kept or not all(any(f - {v} < g for g in kept) for f in around for v in sigma):
            d = len(around[0]) - 1
            raise ShellingError(f"deletion of {sorted(sigma)} is not pure {d}-dimensional")
        stack.append((kept, node, "delete"))
        stack.append((frozenset(f - sigma for f in around), node, "link"))
    return checked


# -- shellability of the double barycentric subdivision -----------------------


def hachimori_decide_sd2(k: Complex, budget: int = DEFAULT_BUDGET) -> SearchResult:
    """Decide shellability of sd²(k) without constructing it.

    The double barycentric subdivision of a pure 2-complex is shellable
    exactly when every vertex link of the complex itself is connected
    and removing some set of χ̃ triangles leaves it collapsible.  Any
    other input raises ShellingError, as in ``decide_shellable``.  A
    disconnected link is a no with 0 nodes; otherwise the removal sets
    are searched with ``collapse.find_removal`` over one singleton pool
    per triangle, in ``itertools.combinations`` order over the
    triangles, so a negative χ̃ is a no with 0 nodes too.  Its result is
    returned as it is: on yes the witness is ``(removal, pairs)``, the
    removed triangles and a collapse of the remainder to a vertex, and
    ``nodes`` counts the removals checked after dominance pruning.  The
    verdict is budget_exceeded once the removals checked overrun
    ``budget``.
    """
    if k.dim != 2 or not k.is_pure():
        raise ShellingError("the sd2 criterion applies to pure 2-dimensional complexes")
    if not vertex_links_connected(k)[0]:
        return SearchResult("no", None, 0)
    return find_removal(k, [[t] for t in sorted(k.facets, key=face_key)], budget)
