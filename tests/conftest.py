import random

from shellkit.collapse import DEFAULT_BUDGET, CollapsePair, SearchResult, _FaceIndex, _sole_facets
from shellkit.complex_core import (
    Complex,
    UnionFind,
    canonical_form,
    face_key,
    facets_of,
    one_skeleton_connected,
)
from shellkit.gadgets import dunce_hat


def random_pure_2complex(rng: random.Random, max_facets: int = 8, pool: int = 9) -> Complex:
    """Random pure 2-complex: distinct triangles on a small vertex pool."""
    want = rng.randint(1, max_facets)
    facets = set()
    while len(facets) < want:
        facets.add(frozenset(rng.sample(range(pool), 3)))
    return Complex.from_facets(facets)


def random_complex(rng: random.Random, max_facets: int = 6, pool: int = 8) -> Complex:
    """Random complex with mixed facet dimensions (1 to 3 vertices each)."""
    want = rng.randint(1, max_facets)
    facets = [rng.sample(range(pool), rng.randint(1, 3)) for _ in range(want)]
    return Complex.from_facets(facets)


def pendant_dunce_hat() -> Complex:
    """The dunce hat with a pendant triangle on its least edge: χ̃ = 0 and
    two free edges, so it passes every test of
    ``shelling._may_be_shellable``, but it is not collapsible, so not
    shellable."""
    hat = dunce_hat()
    edge = min((f for f in hat.faces if len(f) == 2), key=face_key)
    return Complex.from_facets([*hat.facets, edge | {max(hat.vertices) + 1}])


def oracle_vertex_links_connected(k: Complex) -> tuple[bool, tuple[int, ...]]:
    """Reference: one union-find per vertex over its link vertices and link
    edges, collected from the edges and triangles."""
    link_vertices: dict[int, list] = {v: [] for v in k.vertices}
    link_edges: dict[int, list] = {v: [] for v in k.vertices}
    for f in k.faces:
        if len(f) == 2:
            a, b = f
            link_vertices[a].append(b)
            link_vertices[b].append(a)
        elif len(f) == 3:
            for v in f:
                link_edges[v].append(f - {v})
    bad = []
    for v in k.vertices:
        vs = link_vertices[v]
        if len(vs) <= 1:
            continue
        uf = UnionFind()
        for a, b in link_edges[v]:
            uf.union(a, b)
        root = uf.find(vs[0])
        if not all(uf.find(w) == root for w in vs):
            bad.append(v)
    return (not bad, tuple(bad))


# -- the all-dimension collapse search, rebuilt at every node ------------------
#
# The library decides collapsibility by dimension (erasure up to triangles,
# branching only on top-dimensional moves).  This oracle is the search it
# replaced: it branches over the free gap-one pairs of every dimension and
# rebuilds the facets and the free pairs from the face set at every node, so
# the cross-checks compare two independent searches.


def restore_faces(index: _FaceIndex, faces) -> None:
    """Put faces that ``index.remove`` took out back into the index."""
    for g in faces:
        index.faces.add(g)
        for v in g:
            index.by_vertex[v].add(g)


def oracle_move_key(move, last_removed):
    """Reference move order: deeper collapses first, near the last removal
    first, then lexicographic by ridge and facet."""
    ridge, facet = move
    local = 0 if (last_removed is not None and ridge & last_removed) else 1
    return (-len(facet), local, sorted(ridge), sorted(facet))


def oracle_collapse_search(k, budget, done, memo_key, protected):
    """Reference: the collapse DFS over moves of every dimension, with the
    facets and the free pairs rebuilt from the face set at every node, and
    the memo key computed at every node."""
    index = _FaceIndex(k)
    memo = set()
    nodes = 0
    budget_hit = False

    def dfs(last):
        nonlocal nodes, budget_hit
        nodes += 1
        if nodes > budget:
            budget_hit = True
            return None
        if done(index):
            return ()
        facets = facets_of(index.faces)
        key = memo_key(index, facets)
        if key in memo:
            return None
        moves = [
            (r, f) for r, f in _sole_facets(facets).items()
            if f is not None and len(f) == len(r) + 1 and r not in protected
        ]
        for ridge, facet in sorted(moves, key=lambda mv: oracle_move_key(mv, last)):
            index.remove((ridge, facet))
            suffix = dfs(ridge | facet)
            restore_faces(index, (ridge, facet))
            if suffix is not None:
                return (CollapsePair(ridge, facet),) + suffix
            if budget_hit:
                return None
        memo.add(key)
        return None

    witness = dfs(None)
    if witness is not None:
        return SearchResult("yes", witness, nodes)
    return SearchResult("budget_exceeded" if budget_hit else "no", None, nodes)


def oracle_is_collapsible_dfs(k, budget=DEFAULT_BUDGET):
    if not k.faces:
        return SearchResult("no", None, 0)
    if k.reduced_euler_characteristic() != 0 or not one_skeleton_connected(k):
        return SearchResult("no", None, 0)
    return oracle_collapse_search(
        k, budget, lambda index: len(index.faces) == 1,
        lambda index, facets: canonical_form(Complex.from_facets(facets)), set(),
    )


def oracle_collapses_to(k, target, budget=DEFAULT_BUDGET):
    target_faces = {f for f in target.faces if f}
    return oracle_collapse_search(
        k, budget, lambda index: index.faces == target_faces,
        lambda index, facets: frozenset(index.faces), target_faces,
    )
