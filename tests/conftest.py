import json
import random
import re
import sys
from collections.abc import Mapping
from contextlib import contextmanager
from itertools import combinations, permutations

from shellkit import reduction
from shellkit.collapse import (
    DEFAULT_BUDGET,
    CollapsePair,
    SearchResult,
    _BudgetExceeded,
    _FaceIndex,
    _sole_facets,
)
from shellkit.complex_core import (
    Complex,
    Feature,
    FormatError,
    LabeledComplex,
    canonical_form,
    face_key,
    face_sort_key,
    facets_of,
    graph_connected,
    one_skeleton_connected,
    read_faces,
    ridge_holders,
    sorted_face_keys,
    subfaces,
    vertex_links_connected,
)
from shellkit.gadgets import (
    OneHouseSpec,
    build_literal_house,
    build_O,
    build_one_house,
    build_three_house,
    build_variable_sphere,
    dunce_hat,
    map_feature,
)
from shellkit.reduction import _SIZE_CONSTANT, _lit_name, _occurrences
from shellkit.shelling import ShellingError, _check_pure_input, _cone_base


class UnionFind:
    """Disjoint sets over hashable items, for the reference checks: the
    library's glue keeps its own vertex classes, so no reference shares
    union code with the glue it checks."""

    def __init__(self) -> None:
        self.parent: dict = {}

    def find(self, x):
        parent = self.parent
        while parent.setdefault(x, x) != x:
            parent[x] = x = parent[parent[x]]
        return x

    def union(self, a, b) -> None:
        self.parent[self.find(b)] = self.find(a)


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


def grown_pure_complex(rng: random.Random, d: int, size: int) -> Complex:
    """A pure d-complex of ``size`` facets grown from one simplex: each new
    facet holds a ridge of an earlier one and a vertex that is new or, with
    probability 0.6, an old one.  Its facet graph is connected, so the
    root prune refutes few of these, and the searches go deep."""
    facets = [frozenset(range(d + 1))]
    n = d + 1
    while len(facets) < size:
        f = rng.choice(facets)
        ridge = f - {rng.choice(sorted(f))}
        if rng.random() < 0.6:
            v = rng.randrange(n)
        else:
            v, n = n, n + 1
        if v not in ridge and ridge | {v} not in facets:
            facets.append(ridge | {v})
    return Complex.from_facets(facets)


def pinched_complex(rng: random.Random, d: int, size: int) -> Complex:
    """A grown pure d-complex (``grown_pure_complex``) with two vertices
    identified whose stars are disjoint, so that no facet repeats a vertex.
    The glued vertex's star is often held together by a few ridges only,
    so a deletion can leave it disconnected where the whole complex is
    not."""
    pairs = []
    while not pairs:
        k = grown_pure_complex(rng, d, size)
        stars = {v: {f for f in k.facets if v in f} for v in k.vertices}
        pairs = [
            (u, w) for u, w in combinations(k.vertices, 2) if stars[u].isdisjoint(stars[w])
        ]
    u, w = rng.choice(pairs)
    return Complex.from_facets([[u if v == w else v for v in f] for f in k.facets])


def link_of(k: Complex, sigma) -> Complex:
    """The link of ``sigma`` by its definition: the faces that miss it and
    whose union with it is a face."""
    s = frozenset(sigma)
    return Complex(frozenset(f for f in k.faces if not f & s and f | s in k.faces), _trusted=True)


def deletion_of(k: Complex, sigma) -> Complex:
    """The deletion of ``sigma`` by its definition: the faces that do not
    contain it."""
    return Complex(frozenset(f for f in k.faces if not f.issuperset(sigma)), _trusted=True)


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


# -- the flag-closure subdivision -----------------------------------------------
#
# The library makes each face of sd(K) once, as a chain topped by a face of
# K.  This oracle is the subdivision it replaced: it lists the flags of each
# facet (one per vertex ordering), closes them through
# ``Complex.from_facets`` and lists the flags again for each label.


EMPTY_FACE_COMPLEX = Complex(frozenset({frozenset()}), _trusted=True)


def strip(n: int) -> Complex:
    """The strip of the ``n`` triangles i i+1 i+2, a shellable disk."""
    return Complex.from_facets([i, i + 1, i + 2] for i in range(n))


@contextmanager
def recursion_headroom(frames: int):
    """Run the block under a recursion limit ``frames`` above the depth of
    its caller, so that a search recursing once per level past that many
    levels would raise ``RecursionError``."""
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + frames)
    try:
        yield
    finally:
        sys.setrecursionlimit(limit)


def oracle_flags(faces, vid):
    """The maximal chains of faces inside each given face, as ``vid`` tuples."""
    for f in faces:
        for order in permutations(sorted(f)):
            yield tuple(vid[frozenset(order[:i])] for i in range(1, len(order) + 1))


def oracle_map_feature_once(feat: Feature, vid) -> Feature:
    if feat.kind == "vertex":
        return Feature.vertex(vid[frozenset(feat.value)])
    if feat.kind in ("edge", "path"):
        vs = feat.value
        out = [vid[frozenset([vs[0]])]]
        for a, b in zip(vs, vs[1:]):
            out.append(vid[frozenset((a, b))])
            out.append(vid[frozenset([b])])
        return Feature.path(out)
    return Feature.subcomplex(oracle_flags(Complex.from_facets(feat.value).facets, vid))


def oracle_subdivide_labeled(lc: LabeledComplex, levels: int):
    """The subdivided labeled complex, closed, and the carrier of each of
    its vertices, composed level by level as the union of the carriers of
    the face below that the vertex subdivides."""
    current = lc
    carrier = {v: frozenset([v]) for v in lc.complex.vertices}
    for _ in range(levels):
        k = current.complex
        originals = sorted(k.faces - {frozenset()}, key=face_sort_key)
        vid = {f: i for i, f in enumerate(originals)}
        flags = Complex.from_facets(oracle_flags(k.facets, vid))
        sd = flags or EMPTY_FACE_COMPLEX
        labels = {name: oracle_map_feature_once(feat, vid) for name, feat in current.labels.items()}
        current = LabeledComplex(sd, labels)
        carrier = {i: frozenset().union(*(carrier[v] for v in f)) for i, f in enumerate(originals)}
    return current, carrier


def oracle_to_json(lc: LabeledComplex | Complex) -> str:
    """The whole-document writer that ``to_json`` replaced: one tree of the
    document and one ``json.dumps`` call over it."""
    if isinstance(lc, Complex):
        lc = LabeledComplex(lc, {})

    def value(feat: Feature):
        if feat.kind == "vertex":
            return feat.value[0]
        if feat.kind in ("edge", "path"):
            return list(feat.value)
        return [list(f) for f in sorted(map(face_key, feat.value))]

    doc = {
        "vertices": [{"id": v} for v in lc.complex.vertices],
        "facets": list(map(list, sorted_face_keys(lc.complex.facets))),
        "labels": {
            name: {"kind": feat.kind, "value": value(feat)}
            for name, feat in sorted(lc.labels.items())
        },
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


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


# -- the decomposition search, rebuilt at every node --------------------------
#
# The library's decomposition search hands each deletion child its parent's
# ridge map, χ̃ and star checks, updated for the shed facets, and tests its
# facet graph from the facets next to the shed ones.  This oracle is the
# search it replaced: every node builds its ridge map, the closure of its
# facets (to count χ̃) and the facet and star graphs of every vertex from its
# bare facet set, and walks the whole facet graph.


def oracle_failed_rules(facets, by_ridge) -> set:
    """The rules of the prune that one node fails, each tested from
    scratch: "graph" (the facet graph is disconnected, d >= 1), "star"
    (some star graph is, d >= 2), "free" (χ̃ = 0 and no ridge lies in one
    facet alone, d >= 1) and "chi" ((-1)^d χ̃ < 0), with χ̃ counted over
    the closure."""
    d = len(next(iter(facets))) - 1
    star = {}
    for f in facets:
        for v in f:
            star.setdefault(v, []).append(f)
    adj = {}
    star_adj = {v: {} for v in star}
    for ridge, around in by_ridge.items():
        f = around[0]
        for g in around[1:]:
            for graph in (adj, *(star_adj[v] for v in ridge)):
                graph.setdefault(f, []).append(g)
                graph.setdefault(g, []).append(f)
    faces = {g for f in facets for g in subfaces(f, range(d + 2))}
    chi = sum(1 if len(g) % 2 else -1 for g in faces)
    failed = set()
    if d >= 1 and not graph_connected(facets, adj):
        failed.add("graph")
    if d >= 2 and not all(graph_connected(star[v], star_adj[v]) for v in star):
        failed.add("star")
    if d >= 1 and chi == 0 and all(len(around) > 1 for around in by_ridge.values()):
        failed.add("free")
    if (-1) ** d * chi < 0:
        failed.add("chi")
    return failed


def oracle_decide_k_decomposable(
    k: Complex, kk: int, budget: int = DEFAULT_BUDGET, refuted: list | None = None
) -> SearchResult:
    """Reference: ``shelling.decide_k_decomposable`` with every node's
    ridge map and prune built from its facet set alone, and a cone's tree
    lifted from its base's tree after the search (``oracle_cone_tree``).
    When ``refuted`` is a list, each node the prune refutes appends to it
    whether the node is a deletion child and the set of rules it fails."""
    if kk < 0:
        raise ShellingError("k must be >= 0")
    _check_pure_input(k)
    base, apexes = _cone_base(k)
    exact = {}
    nodes = 0

    def rec(facets, deletion=False):
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise _BudgetExceeded
        if not facets:
            return {"leaf": []}
        if len(facets) == 1:
            (facet,) = facets
            return {"leaf": list(face_key(facet))}
        if facets in exact:
            return exact[facets]
        by_ridge = ridge_holders(facets)
        failed = oracle_failed_rules(facets, by_ridge)
        if failed:
            if refuted is not None:
                refuted.append((deletion, failed))
            exact[facets] = None
            return None
        boundary = {f: {v for v in f if len(by_ridge[f - {v}]) == 1} for f in facets}
        cofacets = {}
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
            dl_tree = rec(facets.difference(around), deletion=True)
            if dl_tree is None:
                continue
            tree = {"shedding": list(face_key(sigma)), "link": lk_tree, "delete": dl_tree}
            exact[facets] = tree
            return tree
        exact[facets] = None
        return None

    try:
        tree = rec(base)
    except _BudgetExceeded:
        return SearchResult("budget_exceeded", None, nodes)
    if tree is not None:
        return SearchResult("yes", (oracle_cone_tree(tree, apexes),), nodes)
    return SearchResult("no", None, nodes)


def oracle_cone_tree(tree: dict, apexes: frozenset) -> dict:
    """Reference lift: the shedding tree of the join of the complex that
    ``tree`` decomposes with the simplex on ``apexes``, built by recursion
    over a finished tree."""
    if not apexes:
        return tree
    if "leaf" in tree:
        return {"leaf": list(face_key(apexes.union(tree["leaf"])))}
    return {
        "shedding": tree["shedding"],
        "link": oracle_cone_tree(tree["link"], apexes),
        "delete": oracle_cone_tree(tree["delete"], apexes),
    }


# -- the shedding-tree replay on face sets, by recursion -----------------------
#
# The library replays a shedding tree on facet sets, from an explicit stack.
# This oracle is the replay it replaced: every node is a whole face set, its
# link and deletion are built by their definitions and tested for purity,
# and the tree is walked by recursion.


def oracle_verify_decomposition(k: Complex, kk: int, tree) -> int:
    """Reference: ``shelling.verify_decomposition`` on face sets, with the
    link and the deletion of each shedding face built from the node's faces
    and both tested for purity at every node."""
    if not isinstance(tree, Mapping):
        raise FormatError("decomposition tree node must be an object")
    if "leaf" in tree:
        (facet,) = read_faces([tree["leaf"]], "leaf")
        if not facet:
            if len(k.faces) > 1:
                raise ShellingError("leaf [] claims an empty complex")
            return 1
        if k.facets != {facet}:
            raise ShellingError(f"leaf {list(face_key(facet))} does not match the complex at this node")
        return 1
    if "shedding" not in tree:
        raise ShellingError("tree node needs 'leaf' or 'shedding'")
    (sigma,) = read_faces([tree["shedding"]], "shedding face")
    if not sigma or sigma not in k.faces:
        raise ShellingError(f"shedding face {list(face_key(sigma))} not in complex")
    if len(sigma) > kk + 1:
        raise ShellingError(f"shedding face of dimension {len(sigma) - 1} exceeds k={kk}")
    d = k.dim
    if not k.is_pure(d):
        raise ShellingError("node complex is not pure")
    lk = link_of(k, sigma)
    if lk.dim != d - len(sigma) or not lk.is_pure(lk.dim):
        raise ShellingError(f"link of {sorted(sigma)} is not pure of the right dim")
    dl = deletion_of(k, sigma)
    if not dl.faces or dl.dim != d or not dl.is_pure(d):
        raise ShellingError(f"deletion of {sorted(sigma)} is not pure {d}-dimensional")
    checked = 1
    for child_key, sub in (("link", lk), ("delete", dl)):
        if child_key not in tree:
            raise ShellingError(f"tree node missing {child_key!r}")
        checked += oracle_verify_decomposition(sub, kk, tree[child_key])
    return checked


# -- the whole-complex compile of K_phi ----------------------------------------
#
# The library compiles K_phi checking only what gluing can break: it records
# the facets at the glue, looks for overlaps among the glued vertices, checks
# links at the glued vertices, and builds one sphere and one O per compile.
# This oracle is the compile it replaced: every variable builds its own
# sphere and O, every face of every part gets an owner set, the facets are
# found by a pass over the merged faces, and every vertex link is checked.


def oracle_amalgamate(parts, identifications):
    """Reference quotient: the merged complex and each part's vertex map;
    asserts that faces of two parts meet only inside identified features."""
    table = dict(parts)
    uf = UnionFind()
    shared = []
    for pa, la, pb, lb in identifications:
        fa, fb = table[pa].feature(la), table[pb].feature(lb)
        assert fa.kind == fb.kind and len(fa.value) == len(fb.value)
        for va, vb in zip(fa.value, fb.value):
            uf.union((pa, va), (pb, vb))
        shared += [(pa, fa), (pb, fb)]
    ids, vmaps = {}, {}
    for name, lc in parts:
        vmap = {v: ids.setdefault(uf.find((name, v)), len(ids)) for v in lc.complex.vertices}
        assert len(set(vmap.values())) == len(vmap)
        vmaps[name] = vmap
    allowed = {
        frozenset(vmaps[p][v] for v in face) for p, feat in shared for face in feat.face_set()
    }
    owners = {}
    for name, lc in parts:
        for face in lc.complex.faces - {frozenset()}:
            owners.setdefault(frozenset(vmaps[name][v] for v in face), set()).add(name)
    assert all(len(who) == 1 or f in allowed for f, who in owners.items())
    return Complex.from_faces(owners), vmaps


def oracle_build_K_phi(phi):
    """Reference K_phi: the same parts, identifications and labels as
    ``reduction.build_K_phi``, glued and checked whole."""
    occ = _occurrences(phi)
    occ_slot = {jt: k for slots in occ.values() for k, jt in enumerate(slots, start=1)}
    attachments = tuple(f"f(u{i})" for i in range(1, phi.n + 1))
    parts = [("A", build_one_house(OneHouseSpec(attachments=attachments)))]
    idents = []
    b_house = build_one_house(OneHouseSpec(attachments=("b",)))
    literal_houses = {}

    def literal_house(count):
        if count not in literal_houses:
            literal_houses[count] = build_literal_house(count)
        return literal_houses[count]

    def named_for(lc, u):
        """``lc`` with the placeholder variable ``u`` of its labels renamed."""
        return LabeledComplex(
            lc.complex, {re.sub(r"\bu\b", u, name): f for name, f in lc.labels.items()}
        )

    for i in range(1, phi.n + 1):
        u, nu = f"u{i}", f"~u{i}"
        parts += [
            (f"S({u})", named_for(build_variable_sphere(), u)),
            (f"O({u})", named_for(build_O(), u)),
            (f"B({u})", b_house),
            (f"X[{u}]", literal_house(len(occ.get(i, ())))),
            (f"X[{nu}]", literal_house(len(occ.get(-i, ())))),
        ]
        idents += [
            (f"B({u})", "f", "A", f"f({u})"),
            (f"B({u})", "b", f"O({u})", f"b({u})"),
            (f"O({u})", f"p({u})", f"X[{u}]", "p"),
            (f"O({u})", f"p({u})", f"X[{nu}]", "p"),
            (f"S({u})", f"s({u})", f"O({u})", f"s({u})"),
            (f"S({u})", f"f[{u}]", f"X[{u}]", "f"),
            (f"S({u})", f"f[{nu}]", f"X[{nu}]", "f"),
        ]
    for j, clause in enumerate(phi.clauses, start=1):
        cname = f"C(c{j})"
        parts.append((cname, build_three_house()))
        idents.append((cname, "e", "A", "f"))
        for t, lit in enumerate(clause, start=1):
            xname, k = f"X[{_lit_name(lit)}]", occ_slot[(j, t)]
            idents.append((cname, f"p{t}", xname, f"occ{k}.p"))
            idents.append((cname, f"f{t}", xname, f"occ{k}.f"))

    merged, vmaps = oracle_amalgamate(parts, idents)
    table = dict(parts)

    def feat(part, label):
        return map_feature(table[part].feature(label), vmaps[part])

    def whole(part):
        return Feature.subcomplex(
            tuple(vmaps[part][v] for v in f) for f in table[part].complex.facets
        )

    labels = {"A": whole("A"), "v_and": feat("A", "anchor"), "f_and": feat("A", "f")}
    for i in range(1, phi.n + 1):
        u, nu = f"u{i}", f"~u{i}"
        labels[f"f({u})"] = feat("A", f"f({u})")
        for name in (f"v({u})", f"s({u})", f"f[{u}]", f"f[{nu}]", f"D[{u}]", f"D[{nu}]"):
            labels[name] = feat(f"S({u})", name)
        labels[f"b({u})"] = feat(f"O({u})", f"b({u})")
        labels[f"p({u})"] = feat(f"O({u})", f"p({u})")
        for part in (f"S({u})", f"O({u})", f"B({u})", f"X[{u}]", f"X[{nu}]"):
            labels[part] = whole(part)
    for j, clause in enumerate(phi.clauses, start=1):
        labels[f"C(c{j})"] = whole(f"C(c{j})")
        for t, lit in enumerate(clause, start=1):
            name, k = _lit_name(lit), occ_slot[(j, t)]
            labels[f"p[{name},c{j}#{t}]"] = feat(f"X[{name}]", f"occ{k}.p")
            labels[f"f[{name},c{j}#{t}]"] = feat(f"X[{name}]", f"occ{k}.f")

    lc = LabeledComplex(merged, labels)
    k = lc.complex
    assert all(len(f) == 3 for f in facets_of(k.faces))
    assert k.reduced_euler_characteristic() == phi.n
    assert vertex_links_connected(k) == (True, ())
    assert len(k.faces) - 1 <= _SIZE_CONSTANT * max(1, phi.n + phi.size)
    return lc


def misplaced_vertex_labels(feat, vmap):
    """``map_feature`` that maps every vertex label to -1, which is no
    vertex of K_phi."""
    mapped = map_feature(feat, vmap)
    return Feature.vertex(-1) if mapped.kind == "vertex" else mapped


def pendants_at(pick, seen):
    """An amalgamation that also hangs a triangle on two fresh vertices at
    each glued vertex ``pick`` chooses.  That keeps purity and the reduced
    Euler characteristic but disconnects the link there, and only there."""
    amalgamate = reduction._amalgamate_with_maps

    def glue(parts, idents):
        k, vmaps, glued, part_facets = amalgamate(parts, idents)
        fresh = max(k.vertices) + 1
        pendants = [(v, fresh + 2 * i, fresh + 2 * i + 1) for i, v in enumerate(pick(glued))]
        seen.append(glued)
        return Complex.from_facets([*k.facets, *pendants]), vmaps, glued, part_facets

    return glue
