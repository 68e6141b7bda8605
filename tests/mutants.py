"""Mutation checks: break one claim of the code at a time, and see a test fail.

Run from anywhere, with the test dependencies installed:

    python3 tests/mutants.py

Each mutant names a file, an exact snippet of its source, the replacement,
the claim the replacement breaks and the pytest targets (test files or test
ids) that must catch it.  For each mutant the tree is copied to a temporary
directory, the snippet is replaced there (the working tree is never
written), and the targets run in that copy under a timeout.  A mutant is
*killed* when a test fails, *survived* when every test passes, and *timed
out* when the run overruns; any other pytest exit is an *error*.  The
script first runs every target on an unmutated copy, and stops with exit 2
unless they all pass there; it exits 0 only when every mutant is killed.

pytest does not collect this file: its name does not start with
``test_``.  ``tests/test_source_hygiene.py`` checks that each snippet still
occurs exactly once in its file, so a change that moves the code must move
its mutant too.  Add a new mutant here instead of describing it elsewhere.
"""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Seconds per mutant: each target set takes a few seconds on an unmutated tree.
TIMEOUT_S = 300
_SKIP = shutil.ignore_patterns(
    ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".perfbench", "BENCH_*.json"
)


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str
    snippet: str
    replacement: str
    claim: str
    tests: tuple[str, ...]


CATALOGUE = (
    Mutant(
        "label-writer-size-first",
        "src/shellkit/complex_core.py",
        "sorted(k._keys_of(feat.value))",
        "sorted_face_keys(k._keys_of(feat.value))",
        "to_json writes a subcomplex label's faces in plain face_key order",
        ("tests/test_complex_core.py",),
    ),
    Mutant(
        "writer-drops-batch-separator",
        "src/shellkit/complex_core.py",
        '        if i:\n            yield ","\n',
        "",
        "to_json joins the batches of an array with a comma, so its text is the whole-document writer's",
        ("tests/test_complex_core.py",),
    ),
    Mutant(
        "vertex-label-written-as-list",
        "src/shellkit/complex_core.py",
        'feat.value[0] if feat.kind == "vertex" else feat.value',
        "feat.value",
        "to_json writes a vertex label's value as its vertex, not as a one-vertex list",
        ("tests/test_complex_core.py",),
    ),
    Mutant(
        "json-drops-isolated-vertices",
        "src/shellkit/complex_core.py",
        "chain(facets, ([v] for v in isolated))",
        "facets",
        "from_json keeps a declared vertex that lies in no facet as a facet",
        ("tests/test_cli.py",),
    ),
    Mutant(
        "json-accepts-undeclared-vertices",
        "src/shellkit/complex_core.py",
        "    if len(k.vertices) != len(declared):\n",
        "    if False:\n",
        "from_json refuses a document whose facets use a vertex it does not declare",
        ("tests/test_cli.py",),
    ),
    Mutant(
        "facet-size-counted-before-the-skip",
        "src/shellkit/complex_core.py",
        "declared.difference(v for f in facets for v in f if type(v) is int)",
        "declared",
        "from_json gives only a declared vertex in no facet as a singleton, so a declared vertex "
        "inside a facet adds no facet size and a one-size document is read with its facets recorded",
        ("tests/test_complex_core.py",),
    ),
    Mutant(
        "label-check-without-subset-test",
        "src/shellkit/complex_core.py",
        "            if not off.isdisjoint(faces):\n",
        "            if False:\n",
        "a label whose faces are not all in the complex is refused",
        ("tests/test_complex_core.py",),
    ),
    Mutant(
        "facets-only-label-check-skips-non-facets",
        "src/shellkit/complex_core.py",
        "below = {f for f in faces if f and f not in facets}",
        "below = {f for f in faces if f and f not in facets and len(f) == len(next(iter(facets)))}",
        "a label on the last subdivision level is refused when a face below the facets is off it",
        ("tests/test_complex_core.py", "tests/test_cli.py"),
    ),
    Mutant(
        "closed-label-check-misses-nothing",
        "src/shellkit/complex_core.py",
        "return set() if held.issuperset(faces) else",
        "return set() if True else",
        "the closed form's one subset test lets no missing face through",
        ("tests/test_complex_core.py",),
    ),
    Mutant(
        "empty-face-complex-without-empty-face",
        "src/shellkit/complex_core.py",
        "self._faces = _closure(self._facets or (frozenset(),))",
        "self._faces = _closure(self._facets)",
        "the closure of the facets-only form holds the empty face, the empty-face complex's only one",
        ("tests/test_complex_core.py",),
    ),
    Mutant(
        "join-without-identity",
        "src/shellkit/complex_core.py",
        "    if len(k) == 1 or len(l) == 1:",
        "    if False:",
        "the empty-face complex is the join identity: {∅} * {∅} is {∅}, not the void complex",
        ("tests/test_complex_core.py::test_empty_face_complex_is_the_join_identity",),
    ),
    Mutant(
        "last-level-keeps-chains",
        "src/shellkit/complex_core.py",
        "        del chains, index\n",
        "        del index\n",
        "the last subdivision level drops its lower flags before it builds sd and checks the labels",
        ("tests/test_complex_core.py",),
    ),
    Mutant(
        "sd-f-vector-without-factorial",
        "src/shellkit/complex_core.py",
        "        factorial(j) * sum(",
        "        sum(",
        "the last subdivision level records f_j(sd K) = sum of f_s(K) j! S(s, j)",
        ("tests/test_complex_core.py", "tests/test_cli.py"),
    ),
    Mutant(
        "carriers-composed-one-level-fewer",
        "src/shellkit/complex_core.py",
        "return {i: self._below.face_carrier(f) for i, f in enumerate(self._barycenters)}",
        "return {i: frozenset(f) for i, f in enumerate(self._barycenters)}",
        "vertex_carrier composes the carriers through every level",
        ("tests/test_complex_core.py",),
    ),
    Mutant(
        "label-map-without-mixed-size-closure",
        "src/shellkit/complex_core.py",
        "    if len(set(map(len, facets))) > 1:\n",
        "    if False:\n",
        "a label with faces of mixed sizes maps like the closure of its faces",
        ("tests/test_complex_core.py",),
    ),
    Mutant(
        "compile-without-b(u)",
        "src/shellkit/reduction.py",
        '        wanted[f"b({u})"] = (f"O({u})", "b(u)")\n',
        "",
        "K_phi labels the edge b(u) that B(u) collapses onto",
        ("tests/test_reduction.py",),
    ),
    Mutant(
        "link-merge-keeps-v-after-first-facet",
        "src/shellkit/complex_core.py",
        "    reach.discard(v)\n    rest = star[1:]\n",
        "    rest = star[1:]\n",
        "the link merge leaves v out of the reached set, so facets meet only off v",
        ("tests/test_complex_core.py",),
    ),
    Mutant(
        "glue-merge-unchecked",
        "src/shellkit/gadgets.py",
        "            if mv in seen:\n",
        "            if False:\n",
        "the glue refuses identifications that merge two vertices of one part",
        ("tests/test_gadgets.py",),
    ),
    Mutant(
        "glue-records-mixed-size-facets",
        "src/shellkit/gadgets.py",
        "    facets = tops if len(set(map(len, tops))) == 1 else None\n",
        "    facets = tops\n",
        "the glue records the parts' facets as the quotient's only when they all have one size",
        ("tests/test_gadgets.py",),
    ),
    Mutant(
        "occurrence-index-pinned-to-1",
        "src/shellkit/reduction.py",
        "seen[lit] = k = seen.get(lit, 0) + 1",
        "seen[lit] = k = 1",
        "slot (j, t) is glued to the k-th occurrence house of its literal, k counted in clause order",
        # tests/test_cli.py does not finish under this mutant.
        ("tests/test_reduction.py",),
    ),
    Mutant(
        "compiled-links-skip-last-glued",
        "src/shellkit/reduction.py",
        "    ok, failing = vertex_links_connected(k, glued)\n",
        "    ok, failing = vertex_links_connected(k, sorted(glued)[:-1])\n",
        "the compile checks the link of every glued vertex, the last one too",
        ("tests/test_reduction.py",),
    ),
    Mutant(
        "glue-records-no-facets",
        "src/shellkit/gadgets.py",
        "    facets = tops if len(set(map(len, tops))) == 1 else None\n",
        "    facets = None\n",
        "the glue records the parts' facets when they all have one size, so no facets_of pass runs on K_phi",
        ("tests/test_reduction.py",),
    ),
    Mutant(
        "compiled-links-skip-first-glued",
        "src/shellkit/reduction.py",
        "    ok, failing = vertex_links_connected(k, glued)\n",
        "    ok, failing = vertex_links_connected(k, sorted(glued)[1:])\n",
        "the compile checks the link of every glued vertex, the first one too",
        ("tests/test_reduction.py",),
    ),
    Mutant(
        "compiled-without-link-check",
        "src/shellkit/reduction.py",
        "    ok, failing = vertex_links_connected(k, glued)\n",
        "    ok, failing = True, ()\n",
        "the compile refuses a K_phi with a disconnected link at a glued vertex",
        ("tests/test_reduction.py",),
    ),
    Mutant(
        "links-asked-skip-first",
        "src/shellkit/complex_core.py",
        "check = k.vertices if vertices is None else sorted(vertices)",
        "check = k.vertices if vertices is None else sorted(vertices)[1:]",
        "vertex_links_connected checks the link of every vertex asked for, the first one too",
        ("tests/test_complex_core.py",),
    ),
    Mutant(
        "sphere-built-per-variable",
        "src/shellkit/reduction.py",
        '                (f"S({u})", shape(build_variable_sphere)),\n',
        '                (f"S({u})", build_variable_sphere()),\n',
        "a compile builds and checks the variable sphere once, whatever the number of variables",
        ("tests/test_reduction.py",),
    ),
    Mutant(
        "o-built-per-variable",
        "src/shellkit/reduction.py",
        '                (f"O({u})", shape(build_O)),\n',
        '                (f"O({u})", build_O()),\n',
        "a compile builds and checks O once, whatever the number of variables",
        ("tests/test_reduction.py",),
    ),
    Mutant(
        "gadget-check-without-free-vertices",
        "src/shellkit/gadgets.py",
        "    got.update(frozenset([v]) for v, star in stars.items() if len(star) == 1)\n",
        "",
        "the gadget check counts a vertex in a single facet as a free face",
        ("tests/test_gadgets.py",),
    ),
    Mutant(
        "gadget-check-chi-off-by-one",
        "src/shellkit/gadgets.py",
        "if len(stars) - len(holders) + len(facets) - 1 != chi:",
        "if len(stars) - len(holders) + len(facets) != chi:",
        "the gadget check's reduced Euler characteristic is V - E + F - 1",
        ("tests/test_gadgets.py",),
    ),
    Mutant(
        "gadget-check-without-link-check",
        "src/shellkit/gadgets.py",
        "    failing = tuple(v for v in sorted(stars) if not _link_connected(v, stars[v]))\n",
        "    failing = pinched\n",
        "the gadget check finds every disconnected vertex link",
        ("tests/test_gadgets.py",),
    ),
    Mutant(
        "door-rotation-without-label-test",
        "src/shellkit/gadgets.py",
        "        if map_feature(lc.feature(name), rotate) != lc.feature(image):\n",
        "        if False:\n",
        "the door rotation takes f_i, p_i and e to f_(i+1), p_(i+1) and e",
        ("tests/test_gadgets.py",),
    ),
    Mutant(
        "door-rotation-keeps-mid-fixed",
        "src/shellkit/gadgets.py",
        "    for ring in (alpha, beta, rim_b, rim_c, mid):\n",
        "    for ring in (alpha, beta, rim_b, rim_c):\n",
        "the door rotation shifts all five rings of the three-house",
        ("tests/test_gadgets.py",),
    ),
    Mutant(
        "whole-part-labels-from-another-part",
        "src/shellkit/reduction.py",
        "            labels[name] = Feature.subcomplex(part_facets[part])\n",
        '            labels[name] = Feature.subcomplex(part_facets["A"])\n',
        "each whole-part label of K_phi holds that part's own facets",
        ("tests/test_reduction.py",),
    ),
    Mutant(
        "chains-only-through-ridges",
        "src/shellkit/complex_core.py",
        "subfaces(g, range(1, len(g)))",
        "subfaces(g, range(max(1, len(g) - 1), len(g)))",
        "every chain of sd(K) is made: chains extend through every proper subface",
        ("tests/test_complex_core.py",),
    ),
    Mutant(
        "chain-top-prepended",
        "src/shellkit/complex_core.py",
        "own.extend([c + top for c in chains[h]])",
        "own.extend([top + c for c in chains[h]])",
        "a chain of sd(K) is made increasing, its top last, so it is the face_key of its face",
        ("tests/test_complex_core.py",),
    ),
    Mutant(
        "count-skips-a-middle-size",
        "src/shellkit/complex_core.py",
        "_faces_of_size(facets, r))) for r in range(2, top))",
        "_faces_of_size(facets, r))) for r in range(3, top))",
        "the facets-only count has every size between the vertices and the largest facets",
        ("tests/test_complex_core.py",),
    ),
    Mutant(
        "recorded-keys-out-of-order",
        "src/shellkit/complex_core.py",
        "            flags.sort()\n",
        "",
        "the last subdivision level records its facet keys in face_sort_key order, which the writers read",
        ("tests/test_complex_core.py",),
    ),
    Mutant(
        "label-chains-one-short",
        "src/shellkit/complex_core.py",
        "for c in chains[index[f]] if len(c) == len(f))",
        "for c in chains[index[f]] if len(c) + 1 == len(f))",
        "a subcomplex label maps to the full flags of its facets",
        ("tests/test_complex_core.py",),
    ),
    Mutant(
        "deletion-chi-sign-flipped",
        "src/shellkit/shelling.py",
        "    chi -= (-1) ** len(sigma) * _reduced_euler(",
        "    chi += (-1) ** len(sigma) * _reduced_euler(",
        "a deletion child's χ̃ is χ̃(K) - (-1)^|σ| χ̃(lk σ)",
        ("tests/test_shelling.py",),
    ),
    Mutant(
        "deletion-ridges-keep-a-shed-facet",
        "src/shellkit/shelling.py",
        "_drop_holders(by_ridge, ridges, gone)",
        "_drop_holders(by_ridge, ridges, gone - {around[0]})",
        "a deletion child's ridge map holds none of the shed facets",
        ("tests/test_shelling.py",),
    ),
    Mutant(
        "deletion-stars-only-at-sigma",
        "src/shellkit/shelling.py",
        "if len(tau) == 1 and cofacets[tau]]",
        "if len(tau) == 1 and tau <= sigma and cofacets[tau]]",
        "a deletion child tests again the star of every vertex of the shed facets",
        ("tests/test_shelling.py",),
    ),
    Mutant(
        "shed-leaves-chi",
        "src/shellkit/shelling.py",
        "    chi -= (-1) ** len(sigma) * _reduced_euler([f - sigma for f in around])\n",
        "",
        "a shed moves χ̃ to the deletion child's",
        ("tests/test_shelling.py",),
    ),
    Mutant(
        "put-back-misses-one-list",
        "src/shellkit/complex_core.py",
        "        holders.update(saved)\n",
        "        holders.update(list(saved.items())[1:])\n",
        "a put-back restores every list its drop replaced, so the parent's state is whole again",
        ("tests/test_shelling.py", "tests/test_collapse.py"),
    ),
    Mutant(
        "free-ridge-rule-counts-dead-keys",
        "src/shellkit/shelling.py",
        "not any(len(around) == 1 for around in by_ridge.values())",
        "all(len(around) > 1 for around in by_ridge.values())",
        "the χ̃ = 0 rule looks for a ridge of one facet, and a ridge the shed left with none is not one",
        ("tests/test_shelling.py::test_inherited_search_matches_rebuilding_oracle",),
    ),
    Mutant(
        "candidate-loop-sheds-a-dead-face",
        "src/shellkit/shelling.py",
        "            if not around or any(len(by_ridge[f - {v}]) == 1 for f in around for v in sigma):\n",
        "            if any(len(by_ridge[f - {v}]) == 1 for f in around for v in sigma):\n",
        "a face whose facets were all shed is no candidate",
        ("tests/test_shelling.py",),
    ),
    Mutant(
        "facet-graph-through-first-holder",
        "src/shellkit/shelling.py",
        "        for f in around:\n            adj.setdefault(f, []).extend(g for g in around if g is not f)\n",
        "        for g in around[1:]:\n"
        "            adj.setdefault(around[0], []).append(g)\n"
        "            adj.setdefault(g, []).append(around[0])\n",
        "the facet graph joins every two holders of a ridge, so it serves every deletion below",
        ("tests/test_shelling.py",),
    ),
    Mutant(
        "frontier-from-first-shed-facet",
        "src/shellkit/shelling.py",
        "return {g for f in around for g in adj[f] if g in child}",
        "return {g for f in around[:1] for g in adj[f] if g in child}",
        "a deletion child's frontier is every facet next to any shed facet",
        ("tests/test_shelling.py",),
    ),
    Mutant(
        "deletion-without-connectivity-test",
        "src/shellkit/shelling.py",
        "graph_connected(facets, adj, _frontier(facets, adj, around))",
        "graph_connected(facets, adj, ())",
        "a deletion child whose facet graph is disconnected is refuted",
        ("tests/test_shelling.py",),
    ),
    Mutant(
        "shedding-test-at-one-vertex-of-sigma",
        "src/shellkit/shelling.py",
        "            if not around or any(len(by_ridge[f - {v}]) == 1 for f in around for v in sigma):\n",
        "            if not around or any(len(by_ridge[f - {v}]) == 1 for f in around for v in sorted(sigma)[:1]):\n",
        "a candidate is skipped when any ridge f - v, v in σ, lies in one facet alone",
        ("tests/test_shelling.py",),
    ),
    Mutant(
        "shedding-test-skips-no-candidate",
        "src/shellkit/shelling.py",
        "            if not around or any(len(by_ridge[f - {v}]) == 1 for f in around for v in sigma):\n",
        "            if not around:\n",
        "a candidate whose deletion is not pure of the node's dimension is skipped",
        ("tests/test_shelling.py",),
    ),
    Mutant(
        "leaf-accepts-any-facet-of-the-node",
        "src/shellkit/shelling.py",
        "            if facets != {leaf}:\n",
        "            if leaf not in facets:\n",
        "a leaf verifies only at a node whose one facet it is",
        ("tests/test_shelling.py",),
    ),
    Mutant(
        "deletion-without-ridge-test",
        "src/shellkit/shelling.py",
        "        if not kept or not all(any(f - {v} < g for g in kept) for f in around for v in sigma):\n",
        "        if not kept:\n",
        "a deletion verifies only when each F - v (F a shed facet, v in σ) is a ridge of a kept facet",
        ("tests/test_shelling.py",),
    ),
    Mutant(
        "link-over-proper-cofaces-only",
        "src/shellkit/shelling.py",
        'stack.append((frozenset(f - sigma for f in around), node, "link"))',
        'stack.append((frozenset(f - sigma for f in around if f != sigma), node, "link"))',
        "the link of a facet is the empty-face complex {∅}, the leaf []",
        ("tests/test_shelling.py",),
    ),
    Mutant(
        "empty-leaf-without-apexes",
        "src/shellkit/shelling.py",
        '            return {"leaf": list(face_key(apexes))}\n',
        '            return {"leaf": []}\n',
        "the leaf of the empty-face complex in a cone's search is the simplex on the apexes",
        ("tests/test_shelling.py",),
    ),
    Mutant(
        "dominated-shared-across-levels",
        "src/shellkit/collapse.py",
        "    tried = 0\n\n    def walk(prev: int):\n        nonlocal tried\n"
        "        level = len(chosen)\n        if level == picks:\n"
        "            tried += 1\n            if tried > budget:\n"
        "                raise _BudgetExceeded\n            return engine.remaining == 0\n"
        "        dominated: set[int] = set()\n",
        "    tried = 0\n    dominated: set[int] = set()\n\n    def walk(prev: int):\n"
        "        nonlocal tried\n"
        "        level = len(chosen)\n        if level == picks:\n"
        "            tried += 1\n            if tried > budget:\n"
        "                raise _BudgetExceeded\n            return engine.remaining == 0\n",
        "the removal walk's dominated ids hold for one level's prefix only",
        ("tests/test_erasure.py",),
    ),
    Mutant(
        "dominated-by-a-leaf-at-every-ancestor",
        "src/shellkit/collapse.py",
        "    tried = 0\n\n    def walk(prev: int):\n        nonlocal tried\n"
        "        level = len(chosen)\n        if level == picks:\n"
        "            tried += 1\n            if tried > budget:\n"
        "                raise _BudgetExceeded\n            return engine.remaining == 0\n"
        "        dominated: set[int] = set()\n"
        "        for q in range(prev + 1, len(ids) - (picks - level) + 1):\n"
        "            for i, t in ids[q].items():\n"
        "                if i in dominated:\n                    continue\n"
        "                chosen.append(t)\n                taken = engine.puncture(i)\n"
        "                if (yield (q,)):\n                    return True\n"
        "                chosen.pop()\n                engine.undo(taken)\n"
        "                dominated.update(taken)\n",
        "    tried = 0\n    levels: list[set[int]] = []\n\n    def walk(prev: int):\n"
        "        nonlocal tried\n"
        "        level = len(chosen)\n        if level == picks:\n"
        "            tried += 1\n            if tried > budget:\n"
        "                raise _BudgetExceeded\n            return engine.remaining == 0\n"
        "        dominated: set[int] = set()\n        levels[level:] = [dominated]\n"
        "        for q in range(prev + 1, len(ids) - (picks - level) + 1):\n"
        "            for i, t in ids[q].items():\n"
        "                if i in dominated:\n                    continue\n"
        "                chosen.append(t)\n                taken = engine.puncture(i)\n"
        "                if (yield (q,)):\n                    return True\n"
        "                chosen.pop()\n                engine.undo(taken)\n"
        "                for d in levels:\n                    d.update(taken)\n",
        "a refuted candidate's puncture dominates siblings at its own level only, not at its ancestors'",
        ("tests/test_erasure.py",),
    ),
    Mutant(
        "undo-skips-edge-counts",
        "src/shellkit/collapse.py",
        "                count[e] += 1\n",
        "                pass\n",
        "undoing a puncture restores the live-triangle count of each edge of what it took",
        ("tests/test_erasure.py",),
    ),
    Mutant(
        "puncture-omits-the-pick",
        "src/shellkit/collapse.py",
        "return self._take([t] if self._live[t] else [])",
        "return self._take([t] if self._live[t] else [])[1:]",
        "a puncture returns the punctured triangle with what it erased, so undo puts both back",
        ("tests/test_erasure.py",),
    ),
    Mutant(
        "removal-guard-without-connectivity",
        "src/shellkit/collapse.py",
        "    if not (k.vertices and one_skeleton_connected(k)) or not 0 <= picks <= len(ids):\n",
        "    if not k.vertices or not 0 <= picks <= len(ids):\n",
        "a disconnected complex has no collapsible removal, so the removal walk refuses it at 0 nodes",
        ("tests/test_erasure.py",),
    ),
    Mutant(
        "removal-budget-gate-inclusive",
        "src/shellkit/collapse.py",
        "            if tried > budget:\n",
        "            if tried >= budget:\n",
        "the removal walk overruns at the first removal past its budget, not at the budget",
        ("tests/test_erasure.py",),
    ),
    Mutant(
        "removal-walk-counts-every-node",
        "src/shellkit/collapse.py",
        "        level = len(chosen)\n        if level == picks:\n            tried += 1\n",
        "        level = len(chosen)\n        tried += 1\n        if level == picks:\n",
        "the removal walk's nodes are the removals it checks, its leaves only",
        ("tests/test_erasure.py",),
    ),
    Mutant(
        "pick-from-the-previous-picks-pool",
        "src/shellkit/collapse.py",
        "        for q in range(prev + 1, len(ids) - (picks - level) + 1):\n",
        "        for q in range(max(prev, 0), len(ids) - (picks - level) + 1):\n",
        "each pick of a removal comes from a pool after the previous pick's",
        ("tests/test_erasure.py",),
    ),
    Mutant(
        "collapse-move-not-put-back",
        "src/shellkit/collapse.py",
        "            _put_back(record)\n",
        "",
        "the collapse search puts each top face back in its size's ridge map when the move is undone",
        ("tests/test_collapse.py",),
    ),
    Mutant(
        "shelling-search-without-dead-prefixes",
        "src/shellkit/shelling.py",
        "if len(chosen) == m or (after not in dead and (yield (after,))):",
        "if len(chosen) == m or (yield (after,)):",
        "a prefix the shelling search refuted is not searched again, so it counts no node",
        ("tests/test_shelling.py",),
    ),
    Mutant(
        "command-without-freeze",
        "src/shellkit/cli.py",
        "    gc.freeze()  # the command's collections skip every object alive before it\n",
        "",
        "a command runs with the heap alive before it frozen",
        ("tests/test_cli.py",),
    ),
    Mutant(
        "command-without-collect",
        "src/shellkit/cli.py",
        "        gc.collect()  # frees the command's own cycles; the frozen heap is not scanned\n",
        "",
        "the reference cycles a command made are freed when it returns",
        ("tests/test_cli.py",),
    ),
    Mutant(
        "command-without-thaw",
        "src/shellkit/cli.py",
        "        gc.unfreeze()\n",
        "",
        "the heap is thawed when a command returns, on every exit",
        ("tests/test_cli.py",),
    ),
    Mutant(
        "pairs-read-crosswise",
        "src/shellkit/cli.py",
        "faces[::2], faces[1::2]",
        "faces[1::2], faces[::2]",
        "the pair reader pairs each free face with the coface after it, not the other way round",
        ("tests/test_cli.py",),
    ),
    Mutant(
        "decomposition-tree-read-after-the-complex",
        "src/shellkit/shelling.py",
        "    if not isinstance(tree, Mapping):\n"
        '        raise FormatError("decomposition tree node must be an object")\n'
        "    if not k:\n",
        "    if not k:\n",
        "a decomposition tree that is not an object is a format error on an empty or impure complex too",
        ("tests/test_cli.py",),
    ),
    Mutant(
        "certificate-assignment-unchecked",
        "src/shellkit/cli.py",
        "    if extracted != assignment or not _satisfies(phi, assignment):\n",
        "    if False:\n",
        "verify refuses a certificate whose assignment is not the one its removal encodes",
        ("tests/test_cli.py",),
    ),
    Mutant(
        "certificate-pairs-read-after-admissibility",
        "src/shellkit/cli.py",
        "    pairs = _pairs_from_json(doc.get(\"pairs\"))\n"
        "    extracted = assignment_from_removal(lc, removal)\n"
        "    if extracted is None:\n        return None\n",
        "    extracted = assignment_from_removal(lc, removal)\n"
        "    if extracted is None:\n        return None\n"
        "    pairs = _pairs_from_json(doc.get(\"pairs\"))\n",
        "a certificate's pairs are read before its removal is judged, so a bad pair is a format error",
        ("tests/test_cli.py",),
    ),
)


def apply(root: Path, mutant: Mutant) -> None:
    """Replace the mutant's snippet in the tree at ``root``; the snippet
    must occur exactly once."""
    target = root / mutant.path
    source = target.read_text()
    count = source.count(mutant.snippet)
    if count != 1:
        raise ValueError(f"{mutant.name}: snippet occurs {count} times in {mutant.path}")
    target.write_text(source.replace(mutant.snippet, mutant.replacement))


def run(mutant: Mutant | None, tests: tuple[str, ...]) -> tuple[str, float]:
    """The verdict on one mutant, or on the unmutated tree when ``mutant``
    is None, and the seconds its tests took."""
    with tempfile.TemporaryDirectory(prefix="shellkit-mutant-") as tmp:
        copy = Path(tmp) / "tree"
        shutil.copytree(ROOT, copy, ignore=_SKIP)
        if mutant is not None:
            apply(copy, mutant)
        env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
        cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
        started = time.perf_counter()
        # A session of its own, so that a timeout kills every process the tests start.
        proc = subprocess.Popen(
            cmd, cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            start_new_session=True,
        )
        try:
            code = proc.wait(timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            return "timed out", time.perf_counter() - started
        elapsed = time.perf_counter() - started
    verdicts = {0: "survived", 1: "killed"}
    return verdicts.get(code, f"error (pytest exit {code})"), elapsed


def main() -> int:
    started = time.perf_counter()
    # The targets must pass on the unmutated tree, or a kill proves nothing.
    targets = tuple(dict.fromkeys(t for m in CATALOGUE for t in m.tests))
    verdict, elapsed = run(None, targets)
    passed = verdict == "survived"
    print(f"{'passed' if passed else verdict:>10}  {elapsed:6.1f} s  (the unmutated tree)", flush=True)
    if not passed:
        return 2
    verdicts = []
    for m in CATALOGUE:
        verdict, elapsed = run(m, m.tests)
        verdicts.append(verdict)
        print(f"{verdict:>10}  {elapsed:6.1f} s  {m.name}: {m.claim}", flush=True)
    killed = verdicts.count("killed")
    print(f"{killed} of {len(verdicts)} killed in {time.perf_counter() - started:.1f} s")
    return 0 if killed == len(verdicts) else 1


if __name__ == "__main__":
    sys.exit(main())
