"""Pinned outputs of the collapse core on a fixed, seeded input set.

One SHA-256 covers the verdicts, search node counts and witness pairs of
free_faces, the greedy and DFS collapse deciders, collapses_to,
decide_shellable, check_disk, collapse_disk_to_tree,
hachimori_decide_sd2, decide_phi_via_complex and schedule_collapse.  The
digest was recorded before the face indexes, DFS drivers, erasure loops
and tree pruners were merged into one implementation each, so a refactor
that changes any verdict, node count or witness byte fails here.
k-decomposability is left out on purpose: its witnesses changed when
memoized shedding trees started being renamed into the ids of the
complex they are returned for.
"""

import hashlib
import json
import random

from conftest import random_complex, random_pure_2complex
from shellkit.collapse import (
    CollapseError,
    check_disk,
    collapse_disk_to_tree,
    collapses_to,
    free_faces,
    is_collapsible_2d_greedy,
    is_collapsible_dfs,
)
from shellkit.complex_core import Complex, cone, face_key
from shellkit.gadgets import dunce_hat, fixtures
from shellkit.reduction import Formula, decide_phi_via_complex, schedule_collapse, sat_oracle
from shellkit.shelling import decide_shellable, hachimori_decide_sd2

PINNED_SHA256 = "3ec4f12334dd6bc835ee6fa38ca6b6f9911a70f2dbc64c56ab98285d0023f7b0"


def _faces(faces):
    return [list(face_key(f)) for f in faces]


def _pairs(pairs):
    return None if pairs is None else [p.as_lists() for p in pairs]


def _search(res, witness):
    return [res.verdict, res.nodes, None if res.witness is None else witness(res.witness)]


def _complex_records(k: Complex) -> list:
    out = [[[list(face_key(a)), list(face_key(b))] for a, b in free_faces(k)]]
    if k.dim <= 2:
        ok, pairs = is_collapsible_2d_greedy(k)
        out.append([ok, _pairs(pairs)])
        ok, pairs = is_collapsible_2d_greedy(k, keep_vertex=k.vertices[-1])
        out.append([ok, _pairs(pairs)])
    out.append(_search(is_collapsible_dfs(k, budget=200), _pairs))
    point = Complex.from_facets([[k.vertices[0]]])
    out.append(_search(collapses_to(k, point, budget=200), _pairs))
    if k.is_pure():
        out.append(_search(decide_shellable(k, budget=200), _faces))
    if k.dim == 2:
        try:
            check_disk(k)
            out.append("disk")
        except CollapseError as exc:
            out.append(str(exc))
        verdict, cert = hachimori_decide_sd2(k, budget=2000)
        if cert is not None:
            cert = [_faces(cert["removal"]), _pairs(cert["pairs"])]
        out.append([verdict, cert])
    return out


def pinned_records() -> list:
    rng = random.Random(2024)
    fan = Complex.from_facets([[0, 1, 2], [0, 2, 3], [0, 3, 4], [0, 4, 5]])
    inputs = [lc.complex for _, lc in sorted(fixtures().items())]
    inputs += [cone(dunce_hat()), fan]
    inputs += [random_pure_2complex(rng) for _ in range(60)]
    inputs += [random_complex(rng) for _ in range(30)]
    records = [_complex_records(k) for k in inputs]
    for tree in ([[0, 1]], [[1, 2], [2, 3]], [[0]], [[2, 3], [3, 4], [4, 5]]):
        records.append(_pairs(collapse_disk_to_tree(fan, fan.subcomplex_closure(tree))))

    for phi in (
        Formula(1, ((1, 1, 1),)),
        Formula(1, ((1, 1, 1), (-1, -1, -1))),
        Formula(2, ((1, -2, 2), (-1, 1, 2))),
        Formula(2, ((1, 2, 2), (-1, -2, -2), (1, -2, -2))),
    ):
        cert = decide_phi_via_complex(phi)
        records.append(None if cert is None else [_faces(cert.removal), _pairs(cert.pairs)])
    phi = Formula(1, ((1, 1, 1),))
    removal, sequence = schedule_collapse(phi, sat_oracle(phi))
    records.append([sorted(_faces(removal)), _pairs(sequence)])
    return records


def test_collapse_core_outputs_are_pinned():
    records = pinned_records()
    blob = json.dumps(records, sort_keys=True, separators=(",", ":"))
    # The digest only pins what the inputs reach: both verdicts of each
    # decider, a DFS budget overrun and a disk.
    for outcome in ("yes", "no", "budget_exceeded", "shellable", "not_shellable", "disk"):
        assert f'"{outcome}"' in blob, outcome
    assert hashlib.sha256(blob.encode()).hexdigest() == PINNED_SHA256
