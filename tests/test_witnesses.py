"""Every yes a decider emits replays as the witness ``check`` writes.

The witness of each yes from decide_shellable, decide_k_decomposable,
is_collapsible_dfs and hachimori_decide_sd2 is serialized as the CLI
serializes it and replayed through ``cli._replay_witness``, the replay
behind both ``check`` and ``verify``.
"""

import collections
import json
import random

from conftest import random_complex, random_pure_2complex
from shellkit import cli
from shellkit.collapse import is_collapsible_dfs
from shellkit.complex_core import Complex, cone
from shellkit.gadgets import dunce_hat, fixtures
from shellkit.shelling import (
    decide_k_decomposable,
    decide_shellable,
    decomposition_witness_to_json,
    hachimori_decide_sd2,
    shelling_witness_to_json,
)

OCTAHEDRON = [[a, b, c] for a in (0, 1) for b in (2, 3) for c in (4, 5)]


def witness_inputs() -> list:
    rng = random.Random(61)
    inputs = [lc.complex for _, lc in sorted(fixtures().items())]
    inputs += [cone(dunce_hat()), Complex.from_facets(OCTAHEDRON)]
    inputs += [random_pure_2complex(rng, pool=6) for _ in range(40)]
    inputs += [random_complex(rng) for _ in range(40)]
    return inputs


def collapse_doc(k: Complex, pairs, removal=None) -> dict:
    doc = json.loads(cli._collapse_witness_json(k, pairs, removal))
    # A yes of either collapse decider collapses to a single vertex.
    assert len(doc["target_facets"]) == 1 and len(doc["target_facets"][0]) == 1
    return doc


def test_every_yes_witness_replays():
    yes = collections.Counter()
    for k in witness_inputs():
        docs = []
        if k.is_pure():
            res = decide_shellable(k, budget=500)
            if res.yes:
                docs.append(("shellable", shelling_witness_to_json(res.witness)))
            for kk in (0, 1, 2):
                res = decide_k_decomposable(k, kk, budget=500)
                if res.yes:
                    docs.append(("k-decomposable", decomposition_witness_to_json(kk, res.witness[0])))
        res = is_collapsible_dfs(k, budget=300)
        if res.yes:
            docs.append(("collapsible", json.dumps(collapse_doc(k, res.witness))))
        if k.dim == 2:
            res = hachimori_decide_sd2(k, budget=2000)
            if res.yes:
                removal, pairs = res.witness
                doc = collapse_doc(k, pairs, removal)
                docs.append(("hachimori-sd2", json.dumps(doc)))
        for name, text in docs:
            cli._replay_witness(k, json.loads(text))
            yes[name] += 1
    for name in ("shellable", "k-decomposable", "collapsible", "hachimori-sd2"):
        assert yes[name] >= 5, yes
