"""Every yes a decider emits replays as the witness ``check`` writes.

The witness of each yes from decide_shellable, decide_k_decomposable,
is_collapsible_dfs and hachimori_decide_sd2 is built and written as the
CLI builds and writes it, read back, and replayed through
``cli._replay_witness``, the replay behind both ``check`` and ``verify``.
"""

import collections
import json
import random

from conftest import random_complex, random_pure_2complex
from shellkit import cli
from shellkit.collapse import is_collapsible_dfs
from shellkit.complex_core import Complex, cone
from shellkit.gadgets import dunce_hat, fixtures
from shellkit.shelling import decide_k_decomposable, decide_shellable, hachimori_decide_sd2

OCTAHEDRON = [[a, b, c] for a in (0, 1) for b in (2, 3) for c in (4, 5)]


def witness_inputs() -> list:
    rng = random.Random(61)
    inputs = [lc.complex for _, lc in sorted(fixtures().items())]
    inputs += [cone(dunce_hat()), Complex.from_facets(OCTAHEDRON)]
    inputs += [random_pure_2complex(rng, pool=6) for _ in range(40)]
    inputs += [random_complex(rng) for _ in range(40)]
    return inputs


def test_every_yes_witness_replays():
    yes = collections.Counter()
    for k in witness_inputs():
        docs = []
        if k.is_pure():
            res = decide_shellable(k, budget=500)
            if res.yes:
                docs.append(("shellable", cli._witness_doc("shellable", k, res.witness)))
            for kk in (0, 1, 2):
                res = decide_k_decomposable(k, kk, budget=500)
                if res.yes:
                    docs.append(("k-decomposable", cli._witness_doc("k-decomposable", k, res.witness, kk)))
        res = is_collapsible_dfs(k, budget=300)
        if res.yes:
            docs.append(("collapsible", cli._witness_doc("collapsible", k, res.witness)))
        if k.dim == 2 and k.is_pure():
            res = hachimori_decide_sd2(k, budget=2000)
            if res.yes:
                docs.append(("hachimori-sd2", cli._witness_doc("hachimori-sd2", k, res.witness)))
        for name, doc in docs:
            if name in ("collapsible", "hachimori-sd2"):
                # A yes of either collapse decider collapses to a single vertex.
                assert len(doc["target_facets"]) == 1 and len(doc["target_facets"][0]) == 1
            cli._replay_witness(k, json.loads(cli._dump(doc)))
            yes[name] += 1
    for name in ("shellable", "k-decomposable", "collapsible", "hachimori-sd2"):
        assert yes[name] >= 5, yes
