"""The README's quick start runs as written and gives what its comments say."""

import re
from pathlib import Path

from shellkit.shelling import verify_shelling

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start() -> str:
    """The one ``python`` block of the README's quick start."""
    text = README.read_text()
    section = text[text.index("## Quick start"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_quick_start_runs_as_stated():
    ns: dict = {}
    exec(quick_start(), ns)
    result, greedy, res, phi = ns["result"], ns["greedy"], ns["res"], ns["phi"]
    assert result.yes
    verify_shelling(ns["octahedron"], result.witness)
    assert greedy.verdict == "yes" and greedy.nodes == 5
    assert res.verdict == "yes"
    model = res.witness[0].assignment
    assert all(any(model[abs(lit)] == (lit > 0) for lit in c) for c in phi.clauses)
    assert len(res.witness[0].removal) == 2
