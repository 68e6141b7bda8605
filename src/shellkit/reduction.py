"""Compile 3-CNF formulas into marked 2-complexes and collapse them.

``build_K_phi`` assembles one conjunction house, a sphere/annulus/house
bundle per variable, and a three-house per clause into a single labeled
complex whose reduced Euler characteristic equals the variable count.
``schedule_collapse`` turns a satisfying assignment into a removal set
plus a replayable collapse of the punctured complex down to one vertex,
``assignment_from_removal`` reads an assignment back off a removal set,
and ``decide_phi_via_complex`` closes the loop at desk scale by searching
the admissible removals, one triangle per sphere label, with
``collapse.find_removal``, the search of Hachimori's criterion on pools;
on K_phi these removals are all the criterion can take.  Its
``SearchResult`` carries a certificate as the witness of a yes.
``sat_oracle`` provides brute-force ground truth.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Collection, Mapping

from shellkit.collapse import (
    DEFAULT_BUDGET,
    CollapseError,
    CollapsePair,
    CollapseSequence,
    SearchResult,
    _FaceIndex,
    collapses_to,
    find_removal,
)
from shellkit.complex_core import (
    Complex,
    Face,
    Feature,
    FormatError,
    InternalError,
    LabeledComplex,
    face_key,
    vertex_links_connected,
)
from shellkit.gadgets import (
    OneHouseSpec,
    _amalgamate_with_maps,
    build_literal_house,
    build_O,
    build_one_house,
    build_three_house,
    build_variable_sphere,
    map_feature,
)

Assignment = Mapping[int, bool]

# Ceiling on simplices per unit of formula size, checked at compile time.
_SIZE_CONSTANT = 400

SAT_ORACLE_MAX_N = 24  # the most variables the exhaustive sat_oracle takes


@dataclass(frozen=True)
class Formula:
    """A 3-CNF formula over variables ``1..n``.

    Clauses are ordered triples of nonzero literals (sign = polarity);
    literals may repeat within a clause.
    """

    n: int
    clauses: tuple[tuple[int, int, int], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "clauses", tuple(tuple(c) for c in self.clauses))
        if isinstance(self.n, bool) or not isinstance(self.n, int) or self.n < 0:
            raise ValueError("variable count must be a nonnegative integer")
        for clause in self.clauses:
            if len(clause) != 3:
                raise ValueError(f"clause {clause!r} does not have 3 literals")
            for lit in clause:
                bad = isinstance(lit, bool) or not isinstance(lit, int)
                if bad or lit == 0 or abs(lit) > self.n:
                    raise ValueError(
                        f"literal {lit!r} out of range for {self.n} variables"
                    )

    @property
    def size(self) -> int:
        """Total number of literal occurrences."""
        return sum(len(c) for c in self.clauses)


def parse_cnf(text: str) -> Formula:
    """Parse DIMACS CNF, accepting only 3-literal clauses, or raise FormatError.
    Every line but a comment must be ASCII with no ``_``, so integers are digits."""
    n = m = None
    lits: list[int] = []
    clauses: list[tuple[int, int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if not line.isascii() or "_" in line:
            raise FormatError(f"line {lineno}: integers must be ASCII digits")
        if line.startswith("p"):
            if n is not None:
                raise FormatError(f"line {lineno}: duplicate problem header")
            fields = line.split()
            if len(fields) != 4 or fields[:2] != ["p", "cnf"]:
                raise FormatError(f"line {lineno}: malformed header {line!r}")
            try:
                n, m = int(fields[2]), int(fields[3])
            except ValueError:
                raise FormatError(f"line {lineno}: malformed header {line!r}") from None
            if n < 0 or m < 0:
                raise FormatError(f"line {lineno}: negative counts in header")
            continue
        if n is None:
            raise FormatError(f"line {lineno}: clause before the problem header")
        for tok in line.split():
            try:
                lit = int(tok)
            except ValueError:
                raise FormatError(f"line {lineno}: bad literal {tok!r}") from None
            if lit == 0:
                if len(lits) != 3:
                    raise FormatError(
                        f"clause {len(clauses) + 1} has {len(lits)} literals; "
                        "exactly 3 required"
                    )
                clauses.append((lits[0], lits[1], lits[2]))
                lits.clear()
            else:
                if abs(lit) > n:
                    raise FormatError(
                        f"line {lineno}: variable {abs(lit)} out of range 1..{n}"
                    )
                lits.append(lit)
    if n is None:
        raise FormatError("missing 'p cnf' header")
    if lits:
        raise FormatError("unterminated clause at end of input")
    if len(clauses) != m:
        raise FormatError(f"header declares {m} clauses, found {len(clauses)}")
    return Formula(n, tuple(clauses))


def _satisfies(phi: Formula, a: Assignment) -> bool:
    return all(
        any(a[abs(lit)] == (lit > 0) for lit in clause) for clause in phi.clauses
    )


def sat_oracle(phi: Formula) -> dict[int, bool] | None:
    """Brute-force satisfiability; returns a model or None.

    Exhausts all assignments, so it takes at most ``SAT_ORACLE_MAX_N`` variables.
    """
    if phi.n > SAT_ORACLE_MAX_N:
        raise ValueError(f"sat_oracle is exhaustive; n={phi.n} exceeds {SAT_ORACLE_MAX_N}")
    for bits in itertools.product((False, True), repeat=phi.n):
        a = {i: bits[i - 1] for i in range(1, phi.n + 1)}
        if _satisfies(phi, a):
            return a
    return None


def random_formula(n: int, m: int, rng: random.Random) -> Formula:
    """A uniformly random 3-CNF with n variables and m clauses."""
    clauses = tuple(
        tuple(rng.randint(1, n) * rng.choice((1, -1)) for _ in range(3))
        for _ in range(m)
    )
    return Formula(n, clauses)


# -- compilation -----------------------------------------------------------------


def _lit_name(lit: int) -> str:
    return f"u{lit}" if lit > 0 else f"~u{-lit}"


def _occurrences(phi: Formula) -> dict[int, tuple[tuple[int, int], ...]]:
    """Literal -> ordered (clause index, position) slots, both 1-based."""
    occ: dict[int, list[tuple[int, int]]] = {}
    for j, clause in enumerate(phi.clauses, start=1):
        for t, lit in enumerate(clause, start=1):
            occ.setdefault(lit, []).append((j, t))
    return {lit: tuple(slots) for lit, slots in occ.items()}


def build_K_phi(phi: Formula) -> LabeledComplex:
    """Compile a formula into its marked 2-complex.

    The output is pure 2-dimensional with all vertex links connected, its
    reduced Euler characteristic equals the variable count, and its label
    table names every gadget feature: the conjunction house ``A`` with
    ``v_and``/``f_and`` and one ``f(u_i)`` per variable, each variable's
    sphere ``S(u_i)`` with disks ``D[u_i]``/``D[~u_i]``, the connector
    gadgets ``O``/``B``/``X``, and per-occurrence rays ``p[lit,cj#t]`` /
    ``f[lit,cj#t]`` indexed by clause and position, so repeated literals
    in a clause stay distinguishable.  All of these postconditions are
    machine-checked on every compile, each where it can fail, and any
    failure raises ``InternalError``:

    * on the parts, by ``gadgets._check_gadget``, called by each
      builder, once per shape per compile: each gadget's purity, free
      faces, reduced Euler characteristic and vertex links, read off the
      ridge map and the vertex stars of its facets; the three-house's
      exits by one collapse and its door rotation;
    * at the glue, by ``_amalgamate_with_maps``: no part has two of its
      vertices merged, faces of two parts meet only inside identified
      features (checked among the glued vertices), and the facets are
      the mapped facets of the parts;
    * on K_phi, by ``_check_compiled``: purity on the recorded facets,
      the reduced Euler characteristic, the size bound by the face count,
      and vertex links at the glued vertices;
    * the labels, by ``LabeledComplex``: every labeled face is in K_phi.

    The label of each whole part is built from the facets the glue
    mapped, the same objects K_phi's face set holds, so no facet is
    mapped twice and the label shares K_phi's faces.  So the value of a
    sphere's label ``S(u_i)`` is exactly its triangles, and so is that
    of a disk ``D[u_i]``/``D[~u_i]``, the mapped ``upper``/``lower`` of
    ``build_variable_sphere``; the removal readers take them from there.
    """
    occ = _occurrences(phi)
    attachments = tuple(f"f(u{i})" for i in range(1, phi.n + 1))
    # Every copy of a gadget shape shares one build, checked once here.  The
    # sphere and O name their labels for the placeholder variable ``u``,
    # and those names are mapped to each variable below.
    shapes: dict[tuple, LabeledComplex] = {}

    def shape(build, *args) -> LabeledComplex:
        if (build, args) not in shapes:
            shapes[build, args] = build(*args)
        return shapes[build, args]

    parts: list[tuple[str, LabeledComplex]] = [
        ("A", shape(build_one_house, OneHouseSpec(attachments=attachments)))
    ]
    idents: list[tuple[str, str, str, str]] = []
    # Each variable and each clause declares its parts, identifications and
    # label sources at once: K_phi's label -> (part, the part's label), or
    # (part, None) for the whole part, mapped into K_phi after the glue.
    wanted: dict[str, tuple[str, str | None]] = {"v_and": ("A", "anchor"), "f_and": ("A", "f")}
    b_spec = OneHouseSpec(attachments=("b",))
    for i in range(1, phi.n + 1):
        u, nu = f"u{i}", f"~u{i}"
        parts.extend(
            [
                (f"S({u})", shape(build_variable_sphere)),
                (f"O({u})", shape(build_O)),
                (f"B({u})", shape(build_one_house, b_spec)),
                (f"X[{u}]", shape(build_literal_house, len(occ.get(i, ())))),
                (f"X[{nu}]", shape(build_literal_house, len(occ.get(-i, ())))),
            ]
        )
        idents.extend(
            [
                (f"B({u})", "f", "A", f"f({u})"),
                (f"B({u})", "b", f"O({u})", "b(u)"),
                (f"O({u})", "p(u)", f"X[{u}]", "p"),
                (f"O({u})", "p(u)", f"X[{nu}]", "p"),
                (f"S({u})", "s(u)", f"O({u})", "s(u)"),
                (f"S({u})", "f[u]", f"X[{u}]", "f"),
                (f"S({u})", "f[~u]", f"X[{nu}]", "f"),
            ]
        )
        wanted[f"f({u})"] = ("A", f"f({u})")
        for name in ("v({})", "s({})", "f[{}]", "f[~{}]", "D[{}]", "D[~{}]"):
            wanted[name.format(u)] = (f"S({u})", name.format("u"))
        wanted[f"b({u})"] = (f"O({u})", "b(u)")
        wanted[f"p({u})"] = (f"O({u})", "p(u)")
    seen: dict[int, int] = {}
    for j, clause in enumerate(phi.clauses, start=1):
        cname = f"C(c{j})"
        parts.append((cname, shape(build_three_house)))
        idents.append((cname, "e", "A", "f"))
        for t, lit in enumerate(clause, start=1):
            name = _lit_name(lit)
            xname = f"X[{name}]"
            # Slot (j, t) is the k-th occurrence of its literal in clause order.
            seen[lit] = k = seen.get(lit, 0) + 1
            for ray in "pf":
                idents.append((cname, f"{ray}{t}", xname, f"occ{k}.{ray}"))
                wanted[f"{ray}[{name},c{j}#{t}]"] = (xname, f"occ{k}.{ray}")
    # Every part is labeled whole, under its own name.
    wanted.update((name, (name, None)) for name, _ in parts)

    merged, vmaps, glued, part_facets = _amalgamate_with_maps(parts, idents)
    table = dict(parts)
    labels: dict[str, Feature] = {}
    for name, (part, label) in wanted.items():
        if label:
            labels[name] = map_feature(table[part].feature(label), vmaps[part])
        else:
            labels[name] = Feature.subcomplex(part_facets[part])

    try:
        lc = LabeledComplex(merged, labels)
    except ValueError as exc:
        raise InternalError(f"compiled {exc}") from None
    _check_compiled(phi, lc, glued)
    return lc


def _check_compiled(phi: Formula, lc: LabeledComplex, glued: Collection[int]) -> None:
    """Check K_phi's postconditions where gluing can break them.

    * Pure 2-dimensional, with no test: each part's builder calls
      ``gadgets._check_gadget``, which tests purity, and the glue records
      the parts' mapped facets, all triangles, as K_phi's facets
      (``_amalgamate_with_maps``), so every face lies in a triangle.
    * Reduced Euler characteristic ``phi.n``: one pass over the faces.
      The size bound: the face count, which costs nothing.
    * Connected vertex links: checked here at the ``glued`` vertices only.
      A vertex w with one preimage v, in part P, lies only in images of
      faces of P through v, so its link in K_phi is the image of P's link
      of v, which P's builder checked: every builder of a part calls
      ``gadgets._check_gadget``, which finds every disconnected link, by
      the star merge that ``vertex_links_connected`` runs here, and
      allows only the listed pinches, and only O(u) lists one, v(u).
      Every vertex of O(u) lies on s(u), b(u) or p(u), which are
      identified with other parts, so the pinch is glued and checked
      here.
    """
    k = lc.complex
    chi = k.reduced_euler_characteristic()
    if chi != phi.n:
        raise InternalError(
            f"compiled complex has reduced Euler characteristic {chi}, "
            f"expected {phi.n}"
        )
    ok, failing = vertex_links_connected(k, glued)
    if not ok:
        raise InternalError(f"compiled complex has a disconnected link at {failing}")
    count = len(k) - 1
    bound = _SIZE_CONSTANT * max(1, phi.n + phi.size)
    if count > bound:
        raise InternalError(f"compiled complex has {count} simplices > {bound}")


# -- the collapse schedule --------------------------------------------------------


def schedule_collapse(
    phi: Formula, assignment: Assignment
) -> tuple[frozenset[Face], CollapseSequence]:
    """Turn a satisfying assignment into a removal set plus collapse.

    Removes the least triangle of the satisfied disk ``D[l(u)]`` of
    every variable sphere, then replays the phase schedule: (a) retract
    each punctured disk to its rim and spoke, (b) collapse each satisfied
    literal house onto its occurrence star, (c) collapse each clause
    house through its first satisfied door, (d) open the conjunction
    house down to its variable star, (e) flatten each ``B(u)`` onto
    ``b(u)`` and each ``O(u)`` onto ``s(u) + p(u)``, (f) finish the
    unsatisfied disks and literal houses, and (g) prune the residual
    star to ``v_and``.  Each piece, a punctured disk, a disk, a whole
    house, an ``O(u)`` or the residual star, goes onto the faces it
    shares with what comes later (the last onto ``v_and``), read off
    K_phi's own labels, by one ``collapses_to``, and a no raises.

    One face index of K_phi minus the punctures, which
    ``Complex.remove_facets`` checks, carries the schedule: each pair is
    replayed on it once, and each piece's pairs must remove exactly its
    faces outside its kept ones, so the prune leaves exactly ``v_and``.
    So the result is replayable evidence, not a trace of intent.

    This one replay implies both conditions for gluing local collapses.
    Let a piece M keep M', and let its pairs, which come from M, remove
    exactly M - M' from the index.  Each step removes every coface of
    its free face, so these cofaces lie in M - M', all of which is in
    the index until removed: they are the free face's cofaces in M's
    own state, and the pairs collapse M onto M' (the replay of the piece
    alone).  A face of M - M' under a face g outside M would take g with
    it, so the constrain complex of M, its faces under a face outside
    it, lies in M' (the gluing lemma's hypothesis).  The same replay
    enforces the phase order: a piece replayed while another piece still
    holds a coface of one of its faces meets a step whose face is not
    free in the index, and the replay raises ``CollapseError``.
    """
    lc = build_K_phi(phi)
    a = {int(v): bool(assignment[v]) for v in assignment}
    if set(a) != set(range(1, phi.n + 1)):
        raise ValueError("assignment must cover exactly the formula's variables")
    if not _satisfies(phi, a):
        raise ValueError("assignment does not satisfy the formula")

    occ = _occurrences(phi)
    sat_sign = {i: i if a[i] else -i for i in a}
    lits = [_lit_name(sat_sign[i]) for i in range(1, phi.n + 1)]
    removal = [min(lc.feature(f"D[{lit}]").value, key=face_key) for lit in lits]
    index = _FaceIndex(lc.complex.remove_facets(removal))
    pairs: list[CollapsePair] = []

    def collapse(what: str, piece: Complex, kept_labels: list[str]) -> None:
        kept = lc.subcomplex(*kept_labels)
        res = collapses_to(piece, kept)
        if not res.yes:
            raise InternalError(f"{what} failed to collapse onto {kept_labels}")
        if index.collapse(res.witness) != piece.faces - kept.faces:
            raise CollapseError(f"the pairs of {what} remove other faces than its own")
        pairs.extend(res.witness)

    def literal_house(sign: int) -> None:
        lit = _lit_name(sign)
        kept = [f"p(u{abs(sign)})"]
        for j, t in occ.get(sign, ()):
            kept += [f"p[{lit},c{j}#{t}]", f"f[{lit},c{j}#{t}]"]
        collapse(f"X[{lit}]", lc.subcomplex(f"X[{lit}]"), kept)

    # (a) retract each punctured disk to rim plus spoke.
    for i, lit, tau in zip(range(1, phi.n + 1), lits, removal):
        disk = lc.subcomplex(f"D[{lit}]")
        collapse(f"punctured D[{lit}]", disk.remove_facet(tau), [f"s(u{i})", f"f[{lit}]"])

    # (b) collapse each satisfied literal house onto its occurrence star.
    for i in range(1, phi.n + 1):
        literal_house(sat_sign[i])

    # (c) collapse each clause house through its first satisfied door.
    for j, clause in enumerate(phi.clauses, start=1):
        # a satisfies phi, so every clause has a true literal.
        entry = next(t for t, lit in enumerate(clause, 1) if a[abs(lit)] == (lit > 0))
        slots = [(t, _lit_name(lit)) for t, lit in enumerate(clause, 1)]
        kept = ["f_and"] + [f"p[{name},c{j}#{t}]" for t, name in slots]
        kept += [f"f[{name},c{j}#{t}]" for t, name in slots if t != entry]
        collapse(f"C(c{j})", lc.subcomplex(f"C(c{j})"), kept)

    # (d) open the conjunction house down to its variable star.
    star = [f"f(u{i})" for i in range(1, phi.n + 1)]
    collapse("A", lc.subcomplex("A"), star or ["v_and"])

    # (e) flatten B(u) onto b(u), then O(u) onto s(u) + p(u).
    for i in range(1, phi.n + 1):
        u = f"u{i}"
        collapse(f"B({u})", lc.subcomplex(f"B({u})"), [f"b({u})"])
        collapse(f"O({u})", lc.subcomplex(f"O({u})"), [f"s({u})", f"p({u})"])

    # (f) finish each unsatisfied disk, then its literal house.
    for i in range(1, phi.n + 1):
        lit = _lit_name(-sat_sign[i])
        collapse(f"D[{lit}]", lc.subcomplex(f"D[{lit}]"), [f"f[{lit}]"])
        literal_house(-sat_sign[i])

    # (g) prune the residual star down to the hub vertex.
    collapse("the residual star", index.complex(), ["v_and"])
    return frozenset(removal), tuple(pairs)


# -- reading removals back --------------------------------------------------------


def assignment_from_removal(
    k: LabeledComplex, removal: frozenset[Face]
) -> dict[int, bool] | None:
    """Read an assignment off a removal set; None when inadmissible.

    A removal is admissible when it has one triangle per variable and
    every variable sphere loses one of them (so exactly one); the variable
    is true iff its triangle sits in ``D[u]``.
    """
    chi = k.complex.reduced_euler_characteristic()
    if len(removal) != chi:
        return None
    out: dict[int, bool] = {}
    for i in range(1, chi + 1):
        mine = removal & k.feature(f"S(u{i})").value
        if not mine:
            return None
        out[i] = min(mine, key=face_key) in k.feature(f"D[u{i}]").value
    return out


@dataclass(frozen=True)
class ReductionCertificate:
    """Replayable evidence that a removal collapses the compiled complex."""

    removal: tuple[Face, ...]
    pairs: CollapseSequence
    assignment: Mapping[int, bool]


def decide_phi_via_complex(phi: Formula) -> SearchResult:
    """Decide satisfiability through the compiled complex, at desk scale.

    Searches the admissible removal sets (one triangle per variable
    sphere, in ``itertools.product`` order over the spheres' label
    triangles) with ``collapse.find_removal`` for the first one whose
    removal leaves a collapsible complex, and returns its result:
    ``nodes`` counts the removals checked after dominance pruning, and
    the verdict is budget_exceeded once they overrun ``DEFAULT_BUDGET``,
    read when the call is made.  On yes the witness is
    ``(certificate,)``: the winning removal, the greedy collapse witness
    of the punctured complex, and the extracted assignment.  Raises
    ``InternalError`` when the winning removal does not read back as a
    model.

    This is the whole search of Hachimori's criterion on K_phi, so a no
    here means sd²(K_phi) is not shellable.  Each ``S(u_i)`` is a closed
    2-pseudomanifold (``build_variable_sphere`` checks it), and the glue
    maps it injectively, so its triangles form a GF(2) 2-cycle.  K_phi
    has no 3-faces, so a removal R that misses a sphere leaves that
    cycle as a nonzero class of H₂(K_phi - R; GF(2)), and a collapsible
    complex has H₂ = 0.  Parts meet only in vertices, edges and paths,
    so no two spheres share a triangle, and χ̃ = n.  So a collapsible
    removal of χ̃ triangles takes exactly one per sphere.
    """
    lc = build_K_phi(phi)
    pools = [sorted(lc.feature(f"S(u{i})").value, key=face_key) for i in range(1, phi.n + 1)]
    res = find_removal(lc.complex, pools, DEFAULT_BUDGET)
    if not res.yes:
        return res
    removal, pairs = res.witness
    extracted = assignment_from_removal(lc, frozenset(removal))
    if extracted is None or not _satisfies(phi, extracted):
        raise InternalError(
            "collapsible removal fails to read back as a model: "
            f"{sorted(map(face_key, removal))}"
        )
    cert = ReductionCertificate(removal, pairs, extracted)
    return SearchResult("yes", (cert,), res.nodes)
