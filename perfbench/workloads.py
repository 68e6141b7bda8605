"""Seeded inputs and job lists of the four workloads.

Each workload function writes its inputs into a work directory (this is
set-up) and returns the job list.  A job is one ``shellkit`` CLI
call, or one public-API call where no subcommand exists.  Follow-up jobs
(``verify`` after every "yes", ``stats`` after every write) are created
from a job's result while the jobs run.  Every job carries an
``expect`` check that is evaluated after the last job, off the clock, against
a reference that does not come from the code path under test: the
benchmark's own brute-force SAT and f-vector arithmetic, ``sat_oracle``,
and cross-decider agreement.
"""

from __future__ import annotations

import itertools
import json
import sys
from collections import deque
from pathlib import Path

from harness import Job, Result

# Fixed --budget of every decide-small check.  It is above the 1,588 nodes
# that decide_k_decomposable needs on modified_dunce_hat at k=1, so that
# known witness defect stays in the input set.
BUDGET = 2000
# Node budget of the reference deciders run after the last job.
REF_BUDGET = 2000

# The ROADMAP's baseline cases, reproduced by name.
BASELINE_SWEEP = (3, ((1, 1, 1), (-1, -1, -1), (2, 3, -2)))
BASELINE_SD2 = (1, ((1, 1, 1),))
BASELINE_SD2_FVECTOR = [1, 2978, 9132, 6156]


def _api(module: str):
    """A shellkit module, looked up at call time so traced wrappers apply."""
    return sys.modules[f"shellkit.{module}"]


# -- formulas ------------------------------------------------------------------


def brute_force_model(n: int, clauses) -> dict | None:
    for bits in itertools.product((False, True), repeat=n):
        if all(any(bits[abs(lit) - 1] == (lit > 0) for lit in c) for c in clauses):
            return {i + 1: bits[i] for i in range(n)}
    return None


def draw_cnf(rng, n: int, m: int, seen: set, sat: bool | None = None) -> tuple:
    """A random 3-CNF not in ``seen`` (so no input repeats within a run),
    satisfiable or not as ``sat`` asks."""
    while True:
        clauses = _api("reduction").random_formula(n, m, rng).clauses
        if (n, clauses) in seen:
            continue
        if sat is None or (brute_force_model(n, clauses) is not None) == sat:
            seen.add((n, clauses))
            return clauses


def write_cnf(path: Path, n: int, clauses) -> str:
    body = "".join(" ".join(map(str, c)) + " 0\n" for c in clauses)
    path.write_text(f"p cnf {n} {len(clauses)}\n{body}")
    return str(path)


def oracle_says_sat(n: int, clauses) -> tuple[bool | None, str | None]:
    """``sat_oracle``'s verdict, cross-checked against the brute force here."""
    r = _api("reduction")
    oracle = r.sat_oracle(r.Formula(n, clauses)) is not None
    if oracle != (brute_force_model(n, clauses) is not None):
        return None, "sat_oracle disagrees with the benchmark's brute force"
    return oracle, None


# -- complexes -----------------------------------------------------------------


def grow_complex(rng, facets: int) -> list[tuple[int, ...]]:
    """A pure 2-complex grown by gluing triangles along existing edges; the
    third vertex is new with probability 0.7, else an existing one."""
    tris = [(0, 1, 2)]
    edges = {(0, 1), (0, 2), (1, 2)}
    nv = 3
    while len(tris) < facets:
        a, b = rng.choice(sorted(edges))
        if rng.random() < 0.3:
            c = rng.randrange(nv)
            t = tuple(sorted((a, b, c)))
            if c in (a, b) or t in tris:
                continue
        else:
            c, nv = nv, nv + 1
            t = tuple(sorted((a, b, c)))
        tris.append(t)
        edges |= {(t[0], t[1]), (t[0], t[2]), (t[1], t[2])}
    return tris


def f_vector(facets) -> list[int]:
    faces = {sub for f in facets for r in range(1, len(f) + 1) for sub in itertools.combinations(sorted(f), r)}
    out = [1] + [0] * max(len(f) for f in facets)
    for face in faces:
        out[len(face)] += 1
    return out


def reduced_euler(fv) -> int:
    return sum(c if i % 2 else -c for i, c in enumerate(fv))


def sd_f_vector(fv) -> list[int]:
    """f-vector of the barycentric subdivision of a complex of dimension <= 2."""
    f = list(fv) + [0] * (4 - len(fv))
    out = [1, f[1] + f[2] + f[3], 2 * f[2] + 6 * f[3], 6 * f[3]]
    return out[: len(fv)]


def links_connected(facets) -> bool:
    """Every vertex link of a pure 2-complex has a connected 1-skeleton."""
    star: dict[int, list[tuple[int, int]]] = {}
    for t in facets:
        for v in t:
            star.setdefault(v, []).append(tuple(u for u in t if u != v))
    for opposite in star.values():
        adj: dict[int, set[int]] = {}
        for a, b in opposite:
            adj.setdefault(a, set()).add(b)
            adj.setdefault(b, set()).add(a)
        seen, todo = set(), [next(iter(adj))]
        while todo:
            u = todo.pop()
            if u not in seen:
                seen.add(u)
                todo.extend(adj[u] - seen)
        if len(seen) != len(adj):
            return False
    return True


def write_facets(path: Path, facets) -> str:
    rows = sorted((tuple(sorted(f)) for f in facets), key=lambda f: (len(f), f))
    path.write_text("".join(" ".join(map(str, f)) + "\n" for f in rows))
    return str(path)


# -- expectations --------------------------------------------------------------


def wrong(msg: str) -> list[tuple[str, str]]:
    return [("wrong", msg)]


def expect_exit(code: int):
    return lambda res: [] if res.exit == code else wrong(f"exit {res.exit}, reference {code}")


def expect_verified(res: Result) -> list[tuple[str, str]]:
    if res.exit == 0:
        return []
    reason = (res.report or {}).get("reason", f"exit {res.exit}")
    return [("rejected-witness", reason)]


def verify_after(input_path: str, what: str):
    """Follow-up: replay the witness of a "yes" through ``verify``."""

    def then(res: Result) -> list[Job]:
        if res.exit != 0 or not res.witness:
            return []
        return [Job(f"verify {what}", ["verify", input_path, res.witness], expect=expect_verified)]

    return then


def expect_sat_verdict(n: int, clauses):
    def check(res: Result):
        sat, problem = oracle_says_sat(n, clauses)
        if problem:
            return wrong(problem)
        return expect_exit(0 if sat else 1)(res)

    return check


def expect_stats(fv, links: bool | None):
    """``stats`` (or a writer's report) must show the reference f-vector,
    reduced Euler characteristic, purity and link connectivity."""

    def check(res: Result):
        doc = res.report or {}
        stats = doc.get("stats", doc)
        problems = []
        if stats.get("f-vector") != list(fv):
            problems.append(f"f-vector {stats.get('f-vector')}, reference {list(fv)}")
        if "reduced-euler-characteristic" in stats and stats["reduced-euler-characteristic"] != reduced_euler(fv):
            problems.append(f"reduced Euler characteristic {stats['reduced-euler-characteristic']}, reference {reduced_euler(fv)}")
        if "pure" in stats and stats["pure"] is not True:
            problems.append("not pure, reference pure")
        if links is not None and "links-connected" in stats and stats["links-connected"] != links:
            problems.append(f"links-connected {stats['links-connected']}, reference {links}")
        return [("wrong", p) for p in problems] + expect_exit(0)(res)

    return check


# -- phi-sweep -----------------------------------------------------------------


def phi_sweep(work: Path, rng) -> list[Job]:
    """solve-sat on seeded sat and unsat 3-CNF (n = 2, 3) plus the ROADMAP's
    unsat n=3 case, verify on each certificate; reduce and hachimori-sd2 on
    unsat n=1 formulas.

    The counts place the median job inside the block of 16 n=2 solve-sat
    and verify jobs, and the tail percentile (the 11th-largest job) inside
    the block of 11 hachimori-sd2 checks, below the two slower unsat
    solve-sat jobs, so the order statistics do not jump between job kinds
    from one seed to the next."""
    seen: set = set()
    formulas = [("baseline-unsat-n3", *BASELINE_SWEEP)]
    formulas += [("unsat-n2-0", 2, draw_cnf(rng, 2, 4, seen, sat=False))]
    formulas += [(f"sat-n2-{i}", 2, draw_cnf(rng, 2, 4, seen, sat=True)) for i in range(8)]
    formulas += [(f"sat-n3-{i}", 3, draw_cnf(rng, 3, 5, seen, sat=True)) for i in range(2)]
    jobs = []
    for name, n, clauses in formulas:
        cnf = write_cnf(work / f"{name}.cnf", n, clauses)
        jobs.append(
            Job(
                f"solve-sat {name}",
                ["solve-sat", cnf, "--witness", str(work / f"{name}.sat.json")],
                decision=True,
                expect=expect_sat_verdict(n, clauses),
                then=verify_after(cnf, name),
                baseline="sweep-unsat-n3" if name.startswith("baseline") else None,
            )
        )
    for i in range(11):
        name, clauses = f"unsat-n1-{i}", draw_cnf(rng, 1, 3, seen, sat=False)
        cnf = write_cnf(work / f"{name}.cnf", 1, clauses)
        kphi = str(work / f"{name}.kphi.json")
        check = Job(
            f"check hachimori-sd2 {name}",
            ["check", "hachimori-sd2", kphi, "--witness", str(work / f"{name}.sd2.json")],
            decision=True,
            expect=expect_sat_verdict(1, clauses),
            then=verify_after(kphi, name),
        )
        jobs.append(
            Job(
                f"reduce {name}",
                ["reduce", cnf, "-o", kphi],
                expect=_expect_chi(1),
                then=lambda res, check=check: [check] if res.exit == 0 else [],
            )
        )
    return jobs


def _expect_chi(n: int):
    def check(res: Result):
        chi = (res.report or {}).get("reduced-euler-characteristic")
        problems = [] if chi == n else wrong(f"reduced Euler characteristic {chi}, reference {n}")
        return problems + expect_exit(0)(res)

    return check


# -- phi-certify ---------------------------------------------------------------


def _certificate(n: int, clauses, model, removal, pairs) -> str:
    doc = {
        "kind": "reduction-certificate",
        "formula": {"n": n, "clauses": [list(c) for c in clauses]},
        "removal": [sorted(f) for f in sorted(removal, key=lambda f: (len(f), sorted(f)))],
        "pairs": [p.as_lists() for p in pairs],
        "assignment": {str(v): bool(model[v]) for v in sorted(model)},
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def _schedule(n: int, clauses):
    r = _api("reduction")
    phi = r.Formula(n, clauses)
    model = r.sat_oracle(phi)
    removal, pairs = r.schedule_collapse(phi, model)
    return model, removal, pairs


def phi_certify(work: Path, rng) -> list[Job]:
    """Satisfiable formulas at n = 4..8 and three more at n = 4: reduce,
    schedule_collapse with the model from sat_oracle, and verify on the
    written certificate.

    The extra n=4 formulas put the median and the tail percentile (the
    11th-largest of 24 jobs) inside the block of jobs that cost about as
    much as schedule_collapse at n=4: those four, reduce at n = 7, 8 and
    verify at n = 6."""
    jobs, seen = [], set()
    for i, n in enumerate((4, 5, 6, 7, 8, 4, 4, 4)):
        name, clauses = f"sat-n{n}-{i}", draw_cnf(rng, n, n, seen, sat=True)
        cnf = write_cnf(work / f"{name}.cnf", n, clauses)
        cert_path = work / f"{name}.cert.json"

        def write_cert(res, n=n, clauses=clauses, cnf=cnf, cert_path=cert_path, name=name):
            if res.value is None:
                return []
            text = _certificate(n, clauses, *res.value)
            cert_path.write_text(text)
            res.counts["certificate_bytes"] = len(text)
            res.counts["pairs"] = len(res.value[2])
            return [Job(f"verify {name}", ["verify", cnf, str(cert_path)], expect=expect_verified)]

        def expect_removal(res, n=n):
            removal = res.value[1] if res.value else ()
            return [] if len(removal) == n else wrong(f"removal of {len(removal)} triangles, reference {n}")

        schedule = Job(
            f"schedule_collapse {name}",
            call=lambda n=n, clauses=clauses: _schedule(n, clauses),
            expect=expect_removal,
            then=write_cert,
        )
        jobs.append(
            Job(
                f"reduce {name}",
                ["reduce", cnf, "-o", str(work / f"{name}.kphi.json")],
                expect=_expect_chi(n),
                then=lambda res, schedule=schedule: [schedule],
            )
        )
    return jobs


# -- sd2-reduce ----------------------------------------------------------------


def _gadget_meshes() -> dict[str, list]:
    g = _api("gadgets")
    built = {
        "one_house": g.build_one_house(g.OneHouseSpec()),
        "three_house": g.build_three_house(),
        "literal_house_1": g.build_literal_house(1),
        "dunce_hat": g.fixtures()["dunce_hat"],
    }
    return {name: [tuple(sorted(f)) for f in lc.complex.facets] for name, lc in built.items()}


def _stats_after(path: str, fv, links):
    return lambda res: [Job(f"stats {Path(path).name}", ["stats", path], expect=expect_stats(fv, links))] if res.exit == 0 else []


def sd2_reduce(work: Path, rng) -> list[Job]:
    """reduce --sd2 on the ROADMAP's n=1 case, reduce + subdivide on seeded
    n=1 formulas, subdivide --levels 2 on gadget meshes, and stats on every
    output.

    Five seeded formulas put both the median job and the tail percentile
    inside the block of five similar ``subdivide --levels 1`` jobs."""
    n, clauses = BASELINE_SD2
    cnf = write_cnf(work / "baseline-sd2-n1.cnf", n, clauses)
    jobs = [
        Job(
            "reduce --sd2 baseline-sd2-n1",
            ["reduce", "--sd2", cnf, "-o", str(work / "baseline-sd2-n1.sd2.kphi.json")],
            expect=expect_stats(BASELINE_SD2_FVECTOR, None),
            baseline="sd2-n1",
        )
    ]
    seen: set = set()
    for i in range(5):
        n, name = 1, f"phi-n1-{i}"
        cnf = write_cnf(work / f"{name}.cnf", n, draw_cnf(rng, n, 2, seen))
        kphi, sd1 = str(work / f"{name}.kphi.json"), str(work / f"{name}.sd1.json")

        def subdivide(res, kphi=kphi, sd1=sd1):
            if res.exit != 0:
                return []
            fv = sd_f_vector(res.report["f-vector"])
            return [
                Job(
                    f"subdivide --levels 1 {Path(kphi).name}",
                    ["subdivide", "--levels", "1", kphi, "-o", sd1],
                    expect=expect_stats(fv, None),
                    then=_stats_after(sd1, fv, True),
                )
            ]

        jobs.append(Job(f"reduce {name}", ["reduce", cnf, "-o", kphi], expect=_expect_chi(n), then=subdivide))
    for name, facets in _gadget_meshes().items():
        src, out = write_facets(work / f"{name}.txt", facets), str(work / f"{name}.sd2.txt")
        fv = sd_f_vector(sd_f_vector(f_vector(facets)))
        jobs.append(
            Job(
                f"subdivide --levels 2 {name}",
                ["subdivide", "--levels", "2", src, "-o", out],
                expect=expect_stats(fv, None),
                then=_stats_after(out, fv, links_connected(facets)),
            )
        )
    return jobs


# -- decide-small --------------------------------------------------------------

# Verdicts known from theory for inputs the generic references cannot settle:
# a cone is collapsible.
KNOWN = {("cone_dunce_hat", "collapsible"): 0}
BASELINES = {
    ("cone_dunce_hat", "collapsible"): "dfs-cone-dunce-hat",
    ("torus_7", "shellable"): "shellable-torus-7",
}


class SmallInput:
    """One decide-small complex with lazily computed, off-the-clock references."""

    def __init__(self, name: str, facets) -> None:
        self.name = name
        self.facets = [tuple(sorted(f)) for f in facets]
        self.fv = f_vector(self.facets)
        self.dim = len(self.fv) - 2
        self.pure = all(len(f) == self.dim + 1 for f in self.facets)
        self.chi = reduced_euler(self.fv)
        self.exits: dict[str, int | None] = {}
        self._refs: dict[str, str] = {}

    def _complex(self):
        return _api("complex_core").Complex.from_facets(self.facets)

    def ref_collapsible(self) -> str:
        if "dfs" not in self._refs:
            self._refs["dfs"] = _api("collapse").is_collapsible_dfs(self._complex(), budget=REF_BUDGET).verdict
        return self._refs["dfs"]

    def ref_shellable(self) -> str:
        """Shellable equals d-decomposable for a pure d-complex."""
        if "kdec" not in self._refs:
            res = _api("shelling").decide_k_decomposable(self._complex(), self.dim, budget=REF_BUDGET)
            self._refs["kdec"] = res.verdict
        return self._refs["kdec"]

    def reference(self, prop: str, search: bool) -> int | None:
        """Reference exit code (0 yes, 1 no), or None when no reference
        decides.  Cheap invariants and the other CLI verdicts come first;
        the reference deciders run only when ``search`` is set."""
        if (self.name, prop) in KNOWN:
            return KNOWN[(self.name, prop)]
        # A shellable pure d-complex is a wedge of d-spheres, so (-1)^d chi >= 0.
        sign_bad = (-1) ** self.dim * self.chi < 0
        shellable = self.exits.get("shellable")
        if prop == "collapsible":
            if self.chi != 0:
                return 1
            if search and self.dim <= 2:
                return {"yes": 0, "no": 1}.get(self.ref_collapsible())
        elif prop == "shellable":
            if sign_bad:
                return 1
            if search:
                return {"yes": 0, "no": 1}.get(self.ref_shellable())
        elif prop.startswith("k-decomposable"):
            # 0-decomposable implies 1-decomposable implies shellable.
            if sign_bad or shellable == 1 or (prop.endswith("(0)") and self.exits.get("k-decomposable(1)") == 1):
                return 1
        elif prop == "hachimori-sd2":
            if self.chi < 0 or not links_connected(self.facets):
                return 1
            if shellable == 0:
                return 0  # a subdivision of a shellable complex is shellable
            if search and self.chi == 0:
                return {"yes": 0, "no": 1}.get(self.ref_collapsible())
        return None

    def properties(self) -> list[str]:
        props = ["collapsible"]
        if self.pure:
            props = ["shellable", "collapsible", "k-decomposable(0)", "k-decomposable(1)"]
        if self.dim == 2:
            props.append("hachimori-sd2")
        return props


def _small_fixtures() -> dict[str, list]:
    g, cc = _api("gadgets"), _api("complex_core")
    fixtures = g.fixtures()
    out = {name: fixtures[name].complex.facets for name in sorted(fixtures)}
    out["octahedron"] = [(a, b, c) for a in (0, 1) for b in (2, 3) for c in (4, 5)]
    out["cone_dunce_hat"] = cc.cone(g.dunce_hat()).facets
    return out


def decide_small(work: Path, rng) -> list[Job]:
    """check every property whose precondition holds, with one fixed
    --budget, on seeded glued 2-complexes and the fixtures; verify after
    every yes.  The glued complexes are stratified: one with reduced Euler
    characteristic 0 and one with -1 for each facet count 6..16, and one
    with +1 at 6, 11 and 16 facets.  The seed varies their shapes, not the
    mix of sizes and Euler characteristics that search cost depends on."""
    strata = [(n, chi) for n in range(6, 17) for chi in (0, -1)] + [(6, 1), (11, 1), (16, 1)]
    inputs = []
    for i, (facets, chi) in enumerate(strata):
        tris = grow_complex(rng, facets)
        while reduced_euler(f_vector(tris)) != chi:
            tris = grow_complex(rng, facets)
        inputs.append(SmallInput(f"glued-{i:02d}", tris))
    inputs += [SmallInput(name, facets) for name, facets in _small_fixtures().items()]
    jobs = []
    for item in inputs:
        path = write_facets(work / f"{item.name}.txt", item.facets)
        for prop in item.properties():
            witness = str(work / f"{item.name}.{prop}.json")

            def record(res, item=item, prop=prop, then=verify_after(path, f"{prop} {item.name}")):
                item.exits[prop] = res.exit
                return then(res)

            def expect(res, item=item, prop=prop):
                """A "yes" must not contradict an invariant or another
                verdict; its witness is replayed by the verify job.  A "no"
                needs a reference that refutes."""
                if res.exit == 3:
                    return []
                ref = item.reference(prop, search=res.exit == 1)
                if ref is None:
                    if res.exit == 0:
                        return []
                    return [("unchecked", f"no reference decides {prop} on {item.name}")]
                return expect_exit(ref)(res)

            jobs.append(
                Job(
                    f"check {prop} {item.name}",
                    ["check", prop, path, "--budget", str(BUDGET), "--witness", witness],
                    decision=True,
                    expect=expect,
                    then=record,
                    baseline=BASELINES.get((item.name, prop)),
                )
            )
    return jobs


WORKLOADS = {
    "phi-sweep": phi_sweep,
    "phi-certify": phi_certify,
    "sd2-reduce": sd2_reduce,
    "decide-small": decide_small,
}


def run_queue(jobs: list[Job], execute) -> None:
    """Run jobs one at a time, each follow-up right after the job it follows."""
    queue = deque(jobs)
    while queue:
        job = queue.popleft()
        res = execute(job)
        if job.then is not None:
            queue.extendleft(reversed(job.then(res)))
