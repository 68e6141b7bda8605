"""Closed-loop job runner: one client, one process, one job at a time.

A CLI job is one in-process ``shellkit.cli.main(["--json", ...])`` call with
its standard streams captured; an API job is one call of a public
function.  Before every job the ``functools`` caches of the shellkit
modules are cleared, so each job starts as cold as a fresh ``shellkit``
process would.  A job's time covers the call only: cache clearing, report
parsing and reference checks happen outside it.

Times are reported at a fixed reference speed (``SpeedMeter``): the speed
of the shared machine the benchmark was tuned on drifts by up to half
within seconds, and scaling by a calibration loop sampled during the job
removes most of that drift.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import signal
import sys
import time
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

# Failure categories; "wrong" and "nondeterministic" also make a run incorrect.
FAILURES = ("exception", "exit-2", "wrong", "rejected-witness", "nondeterministic")
INCORRECT = ("wrong", "nondeterministic")


@dataclass
class Job:
    label: str
    argv: list[str] | None = None  # shellkit CLI arguments, without --json
    call: Callable[[], object] | None = None  # public-API job
    decision: bool = False  # a check or solve-sat, counted in decided_share
    expect: Callable[["Result"], list[tuple[str, str]]] | None = None
    then: Callable[["Result"], list["Job"]] | None = None
    baseline: str | None = None  # name of a ROADMAP baseline case


@dataclass
class Result:
    job: Job
    id: str
    seconds: float  # wall time; ``Runner.scale`` turns it into reference-speed time
    start: float = 0.0
    end: float = 0.0
    exit: int | None = None
    report: dict | None = None
    value: object = None
    error: str | None = None
    stderr: str = ""
    witness: str | None = None
    witness_bytes: int = 0
    counts: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)

    @property
    def failures(self) -> list[tuple[str, str]]:
        return [p for p in self.problems if p[0] in FAILURES]

    def fingerprint(self) -> list:
        """What must repeat exactly across runs of the same seed."""
        doc = self.report or {}
        fv = doc.get("f-vector", (doc.get("stats") or {}).get("f-vector"))
        return [self.job.label, self.exit, doc.get("search_nodes"), fv, self.witness_bytes, self.counts]


def calibrate() -> int:
    """A fixed pure-Python loop, about 0.3 ms on the tuning machine: integer
    arithmetic, then frozensets and dicts of faces as shellkit builds them."""
    total = 0
    for i in range(2000):
        total += i * i % 7
    cofaces: dict[frozenset, list] = {}
    for i in range(40):
        face = frozenset((i, i + 1, i + 2))
        for v in face:
            cofaces.setdefault(face - {v}, []).append(face)
    return total + len(sorted(cofaces, key=sorted))


class SpeedMeter:
    """Samples the machine's speed while jobs run.

    Every ``PERIOD`` seconds a SIGALRM handler runs ``calibrate`` in the
    benchmark's own thread and records how long it took.  The reference-speed
    time of an interval is its wall time, minus the time spent in those
    samples, times ``REFERENCE_S`` over the mean sample time around the
    interval: the seconds it would take on a machine where ``calibrate``
    takes ``REFERENCE_S``.  When the machine runs the benchmark's thread
    less, both the job and the samples slow down alike.
    """

    PERIOD = 0.005
    REFERENCE_S = 3e-4

    def __init__(self) -> None:
        self.ends: list[float] = []  # perf_counter at the end of each sample
        self.costs: list[float] = []  # how long each sample took

    def sample(self, *_) -> None:
        start = time.perf_counter()
        calibrate()
        end = time.perf_counter()
        self.ends.append(end)
        self.costs.append(end - start)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD, self.PERIOD)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self, start: float, end: float) -> float:
        """Reference-speed seconds of the interval ``[start, end]``."""
        inside = self.costs[bisect_left(self.ends, start) : bisect_right(self.ends, end)]
        around = self.costs[bisect_left(self.ends, start - self.PERIOD) : bisect_right(self.ends, end + self.PERIOD)]
        around = around or self.costs or [self.REFERENCE_S]
        return (end - start - sum(inside)) * self.REFERENCE_S / (sum(around) / len(around))


def collect_cache_clears() -> list[Callable[[], None]]:
    """``cache_clear`` of every functools cache at module level in shellkit."""
    caches = {}
    for name, module in sorted(sys.modules.items()):
        if name.startswith("shellkit") and module is not None:
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)) and getattr(value, "__module__", "").startswith("shellkit"):
                    caches[id(value)] = value
    return [cache.cache_clear for cache in caches.values()]


class Runner:
    """Runs jobs and keeps every result of the run."""

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.results: list[Result] = []
        self._clears = collect_cache_clears()

    def execute(self, job: Job) -> Result:
        job_id = f"{len(self.results):03d}"
        for clear in self._clears:
            clear()
        if self.tracer is not None:
            self.tracer.job = job_id
        res = self._run_cli(job, job_id) if job.argv is not None else self._run_api(job, job_id)
        if self.tracer is not None:
            self.tracer.job = "bench"
        if res.error:
            res.problems.append(("exception", res.error))
        elif res.exit == 2:
            res.problems.append(("exit-2", res.stderr or "exit 2 on valid input"))
        self.results.append(res)
        return res

    def _run_cli(self, job: Job, job_id: str) -> Result:
        cli = sys.modules["shellkit.cli"]
        out, err = io.StringIO(), io.StringIO()
        code, error = None, None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = cli.main(["--json", *job.argv])
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # an uncaught exception fails the job, not the run
                error = f"{type(exc).__name__}: {exc}"[:300]
            end = time.perf_counter()
        res = Result(job, job_id, end - start, start, end, exit=code, error=error, stderr=err.getvalue().strip()[:300])
        lines = out.getvalue().splitlines()
        if lines and lines[-1].startswith("{"):
            res.report = json.loads(lines[-1])
        command = job.argv[0]
        path = (res.report or {}).get("witness_path")
        if command in ("check", "solve-sat") and path and os.path.exists(path):
            res.witness, res.witness_bytes = path, os.path.getsize(path)
        return res

    def _run_api(self, job: Job, job_id: str) -> Result:
        error, value = None, None
        start = time.perf_counter()
        try:
            value = job.call()
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"[:300]
        end = time.perf_counter()
        return Result(job, job_id, end - start, start, end, exit=None if error else 0, value=value, error=error)

    def scale(self, meter: SpeedMeter) -> None:
        """Turn every job's wall time into reference-speed time."""
        for res in self.results:
            res.seconds = meter.scale(res.start, res.end)

    def check(self) -> None:
        """Evaluate every job's expectation against its reference."""
        for res in self.results:
            if res.job.expect is not None and not res.failures:
                res.problems.extend(res.job.expect(res))


# -- determinism across runs ---------------------------------------------------


def source_digest(*dirs: Path) -> str:
    """Digest of the program and benchmark sources, so fingerprints are only
    compared between runs of the same code."""
    h = hashlib.sha256()
    for top in dirs:
        for path in sorted(top.rglob("*.py")) + sorted(top.rglob("*.txt")):
            h.update(str(path.relative_to(top)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def check_determinism(store: Path, results: list[Result], traced: dict | None) -> list[str]:
    """Compare this run's fingerprints with earlier runs of the same seed and
    source; record the ones not seen before.  Returns mismatching job ids."""
    current = json.loads(json.dumps({r.id: r.fingerprint() for r in results}))
    trace_counts = traced or {}
    previous = json.loads(store.read_text()) if store.exists() else {"cli": {}, "trace": {}}
    bad = [j for j, fp in current.items() if j in previous["cli"] and previous["cli"][j] != fp]
    bad += [
        j
        for j, counts in trace_counts.items()
        if j in previous["trace"] and previous["trace"][j] != counts and j not in bad
    ]
    for j in bad:
        res = next((r for r in results if r.id == j), None)
        if res is not None:
            res.problems.append(("nondeterministic", f"differs from an earlier run of this seed: {previous['cli'].get(j)}"))
    previous["cli"].update({j: fp for j, fp in current.items() if j not in previous["cli"]})
    previous["trace"].update({j: c for j, c in trace_counts.items() if j not in previous["trace"]})
    store.parent.mkdir(parents=True, exist_ok=True)
    store.write_text(json.dumps(previous, sort_keys=True))
    return bad
