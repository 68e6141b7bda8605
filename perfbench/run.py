"""shellkit benchmark: four closed-loop CLI workloads, untraced or traced.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload phi-sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --seed 1 --seconds 20     # every workload, both modes

One run is one fresh interpreter driving one workload: a single client
issues each job after the previous one ends, through the workload's fixed
job list, once.  The job lists are sized to take about ``--seconds``.
Times are reported at a fixed reference speed, measured by a calibration
loop sampled while the jobs run (``harness.SpeedMeter``).  With
``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it runs
the job list with spans around every module's public functions and prints
the per-layer metrics.  Either way the last line of standard output is one
JSON object; the lines before it list every job's verdict, every failure,
and the ROADMAP baseline cases.  Without ``--workload`` it runs each
workload untraced and traced in fresh interpreters and reports the
tracing overhead.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
SETUP_PROBES = 5
TAIL_BEYOND = 10


def import_shellkit() -> None:
    """Import shellkit from this checkout's ``src`` or exit without a result."""
    if not (SRC / "shellkit" / "__init__.py").is_file():
        sys.exit(f"perfbench: no shellkit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import shellkit  # noqa: F401
    import shellkit.cli  # noqa: F401

    if Path(shellkit.__file__).resolve().parent != (SRC / "shellkit").resolve():
        sys.exit(f"perfbench: imported shellkit from {shellkit.__file__}, not {SRC}")


def make_jobs(workload: str, seed: int, work: Path):
    """Set-up: write the seeded inputs and return the job list."""
    from workloads import WORKLOADS

    work.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[workload](work, random.Random(f"{workload}:{seed}"))


def setup_probe(workload: str, seed: int) -> None:
    """A fresh interpreter that sets up the job list, says so with its speed
    samples, and cleans up."""
    from harness import SpeedMeter

    meter = SpeedMeter()
    meter.start()
    import_shellkit()
    work = STATE / "work" / f"probe-{os.getpid()}"
    try:
        make_jobs(workload, seed, work)
        meter.sample()
        meter.stop()
        print(f"ready {sum(meter.costs)!r} {statistics.mean(meter.costs)!r}", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure_setup(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Process start to first job ready, in fresh interpreters: the wall
    times, and the same at the meter's reference speed."""
    from harness import SpeedMeter

    walls, scaled = [], []
    for _ in range(SETUP_PROBES):
        argv = [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", workload, "--seed", str(seed)]
        start = time.perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline().split()
            wall = time.perf_counter() - start
            child.stdout.read()
            if child.wait(timeout=60) != 0 or len(line) != 3 or line[0] != "ready":
                sys.exit("perfbench: set-up probe failed")
        spent, mean_cost = float(line[1]), float(line[2])
        walls.append(wall)
        scaled.append((wall - spent) * SpeedMeter.REFERENCE_S / mean_cost)
    return walls, scaled


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile that leaves at least ten jobs beyond it;
    returns (percentile, value)."""
    n = len(values)
    q = max(n - TAIL_BEYOND, 1) / n
    return 100 * q, sorted(values)[max(math.ceil(q * n) - 1, 0)]


def layer_metrics(tracer, results, run_s: float) -> dict[str, tuple[float, str]]:
    def rate(count, seconds):
        return count / seconds if seconds > 0 else 0.0

    sweep = "reduction.decide_phi_via_complex"
    candidates = tracer.calls("collapse.greedy", parent=sweep)
    m = {
        "reduction.sweep.candidates": (candidates, "count"),
        "reduction.sweep.candidates_per_s": (rate(candidates, tracer.seconds(sweep)), "1/s"),
        "reduction.build_K_phi.s": (tracer.seconds("reduction.build_K_phi"), "s"),
        "reduction.schedule_collapse.s": (tracer.seconds("reduction.schedule_collapse"), "s"),
        "reduction.sat_oracle.s": (tracer.seconds("reduction.sat_oracle"), "s"),
        "collapse.greedy.calls": (tracer.calls("collapse.greedy"), "count"),
        "collapse.greedy.s": (tracer.seconds("collapse.greedy"), "s"),
    }
    for name in ("collapse.dfs", "shelling.decide_shellable", "shelling.decide_k_decomposable"):
        nodes = tracer.total(name)
        m[f"{name}.nodes"] = (nodes, "count")
        m[f"{name}.nodes_per_s"] = (rate(nodes, tracer.seconds(name)), "1/s")
    vcs = "collapse.verify_collapse_sequence"
    hachimori = "shelling.hachimori_decide_sd2"
    m.update(
        {
            f"{vcs}.pairs": (tracer.total(vcs), "count"),
            f"{vcs}.s": (tracer.seconds(vcs), "s"),
            f"{hachimori}.candidates": (tracer.calls("collapse.greedy", parent=hachimori), "count"),
            f"{hachimori}.s": (tracer.seconds(hachimori), "s"),
            "shelling.verify.s": (tracer.seconds("shelling.verify_shelling", "shelling.verify_decomposition"), "s"),
            "complex_core.remove_facet.calls": (tracer.calls("complex_core.remove_facet"), "count"),
            "complex_core.remove_facet.s": (tracer.seconds("complex_core.remove_facet"), "s"),
            "complex_core.subdivide_labeled.s": (tracer.seconds("complex_core.subdivide_labeled"), "s"),
            "complex_core.to_json.s": (tracer.seconds("complex_core.to_json"), "s"),
            "complex_core.to_json.bytes": (tracer.total("complex_core.to_json"), "bytes"),
            "complex_core.from_json.s": (tracer.seconds("complex_core.from_json"), "s"),
            "complex_core.vertex_links_connected.s": (tracer.seconds("complex_core.vertex_links_connected"), "s"),
            "complex_core.canonical_form.calls": (tracer.calls("complex_core.canonical_form"), "count"),
            "complex_core.canonical_form.s": (tracer.seconds("complex_core.canonical_form"), "s"),
            "gadgets.build.s": (tracer.seconds("gadgets.build"), "s"),
            "cli.witness_bytes": (sum(r.witness_bytes for r in results), "bytes"),
        }
    )
    for layer, seconds in tracer.self_seconds().items():
        m[f"{layer}.self_s"] = (seconds, "s")
    m["trace.run_s"] = (run_s, "s")
    m["trace.spans"] = (len(tracer.spans), "count")
    return m


def report_jobs(results) -> None:
    for r in results:
        status = "ok"
        if r.failures:
            status = "FAILED " + "; ".join(f"{k}: {msg}" for k, msg in r.failures)
        elif any(k == "unchecked" for k, _ in r.problems):
            status = "ok (verdict unchecked: no reference decides it)"
        print(f"job {r.id} exit={r.exit} {r.seconds:.4f}s {r.job.label}: {status}")
    failed = [r for r in results if r.failures]
    print(f"failed jobs: {len(failed)} of {len(results)}")
    for r in failed:
        for kind, msg in r.failures:
            print(f"  {r.id} {r.job.label}: {kind}: {msg}")


def report_baselines(results, job_counts) -> None:
    for r in results:
        if r.job.baseline:
            doc = r.report or {}
            fv = doc.get("f-vector")
            counts = job_counts.get(r.id, {}) if job_counts else {}
            candidates = counts.get("reduction.decide_phi_via_complex.candidates")
            print(
                f"baseline {r.job.baseline}: {r.job.label} exit={r.exit} {r.seconds:.3f}s "
                f"search_nodes={doc.get('search_nodes')} f-vector={fv}"
                + (f" sweep_candidates={candidates}" if candidates is not None else "")
            )


def run_workload(args) -> int:
    import_shellkit()
    from harness import INCORRECT, Runner, SpeedMeter, check_determinism, source_digest
    from spans import Tracer
    from workloads import run_queue

    tracer = Tracer() if args.trace else None
    runner = Runner(tracer)  # finds the caches before wrappers replace them
    if tracer is not None:
        tracer.install()
    work = STATE / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    meter = SpeedMeter()
    try:
        try:
            jobs = make_jobs(args.workload, args.seed, work)
            own_setup = time.perf_counter() - STARTED
            meter.start()
            start = time.perf_counter()
            run_queue(jobs, runner.execute)
            end = time.perf_counter()
        finally:
            meter.stop()
            if tracer is not None:
                tracer.uninstall()
        # Read before the references run, so the peak is the jobs' own.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        wall_s, run_s = end - start, meter.scale(start, end)
        runner.scale(meter)
        runner.check()
        job_counts = tracer.job_counts() if tracer is not None else None
        store = STATE / "state" / source_digest(SRC, HERE) / f"{args.workload}-{args.seed}.json"
        check_determinism(store, runner.results, job_counts)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    results = runner.results
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: {len(results)} jobs")
    print(f"job times are at the reference speed; the run took {wall_s:.3f}s wall, {run_s:.3f}s at the reference speed")
    report_jobs(results)
    report_baselines(results, job_counts)
    failed = sum(1 for r in results if r.failures)
    correct = not any(k in INCORRECT for r in results for k, _ in r.failures)
    if tracer is not None:
        metrics = layer_metrics(tracer, results, run_s)
    else:
        times = [r.seconds for r in results]
        pct, tail_s = tail(times)
        decisions = [r for r in results if r.job.decision]
        decided = sum(1 for r in decisions if r.exit in (0, 1))
        setup_walls, setup = measure_setup(args.workload, args.seed)
        print(f"set-up in this process: {own_setup:.3f}s wall")
        print(f"set-up probes: {', '.join(f'{s:.3f}' for s in setup)}s at the reference speed; {', '.join(f'{s:.3f}' for s in setup_walls)}s wall")
        print(f"job_p50_s over {len(times)} jobs; job_tail_s is p{pct:.1f} of {len(times)} jobs")
        print(f"failed_share {failed}/{len(results)}; decided_share {decided}/{len(decisions)} decision jobs")
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "run_s": (run_s, "s"),
            "job_p50_s": (statistics.median(times), "s"),
            "job_tail_s": (tail_s, "s"),
            "passed_share": (1 - failed / len(results), "share"),
            "decided_share": (decided / len(decisions) if decisions else 1.0, "share"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": len(results),
                "failed": failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0


def run_all(args) -> int:
    """Every workload untraced then traced, each in a fresh interpreter."""
    from workloads import WORKLOADS

    summary = {}
    for workload in WORKLOADS:
        summary[workload] = {}
        for trace in (0, 1):
            argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(args.seed)]
            argv += ["--seconds", str(args.seconds), "--trace", str(trace)]
            done = subprocess.run(argv, capture_output=True, text=True, timeout=900)
            sys.stdout.write(done.stdout)
            sys.stderr.write(done.stderr)
            if done.returncode != 0:
                return done.returncode
            summary[workload][f"trace{trace}"] = json.loads(done.stdout.splitlines()[-1])
        untraced = summary[workload]["trace0"]["metrics"]["run_s"]["value"]
        traced = summary[workload]["trace1"]["metrics"]["trace.run_s"]["value"]
        summary[workload]["tracing_overhead_s"] = traced - untraced
        print(f"tracing overhead {workload}: {traced - untraced:+.3f}s (traced run_s {traced:.3f}s, untraced {untraced:.3f}s)")
    print(json.dumps(summary))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("phi-sweep", "phi-certify", "sd2-reduce", "decide-small"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    sys.path.insert(0, str(HERE))
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    if args.workload is None:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
