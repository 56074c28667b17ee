"""Benchmark of ``spinz estimate``: exact-checked solve time per workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

    # every end-to-end and per-layer metric of every workload:
    for w in cycle-sweep rr3-deep grid-strip; do for t in 0 1; do
        python3 perfbench/run.py --workload $w --seed 1 --seconds 30 --trace $t
    done; done

Run from the root of a checkout; the package is imported from ``src/`` of
that checkout and nowhere else.  The loop is closed with one client: one
estimate at a time, each in a fresh interpreter (``worker.py solve``) doing
exactly the steps of ``spinz estimate --threads 1``, until S seconds have
passed.  Instances come from ``generate(GenSpec(...))`` with the seed, are
written with ``save_system``, and the timed process receives only the file.
Every answer is checked against an exact log Z from ``reference.py``.

A workload may hold several instances drawn from the seed (``instances``
below); they are solved in turn, and the run ends at the first solve that
finishes after S seconds once each instance was tried.

The host is a shared virtual machine whose speed drifts: a fixed task runs
up to 40% slower for minutes at a time, and in busy periods alternates
between fast and slow every few tenths of a second.  Each solve therefore
also times a fixed pure-Python task that uses no spinz code before the
import, between ``load_system`` and the sweep, and after the render
(``worker.calibration_s``, about 0.04 s each).  Each step is scaled to a
host on which that task takes ``REFERENCE_CALIBRATION_S``: set-up by the
mean of the two calibrations around it, sweep and render by the mean of
the two around them (time x REFERENCE_CALIBRATION_S / calibration).
Metrics are the medians of these scaled times, in seconds of that reference
host; the medians of the raw times are printed beside them.  A change to
spinz moves the solve but not the calibration, so it shows in full.  On a
busy 2-core virtual machine the scaling cut the spread of single sweeps
within a run (quartiles over median) from 0.15-0.58 to 0.06-0.21.

``solve_s`` is set-up plus sweep plus render, without the calibration in
between: the mean over instances of each one's median scaled solve time.
``marginals_per_s`` divides all vertices by the sum of each instance's
median scaled sweep, ``setup_s`` is the median scaled set-up over every
solve of the run, and ``peak_rss_mb`` the largest of the instances' median
peaks.

With ``--trace 1`` the same solves run, then one traced sweep of the first
instance (``worker.py trace``) gives the per-layer metrics; spans are written
to ``perfbench/out/``.

stdout: one JSON record (context, instances, references), then the result
line ``{"correct", "attempted", "failed", "metrics"}``.  Progress and errors
go to stderr.  Exit code 0 when a result was printed; 1 when an instance had
no valid solve or the trace was rejected; 2 on bad arguments or when the
checkout has no package to measure.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKER = HERE / "worker.py"

# Why each workload was chosen is in BENCHMARK.json.  Sizes are cut from the
# ROADMAP baselines (cycle n=2000, rr3 n=100, grid 4x10, 6-10 s each) so that
# a run repeats each solve many times; every workload still spends its time
# in the layer it was chosen for (at n=400 the cycle's Condition and
# evaluation take 0.17 s of its 0.2 s sweep).
WORKLOADS = {
    "cycle-sweep": {
        "spec": {"family": "cycle", "n": 400, "model": "ising", "coupling": 0.5, "field_strength": 0.1},
        "instances": 1,
        "eps": 0.1,
        "reference": "transfer",
    },
    "rr3-deep": {
        "spec": {"family": "random_regular", "n": 40, "degree": 3, "model": "ising", "coupling": 0.3, "field_strength": 0.1},
        # The time of a sweep follows its node count, and total nodes spread
        # by 8.7% (quartiles over median, seeds 11-30) between sets of eight
        # graphs of this size, so each run solves sixteen to keep seeds
        # comparable.
        "instances": 16,
        "eps": 0.1,
        "reference": "elimination",
    },
    "grid-strip": {
        "spec": {"family": "grid", "rows": 4, "cols": 6, "model": "ising", "coupling": 0.2, "field_strength": 0.1},
        "instances": 1,
        "eps": 0.1,
        "reference": "elimination",
    },
}

# Which end-to-end metric each per-layer metric should move, and on which
# workloads; written with every traced result.
LAYER_TARGETS = {
    "spinz.import_s": ("setup_s", "all"),
    "generate.load_s": ("setup_s", "cycle-sweep"),
    "core.scalars_s": ("solve_s", "all (control, expected near 0)"),
    "partition.depth": ("marginals_per_s", "rr3-deep, grid-strip"),
    "partition.vertices": (None, "all"),
    "partition.vertex_ms_p50": ("marginals_per_s", "cycle-sweep"),
    "partition.vertex_ms_tail": ("marginals_per_s", "cycle-sweep"),
    "partition.other_s": ("marginals_per_s", "all"),
    "partition.pool_overhead_s": ("solve_s for CLI users", "all"),
    "sawtree.condition_s": ("marginals_per_s", "cycle-sweep"),
    "sawtree.build_s": ("marginals_per_s", "rr3-deep, grid-strip"),
    "sawtree.nodes": ("marginals_per_s", "rr3-deep, grid-strip"),
    "sawtree.ns_per_node": ("marginals_per_s", "rr3-deep, grid-strip"),
    "sawtree.max_tree_nodes": ("peak_rss_mb", "rr3-deep"),
    "sawtree.cycle_pinned_frac": ("marginals_per_s via nodes", "grid-strip vs rr3-deep"),
    "sawtree.cond_pinned_frac": ("marginals_per_s via nodes", "grid-strip vs rr3-deep"),
    "sawtree.frontier_frac": ("marginals_per_s via nodes", "grid-strip vs rr3-deep"),
    "marginal.eval_s": ("marginals_per_s", "cycle-sweep, rr3-deep, grid-strip"),
    "marginal.ns_per_node": ("marginals_per_s", "cycle-sweep, rr3-deep, grid-strip"),
    "cli.render_s": ("solve_s", "cycle-sweep"),
    "trace.overhead_s": (None, "all"),
}

# Time of one worker.calibration_s on the host the metrics are scaled to:
# about its median on an idle core of a 2-core Xeon virtual machine.
REFERENCE_CALIBRATION_S = 0.04

# A run must end within 180 s: a solve takes about a second, a traced sweep
# a few, and no new solve starts once SOLVE_CUTOFF_S have passed.
WORKER_TIMEOUT_S = 60.0
SOLVE_CUTOFF_S = 90.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def why(name: str) -> str:
    """The reason BENCHMARK.json gives for a workload."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        listed = json.load(handle)["workloads"]
    return next(w["why"] for w in listed if w["name"] == name)


def run_context() -> dict:
    """Versions and machine facts to read a result against."""
    import numpy

    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((ln.split(":", 1)[1].strip() for ln in handle if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30,
            )
            commit = done.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "git_commit": commit,
    }


def call_worker(*args: str) -> tuple[dict | None, str]:
    """Run worker.py with ``args``; its JSON result, or None and the reason."""
    try:
        done = subprocess.run(
            [sys.executable, str(WORKER), *args],
            capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return None, f"timed out after {WORKER_TIMEOUT_S} s"
    if done.returncode != 0:
        lines = done.stderr.strip().splitlines()
        return None, f"exit {done.returncode}: {lines[-1] if lines else ''}"
    try:
        return json.loads(done.stdout.splitlines()[-1]), ""
    except (IndexError, ValueError):
        return None, "no JSON result on stdout"


def same_bits(a: float, b: float) -> bool:
    return float(a).hex() == float(b).hex()


def prepare(workload: dict, seed: int) -> list[dict]:
    """Write the workload's instances for ``seed`` and their exact log Z."""
    import spinz

    import reference

    OUT.mkdir(exist_ok=True)
    count = workload["instances"]
    prepared = []
    for i in range(count):
        spec = spinz.GenSpec(**workload["spec"], seed=seed * count + i)
        path = OUT / f"{spec.family}-{spec.seed}.json"
        spinz.save_system(spinz.generate(spec), path)
        inst = reference.read_instance(path)
        if workload["reference"] == "transfer":
            exact = reference.cycle_log_partition(inst)
        else:
            exact = reference.elimination_log_partition(inst)
        prepared.append(
            {
                "spec": dataclasses.asdict(spec),
                "path": str(path),
                "sha256": hashlib.sha256(path.read_bytes()).hexdigest(),
                "n": inst.n,
                "reference": workload["reference"],
                "exact_log_z": exact,
                "log_z_hat": None,
            }
        )
    return prepared


def check(result: dict | None, why: str, inst: dict, eps: float) -> str:
    """Empty when the estimate is a valid answer for ``inst``; else why not."""
    if result is None:
        return why
    value = result["log_z_hat"]
    if not math.isfinite(value):
        return f"log_z_hat is not finite: {value}"
    if abs(value - inst["exact_log_z"]) > eps:
        return f"|log_z_hat - exact| = {abs(value - inst['exact_log_z'])} > eps = {eps}"
    if inst["log_z_hat"] is None:
        inst["log_z_hat"] = value
    elif not same_bits(value, inst["log_z_hat"]):
        return f"log_z_hat {value!r} differs from an earlier run's {inst['log_z_hat']!r}"
    return ""


def measure(instances: list[dict], eps: float, seconds: float) -> tuple[list[list[dict]], int, int]:
    """Solve the instances in turn until ``seconds`` have passed and each
    was tried at least once; the valid results of each instance, with the
    counts attempted and failed."""
    samples: list[list[dict]] = [[] for _ in instances]
    attempted = failed = 0
    started = time.perf_counter()
    while True:
        for inst, solved in zip(instances, samples):
            result, why = call_worker("solve", str(ROOT), inst["path"], repr(eps))
            if result is not None and not same_bits(result["rendered_log_z_hat"], result["log_z_hat"]):
                result, why = None, "rendered log_z_hat differs from the report's"
            attempted += 1
            problem = check(result, why, inst, eps)
            if problem:
                failed += 1
                print(f"failed: {inst['path']}: {problem}", file=sys.stderr)
            else:
                solved.append(result)
            elapsed = time.perf_counter() - started
            if attempted >= len(instances) and elapsed >= min(seconds, SOLVE_CUTOFF_S):
                return samples, attempted, failed


def step_times(r: dict, scaled: bool) -> dict:
    """Set-up, sweep and solve time of one solve, raw or scaled to the
    reference host by the calibrations that bracket each step."""
    before, between, after = r["calibration_s"]
    setup_scale = sweep_scale = 1.0
    if scaled:
        setup_scale = 2 * REFERENCE_CALIBRATION_S / (before + between)
        sweep_scale = 2 * REFERENCE_CALIBRATION_S / (between + after)
    setup = r["setup_s"] * setup_scale
    sweep = r["fptas_s"] * sweep_scale
    return {"setup_s": setup, "fptas_s": sweep, "solve_s": setup + sweep + r["render_s"] * sweep_scale}


def end_to_end(samples: list[list[dict]]) -> tuple[dict, dict]:
    """The end-to-end metrics scaled to the reference host, and the same
    statistics of the raw times."""

    def stats(scaled: bool) -> dict:
        times = [[step_times(r, scaled) for r in runs] for runs in samples]
        return {
            "solve_s": statistics.fmean(statistics.median(t["solve_s"] for t in ts) for ts in times),
            "setup_s": statistics.median(t["setup_s"] for ts in times for t in ts),
            "marginals_per_s": sum(runs[0]["n"] for runs in samples)
            / sum(statistics.median(t["fptas_s"] for t in ts) for ts in times),
            "peak_rss_mb": max(statistics.median(r["peak_rss_mb"] for r in runs) for runs in samples),
        }

    scaled = stats(True)
    raw = stats(False)
    raw["calibration_s"] = statistics.median(c for runs in samples for r in runs for c in r["calibration_s"])
    units = {"solve_s": "s", "setup_s": "s", "marginals_per_s": "1/s", "peak_rss_mb": "MB"}
    return {name: {"value": scaled[name], "unit": unit} for name, unit in units.items()}, raw


def traced(inst: dict, eps: float, seed: int, workload: str, runs: list[dict]) -> tuple[dict | None, str]:
    """Per-layer metrics from one traced sweep of ``inst``; None and the
    reason when the trace does not reproduce the untraced estimate."""
    spans = OUT / f"spans-{workload}-{seed}.jsonl"
    result, why = call_worker("trace", str(ROOT), inst["path"], repr(eps), str(spans))
    problem = check(result, why, inst, eps)
    if problem:
        return None, problem
    for key in ("serial_log_z_hat", "pool_log_z_hat"):
        if not same_bits(result[key], result["log_z_hat"]):
            return None, f"{key} {result[key]!r} differs from the traced {result['log_z_hat']!r}"
    if not result["render_matches"]:
        return None, "traced report renders differently from fptas_log_partition's"
    untraced = statistics.median(step_times(r, False)["solve_s"] for r in runs)
    metrics = dict(result["metrics"])
    metrics["trace.overhead_s"] = {"value": result["traced_total_s"] - untraced, "unit": "s"}
    print(f"trace: {result['spans']} spans of run {result['run_id']} in {spans}", file=sys.stderr)
    return metrics, ""


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "spinz" / "__init__.py").is_file():
        print(f"error: no package at {ROOT / 'src' / 'spinz'}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    workload = WORKLOADS[args.workload]
    eps = workload["eps"]

    instances = prepare(workload, args.seed)
    samples, attempted, failed = measure(instances, eps, args.seconds)
    if not all(samples):
        print("error: an instance has no valid solve", file=sys.stderr)
        return 1
    metrics, measured = end_to_end(samples)
    if args.trace:
        attempted += 1
        metrics, problem = traced(instances[0], eps, args.seed, args.workload, samples[0])
        if metrics is None:
            print(f"error: trace rejected: {problem}", file=sys.stderr)
            return 1

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "why": why(args.workload),
        "eps": eps,
        "solves": [len(runs) for runs in samples],
        "instances": [{k: v for k, v in inst.items() if k != "path"} for inst in instances],
        "measured": measured,
        "reference_calibration_s": REFERENCE_CALIBRATION_S,
        "context": run_context(),
    }
    if args.trace:
        record["layer_targets"] = {
            name: {"moves": moves, "on": on} for name, (moves, on) in LAYER_TARGETS.items()
        }
    print(json.dumps(record))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
