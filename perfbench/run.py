"""vdwplate benchmark: one workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ./src.
Workloads: production_sweep, dielectric_ladder, analytic_lab (see
perfbench/README.md).  With --trace 0 the run times passes of the workload
untraced and reports the end-to-end metrics of BENCHMARK.json; with
--trace 1 it alternates untraced and traced passes and reports the per-layer
metrics.  The last line of stdout is the JSON result; a fuller record,
environment included, goes to .perfbench_results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

import numpy
import scipy

import warmup
from checks import Checks
from tracer import SERIALIZERS, NameStats, Tracer, layer_busy_ns, per_name, pool_usage
from workloads import WORKLOADS, OpTimes

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_SAMPLES = 3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


# ---------------------------------------------------------------------------
# Environment record
# ---------------------------------------------------------------------------

def git_head(root: str) -> str | None:
    """Commit of a checkout with a .git directory, read without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return None


def source_digest(src: str) -> str:
    h = hashlib.sha256()
    pkg = os.path.join(src, "vdwplate")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def environment(root: str, src: str) -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": git_head(root),
        "source_sha256": source_digest(src),
        "machine": platform.machine(),
    }


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

def summarize(samples) -> dict:
    """Median, and the highest percentile with at least 10 samples beyond it."""
    xs = sorted(samples)
    n = len(xs)
    out = {"count": n, "median": statistics.median(xs) if xs else None}
    if n > 10:
        out["tail_pct"] = 100.0 * (n - 10) / n
        out["tail"] = xs[n - 11]
    return out


def peak_rss_mb() -> float:
    """Largest resident set of this process and of its reaped children (pool
    workers, set-up probes), in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------

def time_setup(root: str, src: str, checks) -> list:
    """Wall time of fresh interpreters that import vdwplate and warm up."""
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, os.path.join(HERE, "warmup.py")],
                              cwd=root, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True)
        samples.append(time.perf_counter() - start)
        if not checks.check(proc.returncode == 0,
                            f"set-up probe exited {proc.returncode}: {proc.stderr[-400:]}"):
            break
    return samples


def end_to_end_metrics(walls, setup, accuracy) -> dict:
    return {"wall_s": statistics.median(walls) if walls else 0.0,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": peak_rss_mb(),
            "acc_err": accuracy.get("acc_err", 0.0)}


# ---------------------------------------------------------------------------
# Per-layer metrics from the spans of one traced pass
# ---------------------------------------------------------------------------

ACCURACY_METRICS = {
    "asymptotics.fit_power_law.c3_abs_err": "c3_abs_err",
    "asymptotics.fit_power_law.c5_abs_err": "c5_abs_err",
    "eigensolver.electron_plate_ground.rel_err": "eplate_rel_err",
    "spectra.helium_variational_energy.rel_err": "helium_rel_err",
}

CALLS_AND_BUSY = (
    "eigensolver.assemble_hydrogen_plate", "eigensolver.electron_plate_ground",
    "eigensolver.feshbach_fixed_point", "multipole.mirror_energy_expectation",
    "multipole.orientation_coefficient", "spectra.helium_variational_energy",
    "spectra.hvz_gap", "potential.interaction_energy", "model.validate_molecule",
)


def layer_metrics(spans, traced_wall: float, untraced_wall: float) -> dict:
    stats = per_name(spans)

    def st(name):
        return stats.get(name, NameStats())

    out = {}
    cli = st("cli.main")
    out["cli.main.calls"] = cli.calls
    out["cli.main.self_s"] = cli.self_ns / 1e9

    sweep = st("asymptotics.sweep_interaction_energy")
    out["asymptotics.sweep_interaction_energy.busy_s"] = sweep.busy_ns / 1e9
    out["asymptotics.sweep_interaction_energy.self_s"] = sweep.self_ns / 1e9
    util, wait = pool_usage(spans)
    out["asymptotics.pool.worker_util"] = util
    out["asymptotics.pool.wait_s"] = wait
    for name in ("fit_power_law", "dielectric_scaling"):
        out[f"asymptotics.{name}.busy_s"] = st(f"asymptotics.{name}").busy_ns / 1e9
    out["asymptotics.serialize.busy_s"] = sum(st(n).busy_ns for n in SERIALIZERS) / 1e9
    out["asymptotics.serialize.bytes"] = sum(st(n).attrs.get("bytes", 0) for n in SERIALIZERS)

    eig = st("eigensolver.lowest_eigenpair")
    out["eigensolver.lowest_eigenpair.calls"] = eig.calls
    out["eigensolver.lowest_eigenpair.busy_s"] = eig.busy_ns / 1e9
    for key in ("iterations", "failed"):
        out[f"eigensolver.lowest_eigenpair.{key}"] = eig.attrs.get(key, 0)
    out["eigensolver.lowest_eigenpair.dim_sum"] = eig.attrs.get("dim", 0)
    out["eigensolver.lowest_eigenpair.nnz_sum"] = eig.attrs.get("nnz", 0)
    out["eigensolver.lowest_eigenpair.residual_max"] = eig.maxima.get("residual", 0.0)
    w_rows = sweep.attrs.get("rows", 0)
    out["eigensolver.solves_per_w_row"] = eig.calls / w_rows if w_rows else 0.0

    for name in CALLS_AND_BUSY:
        out[f"{name}.calls"] = st(name).calls
        out[f"{name}.busy_s"] = st(name).busy_ns / 1e9
    by_key = {s.key: s for s in spans}
    out["eigensolver.electron_plate_ground.iterations"] = sum(
        s.attrs.get("iterations", 0) for s in spans
        if s.name == "eigensolver.lowest_eigenpair" and s.parent in by_key
        and by_key[s.parent].name == "eigensolver.electron_plate_ground")
    out["eigensolver.feshbach_matrix.calls"] = st("eigensolver.feshbach_matrix").calls

    out["trace.eigensolver_cli_share"] = (
        (layer_busy_ns(spans, "eigensolver.") + cli.self_ns) / 1e9 / traced_wall)
    out["trace.wall_s"] = traced_wall
    out["trace.overhead_ratio"] = traced_wall / untraced_wall
    return out


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------

def _one_pass(workload, ops, checks):
    """(wall seconds, accuracy dict) of one pass, or None if it raised."""
    start = time.perf_counter()
    try:
        out = workload.run_pass(ops)
    except Exception as exc:
        traceback.print_exc(file=sys.stderr)
        checks.fail(f"pass raised {type(exc).__name__}: {exc}")
        return None
    wall = time.perf_counter() - start
    try:
        accuracy = workload.check(out, checks)
    except Exception as exc:
        traceback.print_exc(file=sys.stderr)
        checks.fail(f"check raised {type(exc).__name__}: {exc}")
        return None
    return wall, accuracy


def run_untraced(workload, seconds, checks, ops):
    """Whole passes until the next one would end past `seconds` (at least one)."""
    walls, accuracy = [], {}
    begin = time.perf_counter()
    while True:
        res = _one_pass(workload, ops, checks)
        if res is None:
            break
        walls.append(res[0])
        accuracy = res[1]
        if time.perf_counter() - begin + walls[-1] > seconds:
            break
    return walls, accuracy


def run_traced(workload, seconds, checks, ops, spool_dir):
    """Pairs of an untraced and a traced pass; per-layer metrics averaged per pair."""
    per_pass, walls, accuracy = [], [], {}
    begin = time.perf_counter()
    while True:
        plain = _one_pass(workload, ops, checks)
        if plain is None:
            break
        walls.append(plain[0])
        tracer = Tracer(spool_dir)
        tracer.install()
        try:
            traced = _one_pass(workload, ops, checks)
        finally:
            tracer.uninstall()
        spans = tracer.collect()
        if traced is None:
            break
        accuracy = traced[1]
        per_pass.append(layer_metrics(spans, traced[0], plain[0]))
        if time.perf_counter() - begin + plain[0] + traced[0] > seconds:
            break
    if not per_pass:
        return {}, walls, accuracy
    merged = {k: statistics.fmean(m[k] for m in per_pass) for k in per_pass[0]}
    return merged, walls, accuracy


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    bench_path = os.path.join(root, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(src, "vdwplate", "__init__.py")):
        print(f"error: no vdwplate sources under {src}; run from the root of a "
              "checkout", file=sys.stderr)
        return 2
    with open(bench_path, encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    sys.path.insert(0, src)

    work_root = os.path.join(root, ".perfbench_work")
    os.makedirs(work_root, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root)
    checks = Checks()
    try:
        setup = time_setup(root, src, checks)
        start = time.perf_counter()
        warmup.warm_up()
        in_process_setup = time.perf_counter() - start
        nproc = len(os.sched_getaffinity(0))
        workload = WORKLOADS[args.workload](args.seed, run_dir, nproc)
        ops = OpTimes()
        if args.trace:
            computed, walls, accuracy = run_traced(workload, args.seconds, checks,
                                                   ops, run_dir)
            for metric, key in ACCURACY_METRICS.items():
                computed[metric] = accuracy.get(key, 0.0)
        else:
            walls, accuracy = run_untraced(workload, args.seconds, checks, ops)
            computed = end_to_end_metrics(walls, setup, accuracy)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    metrics = {}
    for entry in declared:
        if entry["name"] not in computed:
            checks.fail(f"metric {entry['name']} not measured")
            continue
        metrics[entry["name"]] = {"value": computed[entry["name"]], "unit": entry["unit"]}

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(root, src),
        "untraced_pass_wall_s": summarize(walls),
        "setup_s": {"fresh_interpreter": setup, "in_process": in_process_setup},
        "ops_s": {kind: summarize(xs) for kind, xs in sorted(ops.samples.items())},
        "accuracy": accuracy, "failures": checks.failures, "metrics": metrics,
    }
    results_dir = os.path.join(root, ".perfbench_results")
    os.makedirs(results_dir, exist_ok=True)
    with open(os.path.join(results_dir, f"{args.workload}-seed{args.seed}"
                           f"-trace{args.trace}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
    for failure in checks.failures:
        print(f"check failed: {failure}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{name} = {m['value']!r} {m['unit']}", file=sys.stderr)

    print(json.dumps({"correct": checks.failed == 0, "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
