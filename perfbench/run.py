"""Benchmark of constrained-recovery, one workload per process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout: the package is imported from the
checkout's ``src`` directory, never from an installed copy, and the command
fails with exit code 2 when that directory is missing.

One caller runs the workload's task list (a pass) back to back, a closed
loop with BLAS pinned to one thread, for about ``--seconds`` seconds.
Every task output is checked against ``reference.json``; a task that
raises, ends a solve other than optimal, fails a duality or misses its
reference counts as failed. The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``:

* ``--trace 0``: the end-to-end metrics, measured untraced.
* ``--trace 1``: after a warm-up pass, each task runs untraced and traced
  back to back; the per-layer metrics (median over traced passes) come
  from spans recorded around the package's public functions, plus the
  tracing overhead (traced minus untraced task seconds of a pass, mean
  over the pairs).

Provenance, per-task records (iterations and final gap of every solve),
the tail percentile and the spans are written under ``.perfbench_out/``.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
BLAS_THREADS = 1
SETUP_REPEATS = 5
HARD_LIMIT_S = 150.0
TAIL_MIN_BEYOND = 10


def _parse(argv):
    parser = argparse.ArgumentParser(description="constrained-recovery benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import and generate the inputs, print their digest, exit")
    return parser.parse_args(argv)


def _pin_threads():
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def _import_package():
    """Import the package from the checkout's ``src``; None if absent."""
    if not (SRC / "constrained_recovery" / "__init__.py").is_file():
        return None
    sys.path[:0] = [str(SRC), str(HERE)]
    import constrained_recovery

    if Path(constrained_recovery.__file__).resolve().parent != SRC / "constrained_recovery":
        return None
    return constrained_recovery


def _measure_setup(args):
    """Set-up time of a fresh process, from its start until its inputs are
    generated, and the digest of the inputs it generated."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    started = time.perf_counter()
    child = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - started
        child.stdout.read()
        child.wait(timeout=60)
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
        child.stdout.close()
    if child.returncode != 0 or not line.startswith("ready "):
        raise RuntimeError(f"set-up process failed with exit code {child.returncode}")
    return elapsed, line.split()[1]


def _new_record():
    return {"tasks": [], "times": [], "outputs": [], "misses": []}


def _run_task(index, task, record):
    """Run one task and append its seconds, output and misses to ``record``."""
    t0 = time.perf_counter()
    try:
        out = task.run()
        miss = task.check(out)
    except Exception as exc:  # a failed task is counted, the loop goes on
        out = {"error": f"{type(exc).__name__}: {exc}"}
        miss = [out["error"]]
    record["times"].append(time.perf_counter() - t0)
    record["tasks"].append(index)
    record["outputs"].append(out)
    record["misses"].append(miss)


def _run_pass(tasks):
    """Run every task once, back to back."""
    record = _new_record()
    started = time.perf_counter()
    for index, task in enumerate(tasks):
        _run_task(index, task, record)
    record["wall"] = time.perf_counter() - started
    return record


def _run_pair_pass(tasks, tracer, traced_first):
    """Run every task untraced and traced back to back, so that both runs of
    a task see the same machine speed; which goes first alternates from task
    to task. Returns the untraced and the traced pass."""
    plain, traced = _new_record(), _new_record()
    for index, task in enumerate(tasks):
        tracer.task = index
        order = (traced, plain) if (index + traced_first) % 2 else (plain, traced)
        for record in order:
            if record is traced:
                with tracer:
                    _run_task(index, task, record)
            else:
                _run_task(index, task, record)
    for record in (plain, traced):
        record["wall"] = sum(record["times"])
    return plain, traced


def _provenance(args, n_tasks):
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = {"name": "unknown", "version": None}
    commit = None
    if (ROOT / ".git").exists():
        got = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = got.stdout.strip() or None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tasks_per_pass": n_tasks,
        "nproc": len(os.sched_getaffinity(0)),
        "blas": dict(blas, threads=BLAS_THREADS),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "git_commit": commit,
    }


def _tail(times):
    """Highest percentile with at least ten tasks beyond it, or None."""
    n = len(times)
    if n < 2 * TAIL_MIN_BEYOND:
        return None
    ordered = sorted(times)
    return {"value_s": ordered[n - TAIL_MIN_BEYOND - 1],
            "percentile": 100.0 * (n - TAIL_MIN_BEYOND) / n, "samples": n}


def main(argv=None):
    args = _parse(argv)
    _pin_threads()
    if _import_package() is None:
        print(f"error: no constrained_recovery package under {SRC}", file=sys.stderr)
        return 2
    import layertrace as trace
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {', '.join(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    work_dir = OUT / f"{args.workload}-seed{args.seed}"
    if args.setup_only:
        inputs = workloads.build(args.workload, args.seed, work_dir)
        print(f"ready {inputs.digest}", flush=True)
        return 0

    inputs = workloads.build(args.workload, args.seed, work_dir)
    tasks = inputs.tasks

    plain, traced, spans, warm = [], [], [], []
    if args.trace:
        # one fresh set-up checks the digest, and an untraced warm-up pass
        # runs every task once, so that no pair holds a task's first run
        setups = [_measure_setup(args)]
        warm.append(_run_pass(tasks))
    else:
        # set-ups are spread over the run, one before each pass, so that
        # their median samples the machine's speed at several moments
        setups = []
    started = time.perf_counter()
    while True:
        if not args.trace:
            setups.append(_measure_setup(args))
        cycle_start = time.perf_counter()
        if args.trace:
            # two pair passes, so that each task runs once in each order
            for traced_first in (0, 1):
                tracer = trace.Tracer()
                pair = _run_pair_pass(tasks, tracer, traced_first)
                plain.append(pair[0])
                traced.append(pair[1])
                spans.append(tracer.spans)
        else:
            plain.append(_run_pass(tasks))
        elapsed = time.perf_counter() - started
        cycle = time.perf_counter() - cycle_start
        if elapsed + cycle > min(args.seconds, HARD_LIMIT_S):
            break

    while not args.trace and len(setups) < SETUP_REPEATS:
        setups.append(_measure_setup(args))
    setup_times = [t for t, _ in setups]
    records = warm + plain + traced
    first_output = {}
    outputs_identical = True
    for record in records:
        for index, out in zip(record["tasks"], record["outputs"]):
            text = json.dumps(out, sort_keys=True)
            outputs_identical = outputs_identical and first_output.setdefault(index, text) == text
    inputs_identical = all(d == inputs.digest for _, d in setups)
    attempted = sum(len(r["times"]) for r in records) + len(inputs.refused)
    failed = sum(bool(m) for r in records for m in r["misses"]) + len(inputs.refused)
    times = [t for p in plain for t in p["times"]]

    if args.trace:
        layers = [trace.layer_metrics(s) for s in spans]
        metrics = {key: statistics.median(layer[key] for layer in layers) for key in layers[0]}
        overheads = [t["wall"] - p["wall"] for p, t in zip(plain, traced)]
        # the mean over an even number of pairs cancels any bias of the order
        metrics["trace.overhead_s"] = statistics.fmean(overheads)
        units = {key: trace.unit(key) for key in metrics}
    else:
        metrics = {
            "setup_s": statistics.median(setup_times),
            # the mean over passes: the machine's speed here flips between two
            # levels within seconds, and a median of a few passes jumps between them
            "wall_s": statistics.fmean(p["wall"] for p in plain),
            "task_p50_s": statistics.median(times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = {"setup_s": "s", "wall_s": "s", "task_p50_s": "s", "peak_rss_mb": "MB"}

    misses_by_task = {tasks[i].name: m for r in records for i, m in zip(r["tasks"], r["misses"]) if m}
    detail = {
        "provenance": _provenance(args, len(tasks)),
        "passes": {"plain": len(plain), "traced": len(traced), "warm_up": len(warm)},
        "setup_s": setup_times,
        "pass_wall_s": [p["wall"] for p in plain],
        "traced_pass_wall_s": [p["wall"] for p in traced],
        "task_tail": _tail(times),
        "fail_frac": failed / attempted,
        "refused_by_preflight": inputs.refused,
        "inputs_identical": inputs_identical,
        "outputs_identical": outputs_identical,
        "misses": misses_by_task,
        "tasks": [{"name": t.name, "bytes_estimate": t.bytes_estimate, "output": o}
                  for t, o in zip(tasks, plain[0]["outputs"])],
    }
    if args.trace:
        detail["trace_overhead"] = {"pairs": len(traced), "per_pair_s": overheads}
        detail["solves"] = trace.solve_records(spans[-1])
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    OUT.mkdir(exist_ok=True)
    (OUT / f"{stem}.json").write_text(json.dumps(detail, indent=1, default=str) + "\n")
    if args.trace:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(
            [{"name": n, "start": s, "end": e, "parent": p, "task": t} for n, s, e, p, t, _ in spans[-1]]
        ) + "\n")

    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    for name, miss in misses_by_task.items():
        print(f"miss {name}: {'; '.join(miss)}")
    result = {
        "correct": failed == 0 and outputs_identical and inputs_identical,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
