"""The benchmark's own checks. Run from the root of a source checkout:

    python3 perfbench/selfcheck.py

* the same seed regenerates identical inputs, and another seed different ones;
* the excluded rungs in ``plan.json`` carry the estimate the preflight computes;
* smoke size of each workload (its first and last task), run untraced and
  traced, passes its output checks with identical outputs, within a time limit;
* each known defect in ``plan.json`` still reproduces (once it is fixed,
  the check fails and names what the workloads should then cover);
* ``run.py`` prints a correct result for a one-cycle traced run;
* ``run.py`` exits non-zero without a result when the package source is absent.

Exits 1 and lists the failures if any check fails. Everything it writes
stays under ``.perfbench_out/``.
"""

import json
import shutil
import subprocess
import sys
import time

import run

SMOKE_LIMIT_S = 60.0


def main():
    run._pin_threads()
    if run._import_package() is None:
        print(f"error: no constrained_recovery package under {run.SRC}", file=sys.stderr)
        return 2
    import layertrace
    import workloads

    failures = []
    work = run.OUT / "selfcheck"

    for name in workloads.WORKLOADS:
        first = workloads.build(name, 11, work / "a").digest
        again = workloads.build(name, 11, work / "b").digest
        other = workloads.build(name, 12, work / "c").digest
        if first != again:
            failures.append(f"{name}: seed 11 regenerated different inputs")
        if first == other:
            failures.append(f"{name}: seeds 11 and 12 gave identical inputs")

    plan = json.loads((run.HERE / "plan.json").read_text())
    for rung in plan["excluded_rungs"]:
        est = rung["estimate"]
        args = [tuple(a) if isinstance(a, list) else a for a in est["args"]]
        computed = getattr(workloads, est["fn"])(*args)
        if computed != rung["bytes_estimate"]:
            failures.append(f"excluded rung {rung['rung']!r}: listed {rung['bytes_estimate']} B, "
                            f"computed {computed} B")

    for name in workloads.WORKLOADS:
        tasks = workloads.build(name, 11, work / "smoke").tasks
        tasks = [tasks[0], tasks[-1]]
        started = time.perf_counter()
        tracer = layertrace.Tracer()
        plain, traced = run._run_pair_pass(tasks, tracer, traced_first=0)
        elapsed = time.perf_counter() - started
        misses = [m for p in (plain, traced) for miss in p["misses"] for m in miss]
        if misses:
            failures.append(f"{name} smoke: {misses}")
        if json.dumps(plain["outputs"], sort_keys=True) != json.dumps(traced["outputs"], sort_keys=True):
            failures.append(f"{name} smoke: traced outputs differ from untraced")
        if not tracer.spans:
            failures.append(f"{name} smoke: no spans recorded")
        if elapsed > SMOKE_LIMIT_S:
            failures.append(f"{name} smoke: {elapsed:.1f} s > {SMOKE_LIMIT_S:.0f} s")

    from constrained_recovery import algebra, fermion

    for defect in plan["known_defects"]:
        rep = defect["reproducer"]
        region = fermion.physical_algebra(fermion.FermionSystem(rep["modes"]), rep["majoranas"])
        try:
            algebra.block_structure(region, seed=rep["seed"])
        except ValueError:
            print(f"known defect still present: {defect['what']}")
        else:
            failures.append(f"known defect no longer reproduces; {defect['when_fixed']}")

    cmd = [sys.executable, "perfbench/run.py", "--workload", "fidelity-small", "--seed", "3",
           "--seconds", "1", "--trace", "1"]
    got = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, timeout=180)
    result = json.loads(got.stdout.splitlines()[-1]) if got.returncode == 0 and got.stdout else None
    declared = [m["name"] for m in json.loads((run.ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    if result is None or not result["correct"]:
        failures.append(f"traced run: exit {got.returncode}, result {result}")
    elif sorted(result["metrics"]) != sorted(declared):
        failures.append("traced run: metrics differ from the per_layer list of BENCHMARK.json")
    elif not all(result["metrics"][f"{n}.self_s"]["value"] > 0 for n in layertrace.SPAN_NAMES):
        failures.append("traced run: a layer was never entered")

    bare = work / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    cmd[1] = str(bare / "perfbench" / "run.py")
    got = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=180)
    if got.returncode == 0 or got.stdout.strip():
        failures.append(f"run without sources: exit {got.returncode}, stdout {got.stdout!r}")

    for failure in failures:
        print(f"FAIL {failure}")
    print("selfcheck: " + ("ok" if not failures else f"{len(failures)} failure(s)"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
