"""
The poisoning duality on a padded ring code, 3 to 8 modes
=========================================================

The bundled ``poisoning`` scenario asks for the recovery and environment
fidelities of a two-dimensional Majorana ring code on three modes under
single-Majorana poisoning; both equal 1/sqrt 2.  Padding the ring with
the stabilizer pairs [7, 8], [9, 10], ... keeps the code two-dimensional
while the register grows to d = 2^modes.  A fidelity SDP over the full
register would optimize a process matrix of (d * d)^2 entries: at 5 modes
its row matrix alone is 8 GiB.  The linked states occupy only a few
dimensions, and each side is solved on those supports (4 to 4 on the
recovery side, 2 to 2 on the environment side), whatever d is.

Each rung runs the duality twice: unconstrained, and with the recovery
restricted to p . r . q for the parity dephasing p = q.  The second
recovery side is solved on the supports inside each parity sector, one
block per pair of sectors; over the full register its row matrix would
take 2 GiB at 5 modes.  Both sides of both dualities equal 1/sqrt 2.

Each rung runs in its own process through ``run_scenario``, so that the
peak RSS printed is that rung's.  CI runs this script under a 2 GiB
address-space cap.
"""

import json
import resource
import subprocess
import sys
import time

from constrained_recovery import scenario


def padded_poisoning(modes):
    """The poisoning scenario on ``modes`` modes: its duality task, then
    the same under parity dephasing on both sides of the recovery."""
    doc = json.loads(scenario.bundled_scenario_text("poisoning"))
    doc["system"]["modes"] = modes
    doc["codes"]["ring"]["pairing"] += [[2 * k + 1, 2 * k + 2] for k in range(3, modes)]
    doc["channels"]["dephase"] = {"kind": "parity_dephasing"}
    (duality,) = [t for t in doc["tasks"] if t["variant"] == "duality"]
    physical = {"kind": "physical", "p": "dephase", "q": "dephase"}
    doc["tasks"] = [duality, dict(duality, constraint=physical)]
    return doc


def run_rung(modes):
    # the package loads jsonschema on the first scenario load; importing it
    # here keeps that one-off import (about 0.09 s) out of the rung's wall time
    import jsonschema  # noqa: F401

    start = time.perf_counter()
    report = scenario.run_scenario(scenario.load_scenario(padded_poisoning(modes)))
    wall = time.perf_counter() - start
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values = []
    for task, name in zip(report["tasks"], ("unconstrained", "physical")):
        out = task["output"]
        if not out.get("passed"):
            sys.exit(f"{modes} modes: the {name} duality did not pass: {out}")
        for side in ("recovery", "environment"):
            if abs(out[f"{side}_value"] - 0.5 ** 0.5) > 1e-7:
                sys.exit(f"{modes} modes: the {name} {side} value is not 1/sqrt 2 "
                         f"within 1e-7: {out}")
            values.append(f"{out[f'{side}_value']:.10f}")
    print(f"{modes:>5}  {2 ** modes:>4}  {'  '.join(values)}  {wall:6.2f} s  "
          f"{peak_mb:5.0f} MB", flush=True)


if __name__ == "__main__":
    if len(sys.argv) > 1:
        run_rung(int(sys.argv[1]))
    else:
        print("                  unconstrained               physical", flush=True)
        print("modes     d  recovery      environment   recovery      environment   "
              "wall       peak RSS", flush=True)
        for modes in range(3, 9):
            subprocess.run([sys.executable, __file__, str(modes)], check=True)
