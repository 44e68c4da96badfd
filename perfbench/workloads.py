"""The benchmark's workloads: inputs generated from a seed, the task list of
one pass, and the check of every task output against ``reference.json``.

Every solve instance is drawn once from the fixed ``ANCHOR_SEED``; the
workload seed draws the frame it is posed in: unitaries on the input and
the outputs and a mixing of the Kraus operators, none of which changes the
optimal fidelity or a correctability verdict. So every seed poses different
matrices of the same shapes, and every fidelity has one reference value,
stored in ``reference.json`` (computed from the anchor instances at the
commit that added them). The ring scenarios draw their noise weights from
the workload seed; their verdicts and dimensions do not depend on them.
"""

import contextlib
import functools
import hashlib
import io
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from constrained_recovery import algebra as alg
from constrained_recovery import channels as ch
from constrained_recovery import cli, fermion, scenario
from constrained_recovery import recovery as rc

HERE = Path(__file__).resolve().parent
ANCHOR_SEED = 0
# agreement of every fidelity with its reference and of the two sides of a duality
TOL = 1e-5
CODE_FIDELITY_THRESHOLD = 1.0 - TOL
# share of the machine's available memory an instance's computed allocation may take
MEMORY_SHARE = 0.5


@functools.lru_cache(maxsize=1)
def reference():
    """Expected outputs stored with the benchmark (``reference.json``)."""
    return json.loads((HERE / "reference.json").read_text())


@dataclass
class Task:
    """One closed-loop request: ``run()`` returns a JSON-able output record,
    ``check(output)`` the list of its misses against the reference, and
    ``bytes_estimate`` is the computed allocation the preflight admitted."""

    name: str
    run: object
    check: object
    bytes_estimate: int


# ---------------------------------------------------------------------------
# memory preflight: computed allocations of one instance, in bytes


def choi_bytes(d_out, d_in):
    return (d_out * d_in) ** 2 * 16


def commutant_bytes(d):
    return d**4 * 16


def fidelity_rows_bytes(act_in, support, n_ops):
    """Dense constraint rows of one fidelity SDP, m * sum(n^2) * 16 B, with
    m = act_in^2 + 2 support^2 rows over blocks of n_ops and 2 support."""
    rows = act_in**2 + 2 * support**2
    return rows * (n_ops**2 + (2 * support) ** 2) * 16


def duality_bytes(d_in, shape_n, shape_m, ref, fixed_dim=None):
    """Choi matrices and the rows of both sides of a duality.

    ``shape_*`` is (output dim, Kraus count) and ``ref`` the rank of the
    input state. The fixed state on the recovery side has rank at most the
    target's Kraus count; on the environment side, the noise's output dim.
    """
    (out_n, k_n), (out_m, k_m) = shape_n, shape_m
    rec = fidelity_rows_bytes(out_n, min(k_m, out_m * ref), fixed_dim or out_n * out_m)
    env = fidelity_rows_bytes(k_m, min(out_n, k_n * ref), k_m * k_n)
    extra = commutant_bytes(out_n) if fixed_dim is not None else 0
    return rec + env + extra + choi_bytes(out_n, d_in) + choi_bytes(out_m, d_in)


def _kraus_count(spec, n_maj):
    kind = spec["kind"]
    if kind == "kraus":
        return len(spec["operators"])
    if kind == "monomials":
        return len(spec["terms"])
    if kind == "identity":
        return 1
    if kind == "geometric_noise":
        return 1 + n_maj * 2 ** (spec["max_support"] - 1)
    return 2


def _state_rank(doc, state, d):
    if state is None or state["kind"] != "code_mixed":
        return d
    code = doc["codes"][state["code"]]
    if code["kind"] == "majorana_ring":
        return 2 ** (len(code["unpaired"]) // 2)
    return len(code["isometry"][0])


def scenario_bytes(doc):
    """Choi of every channel, commutant of every algebra, the region algebra
    of every fermion-local check and the rows of every solve, from the
    scenario text alone."""
    n_maj = 2 * doc["system"]["modes"]
    d = 2 ** doc["system"]["modes"]
    channels = doc["channels"]
    total = choi_bytes(d, d) * len(channels) + commutant_bytes(d) * len(doc.get("algebras", {}))
    for task in doc["tasks"]:
        if task["task"] == "fidelity":
            shape_n = (d, _kraus_count(channels[task["noise"]], n_maj))
            shape_m = (d, _kraus_count(channels[task["target"]], n_maj))
            total += duality_bytes(d, shape_n, shape_m, _state_rank(doc, task.get("state"), d))
        elif task["variant"] == "fermion-local":
            total += 2 ** (len(task["region"]) - 1) * d * d * 16
    return total


# ---------------------------------------------------------------------------
# random instances


def random_kraus(rng, d_out, d_in, k):
    g = rng.normal(size=(d_out * k, d_in)) + 1j * rng.normal(size=(d_out * k, d_in))
    q, _ = np.linalg.qr(g)
    return [q[i * d_out:(i + 1) * d_out, :] for i in range(k)]


def random_unitary(rng, d):
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    ph = np.diagonal(r)
    return q * (ph / np.abs(ph))


def random_commuting_unitary(rng, c):
    """Random unitary commuting with the Hermitian involution ``c``."""
    w, v = np.linalg.eigh(c)
    u = np.zeros(v.shape, dtype=complex)
    for sign in (-1.0, 1.0):
        block = v[:, np.abs(w - sign) < 0.5]
        u += block @ random_unitary(rng, block.shape[1]) @ block.conj().T
    return u


def mix_kraus(rng, kraus):
    """Another Kraus representation of the same channel."""
    u = random_unitary(rng, len(kraus))
    return list(np.einsum("ab,bij->aij", u, np.stack(kraus)))


def random_density(rng, d):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_physical_channel(rng, c, k):
    """Random channel whose Kraus operators have definite parity under ``c``."""
    d = c.shape[0]
    while True:
        ops = []
        for _ in range(k):
            a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            sign = 1.0 if rng.random() < 0.5 else -1.0
            ops.append((a + sign * c @ a @ c) / 2.0)
        w, u = np.linalg.eigh(sum(e.conj().T @ e for e in ops))
        if w[0] > 1e-8 * w[-1]:
            root = u @ np.diag(w**-0.5) @ u.conj().T
            return [e @ root for e in ops]


def parity_matrix(modes):
    system = fermion.FermionSystem(modes)
    return np.asarray(fermion.parity_operator(system, tuple(range(1, 2 * modes + 1))).c)


def parity_dephasing(c):
    d = c.shape[0]
    return ch.Channel([np.eye(d) / np.sqrt(2), c / np.sqrt(2)])


# ---------------------------------------------------------------------------
# task kinds


def _duality_task(n, m, rho, constraint, expected):
    def run():
        rep = rc.verify_duality(n, m, rho, constraint, tol=TOL)
        sides = (rep.recovery, rep.environment)
        return {
            "recovery_value": rep.recovery.value,
            "environment_value": rep.environment.value,
            "difference": rep.difference,
            "passed": rep.passed,
            "status": [s.status for s in sides],
            "iterations": [s.iterations for s in sides],
            "duality_gap": [s.duality_gap for s in sides],
        }

    def check(out):
        misses = []
        if out["status"] != ["optimal", "optimal"]:
            misses.append(f"solve status {out['status']}")
        gap = abs(out["recovery_value"] - out["environment_value"])
        if not out["passed"] or gap > TOL:
            misses.append(f"recovery and environment values differ by {gap:.3e} > tol {TOL:.0e}")
        for side in ("recovery_value", "environment_value"):
            if abs(out[side] - expected) > TOL:
                misses.append(f"{side} {out[side]:.8f} != reference {expected:.8f} within {TOL:.0e}")
        return misses

    return run, check


def _code_task(code, kraus, expected_verdict, expected):
    """Optimal recovery fidelity on a code whose KL verdict must agree with it."""
    noise = ch.Channel(kraus)
    target = ch.identity_channel(code.physical_dim)
    rho = code.projector / code.logical_dim

    def run():
        res = rc.optimal_recovery_fidelity(noise, target, rho, tol=1e-8)
        return {
            "value": res.value,
            "status": res.status,
            "iterations": res.iterations,
            "duality_gap": res.duality_gap,
            "verdict": rc.kl_check(code, kraus).verdict,
        }

    def check(out):
        misses = []
        if out["status"] != "optimal":
            misses.append(f"solve status {out['status']}")
        if out["verdict"] != expected_verdict:
            misses.append(f"verdict {out['verdict']} != {expected_verdict}")
        if (out["value"] >= CODE_FIDELITY_THRESHOLD) != (out["verdict"] == "correctable"):
            misses.append(f"fidelity {out['value']:.8f} disagrees with verdict {out['verdict']}")
        if abs(out["value"] - expected) > TOL:
            misses.append(f"fidelity {out['value']:.8f} != reference {expected:.8f} within {TOL:.0e}")
        return misses

    return run, check


_SUMMARY_KEYS = (
    "verdict", "residual", "dimension", "defect", "within_tol", "recovery_value",
    "environment_value", "difference", "passed", "value", "iterations", "duality_gap", "status",
)


def _summarize_entry(entry):
    out = entry.get("output", {})
    summary = {"variant": entry["variant"], "completed": entry["completed"], "tol": entry["tol"]}
    summary.update({k: out[k] for k in _SUMMARY_KEYS if k in out})
    if "sectors" in out:
        summary["sectors"] = [[s["left_dim"], s["right_dim"]] for s in out["sectors"]]
    for side in ("recovery", "environment"):
        if side in out:
            summary[side] = {k: out[side][k] for k in ("iterations", "duality_gap", "status")}
    if "error" in out:
        summary["error"] = out["error"]
    return summary


def _check_entry(summary, expected):
    misses = []
    if not summary["completed"]:
        return [f"{summary['variant']}: {summary.get('error', 'not completed')}"]
    tol = summary["tol"]
    for key, want in expected.items():
        if key == "value_cap":
            for side in ("recovery_value", "environment_value"):
                if summary[side] > want + tol:
                    misses.append(f"{side} {summary[side]:.8f} above cap {want:.8f}")
        elif key in ("recovery_value", "environment_value"):
            if abs(summary[key] - want) > tol:
                misses.append(f"{key} {summary[key]:.8f} != {want:.8f} within {tol:.0e}")
        elif key == "defect_within_tol":
            if not summary["defect"] <= tol:
                misses.append(f"local-complement defect {summary['defect']:.2e} > tol {tol:.0e}")
        elif summary.get(key) != want:
            misses.append(f"{summary['variant']}: {key} {summary.get(key)!r} != {want!r}")
    for side in ("recovery", "environment"):
        if side in summary and summary[side]["status"] != "optimal":
            misses.append(f"{side} solve status {summary[side]['status']}")
    if "recovery_value" in summary and abs(summary["recovery_value"] - summary["environment_value"]) > tol:
        misses.append("recovery and environment values differ by more than tol")
    return misses


def _scenario_task(source, name):
    """A whole scenario run through the command line entry point, checked
    against the reference stored under ``name``."""
    expected = reference()[name]

    def run():
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = cli.main(["run", str(source)])
        report = json.loads(buffer.getvalue()) if code in (0, 3) else {"tasks": []}
        return {"exit": code, "tasks": [_summarize_entry(e) for e in report["tasks"]]}

    def check(out):
        if out["exit"] != 0:
            return [f"cli exit code {out['exit']}"]
        if len(out["tasks"]) != len(expected):
            return [f"{len(out['tasks'])} scenario tasks, expected {len(expected)}"]
        return [m for s, e in zip(out["tasks"], expected) for m in _check_entry(s, e)]

    return run, check


# ---------------------------------------------------------------------------
# generated scenarios


def ring_scenario(modes, weights, local_complement):
    """Majorana ring with unpaired generators 1 and 6, the even algebra of
    Majoranas 1..4, and window noise with the given arc weights."""
    n_maj = 2 * modes
    pairing = [[a, a + 1] for a in (2, 4)] + [[a, a + 1] for a in range(7, n_maj, 2)]
    tasks = [{"task": "algebra", "variant": v, "algebra": "region"} for v in ("commutant", "center", "blocks")]
    if local_complement:
        tasks.append({"task": "channel", "variant": "local-complement", "channel": "window_noise",
                      "algebra": "region"})
    tasks += [
        {"task": "check", "variant": "kl", "code": "ring", "channel": "window_noise", "tol": 1e-10},
        {"task": "check", "variant": "superselection-kl", "code": "ring", "channel": "window_noise",
         "projectors": "parity", "tol": 1e-10},
        {"task": "check", "variant": "fermion-local", "code": "ring", "channel": "window_noise",
         "region": list(range(1, n_maj + 1)), "tol": 1e-10},
    ]
    return {
        "schema_version": 1,
        "name": f"bench-ring-n{modes}",
        "seed": 0,
        "system": {"kind": "fermion", "modes": modes},
        "algebras": {"region": {"kind": "region_even", "majoranas": [1, 2, 3, 4]}},
        "channels": {"window_noise": {"kind": "geometric_noise", "max_support": 2,
                                      "weights": [float(w) for w in weights]}},
        "codes": {"ring": {"kind": "majorana_ring", "unpaired": [1, 6], "pairing": pairing}},
        "tasks": tasks,
    }


def _encode(matrix):
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(matrix, dtype=complex)]


def coverage_scenario():
    """Two-mode scenario with one task of every kind the workloads use, so
    that every traced layer is entered on every workload."""
    flip = [np.sqrt(0.9) * np.eye(2), np.sqrt(0.1) * np.array([[0.0, 1.0], [1.0, 0.0]])]
    return {
        "schema_version": 1,
        "name": "bench-coverage",
        "seed": 0,
        "system": {"kind": "fermion", "modes": 2},
        "algebras": {"region": {"kind": "region_even", "majoranas": [1, 2]}, "parity": {"kind": "parity"}},
        "channels": {
            "window_noise": {"kind": "geometric_noise", "max_support": 2},
            "readout": {"kind": "parity_measurement"},
            "flip": {"kind": "kraus", "operators": [_encode(k) for k in flip]},
        },
        "codes": {"ring": {"kind": "majorana_ring", "unpaired": [1, 2], "pairing": [[3, 4]]}},
        "tasks": [
            {"task": "algebra", "variant": "commutant", "algebra": "region"},
            {"task": "algebra", "variant": "center", "algebra": "region"},
            {"task": "algebra", "variant": "blocks", "algebra": "region"},
            {"task": "channel", "variant": "local-complement", "channel": "window_noise", "algebra": "region"},
            {"task": "check", "variant": "kl", "code": "ring", "channel": "window_noise"},
            {"task": "check", "variant": "superselection-kl", "code": "ring", "channel": "window_noise",
             "projectors": "parity"},
            {"task": "check", "variant": "tensor-local", "code": "ring", "channel": "flip", "dims": [2, 2]},
            {"task": "check", "variant": "fermion-local", "code": "ring", "channel": "window_noise",
             "region": [1, 2, 3, 4]},
            {"task": "fidelity", "variant": "duality", "noise": "window_noise", "target": "readout",
             "state": {"kind": "code_mixed", "code": "ring"},
             "constraint": {"kind": "fixes", "algebra": "parity"}},
        ],
    }


class Inputs:
    """Inputs of one workload: the admitted tasks, the instances refused by
    the memory preflight, and a digest of everything drawn from the seed."""

    def __init__(self, work_dir, memory_limit, seed):
        self.work_dir = Path(work_dir)
        self.memory_limit = memory_limit
        self.rng = np.random.default_rng(seed)
        self.tasks = []
        self.refused = []
        self._digest = hashlib.sha256()

    def note(self, *arrays):
        for a in arrays:
            self._digest.update(np.ascontiguousarray(a, dtype=complex).tobytes())

    def add(self, name, bytes_estimate, make):
        """Build the task with ``make()`` only if its computed allocation fits."""
        if self.memory_limit is not None and bytes_estimate > self.memory_limit:
            self.refused.append({"task": name, "bytes_estimate": bytes_estimate})
            return
        run, check = make()
        self.tasks.append(Task(name, run, check, bytes_estimate))

    def duality(self, name, kraus_n, kraus_m, rho, constraint=None, fixed_dim=None, parity=None):
        """Duality of an anchor instance posed in a frame drawn from the seed.

        Unconstrained, the input, both outputs and both Kraus lists get
        independent random unitaries. Under a constraint on ``parity``, the
        input and the (shared) output unitary commute with it and the Kraus
        lists are kept, so admissible recoveries map onto admissible ones.
        """
        if parity is None:
            v = random_unitary(self.rng, rho.shape[0])
            w_n = random_unitary(self.rng, kraus_n[0].shape[0])
            w_m = random_unitary(self.rng, kraus_m[0].shape[0])
            kraus_n, kraus_m = mix_kraus(self.rng, kraus_n), mix_kraus(self.rng, kraus_m)
        else:
            v = random_commuting_unitary(self.rng, parity)
            w_n = w_m = random_commuting_unitary(self.rng, parity)
        kraus_n = [w_n @ k @ v for k in kraus_n]
        kraus_m = [w_m @ k @ v for k in kraus_m]
        rho = v.conj().T @ rho @ v
        self.note(rho, *kraus_n, *kraus_m)
        k_n, k_m = len(kraus_n), len(kraus_m)
        if isinstance(constraint, rc.Physical):
            k_n, k_m = k_n * constraint.q.n_kraus, k_m * constraint.p.n_kraus
        estimate = duality_bytes(rho.shape[0], (kraus_n[0].shape[0], k_n), (kraus_m[0].shape[0], k_m),
                                 int(np.linalg.matrix_rank(rho)), fixed_dim)
        expected = reference()["values"][name]
        self.add(name, estimate,
                 lambda: _duality_task(ch.Channel(kraus_n), ch.Channel(kraus_m), rho, constraint, expected))

    def code(self, name, isometry, kraus, expected_verdict):
        """Code recovery of an anchor instance in a frame drawn from the seed:
        a unitary on the physical space (applied to the code and the noise),
        one on the logical space, and a mixing of the Kraus list."""
        d, k = isometry.shape
        u = random_unitary(self.rng, d)
        isometry = u @ isometry @ random_unitary(self.rng, k)
        kraus = [u @ e @ u.conj().T for e in mix_kraus(self.rng, kraus)]
        self.note(isometry, *kraus)
        expected = reference()["values"][name]
        self.add(name, 2 * choi_bytes(d, d) + fidelity_rows_bytes(d, k, d * d),
                 lambda: _code_task(rc.Code(k, d, isometry), kraus, expected_verdict, expected))

    def scenario(self, name, doc):
        text = json.dumps(doc, indent=1, sort_keys=True) + "\n"
        self._digest.update(text.encode())
        path = self.work_dir / f"{name}.json"
        path.write_text(text)
        self.add(name, scenario_bytes(doc), lambda: _scenario_task(path, name))

    def bundled(self, name):
        doc = json.loads(scenario.bundled_scenario_text(name))
        self.add(name, scenario_bytes(doc), lambda: _scenario_task(name, name))

    @property
    def digest(self):
        return self._digest.hexdigest()


# ---------------------------------------------------------------------------
# workloads


def duality_large(inp, anchor):
    """d=8 dualities: unconstrained, Physical parity dephasing on 3 modes,
    FixesAlgebra(parity); plus the bundled poisoning scenario."""
    d = 8
    c = parity_matrix(3)
    pq = parity_dephasing(c)
    parity = alg.generate_algebra([c], d)
    inp.duality("duality/unconstrained/d8", random_kraus(anchor, d, d, 2), random_kraus(anchor, d, d, 2),
                random_density(anchor, d))
    inp.duality("duality/physical/d8", random_physical_channel(anchor, c, 2), random_physical_channel(anchor, c, 2),
                random_density(anchor, d), rc.Physical(pq, pq), parity=c)
    inp.duality("duality/fixes-parity/d8", random_kraus(anchor, d, d, 2), random_kraus(anchor, d, d, 2),
                random_density(anchor, d), rc.FixesAlgebra(parity), fixed_dim=d * d // 2, parity=c)
    inp.bundled("poisoning")
    inp.scenario("coverage", coverage_scenario())


# (input dim, (out, kraus) of the noise, (out, kraus) of the target)
_SMALL_SHAPES = (
    (2, (2, 2), (2, 1)), (2, (3, 2), (4, 3)), (2, (4, 1), (2, 2)), (3, (2, 2), (3, 2)),
    (3, (3, 3), (4, 1)), (3, (4, 2), (2, 4)), (4, (2, 3), (4, 2)), (4, (3, 2), (3, 3)),
    (4, (4, 2), (2, 2)), (4, (4, 3), (4, 4)), (3, (3, 1), (2, 3)), (2, (2, 4), (3, 1)),
)


def fidelity_small(inp, anchor):
    """Many d=2..4 dualities in the shapes of acceptance criteria 1-3 plus
    code-recovery solves whose KL verdict must agree with the fidelity."""
    for i, (d, (out_n, k_n), (out_m, k_m)) in enumerate(_SMALL_SHAPES):
        inp.duality(f"duality/unconstrained/{i}", random_kraus(anchor, out_n, d, k_n),
                    random_kraus(anchor, out_m, d, k_m), random_density(anchor, d))
    c = parity_matrix(2)
    pq = parity_dephasing(c)
    parity = alg.generate_algebra([c], 4)
    rho = np.eye(4, dtype=complex) / 4
    for i in range(6):
        inp.duality(f"duality/physical/{i}", random_physical_channel(anchor, c, 3),
                    random_physical_channel(anchor, c, 2), rho, rc.Physical(pq, pq), parity=c)
    for i in range(6):
        inp.duality(f"duality/fixes-parity/{i}", random_kraus(anchor, 4, 4, 3), random_kraus(anchor, 4, 4, 2),
                    rho, rc.FixesAlgebra(parity), fixed_dim=8, parity=c)
    verdicts = reference()["code_verdicts"]
    # the code span{|0>, |1>}: X-type shifts by two are correctable, a sign on |1> is not
    code = np.eye(4, dtype=complex)[:, :2]
    shift = [np.roll(np.eye(4, dtype=complex), k, axis=0) / np.sqrt(2) for k in (0, 2)]
    sign = np.diag([1.0, -1.0, 1.0, 1.0]).astype(complex) / np.sqrt(2)
    for i in range(2):
        inp.code(f"code/shift/{i}", code, shift, verdicts["shift"])
        inp.code(f"code/dephasing/{i}", code, [shift[0], sign], verdicts["dephasing"])
        inp.code(f"code/unitary/{i}", random_kraus(anchor, 4, 2, 1)[0], [random_unitary(anchor, 4)],
                 verdicts["unitary"])
        inp.code(f"code/generic/{i}", random_kraus(anchor, 4, 2, 1)[0], random_kraus(anchor, 4, 4, 3),
                 verdicts["generic"])
    inp.scenario("coverage", coverage_scenario())


def fermion_algebra(inp, anchor):
    """Scenario files through the command line: generated 4- and 5-mode
    rings with random positive window weights from the workload seed, and
    the bundled six-mode ring."""
    for modes in (4, 5):
        weights = inp.rng.uniform(0.5, 1.5, size=2 * modes + 1)
        inp.note(weights)
        inp.scenario(f"ring{modes}", ring_scenario(modes, weights, modes == 4))
    inp.bundled("majorana_ring_n6")
    inp.scenario("coverage", coverage_scenario())


WORKLOADS = {
    "duality-large": duality_large,
    "fidelity-small": fidelity_small,
    "fermion-algebra": fermion_algebra,
}


def available_bytes():
    """MemAvailable of the machine, or None where it cannot be read."""
    try:
        with open("/proc/meminfo") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    return None


def build(name, seed, work_dir):
    """Generate the inputs of workload ``name`` from ``seed``, refusing any
    instance whose computed allocation exceeds a share of available memory."""
    work_dir = Path(work_dir)
    work_dir.mkdir(parents=True, exist_ok=True)
    avail = available_bytes()
    inp = Inputs(work_dir, None if avail is None else MEMORY_SHARE * avail, seed)
    WORKLOADS[name](inp, np.random.default_rng(ANCHOR_SEED))
    return inp
