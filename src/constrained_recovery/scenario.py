"""Declarative scenario files and batch task execution.

A scenario is a JSON document describing one finite-dimensional system,
named algebras, channels, and codes on it, and a list of tasks that
reference those objects by name.  Validation happens in two stages
before any task runs: structural validation against the schema shipped
at ``data/scenario.schema.json``, then a consistency pass that resolves
names and runs, on each task's arguments, the validators that the
library function of the task runs first.  Both stages raise
:class:`ScenarioError`, so callers can tell a malformed scenario
(rejected up front) apart from a numerical failure inside a task.

Reports are plain dictionaries ready for ``json.dump``: complex scalars
are encoded as ``[real, imag]`` pairs, matrices as row-major nested
lists of such pairs, and every residual or fidelity value sits next to
the tolerance it was judged against.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
import platform
import time
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path

import numpy as np

from . import algebra as algebra_mod
from . import channels as channel_mod
from . import fermion as fermion_mod
from . import linalg
from . import recovery as recovery_mod

__all__ = [
    "Scenario",
    "ScenarioError",
    "TASKS",
    "REFERENCES",
    "load_scenario",
    "with_tasks",
    "run_scenario",
    "report_rows",
    "ring_demo_scenario",
    "bundled_scenario_names",
    "bundled_scenario_text",
    "encode",
]

SCHEMA_VERSION = 1
REPORT_VERSION = 1

_MAX_SYSTEM_DIM = 4096
_MATRIX_EMBED_LIMIT = 4096

_DEFAULT_CHECK_TOL = 1e-8
_DEFAULT_SOLVER_TOL = 1e-7
_DEFAULT_DUALITY_TOL = 1e-5


class ScenarioError(ValueError):
    """A scenario failed schema validation or a consistency check, or an
    object or task ran out of memory while it was loaded."""


class _TaskFailure(RuntimeError):
    """A task ran but did not produce a trustworthy numerical answer."""


_VALIDATOR = None


def _validator():
    """A validator of the bundled scenario schema, which is checked once."""
    global _VALIDATOR
    if _VALIDATOR is None:
        import jsonschema

        text = (
            resources.files(__package__)
            .joinpath("data/scenario.schema.json")
            .read_text()
        )
        schema = json.loads(text)
        cls = jsonschema.validators.validator_for(schema)
        cls.check_schema(schema)
        _VALIDATOR = cls(schema)
    return _VALIDATOR


def bundled_scenario_names():
    """Names of the scenario files shipped inside the package."""
    folder = resources.files(__package__).joinpath("scenarios")
    return sorted(
        p.name[: -len(".json")]
        for p in folder.iterdir()
        if p.name.endswith(".json")
    )


def bundled_scenario_text(name):
    """Raw JSON text of a bundled scenario; accepts the name with or
    without the ``.json`` suffix."""
    if name.endswith(".json"):
        name = name[: -len(".json")]
    path = resources.files(__package__).joinpath(f"scenarios/{name}.json")
    if not path.is_file():
        known = ", ".join(bundled_scenario_names()) or "none"
        raise ScenarioError(
            f"no bundled scenario named {name!r} (bundled: {known})"
        )
    return path.read_text()


# ---------------------------------------------------------------------------
# JSON <-> numpy


def encode(value):
    """JSON-ready form of a result value.

    Complex scalars become ``[real, imag]`` pairs; complex arrays become
    row-major nested lists of such pairs; real arrays become nested
    floats; dicts and sequences are encoded entrywise.  Numeric arrays
    are converted whole by ``tolist``; object arrays entry by entry.
    """
    if isinstance(value, np.ndarray):
        if value.dtype.kind == "c":
            return linalg.encode_matrix(value)
        if value.dtype.kind in "fiub":
            return value.tolist()
        if value.ndim == 0:
            return encode(value[()])
        return [encode(v) for v in value]
    if isinstance(value, (complex, np.complexfloating)):
        return [float(value.real), float(value.imag)]
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, dict):
        return {key: encode(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [encode(v) for v in value]
    return value


def _encode_gated(array):
    """Encode an array, or return None when it is too large to embed.

    Callers pass an array that already exists (a view of a stack, never a
    stack formed for the call), so that one gated out is never copied.
    """
    a = np.asarray(array)
    if a.size > _MATRIX_EMBED_LIMIT:
        return None
    return encode(a)


# ---------------------------------------------------------------------------
# Scenario loading


@dataclass
class Scenario:
    """A validated scenario with every named object already constructed."""

    name: str
    source: str
    raw: dict
    dim: int
    fermion_system: object
    algebras: dict
    channels: dict
    codes: dict
    tasks: list
    seed: int = None


def load_scenario(source):
    """Load, validate, and resolve a scenario.

    ``source`` may be a filesystem path, the name of a bundled scenario,
    or an already-parsed dict.  Raises :class:`ScenarioError` on any
    schema violation or inconsistency; no task runs before this function
    returns.
    """
    if isinstance(source, dict):
        raw = source
        label = "<dict>"
    else:
        path = Path(source)
        if path.is_file():
            text = path.read_text()
            label = str(path)
        else:
            text = bundled_scenario_text(str(source))
            label = f"bundled:{source}"
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"{label}: not valid JSON ({exc})") from exc

    _validate(raw, label)
    dim, fsys = _build_system(raw["system"])
    scenario = Scenario(
        name=raw.get("name", "unnamed"),
        source=label,
        raw=raw,
        dim=dim,
        fermion_system=fsys,
        algebras=_build_all(_build_algebra, "algebra", raw.get("algebras", {}), dim, fsys),
        channels=_build_all(_build_channel, "channel", raw.get("channels", {}), dim, fsys),
        codes=_build_all(_build_code, "code", raw.get("codes", {}), dim, fsys),
        tasks=[],
        seed=raw.get("seed"),
    )
    scenario.tasks = [_resolve_task(scenario, task, i) for i, task in enumerate(raw["tasks"])]
    return scenario


def with_tasks(scenario, tasks):
    """``scenario`` with its task list replaced by ``tasks``.

    The new document is validated against the schema like a loaded file,
    and its tasks are resolved against the algebras, channels and codes
    already built, so nothing is constructed again. The source stays that
    of ``scenario``.
    """
    raw = dict(scenario.raw, tasks=tasks)
    _validate(raw, scenario.source)
    out = replace(scenario, raw=raw)
    out.tasks = [_resolve_task(out, task, index) for index, task in enumerate(tasks)]
    return out


def _validate(raw, label):
    # jsonschema (about 0.1 s to import) loads on the first scenario load, not
    # with the package: callers that build their objects directly never need it
    import jsonschema

    # the error jsonschema.validate would raise
    exc = jsonschema.exceptions.best_match(_validator().iter_errors(raw))
    if exc is not None:
        where = "/".join(str(part) for part in exc.absolute_path) or "<root>"
        raise ScenarioError(f"{label}: schema violation at {where}: {exc.message}") from exc


def _build_system(spec):
    if spec["kind"] == "qudit":
        dims = [int(d) for d in spec["dims"]]
        dim = math.prod(dims)
        if dim > _MAX_SYSTEM_DIM:
            raise ScenarioError(
                f"system dimension {dim} exceeds the supported maximum "
                f"{_MAX_SYSTEM_DIM}"
            )
        return dim, None
    modes = int(spec["modes"])
    return 2**modes, fermion_mod.FermionSystem(modes)


def _named(what, call, *args):
    """``call(*args)``, with a ValueError or a MemoryError turned into a
    ScenarioError that names ``what``, the object or task at fault."""
    try:
        return call(*args)
    except ScenarioError:
        raise
    except ValueError as exc:
        raise ScenarioError(f"{what}: {exc}") from exc
    except MemoryError as exc:
        detail = f" ({exc})" if str(exc) else ""
        raise ScenarioError(f"{what}: out of memory{detail}") from exc


def _build_all(build, kind, specs, dim, fsys):
    """Every named object of one kind, built by ``build(what, spec, dim, fsys)``."""
    built = {}
    for name, spec in specs.items():
        what = f"{kind} {name!r}"
        built[name] = _named(what, build, what, spec, dim, fsys)
    return built


def _require_fermion(fsys, what):
    if fsys is None:
        raise ScenarioError(f"{what} requires a fermionic system")
    return fsys


def _parity(fsys):
    """The parity operator of all modes, with its two eigenprojectors."""
    return fermion_mod.parity_operator(fsys, range(1, 2 * fsys.n_modes + 1))


def _full_algebra_generators(dim):
    shift = np.roll(np.eye(dim, dtype=complex), 1, axis=0)
    clock = np.diag(np.exp(2j * np.pi * np.arange(dim) / dim))
    return [shift, clock]


def _build_algebra(what, spec, dim, fsys):
    kind = spec["kind"]
    if kind == "generated":
        gens = [linalg.decode_matrix(rows) for rows in spec["generators"]]
        return algebra_mod.generate_algebra(gens, dim)
    if kind == "full":
        return algebra_mod.generate_algebra(_full_algebra_generators(dim), dim)
    if kind == "parity":
        fsys = _require_fermion(fsys, what)
        return algebra_mod.generate_algebra([_parity(fsys).c], dim)
    fsys = _require_fermion(fsys, what)
    return fermion_mod.physical_algebra(fsys, spec["majoranas"])


def _build_channel(what, spec, dim, fsys):
    kind = spec["kind"]
    if kind == "kraus":
        return channel_mod.Channel([linalg.decode_matrix(rows) for rows in spec["operators"]])
    if kind == "identity":
        return channel_mod.identity_channel(int(spec.get("dim", dim)))
    if kind == "geometric_noise":
        fsys = _require_fermion(fsys, what)
        weights = spec.get("weights")
        if weights is not None:
            weights = [float(w) for w in weights]
        return fermion_mod.geometric_noise(fsys, int(spec["max_support"]), weights)
    if kind == "monomials":
        fsys = _require_fermion(fsys, what)
        ops = []
        for i, term in enumerate(spec["terms"]):
            indices = tuple(int(x) for x in term["indices"])
            if list(indices) != sorted(set(indices)):
                raise ScenarioError(
                    f"{what} term {i}: indices must be strictly increasing "
                    "(reordering flips the sign convention)"
                )
            coeff = complex(*map(float, term["coeff"]))
            ops.append(coeff * fermion_mod.majorana_monomial(fsys, indices))
        return channel_mod.Channel(ops)
    fsys = _require_fermion(fsys, what)
    parity = _parity(fsys)
    if kind == "parity_dephasing":
        return channel_mod.Channel([np.eye(dim) / np.sqrt(2), parity.c / np.sqrt(2)])
    return channel_mod.Channel([parity.p_plus, parity.p_minus])


def _build_code(what, spec, dim, fsys):
    if spec["kind"] == "isometry":
        w = linalg.decode_matrix(spec["isometry"])
        return recovery_mod.Code(w.shape[1], w.shape[0], w)
    fsys = _require_fermion(fsys, what)
    return fermion_mod.majorana_ring(fsys, spec["unpaired"], spec["pairing"]).code


# ---------------------------------------------------------------------------
# Task resolution (all consistency checks happen here, before any run)


# the kind of object each named reference of a task is looked up among
REFERENCES = dict(
    code="code", channel="channel", noise="channel", target="channel", p="channel", q="channel",
    algebra="algebra", second_algebra="algebra",
)


def _lookup(table, name, what, index):
    if name not in table:
        known = ", ".join(sorted(table)) or "none"
        raise ScenarioError(f"task {index}: unknown {what} {name!r} (defined: {known})")
    return table[name]


def _resolve_task(scenario, task, index):
    """Look up the references the task's variant needs, then run its check.

    ``refs`` keeps the names of the references in the order of the
    variant's needs; the check may add more and turns raw task values in
    ``args`` into the runner's arguments; a ValueError of the library's
    validators that it runs becomes a ScenarioError naming the task.
    """
    variant = task["variant"]
    spec = TASKS[task["task"]][variant]
    args, refs = {}, {}
    for key in spec.needs:
        if key not in task:
            raise ScenarioError(f"task {index}: {variant} needs '{key}'")
        kind = REFERENCES.get(key)
        if kind is None:
            args[key] = task[key]
        else:
            args[key] = _lookup(getattr(scenario, f"{kind}s"), task[key], kind, index)
            refs[key] = task[key]
    args.update((key, task[key]) for key in spec.reads if key in task)
    if spec.check is not None:
        _named(f"task {index}", spec.check, scenario, args, refs, index)
    tol = float(task.get("tol", spec.tol))
    return {"index": index, "task": task["task"], "variant": variant, "tol": tol,
            "refs": refs, "args": args}


def _validated(validator):
    """Check that runs a library validator on the task's arguments in the
    order of its needs, as the runner passes them."""
    return lambda scenario, args, refs, index: validator(*args.values())


def _check_projectors(scenario, args, refs, index):
    if args["projectors"] == "parity":
        fsys = _require_fermion(scenario.fermion_system, f"task {index}: parity projectors")
        parity = _parity(fsys)
        projectors = [parity.p_plus, parity.p_minus]
    else:
        projectors = [linalg.decode_matrix(rows) for rows in args["projectors"]]
    recovery_mod._check_projectors(args["code"], args["channel"], projectors)
    args["projectors"] = projectors


def _check_region(scenario, args, refs, index):
    _require_fermion(scenario.fermion_system, f"task {index}: fermion-local")
    recovery_mod._check_region(*args.values())


def _resolve_state(scenario, spec, dim, index):
    if spec is None or spec["kind"] == "maximally_mixed":
        return np.eye(dim, dtype=complex) / dim
    if spec["kind"] == "code_mixed":
        code = _lookup(scenario.codes, spec["code"], "code", index)
        return (code.projector / code.logical_dim).astype(complex)
    return linalg.decode_matrix(spec["matrix"])


def _resolve_constraint(scenario, spec, index):
    if spec is None or spec["kind"] == "unconstrained":
        return None, {}
    if spec["kind"] == "physical":
        p = _lookup(scenario.channels, spec["p"], "channel", index)
        q = _lookup(scenario.channels, spec["q"], "channel", index)
        return recovery_mod.Physical(p, q), {"p": spec["p"], "q": spec["q"]}
    b = _lookup(scenario.algebras, spec["algebra"], "algebra", index)
    return recovery_mod.FixesAlgebra(b), {"algebra": spec["algebra"]}


def _check_fidelity(scenario, args, refs, index):
    n, m = args["noise"], args["target"]
    state, constraint = args.get("state"), args.get("constraint")
    args["state"] = _resolve_state(scenario, state, n.in_dim, index)
    if state is not None:
        refs["state"] = state["kind"]
    args["constraint"], cref = _resolve_constraint(scenario, constraint, index)
    if constraint is not None:
        refs["constraint"] = dict(cref, kind=constraint["kind"])
    recovery_mod._link_inputs(n, m, args["state"], args["constraint"])


def _check_seesaw(scenario, args, refs, index):
    recovery_mod._check_seesaw(args["noise"], args["target"], args["code"])
    args["rounds"] = int(args.get("rounds", 10))


# ---------------------------------------------------------------------------
# Task execution (a runner looks its library function up when called)


def _checked(name):
    """Runner of the correctability check ``recovery.<name>`` on the task's
    arguments in the order of its needs: code, channel, then its own."""

    def run(args, tol, seed):
        rep = getattr(recovery_mod, name)(*args.values(), tol=tol)
        coefficients = {}
        for key, value in rep.coefficients.items():
            encoded = _encode_gated(value)
            if encoded is not None:
                coefficients[key] = encoded
        return {
            "verdict": rep.verdict,
            "correctable": bool(rep),
            "residual": float(rep.residual),
            "tol": tol,
            "sufficiency_flags": dict(rep.sufficiency_flags),
            "coefficients": coefficients,
        }

    return run


def _solver_summary(result, tol):
    return {
        "value": float(result.value),
        "duality_gap": float(result.duality_gap),
        "iterations": int(result.iterations),
        "status": result.status,
        "constraint_set": result.constraint_set,
        "tol": tol,
    }


def _solved(name):
    """Runner of the fidelity solve ``recovery.<name>``."""

    def run(args, tol, seed):
        solve = getattr(recovery_mod, name)
        result = solve(args["noise"], args["target"], args["state"], args["constraint"], tol=tol)
        if result.status != "optimal":
            raise _TaskFailure(f"solver finished with status {result.status!r}")
        return _solver_summary(result, tol)

    return run


def _run_duality(args, tol, seed):
    rep = recovery_mod.verify_duality(
        args["noise"], args["target"], args["state"], args["constraint"], tol=tol
    )
    if rep.indeterminate:
        raise _TaskFailure(
            "duality comparison indeterminate: a solve did not reach "
            "optimality"
        )
    return {
        "recovery_value": float(rep.recovery.value),
        "environment_value": float(rep.environment.value),
        "difference": float(rep.difference),
        "passed": bool(rep.passed),
        "tol": tol,
        "recovery": _solver_summary(rep.recovery, tol),
        "environment": _solver_summary(rep.environment, tol),
    }


def _run_seesaw(args, tol, seed):
    used_seed = recovery_mod.SEESAW_DEFAULT_SEED if seed is None else seed
    result = recovery_mod.worst_case_fidelity_seesaw(
        args["noise"], args["target"], args["code"], rounds=args["rounds"], tol=tol,
        seed=used_seed,
    )
    return {**_solver_summary(result, tol), "seed": int(used_seed)}


def _algebra_summary(name):
    """Runner of ``algebra.<name>``, which derives an algebra from the task's."""

    def run(args, tol, seed):
        basis = getattr(algebra_mod, name)(args["algebra"])
        d = basis.ambient_dim
        out = {"dimension": int(basis.dim), "ambient_dim": int(d)}
        encoded = _encode_gated(basis._rows.reshape(-1, d, d))
        if encoded is not None:
            out["basis"] = encoded
        return out

    return run


def _run_blocks(args, tol, seed):
    used_seed = algebra_mod.DEFAULT_SEED if seed is None else seed
    blocks = algebra_mod.block_structure(args["algebra"], seed=used_seed)
    sectors = []
    for sector in blocks.sectors:
        _, n, m = sector.x.shape
        entry = {"left_dim": n, "right_dim": m}
        if sector.x.size <= _MATRIX_EMBED_LIMIT:
            entry["isometry"] = encode(sector.isometry)
        sectors.append(entry)
    return {
        "ambient_dim": int(blocks.ambient_dim),
        "seed": int(used_seed),
        "sectors": sectors,
    }


def _channel_summary(chan):
    out = {"out_dim": int(chan.out_dim), "in_dim": int(chan.in_dim), "n_kraus": int(chan.n_kraus)}
    encoded = _encode_gated(chan._stack)
    if encoded is not None:
        out["kraus"] = encoded
    return out


def _run_complement(args, tol, seed):
    return _channel_summary(channel_mod.complementary(args["channel"]))


def _run_local_complement(args, tol, seed):
    chan, a = args["channel"], args["algebra"]
    lc, defect = channel_mod._checked_local_complement(chan, a)
    out = _channel_summary(lc)
    out["defect"] = float(defect)
    out["within_tol"] = bool(defect <= tol)
    out["tol"] = tol
    return out


def _run_is_physical(args, tol, seed):
    rep = channel_mod.is_physical(args["channel"], args["p"], args["q"], tol=tol)
    return {"physical": bool(rep.physical), "residual": float(rep.residual), "tol": float(rep.tol)}


def _run_is_local(args, tol, seed):
    rep = channel_mod.is_local(
        args["channel"], args["algebra"], args["second_algebra"], tol=tol
    )
    return {
        "local": bool(rep.local),
        "strong": bool(rep.strong),
        "maps_into_a": bool(rep.maps_into_a),
        "tol": float(rep.tol),
        "fixes": {
            "fixes": bool(rep.fixes.fixes),
            "adjoint_residual": float(rep.fixes.adjoint_residual),
            "commutation_residual": float(rep.fixes.commutation_residual),
            "tol": float(rep.fixes.tol),
        },
    }


# ---------------------------------------------------------------------------
# The task table


@dataclass(frozen=True)
class _Variant:
    """One task variant.

    ``needs`` are the task keys it requires, named references first, in
    the order a report lists them; ``reads`` are keys it uses when given.
    ``check(scenario, args, refs, index)`` runs at load time: it decodes
    the task's values and runs the library's validators of the function
    the task runs, which raise ValueError.  ``run(args, tol, seed)``
    returns the output.
    """

    needs: tuple
    run: object
    check: object = None
    tol: float = _DEFAULT_CHECK_TOL
    reads: tuple = ()


_CHECK = ("code", "channel")
_FIDELITY = ("noise", "target")
_STATE = ("state", "constraint")

# task kind -> variant -> what the variant needs, how it is checked and run
TASKS = {
    "check": {
        "kl": _Variant(_CHECK, _checked("kl_check"), _validated(recovery_mod._check_noise)),
        "superselection-kl": _Variant(
            _CHECK + ("projectors",), _checked("superselection_kl_check"), _check_projectors
        ),
        "tensor-local": _Variant(
            _CHECK + ("dims",), _checked("tensor_local_check"),
            _validated(recovery_mod._check_noise),
        ),
        "fermion-local": _Variant(
            _CHECK + ("region",), _checked("fermion_local_check"), _check_region
        ),
    },
    "fidelity": {
        "optimal": _Variant(
            _FIDELITY, _solved("optimal_recovery_fidelity"), _check_fidelity,
            _DEFAULT_SOLVER_TOL, _STATE,
        ),
        "environment": _Variant(
            _FIDELITY, _solved("environment_side_fidelity"), _check_fidelity,
            _DEFAULT_SOLVER_TOL, _STATE,
        ),
        "duality": _Variant(
            _FIDELITY, _run_duality, _check_fidelity, _DEFAULT_DUALITY_TOL, _STATE
        ),
        "seesaw": _Variant(
            _FIDELITY + ("code",), _run_seesaw, _check_seesaw, _DEFAULT_SOLVER_TOL,
            ("rounds",),
        ),
    },
    "algebra": {
        "commutant": _Variant(("algebra",), _algebra_summary("commutant")),
        "center": _Variant(("algebra",), _algebra_summary("center")),
        "blocks": _Variant(("algebra",), _run_blocks),
    },
    "channel": {
        "complement": _Variant(("channel",), _run_complement),
        "local-complement": _Variant(
            ("channel", "algebra"), _run_local_complement,
            _validated(channel_mod._check_output_algebra),
        ),
        "is-physical": _Variant(
            ("channel", "p", "q"), _run_is_physical, _validated(channel_mod._check_physical)
        ),
        "is-local": _Variant(
            ("channel", "algebra", "second_algebra"), _run_is_local,
            _validated(channel_mod._check_square_with),
        ),
    },
}


@functools.cache
def _package_version():
    """The installed version of the package, looked up once per process
    (the lookup scans ``sys.path``)."""
    from importlib import metadata

    try:
        return metadata.version("constrained-recovery")
    except metadata.PackageNotFoundError:
        return "unversioned"


def _provenance(seed):
    return {
        "package": "constrained-recovery",
        "package_version": _package_version(),
        "numpy_version": np.__version__,
        "python_version": platform.python_version(),
        "seed": seed,
    }


def run_scenario(scenario, seed=None, tol=None):
    """Run every task in ``scenario`` and assemble the report dict.

    ``seed`` overrides the scenario's own seed; ``tol`` overrides every
    per-task tolerance.  Task exceptions are captured in the report
    rather than raised: a task entry with ``completed: false`` carries
    the error message, and ``all_tasks_completed`` reflects the whole
    run.  Verdicts and fidelity values are never failures; only a task
    that could not produce an answer is.  An override outside the schema's
    bounds (a seed that is not an integer >= 0, a tolerance that is not
    positive and finite) raises ValueError before any task runs.
    """
    if seed is not None and (isinstance(seed, bool) or not isinstance(seed, numbers.Integral)
                             or seed < 0):
        raise ValueError(f"seed must be an integer >= 0, got {seed!r}")
    if tol is not None and (isinstance(tol, bool) or not isinstance(tol, numbers.Real)
                            or not math.isfinite(tol) or tol <= 0):
        raise ValueError(f"tol must be a positive finite number, got {tol!r}")
    used_seed = seed if seed is not None else scenario.seed
    started = time.perf_counter()
    entries = []
    all_completed = True
    for resolved in scenario.tasks:
        eff_tol = tol if tol is not None else resolved["tol"]
        entry = {
            "index": resolved["index"],
            "task": resolved["task"],
            "variant": resolved["variant"],
            "refs": resolved["refs"],
            "tol": eff_tol,
        }
        t0 = time.perf_counter()
        try:
            run = TASKS[resolved["task"]][resolved["variant"]].run
            entry["output"] = run(resolved["args"], eff_tol, used_seed)
            entry["completed"] = True
        except Exception as exc:
            entry["output"] = {"error": f"{type(exc).__name__}: {exc}"}
            entry["completed"] = False
            all_completed = False
        entry["wall_time_s"] = round(time.perf_counter() - t0, 6)
        entries.append(entry)
    return {
        "report_version": REPORT_VERSION,
        "scenario": {
            "name": scenario.name,
            "source": scenario.source,
            "schema_version": scenario.raw["schema_version"],
        },
        "provenance": _provenance(used_seed),
        "tasks": entries,
        "all_tasks_completed": all_completed,
        "wall_time_s": round(time.perf_counter() - started, 6),
    }


_CSV_METRICS = (
    "verdict",
    "correctable",
    "residual",
    "value",
    "recovery_value",
    "environment_value",
    "difference",
    "duality_gap",
    "defect",
    "passed",
    "physical",
    "local",
    "strong",
)


def report_rows(report):
    """Flatten a report to rows for CSV output.

    Only scalar verdicts, fidelities, and residuals are kept; matrices
    and nested summaries need the JSON format.
    """
    rows = [("index", "task", "variant", "metric", "value", "tol")]
    for entry in report["tasks"]:
        output = entry.get("output", {})
        head = (entry["index"], entry["task"], entry["variant"])
        rows.extend(
            head + (metric, output[metric], entry.get("tol"))
            for metric in _CSV_METRICS
            if metric in output
        )
        if not entry["completed"]:
            rows.append(head + ("error", output.get("error", "unknown"), entry.get("tol")))
    return rows


# ---------------------------------------------------------------------------
# Demo scenario construction


def ring_demo_scenario(modes, unpaired, pairing=None, max_support=2):
    """Scenario dict for a Majorana ring demo.

    Builds the ring code with the given unpaired Majorana positions,
    applies geometric noise of the given maximal support, and checks
    correctability three ways: the plain algebraic conditions, the
    charge-sector-resolved conditions, and the locality-respecting
    conditions on the whole ring.  When ``pairing`` is omitted the
    leftover generators are paired along the ring, which requires every
    arc between unpaired positions to have even length.
    """
    modes = int(modes)
    n_maj = 2 * modes
    ups = list(_named("unpaired positions", fermion_mod._majorana_set, modes, unpaired, True))
    if len(ups) < 2:
        raise ScenarioError("need at least 2 unpaired positions")
    if pairing is None:
        pairing = []
        for here, nxt, arc in zip(ups, ups[1:] + ups[:1],
                                  fermion_mod._ring_intervals(ups, n_maj)):
            if len(arc) % 2 != 0:
                raise ScenarioError(
                    f"arc between unpaired positions {here} and {nxt} has odd "
                    "length; give an explicit pairing"
                )
            pairing.extend([arc[i], arc[i + 1]] for i in range(0, len(arc), 2))
    else:
        pairing = [[int(a), int(b)] for a, b in pairing]

    def check(variant, **extra):
        return dict(task="check", variant=variant, code="ring", channel="window_noise",
                    **extra, tol=1e-10)

    return {
        "schema_version": SCHEMA_VERSION,
        "name": f"majorana-ring-n{modes}",
        "system": {"kind": "fermion", "modes": modes},
        "channels": {
            "window_noise": {
                "kind": "geometric_noise",
                "max_support": int(max_support),
            }
        },
        "codes": {
            "ring": {
                "kind": "majorana_ring",
                "unpaired": ups,
                "pairing": pairing,
            }
        },
        "tasks": [
            check("kl"),
            check("superselection-kl", projectors="parity"),
            check("fermion-local", region=list(range(1, n_maj + 1))),
        ],
    }
