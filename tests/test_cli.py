import argparse
import csv
import io
import json
import shutil
import subprocess
import sys
import tracemalloc
from importlib import resources

import numpy as np
import pytest

from constrained_recovery import cli
from constrained_recovery import recovery as rc
from constrained_recovery import scenario as sc

I2 = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
Y2 = [[[0.0, 0.0], [0.0, -1.0]], [[0.0, 1.0], [0.0, 0.0]]]


def jmat(a):
    return [
        [[float(x.real), float(x.imag)] for x in row]
        for row in np.asarray(a, dtype=complex)
    ]


def qubit_scenario(tasks):
    root2 = np.sqrt(2.0)
    return {
        "schema_version": 1,
        "name": "one-qubit",
        "system": {"kind": "qudit", "dims": [2]},
        "algebras": {
            "diagonal": {"kind": "generated", "generators": [jmat(np.diag([1.0, -1.0]))]}
        },
        "channels": {
            "dephase": {
                "kind": "kraus",
                "operators": [jmat(np.eye(2) / root2), jmat(np.diag([1.0, -1.0]) / root2)],
            },
            "ideal": {"kind": "identity"},
        },
        "codes": {"trivial": {"kind": "isometry", "isometry": jmat(np.eye(2))}},
        "tasks": tasks,
    }


def run_json(args, capsys):
    code = cli.main(args)
    out = capsys.readouterr().out
    return code, json.loads(out) if out else None


# ---------------------------------------------------------------------------
# exit codes


def test_unknown_subcommand_usage_exit_1(capsys):
    assert cli.main(["frobnicate"]) == 1
    assert "usage" in capsys.readouterr().err


def test_no_arguments_usage_exit_1(capsys):
    assert cli.main([]) == 1
    assert "usage" in capsys.readouterr().err


def test_missing_file_exit_2(capsys):
    assert cli.main(["run", "/nonexistent/path.json"]) == 2
    assert "error" in capsys.readouterr().err


def test_malformed_json_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("this is not json")
    assert cli.main(["run", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "not valid JSON" in err


def test_schema_violation_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema_version": 1, "tasks": []}))
    assert cli.main(["run", str(bad)]) == 2
    assert "schema violation" in capsys.readouterr().err


def test_dimension_inconsistency_rejected_before_any_numerics(
    tmp_path, capsys, monkeypatch
):
    """A 3x3 operator on a qubit system must be rejected at load time."""
    calls = []

    def tripwire(*args, **kwargs):
        calls.append(args)
        raise AssertionError("check ran despite a broken scenario")

    monkeypatch.setattr(rc, "kl_check", tripwire)
    spec = qubit_scenario(
        [{"task": "check", "variant": "kl", "code": "trivial", "channel": "wide"}]
    )
    spec["channels"]["wide"] = {
        "kind": "kraus",
        "operators": [jmat(np.eye(3))],
    }
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(spec))
    assert cli.main(["run", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert calls == []


@pytest.mark.parametrize("dims", [[2**32, 2**32], [3074457345618258603, 3]])
def test_system_dimension_past_int64_exit_2(dims, tmp_path, capsys):
    # both products wrap in int64, to 0 and to a negative number; the exact
    # product is refused before any channel is built
    spec = {
        "schema_version": 1,
        "name": "huge",
        "system": {"kind": "qudit", "dims": dims},
        "channels": {"id": {"kind": "identity"}},
        "tasks": [{"task": "channel", "variant": "complement", "channel": "id"}],
    }
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(spec))
    assert cli.main(["run", str(path)]) == 2
    assert "exceeds the supported maximum" in capsys.readouterr().err


def test_task_level_dimension_mismatch_exit_2(tmp_path, capsys):
    spec = qubit_scenario(
        [
            {
                "task": "check",
                "variant": "tensor-local",
                "code": "trivial",
                "channel": "dephase",
                "dims": [2, 3],
            }
        ]
    )
    path = tmp_path / "mismatch.json"
    path.write_text(json.dumps(spec))
    assert cli.main(["run", str(path)]) == 2
    assert "do not factor" in capsys.readouterr().err


def test_runtime_task_failure_exit_3(tmp_path, capsys):
    """is-local demands the second algebra inside the commutant of the
    first; the violation only surfaces when the task runs."""
    spec = qubit_scenario(
        [
            {
                "task": "channel",
                "variant": "is-local",
                "channel": "dephase",
                "algebra": "diagonal",
                "second_algebra": "diagonal",
            }
        ]
    )
    spec["algebras"]["diagonal"] = {"kind": "full"}
    path = tmp_path / "islocal.json"
    path.write_text(json.dumps(spec))
    code, report = run_json(["run", str(path)], capsys)
    assert code == 3
    assert report["all_tasks_completed"] is False
    task = report["tasks"][0]
    assert task["completed"] is False
    assert "error" in task["output"]


# ---------------------------------------------------------------------------
# bundled scenarios


def test_bundled_ring_scenario_verdicts(capsys):
    code, report = run_json(["run", "majorana_ring_n6"], capsys)
    assert code == 0
    assert report["all_tasks_completed"] is True
    by_variant = {t["variant"]: t for t in report["tasks"]}
    sup = by_variant["superselection-kl"]
    assert sup["output"]["verdict"] == "correctable"
    assert sup["output"]["residual"] <= 1e-10
    loc = by_variant["fermion-local"]
    assert loc["output"]["verdict"] == "correctable"
    assert loc["output"]["residual"] <= 1e-10


def test_bundled_poisoning_scenario_verdicts(capsys):
    code, report = run_json(["run", "poisoning"], capsys)
    assert code == 0
    check, duality = report["tasks"]
    assert check["output"]["verdict"] == "not_correctable"
    assert check["output"]["residual"] >= 1e-3
    out = duality["output"]
    assert out["passed"] is True
    assert out["recovery_value"] <= 1.0 - 1e-3
    assert out["environment_value"] <= 1.0 - 1e-3
    assert abs(out["difference"]) <= 1e-5


# ---------------------------------------------------------------------------
# report format


def leaf_types(encoded):
    if isinstance(encoded, list):
        return set().union(*(leaf_types(v) for v in encoded)) if encoded else set()
    return {type(encoded)}


def entrywise(value):
    """The encoding of an array entry by entry, through its numpy scalars."""
    value = np.asarray(value)
    if value.ndim:
        return [entrywise(v) for v in value]
    return sc.encode(value[()])


def test_encode_complex_pairs_row_major():
    encoded = sc.encode(np.array([[1.0, 2.0j], [3.0, 4.0]], dtype=complex))
    assert encoded == [[[1.0, 0.0], [0.0, 2.0]], [[3.0, 0.0], [4.0, 0.0]]]
    assert leaf_types(encoded) == {float}


@pytest.mark.parametrize("value, want, leaf", [
    (np.array([[1.5, -2.0], [0.0, 3.25]]), [[1.5, -2.0], [0.0, 3.25]], float),
    (np.array([[1, -2], [0, 3]]), [[1, -2], [0, 3]], int),
    (np.array([True, False]), [True, False], bool),
    (np.array(2.5), 2.5, float),
    (np.array(7), 7, int),
    (np.array(True), True, bool),
    (np.array(1.0 - 2.0j), [1.0, -2.0], float),
    (np.array([1.0 + 1.0j], dtype=np.complex64), [[1.0, 1.0]], float),
])
def test_encode_numeric_arrays_to_python_leaves(value, want, leaf):
    encoded = sc.encode(value)
    assert encoded == want
    assert leaf_types(encoded) == {leaf}
    assert encoded == entrywise(value)


def test_report_matrices_are_complex_pair_leaves(tmp_path, capsys):
    spec = qubit_scenario(
        [
            {
                "task": "check",
                "variant": "kl",
                "code": "trivial",
                "channel": "dephase",
            }
        ]
    )
    path = tmp_path / "s.json"
    path.write_text(json.dumps(spec))
    code, report = run_json(["run", str(path)], capsys)
    assert code == 0
    sigma = report["tasks"][0]["output"]["coefficients"]["sigma"]
    leaf = sigma[0][0]
    assert isinstance(leaf, list) and len(leaf) == 2
    assert all(isinstance(part, float) for part in leaf)


def test_report_provenance_and_timings(capsys):
    code, report = run_json(["run", "poisoning", "--seed", "11"], capsys)
    assert code == 0
    prov = report["provenance"]
    assert prov["seed"] == 11
    assert prov["package"] == "constrained-recovery"
    assert "numpy_version" in prov and "python_version" in prov
    for task in report["tasks"]:
        assert task["wall_time_s"] >= 0.0
        assert task["tol"] > 0.0
    assert report["wall_time_s"] >= 0.0


def _without_wall_times(value):
    if isinstance(value, dict):
        return {k: _without_wall_times(v) for k, v in value.items() if k != "wall_time_s"}
    if isinstance(value, list):
        return [_without_wall_times(v) for v in value]
    return value


def test_json_report_is_one_line_of_the_library_report(capsys, monkeypatch):
    monkeypatch.delenv("CONSTRAINED_RECOVERY_SEED", raising=False)
    assert cli.main(["run", "poisoning"]) == 0
    out = capsys.readouterr().out
    assert out.endswith("\n") and out.count("\n") == 1
    want = sc.run_scenario(sc.load_scenario("poisoning"))
    assert _without_wall_times(json.loads(out)) == _without_wall_times(want)


def test_main_builds_its_parser_and_reads_the_version_once(capsys, monkeypatch):
    from importlib import metadata

    monkeypatch.delenv("CONSTRAINED_RECOVERY_SEED", raising=False)
    looked_up = []
    inner = metadata.version
    monkeypatch.setattr(metadata, "version", lambda name: looked_up.append(name) or inner(name))
    cli._build_parser.cache_clear()
    sc._package_version.cache_clear()
    reports = []
    for _ in range(2):
        assert cli.main(["run", "poisoning"]) == 0
        reports.append(_without_wall_times(json.loads(capsys.readouterr().out)))
    assert cli._build_parser.cache_info().misses == 1
    assert looked_up == ["constrained-recovery"]
    assert reports[0] == reports[1]


def test_out_of_memory_at_load_exit_2(tmp_path, capsys, monkeypatch):
    # an object whose construction runs out of memory ends the run with an
    # error line and exit 2, as a rejected scenario does, not with a traceback
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 32.0 GiB for an array")

    monkeypatch.setattr(sc.fermion_mod, "physical_algebra", exhausted)
    spec = dict(ring_scenario([{"task": "algebra", "variant": "blocks", "algebra": "whole"}]),
                algebras={"whole": {"kind": "region_even", "majoranas": [1, 2, 3, 4]}})
    path = tmp_path / "ring.json"
    path.write_text(json.dumps(spec))
    for args in (["run", str(path)], ["algebra", "center", "--scenario", str(path)]):
        assert cli.main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: algebra 'whole': out of memory (Unable to allocate 32.0 GiB for an array)\n"
        )


def test_a_gated_out_commutant_is_never_copied(monkeypatch):
    # the commutant of C 1 on d = 32 is all of M_32, 16 MiB of rows: its report
    # gives the dimension alone, and forms nothing of the size of the rows
    from constrained_recovery import algebra as alg

    full = alg.commutant(alg.generate_algebra([], 32))
    monkeypatch.setattr(alg, "commutant", lambda a: full)
    tracemalloc.start()
    out = sc._algebra_summary("commutant")({"algebra": None}, 1e-8, None)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert out == {"dimension": 1024, "ambient_dim": 32}
    assert peak < full._rows.nbytes / 100


def test_csv_format_is_a_flat_table(capsys):
    assert cli.main(["run", "poisoning", "--format", "csv"]) == 0
    out = capsys.readouterr().out
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["index", "task", "variant", "metric", "value", "tol"]
    metrics = {(r[1], r[3]) for r in rows[1:]}
    assert ("check", "verdict") in metrics
    assert ("fidelity", "recovery_value") in metrics
    assert all(len(r) == 6 for r in rows[1:])


def test_output_file_flag(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    assert cli.main(["run", "poisoning", "-o", str(out_path)]) == 0
    assert capsys.readouterr().out == ""
    report = json.loads(out_path.read_text())
    assert report["all_tasks_completed"] is True


# ---------------------------------------------------------------------------
# flags


def test_tol_override_reaches_the_checks(capsys):
    code, report = run_json(
        ["check", "superselection-kl", "--scenario", "poisoning", "--tol", "2.0"],
        capsys,
    )
    assert code == 0
    task = report["tasks"][0]
    assert task["tol"] == 2.0
    assert task["output"]["verdict"] == "correctable"


def test_seed_env_var_fallback(capsys, monkeypatch):
    monkeypatch.setenv("CONSTRAINED_RECOVERY_SEED", "42")
    code, report = run_json(["run", "poisoning"], capsys)
    assert code == 0
    assert report["provenance"]["seed"] == 42


def test_seed_flag_beats_env_var(capsys, monkeypatch):
    monkeypatch.setenv("CONSTRAINED_RECOVERY_SEED", "42")
    code, report = run_json(["run", "poisoning", "--seed", "7"], capsys)
    assert code == 0
    assert report["provenance"]["seed"] == 7


def test_malformed_seed_env_var_exit_1(capsys, monkeypatch):
    monkeypatch.setenv("CONSTRAINED_RECOVERY_SEED", "lots")
    assert cli.main(["run", "poisoning"]) == 1
    assert "must be an integer" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
def test_tol_must_be_positive_and_finite_exit_1(tol, capsys):
    """The schema requires a task tolerance > 0; --tol inf would call every
    residual small and nan would make every comparison indeterminate."""
    assert cli.main(["run", "poisoning", "--tol", tol]) == 1
    assert "argument --tol" in capsys.readouterr().err


def test_negative_seed_flag_exit_1(capsys):
    args = ["fidelity", "seesaw", "--scenario", "poisoning", "--noise", "poisoning"]
    args += ["--target", "parity_readout", "--rounds", "1", "--seed", "-2"]
    assert cli.main(args) == 1
    assert "argument --seed" in capsys.readouterr().err


def test_negative_seed_env_var_exit_1(capsys, monkeypatch):
    monkeypatch.setenv("CONSTRAINED_RECOVERY_SEED", "-1")
    assert cli.main(["run", "poisoning"]) == 1
    assert "CONSTRAINED_RECOVERY_SEED must be an integer >= 0" in capsys.readouterr().err


def test_constraint_flag_parse_errors_exit_1(capsys):
    assert (
        cli.main(
            [
                "fidelity",
                "optimal",
                "--scenario",
                "poisoning",
                "--constraint",
                "bogus",
            ]
        )
        == 1
    )
    assert (
        cli.main(
            [
                "fidelity",
                "optimal",
                "--scenario",
                "poisoning",
                "--constraint",
                "physical:only_one",
            ]
        )
        == 1
    )
    capsys.readouterr()


# ---------------------------------------------------------------------------
# reproducibility


def _scalar_leaves(value, prefix=""):
    if isinstance(value, dict):
        for key, inner in value.items():
            yield from _scalar_leaves(inner, f"{prefix}.{key}")
    elif isinstance(value, list):
        for i, inner in enumerate(value):
            yield from _scalar_leaves(inner, f"{prefix}[{i}]")
    elif isinstance(value, float):
        yield prefix, value


def test_round_trip_reproduces_numerics(capsys):
    code, first = run_json(["run", "poisoning"], capsys)
    assert code == 0
    recorded_seed = first["provenance"]["seed"]
    rerun_args = ["run", "poisoning"]
    if recorded_seed is not None:
        rerun_args += ["--seed", str(recorded_seed)]
    code, second = run_json(rerun_args, capsys)
    assert code == 0
    left = {k: v for t in first["tasks"] for k, v in _scalar_leaves(t["output"])}
    right = {k: v for t in second["tasks"] for k, v in _scalar_leaves(t["output"])}
    assert left.keys() == right.keys()
    for key, value in left.items():
        assert abs(value - right[key]) <= 1e-10, key


# ---------------------------------------------------------------------------
# one-shot subcommands


def test_check_filters_matching_scenario_tasks(capsys):
    code, report = run_json(
        ["check", "superselection-kl", "--scenario", "poisoning"], capsys
    )
    assert code == 0
    assert len(report["tasks"]) == 1
    assert report["tasks"][0]["output"]["verdict"] == "not_correctable"


def test_check_synthesizes_from_flags(capsys):
    code, report = run_json(
        [
            "check",
            "superselection-kl",
            "--scenario",
            "poisoning",
            "--channel",
            "poisoning",
            "--code",
            "ring",
        ],
        capsys,
    )
    assert code == 0
    task = report["tasks"][0]
    assert task["refs"] == {"code": "ring", "channel": "poisoning"}
    assert task["output"]["verdict"] == "not_correctable"


def test_fidelity_optimal_synthesized(capsys):
    code, report = run_json(
        [
            "fidelity",
            "optimal",
            "--scenario",
            "poisoning",
            "--noise",
            "poisoning",
            "--target",
            "parity_readout",
            "--state-code",
            "ring",
        ],
        capsys,
    )
    assert code == 0
    out = report["tasks"][0]["output"]
    assert out["status"] == "optimal"
    assert abs(out["value"] - 1.0 / np.sqrt(2.0)) <= 1e-4


def test_fidelity_environment_synthesized(capsys):
    code, report = run_json(
        [
            "fidelity",
            "environment",
            "--scenario",
            "poisoning",
            "--noise",
            "poisoning",
            "--target",
            "parity_readout",
            "--state-code",
            "ring",
        ],
        capsys,
    )
    assert code == 0
    out = report["tasks"][0]["output"]
    assert abs(out["value"] - 1.0 / np.sqrt(2.0)) <= 1e-4


def test_fidelity_seesaw_synthesized(capsys):
    code, report = run_json(
        [
            "fidelity",
            "seesaw",
            "--scenario",
            "poisoning",
            "--noise",
            "poisoning",
            "--target",
            "parity_readout",
            "--code",
            "ring",
            "--rounds",
            "2",
        ],
        capsys,
    )
    assert code == 0
    out = report["tasks"][0]["output"]
    assert out["status"] == "heuristic"
    assert 0.0 <= out["value"] <= 1.0 + 1e-9


def test_seesaw_draws_and_reports_the_scenario_seed():
    task = {
        "task": "fidelity",
        "variant": "seesaw",
        "noise": "dephase",
        "target": "ideal",
        "code": "trivial",
        "rounds": 1,
    }
    spec = qubit_scenario([task])
    spec["seed"] = 7
    first = sc.run_scenario(sc.load_scenario(spec))
    again = sc.run_scenario(sc.load_scenario(spec))
    out = first["tasks"][0]["output"]
    assert out["seed"] == first["provenance"]["seed"] == 7
    assert out["value"] == again["tasks"][0]["output"]["value"]
    override = sc.run_scenario(sc.load_scenario(spec), seed=11)
    assert override["tasks"][0]["output"]["seed"] == 11
    del spec["seed"]
    unseeded = sc.run_scenario(sc.load_scenario(spec))
    assert unseeded["tasks"][0]["output"]["seed"] == rc.SEESAW_DEFAULT_SEED


def test_fidelity_requires_noise_and_target_exit_1(capsys):
    assert cli.main(["fidelity", "optimal", "--scenario", "poisoning"]) == 1
    assert "--noise and --target" in capsys.readouterr().err


@pytest.mark.parametrize("given", [[], ["--p", "parity_readout"], ["--q", "parity_readout"]])
def test_is_physical_requires_p_and_q_exit_1(given, capsys):
    args = ["channel", "is-physical", "--scenario", "poisoning", "--channel", "poisoning"]
    assert cli.main(args + given) == 1
    assert "--p and --q" in capsys.readouterr().err


@pytest.mark.parametrize(
    "override",
    [
        {"tol": float("inf")},
        {"tol": float("nan")},
        {"tol": 0.0},
        {"tol": -1e-8},
        {"seed": -3},
        {"seed": 1.5},
        {"seed": True},
    ],
)
def test_run_scenario_refuses_overrides_outside_the_schema(override, monkeypatch):
    scenario = sc.load_scenario("poisoning")
    calls = []
    monkeypatch.setattr(rc, "superselection_kl_check", lambda *a, **k: calls.append(a))
    with pytest.raises(ValueError, match=next(iter(override))):
        sc.run_scenario(scenario, **override)
    assert calls == []


def test_algebra_commutant_and_blocks(tmp_path, capsys):
    spec = qubit_scenario(
        [{"task": "algebra", "variant": "commutant", "algebra": "diagonal"}]
    )
    path = tmp_path / "alg.json"
    path.write_text(json.dumps(spec))
    code, report = run_json(["algebra", "commutant", "--scenario", str(path)], capsys)
    assert code == 0
    out = report["tasks"][0]["output"]
    assert out["dimension"] == 2
    assert out["ambient_dim"] == 2

    code, report = run_json(
        ["algebra", "blocks", "--scenario", str(path), "--seed", "5"], capsys
    )
    assert code == 0
    out = report["tasks"][0]["output"]
    assert out["seed"] == 5
    assert sorted((s["left_dim"], s["right_dim"]) for s in out["sectors"]) == [
        (1, 1),
        (1, 1),
    ]


def test_channel_complement_one_shot(tmp_path, capsys):
    spec = qubit_scenario(
        [{"task": "check", "variant": "kl", "code": "trivial", "channel": "dephase"}]
    )
    path = tmp_path / "chan.json"
    path.write_text(json.dumps(spec))
    code, report = run_json(
        ["channel", "complement", "--scenario", str(path), "--channel", "dephase"],
        capsys,
    )
    assert code == 0
    out = report["tasks"][0]["output"]
    assert out["in_dim"] == 2
    assert out["out_dim"] == 2
    kraus = np.array(
        [[[complex(re, im) for re, im in row] for row in op] for op in out["kraus"]]
    )
    assert kraus.shape == (2, 2, 2)


def test_channel_is_physical_one_shot(capsys):
    code, report = run_json(
        [
            "channel",
            "is-physical",
            "--scenario",
            "poisoning",
            "--channel",
            "poisoning",
            "--p",
            "parity_readout",
            "--q",
            "parity_readout",
        ],
        capsys,
    )
    assert code == 0
    out = report["tasks"][0]["output"]
    assert out["physical"] is True
    assert out["residual"] <= 1e-8


def test_one_shot_report_names_the_bundled_scenario(capsys):
    code, report = run_json(
        ["check", "superselection-kl", "--scenario", "majorana_ring_n6"], capsys
    )
    assert code == 0
    assert report["scenario"]["source"] == "bundled:majorana_ring_n6"


def test_one_shot_report_names_the_scenario_file(tmp_path, capsys):
    spec = qubit_scenario(
        [{"task": "check", "variant": "kl", "code": "trivial", "channel": "dephase"}]
    )
    path = tmp_path / "chan.json"
    path.write_text(json.dumps(spec))
    code, report = run_json(
        ["channel", "complement", "--scenario", str(path), "--channel", "dephase"],
        capsys,
    )
    assert code == 0
    assert report["scenario"]["source"] == str(path)


CHECK = {"task": "check", "code": "trivial", "channel": "dephase"}
CHANNEL = {"task": "channel", "channel": "dephase"}


@pytest.mark.parametrize(
    "task, key",
    [
        (dict(CHECK, variant="tensor-local"), "dims"),
        (dict(CHECK, variant="superselection-kl"), "projectors"),
        (dict(CHECK, variant="fermion-local"), "region"),
        (
            {"task": "fidelity", "variant": "seesaw", "noise": "dephase", "target": "ideal"},
            "code",
        ),
        (dict(CHANNEL, variant="local-complement"), "algebra"),
        (dict(CHANNEL, variant="is-local", algebra="diagonal"), "second_algebra"),
        (dict(CHANNEL, variant="is-physical"), "p"),
    ],
)
def test_variant_specific_key_missing_rejected(task, key):
    with pytest.raises(sc.ScenarioError) as excinfo:
        sc.load_scenario(qubit_scenario([task]))
    assert f"{task['variant']} needs '{key}'" in str(excinfo.value)


# ---------------------------------------------------------------------------
# the task table, the schema and the parser agree


# one-shot flags of each task kind besides --scenario and the common flags
ONE_SHOT_FLAGS = {
    "algebra": {"--algebra"},
    "channel": {"--channel", "--algebra", "--second-algebra", "--p", "--q"},
    "check": {"--code", "--channel", "--projectors", "--dims", "--region"},
    "fidelity": {"--noise", "--target", "--state-code", "--constraint", "--code", "--rounds"},
}
COMMON_FLAGS = {"--scenario", "--tol", "--seed", "--format", "-o", "--output", "-h", "--help"}


def schema_task_branches():
    text = resources.files("constrained_recovery").joinpath("data/scenario.schema.json")
    schema = json.loads(text.read_text())
    return {
        branch["properties"]["task"]["const"]: branch
        for branch in schema["definitions"]["task"]["oneOf"]
    }


def test_task_table_matches_schema():
    branches = schema_task_branches()
    assert set(branches) == set(sc.TASKS)
    for kind, variants in sc.TASKS.items():
        properties = branches[kind]["properties"]
        assert properties["variant"]["enum"] == list(variants)
        required = set(branches[kind]["required"]) - {"task", "variant"}
        for spec in variants.values():
            assert set(spec.needs + spec.reads) <= set(properties), kind
            assert required <= set(spec.needs), kind


def test_one_shot_parser_matches_table():
    parser = cli._build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for kind, flags in ONE_SHOT_FLAGS.items():
        actions = sub.choices[kind]._actions
        assert {s for a in actions for s in a.option_strings} == flags | COMMON_FLAGS
        variant = next(a for a in actions if a.dest == "variant")
        assert list(variant.choices) == list(sc.TASKS[kind])
        keys = {key for spec in sc.TASKS[kind].values() for key in spec.needs + spec.reads}
        dests = {a.dest for a in actions if set(a.option_strings) & flags}
        assert dests == keys, kind


def test_local_complement_one_shot_defaults_to_the_only_algebra(tmp_path, capsys):
    spec = qubit_scenario(
        [{"task": "check", "variant": "kl", "code": "trivial", "channel": "dephase"}]
    )
    path = tmp_path / "one_algebra.json"
    path.write_text(json.dumps(spec))
    args = ["channel", "local-complement", "--scenario", str(path), "--channel", "dephase"]
    code, report = run_json(args, capsys)
    assert code == 0
    assert report["tasks"][0]["refs"] == {"channel": "dephase", "algebra": "diagonal"}

    del spec["algebras"]
    path.write_text(json.dumps(spec))
    assert cli.main(args) == 1
    assert "--algebra is required" in capsys.readouterr().err


def test_local_complement_task_builds_the_expectation_once(monkeypatch):
    from constrained_recovery import algebra as alg

    # the scenario's algebra keeps its sectors: two runs decompose it once
    task = dict(CHANNEL, variant="local-complement", algebra="diagonal")
    scenario = sc.load_scenario(qubit_scenario([task]))
    calls = []
    inner = alg._modules
    monkeypatch.setattr(alg, "_modules", lambda *a, **k: calls.append(a) or inner(*a, **k))
    want = sc.run_scenario(scenario)["tasks"][0]
    got = sc.run_scenario(scenario)["tasks"][0]
    assert len(calls) == 1
    assert got["completed"] and got["output"] == want["output"]


def test_six_tasks_on_one_algebra_decompose_it_once(monkeypatch):
    # the parity algebra of three modes keeps the sectors its first task
    # finds, and every later task reads them
    from constrained_recovery import algebra as alg

    doc = {
        "schema_version": 1, "name": "parity-tasks",
        "system": {"kind": "fermion", "modes": 3},
        "algebras": {"parity": {"kind": "parity"}},
        "channels": {"noise": {"kind": "geometric_noise", "max_support": 2},
                     "readout": {"kind": "parity_measurement"}},
        "codes": {"ring": {"kind": "majorana_ring", "unpaired": [1, 2], "pairing": [[3, 4], [5, 6]]}},
        "tasks": [{"task": "algebra", "variant": v, "algebra": "parity"}
                  for v in ("commutant", "center", "blocks")] + [
            {"task": "channel", "variant": "local-complement", "channel": "noise", "algebra": "parity"},
            {"task": "channel", "variant": "is-local", "channel": "noise", "algebra": "parity",
             "second_algebra": "parity"},
            {"task": "fidelity", "variant": "duality", "noise": "noise", "target": "readout",
             "state": {"kind": "code_mixed", "code": "ring"},
             "constraint": {"kind": "fixes", "algebra": "parity"}},
        ],
    }
    scenario = sc.load_scenario(doc)
    calls = []
    inner = alg._modules
    monkeypatch.setattr(alg, "_modules", lambda *a, **k: calls.append(a) or inner(*a, **k))
    report = sc.run_scenario(scenario)
    assert report["all_tasks_completed"] and len(report["tasks"]) == 6
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# demo


def test_demo_majorana_ring(tmp_path, capsys):
    saved = tmp_path / "ring.json"
    code, report = run_json(
        [
            "demo",
            "majorana-ring",
            "--modes",
            "4",
            "--unpaired",
            "1,4",
            "--save-scenario",
            str(saved),
        ],
        capsys,
    )
    assert code == 0
    variants = [t["variant"] for t in report["tasks"]]
    assert variants == ["kl", "superselection-kl", "fermion-local"]
    assert report["tasks"][1]["output"]["verdict"] == "correctable"
    reloaded = sc.load_scenario(str(saved))
    assert reloaded.name == "majorana-ring-n4"
    assert [t["variant"] for t in reloaded.tasks] == variants


def test_demo_odd_arc_rejected(capsys):
    assert (
        cli.main(["demo", "majorana-ring", "--modes", "4", "--unpaired", "1,3"]) == 2
    )
    assert "odd length" in capsys.readouterr().err


@pytest.mark.parametrize("unpaired", ["1,1,2,3", "1,9", "1,2,3"])
def test_demo_unpaired_positions_follow_the_majorana_index_rule(capsys, unpaired):
    # repeated, out-of-range and odd sets fail the one index-set rule
    assert cli.main(["demo", "majorana-ring", "--modes", "4", "--unpaired", unpaired]) == 2
    err = capsys.readouterr().err
    assert "unpaired positions: indices (" in err
    assert "are not an even number of distinct Majorana indices in 1..8" in err


def test_demo_spec_example_layout(capsys):
    """Six modes with unpaired positions 1,4,7,10 pairs the arcs as
    (2,3), (5,6), (8,9), (11,12)."""
    code, report = run_json(
        ["demo", "majorana-ring", "--modes", "6", "--unpaired", "1,4,7,10"],
        capsys,
    )
    assert code == 0
    assert report["scenario"]["name"] == "majorana-ring-n6"
    assert len(report["tasks"]) == 3
    assert report["all_tasks_completed"] is True


def test_import_loads_neither_jsonschema_nor_importlib_metadata():
    # modules already loaded at start-up (a site hook may load either) are
    # not the package's doing, so only the newly loaded ones count
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import constrained_recovery, constrained_recovery.cli\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "constrained_recovery.cli" in loaded
    assert not {m for m in loaded if m == "jsonschema" or m.startswith("jsonschema.")}
    assert "importlib.metadata" not in loaded


# ---------------------------------------------------------------------------
# console entry point


def test_console_script_installed():
    exe = shutil.which("constrained-recovery")
    assert exe is not None
    proc = subprocess.run(
        [exe, "run", "poisoning", "--format", "csv"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "index,task,variant,metric,value,tol"


# ---------------------------------------------------------------------------
# load-time refusals: each rule of a task's arguments is the library's, and
# the loader runs it before any task does

from constrained_recovery import channels as ch  # noqa: E402

Z4 = np.diag([1.0, 1.0, -1.0, -1.0])  # Z on the first of two qubits
EMBED = np.eye(4)[:, :2]  # the isometry of C^2 into C^4


def ququart_scenario(tasks):
    """Two qubits, with channels of every shape the refusals need: 4 -> 4,
    2 -> 2, 3 -> 3, 2 -> 4 and 4 -> 2 (the trace over the second qubit)."""
    root2 = np.sqrt(2.0)
    return {
        "schema_version": 1,
        "name": "two-qubits",
        "system": {"kind": "qudit", "dims": [2, 2]},
        "algebras": {"z": {"kind": "generated", "generators": [jmat(Z4)]}, "full": {"kind": "full"}},
        "channels": {
            "dephase": {"kind": "kraus", "operators": [jmat(np.eye(4) / root2), jmat(Z4 / root2)]},
            "ideal": {"kind": "identity"},
            "qubit_ideal": {"kind": "identity", "dim": 2},
            "wide": {"kind": "identity", "dim": 3},
            "embed": {"kind": "kraus", "operators": [jmat(EMBED)]},
            "discard": {
                "kind": "kraus",
                "operators": [jmat(np.kron(np.eye(2), np.eye(2)[j:j + 1])) for j in range(2)],
            },
        },
        "codes": {
            "pair": {"kind": "isometry", "isometry": jmat(EMBED)},
            "qubit": {"kind": "isometry", "isometry": jmat(np.eye(2))},
        },
        "tasks": tasks,
    }


def ring_scenario(tasks):
    return {
        "schema_version": 1,
        "name": "two-mode-ring",
        "system": {"kind": "fermion", "modes": 2},
        "channels": {"window": {"kind": "geometric_noise", "max_support": 2}},
        "codes": {"ring": {"kind": "majorana_ring", "unpaired": [1, 2], "pairing": [[3, 4]]}},
        "tasks": tasks,
    }


def kl(code, channel):
    return {"task": "check", "variant": "kl", "code": code, "channel": channel}


def fidelity(noise="dephase", target="ideal", **extra):
    return {"task": "fidelity", "variant": "optimal", "noise": noise, "target": target, **extra}


def state(matrix):
    return {"kind": "matrix", "matrix": jmat(matrix)}


def channel_task(variant, channel, **extra):
    return {"task": "channel", "variant": variant, "channel": channel, **extra}


def ring_region(region):
    return {"task": "check", "variant": "fermion-local", "code": "ring", "channel": "window",
            "region": region}


TWO_BLOCKS = [np.diag([1.0, 1.0, 0.0, 0.0]), np.diag([0.0, 0.0, 1.0, 1.0])]

# (scenario builder, task, the library function the task runs); the cases
# marked "drift" loaded at one time and then failed when they ran (exit 3)
REFUSED = {
    "kl noise input": (ququart_scenario, kl("pair", "wide"), (rc, "kl_check")),
    "kl noise output (drift)": (ququart_scenario, kl("qubit", "embed"), (rc, "kl_check")),
    "tensor-local dims": (
        ququart_scenario, dict(kl("pair", "dephase"), variant="tensor-local", dims=[2, 3]),
        (rc, "tensor_local_check"),
    ),
    "tensor-local noise off the first factor": (
        ququart_scenario, dict(kl("pair", "dephase"), variant="tensor-local", dims=[2, 2]),
        (rc, "tensor_local_check"),
    ),
    "superselection projector shape": (
        ququart_scenario,
        dict(kl("pair", "dephase"), variant="superselection-kl",
             projectors=[jmat(np.eye(2)), jmat(np.zeros((2, 2)))]),
        (rc, "superselection_kl_check"),
    ),
    "superselection noise output (drift)": (
        ququart_scenario,
        dict(kl("qubit", "embed"), variant="superselection-kl",
             projectors=[jmat(p) for p in TWO_BLOCKS]),
        (rc, "superselection_kl_check"),
    ),
    "fermion-local odd region (drift)": (ring_scenario, ring_region([1, 2, 3]),
                                         (rc, "fermion_local_check")),
    "fermion-local region out of range": (ring_scenario, ring_region([1, 9]),
                                          (rc, "fermion_local_check")),
    "fermion-local repeated region": (ring_scenario, ring_region([1, 1, 2, 3]),
                                      (rc, "fermion_local_check")),
    "fermion-local on qudits": (
        ququart_scenario, dict(kl("pair", "dephase"), variant="fermion-local", region=[1, 2]),
        (rc, "fermion_local_check"),
    ),
    "fidelity input dimensions": (ququart_scenario, fidelity(target="qubit_ideal"),
                                  (rc, "optimal_recovery_fidelity")),
    "state shape": (ququart_scenario, fidelity(state=state(np.eye(2) / 2)),
                    (rc, "optimal_recovery_fidelity")),
    "state not Hermitian": (
        ququart_scenario, fidelity(state=state(np.eye(4) / 4 + np.triu(np.ones((4, 4)), 1) / 4)),
        (rc, "optimal_recovery_fidelity"),
    ),
    "state trace": (ququart_scenario, fidelity(state=state(np.eye(4) / 2)),
                    (rc, "optimal_recovery_fidelity")),
    "state not PSD": (ququart_scenario, fidelity(state=state(np.diag([1.5, -0.5, 0.0, 0.0]))),
                      (rc, "optimal_recovery_fidelity")),
    "state barely not PSD (drift)": (
        ququart_scenario, fidelity(state=state(np.diag([1.0 + 5e-9, -5e-9, 0.0, 0.0]))),
        (rc, "optimal_recovery_fidelity"),
    ),
    "state code": (ququart_scenario, fidelity(state={"kind": "code_mixed", "code": "qubit"}),
                   (rc, "optimal_recovery_fidelity")),
    "physical q": (
        ququart_scenario,
        fidelity(constraint={"kind": "physical", "p": "ideal", "q": "qubit_ideal"}),
        (rc, "optimal_recovery_fidelity"),
    ),
    "physical p": (
        ququart_scenario,
        fidelity(constraint={"kind": "physical", "p": "qubit_ideal", "q": "ideal"}),
        (rc, "optimal_recovery_fidelity"),
    ),
    "fixes outputs": (
        ququart_scenario, fidelity(target="discard", constraint={"kind": "fixes", "algebra": "z"}),
        (rc, "optimal_recovery_fidelity"),
    ),
    "seesaw code": (
        ququart_scenario, dict(fidelity(), variant="seesaw", code="qubit"),
        (rc, "worst_case_fidelity_seesaw"),
    ),
    "local-complement algebra on the input (drift)": (
        ququart_scenario, channel_task("local-complement", "discard", algebra="z"),
        (ch, "_checked_local_complement"),
    ),
    "local-complement 3 -> 3": (
        ququart_scenario, channel_task("local-complement", "wide", algebra="z"),
        (ch, "_checked_local_complement"),
    ),
    "is-local algebra dimension": (
        ququart_scenario, channel_task("is-local", "qubit_ideal", algebra="z", second_algebra="z"),
        (ch, "is_local"),
    ),
    "is-local non-square channel (drift)": (
        ququart_scenario, channel_task("is-local", "discard", algebra="z", second_algebra="z"),
        (ch, "is_local"),
    ),
    "is-physical p": (
        ququart_scenario, channel_task("is-physical", "dephase", p="qubit_ideal", q="ideal"),
        (ch, "is_physical"),
    ),
    "is-physical q": (
        ququart_scenario, channel_task("is-physical", "discard", p="ideal", q="ideal"),
        (ch, "is_physical"),
    ),
}


@pytest.mark.parametrize("case", list(REFUSED))
def test_load_refuses_what_the_library_refuses(case, monkeypatch):
    build, task, (module, name) = REFUSED[case]
    calls = []
    monkeypatch.setattr(module, name, lambda *a, **k: calls.append(a))
    with pytest.raises(sc.ScenarioError, match="task 1"):
        sc.load_scenario(build([kl("pair", "dephase") if build is ququart_scenario
                                else ring_region([1, 2, 3, 4]), task]))
    assert calls == []


def test_local_complement_of_a_channel_into_a_larger_space():
    """The algebra of a local complement lives on the channel's output."""
    scenario = sc.load_scenario(
        ququart_scenario([channel_task("local-complement", "embed", algebra="z")])
    )
    (entry,) = sc.run_scenario(scenario)["tasks"]
    assert entry["completed"], entry["output"]
    assert entry["output"]["in_dim"] == 2
    assert entry["output"]["within_tol"]


def test_geometric_noise_refuses_allow_odd():
    spec = ring_scenario([ring_region([1, 2, 3, 4])])
    spec["channels"]["window"]["allow_odd"] = True
    with pytest.raises(sc.ScenarioError, match="schema violation"):
        sc.load_scenario(spec)
