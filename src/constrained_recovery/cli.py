"""Command-line interface for scenario runs and one-shot queries.

Every subcommand works against a scenario file (a path, or the name of
a bundled scenario): ``run`` executes the full task list, while
``algebra``, ``channel``, ``check``, and ``fidelity`` run a single kind
of task, either the matching tasks already declared in the scenario or
one synthesized from command-line flags.  ``demo majorana-ring`` builds
and runs a ring-code scenario in one step.

Exit codes: 0 when every task completed (verdicts may still be
negative), 1 for usage errors, 2 for scenarios rejected by schema or
consistency validation, 3 when a task failed numerically.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from pathlib import Path

from . import scenario as scenario_mod

__all__ = ["main"]

_ENV_SEED = "CONSTRAINED_RECOVERY_SEED"


class _Parser(argparse.ArgumentParser):
    """Parser that exits with status 1 on usage errors (argparse uses 2,
    which is reserved for scenario validation failures here)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _csv_ints(text):
    try:
        return [int(part) for part in text.split(",") if part != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        ) from exc


def _pairing_arg(text):
    pairs = []
    for chunk in text.split(";"):
        parts = [p for p in chunk.split(",") if p != ""]
        if len(parts) != 2:
            raise argparse.ArgumentTypeError(
                f"expected pairs like '2,3;5,6', got {text!r}"
            )
        pairs.append([int(parts[0]), int(parts[1])])
    return pairs


def _constraint_arg(text):
    if text == "unconstrained":
        return {"kind": "unconstrained"}
    if text.startswith("physical:"):
        names = text[len("physical:"):].split(",")
        if len(names) != 2 or not all(names):
            raise argparse.ArgumentTypeError(
                "physical constraint needs two channel names: 'physical:P,Q'"
            )
        return {"kind": "physical", "p": names[0], "q": names[1]}
    if text.startswith("fixes:"):
        name = text[len("fixes:"):]
        if not name:
            raise argparse.ArgumentTypeError(
                "fixed-algebra constraint needs a name: 'fixes:ALGEBRA'"
            )
        return {"kind": "fixes", "algebra": name}
    raise argparse.ArgumentTypeError(
        "expected 'unconstrained', 'physical:P,Q', or 'fixes:ALGEBRA'"
    )


def _add_common(parser):
    parser.add_argument(
        "--tol", type=float, help="override every task tolerance"
    )
    parser.add_argument(
        "--seed",
        type=int,
        help=f"seed recorded in the report (fallback: ${_ENV_SEED})",
    )
    parser.add_argument(
        "--format",
        choices=("json", "csv"),
        default="json",
        help="report format (csv keeps only scalar verdicts and values)",
    )
    parser.add_argument(
        "-o",
        "--output",
        help="write the report to this file instead of stdout",
    )


def _build_parser():
    parser = _Parser(
        prog="constrained-recovery",
        description=(
            "Correctability checks and optimal recovery fidelities for "
            "channels under algebraic constraints."
        ),
    )
    sub = parser.add_subparsers(dest="command", metavar="command")
    sub.required = True

    run_p = sub.add_parser(
        "run", help="run every task in a scenario (path or bundled name)"
    )
    run_p.add_argument("scenario", help="scenario file path or bundled name")
    _add_common(run_p)

    alg = sub.add_parser("algebra", help="inspect a named algebra")
    alg.add_argument("variant", choices=("commutant", "center", "blocks"))
    alg.add_argument("--scenario", required=True)
    alg.add_argument("--algebra", help="algebra name (default: the only one)")
    _add_common(alg)

    chan = sub.add_parser("channel", help="transform or test a named channel")
    chan.add_argument(
        "variant",
        choices=("complement", "local-complement", "is-physical", "is-local"),
    )
    chan.add_argument("--scenario", required=True)
    chan.add_argument("--channel", help="channel name (default: the only one)")
    chan.add_argument("--algebra", help="algebra for locality variants")
    chan.add_argument(
        "--second-algebra",
        dest="second_algebra",
        help="containing algebra for is-local",
    )
    chan.add_argument("--p", help="output-side idempotent channel for is-physical")
    chan.add_argument("--q", help="input-side idempotent channel for is-physical")
    _add_common(chan)

    chk = sub.add_parser("check", help="algebraic correctability conditions")
    chk.add_argument(
        "variant",
        choices=("kl", "superselection-kl", "tensor-local", "fermion-local"),
    )
    chk.add_argument("--scenario", required=True)
    chk.add_argument("--code", help="code name (default: the only one)")
    chk.add_argument("--channel", help="channel name (default: the only one)")
    chk.add_argument(
        "--projectors",
        choices=("parity",),
        help="projector family for superselection-kl (files can give matrices)",
    )
    chk.add_argument(
        "--dims", type=_csv_ints, help="tensor factor dimensions, e.g. 2,2"
    )
    chk.add_argument(
        "--region",
        type=_csv_ints,
        help="Majorana indices for fermion-local (default: the whole system)",
    )
    _add_common(chk)

    fid = sub.add_parser("fidelity", help="optimal recovery fidelities")
    fid.add_argument(
        "variant", choices=("optimal", "environment", "duality", "seesaw")
    )
    fid.add_argument("--scenario", required=True)
    fid.add_argument("--noise", help="noise channel name")
    fid.add_argument("--target", help="ideal channel name")
    fid.add_argument(
        "--state-code",
        dest="state_code",
        help="average over this code's maximally mixed state",
    )
    fid.add_argument(
        "--constraint",
        type=_constraint_arg,
        help="'unconstrained', 'physical:P,Q', or 'fixes:ALGEBRA'",
    )
    fid.add_argument("--code", help="code for the seesaw variant")
    fid.add_argument("--rounds", type=int, help="seesaw alternation rounds")
    _add_common(fid)

    demo = sub.add_parser("demo", help="build and run a prepared scenario")
    demo_sub = demo.add_subparsers(dest="demo_name", metavar="name")
    demo_sub.required = True
    ring = demo_sub.add_parser(
        "majorana-ring",
        help="ring code under geometric noise, checked three ways",
    )
    ring.add_argument("--modes", type=int, required=True)
    ring.add_argument(
        "--unpaired",
        type=_csv_ints,
        required=True,
        help="unpaired Majorana positions, e.g. 1,4,7,10",
    )
    ring.add_argument(
        "--pairing",
        type=_pairing_arg,
        help="explicit pairing like '2,3;5,6' (default: pair along the ring)",
    )
    ring.add_argument("--max-support", dest="max_support", type=int, default=2)
    ring.add_argument(
        "--save-scenario",
        dest="save_scenario",
        help="also write the generated scenario file here",
    )
    _add_common(ring)
    return parser


def _resolve_seed(args, parser):
    if args.seed is not None:
        return args.seed
    env = os.environ.get(_ENV_SEED)
    if env:
        try:
            return int(env)
        except ValueError:
            parser.error(f"{_ENV_SEED} must be an integer, got {env!r}")
    return None


def _emit(report, args):
    if args.format == "csv":
        buffer = io.StringIO()
        csv.writer(buffer).writerows(scenario_mod.report_rows(report))
        text = buffer.getvalue()
    else:
        text = json.dumps(report, indent=2) + "\n"
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)


def _finish(scenario, args, parser):
    seed = _resolve_seed(args, parser)
    report = scenario_mod.run_scenario(scenario, seed=seed, tol=args.tol)
    _emit(report, args)
    return 0 if report["all_tasks_completed"] else 3


def _only(table, flag, parser):
    if len(table) == 1:
        return next(iter(table))
    parser.error(
        f"--{flag} is required (the scenario defines {len(table)} candidates)"
    )


def _cmd_run(args, parser):
    return _finish(scenario_mod.load_scenario(args.scenario), args, parser)


def _cmd_demo(args, parser):
    spec = scenario_mod.ring_demo_scenario(
        args.modes, args.unpaired, args.pairing, args.max_support
    )
    if args.save_scenario:
        Path(args.save_scenario).write_text(json.dumps(spec, indent=2) + "\n")
    return _finish(scenario_mod.load_scenario(spec), args, parser)


def _synth_algebra(args, base, parser):
    return {
        "task": "algebra",
        "variant": args.variant,
        "algebra": args.algebra or _only(base.algebras, "algebra", parser),
    }


def _synth_channel(args, base, parser):
    task = {
        "task": "channel",
        "variant": args.variant,
        "channel": args.channel or _only(base.channels, "channel", parser),
    }
    for key in ("algebra", "second_algebra", "p", "q"):
        value = getattr(args, key)
        if value is not None:
            task[key] = value
    return task


def _synth_check(args, base, parser):
    task = {
        "task": "check",
        "variant": args.variant,
        "code": args.code or _only(base.codes, "code", parser),
        "channel": args.channel or _only(base.channels, "channel", parser),
    }
    if args.variant == "superselection-kl":
        task["projectors"] = args.projectors or "parity"
    if args.dims is not None:
        task["dims"] = args.dims
    if args.region is not None:
        task["region"] = args.region
    elif args.variant == "fermion-local" and base.fermion_system is not None:
        task["region"] = list(range(1, 2 * base.fermion_system.n_modes + 1))
    return task


def _synth_fidelity(args, base, parser):
    if not args.noise or not args.target:
        parser.error("--noise and --target are required to synthesize a task")
    task = {
        "task": "fidelity",
        "variant": args.variant,
        "noise": args.noise,
        "target": args.target,
    }
    if args.variant == "seesaw":
        task["code"] = args.code or _only(base.codes, "code", parser)
        if args.rounds is not None:
            task["rounds"] = args.rounds
        return task
    if args.state_code:
        task["state"] = {"kind": "code_mixed", "code": args.state_code}
    if args.constraint is not None:
        task["constraint"] = args.constraint
    return task


_SYNTH = {
    "algebra": (_synth_algebra, ("algebra",)),
    "channel": (
        _synth_channel,
        ("channel", "algebra", "second_algebra", "p", "q"),
    ),
    "check": (_synth_check, ("code", "channel", "projectors", "dims", "region")),
    "fidelity": (
        _synth_fidelity,
        ("noise", "target", "state_code", "constraint", "code", "rounds"),
    ),
}


def _one_shot(args, parser):
    base = scenario_mod.load_scenario(args.scenario)
    synthesize, flags = _SYNTH[args.command]
    explicit = any(getattr(args, flag) is not None for flag in flags)
    matches = [] if explicit else [
        t
        for t in base.raw["tasks"]
        if t["task"] == args.command and t["variant"] == args.variant
    ]
    tasks = matches or [synthesize(args, base, parser)]
    return _finish(scenario_mod.with_tasks(base, tasks), args, parser)


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    handlers = {
        "run": _cmd_run,
        "demo": _cmd_demo,
        "algebra": _one_shot,
        "channel": _one_shot,
        "check": _one_shot,
        "fidelity": _one_shot,
    }
    try:
        return handlers[args.command](args, parser)
    except scenario_mod.ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:
        return int(exc.code or 0)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
