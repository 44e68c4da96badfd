"""Command-line interface for scenario runs and one-shot queries.

Every subcommand works against a scenario file (a path, or the name of
a bundled scenario): ``run`` executes the full task list, while each task
kind of :data:`scenario.TASKS` is a subcommand that runs a single kind of
task, either the matching tasks already declared in the scenario or one
synthesized from command-line flags.  A one-shot flag sets the task key
it is named after.  ``demo majorana-ring`` builds and runs a ring-code
scenario in one step.

Exit codes: 0 when every task completed (verdicts may still be
negative), 1 for usage errors, 2 for scenarios rejected by schema or
consistency validation or that ran out of memory while loading, 3 when a
task failed numerically.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
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


def _state_arg(name):
    return {"kind": "code_mixed", "code": name}


def _bounded(convert, accept, expected):
    """An argparse type: ``convert`` the text, then refuse what ``accept`` does not."""

    def parse(text):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not accept(value):
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
        return value

    return parse


# the schema's bounds on a task tolerance and on a scenario seed
_tolerance = _bounded(float, lambda x: math.isfinite(x) and x > 0, "a positive finite number")
_seed = _bounded(int, lambda n: n >= 0, "a non-negative integer")

# The one-shot flag of each task key: its spelling, help and other argparse
# keywords. Its dest is the key, so a given flag sets that key of a task.
_FLAGS = {
    "code": ("--code", "code name (default: the only one)", {}),
    "channel": ("--channel", "channel name (default: the only one)", {}),
    "algebra": ("--algebra", "algebra name (default: the only one)", {}),
    "second_algebra": ("--second-algebra", "containing algebra (default: the only one)", {}),
    "p": ("--p", "input-side idempotent channel of a physicality test", {}),
    "q": ("--q", "output-side idempotent channel of a physicality test", {}),
    "noise": ("--noise", "noise channel name", {}),
    "target": ("--target", "ideal channel name", {}),
    "state": ("--state-code", "the maximally mixed state of this code", {"type": _state_arg}),
    "constraint": (
        "--constraint",
        "'unconstrained', 'physical:P,Q', or 'fixes:ALGEBRA'",
        {"type": _constraint_arg},
    ),
    "rounds": ("--rounds", "alternation rounds of the worst-case search", {"type": int}),
    "projectors": (
        "--projectors", "projector family (files can give matrices)", {"choices": ("parity",)}
    ),
    "dims": ("--dims", "tensor factor dimensions, e.g. 2,2", {"type": _csv_ints}),
    "region": ("--region", "Majorana indices (default: the whole system)", {"type": _csv_ints}),
}


def _keys(kind):
    """Task keys that some variant of ``kind`` needs or reads, in table order."""
    variants = scenario_mod.TASKS[kind].values()
    return list(dict.fromkeys(key for v in variants for key in v.needs + v.reads))


def _add_common(parser):
    parser.add_argument(
        "--tol", type=_tolerance, help="override every task tolerance (positive, finite)"
    )
    parser.add_argument(
        "--seed",
        type=_seed,
        help=f"non-negative seed recorded in the report (fallback: ${_ENV_SEED})",
    )
    parser.add_argument(
        "--format",
        choices=("json", "csv"),
        default="json",
        help="report format (csv keeps only scalar verdicts and values)",
    )
    parser.add_argument("-o", "--output", help="write the report to this file instead of stdout")


@functools.cache
def _build_parser():
    """The argument parser, built on the first call and reused after it."""
    parser = _Parser(
        prog="constrained-recovery",
        description=(
            "Correctability checks and optimal recovery fidelities for "
            "channels under algebraic constraints."
        ),
    )
    sub = parser.add_subparsers(dest="command", metavar="command")
    sub.required = True

    run_p = sub.add_parser("run", help="run every task in a scenario (path or bundled name)")
    run_p.add_argument("scenario", help="scenario file path or bundled name")
    _add_common(run_p)

    for kind, variants in scenario_mod.TASKS.items():
        one = sub.add_parser(
            kind, help=f"run the scenario's {kind} tasks, or one built from the flags"
        )
        one.add_argument("variant", choices=list(variants))
        one.add_argument("--scenario", required=True)
        for key in _keys(kind):
            flag, text, keywords = _FLAGS[key]
            one.add_argument(flag, dest=key, help=text, **keywords)
        _add_common(one)

    demo = sub.add_parser("demo", help="build and run a prepared scenario")
    demo_sub = demo.add_subparsers(dest="demo_name", metavar="name")
    demo_sub.required = True
    ring = demo_sub.add_parser(
        "majorana-ring", help="ring code under geometric noise, checked three ways"
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
        "--save-scenario", dest="save_scenario", help="also write the generated scenario file here"
    )
    _add_common(ring)
    return parser


def _resolve_seed(args, parser):
    if args.seed is not None:
        return args.seed
    env = os.environ.get(_ENV_SEED)
    if env:
        try:
            return _seed(env)
        except argparse.ArgumentTypeError:
            parser.error(f"{_ENV_SEED} must be an integer >= 0, got {env!r}")
    return None


def _emit(report, args):
    if args.format == "csv":
        buffer = io.StringIO()
        csv.writer(buffer).writerows(scenario_mod.report_rows(report))
        text = buffer.getvalue()
    else:
        text = json.dumps(report) + "\n"
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)


def _finish(scenario, args, parser):
    seed = _resolve_seed(args, parser)
    report = scenario_mod.run_scenario(scenario, seed=seed, tol=args.tol)
    _emit(report, args)
    return 0 if report["all_tasks_completed"] else 3


def _only(table, key, parser):
    if len(table) == 1:
        return next(iter(table))
    parser.error(f"{_FLAGS[key][0]} is required (the scenario defines {len(table)} candidates)")


def _default(key, base, parser):
    """What a synthesized task takes for a needed key whose flag is left out.

    A code, the channel under test and the algebras default to the
    scenario's only one; the projectors to the parity sectors; a region to
    the whole fermion system. The noise and the target of a fidelity and
    the idempotent channels of a physicality test are never guessed: a
    missing one is a usage error that names both flags. Any other key
    stays out of the task, and the scenario check reports it missing.
    """
    if key in ("noise", "target"):
        parser.error("--noise and --target are required to synthesize a task")
    if key in ("p", "q"):
        parser.error("--p and --q are required to synthesize an is-physical task")
    if key in ("code", "channel", "algebra", "second_algebra"):
        kind = scenario_mod.REFERENCES[key]
        return _only(getattr(base, f"{kind}s"), key, parser)
    if key == "projectors":
        return "parity"
    if key == "region" and base.fermion_system is not None:
        return list(range(1, 2 * base.fermion_system.n_modes + 1))
    return None


def _synthesize(args, base, parser):
    """A task of the requested kind and variant made from the given flags."""
    needs = scenario_mod.TASKS[args.command][args.variant].needs
    task = {"task": args.command, "variant": args.variant}
    for key in _keys(args.command):
        value = getattr(args, key)
        if value is None and key in needs:
            value = _default(key, base, parser)
        if value is not None:
            task[key] = value
    return task


def _cmd_run(args, parser):
    return _finish(scenario_mod.load_scenario(args.scenario), args, parser)


def _cmd_demo(args, parser):
    spec = scenario_mod.ring_demo_scenario(
        args.modes, args.unpaired, args.pairing, args.max_support
    )
    if args.save_scenario:
        Path(args.save_scenario).write_text(json.dumps(spec, indent=2) + "\n")
    return _finish(scenario_mod.load_scenario(spec), args, parser)


def _one_shot(args, parser):
    """Run the scenario's tasks of the requested variant; when a task flag is
    given or there are none, run one task synthesized from the flags."""
    base = scenario_mod.load_scenario(args.scenario)
    tasks = []
    if all(getattr(args, key) is None for key in _keys(args.command)):
        wanted = (args.command, args.variant)
        tasks = [t for t in base.raw["tasks"] if (t["task"], t["variant"]) == wanted]
    tasks = tasks or [_synthesize(args, base, parser)]
    return _finish(scenario_mod.with_tasks(base, tasks), args, parser)


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    handler = {"run": _cmd_run, "demo": _cmd_demo}.get(args.command, _one_shot)
    try:
        return handler(args, parser)
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
