"""Command-line interface.

Subcommands:

* ``hn <config>``: filtration only.
* ``cones <config>``: cone generators and the verified pairing matrix.
* ``seshadri <config>``: full report including per-divisor Seshadri data.
* ``examples [name]``: run the built-in fixtures against frozen digests.
* ``selftest``: oracle equivalence and the randomized invariant suite.

Exit codes: 0 success, 2 parse/validation error, 3 violated mathematical
precondition, 4 internal invariant failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .config import parse_config
from .errors import (
    EXIT_INTERNAL,
    EXIT_OK,
    FlagconesError,
    InputError,
)
from .report import emit, render_human, render_machine, run, run_cones, run_hn, worst_exit_code


def _load_config(path: str):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read config {path!r}: {exc}") from None
    return parse_config(text)


def _write(text: str) -> None:
    """Write ``text`` to stdout and flush.  A reader that stops early is no
    error: stdout then points at ``os.devnull``, so the flush at exit
    cannot raise ``BrokenPipeError`` again."""
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _cmd_report(args) -> int:
    doc = args.runner(_load_config(args.config))
    _write((render_machine if args.machine else render_human)(doc))
    return worst_exit_code(doc)


def _cmd_examples(args) -> int:
    from .gallery import FixtureOutcome, builtin_examples, check_fixture, find_fixture

    fixtures = [find_fixture(args.name)] if args.name else builtin_examples()
    results = [(fixture, *check_fixture(fixture)) for fixture in fixtures]
    if args.machine:
        outcomes = tuple(
            FixtureOutcome(fixture.name, ok, fixture.digest, actual)
            for fixture, _, actual, ok in results
        )
        lines = [emit(outcomes, tuple[FixtureOutcome, ...])]
    else:
        lines = [render_human(results[0][1])] if args.name else []
        width = max(len(fixture.name) for fixture, _, _, _ in results)
        for fixture, _, actual, ok in results:
            verdict = "PASS" if ok else "FAIL"
            condition = "holds" if actual.assumption_holds else "fails"
            lines.append(
                f"{verdict}  {fixture.name.ljust(width)}  slope {actual.slope}  "
                f"picard rank {actual.picard_rank}  divisibility {condition}"
            )
    _write("\n".join(lines) + "\n")
    if not all(ok for *_, ok in results):
        print("fixture digest mismatch", file=sys.stderr)
        return EXIT_INTERNAL
    return EXIT_OK


def _cmd_selftest(args) -> int:
    from .selftest import CheckResult, run_selftest

    results = run_selftest(seed=args.seed, trials=args.trials)
    if args.machine:
        lines = [emit(tuple(results), tuple[CheckResult, ...])]
    else:
        width = max(len(r.name) for r in results)
        lines = []
        for r in results:
            mark = "ok  " if r.ok else "FAIL"
            line = f"{mark}  {r.name.ljust(width)}  {r.trials} trials"
            if r.detail:
                line += f"  ({r.detail})"
            lines.append(line)
    _write("\n".join(lines) + "\n")
    if any(not r.ok for r in results):
        print("selftest failed", file=sys.stderr)
        return EXIT_INTERNAL
    return EXIT_OK


def positive_int(text: str) -> int:
    """argparse type: an integer of at least 1."""
    if int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected at least 1, got {text}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flagcones",
        description=(
            "Exact nef/curve cones and Seshadri constants of flag bundles "
            "built from Harder-Narasimhan data on a curve."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument(
            "--machine", action="store_true", help="structured JSON output"
        )

    for name, runner, help_text in (
        ("hn", run_hn, "filtration only"),
        ("cones", run_cones, "cone generators and pairing matrix"),
        ("seshadri", run, "full Seshadri report"),
    ):
        p_report = sub.add_parser(name, help=help_text)
        p_report.add_argument("config", help="path to a JSON problem config")
        add_common(p_report)
        p_report.set_defaults(func=_cmd_report, runner=runner)

    p_ex = sub.add_parser("examples", help="run built-in fixtures")
    p_ex.add_argument("name", nargs="?", help="run a single fixture by name")
    add_common(p_ex)
    p_ex.set_defaults(func=_cmd_examples)

    p_self = sub.add_parser("selftest", help="oracle equivalence + invariants")
    add_common(p_self)
    p_self.add_argument(
        "--seed", type=int, default=0, metavar="S", help="randomization seed"
    )
    p_self.add_argument(
        "--trials",
        type=positive_int,
        default=200,
        metavar="T",
        help="trials per randomized check (default 200)",
    )
    p_self.set_defaults(func=_cmd_selftest)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FlagconesError as exc:
        print(f"error [{type(exc).__name__}]: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
