"""Command-line interface.

    metallifts run <scenario-file> [--seed N] [--format text|structured]
    metallifts run --builtin NAME [...]
    metallifts run --list-builtin

Exit status is 0 when every check in the scenario passes, 1 when any
check fails or errors, 2 on usage or load problems.
"""

from __future__ import annotations

import argparse
import sys
from importlib import resources

from .report import DEFAULT_SEED, render_structured, render_text, run_scenario
from .scenario import Scenario, ScenarioError, load_scenario, parse_scenario
from .symexpr import parse_integer


def builtin_names() -> list[str]:
    root = resources.files("metallifts") / "scenarios"
    return sorted(p.name[:-len(".scn")] for p in root.iterdir()
                  if p.name.endswith(".scn"))


def load_builtin(name: str) -> Scenario:
    names = builtin_names()
    if name not in names:
        raise ScenarioError(f"no builtin scenario named {name!r}; "
                            f"available: {', '.join(names)}")
    path = resources.files("metallifts") / "scenarios" / f"{name}.scn"
    return parse_scenario(path.read_text(encoding="utf-8"), f"builtin:{name}")


def _seed(text: str) -> int:
    # argparse would quote the whole value of a ValueError.
    try:
        return parse_integer(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="metallifts")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="execute a scenario and report verdicts")
    run.add_argument("scenario_file", nargs="?", help="path to a scenario file")
    run.add_argument("--seed", type=_seed, default=DEFAULT_SEED,
                     help="seed for the numeric-corroboration sampler")
    run.add_argument("--format", choices=("text", "structured"), default="text",
                     help="report rendering (structured is deterministic JSON)")
    run.add_argument("--builtin", metavar="NAME",
                     help="run a bundled scenario instead of a file")
    run.add_argument("--list-builtin", action="store_true",
                     help="list bundled scenario names and exit")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

    if args.list_builtin:
        for name in builtin_names():
            print(name)
        return 0

    try:
        if args.builtin:
            scenario = load_builtin(args.builtin)
        elif args.scenario_file:
            scenario = load_scenario(args.scenario_file)
        else:
            print("error: provide a scenario file, --builtin NAME, or "
                  "--list-builtin", file=sys.stderr)
            return 2
    except (OSError, ScenarioError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    report = run_scenario(scenario, seed=args.seed)
    renderer = render_structured if args.format == "structured" else render_text
    sys.stdout.write(renderer(report, scenario.params))
    return 0 if report.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
