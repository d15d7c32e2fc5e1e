"""Command-line front end.

Every operation is a subcommand over a JSON experiment config.  The
named subcommands force their own check; `suite` runs a config (or a
directory of configs) exactly as written, which is also how custom check
lists are executed.  Exit codes: 0 all checks pass, 1 a mathematical
check failed, 2 config or usage error, 3 a numerical guard tripped.
The `BDF_MAX_DIM` environment variable raises the desk-scale dimension
guard.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .fixtures import list_fixtures
from .frames import GuardError
from .runner import ExperimentConfig, run, run_suite

__all__ = ["main", "entry"]

# subcommand -> (forced check, help)
_CHECK_COMMANDS = {
    "build-module": ("build-module", "build the submodule and quotient, report dimensions"),
    "jordan": ("jordan", "sweep the compressed-shift iterate identity over interior degrees"),
    "frame-check": ("frame-bounds", "frame bounds, classification, and kernel dimension"),
    "similarity": ("similarity",
                   "transport by a seeded random similarity and verify invariants"),
    "recover": ("recover", "read the quotient model back off the synthesis matrix"),
    "decay": ("decay", "adjoint orbit norms over the decay horizon"),
    "probe-conjecture": ("probe-conjecture", "forward orbit norms, recorded as evidence only"),
    "equiv-vector": ("equiv-vector", "re-seed with a commuting invertible map and compare"),
}

# exit code -> what stopped the run
_FAILURE = {2: "config error", 3: "guard tripped"}


def _add_common(parser: argparse.ArgumentParser, config_required: bool = True):
    parser.add_argument("--config", required=config_required, metavar="PATH",
                        help="JSON experiment config")
    parser.add_argument("--seed", type=int, default=None, metavar="N",
                        help="override the config seed")
    parser.add_argument("--out", default=None, metavar="PREFIX",
                        help="write report files under this path prefix")
    parser.add_argument("--format", choices=("json", "csv"), default=None,
                        help="report format (csv adds tabular mirrors)")


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bdf",
        description="numerical laboratory for shift pairs, frames of "
                    "iterates, and their quotient models on the bidisc",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, (check, help_text) in _CHECK_COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        _add_common(p)
        p.set_defaults(func=_cmd_checks, check=check)

    p = sub.add_parser("suite", help="run a config, or every config in a directory, as written")
    _add_common(p)
    p.set_defaults(func=_cmd_suite)

    p = sub.add_parser("list-fixtures", help="show the built-in example catalog")
    p.add_argument("filter", nargs="?", default=None,
                   help="keep entries whose name or summary contains this text")
    p.set_defaults(func=_cmd_list_fixtures)
    return parser


def _overrides(args) -> dict:
    return {"seed": args.seed, "output": args.out, "format": args.format}


def _report(outcome) -> int:
    for line in outcome.summary_lines:
        print(line)
    if outcome.files:
        print(f"wrote {len(outcome.files)} report files")
    return outcome.exit_code


def _cmd_checks(args) -> int:
    cfg = ExperimentConfig.from_file(args.config, checks=[args.check],
                                     **_overrides(args))
    return _report(run(cfg))


def _cmd_suite(args) -> int:
    path = Path(args.config)
    if path.is_dir():
        worst = 0
        for name, outcome in run_suite(path, **_overrides(args)):
            if outcome.error:
                print(f"{name}: {_FAILURE[outcome.exit_code]}: {outcome.error}",
                      file=sys.stderr)
            else:
                print(f"{name}: {'pass' if outcome.exit_code == 0 else 'FAIL'}")
            worst = max(worst, outcome.exit_code)
        return worst
    cfg = ExperimentConfig.from_file(path, **_overrides(args))
    return _report(run(cfg))


def _cmd_list_fixtures(args) -> int:
    for fixture in list_fixtures(args.filter):
        print(f"{fixture.name} (order {tuple(fixture.order)}): {fixture.summary}")
    return 0


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except GuardError as exc:
        print(f"{_FAILURE[3]}: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"{_FAILURE[2]}: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main(sys.argv[1:]))
