"""Command-line experiment runner (``python -m repro``).

A pytest-free way to regenerate any of the paper's tables/figures, look
at a seeded run through the observability plane, or lint the tree.  This
module is only the registry and the loop around it — parse, run, render,
write; every command's flags, defaults and output live with the plane
that owns it (see :data:`EXPERIMENTS` and :data:`COMMANDS`).  The list of
commands and what each one takes is ``python -m repro --help``.

Every experiment command also writes a machine-readable
``BENCH_<name>.json`` artifact when ``--bench-dir`` (or the
``REPRO_BENCH_DIR`` environment variable) is set.
"""

from __future__ import annotations

import argparse
import importlib
import os
import sys
from typing import Iterable, List, Optional

from repro.harness.report import Report
from repro.obs.bench import BENCH_DIR_ENV

#: name -> "module:function"; the function takes the command's own
#: subparser, adds its flags and sets ``run`` (args -> Report).  These are
#: the experiments: ``all`` runs them in this order, and they share
#: ``--quick`` / ``--bench-dir``.
EXPERIMENTS = {
    "setup": "repro.harness.experiments:setup_command",
    "fig3": "repro.harness.experiments:fig3_command",
    "fig4": "repro.harness.experiments:fig4_command",
    "fig5": "repro.harness.experiments:fig5_command",
    "fig6": "repro.harness.experiments:fig6_command",
    "failover": "repro.harness.experiments:failover_command",
    "ablation": "repro.harness.experiments:ablation_command",
    "chain": "repro.harness.experiments:chain_command",
    "reintegrate": "repro.harness.experiments:reintegrate_command",
    "cluster": "repro.cluster.capacity:cluster_command",
    "adversary": "repro.adversary.matrix:adversary_command",
    "clients": "repro.clients.paths:clients_command",
}

#: Everything ``python -m repro`` answers to.  ``obs`` and ``lint`` bring
#: all of their own flags; ``lint``'s ``run`` prints its own findings and
#: returns the exit status instead of a Report.
COMMANDS = {
    **EXPERIMENTS,
    "obs": "repro.obs.views:obs_command",
    "lint": "repro.analysis.cli:lint_command",
}


def declaration(name: str):
    """The registered function that declares *name*'s flags; resolving it
    is what imports the command's plane."""
    module, _, attr = COMMANDS[name].partition(":")
    return getattr(importlib.import_module(module), attr)


def _shared_flags() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(
        add_help=False, prog="python -m repro", usage="%(prog)s command [flags]")
    shared.add_argument("--quick", action="store_true",
                        help="fewer sweep points / smaller streams")
    shared.add_argument("--bench-dir", default=None,
                        help="write BENCH_*.json artifacts to this directory")
    return shared


def build_parser(names: Iterable[str] = tuple(COMMANDS)) -> argparse.ArgumentParser:
    """The parser over *names* (default: every command, ``all`` included).
    Importing a command's plane is what building its subparser costs."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate the DSN'03 TCP-failover paper's experiments.",
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    commands = parser.add_subparsers(dest="command", metavar="command",
                                     required=True)
    shared = _shared_flags()
    usages = []
    for name in names:
        declare = declaration(name)
        sub = commands.add_parser(
            name, help=declare.__doc__, description=declare.__doc__,
            parents=[shared] if name in EXPERIMENTS else [],
        )
        declare(sub)
        usages.append(sub.format_usage())
    commands.add_parser("all", parents=[shared],
                        help="every experiment above, each at its defaults")
    parser.epilog = "".join(usages)
    return parser


def _shared_argv(args: argparse.Namespace) -> List[str]:
    """The shared flags of *args*, spelled back out."""
    argv = ["--quick"] * args.quick
    if args.bench_dir:
        argv += ["--bench-dir", args.bench_dir]
    return argv


def parse_args(argv: List[str]) -> argparse.Namespace:
    if argv and argv[0] not in COMMANDS:
        # `repro --quick setup`: the shared flags may come before the
        # command word.  Hand them to the command, whose parser decides.
        shared = _shared_flags()
        lead, rest = shared.parse_known_args(argv)
        if rest and rest[0].startswith("-") and rest[0] not in ("-h", "--help"):
            shared.error(f"{rest[0]} goes after the command word (only"
                         f" --quick and --bench-dir may come before it)")
        argv = rest + _shared_argv(lead)
    if argv[:1] == ["obs"] and (
        len(argv) == 1
        or argv[1].startswith("-") and argv[1] not in ("-h", "--help")
    ):
        # `repro obs [flags]` has always meant the report view.
        argv = ["obs", "report", *argv[1:]]
    # `repro setup` must not import (or depend on) the adversary plane:
    # when the first word names a command, only that subparser is built.
    # Anything else (--help, `all`, a typo) gets the full parser.
    names = [argv[0]] if argv and argv[0] in COMMANDS else COMMANDS
    parser = build_parser(names)
    args, stray = parser.parse_known_args(argv)
    if stray:
        # argparse blames leftovers on the top-level parser; say whose
        # flags they are not.
        parser.error(f"`{args.command}` does not take {' '.join(stray)}"
                     f" (see python -m repro {args.command} --help)")
    return args


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if args.command == "all":
        for name in EXPERIMENTS:
            main([name, *_shared_argv(args)])
        return 0
    outcome = args.run(args)
    if not isinstance(outcome, Report):
        return outcome
    print(outcome.render())
    if outcome.name:
        directory = args.bench_dir or os.environ.get(BENCH_DIR_ENV)
        if directory:
            print(f"[bench] wrote {outcome.write(directory)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
