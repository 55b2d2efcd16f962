"""Command-line front end: check, lint, query, render, report.

Exit codes:
    0  success (including Deny query decisions; decisions are data)
    1  validation errors in the policy
    2  lint findings at error severity (warnings too with --deny-warnings)
    3  parse error
    4  usage error (bad flags, unknown ids, unreadable or non-UTF-8 files)

A policy file is read as UTF-8, and a leading byte-order mark is skipped, so
it shifts no line or column.  Output is UTF-8 with LF endings and contains no
timestamps or absolute paths, so repeated invocations are byte-identical.
Setting PPPM_NO_COLOR (or piping stdout) disables the severity coloring of
`lint`.

`main` loads the policy file once and hands the model to the command.  Each
command imports the modules it needs when it runs (`check` loads only the
parser and the model), because start-up dominates a one-shot run.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional, Sequence

from .conditions import ConditionError, ConditionSyntaxError, Value, parse_literal, parse_variable
from .dsl import LoweringError, ParseError, load_policy
from .model import PolicyModel, UnknownEntityError

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_LINT = 2
EXIT_PARSE = 3
EXIT_USAGE = 4

_COLORS = {"error": "\x1b[31m", "warning": "\x1b[33m", "info": "\x1b[36m"}
_RESET = "\x1b[0m"


class _CliExit(Exception):
    """Ends `main`: it writes `args[1]`, if not empty, to stderr and returns `args[0]`."""


class UsageError(_CliExit):
    def __init__(self, message: str) -> None:
        super().__init__(EXIT_USAGE, f"pppm: error: {message}")


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="pppm", description="Privacy policy permission model tool")
    sub = parser.add_subparsers(dest="command", metavar="command")

    p_check = sub.add_parser("check", help="parse and validate a policy file")
    p_check.add_argument("file")

    p_lint = sub.add_parser("lint", help="run the gap-analysis lints")
    p_lint.add_argument("file")
    p_lint.add_argument(
        "--rules",
        action="append",
        default=None,
        metavar="IDS",
        help="comma-separated rule ids to enable (default: all)",
    )
    p_lint.add_argument(
        "--deny-warnings",
        action="store_true",
        help="exit 2 on warnings as well as errors",
    )
    p_lint.add_argument(
        "--format",
        choices=("text", "tsv"),
        default="text",
        dest="fmt",
    )

    p_query = sub.add_parser("query", help="ask whether a role may access an attribute")
    p_query.add_argument("file")
    p_query.add_argument("--role", required=True)
    p_query.add_argument("--attribute", required=True)
    p_query.add_argument("--purpose", default=None)
    p_query.add_argument(
        "--ctx",
        action="append",
        default=[],
        metavar="NAME=VALUE",
        help="context binding; value is an integer, decimal, HH:MM, true/false, or quoted string",
    )

    p_render = sub.add_parser("render", help="emit the layered diagram as DOT text")
    p_render.add_argument("file")
    p_render.add_argument(
        "--layers",
        default="all",
        help="comma-separated subset of roles,purposes,attributes,role-purpose,purpose-attribute,all",
    )
    p_render.add_argument("--no-legend", action="store_true")
    p_render.add_argument("--no-group-clusters", action="store_true")
    p_render.add_argument("--out", default=None)

    p_report = sub.add_parser("report", help="emit the tabular report")
    p_report.add_argument("file")
    p_report.add_argument("--out", default=None)

    return parser


def _load_model(path: str) -> PolicyModel:
    """Read, parse, and lower a policy file; raises _CliExit on failure."""
    try:
        with open(path, "r", encoding="utf-8-sig") as handle:
            text = handle.read()
    except OSError as exc:
        raise _CliExit(EXIT_USAGE, f"cannot read {path}: {exc.strerror}")
    except UnicodeDecodeError as exc:
        raise _CliExit(EXIT_USAGE, f"cannot read {path}: {exc}")
    try:
        return load_policy(text)
    except ParseError as exc:
        raise _CliExit(EXIT_PARSE, f"{path}:{exc}")
    except LoweringError as exc:
        lines = [f"{path}:{d.span}: {d.message}" for d in exc.diagnostics]
        raise _CliExit(EXIT_VALIDATION, "\n".join(lines))


def _parse_ctx(bindings: list[str]) -> dict[str, Value]:
    ctx: dict[str, Value] = {}
    for binding in bindings:
        name, eq, value = binding.partition("=")
        if not eq:
            raise UsageError(f"invalid context binding {binding!r} (expected NAME=VALUE)")
        try:
            name = parse_variable(name)
        except ConditionSyntaxError:
            raise UsageError(f"invalid context variable {name!r} (expected a condition "
                             "variable: an identifier other than and, true or false)") from None
        if name in ctx:
            raise UsageError(f"context variable {name!r} bound twice")
        try:
            ctx[name] = parse_literal(value)
        except ConditionSyntaxError:
            raise UsageError(
                f"invalid context value {value!r} "
                "(expected integer, decimal, HH:MM, true/false, or a quoted string)"
            ) from None
    return ctx


def _write_output(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    except OSError as exc:
        raise _CliExit(EXIT_USAGE, f"cannot write {out}: {exc.strerror}")


def _cmd_lint(model: PolicyModel, args: argparse.Namespace) -> int:
    from .lints import LintConfig, format_findings, run_lints

    enabled = None
    if args.rules is not None:
        enabled = frozenset(r for chunk in args.rules for r in chunk.split(",") if r)
    try:
        config = LintConfig(enabled=enabled)
    except ValueError as exc:
        raise UsageError(str(exc))
    findings = run_lints(model, config)
    if args.fmt == "tsv":
        sys.stdout.write(format_findings(findings))
    else:
        color = sys.stdout.isatty() and not os.environ.get("PPPM_NO_COLOR")
        for f in findings:
            severity = f.severity
            if color:
                severity = f"{_COLORS[f.severity]}{f.severity}{_RESET}"
            sys.stdout.write(f"{f.rule} {severity} {f.subject}: {f.message}\n")
    if any(f.severity == "error" for f in findings):
        return EXIT_LINT
    if args.deny_warnings and any(f.severity == "warning" for f in findings):
        return EXIT_LINT
    return EXIT_OK


def _cmd_query(model: PolicyModel, args: argparse.Namespace) -> int:
    from .query import QueryEvaluationError, can_access

    ctx = _parse_ctx(args.ctx)
    try:
        decision = can_access(model, args.role, args.attribute, args.purpose, ctx)
    except (UnknownEntityError, QueryEvaluationError, ConditionError) as exc:
        raise UsageError(str(exc))
    sys.stdout.write(decision.describe() + "\n")
    return EXIT_OK


def _cmd_render(model: PolicyModel, args: argparse.Namespace) -> int:
    from .render import RenderOptions, emit_graph

    layers = tuple(part for part in args.layers.split(",") if part)
    options = RenderOptions(
        layers=layers,
        show_legend=not args.no_legend,
        cluster_groups=not args.no_group_clusters,
    )
    try:
        text = emit_graph(model, options)
    except ValueError as exc:
        raise UsageError(str(exc))
    _write_output(text, args.out)
    return EXIT_OK


def _cmd_report(model: PolicyModel, args: argparse.Namespace) -> int:
    from .render import emit_tables

    _write_output(emit_tables(model), args.out)
    return EXIT_OK


_COMMANDS = {
    "check": lambda model, args: EXIT_OK,
    "lint": _cmd_lint,
    "query": _cmd_query,
    "render": _cmd_render,
    "report": _cmd_report,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise UsageError("a command is required (check, lint, query, render, report)")
        return _COMMANDS[args.command](_load_model(args.file), args)
    except _CliExit as exc:
        code, message = exc.args
        if message:
            sys.stderr.write(message + "\n")
        return code


if __name__ == "__main__":
    raise SystemExit(main())
