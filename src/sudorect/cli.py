"""Command-line front end.

Subcommands: check, decide, complete, construct, count, bounds.  Exit
codes: 0 success/affirmative, 1 well-formed negative (violation found, not
completable, not guaranteed, capped count), 2 usage or input errors,
and also an interrupt, exhausted memory, an exceeded recursion limit or
a write to stdout that fails (a closed pipe, a full disk), each reported
in one line and never as a traceback.  All
diagnostics go to stderr; stdout carries only grid/table payloads, so the
commands compose in pipes.  ``--format kv`` switches the reports to
machine-readable key=value lines.  ``bounds --k-max`` above
``BOUNDS_K_MAX_LIMIT`` is a usage error: the table's work grows as k_max².
So is ``construct --k`` above ``CONSTRUCT_K_LIMIT``: a construction's work
grows faster than k⁴.  Integers echoed in diagnostics are clipped, those
argparse cannot parse included, and so are the tokens argparse echoes in
its other usage errors, so each stays one short line.

The argparse parser is built once per process, on the first ``main`` call
and not at import, because building it takes about a millisecond, more
than many in-process commands take; ``main`` looks each handler up by name,
as ``_cmd_<command>``, when it runs, so a handler replaced after the parser
was built is the one that runs.
"""

from __future__ import annotations

import argparse
import errno
import functools
import os
import sys
from typing import Optional, Sequence

from .completion import (
    CompletionError,
    NotCompletable,
    complete,
    complete_randomized,
    decide_guaranteed,
)
from .constructions import ConstructionError, construct_counterexample
from .counting import (
    CountingError,
    bounds_table,
    count_completions,
)
from .grid import (
    GridError, ParseError, SudokuGrid, _clip, _echo, _squared, is_m_rectangle, parse, render, validate
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_ERROR = 2
BOUNDS_K_MAX_LIMIT = 1000
CONSTRUCT_K_LIMIT = 20


def _integer(token: str) -> int:
    """argparse's ``int``, with the token clipped in its error message."""
    try:
        return int(token)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {_clip(token)!r}") from None


class _Parser(argparse.ArgumentParser):
    """argparse, with the tokens it echoes in a usage error clipped as
    :func:`_integer` clips them: an unknown subcommand, an invalid choice
    and the unrecognised arguments."""

    def _check_value(self, action, value):
        if action.choices is not None and value not in action.choices:
            choices = ", ".join(map(repr, action.choices))
            raise argparse.ArgumentError(
                action, f"invalid choice: {_clip(value)!r} (choose from {choices})"
            )

    def parse_args(self, args=None, namespace=None):
        parsed, extras = self.parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {_clip(' '.join(extras))}")
        return parsed


def _read_grid(path: str) -> SudokuGrid:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError:
        raise ParseError(f"cannot read {path}: not UTF-8 text") from None
    return parse(text)


def _emit(text: str) -> None:
    out = sys.stdout
    if out is None:  # started with stdout closed: the interpreter sets it to None
        raise OSError(errno.EBADF, os.strerror(errno.EBADF))
    out.write(text)
    if not text.endswith("\n"):
        out.write("\n")


def _warn(text: str) -> None:
    sys.stderr.write(text + "\n")


def _cmd_check(args) -> int:
    grid = _read_grid(args.file)
    violation = validate(grid)
    k, n = grid.order.k, grid.order.n
    if violation is not None:
        first, second = violation.first, violation.second
        kv = (
            f"valid=false kind={violation.kind} first={first.row},{first.col}"
            f" second={second.row},{second.col}"
        )
        text = violation.describe()
    elif (shape := is_m_rectangle(grid)) is not None:
        kv = f"valid=true k={k} m={shape.m} l={shape.l} r={shape.r}"
        text = f"valid ({shape.m}×{n} rectangle, k={k}, l={shape.l}, r={shape.r})"
    else:
        kv = f"valid=true k={k}"
        text = f"valid (k={k}, {grid.filled_count}/{n ** 2} filled)"
    _emit(kv if args.format == "kv" else text)
    return EXIT_OK if violation is None else EXIT_NEGATIVE


def _cmd_decide(args) -> int:
    verdict = decide_guaranteed(args.k, args.m)
    if args.format == "kv":
        _emit(
            f"k={verdict.k} m={verdict.m} guaranteed={str(verdict.guaranteed).lower()}"
            f" reason={verdict.reason or 'none'}"
        )
    elif verdict.guaranteed:
        _emit(
            f"guaranteed: every valid {verdict.m}×{_squared(verdict.k)} rectangle "
            f"completes ({verdict.reason})"
        )
    else:
        _emit(
            f"not guaranteed: some valid {verdict.m}×{_squared(verdict.k)} rectangles "
            f"have no completion"
        )
    return EXIT_OK if verdict.guaranteed else EXIT_NEGATIVE


def _cmd_complete(args) -> int:
    grid = _read_grid(args.file)
    if args.seed is not None:
        outcome = complete_randomized(grid, args.seed)
    else:
        outcome = complete(grid)
    if isinstance(outcome, NotCompletable):
        values = ",".join(map(str, outcome.candidates)) or "none"
        _warn(
            "not completable: block ({},{}) columns {} admit only values {} "
            "(need {} each)".format(
                outcome.block.block_row,
                outcome.block.block_col,
                ",".join(map(str, outcome.columns)),
                values,
                outcome.quota,
            )
        )
        return EXIT_NEGATIVE
    _emit(render(outcome))
    return EXIT_OK


def _cmd_construct(args) -> int:
    if args.k > CONSTRUCT_K_LIMIT:
        _warn(f"need k <= {CONSTRUCT_K_LIMIT}, got {_echo(args.k)}")
        return EXIT_ERROR
    report = construct_counterexample(args.k, args.m)
    l, r = divmod(args.m, args.k)
    header = [
        f"# non-completable {args.m}×{report.rectangle.order.n} rectangle",
        f"# case: {report.case_used}  k={args.k} m={args.m} l={l} r={r}",
    ]
    if report.special_elements is not None:
        x, x1, x2 = report.special_elements
        header.append(f"# special elements: x={x} x1={x1} x2={x2}")
    payload = "\n".join(header) + "\n" + render(report.rectangle)
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(payload)
        except OSError as exc:
            _warn(f"cannot write {args.output}: {exc.strerror or exc}")
            return EXIT_ERROR
    else:
        _emit(payload)
    return EXIT_OK


def _cmd_count(args) -> int:
    grid = _read_grid(args.file)
    result = count_completions(
        grid, max_nodes=args.max_nodes, max_solutions=args.max_solutions
    )
    if args.format == "kv":
        _emit(
            f"count={result.count} exhausted={str(result.exhausted).lower()}"
            f" nodes={result.nodes_visited}"
        )
    else:
        _emit(str(result.count))
    if result.exhausted:
        return EXIT_OK
    _warn(f"search capped after {result.nodes_visited} nodes; count is partial")
    return EXIT_NEGATIVE


def _cmd_bounds(args) -> int:
    if args.k_max > BOUNDS_K_MAX_LIMIT:
        _warn(f"need k_max <= {BOUNDS_K_MAX_LIMIT}, got {_echo(args.k_max)}")
        return EXIT_ERROR
    reports = bounds_table(args.k_max)
    if args.format == "kv":
        for report in reports:
            _emit(
                f"{report.k} {report.n} {report.log_lower:.6f} {report.log_upper:.6f}"
                f" {report.ratio_lower:.6f} {report.ratio_upper:.6f}"
            )
        return EXIT_OK
    _emit(f"{'k':>5} {'n':>8} {'ratio_lower':>12} {'ratio_upper':>12}")
    for report in reports:
        _emit(
            f"{report.k:>5} {report.n:>8} {report.ratio_lower:>12.6f} {report.ratio_upper:>12.6f}"
        )
    return EXIT_OK


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sudorect",
        description="Sudoku rectangle completion, constructions and counting bounds",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="validate a grid file")
    p.add_argument("file")
    p.add_argument("--format", choices=("text", "kv"), default="text")

    p = sub.add_parser("decide", help="is every m-row rectangle completable?")
    p.add_argument("--k", type=_integer, required=True)
    p.add_argument("--m", type=_integer, required=True)
    p.add_argument("--format", choices=("text", "kv"), default="text")

    p = sub.add_parser("complete", help="complete a rectangle or reject it")
    p.add_argument("file")
    p.add_argument("--seed", type=_integer, default=None,
                   help="shuffle candidate orders (deterministic per seed)")

    p = sub.add_parser("construct", help="emit a non-completable rectangle")
    p.add_argument("--k", type=_integer, required=True)
    p.add_argument("--m", type=_integer, required=True)
    p.add_argument("-o", "--output", default=None)

    p = sub.add_parser("count", help="count completions by backtracking")
    p.add_argument("file")
    p.add_argument("--max-nodes", type=_integer, default=None)
    p.add_argument("--max-solutions", type=_integer, default=None)
    p.add_argument("--format", choices=("text", "kv"), default="text")

    p = sub.add_parser("bounds", help="counting-bound ratio table")
    p.add_argument("--k-max", type=_integer, required=True)
    p.add_argument("--format", choices=("text", "kv"), default="text")

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        code = globals()[f"_cmd_{args.command}"](args)
        if sys.stdout is not None:
            sys.stdout.flush()
        return code
    except ParseError as exc:
        _warn(f"parse error: {exc}")
        return EXIT_ERROR
    except (GridError, CompletionError, ConstructionError, CountingError, ValueError) as exc:
        _warn(str(exc))
        return EXIT_ERROR
    except KeyboardInterrupt:
        _warn("interrupted")
        return EXIT_ERROR
    except MemoryError:
        _warn("out of memory")
        return EXIT_ERROR
    except RecursionError:
        _warn("recursion limit exceeded")
        return EXIT_ERROR
    except OSError as exc:  # stdout refused the payload: a closed pipe, a full disk
        _warn(f"cannot write to stdout: {exc.strerror or exc}")
        _drop_stdout()
        return EXIT_ERROR


def _drop_stdout() -> None:
    """Point stdout's descriptor at the null device, so that the
    interpreter's final flush of what is still buffered cannot fail again
    and print more than the one diagnostic."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, ValueError):  # an in-process stream without one
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


if __name__ == "__main__":
    sys.exit(main())
