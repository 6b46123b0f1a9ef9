"""Batch driver: load a module, initialize globals, invoke a function or
evaluate a snippet, and print results.

Exit codes: 0 success, 2 thrown exception, 3 error, 4 timeout, 5 unreadable
input, parse or validation failure, or a malformed command line.  Resource
exhaustion, which is not part of the bounded semantics, exits 70: a
host-stack guard trip, or the host running out of memory.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .fuel import HostStackGuard, call_with_stack
from .interp import Evaluator, IllFormedModule, InitError, TraceEntry, boundary_result
from .parser import ParseError, Parser, SourceFile, parse_expr, parse_module
from .render import render
from .syntax import ModuleDef, validate_expr
from .types import IllFormedValue, type_of
from .values import (
    UNDEF,
    Result,
    Success,
    Throw,
    Timeout,
    Value,
    budget,
    children,
    result_kind,
    result_to_tree,
    value_to_tree,
)

FUEL_ENV_VAR = "RASCAL_LIGHT_FUEL"

EXIT_OK = 0
EXIT_THROW = 2
EXIT_ERROR = 3
EXIT_TIMEOUT = 4
EXIT_BAD_INPUT = 5
EXIT_RESOURCE = 70


def _exit_code(res: Result) -> int:
    if isinstance(res, Success):
        return EXIT_OK
    if isinstance(res, Throw):
        return EXIT_THROW
    if isinstance(res, Timeout):
        return EXIT_TIMEOUT
    return EXIT_ERROR


def _render_result(res: Result) -> str:
    if isinstance(res, Success):
        return render(res.value)
    if isinstance(res, Throw):
        return "throw " + render(res.value)
    return result_kind(res)


class _Raw(str):
    """Text that ``_json_text`` copies as it stands."""


def _json_text(doc) -> str:
    """``json.dumps(doc)`` of a tree of dicts with string keys, lists and
    scalars, walked with a stack of its own.  ``json.dumps`` recurses on
    the C stack, which Python 3.12 and later bound apart from the recursion
    limit, so a deep value would not print; the pure-Python encoder resumes
    every enclosing generator for each piece it yields, so its time grows
    with the square of the depth."""
    out: list[str] = []
    todo = [doc]
    while todo:
        x = todo.pop()
        if type(x) is _Raw:
            out.append(x)
        elif isinstance(x, dict):
            out.append("{")
            todo.append(_Raw("}"))
            parts = [y for k, v in x.items() for y in (_Raw(", "), _Raw(json.dumps(k) + ": "), v)]
            todo += reversed(parts[1:])
        elif isinstance(x, list):
            out.append("[")
            todo.append(_Raw("]"))
            todo += reversed([y for v in x for y in (_Raw(", "), v)][1:])
        else:
            out.append(json.dumps(x))
    return "".join(out)


def _where(source: SourceFile | None, span) -> str:
    """Where a diagnostic points: ``path:line:col`` in a file, ``offset N``
    in text given on the command line."""
    return source.format_span(span) if source is not None else f"offset {span.start}"


def _refuse(*lines: str) -> int:
    """Print ``lines`` to stderr and return the exit code of bad input."""
    for line in lines:
        print(line, file=sys.stderr)
    return EXIT_BAD_INPUT


def _argument_fault(arg: Value, constructors) -> str | None:
    """Why no program could build ``arg``, or None.  A constructor or
    collection never holds ``<undefined>`` (E-Cons-Err and its kin), and
    every constructor must match its declaration."""
    stack = list(children(arg))
    while stack:
        v = stack.pop()
        if v == UNDEF:
            return "<undefined> inside a value"
        stack.extend(children(v))
    try:
        type_of(arg, constructors)
    except IllFormedValue as exc:
        return str(exc)
    return None


def _print_trace(t: TraceEntry) -> None:
    changed = (" [" + ", ".join(t.changed) + "]") if t.changed else ""
    print(f"{t.rule} @ {t.span.start}-{t.span.end} -> {t.kind}{changed}", file=sys.stderr)


class _ArgumentParser(argparse.ArgumentParser):
    """Usage errors exit 5, bad input: argparse's own 2 is a thrown
    exception's code.  Subparsers are of the same class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_BAD_INPUT, f"{self.prog}: error: {message}\n")


def _case_count(text: str) -> int:
    """``--cases``: an int of at least 1 (no cases would pass vacuously)."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, not {n}")
    return n


# Built at the first main() call, not at import, and kept: parsing leaves
# nothing behind in the parser, so every later call reuses it.
@functools.cache
def _build_arg_parser() -> argparse.ArgumentParser:
    ap = _ArgumentParser(
        prog="rascal-light",
        description="Run Rascal Light modules: call functions, evaluate "
        "snippets, and drive the metatheory property suites.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="load a module and run a call or snippet")
    run.add_argument("file", nargs="?", help="module file (.rsl); optional with --eval")
    what = run.add_mutually_exclusive_group()
    what.add_argument("--call", metavar="F(ARGS)", help="function call with value-literal arguments")
    what.add_argument("--eval", dest="eval_expr", metavar="EXPR", help="expression to evaluate in module scope")
    run.add_argument("--fuel", type=int, default=None, help=f"evaluation budget, a natural number (default: ${FUEL_ENV_VAR} or unbounded)")
    run.add_argument("--trace", action="store_true", help="print one line per rule firing to stderr")
    run.add_argument("--format", choices=("text", "tree"), default="text", help="output format")
    run.add_argument("--print-globals", action="store_true", help="also print the final global store")

    hz = sub.add_parser("harness", help="run a metatheorem property suite")
    hz.add_argument("--suite", required=True, choices=("purity", "typing", "progress", "termination"))
    hz.add_argument("--cases", type=_case_count, default=None, help="cases to run (default: the suite's full scale)")
    hz.add_argument("--seed", type=int, default=0)
    hz.add_argument("--artifacts", metavar="DIR", default=None, help="directory for minimized failure artifacts")
    return ap


def _cmd_run(args) -> int:
    fuel = args.fuel
    if fuel is None and os.environ.get(FUEL_ENV_VAR):
        try:
            fuel = int(os.environ[FUEL_ENV_VAR])
        except ValueError:
            return _refuse(f"invalid {FUEL_ENV_VAR} value")
    try:
        fuel = budget(fuel)
    except ValueError as exc:
        return _refuse(f"invalid fuel {fuel}: {exc}")

    # Every stage recurses over its input, so all of them run on the
    # large-stack worker: nesting deep enough to exhaust even its stack
    # exits 70, never with a traceback.
    def go() -> int:
        source: SourceFile | None = None
        if args.file:
            try:
                with open(args.file, "r", encoding="utf-8") as fh:
                    source = SourceFile(args.file, fh.read())
            except (OSError, UnicodeDecodeError) as exc:
                return _refuse(f"cannot read {args.file}: {exc}")
            try:
                module = parse_module(source)
            except ParseError as exc:
                return _refuse(f"{_where(source, exc.span)}: parse error: {exc.message}")
        else:
            module = ModuleDef()

        try:
            ev = Evaluator(module, trace=_print_trace if args.trace else None)
        except IllFormedModule as exc:
            return _refuse(*[f"{_where(source, err.span)}: {err.message}" for err in exc.errors])

        snippet = None
        if args.eval_expr is not None:
            try:
                snippet = parse_expr(args.eval_expr, module)
            except ParseError as exc:
                return _refuse(f"{_where(None, exc.span)}: parse error in --eval: {exc.message}")
            errs = validate_expr(snippet, ev.info)
            if errs:
                return _refuse(*[f"{_where(None, err.span)}: {err.message}" for err in errs])

        call = None
        if args.call is not None:
            # A call f(v, ...) has the shape of a constructor value literal.
            try:
                p = Parser(SourceFile("<call>", args.call))
                if not p.at("ident"):
                    p.expect("ident")
                call = p.parse_value()
                if not p.at("eof"):
                    raise p.error("trailing input after call")
            except ParseError as exc:
                return _refuse(f"{_where(None, exc.span)}: bad --call: {exc.message}")
            fd = ev.functions.get(call.name)
            if fd is None:
                return _refuse(f"unknown function {call.name!r}")
            if len(fd.params) != len(call.args):
                return _refuse(
                    f"function {call.name!r} expects {len(fd.params)} arguments, "
                    f"given {len(call.args)}"
                )
            for i, (arg, p) in enumerate(zip(call.args, fd.params), 1):
                fault = _argument_fault(arg, ev.constructors)
                if fault is not None:
                    where = f"argument {i} ({p.name}) of {call.name!r}"
                    return _refuse(f"bad --call: {where}: {fault}")

        store = ev.init_globals(fuel)
        res = None
        if call is not None:
            res, store = ev.call_function(call.name, call.args, store, fuel)
        elif snippet is not None:
            res, store = ev.evaluate(snippet, store, fuel)
            res = boundary_result(res)
        if args.format == "tree":
            doc = {"version": 1}
            if res is not None:
                doc.update(result_to_tree(res))
            if args.print_globals:
                doc["globals"] = {
                    g.name: value_to_tree(store.get(g.name)) for g in module.globals
                }
            lines = [_json_text(doc)]
        else:
            lines = [] if res is None else [_render_result(res)]
            if args.print_globals:
                lines += [f"global {g.name} = {render(store.get(g.name))}" for g in module.globals]

        for line in lines:
            print(line)
        return _exit_code(res) if res is not None else EXIT_OK

    try:
        return call_with_stack(go)
    except InitError as exc:
        if isinstance(exc.result, Timeout):
            print("timeout during module initialization", file=sys.stderr)
        else:
            print(f"module initialization failed at global {exc.name!r}", file=sys.stderr)
        return _exit_code(exc.result)
    except HostStackGuard as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except MemoryError:
        print("resource limit: out of memory", file=sys.stderr)
        return EXIT_RESOURCE


def _cmd_harness(args) -> int:
    from . import harness

    report = harness.run_suite(
        args.suite, cases=args.cases, seed=args.seed, artifacts_dir=args.artifacts
    )
    print(report.format())
    return 0 if report.ok else 1


def main(argv=None) -> int:
    try:
        args = _build_arg_parser().parse_args(argv)
    except SystemExit as exc:  # after --help (0) or a usage error (5)
        return exc.code
    if args.command == "run":
        return _cmd_run(args)
    return _cmd_harness(args)


if __name__ == "__main__":
    sys.exit(main())
