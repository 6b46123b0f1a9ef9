"""Batch driver: load a module, initialize globals, invoke a function or
evaluate a snippet, and print results.

Exit codes: 0 success, 2 thrown exception, 3 error, 4 timeout, 5 parse or
validation failure.  A host-stack guard trip (resource exhaustion, not part
of the bounded semantics) exits 70.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .fuel import HostStackGuard, call_with_stack
from .interp import Evaluator, IllFormedModule, InitError, TraceEntry, boundary_result
from .parser import ParseError, Parser, SourceFile, load_module, parse_expr
from .render import render
from .syntax import ModuleDef, validate_expr
from .values import (
    Result,
    Success,
    Throw,
    Timeout,
    TimeoutSignal,
    Value,
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


def parse_call_spec(text: str) -> tuple[str, tuple[Value, ...]]:
    """Parse ``f(value, ...)`` where arguments are value literals."""
    p = Parser(SourceFile("<call>", text))
    name = p.expect("ident").value
    p.expect("punct", "(")
    args: list[Value] = []
    if not p.at("punct", ")"):
        while True:
            args.append(p.parse_value())
            if p.at("punct", ","):
                p.advance()
                continue
            break
    p.expect("punct", ")")
    if not p.at("eof"):
        raise ParseError("trailing input after call", p.peek().span)
    return name, tuple(args)


def _diag(source: SourceFile | None, span, message: str) -> None:
    where = source.format_span(span) if source is not None else f"offset {span.start}"
    print(f"{where}: {message}", file=sys.stderr)


def _build_arg_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="rascal-light",
        description="Run Rascal Light modules: call functions, evaluate "
        "snippets, and drive the metatheory property suites.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="load a module and run a call or snippet")
    run.add_argument("file", nargs="?", help="module file (.rsl); optional with --eval")
    run.add_argument("--call", metavar="F(ARGS)", help="function call with value-literal arguments")
    run.add_argument("--eval", dest="eval_expr", metavar="EXPR", help="expression to evaluate in module scope")
    run.add_argument("--fuel", type=int, default=None, help=f"evaluation budget (default: ${FUEL_ENV_VAR} or unbounded)")
    run.add_argument("--trace", action="store_true", help="print one line per rule firing to stderr")
    run.add_argument("--format", choices=("text", "tree"), default="text", help="output format")
    run.add_argument("--print-globals", action="store_true", help="also print the final global store")

    hz = sub.add_parser("harness", help="run a metatheorem property suite")
    hz.add_argument("--suite", required=True, choices=("purity", "typing", "progress", "termination"))
    hz.add_argument("--cases", type=int, default=None, help="cases to run (default: the suite's full scale)")
    hz.add_argument("--seed", type=int, default=0)
    hz.add_argument("--artifacts", metavar="DIR", default=None, help="directory for minimized failure artifacts")
    return ap


def _cmd_run(args) -> int:
    fuel = args.fuel
    if fuel is None and os.environ.get(FUEL_ENV_VAR):
        try:
            fuel = int(os.environ[FUEL_ENV_VAR])
        except ValueError:
            print(f"invalid {FUEL_ENV_VAR} value", file=sys.stderr)
            return EXIT_BAD_INPUT

    source: SourceFile | None = None
    if args.file:
        try:
            with open(args.file, "r", encoding="utf-8") as fh:
                source = SourceFile(args.file, fh.read())
        except OSError as exc:
            print(f"cannot read {args.file}: {exc}", file=sys.stderr)
            return EXIT_BAD_INPUT
        try:
            module = load_module(args.file)
        except ParseError as exc:
            _diag(source, exc.span, f"parse error: {exc.message}")
            return EXIT_BAD_INPUT
    else:
        module = ModuleDef()

    trace_entries: list[TraceEntry] = []
    try:
        ev = Evaluator(module, trace=trace_entries.append if args.trace else None)
    except IllFormedModule as exc:
        for err in exc.errors:
            _diag(source, err.span, err.message)
        return EXIT_BAD_INPUT

    snippet = None
    if args.eval_expr:
        try:
            snippet = parse_expr(args.eval_expr, module)
        except ParseError as exc:
            _diag(None, exc.span, f"parse error in --eval: {exc.message}")
            return EXIT_BAD_INPUT
        errs = validate_expr(snippet, ev.info)
        if errs:
            for err in errs:
                _diag(None, err.span, err.message)
            return EXIT_BAD_INPUT

    call = None
    if args.call:
        try:
            call = parse_call_spec(args.call)
        except ParseError as exc:
            _diag(None, exc.span, f"bad --call: {exc.message}")
            return EXIT_BAD_INPUT
        fname, argvals = call
        fd = ev.functions.get(fname)
        if fd is None:
            print(f"unknown function {fname!r}", file=sys.stderr)
            return EXIT_BAD_INPUT
        if len(fd.params) != len(argvals):
            print(
                f"function {fname!r} expects {len(fd.params)} arguments, "
                f"given {len(argvals)}",
                file=sys.stderr,
            )
            return EXIT_BAD_INPUT

    def go():
        store = ev.init_globals(fuel)
        res = None
        if call is not None:
            res, store = ev.call_function(call[0], call[1], store, fuel)
        elif snippet is not None:
            res, store = ev.evaluate(snippet, store, fuel)
            res = boundary_result(res)
        # Rendering walks the whole result, so it needs this thread's stack too.
        if args.format == "tree":
            doc = {"version": 1}
            if res is not None:
                doc.update(result_to_tree(res))
            if args.print_globals:
                doc["globals"] = {
                    g.name: value_to_tree(store.get(g.name)) for g in module.globals
                }
            return res, [json.dumps(doc)]
        lines = [] if res is None else [_render_result(res)]
        if args.print_globals:
            lines += [f"global {g.name} = {render(store.get(g.name))}" for g in module.globals]
        return res, lines

    try:
        res, lines = call_with_stack(go)
    except InitError as exc:
        print(f"module initialization failed at global {exc.name!r}", file=sys.stderr)
        code = _exit_code(exc.result)
        return code if code != EXIT_OK else EXIT_ERROR
    except TimeoutSignal:
        print("timeout during module initialization", file=sys.stderr)
        return EXIT_TIMEOUT
    except HostStackGuard as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE

    if args.trace:
        for t in trace_entries:
            changed = (" [" + ", ".join(t.changed) + "]") if t.changed else ""
            print(f"{t.rule} @ {t.span.start}-{t.span.end} -> {t.kind}{changed}", file=sys.stderr)

    for line in lines:
        print(line)
    return _exit_code(res) if res is not None else EXIT_OK


def _cmd_harness(args) -> int:
    from . import harness

    report = harness.run_suite(
        args.suite, cases=args.cases, seed=args.seed, artifacts_dir=args.artifacts
    )
    print(report.format())
    return 0 if report.ok else 1


def main(argv=None) -> int:
    args = _build_arg_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    return _cmd_harness(args)


if __name__ == "__main__":
    sys.exit(main())
