"""The untraced rule table against the traced one.

An evaluator without a trace sink runs ``interp._TWINS``, the twins that
``interp`` derives at import from the rule groups of ``_RULES`` and the
companion judgments.  On every program the dispatch tests run, the two
tables must reach the same results, stores and timeouts.  The traced table
itself is held to the recorded digests by ``test_dispatch``.
"""

from __future__ import annotations

import random
import traceback

import pytest

from conftest import program_path
from rascal_light import interp
from rascal_light import syntax as sx
from rascal_light.cli import main
from rascal_light.harness import GenBudget, gen_program, gen_store
from rascal_light.interp import Evaluator, TraceEntry, _UntracedEvaluator
from rascal_light.parser import load_module, parse_expr, parse_module, parse_value
from rascal_light.values import Store
from test_dispatch import CALL_MODULE, CALLS, FUELS, MAX_DEPTH, RULE_MODULE, RULE_ROWS, SEEDS

PROGRAMS = sorted({program for program, _ in CALLS if program is not None})


def _both(module):
    """A traced and an untraced evaluator of ``module``."""
    traced, untraced = Evaluator(module, trace=lambda entry: None), Evaluator(module)
    assert type(traced) is Evaluator and type(untraced) is _UntracedEvaluator
    return traced, untraced


def _outcome(run):
    """What a run gives, down to the order of the store's names."""
    res, out = run()
    return repr(res), [(k, repr(v)) for k, v in out.items()]


def _same(traced, untraced, method: str, *args) -> None:
    assert _outcome(lambda: getattr(untraced, method)(*args)) == _outcome(
        lambda: getattr(traced, method)(*args)
    ), (method, args)


def test_dispatch_programs_agree():
    for seed in SEEDS:
        module = gen_program(GenBudget(max_depth=MAX_DEPTH, seed=seed), "all")
        traced, untraced = _both(module)
        rng = random.Random(seed)
        for fd in module.functions:
            store = gen_store(rng, module, fd.params)
            args = tuple(store.get(p.name) for p in fd.params)
            for fuel in FUELS:
                _same(traced, untraced, "evaluate", fd.body, store, fuel)
                _same(traced, untraced, "call_function", fd.name, args, store, fuel)


def test_call_corpus_and_programs_agree():
    for program, call in CALLS:
        module = parse_module(CALL_MODULE) if program is None else load_module(program_path(program))
        traced, untraced = _both(module)
        store = traced.init_globals()
        assert untraced.init_globals() == store
        v = parse_value(call)
        for fuel in FUELS:
            _same(traced, untraced, "call_function", v.name, v.args, store, fuel)
    assert PROGRAMS == ["fixpoint.rsl", "infincrement.rsl", "knapsack.rsl", "prod.rsl", "simplifier.rsl"]


@pytest.mark.parametrize("program", PROGRAMS)
def test_cli_prints_the_same_with_and_without_trace(capsys, program):
    for _, call in (c for c in CALLS if c[0] == program):
        outs = []
        for trace in ([], ["--trace"]):
            code = main(["run", program_path(program), "--call", call, "--fuel", "10000", "--print-globals", *trace])
            outs.append((code, capsys.readouterr().out))
        assert outs[0] == outs[1], call


def test_rule_rows_agree():
    traced, untraced = _both(parse_module(RULE_MODULE))
    for _, row, _ in RULE_ROWS:
        if isinstance(row, tuple):
            _same(traced, untraced, "call_function", row[0], (), row[1])
        else:
            e = parse_expr(row, traced.module) if isinstance(row, str) else row
            _same(traced, untraced, "evaluate", e, Store())


def _names(code) -> set[str]:
    """The global and attribute names a code object and those nested in it
    read."""
    out = set(code.co_names)
    for c in code.co_consts:
        if hasattr(c, "co_names"):
            out |= _names(c)
    return out


def test_every_twin_is_untraced_and_on_its_original_lines():
    reading = {
        name
        for name, fn in vars(Evaluator).items()
        if hasattr(fn, "__code__") and {"fire", "_RULES"} & _names(fn.__code__)
    }
    # Every method that fires or dispatches has a twin, and no other.
    assert reading == set(interp._TWINNED)
    for name in interp._TWINNED:
        original, twin = vars(Evaluator)[name].__code__, vars(_UntracedEvaluator)[name].__code__
        assert not {"fire", "_RULES"} & _names(twin), name
        assert (twin.co_filename, twin.co_firstlineno) == (original.co_filename, original.co_firstlineno), name
    assert {cls: fn.__name__ for cls, fn in interp._TWINS.items()} == {
        cls: fn.__name__ for cls, fn in interp._RULES.items()
    }
    assert all(fn is vars(_UntracedEvaluator)[fn.__name__] for fn in interp._TWINS.values())


def test_a_twin_raises_from_its_original_line_and_column():
    frames = []
    for ev in _both(sx.ModuleDef()):
        with pytest.raises(TypeError, match="not an expression") as info:
            ev.eval_expr(sx.VarPat("x"), Store(), 5)
        last = traceback.extract_tb(info.value.__traceback__)[-1]
        frames.append((last.filename, last.lineno, last.name, last.line, getattr(last, "colno", None)))
    assert frames[0] == frames[1]
    assert frames[0][0] == interp.__file__


def test_setting_trace_switches_one_evaluator_both_ways():
    module = load_module(program_path("prod.rsl"))
    v = parse_value("prod([1, 2, 3])")
    expected: list[TraceEntry] = []
    store = Evaluator(module).init_globals()
    Evaluator(module, trace=expected.append).call_function(v.name, v.args, store)
    entries: list[TraceEntry] = []
    ev = Evaluator(module)
    assert type(ev) is _UntracedEvaluator and ev.trace is None
    ev.trace = entries.append
    assert type(ev) is Evaluator and ev.trace == entries.append
    first = ev.call_function(v.name, v.args, store)
    assert entries == expected
    ev.trace = None
    assert type(ev) is _UntracedEvaluator and ev.trace is None
    assert ev.call_function(v.name, v.args, store) == first
    assert entries == expected


SCANNED = '''    def f(self, e, store, cur, rule):
        x = _RULES[type(e)](self, e, store, 1), _STAR_RULES, myself.fire(1)
        if x:
            return self.fire("R", e.span, store, g((1, 2), [3, 4]), store.updated("a", {1: 2}))
        return self.fire(rule, span, cur, [x, (1,)],
                         cur.without(("a", "b")))
'''

UNTRACED = '''    def f(self, e, store, cur, rule):
        x = _TWINS[type(e)](self, e, store, 1), _STAR_RULES, myself.fire(1)
        if x:
            return (                             g((1, 2), [3, 4]), store.updated("a", {1: 2}))
        return (                          [x, (1,)],
                         cur.without(("a", "b")))
'''


def test_the_scan_rewrites_only_fire_calls_and_the_table_name():
    out = interp._untrace(SCANNED)
    assert out == UNTRACED
    # Every kept token stays on its line and column.
    for before, after in zip(SCANNED.split("\n"), out.split("\n")):
        assert len(after) == len(before)
        for token in ("g((1", "[x, (1,)]", "cur.without", "[type(e)]", "_STAR_RULES", "myself"):
            assert after.find(token) == before.find(token)


@pytest.mark.parametrize(
    "text",
    [
        'return self.fire(\n    "R", e.span, store, r, s1)\n',
        'return self.fire("R", e.span,\n                 store, r, s1)\n',
        'return self.fire("R", spans[0], store, r, s1)\n',
        'x = "self.fire("\n',
        # The old order, the result before the store it starts from.
        'return self.fire("E-Un-Exc", e.span, r, store, s1)\n',
    ],
)
def test_a_split_firing_head_is_refused(text):
    # A head off the convention would leave its rule and store in the
    # twin; what is left of ``self.fire(`` names the firing.
    with pytest.raises(SyntaxError, match=r"self\.fire\("):
        interp._untrace(text)


def test_without_source_there_are_no_twins():
    scope: dict = {}
    exec("class C:\n    def f(self):\n        return self.fire(1, 2, 3, 4, 5)\n", scope)
    assert interp._untraced_twins(scope["C"], ["f"]) == {}
