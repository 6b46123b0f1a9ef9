"""Inside the evaluator a success is its value; at its boundaries it is a
``Success``.

Every judgment concludes with a result, ``success v`` or an exceptional
one.  The rule groups, in both tables, and the companion judgments conclude
``success v`` with the bare value ``v`` (a sequence judgment with a tuple
of values or an iterator of bindings), so a success rule builds nothing to
carry it.  The evaluation boundaries and the public operator functions give
every result as a ``Result``, a value as ``Success(v)``, timeouts included.
Both halves are checked over ``test_dispatch``'s program and call corpora,
traced and untraced.
"""

from __future__ import annotations

import collections
import random

import pytest

from conftest import program_path
from rascal_light import interp, traversal
from rascal_light import syntax as sx
from rascal_light.fuel import call_with_stack
from rascal_light.harness import GenBudget, gen_program, gen_store
from rascal_light.interp import Evaluator, _UntracedEvaluator, apply_binary, apply_unary
from rascal_light.parser import load_module, parse_module, parse_value
from rascal_light.values import Result, Success, Timeout
from test_dispatch import BINARY_OPS, CALL_MODULE, CALLS, FUELS, MAX_DEPTH, POOL, SEEDS, UNARY_OPS

# The methods that fire or dispatch other than the rule groups, which the
# two tables hold.
JUDGMENTS = tuple(name for name in interp._TWINNED if not name.startswith("_e_"))

TRACES = {"untraced": None, "traced": lambda entry: None}


@pytest.fixture
def conclusions(monkeypatch):
    """Wraps every rule group of ``_RULES`` and ``_TWINS``, as the harness
    tests' ``_install`` does, and every other judgment of both evaluator
    classes; gives the count of their conclusions by kind, ``Success``
    counted apart from every other result and from a bare value."""
    seen = collections.Counter()

    def checked(fn):
        def wrapper(*args):
            res, out = fn(*args)
            seen["Success" if isinstance(res, Success) else "result" if isinstance(res, Result) else "bare"] += 1
            return res, out

        return wrapper

    for table in (interp._RULES, interp._TWINS):
        for cls, fn in list(table.items()):
            monkeypatch.setitem(table, cls, checked(fn))
    for cls in (Evaluator, _UntracedEvaluator):
        for name in JUDGMENTS:
            monkeypatch.setattr(cls, name, checked(getattr(cls, name)))
    return seen


def _program_runs(ev: Evaluator, seed: int):
    """Each boundary of ``ev`` run on the functions of the generated program
    of ``seed``, and on its switches and visits with values of the store as
    subjects, at each of ``FUELS``: pairs of the boundary's name and its
    result."""
    rng = random.Random(seed)
    for fd in ev.module.functions:
        store = gen_store(rng, ev.module, fd.params)
        args = tuple(store.get(p.name) for p in fd.params)
        subjects = tuple(v for _, v in store.items())[:2]
        for fuel in FUELS:
            yield "evaluate", ev.evaluate(fd.body, store, fuel)[0]
            yield "call_function", ev.call_function(fd.name, args, store, fuel)[0]
            for e in sx.walk_exprs(fd.body):
                for v in subjects:
                    if isinstance(e, sx.Switch):
                        yield "run_cases", ev.run_cases(e.cases, v, store, fuel)[0]
                    elif isinstance(e, sx.Visit):
                        yield "eval_visit", traversal.eval_visit(ev, e.strategy, e.cases, v, store, fuel, e.span)[0]


def _call_runs(ev: Evaluator, call: str):
    store = ev.init_globals()
    v = parse_value(call)
    for fuel in FUELS:
        yield "call_function", ev.call_function(v.name, v.args, store, fuel)[0]


def _corpus_runs(trace):
    for seed in SEEDS:
        yield from _program_runs(Evaluator(gen_program(GenBudget(max_depth=MAX_DEPTH, seed=seed), "all"), trace), seed)
    for program, call in CALLS:
        module = parse_module(CALL_MODULE) if program is None else load_module(program_path(program))
        yield from _call_runs(Evaluator(module, trace), call)


@pytest.mark.parametrize("trace", TRACES.values(), ids=TRACES.keys())
def test_no_rule_group_concludes_with_a_success_object(conclusions, trace):
    # The wrappers double the frames of a derivation, which may be as deep
    # as the fuel, so the corpus runs on a worker with a large stack.
    kinds = collections.defaultdict(set)
    for boundary, res in call_with_stack(lambda: list(_corpus_runs(trace))):
        kinds[boundary].add(type(res))
    assert conclusions["Success"] == 0
    assert conclusions["bare"] > 10_000 and conclusions["result"] > 1_000
    # Every boundary gave a Result, successes and timeouts among them.
    assert set(kinds) == {"evaluate", "call_function", "run_cases", "eval_visit"}
    for boundary, types in kinds.items():
        assert all(issubclass(t, Result) for t in types), (boundary, types)
        assert {Success, Timeout} <= types, (boundary, types)


def test_the_operator_functions_give_results():
    for op in UNARY_OPS:
        for v in POOL:
            assert isinstance(apply_unary(op, v), Result), (op, v)
    for op in BINARY_OPS:
        for v1 in POOL:
            for v2 in POOL:
                assert isinstance(apply_binary(op, v1, v2), Result), (op, v1, v2)
