"""The table-dispatched evaluator against the behaviour it replaced.

``dispatch_digests.json`` holds, for every generated program below, one
digest of the rule firings (rule, span, result kind, changed names), the
result and the final store of evaluating each function body, with ample
fuel and with budgets small enough to time out.  The digests were recorded
with the ``isinstance``-chain evaluator that preceded the rule table; the
evaluator must reproduce them exactly.

The generated bodies never reach the success path of a call, so
``call_digests.json`` holds the same digests of whole calls through
``call_function``: the example programs' calls, and calls that succeed,
throw in the callee or in an argument, and look up a present map key.
They were recorded with the comparator-based value order that preceded
``value_key``.

To record both files afresh from a checkout, run
``PYTHONPATH=src python tests/test_dispatch.py``.
"""

from __future__ import annotations

import ast
import hashlib
import inspect
import json
import os
import random
import re
import sys

import pytest

from conftest import program_path
from rascal_light import interp, traversal
from rascal_light import syntax as sx
from rascal_light.harness import GenBudget, gen_program, gen_store
from rascal_light.interp import Evaluator, apply_binary, apply_unary
from rascal_light.parser import load_module, parse_expr, parse_module, parse_value
from rascal_light.values import (
    Basic,
    ERROR,
    FALSE,
    Store,
    Success,
    TIMEOUT,
    TRUE,
    Throw,
    UNDEF,
    VCons,
    VList,
    VMap,
    VSet,
    value_order,
    vbool,
)

DIGESTS = os.path.join(os.path.dirname(__file__), "dispatch_digests.json")
CALL_DIGESTS = os.path.join(os.path.dirname(__file__), "call_digests.json")
SEEDS = range(200)
MAX_DEPTH = 4
FUELS = (10_000, 1, 4, 16)


def _recorder(h):
    """A trace function that adds each rule firing to the digest ``h``."""

    def record(entry):
        span = entry.span
        h.update(f"{entry.rule}|{span.start}:{span.end}|{entry.kind}|{','.join(entry.changed)}\n".encode())

    return record


def _add_outcome(h, res, out) -> None:
    h.update(f"= {res!r}\n".encode())
    h.update(f"~ {sorted((k, repr(v)) for k, v in out.items())!r}\n".encode())


def program_digest(seed: int) -> str:
    """Digest of the firings, results and final stores of evaluating every
    function body of one generated program."""
    module = gen_program(GenBudget(max_depth=MAX_DEPTH, seed=seed), "all")
    h = hashlib.sha256()
    ev = Evaluator(module, trace=_recorder(h))
    rng = random.Random(seed)
    for fd in module.functions:
        store = gen_store(rng, module, fd.params)
        for fuel in FUELS:
            _add_outcome(h, *ev.evaluate(fd.body, store, fuel))
    return h.hexdigest()


CALL_MODULE = """
int twice(int n) = n + n;
int quad(int n) = twice(twice(n));
int boom(int n) = throw n;
int uncaught(int n) = boom(n) + 1;
int argthrows(int n) = twice(throw n);
str label(map<int, str> m, int k) = m[k];
"""

# (program file, or None for CALL_MODULE; call with value-literal arguments)
CALLS = (
    ("simplifier.rsl", "simplify(plus(plus(intlit(0), plus(intlit(0), intlit(5))), "
     "plus(plus(intlit(3), intlit(0)), plus(intlit(0), plus(intlit(7), intlit(0))))))"),
    ("fixpoint.rsl", "fix()"),
    ("knapsack.rsl", "slowknapsack({item(1, 60), item(2, 100), item(3, 120)}, 5)"),
    ("prod.rsl", "prod([1, 2, 0, 3])"),
    ("prod.rsl", "prod([1, 2, 3])"),
    ("infincrement.rsl", "infincrement(zero())"),
    ("infincrement.rsl", "infincrement(succ(zero()))"),
    (None, "quad(3)"),
    (None, "uncaught(4)"),
    (None, "argthrows(5)"),
    (None, 'label((1: "a", 2: "b"), 2)'),
)


def call_digest(program: str | None, call: str) -> str:
    """Digest of the firings, results and final stores of one call, from
    the module's initial globals, at each of ``FUELS``."""
    if program is None:
        module = parse_module(CALL_MODULE)
    else:
        module = load_module(program_path(program))
    h = hashlib.sha256()
    ev = Evaluator(module, trace=_recorder(h))
    store = ev.init_globals()
    v = parse_value(call)
    for fuel in FUELS:
        _add_outcome(h, *ev.call_function(v.name, v.args, store, fuel))
    return h.hexdigest()


def _call_label(program: str | None, call: str) -> str:
    return f"{program or 'CALL_MODULE'}: {call}"


def test_trace_digests_match_the_recorded_evaluator():
    with open(DIGESTS, encoding="utf-8") as fh:
        recorded = json.load(fh)
    assert (recorded["max_depth"], recorded["fuels"]) == (MAX_DEPTH, list(FUELS))
    expected = recorded["digests"]
    assert len(expected) == len(SEEDS)
    differ = [s for s in SEEDS if program_digest(s) != expected[s]]
    assert differ == []


def test_call_digests_match_the_recorded_evaluator():
    with open(CALL_DIGESTS, encoding="utf-8") as fh:
        recorded = json.load(fh)
    assert recorded["fuels"] == list(FUELS)
    assert list(recorded["digests"]) == [_call_label(*c) for c in CALLS]
    differ = [c for c in CALLS if call_digest(*c) != recorded["digests"][_call_label(*c)]]
    assert differ == []


def test_unbounded_evaluation_runs_the_fueled_rules():
    # No budget is an unbounded one: wherever fuel 10^6 suffices, both
    # entry points fire the same rules and end with the same result and
    # store without a budget.
    compared = 0
    for seed in SEEDS:
        module = gen_program(GenBudget(max_depth=MAX_DEPTH, seed=seed), "all")
        firings = []
        ev = Evaluator(module, trace=firings.append)
        rng = random.Random(seed)
        for fd in module.functions:
            store = gen_store(rng, module, fd.params)
            args = tuple(store.get(p.name) for p in fd.params)
            for entry in ("evaluate", "call_function"):
                runs = []
                for fuel in (10**6, None):
                    firings.clear()
                    if entry == "evaluate":
                        res, out = ev.evaluate(fd.body, store, fuel)
                    else:
                        res, out = ev.call_function(fd.name, args, store, fuel)
                    runs.append((list(firings), res, list(out.items())))
                if runs[0][1] != TIMEOUT:
                    assert runs[1] == runs[0], (seed, fd.name, entry)
                    compared += 1
    assert compared > 800


# ---------------------------------------------------------------------------
# Rule names


def literal_strings(*modules) -> set[str]:
    """Every string constant in the source of ``modules``."""
    return {
        node.value
        for m in modules
        for node in ast.walk(ast.parse(inspect.getsource(m)))
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    }


def _fired_rules(monkeypatch) -> set[str]:
    """The set to which, from now on, each fired rule's name is added: every
    evaluator built meanwhile gets a trace sink that adds it, after the
    sink the evaluator was given, if any."""
    fired = set()
    init = Evaluator.__init__

    def recording_init(ev, module, trace=None):
        def record(entry):
            fired.add(entry.rule)
            if trace is not None:
                trace(entry)

        init(ev, module, record)

    monkeypatch.setattr(Evaluator, "__init__", recording_init)
    return fired


def test_call_corpus_reaches_the_success_and_exception_paths_of_calls(monkeypatch):
    fired = _fired_rules(monkeypatch)
    for call in CALLS:
        call_digest(*call)
    assert {"E-Call-Sucs", "E-Call-Res-Exc", "E-Call-Arg-Exc", "E-Lookup-Sucs"} <= fired


def test_every_fired_rule_name_is_a_literal(monkeypatch):
    # A rule name built at run time would escape a search of the source
    # for the rules the evaluator implements.
    import test_traversal

    fired = _fired_rules(monkeypatch)
    for seed in SEEDS:
        program_digest(seed)
    for call in CALLS:
        call_digest(*call)
    for name, test in vars(test_traversal).items():
        if name.startswith("test_"):
            test()
    assert len(fired) > 90
    assert fired - literal_strings(interp, traversal) == set()


# The rules that neither the generated programs nor the call corpus fire:
# (the rules a row must fire, the row, its result).  A row is a snippet
# evaluated from the empty store in RULE_MODULE, or a call of a function of
# RULE_MODULE (name, store).
RULE_MODULE = "data T = t(int x); global int g = 0; int f() = 1;"
RULE_ROWS = (
    (("E-Set-Err",), "{switch (0) { }}", ERROR),
    (("E-Solve-Err",), "solve (q) 1", ERROR),
    (("E-Solve-Exc",), "solve (q) throw 1", Throw(Basic(1))),
    (("E-Switch-Exc2",), "switch (1) { case 1 => throw 2 }", Throw(Basic(2))),
    (("E-Update-Exc3",), "(1: 2)[1 = (throw 3)]", Throw(Basic(3))),
    (("E-While-Err",), "while (1) 0", ERROR),
    (("E-While-Exc1",), "while (throw 1) 0", Throw(Basic(1))),
    (("EE-More-Break",), "for (x <- [1, 2]) break", Success(UNDEF)),
    (("E-Visit-Exc2", "ETV-Exc1"), "top-down visit (1) { case 1 => throw 4 }", Throw(Basic(4))),
    (("ETV-Break-Sucs",), "top-down-break visit (1) { case 1 => 2 }", Success(Basic(2))),
    (("ETV-Exc2", "ETVS-Exc1"), "top-down visit ([1]) { case 1 => throw 4 }", Throw(Basic(4))),
    (("ETVS-Exc2",), "top-down visit ([0, 1]) { case 1 => throw 4 }", Throw(Basic(4))),
    (("ETV-Ord-Sucs2", "ETVS-More"), "top-down visit ([1]) { case 1 => 2 }", Success(VList((Basic(2),)))),
    (("ETVS-Break",), "top-down-break visit ([1]) { case 1 => 2 }", Success(VList((Basic(2),)))),
    (("EBU-Break-Sucs", "EBUS-Break"), "bottom-up-break visit ([1]) { case 1 => 2 }", Success(VList((Basic(2),)))),
    (("EBU-Exc", "EBUS-Exc1"), "bottom-up visit ([1]) { case 1 => throw 5 }", Throw(Basic(5))),
    (("EBUS-Exc2",), "bottom-up visit ([0, 1]) { case 1 => throw 5 }", Throw(Basic(5))),
    (("EBU-No-Break-Err",), 'bottom-up visit (t(1)) { case 1 => "s" }', ERROR),
    (("EBU-No-Break-Exc",), "bottom-up visit ([1]) { case 1 => 2 case [2] => throw 3 }", Throw(Basic(3))),
    (("EV-IM-Exc",), "innermost visit (1) { case 1 => throw 6 }", Throw(Basic(6))),
    (("EV-OM-Exc",), "outermost visit (1) { case 1 => throw 6 }", Throw(Basic(6))),
    (("EV-OM-Neq", "EV-OM-Eq"), "outermost visit (1) { case 1 => 2 }", Success(Basic(2))),
    # Stuck: what validation rules out, reached without it.
    (("stuck",), sx.Cons("nope", ()), ERROR),
    (("stuck",), "x = 1", ERROR),
    (("stuck",), ("nope", Store({"g": Basic(0)})), ERROR),
    (("stuck",), ("f", Store()), ERROR),
)


def _run_row(ev: Evaluator, row):
    if isinstance(row, tuple):
        name, store = row
        return ev.call_function(name, (), store)[0]
    return ev.evaluate(parse_expr(row, ev.module) if isinstance(row, str) else row, Store())[0]


@pytest.mark.parametrize("rules, row, result", RULE_ROWS, ids=[str(r[1]) for r in RULE_ROWS])
def test_rule_rows_fire_their_rules(monkeypatch, rules, row, result):
    fired = _fired_rules(monkeypatch)
    assert _run_row(Evaluator(parse_module(RULE_MODULE)), row) == result
    assert set(rules) <= fired


def test_run_cases_times_out_without_fuel():
    cases = parse_expr("switch (0) { case 1 => 1 }").cases
    assert Evaluator(sx.ModuleDef()).run_cases(cases, Basic(1), Store({"a": Basic(2)}), fuel=0) == (
        TIMEOUT,
        Store({"a": Basic(2)}),
    )


def test_every_rule_name_fires(monkeypatch):
    # Each rule-name literal of the evaluator fires somewhere below, so a
    # rule the generated programs stop reaching shows here, not in a run.
    rule_names = {
        s for s in literal_strings(interp, traversal) if re.fullmatch(r"[A-Z]{1,4}-[A-Za-z0-9-]+", s) or s == "stuck"
    }
    fired = _fired_rules(monkeypatch)
    for seed in SEEDS:
        program_digest(seed)
    for call in CALLS:
        call_digest(*call)
    ev = Evaluator(parse_module(RULE_MODULE))
    for _, row, _ in RULE_ROWS:
        _run_row(ev, row)
    assert len(rule_names) == 128
    assert fired == rule_names


# ---------------------------------------------------------------------------
# The rule table


def _concrete_exprs():
    out, todo = set(), [sx.Expr]
    while todo:
        cls = todo.pop()
        for sub in cls.__subclasses__():
            todo.append(sub)
            if sub.__module__ == sx.__name__:
                out.add(sub)
    return out


def test_every_expression_form_has_one_rule_method():
    from rascal_light.interp import _RULES

    assert set(_RULES) == _concrete_exprs()
    for cls, fn in _RULES.items():
        assert fn.__name__ == f"_e_{cls.__name__}"
    # One table entry per method: no method serves two forms.
    assert len(set(_RULES.values())) == len(_RULES)


@pytest.mark.parametrize("fuel", [None, 5])
def test_a_non_expression_is_a_type_error(fuel):
    pat = sx.VarPat("x")
    with pytest.raises(TypeError, match="not an expression"):
        Evaluator(sx.ModuleDef()).eval_expr(pat, Store(), fuel)


def test_a_non_expression_below_an_expression_is_a_type_error():
    # The boundary walks the root before evaluating it.
    e = sx.Unary("-", sx.VarPat("x"))
    with pytest.raises(TypeError, match="not an expression"):
        Evaluator(sx.ModuleDef()).evaluate(e, Store(), None)


# ---------------------------------------------------------------------------
# The operator tables against the operator chains they replaced (kept here
# verbatim as the reference)


def chain_unary(op, v):
    if op == "-":
        if isinstance(v, Basic) and isinstance(v.val, int):
            return Success(Basic(-v.val))
        return ERROR
    if op == "!":
        if v == TRUE:
            return Success(FALSE)
        if v == FALSE:
            return Success(TRUE)
        return ERROR
    return ERROR


def _both_ints(v1, v2):
    return (
        isinstance(v1, Basic)
        and isinstance(v2, Basic)
        and isinstance(v1.val, int)
        and isinstance(v2.val, int)
    )


def chain_binary(op, v1, v2):
    if op == "==":
        return Success(vbool(v1 == v2))
    if op == "!=":
        return Success(vbool(v1 != v2))
    if op in ("<", "<=", ">", ">="):
        c = value_order(v1, v2)
        return Success(
            vbool(
                (op == "<" and c < 0)
                or (op == "<=" and c <= 0)
                or (op == ">" and c > 0)
                or (op == ">=" and c >= 0)
            )
        )
    if op == "+":
        if _both_ints(v1, v2):
            return Success(Basic(v1.val + v2.val))
        if (
            isinstance(v1, Basic)
            and isinstance(v2, Basic)
            and isinstance(v1.val, str)
            and isinstance(v2.val, str)
        ):
            return Success(Basic(v1.val + v2.val))
        if isinstance(v1, VList) and isinstance(v2, VList):
            return Success(VList(v1.items + v2.items))
        if isinstance(v1, VSet) and isinstance(v2, VSet):
            return Success(VSet(v1.items + v2.items))
        if isinstance(v1, VMap) and isinstance(v2, VMap):
            return Success(VMap(v1.pairs + v2.pairs))
        return ERROR
    if op in ("-", "*", "/", "%"):
        if not _both_ints(v1, v2):
            return ERROR
        a, b = v1.val, v2.val
        if op == "-":
            return Success(Basic(a - b))
        if op == "*":
            return Success(Basic(a * b))
        if b == 0:
            return ERROR
        q = abs(a) // abs(b)
        if (a < 0) != (b < 0):
            q = -q
        if op == "/":
            return Success(Basic(q))
        return Success(Basic(a - b * q))
    if op in ("&&", "||"):
        if v1 not in (TRUE, FALSE) or v2 not in (TRUE, FALSE):
            return ERROR
        if op == "&&":
            return Success(vbool(v1 == TRUE and v2 == TRUE))
        return Success(vbool(v1 == TRUE or v2 == TRUE))
    if op == "in":
        if isinstance(v2, VList):
            return Success(vbool(any(v1 == x for x in v2.items)))
        if isinstance(v2, VSet):
            return Success(vbool(v2.contains(v1)))
        if isinstance(v2, VMap):
            return Success(vbool(v2.lookup(v1) is not None))
        return ERROR
    return ERROR


def _b(x):
    return Basic(x)


# Every kind, signed integers for truncating division and modulo, and
# booleans next to other constructors for the connectives.
POOL = [
    _b(0), _b(1), _b(3), _b(7), _b(-2), _b(-7), _b(10**20), _b(""), _b("a"), _b("ab"),
    TRUE, FALSE, VCons("true", ()), VCons("pair", (_b(1), _b(2))), VCons("zero", ()),
    VList(()), VList((_b(1), _b(2))), VList((_b(2),)),
    VSet(()), VSet((_b(1),)), VSet((_b(3), _b(1), _b("a"))),
    VMap(()), VMap(((_b(1), _b("a")),)), VMap(((_b(1), _b("b")), (_b(2), _b("c")))),
    UNDEF,
]
BINARY_OPS = ("==", "!=", "<", "<=", ">", ">=", "+", "-", "*", "/", "%", "&&", "||", "in", "^", "")
UNARY_OPS = ("-", "!", "+", "")


def test_binary_table_matches_the_operator_chain():
    for op in BINARY_OPS:
        for v1 in POOL:
            for v2 in POOL:
                assert apply_binary(op, v1, v2) == chain_binary(op, v1, v2), (op, v1, v2)


def test_unary_table_matches_the_operator_chain():
    for op in UNARY_OPS:
        for v in POOL:
            assert apply_unary(op, v) == chain_unary(op, v), (op, v)


if __name__ == "__main__":
    sys.setrecursionlimit(12_000)
    digests = [program_digest(s) for s in SEEDS]
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump({"max_depth": MAX_DEPTH, "fuels": FUELS, "digests": digests}, fh, indent=1)
        fh.write("\n")
    calls = {_call_label(*c): call_digest(*c) for c in CALLS}
    with open(CALL_DIGESTS, "w", encoding="utf-8") as fh:
        json.dump({"fuels": FUELS, "digests": calls}, fh, indent=1)
        fh.write("\n")
