import sys

import pytest

from rascal_light import syntax as sx
from rascal_light.interp import (
    Evaluator,
    IllFormedModule,
    InitError,
    apply_binary,
    apply_unary,
    boundary_result,
    init_module,
)
from rascal_light.parser import load_module, parse_expr, parse_module, parse_value
from rascal_light.stackguard import HostStackGuard
from rascal_light.values import (
    BREAK,
    Basic,
    CONTINUE,
    ERROR,
    FAIL,
    Return,
    Store,
    Success,
    Throw,
    UNDEF,
    VCons,
    VList,
    VMap,
    VSet,
)

from conftest import program_path


def b(x):
    return Basic(x)


def ev_for(text: str) -> Evaluator:
    return Evaluator(parse_module(text))


EMPTY = Evaluator(parse_module(""))


def run(text: str, store=None, module=None, fuel=None):
    e = parse_expr(text, module)
    ev = Evaluator(module) if module is not None else EMPTY
    return ev.evaluate(e, store if store is not None else Store(), fuel)


# -- module initialization ----------------------------------------------------


def test_init_module_evaluates_globals_in_order():
    m = parse_module("global int g = 1 + 2;\nglobal int h = g * 2;")
    store = init_module(m)
    assert store.as_dict() == {"g": b(3), "h": b(6)}


def test_init_module_empty():
    assert init_module(parse_module("")).as_dict() == {}


def test_init_module_error_aborts():
    # A division by zero in an initializer evaluates to error, which init wraps.
    m = parse_module("global int g = 1 / 0;")
    with pytest.raises(InitError) as exc:
        init_module(m)
    assert exc.value.name == "g" and exc.value.result == ERROR


def test_evaluator_refuses_ill_formed_module():
    from rascal_light.types import BaseType

    m = sx.ModuleDef(globals=(sx.GlobalDef("g", BaseType("int"), sx.Var("x")),))
    with pytest.raises(IllFormedModule) as exc:
        Evaluator(m)
    assert [(e.kind, e.name) for e in exc.value.errors] == [("undefined-variable", "x")]


def test_init_module_type_mismatch_is_init_error():
    m = parse_module('global int g = "oops";')
    with pytest.raises(InitError):
        init_module(m)


# -- core expression forms ----------------------------------------------------


def test_literals_vars_and_errors():
    assert run("42")[0] == Success(b(42))
    assert run("x", Store({"x": b(7)}))[0] == Success(b(7))
    assert run("x")[0] == ERROR  # unbound variable


def test_operator_examples():
    assert apply_unary("-", b(3)) == Success(b(-3))
    assert apply_unary("-", VSet(())) == ERROR
    assert apply_binary("+", VList((b(1),)), VList((b(2),))) == Success(
        VList((b(1), b(2)))
    )
    assert apply_binary("/", b(7), b(-2)) == Success(b(-3))  # truncates toward zero
    assert apply_binary("/", b(1), b(0)) == ERROR
    assert apply_binary("%", b(-7), b(2)) == Success(b(-1))
    assert apply_binary("+", VSet((b(1),)), VSet((b(2), b(1)))) == Success(
        VSet((b(1), b(2)))
    )
    assert apply_binary("+", VMap(((b(1), b(2)),)), VMap(((b(1), b(9)),))) == Success(
        VMap(((b(1), b(9)),))
    )
    assert apply_binary("in", b(1), VMap(((b(1), b(2)),))) == Success(VCons("true", ()))
    assert apply_binary("&&", b(1), VCons("true", ())) == ERROR


def test_collections_reject_undefined():
    assert run("[switch (1) { }]")[0] == ERROR  # undefined element
    assert run("{switch (1) { }}")[0] == ERROR
    assert run("(1 : switch (1) { })")[0] == ERROR


def test_set_literal_canonicalizes():
    assert run("{2, 1, 2}")[0] == Success(VSet((b(1), b(2))))


def test_lookup_and_update():
    assert run("(1 : 2)[1]")[0] == Success(b(2))
    assert run("(1 : 2)[3]")[0] == Throw(VCons("nokey", (b(3),)))
    assert run("5[1]")[0] == ERROR
    assert run("(1 : 2)[1 = 9]")[0] == Success(VMap(((b(1), b(9)),)))
    assert run("(1 : 2)[3 = 4]")[0] == Success(VMap(((b(1), b(2)), (b(3), b(4)))))


def test_switch_fail_yields_undefined():
    assert run("switch (1) { case 2 => 3 }")[0] == Success(UNDEF)


def test_switch_first_match_wins():
    assert run("switch (1) { case 1 => 10 case x => 20 }")[0] == Success(b(10))


def test_while_false_yields_undefined():
    assert run("while (false()) 1")[0] == Success(UNDEF)


def test_while_loops_and_breaks():
    text = """
    local int i in
      i = 0;
      while (i < 5)
        local in
          i = i + 1;
          if i == 3 then break else i
        end;
      i
    end
    """
    res, _ = run(text)
    assert res == Success(b(3))


def test_if_non_boolean_errors():
    assert run("if 3 then 1 else 2")[0] == ERROR


def test_solve_reaches_fixed_point():
    text = """
    local int v in
      v = 0;
      solve (v) v = if v < 3 then v + 1 else 3;
      v
    end
    """
    res, _ = run(text)
    assert res == Success(b(3))


def test_solve_unassigned_target_errors():
    text = "local int v in solve (v) 1 end"
    assert run(text)[0] == ERROR


def test_sequences_abort_on_first_exception():
    m = parse_module("global int x = 0;")
    ev = Evaluator(m)
    store = ev.init_globals()
    e = parse_expr("[1, throw 2, x = 5]", m)
    res, out = ev.evaluate(e, store)
    assert res == Throw(b(2))
    assert out.get("x") == b(0)  # assignment never reached


def test_empty_sequence_block():
    assert run("local in end")[0] == Success(UNDEF)
    assert run("local int q in q = 1; q + 1 end")[0] == Success(b(2))


def test_block_strips_locals():
    res, out = run("local int q in q = 1 end", Store({"z": b(0)}))
    assert res == Success(b(1))
    assert out.as_dict() == {"z": b(0)}


def test_reading_unassigned_local_errors():
    assert run("local int q in q end")[0] == ERROR


# -- cases and bindings ---------------------------------------------------


def test_eval_cases_restores_store_between_cases():
    m = parse_module("")
    ev = Evaluator(m)
    # First case mutates a local then fails; second case sees clean state.
    text = "switch (1) { case 1 => local int t in t = 9; fail end case x => x }"
    e = parse_expr(text, m)
    res, out = ev.evaluate(e, Store())
    assert res == Success(b(1))
    assert out.as_dict() == {}


def test_eval_cases_empty_is_fail():
    ev = EMPTY
    res, out = ev.run_cases((), b(1), Store({"a": b(1)}))
    assert res == FAIL and out.as_dict() == {"a": b(1)}


def test_eval_case_tries_bindings_in_order():
    # Bindings x=1 then x=2; body fails on 1, succeeds on 2.
    m = parse_module("")
    ev = Evaluator(m)
    e = parse_expr("switch ([1, 2]) { case [*pre, x, *post] => if x == 1 then fail else x }", m)
    res, _ = ev.evaluate(e, Store())
    assert res == Success(b(2))


def test_eval_case_strips_bindings():
    e = parse_expr("switch (1) { case x => x }")
    res, out = EMPTY.evaluate(e, Store())
    assert res == Success(b(1))
    assert out.as_dict() == {}


def test_for_enumeration_and_each():
    assert run("for (z <- [1, 2, 3]) z")[0] == Success(UNDEF)
    assert run("for (z <- {1, 2}) z")[0] == Success(UNDEF)
    assert run("for (z <- [1, 2]) continue")[0] == Success(UNDEF)
    assert run("for (z <- [1, 2]) break")[0] == Success(UNDEF)
    assert run("for (z <- [1, 2]) throw z")[0] == Throw(b(1))
    assert run("for (z <- 5) z")[0] == ERROR
    # Map enumeration binds only keys.
    text = """
    local int acc in
      acc = 0;
      for (k <- (1 : 10, 2 : 20)) acc = acc + k;
      acc
    end
    """
    assert run(text)[0] == Success(b(3))


def test_for_matching_generator():
    text = """
    local int acc in
      acc = 0;
      for ([*pre, x, *post] := [1, 2, 3]) acc = acc + x;
      acc
    end
    """
    # Each single-element selection binds once per split: sum = 1+2+3.
    assert run(text)[0] == Success(b(6))


def test_generator_exception_propagates():
    assert run("for (z <- throw 9) z")[0] == Throw(b(9))


# -- functions -----------------------------------------------------------


def test_call_boundary_laws():
    m = parse_module(
        """
        int pick(int n) = if n == 0 then break else if n == 1 then fail else continue;
        int good(int n) = return n + 1;
        """
    )
    ev = Evaluator(m)
    store = ev.init_globals()
    for n in (0, 1, 2):
        res, _ = ev.call_function("pick", (b(n),), store)
        assert res == ERROR  # control operations cannot cross the boundary
    res, _ = ev.call_function("good", (b(1),), store)
    assert res == Success(b(2))


def test_call_argument_type_error():
    m = parse_module("int id(int n) = n;")
    ev = Evaluator(m)
    res, _ = ev.call_function("id", (b("text"),), ev.init_globals())
    assert res == ERROR


def test_call_result_type_error():
    m = parse_module('int bad() = "text";')
    ev = Evaluator(m)
    res, _ = ev.call_function("bad", (), ev.init_globals())
    assert res == ERROR


def test_global_write_back():
    m = parse_module(
        """
        global int counter = 0;
        int bump(int by) = local int unused in counter = counter + by; counter end;
        """
    )
    ev = Evaluator(m)
    store = ev.init_globals()
    res, store = ev.call_function("bump", (b(5),), store)
    assert res == Success(b(5)) and store.get("counter") == b(5)
    res, store = ev.call_function("bump", (b(2),), store)
    assert res == Success(b(7)) and store.get("counter") == b(7)
    # Locals of the callee do not leak.
    assert "unused" not in store


def test_global_write_back_on_throw_and_control_errors():
    m = parse_module(
        """
        global int g = 0;
        int thrower() = local in g = 5; throw 1 end;
        int breaker() = local in g = g + 1; break end;
        """
    )
    ev = Evaluator(m)
    store = ev.init_globals()
    res, store = ev.call_function("thrower", (), store)
    assert res == Throw(b(1)) and store.get("g") == b(5)
    res, store = ev.call_function("breaker", (), store)
    assert res == ERROR and store.get("g") == b(6)


def test_while_condition_effects_are_kept():
    text = """
    local int x in
      x = 0;
      while ((x = x + 1) < 3) 0;
      x
    end
    """
    assert run(text)[0] == Success(b(3))


def test_solve_propagates_exceptions():
    text = "local int v in v = 0; solve (v) throw v end"
    assert run(text)[0] == Throw(b(0))


def test_call_within_expression_threads_globals():
    m = parse_module(
        """
        global int g = 0;
        int setg(int n) = g = n;
        """
    )
    ev = Evaluator(m)
    store = ev.init_globals()
    e = parse_expr("setg(3) + g", m)
    res, out = ev.evaluate(e, store)
    assert res == Success(b(6))
    assert out.get("g") == b(3)


def test_early_return_example(tmp_path):
    ev = Evaluator(load_module(program_path("prod.rsl")))
    store = ev.init_globals()
    assert ev.call_function("prod", (parse_value("[1, 2, 0, 3]"),), store)[0] == (
        Success(b(0)),
        store,
    )[0]
    assert ev.call_function("prod", (parse_value("[1, 2, 3]"),), store)[0] == Success(b(6))


def test_knapsack_optimal(knapsack_module):
    import itertools

    ev = Evaluator(knapsack_module)
    store = ev.init_globals()
    items = [(1, 60), (2, 100), (3, 120)]
    max_weight = 5
    best = max(
        (
            sub
            for r in range(len(items) + 1)
            for sub in itertools.combinations(items, r)
            if sum(w for w, _ in sub) <= max_weight
        ),
        key=lambda sub: sum(v for _, v in sub),
    )
    expected = VSet(tuple(VCons("item", (b(w), b(v))) for w, v in best))
    arg = VSet(tuple(VCons("item", (b(w), b(v))) for w, v in items))
    res, _ = ev.call_function("slowknapsack", (arg, b(max_weight)), store)
    assert res == Success(expected)
    assert expected == parse_value("{item(2, 100), item(3, 120)}")


# -- exceptions -----------------------------------------------------------


def test_try_catch_binds_and_strips():
    res, out = run("try throw 5 catch e => e + 1")
    assert res == Success(b(6))
    assert out.as_dict() == {}


def test_try_catch_only_catches_throw():
    assert run("try fail catch e => 1")[0] == FAIL
    assert run("try break catch e => 1")[0] == BREAK
    assert run("try 7 catch e => 1")[0] == Success(b(7))


def test_try_finally_runs_on_all_results():
    m = parse_module("global int log = 0;")
    ev = Evaluator(m)
    store = ev.init_globals()
    res, out = ev.evaluate(parse_expr("try throw 1 finally log = 99", m), store)
    assert res == Throw(b(1)) and out.get("log") == b(99)
    # An exceptional finally result replaces the body result.
    res, _ = ev.evaluate(parse_expr("try 1 finally throw 2", m), store)
    assert res == Throw(b(2))


def test_boundary_result_conversion():
    assert boundary_result(Return(b(1))) == Success(b(1))
    assert boundary_result(BREAK) == ERROR
    assert boundary_result(CONTINUE) == ERROR
    assert boundary_result(FAIL) == ERROR
    assert boundary_result(Success(b(1))) == Success(b(1))
    assert boundary_result(Throw(b(1))) == Throw(b(1))


def test_sibling_blocks_assign_at_their_own_types():
    text = 'local int r in r = 0; (local int a in a = 1 end); (local str a in a = "x" end); r end'
    assert run(text)[0] == Success(b(0))
    cases = parse_expr(f"switch (0) {{ case 0 => {text} }}").cases
    assert EMPTY.run_cases(cases, b(0), Store())[0] == Success(b(0))


def test_evaluator_fields_never_change_during_a_call():
    m = parse_module(
        """
        global int g = 0;
        int f(int n) = local int a, str s in a = n + 1; s = "x"; g = a; a end;
        """
    )
    fired = []

    def check(entry):
        fired.append(entry.rule)
        assert {k: id(v) for k, v in vars(ev).items()} == before, entry.rule

    ev = Evaluator(m, trace=check)
    before = {k: id(v) for k, v in vars(ev).items()}
    res, store = ev.call_function("f", (b(4),), ev.init_globals())
    assert res == Success(b(5)) and store.get("g") == b(5)
    assert fired.count("E-Asgn-Sucs") == 3


def test_one_evaluator_serves_concurrent_calls():
    import sys
    import threading

    m = parse_module("int f(int n) = local int a in a = n; a end;")
    ev = Evaluator(m)
    store = ev.init_globals()
    snippet = parse_expr('local str a in a = "y" end', m)
    wrong = []

    def call(i):
        for _ in range(300):
            if ev.call_function("f", (b(i),), store)[0] != Success(b(i)):
                wrong.append(i)

    def snip():
        for _ in range(300):
            if ev.evaluate(snippet, Store())[0] != Success(b("y")):
                wrong.append("snippet")

    threads = [threading.Thread(target=call, args=(i,)) for i in range(3)]
    threads += [threading.Thread(target=snip) for _ in range(3)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []


# ---------------------------------------------------------------------------
# Growth of value-layer work while building values step by step

GROWTH_KERNELS = """
data Nat = zero() | succ(Nat pred);
Nat nat(int n) = if n == 0 then zero() else succ(nat(n - 1));
list<int> mklist(int n) =
  local list<int> xs, int i in
    xs = []; i = 0;
    while (i < n) local in xs = xs + [i]; i = i + 1 end;
    xs
  end;
set<int> mkset(int n) =
  local set<int> s, int i in
    s = {}; i = 0;
    while (i < n) local in s = s + {i}; i = i + 1 end;
    s
  end;
map<int, int> mkmap(int n) =
  local map<int, int> m, int i in
    m = (); i = 0;
    while (i < n) local in m = m[n - i = i]; i = i + 1 end;
    m
  end;
"""


def _calls_during(funcs, ev, fn, args, store):
    """How many times ``funcs`` are called during one call of ``fn``."""
    codes = {f.__code__ for f in funcs}
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code in codes:
            calls += 1

    sys.setprofile(profile)
    try:
        res, _ = ev.call_function(fn, args, store)
    finally:
        sys.setprofile(None)
    assert isinstance(res, Success)
    return calls


def _value_layer_calls(ev, fn, n):
    """Calls of the uncached typing step and of value_key during one call."""
    from rascal_light import types, values

    funcs = (types._type_node, values.value_key)
    return _calls_during(funcs, ev, fn, (Basic(n),), Store())


@pytest.mark.parametrize(
    "fn, bound", [("nat", 2.2), ("mklist", 2.2), ("mkset", 2.6), ("mkmap", 2.6)]
)
def test_value_layer_work_grows_linearly(fn, bound):
    # Doubling n at most about doubles the work (n log n for set unions and
    # map updates, which bisect); quadratic growth would quadruple it.
    ev = ev_for(GROWTH_KERNELS)
    small, large = (_value_layer_calls(ev, fn, n) for n in (100, 200))
    assert 0 < small and large <= bound * small


def test_call_boundary_store_work_does_not_grow_with_globals():
    # Calls of the methods that build a store (or would): the caller's store
    # is rebuilt once at most, not once per global.
    builders = (Store.__init__, Store.updated, Store.extended, Store.without)
    counts = []
    for g in (1, 50, 200):
        decls = "".join(f"global int g{i} = {i};" for i in range(g))
        ev = ev_for(decls + "int f() = 0;")
        counts.append(_calls_during(builders, ev, "f", (), ev.init_globals()))
    assert counts[0] == counts[1] == counts[2]


def test_call_boundary_writes_back_changed_globals():
    ev = ev_for("global int a = 1; global int c = 2; int f() = local in c = 5; 0 end;")
    store = ev.init_globals()
    res, out = ev.call_function("f", (), store)
    assert res == Success(b(0))
    assert out.as_dict() == {"a": b(1), "c": b(5)} and store.get("c") == b(2)
    assert list(out.domain()) == ["a", "c"]


def test_literal_conclusion_is_built_once_per_node():
    e = parse_expr("7")
    first, _ = EMPTY.evaluate(e, Store())
    again, _ = EMPTY.evaluate(e, Store())
    assert first == Success(b(7)) and again.value is first.value
    # Not a field: the node still equals, and prints as, a fresh one.
    assert e == parse_expr("7") and repr(e) == repr(parse_expr("7"))


def test_deep_derivation_fits_the_main_thread_stack():
    # One derivation level of nat(n) takes five Python frames (If, Cons, the
    # argument sequence, Call, the call boundary), because every premise
    # calls the rule table directly.  A dispatcher method between premise
    # and rule group would take eight, and nat(2000) would overflow here.
    # Both rule tables, traced and untraced, hold to this.
    ev = ev_for(GROWTH_KERNELS)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(12_000)
    try:
        for trace in (None, lambda entry: None):
            ev.trace = trace
            res, _ = ev.call_function("nat", (Basic(2000),), Store())
            assert isinstance(res, Success)
    except HostStackGuard:
        pytest.fail(f"nat(2000) overflowed the stack (trace {trace})", pytrace=False)
    finally:
        sys.setrecursionlimit(limit)


def test_module_roots_are_not_walked_again(monkeypatch):
    # A module's own roots were walked by the validator; only a snippet
    # from outside the module is walked, and only it needs a copy.
    from rascal_light import interp

    walked = []
    real = interp.snippet_assignables
    monkeypatch.setattr(interp, "snippet_assignables", lambda info, *roots: walked.append(roots) or real(info, *roots))
    ev = ev_for(
        "int f(int n) = local int a in a = n end;"
        " int h() = switch (1) { case x => local int c in c = x end };"
    )
    body = ev.functions["f"].body
    assert ev._for_roots(body) is ev
    assert ev.evaluate(body, Store({"n": b(3)})) == (Success(b(3)), Store({"n": b(3)}))
    # The module's own case bodies were walked too, though they assign a local.
    own = ev.functions["h"].body.cases
    assert ev._for_roots(own[0].body) is ev
    assert ev.run_cases(own, b(1), Store())[0] == Success(b(1))
    assert walked == []
    cases = parse_module("int g() = switch (1) { case x => 1 };").functions[0].body.cases
    assert ev.run_cases(cases, b(1), Store())[0] == Success(b(1))
    assert ev._for_roots(cases[0].body) is ev  # walked, but assigns no local
    snippet = parse_expr("local int c in c = 2 end")
    assert ev._for_roots(snippet, body) is not ev
    assert walked == [(cases[0].body,), (cases[0].body,), (snippet,)]
    assert ev.evaluate(snippet, Store()) == (Success(b(2)), Store())
