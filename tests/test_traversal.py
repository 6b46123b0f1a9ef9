from rascal_light import syntax as sx
from rascal_light import traversal as tv
from rascal_light.interp import Evaluator
from rascal_light.parser import parse_expr, parse_module
from rascal_light.syntax import DUMMY_SPAN, constructor_table
from rascal_light.values import (
    Basic,
    ERROR,
    FAIL,
    Store,
    Success,
    Throw,
        UNDEF,
    VCons,
    VList,
    VMap,
    VSet,
    budget,
    children,
)

MODULE = parse_module(
    "data Expr = intlit(int v) | plus(Expr lop, Expr rop);\n"
    "global int log = 0;"
)
CONS = constructor_table(MODULE)


def b(x):
    return Basic(x)


def intlit(n):
    return VCons("intlit", (b(n),))


def plus(x, y):
    return VCons("plus", (x, y))


def evaluator():
    return Evaluator(MODULE)


def case(pattern_text_or_pat, body_text):
    if isinstance(pattern_text_or_pat, str):
        # Reuse the expression parser's pattern entry through a switch.
        sw = parse_expr(f"switch (0) {{ case {pattern_text_or_pat} => {body_text} }}", MODULE)
        return sw.cases[0]
    return sx.Case(pattern_text_or_pat, parse_expr(body_text, MODULE))


SIMPLIFY_CASES = (
    case("plus(intlit(0), y)", "y"),
    case("plus(x, intlit(0))", "x"),
)


# -- auxiliaries ------------------------------------------------------------


def test_if_fail():
    assert tv.if_fail(FAIL, b(7)) == b(7)
    assert tv.if_fail(Success(b(3)), b(7)) == b(3)
    assert tv.if_fail(Success(UNDEF), b(7)) == UNDEF


def test_reconstruct_table():
    assert tv.reconstruct(b(42), (), CONS) == Success(b(42))
    assert tv.reconstruct(b(42), (b(1),), CONS) == ERROR
    assert tv.reconstruct(UNDEF, (), CONS) == Success(UNDEF)
    assert tv.reconstruct(UNDEF, (b(1),), CONS) == ERROR
    assert tv.reconstruct(intlit(1), (UNDEF,), CONS) == ERROR
    assert tv.reconstruct(intlit(1), (b(9),), CONS) == Success(intlit(9))
    # Field typing is checked against the declaration.
    assert tv.reconstruct(intlit(1), (b("no"),), CONS) == ERROR
    assert tv.reconstruct(intlit(1), (b(1), b(2)), CONS) == ERROR
    # Map reconstruction consumes a keys half then a values half.
    assert tv.reconstruct(VMap(((b(1), b(2)),)), (b(3), b(4)), CONS) == Success(
        VMap(((b(3), b(4)),))
    )
    assert tv.reconstruct(VList((b(1),)), (UNDEF,), CONS) == ERROR
    # Sets re-canonicalize, so colliding rewrites shrink the set.
    out = tv.reconstruct(VSet((b(1), b(2))), (b(5), b(5)), CONS)
    assert out == Success(VSet((b(5),)))


def test_reconstruct_children_roundtrip():
    corpus = [
        b(1),
        b("s"),
        UNDEF,
        intlit(3),
        plus(intlit(0), intlit(2)),
        VList((b(1), b(2))),
        VSet((b(2), b(1))),
        VMap(((b(1), b(2)), (b(3), b(4)))),
        VList((VSet((b(1),)), VMap(((b(0), b(1)),)))),
    ]
    for v in corpus:
        assert tv.reconstruct(v, children(v), CONS) == Success(v)


# -- top-down -----------------------------------------------------------------


def test_td_no_match_fails():
    ev = evaluator()
    res, out = tv.td_visit(ev, SIMPLIFY_CASES, b(42), Store(), tv.BreakMode.NO_BREAK, budget(None), DUMMY_SPAN)
    assert res == FAIL


def test_td_rewrites_children_and_reconstructs():
    ev = evaluator()
    cases = (case("intlit(0)", "intlit(9)"),)
    v = plus(intlit(0), intlit(1))
    res, _ = tv.td_visit(ev, cases, v, Store(), tv.BreakMode.NO_BREAK, budget(None), DUMMY_SPAN)
    assert res == Success(plus(intlit(9), intlit(1)))


def test_td_root_throw_skips_children():
    ev = Evaluator(MODULE)
    store = ev.init_globals()
    cases = (
        case("plus(a, c)", "throw 1"),
        case("intlit(0)", "local in log = 99; intlit(1) end"),
    )
    v = plus(intlit(0), intlit(1))
    res, out = tv.td_visit(ev, cases, v, store, tv.BreakMode.NO_BREAK, budget(None), DUMMY_SPAN)
    assert res == Throw(b(1))
    assert out.get("log") == b(0)  # children were never traversed


def test_td_star_empty_fails():
    ev = evaluator()
    res, out = tv.visit_star(tv.td_visit, ev, SIMPLIFY_CASES, (), Store(), tv.BreakMode.NO_BREAK, budget(None), DUMMY_SPAN)
    assert res == FAIL


def test_td_star_mixed_results_use_originals():
    ev = evaluator()
    cases = (case("intlit(0)", "intlit(9)"),)
    vals = (intlit(0), b(5))
    res, _ = tv.visit_star(tv.td_visit, ev, cases, vals, Store(), tv.BreakMode.NO_BREAK, budget(None), DUMMY_SPAN)
    assert res == (intlit(9), b(5))


def test_td_star_break_keeps_rest_verbatim():
    ev = evaluator()
    cases = (case("intlit(x)", "intlit(x + 1)"),)
    vals = (intlit(0), intlit(5))
    res, _ = tv.visit_star(tv.td_visit, ev, cases, vals, Store(), tv.BreakMode.BREAK_ON_FIRST, budget(None), DUMMY_SPAN)
    assert res == (intlit(1), intlit(5))


def test_top_down_break_stops_at_root_match():
    ev = evaluator()
    e = parse_expr(
        "top-down-break visit (plus(intlit(0), intlit(1))) { case plus(a, c) => intlit(7) }",
        MODULE,
    )
    res, _ = ev.evaluate(e, Store())
    assert res == Success(intlit(7))


# -- bottom-up -------------------------------------------------------------


def test_bu_simplifier_examples():
    ev = evaluator()
    e = parse_expr(
        "bottom-up visit (plus(intlit(0), plus(intlit(5), intlit(0)))) "
        "{ case plus(intlit(0), y) => y case plus(x, intlit(0)) => x }",
        MODULE,
    )
    assert ev.evaluate(e, Store())[0] == Success(intlit(5))

    res, _ = tv.bu_visit(
        ev,
        SIMPLIFY_CASES,
        plus(plus(intlit(0), intlit(2)), intlit(0)),
        Store(),
        tv.BreakMode.NO_BREAK,
        budget(None),
        DUMMY_SPAN,
    )
    assert res == Success(intlit(2))


def test_bu_leaf_no_match_fails():
    ev = evaluator()
    res, _ = tv.bu_visit(ev, SIMPLIFY_CASES, b(7), Store(), tv.BreakMode.NO_BREAK, budget(None), DUMMY_SPAN)
    assert res == FAIL


def test_bu_break_skips_parent_cases():
    ev = Evaluator(MODULE)
    store = ev.init_globals()
    cases = (
        case("intlit(0)", "intlit(9)"),
        case("plus(a, c)", "local in log = 99; intlit(0) end"),
    )
    v = plus(intlit(0), intlit(1))
    res, out = tv.bu_visit(ev, cases, v, store, tv.BreakMode.BREAK_ON_FIRST, budget(None), DUMMY_SPAN)
    # The child rewrite succeeded, so the parent's cases never ran.
    assert res == Success(plus(intlit(9), intlit(1)))
    assert out.get("log") == b(0)


def test_bus_break_threads_store_from_successful_child():
    ev = Evaluator(MODULE)
    store = ev.init_globals()
    cases = (case("intlit(x)", "local in log = log + 1; intlit(x + 1) end"),)
    vals = (intlit(0), intlit(5))
    res, out = tv.visit_star(tv.bu_visit, ev, cases, vals, store, tv.BreakMode.BREAK_ON_FIRST, budget(None), DUMMY_SPAN)
    assert res == (intlit(1), intlit(5))
    assert out.get("log") == b(1)


# -- strategies at the visit boundary -----------------------------------------


def test_visit_fail_boundary_returns_original():
    ev = evaluator()
    e = parse_expr("bottom-up visit (42) { case intlit(0) => intlit(1) }", MODULE)
    store = Store({"w": b(0)})
    res, out = ev.evaluate(e, store)
    assert res == Success(b(42))
    assert out == store


def test_every_strategy_is_fail_transparent():
    ev = evaluator()
    for st in (
        "top-down",
        "bottom-up",
        "top-down-break",
        "bottom-up-break",
        "innermost",
        "outermost",
    ):
        e = parse_expr(f"{st} visit (plus(intlit(1), intlit(2))) {{ case intlit(0) => intlit(1) }}", MODULE)
        res, _ = ev.evaluate(e, Store())
        assert res == Success(plus(intlit(1), intlit(2))), st


def test_innermost_fixpoint_no_match_single_pass():
    ev = evaluator()
    e = parse_expr("innermost visit (intlit(3)) { case intlit(0) => intlit(1) }", MODULE)
    assert ev.evaluate(e, Store())[0] == Success(intlit(3))


def test_innermost_equals_bottom_up_on_one_shot_rewrites():
    ev = evaluator()
    subject = "plus(intlit(0), plus(intlit(5), intlit(0)))"
    cases = "{ case plus(intlit(0), y) => y case plus(x, intlit(0)) => x }"
    r1, _ = ev.evaluate(parse_expr(f"bottom-up visit ({subject}) {cases}", MODULE), Store())
    r2, _ = ev.evaluate(parse_expr(f"innermost visit ({subject}) {cases}", MODULE), Store())
    assert r1 == r2 == Success(intlit(5))


def test_outermost_reaches_normal_form():
    ev = evaluator()
    e = parse_expr(
        "outermost visit (plus(plus(intlit(0), intlit(2)), intlit(0))) "
        "{ case plus(intlit(0), y) => y case plus(x, intlit(0)) => x }",
        MODULE,
    )
    assert ev.evaluate(e, Store())[0] == Success(intlit(2))


def test_infinite_top_down_times_out():
    m = parse_module("data Nat = zero() | succ(Nat pred);")
    ev = Evaluator(m)
    e = parse_expr("top-down visit (succ(zero())) { case succ(m) => succ(succ(m)) }", m)
    res, _ = ev.evaluate(e, Store(), fuel=3000)
    assert res == __import__("rascal_light.values", fromlist=["TIMEOUT"]).TIMEOUT


def test_visit_can_change_set_cardinality():
    ev = evaluator()
    e = parse_expr("bottom-up visit ({1, 2, 3}) { case int n : x => 9 }", MODULE)
    res, _ = ev.evaluate(e, Store())
    assert res == Success(VSet((b(9),)))
