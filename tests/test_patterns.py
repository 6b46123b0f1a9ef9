from rascal_light import syntax as sx
from rascal_light.parser import parse_module
from rascal_light.patterns import (
    LIST_CONFIG,
    SET_CONFIG,
    match,
    match_all,
    merge,
)
from rascal_light.syntax import constructor_table
from rascal_light.values import Basic, Store, VCons, VList, VSet

MODULE = parse_module(
    "data Expr = intlit(int v) | plus(Expr lop, Expr rop);"
    "data P = pair(int a, int b);"
)
CONS = constructor_table(MODULE)


def b(x):
    return Basic(x)


def intlit(n):
    return VCons("intlit", (b(n),))


def plus(x, y):
    return VCons("plus", (x, y))


def test_var_unification_and_binding():
    # Bound variable: equality check against the store.
    assert match(sx.VarPat("x"), b(5), Store({"x": b(5)}), CONS) == [{}]
    assert match(sx.VarPat("x"), b(5), Store({"x": b(6)}), CONS) == []
    # Free variable: binds.
    assert match(sx.VarPat("x"), b(5), Store(), CONS) == [{"x": b(5)}]


def test_literal_patterns():
    assert match(sx.LitPat(1), b(1), Store(), CONS) == [{}]
    assert match(sx.LitPat(1), b(2), Store(), CONS) == []
    assert match(sx.LitPat("a"), b("a"), Store(), CONS) == [{}]


def test_negation():
    assert match(sx.NegPat(sx.LitPat(0)), b(1), Store(), CONS) == [{}]
    assert match(sx.NegPat(sx.LitPat(0)), b(0), Store(), CONS) == []
    # Negation binds nothing even when the inner pattern would.
    assert match(sx.NegPat(sx.VarPat("x")), b(1), Store(), CONS) == []


def test_descendant_occurrences():
    pat = sx.DeepPat(sx.ConsPat("intlit", (sx.LitPat(0),)))
    assert match(pat, plus(intlit(0), intlit(5)), Store(), CONS) == [{}]
    both = plus(intlit(0), plus(intlit(5), intlit(0)))
    assert match(pat, both, Store(), CONS) == [{}, {}]
    assert match(pat, intlit(7), Store(), CONS) == []


def test_descendant_self_before_children():
    pat = sx.DeepPat(sx.VarPat("x"))
    envs = match(pat, plus(intlit(1), intlit(2)), Store(), CONS)
    # First environment matches the whole value, then descendants.
    assert envs[0] == {"x": plus(intlit(1), intlit(2))}
    assert {"x": intlit(1)} in envs and {"x": b(2)} in envs
    assert len(envs) == 5  # every contained value, including basics


def test_typed_labelled():
    from rascal_light.types import DataType

    pat = sx.TypedPat(DataType("Expr"), "e", sx.ConsPat("intlit", (sx.VarPat("n"),)))
    assert match(pat, intlit(3), Store(), CONS) == [{"e": intlit(3), "n": b(3)}]
    # Type mismatch fails before the inner pattern runs.
    pat2 = sx.TypedPat(DataType("P"), "e", sx.VarPat("y"))
    assert match(pat2, intlit(3), Store(), CONS) == []


def test_nonlinear_consistency():
    pat = sx.ConsPat("pair", (sx.VarPat("x"), sx.VarPat("x")))
    assert match(pat, VCons("pair", (b(1), b(2))), Store(), CONS) == []
    assert match(pat, VCons("pair", (b(1), b(1))), Store(), CONS) == [{"x": b(1)}]


def test_match_all_list_split_order():
    envs = match_all(
        (sx.Star("xs"), sx.Star("ys")), (b(1), b(2)), Store(), LIST_CONFIG, CONS
    )
    assert envs == [
        {"xs": VList(()), "ys": VList((b(1), b(2)))},
        {"xs": VList((b(1),)), "ys": VList((b(2),))},
        {"xs": VList((b(1), b(2))), "ys": VList(())},
    ]


def test_match_all_set_splits():
    envs = match_all(
        (sx.Star("xs"), sx.Star("ys")), (b(1), b(2)), Store(), SET_CONFIG, CONS
    )
    assert len(envs) == 4
    as_set = {(e["xs"], e["ys"]) for e in envs}
    assert as_set == {
        (VSet(()), VSet((b(1), b(2)))),
        (VSet((b(1),)), VSet((b(2),))),
        (VSet((b(2),)), VSet((b(1),))),
        (VSet((b(1), b(2))), VSet(())),
    }
    # Larger subcollections are tried first.
    assert envs[0]["xs"] == VSet((b(1), b(2)))


def test_match_all_empty_cases():
    assert match_all((), (), Store(), LIST_CONFIG, CONS) == [{}]
    assert match_all((), (b(1),), Store(), LIST_CONFIG, CONS) == []


def test_match_all_star_unification():
    store = Store({"xs": VSet((b(1),))})
    envs = match_all(
        (sx.Star("xs"), sx.Star("ys")), (b(1), b(2)), store, SET_CONFIG, CONS
    )
    assert envs == [{"ys": VSet((b(2),))}]
    # Bound star with no valid split fails.
    store2 = Store({"xs": VSet((b(9),))})
    assert (
        match_all((sx.Star("xs"),), (b(1),), store2, SET_CONFIG, CONS) == []
    )
    # Bound star that is not a collection of the right kind fails.
    store3 = Store({"xs": b(1)})
    assert (
        match_all((sx.Star("xs"),), (b(1),), store3, SET_CONFIG, CONS) == []
    )


def test_single_element_set_pattern_backtracking():
    envs = match_all((sx.VarPat("x"),), (b(1), b(2)), Store(), SET_CONFIG, CONS)
    assert envs == []  # a single ordinary pattern must consume the whole set
    envs = match_all(
        (sx.VarPat("x"), sx.Star("r")), (b(1), b(2)), Store(), SET_CONFIG, CONS
    )
    assert envs == [
        {"x": b(1), "r": VSet((b(2),))},
        {"x": b(2), "r": VSet((b(1),))},
    ]


def test_merge():
    assert merge([{"x": b(1)}], [{"x": b(1), "y": b(2)}]) == [{"x": b(1), "y": b(2)}]
    assert merge([{"x": b(1)}], [{"x": b(2)}]) == []
    assert merge() == [{}]
    # Left-to-right product order.
    out = merge([{"a": b(1)}, {"a": b(2)}], [{"b": b(1)}, {"b": b(2)}])
    assert out == [
        {"a": b(1), "b": b(1)},
        {"a": b(1), "b": b(2)},
        {"a": b(2), "b": b(1)},
        {"a": b(2), "b": b(2)},
    ]


def test_list_pattern_through_match():
    pat = sx.ListPat((sx.LitPat(1), sx.Star("rest")))
    envs = match(pat, VList((b(1), b(2), b(3))), Store(), CONS)
    assert envs == [{"rest": VList((b(2), b(3)))}]
    assert match(pat, VSet((b(1),)), Store(), CONS) == []  # kind mismatch


def test_match_never_mutates_store():
    store = Store({"x": b(5), "xs": VList((b(1),))})
    snapshot = store.as_dict()
    match(sx.DeepPat(sx.VarPat("x")), plus(intlit(0), intlit(5)), store, CONS)
    match(
        sx.ListPat((sx.Star("xs"), sx.Star("zz"))),
        VList((b(1), b(2))),
        store,
        CONS,
    )
    assert store.as_dict() == snapshot
