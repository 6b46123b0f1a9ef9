import sys

from rascal_light import syntax as sx
from rascal_light.parser import parse_module
from rascal_light.patterns import match, match_all, merge_pair
from rascal_light.syntax import constructor_table
from rascal_light.values import Basic, Store, VCons, VList, VSet

MODULE = parse_module(
    "data Expr = intlit(int v) | plus(Expr lop, Expr rop);"
    "data P = pair(int a, int b);"
    "data U = unit();"
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
    assert list(match(sx.VarPat("x"), b(5), Store({"x": b(5)}), CONS)) == [{}]
    assert list(match(sx.VarPat("x"), b(5), Store({"x": b(6)}), CONS)) == []
    # Free variable: binds.
    assert list(match(sx.VarPat("x"), b(5), Store(), CONS)) == [{"x": b(5)}]


def test_literal_patterns():
    assert list(match(sx.LitPat(1), b(1), Store(), CONS)) == [{}]
    assert list(match(sx.LitPat(1), b(2), Store(), CONS)) == []
    assert list(match(sx.LitPat("a"), b("a"), Store(), CONS)) == [{}]


def test_negation():
    assert list(match(sx.NegPat(sx.LitPat(0)), b(1), Store(), CONS)) == [{}]
    assert list(match(sx.NegPat(sx.LitPat(0)), b(0), Store(), CONS)) == []
    # Negation binds nothing even when the inner pattern would.
    assert list(match(sx.NegPat(sx.VarPat("x")), b(1), Store(), CONS)) == []


def test_descendant_occurrences():
    pat = sx.DeepPat(sx.ConsPat("intlit", (sx.LitPat(0),)))
    assert list(match(pat, plus(intlit(0), intlit(5)), Store(), CONS)) == [{}]
    both = plus(intlit(0), plus(intlit(5), intlit(0)))
    assert list(match(pat, both, Store(), CONS)) == [{}, {}]
    assert list(match(pat, intlit(7), Store(), CONS)) == []


def test_descendant_self_before_children():
    pat = sx.DeepPat(sx.VarPat("x"))
    envs = list(match(pat, plus(intlit(1), intlit(2)), Store(), CONS))
    # First environment matches the whole value, then descendants.
    assert envs[0] == {"x": plus(intlit(1), intlit(2))}
    assert {"x": intlit(1)} in envs and {"x": b(2)} in envs
    assert len(envs) == 5  # every contained value, including basics


def test_typed_labelled():
    from rascal_light.types import DataType

    pat = sx.TypedPat(DataType("Expr"), "e", sx.ConsPat("intlit", (sx.VarPat("n"),)))
    assert list(match(pat, intlit(3), Store(), CONS)) == [{"e": intlit(3), "n": b(3)}]
    # Type mismatch fails before the inner pattern runs.
    pat2 = sx.TypedPat(DataType("P"), "e", sx.VarPat("y"))
    assert list(match(pat2, intlit(3), Store(), CONS)) == []


def test_nonlinear_consistency():
    pat = sx.ConsPat("pair", (sx.VarPat("x"), sx.VarPat("x")))
    assert list(match(pat, VCons("pair", (b(1), b(2))), Store(), CONS)) == []
    assert list(match(pat, VCons("pair", (b(1), b(1))), Store(), CONS)) == [{"x": b(1)}]


def test_match_all_list_split_order():
    envs = list(
        match_all((sx.Star("xs"), sx.Star("ys")), (b(1), b(2)), Store(), True, CONS)
    )
    assert envs == [
        {"xs": VList(()), "ys": VList((b(1), b(2)))},
        {"xs": VList((b(1),)), "ys": VList((b(2),))},
        {"xs": VList((b(1), b(2))), "ys": VList(())},
    ]


def test_match_all_set_splits():
    envs = list(
        match_all((sx.Star("xs"), sx.Star("ys")), (b(1), b(2)), Store(), False, CONS)
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
    assert list(match_all((), (), Store(), True, CONS)) == [{}]
    assert list(match_all((), (b(1),), Store(), True, CONS)) == []


def test_match_all_star_unification():
    store = Store({"xs": VSet((b(1),))})
    envs = list(
        match_all((sx.Star("xs"), sx.Star("ys")), (b(1), b(2)), store, False, CONS)
    )
    assert envs == [{"ys": VSet((b(2),))}]
    # Bound star with no valid split fails.
    store2 = Store({"xs": VSet((b(9),))})
    assert list(match_all((sx.Star("xs"),), (b(1),), store2, False, CONS)) == []
    # Bound star that is not a collection of the right kind fails.
    store3 = Store({"xs": b(1)})
    assert list(match_all((sx.Star("xs"),), (b(1),), store3, False, CONS)) == []


def test_single_element_set_pattern_backtracking():
    envs = list(match_all((sx.VarPat("x"),), (b(1), b(2)), Store(), False, CONS))
    assert envs == []  # a single ordinary pattern must consume the whole set
    envs = list(
        match_all((sx.VarPat("x"), sx.Star("r")), (b(1), b(2)), Store(), False, CONS)
    )
    assert envs == [
        {"x": b(1), "r": VSet((b(2),))},
        {"x": b(2), "r": VSet((b(1),))},
    ]


def test_merge():
    x, y = sx.VarPat("x"), sx.VarPat("y")
    pat = sx.ConsPat("plus", (x, sx.ConsPat("plus", (x, y))))
    # Arguments that agree on a shared variable merge into one binding.
    agree = plus(intlit(1), plus(intlit(1), intlit(2)))
    assert list(match(pat, agree, Store(), CONS)) == [{"x": intlit(1), "y": intlit(2)}]
    # A conflict gives no environment.
    clash = plus(intlit(1), plus(intlit(2), intlit(2)))
    assert list(match(pat, clash, Store(), CONS)) == []
    # The empty product gives one empty environment.
    assert list(match(sx.ConsPat("unit", ()), VCons("unit", ()), Store(), CONS)) == [{}]
    # Left-to-right product order.
    def deep(name):
        return sx.DeepPat(sx.ConsPat("intlit", (sx.VarPat(name),)))

    pair_of_pairs = plus(plus(intlit(1), intlit(2)), plus(intlit(1), intlit(2)))
    out = list(match(sx.ConsPat("plus", (deep("a"), deep("b"))), pair_of_pairs, Store(), CONS))
    assert out == [
        {"a": b(1), "b": b(1)},
        {"a": b(1), "b": b(2)},
        {"a": b(2), "b": b(1)},
        {"a": b(2), "b": b(2)},
    ]


def test_list_pattern_through_match():
    pat = sx.ListPat((sx.LitPat(1), sx.Star("rest")))
    envs = list(match(pat, VList((b(1), b(2), b(3))), Store(), CONS))
    assert envs == [{"rest": VList((b(2), b(3)))}]
    assert list(match(pat, VSet((b(1),)), Store(), CONS)) == []  # kind mismatch


def test_match_never_mutates_store():
    store = Store({"x": b(5), "xs": VList((b(1),))})
    snapshot = store.as_dict()
    # Drained: a generator not run has read nothing.
    list(match(sx.DeepPat(sx.VarPat("x")), plus(intlit(0), intlit(5)), store, CONS))
    list(
        match(
            sx.ListPat((sx.Star("xs"), sx.Star("zz"))),
            VList((b(1), b(2))),
            store,
            CONS,
        )
    )
    assert store.as_dict() == snapshot


def _first_pick_work(n):
    """Set constructions and environment merges for the first match of
    ``{*xs, x}`` on an n-element set."""
    pat = sx.SetPat((sx.Star("xs"), sx.VarPat("x")))
    v = VSet(tuple(b(i) for i in range(n)))
    codes = {VSet.__init__.__code__, merge_pair.__code__}
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code in codes:
            calls += 1

    sys.setprofile(profile)
    try:
        first = next(match(pat, v, Store(), CONS))
    finally:
        sys.setprofile(None)
    assert first == {"xs": VSet(v.items[1:]), "x": b(0)}
    return calls


def test_first_set_match_work_does_not_grow_with_the_set():
    # Subsets are drawn largest first and one at a time: the first match
    # builds the same few candidates at n = 8 as at n = 16, where building
    # every split first would build 2^n sets.
    assert 0 < _first_pick_work(8) == _first_pick_work(16)
