import hashlib
import itertools
import random

import pytest

from rascal_light import types as ty
from rascal_light.harness import GenBudget, _ModuleGen, gen_any_value, gen_type, gen_value
from rascal_light.interp import Evaluator, apply_binary
from rascal_light.parser import Parser, SourceFile, parse_expr, parse_module
from rascal_light.syntax import ModuleDef, constructor_table
from rascal_light.types import (
    BaseType,
    DataType,
    IllFormedValue,
    ListType,
    MapType,
    SetType,
    VALUE,
    VOID,
    lub,
    lub_seq,
    render_type,
    subtype,
    type_of,
)
from rascal_light.values import ERROR, Basic, Store, Success, UNDEF, Undefined, VCons, VList, VMap, VSet

INT = BaseType("int")
STR = BaseType("str")
BOOL = DataType("Bool")

# Only the built-in datatypes are needed for these values.
CONS = constructor_table(ModuleDef())

TRUE = VCons("true", ())
FALSE = VCons("false", ())


def test_type_of_examples():
    assert type_of(UNDEF, CONS) == VOID
    assert type_of(VList(()), CONS) == ListType(VOID)
    # Hand-applied typing: both elements type as Bool, whose join is Bool.
    assert type_of(VSet((TRUE, FALSE)), CONS) == SetType(BOOL)
    assert type_of(Basic(3), CONS) == INT
    assert type_of(Basic("x"), CONS) == STR
    assert type_of(VMap(((Basic(1), Basic("a")),)), CONS) == MapType(INT, STR)
    assert type_of(VMap(()), CONS) == MapType(VOID, VOID)


def test_type_of_ill_formed():
    with pytest.raises(IllFormedValue):
        type_of(VCons("nokey", ()), CONS)  # wrong arity
    with pytest.raises(IllFormedValue):
        type_of(VCons("ghost", ()), CONS)  # undeclared


def test_type_of_respects_canonical_collections():
    a = VSet((Basic(1), TRUE))
    b = VSet((TRUE, Basic(1)))
    assert a == b and type_of(a, CONS) == type_of(b, CONS)


def test_subtype_examples():
    assert subtype(VOID, ListType(INT))
    assert subtype(ListType(VOID), ListType(INT))
    assert not subtype(SetType(INT), ListType(INT))
    assert subtype(MapType(VOID, VOID), MapType(INT, STR))
    assert subtype(INT, VALUE)
    assert not subtype(VALUE, INT)
    assert subtype(BOOL, BOOL)
    assert not subtype(BOOL, DataType("NoKey"))


def test_lub_examples():
    assert lub(ListType(INT), ListType(VOID)) == ListType(INT)
    assert lub_seq([]) == VOID
    assert lub(INT, STR) == VALUE
    assert lub(MapType(INT, VOID), MapType(VOID, STR)) == MapType(INT, STR)
    assert lub(SetType(INT), ListType(INT)) == VALUE
    assert lub(VALUE, INT) == VALUE


def _type_corpus(depth):
    base = [INT, STR, BOOL, VOID, VALUE]
    if depth == 0:
        return base
    inner = _type_corpus(depth - 1)
    out = list(base)
    for t in inner:
        out.append(ListType(t))
        out.append(SetType(t))
    for k, v in itertools.islice(itertools.product(inner, repeat=2), 12):
        out.append(MapType(k, v))
    return out


CORPUS = _type_corpus(3)


def test_subtype_reflexive_transitive_on_corpus():
    for t in CORPUS:
        assert subtype(t, t)
    for a, b, c in itertools.islice(itertools.product(CORPUS, repeat=3), 60000):
        if subtype(a, b) and subtype(b, c):
            assert subtype(a, c)


def test_lub_commutative_associative_idempotent():
    for a, b in itertools.product(CORPUS, repeat=2):
        assert lub(a, b) == lub(b, a)
        assert subtype(a, lub(a, b)) and subtype(b, lub(a, b))
    for a in CORPUS:
        assert lub(a, a) == a
    for a, b, c in itertools.islice(itertools.product(CORPUS, repeat=3), 30000):
        assert lub(lub(a, b), c) == lub(a, lub(b, c))


def test_every_value_types_below_top():
    rng = random.Random(3)
    gen = _ModuleGen(rng, GenBudget(seed=3), finite=False)
    gen.build_datatypes()
    for _ in range(300):
        v = gen_any_value(rng, gen.cons_by_type, 3)
        assert subtype(type_of(v, gen.constructors), VALUE)


def test_render_type():
    assert render_type(MapType(INT, STR)) == "map<int, str>"
    assert render_type(SetType(ListType(VOID))) == "set<list<void>>"
    assert render_type(VALUE) == "value"
    assert render_type(BOOL) == "Bool"


# Every word of the type-word table: the one-word types, and the
# collection types nested two deep around them.  ``gen_type`` never draws
# ``void`` or ``value``.
WORD_TYPES = [t for t in ty.TYPE_WORDS.values() if isinstance(t, ty.Type)]
ELEM_KINDS = [k for k in ty.TYPE_WORDS.values() if not isinstance(k, ty.Type)]
_ONE_DEEP = [k(t) for k in ELEM_KINDS for t in WORD_TYPES]
WORD_CORPUS = WORD_TYPES + _ONE_DEEP + [k(t) for k in ELEM_KINDS for t in _ONE_DEEP]


def _parse_type(text):
    p = Parser(SourceFile("<type>", text))
    t = p.parse_type()
    assert p.at("eof"), text
    return t


def test_type_words_round_trip():
    assert {render_type(t) for t in WORD_TYPES} == {"int", "str", "void", "value"}
    assert {k.__name__ for k in ELEM_KINDS} == {"ListType", "SetType"}
    assert len(WORD_CORPUS) == 28
    for t in WORD_CORPUS:
        assert _parse_type(render_type(t)) == t


# sha256 of subtype, lub and render_type over every ordered pair of
# WORD_CORPUS plus two datatypes, recorded before lists and sets shared
# one arm in each.
TYPE_TABLE_DIGEST = "952c1033ff358e179fe5a6accc68b9ab5e9580a99d4dc3c5ecd4be3abb86baac"


def test_subtype_lub_and_render_match_the_recorded_digest():
    corpus = WORD_CORPUS + [BOOL, DataType("D1")]
    h = hashlib.sha256()
    for a, b in itertools.product(corpus, repeat=2):
        j = lub(a, b)
        h.update(f"{render_type(a)}|{render_type(b)}|{subtype(a, b)}|{j!r}|{render_type(j)}\n".encode())
    assert h.hexdigest() == TYPE_TABLE_DIGEST


# ---------------------------------------------------------------------------
# Types recorded on values (type_of's per-table cache) against the walk


def _generated(seed, count=200):
    """A module's constructor table and ``count`` generated values."""
    rng = random.Random(seed)
    gen = _ModuleGen(rng, GenBudget(seed=seed), finite=False)
    gen.build_datatypes()
    values = []
    for i in range(count):
        if i % 2:
            values.append(gen_any_value(rng, gen.cons_by_type, 3))
        else:
            values.append(gen_value(rng, gen_type(rng, gen.cons_by_type, 2), gen.cons_by_type, 3))
    return gen.constructors, values, rng


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_cached_types_equal_walked_types(seed):
    cons, values, _ = _generated(seed)
    for v in values:
        want = ty._type_of_walk(v, cons)
        assert type_of(v, cons) == want
        if not isinstance(v, (Basic, Undefined)):
            assert v._typed[0] is cons and v._typed[1] == want
        assert type_of(v, cons) == want


def test_another_table_retypes():
    cons, values, _ = _generated(5, count=50)
    for v in values:
        type_of(v, cons)
    copy = dict(cons)
    for v in values:
        assert type_of(v, copy) == ty._type_of_walk(v, cons)
        if not isinstance(v, (Basic, Undefined)):
            assert v._typed[0] is copy
    # A table that lacks a constructor the recorded type relied on.
    nat = Evaluator(parse_module("data Nat = zero() | succ(Nat pred);")).constructors
    v = VList((VCons("succ", (VCons("zero", ()),)),))
    assert type_of(v, nat) == ListType(DataType("Nat"))
    smaller = {k: sig for k, sig in nat.items() if k != "zero"}
    with pytest.raises(IllFormedValue):
        type_of(v, smaller)


def test_ill_formed_values_still_raise_and_are_not_recorded():
    cons = Evaluator(parse_module("data Nat = zero() | succ(Nat pred);")).constructors
    good = VCons("succ", (VCons("zero", ()),))
    assert type_of(good, cons) == DataType("Nat")
    bad = [
        VCons("succ", (Basic("x"),)),
        VCons("succ", (good, good)),
        VCons("ghost", ()),
        VList((good, VCons("succ", (Basic(1),)))),
        VMap(((Basic(1), VSet((VCons("zero", (good,)),))),)),
        VCons("succ", (VList((good,)),)),
    ]
    for v in bad:
        for _ in range(2):
            with pytest.raises(IllFormedValue):
                type_of(v, cons)
        assert v._typed is None
    # An ill-formed operand records nothing on a collection ``+``.
    out = _plus(VList((good,)), VList((bad[0],)), cons)
    assert out._typed is None
    with pytest.raises(IllFormedValue):
        type_of(out, cons)


def _plus(v1, v2, cons):
    """``v1 + v2`` with its type recorded, as the evaluator's E-Bin does."""
    res = apply_binary("+", v1, v2)
    assert isinstance(res, Success)
    return ty.typed_join(res.value, v1, v2, cons)


def _collection_pairs(rng, cons, values):
    """Pairs of generated values of the same collection kind."""
    by_kind = {}
    for v in values:
        if isinstance(v, (VList, VSet, VMap)):
            by_kind.setdefault(type(v), []).append(v)
    for vs in by_kind.values():
        for _ in range(60):
            yield rng.choice(vs), rng.choice(vs)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_collection_plus_records_the_walked_type(seed):
    cons, values, rng = _generated(seed, count=300)
    seen = 0
    for v1, v2 in _collection_pairs(rng, cons, values):
        if rng.random() < 0.5:  # operands typed beforehand, or not
            type_of(v1, cons)
        out = _plus(v1, v2, cons)
        seen += out._typed is not None
        assert type_of(out, cons) == ty._type_of_walk(out, cons)
        if isinstance(v1, VMap):
            x = rng.choice(values)
            # Probably a new key, then an existing one if there is any.
            for key in [rng.choice(values)] + [k for k, _ in v1.pairs[:1]]:
                m = _plus(v1, VMap(((key, x),)), cons)
                assert type_of(m, cons) == ty._type_of_walk(m, cons)
    assert seen > 0


def _run(src_module, expr):
    ev = Evaluator(parse_module(src_module))
    res, _ = ev.evaluate(parse_expr(expr), Store())
    if isinstance(res, Success):
        assert type_of(res.value, ev.constructors) == ty._type_of_walk(res.value, ev.constructors)
    return res


@pytest.mark.parametrize(
    "expr, want",
    [
        # An overwritten binding was the only source of the old value type.
        ('local map<int, int> m in m = (1 : "a")[1 = 2]; m end', VMap(((Basic(1), Basic(2)),))),
        ('local map<int, int> m in m = (1 : "a") + (1 : 2); m end', VMap(((Basic(1), Basic(2)),))),
        ('local map<int, str> m in m = (1 : "a")[2 = "b"]; m end', VMap(((Basic(1), Basic("a")), (Basic(2), Basic("b"))))),
        ('local list<int> xs in xs = [] + [1]; xs = xs + [2]; xs end', VList((Basic(1), Basic(2)))),
        ('local set<int> s in s = {1} + {1, 2}; s end', VSet((Basic(1), Basic(2)))),
        ('local map<int, int> m in m = () + (1 : 2); m = m + (1 : 3); m end', VMap(((Basic(1), Basic(3)),))),
    ],
)
def test_assignments_of_joined_collections(expr, want):
    assert _run("", expr) == Success(want)


@pytest.mark.parametrize(
    "expr",
    [
        'local list<int> xs in xs = [1] + ["a"]; xs end',
        'local set<int> s in s = {1} + {"a"}; s end',
        'local map<int, int> m in m = (1 : 2) + (2 : "a"); m end',
        'local map<int, int> m in m = (1 : 2)[2 = "a"]; m end',
    ],
)
def test_assignments_of_ill_typed_joins_are_errors(expr):
    assert _run("", expr) == ERROR



# ---------------------------------------------------------------------------
# has_type, the evaluator's one-call typing premise, against the pair it
# replaces


def _typing_outcome(check):
    """``check()``, or IllFormedValue if it raises that."""
    try:
        return check()
    except IllFormedValue:
        return IllFormedValue


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_has_type_equals_subtype_of_type_of(seed):
    rng = random.Random(seed)
    gen = _ModuleGen(rng, GenBudget(seed=seed), finite=False)
    gen.build_datatypes()
    cons = gen.constructors
    values = [gen_any_value(rng, gen.cons_by_type, 3) for _ in range(150)]
    # The parser's shared types and equal ones built here (INT, STR), so
    # both the identity and the equality test of a basic value's type run.
    types = [gen_type(rng, gen.cons_by_type, 2) for _ in range(40)]
    types += [ty.INT, ty.STR, INT, STR, VOID, VALUE, BOOL, ListType(INT), MapType(STR, VALUE)]
    for v, t in itertools.product(values + [UNDEF, Basic(0), Basic(""), TRUE], types):
        want = _typing_outcome(lambda: subtype(type_of(v, cons), t))
        assert _typing_outcome(lambda: ty.has_type(v, t, cons)) == want, (v, t)


def test_has_type_raises_where_type_of_does():
    cons = Evaluator(parse_module("data Nat = zero() | succ(Nat pred);")).constructors
    good = VCons("succ", (VCons("zero", ()),))
    bad = [
        VCons("succ", (Basic("x"),)),
        VCons("succ", (good, good)),
        VCons("ghost", ()),
        VList((good, VCons("succ", (Basic(1),)))),
        VMap(((Basic(1), VSet((VCons("zero", (good,)),))),)),
    ]
    for v in bad:
        for t in (DataType("Nat"), VALUE, VOID, INT, ListType(DataType("Nat"))):
            with pytest.raises(IllFormedValue):
                subtype(type_of(v, cons), t)
            with pytest.raises(IllFormedValue):
                ty.has_type(v, t, cons)
