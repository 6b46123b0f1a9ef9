"""Syntax objects are slotted classes whose equality, hash and repr are
those the frozen dataclasses gave them."""

import inspect

import pytest

from rascal_light import fieldtable, syntax as sx, types as ty
from rascal_light.interp import TraceEntry
from rascal_light.parser import Token
from rascal_light.values import Basic, Store

S = sx.Span


def _syntax_classes():
    """The field-table classes of ``syntax`` and ``types``, their abstract
    bases, and the parser's ``Token``."""
    out = [sx.Expr, sx.Generator, sx.Pattern, ty.Type, Token]
    for module in (sx, ty):
        out += [
            c
            for _, c in inspect.getmembers(module, inspect.isclass)
            if c.__module__ == module.__name__ and c in fieldtable.TABLE
        ]
    return out


def test_syntax_objects_are_slotted():
    classes = _syntax_classes()
    assert len(classes) == 5 + 49 + 7
    for cls in classes:
        assert "__slots__" in vars(cls), cls
        assert not hasattr(object.__new__(cls), "__dict__"), cls


# A store binding ``y``, and two firings that each bind ``x`` from there.
_Y = Store().updated("y", Basic(2))


def _firing(pre, name):
    return TraceEntry("E-Asgn", S(0, 5), "success", pre, pre.updated(name, Basic(1)))


def _cached_lit():
    lit = sx.Lit(1, S(0, 1))
    lit._result = "cached"
    return lit


# (a, b, repr(a), repr(b), a == b, hash(a) == hash(b)), as the frozen
# dataclasses answered.
PAIRS = [
    (S(0, 1), S(0, 1), "Span(start=0, end=1)", "Span(start=0, end=1)", True, True),
    (S(0, 1), S(0, 2), "Span(start=0, end=1)", "Span(start=0, end=2)", False, False),
    (sx.Lit(1, S(0, 1)), sx.Lit(1), "Lit(value=1)", "Lit(value=1)", True, True),
    (_cached_lit(), sx.Lit(1), "Lit(value=1)", "Lit(value=1)", True, True),
    (sx.Lit(1), sx.Lit("1"), "Lit(value=1)", "Lit(value='1')", False, False),
    (sx.Lit(1), sx.LitPat(1), "Lit(value=1)", "LitPat(value=1)", False, True),
    (sx.Var("x", S(3, 4)), sx.Var("x"), "Var(name='x')", "Var(name='x')", True, True),
    (
        sx.Binary(sx.Lit(1), "+", sx.Var("x"), S(0, 5)),
        sx.Binary(sx.Lit(1, S(0, 1)), "+", sx.Var("x", S(4, 5))),
        "Binary(left=Lit(value=1), op='+', right=Var(name='x'))",
        "Binary(left=Lit(value=1), op='+', right=Var(name='x'))",
        True,
        True,
    ),
    (
        sx.Binary(sx.Lit(1), "+", sx.Var("x")),
        sx.Binary(sx.Lit(1), "-", sx.Var("x")),
        "Binary(left=Lit(value=1), op='+', right=Var(name='x'))",
        "Binary(left=Lit(value=1), op='-', right=Var(name='x'))",
        False,
        False,
    ),
    (sx.BreakExpr(S(1, 2)), sx.BreakExpr(), "BreakExpr()", "BreakExpr()", True, True),
    (sx.BreakExpr(), sx.ContinueExpr(), "BreakExpr()", "ContinueExpr()", False, True),
    (
        sx.Switch(sx.Var("v"), (sx.Case(sx.VarPat("y", S(2, 3)), sx.Lit(2), S(0, 9)),), S(0, 20)),
        sx.Switch(sx.Var("v"), (sx.Case(sx.VarPat("y"), sx.Lit(2)),)),
        "Switch(subject=Var(name='v'), cases=(Case(pattern=VarPat(name='y'), body=Lit(value=2)),))",
        "Switch(subject=Var(name='v'), cases=(Case(pattern=VarPat(name='y'), body=Lit(value=2)),))",
        True,
        True,
    ),
    (
        sx.Block((sx.LocalDecl(ty.INT, "a", S(6, 11)),), (sx.Assign("a", sx.Lit(1)),), S(0, 30)),
        sx.Block((sx.LocalDecl(ty.INT, "a"),), (sx.Assign("a", sx.Lit(1)),)),
        "Block(locals=(LocalDecl(type=BaseType('int'), name='a'),), body=(Assign(name='a', value=Lit(value=1)),))",
        "Block(locals=(LocalDecl(type=BaseType('int'), name='a'),), body=(Assign(name='a', value=Lit(value=1)),))",
        True,
        True,
    ),
    (
        sx.For(sx.Enumerating("x", sx.Var("s"), S(5, 10)), sx.Var("x")),
        sx.For(sx.Enumerating("x", sx.Var("s")), sx.Var("x")),
        "For(generator=Enumerating(var='x', source=Var(name='s')), body=Var(name='x'))",
        "For(generator=Enumerating(var='x', source=Var(name='s')), body=Var(name='x'))",
        True,
        True,
    ),
    (
        sx.TypedPat(ty.ListType(ty.INT), "l", sx.ListPat((sx.Star("xs", S(1, 3)),)), S(0, 9)),
        sx.TypedPat(ty.ListType(ty.INT), "l", sx.ListPat((sx.Star("xs"),))),
        "TypedPat(type=ListType(BaseType('int')), name='l', pattern=ListPat(elements=(Star(name='xs'),)))",
        "TypedPat(type=ListType(BaseType('int')), name='l', pattern=ListPat(elements=(Star(name='xs'),)))",
        True,
        True,
    ),
    (
        sx.FunDef("f", ty.INT, (sx.Param(ty.INT, "n", S(6, 11)),), sx.Var("n"), S(0, 20)),
        sx.FunDef("f", ty.INT, (sx.Param(ty.INT, "n"),), sx.Var("n")),
        "FunDef(name='f', return_type=BaseType('int'), params=(Param(type=BaseType('int'), name='n'),), body=Var(name='n'))",
        "FunDef(name='f', return_type=BaseType('int'), params=(Param(type=BaseType('int'), name='n'),), body=Var(name='n'))",
        True,
        True,
    ),
    (
        sx.ModuleDef((sx.GlobalDef("g", ty.STR, sx.Lit("a"), S(0, 9)),)),
        sx.ModuleDef((sx.GlobalDef("g", ty.STR, sx.Lit("a")),)),
        "ModuleDef(globals=(GlobalDef(name='g', type=BaseType('str'), init=Lit(value='a')),), functions=(), datatypes=())",
        "ModuleDef(globals=(GlobalDef(name='g', type=BaseType('str'), init=Lit(value='a')),), functions=(), datatypes=())",
        True,
        True,
    ),
    (
        sx.DataDef("D", (sx.ConsDef("c", (sx.FieldDef(ty.VALUE, "k", S(1, 2)),), S(0, 4)),)),
        sx.DataDef("D", (sx.ConsDef("c", (sx.FieldDef(ty.VALUE, "k"),)),)),
        "DataDef(name='D', constructors=(ConsDef(name='c', fields=(FieldDef(type=VALUE, name='k'),)),))",
        "DataDef(name='D', constructors=(ConsDef(name='c', fields=(FieldDef(type=VALUE, name='k'),)),))",
        True,
        True,
    ),
    # A diagnostic's span is one of its fields.
    (
        sx.WellFormednessError("k", "n", S(0, 1), "m"),
        sx.WellFormednessError("k", "n", S(0, 2), "m"),
        "WellFormednessError(kind='k', name='n', span=Span(start=0, end=1), message='m')",
        "WellFormednessError(kind='k', name='n', span=Span(start=0, end=2), message='m')",
        False,
        False,
    ),
    (ty.BaseType("int"), ty.INT, "BaseType('int')", "BaseType('int')", True, True),
    (ty.BaseType("int"), ty.DataType("int"), "BaseType('int')", "DataType('int')", False, True),
    (
        ty.MapType(ty.INT, ty.STR),
        ty.MapType(ty.INT, ty.STR),
        "MapType(BaseType('int'), BaseType('str'))",
        "MapType(BaseType('int'), BaseType('str'))",
        True,
        True,
    ),
    (ty.SetType(ty.INT), ty.ListType(ty.INT), "SetType(BaseType('int'))", "ListType(BaseType('int'))", False, True),
    (ty.VoidType(), ty.VOID, "VOID", "VOID", True, True),
    (ty.VALUE, ty.VOID, "VALUE", "VOID", False, True),
    (
        Token("int", 1, 0, 1),
        Token("int", 1, 0, 1),
        "Token(kind='int', value=1, start=0, end=1)",
        "Token(kind='int', value=1, start=0, end=1)",
        True,
        True,
    ),
    (
        Token("int", 1, 0, 1),
        Token("int", 1, 2, 3),
        "Token(kind='int', value=1, start=0, end=1)",
        "Token(kind='int', value=1, start=2, end=3)",
        False,
        False,
    ),
    # A firing's stores are not compared, the names they bind differently are.
    (
        _firing(Store(), "x"),
        _firing(_Y, "x"),
        "TraceEntry(rule='E-Asgn', span=Span(start=0, end=5), kind='success', changed=('x',))",
        "TraceEntry(rule='E-Asgn', span=Span(start=0, end=5), kind='success', changed=('x',))",
        True,
        True,
    ),
    (
        _firing(_Y, "x"),
        _firing(_Y, "y"),
        "TraceEntry(rule='E-Asgn', span=Span(start=0, end=5), kind='success', changed=('x',))",
        "TraceEntry(rule='E-Asgn', span=Span(start=0, end=5), kind='success', changed=('y',))",
        False,
        False,
    ),
]


@pytest.mark.parametrize("a, b, repr_a, repr_b, equal, same_hash", PAIRS)
def test_equality_hash_and_repr_are_the_frozen_dataclasses(a, b, repr_a, repr_b, equal, same_hash):
    assert (repr(a), repr(b)) == (repr_a, repr_b)
    assert (a == b, a != b, hash(a) == hash(b)) == (equal, not equal, same_hash)
    for x in (a, b):
        # A frozen dataclass hashes the tuple of its compared fields.
        compared = tuple(getattr(x, name) for name in fieldtable.TABLE[type(x)][1])
        assert hash(x) == hash(compared)

