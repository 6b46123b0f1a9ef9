"""Shared values are never required.

The evaluator shares the values of small integers and the booleans
``TRUE`` and ``FALSE``, and its rule groups test identity before equality.
A value equal to a shared one but built elsewhere must decide alike: the
same result, store and rule sequence, traced and untraced.
"""

from __future__ import annotations

import math

import pytest

from rascal_light import interp
from rascal_light.interp import Evaluator, apply_binary, apply_unary
from rascal_light.parser import parse_expr, parse_module
from rascal_light.values import FALSE, TRUE, Basic, Store, Success, VCons

MODULE = parse_module("")

# Each reads the variables ``a`` and ``b``.
EXPRS = [
    "if a then 1 else 2",
    "if b then 1 else 2",
    "while (a) break",
    "local int k in k = 0; while (a) if k == 2 then break else k = k + 1; k end",
    "a == b",
    "a != b",
    "!a",
    "!b",
    "a && b",
    "b && a",
    "a || b",
]

SHARED_FIVE = interp._int_value(5)

# Bindings of ``a`` and ``b`` built from shared values where they can be.
BINDINGS = [
    (TRUE, TRUE),
    (TRUE, FALSE),
    (FALSE, TRUE),
    (FALSE, FALSE),
    (SHARED_FIVE, SHARED_FIVE),
    (Basic(5000), Basic(5000)),
    (SHARED_FIVE, interp._int_value(6)),
    (TRUE, SHARED_FIVE),
]


def _fresh(v):
    """A value equal to ``v`` that shares no object with it."""
    if isinstance(v, VCons):
        return VCons(v.name, tuple(_fresh(a) for a in v.args))
    return Basic(v.val)


def _run(traced, text, a, b):
    """The result, store and fired rules (none untraced) of ``text``."""
    rules = []
    ev = Evaluator(MODULE, trace=(lambda entry: rules.append(entry.rule)) if traced else None)
    res, out = ev.evaluate(parse_expr(text, MODULE), Store({"a": a, "b": b}), 200)
    return repr(res), [(k, repr(v)) for k, v in out.items()], rules


@pytest.mark.parametrize("text", EXPRS)
def test_fresh_values_decide_as_shared_ones(text):
    for a, b in BINDINGS:
        fa, fb = _fresh(a), _fresh(b)
        assert fa is not a and fb is not b and fa is not fb
        want = _run(True, text, a, b)
        assert want[2], text
        assert _run(True, text, fa, fb) == want, (text, a, b)
        untraced = want[:2] + ([],)
        assert _run(False, text, a, b) == untraced
        assert _run(False, text, fa, fb) == untraced


def test_equality_of_shared_and_distinct_integers():
    assert apply_binary("==", SHARED_FIVE, SHARED_FIVE) == Success(TRUE)
    big1, big2 = Basic(5000), Basic(5000)
    assert big1 is not big2
    assert apply_binary("==", big1, big2) == Success(TRUE)
    assert apply_binary("!=", big1, big2) == Success(FALSE)
    assert apply_binary("!=", SHARED_FIVE, Basic(5)) == Success(FALSE)
    assert apply_binary("==", TRUE, VCons("true", ())) == Success(TRUE)
    assert apply_unary("!", VCons("false", ())).value is TRUE


# The table of shared integers covers [-1024, 1024).
EDGES = (-1025, -1024, 1023, 1024)


def _edge_cases(c):
    """(operator, operands, Python's result) for each operator, with
    ``c`` as the result."""
    yield "+", (c - 1, 1), (c - 1) + 1
    yield "-", (c + 1, 1), (c + 1) - 1
    yield "*", (c, 1), c * 1
    yield "/", (2 * c, 2), int(2 * c / 2)
    # The remainder truncates toward zero, as math.fmod does.
    yield "%", (c, 5000), int(math.fmod(c, 5000))
    yield "-", (-c,), -(-c)


@pytest.mark.parametrize("c", EDGES)
def test_arithmetic_at_the_table_edges(c):
    for op, operands, want in _edge_cases(c):
        assert want == c
        if len(operands) == 2:
            res = apply_binary(op, *map(Basic, operands))
        else:
            res = apply_unary(op, Basic(operands[0]))
        assert res == Success(Basic(want)), (op, operands)
        v = res.value
        assert type(v) is Basic and type(v.val) is int
        inside = -1024 <= c < 1024
        assert (v is interp._int_value(c)) == inside, (op, operands)
    # So is a literal's value (a difference's, for a negative ``c``).
    lit, _ = Evaluator(MODULE).evaluate(parse_expr(str(c) if c >= 0 else f"0 - {-c}"), Store())
    assert lit == Success(Basic(c))
    assert (lit.value is interp._int_value(c)) == (-1024 <= c < 1024)
