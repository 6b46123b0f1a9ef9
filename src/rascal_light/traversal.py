"""What the visit judgment uses besides its rules, which are methods of
``interp.Evaluator``: the reconstruct and if-fail auxiliaries, the break
modes, the tables of each strategy's rules, and ``eval_visit``, the
judgment run on its own.

As everywhere in the evaluator, a success is its bare value, and a
sequence-shaped success a plain tuple of values; ``FAIL`` and the other
exceptional results are shared with the rest of the evaluator.  Only
``eval_visit``, a boundary, and ``reconstruct``, a public auxiliary, give
``Success(v)``.
"""

from __future__ import annotations

import enum
from typing import Mapping

from .stackguard import stack_guarded
from .syntax import Case, Span, Strategy
from .types import Type, subtype, type_of
from .values import (
    Basic,
    ERROR,
    EXRES,
    Fail,
    Store,
    Success,
    TIMEOUT,
    TimeoutSignal,
    UNDEF,
    Undefined,
    Value,
    VCons,
    VList,
    VMap,
    VSet,
    as_result,
    budget,
)


class BreakMode(enum.Enum):
    BREAK_ON_FIRST = "break"
    NO_BREAK = "no-break"


def if_fail(r, v: Value) -> Value:
    """The value of a success ``r``, or the fallback value ``v`` on fail."""
    if type(r) is Fail:
        return v
    assert type(r) not in EXRES
    return r


def reconstruct(
    v: Value,
    new_children: tuple[Value, ...],
    constructors: Mapping[str, tuple[str, tuple[Type, ...]]],
):
    """Rebuild a value of the same shape around replacement children.

    Basic and undefined values accept no children; constructors check
    arity, definedness and field typing against their declaration; lists
    and sets reject undefined elements; maps consume a keys half followed
    by a values half.  Sets and maps are re-canonicalized, so rewrites that
    collide merely shrink the collection.
    """
    if isinstance(v, (Basic, Undefined)):
        return Success(v) if not new_children else ERROR
    if isinstance(v, VCons):
        sig = constructors.get(v.name)
        if sig is None or len(sig[1]) != len(new_children):
            return ERROR
        for arg, ft in zip(new_children, sig[1]):
            if arg == UNDEF or not subtype(type_of(arg, constructors), ft):
                return ERROR
        return Success(VCons(v.name, tuple(new_children)))
    if isinstance(v, (VList, VSet)):
        if any(x == UNDEF for x in new_children):
            return ERROR
        return Success(type(v)(tuple(new_children)))
    if isinstance(v, VMap):
        if len(new_children) != 2 * len(v.pairs) or any(x == UNDEF for x in new_children):
            return ERROR
        half = len(new_children) // 2
        keys, vals = new_children[:half], new_children[half:]
        return Success(VMap(tuple(zip(keys, vals))))
    return ERROR


@stack_guarded
def eval_visit(ev, st: Strategy, cases: tuple[Case, ...], v: Value, store: Store, fuel: int | None, span: Span):
    """The visit judgment of the evaluator ``ev`` run on its own, a
    boundary like ``Evaluator.run_cases``: the cases may come from outside
    the module, ``fuel`` is a budget (None is unbounded, see ``budget``),
    running out of it is a timeout, and running out of host stack is
    HostStackGuard."""
    try:
        res, out = ev._for_roots(*(c.body for c in cases)).eval_visit(st, cases, v, store, budget(fuel), span)
    except TimeoutSignal as t:
        return TIMEOUT, t.store
    return as_result(res), out


# The exceptional results that abort a traversal: all but fail.
_EXC = EXRES - {Fail}

# The sequence rules of each direction, named by the ``Evaluator`` method
# of its pass.
_STAR_RULES = {
    "td_visit": ("ETVS-Exc1", "ETVS-Exc2", "ETVS-Break", "ETVS-Emp", "ETVS-More"),
    "bu_visit": ("EBUS-Exc1", "EBUS-Exc2", "EBUS-Break", "EBUS-Emp", "EBUS-More"),
}

# Strategies that make one traversal pass: its direction, its break mode,
# and the rule that concludes the visit.
_ONE_PASS = {
    Strategy.TOP_DOWN: ("td_visit", BreakMode.NO_BREAK, "EV-TD"),
    Strategy.TOP_DOWN_BREAK: ("td_visit", BreakMode.BREAK_ON_FIRST, "EV-TDB"),
    Strategy.BOTTOM_UP: ("bu_visit", BreakMode.NO_BREAK, "EV-BU"),
    Strategy.BOTTOM_UP_BREAK: ("bu_visit", BreakMode.BREAK_ON_FIRST, "EV-BUB"),
}

# Strategies that repeat a no-break pass to a fixed point: its direction,
# and the rules for a fixed point, another round, and an exception.
_FIXPOINT = {
    Strategy.INNERMOST: ("bu_visit", ("EV-IM-Eq", "EV-IM-Neq", "EV-IM-Exc")),
    Strategy.OUTERMOST: ("td_visit", ("EV-OM-Eq", "EV-OM-Neq", "EV-OM-Exc")),
}
