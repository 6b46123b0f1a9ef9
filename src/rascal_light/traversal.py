"""Visit machinery: strategy dispatch, top-down and bottom-up traversals
of one value, the sequence driver both share, and the
reconstruct/if-fail auxiliaries.

Sequence-shaped successes are represented as plain tuples of values;
``FAIL`` and the other exceptional results are shared with the rest of the
evaluator.
"""

from __future__ import annotations

import enum
from typing import Mapping

from .syntax import Case, Span, Strategy
from .types import Type, subtype, type_of
from .values import (
    Basic,
    ERROR,
    EXRES,
    FAIL,
    Fail,
    Result,
    Store,
    Success,
    TimeoutSignal,
    UNDEF,
    Undefined,
    Value,
    VCons,
    VList,
    VMap,
    VSet,
    budget,
    children,
)


class BreakMode(enum.Enum):
    BREAK_ON_FIRST = "break"
    NO_BREAK = "no-break"


def if_fail(r: Result, v: Value) -> Value:
    """The payload of a success, or the fallback value on fail."""
    if r == FAIL:
        return v
    assert isinstance(r, Success)
    return r.value


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


# ---------------------------------------------------------------------------
# Traversal drivers.  ``ev`` is the expression evaluator; it provides case
# evaluation, the constructor table, and the trace hook.


def eval_visit(
    ev,
    st: Strategy,
    cases: tuple[Case, ...],
    v: Value,
    store: Store,
    fuel: int | None,
    span: Span,
):
    """The visit judgment.  ``fuel`` is a number, as everywhere in the
    evaluator, or None for no budget (``budget``), so that the judgment
    can also be run on its own."""
    n = budget(fuel)
    if n == 0:
        raise TimeoutSignal(store)
    one_pass = _ONE_PASS.get(st)
    if one_pass is not None:
        visit_one, br, rule = one_pass
        res, out = visit_one(ev, cases, v, store, br, n - 1, span)
        return ev.fire(rule, span, res, store, out)

    visit_one, (eq, neq, exc) = _FIXPOINT[st]
    cur_v, cur_store = v, store
    while True:
        if n == 0:
            raise TimeoutSignal(cur_store)
        n -= 1
        res, out = visit_one(ev, cases, cur_v, cur_store, BreakMode.NO_BREAK, n, span)
        if type(res) in _EXC:
            return ev.fire(exc, span, res, cur_store, out)
        # A pass that matched nothing leaves the iterate unchanged, which
        # confirms the fixed point; rewrites done by earlier passes are kept.
        new_v = if_fail(res, cur_v)
        if new_v == cur_v:
            return ev.fire(eq, span, Success(cur_v), cur_store, out)
        ev.fire(neq, span, res, cur_store, out)
        cur_v, cur_store = new_v, out


def td_visit(
    ev,
    cases: tuple[Case, ...],
    v: Value,
    store: Store,
    br: BreakMode,
    n: int,
    span: Span,
):
    if n == 0:
        raise TimeoutSignal(store)
    n1 = n - 1
    res, s2 = ev.eval_cases(cases, v, store, n1, span)
    if br == BreakMode.BREAK_ON_FIRST and isinstance(res, Success):
        return ev.fire("ETV-Break-Sucs", span, res, store, s2)
    if type(res) in _EXC:
        return ev.fire("ETV-Exc1", span, res, store, s2)
    v2 = if_fail(res, v)
    kids = children(v2)
    star, s1 = visit_star(td_visit, ev, cases, kids, s2, br, n1, span)
    if star == FAIL:
        return ev.fire("ETV-Ord-Sucs1", span, res, store, s1)
    if type(star) in EXRES:
        return ev.fire("ETV-Exc2", span, star, store, s1)
    rc = reconstruct(v2, star, ev.constructors)
    return ev.fire("ETV-Ord-Sucs2", span, rc, store, s1)


def bu_visit(
    ev,
    cases: tuple[Case, ...],
    v: Value,
    store: Store,
    br: BreakMode,
    n: int,
    span: Span,
):
    if n == 0:
        raise TimeoutSignal(store)
    n1 = n - 1
    kids = children(v)
    star, s2 = visit_star(bu_visit, ev, cases, kids, store, br, n1, span)
    if type(star) in _EXC:
        return ev.fire("EBU-Exc", span, star, store, s2)
    if star == FAIL:
        res, s1 = ev.eval_cases(cases, v, s2, n1, span)
        return ev.fire("EBU-Fail-Sucs", span, res, store, s1)
    rc = reconstruct(v, star, ev.constructors)
    if br == BreakMode.BREAK_ON_FIRST:
        # A success below this node skips the cases at this node.
        return ev.fire("EBU-Break-Sucs", span, rc, store, s2)
    if rc == ERROR:
        return ev.fire("EBU-No-Break-Err", span, ERROR, store, s2)
    assert isinstance(rc, Success)
    res, s1 = ev.eval_cases(cases, rc.value, s2, n1, span)
    if type(res) in _EXC:
        return ev.fire("EBU-No-Break-Exc", span, res, store, s1)
    out = Success(if_fail(res, rc.value))
    return ev.fire("EBU-No-Break-Sucs", span, out, store, s1)


def visit_star(
    visit_one,
    ev,
    cases: tuple[Case, ...],
    vals: tuple[Value, ...],
    store: Store,
    br: BreakMode,
    n: int,
    span: Span,
):
    """The sequence judgment of both directions: ``visit_one`` (``td_visit``
    or ``bu_visit``) over ``vals`` left to right, firing the ``ETVS-`` or
    ``EBUS-`` rules respectively."""
    exc1, exc2, brk, emp, more = _STAR_RULES[visit_one]
    results: list = []
    cur = store
    for i, v in enumerate(vals):
        if n == 0:
            raise TimeoutSignal(cur)
        n -= 1
        res, cur = visit_one(ev, cases, v, cur, br, n, span)
        if type(res) in _EXC:
            return ev.fire(exc1 if i == 0 else exc2, span, res, store, cur)
        if br == BreakMode.BREAK_ON_FIRST and isinstance(res, Success):
            out = tuple(vals[:i]) + (res.value,) + tuple(vals[i + 1 :])
            return ev.fire(brk, span, out, store, cur)
        results.append(res)
    if n == 0:
        raise TimeoutSignal(cur)
    if all(r == FAIL for r in results):
        return ev.fire(more if vals else emp, span, FAIL, store, cur)
    out = tuple(if_fail(r, v) for r, v in zip(results, vals))
    return ev.fire(more, span, out, store, cur)


# The exceptional results that abort a traversal: all but fail.
_EXC = EXRES - {Fail}

# The sequence rules of each direction.
_STAR_RULES = {
    td_visit: ("ETVS-Exc1", "ETVS-Exc2", "ETVS-Break", "ETVS-Emp", "ETVS-More"),
    bu_visit: ("EBUS-Exc1", "EBUS-Exc2", "EBUS-Break", "EBUS-Emp", "EBUS-More"),
}

# Strategies that make one traversal pass: the pass, its break mode, and
# the rule that concludes the visit.
_ONE_PASS = {
    Strategy.TOP_DOWN: (td_visit, BreakMode.NO_BREAK, "EV-TD"),
    Strategy.TOP_DOWN_BREAK: (td_visit, BreakMode.BREAK_ON_FIRST, "EV-TDB"),
    Strategy.BOTTOM_UP: (bu_visit, BreakMode.NO_BREAK, "EV-BU"),
    Strategy.BOTTOM_UP_BREAK: (bu_visit, BreakMode.BREAK_ON_FIRST, "EV-BUB"),
}

# Strategies that repeat a no-break pass to a fixed point: the pass, and
# the rules for a fixed point, another round, and an exception.
_FIXPOINT = {
    Strategy.INNERMOST: (bu_visit, ("EV-IM-Eq", "EV-IM-Neq", "EV-IM-Exc")),
    Strategy.OUTERMOST: (td_visit, ("EV-OM-Eq", "EV-OM-Neq", "EV-OM-Exc")),
}
