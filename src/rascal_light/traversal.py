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
    FAIL,
    Result,
    Store,
    Success,
    UNDEF,
    Undefined,
    Value,
    VCons,
    VList,
    VMap,
    VSet,
    children,
    fuel_check,
    fuel_dec,
    is_exres,
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
    if isinstance(v, VList):
        if any(x == UNDEF for x in new_children):
            return ERROR
        return Success(VList(tuple(new_children)))
    if isinstance(v, VSet):
        if any(x == UNDEF for x in new_children):
            return ERROR
        return Success(VSet(tuple(new_children)))
    if isinstance(v, VMap):
        if len(new_children) != 2 * len(v.pairs):
            return ERROR
        if any(x == UNDEF for x in new_children):
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
    fuel_check(fuel, store)
    one_pass = _ONE_PASS.get(st)
    if one_pass is not None:
        visit_one, br, rule = one_pass
        res, out = visit_one(ev, cases, v, store, br, fuel_dec(fuel), span)
        return ev.fire(rule, span, res, store, out)

    visit_one, (eq, neq, exc) = _FIXPOINT[st]
    cur_v, cur_store, n = v, store, fuel
    while True:
        fuel_check(n, cur_store)
        res, out = visit_one(ev, cases, cur_v, cur_store, BreakMode.NO_BREAK, fuel_dec(n), span)
        if is_exres(res) and res != FAIL:
            return ev.fire(exc, span, res, cur_store, out)
        # A pass that matched nothing leaves the iterate unchanged, which
        # confirms the fixed point; rewrites done by earlier passes are kept.
        new_v = if_fail(res, cur_v)
        if new_v == cur_v:
            return ev.fire(eq, span, Success(cur_v), cur_store, out)
        ev.fire(neq, span, res, cur_store, out)
        cur_v, cur_store, n = new_v, out, fuel_dec(n)


def td_visit(
    ev,
    cases: tuple[Case, ...],
    v: Value,
    store: Store,
    br: BreakMode,
    fuel: int | None,
    span: Span,
):
    fuel_check(fuel, store)
    n1 = fuel_dec(fuel)
    res, s2 = ev.eval_cases(cases, v, store, n1, span)
    if br == BreakMode.BREAK_ON_FIRST and isinstance(res, Success):
        return ev.fire("ETV-Break-Sucs", span, res, store, s2)
    if is_exres(res) and res != FAIL:
        return ev.fire("ETV-Exc1", span, res, store, s2)
    v2 = if_fail(res, v)
    kids = children(v2)
    star, s1 = visit_star(td_visit, ev, cases, kids, s2, br, n1, span)
    if star == FAIL:
        return ev.fire("ETV-Ord-Sucs1", span, res, store, s1)
    if is_exres(star):
        return ev.fire("ETV-Exc2", span, star, store, s1)
    rc = reconstruct(v2, star, ev.constructors)
    return ev.fire("ETV-Ord-Sucs2", span, rc, store, s1)


def bu_visit(
    ev,
    cases: tuple[Case, ...],
    v: Value,
    store: Store,
    br: BreakMode,
    fuel: int | None,
    span: Span,
):
    fuel_check(fuel, store)
    n1 = fuel_dec(fuel)
    kids = children(v)
    star, s2 = visit_star(bu_visit, ev, cases, kids, store, br, n1, span)
    if is_exres(star) and star != FAIL:
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
    if is_exres(res) and res != FAIL:
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
    fuel: int | None,
    span: Span,
):
    """The sequence judgment of both directions: ``visit_one`` (``td_visit``
    or ``bu_visit``) over ``vals`` left to right, firing the ``ETVS-`` or
    ``EBUS-`` rules respectively."""
    prefix = "ETVS" if visit_one is td_visit else "EBUS"
    results: list = []
    cur = store
    n = fuel
    for i, v in enumerate(vals):
        fuel_check(n, cur)
        res, cur = visit_one(ev, cases, v, cur, br, fuel_dec(n), span)
        if is_exres(res) and res != FAIL:
            rule = "Exc1" if i == 0 else "Exc2"
            return ev.fire(f"{prefix}-{rule}", span, res, store, cur)
        if br == BreakMode.BREAK_ON_FIRST and isinstance(res, Success):
            out = tuple(vals[:i]) + (res.value,) + tuple(vals[i + 1 :])
            return ev.fire(f"{prefix}-Break", span, out, store, cur)
        results.append(res)
        n = fuel_dec(n)
    fuel_check(n, cur)
    if all(r == FAIL for r in results):
        rule = "Emp" if not vals else "More"
        return ev.fire(f"{prefix}-{rule}", span, FAIL, store, cur)
    out = tuple(if_fail(r, v) for r, v in zip(results, vals))
    return ev.fire(f"{prefix}-More", span, out, store, cur)


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
