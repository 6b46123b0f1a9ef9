"""The expression evaluator and its companion judgments: sequences, cases,
enumeration, generators, and the built-in operator tables.

Every function threads an explicit store and a fuel budget, a number that
is ``sys.maxsize`` for no budget; it is decremented on each recursive premise
and exhaustion raises a timeout signal that the evaluation boundary turns
into a timeout result.  All user-visible failures are in-band results.

The expression judgment is a table of rule groups keyed by expression
class (``_RULES``): one method per expression form, named ``_e_<Form>``,
holding that form's rules in the order the semantics tries them.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable

from . import syntax as sx
from . import traversal
from .patterns import match
from .stackguard import stack_guarded
from .syntax import ModuleDef, Span, WellFormednessError, analyze_module, snippet_assignables
from .types import subtype, type_of, typed_join
from .values import (
    BREAK,
    Basic,
    Break,
    CONTINUE,
    Continue,
    ERROR,
    EXRES,
    FAIL,
    FALSE,
    Fail,
    Result,
    Return,
    Store,
    Success,
    TRUE,
    Throw,
    TIMEOUT,
    TimeoutSignal,
    UNDEF,
    Value,
    VCons,
    VList,
    VMap,
    VSet,
    budget,
    last,
    map_update,
    result_kind,
    set_union,
    value_key,
    vbool,
)


class IllFormedModule(Exception):
    """The module failed validation; the evaluator runs only well-formed
    modules."""

    def __init__(self, errors: list[WellFormednessError]):
        super().__init__("; ".join(str(err) for err in errors))
        self.errors = errors


class InitError(Exception):
    """Module initialization failed while evaluating a global."""

    def __init__(self, name: str, result: Result):
        super().__init__(f"initialization of global {name!r} failed: {result_kind(result)}")
        self.name = name
        self.result = result


@dataclass(frozen=True)
class TraceEntry:
    rule: str
    span: Span
    kind: str
    changed: tuple[str, ...]


# ---------------------------------------------------------------------------
# Operator tables: operator symbol -> semantic function on argument values.
# An operator missing from its table, or arguments outside an operator's
# domain, give an error.


def _neg(v: Value) -> Result:
    if isinstance(v, Basic) and isinstance(v.val, int):
        return Success(Basic(-v.val))
    return ERROR


def _not(v: Value) -> Result:
    if v == TRUE:
        return Success(FALSE)
    if v == FALSE:
        return Success(TRUE)
    return ERROR


_UNARY = {"-": _neg, "!": _not}


def apply_unary(op: str, v: Value) -> Result:
    """Semantic unary operators; any argument outside the table is an error."""
    f = _UNARY.get(op)
    return ERROR if f is None else f(v)


def _comparison(rel: Callable[[object, object], bool]):
    """A comparison under the total value order.  On two integers the order
    is the integers' own, so they are compared directly."""

    def compare(v1: Value, v2: Value) -> Result:
        if type(v1) is Basic and type(v2) is Basic:
            a, b = v1.val, v2.val
            if type(a) is int and type(b) is int:
                return Success(TRUE if rel(a, b) else FALSE)
        return Success(TRUE if rel(value_key(v1), value_key(v2)) else FALSE)

    return compare


def _int_op(fn: Callable[[int, int], int | None]):
    """An operator on two integers; ``fn`` gives the integer result, or
    None where the operator is undefined."""

    def apply(v1: Value, v2: Value) -> Result:
        if type(v1) is Basic and type(v2) is Basic:
            a, b = v1.val, v2.val
            if isinstance(a, int) and isinstance(b, int):
                c = fn(a, b)
                if c is not None:
                    return Success(Basic(c))
        return ERROR

    return apply


def _quot(a: int, b: int) -> int | None:
    """Division truncating toward zero; undefined for a zero divisor."""
    if b == 0:
        return None
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


def _rem(a: int, b: int) -> int | None:
    q = _quot(a, b)
    return None if q is None else a - b * q


def _plus(v1: Value, v2: Value) -> Result:
    t = type(v1)
    if t is not type(v2):
        return ERROR
    if t is Basic:
        a, b = v1.val, v2.val
        if (isinstance(a, int) and isinstance(b, int)) or (isinstance(a, str) and isinstance(b, str)):
            return Success(Basic(a + b))
        return ERROR
    if t is VList:
        return Success(VList(v1.items + v2.items))
    if t is VSet:
        return Success(set_union(v1, v2))
    if t is VMap:
        return Success(VMap(v1.pairs + v2.pairs))
    return ERROR


def _connective(rel: Callable[[bool, bool], bool]):
    """A strict logical connective: defined on two booleans only."""

    def apply(v1: Value, v2: Value) -> Result:
        if v1 not in (TRUE, FALSE) or v2 not in (TRUE, FALSE):
            return ERROR
        return Success(vbool(rel(v1 == TRUE, v2 == TRUE)))

    return apply


def _member(v1: Value, v2: Value) -> Result:
    if isinstance(v2, VList):
        return Success(vbool(any(v1 == x for x in v2.items)))
    if isinstance(v2, VSet):
        return Success(vbool(v2.contains(v1)))
    if isinstance(v2, VMap):
        return Success(vbool(v2.lookup(v1) is not None))
    return ERROR


def _no_operator(v1: Value, v2: Value) -> Result:
    return ERROR


_BINARY = {
    "==": lambda v1, v2: Success(vbool(v1 == v2)),
    "!=": lambda v1, v2: Success(vbool(v1 != v2)),
    "<": _comparison(operator.lt),
    "<=": _comparison(operator.le),
    ">": _comparison(operator.gt),
    ">=": _comparison(operator.ge),
    "+": _plus,
    "-": _int_op(operator.sub),
    "*": _int_op(operator.mul),
    "/": _int_op(_quot),
    "%": _int_op(_rem),
    "&&": _connective(operator.and_),
    "||": _connective(operator.or_),
    "in": _member,
}


def apply_binary(op: str, v1: Value, v2: Value) -> Result:
    """Semantic binary operators.

    Arithmetic on integers (division truncates toward zero; division and
    modulo by zero are errors), comparisons under the total value order,
    strict logical connectives on booleans, concatenation/union/membership
    on collections, string concatenation.  Everything else is an error.
    """
    return _BINARY.get(op, _no_operator)(v1, v2)


# ---------------------------------------------------------------------------
# Evaluator


class Evaluator:
    """Evaluates expressions of one well-formed module.

    A single evaluator owns its trace sink and the module's static tables,
    none of which change after construction; every evaluation call threads
    its own store, so one evaluator can serve concurrent calls.  A module
    that fails validation raises ``IllFormedModule``.

    Each ``_e_<Form>`` method is the rule group of one expression form.  It
    checks the fuel premise itself and evaluates every premise by calling
    the rule table directly, ``_RULES[type(x)](self, x, store, n1)``, never
    through ``eval_expr``; so do the companion judgments.  Each rule
    application then takes one Python frame.  A dispatcher method between
    a premise and its rule group would take two: a recursive ``nat(n)``
    would need 8 frames per level rather than 5, and the deepest
    derivation that fits under a given recursion limit would shrink by
    more than a third.
    """

    def __init__(self, module: ModuleDef, trace: Callable[[TraceEntry], None] | None = None):
        info = analyze_module(module)
        if info.errors:
            raise IllFormedModule(info.errors)
        self.module = module
        self.info = info
        self.constructors = info.constructors
        self.functions = info.functions
        self.global_names = tuple(g.name for g in module.globals)
        # Declared types for E-Asgn: block locals by Assign node id,
        # globals by name (validation forbids shadowing them).
        self.local_types = info.assign_types
        self.global_types = {g.name: g.type for g in module.globals}
        # Roots the validator walked; their block locals are in local_types.
        self.module_roots = {id(fd.body) for fd in module.functions} | {id(g.init) for g in module.globals}
        self.trace = trace

    # -- plumbing ------------------------------------------------------

    def fire(self, rule: str, span: Span, res, pre: Store, post: Store):
        """Record a rule firing (when tracing) and return its conclusion."""
        if self.trace is not None:
            kind = result_kind(res) if isinstance(res, Result) else "success"
            self.trace(TraceEntry(rule, span, kind, pre.changed(post)))
        return res, post

    def _for_roots(self, *roots: sx.Expr) -> Evaluator:
        """This evaluator, or a per-call copy that also knows the block
        locals assigned in those ``roots`` that come from outside the module.
        Module roots were walked by the validator and are not walked again."""
        foreign = [r for r in roots if id(r) not in self.module_roots]
        if not foreign:
            return self
        local = snippet_assignables(*foreign)
        if not local:
            return self
        ev = object.__new__(type(self))
        vars(ev).update(vars(self), local_types={**self.local_types, **local})
        return ev

    # -- boundaries ----------------------------------------------------
    # Each takes a budget (None is unbounded, see ``budget``); running out
    # of it is a timeout, and running out of host stack is HostStackGuard.

    @stack_guarded
    def evaluate(self, e: sx.Expr, store: Store, fuel: int | None = None):
        """Evaluate a standalone expression."""
        try:
            return self._for_roots(e).eval_expr(e, store, budget(fuel))
        except TimeoutSignal as t:
            return TIMEOUT, t.store

    @stack_guarded
    def init_globals(self, fuel: int | None = None) -> Store:
        """Evaluate global initializers in order; a failure raises ``InitError``."""
        n = budget(fuel)
        store = Store()
        for g in self.module.globals:
            try:
                res, store = self.eval_expr(g.init, store, n)
            except TimeoutSignal:
                raise InitError(g.name, TIMEOUT) from None
            if not isinstance(res, Success):
                raise InitError(g.name, res)
            if not subtype(type_of(res.value, self.constructors), g.type):
                raise InitError(g.name, ERROR)
            store = store.updated(g.name, res.value)
        return store

    @stack_guarded
    def call_function(self, name: str, args: tuple[Value, ...], store: Store, fuel: int | None = None):
        """Invoke a function on argument values at the call boundary."""
        span = self.functions[name].span if name in self.functions else sx.DUMMY_SPAN
        try:
            return self._apply_function(name, tuple(args), store, budget(fuel), span)
        except TimeoutSignal as t:
            return TIMEOUT, t.store

    @stack_guarded
    def run_cases(self, cases, v: Value, store: Store, fuel: int | None = None):
        cases = tuple(cases)
        ev = self._for_roots(*(c.body for c in cases))
        try:
            return ev.eval_cases(cases, v, store, budget(fuel), sx.DUMMY_SPAN)
        except TimeoutSignal as t:
            return TIMEOUT, t.store

    # -- the main judgment ----------------------------------------------

    def eval_expr(self, e: sx.Expr, store: Store, n: int):
        """The expression judgment: the rule group of ``e``'s form.

        Only the root is checked here.  The nodes below it are trusted: the
        evaluation boundaries walk every root they are given (validation,
        ``snippet_assignables``), which rejects a non-expression anywhere.
        """
        rule = _RULES.get(type(e))
        if rule is None:
            if n == 0:
                raise TimeoutSignal(store)
            raise TypeError(f"not an expression: {e!r}")
        return rule(self, e, store, n)

    def _e_Lit(self, e: sx.Lit, store: Store, n: int):
        if n == 0:
            raise TimeoutSignal(store)
        # The conclusion depends on the node alone: build it on the first
        # firing and keep it on the node.
        res = e._result
        if res is None:
            res = Success(Basic(e.value))
            e._result = res
        return self.fire("E-Val", e.span, res, store, store)

    def _e_Var(self, e: sx.Var, store: Store, n: int):
        if n == 0:
            raise TimeoutSignal(store)
        v = store.get(e.name)
        if v is None:
            return self.fire("E-Var-Err", e.span, ERROR, store, store)
        return self.fire("E-Var-Sucs", e.span, Success(v), store, store)

    def _e_Unary(self, e: sx.Unary, store: Store, n: int):
        if n == 0:
            raise TimeoutSignal(store)
        x = e.operand
        r, s1 = _RULES[type(x)](self, x, store, n - 1)
        if type(r) in EXRES:
            return self.fire("E-Un-Exc", e.span, r, store, s1)
        return self.fire("E-Un-Sucs", e.span, apply_unary(e.op, r.value), store, s1)

    def _e_Binary(self, e: sx.Binary, store: Store, n: int):
        if n == 0:
            raise TimeoutSignal(store)
        n1 = n - 1
        x = e.left
        r1, s2 = _RULES[type(x)](self, x, store, n1)
        if type(r1) in EXRES:
            return self.fire("E-Bin-Exc1", e.span, r1, store, s2)
        x = e.right
        r2, s1 = _RULES[type(x)](self, x, s2, n1)
        if type(r2) in EXRES:
            return self.fire("E-Bin-Exc2", e.span, r2, store, s1)
        op = e.op
        res = _BINARY.get(op, _no_operator)(r1.value, r2.value)
        if op == "+" and type(res) is Success and isinstance(res.value, (VList, VSet, VMap)):
            typed_join(res.value, r1.value, r2.value, self.constructors)
        return self.fire("E-Bin-Sucs", e.span, res, store, s1)

    def _e_Cons(self, e: sx.Cons, store: Store, n: int):
        if n == 0:
            raise TimeoutSignal(store)
        rs, s1 = self.eval_expr_star(e.args, store, n - 1, e.span)
        if type(rs) in EXRES:
            return self.fire("E-Cons-Exc", e.span, rs, store, s1)
        sig = self.constructors.get(e.name)
        if sig is None or len(sig[1]) != len(rs):
            return self.fire("stuck", e.span, ERROR, store, s1)
        ok = all(
            v != UNDEF and subtype(type_of(v, self.constructors), ft)
            for v, ft in zip(rs, sig[1])
        )
        if not ok:
            return self.fire("E-Cons-Err", e.span, ERROR, store, s1)
        return self.fire("E-Cons-Sucs", e.span, Success(VCons(e.name, rs)), store, s1)

    def _e_ListExpr(self, e: sx.ListExpr, store: Store, n: int):
        if n == 0:
            raise TimeoutSignal(store)
        rs, s1 = self.eval_expr_star(e.items, store, n - 1, e.span)
        if type(rs) in EXRES:
            return self.fire("E-List-Exc", e.span, rs, store, s1)
        if any(v == UNDEF for v in rs):
            return self.fire("E-List-Err", e.span, ERROR, store, s1)
        return self.fire("E-List-Sucs", e.span, Success(VList(rs)), store, s1)

    def _e_SetExpr(self, e: sx.SetExpr, store: Store, n: int):
        if n == 0:
            raise TimeoutSignal(store)
        rs, s1 = self.eval_expr_star(e.items, store, n - 1, e.span)
        if type(rs) in EXRES:
            return self.fire("E-Set-Exc", e.span, rs, store, s1)
        if any(v == UNDEF for v in rs):
            return self.fire("E-Set-Err", e.span, ERROR, store, s1)
        return self.fire("E-Set-Sucs", e.span, Success(VSet(rs)), store, s1)

    def _e_MapExpr(self, e: sx.MapExpr, store: Store, n: int):
        if n == 0:
            raise TimeoutSignal(store)
        flat = tuple(x for kv in e.pairs for x in kv)
        rs, s1 = self.eval_expr_star(flat, store, n - 1, e.span)
        if type(rs) in EXRES:
            return self.fire("E-Map-Exc", e.span, rs, store, s1)
        if any(v == UNDEF for v in rs):
            return self.fire("E-Map-Err", e.span, ERROR, store, s1)
        pairs = tuple((rs[i], rs[i + 1]) for i in range(0, len(rs), 2))
        return self.fire("E-Map-Sucs", e.span, Success(VMap(pairs)), store, s1)

    def _e_Lookup(self, e: sx.Lookup, store: Store, n: int):
        if n == 0:
            raise TimeoutSignal(store)
        n1 = n - 1
        x = e.map
        r1, s2 = _RULES[type(x)](self, x, store, n1)
        if type(r1) in EXRES:
            return self.fire("E-Lookup-Exc1", e.span, r1, store, s2)
        m = r1.value
        if not isinstance(m, VMap):
            return self.fire("E-Lookup-Err", e.span, ERROR, store, s2)
        x = e.key
        r2, s1 = _RULES[type(x)](self, x, s2, n1)
        if type(r2) in EXRES:
            return self.fire("E-Lookup-Exc2", e.span, r2, store, s1)
        found = m.lookup(r2.value)
        if found is None:
            thrown = Throw(VCons("nokey", (r2.value,)))
            return self.fire("E-Lookup-NoKey", e.span, thrown, store, s1)
        return self.fire("E-Lookup-Sucs", e.span, Success(found), store, s1)

    def _e_Update(self, e: sx.Update, store: Store, n: int):
        if n == 0:
            raise TimeoutSignal(store)
        n1 = n - 1
        x = e.map
        r1, s3 = _RULES[type(x)](self, x, store, n1)
        if type(r1) in EXRES:
            return self.fire("E-Update-Exc1", e.span, r1, store, s3)
        m = r1.value
        if not isinstance(m, VMap):
            return self.fire("E-Update-Err1", e.span, ERROR, store, s3)
        x = e.key
        r2, s2 = _RULES[type(x)](self, x, s3, n1)
        if type(r2) in EXRES:
            return self.fire("E-Update-Exc2", e.span, r2, store, s2)
        x = e.value
        r3, s1 = _RULES[type(x)](self, x, s2, n1)
        if type(r3) in EXRES:
            return self.fire("E-Update-Exc3", e.span, r3, store, s1)
        if r2.value == UNDEF or r3.value == UNDEF:
            return self.fire("E-Update-Err2", e.span, ERROR, store, s1)
        out = map_update(m, r2.value, r3.value)
        typed_join(out, m, VMap(((r2.value, r3.value),)), self.constructors)
        return self.fire("E-Update-Sucs", e.span, Success(out), store, s1)

    def _e_Call(self, e: sx.Call, store: Store, n: int):
        if n == 0:
            raise TimeoutSignal(store)
        n1 = n - 1
        rs, s2 = self.eval_expr_star(e.args, store, n1, e.span)
        if type(rs) in EXRES:
            return self.fire("E-Call-Arg-Exc", e.span, rs, store, s2)
        return self._apply_function(e.name, rs, s2, n1, e.span)

    def _e_ReturnExpr(self, e: sx.ReturnExpr, store: Store, n: int):
        if n == 0:
            raise TimeoutSignal(store)
        x = e.value
        r, s1 = _RULES[type(x)](self, x, store, n - 1)
        if type(r) in EXRES:
            return self.fire("E-Ret-Exc", e.span, r, store, s1)
        return self.fire("E-Ret-Sucs", e.span, Return(r.value), store, s1)

    def _e_Assign(self, e: sx.Assign, store: Store, n: int):
        if n == 0:
            raise TimeoutSignal(store)
        x = e.value
        r, s1 = _RULES[type(x)](self, x, store, n - 1)
        if type(r) in EXRES:
            return self.fire("E-Asgn-Exc", e.span, r, store, s1)
        decl = self.local_types.get(id(e))
        if decl is None:
            decl = self.global_types.get(e.name)
        if decl is None:
            return self.fire("stuck", e.span, ERROR, store, s1)
        if not subtype(type_of(r.value, self.constructors), decl):
            return self.fire("E-Asgn-Err", e.span, ERROR, store, s1)
        return self.fire(
            "E-Asgn-Sucs", e.span, Success(r.value), store, s1.updated(e.name, r.value)
        )

    def _e_If(self, e: sx.If, store: Store, n: int):
        if n == 0:
            raise TimeoutSignal(store)
        n1 = n - 1
        x = e.cond
        rc, s2 = _RULES[type(x)](self, x, store, n1)
        if type(rc) in EXRES:
            return self.fire("E-If-Exc", e.span, rc, store, s2)
        if rc.value == TRUE:
            x = e.then
            r, s1 = _RULES[type(x)](self, x, s2, n1)
            return self.fire("E-If-True", e.span, r, store, s1)
        if rc.value == FALSE:
            x = e.els
            r, s1 = _RULES[type(x)](self, x, s2, n1)
            return self.fire("E-If-False", e.span, r, store, s1)
        return self.fire("E-If-Err", e.span, ERROR, store, s2)

    def _e_Switch(self, e: sx.Switch, store: Store, n: int):
        if n == 0:
            raise TimeoutSignal(store)
        n1 = n - 1
        x = e.subject
        r, s2 = _RULES[type(x)](self, x, store, n1)
        if type(r) in EXRES:
            return self.fire("E-Switch-Exc1", e.span, r, store, s2)
        rc, s1 = self.eval_cases(e.cases, r.value, s2, n1, e.span)
        if type(rc) is Fail:
            return self.fire("E-Switch-Fail", e.span, Success(UNDEF), store, s1)
        if type(rc) in EXRES:
            return self.fire("E-Switch-Exc2", e.span, rc, store, s1)
        return self.fire("E-Switch-Sucs", e.span, rc, store, s1)

    def _e_Visit(self, e: sx.Visit, store: Store, n: int):
        if n == 0:
            raise TimeoutSignal(store)
        n1 = n - 1
        x = e.subject
        r, s2 = _RULES[type(x)](self, x, store, n1)
        if type(r) in EXRES:
            return self.fire("E-Visit-Exc1", e.span, r, store, s2)
        rv, s1 = traversal.eval_visit(self, e.strategy, e.cases, r.value, s2, n1, e.span)
        if type(rv) is Fail:
            return self.fire("E-Visit-Fail", e.span, Success(r.value), store, s1)
        if type(rv) in EXRES:
            return self.fire("E-Visit-Exc2", e.span, rv, store, s1)
        return self.fire("E-Visit-Sucs", e.span, rv, store, s1)

    def _e_BreakExpr(self, e: sx.BreakExpr, store: Store, n: int):
        if n == 0:
            raise TimeoutSignal(store)
        return self.fire("E-Break", e.span, BREAK, store, store)

    def _e_ContinueExpr(self, e: sx.ContinueExpr, store: Store, n: int):
        if n == 0:
            raise TimeoutSignal(store)
        return self.fire("E-Continue", e.span, CONTINUE, store, store)

    def _e_FailExpr(self, e: sx.FailExpr, store: Store, n: int):
        if n == 0:
            raise TimeoutSignal(store)
        return self.fire("E-Fail", e.span, FAIL, store, store)

    def _e_Block(self, e: sx.Block, store: Store, n: int):
        if n == 0:
            raise TimeoutSignal(store)
        rs, s1 = self.eval_expr_star(e.body, store, n - 1, e.span)
        s1 = s1.without([d.name for d in e.locals])
        if type(rs) in EXRES:
            return self.fire("E-Block-Exc", e.span, rs, store, s1)
        return self.fire("E-Block-Sucs", e.span, Success(last(rs)), store, s1)

    def _e_For(self, e: sx.For, store: Store, n: int):
        if n == 0:
            raise TimeoutSignal(store)
        n1 = n - 1
        renv, s2 = self.eval_gen(e.generator, store, n1)
        if type(renv) in EXRES:
            return self.fire("E-For-Exc", e.span, renv, store, s2)
        r, s1 = self.eval_each(e.body, renv, s2, n1, e.span)
        return self.fire("E-For-Sucs", e.span, r, store, s1)

    # While and solve are self-recursive rules; their rule groups iterate,
    # checking the fuel premise of each round.

    def _e_While(self, e: sx.While, store: Store, n: int):
        cur = store
        while True:
            if n == 0:
                raise TimeoutSignal(cur)
            n -= 1
            x = e.cond
            rc, s2 = _RULES[type(x)](self, x, cur, n)
            if type(rc) in EXRES:
                return self.fire("E-While-Exc1", e.span, rc, cur, s2)
            if rc.value == FALSE:
                return self.fire("E-While-False", e.span, Success(UNDEF), cur, s2)
            if rc.value != TRUE:
                return self.fire("E-While-Err", e.span, ERROR, cur, s2)
            x = e.body
            rb, s3 = _RULES[type(x)](self, x, s2, n)
            if type(rb) is Break:
                return self.fire("E-While-True-Break", e.span, Success(UNDEF), cur, s3)
            if type(rb) in EXRES and type(rb) is not Continue:
                return self.fire("E-While-Exc2", e.span, rb, cur, s3)
            self.fire("E-While-True-Sucs", e.span, rb, cur, s3)
            cur = s3

    def _e_Solve(self, e: sx.Solve, store: Store, n: int):
        cur = store
        while True:
            if n == 0:
                raise TimeoutSignal(cur)
            n -= 1
            x = e.body
            r, s2 = _RULES[type(x)](self, x, cur, n)
            if type(r) in EXRES:
                return self.fire("E-Solve-Exc", e.span, r, cur, s2)
            if any(x not in cur or x not in s2 for x in e.targets):
                return self.fire("E-Solve-Err", e.span, ERROR, cur, s2)
            if all(cur.get(x) == s2.get(x) for x in e.targets):
                return self.fire("E-Solve-Eq", e.span, r, cur, s2)
            self.fire("E-Solve-Neq", e.span, r, cur, s2)
            cur = s2

    def _e_ThrowExpr(self, e: sx.ThrowExpr, store: Store, n: int):
        if n == 0:
            raise TimeoutSignal(store)
        x = e.value
        r, s1 = _RULES[type(x)](self, x, store, n - 1)
        if type(r) in EXRES:
            return self.fire("E-Thr-Exc", e.span, r, store, s1)
        return self.fire("E-Thr-Sucs", e.span, Throw(r.value), store, s1)

    def _e_TryFinally(self, e: sx.TryFinally, store: Store, n: int):
        if n == 0:
            raise TimeoutSignal(store)
        n1 = n - 1
        x = e.body
        r1, s2 = _RULES[type(x)](self, x, store, n1)
        x = e.fin
        r2, s1 = _RULES[type(x)](self, x, s2, n1)
        if type(r2) in EXRES:
            return self.fire("E-Fin-Exc", e.span, r2, store, s1)
        return self.fire("E-Fin-Sucs", e.span, r1, store, s1)

    def _e_TryCatch(self, e: sx.TryCatch, store: Store, n: int):
        if n == 0:
            raise TimeoutSignal(store)
        n1 = n - 1
        x = e.body
        r1, s2 = _RULES[type(x)](self, x, store, n1)
        if type(r1) is not Throw:
            return self.fire("E-Try-Ord", e.span, r1, store, s2)
        x = e.handler
        r2, s1 = _RULES[type(x)](self, x, s2.updated(e.var, r1.value), n1)
        return self.fire("E-Try-Catch", e.span, r2, store, s1.without((e.var,)))

    # -- companion judgments ---------------------------------------------

    def eval_expr_star(self, exprs, store: Store, n: int, span: Span):
        """Left-to-right sequence evaluation; the first exceptional result aborts."""
        vals: list[Value] = []
        cur = store
        for i, e in enumerate(exprs):
            if n == 0:
                raise TimeoutSignal(cur)
            n -= 1
            r, cur = _RULES[type(e)](self, e, cur, n)
            if type(r) in EXRES:
                rule = "ES-Exc1" if i == 0 else "ES-Exc2"
                return self.fire(rule, span, r, store, cur)
            vals.append(r.value)
        if n == 0:
            raise TimeoutSignal(cur)
        return tuple(vals), cur

    def eval_cases(self, cases, v: Value, store: Store, n: int, span: Span):
        """Try cases in order; a fail restores the initial store for the next."""
        for cs in cases:
            if n == 0:
                raise TimeoutSignal(store)
            n -= 1
            envs = match(cs.pattern, v, store, self.constructors)
            r, s2 = self.eval_case(envs, cs.body, store, n, cs.span)
            if type(r) is not Fail:
                return self.fire("ECS-More-Ord", cs.span, r, store, s2)
            self.fire("ECS-More-Fail", cs.span, FAIL, store, store)
        if n == 0:
            raise TimeoutSignal(store)
        return self.fire("ECS-Emp", span, FAIL, store, store)

    def eval_case(self, envs, body: sx.Expr, store: Store, n: int, span: Span):
        """Try each candidate binding; non-fail wins and its bindings are stripped."""
        rule = _RULES[type(body)]
        for env in envs:
            if n == 0:
                raise TimeoutSignal(store)
            n -= 1
            r, s2 = rule(self, body, store.extended(env), n)
            if type(r) is not Fail:
                return self.fire("EC-More-Ord", span, r, store, s2.without(env.keys()))
            self.fire("EC-More-Fail", span, FAIL, store, store)
        if n == 0:
            raise TimeoutSignal(store)
        return self.fire("EC-Emp", span, FAIL, store, store)

    def eval_each(self, body: sx.Expr, envs, store: Store, n: int, span: Span):
        """Iterate a body over bindings; break stops early with success."""
        rule = _RULES[type(body)]
        cur = store
        for env in envs:
            if n == 0:
                raise TimeoutSignal(cur)
            n -= 1
            r, s2 = rule(self, body, cur.extended(env), n)
            stripped = s2.without(env.keys())
            if type(r) is Success or type(r) is Continue:
                self.fire("EE-More-Sucs", span, r, cur, stripped)
                cur = stripped
                continue
            if type(r) is Break:
                return self.fire("EE-More-Break", span, Success(UNDEF), cur, stripped)
            return self.fire("EE-More-Exc", span, r, cur, stripped)
        if n == 0:
            raise TimeoutSignal(cur)
        return self.fire("EE-Emp", span, Success(UNDEF), cur, cur)

    def eval_gen(self, g: sx.Generator, store: Store, n: int):
        if n == 0:
            raise TimeoutSignal(store)
        x = g.source
        r, s1 = _RULES[type(x)](self, x, store, n - 1)
        if isinstance(g, sx.Matching):
            if type(r) in EXRES:
                return self.fire("G-Pat-Exc", g.span, r, store, s1)
            envs = match(g.pattern, r.value, s1, self.constructors)
            return self.fire("G-Pat-Sucs", g.span, envs, store, s1)
        if type(r) in EXRES:
            return self.fire("G-Enum-Exc", g.span, r, store, s1)
        v = r.value
        if isinstance(v, VList):
            envs = ({g.var: x} for x in v.items)
            return self.fire("G-Enum-List", g.span, envs, store, s1)
        if isinstance(v, VSet):
            envs = ({g.var: x} for x in v.items)
            return self.fire("G-Enum-Set", g.span, envs, store, s1)
        if isinstance(v, VMap):
            envs = ({g.var: k} for k, _ in v.pairs)
            return self.fire("G-Enum-Map", g.span, envs, store, s1)
        return self.fire("G-Enum-Err", g.span, ERROR, store, s1)

    # -- function calls ---------------------------------------------------

    def _apply_function(self, name: str, args: tuple[Value, ...], store: Store, n: int, span: Span):
        """The call boundary: typed arguments, fresh callee store of globals
        plus parameters, result typing, and global write-back."""
        fd = self.functions.get(name)
        if fd is None or len(fd.params) != len(args):
            return self.fire("stuck", span, ERROR, store, store)
        for v, p in zip(args, fd.params):
            if not subtype(type_of(v, self.constructors), p.type):
                return self.fire("E-Call-Arg-Err", span, ERROR, store, store)
        callee: dict[str, Value] = {}
        for y in self.global_names:
            gv = store.get(y)
            if gv is None:
                return self.fire("stuck", span, ERROR, store, store)
            callee[y] = gv
        for p, v in zip(fd.params, args):
            callee[p.name] = v
        body = fd.body
        res, s_out = _RULES[type(body)](self, body, Store(callee), n)

        # One copy of the caller's store for all changed globals, none
        # when the callee changed no global.
        back = store.extended({
            y: gv for y in self.global_names
            if (gv := s_out.get(y)) is not None and gv is not store.get(y)
        })

        if type(res) is Success or type(res) is Return:
            v2 = res.value
            if subtype(type_of(v2, self.constructors), fd.return_type):
                return self.fire("E-Call-Sucs", span, Success(v2), store, back)
            return self.fire("E-Call-Res-Err1", span, ERROR, store, back)
        if type(res) is Throw:
            return self.fire("E-Call-Res-Exc", span, res, store, back)
        return self.fire("E-Call-Res-Err2", span, ERROR, store, back)


# Expression class -> its rule group.
_RULES = {
    getattr(sx, name[len("_e_"):]): fn
    for name, fn in vars(Evaluator).items()
    if name.startswith("_e_")
}


# ---------------------------------------------------------------------------
# Module-level conveniences


def init_module(m: ModuleDef, fuel: int | None = None) -> Store:
    """Initialize a module's globals, returning the resulting store."""
    return Evaluator(m).init_globals(fuel)


def boundary_result(res: Result) -> Result:
    """Apply function-boundary conversion to a top-level result.

    Early returns become successes; stray control operations (break,
    continue, fail) become errors, as they would at any call boundary.
    """
    if isinstance(res, Return):
        return Success(res.value)
    if res in (BREAK, CONTINUE, FAIL):
        return ERROR
    return res
