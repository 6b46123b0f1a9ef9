"""The expression evaluator and its companion judgments: sequences, cases,
enumeration, generators and visits, and the built-in operator tables.

Every function threads an explicit store and a fuel budget, a number that
is ``sys.maxsize`` for no budget; it is decremented on each recursive premise
and exhaustion raises a timeout signal that the evaluation boundary turns
into a timeout result.  All user-visible failures are in-band results.

The expression judgment is a table of rule groups keyed by expression
class (``_RULES``): one method per expression form, named ``_e_<Form>``,
holding that form's rules in the order the semantics tries them.

A judgment concludes with a result, ``success v`` or an exceptional one.
Inside the evaluator ``success v`` is the bare value ``v`` (for the
sequence judgments, a tuple of values or an iterator of bindings): no
value is a ``Result``, so ``type(r) in EXRES`` tells the two apart, and a
success rule builds nothing to carry its value.  Only the evaluation
boundaries (``evaluate``, ``call_function``, ``run_cases`` and
``traversal.eval_visit``) wrap a value as ``Success(v)``, through
``values.as_result``, and the public operator functions ``apply_unary``
and ``apply_binary`` do the same.

Basic values and booleans are decided by identity first, then by class or
equality.  The operators build an integer result through ``_int_value``,
which gives the one shared value of each integer in [-1024, 1024) from a
table built at import, and a boolean result is the shared ``TRUE`` or
``FALSE``.  So ``==`` and ``!=`` settle identical operands, and ``if``,
``while``, ``!`` and the connectives a shared boolean, without a call;
a ``true()`` built elsewhere, or two equal integers outside the table,
fall back to equality and decide alike.  The typing premises of
assignment, construction and the call boundary are one call,
``types.has_type``, which reads a basic value's type off its class.

There are two tables.  ``_RULES`` holds the rule groups as written; each
rule of every judgment, visits included, returns through
``self.fire(rule, span, pre, res, post)``, in the order of the judgment
``e; pre ==> res; post``, which hands the firing to the trace sink.
``_TWINS`` holds their untraced twins, derived once at import from the
same source lines by one substitution (``_untrace``): in a twin, the head
``self.fire(rule, span, pre, `` of every firing is just ``(``, leaving
``(res, post)``, and every ``_RULES`` is ``_TWINS``.  Evaluators without a
trace run the twins, so an untraced run pays nothing for tracing.
"""

from __future__ import annotations

import __future__
import linecache
import operator
import re
from typing import Callable

from . import syntax as sx
from .fieldtable import build
from .patterns import match
from .stackguard import stack_guarded
from .syntax import ModuleDef, Span, WellFormednessError, analyze_module, snippet_assignables
from .traversal import _EXC, _FIXPOINT, _ONE_PASS, _STAR_RULES, BreakMode, if_fail, reconstruct
from .types import has_type, typed_join
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
    as_result,
    budget,
    children,
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


class TraceEntry:
    """One rule firing: the rule, the span of its expression, the kind of
    its result, and the names it bound differently (``changed``).  Those
    are computed from the stores before and after the firing when first
    read, so a sink that reads only the rule pays nothing for them."""

    @property
    def changed(self) -> tuple[str, ...]:
        if self._changed is None:
            self._changed = self.pre.changed(self.post)
        return self._changed


build(globals(), "TraceEntry: rule span kind changed | pre post _changed=None", TraceEntry)


# ---------------------------------------------------------------------------
# Operator tables: operator symbol -> semantic function on argument values.
# An operator missing from its table, or arguments outside an operator's
# domain, give an error.


# Each returns its value, or ERROR.  An integer result is built by
# ``_int_value``, and a boolean one is the shared ``TRUE`` or ``FALSE``.

# The values of the small integers, [-1024, 1024), built once: a result in
# that range is the table's object, so an equality test on it settles by
# identity.  Values are immutable, so sharing them changes no result.
_SMALL_INTS = tuple(Basic(i) for i in range(-1024, 1024))


def _int_value(c: int) -> Basic:
    """The value of the integer ``c``: the table's, or a fresh one built
    without an ``__init__`` frame."""
    if -1024 <= c < 1024:
        return _SMALL_INTS[c + 1024]
    v = object.__new__(Basic)
    v.val = c
    return v


def _shared_bool(v: Value) -> Value:
    """The shared ``TRUE`` or ``FALSE`` equal to ``v``, else ``v`` itself.
    Identity first: only a boolean built elsewhere than ``vbool``, or a
    value that is no boolean, is compared by equality.  The rule groups
    test identity inline and call this only when it fails."""
    if v is TRUE or v is FALSE:
        return v
    if v == TRUE:
        return TRUE
    if v == FALSE:
        return FALSE
    return v


def _neg(v: Value):
    if type(v) is Basic and type(v.val) is int:
        return _int_value(-v.val)
    return ERROR


def _not(v: Value):
    v = _shared_bool(v)
    if v is TRUE:
        return FALSE
    if v is FALSE:
        return TRUE
    return ERROR


def _no_operator(*vs: Value):
    return ERROR


_UNARY = {"-": _neg, "!": _not}


def apply_unary(op: str, v: Value) -> Result:
    """Semantic unary operators; any argument outside the table is an error."""
    return as_result(_UNARY.get(op, _no_operator)(v))


def _comparison(rel: Callable[[object, object], bool]):
    """A comparison under the total value order.  On two integers the order
    is the integers' own, so they are compared directly."""

    def compare(v1: Value, v2: Value) -> Value:
        if type(v1) is Basic and type(v2) is Basic:
            a, b = v1.val, v2.val
            if type(a) is int and type(b) is int:
                return TRUE if rel(a, b) else FALSE
        return TRUE if rel(value_key(v1), value_key(v2)) else FALSE

    return compare


def _int_op(fn: Callable[[int, int], int | None]):
    """An operator on two integers; ``fn`` gives the integer result, or
    None where the operator is undefined."""

    def apply(v1: Value, v2: Value):
        if type(v1) is Basic and type(v2) is Basic:
            a, b = v1.val, v2.val
            if type(a) is int and type(b) is int:
                c = fn(a, b)
                if c is not None:
                    return _int_value(c)
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


def _plus(v1: Value, v2: Value):
    t = type(v1)
    if t is not type(v2):
        return ERROR
    if t is Basic:
        a, b = v1.val, v2.val
        if type(a) is int and type(b) is int:
            return _int_value(a + b)
        if isinstance(a, str) and isinstance(b, str):
            return Basic(a + b)
        return ERROR
    if t is VList:
        return VList(v1.items + v2.items)
    if t is VSet:
        return set_union(v1, v2)
    if t is VMap:
        return VMap(v1.pairs + v2.pairs)
    return ERROR


def _connective(rel: Callable[[bool, bool], bool]):
    """A strict logical connective: defined on two booleans only."""

    def apply(v1: Value, v2: Value):
        v1, v2 = _shared_bool(v1), _shared_bool(v2)
        if (v1 is TRUE or v1 is FALSE) and (v2 is TRUE or v2 is FALSE):
            return vbool(rel(v1 is TRUE, v2 is TRUE))
        return ERROR

    return apply


def _member(v1: Value, v2: Value):
    if isinstance(v2, VList):
        return vbool(any(v1 == x for x in v2.items))
    if isinstance(v2, VSet):
        return vbool(v2.contains(v1))
    if isinstance(v2, VMap):
        return vbool(v2.lookup(v1) is not None)
    return ERROR


# Equality tests identity first: value equality is reflexive, and shared
# values make the identical operands common.
_BINARY = {
    "==": lambda v1, v2: TRUE if v1 is v2 or v1 == v2 else FALSE,
    "!=": lambda v1, v2: FALSE if v1 is v2 or v1 == v2 else TRUE,
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


# The collection classes, whose ``+`` records the join of its operands' types.
_JOINED = frozenset({VList, VSet, VMap})


def apply_binary(op: str, v1: Value, v2: Value) -> Result:
    """Semantic binary operators.

    Arithmetic on integers (division truncates toward zero; division and
    modulo by zero are errors), comparisons under the total value order,
    strict logical connectives on booleans, concatenation/union/membership
    on collections, string concatenation.  Everything else is an error.
    """
    return as_result(_BINARY.get(op, _no_operator)(v1, v2))


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

    An evaluator runs one of two tables of the same rules.  With a trace
    sink it is an ``Evaluator`` and runs ``_RULES``, whose every firing
    goes through ``fire`` to the sink.  Without one it is an instance of
    the subclass ``_UntracedEvaluator``, which holds the untraced twins of
    every method that fires or dispatches (``_TWINNED``: the rule groups,
    the companion judgments, the visit judgment and the call boundary)
    and runs ``_TWINS``.  Setting ``trace`` picks the class, so a sink can
    be attached to, or taken off, an evaluator already built.
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
        self.trace = trace

    # -- plumbing ------------------------------------------------------

    @property
    def trace(self) -> Callable[[TraceEntry], None] | None:
        """The trace sink, or None."""
        return self._trace

    @trace.setter
    def trace(self, sink: Callable[[TraceEntry], None] | None) -> None:
        self._trace = sink
        self.__class__ = Evaluator if sink is not None else _UntracedEvaluator

    def fire(self, rule: str, span: Span, pre: Store, res, post: Store):
        """Record a rule firing and return its conclusion."""
        kind = result_kind(res) if isinstance(res, Result) else "success"
        self._trace(TraceEntry(rule, span, kind, pre, post))
        return res, post

    def _for_roots(self, *roots: sx.Expr) -> Evaluator:
        """This evaluator, or a per-call copy that also knows the block
        locals assigned in those ``roots`` that the validator did not walk.
        A root it walked (``ModuleInfo.walked_roots``) is not walked again."""
        foreign = [r for r in roots if id(r) not in self.info.walked_roots]
        if not foreign:
            return self
        local = snippet_assignables(self.info, *foreign)
        if not local:
            return self
        ev = object.__new__(type(self))
        vars(ev).update(vars(self), local_types={**self.local_types, **local})
        return ev

    # -- boundaries ----------------------------------------------------
    # Each takes a budget (None is unbounded, see ``budget``); running out
    # of it is a timeout, and running out of host stack is HostStackGuard.
    # Each returns a ``Result``: a bare value leaves as ``Success``.

    @stack_guarded
    def evaluate(self, e: sx.Expr, store: Store, fuel: int | None = None):
        """Evaluate a standalone expression."""
        try:
            res, out = self._for_roots(e).eval_expr(e, store, budget(fuel))
        except TimeoutSignal as t:
            return TIMEOUT, t.store
        return as_result(res), out

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
            if type(res) in EXRES:
                raise InitError(g.name, res)
            if not has_type(res, g.type, self.constructors):
                raise InitError(g.name, ERROR)
            store = store.updated(g.name, res)
        return store

    @stack_guarded
    def call_function(self, name: str, args: tuple[Value, ...], store: Store, fuel: int | None = None):
        """Invoke a function on argument values at the call boundary."""
        span = self.functions[name].span if name in self.functions else sx.DUMMY_SPAN
        try:
            res, out = self._apply_function(name, tuple(args), store, budget(fuel), span)
        except TimeoutSignal as t:
            return TIMEOUT, t.store
        return as_result(res), out

    @stack_guarded
    def run_cases(self, cases, v: Value, store: Store, fuel: int | None = None):
        cases = tuple(cases)
        try:
            ev = self._for_roots(*(c.body for c in cases))
            res, out = ev.eval_cases(cases, v, store, budget(fuel), sx.DUMMY_SPAN)
        except TimeoutSignal as t:
            return TIMEOUT, t.store
        return as_result(res), out

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
        # firing and keep it on the node.  An integer's is ``_int_value``'s.
        res = e._result
        if res is None:
            x = e.value
            res = _int_value(x) if type(x) is int else Basic(x)
            e._result = res
        return self.fire("E-Val", e.span, store, res, store)

    def _e_Var(self, e: sx.Var, store: Store, n: int):
        if n == 0:
            raise TimeoutSignal(store)
        v = store._m.get(e.name)
        if v is None:
            return self.fire("E-Var-Err", e.span, store, ERROR, store)
        return self.fire("E-Var-Sucs", e.span, store, v, store)

    def _e_Unary(self, e: sx.Unary, store: Store, n: int):
        if n == 0:
            raise TimeoutSignal(store)
        x = e.operand
        r, s1 = _RULES[type(x)](self, x, store, n - 1)
        if type(r) in EXRES:
            return self.fire("E-Un-Exc", e.span, store, r, s1)
        return self.fire("E-Un-Sucs", e.span, store, _UNARY.get(e.op, _no_operator)(r), s1)

    def _e_Binary(self, e: sx.Binary, store: Store, n: int):
        if n == 0:
            raise TimeoutSignal(store)
        n1 = n - 1
        x = e.left
        r1, s2 = _RULES[type(x)](self, x, store, n1)
        if type(r1) in EXRES:
            return self.fire("E-Bin-Exc1", e.span, store, r1, s2)
        x = e.right
        r2, s1 = _RULES[type(x)](self, x, s2, n1)
        if type(r2) in EXRES:
            return self.fire("E-Bin-Exc2", e.span, store, r2, s1)
        res = _BINARY.get(e.op, _no_operator)(r1, r2)
        # Only ``+`` gives a collection.
        if type(res) in _JOINED:
            typed_join(res, r1, r2, self.constructors)
        return self.fire("E-Bin-Sucs", e.span, store, res, s1)

    def _e_Cons(self, e: sx.Cons, store: Store, n: int):
        if n == 0:
            raise TimeoutSignal(store)
        rs, s1 = self.eval_expr_star(e.args, store, n - 1, e.span)
        if type(rs) in EXRES:
            return self.fire("E-Cons-Exc", e.span, store, rs, s1)
        sig = self.constructors.get(e.name)
        if sig is None or len(sig[1]) != len(rs):
            return self.fire("stuck", e.span, store, ERROR, s1)
        for v, ft in zip(rs, sig[1]):
            if v == UNDEF or not has_type(v, ft, self.constructors):
                return self.fire("E-Cons-Err", e.span, store, ERROR, s1)
        return self.fire("E-Cons-Sucs", e.span, store, VCons(e.name, rs), s1)

    def _e_ListExpr(self, e: sx.ListExpr, store: Store, n: int):
        if n == 0:
            raise TimeoutSignal(store)
        rs, s1 = self.eval_expr_star(e.items, store, n - 1, e.span)
        if type(rs) in EXRES:
            return self.fire("E-List-Exc", e.span, store, rs, s1)
        if any(v == UNDEF for v in rs):
            return self.fire("E-List-Err", e.span, store, ERROR, s1)
        return self.fire("E-List-Sucs", e.span, store, VList(rs), s1)

    def _e_SetExpr(self, e: sx.SetExpr, store: Store, n: int):
        if n == 0:
            raise TimeoutSignal(store)
        rs, s1 = self.eval_expr_star(e.items, store, n - 1, e.span)
        if type(rs) in EXRES:
            return self.fire("E-Set-Exc", e.span, store, rs, s1)
        if any(v == UNDEF for v in rs):
            return self.fire("E-Set-Err", e.span, store, ERROR, s1)
        return self.fire("E-Set-Sucs", e.span, store, VSet(rs), s1)

    def _e_MapExpr(self, e: sx.MapExpr, store: Store, n: int):
        if n == 0:
            raise TimeoutSignal(store)
        flat = tuple(x for kv in e.pairs for x in kv)
        rs, s1 = self.eval_expr_star(flat, store, n - 1, e.span)
        if type(rs) in EXRES:
            return self.fire("E-Map-Exc", e.span, store, rs, s1)
        if any(v == UNDEF for v in rs):
            return self.fire("E-Map-Err", e.span, store, ERROR, s1)
        pairs = tuple((rs[i], rs[i + 1]) for i in range(0, len(rs), 2))
        return self.fire("E-Map-Sucs", e.span, store, VMap(pairs), s1)

    def _e_Lookup(self, e: sx.Lookup, store: Store, n: int):
        if n == 0:
            raise TimeoutSignal(store)
        n1 = n - 1
        x = e.map
        r1, s2 = _RULES[type(x)](self, x, store, n1)
        if type(r1) in EXRES:
            return self.fire("E-Lookup-Exc1", e.span, store, r1, s2)
        m = r1
        if not isinstance(m, VMap):
            return self.fire("E-Lookup-Err", e.span, store, ERROR, s2)
        x = e.key
        r2, s1 = _RULES[type(x)](self, x, s2, n1)
        if type(r2) in EXRES:
            return self.fire("E-Lookup-Exc2", e.span, store, r2, s1)
        found = m.lookup(r2)
        if found is None:
            thrown = Throw(VCons("nokey", (r2,)))
            return self.fire("E-Lookup-NoKey", e.span, store, thrown, s1)
        return self.fire("E-Lookup-Sucs", e.span, store, found, s1)

    def _e_Update(self, e: sx.Update, store: Store, n: int):
        if n == 0:
            raise TimeoutSignal(store)
        n1 = n - 1
        x = e.map
        r1, s3 = _RULES[type(x)](self, x, store, n1)
        if type(r1) in EXRES:
            return self.fire("E-Update-Exc1", e.span, store, r1, s3)
        m = r1
        if not isinstance(m, VMap):
            return self.fire("E-Update-Err1", e.span, store, ERROR, s3)
        x = e.key
        r2, s2 = _RULES[type(x)](self, x, s3, n1)
        if type(r2) in EXRES:
            return self.fire("E-Update-Exc2", e.span, store, r2, s2)
        x = e.value
        r3, s1 = _RULES[type(x)](self, x, s2, n1)
        if type(r3) in EXRES:
            return self.fire("E-Update-Exc3", e.span, store, r3, s1)
        if r2 == UNDEF or r3 == UNDEF:
            return self.fire("E-Update-Err2", e.span, store, ERROR, s1)
        out = map_update(m, r2, r3)
        typed_join(out, m, VMap(((r2, r3),)), self.constructors)
        return self.fire("E-Update-Sucs", e.span, store, out, s1)

    def _e_Call(self, e: sx.Call, store: Store, n: int):
        if n == 0:
            raise TimeoutSignal(store)
        n1 = n - 1
        rs, s2 = self.eval_expr_star(e.args, store, n1, e.span)
        if type(rs) in EXRES:
            return self.fire("E-Call-Arg-Exc", e.span, store, rs, s2)
        return self._apply_function(e.name, rs, s2, n1, e.span)

    def _e_ReturnExpr(self, e: sx.ReturnExpr, store: Store, n: int):
        if n == 0:
            raise TimeoutSignal(store)
        x = e.value
        r, s1 = _RULES[type(x)](self, x, store, n - 1)
        if type(r) in EXRES:
            return self.fire("E-Ret-Exc", e.span, store, r, s1)
        return self.fire("E-Ret-Sucs", e.span, store, Return(r), s1)

    def _e_Assign(self, e: sx.Assign, store: Store, n: int):
        if n == 0:
            raise TimeoutSignal(store)
        x = e.value
        r, s1 = _RULES[type(x)](self, x, store, n - 1)
        if type(r) in EXRES:
            return self.fire("E-Asgn-Exc", e.span, store, r, s1)
        decl = self.local_types.get(id(e))
        if decl is None:
            decl = self.global_types.get(e.name)
        if decl is None:
            return self.fire("stuck", e.span, store, ERROR, s1)
        if not has_type(r, decl, self.constructors):
            return self.fire("E-Asgn-Err", e.span, store, ERROR, s1)
        return self.fire("E-Asgn-Sucs", e.span, store, r, s1.updated(e.name, r))

    def _e_If(self, e: sx.If, store: Store, n: int):
        if n == 0:
            raise TimeoutSignal(store)
        n1 = n - 1
        x = e.cond
        rc, s2 = _RULES[type(x)](self, x, store, n1)
        if type(rc) in EXRES:
            return self.fire("E-If-Exc", e.span, store, rc, s2)
        if rc is not TRUE and rc is not FALSE:
            rc = _shared_bool(rc)
        if rc is TRUE:
            x = e.then
            r, s1 = _RULES[type(x)](self, x, s2, n1)
            return self.fire("E-If-True", e.span, store, r, s1)
        if rc is FALSE:
            x = e.els
            r, s1 = _RULES[type(x)](self, x, s2, n1)
            return self.fire("E-If-False", e.span, store, r, s1)
        return self.fire("E-If-Err", e.span, store, ERROR, s2)

    def _e_Switch(self, e: sx.Switch, store: Store, n: int):
        if n == 0:
            raise TimeoutSignal(store)
        n1 = n - 1
        x = e.subject
        r, s2 = _RULES[type(x)](self, x, store, n1)
        if type(r) in EXRES:
            return self.fire("E-Switch-Exc1", e.span, store, r, s2)
        rc, s1 = self.eval_cases(e.cases, r, s2, n1, e.span)
        if type(rc) is Fail:
            return self.fire("E-Switch-Fail", e.span, store, UNDEF, s1)
        if type(rc) in EXRES:
            return self.fire("E-Switch-Exc2", e.span, store, rc, s1)
        return self.fire("E-Switch-Sucs", e.span, store, rc, s1)

    def _e_Visit(self, e: sx.Visit, store: Store, n: int):
        if n == 0:
            raise TimeoutSignal(store)
        n1 = n - 1
        x = e.subject
        r, s2 = _RULES[type(x)](self, x, store, n1)
        if type(r) in EXRES:
            return self.fire("E-Visit-Exc1", e.span, store, r, s2)
        rv, s1 = self.eval_visit(e.strategy, e.cases, r, s2, n1, e.span)
        if type(rv) is Fail:
            return self.fire("E-Visit-Fail", e.span, store, r, s1)
        if type(rv) in EXRES:
            return self.fire("E-Visit-Exc2", e.span, store, rv, s1)
        return self.fire("E-Visit-Sucs", e.span, store, rv, s1)

    def _e_BreakExpr(self, e: sx.BreakExpr, store: Store, n: int):
        if n == 0:
            raise TimeoutSignal(store)
        return self.fire("E-Break", e.span, store, BREAK, store)

    def _e_ContinueExpr(self, e: sx.ContinueExpr, store: Store, n: int):
        if n == 0:
            raise TimeoutSignal(store)
        return self.fire("E-Continue", e.span, store, CONTINUE, store)

    def _e_FailExpr(self, e: sx.FailExpr, store: Store, n: int):
        if n == 0:
            raise TimeoutSignal(store)
        return self.fire("E-Fail", e.span, store, FAIL, store)

    def _e_Block(self, e: sx.Block, store: Store, n: int):
        if n == 0:
            raise TimeoutSignal(store)
        rs, s1 = self.eval_expr_star(e.body, store, n - 1, e.span)
        if e.locals:
            s1 = s1.without([d.name for d in e.locals])
        if type(rs) in EXRES:
            return self.fire("E-Block-Exc", e.span, store, rs, s1)
        return self.fire("E-Block-Sucs", e.span, store, rs[-1] if rs else UNDEF, s1)

    def _e_For(self, e: sx.For, store: Store, n: int):
        if n == 0:
            raise TimeoutSignal(store)
        n1 = n - 1
        renv, s2 = self.eval_gen(e.generator, store, n1)
        if type(renv) in EXRES:
            return self.fire("E-For-Exc", e.span, store, renv, s2)
        r, s1 = self.eval_each(e.body, renv, s2, n1, e.span)
        return self.fire("E-For-Sucs", e.span, store, r, s1)

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
                return self.fire("E-While-Exc1", e.span, cur, rc, s2)
            if rc is not TRUE and rc is not FALSE:
                rc = _shared_bool(rc)
            if rc is FALSE:
                return self.fire("E-While-False", e.span, cur, UNDEF, s2)
            if rc is not TRUE:
                return self.fire("E-While-Err", e.span, cur, ERROR, s2)
            x = e.body
            rb, s3 = _RULES[type(x)](self, x, s2, n)
            if type(rb) is Break:
                return self.fire("E-While-True-Break", e.span, cur, UNDEF, s3)
            if type(rb) in EXRES and type(rb) is not Continue:
                return self.fire("E-While-Exc2", e.span, cur, rb, s3)
            self.fire("E-While-True-Sucs", e.span, cur, rb, s3)
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
                return self.fire("E-Solve-Exc", e.span, cur, r, s2)
            if any(x not in cur or x not in s2 for x in e.targets):
                return self.fire("E-Solve-Err", e.span, cur, ERROR, s2)
            if all(cur.get(x) == s2.get(x) for x in e.targets):
                return self.fire("E-Solve-Eq", e.span, cur, r, s2)
            self.fire("E-Solve-Neq", e.span, cur, r, s2)
            cur = s2

    def _e_ThrowExpr(self, e: sx.ThrowExpr, store: Store, n: int):
        if n == 0:
            raise TimeoutSignal(store)
        x = e.value
        r, s1 = _RULES[type(x)](self, x, store, n - 1)
        if type(r) in EXRES:
            return self.fire("E-Thr-Exc", e.span, store, r, s1)
        return self.fire("E-Thr-Sucs", e.span, store, Throw(r), s1)

    def _e_TryFinally(self, e: sx.TryFinally, store: Store, n: int):
        if n == 0:
            raise TimeoutSignal(store)
        n1 = n - 1
        x = e.body
        r1, s2 = _RULES[type(x)](self, x, store, n1)
        x = e.fin
        r2, s1 = _RULES[type(x)](self, x, s2, n1)
        if type(r2) in EXRES:
            return self.fire("E-Fin-Exc", e.span, store, r2, s1)
        return self.fire("E-Fin-Sucs", e.span, store, r1, s1)

    def _e_TryCatch(self, e: sx.TryCatch, store: Store, n: int):
        if n == 0:
            raise TimeoutSignal(store)
        n1 = n - 1
        x = e.body
        r1, s2 = _RULES[type(x)](self, x, store, n1)
        if type(r1) is not Throw:
            return self.fire("E-Try-Ord", e.span, store, r1, s2)
        x = e.handler
        r2, s1 = _RULES[type(x)](self, x, s2.updated(e.var, r1.value), n1)
        return self.fire("E-Try-Catch", e.span, store, r2, s1.without((e.var,)))

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
                return self.fire(rule, span, store, r, cur)
            vals.append(r)
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
                return self.fire("ECS-More-Ord", cs.span, store, r, s2)
            self.fire("ECS-More-Fail", cs.span, store, FAIL, store)
        if n == 0:
            raise TimeoutSignal(store)
        return self.fire("ECS-Emp", span, store, FAIL, store)

    def eval_case(self, envs, body: sx.Expr, store: Store, n: int, span: Span):
        """Try each candidate binding; non-fail wins and its bindings are stripped."""
        rule = _RULES[type(body)]
        for env in envs:
            if n == 0:
                raise TimeoutSignal(store)
            n -= 1
            r, s2 = rule(self, body, store.extended(env), n)
            if type(r) is not Fail:
                return self.fire("EC-More-Ord", span, store, r, s2.without(env.keys()))
            self.fire("EC-More-Fail", span, store, FAIL, store)
        if n == 0:
            raise TimeoutSignal(store)
        return self.fire("EC-Emp", span, store, FAIL, store)

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
            if type(r) not in EXRES or type(r) is Continue:
                self.fire("EE-More-Sucs", span, cur, r, stripped)
                cur = stripped
                continue
            if type(r) is Break:
                return self.fire("EE-More-Break", span, cur, UNDEF, stripped)
            return self.fire("EE-More-Exc", span, cur, r, stripped)
        if n == 0:
            raise TimeoutSignal(cur)
        return self.fire("EE-Emp", span, cur, UNDEF, cur)

    def eval_gen(self, g: sx.Generator, store: Store, n: int):
        if n == 0:
            raise TimeoutSignal(store)
        x = g.source
        r, s1 = _RULES[type(x)](self, x, store, n - 1)
        if isinstance(g, sx.Matching):
            if type(r) in EXRES:
                return self.fire("G-Pat-Exc", g.span, store, r, s1)
            envs = match(g.pattern, r, s1, self.constructors)
            return self.fire("G-Pat-Sucs", g.span, store, envs, s1)
        if type(r) in EXRES:
            return self.fire("G-Enum-Exc", g.span, store, r, s1)
        v = r
        if isinstance(v, VList):
            envs = ({g.var: x} for x in v.items)
            return self.fire("G-Enum-List", g.span, store, envs, s1)
        if isinstance(v, VSet):
            envs = ({g.var: x} for x in v.items)
            return self.fire("G-Enum-Set", g.span, store, envs, s1)
        if isinstance(v, VMap):
            envs = ({g.var: k} for k, _ in v.pairs)
            return self.fire("G-Enum-Map", g.span, store, envs, s1)
        return self.fire("G-Enum-Err", g.span, store, ERROR, s1)

    # -- the visit judgment -----------------------------------------------
    # A direction names its pass's method, looked up on the evaluator, so
    # an untraced evaluator runs the twin.

    def eval_visit(self, st: sx.Strategy, cases, v: Value, store: Store, n: int, span: Span):
        """One traversal pass of ``st``, or passes repeated to a fixed point."""
        if n == 0:
            raise TimeoutSignal(store)
        one_pass = _ONE_PASS.get(st)
        if one_pass is not None:
            direction, br, rule = one_pass
            res, out = getattr(self, direction)(cases, v, store, br, n - 1, span)
            return self.fire(rule, span, store, res, out)
        direction, (eq, neq, exc) = _FIXPOINT[st]
        visit_one = getattr(self, direction)
        cur_v, cur = v, store
        while True:
            if n == 0:
                raise TimeoutSignal(cur)
            n -= 1
            res, out = visit_one(cases, cur_v, cur, BreakMode.NO_BREAK, n, span)
            if type(res) in _EXC:
                return self.fire(exc, span, cur, res, out)
            # A pass that matched nothing leaves the iterate unchanged, which
            # confirms the fixed point; rewrites done by earlier passes are kept.
            new_v = if_fail(res, cur_v)
            if new_v == cur_v:
                return self.fire(eq, span, cur, cur_v, out)
            self.fire(neq, span, cur, res, out)
            cur_v, cur = new_v, out

    def td_visit(self, cases, v: Value, store: Store, br: BreakMode, n: int, span: Span):
        if n == 0:
            raise TimeoutSignal(store)
        n1 = n - 1
        res, s2 = self.eval_cases(cases, v, store, n1, span)
        if br == BreakMode.BREAK_ON_FIRST and type(res) not in EXRES:
            return self.fire("ETV-Break-Sucs", span, store, res, s2)
        if type(res) in _EXC:
            return self.fire("ETV-Exc1", span, store, res, s2)
        v2 = if_fail(res, v)
        star, s1 = self.visit_star("td_visit", cases, children(v2), s2, br, n1, span)
        if type(star) is Fail:
            return self.fire("ETV-Ord-Sucs1", span, store, res, s1)
        if type(star) in EXRES:
            return self.fire("ETV-Exc2", span, store, star, s1)
        rc = reconstruct(v2, star, self.constructors)
        if rc is not ERROR:
            rc = rc.value
        return self.fire("ETV-Ord-Sucs2", span, store, rc, s1)

    def bu_visit(self, cases, v: Value, store: Store, br: BreakMode, n: int, span: Span):
        if n == 0:
            raise TimeoutSignal(store)
        n1 = n - 1
        star, s2 = self.visit_star("bu_visit", cases, children(v), store, br, n1, span)
        if type(star) in _EXC:
            return self.fire("EBU-Exc", span, store, star, s2)
        if type(star) is Fail:
            res, s1 = self.eval_cases(cases, v, s2, n1, span)
            return self.fire("EBU-Fail-Sucs", span, store, res, s1)
        rc = reconstruct(v, star, self.constructors)
        if rc is not ERROR:
            rc = rc.value
        if br == BreakMode.BREAK_ON_FIRST:
            # A success below this node skips the cases at this node.
            return self.fire("EBU-Break-Sucs", span, store, rc, s2)
        if rc is ERROR:
            return self.fire("EBU-No-Break-Err", span, store, ERROR, s2)
        res, s1 = self.eval_cases(cases, rc, s2, n1, span)
        if type(res) in _EXC:
            return self.fire("EBU-No-Break-Exc", span, store, res, s1)
        return self.fire("EBU-No-Break-Sucs", span, store, if_fail(res, rc), s1)

    def visit_star(self, direction: str, cases, vals, store: Store, br: BreakMode, n: int, span: Span):
        """The sequence judgment of both directions: the pass of
        ``direction`` over ``vals`` left to right, firing its ``ETVS-`` or
        ``EBUS-`` rules."""
        exc1, exc2, brk, emp, more = _STAR_RULES[direction]
        visit_one = getattr(self, direction)
        results: list = []
        cur = store
        for i, v in enumerate(vals):
            if n == 0:
                raise TimeoutSignal(cur)
            n -= 1
            res, cur = visit_one(cases, v, cur, br, n, span)
            if type(res) in _EXC:
                rule = exc1 if i == 0 else exc2
                return self.fire(rule, span, store, res, cur)
            if br == BreakMode.BREAK_ON_FIRST and type(res) not in EXRES:
                out = tuple(vals[:i]) + (res,) + tuple(vals[i + 1 :])
                return self.fire(brk, span, store, out, cur)
            results.append(res)
        if n == 0:
            raise TimeoutSignal(cur)
        if all(type(r) is Fail for r in results):
            rule = more if vals else emp
            return self.fire(rule, span, store, FAIL, cur)
        out = tuple(if_fail(r, v) for r, v in zip(results, vals))
        return self.fire(more, span, store, out, cur)

    # -- function calls ---------------------------------------------------

    def _apply_function(self, name: str, args: tuple[Value, ...], store: Store, n: int, span: Span):
        """The call boundary: typed arguments, fresh callee store of globals
        plus parameters, result typing, and global write-back."""
        fd = self.functions.get(name)
        if fd is None or len(fd.params) != len(args):
            return self.fire("stuck", span, store, ERROR, store)
        for v, p in zip(args, fd.params):
            if not has_type(v, p.type, self.constructors):
                return self.fire("E-Call-Arg-Err", span, store, ERROR, store)
        global_names = self.global_names
        callee: dict[str, Value] = {}
        for y in global_names:
            gv = store.get(y)
            if gv is None:
                return self.fire("stuck", span, store, ERROR, store)
            callee[y] = gv
        for p, v in zip(fd.params, args):
            callee[p.name] = v
        body = fd.body
        res, s_out = _RULES[type(body)](self, body, Store.adopt(callee), n)

        # One copy of the caller's store for all changed globals, none
        # when the callee changed no global or the module declares none.
        back = store
        if global_names:
            back = store.extended({
                y: gv for y in global_names
                if (gv := s_out.get(y)) is not None and gv is not store.get(y)
            })

        if type(res) is Return:
            res = res.value
        if type(res) not in EXRES:
            if has_type(res, fd.return_type, self.constructors):
                return self.fire("E-Call-Sucs", span, store, res, back)
            return self.fire("E-Call-Res-Err1", span, store, ERROR, back)
        if type(res) is Throw:
            return self.fire("E-Call-Res-Exc", span, store, res, back)
        return self.fire("E-Call-Res-Err2", span, store, ERROR, back)


# Expression class -> its rule group.
_RULES = {
    getattr(sx, name[len("_e_"):]): fn
    for name, fn in vars(Evaluator).items()
    if name.startswith("_e_")
}


# ---------------------------------------------------------------------------
# The untraced table

# The head of a firing, ``self.fire(rule, span, pre, `` on ``self`` alone:
# a string literal or a name, a span, then ``store`` or ``cur``.
_SELF_FIRE = re.compile(r"(?<![\w.])self\.fire\(")
_FIRE_HEAD = re.compile(_SELF_FIRE.pattern + r'(?:"[^"\n]*"|\w+), [\w.]+, (?:store|cur), ')


def _untrace(text: str) -> str:
    """The source ``text`` with each ``self.fire(rule, span, pre, res, post)``
    made ``(res, post)`` and each ``_RULES`` made ``_TWINS``.  The head of a
    firing becomes ``(`` padded with spaces, and the two table names are
    equally long, so every kept token stays on its line and column.  A
    ``self.fire(`` whose head is not a ``_FIRE_HEAD`` is refused."""
    out = _FIRE_HEAD.sub(lambda m: "(".ljust(len(m[0])), text)
    out = re.sub(r"\b_RULES\b", "_TWINS", out)
    if left := _SELF_FIRE.search(out):
        line = out[left.start():].partition("\n")[0]
        raise SyntaxError(f"a firing must begin self.fire(rule, span, store, on one line: {line!r}")
    return out


def _untraced_twins(cls: type, names) -> dict[str, Callable]:
    """The untraced twins of the methods ``names`` of ``cls``, by name.

    One substitution in the source lines that hold the methods (``_untrace``)
    and one ``compile``, under the module's file name and at the methods'
    own line numbers, so a traceback through a twin reads as one through
    its original.  Without the source (an install of bytecode alone) there
    are no twins, and the untraced evaluator runs the originals.
    """
    codes = [vars(cls)[name].__code__ for name in names]
    path = codes[0].co_filename
    lines = linecache.getlines(path, globals())
    if not lines:
        return {}
    first = min(c.co_firstlineno for c in codes)
    end = max(c.co_firstlineno for c in codes)
    indent = len(lines[first - 1]) - len(lines[first - 1].lstrip())
    # The last method ends before the first line indented no deeper than
    # its ``def`` that is not blank.
    while end < len(lines) and (
        not lines[end].strip() or len(lines[end]) - len(lines[end].lstrip()) > indent
    ):
        end += 1
    source = "\n" * (first - 2) + f"class {cls.__name__}:\n" + _untrace("".join(lines[first - 1:end]))
    code = compile(source, path, "exec", __future__.annotations.compiler_flag, dont_inherit=True)
    scope: dict = {}
    exec(code, globals(), scope)
    twins = vars(scope[cls.__name__])
    return {name: twins[name] for name in names}


class _UntracedEvaluator(Evaluator):
    """An evaluator without a trace sink.  Its methods that fire or
    dispatch are the untraced twins of ``Evaluator``'s.  Its ``fire``, which
    only returns the conclusion, is reached only where there are no twins
    (an install without source), through the traced methods."""

    def fire(self, rule: str, span: Span, pre: Store, res, post: Store):
        return res, post


_TWINNED = tuple(name for name in vars(Evaluator) if name.startswith("_e_")) + (
    "eval_expr", "eval_expr_star", "eval_cases", "eval_case", "eval_each", "eval_gen",
    "eval_visit", "td_visit", "bu_visit", "visit_star", "_apply_function",
)
for _name, _twin in _untraced_twins(Evaluator, _TWINNED).items():
    setattr(_UntracedEvaluator, _name, _twin)

# Expression class -> its untraced rule group.
_TWINS = {cls: getattr(_UntracedEvaluator, fn.__name__) for cls, fn in _RULES.items()}


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
