"""The expression evaluator and its companion judgments: sequences, cases,
enumeration, generators, and the built-in operator tables.

Every function threads an explicit store and an optional fuel budget; the
budget is decremented on each recursive premise and exhaustion raises a
timeout signal that the evaluation boundary turns into a timeout result.
All user-visible failures are in-band results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from . import syntax as sx
from . import traversal
from .patterns import match
from .syntax import ModuleDef, Span, WellFormednessError, analyze_module, snippet_assignables
from .types import subtype, type_of, typed_join
from .values import (
    BREAK,
    Basic,
    CONTINUE,
    ERROR,
    FAIL,
    FALSE,
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
    fuel_check,
    fuel_dec,
    is_exres,
    last,
    map_update,
    result_kind,
    value_order,
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
# Operator tables


def apply_unary(op: str, v: Value) -> Result:
    """Semantic unary operators; any argument outside the table is an error."""
    if op == "-":
        if isinstance(v, Basic) and isinstance(v.val, int):
            return Success(Basic(-v.val))
        return ERROR
    if op == "!":
        if v == TRUE:
            return Success(FALSE)
        if v == FALSE:
            return Success(TRUE)
        return ERROR
    return ERROR


def _both_ints(v1: Value, v2: Value) -> bool:
    return (
        isinstance(v1, Basic)
        and isinstance(v2, Basic)
        and isinstance(v1.val, int)
        and isinstance(v2.val, int)
    )


def apply_binary(op: str, v1: Value, v2: Value) -> Result:
    """Semantic binary operators.

    Arithmetic on integers (division truncates toward zero; division and
    modulo by zero are errors), comparisons under the total value order,
    strict logical connectives on booleans, concatenation/union/membership
    on collections, string concatenation.  Everything else is an error.
    """
    if op == "==":
        return Success(vbool(v1 == v2))
    if op == "!=":
        return Success(vbool(v1 != v2))
    if op in ("<", "<=", ">", ">="):
        c = value_order(v1, v2)
        return Success(
            vbool(
                (op == "<" and c < 0)
                or (op == "<=" and c <= 0)
                or (op == ">" and c > 0)
                or (op == ">=" and c >= 0)
            )
        )
    if op == "+":
        if _both_ints(v1, v2):
            return Success(Basic(v1.val + v2.val))
        if (
            isinstance(v1, Basic)
            and isinstance(v2, Basic)
            and isinstance(v1.val, str)
            and isinstance(v2.val, str)
        ):
            return Success(Basic(v1.val + v2.val))
        if isinstance(v1, VList) and isinstance(v2, VList):
            return Success(VList(v1.items + v2.items))
        if isinstance(v1, VSet) and isinstance(v2, VSet):
            return Success(VSet(v1.items + v2.items))
        if isinstance(v1, VMap) and isinstance(v2, VMap):
            return Success(VMap(v1.pairs + v2.pairs))
        return ERROR
    if op in ("-", "*", "/", "%"):
        if not _both_ints(v1, v2):
            return ERROR
        a, b = v1.val, v2.val
        if op == "-":
            return Success(Basic(a - b))
        if op == "*":
            return Success(Basic(a * b))
        if b == 0:
            return ERROR
        q = abs(a) // abs(b)
        if (a < 0) != (b < 0):
            q = -q
        if op == "/":
            return Success(Basic(q))
        return Success(Basic(a - b * q))
    if op in ("&&", "||"):
        if v1 not in (TRUE, FALSE) or v2 not in (TRUE, FALSE):
            return ERROR
        if op == "&&":
            return Success(vbool(v1 == TRUE and v2 == TRUE))
        return Success(vbool(v1 == TRUE or v2 == TRUE))
    if op == "in":
        if isinstance(v2, VList):
            return Success(vbool(any(v1 == x for x in v2.items)))
        if isinstance(v2, VSet):
            return Success(vbool(v2.contains(v1)))
        if isinstance(v2, VMap):
            return Success(vbool(v2.lookup(v1) is not None))
        return ERROR
    return ERROR


# ---------------------------------------------------------------------------
# Evaluator


class Evaluator:
    """Evaluates expressions of one well-formed module.

    A single evaluator owns its trace sink and the module's static tables,
    none of which change after construction; every evaluation call threads
    its own store, so one evaluator can serve concurrent calls.  A module
    that fails validation raises ``IllFormedModule``.
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
        locals assigned in those ``roots`` that come from outside the module."""
        local = snippet_assignables(*(r for r in roots if id(r) not in self.module_roots))
        if not local:
            return self
        ev = object.__new__(type(self))
        vars(ev).update(vars(self), local_types={**self.local_types, **local})
        return ev

    # -- boundaries ----------------------------------------------------

    def evaluate(self, e: sx.Expr, store: Store, fuel: int | None = None):
        """Evaluate a standalone expression; timeouts become results."""
        try:
            return self._for_roots(e).eval_expr(e, store, fuel)
        except TimeoutSignal as t:
            return TIMEOUT, t.store

    def init_globals(self, fuel: int | None = None) -> Store:
        """Evaluate global initializers in declaration order."""
        store = Store()
        for g in self.module.globals:
            res, store = self.eval_expr(g.init, store, fuel)
            if not isinstance(res, Success):
                raise InitError(g.name, res)
            vt = type_of(res.value, self.constructors)
            if not subtype(vt, g.type):
                raise InitError(g.name, ERROR)
            store = store.updated(g.name, res.value)
        return store

    def call_function(self, name: str, args: tuple[Value, ...], store: Store, fuel: int | None = None):
        """Invoke a function on argument values at the call boundary."""
        try:
            span = self.functions[name].span if name in self.functions else sx.DUMMY_SPAN
            return self._apply_function(name, tuple(args), store, fuel, span)
        except TimeoutSignal as t:
            return TIMEOUT, t.store

    def run_cases(self, cases, v: Value, store: Store, fuel: int | None = None):
        cases = tuple(cases)
        ev = self._for_roots(*(c.body for c in cases))
        try:
            return ev.eval_cases(cases, v, store, fuel, sx.DUMMY_SPAN)
        except TimeoutSignal as t:
            return TIMEOUT, t.store

    # -- the main judgment ----------------------------------------------

    def eval_expr(self, e: sx.Expr, store: Store, n: int | None):
        fuel_check(n, store)
        n1 = fuel_dec(n)

        if isinstance(e, sx.Lit):
            return self.fire("E-Val", e.span, Success(Basic(e.value)), store, store)

        if isinstance(e, sx.Var):
            v = store.get(e.name)
            if v is None:
                return self.fire("E-Var-Err", e.span, ERROR, store, store)
            return self.fire("E-Var-Sucs", e.span, Success(v), store, store)

        if isinstance(e, sx.Unary):
            r, s1 = self.eval_expr(e.operand, store, n1)
            if is_exres(r):
                return self.fire("E-Un-Exc", e.span, r, store, s1)
            return self.fire("E-Un-Sucs", e.span, apply_unary(e.op, r.value), store, s1)

        if isinstance(e, sx.Binary):
            r1, s2 = self.eval_expr(e.left, store, n1)
            if is_exres(r1):
                return self.fire("E-Bin-Exc1", e.span, r1, store, s2)
            r2, s1 = self.eval_expr(e.right, s2, n1)
            if is_exres(r2):
                return self.fire("E-Bin-Exc2", e.span, r2, store, s1)
            res = apply_binary(e.op, r1.value, r2.value)
            if (
                e.op == "+"
                and isinstance(res, Success)
                and isinstance(res.value, (VList, VSet, VMap))
            ):
                typed_join(res.value, r1.value, r2.value, self.constructors)
            return self.fire("E-Bin-Sucs", e.span, res, store, s1)

        if isinstance(e, sx.Cons):
            rs, s1 = self.eval_expr_star(e.args, store, n1, e.span)
            if is_exres(rs):
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

        if isinstance(e, sx.ListExpr):
            rs, s1 = self.eval_expr_star(e.items, store, n1, e.span)
            if is_exres(rs):
                return self.fire("E-List-Exc", e.span, rs, store, s1)
            if any(v == UNDEF for v in rs):
                return self.fire("E-List-Err", e.span, ERROR, store, s1)
            return self.fire("E-List-Sucs", e.span, Success(VList(rs)), store, s1)

        if isinstance(e, sx.SetExpr):
            rs, s1 = self.eval_expr_star(e.items, store, n1, e.span)
            if is_exres(rs):
                return self.fire("E-Set-Exc", e.span, rs, store, s1)
            if any(v == UNDEF for v in rs):
                return self.fire("E-Set-Err", e.span, ERROR, store, s1)
            return self.fire("E-Set-Sucs", e.span, Success(VSet(rs)), store, s1)

        if isinstance(e, sx.MapExpr):
            flat = tuple(x for kv in e.pairs for x in kv)
            rs, s1 = self.eval_expr_star(flat, store, n1, e.span)
            if is_exres(rs):
                return self.fire("E-Map-Exc", e.span, rs, store, s1)
            if any(v == UNDEF for v in rs):
                return self.fire("E-Map-Err", e.span, ERROR, store, s1)
            pairs = tuple((rs[i], rs[i + 1]) for i in range(0, len(rs), 2))
            return self.fire("E-Map-Sucs", e.span, Success(VMap(pairs)), store, s1)

        if isinstance(e, sx.Lookup):
            r1, s2 = self.eval_expr(e.map, store, n1)
            if is_exres(r1):
                return self.fire("E-Lookup-Exc1", e.span, r1, store, s2)
            m = r1.value
            if not isinstance(m, VMap):
                return self.fire("E-Lookup-Err", e.span, ERROR, store, s2)
            r2, s1 = self.eval_expr(e.key, s2, n1)
            if is_exres(r2):
                return self.fire("E-Lookup-Exc2", e.span, r2, store, s1)
            found = m.lookup(r2.value)
            if found is None:
                thrown = Throw(VCons("nokey", (r2.value,)))
                return self.fire("E-Lookup-NoKey", e.span, thrown, store, s1)
            return self.fire("E-Lookup-Sucs", e.span, Success(found), store, s1)

        if isinstance(e, sx.Update):
            r1, s3 = self.eval_expr(e.map, store, n1)
            if is_exres(r1):
                return self.fire("E-Update-Exc1", e.span, r1, store, s3)
            m = r1.value
            if not isinstance(m, VMap):
                return self.fire("E-Update-Err1", e.span, ERROR, store, s3)
            r2, s2 = self.eval_expr(e.key, s3, n1)
            if is_exres(r2):
                return self.fire("E-Update-Exc2", e.span, r2, store, s2)
            r3, s1 = self.eval_expr(e.value, s2, n1)
            if is_exres(r3):
                return self.fire("E-Update-Exc3", e.span, r3, store, s1)
            if r2.value == UNDEF or r3.value == UNDEF:
                return self.fire("E-Update-Err2", e.span, ERROR, store, s1)
            out = map_update(m, r2.value, r3.value)
            typed_join(out, m, VMap(((r2.value, r3.value),)), self.constructors)
            return self.fire("E-Update-Sucs", e.span, Success(out), store, s1)

        if isinstance(e, sx.Call):
            rs, s2 = self.eval_expr_star(e.args, store, n1, e.span)
            if is_exres(rs):
                return self.fire("E-Call-Arg-Exc", e.span, rs, store, s2)
            return self._apply_function(e.name, rs, s2, n1, e.span)

        if isinstance(e, sx.ReturnExpr):
            r, s1 = self.eval_expr(e.value, store, n1)
            if is_exres(r):
                return self.fire("E-Ret-Exc", e.span, r, store, s1)
            return self.fire("E-Ret-Sucs", e.span, Return(r.value), store, s1)

        if isinstance(e, sx.Assign):
            r, s1 = self.eval_expr(e.value, store, n1)
            if is_exres(r):
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

        if isinstance(e, sx.If):
            rc, s2 = self.eval_expr(e.cond, store, n1)
            if is_exres(rc):
                return self.fire("E-If-Exc", e.span, rc, store, s2)
            if rc.value == TRUE:
                r, s1 = self.eval_expr(e.then, s2, n1)
                return self.fire("E-If-True", e.span, r, store, s1)
            if rc.value == FALSE:
                r, s1 = self.eval_expr(e.els, s2, n1)
                return self.fire("E-If-False", e.span, r, store, s1)
            return self.fire("E-If-Err", e.span, ERROR, store, s2)

        if isinstance(e, sx.Switch):
            r, s2 = self.eval_expr(e.subject, store, n1)
            if is_exres(r):
                return self.fire("E-Switch-Exc1", e.span, r, store, s2)
            rc, s1 = self.eval_cases(e.cases, r.value, s2, n1, e.span)
            if rc == FAIL:
                return self.fire("E-Switch-Fail", e.span, Success(UNDEF), store, s1)
            if is_exres(rc):
                return self.fire("E-Switch-Exc2", e.span, rc, store, s1)
            return self.fire("E-Switch-Sucs", e.span, rc, store, s1)

        if isinstance(e, sx.Visit):
            r, s2 = self.eval_expr(e.subject, store, n1)
            if is_exres(r):
                return self.fire("E-Visit-Exc1", e.span, r, store, s2)
            rv, s1 = traversal.eval_visit(self, e.strategy, e.cases, r.value, s2, n1, e.span)
            if rv == FAIL:
                return self.fire("E-Visit-Fail", e.span, Success(r.value), store, s1)
            if is_exres(rv):
                return self.fire("E-Visit-Exc2", e.span, rv, store, s1)
            return self.fire("E-Visit-Sucs", e.span, rv, store, s1)

        if isinstance(e, sx.BreakExpr):
            return self.fire("E-Break", e.span, BREAK, store, store)
        if isinstance(e, sx.ContinueExpr):
            return self.fire("E-Continue", e.span, CONTINUE, store, store)
        if isinstance(e, sx.FailExpr):
            return self.fire("E-Fail", e.span, FAIL, store, store)

        if isinstance(e, sx.Block):
            names = tuple(d.name for d in e.locals)
            rs, s1 = self.eval_expr_star(e.body, store, n1, e.span)
            if is_exres(rs):
                return self.fire("E-Block-Exc", e.span, rs, store, s1.without(names))
            return self.fire(
                "E-Block-Sucs", e.span, Success(last(rs)), store, s1.without(names)
            )

        if isinstance(e, sx.For):
            renv, s2 = self.eval_gen(e.generator, store, n1)
            if is_exres(renv):
                return self.fire("E-For-Exc", e.span, renv, store, s2)
            r, s1 = self.eval_each(e.body, renv, s2, n1, e.span)
            return self.fire("E-For-Sucs", e.span, r, store, s1)

        if isinstance(e, sx.While):
            return self._eval_while(e, store, n)

        if isinstance(e, sx.Solve):
            return self._eval_solve(e, store, n)

        if isinstance(e, sx.ThrowExpr):
            r, s1 = self.eval_expr(e.value, store, n1)
            if is_exres(r):
                return self.fire("E-Thr-Exc", e.span, r, store, s1)
            return self.fire("E-Thr-Sucs", e.span, Throw(r.value), store, s1)

        if isinstance(e, sx.TryFinally):
            r1, s2 = self.eval_expr(e.body, store, n1)
            r2, s1 = self.eval_expr(e.fin, s2, n1)
            if is_exres(r2):
                return self.fire("E-Fin-Exc", e.span, r2, store, s1)
            return self.fire("E-Fin-Sucs", e.span, r1, store, s1)

        if isinstance(e, sx.TryCatch):
            r1, s2 = self.eval_expr(e.body, store, n1)
            if not isinstance(r1, Throw):
                return self.fire("E-Try-Ord", e.span, r1, store, s2)
            r2, s1 = self.eval_expr(e.handler, s2.updated(e.var, r1.value), n1)
            return self.fire("E-Try-Catch", e.span, r2, store, s1.without((e.var,)))

        raise TypeError(f"not an expression: {e!r}")

    # -- loops (iterative forms of the self-recursive rules) -------------

    def _eval_while(self, e: sx.While, store: Store, n: int | None):
        cur = store
        while True:
            fuel_check(n, cur)
            n1 = fuel_dec(n)
            rc, s2 = self.eval_expr(e.cond, cur, n1)
            if is_exres(rc):
                return self.fire("E-While-Exc1", e.span, rc, cur, s2)
            if rc.value == FALSE:
                return self.fire("E-While-False", e.span, Success(UNDEF), cur, s2)
            if rc.value != TRUE:
                return self.fire("E-While-Err", e.span, ERROR, cur, s2)
            rb, s3 = self.eval_expr(e.body, s2, n1)
            if rb == BREAK:
                return self.fire("E-While-True-Break", e.span, Success(UNDEF), cur, s3)
            if is_exres(rb) and rb != CONTINUE:
                return self.fire("E-While-Exc2", e.span, rb, cur, s3)
            self.fire("E-While-True-Sucs", e.span, rb, cur, s3)
            cur = s3
            n = fuel_dec(n)

    def _eval_solve(self, e: sx.Solve, store: Store, n: int | None):
        cur = store
        while True:
            fuel_check(n, cur)
            n1 = fuel_dec(n)
            r, s2 = self.eval_expr(e.body, cur, n1)
            if is_exres(r):
                return self.fire("E-Solve-Exc", e.span, r, cur, s2)
            if any(x not in cur or x not in s2 for x in e.targets):
                return self.fire("E-Solve-Err", e.span, ERROR, cur, s2)
            if all(cur.get(x) == s2.get(x) for x in e.targets):
                return self.fire("E-Solve-Eq", e.span, r, cur, s2)
            self.fire("E-Solve-Neq", e.span, r, cur, s2)
            cur = s2
            n = fuel_dec(n)

    # -- companion judgments ---------------------------------------------

    def eval_expr_star(self, exprs, store: Store, n: int | None, span: Span):
        """Left-to-right sequence evaluation; the first exceptional result aborts."""
        vals: list[Value] = []
        cur = store
        for i, e in enumerate(exprs):
            fuel_check(n, cur)
            r, cur = self.eval_expr(e, cur, fuel_dec(n))
            if is_exres(r):
                rule = "ES-Exc1" if i == 0 else "ES-Exc2"
                return self.fire(rule, span, r, store, cur)
            vals.append(r.value)
            n = fuel_dec(n)
        fuel_check(n, cur)
        return tuple(vals), cur

    def eval_cases(self, cases, v: Value, store: Store, n: int | None, span: Span):
        """Try cases in order; a fail restores the initial store for the next."""
        for cs in cases:
            fuel_check(n, store)
            envs = match(cs.pattern, v, store, self.constructors)
            r, s2 = self.eval_case(envs, cs.body, store, fuel_dec(n), cs.span)
            if r != FAIL:
                return self.fire("ECS-More-Ord", cs.span, r, store, s2)
            self.fire("ECS-More-Fail", cs.span, FAIL, store, store)
            n = fuel_dec(n)
        fuel_check(n, store)
        return self.fire("ECS-Emp", span, FAIL, store, store)

    def eval_case(self, envs, body: sx.Expr, store: Store, n: int | None, span: Span):
        """Try each candidate binding; non-fail wins and its bindings are stripped."""
        for env in envs:
            fuel_check(n, store)
            r, s2 = self.eval_expr(body, store.extended(env), fuel_dec(n))
            if r != FAIL:
                return self.fire("EC-More-Ord", span, r, store, s2.without(env.keys()))
            self.fire("EC-More-Fail", span, FAIL, store, store)
            n = fuel_dec(n)
        fuel_check(n, store)
        return self.fire("EC-Emp", span, FAIL, store, store)

    def eval_each(self, body: sx.Expr, envs, store: Store, n: int | None, span: Span):
        """Iterate a body over bindings; break stops early with success."""
        cur = store
        for env in envs:
            fuel_check(n, cur)
            r, s2 = self.eval_expr(body, cur.extended(env), fuel_dec(n))
            stripped = s2.without(env.keys())
            if isinstance(r, Success) or r == CONTINUE:
                self.fire("EE-More-Sucs", span, r, cur, stripped)
                cur = stripped
                n = fuel_dec(n)
                continue
            if r == BREAK:
                return self.fire("EE-More-Break", span, Success(UNDEF), cur, stripped)
            return self.fire("EE-More-Exc", span, r, cur, stripped)
        fuel_check(n, cur)
        return self.fire("EE-Emp", span, Success(UNDEF), cur, cur)

    def eval_gen(self, g: sx.Generator, store: Store, n: int | None):
        fuel_check(n, store)
        n1 = fuel_dec(n)
        if isinstance(g, sx.Matching):
            r, s1 = self.eval_expr(g.source, store, n1)
            if is_exres(r):
                return self.fire("G-Pat-Exc", g.span, r, store, s1)
            envs = match(g.pattern, r.value, s1, self.constructors)
            return self.fire("G-Pat-Sucs", g.span, envs, store, s1)
        r, s1 = self.eval_expr(g.source, store, n1)
        if is_exres(r):
            return self.fire("G-Enum-Exc", g.span, r, store, s1)
        v = r.value
        if isinstance(v, VList):
            envs = [{g.var: x} for x in v.items]
            return self.fire("G-Enum-List", g.span, envs, store, s1)
        if isinstance(v, VSet):
            envs = [{g.var: x} for x in v.items]
            return self.fire("G-Enum-Set", g.span, envs, store, s1)
        if isinstance(v, VMap):
            envs = [{g.var: k} for k, _ in v.pairs]
            return self.fire("G-Enum-Map", g.span, envs, store, s1)
        return self.fire("G-Enum-Err", g.span, ERROR, store, s1)

    # -- function calls ---------------------------------------------------

    def _apply_function(self, name: str, args: tuple[Value, ...], store: Store, n: int | None, span: Span):
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
        res, s_out = self.eval_expr(fd.body, Store(callee), n)

        back = store
        for y in self.global_names:
            gv = s_out.get(y)
            if gv is not None:
                back = back.updated(y, gv)

        if isinstance(res, (Success, Return)):
            v2 = res.value
            if subtype(type_of(v2, self.constructors), fd.return_type):
                return self.fire("E-Call-Sucs", span, Success(v2), store, back)
            return self.fire("E-Call-Res-Err1", span, ERROR, store, back)
        if isinstance(res, Throw):
            return self.fire("E-Call-Res-Exc", span, res, store, back)
        return self.fire("E-Call-Res-Err2", span, ERROR, store, back)


# ---------------------------------------------------------------------------
# Module-level conveniences


def init_module(m: ModuleDef, fuel: int | None = None) -> Store:
    """Initialize a module's globals, returning the resulting store."""
    return Evaluator(m).init_globals(fuel)


def eval_expr(e: sx.Expr, store: Store, module: ModuleDef | None = None, fuel: int | None = None):
    """Evaluate one expression against a store (empty module by default)."""
    ev = Evaluator(module if module is not None else ModuleDef())
    return ev.evaluate(e, store, fuel)


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
