"""Program generators and oracles backing the metatheorem property suites.

Generated modules always pass validation: binder names come from a fresh
counter, calls follow an acyclic order, and loop forms use bounded
templates so that almost every generated program terminates quickly.
Bodies are biased toward exception-raising and fail-producing shapes,
since those paths carry the interesting proof obligations.
"""

from __future__ import annotations

import itertools
import os
import random
from bisect import bisect

from . import syntax as sx
from .fieldtable import build, replace
from .interp import Evaluator
from .fuel import call_with_stack, eval_expr_fuel, min_sufficient_fuel
from .parser import EXPR_COLLECTIONS, KEYWORD_FORMS, PREFIX_FORMS, parse_expr
from .render import render_expr, render_module
from .syntax import validate_module
from .types import (
    INT,
    STR,
    BaseType,
    DataType,
    IllFormedValue,
    ListType,
    MapType,
    SetType,
    TYPE_WORDS,
    Type,
    VALUE,
    _type_of_walk,
    subtype,
    type_of,
)
from .values import (
    Basic,
    FAIL,
    Result,
    Store,
    Success,
    Return,
    Throw,
    Timeout,
    UNDEF,
    VALUE_COLLECTIONS,
    Value,
    VCons,
    VList,
    VMap,
    VSet,
)


class BudgetExceeded(Exception):
    """An oracle input is too large for exhaustive enumeration."""


build(globals(), "GenBudget: max_depth=4 seed=0")


# ---------------------------------------------------------------------------
# Draws
#
# The generator reads the random stream as ``Random.randint``,
# ``Random.choice`` and ``Random.choices`` read it, through the public
# ``getrandbits`` and ``random``, but without their Python frames and
# argument checks.  ``tests/test_draws.py`` checks each helper against its
# counterpart, and the digest files in ``tests/`` pin what is drawn.


def _randint(rng: random.Random, a: int, b: int) -> int:
    """``rng.randint(a, b)``: as CPython's ``_randbelow_with_getrandbits``,
    the bits of ``n = b - a + 1``, drawn again while they are not below ``n``."""
    n = b - a + 1
    if n <= 0:
        # getrandbits(0) is 0, which is never below n: the loop would spin.
        raise ValueError(f"empty range in randint({a}, {b})")
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return a + r


def _choice(rng: random.Random, seq):
    """``rng.choice(seq)``: the element at an index drawn as ``_randint`` draws."""
    n = len(seq)
    if not n:
        raise IndexError("cannot choose from an empty sequence")
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return seq[r]


def _weights(pairs) -> tuple:
    """What ``_weighted`` draws from, for ``(name, weight)`` pairs: the
    names, the cumulative weights, their total and the last index."""
    cum = list(itertools.accumulate(w for _, w in pairs))
    return tuple(n for n, _ in pairs), cum, cum[-1] + 0.0, len(cum) - 1


def _weighted(rng: random.Random, table) -> str:
    """``rng.choices(names, weights=...)[0]`` for the pairs of ``table``
    (``_weights``): the expression ``choices`` evaluates, on weights
    accumulated once."""
    names, cum, total, last = table
    return names[bisect(cum, rng.random() * total, 0, last)]


# ---------------------------------------------------------------------------
# Values and their expression embeddings


def gen_value(rng: random.Random, t: Type, cons_by_type, depth: int) -> Value:
    """A random value of (a subtype of) ``t``."""
    if isinstance(t, BaseType):
        if t.name == "str":
            return Basic(_choice(rng, ("", "a", "b", "ab", "zz")))
        return Basic(_randint(rng, -3, 9))
    if isinstance(t, DataType):
        options = cons_by_type.get(t.name, [])
        if not options:
            return Basic(0)
        if depth <= 0:
            leafy = [o for o in options if not any(isinstance(ft, DataType) for ft in o[1])]
            options = leafy or options[:1]
        name, fields = _choice(rng, options)
        return VCons(
            name, tuple(gen_value(rng, ft, cons_by_type, depth - 1) for ft in fields)
        )
    if isinstance(t, (ListType, SetType)):
        k = _randint(rng, 0, 2 if depth <= 0 else 3)
        build = VList if t.__class__ is ListType else VSet
        return build(tuple(gen_value(rng, t.elem, cons_by_type, depth - 1) for _ in range(k)))
    if isinstance(t, MapType):
        k = _randint(rng, 0, 2)
        return VMap(
            tuple(
                (
                    gen_value(rng, t.key, cons_by_type, depth - 1),
                    gen_value(rng, t.val, cons_by_type, depth - 1),
                )
                for _ in range(k)
            )
        )
    if rng.random() < 0.2:
        return UNDEF
    return Basic(_randint(rng, -3, 9))


def gen_any_value(rng: random.Random, cons_by_type, depth: int) -> Value:
    t = gen_type(rng, cons_by_type, depth=1)
    if rng.random() < 0.08:
        return UNDEF
    return gen_value(rng, t, cons_by_type, depth)


def gen_type(rng: random.Random, cons_by_type, depth: int = 1) -> Type:
    kinds = ("int", "str", "adt", "list", "set", "map") if depth > 0 else ("int", "str", "adt")
    kind = _choice(rng, kinds)
    if kind == "adt":
        names = sorted(cons_by_type)
        return DataType(_choice(rng, names)) if names else INT
    if kind == "map":
        return MapType(gen_type(rng, cons_by_type, 0), gen_type(rng, cons_by_type, 0))
    word = TYPE_WORDS[kind]
    return word if isinstance(word, Type) else word(gen_type(rng, cons_by_type, depth - 1))


# Each collection value class and the expression class that builds it,
# paired by the bracket that opens both.
_EXPR_OF = {cls: EXPR_COLLECTIONS[opener] for opener, cls in VALUE_COLLECTIONS.items()}
_VALUE_OF = {expr: cls for cls, expr in _EXPR_OF.items()}


def value_to_expr(v: Value) -> sx.Expr:
    """Embed a value as an expression that evaluates back to it."""
    if isinstance(v, Basic):
        if isinstance(v.val, int) and v.val < 0:
            return sx.Unary("-", sx.Lit(-v.val))
        return sx.Lit(v.val)
    if isinstance(v, VCons):
        return sx.Cons(v.name, tuple(value_to_expr(a) for a in v.args))
    if isinstance(v, (VList, VSet)):
        return _EXPR_OF[v.__class__](tuple(value_to_expr(a) for a in v.items))
    if isinstance(v, VMap):
        return sx.MapExpr(tuple((value_to_expr(k), value_to_expr(x)) for k, x in v.pairs))
    # An empty switch fails all cases, which yields the undefined value.
    return sx.Switch(sx.Lit(0), ())


def literal_value(e: sx.Expr) -> Value:
    """The value ``e`` spells, for an ``e`` of the forms `value_to_expr`
    builds; read without an evaluator, so a replay does not depend on
    the rules under test.  Raises ``ValueError`` on any other form."""
    if isinstance(e, sx.Lit):
        return Basic(e.value)
    if isinstance(e, sx.Unary) and e.op == "-" and isinstance(e.operand, sx.Lit):
        if isinstance(e.operand.value, int):
            return Basic(-e.operand.value)
    if isinstance(e, sx.Cons):
        return VCons(e.name, tuple(literal_value(a) for a in e.args))
    if isinstance(e, (sx.ListExpr, sx.SetExpr)):
        return _VALUE_OF[e.__class__](tuple(literal_value(a) for a in e.items))
    if isinstance(e, sx.MapExpr):
        return VMap(tuple((literal_value(k), literal_value(x)) for k, x in e.pairs))
    if isinstance(e, sx.Switch) and e.subject == sx.Lit(0) and not e.cases:
        return UNDEF
    raise ValueError(f"not a value literal: {render_expr(e)}")


# ---------------------------------------------------------------------------
# Module generation


class _Scope:
    def __init__(self, readables=None, assignables=None):
        self.readables: dict[str, Type | None] = dict(readables or {})
        self.assignables: dict[str, Type] = dict(assignables or {})

    def child(self) -> "_Scope":
        return _Scope(self.readables, self.assignables)


_FORMS = [
    ("lit", 6), ("var", 8), ("binarith", 7), ("bincmp", 4), ("binlogic", 2),
    ("unary", 2), ("cons", 7), ("list", 3), ("set", 3), ("map", 2),
    ("lookup", 3), ("update", 2), ("assign", 6), ("if", 6), ("switch", 6),
    ("visit", 5), ("block", 5), ("for", 5), ("while", 3), ("solve", 2),
    ("call", 4), ("throw", 4), ("trycatch", 4), ("tryfinally", 3),
    ("return", 3), ("break", 2), ("continue", 2), ("fail", 5),
]
_FINITE_EXCLUDED = {"while", "solve", "call"}
# The weighted form draw of each subset, by ``finite``.
_FORM_DRAWS = {
    finite: _weights([(f, w) for f, w in _FORMS if not (finite and f in _FINITE_EXCLUDED)])
    for finite in (False, True)
}
# The operators each binary form draws from.
_BINARY_FORMS = {
    "binarith": ("+", "-", "*", "/", "%"),
    "bincmp": ("==", "!=", "<", "<=", ">", ">=", "in"),
}
_COLLECTION_FORMS = {"list": sx.ListExpr, "set": sx.SetExpr}
# The types and strategies draws pick from, built once.
_FIELD_COLLECTION_TYPES = (ListType(INT), SetType(INT), MapType(INT, STR))
_GLOBAL_TYPES = (INT, STR, ListType(INT))
_SOURCE_TYPES = (ListType(INT), SetType(INT), MapType(INT, STR), ListType(STR))
_STRATEGIES = tuple(sx.Strategy)


class _ModuleGen:
    def __init__(self, rng: random.Random, budget: GenBudget, finite: bool):
        self.rng = rng
        self.budget = budget
        self.finite = finite
        self.counter = 0
        self.datatypes: list[sx.DataDef] = []
        self.cons_by_type: dict[str, list[tuple[str, tuple[Type, ...]]]] = {}
        self.constructors: dict[str, tuple[str, tuple[Type, ...]]] = {}
        self.functions: list[sx.FunDef] = []
        self.globals: list[sx.GlobalDef] = []
        # Sorted once the datatypes are built, for the draws that pick by name.
        self.constructor_names: list[str] = []

    def fresh(self, prefix: str) -> str:
        self.counter += 1
        return f"{prefix}{self.counter}"

    # -- declarations --------------------------------------------------

    def build_datatypes(self) -> None:
        rng = self.rng
        n = _randint(rng, 1, 2)
        names = [self.fresh("D") for _ in range(n)]
        for name in names:
            self.cons_by_type[name] = []
        for name in names:
            cons: list[sx.ConsDef] = []
            base_fields = tuple(
                sx.FieldDef(_choice(rng, (INT, STR)), self.fresh("f"))
                for _ in range(_randint(rng, 0, 2))
            )
            cons.append(sx.ConsDef(self.fresh("c"), base_fields))
            for _ in range(_randint(rng, 0, 2)):
                fields = []
                for _ in range(_randint(rng, 1, 2)):
                    choice = rng.random()
                    if choice < 0.4:
                        ft: Type = DataType(_choice(rng, names))
                    elif choice < 0.7:
                        ft = _choice(rng, (INT, STR))
                    else:
                        ft = _choice(rng, _FIELD_COLLECTION_TYPES)
                    fields.append(sx.FieldDef(ft, self.fresh("f")))
                cons.append(sx.ConsDef(self.fresh("c"), tuple(fields)))
            dd = sx.DataDef(name, tuple(cons))
            self.datatypes.append(dd)
            for cd in cons:
                sig = (name, tuple(f.type for f in cd.fields))
                self.cons_by_type[name].append((cd.name, sig[1]))
                self.constructors[cd.name] = sig
        self.constructor_names = sorted(self.constructors)

    def build_globals(self) -> None:
        for _ in range(_randint(self.rng, 0, 2)):
            t = _choice(self.rng, _GLOBAL_TYPES)
            v = gen_value(self.rng, t, self.cons_by_type, 1)
            self.globals.append(sx.GlobalDef(self.fresh("g"), t, value_to_expr(v)))

    def build_module(self) -> sx.ModuleDef:
        self.build_datatypes()
        self.build_globals()
        n = _randint(self.rng, 1, 3)  # functions in the module
        for _ in range(n):
            name = self.fresh("fn")
            params = tuple(
                sx.Param(gen_type(self.rng, self.cons_by_type, 1), self.fresh("p"))
                for _ in range(_randint(self.rng, 0, 2))
            )
            ret = gen_type(self.rng, self.cons_by_type, 1)
            scope = _Scope(
                readables={g.name: g.type for g in self.globals},
                assignables={g.name: g.type for g in self.globals},
            )
            for p in params:
                scope.readables[p.name] = p.type
            body = self.expr(self.budget.max_depth, scope)
            self.functions.append(sx.FunDef(name, ret, params, body))
        return sx.ModuleDef(
            tuple(self.globals), tuple(self.functions), tuple(self.datatypes)
        )

    # -- expressions ------------------------------------------------------

    def typed_expr(self, t: Type, depth: int, scope: _Scope) -> sx.Expr:
        """An expression very likely to evaluate to a value of type ``t``."""
        r = self.rng.random()
        if r < 0.25:
            candidates = [n for n, rt in scope.readables.items() if rt == t]
            if candidates:
                return sx.Var(_choice(self.rng, candidates))
        if t == INT and r < 0.45 and depth > 0:
            return sx.Binary(
                self.typed_expr(INT, 0, scope),
                _choice(self.rng, ("+", "-", "*")),
                self.typed_expr(INT, 0, scope),
            )
        return value_to_expr(gen_value(self.rng, t, self.cons_by_type, min(depth, 2)))

    def bool_expr(self, depth: int, scope: _Scope) -> sx.Expr:
        r = self.rng.random()
        if r < 0.35:
            return sx.Binary(
                self.typed_expr(INT, 0, scope),
                _choice(self.rng, ("==", "!=", "<", "<=", ">", ">=")),
                self.typed_expr(INT, 0, scope),
            )
        if r < 0.6:
            return sx.Cons(_choice(self.rng, ("true", "false")), ())
        return self.expr(max(depth - 1, 0), scope)

    def expr(self, depth: int, scope: _Scope) -> sx.Expr:
        rng = self.rng
        if depth <= 0:
            return self.leaf(scope)
        form = _weighted(rng, _FORM_DRAWS[self.finite])
        d1 = depth - 1

        if form == "lit":
            return self.leaf(scope)
        if form == "var":
            if scope.readables:
                return sx.Var(_choice(rng, sorted(scope.readables)))
            return self.leaf(scope)
        if form in _BINARY_FORMS:
            return sx.Binary(self.expr(d1, scope), _choice(rng, _BINARY_FORMS[form]), self.expr(d1, scope))
        if form == "binlogic":
            return sx.Binary(self.bool_expr(d1, scope), _choice(rng, ("&&", "||")), self.bool_expr(d1, scope))
        if form == "unary":
            return sx.Unary(_choice(rng, ("-", "!")), self.expr(d1, scope))
        if form == "cons":
            name, fields = self.pick_constructor()
            args = tuple(
                self.typed_expr(ft, d1, scope) if rng.random() < 0.75 else self.expr(d1, scope)
                for ft in fields
            )
            return sx.Cons(name, args)
        if form in _COLLECTION_FORMS:
            items = tuple(self.expr(d1, scope) for _ in range(_randint(rng, 0, 3)))
            return _COLLECTION_FORMS[form](items)
        if form == "map":
            return sx.MapExpr(
                tuple((self.expr(d1, scope), self.expr(d1, scope)) for _ in range(_randint(rng, 0, 2)))
            )
        if form == "lookup":
            m = self.map_expr(d1, scope)
            return sx.Lookup(m, self.expr(d1, scope))
        if form == "update":
            m = self.map_expr(d1, scope)
            return sx.Update(m, self.expr(d1, scope), self.expr(d1, scope))
        if form == "assign":
            targets = sorted(scope.assignables)
            if not targets:
                return self.leaf(scope)
            name = _choice(rng, targets)
            t = scope.assignables[name]
            value = self.typed_expr(t, d1, scope) if rng.random() < 0.6 else self.expr(d1, scope)
            return sx.Assign(name, value)
        if form == "if":
            return sx.If(self.bool_expr(depth, scope), self.expr(d1, scope), self.expr(d1, scope))
        if form == "switch":
            subject = self.expr(d1, scope)
            return sx.Switch(subject, self.cases(d1, scope))
        if form == "visit":
            strategies = sx.FINITE_STRATEGIES if self.finite else _STRATEGIES
            subject = self.expr(d1, scope)
            return sx.Visit(_choice(rng, strategies), subject, self.cases(d1, scope, contract=True))
        if form == "block":
            inner = scope.child()
            decls = []
            for _ in range(_randint(rng, 0, 2)):
                t = gen_type(rng, self.cons_by_type, 1)
                name = self.fresh("x")
                decls.append(sx.LocalDecl(t, name))
                inner.readables[name] = t
                inner.assignables[name] = t
            body = []
            for d in decls:
                if rng.random() < 0.8:
                    body.append(sx.Assign(d.name, self.typed_expr(d.type, d1, inner)))
            for _ in range(_randint(rng, 1, 2)):
                body.append(self.expr(d1, inner))
            return sx.Block(tuple(decls), tuple(body))
        if form == "for":
            inner = scope.child()
            if rng.random() < 0.5:
                var = self.fresh("it")
                src_t = _choice(rng, _SOURCE_TYPES)
                source = (
                    self.typed_expr(src_t, d1, inner)
                    if rng.random() < 0.8
                    else self.expr(d1, inner)
                )
                inner.readables[var] = None
                gen: sx.Generator = sx.Enumerating(var, source)
            else:
                pat, bound = self.pattern(2, inner)
                source = self.expr(d1, inner)
                for b in bound:
                    inner.readables.setdefault(b, None)
                gen = sx.Matching(pat, source)
            return sx.For(gen, self.expr(d1, inner))
        if form == "while":
            return self.bounded_while(d1, scope)
        if form == "solve":
            return self.bounded_solve(scope)
        if form == "call":
            if not self.functions:
                return self.leaf(scope)
            fd = _choice(rng, self.functions)
            args = tuple(
                self.typed_expr(p.type, d1, scope)
                if rng.random() < 0.8
                else self.expr(d1, scope)
                for p in fd.params
            )
            return sx.Call(fd.name, args)
        if form == "trycatch":
            var = self.fresh("exn")
            inner = scope.child()
            inner.readables[var] = None
            return sx.TryCatch(self.expr(d1, scope), var, self.expr(d1, inner))
        if form == "tryfinally":
            return sx.TryFinally(self.expr(d1, scope), self.expr(d1, scope))
        if form in PREFIX_FORMS:
            return PREFIX_FORMS[form](self.expr(d1, scope))
        if form in KEYWORD_FORMS:
            return KEYWORD_FORMS[form]()
        return self.leaf(scope)

    def leaf(self, scope: _Scope) -> sx.Expr:
        rng = self.rng
        r = rng.random()
        if r < 0.3 and scope.readables:
            return sx.Var(_choice(rng, sorted(scope.readables)))
        if r < 0.55:
            return sx.Lit(_randint(rng, 0, 9))
        if r < 0.65:
            return sx.Lit(_choice(rng, ("", "a", "b")))
        if r < 0.75:
            return sx.Cons(_choice(rng, ("true", "false")), ())
        if r < 0.85:
            return value_to_expr(gen_any_value(rng, self.cons_by_type, 1))
        if r < 0.9:
            return sx.FailExpr()
        return sx.Lit(_randint(rng, 0, 3))

    def map_expr(self, depth: int, scope: _Scope) -> sx.Expr:
        if self.rng.random() < 0.6:
            return value_to_expr(gen_value(self.rng, MapType(INT, INT), self.cons_by_type, 1))
        return self.expr(depth, scope)

    def pick_constructor(self) -> tuple[str, tuple[Type, ...]]:
        name = _choice(self.rng, self.constructor_names)
        return name, self.constructors[name][1]

    def cases(self, depth: int, scope: _Scope, contract: bool = False) -> tuple[sx.Case, ...]:
        out = []
        for _ in range(_randint(self.rng, 1, 2)):
            inner, pat, bound = self.bound_pattern(scope)
            if contract and bound and self.rng.random() < 0.5:
                body: sx.Expr = sx.Var(_choice(self.rng, sorted(bound)))
            elif self.rng.random() < 0.3:
                body = sx.FailExpr()
            else:
                body = self.expr(depth, inner)
            out.append(sx.Case(pat, body))
        return tuple(out)

    def bound_pattern(self, scope: _Scope) -> tuple[_Scope, sx.Pattern, set[str]]:
        """A case pattern, with a child of ``scope`` that can read the
        names it binds, and those names."""
        inner = scope.child()
        pat, bound = self.pattern(2, inner)
        for b in bound:
            inner.readables.setdefault(b, None)
        return inner, pat, bound

    def pattern(self, depth: int, scope: _Scope) -> tuple[sx.Pattern, set[str]]:
        """A random pattern plus the variable names it can bind.

        Variable patterns occasionally reuse an in-scope name, which at
        match time turns them into equality checks against the store.
        """
        rng = self.rng

        def patvar() -> sx.Pattern:
            if scope.readables and rng.random() < 0.15:
                return sx.VarPat(_choice(rng, sorted(scope.readables)))
            return sx.VarPat(self.fresh("v"))

        def go(d: int) -> sx.Pattern:
            r = rng.random()
            if d <= 0 or r < 0.2:
                if rng.random() < 0.5:
                    return sx.LitPat(_randint(rng, 0, 4))
                return patvar()
            if r < 0.45:
                name, fields = self.pick_constructor()
                return sx.ConsPat(name, tuple(go(d - 1) for _ in fields))
            if r < 0.6:
                elems = []
                star_budget = 2
                for _ in range(_randint(rng, 0, 3)):
                    if star_budget and rng.random() < 0.4:
                        elems.append(sx.Star(self.fresh("s")))
                        star_budget -= 1
                    else:
                        elems.append(go(d - 1))
                kind = _choice(rng, (sx.ListPat, sx.SetPat))
                return kind(tuple(elems))
            if r < 0.7:
                return sx.TypedPat(
                    gen_type(rng, self.cons_by_type, 1), self.fresh("l"), go(d - 1)
                )
            if r < 0.8:
                return sx.NegPat(go(d - 1))
            if r < 0.9:
                return sx.DeepPat(go(d - 1))
            return self._nonlinear() or patvar()

        pat = go(depth)
        return pat, set(sx.pattern_vars(pat))

    def _nonlinear(self) -> sx.Pattern | None:
        """A deconstructor repeating one variable across all fields."""
        cons = [(n, f) for n, (_, f) in self.constructors.items() if len(f) >= 2]
        if not cons:
            return None
        n, fields = _choice(self.rng, cons)
        name = self.fresh("v")
        return sx.ConsPat(n, tuple(sx.VarPat(name) for _ in fields))

    def bounded_while(self, depth: int, scope: _Scope) -> sx.Expr:
        i = self.fresh("i")
        k = _randint(self.rng, 1, 3)
        inner = scope.child()
        # The counter is readable only: the body must not reset it.
        inner.readables[i] = INT
        step = sx.Assign(i, sx.Binary(sx.Var(i), "+", sx.Lit(1)))
        body = sx.Block((), (step, self.expr(depth, inner)))
        loop = sx.While(sx.Binary(sx.Var(i), "<", sx.Lit(k)), body)
        return sx.Block(
            (sx.LocalDecl(INT, i),), (sx.Assign(i, sx.Lit(0)), loop)
        )

    def bounded_solve(self, scope: _Scope) -> sx.Expr:
        s = self.fresh("s")
        inner = scope.child()
        inner.readables[s] = INT
        inner.assignables[s] = INT
        # The body assigns a value that does not depend on the target, so
        # the second iteration always reaches the fixed point.
        pure = self.typed_expr(INT, 1, scope)
        body = sx.Assign(s, pure)
        return sx.Block(
            (sx.LocalDecl(INT, s),),
            (sx.Assign(s, sx.Lit(0)), sx.Solve((s,), body)),
        )


def gen_program(budget: GenBudget, subset: str = "all") -> sx.ModuleDef:
    """A well-formed random module; ``subset="finite"`` restricts every
    function body to the terminating expression subset."""
    if subset not in ("all", "finite"):
        raise ValueError("subset must be 'all' or 'finite'")
    rng = random.Random(budget.seed)
    return _ModuleGen(rng, budget, subset == "finite").build_module()


def gen_store(rng: random.Random, module: sx.ModuleDef, params=()) -> Store:
    """A store holding the module's globals, the given parameters, and a
    couple of scratch variables."""
    cons_by_type = _cons_by_type(module)
    bindings: dict[str, Value] = {}
    for g in module.globals:
        bindings[g.name] = gen_value(rng, g.type, cons_by_type, 2)
    for p in params:
        bindings[p.name] = gen_value(rng, p.type, cons_by_type, 2)
    return Store(bindings)


def _cons_by_type(module: sx.ModuleDef) -> dict[str, list[tuple[str, tuple[Type, ...]]]]:
    out: dict[str, list[tuple[str, tuple[Type, ...]]]] = {}
    for name, (datatype, fields) in sx.constructor_table(module).items():
        out.setdefault(datatype, []).append((name, fields))
    return out


# ---------------------------------------------------------------------------
# Brute-force matching oracle


def _combine(env_sets: list[set]) -> set:
    out = {frozenset()}
    for envs in env_sets:
        nxt = set()
        for acc in out:
            accd = dict(acc)
            for e in envs:
                ed = dict(e)
                if all(accd.get(k, v) == v for k, v in ed.items()):
                    merged = dict(accd)
                    merged.update(ed)
                    nxt.add(frozenset(merged.items()))
        out = nxt
        if not out:
            return out
    return out


def oracle_match(p: sx.Pattern, v: Value, store: Store, constructors, budget: int = 6) -> set:
    """The set of environments a pattern admits, by exhaustive enumeration.

    Fully independent of the backtracking matcher: every decomposition is
    enumerated directly.  Environments are returned as frozensets of
    (name, value) items, ignoring order and multiplicity.
    """
    from .values import children as value_children

    def size(x: Value) -> int:
        return 1 + sum(size(c) for c in value_children(x))

    if size(v) > 120:
        raise BudgetExceeded("value too large for the oracle")

    def go(q: sx.Pattern, x: Value) -> set:
        if isinstance(q, sx.LitPat):
            return {frozenset()} if x == Basic(q.value) else set()
        if isinstance(q, sx.VarPat):
            if q.name in store:
                return {frozenset()} if store.get(q.name) == x else set()
            return {frozenset({(q.name, x)})}
        if isinstance(q, sx.ConsPat):
            if not (isinstance(x, VCons) and x.name == q.name and len(x.args) == len(q.args)):
                return set()
            return _combine([go(sub, a) for sub, a in zip(q.args, x.args)])
        if isinstance(q, sx.TypedPat):
            if not subtype(type_of(x, constructors), q.type):
                return set()
            return _combine([{frozenset({(q.name, x)})}, go(q.pattern, x)])
        if isinstance(q, sx.ListPat):
            if not isinstance(x, VList):
                return set()
            if len(x.items) > budget:
                raise BudgetExceeded("list too long for the oracle")
            return seq(q.elements, x.items, ordered=True)
        if isinstance(q, sx.SetPat):
            if not isinstance(x, VSet):
                return set()
            if len(x.items) > budget:
                raise BudgetExceeded("set too large for the oracle")
            return seq(q.elements, x.items, ordered=False)
        if isinstance(q, sx.NegPat):
            return {frozenset()} if not go(q.pattern, x) else set()
        if isinstance(q, sx.DeepPat):
            out = set(go(q.pattern, x))
            for c in value_children(x):
                out |= go(q, c)
            return out
        raise TypeError(f"not a pattern: {q!r}")

    def seq(elements, vals, ordered: bool) -> set:
        if not elements:
            return {frozenset()} if not vals else set()
        head, rest = elements[0], elements[1:]
        out: set = set()
        if isinstance(head, sx.Star):
            if head.name in store:
                bound = store.get(head.name)
                want = VList if ordered else VSet
                if not isinstance(bound, want):
                    return set()
                if ordered:
                    k = len(bound.items)
                    if vals[:k] == bound.items:
                        out |= seq(rest, vals[k:], ordered)
                    return out
                remainder = _set_minus(vals, bound.items)
                if remainder is not None:
                    out |= seq(rest, remainder, ordered)
                return out
            if ordered:
                for k in range(len(vals) + 1):
                    tail = seq(rest, vals[k:], ordered)
                    out |= _combine([{frozenset({(head.name, VList(vals[:k]))})}, tail])
                return out
            idx = range(len(vals))
            for r in range(len(vals) + 1):
                for picked in itertools.combinations(idx, r):
                    sub = tuple(vals[i] for i in picked)
                    remainder = tuple(vals[i] for i in idx if i not in picked)
                    tail = seq(rest, remainder, ordered)
                    out |= _combine([{frozenset({(head.name, VSet(sub))})}, tail])
            return out
        if ordered:
            if not vals:
                return set()
            return _combine([go(head, vals[0]), seq(rest, vals[1:], ordered)])
        for i in range(len(vals)):
            remainder = vals[:i] + vals[i + 1 :]
            out |= _combine([go(head, vals[i]), seq(rest, remainder, ordered)])
        return out

    return go(p, v)


def _set_minus(vals, items):
    remaining = list(vals)
    for x in items:
        for i, y in enumerate(remaining):
            if x == y:
                del remaining[i]
                break
        else:
            return None
    return tuple(remaining)


def env_set(envs) -> set:
    """Normalize a sequence of environments for comparison with the oracle."""
    return {frozenset(e.items()) for e in envs}


def pattern_for_value(rng: random.Random, v: Value, fresh, depth: int) -> sx.Pattern:
    """A pattern shaped after ``v``, so it has real chances to match."""
    r = rng.random()
    if depth <= 0 or r < 0.25:
        return sx.VarPat(fresh("w"))
    if isinstance(v, Basic):
        return sx.LitPat(v.val) if rng.random() < 0.7 else sx.VarPat(fresh("w"))
    if isinstance(v, VCons):
        if r < 0.85:
            return sx.ConsPat(
                v.name,
                tuple(pattern_for_value(rng, a, fresh, depth - 1) for a in v.args),
            )
        return sx.DeepPat(pattern_for_value(rng, v, fresh, depth - 1))
    if isinstance(v, (VList, VSet)):
        elems: list[sx.Pattern] = []
        consumed = 0
        items = v.items
        while consumed < len(items):
            if rng.random() < 0.35:
                take = _randint(rng, 0, len(items) - consumed)
                elems.append(sx.Star(fresh("ws")))
                consumed += take
            else:
                elems.append(pattern_for_value(rng, items[consumed], fresh, depth - 1))
                consumed += 1
        if rng.random() < 0.3:
            elems.append(sx.Star(fresh("ws")))
        kind = sx.ListPat if isinstance(v, VList) else sx.SetPat
        return kind(tuple(elems))
    return sx.VarPat(fresh("w"))


def _scratch_store(rng: random.Random, cons_by_type) -> tuple[Store, _Scope]:
    """Up to two scratch variables ``sv<i>`` and a scope that may read them."""
    store = Store({f"sv{i}": gen_any_value(rng, cons_by_type, 1) for i in range(_randint(rng, 0, 2))})
    return store, _Scope(readables=dict.fromkeys(store.domain()))


def gen_match_pair(rng: random.Random, gen: "_ModuleGen"):
    """A (pattern, value, store) triple for oracle-equivalence checking;
    collections stay small enough (up to four elements) for exhaustive
    enumeration."""
    cons_by_type = gen.cons_by_type
    v = gen_any_value(rng, cons_by_type, 2)
    if rng.random() < 0.25:
        elems = tuple(gen_any_value(rng, cons_by_type, 1) for _ in range(4))
        v = VList(elems) if rng.random() < 0.5 else VSet(elems)
    store, scope = _scratch_store(rng, cons_by_type)
    if rng.random() < 0.5:
        pat = pattern_for_value(rng, v, gen.fresh, 3)
    else:
        pat, _ = gen.pattern(3, scope)
    return pat, v, store


# ---------------------------------------------------------------------------
# Shrinking


def shrink_module(module: sx.ModuleDef, failing) -> sx.ModuleDef:
    """Greedy structural shrink preserving ``failing(module) == True``.

    Tries dropping functions and globals, then replacing function bodies
    with their own sub-expressions; candidates must still validate.
    """

    def ok(cand: sx.ModuleDef) -> bool:
        if validate_module(cand):
            return False
        try:
            return bool(failing(cand))
        except Exception:
            return False

    def candidates(m: sx.ModuleDef):
        fs, gs = m.functions, m.globals
        for i in range(len(fs)):
            yield replace(m, functions=fs[:i] + fs[i + 1 :])
        for i in range(len(gs)):
            yield replace(m, globals=gs[:i] + gs[i + 1 :])
        for i, fd in enumerate(fs):
            for sub in sx.walk_exprs(fd.body):
                if sub is not fd.body:
                    yield replace(m, functions=fs[:i] + (replace(fd, body=sub),) + fs[i + 1 :])

    for _ in range(20):
        smaller = next((c for c in candidates(module) if ok(c)), None)
        if smaller is None:
            break
        module = smaller
    return module


# ---------------------------------------------------------------------------
# Suites


class SuiteReport:
    """The tally of one suite run: cases, passes, failures and artifacts."""

    def __init__(self, name: str):
        self.name = name
        self.total = 0
        self.passed = 0
        self.failures: list[str] = []
        self.artifacts: list[str] = []

    @property
    def ok(self) -> bool:
        return not self.failures and self.passed == self.total

    def record(self, label: str, problem: str | None) -> bool:
        """Count one case, failed as ``label: problem`` if ``problem`` is set; True if so."""
        self.total += 1
        if problem is None:
            self.passed += 1
            return False
        self.failures.append(f"{label}: {problem}")
        return True

    def format(self) -> str:
        lines = [f"suite {self.name}: {self.passed}/{self.total} passed"]
        for f in self.failures[:10]:
            lines.append(f"  FAIL {f}")
        if len(self.failures) > 10:
            lines.append(f"  ... {len(self.failures) - 10} more")
        for a in self.artifacts:
            lines.append(f"  artifact: {a}")
        return "\n".join(lines)


def _write_artifact(report: SuiteReport, artifacts_dir, tag: str, module: sx.ModuleDef) -> None:
    """Write ``module`` as ``<suite>_<tag>.rsl``, headed by a comment that
    states the failure the suite recorded last."""
    os.makedirs(artifacts_dir, exist_ok=True)
    path = os.path.join(artifacts_dir, f"{report.name}_{tag}.rsl")
    header = report.failures[-1].replace("\n", " ")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"// {report.name} {header}\n" + render_module(module))
    report.artifacts.append(path)


def _purity_artifact(module: sx.ModuleDef, cases, v: Value, store: Store) -> sx.ModuleDef:
    """A runnable module reproducing one purity triple: the store becomes
    globals and the cases hang off a switch over the embedded value."""
    globals_ = tuple(
        sx.GlobalDef(name, VALUE, value_to_expr(val)) for name, val in store.items()
    )
    check = sx.FunDef("check", VALUE, (), sx.Switch(value_to_expr(v), tuple(cases)))
    return sx.ModuleDef(globals=globals_, functions=(check,), datatypes=module.datatypes)


def gen_cases_triple(rng: random.Random, gen: _ModuleGen):
    """A (cases, value, store) triple biased toward failing matches."""
    cons_by_type = gen.cons_by_type
    v = gen_any_value(rng, cons_by_type, 2)
    store, scope = _scratch_store(rng, cons_by_type)
    all_fail = rng.random() < 0.6
    cases = []
    for _ in range(_randint(rng, 1, 3)):
        inner, pat, _ = gen.bound_pattern(scope)
        if all_fail:
            if rng.random() < 0.5:
                body: sx.Expr = sx.FailExpr()
            else:
                # Mutate fresh locals, then fail: exercises state rollback.
                name = gen.fresh("m")
                body = sx.Block(
                    (sx.LocalDecl(INT, name),),
                    (sx.Assign(name, gen.typed_expr(INT, 1, inner)), sx.FailExpr()),
                )
        else:
            body = gen.expr(2, inner)
        cases.append(sx.Case(pat, body))
    return tuple(cases), v, store


def _purity(ev: Evaluator, cases, v: Value, store: Store) -> tuple[Result, str | None]:
    """Backtracking purity of one triple: the result of ``cases`` on ``v``
    from ``store``, and a failure message if they fail with a changed store."""
    res, out = ev.run_cases(cases, v, store, fuel=3000)
    return res, "store changed across failing cases" if res == FAIL and out != store else None


def suite_purity(cases: int, seed: int, artifacts_dir=None) -> SuiteReport:
    """Backtracking purity (``_purity``, as ``check_purity`` re-checks an
    artifact) over the failing triples of ``gen_cases_triple``."""
    report = SuiteReport("purity")
    rng = random.Random(seed)
    gen = _ModuleGen(rng, GenBudget(seed=seed), finite=False)
    gen.build_datatypes()
    module = sx.ModuleDef(datatypes=tuple(gen.datatypes))
    ev = Evaluator(module)
    attempts = 0
    while report.total < cases and attempts < cases * 20:
        attempts += 1
        cs, v, store = gen_cases_triple(rng, gen)
        res, problem = _purity(ev, cs, v, store)
        if res != FAIL:
            continue
        if report.record(f"seed={seed} case={attempts}", problem) and artifacts_dir is not None:
            _write_artifact(
                report, artifacts_dir, str(attempts), _purity_artifact(module, cs, v, store)
            )
    if report.total < cases:
        report.failures.append(
            f"generator produced only {report.total} failing triples"
        )
    return report


def _check_typed(store: Store, res, constructors) -> str | None:
    # Re-types every node, ignoring the types recorded on values, so a
    # wrongly recorded type cannot hide an ill-formed one.
    try:
        for _, v in store.items():
            _type_of_walk(v, constructors)
        if isinstance(res, (Success, Return, Throw)):
            _type_of_walk(res.value, constructors)
    except IllFormedValue as exc:
        return str(exc)
    return None


class Case:
    """One generated-program case: the body of ``function`` in ``module``,
    run from ``store`` (the module's globals and the function's parameters)."""

    @property
    def fundef(self) -> sx.FunDef:
        return next(f for f in self.module.functions if f.name == self.function)

    @property
    def body(self) -> sx.Expr:
        return self.fundef.body


build(globals(), "Case: module function store", Case)


def check_typing(case: Case) -> str | None:
    """Strong typing: the result and the final store hold only typeable values."""
    ev = Evaluator(case.module)
    try:
        res, out = ev.evaluate(case.body, case.store, fuel=10_000)
    except Exception as exc:  # noqa: BLE001 - any escape is a failure
        return f"evaluator raised {exc!r}"
    return _check_typed(out, res, ev.constructors)


def _progress(ev: Evaluator, e: sx.Expr, store: Store) -> str | None:
    for n in (0, 1, 7, 1000):
        try:
            res, out = eval_expr_fuel(ev, e, store, n)
        except Exception as exc:  # noqa: BLE001 - any escape is a failure
            return repr(exc)
        if not (isinstance(res, Result) and isinstance(out, Store)):
            return f"non-result {res!r}"
    return None


def check_purity(case: Case) -> str | None:
    """Backtracking purity of a purity artifact's case: the cases of the
    switch in ``check()``, on its subject (read by `literal_value`), from
    ``case.store``."""
    switch = case.body
    return _purity(Evaluator(case.module), switch.cases, literal_value(switch.subject), case.store)[1]


def check_progress(case: Case) -> str | None:
    """Partial progress: bounded evaluation yields a result and a store at
    every budget."""
    return _progress(Evaluator(case.module), case.body, case.store)


def check_termination(case: Case) -> str | None:
    """Termination of the finite subset: minimal sufficient fuel exists,
    evaluation below it times out, and results are stable above it."""
    ev, e, store = Evaluator(case.module), case.body, case.store
    try:
        n = min_sufficient_fuel(ev, e, store)
        at_n = eval_expr_fuel(ev, e, store, n)
        if isinstance(at_n[0], Timeout):
            return "minimal fuel still times out"
        if n > 0 and not isinstance(eval_expr_fuel(ev, e, store, n - 1)[0], Timeout):
            return "not minimal"
        if any(eval_expr_fuel(ev, e, store, n + extra) != at_n for extra in (1, 17)):
            return "not monotone"
    except Exception as exc:  # noqa: BLE001 - any escape is a failure
        return repr(exc)
    return None


def _draw_case(rng: random.Random, subset: str) -> Case:
    case_seed = _randint(rng, 0, (1 << 30) - 1)
    module = gen_program(GenBudget(max_depth=3, seed=case_seed), subset)
    fd = _choice(rng, module.functions)
    return Case(module, fd.name, gen_store(rng, module, fd.params))


def _on(case: Case, module: sx.ModuleDef) -> Case:
    """``case`` on a shrunk ``module``.  The store drops the globals that
    the module no longer declares, as the artifact does: a pattern
    variable named after a dropped global binds, where a bound name would
    test equality."""
    dropped = {g.name for g in case.module.globals} - {g.name for g in module.globals}
    return Case(
        module, case.function, Store({k: v for k, v in case.store.items() if k not in dropped})
    )


def _shrink(case: Case, check) -> Case:
    """``case`` on the smallest module ``shrink_module`` finds that keeps
    the case's function and still fails ``check``."""

    def still_fails(m: sx.ModuleDef) -> bool:
        present = any(f.name == case.function for f in m.functions)
        return present and check(_on(case, m)) is not None

    return _on(case, shrink_module(case.module, still_fails))


def _case_artifact(case: Case) -> sx.ModuleDef:
    """A runnable module reproducing ``case``: each global starts at its
    value in the store, and ``check()`` calls the function with the
    store's parameter values."""
    store = case.store
    args = tuple(value_to_expr(store.get(p.name)) for p in case.fundef.params)
    check = sx.FunDef("check", VALUE, (), sx.Call(case.function, args))
    return replace(
        case.module,
        globals=tuple(
            replace(g, init=value_to_expr(store.get(g.name))) for g in case.module.globals
        ),
        functions=case.module.functions + (check,),
    )


def artifact_case(module: sx.ModuleDef) -> Case:
    """The case an artifact replays, from the module's globals, each read
    with `literal_value`: for a purity artifact, whose ``check()`` is a
    switch, ``check`` itself; otherwise the function ``check()`` calls,
    with that call's arguments, read the same way, bound to its
    parameters.  Raises ``ValueError`` if one is not a value literal."""
    functions = {f.name: f for f in module.functions}
    call = functions["check"].body
    store = {g.name: literal_value(g.init) for g in module.globals}
    if isinstance(call, sx.Switch):
        return Case(module, "check", Store(store))
    for p, arg in zip(functions[call.name].params, call.args):
        try:
            store[p.name] = literal_value(arg)
        except ValueError as exc:
            raise ValueError(f"argument {p.name} of {call.name}: {exc}") from None
    return Case(module, call.name, Store(store))


def _run_cases(
    report: SuiteReport, check, subsets: tuple[str, ...], cases: int, seed: int, artifacts_dir
) -> SuiteReport:
    """Check ``cases`` drawn cases, the i-th from ``subsets[i % len(subsets)]``;
    each failing case is shrunk and written as an artifact."""
    rng = random.Random(seed)
    for i in range(cases):
        case = _draw_case(rng, subsets[i % len(subsets)])
        if report.record(f"case {i}", check(case)) and artifacts_dir is not None:
            _write_artifact(report, artifacts_dir, str(i), _case_artifact(_shrink(case, check)))
    return report


def suite_typing(cases: int, seed: int, artifacts_dir=None) -> SuiteReport:
    """Strong typing over generated programs (``check_typing``)."""
    return _run_cases(SuiteReport("typing"), check_typing, ("all",), cases, seed, artifacts_dir)


# Parsed once, at import.
_ADVERSARIAL_SNIPPETS = tuple(map(parse_expr, (
    "x",
    "1 / 0",
    "0 % 0",
    "-{}",
    "(1 : 2)[3]",
    "[1, 2][0 = 1]",
    "{1, while (false()) 1}",
    "[while (false()) 1]",
    "solve (q) 1",
    "if 3 then 1 else 2",
    "while (1) 1",
    "for (z <- 5) z",
    "switch (1) { }",
    "try throw 1 catch e => e",
    "try break finally fail",
    "1 + (return 2)",
    "local int a in a end",
    "bottom-up visit ([1, [2, [3]]]) { case int n : 9 => n + 1 }",
    "top-down visit ({1, 2}) { case x => x }",
    "innermost visit (3) { case 3 => 3 }",
)))


def suite_progress(cases: int, seed: int, artifacts_dir=None) -> SuiteReport:
    """Partial progress on adversarial snippets, which need not validate,
    and then on generated programs (``check_progress``); every third
    program keeps to the finite subset."""
    report = SuiteReport("progress")
    ev = Evaluator(sx.ModuleDef())
    for i, snippet in enumerate(_ADVERSARIAL_SNIPPETS):
        report.record(f"adversarial {i}", _progress(ev, snippet, Store({"q": Basic(1)})))
    generated = max(cases - len(_ADVERSARIAL_SNIPPETS), 0)
    return _run_cases(
        report, check_progress, ("finite", "all", "all"), generated, seed, artifacts_dir
    )


def suite_termination(cases: int, seed: int, artifacts_dir=None) -> SuiteReport:
    """Termination of the finite subset over generated programs
    (``check_termination``)."""
    return _run_cases(
        SuiteReport("termination"), check_termination, ("finite",), cases, seed, artifacts_dir
    )


_SUITES = {
    "purity": (suite_purity, 10000),
    "typing": (suite_typing, 10000),
    "progress": (suite_progress, 10000),
    "termination": (suite_termination, 1000),
}


def run_suite(name: str, cases: int | None = None, seed: int = 0, artifacts_dir=None) -> SuiteReport:
    """Run one suite on a large-stack worker (``call_with_stack``), so a
    deep generated program does not fail a case on the caller's stack.
    ``cases`` defaults to the suite's full scale; fewer than 1 is a
    ``ValueError``, since a suite of no cases would pass vacuously."""
    fn, default_cases = _SUITES[name]
    if cases is None:
        cases = default_cases
    elif cases < 1:
        raise ValueError(f"a suite needs at least 1 case, not {cases}")
    return call_with_stack(fn, cases, seed, artifacts_dir)
