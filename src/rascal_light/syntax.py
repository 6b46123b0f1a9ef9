"""Abstract syntax of modules, expressions and patterns, plus the
well-formedness checks every loaded module must satisfy.

Nodes are slotted dataclasses, immutable by convention: nothing assigns a
field after construction (only ``Lit._result``, a cache, is filled in
later).  Equality and hash compare the fields and ignore a node's span."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterator

from .stackguard import stack_guarded
from .types import (
    DataType,
    ListType,
    MapType,
    SetType,
    Type,
    VALUE,
)


# ---------------------------------------------------------------------------
# Source spans


@dataclass(slots=True, unsafe_hash=True)
class Span:
    start: int
    end: int


DUMMY_SPAN = Span(0, 0)


def _span_field():
    return field(default=DUMMY_SPAN, compare=False, repr=False)


# ---------------------------------------------------------------------------
# Declarations


@dataclass(slots=True, unsafe_hash=True)
class GlobalDef:
    name: str
    type: Type
    init: "Expr"
    span: Span = _span_field()


@dataclass(slots=True, unsafe_hash=True)
class Param:
    type: Type
    name: str
    span: Span = _span_field()


@dataclass(slots=True, unsafe_hash=True)
class FunDef:
    name: str
    return_type: Type
    params: tuple[Param, ...]
    body: "Expr"
    span: Span = _span_field()


@dataclass(slots=True, unsafe_hash=True)
class FieldDef:
    type: Type
    name: str
    span: Span = _span_field()


@dataclass(slots=True, unsafe_hash=True)
class ConsDef:
    name: str
    fields: tuple[FieldDef, ...]
    span: Span = _span_field()


@dataclass(slots=True, unsafe_hash=True)
class DataDef:
    name: str
    constructors: tuple[ConsDef, ...]
    span: Span = _span_field()


@dataclass(slots=True, unsafe_hash=True)
class ModuleDef:
    globals: tuple[GlobalDef, ...] = ()
    functions: tuple[FunDef, ...] = ()
    datatypes: tuple[DataDef, ...] = ()


# Booleans and the nokey exception payload are built-in datatypes: the
# evaluation rules match on true()/false() constructor values and throw
# nokey(key) on failed map lookups.
BUILTIN_DATATYPES: tuple[DataDef, ...] = (
    DataDef("Bool", (ConsDef("true", ()), ConsDef("false", ()))),
    DataDef("NoKey", (ConsDef("nokey", (FieldDef(VALUE, "key"),)),)),
)


# ---------------------------------------------------------------------------
# Expressions


class Expr:
    __slots__ = ()


@dataclass(slots=True, unsafe_hash=True)
class Lit(Expr):
    value: int | str
    span: Span = _span_field()
    # E-Val's conclusion ``Success(Basic(value))``, recorded on the node by
    # the evaluator on the first firing; equality and hash ignore it.
    _result: object = field(default=None, init=False, compare=False, repr=False)


@dataclass(slots=True, unsafe_hash=True)
class Var(Expr):
    name: str
    span: Span = _span_field()


@dataclass(slots=True, unsafe_hash=True)
class Unary(Expr):
    op: str
    operand: Expr
    span: Span = _span_field()


@dataclass(slots=True, unsafe_hash=True)
class Binary(Expr):
    left: Expr
    op: str
    right: Expr
    span: Span = _span_field()


@dataclass(slots=True, unsafe_hash=True)
class Cons(Expr):
    name: str
    args: tuple[Expr, ...]
    span: Span = _span_field()


@dataclass(slots=True, unsafe_hash=True)
class ListExpr(Expr):
    items: tuple[Expr, ...]
    span: Span = _span_field()


@dataclass(slots=True, unsafe_hash=True)
class SetExpr(Expr):
    items: tuple[Expr, ...]
    span: Span = _span_field()


@dataclass(slots=True, unsafe_hash=True)
class MapExpr(Expr):
    pairs: tuple[tuple[Expr, Expr], ...]
    span: Span = _span_field()


@dataclass(slots=True, unsafe_hash=True)
class Lookup(Expr):
    map: Expr
    key: Expr
    span: Span = _span_field()


@dataclass(slots=True, unsafe_hash=True)
class Update(Expr):
    map: Expr
    key: Expr
    value: Expr
    span: Span = _span_field()


@dataclass(slots=True, unsafe_hash=True)
class Call(Expr):
    name: str
    args: tuple[Expr, ...]
    span: Span = _span_field()


@dataclass(slots=True, unsafe_hash=True)
class ReturnExpr(Expr):
    value: Expr
    span: Span = _span_field()


@dataclass(slots=True, unsafe_hash=True)
class Assign(Expr):
    name: str
    value: Expr
    span: Span = _span_field()


@dataclass(slots=True, unsafe_hash=True)
class If(Expr):
    cond: Expr
    then: Expr
    els: Expr
    span: Span = _span_field()


@dataclass(slots=True, unsafe_hash=True)
class Case:
    pattern: "Pattern"
    body: Expr
    span: Span = _span_field()


@dataclass(slots=True, unsafe_hash=True)
class Switch(Expr):
    subject: Expr
    cases: tuple[Case, ...]
    span: Span = _span_field()


class Strategy(enum.Enum):
    TOP_DOWN = "top-down"
    BOTTOM_UP = "bottom-up"
    TOP_DOWN_BREAK = "top-down-break"
    BOTTOM_UP_BREAK = "bottom-up-break"
    OUTERMOST = "outermost"
    INNERMOST = "innermost"


@dataclass(slots=True, unsafe_hash=True)
class Visit(Expr):
    strategy: Strategy
    subject: Expr
    cases: tuple[Case, ...]
    span: Span = _span_field()


@dataclass(slots=True, unsafe_hash=True)
class BreakExpr(Expr):
    span: Span = _span_field()


@dataclass(slots=True, unsafe_hash=True)
class ContinueExpr(Expr):
    span: Span = _span_field()


@dataclass(slots=True, unsafe_hash=True)
class FailExpr(Expr):
    span: Span = _span_field()


@dataclass(slots=True, unsafe_hash=True)
class LocalDecl:
    type: Type
    name: str
    span: Span = _span_field()


@dataclass(slots=True, unsafe_hash=True)
class Block(Expr):
    locals: tuple[LocalDecl, ...]
    body: tuple[Expr, ...]
    span: Span = _span_field()


class Generator:
    __slots__ = ()


@dataclass(slots=True, unsafe_hash=True)
class Enumerating(Generator):
    var: str
    source: Expr
    span: Span = _span_field()


@dataclass(slots=True, unsafe_hash=True)
class Matching(Generator):
    pattern: "Pattern"
    source: Expr
    span: Span = _span_field()


@dataclass(slots=True, unsafe_hash=True)
class For(Expr):
    generator: Generator
    body: Expr
    span: Span = _span_field()


@dataclass(slots=True, unsafe_hash=True)
class While(Expr):
    cond: Expr
    body: Expr
    span: Span = _span_field()


@dataclass(slots=True, unsafe_hash=True)
class Solve(Expr):
    targets: tuple[str, ...]
    body: Expr
    span: Span = _span_field()


@dataclass(slots=True, unsafe_hash=True)
class ThrowExpr(Expr):
    value: Expr
    span: Span = _span_field()


@dataclass(slots=True, unsafe_hash=True)
class TryCatch(Expr):
    body: Expr
    var: str
    handler: Expr
    span: Span = _span_field()


@dataclass(slots=True, unsafe_hash=True)
class TryFinally(Expr):
    body: Expr
    fin: Expr
    span: Span = _span_field()


# ---------------------------------------------------------------------------
# Patterns


class Pattern:
    __slots__ = ()


@dataclass(slots=True, unsafe_hash=True)
class LitPat(Pattern):
    value: int | str
    span: Span = _span_field()


@dataclass(slots=True, unsafe_hash=True)
class VarPat(Pattern):
    name: str
    span: Span = _span_field()


@dataclass(slots=True, unsafe_hash=True)
class ConsPat(Pattern):
    name: str
    args: tuple[Pattern, ...]
    span: Span = _span_field()


@dataclass(slots=True, unsafe_hash=True)
class TypedPat(Pattern):
    type: Type
    name: str
    pattern: Pattern
    span: Span = _span_field()


@dataclass(slots=True, unsafe_hash=True)
class Star(Pattern):
    """A star element ``*x`` inside a list or set pattern."""

    name: str
    span: Span = _span_field()


@dataclass(slots=True, unsafe_hash=True)
class ListPat(Pattern):
    elements: tuple[Pattern, ...]  # ordinary patterns or Star
    span: Span = _span_field()


@dataclass(slots=True, unsafe_hash=True)
class SetPat(Pattern):
    elements: tuple[Pattern, ...]
    span: Span = _span_field()


@dataclass(slots=True, unsafe_hash=True)
class NegPat(Pattern):
    pattern: Pattern
    span: Span = _span_field()


@dataclass(slots=True, unsafe_hash=True)
class DeepPat(Pattern):
    pattern: Pattern
    span: Span = _span_field()


# ---------------------------------------------------------------------------
# Structural helpers


def expr_children(e: Expr) -> tuple[Expr, ...]:
    """Direct sub-expressions, including case bodies and generator sources."""
    if isinstance(e, (Lit, Var, BreakExpr, ContinueExpr, FailExpr)):
        return ()
    if isinstance(e, Unary):
        return (e.operand,)
    if isinstance(e, Binary):
        return (e.left, e.right)
    if isinstance(e, (Cons, Call)):
        return e.args
    if isinstance(e, ListExpr) or isinstance(e, SetExpr):
        return e.items
    if isinstance(e, MapExpr):
        return tuple(x for kv in e.pairs for x in kv)
    if isinstance(e, Lookup):
        return (e.map, e.key)
    if isinstance(e, Update):
        return (e.map, e.key, e.value)
    if isinstance(e, (ReturnExpr, ThrowExpr)):
        return (e.value,)
    if isinstance(e, Assign):
        return (e.value,)
    if isinstance(e, If):
        return (e.cond, e.then, e.els)
    if isinstance(e, Switch):
        return (e.subject,) + tuple(c.body for c in e.cases)
    if isinstance(e, Visit):
        return (e.subject,) + tuple(c.body for c in e.cases)
    if isinstance(e, Block):
        return e.body
    if isinstance(e, For):
        return (e.generator.source, e.body)
    if isinstance(e, While):
        return (e.cond, e.body)
    if isinstance(e, Solve):
        return (e.body,)
    if isinstance(e, TryCatch):
        return (e.body, e.handler)
    if isinstance(e, TryFinally):
        return (e.body, e.fin)
    raise TypeError(f"not an expression: {e!r}")


def walk_exprs(e: Expr) -> Iterator[Expr]:
    """All sub-expressions of ``e`` in preorder, including ``e`` itself."""
    stack = [e]
    while stack:
        cur = stack.pop()
        yield cur
        stack.extend(reversed(expr_children(cur)))


def pattern_vars(p: Pattern) -> list[str]:
    """All variable names occurring in a pattern, in preorder."""
    out: list[str] = []

    def go(q: Pattern) -> None:
        if isinstance(q, VarPat):
            out.append(q.name)
        elif isinstance(q, Star):
            out.append(q.name)
        elif isinstance(q, ConsPat):
            for a in q.args:
                go(a)
        elif isinstance(q, TypedPat):
            out.append(q.name)
            go(q.pattern)
        elif isinstance(q, (ListPat, SetPat)):
            for a in q.elements:
                go(a)
        elif isinstance(q, (NegPat, DeepPat)):
            go(q.pattern)

    go(p)
    return out


def is_finite_subset(e: Expr) -> bool:
    """Whether ``e`` lies in the terminating expression subset.

    The subset excludes while-loops, solve-loops and function calls, and
    restricts traversals to bottom-up and bottom-up-break; the check is
    recursive over all sub-expressions.
    """
    for sub in walk_exprs(e):
        if isinstance(sub, (While, Solve, Call)):
            return False
        if isinstance(sub, Visit) and sub.strategy not in (
            Strategy.BOTTOM_UP,
            Strategy.BOTTOM_UP_BREAK,
        ):
            return False
    return True


# ---------------------------------------------------------------------------
# Module tables


def all_datatypes(m: ModuleDef) -> tuple[DataDef, ...]:
    return BUILTIN_DATATYPES + m.datatypes


def constructor_table(m: ModuleDef) -> dict[str, tuple[str, tuple[Type, ...]]]:
    """Map each constructor name to (datatype name, declared field types)."""
    out: dict[str, tuple[str, tuple[Type, ...]]] = {}
    for dd in all_datatypes(m):
        for cd in dd.constructors:
            out[cd.name] = (dd.name, tuple(f.type for f in cd.fields))
    return out


# ---------------------------------------------------------------------------
# Well-formedness


@dataclass(slots=True, unsafe_hash=True)
class WellFormednessError:
    kind: str
    name: str
    span: Span
    message: str

    def __str__(self) -> str:
        return f"[{self.kind}] {self.message}"


@dataclass(slots=True)
class ModuleInfo:
    """Static facts about a validated module used by the evaluator."""

    module: ModuleDef
    constructors: dict[str, tuple[str, tuple[Type, ...]]]
    functions: dict[str, FunDef]
    errors: list[WellFormednessError]
    # The declared type of each assignment to a block local, keyed by the
    # ``id`` of its ``Assign`` node; globals are not listed, they resolve
    # by name.
    assign_types: dict[int, Type]


# A lexical scope: name -> (kind, declared type or None).  A nested scope
# is a copy, so what it binds stays inside it.
Scope = dict[str, tuple[str, "Type | None"]]


def _type_refs(t: Type) -> Iterator[str]:
    if isinstance(t, DataType):
        yield t.name
    elif isinstance(t, (SetType, ListType)):
        yield from _type_refs(t.elem)
    elif isinstance(t, MapType):
        yield from _type_refs(t.key)
        yield from _type_refs(t.val)


class _Validator:
    def __init__(self, m: ModuleDef):
        self.module = m
        self.errors: list[WellFormednessError] = []
        # Every datatype a type may name, built-in or declared.
        self.datatype_names = {d.name for d in all_datatypes(m)}
        self.constructors: dict[str, tuple[str, tuple[Type, ...]]] = {}
        self.functions: dict[str, FunDef] = {}
        self.assign_types: dict[int, Type] = {}

    def error(self, kind: str, name: str, span: Span, message: str) -> None:
        self.errors.append(WellFormednessError(kind, name, span, message))

    # -- declarations -------------------------------------------------

    def run(self) -> ModuleInfo:
        m = self.module
        toplevel: dict[str, str] = {}

        def declare(name: str, what: str, span: Span) -> bool:
            if name in toplevel:
                self.error(
                    "duplicate-name",
                    name,
                    span,
                    f"{what} {name!r} collides with {toplevel[name]} of the same name",
                )
                return False
            toplevel[name] = what
            return True

        for dd in BUILTIN_DATATYPES:
            toplevel[dd.name] = "built-in datatype"
            for cd in dd.constructors:
                toplevel[cd.name] = "built-in constructor"
                self.constructors[cd.name] = (dd.name, tuple(f.type for f in cd.fields))

        for dd in m.datatypes:
            declare(dd.name, "datatype", dd.span)
            for cd in dd.constructors:
                if declare(cd.name, "constructor", cd.span):
                    self.constructors[cd.name] = (
                        dd.name,
                        tuple(f.type for f in cd.fields),
                    )
                seen_fields: set[str] = set()
                for fd in cd.fields:
                    if fd.name in seen_fields:
                        self.error(
                            "duplicate-name",
                            fd.name,
                            fd.span,
                            f"duplicate field {fd.name!r} in constructor {cd.name!r}",
                        )
                    seen_fields.add(fd.name)

        for g in m.globals:
            declare(g.name, "global variable", g.span)

        for f in m.functions:
            if declare(f.name, "function", f.span):
                self.functions[f.name] = f

        # Types mentioned in declarations must resolve.
        for dd in m.datatypes:
            for cd in dd.constructors:
                for fd in cd.fields:
                    self.check_type(fd.type, fd.span)
        for g in m.globals:
            self.check_type(g.type, g.span)

        globals_scope: Scope = {g.name: ("global", g.type) for g in m.globals}
        for g in m.globals:
            # Global initializers run before any function; they see only
            # the globals themselves (plus their own block locals).
            self.walk(g.init, dict(globals_scope))

        for f in m.functions:
            self.check_type(f.return_type, f.span)
            scope = dict(globals_scope)
            seen: set[str] = set()
            for p in f.params:
                self.check_type(p.type, p.span)
                if p.name in seen:
                    self.error(
                        "duplicate-name",
                        p.name,
                        p.span,
                        f"duplicate parameter {p.name!r} in function {f.name!r}",
                    )
                if p.name in scope:
                    self.error(
                        "shadowing",
                        p.name,
                        p.span,
                        f"parameter {p.name!r} shadows an enclosing declaration",
                    )
                seen.add(p.name)
                scope[p.name] = ("param", p.type)
            self.walk(f.body, scope)

        return ModuleInfo(
            module=m,
            constructors=self.constructors,
            functions=self.functions,
            errors=self.errors,
            assign_types=self.assign_types,
        )

    def check_type(self, t: Type, span: Span) -> None:
        for name in _type_refs(t):
            if name not in self.datatype_names:
                self.error(
                    "undefined-datatype", name, span, f"undefined datatype {name!r}"
                )

    # -- expressions ---------------------------------------------------

    def introduce(self, scope: Scope, name: str, kind: str, ty: Type | None, span: Span) -> None:
        if name in scope:
            self.error(
                "shadowing",
                name,
                span,
                f"{kind} {name!r} shadows an enclosing binding",
            )
        scope[name] = (kind, ty)

    def walk(self, e: Expr, scope: Scope) -> None:
        if isinstance(e, Lit) or isinstance(e, (BreakExpr, ContinueExpr, FailExpr)):
            return
        if isinstance(e, Var):
            if e.name not in scope:
                self.error(
                    "undefined-variable",
                    e.name,
                    e.span,
                    f"variable {e.name!r} does not resolve to any declaration",
                )
            return
        if isinstance(e, Assign):
            self.walk(e.value, scope)
            entry = scope.get(e.name)
            if entry is None:
                self.error(
                    "undefined-variable",
                    e.name,
                    e.span,
                    f"assignment to undeclared variable {e.name!r}",
                )
            elif entry[0] == "local":
                self.assign_types[id(e)] = entry[1]
            elif entry[0] != "global":
                self.error(
                    "not-assignable",
                    e.name,
                    e.span,
                    f"{e.name!r} is a {entry[0]} and cannot be assigned",
                )
            return
        if isinstance(e, Cons):
            sig = self.constructors.get(e.name)
            if sig is None:
                self.error(
                    "undefined-constructor",
                    e.name,
                    e.span,
                    f"undefined constructor {e.name!r}",
                )
            elif len(sig[1]) != len(e.args):
                self.error(
                    "arity-mismatch",
                    e.name,
                    e.span,
                    f"constructor {e.name!r} expects {len(sig[1])} arguments, "
                    f"given {len(e.args)}",
                )
            for a in e.args:
                self.walk(a, scope)
            return
        if isinstance(e, Call):
            f = self.functions.get(e.name)
            if f is None:
                self.error(
                    "undefined-function",
                    e.name,
                    e.span,
                    f"undefined function {e.name!r}",
                )
            elif len(f.params) != len(e.args):
                self.error(
                    "arity-mismatch",
                    e.name,
                    e.span,
                    f"function {e.name!r} expects {len(f.params)} arguments, "
                    f"given {len(e.args)}",
                )
            for a in e.args:
                self.walk(a, scope)
            return
        if isinstance(e, Block):
            inner = dict(scope)
            seen: set[str] = set()
            for d in e.locals:
                self.check_type(d.type, d.span)
                if d.name in seen:
                    self.error(
                        "duplicate-name",
                        d.name,
                        d.span,
                        f"duplicate local {d.name!r} in block",
                    )
                seen.add(d.name)
                self.introduce(inner, d.name, "local", d.type, d.span)
            for sub in e.body:
                self.walk(sub, inner)
            return
        if isinstance(e, (Switch, Visit)):
            self.walk(e.subject, scope)
            for c in e.cases:
                inner = dict(scope)
                self.check_pattern(c.pattern, inner)
                self.walk(c.body, inner)
            return
        if isinstance(e, For):
            g = e.generator
            self.walk(g.source, scope)
            inner = dict(scope)
            if isinstance(g, Enumerating):
                self.introduce(inner, g.var, "range variable", None, g.span)
            else:
                self.check_pattern(g.pattern, inner)
            self.walk(e.body, inner)
            return
        if isinstance(e, Solve):
            for x in e.targets:
                if x not in scope:
                    self.error(
                        "undefined-variable",
                        x,
                        e.span,
                        f"solve target {x!r} does not resolve to any declaration",
                    )
            self.walk(e.body, scope)
            return
        if isinstance(e, TryCatch):
            self.walk(e.body, scope)
            inner = dict(scope)
            self.introduce(inner, e.var, "catch variable", None, e.span)
            self.walk(e.handler, inner)
            return
        for sub in expr_children(e):
            self.walk(sub, scope)

    # -- patterns --------------------------------------------------------

    def check_pattern(self, p: Pattern, scope: Scope) -> None:
        """Validate a pattern and extend ``scope`` with the variables it binds.

        Ordinary and star variables may coincide with existing bindings
        (they then match by equality rather than binding); typed-label
        variables must be fresh because their bindings are always stripped
        from the store after the case body runs.
        """
        if isinstance(p, LitPat):
            return
        if isinstance(p, VarPat):
            scope.setdefault(p.name, ("pattern variable", None))
            return
        if isinstance(p, Star):
            scope.setdefault(p.name, ("pattern variable", None))
            return
        if isinstance(p, ConsPat):
            sig = self.constructors.get(p.name)
            if sig is None:
                self.error(
                    "undefined-constructor",
                    p.name,
                    p.span,
                    f"undefined constructor {p.name!r} in pattern",
                )
            elif len(sig[1]) != len(p.args):
                self.error(
                    "arity-mismatch",
                    p.name,
                    p.span,
                    f"deconstructor {p.name!r} expects {len(sig[1])} arguments, "
                    f"given {len(p.args)}",
                )
            for a in p.args:
                self.check_pattern(a, scope)
            return
        if isinstance(p, TypedPat):
            self.check_type(p.type, p.span)
            entry = scope.get(p.name)
            if entry is not None and entry[0] != "pattern variable":
                self.error(
                    "shadowing",
                    p.name,
                    p.span,
                    f"label variable {p.name!r} shadows an enclosing declaration",
                )
            scope[p.name] = ("pattern variable", None)
            self.check_pattern(p.pattern, scope)
            return
        if isinstance(p, (ListPat, SetPat)):
            for a in p.elements:
                self.check_pattern(a, scope)
            return
        if isinstance(p, (NegPat, DeepPat)):
            self.check_pattern(p.pattern, scope)
            return
        raise TypeError(f"not a pattern: {p!r}")


@stack_guarded
def analyze_module(m: ModuleDef) -> ModuleInfo:
    """Validate ``m`` and compute the tables the evaluator needs."""
    return _Validator(m).run()


def validate_module(m: ModuleDef) -> list[WellFormednessError]:
    """All well-formedness violations of ``m``, in deterministic order."""
    return analyze_module(m).errors


def validate_expr(e: Expr, info: ModuleInfo) -> list[WellFormednessError]:
    """Validate a standalone expression against an analysed module.

    Used for snippet evaluation: the expression sees the module's
    declarations and globals (but no function's parameters or locals).
    """
    v = _Validator(info.module)
    v.constructors.update(info.constructors)
    v.functions.update(info.functions)
    v.walk(e, {g.name: ("global", g.type) for g in info.module.globals})
    return v.errors


def snippet_assignables(*roots: Expr) -> dict[int, Type]:
    """Declared types of the block locals assigned in ``roots``, in one walk.

    The counterpart of ``ModuleInfo.assign_types`` for expressions from
    outside a module: keyed by the ``id`` of each ``Assign`` node, each
    type is that of the innermost enclosing declaration of the name.
    Assignments to any other name are left out.
    """
    out: dict[int, Type] = {}
    stack: list[tuple[Expr, dict[str, Type]]] = [(r, {}) for r in roots]
    while stack:
        cur, scope = stack.pop()
        if isinstance(cur, Block) and cur.locals:
            scope = {**scope, **{d.name: d.type for d in cur.locals}}
        elif isinstance(cur, Assign) and cur.name in scope:
            out[id(cur)] = scope[cur.name]
        for sub in expr_children(cur):
            stack.append((sub, scope))
    return out
