"""Abstract syntax of modules, expressions and patterns, plus the
well-formedness checks every loaded module must satisfy.

The node classes are the rows of ``_CLASSES``, slotted classes that
``fieldtable.build`` writes out.  Nodes are immutable by convention:
nothing assigns a field after construction (only ``Lit._result``, a cache,
is filled in later).  Equality and hash compare the fields and ignore a
node's span."""

from __future__ import annotations

import enum
from typing import Iterator

from .fieldtable import build
from .stackguard import stack_guarded
from .types import (
    DataType,
    ListType,
    MapType,
    SetType,
    Type,
    VALUE,
)


class Expr:
    __slots__ = ()


class Generator:
    __slots__ = ()


class Pattern:
    __slots__ = ()


class Strategy(enum.Enum):
    TOP_DOWN = "top-down"
    BOTTOM_UP = "bottom-up"
    TOP_DOWN_BREAK = "top-down-break"
    BOTTOM_UP_BREAK = "bottom-up-break"
    OUTERMOST = "outermost"
    INNERMOST = "innermost"


# The strategies of the terminating subset (``is_finite_subset``), in the
# order the generator draws from.
FINITE_STRATEGIES = (Strategy.BOTTOM_UP, Strategy.BOTTOM_UP_BREAK)


# The parts written by hand of two classes of ``_CLASSES``; ``build`` adds
# them to the classes it builds under these names.
class WellFormednessError:
    """A well-formedness violation: its kind, the name at fault, where,
    and a message."""

    def __str__(self) -> str:
        return f"[{self.kind}] {self.message}"


class ModuleInfo:
    """Static facts about a validated module used by the evaluator.

    ``assign_types`` holds the declared type of each assignment to a block
    local, keyed by the ``id`` of its ``Assign`` node; globals are not
    listed, they resolve by name.  ``walked_roots`` holds the ``id`` of each
    function body, global initializer and case body: their block locals
    are in ``assign_types``, so none is walked again.  ``datatype_names``
    holds every datatype a type may name, built-in or declared."""

    __hash__ = None


_CLASSES = """
# Source spans
Span: start end
DUMMY_SPAN = Span(0, 0)
# Declarations
GlobalDef: name type init | span=DUMMY_SPAN
Param: type name | span=DUMMY_SPAN
FunDef: name return_type params body | span=DUMMY_SPAN
FieldDef: type name | span=DUMMY_SPAN
ConsDef: name fields | span=DUMMY_SPAN
DataDef: name constructors | span=DUMMY_SPAN
ModuleDef: globals=() functions=() datatypes=()
# Expressions.  ``Lit._result`` is E-Val's conclusion, the value
# Basic(value), recorded on the node by the evaluator on the first firing.
Lit(Expr): value | span=DUMMY_SPAN _result=None
Var(Expr): name | span=DUMMY_SPAN
Unary(Expr): op operand | span=DUMMY_SPAN
Binary(Expr): left op right | span=DUMMY_SPAN
Cons(Expr): name args | span=DUMMY_SPAN
ListExpr(Expr): items | span=DUMMY_SPAN
SetExpr(Expr): items | span=DUMMY_SPAN
MapExpr(Expr): pairs | span=DUMMY_SPAN
Lookup(Expr): map key | span=DUMMY_SPAN
Update(Expr): map key value | span=DUMMY_SPAN
Call(Expr): name args | span=DUMMY_SPAN
ReturnExpr(Expr): value | span=DUMMY_SPAN
Assign(Expr): name value | span=DUMMY_SPAN
If(Expr): cond then els | span=DUMMY_SPAN
Case: pattern body | span=DUMMY_SPAN
Switch(Expr): subject cases | span=DUMMY_SPAN
Visit(Expr): strategy subject cases | span=DUMMY_SPAN
BreakExpr(Expr): | span=DUMMY_SPAN
ContinueExpr(Expr): | span=DUMMY_SPAN
FailExpr(Expr): | span=DUMMY_SPAN
LocalDecl: type name | span=DUMMY_SPAN
Block(Expr): locals body | span=DUMMY_SPAN
Enumerating(Generator): var source | span=DUMMY_SPAN
Matching(Generator): pattern source | span=DUMMY_SPAN
For(Expr): generator body | span=DUMMY_SPAN
While(Expr): cond body | span=DUMMY_SPAN
Solve(Expr): targets body | span=DUMMY_SPAN
ThrowExpr(Expr): value | span=DUMMY_SPAN
TryCatch(Expr): body var handler | span=DUMMY_SPAN
TryFinally(Expr): body fin | span=DUMMY_SPAN
# Patterns.  A ``Star`` is an element ``*x`` of a list or set pattern.
LitPat(Pattern): value | span=DUMMY_SPAN
VarPat(Pattern): name | span=DUMMY_SPAN
ConsPat(Pattern): name args | span=DUMMY_SPAN
TypedPat(Pattern): type name pattern | span=DUMMY_SPAN
Star(Pattern): name | span=DUMMY_SPAN
ListPat(Pattern): elements | span=DUMMY_SPAN
SetPat(Pattern): elements | span=DUMMY_SPAN
NegPat(Pattern): pattern | span=DUMMY_SPAN
DeepPat(Pattern): pattern | span=DUMMY_SPAN
# Well-formedness: a diagnostic's span is one of its fields.
WellFormednessError: kind name span message
ModuleInfo: module constructors functions errors assign_types | walked_roots=frozenset() datatype_names=frozenset()
"""
build(globals(), _CLASSES, WellFormednessError, ModuleInfo)


# Booleans and the nokey exception payload are built-in datatypes: the
# evaluation rules match on true()/false() constructor values and throw
# nokey(key) on failed map lookups.
BUILTIN_DATATYPES: tuple[DataDef, ...] = (
    DataDef("Bool", (ConsDef("true", ()), ConsDef("false", ()))),
    DataDef("NoKey", (ConsDef("nokey", (FieldDef(VALUE, "key"),)),)),
)


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
    if isinstance(e, (ListExpr, SetExpr)):
        return e.items
    if isinstance(e, MapExpr):
        return tuple(x for kv in e.pairs for x in kv)
    if isinstance(e, Lookup):
        return (e.map, e.key)
    if isinstance(e, Update):
        return (e.map, e.key, e.value)
    if isinstance(e, (ReturnExpr, ThrowExpr, Assign)):
        return (e.value,)
    if isinstance(e, If):
        return (e.cond, e.then, e.els)
    if isinstance(e, (Switch, Visit)):
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
        if isinstance(q, (VarPat, Star)):
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
        if isinstance(sub, Visit) and sub.strategy not in FINITE_STRATEGIES:
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
    def __init__(self, m: ModuleDef, info: ModuleInfo | None = None):
        """A validator of ``m``, whose ``run`` builds its tables; or, given
        ``info``, ``m``'s analysis, one that walks snippets against the
        tables ``info`` holds.  A walk only reads them, so they are not
        copied."""
        self.module = m
        self.errors: list[WellFormednessError] = []
        self.assign_types: dict[int, Type] = {}
        self.walked_roots: set[int] = set()
        if info is None:
            self.datatype_names = {d.name for d in all_datatypes(m)}
            self.constructors: dict[str, tuple[str, tuple[Type, ...]]] = {}
            self.functions: dict[str, FunDef] = {}
        else:
            self.datatype_names = info.datatype_names
            self.constructors = info.constructors
            self.functions = info.functions

    def error(self, kind: str, name: str, span: Span, message: str) -> None:
        self.errors.append(WellFormednessError(kind, name, span, message))

    def check_distinct(
        self, seen: set[str], d: FieldDef | Param | LocalDecl, what: str, owner: str, owner_name: str | None = None
    ) -> None:
        """``d`` must not repeat a name in ``seen``, the names declared
        before it in the list of ``owner``; adds its name."""
        if d.name in seen:
            where = owner if owner_name is None else f"{owner} {owner_name!r}"
            self.error("duplicate-name", d.name, d.span, f"duplicate {what} {d.name!r} in {where}")
        seen.add(d.name)

    def check_application(
        self, node: Cons | Call | ConsPat, params: tuple | None, kind: str, noun: str, where: str = ""
    ) -> None:
        """``node`` applies the declared ``kind`` of its name, whose
        parameters are ``params`` (None: no such declaration), to as many
        arguments; ``noun`` names it in an arity error."""
        if params is None:
            self.error(f"undefined-{kind}", node.name, node.span, f"undefined {kind} {node.name!r}{where}")
        elif len(params) != len(node.args):
            self.error(
                "arity-mismatch",
                node.name,
                node.span,
                f"{noun} {node.name!r} expects {len(params)} arguments, given {len(node.args)}",
            )

    def resolve(self, scope: Scope, name: str, span: Span, use: str) -> tuple[str, Type | None] | None:
        """The binding of ``name`` in ``scope``, or None after an error
        naming the ``use`` (``"assignment"`` or the noun of a read)."""
        entry = scope.get(name)
        if entry is None:
            if use == "assignment":
                message = f"assignment to undeclared variable {name!r}"
            else:
                message = f"{use} {name!r} does not resolve to any declaration"
            self.error("undefined-variable", name, span, message)
        return entry

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
                    self.check_distinct(seen_fields, fd, "field", "constructor", cd.name)

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
            self.walked_roots.add(id(g.init))
            self.walk(g.init, dict(globals_scope))

        for f in m.functions:
            self.check_type(f.return_type, f.span)
            scope = dict(globals_scope)
            seen: set[str] = set()
            for p in f.params:
                self.check_type(p.type, p.span)
                self.check_distinct(seen, p, "parameter", "function", f.name)
                if p.name in scope:
                    self.error(
                        "shadowing",
                        p.name,
                        p.span,
                        f"parameter {p.name!r} shadows an enclosing declaration",
                    )
                scope[p.name] = ("param", p.type)
            self.walked_roots.add(id(f.body))
            self.walk(f.body, scope)

        return ModuleInfo(
            module=m,
            constructors=self.constructors,
            functions=self.functions,
            errors=self.errors,
            assign_types=self.assign_types,
            walked_roots=self.walked_roots,
            datatype_names=self.datatype_names,
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
            self.resolve(scope, e.name, e.span, "variable")
            return
        if isinstance(e, Assign):
            self.walk(e.value, scope)
            entry = self.resolve(scope, e.name, e.span, "assignment")
            if entry is None or entry[0] == "global":
                return
            if entry[0] == "local":
                self.assign_types[id(e)] = entry[1]
            else:
                self.error(
                    "not-assignable",
                    e.name,
                    e.span,
                    f"{e.name!r} is a {entry[0]} and cannot be assigned",
                )
            return
        if isinstance(e, Cons):
            sig = self.constructors.get(e.name)
            self.check_application(e, None if sig is None else sig[1], "constructor", "constructor")
            for a in e.args:
                self.walk(a, scope)
            return
        if isinstance(e, Call):
            f = self.functions.get(e.name)
            self.check_application(e, None if f is None else f.params, "function", "function")
            for a in e.args:
                self.walk(a, scope)
            return
        if isinstance(e, Block):
            inner = dict(scope)
            seen: set[str] = set()
            for d in e.locals:
                self.check_type(d.type, d.span)
                self.check_distinct(seen, d, "local", "block")
                self.introduce(inner, d.name, "local", d.type, d.span)
            for sub in e.body:
                self.walk(sub, inner)
            return
        if isinstance(e, (Switch, Visit)):
            self.walk(e.subject, scope)
            for c in e.cases:
                inner = dict(scope)
                self.check_pattern(c.pattern, inner)
                self.walked_roots.add(id(c.body))
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
                self.resolve(scope, x, e.span, "solve target")
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
        if isinstance(p, (VarPat, Star)):
            scope.setdefault(p.name, ("pattern variable", None))
            return
        if isinstance(p, ConsPat):
            sig = self.constructors.get(p.name)
            self.check_application(
                p, None if sig is None else sig[1], "constructor", "deconstructor", " in pattern"
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


def _walk_snippets(info: ModuleInfo, roots) -> _Validator:
    """The validator after walking ``roots`` as snippets of ``info``'s
    module: they see its declarations and globals (but no function's
    parameters or locals)."""
    v = _Validator(info.module, info)
    scope = {g.name: ("global", g.type) for g in info.module.globals}
    for r in roots:
        v.walk(r, scope)
    return v


def validate_expr(e: Expr, info: ModuleInfo) -> list[WellFormednessError]:
    """Validate a standalone expression as a snippet of an analysed module."""
    return _walk_snippets(info, (e,)).errors


@stack_guarded
def snippet_assignables(info: ModuleInfo, *roots: Expr) -> dict[int, Type]:
    """Declared types of the block locals assigned in ``roots``, snippets of
    ``info``'s module: the counterpart of ``ModuleInfo.assign_types`` for
    expressions from outside it, by the ``id`` of each ``Assign`` node.  The
    validator's walk finds them, so a name refers to the binding validation
    would give it; the walk's errors are dropped."""
    return _walk_snippets(info, roots).assign_types
