"""Abstract syntax of modules, expressions and patterns, plus the
well-formedness checks every loaded module must satisfy.

The node classes are the rows of ``_CLASSES``, slotted classes that
``fieldtable.build`` writes out.  Nodes are immutable by convention:
nothing assigns a field after construction (only ``Lit._result``, a cache,
is filled in later).  Equality and hash compare the fields and ignore a
node's span."""

from __future__ import annotations

import enum
from operator import attrgetter
from typing import Iterator

from .fieldtable import MARKS, build
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


# A field marked ``E`` holds an expression, ``P`` a pattern, and ``N`` a
# part (a case, a generator) whose own marked fields count as the holder's;
# each ``*`` is one level of tuples.  The structural walks read the marks.
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
Unary(Expr): op operand:E | span=DUMMY_SPAN
Binary(Expr): left:E op right:E | span=DUMMY_SPAN
Cons(Expr): name args:E* | span=DUMMY_SPAN
ListExpr(Expr): items:E* | span=DUMMY_SPAN
SetExpr(Expr): items:E* | span=DUMMY_SPAN
MapExpr(Expr): pairs:E** | span=DUMMY_SPAN
Lookup(Expr): map:E key:E | span=DUMMY_SPAN
Update(Expr): map:E key:E value:E | span=DUMMY_SPAN
Call(Expr): name args:E* | span=DUMMY_SPAN
ReturnExpr(Expr): value:E | span=DUMMY_SPAN
Assign(Expr): name value:E | span=DUMMY_SPAN
If(Expr): cond:E then:E els:E | span=DUMMY_SPAN
Case: pattern:P body:E | span=DUMMY_SPAN
Switch(Expr): subject:E cases:N* | span=DUMMY_SPAN
Visit(Expr): strategy subject:E cases:N* | span=DUMMY_SPAN
BreakExpr(Expr): | span=DUMMY_SPAN
ContinueExpr(Expr): | span=DUMMY_SPAN
FailExpr(Expr): | span=DUMMY_SPAN
LocalDecl: type name | span=DUMMY_SPAN
Block(Expr): locals body:E* | span=DUMMY_SPAN
Enumerating(Generator): var source:E | span=DUMMY_SPAN
Matching(Generator): pattern:P source:E | span=DUMMY_SPAN
For(Expr): generator:N body:E | span=DUMMY_SPAN
While(Expr): cond:E body:E | span=DUMMY_SPAN
Solve(Expr): targets body:E | span=DUMMY_SPAN
ThrowExpr(Expr): value:E | span=DUMMY_SPAN
TryCatch(Expr): body:E var handler:E | span=DUMMY_SPAN
TryFinally(Expr): body:E fin:E | span=DUMMY_SPAN
# Patterns.  A ``Star`` is an element ``*x`` of a list or set pattern.
LitPat(Pattern): value | span=DUMMY_SPAN
VarPat(Pattern): name | span=DUMMY_SPAN
ConsPat(Pattern): name args:P* | span=DUMMY_SPAN
TypedPat(Pattern): type name pattern:P | span=DUMMY_SPAN
Star(Pattern): name | span=DUMMY_SPAN
ListPat(Pattern): elements:P* | span=DUMMY_SPAN
SetPat(Pattern): elements:P* | span=DUMMY_SPAN
NegPat(Pattern): pattern:P | span=DUMMY_SPAN
DeepPat(Pattern): pattern:P | span=DUMMY_SPAN
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


def _flat(value, mark: str, kind: str) -> Iterator:
    """The children of ``kind`` (``"E"`` or ``"P"``) in ``value``, a field
    marked ``mark``; a node's own are those of its marked fields."""
    if mark == kind:
        yield value
    elif mark == "N":
        for name, sub in MARKS[type(value)]:
            yield from _flat(getattr(value, name), sub, kind)
    elif mark[0] in (kind, "N"):
        for item in value:
            yield from _flat(item, mark[:-1], kind)


def _getter(cls: type, kind: str):
    """The function that gives a node of ``cls`` its children of ``kind``,
    in the order of its row; an attrgetter where the row allows."""
    marks = [mark for _, mark in MARKS[cls]]
    if not marks:
        return lambda node: ()
    get = attrgetter(*(name for name, _ in MARKS[cls]))
    if marks == [kind]:
        return lambda node: (get(node),)
    if marks == [kind + "*"] or set(marks) == {kind}:
        return get
    return lambda node: tuple(_flat(node, "N", kind))


_EXPR_CHILDREN = {cls: _getter(cls, "E") for cls in MARKS if issubclass(cls, Expr)}
_SUBPATTERNS = {cls: _getter(cls, "P") for cls in MARKS if issubclass(cls, Pattern)}


def _not_an_expression(e) -> tuple:
    raise TypeError(f"not an expression: {e!r}")


def _not_a_pattern(p) -> tuple:
    raise TypeError(f"not a pattern: {p!r}")


def expr_children(e: Expr) -> tuple[Expr, ...]:
    """Direct sub-expressions, including case bodies and generator sources."""
    return _EXPR_CHILDREN.get(e.__class__, _not_an_expression)(e)


def walk_exprs(e: Expr) -> Iterator[Expr]:
    """All sub-expressions of ``e`` in preorder, including ``e`` itself."""
    stack = [e]
    while stack:
        cur = stack.pop()
        yield cur
        stack.extend(reversed(expr_children(cur)))


def pattern_vars(p: Pattern) -> list[str]:
    """All variable names occurring in a pattern, in preorder (a label's
    name before its pattern's)."""
    out: list[str] = []

    def go(q: Pattern) -> None:
        if isinstance(q, (VarPat, Star)):
            out.append(q.name)
            return
        if isinstance(q, TypedPat):
            out.append(q.name)
        for sub in _SUBPATTERNS.get(q.__class__, _not_a_pattern)(q):
            go(sub)

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
        """Check ``e`` in ``scope``.  A form that binds, resolves or applies a
        name has an arm, ``_w_<Form>``, which returns True where the node's
        children remain to be walked in ``scope``, as any other form's are."""
        cls = e.__class__
        arm = _ARMS.get(cls)
        if arm is None or arm(self, e, scope):
            for sub in _EXPR_CHILDREN.get(cls, _not_an_expression)(e):
                self.walk(sub, scope)

    def _w_Var(self, e: Var, scope: Scope) -> None:
        self.resolve(scope, e.name, e.span, "variable")

    def _w_Assign(self, e: Assign, scope: Scope) -> None:
        self.walk(e.value, scope)
        entry = self.resolve(scope, e.name, e.span, "assignment")
        if entry is None or entry[0] == "global":
            return
        if entry[0] == "local":
            self.assign_types[id(e)] = entry[1]
        else:
            self.error("not-assignable", e.name, e.span, f"{e.name!r} is a {entry[0]} and cannot be assigned")

    def _w_Cons(self, e: Cons, scope: Scope) -> bool:
        sig = self.constructors.get(e.name)
        self.check_application(e, None if sig is None else sig[1], "constructor", "constructor")
        return True

    def _w_Call(self, e: Call, scope: Scope) -> bool:
        f = self.functions.get(e.name)
        self.check_application(e, None if f is None else f.params, "function", "function")
        return True

    def _w_Block(self, e: Block, scope: Scope) -> None:
        inner = dict(scope)
        seen: set[str] = set()
        for d in e.locals:
            if not isinstance(d, LocalDecl):
                raise TypeError(f"not a local declaration: {d!r}")
            self.check_type(d.type, d.span)
            self.check_distinct(seen, d, "local", "block")
            self.introduce(inner, d.name, "local", d.type, d.span)
        for sub in e.body:
            self.walk(sub, inner)

    def _w_Switch(self, e: Switch | Visit, scope: Scope) -> None:
        self.walk(e.subject, scope)
        for c in e.cases:
            if not isinstance(c, Case):
                raise TypeError(f"not a case: {c!r}")
            inner = dict(scope)
            self.check_pattern(c.pattern, inner)
            self.walked_roots.add(id(c.body))
            self.walk(c.body, inner)

    _w_Visit = _w_Switch

    def _w_For(self, e: For, scope: Scope) -> None:
        g = e.generator
        if not isinstance(g, Generator):
            raise TypeError(f"not a generator: {g!r}")
        self.walk(g.source, scope)
        inner = dict(scope)
        if isinstance(g, Enumerating):
            self.introduce(inner, g.var, "range variable", None, g.span)
        else:
            self.check_pattern(g.pattern, inner)
        self.walk(e.body, inner)

    def _w_Solve(self, e: Solve, scope: Scope) -> bool:
        for x in e.targets:
            self.resolve(scope, x, e.span, "solve target")
        return True

    def _w_TryCatch(self, e: TryCatch, scope: Scope) -> None:
        self.walk(e.body, scope)
        inner = dict(scope)
        self.introduce(inner, e.var, "catch variable", None, e.span)
        self.walk(e.handler, inner)

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
            self.check_application(p, None if sig is None else sig[1], "constructor", "deconstructor", " in pattern")
        elif isinstance(p, TypedPat):
            self.check_type(p.type, p.span)
            entry = scope.get(p.name)
            if entry is not None and entry[0] != "pattern variable":
                message = f"label variable {p.name!r} shadows an enclosing declaration"
                self.error("shadowing", p.name, p.span, message)
            scope[p.name] = ("pattern variable", None)
        for q in _SUBPATTERNS.get(p.__class__, _not_a_pattern)(p):
            self.check_pattern(q, scope)


# The arms of ``_Validator.walk``, by the form they check.
_ARMS = {globals()[name[len("_w_"):]]: fn for name, fn in vars(_Validator).items() if name.startswith("_w_")}


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
