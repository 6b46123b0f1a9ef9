"""The validator against the implementation it replaced.

``syntax._Validator`` writes each well-formedness check once, and its walk
also finds E-Asgn's declared types for snippets (``snippet_assignables``),
which a separate block-only walker found before.  ``_Validator`` and
``snippet_assignables`` below are that previous code, verbatim, kept as
the reference: error lists must agree in kind, name, span, message and
order, and the E-Asgn tables must agree, over every module the tests
spell, generated modules, and those modules mutated to reach each of the
validator's 18 error sites.

The one change of behaviour: in an unvalidated snippet, a pattern label,
range variable or catch variable that shadows an enclosing block local now
hides it from an assignment, as validation's scoping says.  The tests at
the end pin that, and the host-stack diagnostic the recursive walk gives
on a programmatic snippet nested deeper than the recursion limit.
"""

from __future__ import annotations

import ast
import os
import random
import re
import sys
from typing import Iterator

import pytest

from conftest import PROGRAMS
from rascal_light import fieldtable, harness
from rascal_light import syntax as sx
from rascal_light.harness import GenBudget, _ModuleGen, gen_cases_triple, gen_program
from rascal_light.fieldtable import replace
from rascal_light.interp import Evaluator
from rascal_light.parser import ParseError, parse_expr, parse_module
from rascal_light.render import render
from rascal_light.stackguard import HostStackGuard
from rascal_light.syntax import (
    BUILTIN_DATATYPES,
    Assign,
    Block,
    BreakExpr,
    Call,
    Cons,
    ConsPat,
    ContinueExpr,
    DeepPat,
    Enumerating,
    Expr,
    FailExpr,
    For,
    FunDef,
    Lit,
    ListPat,
    LitPat,
    ModuleDef,
    ModuleInfo,
    NegPat,
    Pattern,
    Scope,
    SetPat,
    Solve,
    Span,
    Star,
    Switch,
    TryCatch,
    TypedPat,
    Type,
    Var,
    VarPat,
    Visit,
    WellFormednessError,
    _type_refs,
    all_datatypes,
    expr_children,
)
from rascal_light.types import INT, DataType
from rascal_light.values import ERROR, TIMEOUT, Store

# ---------------------------------------------------------------------------
# The previous code, verbatim


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


# ---------------------------------------------------------------------------
# The corpus

TESTS = os.path.dirname(__file__)


def spelled_modules() -> list[ModuleDef]:
    """Every string constant in the tests that parses as a module, and the
    example programs."""
    texts = set()
    for name in sorted(os.listdir(TESTS)):
        if name.endswith(".py"):
            with open(os.path.join(TESTS, name), encoding="utf-8") as fh:
                tree = ast.parse(fh.read())
            texts |= {
                n.value for n in ast.walk(tree) if isinstance(n, ast.Constant) and isinstance(n.value, str)
            }
    for name in sorted(os.listdir(PROGRAMS)):
        with open(os.path.join(PROGRAMS, name), encoding="utf-8") as fh:
            texts.add(fh.read())
    out = []
    for text in sorted(texts):
        try:
            out.append(parse_module(text))
        except (ParseError, HostStackGuard):
            pass
    return out


def generated_modules() -> Iterator[ModuleDef]:
    """Generated modules, parsed back from their rendering so their nodes
    carry source spans."""
    for seed in range(500):
        for subset in ("all", "finite"):
            yield parse_module(render(gen_program(GenBudget(max_depth=4, seed=seed), subset)))


def _is_node(x) -> bool:
    return type(x).__module__ == sx.__name__ and type(x) in fieldtable.TABLE and not isinstance(x, Span)


def sites(x, put=lambda new: new):
    """``(node, put)`` for ``x`` and every syntax node below it, where
    ``put(new)`` is the root with that node replaced by ``new``."""
    yield x, put
    for name in fieldtable.fields(type(x)):
        if name != "span":
            yield from _sites_in(getattr(x, name), lambda new, x=x, name=name, put=put: put(replace(x, **{name: new})))


def _sites_in(val, put):
    if isinstance(val, tuple):
        for i, item in enumerate(val):
            yield from _sites_in(item, lambda new, i=i: put(val[:i] + (new,) + val[i + 1 :]))
    elif _is_node(val):
        yield from sites(val, put)


def _z(body: Expr) -> Expr:
    """``body`` in the scope of a block local ``z``."""
    return Block((sx.LocalDecl(INT, "z"),), (body,))


# (name, the nodes it applies to, the mutated node)
NODE_MUTATIONS = (
    ("duplicate field", lambda n: isinstance(n, sx.ConsDef) and n.fields, lambda n: replace(n, fields=n.fields + n.fields[:1])),
    ("duplicate parameter", lambda n: isinstance(n, FunDef) and n.params, lambda n: replace(n, params=n.params + n.params[:1])),
    ("duplicate local", lambda n: isinstance(n, Block) and n.locals, lambda n: replace(n, locals=n.locals + n.locals[:1])),
    ("argument dropped", lambda n: isinstance(n, (Cons, Call, ConsPat)) and n.args, lambda n: replace(n, args=n.args[:-1])),
    ("argument added to a constructor", lambda n: isinstance(n, Cons), lambda n: replace(n, args=n.args + (Lit(0),))),
    ("argument added to a call", lambda n: isinstance(n, Call), lambda n: replace(n, args=n.args + (Lit(0),))),
    ("argument added to a pattern", lambda n: isinstance(n, ConsPat), lambda n: replace(n, args=n.args + (VarPat("w"),))),
    ("undeclared constructor", lambda n: isinstance(n, (Cons, ConsPat)), lambda n: replace(n, name="nocons")),
    ("undeclared function", lambda n: isinstance(n, Call), lambda n: replace(n, name="nofun")),
    ("undeclared variable", lambda n: isinstance(n, (Var, Assign)), lambda n: replace(n, name="novar")),
    ("undeclared solve target", lambda n: isinstance(n, Solve), lambda n: replace(n, targets=("novar",) + n.targets[1:])),
    ("undeclared datatype", lambda n: isinstance(getattr(n, "type", None), Type), lambda n: replace(n, type=DataType("NoType"))),
    ("undeclared return datatype", lambda n: isinstance(n, FunDef), lambda n: replace(n, return_type=DataType("NoType"))),
    ("local shadows a local", lambda n: isinstance(n, Expr), lambda n: _z(_z(n))),
    ("label shadows a local", lambda n: isinstance(n, Expr), lambda n: _z(Switch(Lit(0), (sx.Case(TypedPat(INT, "z", VarPat("w")), n),)))),
    ("range variable shadows a local", lambda n: isinstance(n, Expr), lambda n: _z(For(Enumerating("z", sx.ListExpr(())), n))),
    ("catch variable shadows a local", lambda n: isinstance(n, Expr), lambda n: _z(TryCatch(n, "z", Lit(0)))),
    ("assignment to a catch variable", lambda n: isinstance(n, Expr), lambda n: TryCatch(n, "cv", Assign("cv", Lit(0)))),
)


def mutants(m: ModuleDef, rng: random.Random) -> Iterator[ModuleDef]:
    """``m`` with one mutation of each kind that applies, at a random node."""
    names = [d.name for d in m.datatypes + m.globals + m.functions]
    if names:
        yield replace(m, globals=m.globals + (sx.GlobalDef(rng.choice(names), INT, Lit(0)),))
    if m.globals:
        shadowed = [f for f in m.functions if f.params]
        if shadowed:
            f = rng.choice(shadowed)
            p = replace(f.params[0], name=rng.choice(m.globals).name)
            i = m.functions.index(f)
            yield replace(m, functions=m.functions[:i] + (replace(f, params=(p,) + f.params[1:]),) + m.functions[i + 1 :])
    everywhere = list(sites(m))
    for _, applies, mutate in NODE_MUTATIONS:
        candidates = [(n, put) for n, put in everywhere if applies(n)]
        if candidates:
            n, put = rng.choice(candidates)
            yield put(mutate(n))


# The validator's error sites: (kind, message pattern).
ERROR_SITES = (
    ("duplicate-name", r".* '.*' collides with .* of the same name$"),
    ("duplicate-name", r"duplicate field '.*' in constructor '.*'$"),
    ("duplicate-name", r"duplicate parameter '.*' in function '.*'$"),
    ("duplicate-name", r"duplicate local '.*' in block$"),
    ("undefined-datatype", r"undefined datatype '.*'$"),
    ("shadowing", r"parameter '.*' shadows an enclosing declaration$"),
    ("shadowing", r"(local|range variable|catch variable) '.*' shadows an enclosing binding$"),
    ("shadowing", r"label variable '.*' shadows an enclosing declaration$"),
    ("undefined-variable", r"variable '.*' does not resolve to any declaration$"),
    ("undefined-variable", r"assignment to undeclared variable '.*'$"),
    ("undefined-variable", r"solve target '.*' does not resolve to any declaration$"),
    ("not-assignable", r"'.*' is a .* and cannot be assigned$"),
    ("undefined-constructor", r"undefined constructor '[^']*'$"),
    ("undefined-constructor", r"undefined constructor '.*' in pattern$"),
    ("undefined-function", r"undefined function '.*'$"),
    ("arity-mismatch", r"constructor '.*' expects \d+ arguments, given \d+$"),
    ("arity-mismatch", r"deconstructor '.*' expects \d+ arguments, given \d+$"),
    ("arity-mismatch", r"function '.*' expects \d+ arguments, given \d+$"),
)


def error_site(err: WellFormednessError) -> int:
    (site,) = [i for i, (kind, pattern) in enumerate(ERROR_SITES) if err.kind == kind and re.match(pattern, err.message)]
    return site


def _roots(m: ModuleDef) -> list[Expr]:
    return [f.body for f in m.functions] + [g.init for g in m.globals]


def _assert_same_tables(info, roots) -> None:
    for r in roots:
        assert sx.snippet_assignables(info, r) == snippet_assignables(r), render(r)
    assert sx.snippet_assignables(info, *roots) == snippet_assignables(*roots)


# ---------------------------------------------------------------------------
# The differential tests


def test_the_corpus_reaches_every_error_site():
    reached = set()
    rng = random.Random(0)
    for m in generated_modules():
        for bad in mutants(m, rng):
            reached |= {error_site(e) for e in sx.validate_module(bad)}
    assert reached == set(range(len(ERROR_SITES)))


def test_analysis_agrees_with_the_previous_validator():
    rng = random.Random(0)
    checked = 0
    for m in spelled_modules() + list(generated_modules()):
        for case in (m, *mutants(m, rng)):
            info = sx.analyze_module(case)
            assert info == _Validator(case).run(), render(case)
            _assert_same_tables(info, _roots(case))
            checked += 1
    assert checked > 15_000


def test_case_bodies_get_the_previous_tables():
    rng = random.Random(3)
    gen = _ModuleGen(rng, GenBudget(seed=3), finite=False)
    gen.build_datatypes()
    info = sx.analyze_module(ModuleDef(datatypes=tuple(gen.datatypes)))
    for _ in range(2000):
        cases, _, _ = gen_cases_triple(rng, gen)
        _assert_same_tables(info, [c.body for c in cases])
    _assert_same_tables(sx.analyze_module(ModuleDef()), list(harness._ADVERSARIAL_SNIPPETS))


# ---------------------------------------------------------------------------
# What changed


@pytest.mark.parametrize(
    "binder",
    ["switch (1) { case int z : 1 => z = 2 }", "for (z <- [1]) z = 2", "try throw 1 catch z => z = 2"],
    ids=["label", "range variable", "catch variable"],
)
def test_an_inner_binder_hides_an_enclosing_local_from_an_assignment(binder):
    e = parse_expr(f"local int z in {binder} end")
    (assign,) = [x for x in sx.walk_exprs(e) if isinstance(x, Assign)]
    # The previous block-only walk gave the assignment the local's type.
    assert snippet_assignables(e) == {id(assign): INT}
    assert sx.snippet_assignables(sx.analyze_module(ModuleDef()), e) == {}
    fired = []
    res, _ = Evaluator(ModuleDef(), trace=fired.append).evaluate(e, Store())
    assert res == ERROR
    assert [t.rule for t in fired if t.span == assign.span] == ["stuck"]


def test_a_snippet_deeper_than_the_walk_allows_is_a_host_stack_diagnostic():
    e = Lit(1)
    for _ in range(5000):
        e = sx.Unary("-", e)
    ev = Evaluator(ModuleDef())
    # The previous walk was iterative: fuel 1 timed out at any limit.
    assert snippet_assignables(e) == {}
    assert ev.evaluate(e, Store(), fuel=1) == (TIMEOUT, Store())
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        with pytest.raises(HostStackGuard):
            ev.evaluate(e, Store(), fuel=1)
    finally:
        sys.setrecursionlimit(limit)
