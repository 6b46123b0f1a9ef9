"""Canonical text rendering of modules, expressions, patterns and values.

Rendering is deterministic and reparses to a structurally equal tree: it
prints from the parser's tables, each statement form by its template, and
parenthesizes by the parser's precedence ladder.  Collection values print in
canonical order, and only blocks and case lists take several lines.
"""

from __future__ import annotations

from . import syntax as sx
from .fieldtable import fields
from .parser import BINARY_LEVEL, BINARY_LEVELS, KEYWORD_FORMS, PREFIX_FORMS
from .parser import CASES, EXPR, GENERATOR, NAME, NAMES, STATEMENT_FORMS, STRATEGY
from .parser import EXPR_COLLECTIONS, PATTERN_COLLECTIONS
from .types import Type, render_type
from .values import CLOSERS, Value, basic_text, render_value

_IND = "  "

# Precedence ladder: the parser's binary levels (1 loosest), then unary,
# postfix and atoms; statement-shaped forms always parenthesize when they
# appear as operands.
_STMT = 0
_OR = BINARY_LEVEL["||"]
_UNARY = len(BINARY_LEVELS) + 1
_POSTFIX, _ATOM = _UNARY + 1, _UNARY + 2

# The parser's tables read backwards: each node class to its text.
_KEYWORDS = {node: kw for kw, node in KEYWORD_FORMS.items()}
_PREFIXES = {node: kw + " " for kw, node in PREFIX_FORMS.items()}
_BRACKETS = {
    node: (opener, CLOSERS[opener])
    for table in (EXPR_COLLECTIONS, PATTERN_COLLECTIONS)
    for opener, node in table.items()
}


def _prec(e: sx.Expr) -> int:
    if isinstance(e, sx.Binary):
        return BINARY_LEVEL[e.op]
    if isinstance(e, sx.Unary):
        return _UNARY
    if isinstance(e, (sx.Lookup, sx.Update)):
        return _POSTFIX
    if isinstance(
        e, (sx.Lit, sx.Var, sx.Cons, sx.Call, sx.ListExpr, sx.SetExpr, sx.MapExpr)
    ):
        return _ATOM
    return _STMT


def render_pattern(p: sx.Pattern) -> str:
    if isinstance(p, sx.LitPat):
        return basic_text(p.value)
    if isinstance(p, sx.VarPat):
        return p.name
    if isinstance(p, sx.ConsPat):
        return p.name + "(" + ", ".join([render_pattern(a) for a in p.args]) + ")"
    if isinstance(p, sx.TypedPat):
        return f"{render_type(p.type)} {p.name} : {render_pattern(p.pattern)}"
    if isinstance(p, sx.Star):
        return "*" + p.name
    if type(p) in _BRACKETS:
        opener, closer = _BRACKETS[type(p)]
        return opener + ", ".join([render_pattern(a) for a in p.elements]) + closer
    if isinstance(p, sx.NegPat):
        return "!" + render_pattern(p.pattern)
    if isinstance(p, sx.DeepPat):
        inner = render_pattern(p.pattern)
        # A nested descendant would otherwise collide with '//' comments.
        sep = " " if inner.startswith("/") else ""
        return "/" + sep + inner
    raise TypeError(f"not a pattern: {p!r}")


def _render_cases(cases: tuple[sx.Case, ...], indent: int) -> str:
    if not cases:
        return "{ }"
    lines = ["{"]
    for c in cases:
        body = render_expr(c.body, _STMT, indent + 1)
        lines.append(f"{_IND * (indent + 1)}case {render_pattern(c.pattern)} => {body}")
    lines.append(_IND * indent + "}")
    return "\n".join(lines)


def _render_generator(g: sx.Generator, indent: int) -> str:
    source = render_expr(g.source, _STMT, indent)
    if isinstance(g, sx.Enumerating):
        return f"{g.var} <- {source}"
    return f"{render_pattern(g.pattern)} := {source}"


# How each slot of a statement template prints the field it fills.
_SLOT_PRINTERS = {
    EXPR: lambda e, indent: render_expr(e, _STMT, indent),
    GENERATOR: _render_generator,
    NAME: lambda name, indent: name,
    NAMES: lambda names, indent: ", ".join(names),
    CASES: _render_cases,
    STRATEGY: lambda strategy, indent: strategy.value,
}

# Each statement form's fields, in the order its template's slots fill them.
_FORM_FIELDS = {node: [name for name in fields(node) if name != "span"] for node in STATEMENT_FORMS}


def _render_form(e: sx.Expr, indent: int) -> str:
    """``e`` by its template: elements one space apart, none after ``(`` or before ``)``."""
    names = iter(_FORM_FIELDS[type(e)])
    text = prev = ""
    for elem in STATEMENT_FORMS[type(e)]:
        word = elem if isinstance(elem, str) else _SLOT_PRINTERS[elem](getattr(e, next(names)), indent)
        text += word if prev in ("", "(") or elem == ")" else " " + word
        prev = elem
    return text


def render_expr(e: sx.Expr, min_prec: int = _STMT, indent: int = 0) -> str:
    text = _render_expr(e, indent)
    if _prec(e) < min_prec:
        return "(" + text + ")"
    return text


def _render_expr(e: sx.Expr, indent: int) -> str:
    if isinstance(e, sx.Lit):
        return basic_text(e.value)
    if isinstance(e, sx.Var):
        return e.name
    if isinstance(e, sx.Unary):
        return e.op + render_expr(e.operand, _UNARY, indent)
    if isinstance(e, sx.Binary):
        lvl = BINARY_LEVEL[e.op]
        left = render_expr(e.left, lvl, indent)
        right = render_expr(e.right, lvl + 1, indent)
        return f"{left} {e.op} {right}"
    if isinstance(e, (sx.Cons, sx.Call)):
        args = ", ".join([render_expr(a, _STMT, indent) for a in e.args])
        return f"{e.name}({args})"
    if type(e) in _BRACKETS:
        opener, closer = _BRACKETS[type(e)]
        return opener + ", ".join([render_expr(a, _STMT, indent) for a in e.items]) + closer
    if isinstance(e, sx.MapExpr):
        inner = ", ".join([
            f"{render_expr(k, _STMT, indent)} : {render_expr(v, _STMT, indent)}"
            for k, v in e.pairs
        ])
        return "(" + inner + ")"
    if isinstance(e, sx.Lookup):
        return (
            render_expr(e.map, _POSTFIX, indent)
            + "["
            + render_expr(e.key, _OR, indent)
            + "]"
        )
    if isinstance(e, sx.Update):
        return (
            render_expr(e.map, _POSTFIX, indent)
            + "["
            + render_expr(e.key, _OR, indent)
            + " = "
            + render_expr(e.value, _OR, indent)
            + "]"
        )
    if type(e) in _PREFIXES:
        return _PREFIXES[type(e)] + render_expr(e.value, _STMT, indent)
    if isinstance(e, sx.Assign):
        return f"{e.name} = " + render_expr(e.value, _STMT, indent)
    if type(e) in STATEMENT_FORMS:
        return _render_form(e, indent)
    if type(e) in _KEYWORDS:
        return _KEYWORDS[type(e)]
    if isinstance(e, sx.Block):
        head = "local"
        if e.locals:
            decls = ", ".join(f"{render_type(d.type)} {d.name}" for d in e.locals)
            head += " " + decls
        head += " in"
        lines = [head]
        for i, sub in enumerate(e.body):
            sep = ";" if i + 1 < len(e.body) else ""
            lines.append(_IND * (indent + 1) + render_expr(sub, _STMT, indent + 1) + sep)
        lines.append(_IND * indent + "end")
        return "\n".join(lines)
    raise TypeError(f"not an expression: {e!r}")


def render_module(m: sx.ModuleDef) -> str:
    parts: list[str] = []
    for dd in m.datatypes:
        cons = " | ".join(
            cd.name
            + "("
            + ", ".join(f"{render_type(f.type)} {f.name}" for f in cd.fields)
            + ")"
            for cd in dd.constructors
        )
        parts.append(f"data {dd.name} = {cons};")
    for g in m.globals:
        parts.append(
            f"global {render_type(g.type)} {g.name} = "
            + render_expr(g.init, _STMT, 0)
            + ";"
        )
    for f in m.functions:
        params = ", ".join(f"{render_type(p.type)} {p.name}" for p in f.params)
        body = render_expr(f.body, _STMT, 1)
        parts.append(f"{render_type(f.return_type)} {f.name}({params}) =\n{_IND}{body};")
    return "\n\n".join(parts) + ("\n" if parts else "")


def render(x) -> str:
    """Render a module, expression, pattern, type, or value to source text."""
    if isinstance(x, sx.ModuleDef):
        return render_module(x)
    if isinstance(x, sx.Expr):
        return render_expr(x)
    if isinstance(x, sx.Pattern):
        return render_pattern(x)
    if isinstance(x, Type):
        return render_type(x)
    if isinstance(x, Value):
        return render_value(x)
    raise TypeError(f"cannot render {x!r}")
