import glob
import os

import pytest

from rascal_light import fieldtable, syntax as sx
from rascal_light.harness import GenBudget, gen_program
from rascal_light.parser import (
    ParseError,
    Parser,
    SourceFile,
    load_module,
    parse_expr,
    parse_module,
    parse_value,
)
from rascal_light.render import render, render_expr
from rascal_light.syntax import (
    Assign,
    Binary,
    Block,
    Call,
    Case,
    Cons,
    Enumerating,
    Expr,
    For,
    If,
    ListExpr,
    Lookup,
    MapExpr,
    Matching,
    ReturnExpr,
    SetExpr,
    Solve,
    Strategy,
    Switch,
    ThrowExpr,
    TryCatch,
    TryFinally,
    Unary,
    Update,
    Visit,
    While,
    validate_module,
    walk_exprs,
)
from rascal_light.patterns import match
from rascal_light.values import Basic, Store, UNDEF, VList, VSet

from conftest import PROGRAMS


ALL_PROGRAMS = sorted(glob.glob(os.path.join(PROGRAMS, "*.rsl")))
BENCH_PROGRAMS = sorted(
    glob.glob(os.path.join(os.path.dirname(__file__), os.pardir, "bench", "rsl", "*.rsl"))
)


def test_programs_exist():
    names = {os.path.basename(p) for p in ALL_PROGRAMS}
    assert {"simplifier.rsl", "fixpoint.rsl", "knapsack.rsl", "prod.rsl", "infincrement.rsl"} <= names


@pytest.mark.parametrize("path", ALL_PROGRAMS, ids=os.path.basename)
def test_example_programs_roundtrip(path):
    m = load_module(path)
    assert validate_module(m) == []
    again = parse_module(render(m))
    assert again == m


def test_simplifier_shape(simplifier_module):
    (fn,) = simplifier_module.functions
    visit = fn.body
    assert isinstance(visit, sx.Visit)
    assert visit.strategy == Strategy.BOTTOM_UP
    assert len(visit.cases) == 2


def test_knapsack_has_two_star_set_pattern(knapsack_module):
    pats = [
        c.pattern
        for f in knapsack_module.functions
        for e in walk_exprs(f.body)
        if isinstance(e, sx.Switch)
        for c in e.cases
    ]
    (setpat,) = [p for p in pats if isinstance(p, sx.SetPat)]
    assert sum(isinstance(el, sx.Star) for el in setpat.elements) == 2


def test_parse_error_has_span():
    with pytest.raises(ParseError) as exc:
        parse_module("data D = k(;")
    assert exc.value.span.start == 11  # at the ';'


def test_parse_error_cases():
    for bad in (
        "int f() = ;",
        "data D = ;",
        "int f() = local int x in x",  # missing end
        'global int g = "unterminated;',
        "int f() = 1 +;",
    ):
        with pytest.raises(ParseError):
            parse_module(bad)


@pytest.mark.parametrize(
    "parse, text, message",
    [
        (parse_expr, "(1", "expected ')', found end of input"),
        (parse_module, "global ", "expected a type, found end of input"),
        (parse_expr, "1 +", "expected an expression, found end of input"),
        (parse_expr, "switch (1) { case ", "expected a pattern, found end of input"),
        (parse_value, "[1, ", "expected a value literal, found end of input"),
        (parse_expr, "1 + ;", "expected an expression, found ';'"),
        (parse_value, "[1, ;]", "expected a value literal, found ';'"),
        (parse_module, "int f() { 1 2 }", "expected ';' or '}' in function body"),
    ],
)
def test_parse_errors_name_the_token_found(parse, text, message):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert exc.value.message == message


def test_expression_grammar_corners():
    # Empty map vs grouping vs map literal.
    assert isinstance(parse_expr("()"), sx.MapExpr)
    assert isinstance(parse_expr("(1)"), sx.Lit)
    assert isinstance(parse_expr("(1 : 2)"), sx.MapExpr)
    # Lookup of an assignment needs parentheses; bare = is an update.
    upd = parse_expr("(1 : 2)[3 = 4]")
    assert isinstance(upd, sx.Update)
    # Enumeration arrow must be adjacent; spaced '<' '-' is a comparison.
    e = parse_expr("for (z <- [1]) z")
    assert isinstance(e.generator, sx.Enumerating)
    cmp = parse_expr("1 < - 2")
    assert isinstance(cmp, sx.Binary) and cmp.op == "<"
    # Strategy keywords lex greedily only when hyphenated adjacently.
    v = parse_expr("top-down-break visit (1) { }")
    assert isinstance(v, sx.Visit) and v.strategy == Strategy.TOP_DOWN_BREAK
    sub = parse_expr("top - down", None)  # plain subtraction of variables
    assert isinstance(sub, sx.Binary) and sub.op == "-"


def test_case_colon_separator_accepted():
    a = parse_expr("switch (1) { case 1 : 2 }")
    b = parse_expr("switch (1) { case 1 => 2 }")
    assert a == b


def test_function_brace_sugar_desugars_to_block():
    m = parse_module("int f() { int x = 1; x + 1 }")
    body = m.functions[0].body
    assert isinstance(body, sx.Block)
    assert [d.name for d in body.locals] == ["x"]
    assert isinstance(body.body[0], sx.Assign)
    assert validate_module(m) == []
    # A `;` after the closing brace is allowed.
    assert parse_module("int f() { int x = 1; x + 1 };") == m


@pytest.mark.parametrize(
    "text, pattern, value, envs",
    [
        ("-3", sx.LitPat(-3), Basic(-3), [{}]),
        ("-3", sx.LitPat(-3), Basic(3), []),
        ("[-2, *r]", sx.ListPat((sx.LitPat(-2), sx.Star("r"))), VList((Basic(-2), Basic(5))), [{"r": VList((Basic(5),))}]),
    ],
)
def test_negative_literal_patterns(text, pattern, value, envs):
    e = parse_expr(f"switch (0) {{ case {text} => 1 }}")
    assert e.cases[0].pattern == pattern
    assert render(pattern) == text
    assert parse_expr(render(e)) == e
    assert [dict(env) for env in match(pattern, value, Store(), {})] == envs


def test_nested_generics_parse():
    m = parse_module("int f(set<list<int>> x, map<int, set<str>> y) = 1;")
    assert validate_module(m) == []


def test_constructor_call_resolution():
    m = parse_module("data D = mk(int a);\nint f() = local in mk(1); g() end;\nint g() = 1;")
    exprs = list(walk_exprs(m.functions[0].body))
    assert any(isinstance(e, sx.Cons) and e.name == "mk" for e in exprs)
    assert any(isinstance(e, sx.Call) and e.name == "g" for e in exprs)


def test_value_literals_roundtrip():
    texts = [
        "42",
        "-7",
        '"a\\"b\\n"',
        "true()",
        "item(2, 100)",
        "[1, 2, 3]",
        "{1, 2}",
        "(1 : 2, 3 : 4)",
        "<undefined>",
        "[{1}, (2 : [3])]",
    ]
    for t in texts:
        v = parse_value(t)
        assert parse_value(render(v)) == v
    assert parse_value("<undefined>") == UNDEF
    assert parse_value("{2, 1, 2}") == VSet((Basic(1), Basic(2)))


def test_integers_past_the_digit_limit_render_but_do_not_parse_back():
    # The tokenizer keeps the host's limit on str-to-int conversion, which
    # guards against quadratic time; the printers are exact past it.
    n = 7 * 10**6999 + 12345
    digits = "7" + "0" * 6994 + "12345"
    for x in (Basic(n), sx.Lit(n), sx.LitPat(n)):
        assert render(x) == digits
    assert render(sx.Unary("-", sx.Lit(n))) == render(Basic(-n)) == "-" + digits
    for text in (digits, f"[1, {digits}]"):
        with pytest.raises(ParseError, match="^malformed or overlong integer literal$") as info:
            parse_value(text)
        start = text.index(digits)
        assert info.value.span == sx.Span(start, start + 7000)


def test_render_parenthesizes_statement_operands():
    e = sx.Binary(sx.BreakExpr(), "+", sx.Lit(1))
    text = render_expr(e)
    assert text == "(break) + 1"
    assert parse_expr(text) == e


def test_unary_in_comparison_renders_spaced():
    e = sx.Binary(sx.Var("x"), "<", sx.Unary("-", sx.Var("y")))
    text = render_expr(e)
    again = parse_expr(text)
    assert again == e


def test_generated_module_roundtrip_small():
    for seed in range(120):
        m = gen_program(GenBudget(max_depth=4, seed=seed))
        text = render(m)
        again = parse_module(text)
        assert again == m, f"seed {seed}:\n{text}"


def test_span_soundness_on_example_programs():
    for path in ALL_PROGRAMS:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        m = parse_module(text)
        for f in m.functions:
            for e in walk_exprs(f.body):
                snippet = text[e.span.start : e.span.end]
                again = parse_expr(snippet, m)
                assert again == e, (path, snippet)


def test_source_file_line_col():
    src = SourceFile("f.rsl", "ab\ncd\ne")
    assert src.line_col(0) == (1, 1)
    assert src.line_col(3) == (2, 1)
    assert src.line_col(6) == (3, 1)
    assert src.format_span(sx.Span(3, 4)) == "f.rsl:2:1"


def test_crlf_accepted():
    m = parse_module("int f() =\r\n  1;\r\n")
    assert validate_module(m) == []


def test_comments_ignored():
    m = parse_module("// top comment\nint f() = 1; // trailing\n")
    assert m.functions[0].name == "f"


# -- constructor resolution: differential against the post-parse rewrite -----
#
# The reference is the parser as it was before it resolved constructor
# names itself: every ``name(args)`` parsed as a Call, then the whole tree
# rebuilt by `transform_exprs`, renaming the Calls whose name is a declared
# constructor.  The three functions below are that code, verbatim but for
# calling the copy of `transform_exprs` here and the Call-only parser.


def transform_exprs(e: Expr, fn) -> Expr:
    """Rebuild an expression bottom-up, applying ``fn`` to every node."""

    def go(x: Expr) -> Expr:
        if isinstance(x, Unary):
            x = Unary(x.op, go(x.operand), x.span)
        elif isinstance(x, Binary):
            x = Binary(go(x.left), x.op, go(x.right), x.span)
        elif isinstance(x, Cons):
            x = Cons(x.name, tuple(go(a) for a in x.args), x.span)
        elif isinstance(x, Call):
            x = Call(x.name, tuple(go(a) for a in x.args), x.span)
        elif isinstance(x, ListExpr):
            x = ListExpr(tuple(go(a) for a in x.items), x.span)
        elif isinstance(x, SetExpr):
            x = SetExpr(tuple(go(a) for a in x.items), x.span)
        elif isinstance(x, MapExpr):
            x = MapExpr(tuple((go(k), go(v)) for k, v in x.pairs), x.span)
        elif isinstance(x, Lookup):
            x = Lookup(go(x.map), go(x.key), x.span)
        elif isinstance(x, Update):
            x = Update(go(x.map), go(x.key), go(x.value), x.span)
        elif isinstance(x, ReturnExpr):
            x = ReturnExpr(go(x.value), x.span)
        elif isinstance(x, ThrowExpr):
            x = ThrowExpr(go(x.value), x.span)
        elif isinstance(x, Assign):
            x = Assign(x.name, go(x.value), x.span)
        elif isinstance(x, If):
            x = If(go(x.cond), go(x.then), go(x.els), x.span)
        elif isinstance(x, Switch):
            x = Switch(
                go(x.subject),
                tuple(Case(c.pattern, go(c.body), c.span) for c in x.cases),
                x.span,
            )
        elif isinstance(x, Visit):
            x = Visit(
                x.strategy,
                go(x.subject),
                tuple(Case(c.pattern, go(c.body), c.span) for c in x.cases),
                x.span,
            )
        elif isinstance(x, Block):
            x = Block(x.locals, tuple(go(a) for a in x.body), x.span)
        elif isinstance(x, For):
            g = x.generator
            if isinstance(g, Enumerating):
                g = Enumerating(g.var, go(g.source), g.span)
            else:
                g = Matching(g.pattern, go(g.source), g.span)
            x = For(g, go(x.body), x.span)
        elif isinstance(x, While):
            x = While(go(x.cond), go(x.body), x.span)
        elif isinstance(x, Solve):
            x = Solve(x.targets, go(x.body), x.span)
        elif isinstance(x, TryCatch):
            x = TryCatch(go(x.body), x.var, go(x.handler), x.span)
        elif isinstance(x, TryFinally):
            x = TryFinally(go(x.body), go(x.fin), x.span)
        return fn(x)

    return go(e)


def _resolve_constructors(module: sx.ModuleDef) -> sx.ModuleDef:
    """Rewrite ``name(args)`` applications whose name is a declared
    constructor into constructor expressions."""
    consnames = set(sx.constructor_table(module))

    def fix(e: sx.Expr) -> sx.Expr:
        if isinstance(e, sx.Call) and e.name in consnames:
            return sx.Cons(e.name, e.args, e.span)
        return e

    def fix_expr(e: sx.Expr) -> sx.Expr:
        return transform_exprs(e, fix)

    return sx.ModuleDef(
        tuple(
            sx.GlobalDef(g.name, g.type, fix_expr(g.init), g.span)
            for g in module.globals
        ),
        tuple(
            sx.FunDef(f.name, f.return_type, f.params, fix_expr(f.body), f.span)
            for f in module.functions
        ),
        module.datatypes,
    )


def _old_parse_expr(text: str, module: sx.ModuleDef | None = None) -> sx.Expr:
    """Parse a standalone expression, resolving constructor names against
    the given module's declarations."""
    p = _CallOnlyParser(SourceFile("<expr>", text))
    e = p.parse_expr()
    if not p.at("eof"):
        raise p.error(f"trailing input after expression: {p.peek().value!r}")
    consnames = set(sx.constructor_table(module if module is not None else sx.ModuleDef()))

    def fix(x: sx.Expr) -> sx.Expr:
        if isinstance(x, sx.Call) and x.name in consnames:
            return sx.Cons(x.name, x.args, x.span)
        return x

    return transform_exprs(e, fix)


class _CallOnlyParser(Parser):
    """Builds every ``name(args)`` application as a Call."""

    def parse_primary(self) -> Expr:
        e = super().parse_primary()
        return Call(e.name, e.args, e.span) if isinstance(e, Cons) else e


def _old_parse_module(text: str) -> sx.ModuleDef:
    return _resolve_constructors(_CallOnlyParser(SourceFile("<string>", text)).parse_module())


def _with_spans(x):
    """A syntax tree as nested tuples that keep each node's class and span,
    which the nodes' own equality ignores."""
    if type(x) in fieldtable.TABLE:
        return (type(x).__name__,) + tuple(_with_spans(getattr(x, name)) for name in fieldtable.fields(type(x)))
    if isinstance(x, tuple):
        return tuple(_with_spans(y) for y in x)
    return x


def _same_tree(new, old) -> bool:
    return new == old and _with_spans(new) == _with_spans(old)


USE_BEFORE_DECLARATION = (
    "Shape f() = circle(g(square(2)));\n"
    "int g(Shape s) = 1;\n"
    "global Shape h = square(size(true()));\n"
    "data Shape = circle(int r) | square(int side) | size(Bool b);\n"
    "Bool t() = if false() then true() else false();\n"
    "int n() = throw nokey(1);\n"
)


def _module_texts():
    for path in ALL_PROGRAMS + BENCH_PROGRAMS:
        with open(path, encoding="utf-8") as fh:
            yield path, fh.read()
    yield "use-before-declaration", USE_BEFORE_DECLARATION
    for seed in range(1500):
        yield f"seed {seed}", render(gen_program(GenBudget(max_depth=4, seed=seed)))


def test_constructor_resolution_matches_post_parse_rewrite():
    assert len(ALL_PROGRAMS) >= 5 and len(BENCH_PROGRAMS) >= 3
    multi = 0
    for label, text in _module_texts():
        new = parse_module(text)
        assert _same_tree(new, _old_parse_module(text)), label
        multi += any(len(dd.constructors) > 1 for dd in new.datatypes)
    assert multi > 1000  # most inputs declare a datatype with several constructors


def test_constructor_resolution_in_expressions():
    module = parse_module(USE_BEFORE_DECLARATION)
    texts = [
        "true()",
        "false()",
        "nokey(1)",
        "circle(1)",
        "g(square(2), size(true()))",
        "[nokey(false()), (circle(1) : {f()})][0]",
        "switch (circle(1)) { case circle(r) => square(r) }",
    ]
    for text in texts:
        for m in (None, module):
            assert _same_tree(parse_expr(text, m), _old_parse_expr(text, m)), (text, m)
    for path in ALL_PROGRAMS:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        m = parse_module(text)
        for f in m.functions:
            for e in walk_exprs(f.body):
                snippet = text[e.span.start : e.span.end]
                for scope in (None, m):
                    new = parse_expr(snippet, scope)
                    assert _same_tree(new, _old_parse_expr(snippet, scope)), (path, snippet)


DEEP_PARENS = "(" * 3000 + "1" + ")" * 3000


def _write_deep_module(tmp_path):
    path = tmp_path / "deep.rsl"
    path.write_text(f"int f() = {DEEP_PARENS};", encoding="utf-8")
    return str(path)


@pytest.mark.parametrize(
    "entry",
    [
        lambda tmp_path: parse_module(f"int f() = {DEEP_PARENS};"),
        lambda tmp_path: parse_expr(DEEP_PARENS),
        lambda tmp_path: parse_value("[" * 3000 + "]" * 3000),
        lambda tmp_path: load_module(_write_deep_module(tmp_path)),
    ],
    ids=["parse_module", "parse_expr", "parse_value", "load_module"],
)
def test_entry_points_report_stack_exhaustion_as_the_host_stack_guard(tmp_path, entry):
    # At Python's default recursion limit, on the calling thread.
    import sys

    from rascal_light.fuel import HostStackGuard

    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        with pytest.raises(HostStackGuard, match="^host stack exhausted$"):
            entry(tmp_path)
    finally:
        sys.setrecursionlimit(limit)
