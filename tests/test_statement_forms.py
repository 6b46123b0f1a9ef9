"""The statement forms are one table, ``parser.STATEMENT_FORMS``, that the
parser reads and the renderer prints: the table's shape, and the spans and
errors of parses whose statement bodies are parenthesized."""

import pytest

from rascal_light import fieldtable, parser, syntax as sx
from rascal_light.parser import KEYWORD_FORMS, PREFIX_FORMS, STATEMENT_FORMS, ParseError, parse_expr, tokenize
from rascal_light.render import render

SLOTS = (parser.EXPR, parser.GENERATOR, parser.NAME, parser.NAMES, parser.CASES, parser.STRATEGY)

# The expression forms that start with an operand, an operator, a bracket
# or a name rather than a keyword.
NOT_KEYWORD_LED = {
    sx.Lit, sx.Var, sx.Unary, sx.Binary, sx.Cons, sx.Call, sx.ListExpr,
    sx.SetExpr, sx.MapExpr, sx.Lookup, sx.Update, sx.Assign,
}


def test_each_template_fills_its_node_and_names_one_token_per_string():
    for node, template in STATEMENT_FORMS.items():
        slots = [elem for elem in template if not isinstance(elem, str)]
        assert all(slot in SLOTS for slot in slots), node
        fields = fieldtable.fields(node)
        assert fields[-1] == "span" and len(slots) == len(fields) - 1, node
        for word in (elem for elem in template if isinstance(elem, str)):
            tok, eof = tokenize(word)
            assert tok.kind in ("kw", "punct") and tok.value == word and eof.kind == "eof", word


def test_every_keyword_led_expression_is_in_one_table():
    tables = [set(STATEMENT_FORMS), set(KEYWORD_FORMS.values()), set(PREFIX_FORMS.values()), {sx.Block}, NOT_KEYWORD_LED]
    nodes = [c for c in vars(sx).values() if isinstance(c, type) and issubclass(c, sx.Expr) and c is not sx.Expr]
    for node in nodes:
        assert sum(node in table for table in tables) == 1, node


def test_templates_with_one_first_keyword_part_at_a_keyword():
    # Where templates part, the parser reads the one whose keyword comes next.
    by_start = {}
    for template in STATEMENT_FORMS.values():
        by_start.setdefault(template[0], []).append(template)
    for templates in by_start.values():
        for a, b in zip(templates, templates[1:]):
            i = next(i for i, (x, y) in enumerate(zip(a, b)) if x != y)
            assert isinstance(a[i], str) and isinstance(b[i], str), (a, b)


# A final EXPR ends the span with the sub-term, not its closing parenthesis;
# a case list ends it with its brace.
SPANS = [
    ("while (c) (x)", 12),
    ("if c then a else (b)", 19),
    ("try (a) finally (b)", 18),
    ("try (a) catch e => (e)", 21),
    ("for (x <- [1]) (x)", 17),
    ("solve (a, b) (a)", 15),
    ("switch (1) { }", 14),
    ("top-down visit ((1)) { case x => (x) }", 38),
]


@pytest.mark.parametrize("text, end", SPANS)
def test_statement_spans_and_round_trip(text, end):
    e = parse_expr(text)
    assert (e.span.start, e.span.end) == (0, end)
    assert parse_expr(render(e)) == e


ERRORS = [
    ("try 1 x", "expected 'finally', found 'x'", 6, 7, "finally"),
    ("try 1 catch", "expected 'ident', found end of input", 11, 11, "ident"),
    ("top-down (1) { }", "expected 'visit', found '('", 9, 10, "visit"),
    ("solve () 1", "expected 'ident', found ')'", 7, 8, "ident"),
]


@pytest.mark.parametrize("text, message, start, end, expected", ERRORS)
def test_statement_errors(text, message, start, end, expected):
    with pytest.raises(ParseError) as info:
        parse_expr(text)
    err = info.value
    assert (err.message, err.span.start, err.span.end, err.expected) == (message, start, end, (expected,))
