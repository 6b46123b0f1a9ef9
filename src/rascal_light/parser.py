"""Concrete syntax: tokenizer, recursive-descent parser, and module loading.

The surface grammar is this project's own; its tables, the statement
templates of ``STATEMENT_FORMS`` among them, are the renderer's too.  Files use
the ``.rsl`` extension, UTF-8, LF or CRLF line endings, and ``//`` comments.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable

from . import syntax as sx
from .stackguard import stack_guarded
from .syntax import Span
from .types import TYPE_WORDS, DataType, MapType, Type
from .values import CLOSERS, ESCAPES, VALUE_COLLECTIONS, Basic, UNDEF, Value, VCons, VMap


@dataclass
class SourceFile:
    path: str
    text: str

    def line_col(self, offset: int) -> tuple[int, int]:
        """The line and column of ``offset``, both from 1.  They are
        counted when a diagnostic asks, so a parse that succeeds pays
        nothing for them."""
        line_start = self.text.rfind("\n", 0, offset) + 1
        return self.text.count("\n", 0, offset) + 1, offset - line_start + 1

    def format_span(self, span: Span) -> str:
        l1, c1 = self.line_col(span.start)
        return f"{self.path}:{l1}:{c1}"


class ParseError(Exception):
    def __init__(self, message: str, span: Span, expected: tuple[str, ...] = ()):
        super().__init__(message)
        self.message = message
        self.span = span
        self.expected = expected


STRATEGIES = {s.value: s for s in sx.Strategy}

# Hyphenated strategy names, longest first, for the tokenizer's greedy match.
_HYPHENATED = sorted((name for name in STRATEGIES if "-" in name), key=len, reverse=True)

KEYWORDS = {
    "fail", "break", "continue", "return", "throw", "try", "catch", "finally",
    "switch", "visit", "solve", "for", "while", "if", "then", "else",
    "local", "in", "end", "data", "global", "value", "void", "case",
    *STRATEGIES,
}

# Binary operators by precedence level, loosest first; every level is
# left-associative.  Unary operators bind tighter, postfix lookups and
# updates tighter still.  The renderer parenthesizes by the same levels.
BINARY_LEVELS = (
    ("||",),
    ("&&",),
    ("==", "!=", "<", "<=", ">", ">=", "in"),
    ("+", "-"),
    ("*", "/", "%"),
)

# Each binary operator's level, 1 for the loosest.
BINARY_LEVEL = {op: level for level, ops in enumerate(BINARY_LEVELS, 1) for op in ops}

# Keyword forms: a keyword alone, and a keyword before an expression.
KEYWORD_FORMS = {"break": sx.BreakExpr, "continue": sx.ContinueExpr, "fail": sx.FailExpr}
PREFIX_FORMS = {"return": sx.ReturnExpr, "throw": sx.ThrowExpr}

# What the expression and pattern grammars build from the items between
# collection brackets (``values.CLOSERS``), as ``values.VALUE_COLLECTIONS``
# does for values.
EXPR_COLLECTIONS = {"[": sx.ListExpr, "{": sx.SetExpr}
PATTERN_COLLECTIONS = {"[": sx.ListPat, "{": sx.SetPat}

# The tokens that are literals: an integer or a string.
_LITERALS = ("int", "str")

_PUNCT2 = ("==", "!=", "<=", ">=", "&&", "||", ":=", "=>")
_PUNCT1 = "+-*/%<>=!()[]{},;:|"

# The letter after a backslash -> the character it stands for.
_UNESCAPES = {esc[1]: ch for ch, esc in ESCAPES.items()}


@dataclass(slots=True, unsafe_hash=True)
class Token:
    kind: str  # int | str | ident | kw | punct | eof
    value: object
    start: int
    end: int

    @property
    def span(self) -> Span:
        return Span(self.start, self.end)

    def describe(self) -> str:
        """The token as a diagnostic names it."""
        return "end of input" if self.kind == "eof" else repr(self.value)


# A string literal up to its closing quote or its first fault: characters
# other than a quote, a backslash or a line end, and escapes.
_STRING_PREFIX = r'"[^"\\\n]*(?:\\[' + re.escape("".join(_UNESCAPES)) + r'][^"\\\n]*)*'
_match_string_prefix = re.compile(_STRING_PREFIX).match
_UNESCAPE = re.compile(r"\\(.)")

# The ASCII-delimited tokens: whitespace and comments, integers, words
# (hyphenated strategy names first, so they are taken whole), punctuation,
# two characters before one, and string literals.
_TOKEN = re.compile(
    r"(?P<skip>(?:[ \t\r\n]|//[^\n]*)+)"
    r"|(?P<int>[0-9]+)"
    r"|(?P<word>" + "|".join(map(re.escape, _HYPHENATED)) + r"|[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<punct>" + "|".join(map(re.escape, _PUNCT2)) + "|[" + re.escape(_PUNCT1) + "])"
    r'|(?P<str>' + _STRING_PREFIX + r'")'
)


def _unescape(body: str) -> str:
    return _UNESCAPE.sub(lambda m: _UNESCAPES[m[1]], body) if "\\" in body else body


def tokenize(text: str) -> list[Token]:
    """The tokens of ``text``, ending with one ``eof`` token.

    ``_TOKEN`` reads every token that ASCII characters delimit: a string
    literal or punctuation wherever it stands, an integer or a word unless
    a non-ASCII character follows it (a Unicode digit or letter continues
    it).  Such an integer or word, and error positions, go to ``_lex_char_loop``.
    """
    toks: list[Token] = []
    i, n = 0, len(text)
    match = _TOKEN.match
    while i < n:
        m = match(text, i)
        if m is not None:
            kind = m.lastgroup
            j = m.end()
            if kind == "skip":
                i = j
                continue
            if j == n or text[j] < "\x80" or kind == "punct" or kind == "str":
                word = m.group()
                if kind == "punct":
                    toks.append(Token("punct", word, i, j))
                elif kind == "word":
                    toks.append(Token("kw" if word in KEYWORDS else "ident", word, i, j))
                elif kind == "int":
                    toks.append(_int_token(text, i, j))
                else:
                    toks.append(Token("str", _unescape(word[1:-1]), i, j))
                i = j
                continue
        i = _lex_char_loop(text, i, toks)
    toks.append(Token("eof", None, n, n))
    return toks


def _int_token(text: str, start: int, end: int) -> Token:
    try:
        return Token("int", int(text[start:end]), start, end)
    except ValueError:  # past sys.get_int_max_str_digits(), or a digit like '²'
        raise ParseError("malformed or overlong integer literal", Span(start, end)) from None


def _lex_char_loop(text: str, i: int, toks: list[Token]) -> int:
    """Read the integer or word at ``i`` into ``toks`` character by character
    and return where it ends; raise ``ParseError`` at an error position."""
    n = len(text)
    ch = text[i]
    start = i
    if ch.isdigit():
        while i < n and text[i].isdigit():
            i += 1
        toks.append(_int_token(text, start, i))
        return i
    if ch == '"':
        k = _match_string_prefix(text, i).end()
        if k < n and text[k] == "\\":
            raise ParseError("bad escape in string literal", Span(k, k + 2))
        raise ParseError("unterminated string literal", Span(start, k))
    if ch.isalpha() or ch == "_":
        while i < n and (text[i].isalnum() or text[i] == "_"):
            i += 1
        word = text[start:i]
        # Hyphenated strategy keywords are lexed greedily when the
        # hyphen is adjacent: top-down(-break), bottom-up(-break).
        if text.startswith("-", i):
            for name in _HYPHENATED:
                if text.startswith(name, start):
                    word = name
                    i = start + len(name)
                    break
        toks.append(Token("kw" if word in KEYWORDS else "ident", word, start, i))
        return i
    raise ParseError(f"unexpected character {ch!r}", Span(i, i + 1))


# The constructors every module has: true, false and nokey.
_BUILTIN_CONSTRUCTORS = frozenset(sx.constructor_table(sx.ModuleDef()))


class Parser:
    def __init__(self, source: SourceFile, constructors: Iterable[str] = ()):
        """``name(args)`` builds a constructor application when ``name`` is
        a built-in constructor or one of ``constructors``, and a function
        call otherwise; `parse_module` adds the module's own constructors."""
        self.source = source
        # Two more end-of-input tokens, so that ``peek`` up to two ahead
        # needs no bounds check.
        toks = tokenize(source.text)
        self.toks = toks + toks[-1:] * 2
        self.pos = 0
        self.constructors = _BUILTIN_CONSTRUCTORS.union(constructors)

    # -- token helpers ---------------------------------------------------

    def peek(self, k: int = 0) -> Token:
        return self.toks[self.pos + k]

    def at(self, kind: str, value=None, k: int = 0) -> bool:
        t = self.peek(k)
        return t.kind == kind and (value is None or t.value == value)

    def advance(self) -> Token:
        t = self.toks[self.pos]
        if t.kind != "eof":
            self.pos += 1
        return t

    def expect(self, kind: str, value=None) -> Token:
        t = self.peek()
        if t.kind != kind or (value is not None and t.value != value):
            want = value if value is not None else kind
            raise ParseError(
                f"expected {want!r}, found {t.describe()}",
                t.span,
                expected=(str(want),),
            )
        return self.advance()

    def error(self, message: str) -> ParseError:
        return ParseError(message, self.peek().span)

    def sep_list(self, item, sep: str, closer: str | None) -> list:
        """``item (sep item)*``, or no items when the next token is the
        punctuation or keyword ``closer``; the closer is left unread."""
        if closer is not None and (self.at("punct", closer) or self.at("kw", closer)):
            return []
        items = [item()]
        while self.at("punct", sep):
            self.advance()
            items.append(item())
        return items

    # -- modules ----------------------------------------------------------

    def parse_module(self) -> sx.ModuleDef:
        self.constructors = self.constructors.union(self._declared_constructors())
        globals_: list[sx.GlobalDef] = []
        functions: list[sx.FunDef] = []
        datatypes: list[sx.DataDef] = []
        while not self.at("eof"):
            if self.at("kw", "data"):
                datatypes.append(self.parse_datadef())
            elif self.at("kw", "global"):
                globals_.append(self.parse_globaldef())
            else:
                functions.append(self.parse_fundef())
        return sx.ModuleDef(tuple(globals_), tuple(functions), tuple(datatypes))

    def _declared_constructors(self) -> set[str]:
        """The constructor names of every ``data`` declaration, found by a
        scan of the tokens so that a use before its declaration resolves:
        the identifier after ``=`` or ``|`` at paren depth 0, up to the
        ``;``.  Never raises; the parse proper reports malformed input."""
        names: set[str] = set()
        toks = self.toks
        depth = -1  # paren depth inside a data declaration, -1 outside one
        for i, t in enumerate(toks):
            if t.kind == "kw" and t.value == "data":
                depth = 0
            elif depth < 0 or t.kind != "punct":
                continue
            elif t.value == "(":
                depth += 1
            elif t.value == ")":
                depth -= 1
            elif depth == 0:
                if t.value == ";":
                    depth = -1
                elif t.value in ("=", "|") and toks[i + 1].kind == "ident":
                    names.add(toks[i + 1].value)
        return names

    def parse_datadef(self) -> sx.DataDef:
        start = self.expect("kw", "data")
        name = self.expect("ident").value
        self.expect("punct", "=")
        constructors = self.sep_list(self.parse_consdef, "|", None)
        end = self.expect("punct", ";")
        return sx.DataDef(name, tuple(constructors), Span(start.start, end.end))

    def parse_consdef(self) -> sx.ConsDef:
        name_tok = self.expect("ident")
        self.expect("punct", "(")

        def field_def() -> sx.FieldDef:
            t = self.parse_type()
            fname = self.expect("ident")
            return sx.FieldDef(t, fname.value, Span(name_tok.start, fname.end))

        fields = self.sep_list(field_def, ",", ")")
        end = self.expect("punct", ")")
        return sx.ConsDef(name_tok.value, tuple(fields), Span(name_tok.start, end.end))

    def parse_globaldef(self) -> sx.GlobalDef:
        start = self.expect("kw", "global")
        t = self.parse_type()
        name = self.expect("ident").value
        self.expect("punct", "=")
        init = self.parse_expr()
        end = self.expect("punct", ";")
        return sx.GlobalDef(name, t, init, Span(start.start, end.end))

    def parse_fundef(self) -> sx.FunDef:
        start = self.peek()
        t = self.parse_type()
        name = self.expect("ident").value
        self.expect("punct", "(")
        params = self.sep_list(lambda: self.parse_declaration(sx.Param), ",", ")")
        self.expect("punct", ")")
        if self.at("punct", "{"):
            body = self.parse_braced_body()
            if self.at("punct", ";"):
                self.advance()
            end_off = self.toks[self.pos - 1].end
        else:
            self.expect("punct", "=")
            body = self.parse_expr()
            end = self.expect("punct", ";")
            end_off = end.end
        return sx.FunDef(name, t, tuple(params), body, Span(start.start, end_off))

    def parse_declaration(self, node):
        """``type name`` as a ``node`` (a parameter or a block local)."""
        t = self.parse_type()
        name = self.expect("ident")
        return node(t, name.value, name.span)

    def parse_braced_body(self) -> sx.Expr:
        """Function-body sugar ``{ ... }``: a sequence of expressions and
        typed declarations-with-initializer, desugared to a block."""
        start = self.expect("punct", "{")
        locals_: list[sx.LocalDecl] = []
        body: list[sx.Expr] = []
        while not self.at("punct", "}"):
            first = self.peek()
            typed = self.try_parse_typed_name("=")
            if typed is not None:
                t, name = typed
                init = self.parse_expr()
                span = Span(first.start, self.toks[self.pos - 1].end)
                locals_.append(sx.LocalDecl(t, name, span))
                body.append(sx.Assign(name, init, span))
            else:
                body.append(self.parse_expr())
            if self.at("punct", ";"):
                self.advance()
            elif not self.at("punct", "}"):
                raise self.error("expected ';' or '}' in function body")
        end = self.expect("punct", "}")
        return sx.Block(tuple(locals_), tuple(body), Span(start.start, end.end))

    def try_parse_typed_name(self, punct: str) -> tuple[Type, str] | None:
        """A typed name ``type ident`` and the ``punct`` after it, as
        ``(type, ident)``; or None, with nothing read, when they are not
        next.  A typed declaration (``=``) and a typed pattern (``:``)
        start so."""
        saved = self.pos
        try:
            t = self.parse_type()
            name = self.expect("ident")
            self.expect("punct", punct)
        except ParseError:
            self.pos = saved
            return None
        return t, name.value

    # -- types -------------------------------------------------------------

    def parse_type(self) -> Type:
        t = self.peek()
        word = TYPE_WORDS.get(t.value) if t.kind in ("ident", "kw") else None
        if isinstance(word, Type):
            self.advance()
            return word
        if t.kind != "ident":
            raise self.error(f"expected a type, found {t.describe()}")
        name = t.value
        if word is not None and self.at("punct", "<", 1):
            self.pos += 2
            elem = self.parse_type()
            self.expect("punct", ">")
            return word(elem)
        if name == "map" and self.at("punct", "<", 1):
            self.pos += 2
            k = self.parse_type()
            self.expect("punct", ",")
            v = self.parse_type()
            self.expect("punct", ">")
            return MapType(k, v)
        self.advance()
        return DataType(name)

    # -- expressions ---------------------------------------------------------

    def parse_expr(self) -> sx.Expr:
        t = self.peek()
        if t.kind == "kw":
            kw = t.value
            if kw in KEYWORD_FORMS:
                self.advance()
                return KEYWORD_FORMS[kw](t.span)
            if kw in PREFIX_FORMS:
                self.advance()
                v = self.parse_expr()
                return PREFIX_FORMS[kw](v, Span(t.start, v.span.end))
            forms = _FORM_STARTS.get(kw)
            if forms is not None:
                return self.parse_form(forms)
            if kw == "local":
                return self.parse_local()
        if t.kind == "ident" and self.at("punct", "=", 1):
            self.advance()
            self.advance()
            v = self.parse_expr()
            return sx.Assign(t.value, v, Span(t.start, v.span.end))
        return self.parse_binary()

    def parse_binary(self, level: int = 1) -> sx.Expr:
        """A chain of binary operators of ``level`` or tighter, each level
        left-associative (precedence climbing over ``BINARY_LEVELS``)."""
        left = self.parse_unary()
        while True:
            t = self.peek()
            op_level = BINARY_LEVEL.get(t.value) if t.kind in ("punct", "kw") else None
            if op_level is None or op_level < level:
                return left
            self.advance()
            right = self.parse_binary(op_level + 1)
            left = sx.Binary(left, t.value, right, Span(left.span.start, right.span.end))

    def parse_unary(self) -> sx.Expr:
        t = self.peek()
        if t.kind == "punct" and t.value in ("-", "!"):
            self.advance()
            operand = self.parse_unary()
            return sx.Unary(t.value, operand, Span(t.start, operand.span.end))
        return self.parse_postfix()

    def parse_postfix(self) -> sx.Expr:
        e = self.parse_primary()
        while self.at("punct", "["):
            self.advance()
            key = self.parse_binary()
            if self.at("punct", "="):
                self.advance()
                value = self.parse_binary()
                end = self.expect("punct", "]")
                e = sx.Update(e, key, value, Span(e.span.start, end.end))
            else:
                end = self.expect("punct", "]")
                e = sx.Lookup(e, key, Span(e.span.start, end.end))
        return e

    def parse_primary(self) -> sx.Expr:
        t = self.peek()
        if t.kind in _LITERALS:
            self.advance()
            return sx.Lit(t.value, t.span)
        if t.kind == "ident":
            self.advance()
            if self.at("punct", "("):
                self.advance()
                args = self.sep_list(self.parse_expr, ",", ")")
                end = self.expect("punct", ")")
                node = sx.Cons if t.value in self.constructors else sx.Call
                return node(t.value, tuple(args), Span(t.start, end.end))
            return sx.Var(t.value, t.span)
        if t.kind == "punct" and t.value in CLOSERS:
            self.advance()
            closer = CLOSERS[t.value]
            items = self.sep_list(self.parse_expr, ",", closer)
            end = self.expect("punct", closer)
            return EXPR_COLLECTIONS[t.value](tuple(items), Span(t.start, end.end))
        if t.kind == "punct" and t.value == "(":
            self.advance()
            if self.at("punct", ")"):
                end = self.advance()
                return sx.MapExpr((), Span(t.start, end.end))
            first = self.parse_expr()
            if self.at("punct", ":"):
                self.advance()
                pairs = [(first, self.parse_expr())]
                if self.at("punct", ","):
                    self.advance()
                    pairs += self.sep_list(lambda: self.parse_pair(self.parse_expr), ",", None)
                end = self.expect("punct", ")")
                return sx.MapExpr(tuple(pairs), Span(t.start, end.end))
            self.expect("punct", ")")
            return first
        raise self.error(f"expected an expression, found {t.describe()}")

    def parse_pair(self, item):
        """``item : item``, one map entry."""
        k = item()
        self.expect("punct", ":")
        return k, item()

    # -- statement forms ------------------------------------------------------

    def parse_form(self, forms: tuple) -> sx.Expr:
        """One of ``forms``, the items of ``STATEMENT_FORMS`` whose template
        starts with the next token.  Where templates part, the one whose
        keyword comes next is read, or else the last one.  The span ends with
        the sub-term of a final ``EXPR``, or else with the last token read."""
        start = self.peek().start
        node, template = forms[-1]
        fields = []
        i = 0
        while i < len(template):
            if len(forms) > 1 and len({t[i] for _, t in forms}) > 1:
                forms = [f for f in forms if self.at("kw", f[1][i])] or forms[-1:]
                node, template = forms[-1]
            elem = template[i]
            if isinstance(elem, str):
                self.expect("kw" if elem in KEYWORDS else "punct", elem)
            else:
                fields.append(elem(self))
            i += 1
        end = fields[-1].span.end if template[-1] is EXPR else self.toks[self.pos - 1].end
        return node(*fields, Span(start, end))

    def parse_cases(self) -> tuple[sx.Case, ...]:
        self.expect("punct", "{")
        cases: list[sx.Case] = []
        while self.at("kw", "case"):
            start = self.advance()
            pat = self.parse_pattern()
            if not (self.at("punct", "=>") or self.at("punct", ":")):
                raise self.error("expected '=>' after case pattern")
            self.advance()
            body = self.parse_expr()
            cases.append(sx.Case(pat, body, Span(start.start, body.span.end)))
        self.expect("punct", "}")
        return tuple(cases)

    def parse_generator(self) -> sx.Generator:
        t = self.peek()
        # Enumerating assignment: IDENT <- e, with '<' and '-' adjacent.
        if (
            t.kind == "ident"
            and self.at("punct", "<", 1)
            and self.at("punct", "-", 2)
            and self.peek(1).end == self.peek(2).start
        ):
            self.pos += 3
            src = self.parse_expr()
            return sx.Enumerating(t.value, src, Span(t.start, src.span.end))
        pat = self.parse_pattern()
        self.expect("punct", ":=")
        src = self.parse_expr()
        return sx.Matching(pat, src, Span(t.start, src.span.end))

    def parse_name(self) -> str:
        return self.expect("ident").value

    def parse_names(self) -> tuple[str, ...]:
        return tuple(self.sep_list(self.parse_name, ",", None))

    def parse_strategy(self) -> sx.Strategy:
        """The strategy keyword that `parse_expr` found next."""
        return STRATEGIES[self.advance().value]

    def parse_local(self) -> sx.Expr:
        start = self.expect("kw", "local")
        decls = self.sep_list(lambda: self.parse_declaration(sx.LocalDecl), ",", "in")
        self.expect("kw", "in")
        body: list[sx.Expr] = []
        while not self.at("kw", "end"):
            body.append(self.parse_expr())
            if self.at("punct", ";"):
                self.advance()
            elif not self.at("kw", "end"):
                raise self.error("expected ';' or 'end' in block")
        end = self.expect("kw", "end")
        return sx.Block(tuple(decls), tuple(body), Span(start.start, end.end))

    # -- patterns -------------------------------------------------------------

    def parse_pattern(self) -> sx.Pattern:
        t = self.peek()
        if t.kind in _LITERALS:
            self.advance()
            return sx.LitPat(t.value, t.span)
        if t.kind == "punct" and t.value == "-" and self.at("int", k=1):
            self.advance()
            lit = self.advance()
            return sx.LitPat(-lit.value, Span(t.start, lit.end))
        if t.kind == "punct" and t.value == "!":
            self.advance()
            inner = self.parse_pattern()
            return sx.NegPat(inner, Span(t.start, inner.span.end))
        if t.kind == "punct" and t.value == "/":
            self.advance()
            inner = self.parse_pattern()
            return sx.DeepPat(inner, Span(t.start, inner.span.end))
        if t.kind == "punct" and t.value in CLOSERS:
            self.advance()
            closer = CLOSERS[t.value]
            elems = self.sep_list(self.parse_star_pattern, ",", closer)
            end = self.expect("punct", closer)
            return PATTERN_COLLECTIONS[t.value](tuple(elems), Span(t.start, end.end))
        typed = self.try_parse_typed_name(":")
        if typed is not None:
            inner = self.parse_pattern()
            return sx.TypedPat(*typed, inner, Span(t.start, inner.span.end))
        if t.kind == "ident":
            self.advance()
            if self.at("punct", "("):
                self.advance()
                args = self.sep_list(self.parse_pattern, ",", ")")
                end = self.expect("punct", ")")
                return sx.ConsPat(t.value, tuple(args), Span(t.start, end.end))
            return sx.VarPat(t.value, t.span)
        raise self.error(f"expected a pattern, found {t.describe()}")

    def parse_star_pattern(self) -> sx.Pattern:
        if self.at("punct", "*"):
            star = self.advance()
            name = self.expect("ident")
            return sx.Star(name.value, Span(star.start, name.end))
        return self.parse_pattern()

    # -- value literals --------------------------------------------------------

    def parse_value(self) -> Value:
        t = self.peek()
        if t.kind in _LITERALS:
            self.advance()
            return Basic(t.value)
        if t.kind == "punct" and t.value == "-" and self.at("int", k=1):
            self.advance()
            lit = self.advance()
            return Basic(-lit.value)
        if t.kind == "punct" and t.value == "<":
            self.advance()
            word = self.expect("ident")
            if word.value != "undefined":
                raise ParseError("expected '<undefined>'", word.span)
            self.expect("punct", ">")
            return UNDEF
        if t.kind == "ident":
            self.advance()
            self.expect("punct", "(")
            args = self.sep_list(self.parse_value, ",", ")")
            self.expect("punct", ")")
            return VCons(t.value, tuple(args))
        if t.kind == "punct" and t.value in CLOSERS:
            self.advance()
            closer = CLOSERS[t.value]
            items = self.sep_list(self.parse_value, ",", closer)
            self.expect("punct", closer)
            return VALUE_COLLECTIONS[t.value](tuple(items))
        if t.kind == "punct" and t.value == "(":
            self.advance()
            pairs = self.sep_list(lambda: self.parse_pair(self.parse_value), ",", ")")
            self.expect("punct", ")")
            return VMap(tuple(pairs))
        raise self.error(f"expected a value literal, found {t.describe()}")


# The slots of a statement template, each the parser method that reads it.
EXPR, GENERATOR, CASES = Parser.parse_expr, Parser.parse_generator, Parser.parse_cases
NAME, NAMES, STRATEGY = Parser.parse_name, Parser.parse_names, Parser.parse_strategy

# The statement forms: each node class's template of keywords,
# punctuation and slots, which `Parser.parse_form` reads and the renderer
# prints.  The slots fill the node's fields in order, and the span is last.
STATEMENT_FORMS = {
    sx.If: ("if", EXPR, "then", EXPR, "else", EXPR),
    sx.Switch: ("switch", "(", EXPR, ")", CASES),
    sx.Visit: (STRATEGY, "visit", "(", EXPR, ")", CASES),
    sx.While: ("while", "(", EXPR, ")", EXPR),
    sx.For: ("for", "(", GENERATOR, ")", EXPR),
    sx.Solve: ("solve", "(", NAMES, ")", EXPR),
    sx.TryCatch: ("try", EXPR, "catch", NAME, "=>", EXPR),
    sx.TryFinally: ("try", EXPR, "finally", EXPR),
}

# The templates by the keyword they start with (any strategy for STRATEGY).
_FORM_STARTS: dict[str, tuple] = {}
for _form in STATEMENT_FORMS.items():
    for _kw in STRATEGIES if _form[1][0] is STRATEGY else _form[1][:1]:
        _FORM_STARTS[_kw] = _FORM_STARTS.get(_kw, ()) + (_form,)


# ---------------------------------------------------------------------------
# Entry points


@stack_guarded
def parse_module(src: SourceFile | str) -> sx.ModuleDef:
    """Parse a module from a source file or raw text.

    Raises ParseError with a span on malformed input; the returned module
    still needs `validate_module` before evaluation.
    """
    if isinstance(src, str):
        src = SourceFile("<string>", src)
    p = Parser(src)
    return p.parse_module()


@stack_guarded
def parse_expr(text: str, module: sx.ModuleDef | None = None) -> sx.Expr:
    """Parse a standalone expression, resolving constructor names against
    the given module's declarations."""
    declared = sx.constructor_table(module) if module is not None else ()
    p = Parser(SourceFile("<expr>", text), declared)
    e = p.parse_expr()
    if not p.at("eof"):
        raise p.error(f"trailing input after expression: {p.peek().value!r}")
    return e


@stack_guarded
def parse_value(text: str) -> Value:
    """Parse a value literal (the CLI argument format)."""
    p = Parser(SourceFile("<value>", text))
    v = p.parse_value()
    if not p.at("eof"):
        raise p.error(f"trailing input after value: {p.peek().value!r}")
    return v


def load_module(path: str) -> sx.ModuleDef:
    """Read and parse a ``.rsl`` file."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return parse_module(SourceFile(path, text))
