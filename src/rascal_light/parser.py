"""Concrete syntax: tokenizer, recursive-descent parser, and module loading.

The surface grammar is this project's own.  Files use the ``.rsl``
extension, UTF-8, LF or CRLF line endings, and ``//`` line comments.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Iterable

from . import syntax as sx
from .stackguard import stack_guarded
from .syntax import Span
from .types import (
    BaseType,
    DataType,
    ListType,
    MapType,
    SetType,
    Type,
    VALUE,
    VOID,
)
from .values import Basic, UNDEF, Value, VCons, VList, VMap, VSet


@dataclass
class SourceFile:
    path: str
    text: str
    _line_starts: list[int] = field(default_factory=list, repr=False)

    def __post_init__(self):
        self._line_starts = [0]
        for i, ch in enumerate(self.text):
            if ch == "\n":
                self._line_starts.append(i + 1)

    def line_col(self, offset: int) -> tuple[int, int]:
        line = bisect.bisect_right(self._line_starts, offset) - 1
        return line + 1, offset - self._line_starts[line] + 1

    def format_span(self, span: Span) -> str:
        l1, c1 = self.line_col(span.start)
        return f"{self.path}:{l1}:{c1}"


class ParseError(Exception):
    def __init__(self, message: str, span: Span, expected: tuple[str, ...] = ()):
        super().__init__(message)
        self.message = message
        self.span = span
        self.expected = expected


KEYWORDS = {
    "fail", "break", "continue", "return", "throw", "try", "catch", "finally",
    "switch", "visit", "solve", "for", "while", "if", "then", "else",
    "local", "in", "end", "data", "global", "value", "void", "case",
    "top-down", "bottom-up", "top-down-break", "bottom-up-break",
    "outermost", "innermost",
}

STRATEGIES = {
    "top-down": sx.Strategy.TOP_DOWN,
    "bottom-up": sx.Strategy.BOTTOM_UP,
    "top-down-break": sx.Strategy.TOP_DOWN_BREAK,
    "bottom-up-break": sx.Strategy.BOTTOM_UP_BREAK,
    "outermost": sx.Strategy.OUTERMOST,
    "innermost": sx.Strategy.INNERMOST,
}

_PUNCT2 = ("==", "!=", "<=", ">=", "&&", "||", ":=", "=>")
_PUNCT1 = "+-*/%<>=!()[]{},;:|"

_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", '"': '"', "\\": "\\"}


@dataclass(frozen=True)
class Token:
    kind: str  # int | str | ident | kw | punct | eof
    value: object
    start: int
    end: int

    @property
    def span(self) -> Span:
        return Span(self.start, self.end)


def tokenize(text: str) -> list[Token]:
    toks: list[Token] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            i += 1
            continue
        if ch == "/" and text.startswith("//", i):
            while i < n and text[i] != "\n":
                i += 1
            continue
        start = i
        if ch.isdigit():
            while i < n and text[i].isdigit():
                i += 1
            try:
                value = int(text[start:i])
            except ValueError:  # past sys.get_int_max_str_digits(), or a digit like '²'
                raise ParseError("malformed or overlong integer literal", Span(start, i)) from None
            toks.append(Token("int", value, start, i))
            continue
        if ch == '"':
            i += 1
            out = []
            while True:
                if i >= n:
                    raise ParseError("unterminated string literal", Span(start, i))
                c = text[i]
                if c == '"':
                    i += 1
                    break
                if c == "\\":
                    if i + 1 >= n or text[i + 1] not in _ESCAPES:
                        raise ParseError("bad escape in string literal", Span(i, i + 2))
                    out.append(_ESCAPES[text[i + 1]])
                    i += 2
                    continue
                if c == "\n":
                    raise ParseError("unterminated string literal", Span(start, i))
                out.append(c)
                i += 1
            toks.append(Token("str", "".join(out), start, i))
            continue
        if ch.isalpha() or ch == "_":
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
            word = text[start:i]
            # Hyphenated strategy keywords are lexed greedily when the
            # hyphen is adjacent: top-down(-break), bottom-up(-break).
            if word in ("top", "bottom"):
                for suffix in ("-down-break", "-down", "-up-break", "-up"):
                    cand = word + suffix
                    if cand in STRATEGIES and text.startswith(suffix, i):
                        word = cand
                        i += len(suffix)
                        break
            kind = "kw" if word in KEYWORDS else "ident"
            toks.append(Token(kind, word, start, i))
            continue
        two = text[i : i + 2]
        if two in _PUNCT2:
            toks.append(Token("punct", two, i, i + 2))
            i += 2
            continue
        if ch in _PUNCT1:
            toks.append(Token("punct", ch, i, i + 1))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", Span(i, i + 1))
    toks.append(Token("eof", None, n, n))
    return toks


# The constructors every module has: true, false and nokey.
_BUILTIN_CONSTRUCTORS = frozenset(sx.constructor_table(sx.ModuleDef()))


class Parser:
    def __init__(self, source: SourceFile, constructors: Iterable[str] = ()):
        """``name(args)`` builds a constructor application when ``name`` is
        a built-in constructor or one of ``constructors``, and a function
        call otherwise; `parse_module` adds the module's own constructors."""
        self.source = source
        self.toks = tokenize(source.text)
        self.pos = 0
        self.constructors = _BUILTIN_CONSTRUCTORS.union(constructors)

    # -- token helpers ---------------------------------------------------

    def peek(self, k: int = 0) -> Token:
        return self.toks[min(self.pos + k, len(self.toks) - 1)]

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
                f"expected {want!r}, found {t.value!r}",
                t.span,
                expected=(str(want),),
            )
        return self.advance()

    def error(self, message: str) -> ParseError:
        return ParseError(message, self.peek().span)

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
        constructors = [self.parse_consdef()]
        while self.at("punct", "|"):
            self.advance()
            constructors.append(self.parse_consdef())
        end = self.expect("punct", ";")
        return sx.DataDef(name, tuple(constructors), Span(start.start, end.end))

    def parse_consdef(self) -> sx.ConsDef:
        name_tok = self.expect("ident")
        self.expect("punct", "(")
        fields: list[sx.FieldDef] = []
        if not self.at("punct", ")"):
            while True:
                t = self.parse_type()
                fname = self.expect("ident")
                fields.append(
                    sx.FieldDef(t, fname.value, Span(name_tok.start, fname.end))
                )
                if self.at("punct", ","):
                    self.advance()
                    continue
                break
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
        params: list[sx.Param] = []
        if not self.at("punct", ")"):
            while True:
                pt = self.parse_type()
                pn = self.expect("ident")
                params.append(sx.Param(pt, pn.value, pn.span))
                if self.at("punct", ","):
                    self.advance()
                    continue
                break
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

    def parse_braced_body(self) -> sx.Expr:
        """Function-body sugar ``{ ... }``: a sequence of expressions and
        typed declarations-with-initializer, desugared to a block."""
        start = self.expect("punct", "{")
        locals_: list[sx.LocalDecl] = []
        body: list[sx.Expr] = []
        while not self.at("punct", "}"):
            decl = self.try_parse_decl_with_init()
            if decl is not None:
                t, name, init, span = decl
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

    def try_parse_decl_with_init(self):
        saved = self.pos
        try:
            t = self.parse_type()
            name = self.expect("ident")
            self.expect("punct", "=")
        except ParseError:
            self.pos = saved
            return None
        init = self.parse_expr()
        return t, name.value, init, Span(self.toks[saved].start, self.toks[self.pos - 1].end)

    # -- types -------------------------------------------------------------

    def parse_type(self) -> Type:
        t = self.peek()
        if t.kind == "kw" and t.value == "void":
            self.advance()
            return VOID
        if t.kind == "kw" and t.value == "value":
            self.advance()
            return VALUE
        if t.kind != "ident":
            raise self.error(f"expected a type, found {t.value!r}")
        name = t.value
        if name == "int":
            self.advance()
            return BaseType("int")
        if name == "str":
            self.advance()
            return BaseType("str")
        if name in ("set", "list") and self.at("punct", "<", 1):
            self.advance()
            self.advance()
            elem = self.parse_type()
            self.expect("punct", ">")
            return SetType(elem) if name == "set" else ListType(elem)
        if name == "map" and self.at("punct", "<", 1):
            self.advance()
            self.advance()
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
            if kw == "return":
                self.advance()
                v = self.parse_expr()
                return sx.ReturnExpr(v, Span(t.start, v.span.end))
            if kw == "throw":
                self.advance()
                v = self.parse_expr()
                return sx.ThrowExpr(v, Span(t.start, v.span.end))
            if kw == "break":
                self.advance()
                return sx.BreakExpr(t.span)
            if kw == "continue":
                self.advance()
                return sx.ContinueExpr(t.span)
            if kw == "fail":
                self.advance()
                return sx.FailExpr(t.span)
            if kw == "if":
                return self.parse_if()
            if kw == "switch":
                return self.parse_switch()
            if kw in STRATEGIES:
                return self.parse_visit()
            if kw == "while":
                return self.parse_while()
            if kw == "for":
                return self.parse_for()
            if kw == "solve":
                return self.parse_solve()
            if kw == "local":
                return self.parse_local()
            if kw == "try":
                return self.parse_try()
        if t.kind == "ident" and self.at("punct", "=", 1):
            self.advance()
            self.advance()
            v = self.parse_expr()
            return sx.Assign(t.value, v, Span(t.start, v.span.end))
        return self.parse_binary(1)

    _BIN_LEVELS = (
        ("||",),
        ("&&",),
        ("==", "!=", "<", "<=", ">", ">=", "in"),
        ("+", "-"),
        ("*", "/", "%"),
    )

    def parse_binary(self, level: int) -> sx.Expr:
        if level > len(self._BIN_LEVELS):
            return self.parse_unary()
        ops = self._BIN_LEVELS[level - 1]
        left = self.parse_binary(level + 1)
        while True:
            t = self.peek()
            is_op = (t.kind == "punct" and t.value in ops) or (
                t.kind == "kw" and t.value == "in" and "in" in ops
            )
            if not is_op:
                return left
            self.advance()
            right = self.parse_binary(level + 1)
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
            key = self.parse_binary(1)
            if self.at("punct", "="):
                self.advance()
                value = self.parse_binary(1)
                end = self.expect("punct", "]")
                e = sx.Update(e, key, value, Span(e.span.start, end.end))
            else:
                end = self.expect("punct", "]")
                e = sx.Lookup(e, key, Span(e.span.start, end.end))
        return e

    def parse_primary(self) -> sx.Expr:
        t = self.peek()
        if t.kind == "int":
            self.advance()
            return sx.Lit(t.value, t.span)
        if t.kind == "str":
            self.advance()
            return sx.Lit(t.value, t.span)
        if t.kind == "ident":
            self.advance()
            if self.at("punct", "("):
                self.advance()
                args: list[sx.Expr] = []
                if not self.at("punct", ")"):
                    while True:
                        args.append(self.parse_expr())
                        if self.at("punct", ","):
                            self.advance()
                            continue
                        break
                end = self.expect("punct", ")")
                node = sx.Cons if t.value in self.constructors else sx.Call
                return node(t.value, tuple(args), Span(t.start, end.end))
            return sx.Var(t.value, t.span)
        if t.kind == "punct" and t.value == "[":
            self.advance()
            items: list[sx.Expr] = []
            if not self.at("punct", "]"):
                while True:
                    items.append(self.parse_expr())
                    if self.at("punct", ","):
                        self.advance()
                        continue
                    break
            end = self.expect("punct", "]")
            return sx.ListExpr(tuple(items), Span(t.start, end.end))
        if t.kind == "punct" and t.value == "{":
            self.advance()
            items = []
            if not self.at("punct", "}"):
                while True:
                    items.append(self.parse_expr())
                    if self.at("punct", ","):
                        self.advance()
                        continue
                    break
            end = self.expect("punct", "}")
            return sx.SetExpr(tuple(items), Span(t.start, end.end))
        if t.kind == "punct" and t.value == "(":
            self.advance()
            if self.at("punct", ")"):
                end = self.advance()
                return sx.MapExpr((), Span(t.start, end.end))
            first = self.parse_expr()
            if self.at("punct", ":"):
                self.advance()
                pairs = [(first, self.parse_expr())]
                while self.at("punct", ","):
                    self.advance()
                    k = self.parse_expr()
                    self.expect("punct", ":")
                    pairs.append((k, self.parse_expr()))
                end = self.expect("punct", ")")
                return sx.MapExpr(tuple(pairs), Span(t.start, end.end))
            self.expect("punct", ")")
            return first
        raise self.error(f"expected an expression, found {t.value!r}")

    # -- statement-shaped expressions --------------------------------------

    def parse_if(self) -> sx.Expr:
        start = self.expect("kw", "if")
        cond = self.parse_expr()
        self.expect("kw", "then")
        then = self.parse_expr()
        self.expect("kw", "else")
        els = self.parse_expr()
        return sx.If(cond, then, els, Span(start.start, els.span.end))

    def parse_cases(self) -> tuple[sx.Case, ...]:
        self.expect("punct", "{")
        cases: list[sx.Case] = []
        while self.at("kw", "case"):
            start = self.advance()
            pat = self.parse_pattern()
            if self.at("punct", "=>") or self.at("punct", ":"):
                self.advance()
            else:
                raise self.error("expected '=>' after case pattern")
            body = self.parse_expr()
            cases.append(sx.Case(pat, body, Span(start.start, body.span.end)))
        self.expect("punct", "}")
        return tuple(cases)

    def parse_switch(self) -> sx.Expr:
        start = self.expect("kw", "switch")
        self.expect("punct", "(")
        subject = self.parse_expr()
        self.expect("punct", ")")
        cases = self.parse_cases()
        end_off = self.toks[self.pos - 1].end
        return sx.Switch(subject, cases, Span(start.start, end_off))

    def parse_visit(self) -> sx.Expr:
        st_tok = self.advance()
        strategy = STRATEGIES[st_tok.value]
        self.expect("kw", "visit")
        self.expect("punct", "(")
        subject = self.parse_expr()
        self.expect("punct", ")")
        cases = self.parse_cases()
        end_off = self.toks[self.pos - 1].end
        return sx.Visit(strategy, subject, cases, Span(st_tok.start, end_off))

    def parse_while(self) -> sx.Expr:
        start = self.expect("kw", "while")
        self.expect("punct", "(")
        cond = self.parse_expr()
        self.expect("punct", ")")
        body = self.parse_expr()
        return sx.While(cond, body, Span(start.start, body.span.end))

    def parse_for(self) -> sx.Expr:
        start = self.expect("kw", "for")
        self.expect("punct", "(")
        gen = self.parse_generator()
        self.expect("punct", ")")
        body = self.parse_expr()
        return sx.For(gen, body, Span(start.start, body.span.end))

    def parse_generator(self) -> sx.Generator:
        t = self.peek()
        # Enumerating assignment: IDENT <- e, with '<' and '-' adjacent.
        if (
            t.kind == "ident"
            and self.at("punct", "<", 1)
            and self.at("punct", "-", 2)
            and self.peek(1).end == self.peek(2).start
        ):
            self.advance()
            self.advance()
            self.advance()
            src = self.parse_expr()
            return sx.Enumerating(t.value, src, Span(t.start, src.span.end))
        pat = self.parse_pattern()
        self.expect("punct", ":=")
        src = self.parse_expr()
        return sx.Matching(pat, src, Span(t.start, src.span.end))

    def parse_solve(self) -> sx.Expr:
        start = self.expect("kw", "solve")
        self.expect("punct", "(")
        targets = [self.expect("ident").value]
        while self.at("punct", ","):
            self.advance()
            targets.append(self.expect("ident").value)
        self.expect("punct", ")")
        body = self.parse_expr()
        return sx.Solve(tuple(targets), body, Span(start.start, body.span.end))

    def parse_local(self) -> sx.Expr:
        start = self.expect("kw", "local")
        decls: list[sx.LocalDecl] = []
        if not self.at("kw", "in"):
            while True:
                t = self.parse_type()
                name = self.expect("ident")
                decls.append(sx.LocalDecl(t, name.value, name.span))
                if self.at("punct", ","):
                    self.advance()
                    continue
                break
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

    def parse_try(self) -> sx.Expr:
        start = self.expect("kw", "try")
        body = self.parse_expr()
        if self.at("kw", "catch"):
            self.advance()
            var = self.expect("ident").value
            self.expect("punct", "=>")
            handler = self.parse_expr()
            return sx.TryCatch(body, var, handler, Span(start.start, handler.span.end))
        self.expect("kw", "finally")
        fin = self.parse_expr()
        return sx.TryFinally(body, fin, Span(start.start, fin.span.end))

    # -- patterns -------------------------------------------------------------

    def parse_pattern(self) -> sx.Pattern:
        t = self.peek()
        if t.kind == "int":
            self.advance()
            return sx.LitPat(t.value, t.span)
        if t.kind == "str":
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
        if t.kind == "punct" and t.value == "[":
            self.advance()
            elems = self.parse_star_patterns("]")
            end = self.expect("punct", "]")
            return sx.ListPat(elems, Span(t.start, end.end))
        if t.kind == "punct" and t.value == "{":
            self.advance()
            elems = self.parse_star_patterns("}")
            end = self.expect("punct", "}")
            return sx.SetPat(elems, Span(t.start, end.end))
        typed = self.try_parse_typed_pattern()
        if typed is not None:
            return typed
        if t.kind == "ident":
            self.advance()
            if self.at("punct", "("):
                self.advance()
                args: list[sx.Pattern] = []
                if not self.at("punct", ")"):
                    while True:
                        args.append(self.parse_pattern())
                        if self.at("punct", ","):
                            self.advance()
                            continue
                        break
                end = self.expect("punct", ")")
                return sx.ConsPat(t.value, tuple(args), Span(t.start, end.end))
            return sx.VarPat(t.value, t.span)
        raise self.error(f"expected a pattern, found {t.value!r}")

    def try_parse_typed_pattern(self) -> sx.Pattern | None:
        saved = self.pos
        start = self.peek()
        try:
            t = self.parse_type()
            name = self.expect("ident")
            self.expect("punct", ":")
        except ParseError:
            self.pos = saved
            return None
        inner = self.parse_pattern()
        return sx.TypedPat(t, name.value, inner, Span(start.start, inner.span.end))

    def parse_star_patterns(self, closer: str) -> tuple[sx.Pattern, ...]:
        elems: list[sx.Pattern] = []
        if not self.at("punct", closer):
            while True:
                if self.at("punct", "*"):
                    star = self.advance()
                    name = self.expect("ident")
                    elems.append(sx.Star(name.value, Span(star.start, name.end)))
                else:
                    elems.append(self.parse_pattern())
                if self.at("punct", ","):
                    self.advance()
                    continue
                break
        return tuple(elems)

    # -- value literals --------------------------------------------------------

    def parse_value(self) -> Value:
        t = self.peek()
        if t.kind == "int":
            self.advance()
            return Basic(t.value)
        if t.kind == "str":
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
            args: list[Value] = []
            if not self.at("punct", ")"):
                while True:
                    args.append(self.parse_value())
                    if self.at("punct", ","):
                        self.advance()
                        continue
                    break
            self.expect("punct", ")")
            return VCons(t.value, tuple(args))
        if t.kind == "punct" and t.value == "[":
            self.advance()
            items: list[Value] = []
            if not self.at("punct", "]"):
                while True:
                    items.append(self.parse_value())
                    if self.at("punct", ","):
                        self.advance()
                        continue
                    break
            self.expect("punct", "]")
            return VList(tuple(items))
        if t.kind == "punct" and t.value == "{":
            self.advance()
            items = []
            if not self.at("punct", "}"):
                while True:
                    items.append(self.parse_value())
                    if self.at("punct", ","):
                        self.advance()
                        continue
                    break
            self.expect("punct", "}")
            return VSet(tuple(items))
        if t.kind == "punct" and t.value == "(":
            self.advance()
            pairs: list[tuple[Value, Value]] = []
            if not self.at("punct", ")"):
                while True:
                    k = self.parse_value()
                    self.expect("punct", ":")
                    pairs.append((k, self.parse_value()))
                    if self.at("punct", ","):
                        self.advance()
                        continue
                    break
            self.expect("punct", ")")
            return VMap(tuple(pairs))
        raise self.error(f"expected a value literal, found {t.value!r}")


# ---------------------------------------------------------------------------
# Entry points


@stack_guarded
def parse_module(src: SourceFile | str, path: str = "<string>") -> sx.ModuleDef:
    """Parse a module from a source file or raw text.

    Raises ParseError with a span on malformed input; the returned module
    still needs `validate_module` before evaluation.
    """
    if isinstance(src, str):
        src = SourceFile(path, src)
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
