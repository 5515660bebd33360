"""Recursive-descent parser for the model language (see docs/model-language.md).

The same lexer and expression grammar back every textual front end in the
toolkit (models, fault libraries, extension instructions, common causes,
bindings), so positions and error formats are uniform.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from mbsa.diagnostics import Diagnostic, InputError
from mbsa.sts.model import (
    BinOp,
    BoolConst,
    BoolType,
    EnumType,
    Expr,
    InSet,
    IntConst,
    IntRangeType,
    Ite,
    Name,
    Next,
    SymbolicModel,
    TypeSpec,
    UnOp,
)


class ParseError(InputError):
    pass


KEYWORDS = {"MODULE", "VAR", "DEFINE", "INIT", "TRANS", "INVAR", "boolean", "next", "in", "TRUE", "FALSE"}

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>[ \t\r]+)
  | (?P<comment>--[^\n]*)
  | (?P<nl>\n)
  | (?P<real>\d+\.\d+(?:[eE][-+]?\d+)?|\d+[eE][-+]?\d+)
  | (?P<num>\d+)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_\#]*(?:\.[A-Za-z0-9_\#]+)*)
  | (?P<op>\.\.|:=|<->|->|<=|>=|!=|[{}()\[\],;:?=<>+\-!&|*])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class Token:
    kind: str  # "num" | "ident" | "op" | "kw" | "eof"
    text: str
    line: int
    col: int


def tokenize(text: str, filename: str = "<input>", line: int = 1, col: int = 1) -> list[Token]:
    """Tokens of ``text``, positioned as if it started at ``line``:``col``."""
    tokens: list[Token] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ParseError([Diagnostic(f"unexpected character {text[pos]!r}", line, col, filename=filename)])
        kind = m.lastgroup
        tok = m.group()
        if kind == "nl":
            line += 1
            col = 1
        elif kind in ("ws", "comment"):
            col += len(tok)
        else:
            if kind == "ident" and tok in KEYWORDS:
                kind = "kw"
            tokens.append(Token(kind, tok, line, col))
            col += len(tok)
        pos = m.end()
    tokens.append(Token("eof", "<end of input>", line, col))
    return tokens


class TokenStream:
    def __init__(self, tokens: list[Token], filename: str = "<input>"):
        self.tokens = tokens
        self.i = 0
        self.filename = filename

    @property
    def cur(self) -> Token:
        return self.tokens[self.i]

    def advance(self) -> Token:
        t = self.cur
        if t.kind != "eof":
            self.i += 1
        return t

    def at(self, text: str) -> bool:
        return self.cur.text == text and self.cur.kind in ("op", "kw")

    def accept(self, text: str) -> bool:
        if self.at(text):
            self.advance()
            return True
        return False

    def expect(self, text: str) -> Token:
        if not self.at(text):
            self.fail(f"expected {text!r}, found {self.cur.text!r}")
        return self.advance()

    def expect_word(self, word: str) -> Token:
        """A keyword of a definition language, lexed as an identifier."""
        if not (self.cur.kind == "ident" and self.cur.text == word):
            self.fail(f"expected {word!r}, found {self.cur.text!r}")
        return self.advance()

    def expect_ident(self, what: str = "identifier") -> Token:
        if self.cur.kind != "ident":
            self.fail(f"expected {what}, found {self.cur.text!r}")
        return self.advance()

    def fail(self, message: str):
        t = self.cur
        raise ParseError([Diagnostic(message, t.line, t.col, filename=self.filename)])


# ---------------------------------------------------------------------------
# Expressions
#
# Precedence, loosest first:  ?:   <->   ->   |   &   (= != < <= > >= in)
# then + -, then unary ! -, then atoms.

def parse_expr(ts: TokenStream) -> Expr:
    cond = _parse_iff(ts)
    if ts.accept("?"):
        then = parse_expr(ts)
        ts.expect(":")
        other = parse_expr(ts)
        return Ite(cond, then, other, line=cond.line, col=cond.col)
    return cond


def _parse_iff(ts: TokenStream) -> Expr:
    left = _parse_implies(ts)
    while ts.at("<->"):
        t = ts.advance()
        right = _parse_implies(ts)
        left = BinOp("<->", left, right, line=t.line, col=t.col)
    return left


def _parse_implies(ts: TokenStream) -> Expr:
    left = _parse_or(ts)
    if ts.at("->"):
        t = ts.advance()
        right = _parse_implies(ts)  # right associative
        return BinOp("->", left, right, line=t.line, col=t.col)
    return left


def _parse_or(ts: TokenStream) -> Expr:
    left = _parse_and(ts)
    while ts.at("|"):
        t = ts.advance()
        left = BinOp("|", left, _parse_and(ts), line=t.line, col=t.col)
    return left


def _parse_and(ts: TokenStream) -> Expr:
    left = _parse_rel(ts)
    while ts.at("&"):
        t = ts.advance()
        left = BinOp("&", left, _parse_rel(ts), line=t.line, col=t.col)
    return left


def _parse_rel(ts: TokenStream) -> Expr:
    left = _parse_add(ts)
    for op in ("=", "!=", "<=", ">=", "<", ">"):
        if ts.at(op):
            t = ts.advance()
            return BinOp(op, left, _parse_add(ts), line=t.line, col=t.col)
    if ts.at("in"):
        t = ts.advance()
        ts.expect("{")
        members = [_parse_atom(ts)]
        while ts.accept(","):
            members.append(_parse_atom(ts))
        ts.expect("}")
        return InSet(left, tuple(members), line=t.line, col=t.col)
    return left


def _parse_add(ts: TokenStream) -> Expr:
    left = _parse_unary(ts)
    while ts.at("+") or ts.at("-"):
        t = ts.advance()
        left = BinOp(t.text, left, _parse_unary(ts), line=t.line, col=t.col)
    return left


def _parse_unary(ts: TokenStream) -> Expr:
    if ts.at("!"):
        t = ts.advance()
        return UnOp("!", _parse_unary(ts), line=t.line, col=t.col)
    if ts.at("-"):
        t = ts.advance()
        return UnOp("-", _parse_unary(ts), line=t.line, col=t.col)
    return _parse_atom(ts)


def _parse_atom(ts: TokenStream) -> Expr:
    t = ts.cur
    if ts.accept("("):
        e = parse_expr(ts)
        ts.expect(")")
        return e
    if ts.accept("TRUE"):
        return BoolConst(True, line=t.line, col=t.col)
    if ts.accept("FALSE"):
        return BoolConst(False, line=t.line, col=t.col)
    if t.kind == "num":
        ts.advance()
        return IntConst(int(t.text), line=t.line, col=t.col)
    if ts.accept("next"):
        ts.expect("(")
        name = ts.expect_ident("variable name")
        ts.expect(")")
        return Next(name.text, line=t.line, col=t.col)
    if t.kind == "ident":
        ts.advance()
        return Name(t.text, line=t.line, col=t.col)
    ts.fail(f"expected expression, found {t.text!r}")


def parse_expr_text(text: str, filename: str = "<expr>", line: int = 1, col: int = 1,
                    end: str = "") -> Expr:
    """Parse a standalone expression (properties, top-level events,
    bindings) that starts at ``line``:``col`` of ``filename``; one ``end``
    token, if given, may follow it."""
    ts = TokenStream(tokenize(text, filename, line, col), filename)
    e = parse_expr(ts)
    if end:
        ts.accept(end)
    if ts.cur.kind != "eof":
        ts.fail(f"trailing input after expression: {ts.cur.text!r}")
    return e


# ---------------------------------------------------------------------------
# Models

def _parse_type(ts: TokenStream) -> TypeSpec:
    if ts.accept("boolean"):
        return BoolType()
    if ts.accept("{"):
        lits = [ts.expect_ident("enumeration literal").text]
        while ts.accept(","):
            lits.append(ts.expect_ident("enumeration literal").text)
        ts.expect("}")
        if len(set(lits)) != len(lits):
            ts.fail("duplicate enumeration literal")
        return EnumType(tuple(lits))
    neg = ts.accept("-")
    if ts.cur.kind == "num":
        lo = int(ts.advance().text) * (-1 if neg else 1)
        ts.expect("..")
        neg2 = ts.accept("-")
        hi_tok = ts.cur
        if hi_tok.kind != "num":
            ts.fail("expected integer range bound")
        hi = int(ts.advance().text) * (-1 if neg2 else 1)
        if lo > hi:
            raise ParseError([Diagnostic(f"empty integer range {lo}..{hi}", hi_tok.line, hi_tok.col,
                                         filename=ts.filename)])
        return IntRangeType(lo, hi)
    ts.fail(f"expected a type, found {ts.cur.text!r}")


_SECTION_KEYWORDS = {"VAR", "DEFINE", "INIT", "TRANS", "INVAR"}


def parse_model(text: str, filename: str = "<input>") -> SymbolicModel:
    """Parse model text into a :class:`SymbolicModel`.

    Declaration problems that are detectable without a symbol table
    (duplicate names) are reported here; everything else is left to
    :func:`mbsa.sts.check.type_check`.
    """
    ts = TokenStream(tokenize(text, filename), filename)
    ts.expect("MODULE")
    name = ts.expect_ident("module name").text

    variables: list[tuple[str, TypeSpec]] = []
    defines: list[tuple[str, Expr]] = []
    init: list[Expr] = []
    trans: list[Expr] = []
    invar: list[Expr] = []
    declared: dict[str, Token] = {}

    def declare(tok: Token):
        if tok.text in declared:
            raise ParseError([Diagnostic(f"duplicate declaration of {tok.text!r}", tok.line, tok.col,
                                         filename=filename)])
        declared[tok.text] = tok

    while ts.cur.kind != "eof":
        if ts.accept("VAR"):
            while ts.cur.kind == "ident":
                vtok = ts.advance()
                declare(vtok)
                ts.expect(":")
                vty = _parse_type(ts)
                ts.expect(";")
                variables.append((vtok.text, vty))
        elif ts.accept("DEFINE"):
            while ts.cur.kind == "ident":
                dtok = ts.advance()
                declare(dtok)
                ts.expect(":=")
                defines.append((dtok.text, parse_expr(ts)))
                ts.expect(";")
        elif ts.accept("INIT"):
            init.append(parse_expr(ts))
            ts.expect(";")
        elif ts.accept("TRANS"):
            trans.append(parse_expr(ts))
            ts.expect(";")
        elif ts.accept("INVAR"):
            invar.append(parse_expr(ts))
            ts.expect(";")
        else:
            ts.fail(f"expected one of {sorted(_SECTION_KEYWORDS)}, found {ts.cur.text!r}")

    return SymbolicModel(
        name=name,
        variables=tuple(variables),
        defines=tuple(defines),
        init=tuple(init),
        trans=tuple(trans),
        invar=tuple(invar),
    )
