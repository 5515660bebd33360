"""Parser for the model language (see docs/model-language.md).

Expressions are parsed by precedence climbing over
:data:`mbsa.sts.model.OPERATOR_LEVELS`, the one statement of how tightly each
operator binds and which way a chain of it groups.

The same lexer and expression grammar back every textual front end in the
toolkit (models, fault libraries, extension instructions, common causes,
TFPG graphs, bindings and property files), so positions and error formats
are uniform.  This module owns the lexical forms they share: identifiers,
``--`` comments, integer and probability literals, and the definition
languages' keywords, which are lexed as identifiers.  Readers go through
:class:`TokenStream` for each of them, and for every positioned diagnostic.
"""

from __future__ import annotations

import re

from mbsa.diagnostics import Diagnostic, InputError
from mbsa.sts.model import (
    OPERATOR_LEVELS,
    UNARY_LEVEL,
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


class Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind: str, text: str, line: int, col: int):
        self.kind = kind  # "num" | "real" | "ident" | "op" | "kw" | "eof"
        self.text, self.line, self.col = text, line, col


def tokenize(text: str, filename: str = "<input>", line: int = 1) -> list[Token]:
    """Tokens of ``text``, positioned as if it started on line ``line``."""
    tokens: list[Token] = []
    pos = 0
    col = 1
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


def _in_unit(literal: str) -> bool:
    """Whether an integer or real literal is in [0,1].

    The bound is checked exactly on the literal's digits and exponent, so a
    reader loads no rational arithmetic: with its leading zeros dropped, a
    nonzero literal has ``places`` digits before the point, and it is at most
    1 exactly when that is none, or one digit 1 with only zeros after it."""
    mantissa, _, exp = literal.lower().partition("e")
    whole, _, fraction = mantissa.partition(".")
    digits = (whole + fraction).lstrip("0")
    places = len(digits) + int(exp or 0) - len(fraction)
    return not digits or places <= 0 or places == 1 and digits.rstrip("0") == "1"


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

    def at_end(self) -> bool:
        return self.cur.kind == "eof"

    def at(self, text: str) -> bool:
        return self.cur.text == text and self.cur.kind in ("op", "kw")

    def accept(self, text: str) -> bool:
        if self.at(text):
            self.advance()
            return True
        return False

    def word(self) -> str | None:
        """The current token's text if it is a word (an identifier or a
        keyword), else None.  A definition language's own keywords are
        lexed as identifiers."""
        return self.cur.text if self.cur.kind in ("ident", "kw") else None

    def accept_word(self, word: str) -> bool:
        if self.word() == word:
            self.advance()
            return True
        return False

    def items(self, item) -> list:
        """One or more ``item()`` results separated by commas."""
        out = [item()]
        while self.accept(","):
            out.append(item())
        return out

    def expect(self, text: str) -> Token:
        if not self.at(text):
            self.fail(f"expected {text!r}, found {self.cur.text!r}")
        return self.advance()

    def expect_word(self, word: str):
        if not self.accept_word(word):
            self.fail(f"expected {word!r}, found {self.cur.text!r}")

    def expect_ident(self, what: str = "identifier") -> Token:
        if self.cur.kind != "ident":
            self.fail(f"expected {what}, found {self.cur.text!r}")
        return self.advance()

    def number(self, message: str) -> int:
        """An unsigned integer literal; anything else fails with ``message``."""
        if self.cur.kind != "num":
            self.fail(message)
        return int(self.advance().text)

    def probability(self, cls: type[InputError]) -> str:
        """A probability literal, integer or real, in [0,1], as its text; a
        value outside raises ``cls``, positioned at the literal."""
        t = self.cur
        if t.kind not in ("num", "real"):
            self.fail(f"expected probability literal, found {t.text!r}")
        self.advance()
        if not _in_unit(t.text):
            raise self.error(t, f"probability {t.text} outside [0,1]", cls)
        return t.text

    def error(self, tok, message: str, cls: type[InputError] = ParseError) -> InputError:
        """``cls`` with one diagnostic at ``tok`` (a token, or an expression
        node, which has a position too) in this stream's file."""
        return cls([Diagnostic(message, tok.line, tok.col, filename=self.filename)])

    def fail(self, message: str):
        raise self.error(self.cur, message)

    def expect_end(self):
        """Fail unless the expression just read ends the input."""
        if not self.at_end():
            self.fail(f"trailing input after expression: {self.cur.text!r}")


# ---------------------------------------------------------------------------
# Expressions

def parse_expr(ts: TokenStream) -> Expr:
    return _parse_level(ts, 0)


def _parse_level(ts: TokenStream, level: int) -> Expr:
    """An expression whose operators bind at ``level`` of OPERATOR_LEVELS or
    tighter."""
    if level == UNARY_LEVEL:
        if ts.at("!") or ts.at("-"):
            t = ts.advance()
            return UnOp(t.text, _parse_level(ts, level), line=t.line, col=t.col)
        return _parse_atom(ts)
    ops, grouping = OPERATOR_LEVELS[level]
    right = level + (grouping != "right")  # the level a right operand climbs from
    left = _parse_level(ts, level + 1)
    while ts.cur.text in ops:
        t = ts.advance()
        if t.text == "in":
            ts.expect("{")
            members = ts.items(lambda: _parse_atom(ts))
            ts.expect("}")
            left = InSet(left, tuple(members), line=t.line, col=t.col)
        elif t.text == "?":
            then = parse_expr(ts)
            ts.expect(":")
            left = Ite(left, then, _parse_level(ts, right), line=left.line, col=left.col)
        else:
            left = BinOp(t.text, left, _parse_level(ts, right), line=t.line, col=t.col)
        if grouping != "left":
            break
    return left


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


def parse_expr_text(text: str, filename: str = "<expr>") -> Expr:
    """Parse a standalone expression, such as a top-level event."""
    ts = TokenStream(tokenize(text, filename), filename)
    e = parse_expr(ts)
    ts.expect_end()
    return e


# ---------------------------------------------------------------------------
# Models

def _parse_type(ts: TokenStream, literals: dict[str, Token]) -> TypeSpec:
    """A variable's type; the first token of each enumeration literal is kept
    in ``literals``."""
    if ts.accept("boolean"):
        return BoolType()
    start = ts.cur
    if ts.accept("{"):
        tokens = ts.items(lambda: ts.expect_ident("enumeration literal"))
        ts.expect("}")
        lits = tuple(t.text for t in tokens)
        for i, t in enumerate(tokens):
            if t.text in lits[:i]:
                raise ts.error(t, "duplicate enumeration literal")
        for t in tokens:
            literals.setdefault(t.text, t)
        return EnumType(lits, line=start.line, col=start.col)
    neg = ts.accept("-")
    lo = ts.number(f"expected a type, found {ts.cur.text!r}") * (-1 if neg else 1)
    ts.expect("..")
    neg = ts.accept("-")
    hi_tok = ts.cur
    hi = ts.number("expected integer range bound") * (-1 if neg else 1)
    if lo > hi:
        raise ts.error(hi_tok, f"empty integer range {lo}..{hi}")
    return IntRangeType(lo, hi)


def parse_model(text: str, filename: str = "<input>") -> SymbolicModel:
    """Parse model text into a :class:`SymbolicModel`.

    Declaration problems that are detectable without a symbol table
    (duplicate names, an enumeration literal spelled like a declared name)
    are reported here, at the name or the literal; everything else is left to
    :func:`mbsa.sts.check.type_check`.
    """
    ts = TokenStream(tokenize(text, filename), filename)
    ts.expect("MODULE")
    name = ts.expect_ident("module name").text

    variables: list[tuple[str, TypeSpec]] = []
    defines: list[tuple[str, Expr]] = []
    literals: dict[str, Token] = {}
    # section keyword -> (separator, parser of the declared type or body, declarations)
    declarations = {"VAR": (":", lambda ts: _parse_type(ts, literals), variables),
                    "DEFINE": (":=", parse_expr, defines)}
    constraints: dict[str, list[Expr]] = {"INIT": [], "TRANS": [], "INVAR": []}
    declared: set[str] = set()
    while not ts.at_end():
        if ts.cur.text in declarations:
            separator, parse, declared_here = declarations[ts.advance().text]
            # two identifiers in a row start no declaration: the first is an unknown section word
            while ts.cur.kind == "ident" and ts.tokens[ts.i + 1].kind != "ident":
                tok = ts.advance()
                if tok.text in declared:
                    raise ts.error(tok, f"duplicate declaration of {tok.text!r}")
                declared.add(tok.text)
                ts.expect(separator)
                declared_here.append((tok.text, parse(ts)))
                ts.expect(";")
        elif ts.cur.text in constraints:
            constraints[ts.advance().text].append(parse_expr(ts))
            ts.expect(";")
        else:
            ts.fail(f"expected one of {sorted([*declarations, *constraints])}, found {ts.cur.text!r}")
    # a name may be declared after a literal that spells it
    clash = next((t for lit, t in literals.items() if lit in declared), None)
    if clash is not None:
        raise ts.error(clash, f"enumeration literal {clash.text!r} clashes with a declared name")

    return SymbolicModel(name, tuple(variables), tuple(defines), init=tuple(constraints["INIT"]),
                         trans=tuple(constraints["TRANS"]), invar=tuple(constraints["INVAR"]))
