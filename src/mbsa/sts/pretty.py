"""Canonical text rendering for expressions and models.

Printing is the inverse of parsing up to structural equality, which the
round-trip tests rely on, and printed output is byte-stable for a given tree.
"""

from __future__ import annotations

from mbsa.sts.model import (
    BinOp,
    BoolConst,
    Expr,
    InSet,
    IntConst,
    Ite,
    Name,
    Next,
    SymbolicModel,
    UnOp,
)

# Binding strength, loosest first; unary and atoms handled separately.
_LEVEL = {
    "?:": 0,
    "<->": 1,
    "->": 2,
    "|": 3,
    "&": 4,
    "=": 5, "!=": 5, "<": 5, "<=": 5, ">": 5, ">=": 5, "in": 5,
    "+": 6, "-": 6,
}
_ATOM = 8


def _level(e: Expr) -> int:
    if isinstance(e, Ite):
        return _LEVEL["?:"]
    if isinstance(e, BinOp):
        return _LEVEL[e.op]
    if isinstance(e, InSet):
        return _LEVEL["in"]
    if isinstance(e, UnOp):
        return 7
    return _ATOM


def _wrap(e: Expr, parent_level: int) -> str:
    text = print_expr(e)
    if _level(e) <= parent_level:
        return f"({text})"
    return text


def print_expr(e: Expr) -> str:
    if isinstance(e, BoolConst):
        return "TRUE" if e.value else "FALSE"
    if isinstance(e, IntConst):
        return str(e.value)
    if isinstance(e, Name):
        return e.name
    if isinstance(e, Next):
        return f"next({e.name})"
    if isinstance(e, UnOp):
        if e.op == "-":
            # parenthesize unary operands so "- -x" never prints as a comment
            return f"-{_wrap(e.operand, 7)}"
        return f"!{_wrap(e.operand, 6)}"
    if isinstance(e, BinOp):
        lvl = _LEVEL[e.op]
        # left-assoc chains keep the left side unparenthesized at equal level
        if e.op in ("<->", "|", "&", "+", "-"):
            left = print_expr(e.left) if _level(e.left) >= lvl else f"({print_expr(e.left)})"
        else:
            left = _wrap(e.left, lvl)
        if e.op == "->":
            right = print_expr(e.right) if _level(e.right) >= lvl else f"({print_expr(e.right)})"
        else:
            right = _wrap(e.right, lvl)
        return f"{left} {e.op} {right}"
    if isinstance(e, Ite):
        return f"{_wrap(e.cond, 0)} ? {_wrap(e.then, 0)} : {_wrap(e.other, 0)}"
    if isinstance(e, InSet):
        members = ", ".join(print_expr(m) for m in e.members)
        return f"{_wrap(e.operand, 5)} in {{{members}}}"
    raise AssertionError(f"unhandled node {e!r}")


def print_model(m: SymbolicModel) -> str:
    lines = [f"MODULE {m.name}"]
    if m.variables:
        lines.append("VAR")
        for name, ty in m.variables:
            lines.append(f"  {name} : {ty};")
    if m.defines:
        lines.append("DEFINE")
        for name, body in m.defines:
            lines.append(f"  {name} := {print_expr(body)};")
    for e in m.init:
        lines.append(f"INIT {print_expr(e)};")
    for e in m.trans:
        lines.append(f"TRANS {print_expr(e)};")
    for e in m.invar:
        lines.append(f"INVAR {print_expr(e)};")
    return "\n".join(lines) + "\n"
