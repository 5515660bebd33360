"""Canonical text rendering for expressions and models.

Printing is the inverse of parsing up to structural equality, which the
round-trip tests rely on, and printed output is byte-stable for a given tree.
Parentheses follow :data:`mbsa.sts.model.OPERATOR_LEVELS`: an operand takes
them when it binds no tighter than its operator, except on the side that the
operator's chains group to.
"""

from __future__ import annotations

from mbsa.sts.model import (
    BINDING,
    UNARY_LEVEL,
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


def _level(e: Expr) -> int:
    if isinstance(e, BinOp):
        return BINDING[e.op][0]
    if isinstance(e, Ite):
        return BINDING["?"][0]
    if isinstance(e, InSet):
        return BINDING["in"][0]
    if isinstance(e, UnOp):
        return UNARY_LEVEL
    return UNARY_LEVEL + 1  # an atom


def _wrap(e: Expr, parent_level: int) -> str:
    text = print_expr(e)
    if _level(e) <= parent_level:
        return f"({text})"
    return text


def _operand_levels(op: str) -> tuple[int, int]:
    """The levels at and below which the left and the right operand of
    ``op`` take parentheses; a chain needs none on the side it groups to."""
    level, grouping = BINDING[op]
    return level - (grouping == "left"), level - (grouping == "right")


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
        # a unary operand needs parentheses only where "- -x" would lex as a comment
        return f"{e.op}{_wrap(e.operand, UNARY_LEVEL - (e.op == '!'))}"
    if isinstance(e, BinOp):
        left, right = _operand_levels(e.op)
        return f"{_wrap(e.left, left)} {e.op} {_wrap(e.right, right)}"
    if isinstance(e, Ite):
        # a nested ?: always takes parentheses
        level = BINDING["?"][0]
        return f"{_wrap(e.cond, level)} ? {_wrap(e.then, level)} : {_wrap(e.other, level)}"
    if isinstance(e, InSet):
        members = ", ".join(print_expr(m) for m in e.members)
        return f"{_wrap(e.operand, _operand_levels('in')[0])} in {{{members}}}"
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
