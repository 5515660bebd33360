"""Abstract syntax for the model language: types, expressions, models.

Expression nodes compare structurally (type annotations are excluded from
equality), so a parse -> print -> parse round trip yields equal trees.
"""

from __future__ import annotations

from dataclasses import dataclass, field


# ---------------------------------------------------------------------------
# Types

@dataclass(frozen=True)
class BoolType:
    def __str__(self) -> str:
        return "boolean"


@dataclass(frozen=True)
class EnumType:
    literals: tuple[str, ...]

    def __post_init__(self):
        if not self.literals:
            raise ValueError("enumeration needs at least one literal")
        if len(set(self.literals)) != len(self.literals):
            raise ValueError("enumeration literals must be distinct")

    def __str__(self) -> str:
        return "{" + ", ".join(self.literals) + "}"


@dataclass(frozen=True)
class IntRangeType:
    lo: int
    hi: int

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"empty integer range {self.lo}..{self.hi}")

    def __str__(self) -> str:
        return f"{self.lo}..{self.hi}"


TypeSpec = BoolType | EnumType | IntRangeType

# An abstract "integer" type used while checking arithmetic subexpressions;
# concrete range membership is only enforced when values are assigned to
# variables.
@dataclass(frozen=True)
class IntType:
    def __str__(self) -> str:
        return "integer"


def type_values(ty: TypeSpec) -> tuple:
    """Domain of a variable type, in canonical enumeration order."""
    if isinstance(ty, BoolType):
        return (False, True)
    if isinstance(ty, EnumType):
        return tuple(ty.literals)
    if isinstance(ty, IntRangeType):
        return tuple(range(ty.lo, ty.hi + 1))
    raise TypeError(f"not a variable type: {ty}")


# ---------------------------------------------------------------------------
# Expressions

@dataclass(eq=True)
class _Node:
    # Position (set by the parser) and inferred type (set by the checker) are
    # bookkeeping only; they never participate in structural equality.
    line: int = field(default=0, compare=False, repr=False, kw_only=True)
    col: int = field(default=0, compare=False, repr=False, kw_only=True)
    ty: object = field(default=None, compare=False, repr=False, kw_only=True)


@dataclass(eq=True)
class BoolConst(_Node):
    value: bool


@dataclass(eq=True)
class IntConst(_Node):
    value: int


@dataclass(eq=True)
class Name(_Node):
    """A bare identifier: variable, define, or enumeration literal."""

    name: str


@dataclass(eq=True)
class Next(_Node):
    """Next-state reference ``next(v)``; only legal inside TRANS."""

    name: str


@dataclass(eq=True)
class UnOp(_Node):
    op: str  # "!" or "-"
    operand: Expr


@dataclass(eq=True)
class BinOp(_Node):
    op: str  # & | -> <-> = != < <= > >= + -
    left: Expr
    right: Expr


@dataclass(eq=True)
class Ite(_Node):
    cond: Expr
    then: Expr
    other: Expr


@dataclass(eq=True)
class InSet(_Node):
    """Set membership over literal constants (enumeration values, integers, booleans)."""

    operand: Expr
    members: tuple[Expr, ...]


Expr = BoolConst | IntConst | Name | Next | UnOp | BinOp | Ite | InSet


def conjuncts(e: Expr) -> list[Expr]:
    """Flatten a tree of ``&`` into its conjuncts."""
    if isinstance(e, BinOp) and e.op == "&":
        return conjuncts(e.left) + conjuncts(e.right)
    return [e]


def walk(e: Expr):
    """Yield every node of the expression tree (pre-order)."""
    yield e
    if isinstance(e, UnOp):
        yield from walk(e.operand)
    elif isinstance(e, BinOp):
        yield from walk(e.left)
        yield from walk(e.right)
    elif isinstance(e, Ite):
        yield from walk(e.cond)
        yield from walk(e.then)
        yield from walk(e.other)
    elif isinstance(e, InSet):
        yield from walk(e.operand)
        for m in e.members:
            yield from walk(m)


def rename_refs(e: Expr, mapping: dict[str, str], *, current: bool = True, nxt: bool = True) -> Expr:
    """Return a copy of ``e`` with identifier references renamed.

    ``current`` / ``nxt`` select whether plain references and ``next()``
    references are affected.  Enumeration literals are syntactically Names
    too; callers must only rename identifiers that are variable/define names.
    """
    if isinstance(e, Name):
        if current and e.name in mapping:
            return Name(mapping[e.name], line=e.line, col=e.col)
        return e
    if isinstance(e, Next):
        if nxt and e.name in mapping:
            return Next(mapping[e.name], line=e.line, col=e.col)
        return e
    if isinstance(e, UnOp):
        return UnOp(e.op, rename_refs(e.operand, mapping, current=current, nxt=nxt), line=e.line, col=e.col)
    if isinstance(e, BinOp):
        return BinOp(
            e.op,
            rename_refs(e.left, mapping, current=current, nxt=nxt),
            rename_refs(e.right, mapping, current=current, nxt=nxt),
            line=e.line,
            col=e.col,
        )
    if isinstance(e, Ite):
        return Ite(
            rename_refs(e.cond, mapping, current=current, nxt=nxt),
            rename_refs(e.then, mapping, current=current, nxt=nxt),
            rename_refs(e.other, mapping, current=current, nxt=nxt),
            line=e.line,
            col=e.col,
        )
    if isinstance(e, InSet):
        return InSet(
            rename_refs(e.operand, mapping, current=current, nxt=nxt),
            tuple(rename_refs(m, mapping, current=current, nxt=nxt) for m in e.members),
            line=e.line,
            col=e.col,
        )
    return e


def substitute(e: Expr, mapping: dict[str, Expr]) -> Expr:
    """Replace plain Name references by expressions (used for template effects)."""
    if isinstance(e, Name):
        return mapping.get(e.name, e)
    if isinstance(e, Next):
        return e
    if isinstance(e, UnOp):
        return UnOp(e.op, substitute(e.operand, mapping), line=e.line, col=e.col)
    if isinstance(e, BinOp):
        return BinOp(e.op, substitute(e.left, mapping), substitute(e.right, mapping), line=e.line, col=e.col)
    if isinstance(e, Ite):
        return Ite(substitute(e.cond, mapping), substitute(e.then, mapping), substitute(e.other, mapping),
                   line=e.line, col=e.col)
    if isinstance(e, InSet):
        return InSet(substitute(e.operand, mapping), tuple(substitute(m, mapping) for m in e.members),
                     line=e.line, col=e.col)
    return e


# ---------------------------------------------------------------------------
# Models

@dataclass
class SymbolicModel:
    """A flat synchronous transition system.

    INIT and INVAR constraints are boolean, current-state only; TRANS
    constraints may also use ``next(v)``.  DEFINEs are acyclic macros over
    current-state expressions.
    """

    name: str
    variables: tuple[tuple[str, TypeSpec], ...]
    defines: tuple[tuple[str, Expr], ...] = ()
    init: tuple[Expr, ...] = ()
    trans: tuple[Expr, ...] = ()
    invar: tuple[Expr, ...] = ()

    def var_names(self) -> list[str]:
        return [n for n, _ in self.variables]

    def define_names(self) -> list[str]:
        return [n for n, _ in self.defines]
