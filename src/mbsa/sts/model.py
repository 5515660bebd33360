"""Abstract syntax for the model language: types, expressions, models.

Expression nodes compare structurally (type annotations are excluded from
equality), so a parse -> print -> parse round trip yields equal trees.
"""

from __future__ import annotations


class Record:
    """Equality, hashing and repr over the per-class tuple ``_fields``.

    Objects of different classes never compare equal.  A subclass whose
    objects change after construction or hold unhashable fields sets
    ``__hash__ = None``.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _key(self) -> tuple:
        return tuple(map(self.__getattribute__, self._fields))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(f'{f}={getattr(self, f)!r}' for f in self._fields)})"


# ---------------------------------------------------------------------------
# Types

class BoolType(Record):
    __slots__ = ()

    def __str__(self) -> str:
        return "boolean"


class EnumType(Record):
    # the position of its ``{`` (set by the parser) is bookkeeping only, as
    # an expression node's is
    __slots__ = ("literals", "line", "col")
    _fields = ("literals",)

    def __init__(self, literals: tuple[str, ...], *, line: int = 0, col: int = 0):
        if not literals:
            raise ValueError("enumeration needs at least one literal")
        if len(set(literals)) != len(literals):
            raise ValueError("enumeration literals must be distinct")
        self.literals = literals
        self.line, self.col = line, col

    def __str__(self) -> str:
        return "{" + ", ".join(self.literals) + "}"


class IntRangeType(Record):
    __slots__ = _fields = ("lo", "hi")

    def __init__(self, lo: int, hi: int):
        if lo > hi:
            raise ValueError(f"empty integer range {lo}..{hi}")
        self.lo, self.hi = lo, hi

    def __str__(self) -> str:
        return f"{self.lo}..{self.hi}"


TypeSpec = BoolType | EnumType | IntRangeType

# An abstract "integer" type used while checking arithmetic subexpressions;
# concrete range membership is only enforced when values are assigned to
# variables.
class IntType(Record):
    __slots__ = ()

    def __str__(self) -> str:
        return "integer"


def type_values(ty: TypeSpec) -> tuple | range:
    """Domain of a variable type, in canonical enumeration order; an integer
    range stays a ``range``, which costs memory only where it is enumerated."""
    if isinstance(ty, BoolType):
        return (False, True)
    if isinstance(ty, EnumType):
        return tuple(ty.literals)
    if isinstance(ty, IntRangeType):
        return range(ty.lo, ty.hi + 1)
    raise TypeError(f"not a variable type: {ty}")


# ---------------------------------------------------------------------------
# Expressions

class _Node(Record):
    # Position (set by the parser) and inferred type (set by the checker) are
    # bookkeeping only; they never participate in structural equality.
    __slots__ = ("line", "col", "ty")
    __hash__ = None


class BoolConst(_Node):
    __slots__ = _fields = ("value",)

    def __init__(self, value: bool, *, line: int = 0, col: int = 0, ty: object = None):
        self.value = value
        self.line, self.col, self.ty = line, col, ty


class IntConst(_Node):
    __slots__ = _fields = ("value",)

    def __init__(self, value: int, *, line: int = 0, col: int = 0, ty: object = None):
        self.value = value
        self.line, self.col, self.ty = line, col, ty


class Name(_Node):
    """A bare identifier: variable, define, or enumeration literal."""

    __slots__ = _fields = ("name",)

    def __init__(self, name: str, *, line: int = 0, col: int = 0, ty: object = None):
        self.name = name
        self.line, self.col, self.ty = line, col, ty


class Next(_Node):
    """Next-state reference ``next(v)``; only legal inside TRANS."""

    __slots__ = _fields = ("name",)

    def __init__(self, name: str, *, line: int = 0, col: int = 0, ty: object = None):
        self.name = name
        self.line, self.col, self.ty = line, col, ty


class UnOp(_Node):
    __slots__ = _fields = ("op", "operand")

    def __init__(self, op: str, operand: Expr, *, line: int = 0, col: int = 0, ty: object = None):
        self.op, self.operand = op, operand  # op: "!" or "-"
        self.line, self.col, self.ty = line, col, ty


class BinOp(_Node):
    __slots__ = _fields = ("op", "left", "right")

    def __init__(self, op: str, left: Expr, right: Expr, *, line: int = 0, col: int = 0, ty: object = None):
        self.op, self.left, self.right = op, left, right  # op: & | -> <-> = != < <= > >= + -
        self.line, self.col, self.ty = line, col, ty


class Ite(_Node):
    __slots__ = _fields = ("cond", "then", "other")

    def __init__(self, cond: Expr, then: Expr, other: Expr, *, line: int = 0, col: int = 0, ty: object = None):
        self.cond, self.then, self.other = cond, then, other
        self.line, self.col, self.ty = line, col, ty


class InSet(_Node):
    """Set membership over literal constants (enumeration values, integers, booleans)."""

    __slots__ = _fields = ("operand", "members")

    def __init__(self, operand: Expr, members: tuple[Expr, ...], *, line: int = 0, col: int = 0,
                 ty: object = None):
        self.operand, self.members = operand, members
        self.line, self.col, self.ty = line, col, ty


Expr = BoolConst | IntConst | Name | Next | UnOp | BinOp | Ite | InSet

# Operator binding, loosest level first: each level's operators and how a
# chain of them groups, "left", "right" or None (they do not chain).  "?"
# opens ``c ? a : b``; prefix "!" and "-" bind tighter than every level.  The
# parser climbs this table and the printer parenthesizes from it.
OPERATOR_LEVELS = (
    (("?",), "right"),
    (("<->",), "left"),
    (("->",), "right"),
    (("|",), "left"),
    (("&",), "left"),
    (("=", "!=", "<", "<=", ">", ">=", "in"), None),
    (("+", "-"), "left"),
)
UNARY_LEVEL = len(OPERATOR_LEVELS)
BINDING = {op: (level, grouping) for level, (ops, grouping) in enumerate(OPERATOR_LEVELS) for op in ops}


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


def substitute(e: Expr, current: dict[str, Expr], nxt: dict[str, str] | None = None) -> Expr:
    """Return a copy of ``e`` with each plain reference ``n`` in ``current``
    replaced by ``current[n]``, and each ``next(n)`` with ``n`` in ``nxt``
    renamed to ``next(nxt[n])``.

    Rebuilt nodes keep their positions.  Enumeration literals are
    syntactically Names too; callers map only variable and define names.
    """
    if isinstance(e, Name):
        return current.get(e.name, e)
    if isinstance(e, Next):
        return Next(nxt[e.name], line=e.line, col=e.col) if nxt and e.name in nxt else e
    if isinstance(e, UnOp):
        return UnOp(e.op, substitute(e.operand, current, nxt), line=e.line, col=e.col)
    if isinstance(e, BinOp):
        return BinOp(e.op, substitute(e.left, current, nxt), substitute(e.right, current, nxt),
                     line=e.line, col=e.col)
    if isinstance(e, Ite):
        return Ite(substitute(e.cond, current, nxt), substitute(e.then, current, nxt),
                   substitute(e.other, current, nxt), line=e.line, col=e.col)
    if isinstance(e, InSet):
        return InSet(substitute(e.operand, current, nxt), tuple(substitute(m, current, nxt) for m in e.members),
                     line=e.line, col=e.col)
    return e


# ---------------------------------------------------------------------------
# Models

class SymbolicModel(Record):
    """A flat synchronous transition system.

    INIT and INVAR constraints are boolean, current-state only; TRANS
    constraints may also use ``next(v)``.  DEFINEs are acyclic macros over
    current-state expressions.
    """

    __slots__ = _fields = ("name", "variables", "defines", "init", "trans", "invar")
    __hash__ = None

    def __init__(self, name: str, variables: tuple[tuple[str, TypeSpec], ...],
                 defines: tuple[tuple[str, Expr], ...] = (), init: tuple[Expr, ...] = (),
                 trans: tuple[Expr, ...] = (), invar: tuple[Expr, ...] = ()):
        self.name, self.variables, self.defines = name, variables, defines
        self.init, self.trans, self.invar = init, trans, invar

    def var_names(self) -> list[str]:
        return [n for n, _ in self.variables]
