"""Type checking and name resolution for parsed models."""

from __future__ import annotations


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
    IntType,
    Ite,
    Name,
    Next,
    SymbolicModel,
    TypeSpec,
    UnOp,
    type_values,
)


class TypeError_(InputError):
    """Type or resolution problems; named with a trailing underscore to avoid
    shadowing the builtin."""


_BOOL = BoolType()
_INT = IntType()
_INTS = (IntType, IntRangeType)

# operator -> (operand types, their name in diagnostics, result type); "=" and
# "!=" take any two compatible operands instead, see _Checker._infer_equality
_SIGNATURES = {
    **dict.fromkeys(("!", "&", "|", "->", "<->"), ((BoolType,), "boolean", _BOOL)),
    **dict.fromkeys(("<", "<=", ">", ">="), (_INTS, "integer", _BOOL)),
    **dict.fromkeys(("unary -", "+", "-"), (_INTS, "integer", _INT)),
}


def _is_int(ty) -> bool:
    return isinstance(ty, _INTS)


def _compatible(a, b) -> bool:
    if isinstance(a, BoolType) and isinstance(b, BoolType):
        return True
    if _is_int(a) and _is_int(b):
        return True
    if isinstance(a, EnumType) and isinstance(b, EnumType):
        return a == b
    return False


class TypedModel:
    """A checked model plus the symbol information the engine needs.

    ``_engines`` holds the model's engines, one per key (see ``sts.engine._engine``).
    """

    __slots__ = ("model", "var_index", "var_types", "domains", "defines", "enum_literals", "_engines")

    def __init__(self, model: SymbolicModel, var_index: dict[str, int], var_types: tuple[TypeSpec, ...],
                 domains: tuple[tuple, ...], defines: dict[str, Expr],
                 enum_literals: dict[str, list[EnumType]] | None = None):
        self.model, self.var_index, self.var_types = model, var_index, var_types
        self.domains, self.defines = domains, defines
        self.enum_literals = {} if enum_literals is None else enum_literals
        self._engines: dict = {}

    def var_names(self) -> list[str]:
        return self.model.var_names()

    def check_expr(self, expr: Expr, *, filename: str = "<expr>") -> Expr:
        """Type-check a current-state expression against this model's
        symbols; returns it annotated."""
        checker = _Checker(self, filename)
        checker.infer(expr, allow_next=False)
        checker.raise_if_failed()
        return expr

    def check_predicate(self, expr: Expr, *, filename: str = "<expr>") -> Expr:
        """``check_expr`` for a state predicate (a top-level event, an FMEA
        property, a node activation or a mode): the expression must be
        boolean."""
        self.check_expr(expr, filename=filename)
        if not isinstance(expr.ty, BoolType):
            raise TypeError_([Diagnostic(f"predicate must be boolean, got {expr.ty}",
                                         expr.line, expr.col, filename=filename)])
        return expr


class _Checker:
    def __init__(self, tm: TypedModel, filename: str):
        self.tm = tm
        self.filename = filename
        self.diagnostics: list[Diagnostic] = []
        self._define_stack: list[str] = []
        self._define_types: dict[str, TypeSpec] = {}

    def error(self, node, message: str):
        self.diagnostics.append(Diagnostic(message, node.line, node.col, filename=self.filename))

    def raise_if_failed(self):
        if self.diagnostics:
            raise TypeError_(self.diagnostics)

    # -- resolution helpers -------------------------------------------------

    def define_type(self, name: str, ref: Name | Next | None = None):
        """The type of DEFINE ``name``, reached through the reference ``ref``
        (None from the top level), where a cycle is reported."""
        if name in self._define_types:
            return self._define_types[name]
        if name in self._define_stack:
            cycle = " -> ".join(self._define_stack + [name])
            raise TypeError_(self.diagnostics + [Diagnostic(f"cyclic DEFINE: {cycle}", ref.line, ref.col,
                                                            filename=self.filename)])
        self._define_stack.append(name)
        try:
            ty = self.infer(self.tm.defines[name], allow_next=False)
        finally:
            self._define_stack.pop()
        self._define_types[name] = ty
        return ty

    def name_type(self, node: Name, expected):
        name = node.name
        if name in self.tm.var_index:
            return self.tm.var_types[self.tm.var_index[name]]
        if name in self.tm.defines:
            return self.define_type(name, node)
        candidates = self.tm.enum_literals.get(name)
        if candidates:
            if isinstance(expected, EnumType) and expected in candidates:
                return expected
            if len(candidates) == 1:
                return candidates[0]
            self.error(node, f"ambiguous enumeration literal {name!r}; add context or rename")
            return candidates[0]
        self.error(node, f"unknown identifier {name!r}")
        return _BOOL

    # -- inference ----------------------------------------------------------

    def infer(self, e: Expr, *, allow_next: bool, expected=None):
        ty = self._infer(e, allow_next, expected)
        e.ty = ty
        return ty

    def _infer(self, e: Expr, allow_next: bool, expected):
        if isinstance(e, BoolConst):
            return _BOOL
        if isinstance(e, IntConst):
            return _INT
        if isinstance(e, Name):
            return self.name_type(e, expected)
        if isinstance(e, Next):
            if not allow_next:
                self.error(e, "next() is only allowed inside TRANS constraints")
            if e.name in self.tm.var_index:
                return self.tm.var_types[self.tm.var_index[e.name]]
            if e.name in self.tm.defines:
                self.error(e, f"next() applies to state variables, not DEFINE {e.name!r}")
                return self.define_type(e.name, e)
            self.error(e, f"unknown identifier {e.name!r}")
            return _BOOL
        if isinstance(e, UnOp):
            return self._apply_signature("unary -" if e.op == "-" else "!",
                                         ((e, self.infer(e.operand, allow_next=allow_next)),))
        if isinstance(e, BinOp):
            if e.op in ("=", "!="):
                return self._infer_equality(e, allow_next)
            return self._apply_signature(e.op, ((e.left, self.infer(e.left, allow_next=allow_next)),
                                                (e.right, self.infer(e.right, allow_next=allow_next))))
        if isinstance(e, Ite):
            ct = self.infer(e.cond, allow_next=allow_next)
            if not isinstance(ct, BoolType):
                self.error(e.cond, f"condition of ?: must be boolean, got {ct}")
            tt = self.infer(e.then, allow_next=allow_next, expected=expected)
            et = self.infer(e.other, allow_next=allow_next, expected=tt)
            if not _compatible(tt, et):
                self.error(e, f"branches of ?: have incompatible types {tt} and {et}")
                return tt
            if _is_int(tt):
                return tt if tt == et else _INT
            return tt
        if isinstance(e, InSet):
            ot = self.infer(e.operand, allow_next=allow_next)
            for m in e.members:
                if not isinstance(m, (Name, IntConst, BoolConst)):
                    self.error(m, "set members must be literal constants")
                    continue
                if isinstance(m, Name) and (m.name in self.tm.var_index or m.name in self.tm.defines):
                    self.error(m, f"set member {m.name!r} must be a literal constant, not a variable")
                    continue
                mt = self.infer(m, allow_next=False, expected=ot)
                if not _compatible(ot, mt):
                    self.error(m, f"set member type {mt} does not match operand type {ot}")
            return _BOOL
        raise AssertionError(f"unhandled node {e!r}")

    def _apply_signature(self, op: str, operands: tuple):
        """The result type of an operator of ``_SIGNATURES``, reporting each
        (site, type) operand of the wrong type; every operand is inferred
        before the first such report."""
        accepted, name, result = _SIGNATURES[op]
        for site, t in operands:
            if not isinstance(t, accepted):
                self.error(site, f"operand of {op} must be {name}, got {t}")
        return result

    def _infer_equality(self, e: BinOp, allow_next: bool):
        # resolve enumeration literals against the other side; when the
        # left side is itself an ambiguous literal, type the right first
        if self._needs_context(e.left):
            rt = self.infer(e.right, allow_next=allow_next)
            lt = self.infer(e.left, allow_next=allow_next, expected=rt)
        else:
            lt = self.infer(e.left, allow_next=allow_next)
            rt = self.infer(e.right, allow_next=allow_next, expected=lt)
        if not _compatible(lt, rt):
            self.error(e, f"cannot compare {lt} with {rt}")
        return _BOOL

    def _needs_context(self, e: Expr) -> bool:
        """An enumeration literal shared by several types resolves only
        against an expected type."""
        if isinstance(e, Name) and e.name not in self.tm.var_index and e.name not in self.tm.defines:
            cands = self.tm.enum_literals.get(e.name)
            return cands is not None and len(cands) > 1
        return False


def type_check(model: SymbolicModel, filename: str = "<input>") -> TypedModel:
    """Check a parsed model; returns a :class:`TypedModel` or raises TypeError_.

    Verifies name resolution, expression typing, DEFINE acyclicity, and the
    placement rule that ``next()`` appears only inside TRANS.
    """
    var_index = {name: i for i, (name, _) in enumerate(model.variables)}
    var_types = tuple(ty for _, ty in model.variables)
    defines = dict(model.defines)
    enum_literals: dict[str, list[EnumType]] = {}
    for ty in var_types:
        if isinstance(ty, EnumType):
            for lit in ty.literals:
                owners = enum_literals.setdefault(lit, [])
                if ty not in owners:
                    owners.append(ty)
    clashes = [Diagnostic(f"enumeration literal {lit!r} clashes with a declared name", filename=filename)
               for lit in enum_literals if lit in var_index or lit in defines]
    if clashes:
        raise TypeError_(clashes)

    tm = TypedModel(model, var_index, var_types, tuple(type_values(t) for t in var_types), defines, enum_literals)
    checker = _Checker(tm, filename)
    for name in defines:
        checker.define_type(name)
    for section, constraints in (("INIT", model.init), ("INVAR", model.invar), ("TRANS", model.trans)):
        for e in constraints:
            t = checker.infer(e, allow_next=section == "TRANS")
            if not isinstance(t, BoolType):
                checker.error(e, f"{section} constraint must be boolean, got {t}")
    checker.raise_if_failed()
    return tm
