"""Model expressions as Python source, for the engine's generated functions.

Expressions become Python operator text over locals named by state index:
``cI`` is variable ``I`` of the source state, ``nI`` of the state being
built, ``dK`` / ``eK`` define ``K`` over one or the other.  The source holds
only these names, Python operators and ``repr`` literals, never a user
identifier.  A define is bound to a local once per evaluation context,
before its first use, so nested defines give linear rather than exponential
text.  A gated check prunes only while its bit of the mask ``r`` is set, a
parameter of ``f`` that every continuation receives.
"""

from __future__ import annotations

from mbsa.sts.check import TypedModel
from mbsa.sts.model import BinOp, BoolConst, BoolType, EnumType, Expr, InSet, IntConst, Ite, Name, Next, UnOp

# Python precedence levels, loosest first; an operand is parenthesized only
# when it binds looser than its position requires
_COND, _OR, _AND, _NOT, _CMP, _ARITH, _NEG, _ATOM = range(8)

# model operator -> (Python operator, precedence, left and right operand precedence)
_BINOPS = {
    "&": ("and", _AND, _AND, _AND),
    "|": ("or", _OR, _OR, _OR),
    "<->": ("==", _CMP, _ARITH, _ARITH),
    "=": ("==", _CMP, _ARITH, _ARITH),
    "!=": ("!=", _CMP, _ARITH, _ARITH),
    "<": ("<", _CMP, _ARITH, _ARITH),
    "<=": ("<=", _CMP, _ARITH, _ARITH),
    ">": (">", _CMP, _ARITH, _ARITH),
    ">=": (">=", _CMP, _ARITH, _ARITH),
    "+": ("+", _ARITH, _ARITH, _NEG),
    "-": ("-", _ARITH, _ARITH, _NEG),
}

# Evaluation contexts: source templates of a current-state and a next-state
# reference by variable index, and the prefix of the locals defines bind to.
STEP = ("c{}", "n{}", "d")      # TRANS: current = the source state, next = the state being built
STATE = ("n{}", None, "e")      # INIT and INVAR: current = the state being built
PRED = ("s[{}]", None, "d")     # Engine.compile: f(s) over a whole tuple

# CPython allows 20 statically nested blocks per function; deeper loop nests
# continue in a fresh function
_MAX_LOOPS = 16


def _set_src(values) -> str:
    """A literal for membership tests (``x in {...}`` compiles to a frozenset constant)."""
    return "{" + ", ".join(repr(v) for v in values) + "}" if values else "()"


def _out_of_type(local: str, ty) -> str:
    """Condition under which a computed value does not fit its variable's type."""
    if isinstance(ty, BoolType):
        return f"{local} is not True and {local} is not False"
    if isinstance(ty, EnumType):
        return f"{local} not in {_set_src(ty.literals)}"
    return f"not ({local}.__class__ is int and {ty.lo} <= {local} <= {ty.hi})"


class Source:
    """One generated module: the entry function ``f`` and the continuations
    ``k1, k2, ...`` of loop nests deeper than ``_MAX_LOOPS``."""

    def __init__(self, tm: TypedModel, header: str):
        self.tm = tm
        self.define_ids = {name: k for k, name in enumerate(tm.defines)}
        self.funcs = [[header]]
        self.indent = 1
        self.loops = 0  # loops open in the current function
        self.bound: dict[tuple[str, str], str] = {}  # (define, context prefix) -> local
        self.names: list[str] = []  # locals bound so far

    def line(self, text: str):
        self.funcs[-1].append("    " * self.indent + text)

    def bind(self, local: str, text: str):
        self.line(f"{local} = {text}")
        self.names.append(local)

    def define(self, name: str, ctx) -> str:
        local = self.bound.get((name, ctx[2]))
        if local is None:
            text = self.expr(self.tm.defines[name], ctx)
            local = self.bound[(name, ctx[2])] = f"{ctx[2]}{self.define_ids[name]}"
            self.bind(local, text)
        return local

    def assign(self, i: int, rhs: Expr, ctx, ty, prune: str):
        """Bind next-state variable ``i``; ``prune`` when the value is out of type."""
        text = self.expr(rhs, ctx)
        self.bind(f"n{i}", text)
        self.line(f"if {_out_of_type(f'n{i}', ty)}: {prune}")

    def check(self, e: Expr, ctx, prune: str, gate: int = 0):
        text = self.expr(e, ctx, _NOT)
        self.line(f"if {f'r & {gate} and ' if gate else ''}not {text}: {prune}")

    def loop(self, i: int, domain: tuple | range):
        """Bind next-state variable ``i`` to each value of ``domain`` in turn."""
        if self.loops == _MAX_LOOPS:
            # continue in a new function that receives every local bound so far
            args = ", ".join(["out", *self.names])
            name = f"k{len(self.funcs)}"
            self.line(f"{name}({args})")
            self.funcs.append([f"def {name}({args}):"])
            self.indent, self.loops = 1, 0
        self.line(f"for n{i} in {tuple(domain)!r}:")
        self.indent += 1
        self.loops += 1
        self.names.append(f"n{i}")

    def build(self):
        """Execute the source; returns the entry function ``f``."""
        ns: dict = {}
        exec(compile("\n".join(line for f in self.funcs for line in f), "<mbsa-engine>", "exec"), ns)
        return ns["f"]

    def expr(self, e: Expr, ctx, need: int = _COND) -> str:
        text, prec = self._expr(e, ctx)
        return text if prec >= need else f"({text})"

    def _expr(self, e: Expr, ctx) -> tuple[str, int]:
        if isinstance(e, (BoolConst, IntConst)):
            return repr(e.value), _NEG if e.value < 0 else _ATOM
        if isinstance(e, Name):
            idx = self.tm.var_index.get(e.name)
            if idx is not None:
                return ctx[0].format(idx), _ATOM
            if e.name in self.tm.defines:
                return self.define(e.name, ctx), _ATOM
            return repr(e.name), _ATOM
        if isinstance(e, Next):
            return ctx[1].format(self.tm.var_index[e.name]), _ATOM
        if isinstance(e, UnOp):
            if e.op == "!":
                return "not " + self.expr(e.operand, ctx, _NOT), _NOT
            return "-" + self.expr(e.operand, ctx, _NEG), _NEG
        if isinstance(e, BinOp):
            if e.op == "->":
                return f"not {self.expr(e.left, ctx, _NOT)} or {self.expr(e.right, ctx, _OR)}", _OR
            op, prec, lp, rp = _BINOPS[e.op]
            return f"{self.expr(e.left, ctx, lp)} {op} {self.expr(e.right, ctx, rp)}", prec
        if isinstance(e, Ite):
            return (f"{self.expr(e.then, ctx, _OR)} if {self.expr(e.cond, ctx, _OR)} "
                    f"else {self.expr(e.other, ctx)}"), _COND
        if isinstance(e, InSet):
            vals = [m.value if isinstance(m, (IntConst, BoolConst)) else m.name for m in e.members]
            return f"{self.expr(e.operand, ctx, _ARITH)} in {_set_src(vals)}", _CMP
        raise AssertionError(f"unhandled node {e!r}")
