"""Model expressions as Python source, and the engine's generated functions.

Expressions become Python operator text over locals named by state index:
``cI`` is variable ``I`` of the source state, ``nI`` of the state being
built, ``dK`` / ``eK`` define ``K`` over one or the other.  The source holds
only these names, Python operators and ``repr`` literals, never a user
identifier.  A define is bound to a local once per evaluation context,
before its first use, so nested defines give linear rather than exponential
text.  A gated check prunes only while its bit of the mask ``r`` is set, a
parameter of ``f`` that every continuation receives.  ``enumerator`` stages
an engine's successor and initial-state functions from these pieces (see
:mod:`mbsa.sts.engine`); in a reordered loop nest ``wI`` is the rank digit of
variable ``I``'s value.
"""

from __future__ import annotations

from mbsa.diagnostics import ResourceCapError
from mbsa.sts.check import TypedModel
from mbsa.sts.model import BinOp, BoolConst, Expr, InSet, IntConst, IntRangeType, Ite, Name, Next, UnOp

TYPE_CHECKING = False  # typing.TYPE_CHECKING, without importing typing at start-up
if TYPE_CHECKING:
    from mbsa.sts.engine import Engine

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
        """Bind next-state variable ``i``; ``prune`` when an integer value
        leaves its range.  A checked expression evaluates to a value of its
        variable's type, a literal of that same enumeration or an ``int``, so
        the range is the only test a computed value needs."""
        self.bind(f"n{i}", self.expr(rhs, ctx))
        if isinstance(ty, IntRangeType):
            self.line(f"if not {ty.lo} <= n{i} <= {ty.hi}: {prune}")

    def check(self, e: Expr, ctx, prune: str, gate: int = 0):
        text = self.expr(e, ctx, _NOT)
        self.line(f"if {f'r & {gate} and ' if gate else ''}not {text}: {prune}")

    def loop(self, i: int, domain: tuple | range, radix: int | None = None):
        """Bind next-state variable ``i`` to each value of ``domain`` in turn;
        given a ``radix``, bind ``wI`` to the value's position times it."""
        if self.loops == _MAX_LOOPS:
            # continue in a new function that receives every local bound so far
            args = ", ".join(["out", *self.names])
            name = f"k{len(self.funcs)}"
            self.line(f"{name}({args})")
            self.funcs.append([f"def {name}({args}):"])
            self.indent, self.loops = 1, 0
        if radix is None:
            self.line(f"for n{i} in {tuple(domain)!r}:")
        else:
            self.line(f"for n{i}, w{i} in {tuple((v, k * radix) for k, v in enumerate(domain))!r}:")
            self.names.append(f"w{i}")
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


def enumerator(eng: Engine, succ: bool):
    """The staged enumerator of ``eng``: ``f(s, r)`` lists the successors of
    ``s`` when ``succ``, else ``f(r)`` the initial states, under mask ``r``,
    in canonical order."""
    tm = eng.tm
    if succ:
        assigns, actx = eng._trans_assign, STEP
        checks = [(c, STEP, 0) for c in eng._trans_checks] + [(c, STATE, 0) for c in tm.model.invar]
    else:
        assigns, actx = eng._init_assign, STATE
        checks = [(c, STATE, 0) for c in [*eng._init_checks, *tm.model.invar]]
    checks += [(c, STATE, 1 << k) for k, c in enumerate(eng.guards)]
    assigned = {i for i, _, _ in assigns}
    free = [i for i in range(eng.nvars) if i not in assigned]
    size = 1
    for i in free:
        size *= len(tm.domains[i])
        if size > eng.cap:
            raise ResourceCapError(f"enumeration of {size}+ candidate states exceeds cap {eng.cap}")

    order = _loop_order(eng, free, assigns, actx is STEP)
    # loop level k binds the k-th variable of the order; level 0 runs once per call
    level = {i: k for k, i in enumerate(order, 1)}
    used: set[tuple[str, tuple]] = set()  # (define, context) pairs

    def level_of(e: Expr, ctx) -> int:
        """The first level at which every reference of ``e`` is bound."""
        names, defs = eng.refs(e, nxt=ctx is STEP)
        used.update((name, ctx) for name in defs)
        return max((level[tm.var_index[n]] for n in names), default=0)

    stages = [([], [], []) for _ in range(len(order) + 1)]  # per level: assignments, defines, checks
    for i, rhs, ty in assigns:
        level[i] = level_of(rhs, actx)
        stages[level[i]][0].append((i, rhs, ty))
    for e, ctx, gate in checks:
        stages[level_of(e, ctx)][2].append((e, ctx, gate))
    g = Source(tm, "def f(s, r):" if succ else "def f(r):")
    # every define in use is bound once per context, at its own level
    for name, ctx in sorted(used, key=lambda d: (g.define_ids[d[0]], d[1][2])):
        stages[level_of(tm.defines[name], ctx)][1].append((name, ctx))

    if succ and eng.nvars:
        cur = [f"c{i}" for i in range(eng.nvars)]
        g.line(f"{', '.join(cur)}, = s")
        g.names.extend(cur)
    g.names.append("r")
    # a reordered nest files each state under its rank in canonical order:
    # the domain positions of the free variables in declaration order, as
    # the digits of one mixed-radix int, each loop binding its own digit
    radix, weight = {}, 1
    if order != free:
        for i in reversed(free):
            radix[i] = weight
            weight *= len(tm.domains[i])
    for lv, (asg, defs, chks) in enumerate(stages):
        if lv:
            g.loop(order[lv - 1], tm.domains[order[lv - 1]], radix.get(order[lv - 1]))
        prune = "continue" if lv else "return []"
        for i, rhs, ty in asg:
            g.assign(i, rhs, actx, ty, prune)
        for name, ctx in defs:
            g.define(name, ctx)
        for e, ctx, gate in chks:
            g.check(e, ctx, prune, gate)
        if not lv and free:
            g.line("out = {}" if radix else "out = []")
    state = "(" + "".join(f"n{i}, " for i in range(eng.nvars)) + ")"
    if radix:
        g.line(f"out[{' + '.join(f'w{i}' for i in order)}] = {state}")
        g.funcs[0].append("    return [out[q] for q in sorted(out)]")
    elif free:
        g.line(f"out.append({state})")
        g.funcs[0].append("    return out")
    else:
        g.line(f"return [{state}]")
    return g.build()


def _loop_order(eng: Engine, free: list[int], assigns, nxt: bool) -> list[int]:
    """The order in which an enumerator binds the ``free`` variables:
    declaration order, except that each variable is followed at once by the
    other free variables that a guard reading it needs, so that the guard
    prunes before the loops of unrelated variables.  A guard needs the free
    variables its references are computed from."""
    needs = {i: {i} for i in free}
    for i, rhs, _ in assigns:
        needs[i] = set().union(*(needs[eng.tm.var_index[n]] for n in eng.refs(rhs, nxt)[0]))
    reads = [set().union(*(needs[eng.tm.var_index[n]] for n in eng.refs(e, nxt=False)[0])) for e in eng.guards]
    order: list[int] = []
    for v in free:
        for i in (v, *sorted(set().union(*(d for d in reads if v in d)))):
            if i not in order:
                order.append(i)
    return order
