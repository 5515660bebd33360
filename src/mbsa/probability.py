"""The probability core: a reduced ordered BDD of a Boolean function over
independent variables, and probability expressions over their symbols.

:class:`Bdd` (Bryant 1986; Rauzy 1993 for fault trees) gives exact
probabilities in one bottom-up pass and renders a closed form with one
Shannon combination per node.  Expressions are a hash-consed DAG over
constants, symbols, +, -, *, built through :class:`PBuilder`, which interns
structurally equal subterms and folds constants.  Evaluation is exact over
``fractions.Fraction``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True, eq=False)
class PNode:
    pass


@dataclass(frozen=True, eq=False)
class PConst(PNode):
    value: Fraction


@dataclass(frozen=True, eq=False)
class PSym(PNode):
    name: str


@dataclass(frozen=True, eq=False)
class PBin(PNode):
    op: str  # "+", "-", "*"
    left: PNode
    right: PNode


class PBuilder:
    """Interning constructor; within one builder, equal structure is one node."""

    def __init__(self):
        self._consts: dict[Fraction, PConst] = {}
        self._syms: dict[str, PSym] = {}
        self._bins: dict[tuple, PBin] = {}

    def const(self, v) -> PConst:
        v = Fraction(v)
        node = self._consts.get(v)
        if node is None:
            node = PConst(v)
            self._consts[v] = node
        return node

    def sym(self, name: str) -> PSym:
        node = self._syms.get(name)
        if node is None:
            node = PSym(name)
            self._syms[name] = node
        return node

    def _bin(self, op: str, left: PNode, right: PNode) -> PNode:
        if isinstance(left, PConst) and isinstance(right, PConst):
            if op == "+":
                return self.const(left.value + right.value)
            if op == "-":
                return self.const(left.value - right.value)
            return self.const(left.value * right.value)
        key = (op, id(left), id(right))
        node = self._bins.get(key)
        if node is None:
            node = PBin(op, left, right)
            self._bins[key] = node
        return node

    def add(self, left: PNode, right: PNode) -> PNode:
        if isinstance(left, PConst) and left.value == 0:
            return right
        if isinstance(right, PConst) and right.value == 0:
            return left
        return self._bin("+", left, right)

    def sub(self, left: PNode, right: PNode) -> PNode:
        if isinstance(right, PConst) and right.value == 0:
            return left
        return self._bin("-", left, right)

    def mul(self, left: PNode, right: PNode) -> PNode:
        if isinstance(left, PConst):
            if left.value == 0:
                return left
            if left.value == 1:
                return right
        if isinstance(right, PConst):
            if right.value == 0:
                return right
            if right.value == 1:
                return left
        return self._bin("*", left, right)

    def mix(self, p: PNode, hi: PNode, lo: PNode) -> PNode:
        """Shannon combination p*hi + (1-p)*lo; collapses when both branches agree."""
        if hi is lo:
            return hi
        return self.add(self.mul(p, hi), self.mul(self.sub(self.const(1), p), lo))


@dataclass
class ProbabilityExpr:
    """A symbolic probability: DAG root plus the symbol order for rendering."""

    root: PNode
    symbols: tuple[str, ...]

    def evaluate(self, env: dict[str, Fraction]) -> Fraction:
        return evaluate_pnode(self.root, env)


class Bdd:
    """Reduced ordered BDD over variables ``0 .. nvars-1``, ordered by index.

    Node 0 is false and node 1 is true; every other node is ``(var, hi, lo)``
    with ``hi != lo``, interned in a unique table, so equal functions are the
    same node.  Nodes are numbered in creation order, children first.
    """

    def __init__(self, nvars: int):
        self.nodes: list[tuple[int, int, int]] = [(nvars, 0, 0), (nvars, 1, 1)]
        self._unique: dict[tuple[int, int, int], int] = {}
        self._memo: dict[tuple[str, int, int], int] = {}

    def mk(self, var: int, hi: int, lo: int) -> int:
        if hi == lo:
            return hi
        key = (var, hi, lo)
        node = self._unique.get(key)
        if node is None:
            node = self._unique[key] = len(self.nodes)
            self.nodes.append(key)
        return node

    def var(self, var: int) -> int:
        return self.mk(var, 1, 0)

    def apply(self, op: str, u: int, v: int) -> int:
        """Conjunction (``op == "and"``) or disjunction (``"or"``) of two nodes."""
        absorbing, neutral = (0, 1) if op == "and" else (1, 0)
        if u == absorbing or v == absorbing:
            return absorbing
        if u == neutral or u == v:
            return v
        if v == neutral:
            return u
        key = (op, u, v) if u < v else (op, v, u)
        out = self._memo.get(key)
        if out is None:
            (i, u_hi, u_lo), (j, v_hi, v_lo) = self.nodes[u], self.nodes[v]
            top = min(i, j)
            if i != top:
                u_hi = u_lo = u
            if j != top:
                v_hi = v_lo = v
            out = self._memo[key] = self.mk(top, self.apply(op, u_hi, v_hi), self.apply(op, u_lo, v_lo))
        return out

    def probabilities(self, probs: list[Fraction]) -> list[Fraction]:
        """Exact probability of every node when variable ``i`` holds
        independently with probability ``probs[i]``."""
        out = [Fraction(0), Fraction(1)]
        for var, hi, lo in self.nodes[2:]:
            p = probs[var]
            out.append(p * out[hi] + (1 - p) * out[lo])
        return out

    def to_pnode(self, root: int, names: list[str]) -> PNode:
        """Closed form of ``root``'s probability: one ``mix`` over the symbol
        ``names[var]`` per node reachable from ``root``."""
        reachable: set[int] = set()
        stack = [root]
        while stack:
            u = stack.pop()
            if u > 1 and u not in reachable:
                reachable.add(u)
                stack.extend(self.nodes[u][1:])
        b = PBuilder()
        out: dict[int, PNode] = {0: b.const(0), 1: b.const(1)}
        for u in sorted(reachable):
            var, hi, lo = self.nodes[u]
            out[u] = b.mix(b.sym(names[var]), out[hi], out[lo])
        return out[root]


def evaluate_pnode(node: PNode, env: dict[str, Fraction]) -> Fraction:
    memo: dict[int, Fraction] = {}

    def go(n: PNode) -> Fraction:
        key = id(n)
        if key in memo:
            return memo[key]
        if isinstance(n, PConst):
            v = n.value
        elif isinstance(n, PSym):
            v = Fraction(env[n.name])
        else:
            a, b = go(n.left), go(n.right)
            v = a + b if n.op == "+" else a - b if n.op == "-" else a * b
        memo[key] = v
        return v

    return go(node)


def prob_str(v: Fraction) -> str:
    """Stable textual probability: exact decimal when one exists, else the
    shortest float repr.  Re-parsing with Fraction() and re-rendering is a
    fixpoint, which the export round-trip tests rely on."""
    v = Fraction(v)
    if v.denominator == 1:
        return str(v.numerator)
    den = v.denominator
    twos = fives = 0
    while den % 2 == 0:
        den //= 2
        twos += 1
    while den % 5 == 0:
        den //= 5
        fives += 1
    if den == 1:
        k = max(twos, fives)
        digits = v.numerator * 10**k // v.denominator
        text = f"{digits:0{k + 1}d}"
        out = (text[:-k] + "." + text[-k:]).rstrip("0").rstrip(".")
        return out if out else "0"
    return repr(float(v))


def _sanitize(name: str) -> str:
    out = "".join(ch if ch.isalnum() else "_" for ch in name)
    if not out or out[0].isdigit():
        out = "_" + out
    return out


def symbol_params(symbols: tuple[str, ...]) -> list[str]:
    """Deterministic, collision-free parameter names ``p_<event>``."""
    params: list[str] = []
    used: set[str] = set()
    for s in symbols:
        base = "p_" + _sanitize(s)
        cand = base
        i = 2
        while cand in used:
            cand = f"{base}{i}"
            i += 1
        used.add(cand)
        params.append(cand)
    return params


def _literal(v: Fraction) -> str:
    if v.denominator == 1:
        return str(v.numerator)
    return repr(float(v))


def _ssa(root: PNode):
    """Linearize the DAG: returns ([(tmp_name, op, a, b)], final operand strings
    resolver) with shared compound nodes emitted once."""
    order: list[PBin] = []
    seen: set[int] = set()

    def visit(n: PNode):
        if id(n) in seen or not isinstance(n, PBin):
            return
        seen.add(id(n))
        visit(n.left)
        visit(n.right)
        order.append(n)

    visit(root)
    return order


def pexpr_to_text(expr: ProbabilityExpr) -> str:
    """Infix rendering of the closed form (shared subterms are expanded)."""
    prec = {"+": 1, "-": 1, "*": 2}

    def go(n: PNode, parent: int) -> str:
        if isinstance(n, PConst):
            return _literal(n.value)
        if isinstance(n, PSym):
            return "p_" + _sanitize(n.name)
        mine = prec[n.op]
        text = f"{go(n.left, mine)} {n.op} {go(n.right, mine + (1 if n.op == '-' else 0))}"
        return f"({text})" if mine < parent else text

    return go(expr.root, 0)


_DIALECTS = ("python", "matlab")


def render_prob_script(expr: ProbabilityExpr, dialect: str, function_name: str = "tle_probability",
                       version: str = "0.1.0") -> str:
    """Emit a self-contained evaluation script for the probability expression.

    ``python`` emits a module defining ``function_name`` plus a small CLI that
    reads one probability per argument; ``matlab`` emits an Octave-compatible
    function file.  Executing either at a probability vector reproduces the
    exact evaluation up to floating-point rounding.
    """
    if dialect not in _DIALECTS:
        raise ValueError(f"unknown script dialect {dialect!r}; expected one of {_DIALECTS}")
    params = symbol_params(expr.symbols)
    sym_to_param = dict(zip(expr.symbols, params))
    order = _ssa(expr.root)
    names: dict[int, str] = {}

    def operand(n: PNode) -> str:
        if isinstance(n, PConst):
            return _literal(n.value)
        if isinstance(n, PSym):
            return sym_to_param[n.name]
        return names[id(n)]

    lines = []
    for i, n in enumerate(order):
        names[id(n)] = f"t{i}"
        lines.append((f"t{i}", f"{operand(n.left)} {n.op} {operand(n.right)}"))
    result = operand(expr.root)

    if dialect == "python":
        out = [f"# generated by mbsa {version}; do not edit",
               "",
               f"def {function_name}({', '.join(params)}):"]
        for name, rhs in lines:
            out.append(f"    {name} = {rhs}")
        out.append(f"    return {result}")
        out.extend([
            "",
            "",
            'if __name__ == "__main__":',
            "    import sys",
            f"    print({function_name}(*map(float, sys.argv[1:])))",
            "",
        ])
        return "\n".join(out)

    out = [f"% generated by mbsa {version}; do not edit",
           f"function p = {function_name}({', '.join(params)})"]
    for name, rhs in lines:
        out.append(f"  {name} = {rhs};")
    out.append(f"  p = {result};")
    out.append("end")
    out.append("")
    return "\n".join(out)
