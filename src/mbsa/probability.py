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

from collections import Counter
from fractions import Fraction

from mbsa.diagnostics import ResourceCapError

# The infix closed form expands shared subterms, so its length can double with
# every disjoint cut-set pair; rendering stops past this many characters.
TEXT_CAP = 64 * 2**20


class PNode:
    __slots__ = ()


class PConst(PNode):
    __slots__ = ("value",)

    def __init__(self, value: Fraction):
        self.value = value


class PSym(PNode):
    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name


class PBin(PNode):
    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: PNode, right: PNode):
        self.op, self.left, self.right = op, left, right  # op: "+", "-", "*"


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


class ProbabilityExpr:
    """A symbolic probability: DAG root plus the symbol order for rendering."""

    __slots__ = ("root", "symbols")

    def __init__(self, root: PNode, symbols: tuple[str, ...]):
        self.root, self.symbols = root, symbols


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
        """Conjunction (``op == "and"``) or disjunction (``"or"``) of two nodes.

        Iterative, so the depth of the BDD is not bounded by Python's
        recursion limit; nodes are created in the order of the recursive
        definition (high branch, then low branch, then the node).
        """
        absorbing, neutral = (0, 1) if op == "and" else (1, 0)
        todo: list[tuple] = [(u, v)]  # operand pairs, and (None, key, top) once both branches are done
        done: list[int] = []
        while todo:
            item = todo.pop()
            if item[0] is None:
                _, key, top = item
                lo = done.pop()
                self._memo[key] = out = self.mk(top, done.pop(), lo)
                done.append(out)
                continue
            u, v = item
            if u == absorbing or v == absorbing:
                done.append(absorbing)
                continue
            if u == neutral or u == v:
                done.append(v)
                continue
            if v == neutral:
                done.append(u)
                continue
            key = (op, u, v) if u < v else (op, v, u)
            out = self._memo.get(key)
            if out is not None:
                done.append(out)
                continue
            (i, u_hi, u_lo), (j, v_hi, v_lo) = self.nodes[u], self.nodes[v]
            top = min(i, j)
            if i != top:
                u_hi = u_lo = u
            if j != top:
                v_hi = v_lo = v
            todo += [(None, key, top), (u_lo, v_lo), (u_hi, v_hi)]
        return done[0]

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


def _ssa(root: PNode) -> list[PBin]:
    """Linearize the DAG: every compound node once, children first, in the
    post-order of a left-to-right depth-first walk."""
    order: list[PBin] = []
    seen: set[int] = set()
    stack: list[tuple[PNode, bool]] = [(root, False)]
    while stack:
        n, children_done = stack.pop()
        if children_done:
            order.append(n)
        elif isinstance(n, PBin) and id(n) not in seen:
            seen.add(id(n))
            stack += [(n, True), (n.right, False), (n.left, False)]
    return order


def pexpr_to_text(expr: ProbabilityExpr) -> str:
    """Infix rendering of the closed form (shared subterms are expanded).

    Raises ``ResourceCapError`` once a subterm's text exceeds ``TEXT_CAP``
    characters."""
    prec = {"+": 1, "-": 1, "*": 2}
    order = _ssa(expr.root)
    text: dict[int, str] = {}  # compound node -> its text, built once, children first
    # parents not yet built, per node: a text is dropped after its last use
    waiting = Counter(id(c) for n in order for c in (n.left, n.right))

    def operand(n: PNode, parent: int) -> str:
        if isinstance(n, PConst):
            return _literal(n.value)
        if isinstance(n, PSym):
            return "p_" + _sanitize(n.name)
        return f"({text[id(n)]})" if prec[n.op] < parent else text[id(n)]

    for n in order:
        mine = prec[n.op]
        text[id(n)] = f"{operand(n.left, mine)} {n.op} {operand(n.right, mine + (1 if n.op == '-' else 0))}"
        if len(text[id(n)]) > TEXT_CAP:
            raise ResourceCapError(f"tle_probability.txt: closed form exceeds {TEXT_CAP} characters")
        for c in (n.left, n.right):
            waiting[id(c)] -= 1
            if not waiting[id(c)]:
                text.pop(id(c), None)
    return operand(expr.root, 0)


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
