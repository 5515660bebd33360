"""The probability core: a reduced ordered BDD of a Boolean function over
independent variables, and probability expressions over their symbols.

:class:`Bdd` (Bryant 1986; Rauzy 1993 for fault trees) gives exact
probabilities in one bottom-up pass and renders a closed form with one
Shannon combination per node.  The closed form is a DAG over the constants
0 and 1, symbols, +, - and *, in which each subterm is built once.  It is
rendered as straight-line code, linear in the DAG: the scripts name every
compound subterm, and the infix text only those that two or more terms use.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

from mbsa import reexport

# prob_str lives in the package root, so that a job that writes
# probabilities and evaluates none (extend) does not compile this module
__getattr__ = reexport(globals(), {"prob_str": "mbsa"})


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
        """Closed form of ``root``'s probability: ``p*H + (1-p)*L`` over the
        symbol ``p`` of ``names[var]`` per node reachable from ``root``, or
        ``p*H`` alone when ``lo == 0``, where ``p*H`` is ``p`` when ``hi == 1``.
        ``var`` and ``apply`` build only monotone functions, so no node has
        ``hi == 0`` or ``lo == 1``, and those cases are not handled.  Each
        ``1-p``, ``p*H`` and ``(1-p)*L`` is built once."""
        reachable: set[int] = set()
        stack = [root]
        while stack:
            u = stack.pop()
            if u > 1 and u not in reachable:
                reachable.add(u)
                stack.extend(self.nodes[u][1:])
        one = PConst(Fraction(1))
        out: dict[int, PNode] = {0: PConst(Fraction(0)), 1: one}
        syms = [PSym(name) for name in names]
        negated: dict[int, PNode] = {}  # var -> 1-p
        high: dict[tuple[int, int], PNode] = {}  # (var, hi) -> p*H
        low: dict[tuple[int, int], PNode] = {}  # (var, lo) -> (1-p)*L
        for u in sorted(reachable):
            var, hi, lo = self.nodes[u]
            p = syms[var]
            if (var, hi) not in high:
                high[var, hi] = p if hi == 1 else PBin("*", p, out[hi])
            if lo and (var, lo) not in low:
                if var not in negated:
                    negated[var] = PBin("-", one, p)
                low[var, lo] = PBin("*", negated[var], out[lo])
            out[u] = PBin("+", high[var, hi], low[var, lo]) if lo else high[var, hi]
        return out[root]


def symbol_params(symbols: tuple[str, ...]) -> list[str]:
    """Deterministic, collision-free parameter names ``p_<event>``: every
    character other than a letter or digit becomes ``_``, an empty name or
    one that starts with a digit gets a leading ``_``, and a name already
    taken gets the first free numbered suffix 2, 3, ..."""
    params: list[str] = []
    used: set[str] = set()
    for s in symbols:
        text = "".join(ch if ch.isalnum() else "_" for ch in s)
        if not text or text[0].isdigit():
            text = "_" + text
        base = "p_" + text
        cand = base
        i = 2
        while cand in used:
            cand = f"{base}{i}"
            i += 1
        used.add(cand)
        params.append(cand)
    return params


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


def _straight_line(expr: ProbabilityExpr, name_all: bool) -> tuple[list[tuple[str, str]], str]:
    """The closed form as ``(tI, infix)`` definitions and a result infix.

    ``I`` is a compound subterm's index in the order of :func:`_ssa`, so
    ``tI`` is the same value in every rendering.  A compound subterm is
    defined once and then written ``tI`` when ``name_all`` holds or two or
    more terms use it; any other is written inline, so the output is linear
    in the DAG either way."""
    prec = {"+": 1, "-": 1, "*": 2}
    sym_to_param = dict(zip(expr.symbols, symbol_params(expr.symbols)))
    order = _ssa(expr.root)
    uses = Counter(id(c) for n in order for c in (n.left, n.right))
    names: dict[int, str] = {}  # named compound node -> tI
    text: dict[int, str] = {}  # inline compound node -> its text, until its one use

    def operand(n: PNode, parent: int) -> str:
        if isinstance(n, PConst):
            return str(n.value)
        if isinstance(n, PSym):
            return sym_to_param[n.name]
        if id(n) in names:
            return names[id(n)]
        inner = text.pop(id(n))
        return f"({inner})" if prec[n.op] < parent else inner

    lines = []
    for i, n in enumerate(order):
        mine = prec[n.op]
        infix = f"{operand(n.left, mine)} {n.op} {operand(n.right, mine + (1 if n.op == '-' else 0))}"
        if name_all or uses[id(n)] > 1:
            names[id(n)] = f"t{i}"
            lines.append((f"t{i}", infix))
        else:
            text[id(n)] = infix
    return lines, operand(expr.root, 0)


def pexpr_to_text(expr: ProbabilityExpr) -> str:
    """Infix rendering of the closed form: one ``tI = <infix>`` line per
    subterm that two or more terms use, then the expression."""
    lines, result = _straight_line(expr, name_all=False)
    return "\n".join([f"{name} = {rhs}" for name, rhs in lines] + [result])


_DIALECTS = ("python", "matlab")


def render_prob_script(expr: ProbabilityExpr, dialect: str, version: str = "0.1.0") -> str:
    """Emit a self-contained evaluation script for the probability expression.

    ``python`` emits a module defining ``tle_probability`` plus a small CLI that
    reads one probability per argument; ``matlab`` emits an Octave-compatible
    function file.  Executing either at a probability vector reproduces the
    exact evaluation up to floating-point rounding.
    """
    if dialect not in _DIALECTS:
        raise ValueError(f"unknown script dialect {dialect!r}; expected one of {_DIALECTS}")
    params = symbol_params(expr.symbols)
    lines, result = _straight_line(expr, name_all=True)

    if dialect == "python":
        out = [f"# generated by mbsa {version}; do not edit",
               "",
               f"def tle_probability({', '.join(params)}):"]
        for name, rhs in lines:
            out.append(f"    {name} = {rhs}")
        out.append(f"    return {result}")
        out.extend([
            "",
            "",
            'if __name__ == "__main__":',
            "    import sys",
            "    print(tle_probability(*map(float, sys.argv[1:])))",
            "",
        ])
        return "\n".join(out)

    out = [f"% generated by mbsa {version}; do not edit",
           f"function p = tle_probability({', '.join(params)})"]
    for name, rhs in lines:
        out.append(f"  {name} = {rhs};")
    out.append(f"  p = {result};")
    out.append("end")
    out.append("")
    return "\n".join(out)
