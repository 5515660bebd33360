"""Exact evaluation of symbolic probabilities, for oracle checks.

The toolkit itself never evaluates a ``ProbabilityExpr``: it renders it as
text and scripts.  Tests evaluate it here, over ``fractions.Fraction``, and
compare with the BDD evaluation and the indicator oracle.
"""

from fractions import Fraction

from mbsa.probability import PConst, PNode, ProbabilityExpr, PSym, _ssa


def evaluate(expr: ProbabilityExpr, env: dict[str, Fraction]) -> Fraction:
    values: dict[int, Fraction] = {}

    def value(n: PNode) -> Fraction:
        if isinstance(n, PConst):
            return n.value
        if isinstance(n, PSym):
            return Fraction(env[n.name])
        return values[id(n)]

    for n in _ssa(expr.root):
        a, b = value(n.left), value(n.right)
        values[id(n)] = a + b if n.op == "+" else a - b if n.op == "-" else a * b
    return value(expr.root)
