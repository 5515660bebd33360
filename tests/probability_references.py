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


def _straight_line_values(lines: list[str], env: dict[str, Fraction]) -> dict[str, Fraction]:
    values: dict[str, Fraction] = {}
    for line in lines:
        name, rhs = line.split(" = ", 1)
        values[name] = eval(rhs, {"__builtins__": {}}, {**env, **values})
    return values


def evaluate_text(text: str, env: dict[str, Fraction]) -> tuple[Fraction, dict[str, Fraction]]:
    """The value of a ``pexpr_to_text`` rendering over ``Fraction`` values of
    its parameters (``p_<event>``), and the value of each ``tI`` it defines."""
    *definitions, result = text.splitlines()
    named = _straight_line_values(definitions, env)
    return Fraction(eval(result, {"__builtins__": {}}, {**env, **named})), named


def script_values(script: str, env: dict[str, Fraction]) -> dict[str, Fraction]:
    """The value of each ``tI`` that a Python ``tle_probability`` script assigns."""
    body = [line[4:] for line in script.splitlines() if line.startswith("    t")]
    return _straight_line_values(body, env)
