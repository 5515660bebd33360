import random
import subprocess
import sys
from fractions import Fraction

import pytest

from mbsa.fault_tree import ProbabilityAssignment, build_fault_tree, evaluate_probability, symbolic_probability
from mbsa.probability import PBuilder, pexpr_to_text, prob_str, render_prob_script
from mbsa.analysis import CutSetResult
from mbsa.sts.parse import parse_expr_text

from probability_references import evaluate


def _tree(mcs):
    sets = sorted((frozenset(c) for c in mcs), key=lambda c: (len(c), tuple(sorted(c))))
    return build_fault_tree(CutSetResult(parse_expr_text("x"), sets, 4, None, True))


def _run_python_script(text, args):
    proc = subprocess.run([sys.executable, "-c", text + "\n", *map(str, args)],
                          capture_output=True, text=True, check=True)
    return float(proc.stdout.strip())


def test_identity_script():
    sp = symbolic_probability(_tree([{"a"}]))
    script = render_prob_script(sp, "python")
    assert _run_python_script(script, [0.37]) == pytest.approx(0.37, abs=1e-12)


def test_constant_zero_script():
    sp = symbolic_probability(_tree([]))
    script = render_prob_script(sp, "python")
    assert "return 0" in script
    assert _run_python_script(script, []) == 0.0


def test_python_script_matches_evaluation_at_random_vectors():
    ft = _tree([{"fc"}, {"fa", "fb"}, {"fb", "fd"}])
    sp = symbolic_probability(ft)
    script = render_prob_script(sp, "python")
    rng = random.Random(0)
    for _ in range(10):
        vec = [rng.random() for _ in sp.symbols]
        pa = ProbabilityAssignment({s: Fraction(v) for s, v in zip(sp.symbols, vec)})
        expected = float(evaluate_probability(ft, pa)[ft.root])
        got = _run_python_script(script, vec)
        assert got == pytest.approx(expected, abs=1e-9)


def test_matlab_script_shape():
    ft = _tree([{"fa", "fb"}])
    sp = symbolic_probability(ft)
    text = render_prob_script(sp, "matlab")
    assert text.startswith("% generated by mbsa")
    assert "function p = tle_probability(p_fa, p_fb)" in text
    assert text.rstrip().endswith("end")
    # octave/matlab statements end with semicolons
    body = [l for l in text.splitlines() if l.startswith("  ")]
    assert body and all(l.endswith(";") for l in body)


def test_four_parameter_fixture_script(battery_sensor):
    from mbsa.analysis import compute_mcs
    from conftest import checked_expr
    xm = battery_sensor
    ft = build_fault_tree(compute_mcs(xm, checked_expr(xm, "sys_dead"), 4))
    sp = symbolic_probability(ft)
    assert len(sp.symbols) == 4
    script = render_prob_script(sp, "python")
    assert "def tle_probability(p_G1_Off, p_G2_Off, p_S1_Off, p_S2_Off):" in script


def test_unknown_dialect():
    with pytest.raises(ValueError):
        render_prob_script(symbolic_probability(_tree([{"a"}])), "fortran")


def test_param_sanitization_and_collisions():
    from mbsa.probability import symbol_params
    params = symbol_params(("cc#burst", "cc burst", "9lives"))
    assert params == ["p_cc_burst", "p_cc_burst2", "p__9lives"]


def test_prob_str_round_trips():
    for text in ("0.001", "0.0595", "1", "0", "0.125"):
        assert prob_str(Fraction(text)) == text
    third = Fraction(1, 3)
    assert Fraction(prob_str(third)) != third  # no exact decimal exists
    assert prob_str(Fraction(prob_str(third))) == prob_str(third)  # but rendering is a fixpoint


def test_pexpr_to_text_parses_as_python():
    ft = _tree([{"fa", "fb"}, {"fc"}])
    sp = symbolic_probability(ft)
    text = pexpr_to_text(sp)
    env = {"p_fa": 0.5, "p_fb": 0.5, "p_fc": 0.5}
    assert eval(text, env) == pytest.approx(float(evaluate(sp, {s: Fraction(1, 2) for s in sp.symbols})),
                                            abs=1e-12)


def test_builder_folds_and_interns():
    b = PBuilder()
    one = b.const(1)
    assert b.add(b.const(Fraction(1, 2)), b.const(Fraction(1, 2))) is one
    x = b.sym("x")
    assert b.mul(one, x) is x
    assert b.mul(b.const(0), x).value == 0
    assert b.add(x, b.const(0)) is x
    assert b.mix(x, b.sym("y"), b.sym("y")) is b.sym("y")
