import random
from fractions import Fraction
from pathlib import Path

import pytest

from mbsa.fault_tree import (
    ProbabilityAssignment,
    build_fault_tree,
    evaluate_probability,
    rare_event_approximation,
    symbolic_probability,
)
from mbsa.probability import pexpr_to_text, prob_str, render_prob_script, symbol_params, tle_probability_text
from mbsa.analysis import CutSetResult
from mbsa.sts.parse import parse_expr_text

from conftest import fresh_python
from probability_references import evaluate, evaluate_text, script_values
from random_models import random_cut_set_cases

# ftprob artifacts of seeded random cut-set results, recorded before the
# closed form was built straight from the BDD; the texts with a shared
# subterm were recorded again when it got a ``tI`` line
CASES = Path(__file__).resolve().parent / "goldens" / "ftprob_cases"
CUT_SET_CASES = list(random_cut_set_cases())
ARTIFACTS = ("ft_probabilities.tsv", "tle_probability.txt", "tle_probability.py", "tle_probability.m")


def _tree(mcs):
    sets = sorted((frozenset(c) for c in mcs), key=lambda c: (len(c), tuple(sorted(c))))
    return build_fault_tree(CutSetResult(parse_expr_text("x"), sets, 4, None, True))


def _run_python_script(text, args):
    proc = fresh_python("-c", text + "\n", *map(str, args))
    assert proc.returncode == 0, proc.stderr
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


def test_tle_probability_text_names_the_symbols_then_the_closed_form():
    # an empty symbol list, of a top-level event with no cut set or with the
    # empty one, leaves no space after the colon
    assert tle_probability_text(symbolic_probability(_tree([]))) == "symbols:\n0\n"
    assert tle_probability_text(symbolic_probability(_tree([set()]))) == "symbols:\n1\n"
    assert tle_probability_text(symbolic_probability(_tree([{"fb"}, {"fa"}]))) == (
        "symbols: fa, fb\np_fa + (1 - p_fa) * p_fb\n")


def _ftprob_artifacts(result, sequences, probs, groups) -> dict[str, str]:
    """The probability artifacts of ``mbsa ftprob`` for one cut-set result,
    through the library calls that ``cmd_ftprob`` makes."""
    ft = build_fault_tree(result, sequences, tle_label="tle", probabilities=probs)
    pa = ProbabilityAssignment(probs, groups)
    node_probs = evaluate_probability(ft, pa)
    symbolic = symbolic_probability(ft, groups)
    lines = [f"{nid}\t{prob_str(node_probs[nid])}" for nid in sorted(node_probs)]
    lines.append(f"rare-event-sum\t{prob_str(rare_event_approximation(ft, pa))}")
    texts = ("\n".join(lines) + "\n",
             tle_probability_text(symbolic),
             render_prob_script(symbolic, "python"),
             render_prob_script(symbolic, "matlab"))
    return dict(zip(ARTIFACTS, texts))


@pytest.mark.parametrize("index", range(len(CUT_SET_CASES)))
def test_random_cut_sets_match_goldens(index):
    for name, text in _ftprob_artifacts(*CUT_SET_CASES[index]).items():
        assert text.encode("utf-8") == (CASES / f"random_{index:02d}" / name).read_bytes(), name


def test_text_is_exact_and_names_subterms_as_the_scripts_do():
    shared = 0
    for result, sequences, probs, groups in CUT_SET_CASES:
        ft = build_fault_tree(result, sequences, tle_label="tle", probabilities=probs)
        symbolic = symbolic_probability(ft, groups)
        values = {**probs, **{g.id: Fraction(g.probability) for g in groups}}
        env = {p: values[s] for s, p in zip(symbolic.symbols, symbol_params(symbolic.symbols))}
        value, named = evaluate_text(pexpr_to_text(symbolic), env)
        assert value == evaluate_probability(ft, ProbabilityAssignment(probs, groups))[ft.root]
        in_script = script_values(render_prob_script(symbolic, "python"), env)
        assert named == {name: in_script[name] for name in named}
        shared += bool(named)
    assert shared >= 10


def test_text_is_linear_in_disjoint_pairs():
    # the text once expanded every shared subterm: its length doubled with
    # each disjoint pair, and 21 pairs hit a 64 MiB cap
    for k in (9, 21, 40):
        ft = _tree([{f"e{i:02d}a", f"e{i:02d}b"} for i in range(k)])
        symbolic = symbolic_probability(ft)
        text = pexpr_to_text(symbolic)
        assert len(text.splitlines()) == k
        assert len(text) < 100 * k
        half = {p: Fraction(1, 2) for p in symbol_params(symbolic.symbols)}
        assert evaluate_text(text, half)[0] == 1 - Fraction(3, 4) ** k
