from fractions import Fraction

import pytest

from mbsa.analysis import compute_mcs, witness
from mbsa.cca import Cascading, CcaError, Simultaneous, apply_cca, parse_cca
from mbsa.cli import main
from mbsa.fault_tree import ProbabilityAssignment, build_fault_tree, evaluate_probability, symbolic_probability
from mbsa.sts.check import type_check
from mbsa.sts.engine import Engine
from mbsa.sts.parse import parse_model

from conftest import build_extended, checked_expr, reachable_tuples
from cutset_references import brute_force_mcs
from probability_references import evaluate

PAIR_SMX = """MODULE pair
VAR a : boolean; b : boolean;
INIT !a & !b;
TRANS next(a) = a;
TRANS next(b) = b;
"""

PAIR_FEI = """
fault f1: target a, template stuck_at(TRUE), dynamics permanent, prob 0.1;
fault f2: target b, template stuck_at(TRUE), dynamics permanent, prob 0.1;
"""


@pytest.fixture()
def pair():
    return build_extended(PAIR_SMX, PAIR_FEI)


# -- parsing -------------------------------------------------------------------

def test_parse_simultaneous():
    (spec,) = parse_cca("cc burst: members {f1, f2}, pattern simultaneous, prob 1e-5;")
    assert spec.id == "burst"
    assert spec.members == frozenset({"f1", "f2"})
    assert isinstance(spec.pattern, Simultaneous)
    assert spec.probability == Fraction(1, 100000)


def test_parse_empty():
    assert parse_cca("") == []


def test_parse_cascading_windows():
    (spec,) = parse_cca("cc c: members {f1, f2}, pattern cascading(f2: [1,3]), prob 0.01;")
    assert isinstance(spec.pattern, Cascading)
    assert spec.pattern.windows == {"f2": (1, 3)}  # an unlisted member triggers at once


def test_parse_errors():
    with pytest.raises(CcaError):
        parse_cca("cc c: members {f1}, pattern simultaneous, prob 0.1;")  # < 2 members
    with pytest.raises(CcaError):
        parse_cca("cc c: members {f1, f2}, pattern cascading(f2: [3,1]), prob 0.1;")  # lo > hi
    with pytest.raises(CcaError):
        parse_cca("cc c: members {f1, f2}, pattern simultaneous, prob 2;")  # range
    with pytest.raises(CcaError):
        parse_cca("cc c: members {f1, f2}, pattern simultaneous, prob 0.1;"
                  "cc c: members {f1, f2}, pattern simultaneous, prob 0.1;")  # duplicate id



def test_repeated_member_is_reported_at_the_repetition():
    with pytest.raises(CcaError) as err:
        parse_cca("cc c: members {f1, f2, f2, f1}, pattern simultaneous, prob 0.1;", "c.cca")
    (diag,) = err.value.diagnostics
    assert (diag.line, diag.col, diag.message) == (1, 24, "duplicate member in common cause 'c'")


# -- weaving ---------------------------------------------------------------------

def test_zero_specs_identity(pair):
    assert apply_cca(pair, []) is pair


def test_simultaneous_enlarges_mcs_alphabet(pair):
    specs = parse_cca("cc burst: members {f1, f2}, pattern simultaneous, prob 0.05;")
    xm = apply_cca(pair, specs)
    tle = checked_expr(xm, "a & b")
    result = compute_mcs(xm, tle, 3)
    assert set(result.mcs) == {frozenset({"burst"}), frozenset({"f1", "f2"})}
    assert set(brute_force_mcs(xm, tle, 3).mcs) == set(result.mcs)
    # cc is registered as a basic event and appears in built trees
    ft = build_fault_tree(result)
    assert "burst" in ft.basic_events()


def test_simultaneous_trigger_fires_same_step(pair):
    specs = parse_cca("cc burst: members {f1, f2}, pattern simultaneous, prob 0.05;")
    xm = apply_cca(pair, specs)
    eng = Engine(xm.typed)
    cc_i = xm.typed.var_index["cc#burst"]
    m1 = xm.typed.var_index["mode#f1"]
    m2 = xm.typed.var_index["mode#f2"]
    for s in reachable_tuples(eng):
        for t in eng.succ_tuples(s):
            if not s[cc_i] and t[cc_i]:
                assert t[m1] == "faulty" and t[m2] == "faulty"


def test_cc_occurs_at_most_once(pair):
    specs = parse_cca("cc burst: members {f1, f2}, pattern simultaneous, prob 0.05;")
    xm = apply_cca(pair, specs)
    eng = Engine(xm.typed)
    cc_i = xm.typed.var_index["cc#burst"]
    for s in reachable_tuples(eng):
        if s[cc_i]:
            assert all(t[cc_i] for t in eng.succ_tuples(s))  # latched


def test_cascading_window_exact(pair):
    specs = parse_cca("cc casc: members {f1, f2}, pattern cascading(f1: [0,0], f2: [1,1]), prob 0.01;")
    xm = apply_cca(pair, specs)
    # restricted to the cc alone, f2 occurs exactly one step after the cause
    eng = Engine(xm.typed)
    cc_i = xm.typed.var_index["cc#casc"]
    age_i = xm.typed.var_index["age#casc"]
    m1 = xm.typed.var_index["mode#f1"]
    m2 = xm.typed.var_index["mode#f2"]
    suppress = [eng.compile(info.suppression) for name, info in xm.events.items() if name != "casc"]
    seen_cc = False
    for s in reachable_tuples(eng):
        if not all(fn(s) for fn in suppress):
            continue
        if s[cc_i]:
            seen_cc = True
            assert s[m1] == "faulty"  # f1's window is [0,0]: forced at occurrence
            if s[age_i] == 0:
                assert s[m2] == "nominal"  # f2's window has not opened yet
            else:
                assert s[m2] == "faulty"  # forced by the upper bound
    assert seen_cc


def test_cascading_mcs(pair):
    specs = parse_cca("cc casc: members {f1, f2}, pattern cascading(f2: [1,3]), prob 0.01;")
    xm = apply_cca(pair, specs)
    tle = checked_expr(xm, "a & b")
    assert set(compute_mcs(xm, tle, 3).mcs) == {frozenset({"casc"}), frozenset({"f1", "f2"})}
    trace = witness(xm, frozenset({"casc"}), tle)
    assert trace is not None


def test_member_validation(pair):
    with pytest.raises(CcaError):
        apply_cca(pair, parse_cca("cc x: members {f1, nosuch}, pattern simultaneous, prob 0.1;"))


def test_overlapping_specs_rejected(pair):
    specs = parse_cca(
        "cc one: members {f1, f2}, pattern simultaneous, prob 0.1;"
        "cc two: members {f1, f2}, pattern simultaneous, prob 0.1;")
    with pytest.raises(CcaError) as err:
        apply_cca(pair, specs)
    assert "overlapping" in str(err.value)


def _write_pair(directory, declaration, cca):
    """PAIR_SMX declaring one more variable, PAIR_FEI and ``cca``, as m.smx, m.fei and c.cca."""
    (directory / "m.smx").write_text(PAIR_SMX.replace("b : boolean;", f"b : boolean; {declaration};"))
    (directory / "m.fei").write_text(PAIR_FEI)
    (directory / "c.cca").write_text(cca)
    return ["--model", "m.smx", "--fei", "m.fei", "--cca", "c.cca"]


@pytest.mark.parametrize("declaration", ["cc#burst : boolean", "cc#burst : 0..2"])
def test_declared_latch_is_reported_at_the_cause(declaration, tmp_path, capsys, monkeypatch):
    # what re-feeding an extended model with its own .cca does: the latch
    # the cause adds is declared already, of its own type or another
    monkeypatch.chdir(tmp_path)
    files = _write_pair(tmp_path, declaration, "cc burst: members {f1, f2}, pattern simultaneous, prob 0.05;\n")
    message = "c.cca:1:4: error: 'cc#burst', the latch variable of common cause 'burst', is already declared"
    for argv in (["extend"], ["mcs", "--tle", "a & b"]):
        assert main([*argv, *files, "--out-dir", "out"]) == 2
        assert capsys.readouterr().err.splitlines() == [message]
    assert not (tmp_path / "out").exists()


def test_declared_age_counter_is_freshened(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    files = _write_pair(tmp_path, "age#casc : boolean",
                        "cc casc: members {f1, f2}, pattern cascading(f2: [1,2]), prob 0.01;\n")
    assert main(["extend", *files, "--out-dir", "out"]) == 0
    extended = (tmp_path / "out" / "m_extended.smx").read_text()
    assert "  age#casc : boolean;\n" in extended and "  age#casc2 : 0..3;\n" in extended
    assert main(["extend", "--model", "out/m_extended.smx", "--out-dir", "again"]) == 0  # re-reads
    assert type_check(parse_model(extended)).var_names() == [
        "a#nominal", "b#nominal", "age#casc", "mode#f1", "mode#f2", "cc#casc", "age#casc2"]
    assert main(["mcs", *files, "--tle", "a & b", "--out-dir", "out"]) == 0
    assert capsys.readouterr().err == ""


# -- probability conditioning ---------------------------------------------------

def _pair_tree(pair):
    tle = checked_expr(pair, "a & b")
    return build_fault_tree(compute_mcs(pair, tle, 2))


def test_worked_conditioning_example(pair):
    # AND(f1, f2) with member probability 0.1 each, simultaneous cc 0.05:
    # P = 0.05 * 1 + 0.95 * 0.01 = 0.0595
    ft = _pair_tree(pair)
    groups = parse_cca("cc g: members {f1, f2}, pattern simultaneous, prob 0.05;")
    pa = ProbabilityAssignment({"f1": Fraction("0.1"), "f2": Fraction("0.1")}, groups)
    assert evaluate_probability(ft, pa)[ft.root] == Fraction("0.0595")


def test_cc_probability_zero_reduces_to_independent(pair):
    ft = _pair_tree(pair)
    groups = parse_cca("cc g: members {f1, f2}, pattern simultaneous, prob 0;")
    pa = ProbabilityAssignment({"f1": Fraction("0.1"), "f2": Fraction("0.1")}, groups)
    assert evaluate_probability(ft, pa)[ft.root] == Fraction("0.01")


def test_cc_probability_one_forces_tree(pair):
    ft = _pair_tree(pair)
    groups = parse_cca("cc g: members {f1, f2}, pattern simultaneous, prob 1;")
    pa = ProbabilityAssignment({"f1": Fraction("0.1"), "f2": Fraction("0.1")}, groups)
    assert evaluate_probability(ft, pa)[ft.root] == 1


def test_symbolic_includes_cc_symbol(pair):
    ft = _pair_tree(pair)
    groups = parse_cca("cc g: members {f1, f2}, pattern simultaneous, prob 0.05;")
    sp = symbolic_probability(ft, groups)
    assert sp.symbols == ("f1", "f2", "g")
    env = {"f1": Fraction("0.1"), "f2": Fraction("0.1"), "g": Fraction("0.05")}
    assert evaluate(sp, env) == Fraction("0.0595")


def test_group_member_absent_from_tree(pair):
    from mbsa.fault_tree import FaultTreeError
    result = compute_mcs(pair, checked_expr(pair, "a"), 1)
    ft = build_fault_tree(result)  # only f1 appears
    groups = parse_cca("cc g: members {f1, f2}, pattern simultaneous, prob 0.5;")
    with pytest.raises(FaultTreeError):
        evaluate_probability(ft, ProbabilityAssignment({"f1": Fraction(1, 2)}, groups))
