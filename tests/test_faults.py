from pathlib import Path

import pytest

from mbsa.cli import _registry_json
from mbsa.faults import (
    BUILTIN_LIBRARY,
    KINDS,
    ExtensionError,
    FaultDefinitionError,
    extend_model,
    load_fault_library,
    parse_fei,
)
from mbsa.sts.check import type_check
from mbsa.sts.model import BinOp, BoolConst, IntRangeType, Ite, Name, Next, UnOp, walk
from mbsa.sts.engine import Engine
from mbsa.sts.parse import parse_model
from mbsa.sts.pretty import print_model

from conftest import build_extended, checked_expr, reachable_tuples
from random_models import random_extend_cases

# extended models and registries of seeded random models, recorded before the
# checker and the common-cause weaving were rewritten
EXTEND_CASES = Path(__file__).resolve().parent / "goldens" / "extend_cases"
EXTENDED = list(random_extend_cases())
FEI_DOC = Path(__file__).resolve().parent.parent / "docs" / "fei-language.md"


def _tm(text):
    return type_check(parse_model(text))


# -- fault library -----------------------------------------------------------

def test_builtin_library():
    lib = load_fault_library()
    assert sorted(lib.templates) == ["conditional", "inverted", "ramp_down", "random", "stuck_at"]
    assert sorted(lib.dynamics) == ["permanent", "sporadic", "transient"]


def test_builtin_definitions():
    lib = load_fault_library()
    mode, faulty, nominal = Name("mode"), Name("faulty"), Name("nominal")
    templates = {n: (tuple((p.name, p.kind) for p in t.params), t.applies_to, t.effect)
                 for n, t in lib.templates.items()}
    assert templates == {
        "stuck_at": ((("v", "value"),), "any", Name("v")),
        "inverted": ((), "boolean", UnOp("!", nominal)),
        "random": ((), "any", None),
        "conditional": ((("guard", "expr"), ("effect", "expr")), "any", Ite(Name("guard"), Name("effect"), nominal)),
        "ramp_down": ((("step", "value"),), "int", None),
    }
    assert {n: d.constraint for n, d in lib.dynamics.items()} == {
        "permanent": BinOp("->", BinOp("=", mode, faulty), BinOp("=", Next("mode"), faulty)),
        "sporadic": BoolConst(True),
        "transient": BinOp("->", BinOp("=", mode, faulty), BinOp("=", Next("mode"), nominal)),
    }


def test_libraries_share_no_expression_node():
    def nodes(lib):
        roots = [t.effect for t in lib.templates.values() if t.effect is not None]
        return {id(n) for e in roots + [d.constraint for d in lib.dynamics.values()] for n in walk(e)}

    first, second = load_fault_library(), load_fault_library()
    assert not nodes(first) & nodes(second)


def _doc_table(text, heading):
    """First-column names of the markdown table whose header starts with ``heading``."""
    lines = text.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith(f"| {heading} "))
    names = []
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            return names
        names.append(line.split("|")[1].strip().strip("`").split("(")[0])
    return names


def test_documented_builtins_are_the_library_builtins():
    doc = FEI_DOC.read_text()
    lib = load_fault_library()
    assert sorted(_doc_table(doc, "Template")) == sorted(lib.templates)
    assert sorted(_doc_table(doc, "Dynamics")) == sorted(lib.dynamics)
    assert _doc_table(doc, "Kind") == list(KINDS)
    assert f"```\n{BUILTIN_LIBRARY}```\n" in doc


def test_user_template_merges():
    lib = load_fault_library("template drift(p : value) for int := nominal + p;")
    assert len(lib.templates) == 6
    assert lib.templates["drift"].applies_to == "int"
    # the oracle for well-typedness is instantiation against an integer target
    tm = _tm("MODULE m VAR y : 0..5; INIT y = 5; TRANS next(y) = y;")
    xm = extend_model(tm, lib, parse_fei(
        "fault d: target y, template drift(1), dynamics sporadic, prob 0.5;"))
    assert "d" in xm.events


def test_user_template_type_error_surfaces_at_instantiation():
    lib = load_fault_library("template drift(p : value) for any := nominal + p;")
    tm = _tm("MODULE m VAR y : boolean; INIT y;")
    with pytest.raises(ExtensionError):
        extend_model(tm, lib, parse_fei(
            "fault d: target y, template drift(1), dynamics sporadic, prob 0.5;"))


def test_builtin_redefinition_rejected():
    with pytest.raises(FaultDefinitionError):
        load_fault_library("template stuck_at(v : value) for any := v;")
    with pytest.raises(FaultDefinitionError):
        load_fault_library("dynamics permanent := TRUE;")


def test_user_dynamics():
    lib = load_fault_library("dynamics oneshot := mode = faulty -> next(mode) = nominal;")
    assert "oneshot" in lib.dynamics


def test_dynamics_reference_check():
    with pytest.raises(FaultDefinitionError):
        load_fault_library("dynamics bad := other = faulty;")


# -- extension instructions ----------------------------------------------------

def test_parse_fei_example():
    out = parse_fei("fault s1_off: target sensor1.out, template stuck_at(FALSE), "
                    "dynamics permanent, prob 0.001;")
    assert len(out) == 1
    ins = out[0]
    assert ins.event == "s1_off" and ins.target == "sensor1.out"
    assert ins.template == "stuck_at" and ins.dynamics == "permanent"
    assert float(ins.probability) == 0.001


def test_parse_fei_empty():
    assert parse_fei("") == []


def test_parse_fei_probability_range():
    with pytest.raises(FaultDefinitionError):
        parse_fei("fault f: target x, template inverted, dynamics permanent, prob 1.5;")


def test_parse_fei_duplicate_event():
    with pytest.raises(FaultDefinitionError):
        parse_fei("fault f: target x, template inverted, dynamics permanent, prob 0;"
                  "fault f: target y, template inverted, dynamics permanent, prob 0;")


# -- model extension -----------------------------------------------------------

NOMINAL = """MODULE small
VAR s : boolean; k : 0..2;
DEFINE out := s & k > 0;
INIT s & k = 2;
TRANS next(s) = s;
TRANS next(k) = (k > 0 ? k - 1 : k);
"""


def test_zero_instructions_identity():
    tm = _tm(NOMINAL)
    xm = extend_model(tm, load_fault_library(), [])
    assert xm.model == tm.model
    assert xm.events == {}


def _nominal_projection_traces(tm, length):
    """All traces of exactly `length` states, projected to given variables."""
    eng = Engine(tm)
    names = tm.var_names()
    out = set()

    def explore(prefix):
        if len(prefix) == length:
            out.add(tuple(prefix))
            return
        for t in eng.succ_tuples(prefix[-1]):
            explore(prefix + [t])

    for s in eng.init_tuples():
        explore([s])
    return out, names


def test_conservative_extension_trace_sets():
    # restricting the extended model to all-nominal modes and projecting onto
    # the nominal variables yields exactly the nominal trace set
    tm = _tm(NOMINAL)
    xm = build_extended(NOMINAL, "fault s_off: target s, template stuck_at(FALSE), "
                                 "dynamics permanent, prob 0.01;")
    nominal_traces, names = _nominal_projection_traces(tm, 4)

    eng = Engine(xm.typed)
    idx = [xm.typed.var_index[f"{n}#nominal" if n == "s" else n] for n in names]
    mode_i = xm.typed.var_index["mode#s_off"]
    projected = set()

    def explore(prefix):
        if len(prefix) == 4:
            projected.add(tuple(tuple(s[i] for i in idx) for s in prefix))
            return
        for t in eng.succ_tuples(prefix[-1]):
            if t[mode_i] == "nominal":
                explore(prefix + [t])

    for s in eng.init_tuples():
        explore([s])
    assert projected == nominal_traces


def test_stuck_at_permanence():
    xm = build_extended(NOMINAL, "fault s_off: target s, template stuck_at(FALSE), "
                                 "dynamics permanent, prob 0.01;")
    eng = Engine(xm.typed)
    occ = eng.compile(xm.events["s_off"].occurrence)
    s_val = eng.compile(checked_expr(xm, "s"))
    # once faulty, s reads FALSE and the mode stays faulty in all successors
    for s0 in eng.init_tuples():
        stack = [(s0, False)]
        seen = set()
        while stack:
            state, was_faulty = stack.pop()
            if (state, was_faulty) in seen:
                continue
            seen.add((state, was_faulty))
            faulty = occ(state)
            assert not (was_faulty and not faulty), "permanent fault recovered"
            if faulty:
                assert s_val(state) is False
            for t in eng.succ_tuples(state):
                stack.append((t, faulty))


def test_transient_never_two_consecutive_faulty_steps():
    xm = build_extended(NOMINAL, "fault glitch: target s, template inverted, "
                                 "dynamics transient, prob 0.01;")
    eng = Engine(xm.typed)
    occ = eng.compile(xm.events["glitch"].occurrence)
    for s in reachable_tuples(eng):
        if occ(s):
            assert all(not occ(t) for t in eng.succ_tuples(s))


def test_random_template_reaches_both_values():
    xm = build_extended(NOMINAL, "fault noisy: target s, template random, "
                                 "dynamics sporadic, prob 0.01;")
    from mbsa.analysis import witness
    faulty_and = "mode#noisy = faulty & "
    assert witness(xm, frozenset({"noisy"}), checked_expr(xm, faulty_and + "s")) is not None
    assert witness(xm, frozenset({"noisy"}), checked_expr(xm, faulty_and + "!s")) is not None


def test_conditional_template():
    xm = build_extended(NOMINAL, "fault cond: target s, template conditional(k = 0, FALSE), "
                                 "dynamics permanent, prob 0.01;")
    eng = Engine(xm.typed)
    s_val = eng.compile(checked_expr(xm, "s"))
    occ = eng.compile(xm.events["cond"].occurrence)
    k_i = xm.typed.var_index["k"]
    s_nom = xm.typed.var_index["s#nominal"]
    for state in reachable_tuples(eng):
        if occ(state) and state[k_i] == 0:
            assert s_val(state) is False
        elif state[k_i] != 0:
            assert s_val(state) == state[s_nom]  # guard false: nominal passes through


def test_ramp_down_saturates_at_lower_bound():
    # the source holds the nominal level at 6, so the observed value tracks
    # the ramp alone (self-feedback like next(level) = level would compound
    # the decay through the displaced carrier: reads see faults)
    text = "MODULE m VAR level : 0..6; INIT level = 6; TRANS next(level) = 6;"
    xm = build_extended(text, "fault leak: target level, template ramp_down(2), "
                              "dynamics permanent, prob 0.01;")
    eng = Engine(xm.typed)
    level = eng.compile(checked_expr(xm, "level"))
    occ = eng.compile(xm.events["leak"].occurrence)
    drop_i = xm.typed.var_index["drop#leak"]
    # walk one maximal faulty path: the observed level decreases by the step
    # size each faulty step and pins at the type's lower bound
    state = eng.init_tuples()[0]
    seen_levels = [level(state)]
    for _ in range(6):
        nxt = [t for t in eng.succ_tuples(state) if occ(t)]
        assert nxt
        state = max(nxt, key=lambda t: t[drop_i])
        seen_levels.append(level(state))
    assert seen_levels == [6, 4, 2, 0, 0, 0, 0]


def test_composition_order_later_wraps_earlier():
    xm = build_extended(NOMINAL,
                        "fault first: target s, template stuck_at(TRUE), dynamics sporadic, prob 0.1;"
                        "fault second: target s, template stuck_at(FALSE), dynamics sporadic, prob 0.1;")
    eng = Engine(xm.typed)
    s_val = eng.compile(checked_expr(xm, "s"))
    occ1 = eng.compile(xm.events["first"].occurrence)
    occ2 = eng.compile(xm.events["second"].occurrence)
    for state in reachable_tuples(eng):
        if occ2(state):
            assert s_val(state) is False  # the later wrap wins
        elif occ1(state):
            assert s_val(state) is True


def test_extension_serializes_to_model_language():
    xm = build_extended(NOMINAL, "fault s_off: target s, template stuck_at(FALSE), "
                                 "dynamics permanent, prob 0.01;")
    assert parse_model(print_model(xm.model)) == xm.model
    type_check(parse_model(print_model(xm.model)))


def test_define_target_extension():
    xm = build_extended(NOMINAL, "fault out_off: target out, template stuck_at(FALSE), "
                                 "dynamics permanent, prob 0.01;")
    names = [n for n, _ in xm.model.defines]
    assert "out#nominal" in names and "out" in names


SET_TESTS = """MODULE m
VAR x : 0..3; y : boolean;
INIT x in {0, 1};
INVAR x in {0, 1, 2};
TRANS next(x) in {0, 1, 2} & (x in {2} -> next(x) = 0);
TRANS next(y) = (x in {1});
"""


def test_target_read_in_a_set_test():
    # INIT and INVAR set tests and next(x) move to the carrier; the current
    # reads in TRANS keep observing the wrap
    xm = build_extended(SET_TESTS, "fault e: target x, template stuck_at(3), dynamics permanent, prob 0.1;")
    assert print_model(xm.model) == """MODULE m
VAR
  x#nominal : 0..3;
  y : boolean;
  mode#e : {nominal, faulty};
DEFINE
  x := mode#e = faulty ? 3 : x#nominal;
INIT x#nominal in {0, 1};
INIT mode#e = nominal;
TRANS next(x#nominal) in {0, 1, 2} & (x in {2} -> next(x#nominal) = 0);
TRANS next(y) = (x in {1});
TRANS mode#e = faulty -> next(mode#e) = faulty;
INVAR x#nominal in {0, 1, 2};
"""


def test_unknown_target_template_dynamics():
    tm = _tm(NOMINAL)
    lib = load_fault_library()
    with pytest.raises(ExtensionError):
        extend_model(tm, lib, parse_fei(
            "fault f: target nosuch, template stuck_at(TRUE), dynamics permanent, prob 0;"))
    with pytest.raises(ExtensionError):
        extend_model(tm, lib, parse_fei(
            "fault f: target s, template nosuch, dynamics permanent, prob 0;"))
    with pytest.raises(ExtensionError):
        extend_model(tm, lib, parse_fei(
            "fault f: target s, template stuck_at(TRUE), dynamics nosuch, prob 0;"))


def test_template_applicability():
    tm = _tm(NOMINAL)
    lib = load_fault_library()
    with pytest.raises(ExtensionError) as err:
        extend_model(tm, lib, parse_fei(
            "fault f: target k, template inverted, dynamics permanent, prob 0;"))
    assert "does not apply" in str(err.value)


def test_disjoint_extension_is_compositional():
    fei_a = "fault fs: target s, template stuck_at(FALSE), dynamics permanent, prob 0.1;"
    fei_b = "fault fk: target k, template stuck_at(0), dynamics permanent, prob 0.1;"
    both = build_extended(NOMINAL, fei_a + fei_b)
    lib = load_fault_library()
    staged = extend_model(
        extend_model(_tm(NOMINAL), lib, parse_fei(fei_a)).typed, lib, parse_fei(fei_b))
    assert both.model == staged.model


INT_TARGET = "MODULE m VAR x : 0..5; DEFINE d := x + 1; INIT x = 0; TRANS next(x) = x;"


def test_composed_instructions_keep_the_declared_integer_range():
    # after the first wrap x is a define of abstract integer type; the later
    # instructions still see 0..5 (random crashed, ramp_down and a 'for int'
    # template were rejected)
    xm = build_extended(INT_TARGET,
                        "fault a: target x, template stuck_at(4), dynamics permanent, prob 0.1;"
                        "fault b: target x, template random, dynamics permanent, prob 0.1;")
    assert dict(xm.model.variables)["choice#b"] == IntRangeType(0, 5)
    for template in ("ramp_down(1)", "drift(1)"):
        xm = build_extended(INT_TARGET,
                            "fault a: target x, template stuck_at(4), dynamics permanent, prob 0.1;"
                            f"fault b: target x, template {template}, dynamics permanent, prob 0.1;",
                            "template drift(p : value) for int := nominal - p;")
        assert sorted(xm.events) == ["a", "b"]
    eng = Engine(xm.typed)
    x = eng.compile(checked_expr(xm, "x"))
    levels = {x(s) for s in reachable_tuples(eng)}
    assert levels == {-1, 0, 3, 4}  # drift(1) over stuck_at(4) over x = 0


def test_random_needs_a_finite_domain():
    with pytest.raises(ExtensionError) as err:
        build_extended(INT_TARGET, "fault b: target d, template random, dynamics permanent, prob 0.1;")
    assert "random needs a target with a finite domain; 'd' has type integer (event b)" in str(err.value)


@pytest.mark.parametrize("index", range(len(EXTENDED)))
def test_random_extensions_match_goldens(index):
    xm = EXTENDED[index]
    names = xm.model.var_names() + [n for n, _ in xm.model.defines]
    assert len(names) == len(set(names))  # every name declared once
    for name, text in (("extended.smx", print_model(xm.model)), ("events.json", _registry_json(xm))):
        assert text.encode("utf-8") == (EXTEND_CASES / f"random_{index:02d}" / name).read_bytes(), name
