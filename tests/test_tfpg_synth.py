from pathlib import Path

import pytest

from mbsa.tfpg import Tfpg, TfpgEdge, synthesize_structure, validate_behavioral, write_tfpg
from mbsa.tfpg.activation import parse_binding

from conftest import build_extended
from random_models import random_synthesis_cases

CASES = Path(__file__).resolve().parent / "goldens" / "tfpg_synth_cases"


def test_fixture_edge_set_recovered(battery_sensor, battery_binding, battery_tfpg):
    synthesized = synthesize_structure(battery_sensor, battery_binding, step_bound=60)
    assert {(e.src, e.dst) for e in synthesized.edges} == \
        {(e.src, e.dst) for e in battery_tfpg.edges}
    assert synthesized.nodes == battery_tfpg.nodes
    assert all(e.tmin == 0 and e.tmax is None for e in synthesized.edges)


def test_synthesis_soundness(battery_sensor, battery_binding):
    # with bounds [0, inf) and modes widened to all, the synthesized structure
    # is a complete abstraction of the model it came from
    synthesized = synthesize_structure(battery_sensor, battery_binding, step_bound=60)
    widened = Tfpg(synthesized.modes, dict(synthesized.nodes),
                   tuple(TfpgEdge(e.src, e.dst, 0, None, None) for e in synthesized.edges))
    report = validate_behavioral(widened, battery_binding, battery_sensor, step_bound=40)
    assert report.complete


def test_failure_nodes_never_acquire_incoming(battery_sensor, battery_binding):
    synthesized = synthesize_structure(battery_sensor, battery_binding, step_bound=60)
    failures = set(synthesized.failures())
    assert all(e.dst not in failures for e in synthesized.edges)


SIMPLE_SMX = """MODULE simple
VAR src : boolean; mirror : boolean; off : boolean;
INIT !src & !mirror & !off;
TRANS next(mirror) = src;
TRANS next(off) = off;
TRANS next(src) = src;
"""

SIMPLE_FEI = "fault f_src: target src, template stuck_at(TRUE), dynamics permanent, prob 0.1;"

SIMPLE_BIND = """
failure F : f_src;
or D_src : src;
or D_mirror : mirror;
mode ON : !off | off;
"""


def test_zero_delay_propagation_yields_edge():
    # D_src activates simultaneously with the fault; D_mirror one step later
    xm = build_extended(SIMPLE_SMX, SIMPLE_FEI)
    binding = parse_binding(SIMPLE_BIND, xm)
    g = synthesize_structure(xm, binding, step_bound=12)
    pairs = {(e.src, e.dst) for e in g.edges}
    assert ("F", "D_src") in pairs
    assert ("D_src", "D_mirror") in pairs
    assert ("F", "D_mirror") not in pairs  # spanned by the chain


def test_unwitnessed_node_gets_no_edge():
    smx = """MODULE m
VAR a : boolean; dead : boolean;
INIT !a & !dead;
TRANS next(a) = a;
TRANS next(dead) = dead;
"""
    fei = "fault fa: target a, template stuck_at(TRUE), dynamics permanent, prob 0.1;"
    bind = """
failure F : fa;
or D : a;
or NEVER : dead;
mode ON : TRUE;
"""
    xm = build_extended(smx, fei)
    binding = parse_binding(bind, xm)
    g = synthesize_structure(xm, binding, step_bound=10)
    assert all(e.dst != "NEVER" for e in g.edges)
    assert {(e.src, e.dst) for e in g.edges} == {("F", "D")}


def test_and_node_takes_always_present_sources():
    smx = """MODULE m
VAR a : boolean; b : boolean;
INIT !a & !b;
TRANS next(a) = a;
TRANS next(b) = b;
"""
    fei = ("fault fa: target a, template stuck_at(TRUE), dynamics permanent, prob 0.1;"
           "fault fb: target b, template stuck_at(TRUE), dynamics permanent, prob 0.1;")
    bind = """
failure FA : fa;
failure FB : fb;
or DA : a;
or DB : b;
and BOTH : a & b;
mode ON : TRUE;
"""
    xm = build_extended(smx, fei)
    binding = parse_binding(bind, xm)
    g = synthesize_structure(xm, binding, step_bound=10)
    both_in = {e.src for e in g.edges if e.dst == "BOTH"}
    assert both_in == {"DA", "DB"}


def test_synthesis_deterministic(battery_sensor, battery_binding):
    a = synthesize_structure(battery_sensor, battery_binding, step_bound=60)
    b = synthesize_structure(battery_sensor, battery_binding, step_bound=60)
    assert write_tfpg(a) == write_tfpg(b)


# Pinned bytes of synthesized graphs.  Between them these inputs exercise
# cycle repair, AND parents and mode-labelled edges.
@pytest.mark.parametrize("bound", [5, 10, 20])
def test_fixture_synthesis_matches_golden(battery_sensor, battery_binding, bound):
    g = synthesize_structure(battery_sensor, battery_binding, step_bound=bound)
    assert write_tfpg(g) == (CASES / f"fixture_{bound}.tfpg").read_text(encoding="utf-8")


def test_random_synthesis_matches_goldens():
    for i, (xm, binding, bound) in enumerate(random_synthesis_cases()):
        g = synthesize_structure(xm, binding, step_bound=bound)
        assert write_tfpg(g) == (CASES / f"random_{i:02d}.tfpg").read_text(encoding="utf-8"), i
