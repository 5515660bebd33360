import random

import pytest

from mbsa.sts.engine import Engine, Trace, replay_ok
from mbsa.tfpg import Tfpg, TfpgEdge, admits, parse_binding, parse_tfpg, validate_behavioral
from mbsa.tfpg.activation import activation_trace_of
from mbsa.tfpg.validate import Inconsistency

from conftest import build_extended
from tfpg_references import monitor_run


def _drop_edge(g, src, dst):
    edges = tuple(e for e in g.edges if not (e.src == src and e.dst == dst))
    assert len(edges) == len(g.edges) - 1
    return Tfpg(g.modes, dict(g.nodes), edges)


def test_fixture_is_complete(battery_tfpg, battery_binding, battery_sensor):
    report = validate_behavioral(battery_tfpg, battery_binding, battery_sensor, step_bound=60)
    assert report.complete
    assert report.counterexamples == []


def test_removed_cross_edge_flips_verdict(battery_tfpg, battery_binding, battery_sensor):
    mutated = _drop_edge(battery_tfpg, "B1_DEAD", "S2_NO")
    report = validate_behavioral(mutated, battery_binding, battery_sensor, step_bound=60)
    assert report.verdict == "incomplete"
    trace, inc = report.counterexamples[0]
    assert inc.node == "S2_NO"
    assert replay_ok(battery_sensor.typed, trace)
    # the counterexample is exactly a trace the mutated graph does not admit
    at = activation_trace_of(trace, battery_binding, battery_sensor)
    assert not admits(mutated, at).ok
    assert admits(battery_tfpg, at).ok


def test_maximally_permissive_graph_is_complete(battery_tfpg, battery_binding, battery_sensor):
    # all bounds [0, inf) and every mode enabled, over a complete edge set:
    # activations in this model are monotone, so nothing can be refused
    permissive = Tfpg(
        battery_tfpg.modes,
        dict(battery_tfpg.nodes),
        tuple(TfpgEdge(e.src, e.dst, 0, None, None) for e in battery_tfpg.edges),
    )
    report = validate_behavioral(permissive, battery_binding, battery_sensor, step_bound=25)
    assert report.complete


def test_complete_verdict_rechecked_on_sampled_traces(battery_tfpg, battery_binding, battery_sensor):
    # a complete verdict must agree with per-trace admission on sampled runs
    xm = battery_sensor
    eng = Engine(xm.typed)
    rng = random.Random(0)
    inits = eng.init_tuples()
    for _ in range(1000):
        state = rng.choice(inits)
        tuples = [state]
        for _ in range(rng.randint(1, 25)):
            succ = eng.succ_tuples(tuples[-1])
            if not succ:
                break
            tuples.append(rng.choice(succ))
        trace = Trace([eng.to_dict(s) for s in tuples])
        at = activation_trace_of(trace, battery_binding, xm)
        assert admits(battery_tfpg, at).ok
        assert monitor_run(battery_tfpg, at)


def test_counterexample_is_shortest(battery_tfpg, battery_binding, battery_sensor):
    mutated = _drop_edge(battery_tfpg, "B1_DEAD", "S2_NO")
    report = validate_behavioral(mutated, battery_binding, battery_sensor, step_bound=60)
    n = len(report.counterexamples[0][0])
    shorter = validate_behavioral(mutated, battery_binding, battery_sensor, step_bound=n - 2)
    assert shorter.complete  # no violation strictly below the found depth


def test_bound_semantics(battery_tfpg, battery_binding, battery_sensor):
    # tiny bounds see no violation even on a mutated graph whose shortest
    # counterexample is deeper
    mutated = _drop_edge(battery_tfpg, "B1_DEAD", "S2_NO")
    assert validate_behavioral(mutated, battery_binding, battery_sensor, step_bound=3).complete


def test_determinism(battery_tfpg, battery_binding, battery_sensor):
    mutated = _drop_edge(battery_tfpg, "B1_DEAD", "S2_NO")
    a = validate_behavioral(mutated, battery_binding, battery_sensor, step_bound=60)
    b = validate_behavioral(mutated, battery_binding, battery_sensor, step_bound=60)
    assert a.verdict == b.verdict
    assert a.counterexamples[0][1] == b.counterexamples[0][1]
    assert a.counterexamples[0][0].states == b.counterexamples[0][0].states


def test_binding_totality_checked(battery_tfpg, battery_binding, battery_sensor):
    from mbsa.tfpg.activation import BindingError, NodeBinding
    partial = NodeBinding(dict(battery_binding.kinds), dict(battery_binding.activations),
                          dict(battery_binding.mode_exprs))
    del partial.kinds["Sys_DEAD"]
    with pytest.raises(BindingError):
        validate_behavioral(battery_tfpg, partial, battery_sensor, step_bound=5)


STUTTER_SMX = """MODULE stutter
VAR x : boolean;
DEFINE never := x & !x;
INIT x;
TRANS next(x) = x;
"""

STUTTER_FEI = "fault F: target x, template stuck_at(FALSE), dynamics permanent, prob 0.001;"


def test_violation_on_a_repeated_product_state_is_reported():
    # B must follow F within one step but never activates.  Once F has
    # occurred the model repeats its state, so the step that passes the
    # deadline leads back to a product state already stored; the violation
    # must be seen anyway
    xm = build_extended(STUTTER_SMX, STUTTER_FEI)
    binding = parse_binding("failure F : F;\nor B : never;\nmode M : TRUE;\n", xm)
    graph = parse_tfpg("modes M;\nfailure F;\nor B;\nedge F -> B [0,1] {*};\n")
    assert validate_behavioral(graph, binding, xm, step_bound=2).complete
    for bound in (3, 5, None):
        report = validate_behavioral(graph, binding, xm, step_bound=bound)
        assert report.verdict == "incomplete", bound
        trace, inc = report.counterexamples[0]
        assert inc == Inconsistency("B", "too-late", 3)
        assert len(trace) == 4 and replay_ok(xm.typed, trace)
        assert not admits(graph, activation_trace_of(trace, binding, xm)).ok
