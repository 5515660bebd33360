import random
import tracemalloc

import pytest

from mbsa.sts.engine import Engine, Trace, replay_ok
from mbsa.tfpg import (Tfpg, TfpgEdge, admits, parse_binding, parse_tfpg, synthesize_structure,
                       validate_behavioral)
from mbsa.tfpg import synth, validate
from mbsa.tfpg.activation import BindingEvaluator, activation_trace_of
from mbsa.tfpg.product import explore
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


@pytest.mark.parametrize("job, explored, expansions, labels, steps", [
    ("check", 5200, 5200, 5200, 9560), ("refute", 4872, 4134, 4879, 7969),
    ("synth", None, 5200, 5200, 5224)])
def test_product_search_expands_and_observes_each_model_state_once(
        monkeypatch, battery_tfpg, battery_binding, battery_sensor, job, explored, expansions, labels,
        steps):
    # many product states share a model state: its successors are generated
    # once, when it is first expanded, and its label once, when it is first
    # seen; the abstract step is taken once per (abstract state, label)
    init, succ, observe = Engine.init_tuples, Engine.succ_tuples, BindingEvaluator.observe
    seen, expanded, observed, stepped = set(), [], {}, []

    def init_tuples(self, forbidden=0):
        states = init(self, forbidden)
        seen.update(states)
        return states

    def succ_tuples(self, s, forbidden=0):
        expanded.append(s)
        states = succ(self, s, forbidden)
        seen.update(states)
        return states

    def observe_state(self, s):
        observed.setdefault(self, []).append(s)
        return observe(self, s)

    def explore_counted(engine, ev, start, step, *rest):
        def step_counted(*args):
            stepped.append(args)
            return step(*args)
        return explore(engine, ev, start, step_counted, *rest)

    monkeypatch.setattr(Engine, "init_tuples", init_tuples)
    monkeypatch.setattr(Engine, "succ_tuples", succ_tuples)
    monkeypatch.setattr(BindingEvaluator, "observe", observe_state)
    for module in (validate, synth):
        monkeypatch.setattr(module, "explore", explore_counted)
    if job == "synth":
        synthesize_structure(battery_sensor, battery_binding, step_bound=60)
    else:
        graph = battery_tfpg if job == "check" else _drop_edge(battery_tfpg, "B1_DEAD", "S2_NO")
        report = validate_behavioral(graph, battery_binding, battery_sensor, step_bound=60)
        assert report.explored_states == explored
        assert report.complete == (job == "check")
    assert len(set(expanded)) == len(expanded) == expansions
    searched = next(iter(observed.values()))  # the search's evaluator comes first
    assert len(set(searched)) == len(searched) == labels
    assert set(searched) == seen
    assert len(set(stepped)) == len(stepped) == steps
    if job == "refute":
        assert replay_ok(battery_sensor.typed, report.counterexamples[0][0])


@pytest.mark.parametrize("job, bound_mib", [("check", 2.7), ("synth", 4.4)])
def test_product_search_peak_memory(battery_tfpg, battery_binding, battery_sensor, job, bound_mib):
    # the search keeps its keys and table entries as small ints and its
    # successor rows as tuples; synthesis reads its instances off the table
    # once the search has returned, and keeps one copy of them.  Each bound
    # lies between the traced peak of this search (check 2.04 MiB, synth
    # 2.39; 2.75 with each node's instance set kept) and that of one with tuple
    # keys, (id, stop) entries, list rows and tuple instances recorded
    # during the search (3.12, 5.28)
    if job == "check":
        run = lambda: validate_behavioral(battery_tfpg, battery_binding, battery_sensor, step_bound=60)
    else:
        run = lambda: synthesize_structure(battery_sensor, battery_binding, step_bound=60)
    run()  # builds the engine and its generated functions
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound_mib * 2**20


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
