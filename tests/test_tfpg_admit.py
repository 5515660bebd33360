import random

import pytest

from mbsa.tfpg import Tfpg, TfpgEdge, admits
from mbsa.tfpg.activation import ActivationTrace
from mbsa.tfpg.validate import admission_monitor

from test_tfpg_io import full_scale_graph
from tfpg_references import ReferenceMonitor, admits_by_search, label_of, monitor_run


def _at(graph, times, length=60, modes=None):
    full = {n: None for n in graph.nodes}
    full.update(times)
    if modes is None:
        modes = tuple([graph.modes[0]] * length)
    return ActivationTrace(length, full, modes)


def test_power_chain_admitted():
    g = full_scale_graph()
    at = _at(g, {"G1_Off": 0, "G1_DEAD": 0, "B1_LOW": 50, "B1_DEAD": 57, "S1_NO": 58})
    verdict = admits(g, at)
    assert verdict.ok
    assert admits_by_search(g, at)


def test_battery_death_too_late():
    g = full_scale_graph()
    at = _at(g, {"G1_Off": 0, "G1_DEAD": 0, "B1_LOW": 50, "B1_DEAD": 70, "S1_NO": 71}, length=80)
    verdict = admits(g, at)
    assert not verdict.ok
    assert verdict.node == "B1_DEAD" and verdict.reason == "too-late"
    assert not admits_by_search(g, at)


def test_empty_activation_admitted():
    g = full_scale_graph()
    at = _at(g, {})
    assert admits(g, at).ok
    assert admits_by_search(g, at)


def test_unknown_mode_literal_is_rejected():
    g = full_scale_graph()
    with pytest.raises(ValueError) as info:
        admits(g, _at(g, {}, length=2, modes=("P", "X")))
    assert str(info.value) == "activation trace uses unknown mode literals ['X']"


def test_cross_propagation_after_mode_switch():
    g = full_scale_graph()
    times = {"G1_Off": 0, "G1_DEAD": 0, "B1_LOW": 7, "B1_DEAD": 12,
             "S1_NO": 12, "S2_NO": 13, "Sys_DEAD": 13}
    at = _at(g, times, length=30, modes=tuple(["P"] * 13 + ["S1"] * 17))
    assert admits(g, at).ok
    assert admits_by_search(g, at)


def test_and_does_not_force_with_missing_source():
    # one sensor path stays healthy: the AND discrepancy must stay quiet
    g = full_scale_graph()
    at = _at(g, {"S1_Off": 3, "S1_NO": 3})
    assert admits(g, at).ok


def test_and_incomplete_when_source_never_fails():
    g = full_scale_graph()
    at = _at(g, {"S1_Off": 3, "S1_NO": 3, "Sys_DEAD": 4})
    verdict = admits(g, at)
    assert not verdict.ok and verdict.node == "Sys_DEAD" and verdict.reason == "and-incomplete"
    assert not admits_by_search(g, at)


def test_missing_cause():
    g = full_scale_graph()
    at = _at(g, {"S2_NO": 5})
    verdict = admits(g, at)
    assert not verdict.ok and verdict.node == "S2_NO" and verdict.reason == "missing-cause"


def test_too_early():
    g = full_scale_graph()
    at = _at(g, {"G1_Off": 0, "G1_DEAD": 0, "B1_LOW": 2, "B1_DEAD": 4, "S1_NO": 4})
    verdict = admits(g, at)
    assert not verdict.ok and verdict.node == "B1_DEAD" and verdict.reason == "too-early"
    assert not admits_by_search(g, at)


def test_mode_violation_reason():
    # counter paused by modes: raw elapsed time reaches the window but the
    # counted time does not
    g = parse_graph = Tfpg(("A", "B"), {"F": "failure", "D": "or"},
                           (TfpgEdge("F", "D", 2, 5, frozenset({"A"})),))
    at = ActivationTrace(10, {"F": 0, "D": 4}, ("A", "B", "B", "B", "B", "B", "B", "B", "B", "B"))
    verdict = admits(g, at)
    assert not verdict.ok and verdict.reason == "mode-violation"
    assert not admits_by_search(g, at)


def test_counter_pauses_while_disabled():
    g = Tfpg(("A", "B"), {"F": "failure", "D": "or"},
             (TfpgEdge("F", "D", 2, 2, frozenset({"A"})),))
    # enabled steps: 0,1 then pause, then 4: counter hits 2 at step 4
    at = ActivationTrace(6, {"F": 0, "D": 4}, ("A", "A", "B", "B", "A", "B"))
    assert admits(g, at).ok
    assert admits_by_search(g, at)


def test_counter_keeps_its_count_across_a_disabled_gap():
    g = Tfpg(("A", "B"), {"F": "failure", "D": "or"},
             (TfpgEdge("F", "D", 2, 2, frozenset({"A"})),))
    # enabled steps at 0, 3, 4; the disabled gap pauses the counter, it does
    # not clear what step 0 counted
    at5 = ActivationTrace(6, {"F": 0, "D": 5}, ("A", "B", "B", "A", "A", "B"))
    assert not admits(at=at5, tfpg=g).ok  # c(5) = 3 already past the window
    at4 = ActivationTrace(6, {"F": 0, "D": 4}, ("A", "B", "B", "A", "A", "B"))
    assert admits(g, at4).ok  # c(4) = 2


def test_interval_widening_never_flips_yes_to_no():
    g = full_scale_graph()
    rng = random.Random(7)
    for _ in range(40):
        at = _random_trace(g, rng)
        if not admits(g, at).ok:
            continue
        widened_edges = tuple(
            TfpgEdge(e.src, e.dst, max(0, e.tmin - 1),
                     None if e.tmax is None or rng.random() < 0.3 else e.tmax + 3, e.modes)
            for e in g.edges)
        widened = Tfpg(g.modes, dict(g.nodes), widened_edges)
        assert admits(widened, at).ok


def test_mode_widening_monotone_for_unbounded_edges():
    # widening mode sets is only guaranteed monotone when no finite deadline
    # can be accelerated: check it on an all-unbounded variant
    g = full_scale_graph()
    unbounded = Tfpg(g.modes, dict(g.nodes),
                     tuple(TfpgEdge(e.src, e.dst, e.tmin, None, e.modes) for e in g.edges))
    rng = random.Random(11)
    for _ in range(40):
        at = _random_trace(unbounded, rng)
        if not admits(unbounded, at).ok:
            continue
        widened = Tfpg(g.modes, dict(g.nodes),
                       tuple(TfpgEdge(e.src, e.dst, e.tmin, None, None) for e in g.edges))
        assert admits(widened, at).ok


# -- reference equivalence: analytic admits == explicit delay search == monitor

def _random_graph(rng):
    modes = ("M1", "M2")
    n_fail = rng.randint(1, 2)
    n_disc = rng.randint(1, 3)
    nodes = {}
    for i in range(n_fail):
        nodes[f"F{i}"] = "failure"
    for i in range(n_disc):
        nodes[f"D{i}"] = rng.choice(["or", "and"])
    edges = []
    names = list(nodes)
    for _ in range(rng.randint(1, 4)):
        dst = f"D{rng.randrange(n_disc)}"
        src = rng.choice([n for n in names if n != dst])
        tmin = rng.randint(0, 2)
        tmax = rng.choice([None, tmin, tmin + 1, tmin + 2])
        emodes = rng.choice([None, frozenset({"M1"}), frozenset({"M2"}), frozenset({"M1", "M2"})])
        edges.append(TfpgEdge(src, dst, tmin, tmax, emodes))
    g = Tfpg(modes, nodes, tuple(edges))
    g.check()
    return g


def _random_trace(graph, rng, length=None):
    length = length or rng.randint(1, 8)
    times = {}
    for n in graph.nodes:
        times[n] = rng.choice([None, None, rng.randrange(length)])
    modes = tuple(rng.choice(graph.modes) for _ in range(length))
    return ActivationTrace(length, times, modes)


def test_admits_equals_search_and_monitor_on_random_cases():
    rng = random.Random(42)
    checked = 0
    rejected = 0
    for _ in range(400):
        g = _random_graph(rng)
        at = _random_trace(g, rng)
        analytic = admits(g, at).ok
        search = admits_by_search(g, at)
        stepped = monitor_run(g, at)
        assert analytic == search == stepped, (g, at.times, at.modes, analytic, search, stepped)
        checked += 1
        rejected += not analytic
    assert checked == 400 and 0 < rejected < 400  # both verdicts exercised


# an AND node with no incoming edge, an unbounded and a mode-gated edge
# into an AND node, a point window at 0, and an edge out of a discrepancy
FEATURES = Tfpg(("M1", "M2"), {"F0": "failure", "F1": "failure", "A0": "and", "A1": "and", "D0": "or"},
                (TfpgEdge("F0", "A1", 0, None, frozenset({"M1"})), TfpgEdge("F1", "A1", 1, 3, None),
                 TfpgEdge("A1", "D0", 0, 0, None), TfpgEdge("F1", "D0", 2, None, frozenset({"M2"}))))


def test_generated_monitor_step_equals_reference_on_random_walks():
    rng = random.Random(5)
    graphs = [FEATURES, full_scale_graph()] + [_random_graph(rng) for _ in range(300)]
    outcomes = set()
    for g in graphs:
        g.check()
        # a bit of a node outside the graph is ignored
        order = tuple(sorted([*g.nodes, "X"]))
        (state, advance), reference = admission_monitor(g, order, g.modes), ReferenceMonitor(g, order)
        tmins = [e.tmin for e in g.sorted_edges()]
        ref_state = reference.initial()
        assert state == ref_state
        mask = 0
        for _ in range(40):
            # activations mostly accumulate, sometimes drop out
            mask |= sum(1 << i for i in range(len(order)) if rng.random() < 0.1)
            mask &= ~sum(1 << i for i in range(len(order)) if rng.random() < 0.05)
            mode = rng.choice(g.modes)
            # the generated step reads the label that observes (mask, mode)
            got = advance(state, label_of(mask, mode, order, g.modes))
            want = reference.advance(ref_state, mask, mode)
            # a generated slot is the reference's counter; the reference's
            # window-hit flag is whether that counter reached tmin
            (act, late, slots), bad = want
            for slot, tmin in zip(slots, tmins):
                assert slot is None or slot[1] == (slot[0] >= tmin), (g, slots)
            counters = tuple(None if slot is None else slot[0] for slot in slots)
            assert got == ((act, late, counters), bad), (g, state, mask, mode)
            # (step accepted, some deadline passed); a rejected step's walk
            # goes on from the state before it
            outcomes.add((bad is None, bool(late)))
            if bad is None:
                state, ref_state = got[0], want[0]
    assert outcomes == {(True, False), (True, True), (False, False), (False, True)}
    edges = [e for g in graphs for e in g.edges]
    assert any(e.tmax is None for e in edges) and any(e.tmin == 0 for e in edges)
    assert any(e.modes is not None for e in edges)


def test_first_inconsistency_is_deterministic():
    g = full_scale_graph()
    at = _at(g, {"G1_Off": 0, "G1_DEAD": 0, "B1_LOW": 50, "B1_DEAD": 70, "S1_NO": 71}, length=80)
    assert admits(g, at) == admits(g, at)


def test_two_equal_parallel_edges_into_an_and_node_are_two_edges():
    # equal edges compare equal: one view per edge value left the AND node
    # with fewer views than incoming edges, so admits said and-incomplete
    edge = TfpgEdge("F", "A", 0, None, None)
    g = Tfpg(("M",), {"F": "failure", "A": "and"}, (edge, edge))
    g.check()
    at = ActivationTrace(3, {"F": 0, "A": 1}, ("M", "M", "M"))
    assert admits(g, at).ok and admits_by_search(g, at) and monitor_run(g, at)


def test_admits_equals_search_and_monitor_with_a_repeated_edge():
    rng = random.Random(46)
    rejected = into_and = admitted_through_and = 0
    for _ in range(400):
        g = _random_graph(rng)
        edge = rng.choice(g.edges)
        g = Tfpg(g.modes, dict(g.nodes), (*g.edges, edge))
        g.check()
        at = _random_trace(g, rng)
        analytic = admits(g, at).ok
        search = admits_by_search(g, at)
        stepped = monitor_run(g, at)
        assert analytic == search == stepped, (g, at.times, at.modes, analytic, search, stepped)
        rejected += not analytic
        if g.nodes[edge.dst] == "and":
            into_and += 1
            # the repeated edge fired into an activated AND node of an admitted trace
            admitted_through_and += analytic and None not in (at.times[edge.src], at.times[edge.dst])
    assert 0 < rejected < 400 and into_and >= 100 and admitted_through_and >= 2
