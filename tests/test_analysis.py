import itertools
import math
import types

import pytest

from mbsa import cutsets
from mbsa.analysis import (
    CutSetResult,
    compute_cut_sequences,
    compute_mcs,
    cutsets_to_tsv,
    cutsets_to_xml,
    witness,
)
from mbsa.fmea import generate_fmea
from mbsa.sts import engine
from mbsa.sts.check import TypeError_
from mbsa.sts.engine import replay_ok
from mbsa.sts.parse import parse_expr_text
from mbsa.tfpg import parse_binding

from conftest import GOLDEN_MCS, LATCH_FEI, build_extended, checked_expr
from cutset_references import brute_force_mcs


def test_library_rejects_a_non_boolean_predicate(battery_sensor):
    # the checks of the CLI hold on the library path too
    xm = battery_sensor
    level = parse_expr_text("b1 - 12")
    calls = [
        lambda: compute_mcs(xm, level, 2),
        lambda: witness(xm, frozenset({"G1_Off"}), level),
        lambda: compute_cut_sequences(xm, level, CutSetResult(level, [frozenset({"G1_Off"})], 2, None, False)),
        lambda: generate_fmea(xm, [("lvl", level)], 1),
        lambda: parse_binding("mode P : b1 - 12;", xm, "g.bind"),
    ]
    for call in calls:
        with pytest.raises(TypeError_) as exc:
            call()
        assert "predicate must be boolean, got integer" in str(exc.value)
    assert "g.bind:1:13:" in str(exc.value)


def test_redundant_pair_mcs(redundant_pair):
    xm = redundant_pair
    tle = checked_expr(xm, "(a & b) | c")
    result = compute_mcs(xm, tle, 3)
    assert set(result.mcs) == {frozenset({"fc"}), frozenset({"fa", "fb"})}
    assert result.complete
    # deterministic order: cardinality, then lexicographic
    assert result.mcs == [frozenset({"fc"}), frozenset({"fa", "fb"})]


def test_oracle_equivalence_redundant_pair(redundant_pair):
    xm = redundant_pair
    tle = checked_expr(xm, "(a & b) | c")
    assert set(compute_mcs(xm, tle, 3).mcs) == set(brute_force_mcs(xm, tle, 3).mcs)


def test_false_tle(redundant_pair):
    result = compute_mcs(redundant_pair, checked_expr(redundant_pair, "FALSE"), 3)
    assert result.mcs == [] and result.complete


def test_nominal_reachability_warning(redundant_pair):
    result = compute_mcs(redundant_pair, checked_expr(redundant_pair, "!a"), 3)
    assert result.nominal_warning
    assert result.mcs == [frozenset()]
    assert brute_force_mcs(redundant_pair, checked_expr(redundant_pair, "!a"), 3).nominal_warning


def test_antichain(redundant_pair):
    result = compute_mcs(redundant_pair, checked_expr(redundant_pair, "(a & b) | c | (a & b & c)"), 3)
    for x, y in itertools.permutations(result.mcs, 2):
        assert not x < y


def test_witnesses_replay(redundant_pair):
    xm = redundant_pair
    tle = checked_expr(xm, "(a & b) | c")
    for cut in compute_mcs(xm, tle, 3).mcs:
        trace = witness(xm, cut, tle)
        assert trace is not None
        assert replay_ok(xm.typed, trace)


def test_no_events_registered():
    xm = build_extended("MODULE m VAR x : boolean; INIT !x; TRANS next(x) = x;", "")
    result = brute_force_mcs(xm, checked_expr(xm, "x"), 1)
    assert result.mcs == []  # unreachable without faults, no events to enable it


def test_step_bound_limits_explanations(latch_model):
    xm = latch_model
    tle = checked_expr(xm, "armed & y")
    # arming needs a step with a failed and b healthy before b fails
    assert compute_mcs(xm, tle, 2, step_bound=1).mcs == []
    bounded = compute_mcs(xm, tle, 2, step_bound=10)
    assert set(bounded.mcs) == {frozenset({"fa", "fb"})}
    assert not bounded.complete


def test_max_card_bound(redundant_pair):
    xm = redundant_pair
    tle = checked_expr(xm, "a & b & c")
    assert compute_mcs(xm, tle, 2).mcs == []
    assert set(compute_mcs(xm, tle, 3).mcs) == {frozenset({"fa", "fb", "fc"})}


# -- cut sequences -------------------------------------------------------------

def test_symmetric_orders(redundant_pair):
    xm = redundant_pair
    tle = checked_expr(xm, "(a & b) | c")
    result = compute_mcs(xm, tle, 3)
    seqs = {s.base: s for s in compute_cut_sequences(xm, tle, result)}
    assert seqs[frozenset({"fa", "fb"})].orders == (("fa", "fb"), ("fb", "fa"))
    assert seqs[frozenset({"fc"})].orders == (("fc",),)


def test_latch_requires_strict_order(latch_model):
    xm = latch_model
    tle = checked_expr(xm, "armed & y")
    result = compute_mcs(xm, tle, 2)
    (seq,) = compute_cut_sequences(xm, tle, result)
    assert seq.orders == (("fa", "fb"),)


def test_sequence_witnesses_replay(latch_model):
    xm = latch_model
    tle = checked_expr(xm, "armed & y")
    result = compute_mcs(xm, tle, 2)
    for seq in compute_cut_sequences(xm, tle, result):
        assert set(seq.witnesses) == set(seq.orders)
        for trace in seq.witnesses.values():
            assert replay_ok(xm.typed, trace)


def test_sequence_bases_cover_mcs(redundant_pair):
    xm = redundant_pair
    tle = checked_expr(xm, "(a & b) | c")
    result = compute_mcs(xm, tle, 3)
    seqs = compute_cut_sequences(xm, tle, result)
    assert {s.base for s in seqs} == set(result.mcs)


def test_simultaneous_occurrences_count_both_ways():
    # both faults may first occur in the same step; the tie witnesses both orders
    xm = build_extended(
        "MODULE m VAR a : boolean; b : boolean; INIT !a & !b; TRANS next(a) = a; TRANS next(b) = b;",
        "fault fa: target a, template stuck_at(TRUE), dynamics permanent, prob 0.1;"
        "fault fb: target b, template stuck_at(TRUE), dynamics permanent, prob 0.1;")
    tle = checked_expr(xm, "a & b")
    result = compute_mcs(xm, tle, 2)
    (seq,) = compute_cut_sequences(xm, tle, result, step_bound=1)
    # one step suffices only when both occur simultaneously
    assert seq.orders == (("fa", "fb"), ("fb", "fa"))


def _logged_sequences(monkeypatch, xm, tle, result, exit_early: bool):
    """``compute_cut_sequences`` with, per order search, the stops its
    breadth-first search yielded and the number of keys it had stored; without
    ``exit_early`` no search ever counts all of its orders, so each runs to
    exhaustion."""
    searches, search = [], engine.breadth_first

    def logged(*args):
        log = {"stops": [], "stored": 0}
        searches.append(log)
        for path, stored in search(*args):
            log["stored"] = len(stored)
            if path is not None:
                log["stops"].append(path[-1])
            yield path, stored

    with monkeypatch.context() as patch:
        patch.setattr(engine, "breadth_first", logged)
        if not exit_early:
            patch.setattr(cutsets, "math", types.SimpleNamespace(factorial=lambda n: -1))
        seqs = compute_cut_sequences(xm, tle, result)
    witnesses = [{order: trace.states for order, trace in seq.witnesses.items()} for seq in seqs]
    return [(seq.base, seq.orders) for seq in seqs], witnesses, searches


def _stops_to_witness_all(stops, base) -> int:
    """How many of ``stops``, in turn, witness every order of ``base``."""
    seen = set()
    for n, (_, part, _) in enumerate(stops, 1):
        groups = [[k for k in range(part_mask.bit_length()) if part_mask >> k & 1] for part_mask in part]
        seen.update(itertools.product(*map(itertools.permutations, groups)))
        if len(seen) == math.factorial(len(base)):
            return n
    return len(stops) + 1


VOTER_SMX = """MODULE voter
VAR s0 : boolean; s1 : boolean; s2 : boolean;
DEFINE ok := (s0 ? 1 : 0) + (s1 ? 1 : 0) + (s2 ? 1 : 0);
INIT s0 & s1 & s2;
TRANS next(s0) = s0; TRANS next(s1) = s1; TRANS next(s2) = s2;
"""
VOTER_FEI = "".join(f"fault f{i}: target s{i}, template stuck_at(FALSE), dynamics permanent, prob 0.01;"
                    for i in range(3))

# either fault may come first, but a simultaneous pair arms neither latch: the
# two orders are witnessed at two stops
TWO_LATCHES_SMX = """MODULE two_latches
VAR x : boolean; y : boolean; arm_x : boolean; arm_y : boolean;
INIT !x & !y & !arm_x & !arm_y;
TRANS next(x) = x; TRANS next(y) = y;
TRANS next(arm_x) = arm_x | (x & !y);
TRANS next(arm_y) = arm_y | (y & !x);
"""


@pytest.mark.parametrize("smx, fei, tle", [
    (VOTER_SMX, VOTER_FEI, "ok < 2"),
    (VOTER_SMX, VOTER_FEI, "ok < 1"),
    (TWO_LATCHES_SMX, LATCH_FEI, "(arm_x | arm_y) & x & y"),
], ids=["voter-pairs", "voter-triple", "two-latches"])
def test_order_search_ends_at_the_stop_that_witnesses_every_order(monkeypatch, smx, fei, tle):
    xm = build_extended(smx, fei)
    tle = checked_expr(xm, tle)
    result = compute_mcs(xm, tle, 3)
    assert result.mcs
    early = _logged_sequences(monkeypatch, xm, tle, result, exit_early=True)
    full = _logged_sequences(monkeypatch, xm, tle, result, exit_early=False)
    assert early[:2] == full[:2]
    for (base, orders), stopped, exhausted in zip(early[0], early[2], full[2]):
        assert len(orders) == math.factorial(len(base))  # symmetric: every order is witnessed
        n = _stops_to_witness_all(exhausted["stops"], base)
        assert stopped["stops"] == exhausted["stops"][:n]
        assert stopped["stored"] < exhausted["stored"]


def test_order_search_with_an_unwitnessed_order_runs_to_exhaustion(monkeypatch, latch_model):
    # the PAND shape: fb before fa never arms the latch, so the search can
    # never count both orders and must explore everything, as without the exit
    tle = checked_expr(latch_model, "armed & y")
    result = compute_mcs(latch_model, tle, 2)
    early = _logged_sequences(monkeypatch, latch_model, tle, result, exit_early=True)
    full = _logged_sequences(monkeypatch, latch_model, tle, result, exit_early=False)
    assert early[0] == [(frozenset({"fa", "fb"}), (("fa", "fb"),))]
    assert early == full


# -- fixture + serialization -----------------------------------------------------

def test_battery_sensor_golden_mcs(battery_sensor):
    xm = battery_sensor
    tle = checked_expr(xm, "sys_dead")
    assert set(compute_mcs(xm, tle, 4).mcs) == GOLDEN_MCS


def test_tsv_format(redundant_pair):
    result = compute_mcs(redundant_pair, checked_expr(redundant_pair, "(a & b) | c"), 3)
    assert cutsets_to_tsv(result) == "fc\nfa\tfb\n"


def test_xml_format(redundant_pair):
    result = compute_mcs(redundant_pair, checked_expr(redundant_pair, "(a & b) | c"), 3)
    xml = cutsets_to_xml(result)
    assert '<cut-sets tle="a &amp; b | c"' in xml
    assert xml.count("<cut-set>") == 2
    assert 'complete="true"' in xml


def test_max_card_validation(redundant_pair):
    with pytest.raises(ValueError):
        compute_mcs(redundant_pair, checked_expr(redundant_pair, "c"), 0)
