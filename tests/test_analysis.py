import itertools

import pytest

from mbsa.analysis import (
    CutSetResult,
    compute_cut_sequences,
    compute_mcs,
    cutsets_to_tsv,
    cutsets_to_xml,
    witness,
)
from mbsa.fmea import generate_fmea
from mbsa.sts.check import TypeError_
from mbsa.sts.engine import replay_ok
from mbsa.sts.parse import parse_expr_text
from mbsa.tfpg import parse_binding

from conftest import GOLDEN_MCS, build_extended, checked_expr
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
