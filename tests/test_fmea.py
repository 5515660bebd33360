from xml.etree import ElementTree as ET

import pytest

from mbsa import cutsets, fmea
from mbsa.analysis import compute_cut_sequences, compute_mcs
from mbsa.fmea import (
    FmeaError,
    FmeaRow,
    FmeaTable,
    export_fmea,
    fmea_to_tsv,
    fmea_to_xml,
    generate_dynamic_fmea,
    generate_fmea,
)
from mbsa.sts.engine import Engine
from mbsa.sts.parse import parse_expr_text

from conftest import checked_expr


def test_one_cut_sequence_search_per_candidate_expands_each_state_once(monkeypatch, battery_sensor):
    # a search stores a state with many partitions, and expands it once; dynamic
    # FMEA searches each nonempty candidate once, for all its properties
    searches, active = [], []
    search, succ = cutsets._orders, Engine.succ_tuples

    def counted_search(*args):
        searches.append([])
        active.append(searches[-1])
        try:
            return search(*args)
        finally:
            active.pop()

    def succ_tuples(self, s, forbidden=0):
        if active:
            active[-1].append(s)
        return succ(self, s, forbidden)

    monkeypatch.setattr(cutsets, "_orders", counted_search)
    monkeypatch.setattr(fmea, "_orders", counted_search)
    monkeypatch.setattr(Engine, "succ_tuples", succ_tuples)
    xm = battery_sensor
    props = [(label, checked_expr(xm, text)) for label, text in
             (("dead", "sys_dead"), ("b1low", "b1 <= 5"), ("s1_lost", "!s1_out"))]
    table = generate_dynamic_fmea(xm, props, 4)
    assert len(searches) == len({row.faults for row in table.rows}) == 6
    result = compute_mcs(xm, props[0][1], 4)
    compute_cut_sequences(xm, props[0][1], result)
    assert len(searches) == 6 + len(result.mcs)
    assert all(calls and len(set(calls)) == len(calls) for calls in searches)


def test_redundant_pair_single_property(redundant_pair):
    xm = redundant_pair
    tle = checked_expr(xm, "(a & b) | c")
    table = generate_fmea(xm, [("TLE", tle)], 3)
    rows = {(row.faults, row.violated) for row in table.rows}
    assert rows == {(frozenset({"fc"}), ("TLE",)), (frozenset({"fa", "fb"}), ("TLE",))}


def test_false_property_empty_table(redundant_pair):
    table = generate_fmea(redundant_pair, [("never", checked_expr(redundant_pair, "FALSE"))], 3)
    assert table.rows == []


def test_violated_sets_are_maximal(redundant_pair):
    # fa alone violates P1; {fa, fb} violates P2 (and also reaches P1)
    xm = redundant_pair
    p1 = checked_expr(xm, "a")
    p2 = checked_expr(xm, "a & b")
    table = generate_fmea(xm, [("P1", p1), ("P2", p2)], 2)
    by_faults = {row.faults: row.violated for row in table.rows}
    assert by_faults[frozenset({"fa"})] == ("P1",)
    assert by_faults[frozenset({"fa", "fb"})] == ("P1", "P2")


def test_rows_sorted_and_unique(redundant_pair):
    xm = redundant_pair
    table = generate_fmea(xm, [("TLE", checked_expr(xm, "(a & b) | c")),
                               ("c_only", checked_expr(xm, "c"))], 3)
    keys = [(len(r.faults), tuple(sorted(r.faults)), r.ordering or ()) for r in table.rows]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)


def test_fmea_minimal_rows_match_mcs(redundant_pair, latch_model):
    for xm, tle_text in ((redundant_pair, "(a & b) | c"), (latch_model, "armed & y")):
        tle = checked_expr(xm, tle_text)
        table = generate_fmea(xm, [("P", tle)], 3)
        violating = [row.faults for row in table.rows if "P" in row.violated]
        minimal = {c for c in violating if not any(o < c for o in violating)}
        assert minimal == set(compute_mcs(xm, tle, 3).mcs)


def test_dynamic_table_lists_orders(redundant_pair):
    xm = redundant_pair
    tle = checked_expr(xm, "(a & b) | c")
    table = generate_dynamic_fmea(xm, [("TLE", tle)], 3)
    pair_orders = {row.ordering for row in table.rows if row.faults == frozenset({"fa", "fb"})}
    assert pair_orders == {("fa", "fb"), ("fb", "fa")}
    singleton = [row for row in table.rows if row.faults == frozenset({"fc"})]
    assert singleton and singleton[0].ordering == ("fc",)  # trivial order


def test_dynamic_latch_single_order(latch_model):
    xm = latch_model
    tle = checked_expr(xm, "armed & y")
    table = generate_dynamic_fmea(xm, [("TLE", tle)], 2)
    assert [(row.ordering, row.violated) for row in table.rows] == [(("fa", "fb"), ("TLE",))]


def test_static_rows_have_no_ordering(redundant_pair):
    table = generate_fmea(redundant_pair, [("TLE", checked_expr(redundant_pair, "c"))], 1)
    assert all(row.ordering is None for row in table.rows)
    assert not table.dynamic


def test_tsv_export_header_only_when_empty(redundant_pair):
    table = generate_fmea(redundant_pair, [("never", checked_expr(redundant_pair, "FALSE"))], 2)
    assert fmea_to_tsv(table) == "faults\tviolated\n"


def test_tsv_rows(redundant_pair):
    xm = redundant_pair
    table = generate_fmea(xm, [("TLE", checked_expr(xm, "(a & b) | c"))], 3)
    text = fmea_to_tsv(table)
    assert text.splitlines() == ["faults\tviolated", "fc\tTLE", "fa,fb\tTLE"]


def _children(root, tag: str) -> list:
    """The children of ``root``'s first ``tag`` element; none when it is absent."""
    element = root.find(tag)
    return [] if element is None else list(element)


def fmea_from_xml(text: str) -> FmeaTable:
    """Read ``fmea_to_xml`` output back into a table."""
    root = ET.fromstring(text)
    if root.tag != "fmea":
        raise FmeaError(f"expected <fmea> document, found <{root.tag}>")
    dynamic = root.get("dynamic") == "true"
    bound = root.get("step-bound", "unbounded")
    properties = []
    for p in _children(root, "properties"):
        properties.append((p.get("label", ""), parse_expr_text(p.get("expr", "TRUE"))))
    rows = []
    for r in _children(root, "rows"):
        faults = frozenset(f.get("name", "") for f in r if f.tag == "fault")
        orders = sorted(((int(o.get("pos", "0")), o.get("name", "")) for o in r if o.tag == "order"))
        ordering = tuple(name for _, name in orders) if dynamic else None
        violated = tuple(v.get("label", "") for v in r if v.tag == "violates")
        rows.append(FmeaRow(faults, violated, ordering))
    return FmeaTable(tuple(properties), rows, int(root.get("max-card", "1")),
                     None if bound == "unbounded" else int(bound), dynamic)


def test_xml_round_trip_fixpoint(redundant_pair):
    xm = redundant_pair
    for dynamic in (False, True):
        gen = generate_dynamic_fmea if dynamic else generate_fmea
        table = gen(xm, [("TLE", checked_expr(xm, "(a & b) | c"))], 3)
        xml = fmea_to_xml(table)
        assert fmea_to_xml(fmea_from_xml(xml)) == xml


def test_unknown_format(redundant_pair):
    table = generate_fmea(redundant_pair, [("TLE", checked_expr(redundant_pair, "c"))], 1)
    with pytest.raises(FmeaError):
        export_fmea(table, "csv")


def test_battery_sensor_fmea(battery_sensor):
    xm = battery_sensor
    props = [("dead", checked_expr(xm, "sys_dead")), ("s1_lost", checked_expr(xm, "!s1_out"))]
    table = generate_fmea(xm, props, 4)
    singles = {tuple(sorted(r.faults)): r.violated for r in table.rows if len(r.faults) == 1}
    assert singles[("G1_Off",)] == ("s1_lost",)
    assert singles[("S1_Off",)] == ("s1_lost",)
    pair_rows = {tuple(sorted(r.faults)) for r in table.rows if "dead" in r.violated}
    assert pair_rows == {("G1_Off", "G2_Off"), ("G1_Off", "S2_Off"),
                         ("G2_Off", "S1_Off"), ("S1_Off", "S2_Off")}
