"""The XML writers against ElementTree.

The writers render their artifacts with ``mbsa.xmlout.to_xml``.  The
references below build the same documents as ElementTree DOMs and serialize
them with ``ET.indent`` and ``ET.tostring``, the way the writers once did.
Random artifacts, with attribute values that need every escape and with every
kind of empty container, must give the same text.
"""

import random
from fractions import Fraction
from xml.etree import ElementTree as ET

import pytest

from mbsa.analysis import CutSetResult, cutsets_to_xml
from mbsa.fault_tree import BasicEvent, FaultTree, FaultTreeError, Gate, _node_order, ft_to_xml
from mbsa.fmea import FmeaRow, FmeaTable, fmea_to_xml
from mbsa.probability import prob_str
from mbsa.sts.model import BinOp, IntConst, Name
from mbsa.sts.pretty import print_expr
from mbsa.tfpg.graph import Tfpg, TfpgEdge, tfpg_to_xml
from mbsa.xmlout import to_xml

# every character ElementTree escapes in an attribute value, a quote it
# leaves alone, non-ASCII and braces
ALPHABET = "ab&<>\"'\r\n\t é{}#"
CASES = 300


def _serialized(root) -> str:
    ET.indent(root)
    return ET.tostring(root, encoding="unicode") + "\n"


def _text(rng, least=0) -> str:
    return "".join(rng.choice(ALPHABET) for _ in range(rng.randint(least, 6)))


def _names(rng, most) -> list[str]:
    return [_text(rng, 1) for _ in range(rng.randint(0, most))]


def _expr(rng):
    x = Name(_text(rng, 1))
    return rng.choice([x, BinOp("<", x, IntConst(rng.randint(0, 9))), BinOp("&", x, Name(_text(rng, 1)))])


def _step_bound(rng):
    return rng.choice([None, rng.randint(0, 20)])


# ---------------------------------------------------------------------------
# references

def _cutsets_reference(result: CutSetResult) -> str:
    root = ET.Element("cut-sets")
    root.set("tle", print_expr(result.tle))
    root.set("max-card", str(result.max_card))
    root.set("step-bound", "unbounded" if result.step_bound is None else str(result.step_bound))
    root.set("complete", "true" if result.complete else "false")
    if result.nominal_warning:
        root.set("nominal-warning", "true")
    for c in result.mcs:
        cs = ET.SubElement(root, "cut-set")
        for e in sorted(c):
            ET.SubElement(cs, "event").set("name", e)
    return _serialized(root)


def _ft_reference(ft: FaultTree, with_probabilities: bool) -> str:
    root = ET.Element("fault-tree")
    root.set("root", ft.root)
    for nid in _node_order(ft):
        node = ft.nodes[nid]
        if isinstance(node, Gate):
            el = ET.SubElement(root, "gate")
            el.set("id", nid)
            el.set("kind", node.kind)
            if node.label:
                el.set("label", node.label)
            for c in node.children:
                ET.SubElement(el, "child").set("ref", c)
        else:
            el = ET.SubElement(root, "basic-event")
            el.set("id", nid)
            if node.label:
                el.set("label", node.label)
            if with_probabilities and node.probability is None:
                raise FaultTreeError(f"basic event {nid!r} has no probability to export")
            if node.probability is not None:
                el.set("probability", prob_str(node.probability))
    return _serialized(root)


def _fmea_reference(table: FmeaTable) -> str:
    root = ET.Element("fmea")
    root.set("dynamic", "true" if table.dynamic else "false")
    root.set("max-card", str(table.max_card))
    root.set("step-bound", "unbounded" if table.step_bound is None else str(table.step_bound))
    props = ET.SubElement(root, "properties")
    for label, expr in table.properties:
        p = ET.SubElement(props, "property")
        p.set("label", label)
        p.set("expr", print_expr(expr))
    rows_el = ET.SubElement(root, "rows")
    for row in table.rows:
        r = ET.SubElement(rows_el, "row")
        for f in sorted(row.faults):
            ET.SubElement(r, "fault").set("name", f)
        if row.ordering is not None:
            for i, f in enumerate(row.ordering):
                o = ET.SubElement(r, "order")
                o.set("pos", str(i))
                o.set("name", f)
        for v in row.violated:
            ET.SubElement(r, "violates").set("label", v)
    return _serialized(root)


def _tfpg_reference(g: Tfpg) -> str:
    root = ET.Element("tfpg")
    modes_el = ET.SubElement(root, "modes")
    for m in g.modes:
        ET.SubElement(modes_el, "mode").set("name", m)
    nodes_el = ET.SubElement(root, "nodes")
    for node in sorted(g.nodes):
        kind = g.nodes[node]
        if kind == "failure":
            ET.SubElement(nodes_el, "failure").set("id", node)
        else:
            el = ET.SubElement(nodes_el, "discrepancy")
            el.set("id", node)
            el.set("semantics", kind)
    edges_el = ET.SubElement(root, "edges")
    for e in g.sorted_edges():
        el = ET.SubElement(edges_el, "edge")
        el.set("src", e.src)
        el.set("dst", e.dst)
        el.set("tmin", str(e.tmin))
        el.set("tmax", "inf" if e.tmax is None else str(e.tmax))
        el.set("modes", "*" if e.modes is None else " ".join(sorted(e.modes)))
    return _serialized(root)


# ---------------------------------------------------------------------------
# random writer arguments; the first cases of each generator have every
# container empty

def _cut_set_results(rng):
    yield CutSetResult(Name("t"), [], 1, None, True),
    yield CutSetResult(Name("t"), [frozenset()], 0, 0, False, True),
    for _ in range(CASES):
        mcs = [frozenset(_names(rng, 3)) for _ in range(rng.randint(0, 4))]
        yield CutSetResult(_expr(rng), mcs, rng.randint(0, 5), _step_bound(rng), rng.random() < 0.5,
                           rng.random() < 0.5),


def _fault_trees(rng):
    yield FaultTree("G0", {"G0": Gate("or", ())}), False
    for _ in range(CASES):
        events = {name: BasicEvent(name, rng.choice([None, Fraction(rng.randint(0, 7), 7), Fraction(1, 3)]),
                                   _text(rng))
                  for name in _names(rng, 5)}
        gates = {f"G{i}": Gate(rng.choice(["and", "or", "pand"]), tuple(_names(rng, 3)), _text(rng))
                 for i in range(rng.randint(1, 4))}
        yield FaultTree("G0", {**gates, **events}), rng.random() < 0.5


def _fmea_tables(rng):
    yield FmeaTable((), [], 1, None, False),
    yield FmeaTable((), [FmeaRow(frozenset(), (), ())], 1, None, True),
    for _ in range(CASES):
        dynamic = rng.random() < 0.5
        properties = tuple((_text(rng, 1), _expr(rng)) for _ in range(rng.randint(0, 3)))
        rows = [FmeaRow(frozenset(_names(rng, 3)), tuple(sorted(_names(rng, 2))),
                        tuple(_names(rng, 3)) if dynamic else None) for _ in range(rng.randint(0, 3))]
        yield FmeaTable(properties, rows, rng.randint(0, 5), _step_bound(rng), dynamic),


def _tfpgs(rng):
    yield Tfpg((), {}, ()),
    for _ in range(CASES):
        nodes = {name: rng.choice(["failure", "and", "or"]) for name in _names(rng, 4)}
        ids = list(nodes) or ["x"]
        edges = []
        for _ in range(rng.randint(0, 4)):
            tmin = rng.randint(0, 3)
            edges.append(TfpgEdge(rng.choice(ids), rng.choice(ids), tmin,
                                  rng.choice([None, tmin + rng.randint(0, 3)]),
                                  rng.choice([None, frozenset(_names(rng, 2))])))
        yield Tfpg(tuple(_names(rng, 3)), nodes, tuple(edges)),


def _outcome(write, args) -> str:
    # a basic event with no probability to export is the one error a writer raises
    try:
        return write(*args)
    except FaultTreeError as exc:
        return f"FaultTreeError: {exc}"


@pytest.mark.parametrize("generate, write, reference", [
    (_cut_set_results, cutsets_to_xml, _cutsets_reference),
    (_fault_trees, ft_to_xml, _ft_reference),
    (_fmea_tables, fmea_to_xml, _fmea_reference),
    (_tfpgs, tfpg_to_xml, _tfpg_reference),
], ids=["cutsets", "fault_tree", "fmea", "tfpg"])
def test_writer_matches_elementtree(generate, write, reference):
    for args in generate(random.Random(24)):
        assert _outcome(write, args) == _outcome(reference, args)


def _random_element(rng, depth):
    tag = rng.choice(["a", "b-c", "d"])
    attributes = {name: _text(rng) for name in rng.sample(["x", "y-z", "w"], rng.randint(0, 3))}
    children = [_random_element(rng, depth + 1) for _ in range(rng.randint(0, 3 if depth < 4 else 0))]
    return tag, attributes, children


def _as_elementtree(element):
    tag, attributes, children = element
    el = ET.Element(tag, attributes)
    el.extend(_as_elementtree(child) for child in children)
    return el


def test_any_tree_is_written_as_elementtree_writes_it():
    rng = random.Random(7)
    for _ in range(CASES):
        element = _random_element(rng, 0)
        assert to_xml(element) == _serialized(_as_elementtree(element))
