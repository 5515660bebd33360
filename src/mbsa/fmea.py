"""FMEA and dynamic FMEA tables: fault sets mapped to the properties they can violate.

A row pairs a fault set C with the maximal set of properties reachable under
the only-C restriction; rows are limited to fault sets that are minimal for
at least one property, so per property the minimal rows coincide with its
minimal cut sets.  Dynamic tables list one row per admissible
first-occurrence order.
"""

from __future__ import annotations

from dataclasses import dataclass
from xml.etree import ElementTree as ET

from mbsa.analysis import Analyzer, CutSetResult, compute_cut_sequences, compute_mcs
from mbsa.diagnostics import MbsaError
from mbsa.faults import ExtendedModel
from mbsa.sts.model import Expr
from mbsa.sts.parse import parse_expr_text
from mbsa.sts.pretty import print_expr


class FmeaError(MbsaError):
    pass


@dataclass(frozen=True)
class FmeaRow:
    faults: frozenset[str]
    violated: tuple[str, ...]  # property labels, sorted
    ordering: tuple[str, ...] | None = None  # present iff the table is dynamic


@dataclass
class FmeaTable:
    properties: tuple[tuple[str, Expr], ...]
    rows: list[FmeaRow]
    max_card: int
    step_bound: int | None
    dynamic: bool


def _row_key(row: FmeaRow):
    return (len(row.faults), tuple(sorted(row.faults)), row.ordering or ())


def generate_fmea(xm: ExtendedModel, properties: list[tuple[str, Expr]], max_card: int,
                  step_bound: int | None = None, cap: int | None = None) -> FmeaTable:
    """Static FMEA: rows (C, V) with V the maximal violated-property set."""
    candidates: set[frozenset[str]] = set()
    for _, expr in properties:
        result = compute_mcs(xm, expr, max_card, step_bound, cap)
        candidates.update(result.mcs)
    ana = Analyzer(xm, cap)
    target_fns = [(label, ana.engine.compile(xm.typed.check_predicate(expr))) for label, expr in properties]
    rows = []
    for cand in candidates:
        violated = tuple(sorted(label for label, fn in target_fns
                                if ana.explains(cand, fn, step_bound) is not None))
        if violated:
            rows.append(FmeaRow(cand, violated))
    rows.sort(key=_row_key)
    return FmeaTable(tuple(properties), rows, max_card, step_bound, dynamic=False)


def generate_dynamic_fmea(xm: ExtendedModel, properties: list[tuple[str, Expr]], max_card: int,
                          step_bound: int | None = None, cap: int | None = None) -> FmeaTable:
    """Dynamic FMEA: one row per (fault set, admissible order), with the
    properties for which that order is witnessed."""
    candidates: set[frozenset[str]] = set()
    for label, expr in properties:
        candidates.update(compute_mcs(xm, expr, max_card, step_bound, cap).mcs)
    ordered_cands = sorted(candidates, key=lambda c: (len(c), tuple(sorted(c))))
    per_order: dict[tuple[frozenset[str], tuple[str, ...]], set[str]] = {}
    for label, expr in properties:
        carrier = CutSetResult(expr, ordered_cands, max_card, step_bound, complete=False)
        for seq in compute_cut_sequences(xm, expr, carrier, step_bound, cap):
            for order in seq.orders:
                per_order.setdefault((seq.base, order), set()).add(label)
    rows = []
    for (faults, order), labels in per_order.items():
        if not faults:
            continue
        rows.append(FmeaRow(faults, tuple(sorted(labels)), order))
    rows.sort(key=_row_key)
    return FmeaTable(tuple(properties), rows, max_card, step_bound, dynamic=True)


# ---------------------------------------------------------------------------
# Serialization

def fmea_to_tsv(table: FmeaTable) -> str:
    """Header plus one row per FmeaRow; cells are comma-joined."""
    header = "faults\tordering\tviolated" if table.dynamic else "faults\tviolated"
    lines = [header]
    for row in table.rows:
        faults = ",".join(sorted(row.faults))
        violated = ",".join(row.violated)
        if table.dynamic:
            lines.append(f"{faults}\t{'->'.join(row.ordering or ())}\t{violated}")
        else:
            lines.append(f"{faults}\t{violated}")
    return "\n".join(lines) + "\n"


def fmea_to_xml(table: FmeaTable) -> str:
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
    ET.indent(root)
    return ET.tostring(root, encoding="unicode") + "\n"


def fmea_from_xml(text: str) -> FmeaTable:
    root = ET.fromstring(text)
    if root.tag != "fmea":
        raise FmeaError(f"expected <fmea> document, found <{root.tag}>")
    dynamic = root.get("dynamic") == "true"
    bound = root.get("step-bound", "unbounded")
    properties = []
    for p in root.find("properties") or []:
        properties.append((p.get("label", ""), parse_expr_text(p.get("expr", "TRUE"))))
    rows = []
    for r in root.find("rows") or []:
        faults = frozenset(f.get("name", "") for f in r if f.tag == "fault")
        orders = sorted(((int(o.get("pos", "0")), o.get("name", "")) for o in r if o.tag == "order"))
        ordering = tuple(name for _, name in orders) if dynamic else None
        violated = tuple(v.get("label", "") for v in r if v.tag == "violates")
        rows.append(FmeaRow(faults, violated, ordering))
    return FmeaTable(tuple(properties), rows, int(root.get("max-card", "1")),
                     None if bound == "unbounded" else int(bound), dynamic)


def export_fmea(table: FmeaTable, fmt: str) -> str:
    if fmt == "xml":
        return fmea_to_xml(table)
    if fmt == "tsv":
        return fmea_to_tsv(table)
    raise FmeaError(f"unknown FMEA format {fmt!r} (expected xml or tsv)")
