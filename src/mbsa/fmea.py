"""FMEA and dynamic FMEA tables: fault sets mapped to the properties they can violate.

Both tables are joins over one ``compute_mcs`` result per property; the
candidate fault sets are those minimal for at least one property.  The
"only C may occur" restriction is monotone in C and no candidate exceeds
``max_card``, so C violates p exactly when some cut set of p is a subset of
C (a nominal property's only cut set is empty): a static row is a candidate
with every property it violates by that subset test.  A dynamic row is one
admissible first-occurrence order of a candidate; a candidate that contains
no cut set of p has no witness for p, so only the candidates that contain
one go to p's cut-sequence search.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from xml.etree import ElementTree as ET

from mbsa.analysis import _sorted_mcs, compute_cut_sequences, compute_mcs
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


def _join(xm: ExtendedModel, properties: list[tuple[str, Expr]], max_card: int,
          step_bound: int | None, cap: int | None):
    """Each property's cut-set result, and the candidates in cut-set order."""
    results = [compute_mcs(xm, expr, max_card, step_bound, cap) for _, expr in properties]
    return results, _sorted_mcs(set().union(*(r.mcs for r in results)))


def _violates(cand: frozenset[str], result) -> bool:
    return any(m <= cand for m in result.mcs)


def generate_fmea(xm: ExtendedModel, properties: list[tuple[str, Expr]], max_card: int,
                  step_bound: int | None = None, cap: int | None = None) -> FmeaTable:
    """Static FMEA: rows (C, V) with V the maximal violated-property set."""
    results, candidates = _join(xm, properties, max_card, step_bound, cap)
    rows = [FmeaRow(cand, tuple(sorted(label for (label, _), r in zip(properties, results)
                                       if _violates(cand, r))))
            for cand in candidates]
    return FmeaTable(tuple(properties), rows, max_card, step_bound, dynamic=False)


def generate_dynamic_fmea(xm: ExtendedModel, properties: list[tuple[str, Expr]], max_card: int,
                          step_bound: int | None = None, cap: int | None = None) -> FmeaTable:
    """Dynamic FMEA: one row per (fault set, admissible order), with the
    properties for which that order is witnessed."""
    results, candidates = _join(xm, properties, max_card, step_bound, cap)
    witnessed: dict[frozenset[str], dict[tuple[str, ...], set[str]]] = {c: {} for c in candidates if c}
    for (label, expr), result in zip(properties, results):
        mine = replace(result, mcs=[c for c in witnessed if _violates(c, result)])
        for seq in compute_cut_sequences(xm, expr, mine, step_bound, cap):
            for order in seq.orders:
                witnessed[seq.base].setdefault(order, set()).add(label)
    rows = [FmeaRow(faults, tuple(sorted(labels)), order)
            for faults, orders in witnessed.items() for order, labels in sorted(orders.items())]
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
