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

from xml.etree import ElementTree as ET

from mbsa.analysis import CutSetResult, _sorted_mcs, compute_cut_sequences, compute_mcs
from mbsa.diagnostics import MbsaError
from mbsa.faults import ExtendedModel
from mbsa.sts.model import Expr
from mbsa.sts.pretty import print_expr


class FmeaError(MbsaError):
    pass


class FmeaRow:
    __slots__ = ("faults", "violated", "ordering")

    def __init__(self, faults: frozenset[str], violated: tuple[str, ...],
                 ordering: tuple[str, ...] | None = None):
        self.faults = faults
        self.violated = violated  # property labels, sorted
        self.ordering = ordering  # present iff the table is dynamic


class FmeaTable:
    __slots__ = ("properties", "rows", "max_card", "step_bound", "dynamic")

    def __init__(self, properties: tuple[tuple[str, Expr], ...], rows: list[FmeaRow], max_card: int,
                 step_bound: int | None, dynamic: bool):
        self.properties, self.rows, self.max_card = properties, rows, max_card
        self.step_bound, self.dynamic = step_bound, dynamic


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
        mine = CutSetResult(result.tle, [c for c in witnessed if _violates(c, result)], result.max_card,
                            result.step_bound, result.complete, result.nominal_warning)
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


def export_fmea(table: FmeaTable, fmt: str) -> str:
    if fmt == "xml":
        return fmea_to_xml(table)
    if fmt == "tsv":
        return fmea_to_tsv(table)
    raise FmeaError(f"unknown FMEA format {fmt!r} (expected xml or tsv)")
