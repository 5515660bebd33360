"""FMEA and dynamic FMEA tables: fault sets mapped to the properties they can violate.

Both tables are joins over one ``compute_mcs`` result per property; the
candidate fault sets are those minimal for at least one property.  The
"only C may occur" restriction is monotone in C and no candidate exceeds
``max_card``, so C violates p exactly when some cut set of p is a subset of
C (a nominal property's only cut set is empty): a static row is a candidate
with every property it violates by that subset test.  A dynamic row is one
admissible first-occurrence order of a candidate: the first-occurrence search
that also gives cut sequences runs once per nonempty candidate and asks for
every property one of whose cut sets it contains (no other property has a
witness).
"""

from __future__ import annotations

from mbsa.cutsets import Analyzer, _orders, compute_mcs
from mbsa.diagnostics import MbsaError
from mbsa.faults import ExtendedModel
from mbsa.sts.model import Expr
from mbsa.xmlout import to_xml


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
    return results, sorted(set().union(*(r.mcs for r in results)), key=lambda c: (len(c), sorted(c)))


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
    ana = Analyzer(xm, cap)
    targets = ana.engine.compile_mask([xm.typed.check_predicate(expr) for _, expr in properties])
    rows = []
    for cand in filter(None, candidates):
        wanted = sum(1 << k for k, r in enumerate(results) if _violates(cand, r))
        for order, (bits, _) in sorted(_orders(ana, cand, targets, wanted, step_bound).items()):
            violated = tuple(sorted(label for k, (label, _) in enumerate(properties) if bits >> k & 1))
            rows.append(FmeaRow(cand, violated, order))
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
    from mbsa.sts.pretty import print_expr  # a TSV-only job prints no expression

    rows = []
    for row in table.rows:
        children = [("fault", {"name": f}, ()) for f in sorted(row.faults)]
        children += [("order", {"pos": str(i), "name": f}, ()) for i, f in enumerate(row.ordering or ())]
        children += [("violates", {"label": v}, ()) for v in row.violated]
        rows.append(("row", {}, children))
    properties = [("property", {"label": label, "expr": print_expr(expr)}, ()) for label, expr in table.properties]
    return to_xml(("fmea", {"dynamic": "true" if table.dynamic else "false", "max-card": str(table.max_card),
                            "step-bound": "unbounded" if table.step_bound is None else str(table.step_bound)},
                   [("properties", {}, properties), ("rows", {}, rows)]))


def export_fmea(table: FmeaTable, fmt: str) -> str:
    if fmt == "xml":
        return fmea_to_xml(table)
    if fmt == "tsv":
        return fmea_to_tsv(table)
    raise FmeaError(f"unknown FMEA format {fmt!r} (expected xml or tsv)")
