"""Records of minimal cut sets and cut sequences for a top-level event.

The search that computes them and their writers live in ``mbsa.cutsets``; the
names below are re-exported from there on first access (PEP 562), so the
fault-tree and probability layers, which import this module for its records,
do not compile the search as well.
"""

from __future__ import annotations

from mbsa import reexport

TYPE_CHECKING = False  # typing.TYPE_CHECKING, without importing typing at start-up
if TYPE_CHECKING:
    from mbsa.sts.engine import Trace
    from mbsa.sts.model import Expr

# re-exported name -> its home module
_HOME = dict.fromkeys(("Analyzer", "compute_mcs", "brute_force_mcs", "witness", "compute_cut_sequences",
                       "cutsets_to_tsv", "cutsets_to_xml"), "mbsa.cutsets")

__all__ = ["CutSetResult", "CutSequence", *_HOME]

__getattr__ = reexport(globals(), _HOME)


class CutSetResult:
    __slots__ = ("tle", "mcs", "max_card", "step_bound", "complete", "nominal_warning")

    def __init__(self, tle: Expr, mcs: list[frozenset[str]], max_card: int, step_bound: int | None,
                 complete: bool, nominal_warning: bool = False):
        self.tle = tle
        self.mcs = mcs  # sorted by (cardinality, lexicographic events)
        self.max_card, self.step_bound = max_card, step_bound
        self.complete, self.nominal_warning = complete, nominal_warning

    def as_sets(self) -> set[frozenset[str]]:
        return set(self.mcs)


class CutSequence:
    """One minimal cut set together with its admissible first-occurrence orders."""

    __slots__ = ("base", "orders", "witnesses")

    def __init__(self, base: frozenset[str], orders: tuple[tuple[str, ...], ...],
                 witnesses: dict[tuple[str, ...], Trace] | None = None):
        self.base = base
        self.orders = orders  # sorted for determinism
        self.witnesses = {} if witnesses is None else witnesses
