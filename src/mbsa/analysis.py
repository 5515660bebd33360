"""Minimal cut sets and cut sequences for a top-level event.

Restricting an extended model so that "only the events in C may occur" is
realized by filtering the state space with the registry's suppression
predicates of all other events, which is equivalent to conjoining them as
INVAR constraints.  The filter is a mask test: every suppression and
occurrence predicate of the registry is compiled into one label function,
evaluated once per distinct state into one int (a bank per engine and
registry), and a state is dropped when its label meets the mask of the
forbidden events.  ``compute_mcs`` prunes supersets of discovered cut sets;
``brute_force_mcs`` enumerates every subset with no pruning.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from xml.etree import ElementTree as ET

from mbsa.sts.engine import Trace, _engine, breadth_first
from mbsa.sts.model import Expr, UnOp
from mbsa.sts.pretty import print_expr
from mbsa.faults import ExtendedModel


@dataclass
class CutSetResult:
    tle: Expr
    mcs: list[frozenset[str]]  # sorted by (cardinality, lexicographic events)
    max_card: int
    step_bound: int | None
    complete: bool
    nominal_warning: bool = False

    def as_sets(self) -> set[frozenset[str]]:
        return set(self.mcs)


@dataclass
class CutSequence:
    """One minimal cut set together with its admissible first-occurrence orders."""

    base: frozenset[str]
    orders: tuple[tuple[str, ...], ...]  # sorted for determinism
    witnesses: dict[tuple[str, ...], Trace] = field(default_factory=dict)


def _sorted_mcs(sets) -> list[frozenset[str]]:
    return sorted(sets, key=lambda c: (len(c), tuple(sorted(c))))


class _Labels(dict):
    """A label function memoized per distinct state: ``bank[s]``."""

    __slots__ = ("fn",)

    def __init__(self, fn):
        super().__init__()
        self.fn = fn

    def __missing__(self, s):
        label = self[s] = self.fn(s)
        return label


class Analyzer:
    """Shared compiled machinery for cut-set queries on one extended model.

    ``labels[s]`` is the fault label of state ``s``.  With the events in
    sorted-name order, bit k is set when the k-th event's suppression
    predicate fails in ``s`` and bit ``len(events) + k`` when its occurrence
    predicate holds.  The bank is shared by every analyzer of the same engine
    and registry (a registry is not modified once built).
    """

    def __init__(self, xm: ExtendedModel, cap: int | None = None):
        self.xm = xm
        self.engine = _engine(xm.typed, cap)
        self.events = sorted(xm.events)
        self.full = (1 << len(self.events)) - 1
        banks = vars(self.engine).setdefault("_label_banks", {})
        hit = banks.get(id(xm.events))
        if hit is None or hit[0] is not xm.events:
            infos = [xm.events[name] for name in self.events]
            fn = self.engine.compile_mask([UnOp("!", i.suppression) for i in infos]
                                          + [i.occurrence for i in infos])
            # the entry keeps the registry alive: id() keys are only stable while it is
            hit = banks[id(xm.events)] = (xm.events, _Labels(fn))
        self.labels = hit[1]

    def mask(self, names) -> int:
        """The bits of the registered events among ``names``."""
        return sum(1 << k for k, name in enumerate(self.events) if name in names)

    def names(self, mask: int) -> tuple[str, ...]:
        """The sorted event names of the bits of ``mask``."""
        return tuple(name for k, name in enumerate(self.events) if mask >> k & 1)

    def explains(self, allowed: frozenset[str], target_fn, step_bound: int | None):
        """Witness path (tuples) reaching the target when only ``allowed`` may occur."""
        return self.engine.reach_tuples(target_fn, step_bound, self.labels, self.full ^ self.mask(allowed))


def compute_mcs(xm: ExtendedModel, tle: Expr, max_card: int,
                step_bound: int | None = None, cap: int | None = None) -> CutSetResult:
    """All minimal cut sets of cardinality <= max_card for the top-level event.

    C is reported iff the TLE is reachable (within ``step_bound``) when only
    events in C may occur and no proper subset of C already explains it.
    Subsets are tested by increasing cardinality, lexicographically within a
    cardinality; supersets of discovered cut sets are skipped, which cannot
    change the result because reachability is monotone in the allowed set.
    """
    return _mcs(xm, tle, max_card, step_bound, cap, prune=True)


def brute_force_mcs(xm: ExtendedModel, tle: Expr, max_card: int,
                    step_bound: int | None = None, cap: int | None = None) -> CutSetResult:
    """Exhaustive subset enumeration with no pruning: a reference for the
    pruning of ``compute_mcs``, not for the label bank both use."""
    return _mcs(xm, tle, max_card, step_bound, cap, prune=False)


def _mcs(xm: ExtendedModel, tle: Expr, max_card: int, step_bound: int | None,
         cap: int | None, prune: bool) -> CutSetResult:
    if max_card < 1:
        raise ValueError("max_card must be >= 1")
    ana = Analyzer(xm, cap)
    target_fn = ana.engine.compile(xm.typed.check_expr(tle))
    events = sorted(xm.events)

    if ana.explains(frozenset(), target_fn, step_bound) is not None:
        # reachable with zero faults: report the empty cut set and warn
        return CutSetResult(tle, [frozenset()], max_card, step_bound,
                            complete=step_bound is None, nominal_warning=True)

    found: list[frozenset[str]] = []
    explaining: list[frozenset[str]] = []
    for card in range(1, min(max_card, len(events)) + 1):
        for combo in itertools.combinations(events, card):
            cand = frozenset(combo)
            if prune and any(m <= cand for m in found):
                continue
            if ana.explains(cand, target_fn, step_bound) is not None:
                (found if prune else explaining).append(cand)
    if not prune:
        found = [c for c in explaining if not any(o < c for o in explaining)]
    complete = step_bound is None and max_card >= len(events)
    return CutSetResult(tle, _sorted_mcs(found), max_card, step_bound, complete)


def witness(xm: ExtendedModel, events: frozenset[str], tle: Expr,
            step_bound: int | None = None, cap: int | None = None) -> Trace | None:
    """A replayable trace reaching the TLE with only ``events`` occurring."""
    ana = Analyzer(xm, cap)
    target_fn = ana.engine.compile(xm.typed.check_expr(tle))
    path = ana.explains(events, target_fn, step_bound)
    if path is None:
        return None
    return Trace([ana.engine.to_dict(s) for s in path])


# ---------------------------------------------------------------------------
# Cut sequences (admissible orders of first occurrences)

def _interleavings(partition: tuple[tuple[str, ...], ...]):
    """All total orders consistent with an ordered partition: simultaneous
    first occurrences are witnessed under every interleaving of the tied group."""
    groups = [list(itertools.permutations(g)) for g in partition]
    for combo in itertools.product(*groups):
        yield tuple(itertools.chain.from_iterable(combo))


def compute_cut_sequences(xm: ExtendedModel, tle: Expr, result: CutSetResult,
                          step_bound: int | None = None, cap: int | None = None) -> list[CutSequence]:
    """For each cut set, the total orders realizable as first-occurrence orders
    of some witness trace (with only that cut set's events allowed)."""
    ana = Analyzer(xm, cap)
    target_fn = ana.engine.compile(xm.typed.check_expr(tle))
    out: list[CutSequence] = []
    for base in result.mcs:
        if not base:
            out.append(CutSequence(base, ((),)))
            continue
        orders: dict[tuple[str, ...], Trace] = {}
        for partition, path in _sequence_partitions(ana, base, target_fn, step_bound):
            # the first witness of an order is kept
            new = [order for order in _interleavings(partition) if order not in orders]
            if new:
                trace = Trace([ana.engine.to_dict(s) for s in path])
                orders.update(dict.fromkeys(new, trace))
        out.append(CutSequence(base, tuple(sorted(orders)), orders))
    return out


def _sequence_partitions(ana: Analyzer, base: frozenset[str], target_fn, step_bound: int | None):
    """Search over (state, occurrence partition) keys, a partition being a
    tuple of event masks; yields each partition of first occurrences realized
    by a TLE witness, as sorted name tuples, with one witness path."""
    labels, eng = ana.labels, ana.engine
    want = ana.mask(base)
    forbidden = ana.full ^ want
    shift = len(ana.events)
    reported: set[tuple] = set()

    def expand(node):
        if node is None:
            states, part = eng.init_tuples(), ()
        else:
            states, part = eng.succ_tuples(node[0]), node[1]
        missing = want
        for group in part:
            missing ^= group
        children, stops = [], []
        for t in states:
            label = labels[t]
            if label & forbidden:
                continue
            new = label >> shift & missing
            child = (t, part + (new,) if new else part)
            children.append(child)
            # a stored key was tested when it was first a child: its
            # partition, if a witness one, is already reported
            if new == missing and child[1] not in reported and target_fn(t, None):
                reported.add(child[1])
                stops.append(child)
        return children, stops

    for path, _ in breadth_first(expand, step_bound, eng.cap, "cut-sequence states"):
        if path is not None:
            yield tuple(ana.names(g) for g in path[-1][1]), [s for s, _ in path]


# ---------------------------------------------------------------------------
# Serialization

def cutsets_to_tsv(result: CutSetResult) -> str:
    """One cut set per line, events sorted and tab-separated."""
    lines = ["\t".join(sorted(c)) for c in result.mcs]
    return "\n".join(lines) + ("\n" if lines else "")


def cutsets_to_xml(result: CutSetResult) -> str:
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
    ET.indent(root)
    return ET.tostring(root, encoding="unicode") + "\n"
