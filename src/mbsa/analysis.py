"""Minimal cut sets and cut sequences for a top-level event.

Restricting an extended model so that "only the events in C may occur" is
realized by filtering the state space with the registry's suppression
predicates of all other events, which is equivalent to conjoining them as
INVAR constraints.  ``compute_mcs`` prunes supersets of discovered cut sets;
``brute_force_mcs`` enumerates every subset and is the reference oracle the
test suite compares against.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from xml.etree import ElementTree as ET

from mbsa.sts.engine import Trace, _engine
from mbsa.sts.model import Expr
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


class Analyzer:
    """Shared compiled machinery for cut-set queries on one extended model."""

    def __init__(self, xm: ExtendedModel, cap: int | None = None):
        self.xm = xm
        self.engine = _engine(xm.typed, cap)
        self.suppress_fns = {name: self.engine.compile(info.suppression) for name, info in xm.events.items()}
        self.occur_fns = {name: self.engine.compile(info.occurrence) for name, info in xm.events.items()}

    def restriction_filter(self, allowed: frozenset[str]):
        fns = [fn for name, fn in self.suppress_fns.items() if name not in allowed]
        if not fns:
            return None
        return lambda s: all(fn(s, None) for fn in fns)

    def explains(self, allowed: frozenset[str], target_fn, step_bound: int | None):
        """Witness path (tuples) reaching the target when only ``allowed`` may occur."""
        return self.engine.reach_tuples(target_fn, step_bound, self.restriction_filter(allowed))


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
    """Reference oracle: exhaustive subset enumeration with no pruning."""
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
            trace = Trace([ana.engine.to_dict(s) for s in path])
            for order in _interleavings(partition):
                orders.setdefault(order, trace)
        out.append(CutSequence(base, tuple(sorted(orders)), orders))
    return out


def _sequence_partitions(ana: Analyzer, base: frozenset[str], target_fn, step_bound: int | None):
    """BFS over (state, occurrence partition) products; yields each partition
    of first occurrences realized by a TLE witness, with one witness path."""
    members = sorted(base)
    occ = [(name, ana.occur_fns[name]) for name in members]
    state_filter = ana.restriction_filter(base)
    eng = ana.engine

    def occurred(s):
        return frozenset(name for name, fn in occ if fn(s, None))

    inits = eng.init_tuples()
    if state_filter is not None:
        inits = [s for s in inits if state_filter(s)]
    seen: dict[tuple, tuple | None] = {}
    frontier = []
    reported: set[tuple] = set()
    for s in inits:
        first = occurred(s)
        part = (tuple(sorted(first)),) if first else ()
        node = (s, part)
        if node not in seen:
            seen[node] = None
            frontier.append(node)
    depth = 0
    while frontier:
        for node in frontier:
            s, part = node
            if target_fn(s, None) and frozenset(itertools.chain.from_iterable(part)) == base:
                if part not in reported:
                    reported.add(part)
                    yield part, _node_path(seen, node)
        if step_bound is not None and depth >= step_bound:
            return
        depth += 1
        nxt = []
        for node in frontier:
            s, part = node
            done = frozenset(itertools.chain.from_iterable(part))
            for t in eng.succ_tuples(s):
                if state_filter is not None and not state_filter(t):
                    continue
                new = occurred(t) - done
                npart = part + (tuple(sorted(new)),) if new else part
                nnode = (t, npart)
                if nnode not in seen:
                    seen[nnode] = node
                    nxt.append(nnode)
        frontier = nxt


def _node_path(seen, node) -> list[tuple]:
    path = []
    cur = node
    while cur is not None:
        path.append(cur[0])
        cur = seen[cur]
    path.reverse()
    return path


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
