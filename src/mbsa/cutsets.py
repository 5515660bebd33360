"""Minimal cut sets and cut sequences for a top-level event.

Restricting an extended model so that "only the events in C may occur"
conjoins the registry's suppression predicates of all other events as INVAR
constraints.  The analyzer's engine carries them as guards, and a search
passes the mask of the forbidden events, so a forbidden fault branch is
pruned where it is chosen.  ``compute_mcs`` tests subsets in cut-set order
and skips supersets of discovered cut sets.  The first-occurrence search
``_orders`` runs once per event set over (state id, first-occurrence
partition) keys, its states in a ``StateStore`` labelled by the registry's
occurrence predicates, and tests a vector of targets at once: the order-aware
query of Bozzano, Cimatti, Griggio and Mattarei (CAV 2015).  It stops as soon
as every order of the event set is witnessed with every wanted target; a set
with an order it can never witness is searched to exhaustion.  Cut sequences
and dynamic FMEA both read it.
"""

from __future__ import annotations

import itertools
import math

from mbsa.analysis import CutSequence, CutSetResult
from mbsa.xmlout import to_xml

TYPE_CHECKING = False  # typing.TYPE_CHECKING, without importing typing at start-up
if TYPE_CHECKING:
    from mbsa.faults import ExtendedModel
    from mbsa.sts.engine import Trace
    from mbsa.sts.model import Expr


class Analyzer:
    """Shared compiled machinery for cut-set queries on one extended model.

    With the events in sorted-name order, guard k of ``engine`` is the k-th
    event's suppression predicate, and bit k of ``label(s)`` is set when its
    occurrence predicate holds in state ``s``.  The engine and the label
    function are shared by every analyzer of the same model, cap and registry
    (a registry is not modified once built).
    """

    def __init__(self, xm: ExtendedModel, cap: int | None = None):
        # the engine is imported on first use, not at the top: the layer
        # tracer loads this module into jobs that search nothing
        from mbsa.sts.engine import _engine

        self.xm = xm
        self.events = sorted(xm.events)
        self.full = (1 << len(self.events)) - 1
        infos = [xm.events[name] for name in self.events]
        self.engine = _engine(xm.typed, cap, [i.suppression for i in infos])
        self.label = self.engine.compile_mask([i.occurrence for i in infos])
        self._names: dict[int, tuple[str, ...]] = {}  # the cut-sequence search asks for few masks, many times

    def mask(self, names) -> int:
        """The bits of the registered events among ``names``."""
        return sum(1 << k for k, name in enumerate(self.events) if name in names)

    def names(self, mask: int) -> tuple[str, ...]:
        """The sorted event names of the bits of ``mask``."""
        names = self._names.get(mask)
        if names is None:
            names = self._names[mask] = tuple(name for k, name in enumerate(self.events) if mask >> k & 1)
        return names

    def explains(self, allowed: frozenset[str], target_fn, step_bound: int | None):
        """Witness path (tuples) reaching the target when only ``allowed`` may occur."""
        return self.engine.reach_tuples(target_fn, step_bound, self.full ^ self.mask(allowed))


def compute_mcs(xm: ExtendedModel, tle: Expr, max_card: int,
                step_bound: int | None = None, cap: int | None = None) -> CutSetResult:
    """All minimal cut sets of cardinality <= max_card for the top-level event.

    C is reported iff the TLE is reachable (within ``step_bound``) when only
    events in C may occur and no proper subset of C already explains it.
    Subsets are tested by increasing cardinality, lexicographically within a
    cardinality, which is the order of the result; supersets of discovered
    cut sets are skipped, which cannot change the result because
    reachability is monotone in the allowed set.
    """
    if max_card < 1:
        raise ValueError("max_card must be >= 1")
    ana = Analyzer(xm, cap)
    target_fn = ana.engine.compile(xm.typed.check_predicate(tle))

    if ana.explains(frozenset(), target_fn, step_bound) is not None:
        # reachable with zero faults: report the empty cut set and warn
        return CutSetResult(tle, [frozenset()], max_card, step_bound,
                            complete=step_bound is None, nominal_warning=True)

    found: list[frozenset[str]] = []
    for card in range(1, min(max_card, len(ana.events)) + 1):
        for combo in itertools.combinations(ana.events, card):
            cand = frozenset(combo)
            if not any(m <= cand for m in found) and ana.explains(cand, target_fn, step_bound) is not None:
                found.append(cand)
    complete = step_bound is None and max_card >= len(ana.events)
    return CutSetResult(tle, found, max_card, step_bound, complete)


def witness(xm: ExtendedModel, events: frozenset[str], tle: Expr,
            step_bound: int | None = None, cap: int | None = None) -> Trace | None:
    """A replayable trace reaching the TLE with only ``events`` occurring."""
    from mbsa.sts.engine import Trace

    ana = Analyzer(xm, cap)
    target_fn = ana.engine.compile(xm.typed.check_predicate(tle))
    path = ana.explains(events, target_fn, step_bound)
    if path is None:
        return None
    return Trace([ana.engine.to_dict(s) for s in path])


# ---------------------------------------------------------------------------
# Cut sequences (admissible orders of first occurrences)

def compute_cut_sequences(xm: ExtendedModel, tle: Expr, result: CutSetResult,
                          step_bound: int | None = None, cap: int | None = None) -> list[CutSequence]:
    """For each cut set, the total orders realizable as first-occurrence orders
    of some witness trace (with only that cut set's events allowed)."""
    from mbsa.sts.engine import Trace

    ana = Analyzer(xm, cap)
    target = ana.engine.compile_mask([xm.typed.check_predicate(tle)])
    out: list[CutSequence] = []
    for base in result.mcs:
        if not base:
            out.append(CutSequence(base, ((),)))
            continue
        witnesses: dict[tuple[str, ...], Trace] = {}
        path = trace = None
        for order, (_, first) in _orders(ana, base, target, 1, step_bound).items():
            if first is not path:  # the orders of one path are consecutive and share its trace
                path, trace = first, Trace([ana.engine.to_dict(s) for s in first])
            witnesses[order] = trace
        out.append(CutSequence(base, tuple(sorted(witnesses)), witnesses))
    return out


def _orders(ana: Analyzer, base: frozenset[str], targets, wanted: int,
            step_bound: int | None) -> dict[tuple[str, ...], tuple[int, list]]:
    """Each total order of first occurrences of all of ``base`` that reaches
    some bits of ``wanted`` in ``targets`` (a ``compile_mask`` function), with
    only ``base`` allowed: order -> (the bits witnessed with it, the path of
    states of its first witness).

    The search runs over (state id, partition of first occurrences as event
    masks) keys.  Simultaneous first occurrences are witnessed under every
    interleaving of the tied group.  A key whose partition holds all of
    ``base`` and no longer waits for a wanted target is not expanded: the keys
    below it carry the same partition.  Bits are only added and first paths
    kept, so the search ends once all ``len(base)!`` orders hold ``wanted``."""
    from mbsa.sts.engine import StateStore, breadth_first

    want = ana.mask(base)
    store = StateStore(ana.engine, ana.label, ana.full ^ want)
    labels, states = store.labels, store.states
    pending: dict[tuple, int] = {}  # partition -> wanted targets not yet witnessed with it

    def expand(key):
        sid, part = (None, ()) if key is None else key
        missing = want
        for group in part:
            missing ^= group
        if not missing and not pending.get(part, wanted):
            return (), ()  # every key below has this partition, and it has nothing left to report
        children, stops = [], []
        for c in store.children(sid):
            new = labels[c] & missing
            child = (c, part + (new,) if new else part)
            children.append(child)
            # a stored key was tested when it was first a child: the
            # targets it witnesses are no longer pending for its partition
            if new == missing:
                todo = pending.get(child[1], wanted)
                if todo and (bits := targets(states[c]) & todo):
                    pending[child[1]] = todo ^ bits
                    stops.append((*child, bits))
        return children, stops

    found: dict[tuple[str, ...], tuple[int, list]] = {}
    done, total = 0, math.factorial(len(base))  # the orders holding all of wanted, and all orders
    for keys, _ in breadth_first(expand, step_bound, ana.engine.cap, "cut-sequence states"):
        if keys is not None:
            _, part, bits = keys[-1]
            path = [states[key[0]] for key in keys]
            for combo in itertools.product(*(itertools.permutations(ana.names(g)) for g in part)):
                order = tuple(itertools.chain.from_iterable(combo))
                old_bits, first = found.get(order, (0, path))
                found[order] = (old_bits | bits, first)
                if old_bits != wanted and old_bits | bits == wanted:
                    done += 1
            if done == total:
                break  # bits are only added and first paths kept: nothing left can change
    return found


# ---------------------------------------------------------------------------
# Serialization

def cutsets_to_tsv(result: CutSetResult) -> str:
    """One cut set per line, events sorted and tab-separated."""
    lines = ["\t".join(sorted(c)) for c in result.mcs]
    return "\n".join(lines) + ("\n" if lines else "")


def cutsets_to_xml(result: CutSetResult) -> str:
    from mbsa.sts.pretty import print_expr

    attributes = {"tle": print_expr(result.tle), "max-card": str(result.max_card),
                  "step-bound": "unbounded" if result.step_bound is None else str(result.step_bound),
                  "complete": "true" if result.complete else "false"}
    if result.nominal_warning:
        attributes["nominal-warning"] = "true"
    return to_xml(("cut-sets", attributes,
                   [("cut-set", {}, [("event", {"name": e}, ()) for e in sorted(c)]) for c in result.mcs]))
