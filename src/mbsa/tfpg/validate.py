"""Behavioral validation: is a TFPG a complete abstraction of a model?

Complete means every model trace (up to the step bound) abstracts to an
activation trace the TFPG admits.  Instead of enumerating traces, validation
runs a deterministic admission monitor in lockstep with the breadth-first
product search of :mod:`mbsa.tfpg.product`: the monitor state per edge is a
saturated elapsed counter plus a window-hit flag and a passed-deadline bit,
which is exactly the information the per-node admission conditions need
(counters never decrease, so a passed deadline stays passed).  The
monitor step is a function of (monitor state, observation), so the search
takes it once per distinct pair; the per-edge and per-node data it reads
are precomputed as bits and tuples.  Every step is checked, a step back
into a product state already stored included.  The first violating step
ends a shortest counterexample trace; its precise (node, reason, step)
verdict is recomputed with :func:`mbsa.tfpg.admit.admits` on that trace.
"""

from __future__ import annotations

from dataclasses import dataclass

from mbsa.faults import ExtendedModel
from mbsa.sts.engine import Trace, _engine
from mbsa.tfpg.activation import (
    BindingEvaluator,
    NodeBinding,
    activation_trace_of,
    check_binding_total,
)
from mbsa.tfpg.admit import admits
from mbsa.tfpg.graph import Tfpg
from mbsa.tfpg.product import explore


@dataclass(frozen=True)
class Inconsistency:
    node: str
    reason: str
    step: int


@dataclass
class ValidationReport:
    verdict: str  # "complete" | "incomplete"
    counterexamples: list[tuple[Trace, Inconsistency]]
    explored_states: int = 0

    @property
    def complete(self) -> bool:
        return self.verdict == "complete"


class AdmissionMonitor:
    """Stepwise admission check over (activation mask, mode) observations.

    Bit i of a mask is ``node_order[i]``; bits of nodes outside the TFPG are
    ignored.  A monitor state is (activated TFPG nodes, edges past their
    deadline, edge slots), the first two as masks.  An edge's slot holds its
    saturated elapsed counter and a window-hit flag while the edge is
    pending and its destination inactive; None otherwise.  Feeding the
    observations of a trace prefix rejects exactly the prefixes whose
    activation traces the TFPG does not admit.
    """

    def __init__(self, tfpg: Tfpg, node_order: tuple[str, ...]):
        bit = {n: 1 << i for i, n in enumerate(node_order)}
        self.nodes = sum(bit[n] for n in tfpg.nodes)
        edges = tfpg.sorted_edges()
        # per edge: (edge bit, source bit, destination bit, tmin, tmax, modes)
        self.edges = tuple((1 << i, bit[e.src], bit[e.dst], e.tmin, e.tmax, e.modes)
                           for i, e in enumerate(edges))
        # per discrepancy, in name order: (name, bit, is OR, incoming edge
        # bits, (index, source bit, tmin, tmax) per incoming edge)
        self.checks = []
        for n in sorted(tfpg.discrepancies()):
            incoming = tuple((i, bit[e.src], e.tmin, e.tmax) for i, e in enumerate(edges) if e.dst == n)
            self.checks.append((n, bit[n], tfpg.nodes[n] == "or", sum(1 << i for i, *_ in incoming), incoming))
        self.discrepancies = sum(dbit for _, dbit, *_ in self.checks)

    def initial(self) -> tuple[int, int, tuple]:
        return (0, 0, (None,) * len(self.edges))

    def advance(self, mstate, mask: int, mode: str):
        """Process one step; returns (new_state, violated_node | None).

        On violation the new state is meaningless and exploration of that
        branch stops.
        """
        act, late, slots = mstate
        newly = mask & self.nodes & ~act

        # deadline checks for still-inactive destinations (counters exclude this step)
        if late:
            for node, dbit, is_or, into, _ in self.checks:
                if not act & dbit and late & into and (is_or or late & into == into):
                    return mstate, node

        # activation checks for newly active discrepancies: a pending edge
        # from a source activated earlier or now shows its slot, or a fresh one
        if newly & self.discrepancies:
            for node, dbit, is_or, _, incoming in self.checks:
                if not newly & dbit:
                    continue
                if not incoming:
                    return mstate, node
                views = []  # (counter, hit, tmin, tmax) per pending edge
                for i, sbit, tmin, tmax in incoming:
                    slot = slots[i]
                    if slot is not None:
                        views.append((*slot, tmin, tmax))
                    elif (newly | act) & sbit:
                        views.append((0, tmin == 0, tmin, tmax))
                now = any(c >= tmin and (tmax is None or c <= tmax) for c, _, tmin, tmax in views)
                if is_or:
                    if not now:
                        return mstate, node
                elif len(views) != len(incoming) or not now or not all(
                        hit or c >= tmin and (tmax is None or c <= tmax) for c, hit, tmin, tmax in views):
                    return mstate, node  # a source never activated, or an edge cannot fire by now

        act |= newly

        # update slots: discharge edges into activated destinations, open edges
        # from newly active sources, then advance counters by this step's mode
        new_slots = []
        new_late = 0
        for slot, (ebit, sbit, dbit, tmin, tmax, modes) in zip(slots, self.edges):
            if act & dbit or slot is None and not act & sbit:
                new_slots.append(None)
                continue
            c, hit = slot or (0, tmin == 0)
            if modes is None or mode in modes:
                c += 1
            if tmax is not None and c > tmax:
                new_late |= ebit
                c = tmax + 1
            elif tmax is None and c > tmin:
                c = tmin if tmin > 0 else 1  # saturate: window open forever
            if c >= tmin and (tmax is None or c <= tmax):
                hit = True
            new_slots.append((c, hit))
        return (act, new_late, tuple(new_slots)), None


def validate_behavioral(tfpg: Tfpg, binding: NodeBinding, xm: ExtendedModel,
                        step_bound: int | None, cap: int | None = None) -> ValidationReport:
    """Check that the TFPG admits every model trace of length <= step_bound + 1.

    Returns a complete/incomplete verdict; incomplete reports carry one
    shortest counterexample trace with its first inconsistency.
    """
    tfpg.check()
    check_binding_total(tfpg, binding)
    engine = _engine(xm.typed, cap)
    ev = BindingEvaluator(xm, binding, engine)
    mon = AdmissionMonitor(tfpg, ev.node_order)
    path, stored = explore(engine, ev, mon.initial(), mon.advance, step_bound, "product")
    if path is None:
        return ValidationReport("complete", [], stored)
    trace = Trace([engine.to_dict(s) for s in path])
    verdict = admits(tfpg, activation_trace_of(trace, binding, xm))
    if verdict.ok:  # pragma: no cover - monitor and admits disagree
        raise AssertionError("monitor rejected a trace that admits() accepts")
    return ValidationReport("incomplete", [(trace, Inconsistency(verdict.node, verdict.reason, verdict.step))],
                            stored)
