"""Behavioral validation: is a TFPG a complete abstraction of a model?

Complete means every model trace (up to the step bound) abstracts to an
activation trace the TFPG admits.  Instead of enumerating traces, validation
runs a deterministic admission monitor in lockstep with a breadth-first
product exploration: the monitor state per edge is a saturated elapsed
counter plus sticky window/deadline flags, which is exactly the information
the per-node admission conditions need.  A violating product state yields a
shortest counterexample trace; its precise (node, reason, step) verdict is
recomputed with :func:`mbsa.tfpg.admit.admits` on the reconstructed trace.
"""

from __future__ import annotations

from dataclasses import dataclass

from mbsa.diagnostics import ResourceCapError
from mbsa.faults import ExtendedModel
from mbsa.sts.engine import Trace, _engine
from mbsa.tfpg.activation import (
    ActivationTrace,
    BindingEvaluator,
    NodeBinding,
    activation_trace_of,
    check_binding_total,
)
from mbsa.tfpg.admit import admits
from mbsa.tfpg.graph import Tfpg


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


_UNTRACKED = -1


class AdmissionMonitor:
    """Stepwise admission check over (activation bits, mode) observations.

    Edge slots hold (saturated counter, window-hit flag, deadline-exceeded
    flag) while the edge is pending and its destination inactive; -1
    otherwise.  Feeding the observations of a trace prefix rejects exactly
    the prefixes whose activation traces the TFPG does not admit.
    """

    def __init__(self, tfpg: Tfpg, node_order: tuple[str, ...], reset_on_disable: bool = False):
        self.tfpg = tfpg
        self.reset = reset_on_disable
        self.index = {n: i for i, n in enumerate(node_order)}
        self.node_order = node_order
        self.edges = sorted(tfpg.edges, key=lambda e: (e.src, e.dst, e.tmin, e.tmax is None, e.tmax or 0))
        # per destination: indices into self.edges
        self.incoming: dict[str, list[int]] = {n: [] for n in tfpg.nodes}
        for i, e in enumerate(self.edges):
            self.incoming[e.dst].append(i)
        self.check_nodes = sorted(tfpg.discrepancies())

    def initial(self) -> tuple[int, tuple]:
        return (0, tuple(_UNTRACKED for _ in self.edges))

    def _in_window(self, e, slot) -> bool:
        c, _hit, _exc = slot
        return c >= e.tmin and (e.tmax is None or c <= e.tmax)

    def advance(self, mstate, bits: tuple[bool, ...], mode: str):
        """Process one step; returns (new_state, violated_node | None).

        On violation the new state is meaningless and exploration of that
        branch stops.
        """
        act_mask, slots = mstate
        newly = 0
        for i, b in enumerate(bits):
            if b and not act_mask >> i & 1:
                newly |= 1 << i

        # deadline checks for still-inactive destinations (counters exclude this step)
        for node in self.check_nodes:
            ni = self.index[node]
            if act_mask >> ni & 1:
                continue
            idxs = self.incoming[node]
            if self.tfpg.nodes[node] == "or":
                for i in idxs:
                    slot = slots[i]
                    if slot != _UNTRACKED and slot[2]:
                        return mstate, node
            else:
                if idxs and all(slots[i] != _UNTRACKED and slots[i][2] for i in idxs):
                    return mstate, node

        # activation checks for newly active discrepancies
        for node in self.check_nodes:
            ni = self.index[node]
            if not newly >> ni & 1:
                continue
            idxs = self.incoming[node]
            if not idxs:
                return mstate, node
            kind = self.tfpg.nodes[node]
            views = []  # (edge, slot or fresh) for pending edges
            for i in idxs:
                e = self.edges[i]
                si = self.index[e.src]
                slot = slots[i]
                if slot != _UNTRACKED:
                    views.append((e, slot))
                elif newly >> si & 1:
                    views.append((e, (0, e.tmin == 0, False)))
                elif act_mask >> si & 1:
                    # source active but slot untracked cannot happen while dst inactive
                    views.append((e, (0, e.tmin == 0, False)))
            if kind == "or":
                if not any(self._in_window(e, slot) for e, slot in views):
                    return mstate, node
            else:
                if len(views) != len(idxs):
                    return mstate, node  # some source never activated
                if not all(slot[1] or self._in_window(e, slot) for e, slot in views):
                    return mstate, node  # some edge could not have fired yet
                if not any(self._in_window(e, slot) for e, slot in views):
                    return mstate, node  # no edge can fire exactly now

        act_after = act_mask | newly

        # update slots: discharge edges into activated destinations, open edges
        # from newly active sources, then advance counters by this step's mode
        new_slots = []
        for i, e in enumerate(self.edges):
            si, di = self.index[e.src], self.index[e.dst]
            slot = slots[i]
            if act_after >> di & 1:
                new_slots.append(_UNTRACKED)
                continue
            if slot == _UNTRACKED:
                if act_after >> si & 1:
                    slot = (0, e.tmin == 0, False)
                else:
                    new_slots.append(_UNTRACKED)
                    continue
            c, hit, exc = slot
            enabled = e.modes is None or mode in e.modes
            if enabled:
                c += 1
            elif self.reset:
                c = 0
            if e.tmax is not None and c > e.tmax:
                exc = True
                c = e.tmax + 1
            elif e.tmax is None and c > e.tmin:
                c = e.tmin if e.tmin > 0 else 1  # saturate: window open forever
            if c >= e.tmin and (e.tmax is None or c <= e.tmax):
                hit = True
            new_slots.append((c, hit, exc))
        return (act_after, tuple(new_slots)), None


def monitor_run(tfpg: Tfpg, at: ActivationTrace, reset_on_disable: bool = False) -> bool:
    """Feed a whole activation trace through the monitor (test hook)."""
    node_order = tuple(sorted(tfpg.nodes))
    mon = AdmissionMonitor(tfpg, node_order, reset_on_disable)
    mstate = mon.initial()
    for step in range(at.length):
        bits = tuple(at.times[n] is not None and at.times[n] <= step for n in node_order)
        mstate, bad = mon.advance(mstate, bits, at.modes[step])
        if bad is not None:
            return False
    return True


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
    # monitor works on the binding's node order restricted to TFPG nodes
    node_order = tuple(n for n in ev.node_order if n in tfpg.nodes)
    positions = [ev.node_order.index(n) for n in node_order]
    mon = AdmissionMonitor(tfpg, node_order)
    succ_cache: dict[tuple, list[tuple]] = {}

    parents: dict[tuple, tuple | None] = {}
    frontier: list[tuple] = []
    limit = engine.cap

    def observe(state: tuple):
        bits_all, mode = ev.observe(state)
        return tuple(bits_all[p] for p in positions), mode

    def counterexample(node_key) -> tuple[Trace, Inconsistency]:
        path = []
        cur = node_key
        while cur is not None:
            path.append(cur[0])
            cur = parents[cur]
        path.reverse()
        trace = Trace([engine.to_dict(s) for s in path])
        at = activation_trace_of(trace, binding, xm)
        verdict = admits(tfpg, at)
        if verdict.ok:  # pragma: no cover - monitor and admits disagree
            raise AssertionError("monitor rejected a trace that admits() accepts")
        return trace, Inconsistency(verdict.node, verdict.reason, verdict.step)

    for s in engine.init_tuples():
        bits, mode = observe(s)
        mstate, bad = mon.advance(mon.initial(), bits, mode)
        key = (s, mstate)
        if key in parents:
            continue
        parents[key] = None
        if bad is not None:
            return ValidationReport("incomplete", [counterexample(key)], len(parents))
        frontier.append(key)

    depth = 0
    while frontier and (step_bound is None or depth < step_bound):
        depth += 1
        nxt: list[tuple] = []
        for key in frontier:
            s, mstate = key
            succs = succ_cache.get(s)
            if succs is None:
                succs = engine.succ_tuples(s)
                succ_cache[s] = succs
            for t in succs:
                bits, mode = observe(t)
                nstate, bad = mon.advance(mstate, bits, mode)
                nkey = (t, nstate)
                if nkey in parents:
                    continue
                if len(parents) >= limit:
                    raise ResourceCapError(f"stored product states exceed cap {limit}")
                parents[nkey] = key
                if bad is not None:
                    return ValidationReport("incomplete", [counterexample(nkey)], len(parents))
                nxt.append(nkey)
        frontier = nxt
    return ValidationReport("complete", [], len(parents))
