"""Behavioral validation: is a TFPG a complete abstraction of a model?

Complete means every model trace (up to the step bound) abstracts to an
activation trace the TFPG admits.  Instead of enumerating traces, validation
runs a deterministic admission monitor in lockstep with the breadth-first
product search of :mod:`mbsa.tfpg.product`: the monitor state per edge is a
saturated elapsed counter and a passed-deadline bit, which is exactly the
information the per-node admission conditions need (counters never
decrease, so a passed deadline stays passed, and a counter at or past
``tmin`` has met its window once, as it grows by at most one per step).  The
monitor is one function, :func:`admission_monitor`, that returns the initial
monitor state and the monitor step of a TFPG.  The step is a function of
(monitor state, label), the label being the binding's observation of a
model state, so the search takes it once per distinct pair.  It is
generated once per TFPG as straight-line Python, every edge and node check
unrolled with its bits, bounds and modes as constants; the tests compare it
step by step with an interpretive reference monitor.
Every step is checked, a step back into a product state already stored
included.  The first violating step ends a shortest counterexample trace;
its precise (node, reason, step) verdict is recomputed with
:func:`mbsa.tfpg.admit.admits` on that trace.
"""

from __future__ import annotations

from mbsa.faults import ExtendedModel
from mbsa.sts.engine import Trace, _engine
from mbsa.sts.model import Record
from mbsa.tfpg.activation import (
    BindingEvaluator,
    NodeBinding,
    activation_trace_of,
    check_binding_total,
)
from mbsa.tfpg.graph import Tfpg
from mbsa.tfpg.product import explore


class Inconsistency(Record):
    __slots__ = _fields = ("node", "reason", "step")

    def __init__(self, node: str, reason: str, step: int):
        self.node, self.reason, self.step = node, reason, step


class ValidationReport:
    __slots__ = ("verdict", "counterexamples", "explored_states")

    def __init__(self, verdict: str, counterexamples: list[tuple[Trace, Inconsistency]],
                 explored_states: int = 0):
        self.verdict = verdict  # "complete" | "incomplete"
        self.counterexamples, self.explored_states = counterexamples, explored_states

    @property
    def complete(self) -> bool:
        return self.verdict == "complete"


def admission_monitor(tfpg: Tfpg, node_order: tuple[str, ...], modes: tuple[str, ...]):
    """The stepwise admission check of ``tfpg`` over labels, as (initial
    monitor state, ``advance``).

    A label is a :class:`BindingEvaluator` label: bit i is the activation of
    ``node_order[i]``, and bit ``len(node_order) + k`` is set when
    ``modes[k]`` is the active mode.  Bits of nodes outside the TFPG are
    ignored.  A monitor state is (activated TFPG nodes, edges past their
    deadline, edge slots), the first two as masks.  An edge's slot holds its
    saturated elapsed counter while the edge is pending and its destination
    inactive; None otherwise.  Feeding the observations of a trace prefix
    rejects exactly the prefixes whose activation traces the TFPG does not
    admit.

    ``advance(mstate, label)`` processes one step and returns (new state,
    violated node | None); on a violation the new state is meaningless and
    exploration of that branch stops.  Each call generates it as
    straight-line Python (:func:`_advance_source`): the per-node checks and
    the per-edge slot updates are unrolled, with every bit, bound and mode
    set a constant, a mode set being the mask of its modes' label bits.
    """
    ns: dict = {}
    exec(compile(_advance_source(tfpg, node_order, modes), "<mbsa-monitor>", "exec"), ns)
    return (0, 0, (None,) * len(tfpg.edges)), ns["advance"]


def _window(c: str, tmin: int, tmax: int | None) -> str:
    """Source of ``tmin <= c <= tmax`` for a counter ``c >= 0``; "True" when
    it always holds."""
    low = f"{tmin} <= " if tmin > 0 else ""
    high = f" <= {tmax}" if tmax is not None else ""
    return f"{low}{c}{high}" if low or high else "True"


def _advance_source(tfpg: Tfpg, node_order: tuple[str, ...], modes: tuple[str, ...]) -> str:
    """The monitor step of ``tfpg`` as the source of ``advance``.

    On a violation it returns the state it was given and the first
    violating discrepancy in name order.  Deadline checks see the counters
    before this step.  An activation check views each incoming edge as its
    slot, or, when it has none and its source is active, as a fresh slot
    0; an OR node needs one view inside its window, an AND node a view per
    edge, each at ``tmin`` or past it, and one inside its window.
    Then edges into activated nodes are discharged, edges from newly active
    sources opened, and every pending counter counts this step if its modes
    allow, saturating past the deadline (late) or past ``tmin`` when there
    is none.
    """
    bit = {n: 1 << i for i, n in enumerate(node_order)}
    mode_bit = {m: 1 << len(node_order) + k for k, m in enumerate(modes)}
    edges = tfpg.sorted_edges()
    nodes = sum(bit[n] for n in tfpg.nodes)
    discrepancies = sorted(tfpg.discrepancies())
    incoming = {n: [(i, e) for i, e in enumerate(edges) if e.dst == n] for n in discrepancies}
    slots = "".join(f"s{i}, " for i in range(len(edges)))
    src = ["def advance(mstate, label):",
           f"    act, late, ({slots}) = mstate" if edges else "    act, late, _ = mstate",
           f"    newly = label & {nodes} & ~act"]

    deadlines = []
    for n in discrepancies:
        into = sum(1 << i for i, _ in incoming[n])
        if into:
            late = f"late & {into}" if tfpg.nodes[n] == "or" else f"late & {into} == {into}"
            deadlines.append(f"        if {late} and not act & {bit[n]}: return mstate, {n!r}")
    if deadlines:
        src += ["    if late:", *deadlines]

    checks = []
    for n in discrepancies:
        checks.append(f"        if newly & {bit[n]}:")
        if not incoming[n]:
            checks.append(f"            return mstate, {n!r}")
            continue
        for i, e in incoming[n]:
            checks.append(f"            v{i} = s{i} if s{i} is not None else 0 if seen & {bit[e.src]} else None")
        inside = [(i, _window(f"v{i}", e.tmin, e.tmax)) for i, e in incoming[n]]
        if tfpg.nodes[n] == "or":
            some = " or ".join(f"v{i} is not None and {w}" for i, w in inside)
            checks.append(f"            if not ({some}): return mstate, {n!r}")
        else:
            missing = " or ".join(f"v{i} is None" for i, _ in inside)
            every = " and ".join(_window(f"v{i}", e.tmin, None) for i, e in incoming[n])
            some = " or ".join(w for _, w in inside)
            checks.append(f"            if {missing}: return mstate, {n!r}")
            checks.append(f"            if not ({every} and ({some})): return mstate, {n!r}")
    if checks:
        src += [f"    if newly & {sum(bit[n] for n in discrepancies)}:",
                "        seen = newly | act", *checks]

    src += ["    act |= newly", "    late = 0"]
    for i, e in enumerate(edges):
        src += [f"    if act & {bit[e.dst]} or s{i} is None and not act & {bit[e.src]}:",
                f"        t{i} = None",
                "    else:",
                f"        c = s{i} or 0"]
        if e.modes is None:
            src.append("        c += 1")
        elif gate := sum(mode_bit[m] for m in e.modes):
            src.append(f"        if label & {gate}: c += 1")
        if e.tmax is not None:
            src += [f"        if c > {e.tmax}:",
                    f"            late |= {1 << i}",
                    f"            c = {e.tmax + 1}"]
        else:
            src.append(f"        if c > {e.tmin}: c = {max(e.tmin, 1)}")
        src.append(f"        t{i} = c")
    news = "".join(f"t{i}, " for i in range(len(edges)))
    src.append(f"    return (act, late, ({news})), None")
    return "\n".join(src) + "\n"


def validate_behavioral(tfpg: Tfpg, binding: NodeBinding, xm: ExtendedModel,
                        step_bound: int | None, cap: int | None = None) -> ValidationReport:
    """Check that the TFPG admits every model trace of length <= step_bound + 1.

    Returns a complete/incomplete verdict; incomplete reports carry one
    shortest counterexample trace with its first inconsistency.
    """
    tfpg.check()
    check_binding_total(tfpg, binding)
    engine = _engine(xm.typed, cap)
    ev = BindingEvaluator(xm, binding)
    path, stored, _ = explore(engine, ev, *admission_monitor(tfpg, ev.node_order, ev.modes), step_bound,
                              "product")
    if path is None:
        return ValidationReport("complete", [], stored)
    from mbsa.tfpg.admit import admits  # only a refuted graph needs the per-trace verdict

    trace = Trace([engine.to_dict(s) for s in path])
    verdict = admits(tfpg, activation_trace_of(trace, binding, xm))
    if verdict.ok:  # pragma: no cover - monitor and admits disagree
        raise AssertionError("monitor rejected a trace that admits() accepts")
    return ValidationReport("incomplete", [(trace, Inconsistency(verdict.node, verdict.reason, verdict.step))],
                            stored)
