"""Trace admission: does a TFPG explain an activation trace?

Execution semantics.  An edge (u, v) becomes pending when u first activates;
its elapsed counter advances exactly in steps whose active mode is in the
edge's mode set, and pauses in the others.  The edge may fire at any step
where the counter lies inside [tmin, tmax]; firing itself is not mode-gated.
With a finite tmax the edge must have fired before its counter exceeds tmax.
An OR discrepancy activates at its earliest incoming firing; an AND
discrepancy activates at its latest incoming firing, once every incoming
edge has fired and every source has activated (a source that never fails
keeps the AND inactive).  Obligations of edges into an already-activated
destination are discharged (their firings are absorbed).  A trace is
admitted iff some per-edge assignment of firing steps reproduces the given
first-activation times exactly; inconsistencies are reported against the
earliest offending step.

``admits`` decides this analytically per destination node.  Its reference
is a search over explicit firing assignments, ``admits_by_search`` in the
test suite's ``tfpg_references`` module, and the tests check the two agree.
"""

from __future__ import annotations

from mbsa.sts.model import Record
from mbsa.tfpg.activation import ActivationTrace
from mbsa.tfpg.graph import Tfpg, TfpgEdge

REASONS = ("too-early", "too-late", "missing-cause", "and-incomplete", "mode-violation")


class AdmitResult(Record):
    __slots__ = _fields = ("ok", "node", "reason", "step")

    def __init__(self, ok: bool, node: str | None = None, reason: str | None = None, step: int | None = None):
        self.ok, self.node, self.reason, self.step = ok, node, reason, step

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.ok


class _EdgeView:
    """Per-trace view of one pending edge."""

    __slots__ = ("edge", "t_src", "counters", "fire_steps", "deadline")

    def __init__(self, edge: TfpgEdge, t_src: int, counters: tuple[int, ...], fire_steps: tuple[int, ...],
                 deadline: int | None):
        self.edge, self.t_src = edge, t_src
        self.counters = counters  # counters[i] = c(t_src + i), one slot past the end
        self.fire_steps = fire_steps  # steps where the counter is inside [tmin, tmax]
        self.deadline = deadline  # first step where the counter exceeds tmax (forced if set)


def _edge_view(e: TfpgEdge, t_src: int, at: ActivationTrace) -> _EdgeView:
    counters = [0]
    c = 0
    for s in range(t_src, at.length):
        if e.modes is None or at.modes[s] in e.modes:
            c += 1
        counters.append(c)
    fire = []
    deadline = None
    for s in range(t_src, at.length):
        c_here = counters[s - t_src]
        if c_here >= e.tmin and (e.tmax is None or c_here <= e.tmax):
            fire.append(s)
        if e.tmax is not None and c_here > e.tmax and deadline is None:
            deadline = s
    return _EdgeView(e, t_src, tuple(counters), tuple(fire), deadline)


def _classify_blocked(view: _EdgeView, t: int) -> str:
    """Reason an edge cannot fire at step t: window passed, not yet reached,
    or not yet reached only because disabled modes paused the counter."""
    c = view.counters[t - view.t_src]
    if view.edge.tmax is not None and c > view.edge.tmax:
        return "too-late"
    raw = t - view.t_src
    if c < view.edge.tmin <= raw:
        return "mode-violation"
    return "too-early"


def admits(tfpg: Tfpg, at: ActivationTrace) -> AdmitResult:
    """Yes iff some firing-delay assignment reproduces the activation trace."""
    unknown = set(at.modes) - set(tfpg.modes)
    if unknown:
        raise ValueError(f"activation trace uses unknown mode literals {sorted(unknown)}")
    violations: list[tuple[int, str, str]] = []  # (step, node, reason)

    for node in sorted(tfpg.discrepancies()):
        kind = tfpg.nodes[node]
        t_v = at.times.get(node)
        incoming = tfpg.incoming(node)
        views = {}
        for e in incoming:
            t_src = at.times.get(e.src)
            if t_src is not None:
                views[e] = _edge_view(e, t_src, at)

        if kind == "or":
            v = _check_or(node, t_v, incoming, views)
        else:
            v = _check_and(node, t_v, incoming, views)
        if v is not None:
            violations.append(v)

    if not violations:
        return AdmitResult(True)
    step, node, reason = min(violations, key=lambda x: (x[0], x[1]))
    return AdmitResult(False, node, reason, step)


def _check_or(node: str, t_v: int | None, incoming, views) -> tuple[int, str, str] | None:
    if t_v is None:
        # never activated: no pending edge may be forced to fire
        forced = [v for v in views.values() if v.deadline is not None]
        if forced:
            first = min(v.deadline for v in forced)
            return (first, node, "too-late")
        return None
    pending = [v for v in views.values() if v.t_src <= t_v]
    if not incoming or not pending:
        return (t_v, node, "missing-cause")
    # a cause must fire exactly at t_v
    if not any(t_v in v.fire_steps for v in pending):
        reasons = {_classify_blocked(v, t_v) for v in pending}
        for r in ("mode-violation", "too-early", "too-late"):
            if r in reasons:
                return (t_v, node, r)
    # no pending edge may have been forced to fire strictly before t_v
    for v in pending:
        can_defer = any(f >= t_v for f in v.fire_steps)
        if not can_defer and v.deadline is not None:
            return (t_v, node, "too-late")
    return None


def _check_and(node: str, t_v: int | None, incoming, views) -> tuple[int, str, str] | None:
    if t_v is None:
        # forced only when every source activated and every edge passed its deadline
        if incoming and len(views) == len(incoming) and all(v.deadline is not None for v in views.values()):
            return (max(v.deadline for v in views.values()), node, "too-late")
        return None
    if not incoming:
        return (t_v, node, "missing-cause")
    if len(views) != len(incoming) or any(v.t_src > t_v for v in views.values()):
        return (t_v, node, "and-incomplete")
    # every edge must have a firing opportunity at or before t_v
    for v in views.values():
        if not any(f <= t_v for f in v.fire_steps):
            return (t_v, node, _classify_blocked(v, t_v))
    # the latest firing lands exactly on t_v
    if not any(t_v in v.fire_steps for v in views.values()):
        return (t_v, node, "too-late")
    return None

