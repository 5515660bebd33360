"""Reference semantics of TFPG admission, for oracle checks.

``admits_by_search`` enumerates explicit per-edge firing assignments (the
definition that :func:`mbsa.tfpg.admit.admits` decides analytically), and
``monitor_run`` feeds a whole activation trace through the admission
monitor that behavioral validation runs stepwise.
"""

import itertools

from mbsa.tfpg.activation import ActivationTrace
from mbsa.tfpg.admit import _edge_view
from mbsa.tfpg.graph import Tfpg
from mbsa.tfpg.validate import AdmissionMonitor


def admits_by_search(tfpg: Tfpg, at: ActivationTrace) -> bool:
    """Exhaustive enumeration of per-edge firing steps (desk-scale only)."""
    unknown = set(at.modes) - set(tfpg.modes)
    if unknown:
        raise ValueError(f"activation trace uses unknown mode literals {sorted(unknown)}")
    for node in sorted(tfpg.discrepancies()):
        kind = tfpg.nodes[node]
        t_v = at.times.get(node)
        incoming = tfpg.incoming(node)
        views = []
        for e in incoming:
            t_src = at.times.get(e.src)
            if t_src is not None:
                views.append(_edge_view(e, t_src, at))
        if kind == "or" and t_v is not None:
            views = [v for v in views if v.t_src <= t_v]  # later edges are absorbed
        if not _node_consistent(kind, t_v, len(incoming), views):
            return False
    return True


def _node_consistent(kind: str, t_v: int | None, n_incoming: int, views) -> bool:
    options = []
    for v in views:
        opts: list[int | None] = list(v.fire_steps)
        if v.deadline is None:
            opts.append(None)
        options.append(opts)
    for combo in itertools.product(*options):
        fired = [f for f in combo if f is not None]
        if kind == "or":
            if t_v is None:
                ok = not fired
            else:
                ok = bool(views) and any(f == t_v for f in fired) and all(f >= t_v for f in fired)
        else:
            if t_v is None:
                ok = n_incoming == 0 or len(fired) < n_incoming
            else:
                ok = (n_incoming > 0 and len(views) == n_incoming
                      and len(fired) == n_incoming and max(fired) == t_v)
        if ok:
            return True
    return False


def monitor_run(tfpg: Tfpg, at: ActivationTrace) -> bool:
    """Feed a whole activation trace through the admission monitor."""
    node_order = tuple(sorted(tfpg.nodes))
    mon = AdmissionMonitor(tfpg, node_order)
    mstate = mon.initial()
    for step in range(at.length):
        mask = sum(1 << i for i, n in enumerate(node_order)
                   if at.times[n] is not None and at.times[n] <= step)
        mstate, bad = mon.advance(mstate, mask, at.modes[step])
        if bad is not None:
            return False
    return True
