"""Reference semantics of TFPG admission, for oracle checks.

``admits_by_search`` enumerates explicit per-edge firing assignments (the
definition that :func:`mbsa.tfpg.admit.admits` decides analytically),
``monitor_run`` feeds a whole activation trace through the admission
monitor that behavioral validation runs stepwise, and ``ReferenceMonitor``
is the interpretive form of that monitor's step, the ``advance`` function
that :func:`mbsa.tfpg.validate.admission_monitor` generates.
"""

import itertools

from mbsa.tfpg.activation import ActivationTrace
from mbsa.tfpg.admit import _edge_view
from mbsa.tfpg.graph import Tfpg
from mbsa.tfpg.validate import admission_monitor


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


def label_of(mask: int, mode: str, node_order: tuple[str, ...], modes: tuple[str, ...]) -> int:
    """The binding label that observes ``mask`` over ``node_order`` in
    ``mode``: the monitor's input for the (mask, mode) that
    :class:`ReferenceMonitor` takes."""
    return mask | 1 << len(node_order) + modes.index(mode)


def monitor_run(tfpg: Tfpg, at: ActivationTrace) -> bool:
    """Feed a whole activation trace through the admission monitor."""
    node_order = tuple(sorted(tfpg.nodes))
    mstate, advance = admission_monitor(tfpg, node_order, tfpg.modes)
    for step in range(at.length):
        mask = sum(1 << i for i, n in enumerate(node_order)
                   if at.times[n] is not None and at.times[n] <= step)
        mstate, bad = advance(mstate, label_of(mask, at.modes[step], node_order, tfpg.modes))
        if bad is not None:
            return False
    return True


class ReferenceMonitor:
    """Stepwise admission check over (activation mask, mode) observations,
    interpreted from per-edge and per-node tuples: the reference of the
    ``advance`` step that :func:`mbsa.tfpg.validate.admission_monitor`
    generates, and of its initial state.

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
