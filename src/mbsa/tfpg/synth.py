"""Structure synthesis: derive a propagation graph from a model and bindings.

Only the structure is synthesized: all timing bounds come out as [0, inf).

The algorithm explores the reachable activation behavior breadth-first and
records, for every first activation of a bound discrepancy v, an instance
(A, S, L, m): the nodes A already (or simultaneously) activated, the
simultaneous co-activations S, the most recent earlier activation burst L,
and the active mode m.  S and L form the direct group: the nodes with
direct-precedence evidence for v in that instance.  The search is the
product search of :mod:`mbsa.tfpg.product` with (activated, last burst)
node masks as its abstract state; an instance depends on that state and
the observation only, so it is read off the search's moves, one per
distinct pair, once the search is done.  Every node set is a mask over the
nodes in sorted-name order, so an index tie-break is a name tie-break;
names appear only when the edges are emitted.

Parent selection per node:

* AND discrepancies take every node present in all instances -- exactly the
  sources whose activation the node always waits for.
* OR discrepancies take a greedy cover of their instances (a parent covers
  the instances whose activated-set contains it; covering all instances is
  what makes the widened structure a complete abstraction).  Candidate
  quality is always judged on the instances whose triggering fault set
  (activated failure nodes) is inclusion-minimal among the instances still
  uncovered, which keeps coincidental co-activations from unrelated faults
  out of the evidence.  Candidates present in every remaining focus
  instance are preferred, ranked by direct-evidence frequency, then
  coverage, discrepancies before failures, then name.

Two repair passes follow.  Propagation is causal, so cyclic explanations
(typically mutual edges between co-failing siblings) are replaced: each edge
on a cycle is dropped and the instances it covered are re-covered by the
best acyclic alternative.  Finally, a transitive reduction drops edges
spanned by a longer path -- preserving instance coverage for OR
destinations, unconditionally for AND destinations (losing an AND parent
only weakens the node, which cannot hurt completeness).  Edge mode labels
are the modes observed at the destination's activation in instances the
edge uniquely explains (falling back to all direct witnesses).
"""

from __future__ import annotations

import functools
import operator

from mbsa.faults import ExtendedModel
from mbsa.sts.engine import _engine
from mbsa.tfpg.activation import BindingEvaluator, NodeBinding
from mbsa.tfpg.graph import Tfpg, TfpgEdge
from mbsa.tfpg.product import explore


def _collect_instances(xm: ExtendedModel, binding: NodeBinding, step_bound: int | None,
                       cap: int | None):
    """Product search over (state, acted mask, last-burst mask), then each
    discrepancy's distinct instances (A, S, L, mode), with A, S and L node
    masks over the evaluator's ``node_order``.  Returns that order and the
    per-node instance sets in it.

    The search's step only tracks the masks, read off the label's
    activation bits.  Its moves, one per distinct (masks, label) pair, are
    read once it has returned and its states are freed: a move whose label
    first activates v gives v's instance, and only such a move's mode is
    named."""
    engine = _engine(xm.typed, cap)
    ev = BindingEvaluator(xm, binding)
    nodes = (1 << len(ev.node_order)) - 1  # the activation bits of a label
    discrepancies = [(1 << i, i) for i, v in enumerate(ev.node_order) if binding.kinds[v] != "failure"]
    targets = _union(b for b, _ in discrepancies)

    def step(state, label: int):
        acted, last = state
        newly = label & nodes & ~acted
        return ((acted | newly, newly) if newly else state), None

    _, _, moves = explore(engine, ev, (0, 0), step, step_bound, "synthesis")
    found: list[set[tuple]] = [set() for _ in ev.node_order]
    for (acted, last), label in moves:
        newly = label & nodes & ~acted
        if not newly & targets:
            continue
        mode = ev.decode(label)[1]
        for b, v in discrepancies:
            if newly & b:
                found[v].add(((acted | newly) & ~b, newly & ~b, last, mode))
    return ev.node_order, found


def _bits(mask: int) -> list[int]:
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def _union(masks) -> int:
    return functools.reduce(operator.or_, masks, 0)


def _rank_key(u: int, pool, failures: int):
    a_count = sum(a >> u & 1 for a, _, _ in pool)
    g_count = sum(direct >> u & 1 for _, direct, _ in pool)
    return (-g_count, -a_count, failures >> u & 1, u)


def _cover_parents(insts: list[tuple], failures: int, exclude: int = 0, preset: int = 0) -> int:
    """Greedy instance cover for an OR discrepancy (see module docstring).

    ``preset`` parents are kept as given; ``exclude`` bars candidates (used
    by cycle repair to stay acyclic)."""
    candidates = _union(direct for _, direct, _ in insts) & ~exclude
    parents = preset
    uncovered = [i for i in insts if not i[0] & parents]
    while uncovered:
        fault_sets = {a & failures for a, _, _ in uncovered}
        minimal = {f for f in fault_sets if not any(g != f and g & ~f == 0 for g in fault_sets)}
        focus = [i for i in uncovered if i[0] & failures in minimal]

        free = candidates & ~parents
        viable = free & _union(direct for _, direct, _ in focus)
        if not viable:
            viable = free & _union(a for a, _, _ in focus)
        if not viable:
            viable = free & _union(a for a, _, _ in uncovered)
            focus = uncovered
        if not viable:
            break  # uncaused activations remain; nothing more to learn
        necessary = viable & functools.reduce(operator.and_, (a for a, _, _ in focus))
        best = min(_bits(necessary or viable), key=lambda u: _rank_key(u, focus, failures))
        parents |= 1 << best
        uncovered = [i for i in uncovered if not i[0] >> best & 1]
    return parents


def synthesize_structure(xm: ExtendedModel, binding: NodeBinding, step_bound: int | None,
                         cap: int | None = None) -> Tfpg:
    """Synthesize the propagation structure over the bound nodes.

    Node kinds (failure/AND/OR) are taken from the binding declaration, never
    inferred; failure nodes acquire no incoming edges; bounds are [0, inf).
    """
    order, instances = _collect_instances(xm, binding, step_bound, cap)  # bit i of a mask is order[i]
    kinds = [binding.kinds[n] for n in order]
    failures = _union(1 << i for i, k in enumerate(kinds) if k == "failure")
    modes = binding.mode_literals()
    all_modes = frozenset(modes)

    # per instance: activated nodes, direct group (co-activations | last burst),
    # mode; each node's set is dropped once its list is built
    insts = []
    for v in range(len(order)):
        insts.append([(a, sim | last, m) for a, sim, last, m in instances[v]])
        instances[v] = None
    parents = [0] * len(order)  # bit u of parents[v]: edge u -> v
    for v, k in enumerate(kinds):
        if k == "and" and insts[v]:
            parents[v] = functools.reduce(operator.and_, (a for a, _, _ in insts[v]))
        elif k == "or" and insts[v]:
            parents[v] = _cover_parents(insts[v], failures)

    def below(roots: int) -> int:
        """The nodes one or more parent->child steps below a node of ``roots``."""
        found = 0
        while roots:
            roots = _union(1 << w for w, ps in enumerate(parents) if ps & roots) & ~found
            found |= roots
        return found

    # causal repair: replace cyclic explanations by acyclic covers
    cyclic = [(u, v) for v, k in enumerate(kinds) if k == "or"
              for u in _bits(parents[v] & ~failures) if below(1 << v) >> u & 1]
    for u, v in cyclic:
        if not parents[v] >> u & 1:
            continue
        downstream = below(1 << v) | 1 << v | 1 << u
        repaired = _cover_parents(insts[v], failures, exclude=downstream, preset=parents[v] & ~(1 << u))
        if all(a & repaired for a, _, _ in insts[v]):
            parents[v] = repaired

    # coverage-preserving transitive reduction (OR destinations only)
    for v, k in enumerate(kinds):
        for u in _bits(parents[v]):
            others = parents[v] & ~(1 << u)
            if not others:
                continue
            if k == "or":
                # an OR loses behavior when a parent goes: keep coverage intact
                if not all(a & others for a, _, _ in insts[v]):
                    continue
            # an AND only gets weaker without a parent, which cannot hurt
            # completeness, so spanning alone justifies the removal
            # spanned: v lies below another child of u
            other_children = _union(1 << w for w, ps in enumerate(parents) if w != v and ps >> u & 1)
            if below(other_children) >> v & 1:
                parents[v] = others

    edges: list[TfpgEdge] = []
    for v, chosen in enumerate(parents):
        for u in _bits(chosen):
            unique = {m for _, direct, m in insts[v] if direct & chosen == 1 << u}
            witnessed = (unique
                         or {m for _, direct, m in insts[v] if direct >> u & 1}
                         or {m for a, _, m in insts[v] if a >> u & 1})
            mode_set = frozenset(witnessed)
            edges.append(TfpgEdge(order[u], order[v], 0, None, None if mode_set >= all_modes else mode_set))

    g = Tfpg(modes, dict(zip(order, kinds)), tuple(edges))
    g.check()
    return g
