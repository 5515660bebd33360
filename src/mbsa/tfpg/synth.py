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
the observation only, so it is recorded once per distinct pair, and the
masks become sets of node names once, at the end.

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

from mbsa.faults import ExtendedModel
from mbsa.sts.engine import _engine
from mbsa.tfpg.activation import BindingEvaluator, NodeBinding
from mbsa.tfpg.graph import Tfpg, TfpgEdge
from mbsa.tfpg.product import explore


def _collect_instances(xm: ExtendedModel, binding: NodeBinding, step_bound: int | None,
                       cap: int | None):
    """Product search over (state, acted mask, last-burst mask), recording
    one instance per distinct (v, A, sim, last, mode)."""
    engine = _engine(xm.typed, cap)
    ev = BindingEvaluator(xm, binding, engine)
    order = ev.node_order
    discrepancies = [(1 << i, n) for i, n in enumerate(order) if binding.kinds[n] != "failure"]
    found: dict[str, set[tuple]] = {n: set() for n in order}

    def step(state, mask: int, mode: str):
        acted, last = state
        newly = mask & ~acted
        if not newly:
            return state, None
        for b, v in discrepancies:
            if newly & b:
                found[v].add(((acted | newly) & ~b, newly & ~b, last, mode))
        return (acted | newly, newly), None

    explore(engine, ev, (0, 0), step, step_bound, "synthesis")
    names = functools.cache(lambda m: frozenset(n for i, n in enumerate(order) if m >> i & 1))
    return {v: {(names(a), names(sim), names(last), mode) for a, sim, last, mode in insts}
            for v, insts in found.items()}


def _rank_key(u: str, pool, kinds):
    a_count = sum(1 for a, _, _, _ in pool if u in a)
    g_count = sum(1 for _, sim, last, _ in pool if u in sim or u in last)
    kind_rank = 0 if kinds.get(u) != "failure" else 1
    return (-g_count, -a_count, kind_rank, u)


def _cover_parents(insts: list[tuple], kinds: dict[str, str], failures: frozenset[str],
                   exclude: frozenset[str] = frozenset(),
                   preset: tuple[str, ...] = ()) -> list[str]:
    """Greedy instance cover for an OR discrepancy (see module docstring).

    ``preset`` parents are kept as given; ``exclude`` bars candidates (used
    by cycle repair to stay acyclic)."""
    candidates = sorted({u for _, sim, last, _ in insts for u in sim | last} - set(exclude))
    parents: list[str] = list(preset)
    uncovered = [i for i in insts if not any(p in i[0] for p in parents)]
    while uncovered:
        fault_sets = {frozenset(a & failures) for a, _, _, _ in uncovered}
        minimal = [f for f in fault_sets if not any(g < f for g in fault_sets)]
        focus = [i for i in uncovered if frozenset(i[0] & failures) in minimal]

        viable = [u for u in candidates if u not in parents
                  and any(u in (sim | last) for _, sim, last, _ in focus)]
        if not viable:
            viable = [u for u in candidates if u not in parents
                      and any(u in a for a, _, _, _ in focus)]
        if not viable:
            viable = [u for u in candidates if u not in parents
                      and any(u in a for a, _, _, _ in uncovered)]
            focus = uncovered
        if not viable:
            break  # uncaused activations remain; nothing more to learn
        necessary = [u for u in viable if all(u in a for a, _, _, _ in focus)]
        pool = necessary if necessary else viable
        best = min(pool, key=lambda u: _rank_key(u, focus, kinds))
        parents.append(best)
        uncovered = [i for i in uncovered if best not in i[0]]
    return sorted(parents)


def synthesize_structure(xm: ExtendedModel, binding: NodeBinding, step_bound: int | None,
                         cap: int | None = None) -> Tfpg:
    """Synthesize the propagation structure over the bound nodes.

    Node kinds (failure/AND/OR) are taken from the binding declaration, never
    inferred; failure nodes acquire no incoming edges; bounds are [0, inf).
    """
    instances = _collect_instances(xm, binding, step_bound, cap)
    kinds = dict(binding.kinds)
    failures = frozenset(n for n, k in kinds.items() if k == "failure")
    modes = binding.mode_literals()
    all_modes = frozenset(modes)

    sorted_insts: dict[str, list[tuple]] = {}
    parent_map: dict[str, list[str]] = {}
    for v in sorted(binding.kinds):
        if kinds[v] == "failure":
            continue
        insts = sorted(instances[v], key=lambda i: (sorted(i[0]), sorted(i[1]), sorted(i[2]), i[3]))
        sorted_insts[v] = insts
        if not insts:
            parent_map[v] = []
        elif kinds[v] == "and":
            parent_map[v] = sorted(frozenset.intersection(*(a for a, _, _, _ in insts)))
        else:
            parent_map[v] = _cover_parents(insts, kinds, failures)

    def reaches(src: str, dst: str) -> bool:
        """dst reachable from src following parent->child edges."""
        stack, seen = [src], {src}
        while stack:
            cur = stack.pop()
            for w, ps in parent_map.items():
                if cur in ps:
                    if w == dst:
                        return True
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
        return False

    # causal repair: replace cyclic explanations by acyclic covers
    cyclic = [(u, v) for v in sorted(parent_map) if kinds[v] == "or"
              for u in parent_map[v] if kinds.get(u) != "failure" and reaches(v, u)]
    for u, v in cyclic:
        if u not in parent_map[v]:
            continue
        kept = tuple(p for p in parent_map[v] if p != u)
        ancestors = frozenset(w for w in parent_map if reaches(v, w)) | {v, u}
        repaired = _cover_parents(sorted_insts[v], kinds, failures,
                                  exclude=ancestors, preset=kept)
        covered = all(any(p in a for p in repaired) for a, _, _, _ in sorted_insts[v])
        if covered:
            parent_map[v] = repaired

    # coverage-preserving transitive reduction (OR destinations only)
    children: dict[str, set[str]] = {}
    for v, parents in parent_map.items():
        for u in parents:
            children.setdefault(u, set()).add(v)

    def spanned(u: str, v: str) -> bool:
        stack = [w for w in children.get(u, ()) if w != v]
        seen = set(stack)
        while stack:
            cur = stack.pop()
            if v in children.get(cur, ()):
                return True
            for w in children.get(cur, ()):
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return False

    for v in sorted(parent_map):
        for u in sorted(parent_map[v]):
            others = [p for p in parent_map[v] if p != u]
            if not others:
                continue
            if kinds[v] == "or":
                # an OR loses behavior when a parent goes: keep coverage intact
                if not all(any(p in a for p in others) for a, _, _, _ in sorted_insts[v]):
                    continue
            # an AND only gets weaker without a parent, which cannot hurt
            # completeness, so spanning alone justifies the removal
            if spanned(u, v):
                parent_map[v] = others
                children[u].discard(v)

    edges: list[TfpgEdge] = []
    for v in sorted(parent_map):
        insts = sorted_insts[v]
        chosen = set(parent_map[v])
        for u in parent_map[v]:
            unique = {m for a, sim, last, m in insts
                      if u in (sim | last) and len(chosen & (sim | last)) == 1}
            witnessed = (unique
                         or {m for a, sim, last, m in insts if u in (sim | last)}
                         or {m for a, _, _, m in insts if u in a})
            mode_set = frozenset(witnessed)
            edges.append(TfpgEdge(u, v, 0, None, None if mode_set >= all_modes else mode_set))

    g = Tfpg(modes, {n: kinds[n] for n in sorted(kinds)}, tuple(edges))
    g.check()
    return g
