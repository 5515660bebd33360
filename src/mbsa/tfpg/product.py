"""The product exploration shared by TFPG validation and synthesis.

Both explore the model in lockstep with a deterministic abstraction of what
the binding has observed so far: the admission monitor's state for
validation, the (acted, last burst) node masks for synthesis.  The search is
:func:`mbsa.sts.engine.breadth_first`, the one search of every analysis,
over (state id, abstract state id) keys; this module supplies the children
of a key.  Everything that depends on only one half of a product state is
computed once:

* a model state is interned to a small int the first time it is seen, and
  stored once with its label (``BindingEvaluator.observe``: activation bits
  over the binding's node order, then mode bits), so ``observe`` runs once
  per distinct state;
* the successors of a state are generated on its first expansion and kept
  as a list of state ids, so ``Engine.succ_tuples`` runs once per expanded
  distinct state;
* the abstract step, one table entry per (abstract id, label), the label
  decoded once per entry: on the fixture at step bound 60, 9,560 entries
  serve check's 26,651 transitions, which reach 5,200 distinct model states.

States are turned back into value tuples only on the path that is returned.
"""

from __future__ import annotations

from mbsa.sts.engine import Engine, breadth_first
from mbsa.tfpg.activation import BindingEvaluator


def explore(engine: Engine, ev: BindingEvaluator, start, step, step_bound: int | None,
            what: str) -> tuple[list[tuple] | None, int]:
    """Search from ``start``, the abstract state before the first step (an
    initial model state is a step from it too).

    ``step(abstract state, activation mask, mode)`` returns the next abstract
    state and a stop value.  A stop other than None ends the search at once,
    before the product state it leads to is looked up: that state is
    meaningless, and it may equal one already stored.  Returns the shortest
    run of model states whose last step stops (None when no step within
    ``step_bound`` does) and the number of product states stored, the
    stopping one included.  Storing more than the engine's cap raises
    ``ResourceCapError("stored <what> states exceed cap N")``.
    """
    ids: dict[tuple, int] = {}  # model state -> state id
    states: list[tuple] = []  # state id -> model state
    labels: list[int] = []  # state id -> label
    succs: list[list[int] | None] = []  # state id -> successor ids, once expanded

    def intern(t: tuple) -> int:
        sid = ids.get(t)
        if sid is None:
            sid = ids[t] = len(states)
            states.append(t)
            labels.append(ev.observe(t))
            succs.append(None)
        return sid

    abstract = [start]
    abstract_ids = {start: 0}
    table: list[dict[int, tuple[int, object]]] = [{}]  # abstract id -> label -> (id, stop)

    def move(a: int, label: int) -> tuple[int, object]:
        nstate, stop = step(abstract[a], *ev.decode(label))
        na = abstract_ids.setdefault(nstate, len(abstract))
        if na == len(abstract):
            abstract.append(nstate)
            table.append({})
        hit = table[a][label] = (na, stop)
        return hit

    def expand(key):
        if key is None:  # the root is the start before the initial states
            a, kids = 0, [intern(t) for t in engine.init_tuples()]
        else:
            sid, a = key
            kids = succs[sid]
            if kids is None:
                kids = succs[sid] = [intern(t) for t in engine.succ_tuples(states[sid])]
        row = table[a]
        children = []
        for c in kids:
            label = labels[c]
            na, stop = row.get(label) or move(a, label)
            if stop is not None:
                return children, ((c, na),)
            children.append((c, na))
        return children, ()

    path, stored = next(breadth_first(expand, step_bound, engine.cap, f"{what} states"))
    if path is None:
        return None, len(stored)
    return [states[sid] for sid, _ in path], len(stored) + 1
