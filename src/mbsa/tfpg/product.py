"""The product exploration shared by TFPG validation and synthesis.

Both explore the model in lockstep with a deterministic abstraction of what
the binding has observed so far: the admission monitor's state for
validation, the (acted, last burst) node masks for synthesis.  The search is
:func:`mbsa.sts.engine.breadth_first`, the one search of every analysis,
over (state id, abstract state id) keys; this module supplies the children
of a key.  Everything that depends on only one half of a product state is
computed once:

* the model half lives in the search's :class:`mbsa.sts.engine.StateStore`,
  labelled by ``BindingEvaluator.observe`` (activation bits over the
  binding's node order, then mode bits), so ``observe`` runs once per
  distinct state and ``Engine.succ_tuples`` once per expanded one;
* the abstract step, one table entry per (abstract id, label), the label
  decoded once per entry: on the fixture at step bound 60, 9,560 entries
  serve check's 26,651 transitions, which reach 5,200 distinct model states.

States are turned back into value tuples only on the path that is returned.
"""

from __future__ import annotations

from mbsa.sts.engine import Engine, StateStore, breadth_first
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
    store = StateStore(engine, ev.observe)
    labels = store.labels
    abstract = [start]
    abstract_ids = {start: 0}
    table: list[dict[int, tuple[int, object]]] = [{}]  # abstract id -> label -> (id, stop)

    def move(a: int, label: int) -> tuple[int, object]:
        nstate, stop = step(abstract[a], *ev.decode(label))
        na = abstract_ids.setdefault(nstate, len(abstract))
        if na == len(abstract):
            abstract.append(nstate)
            table.append({})
        return table[a].setdefault(label, (na, stop))

    def expand(key):
        sid, a = (None, 0) if key is None else key  # the root is the start before the initial states
        row = table[a]
        children = []
        for c in store.children(sid):
            label = labels[c]
            na, stop = row.get(label) or move(a, label)
            if stop is not None:
                return children, ((c, na),)
            children.append((c, na))
        return children, ()

    path, stored = next(breadth_first(expand, step_bound, engine.cap, f"{what} states"))
    if path is None:
        return None, len(stored)
    return [store.states[sid] for sid, _ in path], len(stored) + 1
