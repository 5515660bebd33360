"""The product exploration shared by TFPG validation and synthesis.

Both explore the model in lockstep with a deterministic abstraction of what
the binding has observed so far: the admission monitor's state for
validation, the (acted, last burst) node masks for synthesis.  The search is
:func:`mbsa.sts.engine.breadth_first`, the one search of every analysis,
over product keys that are single ints, a state id and an abstract state
id packed together; this module supplies the children of a key.
Everything that depends on only one half of a product state is computed
once:

* the model half lives in the search's :class:`mbsa.sts.engine.StateStore`,
  labelled by ``BindingEvaluator.observe`` (activation bits over the
  binding's node order, then mode bits), so ``observe`` runs once per
  distinct state and ``Engine.succ_tuples`` once per expanded one;
* the abstract step, one table entry per (abstract id, label), given the
  raw label, which the step reads bit by bit: on the fixture at step bound
  60, 9,560 entries serve check's 26,651 transitions, which reach 5,200
  distinct model states.  An entry is only the next abstract id.  A
  stopping step is never entered: the first one ends the search.

States are turned back into value tuples only on the path that is returned.
The table's entries are returned too, as (abstract state, label) moves:
synthesis reads its instances off them once the search is done.
"""

from __future__ import annotations

from mbsa.sts.engine import Engine, StateStore, breadth_first
from mbsa.tfpg.activation import BindingEvaluator


def explore(engine: Engine, ev: BindingEvaluator, start, step, step_bound: int | None,
            what: str):
    """Search from ``start``, the abstract state before the first step (an
    initial model state is a step from it too).

    ``step(abstract state, label)`` returns the next abstract state and a
    stop value; the label is ``ev.observe``'s, activation bits over
    ``ev.node_order`` and then one mode bit.  A stop other than None ends
    the search at once, before the product state it leads to is looked up:
    that state is meaningless, and it may equal one already stored.
    Returns the shortest run of model states whose last step stops (None
    when no step within ``step_bound`` does), the number of product states
    stored, the stopping one included, and an iterator over the steps taken
    that did not stop, one (abstract state, label) pair per table entry.
    Storing more than the engine's cap raises
    ``ResourceCapError("stored <what> states exceed cap N at depth D")``.

    A key is ``sid << shift | a``, so the abstract id ``a`` must stay below
    ``2 ** shift``.  Each abstract id but the start's is first met in a child
    key that is new, hence stored unless the cap is hit during that
    expansion, and one expansion has at most ``cap`` children (``Engine``
    enumerates no more candidates).  So there are at most ``2 * cap + 1``
    ids, all below ``2 ** shift``; the state id ``sid`` takes the unbounded
    high bits.
    """
    store = StateStore(engine, ev.observe)
    labels = store.labels
    abstract = [start]
    abstract_ids = {start: 0}
    table: list[dict[int, int]] = [{}]  # abstract id -> label -> next abstract id
    shift = (2 * engine.cap + 1).bit_length()
    low = (1 << shift) - 1

    def move(a: int, label: int) -> int | None:
        """The abstract id after ``label`` from ``a``, entered in the table,
        or None when the step stops (the search then ends: nothing is kept)."""
        nstate, stop = step(abstract[a], label)
        if stop is not None:
            return None
        na = abstract_ids.setdefault(nstate, len(abstract))
        if na == len(abstract):
            abstract.append(nstate)
            table.append({})
        table[a][label] = na
        return na

    def expand(key):
        sid, a = (None, 0) if key is None else (key >> shift, key & low)  # the root precedes the initial states
        row = table[a]
        children = []
        for c in store.children(sid):
            label = labels[c]
            na = row.get(label)
            if na is None and (na := move(a, label)) is None:
                return children, (c << shift,)
            children.append(c << shift | na)
        return children, ()

    path, stored = next(breadth_first(expand, step_bound, engine.cap, f"{what} states"))
    moves = ((abstract[a], label) for a, row in enumerate(table) for label in row)
    if path is None:
        return None, len(stored), moves
    return [store.states[key >> shift] for key in path], len(stored) + 1, moves
