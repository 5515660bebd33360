"""The product exploration shared by TFPG validation and synthesis.

Both explore the model in lockstep with a deterministic abstraction of what
the binding has observed so far: the admission monitor's state for
validation, the (acted, last burst) node masks for synthesis.  The search is
:func:`mbsa.sts.engine.breadth_first`, the one search of every analysis,
over (model state, abstract state id) keys; this module supplies the
children of a key.  Everything that depends on only one half of a product
state is computed once:

* the successors of a model state, each paired with its label;
* the label of a model state (``BindingEvaluator.observe``: activation bits
  over the binding's node order, then mode bits), memoized per state in a
  :class:`mbsa.sts.engine.Labels` bank, the memo of the fault labels too;
* the abstract step, one table entry per (abstract id, label), the label
  decoded once per entry: on the fixture at step bound 60, 9,560 entries
  serve check's 26,651 transitions.
"""

from __future__ import annotations

from mbsa.sts.engine import Engine, Labels, breadth_first
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
    labels = Labels(ev.observe)
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

    succ_memo: dict[tuple | None, list[tuple[tuple, int]]] = {}

    def expand(key):
        s, a = key or (None, 0)  # the root is the start before the initial states
        succs = succ_memo.get(s)
        if succs is None:
            states = engine.init_tuples() if s is None else engine.succ_tuples(s)
            succs = succ_memo[s] = [(t, labels[t]) for t in states]
        row = table[a]
        children = []
        for t, label in succs:
            na, stop = row.get(label) or move(a, label)
            if stop is not None:
                return children, ((t, na),)
            children.append((t, na))
        return children, ()

    path, stored = next(breadth_first(expand, step_bound, engine.cap, f"{what} states"))
    if path is None:
        return None, len(stored)
    return [s for s, _ in path], len(stored) + 1
