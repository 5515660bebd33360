"""The product exploration shared by TFPG validation and synthesis.

Both explore the model in lockstep with a deterministic abstraction of what
the binding has observed so far: the admission monitor's state for
validation, the (acted, last burst) node masks for synthesis.  The search is
:func:`mbsa.sts.engine.breadth_first`, the one search of every analysis,
over (model state, abstract state id) keys; this module supplies the
children of a key.  Everything that depends on only one half of a product
state is computed once:

* the successors of a model state, each paired with its observation;
* the observation of a model state: the activation bitmask over the
  binding's node order (bit i is ``BindingEvaluator.node_order[i]``) and the
  active mode;
* the abstract step, one table entry per (abstract id, observation): on the
  fixture at step bound 60, 9,560 entries serve check's 26,651 transitions.
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
    obs_of: dict[tuple, int] = {}  # model state -> observation id
    obs_ids: dict[tuple[int, str], int] = {}
    observations: list[tuple[int, str]] = []  # id -> (activation mask, mode)

    def observe(s: tuple) -> int:
        bits, mode = ev.observe(s)
        key = (sum(1 << i for i, b in enumerate(bits) if b), mode)
        o = obs_of[s] = obs_ids.setdefault(key, len(observations))
        if o == len(observations):
            observations.append(key)
        return o

    abstract = [start]
    abstract_ids = {start: 0}
    table: list[dict[int, tuple[int, object]]] = [{}]  # abstract id -> observation -> (id, stop)

    def move(a: int, o: int) -> tuple[int, object]:
        nstate, stop = step(abstract[a], *observations[o])
        na = abstract_ids.setdefault(nstate, len(abstract))
        if na == len(abstract):
            abstract.append(nstate)
            table.append({})
        hit = table[a][o] = (na, stop)
        return hit

    succ_memo: dict[tuple | None, list[tuple[tuple, int]]] = {}

    def expand(key):
        s, a = key or (None, 0)  # the root is the start before the initial states
        succs = succ_memo.get(s)
        if succs is None:
            states = engine.init_tuples() if s is None else engine.succ_tuples(s)
            succs = succ_memo[s] = [(t, obs_of[t] if t in obs_of else observe(t)) for t in states]
        row = table[a]
        children = []
        for t, o in succs:
            na, stop = row.get(o) or move(a, o)
            if stop is not None:
                return children, ((t, na),)
            children.append((t, na))
        return children, ()

    path, stored = next(breadth_first(expand, step_bound, engine.cap, f"{what} states"))
    if path is None:
        return None, len(stored)
    return [s for s, _ in path], len(stored) + 1
