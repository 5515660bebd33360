"""Explicit-state engine: initial states, successors, breadth-first reachability.

States are value tuples in variable declaration order.  One compiler
(:mod:`mbsa.sts.codegen`) turns expressions into Python source over state
indices, and its ``enumerator`` builds, lazily and once per engine, a staged
successor function and a staged initial-state function:

* TRANS conjuncts of the shape ``next(v) = e`` (``v = e`` in INIT) are
  functional assignments, so only the remaining free variables are
  enumerated, as nested loops over canonical domains;
* each assignment is computed, and each residual check and INVAR tested, at
  the first loop level where all its references are bound: current-state
  work runs once per state, and a failing check prunes its branch at once
  (conjunct scheduling: Burch, Clarke and Long, "Symbolic model checking
  with partitioned transition relations", 1991);
* each define is bound to a local once per evaluation context.

Guards are current-state predicates switched on per call: bit k of the
``forbidden`` mask of ``init_tuples``, ``succ_tuples`` and ``reach_tuples``
conjoins guard k as an INVAR, staged like one behind a test of that bit, so
a forbidden branch is cut at its loop level.  The cut-set restriction of
:mod:`mbsa.analysis` is one guard per event, its suppression predicate.
The loops bind the free variables in declaration order, except that each is
followed at once by the other free variables that a guard reading it needs,
so the guard is tested before the loops of unrelated variables.  Where that
changes the order, the function sorts its states back into canonical order
by an int rank, the sum of one digit per loop, so successor lists never
depend on the loop order.

``Engine.compile`` builds a function of one state from the same compiler,
and ``Engine.compile_mask`` one function that evaluates a vector of
current-state predicates into the bits of one int, a state's label; both are
compiled once per model and expression.  :class:`StateStore` is the state
store a search owns: it interns each state to an int id, labels it when first
seen, and keeps its successor ids under the search's ``forbidden`` mask from
its first expansion.  The cut-sequence search labels states by fault
occurrence, the TFPG product search by the binding's observations.

:func:`breadth_first` is the one search of the package.  It owns the
frontier, the step bound, the parent map, the cap check and shortest-path
reconstruction; a caller supplies only the children of a key.  Reachability
searches states (``Engine.reach_tuples``), the cut-sequence search (state
id, first-occurrence partition) pairs, and the TFPG product (state id,
abstract state id) pairs.

Successor order is fixed (declaration order, canonical value order), so every
result is reproducible bit for bit.  Models are immutable and engines only
fill their caches with pure functions, so both are safe to share across
threads.
"""

from __future__ import annotations

from mbsa.diagnostics import ResourceCapError
from mbsa.sts.check import TypedModel
from mbsa.sts.model import BinOp, BoolConst, Expr, Name, Next, UnOp, conjuncts, walk

DEFAULT_STATE_CAP = 10_000_000


class Trace:
    """A finite execution: state 0 satisfies INIT, steps satisfy TRANS, all
    states satisfy INVAR.  One step is one discrete time unit."""

    __slots__ = ("states",)

    def __init__(self, states: list[dict]):
        self.states = states

    def __len__(self) -> int:
        return len(self.states)

    def __getitem__(self, i):
        return self.states[i]


class StateStore:
    """The states one search has seen: state id ``i`` has the value tuple
    ``states[i]`` (``ids`` maps it back), the label ``labels[i]`` and the
    successor ids ``succs[i]``, None until the state is expanded and then a
    tuple built once, at its first expansion.  ``initial`` holds the ids of
    the initial states the same way.  Ids follow first-seen order, so the
    per-id lists need no keys of their own."""

    __slots__ = ("engine", "label_fn", "forbidden", "ids", "states", "labels", "succs", "initial")

    def __init__(self, engine: Engine, label_fn, forbidden: int = 0):
        self.engine, self.label_fn, self.forbidden = engine, label_fn, forbidden
        self.ids, self.states, self.labels, self.succs = {}, [], [], []
        self.initial = None

    def children(self, sid: int | None) -> tuple[int, ...]:
        """The ids of the initial states (``sid`` None) or of the successors of ``sid``."""
        kids = self.initial if sid is None else self.succs[sid]
        if kids is None:
            eng, ids, r = self.engine, self.ids, self.forbidden
            row = []
            for t in eng.init_tuples(r) if sid is None else eng.succ_tuples(self.states[sid], r):
                i = ids.get(t)
                if i is None:
                    i = ids[t] = len(self.states)
                    self.states.append(t)
                    self.labels.append(self.label_fn(t))
                    self.succs.append(None)
                row.append(i)
            kids = tuple(row)
            if sid is None:
                self.initial = kids
            else:
                self.succs[sid] = kids
        return kids


class Engine:
    """Compiled evaluator and enumerator for one typed model."""

    def __init__(self, tm: TypedModel, cap: int = DEFAULT_STATE_CAP, guards: tuple[Expr, ...] = ()):
        self.tm = tm
        self.cap = cap
        self.guards = tuple(guards)
        self.nvars = len(tm.var_types)
        self._succ_fn = None
        self._init_fn = None

        trans_conj = []
        for e in tm.model.trans:
            trans_conj.extend(conjuncts(e))
        self._trans_assign, self._trans_checks = self._split_assignments(trans_conj, nxt=True)
        init_conj = []
        for e in tm.model.init:
            init_conj.extend(conjuncts(e))
        self._init_assign, self._init_checks = self._split_assignments(init_conj, nxt=False)

    # -- compilation --------------------------------------------------------

    def compile(self, e: Expr):
        """Compile a current-state expression to a function of a state."""
        # memoized next to the model's engines (whose keys are tuples); the
        # entry keeps the node alive: id() keys are only stable while it is
        hit = self.tm._engines.get(id(e))
        if hit is not None:
            return hit[1]
        from mbsa.sts.codegen import PRED, Source  # on first use: see init_tuples

        g = Source(self.tm, "def f(s):")
        text = g.expr(e, PRED)
        g.line(f"return {text}")
        fn = g.build()
        self.tm._engines[id(e)] = (e, fn)
        return fn

    def compile_mask(self, preds: list[Expr]):
        """Compile current-state predicates into one function of a state whose
        result has bit k set iff ``preds[k]`` holds there; each define is
        evaluated once per call.  Every engine of the model gets the same
        function for the same predicate objects."""
        key = ("mask", *map(id, preds))  # an engine key starts with its cap
        hit = self.tm._engines.get(key)
        if hit is not None:
            return hit[1]
        from mbsa.sts.codegen import STEP, Source

        g = Source(self.tm, "def f(s):")
        if self.nvars:
            g.line("".join(f"c{i}, " for i in range(self.nvars)) + "= s")
        g.line("m = 0")
        for k, e in enumerate(preds):
            text = g.expr(e, STEP)
            g.line(f"if {text}: m |= {1 << k}")
        g.line("return m")
        fn = g.build()
        self.tm._engines[key] = (tuple(preds), fn)
        return fn

    # -- functional-assignment extraction ------------------------------------

    def _split_assignments(self, conj: list[Expr], nxt: bool):
        """Partition conjuncts into functional assignments and residual checks.

        In TRANS context an assignment is ``next(v) = rhs`` (or ``<->``, or a
        bare ``next(v)`` / ``!next(v)``); in INIT context the same with plain
        variable references.  Assignments whose right-hand sides depend
        cyclically on assigned variables, their own included, are demoted to
        checks.  Returns ``(index, rhs, type)`` triples in dependency order.
        """
        tm = self.tm

        def target_of(side):
            if nxt and isinstance(side, Next):
                return side.name
            if not nxt and isinstance(side, Name) and side.name in tm.var_index:
                return side.name
            return None

        candidates: dict[str, Expr] = {}
        checks: list[Expr] = []
        owned: list[tuple[str, Expr]] = []
        for c in conj:
            rhs = None
            var = None
            if isinstance(c, BinOp) and c.op in ("=", "<->"):
                var = target_of(c.left)
                rhs = c.right
                if var is None:
                    var = target_of(c.right)
                    rhs = c.left
            elif nxt and isinstance(c, Next):
                var, rhs = c.name, BoolConst(True)
            elif not nxt and isinstance(c, Name) and c.name in tm.var_index:
                var, rhs = c.name, BoolConst(True)
            elif isinstance(c, UnOp) and c.op == "!":
                var, rhs = target_of(c.operand), BoolConst(False)
            if var is None or var in candidates:
                checks.append(c)
            else:
                candidates[var] = rhs
                owned.append((var, c))

        # dependency order among assigned variables (through defines)
        order: list[str] = []
        pending = dict(candidates)
        while pending:
            progress = False
            for v in [n for n, _ in self.tm.model.variables if n in pending]:
                if not self.refs(pending[v], nxt)[0] & pending.keys():
                    order.append(v)
                    del pending[v]
                    progress = True
            if not progress:
                # cyclic: demote the remaining assignments to plain checks
                for v in [n for n, _ in self.tm.model.variables if n in pending]:
                    checks.append(dict(owned)[v])
                    del pending[v]
                break

        assigns = [(tm.var_index[v], candidates[v], tm.var_types[tm.var_index[v]]) for v in order]
        return assigns, checks

    def refs(self, e: Expr, nxt: bool) -> tuple[set[str], set[str]]:
        """Variable names referenced by ``e`` (next-state refs when ``nxt``),
        expanded through defines, and the defines it uses."""
        out: set[str] = set()
        stack = [e]
        seen_defs: set[str] = set()
        while stack:
            for n in walk(stack.pop()):
                if isinstance(n, Next):
                    if nxt:
                        out.add(n.name)
                elif isinstance(n, Name):
                    if n.name in self.tm.defines:
                        if n.name not in seen_defs:
                            seen_defs.add(n.name)
                            stack.append(self.tm.defines[n.name])
                    elif not nxt and n.name in self.tm.var_index:
                        out.add(n.name)
        return out, seen_defs

    # -- enumeration ----------------------------------------------------------

    def init_tuples(self, forbidden: int = 0) -> list[tuple]:
        """The states satisfying INIT, INVAR and the guards in ``forbidden``, in canonical order."""
        if self._init_fn is None:
            # imported here, not at the top: every mbsa process imports this
            # module, and the ones that never explore then skip compiling codegen
            from mbsa.sts.codegen import enumerator

            self._init_fn = enumerator(self, succ=False)
        return self._init_fn(forbidden)

    def succ_tuples(self, s: tuple, forbidden: int = 0) -> list[tuple]:
        """The successors of ``s`` under TRANS, INVAR and the guards in ``forbidden``, in canonical order."""
        if self._succ_fn is None:
            from mbsa.sts.codegen import enumerator

            self._succ_fn = enumerator(self, succ=True)
        return self._succ_fn(s, forbidden)

    # -- state conversion ------------------------------------------------------

    def to_dict(self, s: tuple) -> dict:
        return {name: s[i] for i, (name, _) in enumerate(self.tm.model.variables)}

    def to_tuple(self, d: dict) -> tuple:
        return tuple(d[name] for name, _ in self.tm.model.variables)

    # -- reachability -----------------------------------------------------------

    def reach_tuples(self, target_fn, bound: int | None = None, forbidden: int = 0):
        """Shortest witness (list of tuples) whose last state satisfies the
        target, or None.  ``bound`` limits the number of steps, and the
        guards that ``forbidden`` selects hold on every state of the search.
        """

        def expand(s):
            states = self.init_tuples(forbidden) if s is None else self.succ_tuples(s, forbidden)
            # a stored state is no target, so the first target is a new state
            for i, t in enumerate(states):
                if target_fn(t):
                    return states[:i + 1], (t,)
            return states, ()

        path, _ = next(breadth_first(expand, bound, self.cap, "states"))
        return path


def breadth_first(expand, bound: int | None, cap: int, what: str):
    """The breadth-first search behind every analysis, over hashable keys.

    The search starts at the root key None.  ``expand(key)`` returns
    ``(children, stops)``: the keys one step after ``key``, in order (the
    root's children are the initial keys, at depth 0), and the keys at which
    a path ends.  Each child not yet stored is stored, with ``key`` as its
    parent; storing more than ``cap`` keys raises
    ``ResourceCapError("stored <what> exceed cap N at depth D")``, D the
    depth of the key that did not fit.  A ``ResourceCapError`` that
    ``expand`` raises (the engine's enumeration cap) is raised again with
    the prefix ``"searching <what> at depth D: "``, D the depth of the
    children it was listing.  Keys at depth ``bound`` or deeper are not
    expanded; the root always is, so the initial keys are stored under
    every bound, a negative one too.

    After the children of ``key`` are stored, each stop yields
    ``(path, stored)``: the shortest path of keys from depth 0 through
    ``key`` to the stop, and the stored keys.  A stop need not be a child;
    it is not stored.  The search goes on when resumed, and ends by yielding
    ``(None, stored)``.
    """
    parents: dict = {}
    frontier = [None]
    depth = -1  # the root's
    while frontier and (bound is None or depth < max(bound, 0)):
        depth += 1  # the children's
        nxt = []
        for key in frontier:
            try:
                children, stops = expand(key)
            except ResourceCapError as exc:
                raise ResourceCapError(f"searching {what} at depth {depth}: {exc}") from None
            for child in children:
                if child in parents:
                    continue
                if len(parents) >= cap:
                    raise ResourceCapError(f"stored {what} exceed cap {cap} at depth {depth}")
                parents[child] = key
                nxt.append(child)
            for stop in stops:
                path = [stop]
                k = key
                while k is not None:
                    path.append(k)
                    k = parents[k]
                yield path[::-1], parents.keys()
        frontier = nxt
    yield None, parents.keys()


def _engine(tm: TypedModel, cap: int | None = None, guards=()) -> Engine:
    """The model's engine for a state cap (``DEFAULT_STATE_CAP`` when None)
    and guard objects (kept alive by the engine, so their ids are stable):
    its generated functions are built once per key, and its compiled
    predicates once per model."""
    key = (DEFAULT_STATE_CAP if cap is None else cap, *map(id, guards))
    engines = tm._engines
    if key not in engines:
        engines[key] = Engine(tm, key[0], guards)
    return engines[key]


def initial_states(tm: TypedModel, cap: int | None = None) -> list[dict]:
    """Exactly the states satisfying INIT and INVAR, in deterministic order."""
    eng = _engine(tm, cap)
    return [eng.to_dict(s) for s in eng.init_tuples()]


def successors(tm: TypedModel, state: dict, cap: int | None = None) -> list[dict]:
    """States s' with (state, s') satisfying all TRANS and s' satisfying INVAR.

    An empty list is a deadlock (out-of-range assignments and INVAR
    violations remove successors); callers decide what that means.
    """
    eng = _engine(tm, cap)
    return [eng.to_dict(t) for t in eng.succ_tuples(eng.to_tuple(state))]


def reach(tm: TypedModel, target: Expr, bound: int | None = None, cap: int | None = None) -> Trace | None:
    """Shortest trace whose final state satisfies ``target``, else None.

    ``target`` must be a boolean current-state expression already checked
    against this model.  ``bound`` caps the number of steps; None explores to
    the full fixpoint.
    """
    eng = _engine(tm, cap)
    path = eng.reach_tuples(eng.compile(target), bound)
    if path is None:
        return None
    return Trace([eng.to_dict(s) for s in path])


def replay_ok(tm: TypedModel, trace: Trace) -> bool:
    """Check that a trace replays: INIT at state 0, TRANS per step, INVAR everywhere."""
    eng = _engine(tm)
    tuples = [eng.to_tuple(d) for d in trace.states]
    if not tuples:
        return False
    if tuples[0] not in eng.init_tuples():
        return False
    for s, t in zip(tuples, tuples[1:]):
        if t not in eng.succ_tuples(s):
            return False
    return True
