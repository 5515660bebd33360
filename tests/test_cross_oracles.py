"""Cross-implementation oracle checks for the trickiest kernels.

Each test pits an optimized implementation against a naive one that is
obviously faithful to the definitions: successor generation vs raw
cross-product filtering, shortest witnesses vs a plain queue-based search,
minimal cut sets and FMEA rows vs a search over every event subset, fault
and binding labels vs the predicates they stand for, guarded successor
lists vs unguarded ones filtered by the suppression predicates,
cut-sequence orders vs every trace up to the bound, dynamic FMEA rows vs
naive cut sets and trace orders over every (candidate, property) pair,
product-monitor
validation vs per-trace admission over every trace, synthesis instances vs
a plain search over node sets, and FMEA rows vs replayable witnesses.
"""

import collections
import functools
import itertools
import operator
import random

from mbsa.analysis import Analyzer, CutSetResult, compute_cut_sequences, compute_mcs, witness
from mbsa.cca import apply_cca, parse_cca
from mbsa.faults import ExtendedModel
from mbsa.fmea import generate_dynamic_fmea, generate_fmea
from mbsa.sts.engine import Engine, Trace, reach, replay_ok
from mbsa.sts.model import BinOp, BoolConst, InSet, IntConst, Ite, Name, Next, UnOp, type_values
from mbsa.tfpg import admits, validate_behavioral
from mbsa.tfpg.activation import BindingEvaluator, activation_trace_of
from mbsa.tfpg.synth import _collect_instances

from conftest import build_extended, checked_expr, reachable_tuples
from random_models import (TYPED_TEMPLATES, random_binding_and_graph, random_cca_model, random_extended_model,
                           random_stutter_model, random_synthesis_cases, random_typed_extended_model,
                           random_typed_model)

_OPS = {
    "&": lambda a, b: a and b,
    "|": lambda a, b: a or b,
    "->": lambda a, b: (not a) or b,
    "<->": operator.eq,
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "+": operator.add,
    "-": operator.sub,
}


def _eval(tm, e, s, t=None):
    """Value of ``e`` in current state ``s`` and next state ``t``, read off
    the syntax tree (defines re-evaluated at every reference)."""
    if isinstance(e, (BoolConst, IntConst)):
        return e.value
    if isinstance(e, Name):
        if e.name in tm.var_index:
            return s[tm.var_index[e.name]]
        if e.name in tm.defines:
            return _eval(tm, tm.defines[e.name], s)
        return e.name  # an enumeration literal
    if isinstance(e, Next):
        return t[tm.var_index[e.name]]
    if isinstance(e, UnOp):
        v = _eval(tm, e.operand, s, t)
        return (not v) if e.op == "!" else -v
    if isinstance(e, BinOp):
        return _OPS[e.op](_eval(tm, e.left, s, t), _eval(tm, e.right, s, t))
    if isinstance(e, Ite):
        return _eval(tm, e.then if _eval(tm, e.cond, s, t) else e.other, s, t)
    if isinstance(e, InSet):
        return _eval(tm, e.operand, s, t) in {_eval(tm, m, s, t) for m in e.members}
    raise AssertionError(e)


def _canonical(eng: Engine, states: list[tuple], assigns) -> list[tuple]:
    """The engine's order: by the domain positions of the variables that are
    not functionally assigned, in declaration order (stable)."""
    assigned = {i for i, _, _ in assigns}
    free = [i for i in range(eng.nvars) if i not in assigned]
    pos = [{v: k for k, v in enumerate(d)} for d in eng.tm.domains]
    return sorted(states, key=lambda t: [pos[i][t[i]] for i in free])


def _naive_successors(eng: Engine, s: tuple) -> list[tuple]:
    """Cross product of every variable's domain, filtered by all constraints."""
    tm = eng.tm
    out = [t for t in itertools.product(*(type_values(ty) for ty in tm.var_types))
           if all(_eval(tm, e, s, t) for e in tm.model.trans)
           and all(_eval(tm, e, t) for e in tm.model.invar)]
    return _canonical(eng, out, eng._trans_assign)


def _naive_inits(eng: Engine) -> list[tuple]:
    tm = eng.tm
    out = [s for s in itertools.product(*(type_values(ty) for ty in tm.var_types))
           if all(_eval(tm, e, s) for e in (*tm.model.init, *tm.model.invar))]
    return _canonical(eng, out, eng._init_assign)


def _check_against_naive(tm, samples: int):
    """Initial states and the successors of up to ``samples`` reachable
    states, as ordered lists."""
    eng = Engine(tm)
    inits = eng.init_tuples()
    assert inits == _naive_inits(eng)
    states = list(inits)
    seen = set(states)
    for _ in range(samples):
        if not states:
            break
        s = states.pop()
        succ = eng.succ_tuples(s)
        assert succ == _naive_successors(eng, s), s
        for t in succ:
            if t not in seen:
                seen.add(t)
                states.append(t)


def test_successor_generation_matches_naive_enumeration():
    rng = random.Random(5)
    for _ in range(12):
        xm, _ = random_extended_model(rng)
        _check_against_naive(xm.typed, 30)


def test_typed_successor_generation_matches_naive_enumeration():
    # integer ranges (with out-of-range assignments), enums, INVARs, nested
    # defines, next-to-next assignments and cyclic assignments
    rng = random.Random(17)
    for _ in range(20):
        _check_against_naive(random_typed_model(rng), 12)


def _all_traces(eng: Engine, bound: int):
    """Every trace with at most ``bound`` steps (exponential: tiny models only)."""
    stack = [[s] for s in eng.init_tuples()]
    while stack:
        prefix = stack.pop()
        yield prefix
        if len(prefix) <= bound:
            for t in eng.succ_tuples(prefix[-1]):
                stack.append(prefix + [t])


def _allowed_fn(xm, allowed):
    """The "only ``allowed`` may occur" restriction, read off the other
    events' suppression predicates (everything allowed when None)."""
    banned = [info.suppression for name, info in xm.events.items()
              if allowed is not None and name not in allowed]
    return lambda s: all(_eval(xm.typed, e, s) for e in banned)


def _naive_reach(xm, target, allowed, bound):
    """Shortest path to a target state: a queue, a parent map, the target
    tested as a state leaves the queue."""
    tm = xm.typed
    eng = Engine(tm)
    ok = _allowed_fn(xm, allowed)
    parent = {}
    queue = collections.deque()
    for s in eng.init_tuples():
        if ok(s) and s not in parent:
            parent[s] = None
            queue.append((s, 0))
    while queue:
        s, depth = queue.popleft()
        if _eval(tm, target, s):
            path = [s]
            while parent[path[-1]] is not None:
                path.append(parent[path[-1]])
            return path[::-1]
        if bound is None or depth < bound:
            for t in eng.succ_tuples(s):
                if ok(t) and t not in parent:
                    parent[t] = s
                    queue.append((t, depth + 1))
    return None


def test_shortest_witnesses_equal_naive_search():
    # plain and common-cause models, with and without a restriction, under
    # step bounds 0-3 and unbounded: the same trace, state for state
    rng = random.Random(21)
    lengths = collections.Counter()
    for i in range(16):
        xm, tle = (random_cca_model if i % 2 else random_extended_model)(rng)
        eng = Engine(xm.typed)
        events = sorted(xm.events)
        restrictions = [frozenset(), frozenset(events), *(frozenset(rng.sample(events, k)) for k in (1, 2))]
        for bound in (0, 1, 2, 3, None):
            trace = reach(xm.typed, tle, bound)
            got = None if trace is None else [eng.to_tuple(d) for d in trace.states]
            assert got == _naive_reach(xm, tle, None, bound), (i, bound)
            for allowed in restrictions:
                trace = witness(xm, allowed, tle, bound)
                got = None if trace is None else [eng.to_tuple(d) for d in trace.states]
                assert got == _naive_reach(xm, tle, allowed, bound), (i, bound, allowed)
                lengths[None if got is None else len(got)] += 1
    assert lengths[None] and lengths[1] and any(n and n >= 3 for n in lengths)


def _naive_distance(xm, target, allowed):
    """Steps of the shortest path to a target state under the restriction,
    or None: the target is reachable within a bound b iff this is <= b."""
    path = _naive_reach(xm, target, allowed, None)
    return None if path is None else len(path) - 1


def _naive_mcs(distance, events, max_card, bound):
    """Minimal event sets of at most ``max_card`` events that reach the
    target within ``bound``, by testing every subset."""
    def reached(c):
        return distance[c] is not None and (bound is None or distance[c] <= bound)

    if reached(frozenset()):
        return {frozenset()}
    explaining = [frozenset(c) for k in range(1, max_card + 1)
                  for c in itertools.combinations(events, k) if reached(frozenset(c))]
    return {c for c in explaining if not any(o < c for o in explaining)}


def test_mcs_and_fmea_equal_naive_subset_search(redundant_pair, latch_model):
    # an oracle that shares nothing with the analyzer: its own evaluator and
    # search, every subset tested; plain and common-cause models, step
    # bounds 0-3 and unbounded, cardinality bounds 1-3
    rng = random.Random(27)
    models = [(redundant_pair, ["(a & b) | c", "a & b & c", "a"]), (latch_model, ["armed & y", "x", "y"])]
    for i in range(12):
        xm, tle = (random_cca_model if i % 2 else random_extended_model)(rng)
        models.append((xm, [tle, "v0", "v1 & v2"]))
    typed = _typed_extended_models(random.Random(41), 8)
    models += [(xm, [tle, "n >= 2", "c in {B, C}"]) for xm, tle in typed]
    counts = collections.Counter()
    for i, (xm, exprs) in enumerate(models):
        events = sorted(xm.events)
        max_card = 3 if i < 2 else 1 + i % 3
        props = [(f"p{k}", checked_expr(xm, e) if isinstance(e, str) else e) for k, e in enumerate(exprs)]
        subsets = [frozenset(c) for k in range(max_card + 1) for c in itertools.combinations(events, k)]
        distance = {label: {c: _naive_distance(xm, expr, c) for c in subsets} for label, expr in props}
        for bound in (0, 1, 2, 3, None):
            naive = {label: _naive_mcs(distance[label], events, max_card, bound) for label, _ in props}
            for label, expr in props:
                result = compute_mcs(xm, expr, max_card, bound)
                assert set(result.mcs) == naive[label], (i, bound, label)
                assert result.nominal_warning == (naive[label] == {frozenset()})
                counts.update(len(c) for c in naive[label])
                counts["none"] += not naive[label]
                counts["typed"] += i >= len(models) - len(typed) and any(naive[label])  # a nonempty cut set
            rows = set()
            for c in set().union(*naive.values()):
                violated = [label for label, _ in props if distance[label][c] is not None
                            and (bound is None or distance[label][c] <= bound)]
                if violated:
                    rows.add((c, tuple(violated)))
            table = generate_fmea(xm, props, max_card, bound)
            assert {(r.faults, r.violated) for r in table.rows} == rows, (i, bound)
    # no cut set, the nominal warning, cut sets of one to three events, and
    # nonempty cut sets of integer and enum models
    assert all(counts[k] for k in ("none", 0, 1, 2, 3, "typed")), counts


def _typed_extended_models(rng, count):
    """``count`` models of ``random_typed_extended_model``, among which every
    template of ``TYPED_TEMPLATES`` and a woven common cause occur."""
    models = [random_typed_extended_model(rng) for _ in range(count)]
    names = {name.rstrip("0123456789") for xm, _ in models for name in xm.events}
    assert names == {t.split("(")[0] for ts in TYPED_TEMPLATES.values() for t in ts} | {"cause"}, names
    return models


def _check_labels(xm):
    """Every bit of the occurrence label on every reachable state, and
    the analyzer's guards, against the registry."""
    ana = Analyzer(xm)
    tm = xm.typed
    assert ana.engine.guards == tuple(xm.events[name].suppression for name in ana.events)
    states = reachable_tuples(ana.engine)
    for s in states:
        assert ana.label(s) == sum(1 << k for k, name in enumerate(ana.events)
                                    if _eval(tm, xm.events[name].occurrence, s)), s
    return ana, states


def _check_observations(xm, binding):
    """Every bit of the binding's label, and its decoding, on every reachable
    state, against the predicates read off the syntax tree; returns the
    decoded labels."""
    ev = BindingEvaluator(xm, binding)
    tm = xm.typed
    decoded = set()
    for s in reachable_tuples(ev.engine):
        label = ev.observe(s)
        acts = [bool(_eval(tm, binding.activations[n], s)) for n in ev.node_order]
        modes = [bool(_eval(tm, e, s)) for e in binding.mode_exprs.values()]
        assert label == sum(1 << k for k, b in enumerate(acts + modes) if b), s
        assert ev.decode(label) == (sum(1 << k for k, b in enumerate(acts) if b), ev.modes[modes.index(True)])
        decoded.add(ev.decode(label))
    return decoded


def test_label_bank_bits_equal_predicates():
    rng = random.Random(29)
    seen = collections.Counter()
    for i in range(18):
        if i % 3 == 0:
            xm, _ = random_extended_model(rng)
        elif i % 3 == 1:
            xm, _ = random_cca_model(rng)
        else:
            xm, _, binding = random_stutter_model(rng)
        if i % 3 != 2:
            _, binding = random_binding_and_graph(xm, rng)
        ana, states = _check_labels(xm)
        for mask, mode in _check_observations(xm, binding):
            seen["activates"] += mask != 0
            seen["second mode"] += mode != binding.mode_literals()[0]
        for s in states:
            seen["occurs"] += ana.label(s) != 0
            seen["nominal"] += ana.label(s) == 0
    assert all(seen[k] for k in ("occurs", "nominal", "activates", "second mode"))


def test_cca_woven_registry_gets_its_own_bank():
    rng = random.Random(31)
    differs = 0
    for _ in range(6):
        xm, _ = random_extended_model(rng)
        members = rng.sample(sorted(xm.events), 2)
        woven = apply_cca(xm, parse_cca(f"cc cause: members {{{', '.join(members)}}}, "
                                        "pattern simultaneous, prob 0.01;"))
        assert Analyzer(xm).engine is Analyzer(xm, None).engine
        assert Analyzer(xm).label is Analyzer(xm, None).label
        assert Analyzer(woven).label is not Analyzer(xm).label
        # the woven model under the registry before weaving: the same model,
        # but the members' suppressions lack the cause's allowance, so the
        # guard vector, and with it the engine, are its own; the occurrence
        # predicates are the same objects, so both engines share one label
        # function, which _check_labels verifies under each registry
        unwoven = ExtendedModel(woven.typed, {**woven.events, **{m: xm.events[m] for m in members}})
        ana, states = _check_labels(unwoven)
        woven_ana, _ = _check_labels(woven)
        assert ana.engine.tm is woven_ana.engine.tm
        assert ana.engine is not woven_ana.engine and ana.label is woven_ana.label
        # only the cause may occur: the woven guards admit the members it forces
        only_cause = ana.full ^ ana.mask({"cause"})
        differs += any(ana.engine.succ_tuples(s, only_cause) != woven_ana.engine.succ_tuples(s, only_cause)
                       for s in states)
    assert differs


def _wide_model():
    """15 free booleans that move together, and 7 permanent faults whose mode
    variables are free too: 22 loop levels, so the guards of the later
    events sit in a continuation function of the generated code."""
    n = 15
    smx = ("MODULE wide\nVAR\n" + "".join(f"  x{i} : boolean;\n" for i in range(n))
           + "".join(f"INIT !x{i};\n" for i in range(n))
           + "".join(f"TRANS next(x{i}) != !next(x{i - 1});\n" for i in range(1, n)))
    templates = ["stuck_at(TRUE)", "stuck_at(FALSE)", "inverted"]
    fei = "".join(f"fault f{k}: target x{(4 * k + 1) % n}, template {templates[k % 3]}, "
                  "dynamics permanent, prob 0.01;\n" for k in range(7))
    return build_extended(smx, fei)


def test_guarded_generator_equals_filtered_lists():
    # a guarded list is the unguarded one minus the states where a forbidden
    # event's suppression predicate fails, in the same order
    rng = random.Random(37)
    models = []
    for i in range(12):
        if i % 3 == 0:
            models.append(random_extended_model(rng)[0])
        elif i % 3 == 1:
            models.append(random_cca_model(rng)[0])
        else:
            models.append(random_stutter_model(rng)[0])
    wide = _wide_model()
    names = wide.typed.var_names()
    assert not Engine(wide.typed)._trans_assign and names.index("mode#f6") >= 16
    models.append(wide)
    seen = collections.Counter()
    for xm in models:
        ana = Analyzer(xm)
        plain = Engine(xm.typed)
        suppressions = [xm.events[name].suppression for name in ana.events]
        fails = functools.cache(lambda t: sum(1 << k for k, e in enumerate(suppressions)
                                              if not _eval(xm.typed, e, t)))
        if len(ana.events) <= 6:
            masks = range(ana.full + 1)
        else:
            masks = [0, ana.full, *rng.sample(range(1, ana.full), 24)]
            seen["sampled"] += 1
        for m in masks:
            assert ana.engine.init_tuples(m) == [t for t in plain.init_tuples() if not fails(t) & m], m
        for s in reachable_tuples(plain):
            succ = plain.succ_tuples(s)
            for m in masks:
                guarded = ana.engine.succ_tuples(s, m)
                assert guarded == [t for t in succ if not fails(t) & m], (s, m)
                seen["pruned"] += len(guarded) < len(succ)
                seen["pruned to none"] += bool(succ) and not guarded
                seen["kept"] += bool(guarded) and m != 0
    assert all(seen[k] for k in ("sampled", "pruned", "pruned to none", "kept")), seen


def _naive_orders(xm, tle, base, bound):
    """The first-occurrence orders of every trace of at most ``bound`` steps
    on which only ``base`` may occur and whose last state satisfies the TLE
    after every event of ``base`` has occurred; events first occurring in
    the same step are ordered both ways."""
    tm = xm.typed
    eng = Engine(tm)
    ok = functools.cache(_allowed_fn(xm, base))
    occurred = functools.cache(lambda s: {n for n in base if _eval(tm, xm.events[n].occurrence, s)})
    orders = set()
    stack = [[s] for s in eng.init_tuples() if ok(s)]
    while stack:
        prefix = stack.pop()
        if _eval(tm, tle, prefix[-1]):
            first = {n: next((i for i, s in enumerate(prefix) if n in occurred(s)), None) for n in base}
            if None not in first.values():
                orders.update(o for o in itertools.permutations(sorted(base))
                              if all(first[a] <= first[b] for a, b in zip(o, o[1:])))
        if len(prefix) <= bound:
            stack.extend(prefix + [t] for t in eng.succ_tuples(prefix[-1]) if ok(t))
    return orders


def test_cut_sequence_orders_equal_trace_enumeration(latch_model):
    # every event set of up to two events, as dynamic FMEA asks, so sets
    # without a witness and sets that are no cut set are covered too; the
    # latch needs one strict order
    rng = random.Random(23)
    models = [(latch_model, checked_expr(latch_model, "armed & y"))]
    models += [(random_cca_model if i % 2 else random_extended_model)(rng) for i in range(12)]
    typed = _typed_extended_models(random.Random(43), 8)
    models += typed
    counts = collections.Counter()
    for i, (xm, tle) in enumerate(models):
        events = sorted(xm.events)
        bases = [frozenset(c) for k in (1, 2) for c in itertools.combinations(events, k)]
        for bound in (0, 1, 2, 3):
            carrier = CutSetResult(tle, bases, 2, bound, complete=False)
            for seq in compute_cut_sequences(xm, tle, carrier, bound):
                assert set(seq.orders) == _naive_orders(xm, tle, seq.base, bound), (i, bound, seq.base)
                assert set(seq.witnesses) == set(seq.orders)
                for trace in seq.witnesses.values():
                    assert len(trace) <= bound + 1 and replay_ok(xm.typed, trace)
                counts[len(seq.base), len(seq.orders)] += 1
                counts["typed"] += i >= len(models) - len(typed) and bool(seq.orders)
    assert counts[2, 0] and counts[2, 1] and counts[2, 2] and counts[1, 1] and counts["typed"], counts


def test_dynamic_fmea_equals_naive_orders_of_every_pair(redundant_pair, latch_model):
    # the candidates are the naive cut sets of every property, and each is
    # checked against every property by trace enumeration, so a candidate
    # wrongly kept from a property's order search shows as missing rows
    rng = random.Random(31)
    models = [(latch_model, ["armed & y", "x", "y"]), (redundant_pair, ["(a & b) | c", "a & b & c", "a"])]
    for i in range(10):
        xm, tle = (random_cca_model if i % 2 else random_extended_model)(rng)
        models.append((xm, [tle, "v0", "v1 & v2"]))
    seen = collections.Counter()
    for i, (xm, exprs) in enumerate(models):
        events = sorted(xm.events)
        max_card = 3 if i < 2 else 1 + i % 3
        props = [(f"p{k}", checked_expr(xm, e) if isinstance(e, str) else e) for k, e in enumerate(exprs)]
        subsets = [frozenset(c) for k in range(max_card + 1) for c in itertools.combinations(events, k)]
        distance = {label: {c: _naive_distance(xm, expr, c) for c in subsets} for label, expr in props}
        for bound in (0, 1, 2, 3):
            naive = {label: _naive_mcs(distance[label], events, max_card, bound) for label, _ in props}
            expected = collections.defaultdict(set)
            for c in set().union(*naive.values()) - {frozenset()}:
                for label, expr in props:
                    orders = _naive_orders(xm, expr, c, bound)
                    seen["no cut set"] += not any(m <= c for m in naive[label])
                    seen["non-minimal row"] += bool(orders) and c not in naive[label]
                    for order in orders:
                        expected[c, order].add(label)
            table = generate_dynamic_fmea(xm, props, max_card, bound)
            got = [(r.faults, r.ordering, r.violated) for r in table.rows]
            assert set(got) == {(c, o, tuple(sorted(v))) for (c, o), v in expected.items()}, (i, bound)
            assert got == sorted(got, key=lambda r: (len(r[0]), sorted(r[0]), r[1])), (i, bound)
            seen["row"] += len(got)
    assert all(seen[k] for k in ("no cut set", "non-minimal row", "row")), seen


def _verdict_equals_per_trace_admission(xm, graph, binding, bound: int) -> bool:
    """Validation at ``bound`` against admits() on every trace up to it;
    returns whether the verdict is complete."""
    report = validate_behavioral(graph, binding, xm, step_bound=bound)
    eng = Engine(xm.typed)
    refused = None
    for tuples in _all_traces(eng, bound):
        trace = Trace([eng.to_dict(s) for s in tuples])
        if not admits(graph, activation_trace_of(trace, binding, xm)).ok:
            refused = trace
            break
    if report.complete:
        assert refused is None, (graph, refused.states)
    else:
        assert refused is not None
        # and the reported counterexample is itself refused, and shortest
        cex, inc = report.counterexamples[0]
        assert not admits(graph, activation_trace_of(cex, binding, xm)).ok
        if len(cex) > 1:
            assert validate_behavioral(graph, binding, xm, step_bound=len(cex) - 2).complete
    return report.complete


def test_validation_verdict_equals_per_trace_admission():
    # the product monitor must agree with running admits() on every single
    # trace up to the bound
    rng = random.Random(9)
    verdicts = []
    for _ in range(10):
        xm, _ = random_extended_model(rng)
        graph, binding = random_binding_and_graph(xm, rng)
        verdicts.append(_verdict_equals_per_trace_admission(xm, graph, binding, 4))
    assert set(verdicts) == {True, False}  # both verdicts exercised


def test_validation_verdict_equals_per_trace_admission_on_stuttering_models():
    # models that repeat their state after a fault, against graphs whose
    # finite deadlines can pass while they do
    rng = random.Random(3)
    verdicts = [_verdict_equals_per_trace_admission(*random_stutter_model(rng), rng.randint(2, 5))
                for _ in range(40)]
    assert set(verdicts) == {True, False}


def _naive_instances(xm, binding, step_bound):
    """Synthesis instances by breadth-first search over (state, activated
    set, last burst) with frozensets, each state observed by reading the
    binding's predicates off the syntax tree."""
    engine = Engine(xm.typed)
    tm = xm.typed
    instances = {n: set() for n in binding.kinds}

    def record(newly, acted, last, mode):
        for v in newly:
            if binding.kinds[v] != "failure":
                instances[v].add((frozenset((acted | newly) - {v}), frozenset(newly - {v}), last, mode))

    @functools.cache
    def now(s):
        (mode,) = [m for m, e in binding.mode_exprs.items() if _eval(tm, e, s)]
        return frozenset(n for n, e in binding.activations.items() if _eval(tm, e, s)), mode

    visited = set()
    frontier = []
    for s in engine.init_tuples():
        newly, mode = now(s)
        record(newly, frozenset(), frozenset(), mode)
        if (s, newly, newly) not in visited:
            visited.add((s, newly, newly))
            frontier.append((s, newly, newly))
    depth = 0
    while frontier and (step_bound is None or depth < step_bound):
        depth += 1
        nxt = []
        for s, acted, last in frontier:
            for t in engine.succ_tuples(s):
                active, mode = now(t)
                newly = active - acted
                if newly:
                    record(newly, acted, last, mode)
                    acted_t, last_t = acted | newly, newly
                else:
                    acted_t, last_t = acted, last
                if (t, acted_t, last_t) not in visited:
                    visited.add((t, acted_t, last_t))
                    nxt.append((t, acted_t, last_t))
        frontier = nxt
    return instances


def _named_instances(xm, binding, step_bound):
    """``_collect_instances`` with each node mask read as the set of node
    names its bits stand for, in the evaluator's node order."""
    order, instances = _collect_instances(xm, binding, step_bound, None)
    names = lambda mask: frozenset(n for i, n in enumerate(order) if mask >> i & 1)
    return {v: {(names(a), names(sim), names(last), mode) for a, sim, last, mode in insts}
            for v, insts in zip(order, instances)}


def test_synthesis_instances_equal_naive_search(battery_sensor, battery_binding):
    for bound in (60, None):
        assert _named_instances(battery_sensor, battery_binding, bound) == \
            _naive_instances(battery_sensor, battery_binding, bound)
    for xm, binding, bound in random_synthesis_cases():
        assert _named_instances(xm, binding, bound) == _naive_instances(xm, binding, bound)


def test_fmea_rows_are_witnessed(redundant_pair):
    xm = redundant_pair
    props = [("TLE", checked_expr(xm, "(a & b) | c")), ("a_out", checked_expr(xm, "a"))]
    table = generate_fmea(xm, props, 2)
    by_label = dict(props)
    assert table.rows
    from mbsa.sts.engine import replay_ok
    for row in table.rows:
        for label in row.violated:
            trace = witness(xm, row.faults, by_label[label])
            assert trace is not None and replay_ok(xm.typed, trace)
