"""Cross-implementation oracle checks for the trickiest kernels.

Each test pits an optimized implementation against a naive one that is
obviously faithful to the definitions: successor generation vs raw
cross-product filtering, product-monitor validation vs per-trace admission
over every trace, synthesis instances vs a plain search over node sets, and
FMEA rows vs replayable witnesses.
"""

import itertools
import operator
import random

from mbsa.analysis import witness
from mbsa.fmea import generate_fmea
from mbsa.sts.engine import Engine, Trace
from mbsa.sts.model import BinOp, BoolConst, InSet, IntConst, Ite, Name, Next, UnOp, type_values
from mbsa.tfpg import Tfpg, TfpgEdge, admits, validate_behavioral
from mbsa.tfpg.activation import BindingEvaluator, NodeBinding, activation_trace_of
from mbsa.tfpg.synth import _collect_instances
from mbsa.sts.parse import parse_expr_text

from conftest import build_extended, checked_expr
from random_models import random_extended_model, random_stutter_model, random_typed_model

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


def _random_binding_and_graph(xm, rng):
    """A random graph over the model's fault events plus derived discrepancies."""
    events = sorted(xm.events)
    kinds = {}
    activations = {}
    failure_events = {}
    for e in events:
        kinds[f"F_{e}"] = "failure"
        activations[f"F_{e}"] = xm.events[e].occurrence
        failure_events[f"F_{e}"] = e
    nominal_vars = [n for n, _ in xm.model.variables if "#" not in n]
    disc_names = []
    for i, v in enumerate(rng.sample(nominal_vars, min(2, len(nominal_vars)))):
        name = f"D{i}"
        kinds[name] = rng.choice(["or", "and"])
        expr = parse_expr_text(v if rng.random() < 0.5 else f"!{v}")
        xm.typed.check_expr(expr)
        activations[name] = expr
        disc_names.append(name)
    binding = NodeBinding(kinds, activations, {"ON": checked_expr(xm, "TRUE")}, failure_events)

    edges = []
    for dst in disc_names:
        for src in rng.sample(sorted(kinds), rng.randint(0, 2)):
            if src == dst:
                continue
            tmin = rng.randint(0, 1)
            tmax = rng.choice([None, tmin, tmin + 2])
            edges.append(TfpgEdge(src, dst, tmin, tmax, None))
    graph = Tfpg(("ON",), kinds, tuple(edges))
    graph.check()
    return graph, binding


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
        graph, binding = _random_binding_and_graph(xm, rng)
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
    set, last burst) with frozensets, observing every transition anew."""
    engine = Engine(xm.typed)
    ev = BindingEvaluator(xm, binding, engine)
    instances = {n: set() for n in ev.node_order}

    def record(newly, acted, last, mode):
        for v in newly:
            if binding.kinds[v] != "failure":
                instances[v].add((frozenset((acted | newly) - {v}), frozenset(newly - {v}), last, mode))

    def now(s):
        bits, mode = ev.observe(s)
        return frozenset(n for n, b in zip(ev.node_order, bits) if b), mode

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


def test_synthesis_instances_equal_naive_search(battery_sensor, battery_binding):
    for bound in (60, None):
        assert _collect_instances(battery_sensor, battery_binding, bound, None) == \
            _naive_instances(battery_sensor, battery_binding, bound)
    rng = random.Random(11)
    for i in range(24):
        if i % 2:
            xm, _, binding = random_stutter_model(rng)
        else:
            xm, _ = random_extended_model(rng)
            _, binding = _random_binding_and_graph(xm, rng)
        bound = rng.randint(1, 3)
        assert _collect_instances(xm, binding, bound, None) == _naive_instances(xm, binding, bound)


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
