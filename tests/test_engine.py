import inspect
import time

import pytest

from mbsa.diagnostics import ResourceCapError
from mbsa.sts.check import type_check
from mbsa.sts.engine import Engine, Trace, initial_states, reach, replay_ok, successors
from mbsa.sts.parse import parse_expr_text, parse_model

from test_cross_oracles import _naive_inits, _naive_successors


def _tm(text):
    return type_check(parse_model(text))


COUNTER = "MODULE m VAR x : 0..3; INIT x = 0; TRANS next(x) = x + 1;"


def test_initial_states_simple():
    tm = _tm("MODULE m VAR x : boolean; INIT !x;")
    assert initial_states(tm) == [{"x": False}]


def test_initial_states_unconstrained():
    tm = _tm("MODULE m VAR x : boolean; y : boolean;")
    assert len(initial_states(tm)) == 4


def test_successors_deterministic_counter():
    tm = _tm(COUNTER)
    assert successors(tm, {"x": 1}) == [{"x": 2}]


def test_successors_unconstrained_boolean():
    tm = _tm("MODULE m VAR v : boolean; w : boolean; TRANS next(w) = w;")
    succ = successors(tm, {"v": False, "w": True})
    assert len(succ) == 2 and {s["v"] for s in succ} == {False, True}


def test_out_of_range_next_is_deadlock():
    tm = _tm(COUNTER)
    assert successors(tm, {"x": 3}) == []


def test_invar_removes_states():
    tm = _tm("MODULE m VAR x : 0..3; INIT x = 0; TRANS next(x) = x + 1; INVAR x != 2;")
    assert successors(tm, {"x": 1}) == []


def test_reach_shortest_witness():
    tm = _tm(COUNTER)
    t = reach(tm, tm.check_expr(parse_expr_text("x = 3")))
    assert [s["x"] for s in t.states] == [0, 1, 2, 3]
    assert replay_ok(tm, t)


def test_reach_false_unreachable():
    tm = _tm(COUNTER)
    assert reach(tm, tm.check_expr(parse_expr_text("FALSE"))) is None


def test_reach_initial_state_hit():
    tm = _tm(COUNTER)
    t = reach(tm, tm.check_expr(parse_expr_text("x = 0")))
    assert len(t) == 1


def test_reach_respects_bound():
    tm = _tm(COUNTER)
    target = tm.check_expr(parse_expr_text("x = 3"))
    assert reach(tm, target, bound=2) is None
    assert reach(tm, target, bound=3) is not None


def test_reach_shortest_matches_bfs_oracle():
    # nondeterministic model: the engine's witness must be as short as a
    # plain breadth-first search says is possible
    tm = _tm("""MODULE m
VAR x : 0..7; fast : boolean;
INIT x = 0;
TRANS next(x) = (fast ? (x + 2 > 7 ? 7 : x + 2) : (x + 1 > 7 ? 7 : x + 1));
""")
    target = tm.check_expr(parse_expr_text("x = 7"))
    witness = reach(tm, target)
    eng = Engine(tm)
    layer = set(eng.init_tuples())
    depth = 0
    tgt = eng.compile(target)
    while not any(tgt(s) for s in layer):
        layer = {t for s in layer for t in eng.succ_tuples(s)}
        depth += 1
    assert len(witness) == depth + 1
    assert replay_ok(tm, witness)


def test_state_graph_enumeration_terminates():
    tm = _tm("MODULE m VAR x : 0..3; y : boolean;")
    eng = Engine(tm)
    assert len(eng.reachable_tuples()) == 8


def test_resource_cap():
    tm = _tm("MODULE m VAR x : 0..200; INIT x = 0; TRANS next(x) = (x < 200 ? x + 1 : x);")
    eng = Engine(tm, cap=10)
    with pytest.raises(ResourceCapError):
        eng.reachable_tuples()


def test_determinism_of_orders():
    tm = _tm("MODULE m VAR a : {X, Y, Z}; b : boolean;")
    first = initial_states(tm)
    second = initial_states(tm)
    assert first == second
    expected = [{"a": lit, "b": v} for lit in ("X", "Y", "Z") for v in (False, True)]
    assert first == expected


def test_replay_rejects_bad_traces():
    tm = _tm(COUNTER)
    assert not replay_ok(tm, Trace([{"x": 1}]))  # violates INIT
    assert not replay_ok(tm, Trace([{"x": 0}, {"x": 2}]))  # violates TRANS


def test_defines_evaluate_through_engine():
    tm = _tm("""MODULE m
VAR b : 0..4;
DEFINE low := b <= 1; critical := low & b = 0;
INIT b = 4;
TRANS next(b) = (b > 0 ? b - 1 : b);
""")
    t = reach(tm, tm.check_expr(parse_expr_text("critical")))
    assert [s["b"] for s in t.states] == [4, 3, 2, 1, 0]


def test_battery_sensor_nominal_is_safe(battery_sensor):
    # with no faults injected the system never dies
    xm = battery_sensor
    from mbsa.analysis import witness
    assert witness(xm, frozenset(), parse_expr_text("sys_dead")) is None


def test_battery_sensor_shape(battery_sensor):
    from conftest import FIXTURES
    nominal = type_check(parse_model((FIXTURES / "battery_sensor.smx").read_text()))
    assert len(nominal.model.variables) == 7  # two generators, two batteries, two sensors, mode
    (init,) = initial_states(battery_sensor.typed)
    assert init["mode"] == "P"  # primary configuration, everything healthy
    assert all(v == "nominal" for k, v in init.items() if k.startswith("mode#"))


# -- the expression compiler ----------------------------------------------------

def test_define_chain_compiles_in_linear_time():
    # each define reads the previous one twice: pasting defines textually
    # would double the code 40 times
    defines = " ".join(f"d{i} := d{i - 1} + d{i - 1};" for i in range(1, 40))
    tm = _tm(f"""MODULE m
VAR x : 0..1;
DEFINE d0 := x; {defines}
INIT x = 1;
TRANS next(x) = (d39 > 0 ? 0 : 1);
INVAR d39 >= 0;
""")
    start = time.process_time()
    eng = Engine(tm)
    d39 = eng.compile(tm.check_expr(parse_expr_text("d39")))
    assert eng.init_tuples() == [(1,)]
    assert eng.succ_tuples((1,)) == [(0,)]
    assert eng.succ_tuples((0,)) == [(1,)]
    assert time.process_time() - start < 1.0
    assert d39((1,)) == 2 ** 39 and d39((0,)) == 0


def test_identifiers_that_look_like_generated_locals():
    # the generated code names locals s, t, out, f, cN, nN, dN, eN, kN; user
    # identifiers never reach it, so these names cannot capture anything
    tm = _tm("""MODULE m
VAR s : boolean; t : 0..2; out : {K, c0, n1, k1, e1}; f : boolean; n0 : boolean;
DEFINE d0 := s & t > 0; e0 := out = K | n0; c1 := d0 | e0;
INIT !s & t = 0 & f;
TRANS next(t) = (t < 2 ? t + 1 : 0);
TRANS next(s) -> next(out) != K;
TRANS next(f) = !f | c1;
TRANS d0 -> next(n0);
INVAR e0 | t > 0 | s;
""")
    eng = Engine(tm)
    inits = eng.init_tuples()
    assert inits == _naive_inits(eng)
    states, seen = list(inits), set(inits)
    while states:
        cur = states.pop()
        succ = eng.succ_tuples(cur)
        assert succ == _naive_successors(eng, cur)
        for nxt in succ:
            if nxt not in seen:
                seen.add(nxt)
                states.append(nxt)
    assert len(seen) > 20


def test_enumeration_cap_message():
    tm = _tm("MODULE m VAR a : 0..9; b : 0..9; c : boolean; TRANS next(c) = !c;")
    eng = Engine(tm, cap=50)
    for _ in range(2):  # a failed build is not cached
        with pytest.raises(ResourceCapError, match=r"^enumeration of 100\+ candidate states exceeds cap 50$"):
            eng.init_tuples()
        with pytest.raises(ResourceCapError, match=r"^enumeration of 100\+ candidate states exceeds cap 50$"):
            eng.succ_tuples((0, 0, False))


def test_more_free_variables_than_nested_loops_allow():
    # CPython refuses more than 20 nested loops in one function; the checks
    # sit at the innermost levels, after the nest has been split
    tm = _tm("MODULE m VAR " + " ".join(f"z{i} : 0..0;" for i in range(20))
             + " a : boolean; b : boolean; c : {X, Y};"
             + " INVAR a -> b; TRANS next(c) = X -> next(a) & z0 = 0;")
    eng = Engine(tm)
    inits = eng.init_tuples()
    assert len(inits) == 6 and inits == _naive_inits(eng)
    for s in inits:
        assert eng.succ_tuples(s) == _naive_successors(eng, s)
    assert len(eng.succ_tuples(inits[0])) == 4


def test_layer_hooks_stay_on_the_class(monkeypatch):
    # perfbench/tracer.py wraps these methods on the class; an instance
    # attribute of the same name would bypass the wrapper
    for name in ("succ_tuples", "init_tuples", "reach_tuples"):
        assert inspect.isfunction(Engine.__dict__[name]), name
    calls = []
    for name in ("succ_tuples", "init_tuples"):
        orig = Engine.__dict__[name]
        monkeypatch.setattr(Engine, name, lambda self, *a, _o=orig, _n=name: calls.append(_n) or _o(self, *a))
    eng = Engine(_tm(COUNTER))
    assert len(eng.reachable_tuples()) == 4
    assert calls.count("init_tuples") == 1 and calls.count("succ_tuples") == 4
    assert not {"succ_tuples", "init_tuples", "reach_tuples"} & set(vars(eng))


def test_cap_of_one_call_does_not_stick():
    # a library call without a cap runs under the default one, whatever
    # cap an earlier call on the same model passed
    from mbsa.analysis import compute_mcs
    from conftest import FIXTURES, GOLDEN_MCS, build_extended, checked_expr

    xm = build_extended((FIXTURES / "battery_sensor.smx").read_text(),
                        (FIXTURES / "battery_sensor.fei").read_text())
    tle = checked_expr(xm, "sys_dead")
    with pytest.raises(ResourceCapError, match="exceeds cap 10$"):
        reach(xm.typed, tle, cap=10)
    assert set(compute_mcs(xm, tle, 2).mcs) == GOLDEN_MCS
    with pytest.raises(ResourceCapError, match="exceeds cap 10$"):
        reach(xm.typed, tle, cap=10)
