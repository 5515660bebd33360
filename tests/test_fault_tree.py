import itertools
import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction

import pytest

from mbsa.analysis import CutSequence, CutSetResult, compute_cut_sequences, compute_mcs
from mbsa.fault_tree import (
    BasicEvent,
    FaultTreeError,
    Gate,
    ProbabilityAssignment,
    build_fault_tree,
    evaluate_probability,
    export_ft,
    ft_from_xml,
    rare_event_approximation,
    symbolic_probability,
)
from mbsa.probability import PBin, pexpr_to_text, render_prob_script
from mbsa.sts.parse import parse_expr_text

from conftest import checked_expr
from probability_references import evaluate


def _result(mcs, tle="a"):
    sets = [frozenset(c) for c in mcs]
    return CutSetResult(parse_expr_text(tle), sorted(sets, key=lambda c: (len(c), tuple(sorted(c)))),
                        max_card=4, step_bound=None, complete=True)


def _pa(**probs):
    return ProbabilityAssignment({k: Fraction(v) for k, v in probs.items()})


def gate(ft, nid):
    node = ft.nodes[nid]
    assert isinstance(node, Gate)
    return node


# -- construction ----------------------------------------------------------------

def test_canonical_two_level_shape():
    ft = build_fault_tree(_result([{"fc"}, {"fa", "fb"}]))
    root = gate(ft, ft.root)
    assert root.kind == "or"
    kinds = []
    for child in root.children:
        node = ft.nodes[child]
        kinds.append(node.kind if isinstance(node, Gate) else "event")
    assert sorted(kinds) == ["and", "event"]


def test_empty_result_degenerate_tree():
    ft = build_fault_tree(_result([]))
    root = gate(ft, ft.root)
    assert root.kind == "or" and root.children == ()
    assert evaluate_probability(ft, _pa())[ft.root] == 0


def test_pand_from_unique_order(latch_model):
    xm = latch_model
    tle = checked_expr(xm, "armed & y")
    result = compute_mcs(xm, tle, 2)
    seqs = compute_cut_sequences(xm, tle, result)
    ft = build_fault_tree(result, seqs)
    (child,) = gate(ft, ft.root).children
    node = gate(ft, child)
    assert node.kind == "pand"
    assert node.children == ("fa", "fb")


def test_symmetric_orders_stay_and(redundant_pair):
    xm = redundant_pair
    tle = checked_expr(xm, "(a & b) | c")
    result = compute_mcs(xm, tle, 3)
    seqs = compute_cut_sequences(xm, tle, result)
    ft = build_fault_tree(result, seqs)
    kinds = {ft.nodes[c].kind for c in gate(ft, ft.root).children if isinstance(ft.nodes[c], Gate)}
    assert kinds == {"and"}  # no spurious PAND when every order is admissible


def test_partial_orders_become_or_of_pands():
    result = _result([{"fa", "fb", "fc"}])
    seqs = [CutSequence(frozenset({"fa", "fb", "fc"}),
                        (("fa", "fb", "fc"), ("fb", "fa", "fc")))]
    ft = build_fault_tree(result, seqs)
    (child,) = gate(ft, ft.root).children
    orgate = gate(ft, child)
    assert orgate.kind == "or" and len(orgate.children) == 2
    assert all(gate(ft, c).kind == "pand" for c in orgate.children)


def test_events_shared_across_gates():
    ft = build_fault_tree(_result([{"fa", "fb"}, {"fa", "fc"}]))
    assert isinstance(ft.nodes["fa"], BasicEvent)
    parents = [nid for nid, n in ft.nodes.items()
               if isinstance(n, Gate) and "fa" in n.children]
    assert len(parents) == 2  # shared leaf, DAG structure


def test_sequences_inconsistent_with_result():
    with pytest.raises(FaultTreeError):
        build_fault_tree(_result([{"fa"}]), [CutSequence(frozenset({"fb"}), (("fb",),))])


# -- probability -----------------------------------------------------------------

def test_or_two_events():
    ft = build_fault_tree(_result([{"a"}, {"b"}]))
    probs = evaluate_probability(ft, _pa(a="0.1", b="0.2"))
    assert probs[ft.root] == Fraction("0.28")  # 1 - 0.9*0.8


def test_and_two_events():
    ft = build_fault_tree(_result([{"a", "b"}]))
    probs = evaluate_probability(ft, _pa(a="0.1", b="0.1"))
    assert probs[ft.root] == Fraction("0.01")


def test_or_of_and_exact():
    ft = build_fault_tree(_result([{"fc"}, {"fa", "fb"}]))
    probs = evaluate_probability(ft, _pa(fa="0.1", fb="0.1", fc="0.1"))
    assert probs[ft.root] == Fraction("0.109")  # 1 - 0.9 * 0.99


def _holds(ft, nid, occurred, memo):
    """Two-valued gate evaluation once the set of occurred events is known."""
    if nid not in memo:
        node = ft.nodes[nid]
        if isinstance(node, BasicEvent):
            memo[nid] = nid in occurred
        elif node.kind == "or":
            memo[nid] = any(_holds(ft, c, occurred, memo) for c in node.children)
        else:  # and / pand: ordering never changes a probability
            memo[nid] = all(_holds(ft, c, occurred, memo) for c in node.children)
    return memo[nid]


def _node_oracle(ft, pa):
    """Probability of every node, by exhaustive enumeration over the
    indicators of the groups and of the events no group id names."""
    groups = sorted(pa.dependency_groups, key=lambda g: g.id)
    governed = {g.id for g in groups}
    indicators = [(g.id, Fraction(g.probability)) for g in groups]
    indicators += [(e, Fraction(pa.probabilities[e])) for e in sorted(ft.basic_events()) if e not in governed]
    totals = dict.fromkeys(ft.nodes, Fraction(0))

    def enumerate_from(i, occurred, weight):
        if weight == 0:
            return
        if i < len(indicators):
            name, p = indicators[i]
            enumerate_from(i + 1, occurred | {name}, weight * p)
            enumerate_from(i + 1, occurred, weight * (1 - p))
            return
        for g in groups:
            if g.id in occurred:
                occurred = occurred | g.members
        memo = {}
        for nid in ft.nodes:
            if _holds(ft, nid, occurred, memo):
                totals[nid] += weight

    enumerate_from(0, frozenset(), Fraction(1))
    return totals


def _indicator_oracle(ft, pa):
    return _node_oracle(ft, pa)[ft.root]


def test_indicator_enumeration_oracle_matches():
    ft = build_fault_tree(_result([{"fc"}, {"fa", "fb"}, {"fa", "fd", "fe"}]))
    pa = _pa(fa="0.3", fb="0.2", fc="0.05", fd="0.5", fe="0.9")
    assert evaluate_probability(ft, pa) == _node_oracle(ft, pa)


@dataclass(frozen=True)
class Group:
    id: str
    members: frozenset
    probability: Fraction


def _random_case(rng):
    """A random cut-set tree of at most 12 events (groups included), with AND,
    PAND and OR-of-PAND gates, and 0-3 dependency groups whose members may
    overlap; a group id is sometimes a basic event of the tree too."""
    group_ids = [f"g{i}" for i in range(rng.randint(0, 3))]
    plain = [f"e{i:02d}" for i in range(rng.randint(1, 12 - len(group_ids)))]
    pool = plain + [g for g in group_ids if rng.random() < 0.5]
    cuts = {frozenset(rng.sample(pool, rng.randint(1, min(4, len(pool))))) for _ in range(rng.randint(1, 7))}
    sequences = []
    for cut in cuts:
        orders = list(itertools.permutations(sorted(cut)))
        sequences.append(CutSequence(cut, tuple(rng.sample(orders, rng.randint(1, len(orders))))))
    ft = build_fault_tree(_result(cuts), sequences)
    events = sorted(e for e in ft.basic_events() if e not in group_ids)
    groups = [Group(g, frozenset(rng.sample(events, rng.randint(min(1, len(events)), min(3, len(events))))),
                    Fraction(rng.randint(0, 10), 10)) for g in group_ids]
    probs = {e: Fraction(rng.randint(0, 20), 20) for e in events}
    return ft, ProbabilityAssignment(probs, groups)


@pytest.mark.parametrize("seed", range(40))
def test_random_trees_match_enumeration(seed):
    rng = random.Random(seed)
    ft, pa = _random_case(rng)
    assert evaluate_probability(ft, pa) == _node_oracle(ft, pa)  # every node, not only the root
    sp = symbolic_probability(ft, pa.dependency_groups)
    for _ in range(3):
        env = {s: Fraction(rng.randint(0, 30), 30) for s in sp.symbols}
        groups = [Group(g.id, g.members, env[g.id]) for g in pa.dependency_groups]
        probs = {e: p for e, p in env.items() if e not in {g.id for g in groups}}
        assert evaluate(sp, env) == _indicator_oracle(ft, ProbabilityAssignment(probs, groups))


def test_disjoint_pairs_scale_linearly():
    k = 30
    pairs = [(f"e{i:02d}a", f"e{i:02d}b") for i in range(k)]  # adjacent in the sorted variable order
    probs = {e: Fraction(j + 1, 100 + i) for i, pair in enumerate(pairs) for j, e in enumerate(pair)}
    start = time.process_time()
    ft = build_fault_tree(_result([set(p) for p in pairs]))
    root = evaluate_probability(ft, ProbabilityAssignment(probs))[ft.root]
    sp = symbolic_probability(ft)
    elapsed = time.process_time() - start
    expected = 1 - math.prod((1 - probs[a] * probs[b] for a, b in pairs), start=Fraction(1))
    assert root == expected
    assert evaluate(sp, probs) == expected
    binary, stack = set(), [sp.root]
    while stack:
        n = stack.pop()
        if isinstance(n, PBin) and id(n) not in binary:
            binary.add(id(n))
            stack.extend((n.left, n.right))
    assert len(binary) <= 8 * k
    assert elapsed < 1.0


def test_deep_or_needs_no_recursion():
    # a root OR over 1,200 single-event cut sets: the BDD and the closed form
    # are 1,200 levels deep, beyond Python's recursion limit
    names = [f"e{i:04d}" for i in range(1200)]
    probs = {e: Fraction(1, 1000 + i) for i, e in enumerate(names)}
    start = time.process_time()
    ft = build_fault_tree(_result([{e} for e in names]))
    expected = 1 - math.prod((1 - p for p in probs.values()), start=Fraction(1))
    assert evaluate_probability(ft, ProbabilityAssignment(probs))[ft.root] == expected
    sp = symbolic_probability(ft)
    assert evaluate(sp, probs) == expected
    assert pexpr_to_text(sp).count("p_e") == 2 * 1200 - 1
    python = render_prob_script(sp, "python")
    env: dict = {}
    exec(python, env)
    assert env["tle_probability"](*(float(probs[e]) for e in sp.symbols)) == pytest.approx(float(expected))
    steps = [line.strip() for line in python.splitlines() if line.startswith("    t")]
    assert len(steps) == 3 * (1200 - 1)
    matlab = render_prob_script(sp, "matlab")
    assert [line.strip().rstrip(";") for line in matlab.splitlines() if line.startswith("  t")] == steps
    assert time.process_time() - start < 5.0


def test_node_probabilities_in_unit_interval_and_monotone():
    ft = build_fault_tree(_result([{"fa", "fb"}, {"fc"}]))
    base = {"fa": Fraction("0.3"), "fb": Fraction("0.4"), "fc": Fraction("0.2")}
    probs = evaluate_probability(ft, ProbabilityAssignment(dict(base)))
    for value in probs.values():
        assert 0 <= value <= 1
    for event in base:
        bumped = dict(base)
        bumped[event] = base[event] + Fraction("0.2")
        probs2 = evaluate_probability(ft, ProbabilityAssignment(bumped))
        assert probs2[ft.root] >= probs[ft.root]


def test_pand_probability_equals_and():
    # ordering affects structure only: evaluation ignores it (metamorphic)
    result = _result([{"fa", "fb"}])
    ft_pand = build_fault_tree(result, [CutSequence(frozenset({"fa", "fb"}), (("fa", "fb"),))])
    ft_and = build_fault_tree(result)
    pa = _pa(fa="0.25", fb="0.5")
    assert (evaluate_probability(ft_pand, pa)[ft_pand.root]
            == evaluate_probability(ft_and, pa)[ft_and.root])


def test_missing_probability():
    ft = build_fault_tree(_result([{"fa"}]))
    with pytest.raises(FaultTreeError):
        evaluate_probability(ft, _pa())


def test_probability_outside_unit_interval():
    ft = build_fault_tree(_result([{"fa"}]))
    with pytest.raises(FaultTreeError, match=r"^probability of 'fa' outside \[0,1\]$"):
        evaluate_probability(ft, _pa(fa="1.5"))


def test_rare_event_approximation_upper_bounds():
    ft = build_fault_tree(_result([{"fa"}, {"fb"}]))
    pa = _pa(fa="0.5", fb="0.5")
    exact = evaluate_probability(ft, pa)[ft.root]
    assert rare_event_approximation(ft, pa) == Fraction(1) >= exact


# -- symbolic -----------------------------------------------------------------------

def test_symbolic_single_event():
    ft = build_fault_tree(_result([{"a"}]))
    sp = symbolic_probability(ft)
    assert sp.symbols == ("a",)
    assert evaluate(sp, {"a": Fraction("0.37")}) == Fraction("0.37")


def test_symbolic_or_two_events():
    ft = build_fault_tree(_result([{"a"}, {"b"}]))
    sp = symbolic_probability(ft)
    for pa_val in (Fraction(0), Fraction(1, 3), Fraction(1)):
        for pb_val in (Fraction(0), Fraction(1, 2), Fraction(1)):
            expected = pa_val + pb_val - pa_val * pb_val
            assert evaluate(sp, {"a": pa_val, "b": pb_val}) == expected


@pytest.mark.parametrize("mcs", [
    [{"fc"}, {"fa", "fb"}],
    [{"a", "b"}, {"b", "c"}, {"c", "d"}],
    [{"a"}, {"b", "c", "d"}, {"a", "e"}],
])
def test_symbolic_grid_equivalence(mcs):
    ft = build_fault_tree(_result(mcs))
    sp = symbolic_probability(ft)
    grid = [Fraction(0), Fraction(1, 2), Fraction(1)]
    for combo in itertools.product(grid, repeat=len(sp.symbols)):
        env = dict(zip(sp.symbols, combo))
        assert evaluate(sp, env) == evaluate_probability(ft, ProbabilityAssignment(env))[ft.root]


def test_symbolic_dag_has_no_duplicate_subterms():
    ft = build_fault_tree(_result([{"a", "b"}, {"b", "c"}]))
    sp = symbolic_probability(ft)
    seen = {}
    stack = [sp.root]
    while stack:
        n = stack.pop()
        if isinstance(n, PBin):
            key = (n.op, id(n.left), id(n.right))
            assert seen.setdefault(key, n) is n
            stack.extend((n.left, n.right))


# -- export ---------------------------------------------------------------------------

def test_single_event_tree_has_two_tsv_rows():
    ft = build_fault_tree(_result([{"fa"}]), probabilities={"fa": Fraction("0.1")})
    rows = export_ft(ft, "tsv", with_probabilities=True).strip().split("\n")
    assert len(rows) == 2
    assert rows[0].startswith("#0\tor\tfa")
    assert rows[1] == "fa\tevent\t0.1\tfa"


@pytest.mark.parametrize("fmt", ["tsv", "xml"])
def test_export_with_probabilities_needs_every_probability(fmt):
    ft = build_fault_tree(_result([{"fa"}]))
    with pytest.raises(FaultTreeError, match="^basic event 'fa' has no probability to export$"):
        export_ft(ft, fmt, with_probabilities=True)


def test_xml_round_trip_fixpoint():
    ft = build_fault_tree(_result([{"fc"}, {"fa", "fb"}]), probabilities={
        "fa": Fraction("0.1"), "fb": Fraction("0.2"), "fc": Fraction("0.001")})
    xml = export_ft(ft, "xml", with_probabilities=True)
    again = export_ft(ft_from_xml(xml), "xml", with_probabilities=True)
    assert again == xml


def _xml(*elements: str) -> str:
    return '<fault-tree root="top">' + "".join(elements) + "</fault-tree>"


TOP = '<gate id="top" kind="or"><child ref="a"/></gate>'


def test_xml_child_without_ref_is_rejected():
    with pytest.raises(FaultTreeError, match="<child> lacks the attribute 'ref'"):
        ft_from_xml(_xml('<gate id="top" kind="or"><child/></gate>', '<basic-event id="a"/>'))


def test_xml_node_without_id_is_rejected():
    with pytest.raises(FaultTreeError, match="<basic-event> lacks the attribute 'id'"):
        ft_from_xml(_xml(TOP, '<basic-event id="a"/>', '<basic-event probability="0.1"/>'))


def test_xml_duplicate_node_is_rejected():
    with pytest.raises(FaultTreeError, match="duplicate node 'a'"):
        ft_from_xml(_xml(TOP, '<basic-event id="a" probability="0.1"/>', '<basic-event id="a" probability="0.9"/>'))


def test_xml_malformed_document_is_rejected():
    with pytest.raises(FaultTreeError, match="malformed XML: "):
        ft_from_xml(_xml(TOP, '<basic-event id="a">'))


def test_xml_malformed_probability_is_rejected():
    with pytest.raises(FaultTreeError, match="basic event 'a' has a malformed probability 'x'"):
        ft_from_xml(_xml(TOP, '<basic-event id="a" probability="x"/>'))


def test_xml_unknown_gate_element_is_rejected():
    with pytest.raises(FaultTreeError, match="unexpected element <kid> in gate 'top'"):
        ft_from_xml(_xml('<gate id="top" kind="or"><kid ref="a"/></gate>', '<basic-event id="a"/>'))


def test_xml_probability_outside_unit_interval_is_rejected():
    with pytest.raises(FaultTreeError, match=r"basic event 'a' has probability 2 outside \[0,1\]"):
        ft_from_xml(_xml(TOP, '<basic-event id="a" probability="2"/>'))


@pytest.mark.parametrize("xml, message", [
    ('<tree root="top"/>', "expected <fault-tree> document, found <tree>"),
    (_xml('<gate id="top" kind="or"/>', "<note/>"), "unexpected element <note> in fault tree"),
    (_xml('<gate id="top" kind="xor"/>'), "unknown gate kind 'xor'"),
    (_xml('<gate id="g" kind="or"/>'), "root node 'top' is not declared"),
    (_xml('<gate id="top" kind="or"><child ref="b"/></gate>'), "gate 'top' references undeclared child 'b'"),
], ids=["root-element", "top-level-element", "gate-kind", "undeclared-root", "undeclared-child"])
def test_xml_structure_errors_are_rejected(xml, message):
    with pytest.raises(FaultTreeError) as info:
        ft_from_xml(xml)
    assert str(info.value) == message


def test_xml_childless_gate_loads():
    # build_fault_tree writes one for the empty cut set and for a TLE without cut sets
    ft = ft_from_xml(_xml('<gate id="top" kind="or"/>'))
    assert ft.nodes["top"].children == ()


def test_dot_export_shapes(battery_sensor):
    xm = battery_sensor
    tle = checked_expr(xm, "sys_dead")
    result = compute_mcs(xm, tle, 4)
    ft = build_fault_tree(result, tle_label="system failure")
    dot = export_ft(ft, "dot")
    assert dot.count("shape=box") == 4  # one AND per cut set
    assert dot.count("shape=circle") == 4  # four distinct basic events
    assert dot.count("shape=ellipse") == 1  # the root OR


def test_unknown_format():
    ft = build_fault_tree(_result([{"fa"}]))
    with pytest.raises(FaultTreeError):
        export_ft(ft, "yaml")
