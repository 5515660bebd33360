"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned here.
"""

import itertools
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from mbsa.analysis import brute_force_mcs, compute_cut_sequences, compute_mcs, cutsets_to_tsv
from mbsa.cca import parse_cca
from mbsa.fault_tree import (
    Gate,
    ProbabilityAssignment,
    build_fault_tree,
    evaluate_probability,
    symbolic_probability,
)
from mbsa.fmea import generate_fmea
from mbsa.probability import render_prob_script
from mbsa.sts.engine import Engine, replay_ok
from mbsa.tfpg import (
    Tfpg,
    admits,
    parse_tfpg,
    synthesize_structure,
    tfpg_from_xml,
    tfpg_to_xml,
    validate_behavioral,
    write_tfpg,
)
from mbsa.tfpg.activation import activation_trace_of

from conftest import FIXTURES, GOLDEN_MCS, build_extended, checked_expr
from probability_references import evaluate
from random_models import random_extended_model
from test_fault_tree import _indicator_oracle


def _ok(criterion, detail):
    print(f"PASS criterion {criterion}: {detail}")


def test_criterion_01_mcs_oracle_equivalence():
    """>= 20 random extended models: compute_mcs == brute_force_mcs, < 60 s."""
    rng = random.Random(0)
    started = time.monotonic()
    checked = 0
    nonempty = 0
    for _ in range(20):
        xm, tle = random_extended_model(rng)
        n_events = len(xm.events)
        assert n_events <= 12
        assert len(Engine(xm.typed).reachable_tuples()) <= 10_000
        fast = compute_mcs(xm, tle, n_events)
        slow = brute_force_mcs(xm, tle, n_events)
        assert fast.as_sets() == slow.as_sets()
        assert fast.mcs == slow.mcs  # identical deterministic order too
        checked += 1
        nonempty += bool(fast.mcs)
    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"oracle equivalence took {elapsed:.1f}s"
    assert nonempty >= 5  # the generator must produce nontrivial cases
    _ok(1, f"{checked} random models, exact oracle agreement in {elapsed:.1f}s")


def test_criterion_02_fixture_mcs_golden(battery_sensor):
    """The battery-sensor fixture yields exactly the four golden cut sets."""
    xm = battery_sensor
    tle = checked_expr(xm, "sys_dead")
    oracle = brute_force_mcs(xm, tle, 4)
    assert oracle.as_sets() == GOLDEN_MCS
    golden = (FIXTURES / "battery_sensor.mcs.golden").read_text()
    assert cutsets_to_tsv(oracle) == golden
    assert compute_mcs(xm, tle, 4).as_sets() == oracle.as_sets()
    _ok(2, "golden cut sets confirmed by the brute-force oracle")


def test_criterion_03_probability_exactness():
    """Exact evaluation vs indicator enumeration; symbolic == numeric on the
    full {0, 1/2, 1}^n grid (rational arithmetic, no tolerance needed)."""
    from mbsa.analysis import CutSetResult
    from mbsa.sts.parse import parse_expr_text

    suites = [
        [{"a"}],
        [{"a"}, {"b"}],
        [{"a", "b"}],
        [{"c"}, {"a", "b"}],
        [{"a", "b"}, {"b", "c"}, {"c", "d"}],
        [{"a"}, {"b", "c", "d"}, {"a", "e"}, {"e", "f"}],
    ]
    rng = random.Random(3)
    for mcs in suites:
        sets = sorted((frozenset(c) for c in mcs), key=lambda c: (len(c), tuple(sorted(c))))
        ft = build_fault_tree(CutSetResult(parse_expr_text("x"), sets, 6, None, True))
        events = sorted(ft.basic_events())
        assert len(events) <= 6
        pa = ProbabilityAssignment(
            {e: Fraction(rng.randint(0, 100), 100) for e in events})
        assert evaluate_probability(ft, pa)[ft.root] == _indicator_oracle(ft, pa)
        sp = symbolic_probability(ft)
        for combo in itertools.product([Fraction(0), Fraction(1, 2), Fraction(1)],
                                       repeat=len(sp.symbols)):
            env = dict(zip(sp.symbols, combo))
            assert evaluate(sp, env) == evaluate_probability(ft, ProbabilityAssignment(env))[ft.root]
    _ok(3, f"{len(suites)} trees exact vs enumeration and on the full grid")


def test_criterion_04_script_emission(battery_sensor):
    """Emitted scripts reproduce evaluation within 1e-9 at 10 random vectors.

    The python dialect is executed out of band here; the matlab/octave
    dialect is emitted identically from the same template and is covered by
    the documented manual step (no octave in this environment)."""
    xm = battery_sensor
    ft = build_fault_tree(compute_mcs(xm, checked_expr(xm, "sys_dead"), 4))
    sp = symbolic_probability(ft)
    script = render_prob_script(sp, "python")
    rng = random.Random(0)
    for _ in range(10):
        vec = [rng.random() for _ in sp.symbols]
        expected = float(evaluate_probability(
            ft, ProbabilityAssignment({s: Fraction(v) for s, v in zip(sp.symbols, vec)}))[ft.root])
        out = subprocess.run([sys.executable, "-c", script, *map(str, vec)],
                             capture_output=True, text=True, check=True)
        assert abs(float(out.stdout.strip()) - expected) <= 1e-9
    assert "function p = tle_probability" in render_prob_script(sp, "matlab")
    _ok(4, "python script matches evaluation within 1e-9 at 10 vectors")


def test_criterion_05_cca_conditioning():
    """Simultaneous worked example evaluates to 0.0595 (tolerance 1e-12) and
    the common cause is a singleton minimal cut set."""
    smx = ("MODULE pair VAR a : boolean; b : boolean; INIT !a & !b; "
           "TRANS next(a) = a; TRANS next(b) = b;")
    fei = ("fault f1: target a, template stuck_at(TRUE), dynamics permanent, prob 0.1;"
           "fault f2: target b, template stuck_at(TRUE), dynamics permanent, prob 0.1;")
    xm = build_extended(smx, fei)
    from mbsa.cca import apply_cca
    specs = parse_cca("cc burst: members {f1, f2}, pattern simultaneous, prob 0.05;")
    ft = build_fault_tree(compute_mcs(xm, checked_expr(xm, "a & b"), 2))
    pa = ProbabilityAssignment({"f1": Fraction("0.1"), "f2": Fraction("0.1")}, specs)
    value = evaluate_probability(ft, pa)[ft.root]
    assert abs(value - Fraction("0.0595")) <= Fraction(1, 10**12)
    woven = apply_cca(xm, specs)
    result = compute_mcs(woven, checked_expr(woven, "a & b"), 3)
    assert frozenset({"burst"}) in result.as_sets()
    _ok(5, f"conditioned probability {float(value)} with singleton cc cut set")


def test_criterion_06_dft_ordering(latch_model, redundant_pair):
    """The latch fixture yields a PAND with its unique order; the symmetric
    fixture stays a plain AND."""
    tle = checked_expr(latch_model, "armed & y")
    result = compute_mcs(latch_model, tle, 2)
    seqs = compute_cut_sequences(latch_model, tle, result)
    ft = build_fault_tree(result, seqs)
    (child,) = ft.nodes[ft.root].children
    assert isinstance(ft.nodes[child], Gate)
    assert ft.nodes[child].kind == "pand"
    assert ft.nodes[child].children == ("fa", "fb")

    tle2 = checked_expr(redundant_pair, "(a & b) | c")
    result2 = compute_mcs(redundant_pair, tle2, 3)
    ft2 = build_fault_tree(result2, compute_cut_sequences(redundant_pair, tle2, result2))
    kinds = {ft2.nodes[c].kind for c in ft2.nodes[ft2.root].children
             if isinstance(ft2.nodes[c], Gate)}
    assert kinds == {"and"}
    _ok(6, "unique order gives PAND, symmetric orders stay AND")


def test_criterion_07_fmea_fta_consistency(redundant_pair, latch_model, battery_sensor):
    """Per property, the FMEA rows minimal for it equal compute_mcs."""
    suite = [
        (redundant_pair, [("TLE", "(a & b) | c"), ("a_out", "a")], 3),
        (latch_model, [("TLE", "armed & y")], 2),
        (battery_sensor, [("dead", "sys_dead"), ("s1_lost", "!s1_out")], 2),
    ]
    checked = 0
    for xm, props, card in suite:
        properties = [(label, checked_expr(xm, text)) for label, text in props]
        table = generate_fmea(xm, properties, card)
        for label, expr in properties:
            violating = [row.faults for row in table.rows if label in row.violated]
            minimal = {c for c in violating if not any(o < c for o in violating)}
            assert minimal == compute_mcs(xm, expr, card).as_sets(), label
            checked += 1
    _ok(7, f"{checked} properties: FMEA minimal rows equal minimal cut sets")


def test_criterion_08_tfpg_golden_fixture(battery_tfpg, battery_binding, battery_sensor):
    """Round trips are byte-stable; the fixture validates complete at bound
    60; deleting B1_DEAD -> S2_NO flips the verdict with a replayable
    counterexample."""
    text = (FIXTURES / "battery_sensor.tfpg").read_text()
    assert write_tfpg(parse_tfpg(text)) == text
    assert write_tfpg(tfpg_from_xml(tfpg_to_xml(parse_tfpg(text)))) == text

    report = validate_behavioral(battery_tfpg, battery_binding, battery_sensor, step_bound=60)
    assert report.complete

    mutated = Tfpg(battery_tfpg.modes, dict(battery_tfpg.nodes),
                   tuple(e for e in battery_tfpg.edges
                         if not (e.src == "B1_DEAD" and e.dst == "S2_NO")))
    broken = validate_behavioral(mutated, battery_binding, battery_sensor, step_bound=60)
    assert broken.verdict == "incomplete"
    trace, inc = broken.counterexamples[0]
    assert replay_ok(battery_sensor.typed, trace)
    at = activation_trace_of(trace, battery_binding, battery_sensor)
    assert not admits(mutated, at).ok
    _ok(8, f"complete at bound 60; deletion breaks {inc.node} ({inc.reason})")


def test_criterion_09_tfpg_synthesis(battery_tfpg, battery_binding, battery_sensor):
    """Structure synthesis recovers exactly the fixture's 14 edges."""
    synthesized = synthesize_structure(battery_sensor, battery_binding, step_bound=60)
    expected = {(e.src, e.dst) for e in battery_tfpg.edges}
    assert {(e.src, e.dst) for e in synthesized.edges} == expected
    assert len(synthesized.edges) == 14
    _ok(9, "synthesized edge set equals the golden 14 edges")


def test_criterion_10_cli_determinism(tmp_path):
    """Two runs of every CLI command on the fixture suite are byte-identical."""
    model = str(FIXTURES / "battery_sensor.smx")
    fei = str(FIXTURES / "battery_sensor.fei")
    tfpg = str(FIXTURES / "battery_sensor.tfpg")
    bind = str(FIXTURES / "battery_sensor.bind")
    props = tmp_path / "props.txt"
    props.write_text("dead : sys_dead;\n")

    def commands(out: Path):
        common = ["--model", model, "--fei", fei, "--out-dir", str(out)]
        return [
            ["extend", *common],
            ["mcs", *common, "--tle", "sys_dead", "--formats", "tsv,xml"],
            ["ft", *common, "--tle", "sys_dead", "--formats", "xml,tsv,dot",
             "--with-probabilities"],
            ["ftprob", *common, "--tle", "sys_dead"],
            ["fmea", *common, "--props", str(props), "--formats", "tsv,xml", "--max-card", "2"],
            ["tfpg", "check", *common, "--tfpg", tfpg, "--bind", bind, "--step-bound", "60"],
            ["tfpg", "convert", tfpg, str(out / "converted.xml")],
            ["tfpg", "synth", *common, "--bind", bind, "--step-bound", "60",
             "--outfile", str(out / "synth.tfpg")],
        ]

    outputs = []
    for run_dir in ("one", "two"):
        out = tmp_path / run_dir
        out.mkdir()
        for argv in commands(out):
            proc = subprocess.run([sys.executable, "-m", "mbsa.cli", *argv],
                                  capture_output=True, text=True)
            assert proc.returncode == 0, (argv, proc.stderr)
        outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert outputs[0].keys() == outputs[1].keys()
    for name in outputs[0]:
        assert outputs[0][name] == outputs[1][name], f"artifact {name} differs between runs"
    _ok(10, f"{len(outputs[0])} artifacts byte-identical across runs")
