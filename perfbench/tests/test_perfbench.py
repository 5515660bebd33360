"""Tests of the benchmark itself: generators, output checks, span arithmetic.

Run with ``python -m pytest perfbench/tests``.
"""

import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import oracles
import tracer
import trees_job
import workloads

BENCH = Path(__file__).resolve().parent.parent


def _tree(tmp_path: Path, pairs: int = 3, groups: int = 1):
    spec = workloads.generate_tree(5, tmp_path / "in", pairs, groups)
    out = tmp_path / "out"
    assert trees_job.main(["ftprob", str(tmp_path / "in"), str(out)]) == 0
    return spec, {e: Fraction(p) for e, p in spec.probs.items()}, out


def _files(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_generators_are_deterministic_per_seed(tmp_path):
    for name, gen in (("voter", lambda s, d: workloads.generate_voter(s, d)),
                      ("tree", lambda s, d: workloads.generate_tree(s, d, 6, groups=2))):
        gen(3, tmp_path / f"{name}-a")
        gen(3, tmp_path / f"{name}-b")
        gen(4, tmp_path / f"{name}-c")
        a, b, c = (_files(tmp_path / f"{name}-{x}") for x in "abc")
        assert a == b
        assert a != c
        # the seed never changes the sizes
        assert {k: v.count(b"\n") for k, v in a.items()} == {k: v.count(b"\n") for k, v in c.items()}


def test_voter_closed_form():
    covers = {f"f{i}": frozenset({i}) for i in range(4)}
    assert oracles.threshold_cut_sets(covers, 3, 4) == {
        frozenset(c) for c in (("f0", "f1", "f2"), ("f0", "f1", "f3"), ("f0", "f2", "f3"), ("f1", "f2", "f3"))}
    covers["cc"] = frozenset({0, 1})
    assert frozenset({"cc", "f2"}) in oracles.threshold_cut_sets(covers, 3, 4)


def test_mcs_check_rejects_a_removed_cut_set(tmp_path):
    expected = {frozenset({"a", "b"}), frozenset({"c"})}
    tsv = "c\na\tb\n"
    xml = '<cut-sets><cut-set><event name="c" /></cut-set><cut-set><event name="a" /><event name="b" /></cut-set></cut-sets>\n'
    (tmp_path / "mcs.tsv").write_text(tsv)
    (tmp_path / "mcs.xml").write_text(xml)
    assert oracles.check_mcs(tmp_path, expected) == []
    (tmp_path / "mcs.tsv").write_text("c\n")
    assert oracles.check_mcs(tmp_path, expected) == ["mcs.tsv: missing {a, b}"]


def test_probability_check_rejects_an_off_by_one_billionth_root(tmp_path):
    spec, probs, out = _tree(tmp_path)
    assert oracles.check_pair_tree(out, spec.pairs, probs, spec.groups) == []
    table = out / "ft_probabilities.tsv"
    lines = table.read_text().splitlines()
    root, _, value = lines[0].partition("\t")
    assert root == "#0"
    off = Fraction(value) + Fraction(1, 10**9)
    table.write_text("\n".join([f"#0\t{off}"] + lines[1:]) + "\n")
    problems = oracles.check_pair_tree(out, spec.pairs, probs, spec.groups)
    assert problems and problems[0].startswith("root probability")


def test_script_check_rejects_a_wrong_function(tmp_path):
    spec, probs, out = _tree(tmp_path)
    root, _ = oracles.pair_tree_probabilities(spec.pairs, probs, spec.groups)
    script = out / "tle_probability.py"
    assert oracles.check_script(script, probs, root) == []
    script.write_text(script.read_text().replace("    return ", "    return 1e-9 + ", 1))
    assert oracles.check_script(script, probs, root) != []


def test_enumeration_conditions_on_groups():
    # one group forcing both events of the only cut set: P = q + (1 - q) * pa * pb
    pa, pb, q = Fraction(1, 10), Fraction(1, 5), Fraction(1, 100)
    top = lambda true: {"a", "b"} <= true  # noqa: E731
    got = oracles.union_probability({"a": pa, "b": pb}, {"g": (q, ("a", "b"))}, top)
    assert got == q + (1 - q) * pa * pb


def test_digest_check_rejects_a_changed_byte(tmp_path):
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "a.txt").write_bytes(b"abc")
    (tmp_path / "b.txt").write_bytes(b"xyz")
    first = oracles.digests(tmp_path)
    assert oracles.compare_digests(first, oracles.digests(tmp_path)) == []
    (tmp_path / "sub" / "a.txt").write_bytes(b"abd")
    assert oracles.compare_digests(first, oracles.digests(tmp_path)) == [
        "artifact sub/a.txt differs between repetitions"]


def test_fmea_check_rejects_a_missing_row(tmp_path):
    mcs = {"p": {frozenset({"a"})}, "q": {frozenset({"a", "b"})}}
    (tmp_path / "fmea.tsv").write_text("faults\tviolated\na\tp\na,b\tp,q\n")
    assert oracles.check_fmea(tmp_path, mcs, dynamic=False) == []
    (tmp_path / "fmea.tsv").write_text("faults\tviolated\na\tp\n")
    assert oracles.check_fmea(tmp_path, mcs, dynamic=False) != []


def _span(i, name, start, end, parent):
    return {"id": i, "name": name, "start": start, "end": end, "parent": parent, "job": "j"}


def test_self_times_on_a_hand_built_tree():
    spans = [
        _span(0, "job", 0.0, 10.0, None),
        _span(1, "a", 1.0, 4.0, 0),
        _span(2, "d", 2.0, 3.0, 1),
        _span(3, "b", 5.0, 9.0, 0),
        _span(4, "c", 6.0, 7.0, 3),
    ]
    assert tracer.self_times(spans) == [3.0, 2.0, 1.0, 3.0, 1.0]
    assert sum(tracer.self_times(spans)) == 10.0


def test_self_times_count_overlapping_children_once():
    spans = [_span(0, "job", 0.0, 10.0, None), _span(1, "x", 1.0, 5.0, 0), _span(2, "y", 3.0, 8.0, 0)]
    assert tracer.self_times(spans)[0] == 3.0


def test_layer_totals_do_not_count_nested_spans_twice():
    spans = [
        _span(0, "job", 0.0, 10.0, None),
        _span(1, "fault_tree.rare_event_approximation", 1.0, 6.0, 0),
        _span(2, "fault_tree.evaluate_probability", 2.0, 5.0, 1),
        _span(3, "fault_tree.evaluate_probability", 6.0, 8.0, 0),
    ]
    layers = tracer.job_layers({"spans": spans, "counts": {}})
    assert layers["fault_tree.evaluate_probability.calls"] == 2
    assert layers["fault_tree.evaluate_probability.s"] == 5.0
    assert layers["fault_tree.rare_event_approximation.self_s"] == 2.0
    assert layers["trace.self_sum_s"] == layers["trace.root_s"] == 10.0


def test_traced_job_covers_every_binding(tmp_path):
    workloads.generate_tree(2, tmp_path / "in", 3, groups=1)
    spans = tmp_path / "spans.json"
    env = {"PYTHONPATH": str(BENCH.parent / "src")}
    proc = subprocess.run([sys.executable, str(BENCH / "tracer.py"), str(spans), "t", "trees",
                           "ftprob", str(tmp_path / "in"), str(tmp_path / "out")],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    data = json.loads(spans.read_text())
    layers = tracer.job_layers(data)
    # trees_job binds these names itself; both calls must still be spans
    assert layers["fault_tree.evaluate_probability.calls"] == 2
    assert data["counts"]["fault_tree.nodes"] == 1 + 3 + 6 + 1  # root, AND gates, events, group
    assert abs(layers["trace.self_sum_s"] - layers["trace.root_s"]) < 1e-6
