"""Minimal cut sets, cut sequences, and (dynamic) fault trees.

Run from the repository root: python demos/demo_cutsets_fault_tree.py
"""

from pathlib import Path

from mbsa.analysis import compute_cut_sequences, compute_mcs, witness
from mbsa.fault_tree import (
    ProbabilityAssignment,
    build_fault_tree,
    evaluate_probability,
    export_ft,
    rare_event_approximation,
    symbolic_probability,
)
from mbsa.faults import extend_model, load_fault_library, parse_fei
from mbsa.probability import pexpr_to_text, render_prob_script
from mbsa.sts import parse_expr_text, parse_model, type_check

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

nominal = type_check(parse_model((FIXTURES / "battery_sensor.smx").read_text()))
xm = extend_model(nominal, load_fault_library(),
                  parse_fei((FIXTURES / "battery_sensor.fei").read_text()))
tle = parse_expr_text("sys_dead")
xm.typed.check_expr(tle)

print("=== minimal cut sets for sys_dead ===")
result = compute_mcs(xm, tle, max_card=4)
for cut in result.mcs:
    print("  {" + ", ".join(sorted(cut)) + "}")
print("complete:", result.complete)

trace = witness(xm, result.mcs[0], tle)
print(f"replayable witness for the first cut set: {len(trace)} states")

print("\n=== fault tree ===")
probabilities = {name: info.probability for name, info in xm.events.items()}
sequences = compute_cut_sequences(xm, tle, result)
ft = build_fault_tree(result, sequences, tle_label="system failure",
                      probabilities=probabilities)
print(export_ft(ft, "tsv", with_probabilities=True))

print("=== probabilities ===")
pa = ProbabilityAssignment(probabilities)
node_probs = evaluate_probability(ft, pa)
print("P(system failure) =", float(node_probs[ft.root]))
print("rare-event sum    =", float(rare_event_approximation(ft, pa)), "(reference)")

sp = symbolic_probability(ft)
print("\nclosed form over", ", ".join(sp.symbols))
print(" ", pexpr_to_text(sp))
print("\ngenerated python evaluator:")
print("\n".join(render_prob_script(sp, "python").splitlines()[2:12]))
