"""FMEA tables and common cause analysis on a redundant pair.

Run from the repository root: python demos/demo_fmea_cca.py
"""

from fractions import Fraction

from mbsa.analysis import compute_mcs
from mbsa.cca import apply_cca, parse_cca
from mbsa.fault_tree import ProbabilityAssignment, build_fault_tree, evaluate_probability
from mbsa.faults import extend_model, load_fault_library, parse_fei
from mbsa.fmea import export_fmea, generate_dynamic_fmea, generate_fmea
from mbsa.sts import parse_expr_text, parse_model, type_check

MODEL = """MODULE pair
VAR a : boolean; b : boolean;
INIT !a & !b;
TRANS next(a) = a;
TRANS next(b) = b;
"""

FEI = """
fault f1: target a, template stuck_at(TRUE), dynamics permanent, prob 0.1;
fault f2: target b, template stuck_at(TRUE), dynamics permanent, prob 0.1;
"""

xm = extend_model(type_check(parse_model(MODEL)), load_fault_library(), parse_fei(FEI))


def prop(text):
    e = parse_expr_text(text)
    xm.typed.check_expr(e)
    return e


print("=== FMEA: fault sets vs violated properties ===")
properties = [("both_lost", prop("a & b")), ("a_lost", prop("a"))]
table = generate_fmea(xm, properties, max_card=2)
print(export_fmea(table, "tsv"))

print("=== dynamic FMEA: admissible orders per row ===")
dynamic = generate_dynamic_fmea(xm, [("both_lost", prop("a & b"))], max_card=2)
print(export_fmea(dynamic, "tsv"))

print("=== common cause analysis ===")
specs = parse_cca("cc burst: members {f1, f2}, pattern simultaneous, prob 0.05;")
woven = apply_cca(xm, specs)
result = compute_mcs(woven, prop("a & b"), max_card=3)
print("cut sets over the enlarged alphabet:")
for cut in result.mcs:
    print("  {" + ", ".join(sorted(cut)) + "}")

ft = build_fault_tree(compute_mcs(xm, prop("a & b"), 2))
independent = evaluate_probability(
    ft, ProbabilityAssignment({"f1": Fraction("0.1"), "f2": Fraction("0.1")}))[ft.root]
conditioned = evaluate_probability(
    ft, ProbabilityAssignment({"f1": Fraction("0.1"), "f2": Fraction("0.1")}, specs))[ft.root]
print(f"\nP(both fail) independent:        {float(independent)}")
print(f"P(both fail) with common cause:  {float(conditioned)}")
print("(= 0.05 * 1 + 0.95 * 0.01: conditioning on the cause's occurrence)")
