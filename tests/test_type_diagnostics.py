"""Diagnostics of the type checker, pinned against a golden.

Each case is one ill-typed (or borderline) input: a top-level event checked
against the extended fixture, a property file line, or a model whose sections
do not type-check.  It runs through the CLI (exit code and stderr lines) and
through the library (exception class and positioned diagnostics); both must
match ``goldens/type_diagnostics.json``.  A case that the checker accepts
records exit 0 and no error.
"""

import json
from pathlib import Path

import pytest

from mbsa.cli import build_parser, main
from mbsa.diagnostics import InputError
from mbsa.sts.check import type_check
from mbsa.sts.parse import parse_expr_text, parse_model

from conftest import FIXTURES, build_extended

MODEL = str(FIXTURES / "battery_sensor.smx")
FEI = str(FIXTURES / "battery_sensor.fei")
GOLDEN = Path(__file__).resolve().parent / "goldens" / "type_diagnostics.json"


def _fixture_model():
    return build_extended(Path(MODEL).read_text(), Path(FEI).read_text())


def _tle(text, _):
    _fixture_model().typed.check_predicate(parse_expr_text(text, "<tle>"), filename="<tle>")


def _props(_, path):
    # the props reader lives in the fmea command; run the command without main's handlers
    args = build_parser().parse_args(KINDS["props"][1](path))
    args.func(args)


def _model(text, path):
    type_check(parse_model(text, path), path)


# kind -> (file name or None, CLI argv for the case's text or file, library check of (text, file name))
KINDS = {
    "tle": (None, lambda text: ["mcs", "--model", MODEL, "--fei", FEI, "--tle", text, "--out-dir", "out"], _tle),
    "props": ("bad.props", lambda f: ["fmea", "--model", MODEL, "--fei", FEI, "--props", f, "--out-dir", "out"],
              _props),
    "smx": ("bad.smx", lambda f: ["extend", "--model", f, "--out-dir", "out"], _model),
}

# two enumerations sharing the literal X
ENUMS = "MODULE m\nVAR a : {X, Y};\n  b : {X, Z};\n  n : 0..3;\n  p : boolean;\n"

CASES = {
    "tle_not": ("tle", "!b1"),
    "tle_negate": ("tle", "-gen1 > 0"),
    "tle_and": ("tle", "gen1 & b1"),
    "tle_or": ("tle", "b1 | (mode | gen2)"),
    "tle_implies": ("tle", "b1 -> b2"),
    "tle_iff": ("tle", "1 <-> gen1"),
    "tle_less": ("tle", "gen1 < 3"),
    "tle_less_equal": ("tle", "b1 <= mode"),
    "tle_greater": ("tle", "TRUE > FALSE"),
    "tle_greater_equal": ("tle", "b1 >= s1"),
    "tle_plus": ("tle", "gen1 + 1 > 0"),
    "tle_minus": ("tle", "b1 - TRUE > mode - 1"),
    "tle_equal_bool_int": ("tle", "gen1 = 3"),
    "tle_not_equal_enum_int": ("tle", "mode != 3"),
    "tle_equal_other_enum": ("tle", "mode = nominal"),
    "tle_equal_literal_left": ("tle", "P = b1"),
    "tle_equal_unknown_literal": ("tle", "mode = Q"),
    "tle_not_boolean": ("tle", "b1 + b2"),
    "tle_unknown": ("tle", "gen3 & gen1"),
    "tle_next": ("tle", "next(gen1)"),
    "tle_in_mismatch": ("tle", "mode in {P, 3}"),
    "tle_in_variable": ("tle", "b1 in {b2, 1}"),
    "tle_in_not_literal": ("tle", "b1 in {(1 + 1), 2}"),
    "tle_ite_condition": ("tle", "b1 ? gen1 : gen2"),
    "tle_ite_branches": ("tle", "TRUE ? gen1 : b1"),
    "tle_ite_then_enum": ("tle", "(TRUE ? mode : (1 + TRUE)) = P"),
    "tle_ite_else_enum": ("tle", "(TRUE ? b1 : (!b1 ? mode : mode)) > 0"),
    "tle_ite_literals": ("tle", "(gen1 ? S1 : S2) = b1"),
    "props_not_boolean": ("props", "low : b1;\n"),
    "props_operands": ("props", "dead : sys_dead;\n  both : b1 & (b2 < gen1);\n"),
    "smx_init": ("smx", ENUMS + "INIT n;\n"),
    "smx_invar": ("smx", ENUMS + "INVAR a;\n"),
    "smx_trans": ("smx", ENUMS + "TRANS next(n) + 1;\n"),
    "smx_sections": ("smx", ENUMS + "INIT n;\nTRANS p + 1 > 0;\nINVAR a;\nTRANS b;\n"),
    "smx_next_in_init": ("smx", ENUMS + "INIT next(p);\n"),
    "smx_next_of_define": ("smx", ENUMS + "DEFINE d := !p;\nTRANS next(d);\n"),
    "smx_next_unknown": ("smx", ENUMS + "TRANS next(q);\n"),
    "smx_define_body": ("smx", ENUMS + "DEFINE d := n & p;\n  e := d | a;\nINIT e;\n"),
    "smx_define_cycle": ("smx", ENUMS + "DEFINE d := e | n > 1;\n  e := !d;\n"),
    "smx_literal_clash": ("smx", "MODULE m\nVAR X : boolean;\n  a : {X, Y};\n"),
    "smx_ambiguous_literal": ("smx", ENUMS + "INVAR X = X;\n"),
    "smx_literal_resolved_left": ("smx", ENUMS + "INVAR X = b;\nINVAR a = X;\nINVAR Y != a;\n"),
    "smx_ambiguous_in_ite": ("smx", ENUMS + "INVAR (p ? X : Z) = a;\n"),
    "smx_ambiguous_alone": ("smx", ENUMS + "INVAR X;\n"),
    "smx_set_literals": ("smx", ENUMS + "INVAR a in {X, Y};\nINVAR b in {X, Y};\nINVAR a in {p};\n"),
    "smx_ite_enum_duplicate": ("smx", ENUMS + "INVAR (p ? a : (n + p)) = X;\n"),
    "smx_ite_int_ranges": ("smx", ENUMS + "INVAR (p ? n : 7) > (p ? 1 : b);\n"),
}


def observe(case: str, directory: Path, capsys) -> dict:
    """What the CLI and the library report for one case, run in ``directory``."""
    kind, text = CASES[case]
    name, argv, check = KINDS[kind]
    if name is not None:
        (directory / name).write_text(text)
    capsys.readouterr()
    code = main(argv(name or text))
    stderr = capsys.readouterr().err.splitlines()
    try:
        check(text, name)
    except InputError as exc:
        error = type(exc).__name__
        diagnostics = [[d.message, d.line, d.col] for d in exc.diagnostics]
    else:
        error, diagnostics = None, []
    return {"exit": code, "stderr": stderr, "error": error, "diagnostics": diagnostics}


@pytest.mark.parametrize("case", sorted(CASES))
def test_type_diagnostic_matches_golden(case, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert observe(case, tmp_path, capsys) == json.loads(GOLDEN.read_text())[case]


def test_golden_covers_every_case():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(CASES)
