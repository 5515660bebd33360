"""Diagnostics of the seven input readers, pinned against a golden.

Each case is one input file in one language ("extension" is the fault
extension of an FEI file against a fixed model, "weave" the common causes of a
CCA file woven into that model extended by a fixed FEI file).  It runs through
the CLI (exit code and stderr lines) and through the reader's library function
(exception class and positioned diagnostics); both must match
``goldens/reader_diagnostics.json``.  A case that the reader accepts records
exit 0 and no error.
"""

import json
from pathlib import Path

import pytest

from mbsa.cca import apply_cca, parse_cca
from mbsa.cli import build_parser, main
from mbsa.diagnostics import InputError
from mbsa.faults import load_fault_library, parse_fei
from mbsa.sts.parse import parse_model
from mbsa.tfpg import parse_binding, parse_tfpg

from conftest import FIXTURES, build_extended

MODEL = str(FIXTURES / "battery_sensor.smx")
FEI = str(FIXTURES / "battery_sensor.fei")
TFPG = str(FIXTURES / "battery_sensor.tfpg")
GOLDEN = Path(__file__).resolve().parent / "goldens" / "reader_diagnostics.json"


def _fixture_model():
    return build_extended(Path(MODEL).read_text(), Path(FEI).read_text())


# the model of the "extension" and "weave" cases, written next to each case
# file: it already declares the mode variable that a fault named e would add
# and the latch that a common cause named c1 would add
CLASH_SMX = "MODULE m\nVAR\n  x : boolean;\n  y : boolean;\n  mode#e : boolean;\n  cc#c1 : boolean;\n"
# the fault extension of the "weave" cases, written next to each case file
CLASH_FEI = ("fault fx: target x, template stuck_at(TRUE), dynamics permanent, prob 0.1;\n"
             "fault fy: target y, template stuck_at(TRUE), dynamics permanent, prob 0.1;\n")


def _props(text, path):
    # the props reader lives in the fmea command; run the command without main's handlers
    args = build_parser().parse_args(LANGUAGES["props"][1](path))
    args.func(args)


# language -> (file name, CLI argv for that file, library reader of (text, file name))
LANGUAGES = {
    "fei": ("bad.fei", lambda f: ["extend", "--model", MODEL, "--fei", f, "--out-dir", "out"], parse_fei),
    "extension": ("bad.fei", lambda f: ["extend", "--model", "clash.smx", "--fei", f, "--out-dir", "out"],
                  lambda text, f: build_extended(CLASH_SMX, text)),
    "weave": ("bad.cca", lambda f: ["extend", "--model", "clash.smx", "--fei", "clash.fei", "--cca", f,
                                    "--out-dir", "out"],
              lambda text, f: apply_cca(build_extended(CLASH_SMX, CLASH_FEI), parse_cca(text, f))),
    "cca": ("bad.cca", lambda f: ["extend", "--model", MODEL, "--fei", FEI, "--cca", f, "--out-dir", "out"],
            parse_cca),
    "tfpg": ("bad.tfpg", lambda f: ["tfpg", "convert", f, "out.tfpg"], parse_tfpg),
    "bind": ("bad.bind", lambda f: ["tfpg", "check", "--model", MODEL, "--fei", FEI, "--tfpg", TFPG,
                                    "--bind", f, "--out-dir", "out"],
             lambda text, f: parse_binding(text, _fixture_model(), f)),
    "smx": ("bad.smx", lambda f: ["extend", "--model", f, "--out-dir", "out"], parse_model),
    "flib": ("bad.flib", lambda f: ["extend", "--model", MODEL, "--flib", f, "--fei", FEI, "--out-dir", "out"],
             load_fault_library),
    "props": ("bad.props", lambda f: ["fmea", "--model", MODEL, "--fei", FEI, "--props", f, "--out-dir", "out"],
              _props),
}

FAULT = "fault G1_Off: target gen1, template stuck_at(FALSE), dynamics permanent, prob 0.001;\n"
CC = "cc c1: members {G1_Off, G2_Off}, pattern "
GRAPH = "modes P, S;\nfailure F;\nor D;\n"

CASES = {
    "fei_prob_not_literal": ("fei", FAULT + "fault G2_Off: target gen2, template stuck_at(FALSE),\n"
                                           "  dynamics permanent, prob x;\n"),
    "fei_prob_outside": ("fei", FAULT + "fault G2_Off: target gen2, template stuck_at(FALSE), "
                                       "dynamics permanent, prob 2;\n"),
    "fei_prob_scientific": ("fei", "fault G2_Off: target gen2, template stuck_at(FALSE), "
                                   "dynamics permanent, prob 1e-3;\n"),
    "fei_duplicate_event": ("fei", FAULT + FAULT.replace("gen1", "gen2")),
    "fei_missing_word": ("fei", "fault G1_Off: gen1;\n"),
    "extension_mode_variable_declared": ("extension", "fault e: target x, template stuck_at(TRUE), "
                                                      "dynamics permanent, prob 0.1;\n"),
    "cca_prob_not_literal": ("cca", CC + "simultaneous,\n  prob x;\n"),
    "cca_prob_outside": ("cca", CC + "simultaneous, prob 1.5;\n"),
    "cca_window_lower": ("cca", CC + "cascading (G1_Off: [x,2]), prob 0.1;\n"),
    "cca_window_upper": ("cca", CC + "cascading (G1_Off: [1,\n  x]), prob 0.1;\n"),
    "cca_window_reversed": ("cca", CC + "cascading (G1_Off: [0,1], G2_Off: [3,1]), prob 0.1;\n"),
    "cca_window_non_member": ("cca", CC + "cascading (S1_Off: [0,1]), prob 0.1;\n"),
    "cca_window_repeated": ("cca", CC + "cascading (G2_Off: [2,3],\n  G2_Off: [0,1]), prob 0.1;\n"),
    "cca_unknown_pattern": ("cca", CC + "burst, prob 0.1;\n"),
    "cca_duplicate_id": ("cca", CC + "simultaneous, prob 0.1;\n"
                                + CC.replace("G1", "S1") + "simultaneous, prob 0.1;\n"),
    "cca_duplicate_member": ("cca", "cc c1: members {G1_Off, G1_Off}, pattern simultaneous, prob 0.1;\n"),
    "cca_one_member": ("cca", "\ncc c1: members {G1_Off}, pattern simultaneous, prob 0.1;\n"),
    "weave_latch_declared": ("weave", "cc c1: members {fx, fy}, pattern simultaneous, prob 0.1;\n"),
    "tfpg_tmin": ("tfpg", GRAPH + "edge F -> D [x,1] {*};\n"),
    "tfpg_tmax": ("tfpg", GRAPH + "edge F -> D [0,\n  x] {*};\n"),
    "tfpg_inf": ("tfpg", GRAPH + "edge F -> D [0,inf] {P};\n"),
    "tfpg_duplicate_node": ("tfpg", GRAPH + "and F;\n"),
    "tfpg_unknown_word": ("tfpg", GRAPH + "node X;\n"),
    "tfpg_duplicate_mode": ("tfpg", "modes P, P;\nfailure F;\n"),
    "bind_duplicate_node": ("bind", "failure G1_Off : G1_Off;\nor G1_Off : !gen1;\n"),
    "bind_unknown_event": ("bind", "failure G1_Off : G9_Off;\n"),
    "bind_duplicate_mode": ("bind", "mode P : mode = P;\n  mode P : mode = S1;\n"),
    "bind_unknown_word": ("bind", "mode P : mode = P;\nnode X : TRUE;\n"),
    "smx_bad_bound": ("smx", "MODULE m\nVAR x : 0..y;\n"),
    "smx_empty_range": ("smx", "MODULE m\nVAR x : 5..-1;\n"),
    "smx_duplicate": ("smx", "MODULE m\nVAR x : boolean;\nDEFINE\n  x := TRUE;\n"),
    "smx_unknown_section": ("smx", "MODULE m\nVAR x : boolean;\n  TRUE;\n"),
    "smx_assign_section": ("smx", "MODULE m\nVAR x : boolean;\nASSIGN x := TRUE;\n"),
    "smx_duplicate_literal": ("smx", "MODULE m\nVAR x : {a, b, a};\n"),
    "flib_missing_for": ("flib", "template t(v : value) int := v;\n"),
    "flib_bad_applicability": ("flib", "template t for real := nominal;\n"),
    "flib_for_boolean": ("flib", "template t for boolean := !nominal;\n"),
    "flib_redefine_template": ("flib", "dynamics d := TRUE;\ntemplate stuck_at(v : value) for any := v;\n"),
    "flib_redefine_dynamics": ("flib", "dynamics permanent := TRUE;\n"),
    "flib_dynamics_name": ("flib", "dynamics d := mode = faulty -> next(mode) = broken;\n"),
    "flib_dynamics_next": ("flib", "dynamics d :=\n  next(nominal) = faulty;\n"),
    "flib_dynamics_not_boolean": ("flib", "dynamics d := mode;\n"),
    "flib_next_in_effect": ("flib", "template t for any := next(nominal);\n"),
    "flib_duplicate_parameter": ("flib", "template t(a : value, a : expr) for any := a;\n"),
    "flib_parameter_kind": ("flib", "template t(a : int) for any := a;\n"),
    "flib_unknown_word": ("flib", "macro m;\n"),
    "props_empty_label": ("props", "-- labels\n\n  : sys_dead;\n"),
    "props_duplicate_label": ("props", "dead : sys_dead;\n  dead : b1 <= 5;\n"),
    "props_missing_colon": ("props", "dead : sys_dead;\nlow b1 <= 5;\n"),
}


def observe(case: str, directory: Path, capsys) -> dict:
    """What the CLI and the library report for one case, run in ``directory``."""
    language, text = CASES[case]
    name, argv, read = LANGUAGES[language]
    (directory / name).write_text(text)
    (directory / "clash.smx").write_text(CLASH_SMX)
    (directory / "clash.fei").write_text(CLASH_FEI)
    capsys.readouterr()
    code = main(argv(name))
    stderr = capsys.readouterr().err.splitlines()
    try:
        read(text, name)
    except InputError as exc:
        error = type(exc).__name__
        diagnostics = [[d.message, d.line, d.col] for d in exc.diagnostics]
    else:
        error, diagnostics = None, []
    return {"exit": code, "stderr": stderr, "error": error, "diagnostics": diagnostics}


@pytest.mark.parametrize("case", sorted(CASES))
def test_reader_diagnostic_matches_golden(case, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert observe(case, tmp_path, capsys) == json.loads(GOLDEN.read_text())[case]


def test_golden_covers_every_case():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(CASES)
