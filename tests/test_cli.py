import gc
import json
from pathlib import Path

import pytest

import mbsa
from mbsa.cli import main

from conftest import FIXTURES, _refute_tfpg, fresh_python
from layers import loaded

MODEL = str(FIXTURES / "battery_sensor.smx")
FEI = str(FIXTURES / "battery_sensor.fei")
TFPG = str(FIXTURES / "battery_sensor.tfpg")
BIND = str(FIXTURES / "battery_sensor.bind")
# ftprob artifacts recorded before the probability core became a BDD, but
# for the fixture's text, recorded again when shared subterms got names; tfpg
# artifacts recorded before validation and synthesis shared one product
# search; mcs, ft --dynamic and fmea --dynamic artifacts recorded before
# reachability and cut sequences shared one breadth-first search; static
# fmea, ftprob --cca --dynamic and fmea --dynamic --cca artifacts recorded
# before restrictions became mask tests over per-state fault labels; extend
# artifacts recorded before model extension had one expression rewriter
GOLDENS = Path(__file__).resolve().parent / "goldens"
PROPS = str(GOLDENS / "fixture.props")
PAIR = ("--model", str(GOLDENS / "pair.smx"), "--fei", str(GOLDENS / "pair.fei"),
        "--cca", str(GOLDENS / "burst.cca"))
PAIR_PROPS = str(GOLDENS / "pair.props")
WEAVE = ("--model", str(GOLDENS / "weave.smx"), "--flib", str(GOLDENS / "weave.flib"),
         "--fei", str(GOLDENS / "weave.fei"), "--cca", str(GOLDENS / "weave.cca"))


def run(*argv):
    return main(list(argv))


def test_extend_writes_model_and_registry(tmp_path):
    assert run("extend", "--model", MODEL, "--fei", FEI, "--out-dir", str(tmp_path)) == 0
    extended = (tmp_path / "battery_sensor_extended.smx").read_text()
    assert "mode#G1_Off" in extended
    registry = json.loads((tmp_path / "battery_sensor_events.json").read_text())
    assert [e["name"] for e in registry["events"]] == ["G1_Off", "G2_Off", "S1_Off", "S2_Off"]


def test_extend_with_empty_fei_is_identity(tmp_path):
    fei = tmp_path / "empty.fei"
    fei.write_text("")
    assert run("extend", "--model", MODEL, "--fei", str(fei), "--out-dir", str(tmp_path)) == 0
    from mbsa.sts.parse import parse_model
    extended = parse_model((tmp_path / "battery_sensor_extended.smx").read_text())
    assert extended == parse_model(Path(MODEL).read_text())


def test_missing_file_exits_2(tmp_path, capsys):
    assert run("extend", "--model", "nosuch.smx", "--fei", FEI, "--out-dir", str(tmp_path)) == 2
    assert "not found" in capsys.readouterr().err


def test_bad_model_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.smx"
    bad.write_text("MODULE m VAR x boolean;")
    assert run("extend", "--model", str(bad), "--fei", FEI, "--out-dir", str(tmp_path)) == 2
    err = capsys.readouterr().err
    assert "bad.smx:1:" in err


def test_mcs_outputs(tmp_path):
    assert run("mcs", "--model", MODEL, "--fei", FEI, "--tle", "sys_dead",
               "--formats", "tsv,xml", "--out-dir", str(tmp_path)) == 0
    tsv = (tmp_path / "mcs.tsv").read_text()
    assert tsv == "G1_Off\tG2_Off\nG1_Off\tS2_Off\nG2_Off\tS1_Off\nS1_Off\tS2_Off\n"
    assert "<cut-sets" in (tmp_path / "mcs.xml").read_text()


def test_mcs_redundant_pair_two_cut_sets(tmp_path):
    model = tmp_path / "rp.smx"
    fei = tmp_path / "rp.fei"
    from conftest import REDUNDANT_PAIR_SMX, REDUNDANT_PAIR_FEI
    model.write_text(REDUNDANT_PAIR_SMX)
    fei.write_text(REDUNDANT_PAIR_FEI)
    assert run("mcs", "--model", str(model), "--fei", str(fei),
               "--tle", "(a & b) | c", "--out-dir", str(tmp_path)) == 0
    assert (tmp_path / "mcs.tsv").read_text().splitlines() == ["fc", "fa\tfb"]


def test_ft_and_ftprob(tmp_path):
    assert run("ft", "--model", MODEL, "--fei", FEI, "--tle", "sys_dead",
               "--formats", "xml,tsv,dot", "--out-dir", str(tmp_path)) == 0
    for name in ("ft.ftx", "ft.fttsv", "ft.dot"):
        assert (tmp_path / name).is_file()
    assert run("ftprob", "--model", MODEL, "--fei", FEI, "--tle", "sys_dead",
               "--out-dir", str(tmp_path)) == 0
    probs = dict(line.split("\t") for line in
                 (tmp_path / "ft_probabilities.tsv").read_text().splitlines())
    assert probs["G1_Off"] == "0.001"
    assert "rare-event-sum" in probs
    assert (tmp_path / "tle_probability.py").is_file()
    assert (tmp_path / "tle_probability.m").is_file()


@pytest.mark.parametrize("dynamic", [(), ("--dynamic",)])
def test_tle_reachable_with_no_faults_has_probability_one(tmp_path, capsys, dynamic):
    # the empty cut set used to be left out of the tree: a root OR with no
    # children, so every probability artifact read 0, and no warning
    assert run("ftprob", *dynamic, "--model", MODEL, "--fei", FEI, "--tle", "TRUE", "--out-dir", str(tmp_path)) == 0
    assert capsys.readouterr().err == "warning: top-level event is reachable with no faults\n"
    assert (tmp_path / "ft_probabilities.tsv").read_text() == "#0\t1\n#1\t1\nrare-event-sum\t1\n"
    assert (tmp_path / "tle_probability.txt").read_text() == "symbols:\n1\n"
    script = {}
    exec((tmp_path / "tle_probability.py").read_text(), script)
    assert script["tle_probability"]() == 1
    assert "  p = 1;\n" in (tmp_path / "tle_probability.m").read_text()
    assert run("ft", *dynamic, "--model", MODEL, "--fei", FEI, "--tle", "b1 >= 0", "--formats", "tsv",
               "--out-dir", str(tmp_path)) == 0
    assert capsys.readouterr().err == "warning: top-level event is reachable with no faults\n"
    assert (tmp_path / "ft.fttsv").read_text() == "#0\tor\t#1\tb1 >= 0\n#1\tand\t\tcut set {}\n"


def test_fmea_command(tmp_path):
    props = tmp_path / "props.txt"
    props.write_text("dead : sys_dead;\ns1_lost : !s1_out;\n")
    assert run("fmea", "--model", MODEL, "--fei", FEI, "--props", str(props),
               "--formats", "tsv,xml", "--out-dir", str(tmp_path)) == 0
    tsv = (tmp_path / "fmea.tsv").read_text()
    assert tsv.startswith("faults\tviolated\n")
    assert "G1_Off\ts1_lost" in tsv


def test_tfpg_check_complete(tmp_path):
    assert run("tfpg", "check", "--model", MODEL, "--fei", FEI, "--tfpg", TFPG,
               "--bind", BIND, "--step-bound", "60", "--out-dir", str(tmp_path)) == 0
    assert (tmp_path / "tfpg_check.txt").read_text() == "complete\n"


def test_tfpg_check_incomplete_exits_1(tmp_path, capsys):
    code = run("tfpg", "check", "--model", MODEL, "--fei", FEI, "--tfpg", _refute_tfpg(tmp_path),
               "--bind", BIND, "--step-bound", "60", "--out-dir", str(tmp_path))
    assert code == 1
    assert "incomplete" in capsys.readouterr().err
    assert (tmp_path / "tfpg_counterexample.trace").is_file()
    header = (tmp_path / "tfpg_counterexample.trace").read_text().splitlines()[0]
    assert header.startswith("step\t")


@pytest.mark.parametrize("golden, graph, code", [
    ("tfpg_check", lambda tmp: TFPG, 0),
    ("tfpg_refute", _refute_tfpg, 1),
])
def test_tfpg_check_artifacts_match_goldens(tmp_path, golden, graph, code):
    out = tmp_path / "out"
    assert run("tfpg", "check", "--model", MODEL, "--fei", FEI, "--tfpg", graph(tmp_path),
               "--bind", BIND, "--step-bound", "60", "--out-dir", str(out)) == code
    expected = sorted(p.name for p in (GOLDENS / golden).iterdir())
    assert sorted(p.name for p in out.iterdir()) == expected
    for name in expected:
        assert (out / name).read_bytes() == (GOLDENS / golden / name).read_bytes(), name


@pytest.mark.parametrize("old, new, message", [
    ('tmin="5"', 'tmin="5.5"', "edge B1_LOW->B1_DEAD has a non-integer bound in [5.5,10]"),
    ('tmax="10"', 'tmax="1e1"', "edge B1_LOW->B1_DEAD has a non-integer bound in [5,1e1]"),
    ('<failure id="G1_Off" />', '<failure id="G1_Off" /><discrepancy id="G1_Off" semantics="or" />',
     "duplicate node 'G1_Off'"),
    # a missing attribute was read as "", 0, inf or all modes
    ('<mode name="S1" />', '<mode />', "<mode> lacks the attribute 'name'"),
    ('<failure id="G1_Off" />', '<failure />', "<failure> lacks the attribute 'id'"),
    *((f' {a}="{v}"', "", f"<edge> lacks the attribute {a!r}")
      for a, v in (("src", "B1_DEAD"), ("dst", "S1_NO"), ("tmin", "0"), ("tmax", "1"), ("modes", "P S1"))),
    ('<mode name="P" />', '<mode name=P />', "malformed XML: not well-formed (invalid token): line 3, column 15"),
    ("<tfpg>", '<tfpg xmlns="urn:x">', "expected <tfpg> document, found <{urn:x}tfpg>"),
    ('semantics="and"', 'semantics="xor"', "discrepancy 'Sys_DEAD' has unknown semantics 'xor'"),
    ('<failure id="G1_Off" />', '<sensor id="G1_Off" />', "unexpected node element <sensor>"),
    ('tmin="5"', 'tmin="-1"', "edge B1_LOW->B1_DEAD has negative tmin"),
    ('modes="*"', 'modes=""', "edge G1_Off->G1_DEAD has an empty mode set"),
    # an element the format does not have was read as a mode or an edge, or ignored
    ('<mode name="S1" />', '<bogus name="S1" />', "unexpected element <bogus> in <modes>"),
    ("<edge ", "<junk ", "unexpected element <junk> in <edges>"),
    ("<nodes>", "<extra /><nodes>", "unexpected element <extra> in <tfpg>"),
    ("<nodes>", "<modes /><nodes>", "unexpected element <modes> in <tfpg>"),
    # an attribute the format does not have was ignored
    ('tmin="5"', 'tmin="5" tmn="3"', "unexpected attribute 'tmn' on <edge>"),
    ('<mode name="S1" />', '<mode name="S1" label="standby" />', "unexpected attribute 'label' on <mode>"),
    ('<failure id="G1_Off" />', '<failure id="G1_Off" probability="0.1" />',
     "unexpected attribute 'probability' on <failure>"),
    ('semantics="and"', 'semantics="and" kind="and"', "unexpected attribute 'kind' on <discrepancy>"),
    ("<edges>", '<edges count="14">', "unexpected attribute 'count' on <edges>"),
    ("<tfpg>", '<tfpg version="2">', "unexpected attribute 'version' on <tfpg>"),
], ids=["tmin", "tmax", "duplicate-node", "mode-name", "node-id", "src", "dst", "edge-tmin", "edge-tmax", "modes",
        "malformed", "root-element", "semantics", "node-element", "negative-tmin", "empty-modes",
        "modes-element", "edges-element", "tfpg-element", "repeated-section",
        "edge-attribute", "mode-attribute", "failure-attribute", "discrepancy-attribute", "edges-attribute",
        "tfpg-attribute"])
@pytest.mark.parametrize("command", [("convert",), ("check", "--model", MODEL, "--fei", FEI, "--bind", BIND)],
                         ids=["convert", "check"])
def test_bad_tfpg_xml_exits_2(tmp_path, capsys, old, new, message, command):
    # a non-integer bound ended in a ValueError traceback; a repeated node id
    # silently replaced the earlier node
    xml = tmp_path / "g.xml"
    assert run("tfpg", "convert", TFPG, str(xml)) == 0
    xml.write_text(xml.read_text().replace(old, new, 1))
    capsys.readouterr()
    if command[0] == "convert":
        argv = ("convert", str(xml), str(tmp_path / "g.tfpg"))
    else:
        argv = (*command, "--tfpg", str(xml), "--out-dir", str(tmp_path / "out"))
    assert run("tfpg", *argv) == 2
    assert capsys.readouterr().err == f"{xml}:0:0: error: {message}\n"


def test_random_on_an_unbounded_define_exits_2(tmp_path, capsys):
    # random made a choice variable of abstract integer type: a TypeError traceback
    (tmp_path / "m.smx").write_text("MODULE m VAR x : 0..5; DEFINE d := x + 1; INIT x = 0; TRANS next(x) = x;")
    (tmp_path / "m.fei").write_text("fault b: target d, template random, dynamics permanent, prob 0.1;")
    assert run("extend", "--model", str(tmp_path / "m.smx"), "--fei", str(tmp_path / "m.fei"),
               "--out-dir", str(tmp_path)) == 2
    assert capsys.readouterr().err == (f"{tmp_path / 'm.fei'}:1:7: error: random needs a target with a "
                                       "finite domain; 'd' has type integer (event b)\n")


@pytest.mark.parametrize("template, flib, message", [
    ("stuck_at(3)", "", "template 'stuck_at' gives integer for 'x' of type boolean"),
    ("bump", "template bump() for any := nominal + 1;", "template 'bump' gives integer for 'x' of type boolean"),
    ("bad", "template bad() for boolean := nominal & 3;",
     "template 'bad': operand of & must be boolean, got integer"),
], ids=["builtin", "user", "ill-typed"])
def test_mistyped_template_effect_is_reported_at_its_instruction(tmp_path, capsys, template, flib, message):
    # each was reported at <input>:0:0 and at the model's TRANS
    (tmp_path / "m.smx").write_text("MODULE m VAR x : boolean; INIT !x; TRANS next(x) = x;")
    (tmp_path / "m.flib").write_text(flib)
    (tmp_path / "m.fei").write_text(f"fault e0: target x, template {template}, dynamics permanent, prob 0.1;")
    assert run("extend", "--model", str(tmp_path / "m.smx"), "--flib", str(tmp_path / "m.flib"),
               "--fei", str(tmp_path / "m.fei"), "--out-dir", str(tmp_path)) == 2
    assert capsys.readouterr().err == f"{tmp_path / 'm.fei'}:1:7: error: {message} (event e0)\n"


def test_ill_typed_dynamics_is_reported_in_the_library(tmp_path, capsys):
    # it was reported at the instruction, as a type error of its template
    (tmp_path / "m.smx").write_text("MODULE m VAR x : boolean; INIT !x; TRANS next(x) = x;")
    (tmp_path / "m.flib").write_text("dynamics bad := mode;\n")
    (tmp_path / "m.fei").write_text("fault e: target x, template stuck_at(FALSE), dynamics bad, prob 0.1;")
    assert run("extend", "--model", str(tmp_path / "m.smx"), "--flib", str(tmp_path / "m.flib"),
               "--fei", str(tmp_path / "m.fei"), "--out-dir", str(tmp_path)) == 2
    assert capsys.readouterr().err == (f"{tmp_path / 'm.flib'}:1:17: error: "
                                       "TRANS constraint must be boolean, got {nominal, faulty}\n")


@pytest.mark.parametrize("fei, cca, where, message", [
    ("fault e1: target z, template inverted, dynamics permanent, prob 0.1;", "", "fei:2:7",
     "unknown extension target 'z' (event e1)"),
    ("fault e1: target y, template invert, dynamics permanent, prob 0.1;", "", "fei:2:7",
     "unknown fault template 'invert' (event e1)"),
    ("fault e1: target y, template inverted, dynamics forever, prob 0.1;", "", "fei:2:7",
     "unknown dynamics 'forever' (event e1)"),
    ("fault e1: target y, template stuck_at, dynamics permanent, prob 0.1;", "", "fei:2:7",
     "template 'stuck_at' takes 1 argument(s), got 0 (event e1)"),
    (None, "cc c2: members {e8, e7}, pattern simultaneous, prob 0.1;", "cca:2:4",
     "common cause 'c2' references unknown event 'e7'"),
    (None, "cc c2: members {e1, e0}, pattern simultaneous, prob 0.1;", "cca:2:4",
     "event 'e0' is governed by both 'c1' and 'c2'; overlapping common causes are rejected"),
    ("fault e1: target y, template stuck_at(!x), dynamics permanent, prob 0.1;", "", "fei:2:7",
     "argument for value parameter 'v' must be a literal (event e1)"),
    ("fault e1: target n, template ramp_down(0), dynamics permanent, prob 0.1;", "", "fei:2:7",
     "ramp_down step must be a positive integer (event e1)"),
    (None, "cc e1: members {e8, e9}, pattern simultaneous, prob 0.1;", "cca:2:4",
     "common cause id 'e1' clashes with a registered event"),
], ids=["target", "template", "dynamics", "arguments", "member", "overlap", "value-argument", "ramp-step",
        "cause-id"])
def test_extension_and_weaving_errors_give_the_instruction_position(tmp_path, capsys, fei, cca, where, message):
    # each was reported at <input>:0:0
    (tmp_path / "m.smx").write_text("MODULE m VAR x : boolean; y : boolean; n : 0..3; INIT !x & !y; "
                                    "TRANS next(x) = x & next(y) = y;")
    (tmp_path / "m.fei").write_text("fault e0: target x, template inverted, dynamics permanent, prob 0.1;\n"
                                    + (fei or "fault e1: target y, template inverted, dynamics permanent, prob 0.1;"))
    (tmp_path / "m.cca").write_text(f"cc c1: members {{e0, e1}}, pattern simultaneous, prob 0.1;\n{cca}")
    argv = ["--model", str(tmp_path / "m.smx"), "--fei", str(tmp_path / "m.fei"), "--out-dir", str(tmp_path)]
    assert run("extend", *argv, *(("--cca", str(tmp_path / "m.cca")) if cca else ())) == 2
    assert capsys.readouterr().err == f"{tmp_path / 'm'}.{where}: error: {message}\n"


def test_tfpg_synth_matches_golden(tmp_path):
    out = tmp_path / "synth.tfpg"
    assert run("tfpg", "synth", "--model", MODEL, "--fei", FEI, "--bind", BIND,
               "--step-bound", "60", "--outfile", str(out)) == 0
    assert out.read_bytes() == (GOLDENS / "tfpg_synth" / "synth.tfpg").read_bytes()


def test_tfpg_check_catches_violation_while_model_stutters(tmp_path, capsys):
    # after F the model repeats its state forever, and B must follow F within
    # one step but never activates: the deadline passes on a self-loop
    m = tmp_path / "m"
    Path(f"{m}.smx").write_text(
        "MODULE m\nVAR x : boolean;\nDEFINE never := x & !x;\nINIT x;\nTRANS next(x) = x;\n")
    Path(f"{m}.fei").write_text(
        "fault F: target x, template stuck_at(FALSE), dynamics permanent, prob 0.001;\n")
    Path(f"{m}.tfpg").write_text("modes M;\nfailure F;\nor B;\nedge F -> B [0,1] {*};\n")
    Path(f"{m}.bind").write_text("failure F : F;\nor B : never;\nmode M : TRUE;\n")
    assert run("tfpg", "check", "--model", f"{m}.smx", "--fei", f"{m}.fei", "--tfpg", f"{m}.tfpg",
               "--bind", f"{m}.bind", "--step-bound", "0", "--out-dir", str(tmp_path)) == 1
    assert "incomplete: B too-late at step 3" in capsys.readouterr().err
    assert (tmp_path / "tfpg_check.txt").read_text() == "incomplete\tB\ttoo-late\tstep 3\n"
    assert (tmp_path / "tfpg_counterexample.trace").read_text() == (
        "step\tx#nominal\tmode#F\n0\tTrue\tnominal\n1\tTrue\tfaulty\n"
        "2\tFalse\tfaulty\n3\tFalse\tfaulty\n")


def _edited_bind(tmp_path, old, new):
    """The fixture binding with one line replaced."""
    text = Path(BIND).read_text()
    assert old in text
    path = tmp_path / "edited.bind"
    path.write_text(text.replace(old, new))
    return str(path)


def _non_boolean(tmp_path, kind):
    """A run whose predicate of ``kind`` is an integer, and where its
    diagnostic points."""
    m = ("--model", MODEL, "--fei", FEI)
    out = ("--out-dir", str(tmp_path))
    if kind in ("b1 - 12", "b1"):
        return ("mcs", *m, "--tle", kind, *out), "<tle>:1:4:" if kind == "b1 - 12" else "<tle>:1:1:"
    if kind == "property":
        props = tmp_path / "p.props"
        props.write_text("dead : sys_dead;\nlvl : b1 - 12;\n")
        return ("fmea", *m, "--props", str(props), *out), f"{props}:2:10:"
    if kind == "activation":
        bind = _edited_bind(tmp_path, "or B1_LOW : b1 <= 5;", "or B1_LOW : b1;")
        return ("tfpg", "check", *m, "--tfpg", TFPG, "--bind", bind, *out), f"{bind}:8:13:"
    bind = _edited_bind(tmp_path, "mode S1 : mode = S1;", "mode S1 : b2;")
    return ("tfpg", "synth", *m, "--bind", bind, "--outfile", str(tmp_path / "s.tfpg")), f"{bind}:16:11:"


@pytest.mark.parametrize("kind", ["b1 - 12", "b1", "property", "activation", "mode"])
def test_non_boolean_predicate_exits_2(tmp_path, capsys, kind):
    # an integer used to be read by its truthiness: a cut set, a nominal
    # warning, an FMEA row or a TFPG verdict for a predicate that is none
    argv, where = _non_boolean(tmp_path, kind)
    assert run(*argv) == 2
    assert f"{where} error: predicate must be boolean, got " in capsys.readouterr().err
    assert not list(tmp_path.glob("*.tsv")) and not list(tmp_path.glob("*.t*fpg*"))


@pytest.mark.parametrize("text, where, message", [
    ("a : sys_dead;\n  a : b1 < 3;\n", "2:3", "duplicate property label 'a'"),
    ("dead : sys_dead;\n : sys_dead;\n", "2:2", "empty property label"),
    ("dead : sys_dead;\nlow :\tb1 < 3 &\n", "2:15", "expected expression, found '<end of input>'"),
    ("dead : sys_dead; -- note\nlow : b1 < 3;; -- twice\n", "2:14", "trailing input after expression: ';'"),
    ("dead,low : sys_dead;\nlow : b1 < 3;\n", "1:5", "expected ':' after property label 'dead', found ','"),
    ("dead : sys_dead;\nb1 low : b1 < 3;\n", "2:4", "expected ':' after property label 'b1', found 'low'"),
    ("dead\tlow : sys_dead;\n", "1:6", "expected ':' after property label 'dead', found 'low'"),
])
def test_bad_property_file_exits_2(tmp_path, capsys, text, where, message):
    # a repeated label used to give rows violating "a,a", an empty one rows
    # with an empty cell, a label with a comma the cell "dead,low,low"; an
    # expression's diagnostic gives its place in the file
    props = tmp_path / "p.props"
    props.write_text(text)
    assert run("fmea", "--model", MODEL, "--fei", FEI, "--props", str(props), "--out-dir", str(tmp_path)) == 2
    assert capsys.readouterr().err == f"{props}:{where}: error: {message}\n"
    assert [p.name for p in tmp_path.iterdir()] == ["p.props"]


def test_property_line_with_trailing_comment(tmp_path):
    # the ';' before a comment used to be trailing input (exit 2)
    plain, commented = tmp_path / "plain.props", tmp_path / "commented.props"
    plain.write_text("dead : sys_dead;\nlow : b1 < 3\n")
    commented.write_text("dead : sys_dead; -- note\nlow : b1 < 3 -- no ';'\n")
    for props in (plain, commented):
        assert run("fmea", "--model", MODEL, "--fei", FEI, "--props", str(props), "--formats", "tsv,xml",
                   "--out-dir", str(tmp_path / props.stem)) == 0
    for name in ("fmea.tsv", "fmea.xml"):
        assert (tmp_path / "commented" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()


@pytest.mark.parametrize("command", ["check", "synth"])
@pytest.mark.parametrize("old, new, held", [
    ("mode S1 : mode = S1;", "mode S1 : mode != S2;", "['P', 'S1']"),  # overlapping
    ("mode S2 : mode = S2;", "mode S2 : mode = S2 & gen1;", "[]"),  # a reachable state has none
])
def test_mode_binding_not_exactly_one_exits_2(tmp_path, capsys, command, old, new, held):
    bind = _edited_bind(tmp_path, old, new)
    argv = {"check": ("--tfpg", TFPG, "--out-dir", str(tmp_path)),
            "synth": ("--outfile", str(tmp_path / "s.tfpg"))}[command]
    assert run("tfpg", command, "--model", MODEL, "--fei", FEI, "--bind", bind,
               "--step-bound", "60", *argv) == 2
    assert capsys.readouterr().err == (
        f"mode predicates must hold for exactly one literal per state; got {held}\n")
    assert [p.name for p in tmp_path.iterdir()] == ["edited.bind"]


def test_file_system_error_exits_2(tmp_path, capsys):
    # an artifact that cannot be written is an input error, not a traceback
    # (exit 1 is the verdict of an incomplete graph); a file stands where
    # the artifact's directory would be made
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert run("tfpg", "convert", TFPG, str(blocker / "x" / "g.xml")) == 2
    assert capsys.readouterr().err == f"{blocker / 'x'}:0:0: error: Not a directory\n"
    assert run("mcs", "--model", MODEL, "--fei", FEI, "--tle", "sys_dead", "--out-dir", str(blocker / "x")) == 2
    assert capsys.readouterr().err.startswith(f"{blocker / 'x'}:0:0: error: ")


@pytest.mark.parametrize("formats", ["", " , "])
def test_empty_format_list_exits_2(tmp_path, capsys, formats):
    assert run("mcs", "--model", MODEL, "--fei", FEI, "--tle", "sys_dead", "--formats", formats,
               "--out-dir", str(tmp_path)) == 2
    assert capsys.readouterr().err == "<input>:0:0: error: no format given (expected one or more of tsv, xml)\n"
    assert not list(tmp_path.iterdir())


def test_unknown_format_exits_2(tmp_path, capsys):
    assert run("mcs", "--model", MODEL, "--fei", FEI, "--tle", "sys_dead", "--formats", "tsv,bogus",
               "--out-dir", str(tmp_path)) == 2
    assert capsys.readouterr().err == "<input>:0:0: error: unknown format 'bogus' (expected one of tsv, xml)\n"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command, formats, written", [
    (("mcs", "--tle", "sys_dead"), "tsv,xml,tsv", ["mcs.tsv", "mcs.xml"]),
    (("ft", "--tle", "sys_dead"), "dot,xml,dot", ["ft.dot", "ft.ftx"]),
    (("fmea", "--props", PROPS), "xml,xml", ["fmea.xml"]),
], ids=["mcs", "ft", "fmea"])
def test_a_repeated_format_is_written_once(tmp_path, capsys, command, formats, written):
    # each artifact was written, and its path printed, once per mention
    assert run(*command, "--model", MODEL, "--fei", FEI, "--formats", formats, "--out-dir", str(tmp_path)) == 0
    assert capsys.readouterr().out == "".join(f"{tmp_path / name}\n" for name in written)


@pytest.mark.parametrize("command, message", [
    ("mcs", "a top-level event is required (--tle)"),
    ("fmea", "a property file is required (--props)"),
])
def test_missing_required_input_exits_2(tmp_path, capsys, command, message):
    assert run(command, "--model", MODEL, "--fei", FEI, "--out-dir", str(tmp_path)) == 2
    assert capsys.readouterr().err == f"<input>:0:0: error: {message}\n"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("old, new, message", [
    ("failure G1_Off : G1_Off;", "or G1_Off : !gen1;", "node 'G1_Off' bound as 'or' but declared 'failure'"),
    ("mode S2 : mode = S2;", "", "mode 'S2' has no binding"),
], ids=["kind", "mode"])
def test_binding_not_total_exits_2(tmp_path, capsys, old, new, message):
    bind = _edited_bind(tmp_path, old, new)
    assert run("tfpg", "check", "--model", MODEL, "--fei", FEI, "--tfpg", TFPG, "--bind", bind,
               "--out-dir", str(tmp_path / "out")) == 2
    assert capsys.readouterr().err == f"<input>:0:0: error: {message}\n"
    assert not (tmp_path / "out").exists()


def test_tfpg_convert_round_trip(tmp_path):
    xml = tmp_path / "g.xml"
    back = tmp_path / "g.tfpg"
    assert run("tfpg", "convert", TFPG, str(xml)) == 0
    assert run("tfpg", "convert", str(xml), str(back)) == 0
    assert back.read_text() == Path(TFPG).read_text()


def test_tfpg_convert_dot(tmp_path):
    out = tmp_path / "g.dot"
    assert run("tfpg", "convert", TFPG, str(out)) == 0
    assert out.read_text().startswith("digraph tfpg")


def test_tfpg_synth(tmp_path):
    out = tmp_path / "synth.tfpg"
    assert run("tfpg", "synth", "--model", MODEL, "--fei", FEI, "--bind", BIND,
               "--step-bound", "60", "--outfile", str(out)) == 0
    from mbsa.tfpg import parse_tfpg
    g = parse_tfpg(out.read_text())
    assert len(g.edges) == 14


def test_config_file_defaults_and_flag_override(tmp_path):
    config = tmp_path / "run.conf"
    config.write_text(f"""# analysis configuration
model = {MODEL}
fei = {FEI}
tle = sys_dead
max-card = 1
out_dir = {tmp_path}
""")
    assert run("mcs", "--config", str(config)) == 0
    assert (tmp_path / "mcs.tsv").read_text() == ""  # no singleton cut sets
    # flags win over the config value
    assert run("mcs", "--config", str(config), "--max-card", "2") == 0
    assert len((tmp_path / "mcs.tsv").read_text().splitlines()) == 4


@pytest.mark.parametrize("line, flag, attribute", [
    ("max-card = 1", ("--max-card", "4"), 'max-card="4"'),
    ("step-bound = 3", ("--step-bound", "0"), 'step-bound="unbounded"'),
])
def test_explicit_flag_equal_to_its_default_wins_over_config(tmp_path, line, flag, attribute):
    # a flag that repeated its default was taken as not given
    assert run("mcs", "--config", _conf(tmp_path, line), *flag, "--formats", "xml") == 0
    assert attribute in (tmp_path / "mcs.xml").read_text()


def test_unknown_config_key(tmp_path, capsys):
    config = tmp_path / "run.conf"
    config.write_text("nonsense = 1\n")
    assert run("mcs", "--config", str(config)) == 2
    assert "unknown config key" in capsys.readouterr().err


def _conf(tmp_path, *lines):
    config = tmp_path / "run.conf"
    config.write_text("\n".join((f"model = {MODEL}", f"fei = {FEI}", "tle = sys_dead",
                                 f"out-dir = {tmp_path}", *lines)) + "\n")
    return str(config)


def test_config_values_take_the_flag_type(tmp_path, capsys):
    # an int, not the string "100": the cap is exceeded, not compared with a str
    assert run("mcs", "--config", _conf(tmp_path, "cap = 100")) == 3
    assert "stored states exceed cap 100" in capsys.readouterr().err
    assert run("mcs", "--config", _conf(tmp_path, "cap = 100000")) == 0
    assert len((tmp_path / "mcs.tsv").read_text().splitlines()) == 4


@pytest.mark.parametrize("line", ["max-card = abc", "cap = 1e3", "max-card = 0", "cap = 0",
                                  "step-bound = -3"])
def test_bad_config_value_exits_2(tmp_path, capsys, line):
    config = _conf(tmp_path, line)
    assert run("mcs", "--config", config) == 2
    err = capsys.readouterr().err
    assert err.startswith(config + ":") and repr(line.split(" = ")[1]) in err


def test_config_line_without_equals_exits_2(tmp_path, capsys):
    config = _conf(tmp_path, "max-card 3")
    assert run("mcs", "--config", config) == 2
    assert capsys.readouterr().err == f"{config}:5:0: error: expected 'key = value'\n"


def _fmea_conf(tmp_path, dynamic):
    config = tmp_path / "fmea.conf"
    config.write_text(f"model = {MODEL}\nfei = {FEI}\nprops = {PROPS}\nout-dir = {tmp_path}\n"
                      f"dynamic = {dynamic}\n")
    return str(config)


def test_misspelt_switch_in_config_exits_2(tmp_path, capsys):
    # "ture" was read as false and the static table written
    config = _fmea_conf(tmp_path, "ture")
    assert run("fmea", "--config", config) == 2
    err = capsys.readouterr().err
    assert err.startswith(config + ":") and "config key 'dynamic': bad value 'ture'" in err
    assert not list(tmp_path.glob("*.tsv"))


@pytest.mark.parametrize("value, dynamic", [("YES", True), ("1", True), ("False", False), ("no", False)])
def test_switch_values_in_config(tmp_path, value, dynamic):
    assert run("fmea", "--config", _fmea_conf(tmp_path, value)) == 0
    assert (tmp_path / ("fmea_dynamic.tsv" if dynamic else "fmea.tsv")).is_file()


@pytest.mark.parametrize("card", ["0", "-2", "two"])
def test_max_card_below_one_exits_2(tmp_path, capsys, card):
    with pytest.raises(SystemExit) as exc:
        run("mcs", "--model", MODEL, "--fei", FEI, "--tle", "sys_dead", "--max-card", card,
            "--out-dir", str(tmp_path))
    assert exc.value.code == 2
    assert "argument --max-card: must be an integer >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["synth", "check"])
def test_tfpg_has_no_max_card(tmp_path, capsys, command):
    # the flag was accepted and never read
    target = (("--outfile", str(tmp_path / "g.tfpg")) if command == "synth"
              else ("--tfpg", TFPG, "--out-dir", str(tmp_path)))
    argv = ("tfpg", command, "--model", MODEL, "--fei", FEI, "--bind", BIND, *target)
    with pytest.raises(SystemExit) as exc:
        run(*argv, "--max-card", "2")
    assert exc.value.code == 2
    assert "unrecognized arguments: --max-card 2" in capsys.readouterr().err
    config = tmp_path / "tfpg.conf"
    config.write_text("max-card = 2\n")
    assert run(*argv, "--config", str(config)) == 2
    assert capsys.readouterr().err == f"{config}:0:0: error: unknown config key 'max-card'\n"


@pytest.mark.parametrize("argv, flag, value, low", [
    (("mcs", "--tle", "sys_dead"), "--step-bound", "-3", 0),
    (("tfpg", "check", "--tfpg", TFPG, "--bind", BIND), "--step-bound", "-2", 0),
    (("mcs", "--tle", "sys_dead"), "--cap", "-1", 1),
    (("fmea", "--props", PROPS), "--cap", "0", 1),
], ids=["mcs-step-bound", "tfpg-check-step-bound", "mcs-cap", "fmea-cap"])
def test_bounds_out_of_range_exit_2(tmp_path, capsys, argv, flag, value, low):
    # a negative step bound ran unbounded and exited 0; a negative cap exited 3
    with pytest.raises(SystemExit) as exc:
        run(*argv, "--model", MODEL, "--fei", FEI, flag, value, "--out-dir", str(tmp_path))
    assert exc.value.code == 2
    assert f"argument {flag}: must be an integer >= {low}" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_cli_determinism(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert run("mcs", "--model", MODEL, "--fei", FEI, "--tle", "sys_dead",
                   "--formats", "tsv,xml", "--out-dir", str(out)) == 0
        assert run("ftprob", "--model", MODEL, "--fei", FEI, "--tle", "sys_dead",
                   "--out-dir", str(out)) == 0
    for name in ("mcs.tsv", "mcs.xml", "ft_probabilities.tsv", "tle_probability.py"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


@pytest.mark.parametrize("golden, argv", [
    ("ftprob_fixture", ("--model", MODEL, "--fei", FEI, "--tle", "sys_dead")),
    ("ftprob_burst", (*PAIR, "--tle", "a & b")),
])
def test_ftprob_artifacts_match_goldens(tmp_path, golden, argv):
    assert run("ftprob", *argv, "--out-dir", str(tmp_path)) == 0
    for name in ("ft_probabilities.tsv", "tle_probability.txt", "tle_probability.py", "tle_probability.m"):
        assert (tmp_path / name).read_bytes() == (GOLDENS / golden / name).read_bytes(), name


def test_ftprob_evaluates_the_tree_once(tmp_path, monkeypatch):
    # the rare-event sum is read off the node probabilities already evaluated
    import mbsa.fault_tree

    calls = []
    evaluate = mbsa.fault_tree.evaluate_probability
    monkeypatch.setattr(mbsa.fault_tree, "evaluate_probability", lambda *a: calls.append(a) or evaluate(*a))
    assert run("ftprob", "--model", MODEL, "--fei", FEI, "--tle", "sys_dead", "--out-dir", str(tmp_path)) == 0
    assert len(calls) == 1
    assert (tmp_path / "ft_probabilities.tsv").read_bytes() == (
        GOLDENS / "ftprob_fixture" / "ft_probabilities.tsv").read_bytes()


@pytest.mark.parametrize("golden, argv", [
    ("mcs_fixture", ("mcs", "--model", MODEL, "--fei", FEI, "--tle", "sys_dead", "--formats", "tsv,xml")),
    ("mcs_burst", ("mcs", *PAIR, "--tle", "a & b", "--formats", "tsv,xml")),
    ("ft_dynamic_fixture", ("ft", "--model", MODEL, "--fei", FEI, "--tle", "sys_dead", "--dynamic",
                            "--formats", "xml,dot")),
    ("ft_dynamic_burst", ("ft", *PAIR, "--tle", "a & b", "--dynamic", "--formats", "xml,dot")),
    ("fmea_dynamic_fixture", ("fmea", "--model", MODEL, "--fei", FEI, "--props", PROPS, "--dynamic",
                              "--formats", "tsv,xml")),
    ("fmea_fixture", ("fmea", "--model", MODEL, "--fei", FEI, "--props", PROPS, "--formats", "tsv,xml")),
    ("ftprob_dynamic_burst", ("ftprob", *PAIR, "--tle", "a & b", "--dynamic")),
    ("fmea_dynamic_burst", ("fmea", *PAIR, "--props", PAIR_PROPS, "--dynamic", "--formats", "tsv,xml")),
    ("extend_fixture", ("extend", "--model", MODEL, "--fei", FEI)),
    ("extend_weave", ("extend", *WEAVE)),
])
def test_search_artifacts_match_goldens(tmp_path, golden, argv):
    assert run(*argv, "--out-dir", str(tmp_path)) == 0
    expected = sorted(p.name for p in (GOLDENS / golden).iterdir())
    assert sorted(p.name for p in tmp_path.iterdir()) == expected
    for name in expected:
        assert (tmp_path / name).read_bytes() == (GOLDENS / golden / name).read_bytes(), name


def test_ftprob_cca_member_outside_tree(tmp_path):
    # f2 is a member of 'burst' but not a basic event of the tree for 'a'
    assert run("ftprob", *PAIR, "--tle", "a", "--out-dir", str(tmp_path)) == 0
    probs = dict(line.split("\t") for line in
                 (tmp_path / "ft_probabilities.tsv").read_text().splitlines())
    assert probs["#0"] == "0.145"  # 1 - (1 - 0.05) * (1 - 0.1)
    assert (tmp_path / "tle_probability.txt").read_text().startswith("symbols: burst, f1\n")


def test_ftprob_names_colliding_symbols_alike_in_text_and_scripts(tmp_path):
    # a#b and a_b both sanitize to a_b: the text must not multiply one symbol by itself
    (tmp_path / "m.fei").write_text(
        "fault a#b: target a, template stuck_at(TRUE), dynamics permanent, prob 0.1;\n"
        "fault a_b: target b, template stuck_at(TRUE), dynamics permanent, prob 0.2;\n")
    assert run("ftprob", "--model", str(GOLDENS / "pair.smx"), "--fei", str(tmp_path / "m.fei"),
               "--tle", "a & b", "--out-dir", str(tmp_path)) == 0
    assert (tmp_path / "tle_probability.txt").read_text() == "symbols: a#b, a_b\np_a_b * p_a_b2\n"
    assert "def tle_probability(p_a_b, p_a_b2):" in (tmp_path / "tle_probability.py").read_text()
    assert "function p = tle_probability(p_a_b, p_a_b2)" in (tmp_path / "tle_probability.m").read_text()


def test_user_library_and_cca_paths(tmp_path):
    (tmp_path / "m.smx").write_text(
        "MODULE m VAR a : boolean; b : boolean; lvl : 0..4;\n"
        "INIT !a & !b & lvl = 4;\n"
        "TRANS next(a) = a; TRANS next(b) = b; TRANS next(lvl) = 4;\n")
    (tmp_path / "user.flib").write_text(
        "template drift(p : value) for int := nominal - p;\n")
    (tmp_path / "m.fei").write_text(
        "fault f1: target a, template stuck_at(TRUE), dynamics permanent, prob 0.1;\n"
        "fault f2: target b, template stuck_at(TRUE), dynamics permanent, prob 0.1;\n"
        "fault sag: target lvl, template drift(3), dynamics permanent, prob 0.01;\n")
    (tmp_path / "m.cca").write_text(
        "cc burst: members {f1, f2}, pattern simultaneous, prob 0.05;\n")
    code = run("mcs", "--model", str(tmp_path / "m.smx"), "--fei", str(tmp_path / "m.fei"),
               "--flib", str(tmp_path / "user.flib"), "--cca", str(tmp_path / "m.cca"),
               "--tle", "a & b", "--max-card", "3", "--out-dir", str(tmp_path))
    assert code == 0
    assert (tmp_path / "mcs.tsv").read_text() == "burst\nf1\tf2\n"
    # the user template from the library is usable end to end
    code = run("mcs", "--model", str(tmp_path / "m.smx"), "--fei", str(tmp_path / "m.fei"),
               "--flib", str(tmp_path / "user.flib"), "--tle", "lvl < 2",
               "--max-card", "3", "--out-dir", str(tmp_path))
    assert code == 0
    assert (tmp_path / "mcs.tsv").read_text() == "sag\n"


def test_resource_cap_exits_3(tmp_path, capsys):
    code = run("mcs", "--model", MODEL, "--fei", FEI, "--tle", "sys_dead",
               "--cap", "10", "--out-dir", str(tmp_path))
    assert code == 3
    assert "resource cap" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("ft", "--tle", "sys_dead", "--dynamic"),
    ("fmea", "--props", PROPS, "--dynamic"),
])
def test_cut_sequence_search_honours_cap(tmp_path, capsys, argv):
    # the cut sets fit in 500 stored states; the cut sequences of
    # {G1_Off, G2_Off} need more (state, partition) keys
    m = ("--model", MODEL, "--fei", FEI, "--cap", "500", "--out-dir", str(tmp_path))
    assert run("mcs", *m, "--tle", "sys_dead") == 0
    assert run(*argv, *m) == 3
    assert "resource cap exceeded: stored cut-sequence states exceed cap 500" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("ft", "--tle", "sys_dead", "--dynamic"),
    ("fmea", "--props", PROPS, "--dynamic"),
])
def test_cut_sequence_search_smallest_passing_cap(tmp_path, argv):
    # the most keys one cut-sequence search stores on the fixture, which leaves
    # off once all of a cut set's orders are witnessed; the cut-set searches of
    # mcs and fmea store at most 462
    m = ("--model", MODEL, "--fei", FEI, "--out-dir", str(tmp_path))
    assert run(*argv, *m, "--cap", "1129") == 0
    assert run(*argv, *m, "--cap", "1128") == 3
    assert run("mcs", *m, "--tle", "sys_dead", "--cap", "462") == 0
    assert run("fmea", *m, "--props", PROPS, "--cap", "462") == 0
    assert run("mcs", *m, "--tle", "sys_dead", "--cap", "461") == 3


@pytest.mark.parametrize("argv, cap, message", [
    (("mcs", "--tle", "sys_dead"), 100, "stored states exceed cap 100 at depth 6"),
    (("ft", "--tle", "sys_dead", "--dynamic"), 500, "stored cut-sequence states exceed cap 500 at depth 9"),
    (("tfpg", "check", "--tfpg", TFPG, "--bind", BIND), 500, "stored product states exceed cap 500 at depth 4"),
    (("tfpg", "synth", "--bind", BIND), 500, "stored synthesis states exceed cap 500 at depth 3"),
], ids=["mcs", "ft-dynamic", "tfpg-check", "tfpg-synth"])
def test_cap_error_names_the_depth(tmp_path, capsys, argv, cap, message):
    out = ("--outfile", str(tmp_path / "synth.tfpg")) if argv[1] == "synth" else ("--out-dir", str(tmp_path))
    m = ("--model", MODEL, "--fei", FEI, "--cap", str(cap), *out)
    assert run(*argv, *m) == 3
    assert capsys.readouterr().err.strip().endswith(message)
    if argv[0] == "tfpg":
        # one search: every key above the named depth fits under the cap
        depth = message.rsplit(" ", 1)[1]
        assert run(*argv, *m, "--step-bound", str(int(depth) - 1)) == 0
        assert run(*argv, *m, "--step-bound", depth) == 3


@pytest.mark.parametrize("argv, message", [
    (("mcs", "--tle", "sys_dead"), "searching states at depth 1"),
    (("ft", "--tle", "sys_dead", "--dynamic"), "searching states at depth 1"),
    (("tfpg", "check", "--tfpg", TFPG, "--bind", BIND), "searching product states at depth 1"),
    (("tfpg", "synth", "--bind", BIND), "searching synthesis states at depth 1"),
], ids=["mcs", "ft-dynamic", "tfpg-check", "tfpg-synth"])
def test_enumeration_cap_error_names_the_search_and_depth(tmp_path, capsys, argv, message):
    # a cap below a state's 12 candidate successors stops the engine, not the search
    out = ("--outfile", str(tmp_path / "synth.tfpg")) if argv[1] == "synth" else ("--out-dir", str(tmp_path))
    assert run(*argv, "--model", MODEL, "--fei", FEI, "--cap", "10", *out) == 3
    assert capsys.readouterr().err == \
        f"resource cap exceeded: {message}: enumeration of 12+ candidate states exceeds cap 10\n"


@pytest.mark.parametrize("name", ["cli", "trees_job"])
def test_start_up_loads_no_dataclasses_inspect_or_format_library(tmp_path, name):
    # every CLI run is a fresh process: creating dataclasses, and importing
    # dataclasses with inspect, ast and dis behind it, cost each run ~50 ms;
    # json and ElementTree load only in the functions that write or read
    # those formats, so a job that writes neither keeps their memory
    banned = {"dataclasses", "inspect", "json", "xml.etree.ElementTree"}
    assert banned & loaded(name, tmp_path).keys() == set()


def test_format_writers_and_readers_in_a_fresh_process(tmp_path):
    # json is imported inside the event-registry writer and ElementTree inside
    # the two XML readers, which in-process tests always find already loaded:
    # the same steps run once in a fresh process and once here, and write the
    # same bytes (which of them loads either library is in tests/layers.py)
    common = ("--model", MODEL, "--fei", FEI)
    steps = [
        ("extend", *common),
        ("mcs", *common, "--tle", "sys_dead", "--formats", "xml"),
        ("ft", *common, "--tle", "sys_dead", "--formats", "xml"),
        ("fmea", *common, "--props", PROPS, "--formats", "xml"),
    ]
    script = f"""
from mbsa.cli import main
from mbsa.fault_tree import ft_from_xml, ft_to_tsv
for argv in {steps!r}:
    assert main([*argv, "--out-dir", str(out)]) == 0, argv
assert main(["tfpg", "convert", {TFPG!r}, str(out / "g.xml")]) == 0
assert main(["tfpg", "convert", str(out / "g.xml"), str(out / "g.tfpg")]) == 0
tree = ft_from_xml((out / "ft.ftx").read_text())
(out / "reloaded.fttsv").write_text(ft_to_tsv(tree, with_probabilities=True))
"""
    fresh, here = tmp_path / "fresh", tmp_path / "here"
    proc = fresh_python("-c", "import sys\nfrom pathlib import Path\nout = Path(sys.argv[1])\n" + script, str(fresh))
    assert proc.returncode == 0, proc.stderr
    exec(script, {"out": here})
    names = sorted(p.name for p in here.iterdir())
    assert names == sorted(p.name for p in fresh.iterdir())
    assert {"battery_sensor_events.json", "mcs.xml", "ft.ftx", "fmea.xml", "g.xml", "g.tfpg",
            "reloaded.fttsv"} <= set(names)
    for name in names:
        assert (fresh / name).read_bytes() == (here / name).read_bytes(), name


@pytest.mark.parametrize("command", [("mcs",), ("ft",), ("ft", "--dynamic"), ("ftprob",), ("ftprob", "--dynamic"),
                                     ("fmea",), ("fmea", "--dynamic")],
                         ids=["mcs", "ft", "ft-dynamic", "ftprob", "ftprob-dynamic", "fmea", "fmea-dynamic"])
@pytest.mark.parametrize("inputs, tle, props", [
    (PAIR[:4], "a & b", PAIR_PROPS),
    (PAIR, "a & b", PAIR_PROPS),
    (("--model", MODEL, "--fei", FEI), "sys_dead", PROPS),
], ids=["pair", "pair-cca", "fixture"])
def test_every_analysis_runs_with_and_without_cca_at_each_step_bound(tmp_path, capsys, command, inputs, tle, props):
    # every supported combination exits 0 without a traceback
    given = ("--props", props) if command[0] == "fmea" else ("--tle", tle)
    for bound in ("0", "1", "3"):
        out = tmp_path / bound
        assert run(*command, *inputs, *given, "--step-bound", bound, "--out-dir", str(out)) == 0, bound
        assert "Traceback" not in capsys.readouterr().err
        assert list(out.iterdir())


def _program(*argv):
    """``python -m mbsa.cli`` in a fresh process: (exit code, stdout, stderr)."""
    proc = fresh_python("-m", "mbsa.cli", *argv)
    return proc.returncode, proc.stdout, proc.stderr


HELP = json.loads((GOLDENS / "cli_help.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("argv", sorted(HELP))
def test_help_version_and_usage_texts_match_goldens(capsys, monkeypatch, argv):
    # exit code, stdout and stderr of help, version and usage errors, at a
    # terminal width of 80, in process and from the program
    want = (HELP[argv]["exit"], HELP[argv]["stdout"], HELP[argv]["stderr"])
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(argv.split())
    assert (exc.value.code, *capsys.readouterr()) == want
    assert _program(*argv.split()) == want


@pytest.mark.parametrize("argv", [
    lambda tmp: ("extend", "--model", MODEL, "--fei", FEI, "--out-dir", str(tmp)),
    lambda tmp: ("tfpg", "check", "--model", MODEL, "--fei", FEI, "--tfpg", _refute_tfpg(tmp), "--bind", BIND,
                 "--step-bound", "60", "--out-dir", str(tmp)),
    lambda tmp: ("extend", "--model", "nosuch.smx", "--fei", FEI, "--out-dir", str(tmp)),
    lambda tmp: ("mcs", "--model", MODEL, "--fei", FEI, "--tle", "sys_dead", "--cap", "10", "--out-dir", str(tmp)),
    lambda tmp: ("--version",),
    lambda tmp: ("mcs", "--max-card", "0"),
], ids=["exit-0", "exit-1", "exit-2", "exit-3", "version", "usage-error"])
def test_the_program_exits_as_main_returns(tmp_path, capsys, argv):
    # the program freezes the heap on its way out and changes nothing else:
    # exit code, standard output and diagnostics are main's
    argv = argv(tmp_path)
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse's own exits
        code = exc.code
    out, err = capsys.readouterr()
    assert _program(*argv) == (code, out, err)


@pytest.mark.parametrize("command", ["extend", "mcs"])
def test_expression_nesting_beyond_the_recursion_limit_exits_3(tmp_path, command):
    # the parser reads these chains without recursion, but the checker walks
    # them recursively: it ran out of stack with a traceback and exit 1, the
    # code of a negative verdict (400 sys_dead disjuncts still fit)
    if command == "extend":
        model = tmp_path / "deep.smx"
        model.write_text("MODULE m VAR x : boolean; INIT " + " & ".join(["x"] * 700) + " ;\n")
        argv = ("extend", "--model", str(model))
    else:
        argv = ("mcs", "--model", MODEL, "--fei", FEI, "--tle", " | ".join(["sys_dead"] * 600))
    assert _program(*argv, "--out-dir", str(tmp_path / "out")) == (
        3, "", "resource cap exceeded: expression nesting beyond the interpreter's recursion limit\n")


@pytest.mark.parametrize("command, flag, value", [
    (("extend",), "--cap", "10"),
    (("tfpg", "synth", "--bind", BIND), "--out-dir", "out"),
], ids=["extend-cap", "synth-out-dir"])
def test_flags_nothing_reads_are_usage_errors(tmp_path, capsys, command, flag, value):
    # extension explores no state, and synthesis writes only --outfile: both
    # flags were accepted and never read
    argv = (*command, "--model", MODEL, "--fei", FEI)
    if command[0] == "tfpg":
        argv += ("--outfile", str(tmp_path / "s.tfpg"))
    with pytest.raises(SystemExit) as exc:
        run(*argv, flag, value)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
    key = flag.removeprefix("--")
    config = tmp_path / "run.conf"
    config.write_text(f"{key} = {value}\n")
    assert run(*argv, "--config", str(config)) == 2
    assert capsys.readouterr().err == f"{config}:0:0: error: unknown config key {key!r}\n"
    assert not (tmp_path / "s.tfpg").exists()


def test_a_config_file_cannot_name_another(tmp_path, capsys):
    # the key was accepted and its file never read
    config = _conf(tmp_path, f"config = {tmp_path / 'other.conf'}")
    assert run("mcs", "--config", config) == 2
    assert capsys.readouterr().err == f"{config}:0:0: error: unknown config key 'config'\n"
    assert not (tmp_path / "mcs.tsv").exists()


@pytest.mark.parametrize("command, required, artifact", [
    ("check", {"tfpg": TFPG, "bind": BIND}, "tfpg_check.txt"),
    ("synth", {"bind": BIND, "outfile": "{out}/synth.tfpg"}, "synth.tfpg"),
], ids=["check", "synth"])
def test_a_config_file_supplies_required_flags(tmp_path, capsys, command, required, artifact):
    # argparse required the flags before the config file was read
    required = {key: value.format(out=tmp_path) for key, value in required.items()}
    inputs = {"model": MODEL, "fei": FEI, "step-bound": "60", **({"out-dir": tmp_path} if command == "check" else {})}

    def config(**lines):
        path = tmp_path / "run.conf"
        path.write_text("".join(f"{key} = {value}\n" for key, value in {**inputs, **lines}.items()))
        return str(path)

    # --config abbreviated as argparse allows: the flags stayed required
    for spelling in (("--config", config(**required)), ("--conf", config(**required)),
                     (f"--conf={config(**required)}",)):
        assert run("tfpg", command, *spelling) == 0
        assert (tmp_path / artifact).exists()
        (tmp_path / artifact).unlink()
    # a flag on the command line wins over the config's value
    first, value = next(iter(required.items()))
    assert run("tfpg", command, f"--config={config(**{**required, first: tmp_path / 'nosuch'})}",
               f"--{first}", value) == 0
    assert (tmp_path / artifact).exists()
    capsys.readouterr()
    # a flag that neither gives is argparse's usage error
    with pytest.raises(SystemExit) as exc:
        run("tfpg", command, "--config", config(**{key: value for key, value in required.items() if key != first}))
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(
        f"mbsa tfpg {command}: error: the following arguments are required: --{first}\n")


@pytest.mark.parametrize("argv", ["mcs --config {missing} --help", "mcs --conf={missing} --he"])
def test_help_wins_over_a_missing_config_file(tmp_path, capsys, monkeypatch, argv):
    # help is printed before the config file is read
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(argv.format(missing=tmp_path / "missing.conf").split())
    assert (exc.value.code, *capsys.readouterr()) == (0, HELP["mcs --help"]["stdout"], "")


@pytest.mark.parametrize("command", ["synth", "convert"])
def test_an_outfile_directory_is_created(tmp_path, command):
    # the write failed with "No such file or directory" and exit 2
    out = tmp_path / "new" / "dir" / ("synth.tfpg" if command == "synth" else "g.xml")
    if command == "synth":
        argv = ("synth", "--model", MODEL, "--fei", FEI, "--bind", BIND, "--step-bound", "60", "--outfile", str(out))
    else:
        argv = ("convert", TFPG, str(out))
    assert run("tfpg", *argv) == 0
    assert out.stat().st_size > 0


HASH_SEED_JOBS = """import sys
from mbsa.cli import main
out, model, fei, bind, tfpg, refuting = sys.argv[1:]
common = ["--model", model, "--fei", fei, "--bind", bind, "--step-bound", "60"]
assert [main(["tfpg", "synth", *common, "--outfile", f"{out}/synth.tfpg"]),
        main(["tfpg", "check", *common, "--tfpg", tfpg, "--out-dir", f"{out}/check"]),
        main(["tfpg", "check", *common, "--tfpg", refuting, "--out-dir", f"{out}/refute"])] == [0, 0, 1]
"""


def test_tfpg_artifacts_do_not_depend_on_the_hash_seed(tmp_path, monkeypatch):
    # synthesis collects its instances, and validation its modes, in sets of
    # mode literals, which hash differently in each process
    refuting = _refute_tfpg(tmp_path)
    outputs = []
    for seed in ("0", "1", "2"):
        monkeypatch.setenv("PYTHONHASHSEED", seed)
        out = tmp_path / seed
        out.mkdir()
        proc = fresh_python("-c", HASH_SEED_JOBS, str(out), MODEL, FEI, BIND, TFPG, refuting)
        assert proc.returncode == 0, proc.stderr
        outputs.append({str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()})
    assert sorted(outputs[0]) == ["check/tfpg_check.txt", "refute/tfpg_check.txt",
                                  "refute/tfpg_counterexample.trace", "synth.tfpg"]
    assert outputs[0] == outputs[1] == outputs[2]


def _collecting(enabled: bool):
    (gc.enable if enabled else gc.disable)()


def test_only_the_program_freezes_the_heap(tmp_path):
    # main runs inside other processes, such as this one, which must keep
    # collecting garbage as they chose; the program collects none, freezes,
    # and then still runs exit handlers and a profiler's report
    frozen, enabled = gc.get_freeze_count(), gc.isenabled()
    try:
        for collecting in (True, False):
            _collecting(collecting)
            assert main(["mcs", "--model", MODEL, "--fei", FEI, "--tle", "sys_dead", "--out-dir", str(tmp_path)]) == 0
            with pytest.raises(SystemExit):
                main(["--version"])
            assert gc.isenabled() is collecting
    finally:
        _collecting(enabled)
    assert gc.get_freeze_count() == frozen
    script = ("import atexit, gc, sys\nfrom mbsa.cli import run\n"
              "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0, 'collecting', gc.isenabled()))\n"
              "run()\n")
    for argv, code in ((("--version",), 0), (("mcs", "--max-card", "0"), 2),
                       (("mcs", "--model", MODEL, "--fei", FEI, "--tle", "sys_dead", "--cap", "10",
                         "--out-dir", str(tmp_path)), 3)):
        proc = fresh_python("-c", script, *argv)
        assert proc.returncode == code, proc.stderr
        assert proc.stdout.endswith("frozen True collecting False\n"), argv
    proc = fresh_python("-m", "cProfile", "-m", "mbsa.cli", "--version")
    assert proc.stdout.startswith("mbsa ") and "function calls" in proc.stdout


def test_a_job_leaves_little_cyclic_garbage(tmp_path):
    # the program runs with the collector off, so what a job leaves in
    # reference cycles stays until it exits: it must not grow with the search
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for step_bound in ("5", "60"):
            assert main(["tfpg", "synth", "--model", MODEL, "--fei", FEI, "--bind", BIND, "--step-bound", step_bound,
                         "--outfile", str(tmp_path / "synth.tfpg")]) == 0
            assert gc.collect() < 2000, step_bound
    finally:
        _collecting(enabled)


def test_the_installed_script_is_the_program():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    with pyproject.open("rb") as f:
        project = tomllib.load(f)["project"]
    assert project["scripts"] == {"mbsa": "mbsa.cli:run"}
    assert project["version"] == mbsa.__version__
