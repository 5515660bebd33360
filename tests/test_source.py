"""Checks on the source text of the package."""

import ast
import collections
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "mbsa"


def _unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads (``__future__`` aside)."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items()) if name not in used]


def test_unused_imports_are_caught():
    assert _unused_imports("from __future__ import annotations\nimport os.path\n"
                           "from x import a, b as c\nprint(a)\n") == ["c (line 3)", "os (line 2)"]


def test_no_module_imports_a_name_it_never_uses():
    # the package __init__ files import names only to re-export them
    found = {str(path.relative_to(SRC)): unused for path in sorted(SRC.rglob("*.py"))
             if path.name != "__init__.py" and (unused := _unused_imports(path.read_text(encoding="utf-8")))}
    assert found == {}


def _unreferenced_private_definitions(sources: dict[str, str]) -> list[str]:
    """Top-level ``_name`` functions and classes that no top-level statement
    of any module but their own definition reads or imports."""
    defined, reads = [], []
    for module, source in sources.items():
        for i, top in enumerate(ast.parse(source).body):
            names = set()
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.ImportFrom):
                    names.update(alias.name for alias in node.names)
            reads.append(((module, i), names))
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)) and top.name.startswith("_") \
                    and not top.name.startswith("__"):
                defined.append(((module, i), top.name, top.lineno))
    return [f"{where[0]}: {name} (line {line})" for where, name, line in defined
            if not any(name in names for other, names in reads if other != where)]


def test_unreferenced_private_definitions_are_caught():
    sources = {"a.py": "def _dead():\n    _dead()\n\n\ndef _kept():\n    pass\n\n\nclass _Shape:\n    pass\n",
               "b.py": "from a import _kept\n"}
    # a recursive call is a read inside the definition itself
    assert _unreferenced_private_definitions(sources) == ["a.py: _dead (line 1)", "a.py: _Shape (line 9)"]


def test_every_private_definition_is_referenced():
    sources = {str(path.relative_to(SRC)): path.read_text(encoding="utf-8") for path in sorted(SRC.rglob("*.py"))}
    assert _unreferenced_private_definitions(sources) == []


def _model_constructions(source: str) -> list[int]:
    """Lines that call ``SymbolicModel``, by name or as an attribute."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Call) and (getattr(node.func, "id", None) == "SymbolicModel"
                                                     or getattr(node.func, "attr", None) == "SymbolicModel"))


def test_model_constructions_are_caught():
    source = ("m = SymbolicModel('m', ())\nn = model.SymbolicModel('n', ())\n"
              "ty = SymbolicModel\nok = isinstance(m, SymbolicModel)\n")
    assert _model_constructions(source) == [1, 2]


def test_only_the_reader_and_the_weaving_builder_assemble_models():
    # a model is read from text (sts/parse.py) or woven by faults.ModelBuilder,
    # which owns the sections, the declared names and the check of the result
    found = {str(path.relative_to(SRC)): lines for path in sorted(SRC.rglob("*.py"))
             if path.relative_to(SRC).as_posix() not in ("sts/parse.py", "faults.py")
             and (lines := _model_constructions(path.read_text(encoding="utf-8")))}
    assert found == {}


TOKEN_KINDS = {"num", "real", "ident", "kw", "op", "eof"}


def _token_kind_tests(source: str) -> list[int]:
    """Lines that compare a ``.kind`` attribute with a token kind of
    ``mbsa.sts.parse``, alone or in a collection."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            constants = {c.value for o in operands for c in ast.walk(o) if isinstance(c, ast.Constant)}
            if any(isinstance(o, ast.Attribute) and o.attr == "kind" for o in operands) \
                    and constants & TOKEN_KINDS:
                lines.append(node.lineno)
    return sorted(lines)


def test_token_kind_tests_are_caught():
    source = ('if t.kind == "eof":\n    pass\n'
              'word = t.text if t.kind == "ident" else None\n'
              'ok = tok.kind not in ("num", "real")\n'
              'gate = node.kind == "or" or param.kind != "value"\n')
    # gate and template-parameter kinds are not token kinds
    assert _token_kind_tests(source) == [1, 3, 4]


def test_only_the_parser_reads_token_kinds():
    # the lexical decisions of every reader live in sts/parse.py's TokenStream
    found = {str(path.relative_to(SRC)): lines for path in sorted(SRC.rglob("*.py"))
             if path.relative_to(SRC).as_posix() != "sts/parse.py"
             and (lines := _token_kind_tests(path.read_text(encoding="utf-8")))}
    assert found == {}


def _xml_imports(source: str) -> list[str]:
    """The top-level definition (``<module>`` for any other statement) of each
    import of ``xml`` or one of its submodules."""
    found = []
    for top in ast.parse(source).body:
        for node in ast.walk(top):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            found += [getattr(top, "name", "<module>") for m in modules if m.partition(".")[0] == "xml"]
    return found


def test_xml_imports_are_caught():
    source = ("import xml.etree.ElementTree as ET\n"
              "def read():\n    from xml.etree import ElementTree\n"
              "class W:\n    def write(self):\n        import os, xml\n"
              "def other():\n    from mbsa.xmlout import to_xml\n    from .xml import x\n")
    assert _xml_imports(source) == ["<module>", "read", "W"]


def test_only_the_xml_readers_load_elementtree():
    # the writers render through mbsa.xmlout, so a job that writes XML and
    # reads none never loads ElementTree
    found = [f"{path.relative_to(SRC).as_posix()}: {name}" for path in sorted(SRC.rglob("*.py"))
             for name in _xml_imports(path.read_text(encoding="utf-8"))]
    assert found == ["fault_tree.py: ft_from_xml", "tfpg/graph.py: tfpg_from_xml"]


def test_checker_printer_and_code_generator_name_the_same_binary_operators():
    from mbsa.sts import check, codegen
    from mbsa.sts.model import BINDING

    # the checker types "=" and "!=" outside its signature table, the code
    # generator compiles "->" on its own, and the operator table, which the
    # parser and the printer read, also ranks "?" and "in"
    checked = set(check._SIGNATURES) - {"!", "unary -"} | {"=", "!="}
    bound = set(BINDING) - {"?", "in"}
    compiled = set(codegen._BINOPS) | {"->"}
    assert checked == bound == compiled


def _loaded_modules(imports: str) -> set[str]:
    """The ``mbsa`` modules a fresh process has loaded after ``imports``."""
    code = f"{imports}\nimport sys\nprint('\\n'.join(m for m in sys.modules if m.split('.')[0] == 'mbsa'))"
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def test_the_probability_stage_loads_no_model_checking_layer():
    # the imports of the benchmark's fault-tree job, which works on cut sets
    # it reads from files and never parses, checks, explores or extends a model
    tree = ast.parse((ROOT / "perfbench" / "trees_job.py").read_text(encoding="utf-8"))
    imports = "\n".join(ast.unparse(node) for node in tree.body
                        if isinstance(node, ast.Import)
                        or isinstance(node, ast.ImportFrom) and node.module != "__future__")
    assert "mbsa.fault_tree" in imports
    checker = {"mbsa.sts.parse", "mbsa.sts.check", "mbsa.sts.engine", "mbsa.sts.pretty", "mbsa.sts.codegen",
               "mbsa.faults", "mbsa.cutsets", "mbsa.ccaweave"}
    assert _loaded_modules(imports) & checker == set()


def test_the_cli_loads_every_layer_the_tracer_wraps():
    # the tracer wraps the layers that importing mbsa.cli has loaded: a layer
    # loaded later, on first use, would be reported as never called
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text(encoding="utf-8"))
    tables = {target.id: ast.literal_eval(node.value) for node in tree.body if isinstance(node, ast.Assign)
              for target in node.targets if isinstance(target, ast.Name) and target.id in ("SPANNED", "COUNTED")}
    wrapped = {module for table in tables.values() for module, _, _ in table}
    assert set(tables) == {"SPANNED", "COUNTED"} and "mbsa.sts.engine" in wrapped
    assert wrapped - _loaded_modules("import mbsa.cli") == set()


FIXTURE = ("--model", str(ROOT / "fixtures" / "battery_sensor.smx"),
           "--fei", str(ROOT / "fixtures" / "battery_sensor.fei"))


def _run_modules(code: str) -> set[str]:
    """The ``mbsa`` modules whose body a fresh process has run after
    ``code``.  ``type`` reads no attribute, so it runs no module that the
    CLI registered lazily."""
    report = "import sys, types\nprint('\\n'.join(n for n, m in sys.modules.items() if type(m) is types.ModuleType))"
    proc = subprocess.run([sys.executable, "-c", f"{code}\n{report}"], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return {name for name in proc.stdout.split() if name.split(".")[0] == "mbsa"}


def test_a_subcommand_runs_only_the_layers_it_calls(tmp_path):
    tfpg = {f"mbsa.tfpg.{path.stem}" for path in (SRC / "tfpg").glob("*.py")} - {"mbsa.tfpg.__init__"}
    assert "mbsa.tfpg.validate" in tfpg
    fixtures = ROOT / "fixtures"
    refuting = tmp_path / "refute.tfpg"  # without this edge the fixture graph is incomplete
    refuting.write_text("".join(line for line in (fixtures / "battery_sensor.tfpg").read_text().splitlines(True)
                                if not line.startswith("edge B1_DEAD -> S2_NO ")))
    check = ["tfpg", "check", "--bind", str(fixtures / "battery_sensor.bind"), "--step-bound", "60", "--tfpg"]
    runs = {command: _run_modules(f"from mbsa.cli import main\n"
                                  f"assert main({[*argv, *FIXTURE, '--out-dir', str(tmp_path)]!r}) == {code}")
            for command, argv, code in (
                ("extend", ["extend"], 0), ("mcs", ["mcs", "--tle", "sys_dead"], 0),
                ("fmea", ["fmea", "--props", str(ROOT / "tests" / "goldens" / "fixture.props")], 0),
                ("check", [*check, str(fixtures / "battery_sensor.tfpg")], 0), ("refute", [*check, str(refuting)], 1))}
    assert {"mbsa.faults", "mbsa.sts.pretty"} <= runs["extend"]
    assert runs["extend"] & ({"mbsa.cutsets", "mbsa.fault_tree", "mbsa.probability", "mbsa.fmea",
                              "mbsa.sts.engine"} | tfpg) == set()
    assert {"mbsa.cutsets", "mbsa.sts.engine"} <= runs["mcs"]
    assert runs["mcs"] & ({"mbsa.fault_tree", "mbsa.fmea"} | tfpg) == set()
    # the printer writes only the XML table; admits only recomputes a refutation
    assert "mbsa.fmea" in runs["fmea"] and "mbsa.sts.pretty" not in runs["fmea"]
    assert "mbsa.tfpg.validate" in runs["check"] and "mbsa.tfpg.admit" not in runs["check"]
    assert "mbsa.tfpg.admit" in runs["refute"]


def test_the_tracer_wraps_the_layers_of_cli_jobs(tmp_path):
    # the CLI runs a layer on first use; the tracer must still wrap it, or
    # its span would be missing and its metrics would read 0
    fixtures = ROOT / "fixtures"
    jobs = {"mcs": ("mcs", *FIXTURE, "--tle", "sys_dead"),
            "tfpg_check": ("tfpg", "check", *FIXTURE, "--tfpg", str(fixtures / "battery_sensor.tfpg"),
                           "--bind", str(fixtures / "battery_sensor.bind"), "--step-bound", "60")}
    spans = collections.Counter()
    for job, argv in jobs.items():
        out = tmp_path / job
        subprocess.run([sys.executable, str(ROOT / "perfbench" / "tracer.py"), str(tmp_path / f"{job}.json"), job,
                        "cli", *argv, "--out-dir", str(out)],
                       env={**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1"},
                       capture_output=True, text=True, timeout=120, check=True)
        data = json.loads((tmp_path / f"{job}.json").read_text(encoding="utf-8"))
        spans.update(f"{job}:{span['name']}" for span in data["spans"])
    assert spans["mcs:analysis.compute_mcs"] == 1 and spans["mcs:cli.export"] == 1
    assert spans["mcs:sts.engine.succ_tuples"] > 0 and spans["tfpg_check:sts.engine.succ_tuples"] > 0
    assert spans["tfpg_check:tfpg.validate_behavioral"] == 1


def _assert_re_exports(module_name: str, misspelled: str):
    """Each name of the module's ``__all__`` is its home module's object, also
    through ``import *``, and an unknown name is an ``AttributeError``."""
    import importlib

    module = importlib.import_module(module_name)
    for name in module.__all__:
        home = importlib.import_module(module._HOME.get(name, module_name))
        assert getattr(module, name) is getattr(home, name), name
    namespace: dict = {}
    exec(f"from {module_name} import *", namespace)
    assert {name: namespace[name] for name in module.__all__} == {
        name: getattr(module, name) for name in module.__all__}
    with pytest.raises(AttributeError, match=f"module '{module_name}' has no attribute '{misspelled}'"):
        getattr(module, misspelled)


def test_sts_re_exports_the_objects_of_their_home_modules():
    _assert_re_exports("mbsa.sts", "parse_modle")


def test_tfpg_re_exports_the_objects_of_their_home_modules():
    _assert_re_exports("mbsa.tfpg", "validate_behavioural")


@pytest.mark.parametrize("module_name, misspelled", [("mbsa.analysis", "compute_mc"), ("mbsa.cca", "apply_cc")])
def test_records_modules_re_export_the_objects_of_their_home_modules(module_name, misspelled):
    _assert_re_exports(module_name, misspelled)


def test_importing_the_records_loads_no_search_or_weaving():
    homes = {"mbsa.cutsets", "mbsa.ccaweave"}
    assert _loaded_modules("import mbsa.analysis, mbsa.cca") & homes == set()
    assert _loaded_modules("from mbsa.analysis import compute_mcs\nfrom mbsa.cca import apply_cca") >= homes
