"""Checks on the source text of the package."""

import ast
import collections
import json
import re
from pathlib import Path

import pytest

from conftest import fresh_python
from layers import CHECK, FIXTURE, LAYERS, loaded

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


def _reads(node) -> collections.Counter:
    """How often ``node`` reads or imports each name, attributes included."""
    reads = collections.Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            reads[n.id] += 1
        elif isinstance(n, ast.Attribute):
            reads[n.attr] += 1
        elif isinstance(n, ast.ImportFrom):
            reads.update(alias.name for alias in n.names)
    return reads


def _definitions(tree):
    """(qualified name, node) of each top-level function and class, and of each method."""
    for top in tree.body:
        if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
            yield top.name, top
        if isinstance(top, ast.ClassDef):
            yield from ((f"{top.name}.{m.name}", m) for m in top.body if isinstance(m, ast.FunctionDef))


def _unused_public_definitions(package: dict[str, str], users: list[str], docs: str) -> list[str]:
    """Public top-level functions and classes of ``package``, and public
    methods of its classes, that no code of ``package`` or ``users`` reads
    outside their own definition, and that ``docs`` do not name.  A name in
    a string, such as a re-export table's, is not a read."""
    trees = {module: ast.parse(source) for module, source in package.items()}
    reads = sum(map(_reads, [*trees.values(), *map(ast.parse, users)]), collections.Counter())
    named = set(re.findall(r"\w+", docs))
    return [f"{module}: {qualified} (line {node.lineno})" for module, tree in trees.items()
            for qualified, node in _definitions(tree)
            if not node.name.startswith("_") and reads[node.name] <= _reads(node)[node.name]
            and node.name not in named]


def test_unused_public_definitions_are_caught():
    package = {"a.py": "def used():\n    used()\n\n\ndef documented():\n    pass\n\n\nclass Record:\n"
                       "    def read(self):\n        return self.read\n\n    def test_only(self):\n        pass\n",
               "b.py": "from a import Record\nNAMES = ('test_only',)\n"}
    # a recursive call or read inside the definition itself does not count
    assert _unused_public_definitions(package, ["from a import used\n"], "`documented` is public") == [
        "a.py: Record.read (line 10)", "a.py: Record.test_only (line 13)"]


def test_every_public_definition_is_used_outside_the_tests():
    # the program, the benchmark and the demos are the users of src/mbsa;
    # a name the tests alone call is test code, and the references live in tests/
    package = {str(path.relative_to(SRC)): path.read_text(encoding="utf-8") for path in sorted(SRC.rglob("*.py"))}
    users = [path.read_text(encoding="utf-8") for folder in ("perfbench", "demos")
             for path in sorted((ROOT / folder).glob("*.py"))]
    docs = "\n".join(path.read_text(encoding="utf-8")
                     for path in [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))])
    assert _unused_public_definitions(package, users, docs) == []


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
    # the writers render through mbsa.xmlout, and the readers, ft_from_xml
    # and tfpg_from_xml, parse through its document check, so a job that
    # writes XML and reads none never loads ElementTree
    found = [f"{path.relative_to(SRC).as_posix()}: {name}" for path in sorted(SRC.rglob("*.py"))
             for name in _xml_imports(path.read_text(encoding="utf-8"))]
    assert found == ["xmlout.py: _read_xml"]


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


def _traced_modules() -> set[str]:
    """The modules whose functions ``perfbench/tracer.py`` wraps."""
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text(encoding="utf-8"))
    tables = {target.id: ast.literal_eval(node.value) for node in tree.body if isinstance(node, ast.Assign)
              for target in node.targets if isinstance(target, ast.Name) and target.id in ("SPANNED", "COUNTED")}
    assert set(tables) == {"SPANNED", "COUNTED"}
    return {module for table in tables.values() for module, _, _ in table}


def _modules(names: str) -> set[str]:
    """``mbsa.NAME`` for each NAME of ``names``."""
    return {f"mbsa.{name}" for name in names.split()}


@pytest.mark.parametrize("name", LAYERS)
def test_each_entry_loads_exactly_the_layers_of_its_row(tmp_path, name):
    row, modules = LAYERS[name], loaded(name, tmp_path)
    package = {module for module in modules if module.split(".")[0] == "mbsa"}
    ran = {module for module in package if modules[module]}
    assert ran == {"mbsa"} | _modules(row["ran"])
    assert row["absent"] & modules.keys() == set()
    if "unrun" in row:
        assert package - ran == _modules(row["unrun"])


def test_the_cli_loads_every_layer_the_tracer_wraps(tmp_path):
    # the tracer wraps the layers that importing mbsa.cli has loaded: a layer
    # loaded later, on first use, would be reported as never called
    wrapped = _traced_modules()
    assert "mbsa.sts.engine" in wrapped
    assert wrapped - loaded("cli", tmp_path).keys() == set()


def test_the_probability_stage_loads_no_model_checking_layer(tmp_path):
    # the benchmark's fault-tree job works on cut sets it reads from files and
    # never parses, checks, explores or extends a model
    modules = loaded("trees_job", tmp_path)
    checker = {"mbsa.sts.parse", "mbsa.sts.check", "mbsa.sts.engine", "mbsa.sts.pretty", "mbsa.sts.codegen",
               "mbsa.faults", "mbsa.cutsets", "mbsa.ccaweave"}
    assert modules["mbsa.fault_tree"] and modules.keys() & checker == set()


def test_the_tracer_wraps_the_layers_of_cli_jobs(tmp_path):
    # the CLI runs a layer on first use; the tracer must still wrap it, or
    # its span would be missing and its metrics would read 0
    jobs = {"mcs": ("mcs", *FIXTURE, "--tle", "sys_dead"),
            "tfpg_check": (*CHECK, "--tfpg", "fixtures/battery_sensor.tfpg")}
    spans = collections.Counter()
    for job, argv in jobs.items():
        proc = fresh_python("perfbench/tracer.py", str(tmp_path / f"{job}.json"), job, "cli", *argv,
                            "--out-dir", str(tmp_path / job), cwd=ROOT)
        assert proc.returncode == 0, proc.stderr
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
