"""Checks on the source text of the package."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "mbsa"


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
