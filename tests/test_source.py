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
