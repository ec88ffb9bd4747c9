"""Every name a ``phasegate`` module imports is used in it, read from the module's syntax tree.

A name counts as used where the module reads it or lists it in ``__all__``.  An import line marked
``# noqa: F401`` is an intended re-export and is skipped.
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "phasegate").glob("*.py"))


def unused_imports(path: Path) -> list[str]:
    text = path.read_text(encoding="utf-8")
    lines, tree = text.splitlines(), ast.parse(text, str(path))
    imported = {}  # bound name -> line number
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and not (
            isinstance(node, ast.ImportFrom) and node.module == "__future__"
        ):
            if "# noqa: F401" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return [f"{path.name}:{line}: {name}" for name, line in sorted(imported.items()) if name not in used]


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_every_import_is_used(path):
    assert unused_imports(path) == []


def test_the_check_sees_an_unused_import(tmp_path):
    module = tmp_path / "module.py"
    module.write_text("import os\nimport sys  # noqa: F401\nfrom math import pi, tau\n\nprint(pi)\n")
    assert unused_imports(module) == ["module.py:1: os", "module.py:3: tau"]
