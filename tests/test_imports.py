"""Every name a module imports is used in that module."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted([*ROOT.glob("src/meshmotion/*.py"), *ROOT.glob("tests/*.py")])


def unused_imports(source: str) -> list[str]:
    """Imported names that no Name node reads; names in a top-level
    ``__all__`` count as read."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names if a.name != "*")
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted(imported - used)


def test_unused_imports_finds_only_unread_names():
    source = ("import os\nimport numpy as np\nimport a.b\nfrom x import y, z as w\n"
              "from __future__ import annotations\n__all__ = ['y']\nprint(a.b, np)\n")
    assert unused_imports(source) == ["os", "w"]


def test_every_import_is_used():
    found = [f"{path.relative_to(ROOT)}: {name}"
             for path in SOURCES for name in unused_imports(path.read_text())]
    assert found == []
