"""Every name a module imports is used in that module, every function,
class, method and dataclass field the package defines is named somewhere
else, and every differentiable op runs outside the tests."""

import ast
from collections import Counter
from pathlib import Path

from meshmotion import autodiff as ad

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted(ROOT.glob("src/meshmotion/*.py"))
AUTODIFF = ROOT / "src" / "meshmotion" / "autodiff.py"
SOURCES = sorted([*PACKAGE, *ROOT.glob("tests/*.py")])
READERS = sorted([*ROOT.glob("tests/*.py"), *ROOT.glob("perfbench/**/*.py")])


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


def _names(tree: ast.AST) -> Counter:
    """Every Name id, Attribute attr and str constant under ``tree``."""
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names[node.value] += 1
    return names


def _definitions(tree: ast.Module):
    """Top-level functions and classes, and the non-dunder methods of the classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node
        if isinstance(node, ast.ClassDef):
            yield from (m for m in node.body if isinstance(m, ast.FunctionDef)
                        and not (m.name.startswith("__") and m.name.endswith("__")))


def unused_definitions(checked: list[str], readers: list[str]) -> list[str]:
    """Definitions in the ``checked`` sources that no source, ``readers``
    included, names outside the definition itself."""
    trees = [ast.parse(source) for source in checked]
    names = sum((_names(t) for t in [*trees, *map(ast.parse, readers)]), Counter())
    return sorted(d.name for t in trees for d in _definitions(t)
                  if names[d.name] <= _names(d)[d.name])


def test_unused_definitions_finds_only_unnamed_ones():
    checked = ("def f():\n    return f()\n"
               "def g():\n    pass\n"
               "def h():\n    pass\n"
               "class C:\n"
               "    def m(self):\n        pass\n"
               "    def __init__(self):\n        self.n()\n"
               "    def n(self):\n        pass\n")
    assert unused_definitions([checked], ["g()\nx = 'h'\nC\n"]) == ["f", "m"]


def test_every_definition_is_named():
    assert unused_definitions([p.read_text() for p in PACKAGE],
                              [p.read_text() for p in READERS]) == []


def _fields(tree: ast.Module):
    """(class, field) for the annotated fields of ``@dataclass`` classes."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and any(
                "dataclass" in _names(d) for d in node.decorator_list):
            yield from ((node, f) for f in node.body
                        if isinstance(f, ast.AnnAssign) and isinstance(f.target, ast.Name))


def unused_fields(checked: list[str], readers: list[str]) -> list[str]:
    """Dataclass fields in the ``checked`` sources that no source, ``readers``
    included, names outside the field's own declaration; a keyword argument
    that sets a field does not count as naming it."""
    trees = [ast.parse(source) for source in checked]
    names = sum((_names(t) for t in [*trees, *map(ast.parse, readers)]), Counter())
    return sorted(f"{c.name}.{f.target.id}" for t in trees for c, f in _fields(t)
                  if names[f.target.id] <= _names(f)[f.target.id])


def test_unused_fields_finds_only_unnamed_ones():
    checked = ("from dataclasses import dataclass\n"
               "@dataclass\nclass A:\n"
               "    x: int\n    y: int = 0\n    z: str = 'z'\n    s: int = 1\n"
               "    def f(self):\n        return self.y\n"
               "@dataclass(frozen=True)\nclass B:\n    w: int\n"
               "class C:\n    v: int\n")
    assert unused_fields([checked], ["B(1).w\nA(x=1)\nprint('s')\n"]) == ["A.x", "A.z"]


def test_every_dataclass_field_is_named():
    assert unused_fields([p.read_text() for p in PACKAGE],
                         [p.read_text() for p in READERS]) == []


def autodiff_names(source: str) -> set[str]:
    """Attributes of ``ad`` or ``autodiff``, and names imported from ``autodiff``."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", "") in ("ad", "autodiff"):
            found.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").endswith("autodiff"):
            found.update(a.name for a in node.names)
    return found


def names_outside_own_def(source: str) -> set[str]:
    """Bare names a module reads, but not those a top-level def reads of itself."""
    return {n.id for d in ast.parse(source).body for n in ast.walk(d)
            if isinstance(n, ast.Name) and n.id != getattr(d, "name", None)}


def test_autodiff_names_and_names_outside_own_def_find_only_real_uses():
    source = ("import numpy as np\nfrom meshmotion import autodiff as ad\n"
              "from .autodiff import sqrt\nnp.exp(x.mean()) + ad.relu(x) + autodiff.add\n")
    assert autodiff_names(source) == {"relu", "add", "sqrt"}
    assert names_outside_own_def("def f():\n    return f(g())\ndef g():\n    return h\n") == {"g", "h"}


def test_every_differentiable_op_runs_outside_the_tests():
    # named by autodiff outside the op's own def, by another package module
    # or by perfbench; an op that only tests call belongs in oracle_ops
    ops = {n for n in ad.__all__ if not isinstance(getattr(ad, n), type)}
    used = names_outside_own_def(AUTODIFF.read_text()).union(*(
        autodiff_names(p.read_text()) for p in [*PACKAGE, *ROOT.glob("perfbench/**/*.py")]
        if p != AUTODIFF))
    assert sorted(ops - used) == []
