"""No module of the package or of the tests imports a name it never uses.

Names listed in a module's `__all__` and imports marked `# noqa` are
exempt. Annotations written as strings count as uses of the names in them.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted([*(ROOT / "src" / "fcrsched").glob("*.py"),
                  *(ROOT / "tests").glob("*.py")])


def _names_in(node: ast.AST) -> set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def _string_annotation_names(tree: ast.AST) -> set[str]:
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    names: set[str] = set()
    for ann in filter(None, annotations):
        for node in ast.walk(ann):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    names |= _names_in(ast.parse(node.value, mode="eval"))
                except SyntaxError:
                    pass
    return names


def _listed_all(tree: ast.Module) -> set[str]:
    """`__all__` when the module writes it out as a literal."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            try:
                return set(ast.literal_eval(node.value))
            except ValueError:
                return set()
    return set()


def unused_imports(source: str, exported=()) -> list[str]:
    """The names `source` imports and never uses, in import order.

    `exported` adds names to a literal `__all__`, for a module that
    computes its `__all__`.
    """
    tree = ast.parse(source)
    lines = source.splitlines()
    imported: list[str] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        for alias in node.names:
            if alias.name == "*":
                continue
            if "# noqa" in lines[node.lineno - 1] \
                    or "# noqa" in lines[alias.lineno - 1]:
                continue
            imported.append(alias.asname or alias.name.split(".")[0])
    used = (_names_in(tree) | _string_annotation_names(tree)
            | _listed_all(tree) | set(exported))
    return [name for name in imported if name not in used]


def test_checker_flags_only_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import os.path as osp\n"
        "import json  # noqa: F401\n"
        "from typing import TYPE_CHECKING, Sequence\n"
        "from math import (\n"
        "    pi,\n"
        "    tau,  # noqa\n"
        ")\n"
        "from re import compile as rx\n"
        "if TYPE_CHECKING:\n"
        "    from decimal import Decimal\n"
        "__all__ = ['rx']\n"
        "def f(x: 'Decimal') -> float:\n"
        "    return osp.sep and x\n")
    assert unused_imports(source) == ["os", "Sequence", "pi"]


@pytest.mark.parametrize("path", MODULES,
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    exported = ()
    if path.parent.name == "fcrsched":
        module = "fcrsched" if path.stem == "__init__" \
            else f"fcrsched.{path.stem}"
        exported = getattr(importlib.import_module(module), "__all__", ())
    assert unused_imports(path.read_text(encoding="utf-8"), exported) == []
