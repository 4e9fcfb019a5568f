"""Every name a module of the package imports is used in that module.

The package's `__init__` is exempt: its imports are its exports. Three
imports have no caller in their module and are kept on purpose, because
`bench/run.py` wraps them by their module-level names to count calls.
"""

import ast
from pathlib import Path

import pytest

import loophom

PACKAGE = Path(loophom.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")

KEPT_FOR_TRACER = {
    ("dga", "kernel_basis"),
    ("dga", "rank_of_columns"),
    ("analysis", "rank_of_columns"),
}


def _imported_names(tree: ast.Module) -> set:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names.add(alias.asname or alias.name.split(".")[0])
    return names


def _used_names(tree: ast.Module) -> set:
    used = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    # a quoted annotation names its types inside a string
    for annotation in annotations:
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= _used_names(ast.parse(node.value, mode="eval"))
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text())
    unused = _imported_names(tree) - _used_names(tree)
    unused -= {name for module, name in KEPT_FOR_TRACER if module == path.stem}
    assert not unused, f"{path.name} imports {sorted(unused)} without using them"

