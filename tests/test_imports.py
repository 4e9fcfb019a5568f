"""Every name a module of the package imports is used in that module,
somewhere no local of a function (a parameter, an assignment or loop
target, a nested def) shadows it.

The package's `__init__` is exempt: its imports are its exports. Five
imports have no caller in their module and are kept on purpose, because
`bench/tracing.py` wraps them by their module-level names to count calls.

Every exception a module of the package raises by name is a
`LoophomError`, so a caller catches all of the library's refusals with one
class.

Importing the command-line entry point also stays light: it loads neither
`dataclasses` nor `inspect`, which every cold invocation would pay for.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import loophom
from loophom.errors import LoophomError

PACKAGE = Path(loophom.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")

KEPT_FOR_TRACER = {
    ("dga", "kernel_basis"),
    ("dga", "rank_of_columns"),
    ("analysis", "differential_matrix"),
    ("analysis", "rank_of_columns"),
    ("spaces", "induced_map_on_homology"),
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


SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _local_names(func) -> set:
    """The names a function binds in its own scope: its parameters, and the
    assignment targets, loop targets and nested defs of its body."""
    args = func.args
    names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
    names |= {a.arg for a in (args.vararg, args.kwarg) if a}
    stack = list(func.body) if isinstance(func.body, list) else [func.body]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
            continue  # its body is a scope of its own
        if not isinstance(node, ast.Lambda):
            stack.extend(ast.iter_child_nodes(node))
    return names


def _used_names(tree: ast.AST) -> set:
    """Names read where no enclosing function binds them, plus the names in
    quoted annotations."""
    used = set()
    annotations = []

    def visit(node, shadowed):
        if isinstance(node, ast.Name):
            if node.id not in shadowed:
                used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        inner = shadowed
        body = []
        if isinstance(node, SCOPES):
            # decorators, defaults and annotations belong to the outer scope
            inner = shadowed | _local_names(node)
            body = node.body if isinstance(node.body, list) else [node.body]
        for child in ast.iter_child_nodes(node):
            visit(child, inner if any(child is b for b in body) else shadowed)

    visit(tree, frozenset())
    # a quoted annotation names its types inside a string
    for annotation in annotations:
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= _used_names(ast.parse(node.value, mode="eval"))
    return used


def _unused(tree: ast.Module) -> set:
    return _imported_names(tree) - _used_names(tree)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_import_is_used(path):
    unused = _unused(ast.parse(path.read_text()))
    unused -= {name for module, name in KEPT_FOR_TRACER if module == path.stem}
    assert not unused, f"{path.name} imports {sorted(unused)} without using them"


def _raised_names(tree: ast.Module) -> list:
    """(line, name) of each `raise X` and `raise X(...)`; a bare `raise`
    re-raises and names nothing."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            out.append((node.lineno, ast.unparse(exc)))
    return out


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_raised_exception_is_a_loophom_error(path):
    module = importlib.import_module(f"loophom.{path.stem}")
    untyped = []
    for line, name in _raised_names(ast.parse(path.read_text())):
        cls = getattr(module, name, None)
        if not (isinstance(cls, type) and issubclass(cls, LoophomError)):
            untyped.append(f"{path.name}:{line} raises {name}")
    assert not untyped, untyped


@pytest.mark.parametrize(
    "body",
    [
        "def f(field):\n    return field\n",
        "def f(x):\n    field = x\n    return field\n",
        "def f(xs):\n    for field in xs:\n        pass\n    return field\n",
        "def f():\n    def field():\n        pass\n    return field\n",
        "def f(field):\n    def g():\n        return field\n    return g\n",
        "f = lambda field: field\n",
    ],
    ids=["parameter", "assignment", "loop", "nested-def", "enclosing", "lambda"],
)
def test_an_import_shadowed_by_a_local_is_unused(body):
    header = "from dataclasses import dataclass, field\n\n@dataclass\nclass A:\n    x: int = 0\n\n"
    assert _unused(ast.parse(header + body)) == {"field"}
    assert _unused(ast.parse(header + "def f(x):\n    return field(x)\n")) == set()


def _loaded_after(code: str, modules: tuple) -> set:
    """Which of `modules` a fresh interpreter has loaded after `code`, with
    this package first on its path."""
    check = f"import sys\n{code}\nprint(' '.join(m for m in {modules!r} if m in sys.modules))"
    out = subprocess.run(
        [sys.executable, "-c", check],
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    return set(out.split())


@pytest.mark.parametrize("module", ["dataclasses", "inspect"])
def test_the_cli_imports_without_heavy_modules(module):
    if _loaded_after("pass", (module,)):
        pytest.skip(f"a bare interpreter already loads {module}")
    assert _loaded_after("import loophom.cli", (module,)) == set()
