"""The demo scripts run to completion, and the README's quick start shows
what its comments say."""

import ast
import importlib
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_demo_runs_and_prints():
    demos = sorted((ROOT / "demos").glob("*.py"))
    assert demos
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for script in demos:
        result = subprocess.run(
            [sys.executable, str(script)], env=env, capture_output=True, text=True, timeout=120
        )
        assert result.returncode == 0, f"{script.name}: {result.stderr}"
        assert result.stdout.strip(), f"{script.name} printed nothing"


def _run_quick_start() -> dict:
    """Run README's library quick start one statement at a time; returns
    the value of each expression statement, keyed by its source."""
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"## Library quick start\n\n```python\n(.*?)```", readme, re.S)[1]
    namespace, values = {}, {}
    for stmt in ast.parse(block).body:
        if isinstance(stmt, ast.Expr):
            code = compile(ast.Expression(stmt.value), "README.md", "eval")
            values[ast.get_source_segment(block, stmt)] = eval(code, namespace)
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
    return values


def test_readme_quick_start_shows_what_its_comments_say(capsys):
    values = _run_quick_start()
    assert capsys.readouterr().out == "1 + t^2 + t^5 + t^7\n"
    column = list(values["table.column(1)"].items())
    assert column[:5] == [(0, 1), (2, 1), (5, 1), (6, 1), (7, 2)]
    witness = values["check_dichotomy(2, 2, range(-3, 4)).witness"]
    assert witness == {k: k % 2 for k in range(-3, 4)}
    # the four .passed/.injective results, and the oracle's table == the engine's
    ends = (".passed", ".injective", ".entries")
    flags = {src: v for src, v in values.items() if src.endswith(ends)}
    assert len(flags) == 5 and all(v is True for v in flags.values()), flags


def test_every_dotted_name_in_readme_exists():
    """Each backticked `a.b...` in README.md resolves by getattr from its
    head: `loophom`, a loophom module or export, or a standard library
    module."""
    import loophom

    roots = {m.name: importlib.import_module(f"loophom.{m.name}")
             for m in pkgutil.iter_modules(loophom.__path__)}
    roots["loophom"] = loophom
    readme = (ROOT / "README.md").read_text()
    missing, absent = [], object()
    for name in sorted(set(re.findall(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)`", readme))):
        head, *rest = name.split(".")
        obj = roots.get(head, getattr(loophom, head, absent))
        if obj is absent and head in sys.stdlib_module_names:
            obj = importlib.import_module(head)
        for attr in rest:
            obj = getattr(obj, attr, absent)
        if obj is absent:
            missing.append(name)
    assert missing == []
