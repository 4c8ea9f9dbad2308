"""The benchmark's span probes and imports name attributes that exist in the package."""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path


def test_perfbench_probes_exist(monkeypatch):
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up while the module executes.
    monkeypatch.setitem(sys.modules, spec.name, spans)
    spec.loader.exec_module(spans)
    missing = [
        f"{module}.{attr}"
        for module, attr, _, _ in spans.PROBES
        if not hasattr(importlib.import_module(f"tempoflow.{module}"), attr)
    ]
    assert not missing


def test_perfbench_imports_resolve():
    """Every name a benchmark script imports from tempoflow exists."""
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    imported = []
    for path in sorted(bench.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "tempoflow":
                imported += [(path.name, node.module, alias.name) for alias in node.names]
    assert {name for script, _, name in imported if script == "run.py"} >= {
        "build_ten",
        "max_flow",
        "attach_super_terminals",
    }
    missing = [
        f"{script}: {module}.{name}"
        for script, module, name in imported
        if not hasattr(importlib.import_module(module), name)
    ]
    assert not missing
