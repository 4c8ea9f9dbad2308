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


def test_gadget_form_stays_behind_its_module(monkeypatch):
    """The verdict's modules import nothing from ``gadget``, bar the probed names.

    ``solvers`` and ``feasibility`` import from it exactly the names that
    ``PROBES`` looks up in them, and only ``cli`` and ``__init__`` import
    anything else.
    """
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)
    spec.loader.exec_module(spans)
    package = Path(__file__).resolve().parents[1] / "src" / "tempoflow"
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in package.glob("*.py")}
    defined = {
        node.name for node in trees["gadget"].body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    imported = {}
    for module, tree in trees.items():
        names = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                if node.level == 1 and node.module == "gadget" or node.module == "tempoflow.gadget":
                    names |= {alias.name for alias in node.names}
                elif node.module in (None, "tempoflow"):
                    names |= {"<module>" for alias in node.names if alias.name == "gadget"}
            elif isinstance(node, ast.Import):
                names |= {"<module>" for alias in node.names if alias.name == "tempoflow.gadget"}
        imported[module] = names
    for module in ("model", "reductions", "breakpoints", "expansion", "maxflow", "netio"):
        assert not imported[module], module
    for module in ("solvers", "feasibility"):
        probed = {attr for mod, attr, _, _ in spans.PROBES if mod == module}
        assert imported[module] == probed & defined, module
    assert {m for m, names in imported.items() if names} <= {"solvers", "feasibility", "cli", "__init__"}
    assert imported["cli"] and imported["__init__"]
