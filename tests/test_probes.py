"""The benchmark's span probes name attributes that exist in the package."""

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
