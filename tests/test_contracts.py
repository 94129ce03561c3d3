"""Contracts between the package and the code around it: the benchmark's
span targets resolve, and the test oracles stay independent of dickemod."""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_span_targets_resolve(monkeypatch):
    # a name missing here would fail every traced benchmark operation
    spec = importlib.util.spec_from_file_location("spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "spans", spans)  # its dataclasses look the module up
    spec.loader.exec_module(spans)
    missing = [(module, attribute) for module, attribute, _ in spans.TARGETS
               if not hasattr(importlib.import_module(module), attribute)]
    assert spans.TARGETS and not missing


def test_oracles_import_nothing_from_dickemod():
    tree = ast.parse((ROOT / "tests" / "oracles.py").read_text())
    modules = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names]
    modules += [node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert modules and not [m for m in modules if m.split(".")[0] == "dickemod"]
