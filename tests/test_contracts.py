"""Contracts between the package and the code around it: the benchmark's
span targets resolve, the test oracles stay independent of dickemod, and the
package imports no scipy module it does not need."""

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


def test_package_imports_neither_scipy_optimize_nor_scipy_special():
    # each costs import time: fit_rabi solves its linear part exactly and
    # searches one frequency, and hilbert takes log n! from math
    banned = ("scipy.optimize", "scipy.special")
    found = []
    for path in sorted((ROOT / "src" / "dickemod").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [f"{node.module}.{alias.name}"
                                               for alias in node.names]
            else:
                continue
            found += [(path.name, name) for name in names
                      if any(name == b or name.startswith(b + ".") for b in banned)]
    assert not found


def test_scipy_private_surface_the_stepper_reads():
    # dynamics._SampledDOP853 steps with DOP853's own tableau and controller
    # fields and builds its dense output from DOP853's extra stages, D and the
    # last step's h_previous, t_old and y_old, and ModulatedHamiltonian calls
    # scipy.sparse's product kernel without its dispatch; a scipy that moved
    # any of them fails here, by name
    from scipy.integrate import DOP853
    from scipy.integrate._ivp import rk
    from scipy.sparse import _sparsetools

    class_fields = ("A", "B", "C", "E3", "E5", "A_EXTRA", "C_EXTRA", "D", "n_stages",
                    "TOO_SMALL_STEP")
    missing = [name for name in class_fields if not hasattr(DOP853, name)]
    solver = DOP853(lambda t, y: -y, 0.0, [1.0 + 0j], 1.0)
    solver.step()
    missing += [name for name in ("K_extended", "K", "error_exponent", "f", "h_abs", "max_step",
                                  "rtol", "atol", "direction", "nfev", "h_previous", "t_old",
                                  "y_old") if not hasattr(solver, name)]
    assert not missing, f"scipy's DOP853 lacks {missing}"
    assert solver.K.base is solver.K_extended, "DOP853.K no longer views K_extended"
    assert DOP853.n_stages == 12 and DOP853.A.shape == (12, 12)
    assert DOP853.D.shape == (4, 16), "DOP853's interpolant no longer has 4 rows D over 16 stages"
    assert DOP853.A_EXTRA.shape == (3, 16) and DOP853.C_EXTRA.shape == (3,), \
        "DOP853's dense output no longer adds 3 stages"
    assert (rk.SAFETY, rk.MIN_FACTOR, rk.MAX_FACTOR) == (0.9, 0.2, 10), \
        "scipy's step controller constants changed"
    assert hasattr(_sparsetools, "csr_matvecs"), "scipy.sparse._sparsetools.csr_matvecs is gone"
