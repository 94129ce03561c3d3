"""In-memory spans around calls into dickemod, and the per-layer metrics
derived from them.

Spans are recorded from the benchmark side only: `Tracer.patch` replaces the
module attributes through which the package (and the workloads) look up each
layer's public functions, plus the two dependency calls `dynamics` makes
(`scipy.integrate.solve_ivp` and `numpy.linalg.matrix_power`), and restores
them afterwards. Nothing under src/ is modified. Spans stay in memory until
the run ends.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import math
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

# (module, attribute, span name). The module is the one whose globals the
# caller resolves the name in, so each entry wraps one call site family.
TARGETS = (
    ("dickemod", "sweep_resonance", "scan.sweep_resonance"),
    ("dickemod", "fit_rabi", "scan.fit_rabi"),
    ("dickemod", "evolve_schrodinger", "dynamics.evolve"),
    ("dickemod", "run_scenario", "cli.run_scenario"),
    ("dickemod", "dispersive_spectrum", "dispersive.spectrum"),
    ("dickemod", "two_photon_rate_closed_form", "dispersive.rate"),
    ("dickemod.scan", "evolve_schrodinger", "dynamics.evolve"),
    ("dickemod.scan", "evolve_lindblad", "dynamics.evolve"),
    ("dickemod.scan", "two_photon_rate_closed_form", "dispersive.rate"),
    ("dickemod.cli", "load_config", "cli.parse"),
    ("dickemod.cli", "evolve_lindblad", "dynamics.evolve"),
    ("dickemod.cli", "write_csv", "cli.write"),
    ("dickemod.cli", "write_svg", "cli.write"),
    ("dickemod.dynamics", "build_hamiltonian", "model.build_hamiltonian"),
    ("dickemod.dynamics", "observables", "hilbert.observables"),
    ("dickemod.dynamics", "solve_ivp", "dynamics.ode"),
    ("numpy.linalg", "matrix_power", "dynamics.channel_power"),
)

MIB = 2.0**20


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into the same tracer's spans
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval that its direct
    children cover (overlapping children are counted once, and a child
    reaching outside its parent only counts inside it)."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        reach = s.start
        for c in sorted(children.get(i, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.duration - covered)
    return out


class Tracer:
    """Records the nested spans of one operation."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        s = Span(name, self.clock(), math.nan, parent)
        self.spans.append(s)
        self._stack.append(idx)
        try:
            yield s
        finally:
            self._stack.pop()
            s.end = self.clock()

    def wrap(self, fn, name: str):
        def traced(*args, **kwargs):
            with self.span(name) as s:
                result = fn(*args, **kwargs)
            _record_counts(s, fn, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def patch(self):
        saved = []
        try:
            for mod_name, attr, span_name in TARGETS:
                mod = importlib.import_module(mod_name)
                original = getattr(mod, attr)
                saved.append((mod, attr, original))
                setattr(mod, attr, self.wrap(original, span_name))
            yield self
        finally:
            for mod, attr, original in reversed(saved):
                setattr(mod, attr, original)


def _record_counts(span: Span, fn, args, kwargs, result) -> None:
    """Work counts and gate values read from a finished call."""
    if span.name == "dynamics.evolve":
        meta = result.metadata
        bound = inspect.signature(fn).bind(*args, **kwargs).arguments
        eta = bound["schedules"][0].eta
        times = result.times
        span.counts.update(
            rhs_evals=meta.get("rhs_evals", 0),
            periods=(times[-1] - times[0]) * eta / (2.0 * math.pi),
            samples=len(times),
            norm_drift=meta.get("norm_drift_max", 0.0),
            propagator_defect=meta.get("propagator_defect", 0.0),
            trace_drift=meta.get("trace_drift_max", 0.0),
        )
        if "trace_drift_max" in meta:
            # dense superoperator on vec(rho): (dim^2)^2 complex128 entries
            span.counts["superop_mib"] = bound["space"].dim ** 4 * 16 / MIB
    elif span.name == "cli.write":
        path = args[0] if args else kwargs["path"]
        span.counts["bytes"] = Path(path).stat().st_size


# per-layer metric -> (unit, better)
LAYER_METRICS = {
    "cli.parse_s": ("s", "lower"),
    "cli.write_s": ("s", "lower"),
    "cli.bytes_written": ("B", "lower"),
    "scan.sweep_self_s": ("s", "lower"),
    "scan.eta_points": ("count", "lower"),
    "scan.s_per_eta_point": ("s", "lower"),
    "scan.fit_rabi_s": ("s", "lower"),
    "dynamics.ode_s": ("s", "lower"),
    "dynamics.ode_calls": ("count", "lower"),
    "dynamics.rhs_evals": ("count", "lower"),
    "dynamics.evolve_self_s": ("s", "lower"),
    "dynamics.channel_power_s": ("s", "lower"),
    "dynamics.superop_mib": ("MiB", "lower"),
    "dynamics.periods": ("count", "lower"),
    "dynamics.samples": ("count", "lower"),
    "dynamics.norm_drift_max": ("1", "lower"),
    "dynamics.propagator_defect_max": ("1", "lower"),
    "dynamics.trace_drift_max": ("1", "lower"),
    "model.build_hamiltonian_s": ("s", "lower"),
    "model.build_hamiltonian_calls": ("count", "lower"),
    "hilbert.observables_s": ("s", "lower"),
    "hilbert.observables_calls": ("count", "lower"),
    "dispersive.spectrum_s": ("s", "lower"),
    "dispersive.rate_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def op_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of the spans of one operation (trace.overhead_s is
    filled in by the caller, which times untraced operations too)."""
    selfs = self_times(spans)
    total: dict[str, float] = {}
    self_total: dict[str, float] = {}
    calls: dict[str, int] = {}
    for s, st in zip(spans, selfs):
        total[s.name] = total.get(s.name, 0.0) + s.duration
        self_total[s.name] = self_total.get(s.name, 0.0) + st
        calls[s.name] = calls.get(s.name, 0) + 1

    def counts(span_name, key):
        return [s.counts[key] for s in spans if s.name == span_name and key in s.counts]

    sweep_ids = {i for i, s in enumerate(spans) if s.name == "scan.sweep_resonance"}
    eta_points = sum(
        1 for s in spans if s.name == "dynamics.evolve" and s.parent in sweep_ids
    )
    sweep_s = total.get("scan.sweep_resonance", 0.0)
    return {
        "cli.parse_s": total.get("cli.parse", 0.0),
        "cli.write_s": total.get("cli.write", 0.0),
        "cli.bytes_written": float(sum(counts("cli.write", "bytes"))),
        "scan.sweep_self_s": self_total.get("scan.sweep_resonance", 0.0),
        "scan.eta_points": float(eta_points),
        "scan.s_per_eta_point": sweep_s / eta_points if eta_points else 0.0,
        "scan.fit_rabi_s": total.get("scan.fit_rabi", 0.0),
        "dynamics.ode_s": total.get("dynamics.ode", 0.0),
        "dynamics.ode_calls": float(calls.get("dynamics.ode", 0)),
        "dynamics.rhs_evals": float(sum(counts("dynamics.evolve", "rhs_evals"))),
        "dynamics.evolve_self_s": self_total.get("dynamics.evolve", 0.0),
        "dynamics.channel_power_s": total.get("dynamics.channel_power", 0.0),
        "dynamics.superop_mib": max(counts("dynamics.evolve", "superop_mib"), default=0.0),
        "dynamics.periods": float(sum(counts("dynamics.evolve", "periods"))),
        "dynamics.samples": float(sum(counts("dynamics.evolve", "samples"))),
        "dynamics.norm_drift_max": max(counts("dynamics.evolve", "norm_drift"), default=0.0),
        "dynamics.propagator_defect_max": max(
            counts("dynamics.evolve", "propagator_defect"), default=0.0
        ),
        "dynamics.trace_drift_max": max(counts("dynamics.evolve", "trace_drift"), default=0.0),
        "model.build_hamiltonian_s": total.get("model.build_hamiltonian", 0.0),
        "model.build_hamiltonian_calls": float(calls.get("model.build_hamiltonian", 0)),
        "hilbert.observables_s": total.get("hilbert.observables", 0.0),
        "hilbert.observables_calls": float(calls.get("hilbert.observables", 0)),
        "dispersive.spectrum_s": total.get("dispersive.spectrum", 0.0),
        "dispersive.rate_s": total.get("dispersive.rate", 0.0),
    }


def median_metrics(per_op: list[dict[str, float]]) -> dict[str, float]:
    """Median over operations of each metric."""
    return {k: statistics.median(m[k] for m in per_op) for k in per_op[0]}
