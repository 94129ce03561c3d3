"""Tests of the benchmark itself: span arithmetic, tracer wiring, and that a
wrong result is counted as a failure rather than timed.

    python3 -m pytest -q perfbench/tests
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import dickemod  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from spans import Span, Tracer, op_metrics, self_times  # noqa: E402


def test_self_time_subtracts_the_union_of_direct_children():
    tree = [
        Span("root", 0.0, 10.0, None),
        Span("a", 1.0, 4.0, 0),
        Span("b", 3.0, 6.0, 0),  # overlaps a: [1, 6] is covered once
        Span("c", 9.0, 12.0, 0),  # only [9, 10] lies inside root
        Span("grandchild", 1.5, 2.0, 1),  # belongs to a, not to root
    ]
    assert self_times(tree) == pytest.approx([4.0, 2.5, 3.0, 3.0, 0.5])


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_op_metrics_from_nested_spans():
    clock = FakeClock()
    tracer = Tracer(clock)
    with tracer.span("scan.sweep_resonance"):
        clock.now += 1.0
        for _ in range(3):
            with tracer.span("dynamics.evolve") as ev:
                clock.now += 0.5
                with tracer.span("dynamics.ode"):
                    clock.now += 2.0
                ev.counts.update(rhs_evals=100, periods=10.0, samples=5)
    m = op_metrics(tracer.spans)
    assert m["scan.eta_points"] == 3
    assert m["scan.sweep_self_s"] == pytest.approx(1.0)
    assert m["scan.s_per_eta_point"] == pytest.approx(8.5 / 3)
    assert m["dynamics.ode_calls"] == 3
    assert m["dynamics.ode_s"] == pytest.approx(6.0)
    assert m["dynamics.evolve_self_s"] == pytest.approx(1.5)
    assert m["dynamics.rhs_evals"] == 300
    assert m["cli.parse_s"] == 0.0
    assert set(m) | {"trace.overhead_s"} == set(spans.LAYER_METRICS)


class TinyEvolve:
    """A workload stand-in: one small direct-engine evolve per operation."""

    def run(self):
        space = dickemod.SpaceSpec(1, 6)
        params = dickemod.SystemParams(omega0=1.0, Omega0=1.72, g0=0.05, n_qubits=1)
        sched = (dickemod.ModulationSchedule("g", 0.005, 1.5),)
        psi0 = dickemod.dicke_fock_state(space, 0, 1)
        return dickemod.evolve_schrodinger(space, params, sched, psi0, (0.0, 3.0), 4)

    def check(self, traj):
        pass


def test_patch_records_layer_spans_and_restores_the_package():
    from scipy.integrate import solve_ivp

    tracer = Tracer()
    with tracer.patch():
        assert dickemod.dynamics.solve_ivp is not solve_ivp
        traj = TinyEvolve().run()
    assert dickemod.dynamics.solve_ivp is solve_ivp
    assert dickemod.evolve_schrodinger is dickemod.dynamics.evolve_schrodinger
    names = [s.name for s in tracer.spans]
    assert names[0] == "dynamics.evolve"
    assert {"model.build_hamiltonian", "dynamics.ode", "hilbert.observables"} <= set(names)
    assert all(s.parent == 0 for s in tracer.spans[1:])
    m = op_metrics(tracer.spans)
    assert m["dynamics.samples"] == 4
    assert m["hilbert.observables_calls"] == 4
    assert m["dynamics.rhs_evals"] == traj.metadata["rhs_evals"]
    assert m["dynamics.periods"] == pytest.approx(3.0 * 1.5 / (2 * math.pi))


def test_traced_run_gives_every_traced_operation_its_own_spans():
    metrics, traced, untraced, attempted, failed, tracers = run.traced_run(
        TinyEvolve(), seconds=0.2)
    assert failed == 0 and len(tracers) >= 2
    assert set(metrics) == set(spans.LAYER_METRICS)
    for tracer in tracers.values():
        evolve = tracer.spans[0]
        m = op_metrics(tracer.spans)
        assert m["hilbert.observables_calls"] == 4
        assert m["dynamics.evolve_self_s"] < evolve.duration - m["dynamics.ode_s"]


def test_a_wrong_result_counts_as_failed_and_is_not_timed():
    def run_op(i):
        return 1.0 if i % 2 == 0 else 1.0 + 1e-3  # odd operations are corrupted

    def check(value):
        if value != 1.0:
            raise workloads.CheckError(f"got {value}")

    ok, attempted, failed = run.run_ops(run_op, check, seconds=0.0, min_ops=4)
    assert (attempted, failed) == (4, 2)
    assert sorted(ok) == [0, 2]


def _sweep_result(workload, peak_factor, transfer, peak_transfer):
    lo, hi = workload.window
    etas = np.linspace(lo, hi, workload.grid_points)
    sweep = dickemod.SweepResult(etas, transfer, peak_factor * workloads.TWO_DELTA, 1e-4,
                                 {"peak_transfer": peak_transfer})
    return sweep, []


def test_sweep_check_rejects_a_shifted_peak_or_a_changed_profile(tmp_path):
    w = workloads.SweepN2(3, tmp_path)
    ref = json.loads(workloads.REFERENCES.read_text())[w.name]["3"]
    peak, transfer, top = ref["peak_factor"], np.array(ref["transfer"]), ref["peak_transfer"]
    w.check(_sweep_result(w, peak, transfer, top))
    halved_peak = transfer.copy()
    halved_peak[transfer.argmax()] *= 0.5  # still the argmax
    assert halved_peak.argmax() == transfer.argmax()
    one_edge_off = transfer.copy()
    one_edge_off[0] *= 1.0001
    for bad in (
        _sweep_result(w, peak * (1 + 1e-4), transfer, top),
        _sweep_result(w, peak, transfer * 1.001, top * 1.001),
        _sweep_result(w, peak, halved_peak, top),
        _sweep_result(w, peak, transfer, top * 0.5),
        _sweep_result(w, peak, one_edge_off, top),
        (_sweep_result(w, peak, transfer, top)[0], ["population at the Fock cutoff"]),
    ):
        with pytest.raises(workloads.CheckError):
            w.check(bad)


def _lindblad_result(contrast, engine="lindblad-stroboscopic", drift=1e-12):
    n_at = np.zeros(301)
    n_at[7] = contrast
    data = np.column_stack([np.linspace(0, 1, 301), np.ones(301), n_at])
    header = {"engine": engine, "trace_drift_max": repr(drift), "eig_floor_min": "0.0"}
    return {"code": 0, "warnings": [], "header": header, "names": ["t_us", "n_ph", "n_at"],
            "data": data, "svg_bytes": 100}


def test_lindblad_check_rejects_wrong_outputs(tmp_path):
    w = workloads.LindbladCli(5, tmp_path)
    ref = json.loads(workloads.REFERENCES.read_text())[w.name]["5"]["n_at_contrast"]
    w.check(_lindblad_result(ref))
    for bad in (_lindblad_result(ref * 1.001), _lindblad_result(ref, engine="lindblad-adaptive-rk"),
                _lindblad_result(ref, drift=1e-6)):
        with pytest.raises(workloads.CheckError):
            w.check(bad)


def _write_passing_outputs(out_dir, contrast):
    """lindblad.csv and lindblad.svg that pass LindbladCli's check."""
    out_dir.mkdir(parents=True, exist_ok=True)
    r = _lindblad_result(contrast)
    lines = [f"# {k} = {v}" for k, v in r["header"].items()] + [",".join(r["names"])]
    lines += [",".join(repr(float(x)) for x in row) for row in r["data"]]
    (out_dir / "lindblad.csv").write_text("\n".join(lines) + "\n")
    (out_dir / "lindblad.svg").write_text("<svg/>")


def test_lindblad_outputs_left_by_an_earlier_operation_do_not_pass(tmp_path, monkeypatch):
    w = workloads.LindbladCli(5, tmp_path)
    ref = json.loads(workloads.REFERENCES.read_text())[w.name]["5"]["n_at_contrast"]
    _write_passing_outputs(w.out_dir, ref)
    header, names, data = workloads._csv(w.out_dir / "lindblad.csv")
    w.check({"code": 0, "warnings": [], "header": header, "names": names, "data": data,
             "svg_bytes": 6})
    # a run_scenario that reports success but writes nothing
    monkeypatch.setattr(dickemod, "run_scenario", lambda *args, **kwargs: 0)
    ok, attempted, failed = run.run_ops(lambda i: w.run(), w.check, seconds=0.0)
    assert (ok, attempted, failed) == ({}, 1, 1)
