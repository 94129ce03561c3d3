"""Resonance sweeps and Rabi-rate extraction."""

import dataclasses
import inspect
import math

import numpy as np
import pytest

from dickemod import scan
from dickemod.dispersive import dispersive_spectrum, transition_rate_general
from dickemod.dynamics import (
    DensityMatrix,
    Trajectory,
    evolve_lindblad,
    evolve_schrodinger,
    lindblad_grid,
)
from dickemod.errors import (
    ConfigError,
    DomainError,
    FitError,
    NoResonanceError,
    NumericError,
    SweepBoundaryError,
)
from dickemod.hilbert import (
    DISTINGUISHABLE,
    SpaceSpec,
    StateVector,
    coherent_state,
    dicke_fock_state,
    observables,
)
from dickemod.model import DissipationRates, ModulationSchedule, SystemParams
from dickemod.scan import SweepResult, TransferScenario, fit_rabi, sweep_resonance


BENCH = dict(omega0=1.0, Omega0=1.72, g0=0.08 / math.sqrt(2), n_qubits=2)
RATE = 9e-6


def synthetic_trajectory(times):
    """Bare container for callable-selector fits."""
    return Trajectory(space=SpaceSpec(1, 1), times=np.asarray(times, float),
                      joint=np.zeros((0, 2, 2)), states=None)


def rotating_trajectory(space, q, n_samples=121):
    """States cos(qt)|0,3> + sin(qt)|0,1>: n_ph = 2 + cos(2qt)."""
    t = np.linspace(0.0, 2.2 * math.pi / q, n_samples)
    hi, lo = space.index(0, 3), space.index(0, 1)
    states = []
    for x in q * t:
        amps = np.zeros(space.dim, complex)
        amps[hi], amps[lo] = math.cos(x), math.sin(x)
        states.append(StateVector(space, amps))
    return Trajectory(space=space, times=t,
                      joint=np.array([observables(s) for s in states]), states=states)


# ---------------------------------------------------------------------------
# fitting
# ---------------------------------------------------------------------------

def test_fit_recovers_synthetic_oscillation():
    t = np.linspace(0.0, 2.2 * math.pi / RATE, 181)
    tr = synthetic_trajectory(t)
    fit = fit_rabi(tr, lambda _: 0.42 * np.cos(2 * RATE * t + 0.6) + 0.5)
    assert fit.rate == pytest.approx(RATE, rel=1e-7)
    assert fit.amplitude == pytest.approx(0.42, rel=1e-7)
    assert fit.offset == pytest.approx(0.5, abs=1e-9)
    assert fit.phase == pytest.approx(0.6, abs=1e-6)
    assert fit.residual_rms < 1e-10


@pytest.mark.parametrize("phase", [0.0, 0.6, 2.0])
def test_fit_reaches_the_least_squares_rate(phase):
    # the searched frequency is the rms minimum: a step of 1e-9 either way
    # does not lower the rms of the exact linear fit
    t = np.linspace(0.0, 2.2 * math.pi / RATE, 181)
    y = 0.42 * np.cos(2 * RATE * t + phase) + 0.5
    fit = fit_rabi(synthetic_trajectory(t), lambda _: y)
    assert abs(fit.rate - RATE) <= 1e-11 * RATE
    for step in (1.0 - 1e-9, 1.0 + 1e-9):
        assert scan._linear_cosine_rms(t, y, 2 * fit.rate * step)[0] >= fit.residual_rms


def test_fit_accepts_observable_names():
    space = SpaceSpec(2, 4)
    tr = rotating_trajectory(space, RATE)
    by_mean = fit_rabi(tr, "n_ph")
    assert by_mean.rate == pytest.approx(RATE, rel=1e-7)
    assert by_mean.offset == pytest.approx(2.0, abs=1e-9)
    by_pop = fit_rabi(tr, "p_ph:3")
    assert by_pop.rate == pytest.approx(RATE, rel=1e-7)
    assert by_pop.amplitude == pytest.approx(0.5, rel=1e-7)


def test_fit_rejections():
    rng = np.random.default_rng(5)
    t = np.linspace(0.0, 2.2 * math.pi / RATE, 181)
    clean = 0.4 * np.cos(2 * RATE * t) + 0.5

    short = synthetic_trajectory(t[:12])
    with pytest.raises(ConfigError, match="16 samples"):
        fit_rabi(short, lambda _: clean[:12])

    ragged = synthetic_trajectory(np.sort(rng.uniform(0.0, t[-1], 64)))
    with pytest.raises(ConfigError, match="uniform"):
        fit_rabi(ragged, lambda traj: np.cos(2 * RATE * traj.times))

    stub = synthetic_trajectory(np.linspace(0.0, 0.9 * math.pi / RATE, 64))
    with pytest.raises(FitError, match="periods"):
        fit_rabi(stub, lambda traj: np.cos(2 * RATE * traj.times))

    noisy = synthetic_trajectory(t)
    wiggle = clean + rng.normal(0.0, 0.08, len(t))
    with pytest.raises(FitError, match="residual"):
        fit_rabi(noisy, lambda _: wiggle)

    flat = synthetic_trajectory(t)
    with pytest.raises(FitError, match="constant"):
        fit_rabi(flat, lambda _: np.full(len(t), 0.3))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_fit_refuses_a_non_finite_observable(bad):
    t = np.linspace(0.0, 2.2 * math.pi / RATE, 181)
    y = 0.4 * np.cos(2 * RATE * t) + 0.5
    y[17] = bad
    with pytest.raises(NumericError, match="NaN or an infinity"):
        fit_rabi(synthetic_trajectory(t), lambda _: y)


def test_fit_selector_guards():
    space = SpaceSpec(2, 4)
    tr = rotating_trajectory(space, RATE, n_samples=32)
    with pytest.raises(ConfigError):
        fit_rabi(tr, "p_ph")  # index missing
    with pytest.raises(ConfigError):
        fit_rabi(tr, "energy")
    for token in ("p_at:3", "p_ph:5", "p_ph:-1", "p_ph:abc", "n_ph:1"):
        with pytest.raises(ConfigError, match="unknown observable"):
            fit_rabi(tr, token)  # N = 2, n_max = 4
    with pytest.raises(ConfigError):
        fit_rabi(tr, 42)
    with pytest.raises(ConfigError):
        fit_rabi(tr, lambda _: np.zeros(7))  # wrong length


# ---------------------------------------------------------------------------
# scenarios
# ---------------------------------------------------------------------------

def scenario(space, params, epsilon_frac=0.1, **over):
    sched = (ModulationSchedule("g", epsilon_frac * params.g0_uniform, 1.0),)
    kw = dict(
        space=space,
        params=params,
        schedules=sched,
        psi0=dicke_fock_state(space, 0, 3),
        transition=(3, 0),
        sample_count=16,
        tol=1e-8,
    )
    kw.update(over)
    return TransferScenario(**kw)


def test_scenario_validation():
    space = SpaceSpec(2, 10)
    p = SystemParams(**BENCH)
    with pytest.raises(ConfigError):
        scenario(space, p, schedules=())
    with pytest.raises(DomainError):
        scenario(space, p, transition=(3, 1))  # k + 2 > N
    with pytest.raises(DomainError):
        scenario(space, p, transition=(1, 0))  # single photon
    with pytest.raises(DomainError):
        scenario(space, p, psi0=dicke_fock_state(SpaceSpec(2, 9), 0, 3))
    with pytest.raises(ConfigError):
        scenario(space, p, sample_count=15)


def _stored_target_population(traj, space, transition):
    """The max over samples of the summed |k+2, n-k-2> populations, read
    from the stored states with an explicit index list."""
    n, k = transition
    excited = [bin(a).count("1") if space.basis == DISTINGUISHABLE else a
               for a in range(space.atom_dim)]
    target = [space.index(a, n - k - 2) for a, e in enumerate(excited) if e == k + 2]
    if isinstance(traj.states[0], StateVector):
        pops = [np.sum(np.abs(st.amplitudes[target]) ** 2) for st in traj.states]
    else:
        pops = [np.sum(np.real(np.diag(st.matrix))[target]) for st in traj.states]
    return float(np.max(pops))


@pytest.mark.parametrize("basis, rates", [
    pytest.param("collective", None, id="collective"),
    pytest.param(DISTINGUISHABLE, None, id="distinguishable"),
    pytest.param("collective", DissipationRates(kappa=1e-7), id="dissipative"),
])
def test_transfer_reads_the_joint_target_cell(basis, rates):
    p = SystemParams(**BENCH)
    spec = dispersive_spectrum(SpaceSpec(2, 10), p, subspaces=(3,))
    sched = (ModulationSchedule("g", 0.1 * p.g0_uniform, 1.0),)
    pred = transition_rate_general(spec, sched, 3, 0, 2)
    horizon = 0.6 * math.pi / abs(pred.xi)
    space = SpaceSpec(2, 8, basis)
    scen = scenario(space, p, psi0=dicke_fock_state(space, 0, 3), rates=rates)
    (transfer,), (rhs_evals,), (defect,), _, (estimate,) = scan._evaluate(
        scen, [pred.eta_res], horizon)

    on_peak = (dataclasses.replace(sched[0], eta=pred.eta_res),)
    kw = dict(tol=scen.tol, store_states=True)
    if rates is None:
        traj = evolve_schrodinger(space, p, on_peak, scen.psi0, (0.0, horizon), 16, **kw)
    else:
        # the period-aligned grid the sweep point asks the Lindblad engine for
        span, count = lindblad_grid(on_peak, horizon, 16)
        traj = evolve_lindblad(space, p, on_peak, rates, DensityMatrix.from_state(scen.psi0),
                               span, count, **kw)
    assert transfer > 0.3  # half a Rabi cycle moves most of |0, 3> to |2, 1>
    assert abs(transfer - _stored_target_population(traj, space, (3, 0))) <= 1e-14
    assert rhs_evals > 0
    assert defect <= 1e-9
    assert 0.0 < estimate < math.inf


@pytest.mark.parametrize("rates", [None, DissipationRates(kappa=1e-4)],
                         ids=["unitary", "dissipative"])
def test_direct_points_record_their_error_estimate(rates):
    # a direct point states its global error estimate; a static point (no
    # active drive) makes no ODE solve, so its estimate and defect read NaN
    space, p = SpaceSpec(2, 8), SystemParams(**BENCH)
    direct = scenario(space, p, rates=rates, method="direct")
    (_, rhs_evals, defect, width, estimate), = scan._evaluate(direct, [1.5], 30.0).T
    assert rhs_evals > 0 and width == 0 and math.isnan(defect)
    assert 0.0 < estimate < 1e-6
    if rates is None:
        static = scenario(space, p, epsilon_frac=0.0)
        (_, rhs_evals, defect, width, estimate), = scan._evaluate(static, [1.5], 30.0).T
        assert rhs_evals == 0 and width == 0
        assert math.isnan(defect) and math.isnan(estimate)


# ---------------------------------------------------------------------------
# sweeps (one shared baseline keeps the suite fast)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def baseline():
    space = SpaceSpec(2, 10)
    p = SystemParams(**BENCH)
    spec = dispersive_spectrum(space, p, subspaces=(3,))
    sched = (ModulationSchedule("g", 0.1 * p.g0_uniform, 1.0),)
    predicted = transition_rate_general(spec, sched, 3, 0, 2)
    scen = scenario(space, p)
    window = (predicted.eta_res * 0.998, predicted.eta_res * 1.002)
    result = sweep_resonance(scen, window, 7, zoom=False)
    return dict(space=space, params=p, predicted=predicted, scen=scen, result=result)


def test_sweep_localizes_two_photon_resonance(baseline):
    res = baseline["result"]
    eta_res = baseline["predicted"].eta_res
    assert abs(res.peak_eta - eta_res) / eta_res < 2e-6
    assert res.fit_diagnostics["peak_transfer"] > 0.8
    assert res.fit_diagnostics["background"] < 0.05
    assert res.peak_width > 0.0
    assert np.all(np.diff(res.etas) > 0)
    assert np.all((res.transfer >= 0.0) & (res.transfer <= 1.0))


def test_sweep_is_deterministic(baseline):
    scen = baseline["scen"]
    eta_res = baseline["predicted"].eta_res
    window = (eta_res - 3e-4, eta_res + 3e-4)
    one = sweep_resonance(scen, window, 5, zoom=False)
    two = sweep_resonance(scen, window, 5, zoom=False)
    assert np.max(np.abs(one.transfer - two.transfer)) <= 1e-12
    assert abs(one.peak_eta - two.peak_eta) <= 1e-12


def test_sweeps_store_no_states(baseline, monkeypatch):
    batched = scan.evolve_schrodinger_etas
    stored, work = [], {}

    def spy(*args, **kwargs):
        bound = inspect.signature(batched).bind(*args, **kwargs)
        for eta, traj in zip(bound.arguments["etas"], batched(*args, **kwargs)):
            stored.append(traj.states is not None)
            md = traj.metadata
            work[eta] = (md["rhs_evals"], md["propagator_defect"])
            yield traj

    monkeypatch.setattr(scan, "evolve_schrodinger_etas", spy)
    eta_res = baseline["predicted"].eta_res
    res = sweep_resonance(baseline["scen"], (eta_res - 3e-4, eta_res + 3e-4), 5, zoom=True)
    assert len(stored) == 5 + 2 * scan.ZOOM_SHRINK - 2
    assert not any(stored)
    # each point's work and defect sit at its eta after the zoom merge
    assert len(work) == len(res.etas)
    for i, name in enumerate(("rhs_evals", "propagator_defect")):
        assert res.fit_diagnostics[name].tolist() == [work[e][i] for e in res.etas]


def test_dissipative_sweep_points_propagate_one_liouville_block(baseline, monkeypatch):
    # a coherent state fills both parity sectors; each point's transfer reads
    # diag(rho) only, so it propagates the p = q Liouville block alone
    space = SpaceSpec(2, 8)
    scen = scenario(space, baseline["params"], psi0=coherent_state(space, 0.8),
                    rates=DissipationRates(kappa=1e-7))
    evolve = scan.evolve_lindblad
    runs = []

    def spy(*args, **kwargs):
        traj = evolve(*args, **kwargs)
        runs.append((args, kwargs, traj))
        return traj

    monkeypatch.setattr(scan, "evolve_lindblad", spy)
    eta_res = baseline["predicted"].eta_res
    res = sweep_resonance(scen, (eta_res - 3e-4, eta_res + 3e-4), 5, zoom=False)
    assert len(runs) == 5
    n, k = scen.transition
    for (args, kwargs, traj), transfer in zip(runs, res.transfer):
        assert traj.metadata["liouville_pairs"] == ((0, 0), (1, 1))
        both = evolve(*args, **{**kwargs, "store_states": True})
        assert len(both.metadata["sectors"]) == 2
        top = float(np.max(both.joint[:, k + 2, n - k - 2]))
        assert abs(transfer - top) <= 1e-12


def test_fitted_rate_scales_linearly_with_drive():
    # linearity in the drive only holds away from strong coupling, so this
    # test runs its own weak system instead of the shared baseline; each
    # amplitude is fitted at its own swept peak because the resonance shifts
    # with drive strength and a fixed eta would inflate the generalized rate
    p = SystemParams(omega0=1.0, Omega0=1.72, g0=0.03, n_qubits=2)
    space = SpaceSpec(2, 10)
    spec = dispersive_spectrum(space, p, subspaces=(3,))
    psi0 = dicke_fock_state(space, 0, 3)
    hi = space.index(2, 1)

    rates = {}
    for frac in (0.1, 0.2):
        sched = (ModulationSchedule("g", frac * p.g0_uniform, 1.0),)
        pred = transition_rate_general(spec, sched, 3, 0, 2)
        q = abs(pred.xi)
        scen = TransferScenario(
            space=space, params=p, schedules=sched, psi0=psi0,
            transition=(3, 0), sample_count=16, tol=1e-8,
        )
        # window wide enough that most grid points sit off resonance
        res = sweep_resonance(
            scen, (pred.eta_res - 20 * q, pred.eta_res + 20 * q), 9, zoom=True
        )
        on_peak = (ModulationSchedule("g", frac * p.g0_uniform, res.peak_eta),)
        tr = evolve_schrodinger(
            space, p, on_peak, psi0, (0.0, 2.2 * math.pi / q), 181,
            tol=1e-8, store_states=True,
        )
        fit = fit_rabi(tr, lambda t: np.array(
            [abs(st.amplitudes[hi]) ** 2 for st in t.states]))
        assert fit.residual_rms < 0.05 * fit.amplitude
        rates[frac] = fit.rate

    assert rates[0.2] / rates[0.1] == pytest.approx(2.0, abs=0.2)


def test_sweep_without_drive_finds_nothing(baseline):
    scen = scenario(baseline["space"], baseline["params"], epsilon_frac=0.0)
    with pytest.raises(NoResonanceError):
        sweep_resonance(scen, (1.49, 1.50), 5, horizon=2e5, zoom=False)


def test_sweep_peak_on_boundary_is_refused(baseline):
    peak = baseline["result"].peak_eta
    with pytest.raises(SweepBoundaryError):
        sweep_resonance(
            baseline["scen"], (peak - 3e-4, peak - 3e-5), 5, zoom=False
        )


def test_sweep_input_guards(baseline):
    scen = baseline["scen"]
    with pytest.raises(ConfigError):
        sweep_resonance(scen, (1.5, 1.4), 5)
    with pytest.raises(ConfigError):
        sweep_resonance(scen, (-0.5, 1.5), 5)
    with pytest.raises(ConfigError):
        sweep_resonance(scen, (1.4, 1.5), 4)
    silent = scenario(baseline["space"], baseline["params"], epsilon_frac=0.0)
    with pytest.raises(ConfigError, match="horizon"):
        sweep_resonance(silent, (1.4, 1.5), 5)


@pytest.mark.parametrize("eta_range, grid_points, horizon, named", [
    pytest.param((1.5, math.inf), 9, None, "eta_range", id="infinite-end"),
    pytest.param((math.nan, 1.5), 9, None, "eta_range", id="nan-start"),
    pytest.param((1.4, 1.5), 9.0, None, "grid_points", id="float-grid-points"),
    pytest.param((1.4, 1.5), True, None, "grid_points", id="bool-grid-points"),
    pytest.param((1.4, 1.5), 9, math.inf, "horizon", id="infinite-horizon"),
    pytest.param((1.4, 1.5), 9, math.nan, "horizon", id="nan-horizon"),
])
def test_sweep_refuses_non_finite_or_non_integer_inputs(eta_range, grid_points, horizon, named,
                                                        monkeypatch):
    # refused before any point runs, naming the argument, with no numpy warning
    monkeypatch.setattr(scan, "_evaluate", lambda *args: pytest.fail("a point ran"))
    scen = scenario(SpaceSpec(2, 4), SystemParams(**BENCH))
    with pytest.raises(ConfigError, match=named):
        sweep_resonance(scen, eta_range, grid_points, horizon=horizon)


def test_sweep_result_validation():
    etas = np.linspace(1.0, 2.0, 5)
    good = np.array([0.1, 0.2, 0.9, 0.2, 0.1])
    SweepResult(etas=etas, transfer=good, peak_eta=1.5, peak_width=0.1)
    with pytest.raises(SweepBoundaryError):
        SweepResult(etas=etas, transfer=good, peak_eta=2.5, peak_width=0.1)
    with pytest.raises(NumericError):
        SweepResult(etas=etas, transfer=good * 2.0, peak_eta=1.5, peak_width=0.1)
    with pytest.raises(ConfigError):
        SweepResult(etas=etas, transfer=good[:4], peak_eta=1.5, peak_width=0.1)
    with pytest.raises(NumericError, match="NaN"):
        SweepResult(etas=etas, transfer=[0.1, math.nan, 0.9, 0.2, 0.1], peak_eta=1.5,
                    peak_width=0.1)


@pytest.mark.parametrize("nan_at", [0, 2])
def test_point_record_refuses_a_nan_population(nan_at):
    # a Trajectory holds whatever joint it is given; the sweep point must
    # not let a NaN through
    space = SpaceSpec(2, 4)
    scen = scenario(space, SystemParams(**BENCH))
    joint = np.array([observables(dicke_fock_state(space, 0, 3)) for _ in range(3)])
    joint[nan_at] = math.nan
    traj = Trajectory(space=space, times=np.arange(3.0), joint=joint, states=None,
                      metadata={"rhs_evals": 1})
    with pytest.raises(NumericError, match="NaN"):
        scan._point_record(scen, traj)


H = 0.25  # spacing of the hand-made triples below


@pytest.mark.parametrize("transfer, expected, fell_back", [
    # A = (y0 - 2 y1 + y2) / 2 and B = (y2 - y0) / 2 in units of the spacing
    pytest.param([0.5, 1.0, 0.7], (1.25 + 0.125 * H, 1.00625,
                                   2 * math.sqrt(1.00625 * H**2 / 0.8)), False,
                 id="vertex"),
    pytest.param([0.5, 0.2, 0.6], (1.25, 0.2, H), True, id="not-concave"),
    # the vertex lies 4.5 spacings out; the width still comes from A = -0.05
    pytest.param([0.0, 0.5, 0.9], (1.25, 0.5, 2 * math.sqrt(0.5 * H**2 / 0.1)), True,
                 id="vertex-outside"),
    pytest.param([-0.3, -0.1, -0.3], (1.25, -0.1, H), False, id="no-positive-peak"),
])
def test_vertex_reads_one_triple(transfer, expected, fell_back):
    *peak, flag = scan._vertex(np.array([1.0, 1.25, 1.5]), np.array(transfer))
    assert peak == pytest.approx(expected, rel=1e-12, abs=1e-12)
    assert flag is fell_back


def test_zoom_reads_its_vertex_inside_the_bracket(monkeypatch):
    # every zoom point reads below both ends of the coarse bracket, the worst
    # a zoom can see: the bracket's middle, the coarse maximum, is still the
    # zoomed maximum, so the vertex comes off the zoom grid, never its edge
    coarse = {1.0: 0.01, 1.25: 0.1, 1.5: 0.9, 1.75: 0.15, 2.0: 0.01}

    def fake(scenario, etas, horizon):
        etas = np.asarray(etas)
        return np.array([[coarse.get(e, 0.05) for e in etas], np.round(etas * 1e4),
                         np.full(len(etas), math.nan), np.zeros(len(etas)),
                         np.full(len(etas), math.nan)])

    monkeypatch.setattr(scan, "_evaluate", fake)
    scen = scenario(SpaceSpec(2, 4), SystemParams(**BENCH))
    res = sweep_resonance(scen, (1.0, 2.0), 5, horizon=1.0, zoom=True)
    h = 0.5 / (2 * scan.ZOOM_SHRINK)
    assert (res.peak_eta, res.fit_diagnostics["peak_transfer"], res.peak_width) == (
        pytest.approx((1.5, 0.9, 2 * math.sqrt(0.9 * h**2 / 1.7)), rel=1e-9))
    assert res.fit_diagnostics["vertex_fallback"] is False
    # the zoom points join the one per-point table in eta order
    assert len(res.etas) == 5 + 2 * scan.ZOOM_SHRINK - 2
    assert np.all(np.diff(res.etas) > 0)
    assert res.transfer.tolist() == [coarse.get(e, 0.05) for e in res.etas]
    assert res.fit_diagnostics["rhs_evals"].tolist() == np.round(res.etas * 1e4).tolist()
    assert set(res.fit_diagnostics) == {
        "horizon", "background", "vertex_fallback", "peak_transfer", "rhs_evals",
        "propagator_defect", "batch_points", "global_error_estimate", "period_solves"}
