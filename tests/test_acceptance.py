"""End-to-end acceptance gate.

Seven criteria, one test each, so a verbose run prints one pass/fail line per
criterion. Criteria 1-5 rerun the preset scenarios behind the figure1..figure4
CLI commands, built from the same definitions in dickemod.cli, but locate
every resonance with sweep_resonance instead of trusting the preset
defaults; criteria 6-7 re-assert the package-wide properties and oracle
equivalences at small scale. The expensive sweeps are shared through module
fixtures; the whole gate runs in minutes.
"""

import math

import numpy as np
import pytest

from dickemod.dispersive import (
    dispersive_spectrum,
    eta_resonant,
    rwa_solution,
    transition_rate_general,
    two_photon_rate_closed_form,
)
from dickemod.dynamics import DensityMatrix, evolve_lindblad, evolve_schrodinger, lindblad_grid
from dickemod.cli import (
    circuit_pair_systems,
    six_qubit_systems,
    snapped_span,
    two_qubit_systems,
)
from dickemod.hilbert import SpaceSpec, dicke_fock_state
from dickemod.model import (
    DissipationRates,
    ModulationSchedule,
    SystemParams,
    seconds_per_time_unit,
)
from dickemod.scan import TransferScenario, fit_rabi, sweep_resonance
from dickemod.dispersive import lambda_perturbative, spectrum_exact

from oracles import (
    damped_cavity_nph,
    dense_collective_hamiltonian,
    dominant_angular_rate,
    frozen_step_evolve,
    two_level_exchange_direct,
)


TWO_DELTA = 1.44  # 2|omega0 - Omega0| shared by every preset scenario


def slow_part(times, values, cap_omega):
    """Trace with every spectral component above cap_omega removed."""
    y = np.asarray(values, dtype=float)
    f = np.fft.rfft(y - y.mean())
    om = 2.0 * np.pi * np.fft.rfftfreq(len(y), times[1] - times[0])
    f[om > cap_omega] = 0.0
    return np.fft.irfft(f, len(y))


def banded_rate(times, values, cap_omega):
    """Strongest spectral line at or below cap_omega (Hann + padding)."""
    y = np.asarray(values, dtype=float)
    yc = (y - y.mean()) * np.hanning(len(y))
    n_pad = 8 * len(y)
    mag = np.abs(np.fft.rfft(yc, n_pad))
    om = 2.0 * np.pi * np.fft.rfftfreq(n_pad, times[1] - times[0])
    idx = np.where((om > 0.0) & (om <= cap_omega))[0]
    i = int(idx[np.argmax(mag[idx])])
    a, b, c = mag[i - 1], mag[i], mag[i + 1]
    den = a - 2.0 * b + c
    off = 0.5 * (a - c) / den if den != 0.0 else 0.0
    return om[i] + off * (om[1] - om[0])


def dressed_population_selector(target):
    return lambda tr: np.array(
        [abs(np.vdot(target, st.amplitudes)) ** 2 for st in tr.states]
    )


# ---------------------------------------------------------------------------
# shared scenario runs
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def two_qubit():
    """figure1 scenario: N=2 Fock |k=0, n=5>, swept with and without CRT."""
    systems = two_qubit_systems()
    sweeps = {}
    for tag, center in (("crt", 1.068), ("tc", 1.054)):
        system = systems[tag]
        scen = TransferScenario(space=system.space, params=system.params,
                                schedules=system.drive(1.0), psi0=system.psi0,
                                transition=(5, 0), sample_count=121, tol=1e-8)
        window = ((center - 0.004) * TWO_DELTA, (center + 0.004) * TWO_DELTA)
        sweeps[tag] = sweep_resonance(scen, window, 9, zoom=True)
    return sweeps


@pytest.fixture(scope="module")
def two_qubit_fit(two_qubit):
    """Dressed-pair Rabi fit at the swept CRT peak of the figure1 scenario."""
    system = two_qubit_systems()["crt"]
    eta = two_qubit["crt"].peak_eta
    sched = system.drive(eta)
    q = abs(two_photon_rate_closed_form(system.params, sched, 5, 0))
    span, count = snapped_span(eta, 2.2 * math.pi / q, 601)
    traj = evolve_schrodinger(system.space, system.params, sched, system.psi0,
                              span, count, tol=1e-9, store_states=True)
    spec = dispersive_spectrum(system.space, system.params)
    fit = fit_rabi(traj, dressed_population_selector(spec.state(5, 2)))
    return {"fit": fit, "q": q, "params": system.params}


@pytest.fixture(scope="module")
def six_qubit():
    """figure2/figure3 scenario: N=6 coherent field, g and g+Omega drives."""
    systems = six_qubit_systems()
    space, params, psi0 = systems["g"].space, systems["g"].params, systems["g"].psi0
    out = {"space": space}
    spec = dispersive_spectrum(space, params, subspaces=(5,))
    target = spec.state(5, 2)
    for tag, center in (("g", 1.0389), ("go", 1.0388)):
        drive = systems[tag].drive
        scen = TransferScenario(space=space, params=params, schedules=drive(1.0),
                                psi0=psi0, transition=(5, 0),
                                sample_count=61, tol=1e-8)
        window = ((center - 0.0032) * TWO_DELTA, (center + 0.0032) * TWO_DELTA)
        res = sweep_resonance(scen, window, 9, zoom=True)
        out[tag] = res

        eta = res.peak_eta
        sched = drive(eta)
        q = abs(two_photon_rate_closed_form(params, sched, 5, 0))
        span, count = snapped_span(eta, 2.2 * math.pi / q, 501)
        traj = evolve_schrodinger(space, params, sched, psi0, span, count,
                                  tol=1e-9, store_states=True)
        out[f"{tag}_q"] = q
        out[f"{tag}_traj"] = traj
        out[f"{tag}_fit"] = fit_rabi(traj, dressed_population_selector(target))
    return out


@pytest.fixture(scope="module")
def circuit_pair():
    """figure4 scenario: slightly distinguishable pair vs ideal identical pair."""
    systems = circuit_pair_systems()
    real, ideal = systems["realistic"], systems["ideal"]
    q_ideal = abs(two_photon_rate_closed_form(ideal.params, ideal.drive(1.0), 4, 0))

    out = {}
    for tag, system, center, horizon in (
        ("ideal", ideal, 1.0531, None),
        ("realistic", real, 1.0632, 1.2 * math.pi / q_ideal),
    ):
        scen = TransferScenario(space=system.space, params=system.params,
                                schedules=system.drive(1.0), psi0=system.psi0,
                                transition=(4, 0), sample_count=61, tol=1e-8)
        window = ((center - 0.004) * TWO_DELTA, (center + 0.004) * TWO_DELTA)
        out[tag] = sweep_resonance(scen, window, 9, zoom=True, horizon=horizon)

    # dissipative run at the swept realistic peak, one microsecond of lab time
    us_per_unit = seconds_per_time_unit(10e9) * 1e6
    t_final = 1.0 / us_per_unit
    drive = real.drive(out["realistic"].peak_eta)
    span, count = lindblad_grid(drive, t_final, 301)
    traj = evolve_lindblad(
        real.space, real.params, drive, real.rates,
        DensityMatrix.from_state(real.psi0), span, count, tol=1e-9,
    )
    out["lindblad"] = traj
    return out


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_criterion_1_two_qubit_resonance_location(two_qubit):
    crt = two_qubit["crt"].peak_eta / TWO_DELTA
    tc = two_qubit["tc"].peak_eta / TWO_DELTA
    print(f"criterion 1: peak factors crt={crt:.6f} (want 1.0678 +- 0.003), "
          f"tc={tc:.6f} (want 1.0540 +- 0.003)")
    assert crt == pytest.approx(1.0678, abs=0.003)
    assert tc == pytest.approx(1.0540, abs=0.003)


def test_criterion_2_closed_form_rate_vs_fitted(two_qubit_fit):
    q = two_qubit_fit["q"]
    g0 = two_qubit_fit["params"].g0_uniform
    reference = 0.1 * g0 * math.sqrt(80.0) / (9.0 * math.sqrt(2.0)) ** 3
    rel = abs(two_qubit_fit["fit"].rate - q) / q
    print(f"criterion 2: |Xi| closed={q:.6e} vs 0.1 g0 sqrt(80)/(9 sqrt(2))^3="
          f"{reference:.6e}; fitted rate off by {rel:.1%} (want 10%-35%)")
    assert q == pytest.approx(reference, rel=1e-12)
    assert 0.10 <= rel <= 0.35


def test_criterion_3_six_qubit_resonances_and_rate_ratio(six_qubit):
    f_g = six_qubit["g"].peak_eta / TWO_DELTA
    f_go = six_qubit["go"].peak_eta / TWO_DELTA
    ratio = six_qubit["go_fit"].rate / six_qubit["g_fit"].rate
    print(f"criterion 3: peak factors g={f_g:.6f} (want 1.0389 +- 0.003), "
          f"g+Omega={f_go:.6f} (want 1.0388 +- 0.003); "
          f"fitted rate ratio={ratio:.4f} (want 2 +- 0.5)")
    assert f_g == pytest.approx(1.0389, abs=0.003)
    assert f_go == pytest.approx(1.0388, abs=0.003)
    assert 1.5 <= ratio <= 2.5


def test_criterion_4_population_exchange_pattern(six_qubit):
    traj = six_qubit["go_traj"]
    t = traj.times
    main_rate = dominant_angular_rate(t, traj.p_ph(3))
    cap = 3.0 * main_rate

    ph_swing = {n: np.ptp(slow_part(t, traj.p_ph(n), cap))
                for n in range(six_qubit["space"].n_max + 1)}
    at_swing = {k: np.ptp(slow_part(t, traj.p_at(k), cap))
                for k in range(six_qubit["space"].n_qubits + 1)}
    top_ph = sorted(ph_swing, key=ph_swing.get, reverse=True)[:2]
    top_at = sorted(at_swing, key=at_swing.get, reverse=True)[:2]

    corr_ph = np.corrcoef(slow_part(t, traj.p_ph(5), cap),
                          slow_part(t, traj.p_ph(3), cap))[0, 1]
    corr_at = np.corrcoef(slow_part(t, traj.p_at(0), cap),
                          slow_part(t, traj.p_at(2), cap))[0, 1]

    sec_ph = banded_rate(t, traj.p_ph(2), cap) / main_rate
    sec_at = banded_rate(t, traj.p_at(3), cap) / main_rate

    print(f"criterion 4: dominant photon marginals {top_ph} (want 5 and 3), "
          f"atomic {top_at} (want 0 and 2); slow correlations ph={corr_ph:.3f} "
          f"at={corr_at:.3f}; secondary/main rate ph={sec_ph:.4f} at={sec_at:.4f}; "
          f"secondary swings p_ph(2)={ph_swing[2]:.4f} p_at(3)={at_swing[3]:.4f}")
    assert set(top_ph) == {5, 3}
    assert set(top_at) == {0, 2}
    assert corr_ph < -0.8 and corr_at < -0.8
    # the small sideband oscillations ride at the main exchange rate
    assert ph_swing[2] >= 0.004 and at_swing[3] >= 0.003
    assert ph_swing[2] <= 0.5 * ph_swing[3] and at_swing[3] <= 0.5 * at_swing[2]
    assert sec_ph == pytest.approx(1.0, abs=0.1)
    assert sec_at == pytest.approx(1.0, abs=0.1)


def test_criterion_5_realistic_pair_with_dissipation(circuit_pair):
    f_real = circuit_pair["realistic"].peak_eta / TWO_DELTA
    f_ideal = circuit_pair["ideal"].peak_eta / TWO_DELTA
    n_at = circuit_pair["lindblad"].n_at
    contrast = float(np.max(n_at) - np.min(n_at))
    print(f"criterion 5: peak factors realistic={f_real:.6f} "
          f"(want 1.0632 +- 0.004), ideal={f_ideal:.6f} (want 1.0531 +- 0.004); "
          f"n_at contrast over the first microsecond={contrast:.3f} (want >= 0.1)")
    assert f_real == pytest.approx(1.0632, abs=0.004)
    assert f_ideal == pytest.approx(1.0531, abs=0.004)
    assert contrast >= 0.1


def test_criterion_6_property_suite():
    g0 = 0.08 / math.sqrt(2)
    params = SystemParams(omega0=1.0, Omega0=1.72, g0=g0, n_qubits=2)
    sched = (ModulationSchedule("g", 0.1 * g0, 1.4844),)

    # unitary norm drift
    space = SpaceSpec(2, 8)
    tr = evolve_schrodinger(space, params, sched, dicke_fock_state(space, 0, 3),
                            (0.0, 200.0), 81, tol=1e-9)
    norm_drift = tr.metadata["norm_drift_max"]
    assert norm_drift <= 1e-7

    # dissipative trace drift, eigenvalue floor, analytic cavity decay
    cav_space = SpaceSpec(1, 6)
    cav = SystemParams(omega0=1.0, Omega0=1.72, g0=0.0, n_qubits=1)
    kappa = 0.05
    trl = evolve_lindblad(
        cav_space, cav, (), DissipationRates(kappa=kappa),
        DensityMatrix.from_state(dicke_fock_state(cav_space, 0, 3)),
        (0.0, 40.0), 21, tol=1e-10, cutoff_policy="ignore",
    )
    decay_err = float(np.max(
        np.abs(trl.n_ph - damped_cavity_nph(3.0, kappa, trl.times))
        / damped_cavity_nph(3.0, kappa, trl.times)))
    assert trl.metadata["trace_drift_max"] <= 1e-7
    assert trl.metadata["eig_floor_min"] >= -1e-6
    assert decay_err < 1e-6

    # total-excitation conservation without counter-rotating terms
    tc_params = SystemParams(omega0=1.0, Omega0=1.72, g0=g0, n_qubits=2,
                             with_crt=False)
    trc = evolve_schrodinger(space, tc_params, sched,
                             dicke_fock_state(space, 0, 3), (0.0, 120.0), 61,
                             tol=1e-10)
    conservation = float(np.ptp(trc.n_ph + trc.n_at))
    assert conservation <= 1e-10

    # rate antisymmetry between the two directions of one transition
    spec = dispersive_spectrum(SpaceSpec(2, 10), params, subspaces=(4,))
    fwd = transition_rate_general(spec, sched, 4, 2, 0)
    rev = transition_rate_general(spec, sched, 4, 0, 2)
    antisym = abs(fwd.xi + np.conj(rev.xi))
    assert antisym <= 1e-14

    # halving g0 shrinks the perturbative level error by the quartic factor
    def lam_err(g):
        p = SystemParams(omega0=1.0, Omega0=1.72, g0=g, n_qubits=2,
                         with_crt=False)
        ex = spectrum_exact(SpaceSpec(2, 8), p, subspaces=(3,))
        return max(abs(lambda_perturbative(p, 3, k) - ex.lam(3, k))
                   for k in ex.labels(3))

    scaling = lam_err(g0) / lam_err(g0 / 2.0)
    assert scaling >= 6.0

    # degenerate resonance partners and structural zeros of the closed form
    p6 = SystemParams(omega0=1.0, Omega0=1.72, g0=0.08 / math.sqrt(6),
                      n_qubits=6)
    for n, k in ((5, 0), (6, 1), (7, 2)):
        assert eta_resonant(p6, n, k) == eta_resonant(p6, n + 3, k + 1)
    assert two_photon_rate_closed_form(params, sched, 3, 1) == 0j
    assert two_photon_rate_closed_form(params, sched, 1, 0) == 0j

    # equal-amplitude equal-phase omega and Omega drives cancel exactly
    both = (
        ModulationSchedule("omega", 0.02, 1.4844, 0.3),
        ModulationSchedule("Omega", 0.02, 1.4844, 0.3),
    )
    cancel = two_photon_rate_closed_form(params, both, 5, 0)
    assert cancel == 0j

    print(f"criterion 6: norm drift={norm_drift:.2e}, trace "
          f"drift={trl.metadata['trace_drift_max']:.2e}, eig "
          f"floor={trl.metadata['eig_floor_min']:.2e}, decay err={decay_err:.2e}, "
          f"conservation={conservation:.2e}, antisymmetry={antisym:.2e}, "
          f"quartic scaling={scaling:.1f}x, degeneracy exact, zeros exact, "
          f"cancellation exact")


def test_criterion_7_oracle_equivalence():
    # adaptive integrator vs piecewise-frozen matrix exponentials
    space = SpaceSpec(2, 3)
    g0 = 0.08 / math.sqrt(2)
    params = SystemParams(omega0=1.0, Omega0=1.72, g0=g0, n_qubits=2)
    eta = 1.4844
    sched = (ModulationSchedule("g", 0.1 * g0, eta),)
    psi0 = dicke_fock_state(space, 0, 3)
    tr = evolve_schrodinger(space, params, sched, psi0, (0.0, 20.0), 5,
                            tol=1e-10, method="direct", store_states=True,
                            cutoff_policy="ignore")

    def h_at(t):
        g_t = g0 + sched[0].epsilon * math.sin(eta * t)
        return dense_collective_hamiltonian(2, 3, 1.0, 1.72, g_t, True)

    ref = frozen_step_evolve(h_at, psi0.amplitudes, 20.0, 20000)
    n_op = np.kron(np.eye(3), np.diag(np.arange(4.0)))
    n_ref = float(np.vdot(ref, n_op @ ref).real)
    n_err = abs(tr.n_ph[-1] - n_ref)
    assert n_err < 1e-5

    # rwa rotation vs direct integration of the two-level amplitude equations
    xi = 3e-4 * complex(math.cos(0.7), math.sin(0.7))
    b_t0, b_s0 = 0.48 + 0.36j, 0.8 + 0.0j
    t_grid = np.linspace(0.0, 2.2 * math.pi / abs(xi), 301)
    bt, bs = rwa_solution(xi, b_t0, b_s0, t_grid)
    bt_ref, bs_ref = two_level_exchange_direct(xi, b_t0, b_s0, t_grid)
    rwa_err = max(float(np.max(np.abs(bt - bt_ref))),
                  float(np.max(np.abs(bs - bs_ref))))
    assert rwa_err < 1e-8

    print(f"criterion 7: end-time n_ph vs frozen-step oracle err={n_err:.2e} "
          f"(want < 1e-5); rwa vs direct integration err={rwa_err:.2e} "
          f"(want < 1e-8)")
