"""Integration engines: unitary evolution, master equation, trajectory checks."""

import math

import numpy as np
import pytest

from dickemod.dynamics import (
    TRACE_DRIFT_TOL,
    DensityMatrix,
    evolve_lindblad,
    evolve_schrodinger,
    lindblad_dissipator,
)
from dickemod.errors import (
    ConfigError,
    CutoffError,
    DomainError,
    NumericError,
    UnsupportedError,
)
from dickemod.dispersive import spectrum_exact
from dickemod.hilbert import SpaceSpec, StateVector, dicke_fock_state
from dickemod.model import (
    DissipationRates,
    ModulationSchedule,
    SystemParams,
    total_excitation_operator,
)

from oracles import damped_cavity_nph, dense_collective_hamiltonian, frozen_step_evolve


BENCH = dict(omega0=1.0, Omega0=1.72, g0=0.08 / math.sqrt(2), n_qubits=2)
ETA = 1.4844


def bench_params(**over):
    return SystemParams(**{**BENCH, **over})


def g_schedule(params, eta=ETA):
    return ModulationSchedule("g", 0.1 * params.g0_uniform, eta)


# ---------------------------------------------------------------------------
# unitary runs
# ---------------------------------------------------------------------------

def test_stationary_eigenstate_is_constant():
    space = SpaceSpec(2, 6)
    p = bench_params(with_crt=False)
    spec = spectrum_exact(space, p)
    psi0 = StateVector(space, spec.state(2, 0))
    tr = evolve_schrodinger(space, p, (), psi0, (0.0, 80.0), 17, tol=1e-10)
    assert tr.metadata["engine"] == "static-eigendecomposition"
    assert np.max(np.abs(tr.n_ph - tr.n_ph[0])) < 1e-8
    assert np.max(np.abs(tr.n_at - tr.n_at[0])) < 1e-8


def test_total_excitation_conserved_without_counter_rotating_terms():
    space = SpaceSpec(2, 5)
    p = bench_params(with_crt=False)
    psi0 = dicke_fock_state(space, 0, 3)
    tr = evolve_schrodinger(
        space, p, (g_schedule(p),), psi0, (0.0, 60.0), 13,
        tol=1e-10, method="direct", store_states=True,
    )
    n_tot = total_excitation_operator(space)
    vals = [np.vdot(s.amplitudes, n_tot @ s.amplitudes).real for s in tr.states]
    assert np.max(np.abs(np.array(vals) - 3.0)) < 1e-10


def test_adaptive_matches_frozen_step_oracle():
    space = SpaceSpec(2, 3)
    p = bench_params()
    sch = (g_schedule(p),)
    psi0 = dicke_fock_state(space, 0, 3)
    tr = evolve_schrodinger(
        space, p, sch, psi0, (0.0, 20.0), 5,
        tol=1e-10, method="direct", store_states=True, cutoff_policy="ignore",
    )

    def h_at(t):
        g_t = p.g0_uniform + sch[0].epsilon * math.sin(ETA * t)
        return dense_collective_hamiltonian(2, 3, p.omega0, p.Omega0_uniform, g_t, True)

    ref = frozen_step_evolve(h_at, psi0.amplitudes, 20.0, 20000)
    assert np.max(np.abs(tr.states[-1].amplitudes - ref)) < 1e-6
    n_op = np.kron(np.eye(3), np.diag(np.arange(4.0)))
    assert tr.n_ph[-1] == pytest.approx(np.vdot(ref, n_op @ ref).real, abs=1e-5)


def test_tightening_tol_improves_end_time_accuracy():
    space = SpaceSpec(2, 3)
    p = bench_params()
    sch = (g_schedule(p),)
    psi0 = dicke_fock_state(space, 0, 3)

    def end_nph(tol):
        tr = evolve_schrodinger(
            space, p, sch, psi0, (0.0, 30.0), 4,
            tol=tol, method="direct", cutoff_policy="ignore",
        )
        return tr.n_ph[-1]

    ref = end_nph(1e-12)
    loose, tight = abs(end_nph(1e-8) - ref), abs(end_nph(1e-10) - ref)
    assert tight < loose
    assert loose < 1e-6


def test_norm_gate_rejects_sloppy_run():
    space = SpaceSpec(2, 3)
    p = bench_params()
    psi0 = dicke_fock_state(space, 0, 3)
    with pytest.raises(NumericError, match="tighten tol"):
        evolve_schrodinger(
            space, p, (g_schedule(p),), psi0, (0.0, 100.0), 5,
            tol=1e-6, method="direct", cutoff_policy="ignore",
        )


def test_auto_dispatch_prefers_stroboscopic_engine():
    space = SpaceSpec(2, 3)
    p = bench_params()
    psi0 = dicke_fock_state(space, 0, 3)
    t_final = 2 * math.pi / ETA * 48
    auto = evolve_schrodinger(
        space, p, (g_schedule(p),), psi0, (0.0, t_final), 49,
        tol=1e-10, cutoff_policy="ignore",
    )
    assert auto.metadata["engine"] == "floquet-stroboscopic"
    direct = evolve_schrodinger(
        space, p, (g_schedule(p),), psi0, (0.0, t_final), 49,
        tol=1e-10, method="direct", cutoff_policy="ignore",
    )
    assert np.max(np.abs(auto.n_ph - direct.n_ph)) < 1e-7


def _evolve_either(engine, space, params, schedules, psi0, t_span, **kw):
    if engine == "schrodinger":
        return evolve_schrodinger(space, params, schedules, psi0, t_span, 5, **kw)
    return evolve_lindblad(space, params, schedules, DissipationRates(kappa=0.01),
                           DensityMatrix.from_state(psi0), t_span, 5, **kw)


@pytest.mark.parametrize("engine", ["schrodinger", "lindblad"])
@pytest.mark.parametrize(
    "drive, t_span, method, fragment",
    [
        (True, (0.0, 10.0), "verlet", "unknown method"),
        (False, (0.0, 10.0), "stroboscopic", "common drive frequency"),
        (True, (5.0, 10.0), "stroboscopic", "starting at 0"),
    ],
    ids=["unknown-method", "strobe-without-drive", "strobe-late-start"],
)
def test_method_guards_are_shared(engine, drive, t_span, method, fragment):
    space = SpaceSpec(2, 3)
    p = bench_params()
    schedules = (g_schedule(p),) if drive else ()
    with pytest.raises(ConfigError, match=fragment):
        _evolve_either(engine, space, p, schedules, dicke_fock_state(space, 0, 3), t_span,
                       method=method)


def test_run_configuration_guards():
    space = SpaceSpec(2, 3)
    p = bench_params()
    psi0 = dicke_fock_state(space, 0, 3)
    for bad_tol in (1e-5, 1e-13):
        with pytest.raises(ConfigError):
            evolve_schrodinger(space, p, (), psi0, (0.0, 1.0), 5, tol=bad_tol)
    with pytest.raises(ConfigError):
        evolve_schrodinger(space, p, (), psi0, (1.0, 1.0), 5)
    with pytest.raises(ConfigError):
        evolve_schrodinger(space, p, (), psi0, (0.0, 1.0), 1)
    with pytest.raises(DomainError):
        evolve_schrodinger(space, p, (), dicke_fock_state(SpaceSpec(2, 4), 0, 3), (0.0, 1.0), 5)


def test_cutoff_policy_rows():
    space = SpaceSpec(2, 2)
    p = bench_params(with_crt=False)
    psi0 = dicke_fock_state(space, 0, 2)  # all weight at the cutoff
    with pytest.raises(CutoffError):
        evolve_schrodinger(space, p, (), psi0, (0.0, 1.0), 3, cutoff_policy="error")
    with pytest.warns(UserWarning, match="truncation"):
        evolve_schrodinger(space, p, (), psi0, (0.0, 1.0), 3, cutoff_policy="warn")
    tr = evolve_schrodinger(space, p, (), psi0, (0.0, 1.0), 3, cutoff_policy="ignore")
    assert tr.metadata["cutoff_max_population"] > 0.9


def test_trajectory_accessors():
    space = SpaceSpec(2, 4)
    p = bench_params()
    tr = evolve_schrodinger(
        space, p, (), dicke_fock_state(space, 1, 2), (0.0, 5.0), 9, cutoff_policy="ignore"
    )
    assert tr.times.shape == (9,)
    assert len(tr.observables) == 9
    assert tr.states is None
    recon = sum(n * tr.p_ph(n) for n in range(space.photon_dim))
    assert np.allclose(recon, tr.n_ph, atol=1e-12)
    recon_at = sum(k * tr.p_at(k) for k in range(3))
    assert np.allclose(recon_at, tr.n_at, atol=1e-12)


# ---------------------------------------------------------------------------
# dissipators
# ---------------------------------------------------------------------------

def test_dissipator_single_photon_algebra():
    a = np.diag(np.sqrt(np.arange(1.0, 3.0)), 1)  # 3-level ladder
    vac = np.zeros((3, 3), complex)
    vac[0, 0] = 1.0
    one = np.zeros((3, 3), complex)
    one[1, 1] = 1.0
    assert np.allclose(lindblad_dissipator(a, vac), 0.0, atol=1e-15)
    expect = vac - one
    assert np.allclose(lindblad_dissipator(a, one), expect, atol=1e-15)


@pytest.mark.parametrize("seed", [0, 7, 19])
def test_dissipator_is_traceless(seed):
    rng = np.random.default_rng(seed)
    dim = 5
    op = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = raw @ raw.conj().T
    rho /= np.trace(rho)
    assert abs(np.trace(lindblad_dissipator(op, rho))) < 1e-14


def test_dissipator_shape_guard():
    with pytest.raises(DomainError):
        lindblad_dissipator(np.eye(3), np.eye(4))


def test_density_matrix_validation():
    space = SpaceSpec(1, 1)  # dim 4
    good = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
    DensityMatrix(space, good)
    with pytest.raises(NumericError):
        DensityMatrix(space, good * 1.01)  # trace off
    skew = good.copy()
    skew[0, 1] = 0.1
    with pytest.raises(NumericError):
        DensityMatrix(space, skew)  # not Hermitian
    with pytest.raises(NumericError):
        DensityMatrix(space, np.diag([0.7, 0.5, 0.3, -0.5]).astype(complex))
    with pytest.raises(DomainError):
        DensityMatrix(space, np.eye(3) / 3)
    pure = DensityMatrix.from_state(dicke_fock_state(space, 0, 1))
    assert pure.purity() == pytest.approx(1.0, abs=1e-14)


# ---------------------------------------------------------------------------
# master equation runs
# ---------------------------------------------------------------------------

def test_damped_cavity_matches_analytic_decay():
    space = SpaceSpec(1, 6)
    p = SystemParams(omega0=1.0, Omega0=1.72, g0=0.0, n_qubits=1)
    rho0 = DensityMatrix.from_state(dicke_fock_state(space, 0, 3))
    kappa = 0.05
    tr = evolve_lindblad(
        space, p, (), DissipationRates(kappa=kappa), rho0, (0.0, 40.0), 21,
        tol=1e-10, cutoff_policy="ignore",
    )
    ref = damped_cavity_nph(3.0, kappa, tr.times)
    assert np.max(np.abs(tr.n_ph - ref) / ref) < 1e-6
    assert tr.metadata["trace_drift_max"] <= 1e-7
    assert tr.metadata["eig_floor_min"] >= -1e-6


def test_zero_rates_match_unitary_run():
    space = SpaceSpec(2, 5)
    p = bench_params()
    sch = (g_schedule(p),)
    psi0 = dicke_fock_state(space, 0, 3)
    uni = evolve_schrodinger(
        space, p, sch, psi0, (0.0, 50.0), 26, tol=1e-10, method="direct",
        cutoff_policy="ignore",
    )
    mixed = evolve_lindblad(
        space, p, sch, DissipationRates(), DensityMatrix.from_state(psi0),
        (0.0, 50.0), 26, tol=1e-10, method="direct", cutoff_policy="ignore",
    )
    assert np.max(np.abs(uni.n_ph - mixed.n_ph)) < 1e-7
    assert np.max(np.abs(uni.n_at - mixed.n_at)) < 1e-7


def test_purity_never_increases_under_static_hamiltonian():
    # modulated runs can transiently pump coherence; the monotone statement
    # holds for a time-independent generator over a short decay window
    space = SpaceSpec(2, 5)
    p = bench_params()
    rho0 = DensityMatrix.from_state(dicke_fock_state(space, 0, 3))
    tr = evolve_lindblad(
        space, p, (), DissipationRates(kappa=0.02), rho0, (0.0, 25.0), 26,
        tol=1e-10, store_states=True, cutoff_policy="ignore",
    )
    purity = np.array([s.purity() for s in tr.states])
    assert float(np.max(np.diff(purity))) <= 1e-8


def test_lindblad_stroboscopic_matches_direct():
    space = SpaceSpec(1, 4)
    p = SystemParams(omega0=1.0, Omega0=1.72, g0=0.05, n_qubits=1)
    sch = (ModulationSchedule("g", 0.005, 1.5),)
    rho0 = DensityMatrix.from_state(dicke_fock_state(space, 0, 2))
    t_final = 2 * math.pi / 1.5 * 40
    kw = dict(tol=1e-9, cutoff_policy="ignore")
    direct = evolve_lindblad(
        space, p, sch, DissipationRates(kappa=0.01), rho0, (0.0, t_final), 41,
        method="direct", **kw,
    )
    strobe = evolve_lindblad(
        space, p, sch, DissipationRates(kappa=0.01), rho0, (0.0, t_final), 41,
        method="stroboscopic", **kw,
    )
    assert strobe.metadata["engine"] == "lindblad-stroboscopic"
    assert 0.0 <= strobe.metadata["channel_trace_defect"] <= TRACE_DRIFT_TOL
    assert np.max(np.abs(direct.n_ph - strobe.n_ph)) < 5e-5


def test_lindblad_guards():
    space = SpaceSpec(2, 4)
    p = bench_params()
    rho0 = DensityMatrix.from_state(dicke_fock_state(space, 0, 2))
    with pytest.raises(DomainError):
        evolve_lindblad(
            SpaceSpec(2, 5), p, (), DissipationRates(), rho0, (0.0, 1.0), 3
        )
    with pytest.raises(UnsupportedError):
        # qubit relaxation needs addressable qubits, not the symmetric sector
        evolve_lindblad(
            space, p, (),
            DissipationRates(gamma=(0.01, 0.01), gamma_phi=(0.0, 0.0)),
            rho0, (0.0, 1.0), 3,
        )
    # per-qubit rates need one entry per qubit: none is zero-filled or dropped
    dist = SpaceSpec(2, 2, "distinguishable")
    rho_d = DensityMatrix.from_state(dicke_fock_state(dist, 0, 1))
    for gamma in ((0.01,), (0.01, 0.02, 0.03)):
        with pytest.raises(DomainError, match="one entry per qubit"):
            evolve_lindblad(
                dist, p, (), DissipationRates(gamma=gamma, gamma_phi=(0.0,) * len(gamma)),
                rho_d, (0.0, 1.0), 3,
            )
