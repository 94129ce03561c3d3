"""Dressed-level analytics: closed formulas, exact spectra, drive matrix
elements, and the slow two-level dynamics built from them."""

import dataclasses
import math

import numpy as np
import pytest

from dickemod.dispersive import (
    EffectiveState,
    dispersive_spectrum,
    dressed_state_perturbative,
    eta_resonant,
    evolve_effective,
    lambda_perturbative,
    phase_Phi,
    project_initial,
    reconstruct_state,
    rwa_solution,
    spectrum_exact,
    subspace_rates,
    transition_rate_general,
    two_photon_rate_closed_form,
)
from dickemod.errors import (
    ConfigError,
    CutoffError,
    DegeneracyError,
    DomainError,
    LabelingError,
    NumericError,
    PhysicsGuardError,
)
from dickemod.hilbert import DISTINGUISHABLE, SpaceSpec, dicke_fock_state
from dickemod.model import ModulationSchedule, SystemParams

from oracles import dense_collective_hamiltonian, two_level_exchange_direct


BENCH = dict(omega0=1.0, Omega0=1.72, g0=0.08 / math.sqrt(2), n_qubits=2)


def bench_params(**over):
    return SystemParams(**{**BENCH, **over})


def g_schedule(params, eta=1.0, phi=0.0, frac=0.1):
    return ModulationSchedule("g", frac * params.g0_uniform, eta, phi)


def photon_matrix_element(space, vec_t, vec_s):
    """<T| n |S> summed by hand over the (k, n) grid."""
    pd = space.photon_dim
    grid_t = vec_t.reshape(space.n_qubits + 1, pd)
    grid_s = vec_s.reshape(space.n_qubits + 1, pd)
    weights = np.arange(pd)
    return complex(sum(np.vdot(grid_t[k], weights * grid_s[k]) for k in range(space.n_qubits + 1)))


# ---------------------------------------------------------------------------
# closed formulas
# ---------------------------------------------------------------------------

def test_level_formula_values():
    p = bench_params()
    assert lambda_perturbative(p, 3, 0) == pytest.approx(2.973333333333333, rel=1e-12)
    assert lambda_perturbative(p, 3, 1) == pytest.approx(3.7288888888888887, rel=1e-12)
    assert lambda_perturbative(p, 3, 2) == pytest.approx(4.457777777777777, rel=1e-12)
    # vacuum carries no second-order correction
    assert lambda_perturbative(p, 0, 0) == 0.0


def test_level_formula_guards():
    with pytest.raises(PhysicsGuardError):
        lambda_perturbative(bench_params(Omega0=1.0), 3, 0)
    p = bench_params()
    with pytest.raises(DomainError):
        lambda_perturbative(p, 2, 3)
    with pytest.raises(DomainError):
        lambda_perturbative(p, -1, 0)


def test_resonance_frequency():
    p = bench_params()
    assert eta_resonant(p, 3, 0) == pytest.approx(1.4844444444444445, rel=1e-12)
    # without coupling the pair sits at twice the bare detuning
    assert eta_resonant(bench_params(g0=0.0), 3, 0) == pytest.approx(1.44, abs=0)
    with pytest.raises(DomainError):
        eta_resonant(p, 3, 1)  # k + 2 beyond the ladder top
    with pytest.raises(DomainError):
        eta_resonant(p, 1, 0)  # fewer than two photons to trade


def test_resonance_frequency_degenerate_pairs():
    p = SystemParams(omega0=1.0, Omega0=1.72, g0=0.04, n_qubits=4)
    # 2n - 6k invariant under (n, k) -> (n+3, k+1): identical resonant drive
    assert eta_resonant(p, 4, 0) == eta_resonant(p, 7, 1)
    assert eta_resonant(p, 5, 0) == eta_resonant(p, 8, 1)


def test_closed_form_rate_value():
    p = bench_params()
    sch = (g_schedule(p),)
    xi = two_photon_rate_closed_form(p, sch, 3, 0)
    g, d = p.g0_uniform, p.delta_minus
    assert xi == pytest.approx(0.1 * math.sqrt(24.0) * g**4 / d**3, rel=1e-12)
    assert xi == pytest.approx(-1.3440272937081905e-05 + 0j, rel=1e-12)


def test_closed_form_rate_missing_pairs():
    p = bench_params()
    sch = (g_schedule(p),)
    assert two_photon_rate_closed_form(p, sch, 5, 1) == 0j  # k + 2 > N
    assert two_photon_rate_closed_form(p, sch, 1, 0) == 0j  # single photon
    assert two_photon_rate_closed_form(p, sch, 2, 0) != 0j


def test_closed_form_rate_cancellation():
    # equal-weight, equal-phase frequency modulations enter the bracket with
    # opposite signs and cancel exactly
    p = bench_params()
    sch = (
        ModulationSchedule("omega", 0.01, 1.5, 0.3),
        ModulationSchedule("Omega", 0.01, 1.5, 0.3),
    )
    assert two_photon_rate_closed_form(p, sch, 3, 0) == 0j


def test_closed_form_rate_phase():
    p = bench_params()
    base = two_photon_rate_closed_form(p, (g_schedule(p, phi=0.0),), 3, 0)
    turned = two_photon_rate_closed_form(p, (g_schedule(p, phi=math.pi / 2),), 3, 0)
    # negative detuning flips the phase winding
    assert turned / base == pytest.approx(1j, rel=1e-12)


def test_closed_form_rate_guards():
    p = bench_params()
    with pytest.raises(ConfigError):
        two_photon_rate_closed_form(
            p, (ModulationSchedule("g", 0.001, 1.0, qubit=1),), 3, 0
        )
    with pytest.raises(ConfigError):
        two_photon_rate_closed_form(p, (g_schedule(p), g_schedule(p, eta=2.0)), 3, 0)
    with pytest.raises(PhysicsGuardError):
        two_photon_rate_closed_form(bench_params(Omega0=1.0), (g_schedule(p),), 3, 0)


# ---------------------------------------------------------------------------
# exact spectra
# ---------------------------------------------------------------------------

def test_block_spectrum_matches_dense_oracle():
    space = SpaceSpec(2, 6)
    p = bench_params(with_crt=False)
    spec = spectrum_exact(space, p)
    h = dense_collective_hamiltonian(2, 6, p.omega0, p.Omega0_uniform, p.g0_uniform, False)
    for m in range(7):
        ks = range(min(m, 2) + 1)
        rows = [k * 7 + (m - k) for k in ks]
        block = h[np.ix_(rows, rows)]
        got = np.sort([spec.lam(m, s) for s in spec.labels(m)])
        assert np.allclose(got, np.linalg.eigvalsh(block), atol=1e-12)


def test_one_excitation_subspace_closed_form():
    space = SpaceSpec(2, 6)
    p = bench_params(with_crt=False)
    spec = spectrum_exact(space, p)
    om, Om, g = p.omega0, p.Omega0_uniform, p.g0_uniform
    half = math.hypot((om - Om) / 2, g * math.sqrt(2))
    # detuning is negative, so the photon-dominant branch is the lower one
    assert spec.lam(1, 0) == pytest.approx((om + Om) / 2 - half, abs=1e-14)
    assert spec.lam(1, 1) == pytest.approx((om + Om) / 2 + half, abs=1e-14)


def test_spectrum_labels_and_restriction():
    space = SpaceSpec(2, 8)
    p = bench_params(with_crt=False)
    spec = spectrum_exact(space, p, subspaces=(2, 5))
    assert spec.subspaces == [2, 5]
    with pytest.raises(CutoffError):
        spec.lam(3, 0)
    with pytest.raises(CutoffError):
        spec.lam(9, 0)
    vecs = np.stack([spec.state(5, s) for s in spec.labels(5)], axis=1)
    assert np.allclose(vecs.conj().T @ vecs, np.eye(3), atol=1e-12)
    for k in spec.labels(2):
        bare = dicke_fock_state(space, k, 2 - k).amplitudes
        assert abs(np.vdot(bare, spec.state(2, k))) ** 2 > 0.5
    with pytest.raises(DomainError):
        spectrum_exact(space, p, subspaces=(9,))
    with pytest.raises(DomainError):
        spectrum_exact(space, p, subspaces=())


def test_full_spectrum_includes_counter_rotating_terms():
    space = SpaceSpec(2, 8)
    p = bench_params(with_crt=True)
    spec = spectrum_exact(space, p)
    h = dense_collective_hamiltonian(2, 8, p.omega0, p.Omega0_uniform, p.g0_uniform, True)
    w = np.linalg.eigvalsh(h)
    for m in (0, 1, 2, 3):
        for s in spec.labels(m):
            assert np.min(np.abs(w - spec.lam(m, s))) < 1e-10
    assert spec.lam(0, 0) < 0.0  # vacuum pushed down


def test_spectrum_input_guards():
    space = SpaceSpec(2, 6)
    with pytest.raises(DomainError):
        spectrum_exact(space, SystemParams(1.0, (1.70, 1.74), 0.05, 2))
    with pytest.raises(DomainError):
        spectrum_exact(SpaceSpec(2, 6, DISTINGUISHABLE), bench_params())


@pytest.mark.parametrize("with_crt, message", [
    (False, r"subspace m=1: no eigenvector claimed labels \[0, 1\]$"),
    (True, r"subspace m=2: no eigenvector claimed labels \[0\]$"),
])
def test_resonant_system_cannot_be_labeled(with_crt, message):
    # at zero detuning the bare pairs mix half and half: no dominant component
    with pytest.raises(LabelingError, match=message):
        spectrum_exact(SpaceSpec(2, 4), SystemParams(1.0, 1.0, 0.05, 2, with_crt=with_crt))


@pytest.mark.parametrize("with_crt", [False, True])
def test_dressed_states_are_real(with_crt):
    # Upsilon's phase convention: real states, leading amplitude positive
    space = SpaceSpec(3, 9)
    p = SystemParams(1.0, 1.72, 0.08 / math.sqrt(3), 3, with_crt=with_crt)
    if with_crt:
        spec = spectrum_exact(space, p, subspaces=range(6))
    else:
        spec = dispersive_spectrum(space, p)
    for m in spec.subspaces:
        for s in spec.labels(m):
            vec = spec.state(m, s)
            assert np.all(vec.imag == 0.0)
            assert vec[space.index(s, m - s)] > 0.5


def test_default_subspaces_are_all_of_them():
    # every m whose shift is defined: with CRT the neighbour m+2 must be complete
    space = SpaceSpec(2, 8)
    for with_crt, top in ((True, 6), (False, 8)):
        p = bench_params(with_crt=with_crt)
        default = dispersive_spectrum(space, p)
        listed = dispersive_spectrum(space, p, subspaces=range(top + 1))
        assert default.subspaces == listed.subspaces == list(range(top + 1))
        for m in default.subspaces:
            for got, want in ((default._lams, listed._lams), (default._nus, listed._nus),
                              (default._vecs, listed._vecs)):
                assert np.array_equal(got[m], want[m])


# ---------------------------------------------------------------------------
# counter-rotating shifts
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n_qubits, n_max", [(2, 10), (3, 9)])
def test_shift_matches_second_order_perturbation_theory(n_qubits, n_max):
    p = SystemParams(1.0, 1.72, 0.08 / math.sqrt(n_qubits), n_qubits)
    spec = dispersive_spectrum(SpaceSpec(n_qubits, n_max), p)
    assert spec.subspaces == list(range(n_max - 1))

    def dense(om, Om, g, crt):
        return dense_collective_hamiltonian(n_qubits, n_max, om, Om, g, crt).real

    h_tc = dense(p.omega0, p.Omega0_uniform, p.g0_uniform, False)
    v = dense(0.0, 0.0, 1.0, True) - dense(0.0, 0.0, 1.0, False)  # the CRT part at g = 1
    excitations = np.add.outer(np.arange(n_qubits + 1), np.arange(n_max + 1)).ravel()
    blocks = {}
    for m in range(n_max + 1):
        rows = np.flatnonzero(excitations == m)
        w, u = np.linalg.eigh(h_tc[np.ix_(rows, rows)])
        vecs = np.zeros((len(excitations), len(w)))
        vecs[rows] = u
        blocks[m] = w, vecs
    for m in range(n_max - 1):
        w, vecs = blocks[m]
        for t in spec.labels(m):
            col = int(np.argmin(np.abs(w - spec.lam(m, t))))
            v_phi = v @ vecs[:, col]
            nu = sum(np.sum((blocks[mm][1].T @ v_phi) ** 2 / (w[col] - blocks[mm][0]))
                     for mm in (m - 2, m + 2) if mm >= 0)
            assert spec.nu(m, t) == pytest.approx(p.g0_uniform**2 * nu, abs=1e-12)


def test_shift_vanishes_without_coupling():
    space = SpaceSpec(2, 6)
    spec = dispersive_spectrum(space, bench_params(g0=0.0), subspaces=(2,))
    assert spec.nu(2, 0) == 0.0


def test_shift_rows():
    space = SpaceSpec(2, 8)
    p = bench_params()
    assert dispersive_spectrum(space, p, subspaces=(0,)).nu(0, 0) < 0.0
    # the shift of m needs the complete subspace m+2
    for m in (7, 8):
        with pytest.raises(CutoffError, match=f"nu at m={m} needs complete subspace"):
            dispersive_spectrum(space, p, subspaces=(2, m))
    with pytest.raises(CutoffError):
        dispersive_spectrum(SpaceSpec(2, 1), p)
    # without CRT every level is unshifted and every complete subspace defined
    plain = dispersive_spectrum(space, bench_params(with_crt=False), subspaces=(8,))
    assert [plain.nu(8, s) for s in plain.labels(8)] == [0.0, 0.0, 0.0]


def test_shifted_levels_track_full_diagonalization():
    space = SpaceSpec(2, 10)
    tc = dispersive_spectrum(space, bench_params(with_crt=True))
    full = spectrum_exact(space, bench_params(with_crt=True))
    for m in range(5):
        for s in tc.labels(m):
            exact = full.lam(m, s)
            bare_err = abs(tc.lam(m, s) - exact)
            if bare_err < 1e-10:
                continue
            assert abs(tc.lam_tilde(m, s) - exact) * 5 < bare_err
    # the default stops where the upper neighbour subspace is incomplete
    assert tc.subspaces == list(range(9))
    with pytest.raises(CutoffError):
        tc.lam_tilde(9, 0)


def test_perturbative_dressed_states_match_exact():
    space = SpaceSpec(2, 8)
    p = bench_params(with_crt=False)
    spec = spectrum_exact(space, p)
    for k in (0, 1, 2):
        vec = dressed_state_perturbative(space, p, 3, k)
        assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-14)
        assert abs(np.vdot(spec.state(3, k), vec)) > 0.999


# ---------------------------------------------------------------------------
# drive matrix elements and rates
# ---------------------------------------------------------------------------

def test_drive_element_rows():
    from dickemod.dispersive import upsilon

    space = SpaceSpec(2, 8)
    p = bench_params(with_crt=False)
    spec = spectrum_exact(space, p)
    sch_om = ModulationSchedule("omega", 0.05, 1.3)
    assert upsilon(spec, sch_om, 1, 3, 0, 2) == 0.0
    direct = 0.05 * photon_matrix_element(space, spec.state(3, 0), spec.state(3, 2))
    assert upsilon(spec, sch_om, 0, 3, 0, 2) == pytest.approx(direct.real, abs=1e-14)
    with pytest.raises(DomainError):
        upsilon(spec, g_schedule(p), 2, 3, 0, 1)
    with pytest.raises(DomainError):
        upsilon(spec, ModulationSchedule("Omega", 0.05, 1.3), 3, 3, 0, 1)


def test_drive_element_sum_identity():
    # for distinct eigenstates of the same block, eigenvalue orthogonality
    # pins the summed coupling element to the photon matrix element
    from dickemod.dispersive import upsilon

    space = SpaceSpec(2, 8)
    p = bench_params(with_crt=False)
    spec = spectrum_exact(space, p)
    sch_g = g_schedule(p)
    sch_Om = ModulationSchedule("Omega", 0.03, 1.3)
    ratio = -p.delta_minus / p.g0_uniform
    for pair in ((0, 1), (0, 2), (1, 2)):
        nel = photon_matrix_element(space, spec.state(3, pair[0]), spec.state(3, pair[1])).real
        total_g = sum(upsilon(spec, sch_g, k, 3, *pair) for k in range(2))
        assert total_g == pytest.approx(ratio * sch_g.epsilon * nel, abs=1e-12)
        total_om = sum(upsilon(spec, sch_Om, k, 3, *pair) for k in range(3))
        assert total_om == pytest.approx(-sch_Om.epsilon * nel, abs=1e-12)


@pytest.mark.parametrize("seed", [3, 11])
def test_rates_antisymmetric(seed):
    rng = np.random.default_rng(seed)
    space = SpaceSpec(2, 8)
    p = bench_params()
    spec = dispersive_spectrum(space, p, subspaces=(4,))
    sch = (
        g_schedule(p, phi=float(rng.uniform(0, 2 * math.pi))),
        ModulationSchedule("Omega", 0.05, 1.0, float(rng.uniform(0, 2 * math.pi))),
    )
    rates = subspace_rates(spec, sch, 4)
    for (t, s), fwd in rates.items():
        rev = rates[(s, t)]
        assert fwd.xi == pytest.approx(-np.conj(rev.xi), abs=1e-14)
        assert fwd.eta_res == rev.eta_res
        assert fwd.sign == -rev.sign


def test_general_rate_approaches_closed_form():
    errs = {}
    for g in (0.03, 0.015):
        p = SystemParams(omega0=1.0, Omega0=1.72, g0=g, n_qubits=2)
        spec = dispersive_spectrum(SpaceSpec(2, 8), p, subspaces=(3,))
        sch = (g_schedule(p),)
        general = transition_rate_general(spec, sch, 3, 0, 2)
        closed = abs(two_photon_rate_closed_form(p, sch, 3, 0))
        assert abs(abs(general.xi) - closed) < 0.25 * closed
        errs[g] = abs(abs(general.xi) - closed)
    # leading closed-form error enters two powers of coupling later
    assert errs[0.03] / errs[0.015] > 6.0


def test_general_rate_guards():
    space = SpaceSpec(2, 8)
    p = bench_params()
    spec = dispersive_spectrum(space, p, subspaces=(3,))
    with pytest.raises(DomainError):
        transition_rate_general(spec, (g_schedule(p),), 3, 1, 1)
    with pytest.raises(ConfigError):
        transition_rate_general(
            spec, (ModulationSchedule("g", 0.001, 1.0, qubit=1),), 3, 0, 2
        )


def test_degenerate_pair_is_refused():
    p = SystemParams(omega0=1.0, Omega0=1.0 - 5e-13, g0=1e-16, n_qubits=2)
    spec = dispersive_spectrum(SpaceSpec(2, 4), p, subspaces=(1,))
    with pytest.raises(DegeneracyError):
        transition_rate_general(spec, (ModulationSchedule("omega", 1e-3, 1.0),), 1, 0, 1)


def test_rate_resonance_matches_level_formula():
    space = SpaceSpec(2, 8)
    p = bench_params(with_crt=False)
    spec = dispersive_spectrum(space, p, subspaces=(3,))
    rate = transition_rate_general(spec, (g_schedule(p),), 3, 0, 2)
    assert rate.eta_res == pytest.approx(eta_resonant(p, 3, 0), abs=1e-3)


def test_exchange_is_selective_against_level_spacing():
    p = SystemParams(omega0=1.0, Omega0=1.72, g0=0.08 / math.sqrt(6), n_qubits=6)
    q = abs(two_photon_rate_closed_form(p, (g_schedule(p),), 5, 0))
    assert abs(p.delta_dispersive) / q > 10.0


# ---------------------------------------------------------------------------
# slow dynamics
# ---------------------------------------------------------------------------

def test_micromotion_phase_rows():
    space = SpaceSpec(2, 6)
    p = bench_params(with_crt=False)
    spec = spectrum_exact(space, p)
    sch = (ModulationSchedule("omega", 0.05, 1.3, 0.4),)
    assert phase_Phi(spec, sch, 2, 0, 0.0) == 0.0
    zero = (ModulationSchedule("omega", 0.0, 1.3, 0.4),)
    assert np.all(phase_Phi(spec, zero, 2, 0, np.linspace(0, 9, 40)) == 0.0)
    t = np.linspace(0.0, 7.0, 60)
    period = 2 * math.pi / 1.3
    assert np.allclose(phase_Phi(spec, sch, 2, 0, t + period), phase_Phi(spec, sch, 2, 0, t), atol=1e-12)
    diag = 0.05 * photon_matrix_element(space, spec.state(2, 0), spec.state(2, 0)).real
    want = (diag / 1.3) * (math.cos(1.3 * 0.7 + 0.4) - math.cos(0.4))
    assert phase_Phi(spec, sch, 2, 0, 0.7) == pytest.approx(want, rel=1e-12)


def test_project_initial_rows():
    space = SpaceSpec(2, 8)
    p = bench_params()
    spec = dispersive_spectrum(space, p)
    eff = project_initial(spec, dicke_fock_state(space, 0, 3))
    assert np.sum(np.abs(eff.b) ** 2) == pytest.approx(1.0, abs=1e-12)
    assert abs(eff.amplitude(3, 0)) ** 2 > 0.95
    # weight lands only where the bare excitation count matches
    for (m, s), amp in zip(eff.labels, eff.b):
        if m != 3:
            assert abs(amp) < 1e-14
    with pytest.raises(DomainError):
        project_initial(spec, dicke_fock_state(SpaceSpec(2, 9), 0, 3))
    with pytest.raises(CutoffError):
        project_initial(spec, dicke_fock_state(space, 2, 8))


def test_reconstruct_roundtrip_at_t0():
    space = SpaceSpec(2, 8)
    p = bench_params()
    spec = dispersive_spectrum(space, p)
    sch = (g_schedule(p, eta=1.4844),)
    psi0 = dicke_fock_state(space, 0, 3)
    eff = project_initial(spec, psi0)
    back = reconstruct_state(spec, sch, eff.labels, eff.b, 0.0)
    assert abs(np.vdot(psi0.amplitudes, back.amplitudes)) == pytest.approx(1.0, abs=1e-10)
    with pytest.raises(NumericError):
        reconstruct_state(spec, sch, eff.labels, eff.b * 0.5, 0.0)


def test_rwa_solution_rows():
    xi = 1.2e-5 * np.exp(0.7j)
    b_t, b_s = rwa_solution(xi, 0.6 + 0.2j, 0.1 - 0.5j, 0.0)
    assert b_t == pytest.approx(0.6 + 0.2j, abs=1e-15)
    assert b_s == pytest.approx(0.1 - 0.5j, abs=1e-15)
    t = np.linspace(0.0, 2 * math.pi / abs(xi), 301)
    b_t, b_s = rwa_solution(xi, 1.0 + 0j, 0j, t)
    norm = np.abs(b_t) ** 2 + np.abs(b_s) ** 2
    assert np.allclose(norm, 1.0, atol=1e-14)
    quarter = math.pi / (2 * abs(xi))
    b_t, b_s = rwa_solution(xi, 1.0 + 0j, 0j, quarter)
    assert abs(b_t) < 1e-12 and abs(b_s) == pytest.approx(1.0, abs=1e-12)
    b_t, b_s = rwa_solution(0.0, 0.3 + 0j, 0.4j, np.array([0.0, 5.0, 9.0]))
    assert np.all(b_t == 0.3) and np.all(b_s == 0.4j)


def test_rwa_solution_matches_direct_integration():
    xi = 0.9e-5 * np.exp(-1.1j)
    t = np.linspace(0.0, math.pi / abs(xi), 64)
    got_t, got_s = rwa_solution(xi, 0.8 + 0j, 0.6j, t)
    ref_t, ref_s = two_level_exchange_direct(xi, 0.8 + 0j, 0.6j, t)
    assert np.max(np.abs(got_t - ref_t)) < 1e-8
    assert np.max(np.abs(got_s - ref_s)) < 1e-8


def pair_state():
    return EffectiveState(labels=[(3, 0), (3, 2)], b=np.array([1.0, 0.0], complex))


def test_effective_evolution_matches_rwa_on_resonance():
    space = SpaceSpec(2, 8)
    p = bench_params()
    spec = dispersive_spectrum(space, p, subspaces=(3,))
    probe = transition_rate_general(spec, (g_schedule(p),), 3, 0, 2)
    sch = (g_schedule(p, eta=probe.eta_res),)
    t = np.linspace(0.0, math.pi / abs(probe.xi), 101)
    b = evolve_effective(spec, sch, probe.eta_res, pair_state(), t)
    ref_t, ref_s = rwa_solution(probe.xi, 1.0 + 0j, 0j, t)
    assert np.max(np.abs(b[:, 0] - ref_t)) < 1e-8
    assert np.max(np.abs(b[:, 1] - ref_s)) < 1e-8


def test_effective_evolution_detuned_lineshape():
    space = SpaceSpec(2, 8)
    p = bench_params()
    spec = dispersive_spectrum(space, p, subspaces=(3,))
    probe = transition_rate_general(spec, (g_schedule(p),), 3, 0, 2)
    q = abs(probe.xi)
    eta = probe.eta_res + 10 * q
    t = np.linspace(0.0, 2 * math.pi / (q * math.sqrt(26.0)), 801)
    b = evolve_effective(spec, (g_schedule(p, eta=eta),), eta, pair_state(), t)
    peak = float(np.max(np.abs(b[:, 1]) ** 2))
    # generalized two-level transfer: Xi^2 / (Xi^2 + (D/2)^2) at D = 10 Xi
    assert peak == pytest.approx(1.0 / 26.0, abs=1.5e-3)


def test_effective_evolution_guards():
    space = SpaceSpec(2, 8)
    p = bench_params()
    spec = dispersive_spectrum(space, p, subspaces=(3,))
    with pytest.raises(DomainError):
        evolve_effective(spec, (g_schedule(p),), 0.0, pair_state(), np.array([0.0, 1.0]))
    b = evolve_effective(spec, (), 1.0, pair_state(), np.linspace(0.0, 50.0, 11))
    assert np.max(np.abs(b - pair_state().b)) < 1e-12


def test_spectrum_is_frozen_and_holds_the_request():
    # exactly the requested subspace, the caller's params, no NaN placeholder
    for with_crt in (True, False):
        p = bench_params(with_crt=with_crt)
        spec = dispersive_spectrum(SpaceSpec(2, 8), p, subspaces=(3,))
        assert spec.subspaces == [3]
        assert spec.params is p
        assert all(math.isfinite(spec.lam_tilde(3, s)) for s in spec.labels(3))
        assert (spec.nu(3, 0) != 0.0) == with_crt
        with pytest.raises(CutoffError):
            spec.state(1, 0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.params = bench_params()
        with pytest.raises(ValueError):
            spec.state(3, 0)[0] = 1.0
