"""Hamiltonian assembly, modulation schedules, dissipation rates, units."""

import math

import numpy as np
import pytest

from dickemod.errors import ConfigError, DomainError
from dickemod.hilbert import DISTINGUISHABLE, SpaceSpec, dicke_fock_state
from dickemod.model import (
    DissipationRates,
    ModulationSchedule,
    SystemParams,
    build_hamiltonian,
    hamiltonian_static,
    seconds_per_time_unit,
    total_excitation_operator,
    validate_schedules,
)

from oracles import dense_collective_hamiltonian

TWO_QUBIT = dict(omega0=1.0, Omega0=1.72, g0=0.08 / math.sqrt(2), n_qubits=2)


def test_params_accessors():
    p = SystemParams(**TWO_QUBIT)
    assert p.delta_minus == pytest.approx(-0.72, abs=1e-15)
    assert p.delta_dispersive == pytest.approx(p.g0_uniform**2 / -0.72, abs=1e-18)
    assert p.is_uniform

    per = SystemParams(omega0=1.0, Omega0=(1.72, 1.7344), g0=(0.056, 0.057), n_qubits=2)
    assert not per.is_uniform
    with pytest.raises(DomainError):
        per.Omega0_uniform
    with pytest.raises(DomainError):
        SystemParams(omega0=1.0, Omega0=(1.7, 1.7, 1.7), g0=0.05, n_qubits=2)
    with pytest.raises(DomainError):
        SystemParams(omega0=1.0, Omega0=1.7, g0=0.05, n_qubits=0)


def test_schedule_validation():
    with pytest.raises(DomainError):
        ModulationSchedule("flux", 0.01, 1.0)
    with pytest.raises(DomainError):
        ModulationSchedule("g", -0.01, 1.0)
    with pytest.raises(DomainError):
        ModulationSchedule("g", 0.01, 0.0)
    s = ModulationSchedule("g", 0.01, 1.5, 0.25)
    assert s.drive(0.0) == pytest.approx(math.sin(0.25), abs=1e-15)

    p = SystemParams(**TWO_QUBIT)
    dup = (ModulationSchedule("g", 0.001, 1.5), ModulationSchedule("g", 0.002, 1.5))
    with pytest.raises(ConfigError):
        validate_schedules(p, dup)
    with pytest.warns(UserWarning):
        validate_schedules(p, (ModulationSchedule("g", 0.5 * p.g0_uniform, 1.5),))


def test_dissipation_rates():
    r = DissipationRates(kappa=1e-5, gamma=(1e-5, 2e-5), gamma_phi=(1e-5, 2e-5))
    assert r.n_qubits == 2
    assert not r.all_zero
    assert DissipationRates().all_zero
    with pytest.raises(DomainError):
        DissipationRates(kappa=-1.0)
    with pytest.raises(DomainError):
        DissipationRates(gamma=(1e-5,), gamma_phi=())


def test_static_matches_bruteforce_construction():
    space = SpaceSpec(2, 6)
    for with_crt in (True, False):
        p = SystemParams(**TWO_QUBIT, with_crt=with_crt)
        h = hamiltonian_static(space, p).toarray()
        ref = dense_collective_hamiltonian(2, 6, 1.0, 1.72, p.g0_uniform, with_crt)
        assert np.max(np.abs(h - ref)) < 1e-14


def test_zero_coupling_is_diagonal():
    space = SpaceSpec(2, 5)
    p = SystemParams(omega0=1.0, Omega0=1.72, g0=0.0, n_qubits=2)
    h = hamiltonian_static(space, p).toarray()
    assert np.max(np.abs(h - np.diag(np.diag(h)))) == 0.0
    psi = dicke_fock_state(space, 1, 3)
    e = np.vdot(psi.amplitudes, h @ psi.amplitudes).real
    assert e == pytest.approx(1.0 * 3 + 1.72 * 1, abs=1e-14)


def test_hermiticity_and_periodicity():
    space = SpaceSpec(2, 8)
    p = SystemParams(**TWO_QUBIT)
    sched = (
        ModulationSchedule("g", 0.1 * p.g0_uniform, 1.53, 0.3),
        ModulationSchedule("Omega", 0.05, 1.53, math.pi),
    )
    ham = build_hamiltonian(space, p, sched)
    period = 2 * math.pi / 1.53
    for t in (0.0, 0.71, 13.9):
        h = ham.at(t).toarray()
        assert np.max(np.abs(h - h.conj().T)) < 1e-14
        assert np.max(np.abs(h - ham.at(t + period).toarray())) < 1e-13
    assert ham.common_eta == pytest.approx(1.53)
    assert not ham.is_static


def test_modulation_extremes():
    space = SpaceSpec(2, 6)
    p = SystemParams(**TWO_QUBIT)
    eps = 0.1 * p.g0_uniform
    eta = 1.5
    ham = build_hamiltonian(space, p, (ModulationSchedule("g", eps, eta, 0.0),))
    # sin = 0: identical to static
    h_pi = ham.at(math.pi / eta).toarray()
    assert np.max(np.abs(h_pi - hamiltonian_static(space, p).toarray())) < 1e-14
    # sin = 1: coupling exactly g0 + eps
    h_top = ham.at(math.pi / (2 * eta)).toarray()
    p_top = SystemParams(omega0=1.0, Omega0=1.72, g0=p.g0_uniform + eps, n_qubits=2)
    assert np.max(np.abs(h_top - hamiltonian_static(space, p_top).toarray())) < 1e-13


@pytest.mark.parametrize("basis", ["collective", DISTINGUISHABLE])
def test_apply_matches_assembled_operator(basis):
    space = SpaceSpec(2, 6, basis)
    if basis == DISTINGUISHABLE:
        g1 = 5.66e-2
        p = SystemParams(omega0=1.0, Omega0=(1.72, 1.7344), g0=(g1, 1.01 * g1), n_qubits=2)
        sched = (
            ModulationSchedule("g", 0.1 * g1, 1.5, 0.0, qubit=1),
            ModulationSchedule("g", 0.1 * 1.01 * g1, 1.5, 0.4, qubit=2),
        )
    else:
        p = SystemParams(**TWO_QUBIT)
        sched = (
            ModulationSchedule("g", 0.1 * p.g0_uniform, 1.53, 0.3),
            ModulationSchedule("Omega", 0.05, 1.53, math.pi),
        )
    ham = build_hamiltonian(space, p, sched)
    rng = np.random.default_rng(3)
    y = rng.normal(size=(space.dim, 4)) + 1j * rng.normal(size=(space.dim, 4))
    y /= np.linalg.norm(y, axis=0)
    for t in (0.0, 0.71, 13.9, 250.3):
        h = ham.at(t)
        assert np.max(np.abs(ham.apply(t, y[:, 0]) - h @ y[:, 0])) < 1e-14
        assert np.max(np.abs(ham.apply(t, y) - h @ y)) < 1e-14


def test_tc_conserves_total_excitation():
    space = SpaceSpec(2, 8)
    n_tot = total_excitation_operator(space).toarray()
    h_tc = hamiltonian_static(space, SystemParams(**TWO_QUBIT, with_crt=False)).toarray()
    assert np.max(np.abs(h_tc @ n_tot - n_tot @ h_tc)) < 1e-12
    h_crt = hamiltonian_static(space, SystemParams(**TWO_QUBIT, with_crt=True)).toarray()
    assert np.max(np.abs(h_crt @ n_tot - n_tot @ h_crt)) > 1e-3


def test_crt_vacuum_shift():
    space = SpaceSpec(2, 10)
    h = hamiltonian_static(space, SystemParams(**TWO_QUBIT, with_crt=True)).toarray()
    assert np.linalg.eigvalsh(h)[0] < 0.0


def test_distinguishable_spectrum_is_collective_plus_dark():
    # identical qubits: sigma_z-form spectrum (shifted by N*Omega/2) equals the
    # Dicke-form spectrum plus the decoupled antisymmetric sector
    n_max = 6
    omega, Omega, g = 1.0, 1.72, 0.056
    coll = SpaceSpec(2, n_max)
    dist = SpaceSpec(2, n_max, DISTINGUISHABLE)
    p = SystemParams(omega0=omega, Omega0=Omega, g0=g, n_qubits=2, with_crt=True)
    e_coll = np.linalg.eigvalsh(hamiltonian_static(coll, p).toarray())
    e_dist = np.linalg.eigvalsh(hamiltonian_static(dist, p).toarray()) + Omega
    e_dark = omega * np.arange(n_max + 1) + Omega
    combined = np.sort(np.concatenate([e_coll, e_dark]))
    assert np.max(np.abs(np.sort(e_dist) - combined)) < 1e-10


def test_realistic_per_qubit_build():
    space = SpaceSpec(2, 8, DISTINGUISHABLE)
    g1 = 5.66e-2
    p = SystemParams(omega0=1.0, Omega0=(1.72, 1.7344), g0=(g1, 1.01 * g1), n_qubits=2)
    sched = (
        ModulationSchedule("g", 0.1 * g1, 1.5, 0.0, qubit=1),
        ModulationSchedule("g", 0.1 * 1.01 * g1, 1.5, 0.0, qubit=2),
    )
    ham = build_hamiltonian(space, p, sched)
    h = ham.at(0.37).toarray()
    assert np.max(np.abs(h - h.conj().T)) < 1e-14
    # per-qubit parameters refuse the collective basis
    with pytest.raises(DomainError):
        build_hamiltonian(SpaceSpec(2, 8), p, ())


def test_qubit_addressed_schedule_guards():
    p = SystemParams(**TWO_QUBIT)
    sched = (ModulationSchedule("g", 0.001, 1.5, qubit=1),)
    with pytest.raises(ConfigError):
        build_hamiltonian(SpaceSpec(2, 4), p, sched)
    with pytest.raises(DomainError):
        build_hamiltonian(
            SpaceSpec(2, 4, DISTINGUISHABLE),
            p,
            (ModulationSchedule("g", 0.001, 1.5, qubit=3),),
        )


def test_seconds_per_time_unit():
    assert seconds_per_time_unit(10e9) == pytest.approx(1.0 / (2 * math.pi * 1e10))
    with pytest.raises(DomainError):
        seconds_per_time_unit(0.0)
