"""Hamiltonian assembly, modulation schedules, dissipation rates, units."""

import dataclasses
import math

import numpy as np
import pytest

from dickemod.errors import ConfigError, DomainError
from dickemod.hilbert import DISTINGUISHABLE, SpaceSpec, dicke_fock_state, parity_sectors
from dickemod.model import (
    DissipationRates,
    ModulationSchedule,
    SystemParams,
    active_drives,
    build_hamiltonian,
    seconds_per_time_unit,
    validate_schedules,
)

from oracles import dense_collective_hamiltonian, total_excitation

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
        h = build_hamiltonian(space, p).h_const.toarray()
        ref = dense_collective_hamiltonian(2, 6, 1.0, 1.72, p.g0_uniform, with_crt)
        assert np.max(np.abs(h - ref)) < 1e-14


def test_zero_coupling_is_diagonal():
    space = SpaceSpec(2, 5)
    p = SystemParams(omega0=1.0, Omega0=1.72, g0=0.0, n_qubits=2)
    h = build_hamiltonian(space, p).h_const.toarray()
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
    assert active_drives(sched)


def test_modulation_extremes():
    space = SpaceSpec(2, 6)
    p = SystemParams(**TWO_QUBIT)
    eps = 0.1 * p.g0_uniform
    eta = 1.5
    ham = build_hamiltonian(space, p, (ModulationSchedule("g", eps, eta, 0.0),))
    # sin = 0: identical to static
    h_pi = ham.at(math.pi / eta).toarray()
    assert np.max(np.abs(h_pi - build_hamiltonian(space, p).h_const.toarray())) < 1e-14
    # sin = 1: coupling exactly g0 + eps
    h_top = ham.at(math.pi / (2 * eta)).toarray()
    p_top = SystemParams(omega0=1.0, Omega0=1.72, g0=p.g0_uniform + eps, n_qubits=2)
    assert np.max(np.abs(h_top - build_hamiltonian(space, p_top).h_const.toarray())) < 1e-13


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


def _coupling_drive(g0):
    space = SpaceSpec(2, 5)
    p = SystemParams(omega0=1.0, Omega0=1.72, g0=g0, n_qubits=2)
    sched = (ModulationSchedule("g", 0.004, 1.53, 0.3),
             ModulationSchedule("Omega", 0.05, 1.53, math.pi))
    return build_hamiltonian(space, p, sched)


def _random_columns(dim, m, seed=3):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(dim, m)) + 1j * rng.normal(size=(dim, m))


def _union_pattern(ham):
    # g0 = 0: every coupling entry of the g drive is missing from h_const
    rows, cols = ham.terms[0][1].nonzero()
    assert np.all(np.asarray(ham.h_const[rows, cols]) == 0)
    return ham


def _replaced(ham):
    # the copy must apply its own h_const, not rows derived for the original
    ham.apply(0.4, _random_columns(ham.space.dim, 2))
    return dataclasses.replace(ham, h_const=(2.0 * ham.h_const).tocsr())


PATTERN_CASES = [
    pytest.param(0.0, _union_pattern, id="union-pattern"),
    pytest.param(0.0566, _replaced, id="replaced-h-const"),
]


@pytest.mark.parametrize("g0, build", PATTERN_CASES)
def test_apply_matches_assembled_operator_on_every_pattern(g0, build):
    ham = build(_coupling_drive(g0))
    y = _random_columns(ham.space.dim, 3)
    for t in (0.0, 0.71, 13.9):
        assert np.max(np.abs(ham.apply(t, y) - ham.at(t) @ y)) < 1e-14


@pytest.mark.parametrize("g0, build", PATTERN_CASES)
def test_off_diagonal_product_and_diagonal_phase_split_the_operator(g0, build):
    ham = build(_coupling_drive(g0))
    y = _random_columns(ham.space.dim, 3)
    t0, step = 0.4, 1e-4
    for t in (0.0, 0.71, 13.9):
        h = ham.at(t)
        d = h.diagonal().real
        assert np.max(np.abs(ham.apply_off_diagonal(t, y) + d[:, None] * y - h @ y)) < 1e-14
        # theta' = D(t): a central difference of the closed form
        slope = (ham.diagonal_phase(t + step, t0) - ham.diagonal_phase(t - step, t0)) / (2 * step)
        assert np.max(np.abs(slope - d)) < 1e-8
    assert not np.any(ham.diagonal_phase(t0, t0))


def test_apply_takes_any_layout_of_columns():
    ham = _coupling_drive(0.0566)
    y = _random_columns(ham.space.dim, 6)
    h = ham.at(0.71)
    # a transposed array, column slices, strided complex and real vectors, a contiguous vector
    layouts = (np.ascontiguousarray(y.T).T, y[:, 1:4], y[:, ::2], y[:, 2], y[:, 2].real,
               y[:, 2].copy())
    for cols in layouts:
        got = ham.apply(0.71, cols)
        assert got.shape == cols.shape
        assert np.max(np.abs(got - h @ cols)) < 1e-14


def test_restricted_apply_matches_the_sector_of_the_full_product():
    ham = _coupling_drive(0.0566)
    y = _random_columns(ham.space.dim, 3)
    for sector in parity_sectors(ham.space):
        sub = ham.restrict(sector)
        inside = np.zeros_like(y)
        inside[sector] = y[sector]
        for t in (0.0, 0.71, 13.9):
            full = ham.at(t) @ inside
            assert np.max(np.abs(sub.apply(t, y[sector]) - full[sector])) < 1e-14


@pytest.mark.parametrize("upper, lower, dtype", [(1e-3j, -1e-3j, complex), (1e-3, 2e-3, float),
                                                 (0.0, 0.0, complex)],
                         ids=["complex-hermitian", "real-asymmetric", "complex-dtype"])
def test_pieces_must_be_real_and_symmetric(upper, lower, dtype):
    # entries inside the even sector: parity is kept, only the type is wrong
    ham = _coupling_drive(0.0566)
    even, _ = parity_sectors(ham.space)
    h = ham.h_const.astype(dtype).tolil()
    h[even[0], even[1]], h[even[1], even[0]] = upper, lower
    with pytest.raises(DomainError, match="transpose"):
        dataclasses.replace(ham, h_const=h.tocsr())
    (sched, hx), *rest = ham.terms
    with pytest.raises(DomainError, match="transpose"):
        dataclasses.replace(ham, terms=((sched, (hx + h - ham.h_const).tocsr()), *rest))


def test_tc_conserves_total_excitation():
    space = SpaceSpec(2, 8)
    n_tot = np.diag(total_excitation(2, 8))
    h_tc = build_hamiltonian(space, SystemParams(**TWO_QUBIT, with_crt=False)).h_const.toarray()
    assert np.max(np.abs(h_tc @ n_tot - n_tot @ h_tc)) < 1e-12
    h_crt = build_hamiltonian(space, SystemParams(**TWO_QUBIT, with_crt=True)).h_const.toarray()
    assert np.max(np.abs(h_crt @ n_tot - n_tot @ h_crt)) > 1e-3


def test_crt_vacuum_shift():
    space = SpaceSpec(2, 10)
    h = build_hamiltonian(space, SystemParams(**TWO_QUBIT, with_crt=True)).h_const.toarray()
    assert np.linalg.eigvalsh(h)[0] < 0.0


def test_distinguishable_spectrum_is_collective_plus_dark():
    # identical qubits: sigma_z-form spectrum (shifted by N*Omega/2) equals the
    # Dicke-form spectrum plus the decoupled antisymmetric sector
    n_max = 6
    omega, Omega, g = 1.0, 1.72, 0.056
    coll = SpaceSpec(2, n_max)
    dist = SpaceSpec(2, n_max, DISTINGUISHABLE)
    p = SystemParams(omega0=omega, Omega0=Omega, g0=g, n_qubits=2, with_crt=True)
    e_coll = np.linalg.eigvalsh(build_hamiltonian(coll, p).h_const.toarray())
    e_dist = np.linalg.eigvalsh(build_hamiltonian(dist, p).h_const.toarray()) + Omega
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


def test_the_cavity_drive_takes_no_qubit():
    # omega belongs to the cavity: a qubit on it would be dropped, not obeyed
    p = SystemParams(**TWO_QUBIT)
    sched = (ModulationSchedule("omega", 0.01, 1.5, qubit=2),)
    with pytest.raises(ConfigError, match="takes no qubit"):
        validate_schedules(p, sched)
    with pytest.raises(ConfigError, match="takes no qubit"):
        build_hamiltonian(SpaceSpec(2, 3, DISTINGUISHABLE), p, sched)
    build_hamiltonian(SpaceSpec(2, 3, DISTINGUISHABLE), p,
                      (ModulationSchedule("omega", 0.01, 1.5), *(
                          ModulationSchedule(target, 0.01, 1.5, qubit=2)
                          for target in ("Omega", "g"))))


def test_seconds_per_time_unit():
    assert seconds_per_time_unit(10e9) == pytest.approx(1.0 / (2 * math.pi * 1e10))
    with pytest.raises(DomainError):
        seconds_per_time_unit(0.0)
