"""Basis layouts, canonical states, operators, observable extraction."""

import math

import numpy as np
import pytest

from dickemod.errors import CutoffError, DomainError, NormalizationError
from dickemod.hilbert import (
    COLLECTIVE,
    DISTINGUISHABLE,
    SpaceSpec,
    StateVector,
    build_operators,
    coherent_state,
    dicke_fock_state,
    f_coefficient,
    observables,
    parity_flips,
    parity_sectors,
)

from oracles import embed_collective, truncated_poisson


def test_space_dimensions():
    assert SpaceSpec(2, 12).dim == 3 * 13
    assert SpaceSpec(6, 21).dim == 7 * 22
    assert SpaceSpec(2, 15, DISTINGUISHABLE).dim == 4 * 16
    assert SpaceSpec(3, 0, DISTINGUISHABLE).dim == 8


@pytest.mark.parametrize("basis", [COLLECTIVE, DISTINGUISHABLE])
def test_index_bijection(basis):
    space = SpaceSpec(3, 5, basis)
    seen = set()
    for s in range(space.atom_dim):
        for n in range(space.photon_dim):
            j = space.index(s, n)
            assert 0 <= j < space.dim
            seen.add(j)
    assert len(seen) == space.dim


def test_space_validation():
    with pytest.raises(DomainError):
        SpaceSpec(0, 5)
    with pytest.raises(DomainError):
        SpaceSpec(2, -1)
    with pytest.raises(DomainError):
        SpaceSpec(2, 5, "sideways")


def test_f_coefficient_values():
    assert f_coefficient(0, 2) == pytest.approx(math.sqrt(2), abs=1e-15)
    # the ladder dies at the top Dicke state
    assert f_coefficient(2, 2) == 0.0
    assert f_coefficient(0, 6) == pytest.approx(math.sqrt(6), abs=1e-15)
    with pytest.raises(DomainError):
        f_coefficient(3, 2)
    with pytest.raises(DomainError):
        f_coefficient(-1, 2)


def test_dicke_fock_collective():
    space = SpaceSpec(2, 12)
    psi = dicke_fock_state(space, 0, 5)
    assert psi.amplitudes[space.index(0, 5)] == 1.0
    assert np.count_nonzero(psi.amplitudes) == 1


def test_dicke_fock_distinguishable_symmetric():
    space = SpaceSpec(2, 4, DISTINGUISHABLE)
    psi = dicke_fock_state(space, 1, 0)
    # equal weight on |01> and |10>
    w = 1.0 / math.sqrt(2)
    assert psi.amplitudes[space.index(0b01, 0)] == pytest.approx(w, abs=1e-15)
    assert psi.amplitudes[space.index(0b10, 0)] == pytest.approx(w, abs=1e-15)
    assert np.count_nonzero(psi.amplitudes) == 2

    top = dicke_fock_state(space, 2, 3)
    assert top.amplitudes[space.index(0b11, 3)] == pytest.approx(1.0, abs=1e-15)
    assert np.count_nonzero(top.amplitudes) == 1


def test_dicke_fock_range_errors():
    space = SpaceSpec(2, 4)
    with pytest.raises(DomainError):
        dicke_fock_state(space, 3, 0)
    with pytest.raises(DomainError):
        dicke_fock_state(space, 0, 5)


def test_coherent_vacuum():
    space = SpaceSpec(2, 20)
    psi = coherent_state(space, 0.0, 0)
    assert psi.amplitudes[space.index(0, 0)] == pytest.approx(1.0, abs=1e-15)


def test_coherent_marginal_matches_truncated_poisson():
    alpha = math.sqrt(5.5)
    space = SpaceSpec(6, 21)
    psi = coherent_state(space, alpha, 0)
    obs = observables(psi, space)
    ref = truncated_poisson(5.5, space.n_max)
    assert np.max(np.abs(obs.p_ph - ref)) < 1e-12
    assert obs.p_ph[5] == pytest.approx(0.17, abs=0.005)
    assert obs.n_at == pytest.approx(0.0, abs=1e-12)


def test_coherent_mean_photon_number():
    space = SpaceSpec(1, 30)
    psi = coherent_state(space, math.sqrt(3.0), 0)
    obs = observables(psi, space)
    assert abs(obs.n_ph - 3.0) < 1e-6


def test_coherent_cutoff_guard():
    space = SpaceSpec(2, 8)
    with pytest.raises(CutoffError):
        coherent_state(space, math.sqrt(5.5), 0)


def test_state_norm_guard():
    space = SpaceSpec(2, 3)
    vec = np.zeros(space.dim, dtype=complex)
    vec[0] = 0.7
    with pytest.raises(NormalizationError):
        StateVector(space, vec)


def test_observables_basic():
    space = SpaceSpec(2, 6)
    psi = dicke_fock_state(space, 0, 5)
    obs = observables(psi, space)
    assert obs.n_ph == pytest.approx(5.0, abs=1e-12)
    assert obs.n_at == pytest.approx(0.0, abs=1e-12)

    vec = np.zeros(space.dim, dtype=complex)
    vec[space.index(0, 5)] = 1.0 / math.sqrt(2)
    vec[space.index(2, 3)] = 1.0 / math.sqrt(2)
    obs = observables(StateVector(space, vec), space)
    assert obs.n_ph == pytest.approx(4.0, abs=1e-12)
    assert obs.n_at == pytest.approx(1.0, abs=1e-12)
    assert obs.p_ph[5] == pytest.approx(0.5, abs=1e-12)
    assert obs.p_ph[3] == pytest.approx(0.5, abs=1e-12)
    assert obs.p_ph.sum() == pytest.approx(1.0, abs=1e-9)
    assert obs.p_at.sum() == pytest.approx(1.0, abs=1e-9)
    # n_ph and n_at are the first moments of their marginals
    assert obs.n_ph == pytest.approx(np.arange(space.photon_dim) @ obs.p_ph, abs=1e-12)
    assert obs.n_at == pytest.approx(np.arange(space.atom_dim) @ obs.p_at, abs=1e-12)


def test_observable_sets_compare_by_their_joint_distribution():
    space = SpaceSpec(1, 2)
    one_photon = observables(dicke_fock_state(space, 0, 1), space)
    assert one_photon == observables(dicke_fock_state(space, 0, 1), space)
    assert one_photon != observables(dicke_fock_state(space, 1, 0), space)
    wider = SpaceSpec(1, 3)
    assert one_photon != observables(dicke_fock_state(wider, 0, 1), wider)


def test_operators_ladder_algebra():
    space = SpaceSpec(2, 7)
    ops = build_operators(space)
    psi = dicke_fock_state(space, 1, 5)
    assert np.vdot(psi.amplitudes, ops.n_ph @ psi.amplitudes).real == pytest.approx(5.0)

    # sigma_{1,0} |0, n> = |1, n>
    lifted = ops.sigma(1, 0) @ dicke_fock_state(space, 0, 4).amplitudes
    assert lifted[space.index(1, 4)] == pytest.approx(1.0, abs=1e-15)

    # [a, a^dag] = 1 away from the truncation edge
    psi = dicke_fock_state(space, 0, 3)
    comm = (ops.a @ ops.a_dag - ops.a_dag @ ops.a) @ psi.amplitudes
    assert np.vdot(psi.amplitudes, comm).real == pytest.approx(1.0, abs=1e-12)


def test_lowering_then_raising_is_identity_on_level():
    space = SpaceSpec(3, 4)
    ops = build_operators(space)
    k = 1
    psi = dicke_fock_state(space, k + 1, 2).amplitudes
    back = ops.sigma(k + 1, k) @ (ops.sigma(k, k + 1) @ psi)
    assert np.max(np.abs(back - psi)) < 1e-15


def test_embedding_preserves_observables():
    space = SpaceSpec(3, 6)
    vec = np.zeros(space.dim, dtype=complex)
    vec[space.index(0, 5)] = 0.6
    vec[space.index(2, 3)] = 0.8j
    psi = StateVector(space, vec)
    emb = StateVector(SpaceSpec(3, 6, DISTINGUISHABLE), embed_collective(vec, 3, 6))
    a = observables(psi, space)
    b = observables(emb, emb.space)
    assert np.max(np.abs(a.p_ph - b.p_ph)) < 1e-12
    assert np.max(np.abs(a.p_at - b.p_at)) < 1e-12
    assert abs(a.n_ph - b.n_ph) < 1e-12
    assert abs(a.n_at - b.n_at) < 1e-12


def test_operator_sparsity():
    space = SpaceSpec(2, 40)
    ops = build_operators(space)
    # one nonzero per photon step per atomic block
    assert ops.a.nnz == space.atom_dim * space.n_max


def test_parity_sectors_and_leak_guard():
    # collective (2, 2): (-1)^(n+k) even on (0,0) (0,2) (1,1) (2,0) (2,2)
    even, odd = parity_sectors(SpaceSpec(2, 2))
    assert even.tolist() == [0, 2, 4, 6, 8]
    assert odd.tolist() == [1, 3, 5, 7]
    # distinguishable: the popcount of the configuration counts the qubits
    dist = SpaceSpec(2, 1, DISTINGUISHABLE)
    even, odd = parity_sectors(dist)
    assert even.tolist() == [0, 3, 5, 6]
    assert [len(s) for s in parity_sectors(SpaceSpec(1, 0))] == [1, 1]
    ops = build_operators(dist)
    assert parity_flips(ops.a, dist)
    assert parity_flips(ops.sigma_minus(2), dist)
    assert not parity_flips(ops.sigma_z(1), dist)
    assert not parity_flips(0 * ops.a, dist)
    with pytest.raises(DomainError, match="leaks"):
        parity_flips(ops.a + ops.n_ph, dist)
