"""Basis layouts, canonical states, operators, observable extraction."""

import math

import numpy as np
import pytest

from dickemod import hilbert
from dickemod.dynamics import Trajectory
from dickemod.errors import CutoffError, DomainError, NormalizationError
from dickemod.hilbert import (
    COLLECTIVE,
    DISTINGUISHABLE,
    SpaceSpec,
    StateVector,
    coherent_state,
    dicke_fock_state,
    f_coefficient,
    ladder_operators,
    observables,
    parity_flips,
    parity_sectors,
)

from oracles import embed_collective, truncated_poisson


def marginals(joint):
    """(p_ph, p_at, n_ph, n_at) of one joint distribution joint[k, n]."""
    p_ph, p_at = joint.sum(axis=0), joint.sum(axis=1)
    return p_ph, p_at, p_ph @ np.arange(len(p_ph)), p_at @ np.arange(len(p_at))


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
    p_ph, _, _, n_at = marginals(observables(psi, space))
    ref = truncated_poisson(5.5, space.n_max)
    assert np.max(np.abs(p_ph - ref)) < 1e-12
    assert p_ph[5] == pytest.approx(0.17, abs=0.005)
    assert n_at == pytest.approx(0.0, abs=1e-12)


def test_coherent_mean_photon_number():
    space = SpaceSpec(1, 30)
    psi = coherent_state(space, math.sqrt(3.0), 0)
    _, _, n_ph, _ = marginals(observables(psi, space))
    assert abs(n_ph - 3.0) < 1e-6


@pytest.mark.parametrize("n_max", [1, 8, 12, 30, 60])
def test_coherent_amplitudes_match_scipy_gammaln(n_max):
    # coherent_state takes log n! as the log of the exact integer n!; with
    # scipy.special.gammaln(n + 1), as before, the amplitudes are the same
    # bitwise up to n_max 12, within 1e-15 up to |alpha|^2 = n_max / 4, and
    # within 2.2e-15 at the cutoff guard's n_max / 2 at n_max 60
    from scipy.special import gammaln

    n = np.arange(n_max + 1)
    for alpha_sq, bound in ((0.09, 1e-15), (n_max / 4, 1e-15), (0.49 * n_max, 3e-15)):
        alpha = math.sqrt(alpha_sq) * np.exp(0.4j)
        photon = np.exp(n * math.log(abs(alpha)) - 0.5 * gammaln(n + 1)) * np.exp(
            1j * np.angle(alpha) * n)
        psi = coherent_state(SpaceSpec(1, n_max), alpha, 0)
        ref = np.concatenate([photon / np.linalg.norm(photon), np.zeros(n_max + 1)])
        diff = np.max(np.abs(psi.amplitudes - ref))
        assert diff == 0.0 if n_max <= 12 else diff <= bound


def test_coherent_cutoff_guard():
    space = SpaceSpec(2, 8)
    with pytest.raises(CutoffError):
        coherent_state(space, math.sqrt(5.5), 0)


@pytest.mark.parametrize("n_max", range(6, 31))
def test_coherent_cutoff_guard_admits_its_own_limit(n_max):
    # the guard compares |alpha| with sqrt(n_max / 2): alpha = sqrt(n_max / 2)
    # passes where its square rounds above n_max / 2 (n_max 10, 14, 16, 20,
    # 25, 29 and 30), and a mean photon number 1e-9 past the limit is refused
    space = SpaceSpec(1, n_max)
    psi = coherent_state(space, math.sqrt(n_max / 2), 0)
    assert psi.space == space
    with pytest.raises(CutoffError):
        coherent_state(space, math.sqrt(n_max / 2 * (1 + 1e-9)), 0)


def test_state_norm_guard():
    space = SpaceSpec(2, 3)
    vec = np.zeros(space.dim, dtype=complex)
    vec[0] = 0.7
    with pytest.raises(NormalizationError):
        StateVector(space, vec)


def test_observables_basic():
    space = SpaceSpec(2, 6)
    psi = dicke_fock_state(space, 0, 5)
    joint = observables(psi, space)
    assert joint.shape == (3, 7) and joint.dtype == np.float64
    _, _, n_ph, n_at = marginals(joint)
    assert n_ph == pytest.approx(5.0, abs=1e-12)
    assert n_at == pytest.approx(0.0, abs=1e-12)

    vec = np.zeros(space.dim, dtype=complex)
    vec[space.index(0, 5)] = 1.0 / math.sqrt(2)
    vec[space.index(2, 3)] = 1.0 / math.sqrt(2)
    joint = observables(StateVector(space, vec), space)
    p_ph, p_at, n_ph, n_at = marginals(joint)
    assert n_ph == pytest.approx(4.0, abs=1e-12)
    assert n_at == pytest.approx(1.0, abs=1e-12)
    assert p_ph[5] == pytest.approx(0.5, abs=1e-12)
    assert p_ph[3] == pytest.approx(0.5, abs=1e-12)
    assert p_ph.sum() == pytest.approx(1.0, abs=1e-9)
    assert p_at.sum() == pytest.approx(1.0, abs=1e-9)
    # a trajectory's n_ph and n_at are the first moments of its marginals
    traj = Trajectory(space, np.zeros(2), np.stack([joint, joint]), None)
    assert np.all(traj.n_ph == pytest.approx(n_ph, abs=1e-12))
    assert np.all(traj.n_at == pytest.approx(n_at, abs=1e-12))
    assert np.array_equal(traj.p_ph(5), [p_ph[5]] * 2)
    assert np.array_equal(traj.p_at(2), [p_at[2]] * 2)


def test_observables_fold_configurations_by_popcount():
    # every distinguishable configuration lands on its number of excited
    # qubits, against a loop over the configurations
    space = SpaceSpec(3, 2, DISTINGUISHABLE)
    vec = np.random.default_rng(3).normal(size=space.dim) + 0j
    vec /= np.linalg.norm(vec)
    grid = np.abs(vec.reshape(space.atom_dim, space.photon_dim)) ** 2
    ref = np.zeros((4, 3))
    for config in range(space.atom_dim):
        ref[bin(config).count("1")] += grid[config]
    assert np.max(np.abs(observables(vec, space) - ref)) < 1e-15
    fold = hilbert._excitation_fold(space)
    assert fold is hilbert._excitation_fold(SpaceSpec(3, 2, DISTINGUISHABLE))
    with pytest.raises(ValueError):
        fold[0, 0] = 2.0


@pytest.mark.parametrize("source", ["state", "amplitudes", "matrix"])
def test_a_nan_input_fails_the_normalization_gates(source):
    space = SpaceSpec(1, 1)
    nan = np.full(space.dim, np.nan, dtype=complex)
    if source == "state":
        with pytest.raises(NormalizationError):
            StateVector(space, nan)
        return
    with pytest.raises(NormalizationError):
        observables(nan if source == "amplitudes" else np.diag(nan), space)


def test_operators_ladder_algebra():
    space = SpaceSpec(2, 7)
    a, n, _, _ = ladder_operators(space)
    psi = dicke_fock_state(space, 1, 5)
    assert np.vdot(psi.amplitudes, n @ psi.amplitudes).real == pytest.approx(5.0)

    # [a, a^dag] = 1 away from the truncation edge
    psi = dicke_fock_state(space, 0, 3)
    comm = (a @ a.T - a.T @ a) @ psi.amplitudes
    assert np.vdot(psi.amplitudes, comm).real == pytest.approx(1.0, abs=1e-12)


def test_embedding_preserves_observables():
    space = SpaceSpec(3, 6)
    vec = np.zeros(space.dim, dtype=complex)
    vec[space.index(0, 5)] = 0.6
    vec[space.index(2, 3)] = 0.8j
    psi = StateVector(space, vec)
    emb = StateVector(SpaceSpec(3, 6, DISTINGUISHABLE), embed_collective(vec, 3, 6))
    a = marginals(observables(psi, space))
    b = marginals(observables(emb, emb.space))
    assert np.max(np.abs(a[0] - b[0])) < 1e-12
    assert np.max(np.abs(a[1] - b[1])) < 1e-12
    assert abs(a[2] - b[2]) < 1e-12
    assert abs(a[3] - b[3]) < 1e-12


def test_operator_sparsity():
    space = SpaceSpec(2, 40)
    a = ladder_operators(space)[0]
    # one nonzero per photon step per atomic block
    assert a.nnz == space.atom_dim * space.n_max


@pytest.mark.parametrize("n_qubits", [2, 3])
def test_ladder_operators_are_real_cached_and_read_only(n_qubits):
    space = SpaceSpec(n_qubits, 2, DISTINGUISHABLE)
    a, n, lowering, level = ladder_operators(space)
    assert ladder_operators(SpaceSpec(n_qubits, 2, DISTINGUISHABLE))[0] is a

    def site(op2, bit):
        # qubit bit + 1 is bit `bit` of the configuration; bit 0 varies fastest
        atom = np.kron(np.kron(np.eye(2 ** (n_qubits - 1 - bit)), op2), np.eye(2 ** bit))
        return np.kron(atom, np.eye(3))

    for bit in range(n_qubits):
        assert np.array_equal(lowering[bit].toarray(), site([[0.0, 1.0], [0.0, 0.0]], bit))
        assert np.array_equal(level[bit].toarray(), site(np.diag([-0.5, 0.5]), bit))
    for op in (a, n, *lowering, *level, *ladder_operators(SpaceSpec(n_qubits, 2))[2]):
        assert op.dtype == np.float64
        with pytest.raises(ValueError, match="read-only"):
            op.data[0] = 1.0


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
    a, n, lowering, level = ladder_operators(dist)
    assert parity_flips(a, dist)
    assert parity_flips(lowering[1], dist)
    assert not parity_flips(2 * level[0], dist)
    assert not parity_flips(0 * a, dist)
    with pytest.raises(DomainError, match="leaks"):
        parity_flips(a + n, dist)
