"""Property tests over random small systems and configs (hypothesis)."""

import math
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from dickemod.cli import _SCHEDULE_KEYS, _SECTION_KEYS, ScenarioConfig, emit_config, parse_config
from dickemod.dispersive import dispersive_spectrum, transition_rate_general
from dickemod.dynamics import (
    EIG_FLOOR_RUN,
    NORM_DRIFT_TOL,
    TRACE_DRIFT_TOL,
    _HERMITIAN_PAIR,
    _LIOUVILLE_BLOCKS,
    DensityMatrix,
    Trajectory,
    _block_layout,
    _collapse_operators,
    _eig_floor,
    _lindblad_strobe,
    _rotate_pairs,
    evolve_lindblad,
    evolve_schrodinger,
    snapped_span,
)
from dickemod.hilbert import (
    COLLECTIVE,
    DISTINGUISHABLE,
    SpaceSpec,
    StateVector,
    observables,
    parity_flips,
    parity_sectors,
)
from dickemod.model import (
    MOD_TARGETS,
    DissipationRates,
    ModulationSchedule,
    SystemParams,
    build_hamiltonian,
)

from oracles import (
    bare_marginals,
    dense_collective_hamiltonian,
    from_hermitian_basis,
    full_space_floquet,
    full_space_lindblad_channel,
    hamiltonian_at,
    hermitian_basis_map,
    to_hermitian_basis,
    total_excitation,
    upsilon,
)

frequency = st.floats(0.05, 3.0)


@st.composite
def modulated_systems(draw):
    """(space, params, schedules, rates) with N 1..3, n_max 0..5, either basis
    where the builders support it (distinguishable needs N = 2)."""
    n_qubits = draw(st.integers(1, 3))
    basis = draw(st.sampled_from([COLLECTIVE, DISTINGUISHABLE])) if n_qubits == 2 else COLLECTIVE
    space = SpaceSpec(n_qubits, draw(st.integers(0, 5)), basis)
    per_qubit = basis == DISTINGUISHABLE and draw(st.booleans())
    qubit_values = st.tuples(frequency, frequency) if per_qubit else frequency
    params = SystemParams(
        omega0=draw(frequency),
        Omega0=draw(qubit_values),
        g0=draw(qubit_values),
        n_qubits=n_qubits,
        with_crt=draw(st.booleans()),
    )
    targets = draw(st.lists(st.sampled_from(MOD_TARGETS), unique=True, max_size=3))
    schedules = tuple(
        ModulationSchedule(t, draw(st.floats(0.0, 0.2)), draw(frequency),
                           draw(st.floats(-3.2, 3.2)))
        for t in targets
    )
    rate = st.floats(0.0, 0.1)
    if basis == DISTINGUISHABLE:
        rates = DissipationRates(draw(rate), tuple(draw(st.lists(rate, min_size=2, max_size=2))),
                                 tuple(draw(st.lists(rate, min_size=2, max_size=2))))
    else:
        rates = DissipationRates(draw(rate))
    return space, params, schedules, rates


@settings(max_examples=60, deadline=None)
@given(modulated_systems())
def test_assembled_operators_keep_parity_sectors(system):
    space, params, schedules, rates = system
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # deep modulations only warn
        ham = build_hamiltonian(space, params, schedules)
    pieces = ham.pieces
    # every Hamiltonian piece keeps each sector; the leak guard raises otherwise
    assert not any(parity_flips(h, space) for h in pieces)
    # every piece is real and equal to its transpose, exactly
    for h in pieces:
        assert h.dtype == np.float64 and (h != h.T).nnz == 0
    # cavity decay and relaxation flip the parity, dephasing keeps it
    for _, op in _collapse_operators(space, rates):
        assert op.dtype == np.float64
        flips = parity_flips(op, space)
        assert flips == (op.diagonal() == 0).all() or op.nnz == 0
    if not params.with_crt:
        n_exc = sp.diags(total_excitation(space.n_qubits, space.n_max,
                                          space.basis == DISTINGUISHABLE))
        for h in pieces:
            commutator = h @ n_exc - n_exc @ h
            assert commutator.nnz == 0 or np.abs(commutator.data).max() == 0.0


@st.composite
def stroboscopic_runs(draw):
    """(space, params, schedules, psi0, t_span, samples): collective N 1..3,
    n_max 0..4, one or two drives on one frequency, each with its own phase,
    a random state and a span that ends at a fractional period."""
    n_qubits = draw(st.integers(1, 3))
    space = SpaceSpec(n_qubits, draw(st.integers(0, 4)))
    params = SystemParams(omega0=draw(frequency), Omega0=draw(frequency), g0=draw(frequency),
                          n_qubits=n_qubits, with_crt=draw(st.booleans()))
    eta = draw(st.floats(0.5, 3.0))
    targets = draw(st.lists(st.sampled_from(MOD_TARGETS), unique=True, min_size=1, max_size=2))
    schedules = tuple(ModulationSchedule(t, draw(st.floats(0.01, 0.2)), eta,
                                         draw(st.floats(-3.2, 3.2)))
                      for t in targets)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    amplitudes = rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim)
    periods = draw(st.integers(32, 60)) + draw(st.floats(0.05, 0.95))
    span = (0.0, periods * 2 * math.pi / eta)
    psi0 = StateVector(space, amplitudes / np.linalg.norm(amplitudes))
    return space, params, schedules, psi0, span, draw(st.integers(2, 6))


@settings(max_examples=40, deadline=None)
@given(stroboscopic_runs())
def test_stroboscopic_run_keeps_norm_and_matches_full_space(run):
    space, params, schedules, psi0, span, samples = run
    with warnings.catch_warnings():
        # deep modulations and population at the Fock cutoff only warn
        warnings.simplefilter("ignore")
        # a drive whose piece vanishes (n_max = 0) still sets the period
        ham = build_hamiltonian(space, params, schedules)
        traj = evolve_schrodinger(space, params, schedules, psi0, span, samples, tol=1e-12,
                                  method="stroboscopic", store_states=True)
    assert traj.metadata["norm_drift_max"] <= NORM_DRIFT_TOL
    h0 = ham.h_const.toarray()
    drives = [(s, hx.toarray()) for s, hx in ham.terms]
    ref = full_space_floquet(lambda t: h0 + sum(np.sin(s.eta * t + s.phi) * hx
                                                for s, hx in drives),
                             psi0.amplitudes, 2 * math.pi / ham.common_eta, traj.times)
    got = np.array([s.amplitudes for s in traj.states])
    assert np.max(np.abs(got - ref)) < 1e-9


@st.composite
def lindblad_runs(draw):
    """(space, params, schedules, rates, rho0, t_span, samples): collective N 1..2
    with cavity decay, or distinguishable N = 2 with decay, relaxation and
    dephasing; n_max 0..3, rates up to 2e-3, one drive, a random mixed state
    and a period-aligned grid."""
    if draw(st.booleans()):
        space = SpaceSpec(2, draw(st.integers(0, 3)), DISTINGUISHABLE)
        pair = st.lists(st.floats(0.0, 2e-3), min_size=2, max_size=2).map(tuple)
        rates = DissipationRates(draw(st.floats(0.0, 2e-3)), draw(pair), draw(pair))
    else:
        space = SpaceSpec(draw(st.integers(1, 2)), draw(st.integers(0, 3)))
        rates = DissipationRates(draw(st.floats(1e-5, 2e-3)))
    params = SystemParams(omega0=draw(frequency), Omega0=draw(frequency), g0=draw(frequency),
                          n_qubits=space.n_qubits, with_crt=draw(st.booleans()))
    eta = draw(st.floats(0.5, 3.0))
    schedules = (ModulationSchedule(draw(st.sampled_from(MOD_TARGETS)),
                                    draw(st.floats(0.01, 0.2)), eta, draw(st.floats(-3.2, 3.2))),)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rank = int(rng.integers(1, space.dim + 1))
    a = rng.normal(size=(space.dim, rank)) + 1j * rng.normal(size=(space.dim, rank))
    rho = a @ a.conj().T
    samples = draw(st.integers(2, 6))
    stride = draw(st.integers(1, 8))
    span, count = snapped_span(eta, stride * (samples - 1) * 2 * math.pi / eta, samples)
    return (space, params, schedules, rates, DensityMatrix(space, rho / np.trace(rho).real),
            span, count)


@settings(max_examples=20, deadline=None)
@given(lindblad_runs())
def test_stroboscopic_lindblad_keeps_its_gates_and_matches_full_space(run):
    space, params, schedules, rates, rho0, span, samples = run
    with warnings.catch_warnings():
        # deep modulations and population at the Fock cutoff only warn
        warnings.simplefilter("ignore")
        ham = build_hamiltonian(space, params, schedules)
        traj = evolve_lindblad(space, params, schedules, rates, rho0, span, samples,
                               tol=1e-12, method="stroboscopic", store_states=True)
    md = traj.metadata
    assert len(traj.times) == samples
    assert md["trace_drift_max"] <= TRACE_DRIFT_TOL
    assert md["channel_trace_defect"] <= TRACE_DRIFT_TOL
    assert md["eig_floor_min"] >= EIG_FLOOR_RUN
    period = 2 * math.pi / ham.common_eta
    slices = md["channel_slices"]
    full = full_space_lindblad_channel(
        lambda t: hamiltonian_at(ham, t).toarray(),
        [(r, op.toarray()) for r, op in _collapse_operators(space, rates)],
        period, slices=slices, panels=md["channel_nodes"] // (6 * slices),
    )
    vec = rho0.matrix.ravel()
    ref = [np.linalg.matrix_power(full, int(k)) @ vec for k in np.round(traj.times / period)]
    got = [s.matrix.ravel() for s in traj.states]
    assert np.max(np.abs(np.array(got) - np.array(ref))) < 1e-9

    # a run that stores no states propagates the parity-diagonal block alone,
    # and the joint distribution reads only that block
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        diag = evolve_lindblad(space, params, schedules, rates, rho0, span, samples,
                               tol=1e-12, method="stroboscopic")
    assert diag.metadata["liouville_pairs"] == ((0, 0), (1, 1))
    assert np.array_equal(diag.times, traj.times)
    assert np.max(np.abs(diag.joint - traj.joint)) < 1e-12

    # its samples are block diagonal by parity, so the eigenvalue floor taken
    # per parity block is the floor of the whole matrices
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        raw, blocks = _lindblad_strobe(ham, _collapse_operators(space, rates), rho0.matrix,
                                       np.linspace(*span, samples), 1e-12, {}, coherences=False)
    rhos = (raw + raw.conj().transpose(0, 2, 1)) / 2
    assert all(map(np.array_equal, blocks, parity_sectors(space)))
    floor = _eig_floor(rhos, parity_sectors(space))
    assert abs(floor - np.linalg.eigvalsh(rhos)[:, 0].min()) <= 1e-15
    assert floor == diag.metadata["eig_floor_min"]


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.integers(1, 6), st.sampled_from(_LIOUVILLE_BLOCKS),
       st.integers(0, 2**32 - 1))
def test_hermitian_basis_map_is_unitary_and_makes_hermitian_vecs_real(a, b, pairs, seed):
    # parity sectors interleave in a space's basis: two shuffled index sets
    rng = np.random.default_rng(seed)
    order = rng.permutation(a + b)
    sectors = [order[:a], order[a:]]
    where, pairing = _block_layout(sectors, pairs, a + b)
    n = len(where)
    assert n == sum(len(sectors[p]) * len(sectors[q]) for p, q in pairs)
    t = hermitian_basis_map(pairing, n)
    assert np.max(np.abs(_rotate_pairs(np.eye(n, dtype=complex), pairing, _HERMITIAN_PAIR)
                         - t)) < 1e-15
    assert np.max(np.abs(t @ t.conj().T - np.eye(n))) < 1e-14

    m = rng.normal(size=(a + b, a + b)) + 1j * rng.normal(size=(a + b, a + b))
    herm = (m + m.conj().T) / 2
    # the block's vector: the row-major vec(rho_pq) of its pairs, in order
    vec = herm.ravel()[where]
    assert np.array_equal(vec, np.concatenate([herm[np.ix_(sectors[p], sectors[q])].ravel()
                                               for p, q in pairs]))
    real = _rotate_pairs(vec.copy(), pairing, _HERMITIAN_PAIR)
    assert np.max(np.abs(real.imag)) <= 1e-15
    assert np.max(np.abs(real - t @ vec)) < 1e-14
    back = _rotate_pairs(real.real.astype(complex), pairing, _HERMITIAN_PAIR.conj().T)
    assert np.max(np.abs(back - vec)) < 1e-14

    # the matrix maps are T M T^H and its inverse T^H R T
    big = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    there = to_hermitian_basis(big.copy(), pairing)
    assert np.max(np.abs(there - t @ big @ t.conj().T)) < 1e-13
    assert np.max(np.abs(from_hermitian_basis(there, pairing) - big)) < 1e-13


@st.composite
def dispersive_systems(draw):
    """(space, params, schedules, m): collective N 2..4, n_max 3..7, |Delta| in
    [0.7, 0.9] on either side of the cavity (no counter-rotating denominator
    2 - j|Delta| comes near zero) and g0 small enough that every dressed state
    keeps a dominant bare component; one to three drives with their own phases,
    and a subspace m whose m + 2 neighbor is complete."""
    n_qubits = draw(st.integers(2, 4))
    space = SpaceSpec(n_qubits, draw(st.integers(3, 7)))
    detuning = draw(st.floats(0.7, 0.9)) * draw(st.sampled_from([-1.0, 1.0]))
    params = SystemParams(omega0=1.0, Omega0=1.0 - detuning, g0=draw(st.floats(0.005, 0.03)),
                          n_qubits=n_qubits, with_crt=draw(st.booleans()))
    targets = draw(st.lists(st.sampled_from(MOD_TARGETS), unique=True, min_size=1, max_size=3))
    schedules = tuple(ModulationSchedule(t, draw(st.floats(0.001, 0.05)), 1.0,
                                         draw(st.floats(-3.2, 3.2)))
                      for t in targets)
    return space, params, schedules, draw(st.integers(1, space.n_max - 2))


@settings(max_examples=40, deadline=None)
@given(dispersive_systems())
def test_rates_are_antisymmetric_and_drive_elements_sum_to_the_operator(system):
    space, params, schedules, m = system
    spec = dispersive_spectrum(space, params, subspaces=(m,))
    rates = {(t, s): transition_rate_general(spec, schedules, m, t, s)
             for t in spec.labels(m) for s in spec.labels(m) if t != s}
    for (t, s), fwd in rates.items():
        rev = rates[(s, t)]
        assert abs(fwd.xi + np.conj(rev.xi)) <= 1e-14
        assert fwd.eta_res == rev.eta_res and fwd.sign == -rev.sign
    nq, n_max = space.n_qubits, space.n_max
    operators = {  # omega * n, Omega * k and the Tavis-Cummings coupling at unit weight
        "omega": dense_collective_hamiltonian(nq, n_max, 1.0, 0.0, 0.0, False),
        "Omega": dense_collective_hamiltonian(nq, n_max, 0.0, 1.0, 0.0, False),
        "g": dense_collective_hamiltonian(nq, n_max, 0.0, 0.0, 1.0, False),
    }
    ks = {"omega": range(nq + 1), "Omega": range(nq + 1), "g": range(nq)}
    for sched in schedules:
        for t in spec.labels(m):
            for s in spec.labels(m):
                total = sum(upsilon(sched.target, sched.epsilon, k, spec.state(m, t),
                                    spec.state(m, s), nq) for k in ks[sched.target])
                want = sched.epsilon * np.vdot(spec.state(m, t),
                                               operators[sched.target] @ spec.state(m, s))
                assert abs(total - want) <= 1e-13


# config values the codec round-trips: a word that reads as no number or
# bool, an int, a finite float, a bool, or a nonempty tuple of those
word = st.text("abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=10).filter(
    lambda s: s not in ("true", "false", "inf", "nan", "infinity")
)
scalar = st.one_of(word, st.integers(-10**6, 10**6), st.booleans(),
                   st.floats(allow_nan=False, allow_infinity=False))
value = st.one_of(scalar, st.lists(scalar, min_size=1, max_size=4).map(tuple))


def section(keys, min_size=0):
    return st.dictionaries(st.sampled_from(tuple(keys)), value, min_size=min_size)


configs = st.builds(
    ScenarioConfig,
    schedules=st.lists(section(_SCHEDULE_KEYS, min_size=1), max_size=3),
    **{name: section(keys) for name, keys in _SECTION_KEYS.items()},
)


@settings(max_examples=200, deadline=None)
@given(configs)
def test_config_round_trip_property(cfg):
    assert parse_config(emit_config(cfg)) == cfg


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 3), st.integers(0, 5), st.sampled_from([COLLECTIVE, DISTINGUISHABLE]),
       st.sampled_from(["state", "amplitudes", "density"]), st.integers(0, 2**32 - 1))
def test_joint_distribution_sums_to_one_and_folds_to_the_marginals(n_qubits, n_max, basis,
                                                                  kind, seed):
    space = SpaceSpec(n_qubits, n_max, basis)
    rng = np.random.default_rng(seed)
    amp = rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim)
    amp /= np.linalg.norm(amp)
    if kind == "density":
        rank = int(rng.integers(1, space.dim + 1))
        a = rng.normal(size=(space.dim, rank)) + 1j * rng.normal(size=(space.dim, rank))
        rho = a @ a.conj().T
        rho /= np.trace(rho).real
        joint, pops = observables(rho, space), np.real(np.diag(rho))
    else:
        state = StateVector(space, amp) if kind == "state" else amp
        joint, pops = observables(state, space), np.abs(amp) ** 2
    assert joint.shape == (n_qubits + 1, n_max + 1)
    assert np.all(joint >= 0.0)
    assert abs(float(joint.sum()) - 1.0) <= 1e-14
    p_ph, p_at = bare_marginals(pops, n_qubits, n_max, basis == DISTINGUISHABLE)
    assert np.max(np.abs(joint.sum(axis=0) - p_ph)) <= 1e-14
    assert np.max(np.abs(joint.sum(axis=1) - p_at)) <= 1e-14
    traj = Trajectory(space, np.zeros(1), joint[None], None)
    assert traj.n_ph[0] == pytest.approx(p_ph @ np.arange(n_max + 1), abs=1e-13)
    assert traj.n_at[0] == pytest.approx(p_at @ np.arange(n_qubits + 1), abs=1e-13)
