"""Integration engines: unitary evolution, master equation, trajectory checks."""

import copy
import dataclasses
import math
import warnings

import numpy as np
import pytest
from scipy.integrate import solve_ivp

import dickemod.dynamics as dynamics
from dickemod.dynamics import (
    TRACE_DRIFT_TOL,
    DensityMatrix,
    evolve_lindblad,
    evolve_schrodinger,
    evolve_schrodinger_etas,
)
from dickemod.errors import (
    ConfigError,
    DomainError,
    NumericError,
    UnsupportedError,
)
from dickemod.cli import (
    circuit_pair_systems,
    six_qubit_systems,
    snapped_span,
    two_qubit_systems,
)
from dickemod.dispersive import spectrum_exact, two_photon_rate_closed_form
from dickemod.hilbert import (
    SpaceSpec,
    StateVector,
    coherent_state,
    dicke_fock_state,
    ladder_operators,
    parity_flips,
    parity_sectors,
)
from dickemod.model import (
    DissipationRates,
    ModulationSchedule,
    SystemParams,
    build_hamiltonian,
    seconds_per_time_unit,
)

from oracles import (
    _one_period_propagators,
    complex_slice_generator,
    cutoff_warning_ignored,
    damped_cavity_nph,
    dense_collective_hamiltonian,
    dop853_t_eval,
    from_hermitian_basis,
    frozen_step_evolve,
    full_space_floquet,
    full_space_lindblad_channel,
    hamiltonian_at,
    lindblad_dissipator,
    real_part,
    reference_march,
    to_hermitian_basis,
    total_excitation,
)


BENCH = dict(omega0=1.0, Omega0=1.72, g0=0.08 / math.sqrt(2), n_qubits=2)
ETA = 1.4844
PHI = 0.7  # a drive phase whose extremum c = (pi/2 - PHI)/ETA is not T/4


def bench_params(**over):
    return SystemParams(**{**BENCH, **over})


def g_schedule(params, eta=ETA, phi=0.0):
    return ModulationSchedule("g", 0.1 * params.g0_uniform, eta, phi)


def half_window(phi=0.0):
    """(c - T/2, c) for the g drive at ETA and phase phi."""
    c = ((math.pi / 2 - phi) % math.pi) / ETA
    return c - math.pi / ETA, c


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
    n_tot = np.diag(total_excitation(2, 5))
    vals = [np.vdot(s.amplitudes, n_tot @ s.amplitudes).real for s in tr.states]
    assert np.max(np.abs(np.array(vals) - 3.0)) < 1e-10


def test_adaptive_matches_frozen_step_oracle():
    space = SpaceSpec(2, 3)
    p = bench_params()
    sch = (g_schedule(p),)
    psi0 = dicke_fock_state(space, 0, 3)
    with cutoff_warning_ignored():
        tr = evolve_schrodinger(
            space, p, sch, psi0, (0.0, 20.0), 5,
            tol=1e-10, method="direct", store_states=True,
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
        with cutoff_warning_ignored():
            tr = evolve_schrodinger(
                space, p, sch, psi0, (0.0, 30.0), 4,
                tol=tol, method="direct",
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
    with pytest.raises(NumericError, match="tighten tol"), cutoff_warning_ignored():
        evolve_schrodinger(
            space, p, (g_schedule(p),), psi0, (0.0, 100.0), 5,
            tol=1e-6, method="direct",
        )


def test_auto_dispatch_prefers_stroboscopic_engine():
    space = SpaceSpec(2, 3)
    p = bench_params()
    psi0 = dicke_fock_state(space, 0, 3)
    t_final = 2 * math.pi / ETA * 48
    with cutoff_warning_ignored():
        auto = evolve_schrodinger(
            space, p, (g_schedule(p),), psi0, (0.0, t_final), 49,
            tol=1e-10,
        )
        direct = evolve_schrodinger(
            space, p, (g_schedule(p),), psi0, (0.0, t_final), 49,
            tol=1e-10, method="direct",
        )
    assert auto.metadata["engine"] == "floquet-stroboscopic"
    assert np.max(np.abs(auto.n_ph - direct.n_ph)) < 1e-7


def _amplitudes(trajectory):
    return np.array([s.amplitudes for s in trajectory.states])


def test_floquet_sampling_matches_reference_march():
    # U(T) from direct RK, column by column, applied period by period; its
    # per-period phase error grows linearly in k, hence tol 1e-12 on both
    space = SpaceSpec(2, 3)
    p = bench_params()
    sch = (g_schedule(p),)
    psi0 = dicke_fock_state(space, 0, 3)
    period = 2 * math.pi / ETA
    span, count = snapped_span(ETA, 1e5, 200)
    kw = dict(tol=1e-12, store_states=True)
    with cutoff_warning_ignored():
        strobe = evolve_schrodinger(space, p, sch, psi0, span, count, **kw)
    assert strobe.metadata["engine"] == "floquet-stroboscopic"
    assert strobe.metadata["periods"] >= 20000

    def one_period(column):
        with cutoff_warning_ignored():
            run = evolve_schrodinger(space, p, sch, StateVector(space, column), (0.0, period),
                                     2, method="direct", **kw)
        return run.states[-1].amplitudes

    ref = reference_march(one_period, psi0.amplitudes, np.round(strobe.times / period).astype(int))
    assert np.max(np.abs(_amplitudes(strobe) - ref)) < 1e-9


def test_floquet_off_period_samples_match_direct():
    # 200 samples over ~59 periods: 199 distinct fractional offsets
    space = SpaceSpec(2, 3)
    p = bench_params()
    sch = (g_schedule(p),)
    psi0 = dicke_fock_state(space, 0, 3)
    kw = dict(tol=1e-10, store_states=True)
    with cutoff_warning_ignored():
        strobe = evolve_schrodinger(space, p, sch, psi0, (0.0, 250.0), 200, **kw)
        direct = evolve_schrodinger(space, p, sch, psi0, (0.0, 250.0), 200, method="direct",
                                    **kw)
    assert strobe.metadata["offsets"] > 128
    assert np.max(np.abs(_amplitudes(strobe) - _amplitudes(direct))) < 1e-7


def test_floquet_one_period_solve_on_any_grid():
    space = SpaceSpec(2, 3)
    p = bench_params()
    sch = (g_schedule(p),)
    psi0 = dicke_fock_state(space, 0, 3)

    def run(t_span, count):
        with cutoff_warning_ignored():
            return evolve_schrodinger(space, p, sch, psi0, t_span, count, tol=1e-10).metadata

    # past t = 5e5 a period multiple on the grid is off by more than 1e-10
    far = run(*snapped_span(ETA, 6e5, 500))
    assert far["periods"] > 140000
    assert far["offsets"] == 0
    # an offset costs DOP853's 3 dense-output evaluations in each step that
    # holds one, at most a quarter of the step's 12; no solve of its own
    snapped = run(*snapped_span(ETA, 250.0, 200))
    fractional = run((0.0, 250.0), 200)
    assert snapped["offsets"] == 0
    assert fractional["offsets"] == 199
    assert snapped["rhs_evals"] <= fractional["rhs_evals"] <= 1.25 * snapped["rhs_evals"]


# (2, 4) has parity sectors of 8 and 7 states in the collective basis and
# 10 and 10 in the distinguishable one; the coherent state fills both, the
# Fock state |k=0, n=3> one
SECTOR_CASES = [
    pytest.param(basis, state, id=f"{basis}-{state}")
    for basis in ("collective", "distinguishable")
    for state in ("coherent", "fock")
]


def _sector_case(basis, state):
    space = SpaceSpec(2, 4, basis)
    psi0 = coherent_state(space, 1.1) if state == "coherent" else dicke_fock_state(space, 0, 3)
    return space, psi0, 2 if state == "coherent" else 1


@pytest.mark.parametrize("basis, state", SECTOR_CASES)
def test_sector_floquet_matches_full_space(basis, state):
    space, psi0, occupied = _sector_case(basis, state)
    p = bench_params()
    sch = (g_schedule(p),)
    # about 41 periods, 97 distinct fractional offsets
    with cutoff_warning_ignored():
        strobe = evolve_schrodinger(space, p, sch, psi0, (0.0, 175.0), 98, tol=1e-12,
                                    store_states=True, method="stroboscopic")
    assert len(strobe.metadata["sectors"]) == occupied
    ham = build_hamiltonian(space, p, sch)
    ref = full_space_floquet(lambda t: hamiltonian_at(ham, t).toarray(), psi0.amplitudes,
                             2 * math.pi / ETA, strobe.times)
    assert np.max(np.abs(_amplitudes(strobe) - ref)) < 1e-9


def _lindblad_case(basis, state):
    space, psi0, occupied = _sector_case(basis, state)
    if basis == "collective":
        rates = DissipationRates(kappa=0.01)
    else:
        rates = DissipationRates(kappa=0.01, gamma=(0.01, 0.02), gamma_phi=(0.003, 0.001))
    return space, DensityMatrix.from_state(psi0), rates, occupied


@pytest.mark.parametrize("basis, state, phi", [
    *(pytest.param(*case.values, 0.0, id=case.id) for case in SECTOR_CASES),
    pytest.param("distinguishable", "coherent", PHI, id="distinguishable-coherent-phi0.7"),
])
def test_sector_lindblad_matches_full_space_channel(basis, state, phi):
    space, rho0, rates, occupied = _lindblad_case(basis, state)
    p = bench_params()
    sch = (g_schedule(p, phi=phi),)
    ham = build_hamiltonian(space, p, sch)
    collapse = dynamics._collapse_operators(space, rates)
    meta = {}
    # kappa = 0.01 takes the channel to the slice cap at tol 1e-12
    with pytest.warns(UserWarning, match="slice error"):
        sectors, blocks, layouts, real = dynamics._lindblad_channel(
            ham, collapse, rho0.matrix, 1e-12, meta, coherences=True)
    # the channels come back real in each block's Hermitian basis
    channels = [from_hermitian_basis(r, pr) for r, (_, pr) in zip(real, layouts)]
    assert len(blocks) == occupied
    assert meta["period_window"] == pytest.approx(half_window(phi), rel=1e-15)
    period = 2 * math.pi / ETA
    slices = meta["channel_slices"]
    full = full_space_lindblad_channel(
        lambda t: hamiltonian_at(ham, t).toarray(), [(r, op.toarray()) for r, op in collapse],
        period, slices=slices, panels=meta["channel_nodes"] // (6 * slices),
    )
    # the block's rows and columns: row-major vec(rho) indices of its pairs
    for pairs, channel in zip(blocks, channels):
        index = np.concatenate([(sectors[a][:, None] * space.dim + sectors[b]).ravel()
                                for a, b in pairs])
        assert np.max(np.abs(full[np.ix_(index, index)] - channel)) < 1e-9

    with pytest.warns(UserWarning, match="slice error"), cutoff_warning_ignored():
        strobe = evolve_lindblad(space, p, sch, rates, rho0, (0.0, 30 * period), 16,
                                 tol=1e-12, method="stroboscopic", store_states=True)
    assert strobe.metadata["sectors"] == [len(c) for c in channels]
    vec = rho0.matrix.ravel()
    ref = [np.linalg.matrix_power(full, int(k)) @ vec for k in np.round(strobe.times / period)]
    got = [s.matrix.ravel() for s in strobe.states]
    assert np.max(np.abs(np.array(got) - np.array(ref))) < 1e-9


def test_kron_apply_unitary_is_the_kronecker_product():
    # the coherence block's pair (0, 1) of sectors of 3 and 2 states, on a
    # 13-column row block of the channel
    rng = np.random.default_rng(11)
    u, v = (np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0]
            for n in (3, 2))
    c = rng.normal(size=(6, 13)) + 1j * rng.normal(size=(6, 13))
    want = np.kron(u, v.conj()) @ c
    dynamics._kron_apply_unitary(u, v, c)
    assert np.max(np.abs(c - want)) < 1e-14


def test_channel_that_breaks_hermiticity_is_refused():
    # rates with an imaginary part leave each slice generator trace-preserving
    # but not Hermiticity-preserving: the trace gate cannot see it, the gate on
    # the rates' imaginary part can
    space, rho0, rates, _ = _lindblad_case("distinguishable", "coherent")
    p = bench_params()
    ham = build_hamiltonian(space, p, (g_schedule(p),))
    collapse = dynamics._collapse_operators(space, rates)
    meta = {}
    with pytest.warns(UserWarning, match="slice error"):  # the cap, at kappa = 0.01
        *_, channels = dynamics._lindblad_channel(ham, collapse, rho0.matrix, 1e-9, meta,
                                                  coherences=True)
    assert len(channels) == 2 and all(ch.dtype == float for ch in channels)
    assert 0.0 <= meta["channel_hermiticity_defect"] < 1e-14
    # per block, each round of s slices makes 2 products per slice but the
    # first, and round 1's one-slice partner one squaring more
    rounds = [2 ** k for k in range(1, meta["channel_slices"].bit_length())]
    assert meta["channel_matmuls"] == 2 * (sum(2 * n - 1 for n in rounds) + 1)

    skewed = [(r * (1 + 1e-6j), op) for r, op in collapse]
    with pytest.raises(NumericError, match="Hermiticity defect"):
        dynamics._lindblad_channel(ham, skewed, rho0.matrix, 1e-9, {}, coherences=False)


def _generator_case(case):
    """(ham, collapse, rho0) of the systems the real generator is checked on."""
    if case == "lindblad-cli":
        # the lindblad-cli benchmark's pair (seed 1): distinguishable, n_max 8,
        # each coupling driven on its own qubit, per-qubit rates
        g1, space = 5.66e-2, SpaceSpec(2, 8, "distinguishable")
        params = SystemParams(1.0, (1.72, 1.0 + 1.02 * 0.72), (g1, 1.01 * g1), 2)
        sch = tuple(ModulationSchedule("g", 0.1 * g, 1.0632 * 1.44, math.pi / 4, qubit=i + 1)
                    for i, g in enumerate((g1, 1.01 * g1)))
        loss = (5e-5 * g1, 5e-5 * 1.01 * g1)
        rates = DissipationRates(kappa=loss[0], gamma=loss, gamma_phi=loss)
        rho0 = DensityMatrix.from_state(coherent_state(space, math.sqrt(0.5)))
        ham = build_hamiltonian(space, params, sch)
        return ham, dynamics._collapse_operators(space, rates), rho0
    basis, state, phi = case
    space, rho0, rates, _ = _lindblad_case(basis, state)
    ham = build_hamiltonian(space, bench_params(), (g_schedule(bench_params(), phi=phi),))
    return ham, dynamics._collapse_operators(space, rates), rho0


@pytest.mark.parametrize("case", [
    *(pytest.param((*case.values, 0.0), id=case.id) for case in SECTOR_CASES),
    pytest.param(("distinguishable", "coherent", PHI), id="distinguishable-coherent-phi0.7"),
    pytest.param("lindblad-cli", id="lindblad-cli"),
    pytest.param("zero-rates", id="zero-rates"),
])
def test_real_slice_generator_matches_the_complex_route(case, monkeypatch):
    # every generator the channel builds, against the complex Liouville matrix
    # rotated twice into the Hermitian basis, on both Liouville blocks
    zero = case == "zero-rates"
    ham, collapse, rho0 = _generator_case(("distinguishable", "coherent", 0.0) if zero else case)
    if zero:
        collapse = [(0.0, op) for _, op in collapse]
    built, real = [], dynamics._slice_generator

    def record(*args):
        built.append((args, real(*args)))
        return built[-1][1].copy()  # the doubling round works on its copy

    monkeypatch.setattr(dynamics, "_slice_generator", record)
    meta = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # kappa = 0.01 takes the channel to the slice cap
        sectors, blocks, _, _ = dynamics._lindblad_channel(ham, collapse, rho0.matrix, 1e-9, meta,
                                                            coherences=True)
    # a coherent rho0 fills both blocks, a Fock state only the parity-diagonal one
    assert len(blocks) == 1 + ("fock" not in case) and meta["channel_hermiticity_defect"] < 1e-14
    flips = [parity_flips(op, ham.space) for _, op in collapse]
    op_blocks = [[op[sectors[p]][:, sectors[p ^ f]].toarray() for p in (0, 1)]
                 for (_, op), f in zip(collapse, flips)]
    assert {args[3] for args, _ in built} == set(blocks)
    for (u_nd, wt, _, pairs, span, sizes, pairing), r in built:
        om = complex_slice_generator(u_nd, wt, collapse, flips, op_blocks, pairs, span, sizes)
        want, residue = real_part(to_hermitian_basis(om, pairing))
        assert r.dtype == float and residue < 1e-14
        if zero:
            assert not np.any(want) and not np.any(r)
        else:
            assert np.max(np.abs(r - want)) <= 1e-14 * np.max(np.abs(want))


def _weak_lindblad_case():
    # every rate at 1e-3 g0 on the distinguishable pair: rate * T ~ 2.4e-4
    space, rho0, _, _ = _lindblad_case("distinguishable", "coherent")
    r = 1e-3 * BENCH["g0"]
    return space, rho0, DissipationRates(kappa=r, gamma=(r, r), gamma_phi=(r, r))


@pytest.mark.parametrize("strength", ["weak", "strong"])
def test_channel_slice_error_bounds_the_distance_to_64_slices(strength):
    if strength == "weak":
        space, rho0, rates = _weak_lindblad_case()
    else:
        space, rho0, rates, _ = _lindblad_case("distinguishable", "coherent")
    p = bench_params()
    ham = build_hamiltonian(space, p, (g_schedule(p),))
    collapse = dynamics._collapse_operators(space, rates)
    meta = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the strong system stops at the cap
        sectors, blocks, layouts, real = dynamics._lindblad_channel(
            ham, collapse, rho0.matrix, 1e-9, meta, coherences=True)
    assert (meta["channel_slices"] < 32) == (strength == "weak")
    period = 2 * math.pi / ETA
    panels = max(2, math.ceil(period / 64 * dynamics._spectral_radius_bound(ham) / 1.3))
    c64 = full_space_lindblad_channel(
        lambda t: hamiltonian_at(ham, t).toarray(), [(r, op.toarray()) for r, op in collapse],
        period, slices=64, panels=panels,
    )
    distance = 0.0
    for pairs, r, (_, pairing) in zip(blocks, real, layouts):
        index = np.concatenate([(sectors[a][:, None] * space.dim + sectors[b]).ravel()
                                for a, b in pairs])
        channel = from_hermitian_basis(r, pairing)
        distance = max(distance, np.max(np.abs(c64[np.ix_(index, index)] - channel)))
    assert distance <= meta["channel_slice_error"]


def test_weak_system_stroboscopic_matches_direct_within_the_slice_estimate():
    space, rho0, rates = _weak_lindblad_case()
    p = bench_params()
    sch = (g_schedule(p),)
    span, count = snapped_span(ETA, 40 * 2 * math.pi / ETA, 5)
    with cutoff_warning_ignored():
        strobe = evolve_lindblad(space, p, sch, rates, rho0, span, count, tol=1e-9,
                                 method="stroboscopic", store_states=True)
        direct = evolve_lindblad(space, p, sch, rates, rho0, span, count, tol=1e-11,
                                 method="direct", store_states=True)
    bound = 40 * strobe.metadata["channel_slice_error"] + 1e-10
    gap = max(np.max(np.abs(a.matrix - b.matrix)) for a, b in zip(strobe.states, direct.states))
    assert gap <= bound


def test_channel_slices_stop_at_the_cap_and_warn_once():
    space, rho0, rates, _ = _lindblad_case("distinguishable", "coherent")
    p = bench_params()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with cutoff_warning_ignored():
            tr = evolve_lindblad(space, p, (g_schedule(p),), rates, rho0,
                                 (0.0, 32 * 2 * math.pi / ETA), 5, tol=1e-12,
                                 method="stroboscopic")
    md = tr.metadata
    assert md["channel_slices"] == dynamics.MAX_CHANNEL_SLICES
    assert md["channel_slice_error"] > 1e-12
    assert md["channel_nodes"] % (6 * dynamics.MAX_CHANNEL_SLICES) == 0
    slice_warnings = [w for w in caught if "slice error" in str(w.message)]
    assert len(slice_warnings) == 1
    message = str(slice_warnings[0].message)
    assert f"{md['channel_slice_error']:.2e}" in message and "tol=1e-12" in message
    assert "method='direct'" in message


def _counting_solve_ivp(monkeypatch):
    """Route dynamics' solve_ivp through a wrapper; returns the list of the
    solutions it hands back, one per call."""
    solutions = []

    def counted(*args, **kwargs):
        solutions.append(solve_ivp(*args, **kwargs))
        return solutions[-1]

    monkeypatch.setattr(dynamics, "solve_ivp", counted)
    return solutions


def _recorded_integrations(monkeypatch):
    """Route dynamics' _integrate through a wrapper; returns the list of its
    (arguments, result) pairs, one per call. The result is recorded as a
    copy, as _integrate returned it: the period solve changes its stores in
    place afterwards."""
    calls = []
    integrate = dynamics._integrate

    def recorded(*args):
        result = integrate(*args)
        calls.append((args, copy.deepcopy(result)))
        return result

    monkeypatch.setattr(dynamics, "_integrate", recorded)
    return calls


def test_cap_bound_lindblad_run_makes_one_period_solve(monkeypatch):
    # every doubling round, 2 to 32 slices, reads the nodes of one grid
    space, rho0, rates, _ = _lindblad_case("distinguishable", "coherent")
    p = bench_params()
    solutions = _counting_solve_ivp(monkeypatch)
    with pytest.warns(UserWarning, match="slice error"), cutoff_warning_ignored():
        tr = evolve_lindblad(space, p, (g_schedule(p),), rates, rho0,
                             (0.0, 32 * 2 * math.pi / ETA), 5, tol=1e-12,
                             method="stroboscopic")
    md = tr.metadata
    assert md["channel_slices"] == dynamics.MAX_CHANNEL_SLICES
    assert len(solutions) == 1 and md["rhs_evals"] == solutions[0].nfev
    # one block: 2s - 1 products per round of s slices, one more for round
    # 1's partner, then channel^8 by three squarings
    assert len(md["sectors"]) == 1
    assert md["channel_matmuls"] == sum(2 * n - 1 for n in (2, 4, 8, 16, 32)) + 1 + 3 == 123


def test_each_liouville_block_doubles_on_its_own():
    # at tol 1e-12 the diagonal block of this system stops at 4 slices and the
    # coherence block runs to the cap: asking for the coherences leaves the
    # diagonal block's channel as it is, bit for bit
    space = SpaceSpec(2, 1)
    p = SystemParams(omega0=1.0, Omega0=1.0, g0=2.0, n_qubits=2, with_crt=False)
    ham = build_hamiltonian(space, p, (ModulationSchedule("omega", 0.125, 1.5, 0.0),))
    collapse = dynamics._collapse_operators(space, DissipationRates(1e-5))
    a = np.random.default_rng(7).normal(size=(6, 12)).view(complex)
    rho = a @ a.conj().T / np.trace(a @ a.conj().T).real
    diag, both = {}, {}
    _, blocks, _, alone = dynamics._lindblad_channel(ham, collapse, rho, 1e-12, diag,
                                                     coherences=False)
    with pytest.warns(UserWarning, match="slice error"):
        _, all_blocks, _, channels = dynamics._lindblad_channel(ham, collapse, rho, 1e-12,
                                                                both, coherences=True)
    assert blocks == all_blocks[:1] and len(all_blocks) == 2
    assert np.array_equal(alone[0], channels[0])
    assert diag["channel_slices"] == 4 and diag["channel_slice_error"] <= 1e-12
    assert both["channel_slices"] == dynamics.MAX_CHANNEL_SLICES
    assert both["channel_slice_error"] > 1e-12
    # rounds 2 and 4 for the diagonal block, 2 to 32 for the coherence block
    per_block = [sum(2 * n - 1 for n in rounds) + 1 for rounds in ((2, 4), (2, 4, 8, 16, 32))]
    assert diag["channel_matmuls"] == per_block[0]
    assert both["channel_matmuls"] == sum(per_block)


def test_previous_round_is_the_pair_sum_partner(monkeypatch):
    # on the one grid, pair sums of a round's real generators are the previous
    # round's generators, so that round's factor is this round's partner
    space, rho0, rates = _weak_lindblad_case()
    p = bench_params()
    ham = build_hamiltonian(space, p, (g_schedule(p),))
    collapse = dynamics._collapse_operators(space, rates)
    rounds = []
    original = dynamics._doubling_round

    def spy(real, slices, previous):
        partner = None if previous is None else previous.copy()
        rounds.append(([real(j) for j in range(slices)], partner))
        return original(real, slices, previous)

    monkeypatch.setattr(dynamics, "_doubling_round", spy)
    meta = {}
    dynamics._lindblad_channel(ham, collapse, rho0.matrix, 1e-9, meta, coherences=True)
    assert meta["channel_slices"] >= 4
    checked = 0
    for generators, partner in rounds:
        if partner is None:
            continue
        rebuilt = None
        for j in range(0, len(generators), 2):
            rebuilt = dynamics._slice_step(generators[j] + generators[j + 1], rebuilt)
        assert np.max(np.abs(rebuilt - partner)) < 1e-13
        checked += 1
    # both Liouville blocks, every round after the first
    assert checked == 2 * (meta["channel_slices"].bit_length() - 2)


def test_only_the_direct_lindblad_engine_measures_a_hermiticity_defect(monkeypatch):
    space, rho0, rates = _weak_lindblad_case()
    p = bench_params()
    sch = (g_schedule(p),)
    span, count = snapped_span(ETA, 40 * 2 * math.pi / ETA, 5)
    with cutoff_warning_ignored():
        strobe = evolve_lindblad(space, p, sch, rates, rho0, span, count, tol=1e-9,
                                 method="stroboscopic", store_states=True)
    # T^H gives every transpose pair as exact conjugates
    assert strobe.metadata["hermiticity_defect_max"] == 0.0
    assert all(np.array_equal(s.matrix, s.matrix.conj().T) for s in strobe.states)

    calls = _recorded_integrations(monkeypatch)
    with cutoff_warning_ignored():
        direct = evolve_lindblad(space, p, sch, rates, rho0, (0.0, 2 * math.pi / ETA), 3,
                                 tol=1e-9, method="direct", store_states=True)
    # the raw samples, as the ODE solve handed them to the engine
    _, ((raw,), _, _) = calls[0]
    skew = np.max(np.abs(raw - raw.conj().transpose(0, 2, 1))) / 2.0
    assert direct.metadata["hermiticity_defect_max"] == pytest.approx(skew, rel=1e-12, abs=0.0)
    assert direct.metadata["hermiticity_defect_max"] < 1e-12


@pytest.mark.parametrize("pairs", dynamics._LIOUVILLE_BLOCKS)
def test_hermitian_basis_gate_catches_an_added_skew_term(pairs):
    # a Hermiticity-preserving generator on one block is real in its basis;
    # adding 1j * I is not
    sizes, sectors = [3, 2], [np.arange(3), 3 + np.arange(2)]
    where, pairing = dynamics._block_layout(sectors, pairs, 5)
    rng = np.random.default_rng(5)
    ops = [rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)) for _ in range(3)]
    n = sum(sizes[p] * sizes[q] for p, q in pairs)

    def column(k):
        # the generator acting on the k-th basis vector of the block
        vec = np.zeros(n, dtype=complex)
        vec[k] = 1.0
        rho = np.zeros((5, 5), dtype=complex)
        for (p, q), part in dynamics._pair_spans(pairs, sizes).items():
            rho[np.ix_(sectors[p], sectors[q])] = vec[part].reshape(sizes[p], sizes[q])
        out = sum(lindblad_dissipator(op, rho) for op in ops)
        return out.ravel()[where]

    om = np.array([column(k) for k in range(n)]).T
    meta = {}
    r = dynamics._real_part(to_hermitian_basis(om.copy(), pairing), meta)
    assert r.dtype == float and meta["channel_hermiticity_defect"] < 1e-15
    with pytest.raises(NumericError, match="Hermiticity defect"):
        dynamics._real_part(to_hermitian_basis(om + 1j * np.eye(n), pairing), {})


def test_observable_only_lindblad_propagates_the_parity_diagonal_block():
    # the coherent state fills both parity sectors, so rho0 also occupies the
    # coherences rho_pq with p != q; observables read diag(rho), which the
    # p = q block alone carries, so a run that stores no states drops p != q
    space, rho0, rates, _ = _lindblad_case("distinguishable", "coherent")
    assert rates.kappa > 0 and all(rates.gamma) and all(rates.gamma_phi)
    p = bench_params()
    sch = (g_schedule(p),)
    kw = dict(tol=1e-12, method="stroboscopic")
    span = (0.0, 30 * 2 * math.pi / ETA)
    # both reach the slice cap
    with pytest.warns(UserWarning, match="slice error"), cutoff_warning_ignored():
        both = evolve_lindblad(space, p, sch, rates, rho0, span, 16, store_states=True, **kw)
        diag = evolve_lindblad(space, p, sch, rates, rho0, span, 16, **kw)
    assert both.metadata["liouville_pairs"] == ((0, 0), (1, 1), (0, 1), (1, 0))
    assert diag.metadata["liouville_pairs"] == ((0, 0), (1, 1))
    assert len(both.metadata["sectors"]) == 2
    assert diag.metadata["sectors"] == both.metadata["sectors"][:1]
    assert diag.states is None
    assert np.array_equal(diag.times, both.times)
    pairs = [(diag.n_ph, both.n_ph), (diag.n_at, both.n_at)]
    pairs += [(diag.p_ph(n), both.p_ph(n)) for n in range(space.photon_dim)]
    pairs += [(diag.p_at(k), both.p_at(k)) for k in range(space.n_qubits + 1)]
    for got, ref in pairs:
        assert np.max(np.abs(got - ref)) < 1e-12


def test_one_state_sectors_run_both_engines():
    # SpaceSpec(1, 0): the states |k=0> and |k=1>, one per parity sector
    space = SpaceSpec(1, 0)
    p = SystemParams(omega0=1.0, Omega0=1.72, g0=0.05, n_qubits=1)
    sch = (ModulationSchedule("Omega", 0.05, 1.5),)
    psi0 = StateVector(space, np.array([1.0, 1.0j]) / math.sqrt(2))
    span = (0.0, 2 * math.pi / 1.5 * 40.3)
    kw = dict(tol=1e-10, store_states=True)
    with cutoff_warning_ignored():
        strobe = evolve_schrodinger(space, p, sch, psi0, span, 9, method="stroboscopic", **kw)
        direct = evolve_schrodinger(space, p, sch, psi0, span, 9, method="direct", **kw)
    assert strobe.metadata["sectors"] == [1, 1]
    assert np.max(np.abs(_amplitudes(strobe) - _amplitudes(direct))) < 1e-7

    rho0 = DensityMatrix.from_state(psi0)
    rates = DissipationRates(kappa=0.01)
    # the Lindblad engine samples whole periods: 9 samples ending on the 40th
    span, count = snapped_span(1.5, span[1], 9)
    with cutoff_warning_ignored():
        strobe = evolve_lindblad(space, p, sch, rates, rho0, span, count,
                                 method="stroboscopic", **kw)
        direct = evolve_lindblad(space, p, sch, rates, rho0, span, count, method="direct",
                                 **kw)
    assert strobe.metadata["sectors"] == [2, 2]
    assert np.allclose(strobe.times, direct.times, rtol=1e-12)
    for a, b in zip(strobe.states, direct.states):
        assert np.max(np.abs(a.matrix - b.matrix)) < 1e-7


def test_lindblad_strobe_samples_the_snapped_grid():
    # 21 samples over 58.8 periods are not period-aligned: the engine refuses
    # them and names the grid of snapped_span, a stride of 3 periods and 21
    # samples ending on the 60th period, which it then returns as asked
    space = SpaceSpec(1, 2)
    p = SystemParams(omega0=1.0, Omega0=1.72, g0=0.05, n_qubits=1)
    period = 2 * math.pi / 1.5
    schedules = (ModulationSchedule("Omega", 0.05, 1.5),)

    def run(span, count):
        with cutoff_warning_ignored():
            return evolve_lindblad(space, p, schedules, DissipationRates(kappa=0.01),
                                   DensityMatrix.from_state(dicke_fock_state(space, 0, 1)),
                                   span, count, method="stroboscopic")

    (start, end), count = snapped_span(1.5, 58.8 * period, 21)
    assert count == 21 and end == pytest.approx(60 * period, rel=1e-15)
    with pytest.raises(ConfigError, match=rf"t_span=\(0.0, {end!r}\) with sample_count=21"):
        run((0.0, 58.8 * period), 21)
    with pytest.warns(UserWarning, match="slice error"):  # kappa = 0.01 reaches the cap
        tr = run((start, end), count)
    assert np.array_equal(tr.times, np.linspace(start, end, count))
    assert tr.times[-1] == end and len(tr.times) == 21
    assert "t_span_requested" not in tr.metadata
    assert dynamics.lindblad_grid(schedules, 58.8 * period, 21) == ((start, end), count)
    # a run the stroboscopic engine does not take keeps its grid
    assert dynamics.lindblad_grid(schedules, 58.8 * period, 21, "direct") == (
        (0.0, 58.8 * period), 21)
    assert dynamics.lindblad_grid(schedules, 20.3 * period, 21) == ((0.0, 20.3 * period), 21)


@pytest.mark.parametrize("drives, chosen", [
    # g and Omega on two frequencies: no common period, so the request stands
    ((ModulationSchedule("g", 0.005, 1.5), ModulationSchedule("Omega", 0.01, 2.0)), "direct"),
    ((ModulationSchedule("g", 0.005, 1.5),), "stroboscopic"),
])
def test_lindblad_grid_agrees_with_the_engine_when_a_drive_piece_vanishes(drives, chosen):
    # at n_max = 0 the g piece is structurally zero, and the g drive still
    # counts: evolve_lindblad runs the engine the grid was made for and
    # accepts the grid
    space = SpaceSpec(2, 0)
    p = bench_params()
    span, count = dynamics.lindblad_grid(drives, 200.0, 11)
    grid = np.linspace(*span, count)
    with cutoff_warning_ignored():
        tr = evolve_lindblad(space, p, drives, DissipationRates(kappa=0.01),
                             DensityMatrix.from_state(dicke_fock_state(space, 1, 0)), span,
                             count)
    assert dynamics._select_engine("auto", drives, grid) == chosen
    assert tr.metadata["engine"] == {"direct": "lindblad-adaptive-rk",
                                     "stroboscopic": "lindblad-stroboscopic"}[chosen]
    assert np.array_equal(tr.times, grid)
    assert (span, count) == (((0.0, 200.0), 11) if chosen == "direct"
                             else snapped_span(1.5, 200.0, 11))


def test_lindblad_grid_refuses_short_or_empty_requests():
    schedules = (ModulationSchedule("Omega", 0.05, 1.5),)
    period = 2 * math.pi / 1.5
    for count in (1, 0):
        with pytest.raises(ConfigError, match="sample_count must be >= 2"):
            dynamics.lindblad_grid(schedules, 58.8 * period, count)
    for t_final in (0.0, -period):
        with pytest.raises(ConfigError, match="must be increasing"):
            dynamics.lindblad_grid(schedules, t_final, 11, "stroboscopic")
    # snapped_span, which the aligned grid comes from, refuses them itself
    for t_final, count, fragment in ((10.0, 1, "sample_count must be >= 2"),
                                     (0.0, 5, "must be increasing"),
                                     (-3.0, 5, "must be increasing")):
        with pytest.raises(ConfigError, match=fragment):
            snapped_span(1.0, t_final, count)


@pytest.mark.parametrize("engine", ["schrodinger", "lindblad", "schrodinger-etas"])
def test_leak_guard_rejects_cross_parity_hamiltonian(engine, monkeypatch):
    space = SpaceSpec(2, 3)
    p = bench_params()
    sch = (g_schedule(p),)
    ham = build_hamiltonian(space, p, sch)
    even, odd = parity_sectors(space)
    h = ham.h_const.tolil()
    h[even[0], odd[0]] = h[odd[0], even[0]] = 1e-3
    leaky = dataclasses.replace(ham, h_const=h.tocsr())
    monkeypatch.setattr(dynamics, "build_hamiltonian", lambda *args: leaky)
    with pytest.raises(DomainError, match="parity"):
        _evolve_either(engine, space, p, sch, dicke_fock_state(space, 0, 3),
                       (0.0, 2 * math.pi / ETA * 40), method="stroboscopic")


def _evolve_either(engine, space, params, schedules, psi0, t_span, **kw):
    if engine == "schrodinger":
        return evolve_schrodinger(space, params, schedules, psi0, t_span, 5, **kw)
    if engine == "schrodinger-etas":
        # checked on the call: no point of the returned iterator is consumed
        return evolve_schrodinger_etas(space, params, schedules, psi0, (ETA,), t_span, 5, **kw)
    return evolve_lindblad(space, params, schedules, DissipationRates(kappa=0.01),
                           DensityMatrix.from_state(psi0), t_span, 5, **kw)


def test_half_window_propagators_match_full_period_solve():
    space = SpaceSpec(2, 4)
    p = bench_params()
    ham = build_hamiltonian(space, p, (g_schedule(p, phi=PHI),))
    period = 2 * math.pi / ETA
    c = half_window(PHI)[1]
    # offsets in [0, c], in (c, c + T/2] and past c + T/2, plus U(T) itself
    t_eval = np.array([0.3 * c, c, 1.5 * c, c + period / 2, 0.5 * (c + period / 2 + period),
                       period])
    meta = {}
    sectors = parity_sectors(space)
    blocks = dynamics._period_propagators(ham, sectors, 1e-12, t_eval, meta)
    assert meta["period_window"] == pytest.approx(half_window(PHI), rel=1e-15)
    full = _one_period_propagators(lambda t: hamiltonian_at(ham, t).toarray(), space.dim,
                                   period, t_eval, rtol=1e-13)
    for s, u in zip(sectors, blocks):
        assert np.max(np.abs(u - full[:, s][:, :, s])) < 1e-9


@pytest.mark.parametrize("case", ["mixed-phase", "distinguishable-mixed-phase"])
def test_asymmetric_drive_integrates_the_full_period(case):
    p = bench_params()
    if case == "mixed-phase":
        space = SpaceSpec(2, 3)
        sch = (g_schedule(p), ModulationSchedule("Omega", 0.05, ETA, math.pi / 2))
    else:
        # the circuit pair's per-qubit g drives, out of phase
        space = SpaceSpec(2, 3, "distinguishable")
        eps = 0.1 * p.g0_uniform
        sch = (ModulationSchedule("g", eps, ETA, 0.0, qubit=1),
               ModulationSchedule("g", eps, ETA, 0.4, qubit=2))
    psi0 = coherent_state(space, 0.8)
    span = (0.0, 2 * math.pi / ETA * 40.3)
    kw = dict(tol=1e-10, store_states=True)
    with cutoff_warning_ignored():
        strobe = evolve_schrodinger(space, p, sch, psi0, span, 9, method="stroboscopic", **kw)
        direct = evolve_schrodinger(space, p, sch, psi0, span, 9, method="direct", **kw)
    assert strobe.metadata["period_window"] == (0.0, 2 * math.pi / ETA)
    assert np.max(np.abs(_amplitudes(strobe) - _amplitudes(direct))) < 1e-7


def test_half_window_halves_the_period_solve(monkeypatch):
    space = SpaceSpec(2, 4)
    p = bench_params()
    sch = (g_schedule(p, phi=PHI),)
    psi0 = coherent_state(space, 1.1)

    def run():
        with cutoff_warning_ignored():
            return evolve_schrodinger(space, p, sch, psi0, (0.0, 175.0), 98,
                                      tol=1e-10).metadata

    half = run()
    monkeypatch.setattr(dynamics, "_symmetric_window", lambda ham, period: None)
    full = run()
    assert half["period_window"] == pytest.approx(half_window(PHI), rel=1e-15)
    assert full["period_window"] == (0.0, 2 * math.pi / ETA)
    assert half["rhs_evals"] <= 0.6 * full["rhs_evals"]


def _six_qubit_g_omega(n_max):
    """exchange-n6's g + Omega drive (Omega at phase pi) on SpaceSpec(6, n_max):
    the diagonal of H(t) moves with the drive, and the window is the half one."""
    g0 = 0.08 / math.sqrt(6)
    p = SystemParams(omega0=1.0, Omega0=1.72, g0=g0, n_qubits=6)
    eta = 1.03876 * 1.44
    sch = (ModulationSchedule("g", 0.1 * g0, eta), ModulationSchedule("Omega", 0.072, eta, math.pi))
    return build_hamiltonian(SpaceSpec(6, n_max), p, sch), 2 * math.pi / eta


def _frame_case(case):
    if case == "n6-g-omega":
        ham, period = _six_qubit_g_omega(7)
        return ham, period, True
    p = bench_params()
    if case == "mixed-phase":
        sch = (g_schedule(p), ModulationSchedule("Omega", 0.05, ETA, math.pi / 2))
        return build_hamiltonian(SpaceSpec(2, 3), p, sch), 2 * math.pi / ETA, False
    # one qubit's Omega drive in phase with g: the half window
    sch = (g_schedule(p), ModulationSchedule("Omega", 0.05, ETA, qubit=1))
    return build_hamiltonian(SpaceSpec(2, 3, "distinguishable"), p, sch), 2 * math.pi / ETA, True


@pytest.mark.parametrize("case", ["n6-g-omega", "mixed-phase", "distinguishable"])
def test_interaction_frame_propagators_match_the_lab_frame(case):
    # the period solve integrates e^{i theta} U in the diagonal frame; the
    # oracle integrates U itself, on the full space, at rtol 1e-13
    ham, period, half = _frame_case(case)
    t_eval = period * np.array([0.13, 0.37, 0.5, 0.71, 0.94, 1.0])
    meta = {}
    sectors = parity_sectors(ham.space)
    blocks = dynamics._period_propagators(ham, sectors, 1e-9, t_eval, meta)
    assert (meta["period_window"] == (0.0, period)) != half
    full = _one_period_propagators(lambda t: hamiltonian_at(ham, t).toarray(), ham.space.dim,
                                   period, t_eval, rtol=1e-13)
    for s, u in zip(sectors, blocks):
        assert np.max(np.abs(u - full[:, s][:, :, s])) < 1e-10


def test_period_solve_on_the_exchange_system_is_accurate_and_cheap():
    # N=6, n_max=21, g + Omega: both parity sectors (77 + 77 states) in one solve
    ham, period = _six_qubit_g_omega(21)
    sectors = parity_sectors(ham.space)
    runs = {}
    for tol in (1e-9, 1e-12):
        meta = {}
        runs[tol] = dynamics._period_propagators(ham, sectors, tol, [period], meta)
        assert meta["rhs_evals"] <= 1000
    for u, ref in zip(runs[1e-9], runs[1e-12]):
        assert np.max(np.abs(u[-1] - ref[-1])) < 1e-11
        assert dynamics._projected_period(u[-1], 1e-9)[1] < 1e-11


# ---------------------------------------------------------------------------
# the period solve's tolerance and the horizon's error estimate
# ---------------------------------------------------------------------------

def _sweep_n2_system():
    """The N=2, n_max=12 CRT system of figure1 and of the sweep-n2 benchmark,
    its g drive at eta 1, |0, 5>, and the horizon of its transfer sweeps."""
    system = two_qubit_systems()["crt"]
    sch = system.drive(1.0)
    horizon = 1.2 * math.pi / abs(two_photon_rate_closed_form(system.params, sch, 5, 0))
    return system.space, system.params, sch, system.psi0, horizon


def _covering(ham1, etas, psi0, t_grid, tol):
    """(distance, estimate) per point of a batched stroboscopic run at tol:
    the largest state distance over the samples to a tol-1e-12 run, and the
    run's global_error_estimate."""
    runs = [list(dynamics._evolve_floquet(ham1, list(etas), psi0.amplitudes, t_grid, t))
            for t in (tol, 1e-12)]
    return [(float(np.max(np.linalg.norm(states - ref, axis=1))), md["global_error_estimate"])
            for (states, md), (ref, _) in zip(*runs)]


def test_period_solve_steps_at_the_runs_tol():
    # the period solve steps at tol / 10, so a looser run makes fewer rhs
    space, p, sch, psi0, _ = _sweep_n2_system()
    ham = build_hamiltonian(space, p, tuple(dataclasses.replace(s, eta=1.068 * 1.44)
                                            for s in sch))
    sectors = [s for s in parity_sectors(space) if np.any(psi0.amplitudes[s])]
    rhs = {}
    for tol in (1e-8, 1e-10):
        meta = {}
        dynamics._period_propagators(ham, sectors, tol, [2 * math.pi / ham.common_eta], meta)
        rhs[tol] = meta["rhs_evals"]
    assert rhs[1e-8] < rhs[1e-10]


@pytest.mark.parametrize("case", ["sweep-n2", "criterion-1", "criterion-3"])
def test_global_error_estimate_covers_batched_sweep_points(case):
    # sweep-n2's 9 points, batched as a sweep batches them, and one sweep
    # point of each acceptance system at its fixture's tol, samples and
    # horizon: ~37,600 periods at N=2, ~85,000 at N=6
    if case == "criterion-3":
        system = six_qubit_systems()["g"]
        space, p, sch, psi0 = system.space, system.params, system.drive(1.0), system.psi0
        horizon = 1.2 * math.pi / abs(two_photon_rate_closed_form(p, sch, 5, 0))
        etas, count = [1.0389 * 1.44], 61
    else:
        space, p, sch, psi0, horizon = _sweep_n2_system()
        etas, count = [1.0678 * 1.44], 121
        if case == "sweep-n2":
            etas = np.linspace((1.068 - 0.004) * 1.44, (1.068 + 0.004) * 1.44, 9)
    points = _covering(build_hamiltonian(space, p, sch), etas, psi0,
                       np.linspace(0.0, horizon, count), 1e-8)
    assert len(points) == len(etas)
    for distance, estimate in points:
        assert 0.0 < distance <= estimate


def test_global_error_estimate_covers_an_exchange_trajectory():
    # exchange-n6's g + Omega run: 501 samples over ~156,000 periods at tol 1e-9
    system = six_qubit_systems()["go"]
    eta = 1.03876 * 1.44
    sch = system.drive(eta)
    q = abs(two_photon_rate_closed_form(system.params, sch[:1], 5, 0))
    span, count = snapped_span(eta, 2.2 * math.pi / q, 501)
    runs = [evolve_schrodinger(system.space, system.params, sch, system.psi0, span, count,
                               tol=tol, store_states=True)
            for tol in (1e-9, 1e-12)]
    distance = max(np.linalg.norm(a.amplitudes - b.amplitudes)
                   for a, b in zip(runs[0].states, runs[1].states))
    md = runs[0].metadata
    assert md["periods"] > 150_000
    assert md["global_error_estimate"] == md["periods"] * md["period_error_estimate"]
    assert 0.0 < distance <= md["global_error_estimate"]


def test_global_error_estimate_covers_a_lindblad_march():
    # the lindblad-cli benchmark's system: the realistic pair at n_max 8 from
    # |alpha|^2 = 0.5, 301 samples over one microsecond (15,300 periods)
    system = circuit_pair_systems()["realistic"]
    space = SpaceSpec(2, 8, "distinguishable")
    sch = system.drive(1.0632 * 1.44)
    ham = build_hamiltonian(space, system.params, sch)
    collapse = dynamics._collapse_operators(space, system.rates)
    rho0 = DensityMatrix.from_state(coherent_state(space, math.sqrt(0.5))).matrix
    span, count = dynamics.lindblad_grid(sch, 1e-6 / seconds_per_time_unit(10e9), 301)
    runs = []
    for tol in (1e-9, 1e-12):
        meta = {}
        with warnings.catch_warnings():
            # at tol 1e-12 the channel reaches the slice cap a hair above tol
            warnings.filterwarnings("ignore", message="Lindblad channel slice error")
            rhos, _ = dynamics._lindblad_strobe(ham, collapse, rho0, np.linspace(*span, count),
                                                tol, meta, coherences=False)
        runs.append((rhos, meta))
    (rhos, meta), (ref, _) = runs
    distance = float(np.max(np.linalg.norm(rhos - ref, axis=(1, 2))))
    periods = span[1] * ham.common_eta / (2 * math.pi)
    assert meta["global_error_estimate"] == pytest.approx(
        periods * (2 * meta["period_error_estimate"] + meta["channel_slice_error"]), rel=1e-9)
    assert 0.0 < distance <= meta["global_error_estimate"]


@pytest.mark.parametrize("engine", ["schrodinger", "lindblad"])
def test_direct_engines_sample_as_solve_ivp_t_eval_does(engine, monkeypatch):
    # the direct engines read their samples off DOP853's accepted steps; scipy's
    # own DOP853 at the same rtol, atol and step cap, sampling through t_eval,
    # takes the same steps and reads the same numbers
    space = SpaceSpec(2, 3)
    p = bench_params()
    sch = (g_schedule(p),)
    calls = _recorded_integrations(monkeypatch)
    with cutoff_warning_ignored():
        traj = _evolve_either(engine, space, p, sch, dicke_fock_state(space, 0, 3), (0.0, 20.0),
                              tol=1e-9, method="direct")
    (_, rhs, y0, t_span, (grid,), rtol, _), ((store,), _, rhs_evals) = calls[0]
    ref, nfev = dop853_t_eval(rhs, t_span, np.ravel(y0).astype(complex), grid, rtol,
                              dynamics._max_step(sch))
    assert len(calls) == 1 and np.array_equal(grid, traj.times)
    assert traj.metadata["rhs_evals"] == rhs_evals == nfev
    assert np.array_equal(store.reshape(len(grid), -1), ref)


@pytest.mark.parametrize("window", ["half", "full"])
def test_period_solve_samples_as_solve_ivp_t_eval_does(window, monkeypatch):
    # the period solve's step is the package's own; replayed through scipy's
    # DOP853 at the same rtol, atol and step cap, its rhs takes the same steps
    # and the samples read the same numbers. A two-point batch on the half
    # window, and g at phase 0 with Omega at pi/2 on the full one
    p = bench_params()
    if window == "half":
        sch, etas = (g_schedule(p, phi=PHI),), (0.995 * ETA, 1.005 * ETA)
        taus = [2 * math.pi * np.array([0.13, 0.5, 0.94, 1.0]),
                2 * math.pi * np.array([0.37, 0.71, 1.0])]
    else:
        sch = (g_schedule(p), ModulationSchedule("Omega", 0.05, ETA, math.pi / 2))
        etas, taus = (ETA,), [2 * math.pi * np.array([0.13, 0.37, 0.5, 0.71, 0.94, 1.0])]
    ham = build_hamiltonian(SpaceSpec(2, 3), p, sch)
    calls = _recorded_integrations(monkeypatch)
    dynamics._sector_propagators(ham.at_eta(1.0), etas, parity_sectors(ham.space), 1e-9, taus)
    (sub, rhs, y0, t_span, grids, rtol, _), (stores, _, rhs_evals) = calls[0]
    assert len(calls) == 1 and (t_span[0] == 0.0) == (window == "full")
    times = np.unique(np.concatenate(grids))
    ref, nfev = dop853_t_eval(rhs, t_span, np.ravel(y0), times, rtol,
                              dynamics._max_step([s for s, _ in sub.terms]))
    assert rhs_evals == nfev
    ref = ref.reshape(len(times), *np.shape(y0))
    for j, (grid, store) in enumerate(zip(grids, stores)):
        assert np.array_equal(store, ref[np.searchsorted(times, grid), :, j])


def test_a_step_below_the_float_spacing_fails_as_in_scipy():
    # dy/dt = y^2 from y(0) = 1 blows up at t = 1: the step shrinks below ten
    # float spacings there, and the solve fails with scipy's own message
    ham = build_hamiltonian(SpaceSpec(1, 1), bench_params(n_qubits=1))

    def rhs(t, y, out=None):
        return np.multiply(y, y, out=out)

    ref = solve_ivp(rhs, (0.0, 2.0), np.ones(1, dtype=complex), method="DOP853", rtol=1e-9,
                    atol=1e-12)
    assert ref.status == -1 and "step size" in ref.message
    with pytest.raises(NumericError, match=f"^failed: {ref.message}$"):
        dynamics._integrate(ham, rhs, np.ones((1, 1, 1), dtype=complex), (0.0, 2.0),
                            [np.array([0.0, 2.0])], 1e-9, "failed: {}")


@pytest.mark.parametrize("engine, tols", [("schrodinger", (1e-7, 1e-8, 1e-9)),
                                          ("lindblad", (1e-6, 1e-9))])
def test_global_error_estimate_covers_a_direct_run(engine, tols):
    # a direct run's estimate sums DOP853's error estimates over its steps up
    # to the last sample; it covers the largest distance to a tol-1e-12 run
    if engine == "schrodinger":
        space = SpaceSpec(2, 5)
        p = bench_params()
        psi0 = dicke_fock_state(space, 0, 5).amplitudes
        t_grid = np.linspace(0.0, 40.0, 9)

        def run(tol, md):
            return dynamics._evolve_direct(build_hamiltonian(space, p, (g_schedule(p),)), psi0,
                                           t_grid, tol, md)
    else:
        # the distinguishable pair of figure4, with all three channels
        space = SpaceSpec(2, 2, "distinguishable")
        p = SystemParams(omega0=1.0, Omega0=(1.72, 1.7344), g0=(0.0566, 0.0572), n_qubits=2)
        sch = (ModulationSchedule("g", 0.00566, 1.53, qubit=1),)
        rates = DissipationRates(kappa=0.01, gamma=(0.005, 0.005), gamma_phi=(0.002, 0.002))
        rho0 = DensityMatrix.from_state(coherent_state(space, 0.5)).matrix
        t_grid = np.linspace(0.0, 10.0, 5)

        def run(tol, md):
            return dynamics._lindblad_direct(build_hamiltonian(space, p, sch),
                                             dynamics._collapse_operators(space, rates), rho0,
                                             t_grid, tol, md)
    ref = run(1e-12, {})
    for tol in tols:
        md = {}
        samples = run(tol, md)
        distance = max(np.linalg.norm(a - b) for a, b in zip(samples, ref))
        assert 0.0 < distance <= md["global_error_estimate"] < 100 * distance


# ---------------------------------------------------------------------------
# eta-batched period solves
# ---------------------------------------------------------------------------

BATCH_ETAS = (0.99 * ETA, ETA, 1.01 * ETA)


def _batch_case(window):
    """A g drive alone (the half window), or g at phase 0 with an Omega drive
    at pi/2 (the full window), on a state that fills both parity sectors."""
    p = bench_params()
    sch = (g_schedule(p),)
    if window == "full":
        sch += (ModulationSchedule("Omega", 0.05, ETA, math.pi / 2),)
    space = SpaceSpec(2, 4)
    return space, p, sch, coherent_state(space, 0.8), (0.0, 40.3 * 2 * math.pi / ETA)


def _point_store_bytes(space, psi0, t_span, count, eta):
    """One point's sample store: its distinct offsets, U(T), Y(0) and Y(c)."""
    sizes = [len(s) for s in parity_sectors(space) if np.any(psi0.amplitudes[s])]
    offsets = dynamics._period_split(np.linspace(*t_span, count), 2 * math.pi / eta)[2]
    return (len(offsets) + 3) * sum(sizes) * max(sizes) * 16


@pytest.mark.parametrize("window", ["half", "full"])
def test_batched_points_match_one_point_at_a_time(window, monkeypatch):
    space, p, sch, psi0, span = _batch_case(window)
    monkeypatch.setattr(dynamics, "SAMPLE_STORE_BYTES", 10**12)
    kw = dict(tol=1e-10, method="stroboscopic")
    with cutoff_warning_ignored():
        batched = list(evolve_schrodinger_etas(space, p, sch, psi0, BATCH_ETAS, span, 121,
                                               **kw))
    for eta, traj in zip(BATCH_ETAS, batched):
        with cutoff_warning_ignored():
            alone = evolve_schrodinger(space, p,
                                       tuple(dataclasses.replace(s, eta=eta) for s in sch),
                                       psi0, span, 121, **kw)
        assert traj.states is None
        assert traj.metadata["batch_points"] == 3 and alone.metadata["batch_points"] == 1
        assert traj.metadata["period_window"] == pytest.approx(
            alone.metadata["period_window"], rel=1e-15)
        assert (alone.metadata["period_window"][0] == 0.0) == (window == "full")
        assert np.max(np.abs(traj.joint - alone.joint)) < 1e-9
    assert len({traj.metadata["rhs_evals"] for traj in batched}) == 1


@pytest.mark.parametrize("window", ["half", "full"])
def test_batched_points_hold_the_single_run_bound(window):
    # one step controller serves the batch, so a point's own error is not
    # held by it alone: each point's propagators must still meet the bound
    # of a single period solve against the rtol 1e-13 oracle
    space, p, sch, _, _ = _batch_case(window)
    ham = build_hamiltonian(space, p, sch)
    sectors = parity_sectors(space)
    fractions = np.array([0.13, 0.37, 0.5, 0.71, 0.94, 1.0])
    batch = dynamics._sector_propagators(ham.at_eta(1.0), BATCH_ETAS, sectors, 1e-9,
                                         [2 * math.pi * fractions] * len(BATCH_ETAS))
    for eta, samples in zip(BATCH_ETAS, batch):
        at = ham.at_eta(eta)
        period = 2 * math.pi / eta
        full = _one_period_propagators(lambda t: hamiltonian_at(at, t).toarray(), space.dim,
                                       period, period * fractions, rtol=1e-13)
        for q, s in enumerate(sectors):
            u = np.stack([samples.apply(q, k, np.eye(len(s))) for k in range(len(fractions))])
            assert np.max(np.abs(u - full[:, s][:, :, s])) < 1e-10


@pytest.mark.parametrize("width", [1, 2, 5])
def test_batched_points_make_one_solve_per_chunk(width, monkeypatch):
    space, p, sch, psi0, span = _batch_case("half")
    etas = np.linspace(0.99, 1.01, 5) * ETA
    per_point = max(_point_store_bytes(space, psi0, span, 9, eta) for eta in etas)
    monkeypatch.setattr(dynamics, "SAMPLE_STORE_BYTES", width * per_point)
    solutions = _counting_solve_ivp(monkeypatch)
    with cutoff_warning_ignored():
        trajs = list(evolve_schrodinger_etas(space, p, sch, psi0, etas, span, 9, tol=1e-10))
    assert len(solutions) == math.ceil(len(etas) / width)
    for i, traj in enumerate(trajs):
        chunk = i // width
        assert traj.metadata["batch_points"] == min(width, len(etas) - chunk * width)
        assert traj.metadata["rhs_evals"] == solutions[chunk].nfev


def test_batched_entry_runs_every_point_on_its_own_engine():
    space, p, sch, psi0, _ = _batch_case("half")
    # three periods: auto integrates these directly, each as its own run would
    span = (0.0, 3 * 2 * math.pi / ETA)
    with cutoff_warning_ignored():
        batched = list(evolve_schrodinger_etas(space, p, sch, psi0, BATCH_ETAS, span, 9))
    for eta, traj in zip(BATCH_ETAS, batched):
        with cutoff_warning_ignored():
            alone = evolve_schrodinger(space, p,
                                       tuple(dataclasses.replace(s, eta=eta) for s in sch),
                                       psi0, span, 9)
        assert traj.metadata["engine"] == alone.metadata["engine"] == "adaptive-rk"
        assert traj.metadata["rhs_evals"] == alone.metadata["rhs_evals"]
        assert np.array_equal(traj.joint, alone.joint)
    # schedules that are all epsilon = 0 leave H static at every eta
    still = tuple(dataclasses.replace(s, epsilon=0.0) for s in sch)
    with cutoff_warning_ignored():
        engines = [traj.metadata["engine"] for traj in evolve_schrodinger_etas(
            space, p, still, psi0, BATCH_ETAS, span, 9)]
    assert engines == ["static-eigendecomposition"] * 3
    with pytest.raises(ConfigError, match="unknown method"):
        evolve_schrodinger_etas(space, p, sch, psi0, BATCH_ETAS, span, 9, method="bogus")


def test_zero_depth_schedule_leaves_the_direct_step_alone():
    # an epsilon = 0 schedule leaves H(t) as it is, so its eta must not cap
    # the step
    space, p, sch, psi0, _ = _batch_case("half")
    span = (0.0, 3 * 2 * math.pi / ETA)
    with cutoff_warning_ignored():
        plain = evolve_schrodinger(space, p, sch, psi0, span, 9, method="direct")
        idle = evolve_schrodinger(space, p, sch + (ModulationSchedule("Omega", 0.0, 50.0),),
                                  psi0, span, 9, method="direct")
    assert idle.metadata["rhs_evals"] == plain.metadata["rhs_evals"]
    assert np.max(np.abs(idle.joint - plain.joint)) < 1e-12


def test_store_width_follows_the_budget(monkeypatch):
    # sweep-n2's point: 121 samples, 120 offsets, one 19-state sector
    per_point = 123 * 19 * 19 * 16
    assert dynamics._store_width(123, 19, 19) == dynamics.SAMPLE_STORE_BYTES // per_point
    for width in (1, 3, 9):
        monkeypatch.setattr(dynamics, "SAMPLE_STORE_BYTES", width * per_point + per_point - 1)
        assert dynamics._store_width(123, 19, 19) == width
    monkeypatch.undo()
    # an N=6 point at 61 samples, on one 77-state sector or on both
    assert dynamics._store_width(63, 77, 77) == dynamics._store_width(63, 154, 77) == 1


@pytest.mark.parametrize("ulps", [0, 10, 40])
@pytest.mark.parametrize("engine", ["schrodinger", "lindblad"])
def test_stroboscopic_engines_return_the_grid_they_are_given(engine, ulps):
    # lindblad_grid's 240 samples ending on the 239th period, the end moved
    # up to 40 ulps later: inside the 64-ulp snap, so the run is stroboscopic
    # and samples that grid, not the aligned one
    space = SpaceSpec(1, 4)
    p = SystemParams(omega0=1.0, Omega0=1.72, g0=0.05, n_qubits=1)
    sch = (ModulationSchedule("g", 0.005, 1.5),)
    (start, end), count = dynamics.lindblad_grid(sch, 1000.0, 301)
    assert count == 240
    t_span = (start, end + ulps * np.spacing(end))
    psi0 = dicke_fock_state(space, 0, 1)
    with warnings.catch_warnings():
        # kappa = 0.01 takes the Lindblad channel to its slice cap
        warnings.filterwarnings("ignore", message="Lindblad channel slice error")
        if engine == "schrodinger":
            tr = evolve_schrodinger(space, p, sch, psi0, t_span, count, method="stroboscopic")
        else:
            tr = evolve_lindblad(space, p, sch, DissipationRates(kappa=0.01),
                                 DensityMatrix.from_state(psi0), t_span, count,
                                 method="stroboscopic")
    assert "stroboscopic" in tr.metadata["engine"]
    assert np.array_equal(tr.times, np.linspace(*t_span, count))
    assert tr.metadata["periods"] == 239 == round(end * 1.5 / (2 * math.pi))


def test_lindblad_period_count_snaps_like_the_sample_grid():
    # 1e5 periods and 40 ulps: past the old absolute 1e-9 (17 ulps at this t),
    # inside the 64-ulp snap, so the last sample counts 1e5 periods and keeps
    # the time it was asked for
    space = SpaceSpec(1, 0)
    p = SystemParams(omega0=1.0, Omega0=1.72, g0=0.05, n_qubits=1)
    period = 2 * math.pi / 1.5
    k = 100_000
    t1 = k * period + 40 * np.spacing(k * period)
    with cutoff_warning_ignored():
        tr = evolve_lindblad(space, p, (ModulationSchedule("Omega", 0.05, 1.5),),
                             DissipationRates(kappa=0.01),
                             DensityMatrix(space, np.diag([0.0, 1.0]).astype(complex)),
                             (0.0, t1), k + 1, method="stroboscopic")
    assert len(tr.times) == k + 1
    assert tr.metadata["periods"] == k
    assert tr.times[-1] == t1


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
    with cutoff_warning_ignored():
        assert len(evolve_schrodinger(space, p, (), psi0, (0.0, 1.0), np.int64(5)).times) == 5
    with pytest.raises(DomainError):
        evolve_schrodinger(space, p, (), dicke_fock_state(SpaceSpec(2, 4), 0, 3), (0.0, 1.0), 5)


@pytest.mark.parametrize("count", [5.5, 5.0, True, "5"])
def test_sample_count_must_be_an_integer(count):
    # numpy integers pass (test_run_configuration_guards); a bool or a
    # non-integral value is refused by every entry that takes a count
    space = SpaceSpec(2, 3)
    p = bench_params()
    sch = (g_schedule(p),)
    psi0 = dicke_fock_state(space, 0, 3)
    entries = [
        lambda: evolve_schrodinger(space, p, sch, psi0, (0.0, 1.0), count),
        lambda: evolve_lindblad(space, p, sch, DissipationRates(kappa=0.01),
                                DensityMatrix.from_state(psi0), (0.0, 1.0), count),
        lambda: dynamics.lindblad_grid(sch, 100.0, count),
        lambda: snapped_span(ETA, 100.0, count),
    ]
    for entry in entries:
        with pytest.raises(ConfigError, match="sample_count"):
            entry()


def test_cutoff_policy_rows():
    space = SpaceSpec(2, 2)
    p = bench_params(with_crt=False)
    psi0 = dicke_fock_state(space, 0, 2)  # all weight at the cutoff
    with pytest.warns(UserWarning, match="truncation"):
        tr = evolve_schrodinger(space, p, (), psi0, (0.0, 1.0), 3)
    assert tr.metadata["cutoff_max_population"] > 0.9
    # the warnings filter makes the warning fatal
    with warnings.catch_warnings():
        warnings.filterwarnings("error", message="population .* at the Fock cutoff")
        with pytest.raises(UserWarning, match="truncation"):
            evolve_schrodinger(space, p, (), psi0, (0.0, 1.0), 3)


def test_trajectory_accessors():
    space = SpaceSpec(2, 4)
    p = bench_params()
    with cutoff_warning_ignored():
        tr = evolve_schrodinger(space, p, (), dicke_fock_state(space, 1, 2), (0.0, 5.0), 9)
    assert tr.times.shape == (9,)
    assert tr.joint.shape == (9, 3, space.photon_dim)
    assert tr.states is None
    recon = sum(n * tr.p_ph(n) for n in range(space.photon_dim))
    assert np.allclose(recon, tr.n_ph, atol=1e-12)
    recon_at = sum(k * tr.p_at(k) for k in range(3))
    assert np.allclose(recon_at, tr.n_at, atol=1e-12)
    # an index outside 0..n_max or 0..N is refused, not wrapped
    for read in (lambda: tr.p_ph(-1), lambda: tr.p_ph(5), lambda: tr.p_at(-1),
                 lambda: tr.p_at(3)):
        with pytest.raises(DomainError):
            read()


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


def test_collapse_operators_are_the_cached_ladder_operators():
    space = SpaceSpec(2, 3, "distinguishable")
    a, _, lowering, level = ladder_operators(space)
    collapse = dynamics._collapse_operators(space, DissipationRates(0.1, (0.2, 0.0), (0.0, 0.3)))
    assert [r for r, _ in collapse] == [0.1, 0.2, 0.15]
    assert collapse[0][1] is a and collapse[1][1] is lowering[0]
    for _, op in collapse[:2]:
        with pytest.raises(ValueError, match="read-only"):
            op.data[0] = 0.0
    # the dephasing operator is sigma_z of qubit 2, exactly +-1
    sz = collapse[2][1]
    assert np.array_equal(sz.toarray(), 2.0 * level[1].toarray())
    assert set(np.abs(sz.data)) == {1.0}


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
    with pytest.raises(ValueError):
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
    assert np.trace(pure.matrix @ pure.matrix).real == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("where", ["everywhere", "one-diagonal-entry"])
def test_density_matrix_refuses_nan(where):
    space = SpaceSpec(1, 1)
    m = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
    if where == "everywhere":
        m[:] = np.nan
    else:
        m[2, 2] = np.nan
    with pytest.raises(NumericError):
        DensityMatrix(space, m)


# ---------------------------------------------------------------------------
# master equation runs
# ---------------------------------------------------------------------------

def test_damped_cavity_matches_analytic_decay():
    space = SpaceSpec(1, 6)
    p = SystemParams(omega0=1.0, Omega0=1.72, g0=0.0, n_qubits=1)
    rho0 = DensityMatrix.from_state(dicke_fock_state(space, 0, 3))
    kappa = 0.05
    with cutoff_warning_ignored():
        tr = evolve_lindblad(
            space, p, (), DissipationRates(kappa=kappa), rho0, (0.0, 40.0), 21, tol=1e-10,
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
    with cutoff_warning_ignored():
        uni = evolve_schrodinger(
            space, p, sch, psi0, (0.0, 50.0), 26, tol=1e-10, method="direct",
        )
        mixed = evolve_lindblad(
            space, p, sch, DissipationRates(), DensityMatrix.from_state(psi0),
            (0.0, 50.0), 26, tol=1e-10, method="direct",
        )
    assert np.max(np.abs(uni.n_ph - mixed.n_ph)) < 1e-7
    assert np.max(np.abs(uni.n_at - mixed.n_at)) < 1e-7


def test_purity_never_increases_under_static_hamiltonian():
    # modulated runs can transiently pump coherence; the monotone statement
    # holds for a time-independent generator over a short decay window
    space = SpaceSpec(2, 5)
    p = bench_params()
    rho0 = DensityMatrix.from_state(dicke_fock_state(space, 0, 3))
    with cutoff_warning_ignored():
        tr = evolve_lindblad(
            space, p, (), DissipationRates(kappa=0.02), rho0, (0.0, 25.0), 26,
            tol=1e-10, store_states=True,
        )
    purity = np.array([np.trace(s.matrix @ s.matrix).real for s in tr.states])
    assert float(np.max(np.diff(purity))) <= 1e-8


def test_lindblad_stroboscopic_matches_direct():
    space = SpaceSpec(1, 4)
    p = SystemParams(omega0=1.0, Omega0=1.72, g0=0.05, n_qubits=1)
    sch = (ModulationSchedule("g", 0.005, 1.5),)
    rho0 = DensityMatrix.from_state(dicke_fock_state(space, 0, 2))
    t_final = 2 * math.pi / 1.5 * 40
    kw = dict(tol=1e-9)
    with cutoff_warning_ignored():
        direct = evolve_lindblad(
            space, p, sch, DissipationRates(kappa=0.01), rho0, (0.0, t_final), 41,
            method="direct", **kw,
        )
    # kappa = 0.01 reaches the cap
    with pytest.warns(UserWarning, match="slice error"), cutoff_warning_ignored():
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
