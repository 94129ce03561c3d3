"""Exact time evolution of the modulated system.

Unitary runs integrate i d|psi>/dt = H(t)|psi> in the lab frame; dissipative
runs integrate the master equation
    drho/dt = -i[H(t), rho] + kappa D[a] + sum_l (gamma_l D[sigma-_l]
              + (gamma_phi_l/2) D[sigma_z_l]),
with D[O]rho = (2 O rho O^dag - O^dag O rho - rho O^dag O)/2.

evolve_schrodinger and evolve_lindblad share one dispatcher, _select_engine,
which is also the only place that validates `method` (auto, direct or
stroboscopic). Under auto, static Hamiltonians propagate by
eigendecomposition; the master equation has no static engine and integrates
them directly. Short or aperiodic drives use adaptive Runge-Kutta. Drives
with one common frequency that span at least STROBE_MIN_PERIODS periods from
t=0 use the stroboscopic engine, and a forced `stroboscopic` run needs the
same common frequency and t=0 start. Every ODE solve goes through _integrate,
which applies H(t) through ModulatedHamiltonian.apply and caps the step at a
twentieth of the fastest drive period.

The stroboscopic engine integrates one drive period once at tight tolerance,
then applies the one-period propagator (or quantum channel) period by
period. This is what makes horizons of 1e5 time units tractable; the drive
here is a single sinusoid, so the periodicity is exact and the only
approximation is the one already controlled by the integrator tolerance. The
one-period unitary is projected to the nearest exact unitary and the
projection defect is reported, so marching cannot accumulate norm drift. The
dissipative channel keeps the Hamiltonian factor exact and expands the
(weak) dissipative factor to second order per sub-period slice; trace
preservation is exact by construction because the same quadrature rule
builds both the jump and the anticommutator pieces.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp

from .errors import ConfigError, CutoffError, DomainError, NumericError, UnsupportedError
from .hilbert import (
    COLLECTIVE,
    ObservableSet,
    SpaceSpec,
    StateVector,
    build_operators,
    observables,
)
from .model import (
    DissipationRates,
    ModulatedHamiltonian,
    ModulationSchedule,
    SystemParams,
    build_hamiltonian,
)

NORM_DRIFT_TOL = 1e-7
TRACE_DRIFT_TOL = 1e-7
EIG_FLOOR_RUN = -1e-6
CUTOFF_POP_TOL = 1e-6
UNITARY_DEFECT_TOL = 1e-9
STROBE_MIN_PERIODS = 32
DRIVE_STEPS_PER_PERIOD = 20


@dataclass
class Trajectory:
    """Sampled evolution: times, observables, optional raw states, run stats."""

    space: SpaceSpec
    times: np.ndarray
    observables: list[ObservableSet]
    states: list | None
    metadata: dict = field(default_factory=dict)

    @property
    def n_ph(self) -> np.ndarray:
        return np.array([o.n_ph for o in self.observables])

    @property
    def n_at(self) -> np.ndarray:
        return np.array([o.n_at for o in self.observables])

    def p_ph(self, n: int) -> np.ndarray:
        return np.array([o.p_ph[n] for o in self.observables])

    def p_at(self, k: int) -> np.ndarray:
        return np.array([o.p_at[k] for o in self.observables])


@dataclass
class DensityMatrix:
    """Validated density operator on a SpaceSpec."""

    space: SpaceSpec
    matrix: np.ndarray
    floor_tol: float = 1e-7

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (self.space.dim, self.space.dim):
            raise DomainError(
                f"density matrix shape {m.shape} != space dim {self.space.dim}"
            )
        herm = float(np.max(np.abs(m - m.conj().T)))
        if herm > 1e-12:
            raise NumericError(f"density matrix hermiticity defect {herm:.2e} > 1e-12")
        tr = complex(np.trace(m))
        if abs(tr - 1.0) > 1e-9:
            raise NumericError(f"density matrix trace {tr:.12f} off unity by > 1e-9")
        w = np.linalg.eigvalsh(m)
        if w[0] < -self.floor_tol:
            raise NumericError(
                f"density matrix minimum eigenvalue {w[0]:.2e} below -{self.floor_tol:.0e}"
            )
        self.matrix = m

    @classmethod
    def from_state(cls, state: StateVector) -> "DensityMatrix":
        amp = state.amplitudes
        return cls(state.space, np.outer(amp, amp.conj()))

    def purity(self) -> float:
        return float(np.real(np.trace(self.matrix @ self.matrix)))


def _validate_tol(tol: float) -> None:
    if not 1e-12 <= tol <= 1e-6:
        raise ConfigError(f"tol={tol:g} outside [1e-12, 1e-6]")


def _sample_grid(t_span, sample_count: int) -> np.ndarray:
    t0, t1 = float(t_span[0]), float(t_span[1])
    if not t1 > t0:
        raise ConfigError(f"t_span ({t0}, {t1}) must be increasing")
    if sample_count < 2:
        raise ConfigError("sample_count must be >= 2")
    return np.linspace(t0, t1, sample_count)


def _max_step(schedules) -> float:
    etas = [s.eta for s in schedules]
    if not etas:
        return np.inf
    return (2.0 * math.pi / max(etas)) / DRIVE_STEPS_PER_PERIOD


def _cutoff_check(space: SpaceSpec, obs_list, policy: str, metadata: dict) -> None:
    top = max(o.p_ph[space.n_max] for o in obs_list)
    metadata["cutoff_max_population"] = top
    if top > CUTOFF_POP_TOL:
        msg = (
            f"population {top:.2e} at the Fock cutoff n_max={space.n_max} "
            f"exceeds {CUTOFF_POP_TOL:g}; the truncation is biting"
        )
        if policy == "error":
            raise CutoffError(msg)
        if policy == "warn":
            warnings.warn(msg, stacklevel=3)


# ---------------------------------------------------------------------------
# ODE integration
# ---------------------------------------------------------------------------

def _integrate(ham: ModulatedHamiltonian, rhs, y0, t_span, t_eval, method: str,
               rtol: float, failure: str):
    """The one ODE call site: dY/dt = rhs(t, Y) for Y shaped like y0.

    atol is rtol * 1e-3 and the step is capped by the fastest drive; failure is
    the NumericError text, with {} standing for the solver's message.
    """
    shape = np.shape(y0)
    sol = solve_ivp(
        lambda t, y: rhs(t, y.reshape(shape)).ravel(),
        t_span,
        np.asarray(y0, dtype=complex).ravel(),
        t_eval=t_eval,
        method=method,
        rtol=rtol,
        atol=rtol * 1e-3,
        max_step=_max_step([s for s, _ in ham.terms]),
    )
    if not sol.success:
        raise NumericError(failure.format(sol.message))
    return sol


def _schrodinger_rhs(ham: ModulatedHamiltonian):
    return lambda t, y: -1j * ham.apply(t, y)


def _propagate(ham: ModulatedHamiltonian, y0: np.ndarray, t1: float, rtol: float,
               t_eval=None):
    """Integrate dY/dt = -i H(t) Y over [0, t1] for Y with columns of amplitudes."""
    return _integrate(ham, _schrodinger_rhs(ham), y0, (0.0, t1), t_eval, "DOP853", rtol,
                      "propagator integration failed: {}")


def _polar_project(u: np.ndarray):
    w, s, vh = np.linalg.svd(u)
    return w @ vh, float(np.max(np.abs(s - 1.0)))


# ---------------------------------------------------------------------------
# unitary engines
# ---------------------------------------------------------------------------

def _evolve_static(ham, psi0, t_grid, metadata):
    h = ham.h_const.toarray()
    w, v = np.linalg.eigh(h)
    coeff = v.conj().T @ psi0
    phases = np.exp(-1j * np.outer(t_grid, w))
    states = (phases * coeff) @ v.T
    metadata["engine"] = "static-eigendecomposition"
    metadata["rhs_evals"] = 0
    return states


def _evolve_direct(ham, psi0, t_grid, tol, metadata):
    sol = _integrate(ham, _schrodinger_rhs(ham), psi0, (float(t_grid[0]), float(t_grid[-1])),
                     t_grid, "RK45", tol, "integration failed: {}; try a tighter tol")
    metadata["engine"] = "adaptive-rk"
    metadata["rhs_evals"] = int(sol.nfev)
    return sol.y.T


def _evolve_floquet(ham, psi0, t_grid, tol, metadata):
    """Stroboscopic propagation for a strictly periodic H(t).

    One period is integrated as a matrix ODE at tight tolerance; the projected
    one-period unitary is marched; fractional-period offsets are covered by a
    cached matrix solve when few offsets repeat, otherwise by short per-sample
    vector solves.
    """
    eta = ham.common_eta
    period = 2.0 * math.pi / eta
    dim = ham.space.dim
    rtol_u = max(min(tol / 10.0, 1e-11), 1e-13)

    sol_u = _propagate(ham, np.eye(dim, dtype=complex), period, rtol_u)
    u_raw = sol_u.y[:, -1].reshape(dim, dim)
    u_t, defect = _polar_project(u_raw)
    defect_gate = max(UNITARY_DEFECT_TOL, tol)
    if defect > defect_gate:
        raise NumericError(
            f"one-period propagator unitarity defect {defect:.2e} > {defect_gate:g}; "
            "tighten tol"
        )
    metadata["engine"] = "floquet-stroboscopic"
    metadata["propagator_defect"] = defect
    metadata["rhs_evals"] = int(sol_u.nfev)

    ks = np.floor(t_grid / period + 1e-12).astype(int)
    taus = t_grid - ks * period
    taus[np.abs(taus) < 1e-10] = 0.0
    taus[np.abs(taus - period) < 1e-10] = 0.0
    ks = np.round((t_grid - taus) / period).astype(int)

    tau_round = np.round(taus, 12)
    distinct = sorted({v for v in tau_round if v > 0.0})
    offset_cache = {}
    if distinct and len(distinct) <= 128:
        evals = _propagate(
            ham, np.eye(dim, dtype=complex), period, rtol_u, t_eval=np.array(distinct)
        )
        metadata["rhs_evals"] += int(evals.nfev)
        for i, tv in enumerate(distinct):
            offset_cache[tv] = evals.y[:, i].reshape(dim, dim)

    states = np.empty((len(t_grid), dim), dtype=complex)
    psi_k = psi0.astype(complex)
    cur_k = 0
    order = np.argsort(ks, kind="stable")
    for idx in order:
        while cur_k < ks[idx]:
            psi_k = u_t @ psi_k
            cur_k += 1
        tau = tau_round[idx]
        if tau == 0.0:
            states[idx] = psi_k
        elif tau in offset_cache:
            states[idx] = offset_cache[tau] @ psi_k
        else:
            short = _propagate(ham, psi_k, float(taus[idx]), rtol_u)
            metadata["rhs_evals"] += int(short.nfev)
            states[idx] = short.y[:, -1]
    return states


def _select_engine(method: str, ham: ModulatedHamiltonian, t_grid: np.ndarray) -> str:
    """The one method validator and dispatcher of both evolve functions.

    Returns "static", "stroboscopic" or "direct"; see the module docstring for
    the auto rule.
    """
    if method not in ("auto", "direct", "stroboscopic"):
        raise ConfigError(f"unknown method {method!r}")
    periodic = ham.common_eta is not None and t_grid[0] == 0.0
    if method == "stroboscopic" and not periodic:
        raise ConfigError(
            "stroboscopic engine needs a common drive frequency and t_span starting at 0"
        )
    if method != "auto":
        return method
    if ham.is_static:
        return "static"
    periods = (t_grid[-1] - t_grid[0]) / (2.0 * math.pi / ham.common_eta) if periodic else 0.0
    return "stroboscopic" if periods >= STROBE_MIN_PERIODS else "direct"


def evolve_schrodinger(
    space: SpaceSpec,
    params: SystemParams,
    schedules: tuple[ModulationSchedule, ...],
    psi0: StateVector,
    t_span,
    sample_count: int,
    tol: float = 1e-9,
    method: str = "auto",
    store_states: bool = False,
    cutoff_policy: str = "warn",
) -> Trajectory:
    """Integrate the Schrodinger equation and sample observables uniformly.

    method: auto (dispatch on structure), direct (adaptive RK only), or
    stroboscopic (force the periodic engine). Norm drift is measured, never
    silently repaired; drift beyond 1e-7 fails the run.
    """
    _validate_tol(tol)
    if psi0.space != space:
        raise DomainError("initial state lives on a different space")
    t_grid = _sample_grid(t_span, sample_count)
    ham = build_hamiltonian(space, params, schedules)
    metadata: dict = {"tol": tol}
    chosen = _select_engine(method, ham, t_grid)

    psi0_arr = psi0.amplitudes
    if chosen == "static":
        states = _evolve_static(ham, psi0_arr, t_grid, metadata)
    elif chosen == "stroboscopic":
        states = _evolve_floquet(ham, psi0_arr, t_grid, tol, metadata)
    else:
        states = _evolve_direct(ham, psi0_arr, t_grid, tol, metadata)

    norms = np.linalg.norm(states, axis=1)
    drift = float(np.max(np.abs(norms - 1.0)))
    metadata["norm_drift_max"] = drift
    if drift > NORM_DRIFT_TOL:
        raise NumericError(
            f"norm drift {drift:.2e} exceeds {NORM_DRIFT_TOL:g}; tighten tol "
            f"(currently {tol:g})"
        )
    obs = [observables(states[i], space) for i in range(len(t_grid))]
    _cutoff_check(space, obs, cutoff_policy, metadata)
    return Trajectory(
        space=space,
        times=t_grid,
        observables=obs,
        states=[StateVector(space, s / np.linalg.norm(s)) for s in states]
        if store_states
        else None,
        metadata=metadata,
    )


# ---------------------------------------------------------------------------
# dissipators
# ---------------------------------------------------------------------------

def lindblad_dissipator(op: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """D[O]rho = (2 O rho O^dag - O^dag O rho - rho O^dag O)/2; traceless."""
    op = np.asarray(op)
    rho = np.asarray(rho)
    if op.shape != rho.shape or op.shape[0] != op.shape[1]:
        raise DomainError(f"dissipator shapes {op.shape} vs {rho.shape} mismatch")
    od = op.conj().T
    m = od @ op
    return op @ rho @ od - 0.5 * (m @ rho + rho @ m)


def _collapse_operators(space: SpaceSpec, rates: DissipationRates):
    """(rate, operator) pairs for kappa D[a], gamma_l D[sigma-_l],
    (gamma_phi_l/2) D[sigma_z_l]."""
    if rates.n_qubits not in (0, space.n_qubits):
        raise DomainError(
            f"per-qubit rates need one entry per qubit ({space.n_qubits}), "
            f"got {rates.n_qubits}"
        )
    ops = build_operators(space)
    out = []
    if rates.kappa > 0:
        out.append((rates.kappa, ops.a.toarray()))
    per_qubit = any(g > 0 for g in rates.gamma) or any(g > 0 for g in rates.gamma_phi)
    if per_qubit and space.basis == COLLECTIVE:
        raise UnsupportedError(
            "per-qubit relaxation and dephasing need the distinguishable basis; "
            "the collective basis only supports cavity decay"
        )
    if space.basis != COLLECTIVE:
        for l, (g, gp) in enumerate(zip(rates.gamma, rates.gamma_phi)):
            if g > 0:
                out.append((g, ops.sigma_minus(l + 1).toarray()))
            if gp > 0:
                out.append((gp / 2.0, ops.sigma_z(l + 1).toarray()))
    return out


# ---------------------------------------------------------------------------
# dissipative engines
# ---------------------------------------------------------------------------

def _lindblad_direct(ham, collapse, rho0, t_grid, tol, metadata):
    dim = rho0.shape[0]
    mats = [(r, op, op.conj().T @ op) for r, op in collapse]

    def rhs(t, rho):
        h = ham.apply(t, rho)
        out = -1j * (h - h.conj().T)
        for r, op, m in mats:
            out = out + r * (op @ rho @ op.conj().T - 0.5 * (m @ rho + rho @ m))
        return out

    sol = _integrate(ham, rhs, rho0, (float(t_grid[0]), float(t_grid[-1])), t_grid,
                     "RK45", tol, "master-equation integration failed: {}")
    metadata["engine"] = "lindblad-adaptive-rk"
    metadata["rhs_evals"] = int(sol.nfev)
    return [sol.y[:, i].reshape(dim, dim) for i in range(sol.y.shape[1])]


def _gauss_nodes(a: float, b: float, panels: int, order: int = 6):
    """Composite Gauss-Legendre nodes and weights on [a, b]."""
    x, w = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(a, b, panels + 1)
    nodes, weights = [], []
    for i in range(panels):
        lo, hi = edges[i], edges[i + 1]
        half = (hi - lo) / 2.0
        nodes.append(half * x + (lo + hi) / 2.0)
        weights.append(half * w)
    return np.concatenate(nodes), np.concatenate(weights)


def _spectral_radius_bound(ham) -> float:
    h = abs(ham.h_const)
    for sched, block in ham.terms:
        h = h + abs(block)
    return float(h.sum(axis=1).max())


def _kron_apply_unitary(u: np.ndarray, c: np.ndarray) -> np.ndarray:
    """(U (x) conj(U)) @ C without materializing the Kronecker product."""
    d = u.shape[0]
    d2 = d * d
    t = c.reshape(d, d, d2)
    t = np.einsum("ab,bcx->acx", u, t, optimize=True)
    t = np.einsum("cb,abx->acx", u.conj(), t, optimize=True)
    return t.reshape(d2, d2)


def _lindblad_strobe(ham, collapse, rho0, t_span, sample_count, tol, metadata):
    """One-period channel, applied stroboscopically.

    The period is split into slices; per slice the dissipative factor is
    expanded to second order in the interaction picture of the exact
    Hamiltonian propagator. Samples land on multiples of the period (grid
    stays uniform; endpoints move by at most one period).
    """
    eta = ham.common_eta
    period = 2.0 * math.pi / eta
    dim = ham.space.dim
    d2 = dim * dim
    rtol_u = max(min(tol / 10.0, 1e-11), 1e-13)
    slices = 6

    total_periods = int(math.ceil((t_span[1] - 1e-9) / period))
    stride = max(1, int(round((t_span[1] / max(sample_count - 1, 1)) / period)))
    sample_ks = list(range(0, total_periods + 1, stride))

    radius = _spectral_radius_bound(ham)
    panels_per_slice = max(2, int(math.ceil((period / slices) * radius / 1.3)))
    bounds = np.linspace(0.0, period, slices + 1)
    all_nodes, all_weights, slice_of = [], [], []
    for p in range(slices):
        nd, wt = _gauss_nodes(bounds[p], bounds[p + 1], panels_per_slice)
        all_nodes.append(nd)
        all_weights.append(wt)
        slice_of.extend([p] * len(nd))
    nodes = np.concatenate(all_nodes)
    weights = np.concatenate(all_weights)
    slice_of = np.array(slice_of)

    t_eval = np.unique(np.concatenate([nodes, [period]]))
    sol_u = _propagate(ham, np.eye(dim, dtype=complex), period, rtol_u, t_eval=t_eval)
    metadata["rhs_evals"] = int(sol_u.nfev)
    u_at = {t: sol_u.y[:, i].reshape(dim, dim) for i, t in enumerate(t_eval)}
    u_period, defect = _polar_project(u_at[period])
    if defect > max(UNITARY_DEFECT_TOL, tol):
        raise NumericError(
            f"one-period propagator unitarity defect {defect:.2e}; tighten tol"
        )
    metadata["propagator_defect"] = defect

    # interaction-picture jump operators at the quadrature nodes; row-major
    # vec(rho): vec(A rho B) = (A (x) B^T) vec(rho)
    channel = None
    eye2 = np.eye(d2, dtype=complex)
    eye1 = np.eye(dim, dtype=complex)
    for p in range(slices):
        mask = slice_of == p
        nd = nodes[mask]
        wt = weights[mask]
        omega1 = np.zeros((d2, d2), dtype=complex)
        m_slice = np.zeros((dim, dim), dtype=complex)
        for rate, op in collapse:
            a_tilde = np.stack([u_at[t].conj().T @ op @ u_at[t] for t in nd])
            flat = a_tilde.reshape(len(nd), d2)
            gram = (flat * wt[:, None]).T @ flat.conj()
            # gram is indexed [(i,k),(j,l)]; the superoperator needs [(i,j),(k,l)]
            omega1 += rate * np.ascontiguousarray(
                gram.reshape(dim, dim, dim, dim).transpose(0, 2, 1, 3)
            ).reshape(d2, d2)
            fw = (a_tilde.conj() * wt[:, None, None]).reshape(len(nd) * dim, dim)
            m_slice += rate * (fw.T @ a_tilde.reshape(len(nd) * dim, dim))
        omega1 -= 0.5 * (np.kron(m_slice, eye1) + np.kron(eye1, m_slice.T))
        psi_slice = eye2 + omega1 + 0.5 * (omega1 @ omega1)
        channel = psi_slice if channel is None else psi_slice @ channel
    channel = _kron_apply_unitary(u_period, channel)

    tp_defect = float(
        np.max(np.abs(np.eye(dim, dtype=complex).ravel() @ channel
                      - np.eye(dim, dtype=complex).ravel()))
    )
    metadata["channel_trace_defect"] = tp_defect
    if tp_defect > TRACE_DRIFT_TOL:
        raise NumericError(
            f"one-period channel trace defect {tp_defect:.2e} exceeds {TRACE_DRIFT_TOL:g}"
        )
    metadata["engine"] = "lindblad-stroboscopic"

    # samples sit on stride multiples, so march with channel^stride directly
    step = np.linalg.matrix_power(channel, stride) if stride > 1 else channel
    rhos = []
    vec = rho0.ravel().astype(complex)
    k = 0
    for target in sample_ks:
        while k < target:
            vec = step @ vec
            k += stride
        rhos.append(vec.reshape(dim, dim).copy())
    times = period * np.array(sample_ks, dtype=float)
    return rhos, times


def evolve_lindblad(
    space: SpaceSpec,
    params: SystemParams,
    schedules: tuple[ModulationSchedule, ...],
    rates: DissipationRates,
    rho0: DensityMatrix,
    t_span,
    sample_count: int,
    tol: float = 1e-9,
    method: str = "auto",
    store_states: bool = False,
    cutoff_policy: str = "warn",
) -> Trajectory:
    """Integrate the master equation; Hermitize at samples, check trace drift
    (<= 1e-7) and the eigenvalue floor (>= -1e-6)."""
    _validate_tol(tol)
    if rho0.space != space:
        raise DomainError("initial density matrix lives on a different space")
    t_grid = _sample_grid(t_span, sample_count)
    ham = build_hamiltonian(space, params, schedules)
    collapse = _collapse_operators(space, rates)
    metadata: dict = {"tol": tol}

    # the master equation has no static engine: "static" integrates directly
    if _select_engine(method, ham, t_grid) == "stroboscopic":
        raw, times = _lindblad_strobe(
            ham, collapse, rho0.matrix, (t_grid[0], t_grid[-1]), sample_count, tol, metadata
        )
    else:
        raw = _lindblad_direct(ham, collapse, rho0.matrix, t_grid, tol, metadata)
        times = t_grid

    rhos = [(r + r.conj().T) / 2.0 for r in raw]
    herm_defect = max(float(np.max(np.abs(r - h))) for r, h in zip(raw, rhos))
    traces = np.array([np.real(np.trace(r)) for r in rhos])
    drift = float(np.max(np.abs(traces - 1.0)))
    floor = min(float(np.linalg.eigvalsh(r)[0]) for r in rhos)
    metadata["hermiticity_defect_max"] = herm_defect
    metadata["trace_drift_max"] = drift
    metadata["eig_floor_min"] = floor
    if drift > TRACE_DRIFT_TOL:
        raise NumericError(f"trace drift {drift:.2e} exceeds {TRACE_DRIFT_TOL:g}")
    if floor < EIG_FLOOR_RUN:
        raise NumericError(f"density matrix eigenvalue {floor:.2e} below {EIG_FLOOR_RUN:g}")

    obs = [observables(r, space) for r in rhos]
    _cutoff_check(space, obs, cutoff_policy, metadata)
    return Trajectory(
        space=space,
        times=times,
        observables=obs,
        states=[DensityMatrix(space, r / np.real(np.trace(r)), floor_tol=1e-6) for r in rhos]
        if store_states
        else None,
        metadata=metadata,
    )
