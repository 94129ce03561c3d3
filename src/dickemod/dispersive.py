"""Dispersive-regime analytics: dressed spectrum, drive matrix elements,
transition rates and the slow effective dynamics they generate.

Everything here lives on the collective basis and treats the excitation-
conserving (Tavis-Cummings) Hamiltonian as the unperturbed problem. Exact
spectra diagonalize model's static Hamiltonian; the level shifts and the summed
drive elements are matrix elements of the structural operators model assembles
it from. Counter-rotating terms enter only through second-order level shifts nu
attached to the dressed levels; the drive enters through first-order matrix
elements Upsilon.
The two-photon exchange resonance is exposed twice: through the general rate
built from exact dressed states, and through a closed-form expression valid to
leading order in g0/Delta.

A note on accuracy: the general rate must use numerically exact dressed states.
The two-photon matrix elements survive only after cancellations between orders
up to (g0/Delta)^4, which the truncated second-order expansion does not contain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.integrate import solve_ivp

from .errors import (
    ConfigError,
    CutoffError,
    DegeneracyError,
    DomainError,
    LabelingError,
    NumericError,
    PhysicsGuardError,
)
from .hilbert import COLLECTIVE, SpaceSpec, StateVector, f_coefficient
from .model import ModulationSchedule, SystemParams, _collective_blocks, hamiltonian_static

SOURCE_EXACT = "exact-diagonalization"
SOURCE_PERTURBATIVE = "second-order-perturbation"

DENOMINATOR_TOL = 1e-9
DEGENERACY_TOL = 1e-12
LABEL_OVERLAP_MIN = 0.5


# ---------------------------------------------------------------------------
# perturbative formulas
# ---------------------------------------------------------------------------

def lambda_perturbative(params: SystemParams, n: int, k: int) -> float:
    """Second-order dressed level of |k, n-k>:

    lambda = n*omega0 - k*Delta + (g0^2/Delta) * ((N-k)(n-2k) - k(n-k+1)).
    """
    _check_label(params.n_qubits, n, k)
    delta = params.delta_minus
    if delta == 0.0:
        raise PhysicsGuardError("perturbative level undefined at zero detuning")
    nq = params.n_qubits
    corr = (nq - k) * (n - 2 * k) - k * (n - k + 1)
    return n * params.omega0 - k * delta + params.delta_dispersive * corr


def dressed_state_perturbative(
    space: SpaceSpec, params: SystemParams, n: int, k: int
) -> np.ndarray:
    """Second-order dressed state of |k, n-k> as a full-space vector.

    Components exist only for atomic indices k', |k'-k| <= 2, inside
    [0, min(n, N)]; the vector is normalized with the leading amplitude
    positive.
    """
    _check_space(space)
    _check_label(params.n_qubits, n, k)
    if n > space.n_max:
        raise CutoffError(f"subspace n={n} incomplete at n_max={space.n_max}")
    g = params.g0_uniform
    delta = params.delta_minus
    if delta == 0.0:
        raise PhysicsGuardError("dressed state undefined at zero detuning")
    nq = params.n_qubits
    kmax = min(n, nq)
    K = n - k

    def f(j):
        return f_coefficient(j, nq)

    comps = {k: 1.0}
    if k + 1 <= kmax:
        comps[k + 1] = g * f(k) * math.sqrt(K) / delta
    if k - 1 >= 0:
        comps[k - 1] = -g * f(k - 1) * math.sqrt(K + 1) / delta
    if k + 2 <= kmax:
        comps[k + 2] = g**2 * f(k) * f(k + 1) * math.sqrt(K * (K - 1)) / (2 * delta**2)
    if k - 2 >= 0:
        comps[k - 2] = (
            g**2 * f(k - 1) * f(k - 2) * math.sqrt((K + 1) * (K + 2)) / (2 * delta**2)
        )
    vec = np.zeros(space.dim)
    for kk, amp in comps.items():
        vec[space.index(kk, n - kk)] = amp
    vec /= np.linalg.norm(vec)
    return vec.astype(complex)


def eta_resonant(params: SystemParams, n: int, k: int) -> float:
    """Perturbative two-photon resonance frequency for the (k, k+2) pair:

    eta_r = 2 * |Delta + (g0^2/Delta) * (2N + 2n - 6k - 5)|.
    """
    _check_label(params.n_qubits, n, k)
    if k + 2 > params.n_qubits or n - k < 2:
        raise DomainError(f"pair (k={k}, k+2) undefined for n={n}, N={params.n_qubits}")
    delta = params.delta_minus
    dd = params.delta_dispersive
    return 2.0 * abs(delta + dd * (2 * params.n_qubits + 2 * n - 6 * k - 5))


def two_photon_rate_closed_form(
    params: SystemParams,
    schedules: tuple[ModulationSchedule, ...],
    n: int,
    k: int,
) -> complex:
    """Leading-order two-photon exchange rate for the (n,k) <-> (n,k+2) pair.

    Returns 0 when the pair does not exist (k+2 > N or fewer than two photons
    in the upper state, K = n-k < 2). Collective modulation only.
    """
    _check_label(params.n_qubits, n, k)
    nq = params.n_qubits
    K = n - k
    if k + 2 > nq or K < 2:
        return 0.0 + 0.0j
    delta = params.delta_minus
    if delta == 0.0:
        raise PhysicsGuardError("closed-form rate undefined at zero detuning")
    g = params.g0_uniform
    eps = {"omega": 0.0, "Omega": 0.0, "g": 0.0}
    phi = {"omega": 0.0, "Omega": 0.0, "g": 0.0}
    seen = set()
    for s in schedules:
        if s.qubit is not None:
            raise ConfigError("closed-form rate is defined for collective modulation")
        if s.target in seen:
            raise ConfigError(f"duplicate modulation target {s.target!r}")
        seen.add(s.target)
        eps[s.target] = s.epsilon
        phi[s.target] = s.phi
    sgn = 1.0 if delta > 0 else -1.0
    root = math.sqrt(
        (nq - k) * (nq - k - 1) * (k + 1) * (k + 2) * K * (K - 1)
    )
    bracket = (
        eps["omega"] * np.exp(-1j * sgn * phi["omega"]) / delta
        - eps["Omega"] * np.exp(-1j * sgn * phi["Omega"]) / delta
        - eps["g"] * np.exp(-1j * sgn * phi["g"]) / g
    )
    return complex(sgn * g * (g / delta) ** 3 * root * bracket)


def _check_label(n_qubits: int, n: int, k: int) -> None:
    if n < 0:
        raise DomainError(f"n={n} must be >= 0")
    if not 0 <= k <= min(n, n_qubits):
        raise DomainError(f"k={k} outside [0, min(n={n}, N={n_qubits})]")


def _check_space(space: SpaceSpec) -> None:
    if space.basis != COLLECTIVE:
        raise DomainError("dispersive analytics are defined on the collective basis")


# ---------------------------------------------------------------------------
# exact spectrum
# ---------------------------------------------------------------------------

@dataclass
class DressedSpectrum:
    """Dressed levels and states, indexed by (m, S).

    m is the total excitation number and S the atomic-excitation label of the
    dominant bare component |S, m-S>. Only complete subspaces (m <= n_max) are
    stored. lam holds the Tavis-Cummings eigenvalue (or the full eigenvalue
    when built from a counter-rotating Hamiltonian), nu the second-order
    counter-rotating shift, NaN where it has not been attached.
    """

    space: SpaceSpec
    params: SystemParams
    source: str
    _lams: dict[int, np.ndarray]
    _nus: dict[int, np.ndarray]
    _vecs: dict[int, np.ndarray]

    @property
    def subspaces(self) -> list[int]:
        return sorted(self._lams)

    def labels(self, m: int) -> range:
        self._need(m)
        return range(len(self._lams[m]))

    def _need(self, m: int) -> None:
        if m not in self._lams:
            raise CutoffError(
                f"subspace m={m} not available (complete subspaces reach m={self.space.n_max})"
            )

    def lam(self, m: int, s: int) -> float:
        self._need(m)
        return float(self._lams[m][s])

    def nu(self, m: int, s: int) -> float:
        self._need(m)
        return float(self._nus[m][s])

    def lam_tilde(self, m: int, s: int) -> float:
        """Shifted level lambda + nu; requires nu to be attached."""
        v = self.lam(m, s) + self.nu(m, s)
        if math.isnan(v):
            raise PhysicsGuardError(
                f"nu not attached for (m={m}, S={s}); call attach_crt_shifts first"
            )
        return v

    def state(self, m: int, s: int) -> np.ndarray:
        self._need(m)
        return self._vecs[m][:, s]

    def has_nu(self, m: int) -> bool:
        self._need(m)
        return not np.isnan(self._nus[m]).any()


def spectrum_exact(
    space: SpaceSpec, params: SystemParams, subspaces=None
) -> DressedSpectrum:
    """Exact dressed spectrum of model's static Hamiltonian, honoring
    params.with_crt.

    Without counter-rotating terms each total-excitation subspace is
    diagonalized on its own (the coupling conserves the excitation number);
    with them the full Hamiltonian is diagonalized. Each eigenvector is labeled
    by its dominant bare component, which must carry more than 0.5 of its
    weight; one without is left unlabeled, and a label no eigenvector claims
    means the system is outside the regime where the labels mean anything.
    Near-cutoff subspaces of a large space routinely fail that; passing
    `subspaces` restricts building (and labeling) to the listed m values so the
    usable low ones stay reachable.
    """
    _check_space(space)
    if not params.is_uniform:
        raise DomainError("exact spectrum requires uniform parameters")
    return _spectrum(space, params, _requested_subspaces(space, subspaces))


def _subspace_atom_range(space: SpaceSpec, m: int) -> range:
    return range(0, min(m, space.n_qubits) + 1)


def _requested_subspaces(space: SpaceSpec, subspaces) -> list[int]:
    if subspaces is None:
        return list(range(space.n_max + 1))
    ms = sorted({int(m) for m in subspaces})
    if not ms:
        raise DomainError("subspaces must be a nonempty iterable of m values")
    if ms[0] < 0 or ms[-1] > space.n_max:
        raise DomainError(f"subspaces must lie in [0, {space.n_max}]")
    return ms


def _spectrum(space: SpaceSpec, params: SystemParams, ms: list[int]) -> DressedSpectrum:
    h = hamiltonian_static(space, params).toarray().real
    if params.with_crt:
        index_sets = [np.arange(space.dim)]
    else:
        index_sets = [[space.index(k, m - k) for k in _subspace_atom_range(space, m)]
                      for m in ms]
    lams = {m: np.full(len(_subspace_atom_range(space, m)), np.nan) for m in ms}
    vecs = {m: np.zeros((space.dim, len(lams[m])), dtype=complex) for m in ms}
    for idx in index_sets:
        w, v = np.linalg.eigh(h[np.ix_(idx, idx)])
        for col in range(len(w)):
            j = int(np.argmax(np.abs(v[:, col])))
            if v[j, col] ** 2 <= LABEL_OVERLAP_MIN:
                # no dominant bare component: near the cutoff or outside the
                # dispersive regime, so no label
                continue
            k, n_ph = divmod(idx[j], space.photon_dim)
            if k + n_ph in lams:
                lams[k + n_ph][k] = w[col]
                vecs[k + n_ph][idx, k] = v[:, col] * np.sign(v[j, col])
    for m in ms:
        missing = [s for s in range(len(lams[m])) if math.isnan(lams[m][s])]
        if missing:
            raise LabelingError(f"subspace m={m}: no eigenvector claimed labels {missing}")
    nus = {m: np.zeros(len(lams[m])) for m in ms}
    return DressedSpectrum(space, params, SOURCE_EXACT, lams, nus, vecs)


def spectrum_perturbative(space: SpaceSpec, params: SystemParams) -> DressedSpectrum:
    """Second-order spectrum assembled from the closed formulas, for comparison."""
    _check_space(space)
    lams: dict[int, np.ndarray] = {}
    nus: dict[int, np.ndarray] = {}
    vecs: dict[int, np.ndarray] = {}
    for m in range(space.n_max + 1):
        ks = _subspace_atom_range(space, m)
        lams[m] = np.array([lambda_perturbative(params, m, k) for k in ks])
        nus[m] = np.zeros(len(ks))
        cols = [dressed_state_perturbative(space, params, m, k) for k in ks]
        vecs[m] = np.stack(cols, axis=1)
    return DressedSpectrum(space, params, SOURCE_PERTURBATIVE, lams, nus, vecs)


# ---------------------------------------------------------------------------
# counter-rotating level shifts
# ---------------------------------------------------------------------------

def crt_shift(spectrum: DressedSpectrum, m: int, t_label: int) -> float:
    """Second-order level shift of (m, T) from the counter-rotating coupling.

    nu = g0^2 * sum_{m' = m +- 2} sum_S <phi_{m',S}|V|phi_{m,T}>^2 / (lam_{m,T} - lam_{m',S})

    with V the whole counter-rotating part of the coupling at g = 1,
    sum_k f_k (a^dag sigma_{k+1,k} + a sigma_{k,k+1}); it moves two excitations
    either way, so V|phi_{m,T}> lies in subspaces m - 2 and m + 2. Requires
    the Tavis-Cummings spectrum (the unperturbed problem); subspace m+2 must
    be complete, m-2 < 0 contributes zero.
    """
    if spectrum.source != SOURCE_EXACT or spectrum.params.with_crt:
        raise DomainError("crt_shift needs an exact Tavis-Cummings spectrum")
    spectrum._need(m)
    if m + 2 > spectrum.space.n_max:
        raise CutoffError(
            f"nu at m={m} needs complete subspace m+2={m + 2}; n_max={spectrum.space.n_max}"
        )
    crt = _collective_blocks(spectrum.space)[3]
    lam_t = spectrum.lam(m, t_label)
    v_phi = crt @ spectrum.state(m, t_label)
    total = 0.0
    for mm in (m - 2, m + 2):
        if mm < 0:
            continue
        for s_label in spectrum.labels(mm):
            num = float(np.real(np.vdot(spectrum.state(mm, s_label), v_phi)))
            den = lam_t - spectrum.lam(mm, s_label)
            if abs(den) < DENOMINATOR_TOL:
                raise PhysicsGuardError(
                    f"nu denominator |lam_(m,T)-lam_(m{mm - m:+d},S)|={abs(den):.2e} below 1e-9"
                )
            total += num * num / den
    return spectrum.params.g0_uniform ** 2 * total


def attach_crt_shifts(spectrum: DressedSpectrum, subspaces=None) -> DressedSpectrum:
    """Fill nu for every label of the requested subspaces (default: all with
    m+2 complete); other subspaces keep nu = NaN so lam_tilde refuses them."""
    if subspaces is None:
        subspaces = [m for m in spectrum.subspaces if m + 2 <= spectrum.space.n_max]
    for m in spectrum.subspaces:
        if m not in subspaces:
            spectrum._nus[m] = np.full_like(spectrum._nus[m], np.nan)
    for m in subspaces:
        spectrum._nus[m] = np.array(
            [crt_shift(spectrum, m, t) for t in spectrum.labels(m)]
        )
    return spectrum


def dispersive_spectrum(
    space: SpaceSpec, params: SystemParams, subspaces=None
) -> DressedSpectrum:
    """The spectrum the effective machinery runs on: exact Tavis-Cummings dressed
    states, with counter-rotating shifts attached when params.with_crt.

    `subspaces` restricts the build to the listed m values (their m+-2
    neighbors are built too because the counter-rotating shift needs them, but
    only the listed ones get nu attached).
    """
    ms = _requested_subspaces(space, subspaces)
    build = sorted(
        {mm for m in ms for mm in (m - 2, m, m + 2) if 0 <= mm <= space.n_max}
    )
    spec = spectrum_exact(space, replace(params, with_crt=False), subspaces=build)
    if params.with_crt:
        attach_crt_shifts(spec, subspaces=[m for m in ms if m + 2 <= space.n_max])
    return spec


# ---------------------------------------------------------------------------
# drive matrix elements and rates
# ---------------------------------------------------------------------------

def upsilon(
    spectrum: DressedSpectrum,
    schedule: ModulationSchedule,
    k: int,
    m: int,
    t_label: int,
    s_label: int,
) -> float:
    """First-order drive matrix element Upsilon^(target, k) between dressed
    states (m, T) and (m, S).

    omega target: delta_{k,0} * eps * <T| n |S>; g target: eps * f_k *
    <T| a sigma_{k+1,k} + h.c. |S>; Omega target: eps * k * <T| sigma_kk |S>.
    Real by the dressed-state phase convention.
    """
    if schedule.target == "omega":
        if k != 0:
            return 0.0
        return _upsilon_target_total(spectrum, schedule, m, t_label, s_label)
    space = spectrum.space
    nq = space.n_qubits
    grid_t = spectrum.state(m, t_label).reshape(nq + 1, space.photon_dim)
    grid_s = spectrum.state(m, s_label).reshape(nq + 1, space.photon_dim)
    if schedule.target == "g":
        if not 0 <= k <= nq - 1:
            raise DomainError(f"g-target k={k} outside [0, {nq - 1}]")
        # a sigma_{k+1,k} |k, n> = sqrt(n) |k+1, n-1>, and its conjugate
        sq = np.sqrt(np.arange(1, space.photon_dim))
        val = f_coefficient(k, nq) * (np.vdot(grid_t[k + 1, :-1], sq * grid_s[k, 1:])
                                      + np.vdot(grid_t[k, 1:], sq * grid_s[k + 1, :-1]))
    else:
        if not 0 <= k <= nq:
            raise DomainError(f"Omega-target k={k} outside [0, {nq}]")
        val = k * np.vdot(grid_t[k], grid_s[k])
    return schedule.epsilon * float(np.real(val))


def _upsilon_target_total(
    spectrum: DressedSpectrum,
    schedule: ModulationSchedule,
    m: int,
    t_label: int,
    s_label: int,
) -> float:
    """sum_k Upsilon^(target,k), from the structural operator the Hamiltonian
    is assembled from."""
    n_op, k_op, tc, _ = _collective_blocks(spectrum.space)
    op = {"omega": n_op, "Omega": k_op, "g": tc}[schedule.target]
    val = np.vdot(spectrum.state(m, t_label), op @ spectrum.state(m, s_label))
    return schedule.epsilon * float(np.real(val))


@dataclass(frozen=True)
class TransitionRate:
    """Effective coupling Xi between dressed states (m, T) and (m, S)."""

    m: int
    t_label: int
    s_label: int
    xi: complex
    eta_res: float
    sign: int


def transition_rate_general(
    spectrum: DressedSpectrum,
    schedules: tuple[ModulationSchedule, ...],
    m: int,
    t_label: int,
    s_label: int,
) -> TransitionRate:
    """General first-order rate Xi = (s/2) sum_L e^{-i s phi_L} sum_k Upsilon^{L,k}
    with s = sign(lam_tilde_T - lam_tilde_S); resonant at eta = |lam_tilde_T -
    lam_tilde_S|. Degenerate pairs are refused.
    """
    if t_label == s_label:
        raise DomainError("transition rate needs two distinct labels")
    for s in schedules:
        if s.qubit is not None:
            raise ConfigError("rates are defined for collective modulation")
    diff = spectrum.lam_tilde(m, t_label) - spectrum.lam_tilde(m, s_label)
    if abs(diff) < DEGENERACY_TOL:
        raise DegeneracyError(
            f"labels (m={m}, {t_label}) and (m={m}, {s_label}) degenerate: "
            f"|lam_tilde difference| = {abs(diff):.2e}"
        )
    sgn = 1 if diff > 0 else -1
    xi = 0.0 + 0.0j
    for sched in schedules:
        tot = _upsilon_target_total(spectrum, sched, m, t_label, s_label)
        xi += tot * np.exp(-1j * sgn * sched.phi)
    xi *= sgn / 2.0
    return TransitionRate(
        m=m, t_label=t_label, s_label=s_label, xi=complex(xi), eta_res=abs(diff), sign=sgn
    )


def subspace_rates(
    spectrum: DressedSpectrum,
    schedules: tuple[ModulationSchedule, ...],
    m: int,
) -> dict[tuple[int, int], TransitionRate]:
    """All ordered-pair rates inside one subspace."""
    out: dict[tuple[int, int], TransitionRate] = {}
    for t_label in spectrum.labels(m):
        for s_label in spectrum.labels(m):
            if t_label != s_label:
                out[(t_label, s_label)] = transition_rate_general(
                    spectrum, schedules, m, t_label, s_label
                )
    return out


# ---------------------------------------------------------------------------
# slow effective dynamics
# ---------------------------------------------------------------------------

def phase_Phi(
    spectrum: DressedSpectrum,
    schedules: tuple[ModulationSchedule, ...],
    m: int,
    s_label: int,
    t,
):
    """Micromotion phase Phi_{m,S}(t) = sum_L (Upsilon_diag/eta_L) *
    (cos(eta_L t + phi_L) - cos(phi_L))."""
    t = np.asarray(t, dtype=float)
    total = np.zeros_like(t)
    for sched in schedules:
        if sched.eta == 0:
            raise DomainError("phase undefined for eta = 0")
        ups = _upsilon_target_total(spectrum, sched, m, s_label, s_label)
        total = total + (ups / sched.eta) * (
            np.cos(sched.eta * t + sched.phi) - math.cos(sched.phi)
        )
    return total if total.ndim else float(total)


@dataclass
class EffectiveState:
    """Amplitudes over dressed labels; labels[i] = (m, S)."""

    labels: list[tuple[int, int]]
    b: np.ndarray

    def amplitude(self, m: int, s_label: int) -> complex:
        return complex(self.b[self.labels.index((m, s_label))])


def project_initial(
    spectrum: DressedSpectrum, state: StateVector, coverage_tol: float = 1e-9
) -> EffectiveState:
    """Expand a bare state over the dressed basis at t = 0.

    Raises when more than coverage_tol of the norm lives outside the complete
    subspaces (those states cannot be labeled).
    """
    if state.space != spectrum.space:
        raise DomainError("state and spectrum live on different spaces")
    labels = []
    amps = []
    for m in spectrum.subspaces:
        vecs = spectrum._vecs[m]
        proj = vecs.conj().T @ state.amplitudes
        for s_label in spectrum.labels(m):
            labels.append((m, s_label))
            amps.append(proj[s_label])
    b = np.asarray(amps, dtype=complex)
    defect = 1.0 - float(np.sum(np.abs(b) ** 2))
    if defect > coverage_tol:
        raise CutoffError(
            f"initial state has {defect:.2e} of its norm outside complete subspaces"
        )
    return EffectiveState(labels=labels, b=b)


def evolve_effective(
    spectrum: DressedSpectrum,
    schedules: tuple[ModulationSchedule, ...],
    eta: float,
    state0: EffectiveState,
    t_grid: np.ndarray,
    rtol: float = 1e-12,
) -> np.ndarray:
    """Integrate the slow amplitudes across every populated subspace.

    db_T/dt = sum_{S != T} Xi_{T,S} e^{i t (lam_tilde_T - lam_tilde_S - s*eta)} b_S,
    block diagonal over subspaces. Returns b with shape (len(t_grid), n_labels);
    the norm must stay within 1e-8 of its initial value.
    """
    if eta <= 0:
        raise DomainError("eta must be > 0")
    t_grid = np.asarray(t_grid, dtype=float)
    labels = state0.labels
    nlab = len(labels)
    xi_mat = np.zeros((nlab, nlab), dtype=complex)
    pha_mat = np.zeros((nlab, nlab))
    populated_ms = {m for (m, _s), amp in zip(labels, state0.b) if abs(amp) > 1e-14}
    for m in populated_ms:
        idx = {s: i for i, (mm, s) in enumerate(labels) if mm == m}
        if len(idx) < 2:
            continue
        # couple only the labels the state carries; a restricted label list is
        # a deliberate truncation of the slow system
        for t_label in idx:
            for s_label in idx:
                if t_label == s_label:
                    continue
                rate = transition_rate_general(
                    spectrum, schedules, m, t_label, s_label
                )
                i, j = idx[t_label], idx[s_label]
                xi_mat[i, j] = rate.xi
                pha_mat[i, j] = (
                    spectrum.lam_tilde(m, t_label)
                    - spectrum.lam_tilde(m, s_label)
                    - rate.sign * eta
                )

    def rhs(t, b):
        return (xi_mat * np.exp(1j * t * pha_mat)) @ b

    sol = solve_ivp(
        rhs,
        (float(t_grid[0]), float(t_grid[-1])),
        state0.b,
        t_eval=t_grid,
        method="DOP853",
        rtol=rtol,
        atol=rtol * 1e-2,
    )
    if not sol.success:
        raise NumericError(f"effective integration failed: {sol.message}")
    b_t = sol.y.T
    norms = np.linalg.norm(b_t, axis=1)
    drift = float(np.max(np.abs(norms - np.linalg.norm(state0.b))))
    if drift > 1e-8:
        raise NumericError(f"effective amplitude norm drifted by {drift:.2e} (> 1e-8)")
    return b_t


def rwa_solution(xi: complex, b_t0: complex, b_s0: complex, t):
    """Resonant two-level solution of the effective equations.

    b_T(t) = b_T(0) cos|Xi|t + (Xi/|Xi|) b_S(0) sin|Xi|t, and the partner
    completes the norm-preserving rotation:
    b_S(t) = b_S(0) cos|Xi|t - (Xi*/|Xi|) b_T(0) sin|Xi|t.
    """
    mag = abs(xi)
    t = np.asarray(t, dtype=float)
    if mag == 0:
        # no coupling: amplitudes are constants, not an error
        ones = np.ones_like(t)
        return b_t0 * ones, b_s0 * ones
    c, s = np.cos(mag * t), np.sin(mag * t)
    u = xi / mag
    return b_t0 * c + u * b_s0 * s, b_s0 * c - np.conj(u) * b_t0 * s


def reconstruct_state(
    spectrum: DressedSpectrum,
    schedules: tuple[ModulationSchedule, ...],
    eff_labels: list[tuple[int, int]],
    b: np.ndarray,
    t: float,
) -> StateVector:
    """Assemble |psi(t)> = sum e^{i Phi(t)} e^{-i t lam_tilde} b |phi>."""
    amp = np.zeros(spectrum.space.dim, dtype=complex)
    for (m, s_label), b_val in zip(eff_labels, b):
        if abs(b_val) < 1e-14:
            continue
        phase = phase_Phi(spectrum, schedules, m, s_label, t)
        lam_t = spectrum.lam_tilde(m, s_label)
        amp += np.exp(1j * phase - 1j * t * lam_t) * b_val * spectrum.state(m, s_label)
    nrm = np.linalg.norm(amp)
    if abs(nrm - 1.0) > 1e-6:
        raise NumericError(f"reconstructed state norm {nrm:.8f} off by more than 1e-6")
    return StateVector(spectrum.space, amp / nrm)
