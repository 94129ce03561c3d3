"""Dispersive-regime analytics: dressed spectrum, drive matrix elements,
transition rates and the slow effective dynamics they generate.

Everything here lives on the collective basis and treats the excitation-
conserving (Tavis-Cummings) Hamiltonian as the unperturbed problem.
dispersive_spectrum is the one builder of that picture: it diagonalizes the
Tavis-Cummings blocks of model's static Hamiltonian for the requested
subspaces and, with counter-rotating terms, shifts their levels by nu, second
order in the counter-rotating coupling, in one immutable DressedSpectrum.
spectrum_exact is the full-diagonalization reference it is checked against.
The shifts and the summed drive elements are matrix elements of the
structural operators model assembles the Hamiltonian from; the drive enters
through first-order matrix elements Upsilon.
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

from .errors import (
    ConfigError,
    CutoffError,
    DegeneracyError,
    DomainError,
    LabelingError,
    NumericError,
    PhysicsGuardError,
)
from .hilbert import COLLECTIVE, SpaceSpec, StateVector, ladder_operators
from .model import ModulationSchedule, SystemParams, _couplings, build_hamiltonian

DENOMINATOR_TOL = 1e-9
DEGENERACY_TOL = 1e-12
LABEL_OVERLAP_MIN = 0.5
# the norm an initial state may keep outside the projected subspaces
COVERAGE_TOL = 1e-9


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
# dressed spectrum
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class DressedSpectrum:
    """Dressed levels and states, indexed by (m, S).

    m is the total excitation number and S the atomic-excitation label of the
    dominant bare component |S, m-S>. It holds exactly the subspaces it was
    built for, each with its levels lam, its counter-rotating shifts nu and its
    states (one column per label), and the params the caller passed. lam is
    the Tavis-Cummings eigenvalue (the full eigenvalue for spectrum_exact with
    counter-rotating terms), nu the second-order counter-rotating shift (0
    without counter-rotating terms, and in spectrum_exact). Every array is
    read-only.
    """

    space: SpaceSpec
    params: SystemParams
    _lams: dict[int, np.ndarray]
    _nus: dict[int, np.ndarray]
    _vecs: dict[int, np.ndarray]

    def __post_init__(self):
        for arrays in (self._lams, self._nus, self._vecs):
            for a in arrays.values():
                a.setflags(write=False)

    @property
    def subspaces(self) -> list[int]:
        return sorted(self._lams)

    def labels(self, m: int) -> range:
        self._need(m)
        return range(len(self._lams[m]))

    def _need(self, m: int) -> None:
        if m not in self._lams:
            raise CutoffError(f"subspace m={m} not in this spectrum ({self.subspaces})")

    def lam(self, m: int, s: int) -> float:
        self._need(m)
        return float(self._lams[m][s])

    def nu(self, m: int, s: int) -> float:
        self._need(m)
        return float(self._nus[m][s])

    def lam_tilde(self, m: int, s: int) -> float:
        """Shifted level lambda + nu."""
        return self.lam(m, s) + self.nu(m, s)

    def state(self, m: int, s: int) -> np.ndarray:
        self._need(m)
        return self._vecs[m][:, s]


def default_subspaces(space: SpaceSpec, params: SystemParams) -> range:
    """Every m whose shift is defined: each complete subspace, or with
    counter-rotating terms each one whose m+2 is complete."""
    return range(space.n_max - 1 if params.with_crt else space.n_max + 1)


def dispersive_spectrum(
    space: SpaceSpec, params: SystemParams, subspaces=None
) -> DressedSpectrum:
    """The spectrum the effective machinery runs on: exact Tavis-Cummings dressed
    states of the requested subspaces (default_subspaces when None), shifted by
    the counter-rotating coupling when params.with_crt:

    nu = g0^2 * sum_{m' = m +- 2} sum_S <phi_{m',S}|V|phi_{m,T}>^2 / (lam_{m,T} - lam_{m',S})

    with V the whole counter-rotating part of the coupling at g = 1,
    sum_k f_k (a^dag sigma_{k+1,k} + a sigma_{k,k+1}); it moves two excitations
    either way, so only then are the m +- 2 neighbours diagonalized too, and
    m - 2 < 0 contributes zero. A requested m above n_max - 2 then raises
    CutoffError.
    """
    _check_uniform(space, params)
    ms = _requested_subspaces(space, subspaces, default_subspaces(space, params))
    near = {mm for m in ms for mm in (m - 2, m + 2) if mm >= 0} if params.with_crt else set()
    lams, vecs = _spectrum(space, replace(params, with_crt=False), sorted(near.union(ms)))
    crt = _couplings(space)[0][1]
    nus = {}
    for m in ms:
        nu = np.zeros(len(lams[m]))
        for mm in sorted({m - 2, m + 2} & near):
            amp = vecs[mm].real.T @ (crt @ vecs[m]).real
            den = lams[m] - lams[mm][:, None]
            if np.min(np.abs(den)) < DENOMINATOR_TOL:
                raise PhysicsGuardError(
                    f"nu denominator |lam_(m={m},T)-lam_(m={mm},S)|="
                    f"{np.min(np.abs(den)):.2e} below {DENOMINATOR_TOL:g}"
                )
            nu += np.sum(amp * amp / den, axis=0)
        nus[m] = params.g0_uniform ** 2 * nu
    return DressedSpectrum(space, params, {m: lams[m] for m in ms}, nus, {m: vecs[m] for m in ms})


def spectrum_exact(
    space: SpaceSpec, params: SystemParams, subspaces=None
) -> DressedSpectrum:
    """Full-diagonalization reference: exact dressed levels of model's static
    Hamiltonian, honoring params.with_crt, with nu = 0; `subspaces` (default:
    every complete one) restricts which m are labeled and kept."""
    _check_uniform(space, params)
    lams, vecs = _spectrum(space, params, _requested_subspaces(space, subspaces,
                                                               range(space.n_max + 1)))
    return DressedSpectrum(space, params, lams, {m: 0.0 * lams[m] for m in lams}, vecs)


def _check_uniform(space: SpaceSpec, params: SystemParams) -> None:
    _check_space(space)
    if not params.is_uniform:
        raise DomainError("dressed spectra require uniform parameters")


def _subspace_atom_range(space: SpaceSpec, m: int) -> range:
    return range(0, min(m, space.n_qubits) + 1)


def _requested_subspaces(space: SpaceSpec, subspaces, defined: range) -> list[int]:
    ms = sorted({int(m) for m in (defined if subspaces is None else subspaces)})
    if subspaces is not None and (not ms or ms[0] < 0 or ms[-1] > space.n_max):
        raise DomainError(f"subspaces must be a nonempty set of m in [0, {space.n_max}]")
    if not ms or ms[-1] not in defined:
        top = max(ms, default=0)
        raise CutoffError(f"nu at m={top} needs complete subspace m+2={top + 2}; "
                          f"n_max={space.n_max}")
    return ms


def _spectrum(space: SpaceSpec, params: SystemParams, ms: list[int]) -> tuple[dict, dict]:
    """Labeled levels and states of each m in ms. Without counter-rotating
    terms each excitation block is diagonalized on its own (the coupling
    conserves the excitation number); with them the full Hamiltonian is.

    Each eigenvector is labeled by its dominant bare component, which must
    carry more than LABEL_OVERLAP_MIN of its weight; one without is left
    unlabeled, and a label no eigenvector claims means the system is outside
    the regime where the labels mean anything. Near-cutoff subspaces of a large
    space routinely fail that, so only the subspaces asked for are labeled.
    """
    h = build_hamiltonian(space, params).h_const.toarray()
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
                continue
            k, n_ph = divmod(idx[j], space.photon_dim)
            if k + n_ph in lams:
                lams[k + n_ph][k] = w[col]
                vecs[k + n_ph][idx, k] = v[:, col] * np.sign(v[j, col])
    for m in ms:
        missing = [s for s in range(len(lams[m])) if math.isnan(lams[m][s])]
        if missing:
            raise LabelingError(f"subspace m={m}: no eigenvector claimed labels {missing}")
    return lams, vecs


# ---------------------------------------------------------------------------
# drive matrix elements and rates
# ---------------------------------------------------------------------------

def _upsilon_target_total(
    spectrum: DressedSpectrum,
    schedule: ModulationSchedule,
    m: int,
    t_label: int,
    s_label: int,
) -> float:
    """sum_k Upsilon^(target,k), from the structural operator the Hamiltonian
    is assembled from."""
    _, n_op, _, (k_op,) = ladder_operators(spectrum.space)
    op = {"omega": n_op, "Omega": k_op, "g": _couplings(spectrum.space)[0][0]}[schedule.target]
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


def project_initial(spectrum: DressedSpectrum, state: StateVector) -> EffectiveState:
    """Expand a bare state over the dressed basis at t = 0.

    Raises when more than COVERAGE_TOL of the norm lives outside the
    spectrum's subspaces.
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
    if defect > COVERAGE_TOL:
        raise CutoffError(
            f"initial state has {defect:.2e} of its norm outside subspaces {spectrum.subspaces}"
        )
    return EffectiveState(labels=labels, b=b)


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
