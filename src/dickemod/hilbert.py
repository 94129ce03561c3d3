"""Hilbert-space bookkeeping for a qubit ensemble coupled to a single cavity mode.

Two basis conventions are supported. The collective (Dicke) basis keeps only the
symmetric atomic ladder |k>, k = 0..N excitations, so the joint dimension is
(N+1)*(n_max+1). The distinguishable basis keeps all 2^N qubit configurations and
is required as soon as per-qubit parameters differ. In both, the photon index
varies fastest: amplitudes reshape to (atom_dim, n_max+1) without copying.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.special import gammaln

from .errors import CutoffError, DomainError, NormalizationError

COLLECTIVE = "collective"
DISTINGUISHABLE = "distinguishable"

STATE_NORM_TOL = 1e-10
OBSERVABLE_NORM_TOL = 1e-6
DISTRIBUTION_SUM_TOL = 1e-9


def f_coefficient(k: int, n_qubits: int) -> float:
    """Collective ladder matrix element sqrt((k+1)(N-k)) between |k> and |k+1>."""
    if not 0 <= k <= n_qubits:
        raise DomainError(f"k={k} outside [0, {n_qubits}]")
    return math.sqrt((k + 1) * (n_qubits - k))


def dicke_amplitude(n_qubits: int, k: int) -> float:
    """Amplitude sqrt(k!(N-k)!/N!) of each configuration inside the Dicke state |k>."""
    if not 0 <= k <= n_qubits:
        raise DomainError(f"k={k} outside [0, {n_qubits}]")
    return 1.0 / math.sqrt(math.comb(n_qubits, k))


def coherent_cutoff(alpha: complex) -> int:
    """Default Fock cutoff for a coherent-state scenario, never below 20."""
    a = abs(alpha)
    return max(20, math.ceil(a * a + 8.0 * a + 10.0))


@dataclass(frozen=True)
class SpaceSpec:
    """Shape of the joint Hilbert space.

    Parameters
    ----------
    n_qubits : int
        Number of two-level emitters, N >= 1.
    n_max : int
        Fock cutoff; photon numbers run 0..n_max.
    basis : str
        "collective" (default) or "distinguishable".
    """

    n_qubits: int
    n_max: int
    basis: str = COLLECTIVE

    def __post_init__(self):
        if self.n_qubits < 1:
            raise DomainError(f"n_qubits={self.n_qubits} must be >= 1")
        if self.n_max < 0:
            raise DomainError(f"n_max={self.n_max} must be >= 0")
        if self.basis not in (COLLECTIVE, DISTINGUISHABLE):
            raise DomainError(f"unknown basis {self.basis!r}")

    @property
    def atom_dim(self) -> int:
        if self.basis == COLLECTIVE:
            return self.n_qubits + 1
        return 2**self.n_qubits

    @property
    def photon_dim(self) -> int:
        return self.n_max + 1

    @property
    def dim(self) -> int:
        return self.atom_dim * self.photon_dim

    def index(self, atom_state: int, n_photon: int) -> int:
        """Flat index of |atom_state> x |n_photon>; photon index varies fastest."""
        if not 0 <= atom_state < self.atom_dim:
            raise DomainError(f"atom_state={atom_state} outside [0, {self.atom_dim})")
        if not 0 <= n_photon <= self.n_max:
            raise DomainError(f"n_photon={n_photon} outside [0, {self.n_max}]")
        return atom_state * self.photon_dim + n_photon

    def excitations_of_atom_index(self, atom_state: int) -> int:
        """Number of excited qubits encoded by an atomic basis index."""
        if self.basis == COLLECTIVE:
            return atom_state
        return int(atom_state).bit_count()


@dataclass
class StateVector:
    """Normalized state on a SpaceSpec.

    The constructor enforces the unit-norm contract to 1e-10; callers that
    accumulated drift must decide explicitly how to deal with it.
    """

    space: SpaceSpec
    amplitudes: np.ndarray

    def __post_init__(self):
        amp = np.asarray(self.amplitudes, dtype=complex)
        if amp.shape != (self.space.dim,):
            raise DomainError(
                f"amplitude shape {amp.shape} does not match dim {self.space.dim}"
            )
        nrm = float(np.linalg.norm(amp))
        if abs(nrm - 1.0) > STATE_NORM_TOL:
            raise NormalizationError(f"state norm {nrm!r} deviates from 1 beyond 1e-10")
        self.amplitudes = amp

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def overlap(self, other: "StateVector") -> complex:
        return complex(np.vdot(self.amplitudes, other.amplitudes))


@dataclass
class ObservableSet:
    """Photon and atomic-excitation marginals of one state or density matrix."""

    n_ph: float
    n_at: float
    p_ph: np.ndarray  # length n_max+1, sums to 1 within 1e-9
    p_at: np.ndarray  # length N+1, sums to 1 within 1e-9

    def __post_init__(self):
        self.p_ph = np.asarray(self.p_ph, dtype=float)
        self.p_at = np.asarray(self.p_at, dtype=float)
        for name, dist in (("p_ph", self.p_ph), ("p_at", self.p_at)):
            s = float(dist.sum())
            if abs(s - 1.0) > DISTRIBUTION_SUM_TOL:
                raise NormalizationError(f"{name} sums to {s!r}, not 1 within 1e-9")


def dicke_fock_state(space: SpaceSpec, k: int, n_photon: int) -> StateVector:
    """Product state |k excitations> x |n_photon>.

    In the distinguishable basis |k> is the symmetric superposition of all
    C(N, k) configurations, each with amplitude sqrt(k!(N-k)!/N!).
    """
    if not 0 <= k <= space.n_qubits:
        raise DomainError(f"k={k} outside [0, {space.n_qubits}]")
    if not 0 <= n_photon <= space.n_max:
        raise DomainError(f"n_photon={n_photon} outside [0, {space.n_max}]")
    amp = np.zeros(space.dim, dtype=complex)
    if space.basis == COLLECTIVE:
        amp[space.index(k, n_photon)] = 1.0
    else:
        c = dicke_amplitude(space.n_qubits, k)
        for bits in range(space.atom_dim):
            if bits.bit_count() == k:
                amp[space.index(bits, n_photon)] = c
    return StateVector(space, amp)


def coherent_state(space: SpaceSpec, alpha: complex, k_atom: int = 0) -> StateVector:
    """Dicke state |k_atom> x truncated coherent state |alpha>, renormalized.

    Guard: |alpha|^2 must not exceed n_max/2, otherwise the truncation is judged
    unsafe and a CutoffError names the cutoff that was in force.
    """
    mean = abs(alpha) ** 2
    if mean > space.n_max / 2:
        raise CutoffError(
            f"|alpha|^2={mean:.3g} exceeds n_max/2={space.n_max / 2:.3g}; "
            f"raise n_max (currently {space.n_max})"
        )
    n = np.arange(space.photon_dim)
    if abs(alpha) > 0:
        # log-domain magnitudes so large alpha never overflows the factorial
        logmag = n * math.log(abs(alpha)) - 0.5 * gammaln(n + 1)
        photon = np.exp(logmag) * np.exp(1j * np.angle(alpha) * n)
    else:
        photon = np.where(n == 0, 1.0 + 0j, 0.0)
    photon = photon / np.linalg.norm(photon)
    atomic = dicke_fock_state(space, k_atom, 0).amplitudes.reshape(
        space.atom_dim, space.photon_dim
    )[:, 0]
    amp = np.einsum("a,n->an", atomic, photon).reshape(space.dim)
    return StateVector(space, amp)


def observables(state, space: SpaceSpec | None = None) -> ObservableSet:
    """Marginals of a StateVector, an amplitude vector, or a density matrix.

    Raw ndarray input (1d amplitudes or 2d matrix) requires an explicit space.
    The input must be normalized to 1e-6; marginals are renormalized by the
    actual norm so the distributions always sum to one exactly.
    """
    if isinstance(state, StateVector):
        space = state.space
        joint = np.abs(state.amplitudes) ** 2
    else:
        arr = np.asarray(state)
        if space is None:
            raise DomainError("raw array input requires an explicit SpaceSpec")
        if arr.ndim == 1:
            if arr.shape != (space.dim,):
                raise DomainError(f"amplitude shape {arr.shape} != ({space.dim},)")
            joint = np.abs(arr) ** 2
        elif arr.ndim == 2:
            if arr.shape != (space.dim, space.dim):
                raise DomainError(f"matrix shape {arr.shape} != square dim {space.dim}")
            joint = np.real(np.diag(arr)).copy()
        else:
            raise DomainError(f"unsupported input ndim {arr.ndim}")
    total = float(joint.sum())
    if abs(total - 1.0) > OBSERVABLE_NORM_TOL:
        raise NormalizationError(f"input normalization {total!r} off by more than 1e-6")
    joint = joint / total
    grid = joint.reshape(space.atom_dim, space.photon_dim)
    p_ph = grid.sum(axis=0)
    if space.basis == COLLECTIVE:
        p_at = grid.sum(axis=1)
    else:
        p_at = np.zeros(space.n_qubits + 1)
        for bits in range(space.atom_dim):
            p_at[int(bits).bit_count()] += grid[bits].sum()
    n_ph = float(np.dot(p_ph, np.arange(space.photon_dim)))
    n_at = float(np.dot(p_at, np.arange(space.n_qubits + 1)))
    return ObservableSet(n_ph=n_ph, n_at=n_at, p_ph=p_ph, p_at=p_at)


@dataclass
class Operators:
    """Sparse operator collection on one SpaceSpec.

    All matrices are CSR on the joint space. The truncated commutator
    [a, a_dag] equals the identity except on the top Fock block.
    """

    space: SpaceSpec
    a: sp.csr_matrix
    a_dag: sp.csr_matrix
    n_ph: sp.csr_matrix

    def identity(self) -> sp.csr_matrix:
        return sp.identity(self.space.dim, dtype=complex, format="csr")

    # -- collective-basis atomic generators ------------------------------
    def sigma(self, bra_k: int, ket_k: int) -> sp.csr_matrix:
        """Collective generator |bra_k><ket_k| x 1_field."""
        if self.space.basis != COLLECTIVE:
            raise DomainError("sigma(bra, ket) is defined on the collective basis")
        ad = self.space.atom_dim
        if not (0 <= bra_k < ad and 0 <= ket_k < ad):
            raise DomainError(f"sigma indices ({bra_k},{ket_k}) outside [0,{ad})")
        at = sp.csr_matrix(
            ([1.0], ([bra_k], [ket_k])), shape=(ad, ad), dtype=complex
        )
        return sp.kron(at, sp.identity(self.space.photon_dim, dtype=complex), format="csr")

    def atomic_excitation(self) -> sp.csr_matrix:
        """Sum_k k |k><k| (collective) or sum_l |e><e|_l (distinguishable)."""
        ad = self.space.atom_dim
        diag = np.array(
            [self.space.excitations_of_atom_index(s) for s in range(ad)], dtype=float
        )
        at = sp.diags(diag).tocsr()
        return sp.kron(at, sp.identity(self.space.photon_dim, dtype=complex), format="csr")

    # -- distinguishable-basis per-qubit operators -----------------------
    def _qubit_site(self, qubit: int, op2: np.ndarray) -> sp.csr_matrix:
        if self.space.basis != DISTINGUISHABLE:
            raise DomainError("per-qubit operators need the distinguishable basis")
        if not 1 <= qubit <= self.space.n_qubits:
            raise DomainError(f"qubit={qubit} outside [1, {self.space.n_qubits}]")
        bit = qubit - 1
        ad = self.space.atom_dim
        rows, cols, vals = [], [], []
        for bits in range(ad):
            b = (bits >> bit) & 1
            for b2 in range(2):
                v = op2[b2, b]
                if v != 0.0:
                    rows.append((bits & ~(1 << bit)) | (b2 << bit))
                    cols.append(bits)
                    vals.append(v)
        at = sp.csr_matrix((vals, (rows, cols)), shape=(ad, ad), dtype=complex)
        return sp.kron(at, sp.identity(self.space.photon_dim, dtype=complex), format="csr")

    def sigma_minus(self, qubit: int) -> sp.csr_matrix:
        return self._qubit_site(qubit, np.array([[0.0, 1.0], [0.0, 0.0]]))

    def sigma_plus(self, qubit: int) -> sp.csr_matrix:
        return self._qubit_site(qubit, np.array([[0.0, 0.0], [1.0, 0.0]]))

    def sigma_z(self, qubit: int) -> sp.csr_matrix:
        return self._qubit_site(qubit, np.array([[-1.0, 0.0], [0.0, 1.0]]))


def build_operators(space: SpaceSpec) -> Operators:
    """Sparse ladder and number operators on the joint space."""
    pd = space.photon_dim
    sq = np.sqrt(np.arange(1, pd))
    a_ph = sp.diags(sq, offsets=1).tocsr()
    eye_at = sp.identity(space.atom_dim, dtype=complex)
    a = sp.kron(eye_at, a_ph, format="csr").astype(complex)
    a_dag = sp.kron(eye_at, a_ph.T, format="csr").astype(complex)
    n_ph = sp.kron(eye_at, sp.diags(np.arange(pd, dtype=float)), format="csr").astype(
        complex
    )
    return Operators(space=space, a=a, a_dag=a_dag, n_ph=n_ph)


def embed_collective(state: StateVector) -> StateVector:
    """Isometric embedding of a collective-basis state into the distinguishable basis.

    Only meaningful for identical qubits; each |k> maps to the symmetric
    superposition with amplitude sqrt(k!(N-k)!/N!).
    """
    space = state.space
    if space.basis != COLLECTIVE:
        raise DomainError("embed_collective expects a collective-basis state")
    target = SpaceSpec(space.n_qubits, space.n_max, DISTINGUISHABLE)
    grid = state.amplitudes.reshape(space.atom_dim, space.photon_dim)
    out = np.zeros((target.atom_dim, target.photon_dim), dtype=complex)
    for bits in range(target.atom_dim):
        k = int(bits).bit_count()
        out[bits] = grid[k] * dicke_amplitude(space.n_qubits, k)
    return StateVector(target, out.reshape(target.dim))
