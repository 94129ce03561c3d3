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

    @property
    def atom_excitations(self) -> np.ndarray:
        """Excited qubits of every atomic basis index: the Dicke index in the
        collective basis, the popcount of the configuration in the
        distinguishable one."""
        if self.basis == COLLECTIVE:
            return np.arange(self.atom_dim)
        return np.array([bits.bit_count() for bits in range(self.atom_dim)])


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


@dataclass
class ObservableSet:
    """The joint distribution of one state or density matrix over excited
    qubits and photons, and the marginals and means read from it.

    joint[k, n] = P(k excited qubits, n photons), shape (N+1, n_max+1), sums
    to 1 within 1e-9. p_ph, p_at, n_ph and n_at are derived from it, so two
    sets are equal when their joint distributions are.
    """

    joint: np.ndarray
    p_ph: np.ndarray = field(init=False)  # length n_max+1
    p_at: np.ndarray = field(init=False)  # length N+1
    n_ph: float = field(init=False)
    n_at: float = field(init=False)

    def __post_init__(self):
        self.joint = np.asarray(self.joint, dtype=float)
        s = float(self.joint.sum())
        if abs(s - 1.0) > DISTRIBUTION_SUM_TOL:
            raise NormalizationError(f"joint distribution sums to {s!r}, not 1 within 1e-9")
        self.p_ph = self.joint.sum(axis=0)
        self.p_at = self.joint.sum(axis=1)
        self.n_ph = float(np.dot(self.p_ph, np.arange(len(self.p_ph))))
        self.n_at = float(np.dot(self.p_at, np.arange(len(self.p_at))))

    def __eq__(self, other):
        if not isinstance(other, ObservableSet):
            return NotImplemented
        return bool(np.array_equal(self.joint, other.joint))


def dicke_fock_state(space: SpaceSpec, k: int, n_photon: int) -> StateVector:
    """Product state |k excitations> x |n_photon>.

    In the distinguishable basis |k> is the symmetric superposition of all
    C(N, k) configurations, each with amplitude sqrt(k!(N-k)!/N!).
    """
    if not 0 <= k <= space.n_qubits:
        raise DomainError(f"k={k} outside [0, {space.n_qubits}]")
    if not 0 <= n_photon <= space.n_max:
        raise DomainError(f"n_photon={n_photon} outside [0, {space.n_max}]")
    amp = np.zeros((space.atom_dim, space.photon_dim), dtype=complex)
    members = space.atom_excitations == k
    amp[members, n_photon] = 1.0 / math.sqrt(np.count_nonzero(members))
    return StateVector(space, amp.reshape(space.dim))


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
    """Joint (excited qubits, photons) distribution of a StateVector, an
    amplitude vector, or a density matrix.

    Raw ndarray input (1d amplitudes or 2d matrix) requires an explicit space.
    The input must be normalized to 1e-6; the distribution is renormalized by
    the actual norm so it always sums to one. The (atom, photon) grid of |psi|^2
    or diag(rho) is folded onto k = space.atom_excitations, which sums the
    distinguishable configurations by popcount.
    """
    if isinstance(state, StateVector):
        space = state.space
        pops = np.abs(state.amplitudes) ** 2
    else:
        arr = np.asarray(state)
        if space is None:
            raise DomainError("raw array input requires an explicit SpaceSpec")
        if arr.ndim == 1:
            if arr.shape != (space.dim,):
                raise DomainError(f"amplitude shape {arr.shape} != ({space.dim},)")
            pops = np.abs(arr) ** 2
        elif arr.ndim == 2:
            if arr.shape != (space.dim, space.dim):
                raise DomainError(f"matrix shape {arr.shape} != square dim {space.dim}")
            pops = np.real(np.diag(arr))
        else:
            raise DomainError(f"unsupported input ndim {arr.ndim}")
    total = float(pops.sum())
    if abs(total - 1.0) > OBSERVABLE_NORM_TOL:
        raise NormalizationError(f"input normalization {total!r} off by more than 1e-6")
    joint = np.zeros((space.n_qubits + 1, space.photon_dim))
    np.add.at(joint, space.atom_excitations, pops.reshape(space.atom_dim, space.photon_dim) / total)
    return ObservableSet(joint)


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
        at = sp.diags(self.space.atom_excitations.astype(float)).tocsr()
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


def parity_sectors(space: SpaceSpec) -> tuple[np.ndarray, np.ndarray]:
    """Flat indices of the even and the odd sector of the parity (-1)^(n+k).

    k counts the excited qubits: the Dicke index in the collective basis, the
    popcount of the configuration in the distinguishable basis. Both sectors
    are nonempty, since the atomic ground and singly excited levels differ.
    """
    odd = (np.add.outer(space.atom_excitations, np.arange(space.photon_dim)) % 2).ravel() == 1
    return np.flatnonzero(~odd), np.flatnonzero(odd)


def parity_flips(op, space: SpaceSpec) -> bool:
    """Whether an operator on `space` maps each parity sector into the other.

    False when every nonzero entry stays inside a sector, True when every one
    crosses; an operator that does both leaks between the sectors and raises
    DomainError, because the sector engines would drop that part.
    """
    coo = sp.coo_matrix(op)
    odd = np.zeros(space.dim, dtype=bool)
    odd[parity_sectors(space)[1]] = True
    nonzero = coo.data != 0
    crosses = odd[coo.row[nonzero]] != odd[coo.col[nonzero]]
    if crosses.all() and crosses.size:
        return True
    if not crosses.any():
        return False
    raise DomainError(
        f"operator leaks between the parity sectors: {int(crosses.sum())} of "
        f"{crosses.size} nonzero entries cross them"
    )


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
