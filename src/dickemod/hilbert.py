"""Hilbert-space bookkeeping for a qubit ensemble coupled to a single cavity mode.

Two basis conventions are supported. The collective (Dicke) basis keeps only the
symmetric atomic ladder |k>, k = 0..N excitations, so the joint dimension is
(N+1)*(n_max+1). The distinguishable basis keeps all 2^N qubit configurations and
is required as soon as per-qubit parameters differ. In both, the photon index
varies fastest: amplitudes reshape to (atom_dim, n_max+1) without copying.

ladder_operators builds the structural operators of either basis once, as real
matrices; the Hamiltonian, its drive pieces and the collapse operators are formed
from them. observables reads one state or density matrix as the joint (excited
qubits, photons) distribution, a plain array that every population the package
reports is a sum over.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import CutoffError, DomainError, NormalizationError

COLLECTIVE = "collective"
DISTINGUISHABLE = "distinguishable"

STATE_NORM_TOL = 1e-10
OBSERVABLE_NORM_TOL = 1e-6


def _require_integer(name: str, value, error=DomainError) -> None:
    """Refuse a value that is not an integer; numpy integers pass, a bool does not."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise error(f"{name}={value!r} must be an integer")


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
        _require_integer("n_qubits", self.n_qubits)
        _require_integer("n_max", self.n_max)
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
        if not abs(nrm - 1.0) <= STATE_NORM_TOL:
            raise NormalizationError(f"state norm {nrm!r} deviates from 1 beyond 1e-10")
        self.amplitudes = amp


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
    unsafe and a CutoffError names the cutoff that was in force. It compares
    |alpha| with sqrt(n_max/2), so an alpha passed as sqrt(n_max/2) is at the
    limit, not past it by the rounding of its square.
    """
    if math.isnan(abs(alpha)):
        raise DomainError(f"alpha={alpha} must be a number")
    if abs(alpha) > math.sqrt(space.n_max / 2):
        raise CutoffError(
            f"|alpha|^2={abs(alpha) ** 2:.3g} exceeds n_max/2={space.n_max / 2:.3g}; "
            f"raise n_max (currently {space.n_max})"
        )
    n = np.arange(space.photon_dim)
    if abs(alpha) > 0:
        # log-domain magnitudes so large alpha never overflows; log n! is the
        # log of the exact integer n!
        log_factorial = np.array([math.log(math.factorial(k)) for k in n])
        logmag = n * math.log(abs(alpha)) - 0.5 * log_factorial
        photon = np.exp(logmag) * np.exp(1j * np.angle(alpha) * n)
    else:
        photon = np.where(n == 0, 1.0 + 0j, 0.0)
    photon = photon / np.linalg.norm(photon)
    atomic = dicke_fock_state(space, k_atom, 0).amplitudes.reshape(
        space.atom_dim, space.photon_dim
    )[:, 0]
    amp = np.einsum("a,n->an", atomic, photon).reshape(space.dim)
    return StateVector(space, amp)


@functools.lru_cache(maxsize=16)
def _excitation_fold(space: SpaceSpec) -> np.ndarray:
    """The 0/1 matrix F[k, a] = (atom_excitations[a] == k), shape
    (N+1, atom_dim): F @ the (atom, photon) grid sums each k's atomic levels.
    Cached per space and shared, so it is read-only."""
    fold = (np.arange(space.n_qubits + 1)[:, None] == space.atom_excitations).astype(float)
    fold.flags.writeable = False
    return fold


def observables(state, space: SpaceSpec | None = None) -> np.ndarray:
    """Joint (excited qubits, photons) distribution of a StateVector, an
    amplitude vector, or a density matrix: joint[k, n] = P(k excited qubits,
    n photons), a float array of shape (N+1, n_max+1) that sums to one.

    Raw ndarray input (1d amplitudes or 2d matrix) requires an explicit space.
    The input must be normalized to 1e-6 (NaN fails); the distribution is
    renormalized by the actual norm. The (atom, photon) grid of |psi|^2 or
    diag(rho) is folded onto k by the space's cached 0/1 matrix
    F[k, a] = (atom_excitations[a] == k), which sums the distinguishable
    configurations by popcount.
    """
    if isinstance(state, StateVector):
        space, state = state.space, state.amplitudes
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
    if not abs(total - 1.0) <= OBSERVABLE_NORM_TOL:
        raise NormalizationError(f"input normalization {total!r} off by more than 1e-6")
    return _excitation_fold(space) @ (pops.reshape(space.atom_dim, space.photon_dim) / total)


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


@functools.lru_cache(maxsize=16)
def ladder_operators(space: SpaceSpec):
    """(a, n, lowering, level) on `space`, real float64 CSR matrices.

    a and n are the cavity's annihilation and number operators ([a, a^T] = 1
    except on the top Fock block). lowering[l] and level[l] belong to emitter
    l. The collective basis has one emitter, the symmetric ladder:
    sum_k f_k |k><k+1| and the Dicke index k. In the distinguishable basis
    qubit l + 1 (bit l of the configuration) is emitter l: sigma-_l and
    sigma_z_l / 2. Cached per space and shared, so the arrays are read-only.
    """
    pd = space.photon_dim
    eye_at = sp.identity(space.atom_dim)
    eye_ph = sp.identity(pd)
    a = sp.kron(eye_at, sp.diags(np.sqrt(np.arange(1, pd)), offsets=1), format="csr")
    n = sp.kron(eye_at, sp.diags(np.arange(pd, dtype=float)), format="csr")
    if space.basis == COLLECTIVE:
        nq = space.n_qubits
        f = np.array([f_coefficient(k, nq) for k in range(nq)])
        atom_lowering = [sp.diags(f, offsets=1)]
        atom_level = [sp.diags(np.arange(nq + 1, dtype=float))]
    else:
        configs = np.arange(space.atom_dim)
        excited = [(configs >> bit) & 1 == 1 for bit in range(space.n_qubits)]
        atom_lowering = [sp.csr_matrix((np.ones(np.count_nonzero(up)),
                                        (configs[up] & ~(1 << bit), configs[up])),
                                       shape=(space.atom_dim,) * 2)
                         for bit, up in enumerate(excited)]
        atom_level = [sp.diags(np.where(up, 0.5, -0.5)) for up in excited]
    lowering = tuple(sp.kron(s, eye_ph, format="csr") for s in atom_lowering)
    level = tuple(sp.kron(z, eye_ph, format="csr") for z in atom_level)
    for op in (a, n, *lowering, *level):
        for arr in (op.data, op.indices, op.indptr):
            arr.flags.writeable = False
    return a, n, lowering, level
