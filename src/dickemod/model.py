"""System parameters and Hamiltonian assembly.

Frequencies are dimensionless (units of omega0, so omega0=1.0 in every preset);
physical units enter only through the seconds-per-unit conversion at the
presentation layer. The energy zero point follows the collective ladder form:
no -N*Omega/2 offset, the bare level of |k, n> is omega*n + Omega*k.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError, DomainError, UnsupportedError
from .hilbert import (
    COLLECTIVE,
    SpaceSpec,
    build_operators,
    f_coefficient,
)

HERMITICITY_TOL = 1e-14
MODULATION_DEPTH_WARN = 0.3

MOD_TARGETS = ("omega", "Omega", "g")


def _as_per_qubit(value, n_qubits: int, name: str) -> tuple[float, ...]:
    if isinstance(value, (int, float)):
        return (float(value),) * n_qubits
    vals = tuple(float(v) for v in value)
    if len(vals) != n_qubits:
        raise DomainError(f"{name} needs one value or {n_qubits} values, got {len(vals)}")
    return vals


@dataclass(frozen=True)
class SystemParams:
    """Static system parameters.

    Omega0 and g0 accept a scalar (identical qubits) or one value per qubit;
    per-qubit values force the distinguishable basis in the builders.
    """

    omega0: float
    Omega0: float | tuple[float, ...]
    g0: float | tuple[float, ...]
    n_qubits: int
    with_crt: bool = True

    def __post_init__(self):
        if self.n_qubits < 1:
            raise DomainError(f"n_qubits={self.n_qubits} must be >= 1")
        object.__setattr__(
            self, "Omega0", _as_per_qubit(self.Omega0, self.n_qubits, "Omega0")
        )
        object.__setattr__(self, "g0", _as_per_qubit(self.g0, self.n_qubits, "g0"))

    @property
    def is_uniform(self) -> bool:
        return len(set(self.Omega0)) == 1 and len(set(self.g0)) == 1

    def _uniform(self, name: str, values: tuple[float, ...]) -> float:
        if len(set(values)) != 1:
            raise DomainError(f"{name} differs per qubit; collective form undefined")
        return values[0]

    @property
    def Omega0_uniform(self) -> float:
        return self._uniform("Omega0", self.Omega0)

    @property
    def g0_uniform(self) -> float:
        return self._uniform("g0", self.g0)

    @property
    def delta_minus(self) -> float:
        """Detuning omega0 - Omega0 (uniform systems)."""
        return self.omega0 - self.Omega0_uniform

    @property
    def delta_dispersive(self) -> float:
        """Dispersive shift g0^2 / delta_minus."""
        return self.g0_uniform**2 / self.delta_minus


@dataclass(frozen=True)
class ModulationSchedule:
    """Sinusoidal drive X(t) = X0 + epsilon * sin(eta*t + phi) of one parameter.

    target is "omega", "Omega" or "g". qubit=None modulates the collective
    parameter (or every qubit in the distinguishable basis); a 1-based qubit
    index addresses a single qubit and is experimental.
    """

    target: str
    epsilon: float
    eta: float
    phi: float = 0.0
    qubit: int | None = None

    def __post_init__(self):
        if self.target not in MOD_TARGETS:
            raise DomainError(f"target {self.target!r} not in {MOD_TARGETS}")
        if self.epsilon < 0:
            raise DomainError(f"epsilon={self.epsilon} must be >= 0")
        if self.eta <= 0:
            raise DomainError(f"eta={self.eta} must be > 0")
        if self.qubit is not None and self.qubit < 1:
            raise DomainError(f"qubit={self.qubit} must be a 1-based index")

    def drive(self, t) -> np.ndarray:
        """The oscillating factor sin(eta*t + phi)."""
        return np.sin(self.eta * np.asarray(t) + self.phi)


@dataclass(frozen=True)
class DissipationRates:
    """Cavity decay kappa, per-qubit relaxation gamma and pure dephasing gamma_phi."""

    kappa: float = 0.0
    gamma: tuple[float, ...] = ()
    gamma_phi: tuple[float, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "gamma", tuple(float(g) for g in self.gamma))
        object.__setattr__(
            self, "gamma_phi", tuple(float(g) for g in self.gamma_phi)
        )
        if self.kappa < 0 or any(g < 0 for g in self.gamma + self.gamma_phi):
            raise DomainError("dissipation rates must be >= 0")
        if len(self.gamma) != len(self.gamma_phi):
            raise DomainError("gamma and gamma_phi must have one entry per qubit")

    @property
    def n_qubits(self) -> int:
        return len(self.gamma)

    @property
    def all_zero(self) -> bool:
        return self.kappa == 0 and not any(self.gamma) and not any(self.gamma_phi)


def validate_schedules(
    params: SystemParams, schedules: tuple[ModulationSchedule, ...]
) -> None:
    """Reject duplicate targets and warn outside the perturbative regime.

    Perturbative regime: epsilon_g well below g0, epsilon_omega and
    epsilon_Omega well below |Delta|. The warning threshold is 0.3.
    """
    seen = set()
    for s in schedules:
        if s.qubit is not None and s.qubit > params.n_qubits:
            raise DomainError(f"qubit={s.qubit} > N={params.n_qubits}")
        key = (s.target, s.qubit)
        if key in seen:
            raise ConfigError(f"duplicate modulation target {key}")
        seen.add(key)
    for s in schedules:
        if s.target == "g":
            base = params.g0[(s.qubit or 1) - 1]
        else:
            try:
                base = abs(params.delta_minus)
            except DomainError:
                base = abs(params.omega0 - params.Omega0[(s.qubit or 1) - 1])
        if base > 0 and s.epsilon / base > MODULATION_DEPTH_WARN:
            warnings.warn(
                f"modulation depth epsilon/{'g0' if s.target == 'g' else '|Delta|'}"
                f" = {s.epsilon / base:.2f} exceeds {MODULATION_DEPTH_WARN};"
                " outside the perturbative regime",
                stacklevel=2,
            )


@functools.lru_cache(maxsize=16)
def _collective_blocks(space: SpaceSpec):
    """(n_op, k_op, tc, crt) structural matrices on the collective basis.

    tc = sum_k f_k (a sigma_{k+1,k} + h.c.) is the excitation-conserving
    coupling and crt = sum_k f_k (a^dag sigma_{k+1,k} + h.c.) its counter-
    rotating part, both at g = 1. Built once per space and shared, so the
    arrays are read-only: every caller forms new matrices from them.
    """
    pd = space.photon_dim
    nq = space.n_qubits
    sq = np.sqrt(np.arange(1, pd))
    a_ph = sp.diags(sq, offsets=1)
    eye_at = sp.identity(nq + 1)
    eye_ph = sp.identity(pd)
    n_op = sp.kron(eye_at, sp.diags(np.arange(pd, dtype=float)), format="csr")
    k_op = sp.kron(sp.diags(np.arange(nq + 1, dtype=float)), eye_ph, format="csr")
    f = np.array([f_coefficient(k, nq) for k in range(nq)])
    s_raise = sp.diags(f, offsets=-1)  # |k+1><k| weighted by f_k
    tc = sp.kron(s_raise, a_ph) + sp.kron(s_raise.T, a_ph.T)
    crt = sp.kron(s_raise, a_ph.T) + sp.kron(s_raise.T, a_ph)
    blocks = tuple(op.tocsr().astype(complex) for op in (n_op, k_op, tc, crt))
    for op in blocks:
        for arr in (op.data, op.indices, op.indptr):
            arr.flags.writeable = False
    return blocks


def _distinguishable_blocks(space: SpaceSpec, with_crt: bool):
    """(n_op, [sz_l/2], [coupling_l]) on the distinguishable basis."""
    if space.n_qubits != 2:
        raise UnsupportedError(
            "distinguishable-basis Hamiltonians are implemented for N=2 only"
        )
    ops = build_operators(space)
    n_op = ops.n_ph.copy()
    half_sz = []
    couplings = []
    for l in range(1, space.n_qubits + 1):
        half_sz.append((0.5 * ops.sigma_z(l)).tocsr())
        sm = ops.sigma_minus(l)
        spl = ops.sigma_plus(l)
        tc = ops.a @ spl + ops.a_dag @ sm
        if with_crt:
            c = (ops.a + ops.a_dag) @ (spl + sm)
        else:
            c = tc
        couplings.append(c.tocsr())
    return n_op, half_sz, couplings


def hermiticity_defect(h: sp.spmatrix) -> float:
    d = h - h.getH()
    return 0.0 if d.nnz == 0 else float(np.abs(d.data).max())


@dataclass(frozen=True)
class ModulatedHamiltonian:
    """H(t) = H_const + sum_j sin(eta_j t + phi_j) * H_j, with the pieces cached.

    The pieces (h_const, then each drive term's matrix) also live on one
    merged real CSR matrix, whose pattern is the union of theirs: each piece
    is one real data row d_j on that pattern, and a piece with an imaginary
    part, H_j = A_j + i B_j, adds its B_j to a second set of rows. `apply`
    writes d_0 + sum_j s_j(t) d_j into the merged matrix's data and multiplies
    it once. The real diagonal D_j of each piece is kept apart too, with real
    rows on the same pattern that zero it: `apply_off_diagonal` multiplies
    H(t) - D(t), D(t) = D_0 + sum_j s_j(t) D_j, and `diagonal_phase` is the
    exact integral of D(t). The rows are derived from h_const and terms on
    construction, so `restrict` and `dataclasses.replace` rebuild them; the
    instance is frozen so they cannot go stale.
    """

    space: SpaceSpec
    params: SystemParams
    schedules: tuple[ModulationSchedule, ...]
    h_const: sp.csr_matrix
    terms: tuple[tuple[ModulationSchedule, sp.csr_matrix], ...]
    _merged: sp.csr_matrix = field(init=False, repr=False)
    _rows: tuple[np.ndarray, ...] = field(init=False, repr=False)
    _off_rows: tuple[np.ndarray, ...] = field(init=False, repr=False)
    _diagonals: np.ndarray = field(init=False, repr=False)
    _drives: tuple[tuple[float, float], ...] = field(init=False, repr=False)

    def __post_init__(self):
        n_rows, n_cols = self.h_const.shape
        # each piece's entries as row-major keys row * n_cols + col
        piece_keys = [np.repeat(np.arange(n_rows, dtype=np.int64), np.diff(h.indptr)) * n_cols
                      + h.indices for h in self.pieces]
        keys = np.sort(np.concatenate(piece_keys))
        keys = keys[np.diff(keys, prepend=-1) > 0]  # the union pattern
        indptr = np.searchsorted(keys, np.arange(n_rows + 1) * n_cols)
        merged = sp.csr_matrix((np.zeros(keys.size), keys % n_cols, indptr), shape=(n_rows, n_cols))
        data = np.zeros((len(piece_keys), keys.size), dtype=complex)
        for d, k, h in zip(data, piece_keys, self.pieces):
            np.add.at(d, np.searchsorted(keys, k), h.data)
        # the real rows, then the imaginary ones when a piece has any
        rows = (data.real.copy(), data.imag.copy()) if data.imag.any() else (data.real.copy(),)
        # each piece's real diagonal, and the real rows without it
        on_diag = keys // n_cols == keys % n_cols
        diagonals = np.zeros((len(piece_keys), n_rows))
        diagonals[:, keys[on_diag] // n_cols] = rows[0][:, on_diag]
        off = rows[0].copy()
        off[:, on_diag] = 0.0
        object.__setattr__(self, "_merged", merged)
        object.__setattr__(self, "_rows", rows)
        object.__setattr__(self, "_off_rows", (off, *rows[1:]))
        object.__setattr__(self, "_diagonals", diagonals)
        object.__setattr__(self, "_drives", tuple((s.eta, s.phi) for s, _ in self.terms))

    def at(self, t: float) -> sp.csr_matrix:
        h = self.h_const
        for sched, hx in self.terms:
            h = h + float(sched.drive(t)) * hx
        return h

    def apply(self, t: float, y: np.ndarray) -> np.ndarray:
        """H(t) @ y for a state vector or a matrix of columns, without forming H(t).

        One real sparse product with y's float64 view, whose columns are the
        interleaved real and imaginary parts of y's columns, and a second one
        (times i) when a piece is complex. The merged matrix's data is
        overwritten on every call, so one instance must not apply from two
        threads at once.
        """
        return self._apply(self._rows, t, y)

    def apply_off_diagonal(self, t: float, y: np.ndarray) -> np.ndarray:
        """(H(t) - D(t)) @ y, with D(t) the real diagonal of H(t), made like
        `apply`'s product on the same pattern."""
        return self._apply(self._off_rows, t, y)

    def diagonal_phase(self, t, t0: float) -> np.ndarray:
        """theta(t), the integral of D(s) from t0 to t, in closed form:
        D_0 (t - t0) - sum_j D_j (cos(eta_j t + phi_j) - cos(eta_j t0 + phi_j)) / eta_j.
        For a 1-D array of times, one row per time."""
        cos = np.cos if np.ndim(t) else math.cos
        coeffs = np.array([t - t0, *((math.cos(eta * t0 + phi) - cos(eta * t + phi)) / eta
                                     for eta, phi in self._drives)])
        return coeffs.T @ self._diagonals

    def _apply(self, row_sets: tuple[np.ndarray, ...], t: float, y: np.ndarray) -> np.ndarray:
        shape = np.shape(y)
        cols = np.ascontiguousarray(y, dtype=complex).reshape(shape[0], -1).view(np.float64)
        coeffs = np.array([1.0, *(math.sin(eta * t + phi) for eta, phi in self._drives)])
        out = self._product(coeffs, row_sets[0], cols)
        for rows in row_sets[1:]:
            out += 1j * self._product(coeffs, rows, cols)
        return out.reshape(shape)

    def _product(self, coeffs: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        np.dot(coeffs, rows, out=self._merged.data)
        return (self._merged @ cols).view(complex)

    def restrict(self, index: np.ndarray) -> "ModulatedHamiltonian":
        """The pieces on the rows and columns `index`, in that order; `space`
        still names the full space. Meant for an invariant subspace, such as a
        parity sector: nothing checks that `index` is one."""
        def sub(h):
            return h[index][:, index].tocsr()

        return replace(self, h_const=sub(self.h_const),
                       terms=tuple((s, sub(hx)) for s, hx in self.terms))

    def at_eta(self, eta: float) -> "ModulatedHamiltonian":
        """The same pieces with every drive at frequency eta. At eta = 1 this
        is H(s) in the normalized time s = eta t of any common frequency."""
        return replace(self, schedules=tuple(replace(s, eta=eta) for s in self.schedules),
                       terms=tuple((replace(s, eta=eta), hx) for s, hx in self.terms))

    @property
    def pieces(self) -> tuple[sp.csr_matrix, ...]:
        """h_const followed by each drive term's matrix."""
        return (self.h_const, *(hx for _, hx in self.terms))

    @property
    def is_static(self) -> bool:
        return all(hx.nnz == 0 or s.epsilon == 0 for s, hx in self.terms)

    @property
    def common_eta(self) -> float | None:
        """The shared drive frequency, or None when schedules disagree."""
        etas = {s.eta for s, hx in self.terms if s.epsilon > 0 and hx.nnz > 0}
        if not etas:
            return None
        if len(etas) == 1:
            return etas.pop()
        return None


def build_hamiltonian(
    space: SpaceSpec,
    params: SystemParams,
    schedules: tuple[ModulationSchedule, ...] = (),
) -> ModulatedHamiltonian:
    """Assemble the cached time-dependent Hamiltonian for either basis.

    Collective basis: H = omega*n + sum_k [Omega*k |k><k| + g f_k couplings],
    with counter-rotating terms included when params.with_crt. Distinguishable
    basis (N=2): H = omega*n + sum_l [Omega_l sz_l/2 + g_l couplings_l].
    """
    if params.n_qubits != space.n_qubits:
        raise DomainError("params.n_qubits does not match space.n_qubits")
    schedules = tuple(schedules)
    validate_schedules(params, schedules)

    if space.basis == COLLECTIVE:
        if not params.is_uniform:
            raise DomainError("per-qubit parameters require the distinguishable basis")
        for s in schedules:
            if s.qubit is not None:
                raise ConfigError("qubit-addressed schedules require the distinguishable basis")
        n_op, k_op, tc, crt = _collective_blocks(space)
        coupling = tc + crt if params.with_crt else tc
        h_const = (
            params.omega0 * n_op
            + params.Omega0_uniform * k_op
            + params.g0_uniform * coupling
        ).tocsr()
        struct = {"omega": n_op, "Omega": k_op, "g": coupling}
        terms = tuple((s, (s.epsilon * struct[s.target]).tocsr()) for s in schedules)
    else:
        n_op, half_sz, couplings = _distinguishable_blocks(space, params.with_crt)
        h_const = params.omega0 * n_op
        for l in range(space.n_qubits):
            h_const = h_const + params.Omega0[l] * half_sz[l] + params.g0[l] * couplings[l]
        h_const = h_const.tocsr()
        struct = {"omega": [n_op], "Omega": half_sz, "g": couplings}
        terms = []
        for s in schedules:
            if s.target == "omega":
                hx = n_op
            else:
                per = struct[s.target]
                if s.qubit is None:
                    hx = sum(per[1:], per[0])
                else:
                    hx = per[s.qubit - 1]
            terms.append((s, (s.epsilon * hx).tocsr()))
        terms = tuple(terms)

    ham = ModulatedHamiltonian(space, params, schedules, h_const, terms)
    for h in ham.pieces:
        defect = hermiticity_defect(h)
        if defect > HERMITICITY_TOL:
            raise DomainError(f"assembled Hamiltonian not Hermitian: defect {defect:.2e}")
    return ham


def seconds_per_time_unit(omega0_frequency_hz: float = 10e9) -> float:
    """Physical seconds per dimensionless time unit, given omega0/2pi in Hz."""
    if omega0_frequency_hz <= 0:
        raise DomainError("omega0 frequency must be positive")
    return 1.0 / (2.0 * math.pi * omega0_frequency_hz)
