"""System parameters and Hamiltonian assembly.

Frequencies are dimensionless (units of omega0, so omega0=1.0 in every preset);
physical units enter only through the seconds-per-unit conversion at the
presentation layer. The energy zero differs between the bases. The collective
basis follows the ladder form, with no -N*Omega/2 offset: the bare level of
|k, n> is omega*n + Omega*k. The distinguishable basis uses sigma_z/2: the bare
level is omega*n + sum_l Omega_l sz_l/2, sz_l = +1 (-1) for qubit l excited (not).
"""

from __future__ import annotations

import functools
import itertools
import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp
from scipy.sparse._sparsetools import csr_matvecs

from .errors import ConfigError, DomainError, RegimeWarning, UnsupportedError
from .hilbert import COLLECTIVE, SpaceSpec, _require_integer, ladder_operators

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
        _require_integer("n_qubits", self.n_qubits)
        if self.n_qubits < 1:
            raise DomainError(f"n_qubits={self.n_qubits} must be >= 1")
        object.__setattr__(
            self, "Omega0", _as_per_qubit(self.Omega0, self.n_qubits, "Omega0")
        )
        object.__setattr__(self, "g0", _as_per_qubit(self.g0, self.n_qubits, "g0"))
        if not all(map(math.isfinite, (self.omega0, *self.Omega0, *self.g0))):
            raise DomainError("omega0, Omega0 and g0 must be finite")

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
        if not 0 <= self.epsilon < math.inf:
            raise DomainError(f"epsilon={self.epsilon} must be finite and >= 0")
        if not 0 < self.eta < math.inf:
            raise DomainError(f"eta={self.eta} must be finite and > 0")
        if not math.isfinite(self.phi):
            raise DomainError(f"phi={self.phi} must be finite")
        if self.qubit is not None:
            _require_integer("qubit", self.qubit)
            if self.qubit < 1:
                raise DomainError(f"qubit={self.qubit} must be a 1-based index")


def active_drives(schedules) -> list[ModulationSchedule]:
    """The schedules that move H(t): those of nonzero depth epsilon. The one
    rule for which drives count: for a static H, the common frequency, the
    time-symmetric window and the ODE step cap. A drive whose matrix vanishes
    on the space (g at n_max = 0) counts, so no Hamiltonian is needed."""
    return [s for s in schedules if s.epsilon > 0]


def common_eta(schedules) -> float | None:
    """The one frequency of the active drives, or None when there is no
    active drive or they disagree."""
    etas = {s.eta for s in active_drives(schedules)}
    return etas.pop() if len(etas) == 1 else None


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
        if not all(0 <= r < math.inf for r in (self.kappa, *self.gamma, *self.gamma_phi)):
            raise DomainError("dissipation rates must be finite and >= 0")
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
    """Reject duplicate targets and a qubit on the cavity drive omega, and
    warn outside the perturbative regime.

    Perturbative regime: epsilon_g well below g0, epsilon_omega and
    epsilon_Omega well below |Delta|. The warning threshold is 0.3.
    """
    seen = set()
    for s in schedules:
        if s.qubit is not None and s.qubit > params.n_qubits:
            raise DomainError(f"qubit={s.qubit} > N={params.n_qubits}")
        if s.qubit is not None and s.target == "omega":
            raise ConfigError(f"the cavity drive omega takes no qubit, got qubit={s.qubit}")
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
                RegimeWarning,
                stacklevel=2,
            )


@functools.lru_cache(maxsize=16)
def _couplings(space: SpaceSpec) -> tuple[tuple[sp.csr_matrix, sp.csr_matrix], ...]:
    """(tc_l, crt_l) of each emitter l at g = 1, s_l its lowering operator: the
    excitation-conserving tc_l = a s_l^T + a^T s_l and the counter-rotating
    crt_l = a^T s_l^T + a s_l. Cached per space, so the arrays are read-only."""
    a, _, lowering, _ = ladder_operators(space)
    pairs = tuple(((a @ s.T + a.T @ s).tocsr(), (a.T @ s.T + a @ s).tocsr()) for s in lowering)
    for op in itertools.chain.from_iterable(pairs):
        for arr in (op.data, op.indices, op.indptr):
            arr.flags.writeable = False
    return pairs


@dataclass(frozen=True)
class ModulatedHamiltonian:
    """H(t) = H_const + sum_j sin(eta_j t + phi_j) * H_j, with the pieces cached.

    terms pairs each drive's schedule with its matrix H_j, so it holds every
    schedule. `apply` is the one way to apply H(t); no method forms H(t) as a
    matrix.

    Every piece (h_const, then each drive term's matrix) is a real float64
    matrix equal to its transpose, exactly; construction raises DomainError
    for any other. The pieces also live on one merged real CSR matrix, whose
    pattern is the union of theirs: each piece is one data row d_j on that
    pattern. `apply` writes d_0 + sum_j s_j(t) d_j into the merged matrix's
    data and multiplies it once. The diagonal D_j of each piece is kept apart
    too, with rows on the same pattern that zero it: `apply_off_diagonal`
    multiplies H(t) - D(t), D(t) = D_0 + sum_j s_j(t) D_j, and
    `diagonal_phase` is the exact integral of D(t). `off_diagonal_product`
    and `diagonal_phase_from` are their forms for a hot loop: the operand or
    the start time is fixed once, and the checks and start terms leave the
    call. The rows are derived from h_const and terms on construction, so
    `restrict` and `dataclasses.replace` rebuild them; the instance is
    frozen so they cannot go stale.
    """

    space: SpaceSpec
    h_const: sp.csr_matrix
    terms: tuple[tuple[ModulationSchedule, sp.csr_matrix], ...]
    _merged: sp.csr_matrix = field(init=False, repr=False)
    _rows: np.ndarray = field(init=False, repr=False)
    _off_rows: np.ndarray = field(init=False, repr=False)
    _diagonals: np.ndarray = field(init=False, repr=False)
    _drives: tuple[tuple[float, float], ...] = field(init=False, repr=False)
    _coeffs: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if any(h.dtype != np.float64 or (h != h.T).nnz for h in self.pieces):
            raise DomainError("every Hamiltonian piece must be real float64 and equal its transpose")
        n_rows, n_cols = self.h_const.shape
        # each piece's entries as row-major keys row * n_cols + col
        piece_keys = [np.repeat(np.arange(n_rows, dtype=np.int64), np.diff(h.indptr)) * n_cols
                      + h.indices for h in self.pieces]
        keys = np.sort(np.concatenate(piece_keys))
        keys = keys[np.diff(keys, prepend=-1) > 0]  # the union pattern
        indptr = np.searchsorted(keys, np.arange(n_rows + 1) * n_cols)
        merged = sp.csr_matrix((np.zeros(keys.size), keys % n_cols, indptr), shape=(n_rows, n_cols))
        rows = np.zeros((len(piece_keys), keys.size))
        for d, k, h in zip(rows, piece_keys, self.pieces):
            np.add.at(d, np.searchsorted(keys, k), h.data)
        # each piece's diagonal, and the rows without it
        on_diag = keys // n_cols == keys % n_cols
        diagonals = np.zeros((len(piece_keys), n_rows))
        diagonals[:, keys[on_diag] // n_cols] = rows[:, on_diag]
        off = rows.copy()
        off[:, on_diag] = 0.0
        object.__setattr__(self, "_merged", merged)
        object.__setattr__(self, "_rows", rows)
        object.__setattr__(self, "_off_rows", off)
        object.__setattr__(self, "_diagonals", diagonals)
        object.__setattr__(self, "_drives", tuple((s.eta, s.phi) for s, _ in self.terms))
        # the coefficients (1, s_1(t), ...) of the rows, rewritten by every product
        object.__setattr__(self, "_coeffs", np.ones(1 + len(self.terms)))

    def apply(self, t: float, y: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """H(t) @ y for a state vector or a matrix of columns, without forming H(t).

        One real sparse product with y's float64 view, whose columns are the
        interleaved real and imaginary parts of y's columns: scipy.sparse's
        own kernel, csr_matvecs, called without its Python dispatch, so the
        result is bitwise that of `merged @ cols`. It is written into `out`, a
        C-contiguous complex array of y's shape, when one is given, else into
        a new array. The merged matrix's data is overwritten on every call,
        so one instance must not apply from two threads at once.
        """
        return self._apply(self._rows, t, y, out)

    def apply_off_diagonal(self, t: float, y: np.ndarray,
                           out: np.ndarray | None = None) -> np.ndarray:
        """(H(t) - D(t)) @ y, with D(t) the diagonal of H(t), made like
        `apply`'s product on the same pattern."""
        return self._apply(self._off_rows, t, y, out)

    def off_diagonal_product(self, y: np.ndarray):
        """apply_off_diagonal for one operand, checked once here rather than
        on every call: a function product(t, out) that writes
        (H(t) - D(t)) @ y into out and returns it. y is a C-contiguous complex
        array, which the caller rewrites between calls; out must be a flat
        C-contiguous complex array of y's size, and nothing checks it."""
        if y.dtype != complex or not y.flags.c_contiguous:
            raise ConfigError("y must be a C-contiguous complex array")
        cols = y.reshape(len(y), -1).view(np.float64)
        flat, rows = cols.ravel(), self._off_rows

        def product(t, out):
            self._product(rows, t, flat, cols.shape[1], out.view(np.float64))
            return out

        return product

    def diagonal_phase(self, t, t0: float) -> np.ndarray:
        """theta(t), the integral of D(s) from t0 to t, in closed form:
        D_0 (t - t0) - sum_j D_j (cos(eta_j t + phi_j) - cos(eta_j t0 + phi_j)) / eta_j.
        For a 1-D array of times, one row per time."""
        return self.diagonal_phase_from(t0)(t)

    def diagonal_phase_from(self, t0: float):
        """diagonal_phase(t, t0) as a function phase(t, out=None) of t, with
        the cos(eta_j t0 + phi_j) taken once. For a single time, `out` takes
        theta(t) in place of a new array."""
        drives = [(eta, phi, math.cos(eta * t0 + phi)) for eta, phi in self._drives]
        scalar = np.empty(1 + len(drives))  # one time's coefficients, rewritten by every call

        def phase(t, out=None):
            if out is None and np.ndim(t):
                coeffs, cos = np.empty((len(scalar), len(t))), np.cos
            else:
                coeffs, cos = scalar, math.cos
            coeffs[0] = t - t0
            for j, (eta, phi, start) in enumerate(drives, start=1):
                coeffs[j] = (start - cos(eta * t + phi)) / eta
            return np.matmul(coeffs.T, self._diagonals, out=out)

        return phase

    def _apply(self, rows: np.ndarray, t: float, y: np.ndarray, out) -> np.ndarray:
        shape = np.shape(y)
        if out is None:
            out = np.empty(shape, dtype=complex)
        elif out.shape != shape or out.dtype != complex or not out.flags.c_contiguous:
            # the kernel writes through a flat view, which any other out would not be
            raise ConfigError("out must be a C-contiguous complex array of y's shape")
        cols = np.ascontiguousarray(y, dtype=complex).reshape(shape[0], -1).view(np.float64)
        self._product(rows, t, cols.ravel(), cols.shape[1], out.view(np.float64).ravel())
        return out

    def _product(self, rows: np.ndarray, t: float, cols: np.ndarray, width: int,
                 out: np.ndarray) -> None:
        """The merged pattern with data sum_j coeffs_j rows_j, coeffs
        (1, sin(eta_j t + phi_j), ...), times the flat float64 columns `cols`
        of `width` each, written into the flat float64 `out`."""
        coeffs, merged = self._coeffs, self._merged
        for j, (eta, phi) in enumerate(self._drives, start=1):
            coeffs[j] = math.sin(eta * t + phi)
        np.dot(coeffs, rows, out=merged.data)
        out.fill(0.0)  # the kernel adds its product into out
        csr_matvecs(*merged.shape, width, merged.indptr, merged.indices, merged.data, cols, out)

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
        return replace(self, terms=tuple((replace(s, eta=eta), hx) for s, hx in self.terms))

    @property
    def pieces(self) -> tuple[sp.csr_matrix, ...]:
        """h_const followed by each drive term's matrix."""
        return (self.h_const, *(hx for _, hx in self.terms))

    @property
    def common_eta(self) -> float | None:
        """common_eta of the drive terms' schedules."""
        return common_eta(s for s, _ in self.terms)


def build_hamiltonian(
    space: SpaceSpec,
    params: SystemParams,
    schedules: tuple[ModulationSchedule, ...] = (),
) -> ModulatedHamiltonian:
    """Assemble the cached time-dependent Hamiltonian for either basis:

    H = omega*n + sum_l [Omega_l level_l + g_l coupling_l]

    over the emitters l of hilbert.ladder_operators, with coupling_l = tc_l,
    plus crt_l when params.with_crt (_couplings). The collective basis has one
    emitter with the uniform (Omega, g); the distinguishable basis (N=2) has
    one per qubit with its own. A drive piece is epsilon times n, one
    emitter's operator (a qubit-addressed schedule) or their sum over every
    emitter.
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
        Omegas, gs = (params.Omega0_uniform,), (params.g0_uniform,)
    else:
        if space.n_qubits != 2:
            raise UnsupportedError("distinguishable-basis Hamiltonians are implemented for N=2 only")
        Omegas, gs = params.Omega0, params.g0

    _, n_op, _, levels = ladder_operators(space)
    couplings = [tc + crt if params.with_crt else tc for tc, crt in _couplings(space)]
    h_const = params.omega0 * n_op
    for Omega, g, level, coupling in zip(Omegas, gs, levels, couplings):
        h_const = h_const + Omega * level + g * coupling
    struct = {"omega": (n_op,), "Omega": levels, "g": couplings}
    terms = []
    for s in schedules:
        per = struct[s.target]
        # one qubit's operator for a qubit-addressed Omega or g drive, else the sum
        hx = per[s.qubit - 1] if s.qubit and s.target != "omega" else sum(per[1:], per[0])
        terms.append((s, (s.epsilon * hx).tocsr()))
    return ModulatedHamiltonian(space, h_const.tocsr(), tuple(terms))


def seconds_per_time_unit(omega0_frequency_hz: float = 10e9) -> float:
    """Physical seconds per dimensionless time unit, given omega0/2pi in Hz."""
    if not 0 < omega0_frequency_hz < math.inf:
        raise DomainError(f"omega0 frequency {omega0_frequency_hz} must be finite and > 0")
    return 1.0 / (2.0 * math.pi * omega0_frequency_hz)
