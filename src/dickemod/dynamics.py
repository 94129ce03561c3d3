"""Exact time evolution of the modulated system.

Unitary runs integrate i d|psi>/dt = H(t)|psi> in the lab frame; dissipative
runs integrate the master equation
    drho/dt = -i[H(t), rho] + kappa D[a] + sum_l (gamma_l D[sigma-_l]
              + (gamma_phi_l/2) D[sigma_z_l]),
with D[O]rho = (2 O rho O^dag - O^dag O rho - rho O^dag O)/2.

One dispatcher, _select_engine, picks the engine of every run:
evolve_schrodinger, each point of evolve_schrodinger_etas, evolve_lindblad
and lindblad_grid ask it, and it is the only place that validates `method`
(auto, direct or stroboscopic). It reads the schedules alone, with the one
rule for which drives count (model.active_drives, those of nonzero depth),
which the time-symmetric window and the step cap use too. Under auto, a run
with no active drive is static and propagates by eigendecomposition; the
master equation has no static engine and integrates it directly. Short or
aperiodic drives use adaptive Runge-Kutta. Drives with one common frequency
that span at least STROBE_MIN_PERIODS periods from t=0 use the stroboscopic
engine, and a forced `stroboscopic` run needs the same common frequency and
t=0 start. Every ODE solve goes through _integrate, which steps with DOP853
(the Dormand-Prince 8(5,3) pair; Hairer, Norsett & Wanner, Solving ODEs I)
and caps the step at a twentieth of the fastest active drive's period. It
reads every sample the same way, direct or stroboscopic: off the dense
output of the accepted step that holds it (ibid., sec. II.6), together with
the sum of DOP853's error estimates over the steps up to it (_StepSampler).
A direct run's metadata["global_error_estimate"] is that sum at its last
sample. The right-hand sides apply H(t) through ModulatedHamiltonian.apply:
one real sparse product of the pieces' merged pattern, with
d_0 + sum_j s_j(t) d_j as its data, and the float64 view of the complex
state (interleaved re/im columns), so the ODE state stays complex.

The stroboscopic engines integrate one drive period once, at a tenth of the
run's tol; this is what makes horizons of 1e5 time units tractable. The drive
is a single sinusoid, so the periodicity is exact and the only approximation
is the one the integrator tolerance controls. That tolerance bounds a local
error, each step's and so each period's, and a march of k periods carries k
of them: every stroboscopic run records metadata["global_error_estimate"],
the periods its last sample has begun times a per-period estimate built
from DOP853's own error estimates (period_error_estimate, see
_sector_propagators; the dissipative engine adds its channel's slice
error). The period solve runs in the normalized time s = eta t, where H(s)
and the period 2 pi do not depend on eta: one solve integrates
dY_j/ds = -(i/eta_j) H(s) Y_j for a batch of frequencies side by side
(_sector_propagators). The unitary entries share
one per-point loop (_unitary_points), of which evolve_schrodinger is the
one-point case: it builds one Hamiltonian and runs every point on its own
engine and gates. For evolve_schrodinger_etas, the entry of resonance
sweeps, the stroboscopic points go in chunks whose lab-frame samples fit in
SAMPLE_STORE_BYTES. A single run and the Lindblad channel's solve are
batches of one. The period solve runs in the interaction frame of the
diagonal of H(t), the integrating-factor (Lawson) Runge-Kutta method
(Lawson, SIAM J. Numer. Anal. 4, 372 (1967)): the diagonal
D(t) = D_0 + sum_j sin(eta_j t + phi_j) D_j holds the bare
energies omega*n + Omega*k, which dominate H(t) in the dispersive regime, and
its integral theta(t) from the window start is exact in closed form
(ModulatedHamiltonian.diagonal_phase). The ODE integrates Y_I = e^{i theta} Y,
dY_I/dt = -i P (H(t) - D(t)) P^* Y_I with P = e^{i theta(t)}, so its steps
follow the slow dispersive dynamics rather than the bare phases, and every
sample goes back to the lab frame as Y = e^{-i theta} Y_I. The direct engines
stay in the lab frame: they are the slow paths the stroboscopic ones are
checked against. Every Hamiltonian piece is real
and equal to its transpose, exactly (ModulatedHamiltonian refuses any other),
so when every active drive term has one phase phi mod pi, H(t) is also
mirror-symmetric about the drive extremum c = ((pi/2 - phi) mod pi)/eta,
so U(c + s, c) = U(c, c - s)^T and half a period of integration, over
[c - T/2, c], gives U(T) and U(t) at every t in [0, T] (the time-reversal
symmetric Floquet construction; Haake, Quantum Signatures of Chaos, ch. 4).
Drives whose phases differ by anything other than a multiple of pi
integrate the full window [0, T]; the drive alone chooses, and
metadata["period_window"] records the window integrated.

The unitary engine reads Y at every fractional-period offset of the grid off
that solve's steps, projects U(T) to the nearest exact unitary, reports the
defect, gets psi(kT) for all sampled k at once from the complex Schur form
Z diag(lambda^k) Z^dag of U(T) (Floquet; Shirley 1965), with no march, and
an off-period sample as Y(tau) (R psi(kT)), with no U(tau) formed. The
dissipative engine marches a one-period channel that keeps the Hamiltonian
factor exact and, per sub-period slice, takes the dissipative factor as a
first-order Magnus step expanded to second order; one quadrature rule builds
both the jump and the anticommutator pieces, so the trace is kept exactly.
Each Liouville block below gets its slice count from step doubling, up to
MAX_CHANNEL_SLICES (_lindblad_channel): tol bounds the channel's error per
period, and metadata records channel_slices, channel_slice_error and the
march's global_error_estimate. A Lindblad channel maps Hermitian matrices to
Hermitian ones, so on each Liouville block it is a real matrix in a
Hermitian operator basis (Havel, J. Math. Phys. 44, 534 (2003)): the fixed
unitary T keeps every diagonal entry rho_ii and sends each transpose pair
(rho_ij, rho_ji) to (rho_ij + rho_ji)/sqrt(2) and i(rho_ij - rho_ji)/sqrt(2).
Each slice generator is built in these coordinates from half of its rows;
the slice products, the channel power and the march are real, and T^H takes
each sample back. Hermiticity is gated on the collapse rates, which must be
real, and on the Hamiltonian factor's step to real: the largest relative
imaginary residue is metadata["channel_hermiticity_defect"], and above
CHANNEL_HERMITICITY_TOL the run raises NumericError. The engine samples
whole periods only: a grid that snapped_span, the one period-alignment rule
of the package, would move is refused with ConfigError naming the aligned
grid, and lindblad_grid gives callers the grid to request.

Both stroboscopic engines work on parity sectors. Every Hamiltonian piece
conserves the parity (-1)^(n+k) (hilbert.parity_sectors), so U(t) is block
diagonal and the one period solve integrates the sector blocks side by side
in one ODE. The unitary engine integrates only the sectors psi0 occupies.
Cavity decay and qubit relaxation flip the parity and dephasing keeps it, so
vec(rho) splits into two invariant Liouville blocks, rho_pq with p = q and
with p != q (the weak symmetry of Buca & Prosen 2012); the dissipative
engine builds, powers and marches only the blocks rho0 occupies, and never
forms a d^2 x d^2 array. Observables read diag(rho), which lies in the
p = q block alone, so a run that stores no states propagates only that
block and leaves the coherences rho_pq with p != q at zero; its eigenvalue
floor then gates the block-diagonal part of rho, the part it propagated,
with one eigvalsh per parity block.
Before either engine integrates, the leak guard checks that every
Hamiltonian piece keeps each sector exactly and every collapse
operator keeps or flips it exactly, and raises DomainError otherwise: a
cross-sector entry would be dropped, not propagated. The check runs on the
sparse operators, because the polar projection of U(T) leaves cross-sector
entries near 1e-15. metadata["sectors"] holds the sizes of the blocks
integrated: parity sectors for the unitary engine, Liouville blocks for the
dissipative one, whose pairs (p, q) metadata["liouville_pairs"] names and
whose dense block products metadata["channel_matmuls"] counts. The returned
density matrices of that engine are Hermitian by construction, so its
hermiticity_defect_max is 0 without a measurement and the channel's residue
gate stands in for it; the direct engine Hermitizes its samples and records
the skew part it removed.
"""

from __future__ import annotations

import itertools
import math
import numbers
import warnings
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.integrate import DOP853, solve_ivp
from scipy.linalg import schur
from scipy.linalg.blas import zherk

from .errors import ConfigError, DomainError, NumericError, UnsupportedError
from .hilbert import (
    COLLECTIVE,
    SpaceSpec,
    StateVector,
    ladder_operators,
    observables,
    parity_flips,
    parity_sectors,
)
from .model import (
    DissipationRates,
    ModulatedHamiltonian,
    ModulationSchedule,
    SystemParams,
    active_drives,
    build_hamiltonian,
    common_eta,
)

NORM_DRIFT_TOL = 1e-7
TRACE_DRIFT_TOL = 1e-7
EIG_FLOOR_RUN = -1e-6
CUTOFF_POP_TOL = 1e-6
UNITARY_DEFECT_TOL = 1e-9
# the imaginary residue a Lindblad generator or channel may keep in a
# Liouville block's Hermitian basis, relative to its largest entry; rounding
# leaves a few 1e-16
CHANNEL_HERMITICITY_TOL = 1e-12
STROBE_MIN_PERIODS = 32
# the Lindblad channel's slice count doubles up to this cap (_lindblad_channel)
MAX_CHANNEL_SLICES = 32
DRIVE_STEPS_PER_PERIOD = 20
# a batched period solve keeps every sample of its points, in the lab frame,
# until their U(T) is known; a sweep gives each solve as many points as fit
# in this many bytes of samples, and at least one (_store_width)
SAMPLE_STORE_BYTES = 2_000_000


@dataclass
class Trajectory:
    """Sampled evolution: times, the joint distribution of every sample,
    optional raw states, run stats.

    joint[i, k, n] = P(k excited qubits, n photons) at times[i], shape
    (samples, N+1, n_max+1); the means and marginals are sums over it.
    """

    space: SpaceSpec
    times: np.ndarray
    joint: np.ndarray
    states: list | None
    metadata: dict = field(default_factory=dict)

    @property
    def n_ph(self) -> np.ndarray:
        return self.joint.sum(axis=1) @ np.arange(self.space.photon_dim, dtype=float)

    @property
    def n_at(self) -> np.ndarray:
        return self.joint.sum(axis=2) @ np.arange(self.space.n_qubits + 1, dtype=float)

    def p_ph(self, n: int) -> np.ndarray:
        if not 0 <= n <= self.space.n_max:
            raise DomainError(f"p_ph({n}) outside 0..{self.space.n_max}")
        return self.joint.sum(axis=1)[:, n]

    def p_at(self, k: int) -> np.ndarray:
        if not 0 <= k <= self.space.n_qubits:
            raise DomainError(f"p_at({k}) outside 0..{self.space.n_qubits}")
        return self.joint.sum(axis=2)[:, k]


@dataclass
class DensityMatrix:
    """Validated density operator on a SpaceSpec: Hermitian to 1e-12, unit
    trace to 1e-9, eigenvalues above -floor_tol; NaN fails every gate."""

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
        if not herm <= 1e-12:
            raise NumericError(f"density matrix hermiticity defect {herm:.2e} > 1e-12")
        tr = complex(np.trace(m))
        if not abs(tr - 1.0) <= 1e-9:
            raise NumericError(f"density matrix trace {tr:.12f} off unity by > 1e-9")
        w = np.linalg.eigvalsh(m)
        if not w[0] >= -self.floor_tol:
            raise NumericError(
                f"density matrix minimum eigenvalue {w[0]:.2e} below -{self.floor_tol:.0e}"
            )
        self.matrix = m

    @classmethod
    def from_state(cls, state: StateVector) -> "DensityMatrix":
        amp = state.amplitudes
        return cls(state.space, np.outer(amp, amp.conj()))


def _validate_tol(tol: float) -> None:
    if not 1e-12 <= tol <= 1e-6:
        raise ConfigError(f"tol={tol:g} outside [1e-12, 1e-6]")


def _sample_grid(t_span, sample_count: int) -> np.ndarray:
    t0, t1 = float(t_span[0]), float(t_span[1])
    if not -math.inf < t0 < t1 < math.inf:
        raise ConfigError(f"t_span ({t0}, {t1}) must be increasing and finite")
    if isinstance(sample_count, bool) or not isinstance(sample_count, numbers.Integral):
        raise ConfigError(f"sample_count={sample_count!r} must be an integer")
    if sample_count < 2:
        raise ConfigError("sample_count must be >= 2")
    return np.linspace(t0, t1, sample_count)


def snapped_span(eta: float, t_final: float, samples: int):
    """Uniform grid whose spacing is an integer number of drive periods.

    The one period-alignment rule: the stride is the requested spacing
    rounded to whole periods, and the count the one that lands nearest
    t_final. Returns ((0, t_end), count). t_final must be positive and
    samples at least 2 (ConfigError), as for any run's grid.
    """
    _sample_grid((0.0, t_final), samples)
    period = 2.0 * math.pi / eta
    stride = max(1, int(round(t_final / (samples - 1) / period)))
    dt = stride * period
    count = max(2, int(round(t_final / dt)) + 1)
    return (0.0, dt * (count - 1)), count


def _max_step(schedules) -> float:
    etas = [s.eta for s in active_drives(schedules)]
    return (2.0 * math.pi / max(etas)) / DRIVE_STEPS_PER_PERIOD if etas else np.inf


def _joints(space: SpaceSpec, samples) -> np.ndarray:
    """The (samples, N+1, n_max+1) joint distributions of a run's states or
    density matrices, one observables call per sample."""
    joint = np.empty((len(samples), space.n_qubits + 1, space.photon_dim))
    for i, sample in enumerate(samples):
        joint[i] = observables(sample, space)
    return joint


def _cutoff_check(space: SpaceSpec, joint: np.ndarray, metadata: dict,
                  stacklevel: int = 3) -> None:
    """Record the largest population at n_max, and warn above CUTOFF_POP_TOL.
    A warnings filter on the message makes the warning fatal or silent."""
    top = float(np.max(joint[:, :, space.n_max].sum(axis=1)))
    metadata["cutoff_max_population"] = top
    if top > CUTOFF_POP_TOL:
        warnings.warn(
            f"population {top:.2e} at the Fock cutoff n_max={space.n_max} "
            f"exceeds {CUTOFF_POP_TOL:g}; the truncation is biting",
            stacklevel=stacklevel,
        )


# ---------------------------------------------------------------------------
# ODE integration
# ---------------------------------------------------------------------------

class _SampledDOP853(DOP853):
    """DOP853 that hands each accepted step to `sampler`, which reads the
    step's dense output and its error estimate (`estimate`)."""

    def __init__(self, fun, t0, y0, t_bound, sampler, **options):
        super().__init__(fun, t0, y0, t_bound, **options)
        self._sampler = sampler
        self.estimate = None

    def _estimate_error_norm(self, K, h, scale):
        # DOP853's own norm, keeping (h, err5, err3), the unscaled 5th- and
        # 3rd-order estimates of the attempt; a step's last attempt is the
        # one it accepts, so the sampler reads the accepted step's
        err5, err3 = np.dot(K.T, self.E5), np.dot(K.T, self.E3)
        self.estimate = (h, err5, err3)
        n5 = np.linalg.norm(err5 / scale) ** 2
        n3 = np.linalg.norm(err3 / scale) ** 2
        if n5 == 0.0 and n3 == 0.0:
            return 0.0
        return abs(h) * n5 / np.sqrt((n5 + 0.01 * n3) * len(scale))

    def step(self):
        message = super().step()
        if self.status != "failed":
            self._sampler(self)
        if self.status != "running":
            # the solver and its rhs wrapper form a reference cycle: break it,
            # so that the solver's arrays go when solve_ivp returns rather
            # than at some later garbage collection
            self._sampler = self.fun = self.fun_vectorized = None
        return message


def _integrate(ham: ModulatedHamiltonian, rhs, y0, t_span, grids, rtol: float, failure: str):
    """The one ODE call: dY/dt = rhs(t, Y) from y0 by DOP853, sampled off its
    accepted steps (_StepSampler).

    rhs maps the flat state to its flat derivative. y0 is (n, width, cols),
    one (n, cols) block per point side by side, a single run's a batch of
    one; grids[j] holds point j's sample times, ascending, in t_span. atol is
    rtol * 1e-3 and the step is capped by the fastest drive; failure is the
    NumericError text, with {} standing for the solver's message. Returns the
    sampler's stores and errors, and the rhs count.
    """
    sampler = _StepSampler(grids, np.shape(y0))
    sol = solve_ivp(
        rhs,
        t_span,
        np.asarray(y0, dtype=complex).ravel(),
        t_eval=(),
        method=_SampledDOP853,
        sampler=sampler,
        rtol=rtol,
        atol=rtol * 1e-3,
        max_step=_max_step([s for s, _ in ham.terms]),
    )
    if not sol.success:
        raise NumericError(failure.format(sol.message))
    return sampler.stores, sampler.errors, int(sol.nfev)


class _StepSampler:
    """Reads the samples of an ODE solve off each accepted step.

    The state is (n, width, cols), one (n, cols) block per point, and
    grids[j] holds point j's sample times, ascending. A step evaluates its
    interpolant once, at every sample it holds of any point, and each point
    keeps its own block of its own times. stores[j] receives point j's blocks
    in the order of grids[j]; one array per point keeps every allocation the
    size of one point's samples.

    errors[j][i] is the sum, over the steps up to the one that holds sample
    i, of DOP853's error estimate on point j's block: its own norm,
    |h| |e5|^2 / sqrt(|e5|^2 + 0.01 |e3|^2), with the 2-norms taken over
    that block alone and unweighted. It is read per block because the step
    controller's RMS norm lets one point's error exceed the batch's
    tolerance by up to sqrt(width).
    """

    def __init__(self, grids, shape):
        self.grids, self.shape = grids, shape
        self.stores = [np.empty((len(g), shape[0], shape[2]), dtype=complex) for g in grids]
        self.errors = [np.empty(len(g)) for g in grids]
        self.done = [0] * len(grids)
        self.error = [0.0] * shape[1]
        self.next = min(g[0] for g in grids)  # the first time not yet sampled

    def __call__(self, solver):
        h, err5, err3 = solver.estimate
        n, width, _ = self.shape
        # each point's squared 2-norms of the two estimates; a lone point's
        # block is the whole state
        if width == 1:
            e5, e3 = [np.vdot(err5, err5).real], [np.vdot(err3, err3).real]
        else:
            e5, e3 = (np.einsum("iwj,iwj->w", v, v).tolist() for v in
                      (e.view(float).reshape(n, width, -1) for e in (err5, err3)))
        for j, (a, b) in enumerate(zip(e5, e3)):
            if a:  # a zero e5 adds nothing, and may come with a zero denominator
                self.error[j] += abs(h) * (a / math.sqrt(a + 0.01 * b))
        if solver.t < self.next:
            return
        stops = [int(np.searchsorted(g, solver.t, side="right")) for g in self.grids]
        new = [(j, lo, hi) for j, (lo, hi) in enumerate(zip(self.done, stops)) if hi > lo]
        times = np.concatenate([self.grids[j][lo:hi] for j, lo, hi in new])
        values = solver.dense_output()(times).T.reshape(len(times), *self.shape)
        first = 0
        for j, lo, hi in new:
            self.stores[j][lo:hi] = values[first:first + hi - lo, :, j]
            self.errors[j][lo:hi] = self.error[j]
            first += hi - lo
        self.done = stops
        self.next = min((g[k] for g, k in zip(self.grids, stops) if k < len(g)), default=math.inf)


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
    (states,), (errors,), metadata["rhs_evals"] = _integrate(
        ham, lambda t, y: -1j * ham.apply(t, y), psi0[:, None, None],
        (float(t_grid[0]), float(t_grid[-1])), [t_grid], tol,
        "integration failed: {}; try a tighter tol")
    metadata["engine"] = "adaptive-rk"
    metadata["global_error_estimate"] = float(errors[-1])
    return states.reshape(len(t_grid), -1)


def _period_split(t_grid, period):
    """t = k T + offsets[index] (index -1 where t = k T): k, index, offsets.

    A t within 64 ulps of t_grid[-1] of a multiple of T is period-aligned, and
    offsets closer than that are merged: the grid cannot tell them apart.
    """
    snap = 64.0 * np.spacing(float(t_grid[-1]))
    ks = np.floor(t_grid / period)
    taus = t_grid - ks * period
    aligned = (taus < snap) | (taus > period - snap)
    ks = np.where(aligned, np.round(t_grid / period), ks).astype(int)
    ticks, index = np.unique(np.round(taus[~aligned] / snap), return_inverse=True)
    offset_index = np.full(len(t_grid), -1)
    offset_index[~aligned] = index
    return ks, offset_index, ticks * snap


def _parity_blocks(ham: ModulatedHamiltonian, collapse=()):
    """The leak guard: the parity sectors of ham.space and, per collapse
    operator, whether it flips the parity.

    Every Hamiltonian piece must keep each sector exactly and every collapse
    operator must keep or flip it exactly; anything else raises DomainError,
    since the sector engines would silently drop the cross-sector part.
    """
    for h in ham.pieces:
        if parity_flips(h, ham.space):
            raise DomainError("a Hamiltonian piece flips the parity (-1)^(n+k)")
    return parity_sectors(ham.space), [parity_flips(op, ham.space) for _, op in collapse]


def _symmetric_window(ham, period: float):
    """The half window (c - T/2, c) of a time-symmetric drive, or None.

    Every piece equals its transpose (ModulatedHamiltonian enforces it), so
    H(t) = H(t)^T; when every active drive term has one phase phi mod pi,
    H(c + s) = H(c - s) about the drive extremum c = ((pi/2 - phi) mod pi) / eta
    in [0, T/2]. Phases count as equal within 1e-13 rad, where phi + pi - phi
    rounds; the Hamiltonian error that admits is far below the solve's tolerance.
    """
    active = active_drives(s for s, _ in ham.terms)
    phi = active[0].phi
    if any(abs(math.remainder(s.phi - phi, math.pi)) > 1e-13 for s in active):
        return None
    c = ((math.pi / 2.0 - phi) % math.pi) / ham.common_eta
    return c - period / 2.0, c


def _window_reads(taus: np.ndarray, window):
    """Where a solve over `window` reads U(tau) for each normalized time tau
    in [0, 2 pi]: (times, index, conj, tail).

    times are the window times to sample, ascending; index[k] is tau_k's
    time, and index[-2], index[-1] are those of Y(0) and of Y(c), c the
    window end. U(tau_k) = conj(Y) R when conj[k], else Y R, with Y the
    sample at index[k] and R the tail M^T M Y(0)^dag where tail[k], else the
    head Y(0)^dag (_sector_propagators). The full window reads every tau
    where it is, with the head alone.
    """
    start, c = window
    taus = np.clip(taus, 0.0, 2.0 * math.pi)
    mirrored = taus > c
    wrapped = taus > c + math.pi
    mapped = np.where(wrapped, taus - 2.0 * math.pi, np.where(mirrored, 2.0 * c - taus, taus))
    times, index = np.unique(np.concatenate([np.clip(mapped, start, c), [0.0, c]]),
                             return_inverse=True)
    return times, index, mirrored & ~wrapped, mirrored


@dataclass
class _PeriodSamples:
    """One point's share of a batched period solve (_sector_propagators).

    store[rows[k]] is the point's lab-frame Y at the window time tau_k maps
    to, one (n, cols) block, in which sector p holds rows spans[p] and the
    first as many columns. U(tau_k) on sector p is F_k(Y) R_k
    (_window_reads), with R_k = tails[p] where tail[k], else heads[p].
    `apply` is the one reader of U(tau_k); U itself is apply(p, k, I).
    metadata holds the point's period_window (t units), the solve's
    rhs_evals and its batch_points, and the point's period_error_estimate.
    """

    store: np.ndarray
    rows: np.ndarray
    conj: np.ndarray
    tail: np.ndarray
    spans: list
    heads: list
    tails: list
    metadata: dict

    def _block(self, p: int, rows):
        span = self.spans[p]
        return self.store[rows, span, :span.stop - span.start]

    def apply(self, p: int, k: int, v: np.ndarray) -> np.ndarray:
        """U(tau_k) @ v on sector p, with no U formed: Y (R v)."""
        rv = (self.tails[p] if self.tail[k] else self.heads[p]) @ v
        y = self._block(p, self.rows[k])
        return (y @ rv.conj()).conj() if self.conj[k] else y @ rv


def _sector_propagators(ham, etas, sectors, tol: float, taus) -> list[_PeriodSamples]:
    """The one period solve: U on each parity sector for every drive frequency
    of `etas` at once, from one DOP853 solve at a tenth of the run's tol
    (floored at 1e-13). Returns one _PeriodSamples per eta.

    One step controller serves the batch: DOP853 accepts a step when the RMS
    norm of its error estimate over the whole state, every point's block and
    its zero columns, is within that tolerance. So a point's own error can
    exceed what a solve of that point alone would accept, by up to
    sqrt(len(etas)), and its result depends, within that, on which points
    share its solve (the grid and SAMPLE_STORE_BYTES set those).

    Each point's period_error_estimate is therefore read from its own block:
    e(s), the sum of DOP853's error estimates on that block over the steps
    up to s (_StepSampler), propagates unitarily, so Y(s) is off by about
    e(s). U(2 pi) = Y0 M^T M Y0^dag below then carries 2 (e(0) + e(c)) on
    the half window, and M = Y(2 pi) alone, e(2 pi), on the full one. The
    estimates are those of DOP853's embedded lower-order solutions, so
    the estimate sits above the error of the 8th-order solution it steps.

    ham has every drive at eta 1 (ModulatedHamiltonian.at_eta): in the
    normalized time s = eta t every point has the same H(s) and the period
    2 pi, and point j integrates dY_j/ds = -(i/eta_j) H(s) Y_j. taus[j] holds
    the normalized times in [0, 2 pi] at which point j reads U.

    H(s) keeps every sector, so their blocks integrate side by side: a
    point's rows are the sectors' rows one after another, and its column m
    starts as the m-th basis vector of every sector at once (zero past a
    sector's size). The points' blocks sit side by side in one (n, width,
    cols) state, and every rhs makes one sparse product for all of them.

    The solve runs in the interaction frame of the diagonal D(s) of H(s), an
    integrating-factor (Lawson 1967) step: with Theta(s) the exact integral
    of D from the window start s0 and theta_j = Theta / eta_j, it integrates
    Y_I(s) = e^{i theta_j(s)} Y(s),
        dY_I/ds = -(i/eta_j) P_j (H(s) - D(s)) P_j^* Y_I,   P_j = e^{i theta_j},
    one off-diagonal product of ModulatedHamiltonian's merged pattern between
    two row scalings. Y_I(s0) = Y(s0), and every sample goes back to the lab
    frame, Y = e^{-i theta_j} Y_I, once the solve has read it (_StepSampler).

    For a time-symmetric drive (_symmetric_window) the solve covers only the
    half window [c - pi, c], for Y(s) = U(s, c - pi). With Y0 = Y(0),
    M = Y(c) and U(c + r, c) = U(c, c - r)^T,
        U(s) = Y(s) Y0^dag                   for s <= c,
        U(s) = conj(Y(2c - s)) M^T M Y0^dag  for c < s <= c + pi,
        U(s) = Y(s - 2 pi) M^T M Y0^dag      for s > c + pi,
    so U(2 pi) = Y0 M^T M Y0^dag. Other drives integrate the full window
    [0, 2 pi], where Y0 = I.
    """
    sizes = [len(s) for s in sectors]
    starts = np.cumsum([0, *sizes])
    n, cols, width = int(starts[-1]), max(sizes), len(etas)
    inv_eta = 1.0 / np.asarray(etas, dtype=float)
    half = _symmetric_window(ham, 2.0 * math.pi)
    window = half or (0.0, 2.0 * math.pi)
    reads = [_window_reads(np.asarray(t, dtype=float), window) for t in taus]
    sub = ham.restrict(np.concatenate(sectors))
    y0 = np.zeros((n, width, cols), dtype=complex)
    for lo, b in zip(starts, sizes):
        y0[lo + np.arange(b), :, np.arange(b)] = 1.0
    rtol = max(tol / 10.0, 1e-13)
    rate, scale = 1j * inv_eta, -1j * inv_eta

    def frame_rhs(s, y):
        # dY_I/ds = -(i/eta_j) P_j (H - D) P_j^* Y_I with P_j = e^{i Theta(s)/eta_j}
        p = np.exp(np.multiply.outer(sub.diagonal_phase(s, window[0]), rate))
        out = sub.apply_off_diagonal(s, y.reshape(n, width, cols) * p.conj()[:, :, None])
        out *= (p * scale)[:, :, None]
        return out.ravel()

    stores, errors, rhs_evals = _integrate(sub, frame_rhs, y0, window, [r[0] for r in reads],
                                           rtol, "propagator integration failed: {}")
    spans = [slice(lo, lo + b) for lo, b in zip(starts, sizes)]
    out = []
    for eta, store, error, (times, index, conj, tail) in zip(etas, stores, errors, reads):
        # back to the lab frame, Y = e^{-i theta/eta} Y_I
        store *= np.exp(-1j / eta * sub.diagonal_phase(times, window[0]))[:, :, None]
        # the head Y0^dag and, where a tau reads past c, the tail M^T M Y0^dag
        heads = [store[index[-2], sp, :sp.stop - sp.start].conj().T for sp in spans]
        ms = [store[index[-1], sp, :sp.stop - sp.start] for sp in spans] if tail.any() else []
        e0, ec = float(error[index[-2]]), float(error[index[-1]])
        out.append(_PeriodSamples(store, index[:-2], conj, tail, spans, heads,
                                  [m.T @ m @ h for m, h in zip(ms, heads)], {
                                      "period_window": (window[0] / eta, window[1] / eta),
                                      "rhs_evals": rhs_evals,
                                      "batch_points": width,
                                      "period_error_estimate": 2.0 * (e0 + ec) if half else ec,
                                  }))
    return out


def _period_propagators(ham, sectors, tol: float, t_eval, metadata) -> list[np.ndarray]:
    """U(t) on each parity sector at the times t_eval in [0, T] of ham's common
    drive, one (len(t_eval), b, b) array per sector: _sector_propagators for
    a batch of one. Records period_window, rhs_evals, batch_points and
    period_error_estimate."""
    eta = ham.common_eta
    samples, = _sector_propagators(ham.at_eta(1.0), (eta,), sectors, tol,
                                   [np.asarray(t_eval, dtype=float) * eta])
    metadata.update(samples.metadata)
    return [np.stack([samples.apply(p, k, eye) for k in range(len(samples.rows))])
            for p, eye in enumerate(np.eye(len(s)) for s in sectors)]


def _projected_period(u_period: np.ndarray, tol: float) -> tuple[np.ndarray, float]:
    """U(T) polar-projected to the nearest unitary, gated on its defect."""
    u_t, defect = _polar_project(u_period)
    gate = max(UNITARY_DEFECT_TOL, tol)
    if defect > gate:
        raise NumericError(
            f"one-period propagator unitarity defect {defect:.2e} > {gate:g}; tighten tol"
        )
    return u_t, defect


def _floquet_states(samples: _PeriodSamples, sectors, psi0, split, tol):
    """One point's samples from its share of the period solve, and its
    metadata.

    Per sector, U(T) is projected to the nearest unitary; with its complex
    Schur form Z diag(lambda) Z^dag, psi(kT) = Z (lambda^k * Z^dag psi0) for
    every sampled k at once, and an off-period sample is
    psi(kT + tau) = F(Y) (R psi(kT)) (_PeriodSamples.apply), with no U(tau)
    formed. Such a sample carries k periods' errors and U(tau)'s, which is
    no more than one period's, so global_error_estimate is the periods the
    last sample has begun times period_error_estimate.
    """
    ks, offset_index, offsets = split
    states = np.zeros((len(ks), len(psi0)), dtype=complex)
    defects = []
    shifted = np.flatnonzero(offset_index >= 0)
    for p, s in enumerate(sectors):
        # U(T) is the last tau the point reads
        u_t, defect = _projected_period(samples.apply(p, -1, np.eye(len(s))), tol)
        schur_t, z = schur(u_t, output="complex")
        defects.append(defect)
        # lambda is left unnormalized, so the norm-drift gate sees its error
        phases = np.exp(np.outer(ks, np.log(np.diag(schur_t))))
        part = (phases * (z.conj().T @ psi0[s])) @ z.T
        for r in shifted:
            part[r] = samples.apply(p, offset_index[r], part[r])
        states[:, s] = part
    begun = int(np.max(ks + (offset_index >= 0)))
    return states, {**samples.metadata, "engine": "floquet-stroboscopic",
                    "sectors": [len(s) for s in sectors], "propagator_defect": max(defects),
                    "periods": int(ks.max()), "offsets": len(offsets),
                    "global_error_estimate": begun * samples.metadata["period_error_estimate"]}


def _store_width(reads: int, n: int, cols: int) -> int:
    """Points per batched period solve: as many whose `reads` (n, cols)
    samples fit in SAMPLE_STORE_BYTES, and at least one."""
    return max(1, SAMPLE_STORE_BYTES // (reads * n * cols * 16))


def _floquet_chunk(ham, etas, sectors, psi0, splits, tol):
    """(states, metadata) of each point of one batched period solve; its
    sample store is freed on return."""
    taus = [np.append(offsets * eta, 2.0 * math.pi) for eta, (_, _, offsets) in zip(etas, splits)]
    return [_floquet_states(samples, sectors, psi0, split, tol)
            for samples, split in zip(_sector_propagators(ham, etas, sectors, tol, taus), splits)]


def _evolve_floquet(ham, etas, psi0, t_grid, tol):
    """Stroboscopic propagation at each drive frequency of `etas`: an
    iterator over (states, metadata) per point, in order.

    ham has every drive at eta 1. Only the parity sectors psi0 occupies are
    integrated; they are chosen, and the parity leak guard runs, on the call.
    The points share period solves in chunks, as many per solve as
    _store_width allows for the samples each one reads: the distinct
    fractional offsets of its grid, U(T), Y(0) and Y(c). A chunk is solved
    when its first point is reached.
    """
    sectors = [s for s in _parity_blocks(ham)[0] if np.any(psi0[s])]
    splits = [_period_split(t_grid, 2.0 * math.pi / eta) for eta in etas]
    reads = max((len(offsets) + 3 for _, _, offsets in splits), default=1)
    width = _store_width(reads, sum(len(s) for s in sectors), max(len(s) for s in sectors))
    return itertools.chain.from_iterable(
        _floquet_chunk(ham, etas[lo:lo + width], sectors, psi0, splits[lo:lo + width], tol)
        for lo in range(0, len(etas), width))


def _select_engine(method: str, schedules, t_grid: np.ndarray) -> str:
    """The one method validator and engine dispatcher of the package: the
    engine of a run of `schedules` sampled at t_grid, "static",
    "stroboscopic" or "direct"; see the module docstring for the auto rule.

    It reads the schedules alone (model.active_drives), so lindblad_grid asks
    it before any Hamiltonian is built.
    """
    if method not in ("auto", "direct", "stroboscopic"):
        raise ConfigError(f"unknown method {method!r}")
    eta = common_eta(schedules) if t_grid[0] == 0.0 else None
    if method == "stroboscopic" and eta is None:
        raise ConfigError(
            "stroboscopic engine needs a common drive frequency and t_span starting at 0"
        )
    if method != "auto":
        return method
    if not active_drives(schedules):
        return "static"
    periods = t_grid[-1] / (2.0 * math.pi / eta) if eta else 0.0
    return "stroboscopic" if periods >= STROBE_MIN_PERIODS else "direct"


def _unitary_points(space, params, schedules, psi0, etas, t_span, sample_count, tol, method,
                    store_states):
    """The one per-point loop of the unitary entries: an iterator over a
    Trajectory per point, in order. etas=None is one point, the schedules as
    given; otherwise point j drives every schedule at etas[j].

    The arguments and every point's engine (_select_engine) are checked on the
    call, before the one Hamiltonian is built, and the parity leak guard when
    a point runs stroboscopic. Static points propagate h_const, which no eta
    changes, direct points the Hamiltonian at their eta, and stroboscopic
    points share batched period solves (_evolve_floquet). Every point has its
    own norm-drift gate and cutoff check.
    """
    _validate_tol(tol)
    if psi0.space != space:
        raise DomainError("initial state lives on a different space")
    t_grid = _sample_grid(t_span, sample_count)
    single = etas is None
    etas = [None] if single else [float(eta) for eta in etas]
    points = [tuple(schedules) if eta is None else tuple(replace(s, eta=eta) for s in schedules)
              for eta in etas]
    engines = [_select_engine(method, point, t_grid) for point in points]
    ham = build_hamiltonian(space, params, schedules)
    psi0_arr = psi0.amplitudes
    strobe = [common_eta(point) for point, engine in zip(points, engines)
              if engine == "stroboscopic"]
    floquet = _evolve_floquet(ham.at_eta(1.0), strobe, psi0_arr, t_grid, tol) if strobe else None

    def trajectories():
        for eta, engine in zip(etas, engines):
            metadata: dict = {"tol": tol}
            if engine == "static":
                states = _evolve_static(ham, psi0_arr, t_grid, metadata)
            elif engine == "stroboscopic":
                states, work = next(floquet)
                metadata.update(work)
            else:
                states = _evolve_direct(ham if eta is None else ham.at_eta(eta), psi0_arr,
                                        t_grid, tol, metadata)
            drift = float(np.max(np.abs(np.linalg.norm(states, axis=1) - 1.0)))
            metadata["norm_drift_max"] = drift
            if drift > NORM_DRIFT_TOL:
                raise NumericError(
                    f"norm drift {drift:.2e} exceeds {NORM_DRIFT_TOL:g}; tighten tol "
                    f"(currently {tol:g})"
                )
            joint = _joints(space, states)
            # the warning names evolve_schrodinger's caller, or the one consuming the points
            _cutoff_check(space, joint, metadata, stacklevel=4 if single else 3)
            kept = ([StateVector(space, s / np.linalg.norm(s)) for s in states]
                    if store_states else None)
            yield Trajectory(space, t_grid, joint, kept, metadata)

    return trajectories()


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
) -> Trajectory:
    """Integrate the Schrodinger equation and sample observables uniformly.

    method: auto (dispatch on structure), direct (adaptive RK only), or
    stroboscopic (force the periodic engine). Norm drift is measured, never
    silently repaired; drift beyond 1e-7 fails the run. tol bounds the
    local error, per step and so per period; a run that solves an ODE records
    in metadata["global_error_estimate"] what its horizon makes of that: a
    direct run the sum of its steps' error estimates, a stroboscopic one its
    periods times a per-period estimate. The one-point case of
    _unitary_points.
    """
    traj, = _unitary_points(space, params, schedules, psi0, None, t_span, sample_count, tol,
                            method, store_states)
    return traj


def evolve_schrodinger_etas(
    space: SpaceSpec,
    params: SystemParams,
    schedules: tuple[ModulationSchedule, ...],
    psi0: StateVector,
    etas,
    t_span,
    sample_count: int,
    tol: float = 1e-9,
    method: str = "auto",
):
    """evolve_schrodinger with every schedule driven at each eta of `etas` in
    turn, storing no states: an iterator over a Trajectory per point, in
    order, whatever engine each point runs (_unitary_points).

    A static or direct point is the run its own evolve_schrodinger call
    makes. In the normalized time s = eta t every point has the same H(s),
    so the stroboscopic points share batched period solves
    (_sector_propagators), as many per solve as fit in SAMPLE_STORE_BYTES of
    samples. A solve runs when its first point is reached, so a caller that
    consumes the points one by one holds one solve's samples and one point's
    joint at a time. A stroboscopic point's rhs_evals are those of the
    solve it shared, whose width batch_points records. That solve steps at a
    tenth of tol for the batch as a whole, so a point's error per step may
    exceed what its own evolve_schrodinger run accepts by up to
    sqrt(batch_points); each point's global_error_estimate is read off its
    own block of the solve, so it states that point's error, not the batch's.
    """
    return _unitary_points(space, params, schedules, psi0, etas, t_span, sample_count, tol,
                           method, False)


# ---------------------------------------------------------------------------
# dissipators
# ---------------------------------------------------------------------------

def _collapse_operators(space: SpaceSpec, rates: DissipationRates):
    """(rate, sparse operator) pairs for kappa D[a], gamma_l D[sigma-_l],
    (gamma_phi_l/2) D[sigma_z_l]."""
    if rates.n_qubits not in (0, space.n_qubits):
        raise DomainError(
            f"per-qubit rates need one entry per qubit ({space.n_qubits}), "
            f"got {rates.n_qubits}"
        )
    a, _, lowering, level = ladder_operators(space)
    out = []
    if rates.kappa > 0:
        out.append((rates.kappa, a))
    per_qubit = any(g > 0 for g in rates.gamma) or any(g > 0 for g in rates.gamma_phi)
    if per_qubit and space.basis == COLLECTIVE:
        raise UnsupportedError(
            "per-qubit relaxation and dephasing need the distinguishable basis; "
            "the collective basis only supports cavity decay"
        )
    if space.basis != COLLECTIVE:
        for g, gp, s, half_z in zip(rates.gamma, rates.gamma_phi, lowering, level):
            if g > 0:
                out.append((g, s))
            if gp > 0:
                out.append((gp / 2.0, 2.0 * half_z))
    return out


# ---------------------------------------------------------------------------
# dissipative engines
# ---------------------------------------------------------------------------

def _lindblad_direct(ham, collapse, rho0, t_grid, tol, metadata):
    dim = rho0.shape[0]
    dense = [(r, op.toarray()) for r, op in collapse]
    mats = [(r, op, op.conj().T @ op) for r, op in dense]

    def rhs(t, y):
        rho = y.reshape(dim, dim)
        h = ham.apply(t, rho)
        out = -1j * (h - h.conj().T)
        for r, op, m in mats:
            out = out + r * (op @ rho @ op.conj().T - 0.5 * (m @ rho + rho @ m))
        return out.ravel()

    (raw,), (errors,), metadata["rhs_evals"] = _integrate(
        ham, rhs, rho0[:, None], (float(t_grid[0]), float(t_grid[-1])), [t_grid], tol,
        "master-equation integration failed: {}")
    metadata["engine"] = "lindblad-adaptive-rk"
    metadata["global_error_estimate"] = float(errors[-1])
    # the samples' Hermitian parts, gated downstream; the skew part is the defect
    rhos = (raw + raw.conj().transpose(0, 2, 1)) / 2.0
    metadata["hermiticity_defect_max"] = float(np.max(np.abs(raw - rhos)))
    return rhos


def _gauss_nodes(a: float, b: float, panels: int):
    """Composite 6-node Gauss-Legendre nodes and weights on [a, b]."""
    x, w = np.polynomial.legendre.leggauss(6)
    edges = np.linspace(a, b, panels + 1)[:, None]
    half, mid = (edges[1:] - edges[:-1]) / 2.0, (edges[:-1] + edges[1:]) / 2.0
    return (half * x + mid).ravel(), (half * w).ravel()


def _spectral_radius_bound(ham) -> float:
    h0, *drives = ham.pieces
    h = sum((abs(hx) for hx in drives), abs(h0))
    return float(h.sum(axis=1).max())


# The Liouville blocks of vec(rho), by the parity-block pairs (p, q) of
# rho_pq = rho[sector p, sector q] each holds: p = q, and p != q. H(t) maps
# rho_pq into itself, and a collapse operator that keeps (flips) the parity
# maps it into itself (into rho_{1-p,1-q}), so both blocks are invariant.
_LIOUVILLE_BLOCKS = (((0, 0), (1, 1)), ((0, 1), (1, 0)))

# T's action on one transpose pair (x_ij, x_ji) of a block's vec: it sends
# them to ((x_ij + x_ji), i (x_ij - x_ji)) / sqrt(2) and keeps x_ii, so the vec
# of a Hermitian rho becomes real (Havel, J. Math. Phys. 44, 534 (2003)).
_HERMITIAN_PAIR = math.sqrt(0.5) * np.array([[1.0, 1.0], [1.0j, -1.0j]])


def _pair_spans(pairs, sizes) -> dict:
    """Where each pair's row-major vec(rho_pq) sits in its block's vector."""
    ends = np.cumsum([sizes[p] * sizes[q] for p, q in pairs])
    return {(p, q): slice(int(e - sizes[p] * sizes[q]), int(e)) for (p, q), e in zip(pairs, ends)}


def _block_vec(rho: np.ndarray, sectors, pairs) -> np.ndarray:
    """The block's vector: the row-major vec(rho_pq) of its pairs, in order."""
    return np.concatenate([rho[np.ix_(sectors[p], sectors[q])].ravel() for p, q in pairs])


def _transpose_pairing(pairs, sizes):
    """The transpose pairs of a block's vector as index arrays lo < hi.

    The partner of entry (i, j) of pair (p, q) is entry (j, i) of pair (q, p);
    the diagonal entries rho_ii are their own partners and in neither array.
    Both blocks of _LIOUVILLE_BLOCKS are closed under this pairing.
    """
    spans = _pair_spans(pairs, sizes)
    partner = np.empty(spans[pairs[-1]].stop, dtype=np.intp)
    for p, q in pairs:
        own = np.arange(spans[p, q].start, spans[p, q].stop).reshape(sizes[p], sizes[q])
        partner[spans[q, p]] = own.T.ravel()
    lo = np.flatnonzero(partner > np.arange(len(partner)))
    return lo, partner[lo]


def _rotate_pairs(x: np.ndarray, pairing, w: np.ndarray) -> np.ndarray:
    """Apply the 2 x 2 matrix w to every transpose pair (x_lo, x_hi) of the
    rows of the complex array x, in place; entries in no pair stay. With
    w = _HERMITIAN_PAIR this is T @ x, with its conjugate transpose T^H @ x.
    It takes 64 pairs at a time, so its temporaries stay small.
    """
    for start in range(0, len(pairing[0]), 64):
        lo, hi = (index[start:start + 64] for index in pairing)
        a, b = x[lo], x[hi]
        x[lo] = w[0, 0] * a + w[0, 1] * b
        x[hi] = w[1, 0] * a + w[1, 1] * b
    return x


def _real_part(z: np.ndarray, metadata: dict) -> np.ndarray:
    """The real part of z, gated on its imaginary residue relative to its
    largest entry, rounding for a Hermiticity-preserving map in the Hermitian
    basis and for the rates of one: metadata keeps the largest residue as
    channel_hermiticity_defect, and above CHANNEL_HERMITICITY_TOL z was not
    what it claims to be. The reductions run over views, with no temporary
    the size of z."""
    imag = max(float(z.imag.max(initial=0.0)), -float(z.imag.min(initial=0.0)))
    scale = max(float(z.real.max(initial=0.0)), -float(z.real.min(initial=0.0)), imag)
    residue = imag / scale if scale else 0.0
    metadata["channel_hermiticity_defect"] = max(
        metadata.get("channel_hermiticity_defect", 0.0), residue)
    if residue > CHANNEL_HERMITICITY_TOL:
        raise NumericError(
            f"channel Hermiticity defect {residue:.2e} exceeds {CHANNEL_HERMITICITY_TOL:g}: "
            "the generator does not preserve Hermiticity"
        )
    return np.ascontiguousarray(z.real)


def _slice_step(r: np.ndarray, channel) -> np.ndarray:
    """(I + R + R^2/2) @ channel, or that factor alone when channel is None,
    for the real slice generator R = r; the product is written over r."""
    step = r @ r
    step *= 0.5
    step += r
    step[np.diag_indices_from(step)] += 1.0
    return step if channel is None else np.matmul(step, channel, out=r)


def _slice_generator(u_nd, wt, jumps, pairs, span, sizes, pairing) -> np.ndarray:
    """One slice's generator on the Liouville block of `pairs` (positions
    `span`) as the real R = T Omega T^H, built from half of Omega's rows.

    Omega is the quadrature with weights wt of the dissipator in the
    interaction picture of U(t), sector blocks u_nd at the nodes; jumps holds
    per parity flip f the stacked sqrt(rate) op[sector p, sector p ^ f]^T,
    rates >= 0. Real rates make Omega = P conj(Omega) P, P the transpose
    pairing, so its rows at the lo positions L and the self-paired D fix R
    (the symmetric Kronecker structure; Alizadeh, Haeberly & Overton, SIAM J.
    Optim. 8, 746 (1998)): with m = beta conj(Omega) on an L row, beta 1 on
    L columns, -i on their partners H and e^{-i pi/4} on D, R's row is
    Re m - Im m^P and its partner's Re m^P + Im m, ^P reading each column's
    partner (a k <-> l transpose of a 4-D view); a D row is the first over
    sqrt(2). Row i of rho_pq, p <= q (j >= i if p = q), is one gram product
    per flip, the anticommutator two rank-one terms of the f = 0 one.
    """
    n, nodes = span[pairs[-1]].stop, len(wt)
    beta = np.full(n, math.sqrt(0.5) * (1.0 - 1.0j))
    beta[pairing[0]], beta[pairing[1]] = 1.0, -1.0j
    # y[f][p][K, i, k]: block (p, p ^ f) of sqrt(w rate) U^dag op U, K = (node, op) + 2 in y[0]
    uh = [(np.conj(u) * np.sqrt(wt)[:, None, None]).transpose(1, 0, 2).reshape(len(u[0]), -1)
          for u in u_nd]
    ys = {0: [np.zeros((2, b, b), dtype=complex) for b in sizes]}
    scratch = np.empty(max((a.size for _, b in jumps for a in b), default=0) * nodes, dtype=complex)
    for f, blocks in jumps:
        ys[f] = []
        for p, at in enumerate(blocks):
            au = np.matmul(at, uh[p], out=scratch[:at.size * nodes].reshape(len(at), -1))
            au = au.reshape(-1, sizes[p ^ f], nodes, sizes[p]).transpose(2, 0, 3, 1)
            y = np.zeros((au.shape[1] * nodes + 2 * (f == 0), *au.shape[2:]), dtype=complex)
            np.matmul(au, u_nd[p ^ f][:, None], out=y[:au.shape[1] * nodes].reshape(au.shape))
            ys[f].append(y)
    # conj(M_c), M_c the sum of y^dag y over the blocks (c ^ f, c), from zherk's upper triangle;
    # -(M_p (x) 1 + 1 (x) M_q^T)/2 is then conj(-M_p/2) (x) I plus I (x) -conj(M_q)^T/2
    mc = [sum(zherk(1.0, y[c ^ f].reshape(-1, b).T) for f, y in ys.items())
          for c, b in enumerate(sizes)]
    for y, m in zip(ys[0], mc):
        m += np.triu(m, 1).conj().T
        y[-2], y[-1] = np.eye(len(m)), -0.5 * m.T
    extra = [np.stack([-0.5 * m, np.eye(len(m))], axis=1) for m in mc]
    out = np.empty((n, n))
    for p, q in (pair for pair in pairs if pair[0] <= pair[1]):
        # rows (i, j) of pair (p, q), and their partners (j, i), by column pair
        view = {(r, c): out[span[r], span[c]].reshape(*(sizes[x] for x in r + c))
                for r in ((p, q), (q, p)) for c in pairs}
        # g[a, b][k, j, l] = conj(Omega)[(i, j0 + j), (k, l) of pair (a, b)], in one buffer each
        bufs = {(a, b): np.zeros(sizes[a] * sizes[q] * sizes[b], dtype=complex) for a, b in pairs}
        for i in range(sizes[p]):
            j0, d = (i, 1) if p == q else (0, 0)
            g = {(a, b): buf[:sizes[a] * (sizes[q] - j0) * sizes[b]].reshape(sizes[a], -1, sizes[b])
                 for (a, b), buf in bufs.items()}
            for f, y in ys.items():
                left = np.conj(y[p][:, i, :])
                if f == 0:
                    left[-2:] = extra[p][i]
                np.matmul(left.T, y[q][:, j0:].reshape(len(left), -1),
                          out=g[p ^ f, q ^ f].reshape(sizes[p ^ f], -1))
            for (a, b), gab in g.items():
                gab *= beta[span[a, b]].reshape(sizes[a], 1, sizes[b])
            for a, b in pairs:
                m, mp = g[a, b].transpose(1, 0, 2), g[b, a].transpose(1, 2, 0)
                np.subtract(m.real, mp.imag, out=view[(p, q), (a, b)][i, j0:])
                np.add(mp.real[d:], m.imag[d:], out=view[(q, p), (a, b)][j0 + d:, i])
            if d:
                out[span[p, q].start + i * (sizes[q] + 1)] *= math.sqrt(0.5)
    return out


def _doubling_round(real, slices: int, previous):
    """One doubling round on one Liouville block: the product C_2s of the
    real slice generators' I + R + R^2/2 for j < slices (real(j) gives R_j),
    and the estimate max|C_2s - C_s|.

    The partner C_s is the previous round's factor, which the subtraction
    overwrites. Round 1 has none (previous is None): its partner is the
    one-slice factor of R_0 + R_1, and R_0 waits alone while R_1 is built.
    """
    if previous is None:
        r0, r = real(0), real(1)
        fine = _slice_step(r0, None)
        r0 += r
        fine = _slice_step(r, fine)
        previous = _slice_step(r0, None)
    else:
        fine = _slice_step(real(0), None)
        for j in range(1, slices):
            fine = _slice_step(real(j), fine)
    diff = np.subtract(fine, previous, out=previous)
    return fine, max(float(diff.max()), -float(diff.min()))


def _kron_apply_unitary(u: np.ndarray, v: np.ndarray, c: np.ndarray) -> None:
    """C <- (U (x) conj(V)) @ C in place, without materializing the
    Kronecker product."""
    b = v.shape[0]
    t = (u @ c.reshape(u.shape[0], -1)).reshape(u.shape[0], b, -1)
    vc = v.conj()
    for a, rows in enumerate(t):
        c[a * b:(a + 1) * b] = vc @ rows


def _lindblad_channel(ham, collapse, rho0, tol, metadata, coherences: bool):
    """The one-period channel on each Liouville block that rho0 occupies,
    the parity-diagonal one only unless `coherences` asks for rho_pq with
    p != q as well, as a real matrix in the block's Hermitian basis.

    Per slice of the period, the dissipative factor is the first-order
    Magnus step exp(Omega) of the interaction picture of the exact
    Hamiltonian propagator, expanded to I + Omega + Omega^2/2. Omega is
    integrated on one composite 6-node Gauss grid per run: the fewest panels,
    in a multiple of MAX_CHANNEL_SLICES, none wider than 1.3 over the
    spectral radius bound of H, so every slice of every round is a run of
    whole panels, and one period solve gives U(t) at all of its nodes. The
    slice count comes from step doubling (Hairer, Norsett & Wanner, Solving
    ODEs I, sec. II.4), block by block: for 2, 4, 8, ... slices, the first
    round whose factor C_2s is within tol of its embedded partner C_s, the
    previous round's factor (round 1's is the one-slice factor of R_0 + R_1),
    keeps C_2s (_doubling_round). The error falls as 1/slices^2, so C_2s
    carries about a quarter of the estimate. At MAX_CHANNEL_SLICES the
    doubling stops and keeps that channel, warning once if the estimate is
    above tol. tol so bounds the channel's error per period.

    Every factor is built block by block from the parity-sector blocks of
    U(t) and of the jump operators, so no d^2 x d^2 array is formed. Each
    slice generator is built real from half of Omega's rows
    (_slice_generator), gated on the rates' imaginary parts (_real_part). The
    Hamiltonian factor U (x) conj(U) acts on T^H C, and T takes the result
    back to real, gated on its imaginary residue. metadata records
    channel_slices and channel_slice_error, the largest over the blocks, the
    grid's channel_nodes, the one solve's rhs_evals, and in channel_matmuls
    the dense block products of every round: 2s - 1 for s slices, and one
    more for round 1's partner. Returns the parity sectors, the propagated
    blocks (as pair tuples of _LIOUVILLE_BLOCKS, also in
    metadata["liouville_pairs"]), their transpose pairings and one real
    channel matrix per block.
    """
    period = 2.0 * math.pi / ham.common_eta
    sectors, flips = _parity_blocks(ham, collapse)
    sizes = [len(s) for s in sectors]
    blocks = [pairs for pairs in _LIOUVILLE_BLOCKS
              if (coherences or all(p == q for p, q in pairs))
              and any(np.any(rho0[np.ix_(sectors[p], sectors[q])]) for p, q in pairs)]
    metadata["liouville_pairs"] = tuple(pair for pairs in blocks for pair in pairs)
    spans = [_pair_spans(pairs, sizes) for pairs in blocks]
    pairings = [_transpose_pairing(pairs, sizes) for pairs in blocks]
    rates = _real_part(np.array([r for r, _ in collapse], dtype=complex), metadata)
    # per parity flip f, the blocks sqrt(rate) op[sector p, sector p ^ f]^T of its operators
    jumps = [(f, [np.concatenate([math.sqrt(r) * op[sectors[p]][:, sectors[p ^ f]].T.toarray()
                                  for r, (_, op), g in zip(rates, collapse, flips) if g == f])
                  for p in (0, 1)]) for f in set(flips)]
    # one grid for every round: each slice of 2 .. MAX_CHANNEL_SLICES slices is
    # a run of whole panels, none wider than 1.3 over the spectral radius bound
    panels = MAX_CHANNEL_SLICES * max(1, math.ceil(
        period * _spectral_radius_bound(ham) / 1.3 / MAX_CHANNEL_SLICES))
    nodes, weights = _gauss_nodes(0.0, period, panels)
    t_eval = np.unique(np.append(nodes, period))
    u_at = _period_propagators(ham, sectors, tol, t_eval, metadata)
    node_index = np.searchsorted(t_eval, nodes)

    # each block doubles on its own, so a block's channel does not depend on
    # which other blocks the run propagates
    channels, slices, error, matmuls = [], 2, 0.0, 0
    for pairs, span, pairing in zip(blocks, spans, pairings):
        channel, block_slices = None, 1
        while True:
            block_slices *= 2
            at = node_index.reshape(block_slices, -1)
            wts = weights.reshape(block_slices, -1)

            def real(j, at=at, wts=wts, pairs=pairs, span=span, pairing=pairing):
                return _slice_generator([u[at[j]] for u in u_at], wts[j], jumps, pairs, span,
                                        sizes, pairing)

            # a squaring per slice and a product per slice but the first;
            # round 1's one-slice partner adds a squaring
            matmuls += 2 * block_slices - 1 + (channel is None)
            channel, block_error = _doubling_round(real, block_slices, channel)
            if block_error <= tol or block_slices == MAX_CHANNEL_SLICES:
                break
        channels.append(channel)
        slices, error = max(slices, block_slices), max(error, block_error)
    metadata["channel_nodes"] = len(nodes)
    metadata["channel_slices"] = slices
    metadata["channel_slice_error"] = error
    metadata["channel_matmuls"] = matmuls
    if error > tol:
        warnings.warn(
            f"Lindblad channel slice error estimate {error:.2e} exceeds tol={tol:g} at the "
            f"cap of {MAX_CHANNEL_SLICES} slices; method='direct' integrates the master "
            "equation without slices",
            stacklevel=4,
        )
    u_period, defects = zip(*(_projected_period(u[-1], tol) for u in u_at))
    metadata["propagator_defect"] = max(defects)

    # the trace is the sum of the diagonal entries rho_ii, which T keeps
    tp_defect = 0.0
    for i, (pairs, s, pairing) in enumerate(zip(blocks, spans, pairings)):
        # the real factor goes before the complex channel is worked on
        ch, channels[i] = channels[i].astype(complex), None
        ch = _rotate_pairs(ch, pairing, _HERMITIAN_PAIR.conj().T)
        trace = np.zeros(len(ch))
        for p, q in pairs:
            _kron_apply_unitary(u_period[p], u_period[q], ch[s[p, q]])
            if p == q:
                trace[s[p, q]] = np.eye(sizes[p]).ravel()
        channels[i] = ch = _real_part(_rotate_pairs(ch, pairing, _HERMITIAN_PAIR), metadata)
        tp_defect = max(tp_defect, float(np.max(np.abs(trace @ ch - trace))))
    metadata["channel_trace_defect"] = tp_defect
    if tp_defect > TRACE_DRIFT_TOL:
        raise NumericError(
            f"one-period channel trace defect {tp_defect:.2e} exceeds {TRACE_DRIFT_TOL:g}"
        )
    return sectors, blocks, pairings, channels


def _lindblad_strobe(ham, collapse, rho0, t_span, sample_count, tol, metadata,
                     coherences: bool):
    """The one-period channel of _lindblad_channel, applied stroboscopically
    on each Liouville block it propagates; the blocks left out stay zero in
    the returned matrices. The march is real: it starts from T vec(rho0_herm),
    with rho0_herm the Hermitian part of rho0, and T^H maps every sample back,
    so the returned matrices are Hermitian by construction. It samples whole
    periods only: a grid that snapped_span would move (by more than the
    64-ulp snap of _period_split) raises ConfigError naming the aligned grid
    to request, so the grid it returns is the one asked for.
    """
    period = 2.0 * math.pi / ham.common_eta
    t_final = float(t_span[1])
    span, count = snapped_span(ham.common_eta, t_final, sample_count)
    if count != sample_count or abs(span[1] - t_final) > 64.0 * np.spacing(t_final):
        raise ConfigError(
            f"the stroboscopic Lindblad engine samples whole drive periods only, and "
            f"{sample_count} samples on (0, {t_final!r}) are not period-aligned; request "
            f"t_span=(0.0, {span[1]!r}) with sample_count={count}, the grid snapped_span gives"
        )
    times = np.linspace(*span, count)
    # every time of that grid is a whole number of periods
    stride = int(_period_split(times, period)[0][1])

    sectors, blocks, pairings, channels = _lindblad_channel(ham, collapse, rho0, tol, metadata,
                                                            coherences)
    metadata["engine"] = "lindblad-stroboscopic"
    metadata["sectors"] = [len(ch) for ch in channels]
    # the Hamiltonian factor U(T) (x) conj(U(T)) carries U(T)'s error twice
    metadata["global_error_estimate"] = (count - 1) * stride * (
        2.0 * metadata["period_error_estimate"] + metadata["channel_slice_error"])
    # matrix_power squares bit_length - 1 times and multiplies bit_count - 1 times
    metadata["channel_matmuls"] += len(channels) * (stride.bit_length() + stride.bit_count() - 2)

    # samples sit on stride multiples, so one channel^stride step per sample
    herm = (rho0 + rho0.conj().T) / 2.0
    rhos = np.zeros((count, *rho0.shape), dtype=complex)
    flat = rhos.reshape(count, -1)
    for pairs, (lo, hi), channel in zip(blocks, pairings, channels):
        step = np.linalg.matrix_power(channel, stride) if stride > 1 else channel
        vecs = np.empty((count, len(channel)))
        vecs[0] = _rotate_pairs(_block_vec(herm, sectors, pairs), (lo, hi), _HERMITIAN_PAIR).real
        for i in range(1, count):
            np.dot(step, vecs[i - 1], out=vecs[i])
        # T^H: rho_ii = y_ii, rho_lo = (y_lo - i y_hi)/sqrt(2) and rho_hi its conjugate
        where = np.concatenate([(sectors[p][:, None] * len(rho0) + sectors[q]).ravel()
                                for p, q in pairs])
        flat[:, where] = vecs
        flat[:, where[lo]] = math.sqrt(0.5) * (vecs[:, lo] - 1j * vecs[:, hi])
        flat[:, where[hi]] = flat[:, where[lo]].conj()
    return rhos, times


def _eig_floor(rhos: np.ndarray, blocks) -> float:
    """The smallest eigenvalue over the samples rhos, which are block
    diagonal on the index sets `blocks`: one eigvalsh per block."""
    return min(float(np.linalg.eigvalsh(rhos[:, b[:, None], b])[:, 0].min()) for b in blocks)


def lindblad_grid(schedules, t_final: float, sample_count: int, method: str = "auto"):
    """The grid to request from evolve_lindblad for t in [0, t_final]:
    ((0, t_end), count).

    It asks _select_engine, as evolve_lindblad does, which engine runs on the
    requested grid. The stroboscopic engine samples whole drive periods only,
    so where it runs this is the period-aligned grid of snapped_span;
    anywhere else it is the request itself. evolve_lindblad accepts either:
    any engine takes an aligned grid. t_final must be positive, sample_count
    at least 2 and method one the dispatcher accepts (ConfigError).
    """
    t_grid = _sample_grid((0.0, t_final), sample_count)
    if _select_engine(method, schedules, t_grid) == "stroboscopic":
        return snapped_span(common_eta(schedules), t_final, sample_count)
    return (0.0, float(t_final)), sample_count


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
) -> Trajectory:
    """Integrate the master equation; check trace drift (<= 1e-7) and the
    eigenvalue floor (>= -1e-6) of the Hermitian samples.

    The stroboscopic engine samples whole periods only and refuses any other
    grid (ConfigError, naming the aligned grid); lindblad_grid gives the grid
    to request. Its tol also bounds the step-doubling estimate of the
    one-period channel's error (metadata["channel_slice_error"], see
    _lindblad_channel); the stroboscopic march records
    metadata["global_error_estimate"], its periods times twice the period
    solve's period_error_estimate plus channel_slice_error, and a direct run
    the sum of its steps' error estimates (_StepSampler). With
    store_states=False it propagates only the parity-diagonal Liouville
    block, which carries every observable: the coherences between the parity
    sectors stay zero, so rho is block diagonal and the eigenvalue floor
    takes one eigvalsh per parity block of all the samples at once.
    metadata["liouville_pairs"] names the pairs propagated. Its samples are
    Hermitian by construction; metadata["channel_hermiticity_defect"] gates
    the channel that made them.
    """
    _validate_tol(tol)
    if rho0.space != space:
        raise DomainError("initial density matrix lives on a different space")
    t_grid = _sample_grid(t_span, sample_count)
    ham = build_hamiltonian(space, params, schedules)
    collapse = _collapse_operators(space, rates)
    metadata: dict = {"tol": tol}

    # the master equation has no static engine: "static" integrates directly
    if _select_engine(method, schedules, t_grid) == "stroboscopic":
        rhos, times = _lindblad_strobe(ham, collapse, rho0.matrix, (t_grid[0], t_grid[-1]),
                                       sample_count, tol, metadata, coherences=store_states)
        # T^H gives every sample's transpose pairs as exact conjugates
        metadata["hermiticity_defect_max"] = 0.0
    else:
        rhos = _lindblad_direct(ham, collapse, rho0.matrix, t_grid, tol, metadata)
        times = t_grid

    drift = float(np.max(np.abs(np.real(np.trace(rhos, axis1=1, axis2=2)) - 1.0)))
    diagonal = metadata.get("liouville_pairs") == _LIOUVILLE_BLOCKS[0]
    floor = _eig_floor(rhos, parity_sectors(space) if diagonal else [np.arange(space.dim)])
    metadata["trace_drift_max"] = drift
    metadata["eig_floor_min"] = floor
    if drift > TRACE_DRIFT_TOL:
        raise NumericError(f"trace drift {drift:.2e} exceeds {TRACE_DRIFT_TOL:g}")
    if floor < EIG_FLOOR_RUN:
        raise NumericError(f"density matrix eigenvalue {floor:.2e} below {EIG_FLOOR_RUN:g}")

    joint = _joints(space, rhos)
    _cutoff_check(space, joint, metadata)
    return Trajectory(
        space=space,
        times=times,
        joint=joint,
        states=[DensityMatrix(space, r / np.real(np.trace(r)), floor_tol=1e-6) for r in rhos]
        if store_states
        else None,
        metadata=metadata,
    )
