"""Resonance discovery and Rabi-rate extraction.

sweep_resonance evolves one scenario at a grid of modulation frequencies,
records the best population transfer into the two-photon target state at
each frequency, and locates the peak with one rule, _vertex: the vertex of
the parabola through the highest sample and its two neighbors, read off the
coarse grid or, with zoom, off a 10x finer grid across that bracket. The
transfer is one cell of the joint (excited qubits, photons) distribution
that a Trajectory holds for every sample, so sweeps store no states.
_evaluate runs one grid and gives one table, a row per field and a column
per point, which the zoom points join in eta order. fit_diagnostics holds
the horizon, the median background, peak_transfer, vertex_fallback, and
each point's rhs_evals, propagator_defect, batch_points (the width of the
period solve it shared) and global_error_estimate (what the horizon makes
of its local error, dynamics.evolve_schrodinger; NaN only for a static
point, which solves no ODE) as arrays aligned with etas; period_solves
counts the solves. fit_rabi pulls |Xi| out of a sampled population
oscillation by fitting A*cos(2|Xi| t + theta) + C.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import curve_fit

from .dispersive import two_photon_rate_closed_form
from .dynamics import (
    DensityMatrix,
    Trajectory,
    evolve_lindblad,
    evolve_schrodinger,  # unused here; perfbench/spans.py wraps scan.evolve_schrodinger
    evolve_schrodinger_etas,
    lindblad_grid,
)
from .errors import (
    ConfigError,
    DomainError,
    FitError,
    NoResonanceError,
    NumericError,
    SweepBoundaryError,
)
from .hilbert import SpaceSpec, StateVector
from .model import DissipationRates, ModulationSchedule, SystemParams

# a peak must beat the median transfer by this factor to count as a resonance
BACKGROUND_FACTOR = 5.0
# below this absolute transfer nothing resonated, whatever the background says
TRANSFER_FLOOR = 1e-12
ZOOM_SHRINK = 10
POPULATION_SLACK = 1e-8


@dataclass(frozen=True)
class TransferScenario:
    """A sweepable experiment: everything fixed except the drive frequency.

    transition = (n, k) labels the targeted pair inside the n-excitation
    subspace; the transfer metric is the bare |k+2, n-k-2> population,
    the cell joint[:, k+2, n-k-2] of the Trajectory's joint distribution, the
    quantity these resonances actually move.

    sample_count, tol and method control each per-frequency evolution. When
    rates is given and nonzero the scenario evolves under the master equation.
    """

    space: SpaceSpec
    params: SystemParams
    schedules: tuple[ModulationSchedule, ...]
    psi0: StateVector
    transition: tuple[int, int]
    sample_count: int = 181
    tol: float = 1e-8
    rates: DissipationRates | None = None
    method: str = "auto"

    def __post_init__(self):
        if not self.schedules:
            raise ConfigError("a sweep scenario needs at least one modulation schedule")
        n, k = self.transition
        if k < 0 or n < 0:
            raise DomainError(f"transition labels (n={n}, k={k}) must be nonnegative")
        if k + 2 > self.params.n_qubits or n - k < 2:
            raise DomainError(
                f"pair (k={k}, k+2) does not exist for n={n}, N={self.params.n_qubits}"
            )
        if self.psi0.space != self.space:
            raise DomainError("initial state lives on a different space")
        if self.sample_count < 16:
            raise ConfigError("sample_count below 16 cannot resolve the transfer envelope")


@dataclass
class SweepResult:
    """Grid, per-point transfer, and the interpolated peak of one sweep."""

    etas: np.ndarray
    transfer: np.ndarray
    peak_eta: float
    peak_width: float
    fit_diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        self.etas = np.asarray(self.etas, dtype=float)
        self.transfer = np.asarray(self.transfer, dtype=float)
        if self.etas.shape != self.transfer.shape:
            raise ConfigError("etas and transfer must have matching shapes")
        if not (self.etas[0] < self.peak_eta < self.etas[-1]):
            raise SweepBoundaryError(
                f"peak_eta={self.peak_eta:.9g} not inside "
                f"({self.etas[0]:.9g}, {self.etas[-1]:.9g})"
            )
        if not np.all((self.transfer >= 0.0) & (self.transfer <= 1.0)):
            raise NumericError("transfer values escaped [0, 1] or are NaN")


def _lindblad_point(scenario: TransferScenario, eta: float, horizon: float) -> Trajectory:
    """A master-equation point, every schedule at eta, samples the grid
    lindblad_grid gives, whole periods wherever the stroboscopic engine runs."""
    sc = scenario
    schedules = tuple(dataclasses.replace(s, eta=eta) for s in sc.schedules)
    span, count = lindblad_grid(schedules, horizon, sc.sample_count, sc.method)
    return evolve_lindblad(sc.space, sc.params, schedules, sc.rates,
                           DensityMatrix.from_state(sc.psi0), span, count,
                           tol=sc.tol, method=sc.method)


def _point_record(scenario: TransferScenario, traj: Trajectory):
    """(transfer, rhs_evals, propagator_defect, batch_points,
    global_error_estimate) of one point: the best target population
    joint[k+2, n-k-2] over its samples, and the work, gate value and error
    estimate its engine recorded. The defect is NaN, and batch_points 0, for
    an engine that makes no period solve; the estimate is NaN for a static
    point alone, which solves no ODE. A NaN
    population in any sample raises NumericError, as one above 1 does."""
    n, k = scenario.transition
    top = float(np.max(traj.joint[:, k + 2, n - k - 2]))
    if not top <= 1.0 + POPULATION_SLACK:
        raise NumericError(f"target population {top:.6g} exceeds 1 or is NaN")
    md = traj.metadata
    return (min(top, 1.0), md["rhs_evals"], md.get("propagator_defect", math.nan),
            md.get("batch_points", 0), md.get("global_error_estimate", math.nan))


def _evaluate(scenario, etas, horizon) -> np.ndarray:
    """The per-point table over etas: one row per _point_record field
    (transfer, rhs_evals, propagator_defect, batch_points,
    global_error_estimate), one column per eta.

    Unitary points go to evolve_schrodinger_etas in one call, which runs
    each on its own engine, so the ones that run stroboscopic share batched
    period solves. Master-equation points run evolve_lindblad one at a time.
    """
    sc = scenario
    # the points are generated one by one, so one point's joint is held at a time
    if sc.rates is not None and not sc.rates.all_zero:
        trajs = (_lindblad_point(sc, eta, horizon) for eta in etas)
    else:
        trajs = evolve_schrodinger_etas(sc.space, sc.params, sc.schedules, sc.psi0, etas,
                                        (0.0, horizon), sc.sample_count, tol=sc.tol,
                                        method=sc.method)
    return np.array([_point_record(sc, traj) for traj in trajs]).T


def _vertex(etas, transfer):
    """(eta, transfer, width, fell_back) of the peak of three neighboring
    samples of one grid, the highest in the middle.

    The peak is the vertex of the parabola through them, or the middle
    sample (fell_back) when they are not concave or the vertex leaves their
    span. The width is the full width where the parabola halves, a rough
    line-width proxy; it is the grid spacing when the parabola has no
    negative curvature or no positive peak.
    """
    a, b, c = (float(v) for v in np.polyfit(etas, transfer, 2))
    fell_back = a >= 0.0 or not (etas[0] <= -b / (2.0 * a) <= etas[2])
    if fell_back:
        x, y = float(etas[1]), float(transfer[1])
    else:
        x, y = -b / (2.0 * a), c - b * b / (4.0 * a)
    if a >= 0.0 or y <= 0.0:
        return x, y, float(etas[1] - etas[0]), fell_back
    return x, y, 2.0 * math.sqrt(y / (-2.0 * a)), fell_back


def sweep_resonance(
    scenario: TransferScenario,
    eta_range,
    grid_points: int,
    horizon: float | None = None,
    zoom: bool = True,
) -> SweepResult:
    """Sweep the drive frequency and locate the transfer resonance.

    Every schedule in the scenario is driven at the same swept eta. horizon
    defaults to 1.2 * pi / |Xi_closed_form| of the scenario transition so a
    resonant point completes at least one full transfer. The peak is the
    vertex of the parabola through the highest sample and its two
    neighbors; with zoom=True the bracket around the coarse peak is
    resampled once on a 10x finer grid and the vertex recomputed there.
    """
    lo, hi = float(eta_range[0]), float(eta_range[1])
    if not 0.0 < lo < hi < math.inf:
        raise ConfigError(f"eta_range ({lo}, {hi}) must be positive, finite and increasing")
    if isinstance(grid_points, bool) or not isinstance(grid_points, numbers.Integral) \
            or grid_points < 5:
        raise ConfigError(f"grid_points={grid_points!r} must be an integer of at least 5")
    if horizon is not None and not 0.0 < horizon < math.inf:
        raise ConfigError(f"horizon={horizon} must be positive and finite")

    n, k = scenario.transition
    if horizon is None:
        xi = two_photon_rate_closed_form(scenario.params, scenario.schedules, n, k)
        if abs(xi) == 0.0:
            raise ConfigError(
                "closed-form rate vanishes for this scenario; pass horizon explicitly"
            )
        horizon = 1.2 * math.pi / abs(xi)

    etas = np.linspace(lo, hi, grid_points)
    table = _evaluate(scenario, etas, horizon)
    grid, transfer = etas, table[0]
    i = int(np.argmax(transfer))
    background = float(np.median(transfer))
    if transfer[i] < max(BACKGROUND_FACTOR * background, TRANSFER_FLOOR):
        raise NoResonanceError(
            f"best transfer {transfer[i]:.3e} does not stand out of the "
            f"off-resonant background {background:.3e} (need {BACKGROUND_FACTOR}x)"
        )
    if i in (0, grid_points - 1):
        raise SweepBoundaryError(
            f"transfer peak sits at the sweep boundary eta={etas[i]:.9g}; "
            "widen eta_range"
        )

    if zoom:
        grid = np.linspace(etas[i - 1], etas[i + 1], 2 * ZOOM_SHRINK + 1)
        new = np.delete(grid, [0, ZOOM_SHRINK, 2 * ZOOM_SHRINK])
        merged = np.concatenate([etas, new])
        order = np.argsort(merged)
        etas = merged[order]
        table = np.concatenate([table, _evaluate(scenario, new, horizon)], axis=1)[:, order]
        # the bracket's center is the coarse maximum, argmax's first, and its
        # ends are the coarse neighbors, the left lower and the right no
        # higher, so the zoomed maximum is never on an edge
        transfer = table[0, i - 1 : i + 2 * ZOOM_SHRINK]
        i = int(np.argmax(transfer))
    peak_eta, peak_transfer, width, fell_back = _vertex(grid[i - 1 : i + 2],
                                                        transfer[i - 1 : i + 2])

    widths = table[3].astype(int)
    return SweepResult(
        etas=etas,
        transfer=np.clip(table[0], 0.0, 1.0),
        peak_eta=peak_eta,
        peak_width=width,
        fit_diagnostics={
            "horizon": horizon,
            "background": background,
            "vertex_fallback": fell_back,
            "peak_transfer": peak_transfer,
            "rhs_evals": table[1].astype(int),
            "propagator_defect": table[2],
            "batch_points": widths,
            "global_error_estimate": table[4],
            # a solve of w points gives each of them 1/w of it
            "period_solves": int(round(sum(1.0 / w for w in widths if w))),
        },
    )


# ---------------------------------------------------------------------------
# Rabi-rate fitting
# ---------------------------------------------------------------------------

@dataclass
class RabiFit:
    """Accepted cosine fit A*cos(2*rate*t + phase) + offset."""

    rate: float
    amplitude: float
    offset: float
    residual_rms: float
    phase: float = 0.0


def _observable_token(space: SpaceSpec, token: str) -> tuple[str, int | None]:
    """(name, index) of an observable token: n_ph, n_at, p_ph:<n> with n in
    0..n_max or p_at:<k> with k in 0..N. Any other token raises ConfigError."""
    name, colon, arg = token.partition(":")
    top = {"p_ph": space.n_max, "p_at": space.n_qubits}.get(name)
    if name in ("n_ph", "n_at") and not colon:
        return name, None
    if top is not None and arg.isdecimal() and int(arg) <= top:
        return name, int(arg)
    raise ConfigError(
        f"unknown observable {token!r}: expected n_ph, n_at, p_ph:<0..{space.n_max}> "
        f"or p_at:<0..{space.n_qubits}>"
    )


def _select_observable(trajectory: Trajectory, selector) -> np.ndarray:
    if callable(selector):
        y = selector(trajectory)
    elif isinstance(selector, str):
        name, index = _observable_token(trajectory.space, selector)
        y = getattr(trajectory, name) if index is None else getattr(trajectory, name)(index)
    else:
        raise ConfigError("observable_selector must be a string or a callable")
    y = np.asarray(y, dtype=float)
    if y.shape != np.shape(trajectory.times):
        raise ConfigError("selected observable does not match the sample grid")
    if not np.all(np.isfinite(y)):
        raise NumericError("selected observable holds a NaN or an infinity")
    return y


def _linear_cosine_rms(t, y, w):
    """Residual rms of the best A*cos(wt)+B*sin(wt)+C at fixed frequency."""
    design = np.column_stack([np.cos(w * t), np.sin(w * t), np.ones_like(t)])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ coef
    return math.sqrt(float(np.mean(resid**2))), coef


def fit_rabi(trajectory: Trajectory, observable_selector) -> RabiFit:
    """Fit A*cos(2|Xi| t + theta) + C to one sampled observable.

    The frequency seed is the dominant line of the demeaned sample spectrum,
    refined on a local frequency grid before the nonlinear fit. The fit is
    rejected unless the data spans >= 1.5 fitted periods and the residual rms
    stays below 0.1x the fitted amplitude. An observable that holds a NaN or
    an infinity raises NumericError.
    """
    t = np.asarray(trajectory.times, dtype=float)
    y = _select_observable(trajectory, observable_selector)
    if len(t) < 16:
        raise ConfigError("need at least 16 samples to fit an oscillation")
    steps = np.diff(t)
    if np.max(np.abs(steps - steps[0])) > 1e-9 * max(abs(t[-1]), 1.0):
        raise ConfigError("fit_rabi needs a uniform sample grid")
    dt = float(steps[0])

    yc = y - y.mean()
    if float(np.max(np.abs(yc))) == 0.0:
        raise FitError("observable is constant; nothing to fit")
    spectrum = np.abs(np.fft.rfft(yc))
    kbin = int(np.argmax(spectrum[1:])) + 1
    freqs = np.fft.rfftfreq(len(t), dt)
    w_seed = 2.0 * math.pi * float(freqs[kbin])

    # one-bin-wide local search keeps curve_fit inside the right basin
    w_lo = 2.0 * math.pi * float(freqs[max(kbin - 1, 1)])
    w_hi = 2.0 * math.pi * float(freqs[min(kbin + 1, len(freqs) - 1)])
    if w_hi <= w_lo:
        w_lo, w_hi = 0.5 * w_seed, 1.5 * w_seed
    best = (math.inf, w_seed, None)
    for w in np.linspace(w_lo, w_hi, 41):
        if w <= 0.0:
            continue
        rms, coef = _linear_cosine_rms(t, y, w)
        if rms < best[0]:
            best = (rms, w, coef)
    _, w0, coef0 = best
    a0 = math.hypot(float(coef0[0]), float(coef0[1]))
    th0 = math.atan2(-float(coef0[1]), float(coef0[0]))
    c0 = float(coef0[2])

    def model(tt, a, w, th, c):
        return a * np.cos(w * tt + th) + c

    try:
        popt, _ = curve_fit(model, t, y, p0=[a0, w0, th0, c0], maxfev=20000)
    except RuntimeError as exc:
        raise FitError(f"cosine fit did not converge: {exc}") from exc
    a, w, th, c = (float(v) for v in popt)
    if w < 0.0:
        w, th = -w, -th
    if a < 0.0:
        a, th = -a, th + math.pi
    th = (th + math.pi) % (2.0 * math.pi) - math.pi

    resid = y - model(t, a, w, th, c)
    residual_rms = math.sqrt(float(np.mean(resid**2)))
    if not (w > 0.0 and math.isfinite(w)):
        raise FitError(f"fitted frequency {w} is not a positive finite number")
    span_periods = (t[-1] - t[0]) * w / (2.0 * math.pi)
    if span_periods < 1.5:
        raise FitError(
            f"trajectory spans {span_periods:.2f} fitted periods; need >= 1.5"
        )
    if residual_rms >= 0.1 * a:
        raise FitError(
            f"residual rms {residual_rms:.3e} >= 0.1 x amplitude {a:.3e}; "
            "the observable is not a clean two-level oscillation"
        )
    return RabiFit(rate=w / 2.0, amplitude=a, offset=c, residual_rms=residual_rms, phase=th)
