"""Command-line front end.

Scenario files are flat line-oriented text, `section.key = value`, designed to
round-trip exactly and diff cleanly. Subcommands compute spectra, rates,
trajectories and resonance sweeps from a config; the figure1..figure4 presets
hard-code the headline parameter sets so a single command regenerates each
reference plot's data. CSV is the canonical output; SVG line charts are a
convenience rendered natively.

Exit codes: 0 success, 2 configuration, 3 physics guard, 4 numerical failure,
5 no resonance found.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from .dispersive import (
    dispersive_spectrum,
    eta_resonant,
    lambda_perturbative,
    project_initial,
    reconstruct_state,
    rwa_solution,
    transition_rate_general,
    two_photon_rate_closed_form,
)
from .dynamics import DensityMatrix, Trajectory, evolve_lindblad, evolve_schrodinger
from .errors import (
    ConfigError,
    DickemodError,
    NoResonanceError,
    NumericError,
    PhysicsGuardError,
)
from .hilbert import SpaceSpec, StateVector, coherent_state, dicke_fock_state, observables
from .model import (
    DissipationRates,
    ModulationSchedule,
    SystemParams,
    seconds_per_time_unit,
    validate_schedules,
)
from .scan import TransferScenario, _select_observable, fit_rabi, sweep_resonance

CSV_SCHEMA = "dickemod-csv-1"
# physical cavity frequency backing the microsecond time unit
OMEGA0_HZ = 10e9
TIME_UNITS = ("one_over_omega0", "one_over_q", "microseconds")

SVG_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


# ---------------------------------------------------------------------------
# config values
# ---------------------------------------------------------------------------

def _encode_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, (tuple, list)):
        body = ", ".join(_encode_value(x) for x in v)
        return body + "," if len(v) == 1 else body
    return str(v)


def _decode_scalar(tok: str):
    tok = tok.strip()
    if tok == "true":
        return True
    if tok == "false":
        return False
    try:
        return int(tok)
    except ValueError:
        pass
    try:
        return float(tok)
    except ValueError:
        pass
    return tok


def _decode_value(raw: str):
    raw = raw.strip()
    if "," in raw:
        parts = raw.split(",")
        if parts and parts[-1].strip() == "":
            parts = parts[:-1]
        return tuple(_decode_scalar(p) for p in parts)
    return _decode_scalar(raw)


@dataclass
class ScenarioConfig:
    """Typed contents of one scenario file, grouped by section.

    schedules is indexed by the numeric suffix of its section name
    (schedule0, schedule1, ...). Sections the file omits stay empty.
    """

    system: dict = field(default_factory=dict)
    schedules: list = field(default_factory=list)
    dissipation: dict = field(default_factory=dict)
    initial_state: dict = field(default_factory=dict)
    transition: dict = field(default_factory=dict)
    run: dict = field(default_factory=dict)
    sweep: dict = field(default_factory=dict)
    outputs: dict = field(default_factory=dict)


# every key a section accepts, in emit order; run_scenario rejects any other
_SECTION_KEYS = {
    "system": ("n_qubits", "n_max", "omega0", "Omega0", "g0", "basis", "with_crt"),
    "dissipation": ("kappa", "gamma", "gamma_phi"),
    "initial_state": ("kind", "k", "n", "alpha_squared"),
    "transition": ("n", "k"),
    "run": ("t_final", "sample_count", "tol", "method", "time_unit"),
    "sweep": ("factor_min", "factor_max", "grid_points", "horizon", "zoom"),
    "outputs": ("observables",),
}
_SCHEDULE_KEYS = ("target", "epsilon", "eta", "phi", "qubit")


def parse_config(text: str, origin: str = "<config>") -> ScenarioConfig:
    """Parse flat `section.key = value` text; errors carry origin:line."""
    cfg = ScenarioConfig()
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{origin}:{ln}: expected 'section.key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        if "." not in key:
            raise ConfigError(f"{origin}:{ln}: key {key!r} lacks a section prefix")
        section, _, name = key.partition(".")
        if not name or "." in name:
            raise ConfigError(f"{origin}:{ln}: key {key!r} must be section.key")
        val = _decode_value(value)
        if section in _SECTION_KEYS:
            bucket = getattr(cfg, section)
        elif section.startswith("schedule") and section[8:].isdigit():
            idx = int(section[8:])
            while len(cfg.schedules) <= idx:
                cfg.schedules.append({})
            bucket = cfg.schedules[idx]
        else:
            raise ConfigError(f"{origin}:{ln}: unknown section {section!r}")
        if name in bucket:
            raise ConfigError(f"{origin}:{ln}: duplicate key {key!r}")
        bucket[name] = val
    for i, sched in enumerate(cfg.schedules):
        if not sched:
            raise ConfigError(f"{origin}: schedule{i} is missing (indices must be dense)")
    return cfg


def emit_config(cfg: ScenarioConfig) -> str:
    """Canonical text form; parse_config(emit_config(c)) == c."""
    lines = []
    for section in _SECTION_KEYS:
        bucket = getattr(cfg, section)
        for name in sorted(bucket):
            lines.append(f"{section}.{name} = {_encode_value(bucket[name])}")
        if section == "system":
            for i, sched in enumerate(cfg.schedules):
                for name in sorted(sched):
                    lines.append(f"schedule{i}.{name} = {_encode_value(sched[name])}")
    return "\n".join(lines) + "\n"


def _reject_unknown_keys(cfg: ScenarioConfig, origin: str) -> None:
    """A misspelled key would otherwise run silently with its default."""
    buckets = [(name, getattr(cfg, name), known) for name, known in _SECTION_KEYS.items()]
    buckets += [(f"schedule{i}", d, _SCHEDULE_KEYS) for i, d in enumerate(cfg.schedules)]
    for section, bucket, known in buckets:
        for name in bucket:
            if name not in known:
                raise ConfigError(
                    f"{origin}: unknown key {section}.{name}; "
                    f"{section} accepts {', '.join(known)}"
                )


def load_config(path: Path) -> ScenarioConfig:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text, origin=str(path))


# ---------------------------------------------------------------------------
# builders: config -> physics objects (constructors re-validate all guards)
# ---------------------------------------------------------------------------

def _require(bucket: dict, section: str, *names):
    for name in names:
        if name not in bucket:
            raise ConfigError(f"config is missing {section}.{name}")
    return [bucket[name] for name in names]


def build_space(cfg: ScenarioConfig) -> SpaceSpec:
    n_qubits, n_max = _require(cfg.system, "system", "n_qubits", "n_max")
    basis = cfg.system.get("basis", "collective")
    return SpaceSpec(n_qubits=int(n_qubits), n_max=int(n_max), basis=str(basis))


def build_params(cfg: ScenarioConfig, no_crt: bool = False) -> SystemParams:
    omega0, Omega0, g0, n_qubits = _require(
        cfg.system, "system", "omega0", "Omega0", "g0", "n_qubits"
    )
    with_crt = bool(cfg.system.get("with_crt", True)) and not no_crt
    return SystemParams(
        omega0=float(omega0),
        Omega0=Omega0,
        g0=g0,
        n_qubits=int(n_qubits),
        with_crt=with_crt,
    )


def build_schedules(cfg: ScenarioConfig) -> tuple[ModulationSchedule, ...]:
    out = []
    for i, d in enumerate(cfg.schedules):
        target, epsilon, eta = _require(d, f"schedule{i}", "target", "epsilon", "eta")
        out.append(
            ModulationSchedule(
                target=str(target),
                epsilon=float(epsilon),
                eta=float(eta),
                phi=float(d.get("phi", 0.0)),
                qubit=int(d["qubit"]) if "qubit" in d else None,
            )
        )
    return tuple(out)


def build_rates(cfg: ScenarioConfig, n_qubits: int) -> DissipationRates | None:
    d = cfg.dissipation
    if not d:
        return None
    kappa = float(d.get("kappa", 0.0))
    gamma = d.get("gamma", 0.0)
    gamma_phi = d.get("gamma_phi", 0.0)
    if isinstance(gamma, (int, float)):
        gamma = (float(gamma),) * n_qubits
    if isinstance(gamma_phi, (int, float)):
        gamma_phi = (float(gamma_phi),) * n_qubits
    return DissipationRates(kappa=kappa, gamma=tuple(gamma), gamma_phi=tuple(gamma_phi))


def build_initial_state(cfg: ScenarioConfig, space: SpaceSpec) -> StateVector:
    st = cfg.initial_state
    kind = st.get("kind")
    if kind == "dicke_fock":
        k, n = _require(st, "initial_state", "k", "n")
        return dicke_fock_state(space, int(k), int(n))
    if kind == "coherent":
        (a2,) = _require(st, "initial_state", "alpha_squared")
        k = int(st.get("k", 0))
        return coherent_state(space, math.sqrt(float(a2)), k)
    raise ConfigError(
        f"initial_state.kind must be 'dicke_fock' or 'coherent', got {kind!r}"
    )


def _closed_rate_for(cfg, params, schedules) -> float:
    n, k = _require(cfg.transition, "transition", "n", "k")
    xi = two_photon_rate_closed_form(params, schedules, int(n), int(k))
    if abs(xi) == 0.0:
        raise ConfigError("closed-form rate vanishes; the 1/q time unit is undefined")
    return abs(xi)


def _time_scale(cfg, params, schedules) -> tuple[float, str]:
    """(native time units per config time unit, t-column name)."""
    unit = cfg.run.get("time_unit", "one_over_omega0")
    if unit == "one_over_omega0":
        return 1.0, "t"
    if unit == "one_over_q":
        return 1.0 / _closed_rate_for(cfg, params, schedules), "t_q"
    if unit == "microseconds":
        return 1e-6 / seconds_per_time_unit(OMEGA0_HZ), "t_us"
    raise ConfigError(f"run.time_unit must be one of {TIME_UNITS}, got {unit!r}")


def build_run_options(cfg) -> dict:
    run = cfg.run
    (t_final,) = _require(run, "run", "t_final")
    return {
        "t_final": float(t_final),
        "sample_count": int(run.get("sample_count", 401)),
        "tol": float(run.get("tol", 1e-9)),
        "method": str(run.get("method", "auto")),
    }


def _output_tokens(cfg) -> list[str]:
    tokens = cfg.outputs.get("observables", ("n_ph", "n_at"))
    if isinstance(tokens, str):
        tokens = (tokens,)
    return [str(t).strip() for t in tokens]


# ---------------------------------------------------------------------------
# CSV / SVG writers
# ---------------------------------------------------------------------------

def write_csv(path: Path, command: str, columns, meta: dict) -> None:
    """columns: list of (name, array); meta lines precede the header as '#'."""
    arrays = [np.asarray(a) for _, a in columns]
    length = len(arrays[0])
    for (name, _), a in zip(columns, arrays):
        if len(a) != length:
            raise ConfigError(f"csv column {name} has length {len(a)} != {length}")
    lines = [f"# schema: {CSV_SCHEMA}", f"# command: {command}"]
    for k in meta:
        lines.append(f"# {k} = {_encode_value(meta[k])}")
    lines.append(",".join(name for name, _ in columns))
    for i in range(length):
        lines.append(",".join("%.17g" % a[i] for a in arrays))
    Path(path).write_text("\n".join(lines) + "\n")


def _svg_ticks(lo: float, hi: float, count: int = 6) -> np.ndarray:
    if not math.isfinite(lo) or not math.isfinite(hi) or lo == hi:
        return np.array([lo])
    return np.linspace(lo, hi, count)


def write_svg(path: Path, title: str, xlabel: str, ylabel: str, x, series) -> None:
    """Minimal static line chart; series is a list of (label, y-array)."""
    x = np.asarray(x, dtype=float)
    width, height = 860.0, 520.0
    ml, mr, mt, mb = 78.0, 24.0, 42.0, 58.0
    pw, ph = width - ml - mr, height - mt - mb

    ys = [np.asarray(y, dtype=float) for _, y in series]
    finite = np.concatenate([y[np.isfinite(y)] for y in ys] + [x[np.isfinite(x)]])
    if finite.size == 0:
        raise ConfigError("nothing finite to plot")
    x_lo, x_hi = float(np.min(x)), float(np.max(x))
    y_all = np.concatenate([y[np.isfinite(y)] for y in ys])
    y_lo, y_hi = float(np.min(y_all)), float(np.max(y_all))
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.04 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    def px(v):
        return ml + (v - x_lo) / (x_hi - x_lo) * pw

    def py(v):
        return mt + (y_hi - v) / (y_hi - y_lo) * ph

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}" viewBox="0 0 {width:.0f} {height:.0f}">',
        f'<rect width="{width:.0f}" height="{height:.0f}" fill="white"/>',
        f'<text x="{width/2:.1f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="16">{title}</text>',
    ]
    for tx in _svg_ticks(x_lo, x_hi):
        parts.append(
            f'<line x1="{px(tx):.1f}" y1="{mt:.1f}" x2="{px(tx):.1f}" '
            f'y2="{mt+ph:.1f}" stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{px(tx):.1f}" y="{mt+ph+20:.1f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12">{tx:.6g}</text>'
        )
    for ty in _svg_ticks(y_lo, y_hi):
        parts.append(
            f'<line x1="{ml:.1f}" y1="{py(ty):.1f}" x2="{ml+pw:.1f}" '
            f'y2="{py(ty):.1f}" stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{ml-8:.1f}" y="{py(ty)+4:.1f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="12">{ty:.6g}</text>'
        )
    parts.append(
        f'<rect x="{ml:.1f}" y="{mt:.1f}" width="{pw:.1f}" height="{ph:.1f}" '
        'fill="none" stroke="#333333" stroke-width="1"/>'
    )
    parts.append(
        f'<text x="{ml+pw/2:.1f}" y="{height-14:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{xlabel}</text>'
    )
    parts.append(
        f'<text x="20" y="{mt+ph/2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14" '
        f'transform="rotate(-90 20 {mt+ph/2:.1f})">{ylabel}</text>'
    )
    for i, (label, y) in enumerate(series):
        color = SVG_COLORS[i % len(SVG_COLORS)]
        y = np.asarray(y, dtype=float)
        ok = np.isfinite(y) & np.isfinite(x)
        pts = " ".join(f"{px(a):.2f},{py(b):.2f}" for a, b in zip(x[ok], y[ok]))
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.6"/>'
        )
        ly = mt + 16 + 18 * i
        parts.append(
            f'<line x1="{ml+pw-150:.1f}" y1="{ly:.1f}" x2="{ml+pw-120:.1f}" '
            f'y2="{ly:.1f}" stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{ml+pw-114:.1f}" y="{ly+4:.1f}" font-family="sans-serif" '
            f'font-size="12">{label}</text>'
        )
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n")


# ---------------------------------------------------------------------------
# subcommand runners
# ---------------------------------------------------------------------------

def _print(*args):
    print(*args)


def _trajectory_columns(traj: Trajectory, tokens) -> list:
    cols = []
    for tok in tokens:
        cols.append((tok.replace(":", "_"), _select_observable(traj, tok)))
    return cols


def _cmd_spectrum(cfg, out_dir: Path, svg: bool, no_crt: bool) -> int:
    space = build_space(cfg)
    params = build_params(cfg, no_crt)
    spec = dispersive_spectrum(space, params)
    rows_m, rows_k = [], []
    lam_x, nu_x, lam_t, lam_p = [], [], [], []
    for m in spec.subspaces:
        for k in spec.labels(m):
            rows_m.append(m)
            rows_k.append(k)
            lam_x.append(spec.lam(m, k))
            nu = spec.nu(m, k) if params.with_crt else 0.0
            nu_x.append(nu)
            lam_t.append(spec.lam(m, k) + nu if math.isfinite(nu) else math.nan)
            lam_p.append(lambda_perturbative(params, m, k))
    out = out_dir / "spectrum.csv"
    write_csv(
        out,
        "spectrum",
        [
            ("m", np.array(rows_m, dtype=float)),
            ("k", np.array(rows_k, dtype=float)),
            ("lambda_exact", np.array(lam_x)),
            ("nu_crt", np.array(nu_x)),
            ("lambda_tilde", np.array(lam_t)),
            ("lambda_perturbative", np.array(lam_p)),
        ],
        {
            "n_qubits": space.n_qubits,
            "n_max": space.n_max,
            "omega0": params.omega0,
            "Omega0": params.Omega0,
            "g0": params.g0,
            "with_crt": params.with_crt,
        },
    )
    _print(f"spectrum: {len(rows_m)} dressed levels across {len(spec.subspaces)} subspaces")
    _print(f"wrote {out}")
    return 0


def _cmd_rates(cfg, out_dir: Path, svg: bool, no_crt: bool) -> int:
    space = build_space(cfg)
    params = build_params(cfg, no_crt)
    schedules = build_schedules(cfg)
    if not schedules:
        raise ConfigError("rates needs at least one schedule section")
    validate_schedules(params, schedules)
    (m,) = (int(v) for v in _require(cfg.transition, "transition", "n"))
    spec = dispersive_spectrum(space, params)
    ks, closed_abs, closed_re, closed_im = [], [], [], []
    exact_abs, exact_re, exact_im, eta_f, eta_x = [], [], [], [], []
    labels = spec.labels(m)
    for k in labels:
        if k + 2 not in labels:
            continue
        xi_c = two_photon_rate_closed_form(params, schedules, m, k)
        rate = transition_rate_general(spec, schedules, m, k + 2, k)
        ks.append(k)
        closed_abs.append(abs(xi_c))
        closed_re.append(xi_c.real)
        closed_im.append(xi_c.imag)
        exact_abs.append(abs(rate.xi))
        exact_re.append(rate.xi.real)
        exact_im.append(rate.xi.imag)
        eta_f.append(eta_resonant(params, m, k))
        eta_x.append(rate.eta_res)
    if not ks:
        raise ConfigError(f"subspace n={m} has no (k, k+2) pairs")
    out = out_dir / "rates.csv"
    write_csv(
        out,
        "rates",
        [
            ("k_from", np.array(ks, dtype=float)),
            ("k_to", np.array(ks, dtype=float) + 2),
            ("xi_closed_abs", np.array(closed_abs)),
            ("xi_closed_re", np.array(closed_re)),
            ("xi_closed_im", np.array(closed_im)),
            ("xi_exact_abs", np.array(exact_abs)),
            ("xi_exact_re", np.array(exact_re)),
            ("xi_exact_im", np.array(exact_im)),
            ("eta_res_formula", np.array(eta_f)),
            ("eta_res_exact", np.array(eta_x)),
        ],
        {"n": m, "with_crt": params.with_crt},
    )
    two_delta = 2.0 * abs(params.delta_minus)
    _print(f"rates in subspace n={m} (eta factors relative to 2|Delta| = {two_delta:.6g}):")
    for i, k in enumerate(ks):
        _print(
            f"  k={k} -> {k+2}: |Xi_closed| = {closed_abs[i]:.6e}  "
            f"|Xi_exact| = {exact_abs[i]:.6e}  "
            f"eta_r = {eta_x[i]:.8g} (factor {eta_x[i]/two_delta:.6f})"
        )
    _print(f"wrote {out}")
    return 0


def _build_evolution_inputs(cfg, no_crt: bool):
    space = build_space(cfg)
    params = build_params(cfg, no_crt)
    schedules = build_schedules(cfg)
    if schedules:
        validate_schedules(params, schedules)
    psi0 = build_initial_state(cfg, space)
    scale, t_name = _time_scale(cfg, params, schedules)
    opts = build_run_options(cfg)
    return space, params, schedules, psi0, scale, t_name, opts


def _cmd_evolve(cfg, out_dir: Path, svg: bool, no_crt: bool) -> int:
    space, params, schedules, psi0, scale, t_name, opts = _build_evolution_inputs(cfg, no_crt)
    rates = build_rates(cfg, space.n_qubits)
    if rates is not None and not rates.all_zero:
        raise ConfigError("config has nonzero dissipation; use the lindblad subcommand")
    traj = evolve_schrodinger(
        space,
        params,
        schedules,
        psi0,
        (0.0, opts["t_final"] * scale),
        opts["sample_count"],
        tol=opts["tol"],
        method=opts["method"],
    )
    tokens = _output_tokens(cfg)
    cols = [(t_name, traj.times / scale)] + _trajectory_columns(traj, tokens)
    out = out_dir / "evolve.csv"
    write_csv(out, "evolve", cols, {
        "engine": traj.metadata.get("engine"),
        "norm_drift_max": traj.metadata.get("norm_drift_max"),
        "time_unit": cfg.run.get("time_unit", "one_over_omega0"),
    })
    if svg:
        write_svg(out_dir / "evolve.svg", "evolve", t_name, "observables",
                  cols[0][1], cols[1:])
    _print(
        f"evolve: engine={traj.metadata.get('engine')} samples={len(traj.times)} "
        f"norm drift={traj.metadata.get('norm_drift_max'):.2e}"
    )
    _print(f"wrote {out}")
    return 0


def _cmd_lindblad(cfg, out_dir: Path, svg: bool, no_crt: bool) -> int:
    space, params, schedules, psi0, scale, t_name, opts = _build_evolution_inputs(cfg, no_crt)
    rates = build_rates(cfg, space.n_qubits)
    if rates is None or rates.all_zero:
        raise ConfigError("lindblad needs a dissipation section with nonzero rates")
    traj = evolve_lindblad(
        space,
        params,
        schedules,
        rates,
        DensityMatrix.from_state(psi0),
        (0.0, opts["t_final"] * scale),
        opts["sample_count"],
        tol=opts["tol"],
        method=opts["method"],
    )
    tokens = _output_tokens(cfg)
    cols = [(t_name, traj.times / scale)] + _trajectory_columns(traj, tokens)
    out = out_dir / "lindblad.csv"
    write_csv(out, "lindblad", cols, {
        "engine": traj.metadata.get("engine"),
        "trace_drift_max": traj.metadata.get("trace_drift_max"),
        "eig_floor_min": traj.metadata.get("eig_floor_min"),
        "time_unit": cfg.run.get("time_unit", "one_over_omega0"),
    })
    if svg:
        write_svg(out_dir / "lindblad.svg", "lindblad", t_name, "observables",
                  cols[0][1], cols[1:])
    _print(
        f"lindblad: engine={traj.metadata.get('engine')} samples={len(traj.times)} "
        f"trace drift={traj.metadata.get('trace_drift_max'):.2e}"
    )
    _print(f"wrote {out}")
    return 0


def _cmd_sweep(cfg, out_dir: Path, svg: bool, no_crt: bool) -> int:
    space = build_space(cfg)
    params = build_params(cfg, no_crt)
    schedules = build_schedules(cfg)
    if not schedules:
        raise ConfigError("sweep needs at least one schedule section")
    validate_schedules(params, schedules)
    psi0 = build_initial_state(cfg, space)
    n, k = (int(v) for v in _require(cfg.transition, "transition", "n", "k"))
    sw = cfg.sweep
    f_lo, f_hi, points = _require(sw, "sweep", "factor_min", "factor_max", "grid_points")
    two_delta = 2.0 * abs(params.delta_minus)
    rates = build_rates(cfg, space.n_qubits)
    scenario = TransferScenario(
        space=space,
        params=params,
        schedules=schedules,
        psi0=psi0,
        transition=(n, k),
        sample_count=int(cfg.run.get("sample_count", 181)),
        tol=float(cfg.run.get("tol", 1e-8)),
        rates=rates,
    )
    horizon = sw.get("horizon")
    result = sweep_resonance(
        scenario,
        (float(f_lo) * two_delta, float(f_hi) * two_delta),
        int(points),
        horizon=float(horizon) if horizon is not None else None,
        zoom=bool(sw.get("zoom", True)),
    )
    out = out_dir / "sweep.csv"
    write_csv(
        out,
        "sweep",
        [
            ("eta", result.etas),
            ("eta_factor", result.etas / two_delta),
            ("transfer", result.transfer),
        ],
        {
            "peak_eta": result.peak_eta,
            "peak_factor": result.peak_eta / two_delta,
            "peak_width": result.peak_width,
            "background": result.fit_diagnostics["background"],
            "transition_n": n,
            "transition_k": k,
        },
    )
    if svg:
        write_svg(out_dir / "sweep.svg", "resonance sweep", "eta / 2|Delta|",
                  "max transfer", result.etas / two_delta,
                  [("transfer", result.transfer)])
    _print(
        f"sweep: peak eta = {result.peak_eta:.9g} "
        f"(factor {result.peak_eta/two_delta:.6f}), width ~ {result.peak_width:.3g}, "
        f"peak transfer {result.fit_diagnostics['peak_transfer']:.3f}"
    )
    _print(f"wrote {out}")
    return 0


# ---------------------------------------------------------------------------
# figure presets
# ---------------------------------------------------------------------------

def snapped_span(eta: float, t_final: float, samples: int):
    """Uniform grid whose spacing is an integer number of drive periods."""
    period = 2.0 * math.pi / eta
    stride = max(1, int(round(t_final / (samples - 1) / period)))
    dt = stride * period
    count = max(2, int(round(t_final / dt)) + 1)
    return (0.0, dt * (count - 1)), count


def _g_schedule(g0: float, eta: float):
    return (ModulationSchedule(target="g", epsilon=0.1 * g0, eta=eta, phi=0.0),)


@dataclass(frozen=True)
class PresetSystem:
    """One figure system: parameters, space, initial state, its drive at a
    given eta, and the dissipation of the dissipative presets."""

    params: SystemParams
    space: SpaceSpec
    psi0: StateVector
    drive: Callable[[float], tuple[ModulationSchedule, ...]]
    rates: DissipationRates | None = None


def two_qubit_systems() -> dict[str, PresetSystem]:
    """figure1: N=2 from the Fock state |k=0, n=5>, coupling driven at 10%
    depth, with ("crt") and without ("tc") counter-rotating terms."""
    g0 = 0.08 / math.sqrt(2)
    params = SystemParams(omega0=1.0, Omega0=1.72, g0=g0, n_qubits=2, with_crt=True)
    space = SpaceSpec(n_qubits=2, n_max=12)
    psi0 = dicke_fock_state(space, 0, 5)
    return {
        tag: PresetSystem(dataclasses.replace(params, with_crt=with_crt), space, psi0,
                          lambda eta: _g_schedule(g0, eta))
        for tag, with_crt in (("crt", True), ("tc", False))
    }


def six_qubit_systems() -> dict[str, PresetSystem]:
    """figure2/figure3: N=6 from a coherent field |alpha|^2 = 5.5 with every
    qubit down; the coupling drive alone ("g") or joined by an antiphase
    qubit-splitting drive ("go"), both at 10% depth."""
    g0 = 0.08 / math.sqrt(6)
    params = SystemParams(omega0=1.0, Omega0=1.72, g0=g0, n_qubits=6, with_crt=True)
    space = SpaceSpec(n_qubits=6, n_max=21)
    psi0 = coherent_state(space, math.sqrt(5.5), 0)

    def g_and_omega(eta):
        return _g_schedule(g0, eta) + (
            ModulationSchedule(target="Omega", epsilon=0.1 * abs(params.delta_minus),
                               eta=eta, phi=math.pi),
        )

    return {
        "g": PresetSystem(params, space, psi0, lambda eta: _g_schedule(g0, eta)),
        "go": PresetSystem(params, space, psi0, g_and_omega),
    }


def circuit_pair_systems() -> dict[str, PresetSystem]:
    """figure4: a slightly distinguishable transmon pair with weak dissipation
    ("realistic": qubit 2 has 1% more coupling and 2% more detuning, each
    coupling driven on its own qubit) and the identical, lossless pair it is
    compared with ("ideal"). Both start from a coherent field |alpha|^2 = 3."""
    g1 = 5.66e-2
    g2 = 1.01 * g1
    real_space = SpaceSpec(n_qubits=2, n_max=15, basis="distinguishable")
    ideal_space = SpaceSpec(n_qubits=2, n_max=16)

    def per_qubit_drive(eta):
        return tuple(
            ModulationSchedule(target="g", epsilon=0.1 * g, eta=eta, phi=0.0, qubit=i + 1)
            for i, g in enumerate((g1, g2))
        )

    realistic = PresetSystem(
        SystemParams(omega0=1.0, Omega0=(1.72, 1.0 + 1.02 * 0.72), g0=(g1, g2),
                     n_qubits=2, with_crt=True),
        real_space,
        coherent_state(real_space, math.sqrt(3.0), 0),
        per_qubit_drive,
        DissipationRates(
            kappa=5e-5 * g1,
            gamma=(5e-5 * g1, 5e-5 * g2),
            gamma_phi=(5e-5 * g1, 5e-5 * g2),
        ),
    )
    ideal = PresetSystem(
        SystemParams(omega0=1.0, Omega0=1.72, g0=g1, n_qubits=2, with_crt=True),
        ideal_space,
        coherent_state(ideal_space, math.sqrt(3.0), 0),
        lambda eta: _g_schedule(g1, eta),
    )
    return {"realistic": realistic, "ideal": ideal}


def _figure1_analytic(spec, space, schedules, psi0, times):
    """Two-level rotation of the resonant dressed pair; spectators frozen."""
    eff0 = project_initial(spec, psi0)
    rate = transition_rate_general(spec, schedules, 5, 2, 0)
    b_t0 = eff0.amplitude(5, 2)
    b_s0 = eff0.amplitude(5, 0)
    b_t, b_s = rwa_solution(rate.xi, b_t0, b_s0, times)
    idx_t = eff0.labels.index((5, 2))
    idx_s = eff0.labels.index((5, 0))
    n_ph = np.empty(len(times))
    n_at = np.empty(len(times))
    for i, t in enumerate(times):
        b = eff0.b.copy()
        b[idx_t] = b_t[i]
        b[idx_s] = b_s[i]
        state = reconstruct_state(spec, schedules, eff0.labels, b, float(t))
        obs = observables(state, space)
        n_ph[i] = obs.n_ph
        n_at[i] = obs.n_at
    return n_ph, n_at


def _cmd_figure1(out_dir: Path, svg: bool, eta_factor=None, eta_factor_2=None) -> int:
    systems = two_qubit_systems()
    crt, tc = systems["crt"], systems["tc"]
    space, psi0, g0 = crt.space, crt.psi0, crt.params.g0_uniform
    two_delta = 2.0 * abs(crt.params.delta_minus)
    factor_crt = eta_factor if eta_factor is not None else 1.0678
    factor_tc = eta_factor_2 if eta_factor_2 is not None else 1.0540
    eta_crt = factor_crt * two_delta
    eta_tc = factor_tc * two_delta

    sched_crt = crt.drive(eta_crt)
    q = abs(two_photon_rate_closed_form(crt.params, sched_crt, 5, 0))
    span, count = snapped_span(eta_crt, 2.2 * math.pi / q, 601)
    traj_crt = evolve_schrodinger(space, crt.params, sched_crt, psi0,
                                  span, count, tol=1e-9, store_states=True)
    traj_tc = evolve_schrodinger(space, tc.params, tc.drive(eta_tc), psi0,
                                 span, count, tol=1e-9)
    spec_crt = dispersive_spectrum(space, crt.params)
    ana_ph, ana_at = _figure1_analytic(spec_crt, space, sched_crt, psi0, traj_crt.times)

    t_axis = traj_crt.times * q / math.pi
    out = out_dir / "figure1.csv"
    write_csv(
        out,
        "figure1",
        [
            ("t_q_over_pi", t_axis),
            ("n_ph_analytic", ana_ph),
            ("n_ph_exactCRT", traj_crt.n_ph),
            ("n_ph_exactTC", traj_tc.n_ph),
            ("n_at_analytic", ana_at),
            ("n_at_exactCRT", traj_crt.n_at),
            ("n_at_exactTC", traj_tc.n_at),
        ],
        {
            "n_qubits": space.n_qubits,
            "omega0": 1.0,
            "Omega0": 1.72,
            "g0": g0,
            "n_max": space.n_max,
            "initial_state": "dicke_fock(k=0, n=5)",
            "epsilon_g_over_g0": 0.1,
            "phi_g": 0.0,
            "eta_factor_crt": factor_crt,
            "eta_factor_tc": factor_tc,
            "eta_crt": eta_crt,
            "eta_tc": eta_tc,
            "q_closed_form": q,
        },
    )
    if svg:
        write_svg(out_dir / "figure1.svg", "two-photon exchange, N=2", "t q / pi",
                  "<n>", t_axis,
                  [("n_ph analytic", ana_ph), ("n_ph CRT", traj_crt.n_ph),
                   ("n_ph TC", traj_tc.n_ph), ("n_at analytic", ana_at),
                   ("n_at CRT", traj_crt.n_at), ("n_at TC", traj_tc.n_at)])
    _print(
        f"figure1: eta/2|Delta| = {factor_crt} (with CRT), {factor_tc} (without); "
        f"q = {q:.6e}"
    )
    _print(
        f"  n_ph swing: analytic {ana_ph.min():.3f}..{ana_ph.max():.3f}  "
        f"exact CRT {traj_crt.n_ph.min():.3f}..{traj_crt.n_ph.max():.3f}  "
        f"exact TC {traj_tc.n_ph.min():.3f}..{traj_tc.n_ph.max():.3f}"
    )
    # the clean Rabi observable is the target dressed population; bare
    # populations carry an O(g/Delta) spectator beat the cosine cannot absorb
    target = spec_crt.state(5, 2)
    try:
        fit = fit_rabi(
            traj_crt,
            lambda tr: np.array(
                [abs(np.vdot(target, st.amplitudes)) ** 2 for st in tr.states]
            ),
        )
        _print(
            f"  fitted |Xi| = {fit.rate:.6e} "
            f"({abs(fit.rate - q)/q:.1%} from closed form, "
            f"residual rms {fit.residual_rms:.2e})"
        )
    except DickemodError as exc:
        _print(f"  rate fit not available: {exc}")
    _print(f"wrote {out}")
    return 0


def _cmd_figure2(out_dir: Path, svg: bool, eta_factor=None, eta_factor_2=None) -> int:
    systems = six_qubit_systems()
    params, space, psi0 = systems["g"].params, systems["g"].space, systems["g"].psi0
    two_delta = 2.0 * abs(params.delta_minus)
    factor_g = eta_factor if eta_factor is not None else 1.0389
    factor_go = eta_factor_2 if eta_factor_2 is not None else 1.0388
    eta_g = factor_g * two_delta
    eta_go = factor_go * two_delta
    sched_g = systems["g"].drive(eta_g)
    sched_go = systems["go"].drive(eta_go)
    q = abs(two_photon_rate_closed_form(params, sched_g, 5, 0))
    span, count = snapped_span(eta_g, 2.2 * math.pi / q, 501)
    traj_g = evolve_schrodinger(space, params, sched_g, psi0, span, count, tol=1e-9)
    traj_go = evolve_schrodinger(space, params, sched_go, psi0, span, count, tol=1e-9)

    t_axis = traj_g.times * q / math.pi
    out = out_dir / "figure2.csv"
    write_csv(
        out,
        "figure2",
        [
            ("t_q_over_pi", t_axis),
            ("n_ph_gmod", traj_g.n_ph),
            ("n_at_gmod", traj_g.n_at),
            ("n_ph_gOmegamod", traj_go.n_ph),
            ("n_at_gOmegamod", traj_go.n_at),
        ],
        {
            "n_qubits": 6,
            "omega0": 1.0,
            "Omega0": 1.72,
            "g0": params.g0_uniform,
            "n_max": space.n_max,
            "initial_state": "coherent(alpha_squared=5.5, k=0)",
            "epsilon_g_over_g0": 0.1,
            "epsilon_Omega_over_abs_delta": 0.1,
            "phi_Omega": math.pi,
            "eta_factor_gmod": factor_g,
            "eta_factor_gOmegamod": factor_go,
            "q_closed_form_gmod": q,
        },
    )
    if svg:
        write_svg(out_dir / "figure2.svg", "collective two-photon exchange, N=6",
                  "t q / pi", "<n>", t_axis,
                  [("n_ph g-mod", traj_g.n_ph), ("n_at g-mod", traj_g.n_at),
                   ("n_ph g+Omega", traj_go.n_ph), ("n_at g+Omega", traj_go.n_at)])
    _print(
        f"figure2: eta/2|Delta| = {factor_g} (g mod), {factor_go} (g+Omega); "
        f"q = {q:.6e}"
    )
    _print(f"wrote {out}")
    return 0


def _cmd_figure3(out_dir: Path, svg: bool, eta_factor=None, eta_factor_2=None) -> int:
    systems = six_qubit_systems()
    params, space, psi0 = systems["go"].params, systems["go"].space, systems["go"].psi0
    two_delta = 2.0 * abs(params.delta_minus)
    factor = eta_factor if eta_factor is not None else 1.0388
    eta = factor * two_delta
    sched = systems["go"].drive(eta)
    q = abs(two_photon_rate_closed_form(params, systems["g"].drive(eta), 5, 0))
    span, count = snapped_span(eta, 2.2 * math.pi / q, 501)
    traj = evolve_schrodinger(space, params, sched, psi0, span, count, tol=1e-9)

    t_axis = traj.times * q / math.pi
    out = out_dir / "figure3.csv"
    write_csv(
        out,
        "figure3",
        [
            ("t_q_over_pi", t_axis),
            ("p_ph_5", traj.p_ph(5)),
            ("p_ph_3", traj.p_ph(3)),
            ("p_ph_2", traj.p_ph(2)),
            ("p_at_0", traj.p_at(0)),
            ("p_at_2", traj.p_at(2)),
            ("p_at_3", traj.p_at(3)),
        ],
        {
            "n_qubits": 6,
            "g0": params.g0_uniform,
            "n_max": space.n_max,
            "initial_state": "coherent(alpha_squared=5.5, k=0)",
            "eta_factor": factor,
            "q_closed_form_gmod": q,
        },
    )
    if svg:
        write_svg(out_dir / "figure3.svg", "bare populations, N=6", "t q / pi",
                  "population", t_axis,
                  [("P_ph(5)", traj.p_ph(5)), ("P_ph(3)", traj.p_ph(3)),
                   ("P_ph(2)", traj.p_ph(2)), ("P_at(0)", traj.p_at(0)),
                   ("P_at(2)", traj.p_at(2)), ("P_at(3)", traj.p_at(3))])
    _print(f"figure3: eta/2|Delta| = {factor}")
    _print(f"wrote {out}")
    return 0


def _cmd_figure4(out_dir: Path, svg: bool, eta_factor=None, eta_factor_2=None) -> int:
    pair = circuit_pair_systems()
    real, ideal = pair["realistic"], pair["ideal"]
    # qubit 1 of the realistic pair has the ideal pair's detuning
    two_delta = 2.0 * abs(ideal.params.delta_minus)
    factor_real = eta_factor if eta_factor is not None else 1.0632
    factor_ideal = eta_factor_2 if eta_factor_2 is not None else 1.0531

    us_per_unit = seconds_per_time_unit(OMEGA0_HZ) * 1e6
    t_final = 2.0 / us_per_unit  # two microseconds of dimensionless evolution
    traj_real = evolve_lindblad(
        real.space, real.params, real.drive(factor_real * two_delta), real.rates,
        DensityMatrix.from_state(real.psi0), (0.0, t_final), 601, tol=1e-9,
    )
    # reuse the dissipative run's stroboscopic grid so the CSV shares one t axis
    times = traj_real.times
    traj_ideal = evolve_schrodinger(
        ideal.space, ideal.params, ideal.drive(factor_ideal * two_delta), ideal.psi0,
        (times[0], times[-1]), len(times), tol=1e-9,
    )

    t_us = times * us_per_unit
    out = out_dir / "figure4.csv"
    write_csv(
        out,
        "figure4",
        [
            ("t_us", t_us),
            ("n_ph_ideal", traj_ideal.n_ph),
            ("n_at_ideal", traj_ideal.n_at),
            ("n_ph_realistic", traj_real.n_ph),
            ("n_at_realistic", traj_real.n_at),
        ],
        {
            "omega0_over_2pi_hz": OMEGA0_HZ,
            "g0_qubit1": real.params.g0[0],
            "g0_qubit2": real.params.g0[1],
            "Omega_qubit1": 1.72,
            "Omega_qubit2": real.params.Omega0[1],
            "kappa_over_g0": 5e-5,
            "gamma_over_g0": 5e-5,
            "gamma_phi_over_g0": 5e-5,
            "initial_state": "coherent(alpha_squared=3, all qubits ground)",
            "eta_factor_realistic": factor_real,
            "eta_factor_ideal": factor_ideal,
            "n_max_realistic": real.space.n_max,
            "n_max_ideal": ideal.space.n_max,
        },
    )
    contrast_mask = t_us <= 1.0
    contrast = float(np.max(traj_real.n_at[contrast_mask])
                     - np.min(traj_real.n_at[contrast_mask]))
    if svg:
        write_svg(out_dir / "figure4.svg", "circuit-QED pair, 10 GHz cavity",
                  "t (us)", "<n>", t_us,
                  [("n_ph ideal", traj_ideal.n_ph), ("n_at ideal", traj_ideal.n_at),
                   ("n_ph realistic", traj_real.n_ph),
                   ("n_at realistic", traj_real.n_at)])
    _print(
        f"figure4: eta/2|Delta| = {factor_real} (realistic), {factor_ideal} (ideal); "
        f"n_at contrast over first microsecond = {contrast:.3f}"
    )
    _print(f"wrote {out}")
    return 0


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

_CONFIG_COMMANDS = {
    "spectrum": _cmd_spectrum,
    "rates": _cmd_rates,
    "evolve": _cmd_evolve,
    "lindblad": _cmd_lindblad,
    "sweep": _cmd_sweep,
}
_FIGURE_COMMANDS = {
    "figure1": _cmd_figure1,
    "figure2": _cmd_figure2,
    "figure3": _cmd_figure3,
    "figure4": _cmd_figure4,
}


def run_scenario(
    config_path,
    subcommand: str,
    output_dir,
    svg: bool = False,
    no_crt: bool = False,
    eta_factor: float | None = None,
    eta_factor_2: float | None = None,
) -> int:
    """Run one subcommand; returns the process exit status (0 on success)."""
    out_dir = Path(output_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output dir {out_dir}: {exc}") from exc
    if subcommand in _FIGURE_COMMANDS:
        return _FIGURE_COMMANDS[subcommand](out_dir, svg, eta_factor, eta_factor_2)
    if subcommand in _CONFIG_COMMANDS:
        if config_path is None:
            raise ConfigError(f"{subcommand} requires --config")
        cfg = load_config(Path(config_path))
        _reject_unknown_keys(cfg, str(config_path))
        return _CONFIG_COMMANDS[subcommand](cfg, out_dir, svg, no_crt)
    raise ConfigError(f"unknown subcommand {subcommand!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dickemod",
        description="Modulated collective cavity-QED simulator and analytics",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _CONFIG_COMMANDS:
        p = sub.add_parser(name, help=f"run {name} from a scenario config")
        p.add_argument("--config", required=True, help="scenario file")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--svg", action="store_true", help="also write SVG charts")
        p.add_argument("--no-crt", action="store_true",
                       help="drop counter-rotating terms regardless of the config")
    for name in _FIGURE_COMMANDS:
        p = sub.add_parser(name, help=f"regenerate the {name} dataset")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--svg", action="store_true", help="also write SVG charts")
        p.add_argument("--eta-factor", type=float, default=None,
                       help="override the primary run's eta / 2|Delta|")
        p.add_argument("--eta-factor-2", type=float, default=None,
                       help="override the secondary run's eta / 2|Delta|")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return run_scenario(
            getattr(args, "config", None),
            args.command,
            args.out,
            svg=args.svg,
            no_crt=getattr(args, "no_crt", False),
            eta_factor=getattr(args, "eta_factor", None),
            eta_factor_2=getattr(args, "eta_factor_2", None),
        )
    except NoResonanceError as exc:
        print(f"error[no-resonance]: {exc}", file=sys.stderr)
        return 5
    except ConfigError as exc:
        print(f"error[config]: {exc}", file=sys.stderr)
        return 2
    except PhysicsGuardError as exc:
        print(f"error[physics-guard]: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"error[numeric]: {exc}", file=sys.stderr)
        return 4
    except DickemodError as exc:
        print(f"error[failure]: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
