"""Command-line front end.

Scenario files are flat line-oriented text, `section.key = value`, designed to
round-trip exactly and diff cleanly. Subcommands compute spectra, rates,
trajectories and resonance sweeps from a config; the figure1..figure4 presets
hard-code the headline parameter sets so a single command regenerates each
reference plot's data. CSV is the canonical output; SVG line charts are a
convenience rendered natively.

Exit codes: 0 success; an error exits with its class's exit_code (errors.py):
2 configuration, 3 physics guard, 4 numerical or other package failure, 5 no
resonance found.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from .dispersive import (
    default_subspaces,
    dispersive_spectrum,
    eta_resonant,
    lambda_perturbative,
    project_initial,
    reconstruct_state,
    rwa_solution,
    transition_rate_general,
    two_photon_rate_closed_form,
)
from .dynamics import (
    DensityMatrix,
    Trajectory,
    evolve_lindblad,
    evolve_schrodinger,
    lindblad_grid,
    snapped_span,
)
from .errors import ConfigError, DickemodError, PhysicsGuardError
from .hilbert import SpaceSpec, StateVector, coherent_state, dicke_fock_state, observables
from .model import (
    DissipationRates,
    ModulationSchedule,
    SystemParams,
    seconds_per_time_unit,
    validate_schedules,
)
from .scan import (TransferScenario, _observable_token, _select_observable, fit_rabi,
                   sweep_resonance)

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
        # a nested sequence keeps its parentheses: ((0, 0), (1, 1)) reads "(0, 0), (1, 1)"
        body = ", ".join(f"({_encode_value(x)})" if isinstance(x, (tuple, list))
                         else _encode_value(x) for x in v)
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


def _decode_value(raw: str, nested: bool = False):
    """The inverse of _encode_value: a value with a comma outside parentheses
    is a tuple (a trailing comma ends a one-element one), and in a tuple a
    parenthesised item is a nested tuple; nested decodes an item's inside,
    which is a tuple even without a comma."""
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(raw):
        depth += (ch == "(") - (ch == ")")
        if ch == "," and depth == 0:
            parts.append(raw[start:i])
            start = i + 1
    if not (parts or nested):
        return _decode_scalar(raw)
    if raw[start:].strip():
        parts.append(raw[start:])
    items = [p.strip() for p in parts]
    return tuple(_decode_value(p[1:-1], nested=True) if p[:1] == "(" and p[-1:] == ")"
                 else _decode_scalar(p) for p in items)


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


# every key a section accepts, in emit order, with the type of its value; a
# (type,) value also takes a comma list. run_scenario rejects any other key or type
_SECTION_KEYS = {
    "system": {"n_qubits": int, "n_max": int, "omega0": float, "Omega0": (float,),
               "g0": (float,), "basis": str, "with_crt": bool},
    "dissipation": {"kappa": float, "gamma": (float,), "gamma_phi": (float,)},
    "initial_state": {"kind": str, "k": int, "n": int, "alpha_squared": float},
    "transition": {"n": int, "k": int},
    "run": {"t_final": float, "sample_count": int, "tol": float, "method": str,
            "time_unit": str},
    "sweep": {"factor_min": float, "factor_max": float, "grid_points": int,
              "horizon": float, "zoom": bool},
    "outputs": {"observables": (str,)},
}
_SCHEDULE_KEYS = {"target": str, "epsilon": float, "eta": float, "phi": float, "qubit": int}
_TYPE_NAMES = {int: "an integer", float: "a number", bool: "true or false", str: "a word"}


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


def _has_type(value, kind) -> bool:
    """Whether value is of kind, where an integer counts as a number and
    true or false as neither, and a (kind,) tuple takes one or a tuple of them."""
    if isinstance(kind, tuple):
        items = value if isinstance(value, tuple) else (value,)
        return all(_has_type(v, kind[0]) for v in items)
    if isinstance(value, bool) or kind is bool:
        return isinstance(value, bool) and kind is bool
    return isinstance(value, (int, float) if kind is float else kind)


def _check_keys(cfg: ScenarioConfig, origin: str) -> None:
    """A misspelled key would otherwise run silently with its default, and a
    value of the wrong type would be cast (7.9 samples to 7, no to true)."""
    buckets = [(name, getattr(cfg, name), known) for name, known in _SECTION_KEYS.items()]
    buckets += [(f"schedule{i}", d, _SCHEDULE_KEYS) for i, d in enumerate(cfg.schedules)]
    for section, bucket, known in buckets:
        for name, value in bucket.items():
            if name not in known:
                raise ConfigError(
                    f"{origin}: unknown key {section}.{name}; "
                    f"{section} accepts {', '.join(known)}"
                )
            kind = known[name]
            if not _has_type(value, kind):
                what = (f"{_TYPE_NAMES[kind[0]]}, or a comma list of them"
                        if isinstance(kind, tuple) else _TYPE_NAMES[kind])
                raise ConfigError(
                    f"{origin}: {section}.{name} = {_encode_value(value)} must be {what}"
                )


def load_config(path: Path) -> ScenarioConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
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
    return SpaceSpec(n_qubits=n_qubits, n_max=n_max, basis=basis)


def build_params(cfg: ScenarioConfig) -> SystemParams:
    omega0, Omega0, g0, n_qubits = _require(
        cfg.system, "system", "omega0", "Omega0", "g0", "n_qubits"
    )
    return SystemParams(
        omega0=float(omega0),
        Omega0=Omega0,
        g0=g0,
        n_qubits=n_qubits,
        with_crt=cfg.system.get("with_crt", True),
    )


def build_schedules(cfg: ScenarioConfig) -> tuple[ModulationSchedule, ...]:
    out = []
    for i, d in enumerate(cfg.schedules):
        target, epsilon, eta = _require(d, f"schedule{i}", "target", "epsilon", "eta")
        out.append(
            ModulationSchedule(
                target=target,
                epsilon=float(epsilon),
                eta=float(eta),
                phi=float(d.get("phi", 0.0)),
                qubit=d.get("qubit"),
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
        return dicke_fock_state(space, k, n)
    if kind == "coherent":
        (a2,) = _require(st, "initial_state", "alpha_squared")
        if not a2 >= 0:
            raise ConfigError(f"initial_state.alpha_squared = {a2} must be >= 0")
        return coherent_state(space, math.sqrt(a2), st.get("k", 0))
    raise ConfigError(
        f"initial_state.kind must be 'dicke_fock' or 'coherent', got {kind!r}"
    )


def _closed_rate_for(cfg, params, schedules) -> float:
    n, k = _require(cfg.transition, "transition", "n", "k")
    xi = two_photon_rate_closed_form(params, schedules, n, k)
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


# run keys the library takes as keywords; one the config leaves out is not
# passed, so the library's own default applies
_RUN_KEYWORDS = ("sample_count", "tol", "method")


def _run_keywords(cfg) -> dict:
    return {key: cfg.run[key] for key in _RUN_KEYWORDS if key in cfg.run}


def build_run_options(cfg) -> dict:
    """t_final, sample_count (401 when unset) and whichever of tol and method
    the config sets."""
    (t_final,) = _require(cfg.run, "run", "t_final")
    return {"t_final": float(t_final), "sample_count": 401, **_run_keywords(cfg)}


def _output_tokens(cfg, space: SpaceSpec) -> list[str]:
    """outputs.observables (n_ph, n_at when unset), every token checked
    against the space, so a bad one exits 2 before anything evolves."""
    tokens = cfg.outputs.get("observables", ("n_ph", "n_at"))
    if isinstance(tokens, str):
        tokens = (tokens,)
    for token in tokens:
        _observable_token(space, token)
    return list(tokens)


# ---------------------------------------------------------------------------
# CSV / SVG writers
# ---------------------------------------------------------------------------

def _write_text(path: Path, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror}") from exc


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
    _write_text(path, "\n".join(lines) + "\n")


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
    _write_text(path, "\n".join(parts) + "\n")


def _emit(out_dir: Path, command: str, svg: bool, columns, meta: dict, chart, summary) -> int:
    """The one output path of every subcommand: <command>.csv, <command>.svg
    with svg, then the summary lines and the path written.

    columns lists each column once as (csv name, values, legend). The first
    column with a legend is the chart's x axis, its legend the axis label, and
    every later one with a legend is a series; legend None keeps a column out
    of the chart. chart is (title, y label), or None for a command that does
    not read svg.
    """
    out = out_dir / f"{command}.csv"
    write_csv(out, command, [(name, values) for name, values, _ in columns], meta)
    if svg:
        (_, x, xlabel), *series = [c for c in columns if c[2] is not None]
        write_svg(out_dir / f"{command}.svg", chart[0], xlabel, chart[1], x,
                  [(legend, y) for _, y, legend in series])
    for line in summary:
        print(line)
    print(f"wrote {out}")
    return 0


# ---------------------------------------------------------------------------
# subcommand runners: each returns _emit's (columns, meta, chart, summary)
# ---------------------------------------------------------------------------

def _cmd_spectrum(cfg):
    space = build_space(cfg)
    params = build_params(cfg)
    # one subspace at a time, up to the first whose labels (or whose m +- 2
    # neighbours' labels) break down near the cutoff
    specs, stop = [], None
    for m in default_subspaces(space, params):
        try:
            specs.append(dispersive_spectrum(space, params, subspaces=(m,)))
        except PhysicsGuardError as exc:
            if not specs:
                raise
            stop = (m, f"{type(exc).__name__}: {exc}")
            break
    rows = [(spec, m, k) for spec in specs for m in spec.subspaces for k in spec.labels(m)]
    columns = [
        ("m", np.array([m for _, m, _ in rows], dtype=float), None),
        ("k", np.array([k for _, _, k in rows], dtype=float), None),
        ("lambda_exact", np.array([spec.lam(m, k) for spec, m, k in rows]), None),
        ("nu_crt", np.array([spec.nu(m, k) for spec, m, k in rows]), None),
        ("lambda_tilde", np.array([spec.lam_tilde(m, k) for spec, m, k in rows]), None),
        ("lambda_perturbative",
         np.array([lambda_perturbative(params, m, k) for _, m, k in rows]), None),
    ]
    meta = {
        "n_qubits": space.n_qubits,
        "n_max": space.n_max,
        "omega0": params.omega0,
        "Omega0": params.Omega0,
        "g0": params.g0,
        "with_crt": params.with_crt,
    }
    summary = f"spectrum: {len(rows)} dressed levels across {len(specs)} subspaces"
    if stop is not None:
        meta["stopped_at_m"], meta["stopped_by"] = stop
        summary += f"; stopped at m={stop[0]}: {stop[1]}"
    return columns, meta, None, [summary]


def _cmd_rates(cfg):
    space = build_space(cfg)
    params = build_params(cfg)
    schedules = build_schedules(cfg)
    if not schedules:
        raise ConfigError("rates needs at least one schedule section")
    validate_schedules(params, schedules)
    (m,) = _require(cfg.transition, "transition", "n")
    spec = dispersive_spectrum(space, params, subspaces=(m,))
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
    columns = [
        ("k_from", np.array(ks, dtype=float), None),
        ("k_to", np.array(ks, dtype=float) + 2, None),
        ("xi_closed_abs", np.array(closed_abs), None),
        ("xi_closed_re", np.array(closed_re), None),
        ("xi_closed_im", np.array(closed_im), None),
        ("xi_exact_abs", np.array(exact_abs), None),
        ("xi_exact_re", np.array(exact_re), None),
        ("xi_exact_im", np.array(exact_im), None),
        ("eta_res_formula", np.array(eta_f), None),
        ("eta_res_exact", np.array(eta_x), None),
    ]
    two_delta = 2.0 * abs(params.delta_minus)
    summary = [f"rates in subspace n={m} (eta factors relative to 2|Delta| = {two_delta:.6g}):"]
    summary += [
        f"  k={k} -> {k+2}: |Xi_closed| = {closed_abs[i]:.6e}  "
        f"|Xi_exact| = {exact_abs[i]:.6e}  "
        f"eta_r = {eta_x[i]:.8g} (factor {eta_x[i]/two_delta:.6f})"
        for i, k in enumerate(ks)
    ]
    return columns, {"n": m, "with_crt": params.with_crt}, None, summary


# evolve and lindblad differ only here: whether the run is dissipative (the
# master equation), the refusal when the config's rates say otherwise, and
# the gate the summary line reports
_TRAJECTORY_COMMANDS = {
    "evolve": (False, "config has nonzero dissipation; use the lindblad subcommand",
               "norm_drift_max"),
    "lindblad": (True, "lindblad needs a dissipation section with nonzero rates",
                 "trace_drift_max"),
}


def _cmd_trajectory(command: str, cfg):
    dissipative, refusal, gate = _TRAJECTORY_COMMANDS[command]
    space = build_space(cfg)
    params = build_params(cfg)
    schedules = build_schedules(cfg)
    psi0 = build_initial_state(cfg, space)
    tokens = _output_tokens(cfg, space)
    scale, t_name = _time_scale(cfg, params, schedules)
    opts = build_run_options(cfg)
    rates = build_rates(cfg, space.n_qubits)
    lossless = rates is None or rates.all_zero
    if dissipative == lossless:
        raise ConfigError(refusal)
    span = (0.0, opts.pop("t_final") * scale)
    if dissipative:
        span, opts["sample_count"] = lindblad_grid(schedules, span[1], opts["sample_count"],
                                                   opts.get("method", "auto"))
        traj = evolve_lindblad(space, params, schedules, rates,
                               DensityMatrix.from_state(psi0), span, **opts)
    else:
        traj = evolve_schrodinger(space, params, schedules, psi0, span, **opts)
    md = traj.metadata
    columns = [(t_name, traj.times / scale, t_name)] + [
        (tok.replace(":", "_"), _select_observable(traj, tok), tok.replace(":", "_"))
        for tok in tokens
    ]
    # the header is the run's whole record, whatever its engine wrote
    meta = {**md, "time_unit": cfg.run.get("time_unit", "one_over_omega0")}
    # "norm_drift_max" reads "norm drift" on stdout
    label = gate.removesuffix("_max").replace("_", " ")
    return columns, meta, (command, "observables"), [
        f"{command}: engine={md['engine']} samples={len(traj.times)} {label}={md[gate]:.2e}"
    ]


def _cmd_sweep(cfg):
    space = build_space(cfg)
    params = build_params(cfg)
    schedules = build_schedules(cfg)
    if not schedules:
        raise ConfigError("sweep needs at least one schedule section")
    psi0 = build_initial_state(cfg, space)
    n, k = _require(cfg.transition, "transition", "n", "k")
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
        rates=rates,
        **_run_keywords(cfg),
    )
    horizon = sw.get("horizon")
    result = sweep_resonance(
        scenario,
        (float(f_lo) * two_delta, float(f_hi) * two_delta),
        points,
        horizon=float(horizon) if horizon is not None else None,
        zoom=sw.get("zoom", True),
    )
    # the sweep's record: its per-point arrays are columns, its scalars header lines
    record = result.fit_diagnostics
    columns = [
        ("eta", result.etas, None),
        ("eta_factor", result.etas / two_delta, "eta / 2|Delta|"),
        ("transfer", result.transfer, "transfer"),
    ] + [(key, v, None) for key, v in record.items() if isinstance(v, np.ndarray)]
    meta = {
        "peak_eta": result.peak_eta,
        "peak_factor": result.peak_eta / two_delta,
        "peak_width": result.peak_width,
        **{key: v for key, v in record.items() if not isinstance(v, np.ndarray)},
        "transition_n": n,
        "transition_k": k,
    }
    return columns, meta, ("resonance sweep", "max transfer"), [
        f"sweep: peak eta = {result.peak_eta:.9g} "
        f"(factor {result.peak_eta/two_delta:.6f}), width ~ {result.peak_width:.3g}, "
        f"peak transfer {record['peak_transfer']:.3f}"
    ]


# ---------------------------------------------------------------------------
# figure presets
# ---------------------------------------------------------------------------

# every preset drives at 10% depth: epsilon = 0.1 g0 for g, 0.1 |Delta| for Omega
DRIVE_DEPTH = 0.1
# figure4's kappa, gamma and gamma_phi, each in units of its qubit's g0
CIRCUIT_LOSS_OVER_G0 = 5e-5
# eta / 2|Delta| of the N=6 g+Omega drive: figure2's second run and figure3
SIX_QUBIT_G_OMEGA_FACTOR = 1.0388


def _g_schedule(g0: float, eta: float):
    return (ModulationSchedule(target="g", epsilon=DRIVE_DEPTH * g0, eta=eta, phi=0.0),)


@dataclass(frozen=True)
class PresetSystem:
    """One figure system: parameters, space, initial state and the header's
    description of it, its drive at a given eta, and the dissipation of the
    dissipative presets."""

    params: SystemParams
    space: SpaceSpec
    psi0: StateVector
    state: str
    drive: Callable[[float], tuple[ModulationSchedule, ...]]
    rates: DissipationRates | None = None


def two_qubit_systems() -> dict[str, PresetSystem]:
    """figure1: N=2 from the Fock state |k=0, n=5>, coupling driven at 10%
    depth, with ("crt") and without ("tc") counter-rotating terms."""
    g0 = 0.08 / math.sqrt(2)
    params = SystemParams(omega0=1.0, Omega0=1.72, g0=g0, n_qubits=2, with_crt=True)
    space = SpaceSpec(n_qubits=2, n_max=12)
    k, n = 0, 5
    psi0 = dicke_fock_state(space, k, n)
    return {
        tag: PresetSystem(dataclasses.replace(params, with_crt=with_crt), space, psi0,
                          f"dicke_fock(k={k}, n={n})", lambda eta: _g_schedule(g0, eta))
        for tag, with_crt in (("crt", True), ("tc", False))
    }


def six_qubit_systems() -> dict[str, PresetSystem]:
    """figure2/figure3: N=6 from a coherent field |alpha|^2 = 5.5 with every
    qubit down; the coupling drive alone ("g") or joined by an antiphase
    qubit-splitting drive ("go"), both at 10% depth."""
    g0 = 0.08 / math.sqrt(6)
    params = SystemParams(omega0=1.0, Omega0=1.72, g0=g0, n_qubits=6, with_crt=True)
    space = SpaceSpec(n_qubits=6, n_max=21)
    alpha_squared = 5.5
    psi0 = coherent_state(space, math.sqrt(alpha_squared), 0)
    state = f"coherent(alpha_squared={alpha_squared}, k=0)"

    def g_and_omega(eta):
        return _g_schedule(g0, eta) + (
            ModulationSchedule(target="Omega", epsilon=DRIVE_DEPTH * abs(params.delta_minus),
                               eta=eta, phi=math.pi),
        )

    return {
        "g": PresetSystem(params, space, psi0, state, lambda eta: _g_schedule(g0, eta)),
        "go": PresetSystem(params, space, psi0, state, g_and_omega),
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
    alpha_squared = 3
    state = f"coherent(alpha_squared={alpha_squared}, all qubits ground)"

    def per_qubit_drive(eta):
        return tuple(
            ModulationSchedule(target="g", epsilon=DRIVE_DEPTH * g, eta=eta, phi=0.0,
                               qubit=i + 1)
            for i, g in enumerate((g1, g2))
        )

    loss = (CIRCUIT_LOSS_OVER_G0 * g1, CIRCUIT_LOSS_OVER_G0 * g2)
    realistic = PresetSystem(
        SystemParams(omega0=1.0, Omega0=(1.72, 1.0 + 1.02 * 0.72), g0=(g1, g2),
                     n_qubits=2, with_crt=True),
        real_space,
        coherent_state(real_space, math.sqrt(alpha_squared), 0),
        state,
        per_qubit_drive,
        DissipationRates(kappa=loss[0], gamma=loss, gamma_phi=loss),
    )
    ideal = PresetSystem(
        SystemParams(omega0=1.0, Omega0=1.72, g0=g1, n_qubits=2, with_crt=True),
        ideal_space,
        coherent_state(ideal_space, math.sqrt(alpha_squared), 0),
        state,
        lambda eta: _g_schedule(g1, eta),
    )
    return {"realistic": realistic, "ideal": ideal}


def _figure1_analytic(spec, space, schedules, psi0, times) -> Trajectory:
    """Two-level rotation of the resonant dressed pair, spectators frozen, as
    a Trajectory of the reconstructed states' joint distributions."""
    eff0 = project_initial(spec, psi0)
    rate = transition_rate_general(spec, schedules, 5, 2, 0)
    b_t0 = eff0.amplitude(5, 2)
    b_s0 = eff0.amplitude(5, 0)
    b_t, b_s = rwa_solution(rate.xi, b_t0, b_s0, times)
    idx_t = eff0.labels.index((5, 2))
    idx_s = eff0.labels.index((5, 0))
    joint = np.empty((len(times), space.n_qubits + 1, space.photon_dim))
    for i, t in enumerate(times):
        b = eff0.b.copy()
        b[idx_t] = b_t[i]
        b[idx_s] = b_s[i]
        joint[i] = observables(reconstruct_state(spec, schedules, eff0.labels, b, float(t)),
                               space)
    return Trajectory(space, times, joint, None)


def _uniform_system_meta(system: PresetSystem) -> dict:
    """The header lines figure1 and figure2 share, read from the system."""
    return {
        "n_qubits": system.space.n_qubits,
        "omega0": system.params.omega0,
        "Omega0": system.params.Omega0_uniform,
        "g0": system.params.g0_uniform,
        "n_max": system.space.n_max,
        "initial_state": system.state,
        "epsilon_g_over_g0": DRIVE_DEPTH,
    }


def _cmd_figure1(factor_crt: float, factor_tc: float):
    systems = two_qubit_systems()
    crt, tc = systems["crt"], systems["tc"]
    space, psi0 = crt.space, crt.psi0
    two_delta = 2.0 * abs(crt.params.delta_minus)
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
    analytic = _figure1_analytic(spec_crt, space, sched_crt, psi0, traj_crt.times)

    columns = [
        ("t_q_over_pi", traj_crt.times * q / math.pi, "t q / pi"),
        ("n_ph_analytic", analytic.n_ph, "n_ph analytic"),
        ("n_ph_exactCRT", traj_crt.n_ph, "n_ph CRT"),
        ("n_ph_exactTC", traj_tc.n_ph, "n_ph TC"),
        ("n_at_analytic", analytic.n_at, "n_at analytic"),
        ("n_at_exactCRT", traj_crt.n_at, "n_at CRT"),
        ("n_at_exactTC", traj_tc.n_at, "n_at TC"),
    ]
    meta = {
        **_uniform_system_meta(crt),
        "phi_g": sched_crt[0].phi,
        "eta_factor_crt": factor_crt,
        "eta_factor_tc": factor_tc,
        "eta_crt": eta_crt,
        "eta_tc": eta_tc,
        "q_closed_form": q,
    }
    summary = [
        f"figure1: eta/2|Delta| = {factor_crt} (with CRT), {factor_tc} (without); "
        f"q = {q:.6e}",
        f"  n_ph swing: analytic {analytic.n_ph.min():.3f}..{analytic.n_ph.max():.3f}  "
        f"exact CRT {traj_crt.n_ph.min():.3f}..{traj_crt.n_ph.max():.3f}  "
        f"exact TC {traj_tc.n_ph.min():.3f}..{traj_tc.n_ph.max():.3f}",
    ]
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
        summary.append(
            f"  fitted |Xi| = {fit.rate:.6e} "
            f"({abs(fit.rate - q)/q:.1%} from closed form, "
            f"residual rms {fit.residual_rms:.2e})"
        )
    except DickemodError as exc:
        summary.append(f"  rate fit not available: {exc}")
    return columns, meta, ("two-photon exchange, N=2", "<n>"), summary


def _cmd_figure2(factor_g: float, factor_go: float):
    systems = six_qubit_systems()
    params, space, psi0 = systems["g"].params, systems["g"].space, systems["g"].psi0
    two_delta = 2.0 * abs(params.delta_minus)
    eta_g = factor_g * two_delta
    eta_go = factor_go * two_delta
    sched_g = systems["g"].drive(eta_g)
    sched_go = systems["go"].drive(eta_go)
    q = abs(two_photon_rate_closed_form(params, sched_g, 5, 0))
    span, count = snapped_span(eta_g, 2.2 * math.pi / q, 501)
    traj_g = evolve_schrodinger(space, params, sched_g, psi0, span, count, tol=1e-9)
    traj_go = evolve_schrodinger(space, params, sched_go, psi0, span, count, tol=1e-9)

    columns = [
        ("t_q_over_pi", traj_g.times * q / math.pi, "t q / pi"),
        ("n_ph_gmod", traj_g.n_ph, "n_ph g-mod"),
        ("n_at_gmod", traj_g.n_at, "n_at g-mod"),
        ("n_ph_gOmegamod", traj_go.n_ph, "n_ph g+Omega"),
        ("n_at_gOmegamod", traj_go.n_at, "n_at g+Omega"),
    ]
    meta = {
        **_uniform_system_meta(systems["g"]),
        "epsilon_Omega_over_abs_delta": DRIVE_DEPTH,
        "phi_Omega": sched_go[1].phi,
        "eta_factor_gmod": factor_g,
        "eta_factor_gOmegamod": factor_go,
        "q_closed_form_gmod": q,
    }
    return columns, meta, ("collective two-photon exchange, N=6", "<n>"), [
        f"figure2: eta/2|Delta| = {factor_g} (g mod), {factor_go} (g+Omega); "
        f"q = {q:.6e}"
    ]


def _cmd_figure3(factor: float):
    systems = six_qubit_systems()
    params, space, psi0 = systems["go"].params, systems["go"].space, systems["go"].psi0
    two_delta = 2.0 * abs(params.delta_minus)
    eta = factor * two_delta
    sched = systems["go"].drive(eta)
    q = abs(two_photon_rate_closed_form(params, systems["g"].drive(eta), 5, 0))
    span, count = snapped_span(eta, 2.2 * math.pi / q, 501)
    traj = evolve_schrodinger(space, params, sched, psi0, span, count, tol=1e-9)

    columns = [
        ("t_q_over_pi", traj.times * q / math.pi, "t q / pi"),
        ("p_ph_5", traj.p_ph(5), "P_ph(5)"),
        ("p_ph_3", traj.p_ph(3), "P_ph(3)"),
        ("p_ph_2", traj.p_ph(2), "P_ph(2)"),
        ("p_at_0", traj.p_at(0), "P_at(0)"),
        ("p_at_2", traj.p_at(2), "P_at(2)"),
        ("p_at_3", traj.p_at(3), "P_at(3)"),
    ]
    meta = {
        "n_qubits": space.n_qubits,
        "g0": params.g0_uniform,
        "n_max": space.n_max,
        "initial_state": systems["go"].state,
        "eta_factor": factor,
        "q_closed_form_gmod": q,
    }
    return columns, meta, ("bare populations, N=6", "population"), [
        f"figure3: eta/2|Delta| = {factor}"
    ]


def _cmd_figure4(factor_real: float, factor_ideal: float):
    pair = circuit_pair_systems()
    real, ideal = pair["realistic"], pair["ideal"]
    # qubit 1 of the realistic pair has the ideal pair's detuning
    two_delta = 2.0 * abs(ideal.params.delta_minus)

    us_per_unit = seconds_per_time_unit(OMEGA0_HZ) * 1e6
    t_final = 2.0 / us_per_unit  # two microseconds of dimensionless evolution
    drive_real = real.drive(factor_real * two_delta)
    span, count = lindblad_grid(drive_real, t_final, 601)
    traj_real = evolve_lindblad(real.space, real.params, drive_real, real.rates,
                                DensityMatrix.from_state(real.psi0), span, count, tol=1e-9)
    # the ideal run shares the dissipative run's period-aligned grid, one t axis
    times = traj_real.times
    traj_ideal = evolve_schrodinger(
        ideal.space, ideal.params, ideal.drive(factor_ideal * two_delta), ideal.psi0,
        (times[0], times[-1]), len(times), tol=1e-9,
    )

    t_us = times * us_per_unit
    columns = [
        ("t_us", t_us, "t (us)"),
        ("n_ph_ideal", traj_ideal.n_ph, "n_ph ideal"),
        ("n_at_ideal", traj_ideal.n_at, "n_at ideal"),
        ("n_ph_realistic", traj_real.n_ph, "n_ph realistic"),
        ("n_at_realistic", traj_real.n_at, "n_at realistic"),
    ]
    meta = {
        "omega0_over_2pi_hz": OMEGA0_HZ,
        "g0_qubit1": real.params.g0[0],
        "g0_qubit2": real.params.g0[1],
        "Omega_qubit1": real.params.Omega0[0],
        "Omega_qubit2": real.params.Omega0[1],
        "kappa_over_g0": CIRCUIT_LOSS_OVER_G0,
        "gamma_over_g0": CIRCUIT_LOSS_OVER_G0,
        "gamma_phi_over_g0": CIRCUIT_LOSS_OVER_G0,
        "initial_state": real.state,
        "eta_factor_realistic": factor_real,
        "eta_factor_ideal": factor_ideal,
        "n_max_realistic": real.space.n_max,
        "n_max_ideal": ideal.space.n_max,
    }
    contrast_mask = t_us <= 1.0
    contrast = float(np.max(traj_real.n_at[contrast_mask])
                     - np.min(traj_real.n_at[contrast_mask]))
    return columns, meta, ("circuit-QED pair, 10 GHz cavity", "<n>"), [
        f"figure4: eta/2|Delta| = {factor_real} (realistic), {factor_ideal} (ideal); "
        f"n_at contrast over first microsecond = {contrast:.3f}"
    ]


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

# config subcommand -> (runner, the options it reads): every one reads --config,
# and those that draw a chart read --svg
_CONFIG_COMMANDS = {
    "spectrum": (_cmd_spectrum, ("config_path",)),
    "rates": (_cmd_rates, ("config_path",)),
    "evolve": (functools.partial(_cmd_trajectory, "evolve"), ("config_path", "svg")),
    "lindblad": (functools.partial(_cmd_trajectory, "lindblad"), ("config_path", "svg")),
    "sweep": (_cmd_sweep, ("config_path", "svg")),
}
# preset -> (runner, the eta / 2|Delta| overrides it reads with their defaults,
# in the runner's argument order); every preset also reads --svg
_FIGURE_COMMANDS = {
    "figure1": (_cmd_figure1, {"eta_factor": 1.0678, "eta_factor_2": 1.0540}),
    "figure2": (_cmd_figure2, {"eta_factor": 1.0389,
                               "eta_factor_2": SIX_QUBIT_G_OMEGA_FACTOR}),
    "figure3": (_cmd_figure3, {"eta_factor": SIX_QUBIT_G_OMEGA_FACTOR}),
    "figure4": (_cmd_figure4, {"eta_factor": 1.0632, "eta_factor_2": 1.0531}),
}
_ETA_HELP = {"eta_factor": "the first run's", "eta_factor_2": "the second run's"}


def run_scenario(
    config_path,
    subcommand: str,
    output_dir,
    svg: bool = False,
    eta_factor: float | None = None,
    eta_factor_2: float | None = None,
) -> int:
    """Run one subcommand; returns the process exit status (0 on success).

    An option the subcommand does not read is refused, not ignored.
    """
    if subcommand in _FIGURE_COMMANDS:
        runner, defaults = _FIGURE_COMMANDS[subcommand]
        reads = ("svg", *defaults)
    elif subcommand in _CONFIG_COMMANDS:
        runner, reads = _CONFIG_COMMANDS[subcommand]
    else:
        raise ConfigError(f"unknown subcommand {subcommand!r}")
    options = {"config_path": config_path, "svg": svg or None, "eta_factor": eta_factor,
               "eta_factor_2": eta_factor_2}
    unread = [k for k, v in options.items() if v is not None and k not in reads]
    if unread:
        raise ConfigError(f"{subcommand} does not read {', '.join(unread)}")
    out_dir = Path(output_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output dir {out_dir}: {exc}") from exc
    if subcommand in _FIGURE_COMMANDS:
        factors = (d if options[k] is None else options[k] for k, d in defaults.items())
        return _emit(out_dir, subcommand, svg, *runner(*factors))
    if config_path is None:
        raise ConfigError(f"{subcommand} requires --config")
    cfg = load_config(Path(config_path))
    _check_keys(cfg, str(config_path))
    return _emit(out_dir, subcommand, svg, *runner(cfg))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dickemod",
        description="Modulated collective cavity-QED simulator and analytics",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, reads) in _CONFIG_COMMANDS.items():
        p = sub.add_parser(name, help=f"run {name} from a scenario config")
        p.add_argument("--config", required=True, help="scenario file")
        p.add_argument("--out", required=True, help="output directory")
        if "svg" in reads:
            p.add_argument("--svg", action="store_true", help="also write SVG charts")
    for name, (_, reads) in _FIGURE_COMMANDS.items():
        p = sub.add_parser(name, help=f"regenerate the {name} dataset")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--svg", action="store_true", help="also write SVG charts")
        for key, default in reads.items():
            p.add_argument("--" + key.replace("_", "-"), type=float, default=None,
                           help=f"override {_ETA_HELP[key]} eta / 2|Delta| "
                                f"(default {default})")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return run_scenario(
            getattr(args, "config", None),
            args.command,
            args.out,
            svg=getattr(args, "svg", False),
            eta_factor=getattr(args, "eta_factor", None),
            eta_factor_2=getattr(args, "eta_factor_2", None),
        )
    except DickemodError as exc:
        print(f"error[{exc.label}]: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
