"""Command-line interface: config codec, CSV output, exit codes."""

import contextlib
import inspect
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import dickemod
from dickemod import cli
from dickemod.cli import (
    CSV_SCHEMA,
    ScenarioConfig,
    build_parser,
    emit_config,
    load_config,
    main,
    parse_config,
    run_scenario,
    write_csv,
    write_svg,
)
from dickemod.dispersive import (
    dispersive_spectrum,
    eta_resonant,
    transition_rate_general,
    two_photon_rate_closed_form,
)
from dickemod.dynamics import CHANNEL_HERMITICITY_TOL, TRACE_DRIFT_TOL, UNITARY_DEFECT_TOL
from dickemod.errors import ConfigError, CutoffWarning, DickemodError
from dickemod.hilbert import SpaceSpec
from dickemod.model import ModulationSchedule, SystemParams

from oracles import cutoff_warning_ignored


G0 = 0.08 / math.sqrt(2)

SYSTEM_LINES = f"""\
system.n_qubits = 2
system.n_max = 8
system.omega0 = 1.0
system.Omega0 = 1.72
system.g0 = {G0!r}
"""

DRIVE_LINES = f"""\
schedule0.target = g
schedule0.epsilon = {0.1 * G0!r}
schedule0.eta = 1.4844444444444445
"""

STATE_LINES = """\
initial_state.kind = dicke_fock
initial_state.k = 0
initial_state.n = 3
"""


def write_cfg(tmp_path, text, name="scenario.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


def read_csv(path):
    """(meta dict, header list, data array) from one output file."""
    meta, header = {}, None
    rows = []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            body = line[1:].strip()
            if "=" in body:
                k, _, v = body.partition("=")
                meta[k.strip()] = v.strip()
            elif ":" in body:
                k, _, v = body.partition(":")
                meta[k.strip()] = v.strip()
        elif header is None:
            header = line.split(",")
        else:
            rows.append([float(x) for x in line.split(",")])
    return meta, header, np.array(rows)


# ---------------------------------------------------------------------------
# config codec
# ---------------------------------------------------------------------------

def test_config_round_trip():
    cfg = ScenarioConfig(
        system={"n_qubits": 2, "n_max": 12, "omega0": 1.0, "Omega0": 1.72,
                "g0": G0, "with_crt": False},
        schedules=[
            {"target": "g", "epsilon": 0.1 * G0, "eta": 1.4844444444444445},
            {"target": "Omega", "epsilon": 0.072, "eta": 1.48, "phi": math.pi,
             "qubit": 1},
        ],
        dissipation={"kappa": 1e-5, "gamma": (1e-5, 2e-5)},
        initial_state={"kind": "coherent", "alpha_squared": 5.5},
        transition={"n": 5, "k": 0},
        run={"t_final": 100.0, "sample_count": 41, "tol": 1e-9},
        sweep={"factor_min": 1.02, "factor_max": 1.09, "grid_points": 9,
               "zoom": True},
        outputs={"observables": ("n_ph", "n_at", "p_ph:5")},
    )
    assert parse_config(emit_config(cfg)) == cfg


def test_config_value_forms():
    cfg = parse_config(
        "system.a = true\n"
        "system.b = false\n"
        "system.c = 3\n"
        "system.d = 2.5e-3\n"
        "system.e = hello\n"
        "system.f = 1, 2.5, x\n"
        "system.g = 7,\n"
    )
    assert cfg.system == {
        "a": True, "b": False, "c": 3, "d": 2.5e-3, "e": "hello",
        "f": (1, 2.5, "x"), "g": (7,),
    }
    # one-element tuples survive the round trip
    assert parse_config(emit_config(cfg)) == cfg


@pytest.mark.parametrize("value", [
    ((0, 0), (1, 1)), ((0, 0),), (1, 2.5, "x"), (7,), ((5,), (1, (2, 3))), ((), 1),
], ids=["nested", "one-nested", "flat", "one-flat", "deeper", "empty-item"])
def test_encoded_sequences_decode_to_themselves(value):
    # a parenthesised group inside a sequence reads back as a tuple, as the
    # lindblad header's liouville_pairs = (0, 0), (1, 1) does
    assert cli._decode_value(cli._encode_value(value)) == value


def test_config_comments_and_blanks_ignored():
    cfg = parse_config("# a comment\n\nsystem.n_max = 4\n   \n# tail\n")
    assert cfg.system == {"n_max": 4}


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("system.n_max 4", "expected"),
        ("n_max = 4", "lacks a section"),
        ("system.a.b = 4", "must be section.key"),
        ("orbit.x = 1", "unknown section"),
        ("system.a = 1\nsystem.a = 2", "duplicate"),
        ("schedule1.target = g", "schedule0 is missing"),
    ],
)
def test_config_parse_errors(text, fragment):
    with pytest.raises(ConfigError, match=fragment):
        parse_config(text)


def test_config_errors_carry_origin_and_line():
    with pytest.raises(ConfigError, match=r"my\.cfg:2"):
        parse_config("system.a = 1\nbroken line\n", origin="my.cfg")


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "absent.cfg")


def test_a_config_that_is_not_utf8_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "latin.cfg"
    cfg.write_bytes(SYSTEM_LINES.encode() + b"# caf\xe9 \xff\n")
    with pytest.raises(ConfigError, match=re.escape(f"cannot read config {cfg}")):
        load_config(cfg)
    assert main(["evolve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert f"error[config]: cannot read config {cfg}" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# CSV writer
# ---------------------------------------------------------------------------

def test_write_csv_round_trips_floats(tmp_path):
    x = np.array([0.0, 1.0 / 3.0, math.pi, 6.02e23, 1e-300])
    y = np.array([1.0, -2.0, 4.0, -8.0, 16.0])
    out = tmp_path / "t.csv"
    write_csv(out, "evolve", [("t", x), ("y", y)], {"alpha": 0.5, "flag": True})
    meta, header, data = read_csv(out)
    assert meta["schema"] == CSV_SCHEMA
    assert meta["command"] == "evolve"
    assert meta["alpha"] == "0.5"
    assert meta["flag"] == "true"
    assert header == ["t", "y"]
    # %.17g representation reproduces float64 exactly
    assert np.array_equal(data[:, 0], x)
    assert np.array_equal(data[:, 1], y)


def test_write_csv_rejects_ragged_columns(tmp_path):
    with pytest.raises(ConfigError, match="length"):
        write_csv(tmp_path / "t.csv", "evolve",
                  [("t", np.zeros(3)), ("y", np.zeros(4))], {})


@pytest.mark.parametrize("blocked", ["evolve.csv", "evolve.svg"])
def test_an_unwritable_output_is_a_config_error(tmp_path, capsys, blocked):
    # a directory where an output file goes: the run ends in exit 2 naming it
    out = tmp_path / "o"
    (out / blocked).mkdir(parents=True)
    cfg = write_cfg(tmp_path, SYSTEM_LINES + DRIVE_LINES + STATE_LINES
                    + "run.t_final = 10.0\nrun.sample_count = 5\n")
    assert main(["evolve", "--config", str(cfg), "--out", str(out), "--svg"]) == 2
    assert f"error[config]: cannot write {out / blocked}" in capsys.readouterr().err


def test_write_svg_rejects_all_nan(tmp_path):
    with pytest.raises(ConfigError, match="finite"):
        write_svg(tmp_path / "t.svg", "x", "t", "y",
                  np.full(4, math.nan), [("y", np.full(4, math.nan))])


# the whole markup of a two-series chart whose second series skips a NaN
TINY_SVG = """\
<svg xmlns="http://www.w3.org/2000/svg" width="860" height="520" viewBox="0 0 860 520">
<rect width="860" height="520" fill="white"/>
<text x="430.0" y="24" text-anchor="middle" font-family="sans-serif" font-size="16">tiny</text>
<line x1="78.0" y1="42.0" x2="78.0" y2="462.0" stroke="#dddddd" stroke-width="1"/>
<text x="78.0" y="482.0" text-anchor="middle" font-family="sans-serif" font-size="12">0</text>
<line x1="229.6" y1="42.0" x2="229.6" y2="462.0" stroke="#dddddd" stroke-width="1"/>
<text x="229.6" y="482.0" text-anchor="middle" font-family="sans-serif" font-size="12">0.4</text>
<line x1="381.2" y1="42.0" x2="381.2" y2="462.0" stroke="#dddddd" stroke-width="1"/>
<text x="381.2" y="482.0" text-anchor="middle" font-family="sans-serif" font-size="12">0.8</text>
<line x1="532.8" y1="42.0" x2="532.8" y2="462.0" stroke="#dddddd" stroke-width="1"/>
<text x="532.8" y="482.0" text-anchor="middle" font-family="sans-serif" font-size="12">1.2</text>
<line x1="684.4" y1="42.0" x2="684.4" y2="462.0" stroke="#dddddd" stroke-width="1"/>
<text x="684.4" y="482.0" text-anchor="middle" font-family="sans-serif" font-size="12">1.6</text>
<line x1="836.0" y1="42.0" x2="836.0" y2="462.0" stroke="#dddddd" stroke-width="1"/>
<text x="836.0" y="482.0" text-anchor="middle" font-family="sans-serif" font-size="12">2</text>
<line x1="78.0" y1="462.0" x2="836.0" y2="462.0" stroke="#dddddd" stroke-width="1"/>
<text x="70.0" y="466.0" text-anchor="end" font-family="sans-serif" font-size="12">-0.04</text>
<line x1="78.0" y1="378.0" x2="836.0" y2="378.0" stroke="#dddddd" stroke-width="1"/>
<text x="70.0" y="382.0" text-anchor="end" font-family="sans-serif" font-size="12">0.176</text>
<line x1="78.0" y1="294.0" x2="836.0" y2="294.0" stroke="#dddddd" stroke-width="1"/>
<text x="70.0" y="298.0" text-anchor="end" font-family="sans-serif" font-size="12">0.392</text>
<line x1="78.0" y1="210.0" x2="836.0" y2="210.0" stroke="#dddddd" stroke-width="1"/>
<text x="70.0" y="214.0" text-anchor="end" font-family="sans-serif" font-size="12">0.608</text>
<line x1="78.0" y1="126.0" x2="836.0" y2="126.0" stroke="#dddddd" stroke-width="1"/>
<text x="70.0" y="130.0" text-anchor="end" font-family="sans-serif" font-size="12">0.824</text>
<line x1="78.0" y1="42.0" x2="836.0" y2="42.0" stroke="#dddddd" stroke-width="1"/>
<text x="70.0" y="46.0" text-anchor="end" font-family="sans-serif" font-size="12">1.04</text>
<rect x="78.0" y="42.0" width="758.0" height="420.0" fill="none" stroke="#333333" stroke-width="1"/>
<text x="457.0" y="506.0" text-anchor="middle" font-family="sans-serif" font-size="14">t</text>
<text x="20" y="252.0" text-anchor="middle" font-family="sans-serif" font-size="14" transform="rotate(-90 20 252.0)">y</text>
<polyline points="78.00,446.44 457.00,252.00 836.00,57.56" fill="none" stroke="#1f77b4" stroke-width="1.6"/>
<line x1="686.0" y1="58.0" x2="716.0" y2="58.0" stroke="#1f77b4" stroke-width="2"/>
<text x="722.0" y="62.0" font-family="sans-serif" font-size="12">a</text>
<polyline points="78.00,57.56 836.00,349.22" fill="none" stroke="#d62728" stroke-width="1.6"/>
<line x1="686.0" y1="76.0" x2="716.0" y2="76.0" stroke="#d62728" stroke-width="2"/>
<text x="722.0" y="80.0" font-family="sans-serif" font-size="12">b</text>
</svg>
"""


def test_write_svg_writes_the_pinned_markup(tmp_path):
    write_svg(tmp_path / "t.svg", "tiny", "t", "y", [0.0, 1.0, 2.0],
              [("a", [0.0, 0.5, 1.0]), ("b", [1.0, math.nan, 0.25])])
    assert (tmp_path / "t.svg").read_text() == TINY_SVG


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------

def test_exit_code_config_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, SYSTEM_LINES)  # no initial_state section
    rc = main(["evolve", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "error[config]" in capsys.readouterr().err


def test_exit_code_physics_guard(tmp_path, capsys):
    text = SYSTEM_LINES.replace("Omega0 = 1.72", "Omega0 = 1.0")
    cfg = write_cfg(tmp_path, text)
    rc = main(["spectrum", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 3
    assert "error[physics-guard]" in capsys.readouterr().err


def test_exit_code_numeric(tmp_path, capsys):
    text = (SYSTEM_LINES + DRIVE_LINES + STATE_LINES
            + "run.t_final = 1000.0\nrun.tol = 1e-06\nrun.sample_count = 51\n"
            + "run.method = direct\n")
    cfg = write_cfg(tmp_path, text)
    rc = main(["evolve", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 4
    assert "error[numeric]" in capsys.readouterr().err


def test_exit_code_no_resonance(tmp_path, capsys):
    # zero drive, forced horizon: every grid point is background
    text = (SYSTEM_LINES
            + "schedule0.target = g\nschedule0.epsilon = 0.0\nschedule0.eta = 1.0\n"
            + STATE_LINES
            + "transition.n = 3\ntransition.k = 0\n"
            + "sweep.factor_min = 1.03\nsweep.factor_max = 1.05\n"
            + "sweep.grid_points = 5\nsweep.horizon = 200000.0\n"
            + "sweep.zoom = false\n")
    cfg = write_cfg(tmp_path, text)
    rc = main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 5
    assert "error[no-resonance]" in capsys.readouterr().err


def test_exit_code_other_package_error(tmp_path, capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise DickemodError("boom")

    monkeypatch.setattr(cli, "run_scenario", fail)
    assert main(["figure3", "--out", str(tmp_path / "o")]) == 4
    assert "error[failure]: boom" in capsys.readouterr().err


@pytest.mark.parametrize("argv, expected", [
    (["evolve", "--config", "c.cfg", "--out", "o", "--svg"],
     ("c.cfg", "evolve", "o", True, None, None)),
    (["figure1", "--out", "o", "--eta-factor", "1.06", "--eta-factor-2", "1.05"],
     (None, "figure1", "o", False, 1.06, 1.05)),
], ids=["config-svg", "preset-both-factors"])
def test_main_hands_run_scenario_the_parsed_arguments(monkeypatch, argv, expected):
    calls = []

    def record(*args, **kwargs):
        bound = inspect.signature(run_scenario).bind(*args, **kwargs)
        bound.apply_defaults()
        calls.append(tuple(bound.arguments.values()))
        return 0

    monkeypatch.setattr(cli, "run_scenario", record)
    assert main(argv) == 0
    assert calls == [expected]


def test_evolve_rejects_dissipation(tmp_path, capsys):
    text = (SYSTEM_LINES + STATE_LINES + "dissipation.kappa = 0.01\n"
            + "run.t_final = 10.0\n")
    cfg = write_cfg(tmp_path, text)
    rc = main(["evolve", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "lindblad" in capsys.readouterr().err


def test_lindblad_requires_rates(tmp_path, capsys):
    text = SYSTEM_LINES + STATE_LINES + "run.t_final = 10.0\n"
    cfg = write_cfg(tmp_path, text)
    rc = main(["lindblad", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "dissipation" in capsys.readouterr().err


def test_negative_alpha_squared_is_a_config_error(tmp_path, capsys):
    text = (SYSTEM_LINES + "initial_state.kind = coherent\ninitial_state.alpha_squared = -1.0\n"
            + "run.t_final = 10.0\n")
    cfg = write_cfg(tmp_path, text)
    rc = main(["evolve", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "error[config]: initial_state.alpha_squared" in capsys.readouterr().err


@pytest.mark.parametrize("n_max", range(6, 31))
def test_coherent_state_at_the_cutoff_limit_runs(tmp_path, capsys, n_max):
    # alpha_squared = n_max / 2 is the guard's own limit, whatever the rounding
    # of sqrt(alpha_squared)**2; a hair above it is a physics-guard error
    def run(alpha_squared):
        text = (SYSTEM_LINES.replace("n_max = 8", f"n_max = {n_max}")
                + f"initial_state.kind = coherent\ninitial_state.alpha_squared = {alpha_squared!r}\n"
                + "run.t_final = 1.0\nrun.sample_count = 3\n")
        cfg = write_cfg(tmp_path, text)
        with cutoff_warning_ignored():
            return main(["evolve", "--config", str(cfg), "--out", str(tmp_path / "o")])

    assert run(n_max / 2) == 0
    assert run(n_max / 2 * (1 + 1e-9)) == 3
    assert "error[physics-guard]: |alpha|^2" in capsys.readouterr().err


@pytest.mark.parametrize("count", [1, 0])
def test_lindblad_refuses_fewer_than_two_samples(tmp_path, capsys, count):
    # 200 time units hold 47 drive periods, so the run would take the
    # period-aligned grid
    text = (SYSTEM_LINES + DRIVE_LINES + STATE_LINES + "dissipation.kappa = 0.001\n"
            + f"run.t_final = 200.0\nrun.sample_count = {count}\n")
    cfg = write_cfg(tmp_path, text)
    rc = main(["lindblad", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "error[config]" in capsys.readouterr().err


def test_run_scenario_guards(tmp_path):
    with pytest.raises(ConfigError, match="unknown subcommand"):
        run_scenario(None, "orbit", tmp_path)
    with pytest.raises(ConfigError, match="requires --config"):
        run_scenario(None, "spectrum", tmp_path)
    # an option the command does not read is refused before anything runs
    cfg = write_cfg(tmp_path, SYSTEM_LINES + STATE_LINES + "run.t_final = 1.0\n")
    for command, config, option in [("evolve", cfg, {"eta_factor": 1.04}),
                                    ("lindblad", cfg, {"eta_factor_2": 1.04}),
                                    ("figure3", None, {"eta_factor_2": 1.04}),
                                    ("figure2", cfg, {}),
                                    ("spectrum", cfg, {"svg": True}),
                                    ("rates", cfg, {"svg": True})]:
        out = tmp_path / f"{command}-out"
        unread = next(iter(option), "config_path")
        with pytest.raises(ConfigError, match=rf"{command} does not read {unread}$"):
            run_scenario(config, command, out, **option)
        assert not out.exists()


@pytest.mark.parametrize(
    "subcommand, line",
    [
        ("evolve", "run.sampel_count = 41"),
        ("sweep", "sweep.workers = 2"),
        ("evolve", "system.nmax = 8"),
        ("evolve", "schedule0.phase = 0.5"),
        ("lindblad", "dissipation.gamma_1 = 0.01"),
        ("evolve", "outputs.observable = n_ph"),
    ],
)
def test_unknown_config_keys_are_rejected(tmp_path, subcommand, line):
    text = SYSTEM_LINES + DRIVE_LINES + STATE_LINES + "run.t_final = 1.0\n" + line + "\n"
    cfg = write_cfg(tmp_path, text)
    key = line.split("=")[0].strip()
    with pytest.raises(ConfigError, match=rf"unknown key {re.escape(key)}\b"):
        run_scenario(cfg, subcommand, tmp_path / "o")
    assert not any((tmp_path / "o").iterdir())


@pytest.mark.parametrize(
    "subcommand, line",
    [
        ("evolve", "system.with_crt = no"),
        ("evolve", "run.sample_count = 7.9"),
        ("sweep", "sweep.zoom = 1"),
        ("sweep", "transition.n = 3.0"),
        ("evolve", "schedule0.qubit = true"),
        ("lindblad", "dissipation.gamma = 0.01, x"),
        ("evolve", "run.method = 2"),
        # parentheses make a nested tuple inside a sequence and a word alone
        ("lindblad", "dissipation.gamma = (0.01, 0.02)"),
        ("lindblad", "dissipation.gamma_phi = (0.01), (0.02)"),
        ("evolve", "run.tol = (1e-9)"),
    ],
)
def test_config_values_of_the_wrong_type_are_rejected(tmp_path, capsys, subcommand, line):
    text = SYSTEM_LINES + DRIVE_LINES + STATE_LINES + "run.t_final = 1.0\n" + line + "\n"
    cfg = write_cfg(tmp_path, text)
    assert main([subcommand, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    key = line.split("=")[0].strip()
    assert re.search(rf"error\[config\]: .*{re.escape(key)} = .* must be", capsys.readouterr().err)
    assert not any((tmp_path / "o").iterdir())


def test_number_keys_take_integer_literals(tmp_path):
    text = (SYSTEM_LINES.replace("omega0 = 1.0", "omega0 = 1") + DRIVE_LINES
            + STATE_LINES + "schedule0.phi = 0\nrun.t_final = 1\nrun.sample_count = 5\n")
    cfg = write_cfg(tmp_path, text)
    assert main(["evolve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0


def test_parser_covers_all_subcommands():
    parser = build_parser()
    args = parser.parse_args(["figure2", "--out", "x", "--eta-factor", "1.04"])
    assert args.command == "figure2" and args.eta_factor == 1.04
    for name in ("figure1", "figure2", "figure4"):
        args = parser.parse_args([name, "--out", "x", "--eta-factor-2", "1.05"])
        assert args.eta_factor_2 == 1.05
    for name in ("evolve", "lindblad", "sweep"):
        assert parser.parse_args([name, "--config", "c", "--out", "x", "--svg"]).svg
    # each command registers only the flags it reads; spectrum and rates draw no chart
    for argv in (["figure3", "--out", "x", "--eta-factor-2", "1.04"],
                 ["figure1", "--out", "x", "--no-crt"],
                 ["rates", "--config", "c", "--out", "x", "--no-crt"],
                 ["evolve", "--config", "c", "--out", "x", "--eta-factor", "1.04"],
                 ["spectrum", "--config", "c", "--out", "x", "--svg"],
                 ["rates", "--config", "c", "--out", "x", "--svg"]):
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(argv)
        assert exc.value.code == 2


# ---------------------------------------------------------------------------
# subcommands against the library
# ---------------------------------------------------------------------------

def test_spectrum_csv_matches_library(tmp_path, capsys):
    cfg = write_cfg(tmp_path, SYSTEM_LINES)
    rc = main(["spectrum", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 0
    assert "wrote" in capsys.readouterr().out
    meta, header, data = read_csv(tmp_path / "o" / "spectrum.csv")
    assert meta["command"] == "spectrum"
    assert header[:4] == ["m", "k", "lambda_exact", "nu_crt"]

    space = SpaceSpec(2, 8)
    params = SystemParams(omega0=1.0, Omega0=1.72, g0=G0, n_qubits=2)
    spec = dispersive_spectrum(space, params)
    # every m with a defined shift (m + 2 <= n_max), and only those
    assert sorted(set(data[:, 0])) == spec.subspaces == list(range(7))
    assert "stopped_at_m" not in meta
    for m, k, lam, nu, lam_t in data[:, :5]:
        assert lam == pytest.approx(spec.lam(int(m), int(k)), abs=1e-12)
        assert nu == pytest.approx(spec.nu(int(m), int(k)), abs=1e-12)
        assert lam_t == pytest.approx(lam + nu, abs=1e-12)


def test_spectrum_no_crt_flag(tmp_path):
    cfg = write_cfg(tmp_path, SYSTEM_LINES + "system.with_crt = false\n")
    rc = main(["spectrum", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 0
    meta, header, data = read_csv(tmp_path / "o" / "spectrum.csv")
    assert meta["with_crt"] == "false"
    assert np.all(data[:, header.index("nu_crt")] == 0.0)


def test_rates_csv_matches_library(tmp_path):
    text = SYSTEM_LINES + DRIVE_LINES + "transition.n = 3\n"
    cfg = write_cfg(tmp_path, text)
    rc = main(["rates", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 0
    meta, header, data = read_csv(tmp_path / "o" / "rates.csv")
    assert data.shape[0] == 1  # n=3 has the single pair k=0 -> 2

    space = SpaceSpec(2, 8)
    params = SystemParams(omega0=1.0, Omega0=1.72, g0=G0, n_qubits=2)
    sched = (ModulationSchedule("g", 0.1 * G0, 1.4844444444444445),)
    spec = dispersive_spectrum(space, params)
    rate = transition_rate_general(spec, sched, 3, 2, 0)
    closed = two_photon_rate_closed_form(params, sched, 3, 0)
    row = dict(zip(header, data[0]))
    assert row["k_from"] == 0.0 and row["k_to"] == 2.0
    assert row["xi_closed_abs"] == pytest.approx(abs(closed), rel=1e-12)
    assert row["xi_exact_abs"] == pytest.approx(abs(rate.xi), rel=1e-12)
    assert row["eta_res_exact"] == pytest.approx(rate.eta_res, rel=1e-12)
    assert row["eta_res_formula"] == pytest.approx(
        eta_resonant(params, 3, 0), rel=1e-12)


G0_SIX = 0.08 / math.sqrt(6)

# the figure2/figure3 system: N=6 qubits at n_max=21, the coupling driven
SIX_QUBIT_LINES = f"""\
system.n_qubits = 6
system.n_max = 21
system.omega0 = 1.0
system.Omega0 = 1.72
system.g0 = {G0_SIX!r}
schedule0.target = g
schedule0.epsilon = {0.1 * G0_SIX!r}
schedule0.eta = 1.4958
"""


def test_rates_on_the_six_qubit_system(tmp_path):
    # only subspace n is built: its labels hold, unlike those of m=17
    cfg = write_cfg(tmp_path, SIX_QUBIT_LINES + "transition.n = 5\n")
    assert main(["rates", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    meta, header, data = read_csv(tmp_path / "o" / "rates.csv")
    assert data[:, header.index("k_from")].tolist() == [0.0, 1.0, 2.0, 3.0]
    params = SystemParams(omega0=1.0, Omega0=1.72, g0=G0_SIX, n_qubits=6)
    sched = (ModulationSchedule("g", 0.1 * G0_SIX, 1.4958),)
    row = dict(zip(header, data[0]))
    assert row["xi_closed_abs"] == pytest.approx(
        abs(two_photon_rate_closed_form(params, sched, 5, 0)), rel=1e-12)
    factor = row["eta_res_exact"] / (2.0 * abs(params.delta_minus))
    assert round(factor, 5) == 1.03890


def test_spectrum_stops_at_the_first_unlabeled_subspace(tmp_path, capsys):
    # m=15 needs its neighbour m=17, whose labels break down near the cutoff
    cfg = write_cfg(tmp_path, SIX_QUBIT_LINES)
    assert main(["spectrum", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    reason = "LabelingError: subspace m=17: no eigenvector claimed labels [2, 3]"
    assert (f"spectrum: 84 dressed levels across 15 subspaces; stopped at m=15: {reason}"
            in capsys.readouterr().out)
    meta, header, data = read_csv(tmp_path / "o" / "spectrum.csv")
    assert meta["stopped_at_m"] == "15" and meta["stopped_by"] == reason
    assert sorted(set(data[:, 0])) == list(range(15)) and data.shape[0] == 84
    assert np.all(np.isfinite(data))


def test_library_defaults_are_not_retyped(tmp_path, monkeypatch):
    # a config without run.tol or run.method leaves both to the library
    calls = {}

    class Stop(Exception):
        pass

    def spy(name):
        def record(*args, **kwargs):
            calls[name] = kwargs
            raise Stop
        return record

    monkeypatch.setattr(cli, "TransferScenario", spy("scenario"))
    monkeypatch.setattr(cli, "evolve_schrodinger", spy("evolve"))
    text = (SYSTEM_LINES + DRIVE_LINES + STATE_LINES + "transition.n = 3\ntransition.k = 0\n"
            + "run.t_final = 50.0\nsweep.factor_min = 1.0\nsweep.factor_max = 1.1\n"
            + "sweep.grid_points = 9\n")
    cfg = write_cfg(tmp_path, text)
    for command in ("sweep", "evolve"):
        with pytest.raises(Stop):
            run_scenario(cfg, command, tmp_path / command)
    assert not {"tol", "method", "sample_count"} & set(calls["scenario"])
    assert calls["evolve"]["sample_count"] == 401
    assert not {"tol", "method"} & set(calls["evolve"])


def test_evolve_csv_and_determinism(tmp_path):
    text = (SYSTEM_LINES + "system.with_crt = false\n" + DRIVE_LINES + STATE_LINES
            + "run.t_final = 50.0\nrun.sample_count = 41\n"
            + "outputs.observables = n_ph, n_at, p_ph:3\n")
    cfg = write_cfg(tmp_path, text)
    assert main(["evolve", "--config", str(cfg), "--out", str(tmp_path / "a")]) == 0
    assert main(["evolve", "--config", str(cfg), "--out", str(tmp_path / "b")]) == 0
    first = (tmp_path / "a" / "evolve.csv").read_text()
    assert first == (tmp_path / "b" / "evolve.csv").read_text()

    meta, header, data = read_csv(tmp_path / "a" / "evolve.csv")
    assert header == ["t", "n_ph", "n_at", "p_ph_3"]
    # 12 drive periods run direct, and the header carries the run's estimate
    assert meta["engine"] == "adaptive-rk"
    assert 0.0 < float(meta["global_error_estimate"]) < 1e-6
    assert data[0, 0] == 0.0 and data[-1, 0] == pytest.approx(50.0)
    assert data.shape == (41, 4)
    # excitation exchange conserves the total
    total = data[:, 1] + data[:, 2]
    assert np.ptp(total) < 1e-6
    assert np.all((data[:, 3] >= 0.0) & (data[:, 3] <= 1.0))


@pytest.mark.parametrize("token", ["p_ph:99", "p_ph:-1", "p_ph:abc", "p_at:3"])
def test_evolve_refuses_an_observable_outside_the_space(tmp_path, capsys, monkeypatch, token):
    # N = 2 and n_max = 4: the token is refused before anything evolves
    monkeypatch.setattr(cli, "evolve_schrodinger", lambda *a, **k: pytest.fail("evolved"))
    text = (SYSTEM_LINES.replace("n_max = 8", "n_max = 4") + DRIVE_LINES + STATE_LINES
            + f"run.t_final = 5.0\nrun.sample_count = 5\noutputs.observables = n_ph, {token}\n")
    cfg = write_cfg(tmp_path, text)
    assert main(["evolve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert repr(token) in capsys.readouterr().err
    assert not (tmp_path / "o" / "evolve.csv").exists()


def test_evolve_time_units(tmp_path):
    base = SYSTEM_LINES + DRIVE_LINES + STATE_LINES + "transition.n = 3\ntransition.k = 0\n"
    cfg_q = write_cfg(tmp_path, base + "run.t_final = 0.001\nrun.sample_count = 5\n"
                      + "run.time_unit = one_over_q\n", "q.cfg")
    assert main(["evolve", "--config", str(cfg_q), "--out", str(tmp_path / "q")]) == 0
    meta, header, data = read_csv(tmp_path / "q" / "evolve.csv")
    assert header[0] == "t_q"
    assert meta["time_unit"] == "one_over_q"
    assert data[-1, 0] == pytest.approx(0.001, rel=1e-9)

    cfg_us = write_cfg(tmp_path, base + "run.t_final = 0.0005\nrun.sample_count = 5\n"
                       + "run.time_unit = microseconds\n", "us.cfg")
    assert main(["evolve", "--config", str(cfg_us), "--out", str(tmp_path / "us")]) == 0
    meta, header, data = read_csv(tmp_path / "us" / "evolve.csv")
    assert header[0] == "t_us"
    assert data[-1, 0] == pytest.approx(0.0005, rel=1e-9)

    cfg_bad = write_cfg(tmp_path, base + "run.t_final = 1.0\nrun.time_unit = years\n",
                        "bad.cfg")
    assert main(["evolve", "--config", str(cfg_bad), "--out", str(tmp_path / "x")]) == 2


def test_time_unit_one_over_q_needs_a_rate(tmp_path, capsys):
    # zero drive amplitude leaves 1/q undefined
    text = (SYSTEM_LINES
            + "schedule0.target = g\nschedule0.epsilon = 0.0\nschedule0.eta = 1.0\n"
            + STATE_LINES + "transition.n = 3\ntransition.k = 0\n"
            + "run.t_final = 1.0\nrun.time_unit = one_over_q\n")
    cfg = write_cfg(tmp_path, text)
    rc = main(["evolve", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "vanishes" in capsys.readouterr().err


def test_lindblad_csv(tmp_path):
    text = (SYSTEM_LINES.replace("n_max = 8", "n_max = 6") + STATE_LINES.replace(
        "initial_state.n = 3", "initial_state.n = 2")
        + "dissipation.kappa = 0.01\n"
        + "run.t_final = 40.0\nrun.sample_count = 21\n"
        + "outputs.observables = n_ph\n")
    cfg = write_cfg(tmp_path, text)
    assert main(["lindblad", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    meta, header, data = read_csv(tmp_path / "o" / "lindblad.csv")
    assert header == ["t", "n_ph"]
    assert meta["engine"] == "lindblad-adaptive-rk"
    assert 0.0 < float(meta["global_error_estimate"]) < 1e-6
    # photon loss without drive: population decays
    assert data[-1, 1] < data[0, 1]
    assert data[0, 1] == pytest.approx(2.0, abs=1e-9)


@pytest.mark.parametrize("command, blocks", [("evolve", "13,"), ("lindblad", "365,")])
def test_stroboscopic_csv_headers_carry_engine_work(tmp_path, command, blocks):
    # |k=0, n=3> fills the odd sector of (2, 8), 13 of 27 states; the master
    # equation keeps the Liouville block of rho_pp, 14^2 + 13^2 entries
    text = (SYSTEM_LINES + DRIVE_LINES + STATE_LINES
            + "run.t_final = 60.0\nrun.sample_count = 5\nrun.method = stroboscopic\n")
    if command == "lindblad":
        text += "dissipation.kappa = 0.001\n"
    cfg = write_cfg(tmp_path, text)
    # kappa = 0.001 takes the Lindblad channel to the slice cap
    with (pytest.warns(UserWarning, match="slice error") if command == "lindblad"
          else contextlib.nullcontext()):
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    meta, _, data = read_csv(tmp_path / "o" / f"{command}.csv")
    assert meta["sectors"] == blocks
    # the g drive has phi = 0, so its extremum sits at c = T/4 and the
    # solve covers the half window (c - T/2, c)
    quarter = math.pi / 2 / 1.4844444444444445
    window = [float(v) for v in meta["period_window"].split(",")]
    assert window == pytest.approx([-quarter, quarter], rel=1e-12)
    assert int(meta["rhs_evals"]) > 0
    assert int(meta["batch_points"]) == 1
    assert 0.0 <= float(meta["propagator_defect"]) < 1e-9
    # the horizon's error estimate, some periods' worth of a per-period one
    per_period = float(meta["period_error_estimate"])
    assert 0.0 < per_period < float(meta["global_error_estimate"]) < math.inf
    # the lindblad command asks the Lindblad engine for whole periods: 5
    # samples over 60 become 5 samples 4 periods apart, ending on the 16th
    channel_keys = ("channel_nodes", "channel_slices", "channel_slice_error",
                    "channel_trace_defect", "channel_hermiticity_defect", "channel_matmuls")
    if command == "lindblad":
        assert meta["liouville_pairs"] == "(0, 0), (1, 1)"
        assert len(data) == 5
        assert data[-1, 0] == pytest.approx(16 * 4 * quarter, rel=1e-12)
        # the doubled slice count and its six-node Gauss panels; the error
        # estimate is within the run's tol (1e-9) unless the count reached
        # the cap; each gate inside its bound
        slices = int(meta["channel_slices"])
        assert slices in (2, 4, 8, 16, 32)
        assert int(meta["channel_nodes"]) % (6 * slices) == 0 and int(meta["channel_nodes"]) > 0
        assert 0.0 < float(meta["channel_slice_error"]) <= 1e-9 or slices == 32
        assert 0.0 <= float(meta["channel_trace_defect"]) <= TRACE_DRIFT_TOL
        assert 0.0 <= float(meta["channel_hermiticity_defect"]) <= CHANNEL_HERMITICITY_TOL
        # one block: per round of s slices, 2 products per slice but the
        # first, one more for round 1's one-slice partner; then channel^4 (2)
        rounds = [2 ** k for k in range(1, slices.bit_length())]
        assert int(meta["channel_matmuls"]) == sum(2 * n - 1 for n in rounds) + 1 + 2
    else:
        assert "liouville_pairs" not in meta
        assert not any(key in meta for key in channel_keys)


def _reads_back_as(decoded, value) -> bool:
    """Whether decoded equals value with the same Python types, where a list
    reads back as a tuple: np.float64(0.5) is not 0.5 here."""
    if isinstance(value, (list, tuple)):
        return (type(decoded) is tuple and len(decoded) == len(value)
                and all(map(_reads_back_as, decoded, value)))
    return type(decoded) is type(value) and decoded == value


# run -> (command, the engine it takes, its config lines past the system and state)
_RECORD_RUNS = {
    "evolve-stroboscopic": ("evolve", "floquet-stroboscopic", DRIVE_LINES
                            + "run.t_final = 60.0\nrun.sample_count = 5\n"
                            + "run.method = stroboscopic\n"),
    "evolve-direct": ("evolve", "adaptive-rk",
                      DRIVE_LINES + "run.t_final = 50.0\nrun.sample_count = 11\n"),
    "evolve-static": ("evolve", "static-eigendecomposition",
                      "run.t_final = 50.0\nrun.sample_count = 11\n"),
    "lindblad-stroboscopic": ("lindblad", "lindblad-stroboscopic", DRIVE_LINES
                              + "run.t_final = 60.0\nrun.sample_count = 5\n"
                              + "run.method = stroboscopic\ndissipation.kappa = 0.01\n"),
    "lindblad-direct": ("lindblad", "lindblad-adaptive-rk",
                        "run.t_final = 40.0\nrun.sample_count = 11\ndissipation.kappa = 0.01\n"),
}


@pytest.mark.parametrize("run", list(_RECORD_RUNS))
def test_trajectory_headers_hold_the_whole_run_record(tmp_path, monkeypatch, run):
    # every metadata key reaches the header, and its text reads back as the
    # recorded value (a numpy scalar would write as np.float64(...))
    command, engine, lines = _RECORD_RUNS[run]
    evolve = {"evolve": "evolve_schrodinger", "lindblad": "evolve_lindblad"}[command]
    runs = []

    def recording(*args, _evolve=getattr(cli, evolve), **kwargs):
        runs.append(_evolve(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(cli, evolve, recording)
    text = SYSTEM_LINES.replace("n_max = 8", "n_max = 6") + STATE_LINES + lines
    cfg = write_cfg(tmp_path, text.replace("initial_state.n = 3", "initial_state.n = 2"))
    with warnings.catch_warnings():
        # kappa = 0.01 takes the Lindblad channel to its slice cap
        warnings.filterwarnings("ignore", message="Lindblad channel slice error")
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    meta, _, _ = read_csv(tmp_path / "o" / f"{command}.csv")
    (record,) = [traj.metadata for traj in runs]
    assert record["engine"] == engine
    assert set(record) <= set(meta)
    unread = {key: meta[key] for key, value in record.items()
              if not _reads_back_as(cli._decode_value(meta[key]), value)}
    assert not unread
    assert meta["time_unit"] == "one_over_omega0"


def test_python_dash_m_runs_the_cli():
    src = str(Path(dickemod.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    run = subprocess.run([sys.executable, "-m", "dickemod", "--help"], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert "usage: dickemod" in run.stdout
    assert "RuntimeWarning" not in run.stderr


def test_a_run_past_the_cutoff_warns_by_label_without_a_source_path(tmp_path):
    # |alpha|^2 = n_max / 2 puts about 3% of the population at n_max
    cfg = write_cfg(tmp_path, SYSTEM_LINES + "initial_state.kind = coherent\n"
                    "initial_state.alpha_squared = 4.0\nrun.t_final = 1.0\nrun.sample_count = 3\n")
    src = str(Path(dickemod.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    run = subprocess.run([sys.executable, "-W", "default", "-m", "dickemod", "evolve", "--config",
                          str(cfg), "--out", str(tmp_path / "o")], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stderr.startswith("warning[cutoff]: population ")
    assert ".py:" not in run.stderr and "UserWarning" not in run.stderr


def test_main_formats_warnings_by_label_and_restores_the_hook(monkeypatch):
    seen = []

    def scenario(**_):
        seen.extend(warnings.formatwarning(w, type(w), "x.py", 1)
                    for w in (CutoffWarning("biting"), UserWarning("plain")))
        with pytest.warns(CutoffWarning, match="biting"):
            warnings.warn("biting", CutoffWarning)
        return 0

    monkeypatch.setattr(cli, "run_scenario", scenario)
    hook = warnings.formatwarning
    assert main(["figure1", "--out", "o"]) == 0
    assert seen == ["warning[cutoff]: biting\n", "warning: plain\n"]
    assert warnings.formatwarning is hook


def test_sweep_csv(tmp_path):
    # odd grid centered on the known N=2 resonance; the line is narrow
    # (width ~ |Xi|) so off-center points read as background
    text = (SYSTEM_LINES.replace("n_max = 8", "n_max = 10") + DRIVE_LINES
            + STATE_LINES + "transition.n = 3\ntransition.k = 0\n"
            + "sweep.factor_min = 1.0362332206134755\n"
            + "sweep.factor_max = 1.0402332206134755\n"
            + "sweep.grid_points = 5\nsweep.zoom = false\n"
            + "run.sample_count = 31\nrun.tol = 1e-08\n")
    cfg = write_cfg(tmp_path, text)
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    meta, header, data = read_csv(tmp_path / "o" / "sweep.csv")
    assert header == ["eta", "eta_factor", "transfer", "rhs_evals", "propagator_defect",
                      "batch_points", "global_error_estimate"]
    assert data.shape == (5, 7)
    # one row per eta with that point's period solve, its unitarity gate and
    # what the horizon makes of its per-period error
    assert np.all(data[:, 3] > 0)
    assert np.all(data[:, 4] <= UNITARY_DEFECT_TOL)
    assert np.all(np.isfinite(data[:, 6]) & (data[:, 6] > 0))
    # the stroboscopic points share period solves of up to batch_points each
    width = int(data[:, 5].max())
    assert 1 <= width <= 5 and int(meta["period_solves"]) == math.ceil(5 / width)
    assert meta["vertex_fallback"] == "false"
    assert np.all(np.diff(data[:, 0]) > 0)
    assert np.all((data[:, 2] >= 0.0) & (data[:, 2] <= 1.0))
    peak_factor = float(meta["peak_factor"])
    assert 1.0362 < peak_factor < 1.0403
    assert data[:, 2].max() > 0.8
    # the factor column is eta scaled by 2|Delta| = 1.44
    assert data[:, 0] / data[:, 1] == pytest.approx(1.44)


SWEEP_LINES = ("transition.n = 3\ntransition.k = 0\n"
               + "sweep.factor_min = 1.03\nsweep.factor_max = 1.05\n"
               + "sweep.grid_points = 5\nsweep.zoom = false\n")


def test_sweep_refuses_a_transition_outside_the_space_before_any_point(
        tmp_path, capsys, monkeypatch):
    # the source |k=0, n-k=9> needs n_max >= 9; the space stops at 8
    cfg = write_cfg(tmp_path, SYSTEM_LINES + DRIVE_LINES + STATE_LINES
                    + SWEEP_LINES.replace("transition.n = 3", "transition.n = 9"))
    monkeypatch.setattr(cli, "sweep_resonance", lambda *a, **k: pytest.fail("swept"))
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "n_max=8" in capsys.readouterr().err


def test_sweep_honours_run_method(tmp_path, capsys):
    cfg = write_cfg(tmp_path, SYSTEM_LINES + DRIVE_LINES + STATE_LINES + SWEEP_LINES
                    + "run.method = bogus\n")
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "unknown method 'bogus'" in capsys.readouterr().err


def test_depth_warning_once_and_duplicate_targets_refused(tmp_path, capsys):
    deep = DRIVE_LINES.replace(f"epsilon = {0.1 * G0!r}", f"epsilon = {0.5 * G0!r}")
    cfg = write_cfg(tmp_path, SYSTEM_LINES + deep + STATE_LINES
                    + "run.t_final = 10.0\nrun.sample_count = 5\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["evolve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    assert ["modulation depth" in str(w.message) for w in caught] == [True]

    twice = DRIVE_LINES + DRIVE_LINES.replace("schedule0", "schedule1")
    for command, extra in (("evolve", "run.t_final = 10.0\n"), ("sweep", SWEEP_LINES)):
        cfg = write_cfg(tmp_path, SYSTEM_LINES + twice + STATE_LINES + extra)
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "duplicate modulation target" in capsys.readouterr().err


def test_figure1_preset(tmp_path):
    assert main(["figure1", "--out", str(tmp_path), "--svg"]) == 0
    meta, header, data = read_csv(tmp_path / "figure1.csv")
    assert header[0] == "t_q_over_pi"
    assert {"n_ph_analytic", "n_ph_exactCRT", "n_ph_exactTC"} <= set(header)
    assert float(meta["eta_factor_crt"]) == pytest.approx(1.0678)

    ana = data[:, header.index("n_ph_analytic")]
    crt = data[:, header.index("n_ph_exactCRT")]
    tc = data[:, header.index("n_ph_exactTC")]
    assert data.shape[0] > 100
    # the two-photon dip below n=4 shows up in every curve; the analytic
    # rotation reaches the full n=3 floor
    assert ana.min() == pytest.approx(3.0, abs=1e-2)
    for curve in (ana, crt, tc):
        assert curve.max() > 4.9
        assert curve.min() < 4.0

    svg = (tmp_path / "figure1.svg").read_text()
    assert svg.startswith("<svg") and svg.count("<polyline") == 6
    # the chart carries each column's legend, not its CSV name
    assert ">n_ph analytic</text>" in svg and "n_ph_analytic" not in svg


def test_figure2_preset(tmp_path):
    assert main(["figure2", "--out", str(tmp_path), "--svg"]) == 0
    meta, header, data = read_csv(tmp_path / "figure2.csv")
    assert header == ["t_q_over_pi", "n_ph_gmod", "n_at_gmod",
                      "n_ph_gOmegamod", "n_at_gOmegamod"]
    assert float(meta["eta_factor_gmod"]) == pytest.approx(1.0389)
    assert float(meta["q_closed_form_gmod"]) > 0.0
    assert meta["n_qubits"] == "6" and meta["epsilon_g_over_g0"] == "0.1"
    # coherent start |alpha|^2 = 5.5 with every qubit down; n_max = 21 cuts
    # 1.6e-6 of the Poisson tail's photon number
    assert data[0, 1:] == pytest.approx([5.5, 0.0, 5.5, 0.0], abs=1e-5)
    svg = (tmp_path / "figure2.svg").read_text()
    assert svg.count("<polyline") == 4 and ">n_at g+Omega</text>" in svg


def test_figure3_preset(tmp_path):
    assert main(["figure3", "--out", str(tmp_path)]) == 0
    meta, header, data = read_csv(tmp_path / "figure3.csv")
    assert header == ["t_q_over_pi", "p_ph_5", "p_ph_3", "p_ph_2",
                      "p_at_0", "p_at_2", "p_at_3"]
    probs = data[:, 1:]
    assert np.all((probs >= -1e-12) & (probs <= 1.0 + 1e-12))
    # coherent initial state: photon marginal is Poisson, qubits all down
    assert data[0, header.index("p_ph_5")] == pytest.approx(
        math.exp(-5.5) * 5.5 ** 5 / 120.0, abs=1e-4)
    p_at0 = data[:, header.index("p_at_0")]
    assert p_at0[0] == pytest.approx(1.0, abs=1e-12)
    assert p_at0.min() < 0.8
