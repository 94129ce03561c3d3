"""The benchmark's three workloads: inputs made from a seed, the timed
operation through dickemod's public entry points, and the output check.

Every entry point is looked up on the `dickemod` package at call time, so the
tracer in spans.py can wrap it. The seed only picks one of SEED_CLASSES input
variants, each inside a range where the physics checks stay valid; a stored
reference (references.json, written by make_references.py) pins the result
of every variant, so a corrupted result fails its check instead of passing
as a faster one.
"""

from __future__ import annotations

import cmath
import contextlib
import io
import json
import math
import warnings
from pathlib import Path

import numpy as np

import dickemod
from dickemod.dynamics import EIG_FLOOR_RUN, TRACE_DRIFT_TOL

SEED_CLASSES = 8
REFERENCES = Path(__file__).with_name("references.json")
# relative agreement with the stored reference; the results are deterministic
# to the integrator tolerance, far tighter than this
REFERENCE_RTOL = 1e-5
TWO_DELTA = 1.44  # 2|omega0 - Omega0| in every scenario below


class CheckError(Exception):
    """An operation's output failed its check."""


def snapped_span(eta: float, t_final: float, samples: int):
    """Uniform grid whose spacing is an integer number of drive periods."""
    period = 2.0 * math.pi / eta
    stride = max(1, int(round(t_final / (samples - 1) / period)))
    dt = stride * period
    count = max(2, int(round(t_final / dt)) + 1)
    return (0.0, dt * (count - 1)), count


def _expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: Path):
        self.variant = seed % SEED_CLASSES
        self.workdir = workdir

    def warm_up(self) -> None:
        """One small call into the package (a short evolve, or the CLI on a
        tiny config): pays lazy SciPy/BLAS set-up without a full solve."""

    def run(self):
        raise NotImplementedError

    def observed(self, result) -> dict:
        """Values pinned by the stored reference."""
        raise NotImplementedError

    def check_physics(self, result) -> None:
        raise NotImplementedError

    def check(self, result) -> None:
        self.check_physics(result)
        ref = json.loads(REFERENCES.read_text())[self.name][str(self.variant)]
        got = self.observed(result)
        for key, want in ref.items():
            have, want = np.atleast_1d(got[key]), np.atleast_1d(want)
            _expect(
                have.shape == want.shape
                and np.allclose(have, want, rtol=REFERENCE_RTOL, atol=0.0),
                f"{self.name}: {key} = {got[key]!r}, reference {want.tolist()!r}",
            )


def _no_warnings(call):
    """(call(), messages of the warnings it raised); the CLI's progress lines
    on stdout are dropped, they are not part of any result."""
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("always")
        out = call()
    return out, [str(w.message) for w in caught]


class SweepN2(Workload):
    """figure1 / criterion-1 resonance sweep, N=2 collective basis."""

    name = "sweep-n2"
    center = 1.068
    half_width = 0.004
    grid_points = 9

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        g0 = 0.08 / math.sqrt(2)
        space = dickemod.SpaceSpec(2, 12)
        params = dickemod.SystemParams(
            omega0=1.0, Omega0=1.72, g0=g0, n_qubits=2, with_crt=True
        )
        self.scenario = dickemod.TransferScenario(
            space=space,
            params=params,
            schedules=(dickemod.ModulationSchedule("g", 0.1 * g0, 1.0),),
            psi0=dickemod.dicke_fock_state(space, 0, 5),
            transition=(5, 0),
            sample_count=121,
            tol=1e-8,
        )
        # The window shifts down by up to 2.8e-4 (in eta / 2|Delta|). The
        # resonance near 1.0678 is far narrower than the 1e-3 grid spacing,
        # so it only stands out of the background when a grid point lies
        # within about 2e-4 of it; every shift keeps one at least that close.
        c = self.center - self.variant * 4e-5
        self.window = ((c - self.half_width) * TWO_DELTA, (c + self.half_width) * TWO_DELTA)

    def warm_up(self):
        s = self.scenario
        dickemod.evolve_schrodinger(
            s.space, s.params, s.schedules, s.psi0, (0.0, 40 * 2 * math.pi), 41,
            tol=s.tol,
        )

    def run(self):
        return _no_warnings(
            lambda: dickemod.sweep_resonance(
                self.scenario, self.window, self.grid_points, zoom=False
            )
        )

    def observed(self, result):
        # The resonance is narrower than the grid, so the parabola vertex
        # stays near the middle of the three highest samples whatever their
        # values; the transfer at every point is pinned too, so a rescaled or
        # less accurate profile with the same argmax fails.
        sweep, _ = result
        return {
            "peak_factor": sweep.peak_eta / TWO_DELTA,
            "peak_transfer": float(sweep.fit_diagnostics["peak_transfer"]),
            "transfer": [float(v) for v in sweep.transfer],
        }

    def check_physics(self, result):
        sweep, caught = result
        _expect(not caught, f"{self.name}: warnings {caught}")
        _expect(len(sweep.etas) == self.grid_points, f"{self.name}: {len(sweep.etas)} points")
        peak = sweep.peak_eta / TWO_DELTA
        _expect(abs(peak - 1.0678) <= 0.003, f"{self.name}: peak factor {peak:.6f}")


class ExchangeN6(Workload):
    """figure2 / criterion-3 pair: g and g+Omega drives, N=6 collective basis."""

    name = "exchange-n6"
    # resonances of the two drives, located to 1e-5 by fitted-rate minima;
    # at the presets' 1.0389 / 1.0388 the g drive is detuned and the fitted
    # rate ratio comes out near 2.55
    factor_g = 1.03889
    factor_go = 1.03876
    samples = 501

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.g0 = 0.08 / math.sqrt(6)
        self.params = dickemod.SystemParams(omega0=1.0, Omega0=1.72, g0=self.g0, n_qubits=6)
        self.space = dickemod.SpaceSpec(6, 21)
        phase = 2.0 * math.pi * self.variant / SEED_CLASSES
        self.psi0 = dickemod.coherent_state(self.space, math.sqrt(5.5) * cmath.exp(1j * phase), 0)

    def schedules(self, eta, combined):
        g = dickemod.ModulationSchedule("g", 0.1 * self.g0, eta, 0.0)
        if not combined:
            return (g,)
        return (g, dickemod.ModulationSchedule("Omega", 0.1 * TWO_DELTA / 2.0, eta, math.pi))

    def warm_up(self):
        space = dickemod.SpaceSpec(6, 5)
        psi0 = dickemod.coherent_state(space, 0.5, 0)
        eta = self.factor_g * TWO_DELTA
        _no_warnings(lambda: dickemod.evolve_schrodinger(
            space, self.params, self.schedules(eta, True), psi0,
            (0.0, 40 * 2 * math.pi / eta), 41, tol=1e-9, store_states=True,
        ))
        dickemod.dispersive_spectrum(space, self.params, subspaces=(3,))

    def _pair(self):
        spec = dickemod.dispersive_spectrum(self.space, self.params, subspaces=(5,))
        target = spec.state(5, 2)

        def dressed_population(tr):
            return np.array([abs(np.vdot(target, st.amplitudes)) ** 2 for st in tr.states])

        out = {}
        for tag, factor, combined in (("g", self.factor_g, False), ("go", self.factor_go, True)):
            eta = factor * TWO_DELTA
            q = abs(dickemod.two_photon_rate_closed_form(
                self.params, self.schedules(eta, False), 5, 0))
            span, count = snapped_span(eta, 2.2 * math.pi / q, self.samples)
            traj = dickemod.evolve_schrodinger(
                self.space, self.params, self.schedules(eta, combined), self.psi0,
                span, count, tol=1e-9, store_states=True,
            )
            out[tag] = (traj, count, dickemod.fit_rabi(traj, dressed_population))
        return out

    def run(self):
        return _no_warnings(self._pair)

    def observed(self, result):
        pair, _ = result
        return {"rate_g": pair["g"][2].rate, "rate_go": pair["go"][2].rate}

    def check_physics(self, result):
        pair, caught = result
        _expect(not caught, f"{self.name}: warnings {caught}")
        for tag, (traj, count, _) in pair.items():
            _expect(traj.metadata.get("engine") == "floquet-stroboscopic",
                    f"{self.name}/{tag}: engine {traj.metadata.get('engine')}")
            _expect(len(traj.times) == count, f"{self.name}/{tag}: {len(traj.times)} samples")
        ratio = pair["go"][2].rate / pair["g"][2].rate
        _expect(1.5 <= ratio <= 2.5, f"{self.name}: rate ratio {ratio:.4f}")


def _csv(path: Path):
    """(header dict, data rows) of a dickemod CSV."""
    header, rows, names = {}, [], None
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            key, sep, value = line[1:].partition("=")
            if sep:
                header[key.strip()] = value.strip()
        elif names is None:
            names = line.split(",")
        else:
            rows.append([float(v) for v in line.split(",")])
    return header, names, np.array(rows)


class LindbladCli(Workload):
    """Reduced figure4 realistic pair through `run_scenario(..., "lindblad")`."""

    name = "lindblad-cli"
    n_max = 8
    alpha_squared = 0.5
    samples = 301

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.phi = 2.0 * math.pi * self.variant / SEED_CLASSES
        self.config = workdir / "lindblad-cli.cfg"
        self.out_dir = workdir / "lindblad-cli"
        self.config.write_text(self.config_text(self.n_max, self.alpha_squared, self.samples))

    def config_text(self, n_max, alpha_squared, samples):
        g1 = 5.66e-2
        g2 = 1.01 * g1
        eta = 1.0632 * TWO_DELTA
        lines = [
            "system.n_qubits = 2",
            f"system.n_max = {n_max}",
            "system.basis = distinguishable",
            "system.omega0 = 1.0",
            f"system.Omega0 = 1.72, {1.0 + 1.02 * 0.72!r}",
            f"system.g0 = {g1!r}, {g2!r}",
        ]
        for i, g in enumerate((g1, g2)):
            lines += [
                f"schedule{i}.target = g",
                f"schedule{i}.epsilon = {0.1 * g!r}",
                f"schedule{i}.eta = {eta!r}",
                f"schedule{i}.phi = {self.phi!r}",
                f"schedule{i}.qubit = {i + 1}",
            ]
        lines += [
            f"dissipation.kappa = {5e-5 * g1!r}",
            f"dissipation.gamma = {5e-5 * g1!r}, {5e-5 * g2!r}",
            f"dissipation.gamma_phi = {5e-5 * g1!r}, {5e-5 * g2!r}",
            "initial_state.kind = coherent",
            f"initial_state.alpha_squared = {alpha_squared!r}",
            "run.t_final = 1.0",
            "run.time_unit = microseconds",
            f"run.sample_count = {samples}",
            "run.tol = 1e-9",
            "outputs.observables = n_ph, n_at",
        ]
        return "\n".join(lines) + "\n"

    def warm_up(self):
        small = self.workdir / "lindblad-cli-warm-up.cfg"
        small.write_text(self.config_text(2, 0.01, 21))
        _no_warnings(lambda: dickemod.run_scenario(
            small, "lindblad", self.workdir / "lindblad-cli-warm-up", svg=True))

    def run(self):
        # files left by an earlier operation must not pass for this one's
        for stale in ("lindblad.csv", "lindblad.svg"):
            (self.out_dir / stale).unlink(missing_ok=True)
        code, caught = _no_warnings(
            lambda: dickemod.run_scenario(self.config, "lindblad", self.out_dir, svg=True)
        )
        header, names, data = _csv(self.out_dir / "lindblad.csv")
        svg_bytes = (self.out_dir / "lindblad.svg").stat().st_size
        return {"code": code, "warnings": caught, "header": header, "names": names,
                "data": data, "svg_bytes": svg_bytes}

    def observed(self, result):
        n_at = result["data"][:, result["names"].index("n_at")]
        return {"n_at_contrast": float(n_at.max() - n_at.min()),
                "rows": float(len(result["data"]))}

    def check_physics(self, result):
        h = result["header"]
        _expect(result["code"] == 0, f"{self.name}: exit code {result['code']}")
        _expect(not result["warnings"], f"{self.name}: warnings {result['warnings']}")
        _expect(h.get("engine") == "lindblad-stroboscopic", f"{self.name}: engine {h.get('engine')}")
        drift = float(h["trace_drift_max"])
        floor = float(h["eig_floor_min"])
        _expect(0.0 <= drift <= TRACE_DRIFT_TOL, f"{self.name}: trace drift {drift}")
        _expect(floor >= EIG_FLOOR_RUN, f"{self.name}: eigenvalue floor {floor}")
        _expect(result["names"] == ["t_us", "n_ph", "n_at"], f"{self.name}: columns {result['names']}")
        _expect(result["svg_bytes"] > 0, f"{self.name}: empty svg")


WORKLOADS = {w.name: w for w in (SweepN2, ExchangeN6, LindbladCli)}
