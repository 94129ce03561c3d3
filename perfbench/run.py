"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload sweep-n2 --seed 1 --seconds 20 --trace 0

Run it from the repository root; it imports dickemod from ./src. It prints
one `name = value unit` line per metric, the run environment, and as its
last line a JSON object with the keys correct, attempted, failed and metrics.

--trace 0 gives the end-to-end metrics: solve_s (median wall time of one
operation, from the call into the public entry point to a checked result),
setup_s (median over fresh processes of importing dickemod, building the
inputs and one small warm-up call) and peak_rss_mib (peak resident memory of
this process). --trace 1 gives the per-layer metrics from spans, taken on
alternate operations; the others run untraced, and trace.overhead_s is the
difference of the two medians. An operation that raises or fails its check
counts as failed and its time is left out of every timing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 5
NPROC = len(os.sched_getaffinity(0))
# One BLAS thread. With two on a 2-vCPU machine, OpenBLAS's spinning worker
# keeps both vCPUs busy and any time stolen from either one stalls every
# matmul: lindblad-cli ran 4.7..8.7 s per operation with two threads against
# 9.0..10.0 s with one, in alternating processes on the same machine.
# The setting must be in place before numpy is first imported, here and in
# the set-up probes, which inherit the environment.
BLAS_THREADS = 1
os.environ["OPENBLAS_NUM_THREADS"] = str(BLAS_THREADS)

END_TO_END_UNITS = {"solve_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}


def import_workloads(root: Path):
    """The workloads module, with dickemod imported from root/src."""
    src = root / "src"
    if not (src / "dickemod" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no src/dickemod under {root}; run from the repository root")
    sys.path.insert(0, str(src))
    import workloads

    return workloads


def run_ops(run, check, seconds: float, min_ops: int = 1, clock=time.perf_counter):
    """Closed loop with one caller: start operations until `seconds` have
    passed and at least `min_ops` were attempted.

    run(i) performs operation i and check(result) raises if the result is
    wrong. Returns ({i: seconds} of the operations that passed their check,
    attempted, failed).
    """
    ok: dict[int, float] = {}
    attempted = failed = 0
    start = clock()
    while attempted < min_ops or clock() - start < seconds:
        i = attempted
        attempted += 1
        t0 = clock()
        try:
            check(run(i))
        except Exception:  # a failed operation is counted and the loop goes on
            failed += 1
            print(f"operation {i} failed:\n{traceback.format_exc()}", file=sys.stderr)
            continue
        ok[i] = clock() - t0
    return ok, attempted, failed


def traced_run(workload, seconds: float):
    """Even operations run under a fresh spans.Tracer each, odd ones untraced.

    Returns (per-layer metrics as medians over the traced operations, with
    trace.overhead_s = median traced minus median untraced time, seconds of
    the checked traced and untraced operations, attempted, failed,
    {i: tracer}).
    """
    tracers = {}

    def run(i):
        if i % 2:
            return workload.run()
        tracers[i] = spans.Tracer()
        with tracers[i].patch():
            return workload.run()

    ok, attempted, failed = run_ops(run, workload.check, seconds, min_ops=2)
    per_op = [spans.op_metrics(tracers[i].spans) for i in ok if i % 2 == 0]
    metrics = spans.median_metrics(per_op) if per_op else {}
    traced = [t for i, t in ok.items() if i % 2 == 0]
    untraced = [t for i, t in ok.items() if i % 2]
    if traced and untraced:
        metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    return metrics, traced, untraced, attempted, failed, tracers


def measure_setup(workload: str, seed: int, root: Path) -> list[float]:
    """Set-up seconds of SETUP_REPEATS fresh processes, one after another."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    out = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=120,
                              check=True)
        out.append(float(proc.stdout.split()[-1]))
    return out


def environment() -> dict:
    import numpy
    import scipy

    def blas(cfg):
        dep = cfg["Build Dependencies"]["blas"]
        return f"{dep['name']} {dep['version']}"

    return {
        "nproc": NPROC,
        "blas_threads": BLAS_THREADS,
        "numpy_blas": blas(numpy.show_config(mode="dicts")),
        "scipy_blas": blas(scipy.show_config(mode="dicts")),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


def spread(values: list[float]) -> str:
    if len(values) < 2:
        return f"{len(values)} values {values}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (f"{len(values)} values, quartiles {q1:.4f}..{q3:.4f}, "
            f"range {min(values):.4f}..{max(values):.4f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="internal: time one set-up in this process and print it")
    args = parser.parse_args(argv)
    root = Path.cwd()
    workdir = HERE / "out" / args.workload
    workdir.mkdir(parents=True, exist_ok=True)

    if args.setup_probe:
        t0 = time.perf_counter()
        wl = import_workloads(root)
        wl.WORKLOADS[args.workload](args.seed, workdir).warm_up()
        print(time.perf_counter() - t0)
        return 0

    wl = import_workloads(root)
    if args.workload not in wl.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(wl.WORKLOADS)}")
    setups = [] if args.trace else measure_setup(args.workload, args.seed, root)

    workload = wl.WORKLOADS[args.workload](args.seed, workdir)
    workload.warm_up()

    if args.trace:
        metrics, traced, untraced, attempted, failed, tracers = traced_run(workload, args.seconds)
        units = {k: u for k, (u, _) in spans.LAYER_METRICS.items()}
        with open(workdir / f"spans-seed{args.seed}.json", "w") as fh:
            json.dump({i: [vars(s) for s in t.spans] for i, t in tracers.items()}, fh)
        print(f"traced solve_s: {spread(traced)}; untraced: {spread(untraced)}")
        complete = set(metrics) == set(units)
    else:
        t0 = time.perf_counter()
        ok, attempted, failed = run_ops(lambda i: workload.run(), workload.check, args.seconds)
        loop_s = time.perf_counter() - t0
        times = list(ok.values())
        metrics = {
            # with no passing operation the run is incorrect; report the mean
            # wall time per attempt rather than a non-number
            "solve_s": statistics.median(times) if times else loop_s / attempted,
            "setup_s": statistics.median(setups),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
        print(f"solve_s: {spread(times)}; setup_s: {spread(setups)}")
        complete = bool(times)

    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(f"failed_ratio = {failed / attempted:.6g} ({failed} of {attempted} operations)")
    print("env = " + json.dumps(environment()))
    result = {
        "correct": failed == 0 and complete,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
