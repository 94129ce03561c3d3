"""Run every workload over several seeds and summarise the spread.

    python3 perfbench/collect.py [--seeds 10] [--traced] [--out FILE]

Run it from the repository root. Each run is `perfbench/run.py` in its own
process, one after another, for BENCHMARK.json's run_seconds, on every
workload in BENCHMARK.json with seeds 1..--seeds. For every
end-to-end metric it prints the median and the quartile spread
(statistics.quantiles(values, n=4), q3 - q1 over the median) against the
metric's bound. --traced adds one traced run per workload; --out writes all
runs and the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import run


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600, check=True)
    lines = proc.stdout.splitlines()
    env = next(json.loads(l[len("env = "):]) for l in lines if l.startswith("env = "))
    spreads = [l for l in lines if "solve_s: " in l]
    return {"seed": seed, "trace": trace, "wall_s": time.perf_counter() - t0,
            "env": env, "op_times": spreads, "result": json.loads(lines[-1])}


def summarise(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
            "min": min(values), "max": max(values)}


def main(argv=None) -> int:
    bench = json.loads(Path("BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    report = {"run_seconds": seconds, "workloads": {}}
    for name in (w["name"] for w in bench["workloads"]):
        runs = [one_run(name, seed, seconds, 0) for seed in range(1, args.seeds + 1)]
        entry = {"runs": runs, "summary": {}}
        for metric, bound in bounds.items():
            values = [r["result"]["metrics"][metric]["value"] for r in runs]
            s = summarise(values)
            entry["summary"][metric] = s
            flag = "ok" if s["spread"] < bound / 3 else ("WIDE" if s["spread"] > bound else "near")
            print(f"{name:13s} {metric:13s} median {s['median']:10.4f}  spread {s['spread']:.3f}"
                  f"  (bound {bound}, {flag})", flush=True)
        failed = sum(r["result"]["failed"] for r in runs)
        attempted = sum(r["result"]["attempted"] for r in runs)
        entry["failed_ratio"] = failed / attempted
        print(f"{name:13s} failed_ratio {failed}/{attempted}; run wall "
              f"{min(r['wall_s'] for r in runs):.1f}..{max(r['wall_s'] for r in runs):.1f} s",
              flush=True)
        if args.traced:
            entry["traced"] = one_run(name, 1, seconds, 1)
        report["workloads"][name] = entry
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
