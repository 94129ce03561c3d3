"""Record the reference results that workloads.py checks every operation
against, one entry per workload and seed variant.

    python3 perfbench/make_references.py

Run it from the repository root, and only when a change to dickemod is meant
to move these results: each variant runs once, must pass its physics check,
and its observed values replace the stored ones in references.json.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import run


def main() -> int:
    wl = run.import_workloads(Path.cwd())
    refs = {}
    for name, cls in wl.WORKLOADS.items():
        workdir = run.HERE / "out" / name
        workdir.mkdir(parents=True, exist_ok=True)
        cls(0, workdir).warm_up()
        refs[name] = {}
        for variant in range(wl.SEED_CLASSES):
            workload = cls(variant, workdir)
            result = workload.run()
            workload.check_physics(result)
            refs[name][str(variant)] = workload.observed(result)
            print(name, variant, refs[name][str(variant)], flush=True)
    wl.REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
