"""Write the golden digests the benchmark checks every output against.

    python3 perf/golden.py [SEED ...]        (default: 0 1)

For each seed, ``perf/golden/seed<SEED>.json`` holds, per workload, the
sha256 of every cell's canonical ``dataclasses.asdict(SimStats)`` and
the workload's retired-instruction total.  The stats come from the
reference engine, one cell at a time and with no cache, so the gate does
not depend on the engines, executors or cache it checks.  Seed 0 is the
development seed and seed 1 is held out.

Regenerate after changing a workload's sizes or the timing model; a
change that only makes the simulator faster leaves these files
byte-identical.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


def golden(seed: int) -> dict:
    out = {"seed": seed, "sizes": workloads.sizes(), "workloads": {}}
    for name in workloads.WORKLOADS:
        keys = workloads.expected_keys(name, seed)
        stats = workloads.reference_stats(name, seed, keys)
        out["workloads"][name] = {
            "retired_instructions": sum(
                cell.retired_instructions for cell in stats.values()
            ),
            "cells": {key: workloads.digest(stats[key]) for key in keys},
        }
        print(f"seed {seed}: {name}: {len(keys)} cells", flush=True)
    return out


def main(argv) -> None:
    seeds = [int(arg) for arg in argv] or [0, 1]
    folder = Path(__file__).resolve().parent / "golden"
    folder.mkdir(exist_ok=True)
    for seed in seeds:
        path = folder / f"seed{seed}.json"
        with open(path, "w") as handle:
            json.dump(golden(seed), handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"wrote {path}")


if __name__ == "__main__":
    main(sys.argv[1:])
