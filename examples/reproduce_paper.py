"""Regenerate every table and figure of the paper's evaluation.

Runs all the drivers in :mod:`repro.harness.figures` over the 15-benchmark
suite and prints each exhibit in paper order, each followed by its wall
time.  Benchmark artifacts (traces, profiles, hint tables) are shared
across exhibits, so the whole reproduction costs one trace + profile per
benchmark plus one simulation per distinct machine configuration.

Run:  python examples/reproduce_paper.py [--iterations N] [--only fig7,fig9]
          [--jobs N] [--engine fast|reference|batch] [--cache-dir PATH]
      (the default 1500 iterations takes a few minutes; use e.g. 400 for a
      quick look)

``--jobs``, ``--engine`` and ``--cache-dir`` mean what they mean for
``repro figure`` and reach every driver; results are bit-identical
whatever they are set to.
"""

import argparse
import time

from repro.harness import figures
from repro.harness.cache import ArtifactCache


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--iterations", type=int, default=1500)
    parser.add_argument(
        "--only",
        type=str,
        default="",
        help="comma-separated exhibit names, e.g. fig7,fig9,table3",
    )
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="fan simulations out over N worker processes")
    parser.add_argument("--engine", default="",
                        choices=["", "fast", "reference", "batch"],
                        help="simulation engine override (see "
                             "`repro figure --help`)")
    parser.add_argument("--cache-dir", default=None, metavar="PATH",
                        help="persist traces/profiles/hints/stats under "
                             "PATH and reuse them on later runs")
    args = parser.parse_args()

    wanted = [n.strip() for n in args.only.split(",") if n.strip()]
    drivers = {
        name: fn
        for name, fn in figures.ALL_DRIVERS.items()
        if not wanted or name in wanted
    }
    cache = ArtifactCache(args.cache_dir) if args.cache_dir else None

    contexts = {}
    for name, driver in drivers.items():
        started = time.time()
        if name in ("table1", "table2"):
            result = driver()
        else:
            result = driver(
                contexts=contexts,
                iterations=args.iterations,
                jobs=args.jobs,
                cache=cache,
                engine=args.engine,
            )
        print(result.format())
        print(f"[{name}: {time.time() - started:.1f}s]\n")


if __name__ == "__main__":
    main()
