"""End-to-end wall-clock benchmark of the DMP reproduction.

    python3 perf/run.py [--seed N] [--out FILE]
        all four workloads: 3 interleaved untraced rounds, then one
        traced round; prints every metric and writes the JSON result.

    python3 perf/run.py --workload W --seed N --seconds T --trace 0|1
        one workload, repeated in fresh processes for T seconds; the
        last line of output is one JSON object with the end-to-end
        metrics (``--trace 0``) or the per-layer metrics (``--trace 1``).

Run it from the repository root.  Every workload run is its own child
process (``perf/child.py``), one at a time.  Outputs are checked
against the golden digests in ``perf/golden/`` or, for a seed without
them, against the reference engine on a sample of cells.  See
``perf/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

import workloads

ROOT = Path(__file__).resolve().parent.parent
PERF = ROOT / "perf"
WORK = ROOT / ".perf_work"

ROUNDS = 3
#: Fewest untraced repetitions a time-boxed run takes, however short.
MIN_REPS = 3
SETUP_SPAWNS = 10
#: Enough that the first 3 untraced runs carry all set-up spawns.
SETUP_SPAWNS_PER_RUN = 4
#: Cells checked against the reference engine for a seed with no golden
#: digests.
SAMPLE_CELLS = 4
CHILD_TIMEOUT_S = 150


class Runner:
    """Starts the child processes of one benchmark invocation."""

    def __init__(self, seed: int, work: Path) -> None:
        self.seed = seed
        self.work = work
        self.jobs = 0
        #: Artifact cache left by the latest suite-cold run; each
        #: figure-warm run starts from a fresh copy of it.
        self.template: Optional[Path] = None
        self.env = dict(os.environ)
        path = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = str(ROOT / "src") + (
            os.pathsep + path if path else ""
        )
        self.env.update(
            OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
            MKL_NUM_THREADS="1", PYTHONHASHSEED="0", TMPDIR=str(work),
        )

    def _fresh(self, stem: str) -> Path:
        self.jobs += 1
        return self.work / f"{stem}-{self.jobs}"

    def spawn(self, job: dict) -> Optional[dict]:
        """Run one child to completion; its JSON result, if it wrote one."""
        out = self._fresh("out")
        job = dict(job, seed=self.seed, out=str(out))
        with subprocess.Popen(
            [sys.executable, str(PERF / "child.py"), json.dumps(job)],
            cwd=ROOT, env=self.env, stdout=subprocess.DEVNULL,
        ) as proc:
            # A blocking wait with a watchdog thread, not wait(timeout=):
            # the latter polls in sleeps of up to 50 ms, which would
            # quantize every set-up time to 50 ms steps.
            watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                code = proc.wait()
            except BaseException:
                proc.kill()  # leaving the with-block reaps it
                raise
            finally:
                watchdog.cancel()
        if code != 0:
            raise subprocess.CalledProcessError(code, proc.args)
        if job["job"] == "setup":
            return None
        with open(out) as handle:
            result = json.load(handle)
        out.unlink()
        return result

    def setup_time(self, workload: str) -> float:
        t0 = time.perf_counter()
        self.spawn({"job": "setup", "workload": workload})
        return time.perf_counter() - t0

    def rep(self, workload: str, traced: bool) -> dict:
        """One run of ``workload`` in a fresh child."""
        job = {"job": "run", "workload": workload, "traced": traced}
        cache = None
        if workload in ("suite-cold", "figure-warm"):
            cache = self._fresh("cache")
            job["cache_dir"] = str(cache)
            if workload == "figure-warm":
                shutil.copytree(self.template, cache)
        if traced:
            spans = WORK / "spans"
            spans.mkdir(parents=True, exist_ok=True)
            job["spans_path"] = str(
                spans / f"{workload}-seed{self.seed}.jsonl"
            )
        result = self.spawn(job)
        if workload == "suite-cold":
            if self.template is not None:
                shutil.rmtree(self.template)
            self.template = cache
        elif cache is not None:
            shutil.rmtree(cache)
        return result


def load_golden(seed: int) -> Optional[dict]:
    path = PERF / "golden" / f"seed{seed}.json"
    if not path.exists():
        return None
    with open(path) as handle:
        golden = json.load(handle)
    if golden["sizes"] != workloads.sizes():
        raise SystemExit(
            f"{path} was computed for sizes {golden['sizes']}, not "
            f"{workloads.sizes()}; regenerate it with perf/golden.py"
        )
    return golden


def check(runner: Runner, workload: str, reps: List[dict],
          golden: Optional[dict]) -> dict:
    """Count attempted and failed cells over every run of a workload.

    A cell fails if it is missing (its run raised), if the workload
    reported it failed (a fuzz finding), if its digest differs between
    runs, or if it differs from the reference digest."""
    first = reps[0]["digests"]
    if golden is not None:
        reference = golden["workloads"][workload]["cells"]
        how = "golden"
    else:
        keys = random.Random(runner.seed).sample(
            sorted(reps[0]["expected"]), SAMPLE_CELLS
        )
        reference = runner.spawn(
            {"job": "check", "workload": workload, "keys": keys}
        )
        how = f"sampled {SAMPLE_CELLS} cells against the reference engine"
        print(
            f"{workload}: no golden digests for seed {runner.seed}; "
            f"{how}: {', '.join(keys)}"
        )
    attempted = failed = 0
    for rep in reps:
        digests, bad = rep["digests"], set(rep["failed"])
        for key in rep["expected"]:
            got = digests.get(key)
            if (
                got is None or key in bad or got != first.get(key)
                or got != reference.get(key, got)
            ):
                failed += 1
        attempted += len(rep["expected"])
        if rep["error"]:
            print(f"{workload}: run raised\n{rep['error']}", file=sys.stderr)
    return {"attempted": attempted, "failed": failed, "check": how}


def _timing(samples: List[float], unit: str) -> dict:
    return {
        "value": statistics.median(samples),
        "unit": unit,
        "min": min(samples),
        "max": max(samples),
        "n": len(samples),
        "samples": samples,
    }


def summarize(workload: str, reps: List[dict], traced: List[dict],
              setup: List[float], outcome: dict, golden: Optional[dict],
              units: Dict[str, str]) -> dict:
    """The end-to-end and per-layer metrics of one workload."""
    insts = (
        golden["workloads"][workload]["retired_instructions"]
        if golden is not None else reps[0]["insts"]
    )
    walls = [rep["wall_s"] for rep in reps]
    end_to_end = {
        "wall_s": _timing(walls, units["wall_s"]),
        "sim_kips": _timing(
            [insts / wall / 1e3 for wall in walls], units["sim_kips"]
        ),
        "peak_rss_mb": _timing(
            [rep["maxrss_mb"] for rep in reps], units["peak_rss_mb"]
        ),
        "error_rate": {
            "value": outcome["failed"] / outcome["attempted"],
            "unit": "ratio",
        },
    }
    if setup:
        end_to_end["setup_s"] = _timing(setup, units["setup_s"])
    per_layer: Dict[str, dict] = {}
    if traced:
        layer: Dict[str, float] = {}
        for name in traced[0]["layers"]:
            layer[name] = statistics.median(
                rep["layers"][name] for rep in traced
            )
        layer["host.cpu_s"] = statistics.median(rep["cpu_s"] for rep in reps)
        layer["host.offcpu_frac"] = statistics.median(
            1.0 - rep["cpu_s"] / rep["wall_s"] for rep in reps
        )
        layer["trace.overhead_frac"] = (
            statistics.median(rep["wall_s"] for rep in traced)
            / statistics.median(walls) - 1.0
        )
        layer.update(reps[0]["model"])
        per_layer = {
            name: {"value": value, "unit": units[name]}
            for name, value in sorted(layer.items())
        }
    return {
        "correct": outcome["failed"] == 0,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "check": outcome["check"],
        "end_to_end": end_to_end,
        "per_layer": per_layer,
    }


def print_metrics(workload: str, summary: dict) -> None:
    for name, metric in {**summary["end_to_end"], **summary["per_layer"]}.items():
        spread = (
            f"  (min {metric['min']:.6g}, max {metric['max']:.6g}, "
            f"n={metric['n']})" if "n" in metric else ""
        )
        print(
            f"{workload:12s} {name:34s} {metric['value']:14.6g} "
            f"{metric['unit']}{spread}"
        )
    print(
        f"{workload:12s} cells: {summary['attempted']} attempted, "
        f"{summary['failed']} failed ({summary['check']})"
    )


def spawn_setups(runner: Runner, workload: str, times: List[float]) -> None:
    """Add the next set-up-only spawns before an untraced run.  Spreading
    them over the first runs makes ``setup_s`` sample the same stretch
    of host time as ``wall_s``, whose speed drifts over minutes."""
    need = min(SETUP_SPAWNS_PER_RUN, SETUP_SPAWNS - len(times))
    times.extend(runner.setup_time(workload) for _ in range(need))


def run_all(runner: Runner, golden, units) -> Dict[str, dict]:
    """3 interleaved untraced rounds over the four workloads, then one
    traced round."""
    setup: Dict[str, List[float]] = {w: [] for w in workloads.WORKLOADS}
    reps: Dict[str, List[dict]] = {w: [] for w in workloads.WORKLOADS}
    for _ in range(ROUNDS):
        for w in workloads.WORKLOADS:
            spawn_setups(runner, w, setup[w])
            reps[w].append(runner.rep(w, traced=False))
    traced = {w: [runner.rep(w, traced=True)] for w in workloads.WORKLOADS}
    out = {}
    for w in workloads.WORKLOADS:
        outcome = check(runner, w, reps[w] + traced[w], golden)
        out[w] = summarize(
            w, reps[w], traced[w], setup[w], outcome, golden, units
        )
    return out


def run_one(runner: Runner, workload: str, seconds: float, trace: bool,
            golden, units) -> dict:
    """One workload, repeated for ``seconds``; with ``trace`` every
    untraced run is followed by a traced one."""
    setup: List[float] = []
    reps: List[dict] = []
    traced: List[dict] = []
    if workload == "figure-warm":
        runner.rep("suite-cold", traced=False)  # leaves the warm cache
    start = time.perf_counter()
    while True:
        if not trace:
            spawn_setups(runner, workload, setup)
        reps.append(runner.rep(workload, traced=False))
        if trace:
            traced.append(runner.rep(workload, traced=True))
        if (
            time.perf_counter() - start - sum(setup) >= seconds
            and len(reps) >= (1 if trace else MIN_REPS)
        ):
            break
    outcome = check(runner, workload, reps + traced, golden)
    return summarize(workload, reps, traced, setup, outcome, golden, units)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--out", help="write the JSON result here (default for a run of "
        "all workloads: .perf_work/result-seed<N>.json)",
    )
    args = parser.parse_args(argv)
    if args.out is None and args.workload is None:
        args.out = str(WORK / f"result-seed{args.seed}.json")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro").is_dir() or not spec_path.is_file():
        print(
            f"perf/run.py: {ROOT} is not a checkout of the repository "
            "(src/repro or BENCHMARK.json is missing)", file=sys.stderr,
        )
        return 2
    with open(spec_path) as handle:
        spec = json.load(handle)
    units = {
        m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]
    }
    golden = load_golden(args.seed)

    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    runner = Runner(args.seed, work)
    try:
        if args.workload is None:
            results = run_all(runner, golden, units)
        else:
            results = {
                args.workload: run_one(
                    runner, args.workload, args.seconds, bool(args.trace),
                    golden, units,
                )
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for workload, summary in results.items():
        print_metrics(workload, summary)
    document = {
        "schema": "perf-result/1",
        "seed": args.seed,
        "rounds": ROUNDS if args.workload is None else None,
        "seconds": args.seconds if args.workload else None,
        "workloads": results,
    }
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(document, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.out}")
    if args.workload is not None:
        summary = results[args.workload]
        names = [
            m["name"]
            for m in spec["per_layer" if args.trace else "end_to_end"]
        ]
        metrics = {**summary["end_to_end"], **summary["per_layer"]}
        print(json.dumps({
            "correct": summary["correct"],
            "attempted": summary["attempted"],
            "failed": summary["failed"],
            "metrics": {
                name: {"value": metrics[name]["value"],
                       "unit": metrics[name]["unit"]}
                for name in names
            },
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
