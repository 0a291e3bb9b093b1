"""One benchmark child process; ``run.py`` starts a fresh one per job.

    python3 perf/child.py '<job JSON>'

Jobs (the ``"job"`` key):

``setup``  import everything a workload reaches, then exit; the parent
           times spawn to exit.
``run``    run one workload once, untraced or traced, and write its
           timings, cell digests and (traced) per-layer metrics.
``check``  compute reference-engine digests for the given cell keys.

Results go to the JSON file named by ``"out"``.  ``src`` must be on
``PYTHONPATH``; the parent sets it.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback

import workloads


def _disk_mb(root: str) -> float:
    total = 0
    for folder, _dirs, files in os.walk(root):
        total += sum(os.path.getsize(os.path.join(folder, f)) for f in files)
    return total / 1e6


def run_job(job: dict) -> dict:
    name, seed = job["workload"], job["seed"]
    if job["job"] == "check":
        stats = workloads.reference_stats(name, seed, job["keys"])
        return {key: workloads.digest(cell) for key, cell in stats.items()}

    recorder = patches = None
    if job["traced"]:
        import layers
        from spans import Recorder

        recorder = Recorder()
        patches = layers.install(recorder)
    stats, failed, error = {}, set(), None
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    try:
        stats, failed = workloads.run(name, seed, job.get("cache_dir"))
    except Exception:  # a failed workload is reported, not fatal
        error = traceback.format_exc()
    wall = time.perf_counter() - t0
    cpu = time.process_time() - cpu0
    if patches is not None:
        patches.restore()

    result = {
        "wall_s": wall,
        "cpu_s": cpu,
        "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "error": error,
        "digests": {key: workloads.digest(cell) for key, cell in stats.items()},
        "failed": sorted(failed),
        "expected": workloads.expected_keys(name, seed),
        "insts": sum(cell.retired_instructions for cell in stats.values()),
        "model": workloads.model_metrics(name, stats) if not error else {},
    }
    if recorder is not None:
        import layers

        layer = layers.span_metrics(recorder.spans, wall)
        cache_dir = job.get("cache_dir")
        layer["harness.cache.disk_mb"] = (
            _disk_mb(cache_dir) if cache_dir else 0.0
        )
        result["layers"] = layer
        if job.get("spans_path"):
            recorder.write_jsonl(job["spans_path"])
    return result


def main() -> None:
    job = json.loads(sys.argv[1])
    workloads.import_all()
    if job["job"] == "setup":
        return
    result = run_job(job)
    with open(job["out"], "w") as handle:
        json.dump(result, handle)


if __name__ == "__main__":
    main()
