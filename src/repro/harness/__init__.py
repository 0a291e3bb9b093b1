"""Experiment harness: regenerates every table and figure of the paper.

* :mod:`repro.harness.experiment` — per-benchmark context (workload →
  trace → profiles → hint tables, built once, shared across machine
  configurations) and suite runners: each cell resolved once from the
  memo, the disk cache or a serial, process-pool or batch simulation;
* :mod:`repro.harness.fingerprint` — canonical experiment fingerprints
  (the cache/memo keys; never ``repr``);
* :mod:`repro.harness.cache` — persistent, checksummed artifact cache;
* :mod:`repro.harness.bench` — engine throughput microbenchmark and
  perf-regression gate (``repro bench``);
* :mod:`repro.harness.tables` — text rendering of result tables;
* :mod:`repro.harness.figures` — one driver per paper figure/table, each
  returning the data series the paper plots.
"""

from repro.harness import bench
from repro.harness.cache import ArtifactCache, CacheCounters
from repro.harness.experiment import (
    BenchmarkContext,
    SuiteResult,
    SuiteTimings,
    run_multi_seed,
    run_suite,
)
from repro.harness.fingerprint import (
    config_fingerprint,
    context_fingerprint,
    fingerprint,
)
from repro.harness.tables import format_table
from repro.harness import figures

__all__ = [
    "ArtifactCache",
    "bench",
    "BenchmarkContext",
    "CacheCounters",
    "SuiteResult",
    "SuiteTimings",
    "config_fingerprint",
    "context_fingerprint",
    "fingerprint",
    "format_table",
    "figures",
    "run_multi_seed",
    "run_suite",
]
