"""End-to-end tracing through the suite harness: serial, parallel and
the process-wide runtime toggle — and the bit-identity contract."""

import dataclasses
import os

import pytest

from repro.harness.experiment import BenchmarkContext, run_suite
from repro.obs.events import JsonlTracer
from repro.obs.reconcile import reconcile_directory, reconcile_trace
from repro.obs.runtime import (
    active_trace_dir,
    set_trace_dir,
    trace_path,
    tracing,
)
from repro.uarch.config import MachineConfig

ITERATIONS = 100


def _dejson(stats_dict):
    """Undo JSON's key stringification on a trace end record's stats."""
    out = dict(stats_dict)
    out["exit_cases"] = {
        int(case): count for case, count in out["exit_cases"].items()
    }
    return out

CONFIGS = {
    "base": MachineConfig.baseline(),
    "dmp": MachineConfig.dmp(enhanced=True),
}


class TestRuntimeToggle:
    def test_tracing_context_restores_previous(self):
        assert active_trace_dir() is None
        with tracing("somewhere"):
            assert active_trace_dir() == "somewhere"
            with tracing(None):  # disables tracing for the inner block
                assert active_trace_dir() is None
            assert active_trace_dir() == "somewhere"
        assert active_trace_dir() is None

    def test_set_returns_previous(self):
        try:
            assert set_trace_dir("a") is None
            assert set_trace_dir(None) == "a"
        finally:
            set_trace_dir(None)

    def test_trace_path_sanitizes_labels(self, tmp_path):
        path = trace_path(str(tmp_path), "gzip", "DHP/perf conf")
        assert path == os.path.join(
            str(tmp_path), "gzip__DHP-perf-conf.jsonl"
        )


class TestTracedSuite:
    def test_serial_traced_suite_reconciles_and_matches(self, tmp_path):
        trace_dir = str(tmp_path / "traces")
        plain = run_suite(CONFIGS, benchmarks=("gzip",),
                          iterations=ITERATIONS)
        traced = run_suite(CONFIGS, benchmarks=("gzip",),
                          iterations=ITERATIONS, trace_dir=trace_dir)
        assert traced == plain  # tracing never perturbs the stats
        summaries = reconcile_directory(trace_dir)
        assert {(s.benchmark, s.config) for s in summaries} == {
            ("gzip", "base"), ("gzip", "dmp"),
        }
        for summary in summaries:
            stats = traced.stats(summary.benchmark, summary.config)
            assert _dejson(summary.stats) == dataclasses.asdict(stats)

    def test_parallel_traced_suite_matches_serial(self, tmp_path):
        serial_dir = str(tmp_path / "serial")
        parallel_dir = str(tmp_path / "parallel")
        serial = run_suite(CONFIGS, benchmarks=("gzip", "parser"),
                           iterations=ITERATIONS, trace_dir=serial_dir)
        parallel = run_suite(CONFIGS, benchmarks=("gzip", "parser"),
                             iterations=ITERATIONS, jobs=2,
                             trace_dir=parallel_dir)
        assert parallel == serial
        serial_sums = reconcile_directory(serial_dir)
        parallel_sums = reconcile_directory(parallel_dir)
        assert len(parallel_sums) == 4
        # Workers wrote per-cell files; the two trees reconcile to the
        # same episode accounting in the same (sorted) order.
        for a, b in zip(serial_sums, parallel_sums):
            assert (a.benchmark, a.config) == (b.benchmark, b.config)
            assert a.exit_cases == b.exit_cases
            assert a.stats == b.stats

    def test_batch_traced_suite_counts_its_fallbacks(self, tmp_path):
        """A traced cell carries its tracer into the batch group, which
        runs it on the fast engine and says so in the fallback count."""
        trace_dir = str(tmp_path / "batch")
        plain = run_suite(CONFIGS, benchmarks=("gzip",),
                          iterations=ITERATIONS, executor="batch")
        traced = run_suite(CONFIGS, benchmarks=("gzip",),
                           iterations=ITERATIONS, executor="batch",
                           trace_dir=trace_dir)
        assert traced == plain
        assert traced.timings.batch_fallbacks == {"event tracer attached": 2}
        assert traced.timings.batch_vector_cells == 0
        summaries = reconcile_directory(trace_dir)
        assert {(s.benchmark, s.config) for s in summaries} == {
            ("gzip", "base"), ("gzip", "dmp"),
        }
        for summary in summaries:
            stats = traced.stats(summary.benchmark, summary.config)
            assert _dejson(summary.stats) == dataclasses.asdict(stats)

    def test_runtime_toggle_reaches_run_suite(self, tmp_path):
        trace_dir = str(tmp_path / "toggled")
        with tracing(trace_dir):
            run_suite({"base": CONFIGS["base"]}, benchmarks=("gzip",),
                      iterations=ITERATIONS)
        assert os.listdir(trace_dir) == ["gzip__base.jsonl"]
        reconcile_trace(os.path.join(trace_dir, "gzip__base.jsonl"))


class TestTracedSimulateBypassesMemo:
    def test_traced_run_always_simulates(self, tmp_path):
        context = BenchmarkContext("gzip", iterations=ITERATIONS, seed=0)
        config = CONFIGS["dmp"]
        first = context.simulate(config)
        runs_before = context.sims_run
        assert context.simulate(config) is first  # memo hit
        assert context.sims_run == runs_before

        out = trace_path(str(tmp_path), "gzip", "dmp")
        tracer = JsonlTracer(out, meta={"benchmark": "gzip", "config": "dmp"})
        try:
            traced = context.simulate(config, tracer=tracer)
        finally:
            tracer.close()
        assert context.sims_run == runs_before + 1  # memo bypassed
        assert dataclasses.asdict(traced) == dataclasses.asdict(first)
        reconcile_trace(out)
