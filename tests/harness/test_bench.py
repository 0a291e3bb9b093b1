"""The engine microbenchmark harness (repro.harness.bench)."""

import math

import pytest

from repro.harness import bench


def _cell(benchmark="parser", config="base", speedup=2.0, identical=True,
          traced_identical=True, degenerate=False):
    return {
        "benchmark": benchmark,
        "config": config,
        "retired_instructions": 1000,
        "identical": identical,
        "traced_identical": traced_identical,
        "traced_events": 10,
        "degenerate": degenerate,
        "reference_cold_s": speedup,
        "fast_cold_s": 1.0,
        "fast_warm_s": 1.0,
        "reference_cold_ips": 1000 / speedup if speedup else 0.0,
        "fast_cold_ips": 1000.0,
        "fast_warm_ips": 1000.0,
        "speedup_cold": speedup,
        "speedup_warm": speedup,
    }


def _report(cells):
    live = [c for c in cells if not c.get("degenerate")]
    return {
        "schema": bench.SCHEMA,
        "parameters": {},
        "host": {},
        "cells": cells,
        "summary": {
            "geomean_speedup_cold": bench.geomean(
                c["speedup_cold"] for c in live
            ),
            "geomean_speedup_warm": bench.geomean(
                c["speedup_warm"] for c in live
            ),
            "all_identical": all(c["identical"] for c in cells),
            "all_traced_identical": all(
                c.get("traced_identical", True) for c in cells
            ),
            "degenerate_cells": [
                f"{c['benchmark']}/{c['config']}" for c in cells
                if c.get("degenerate")
            ],
        },
    }


class TestGeomean:
    def test_basic(self):
        assert bench.geomean([2.0, 8.0]) == pytest.approx(4.0)

    def test_ignores_nonpositive(self):
        assert bench.geomean([4.0, 0.0]) == pytest.approx(4.0)

    def test_empty(self):
        assert bench.geomean([]) == 0.0


class TestCompare:
    def test_clean_pass(self):
        report = _report([_cell()])
        assert bench.compare(report, report) == []

    def test_within_budget_passes(self):
        current = _report([_cell(speedup=1.6)])
        baseline = _report([_cell(speedup=2.0)])
        assert bench.compare(current, baseline, max_regression=0.25) == []

    def test_cell_regression_fails(self):
        current = _report([_cell(speedup=1.4)])
        baseline = _report([_cell(speedup=2.0)])
        problems = bench.compare(current, baseline, max_regression=0.25)
        assert any("parser/base" in p for p in problems)

    def test_overall_geomean_regression_fails(self):
        current = _report([_cell(speedup=1.0)])
        baseline = _report([_cell(speedup=2.0)])
        problems = bench.compare(current, baseline, max_regression=0.25)
        assert any(p.startswith("overall") for p in problems)

    def test_identity_mismatch_always_fails(self):
        current = _report([_cell(identical=False)])
        problems = bench.compare(current, current)
        assert any("diverge" in p for p in problems)

    def test_unmatched_cells_are_skipped(self):
        current = _report([_cell(config="dhp", speedup=1.0)])
        baseline = _report([_cell(config="base", speedup=2.0)])
        problems = bench.compare(current, baseline, max_regression=0.25)
        # No per-cell match; only the overall geomean can fire.
        assert all(p.startswith("overall") for p in problems)

    def test_faster_is_never_a_regression(self):
        current = _report([_cell(speedup=3.0)])
        baseline = _report([_cell(speedup=2.0)])
        assert bench.compare(current, baseline) == []

    def test_traced_mismatch_always_fails(self):
        current = _report([_cell(traced_identical=False)])
        problems = bench.compare(current, current)
        assert any("tracing perturbed" in p for p in problems)

    def test_missing_summary_geomeans_do_not_crash(self):
        # An all-degenerate report (every cell below the process_time
        # tick) can legitimately lack the summary geomeans; compare must
        # treat the absent key as "no ratio information", not KeyError.
        current = _report([_cell()])
        baseline = _report([_cell()])
        del baseline["summary"]["geomean_speedup_cold"]
        assert bench.compare(current, baseline) == []
        del current["summary"]["geomean_speedup_cold"]
        assert bench.compare(current, baseline) == []

    def test_all_degenerate_report_compares_clean(self):
        report = _report([_cell(speedup=0.0, degenerate=True)])
        assert report["summary"]["geomean_speedup_cold"] == 0.0
        assert bench.compare(report, report) == []


class TestDegenerateCells:
    """Cells that finished below the process_time tick carry no ratio
    information and must be excluded rather than ingested as 0.0."""

    def test_degenerate_current_cell_is_not_a_regression(self):
        # A degenerate current cell would read as an (impossible)
        # speedup collapse if its fake zero ratio were compared.
        current = _report([_cell(speedup=0.0, degenerate=True),
                           _cell(config="dhp", speedup=2.0)])
        baseline = _report([_cell(speedup=2.0),
                            _cell(config="dhp", speedup=2.0)])
        assert bench.compare(current, baseline, max_regression=0.25) == []

    def test_degenerate_baseline_cell_is_skipped(self):
        current = _report([_cell(speedup=0.5)])
        baseline = _report([_cell(speedup=0.0, degenerate=True)])
        assert bench.compare(current, baseline, max_regression=0.25) == []

    def test_zero_speedup_baseline_with_explicit_marker_false(self):
        # Regression test: a baseline cell that claims degenerate=False
        # while carrying a 0.0 speedup used to crash the per-cell loop
        # with ZeroDivisionError; it must be skipped like any other
        # ratio-free cell, not take down the CI gate.
        current = _report([_cell(speedup=2.0)])
        baseline = _report([_cell(speedup=0.0, degenerate=False)])
        assert bench._degenerate(baseline["cells"][0])
        assert bench.compare(current, baseline, max_regression=0.25) == []

    def test_geomean_excludes_degenerate(self):
        report = _report([_cell(speedup=4.0),
                          _cell(config="dhp", speedup=0.0, degenerate=True)])
        assert report["summary"]["geomean_speedup_cold"] == pytest.approx(4.0)
        assert report["summary"]["degenerate_cells"] == ["parser/dhp"]

    def test_pre_marker_reports_infer_from_zero_speedup(self):
        # Reports written before the marker existed signalled a dead
        # cell only through a 0.0 speedup; compare() must still skip it.
        old_cell = {k: v for k, v in _cell(speedup=0.0).items()
                    if k not in ("degenerate", "traced_identical",
                                 "traced_events")}
        assert bench._degenerate(old_cell)
        current = _report([_cell(speedup=2.0)])
        baseline = _report([old_cell])
        assert bench.compare(current, baseline, max_regression=0.25) == []

    def test_pre_marker_live_cell_still_compared(self):
        old_cell = {k: v for k, v in _cell(speedup=2.0).items()
                    if k not in ("degenerate", "traced_identical",
                                 "traced_events")}
        assert not bench._degenerate(old_cell)
        current = _report([_cell(speedup=1.0)])
        problems = bench.compare(current, _report([old_cell]),
                                 max_regression=0.25)
        assert any("parser/base" in p for p in problems)


class TestReportIO:
    def test_save_load_round_trip(self, tmp_path):
        report = _report([_cell()])
        path = tmp_path / "BENCH_test.json"
        bench.save_report(report, path)
        assert bench.load_report(path) == report

    def test_load_rejects_unknown_schema(self, tmp_path):
        path = tmp_path / "BENCH_bad.json"
        bench.save_report({**_report([]), "schema": "other/9"}, path)
        with pytest.raises(ValueError):
            bench.load_report(path)


class TestRunBench:
    def test_unknown_config_rejected(self):
        with pytest.raises(ValueError):
            bench.run_bench(configs=("warp-drive",))

    def test_tiny_run_structure(self):
        report = bench.run_bench(
            benchmarks=("gzip",),
            configs=("base",),
            iterations=60,
            repeats=1,
            batch="off",
        )
        assert report["schema"] == bench.SCHEMA
        (cell,) = report["cells"]
        assert cell["identical"] is True
        assert cell["traced_identical"] is True
        assert cell["traced_events"] > 0
        assert cell["degenerate"] is False
        assert cell["retired_instructions"] > 0
        assert cell["fast_cold_ips"] > 0
        assert cell["speedup_cold"] > 0
        summary = report["summary"]
        assert summary["all_identical"] is True
        assert summary["all_traced_identical"] is True
        assert summary["degenerate_cells"] == []
        assert summary["geomean_speedup_cold"] == pytest.approx(
            cell["speedup_cold"]
        )
        assert not math.isnan(summary["geomean_speedup_warm"])
        # Unprofiled runs carry no scalar phase split.
        assert "profile" not in cell
        assert "scalar" not in summary["profile"]

    def test_scalar_profile_split(self):
        from repro.uarch.timing import TimingSimulator

        run = TimingSimulator.run
        report = bench.run_bench(
            benchmarks=("gzip",), configs=("dmp",), iterations=60,
            repeats=1, batch="off", profile=True,
        )
        # The wrappers lived only for the extra run.
        assert TimingSimulator.run is run
        (cell,) = report["cells"]
        assert cell["identical"] is True
        assert list(cell["profile"]) == [
            "construct", *bench.SCALAR_PHASES, "other",
        ]
        for phase in ("predictor", "confidence", "trace_fetch",
                      "wrong_path", "dpred_episode", "other"):
            assert cell["profile"][phase] > 0, phase
        assert report["summary"]["profile"] == {"scalar": cell["profile"]}

    def test_unknown_batch_mode_rejected(self):
        with pytest.raises(ValueError):
            bench.run_bench(batch="sideways")

    def test_empty_sweep_is_skipped_not_divided_by(self):
        # A degenerate sweep description (no benchmarks, seeds or
        # configs) has zero cells; the group must report the skip
        # instead of dying on the per-cell share division.
        from repro.uarch.batch import batch_supported

        if not batch_supported():
            pytest.skip("numpy unavailable; batch engine inactive")
        for empty in (
            {"benchmarks": ()},
            {"seeds": ()},
            {"config_names": ()},
        ):
            kwargs = dict(
                benchmarks=("gzip",), iterations=10, seeds=(0,), sample=1,
                cache=None,
            )
            kwargs.update(empty)
            messages = []
            cell = bench._run_batch_group(
                "batch-test", say=messages.append, **kwargs
            )
            assert cell is None
            assert any("empty sweep" in m for m in messages)

    def test_batch_group_cell_structure(self):
        from repro.uarch.batch import batch_supported

        if not batch_supported():
            pytest.skip("numpy unavailable; batch engine inactive")
        cell = bench._run_batch_group(
            "batch-test", benchmarks=("gzip",), iterations=60,
            seeds=(0,), sample=2, cache=None, say=lambda _msg: None,
        )
        assert cell["benchmark"] == "suite"
        assert cell["config"] == "batch-test"
        assert cell["identical"] is True
        assert cell["degenerate"] is False
        assert cell["sweep_cells"] == len(bench._batch_grid())
        assert cell["sampled_reference_cells"] == 2
        assert cell["retired_instructions"] > 0
        assert cell["speedup_cold"] > 0
        # Phase attribution must account for the group's wall time and
        # carry every phase key, measured not estimated.
        assert set(cell["profile"]) == {
            "arena_build", "step_loop", "episode_tails",
            "scalar_walks", "scalar_fallback",
        }
        assert cell["profile"]["step_loop"] > 0
        assert set(cell["gang_stats"]) == {
            "gangs", "ganged_lanes", "singleton_lanes", "max_gang",
            "pred_states", "max_pred_states",
        }
        # Batch cells carry no warm/traced keys; the summary treats the
        # missing trace marker as non-perturbing rather than crashing.
        assert "speedup_warm" not in cell
        assert "traced_identical" not in cell

    def test_dmp_batch_group_cell_structure(self):
        from repro.uarch.batch import batch_supported

        if not batch_supported():
            pytest.skip("numpy unavailable; batch engine inactive")
        cell = bench._run_batch_group(
            "batch-dmp-test", benchmarks=("gzip",), iterations=60,
            seeds=(0,), sample=2, cache=None, say=lambda _msg: None,
            config_names=bench.DMP_BATCH_CONFIGS, use_hints=True,
            fast_modes=("dmp",),
        )
        assert cell["identical"] is True
        assert cell["degenerate"] is False
        assert cell["sweep_cells"] == len(
            bench._batch_grid(bench.DMP_BATCH_CONFIGS)
        )
        # The dmp arm must actually predicate on the vector path: the
        # fast-engine comparator samples dmp-mode cells only and its
        # geomean is the headline the CI gate rides on.
        assert cell["fast_sampled_cells"] > 0
        assert cell["speedup_fast_dmp"] > 0
        assert cell["fast_percell_s"] > 0
        # dmp lanes must actually share episodes: a sweep whose every
        # episode ran as a gang of one would silently measure the
        # wrong thing.
        assert cell["gang_stats"]["ganged_lanes"] > 0
        assert cell["gang_stats"]["max_gang"] >= 2
        assert cell["profile"]["episode_tails"] > 0


class TestFindLatestBaseline:
    def test_picks_newest_by_embedded_timestamp(self, tmp_path):
        for stamp in ("20260101T000000Z", "20261231T235959Z",
                      "20260615T120000Z"):
            bench.save_report(_report([]), tmp_path / f"BENCH_{stamp}.json")
        assert bench.find_latest_baseline(str(tmp_path)).endswith(
            "BENCH_20261231T235959Z.json"
        )

    def test_empty_directory_is_actionable(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="repro bench"):
            bench.find_latest_baseline(str(tmp_path))


class TestCliLatestBaseline:
    def test_latest_gates_against_the_older_report(
        self, tmp_path, monkeypatch, capsys
    ):
        """``repro bench --baseline latest`` compares against the newest
        report that existed *before* the run, not the one the run
        writes: a 2x run next to an older 4x report regresses."""
        from repro.cli import main

        older = tmp_path / "BENCH_20200101T000000Z.json"
        bench.save_report(_report([_cell(speedup=4.0)]), older)
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(
            bench, "run_bench",
            lambda **kwargs: _report([_cell(speedup=2.0)]),
        )
        code = main(["bench", "--smoke", "--baseline", "latest"])
        out, err = capsys.readouterr()
        assert f"baseline: ./{older.name}" in out
        assert "REGRESSION" in err
        assert code == 1
        # The run still wrote its own report, next to the older one.
        assert len(list(tmp_path.glob("BENCH_*.json"))) == 2
