"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.cli import CONFIG_FACTORIES, build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_suite_defaults(self):
        args = build_parser().parse_args(["suite"])
        assert args.configs == "base,dhp,dmp,dmp-enhanced"
        assert args.iterations == 800

    def test_figure_args(self):
        args = build_parser().parse_args(
            ["figure", "fig7", "--benchmarks", "mcf", "--iterations", "100"]
        )
        assert args.name == "fig7"
        assert args.iterations == 100


class TestConfigFactories:
    def test_all_factories_build(self):
        for name, factory in CONFIG_FACTORIES.items():
            config = factory()
            assert config.describe(), name

    def test_enhanced_flags(self):
        config = CONFIG_FACTORIES["dmp-enhanced"]()
        assert config.multiple_cfm and config.early_exit


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "bzip2" in out
        assert "dmp-enhanced" in out
        assert "fig7" in out

    def test_suite_small(self, capsys):
        assert main([
            "suite", "--benchmarks", "eon", "--configs", "base,dmp",
            "--iterations", "60",
        ]) == 0
        out = capsys.readouterr().out
        assert "eon" in out

    def test_suite_relative(self, capsys):
        assert main([
            "suite", "--benchmarks", "eon", "--configs", "base,dmp",
            "--iterations", "60", "--relative",
        ]) == 0
        assert "%" in capsys.readouterr().out

    def test_figure_table(self, capsys):
        assert main(["figure", "table2"]) == 0
        assert "perceptron" in capsys.readouterr().out

    def test_figure_dynamic(self, capsys):
        assert main([
            "figure", "fig1", "--benchmarks", "eon", "--iterations", "60",
        ]) == 0
        assert "wrong" in capsys.readouterr().out

    def test_inspect(self, capsys):
        assert main(["inspect", "gzip", "--iterations", "80"]) == 0
        out = capsys.readouterr().out
        assert "diverge branches" in out

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(SystemExit):
            main(["suite", "--benchmarks", "soplex", "--iterations", "60"])

    def test_unknown_config_rejected(self):
        with pytest.raises(SystemExit):
            main(["suite", "--configs", "warp", "--iterations", "60"])

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit):
            main(["figure", "fig99"])


class TestValidateCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["validate"])
        assert args.iterations == 400
        assert args.inject == ""
        assert not args.expect_faults

    def test_seed_flags(self):
        assert build_parser().parse_args(["suite", "--seed", "7"]).seed == 7
        assert build_parser().parse_args(
            ["inspect", "mcf", "--seed", "5"]
        ).seed == 5

    def test_seeded_suite_runs(self, capsys):
        assert main([
            "suite", "--benchmarks", "eon", "--configs", "base",
            "--iterations", "60", "--seed", "3",
        ]) == 0
        assert "eon" in capsys.readouterr().out

    def test_clean_validate_exits_zero(self, capsys):
        assert main([
            "validate", "--benchmarks", "eon", "--iterations", "60",
        ]) == 0
        assert "ok" in capsys.readouterr().out

    def test_injected_faults_detected_exit_two(self, capsys):
        code = main([
            "validate", "--benchmarks", "parser", "--iterations", "120",
            "--inject", "self-cfm",
        ])
        assert code == 2
        assert "fault-injection report" in capsys.readouterr().out

    def test_expect_faults_ci_mode(self, capsys):
        assert main([
            "validate", "--benchmarks", "parser", "--iterations", "120",
            "--inject", "self-cfm,truncated-table", "--expect-faults",
        ]) == 0

    def test_unknown_fault_class_rejected(self):
        with pytest.raises(SystemExit):
            main(["validate", "--inject", "bit-rot"])

    def test_paranoid_flag_restored_after_run(self, capsys):
        from repro.validation.runtime import paranoid_enabled

        assert main([
            "suite", "--benchmarks", "eon", "--configs", "base,dmp",
            "--iterations", "60", "--paranoid",
        ]) == 0
        assert not paranoid_enabled()


class TestParallelCacheFlags:
    def test_flag_defaults(self):
        args = build_parser().parse_args(["suite"])
        assert args.jobs == 1
        assert args.cache_dir is None
        assert not args.no_cache
        assert not args.timings
        fig_args = build_parser().parse_args(["figure", "fig7", "--jobs", "3"])
        assert fig_args.jobs == 3

    def test_suite_parallel_runs(self, capsys):
        assert main([
            "suite", "--benchmarks", "eon", "--configs", "base,dmp",
            "--iterations", "60", "--jobs", "2",
        ]) == 0
        assert "eon" in capsys.readouterr().out

    def test_suite_timings_report(self, capsys):
        assert main([
            "suite", "--benchmarks", "eon", "--configs", "base",
            "--iterations", "60", "--timings",
        ]) == 0
        out = capsys.readouterr().out
        assert "timings (jobs=1)" in out
        assert "simulations:" in out

    def test_suite_cache_warm_second_run(self, tmp_path, capsys):
        argv = [
            "suite", "--benchmarks", "eon", "--configs", "base",
            "--iterations", "60", "--cache-dir", str(tmp_path), "--timings",
        ]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert "0 disk hit(s)" in cold
        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert "0 run, 0 memo hit(s), 1 disk hit(s)" in warm
        assert "0 miss(es)" in warm

    def test_no_cache_overrides_env(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main([
            "suite", "--benchmarks", "eon", "--configs", "base",
            "--iterations", "60", "--no-cache",
        ]) == 0
        assert not list(tmp_path.iterdir())

    def test_env_cache_dir_used(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main([
            "suite", "--benchmarks", "eon", "--configs", "base",
            "--iterations", "60",
        ]) == 0
        assert (tmp_path / "sim").exists()

    def test_figure_with_cache_and_jobs(self, tmp_path, capsys):
        assert main([
            "figure", "fig1", "--benchmarks", "eon", "--iterations", "60",
            "--cache-dir", str(tmp_path), "--jobs", "2",
        ]) == 0
        assert "wrong" in capsys.readouterr().out
        assert (tmp_path / "sim").exists()


class TestListFaults:
    def test_lists_every_fault_class(self, capsys):
        from repro.validation.faults import FAULT_NAMES

        assert main(["validate", "--list-faults"]) == 0
        out = capsys.readouterr().out
        for name in FAULT_NAMES:
            assert name in out
        # Detection-channel legend markers are present.
        assert "static" in out and "runtime" in out

    def test_list_faults_runs_no_simulation(self, capsys):
        # --list-faults must return before any benchmark work; keep it
        # instant so `repro validate --list-faults | grep` is a shell
        # reflex, not a coffee break.
        import time

        start = time.perf_counter()
        assert main(["validate", "--list-faults"]) == 0
        assert time.perf_counter() - start < 1.0
        capsys.readouterr()


class TestFuzzCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["fuzz"])
        assert args.seeds == "0:50"
        assert args.jobs == 1 and not args.minimize
        assert args.iterations == 120 and args.max_gadgets == 4

    def test_seed_range_and_list_syntax(self):
        from repro.cli import _parse_seeds

        assert _parse_seeds("0:4") == [0, 1, 2, 3]
        assert _parse_seeds("7,3,7") == [7, 3, 7]
        with pytest.raises(SystemExit):
            _parse_seeds("4:4")
        with pytest.raises(SystemExit):
            _parse_seeds("banana")

    def test_empty_seed_list_is_an_error(self):
        # Regression test: "" and "," used to parse to [] so a typo'd
        # nightly invocation fuzzed nothing and still exited 0 "clean".
        from repro.cli import _parse_seeds

        for raw in ("", ",", " ", ",,,"):
            with pytest.raises(SystemExit):
                _parse_seeds(raw)

    def test_clean_sweep_exits_zero(self, tmp_path, capsys):
        out_file = tmp_path / "report.json"
        assert main([
            "fuzz", "--seeds", "0:2", "--output", str(out_file),
        ]) == 0
        assert "0 finding(s)" in capsys.readouterr().out
        import json

        payload = json.loads(out_file.read_text())
        assert payload["schema"] == "repro-fuzz/1"
        assert payload["checked"] == 2


class TestBenchFlags:
    def test_min_speedup_accepts_bare_number_as_cold_floor(self):
        from repro.cli import _parse_min_speedup

        assert _parse_min_speedup("") == {}
        assert _parse_min_speedup("1.5") == {"cold": 1.5}

    def test_min_speedup_per_group_floors(self):
        from repro.cli import _parse_min_speedup

        assert _parse_min_speedup("cold=1.2,dmp=1.3,batch=2.0") == {
            "cold": 1.2, "dmp": 1.3, "batch": 2.0,
        }
        assert _parse_min_speedup("dmp=3") == {"dmp": 3.0}

    def test_min_speedup_rejects_unknown_group_and_junk(self):
        from repro.cli import _parse_min_speedup

        for raw in ("warm=2.0", "cold=fast", "cold=", "=1.5"):
            with pytest.raises(ValueError):
                _parse_min_speedup(raw)

    def test_bench_parser_carries_profile_and_floor_flags(self):
        args = build_parser().parse_args([
            "bench", "--smoke", "--profile",
            "--min-speedup", "cold=1.2,dmp=1.3,batch=2.0",
        ])
        assert args.profile is True
        assert args.min_speedup == "cold=1.2,dmp=1.3,batch=2.0"

    def test_fuzz_parser_carries_gang_flag(self):
        args = build_parser().parse_args(["fuzz", "--gang"])
        assert args.gang is True
        assert build_parser().parse_args(["fuzz"]).gang is False


class TestReproducePaperExample:
    """``examples/reproduce_paper.py`` hands ``--jobs``, ``--engine`` and
    ``--cache-dir`` to every driver, as ``repro figure`` does."""

    def test_flags_reach_every_driver(self, monkeypatch, tmp_path, capsys):
        import inspect
        import pathlib
        import runpy

        from repro.harness import figures
        from repro.harness.cache import ArtifactCache

        calls = {}

        class _Result:
            def format(self):
                return "exhibit"

        for name, real in list(figures.ALL_DRIVERS.items()):
            def fake(*args, _name=name, _real=real, **kwargs):
                inspect.signature(_real).bind(*args, **kwargs)
                calls[_name] = kwargs
                return _Result()

            monkeypatch.setitem(figures.ALL_DRIVERS, name, fake)
        script = (
            pathlib.Path(__file__).resolve().parents[1]
            / "examples" / "reproduce_paper.py"
        )
        monkeypatch.setattr("sys.argv", [
            str(script), "--iterations", "40", "--jobs", "3",
            "--engine", "batch", "--cache-dir", str(tmp_path),
        ])
        runpy.run_path(str(script), run_name="__main__")
        assert set(calls) == set(figures.ALL_DRIVERS)
        for name, kwargs in calls.items():
            if name in ("table1", "table2"):
                assert kwargs == {}
                continue
            assert kwargs["iterations"] == 40, name
            assert kwargs["jobs"] == 3, name
            assert kwargs["engine"] == "batch", name
            assert isinstance(kwargs["cache"], ArtifactCache), name
            assert str(kwargs["cache"].root) == str(tmp_path), name
        out = capsys.readouterr().out
        assert "[fig13:" in out
