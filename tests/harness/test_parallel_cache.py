"""Parallel suite runner + persistent artifact cache.

The contract under test (ISSUE 2): a parallel (``jobs=N``) run and a
cache-warm run each produce a :class:`SuiteResult` *exactly equal* to a
serial cold run; corrupted cache entries are detected, discarded and
recomputed; and the harness keying/context-reuse bugfixes hold.
"""

import pytest

from repro.errors import ReproError
from repro.harness import figures
from repro.harness.cache import ArtifactCache
from repro.harness.experiment import (
    BenchmarkContext,
    SuiteResult,
    run_multi_seed,
    run_suite,
)
from repro.profiling.diverge_selection import SelectionThresholds
from repro.uarch.config import MachineConfig
from repro.uarch.stats import SimStats
from repro.validation.runtime import paranoid

SMALL = 80
BENCHMARKS = ("parser", "gzip")


def small_configs():
    return {
        "base": MachineConfig.baseline(),
        "dmp": MachineConfig.dmp(enhanced=True),
    }


@pytest.fixture(scope="module")
def serial_cold():
    return run_suite(small_configs(), BENCHMARKS, iterations=SMALL)


class TestParallelEqualsSerial:
    def test_parallel_bit_identical(self, serial_cold):
        par = run_suite(
            small_configs(), BENCHMARKS, iterations=SMALL, jobs=4
        )
        assert par == serial_cold
        assert par.timings.jobs == 4
        assert par.timings.simulations_run == len(BENCHMARKS) * 2

    def test_parallel_verbose_and_single_pending(self, serial_cold, capsys):
        # Warm memo via shared contexts: only some cells go to the pool.
        contexts = {}
        run_suite(
            {"base": MachineConfig.baseline()},
            BENCHMARKS,
            iterations=SMALL,
            contexts=contexts,
        )
        par = run_suite(
            small_configs(),
            BENCHMARKS,
            iterations=SMALL,
            contexts=contexts,
            jobs=2,
            verbose=True,
        )
        assert par == serial_cold
        assert par.timings.sim_memo_hits == len(BENCHMARKS)
        assert par.timings.simulations_run == len(BENCHMARKS)
        assert "IPC=" in capsys.readouterr().out

    def test_oracle_checks_stay_armed_in_workers(self):
        with paranoid(True):
            result = run_suite(
                {"dmp": MachineConfig.dmp()},
                ("parser",),
                iterations=60,
                jobs=2,
            )
        assert result.stats("parser", "dmp").oracle_checks > 0

    def test_loop_predication_matches_serial(self):
        configs = {"loop": MachineConfig.dmp(loop_predication=True)}
        serial = run_suite(configs, ("parser",), iterations=SMALL)
        par = run_suite(configs, ("parser",), iterations=SMALL, jobs=2)
        assert par == serial
        assert par.stats("parser", "loop").loop_iteration_saves > 0

    def test_bad_jobs_rejected(self):
        with pytest.raises(ReproError):
            run_suite(small_configs(), ("gzip",), iterations=SMALL, jobs=0)


class TestPersistentCache:
    def test_warm_run_identical_and_all_hits(self, serial_cold, tmp_path):
        cold_cache = ArtifactCache(tmp_path)
        cold = run_suite(
            small_configs(), BENCHMARKS, iterations=SMALL, cache=cold_cache
        )
        assert cold == serial_cold
        assert cold_cache.counters.stores > 0

        warm_cache = ArtifactCache(tmp_path)
        warm = run_suite(
            small_configs(), BENCHMARKS, iterations=SMALL, cache=warm_cache
        )
        assert warm == serial_cold
        # Every stage skipped: no simulations executed, no cache misses.
        assert warm.timings.simulations_run == 0
        assert warm.timings.sim_cache_hits == len(BENCHMARKS) * 2
        assert warm_cache.counters.total_misses == 0
        assert warm_cache.counters.total_hits > 0
        assert warm.timings.wall_seconds < cold.timings.wall_seconds

    def test_parallel_with_cache_warm(self, serial_cold, tmp_path):
        run_suite(
            small_configs(), BENCHMARKS, iterations=SMALL,
            cache=ArtifactCache(tmp_path),
        )
        warm = run_suite(
            small_configs(), BENCHMARKS, iterations=SMALL, jobs=4,
            cache=ArtifactCache(tmp_path),
        )
        assert warm == serial_cold
        assert warm.timings.simulations_run == 0

    def test_corrupt_sim_entry_recomputed(self, serial_cold, tmp_path):
        run_suite(
            small_configs(), BENCHMARKS, iterations=SMALL,
            cache=ArtifactCache(tmp_path),
        )
        victims = sorted((tmp_path / "sim").glob("*.bin"))
        assert victims
        victims[0].write_bytes(victims[0].read_bytes()[: 10])  # truncate
        victims[1].write_bytes(b"\x00" * 100)                  # garbage

        cache = ArtifactCache(tmp_path)
        result = run_suite(
            small_configs(), BENCHMARKS, iterations=SMALL, cache=cache
        )
        assert result == serial_cold
        assert cache.counters.corrupt_discarded == 2
        assert result.timings.simulations_run == 2  # only the victims

    def test_corrupt_hint_entry_recomputed(self, tmp_path):
        """A bit-flipped hint-table entry fails its checksum, is
        discarded, and the table is rebuilt identically (the
        HintValidationError detect-and-recover pathway)."""
        pristine = BenchmarkContext(
            "parser", iterations=SMALL, cache=ArtifactCache(tmp_path)
        )
        expected = pristine.diverge_hints.to_bytes()

        victim = sorted((tmp_path / "hints-dmp").glob("*.bin"))[0]
        blob = bytearray(victim.read_bytes())
        blob[-4] ^= 0xFF  # flip payload bits: checksum must catch it
        victim.write_bytes(bytes(blob))

        cache = ArtifactCache(tmp_path)
        rebuilt = BenchmarkContext("parser", iterations=SMALL, cache=cache)
        assert rebuilt.diverge_hints.to_bytes() == expected
        assert cache.counters.corrupt_discarded == 1

    def test_loop_table_cached_under_its_own_kind(self, tmp_path):
        cold = BenchmarkContext(
            "parser", iterations=SMALL, cache=ArtifactCache(tmp_path)
        )
        expected = cold.loop_hints.to_bytes()
        assert list((tmp_path / "hints-loop").glob("*.bin"))

        warm = BenchmarkContext(
            "parser", iterations=SMALL, cache=ArtifactCache(tmp_path)
        )
        assert warm.loop_hints.to_bytes() == expected
        # Served from disk: no interpretation, profiling or selection.
        for stage in ("interpret", "profile", "select"):
            assert warm.stage_seconds[stage] == 0.0, stage

    def test_valid_checksum_bad_pickle_recovered(self, tmp_path):
        """A checksummed entry whose payload no longer unpickles (stale
        class shapes) is discarded and recomputed, not crashed on."""
        cache = ArtifactCache(tmp_path)
        context = BenchmarkContext("eon", iterations=60, cache=cache)
        cache.store_bytes("trace", context.fingerprint, b"not a pickle")
        trace = context.trace  # must rebuild, not raise
        assert trace.instruction_count > 0
        assert cache.counters.corrupt_discarded == 1

    def test_different_iterations_do_not_collide(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        a = run_suite(
            {"base": MachineConfig.baseline()}, ("gzip",),
            iterations=60, cache=cache,
        )
        b = run_suite(
            {"base": MachineConfig.baseline()}, ("gzip",),
            iterations=120, cache=cache,
        )
        assert a.stats("gzip", "base") != b.stats("gzip", "base")


class TestHarnessBugfixes:
    def test_memo_key_ignores_dict_order(self):
        """Regression: ``repr``-keyed memoization gave two equal configs
        distinct cache entries when dict fields differed in insertion
        order."""
        context = BenchmarkContext("eon", iterations=60)
        a = MachineConfig.baseline(
            confidence_args={"table_size": 2048, "threshold": 12}
        )
        b = MachineConfig.baseline(
            confidence_args={"threshold": 12, "table_size": 2048}
        )
        assert context.simulate(a) is context.simulate(b)
        assert context.sims_run == 1

    def test_thresholds_default_not_shared(self):
        """Regression: the shared default-argument ``SelectionThresholds``
        instance let a mutation leak into every later context."""
        first = BenchmarkContext("parser")
        second = BenchmarkContext("gzip")
        assert first.thresholds is not second.thresholds
        assert first.thresholds == SelectionThresholds()
        # Even a thresholds object smuggled past the frozen-dataclass
        # guard cannot leak: every context gets a fresh instance.
        object.__setattr__(first.thresholds, "min_misprediction_rate", 0.99)
        assert second.thresholds.min_misprediction_rate != 0.99
        assert (
            BenchmarkContext("vpr").thresholds.min_misprediction_rate
            == SelectionThresholds().min_misprediction_rate
        )

    def test_explicit_thresholds_still_honoured(self):
        custom = SelectionThresholds(min_misprediction_rate=0.5)
        context = BenchmarkContext("parser", thresholds=custom)
        assert context.thresholds is custom

    def test_stale_context_iterations_rejected(self):
        """Regression: ``run_suite(..., contexts=...)`` silently reused a
        context built with different parameters."""
        contexts = {"gzip": BenchmarkContext("gzip", iterations=40)}
        with pytest.raises(ReproError, match="stale context"):
            run_suite(
                {"base": MachineConfig.baseline()}, ("gzip",),
                iterations=SMALL, contexts=contexts,
            )

    def test_stale_context_seed_rejected(self):
        contexts = {"gzip": BenchmarkContext("gzip", iterations=SMALL, seed=3)}
        with pytest.raises(ReproError, match="stale context"):
            run_suite(
                {"base": MachineConfig.baseline()}, ("gzip",),
                iterations=SMALL, contexts=contexts, seed=0,
            )

    def test_figure_drivers_reject_stale_contexts(self):
        contexts = {"eon": BenchmarkContext("eon", iterations=40)}
        with pytest.raises(ReproError, match="stale context"):
            figures.fig1(
                contexts=contexts, benchmarks=("eon",), iterations=SMALL
            )

    def test_matching_context_accepted(self):
        contexts = {"gzip": BenchmarkContext("gzip", iterations=SMALL)}
        result = run_suite(
            {"base": MachineConfig.baseline()}, ("gzip",),
            iterations=SMALL, contexts=contexts,
        )
        assert result.stats("gzip", "base").cycles > 0


class TestSuiteResultEquality:
    def test_equal_and_unequal(self):
        a, b = SuiteResult(), SuiteResult()
        stats = SimStats(benchmark="x")
        stats.cycles = 10
        a.add("x", "base", stats)
        b.add("x", "base", stats)
        assert a == b
        other = SimStats(benchmark="x")
        other.cycles = 11
        b.add("x", "dmp", other)
        assert a != b
        assert a != "not a result"


class TestMultiSeedPassthrough:
    def test_multi_seed_cache_warm_identical(self, tmp_path):
        configs = {"base": MachineConfig.baseline()}
        cold = run_multi_seed(
            configs, ("gzip",), seeds=(0, 1), iterations=60,
            cache=ArtifactCache(tmp_path),
        )
        warm = run_multi_seed(
            configs, ("gzip",), seeds=(0, 1), iterations=60,
            cache=ArtifactCache(tmp_path),
        )
        assert warm.by_seed == cold.by_seed
        assert all(
            result.timings.simulations_run == 0
            for result in warm.by_seed.values()
        )
