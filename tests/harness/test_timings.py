"""SuiteTimings: disjoint stages that fit inside the suite's wall clock."""

import pytest

from repro.harness.cache import ArtifactCache
from repro.harness.experiment import run_suite
from repro.uarch import lane
from repro.uarch.config import MachineConfig

_BENCHMARKS = ("parser", "eon")
_ITERATIONS = 60


def _configs():
    # ``base`` first: it needs no hints, so its simulate call is the first
    # to ask for the trace.
    return {
        "base": MachineConfig.baseline(),
        "dmp": MachineConfig.dmp(),
        "dualpath": MachineConfig.dualpath(),
    }


def _stage_sum(timings):
    return (
        timings.build_seconds
        + timings.interpret_seconds
        + timings.profile_seconds
        + timings.select_seconds
        + timings.simulate_seconds
    )


def test_cold_serial_stages_sum_to_at_most_wall_clock():
    timings = run_suite(_configs(), _BENCHMARKS, iterations=_ITERATIONS).timings
    assert timings.interpret_seconds > 0
    assert timings.select_seconds > 0
    assert timings.simulate_seconds > 0
    assert _stage_sum(timings) <= timings.wall_seconds * 1.02


def test_cached_trace_skips_interpretation(tmp_path):
    cache = ArtifactCache(str(tmp_path))
    run_suite({"base": MachineConfig.baseline()}, _BENCHMARKS,
              iterations=_ITERATIONS, cache=cache)
    # Fresh contexts: the trace and profile come from disk, and the dmp
    # cells' diverge selection reads the trace outside its own timer.
    timings = run_suite(_configs(), _BENCHMARKS, iterations=_ITERATIONS,
                        cache=ArtifactCache(str(tmp_path))).timings
    assert timings.interpret_seconds == 0
    assert timings.sim_cache_hits == len(_BENCHMARKS)
    assert _stage_sum(timings) <= timings.wall_seconds * 1.02


def test_report_names_the_interpret_stage():
    timings = run_suite({"base": MachineConfig.baseline()}, ("eon",),
                        iterations=_ITERATIONS).timings
    assert "interpret=" in timings.report()
    assert "select=" in timings.report()


_DMP_REASON = "mode 'dmp' (the compiled lane runs baseline and dual-path only)"


@pytest.mark.parametrize("jobs", (1, 2))
def test_lane_cells_are_counted_whatever_the_executor(jobs, lane_calls,
                                                      tmp_path):
    """``run_suite`` tallies every fresh fast-engine cell: on the
    compiled lane, or on Python by reason.  Pool workers run theirs out
    of this process, and the tally still holds."""
    result = run_suite(_configs(), _BENCHMARKS, iterations=_ITERATIONS,
                       jobs=jobs, cache=ArtifactCache(str(tmp_path)))
    timings = result.timings
    assert timings.lane_cells == 2 * len(_BENCHMARKS)
    assert timings.lane_fallbacks == {_DMP_REASON: len(_BENCHMARKS)}
    assert len(lane_calls) == (2 * len(_BENCHMARKS) if jobs == 1 else 0)
    report = timings.report()
    assert "compiled lane: 4 cell(s), 2 fast-engine cell(s) on Python" in (
        report
    )
    assert _DMP_REASON in report
    # A warm rerun simulates nothing, so it counts nothing.
    again = run_suite(_configs(), _BENCHMARKS, iterations=_ITERATIONS,
                      jobs=jobs, cache=ArtifactCache(str(tmp_path)))
    assert again == result
    assert again.timings.lane_cells == 0
    assert again.timings.lane_fallbacks == {}


def test_without_a_compiler_the_tally_names_it(monkeypatch, tmp_path):
    monkeypatch.setattr(lane, "_LIB", None)
    monkeypatch.setattr(lane, "_find_compiler", lambda: None)
    monkeypatch.setattr(lane, "_cache_dir", lambda: str(tmp_path))
    timings = run_suite(_configs(), _BENCHMARKS,
                        iterations=_ITERATIONS).timings
    assert timings.lane_cells == 0
    assert timings.lane_fallbacks == {
        "no C compiler": 2 * len(_BENCHMARKS),
        _DMP_REASON: len(_BENCHMARKS),
    }
