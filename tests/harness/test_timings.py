"""SuiteTimings: disjoint stages that fit inside the suite's wall clock."""

from repro.harness.cache import ArtifactCache
from repro.harness.experiment import run_suite
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
        + timings.simulate_seconds
    )


def test_cold_serial_stages_sum_to_at_most_wall_clock():
    timings = run_suite(_configs(), _BENCHMARKS, iterations=_ITERATIONS).timings
    assert timings.interpret_seconds > 0
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
