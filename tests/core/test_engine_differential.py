"""Differential validation of the fast (block-plan) engine.

The fast engine rewrites the simulator's inner loops over pre-decoded
:class:`~repro.uarch.plan.BlockPlan` tables; its contract is *bit
identity* — the full :class:`~repro.uarch.stats.SimStats` must equal the
reference engine's on every benchmark under every machine mode, with the
oracle cross-checker and watchdog armed on both runs.
"""

import dataclasses

import pytest

from repro.core.processors import simulate
from repro.harness.experiment import BenchmarkContext
from repro.obs.events import CollectorTracer
from repro.uarch.config import MachineConfig
from repro.workloads.suite import BENCHMARK_NAMES

#: Short runs keep the 15 x 5 x 2-engine matrix affordable while still
#: exercising every episode type (dpred entry/exit, forks, flushes).
ITERATIONS = 120

CONFIGS = {
    "baseline": MachineConfig.baseline,
    "dualpath": MachineConfig.dualpath,
    "dmp": lambda: MachineConfig.dmp(enhanced=True),
    "dhp": MachineConfig.dhp,
    "mpp": MachineConfig.mpp,
}

_contexts = {}


def _context(name: str) -> BenchmarkContext:
    """One context per benchmark, shared by every config of the matrix
    (trace and hint tables are machine-independent)."""
    ctx = _contexts.get(name)
    if ctx is None:
        ctx = _contexts[name] = BenchmarkContext(
            name, iterations=ITERATIONS, seed=0
        )
    return ctx


def _assert_identical(ctx: BenchmarkContext, config: MachineConfig) -> None:
    ref = ctx.simulate(config.replace(engine="reference"))
    fast = ctx.simulate(config.replace(engine="fast"))
    assert ref.oracle_checks > 0, "oracle was not armed"
    assert dataclasses.asdict(fast) == dataclasses.asdict(ref)


@pytest.mark.parametrize("config_name", list(CONFIGS))
@pytest.mark.parametrize("bench_name", BENCHMARK_NAMES)
def test_fast_engine_bit_identical(bench_name, config_name):
    """Hardened fast run == hardened reference run, field for field."""
    _assert_identical(_context(bench_name), CONFIGS[config_name]().hardened())


def _assert_lane_identical(ctx: BenchmarkContext, config: MachineConfig):
    """The default (fast) engine sends ``config`` to the compiled lane;
    its stats must be the reference engine's, field for field."""
    program, trace = ctx.program, ctx.trace
    warm = ctx.workload.memory.warm_words()
    ref = simulate(program, trace, config.replace(engine="reference"),
                   benchmark=ctx.name, warm_words=warm)
    got = simulate(program, trace, config, benchmark=ctx.name,
                   warm_words=warm)
    assert dataclasses.asdict(got) == dataclasses.asdict(ref), (
        ctx.name, config.describe(),
    )


@pytest.mark.parametrize("bench_name", BENCHMARK_NAMES)
def test_compiled_lane_bit_identical(bench_name, lane_calls):
    """Un-hardened baseline and dual-path cells run on the compiled
    lane, with the reference engine's stats."""
    ctx = _context(bench_name)
    for config in (MachineConfig.baseline(), MachineConfig.dualpath()):
        _assert_lane_identical(ctx, config)
    assert len(lane_calls) == 2


def test_compiled_lane_mixed_sizing_grid(lane_calls):
    """The lane across frontend/backend sizings, including ROBs smaller
    than a block (the window stalls inside one block's rows)."""
    grid = [
        MachineConfig.baseline().replace(fetch_width=8, rob_size=512),
        MachineConfig.baseline().replace(rob_size=16),
        MachineConfig.dualpath().replace(rob_size=32, retire_width=8),
        MachineConfig.dualpath().replace(
            fetch_width=8, pipeline_depth=30
        ),
        MachineConfig.dualpath().replace(
            fetch_width=4, pipeline_depth=10, rob_size=8, retire_width=4
        ),
    ]
    for name in ("parser", "gzip", "mcf"):
        for config in grid:
            _assert_lane_identical(_context(name), config)
    assert len(lane_calls) == 3 * len(grid)


@pytest.mark.parametrize("bench_name", ("parser", "gzip", "mcf"))
def test_wish_mode_differential(bench_name):
    """Wish branches drive the predication machinery down a different
    entry path; the engines must still agree."""
    _assert_identical(_context(bench_name), MachineConfig.wish().hardened())


@pytest.mark.parametrize("bench_name", ("parser", "twolf", "vpr"))
def test_mpp_recovery_differential(bench_name):
    """An aggressive learner shape (tiny training threshold, short
    windows and path limits, early exit on) drives merge mispredictions,
    recovery flushes and retrains; the learned tables — rebuilt from the
    retired stream independently in each engine — must stay in lockstep
    through all of it."""
    config = MachineConfig.mpp(
        merge_min_instances=4, merge_window_instructions=64,
        multiple_cfm=True, early_exit=True,
        early_exit_default_threshold=24, dpred_path_limit=48,
    ).hardened()
    _assert_identical(_context(bench_name), config)


@pytest.mark.parametrize("bench_name", ("parser", "twolf"))
def test_loop_predication_differential(bench_name):
    """Loop predication exercises the episode-restart paths — and takes
    effect: the context hands the machine its ``is_loop`` hints."""
    config = MachineConfig.dmp(loop_predication=True).hardened()
    ctx = _context(bench_name)
    _assert_identical(ctx, config)
    assert ctx.simulate(config).loop_iteration_saves > 0


@pytest.mark.parametrize("bench_name", ("parser", "twolf"))
def test_enhanced_loop_predication_differential(bench_name):
    """Loop predication on the enhanced machine (multiple CFM, early
    exit, multiple diverge), where loop episodes interleave with nested
    and restarted forward ones: the engines still agree, and the loop
    hints still take effect."""
    config = MachineConfig.dmp(
        enhanced=True, loop_predication=True
    ).hardened()
    ctx = _context(bench_name)
    _assert_identical(ctx, config)
    assert ctx.simulate(config).loop_iteration_saves > 0


def _traced_run(ctx: BenchmarkContext, config: MachineConfig):
    tracer = CollectorTracer()
    stats = ctx.simulate(config, tracer=tracer)
    assert tracer.finished and tracer.open_episodes == 0
    return stats, tracer.records


@pytest.mark.parametrize("config_name", ("dmp", "dhp"))
@pytest.mark.parametrize("bench_name", ("parser", "gzip", "twolf"))
def test_episodes_record_exactly_one_terminal_exit_case(
    bench_name, config_name
):
    """Every predication episode ends in exactly one of Table 1's six
    exit cases — on both engines.  A restarted episode (Section 2.7.3)
    charges no case of its own: its re-execution does.
    """
    ctx = _context(bench_name)
    config = CONFIGS[config_name]().hardened()
    for engine in ("reference", "fast"):
        stats, records = _traced_run(ctx, config.replace(engine=engine))
        exits = [r for r in records if r["t"] == "ep-exit"]
        assert len(exits) == stats.dpred_entries
        for record in exits:
            if record["restart"]:
                assert record["cases"] == [], record
            else:
                assert len(record["cases"]) == 1, record
        charged = [case for r in exits for case in r["cases"]]
        assert len(charged) == sum(stats.exit_cases.values())


@pytest.mark.parametrize("bench_name", ("parser", "mcf"))
def test_event_streams_are_engine_identical(bench_name):
    """Stronger than stats bit-identity: the two engines must emit the
    *same event stream*, record for record (cycles included)."""
    config = CONFIGS["dmp"]().hardened()
    ctx = _context(bench_name)
    ref_stats, ref_records = _traced_run(
        ctx, config.replace(engine="reference")
    )
    fast_stats, fast_records = _traced_run(ctx, config.replace(engine="fast"))
    assert dataclasses.asdict(fast_stats) == dataclasses.asdict(ref_stats)

    def scrub(records):
        # The machine record names the engine that produced the stream —
        # the one field that differs by construction.
        return [
            {k: v for k, v in r.items() if k != "engine"}
            if r["t"] == "machine" else r
            for r in records
        ]

    assert scrub(fast_records) == scrub(ref_records)


def test_fast_engine_is_the_default():
    """``MachineConfig()`` selects the fast engine; ``describe`` hides
    the engine choice because results are identical by construction."""
    config = MachineConfig.baseline()
    assert config.engine == "fast"
    assert "engine" not in config.describe()
    assert config.describe() == config.replace(engine="reference").describe()
