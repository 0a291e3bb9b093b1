"""Differential validation of the vectorized batch engine.

The batch engine advances many (program, trace, config) cells in
lockstep over numpy struct-of-arrays (:mod:`repro.uarch.batch`); its
contract is the same as the fast engine's — *bit identity* with the
reference engine — reached two ways: the vector path for cells inside
the supported envelope, and a per-cell fast-engine fallback for
everything else.  Both paths are exercised here; the committed fuzz
corpus replays against the batch engine too
(tests/fuzz/test_corpus_replay.py).
"""

import dataclasses
import os
import pathlib
import random
import subprocess
import sys
import textwrap

import pytest

from repro.branch.btb import BranchTargetBuffer
from repro.cfg.builder import CFGBuilder
from repro.core.processors import simulate
from repro.harness.experiment import BenchmarkContext, run_suite
from repro.isa.encoding import DivergeHint, HintTable
from repro.isa.instructions import Condition
from repro.program.interpreter import Interpreter
from repro.program.memory import Memory
from repro.program.program import Program
from repro.uarch.batch import (
    BatchCell,
    batch_supported,
    cell_supported,
    run_batch,
)
from repro.uarch.config import MachineConfig
from repro.workloads.suite import BENCHMARK_NAMES

ITERATIONS = 120

_contexts = {}


def _context(name: str) -> BenchmarkContext:
    ctx = _contexts.get(name)
    if ctx is None:
        ctx = _contexts[name] = BenchmarkContext(
            name, iterations=ITERATIONS, seed=0
        )
    return ctx


def _cell(ctx: BenchmarkContext, config: MachineConfig) -> BatchCell:
    return BatchCell(
        ctx.program, ctx.trace, config.replace(engine="batch"),
        hints=ctx.hints_for(config), benchmark=ctx.name,
        warm_words=ctx.workload.memory.warm_words(),
    )


def _reference(ctx: BenchmarkContext, config: MachineConfig):
    return ctx.simulate(config.replace(engine="reference"))


def test_vector_path_bit_identical_across_the_suite():
    """One lockstep group holding every benchmark under every vector-
    eligible mode (baseline, dualpath, dmp, dhp) must reproduce the
    reference stats bit for bit, cell for cell.  Running them as *one*
    group (not one group per cell) is the point: it proves cells cannot
    bleed state into each other through the shared arrays."""
    cells, refs = [], []
    for name in BENCHMARK_NAMES:
        ctx = _context(name)
        for config in (
            MachineConfig.baseline(), MachineConfig.dualpath(),
            MachineConfig.dmp(), MachineConfig.dhp(),
        ):
            cells.append(_cell(ctx, config))
            refs.append(_reference(ctx, config))
    if batch_supported():
        for cell in cells:
            ok, reason = cell_supported(cell)
            assert ok, f"{cell.benchmark}: expected vector path, {reason}"
    results = run_batch(cells)
    for cell, ref, got in zip(cells, refs, results):
        assert dataclasses.asdict(got) == dataclasses.asdict(ref), (
            cell.benchmark, cell.config.mode,
        )


def test_mixed_sizing_grid_bit_identical():
    """Heterogeneous frontend/backend sizings in one group, including
    ROBs smaller than a block (the non-static ring-buffer path)."""
    grid = [
        MachineConfig.baseline().replace(fetch_width=8, rob_size=512),
        MachineConfig.baseline().replace(rob_size=16),
        MachineConfig.dualpath().replace(rob_size=32, retire_width=8),
        MachineConfig.dualpath().replace(
            fetch_width=8, pipeline_depth=30
        ),
    ]
    cells, refs = [], []
    for name in ("parser", "gzip", "mcf"):
        ctx = _context(name)
        for config in grid:
            cells.append(_cell(ctx, config))
            refs.append(_reference(ctx, config))
    results = run_batch(cells)
    for cell, ref, got in zip(cells, refs, results):
        assert dataclasses.asdict(got) == dataclasses.asdict(ref), (
            cell.benchmark, cell.config.describe(),
        )


def test_mixed_mode_grid_bit_identical():
    """Predicated and non-predicated cells side by side in one group,
    over the dpred knobs the envelope admits (multiple CFM targets, the
    alternate GHR policy, tight path limits) plus sizing variants —
    episodes must not leak into neighbouring lanes through the shared
    tables, and every dpred counter (entries, exit cases, select/extra
    uops, predicated-false fetches, load predicate waits) must match.
    The JRS thresholds cover one the estimator clamps to its counter
    ceiling and one well below the default."""
    grid = [
        MachineConfig.dmp(),
        MachineConfig.dmp(multiple_cfm=True),
        MachineConfig.dmp(confidence_args={"threshold": 20}),
        MachineConfig.dmp(confidence_args={"threshold": 6}),
        MachineConfig.dmp(rob_size=16, fetch_width=8),
        MachineConfig.dmp(dpred_ghr_policy="alternate"),
        MachineConfig.dmp(dpred_path_limit=24),
        MachineConfig.dhp(retire_width=8, pipeline_depth=30),
        MachineConfig.baseline(),
        MachineConfig.dualpath(),
    ]
    cells, refs = [], []
    for name in ("parser", "gzip", "twolf"):
        ctx = _context(name)
        for config in grid:
            cells.append(_cell(ctx, config))
            refs.append(_reference(ctx, config))
    results = run_batch(cells)
    covered = set()
    for cell, ref, got in zip(cells, refs, results):
        assert dataclasses.asdict(got) == dataclasses.asdict(ref), (
            cell.benchmark, cell.config.describe(),
        )
        covered.update(c for c, n in ref.exit_cases.items() if n)
    assert covered, "no dpred episodes resolved — grid too shallow"


@pytest.mark.parametrize("config_name", ("dualpath", "dmp", "dhp"))
def test_single_cell_simulate_route(config_name):
    """``simulate(engine="batch")`` — the processors.py route — works
    for a lone cell, vector path included.  A lone predicated cell
    shares no episode with another lane, so every episode runs as a
    gang of one."""
    ctx = _context("parser")
    config = getattr(MachineConfig, config_name)()
    ref = dataclasses.asdict(_reference(ctx, config))
    got = ctx.simulate(config.replace(engine="batch"))
    assert dataclasses.asdict(got) == ref
    if config_name == "dualpath":
        return
    stats = {}
    (got,) = run_batch([_cell(ctx, config)], gang_stats=stats)
    assert dataclasses.asdict(got) == ref
    if batch_supported():
        assert stats["ganged_lanes"] == 0 < stats["singleton_lanes"], stats


@pytest.mark.parametrize(
    "config_name", ("dmp", "dhp", "wish", "loop-pred", "mpp")
)
@pytest.mark.parametrize("bench_name", ("parser", "gzip"))
def test_fallback_path_bit_identical(bench_name, config_name):
    """Configurations outside the vector envelope (predicated modes,
    hardened runs) silently fall back to the fast engine per cell — and
    must still match the hardened reference bit for bit."""
    factory = {
        "dmp": lambda: MachineConfig.dmp(enhanced=True),
        "dhp": MachineConfig.dhp,
        "wish": MachineConfig.wish,
        "loop-pred": lambda: MachineConfig.dmp(loop_predication=True),
        "mpp": MachineConfig.mpp,
    }[config_name]
    ctx = _context(bench_name)
    config = factory().hardened()
    if batch_supported():
        ok, _ = cell_supported(_cell(ctx, config))
        assert not ok, "expected a fallback config"
    got = ctx.simulate(config.replace(engine="batch"))
    ref = _reference(ctx, config)
    assert ref.oracle_checks > 0, "oracle was not armed"
    assert dataclasses.asdict(got) == dataclasses.asdict(ref)


def test_without_numpy_every_cell_falls_back():
    """With numpy unimportable, ``engine="batch"`` still runs: every
    cell falls back to the fast engine, the reason is counted once per
    cell, and the stats equal the reference engine's."""
    script = textwrap.dedent("""
        import dataclasses
        import sys

        sys.modules["numpy"] = None
        from repro.harness.experiment import BenchmarkContext
        from repro.uarch.batch import (
            BatchCell, batch_supported, cell_supported, run_batch,
        )
        from repro.uarch.config import MachineConfig

        assert not batch_supported()
        ctx = BenchmarkContext("parser", iterations=60, seed=0)
        config = MachineConfig.dmp()
        cell = BatchCell(
            ctx.program, ctx.trace, config.replace(engine="batch"),
            hints=ctx.hints_for(config), benchmark=ctx.name,
            warm_words=ctx.workload.memory.warm_words(),
        )
        reason = "numpy is not importable"
        assert cell_supported(cell) == (False, reason)
        reasons = {}
        (got,) = run_batch([cell], fallback_reasons=reasons)
        assert reasons == {reason: 1}, reasons
        ref = ctx.simulate(config.replace(engine="reference"))
        assert got.dpred_entries > 0
        assert dataclasses.asdict(got) == dataclasses.asdict(ref)
    """)
    src = pathlib.Path(__file__).resolve().parents[2] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True,
        text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr


@pytest.mark.skipif(not batch_supported(), reason="numpy unavailable")
def test_cell_supported_reports_reasons():
    ctx = _context("parser")
    ok, reason = cell_supported(_cell(ctx, MachineConfig.baseline()))
    assert ok, reason

    class _Tracer:
        pass

    traced = _cell(ctx, MachineConfig.baseline())
    traced.tracer = _Tracer()
    ok, reason = cell_supported(traced)
    assert not ok and "tracer" in reason

    # Plain dynamic predication is inside the envelope; each scalar-only
    # enhancement is refused with its own reason string.
    ok, reason = cell_supported(_cell(ctx, MachineConfig.dmp()))
    assert ok, reason
    ok, reason = cell_supported(_cell(ctx, MachineConfig.dhp()))
    assert ok, reason
    ok, reason = cell_supported(
        _cell(ctx, MachineConfig.dmp(enhanced=True))
    )
    assert not ok and "early exit" in reason
    ok, reason = cell_supported(
        _cell(ctx, MachineConfig.dmp(multiple_diverge=True))
    )
    assert not ok and "diverge" in reason
    ok, reason = cell_supported(
        _cell(ctx, MachineConfig.dmp(loop_predication=True))
    )
    assert not ok and "loop" in reason
    ok, reason = cell_supported(
        _cell(ctx, MachineConfig.dmp(selective_predictor_update=True))
    )
    assert not ok and "selective" in reason
    ok, reason = cell_supported(_cell(ctx, MachineConfig.wish()))
    assert not ok and "wish" in reason
    # Learned merge points mutate between lookups; the lockstep vector
    # path has no lane-local predictor state, so mpp is scalar-only.
    ok, reason = cell_supported(_cell(ctx, MachineConfig.mpp()))
    assert not ok and "mpp" in reason

    ok, reason = cell_supported(
        _cell(ctx, MachineConfig.baseline().hardened())
    )
    assert not ok

    # Geometry the trace replay and the vector predictor tables do not
    # cover; the JRS threshold alone is per-lane state.
    for overrides, expected in (
        ({"btb_entries": 2048}, "BTB/RAS"),
        ({"ras_depth": 16}, "BTB/RAS"),
        ({"store_buffer_size": 64}, "store buffer"),
        ({"memory_latency": 200}, "memory system"),
        ({"prefetch_lines": 2}, "memory system"),
        ({"predictor_args": {"history_bits": 24}}, "direction predictor"),
        ({"confidence_args": {"history_bits": 12}}, "confidence"),
        ({"confidence_args": {"threshold": 8, "table_size": 1024}},
         "confidence"),
    ):
        ok, reason = cell_supported(
            _cell(ctx, MachineConfig.baseline(**overrides))
        )
        assert not ok and expected in reason, (overrides, reason)
    ok, reason = cell_supported(
        _cell(ctx, MachineConfig.dmp(confidence_args={"threshold": 20}))
    )
    assert ok, reason


def _btb_set_program(extra_sites: int):
    """Jumps one BTB set's worth of instructions apart, so every
    redirect site lands in one set: ``extra_sites`` sites more than its
    ways.  Returns ``(program, trace)``."""
    ways = BranchTargetBuffer.DEFAULT_WAYS
    sets = MachineConfig().btb_entries // ways
    sites = ways + extra_sites
    builder = CFGBuilder("main")
    for i in range(sites):
        block = builder.block(f"b{i}")
        for _ in range(sets - 1):
            block.addi(1, 1, 1)
        block.jmp(f"b{i + 1}")
    builder.block(f"b{sites}").halt()
    program = Program("btb-set")
    program.add_function(builder.build())
    program.seal()
    return program, Interpreter(program, memory=Memory()).run()


@pytest.mark.skipif(not batch_supported(), reason="numpy unavailable")
@pytest.mark.parametrize("extra_sites", (0, 1))
def test_btb_set_overflow_falls_back(extra_sites):
    """The seen-bit BTB is exact only while every redirect site fits in
    its set: jumps one BTB set's worth of instructions apart all land in
    one set, so one site more than its ways takes the fallback.  Both
    sides of the line match the reference."""
    program, trace = _btb_set_program(extra_sites)
    cell = BatchCell(program, trace, MachineConfig(engine="batch"))
    ok, reason = cell_supported(cell)
    assert ok == (not extra_sites), reason
    if extra_sites:
        assert "BTB set can overflow" in reason
    (got,) = run_batch([cell])
    ref = simulate(program, trace, MachineConfig(engine="reference"))
    assert dataclasses.asdict(got) == dataclasses.asdict(ref)


def _same_path_forwarding_program(iterations: int = 60):
    """A diverge branch on a cold load (a fresh cache line every
    iteration, so it resolves late), each hammock side storing to its
    own word and loading it straight back.  The load issues before the
    predicate resolves and forwards from the store on its own path."""
    stride, data, slot = 64, 20000, 9000
    rng = random.Random(7)
    memory = Memory()
    for i in range(iterations):
        memory.store(data + i * stride, rng.randrange(2))
    builder = CFGBuilder("main")
    builder.block("init").movi(1, 0).movi(5, data)
    builder.block("head").br(Condition.GE, 1, imm=iterations, taken="exit")
    builder.block("body").load(4, 5, offset=0).br(
        Condition.GE, 4, imm=1, taken="tk"
    )
    for side, reg, offset in (("nt", 20, slot), ("tk", 24, slot + 8)):
        block = builder.block(side)
        block.addi(reg, 1, 10)
        block.store(reg, 0, offset=offset)
        block.load(reg + 1, 0, offset=offset)
        block.add(reg + 2, reg + 1, 1)
        if side == "nt":
            block.jmp("merge")
    builder.block("merge").addi(1, 1, 1).addi(5, 5, stride).jmp("head")
    builder.block("exit").halt()
    program = Program("same-path-forward")
    program.add_function(builder.build())
    program.seal()
    trace = Interpreter(program, memory=memory).run()
    cfg = program.entry_function
    hints = HintTable()
    hints.add(
        cfg.block("body").instructions[-1].pc,
        DivergeHint((cfg.block("merge").first_pc,)),
    )
    return program, trace, hints


@pytest.mark.skipif(not batch_supported(), reason="numpy unavailable")
def test_program_fallback_inside_a_multi_program_group():
    """A program the vector path refuses (BTB set overflow) shares one
    call with a benchmark's sizing cells: its reason is counted once,
    every other cell stays on the vector path, and every cell matches
    the reference engine."""
    program, trace = _btb_set_program(1)
    ctx = _context("parser")
    configs = [
        MachineConfig.dmp(fetch_width=width, rob_size=rob)
        for width in (4, 8) for rob in (128, 512)
    ]
    cells = [_cell(ctx, config) for config in configs]
    cells.insert(2, BatchCell(program, trace, MachineConfig(engine="batch")))
    reasons = {}
    results = run_batch(cells, fallback_reasons=reasons)
    assert reasons == {"BTB set can overflow (eviction possible)": 1}
    refs = [_reference(ctx, config) for config in configs]
    refs.insert(
        2, simulate(program, trace, MachineConfig(engine="reference"))
    )
    for cell, ref, got in zip(cells, refs, results):
        assert dataclasses.asdict(got) == dataclasses.asdict(ref), (
            cell.benchmark, cell.config.describe(),
        )


def test_same_path_store_forwarding_bit_identical():
    """A load forwards from an unresolved predicated store without
    waiting when the store sits on its own path.  Two sizings share the
    trace, so their episodes gang."""
    program, trace, hints = _same_path_forwarding_program()
    grid = [MachineConfig.dmp(), MachineConfig.dmp(fetch_width=8)]
    cells = [
        BatchCell(program, trace, config.replace(engine="batch"),
                  hints=hints)
        for config in grid
    ]
    results = run_batch(cells)
    for config, got in zip(grid, results):
        ref = simulate(
            program, trace, config.replace(engine="reference"), hints=hints
        )
        assert ref.dpred_entries > 0
        assert dataclasses.asdict(got) == dataclasses.asdict(ref), (
            config.describe()
        )


#: (fetch width, pipeline depth, ROB, retire width) for the epoch sweep.
_EPOCH_SIZINGS = (
    (4, 10, 128, 4), (8, 30, 512, 8), (4, 30, 512, 4), (8, 10, 128, 8),
)


@pytest.mark.skipif(not batch_supported(), reason="numpy unavailable")
def test_lanes_of_one_trace_epoch_share_predictor_state(monkeypatch):
    """Predictor state is shared per (trace, episode epoch): at every
    step boundary of a ganged sweep, each live predictor-state row
    belongs to exactly one (trace, epoch) key, no row leaks, and lanes
    sharing a row hold equal history, cursor and run state."""
    from repro.uarch.batch import engine

    keys_seen = []
    step = engine._Group._trace_step

    def checked_step(G, vc):
        groups, pairs = {}, set()
        for ci in range(G.n):
            key = (G.ptgid[ci], G.pepoch[ci])
            groups.setdefault(G.psrow[ci], []).append(ci)
            pairs.add((key, G.psrow[ci]))
        assert G.srow.tolist() == G.psrow
        assert len(pairs) == len(groups) == len({k for k, _ in pairs})
        assert len(groups) + len(G._sfree) == G.n + 1
        for row, lanes in groups.items():
            first, rest = lanes[0], lanes[1:]
            for name in ("ghr", "cursor", "state"):
                arr = getattr(G, name)
                assert (arr[rest] == arr[first]).all(), (row, name)
        keys_seen.append(len(groups))
        step(G, vc)

    monkeypatch.setattr(engine._Group, "_trace_step", checked_step)
    makers = (MachineConfig.baseline, MachineConfig.dualpath,
              MachineConfig.dmp)
    cells = [
        _cell(_context(name), make(
            fetch_width=width, pipeline_depth=depth, rob_size=rob,
            retire_width=retire,
        ))
        for name in ("parser", "twolf")
        for make in makers
        for (width, depth, rob, retire) in _EPOCH_SIZINGS
    ]
    gangs = {}
    run_batch(cells, gang_stats=gangs)
    assert gangs["ganged_lanes"] > 0, gangs
    # Episodes split the dmp lanes off their trace's first epoch.
    assert max(keys_seen) > 2, max(keys_seen)
    # Lanes leave a row one at a time, so the peak can fall mid-step.
    assert gangs["max_pred_states"] >= max(keys_seen), gangs
    assert gangs["pred_states"] > gangs["max_pred_states"], gangs


@pytest.mark.skipif(not batch_supported(), reason="numpy unavailable")
def test_static_tables_live_for_one_call(monkeypatch):
    """``run_batch`` builds one program table per distinct program and
    one trace table per distinct trace, however many cells share them,
    and keeps none of them after it returns."""
    import gc

    from repro.uarch.arena import ProgramArena, TraceArena

    built = {ProgramArena: 0, TraceArena: 0}
    for cls in built:
        def counting(self, *args, _cls=cls, _init=cls.__init__):
            built[_cls] += 1
            _init(self, *args)

        monkeypatch.setattr(cls, "__init__", counting)
    cells = [
        _cell(_context(name), MachineConfig.dmp(
            fetch_width=width, pipeline_depth=depth, rob_size=rob,
            retire_width=retire,
        ))
        for name in ("parser", "gzip")
        for (width, depth, rob, retire) in _EPOCH_SIZINGS
    ]
    first = None
    for _ in range(2):
        built.update(dict.fromkeys(built, 0))
        results = [dataclasses.asdict(s) for s in run_batch(cells)]
        assert built == {ProgramArena: 2, TraceArena: 2}, built
        gc.collect()
        alive = [
            obj for obj in gc.get_objects()
            if isinstance(obj, (ProgramArena, TraceArena))
        ]
        assert not alive, alive
        assert first is None or results == first
        first = results


def test_run_suite_batch_executor_matches_serial():
    """The ``"batch"`` suite executor returns the same table as the
    serial fast-engine executor (memo/disk caches bypassed by fresh
    contexts)."""
    configs = {
        "base": MachineConfig.baseline(),
        "dual": MachineConfig.dualpath(),
    }
    benchmarks = ("parser", "gzip")

    def fresh():
        return {
            name: BenchmarkContext(name, iterations=ITERATIONS, seed=0)
            for name in benchmarks
        }

    serial = run_suite(
        configs, benchmarks, iterations=ITERATIONS,
        contexts=fresh(), executor="serial",
    )
    batch = run_suite(
        configs, benchmarks, iterations=ITERATIONS,
        contexts=fresh(), executor="batch",
    )
    for name in benchmarks:
        for label in configs:
            assert dataclasses.asdict(
                batch.stats(name, label)
            ) == dataclasses.asdict(serial.stats(name, label))


def test_batch_package_runs_no_generated_code():
    """The batch engine's row loops are plain Python: no module under
    ``repro.uarch.batch`` calls ``exec``, ``eval`` or ``compile``.
    Compiling a kernel per block cost every fresh process more than the
    kernels saved (docs/performance.md)."""
    import ast
    import pathlib

    import repro.uarch.batch as package

    banned = {"exec", "eval", "compile"}
    found = []
    for path in sorted(pathlib.Path(package.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name):
                name = func.id
            elif isinstance(func, ast.Attribute) and isinstance(
                func.value, ast.Name
            ) and func.value.id == "builtins":
                name = func.attr
            else:
                continue
            if name in banned:
                found.append(f"{path.name}:{node.lineno} {name}()")
    assert not found, found
