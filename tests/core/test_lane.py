"""The compiled lane's envelope, fallback and build cache.

Its bit identity with the reference engine is checked where the other
engines' is: tests/core/test_engine_differential.py (every benchmark
and a sizing grid) and tests/fuzz/test_harness.py (fuzz programs).
"""

import dataclasses
import os
import stat
import subprocess
import sys
import textwrap

import pytest

from repro.core.processors import simulate
from repro.harness.experiment import BenchmarkContext
from repro.obs.events import CollectorTracer
from repro.uarch import lane
from repro.uarch.config import MachineConfig
from tests.core.test_engine_batch import _btb_set_program

_SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(__file__))), "src"
)

_parser = []


def _context() -> BenchmarkContext:
    if not _parser:
        _parser.append(BenchmarkContext("parser", iterations=80, seed=0))
    return _parser[0]


def _identical_to_reference(program, trace, config, tracer=None,
                            warm_words=None):
    got = simulate(program, trace, config, warm_words=warm_words,
                   tracer=tracer)
    ref = simulate(program, trace, config.replace(engine="reference"),
                   warm_words=warm_words)
    assert dataclasses.asdict(got) == dataclasses.asdict(ref)


@pytest.mark.parametrize("case", ("btb-overflow", "hardened", "traced", "dmp"))
def test_cells_outside_the_envelope_run_on_python(case, lane_calls):
    """Each cell the lane cannot run exactly names why, runs the Python
    fast engine, and still matches the reference engine."""
    ctx = _context()
    program, trace = ctx.program, ctx.trace
    warm = ctx.workload.memory.warm_words()
    config, tracer, expected = MachineConfig.baseline(), None, ""
    if case == "btb-overflow":
        program, trace = _btb_set_program(1)
        warm = None
        expected = "BTB set can overflow"
    elif case == "hardened":
        config = config.hardened()
        expected = "oracle/watchdog instrumentation"
    elif case == "traced":
        tracer = CollectorTracer()
        expected = "event tracer attached"
    else:
        config = MachineConfig.dmp()
        expected = "mode 'dmp'"
    assert expected in lane.reason(config, program, traced=tracer is not None)
    if case == "dmp":
        got = simulate(program, trace, config, hints=ctx.hints_for(config),
                       warm_words=warm)
        ref = simulate(program, trace, config.replace(engine="reference"),
                       hints=ctx.hints_for(config), warm_words=warm)
        assert dataclasses.asdict(got) == dataclasses.asdict(ref)
    else:
        _identical_to_reference(program, trace, config, tracer, warm)
    assert lane_calls == []
    # One site fewer fits every set: that program is inside.
    if case == "btb-overflow":
        program, trace = _btb_set_program(0)
        assert lane.reason(config, program) == ""
        _identical_to_reference(program, trace, config)
        assert len(lane_calls) == 1


def test_without_a_compiler_cells_fall_back(monkeypatch, tmp_path):
    """No build cached and no compiler found: every cell runs the Python
    fast engine, under the reason "no C compiler", with the same stats."""
    monkeypatch.setattr(lane, "_LIB", None)
    monkeypatch.setattr(lane, "_find_compiler", lambda: None)
    monkeypatch.setattr(lane, "_cache_dir", lambda: str(tmp_path))
    ctx = _context()
    config = MachineConfig.dualpath()
    assert lane.reason(config, ctx.program) == "no C compiler"
    assert lane.load() is None
    _identical_to_reference(
        ctx.program, ctx.trace, config,
        warm_words=ctx.workload.memory.warm_words(),
    )
    assert os.listdir(tmp_path) == []  # nothing half-written left behind


def test_a_second_process_reuses_the_build(monkeypatch, tmp_path):
    """The first use compiles into a private directory; a fresh process
    sharing it loads the build without ever looking for a compiler."""
    if lane._find_compiler() is None:
        pytest.skip("no C compiler on this host")
    cache = tmp_path / "cache"
    monkeypatch.setattr(lane, "_LIB", None)
    monkeypatch.setattr(lane, "_cache_dir", lambda: (
        str(cache) if lane._private_dir(str(cache)) else None
    ))
    assert lane.load() is not None
    assert stat.S_IMODE(os.stat(cache).st_mode) == 0o700
    assert os.listdir(cache) == [lane.build_name()]
    script = textwrap.dedent(f"""
        from repro.uarch import lane

        def no_compiler():
            raise AssertionError("the compiler ran again")

        lane._find_compiler = no_compiler
        lane._cache_dir = lambda: {str(cache)!r}
        assert lane.load() is not None, lane.unavailable_reason()
    """)
    env = dict(os.environ, PYTHONPATH=_SRC)
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True,
        text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr


def test_importing_the_harness_neither_builds_nor_loads_the_lane():
    """Only :func:`repro.uarch.lane.load` builds or loads the lane, and
    it records the outcome in ``_LIB`` either way."""
    script = textwrap.dedent("""
        import repro.harness.experiment
        from repro.uarch import lane

        assert lane._LIB is None
    """)
    env = dict(os.environ, PYTHONPATH=_SRC)
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True,
        text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
