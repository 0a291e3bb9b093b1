"""Differential trace equality: block-compiled vs per-instruction interpreter.

The functional trace is the input of every later stage (profiling,
diverge selection, all three timing engines), so the block-compiled
:class:`~repro.program.interpreter.Interpreter` must reproduce the old
per-instruction loop (kept as ``reference_interpreter.py``) exactly:

- every :class:`BlockExec` (function, block identity, outcome, addresses);
- the five :class:`Trace` counters;
- the final register file and memory.

The programs are every named benchmark x seeds {0, 1, 2}, every committed
fuzz-corpus entry, a band of freshly drawn fuzz programs, and a band of
random programs over the whole ISA (the workload generators use only part
of it: no shifts by register, no edge-case immediates).
"""

import os
import random

import pytest

from repro.cfg.builder import CFGBuilder
from repro.fuzz import load_corpus, spec_from_dict
from repro.fuzz.generator import FuzzKnobs, build_fuzz_workload, draw_spec
from repro.isa.instructions import Condition
from repro.program.memory import Memory
from repro.program.program import Program
from repro.workloads import BENCHMARK_NAMES
from repro.workloads.generator import Workload
from repro.workloads.suite import build_benchmark

from tests.program.reference_interpreter import run_both

_ITERATIONS = 40
_CORPUS_DIR = os.path.join(
    os.path.dirname(__file__), os.pardir, "fuzz", "corpus"
)
_CORPUS = load_corpus(_CORPUS_DIR)
_FUZZ_BAND = range(50)
_ISA_BAND = range(100)


def assert_same_run(workload):
    """Both interpreters on private copies of ``workload``'s memory."""
    return run_both(workload.program, workload.memory._words)[1]


@pytest.mark.parametrize("seed", (0, 1, 2))
@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_benchmark_traces_match(name, seed):
    trace = assert_same_run(build_benchmark(name, _ITERATIONS, seed))
    assert trace.branch_count > 0


@pytest.mark.parametrize(
    "entry", _CORPUS, ids=[os.path.basename(e["path"]) for e in _CORPUS]
)
def test_corpus_traces_match(entry):
    assert_same_run(build_fuzz_workload(spec_from_dict(entry["spec"])))


def test_fuzz_band_traces_match():
    knobs = FuzzKnobs(iterations=_ITERATIONS)
    for seed in _FUZZ_BAND:
        assert_same_run(build_fuzz_workload(draw_spec(seed, knobs)))


def test_corpus_is_nonempty():
    assert _CORPUS, f"no corpus entries under {_CORPUS_DIR}"


_TWO_SOURCE = ("add", "sub", "and_", "or_", "xor", "shl", "shr", "mul",
               "fadd", "fmul", "fdiv")
_IMMEDIATE = ("addi", "andi", "xori")
_EDGE_IMMS = (0, 1, -1, 7, 63, 64, 65, -(1 << 63), 1 << 63, (1 << 64) - 1,
              1 << 70)
_BASE = 8  # holds a small address; never a destination


def _imm(rng):
    if rng.random() < 0.5:
        return rng.choice(_EDGE_IMMS)
    return rng.randrange(-(1 << 64), 1 << 64)


def _emit_random(rng, blk, count):
    """``count`` random datapath instructions over r0..r8 (r0 and r2..r7
    as destinations, so the loop counter r1 and the base r8 survive)."""
    for _ in range(count):
        dest = rng.choice((0, 2, 3, 4, 5, 6, 7))
        src, other = rng.randrange(_BASE + 1), rng.randrange(_BASE + 1)
        roll = rng.random()
        if roll < 0.45:
            getattr(blk, rng.choice(_TWO_SOURCE))(dest, src, other)
        elif roll < 0.7:
            getattr(blk, rng.choice(_IMMEDIATE))(dest, src, _imm(rng))
        elif roll < 0.8:
            blk.movi(dest, _imm(rng))
        else:
            base = _BASE if rng.random() < 0.7 else src
            offset = rng.randrange(-4, 8)
            if rng.random() < 0.5:
                blk.load(dest, base, offset=offset)
            else:
                blk.store(src, base, offset=offset)


def _random_branch(rng, blk, taken):
    cond = rng.choice(list(Condition))
    if rng.random() < 0.5:
        blk.br(cond, rng.randrange(_BASE + 1), imm=_imm(rng), taken=taken)
    else:
        blk.br(cond, rng.randrange(_BASE + 1), rng.randrange(_BASE + 1),
               taken=taken)


def _random_isa_workload(seed, trips=12, blocks=4):
    """A counted loop over ``blocks`` random blocks, each ending in a
    random forward branch, plus a call into a random leaf function."""
    rng = random.Random(seed)
    main = CFGBuilder("main")
    init = main.block("init").movi(1, 0).movi(_BASE, 64 + rng.randrange(64))
    _emit_random(rng, init, 4)
    main.block("head").addi(1, 1, 1).br(Condition.GT, 1, imm=trips,
                                        taken="exit")
    for k in range(blocks):
        blk = main.block(f"b{k}")
        _emit_random(rng, blk, rng.randrange(1, 8))
        target = f"b{k + 2}" if k + 2 < blocks else "call"
        _random_branch(rng, blk, target)
    _emit_random(rng, main.block("call"), 2)
    main.block("call_site").call("leaf")
    main.block("latch").jmp("head")
    main.block("exit").halt()
    leaf = CFGBuilder("leaf")
    body = leaf.block("body")
    _emit_random(rng, body, rng.randrange(1, 6))
    body.ret()
    program = Program(f"isa-{seed}")
    program.add_function(main.build())
    program.add_function(leaf.build())
    memory = Memory()
    memory.fill_random(56, 96, seed=seed, bound=1 << 64)
    return Workload(None, program.seal(), memory)


def test_random_isa_band_traces_match():
    for seed in _ISA_BAND:
        trace = assert_same_run(_random_isa_workload(seed))
        assert trace.branch_count > 0
