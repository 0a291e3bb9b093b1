"""The compiled lane: baseline and dual-path cells of the fast engine in C.

:func:`run` simulates one cell with ``lane.c``, a port of the fast
engine's trace loop (:class:`~repro.uarch.timing.TimingSimulator`'s
``_fast`` methods) that reads the flat tables of
:mod:`repro.uarch.arena`: the program's block tables and one replay of
the trace through the scalar cache hierarchy, store buffer and RAS.
Only the timing loop, the perceptron, the JRS estimator and the BTB's
seen bits are ported; the memory components keep their one Python
implementation.  ``simulate()`` sends every ``engine="fast"`` cell
inside the lane's envelope here (:func:`reason`); the SimStats are the
reference engine's, field for field (tests/core/test_lane.py).

The envelope is the batch engine's vector envelope narrowed to
baseline and dual-path (:func:`repro.uarch.arena.envelope_reason`),
plus a program whose :attr:`~repro.uarch.arena.ProgramArena.reason` is
empty, plus a loadable build.  Everything else runs the Python fast
engine unchanged, which is also the fallback on a host with no C
compiler.

The C file is built on first use, never at import: with the system C
compiler at ``-O2``, into a per-user cache directory, under a name
keyed by the source digest and the platform, so later processes load
the build without compiling.  The file uses no Python C-API, so one
build serves every interpreter, and it is loaded with :mod:`ctypes`.
The tables are packed into :mod:`array` buffers per cell and dropped
when the cell ends.
"""

from __future__ import annotations

import hashlib
import os
import platform
import shutil
import sys
import tempfile
from array import array
from typing import Optional, Tuple

from repro.branch.perceptron import PerceptronPredictor
from repro.confidence import make_estimator
from repro.uarch.arena import ProgramArena, TraceArena, envelope_reason
from repro.uarch.stats import SimStats
from repro.uarch.timing import TimingSimulator

#: The C source, shipped next to this module as package data.
SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "lane.c")

#: The loaded library once :func:`load` has run (``False`` when no
#: build could be made or loaded), and why it is missing.
_LIB = None
_LIB_REASON = ""

#: Walk block guard, mirroring ``_walk_wrong_path_fast``.
_WALK_GUARD = 10_000

#: Order of ``lane_run``'s output counters (``O_*`` in lane.c).
_OUTPUTS = (
    "cycles", "retired_branches", "mispredictions", "pipeline_flushes",
    "fetched_correct", "fetched_wrong_cd", "fetched_wrong_ci",
    "executed_instructions", "dualpath_forks",
)


def _find_compiler() -> Optional[str]:
    """The system C compiler, or ``None`` (a test seam)."""
    for name in ("cc", "gcc", "clang"):
        path = shutil.which(name)
        if path:
            return path
    return None


def _private_dir(path: str) -> bool:
    """Create ``path`` as a 0700 directory, or accept it if it already
    is one of this user's; refuse a directory owned by anyone else."""
    try:
        os.makedirs(path, mode=0o700, exist_ok=True)
        info = os.lstat(path)
    except OSError:
        return False
    getuid = getattr(os, "getuid", None)
    if getuid is not None and info.st_uid != getuid():
        return False
    return os.path.isdir(path) and os.access(path, os.W_OK)


def _cache_dir() -> Optional[str]:
    """Where builds live (a test seam): the per-user cache directory,
    else a per-uid directory under the system temp dir."""
    home = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    uid = getattr(os, "getuid", lambda: "user")()
    for path in (
        os.path.join(home, "repro-lane"),
        os.path.join(tempfile.gettempdir(), f"repro-lane-{uid}"),
    ):
        if _private_dir(path):
            return path
    return None


def build_name() -> str:
    """The build's file name: the source digest and the platform."""
    with open(SOURCE, "rb") as handle:
        digest = hashlib.sha256(handle.read()).hexdigest()[:16]
    return f"lane-{digest}-{sys.platform}-{platform.machine()}.so"


def _compile(directory: str, target: str) -> str:
    """Compile the lane to ``target`` atomically; returns ``""`` or why
    it could not."""
    import subprocess

    compiler = _find_compiler()
    if compiler is None:
        return "no C compiler"
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    os.close(fd)
    try:
        try:
            done = subprocess.run(
                [compiler, "-O2", "-shared", "-fPIC", "-o", tmp, SOURCE],
                capture_output=True, text=True, timeout=300,
            )
        except (OSError, subprocess.TimeoutExpired) as exc:
            return f"C lane build failed: {exc}"
        if done.returncode != 0:
            return f"C lane build failed: {done.stderr.strip()[:200]}"
        os.replace(tmp, target)  # pool workers may race: last one wins
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return ""


def load():
    """The lane library, built on first use; ``None`` when this host
    cannot have it (:func:`unavailable_reason` says why)."""
    global _LIB, _LIB_REASON
    if _LIB is None:
        _LIB, _LIB_REASON = _open()
    return _LIB or None


def unavailable_reason() -> str:
    """Why :func:`load` returned ``None`` (``""`` when it did not)."""
    load()
    return _LIB_REASON


def _open() -> Tuple[object, str]:
    import ctypes

    directory = _cache_dir()
    if directory is None:
        return False, "no writable private cache directory"
    target = os.path.join(directory, build_name())
    if not os.path.exists(target):
        why = _compile(directory, target)
        if why:
            return False, why
    try:
        lib = ctypes.CDLL(target)
    except OSError as exc:
        return False, f"C lane failed to load: {exc}"
    lib.lane_run.restype = ctypes.c_int
    lib.lane_run.argtypes = [ctypes.c_void_p] * 13
    return lib, ""


def _admit(config, program,
           traced: bool) -> Tuple[str, Optional[ProgramArena]]:
    """``(reason, program tables)``: the tables only when the reason is
    empty and the cell runs on the lane."""
    reason = envelope_reason(config, traced, predication=False)
    if reason:
        return reason, None
    if load() is None:
        return _LIB_REASON, None
    arena = ProgramArena(program)
    if arena.reason:
        return arena.reason, None
    return "", arena


def reason(config, program, traced: bool = False) -> str:
    """Why :func:`run` would not run this cell, or ``""`` when it
    would.  It depends only on the configuration, the program and
    whether this host has a build, so a caller can tally it for cells
    that run in another process."""
    return _admit(config, program, traced)[0]


def run(program, trace, config, benchmark: str = "", warm_words=None,
        tracer=None) -> Optional[SimStats]:
    """One cell on the lane, or ``None`` when it is outside the
    envelope (the caller then runs the Python fast engine)."""
    why, arena = _admit(config, program, tracer is not None)
    if why:
        return None
    tables = _pack(arena, TraceArena(arena, trace, warm_words), config)
    counts = _execute(_LIB, tables)
    stats = SimStats(
        benchmark=benchmark or trace.program_name,
        config_description=config.describe(),
    )
    for name, value in zip(_OUTPUTS, counts):
        setattr(stats, name, value)
    stats.retired_instructions = trace.instruction_count
    return stats


def _pack(pa: ProgramArena, ta: TraceArena, config) -> Tuple[array, ...]:
    """``lane_run``'s arguments but the output: the parameters, the
    block and row tables, then the trace, load and call-node tables."""
    perceptron = PerceptronPredictor()
    jrs = make_estimator(config.confidence_kind, **config.confidence_args)
    stride = 4 + pa.K
    blocks = array("q")
    rows = array("i")
    offset = 0
    for b, block_rows in enumerate(pa.ROWS):
        blocks.extend((
            offset, len(block_rows), pa.FPC[b], pa.TERM[b], pa.TAKEN[b],
            pa.FALL[b], pa.TARGET[b], pa.CALLEE[b], pa.SITE[b],
            pa.BRPC[b], pa.RECONV[b],
        ))
        for kind, latency, _lat1, dest, srcs, _lord, _sord in block_rows:
            rows.extend((kind, latency, dest, len(srcs)))
            rows.extend(srcs)
            rows.extend((0,) * (pa.K - len(srcs)))
        offset += len(block_rows)
    params = array("q", (
        len(ta.RBLK), ta.nstores, pa.nsites, offset, stride,
        config.fetch_width, max(1, config.fetch_width // 2),
        config.max_branches_per_cycle, config.pipeline_depth,
        config.rob_size, config.retire_width,
        int(config.mode == "dualpath"),
        perceptron.num_perceptrons, perceptron.history_bits,
        perceptron.theta, perceptron._weight_min, perceptron._weight_max,
        jrs.table_size, jrs.history_bits, jrs.counter_max, jrs.threshold,
        _WALK_GUARD, TimingSimulator._CI_LOOKAHEAD_BLOCKS,
    ))
    return (params, blocks, rows) + tuple(
        array("i", table) for table in (
            ta.RBLK, ta.REXTRA, ta.RTAKEN, ta.RUNDER, ta.RNODE,
            ta.LLAT, ta.LFWD, ta.NODEPAR, ta.NODERET,
        )
    )


def _execute(lib, tables: Tuple[array, ...]) -> array:
    """The C trace loop over packed tables; returns the counters."""
    out = array("q", bytes(8 * len(_OUTPUTS)))
    status = lib.lane_run(
        *(table.buffer_info()[0] for table in tables),
        out.buffer_info()[0],
    )
    if status == -1:
        raise MemoryError("the compiled lane could not allocate its state")
    if status:
        raise ValueError("a block row names a register outside the "
                         "architectural register file")
    return out
