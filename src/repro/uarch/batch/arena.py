"""Static arenas for the vectorized batch engine (``engine="batch"``).

The lockstep engine (:mod:`repro.uarch.batch.engine`) advances many
simulation cells in parallel over numpy struct-of-arrays.  Everything
that does not depend on per-cell *timing* is precomputed here once per
program / per trace and shared by every cell:

* **Program tables** (:class:`ProgramArena`) — the per-block row decode
  of :class:`~repro.uarch.plan.BlockPlan`, padded into rectangular
  numpy tables, plus successor block ids, branch PCs, BTB redirect
  sites and reconvergence PCs for wrong-path walks.

* **Trace tables** (:class:`TraceArena`) — for baseline / dual-path
  machines the memory system, store buffer, return-address stack and
  architectural call context are *timing-independent*: the access
  sequence they observe is fixed by the trace alone, because wrong-path
  walks touch only the fetch-cycle accounting and the speculative
  history (see ``_walk_wrong_path_fast``), never the caches, the store
  buffer, the BTB, the RAS or the ROB.  One scalar replay per trace
  therefore pins down every icache stall, every load's latency or
  forwarding source, every RAS underflow and the call stack at each
  record — for every cell of that trace at once.

The replay drives the scalar engines' own components —
:class:`~repro.memsys.hierarchy.CacheHierarchy` (built and L2-warmed by
:func:`repro.uarch.timing.build_hierarchy`),
:class:`~repro.uarch.storebuffer.StoreBuffer` and
:class:`~repro.branch.ras.ReturnAddressStack` — at the default
:class:`~repro.uarch.config.MachineConfig` geometry, the only one
``cell_supported`` admits, so every replacement, forwarding and
underflow decision has one implementation.

The BTB is the one structure a walkless run still updates per cell, but
only through ``_taken_redirect``: each redirect PC always maps to the
same target, so as long as no BTB set can overflow (checked per program
by filling a default :class:`~repro.branch.btb.BranchTargetBuffer` with
every redirect site) a one-bit "seen" flag per redirect site reproduces
every hit/miss decision.  Programs that could evict fall back to the
fast engine.
"""

from __future__ import annotations

import weakref
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.branch.btb import BranchTargetBuffer
from repro.branch.ras import ReturnAddressStack
from repro.cfg.analysis import ProgramAnalysis
from repro.uarch.config import MachineConfig
from repro.uarch.plan import (
    KIND_ALU,
    KIND_LOAD,
    KIND_STORE,
    TERM_BR,
    TERM_CALL,
    TERM_JMP,
    TERM_RET,
)
from repro.uarch.storebuffer import ForwardDecision, StoreBuffer
from repro.uarch.timing import build_hierarchy

#: Architectural register file size plus the two synthetic columns the
#: engine routes padded reads/writes through: ``ZREG`` always reads 0
#: (source padding), ``JREG`` is a write-only junk column.
NUM_ARCH_REGS = 32
ZREG = NUM_ARCH_REGS
JREG = NUM_ARCH_REGS + 1

#: Sentinels.  A missing block first-PC and a missing reconvergence PC
#: both encode as ``-1`` — deliberately the *same* value, because the
#: reference engine's control-independence latch compares
#: ``plan.first_pc == reconv_pc`` where both sides are ``None`` for an
#: empty block with no reconvergence point, and ``None == None`` is
#: True.  The upcoming-PC window pads with ``NO_UPC`` (-3) so a padded
#: slot never matches either a real PC or the missing-PC sentinel.
NO_PC = -1
NO_RECONV = -1
NO_UPC = -3


class ProgramArena:
    """Rectangular numpy decode of one program's block plans."""

    def __init__(self, program) -> None:
        analysis = ProgramAnalysis.of(program)
        plans = []
        self.gid: Dict[Tuple[str, str], int] = {}
        for cfg in program.functions():
            for block in cfg:
                self.gid[(cfg.name, block.name)] = len(plans)
                plans.append(analysis.block_plan(block, cfg.name))
        n = len(plans)
        self.n = n
        self.vector_ok = True
        self.reason = ""

        L = max((p.n for p in plans), default=0)
        K = 1
        for p in plans:
            for row in p.rows:
                if len(row[5]) > K:
                    K = len(row[5])
        self.L, self.K = L, K

        #: Scalar per-block row tuples (``BlockPlan.timing_rows``) plus
        #: per-block load/store counts — the engine's scalar tails, the
        #: dpred episodes and the horizon macro blocks all consume these
        #: directly instead of re-deriving them from the padded tables.
        self.ROWS: List[Tuple[Tuple, ...]] = [p.timing_rows for p in plans]
        self.LOADS: List[int] = [p.load_count for p in plans]
        self.STORES: List[int] = [p.store_count for p in plans]

        self.NROWS = np.zeros(n, np.int64)
        self.NBODY = np.zeros(n, np.int64)  # rows minus a BR terminator
        self.FPC = np.full(n, NO_PC, np.int64)
        self.TERM = np.zeros(n, np.int64)
        self.TAKEN = np.full(n, -1, np.int64)
        self.FALL = np.full(n, -1, np.int64)
        self.TARGET = np.full(n, -1, np.int64)
        self.CALLEE = np.full(n, -1, np.int64)
        self.SITE = np.full(n, -1, np.int64)
        #: Terminating-branch PC for BR blocks (-1 otherwise): the
        #: engine derives the perceptron and JRS indices from it, and
        #: the diverge-hint table is keyed by it.
        self.BRPC = np.full(n, -1, np.int64)
        self.RECONV = np.full(n, NO_RECONV, np.int64)
        self.BRLAT = np.zeros(n, np.int64)
        self.BRSRC = np.full((n, K), ZREG, np.int64)
        self.RKIND = np.zeros((n, L), np.int64)
        self.RLAT = np.zeros((n, L), np.int64)
        self.RDEST = np.full((n, L), JREG, np.int64)
        self.RSRC = np.full((n, L, K), ZREG, np.int64)
        self.RLORD = np.full((n, L), -1, np.int64)
        self.RSTORD = np.full((n, L), -1, np.int64)

        sites: Dict[int, int] = {}  # redirect pc -> dense site id

        def _gid_of(plan_block, function) -> int:
            if plan_block is None:
                return -1
            return self.gid[(function, plan_block.name)]

        for b, plan in enumerate(plans):
            self.NROWS[b] = plan.n
            is_br = plan.term_kind == TERM_BR
            self.NBODY[b] = plan.n - 1 if is_br else plan.n
            if plan.first_pc is not None:
                self.FPC[b] = plan.first_pc
            self.TERM[b] = plan.term_kind
            self.TAKEN[b] = _gid_of(plan.taken_block, plan.function)
            self.FALL[b] = _gid_of(plan.fall_block, plan.function)
            self.TARGET[b] = _gid_of(plan.target_block, plan.function)
            if plan.callee_block is not None:
                self.CALLEE[b] = self.gid[
                    (plan.callee_name, plan.callee_block.name)
                ]
            if any(plan.cond_flags[:-1]):
                # A mid-block conditional would break the walk's
                # "non-cond prefix + one cond row" closed form.
                self.vector_ok = False
                self.reason = "conditional branch inside a block body"
            loads = stores = 0
            for i, (cond, kind, latency, _lat1, dest, srcs) in enumerate(
                plan.rows
            ):
                self.RKIND[b, i] = kind
                self.RLAT[b, i] = latency
                if dest >= 0:
                    self.RDEST[b, i] = dest
                for j, src in enumerate(srcs):
                    self.RSRC[b, i, j] = src
                if kind == KIND_LOAD:
                    self.RLORD[b, i] = loads
                    loads += 1
                elif kind == KIND_STORE:
                    self.RSTORD[b, i] = stores
                    stores += 1
            if plan.term_kind in (TERM_BR, TERM_JMP, TERM_CALL):
                pc = plan.term_pc
                if pc not in sites:
                    sites[pc] = len(sites)
                self.SITE[b] = sites[pc]
            if is_br:
                self.BRPC[b] = plan.term_pc
                reconv = analysis.reconvergence_pc(
                    plan.function, plan.block_name
                )
                if reconv is not None:
                    self.RECONV[b] = reconv
                self.BRLAT[b] = plan.rows[-1][2]
                for j, src in enumerate(plan.rows[-1][5]):
                    self.BRSRC[b, j] = src

        self.nsites = len(sites)
        # Static BTB no-eviction check: the seen-bit model is exact only
        # if no set can ever hold more than its ways, i.e. if the default
        # BTB holds every redirect site at once.
        btb = BranchTargetBuffer(MachineConfig().btb_entries)
        for pc in sites:
            btb.insert(pc, pc)
        if any(btb.lookup(pc) is None for pc in sites):
            self.vector_ok = False
            self.reason = "BTB set can overflow (eviction possible)"


class TraceArena:
    """Trace-static record tables for one (program, trace, warmup)."""

    def __init__(self, parena: ProgramArena, program, trace,
                 warm_words) -> None:
        records = trace.records
        self.nrec = len(records)
        self.instruction_count = trace.instruction_count

        # The default machine's components, built as every simulator
        # builds them (cell_supported admits no other geometry).
        config = MachineConfig()
        hierarchy = build_hierarchy(config, warm_words)
        inst_access = hierarchy.inst_access
        data_access = hierarchy.data_access
        l1i_latency = hierarchy.l1i.latency
        store_buffer = StoreBuffer(config.store_buffer_size)
        sb_lookup = store_buffer.lookup
        sb_insert = store_buffer.insert
        forward_code = ForwardDecision.FORWARD
        ras = ReturnAddressStack(config.ras_depth)

        gid = parena.gid
        TERM = parena.TERM.tolist()
        FALL = parena.FALL.tolist()
        FPC = parena.FPC.tolist()
        NROWS = parena.NROWS.tolist()
        # Each block's memory rows in order, paired with the record's
        # addresses the way the scalar fetch loop consumes them.
        MEMK = [
            tuple(row[0] for row in rows if row[0] != KIND_ALU)
            for rows in parena.ROWS
        ]

        rblk: List[int] = []
        rextra: List[int] = []
        rtaken: List[int] = []
        rseq0: List[int] = []
        rl0: List[int] = []
        rs0: List[int] = []
        runder: List[int] = []
        rnode: List[int] = []
        load_lat: List[int] = []
        load_fwd: List[int] = []
        node_parent: List[int] = []
        node_ret: List[int] = []
        node = -1
        seq = 0
        nstores = 0

        for record in records:
            b = gid[(record.function, record.block.name)]
            rblk.append(b)
            rseq0.append(seq)
            rl0.append(len(load_lat))
            rs0.append(nstores)
            rnode.append(node)
            rtaken.append(1 if record.taken else 0)
            # _icache_fetch(first_pc).
            rextra.append(inst_access(FPC[b] // 8) - l1i_latency)

            # Stores enter the buffer with their trace ordinal as the
            # sequence number, so every buffered store is older than
            # the load looking it up; a forwarded load records its
            # source store, whose ready time is per cell.
            for kind, address in zip(MEMK[b], record.mem_addrs):
                if kind == KIND_LOAD:
                    forward = sb_lookup(address, nstores)
                    if forward.decision == forward_code:
                        load_fwd.append(forward.entry.seq)
                        load_lat.append(0)
                    else:
                        load_fwd.append(-1)
                        load_lat.append(data_access(address))
                else:
                    sb_insert(address, nstores, 0)
                    nstores += 1
            seq += NROWS[b]  # the BR terminator retires too

            term = TERM[b]
            under = 0
            if term == TERM_CALL:
                fall = FALL[b]
                if fall >= 0:
                    ras.push(FPC[fall])
                    node_parent.append(node)
                    node_ret.append(fall)
                    node = len(node_parent) - 1
            elif term == TERM_RET:
                if node >= 0:
                    node = node_parent[node]
                if ras.pop() is None:
                    under = 1
            runder.append(under)

        i8 = np.int64
        self.RBLK = np.asarray(rblk, i8)
        self.REXTRA = np.asarray(rextra, i8)
        self.RTAKEN = np.asarray(rtaken, i8)
        self.RSEQ0 = np.asarray(rseq0, i8)
        self.RL0 = np.asarray(rl0, i8)
        self.RS0 = np.asarray(rs0, i8)
        self.RUNDER = np.asarray(runder, i8)
        self.RNODE = np.asarray(rnode, i8)
        self.RFPC = parena.FPC[self.RBLK]
        self.LLAT = np.asarray(load_lat, i8)
        self.LFWD = np.asarray(load_fwd, i8)
        self.nloads = len(load_lat)
        self.nstores = nstores
        self.NODEPAR = np.asarray(node_parent, i8)
        self.NODERET = np.asarray(node_ret, i8)
        self.nnodes = len(node_parent)


class _BoundedArenaCache:
    """A weak-key memo with an LRU entry cap.

    Correctness comes from the weak keys (an entry never outlives its
    program/trace); *boundedness* comes from the cap: long design-space
    sweeps hold thousands of live trace objects (benchmark contexts,
    fuzz corpora), and without eviction the memos grow with them.  The
    cap evicts in least-recently-used order; an evicted arena is simply
    rebuilt on its next use."""

    __slots__ = ("cap", "data", "order")

    def __init__(self, cap: int) -> None:
        self.cap = cap
        self.data: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
        self.order: Dict[int, "weakref.ref"] = {}

    def get(self, key):
        value = self.data.get(key)
        if value is not None:
            k = id(key)
            ref = self.order.pop(k, None)
            if ref is not None:
                self.order[k] = ref  # move to most-recent
        return value

    def put(self, key, value) -> None:
        self.data[key] = value
        self.order.pop(id(key), None)
        self.order[id(key)] = weakref.ref(key)
        self.trim()

    def trim(self) -> None:
        while len(self.order) > self.cap:
            k = next(iter(self.order))
            ref = self.order.pop(k)
            obj = ref()
            if obj is not None:
                self.data.pop(obj, None)

    def clear(self) -> None:
        self.data.clear()
        self.order.clear()

    def __len__(self) -> int:
        return len(self.data)


#: Default entry caps; ``set_arena_cache_cap`` resizes both at runtime
#: (the suite executors enforce them after every batch run).
_DEFAULT_PROGRAM_CAP = 64
_DEFAULT_TRACE_CAP = 256

_PROGRAM_ARENAS = _BoundedArenaCache(_DEFAULT_PROGRAM_CAP)
_TRACE_ARENAS = _BoundedArenaCache(_DEFAULT_TRACE_CAP)


def set_arena_cache_cap(programs: Optional[int] = None,
                        traces: Optional[int] = None) -> None:
    """Resize the arena memo caps (and trim immediately)."""
    if programs is not None:
        _PROGRAM_ARENAS.cap = programs
        _PROGRAM_ARENAS.trim()
    if traces is not None:
        _TRACE_ARENAS.cap = traces
        _TRACE_ARENAS.trim()


def arena_cache_sizes() -> Tuple[int, int]:
    """Current (program, trace) memo entry counts — for the cap tests
    and the suite executors' bookkeeping."""
    return len(_PROGRAM_ARENAS), len(_TRACE_ARENAS)


def trim_arena_caches() -> None:
    """Re-enforce the LRU caps (idempotent).  The suite executors call
    this after each batch run so multi-thousand-cell sweeps cannot grow
    the memos without bound even while every trace stays alive."""
    _PROGRAM_ARENAS.trim()
    _TRACE_ARENAS.trim()


def program_arena(program) -> ProgramArena:
    arena = _PROGRAM_ARENAS.get(program)
    if arena is None:
        arena = ProgramArena(program)
        _PROGRAM_ARENAS.put(program, arena)
    return arena


def trace_arena(parena: ProgramArena, program, trace,
                warm_words) -> TraceArena:
    """Build (or reuse) the trace tables; keyed by the trace object and
    a digest of the warm-up word list, which changes the L2 image the
    replay starts from."""
    per_trace = _TRACE_ARENAS.get(trace)
    if per_trace is None:
        per_trace = {}
        _TRACE_ARENAS.put(trace, per_trace)
    warm = tuple(warm_words) if warm_words else ()
    key = (len(warm), hash(warm))
    arena = per_trace.get(key)
    if arena is None:
        arena = per_trace[key] = TraceArena(parena, program, trace, warm)
    return arena


#: Dependent caches (the horizon span/macro registries) register a
#: clear callback here so ``clear_arena_caches`` drops them too.
_CLEAR_HOOKS: List = []


def clear_arena_caches() -> None:
    """Drop every memoized arena, so the next :func:`program_arena` /
    :func:`trace_arena` call rebuilds from scratch.  The bench harness
    calls this before a cold batch run: the weak-key memos outlive
    ``ProgramAnalysis.reset``, and a cold measurement must charge the
    arena builds to the engine."""
    _PROGRAM_ARENAS.clear()
    _TRACE_ARENAS.clear()
    for hook in _CLEAR_HOOKS:
        hook()
