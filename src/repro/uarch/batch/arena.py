"""Static tables for the vectorized batch engine (``engine="batch"``).

The lockstep engine (:mod:`repro.uarch.batch.engine`) advances many
simulation cells in parallel.  Everything that does not depend on
per-cell *timing* is tabulated here, once per program and once per
trace of a ``run_batch`` call, and shared by every cell of that call:

* **Program tables** (:class:`ProgramArena`) — one Python list entry
  per block: the plan's own ``BlockPlan.timing_rows``, successor block
  ids, branch PCs, BTB redirect sites and reconvergence PCs for
  wrong-path walks.  Span macro blocks (:mod:`repro.uarch.batch.horizon`)
  append after the program's own blocks.

* **Trace tables** (:class:`TraceArena`) — one list entry per record,
  per load and per call node.  For baseline / dual-path machines the
  memory system, store buffer, return-address stack and architectural
  call context are *timing-independent*: the access sequence they
  observe is fixed by the trace alone, because wrong-path walks touch
  only the fetch-cycle accounting and the speculative history (see
  ``_walk_wrong_path_fast``), never the caches, the store buffer, the
  BTB, the RAS or the ROB.  One scalar replay per trace therefore pins
  down every icache stall, every load's latency or forwarding source,
  every RAS underflow and the call stack at each record — for every
  cell of that trace at once.

The engine concatenates the lists of every program and trace of a call
for its scalar code, and builds from them, once, the numpy tables its
vector step reads.  Nothing here outlives the call: building the tables
costs a few percent of the simulation they serve, and only a process
that runs the same program through many calls could reuse them.

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

from typing import Dict, List, Tuple

from repro.branch.btb import BranchTargetBuffer
from repro.branch.ras import ReturnAddressStack
from repro.cfg.analysis import ProgramAnalysis
from repro.uarch.batch.horizon import trace_spans
from repro.uarch.config import MachineConfig
from repro.uarch.plan import (
    KIND_ALU,
    KIND_LOAD,
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
#: True.
NO_PC = -1
NO_RECONV = -1


class ProgramArena:
    """One program's block tables: a list entry per block, the
    program's own blocks first and span macro blocks after them.

    ``ROWS[b]`` is the block's ``BlockPlan.timing_rows``: ``(kind,
    latency, max(latency, 1), dest or -1, srcs, load ordinal, store
    ordinal)`` per instruction, read directly by the engine's scalar row
    tail, its wrong-path walks and the dpred episodes, and padded into
    the vector decode tables by the engine.  Successor entries
    (``TAKEN``, ``FALL``, ``TARGET``, ``CALLEE``) are program-local
    block ids, -1 when absent.  ``reason`` is empty when the vector
    path can run the program."""

    def __init__(self, program) -> None:
        analysis = ProgramAnalysis.of(program)
        plans = []
        self.gid: Dict[Tuple[str, str], int] = {}
        for cfg in program.functions():
            for block in cfg:
                self.gid[(cfg.name, block.name)] = len(plans)
                plans.append(analysis.block_plan(block, cfg.name))
        self.reason = ""
        #: Widest raw block and widest source list (at least 1).
        self.L = max((p.n for p in plans), default=0)
        self.K = max(
            (len(row[4]) for p in plans for row in p.timing_rows), default=1
        ) or 1
        self.ROWS: List[Tuple[Tuple, ...]] = [p.timing_rows for p in plans]
        self.NROWS: List[int] = [p.n for p in plans]
        #: Load/store counts of the program's own blocks (the macro
        #: builder renumbers ordinals with them).
        self.LOADS: List[int] = [p.load_count for p in plans]
        self.STORES: List[int] = [p.store_count for p in plans]
        self.FPC: List[int] = [
            NO_PC if p.first_pc is None else p.first_pc for p in plans
        ]
        self.TERM: List[int] = [p.term_kind for p in plans]
        self.TAKEN: List[int] = []
        self.FALL: List[int] = []
        self.TARGET: List[int] = []
        self.CALLEE: List[int] = []
        self.SITE: List[int] = []
        #: Terminating-branch PC for BR blocks (-1 otherwise): the
        #: engine derives the perceptron and JRS indices from it, and
        #: the diverge-hint table is keyed by it.
        self.BRPC: List[int] = []
        self.RECONV: List[int] = []
        #: Span macro ids by constituent block tuple (horizon.py).
        self.macros: Dict[Tuple[int, ...], int] = {}

        gid = self.gid
        sites: Dict[int, int] = {}  # redirect pc -> dense site id

        def _gid_of(plan_block, function) -> int:
            if plan_block is None:
                return -1
            return gid[(function, plan_block.name)]

        for plan in plans:
            self.TAKEN.append(_gid_of(plan.taken_block, plan.function))
            self.FALL.append(_gid_of(plan.fall_block, plan.function))
            self.TARGET.append(_gid_of(plan.target_block, plan.function))
            self.CALLEE.append(_gid_of(plan.callee_block, plan.callee_name))
            if any(plan.cond_flags[:-1]):
                # A mid-block conditional would break the walk's
                # "non-cond prefix + one cond row" closed form.
                self.reason = "conditional branch inside a block body"
            site = -1
            if plan.term_kind in (TERM_BR, TERM_JMP, TERM_CALL):
                site = sites.setdefault(plan.term_pc, len(sites))
            self.SITE.append(site)
            brpc, reconv = -1, NO_RECONV
            if plan.term_kind == TERM_BR:
                brpc = plan.term_pc
                pc = analysis.reconvergence_pc(
                    plan.function, plan.block_name
                )
                reconv = NO_RECONV if pc is None else pc
            self.BRPC.append(brpc)
            self.RECONV.append(reconv)

        self.nsites = len(sites)
        # Static BTB no-eviction check: the seen-bit model is exact only
        # if no set can ever hold more than its ways, i.e. if the default
        # BTB holds every redirect site at once.
        btb = BranchTargetBuffer(MachineConfig().btb_entries)
        for pc in sites:
            btb.insert(pc, pc)
        if any(btb.lookup(pc) is None for pc in sites):
            self.reason = "BTB set can overflow (eviction possible)"


class TraceArena:
    """Trace-static tables for one (program, trace, warm-up words):
    per record ``RBLK`` (program-local block), ``REXTRA`` (icache stall
    beyond an L1 hit), ``RTAKEN``, ``RSEQ0``/``RL0``/``RS0`` (sequence
    number, load and store ordinals of its first row), ``RUNDER`` (RAS
    underflow on its return) and ``RNODE`` (call node it runs in, -1 at
    top level); per load ``LLAT`` and ``LFWD`` (latency, or the store
    ordinal it forwards from, else -1); per call node ``NODEPAR`` and
    ``NODERET`` (parent node and return block); per record again the
    horizon span lookup ``SPANBLK``/``SPANLAST``
    (:func:`~repro.uarch.batch.horizon.trace_spans`)."""

    def __init__(self, parena: ProgramArena, trace, warm_words) -> None:
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
        TERM = parena.TERM
        FALL = parena.FALL
        FPC = parena.FPC
        NROWS = parena.NROWS
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

        for record in trace.records:
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

        self.RBLK = rblk
        self.REXTRA = rextra
        self.RTAKEN = rtaken
        self.RSEQ0 = rseq0
        self.RL0 = rl0
        self.RS0 = rs0
        self.RUNDER = runder
        self.RNODE = rnode
        self.LLAT = load_lat
        self.LFWD = load_fwd
        self.NODEPAR = node_parent
        self.NODERET = node_ret
        self.nstores = nstores
        # Horizon spans over the quiet runs; new macros join parena.
        self.SPANBLK, self.SPANLAST = trace_spans(
            parena, self.RBLK, self.REXTRA
        )
