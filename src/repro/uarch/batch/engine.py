"""The vectorized lockstep batch engine (``engine="batch"``).

One :class:`_Group` advances many independent simulation cells —
(program, trace, config, seed) combinations — in lockstep over numpy
struct-of-arrays.  Each driver iteration advances every live cell by
exactly one trace record: the per-record arithmetic of
:class:`repro.uarch.timing.TimingSimulator` (fetch slots, reorder-buffer
stalls, register dependences, load latencies, retirement) runs once per
*row position* across all cells instead of once per row per cell.  The
per-cell timing state (fetch cycle, fetch slots, register-ready times,
retirement ring, store-ready times) lives in arrays indexed by cell.
Predictor state (perceptron weights, JRS counters, BTB seen-bits) is
bit-equal across the cells of one trace until an episode outcome splits
them, so it lives in rows indexed by (trace, epoch) that the cells
point at (the epoch comment in :class:`_Group`).

Bit-identity contract
---------------------

Every cell's :class:`~repro.uarch.stats.SimStats` equals the reference
engine's field-for-field (tests/core/test_engine_batch.py).  There is no
approximation anywhere: the vector body loop replays the reference
engine's inlined per-row sequence literally (ROB-window stall, slot
exhaustion, dual-path fetch-width selection, dependence wakeup,
retirement), with `where` masks in place of branches.

The deliberately *scalar* pieces — the wrong-path walk, the row tail
(:func:`_tail_rows`) and the dpred episodes of
:mod:`repro.uarch.batch.gang` — are plain Python loops on ints over the
plans' own per-block row tuples (``pROWS``); nothing here generates code
(docs/performance.md, "Why the batch engine runs no generated code").
A cell that mispredicts (or dual-path forks) walks its wrong path
synchronously — an exact transcription of ``_walk_wrong_path_fast`` —
before the lockstep loop continues.  Walks
touch only the fetch-cycle accounting and the speculative global
history (never caches, store buffer, BTB, RAS or ROB), are rare (one
per misprediction), and are cheap integer arithmetic; vectorizing them
would force every cell to wait one driver iteration per walked *block*,
which measures far slower than stepping the few walking cells inline.

The static tables come from :mod:`repro.uarch.arena`, built once
per ``run_batch`` call: per-program block lists plus a per-trace replay
of everything timing-independent (icache stalls, load latencies and
forwarding sources, store-buffer contents, RAS underflows, the
architectural call context).  :class:`_Group` concatenates those lists
for the scalar code and builds each numpy table its vector step reads
from them, once; nothing outlives the call.
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, List, Optional, Tuple

try:  # pragma: no cover - the no-numpy branch runs in a subprocess test
    import numpy as np
except Exception:  # pragma: no cover - every cell falls back
    np = None

from repro.branch.perceptron import PerceptronPredictor
from repro.confidence import make_estimator
from repro.uarch.arena import (
    JREG,
    ZREG,
    ProgramArena,
    TraceArena,
    envelope_reason,
)
from repro.uarch.batch.horizon import trace_spans
from repro.uarch.plan import (
    KIND_LOAD,
    KIND_STORE,
    TERM_BR,
    TERM_CALL,
    TERM_JMP,
    TERM_NONE,
    TERM_RET,
)
from repro.uarch.stats import SimStats

#: Table geometry of the one predictor and estimator the vector path
#: supports, read off default instances of the scalar classes that own
#: it (untrained perceptrons share one zero row, so this is cheap).
_P = PerceptronPredictor()
_NPERC = _P.num_perceptrons
_HBITS = _P.history_bits
_THETA = _P.theta
_WMAX, _WMIN = _P._weight_max, _P._weight_min
_M31 = (1 << _HBITS) - 1
_J = make_estimator("jrs")
_JTAB = _J.table_size
_JMAX = _J.counter_max
_JHMASK = (1 << _J.history_bits) - 1
del _P, _J
#: Walk block guard, mirroring ``_walk_wrong_path_fast``.
_WALK_GUARD = 10_000
#: Lookahead window for the control-independence classification.
_CI_LOOKAHEAD = 32
#: Active-lane count at which the step loop's per-row numpy dispatch
#: costs more than a plain-python row, so the remaining lanes finish
#: their (rare, long) blocks on the scalar row tail instead.
_TAIL_LANES = 16
#: Lane width up to which _trace_step pre-gathers the whole ring window
#: in one rectangular fancy-index (fewer numpy calls); above it, per-row
#: suffix gathers move strictly fewer elements.
_RING_PREGATHER = 512

_TRACE, _DONE = 0, 2


def _flush_ring(ring, wr, sq0: int, rob: int) -> None:
    """Write a retire log back to the numpy retirement ring.

    ``wr`` holds retire cycles at consecutive sequence numbers from
    ``sq0``, so it lands as one circular span of the ring row (a lane
    never pays to convert or copy the full ROB)."""
    nw = len(wr)
    if nw >= rob:
        b0 = sq0 + nw - rob
        for off in range(rob):
            ring[(b0 + off) % rob] = wr[nw - rob + off]
    elif nw:
        a0 = sq0 % rob
        end = a0 + nw
        if end <= rob:
            ring[a0:end] = wr
        else:
            ring[a0:rob] = wr[: rob - a0]
            ring[: end - rob] = wr[rob - a0:]


def _tail_rows(rows, i0, nr, l0, s0, cyc, sl, blv, du, wt, hwt, mbt,
               dept, robv, rwt, lastt, cntt, sq0, rr, ring, srd, spr,
               lfwd, llat):
    """The step loop's scalar row tail: rows ``i0 <= i < nr`` of one
    lane's block, the reference engine's inlined per-row sequence on
    plain ints (ROB-window stall, slot exhaustion, dependence wakeup,
    load forwarding, retirement).

    ``sq0`` is the sequence number of row ``i0``.  Window-stall reads
    only fire once the window is full: rows retired since ``sq0`` are
    served from the write log ``wr``, older ones from the numpy ring
    row, and the log goes back to the ring as one span at the end.
    ``spr`` is the store-predicate ready row when the group predicates
    (a forward from a store whose predicate is still unresolved waits
    for it), else None.  Returns ``(cycle, slots, branches, last, cnt,
    load waits)``."""
    lwc, seq, wr = 0, sq0, []
    wa = wr.append
    for kind, lat, _lat1, dest, srcs, lord, stord in rows[i0:nr]:
        if seq >= robv:
            j = seq - robv
            oldest = wr[j - sq0] if j >= sq0 else ring[j % robv]
            if cyc < oldest:
                cyc = oldest
                sl = hwt if cyc <= du else wt
                blv = mbt
        if sl <= 0:
            cyc += 1
            sl = hwt if cyc <= du else wt
            blv = mbt
        sl -= 1
        base = cyc + dept
        for s_ in srcs:
            rdy = rr[s_]
            if rdy > base:
                base = rdy
        if kind == KIND_LOAD:
            fwd = lfwd[l0 + lord]
            if fwd < 0:
                comp = base + llat[l0 + lord]
            elif spr is not None and base < spr[fwd]:
                lwc += 1
                comp = int(spr[fwd]) + 2
            else:
                sv = int(srd[fwd])
                comp = (sv if sv > base else base) + 1
        elif kind == KIND_STORE:
            comp = base + 1
            srd[s0 + stord] = comp
        else:
            comp = base + lat
        if dest >= 0:
            rr[dest] = comp
        rc = comp + 1
        if rc < lastt:
            rc = lastt
        if rc == lastt and cntt >= rwt:
            rc += 1
        if rc > lastt:
            cntt = 1
        else:
            cntt += 1
        lastt = rc
        wa(rc)
        seq += 1
    _flush_ring(ring, wr, sq0, robv)
    return cyc, sl, blv, lastt, cntt, lwc


class _EpState:
    """One cell's scalar state threaded through a dpred episode.

    :meth:`repro.uarch.batch.gang.EpisodeGang.run_lane` replays each
    lane's episode on plain-python copies of the cell's fetch accounting
    and register-ready file — list indexing beats numpy scalar
    extraction several-fold on these scalar tails — and scatters them
    back once per episode.  The retirement ring stays on the numpy row
    (``ring``): the episode's retires land in the ``wr`` write log at
    consecutive sequence numbers from ``seq0``, window-stall reads past
    that boundary serve from the log, and ``gang._ep_finish`` flushes
    the log back as one circular span instead of converting the full
    ROB.  The episode's CfmCam and select set are shared structure, so
    they live on the gang; the counters here are per-episode deltas."""

    __slots__ = (
        "cycle", "slots", "bl", "du", "w", "hw", "mb", "depth",
        "rob", "rw", "ghr", "rr", "ring", "wr", "last", "cnt",
        "seq", "seq0",
        "fc", "ex", "rb", "mp", "fl", "cd", "pf", "lw",
    )


class _WalkPath:
    """Structural wrong-path walk shared by every cell on one
    predictor-state row.

    The block sequence a walk visits — and the predictions steering it —
    depends only on the start block, the history register, the
    perceptron weights and the reconvergence targets, never on per-cell
    cycle accounting.  The cells of one (trace, epoch) share one weights
    row, so on a config-grid sweep the structural walk is computed once
    per row and each cell replays only its own slot/cycle arithmetic
    over the cached blocks.  Blocks are appended lazily: a cell with
    more cycle headroom extends the shared path where the previous
    cell's replay stopped."""

    __slots__ = (
        "blocks", "cur", "ghr", "node", "local", "reached", "guard",
        "reconv", "upcoming", "weights", "replays",
    )

    def __init__(self, start, ghr, node, reconv, upcoming, weights):
        self.blocks: List[Tuple[int, bool, bool, bool]] = []
        self.cur = start
        self.ghr = ghr
        self.node = node
        self.local: List[int] = []
        self.reached = False
        self.guard = 0
        self.reconv = reconv
        self.upcoming = upcoming
        self.weights = weights
        #: (rel, slots, branches, width, maxb) -> (dcycle, cd, ci): the
        #: replay outcome is a pure function of the *relative* cycle
        #: budget whenever the fetch-width regime is uniform, and cells
        #: of a config grid frequently collide on it.
        self.replays: Dict[tuple, Tuple[int, int, int]] = {}

    def wrow(self, idx: int) -> List[int]:
        return self.weights[idx].tolist()


class BatchCell:
    """One (program, trace, config) simulation the batch engine runs."""

    __slots__ = (
        "program", "trace", "config", "hints", "benchmark", "warm_words",
        "tracer",
    )

    def __init__(self, program, trace, config, hints=None, benchmark="",
                 warm_words=None, tracer=None):
        self.program = program
        self.trace = trace
        self.config = config
        self.hints = hints
        self.benchmark = benchmark
        self.warm_words = warm_words
        self.tracer = tracer


def batch_supported() -> bool:
    """True when the vectorized path (numpy) is available."""
    return np is not None


def _config_reason(config, tracer) -> str:
    """Why the vector path cannot run a cell of this configuration, or
    ``""`` when it can (the program is checked separately)."""
    if np is None:
        return "numpy is not importable"
    return envelope_reason(config, tracer is not None)


def cell_supported(cell: BatchCell) -> Tuple[bool, str]:
    """Whether the vector path can run this cell bit-identically.

    Anything outside the envelope is not an error — ``run_batch`` falls
    back to the fast engine per cell — but the reason string feeds the
    differential tests and ``docs/performance.md``.  ``run_batch``
    applies the same check with one program table per distinct program.
    """
    reason = (
        _config_reason(cell.config, cell.tracer)
        or ProgramArena(cell.program).reason
    )
    return not reason, reason


def _fallback(cell: BatchCell) -> SimStats:
    from repro.core.processors import simulate

    return simulate(
        cell.program,
        cell.trace,
        cell.config.replace(engine="fast"),
        hints=cell.hints,
        benchmark=cell.benchmark,
        warm_words=cell.warm_words,
        tracer=cell.tracer,
    )


def run_batch(
    cells: List[BatchCell],
    fallback_reasons: Optional[Dict[str, int]] = None,
    profile: Optional[Dict[str, float]] = None,
    gang_stats: Optional[Dict[str, int]] = None,
) -> List[SimStats]:
    """Simulate every cell; vector-eligible cells run in one lockstep
    group, the rest fall back to the fast engine (bit-identical either
    way).  Pass a dict as ``fallback_reasons`` to receive a histogram of
    ``cell_supported`` reason strings for the cells that fell off the
    vector path (the ``run_suite``/CLI fallback summary).

    The static tables are built per call: one program table per
    distinct program, shared by the envelope check and the group, and
    one trace table per distinct (program, trace, warm-up words).
    Nothing survives the call.

    ``profile`` (a dict, accumulated into) receives wall-time phase
    attribution: ``arena_build`` (the envelope check and group
    construction: program and trace tables, horizon spans, table
    concatenation), ``step_loop`` (the vector driver),
    ``episode_tails`` (dpred episodes, every one a gang replay),
    ``scalar_walks`` (mispredict/fork wrong-path walks) and
    ``scalar_fallback`` (cells simulated on the fast engine).
    ``gang_stats`` (likewise accumulated) receives the ganged-episode
    accounting: ``gangs``, ``ganged_lanes`` (lanes in gangs of two or
    more), ``singleton_lanes`` (lanes that ran as gangs of one),
    ``max_gang``, and the predictor-state rows: ``pred_states`` (rows
    created, one per (trace, epoch)) and ``max_pred_states`` (peak live
    rows)."""
    results: List[Optional[SimStats]] = [None] * len(cells)
    t0 = perf_counter()
    arenas: Dict[int, ProgramArena] = {}
    reasons = []
    for cell in cells:
        reason = _config_reason(cell.config, cell.tracer)
        if not reason:
            pa = arenas.get(id(cell.program))
            if pa is None:
                pa = arenas[id(cell.program)] = ProgramArena(cell.program)
            reason = pa.reason
        reasons.append(reason)
    build = perf_counter() - t0
    vec: List[int] = []
    fb_time = 0.0
    for i, (cell, reason) in enumerate(zip(cells, reasons)):
        if not reason:
            vec.append(i)
            continue
        if fallback_reasons is not None:
            fallback_reasons[reason] = fallback_reasons.get(reason, 0) + 1
        t0 = perf_counter()
        results[i] = _fallback(cell)
        fb_time += perf_counter() - t0
    if vec:
        t0 = perf_counter()
        group = _Group([cells[i] for i in vec], arenas)
        del arenas  # free the program tables: the group keeps none
        build += perf_counter() - t0
        t0 = perf_counter()
        out = group.run()
        run_time = perf_counter() - t0
        for i, stats in zip(vec, out):
            results[i] = stats
        if profile is not None:
            ep = group._prof["episode_tails"]
            wk = group._prof["scalar_walks"]
            for key, val in (
                ("arena_build", build),
                ("step_loop", run_time - ep - wk),
                ("episode_tails", ep),
                ("scalar_walks", wk),
            ):
                profile[key] = profile.get(key, 0.0) + val
        if gang_stats is not None:
            for key, val in (
                ("gangs", group.gang_count),
                ("ganged_lanes", group.gang_lanes),
                ("singleton_lanes", group.gang_singletons),
                ("max_gang", group.gang_max),
                ("pred_states", group.pred_states),
                ("max_pred_states", group.max_pred_states),
            ):
                if key.startswith("max_"):
                    gang_stats[key] = max(gang_stats.get(key, 0), val)
                else:
                    gang_stats[key] = gang_stats.get(key, 0) + val
    if profile is not None:
        profile["scalar_fallback"] = (
            profile.get("scalar_fallback", 0.0) + fb_time
        )
    return results  # type: ignore[return-value]


def _cat(tables, name: str, offsets=None) -> List[int]:
    """The ``name`` lists of ``tables`` concatenated.  With ``offsets``,
    each table's entries that are ids (``>= 0``) move by its offset into
    the group's id space, and ``-1`` stays ``-1``."""
    if offsets is None:
        return [v for t in tables for v in getattr(t, name)]
    return [
        v + off if v >= 0 else -1
        for t, off in zip(tables, offsets) for v in getattr(t, name)
    ]


class _Group:
    """All vector-eligible cells, advanced in lockstep."""

    def __init__(self, cells: List[BatchCell],
                 arenas: Dict[int, ProgramArena]) -> None:
        self.cells = cells
        n = len(cells)
        self.n = n
        i8 = np.int64

        # -- shared static tables, concatenated across programs/traces.
        # Each trace table's spans append its macro blocks to the
        # program's lists, so every trace is built before block offsets
        # are assigned.  Programs and traces keep first-use order.
        programs: Dict[int, ProgramArena] = {}
        traces: Dict[tuple, TraceArena] = {}
        tprog: List[int] = []  # program key of each trace table
        cell_trace: List[tuple] = []
        for cell in cells:
            pkey = id(cell.program)
            pa = programs.setdefault(pkey, arenas[pkey])
            warm = tuple(cell.warm_words) if cell.warm_words else ()
            tkey = (pkey, id(cell.trace), warm)
            if tkey not in traces:
                ta = traces[tkey] = TraceArena(pa, cell.trace, warm)
                # Horizon spans over the quiet runs; new macros join pa.
                ta.SPANBLK, ta.SPANLAST = trace_spans(pa, ta.RBLK, ta.REXTRA)
                tprog.append(pkey)
            cell_trace.append(tkey)
        plist = list(programs.values())
        tlist = list(traces.values())

        # Block offsets per program, record/load/node offsets per trace.
        boff: Dict[int, int] = {}
        nblk = 0
        for pkey, pa in programs.items():
            boff[pkey] = nblk
            nblk += len(pa.ROWS)
        tboffs = [boff[pkey] for pkey in tprog]
        troffs, tloffs, tnoffs = [], [], []
        roff: Dict[tuple, int] = {}
        nrec = nload = nnode = 0
        for tkey, ta in traces.items():
            roff[tkey] = nrec
            troffs.append(nrec)
            tloffs.append(nload)
            tnoffs.append(nnode)
            nrec += len(ta.RBLK)
            nload += len(ta.LLAT)
            nnode += len(ta.NODEPAR)

        # Block tables.  Python lists serve the scalar code (the row
        # tail, wrong-path walks and dpred episodes): list indexing is
        # ~5x cheaper than numpy scalar extraction, and those are the
        # only per-cell (rather than per-step) costs the engine has.
        self.pROWS = _cat(plist, "ROWS")
        self.pNROWS = _cat(plist, "NROWS")
        self.pFPC = _cat(plist, "FPC")
        self.pTERM = _cat(plist, "TERM")
        self.pSITE = _cat(plist, "SITE")
        self.pRECONV = _cat(plist, "RECONV")
        pBRPC = _cat(plist, "BRPC")
        offs = list(boff.values())
        self.pTAKEN = _cat(plist, "TAKEN", offs)
        self.pFALL = _cat(plist, "FALL", offs)
        self.pTARGET = _cat(plist, "TARGET", offs)
        self.pCALLEE = _cat(plist, "CALLEE", offs)
        isbr = [t == TERM_BR for t in self.pTERM]
        self.pNBODY = [nr - br for nr, br in zip(self.pNROWS, isbr)]
        # Perceptron and JRS PC indices of each block's branch, and the
        # branch row's latency and sources.
        self.pPCT = [(pc >> 2) % _NPERC if pc >= 0 else 0 for pc in pBRPC]
        self.pJPC = [pc >> 2 if pc >= 0 else 0 for pc in pBRPC]
        self.pBRLAT = [
            rows[-1][1] if br else 0 for rows, br in zip(self.pROWS, isbr)
        ]
        self.pBRSRC = [
            rows[-1][4] if br else () for rows, br in zip(self.pROWS, isbr)
        ]
        # Registers a block renames (for the episodes' select-uop set:
        # one update per block instead of one set.add per row).
        self.pDESTS = [
            tuple({r[3] for r in rows if r[3] >= 0}) for rows in self.pROWS
        ]

        # Record, load and call-node tables.
        self.pRECBLK = _cat(tlist, "RBLK", tboffs)
        self.pREXTRA = _cat(tlist, "REXTRA")
        self.pRTAKEN = _cat(tlist, "RTAKEN")
        self.pRL0 = _cat(tlist, "RL0", tloffs)
        self.pRS0 = _cat(tlist, "RS0")
        self.pRUNDER = _cat(tlist, "RUNDER")
        self.pRNODE = _cat(tlist, "RNODE", tnoffs)
        self.pRFPC = [self.pFPC[b] for b in self.pRECBLK]
        self.pLLAT = _cat(tlist, "LLAT")
        self.pLFWD = _cat(tlist, "LFWD")
        self.pNODEPAR = _cat(tlist, "NODEPAR", tnoffs)
        self.pNODERET = _cat(tlist, "NODERET", tboffs)

        # -- per-cell configuration
        cfg = [c.config for c in cells]
        self.pwidth = [c.fetch_width for c in cfg]
        self.phalfw = [max(1, w // 2) for w in self.pwidth]
        self.pmaxb = [c.max_branches_per_cycle for c in cfg]
        self.pdepth = [c.pipeline_depth for c in cfg]
        self.prw = [c.retire_width for c in cfg]
        self.prob = [c.rob_size for c in cfg]
        self.pplimit = [c.dpred_path_limit for c in cfg]
        self.pghrpred = [c.dpred_ghr_policy == "predicted" for c in cfg]
        self.ptgid = [roff[tkey] for tkey in cell_trace]
        self.prends = [
            roff[tkey] + len(traces[tkey].RBLK) for tkey in cell_trace
        ]
        ispred = [c.mode in ("dmp", "dhp") for c in cfg]
        self.anydp = any(ispred)

        # 4-byte timing lanes.  One instruction can push the fetch
        # cycle forward by at most depth + max-latency + 2, so a loose
        # per-cell bound on the final cycle is records * rows * that;
        # when it clears int32 (any realistic trace does, by orders of
        # magnitude) the timing state and latency tables are 4 bytes,
        # halving the memory traffic of the per-row vector work — which
        # is where the engine spends its time at scale.  Index/identity
        # arrays (cursors, ring indices, ghr) stay int64.
        maxlat = max(
            max(self.pLLAT, default=0),
            max((r[1] for rows in self.pROWS for r in rows), default=0),
        )
        step = max(self.pdepth) + maxlat + 2
        # The raw L, not the macro-extended one: a span macro's rows
        # cover as many records as the span merged, so per *record* the
        # raw maximum still bounds the advance (and the final cycle is
        # unchanged by construction).
        rawL = max(pa.L for pa in plist)
        bound = max(len(ta.RBLK) for ta in tlist) * (
            (rawL + 2) * step + max(self.pREXTRA, default=0)
            + max(self.pRUNDER, default=0) * step + 2
        )
        if self.anydp:
            # A dpred episode can overshoot its record's own accounting
            # by at most one more block + redirect tail before the
            # resolution check stops the path: double the slack.
            bound *= 2
        tdt = np.int32 if 0 < bound < 2**31 - 2 else i8

        # -- numpy tables the vector step reads, each built once.
        L = max(self.pNROWS)
        K = max(pa.K for pa in plist)
        self.K = K
        self.NBODY = np.asarray(self.pNBODY, i8)
        self.TERM = np.asarray(self.pTERM, i8)
        self.SITE = np.asarray(self.pSITE, i8)
        self.PCT = np.asarray(self.pPCT, i8)
        self.JPC = np.asarray(self.pJPC, i8)
        self.BRLAT = np.asarray(self.pBRLAT, tdt)
        # Padded decode tables, one pass over the rows: a row without a
        # destination writes the junk column JREG, an empty source slot
        # reads ZREG (always 0).  Decode values are register names or
        # opcode kinds (<= 33): 1-byte lanes quarter the gather traffic
        # of the per-row loop.
        pad = [(ZREG,) * (K - j) for j in range(K + 1)]
        self.BRSRC = np.array(
            [s + pad[len(s)] for s in self.pBRSRC], np.int8
        ).reshape(nblk, K)
        self.RKIND = np.zeros((nblk, L), np.int8)
        self.RLAT = np.zeros((nblk, L), tdt)
        self.RDEST = np.full((nblk, L), JREG, np.int8)
        self.RSRC = np.full((nblk, L, K), ZREG, np.int8)
        self.RLORD = np.full((nblk, L), -1, i8)
        self.RSTORD = np.full((nblk, L), -1, i8)
        for gb, rows in enumerate(self.pROWS):
            if not rows:
                continue
            nr = len(rows)
            kinds, lats, _lat1, dests, srcs, lords, stords = zip(*rows)
            self.RKIND[gb, :nr] = kinds
            self.RLAT[gb, :nr] = lats
            self.RDEST[gb, :nr] = [JREG if d < 0 else d for d in dests]
            self.RSRC[gb, :nr] = [s + pad[len(s)] for s in srcs]
            self.RLORD[gb, :nr] = lords
            self.RSTORD[gb, :nr] = stords
        # Per-(block, row) presence bits — src slot j occupied -> bit j,
        # load -> bit K, store -> bit K+1.  The step loop ORs these over
        # the active lanes in one reduction instead of scanning each
        # gathered decode column per row (pads are KIND_ALU/ZREG, so a
        # padding row contributes no bits).
        pres = np.zeros((nblk, L), i8)
        for j in range(K):
            pres |= (self.RSRC[:, :, j] != ZREG).astype(i8) << j
        pres |= (self.RKIND == KIND_LOAD).astype(i8) << K
        pres |= (self.RKIND == KIND_STORE).astype(i8) << (K + 1)
        self.PRES = pres
        # Horizon span lookup: the block to *fetch* at each record (the
        # record's own, or a span macro covering a quiet run), and the
        # record index where that fetch lands the cursor.
        self.SPANBLK = np.asarray(_cat(tlist, "SPANBLK", tboffs), i8)
        self.SPANLAST = np.asarray(_cat(tlist, "SPANLAST", troffs), i8)
        self.REXTRA = np.asarray(self.pREXTRA, tdt)
        self.RTAKEN = np.asarray(self.pRTAKEN, i8)
        self.RSEQ0 = np.asarray(_cat(tlist, "RSEQ0"), i8)
        self.RL0 = np.asarray(self.pRL0, i8)
        self.RS0 = np.asarray(self.pRS0, i8)
        self.RUNDER = np.asarray(self.pRUNDER, tdt)
        self.LLAT = np.asarray(self.pLLAT, tdt)
        self.LFWD = np.asarray(self.pLFWD, i8)

        self.width = np.array(self.pwidth, tdt)
        self.halfw = np.array(self.phalfw, tdt)
        self.maxb = np.array(self.pmaxb, tdt)
        self.depth = np.array(self.pdepth, tdt)
        self.rw = np.array(self.prw, tdt)
        self.rob = np.array(self.prob, i8)
        self.isdual = np.array([c.mode == "dualpath" for c in cfg], bool)
        self.thresh = np.array(
            [make_estimator("jrs", **c.confidence_args).threshold
             for c in cfg], i8
        )
        self.rends = np.array(self.prends, i8)

        # -- mutable per-cell state
        maxrob = max(self.prob)
        self.maxrob = maxrob
        maxstores = max(ta.nstores for ta in tlist)
        self.sjunk = maxstores
        self.cycle = np.zeros(n, tdt)
        self.slots = self.width.copy()
        self.branches = self.maxb.copy()
        self.dual = np.full(n, -1, tdt)
        self.last = np.zeros(n, tdt)
        self.cnt = np.zeros(n, tdt)
        self.ghr = np.zeros(n, i8)
        self.cursor = np.array(self.ptgid, i8)
        self.state = np.where(
            self.cursor < self.rends, _TRACE, _DONE
        ).astype(i8)
        self.RR = np.zeros((n, JREG + 1), tdt)
        self.RING = np.zeros((n, maxrob + 1), tdt)
        self.SREADY = np.zeros((n, maxstores + 1), tdt)
        # Predicated-store state (dmp/dhp episodes only): the cycle each
        # store's guarding predicate resolves, by global store ordinal.
        # 0 is the "not predicated / resolved" sentinel — real episode
        # resolutions are always > 0 — so the vector load rule
        # ``base >= pready ? forward : wait`` degenerates to the plain
        # forward for every main-path store.
        self.SPREADYP = np.zeros((n, maxstores + 1), tdt)
        self.spid: List[Dict[int, int]] = [{} for _ in range(n)]
        self.pcnt = [0] * n
        nsites = max(pa.nsites for pa in plist)
        self.sitejunk = nsites
        # stats counters
        self.FC = np.zeros(n, i8)
        self.EX = np.zeros(n, i8)
        self.RB = np.zeros(n, i8)
        self.MP = np.zeros(n, i8)
        self.FL = np.zeros(n, i8)
        self.CD = np.zeros(n, i8)
        self.CI = np.zeros(n, i8)
        self.FORKS = np.zeros(n, i8)
        # dmp/dhp episode counters (all zero for other modes).
        self.DPE = np.zeros(n, i8)
        self.XU = np.zeros(n, i8)
        self.SU = np.zeros(n, i8)
        self.PF = np.zeros(n, i8)
        self.LW = np.zeros(n, i8)
        self.EC = np.zeros((n, 7), i8)  # Table 1 exit cases, keys 1..6

        # Ring reads within one step are static (no row this step can
        # rewrite a slot a later row reads) whenever the step's row
        # count fits the smallest ROB — a per-step test in _trace_step
        # against this bound, so one rare long block (or a span macro)
        # can't push every step onto the masked per-row path.
        self.rob_min = min(self.prob)
        # Cells sharing a trace table share its record offset
        # (``ptgid``); that offset keys the per-step structural walk
        # cache (_WalkPath).
        self._walk_cache: Dict[tuple, _WalkPath] = {}
        # Weight-divergence epochs.  Cells over one trace keep identical
        # predictor state (weights, GHR, JRS, BTB seen-bits) until a
        # dpred episode's *outcome* first differs between them —
        # training inputs are trace-determined, and an episode's
        # training is pinned by its inputs plus (exit case,
        # continuation, outgoing GHR).  Each episode therefore chains an
        # interned signature into the cell's epoch; equal (trace, epoch)
        # means bit-equal predictor state.
        self.pepoch = [0] * n
        self._episigs: Dict[tuple, int] = {}
        # So W, JRS and BTBSEEN hold one predictor-state row per live
        # (trace, epoch), and each cell holds its row index (``srow``
        # for the vector gathers, ``psrow`` for the scalar code).  Every
        # cell of a trace starts on that trace's row; _enter_epoch moves
        # a cell on and frees a row no cell points at.  A new row is
        # built while its first cell still holds the parent row, so
        # n + 1 rows always suffice, and rows never used stay untouched
        # zero pages.
        first = {tg: r for r, tg in enumerate(sorted(set(self.ptgid)))}
        self.psrow = [first[tg] for tg in self.ptgid]
        self.srow = np.array(self.psrow, i8)
        self._srowof = {(tg, 0): r for tg, r in first.items()}
        self._srefs = [0] * (n + 1)
        for row in self.psrow:
            self._srefs[row] += 1
        self._sfree = list(range(n, len(first) - 1, -1))
        self.pred_states = self.max_pred_states = len(first)
        self.W = np.zeros((n + 1, _NPERC, _HBITS + 1), np.int16)
        self.JRS = np.zeros((n + 1, _JTAB), np.int16)
        self.BTBSEEN = np.zeros((n + 1, nsites + 1), bool)
        # Ganged-episode accounting (see repro.uarch.batch.gang).
        self.gang_count = 0
        self.gang_lanes = 0
        self.gang_singletons = 0
        self.gang_max = 0
        self._run_gangs = None
        # Wall-time phase attribution for ``run_batch(profile=...)``:
        # the scalar-tail sections are timed in place (two clock reads
        # per resolution step at most), the step loop by subtraction.
        self._prof = {"episode_tails": 0.0, "scalar_walks": 0.0}
        # The step loop allocates and frees (rows x lanes) numpy
        # temporaries every step.  glibc maps blocks above its mmap
        # threshold (128 KiB at start) afresh and hands freed heap tops
        # back to the OS, which faults them in again on every step (76k
        # minor faults in a seed-0 dmp-sweep run, 7-16% of its run
        # time).  Freeing one mapped block raises the threshold to its
        # size, and the trim threshold to twice that, so the temporaries
        # stay on the heap.  Elsewhere this is one allocation whose
        # pages are never touched.
        np.empty(4 * L * n, i8)

        # -- dynamic-predication static tables (dmp/dhp cells only).
        # ``HASH[ci, gb]`` marks the diverge branches cell ``ci`` may
        # predicate: block ``gb`` ends in a conditional branch whose PC
        # has a non-loop entry in the cell's hint table (the scalar
        # ``_maybe_enter_dpred`` hash lookup, hoisted to init time).
        # ``cfms[ci][gb]`` is the episode's CFM-CAM content for that
        # branch.  The range includes the program's span macros: one
        # ending in a hinted diverge branch enters episodes exactly like
        # its final raw block (its branch PC *is* that block's).
        self.HASH = np.zeros((n, max(nblk, 1)), bool)
        self.cfms: List[Dict[int, tuple]] = [{} for _ in range(n)]
        for ci, cell in enumerate(cells):
            if not ispred[ci] or cell.hints is None:
                continue
            b0 = boff[id(cell.program)]
            for gb in range(b0, b0 + len(arenas[id(cell.program)].ROWS)):
                if not isbr[gb]:
                    continue
                hint = cell.hints.get(pBRPC[gb])
                if hint is None or hint.is_loop:
                    continue  # loop hints are scalar-only (envelope)
                self.HASH[ci, gb] = True
                if cfg[ci].multiple_cfm:
                    self.cfms[ci][gb] = tuple(hint.cfm_pcs)[:8]
                else:
                    self.cfms[ci][gb] = (hint.primary_cfm,)

    # ------------------------------------------------------------------
    # Driver
    # ------------------------------------------------------------------

    def run(self) -> List[SimStats]:
        state = self.state
        while True:
            vc = np.nonzero(state == _TRACE)[0]
            if not vc.size:
                break
            self._trace_step(vc)
        return self._finalize()

    def _finalize(self) -> List[SimStats]:
        cycles = np.maximum(self.last, self.cycle)
        out = []
        for ci, cell in enumerate(self.cells):
            stats = SimStats(
                benchmark=cell.benchmark or cell.trace.program_name,
                config_description=cell.config.describe(),
            )
            stats.cycles = int(cycles[ci])
            stats.retired_instructions = cell.trace.instruction_count
            stats.retired_branches = int(self.RB[ci])
            stats.mispredictions = int(self.MP[ci])
            stats.pipeline_flushes = int(self.FL[ci])
            stats.fetched_correct = int(self.FC[ci])
            stats.fetched_wrong_cd = int(self.CD[ci])
            stats.fetched_wrong_ci = int(self.CI[ci])
            stats.executed_instructions = int(self.EX[ci])
            stats.dualpath_forks = int(self.FORKS[ci])
            stats.dpred_entries = int(self.DPE[ci])
            stats.extra_uops = int(self.XU[ci])
            stats.select_uops = int(self.SU[ci])
            stats.predicated_false_instructions = int(self.PF[ci])
            stats.load_wait_on_predicate = int(self.LW[ci])
            ec = self.EC[ci]
            for case in range(1, 7):
                if ec[case]:
                    stats.exit_cases[case] += int(ec[case])
            out.append(stats)
        return out

    # ------------------------------------------------------------------
    # TRACE step: one record per cell
    # ------------------------------------------------------------------

    def _trace_step(self, vc: np.ndarray) -> None:
        cur = self.cursor[vc]
        # Horizon skip-ahead: fetch the span block covering the quiet
        # run starting at the cursor (the record's own block outside any
        # span).  All row-position state below (seq0, load/store bases,
        # icache stall) belongs to the span *start*; everything about
        # the terminator (taken bit, RAS underflow, call node, cursor
        # advance) belongs to the span *end* record ``cure``.
        b = self.SPANBLK[cur]
        cure = self.SPANLAST[cur]
        k = self.NBODY[b]
        # Sort lanes by body length: every per-row op below then runs on
        # exactly the suffix of lanes whose record still has row i, so
        # the loop performs sum(k) lane-row updates instead of kmax * m
        # masked ones (mixed traces make kmax ~3x the mean k), and no
        # activity masks or junk scatter columns are needed at all.
        if vc.size > 1:
            order = np.argsort(k, kind="stable")
            vc = vc[order]
            cur = cur[order]
            cure = cure[order]
            b = b[order]
            k = k[order]
        extra = self.REXTRA[cur]
        c = self.cycle[vc]
        s = self.slots[vc]
        bl = self.branches[vc]
        d = self.dual[vc]
        w = self.width[vc]
        hw = self.halfw[vc]
        mb = self.maxb[vc]
        dep = self.depth[vc]
        rob = self.rob[vc]
        rw = self.rw[vc]
        last = self.last[vc]
        cnt = self.cnt[vc]
        seq0 = self.RSEQ0[cur]
        isbr = self.TERM[b] == TERM_BR

        # Inlined _advance_fetch_cycle(cycle + extra) for the icache
        # stall (extra >= 10 when it fires, so max(cycle+1, ...) is it).
        icadv = extra > 0
        c = np.where(icadv, c + extra, c)
        s = np.where(icadv, np.where(c <= d, hw, w), s)
        bl = np.where(icadv, mb, bl)

        # -- body rows: the reference's inlined per-row sequence, with
        # lane-suffix views in place of branches.  All rows at position
        # i across the cells that have one advance together; the ring
        # reads this record makes were written >= rob_size instructions
        # ago whenever every ROB is at least one block deep
        # (ring_static), so no occupancy test is needed — unwritten
        # slots hold 0 and cycles are never negative.
        kmax = int(k[-1]) if k.size else 0
        any_dual = bool((d >= 0).any())
        m = vc.size
        i0 = kmax
        if kmax:
            pos = np.searchsorted(
                k, np.arange(kmax, dtype=np.int64), side="right"
            ).tolist()
            # Scalar row tail: past row i0 the active-lane suffix is so
            # narrow that numpy dispatch costs more than plain python.
            # Long blocks are rare but their rows dominate the loop's
            # iteration count, so the few lanes still fetching past i0
            # finish their block scalar — the same inlined per-row
            # sequence on ints, bit for bit.
            while i0 > 0 and m - pos[i0 - 1] <= _TAIL_LANES:
                i0 -= 1
        if i0:
            rob_live = int((seq0 + k).max()) >= int(rob.min())
            ring_static = kmax <= self.rob_min
            l0 = self.RL0[cur]
            st0 = self.RS0[cur]
            # One fancy gather per static table; the loop reads column
            # views.  Row-presence flags over the full column equal the
            # active-suffix flags because the table pads (KIND_ALU,
            # ZREG) can never flag a lane.
            rows = np.arange(i0, dtype=np.int64)
            if rob_live:
                seq_mod = (seq0[None, :] + rows[:, None]) % rob[None, :]
            else:
                seq_mod = seq0[None, :] + rows[:, None]
            # Ring-read strategy under the static window: one
            # rectangular pre-gather amortizes call overhead at narrow
            # widths, but wastes element work at wide ones (i0 * m can
            # run ~5x the true suffix sum when row counts are skewed),
            # so wide steps gather each row's live suffix lazily.
            ringm = None
            if rob_live and ring_static and m <= _RING_PREGATHER:
                ringm = self.RING[vc[None, :], seq_mod]
            RKb = self.RKIND[b, :i0]
            RLb = self.RLAT[b, :i0]
            RDb = self.RDEST[b, :i0]
            Sb = self.RSRC[b, :i0]
            presrow = np.bitwise_or.reduce(
                self.PRES[b, :i0], axis=0
            ).tolist()
            ldbit = 1 << self.K
            stbit = ldbit << 1
            if any(pr & ldbit for pr in presrow):
                LOb = self.RLORD[b, :i0]
            if any(pr & stbit for pr in presrow):
                STOb = self.RSTORD[b, :i0]
        for i in range(i0):
            p = pos[i]
            cv = c[p:]
            sv = s[p:]
            blv = bl[p:]
            dv = d[p:]
            wv = w[p:]
            hwv = hw[p:]
            mbv = mb[p:]
            vcv = vc[p:]
            if rob_live:
                if ringm is not None:
                    ring = ringm[i, p:]
                elif ring_static:
                    # No occupancy mask needed: below the static bound
                    # an unoccupied slot can have had no same-step
                    # writer, still holds its initial 0, and 0 can
                    # never stall a non-negative cycle.
                    ring = self.RING[vcv, seq_mod[i, p:]]
                else:
                    occ = seq0[p:] + i >= rob[p:]
                    ring = np.where(
                        occ, self.RING[vcv, seq_mod[i, p:]], 0
                    )
                stall = cv < ring
                if stall.any():
                    np.copyto(cv, ring, where=stall)
                    if any_dual:
                        np.copyto(
                            sv, np.where(cv <= dv, hwv, wv), where=stall
                        )
                    else:
                        np.copyto(sv, wv, where=stall)
                    np.copyto(blv, mbv, where=stall)
            nos = sv <= 0
            cv += nos
            if any_dual:
                np.copyto(sv, np.where(cv <= dv, hwv, wv), where=nos)
            else:
                np.copyto(sv, wv, where=nos)
            np.copyto(blv, mbv, where=nos)
            sv -= 1
            ready = None
            pres = presrow[i]
            for j in range(self.K):
                if pres >> j & 1:
                    r = self.RR[vcv, Sb[p:, i, j]]
                    if ready is None:
                        ready = r
                    else:
                        np.maximum(ready, r, out=ready)
            if ready is None:
                base = cv + dep[p:]
            else:
                base = np.maximum(ready, cv + dep[p:], out=ready)
            comp = base + RLb[p:, i]
            if pres & ldbit:
                isld = RKb[p:, i] == KIND_LOAD
                lidx = l0[p:] + LOb[p:, i]
                fwd = self.LFWD[lidx]
                hasf = fwd >= 0
                fcol = np.where(hasf, fwd, self.sjunk)
                sready = self.SREADY[vcv, fcol]
                fcomp = np.maximum(base, sready) + 1
                if self.anydp:
                    # Forwarding from a store whose guarding predicate
                    # is still unresolved at fetch waits for it instead
                    # (main-path loads carry no predicate, so the
                    # pid-match forward can never apply here).
                    pready = self.SPREADYP[vcv, fcol]
                    wait = isld & hasf & (base < pready)
                    if wait.any():
                        np.copyto(fcomp, pready + 2, where=base < pready)
                        self.LW[vcv[wait]] += 1
                comp = np.where(
                    isld,
                    np.where(hasf, fcomp, base + self.LLAT[lidx]),
                    comp,
                )
            if pres & stbit:
                isst = RKb[p:, i] == KIND_STORE
                np.copyto(comp, base + 1, where=isst)
                scol = np.where(isst, st0[p:] + STOb[p:, i], self.sjunk)
                self.SREADY[vcv, scol] = comp
            self.RR[vcv, RDb[p:, i]] = comp
            # _retire, vectorized over the active suffix.
            lastv = last[p:]
            cntv = cnt[p:]
            # rc = max(comp+1, last), bumped a cycle when it lands on
            # last with the retire port full (cnt >= rw) — folding the
            # bump into the max's second operand is the same function.
            comp += 1
            rc = np.maximum(comp, lastv + (cntv >= rw[p:]), out=comp)
            adv = rc > lastv
            cntv += 1
            np.copyto(cntv, 1, where=adv)
            np.copyto(lastv, rc)
            self.RING[vcv, seq_mod[i, p:]] = rc
        if i0 < kmax:
            anydp = self.anydp
            pLFWD = self.pLFWD
            pLLAT = self.pLLAT
            pRL0 = self.pRL0
            pRS0 = self.pRS0
            SREADY = self.SREADY
            SPREADYP = self.SPREADYP if anydp else None
            pROWS = self.pROWS
            for t in range(pos[i0], m):
                ci = int(vc[t])
                curt = int(cur[t])
                rr = self.RR[ci].tolist()
                cyc, sl, blv, lastt, cntt, lwc = _tail_rows(
                    pROWS[int(b[t])], i0, int(k[t]), pRL0[curt],
                    pRS0[curt], int(c[t]), int(s[t]),
                    int(bl[t]), int(d[t]), int(w[t]), int(hw[t]),
                    int(mb[t]), int(dep[t]), int(rob[t]), int(rw[t]),
                    int(last[t]), int(cnt[t]), int(seq0[t]) + i0,
                    rr, self.RING[ci], SREADY[ci],
                    SPREADYP[ci] if anydp else None, pLFWD, pLLAT,
                )
                self.RR[ci] = rr
                if lwc:
                    self.LW[ci] += lwc
                c[t] = cyc
                s[t] = sl
                bl[t] = blv
                last[t] = lastt
                cnt[t] = cntt
        self.FC[vc] += k
        self.EX[vc] += k

        nonbr = ~isbr
        if nonbr.any():
            m = nonbr
            self._vector_transfer(
                vc[m], cure[m], b[m], c[m], s[m], bl[m], d[m], w[m],
                hw[m], mb[m], dep[m],
            )
            self.last[vc[m]] = last[m]
            self.cnt[vc[m]] = cnt[m]
        if isbr.any():
            m = isbr
            self._vector_branch(
                vc[m], cure[m], b[m], c[m], s[m], bl[m], d[m], w[m],
                hw[m], mb[m], dep[m], seq0[m] + k[m], rob[m], last[m],
                cnt[m], rw[m],
            )

    def _vector_transfer(self, vc, cur, b, c1, s1, b1, d, w, hw, mb, dep):
        """JMP/CALL/RET/NONE terminators for non-branch records."""
        term = self.TERM[b]
        isjc = (term == TERM_JMP) | (term == TERM_CALL)
        nadv = np.zeros(vc.size, self.width.dtype)
        if isjc.any():
            sr = self.srow[vc]
            sitecol = np.where(isjc, self.SITE[b], self.sitejunk)
            seen = self.BTBSEEN[sr, sitecol]
            # Fetch stops at the transfer, plus a bubble on a BTB miss.
            nadv = np.where(isjc, 1 + ~seen, 0)
            self.BTBSEEN[sr, sitecol] = True
        isrt = term == TERM_RET
        if isrt.any():
            # RAS underflow: advance(), then advance(cycle + depth) —
            # 1 + max(depth, 1) cycles in total.
            nadv = np.where(
                isrt, 1 + self.RUNDER[cur] * np.maximum(dep, 1), nadv
            )
        c2 = c1 + nadv
        moved = nadv > 0
        s2 = np.where(moved, np.where(c2 <= d, hw, w), s1)
        b2 = np.where(moved, mb, b1)
        self.cycle[vc] = c2
        self.slots[vc] = s2
        self.branches[vc] = b2
        self._advance_cursor(vc, cur)

    def _advance_cursor(self, vc, cur) -> None:
        nxt = cur + 1
        self.cursor[vc] = nxt
        self.state[vc] = np.where(nxt >= self.rends[vc], _DONE, _TRACE)

    def _enter_epoch(self, ci: int, epoch: int) -> Tuple[int, bool]:
        """Point cell ``ci`` at the predictor-state row of its trace's
        ``epoch``.  Returns ``(row, new)``: the first cell to reach an
        epoch takes a free row holding a copy of its previous one, which
        the caller brings up to date (later cells just point at it).  A
        row no cell points at any more is freed at once."""
        old = self.psrow[ci]
        tg = self.ptgid[ci]
        row = self._srowof.get((tg, epoch))
        new = row is None
        if new:
            row = self._srowof[(tg, epoch)] = self._sfree.pop()
            self.W[row] = self.W[old]
            self.JRS[row] = self.JRS[old]
            self.BTBSEEN[row] = self.BTBSEEN[old]
            self.pred_states += 1
        self._srefs[row] += 1
        self._srefs[old] -= 1
        if not self._srefs[old]:
            del self._srowof[(tg, self.pepoch[ci])]
            self._sfree.append(old)
        self.psrow[ci] = row
        self.srow[ci] = row
        self.pepoch[ci] = epoch
        if len(self._srowof) > self.max_pred_states:
            self.max_pred_states = len(self._srowof)
        return row, new

    def _predict(self, sr, idx, ghr):
        """Vector perceptron dot product over predictor-state rows
        ``sr``; returns (output, taken)."""
        rows = self.W[sr, idx].astype(np.int64)
        bits = (ghr[:, None] >> np.arange(_HBITS)[None, :]) & 1
        x = 2 * bits - 1
        out = rows[:, 0] + (rows[:, 1:] * x).sum(axis=1)
        return out, out >= 0

    def _train(self, sr, idx, snap, out, pred, actual):
        """Vector perceptron train + clip (misp or weak output only).
        Cells sharing a row train it identically, so their duplicate
        scatters write equal values."""
        need = (pred != actual) | (np.abs(out) <= _THETA)
        if not need.any():
            return
        tc, ti = sr[need], idx[need]
        t = np.where(actual[need], 1, -1).astype(np.int16)
        rows = self.W[tc, ti]
        rows[:, 0] = np.clip(
            rows[:, 0].astype(np.int64) + t, _WMIN, _WMAX
        ).astype(np.int16)
        bits = (snap[need, None] >> np.arange(_HBITS)[None, :]) & 1
        delta = np.where(bits == 1, t[:, None], -t[:, None])
        rows[:, 1:] = np.clip(
            rows[:, 1:].astype(np.int64) + delta, _WMIN, _WMAX
        ).astype(np.int16)
        self.W[tc, ti] = rows

    def _vector_branch(self, vc, cur, b, c1, s1, b1, d, w, hw, mb, dep,
                       seqb, rob, last, cnt, rw):
        """The conditional-branch terminator: predict, fetch, resolve,
        train — vectorized; mispredictions and forks finish per cell."""
        # _fetch_slot(True): the ROB-window check first...
        occ = seqb >= rob
        if occ.any():
            ring = self.RING[vc, np.where(occ, seqb % rob, self.maxrob)]
            stall = occ & (c1 < ring)
            if stall.any():
                c1 = np.where(stall, ring, c1)
                s1 = np.where(stall, np.where(c1 <= d, hw, w), s1)
                b1 = np.where(stall, mb, b1)
        # ...then the slot / branch-budget advance.
        need = (s1 <= 0) | (b1 <= 0)
        fetchc = c1 + need
        sbr = np.where(need, np.where(fetchc <= d, hw, w), s1) - 1
        bbr = np.where(need, mb, b1) - 1
        self.FC[vc] += 1

        snap = self.ghr[vc]
        idx = self.PCT[b]
        sr = self.srow[vc]
        out, pred = self._predict(sr, idx, snap)

        ready = self.RR[vc, self.BRSRC[b, 0]]
        for j in range(1, self.K):
            ready = np.maximum(ready, self.RR[vc, self.BRSRC[b, j]])
        base = np.maximum(fetchc + dep, ready)
        res = base + self.BRLAT[b]

        # Retire the branch row.
        rc = np.maximum(res + 1, last)
        rc = rc + ((rc == last) & (cnt >= rw))
        cnt = np.where(rc > last, 1, cnt + 1)
        last = rc
        self.RING[vc, seqb % rob] = rc
        self.last[vc] = last
        self.cnt[vc] = cnt
        self.EX[vc] += 1
        self.RB[vc] += 1

        ghr_new = ((snap << 1) | pred) & _M31
        jidx = (self.JPC[b] ^ (snap & _JHMASK)) & (_JTAB - 1)
        conf = self.JRS[sr, jidx] >= self.thresh[vc]
        actual = self.RTAKEN[cur].astype(bool)
        misp = pred != actual
        self._train(sr, idx, snap, out, pred, actual)
        jv = self.JRS[sr, jidx]
        self.JRS[sr, jidx] = np.where(
            misp, 0, np.minimum(jv + 1, _JMAX)
        ).astype(np.int16)

        fork = (
            self.isdual[vc] & ~conf & (fetchc > d)
            & (np.abs(out) <= _THETA // 4)
        )
        site = self.SITE[b]
        # Every cell reads its row's seen bit from before this step: a
        # peer sharing the row may set it below, ahead of this cell's
        # fork epilogue or episode.
        seen = self.BTBSEEN[sr, site]
        if self.anydp:
            # Dpred entry: a hinted (non-loop) diverge branch with a
            # low-confidence prediction.  The scalar flow reads the JRS
            # *before* training it, exactly as `conf` above was read.
            dpe = self.HASH[vc, b] & ~conf
            inline = (fork | misp) & ~dpe
        else:
            dpe = None
            inline = fork | misp

        ok = ~inline if dpe is None else ~(inline | dpe)
        if ok.any():
            oc = vc[ok]
            taken = pred[ok]
            nadv = np.zeros(oc.size, self.width.dtype)
            if taken.any():
                sitecol = np.where(taken, site[ok], self.sitejunk)
                nadv = np.where(taken, 1 + ~seen[ok], 0)
                self.BTBSEEN[sr[ok], sitecol] = True
            c2 = fetchc[ok] + nadv
            moved = nadv > 0
            self.cycle[oc] = c2
            self.slots[oc] = np.where(
                moved, np.where(c2 <= d[ok], hw[ok], w[ok]), sbr[ok]
            )
            self.branches[oc] = np.where(moved, mb[ok], bbr[ok])
            self.ghr[oc] = ghr_new[ok]
            self._advance_cursor(oc, cur[ok])

        if inline.any():
            # Mispredictions and dual-path forks walk the wrong path
            # synchronously per cell (exact scalar transcription).  The
            # structural-walk cache holds for exactly one resolution
            # step: _train just ran, so the weights it snapshots stay
            # untouched until the next _vector_branch call.
            self._walk_cache.clear()
            t0 = perf_counter()
            sel = np.nonzero(inline)[0]
            ic = vc[sel]
            outs = [
                self._branch_epilogue(*args)
                for args in zip(
                    ic.tolist(), cur[sel].tolist(), b[sel].tolist(),
                    fetchc[sel].tolist(), sbr[sel].tolist(),
                    bbr[sel].tolist(), res[sel].tolist(),
                    snap[sel].tolist(), pred[sel].tolist(),
                    actual[sel].tolist(), fork[sel].tolist(),
                    site[sel].tolist(), seen[sel].tolist(),
                    self.dual[ic].tolist(),
                )
            ]
            c2, s2, b2, g2, d2, mp, fl, fk, cd, cik = zip(*outs)
            self.cycle[ic] = c2
            self.slots[ic] = s2
            self.branches[ic] = b2
            self.ghr[ic] = g2
            self.dual[ic] = d2
            self.MP[ic] += np.asarray(mp)
            self.FL[ic] += np.asarray(fl)
            self.FORKS[ic] += np.asarray(fk)
            self.CD[ic] += np.asarray(cd)
            self.CI[ic] += np.asarray(cik)
            self._advance_cursor(ic, cur[sel])
            self._prof["scalar_walks"] += perf_counter() - t0

        if dpe is not None and dpe.any():
            # Dynamic-predication episodes run synchronously, grouped
            # into gangs by episode signature (a lone lane is a gang of
            # one), and may jump the cursor forward over the records
            # their predicated paths fetched.
            t0 = perf_counter()
            sel = np.nonzero(dpe)[0]
            dc = vc[sel]
            lanes = list(
                zip(
                    dc.tolist(), cur[sel].tolist(), b[sel].tolist(),
                    fetchc[sel].tolist(), sbr[sel].tolist(),
                    bbr[sel].tolist(), res[sel].tolist(),
                    snap[sel].tolist(), pred[sel].tolist(),
                    actual[sel].tolist(), d[sel].tolist(),
                    (seqb[sel] + 1).tolist(), seen[sel].tolist(),
                )
            )
            rg = self._run_gangs
            if rg is None:
                # Deferred import: gang.py imports this module's ring
                # flush, _EpState and predictor constants back.
                from repro.uarch.batch.gang import run_gangs as rg
                self._run_gangs = rg
            outs = rg(self, lanes)
            c2, s2, b2, g2, cont = zip(*outs)
            self.cycle[dc] = c2
            self.slots[dc] = s2
            self.branches[dc] = b2
            self.ghr[dc] = g2
            nxt = np.asarray(cont)
            self.cursor[dc] = nxt
            self.state[dc] = np.where(
                nxt >= self.rends[dc], _DONE, _TRACE
            )
            self._prof["episode_tails"] += perf_counter() - t0

    # ------------------------------------------------------------------
    # Scalar branch epilogue: misprediction flush / dual-path fork
    # ------------------------------------------------------------------

    def _branch_epilogue(self, ci, cur, b, fetchc, s, bl, res, snap,
                         pred, actual, fork, site, seen, dual):
        """Misprediction flush / dual-path fork for one cell.

        Pure in the fetch state: takes and returns plain ints so the
        caller can scatter every inline cell back to the state arrays in
        one shot instead of a dozen single-element numpy writes per
        walker.  Returns ``(cycle, slots, branches, ghr, dual, mp, fl,
        forks, cd, ci)`` — the last five are counter deltas.  Only the
        seen-bit BTB is mutated in place; ``seen`` is the site's bit
        from before this resolution step."""
        ghr_new = ((snap << 1) | pred) & _M31
        reconv = self.pRECONV[b]
        node = self.pRNODE[cur]
        misp = pred != actual
        cd = cik = 0

        if fork:
            # _fork_dual_path: walk the not-predicted path, then restore
            # the saved fetch state (dual-path fetch is cycle-neutral).
            dual = res
            start = self.pFALL[b] if actual else self.pTAKEN[b]
            if start >= 0:
                _, cd, cik = self._scalar_walk(
                    ci, start, res, reconv, frozenset(), node,
                    fetchc, s, bl, dual, ghr_new,
                )
            c2, s2, b2 = fetchc, s, bl
            if misp:
                ghr_out = ((snap << 1) | int(actual)) & _M31
            else:
                ghr_out = ghr_new
                if pred:
                    # _taken_redirect (seen-bit BTB + stop-at-taken).
                    c2 = fetchc + 1
                    if not seen:
                        self.BTBSEEN[self.psrow[ci], site] = True
                        c2 += 1
                    s2 = self.phalfw[ci] if c2 <= dual else self.pwidth[ci]
                    b2 = self.pmaxb[ci]
            return (c2, s2, b2, ghr_out, dual, int(misp), 0, 1, cd, cik)

        # _mispredict_flush: walk the predicted (wrong) path, then
        # advance past resolution and repair the history.
        c2 = fetchc
        start = self.pTAKEN[b] if pred else self.pFALL[b]
        if start >= 0:
            stop = min(self.prends[ci], cur + 1 + _CI_LOOKAHEAD)
            upcoming = frozenset(self.pRFPC[cur + 1:stop])
            c2, cd, cik = self._scalar_walk(
                ci, start, res, reconv, upcoming, node,
                fetchc, s, bl, dual, ghr_new,
            )
        c2 = max(c2 + 1, res + 1)
        s2 = self.phalfw[ci] if c2 <= dual else self.pwidth[ci]
        ghr_out = ((snap << 1) | int(actual)) & _M31
        return (c2, s2, self.pmaxb[ci], ghr_out, dual, 1, 1, 0, cd, cik)

    def _scalar_predict(self, row: List[int], ghr: int) -> int:
        out = row[0]
        for j in range(_HBITS):
            out += row[j + 1] if (ghr >> j) & 1 else -row[j + 1]
        return out

    def _static_step(self, cur: int, ghr: int, wrow, local: List[int],
                     node: int) -> Tuple[int, int, bool, int]:
        """One block of a predictor-directed static walk from ``cur``:
        the successor rule of ``_walk_wrong_path_fast``, shared by the
        wrong-path walks and the episodes' static paths.  A conditional
        branch is predicted (weights row ``wrow(index)``) and shifts the
        history; a taken branch, JMP, CALL or RET ends the fetch cycle
        (``bump``); CALL pushes its fall-through block on ``local``, RET
        pops it, falling back to the architectural call context
        ``node``.  Returns ``(next block or -1, ghr, bump, node)``."""
        term = self.pTERM[cur]
        if term == TERM_BR:
            taken = self._scalar_predict(wrow(self.pPCT[cur]), ghr) >= 0
            ghr = ((ghr << 1) | taken) & _M31
            if taken:
                return self.pTAKEN[cur], ghr, True, node
            return self.pFALL[cur], ghr, False, node
        if term == TERM_NONE:
            return self.pFALL[cur], ghr, False, node
        if term == TERM_JMP:
            return self.pTARGET[cur], ghr, True, node
        if term == TERM_CALL:
            fall = self.pFALL[cur]
            if fall >= 0:
                local.append(fall)
            return self.pCALLEE[cur], ghr, True, node
        # TERM_RET
        if local:
            return local.pop(), ghr, True, node
        if node >= 0:
            return self.pNODERET[node], ghr, True, self.pNODEPAR[node]
        return -1, ghr, True, node

    def _extend_path(self, path: _WalkPath) -> bool:
        """Append one structural block to ``path``; False when the walk
        is exhausted (dead end or guard).  Mirrors the control-flow half
        of ``_walk_wrong_path_fast``: predict-directed branches, the
        local call stack, and the architectural return context."""
        cur = path.cur
        if cur < 0:
            return False
        path.guard += 1
        if path.guard > _WALK_GUARD:
            return False
        if not path.reached:
            fpc = self.pFPC[cur]
            if fpc == path.reconv or fpc in path.upcoming:
                path.reached = True
        path.cur, path.ghr, bump, path.node = self._static_step(
            cur, path.ghr, path.wrow, path.local, path.node
        )
        path.blocks.append((
            self.pNROWS[cur], self.pTERM[cur] == TERM_BR, bump,
            path.reached,
        ))
        return True

    def _scalar_walk(self, ci: int, start: int, until: int, reconv: int,
                     upcoming, node: int, c: int, s: int, bl: int,
                     d: int, ghr: int):
        """Exact transcription of ``_walk_wrong_path_fast`` for one cell,
        split into the shared structural path (cached per resolution
        step, see :class:`_WalkPath`) and the per-cell timing replay
        below.  Only ``cycle`` and the CD/CI counters survive a walk —
        the epilogue overwrites slots, branch budget and history in both
        the flush and the fork case — so the replay returns
        ``(cycle, cd, ci)`` and nothing else, and follower cells never
        touch the predictor."""
        if c >= until:
            return c, 0, 0
        row = self.psrow[ci]
        key = (row, start, ghr, reconv, node, upcoming)
        path = self._walk_cache.get(key)
        if path is None:
            path = self._walk_cache[key] = _WalkPath(
                start, ghr, node, reconv, upcoming, self.W[row]
            )
        hw = self.phalfw[ci]
        w = self.pwidth[ci]
        mb = self.pmaxb[ci]
        # Uniform fetch-width regime (dual window already over, or
        # outlasting the walk) makes the whole replay a function of the
        # relative budget — memoize it across the cells replaying this
        # path.
        if d < c:
            rkey = (until - c, s, bl, w, mb)
        elif d >= until + 2:
            rkey = (until - c, s, bl, hw, mb)
        else:
            rkey = None
        if rkey is not None:
            hit = path.replays.get(rkey)
            if hit is not None:
                dc, rcd, rci = hit
                return c + dc, rcd, rci
        c0 = c
        blocks = path.blocks
        nblocks = len(blocks)
        cd = cik = 0
        i = 0
        while c < until:
            if i >= nblocks:
                if not self._extend_path(path):
                    break
                nblocks += 1
            nr, isbr, bump, reached = blocks[i]
            i += 1
            # Fetch-width regime for this block: the dual-path window
            # either expired already (full width) or outlasts the whole
            # walk (half width, c never exceeds until + 2 here); only a
            # window expiring mid-walk needs the per-instruction loop.
            if d < c:
                W = w
            elif d >= until + 2:
                W = hw
            else:
                W = 0
            if W:
                # Closed-form slot accounting: n body instructions
                # consume the current cycle's leftover slots, then whole
                # refilled cycles of W, cut off once the refill reaches
                # `until` (the cycle that lands on `until` still issues
                # its first instruction — the bound is checked before
                # each instruction, after the refill).
                n = nr - 1 if isbr else nr
                took = n if s >= n else s
                rem = n - took
                s -= took
                if rem:
                    nbf = (rem + W - 1) // W
                    t1 = until - c - 1
                    if nbf > t1:
                        nbf = t1
                    cons = nbf * W
                    if cons > rem:
                        cons = rem
                    if nbf:
                        c += nbf
                        s = nbf * W - cons
                        bl = mb
                        took += cons
                        rem -= cons
                    if rem and c < until:
                        c += 1
                        s = W - 1
                        bl = mb
                        took += 1
                if isbr and c < until:
                    if s <= 0 or bl <= 0:
                        c += 1
                        s = W
                        bl = mb
                    bl -= 1
                    s -= 1
                    took += 1
            else:
                took = 0
                for j in range(nr):
                    if c >= until:
                        break
                    if isbr and j == nr - 1:
                        if s <= 0 or bl <= 0:
                            c += 1
                            s = hw if c <= d else w
                            bl = mb
                        bl -= 1
                    elif s <= 0:
                        c += 1
                        s = hw if c <= d else w
                        bl = mb
                    s -= 1
                    took += 1
            if reached:
                cik += took
            else:
                cd += took
            if bump:
                c += 1
                s = hw if c <= d else w
                bl = mb
        if rkey is not None:
            path.replays[rkey] = (c - c0, cd, cik)
        return c, cd, cik
