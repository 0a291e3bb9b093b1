"""Event-driven skip-ahead for the lockstep driver (span macro blocks).

The batch engine's driver advances every live cell by one trace record
per iteration, and each iteration carries a fixed cost (lane sort,
cursor gathers, terminator dispatch, state scatter) on top of the
per-row vector work.  Most records, however, are *quiet*: the record's
block ends in no control transfer (``TERM_NONE``) and the next record
begins with no icache stall (``REXTRA == 0``).  Crossing such a record
boundary is provably the identity on every piece of timing state — the
inter-record driver work is exactly "advance the cursor" — so a run of
quiet records can be fetched as one **span macro block** whose rows are
the concatenation of the constituent blocks' rows, advancing the
horizon to the next *event* (a branch, a jump/call/return redirect, an
icache stall, a trace end) in a single driver iteration.

Identity argument, row by row: within one record the engine replays the
reference's per-row sequence (window stall, slot refill, dependence
wakeup, retirement); between two quiet records nothing happens — no
terminator timing, no icache advance, no cursor-dependent state.  The
sequence numbers, load ordinals and store ordinals of consecutive
records are consecutive (each block contributes its static row/load/
store counts), so the concatenated rows carry exactly the per-row
constants the separate fetches would have used.  The committed
differential suite (bit-identical ``SimStats`` against the reference
engine) is the guard.

Spans are defined from **every** record index, not as a partition: a
dpred episode can return the cursor to any record (its continuation
lands wherever the predicated path stopped), and the suffix of a quiet
run is itself a quiet run.  Macro blocks are interned per program by
their block-id tuple — loops make the same sequences recur constantly —
and appended after the program's own blocks in an
:class:`ExtendedArena` view the engine concatenates exactly like a
:class:`~repro.uarch.batch.arena.ProgramArena`.
"""

from __future__ import annotations

import weakref
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.uarch.batch.arena import (
    JREG,
    NO_PC,
    ZREG,
    _CLEAR_HOOKS,
    ProgramArena,
    TraceArena,
)
from repro.uarch.plan import TERM_BR, TERM_NONE

#: Row cap per span macro block.  Bounds the rectangular table padding
#: (every block pays ``L`` columns in the 2-D decode tables) and keeps
#: the retirement-ring occupancy fast path (``rob_size >= L``) alive
#: for the default 128-entry ROB.
SPAN_ROW_CAP = 64


class HorizonIndex:
    """Per-program registry of span macro blocks, interned by their
    constituent block-id tuple.  Append-only: macro ``m`` keeps local id
    ``parena.n + m`` for the life of the program arena, so snapshots
    taken by different lockstep groups agree on ids."""

    __slots__ = ("seqs", "_ids", "snapshot", "snap_n", "__weakref__")

    def __init__(self) -> None:
        self.seqs: List[Tuple[int, ...]] = []
        self._ids: Dict[Tuple[int, ...], int] = {}
        self.snapshot: Optional["ExtendedArena"] = None
        self.snap_n = 0

    def intern(self, blocks: Tuple[int, ...]) -> int:
        mid = self._ids.get(blocks)
        if mid is None:
            mid = self._ids[blocks] = len(self.seqs)
            self.seqs.append(blocks)
        return mid


class SpanTables:
    """Per-record span lookup for one trace: ``SPANBLK[r]`` is the
    (local) block to fetch when the cursor sits at record ``r`` — the
    record's own block, or a macro id ``>= parena.n`` — and
    ``SPANLAST[r]`` the index of the span's final record (``r`` itself
    outside any span)."""

    __slots__ = ("SPANBLK", "SPANLAST", "merged_records")

    def __init__(self, spanblk, spanlast, merged_records: int) -> None:
        self.SPANBLK = spanblk
        self.SPANLAST = spanlast
        self.merged_records = merged_records


_INDEXES: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
_SPANS: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def _clear_horizon_caches() -> None:
    _INDEXES.clear()
    _SPANS.clear()


_CLEAR_HOOKS.append(_clear_horizon_caches)


def horizon_index(parena: ProgramArena) -> HorizonIndex:
    index = _INDEXES.get(parena)
    if index is None:
        index = _INDEXES[parena] = HorizonIndex()
    return index


def trace_spans(parena: ProgramArena, tarena: TraceArena) -> SpanTables:
    """Build (or reuse) the span tables for one trace, registering any
    new macro blocks in the program's :class:`HorizonIndex`."""
    hit = _SPANS.get(tarena)
    if hit is not None:
        owner, tables = hit
        if owner() is parena:
            return tables
    index = horizon_index(parena)
    rblk = tarena.RBLK.tolist()
    rex = tarena.REXTRA.tolist()
    nrec = tarena.nrec
    # quiet[r]: the r -> r+1 boundary is mergeable from r's side.
    quiet = (parena.TERM[tarena.RBLK] == TERM_NONE).tolist()
    nrl = parena.NROWS.tolist()
    pn = parena.n
    spanblk = rblk[:]
    spanlast = list(range(nrec))
    merged = 0
    for r in range(nrec):
        if not quiet[r] or r + 1 >= nrec or rex[r + 1]:
            continue
        rows = nrl[rblk[r]]
        end = r
        while (
            end + 1 < nrec and quiet[end] and rex[end + 1] == 0
            and rows + nrl[rblk[end + 1]] <= SPAN_ROW_CAP
        ):
            end += 1
            rows += nrl[rblk[end]]
        if end == r:
            continue  # the row cap refused even the first merge
        spanblk[r] = pn + index.intern(tuple(rblk[r:end + 1]))
        spanlast[r] = end
        merged += end - r
    tables = SpanTables(
        np.asarray(spanblk, np.int64),
        np.asarray(spanlast, np.int64),
        merged,
    )
    _SPANS[tarena] = (weakref.ref(parena), tables)
    return tables


class ExtendedArena:
    """A :class:`ProgramArena`-shaped view of one program's blocks plus
    its span macro blocks (ids ``parena.n ..``).  Macro decode rows are
    the constituent blocks' rows concatenated with cumulatively
    renumbered load/store ordinals; terminator-side tables (successors,
    branch PC, branch sources, reconvergence) come from the
    final block, the first-PC from the first.  The engine concatenates
    these views exactly like raw arenas."""

    __slots__ = (
        "n", "L", "K", "nsites", "ROWS",
        "NROWS", "NBODY", "FPC", "TERM", "TAKEN", "FALL", "TARGET",
        "CALLEE", "SITE", "BRPC", "RECONV", "BRLAT",
        "BRSRC", "RKIND", "RLAT", "RDEST", "RSRC", "RLORD", "RSTORD",
    )

    def __init__(self, pa: ProgramArena,
                 seqs: List[Tuple[int, ...]]) -> None:
        i8 = np.int64
        nm = len(seqs)
        n = pa.n + nm
        self.n = n
        self.K = pa.K
        self.nsites = pa.nsites

        rows_list: List[Tuple[Tuple, ...]] = []
        maxrows = pa.L
        for blocks in seqs:
            rows: List[Tuple] = []
            lo = so = 0
            for b in blocks:
                for (kind, lat, lat1, dest, srcs, lord, stord) in (
                    pa.ROWS[b]
                ):
                    rows.append((
                        kind, lat, lat1, dest, srcs,
                        lord + lo if lord >= 0 else -1,
                        stord + so if stord >= 0 else -1,
                    ))
                lo += pa.LOADS[b]
                so += pa.STORES[b]
            rows_list.append(tuple(rows))
            if len(rows) > maxrows:
                maxrows = len(rows)
        L = maxrows
        self.L = L
        self.ROWS = list(pa.ROWS) + rows_list

        def ext1(src, fill=0):
            out = np.full(n, fill, i8)
            out[:pa.n] = src
            return out

        self.NROWS = ext1(pa.NROWS)
        self.NBODY = ext1(pa.NBODY)
        self.FPC = ext1(pa.FPC, NO_PC)
        self.TERM = ext1(pa.TERM)
        self.TAKEN = ext1(pa.TAKEN, -1)
        self.FALL = ext1(pa.FALL, -1)
        self.TARGET = ext1(pa.TARGET, -1)
        self.CALLEE = ext1(pa.CALLEE, -1)
        self.SITE = ext1(pa.SITE, -1)
        self.BRPC = ext1(pa.BRPC, -1)
        self.RECONV = ext1(pa.RECONV, -1)
        self.BRLAT = ext1(pa.BRLAT)
        self.BRSRC = np.full((n, pa.K), ZREG, i8)
        self.BRSRC[:pa.n] = pa.BRSRC
        self.RKIND = np.zeros((n, L), i8)
        self.RLAT = np.zeros((n, L), i8)
        self.RDEST = np.full((n, L), JREG, i8)
        self.RSRC = np.full((n, L, pa.K), ZREG, i8)
        self.RLORD = np.full((n, L), -1, i8)
        self.RSTORD = np.full((n, L), -1, i8)
        self.RKIND[:pa.n, :pa.L] = pa.RKIND
        self.RLAT[:pa.n, :pa.L] = pa.RLAT
        self.RDEST[:pa.n, :pa.L] = pa.RDEST
        self.RSRC[:pa.n, :pa.L, :] = pa.RSRC
        self.RLORD[:pa.n, :pa.L] = pa.RLORD
        self.RSTORD[:pa.n, :pa.L] = pa.RSTORD

        for m, blocks in enumerate(seqs):
            gb = pa.n + m
            last = blocks[-1]
            rows = rows_list[m]
            nr = len(rows)
            term = int(pa.TERM[last])
            self.NROWS[gb] = nr
            self.NBODY[gb] = nr - 1 if term == TERM_BR else nr
            self.FPC[gb] = pa.FPC[blocks[0]]
            self.TERM[gb] = term
            self.TAKEN[gb] = pa.TAKEN[last]
            self.FALL[gb] = pa.FALL[last]
            self.TARGET[gb] = pa.TARGET[last]
            self.CALLEE[gb] = pa.CALLEE[last]
            self.SITE[gb] = pa.SITE[last]
            self.BRPC[gb] = pa.BRPC[last]
            self.RECONV[gb] = pa.RECONV[last]
            self.BRLAT[gb] = pa.BRLAT[last]
            self.BRSRC[gb] = pa.BRSRC[last]
            for i, (kind, lat, _lat1, dest, srcs, lord, stord) in (
                enumerate(rows)
            ):
                self.RKIND[gb, i] = kind
                self.RLAT[gb, i] = lat
                if dest >= 0:
                    self.RDEST[gb, i] = dest
                for j, src in enumerate(srcs):
                    self.RSRC[gb, i, j] = src
                if lord >= 0:
                    self.RLORD[gb, i] = lord
                if stord >= 0:
                    self.RSTORD[gb, i] = stord


def extended_arena(parena: ProgramArena):
    """The program's block tables extended with every macro registered
    so far — the raw arena itself when no trace produced any spans.
    Snapshots are reused until new macros appear."""
    index = _INDEXES.get(parena)
    if index is None or not index.seqs:
        return parena
    if index.snapshot is not None and index.snap_n == len(index.seqs):
        return index.snapshot
    ext = ExtendedArena(parena, index.seqs)
    index.snapshot = ext
    index.snap_n = len(index.seqs)
    return ext
