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
run is itself a quiet run.  Macro blocks are interned by their block-id
tuple — loops make the same sequences recur constantly — and appended
to their :class:`~repro.uarch.arena.ProgramArena`'s lists after
the program's own blocks, so the engine reads a macro exactly like any
other block.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.uarch.plan import TERM_NONE

#: Row cap per span macro block.  Bounds the rectangular table padding
#: (every block pays ``L`` columns in the 2-D decode tables) and keeps
#: the retirement-ring occupancy fast path (``rob_size >= L``) alive
#: for the default 128-entry ROB.
SPAN_ROW_CAP = 64


def trace_spans(pa, rblk: List[int],
                rextra: List[int]) -> Tuple[List[int], List[int]]:
    """Span lookup for one trace's records (``rblk`` blocks, ``rextra``
    icache stalls): per record ``r``, the block to fetch when the cursor
    sits at ``r`` — the record's own, or a macro covering the quiet run
    from ``r`` — and the index of the span's final record (``r`` itself
    outside any span).  New macros are appended to ``pa``."""
    nrec = len(rblk)
    nrows = pa.NROWS
    # quiet[r]: the r -> r+1 boundary is mergeable from r's side.
    quiet = [pa.TERM[b] == TERM_NONE for b in rblk]
    spanblk = rblk[:]
    spanlast = list(range(nrec))
    for r in range(nrec):
        if not quiet[r] or r + 1 >= nrec or rextra[r + 1]:
            continue
        rows = nrows[rblk[r]]
        end = r
        while (
            end + 1 < nrec and quiet[end] and rextra[end + 1] == 0
            and rows + nrows[rblk[end + 1]] <= SPAN_ROW_CAP
        ):
            end += 1
            rows += nrows[rblk[end]]
        if end == r:
            continue  # the row cap refused even the first merge
        spanblk[r] = _macro(pa, tuple(rblk[r:end + 1]))
        spanlast[r] = end
    return spanblk, spanlast


def _macro(pa, blocks: Tuple[int, ...]) -> int:
    """The block id of the macro fusing ``blocks``, appended to ``pa``
    on first use: the blocks' rows concatenated with cumulatively
    renumbered load/store ordinals, the first-PC of the first block and
    every terminator-side entry (successors, site, branch PC,
    reconvergence) of the last."""
    mid = pa.macros.get(blocks)
    if mid is not None:
        return mid
    rows: List[Tuple] = []
    lo = so = 0
    for b in blocks:
        for kind, lat, lat1, dest, srcs, lord, stord in pa.ROWS[b]:
            rows.append((
                kind, lat, lat1, dest, srcs,
                lord + lo if lord >= 0 else -1,
                stord + so if stord >= 0 else -1,
            ))
        lo += pa.LOADS[b]
        so += pa.STORES[b]
    mid = pa.macros[blocks] = len(pa.ROWS)
    pa.ROWS.append(tuple(rows))
    pa.NROWS.append(len(rows))
    pa.FPC.append(pa.FPC[blocks[0]])
    last = blocks[-1]
    for table in (pa.TERM, pa.TAKEN, pa.FALL, pa.TARGET, pa.CALLEE,
                  pa.SITE, pa.BRPC, pa.RECONV):
        table.append(table[last])
    return mid
