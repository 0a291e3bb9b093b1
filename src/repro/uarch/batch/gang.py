"""Ganged episodes: the batch engine's dpred episode implementation.

On a config-grid sweep, many lanes reach the same diverge branch at the
same record with bit-equal predictor state: cells over one trace share
one predictor-state row (weights, JRS, BTB seen-bits) and their history
until an episode *outcome* first differs (the weight-divergence epoch
argument in ``engine._Group``), so lanes whose ``(row, record, branch,
prediction, outcome, history snapshot, CFM set)`` agree are about to
run the *structurally identical* episode — same predicted path, same
alternate path, same nested-branch predictions, same training —
differing only in per-lane timing (cycle, fetch slots, register-ready
file, ROB occupancy, path-length budgets).

A :class:`EpisodeGang` runs that episode once *structurally* and many
times *temporally*: the gang lazily materialises a shared skeleton of
path steps (one per trace record or static block), computing each
prediction, perceptron train, JRS update and BTB seen-bit transition
exactly once, while every lane replays the skeleton's timing against
its own :class:`~repro.uarch.batch.engine._EpState` through two plain
row loops, :func:`_ep_rows` for on-trace blocks and
:func:`_static_rows` for predicate-FALSE static blocks.  Per-lane stop
conditions (branch resolution reached, path-length limit) simply cut
the replay short — a lane stopping at step ``k`` leaves with exactly
the first ``k`` predictor transitions applied, which is what the scalar
engines' ``_dpred_once_impl`` would have done.

The skeleton reads the parent row through overlay dicts (weights rows,
JRS counters, BTB seen-bits) that shadow it with the episode's own
transitions, and replays write no predictor state, so the parent row
stays what the lanes left on it hold.  A finished lane moves to the row
of its new epoch; the first lane to reach that epoch builds the row
(:meth:`EpisodeGang.build_row`): a copy of the parent, the diverge
branch's taken redirect, and the first ``k`` skeleton transitions.

This module is the batch engine's only episode implementation: a lane
whose signature no other lane shares this resolution step runs as a
gang of one, just as a lone wrong-path walk replays its own
``_WalkPath``.  ``gang_stats`` counts those lanes as
``singleton_lanes``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.uarch.batch.engine import (
    _EpState,
    _HBITS,
    _JHMASK,
    _JMAX,
    _JTAB,
    _M31,
    _THETA,
    _WMAX,
    _WMIN,
    _flush_ring,
)
from repro.uarch.plan import (
    KIND_LOAD,
    KIND_STORE,
    TERM_BR,
    TERM_NONE,
    TERM_RET,
)

#: Episode path outcomes — the ``PathOutcome`` subset the plain dmp/dhp
#: envelope can produce (no NEW_DIVERGE without multiple_diverge).
_P_CFM, _P_RESOLVED, _P_EXHAUSTED, _P_LIMIT = 0, 1, 2, 3


def _ep_adv(st: _EpState, to) -> None:
    """_advance_fetch_cycle."""
    c = st.cycle + 1
    if to is not None and to > c:
        c = to
    st.cycle = c
    st.slots = st.hw if c <= st.du else st.w
    st.bl = st.mb


def _ep_rows(st: _EpState, rows, n: int, l0: int, s0: int, res: int,
             pid: int, srd, spr, spid, lfwd, llat) -> None:
    """An episode's on-trace block: the first ``n`` rows of ``rows``
    fetched under predicate ``pid`` and retired into the lane's write
    log (``_fetch_dpred_trace_path_fast``'s per-row sequence).

    A load forwards from its store only once the store's predicate has
    resolved, or when the store sits on this same path; otherwise it
    waits for the predicate.  A store records its completion, its
    predicate's resolution cycle ``res`` and its predicate id."""
    cyc, sl, blv, du, wt, hwt = st.cycle, st.slots, st.bl, st.du, st.w, st.hw
    mbt, dept, robv, rwt = st.mb, st.depth, st.rob, st.rw
    lastt, cntt, seq, sq0 = st.last, st.cnt, st.seq, st.seq0
    rr, ring, wr, lwc = st.rr, st.ring, st.wr, 0
    wa = wr.append
    for kind, lat, _lat1, dest, srcs, lord, stord in rows[:n]:
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
            if fwd >= 0:
                pready = int(spr[fwd])
                if base >= pready or spid.get(fwd) == pid:
                    sv = int(srd[fwd])
                    comp = (sv if sv > base else base) + 1
                else:
                    lwc += 1
                    comp = pready + 2
            else:
                comp = base + llat[l0 + lord]
        elif kind == KIND_STORE:
            comp = base + 1
            ordn = s0 + stord
            srd[ordn] = comp
            spr[ordn] = res
            spid[ordn] = pid
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
    st.cycle, st.slots, st.bl = cyc, sl, blv
    st.last, st.cnt, st.seq = lastt, cntt, seq
    st.lw += lwc


def _static_rows(st: _EpState, rows, isbr: bool, oldest: int) -> None:
    """A predicate-FALSE static block (``_fetch_static_dpred_block_fast``):
    every row takes a fetch slot, and a BR terminator a branch slot too,
    but nothing retires or touches the ring.

    ``oldest`` is the window-stall bound for the block's first row.  The
    sequence number is frozen on the static path and the cycle only
    grows, so no later row can stall on the window again; and a row
    without a destination computes nothing that escapes."""
    cyc, sl, blv, du, wt, hwt = st.cycle, st.slots, st.bl, st.du, st.w, st.hw
    mbt, dept, rr = st.mb, st.depth, st.rr
    if cyc < oldest:
        cyc = oldest
        sl = hwt if cyc <= du else wt
        blv = mbt
    br = len(rows) - 1 if isbr else -1
    for i, (kind, _lat, lat1, dest, srcs, _lo, _so) in enumerate(rows):
        if sl <= 0 or (i == br and blv <= 0):
            cyc += 1
            sl = hwt if cyc <= du else wt
            blv = mbt
        if i == br:
            blv -= 1
        sl -= 1
        if dest >= 0:
            base = cyc + dept
            for s_ in srcs:
                rdy = rr[s_]
                if rdy > base:
                    base = rdy
            rr[dest] = base + (2 if kind == KIND_LOAD else lat1)
    st.cycle, st.slots, st.bl = cyc, sl, blv


def _ep_finish(gang, ci, st, ecase, xu, nsel, ghr_out, cont):
    """Episode tail: scatter the lane's state back to the group, flush
    the ring span, move the lane to its new epoch's predictor-state row,
    accumulate the counters.  Returns ``(cycle, slots, branches, ghr,
    continuation)`` for the step loop's scatter."""
    G = gang.G
    G.RR[ci] = st.rr
    # The episode's ring writes sit at consecutive sequence numbers;
    # flush just that circular span of the write log (a full 513-slot
    # row costs ~10us per episode, the typical span a fraction of that).
    _flush_ring(st.ring, st.wr, st.seq0, st.rob)
    G.last[ci] = st.last
    G.cnt[ci] = st.cnt
    G.EC[ci, ecase] += 1
    sigs = G._episigs
    skey = (
        G.pepoch[ci], gang.cur, gang.b, gang.pred, gang.actual, gang.snap,
        ecase, cont, ghr_out,
    )
    eid = sigs.get(skey)
    if eid is None:
        eid = sigs[skey] = len(sigs) + 1
    row, new = G._enter_epoch(ci, eid)
    if new:
        gang.build_row(row, cont)
    G.XU[ci] += xu
    G.SU[ci] += nsel
    G.FC[ci] += st.fc
    G.EX[ci] += st.ex
    G.RB[ci] += st.rb
    G.MP[ci] += st.mp
    G.FL[ci] += st.fl
    G.CD[ci] += st.cd
    G.PF[ci] += st.pf
    G.LW[ci] += st.lw
    return st.cycle, st.slots, st.bl, ghr_out, cont


class _TraceSkel:
    """Shared on-trace path: one step per consumed record.

    ``steps[k]`` replays record ``pos0 + k``; ``cum[k]`` is the fetched
    row count *after* step ``k`` (the scalar limit check ``fetched + nr
    > limit`` is ``cum[k] > limit``); ``ghr_after[k]`` the history after
    the step, mispredict repair included.  ``term`` is set when the next
    position is a CAM hit or the trace end — steps never extend past
    it."""

    __slots__ = (
        "steps", "cum", "ghr_after", "ghr", "ghr0", "pos0", "pos",
        "term", "wset",
    )

    def __init__(self, pos0: int, ghr0: int) -> None:
        self.steps: List[tuple] = []
        self.cum: List[int] = []
        self.ghr_after: List[int] = []
        self.ghr = self.ghr0 = ghr0
        self.pos0 = self.pos = pos0
        self.term: Optional[Tuple[int, int]] = None
        self.wset: set = set()


class _StaticSkel:
    """Shared static (predicate-FALSE) path: one step per walked block,
    steered by the shared predictor state; carries the local shadow
    stack and the architectural return context like the scalar
    walker."""

    __slots__ = (
        "steps", "cum", "ghr_after", "ghr", "ghr0", "cur", "local",
        "node", "term", "wset",
    )

    def __init__(self, cur: int, ghr0: int, node: int) -> None:
        self.steps: List[tuple] = []
        self.cum: List[int] = []
        self.ghr_after: List[int] = []
        self.ghr = self.ghr0 = ghr0
        self.cur = cur
        self.local: List[int] = []
        self.node = node
        self.term: Optional[int] = None
        self.wset: set = set()


class EpisodeGang:
    """One shared episode structure, replayed per lane.

    Construction freezes the shared facts (diverge branch, prediction,
    outcome, history snapshot, CFM CAM, parent predictor-state row and
    its pre-step seen bit) from the first lane; the
    predicted skeleton starts empty and grows on demand as lanes replay
    past its end.  The alternate skeleton appears when the first lane's
    predicted path reaches its CFM (its static start node depends on the
    shared CFM trace position)."""

    __slots__ = (
        "G", "cur", "b", "pred", "actual", "snap", "misp", "row0",
        "rend", "Wov", "Jov", "Bov", "camlock", "campcs", "pskel",
        "askel", "selects", "site0", "newsite0", "ghr1", "ghr2",
    )

    def __init__(self, G, lane0) -> None:
        (ci0, cur, b, _fc, _s, _b2, _res, snap, pred, actual,
         _d, _q, seen) = lane0
        self.G = G
        self.row0 = G.psrow[ci0]
        self.cur = cur
        self.b = b
        self.pred = pred
        self.actual = actual
        self.snap = snap
        self.misp = pred != actual
        self.rend = G.prends[ci0]
        self.campcs = G.cfms[ci0][b]
        self.camlock = None
        self.Wov: Dict[int, List[int]] = {}
        self.Jov: Dict[int, int] = {}
        self.Bov: Dict[int, bool] = {}
        self.selects: Optional[List[int]] = None
        self.ghr1 = ((snap << 1) | (1 if pred else 0)) & _M31
        self.ghr2 = ((snap << 1) | (0 if pred else 1)) & _M31
        self.site0 = G.pSITE[b]
        # The diverge branch's own taken redirect, against the seen bit
        # from before this resolution step.
        self.newsite0 = False
        if pred:
            self.Bov[self.site0] = True
            self.newsite0 = not seen
        if self.misp:
            start = G.pTAKEN[b] if pred else G.pFALL[b]
            self.pskel = _StaticSkel(start, self.ghr1, G.pRNODE[cur])
        else:
            self.pskel = _TraceSkel(cur + 1, self.ghr1)
        self.askel = None

    # -- shared predictor state, through the overlays ------------------

    def _wrow(self, idx: int) -> List[int]:
        row = self.Wov.get(idx)
        if row is None:
            row = self.G.W[self.row0, idx].tolist()
        return row

    def _train(self, idx: int, hist: int, out: int, prd: bool,
               actual: bool):
        """Scalar perceptron train against the overlay; returns the
        trained row for the per-lane scatter, or None when training
        does not fire."""
        if prd == actual and (out if out >= 0 else -out) > _THETA:
            return None
        row = list(self._wrow(idx))
        t = 1 if actual else -1
        v = row[0] + t
        row[0] = _WMAX if v > _WMAX else (_WMIN if v < _WMIN else v)
        for j in range(1, _HBITS + 1):
            v = row[j] + (t if (hist >> (j - 1)) & 1 else -t)
            row[j] = _WMAX if v > _WMAX else (_WMIN if v < _WMIN else v)
        self.Wov[idx] = row
        return row

    def _jrs(self, jidx: int, misp: bool) -> int:
        if misp:
            jnew = 0
        else:
            v = self.Jov.get(jidx)
            if v is None:
                v = int(self.G.JRS[self.row0, jidx])
            jnew = v + 1 if v < _JMAX else v
        self.Jov[jidx] = jnew
        return jnew

    def _btb_new(self, site: int) -> bool:
        """Whether a taken redirect to ``site`` misses the seen-bit BTB
        at this point of the episode; marks it seen either way."""
        if site in self.Bov:
            return False
        self.Bov[site] = True
        return not self.G.BTBSEEN[self.row0, site]

    def build_row(self, row: int, cont: int) -> None:
        """Bring ``row``, a copy of the parent row, to the predictor
        state of a lane that left this episode at record ``cont``: the
        diverge branch's taken redirect, then the first ``cont - (cur +
        1)`` steps of the trace skeleton the lane ran (predicate-FALSE
        static paths train nothing)."""
        G = self.G
        if self.pred:
            G.BTBSEEN[row, self.site0] = True
        sk = self.askel if self.misp else self.pskel
        if sk is None:
            return  # mispredicted, and no lane reached the CFM
        # Step layouts as built by _extend_trace: 3 is a conditional
        # branch (trained row, its index, JRS index and value, site and
        # new-site bit at 9..12, 15, 16), 2 a JMP/CALL (site, new-site).
        for step in sk.steps[:cont - self.cur - 1]:
            if step[0] == 3:
                if step[9] is not None:
                    G.W[row, step[10]] = step[9]
                G.JRS[row, step[11]] = step[12]
                if step[16]:
                    G.BTBSEEN[row, step[15]] = True
            elif step[0] == 2 and step[7]:
                G.BTBSEEN[row, step[6]] = True

    # -- skeleton extension (structural, one step at a time) -----------

    def _extend_trace(self, sk: _TraceSkel) -> None:
        G = self.G
        pos = sk.pos
        if pos >= self.rend:
            sk.term = (_P_EXHAUSTED, pos)
            return
        fpc = G.pRFPC[pos]
        cl = self.camlock
        if (fpc == cl) if cl is not None else (fpc in self.campcs):
            self.camlock = fpc
            sk.term = (_P_CFM, pos)
            return
        b = G.pRECBLK[pos]
        nr = G.pNROWS[b]
        extra = G.pREXTRA[pos]
        l0 = G.pRL0[pos]
        s0 = G.pRS0[pos]
        ghr = sk.ghr
        if G.pTERM[b] == TERM_BR:
            hist = ghr
            idx = G.pPCT[b]
            out = G._scalar_predict(self._wrow(idx), hist)
            prd = out >= 0
            actual = bool(G.pRTAKEN[pos])
            ismisp = prd != actual
            ghr = ((hist << 1) | (1 if prd else 0)) & _M31
            wrow = self._train(idx, hist, out, prd, actual)
            jidx = (G.pJPC[b] ^ (hist & _JHMASK)) & (_JTAB - 1)
            jnew = self._jrs(jidx, ismisp)
            site = G.pSITE[b]
            if ismisp:
                ghr = ((hist << 1) | (1 if actual else 0)) & _M31
                newsite = False
            elif prd:
                newsite = self._btb_new(site)
            else:
                newsite = False
            sk.steps.append((
                3, b, nr, extra, l0, s0, G.pNBODY[b], G.pBRSRC[b],
                G.pBRLAT[b], wrow, idx, jidx, jnew, prd, ismisp,
                site, newsite,
            ))
        else:
            term = G.pTERM[b]
            if term == TERM_RET:
                sk.steps.append((1, b, nr, extra, l0, s0,
                                 G.pRUNDER[pos]))
            elif term == TERM_NONE:
                sk.steps.append((0, b, nr, extra, l0, s0))
            else:  # JMP / CALL
                site = G.pSITE[b]
                sk.steps.append((2, b, nr, extra, l0, s0, site,
                                 self._btb_new(site)))
        sk.cum.append((sk.cum[-1] if sk.cum else 0) + nr)
        sk.ghr_after.append(ghr)
        sk.ghr = ghr
        sk.wset.update(G.pDESTS[b])
        sk.pos = pos + 1

    def _extend_static(self, sk: _StaticSkel) -> None:
        G = self.G
        cur = sk.cur
        if cur < 0:
            sk.term = _P_EXHAUSTED
            return
        fpc = G.pFPC[cur]
        cl = self.camlock
        if (fpc == cl) if cl is not None else (fpc in self.campcs):
            self.camlock = fpc
            sk.term = _P_CFM
            return
        nr = G.pNROWS[cur]
        nxt, ghr, bump, sk.node = G._static_step(
            cur, sk.ghr, self._wrow, sk.local, sk.node
        )
        sk.steps.append((cur, nr, bump))
        sk.cum.append((sk.cum[-1] if sk.cum else 0) + nr)
        sk.ghr_after.append(ghr)
        sk.ghr = ghr
        sk.wset.update(G.pDESTS[cur])
        sk.cur = nxt

    # -- per-lane timing replay ----------------------------------------

    def _replay_trace(self, sk: _TraceSkel, st: _EpState, res: int,
                      pid: int, limit: int, srd, spr, spidd):
        """Walk the shared trace skeleton with one lane's timing state.
        Mirrors the per-record check order of the scalar engine's
        ``_fetch_dpred_trace_path_fast``: trace end / CAM hit (terminal,
        unconditional), then resolution, then the path-length limit."""
        G = self.G
        steps = sk.steps
        cum = sk.cum
        ghr_after = sk.ghr_after
        rows = G.pROWS
        lfwd = G.pLFWD
        llat = G.pLLAT
        ep_adv = _ep_adv
        k = 0
        while True:
            if k == len(steps):
                if sk.term is None:
                    self._extend_trace(sk)
                if sk.term is not None and k == len(steps):
                    st.ghr = ghr_after[k - 1] if k else sk.ghr0
                    return sk.term
            if st.cycle >= res:
                st.ghr = ghr_after[k - 1] if k else sk.ghr0
                return _P_RESOLVED, sk.pos0 + k
            if cum[k] > limit:
                st.ghr = ghr_after[k - 1] if k else sk.ghr0
                return _P_LIMIT, sk.pos0 + k
            step = steps[k]
            kind = step[0]
            extra = step[3]
            if extra > 0:
                ep_adv(st, st.cycle + extra)
            if kind == 3:
                (_, b, nr, _x, l0, s0, nbody, brsrcs, brlat, _wrow,
                 _widx, _jidx, _jnew, prd, ismisp, _site, newsite) = step
                if nbody:
                    _ep_rows(st, rows[b], nbody, l0, s0, res, pid, srd,
                             spr, spidd, lfwd, llat)
                    st.fc += nbody
                    st.ex += nbody
                # Nested branch: fetch-slot + window check, sources,
                # retire, then the timing of the shared prediction
                # (build_row applies its predictor transitions).
                seq = st.seq
                rob = st.rob
                if seq >= rob:
                    j = seq - rob
                    sq0 = st.seq0
                    oldest = (
                        st.wr[j - sq0] if j >= sq0
                        else st.ring[j % rob]
                    )
                    if st.cycle < oldest:
                        ep_adv(st, oldest)
                if st.slots <= 0 or st.bl <= 0:
                    ep_adv(st, None)
                st.slots -= 1
                st.bl -= 1
                st.fc += 1
                base = st.cycle + st.depth
                for s_ in brsrcs:
                    v = st.rr[s_]
                    if v > base:
                        base = v
                comp = base + brlat
                rc = comp + 1
                if rc < st.last:
                    rc = st.last
                if rc == st.last:
                    if st.cnt >= st.rw:
                        rc += 1
                        st.cnt = 0
                else:
                    st.cnt = 0
                st.last = rc
                st.cnt += 1
                st.wr.append(rc)
                st.seq = seq + 1
                st.ex += 1
                st.rb += 1
                if ismisp:
                    st.mp += 1
                    st.fl += 1
                    ep_adv(st, comp + 1)
                elif prd:
                    if newsite:
                        ep_adv(st, None)
                    ep_adv(st, None)
            else:
                b = step[1]
                nr = step[2]
                if nr:
                    _ep_rows(st, rows[b], nr, step[4], step[5], res, pid,
                             srd, spr, spidd, lfwd, llat)
                    st.fc += nr
                    st.ex += nr
                if kind == 1:  # RET
                    ep_adv(st, None)
                    if step[6]:
                        ep_adv(st, st.cycle + st.depth)
                elif kind == 2:  # JMP / CALL redirect
                    if step[7]:
                        ep_adv(st, None)
                    ep_adv(st, None)
            k += 1

    def _replay_static(self, sk: _StaticSkel, st: _EpState, res: int,
                       limit: int) -> int:
        """Walk the shared static skeleton with one lane's timing state
        (the check order of the scalar engine's
        ``_fetch_dpred_static_path_fast``, sequence number frozen)."""
        G = self.G
        steps = sk.steps
        cum = sk.cum
        ghr_after = sk.ghr_after
        rows = G.pROWS
        term = G.pTERM
        ep_adv = _ep_adv
        k = 0
        while True:
            if k == len(steps):
                if sk.term is None:
                    self._extend_static(sk)
                if sk.term is not None and k == len(steps):
                    st.ghr = ghr_after[k - 1] if k else sk.ghr0
                    return sk.term
            if st.cycle >= res:
                st.ghr = ghr_after[k - 1] if k else sk.ghr0
                return _P_RESOLVED
            if cum[k] > limit:
                st.ghr = ghr_after[k - 1] if k else sk.ghr0
                return _P_LIMIT
            cur, nr, bump = steps[k]
            if nr:
                seq = st.seq
                if seq >= st.rob:
                    j = seq - st.rob
                    sq0 = st.seq0
                    oldest = (
                        st.wr[j - sq0] if j >= sq0
                        else st.ring[j % st.rob]
                    )
                else:
                    oldest = 0
                _static_rows(st, rows[cur], term[cur] == TERM_BR, oldest)
                st.cd += nr
                st.ex += nr
                st.pf += nr
            if bump:
                ep_adv(st, None)
            k += 1

    # -- one lane, full episode ----------------------------------------

    def run_lane(self, lane):
        """One dynamic-predication episode for one dmp/dhp lane, with
        the structural work served by the shared skeletons.

        Transcribes ``_dpred_once_impl`` for the vector envelope's plain
        machines (no early exit, multiple diverge, loop predication or
        selective update; watch_diverge is therefore always False and
        episodes never restart or nest).  The diverge branch's own
        fetch/retire/train/JRS-update already ran on the vector path in
        the scalar call order, and the top-level spec_update it skipped
        is recomputed here from ``snap``.  Returns ``(cycle, slots,
        branches, ghr, continuation)`` for the caller's scatter; the
        registers, ring, store predicates and counters are written back
        in place, and the lane moves to its new epoch's predictor-state
        row."""
        (ci, cur, b, fetchc, sbr, bbr, res, snap, pred, actual, dual,
         seq1, _seen) = lane
        G = self.G
        st = _EpState()
        st.cycle = fetchc
        st.slots = sbr
        st.bl = bbr
        st.du = dual
        st.w = G.pwidth[ci]
        st.hw = G.phalfw[ci]
        st.mb = G.pmaxb[ci]
        st.depth = G.pdepth[ci]
        st.rob = G.prob[ci]
        st.rw = G.prw[ci]
        st.rr = G.RR[ci].tolist()
        st.ring = G.RING[ci]
        st.wr = []
        st.last = int(G.last[ci])
        st.cnt = int(G.cnt[ci])
        # The post-branch sequence number comes from the caller: with
        # horizon spans, ``cur`` is the span-*end* record while ``b``
        # covers the whole span, so a record-derived number would
        # double-count the merged records.
        st.seq = st.seq0 = seq1
        st.fc = st.ex = st.rb = st.mp = st.fl = 0
        st.cd = st.pf = st.lw = 0

        G.DPE[ci] += 1
        p1 = G.pcnt[ci]
        p2 = p1 + 1
        G.pcnt[ci] = p1 + 2
        xu = 1  # enter.pred.path uop (completion discarded)
        nsel = 0
        cp1_ready = list(st.rr)
        misp = self.misp
        limit = G.pplimit[ci]
        srd = G.SREADY[ci]
        spr = G.SPREADYP[ci]
        spidd = G.spid[ci]

        # Predicted path: the shared taken redirect, then the skeleton.
        st.ghr = self.ghr1
        if pred:
            if self.newsite0:
                _ep_adv(st, None)
            _ep_adv(st, None)
        if misp:
            pout = self._replay_static(self.pskel, st, res, limit)
            ppos = -1
        else:
            pout, ppos = self._replay_trace(
                self.pskel, st, res, p1, limit, srd, spr, spidd
            )

        if pout != _P_CFM:
            # _exit_without_predicted_cfm: cases 5 / 6.
            if pout != _P_RESOLVED and st.cycle < res:
                _ep_adv(st, res)
            if misp:
                ecase = 6  # FLUSH
                st.mp += 1
                st.fl += 1
                st.rr = cp1_ready
                _ep_adv(st, res + 1)
                ghr_out = ((snap << 1) | (1 if actual else 0)) & _M31
                cont = cur + 1
            else:
                ecase = 5  # CONTINUE_PREDICTED
                ghr_out = st.ghr
                cont = ppos
        else:
            # Alternate path: checkpoint the predicted end, restore the
            # pre-branch registers, fetch the other direction (trace
            # when mispredicted, static otherwise).
            predicted_ghr = st.ghr
            cp2_ready = list(st.rr)
            st.rr = cp1_ready
            xu += 1  # enter.alternate.path
            if self.askel is None:
                if misp:
                    self.askel = _TraceSkel(cur + 1, self.ghr2)
                else:
                    start = G.pFALL[b] if pred else G.pTAKEN[b]
                    self.askel = _StaticSkel(
                        start, self.ghr2, G.pRNODE[ppos]
                    )
            if misp:
                aout, apos = self._replay_trace(
                    self.askel, st, res, p2, limit, srd, spr, spidd
                )
            else:
                aout = self._replay_static(self.askel, st, res, limit)
                apos = -1
            if aout == _P_CFM:
                xu += 1  # exit.pred
                if self.selects is None:
                    # Both skeletons are CAM-terminated by the time any
                    # lane reaches the alternate CFM, so the union of
                    # renamed registers over their steps is complete.
                    self.selects = sorted(
                        self.pskel.wset | self.askel.wset
                    )
                selects = self.selects
                rr = st.rr
                cycle_d = st.cycle + st.depth
                for a in selects:
                    sr = cp2_ready[a]
                    v = rr[a]
                    if v > sr:
                        sr = v
                    if res > sr:
                        sr = res
                    rr[a] = (cycle_d if cycle_d > sr else sr) + 1
                nsel = len(selects)
                if G.pghrpred[ci]:
                    ghr_out = predicted_ghr
                else:
                    ghr_out = st.ghr
                if misp:
                    ecase = 2  # NORMAL_MISPREDICTED
                    st.mp += 1  # eliminated: no flush
                    cont = apos
                else:
                    ecase = 1  # NORMAL_CORRECT
                    cont = ppos
            else:
                # RESOLVED / EXHAUSTED / LIMIT: cases 3 / 4.
                if st.cycle < res:
                    _ep_adv(st, res)
                if misp:
                    ecase = 4  # CONTINUE_ALTERNATE
                    st.mp += 1  # eliminated: no flush
                    ghr_out = st.ghr
                    cont = apos
                else:
                    ecase = 3  # REDIRECT_TO_CFM
                    st.rr = cp2_ready
                    ghr_out = predicted_ghr
                    _ep_adv(st, None)
                    cont = ppos

        return _ep_finish(self, ci, st, ecase, xu, nsel, ghr_out, cont)


def run_gangs(G, lanes: List[tuple]) -> List[tuple]:
    """Group one resolution step's dpred lanes by episode signature and
    run each gang's episode once structurally; a lane no other lane
    shares runs as a gang of one.  ``lanes`` holds
    :meth:`EpisodeGang.run_lane` argument tuples; results come back in
    lane order.  Keys are computed up front from the pre-episode
    predictor-state rows (each lane's episode only moves its own)."""
    groups: Dict[tuple, List[int]] = {}
    for i, lane in enumerate(lanes):
        ci, cur, b = lane[0], lane[1], lane[2]
        key = (
            G.psrow[ci], cur, b, lane[8], lane[9], lane[7],
            G.cfms[ci][b],
        )
        groups.setdefault(key, []).append(i)
    out: List = [None] * len(lanes)
    for idxs in groups.values():
        gang = EpisodeGang(G, lanes[idxs[0]])
        for i in idxs:
            out[i] = gang.run_lane(lanes[i])
        if len(idxs) == 1:
            G.gang_singletons += 1
        else:
            G.gang_count += 1
            G.gang_lanes += len(idxs)
            if len(idxs) > G.gang_max:
                G.gang_max = len(idxs)
    return out
