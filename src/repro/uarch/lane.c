/*
 * The compiled lane: one baseline or dual-path cell of the fast engine.
 *
 * A line-for-line port of TimingSimulator's fast trace loop
 * (repro/uarch/timing.py: _run_fast, _fetch_trace_block_fast,
 * _handle_trace_branch_fast, _transfer_fast, _mispredict_flush with
 * _walk_wrong_path_fast, _fork_dual_path with _fork_worthwhile) and of
 * the three predictor structures it updates (the perceptron, the JRS
 * estimator and the BTB's seen bits).  Everything the trace alone
 * decides -- icache stalls, load latencies and forwarding sources, RAS
 * underflows, the call context -- arrives precomputed in the tables of
 * repro.uarch.arena, so the caches, store buffer and RAS keep their one
 * Python implementation.
 *
 * Every per-cell decision is made in the same order on the same
 * integers as the Python engine; tests/core/test_lane.py holds the
 * SimStats of both equal field for field.  The file uses no Python
 * C-API, so one build serves every interpreter (repro/uarch/lane.py
 * builds and loads it).  lane_run returns 0, or -1 when it cannot
 * allocate its state, or -2 when a row names a register outside the
 * architectural file.
 */

#include <stdint.h>
#include <stdlib.h>

enum { TERM_NONE = 0, TERM_BR = 1, TERM_JMP = 2, TERM_CALL = 3, TERM_RET = 4 };
enum { KIND_ALU = 0, KIND_LOAD = 1, KIND_STORE = 2 };

/* The parameter vector (int64), in the order lane.py's _pack writes. */
enum {
    P_NREC, P_NSTORE, P_NSITE, P_NROWS, P_STRIDE,
    P_WIDTH, P_HALF, P_MAXB, P_DEPTH, P_ROB, P_RETIRE, P_DUAL,
    P_NPERC, P_HBITS, P_THETA, P_WMIN, P_WMAX,
    P_JTAB, P_JHBITS, P_JMAX, P_JTHRESH,
    P_GUARD, P_LOOKAHEAD
};

/* One block's fields (int64), in the order lane.py's _pack writes. */
enum {
    B_ROWOFF, B_NROWS, B_FPC, B_TERM, B_TAKEN, B_FALL, B_TARGET,
    B_CALLEE, B_SITE, B_BRPC, B_RECONV, B_FIELDS
};

/* One row's leading fields (int32); its sources follow. */
enum { R_KIND, R_LAT, R_DEST, R_NSRC, R_SRC };

/* The output counters (int64), in lane.py's _OUTPUTS order. */
enum {
    O_CYCLES, O_BRANCHES, O_MISP, O_FLUSHES, O_FETCHED, O_WRONG_CD,
    O_WRONG_CI, O_EXECUTED, O_FORKS, O_COUNT
};

#define NUM_REGS 32

typedef struct {
    /* machine */
    int64_t width, half, maxb, depth, rob, retire, dual;
    int64_t nperc, hbits, theta, wmin, wmax;
    int64_t jtab, jhmask, jmax, jthresh, guard, lookahead;
    uint64_t hmask;
    /* tables */
    const int64_t *blk;
    const int32_t *rows;
    int64_t stride, nrec;
    const int32_t *rblk, *rnode, *llat, *lfwd, *nodepar, *noderet;
    /* fetch and retirement state */
    int64_t cycle, slots, bl, dual_until;
    int64_t seq, ring_pos, last, cnt;
    int64_t load, store;
    uint64_t ghr;
    int64_t reg[NUM_REGS];
    int64_t *ring, *srd;
    int32_t *weights;
    uint8_t *jrs, *seen;
    int32_t *stack;
    /* counters */
    int64_t out[O_COUNT];
} Lane;

/* _advance_fetch_cycle: a new fetch cycle, half width inside the
 * dual-path window. */
static inline void refill(Lane *L)
{
    L->slots = L->cycle <= L->dual_until ? L->half : L->width;
    L->bl = L->maxb;
}

static inline void advance(Lane *L)
{
    L->cycle += 1;
    refill(L);
}

static inline void advance_to(Lane *L, int64_t to)
{
    L->cycle = L->cycle + 1 > to ? L->cycle + 1 : to;
    refill(L);
}

/* _fetch_slot's reorder-buffer check: stall until the oldest entry of
 * a full window retires. */
static inline void window(Lane *L)
{
    if (L->seq >= L->rob) {
        int64_t oldest = L->ring[L->ring_pos];
        if (L->cycle < oldest) {
            L->cycle = oldest;
            refill(L);
        }
    }
}

static inline void retire(Lane *L, int64_t completion)
{
    int64_t rc = completion + 1;
    if (rc < L->last)
        rc = L->last;
    if (rc == L->last) {
        if (L->cnt >= L->retire) {
            rc += 1;
            L->cnt = 0;
        }
    } else {
        L->cnt = 0;
    }
    L->last = rc;
    L->cnt += 1;
    L->ring[L->ring_pos] = rc;
    L->seq += 1;
    if (++L->ring_pos == L->rob)
        L->ring_pos = 0;
}

static inline int64_t ready(const Lane *L, const int32_t *row, int64_t base)
{
    for (int32_t k = 0; k < row[R_NSRC]; k++) {
        int64_t r = L->reg[row[R_SRC + k]];
        if (r > base)
            base = r;
    }
    return base;
}

/* _fetch_trace_block_fast over n rows (no conditional branch among
 * them: ProgramArena.reason admits none inside a block body). */
static void fetch_rows(Lane *L, const int32_t *row, int64_t n)
{
    for (int64_t i = 0; i < n; i++, row += L->stride) {
        window(L);
        if (L->slots <= 0)
            advance(L);
        L->slots -= 1;
        int64_t base = ready(L, row, L->cycle + L->depth);
        int64_t completion;
        if (row[R_KIND] == KIND_LOAD) {
            int64_t fwd = L->lfwd[L->load];
            if (fwd >= 0) {
                int64_t data = L->srd[fwd];
                completion = (data > base ? data : base) + 1;
            } else {
                completion = base + L->llat[L->load];
            }
            L->load += 1;
        } else if (row[R_KIND] == KIND_STORE) {
            completion = base + 1;
            L->srd[L->store++] = completion;
        } else {
            completion = base + row[R_LAT];
        }
        if (row[R_DEST] >= 0)
            L->reg[row[R_DEST]] = completion;
        retire(L, completion);
    }
    L->out[O_FETCHED] += n;
    L->out[O_EXECUTED] += n;
}

/* The perceptron: output = bias + sum of +-weights over the history. */
static inline int64_t predict(const Lane *L, int64_t index)
{
    const int32_t *w = L->weights + index * (L->hbits + 1);
    int64_t output = w[0];
    for (int64_t j = 0; j < L->hbits; j++)
        output += (L->ghr >> j) & 1 ? w[j + 1] : -w[j + 1];
    return output;
}

static inline int32_t clamp(const Lane *L, int64_t w)
{
    return (int32_t)(w > L->wmax ? L->wmax : w < L->wmin ? L->wmin : w);
}

static void train(Lane *L, int64_t index, uint64_t history, int64_t output,
                  int taken, int actual)
{
    int64_t magnitude = output < 0 ? -output : output;
    if (taken == actual && magnitude > L->theta)
        return;
    int32_t *w = L->weights + index * (L->hbits + 1);
    int64_t t = actual ? 1 : -1;
    w[0] = clamp(L, w[0] + t);
    for (int64_t j = 0; j < L->hbits; j++)
        w[j + 1] = clamp(L, w[j + 1] + ((history >> j) & 1 ? t : -t));
}

static inline uint64_t shift(const Lane *L, uint64_t history, int taken)
{
    return ((history << 1) | (uint64_t)taken) & L->hmask;
}

/* _taken_redirect: a BTB miss (first visit of the site) adds a bubble
 * before the redirect ends the fetch cycle. */
static inline void redirect(Lane *L, int64_t site)
{
    if (!L->seen[site]) {
        L->seen[site] = 1;
        advance(L);
    }
    advance(L);
}

/* _walk_wrong_path_fast from the wrong target of record r's branch.
 * With `lookahead` the blocks the correct path visits next count as
 * control-independent (the misprediction walk; a fork's walk has
 * none). */
static void walk(Lane *L, int64_t r, const int64_t *B, int wrong_taken,
                 int64_t until, int lookahead)
{
    int64_t cur = wrong_taken ? B[B_TAKEN] : B[B_FALL];
    if (cur < 0)
        return;
    int64_t reconv = B[B_RECONV];
    int64_t node = L->rnode[r];
    int64_t up_end = r + 1;
    if (lookahead) {
        up_end = r + 1 + L->lookahead;
        if (up_end > L->nrec)
            up_end = L->nrec;
    }
    int64_t depth = 0; /* the walk's own call stack, over `node` */
    int reached = 0;
    int64_t guard = 0;
    while (cur >= 0 && L->cycle < until) {
        if (++guard > L->guard)
            break;
        const int64_t *C = L->blk + cur * B_FIELDS;
        int64_t fpc = C[B_FPC];
        if (!reached) {
            if (fpc == reconv) {
                reached = 1;
            } else {
                for (int64_t k = r + 1; k < up_end; k++) {
                    if (L->blk[L->rblk[k] * B_FIELDS + B_FPC] == fpc) {
                        reached = 1;
                        break;
                    }
                }
            }
        }
        int64_t n = C[B_NROWS];
        int64_t term = C[B_TERM];
        int64_t took = 0;
        for (int64_t i = 0; i < n; i++) {
            if (L->cycle >= until)
                break;
            if (term == TERM_BR && i == n - 1) {
                if (L->slots <= 0 || L->bl <= 0)
                    advance(L);
                L->bl -= 1;
            } else if (L->slots <= 0) {
                advance(L);
            }
            L->slots -= 1;
            took += 1;
        }
        L->out[reached ? O_WRONG_CI : O_WRONG_CD] += took;
        switch (term) {
        case TERM_BR: {
            int taken = predict(L, (C[B_BRPC] >> 2) % L->nperc) >= 0;
            L->ghr = shift(L, L->ghr, taken);
            if (taken) {
                advance(L);
                cur = C[B_TAKEN];
            } else {
                cur = C[B_FALL];
            }
            break;
        }
        case TERM_NONE:
            cur = C[B_FALL];
            break;
        default:
            /* JMP / CALL / RET all end the fetch cycle. */
            advance(L);
            if (term == TERM_JMP) {
                cur = C[B_TARGET];
            } else if (term == TERM_CALL) {
                if (C[B_FALL] >= 0)
                    L->stack[depth++] = (int32_t)C[B_FALL];
                cur = C[B_CALLEE];
            } else if (depth > 0) {
                cur = L->stack[--depth];
            } else if (node >= 0) {
                cur = L->noderet[node];
                node = L->nodepar[node];
            } else {
                cur = -1; /* walked off the program */
            }
        }
    }
}

/* _handle_trace_branch_fast for record r, whose block B ends in a
 * conditional branch. */
static void branch(Lane *L, int64_t r, const int64_t *B, int actual)
{
    uint64_t snap = L->ghr;
    int64_t pc = B[B_BRPC];
    int64_t index = (pc >> 2) % L->nperc;
    int64_t output = predict(L, index);
    int taken = output >= 0;

    /* _fetch_slot(True), then the branch's own execute and retire. */
    window(L);
    if (L->slots <= 0 || L->bl <= 0)
        advance(L);
    L->slots -= 1;
    L->bl -= 1;
    L->out[O_FETCHED] += 1;
    const int32_t *row =
        L->rows + (B[B_ROWOFF] + B[B_NROWS] - 1) * L->stride;
    int64_t base = ready(L, row, 0);
    if (L->cycle + L->depth > base)
        base = L->cycle + L->depth;
    int64_t resolution = base + row[R_LAT];
    retire(L, resolution);
    L->out[O_EXECUTED] += 1;
    L->out[O_BRANCHES] += 1;

    L->ghr = shift(L, snap, taken);
    int mispredicted = taken != actual;
    int64_t jidx = ((pc >> 2) ^ (int64_t)(snap & (uint64_t)L->jhmask))
                   & (L->jtab - 1);
    int low_confidence = !(L->jrs[jidx] >= L->jthresh);
    train(L, index, snap, output, taken, actual);
    if (mispredicted)
        L->jrs[jidx] = 0;
    else if (L->jrs[jidx] < L->jmax)
        L->jrs[jidx] += 1;

    int64_t magnitude = output < 0 ? -output : output;
    if (L->dual && low_confidence && L->cycle > L->dual_until
        && magnitude <= L->theta / 4) {
        /* _fork_dual_path: fetch both paths at half width until the
         * branch resolves; the wrong path's walk is cycle-neutral. */
        L->out[O_FORKS] += 1;
        L->dual_until = resolution;
        if (mispredicted)
            L->out[O_MISP] += 1;
        int64_t cycle = L->cycle, slots = L->slots, bl = L->bl;
        uint64_t ghr = L->ghr;
        walk(L, r, B, !actual, resolution, 0);
        L->cycle = cycle;
        L->slots = slots;
        L->bl = bl;
        L->ghr = ghr;
        if (mispredicted)
            L->ghr = shift(L, snap, actual);
        else if (taken)
            redirect(L, B[B_SITE]);
        return;
    }
    if (mispredicted) {
        /* _mispredict_flush, then the history repair. */
        L->out[O_MISP] += 1;
        L->out[O_FLUSHES] += 1;
        walk(L, r, B, taken, resolution, 1);
        advance_to(L, resolution + 1);
        L->ghr = shift(L, snap, actual);
    } else if (taken) {
        redirect(L, B[B_SITE]);
    }
}

int lane_run(const int64_t *params, const int64_t *blk, const int32_t *rows,
             const int32_t *rblk, const int32_t *rextra,
             const int32_t *rtaken, const int32_t *runder,
             const int32_t *rnode, const int32_t *llat, const int32_t *lfwd,
             const int32_t *nodepar, const int32_t *noderet, int64_t *out)
{
    Lane L = {0};
    L.nrec = params[P_NREC];
    L.stride = params[P_STRIDE];
    L.width = params[P_WIDTH];
    L.half = params[P_HALF];
    L.maxb = params[P_MAXB];
    L.depth = params[P_DEPTH];
    L.rob = params[P_ROB];
    L.retire = params[P_RETIRE];
    L.dual = params[P_DUAL];
    L.nperc = params[P_NPERC];
    L.hbits = params[P_HBITS];
    L.theta = params[P_THETA];
    L.wmin = params[P_WMIN];
    L.wmax = params[P_WMAX];
    L.jtab = params[P_JTAB];
    L.jhmask = ((int64_t)1 << params[P_JHBITS]) - 1;
    L.jmax = params[P_JMAX];
    L.jthresh = params[P_JTHRESH];
    L.guard = params[P_GUARD];
    L.lookahead = params[P_LOOKAHEAD];
    L.hmask = ((uint64_t)1 << L.hbits) - 1;
    L.blk = blk;
    L.rows = rows;
    L.rblk = rblk;
    L.rnode = rnode;
    L.llat = llat;
    L.lfwd = lfwd;
    L.nodepar = nodepar;
    L.noderet = noderet;
    L.slots = L.width;
    L.bl = L.maxb;
    L.dual_until = -1;

    /* Every table is zeroed, as a fresh simulator's are; +1 keeps
     * calloc from ever being asked for zero bytes. */
    L.ring = calloc((size_t)L.rob + 1, sizeof *L.ring);
    L.srd = calloc((size_t)params[P_NSTORE] + 1, sizeof *L.srd);
    L.weights = calloc((size_t)(L.nperc * (L.hbits + 1)) + 1,
                       sizeof *L.weights);
    L.jrs = calloc((size_t)L.jtab + 1, 1);
    L.seen = calloc((size_t)params[P_NSITE] + 1, 1);
    L.stack = calloc((size_t)L.guard + 1, sizeof *L.stack);
    int status = -1;
    if (!L.ring || !L.srd || !L.weights || !L.jrs || !L.seen || !L.stack)
        goto done;
    /* Register indices address L.reg directly: refuse any outside it. */
    status = -2;
    for (int64_t i = 0; i < params[P_NROWS]; i++) {
        const int32_t *row = rows + i * L.stride;
        if (row[R_DEST] >= NUM_REGS || row[R_NSRC] > L.stride - R_SRC)
            goto done;
        for (int32_t k = 0; k < row[R_NSRC]; k++)
            if (row[R_SRC + k] < 0 || row[R_SRC + k] >= NUM_REGS)
                goto done;
    }

    for (int64_t r = 0; r < L.nrec; r++) {
        const int64_t *B = blk + (int64_t)rblk[r] * B_FIELDS;
        const int32_t *row = rows + B[B_ROWOFF] * L.stride;
        if (rextra[r] > 0)
            advance_to(&L, L.cycle + rextra[r]);
        switch (B[B_TERM]) {
        case TERM_BR:
            fetch_rows(&L, row, B[B_NROWS] - 1);
            branch(&L, r, B, rtaken[r] != 0);
            break;
        case TERM_JMP:
        case TERM_CALL:
            fetch_rows(&L, row, B[B_NROWS]);
            redirect(&L, B[B_SITE]);
            break;
        case TERM_RET:
            fetch_rows(&L, row, B[B_NROWS]);
            advance(&L); /* returns end the fetch cycle */
            if (runder[r])
                advance_to(&L, L.cycle + L.depth); /* RAS underflow */
            break;
        default:
            fetch_rows(&L, row, B[B_NROWS]);
        }
    }
    L.out[O_CYCLES] = L.last > L.cycle ? L.last : L.cycle;
    for (int k = 0; k < O_COUNT; k++)
        out[k] = L.out[k];
    status = 0;
done:
    free(L.ring);
    free(L.srd);
    free(L.weights);
    free(L.jrs);
    free(L.seen);
    free(L.stack);
    return status;
}
