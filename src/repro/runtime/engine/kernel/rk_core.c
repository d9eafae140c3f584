/*
 * The table-driven scheduler core: the one C implementation of the
 * online step, run by the kernel engine and shipped by `repro export`.
 *
 * One translation unit serves every plan.  A plan reaches the core as
 * data: one rk_plan (rk_core.h) of pointers and lengths into the
 * tables that repro.runtime.engine.kernel.lower builds.  rk_run walks
 * each scenario exactly the way the oracle does:
 *
 * - an entry advances the clock in closed form (its attempts'
 *   durations plus one recovery overhead per fault);
 * - arc matching scans each position's arcs in the pre-sorted
 *   (-required_faults, target) order, so the first hit reproduces the
 *   oracle's most-fault-specific tie-break;
 * - the section 2.2 drop/re-execute decision steps attempt by attempt
 *   against the compiled integer thresholds and evaluates the
 *   keep-vs-drop benefit directly from the node's later entries,
 *   utility terms in the oracle's order.
 *
 * All integer arithmetic is exact int64 and every float operation runs
 * in the oracle's order, so results are bit-identical to the reference
 * OnlineScheduler as long as the build keeps -ffp-contract=off.
 * Scenarios outside the fast path's state model set a per-scenario
 * fallback flag instead of computing a wrong answer; the dispatcher
 * replays exactly those on the oracle.  The caller owns every buffer,
 * so the core is C99 without variable-length arrays or allocation.
 */
#include "rk_core.h"

/* The walk is written once for any mask width nw and inlined twice by
 * rk_run: for nw == 1 (up to 64 processes) and for the general case,
 * so the common case runs with a compile-time constant width. */
#if defined(__GNUC__)
#define RK_INLINE static inline __attribute__((always_inline))
#else
#define RK_INLINE static inline
#endif

#define RK_BIT(pid) ((uint64_t)1 << ((pid) & 63))
#define RK_HAS(mask, pid) (((mask)[(pid) >> 6] >> ((pid) & 63)) & 1u)

RK_INLINE double rk_util(const rk_plan *p, int64_t pid, int64_t t)
{
    const rk_proc *u = p->procs + pid;
    const int64_t *b = p->ubound + u->ulo;
    int64_t i = 0;
    if (u->linear) {
        double v = u->u0 - u->slope * (double)t;
        return v > 0.0 ? v : 0.0;
    }
    while (b[i] < t) {
        i++;
    }
    return p->uval[u->ulo + i];
}

/* Stale-value coefficients, the oracle's exact float walk: alpha = 0
 * for dropped processes, 1 for sources, else (1 + sum of predecessor
 * alphas in graph order) / (1 + n_preds). */
static void rk_alphas(const rk_plan *p, const uint64_t *dropped,
                      double *alpha)
{
    const rk_vertex *v = p->graph;
    const rk_vertex *end = v + p->n_proc;
    int64_t j;
    double s;
    for (; v < end; v++) {
        if (RK_HAS(dropped, v->pid)) {
            alpha[v->pid] = 0.0;
            continue;
        }
        if (v->pred_hi == v->pred_lo) {
            alpha[v->pid] = 1.0;
            continue;
        }
        s = 0.0;
        for (j = v->pred_lo; j < v->pred_hi; j++) {
            s += alpha[p->pred[j]];
        }
        alpha[v->pid] = (1.0 + s) / v->pred_div;
    }
}

/* The keep-vs-drop benefit comparison for entry e, whose node's
 * entries end at hi, faulted at clock.  Kept, e completes at clock + mu
 * + AET; dropped, the rest starts at clock; each later soft entry
 * completes after the AETs of the entries up to it.  Terms in the
 * oracle's order, each gated by the period, accumulated with the
 * oracle's operation sequence.  alpha is a 2 * n_proc work buffer. */
static int rk_benefit(const rk_plan *p, int64_t e, int64_t hi,
                      const uint64_t *keepm, const uint64_t *dropm,
                      double *alpha, int64_t clock)
{
    const rk_proc *procs = p->procs;
    double *ka = alpha;
    double *da = alpha + p->n_proc;
    double keep_total = 0.0;
    double drop_total = 0.0;
    int64_t pid = p->entries[e].pid;
    int64_t keep_t = clock + procs[pid].mu + procs[pid].aet;
    int64_t drop_t = clock;
    rk_alphas(p, keepm, ka);
    rk_alphas(p, dropm, da);
    if (keep_t <= p->period) {
        keep_total = keep_total + ka[pid] * rk_util(p, pid, keep_t);
    }
    for (e++; e < hi; e++) {
        pid = p->entries[e].pid;
        keep_t += procs[pid].aet;
        drop_t += procs[pid].aet;
        if (procs[pid].is_hard) {
            continue;
        }
        if (keep_t <= p->period) {
            keep_total = keep_total + ka[pid] * rk_util(p, pid, keep_t);
        }
        if (drop_t <= p->period) {
            drop_total = drop_total + da[pid] * rk_util(p, pid, drop_t);
        }
    }
    return keep_total > drop_total;
}

/* One scenario, on the caller's work buffers (RK_*_LEN). */
RK_INLINE void rk_run_one(const rk_plan *p, const int64_t nw,
                          int64_t *comp, double *alpha, uint64_t *masks,
                          const int64_t *dur, const int64_t *faults,
                          int64_t width, double *util, uint8_t *miss,
                          int64_t *swc, int64_t *fobs, int64_t *chain,
                          uint8_t *fb)
{
    const int64_t n_proc = p->n_proc;
    const rk_entry *entries = p->entries;
    const rk_proc *procs = p->procs;
    const rk_arc *arcs = p->arcs;
    uint64_t *completed = masks;
    uint64_t *dropped = masks + nw;
    uint64_t *keepm = masks + 2 * nw;
    uint64_t *dropm = masks + 3 * nw;
    uint64_t *fdrop = masks + 4 * nw;
    int64_t *comp_pid = comp;
    int64_t *comp_time = comp + n_proc;
    int64_t n_comp = 0;
    int64_t clock = 0;
    int64_t observed = 0;
    int64_t node = p->root;
    int64_t chain_len = 0;
    int64_t w;
    *fb = 0;
    for (w = 0; w < nw; w++) {
        completed[w] = 0;
        dropped[w] = 0;
    }
    for (;;) {
        const uint64_t *nmask = p->node_mask + node * nw;
        const uint64_t *sdrop = p->node_sdrop + node * nw;
        const int64_t ent_hi = p->nodes[node].ent_hi;
        int64_t e;
        int switched = 0;
        /* Node-arrival bail-outs: a malformed tree revisiting executed
         * or dropped processes is outside the fast path's state model
         * -- the oracle handles those scenarios. */
        int bail = chain_len > p->n_nodes;
        for (w = 0; w < nw; w++) {
            bail |= (nmask[w] & (completed[w] | dropped[w])) != 0;
        }
        if (bail) {
            *fb = 1;
            return;
        }
        for (e = p->nodes[node].ent_lo; e < ent_hi; e++) {
            const int64_t pid = entries[e].pid;
            const int64_t col = procs[pid].col;
            const int64_t mu = procs[pid].mu;
            const int64_t f = faults[col];
            const int64_t *d = dur + col * width;
            int64_t j, arc_hi;
            if (f > 0 && !procs[pid].is_hard) {
                /* ---- section 2.2 decision stepping ---- */
                const rk_decision *dec = p->decisions + e;
                int64_t cap = dec->cap;
                int64_t cum = 0;
                int64_t a;
                int hard_missing = 0;
                int did_drop = 0;
                for (w = 0; cap > 0 && w < nw; w++) {
                    if (p->ent_ext[e * nw + w] & ~completed[w]) {
                        /* The oracle's probe constructor would raise
                         * here; replay the scenario on it. */
                        *fb = 1;
                        return;
                    }
                    if (p->hard_mask[w] & ~p->ent_hardprobe[e * nw + w]
                        & ~completed[w]) {
                        hard_missing = 1;
                    }
                }
                for (a = 0; a < f; a++) {
                    int64_t clock_a, obs_a, budget;
                    int keep;
                    cum += d[a < width ? a : width - 1];
                    clock_a = clock + cum + a * mu;
                    obs_a = observed + a + 1;
                    if (a >= cap || hard_missing) {
                        keep = 0;
                    } else if (a >= dec->natt) {
                        /* Fault count beyond the compiled attempt
                         * tables (out-of-model f > k). */
                        *fb = 1;
                        return;
                    } else {
                        budget = p->k - obs_a;
                        if (budget < 0) {
                            budget = 0;
                        }
                        keep = clock_a <= p->thr[dec->thr_lo
                                                 + a * (p->k + 1)
                                                 + budget];
                        if (keep) {
                            for (w = 0; w < nw; w++) {
                                keepm[w] = dropped[w] | sdrop[w];
                                dropm[w] = keepm[w];
                            }
                            dropm[pid >> 6] |= RK_BIT(pid);
                            keep = rk_benefit(p, e, ent_hi, keepm, dropm,
                                              alpha, clock_a);
                        }
                    }
                    if (!keep) {
                        clock = clock_a;
                        observed = obs_a;
                        dropped[pid >> 6] |= RK_BIT(pid);
                        did_drop = 1;
                        break;
                    }
                }
                if (did_drop) {
                    continue;
                }
                cum += d[f < width ? f : width - 1];
                clock += cum + f * mu;
                observed += f;
            } else {
                /* ---- closed-form advancement: fault-free entries and
                 * hard re-executions ---- */
                int64_t ca = f < width ? f : width - 1;
                int64_t spent = 0;
                int64_t a;
                for (a = 0; a <= ca; a++) {
                    spent += d[a];
                }
                spent += (f - ca) * d[width - 1] + f * mu;
                clock += spent;
                observed += f;
            }
            /* ---- completion of pid at clock ---- */
            if (n_comp >= n_proc) {
                *fb = 1;
                return;
            }
            comp_pid[n_comp] = pid;
            comp_time[n_comp] = clock;
            n_comp++;
            completed[pid >> 6] |= RK_BIT(pid);
            arc_hi = entries[e].arc_hi;
            for (j = entries[e].arc_lo; j < arc_hi; j++) {
                if (clock >= arcs[j].lo && clock <= arcs[j].hi
                    && observed >= arcs[j].required) {
                    node = arcs[j].target;
                    chain[chain_len] = p->nodes[node].orig;
                    chain_len++;
                    switched = 1;
                    break;
                }
            }
            if (switched) {
                break;
            }
        }
        if (!switched) {
            break;
        }
    }
    /* ---- finalize: implicit drops, stale coefficients, utility in
     * completion order, hard-deadline misses ---- */
    {
        double u = 0.0;
        int m = 0;
        int64_t i, pid, t;
        for (w = 0; w < nw; w++) {
            fdrop[w] = p->soft_mask[w] & ~completed[w];
            if (p->hard_mask[w] & ~completed[w]) {
                m = 1;
            }
        }
        rk_alphas(p, fdrop, alpha);
        for (i = 0; i < n_comp; i++) {
            pid = comp_pid[i];
            t = comp_time[i];
            if (procs[pid].is_hard) {
                if (t > procs[pid].deadline) {
                    m = 1;
                }
            } else if (t <= p->period) {
                u = u + alpha[pid] * rk_util(p, pid, t);
            }
        }
        *util = u;
        *miss = (uint8_t)m;
        *swc = chain_len;
        *fobs = observed;
    }
}

int64_t rk_plan_size(void)
{
    return (int64_t)sizeof(rk_plan);
}

int64_t rk_run(const rk_plan *plan, int64_t *comp, double *alpha,
               uint64_t *masks, int64_t n, int64_t width,
               const int64_t *durations, const int64_t *fault_counts,
               double *utilities, uint8_t *deadline_miss,
               int64_t *switch_counts, int64_t *faults_observed,
               int64_t *chains, uint8_t *fallback)
{
    const int64_t n_proc = plan->n_proc;
    const int64_t nw = plan->nw;
    int64_t s;
    if (n < 0 || width < 1 || n_proc < 1 || nw < 1) {
        return -1;
    }
    for (s = 0; s < n; s++) {
        const int64_t *dur = durations + s * n_proc * width;
        const int64_t *faults = fault_counts + s * n_proc;
        int64_t *chain = chains + s * (plan->n_nodes + 1);
        if (nw == 1) {
            rk_run_one(plan, 1, comp, alpha, masks, dur, faults, width,
                       utilities + s, deadline_miss + s,
                       switch_counts + s, faults_observed + s, chain,
                       fallback + s);
        } else {
            rk_run_one(plan, nw, comp, alpha, masks, dur, faults, width,
                       utilities + s, deadline_miss + s,
                       switch_counts + s, faults_observed + s, chain,
                       fallback + s);
        }
    }
    return 0;
}
