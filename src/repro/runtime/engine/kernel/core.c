/*
 * The table-driven simulator core of the kernel engine.
 *
 * One translation unit serves every plan.  A plan reaches the core as
 * data: one rk_plan of pointers and lengths into the tables that
 * repro.runtime.engine.kernel.lower builds (and mirrors as a ctypes
 * structure, checked against rk_plan_size() at load time).  rk_run
 * walks each scenario exactly the way the oracle does:
 *
 * - segment advancement is the closed form of the batched engine
 *   (duration prefix sums, hard-fault re-execution and recovery terms);
 * - arc matching scans each position's arcs in the pre-sorted
 *   (-required_faults, target) order, so the first hit reproduces the
 *   oracle's most-fault-specific tie-break;
 * - the section 2.2 drop/re-execute decision steps attempt by attempt
 *   against the compiled integer thresholds and evaluates the
 *   keep-vs-drop benefit directly, utility terms in the oracle's order.
 *
 * All integer arithmetic is exact int64 and every float operation runs
 * in the oracle's order, so results are bit-identical to the reference
 * OnlineScheduler as long as the build keeps -ffp-contract=off.
 * Scenarios outside the fast path's state model set a per-scenario
 * fallback flag instead of computing a wrong answer; the dispatcher
 * replays exactly those on the oracle.
 */
#include <stdint.h>

/* The walk is written once for any mask width nw and inlined twice by
 * rk_run: for nw == 1 (up to 64 processes) and for the general case,
 * so the common case runs with a compile-time constant width. */
#if defined(__GNUC__)
#define RK_INLINE static inline __attribute__((always_inline))
#else
#define RK_INLINE static inline
#endif

/* One record per process id.  A utility is either linear,
 * max(0, u0 - slope * t), or a step table: uval[ulo + i] for the
 * count i of breakpoints ubound[ulo ..] strictly below t, the table
 * ending in an INT64_MAX sentinel. */
typedef struct rk_proc {
    int64_t is_hard;
    int64_t deadline;
    int64_t linear;
    int64_t ulo;
    double u0;
    double slope;
} rk_proc;

/* One record per process, in the dependence graph's order. */
typedef struct rk_vertex {
    int64_t pid;
    int64_t pred_lo;  /* predecessors: pred[pred_lo .. pred_hi) */
    int64_t pred_hi;
    double pred_div;  /* 1 + number of predecessors */
} rk_vertex;

/* One record per tree node, dense ids 0 .. n_nodes - 1. */
typedef struct rk_node {
    int64_t orig;     /* the tree's own node id, for switch chains */
    int64_t ent_lo;   /* schedule entries: entries[ent_lo .. ent_hi) */
    int64_t ent_hi;
} rk_node;

/* One record per schedule entry (node position): what every walk
 * reads ... */
typedef struct rk_entry {
    int64_t pid;
    int64_t mu;       /* recovery overhead */
    int64_t arc_lo;   /* arcs[arc_lo .. arc_hi) */
    int64_t arc_hi;
} rk_entry;

/* ... and, at the same index, what a section 2.2 decision reads. */
typedef struct rk_decision {
    int64_t cap;      /* re-execution allotment */
    int64_t natt;     /* attempts with compiled thresholds */
    int64_t thr_lo;   /* thr[thr_lo + attempt * (k + 1) + budget] */
    int64_t keep_lo;  /* keep[keep_lo .. keep_hi) */
    int64_t keep_hi;
    int64_t drop_lo;  /* drop[drop_lo .. drop_hi) */
    int64_t drop_hi;
} rk_decision;

typedef struct rk_arc {
    int64_t lo;
    int64_t hi;
    int64_t required;
    int64_t target;   /* dense node id */
} rk_arc;

/* A benefit term: utility of pid at the fault clock plus delay. */
typedef struct rk_term {
    int64_t pid;
    int64_t delay;
} rk_term;

/* Bit masks are nw words per set, process pid at bit pid of the set. */
typedef struct rk_plan {
    int64_t n_proc;
    int64_t n_nodes;
    int64_t nw;
    int64_t k;
    int64_t period;
    int64_t root;
    const rk_proc *procs;
    const rk_vertex *graph;
    const int64_t *pred;
    const int64_t *ubound;
    const double *uval;
    const uint64_t *hard_mask;
    const uint64_t *soft_mask;
    const rk_node *nodes;
    const uint64_t *node_mask;      /* per node: scheduled processes */
    const uint64_t *node_sdrop;     /* per node: statically dropped */
    const rk_entry *entries;
    const rk_decision *decisions;
    const uint64_t *ent_hardprobe;  /* per entry: hard processes probed */
    const uint64_t *ent_ext;        /* per entry: external hard preds */
    const int64_t *thr;
    const rk_arc *arcs;
    const rk_term *keep;
    const rk_term *drop;
} rk_plan;

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

/* The keep-vs-drop benefit comparison at one fault clock: terms in the
 * oracle's order, each gated by the period, accumulated with the
 * oracle's operation sequence.  alpha is a 2 * n_proc work buffer. */
static int rk_benefit(const rk_plan *p, const rk_decision *dec,
                      const uint64_t *keepm, const uint64_t *dropm,
                      double *alpha, int64_t clock)
{
    double *ka = alpha;
    double *da = alpha + p->n_proc;
    double keep_total = 0.0;
    double drop_total = 0.0;
    int64_t j, t;
    rk_alphas(p, keepm, ka);
    rk_alphas(p, dropm, da);
    for (j = dec->keep_lo; j < dec->keep_hi; j++) {
        t = clock + p->keep[j].delay;
        if (t <= p->period) {
            keep_total = keep_total
                + ka[p->keep[j].pid] * rk_util(p, p->keep[j].pid, t);
        }
    }
    for (j = dec->drop_lo; j < dec->drop_hi; j++) {
        t = clock + p->drop[j].delay;
        if (t <= p->period) {
            drop_total = drop_total
                + da[p->drop[j].pid] * rk_util(p, p->drop[j].pid, t);
        }
    }
    return keep_total > drop_total;
}

/* One scenario.  comp (2 * n_proc), alpha (2 * n_proc) and masks
 * (5 * nw) are work buffers owned by the caller. */
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
            const int64_t mu = entries[e].mu;
            const int64_t f = faults[pid];
            const int64_t *d = dur + pid * width;
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
                            keep = rk_benefit(p, dec, keepm, dropm, alpha,
                                              clock_a);
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

int64_t rk_run(const rk_plan *plan, int64_t n, int64_t width,
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
    {
        int64_t comp[2 * n_proc];
        double alpha[2 * n_proc];
        uint64_t masks[5 * nw];
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
    }
    return 0;
}
