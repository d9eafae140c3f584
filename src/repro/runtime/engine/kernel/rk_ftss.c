/*
 * The design-time entry points of the scheduler core: one whole FTSS
 * run (paper section 5.2, Fig. 8), the interval partitioning of one
 * FTQS candidate and its expected-utility profiles (section 5.1) and
 * the section 2.2 threshold table of a lowered plan.
 *
 * This file is compiled appended to rk_core.c, as one translation
 * unit (repro.runtime.engine.kernel.build), so it reads an
 * application through the same rk_plan records, every per-process
 * constant from its rk_proc, and evaluates it with the same rk_util
 * and rk_alphas; `repro export` ships rk_core.{h,c} without it.  The
 * application part of every rk_plan (procs, graph, pred, ubound, uval,
 * hard_mask, soft_mask) is numbered in sorted-name order, plans
 * included, so every smallest-name tie-break of the oracle is a
 * smallest-pid one, and rk_ftss, rk_partition, rk_expected and
 * rk_thresholds read the same records of one application.
 *
 * rk_ftss is an exact clone of repro.scheduling.ftss.ftss_reference
 * with fast_paths semantics: the same list-scheduling loop, the same
 * integer S_iH probes (with the hard-tail walk collapsed to one bound:
 * a full-budget cap absorbs every fault no strictly costlier entry
 * claims, so of the hard entries appended only the costliest matters)
 * and every float operation in the oracle's order; it also reports the
 * latest start of its final schedulability check, the schedule's t_ic
 * (SchedulingContext.latest_start).  rk_partition is
 * repro.quasistatic.intervals.partition of one candidate clamped at
 * the child's t_ic: both tails' profiles, their critical points and
 * the gain scan, each profile evaluated as rk_expected evaluates it
 * (TailProfile.expected at a list of switch times, with libm's erf).
 * rk_thresholds fills a plan's thr table as lower.node_thresholds
 * does, each cell one feasibility.latest_start walk (rk_walk, which
 * rk_ftss's final check walks too).  All are bit-identical to their
 * oracles as long as the build keeps -ffp-contract=off.  The caller
 * owns every buffer.
 */
#include <math.h>

/* Per-process graph columns beside the rk_plan, pid-indexed. */
typedef struct rk_sproc {
    int64_t succ_lo;  /* successors: succ[succ_lo .. succ_hi) */
    int64_t succ_hi;
} rk_sproc;

typedef struct rk_sched {
    const rk_sproc *sprocs;
    const int64_t *succ;        /* graph successor order */
    const uint64_t *pred_mask;  /* nw words per pid */
    const int64_t *edf;         /* hard pids, modified-deadline EDF order */
    int64_t n_edf;
} rk_sched;

/* One soft process of a schedule tail, as TailTerm has it. */
typedef struct rk_tterm {
    int64_t pid;
    int64_t count;
    int64_t lo_sum;
    int64_t hi_sum;
    double alpha;
    double mean;
    double variance;
} rk_tterm;

/* Slots of one recovery top-list: at most one entry per fault and
 * one per process, plus one being inserted or probed. */
#define RK_TOP_SLOTS(n_proc, budget) \
    (((budget) > 1 ? ((budget) < (n_proc) ? (budget) : (n_proc)) : 1) + 2)

/* rk_ftss outcomes: a schedule, None from the loop, or a schedule the
 * final schedulability check rejects (None after validating it). */
#define RK_FTSS_OK 0
#define RK_FTSS_UNSCHEDULABLE 1
#define RK_FTSS_LATE 2

#if defined(__GNUC__)
#define RK_CTZ(x) ((int64_t)__builtin_ctzll(x))
#else
static int64_t rk_ctz(uint64_t x)
{
    int64_t n = 0;
    while (!(x & 1u)) {
        x >>= 1;
        n++;
    }
    return n;
}
#define RK_CTZ(x) rk_ctz(x)
#endif

/* The smallest pid >= from in mask, or -1. */
static int64_t rk_next(const uint64_t *mask, int64_t nw, int64_t from)
{
    int64_t w = from >> 6;
    uint64_t m;
    if (w >= nw) {
        return -1;
    }
    m = mask[w] & (~(uint64_t)0 << (from & 63));
    for (;;) {
        if (m) {
            return (w << 6) + RK_CTZ(m);
        }
        if (++w >= nw) {
            return -1;
        }
        m = mask[w];
    }
}

#define RK_EACH(pid, mask, nw) \
    for ((pid) = rk_next((mask), (nw), 0); (pid) >= 0; \
         (pid) = rk_next((mask), (nw), (pid) + 1))

static int rk_none(const uint64_t *a, int64_t nw)
{
    int64_t w;
    for (w = 0; w < nw; w++) {
        if (a[w]) {
            return 0;
        }
    }
    return 1;
}

/* a & ~b is not empty */
static int rk_outside(const uint64_t *a, const uint64_t *b, int64_t nw)
{
    int64_t w;
    for (w = 0; w < nw; w++) {
        if (a[w] & ~b[w]) {
            return 1;
        }
    }
    return 0;
}

static int rk_meets(const uint64_t *a, const uint64_t *b, int64_t nw)
{
    int64_t w;
    for (w = 0; w < nw; w++) {
        if (a[w] & b[w]) {
            return 1;
        }
    }
    return 0;
}

static int64_t rk_min(int64_t a, int64_t b)
{
    return a < b ? a : b;
}

/* The cost of one recovery of a process. */
RK_INLINE int64_t rk_need(const rk_proc *proc)
{
    return proc->wcet + proc->mu;
}

/* The incremental S_iH state of a schedule prefix: the recovery
 * demand compressed to its top-cost entries (TopNeeds), or the private
 * demand without slack sharing. */
typedef struct rk_oracle {
    int64_t prefix_wcet;
    int64_t private_demand;
    int64_t n_top;
    int64_t soft_limit;
    int64_t has_soft_limit;
    int64_t infeasible;
    int64_t *top_cost;
    int64_t *top_cap;
    uint64_t *hard_done;
} rk_oracle;

/* One FTSS run. */
typedef struct rk_frun {
    const rk_plan *p;
    const rk_sched *s;
    int64_t nw;
    int64_t budget;
    int64_t start;
    int64_t sharing;
    int64_t wcet_opt;
    double weight;
    double greedy_weight;
    const uint64_t *completed;
    int64_t clock;
    uint64_t *settled;
    uint64_t *dropped;
    uint64_t *ready;
    uint64_t *pool;
    uint64_t *left;     /* greedy: not yet ordered */
    uint64_t *avail;    /* greedy: ready to order */
    uint64_t *hdrop;    /* hypothetical dropped set */
    uint64_t *picked;   /* dropping decisions */
    uint64_t *rest;
    uint64_t *fits0;
    uint64_t *fits1;
    uint64_t *xdrop;
    uint64_t *passed;
    double *galpha;
    double *halpha;
    int64_t *order;
    int64_t *order2;
    int64_t *merge_cost;
    int64_t *merge_cap;
    rk_oracle o;
    rk_oracle x0;
    rk_oracle x1;
} rk_frun;

/* ---- TopNeeds ---- */
static void rk_top_add(rk_oracle *o, int64_t budget, int64_t cost,
                       int64_t cap)
{
    int64_t i, j, total;
    if (cap <= 0 || budget == 0) {
        return;
    }
    i = 0;
    while (i < o->n_top && o->top_cost[i] >= cost) {
        i++;
    }
    for (j = o->n_top; j > i; j--) {
        o->top_cost[j] = o->top_cost[j - 1];
        o->top_cap[j] = o->top_cap[j - 1];
    }
    o->top_cost[i] = cost;
    o->top_cap[i] = rk_min(cap, budget);
    o->n_top++;
    total = 0;
    for (j = 0; j < o->n_top; j++) {
        total += o->top_cap[j];
        if (total >= budget) {
            o->n_top = j + 1;
            break;
        }
    }
}

/* The worst-case recovery demand, with one extra (cost, cap) entry
 * (cap 0: none). */
static int64_t rk_top_demand(const rk_oracle *o, int64_t budget,
                             int64_t extra_cost, int64_t extra_cap)
{
    int64_t remaining = budget;
    int64_t total = 0;
    int64_t i, take;
    extra_cap = rk_min(extra_cap, budget);
    for (i = 0; i < o->n_top; i++) {
        if (remaining <= 0) {
            return total;
        }
        if (extra_cap > 0 && extra_cost >= o->top_cost[i]) {
            take = rk_min(extra_cap, remaining);
            total += take * extra_cost;
            remaining -= take;
            extra_cap = 0;
            if (remaining <= 0) {
                return total;
            }
        }
        take = rk_min(o->top_cap[i], remaining);
        total += take * o->top_cost[i];
        remaining -= take;
    }
    if (extra_cap > 0 && remaining > 0) {
        total += rk_min(extra_cap, remaining) * extra_cost;
    }
    return total;
}

/* The shared demand of items (sorted by cost, descending) plus one
 * (top_cost, budget) entry. */
static int64_t rk_demand_with_max(const int64_t *cost, const int64_t *cap,
                                  int64_t n, int64_t top_cost,
                                  int64_t faults)
{
    int64_t remaining = faults;
    int64_t total = 0;
    int64_t i, take;
    for (i = 0; i < n; i++) {
        if (cost[i] <= top_cost || remaining <= 0) {
            break;
        }
        take = rk_min(cap[i], remaining);
        total += take * cost[i];
        remaining -= take;
    }
    if (remaining > 0) {
        total += remaining * top_cost;
    }
    return total;
}

/* ---- the S_iH probes ---- */

/* The latest clock before the remaining hard tail (skip left out) at
 * which every tail deadline and the period hold, from the prefix's
 * demand items or its private demand. */
static int64_t rk_tail_limit(const rk_frun *f, const rk_oracle *o,
                             const int64_t *cost, const int64_t *cap,
                             int64_t n, int64_t demand, int64_t skip)
{
    const rk_proc *procs = f->p->procs;
    int64_t cum = 0;
    int64_t limit = 0;
    int64_t has_limit = 0;
    int64_t running_max = -1;
    int64_t i, q, need, slack;
    for (i = 0; i < f->s->n_edf; i++) {
        q = f->s->edf[i];
        if (q == skip || RK_HAS(f->completed, q) || RK_HAS(o->hard_done, q)) {
            continue;
        }
        cum += procs[q].wcet;
        need = rk_need(procs + q);
        if (!f->sharing) {
            demand += need * f->budget;
        } else if (need > running_max) {
            running_max = need;
            demand = rk_demand_with_max(cost, cap, n, running_max,
                                        f->budget);
        }
        slack = procs[q].deadline - cum - demand;
        if (!has_limit || slack < limit) {
            limit = slack;
            has_limit = 1;
        }
    }
    slack = f->p->period - cum - demand;
    return !has_limit || slack < limit ? slack : limit;
}

static int64_t rk_soft_limit(const rk_frun *f, rk_oracle *o)
{
    if (!o->has_soft_limit) {
        o->soft_limit = rk_tail_limit(
            f, o, o->top_cost, o->top_cap, o->n_top,
            f->sharing ? rk_top_demand(o, f->budget, -1, 0)
                       : o->private_demand,
            -1);
        o->has_soft_limit = 1;
    }
    return o->soft_limit;
}

/* Does prefix + q (with r re-executions) + the remaining hard tail
 * stay schedulable? */
static int rk_check(rk_frun *f, rk_oracle *o, int64_t q, int64_t r)
{
    const rk_proc *proc = f->p->procs + q;
    const int64_t hard = proc->is_hard;
    const int64_t clock = f->start + o->prefix_wcet + proc->wcet;
    const int64_t need = rk_need(proc);
    const int64_t *cost = o->top_cost;
    const int64_t *cap = o->top_cap;
    int64_t n = o->n_top;
    int64_t demand, i, j;
    if (o->infeasible) {
        return 0;
    }
    if (!hard && r == 0) {
        return clock <= rk_soft_limit(f, o);
    }
    if (!f->sharing) {
        demand = o->private_demand + need * rk_min(r, f->budget);
    } else if (r > 0) {
        demand = rk_top_demand(o, f->budget, need, r);
        /* The prefix items with this one inserted, costs descending
         * (the order among equal costs does not change a demand). */
        i = 0;
        while (i < n && o->top_cost[i] > need) {
            f->merge_cost[i] = o->top_cost[i];
            f->merge_cap[i] = o->top_cap[i];
            i++;
        }
        f->merge_cost[i] = need;
        f->merge_cap[i] = rk_min(r, f->budget);
        for (j = i; j < n; j++) {
            f->merge_cost[j + 1] = o->top_cost[j];
            f->merge_cap[j + 1] = o->top_cap[j];
        }
        cost = f->merge_cost;
        cap = f->merge_cap;
        n++;
    } else {
        demand = rk_top_demand(o, f->budget, -1, 0);
    }
    if (hard && clock + demand > proc->deadline) {
        return 0;
    }
    return clock <= rk_tail_limit(f, o, cost, cap, n, demand, q);
}

/* GetSchedulable over cand, into out. */
static void rk_schedulable(rk_frun *f, rk_oracle *o, const uint64_t *cand,
                           uint64_t *out)
{
    const int64_t nw = f->nw;
    int64_t w, q, limit;
    int any_soft = 0;
    for (w = 0; w < nw; w++) {
        out[w] = 0;
        any_soft |= (cand[w] & f->p->soft_mask[w]) != 0;
    }
    if (o->infeasible) {
        return;
    }
    if (any_soft) {
        const int64_t base = f->start + o->prefix_wcet;
        limit = rk_soft_limit(f, o);
        RK_EACH(q, cand, nw) {
            if (!f->p->procs[q].is_hard
                && base + f->p->procs[q].wcet <= limit) {
                out[q >> 6] |= RK_BIT(q);
            }
        }
    }
    RK_EACH(q, cand, nw) {
        if (f->p->procs[q].is_hard && rk_check(f, o, q, f->budget)) {
            out[q >> 6] |= RK_BIT(q);
        }
    }
}

static void rk_on_schedule(const rk_frun *f, rk_oracle *o, int64_t q,
                           int64_t r)
{
    const rk_proc *proc = f->p->procs + q;
    int64_t demand;
    o->prefix_wcet += proc->wcet;
    if (r > 0) {
        o->has_soft_limit = 0;
        if (f->sharing) {
            rk_top_add(o, f->budget, rk_need(proc), r);
        } else {
            o->private_demand += rk_need(proc) * rk_min(r, f->budget);
        }
    }
    if (proc->is_hard) {
        o->hard_done[q >> 6] |= RK_BIT(q);
        o->has_soft_limit = 0;
        demand = f->sharing ? rk_top_demand(o, f->budget, -1, 0)
                            : o->private_demand;
        if (f->start + o->prefix_wcet + demand > proc->deadline) {
            o->infeasible = 1;
        }
    }
}

/* dst = src with q (r re-executions) appended to the prefix. */
static void rk_extended(const rk_frun *f, rk_oracle *dst,
                        const rk_oracle *src, int64_t q, int64_t r)
{
    int64_t i;
    dst->prefix_wcet = src->prefix_wcet;
    dst->private_demand = src->private_demand;
    dst->n_top = src->n_top;
    dst->soft_limit = src->soft_limit;
    dst->has_soft_limit = src->has_soft_limit;
    dst->infeasible = src->infeasible;
    for (i = 0; i < src->n_top; i++) {
        dst->top_cost[i] = src->top_cost[i];
        dst->top_cap[i] = src->top_cap[i];
    }
    for (i = 0; i < f->nw; i++) {
        dst->hard_done[i] = src->hard_done[i];
    }
    rk_on_schedule(f, dst, q, r);
}

/* ---- the utility heuristics ---- */

/* The highest MU priority in cand at clock, smallest pid on ties. */
static int64_t rk_best_soft(const rk_frun *f, const uint64_t *cand,
                            int64_t clock, const uint64_t *dropped,
                            const double *alpha, double weight)
{
    const rk_plan *p = f->p;
    const rk_sproc *sp = f->s->sprocs;
    double best = 0.0;
    int64_t pick = -1;
    int64_t q, j, s, done, completion;
    double own, look, value;
    RK_EACH(q, cand, f->nw) {
        completion = clock + p->procs[q].aet;
        own = completion > p->period
            ? 0.0 : alpha[q] * rk_util(p, q, completion);
        look = 0.0;
        for (j = sp[q].succ_lo; j < sp[q].succ_hi; j++) {
            s = f->s->succ[j];
            if (p->procs[s].is_hard || RK_HAS(dropped, s)) {
                continue;
            }
            done = completion + p->procs[s].aet;
            if (done > p->period) {
                continue;
            }
            look = look + alpha[s] * rk_util(p, s, done);
        }
        value = (own + weight * look)
            / (double)(p->procs[q].aet > 1 ? p->procs[q].aet : 1);
        if (pick < 0 || value > best) {
            best = value;
            pick = q;
        }
    }
    return pick;
}

/* The greedy soft order of pool from now with dropped set, into out;
 * returns its length. */
static int64_t rk_greedy(rk_frun *f, const uint64_t *pool, int64_t now,
                         const uint64_t *dropped, int64_t *out)
{
    const int64_t nw = f->nw;
    const rk_sproc *sp = f->s->sprocs;
    int64_t n = 0;
    int64_t q, j, s, w;
    rk_alphas(f->p, dropped, f->galpha);
    for (w = 0; w < nw; w++) {
        f->left[w] = pool[w];
        f->avail[w] = 0;
    }
    RK_EACH(q, pool, nw) {
        if (!rk_meets(f->s->pred_mask + q * nw, pool, nw)) {
            f->avail[q >> 6] |= RK_BIT(q);
        }
    }
    while (!rk_none(f->left, nw)) {
        q = rk_best_soft(f, f->avail, now, dropped, f->galpha,
                         f->greedy_weight);
        out[n++] = q;
        f->left[q >> 6] &= ~RK_BIT(q);
        f->avail[q >> 6] &= ~RK_BIT(q);
        for (j = sp[q].succ_lo; j < sp[q].succ_hi; j++) {
            s = f->s->succ[j];
            if (RK_HAS(f->left, s)
                && !rk_meets(f->s->pred_mask + s * nw, f->left, nw)) {
                f->avail[s >> 6] |= RK_BIT(s);
            }
        }
        now += f->p->procs[q].aet;
    }
    return n;
}

/* The hypothetical utility of running lead (-1: none), then order
 * without skip (-1: none), from now; every soft process outside that
 * run counts as dropped. */
static double rk_hyp(rk_frun *f, int64_t lead, const int64_t *order,
                     int64_t n, int64_t skip, int64_t now,
                     const uint64_t *dropped)
{
    const rk_plan *p = f->p;
    double total = 0.0;
    int64_t i, q, w;
    for (w = 0; w < f->nw; w++) {
        f->hdrop[w] = p->soft_mask[w];
    }
    if (lead >= 0) {
        f->hdrop[lead >> 6] &= ~RK_BIT(lead);
    }
    for (i = 0; i < n; i++) {
        if (order[i] != skip) {
            f->hdrop[order[i] >> 6] &= ~RK_BIT(order[i]);
        }
    }
    for (w = 0; w < f->nw; w++) {
        f->hdrop[w] |= dropped[w];
    }
    rk_alphas(p, f->hdrop, f->halpha);
    if (lead >= 0) {
        now += p->procs[lead].aet;
        if (now <= p->period) {
            total = total + f->halpha[lead] * rk_util(p, lead, now);
        }
    }
    for (i = 0; i < n; i++) {
        q = order[i];
        if (q == skip) {
            continue;
        }
        now += p->procs[q].aet;
        if (now > p->period) {
            continue;
        }
        total = total + f->halpha[q] * rk_util(p, q, now);
    }
    return total;
}

/* The greedy order of the unsettled soft pool and its utility:
 * order2[0 .. return) and *keep. */
static int64_t rk_keep_order(rk_frun *f, double *keep)
{
    int64_t w, n;
    for (w = 0; w < f->nw; w++) {
        f->pool[w] = f->p->soft_mask[w] & ~f->settled[w];
    }
    n = rk_greedy(f, f->pool, f->clock, f->dropped, f->order2);
    *keep = rk_hyp(f, -1, f->order2, n, -1, f->clock, f->dropped);
    return n;
}

/* DetermineDropping: the ready soft processes whose removal does not
 * lower the hypothetical utility, into picked. */
static void rk_determine_dropping(rk_frun *f)
{
    const int64_t nw = f->nw;
    double keep;
    int64_t n, q, w;
    int any = 0;
    for (w = 0; w < nw; w++) {
        f->picked[w] = 0;
        any |= (f->ready[w] & f->p->soft_mask[w]) != 0;
    }
    if (!any) {
        return;
    }
    n = rk_keep_order(f, &keep);
    RK_EACH(q, f->ready, nw) {
        if (!f->p->procs[q].is_hard
            && keep <= rk_hyp(f, -1, f->order2, n, q, f->clock,
                              f->dropped)) {
            f->picked[q >> 6] |= RK_BIT(q);
        }
    }
}

/* ForcedDropping: the ready soft process whose removal loses least,
 * or -1. */
static int64_t rk_forced_choice(rk_frun *f)
{
    double keep, loss, least = 0.0;
    int64_t victim = -1;
    int64_t n, q, w;
    int any = 0;
    for (w = 0; w < f->nw; w++) {
        any |= (f->ready[w] & f->p->soft_mask[w]) != 0;
    }
    if (!any) {
        return -1;
    }
    n = rk_keep_order(f, &keep);
    RK_EACH(q, f->ready, f->nw) {
        if (f->p->procs[q].is_hard) {
            continue;
        }
        loss = keep - rk_hyp(f, -1, f->order2, n, q, f->clock, f->dropped);
        if (victim < 0 || loss < least) {
            least = loss;
            victim = q;
        }
    }
    return victim;
}

static void rk_settle(rk_frun *f, int64_t q)
{
    const rk_sproc *sp = f->s->sprocs;
    const int64_t nw = f->nw;
    int64_t j, s;
    f->settled[q >> 6] |= RK_BIT(q);
    f->ready[q >> 6] &= ~RK_BIT(q);
    for (j = sp[q].succ_lo; j < sp[q].succ_hi; j++) {
        s = f->s->succ[j];
        if (!RK_HAS(f->settled, s)
            && !rk_outside(f->s->pred_mask + s * nw, f->settled, nw)) {
            f->ready[s >> 6] |= RK_BIT(s);
        }
    }
}

static void rk_drop(rk_frun *f, int64_t q)
{
    f->dropped[q >> 6] |= RK_BIT(q);
    rk_settle(f, q);
}

/* GetBestProcess over cand: the best soft one by MU priority, else
 * the hard one with the earliest deadline. */
static int64_t rk_best_process(rk_frun *f, const uint64_t *cand)
{
    const rk_proc *procs = f->p->procs;
    int64_t w, q, pick = -1;
    int any = 0;
    for (w = 0; w < f->nw; w++) {
        f->pool[w] = cand[w] & f->p->soft_mask[w];
        any |= f->pool[w] != 0;
    }
    if (any) {
        rk_alphas(f->p, f->dropped, f->galpha);
        return rk_best_soft(f, f->pool, f->clock, f->dropped, f->galpha,
                            f->weight);
    }
    RK_EACH(q, cand, f->nw) {
        if (procs[q].is_hard
            && (pick < 0 || procs[q].deadline < procs[pick].deadline)) {
            pick = q;
        }
    }
    return pick;
}

/* Is the r-th re-execution of q worth more than dropping q on its
 * r-th fault? rest: the other unsettled soft processes. */
static int rk_beneficial(rk_frun *f, int64_t q, int64_t r)
{
    const rk_proc *proc = f->p->procs + q;
    const int64_t t = f->wcet_opt ? proc->wcet : proc->aet;
    const int64_t mu = proc->mu;
    const int64_t clock = f->clock;
    const int64_t giveup = r > 0 ? clock + r * t + (r - 1) * mu : clock;
    double keep, drop;
    int64_t n, w;
    n = rk_greedy(f, f->rest, clock + (r + 1) * t + r * mu, f->dropped,
                  f->order);
    keep = rk_hyp(f, q, f->order, n, -1, clock + r * (t + mu), f->dropped);
    for (w = 0; w < f->nw; w++) {
        f->xdrop[w] = f->dropped[w];
    }
    f->xdrop[q >> 6] |= RK_BIT(q);
    n = rk_greedy(f, f->rest, giveup, f->xdrop, f->order);
    drop = rk_hyp(f, -1, f->order, n, -1, giveup, f->xdrop);
    return keep > drop;
}

/* The re-executions the soft process q receives. */
static int64_t rk_allotment(rk_frun *f, int64_t q, int64_t soft_reexec)
{
    const int64_t nw = f->nw;
    int64_t r, w, granted = 0;
    int has_rest = 0;
    int has_fits = 0;
    if (!soft_reexec || f->budget == 0) {
        return 0;
    }
    for (w = 0; w < nw; w++) {
        f->rest[w] = f->p->soft_mask[w] & ~f->settled[w];
    }
    f->rest[q >> 6] &= ~RK_BIT(q);
    has_rest = !rk_none(f->rest, nw);
    for (r = 1; r <= f->budget; r++) {
        if (!rk_check(f, &f->o, q, r)) {
            break;
        }
        if (has_rest) {
            /* Would the reserved slack push other soft processes out
             * of schedulability?  The no-grant side does not depend
             * on r. */
            if (!has_fits) {
                rk_extended(f, &f->x0, &f->o, q, 0);
                rk_schedulable(f, &f->x0, f->rest, f->fits0);
                has_fits = 1;
            }
            rk_extended(f, &f->x1, &f->o, q, r);
            rk_schedulable(f, &f->x1, f->fits0, f->fits1);
            if (rk_outside(f->fits0, f->fits1, nw)) {
                break;
            }
        }
        if (!rk_beneficial(f, q, r)) {
            break;
        }
        granted = r;
    }
    return granted;
}

/* A run of entries walked as feasibility.latest_start walks it: the
 * clock and worst-case total so far, their recovery demand in an
 * oracle's top-list (or its private demand), and the least slack to a
 * hard deadline. */
typedef struct rk_walk {
    rk_oracle *o;
    int64_t budget;
    int64_t sharing;
    int64_t clock;
    int64_t total;
    int64_t limit;
    int64_t has_limit;
} rk_walk;

static void rk_walk_start(rk_walk *w, rk_oracle *o, int64_t budget,
                          int64_t sharing)
{
    w->o = o;
    w->budget = budget;
    w->sharing = sharing;
    w->clock = 0;
    w->total = 0;
    w->limit = 0;
    w->has_limit = 0;
    o->n_top = 0;
    o->private_demand = 0;
}

/* Appends one entry, proc with cap re-executions, to the walk. */
static void rk_walk_add(rk_walk *w, const rk_proc *proc, int64_t cap)
{
    int64_t slack;
    w->clock += proc->wcet;
    if (cap > 0) {
        if (w->sharing) {
            rk_top_add(w->o, w->budget, rk_need(proc), cap);
        } else {
            w->o->private_demand += rk_need(proc) * rk_min(cap, w->budget);
        }
    }
    w->total = w->clock
        + (w->sharing ? rk_top_demand(w->o, w->budget, -1, 0)
                      : w->o->private_demand);
    if (proc->is_hard) {
        slack = proc->deadline - w->total;
        if (!w->has_limit || slack < w->limit) {
            w->limit = slack;
            w->has_limit = 1;
        }
    }
}

/* The walk's latest start: its least slack, the period's included. */
static int64_t rk_walk_limit(const rk_walk *w, int64_t period)
{
    const int64_t slack = period - w->total;
    return !w->has_limit || slack < w->limit ? slack : w->limit;
}

/* The latest start at which entries (after completed) stay
 * schedulable, or the period's slack; *missing when a hard process
 * is neither completed nor scheduled. */
static int64_t rk_latest_start(rk_frun *f, const int64_t *pids,
                               const int64_t *caps, int64_t n,
                               int *missing)
{
    rk_walk walk;
    int64_t i, q, w;
    for (w = 0; w < f->nw; w++) {
        f->pool[w] = f->completed[w];
    }
    rk_walk_start(&walk, &f->x0, f->budget, f->sharing);
    for (i = 0; i < n; i++) {
        q = pids[i];
        f->pool[q >> 6] |= RK_BIT(q);
        rk_walk_add(&walk, f->p->procs + q, caps[i]);
    }
    *missing = rk_outside(f->p->hard_mask, f->pool, f->nw);
    return rk_walk_limit(&walk, f->p->period);
}

static void rk_oracle_init(rk_oracle *o, int64_t *ints, int64_t slots,
                           uint64_t *hard_done, int64_t nw)
{
    int64_t w;
    o->prefix_wcet = 0;
    o->private_demand = 0;
    o->n_top = 0;
    o->soft_limit = 0;
    o->has_soft_limit = 0;
    o->infeasible = 0;
    o->top_cost = ints;
    o->top_cap = ints + slots;
    o->hard_done = hard_done;
    for (w = 0; w < nw; w++) {
        hard_done[w] = 0;
    }
}

/* One FTSS run from start with budget faults to tolerate, after the
 * completed and dropped sets (nw words each).  flags: drop heuristic,
 * soft re-execution, slack sharing, WCET decision times.  Writes the
 * scheduled pids and re-execution caps (n_proc slots each) and their
 * count, and, unless the loop found the run unschedulable, the latest
 * start of the final check (the schedule's t_ic), and returns an
 * RK_FTSS_* outcome, or -1 for out-of-range arguments.  The caller's
 * work buffers hold 2 n_proc + 8 RK_TOP_SLOTS(n_proc, budget) ints,
 * 2 n_proc doubles and 16 nw mask words. */
int64_t rk_ftss(const rk_plan *plan, const rk_sched *sched,
                const int64_t *flags, double weight, double greedy_weight,
                int64_t budget, int64_t start, const uint64_t *completed,
                const uint64_t *dropped, int64_t *work_i, double *work_d,
                uint64_t *work_m, int64_t *out_pid, int64_t *out_cap,
                int64_t *out_n, int64_t *out_latest)
{
    const int64_t n_proc = plan->n_proc;
    const int64_t nw = plan->nw;
    const int64_t slots = RK_TOP_SLOTS(n_proc, budget);
    rk_frun run;
    rk_frun *f = &run;
    int64_t q, w, r, n = 0;
    int missing;
    *out_n = 0;
    if (n_proc < 1 || nw < 1 || start < 0) {
        return -1;
    }
    f->p = plan;
    f->s = sched;
    f->nw = nw;
    f->budget = budget;
    f->start = start;
    f->sharing = flags[2];
    f->wcet_opt = flags[3];
    f->weight = weight;
    f->greedy_weight = greedy_weight;
    f->completed = completed;
    f->clock = start;
    f->settled = work_m;
    f->dropped = work_m + nw;
    f->ready = work_m + 2 * nw;
    f->pool = work_m + 3 * nw;
    f->left = work_m + 4 * nw;
    f->avail = work_m + 5 * nw;
    f->hdrop = work_m + 6 * nw;
    f->picked = work_m + 7 * nw;
    f->rest = work_m + 8 * nw;
    f->fits0 = work_m + 9 * nw;
    f->fits1 = work_m + 10 * nw;
    f->xdrop = work_m + 11 * nw;
    f->passed = work_m + 12 * nw;
    f->galpha = work_d;
    f->halpha = work_d + n_proc;
    f->order = work_i;
    f->order2 = work_i + n_proc;
    f->merge_cost = work_i + 2 * n_proc;
    f->merge_cap = work_i + 2 * n_proc + slots;
    rk_oracle_init(&f->o, work_i + 2 * n_proc + 2 * slots, slots,
                   work_m + 13 * nw, nw);
    rk_oracle_init(&f->x0, work_i + 2 * n_proc + 4 * slots, slots,
                   work_m + 14 * nw, nw);
    rk_oracle_init(&f->x1, work_i + 2 * n_proc + 6 * slots, slots,
                   work_m + 15 * nw, nw);
    for (w = 0; w < nw; w++) {
        f->settled[w] = completed[w] | dropped[w];
        f->dropped[w] = dropped[w];
        f->ready[w] = 0;
    }
    for (q = 0; q < n_proc; q++) {
        if (!RK_HAS(f->settled, q)
            && !rk_outside(sched->pred_mask + q * nw, f->settled, nw)) {
            f->ready[q >> 6] |= RK_BIT(q);
        }
    }

    while (!rk_none(f->ready, nw)) {
        if (flags[0]) {
            rk_determine_dropping(f);
            RK_EACH(q, f->picked, nw) {
                rk_drop(f, q);
            }
            if (rk_none(f->ready, nw)) {
                break;
            }
        }
        rk_schedulable(f, &f->o, f->ready, f->passed);
        while (rk_none(f->passed, nw)) {
            q = rk_forced_choice(f);
            if (q < 0) {
                break;
            }
            rk_drop(f, q);
            if (rk_none(f->ready, nw)) {
                break;
            }
            rk_schedulable(f, &f->o, f->ready, f->passed);
        }
        if (rk_none(f->ready, nw)) {
            break;
        }
        if (rk_none(f->passed, nw)) {
            *out_n = n;
            return RK_FTSS_UNSCHEDULABLE;
        }
        q = rk_best_process(f, f->passed);
        r = plan->procs[q].is_hard ? budget : rk_allotment(f, q, flags[1]);
        out_pid[n] = q;
        out_cap[n] = r;
        n++;
        f->clock += f->wcet_opt ? plan->procs[q].wcet : plan->procs[q].aet;
        rk_on_schedule(f, &f->o, q, r);
        rk_settle(f, q);
    }
    *out_n = n;
    *out_latest = rk_latest_start(f, out_pid, out_cap, n, &missing);
    return missing || start > *out_latest ? RK_FTSS_LATE : RK_FTSS_OK;
}

/* ---- the section 2.2 thresholds of a lowered plan ---- */

/* lower.NEVER: the start bound of a probe the oracle rejects. */
#define RK_NEVER (-((int64_t)1 << 62))

/* The latest start of the S_iH probe from entry e of a node whose
 * entries end at hi, on a started walk: e with head re-executions,
 * then every later entry with hard caps the walk's budget and soft
 * caps their own (the walk clamps every cap to its budget). */
static int64_t rk_probe_start(const rk_plan *p, rk_walk *walk, int64_t e,
                              int64_t hi, int64_t head)
{
    int64_t q, pid, cap;
    for (q = e; q < hi; q++) {
        pid = p->entries[q].pid;
        cap = q == e ? head
            : p->procs[pid].is_hard ? walk->budget : p->decisions[q].cap;
        rk_walk_add(walk, p->procs + pid, cap);
    }
    return rk_walk_limit(walk, p->period);
}

/* Fills thr, the table rk_decision indexes, as
 * repro.runtime.engine.kernel.lower.node_thresholds does: the cell of
 * a soft entry's attempt a under budget b is the latest start of its
 * probe with min(cap - a - 1, b) head re-executions, minus the entry's
 * mu -- or RK_NEVER - mu where bad flags a probe the oracle rejects.
 * sharing is per node and bad per entry; work holds 2
 * RK_TOP_SLOTS(n_proc, k) ints.  Returns 0, or -1 for out-of-range
 * arguments. */
int64_t rk_thresholds(const rk_plan *plan, const uint8_t *sharing,
                      const uint8_t *bad, int64_t *work, int64_t *thr)
{
    const int64_t k = plan->k;
    rk_oracle o;
    rk_walk walk;
    int64_t node, e, a, b, hi;
    int64_t *cell;
    if (plan->n_proc < 1 || k < 0) {
        return -1;
    }
    o.top_cost = work;
    o.top_cap = work + RK_TOP_SLOTS(plan->n_proc, k);
    for (node = 0; node < plan->n_nodes; node++) {
        hi = plan->nodes[node].ent_hi;
        for (e = plan->nodes[node].ent_lo; e < hi; e++) {
            const rk_decision *dec = plan->decisions + e;
            const int64_t mu = plan->procs[plan->entries[e].pid].mu;
            cell = thr + dec->thr_lo;
            for (a = 0; a < dec->natt; a++) {
                for (b = 0; b <= k; b++, cell++) {
                    if (bad[e]) {
                        *cell = RK_NEVER - mu;
                        continue;
                    }
                    rk_walk_start(&walk, &o, b, sharing[node]);
                    *cell = rk_probe_start(plan, &walk, e, hi,
                                           rk_min(dec->cap - a - 1, b))
                        - mu;
                }
            }
        }
    }
    return 0;
}

/* ---- the expected-utility profile ---- */

/* P(S > x) of a tail sum: exact for one uniform process, a normal
 * approximation for more, a step without variance. */
static double rk_survival(const rk_tterm *t, int64_t x)
{
    double v;
    if (x < t->lo_sum) {
        return 1.0;
    }
    if (x >= t->hi_sum) {
        return 0.0;
    }
    if (t->count == 1 || t->variance <= 0) {
        if (t->hi_sum - t->lo_sum <= 0) {
            return 0.0;
        }
        v = (double)(t->hi_sum - x) / (double)(t->hi_sum - t->lo_sum);
        v = v > 0.0 ? v : 0.0;
        return v < 1.0 ? v : 1.0;
    }
    return 0.5 * (1.0 - erf((((double)x - t->mean) / sqrt(t->variance))
                            / sqrt(2.0)));
}

/* The expected utility of one term started at tc: mass times value
 * per segment between the utility's breakpoints below the period. */
static double rk_expected_term(const rk_plan *p, const rk_tterm *t,
                               int64_t tc)
{
    const int64_t *b = p->ubound + p->procs[t->pid].ulo;
    double expected = 0.0;
    double prev = 1.0;
    double survival, mass;
    int64_t prev_bound = 0;
    int64_t first = 1;
    int64_t last = 0;
    int64_t bound, probe;
    /* A tabulated utility's sample at 0 lowers to breakpoint -1,
     * which is no boundary. */
    while (*b < 0) {
        b++;
    }
    while (!last) {
        last = !(*b < p->period);
        bound = last ? p->period : *b++;
        survival = rk_survival(t, bound - tc);
        mass = prev - survival;
        if (mass > 0) {
            probe = first ? bound : prev_bound + 1;
            expected = expected
                + mass * rk_util(p, t->pid, probe > 0 ? probe : 0);
        }
        prev = survival;
        prev_bound = bound;
        first = 0;
    }
    return expected;
}

/* TailProfile.expected at tc: terms in profile order, accumulated in
 * the oracle's order. */
static double rk_profile_expected(const rk_plan *p, const rk_tterm *terms,
                                  int64_t n_terms, int64_t tc)
{
    double total = 0.0;
    int64_t j;
    for (j = 0; j < n_terms; j++) {
        total = total + terms[j].alpha * rk_expected_term(p, terms + j, tc);
    }
    return total;
}

/* TailProfile.expected at each of n points.  Every term's utility
 * must be a step table (not linear).  Returns 0, or -1 for
 * out-of-range arguments. */
int64_t rk_expected(const rk_plan *plan, const rk_tterm *terms,
                    int64_t n_terms, const int64_t *points, int64_t n,
                    double *out)
{
    int64_t i;
    if (n_terms < 0 || n < 0) {
        return -1;
    }
    for (i = 0; i < n; i++) {
        out[i] = rk_profile_expected(plan, terms, n_terms, points[i]);
    }
    return 0;
}

/* ---- interval partitioning ---- */

/* rk_partition outcomes: the switch intervals, or a profile term whose
 * utility is linear (TailProfile.expected samples those at quantiles,
 * which the core does not). */
#define RK_PARTITION_OK 0
#define RK_PARTITION_NONCONSTANT 1

/* A child wins where its expected utility beats the parent's by more
 * than this (intervals.partition's margin). */
#define RK_MARGIN 1e-6

/* The soft terms of the profile of pids[0 .. n) under the dropped set,
 * as intervals.tail_profile accumulates them, into terms; returns
 * their count, or -1 when one's utility is linear. */
static int64_t rk_profile(const rk_plan *p, const int64_t *pids, int64_t n,
                          const uint64_t *dropped, double *alpha,
                          rk_tterm *terms)
{
    const rk_proc *procs = p->procs;
    double mean = 0.0;
    double variance = 0.0;
    int64_t lo_sum = 0;
    int64_t hi_sum = 0;
    int64_t n_terms = 0;
    int64_t i, q, span;
    rk_alphas(p, dropped, alpha);
    for (i = 0; i < n; i++) {
        q = pids[i];
        span = procs[q].wcet - procs[q].bcet;
        mean = mean + (double)procs[q].aet;
        variance = variance + (double)(span * span) / 12.0;
        lo_sum += procs[q].bcet;
        hi_sum += procs[q].wcet;
        if (procs[q].is_hard) {
            continue;
        }
        if (procs[q].linear) {
            return -1;
        }
        terms[n_terms].pid = q;
        terms[n_terms].count = i + 1;
        terms[n_terms].lo_sum = lo_sum;
        terms[n_terms].hi_sum = hi_sum;
        terms[n_terms].alpha = alpha[q];
        terms[n_terms].mean = mean;
        terms[n_terms].variance = variance;
        n_terms++;
    }
    return n_terms;
}

/* Adds x to pts[0 .. *n), kept sorted and free of duplicates, when
 * lo <= x <= hi. */
static void rk_add_point(int64_t *pts, int64_t *n, int64_t x, int64_t lo,
                         int64_t hi)
{
    int64_t i, j;
    if (x < lo || x > hi) {
        return;
    }
    i = *n;
    while (i > 0 && pts[i - 1] > x) {
        i--;
    }
    if (i > 0 && pts[i - 1] == x) {
        return;
    }
    for (j = *n; j > i; j--) {
        pts[j] = pts[j - 1];
    }
    pts[i] = x;
    (*n)++;
}

/* TailProfile.critical_points in [lo, hi] without the grid: each
 * term's utility breakpoints and the period, shifted by the term's
 * mean completion offset int(round(mean)) -- half to even, as
 * nearbyint rounds in the default mode.  A tabulated utility's sample
 * at 0 lowers to breakpoint -1, which is no breakpoint. */
static void rk_critical(const rk_plan *p, const rk_tterm *terms,
                        int64_t n_terms, int64_t lo, int64_t hi,
                        int64_t *pts, int64_t *n)
{
    const int64_t *b;
    int64_t j, offset;
    for (j = 0; j < n_terms; j++) {
        offset = (int64_t)nearbyint(terms[j].mean);
        for (b = p->ubound + p->procs[terms[j].pid].ulo; *b != INT64_MAX;
             b++) {
            if (*b >= 0) {
                rk_add_point(pts, n, *b - offset + 1, lo, hi);
            }
        }
        rk_add_point(pts, n, p->period - offset + 1, lo, hi);
    }
}

/* Interval partitioning of one FTQS candidate, as
 * repro.quasistatic.intervals.partition computes it with the child's
 * safety bound given (latest, its t_ic): the expected utility of
 * continuing the parent's tail parent[0 .. n_parent) against starting
 * the child child[0 .. n_child), each profile's alphas from its
 * schedule's all-dropped set, at every critical point of [lo,
 * min(hi, latest)] and on the grid of stride (0: automatic).  Writes
 * the winning windows as (first, last) pairs into iv, at most cap of
 * them, their count into *out_n and the improvement (the gain
 * integrated over the traced range [lo, hi]) into *out_improvement;
 * returns an RK_PARTITION_* outcome, or -1 for out-of-range
 * arguments.  Each side's pids are distinct, as in any f-schedule.
 * The caller's work buffers hold 2 n_proc terms, n_proc doubles and
 * 2 + 2 len(ubound) points. */
int64_t rk_partition(const rk_plan *plan, const int64_t *parent,
                     int64_t n_parent, const uint64_t *parent_dropped,
                     const int64_t *child, int64_t n_child,
                     const uint64_t *child_dropped,
                     int64_t lo, int64_t hi, int64_t latest, int64_t stride,
                     rk_tterm *terms, double *alpha, int64_t *points,
                     int64_t *iv, int64_t cap, int64_t *out_n,
                     double *out_improvement)
{
    const int64_t traced = hi - lo + 1;
    rk_tterm *pterms = terms;
    rk_tterm *cterms = terms + plan->n_proc;
    double integral = 0.0;
    double gain, prev_gain = 0.0;
    int64_t n_pt, n_ct, step, next, point, i;
    int64_t prev = 0, first = 0, n_pts = 0, count = 0;
    int wins, prev_wins = 0, open = 0;
    *out_n = 0;
    *out_improvement = 0.0;
    if (n_parent < 0 || n_child < 0 || n_parent > plan->n_proc
        || n_child > plan->n_proc || stride < 0 || cap < 0) {
        return -1;
    }
    if (lo > hi || lo > latest) {
        return RK_PARTITION_OK;
    }
    hi = rk_min(hi, latest);
    n_pt = rk_profile(plan, parent, n_parent, parent_dropped, alpha, pterms);
    n_ct = rk_profile(plan, child, n_child, child_dropped, alpha, cterms);
    if (n_pt < 0 || n_ct < 0) {
        return RK_PARTITION_NONCONSTANT;
    }
    rk_add_point(points, &n_pts, lo, lo, hi);
    rk_add_point(points, &n_pts, hi, lo, hi);
    rk_critical(plan, pterms, n_pt, lo, hi, points, &n_pts);
    rk_critical(plan, cterms, n_ct, lo, hi, points, &n_pts);
    step = stride > 0 ? stride : (hi - lo) / 48 > 1 ? (hi - lo) / 48 : 1;
    /* The points in order: the grid merged into the sorted critical
     * points.  A point's segment runs to the next point, so its gain
     * is integrated one point late; the last point is hi. */
    next = lo;
    i = 0;
    while (i < n_pts || next <= hi) {
        if (next <= hi && (i >= n_pts || next <= points[i])) {
            point = next;
            next += step;
            if (i < n_pts && points[i] == point) {
                i++;
            }
        } else {
            point = points[i++];
        }
        gain = rk_profile_expected(plan, cterms, n_ct, point)
            - rk_profile_expected(plan, pterms, n_pt, point);
        if (prev_wins) {
            integral = integral + prev_gain * (double)(point - prev);
        }
        wins = gain > RK_MARGIN;
        if (wins && !open) {
            first = point;
            open = 1;
        }
        if (!wins && open) {
            if (count < cap) {
                iv[2 * count] = first;
                iv[2 * count + 1] = point - 1;
            }
            count++;
            open = 0;
        }
        prev = point;
        prev_gain = gain;
        prev_wins = wins;
    }
    if (prev_wins) {
        integral = integral + prev_gain * (double)(hi - prev + 1);
    }
    if (open) {
        if (count < cap) {
            iv[2 * count] = first;
            iv[2 * count + 1] = hi;
        }
        count++;
    }
    *out_n = count;
    *out_improvement = integral / (double)traced;
    return RK_PARTITION_OK;
}
