/*
 * The design-time entry points of the scheduler core: one whole FTSS
 * run (paper section 5.2, Fig. 8) and the expected-utility profile of
 * interval partitioning (section 5.1).
 *
 * This file is compiled appended to rk_core.c, as one translation
 * unit (repro.runtime.engine.kernel.build), so it reads an
 * application through the same rk_plan records and evaluates it with
 * the same rk_util and rk_alphas; `repro export` ships rk_core.{h,c}
 * without it.  The application part of the rk_plan (procs, graph,
 * pred, ubound, uval, hard_mask, soft_mask) is numbered in
 * sorted-name order here, so every smallest-name tie-break of the
 * oracle is a smallest-pid one.
 *
 * rk_ftss is an exact clone of repro.scheduling.ftss.ftss_reference
 * with fast_paths semantics: the same list-scheduling loop, the same
 * integer S_iH probes (with the hard-tail walk collapsed to one bound:
 * a full-budget cap absorbs every fault no strictly costlier entry
 * claims, so of the hard entries appended only the costliest matters)
 * and every float operation in the oracle's order.  rk_expected is
 * TailProfile.expected at a list of switch times, with libm's erf.
 * Both are bit-identical to their oracles as long as the build keeps
 * -ffp-contract=off.  The caller owns every buffer.
 */
#include <math.h>

/* Per-process columns beside the rk_plan, pid-indexed. */
typedef struct rk_sproc {
    int64_t aet;
    int64_t wcet;
    int64_t need;     /* cost of one recovery: WCET + mu */
    int64_t mu;
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
static void rk_top_add(const rk_frun *f, rk_oracle *o, int64_t cost,
                       int64_t cap)
{
    int64_t i, j, total;
    if (cap <= 0 || f->budget == 0) {
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
    o->top_cap[i] = rk_min(cap, f->budget);
    o->n_top++;
    total = 0;
    for (j = 0; j < o->n_top; j++) {
        total += o->top_cap[j];
        if (total >= f->budget) {
            o->n_top = j + 1;
            break;
        }
    }
}

/* The worst-case recovery demand, with one extra (cost, cap) entry
 * (cap 0: none). */
static int64_t rk_top_demand(const rk_frun *f, const rk_oracle *o,
                             int64_t extra_cost, int64_t extra_cap)
{
    int64_t remaining = f->budget;
    int64_t total = 0;
    int64_t i, take;
    extra_cap = rk_min(extra_cap, f->budget);
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
    const rk_sproc *sp = f->s->sprocs;
    int64_t cum = 0;
    int64_t limit = 0;
    int64_t has_limit = 0;
    int64_t running_max = -1;
    int64_t i, q, slack;
    for (i = 0; i < f->s->n_edf; i++) {
        q = f->s->edf[i];
        if (q == skip || RK_HAS(f->completed, q) || RK_HAS(o->hard_done, q)) {
            continue;
        }
        cum += sp[q].wcet;
        if (!f->sharing) {
            demand += sp[q].need * f->budget;
        } else if (sp[q].need > running_max) {
            running_max = sp[q].need;
            demand = rk_demand_with_max(cost, cap, n, running_max,
                                        f->budget);
        }
        slack = f->p->procs[q].deadline - cum - demand;
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
            f->sharing ? rk_top_demand(f, o, -1, 0) : o->private_demand,
            -1);
        o->has_soft_limit = 1;
    }
    return o->soft_limit;
}

/* Does prefix + q (with r re-executions) + the remaining hard tail
 * stay schedulable? */
static int rk_check(rk_frun *f, rk_oracle *o, int64_t q, int64_t r)
{
    const rk_sproc *sp = f->s->sprocs;
    const int64_t hard = f->p->procs[q].is_hard;
    const int64_t clock = f->start + o->prefix_wcet + sp[q].wcet;
    const int64_t need = sp[q].need;
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
        demand = rk_top_demand(f, o, need, r);
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
        demand = rk_top_demand(f, o, -1, 0);
    }
    if (hard && clock + demand > f->p->procs[q].deadline) {
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
                && base + f->s->sprocs[q].wcet <= limit) {
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
    const rk_sproc *sp = f->s->sprocs;
    int64_t demand;
    o->prefix_wcet += sp[q].wcet;
    if (r > 0) {
        o->has_soft_limit = 0;
        if (f->sharing) {
            rk_top_add(f, o, sp[q].need, r);
        } else {
            o->private_demand += sp[q].need * rk_min(r, f->budget);
        }
    }
    if (f->p->procs[q].is_hard) {
        o->hard_done[q >> 6] |= RK_BIT(q);
        o->has_soft_limit = 0;
        demand = f->sharing ? rk_top_demand(f, o, -1, 0) : o->private_demand;
        if (f->start + o->prefix_wcet + demand > f->p->procs[q].deadline) {
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
        completion = clock + sp[q].aet;
        own = completion > p->period
            ? 0.0 : alpha[q] * rk_util(p, q, completion);
        look = 0.0;
        for (j = sp[q].succ_lo; j < sp[q].succ_hi; j++) {
            s = f->s->succ[j];
            if (p->procs[s].is_hard || RK_HAS(dropped, s)) {
                continue;
            }
            done = completion + sp[s].aet;
            if (done > p->period) {
                continue;
            }
            look = look + alpha[s] * rk_util(p, s, done);
        }
        value = (own + weight * look)
            / (double)(sp[q].aet > 1 ? sp[q].aet : 1);
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
        now += sp[q].aet;
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
    const rk_sproc *sp = f->s->sprocs;
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
        now += sp[lead].aet;
        if (now <= p->period) {
            total = total + f->halpha[lead] * rk_util(p, lead, now);
        }
    }
    for (i = 0; i < n; i++) {
        q = order[i];
        if (q == skip) {
            continue;
        }
        now += sp[q].aet;
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
    const rk_sproc *sp = f->s->sprocs;
    const int64_t t = f->wcet_opt ? sp[q].wcet : sp[q].aet;
    const int64_t mu = sp[q].mu;
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

/* The latest start at which entries (after completed) stay
 * schedulable, or the period's slack; *missing when a hard process
 * is neither completed nor scheduled. */
static int64_t rk_latest_start(rk_frun *f, const int64_t *pids,
                               const int64_t *caps, int64_t n,
                               int *missing)
{
    const rk_sproc *sp = f->s->sprocs;
    rk_oracle *o = &f->x0;
    int64_t clock = 0, total = 0, limit = 0, has_limit = 0;
    int64_t i, q, w, slack;
    for (w = 0; w < f->nw; w++) {
        f->pool[w] = f->completed[w];
    }
    o->n_top = 0;
    o->private_demand = 0;
    for (i = 0; i < n; i++) {
        q = pids[i];
        f->pool[q >> 6] |= RK_BIT(q);
        clock += sp[q].wcet;
        if (caps[i] > 0) {
            if (f->sharing) {
                rk_top_add(f, o, sp[q].need, caps[i]);
            } else {
                o->private_demand += sp[q].need * rk_min(caps[i], f->budget);
            }
        }
        total = clock
            + (f->sharing ? rk_top_demand(f, o, -1, 0) : o->private_demand);
        if (f->p->procs[q].is_hard) {
            slack = f->p->procs[q].deadline - total;
            if (!has_limit || slack < limit) {
                limit = slack;
                has_limit = 1;
            }
        }
    }
    *missing = rk_outside(f->p->hard_mask, f->pool, f->nw);
    slack = f->p->period - total;
    return !has_limit || slack < limit ? slack : limit;
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
 * count, and returns an RK_FTSS_* outcome, or -1 for out-of-range
 * arguments.  The caller's work buffers hold 2 n_proc + 8
 * RK_TOP_SLOTS(n_proc, budget) ints, 2 n_proc doubles and 16 nw mask
 * words. */
int64_t rk_ftss(const rk_plan *plan, const rk_sched *sched,
                const int64_t *flags, double weight, double greedy_weight,
                int64_t budget, int64_t start, const uint64_t *completed,
                const uint64_t *dropped, int64_t *work_i, double *work_d,
                uint64_t *work_m, int64_t *out_pid, int64_t *out_cap,
                int64_t *out_n)
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
        f->clock += f->wcet_opt ? sched->sprocs[q].wcet
                                : sched->sprocs[q].aet;
        rk_on_schedule(f, &f->o, q, r);
        rk_settle(f, q);
    }
    *out_n = n;
    q = rk_latest_start(f, out_pid, out_cap, n, &missing);
    return missing || start > q ? RK_FTSS_LATE : RK_FTSS_OK;
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

/* TailProfile.expected at each of n points: terms in profile order,
 * accumulated per point in the oracle's order.  Every term's utility
 * must be a step table (not linear).  Returns 0, or -1 for
 * out-of-range arguments. */
int64_t rk_expected(const rk_plan *plan, const rk_tterm *terms,
                    int64_t n_terms, const int64_t *points, int64_t n,
                    double *out)
{
    int64_t i, j;
    double total;
    if (n_terms < 0 || n < 0) {
        return -1;
    }
    for (i = 0; i < n; i++) {
        total = 0.0;
        for (j = 0; j < n_terms; j++) {
            total = total
                + terms[j].alpha * rk_expected_term(plan, terms + j,
                                                    points[i]);
        }
        out[i] = total;
    }
    return 0;
}
