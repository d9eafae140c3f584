/* The plan layout and entry points of the scheduler core (rk_core.c),
 * mirrored by repro.runtime.engine.kernel.lower and initialized by the
 * plan files `repro export` writes.  Every field is 8 bytes wide, so no
 * struct has padding. */
#ifndef RK_CORE_H
#define RK_CORE_H

#include <stdint.h>

/* One record per process id: every constant the core reads of it.
 * Process ids number the processes by sorted name; col is the
 * process's column in a scenario's durations and fault_counts rows,
 * which keep the application's own order.  Execution times are the
 * average, best and worst case; one recovery costs wcet + mu.  A
 * utility is either linear, max(0, u0 - slope * t), or a step table:
 * uval[ulo + i] for the count i of breakpoints ubound[ulo ..] strictly
 * below t, the table ending in an INT64_MAX sentinel. */
typedef struct rk_proc {
    int64_t is_hard;
    int64_t col;      /* column in the scenario arrays */
    int64_t deadline;
    int64_t aet;
    int64_t bcet;
    int64_t wcet;
    int64_t mu;       /* recovery overhead */
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
    int64_t arc_lo;   /* arcs[arc_lo .. arc_hi) */
    int64_t arc_hi;
} rk_entry;

/* ... and, at the same index, what a section 2.2 decision reads
 * besides the node's later entries. */
typedef struct rk_decision {
    int64_t cap;      /* re-execution allotment */
    int64_t natt;     /* attempts with compiled thresholds */
    int64_t thr_lo;   /* thr[thr_lo + attempt * (k + 1) + budget] */
} rk_decision;

typedef struct rk_arc {
    int64_t lo;
    int64_t hi;
    int64_t required;
    int64_t target;   /* dense node id */
} rk_arc;

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
} rk_plan;

/* Element counts of rk_run's work buffers, owned by the caller. */
#define RK_COMP_LEN(n_proc) (2 * (n_proc))
#define RK_ALPHA_LEN(n_proc) (2 * (n_proc))
#define RK_MASKS_LEN(nw) (5 * (nw))

int64_t rk_plan_size(void);

/* Replay n scenarios, row-major: per scenario n_proc * width attempt
 * durations and n_proc fault counts in, process pid's in column
 * procs[pid].col; one utility, miss flag, switch
 * count, observed fault count and fallback flag out, and the switch
 * chain (tree node ids) in n_nodes + 1 slots of chains.  A set
 * fallback flag means the scenario left the core's model (a malformed
 * tree, or more faults than k): its other outputs are meaningless.
 * Returns 0, or -1 for out-of-range arguments. */
int64_t rk_run(const rk_plan *plan, int64_t *comp, double *alpha,
               uint64_t *masks, int64_t n, int64_t width,
               const int64_t *durations, const int64_t *fault_counts,
               double *utilities, uint8_t *deadline_miss,
               int64_t *switch_counts, int64_t *faults_observed,
               int64_t *chains, uint8_t *fallback);

#endif /* RK_CORE_H */
