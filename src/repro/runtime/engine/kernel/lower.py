"""Lower one plan, or one application, into the tables the C core
reads.

Every table is numbered like the application's one
:class:`~repro.scheduling.compiled.SchedulingContext`: process ``i``
is the ``i``-th name in sorted order.  The application part of an
``rk_plan`` — one record per process (every timing constant and
utility the core reads of it, and ``col``, its column in a scenario's
arrays, which keep application order), the dependence graph and the
utility tables — is lowered once per application, on its context
(:class:`LoweredApplication`), and shared by its plans and the
design-time entry points of ``rk_ftss.c``.  So :func:`lower_plan`
lowers only the tree, in two steps:

* *flatten* (:func:`flatten_plan`): node ids and schedule headers,
  entries with their pids, caps and attempt counts, all-dropped masks
  and arcs, as int64 arrays — the arcs evaluated at one completion
  sorted by ``(-required_faults, target)``, so the core's first match
  is ``OnlineScheduler._matching_arc``'s ``min`` over all matches;
* *derive*: each node's process mask and, in one backward pass over
  its entries on the context's integer masks, what each S_iH probe
  needs of the completed set (``ent_hardprobe``, ``ent_ext``) and
  whether the oracle's constructor would reject it (the oracles:
  :func:`probe_info`, :func:`_rejected_probes`); then the §2.2
  schedulability thresholds in closed form — one ``rk_thresholds``
  call of the loaded core, or, without one, :func:`node_thresholds`,
  its oracle, to the same bytes.

The kernel engine's plan memo keys a plan by :meth:`FlatPlan.key`, a
SHA-256 over the application's records and the flattened arrays, and
on a miss hands that flattening to :func:`lower_plan`.  The
§2.2 keep-vs-drop benefit needs no table: the core derives its terms
from the node's later entries and their processes' records.  The
record dtypes and :class:`RkPlan` mirror the structs of
``rk_core.h``, and :func:`lower_plan` returns a :class:`LoweredPlan`:
the arrays and the one ``rk_plan`` pointing into them, through which
``rk_thresholds`` fills the thresholds and the kernel engine runs the
plan.  :mod:`repro.io.c_export` writes the arrays as C arrays of the C
types :data:`ARRAYS` names.  Plans outside what the core expresses raise
:class:`KernelUnsupported` (the dispatcher then degrades to the
reference oracle, the export refuses them).
"""

from __future__ import annotations

import ctypes
import hashlib
from typing import Dict, FrozenSet, List, NamedTuple, Sequence, Tuple, Union

import numpy as np

from repro.model.application import Application
from repro.quasistatic.tree import QSTree
from repro.scheduling.compiled import SchedulingContext
from repro.scheduling.feasibility import latest_start
from repro.scheduling.fschedule import FSchedule
from repro.utility.functions import LinearUtility, utility_steps

#: The start bound of a probe the oracle would reject: any real clock
#: is non-negative, so every comparison against it fails.
NEVER = -(2**62)

#: Ends every utility's breakpoint table in ``rk_core.c``.
_SENTINEL = np.iinfo(np.int64).max

_I8 = np.dtype("<i8")
_F8 = np.dtype("<f8")
_U8 = np.dtype("<u8")

_WORD = (1 << 64) - 1


def _record(*fields: str, floats: Sequence[str] = ()) -> np.dtype:
    return np.dtype(
        [(name, _F8 if name in floats else _I8) for name in fields]
    )


#: Record dtypes, field for field the structs of ``rk_core.h`` (all
#: fields are 8 bytes wide, so neither side pads).
PROC = _record(
    "is_hard", "col", "deadline", "aet", "bcet", "wcet", "mu", "linear",
    "ulo", "u0", "slope", floats=("u0", "slope"),
)
VERTEX = _record("pid", "pred_lo", "pred_hi", "pred_div", floats=("pred_div",))
NODE = _record("orig", "ent_lo", "ent_hi")
ENTRY = _record("pid", "arc_lo", "arc_hi")
DECISION = _record("cap", "natt", "thr_lo")
ARC = _record("lo", "hi", "required", "target")

#: The design-time records of ``rk_ftss.c``: per-process successor
#: ranges and one soft term of a schedule tail's utility profile.
SPROC = _record("succ_lo", "succ_hi")
TTERM = _record(
    "pid", "count", "lo_sum", "hi_sum", "alpha", "mean", "variance",
    floats=("alpha", "mean", "variance"),
)

#: ``rk_plan``'s scalar fields, in struct order (the ``header`` array).
SCALARS = ("n_proc", "n_nodes", "nw", "k", "period", "root")

#: ``rk_plan``'s table pointers, in struct order, with their dtypes
#: and C element types.
ARRAYS: Tuple[Tuple[str, np.dtype, str], ...] = (
    ("procs", PROC, "rk_proc"),
    ("graph", VERTEX, "rk_vertex"),
    ("pred", _I8, "int64_t"),
    ("ubound", _I8, "int64_t"),
    ("uval", _F8, "double"),
    ("hard_mask", _U8, "uint64_t"),
    ("soft_mask", _U8, "uint64_t"),
    ("nodes", NODE, "rk_node"),
    ("node_mask", _U8, "uint64_t"),
    ("node_sdrop", _U8, "uint64_t"),
    ("entries", ENTRY, "rk_entry"),
    ("decisions", DECISION, "rk_decision"),
    ("ent_hardprobe", _U8, "uint64_t"),
    ("ent_ext", _U8, "uint64_t"),
    ("thr", _I8, "int64_t"),
    ("arcs", ARC, "rk_arc"),
)


#: The application part of an ``rk_plan``: the tables
#: :func:`lower_application` fills.
APP_ARRAYS = ("procs", "graph", "pred", "ubound", "uval", "hard_mask",
              "soft_mask")

#: ``rk_sched``'s tables, in struct order, with their dtypes.
SCHED_ARRAYS = (("sprocs", SPROC), ("succ", _I8), ("pred_mask", _U8),
                ("edf", _I8))


class RkPlan(ctypes.Structure):
    """``rk_plan`` of ``rk_core.h``: scalars, then one pointer per table."""

    _fields_ = [(name, ctypes.c_int64) for name in SCALARS] + [
        (name, ctypes.c_void_p) for name, *_ in ARRAYS
    ]


class RkSched(ctypes.Structure):
    """``rk_sched`` of ``rk_ftss.c``: one pointer per table, then the
    length of the EDF order."""

    _fields_ = [(name, ctypes.c_void_p) for name, _ in SCHED_ARRAYS] + [
        ("n_edf", ctypes.c_int64)
    ]


class KernelUnsupported(Exception):
    """The plan lies outside what the kernel core can express.

    ``reason`` is the short counter label the dispatcher surfaces
    (e.g. ``"unsupported-utility"``); the message carries the detail.
    """

    def __init__(self, reason: str, message: str):
        super().__init__(message)
        self.reason = reason


# ----------------------------------------------------------------------
# Utility-function lowering
# ----------------------------------------------------------------------
def _utility_spec(utility) -> Tuple:
    """``(linear, breakpoints, values, u0, slope)`` for one utility:
    linear decay, or the step table of
    :func:`~repro.utility.functions.utility_steps`.

    An unknown subclass raises — the dispatcher then degrades to the
    reference oracle for the whole plan.
    """
    if isinstance(utility, LinearUtility):
        return (1, (), (0.0,), float(utility.u0), float(utility.slope))
    steps = utility_steps(utility)
    if steps is None:
        raise KernelUnsupported(
            "unsupported-utility",
            f"utility {type(utility).__name__} has no kernel lowering",
        )
    return (0, tuple(map(int, steps[0])), tuple(map(float, steps[1])),
            0.0, 0.0)


# ----------------------------------------------------------------------
# §2.2 check (b): the S_iH probe
# ----------------------------------------------------------------------
def _rejected_probes(app: Application, names: Sequence[str]) -> List[bool]:
    """Per position of a schedule's entry ``names``: would the
    oracle's validation reject the S_iH probe from there on?  The
    probe from position ``p`` is rejected iff some entry ``q >= p``
    repeats a later entry or has a predecessor at or after it.  The
    oracle of the flags :func:`lower_plan` derives on integer masks
    for ``rk_thresholds``; :func:`node_thresholds` reads it."""
    graph = app.graph
    bad = [False] * (len(names) + 1)
    later = set()
    for q in range(len(names) - 1, -1, -1):
        repeated = names[q] in later
        later.add(names[q])
        bad[q] = (
            bad[q + 1]
            or repeated
            or any(pred in later for pred in graph.predecessors(names[q]))
        )
    return bad[:-1]


def node_thresholds(
    app: Application, schedule: FSchedule
) -> List[List[List[int]]]:
    """The clock thresholds of check (b) for one tree node's schedule,
    ``[position][attempt][budget]``.

    When a soft entry faults on attempt ``a`` with ``b`` faults left,
    the oracle re-executes it only if its probe stays schedulable when
    started at ``clock + µ``: the entry with ``min(cap - a - 1, b)``
    re-executions, then the rest of the schedule with hard caps set to
    ``b`` and soft caps clamped to it.  The probe's worst-case
    completions are ``start + const``, so the check is ``clock <=
    latest_start(probe) - µ`` — one integer per cell, the probe's own
    arithmetic.  A probe whose construction the oracle would reject
    gives ``NEVER - µ``.  Hard positions (always re-executed) and soft
    positions with no re-execution have no attempts.

    The oracle of ``rk_thresholds``, which fills the same cells in C
    (:func:`lower_plan` with a core); it runs where no core can be had.
    """
    k = int(app.k)
    names = [e.name for e in schedule.entries]
    procs = [app.process(name) for name in names]
    caps = [e.reexecutions for e in schedule.entries]
    length = len(names)
    bad = _rejected_probes(app, names)
    needs = [app.recovery_need(name) for name in names]
    # rows[b][q]: entry q as a probe row under budget b.
    rows = [
        [
            (
                proc.wcet,
                need,
                b if proc.is_hard else min(cap, b),
                proc.deadline if proc.is_hard else None,
            )
            for proc, need, cap in zip(procs, needs, caps)
        ]
        for b in range(k + 1)
    ]
    thresholds: List[List[List[int]]] = []
    for p in range(length):
        natt = 0 if procs[p].is_hard else min(caps[p], k)
        mu = app.recovery_overhead(names[p])
        if bad[p]:
            thresholds.append([[NEVER - mu] * (k + 1) for _ in range(natt)])
            continue
        wcet, need = procs[p].wcet, needs[p]
        starts: Dict[Tuple[int, int], int] = {}
        cells = []
        for attempt in range(natt):
            cell = []
            for b in range(k + 1):
                head = min(caps[p] - attempt - 1, b)
                start = starts.get((b, head))
                if start is None:
                    start = starts[(b, head)] = latest_start(
                        [(wcet, need, head, None)] + rows[b][p + 1 :],
                        b,
                        schedule.slack_sharing,
                        app.period,
                    )
                cell.append(start - mu)
            cells.append(cell)
        thresholds.append(cells)
    return thresholds


def probe_info(
    app: Application, schedule: FSchedule
) -> List[Tuple[FrozenSet[str], FrozenSet[str]]]:
    """What the S_iH probe at each position needs of the completed set.

    Per position, ``(hard_in_probe, external_hard_preds)``: the hard
    processes the probe schedules itself — any other hard process must
    already be completed, or the probe is unschedulable — and the hard
    processes some probe entry directly depends on without the probe
    scheduling them first; if one of those is not completed, the
    oracle's probe constructor raises, so the core flags the scenario
    for the oracle.  One backward pass: a probe from position ``p`` is
    the one from ``p + 1`` with entry ``p`` in front.

    The oracle of :func:`lower_plan`'s pass over integer masks
    (``ent_hardprobe``, ``ent_ext``), which
    ``tests/test_engine_differential.py`` holds to it.
    """
    graph = app.graph
    hard_in_probe: FrozenSet[str] = frozenset()
    external: FrozenSet[str] = frozenset()
    info = []
    for entry in reversed(schedule.entries):
        name = entry.name
        if app.process(name).is_hard:
            hard_in_probe |= {name}
        external = (external - {name}) | {
            pred for pred in graph.predecessors(name)
            if app.process(pred).is_hard
        }
        info.append((hard_in_probe, external))
    info.reverse()
    return info


# ----------------------------------------------------------------------
# The application part: once per application
# ----------------------------------------------------------------------
def _words(masks: Sequence[int], n_words: int) -> np.ndarray:
    """Integer bit masks as ``n_words`` uint64 words each."""
    if n_words == 1:
        return np.array(masks, dtype=_U8)
    return np.array(
        [m >> (64 * w) & _WORD for m in masks for w in range(n_words)],
        dtype=_U8,
    )


def lower_application(ctx: SchedulingContext) -> Dict[str, np.ndarray]:
    """The :data:`APP_ARRAYS` tables of ``ctx``'s application in its
    pid order: process records (criticality; ``col``, its index in
    ``app.processes``, which is its column in a scenario's arrays;
    deadline, the period for a soft process; AET, BCET, WCET and
    recovery overhead; utility), the dependence graph in its
    topological order with predecessors in graph order, and the hard
    and soft masks.  Reads the context's columns, and each process's
    AET and utility once.  An unknown utility subclass raises
    :class:`KernelUnsupported`."""
    app = ctx.app
    column = {p.name: c for c, p in enumerate(app.processes)}
    procs: List[tuple] = []
    ubound: List[int] = []
    uval: List[float] = []
    for pid, name in enumerate(ctx.names):
        proc = app.process(name)
        is_hard = ctx.is_hard[pid]
        linear, bounds, values, u0, slope = _utility_spec(proc.utility)
        procs.append(
            (int(is_hard), column[name],
             ctx.deadline[pid] if is_hard else ctx.period, proc.aet,
             ctx.bcet[pid], ctx.wcet[pid], ctx.mu[pid], linear,
             len(ubound), u0, slope)
        )
        ubound += bounds + (_SENTINEL,)
        uval += values
    graph: List[tuple] = []
    pred: List[int] = []
    for name in app.graph.topological_order():
        p = ctx.pid[name]
        preds = ctx.pred_list[p]
        graph.append(
            (p, len(pred), len(pred) + len(preds), float(1 + len(preds)))
        )
        pred += preds
    n_words = (len(ctx.names) + 63) // 64
    return {
        "procs": np.array(procs, dtype=PROC),
        "graph": np.array(graph, dtype=VERTEX),
        "pred": np.array(pred, dtype=_I8),
        "ubound": np.array(ubound, dtype=_I8),
        "uval": np.array(uval, dtype=_F8),
        "hard_mask": _words([ctx.hard_mask], n_words),
        "soft_mask": _words([ctx.soft_mask], n_words),
    }


class LoweredApplication:
    """One application's :func:`lower_application` tables in its
    context's pid order, read-only, built once per application
    (:attr:`~repro.scheduling.compiled.SchedulingContext.lowered`),
    with what lowering a plan reads besides them: the header scalars,
    each process's predecessor and hard-predecessor masks, and
    :attr:`digest`, the SHA-256 state of the header and tables, which
    every plan key of the application extends."""

    def __init__(self, ctx: SchedulingContext):
        app = ctx.app
        self.arrays = lower_application(ctx)
        for array in self.arrays.values():
            array.flags.writeable = False
        self.n_proc = n = len(ctx.names)
        self.nw = (n + 63) // 64
        self.k = int(app.k)
        self.period = int(app.period)
        self.pred_mask = [
            sum(1 << q for q in preds) for preds in ctx.pred_list
        ]
        self.hard_preds = [
            sum(1 << q for q in preds if ctx.is_hard[q])
            for preds in ctx.pred_list
        ]
        header = [n, self.k, self.period] + [
            len(self.arrays[name]) for name in APP_ARRAYS
        ]
        self.digest = hashlib.sha256(np.array(header, dtype=_I8))
        for name in APP_ARRAYS:
            self.digest.update(self.arrays[name])


# ----------------------------------------------------------------------
# One plan: flatten, then derive
# ----------------------------------------------------------------------
class FlatPlan(NamedTuple):
    """A plan's tree in its application's pid order: the final
    ``nodes``, ``entries``, ``decisions``, ``node_sdrop`` and ``arcs``
    tables, each node's schedule header (start time, fault budget,
    slack sharing), and, for the derive step, each node's entry range,
    the entries' pids and the size of the threshold table."""

    tree: QSTree
    ctx: SchedulingContext
    root: int
    nodes: np.ndarray
    heads: np.ndarray
    entries: np.ndarray
    decisions: np.ndarray
    node_sdrop: np.ndarray
    arcs: np.ndarray
    bounds: List[Tuple[int, int]]
    pids: List[int]
    n_thr: int

    def key(self) -> str:
        """The plan memo's key: the SHA-256 of the application's
        records and header scalars (:class:`LoweredApplication`) and
        of the flattened arrays — everything the derive step reads,
        and the nodes' start times and budgets — whatever the objects
        behind them."""
        digest = self.ctx.lowered.digest.copy()
        digest.update(np.array(
            [self.root, len(self.nodes), len(self.entries), len(self.arcs)],
            dtype=_I8,
        ))
        for array in (self.nodes, self.heads, self.entries, self.decisions,
                      self.node_sdrop, self.arcs):
            digest.update(array)
        return digest.hexdigest()


def flatten_plan(
    ctx: SchedulingContext, plan: Union[QSTree, FSchedule]
) -> FlatPlan:
    """The :class:`FlatPlan` of ``plan`` (a single
    :class:`~repro.scheduling.fschedule.FSchedule` is a one-node tree,
    as the oracle treats it); an arc to a node outside the tree raises
    :class:`KernelUnsupported`."""
    tree = QSTree(plan) if isinstance(plan, FSchedule) else plan
    pid, is_hard, k = ctx.pid, ctx.is_hard, int(ctx.app.k)
    nodes = sorted(tree, key=lambda node: node.node_id)
    dense = {node.node_id: i for i, node in enumerate(nodes)}
    rows: Dict[str, List[int]] = {
        name: [] for name in ("nodes", "heads", "entries", "decisions",
                              "arcs")
    }
    arcs = rows["arcs"]
    bounds: List[Tuple[int, int]] = []
    pids: List[int] = []
    sdrop: List[int] = []
    n_thr = 0
    for node in nodes:
        schedule = node.schedule
        by_process: Dict[str, list] = {}
        for arc in node.arcs:
            by_process.setdefault(arc.process, []).append(arc)
        lo = len(pids)
        settled = ctx.mask(schedule.prior_completed)
        dropped = ctx.mask(schedule.prior_dropped)
        for entry in schedule.entries:
            p = pid[entry.name]
            settled |= 1 << p
            arc_lo = len(arcs) // 4
            for arc in sorted(
                by_process.get(entry.name, ()),
                key=lambda a: (-a.required_faults, a.target),
            ):
                if arc.target not in dense:
                    raise KernelUnsupported(
                        "unsupported-plan",
                        f"arc targets node {arc.target} outside the tree",
                    )
                arcs += (arc.lo, arc.hi, arc.required_faults,
                         dense[arc.target])
            rows["entries"] += (p, arc_lo, len(arcs) // 4)
            cap = entry.reexecutions
            natt = 0 if is_hard[p] else min(cap, k)
            rows["decisions"] += (cap, natt, n_thr)
            n_thr += natt * (k + 1)
            pids.append(p)
        rows["nodes"] += (node.node_id, lo, len(pids))
        rows["heads"] += (schedule.start_time, schedule.fault_budget,
                          int(schedule.slack_sharing))
        bounds.append((lo, len(pids)))
        # FSchedule.all_dropped: the soft processes neither scheduled
        # nor settled before the start, plus the ones dropped before.
        sdrop.append(ctx.soft_mask & ~(settled | dropped) | dropped)
    dtypes = {"nodes": NODE, "heads": _I8, "entries": ENTRY,
              "decisions": DECISION, "arcs": ARC}
    tables = {
        name: np.array(rows[name], dtype=_I8).view(dtypes[name])
        for name in dtypes
    }
    return FlatPlan(
        tree, ctx, dense[tree.root_id], tables["nodes"], tables["heads"],
        tables["entries"], tables["decisions"],
        _words(sdrop, (len(ctx.names) + 63) // 64), tables["arcs"], bounds,
        pids, n_thr,
    )


def lower_plan(
    app: Application, plan: Union[QSTree, FSchedule, FlatPlan], core=None
) -> "LoweredPlan":
    """The ``rk_plan`` tables of one plan, by field name, and the
    struct pointing into them: the application's tables from its
    context, shared, and the tree's, flattened (:func:`flatten_plan`,
    unless ``plan`` is a :class:`FlatPlan` already; one of another
    context raises :class:`ValueError`) and derived.

    Includes every schedulability threshold the core can consult
    (attempts ``0..min(cap, k)-1`` per soft position, budgets
    ``0..k``): filled by one ``rk_thresholds`` call of ``core``, the
    loaded :class:`~repro.runtime.engine.kernel.dispatch.Core`, or,
    without one, by :func:`node_thresholds` — the same bytes either
    way.  The dispatcher's memo amortizes lowering across
    constructions and runs of one process.
    """
    ctx = SchedulingContext.of(app)
    lowered = ctx.lowered
    flat = plan if isinstance(plan, FlatPlan) else flatten_plan(ctx, plan)
    if flat.ctx is not ctx:
        raise ValueError("the plan was flattened on another application")
    is_hard, pids = ctx.is_hard, flat.pids
    pred_mask, hard_preds = lowered.pred_mask, lowered.hard_preds
    node_mask: List[int] = []
    hardprobe = [0] * len(pids)
    external = [0] * len(pids)
    bad = [0] * len(pids)
    for lo, hi in flat.bounds:
        # Backward: the probe from position q is the one from q + 1
        # with entry q in front (probe_info, _rejected_probes).
        later = probed = ext = rejected = 0
        for q in range(hi - 1, lo - 1, -1):
            p = pids[q]
            bit = 1 << p
            rejected = rejected or later & bit or pred_mask[p] & (later | bit)
            later |= bit
            ext = ext & ~bit | hard_preds[p]
            if is_hard[p]:
                probed |= bit
            else:
                hardprobe[q], external[q] = probed, ext
            bad[q] = 1 if rejected else 0
        node_mask.append(later)
    if core is None:
        thr = np.array(
            [
                cell
                for node in sorted(flat.tree, key=lambda node: node.node_id)
                for cells in node_thresholds(app, node.schedule)
                for row in cells
                for cell in row
            ],
            dtype=_I8,
        )
    else:
        thr = np.empty(flat.n_thr, dtype=_I8)
    nw = lowered.nw
    arrays = {
        "header": np.array(
            (lowered.n_proc, len(flat.nodes), nw, lowered.k,
             lowered.period, flat.root),
            dtype=_I8,
        ),
        **lowered.arrays,
        "nodes": flat.nodes,
        "node_mask": _words(node_mask, nw),
        "node_sdrop": flat.node_sdrop,
        "entries": flat.entries,
        "decisions": flat.decisions,
        "ent_hardprobe": _words(hardprobe, nw),
        "ent_ext": _words(external, nw),
        "thr": thr,
        "arcs": flat.arcs,
    }
    lowered_plan = LoweredPlan(arrays)
    if core is not None:
        core.fill_thresholds(
            lowered_plan,
            sharing=flat.heads[2::3].astype(np.uint8),
            bad=np.array(bad, dtype=np.uint8),
        )
    return lowered_plan


class LoweredPlan:
    """One plan's tables and the ``rk_plan`` pointing into them, built
    once per lowering: ``rk_thresholds`` fills the ``thr`` table
    through this struct, and the kernel engine runs the plan on it.

    The struct holds raw pointers, so it lives exactly as long as the
    arrays it points into: whoever runs the core holds this object.
    """

    def __init__(self, arrays: Dict[str, np.ndarray]):
        self.arrays = arrays
        self.struct = RkPlan(
            *(int(v) for v in arrays["header"]),
            *(arrays[name].ctypes.data for name, *_ in ARRAYS),
        )


def lower_scheduling(ctx: SchedulingContext) -> Dict[str, np.ndarray]:
    """The tables ``rk_ftss``, ``rk_partition`` and ``rk_expected``
    read for one context besides its
    :attr:`~repro.scheduling.compiled.SchedulingContext.lowered`
    application tables, by field name: the :data:`SCHED_ARRAYS` —
    per-process successor ranges into the successors in graph order,
    predecessor masks and the modified-deadline EDF order of the hard
    processes."""
    n_words = (len(ctx.names) + 63) // 64
    sprocs: List[int] = []
    succ: List[int] = []
    for successors in ctx.succs:
        sprocs += (len(succ), len(succ) + len(successors))
        succ += successors
    return {
        "sprocs": np.array(sprocs, dtype=_I8).view(SPROC),
        "succ": np.array(succ, dtype=_I8),
        "pred_mask": _words(ctx.lowered.pred_mask, n_words),
        "edf": np.array(ctx.edf_hard, dtype=_I8),
    }
