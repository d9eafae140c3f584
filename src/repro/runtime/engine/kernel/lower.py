"""Lower one plan, or one application, into the tables the C core
reads.

:func:`lower_plan` turns an application and a
:class:`~repro.quasistatic.tree.QSTree` (or a single
:class:`~repro.scheduling.fschedule.FSchedule`, a one-node tree as the
oracle treats it) into NumPy arrays: one record per process, graph
vertex, tree node and schedule entry, flat arc and threshold tables
and the bit masks of process sets.  Processes are numbered in
application order; arcs evaluated at one completion are stored sorted
by ``(-required_faults, target)``, so the core's first match is
``OnlineScheduler._matching_arc``'s ``min`` over all matches.  The
§2.2 keep-vs-drop benefit needs no table: the core derives its terms
from the node's later entries and their processes' records.  The
§2.2 schedulability thresholds come out in closed form: with the
loaded core, one ``rk_thresholds`` call fills the whole table once the
records are built (the probe-rejection pre-pass and each node's slack
sharing stay here); without one, :func:`node_thresholds`, its oracle,
fills the same bytes.  The record dtypes and :class:`RkPlan`
mirror the structs of ``rk_core.h``, and :class:`LoweredPlan` points
one ``rk_plan`` at a set of arrays.  The kernel engine hands the core
these arrays as they are; :mod:`repro.io.c_export` writes them as C
arrays of the C types :data:`ARRAYS` names.  Plans outside what the
core expresses raise :class:`KernelUnsupported` (the dispatcher then
degrades to the reference oracle, the export refuses them).

:func:`lower_application` is the application part of a plan — the
process records (every timing constant and utility the core reads of
a process), the graph and the utility tables in a given process order
— which :func:`lower_plan` numbers in application order and
:func:`lower_scheduling` like a
:class:`~repro.scheduling.compiled.SchedulingContext`, adding the
graph columns the design-time entry points of ``rk_ftss.c`` read.
"""

from __future__ import annotations

import ctypes
from typing import Dict, FrozenSet, Iterable, List, Sequence, Tuple, Union

import numpy as np

from repro.model.application import Application
from repro.quasistatic.tree import QSTree
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


def _record(*fields: str, floats: Sequence[str] = ()) -> np.dtype:
    return np.dtype(
        [(name, _F8 if name in floats else _I8) for name in fields]
    )


#: Record dtypes, field for field the structs of ``rk_core.h`` (all
#: fields are 8 bytes wide, so neither side pads).
PROC = _record(
    "is_hard", "deadline", "aet", "bcet", "wcet", "mu", "linear", "ulo",
    "u0", "slope", floats=("u0", "slope"),
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
    repeats a later entry or has a predecessor at or after it."""
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
# Lowering
# ----------------------------------------------------------------------
def _mask_words(pids: Iterable[int], n_words: int) -> List[int]:
    words = [0] * n_words
    for pid in map(int, pids):
        words[pid >> 6] |= 1 << (pid & 63)
    return words


def lower_application(app, names: Sequence[str]) -> Dict[str, list]:
    """The :data:`APP_ARRAYS` columns of ``app`` with process ``i``
    named ``names[i]``: process records (criticality; deadline, the
    period for a soft process; AET, BCET, WCET and recovery overhead;
    utility), the dependence graph in its topological order with
    predecessors in graph order, and the hard and soft masks.  An
    unknown utility subclass raises :class:`KernelUnsupported`."""
    index = {name: i for i, name in enumerate(names)}
    n_words = (len(names) + 63) // 64
    col: Dict[str, list] = {name: [] for name in APP_ARRAYS}
    hard: List[int] = []
    soft: List[int] = []
    for pid, name in enumerate(names):
        proc = app.process(name)
        linear, bounds, values, u0, slope = _utility_spec(proc.utility)
        col["procs"].append(
            (int(proc.is_hard),
             int(proc.deadline if proc.is_hard else app.period), proc.aet,
             proc.bcet, proc.wcet, app.recovery_overhead(name), linear,
             len(col["ubound"]), u0, slope)
        )
        col["ubound"] += bounds + (_SENTINEL,)
        col["uval"] += values
        (hard if proc.is_hard else soft).append(pid)
    for name in app.graph.topological_order():
        preds = [index[p] for p in app.graph.predecessors(name)]
        lo = len(col["pred"])
        col["graph"].append(
            (index[name], lo, lo + len(preds), float(1 + len(preds)))
        )
        col["pred"] += preds
    col["hard_mask"] = _mask_words(hard, n_words)
    col["soft_mask"] = _mask_words(soft, n_words)
    return col


def lower_plan(
    app: Application, plan: Union[QSTree, FSchedule], core=None
) -> Dict[str, np.ndarray]:
    """The ``rk_plan`` tables of one plan, by field name.

    Includes every schedulability threshold the core can consult
    (attempts ``0..min(cap, k)-1`` per soft position, budgets
    ``0..k``): filled by one ``rk_thresholds`` call of ``core``, the
    loaded :class:`~repro.runtime.engine.kernel.dispatch.Core`, or,
    without one, by :func:`node_thresholds` — the same bytes either
    way.  The dispatcher's memo amortizes lowering across
    constructions and runs of one process.
    """
    tree = QSTree(plan) if isinstance(plan, FSchedule) else plan
    names = [p.name for p in app.processes]
    index = {name: pid for pid, name in enumerate(names)}
    hard = [p.is_hard for p in app.processes]
    n_words = (len(names) + 63) // 64
    k = int(app.k)
    nodes = sorted(tree, key=lambda node: node.node_id)
    dense = {node.node_id: i for i, node in enumerate(nodes)}
    col: Dict[str, list] = {name: [] for name, *_ in ARRAYS}
    col.update(lower_application(app, names))
    n_thr = 0
    sharing: List[bool] = []  # per node, for rk_thresholds
    bad: List[bool] = []      # per entry, for rk_thresholds

    # ---- per-node / per-entry records ----
    for node in nodes:
        schedule = node.schedule
        entries = schedule.entries
        pids = [index[e.name] for e in entries]
        lo = len(col["entries"])
        col["nodes"].append((node.node_id, lo, lo + len(entries)))
        col["node_mask"] += _mask_words(pids, n_words)
        col["node_sdrop"] += _mask_words(
            (index[n] for n in schedule.all_dropped), n_words
        )
        if core is None:
            for cells in node_thresholds(app, schedule):
                for cell in cells:
                    col["thr"] += cell
        else:
            sharing.append(schedule.slack_sharing)
            bad += _rejected_probes(app, [e.name for e in entries])
        probes = probe_info(app, schedule)
        for pos, (entry, pid) in enumerate(zip(entries, pids)):
            soft = not hard[pid]
            natt = min(entry.reexecutions, k) if soft else 0
            thr_lo, arc_lo = n_thr, len(col["arcs"])
            n_thr += natt * (k + 1)
            arcs = sorted(
                (a for a in node.arcs if a.process == entry.name),
                key=lambda a: (-a.required_faults, a.target),
            )
            for arc in arcs:
                if arc.target not in dense:
                    raise KernelUnsupported(
                        "unsupported-plan",
                        f"arc targets node {arc.target} outside the tree",
                    )
                col["arcs"].append(
                    (arc.lo, arc.hi, arc.required_faults, dense[arc.target])
                )
            hard_in_probe, external = probes[pos] if soft else ((), ())
            col["ent_hardprobe"] += _mask_words(
                (index[n] for n in hard_in_probe), n_words
            )
            col["ent_ext"] += _mask_words(
                (index[n] for n in external), n_words
            )
            col["entries"].append((pid, arc_lo, len(col["arcs"])))
            col["decisions"].append((entry.reexecutions, natt, thr_lo))

    header = (len(names), len(nodes), n_words, k, int(app.period),
              dense[tree.root_id])
    arrays = {"header": np.array(header, dtype=_I8)}
    for name, dtype, _ in ARRAYS:
        arrays[name] = np.array(col[name], dtype=dtype)
    if core is not None:
        arrays["thr"] = np.empty(n_thr, dtype=_I8)
        core.fill_thresholds(
            arrays,
            sharing=np.array(sharing, dtype=np.uint8),
            bad=np.array(bad, dtype=np.uint8),
        )
    return arrays


class LoweredPlan:
    """One plan's tables and the ``rk_plan`` pointing into them.

    The struct holds raw pointers, so it lives exactly as long as the
    arrays it points into: whoever runs the core holds this object.
    """

    def __init__(self, arrays: Dict[str, np.ndarray]):
        self.arrays = arrays
        self.struct = RkPlan(
            *(int(v) for v in arrays["header"]),
            *(arrays[name].ctypes.data for name, *_ in ARRAYS),
        )


def lower_scheduling(ctx) -> Dict[str, np.ndarray]:
    """The tables ``rk_ftss``, ``rk_partition`` and ``rk_expected``
    read for one :class:`~repro.scheduling.compiled.SchedulingContext`,
    by field name: the :data:`APP_ARRAYS` of an ``rk_plan`` in the
    context's pid order, then the :data:`SCHED_ARRAYS` — per-process
    successor ranges into the successors in graph order, predecessor
    masks and the modified-deadline EDF order of the hard processes."""
    n_words = (len(ctx.names) + 63) // 64
    col: Dict[str, list] = lower_application(ctx.app, ctx.names)
    col.update(sprocs=[], succ=[], pred_mask=[], edf=list(ctx.edf_hard))
    for p, successors in enumerate(ctx.succs):
        lo = len(col["succ"])
        col["succ"] += successors
        col["sprocs"].append((lo, len(col["succ"])))
        col["pred_mask"] += _mask_words(ctx.pred_list[p], n_words)
    dtypes = dict((name, t) for name, t, _ in ARRAYS)
    dtypes.update(SCHED_ARRAYS)
    return {name: np.array(col[name], dtype=dtypes[name]) for name in col}
