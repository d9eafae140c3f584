"""Lower one compiled plan into the tables the C core reads.

:func:`lower_plan` turns a
:class:`~repro.runtime.engine.compile.CompiledApplication` /
:class:`~repro.runtime.engine.compile.CompiledTree` pair plus its
:class:`~repro.runtime.engine.decisions.DecisionTables` into NumPy
arrays: one record per process, graph vertex, tree node and schedule
entry, flat arc/threshold/benefit-term tables and the bit masks of
process sets.  :class:`RkPlan` mirrors ``core.c``'s ``rk_plan`` and
:class:`LoweredPlan` points one at a set of arrays.  Nothing here
emits C: floats travel as float64 array elements, so every constant
reaches the core bit for bit.  Plans outside what the core expresses
raise :class:`KernelUnsupported` (the dispatcher falls back to the
NumPy engine).
"""

from __future__ import annotations

import ctypes
import hashlib
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.runtime.engine.compile import (
    CompiledApplication,
    CompiledTree,
    utility_steps,
)
from repro.runtime.engine.decisions import DecisionTables
from repro.utility.functions import LinearUtility

#: Bumped whenever the meaning or layout of any lowered table changes;
#: part of the plan fingerprint, so stale ``.npz`` tables can never be
#: read by a newer core.
TABLES_VERSION = 2

#: Ends every utility's breakpoint table in ``core.c``.
_SENTINEL = np.iinfo(np.int64).max

_I8 = np.dtype("<i8")
_F8 = np.dtype("<f8")
_U8 = np.dtype("<u8")


def _record(*fields: str, floats: Sequence[str] = ()) -> np.dtype:
    return np.dtype(
        [(name, _F8 if name in floats else _I8) for name in fields]
    )


#: Record dtypes, field for field the structs of ``core.c`` (all
#: fields are 8 bytes wide, so neither side pads).
PROC = _record(
    "is_hard", "deadline", "linear", "ulo", "u0", "slope",
    floats=("u0", "slope"),
)
VERTEX = _record("pid", "pred_lo", "pred_hi", "pred_div", floats=("pred_div",))
NODE = _record("orig", "ent_lo", "ent_hi")
ENTRY = _record("pid", "mu", "arc_lo", "arc_hi")
DECISION = _record(
    "cap", "natt", "thr_lo", "keep_lo", "keep_hi", "drop_lo", "drop_hi"
)
ARC = _record("lo", "hi", "required", "target")
TERM = _record("pid", "delay")

#: ``rk_plan``'s scalar fields, in struct order (the ``header`` array).
SCALARS = ("n_proc", "n_nodes", "nw", "k", "period", "root")

#: ``rk_plan``'s table pointers, in struct order, with their dtypes.
ARRAYS: Tuple[Tuple[str, np.dtype], ...] = (
    ("procs", PROC),
    ("graph", VERTEX),
    ("pred", _I8),
    ("ubound", _I8),
    ("uval", _F8),
    ("hard_mask", _U8),
    ("soft_mask", _U8),
    ("nodes", NODE),
    ("node_mask", _U8),
    ("node_sdrop", _U8),
    ("entries", ENTRY),
    ("decisions", DECISION),
    ("ent_hardprobe", _U8),
    ("ent_ext", _U8),
    ("thr", _I8),
    ("arcs", ARC),
    ("keep", TERM),
    ("drop", TERM),
)


class RkPlan(ctypes.Structure):
    """``rk_plan`` of ``core.c``: scalars, then one pointer per table."""

    _fields_ = [(name, ctypes.c_int64) for name in SCALARS] + [
        (name, ctypes.c_void_p) for name, _ in ARRAYS
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
    :func:`~repro.runtime.engine.compile.utility_steps`.

    An unknown subclass raises — the dispatcher then falls back to the
    NumPy engine for the whole plan (which itself handles unknown
    subclasses via a scalar loop).
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
# Structural fingerprint
# ----------------------------------------------------------------------
def plan_fingerprint(capp: CompiledApplication, ctree: CompiledTree) -> str:
    """SHA-256 over everything the lowered tables depend on.

    Cheap by construction — no schedulability probes are forced — so a
    warm table cache skips lowering entirely.  Covers the tables
    version, the application tables (timing, utility parameters —
    float ``repr`` round-trips exactly — and the dependence graph in
    its deterministic iteration order) and every node's
    schedule/arc/static-drop state; two plans with equal fingerprints
    lower to identical tables.
    """
    app = capp.app
    processes = tuple(
        (
            name,
            int(capp.mu[i]),
            bool(capp.is_hard[i]),
            int(capp.deadline[i]),
            int(app.process(name).aet),
            _utility_spec(app.process(name).utility),
        )
        for i, name in enumerate(capp.names)
    )
    graph = tuple(
        (name, tuple(app.graph.predecessors(name)))
        for name in app.graph.topological_order()
    )
    nodes = tuple(
        (
            nid,
            tuple(
                (e.name, int(e.reexecutions))
                for e in ctree.nodes[nid].schedule.entries
            ),
            ctree.nodes[nid].arcs_at,
            tuple(sorted(ctree.nodes[nid].schedule.all_dropped)),
            repr(ctree.nodes[nid].schedule.slack_sharing),
        )
        for nid in sorted(ctree.nodes)
    )
    spec = (
        TABLES_VERSION,
        int(app.period),
        int(app.k),
        processes,
        graph,
        int(ctree.root_id),
        nodes,
    )
    return hashlib.sha256(repr(spec).encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# Lowering
# ----------------------------------------------------------------------
def _mask_words(pids: Iterable[int], n_words: int) -> List[int]:
    words = [0] * n_words
    for pid in map(int, pids):
        words[pid >> 6] |= 1 << (pid & 63)
    return words


def lower_plan(
    capp: CompiledApplication,
    ctree: CompiledTree,
    tables: DecisionTables,
) -> Dict[str, np.ndarray]:
    """The ``rk_plan`` tables of one plan, by field name.

    Forces every schedulability threshold the core can consult
    (attempts ``0..min(cap, k)-1`` per soft position, budgets
    ``0..k``) out of ``tables`` — the expensive part of lowering,
    which the table caches amortize across constructions, runs and
    workers.
    """
    app = capp.app
    n_words = (capp.n_processes + 63) // 64
    k = int(app.k)
    node_ids = sorted(ctree.nodes)
    dense = {nid: i for i, nid in enumerate(node_ids)}
    col: Dict[str, list] = {name: [] for name, _ in ARRAYS}

    # ---- per-process records: utilities and the dependence graph ----
    for pid, name in enumerate(capp.names):
        linear, bounds, values, u0, slope = _utility_spec(
            app.process(name).utility
        )
        col["procs"].append(
            (int(capp.is_hard[pid]), int(capp.deadline[pid]), linear,
             len(col["ubound"]), u0, slope)
        )
        col["ubound"] += bounds + (_SENTINEL,)
        col["uval"] += values
    for name in app.graph.topological_order():
        preds = [capp.index[p] for p in app.graph.predecessors(name)]
        lo = len(col["pred"])
        col["graph"].append(
            (capp.index[name], lo, lo + len(preds), float(1 + len(preds)))
        )
        col["pred"] += preds
    col["hard_mask"] = _mask_words(capp.hard_ids, n_words)
    col["soft_mask"] = _mask_words(capp.soft_ids, n_words)

    # ---- per-node / per-entry records ----
    for nid in node_ids:
        node = ctree.nodes[nid]
        schedule = node.schedule
        lo = len(col["entries"])
        col["nodes"].append((nid, lo, lo + node.n_entries))
        col["node_mask"] += _mask_words(node.entry_ids, n_words)
        col["node_sdrop"] += _mask_words(
            (capp.index[n] for n in schedule.all_dropped), n_words
        )
        for pos in range(node.n_entries):
            pid = int(node.entry_ids[pos])
            cap = int(node.entry_caps[pos])
            soft = not bool(capp.is_hard[pid])
            natt = min(cap, k) if soft else 0
            thr_lo, arc_lo = len(col["thr"]), len(col["arcs"])
            keep_lo, drop_lo = len(col["keep"]), len(col["drop"])
            for attempt in range(natt):
                thresholds = tables.sched_thresholds(nid, pos, attempt)
                col["thr"] += thresholds.tolist()
            for lo, hi, required, target in node.arcs_at[pos]:
                if target not in dense:
                    raise KernelUnsupported(
                        "unsupported-plan",
                        f"arc targets node {target} outside the tree",
                    )
                col["arcs"].append((lo, hi, required, dense[target]))
            probe = tables.probe_info(nid, pos) if soft else None
            col["ent_hardprobe"] += _mask_words(
                probe.hard_in_probe if soft else (), n_words
            )
            col["ent_ext"] += _mask_words(
                probe.external_hard_preds if soft else (), n_words
            )
            if soft:
                name = schedule.entries[pos].name
                first = app.recovery_overhead(name) + app.process(name).aet
                col["keep"].append((pid, first))
                tail = 0
                for later in schedule.entries[pos + 1 :]:
                    later_proc = app.process(later.name)
                    tail += later_proc.aet
                    if later_proc.is_soft:
                        lpid = capp.index[later.name]
                        col["keep"].append((lpid, first + tail))
                        col["drop"].append((lpid, tail))
            col["entries"].append(
                (pid, int(node.entry_mu[pos]), arc_lo, len(col["arcs"]))
            )
            col["decisions"].append(
                (cap, natt, thr_lo, keep_lo, len(col["keep"]), drop_lo,
                 len(col["drop"]))
            )

    header = (capp.n_processes, len(node_ids), n_words, k, int(app.period),
              dense[ctree.root_id])
    arrays = {"header": np.array(header, dtype=_I8)}
    for name, dtype in ARRAYS:
        arrays[name] = np.array(col[name], dtype=dtype)
    return arrays


def check_tables(
    arrays: Optional[Dict[str, np.ndarray]],
) -> Optional[Dict[str, np.ndarray]]:
    """Loaded ``arrays`` as the core reads them, or ``None`` when they
    are absent or have the wrong fields or dtypes."""
    expected = dict((("header", _I8),) + ARRAYS)
    if (
        arrays is None
        or {name: array.dtype for name, array in arrays.items()} != expected
        or arrays["header"].shape != (len(SCALARS),)
    ):
        return None
    return {
        name: np.require(array, requirements=["C", "A"])
        for name, array in arrays.items()
    }


class LoweredPlan:
    """One plan's tables and the ``rk_plan`` pointing into them.

    The struct holds raw pointers, so it lives exactly as long as the
    arrays it points into: whoever runs the core holds this object.
    """

    def __init__(self, arrays: Dict[str, np.ndarray]):
        self.arrays = arrays
        self.struct = RkPlan(
            *(int(v) for v in arrays["header"]),
            *(arrays[name].ctypes.data for name, _ in ARRAYS),
        )
        self.chain_cap = self.struct.n_nodes + 1
