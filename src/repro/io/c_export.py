"""C export: ship a quasi-static tree to an embedded target.

The target only walks the tree's tables and makes the §2.2
drop/re-execute decision online, with the kernel engine's own core.
:func:`write_c_tables` writes ``rk_core.h`` and ``rk_core.c`` (the
package's files, byte for byte), ``<prefix>_plan.h`` (``extern const
rk_plan <prefix>_plan;``, the process ids — sorted-name order, the
kernel's one numbering — with each process's column in a scenario's
arrays, which keep application order, and size macros for static
scratch) and ``<prefix>_plan.c`` (the tables of
:func:`~repro.runtime.engine.kernel.lower.lower_plan` as static const
arrays, then the ``rk_plan`` initializer).  The §2.2 thresholds are
lowered through the loaded core where one can be had, else by the
Python oracle, to the same bytes.  The files are C99 without
variable-length arrays or allocation; floats are hex literals and
64-bit integers go through ``INT64_C``/``UINT64_C``, so every constant
reaches the target bit for bit.
"""

from __future__ import annotations

import math
import os
import shutil
from typing import Tuple

import numpy as np

from repro.errors import SerializationError
from repro.model.application import Application
from repro.quasistatic.tree import QSTree
from repro.runtime.engine.kernel import lower
from repro.runtime.engine.kernel.build import CORE_HEADER, CORE_SOURCE
from repro.runtime.engine.kernel.dispatch import prepare_core


def _sanitize(symbol: str) -> str:
    """A C identifier fragment from an application/graph name."""
    cleaned = "".join(c if c.isalnum() else "_" for c in symbol).lower()
    if not cleaned or cleaned[0].isdigit():
        cleaned = "g_" + cleaned
    if cleaned == "rk":  # would redefine rk_plan and the RK_*_LEN macros
        raise SerializationError("symbol 'rk' is reserved by rk_core.h")
    return cleaned


def _double(value: float) -> str:
    if not math.isfinite(value):
        raise SerializationError(f"no C literal for the constant {value!r}")
    return value.hex()


#: C literal of one table element, by dtype kind.
_LITERAL = {"i": "INT64_C({})".format, "u": "UINT64_C({})".format,
            "f": _double}


def _c_array(prefix: str, name: str, ctype: str, array: np.ndarray) -> str:
    """One table as a ``static const`` array.  C has no empty arrays:
    an empty table gets one zero element, which the core never reads."""
    dtype = array.dtype
    rows = array if len(array) else np.zeros(1, dtype=dtype)
    kinds = [dtype.fields[field][0].kind for field in dtype.names or ()]
    items = [
        "{" + ", ".join(_LITERAL[k](v) for k, v in zip(kinds, row)) + "}"
        if kinds
        else _LITERAL[dtype.kind](row)
        for row in rows.tolist()
    ]
    return (
        f"static const {ctype} {prefix}_{name}[{len(rows)}]"
        " = {\n    " + ",\n    ".join(items) + "\n};\n"
    )


def export_tree_to_c(
    app: Application, tree: QSTree, symbol: str = "app"
) -> Tuple[str, str]:
    """``(<prefix>_plan.h, <prefix>_plan.c)`` of ``tree``, lowered as
    the kernel engine lowers it.  ``symbol`` prefixes every identifier,
    so several plans link into one image; a plan the core cannot
    express raises :class:`~repro.errors.SerializationError`."""
    prefix = _sanitize(symbol)
    macro = prefix.upper()
    try:
        arrays = lower.lower_plan(app, tree, prepare_core()).arrays
    except lower.KernelUnsupported as exc:
        raise SerializationError(
            f"the C core cannot run this plan ({exc.reason}): {exc}"
        ) from exc
    scalars = dict(zip(lower.SCALARS, arrays["header"].tolist()))
    processes = app.processes
    pids = "".join(
        f" *   {pid:4d}  {col:4d}  "
        f"{processes[col].name.replace('*/', '* /')}"
        f"{' (hard)' if processes[col].is_hard else ''}\n"
        for pid, col in enumerate(arrays["procs"]["col"].tolist())
    )
    plan_h = f"""/* Generated by repro.io.c_export; do not edit by hand.
 * A quasi-static plan for rk_core.c: period {app.period}, k = {app.k}.
 * Process ids (by sorted name) and each process's column in a
 * scenario's durations and fault_counts rows (application order):
 *    pid   col  name
{pids} */
#ifndef {macro}_PLAN_H
#define {macro}_PLAN_H

#include "rk_core.h"

#define {macro}_N_PROC {scalars["n_proc"]}
#define {macro}_NW {scalars["nw"]}
#define {macro}_CHAIN_CAP {scalars["n_nodes"] + 1}
#define {macro}_COMP_LEN RK_COMP_LEN({macro}_N_PROC)
#define {macro}_ALPHA_LEN RK_ALPHA_LEN({macro}_N_PROC)
#define {macro}_MASKS_LEN RK_MASKS_LEN({macro}_NW)

extern const rk_plan {prefix}_plan;

#endif /* {macro}_PLAN_H */
"""
    plan_c = "\n".join(
        ["/* Generated by repro.io.c_export; do not edit by hand. */",
         f'#include "{prefix}_plan.h"', ""]
        + [
            _c_array(prefix, name, ctype, arrays[name])
            for name, _, ctype in lower.ARRAYS
        ]
        + [f"const rk_plan {prefix}_plan = {{"]
        + [f"    .{name} = INT64_C({v})," for name, v in scalars.items()]
        + [f"    .{name} = {prefix}_{name}," for name, *_ in lower.ARRAYS]
        + ["};", ""]
    )
    return plan_h, plan_c


def write_c_tables(
    app: Application, tree: QSTree, directory: str, symbol: str = "app"
) -> Tuple[str, ...]:
    """Write ``rk_core.h``, ``rk_core.c``, ``<prefix>_plan.h`` and
    ``<prefix>_plan.c`` into ``directory`` (created when missing);
    returns their paths in that order."""
    prefix = _sanitize(symbol)
    plan = export_tree_to_c(app, tree, symbol)
    names = (CORE_HEADER.name, CORE_SOURCE.name, f"{prefix}_plan.h",
             f"{prefix}_plan.c")
    paths = tuple(os.path.join(directory, name) for name in names)
    os.makedirs(directory, exist_ok=True)
    shutil.copyfile(CORE_HEADER, paths[0])
    shutil.copyfile(CORE_SOURCE, paths[1])
    for path, text in zip(paths[2:], plan):
        with open(path, "w") as handle:
            handle.write(text)
    return paths
