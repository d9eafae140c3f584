"""C table export: ship a quasi-static tree to an embedded target.

The whole point of quasi-static scheduling is that the expensive
search runs off-line and the target only carries *tables*: the
schedule orders, the re-execution caps and the switch conditions.
This module renders a :class:`~repro.quasistatic.QSTree` as a
self-contained, dependency-free C source pair (header + tables) whose
layout mirrors what the online scheduler needs per decision:

* ``rt_process`` — WCET, deadline (or ``RT_NO_DEADLINE``), recovery
  overhead, hard/soft flag, per application process;
* ``rt_entry`` — (process id, re-execution cap), the schedule slots;
* ``rt_schedule`` — an entry span into the shared entry array;
* ``rt_arc`` — (process id, lo, hi, required faults, target schedule),
  sorted by process id within each schedule for binary search;
* ``rt_tree`` — the root index and the per-schedule arc spans.

The generated code is plain C89 with fixed-width types, compiles with
``gcc -std=c89 -Wall -Werror`` (covered by a test when a compiler is
available) and contains no dynamic allocation — the usual constraints
of the safety-critical targets the paper addresses.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.errors import SerializationError
from repro.model.application import Application
from repro.quasistatic.tree import QSTree

#: Sentinel deadline for soft processes in the generated tables.
NO_DEADLINE = 0x7FFFFFFF


def _sanitize(symbol: str) -> str:
    """A C identifier fragment from an application/graph name."""
    cleaned = "".join(c if c.isalnum() else "_" for c in symbol)
    if not cleaned or cleaned[0].isdigit():
        cleaned = "g_" + cleaned
    return cleaned.lower()


def export_tree_to_c(
    app: Application, tree: QSTree, symbol: str = "app"
) -> Tuple[str, str]:
    """Render ``tree`` as (header, source) C strings.

    ``symbol`` prefixes every generated identifier so several
    applications can link into one image.
    """
    prefix = _sanitize(symbol)
    process_ids: Dict[str, int] = {
        p.name: i for i, p in enumerate(app.processes)
    }

    node_ids = sorted(n.node_id for n in tree)
    schedule_index = {nid: i for i, nid in enumerate(node_ids)}

    entries: List[Tuple[int, int]] = []
    schedules: List[Tuple[int, int]] = []  # (first entry, count)
    arcs: List[Tuple[int, int, int, int, int]] = []
    arc_spans: List[Tuple[int, int]] = []  # (first arc, count)
    for nid in node_ids:
        node = tree.node(nid)
        first_entry = len(entries)
        for entry in node.schedule.entries:
            entries.append((process_ids[entry.name], entry.reexecutions))
        schedules.append((first_entry, len(node.schedule.entries)))
        first_arc = len(arcs)
        for arc in sorted(
            node.arcs, key=lambda a: (process_ids[a.process], a.lo)
        ):
            if arc.target not in schedule_index:
                raise SerializationError(
                    f"arc targets node {arc.target} outside the tree"
                )
            arcs.append(
                (
                    process_ids[arc.process],
                    arc.lo,
                    arc.hi,
                    arc.required_faults,
                    schedule_index[arc.target],
                )
            )
        arc_spans.append((first_arc, len(node.arcs)))

    guard = f"RT_{prefix.upper()}_H"
    header_lines = [
        "/* Generated by repro.io.c_export - quasi-static schedule tables.",
        f" * Application: {len(app.processes)} processes, period "
        f"{app.period}, k = {app.k}.",
        " * Do not edit by hand; regenerate from the Python model. */",
        f"#ifndef {guard}",
        f"#define {guard}",
        "",
        "#include <stdint.h>",
        "",
        f"#define RT_NO_DEADLINE 0x7fffffffL",
        f"#define {prefix.upper()}_N_PROCESSES {len(app.processes)}",
        f"#define {prefix.upper()}_N_SCHEDULES {len(schedules)}",
        f"#define {prefix.upper()}_N_ENTRIES {len(entries)}",
        f"#define {prefix.upper()}_N_ARCS {len(arcs)}",
        f"#define {prefix.upper()}_PERIOD {app.period}",
        f"#define {prefix.upper()}_FAULT_BUDGET {app.k}",
        "",
        "typedef struct rt_process {",
        "    int32_t wcet;",
        "    int32_t deadline;           /* RT_NO_DEADLINE for soft */",
        "    int32_t recovery_overhead;  /* mu */",
        "    uint8_t is_hard;",
        "} rt_process;",
        "",
        "typedef struct rt_entry {",
        "    uint16_t process;",
        "    uint8_t reexecutions;",
        "} rt_entry;",
        "",
        "typedef struct rt_schedule {",
        "    uint32_t first_entry;",
        "    uint16_t n_entries;",
        "} rt_schedule;",
        "",
        "typedef struct rt_arc {",
        "    uint16_t process;",
        "    int32_t lo;",
        "    int32_t hi;",
        "    uint8_t required_faults;",
        "    uint16_t target_schedule;",
        "} rt_arc;",
        "",
        "typedef struct rt_arc_span {",
        "    uint32_t first_arc;",
        "    uint16_t n_arcs;",
        "} rt_arc_span;",
        "",
        f"extern const rt_process {prefix}_processes[];",
        f"extern const rt_entry {prefix}_entries[];",
        f"extern const rt_schedule {prefix}_schedules[];",
        f"extern const rt_arc {prefix}_arcs[];",
        f"extern const rt_arc_span {prefix}_arc_spans[];",
        f"extern const uint16_t {prefix}_root_schedule;",
        "",
        f"#endif /* {guard} */",
        "",
    ]

    source_lines = [
        f'#include "{prefix}_schedule.h"',
        "",
        f"const rt_process {prefix}_processes[] = {{",
    ]
    for proc in app.processes:
        deadline = proc.deadline if proc.is_hard else "RT_NO_DEADLINE"
        source_lines.append(
            f"    {{{proc.wcet}, {deadline}, "
            f"{app.recovery_overhead(proc.name)}, "
            f"{1 if proc.is_hard else 0}}}, /* {proc.name} */"
        )
    source_lines += ["};", "", f"const rt_entry {prefix}_entries[] = {{"]
    for process, rex in entries:
        source_lines.append(f"    {{{process}, {rex}}},")
    if not entries:
        source_lines.append("    {0, 0} /* placeholder: empty */")
    source_lines += ["};", "", f"const rt_schedule {prefix}_schedules[] = {{"]
    for first, count in schedules:
        source_lines.append(f"    {{{first}u, {count}}},")
    source_lines += ["};", "", f"const rt_arc {prefix}_arcs[] = {{"]
    for process, lo, hi, faults, target in arcs:
        source_lines.append(
            f"    {{{process}, {lo}, {hi}, {faults}, {target}}},"
        )
    if not arcs:
        source_lines.append("    {0, 0, 0, 0, 0} /* placeholder: empty */")
    source_lines += ["};", "", f"const rt_arc_span {prefix}_arc_spans[] = {{"]
    for first, count in arc_spans:
        source_lines.append(f"    {{{first}u, {count}}},")
    source_lines += [
        "};",
        "",
        f"const uint16_t {prefix}_root_schedule = "
        f"{schedule_index[tree.root_id]};",
        "",
    ]
    return "\n".join(header_lines), "\n".join(source_lines)


def write_c_tables(
    app: Application, tree: QSTree, directory: str, symbol: str = "app"
) -> Tuple[str, str]:
    """Write the generated pair to ``directory``; returns the paths."""
    import os

    prefix = _sanitize(symbol)
    header, source = export_tree_to_c(app, tree, symbol)
    header_path = os.path.join(directory, f"{prefix}_schedule.h")
    source_path = os.path.join(directory, f"{prefix}_schedule.c")
    with open(header_path, "w") as handle:
        handle.write(header)
    with open(source_path, "w") as handle:
        handle.write(source)
    return header_path, source_path
