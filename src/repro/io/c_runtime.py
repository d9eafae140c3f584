"""A reference online scheduler in C, driven by the exported tables.

:mod:`repro.io.c_export` ships the quasi-static tree as static tables;
this module generates the matching *runtime*: a dependency-free C
implementation of the online scheduler's control loop (walk the active
schedule, re-execute faulted processes from the recovery slack, follow
switch arcs on completions) plus a test harness that replays baked-in
scenarios and prints one line per completion/switch.

The point is differential validation of the embedded deliverable: the
C binary and :class:`repro.runtime.OnlineScheduler` must produce
identical completion times and switch sequences on identical
scenarios (``tests/test_c_runtime.py`` compiles and runs it when a C
compiler is available).

Scope: the C reference implements the *table-driven* decisions —
ordering, recovery timing, arc matching (most-specific-first, as in
Python).  The utility-based soft re-execution guard needs the utility
functions, which are not shipped in the tables, so the reference
always re-executes up to the static cap; differential scenarios
therefore place faults only on hard processes or soft processes with
a zero cap, where both implementations provably agree.  (Shipping
the kernel engine's table-driven core, which does run the guard, in
place of this loop is the export follow-up of ROADMAP open item 4.)
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.faults.injection import ExecutionScenario
from repro.io.c_export import _sanitize
from repro.model.application import Application

_RUNTIME_TEMPLATE = r"""
/* Generated by repro.io.c_runtime - reference online scheduler. */
#include <stdio.h>
#include "{prefix}_schedule.h"

#define N_SCENARIOS {n_scenarios}
#define MAX_ATTEMPTS {max_attempts}

/* durations[s][p][a]: execution time of attempt a of process p. */
static const int32_t durations[N_SCENARIOS][{n_procs}][MAX_ATTEMPTS] = {{
{durations}
}};

/* faults[s][p]: number of failing attempts of process p. */
static const uint8_t faults[N_SCENARIOS][{n_procs}] = {{
{faults}
}};

static const rt_arc *find_arc(uint16_t schedule, uint16_t process,
                              int32_t completion, int observed)
{{
    const rt_arc_span span = {prefix}_arc_spans[schedule];
    const rt_arc *best = 0;
    uint32_t i;
    for (i = 0; i < span.n_arcs; i++) {{
        const rt_arc *arc = &{prefix}_arcs[span.first_arc + i];
        if (arc->process != process)
            continue;
        if (completion < arc->lo || completion > arc->hi)
            continue;
        if (observed < (int)arc->required_faults)
            continue;
        if (!best || arc->required_faults > best->required_faults ||
            (arc->required_faults == best->required_faults &&
             arc->target_schedule < best->target_schedule))
            best = arc;
    }}
    return best;
}}

static void run_scenario(int s)
{{
    uint16_t schedule = {prefix}_root_schedule;
    uint16_t position = 0;
    int32_t clock = 0;
    int observed = 0;

    while (position < {prefix}_schedules[schedule].n_entries) {{
        const rt_schedule sched = {prefix}_schedules[schedule];
        const rt_entry entry = {prefix}_entries[sched.first_entry + position];
        const rt_process proc = {prefix}_processes[entry.process];
        int attempt = 0;
        int completed = 0;
        int32_t completion = 0;

        for (;;) {{
            int32_t duration;
            if (attempt > 0)
                clock += proc.recovery_overhead;
            duration = durations[s][entry.process]
                                [attempt < MAX_ATTEMPTS ? attempt
                                                        : MAX_ATTEMPTS - 1];
            clock += duration;
            if (attempt < (int)faults[s][entry.process]) {{
                observed++;
                if (proc.is_hard || attempt < (int)entry.reexecutions) {{
                    attempt++;
                    continue;
                }}
                printf("%d DROP %u\n", s, (unsigned)entry.process);
                break;
            }}
            completion = clock;
            completed = 1;
            printf("%d DONE %u %ld\n", s, (unsigned)entry.process,
                   (long)completion);
            break;
        }}

        if (completed) {{
            const rt_arc *arc =
                find_arc(schedule, entry.process, completion, observed);
            if (arc) {{
                schedule = arc->target_schedule;
                position = 0;
                printf("%d SWITCH %u\n", s, (unsigned)schedule);
                continue;
            }}
        }}
        position++;
    }}
    printf("%d END %ld\n", s, (long)clock);
}}

int main(void)
{{
    int s;
    for (s = 0; s < N_SCENARIOS; s++)
        run_scenario(s);
    return 0;
}}
"""


def generate_c_harness(
    app: Application,
    scenarios: Sequence[ExecutionScenario],
    symbol: str = "app",
) -> str:
    """C source of the reference scheduler with baked-in scenarios.

    Must be compiled together with the ``{symbol}_schedule.c`` tables
    from :func:`repro.io.c_export.write_c_tables`.
    """
    prefix = _sanitize(symbol)
    names = [p.name for p in app.processes]
    max_attempts = app.k + 1

    duration_rows: List[str] = []
    fault_rows: List[str] = []
    for scenario in scenarios:
        per_proc = []
        for name in names:
            attempts = [
                str(scenario.duration_of(name, a))
                for a in range(max_attempts)
            ]
            per_proc.append("{" + ", ".join(attempts) + "}")
        duration_rows.append("    {" + ", ".join(per_proc) + "},")
        fault_rows.append(
            "    {"
            + ", ".join(
                str(scenario.faults.failures_of(name)) for name in names
            )
            + "},"
        )

    return _RUNTIME_TEMPLATE.format(
        prefix=prefix,
        n_scenarios=len(scenarios),
        n_procs=len(names),
        max_attempts=max_attempts,
        durations="\n".join(duration_rows),
        faults="\n".join(fault_rows),
    )


def parse_harness_output(
    app: Application, text: str
) -> List[Tuple[dict, List[int], int]]:
    """Parse the harness' stdout into per-scenario results.

    Returns, per scenario, ``(completion_times, switch_targets,
    makespan)`` with process indices mapped back to names.
    """
    names = [p.name for p in app.processes]
    results: dict = {}
    for line in text.splitlines():
        parts = line.split()
        if not parts:
            continue
        scenario = int(parts[0])
        record = results.setdefault(scenario, ({}, [], 0))
        if parts[1] == "DONE":
            record[0][names[int(parts[2])]] = int(parts[3])
        elif parts[1] == "SWITCH":
            record[1].append(int(parts[2]))
        elif parts[1] == "END":
            results[scenario] = (record[0], record[1], int(parts[2]))
    return [results[s] for s in sorted(results)]
