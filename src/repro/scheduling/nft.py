"""Value-maximizing *non*-fault-tolerant list scheduler.

This is the first stage of the FTSF baseline (paper §6): a static
non-fault-tolerant schedule that produces maximal value, standing in
for the scheduler of Cortes et al. [3].  It is the FTSS skeleton with
the fault machinery removed: fault budget 0 means no recovery slack is
reserved, schedulability is checked against plain WCETs, and no soft
re-executions are allotted.  Soft processes are still picked by the MU
priority and dropped when beneficial or forced, so the schedule
maximizes average-case utility exactly like FTSS does — just without
tolerance to any fault.  It is one :func:`~repro.scheduling.ftss.ftss`
call, so it runs on the compiled list scheduler like every other FTSS
caller.
"""

from __future__ import annotations

from typing import Optional

from repro.model.application import Application
from repro.scheduling.fschedule import FSchedule


def nft_schedule(
    app: Application,
    drop_heuristic: bool = True,
) -> Optional[FSchedule]:
    """List schedule maximizing value, ignoring faults entirely.

    Returns an :class:`FSchedule` with ``fault_budget = 0`` (so its
    worst-case analysis reserves no recovery time), or ``None`` when
    even the fault-free application cannot meet its hard deadlines.
    """
    from repro.scheduling.ftss import FTSSConfig, ftss

    config = FTSSConfig(
        drop_heuristic=drop_heuristic,
        soft_reexecution=False,
    )
    return ftss(app, fault_budget=0, config=config)
