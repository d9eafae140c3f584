"""Static fault-tolerant scheduling: f-schedules, FTSS, FTSF."""

from repro.scheduling.dropping import (
    determine_dropping,
    forced_dropping_choice,
    greedy_soft_order,
    hypothetical_utility,
)
from repro.scheduling.fschedule import (
    FSchedule,
    ScheduledEntry,
    shared_recovery_demand,
)
from repro.scheduling.ftsf import ftsf
from repro.scheduling.ftss import DEFAULT_CONFIG, FTSSConfig, ftss
from repro.scheduling.nft import nft_schedule
from repro.scheduling.priority import (
    best_soft,
    earliest_deadline_hard,
    soft_priorities,
)
from repro.scheduling.schedulability import (
    candidate_schedule,
    edf_hard_order,
    get_schedulable,
    leads_to_schedulable,
    modified_deadlines,
)
from repro.scheduling.slack import (
    SlackEntry,
    format_slack_profile,
    minimum_slack,
    slack_profile,
)

__all__ = [
    "DEFAULT_CONFIG",
    "FSchedule",
    "FTSSConfig",
    "ScheduledEntry",
    "best_soft",
    "candidate_schedule",
    "determine_dropping",
    "earliest_deadline_hard",
    "edf_hard_order",
    "forced_dropping_choice",
    "ftsf",
    "ftss",
    "get_schedulable",
    "greedy_soft_order",
    "hypothetical_utility",
    "leads_to_schedulable",
    "minimum_slack",
    "modified_deadlines",
    "nft_schedule",
    "shared_recovery_demand",
    "slack_profile",
    "soft_priorities",
    "SlackEntry",
    "format_slack_profile",
]
