"""Quasi-static scheduling: tree, similarity, intervals, FTQS."""

from repro.quasistatic.ftqs import (
    DEFAULT_FTQS_CONFIG,
    FTQSConfig,
    SchedulingStrategyResult,
    best_case_completion,
    create_subschedules,
    ftqs,
    ftqs_reference,
    interval_partitioning,
    schedule_application,
    worst_case_completion,
)
from repro.quasistatic.synthesis import SynthesisEngine, SynthesisStats
from repro.quasistatic.intervals import (
    TailProfile,
    latest_safe_start,
    tail_profile,
)
from repro.quasistatic.similarity import (
    find_most_similar_unexpanded,
    order_similarity,
    schedule_similarity,
    set_similarity,
)
from repro.quasistatic.tree import QSNode, QSTree, SwitchArc

__all__ = [
    "DEFAULT_FTQS_CONFIG",
    "FTQSConfig",
    "QSNode",
    "QSTree",
    "SchedulingStrategyResult",
    "SwitchArc",
    "TailProfile",
    "best_case_completion",
    "create_subschedules",
    "find_most_similar_unexpanded",
    "ftqs",
    "ftqs_reference",
    "SynthesisEngine",
    "SynthesisStats",
    "interval_partitioning",
    "latest_safe_start",
    "order_similarity",
    "schedule_application",
    "schedule_similarity",
    "set_similarity",
    "tail_profile",
    "worst_case_completion",
]
