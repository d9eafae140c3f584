#!/usr/bin/env python
"""Bench-trajectory regression gate.

The benchmark suites append one entry per run to the ``BENCH_*.json``
trajectory artifacts at the repo root (``BENCH_engine.json`` from
``benchmarks/test_bench_engine.py``, ``BENCH_synthesis.json`` from
``benchmarks/test_bench_synthesis.py``).  This script parses those
trajectories and fails (exit code 1) when an *asserted-floor* metric
of the freshly appended entry regressed more than ``--threshold``
(default 20%) against the prior trajectory baseline for the same axis
label.

The default baseline is the **median of the last** ``--window``
**prior entries** (not the all-time best): trajectory entries come
from heterogeneous machines and load conditions, and measured
same-box run-to-run noise on the speedup axes already exceeds 20% —
a best-ever ratchet would flap and, once one lucky-fast entry lands,
never decay.  ``--baseline best`` selects the strict all-time-best
comparison for hand audits.

An asserted-floor metric is the ``speedup`` of an axis whose label
contains neither ``"jobs"`` nor ``"threads"`` — that covers the
engine axes (``cc/ftqs-8/f=N``) and the C kernel core axes
(``cc/ftqs-8/f=N/kernel-vs-ref`` and ``.../kernel-vs-batched``).
The CPU-bound comparison axes (``cc/compare-jobs``,
``cc/compare-kernel-threads``, ``table1/jobs4-vs-jobs1``) depend on
how many CPUs the box has and are gated inside the benches
themselves, so a trajectory comparison across heterogeneous machines
would be noise, not signal: they are *skipped*, never gated, and any
historical comparison row recorded on a box with fewer than
``MIN_JOBS_CPUS`` CPUs (each row carries the ``cpu_count`` it was
measured on) is dropped from baselines outright.

Usage (also wired into CI)::

    python benchmarks/check_trajectory.py BENCH_engine.json
    python benchmarks/check_trajectory.py BENCH_*.json --threshold 0.25

Exit codes: 0 = no regression (or not enough history), 1 = regression
detected, 2 = missing, unreadable or malformed trajectory file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Tuple

#: The metric asserted with a floor by the bench suites.
FLOOR_METRIC = "speedup"

#: Below this CPU count a CPU-bound comparison measurement (jobs or
#: threads) is noise — parallelism cannot win without cores — and is
#: skipped.
MIN_JOBS_CPUS = 4


def is_floor_axis(label: str) -> bool:
    """True when ``label``'s speedup is floor-asserted by the benches.

    Axes comparing worker counts or sharding modes (``jobs`` or
    ``threads`` in the label) are CPU-bound and gated inside the
    benches themselves, never by the trajectory.
    """
    return "jobs" not in label and "threads" not in label


def is_skipped_row(label: str, row: dict) -> bool:
    """True for CPU-bound comparison rows measured on a too-small box.

    Older entries predate the per-axis ``cpu_count`` field; those are
    kept (the benches of that era only appended the row after passing
    their own >= 4-CPU gate).
    """
    if is_floor_axis(label):
        return False
    cpus = row.get("cpu_count")
    return isinstance(cpus, int) and cpus < MIN_JOBS_CPUS


def prior_values(history: List[dict], label: str) -> List[float]:
    """All prior ``FLOOR_METRIC`` values for ``label``, oldest first."""
    values = []
    for entry in history:
        for row in entry.get("axes", []):
            if row.get("label") != label or is_skipped_row(label, row):
                continue
            value = row.get(FLOOR_METRIC)
            if isinstance(value, (int, float)):
                values.append(float(value))
    return values


def baseline_of(
    history: List[dict], label: str, mode: str, window: int
) -> Tuple[float, str] | None:
    """The comparison baseline for ``label``: ``(value, description)``.

    ``median`` (the default) takes the median of the last ``window``
    prior values — robust to one lucky-fast outlier entry; ``best``
    takes the all-time maximum.  Returns ``None`` when no prior entry
    measured the axis (a new axis has no baseline).
    """
    values = prior_values(history, label)
    if not values:
        return None
    if mode == "best":
        return max(values), f"best of {len(values)}"
    recent = values[-window:]
    return (
        statistics.median(recent),
        f"median of last {len(recent)}",
    )


def check_file(
    path: Path, threshold: float, mode: str, window: int
) -> List[str]:
    """Regression messages for one trajectory file (empty = clean)."""
    try:
        history = json.loads(path.read_text())
    except (OSError, ValueError) as error:
        print(f"error: cannot parse trajectory {path}: {error}", file=sys.stderr)
        raise SystemExit(2) from error
    if not isinstance(history, list) or not all(
        isinstance(entry, dict) for entry in history
    ):
        print(
            f"error: {path} is not a list of trajectory entries",
            file=sys.stderr,
        )
        raise SystemExit(2)
    if len(history) < 2:
        print(f"{path.name}: {len(history)} entry(ies), nothing to compare")
        return []
    latest = history[-1]
    prior = history[:-1]
    failures: List[str] = []
    checked = 0
    for row in latest.get("axes", []):
        label = row.get("label")
        value = row.get(FLOOR_METRIC)
        if not isinstance(label, str):
            continue
        if not is_floor_axis(label):
            cpus = row.get("cpu_count")
            where = f"on a {cpus}-CPU box" if cpus else "no cpu_count"
            print(
                f"{path.name}: {label}: CPU-bound comparison axis "
                f"({where}), skipped — gated in the bench itself"
            )
            continue
        if not isinstance(value, (int, float)):
            continue
        result = baseline_of(prior, label, mode, window)
        if result is None:
            print(f"{path.name}: {label}: new axis, no prior baseline")
            continue
        baseline, description = result
        checked += 1
        floor = baseline * (1.0 - threshold)
        status = "ok" if value >= floor else "REGRESSED"
        print(
            f"{path.name}: {label}: {FLOOR_METRIC} {value:.2f}x vs "
            f"{baseline:.2f}x ({description}, floor {floor:.2f}x) {status}"
        )
        if value < floor:
            failures.append(
                f"{path.name}: {label}: {FLOOR_METRIC} {value:.2f}x fell "
                f">{threshold:.0%} below the prior {description} "
                f"baseline {baseline:.2f}x"
            )
    if checked == 0:
        print(f"{path.name}: no floor-asserted axes in the latest entry")
    return failures


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="fail when a floor-asserted bench metric regressed "
        "against the prior trajectory baseline (median of the last "
        "--window entries by default, --baseline best for the "
        "all-time-best ratchet)"
    )
    parser.add_argument(
        "trajectories",
        nargs="+",
        type=Path,
        help="BENCH_*.json trajectory files to check",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.2,
        help="allowed fractional regression vs the prior baseline "
        "(default: 0.2 = 20%%)",
    )
    parser.add_argument(
        "--baseline",
        choices=("median", "best"),
        default="median",
        help="baseline: median of the last --window prior entries "
        "(default; robust to outlier runs) or the all-time best",
    )
    parser.add_argument(
        "--window",
        type=int,
        default=8,
        help="how many recent prior entries feed the median baseline "
        "(default: 8)",
    )
    args = parser.parse_args(argv)
    if not 0.0 <= args.threshold < 1.0:
        parser.error("--threshold must be in [0, 1)")
    if args.window < 1:
        parser.error("--window must be >= 1")
    missing = [path for path in args.trajectories if not path.exists()]
    if missing:
        # Fail closed: a renamed/deleted trajectory must not silently
        # disable the gate (CI names exactly the files it expects).
        for path in missing:
            print(f"error: trajectory {path} does not exist", file=sys.stderr)
        return 2
    failures: Dict[Path, List[str]] = {}
    for path in args.trajectories:
        messages = check_file(path, args.threshold, args.baseline, args.window)
        if messages:
            failures[path] = messages
    if failures:
        print("\nbench-trajectory regressions:", file=sys.stderr)
        for messages in failures.values():
            for message in messages:
                print(f"  {message}", file=sys.stderr)
        return 1
    print("trajectory gate: no regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
