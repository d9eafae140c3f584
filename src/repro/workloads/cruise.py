"""The vehicle cruise controller (CC) real-life example (paper §6).

The paper's CC application has 32 processes on a single
microcontroller, nine of which — the ones "critically involved with
the actuators" — are hard; k = 2 transient faults are tolerated and µ
is 10% of each process's WCET.  The concrete graph is published only
in the licentiate thesis [8], which is not available to us, so we
reconstruct a functionally equivalent controller:
a sensor → filtering → control-law → actuation pipeline for the hard
path, surrounded by soft processes for driver interface, diagnostics,
adaptation and communication.

The graph, execution times and utility functions below are fixed
(no randomness) so the CC experiment is exactly reproducible.
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

from repro.model.application import Application
from repro.model.graph import ProcessGraph
from repro.model.process import Process, hard_process, soft_process
from repro.utility.functions import StepUtility
from repro.workloads.deadlines import assign_period, hard_only_bounds

#: (name, bcet, wcet, kind) — kind "H" hard, "S" soft.
CC_PROCESSES: List[Tuple[str, int, int, str]] = [
    # --- hard actuation path (9 processes) ---
    ("SpeedAcq", 6, 20, "H"),        # wheel-speed acquisition
    ("SpeedFilter", 8, 24, "H"),     # speed signal filtering
    ("SetpointMgr", 6, 18, "H"),     # target-speed management
    ("CtrlError", 4, 12, "H"),       # control error computation
    ("PIController", 10, 30, "H"),   # control law
    ("ThrottleCmd", 6, 16, "H"),     # throttle actuator command
    ("BrakeArbiter", 5, 14, "H"),    # brake override arbitration
    ("BrakeCmd", 6, 16, "H"),        # brake actuator command
    ("Watchdog", 3, 10, "H"),        # actuation watchdog
    # --- soft sensor refinement ---
    ("AccelEst", 8, 26, "S"),        # acceleration estimator
    ("SlopeEst", 10, 30, "S"),       # road-slope estimator
    ("FuelModel", 8, 28, "S"),       # fuel-consumption model
    # --- soft driver interface ---
    ("ButtonScan", 3, 10, "S"),      # button scanning
    ("LeverDebounce", 3, 10, "S"),   # stalk lever debouncing
    ("DisplaySpeed", 5, 16, "S"),    # speed display rendering
    ("DisplayStatus", 5, 16, "S"),   # status display rendering
    ("CruiseLight", 2, 8, "S"),      # indicator lamp control
    ("Chime", 2, 8, "S"),            # acoustic feedback
    ("HmiUpdate", 6, 20, "S"),       # HMI frame composition
    # --- soft control refinement ---
    ("GainSched", 8, 24, "S"),       # gain scheduling
    ("AdaptiveTune", 10, 32, "S"),   # adaptive parameter tuning
    ("JerkLimiter", 5, 16, "S"),     # comfort jerk limiting
    ("EconMode", 6, 20, "S"),        # economy-mode optimization
    # --- soft diagnostics ---
    ("DiagSensors", 6, 22, "S"),     # sensor plausibility checks
    ("DiagActuators", 6, 22, "S"),   # actuator feedback checks
    ("DtcLogger", 4, 14, "S"),       # diagnostic trouble codes
    ("HealthReport", 4, 14, "S"),    # health summary
    # --- soft communication / bookkeeping ---
    ("CanRx", 4, 12, "S"),           # CAN reception
    ("CanTx", 4, 12, "S"),           # CAN transmission
    ("Telemetry", 5, 18, "S"),       # telemetry packaging
    ("TripStats", 4, 14, "S"),       # trip statistics
    ("CalUpdate", 5, 18, "S"),       # calibration persistence
]

CC_EDGES: List[Tuple[str, str]] = [
    # hard control path
    ("SpeedAcq", "SpeedFilter"),
    ("SpeedFilter", "CtrlError"),
    ("SetpointMgr", "CtrlError"),
    ("CtrlError", "PIController"),
    ("PIController", "ThrottleCmd"),
    ("PIController", "BrakeArbiter"),
    ("BrakeArbiter", "BrakeCmd"),
    ("ThrottleCmd", "Watchdog"),
    ("BrakeCmd", "Watchdog"),
    # driver interface feeds the setpoint (stale values acceptable)
    ("ButtonScan", "LeverDebounce"),
    ("LeverDebounce", "SetpointMgr"),
    ("CanRx", "SetpointMgr"),
    ("CanRx", "BrakeArbiter"),
    # sensor refinement
    ("SpeedFilter", "AccelEst"),
    ("SpeedFilter", "SlopeEst"),
    ("AccelEst", "SlopeEst"),
    ("SpeedFilter", "FuelModel"),
    # control refinement
    ("AccelEst", "GainSched"),
    ("SlopeEst", "GainSched"),
    ("GainSched", "PIController"),
    ("GainSched", "AdaptiveTune"),
    ("CtrlError", "AdaptiveTune"),
    ("PIController", "JerkLimiter"),
    ("JerkLimiter", "ThrottleCmd"),
    ("FuelModel", "EconMode"),
    ("PIController", "EconMode"),
    ("AdaptiveTune", "CalUpdate"),
    # diagnostics
    ("SpeedAcq", "DiagSensors"),
    ("CanRx", "DiagSensors"),
    ("ThrottleCmd", "DiagActuators"),
    ("BrakeCmd", "DiagActuators"),
    ("DiagSensors", "DtcLogger"),
    ("DiagActuators", "DtcLogger"),
    ("DtcLogger", "HealthReport"),
    # HMI
    ("SpeedFilter", "DisplaySpeed"),
    ("SetpointMgr", "DisplayStatus"),
    ("SetpointMgr", "CruiseLight"),
    ("LeverDebounce", "Chime"),
    ("DisplaySpeed", "HmiUpdate"),
    ("DisplayStatus", "HmiUpdate"),
    ("CruiseLight", "HmiUpdate"),
    # communication / bookkeeping
    ("PIController", "CanTx"),
    ("HealthReport", "CanTx"),
    ("SpeedFilter", "TripStats"),
    ("CanTx", "Telemetry"),
    ("TripStats", "Telemetry"),
]

#: Relative importance of each soft function, used as the initial
#: utility value.  Control refinement and driver feedback rank above
#: statistics and persistence.
CC_UTILITY_WEIGHTS: Dict[str, int] = {
    "AccelEst": 60,
    "SlopeEst": 55,
    "FuelModel": 40,
    "ButtonScan": 70,
    "LeverDebounce": 70,
    "DisplaySpeed": 50,
    "DisplayStatus": 45,
    "CruiseLight": 30,
    "Chime": 25,
    "HmiUpdate": 55,
    "GainSched": 65,
    "AdaptiveTune": 45,
    "JerkLimiter": 60,
    "EconMode": 35,
    "DiagSensors": 50,
    "DiagActuators": 50,
    "DtcLogger": 30,
    "HealthReport": 25,
    "CanRx": 75,
    "CanTx": 55,
    "Telemetry": 20,
    "TripStats": 15,
    "CalUpdate": 15,
}

CC_K = 2
CC_DEADLINE_LAXITY = 1.6
CC_PERIOD_PRESSURE = 0.92


def _mu_of(wcet: int) -> int:
    """µ = 10% of the WCET (paper §6), at least one tick."""
    return max(1, int(math.ceil(wcet * 0.10)))


def cruise_controller(
    deadline_laxity: float = CC_DEADLINE_LAXITY,
    period_pressure: float = CC_PERIOD_PRESSURE,
) -> Application:
    """Build the 32-process cruise-controller application.

    ``deadline_laxity`` scales the hard deadlines above their hard-only
    worst-case bounds; ``period_pressure`` scales the period relative
    to the full worst-case load (< 1 forces dropping of some soft
    processes in the worst case, as in the paper's overload
    discussion).
    """
    timing = {name: (b, w) for name, b, w, _ in CC_PROCESSES}
    kinds = {name: kind for name, _, _, kind in CC_PROCESSES}
    names = [name for name, _, _, _ in CC_PROCESSES]
    wcet = {n: timing[n][1] for n in names}
    recovery_need = {n: wcet[n] + _mu_of(wcet[n]) for n in names}

    # Topological order for the hard-only bound: the declaration order
    # of CC_PROCESSES is not topological, so derive one.
    succ: Dict[str, List[str]] = {n: [] for n in names}
    indeg = {n: 0 for n in names}
    for src, dst in CC_EDGES:
        succ[src].append(dst)
        indeg[dst] += 1
    stack = sorted(n for n in names if indeg[n] == 0)
    topo: List[str] = []
    while stack:
        node = stack.pop(0)
        topo.append(node)
        for nxt in succ[node]:
            indeg[nxt] -= 1
            if indeg[nxt] == 0:
                stack.append(nxt)
                stack.sort()

    hard_names = [n for n in names if kinds[n] == "H"]
    bounds = hard_only_bounds(topo, hard_names, wcet, recovery_need, CC_K)
    total_wcet = sum(wcet.values())
    max_need = max(recovery_need.values())
    provisional = {
        n: int(math.ceil(b * deadline_laxity)) for n, b in bounds.items()
    }
    min_period = max(list(provisional.values()) + [max(bounds.values())])
    period = assign_period(
        total_wcet, max_need, CC_K, period_pressure, min_period
    )
    deadlines = {
        n: max(bounds[n], min(provisional[n], period)) for n in bounds
    }

    # Earliest completions (BCET critical path) to scale utilities.
    earliest: Dict[str, int] = {}
    pred: Dict[str, List[str]] = {n: [] for n in names}
    for src, dst in CC_EDGES:
        pred[dst].append(src)
    for node in topo:
        start = max((earliest[p] for p in pred[node]), default=0)
        earliest[node] = start + timing[node][0]

    processes: List[Process] = []
    for name in names:
        bcet_v, wcet_v = timing[name]
        mu = _mu_of(wcet_v)
        if kinds[name] == "H":
            processes.append(
                hard_process(
                    name,
                    bcet_v,
                    wcet_v,
                    deadlines[name],
                    recovery_overhead=mu,
                )
            )
        else:
            weight = CC_UTILITY_WEIGHTS[name]
            e = earliest[name]
            # Deterministic three-step decay over the plausible
            # completion range of the process.
            utility = StepUtility(
                weight,
                [
                    (int(e * 1.5) + 40, round(weight * 0.6)),
                    (int(e * 2.5) + 120, round(weight * 0.25)),
                    (int(e * 4.0) + 260, 0.0),
                ],
            )
            processes.append(
                soft_process(
                    name, bcet_v, wcet_v, utility, recovery_overhead=mu
                )
            )

    graph = ProcessGraph(processes, CC_EDGES, name="CC")
    app = Application(graph, period=period, k=CC_K, mu=0)
    app.validate()
    return app
