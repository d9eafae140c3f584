"""JSON (de)serialization of applications, schedules and trees.

Everything the scheduling pipeline produces can be persisted and
reloaded exactly — the embedded use case is precisely this: the
quasi-static tree is synthesized off-line and shipped to the target,
where the online scheduler only reads it.  Round-tripping is covered
by property tests (``tests/test_json_io.py``).
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, List

from repro.errors import SchedulingError, SerializationError
from repro.model.application import Application
from repro.model.graph import ProcessGraph
from repro.model.hypergraph import ShiftedUtility
from repro.model.process import Process, ProcessKind
from repro.quasistatic.tree import QSTree, SwitchArc
from repro.scheduling.fschedule import FSchedule, ScheduledEntry
from repro.utility.functions import UtilityFunction, utility_from_dict

FORMAT_VERSION = 1


# ----------------------------------------------------------------------
# Utility functions
# ----------------------------------------------------------------------
def _utility_to_dict(fn: UtilityFunction) -> Dict[str, Any]:
    return fn.to_dict()


def _utility_from_dict(data: Dict[str, Any]) -> UtilityFunction:
    if data.get("type") == "shifted":
        return ShiftedUtility(
            _utility_from_dict(data["base"]), data["shift"]
        )
    return utility_from_dict(data)


# ----------------------------------------------------------------------
# Processes / graphs / applications
# ----------------------------------------------------------------------
def process_to_dict(proc: Process) -> Dict[str, Any]:
    data: Dict[str, Any] = {
        "name": proc.name,
        "bcet": proc.bcet,
        "wcet": proc.wcet,
        "aet": proc.aet,
        "kind": proc.kind.value,
    }
    if proc.recovery_overhead is not None:
        data["recovery_overhead"] = proc.recovery_overhead
    if proc.is_hard:
        data["deadline"] = proc.deadline
    else:
        data["utility"] = _utility_to_dict(proc.utility)
    return data


def process_from_dict(data: Dict[str, Any]) -> Process:
    try:
        kind = ProcessKind(data["kind"])
        return Process(
            name=data["name"],
            bcet=data["bcet"],
            wcet=data["wcet"],
            aet=data.get("aet"),
            kind=kind,
            deadline=data.get("deadline"),
            utility=(
                _utility_from_dict(data["utility"])
                if "utility" in data
                else None
            ),
            recovery_overhead=data.get("recovery_overhead"),
        )
    except KeyError as exc:
        raise SerializationError(f"process record missing field {exc}") from exc


def application_to_dict(app: Application) -> Dict[str, Any]:
    return {
        "version": FORMAT_VERSION,
        "period": app.period,
        "k": app.k,
        "mu": app.mu,
        "graph": {
            "name": app.graph.name,
            "processes": [process_to_dict(p) for p in app.processes],
            "edges": [[s, d] for s, d in app.graph.edges],
        },
    }


def application_from_dict(data: Dict[str, Any]) -> Application:
    _check_version(data)
    try:
        graph_data = data["graph"]
        graph = ProcessGraph(
            [process_from_dict(p) for p in graph_data["processes"]],
            [tuple(e) for e in graph_data["edges"]],
            name=graph_data.get("name", "G"),
            period=data["period"],
        )
        return Application(
            graph, period=data["period"], k=data["k"], mu=data["mu"]
        )
    except KeyError as exc:
        raise SerializationError(
            f"application record missing field {exc}"
        ) from exc


# ----------------------------------------------------------------------
# Schedules
# ----------------------------------------------------------------------
def schedule_to_dict(schedule: FSchedule) -> Dict[str, Any]:
    return {
        "entries": [
            {"name": e.name, "reexecutions": e.reexecutions}
            for e in schedule.entries
        ],
        "start_time": schedule.start_time,
        "fault_budget": schedule.fault_budget,
        "prior_completed": sorted(schedule.prior_completed),
        "prior_dropped": sorted(schedule.prior_dropped),
        "slack_sharing": schedule.slack_sharing,
    }


def schedule_from_dict(app: Application, data: Dict[str, Any]) -> FSchedule:
    try:
        return FSchedule(
            app,
            [
                ScheduledEntry(e["name"], e["reexecutions"])
                for e in data["entries"]
            ],
            start_time=data["start_time"],
            fault_budget=data["fault_budget"],
            prior_completed=data["prior_completed"],
            prior_dropped=data["prior_dropped"],
            slack_sharing=data.get("slack_sharing", True),
        )
    except KeyError as exc:
        raise SerializationError(f"schedule record missing field {exc}") from exc
    except SchedulingError as exc:
        raise SerializationError(f"invalid schedule record: {exc}") from exc


# ----------------------------------------------------------------------
# Quasi-static trees
# ----------------------------------------------------------------------
def tree_to_dict(tree: QSTree) -> Dict[str, Any]:
    nodes: List[Dict[str, Any]] = []
    for node in tree:
        nodes.append(
            {
                "id": node.node_id,
                "parent": node.parent_id,
                "layer": node.layer,
                "switch_process": node.switch_process,
                "assumed_faults": node.assumed_faults,
                "schedule": schedule_to_dict(node.schedule),
                "arcs": [
                    {
                        "process": a.process,
                        "lo": a.lo,
                        "hi": a.hi,
                        "required_faults": a.required_faults,
                        "target": a.target,
                    }
                    for a in node.arcs
                ],
            }
        )
    return {"version": FORMAT_VERSION, "root": tree.root_id, "nodes": nodes}


def tree_from_dict(app: Application, data: Dict[str, Any]) -> QSTree:
    _check_version(data)
    try:
        by_id = {n["id"]: n for n in data["nodes"]}
        root_record = by_id[data["root"]]
        tree = QSTree(schedule_from_dict(app, root_record["schedule"]))
        if data["root"] != tree.root_id:
            raise SerializationError(
                "root node id mismatch; trees must be saved with root id 0"
            )
        # Rebuild children in id order so tree-assigned ids line up.
        id_map = {data["root"]: tree.root_id}

        def mapped(record: Dict[str, Any], role: str, old_id: Any) -> int:
            if not isinstance(old_id, int) or old_id not in id_map:
                raise SerializationError(f"tree node {record['id']}: "
                                         f"unknown {role} node {old_id!r}")
            return id_map[old_id]

        for record in sorted(data["nodes"], key=lambda n: n["id"]):
            if record["id"] == data["root"]:
                continue
            node = tree.add_child(
                mapped(record, "parent", record["parent"]),
                schedule_from_dict(app, record["schedule"]),
                switch_process=record["switch_process"],
                assumed_faults=record["assumed_faults"],
                layer=record["layer"],
            )
            id_map[record["id"]] = node.node_id
        for record in data["nodes"]:
            for arc in record["arcs"]:
                tree.add_arc(
                    id_map[record["id"]],
                    SwitchArc(
                        process=arc["process"],
                        lo=arc["lo"],
                        hi=arc["hi"],
                        required_faults=arc["required_faults"],
                        target=mapped(record, "target", arc["target"]),
                    ),
                )
        tree.validate()
        return tree
    except KeyError as exc:
        raise SerializationError(f"tree record missing field {exc}") from exc
    except SchedulingError as exc:
        raise SerializationError(f"invalid tree record: {exc}") from exc


# ----------------------------------------------------------------------
# Content addresses and file helpers
# ----------------------------------------------------------------------
def content_digest(data: Any) -> str:
    """SHA-256 hex digest of ``data``'s canonical JSON (sorted keys,
    compact separators): one address per document content, whatever
    the dict order or object identity behind it."""
    payload = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def save_json(data: Dict[str, Any], path: str) -> None:
    with open(path, "w") as handle:
        json.dump(data, handle, indent=2, sort_keys=True)


def load_json(path: str) -> Dict[str, Any]:
    with open(path) as handle:
        loaded = json.load(handle)
    if not isinstance(loaded, dict):
        raise SerializationError(f"{path}: expected a JSON object")
    return loaded


def _check_version(data: Dict[str, Any]) -> None:
    version = data.get("version", FORMAT_VERSION)
    if version != FORMAT_VERSION:
        raise SerializationError(
            f"unsupported format version {version} (expected {FORMAT_VERSION})"
        )
