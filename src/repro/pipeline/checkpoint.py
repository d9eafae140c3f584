"""Checkpoint/resume for experiment sweeps: an atomic JSONL journal.

A paper-scale sweep is hours of synthesis and simulation; a killed
nightly that restarts from zero wastes all of it.  This module gives
:class:`~repro.pipeline.runner.ExperimentRunner` a durable journal of
*completed evaluation units*, so a resumed run
(``repro experiment --checkpoint DIR --resume``) skips every unit that
already reached disk and emits final rows **byte-identical** to an
uninterrupted run.

Layout under the checkpoint directory:

* ``manifest.json`` — the experiment's name plus a workload
  **fingerprint** (SHA-256 over the canonical JSON of the config with
  the result-neutral ``execution`` routing knob masked — every engine
  and worker count produces bit-identical rows, which the
  differential suites pin).  ``--resume`` refuses a directory whose
  manifest does not match, so rows of different workloads can never be
  mixed;
* ``journal.jsonl`` — one JSON line per completed unit:
  ``{"key": <unit fingerprint>, "value": <encoded outcomes>}``, an
  outcome being its :data:`~repro.evaluation.montecarlo.AGGREGATES`
  (format 2; format 1, which ``--resume`` refuses, held every
  per-scenario utility).  Each line is flushed and fsynced before the
  run moves on, so a kill between rows loses nothing; a kill
  *mid-write* leaves at most one torn trailing line, which the loader
  tolerates (everything before it is reused, the torn unit is
  recomputed).

The journaled unit is one evaluator call — ``compare(plans)`` or
``evaluate(plan)`` — keyed by the application, the evaluation
parameters and the plans' canonical JSON forms.
:class:`JournalingEvaluator` wraps the runner's Monte-Carlo evaluator:
a journal hit decodes the stored
:class:`~repro.evaluation.montecarlo.EvaluationOutcome` aggregates
without constructing the real evaluator at all (skipping its eager
scenario sampling — the expensive part at paper scale), and floats
round-trip exactly through JSON (``repr`` shortest-form, the same
guarantee the golden differential suite relies on).
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, is_dataclass
from typing import Any, Callable, Dict, Optional, Sequence

from repro.errors import RuntimeModelError
from repro.evaluation.montecarlo import AGGREGATES, EvaluationOutcome
from repro.io.json_io import content_digest

MANIFEST_NAME = "manifest.json"
JOURNAL_NAME = "journal.jsonl"
FORMAT_VERSION = 2

#: Config knobs masked out of the workload fingerprint: pure routing,
#: proven result-neutral by the differential suites.
_ROUTING_KNOBS = ("execution",)


def masked_workload(config) -> Optional[Dict[str, Any]]:
    """The fingerprinted view of a config: a plain dict with the
    result-neutral routing knobs (:data:`_ROUTING_KNOBS`) removed."""
    if config is None:
        return None
    data = dict(asdict(config) if is_dataclass(config) else config)
    for knob in _ROUTING_KNOBS:
        data.pop(knob, None)
    return data


def checkpoint_fingerprint(experiment: str, config=None) -> str:
    """Stable identity of one experiment workload.

    ``config`` may be a config dataclass or a plain dict; the routing
    knobs (:data:`_ROUTING_KNOBS`) are masked so a sweep checkpointed
    with ``--executor kernel@processes:4`` resumes fine under
    ``--executor reference``.
    """
    payload: Dict[str, Any] = {"experiment": experiment}
    workload = masked_workload(config)
    if workload is not None:
        payload["workload"] = workload
    return content_digest(payload)


def _workload_diff(
    theirs: Optional[Dict[str, Any]], ours: Optional[Dict[str, Any]]
) -> str:
    """One comma-separated summary of how two workloads differ.

    Names each masked config field whose value changed (with both
    values), so the error says *what* to fix, not just that the
    fingerprints disagree.  An older manifest without a recorded
    workload gets an honest fallback.
    """
    if theirs is None or ours is None:
        return "the checkpoint predates workload recording"
    differing = []
    for name in sorted(set(theirs) | set(ours)):
        a, b = theirs.get(name, "<absent>"), ours.get(name, "<absent>")
        if a != b:
            differing.append(f"{name} (checkpoint {a!r}, this run {b!r})")
    if not differing:
        return "identical recorded workloads with differing fingerprints"
    return "differing field(s): " + ", ".join(differing)


class ExperimentCheckpoint:
    """The journal of one (possibly multi-session) experiment run.

    Parameters
    ----------
    directory:
        Where the manifest and journal live (created on demand).
    experiment:
        The experiment's name (``fig9a``, ``sweeps``, ...).
    config:
        The workload config; fingerprinted into the manifest.
    resume:
        ``False`` (default) starts fresh — the journal is truncated
        and the manifest rewritten atomically.  ``True`` requires an
        existing manifest with a matching fingerprint and reloads the
        journal; mismatches raise a clear
        :class:`~repro.errors.RuntimeModelError`.
    """

    def __init__(
        self,
        directory: str,
        *,
        experiment: str,
        config=None,
        resume: bool = False,
    ):
        self.directory = os.path.abspath(directory)
        self.experiment = experiment
        self.fingerprint = checkpoint_fingerprint(experiment, config)
        self.workload = masked_workload(config)
        self.resume = resume
        #: Units journaled by this session / reused from a prior one.
        self.journaled = 0
        self.reused = 0
        self._entries: Dict[str, Any] = {}
        self._handle = None
        manifest_path = os.path.join(self.directory, MANIFEST_NAME)
        journal_path = os.path.join(self.directory, JOURNAL_NAME)
        if resume:
            self._check_manifest(manifest_path)
            self._load_journal(journal_path)
        else:
            os.makedirs(self.directory, exist_ok=True)
            self._write_manifest(manifest_path)
        self._handle = open(
            journal_path, "a" if resume else "w", encoding="utf-8"
        )

    # ------------------------------------------------------------------
    # Manifest
    # ------------------------------------------------------------------
    def _write_manifest(self, path: str) -> None:
        payload = json.dumps(
            {
                "format": FORMAT_VERSION,
                "experiment": self.experiment,
                "fingerprint": self.fingerprint,
                # The masked config itself, not just its hash: a
                # mismatched --resume can then say *which* field moved.
                "workload": self.workload,
            },
            indent=2,
            sort_keys=True,
        )
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(payload + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)

    def _check_manifest(self, path: str) -> None:
        if not os.path.isfile(path):
            raise RuntimeModelError(
                f"cannot resume: no checkpoint manifest at {path} "
                f"(run once with --checkpoint first)"
            )
        try:
            with open(path, "r", encoding="utf-8") as handle:
                manifest = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            raise RuntimeModelError(
                f"cannot resume: unreadable checkpoint manifest at "
                f"{path}: {exc}"
            ) from exc
        if manifest.get("format") != FORMAT_VERSION:
            raise RuntimeModelError(
                f"cannot resume: the checkpoint at {self.directory} is in "
                f"format {manifest.get('format')!r}, this version reads "
                f"format {FORMAT_VERSION} (use a fresh --checkpoint directory)"
            )
        if manifest.get("fingerprint") != self.fingerprint:
            if manifest.get("experiment") != self.experiment:
                what = (
                    f"belongs to experiment "
                    f"{manifest.get('experiment')!r}, not "
                    f"{self.experiment!r}"
                )
            else:
                what = (
                    f"has a different workload fingerprint — "
                    f"{_workload_diff(manifest.get('workload'), self.workload)}"
                )
            raise RuntimeModelError(
                f"cannot resume: the checkpoint at {self.directory} "
                f"{what}; refusing to mix results "
                f"(use a fresh --checkpoint directory)"
            )

    # ------------------------------------------------------------------
    # Journal
    # ------------------------------------------------------------------
    def _load_journal(self, path: str) -> None:
        if not os.path.isfile(path):
            return
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    entry = json.loads(line)
                    key, value = entry["key"], entry["value"]
                except (json.JSONDecodeError, KeyError, TypeError):
                    # A torn tail from a killed run: everything after
                    # it is unreliable, everything before is reusable.
                    break
                self._entries[key] = value

    @property
    def completed(self) -> int:
        """Units currently on disk (loaded + journaled this session)."""
        return len(self._entries)

    def lookup(self, key: str) -> Optional[Any]:
        """The journaled value under ``key``, or ``None`` (counted)."""
        value = self._entries.get(key)
        if value is not None:
            self.reused += 1
        return value

    def record(self, key: str, value: Any) -> None:
        """Durably append one completed unit (flush + fsync).

        The active chaos plan's ``kill-run`` hook fires *after* the
        row is on disk — exactly the shape of a real kill between
        rows, which is what ``--resume`` recovers from.
        """
        if self._handle is None:
            raise RuntimeModelError(
                "cannot record on a closed ExperimentCheckpoint"
            )
        line = json.dumps(
            {"key": key, "value": value}, separators=(",", ":")
        )
        self._handle.write(line + "\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())
        self._entries[key] = value
        self.journaled += 1
        from repro.pipeline import chaos

        plan = chaos.current()
        if plan is not None:
            plan.row_written()

    def summary_line(self) -> str:
        return (
            f"checkpoint: {self.journaled} unit(s) journaled, "
            f"{self.reused} reused ({self.directory})"
        )

    def close(self) -> None:
        """Close the journal handle (idempotent)."""
        if self._handle is not None:
            try:
                self._handle.close()
            finally:
                self._handle = None

    def __enter__(self) -> "ExperimentCheckpoint":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# ----------------------------------------------------------------------
# Outcome (de)serialization
# ----------------------------------------------------------------------
def _encode_results(results) -> Dict[str, Any]:
    """``compare()``'s ``{name: {faults: outcome}}`` → JSON-safe, each
    outcome its :data:`~repro.evaluation.montecarlo.AGGREGATES`."""
    return {
        name: {
            str(faults): {field: getattr(out, field) for field in AGGREGATES}
            for faults, out in outcomes.items()
        }
        for name, outcomes in results.items()
    }


def _decode_results(data: Dict[str, Any]):
    return {
        name: {
            int(faults): EvaluationOutcome(**fields)
            for faults, fields in outcomes.items()
        }
        for name, outcomes in data.items()
    }


def _plan_payload(plan) -> Dict[str, Any]:
    """The canonical JSON form of a plan (tree or f-schedule)."""
    from repro.io.json_io import schedule_to_dict, tree_to_dict
    from repro.quasistatic.tree import QSTree

    if isinstance(plan, QSTree):
        return {"tree": tree_to_dict(plan)}
    return {"schedule": schedule_to_dict(plan)}


class JournalingEvaluator:
    """A Monte-Carlo evaluator view backed by the checkpoint journal.

    Presents the evaluator surface the drivers use (``compare`` /
    ``evaluate`` / ``with`` scoping); each call is keyed by the
    application, the evaluation parameters and the plans' canonical
    forms.  A journal hit returns the stored outcomes decoded exactly
    (no simulation, no scenario sampling — the real evaluator is never
    even constructed); a miss builds the real evaluator lazily through
    ``factory``, runs it, and journals the encoded result durably
    before returning it.  Anything else (``scenarios`` for the
    replanner ablation, say) transparently forces and proxies the real
    evaluator.
    """

    def __init__(
        self,
        checkpoint: ExperimentCheckpoint,
        app,
        factory: Callable[[], Any],
        *,
        n_scenarios: int,
        fault_counts: Optional[Sequence[int]],
        seed: int,
    ):
        self._checkpoint = checkpoint
        self._factory = factory
        self._inner = None
        from repro.io.json_io import application_to_dict

        self._base = {
            "app": application_to_dict(app),
            "eval": {
                "n_scenarios": n_scenarios,
                "fault_counts": (
                    list(fault_counts)
                    if fault_counts is not None
                    else list(range(getattr(app, "k", 0) + 1))
                ),
                "seed": seed,
            },
        }

    def _ensure_inner(self):
        if self._inner is None:
            self._inner = self._factory()
        return self._inner

    def key_for(self, plans) -> str:
        payload = dict(self._base)
        payload["plans"] = {
            name: _plan_payload(plan) for name, plan in plans.items()
        }
        return content_digest(payload)

    # ------------------------------------------------------------------
    # Evaluator surface
    # ------------------------------------------------------------------
    def compare(self, plans):
        key = self.key_for(plans)
        cached = self._checkpoint.lookup(key)
        if cached is not None:
            return _decode_results(cached)
        results = self._ensure_inner().compare(plans)
        self._checkpoint.record(key, _encode_results(results))
        return results

    def evaluate(self, plan):
        return self.compare({"plan": plan})["plan"]

    def close(self) -> None:
        if self._inner is not None:
            self._inner.close()
            self._inner = None

    def __enter__(self) -> "JournalingEvaluator":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __getattr__(self, attr):
        if attr.startswith("_"):
            raise AttributeError(attr)
        return getattr(self._ensure_inner(), attr)
