"""The unified execution surface: which engine runs a Monte-Carlo
evaluation, and how it is spread over cores.

Every layer that routes a Monte-Carlo evaluation —
:class:`~repro.evaluation.montecarlo.MonteCarloEvaluator`
(``execution=``), the experiment configs, the ``repro`` CLI
(``--executor``), the HTTP service (the ``executor`` request field) —
consumes one :class:`ExecutionConfig` value:

* ``engine`` — which simulator replays the scenarios: ``reference``
  (the oracle event loop) or ``kernel`` (the prebuilt C core, the
  default; it degrades to the oracle, with a counted reason, where no
  core can be built).  Results are bit-identical; only speed differs.
* ``mode`` — how the scenario range is spread over cores: ``inline``
  (single in-process run), ``processes`` (deterministic sharding
  across ``multiprocessing`` workers) or ``threads`` (deterministic
  sharding across a thread pool against the kernel's GIL-releasing
  call; the reference engine falls back to process sharding with a
  counted reason — see :mod:`repro.runtime.engine.threads`).
* ``workers`` — the shard/worker count (1 for ``inline``).

The compact spec-string grammar is ``ENGINE[@MODE[:WORKERS]]``::

    reference             # oracle, inline
    kernel@threads:8      # C kernel core, 8 GIL-free threads
    kernel@processes:4    # C kernel core, 4 worker processes

Sharding is outcome-preserving for any mode and worker count, so an
:class:`ExecutionConfig` is pure routing: it never changes results,
which is why checkpoint fingerprints mask it (see
``pipeline/checkpoint.py``).

This module deliberately imports nothing heavier than the error type,
so the CLI and service layers can parse specs without dragging in
NumPy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from repro.errors import RuntimeModelError

ENGINES = ("reference", "kernel")
MODES = ("inline", "processes", "threads")

#: The engine every entry point routes to unless told otherwise.
DEFAULT_ENGINE = "kernel"


def choices_line() -> str:
    """The one-line enumeration every bad-spec error ends with."""
    return (
        f"valid engines: {', '.join(ENGINES)}; "
        f"valid modes: {', '.join(MODES)}"
    )


@dataclass(frozen=True)
class ExecutionConfig:
    """One validated (engine, mode, workers) routing decision.

    Frozen and hashable, so it keys executor caches directly.
    """

    engine: str = DEFAULT_ENGINE
    mode: str = "inline"
    workers: int = 1

    def __post_init__(self) -> None:
        if self.engine not in ENGINES:
            raise RuntimeModelError(
                f"unknown engine {self.engine!r}; {choices_line()}"
            )
        if self.mode not in MODES:
            raise RuntimeModelError(
                f"unknown execution mode {self.mode!r}; {choices_line()}"
            )
        if not isinstance(self.workers, int) or isinstance(
            self.workers, bool
        ):
            raise RuntimeModelError(
                f"workers must be a positive integer, got {self.workers!r}"
            )
        if self.workers < 1:
            raise RuntimeModelError(
                f"workers must be positive, got {self.workers}"
            )
        if self.mode == "inline" and self.workers != 1:
            raise RuntimeModelError(
                f"inline execution is single-worker; got "
                f"workers={self.workers} (use "
                f"'@processes:{self.workers}' or "
                f"'@threads:{self.workers}')"
            )

    # ------------------------------------------------------------------
    # Spec-string grammar
    # ------------------------------------------------------------------
    @classmethod
    def parse(cls, spec: str) -> "ExecutionConfig":
        """Parse ``ENGINE[@MODE[:WORKERS]]`` (e.g. ``kernel@threads:8``).

        A bare engine name means inline execution; a mode without a
        worker count means one worker.  Every malformed spec raises a
        :class:`RuntimeModelError` whose single-line message enumerates
        the valid engines and modes.
        """
        if not isinstance(spec, str) or not spec.strip():
            raise RuntimeModelError(
                f"empty executor spec {spec!r}; expected "
                f"ENGINE[@MODE[:WORKERS]] like 'kernel@threads:8'; "
                f"{choices_line()}"
            )
        text = spec.strip()
        engine, at, rest = text.partition("@")
        mode, workers = "inline", 1
        if at:
            mode_text, colon, workers_text = rest.partition(":")
            mode = mode_text.strip()
            if colon:
                try:
                    workers = int(workers_text.strip())
                except ValueError:
                    raise RuntimeModelError(
                        f"bad executor spec {text!r}: worker count "
                        f"{workers_text.strip()!r} is not an integer; "
                        f"expected ENGINE[@MODE[:WORKERS]] like "
                        f"'kernel@threads:8'; {choices_line()}"
                    ) from None
        try:
            return cls(engine=engine.strip(), mode=mode, workers=workers)
        except RuntimeModelError as exc:
            message = f"bad executor spec {text!r}: {exc}"
            if choices_line() not in message:
                message = f"{message}; {choices_line()}"
            raise RuntimeModelError(message) from None

    def spec(self) -> str:
        """The compact spec string (inverse of :meth:`parse`)."""
        if self.mode == "inline":
            return self.engine
        return f"{self.engine}@{self.mode}:{self.workers}"

    @classmethod
    def coerce(
        cls, value: Union[None, str, "ExecutionConfig"]
    ) -> "ExecutionConfig":
        """An :class:`ExecutionConfig` from a spec string, an existing
        config, or ``None`` (→ the defaults)."""
        if value is None:
            return cls()
        if isinstance(value, cls):
            return value
        if isinstance(value, str):
            return cls.parse(value)
        raise RuntimeModelError(
            f"cannot interpret {value!r} as an execution config; pass "
            f"an ExecutionConfig or a spec string like "
            f"'kernel@threads:8'"
        )
