"""The unified execution surface: which engine runs a Monte-Carlo
evaluation, and how it is spread over cores.

Every layer that used to grow its own ``engine=``/``jobs=`` knobs —
:class:`~repro.evaluation.montecarlo.MonteCarloEvaluator`, the
experiment configs, the ``repro`` CLI, the HTTP service — now consumes
one :class:`ExecutionConfig` value:

* ``engine`` — which simulator replays the scenarios: ``reference``
  (the oracle event loop), ``batched`` (the NumPy array engine) or
  ``kernel`` (the prebuilt C core).  Results are bit-identical;
  only speed differs.
* ``mode`` — how the scenario range is spread over cores: ``inline``
  (single in-process run), ``processes`` (deterministic sharding
  across ``multiprocessing`` workers) or ``threads`` (deterministic
  sharding across a thread pool against the kernel's GIL-releasing
  call; non-kernel engines fall back to process sharding with a
  counted reason — see :mod:`repro.runtime.engine.threads`).
* ``workers`` — the shard/worker count (1 for ``inline``).

The compact spec-string grammar is ``ENGINE[@MODE[:WORKERS]]``::

    reference             # oracle, inline
    kernel@threads:8      # C kernel core, 8 GIL-free threads
    batched@processes:4   # NumPy engine, 4 worker processes

Sharding is outcome-preserving for any mode and worker count, so an
:class:`ExecutionConfig` is pure routing: it never changes results,
which is why checkpoint fingerprints mask it (see
``pipeline/checkpoint.py``).

The legacy keywords remain as deprecated aliases — ``engine=E,
jobs=N`` maps onto ``E@processes:N`` (or inline for ``N == 1``) via
:func:`resolve_execution`, which emits a :class:`DeprecationWarning`.
This module deliberately imports nothing heavier than the error type,
so the CLI and service layers can parse specs without dragging in
NumPy.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from typing import Optional, Union

from repro.errors import RuntimeModelError

ENGINES = ("reference", "batched", "kernel")
MODES = ("inline", "processes", "threads")


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

    engine: str = "batched"
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

    @classmethod
    def from_legacy(
        cls, engine: Optional[str] = None, jobs: Optional[int] = None
    ) -> "ExecutionConfig":
        """The config the deprecated ``engine=``/``jobs=`` pair meant:
        process sharding for ``jobs > 1``, inline otherwise."""
        jobs = 1 if jobs is None else int(jobs)
        if jobs < 1:
            raise RuntimeModelError(f"jobs must be positive, got {jobs}")
        return cls(
            engine="batched" if engine is None else engine,
            mode="inline" if jobs == 1 else "processes",
            workers=jobs,
        )


def resolve_execution(
    execution: Union[None, str, ExecutionConfig] = None,
    engine: Optional[str] = None,
    jobs: Optional[int] = None,
    *,
    base: Optional[ExecutionConfig] = None,
    owner: str = "MonteCarloEvaluator",
    stacklevel: int = 3,
) -> ExecutionConfig:
    """One :class:`ExecutionConfig` from the new keyword and/or the
    deprecated ``engine=``/``jobs=`` pair.

    ``base`` is the config a per-call override starts from (the
    evaluator-wide setting): a legacy ``engine=`` swaps the engine but
    keeps the base routing, a legacy ``jobs=`` re-routes onto the base
    parallel mode (or ``processes`` when the base was inline).  The
    legacy keywords emit a :class:`DeprecationWarning` and may not be
    combined with ``execution=``.
    """
    legacy = engine is not None or jobs is not None
    if legacy:
        warnings.warn(
            f"{owner}: engine=/jobs= are deprecated; pass "
            f"execution='ENGINE[@MODE[:WORKERS]]' (e.g. "
            f"'kernel@threads:8') instead",
            DeprecationWarning,
            stacklevel=stacklevel,
        )
        if execution is not None:
            raise RuntimeModelError(
                f"{owner}: pass either execution= or the deprecated "
                f"engine=/jobs=, not both"
            )
        if base is None:
            return ExecutionConfig.from_legacy(engine=engine, jobs=jobs)
        config = base
        if jobs is not None:
            jobs = int(jobs)
            if jobs < 1:
                raise RuntimeModelError(
                    f"jobs must be positive, got {jobs}"
                )
            if jobs == 1:
                config = replace(config, mode="inline", workers=1)
            else:
                mode = (
                    config.mode if config.mode != "inline" else "processes"
                )
                config = replace(config, mode=mode, workers=jobs)
        if engine is not None:
            config = replace(config, engine=engine)
        return config
    if execution is None:
        return base if base is not None else ExecutionConfig()
    return ExecutionConfig.coerce(execution)
