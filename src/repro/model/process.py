"""Process model: the schedulable unit of the application (paper §2).

A :class:`Process` carries the timing triple (BCET, AET, WCET), its
criticality (:class:`ProcessKind`), and — depending on criticality —
either a hard deadline or a time/utility function.  Processes are
non-preemptable: once started they run to completion unless a transient
fault strikes, in which case the error-detection mechanism flags the
run as failed at its end.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from numbers import Integral
from typing import Optional

from repro.errors import TimingError, UtilityError
from repro.utility.functions import UtilityFunction


#: The timing fields, in integer ticks; all but BCET and WCET may be
#: left ``None``.
_TICK_FIELDS = ("bcet", "wcet", "aet", "deadline", "recovery_overhead")


def is_integer(value) -> bool:
    """An integer, NumPy's included, and not a bool."""
    return isinstance(value, Integral) and not isinstance(value, bool)


class ProcessKind(Enum):
    """Criticality class of a process (paper §2.1)."""

    HARD = "hard"
    SOFT = "soft"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class Process:
    """One node of a process graph.

    Parameters
    ----------
    name:
        Unique identifier within the application (e.g. ``"P1"``).
    bcet, wcet:
        Best-/worst-case execution times in integer ticks.  Every
        timing field must be an integer (NumPy's included); a float
        or a bool raises :class:`~repro.errors.TimingError`.  The error
        detection overhead is included in these numbers (paper §2.2).
    kind:
        :attr:`ProcessKind.HARD` or :attr:`ProcessKind.SOFT`.
    deadline:
        Individual hard deadline, relative to the activation of the
        process graph.  Required for hard processes, forbidden for soft
        ones.
    utility:
        Non-increasing time/utility function.  Required for soft
        processes, forbidden for hard ones.
    aet:
        Average-case execution time.  Defaults to ``(bcet + wcet) // 2``
        which is the mean of the uniform execution-time distribution the
        paper's experiments assume (§6).
    recovery_overhead:
        Optional per-process recovery overhead µ override; when ``None``
        the application-wide µ applies (the cruise-controller experiment
        uses µ = 10% of each WCET, hence the per-process hook).
    """

    name: str
    bcet: int
    wcet: int
    kind: ProcessKind
    deadline: Optional[int] = None
    utility: Optional[UtilityFunction] = None
    aet: Optional[int] = field(default=None)
    recovery_overhead: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise TimingError("process name must be non-empty")
        for label in _TICK_FIELDS:
            value = getattr(self, label)
            if value is None and label not in ("bcet", "wcet"):
                continue
            if not is_integer(value):
                raise TimingError(
                    f"{self.name}: {label} must be an integer number of "
                    f"ticks, got {value!r}"
                )
        if self.bcet < 0 or self.wcet <= 0:
            raise TimingError(
                f"{self.name}: execution times must be positive "
                f"(bcet={self.bcet}, wcet={self.wcet})"
            )
        if self.bcet > self.wcet:
            raise TimingError(
                f"{self.name}: BCET {self.bcet} exceeds WCET {self.wcet}"
            )
        if self.aet is None:
            object.__setattr__(self, "aet", (self.bcet + self.wcet) // 2)
        if not self.bcet <= self.aet <= self.wcet:
            raise TimingError(
                f"{self.name}: AET {self.aet} outside [BCET, WCET] "
                f"[{self.bcet}, {self.wcet}]"
            )
        if self.recovery_overhead is not None and self.recovery_overhead < 0:
            raise TimingError(
                f"{self.name}: recovery overhead must be non-negative"
            )
        if self.kind is ProcessKind.HARD:
            if self.deadline is None:
                raise TimingError(f"{self.name}: hard process needs a deadline")
            if self.deadline <= 0:
                raise TimingError(f"{self.name}: deadline must be positive")
            if self.utility is not None:
                raise UtilityError(
                    f"{self.name}: hard processes carry no utility function"
                )
        else:
            if self.utility is None:
                raise UtilityError(
                    f"{self.name}: soft process needs a utility function"
                )
            if self.deadline is not None:
                raise TimingError(
                    f"{self.name}: soft processes have no hard deadline"
                )

    # ------------------------------------------------------------------
    # Convenience predicates
    # ------------------------------------------------------------------
    @property
    def is_hard(self) -> bool:
        """True for hard (deadline-bearing) processes."""
        return self.kind is ProcessKind.HARD

    @property
    def is_soft(self) -> bool:
        """True for soft (utility-bearing, droppable) processes."""
        return self.kind is ProcessKind.SOFT

    def utility_at(self, completion_time: int) -> float:
        """Evaluate the utility function at ``completion_time``.

        Hard processes produce no utility (paper §2.1): the method
        returns 0.0 for them so aggregation code can treat all processes
        uniformly.
        """
        if self.utility is None:
            return 0.0
        return self.utility(completion_time)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        tag = "H" if self.is_hard else "S"
        return f"{self.name}({tag})"


def hard_process(
    name: str,
    bcet: int,
    wcet: int,
    deadline: int,
    aet: Optional[int] = None,
    recovery_overhead: Optional[int] = None,
) -> Process:
    """Build a hard process; shorthand used throughout tests/examples."""
    return Process(
        name=name,
        bcet=bcet,
        wcet=wcet,
        kind=ProcessKind.HARD,
        deadline=deadline,
        aet=aet,
        recovery_overhead=recovery_overhead,
    )


def soft_process(
    name: str,
    bcet: int,
    wcet: int,
    utility: UtilityFunction,
    aet: Optional[int] = None,
    recovery_overhead: Optional[int] = None,
) -> Process:
    """Build a soft process; shorthand used throughout tests/examples."""
    return Process(
        name=name,
        bcet=bcet,
        wcet=wcet,
        kind=ProcessKind.SOFT,
        utility=utility,
        aet=aet,
        recovery_overhead=recovery_overhead,
    )
