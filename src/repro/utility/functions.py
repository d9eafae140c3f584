"""Time/utility functions for soft processes (paper §2.1).

A utility function ``U_i(t)`` maps the *completion time* of a soft
process to the value it contributes to the system.  The paper only
requires the function to be a non-increasing monotonic function of the
completion time; its examples (Figs. 2, 4, 8) use step functions.  We
provide:

* :class:`StepUtility` — piecewise-constant, right-continuous steps,
  exactly the shape of the paper's figures;
* :class:`LinearUtility` — linear decay clamped at zero, a common
  alternative in the time/utility-function literature;
* :class:`ConstantUtility` — constant until a cutoff, zero afterwards
  (a "firm" deadline);
* :class:`TabulatedUtility` — arbitrary sampled function with
  right-continuous step interpolation, for externally supplied data.

All functions validate the non-increasing contract on construction and
support exact equality and JSON-friendly encoding (see
:mod:`repro.io.json_io`).
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import UtilityError


class UtilityFunction(ABC):
    """Abstract non-increasing time/utility function."""

    @abstractmethod
    def value_at(self, t: int) -> float:
        """Utility produced when the process completes at time ``t``."""

    @abstractmethod
    def max_value(self) -> float:
        """The supremum of the function (its value at t = 0)."""

    @abstractmethod
    def horizon(self) -> int:
        """Earliest time after which the function stays at its minimum.

        Used by interval partitioning to bound the completion times
        worth tracing: beyond the horizon, further delay changes
        nothing.
        """

    @abstractmethod
    def to_dict(self) -> Dict:
        """JSON-encodable description (see :mod:`repro.io.json_io`)."""

    def breakpoints(self) -> List[int]:
        """Times ``t`` such that the value changes between t and t+1.

        For piecewise-constant functions this list is exact and
        interval partitioning over them is exact too; continuous
        functions (e.g. :class:`LinearUtility`) return an empty list
        and rely on the partitioner's sampling fallback.
        """
        return []

    def is_piecewise_constant(self) -> bool:
        """True when :meth:`breakpoints` exactly describes all changes."""
        return False

    def __call__(self, t: int) -> float:
        if t < 0:
            raise UtilityError(f"completion time must be non-negative, got {t}")
        return self.value_at(t)

    # ------------------------------------------------------------------
    # Validation helper shared by subclasses
    # ------------------------------------------------------------------
    @staticmethod
    def _check_non_increasing(points: Sequence[Tuple[int, float]]) -> None:
        last_t = -1
        last_v = math.inf
        for t, v in points:
            if t <= last_t:
                raise UtilityError(
                    f"breakpoints must be strictly increasing in time: "
                    f"{t} after {last_t}"
                )
            if v > last_v:
                raise UtilityError(
                    f"utility must be non-increasing: {v} after {last_v}"
                )
            if v < 0:
                raise UtilityError(f"utility values must be non-negative: {v}")
            last_t, last_v = t, v


class StepUtility(UtilityFunction):
    """Piecewise-constant utility, the paper's canonical shape.

    ``StepUtility(initial, [(t1, v1), (t2, v2), ...])`` is ``initial``
    on ``[0, t1]``, ``v1`` on ``(t1, t2]``, ..., and the last value
    afterwards.  Completion *at* a breakpoint still earns the value
    before the drop, matching Fig. 2a where completing at 60 ms earns
    20 (the level that holds up to 60).
    """

    def __init__(self, initial: float, steps: Sequence[Tuple[int, float]]):
        if initial < 0:
            raise UtilityError("initial utility must be non-negative")
        pts = [(int(t), float(v)) for t, v in steps]
        if pts and pts[0][0] < 0:
            raise UtilityError("step times must be non-negative")
        self._check_non_increasing(pts)
        if pts and pts[0][1] > initial:
            raise UtilityError("first step may not exceed the initial value")
        self._initial = float(initial)
        self._steps: List[Tuple[int, float]] = pts

    @property
    def initial(self) -> float:
        return self._initial

    @property
    def steps(self) -> List[Tuple[int, float]]:
        return list(self._steps)

    def value_at(self, t: int) -> float:
        value = self._initial
        for step_t, step_v in self._steps:
            if t > step_t:
                value = step_v
            else:
                break
        return value

    def max_value(self) -> float:
        return self._initial

    def horizon(self) -> int:
        return self._steps[-1][0] if self._steps else 0

    def breakpoints(self) -> List[int]:
        return [t for t, _ in self._steps]

    def is_piecewise_constant(self) -> bool:
        return True

    def to_dict(self) -> Dict:
        return {
            "type": "step",
            "initial": self._initial,
            "steps": [[t, v] for t, v in self._steps],
        }

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, StepUtility)
            and self._initial == other._initial
            and self._steps == other._steps
        )

    def __hash__(self) -> int:
        return hash((self._initial, tuple(self._steps)))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"StepUtility({self._initial}, {self._steps})"


class LinearUtility(UtilityFunction):
    """Linear decay: ``max(0, u0 - slope * t)``."""

    def __init__(self, u0: float, slope: float):
        if u0 < 0:
            raise UtilityError("u0 must be non-negative")
        if slope < 0:
            raise UtilityError("slope must be non-negative (non-increasing)")
        self._u0 = float(u0)
        self._slope = float(slope)

    @property
    def u0(self) -> float:
        return self._u0

    @property
    def slope(self) -> float:
        return self._slope

    def value_at(self, t: int) -> float:
        return max(0.0, self._u0 - self._slope * t)

    def max_value(self) -> float:
        return self._u0

    def horizon(self) -> int:
        if self._slope == 0:
            return 0
        return int(math.ceil(self._u0 / self._slope))

    def to_dict(self) -> Dict:
        return {"type": "linear", "u0": self._u0, "slope": self._slope}

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, LinearUtility)
            and self._u0 == other._u0
            and self._slope == other._slope
        )

    def __hash__(self) -> int:
        return hash((self._u0, self._slope))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"LinearUtility({self._u0}, {self._slope})"


class ConstantUtility(UtilityFunction):
    """Constant value until ``cutoff`` (inclusive), zero afterwards.

    With ``cutoff=None`` the function is constant forever — the softest
    possible process, useful as a degenerate case in tests.
    """

    def __init__(self, value: float, cutoff: int = None):
        if value < 0:
            raise UtilityError("value must be non-negative")
        if cutoff is not None and cutoff < 0:
            raise UtilityError("cutoff must be non-negative")
        self._value = float(value)
        self._cutoff = cutoff

    @property
    def value(self) -> float:
        return self._value

    @property
    def cutoff(self) -> int:
        return self._cutoff

    def value_at(self, t: int) -> float:
        if self._cutoff is not None and t > self._cutoff:
            return 0.0
        return self._value

    def max_value(self) -> float:
        return self._value

    def horizon(self) -> int:
        return 0 if self._cutoff is None else self._cutoff

    def breakpoints(self) -> List[int]:
        return [] if self._cutoff is None else [self._cutoff]

    def is_piecewise_constant(self) -> bool:
        return True

    def to_dict(self) -> Dict:
        return {"type": "constant", "value": self._value, "cutoff": self._cutoff}

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ConstantUtility)
            and self._value == other._value
            and self._cutoff == other._cutoff
        )

    def __hash__(self) -> int:
        return hash((self._value, self._cutoff))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ConstantUtility({self._value}, cutoff={self._cutoff})"


class TabulatedUtility(UtilityFunction):
    """Right-continuous step function through arbitrary samples.

    ``samples`` is a sequence of ``(t, value)`` pairs; the function
    holds each value from its sample time (inclusive) until the next
    sample.  Before the first sample time the first value applies.
    """

    def __init__(self, samples: Sequence[Tuple[int, float]]):
        if not samples:
            raise UtilityError("tabulated utility needs at least one sample")
        pts = sorted((int(t), float(v)) for t, v in samples)
        self._check_non_increasing(pts)
        self._samples: List[Tuple[int, float]] = pts

    @property
    def samples(self) -> List[Tuple[int, float]]:
        return list(self._samples)

    def value_at(self, t: int) -> float:
        value = self._samples[0][1]
        for sample_t, sample_v in self._samples:
            if t >= sample_t:
                value = sample_v
            else:
                break
        return value

    def max_value(self) -> float:
        return self._samples[0][1]

    def horizon(self) -> int:
        return self._samples[-1][0]

    def breakpoints(self) -> List[int]:
        # Value changes when t crosses each sample time: the function
        # holds sample value from t (inclusive), so the step is between
        # sample_t - 1 and sample_t.
        return [t - 1 for t, _ in self._samples if t > 0]

    def is_piecewise_constant(self) -> bool:
        return True

    def to_dict(self) -> Dict:
        return {"type": "tabulated", "samples": [[t, v] for t, v in self._samples]}

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, TabulatedUtility)
            and self._samples == other._samples
        )

    def __hash__(self) -> int:
        return hash(tuple(self._samples))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TabulatedUtility({self._samples})"


def utility_from_dict(data: Dict) -> UtilityFunction:
    """Inverse of :meth:`UtilityFunction.to_dict`."""
    kind = data.get("type")
    if kind == "step":
        return StepUtility(data["initial"], [tuple(p) for p in data["steps"]])
    if kind == "linear":
        return LinearUtility(data["u0"], data["slope"])
    if kind == "constant":
        return ConstantUtility(data["value"], data.get("cutoff"))
    if kind == "tabulated":
        return TabulatedUtility([tuple(p) for p in data["samples"]])
    raise UtilityError(f"unknown utility function type: {kind!r}")


def utility_steps(
    utility: Optional[UtilityFunction],
) -> Optional[Tuple[List[int], List[float]]]:
    """``(breakpoints, values)`` of a piecewise-constant utility.

    ``utility.value_at(t) == values[count of breakpoints < t]`` for
    every integer clock ``t``: the ``t > step`` rule of
    :class:`StepUtility` as is, the ``t >= sample`` rule of
    :class:`TabulatedUtility` with each sample lowered by one, no
    utility as the constant 0.  ``None`` for utilities that are not
    piecewise constant.  The C core and the compiled list scheduler
    both evaluate utilities from these tables.
    """
    if utility is None:
        return [], [0.0]
    if isinstance(utility, StepUtility):
        steps = utility.steps
        return [t for t, _ in steps], [utility.initial] + [v for _, v in steps]
    if isinstance(utility, ConstantUtility):
        if utility.cutoff is None:
            return [], [utility.value]
        return [utility.cutoff], [utility.value, 0.0]
    if isinstance(utility, TabulatedUtility):
        samples = utility.samples
        return (
            [t - 1 for t, _ in samples],
            [samples[0][1]] + [v for _, v in samples],
        )
    return None
