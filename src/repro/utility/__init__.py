"""Time/utility functions and stale-value propagation."""

from repro.utility.functions import (
    ConstantUtility,
    LinearUtility,
    StepUtility,
    TabulatedUtility,
    UtilityFunction,
    utility_from_dict,
)
from repro.utility.stale import (
    degraded_utility,
    stale_coefficient,
    stale_coefficients,
)

__all__ = [
    "ConstantUtility",
    "LinearUtility",
    "StepUtility",
    "TabulatedUtility",
    "UtilityFunction",
    "degraded_utility",
    "stale_coefficient",
    "stale_coefficients",
    "utility_from_dict",
]
