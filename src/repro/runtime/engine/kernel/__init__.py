"""The compiled C simulator core (``engine="kernel"``, the default).

One static C99 core replays whole scenario batches against a plan's
lowered tables.  ``rk_core.c`` is plan-independent: it reads every
plan through one ``rk_plan`` struct (``rk_core.h``), reproducing
the oracle's integer arithmetic and IEEE-754 accumulation order
exactly.  :mod:`~repro.runtime.engine.kernel.lower` lowers each plan
into the NumPy tables behind that struct, §2.2 thresholds in closed
form; :mod:`~repro.runtime.engine.kernel.build` builds the core once
per (source, compiler, flags) and caches it next to every plan's
lowered tables (``.npz``) in a content-addressed artifact cache; and
:mod:`~repro.runtime.engine.kernel.dispatch` loads the core once per
process with ``ctypes`` — degrading to the reference oracle, with a
counted reason, whenever the core or a plan's tables cannot be had.
Results are bit-identical to the oracle (asserted per scenario by
``tests/test_engine_differential.py``); only speed differs.

The same shared object carries the design-time entry points of
``rk_ftss.c`` — one FTSS run per ``rk_ftss`` call, expected-utility
profiles per ``rk_expected`` call — which
:mod:`~repro.runtime.engine.kernel.design` runs for
:mod:`repro.scheduling` and :mod:`repro.quasistatic`.
"""

from repro.runtime.engine.kernel.build import (
    KernelBuildError,
    cache_dir,
    compile_kernel,
    find_compiler,
    generate_kernel_source,
)
from repro.runtime.engine.kernel.dispatch import (
    KernelSimulator,
    KernelStats,
    kernel_stats,
    reset_kernel_stats,
)
from repro.runtime.engine.kernel.lower import (
    TABLES_VERSION,
    KernelUnsupported,
    plan_fingerprint,
)

__all__ = [
    "KernelBuildError",
    "KernelSimulator",
    "KernelStats",
    "KernelUnsupported",
    "TABLES_VERSION",
    "cache_dir",
    "compile_kernel",
    "find_compiler",
    "generate_kernel_source",
    "kernel_stats",
    "plan_fingerprint",
    "reset_kernel_stats",
]
