"""The compiled C simulator core (``engine="kernel"``).

The batched NumPy engine already executes compiled tables; this
package runs those tables through one static C99 core instead.
``core.c`` is plan-independent: it reads every plan through one
``rk_plan`` struct of pointers and lengths, reproducing the oracle's
integer arithmetic and IEEE-754 accumulation order exactly.
:mod:`~repro.runtime.engine.kernel.lower` lowers each plan into the
NumPy tables behind that struct,
:mod:`~repro.runtime.engine.kernel.build` builds the core once per
(source, compiler, flags) and caches it next to every plan's lowered
tables (``.npz``) in a content-addressed artifact cache, and
:mod:`~repro.runtime.engine.kernel.dispatch` loads the core once per
process with ``ctypes`` behind the same ``run_batch`` contract as
:class:`~repro.runtime.engine.simulator.BatchSimulator` — falling back
to the NumPy engine, with a counted reason, whenever the core or a
plan's tables cannot be had.  Results are bit-identical across all
three engines (asserted by ``tests/test_engine_differential.py``);
only speed differs.
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
