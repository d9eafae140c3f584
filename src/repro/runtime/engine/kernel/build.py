"""Build the C core once and cache it.

The artifact cache is content-addressed exactly like the tree store:
one ``core-<hash>.so`` (plus its ``.c`` source, for debugging) — the
one table-driven core, keyed by :func:`core_fingerprint` over the
core source with its header inlined and the design-time entry points
appended, the compiler, :data:`CFLAGS` and :data:`LDLIBS`, so editing
any of those files, switching compilers or changing flags can never
load a stale object.  Plans' lowered tables are not cached here: each
process lowers its own (see
:mod:`~repro.runtime.engine.kernel.dispatch`).

Every write goes through ``mkstemp`` + ``os.replace``, so concurrent
processes either win the atomic rename or reuse the winner's file —
never observe a torn artifact.

Compilation uses the system C compiler — ``$REPRO_CC``, ``$CC`` or
the first of ``cc``/``gcc``/``clang`` on PATH — with
``-Og -std=c99 -fPIC -shared -ffp-contract=off``: no fused
multiply-adds, no reassociation, so the core's float stream stays
operation-for-operation identical to the oracle's.  ``-Og`` rather
than ``-O2``: every first run pays the build, which ``-Og`` keeps
under half of ``-O2``'s for the same speed of the core (its loops are
bound by memory and branches, not by instruction selection).  A missing
compiler, a failed compile or a cache directory that cannot be
created raises :class:`KernelBuildError`; the dispatcher turns that
into a counted degradation to the reference oracle, never an error
for the caller, and does not run the compiler again in that process
after a failed build or load.

The deterministic chaos hook ``kernel-fail@N`` (see
:mod:`repro.pipeline.chaos`) fails the Nth compile attempt of the
process, pinning the degradation path in tests and CI.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path
from typing import Optional

#: Flags that keep the core's float semantics exactly IEEE: no
#: contraction (FMA would change rounding), strict C99.
CFLAGS = ("-Og", "-std=c99", "-fPIC", "-shared", "-ffp-contract=off")

#: Libraries the core links after its source: libm, for ``erf``.
LDLIBS = ("-lm",)

#: The core's source and header, shipped next to this module (and,
#: byte for byte, by ``repro export``).
CORE_SOURCE = Path(__file__).with_name("rk_core.c")
CORE_HEADER = Path(__file__).with_name("rk_core.h")

#: The design-time entry points (``rk_ftss``, ``rk_expected``),
#: compiled appended to the core; ``repro export`` leaves them out.
DESIGN_SOURCE = Path(__file__).with_name("rk_ftss.c")


class KernelBuildError(Exception):
    """The core cannot be built or loaded.

    ``reason`` is the short counter label the dispatcher surfaces:
    ``"no-compiler"``, ``"compile-failed"``, ``"load-failed"``,
    ``"cache-unavailable"`` or ``"chaos"``.
    """

    def __init__(self, reason: str, message: str):
        super().__init__(message)
        self.reason = reason


def find_compiler() -> Optional[str]:
    """The C compiler to use, or ``None`` when none is available.

    ``$REPRO_CC`` overrides everything (and may name an absent
    compiler, which the no-compiler tests use to force the fallback
    deterministically); otherwise ``$CC``, then the conventional
    names in PATH order.
    """
    override = os.environ.get("REPRO_CC")
    if override is not None:
        return shutil.which(override)
    cc = os.environ.get("CC")
    if cc:
        found = shutil.which(cc)
        if found:
            return found
    for name in ("cc", "gcc", "clang"):
        found = shutil.which(name)
        if found:
            return found
    return None


def cache_dir() -> Path:
    """The on-disk artifact cache directory (created on demand).

    ``$REPRO_KERNEL_CACHE`` overrides the default
    ``~/.cache/repro-kernels``.  A directory that cannot be created
    (a read-only home, a path below a regular file) raises
    :class:`KernelBuildError` with reason ``"cache-unavailable"``.
    """
    override = os.environ.get("REPRO_KERNEL_CACHE")
    if override:
        root = Path(override)
    else:
        base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
            os.path.expanduser("~"), ".cache"
        )
        root = Path(base) / "repro-kernels"
    try:
        root.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise KernelBuildError(
            "cache-unavailable", f"cannot create kernel cache {root}: {exc}"
        ) from exc
    return root


def _atomic_write_bytes(path: Path, payload: bytes) -> None:
    """Write ``path`` via a same-directory temp file + atomic rename."""
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(payload)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:  # pragma: no cover - already renamed/removed
            pass
        raise


def _chaos_compile_hook() -> None:
    """Consult the active chaos plan before invoking the compiler.

    A scheduled ``kernel-fail@N`` raises, which is surfaced as a
    :class:`KernelBuildError` with the counted reason ``"chaos"`` —
    the same degradation path a real compiler failure takes.
    """
    from repro.pipeline import chaos

    plan = chaos.current()
    if plan is None:
        return
    try:
        plan.kernel_compile()
    except RuntimeError as exc:
        raise KernelBuildError("chaos", str(exc)) from exc


def generate_kernel_source() -> str:
    """The core as one self-contained translation unit: ``rk_core.c``
    with its ``#include "rk_core.h"`` replaced by the header, then
    ``rk_ftss.c``, which uses the core's static helpers."""
    core = CORE_SOURCE.read_text(encoding="utf-8").replace(
        f'#include "{CORE_HEADER.name}"\n',
        CORE_HEADER.read_text(encoding="utf-8"),
        1,
    )
    return core + "\n" + DESIGN_SOURCE.read_text(encoding="utf-8")


def core_fingerprint(source: str) -> str:
    """The cache key of the core built from ``source`` here: a hash of
    the source, the compiler, :data:`CFLAGS` and :data:`LDLIBS`."""
    compiler = find_compiler()
    if compiler is None:
        raise KernelBuildError(
            "no-compiler",
            "no C compiler found (set $REPRO_CC/$CC or install cc)",
        )
    key = "\0".join((source, compiler, *CFLAGS, *LDLIBS))
    return "core-" + hashlib.sha256(key.encode("utf-8")).hexdigest()


def compile_kernel(source: str, fingerprint: str) -> Path:
    """Ensure ``<fingerprint>.so`` exists in the cache; return its path.

    Returns without compiling when the object is already cached (the
    caller counts a build by checking :func:`cached_object` first).
    Writes the source next to the object for debuggability, compiles
    into a temp file and atomically renames — a concurrent build of
    the same fingerprint produces a byte-equivalent object, so
    whichever rename lands last is as good as the first.
    """
    root = cache_dir()
    so_path = root / f"{fingerprint}.so"
    if so_path.exists():
        return so_path
    compiler = find_compiler()
    if compiler is None:
        raise KernelBuildError(
            "no-compiler",
            "no C compiler found (set $REPRO_CC/$CC or install cc)",
        )
    _chaos_compile_hook()
    c_path = root / f"{fingerprint}.c"
    tmp = None
    try:
        _atomic_write_bytes(c_path, source.encode("utf-8"))
        fd, tmp = tempfile.mkstemp(dir=str(root), suffix=".so.tmp")
        os.close(fd)
        proc = subprocess.run(
            [compiler, *CFLAGS, "-o", tmp, str(c_path), *LDLIBS],
            capture_output=True,
            text=True,
            timeout=120,
        )
        if proc.returncode != 0:
            raise KernelBuildError(
                "compile-failed",
                f"{compiler} exited {proc.returncode}: "
                f"{proc.stderr.strip()[:500]}",
            )
        os.replace(tmp, so_path)
    except KernelBuildError:
        raise
    except (OSError, subprocess.SubprocessError) as exc:
        raise KernelBuildError(
            "compile-failed", f"compiler invocation failed: {exc}"
        ) from exc
    finally:
        if tmp is not None:
            try:
                os.unlink(tmp)
            except OSError:
                pass
    return so_path


def cached_object(fingerprint: str) -> Optional[Path]:
    """The cached shared object for ``fingerprint``, if present."""
    path = cache_dir() / f"{fingerprint}.so"
    return path if path.exists() else None


def load_kernel(so_path: Path):
    """Load a built core; returns the ``ctypes`` library handle."""
    try:
        return ctypes.CDLL(str(so_path))
    except OSError as exc:
        raise KernelBuildError(
            "load-failed", f"could not load {so_path}: {exc}"
        ) from exc
