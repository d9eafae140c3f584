"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fig9-cold --seed 1 --seconds 20 --trace 0

Workloads: ``fig9-cold``, ``cc-evaluate``, ``service-mix`` (see
``workloads.py``).  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``;
the lines before it print the same figures for a reader, with their
sample counts.

``--trace 0`` reports the end-to-end metrics, measured untraced:

* ``setup_s`` — from the workload's start, after imports, to its first
  timed op: input generation, fresh caches, cache warming and one
  untimed warm-up op.  Each run sets up three times (twice in a fresh
  child process, then for itself) and reports the median.
* ``ops_per_s`` — ops completed / wall time of the timed phase.
* ``latency_p50_ms`` — median op latency.
* ``peak_rss_mb`` — ``ru_maxrss`` of the benchmark process once the
  timed phase has completed a fixed number of ops (``RSS_OPS`` of the
  workload; at its end if it completes fewer).

The three timings are host-adjusted: the process is pinned to one CPU,
a ``measure.HostMeter`` samples that CPU's speed through each set-up
and the timed phase, and a timing is scaled to what it would read at
the meter's reference speed (each op's latency by the speed around
that op).  On a shared host a CPU's speed drifts by up to 50% over
seconds to minutes; the scaling takes most of that out of the
run-to-run spread.  The measured figures are printed beside them.

``--trace 1`` reports the per-layer metrics instead: the timed phase
alternates untraced and traced blocks, spans are recorded only in the
traced ones (see ``spans.py``), and ``trace.overhead_pct`` compares
the mean host-adjusted op latency of the two kinds of block.

Every run is isolated: a fresh ``REPRO_KERNEL_CACHE`` and ``TMPDIR``
under ``.bench_build/`` (removed at exit) and a fresh memory-LRU tree
store.  Outputs are checked after the timed phase; every mismatch,
failed op and kernel fallback counts as a failure.

``python3 perfbench/selfcheck.py`` checks the benchmark's own helpers
and runs a short smoke of every workload.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("fig9-cold", "cc-evaluate", "service-mix")
#: Extra set-ups per run, each in a fresh process; with the run's own
#: set-up, ``setup_s`` is a median of three.
SETUP_CHILDREN = 2
#: Untraced/traced block pairs in a traced run.
TRACE_BLOCKS = 4

UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "peak_rss_mb": "MB",
    "store.hit_ratio": "ratio",
    "engine.fast_path_share": "ratio",
    "trace.overhead_pct": "%",
    "host.calib_ms": "ms",
}


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    return "s" if name.endswith("_s") else "count"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only",
        action="store_true",
        help="set up once, print {\"setup\": [seconds, host-adjusted "
        "seconds, calibration ms]} and exit (the extra set-ups of a run "
        "use this)",
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def isolate(run_dir: Path) -> None:
    """Point the kernel artifact cache and every temp file (the C
    compiler's included) at this run's own directory."""
    kernels = run_dir / "kernels"
    tmp = run_dir / "tmp"
    kernels.mkdir()
    tmp.mkdir()
    os.environ["REPRO_KERNEL_CACHE"] = str(kernels)
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)


def child_setup(args):
    """One set-up in a fresh process, as :func:`timed_setup` returns it."""
    command = [
        sys.executable, str(HERE / "run.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", "0",
        "--setup-only",
    ]
    proc = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=150
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"set-up child exited {proc.returncode}:\n{proc.stderr[-2000:]}"
        )
    return tuple(json.loads(proc.stdout.strip().splitlines()[-1])["setup"])


def _fmt(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def print_line(name, value, unit, note="") -> None:
    print(f"  {name:<28}{_fmt(value):>14} {unit:<6} {note}".rstrip())


def traced_phase(workload, seconds, recorder):
    """Alternate untraced and traced blocks so host drift hits both
    alike; program counters are differenced over the traced ones."""
    from spans import Tracer

    tracer = Tracer(recorder)
    untraced, traced = [], []
    counters = defaultdict(int)
    block = seconds / TRACE_BLOCKS
    for _ in range(TRACE_BLOCKS):
        untraced += workload.run_block(block)
        before = workload.counters()
        tracer.install()
        try:
            traced += workload.run_block(block)
        finally:
            tracer.restore()
        for key, value in workload.counters().items():
            counters[key] += value - before[key]
    return untraced, traced, counters


def mean_latency(ops) -> float:
    return sum(op.latency for op in ops) / len(ops)


def timed_setup(workload):
    """Set the workload up; returns ``(seconds, host-adjusted seconds,
    calibration ms)``."""
    from measure import HostMeter

    with HostMeter() as meter:
        start = time.perf_counter()
        workload.setup()
        seconds = time.perf_counter() - start
    return seconds, seconds * meter.factor, meter.calib_ms


def run(args) -> int:
    from measure import HostMeter, median, peak_rss_mb
    from workloads import WORKLOADS
    from repro.runtime.engine.kernel import kernel_stats
    from repro.runtime.engine.parallel import pool_recovery

    setups = []
    if not (args.trace or args.setup_only):
        setups = [child_setup(args) for _ in range(SETUP_CHILDREN)]
    workload = WORKLOADS[args.workload](args.seed)
    try:
        setups.append(timed_setup(workload))
        if args.setup_only:
            print(json.dumps({"setup": setups[-1]}))
            return 0

        with HostMeter() as meter:
            if args.trace:
                from spans import Recorder, layer_metrics, span_table

                recorder = Recorder()
                untraced, traced, counters = traced_phase(
                    workload, args.seconds, recorder
                )
                ops = untraced + traced
            else:
                start = time.perf_counter()
                ops = workload.run_block(args.seconds)
                wall = time.perf_counter() - start
        rss = workload.rss_mb if workload.rss_mb is not None else peak_rss_mb()

        errors = workload.check()
        fallbacks = kernel_stats().n_fallbacks
        if fallbacks:
            errors.append(
                f"{fallbacks} kernel fallback(s) {kernel_stats().fallbacks}: "
                "this host measures a different program"
            )
        if pool_recovery().pool_degradations:
            errors.append("a worker pool degraded to in-process execution")
        # Each op's latency at reference host speed.
        adjusted_ops = [
            op._replace(
                latency=op.latency
                * meter.factor_around(op.start, op.start + op.latency)
            )
            for op in ops
        ]
        extra = workload.class_metrics(adjusted_ops)
    finally:
        workload.close()

    failed = sum(not op.ok for op in ops) + len(errors)
    attempted = len(ops)
    print(
        f"perfbench {args.workload} seed={args.seed} "
        f"seconds={_fmt(args.seconds)} trace={args.trace} cpu={args.cpu}"
    )
    if args.trace:
        op_seconds = sum(op.latency for op in traced)
        metrics = layer_metrics(recorder, counters)
        metrics["trace.op_s"] = op_seconds
        split = len(untraced)
        metrics["trace.overhead_pct"] = 100.0 * (
            mean_latency(adjusted_ops[split:])
            / mean_latency(adjusted_ops[:split])
            - 1.0
        )
        metrics["host.calib_ms"] = meter.calib_ms
        for line in span_table(recorder, op_seconds):
            print(line)
        spans_dir = ROOT / ".bench_build" / "spans"
        spans_dir.mkdir(parents=True, exist_ok=True)
        recorder.dump(
            str(spans_dir / f"{args.workload}-seed{args.seed}.json")
        )
        notes = {
            "trace.op_s": f"{len(traced)} traced ops, "
            f"{len(untraced)} untraced",
        }
    else:
        latency = median([op.latency for op in ops])
        metrics = {
            "setup_s": median([adjusted for _, adjusted, _ in setups]),
            "ops_per_s": len(ops) / wall / meter.factor,
            "latency_p50_ms": median([op.latency for op in adjusted_ops])
            * 1000.0,
            "peak_rss_mb": rss,
        }
        notes = {
            "setup_s": "median of "
            + ", ".join(f"{adjusted:.3f}" for _, adjusted, _ in setups)
            + "; measured "
            + ", ".join(f"{raw:.3f}" for raw, _, _ in setups)
            + " at calib "
            + ", ".join(f"{calib:.2f}" for _, _, calib in setups)
            + " ms",
            "ops_per_s": f"measured {len(ops) / wall:.4g}: "
            f"{len(ops)} ops in {wall:.2f} s",
            "latency_p50_ms": f"measured {latency * 1000.0:.4g}, "
            f"n={len(ops)}",
            "peak_rss_mb": f"after op {min(len(ops), workload.RSS_OPS)}",
        }
    notes["host.calib_ms"] = (
        f"timed phase, {len(meter.samples)} samples; host speed "
        f"{meter.speed:.3f} of reference"
    )
    shown = dict(metrics)
    shown["host.calib_ms"] = meter.calib_ms
    for name, value in shown.items():
        print_line(name, value, unit_of(name), notes.get(name, ""))
    for name, value, unit, note in extra:
        print_line(name, value, unit, note)
    print_line(
        "error_rate", failed / attempted, "ratio",
        f"{failed} failed / {attempted} attempted",
    )
    for error in errors[:20]:
        print(f"  CHECK FAILED: {error}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no repro package under {src}; run this from the "
            "root of a checkout of the repository",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(src))
    from measure import pin_to_one_cpu

    args.cpu = pin_to_one_cpu()
    build = ROOT / ".bench_build"
    build.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"run-{args.workload}-", dir=build))
    try:
        isolate(run_dir)
        return run(args)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
