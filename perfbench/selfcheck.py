"""Self-checks of the benchmark's own machinery.

Usage, from the root of a checkout::

    python3 perfbench/selfcheck.py

Checks, in order:

1. the percentile rule: a percentile is reported only when at least
   ten samples lie beyond it;
2. the host meter: it samples at once, and a window without samples
   falls back to the whole stretch's factor;
3. span bookkeeping: self time and nested spans of one name;
4. installing and restoring the span wrappers leaves the ``repro`` API
   unchanged: every wrapped attribute is the original object again,
   and no wrapper is reachable from any loaded ``repro`` module;
5. a smoke run of each workload (a short timed phase: one op on
   ``cc-evaluate``, one cycle of sizes on ``fig9-cold``, a stratum of
   requests on ``service-mix``) and one traced run, each with zero
   failures.

Exits non-zero on the first failed check.  Not collected by pytest.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from measure import (  # noqa: E402
    HOST_SENSITIVITY,
    REFERENCE_CALIB_MS,
    HostMeter,
    percentile,
    samples_beyond,
)
from spans import (  # noqa: E402
    PROPAGATE,
    TARGETS,
    Recorder,
    Tracer,
    _durations,
    leftover_wrappers,
    resolve_owner,
)


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selfcheck FAILED: {message}")


def check_percentile_rule() -> None:
    check(samples_beyond(100, 90) == 10, "100 samples leave 10 beyond p90")
    check(percentile(list(range(1, 101)), 90) == 90, "p90 of 1..100 is 90")
    check(percentile(list(range(99)), 90) is None, "p90 needs 100 samples")
    check(percentile(list(range(19)), 50) is None, "p50 needs 20 samples")
    check(percentile(list(range(20)), 50) == 9, "p50 of 0..19 is 9")
    check(percentile([], 50) is None, "no samples, no percentile")
    print("ok  percentile rule")


def check_host_meter() -> None:
    with HostMeter() as meter:
        time.sleep(0.3)
    check(len(meter.samples) >= 2, "the meter samples while active")
    check(
        len(meter.times) == len(meter.samples)
        and meter.times == sorted(meter.times),
        "one time per sample, in order",
    )
    expected = sum(REFERENCE_CALIB_MS / s for s in meter.samples) / len(
        meter.samples
    )
    check(abs(meter.speed - expected) < 1e-12, "speed is the mean of ref/s")
    check(
        abs(meter.factor - expected ** HOST_SENSITIVITY) < 1e-12,
        "factor is speed to the host sensitivity",
    )
    far = meter.times[-1] + 100.0
    check(
        meter.factor_around(far, far + 1.0) == meter.factor,
        "a window without samples falls back to the stretch's factor",
    )
    print(f"ok  host meter ({len(meter.samples)} samples)")


def check_span_bookkeeping() -> None:
    recorder = Recorder()
    recorder.spans = [
        (1, "a", 0.0, 10.0, None, "t"),
        (2, "b", 2.0, 5.0, 1, "t"),
        (3, "a", 6.0, 8.0, 1, "t"),
    ]
    totals = _durations(recorder)
    check(totals["a"][0] == 10.0, "nested span of one name counted once")
    check(totals["a"][1] == 10.0 - 3.0 - 2.0 + 2.0, "self time of a")
    check(totals["b"][:] == [3.0, 3.0, 1], "self time and calls of b")
    print("ok  span bookkeeping")


def _owner_state():
    owners = {
        name: resolve_owner(name)
        for name in {t[0] for t in TARGETS} | {PROPAGATE[0]}
    }
    return {name: dict(vars(owner)) for name, owner in owners.items()}


def check_install_restore() -> None:
    before = _owner_state()
    recorder = Recorder()
    tracer = Tracer(recorder)
    tracer.install()
    try:
        for owner_name, attr, _, _ in TARGETS + (PROPAGATE + (None, None),):
            current = vars(resolve_owner(owner_name))[attr]
            check(
                current is not before[owner_name][attr],
                f"{owner_name}.{attr} is wrapped while tracing",
            )
        import repro.pipeline.runner as runner
        from repro.workloads.suite import WorkloadSpec

        runner.generate_application(WorkloadSpec(n_processes=5), seed=1)
        check(
            [s[1] for s in recorder.spans] == ["workloads.generate"],
            "a wrapped call records one span",
        )
    finally:
        tracer.restore()
    after = _owner_state()
    for name, members in before.items():
        changed = [
            attr for attr in set(members) | set(after[name])
            if members.get(attr) is not after[name].get(attr)
        ]
        check(not changed, f"{name} changed after restore: {changed}")
    leftovers = leftover_wrappers()
    check(not leftovers, f"wrappers left behind: {leftovers}")
    print(f"ok  install/restore of {len(TARGETS) + 1} wrappers")


def smoke(workload: str, seconds: float, trace: int = 0) -> None:
    start = time.perf_counter()
    proc = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"),
            "--workload", workload, "--seed", "7",
            "--seconds", str(seconds), "--trace", str(trace),
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )
    check(proc.returncode == 0, f"{workload} exited {proc.returncode}:\n"
          f"{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    check(
        result["correct"] and result["failed"] == 0,
        f"{workload} smoke failed:\n{proc.stdout[-2000:]}",
    )
    print(
        f"ok  {workload} smoke (trace={trace}): {result['attempted']} op(s), "
        f"0 failed, {time.perf_counter() - start:.1f} s"
    )


def main() -> int:
    check_percentile_rule()
    check_host_meter()
    check_span_bookkeeping()
    check_install_restore()
    smoke("fig9-cold", 0.5)
    smoke("cc-evaluate", 0.5)
    smoke("service-mix", 2.0)
    smoke("cc-evaluate", 0.5, trace=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
