"""Unit tests for the process model (paper §2)."""

import pytest

from repro.errors import TimingError, UtilityError
from repro.model.process import (
    Process,
    ProcessKind,
    hard_process,
    soft_process,
)
from repro.utility.functions import ConstantUtility, StepUtility


def test_hard_process_basics():
    proc = hard_process("P1", bcet=10, wcet=30, deadline=100)
    assert proc.is_hard and not proc.is_soft
    assert proc.kind is ProcessKind.HARD
    assert proc.deadline == 100
    assert proc.utility is None


def test_soft_process_basics():
    proc = soft_process("P2", 10, 30, ConstantUtility(5))
    assert proc.is_soft and not proc.is_hard
    assert proc.deadline is None
    assert proc.utility_at(1000) == 5.0


def test_aet_defaults_to_midpoint():
    proc = hard_process("P", bcet=10, wcet=30, deadline=50)
    assert proc.aet == 20


def test_aet_explicit_value_kept():
    proc = hard_process("P", bcet=10, wcet=30, deadline=50, aet=25)
    assert proc.aet == 25


def test_aet_outside_range_rejected():
    with pytest.raises(TimingError):
        hard_process("P", bcet=10, wcet=30, deadline=50, aet=40)


def test_bcet_above_wcet_rejected():
    with pytest.raises(TimingError):
        hard_process("P", bcet=40, wcet=30, deadline=50)


def test_zero_wcet_rejected():
    with pytest.raises(TimingError):
        hard_process("P", bcet=0, wcet=0, deadline=50)


def test_negative_bcet_rejected():
    with pytest.raises(TimingError):
        hard_process("P", bcet=-1, wcet=30, deadline=50)


def test_empty_name_rejected():
    with pytest.raises(TimingError):
        hard_process("", bcet=1, wcet=2, deadline=5)


def test_hard_without_deadline_rejected():
    with pytest.raises(TimingError):
        Process(name="P", bcet=1, wcet=2, kind=ProcessKind.HARD)


def test_hard_with_utility_rejected():
    with pytest.raises(UtilityError):
        Process(
            name="P",
            bcet=1,
            wcet=2,
            kind=ProcessKind.HARD,
            deadline=10,
            utility=ConstantUtility(1),
        )


def test_soft_without_utility_rejected():
    with pytest.raises(UtilityError):
        Process(name="P", bcet=1, wcet=2, kind=ProcessKind.SOFT)


def test_soft_with_deadline_rejected():
    with pytest.raises(TimingError):
        Process(
            name="P",
            bcet=1,
            wcet=2,
            kind=ProcessKind.SOFT,
            deadline=10,
            utility=ConstantUtility(1),
        )


def test_negative_deadline_rejected():
    with pytest.raises(TimingError):
        hard_process("P", bcet=1, wcet=2, deadline=0)


def test_negative_recovery_overhead_rejected():
    with pytest.raises(TimingError):
        hard_process("P", bcet=1, wcet=2, deadline=5, recovery_overhead=-1)


@pytest.mark.parametrize(
    "field", ["bcet", "wcet", "aet", "deadline", "recovery_overhead"]
)
@pytest.mark.parametrize("value", [17.5, 17.0, True])
def test_non_integer_timing_rejected(field, value):
    """A fractional, float or bool timing is no tick count: the
    simulator's and the C core's clocks would disagree on it."""
    timings = dict(bcet=10, wcet=30, deadline=50, aet=20, recovery_overhead=5)
    timings[field] = value
    with pytest.raises(TimingError, match=field):
        hard_process("P", **timings)


def test_numpy_integer_timings_accepted():
    np = pytest.importorskip("numpy")
    proc = hard_process(
        "P", bcet=np.int64(10), wcet=np.int32(30), deadline=np.int64(50),
        aet=np.int64(20), recovery_overhead=np.int16(5),
    )
    assert (proc.bcet, proc.aet, proc.wcet) == (10, 20, 30)


def test_hard_utility_at_is_zero():
    proc = hard_process("P", bcet=1, wcet=2, deadline=5)
    assert proc.utility_at(3) == 0.0


def test_soft_utility_evaluates_step():
    utility = StepUtility(40, [(100, 20)])
    proc = soft_process("P", 1, 2, utility)
    assert proc.utility_at(100) == 40.0
    assert proc.utility_at(101) == 20.0
