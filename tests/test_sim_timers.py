"""Unit tests for Timeout and PeriodicTimer, and the C kernel's timer queue."""

from repro.sim.engine import Simulator
from repro.sim.timers import PeriodicTimer, Timeout


def test_timeout_fires_after_delay():
    sim = Simulator()
    fired = []
    timer = Timeout(sim, lambda: fired.append(sim.now))
    timer.start(2.0)
    sim.run()
    assert fired == [2.0]


def test_timeout_cancel_prevents_fire():
    sim = Simulator()
    fired = []
    timer = Timeout(sim, lambda: fired.append(True))
    timer.start(2.0)
    timer.cancel()
    sim.run()
    assert fired == []


def test_timeout_restart_supersedes_old_deadline():
    sim = Simulator()
    fired = []
    timer = Timeout(sim, lambda: fired.append(sim.now))
    timer.start(1.0)
    timer.start(5.0)  # re-arm: old deadline dropped
    sim.run()
    assert fired == [5.0]


def test_timeout_armed_and_deadline():
    sim = Simulator()
    timer = Timeout(sim, lambda: None)
    assert not timer.armed
    assert timer.deadline is None
    timer.start(3.0)
    assert timer.armed
    assert timer.deadline == 3.0
    sim.run()
    assert not timer.armed


def test_timeout_can_be_restarted_after_firing():
    sim = Simulator()
    fired = []
    timer = Timeout(sim, lambda: fired.append(sim.now))
    timer.start(1.0)
    sim.run()
    timer.start(1.0)
    sim.run()
    assert fired == [1.0, 2.0]


def test_periodic_timer_fires_repeatedly():
    sim = Simulator()
    fired = []
    timer = PeriodicTimer(sim, lambda: fired.append(sim.now), lambda: 1.0)
    timer.start()
    sim.run(until=3.5)
    assert fired == [1.0, 2.0, 3.0]


def test_periodic_timer_initial_delay_override():
    sim = Simulator()
    fired = []
    timer = PeriodicTimer(sim, lambda: fired.append(sim.now), lambda: 1.0)
    timer.start(initial_delay=0.5)
    sim.run(until=2.6)
    assert fired == [0.5, 1.5, 2.5]


def test_periodic_timer_stop_halts_firing():
    sim = Simulator()
    fired = []
    timer = PeriodicTimer(sim, lambda: fired.append(sim.now), lambda: 1.0)
    timer.start()
    sim.run(until=1.5)
    timer.stop()
    sim.run(until=5.0)
    assert fired == [1.0]
    assert not timer.running


def test_periodic_timer_stop_from_callback():
    sim = Simulator()
    fired = []
    timer = PeriodicTimer(sim, lambda: (fired.append(sim.now), timer.stop()), lambda: 1.0)
    timer.start()
    sim.run(until=10.0)
    assert fired == [1.0]


def test_periodic_timer_start_is_idempotent():
    sim = Simulator()
    fired = []
    timer = PeriodicTimer(sim, lambda: fired.append(sim.now), lambda: 1.0)
    timer.start()
    timer.start()
    sim.run(until=1.5)
    assert fired == [1.0]


def test_periodic_timer_variable_period():
    sim = Simulator()
    periods = iter([1.0, 2.0, 3.0, 100.0])
    fired = []
    timer = PeriodicTimer(sim, lambda: fired.append(sim.now), lambda: next(periods))
    timer.start()
    sim.run(until=7.0)
    assert fired == [1.0, 3.0, 6.0]


# ----------------------------------------------------------------------
# The C kernel's timer-wheel queue (repro.sim._ckernel), driven directly:
# a 4096-slot ring of ``wheel_width``-second buckets plus an overflow
# heap for far deadlines, which must still dispatch in exact
# ``(time, seq)`` order.
# ----------------------------------------------------------------------
import heapq

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import accel
from repro.sim.engine import SimulationError


def _ckernel_simulator(**kwargs):
    if not accel.kernel_available():
        pytest.skip("C kernel unavailable (REPRO_ACCEL=off or no C compiler)")
    return accel._load().Simulator(**kwargs)


def test_wheel_orders_mixed_near_and_far_deadlines():
    sim = _ckernel_simulator(wheel_width=1e-3)
    # 4096 slots x 1ms = 4.096s horizon: 5.0 and 100.0 overflow.
    times = [0.004, 5.0, 0.0001, 0.5, 0.002, 2.9, 0.012, 0.004, 100.0]
    fired = []
    for seq, t in enumerate(times):
        sim.schedule_at(t, fired.append, (t, seq))
    assert sim.far_count == 2
    sim.run(until=3.0)
    # Popping 2.9 moved the cursor, so 5.5 lands in the ring; the
    # overflowed 5.0 must still fire before it.
    times.append(5.5)
    sim.schedule_at(5.5, fired.append, (5.5, len(times) - 1))
    assert sim.wheel_count == 1
    sim.run()
    assert fired == sorted((t, s) for s, t in enumerate(times))


def test_wheel_fifo_ties_and_peek():
    sim = _ckernel_simulator()
    fired = []
    for seq in range(5):
        sim.schedule_at(1.0, fired.append, seq)
    assert sim.peek_time() == 1.0
    sim.run()
    assert fired == [0, 1, 2, 3, 4]
    assert sim.peek_time() is None and not sim.step()


def test_wheel_rejects_push_into_the_past():
    sim = _ckernel_simulator()
    sim.schedule_at(2.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(1.0, lambda: None)


#: The kernel's ring size; deadlines past ``_SLOTS * width`` from the
#: cursor go to the overflow heap.
_SLOTS = 4096

#: Clock offsets as fractions of that horizon, so every example mixes
#: ring and overflow deadlines (and exact ties) whatever the width.
_HORIZON_FRACTIONS = st.one_of(
    st.sampled_from([0.0, 0.25, 0.5, 0.6, 0.9, 0.99, 1.0, 1.01, 1.5, 2.0]),
    st.floats(min_value=0.0, max_value=3.0),
)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["schedule", "schedule", "schedule", "cancel", "step", "step", "run", "run"]),
            _HORIZON_FRACTIONS,
            st.integers(min_value=0, max_value=10**6),
        ),
        min_size=1,
        max_size=200,
    ),
    st.sampled_from([1e-4, 1e-3, 1e-2, 0.1]),
)
def test_wheel_matches_heapq_under_interleaved_push_pop(ops, width):
    """Differential fuzz of the real kernel against a heapq oracle:
    interleaved schedule / cancel / step / run(until) must dispatch the
    live events in sorted ``(time, seq)`` order, with deadlines spread
    across the ring and the overflow heap as the clock advances."""
    sim = _ckernel_simulator(wheel_width=width)
    fired, expected = [], []
    oracle, events, cancelled = [], [], set()

    def pop_oracle(horizon=None):
        while oracle and oracle[0][1] in cancelled:
            heapq.heappop(oracle)
        if oracle and (horizon is None or oracle[0][0] <= horizon):
            expected.append(heapq.heappop(oracle))
            return True
        return False

    for op, fraction, pick in ops:
        value = fraction * _SLOTS * width
        if op == "schedule":
            t = sim.now + value
            seq = len(events)
            events.append(sim.schedule_at(t, fired.append, (t, seq)))
            heapq.heappush(oracle, (t, seq))
        elif op == "cancel" and events:
            seq = pick % len(events)
            if events[seq].pending:
                cancelled.add(seq)
            events[seq].cancel()
        elif op == "step":
            assert sim.step() == pop_oracle()
        elif op == "run":
            horizon = sim.now + value
            sim.run(until=horizon)
            while pop_oracle(horizon):
                pass
            assert sim.now == horizon
    sim.run()
    while pop_oracle():
        pass
    assert fired == expected
