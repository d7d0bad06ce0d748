"""Unit tests for the simulation kernel: clock, scheduling, run loop."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Event, SimError, Simulator
from repro.sim.errors import DeadSimulationError


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_timeout_advances_clock():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(125.0)

    sim.spawn(proc(sim))
    sim.run()
    assert sim.now == 125.0


def test_run_until_time_stops_clock_exactly():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(1000.0)

    sim.spawn(proc(sim))
    sim.run(until=300.0)
    assert sim.now == 300.0
    sim.run()  # drain the rest
    assert sim.now == 1000.0


def test_run_until_event_returns_its_value():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(50.0)
        return "done"

    p = sim.spawn(proc(sim))
    assert sim.run(until=p) == "done"
    assert sim.now == 50.0


def test_run_until_event_raises_on_deadlock():
    sim = Simulator()
    never = sim.event()
    with pytest.raises(SimError, match="ran out of events"):
        sim.run(until=never)


def test_run_until_past_time_rejected():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(500.0)

    sim.spawn(proc(sim))
    sim.run(until=400.0)
    with pytest.raises(SimError, match="in the past"):
        sim.run(until=100.0)


def test_same_time_events_fire_in_schedule_order():
    sim = Simulator()
    order = []

    def proc(sim, tag):
        yield sim.timeout(10.0)
        order.append(tag)

    for tag in ("a", "b", "c"):
        sim.spawn(proc(sim, tag))
    sim.run()
    assert order == ["a", "b", "c"]


def test_negative_delay_rejected():
    sim = Simulator()
    ev = Event(sim)
    with pytest.raises(SimError):
        sim.schedule(ev, delay=-1.0)


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.timeout(-5.0)


def test_step_on_empty_queue_raises():
    sim = Simulator()
    with pytest.raises(SimError):
        sim.step()


def test_peek_reports_next_event_time():
    sim = Simulator()
    assert sim.peek() == float("inf")
    sim.timeout(42.0)
    assert sim.peek() == 42.0


def test_shutdown_rejects_scheduling():
    sim = Simulator()
    sim.shutdown()
    with pytest.raises(DeadSimulationError):
        sim.timeout(1.0)


def test_unwaited_failed_event_raises_at_processing():
    sim = Simulator()
    ev = sim.event()
    ev.fail(RuntimeError("boom"))
    with pytest.raises(RuntimeError, match="boom"):
        sim.run()


def test_event_succeed_twice_rejected():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(1)
    with pytest.raises(SimError):
        ev.succeed(2)


def test_event_value_before_trigger_rejected():
    sim = Simulator()
    ev = sim.event()
    with pytest.raises(SimError):
        _ = ev.value


def test_fail_requires_exception_instance():
    sim = Simulator()
    ev = sim.event()
    with pytest.raises(TypeError):
        ev.fail("not an exception")


# -- pop order against a sorting oracle: same float additions as the
# kernel, sorted by (time, schedule order).


def pop_trace(delays, wakes=()):
    """A waiter per delay, plus parked waiters that a driver wakes
    mid-run with ``succeed(delay=...)``; returns the (time, waiter)
    order in which they resume."""
    sim = Simulator(seed=4)
    trace = []

    def waiter(idx, event):
        yield event
        trace.append((sim.now, idx))

    for idx, delay in enumerate(delays):
        sim.spawn(waiter(idx, sim.timeout(delay)))
    parked = [sim.event() for _ in wakes]
    for idx, event in enumerate(parked):
        sim.spawn(waiter(-1 - idx, event))

    def driver():
        for pick, early, delay in wakes:
            yield sim.timeout(early)
            event = parked[pick % len(parked)]
            if not event.triggered:
                event.succeed(delay=delay)

    sim.spawn(driver())
    sim.run()
    return trace


def oracle_trace(delays, wakes=()):
    entries = [(0.0 + delay, idx, idx) for idx, delay in enumerate(delays)]
    now, woken = 0.0, set()
    for pick, early, delay in wakes:
        now += early
        idx = pick % len(wakes)
        if idx not in woken:
            woken.add(idx)
            entries.append((now + delay, len(entries), -1 - idx))
    return [(when, idx) for when, _order, idx in sorted(entries)]


TIES = st.sampled_from([0.0, 64.0, 128.0, 128.0, 4096.0])
NEAR = st.floats(min_value=0.0, max_value=1e5)
#: Lease renewals and op deadlines, up to 100 s out.
FAR = st.floats(min_value=1e6, max_value=1e11)


@settings(max_examples=60, deadline=None)
@given(delays=st.lists(st.one_of(TIES, NEAR, FAR), min_size=1, max_size=24))
def test_property_pop_order_is_time_then_schedule_order(delays):
    assert pop_trace(delays) == oracle_trace(delays)


@settings(max_examples=40, deadline=None)
@given(delays=st.lists(st.one_of(TIES, NEAR), min_size=2, max_size=12),
       wakes=st.lists(st.tuples(st.integers(0, 11), st.one_of(TIES, NEAR),
                                st.sampled_from([0.0, 0.0, 64.0, 1e9])),
                      min_size=1, max_size=6))
def test_property_mid_run_succeed_keeps_pop_order(delays, wakes):
    """A pending event succeeded mid-run (how a publish wakes a parked
    dispatcher) takes its place in (time, schedule order)."""
    assert pop_trace(delays, wakes) == oracle_trace(delays, wakes)


def test_sixteen_way_same_instant_ties_pop_in_schedule_order():
    assert pop_trace([500.0] * 16) == [(500.0, idx) for idx in range(16)]
