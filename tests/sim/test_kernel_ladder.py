"""Kernel determinism ladder: timer wheel vs the legacy single heap.

The speed overhaul's correctness gate is *not* "same latencies" — it is
bit-identical same-seed behavior.  The wheel must pop events in exactly
the heap's ``(time, seq)`` order, so every downstream artifact (fault
log signature, audit verdicts, summary counters) matches the pre-wheel
kernel event for event.  ``Simulator(legacy_heap=True)`` keeps the old
scheduler alive precisely so this ladder can prove it.

Two rungs:

* property tests drive both kernels through adversarial schedules —
  same-instant ties, bucket-wrap boundaries (the wheel spans 256
  slots x 128 ns = 32768 ns), far-future overflow entries, and
  pending events succeeded mid-run (the parked-waiter wake path) — and
  require identical pop traces;
* the three classic runbooks (chaos/gray/overload) run one full cell
  per arm and must produce identical fault-log signatures, event
  lines, and metric summaries.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scenarios import load_runbook
from repro.scenarios.schema import builtin_runbooks
from repro.scenarios.runner import run_cell
from repro.sim import Simulator

#: One wheel rotation: _WHEEL_SLOTS << _WHEEL_SHIFT ns.
WHEEL_SPAN_NS = 256 << 7


def pop_trace(legacy: bool, delays, wakes=()):
    """Fire a waiter per delay (plus optional parked waiters that a
    driver process wakes mid-run) and return the (time, waiter) pop
    order."""
    sim = Simulator(seed=4, legacy_heap=legacy)
    trace = []

    def waiter(idx, event):
        yield event
        trace.append((sim.now, idx))

    for idx, delay in enumerate(delays):
        sim.spawn(waiter(idx, sim.timeout(delay)), name=f"w{idx}")

    parked = [sim.event() for _ in wakes]
    for idx, event in enumerate(parked):
        sim.spawn(waiter(-1 - idx, event), name=f"p{idx}")

    def driver():
        for (pick, early, delay) in wakes:
            yield sim.timeout(early)
            event = parked[pick % len(parked)]
            if not event.triggered:
                event.succeed(delay=delay)
        yield sim.timeout(1.0)

    if wakes:
        sim.spawn(driver(), name="driver")
    sim.run()
    return trace


@settings(max_examples=40, deadline=None)
@given(delays=st.lists(
    st.one_of(
        # Dense near-term delays: same-instant ties are likely.
        st.sampled_from([0.0, 64.0, 128.0, 128.0, 4096.0]),
        # Around wrap boundaries of the 32768 ns wheel rotation.
        st.floats(min_value=WHEEL_SPAN_NS - 256.0,
                  max_value=WHEEL_SPAN_NS + 256.0),
        # Far-future overflow entries (several rotations out).
        st.floats(min_value=0.0, max_value=8.0 * WHEEL_SPAN_NS),
    ),
    min_size=1, max_size=24,
))
def test_property_wheel_matches_heap_pop_order(delays):
    assert pop_trace(False, delays) == pop_trace(True, delays)


@settings(max_examples=25, deadline=None)
@given(
    delays=st.lists(st.floats(min_value=0.0, max_value=4.0 * WHEEL_SPAN_NS),
                    min_size=2, max_size=12),
    wakes=st.lists(
        st.tuples(st.integers(min_value=0, max_value=11),
                  st.floats(min_value=0.0, max_value=WHEEL_SPAN_NS),
                  st.sampled_from([0.0, 0.0, 64.0, 2.0 * WHEEL_SPAN_NS])),
        min_size=1, max_size=6),
)
def test_property_late_succeed_matches_heap(delays, wakes):
    """Pending events succeeded mid-run keep wheel order identical to
    the heap's: a succeed at commit time is how a publish wakes a
    parked dispatcher."""
    wheel = pop_trace(False, delays, wakes)
    heap = pop_trace(True, delays, wakes)
    assert wheel == heap


def test_same_instant_ties_pop_in_schedule_order():
    """Ties resolve by schedule sequence in both kernels."""
    for legacy in (False, True):
        sim = Simulator(seed=0, legacy_heap=legacy)
        order = []

        def waiter(idx):
            yield sim.timeout(500.0)
            order.append(idx)

        for idx in range(16):
            sim.spawn(waiter(idx), name=f"tie{idx}")
        sim.run()
        assert order == list(range(16)), f"legacy={legacy}"


def _cell_fingerprint(result):
    """Everything a cell's determinism contract covers."""
    return (result.signature, tuple(result.events),
            tuple(result.violations), tuple(result.expect_failures),
            result.error, result.summary, result.sim_ns)


@pytest.mark.slow
@pytest.mark.parametrize("name", ["chaos", "gray", "overload"])
def test_runbook_cell_identical_under_both_kernels(name, monkeypatch):
    """One full cell per classic runbook: the wheel arm and the legacy
    heap arm must agree on the fault log (signature + every line) and
    the metric summary — the overhaul's headline acceptance gate."""
    runbook = load_runbook(builtin_runbooks()[name])
    cell = runbook.expand()[0]

    monkeypatch.delenv("REPRO_SIM_LEGACY_HEAP", raising=False)
    wheel = run_cell(cell, label=f"ladder-{name}")
    rerun = run_cell(cell, label=f"ladder-{name}")
    monkeypatch.setenv("REPRO_SIM_LEGACY_HEAP", "1")
    heap = run_cell(cell, label=f"ladder-{name}")

    # Same-seed rerun determinism on the wheel itself...
    assert _cell_fingerprint(wheel) == _cell_fingerprint(rerun)
    # ...and bit-identical artifacts across the kernel ladder.
    assert wheel.signature == heap.signature
    assert wheel.events == heap.events
    assert _cell_fingerprint(wheel) == _cell_fingerprint(heap)
