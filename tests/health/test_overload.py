"""Unit tests for the overload-control primitives.

RetryBudget, AimdWindow, and BrownoutController are deliberately pure
(no RNG, no hidden clock): every decision is a function of explicit
inputs, so the chaos harness can replay overload episodes bit-identically.
These tests pin the arithmetic — token flow, window dynamics, ladder
hysteresis — that the datapath and pool layers build on.
"""

import random

import pytest

from repro.health import (
    BROWNOUT_DEMOTE,
    BROWNOUT_NORMAL,
    BROWNOUT_SHED,
    AimdWindow,
    BrownoutController,
    RetryBudget,
)
from repro.sim import Simulator


# ------------------------------------------------------------ RetryBudget


def test_budget_starts_full_and_drains():
    b = RetryBudget("t", ratio=0.1, burst=4.0, hedge_min=1.0)
    assert b.tokens == 4.0
    for _ in range(4):
        assert b.try_spend(1.0)
    assert not b.try_spend(1.0)          # empty: refused
    assert b.denied == 1
    assert b.spent == 4


def test_budget_refills_from_goodput_capped_at_burst():
    b = RetryBudget("t", ratio=0.5, burst=2.0, hedge_min=0.0)
    b.tokens = 0.0
    b.on_success()
    b.on_success()
    assert b.tokens == 1.0               # 2 deposits at ratio 0.5
    for _ in range(10):
        b.on_success()
    assert b.tokens == 2.0               # capped at burst
    # Sustained retry rate is bounded at ~ratio of goodput: 10 successes
    # fund at most 10 * ratio retries.
    assert b.deposits == 12


def test_spend_forced_never_refuses_but_still_drains():
    b = RetryBudget("t", burst=2.0, hedge_min=0.0)
    b.spend_forced(5.0)                  # more than the bucket holds
    assert b.tokens == 0.0               # floored, not negative
    assert b.denied == 0                 # forced spends are never denied
    # The drain is visible to discretionary traffic: a retry is refused
    # until goodput redeposits.
    assert not b.try_spend(1.0)


def test_hedges_stand_down_before_retries_do():
    b = RetryBudget("t", burst=8.0, hedge_min=4.0)
    b.tokens = 4.5
    # 4.5 - 1 < hedge_min: hedge suppressed, tokens untouched...
    assert not b.try_spend_hedge(1.0)
    assert b.tokens == 4.5
    assert b.hedges_suppressed == 1
    assert not b.allows_hedge()
    # ...but a correctness retry at the same level is still served.
    assert b.try_spend(1.0)
    b.tokens = 8.0
    assert b.allows_hedge()
    assert b.try_spend_hedge(1.0)
    assert b.tokens == 7.0


# ------------------------------------------------------------- AimdWindow


def test_window_starts_at_ceiling_so_fast_path_is_untouched():
    w = AimdWindow("t", lo=2.0, hi=64.0)
    assert w.window == 64.0
    assert w.can_submit()
    # An uncontended client never waits: clean acks at the ceiling are
    # no-ops, not increases.
    w.on_ack(0, now=0.0)
    assert w.window == 64.0
    assert w.increases == 0


def test_pressure_halves_multiplicatively_and_acks_rebuild_additively():
    w = AimdWindow("t", lo=2.0, hi=64.0, cooldown_ns=0.0)
    w.on_ack(900, now=0.0)               # occupancy >= 750 permille
    assert w.window == 32.0
    w.on_busy(now=1.0)                   # busy nack: same signal
    assert w.window == 16.0
    assert w.decreases == 2
    for i in range(3):
        w.on_ack(100, now=2.0 + i)
    assert w.window == 19.0              # +1 per clean ack
    assert w.increases == 3


def test_decrease_is_rate_limited_by_cooldown():
    w = AimdWindow("t", lo=2.0, hi=64.0, cooldown_ns=1_000.0)
    # A burst of completions all stamped by one congestion event must
    # cost one decrease, not one per ack.
    for _ in range(10):
        w.on_ack(1000, now=100.0)
    assert w.window == 32.0
    assert w.decreases == 1
    w.on_busy(now=2_000.0)               # past the cooldown: counts again
    assert w.window == 16.0


def test_window_floors_at_lo():
    w = AimdWindow("t", lo=2.0, hi=64.0, cooldown_ns=0.0)
    for i in range(20):
        w.on_busy(now=float(i))
    assert w.window == 2.0               # never below the floor


def test_wait_for_slot_paces_until_a_release():
    sim = Simulator()
    w = AimdWindow("t", lo=1.0, hi=2.0)
    w.acquire()
    w.acquire()                          # window full
    times = {}

    def submitter():
        yield from w.wait_for_slot(sim, poll_ns=500.0)
        w.acquire()
        times["admitted"] = sim.now

    def releaser():
        yield sim.timeout(5_000.0)
        w.release()

    p = sim.spawn(submitter())
    sim.spawn(releaser())
    sim.run(until=p)
    assert times["admitted"] >= 5_000.0
    assert w.paced_waits == 1
    assert w.inflight == 2


# ----------------------------------- waiter list vs. the 2 us re-check spin


class SpinWindow(AimdWindow):
    """Reference: the pacer before its waiter list.

    A paced-out caller re-checks the window every ``poll_ns`` on a
    ``sim.timeout`` spin.  The waiter list must admit the same callers
    at the same instants in the same order.
    """

    def wait_for_slot(self, sim, poll_ns=2_000.0):
        if self.can_submit():
            return
        self.paced_waits += 1
        while not self.can_submit():
            yield sim.timeout(poll_ns)


POLL_NS = 2_000.0


def random_schedule(seed, n_submitters=7, n_ops=10, n_signals=40):
    """Inputs drawn up front, so both pacers replay the same schedule.

    Submitters 0-2 start at the same instant and so share a re-check
    grid; some ops re-enter the pacer the instant they were admitted.
    Completions fold clean, low or pressured occupancy into the window;
    a controller adds window growth with no release and busy nacks.
    """
    rng = random.Random(seed)
    starts = [0.0] * 3 + [rng.uniform(0.0, 20_000.0)
                          for _ in range(n_submitters - 3)]
    submitters = []
    for start in starts:
        ops = [(0.0 if rng.random() < 0.3 else rng.uniform(0.0, 6_000.0),
                rng.uniform(500.0, 15_000.0),
                rng.choice((0, 100, 800)))
               for _ in range(n_ops)]
        submitters.append((start, ops))
    signals = [(rng.uniform(100.0, 8_000.0),
                rng.choice(("grow", "grow", "busy")))
               for _ in range(n_signals)]
    return submitters, signals


def replay(window_cls, seed):
    """Run one schedule; returns admissions and the window's end state."""
    sim = Simulator()
    w = window_cls("t", lo=1.0, hi=4.0, cooldown_ns=3_000.0)
    submitters, signals = random_schedule(seed)
    admitted = []

    def complete(hold, occupancy):
        yield sim.timeout(hold)
        w.on_ack(occupancy, sim.now)
        w.release()

    def submitter(i, start, ops):
        yield sim.timeout(start)
        for k, (think, hold, occupancy) in enumerate(ops):
            if think:
                yield sim.timeout(think)
            yield from w.wait_for_slot(sim, poll_ns=POLL_NS)
            w.acquire()
            admitted.append((sim.now, i, k))
            sim.spawn(complete(hold, occupancy))

    def controller():
        for gap, kind in signals:
            yield sim.timeout(gap)
            if kind == "grow":
                w.on_ack(0, sim.now)
            else:
                w.on_busy(sim.now)

    for i, (start, ops) in enumerate(submitters):
        sim.spawn(submitter(i, start, ops))
    sim.spawn(controller())
    sim.run()
    end = (w.window, w.inflight, w.increases, w.decreases, w.paced_waits)
    return admitted, end


@pytest.mark.parametrize("seed", range(12))
def test_waiter_list_admits_like_the_spin(seed):
    spin_admitted, spin_end = replay(SpinWindow, seed)
    admitted, end = replay(AimdWindow, seed)
    assert admitted == spin_admitted       # same instants, same order
    assert end == spin_end
    # The schedule really contends: most ops had to pace.
    assert end[4] >= 35
    assert len(admitted) == 7 * 10


def test_release_on_a_grid_point_defers_to_the_next_point():
    """Tie rule: a release landing exactly on a parked waiter's grid
    point counts that point as already checked; the waiter is admitted
    at the next one.

    The spin agrees when the releasing event was queued after the
    spin's own re-check timer for that point (queued one ``poll_ns``
    earlier), as below.  Had it been queued before, the spin would have
    admitted at the tie point itself; the waiter list does not look at
    queue order and always defers.
    """
    def run(window_cls, release_after):
        sim = Simulator()
        w = window_cls("t", lo=1.0, hi=1.0)
        w.acquire()
        times = []

        def submitter():
            yield from w.wait_for_slot(sim, poll_ns=500.0)
            w.acquire()
            times.append(sim.now)

        def releaser():
            for delay in release_after:
                yield sim.timeout(delay)
            w.release()                  # at t = 1500, a grid point

        sim.spawn(submitter())
        sim.spawn(releaser())
        sim.run()
        return times

    queued_late = (1_200.0, 300.0)       # queued after the 1000 re-check
    assert run(SpinWindow, queued_late) == [2_000.0]
    assert run(AimdWindow, queued_late) == [2_000.0]
    assert run(AimdWindow, (1_500.0,)) == [2_000.0]


def test_paced_wait_costs_wakes_not_polls():
    """A 1 ms paced wait processes a handful of events, not the ~500
    2 us re-checks of the spin."""
    def events(window_cls):
        sim = Simulator()
        w = window_cls("t", lo=1.0, hi=1.0)
        w.acquire()
        times = []

        def submitter():
            yield from w.wait_for_slot(sim)
            w.acquire()
            times.append(sim.now)

        def releaser():
            yield sim.timeout(999_999.0)
            w.release()

        sim.spawn(submitter())
        sim.spawn(releaser())
        sim.run()
        assert times == [1_000_000.0]
        return sim.events_processed

    assert events(SpinWindow) >= 500
    assert events(AimdWindow) <= 10


# ----------------------------------------------------- BrownoutController


def test_ladder_climbs_one_rung_per_hot_tick():
    c = BrownoutController(enter=0.5, exit_=0.125, calm_ticks=4)
    assert c.update(0.9, now=0.0) == BROWNOUT_SHED
    assert c.update(0.9, now=1.0) == BROWNOUT_DEMOTE
    assert c.update(0.9, now=2.0) == BROWNOUT_DEMOTE   # capped at max
    assert [lvl for _, lvl in c.transitions] == [1, 2]


def test_descent_needs_consecutive_calm_ticks():
    c = BrownoutController(enter=0.5, exit_=0.125, calm_ticks=4)
    c.update(0.9, now=0.0)
    for i in range(3):
        assert c.update(0.0, now=1.0 + i) == BROWNOUT_SHED
    assert c.update(0.0, now=4.0) == BROWNOUT_NORMAL   # 4th calm tick
    # Relaxation is an order of magnitude slower than reaction: one hot
    # tick climbed, four calm ticks descended.
    assert [lvl for _, lvl in c.transitions] == [1, 0]


def test_gray_zone_holds_the_rung_and_resets_calm():
    c = BrownoutController(enter=0.5, exit_=0.125, calm_ticks=2)
    c.update(0.9, now=0.0)
    c.update(0.0, now=1.0)               # calm 1/2
    c.update(0.3, now=2.0)               # gray: hold, calm restarts
    c.update(0.0, now=3.0)               # calm 1/2 again
    assert c.level == BROWNOUT_SHED
    c.update(0.0, now=4.0)               # calm 2/2
    assert c.level == BROWNOUT_NORMAL


def test_oscillating_load_cannot_flap_the_ladder():
    c = BrownoutController(enter=0.5, exit_=0.125, calm_ticks=4)
    # Pressure bouncing between hot and gray: level saturates at the
    # ceiling and stays there — no up/down churn for the pool to apply.
    levels = [c.update(p, now=float(i))
              for i, p in enumerate([0.6, 0.3, 0.6, 0.3, 0.6, 0.3])]
    assert levels == [1, 1, 2, 2, 2, 2]
    assert [lvl for _, lvl in c.transitions] == [1, 2]
