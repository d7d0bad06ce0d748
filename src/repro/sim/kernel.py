"""The simulator: clock, event queue, and run loop.

Simulated time is a ``float`` number of **nanoseconds**.  Determinism is
guaranteed by the scheduling key ``(time, sequence_number)``: events
scheduled for the same instant are processed in scheduling order, so a
program that performs the same calls in the same order always produces the
same trace.

Queue architecture (DESIGN.md §15)
----------------------------------

The kernel keeps three structures instead of one big heap:

* ``_ready`` — a small heap of entries at or before the wheel cursor
  (the bucket currently being drained, plus zero-delay schedules);
* ``_wheel`` — a hashed timer wheel of :data:`_WHEEL_SLOTS` unsorted
  buckets, each :data:`2**_WHEEL_SHIFT` ns wide, holding the dominant
  short-delay timeouts.  Scheduling into the wheel is a single list
  append (no heap sift); a bucket is sorted once, in C, when the cursor
  reaches it;
* ``_overflow`` — a heap for far-future events beyond the wheel horizon
  (lease renewals, agent ticks, op-timeout deadlines).  Entries migrate
  into the wheel as the cursor advances.

Because bucket index is monotone in time and entries within a bucket are
(re)ordered by ``(time, seq)``, the pop order is **bit-identical** to the
single-heap kernel's.  ``Simulator(legacy_heap=True)`` (or the
``REPRO_SIM_LEGACY_HEAP`` env var) keeps the old single-heap path alive so
the determinism ladder in ``tests/sim/test_kernel_ladder.py`` can prove
that equivalence on whole scenario runs.

The kernel never cancels or reschedules a queued entry: every entry it
pops is live.  A software wait that may end early (a parked RPC
dispatcher, a paced client) waits on a plain unscheduled event that
whoever changes the state succeeds, so nothing is queued while it waits.
"""

from __future__ import annotations

import os
from heapq import heapify, heappop, heappush
from typing import Any, Generator, Optional, Union

from repro.sim import profile as _profile
from repro.sim.errors import DeadSimulationError, SimError, StopSimulation
from repro.sim.events import Event, Timeout
from repro.sim.process import Process
from repro.sim.rand import RandomStreams

#: Type accepted by :meth:`Simulator.run`'s ``until`` parameter.
Until = Union[None, int, float, Event]

#: log2 of the wheel bucket width in ns (128 ns buckets: poll cadences,
#: cache hits, and CXL line loads all land within a few buckets).
_WHEEL_SHIFT = 7
#: Number of level-0 buckets; span = slots << shift = 32.8 µs, which
#: covers RPC RTTs and think times.  Anything farther goes to overflow.
_WHEEL_SLOTS = 256
_WHEEL_MASK = _WHEEL_SLOTS - 1

_INF = float("inf")


class Simulator:
    """A discrete-event simulator with a nanosecond clock.

    Args:
        seed: master seed for :class:`~repro.sim.rand.RandomStreams`.
              All stochastic models derive their randomness from this.
        legacy_heap: force the pre-wheel single-heap scheduler.  Event
              ordering is identical either way; the toggle exists so the
              determinism ladder can compare whole runs.  Defaults to the
              ``REPRO_SIM_LEGACY_HEAP`` environment variable.
    """

    def __init__(self, seed: int = 0, legacy_heap: Optional[bool] = None):
        if legacy_heap is None:
            legacy_heap = bool(os.environ.get("REPRO_SIM_LEGACY_HEAP"))
        self._legacy = legacy_heap
        self._now: float = 0.0
        self._seq = 0
        #: Scheduled entries across all structures.
        self._live = 0
        #: Entries at tick <= cursor (and, in legacy mode, *all* entries).
        self._ready: list[tuple[float, int, Event]] = []
        self._wheel: list[list[tuple[float, int, Event]]] = [
            [] for _ in range(_WHEEL_SLOTS)
        ]
        self._wheel_count = 0
        self._overflow: list[tuple[float, int, Event]] = []
        #: Wheel cursor: the bucket tick currently drained into ``_ready``.
        self._cursor = 0
        self._active_process: Optional[Process] = None
        self._dead = False
        self.rng = RandomStreams(seed)
        # Wall-clock profiler (repro.sim.profile); None keeps the hot
        # loop to a single extra branch.  Measurements never feed back
        # into simulated state, so profiled runs stay deterministic.
        self._profiler = _profile.DEFAULT_PROFILER
        #: Cheap event counter (monotonic, survives profiler detach) so
        #: benchmarks can compute events/s without per-event timing.
        self.events_processed = 0

    # -- clock ----------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time in nanoseconds."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being stepped, if any."""
        return self._active_process

    def attach_profiler(self, profiler) -> "object":
        """Install a :class:`repro.sim.profile.KernelProfiler` (or None)."""
        self._profiler = profiler
        return profiler

    # -- event creation -------------------------------------------------

    def event(self, name: str = "") -> Event:
        """Create a pending event owned by this simulator."""
        return Event(self, name=name)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires ``delay`` ns from now."""
        return Timeout(self, delay, value=value)

    def spawn(self, generator: Generator, name: str = "") -> Process:
        """Start a new process from a generator."""
        return Process(self, generator, name=name)

    # Alias familiar to simpy users.
    process = spawn

    # -- scheduling -----------------------------------------------------

    def schedule(self, event: Event, delay: float = 0.0) -> None:
        """Insert a triggered event into the queue ``delay`` ns from now."""
        if self._dead:
            raise DeadSimulationError("simulator has been shut down")
        if delay < 0:
            raise SimError(f"cannot schedule in the past (delay={delay})")
        t = self._now + delay
        seq = self._seq
        self._seq = seq + 1
        self._live += 1
        if self._legacy:
            heappush(self._ready, (t, seq, event))
            return
        tick = int(t) >> _WHEEL_SHIFT
        cur = self._cursor
        if tick <= cur:
            heappush(self._ready, (t, seq, event))
        elif tick <= cur + _WHEEL_SLOTS:
            self._wheel[tick & _WHEEL_MASK].append((t, seq, event))
            self._wheel_count += 1
        else:
            heappush(self._overflow, (t, seq, event))

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if queue is empty."""
        return self._ready[0][0] if self._prepare_head() else _INF

    def _prepare_head(self) -> bool:
        """Position the next entry at ``_ready[0]``; False if none."""
        # Re-check after each advance: _advance_bucket swaps _ready
        # wholesale.
        while not self._ready:
            if self._live == 0 or self._legacy:
                return False
            self._advance_bucket()
        return True

    def _advance_bucket(self) -> None:
        """Advance the cursor to the next occupied bucket, filling _ready.

        Precondition: ``_ready`` is empty and at least one entry
        exists in the wheel or overflow heap.
        """
        wheel = self._wheel
        overflow = self._overflow
        cur = self._cursor
        if not self._wheel_count:
            # Wheel empty: jump straight to the earliest overflow tick.
            if not overflow:
                raise SimError("timer wheel lost a live entry")
            cur = (int(overflow[0][0]) >> _WHEEL_SHIFT) - 1
        while True:
            cur += 1
            # Migrate overflow entries whose tick enters the wheel window
            # [cur, cur + 255]; tick cur + 256 would alias the slot about
            # to be drained, so it stays in overflow one round longer.
            bound = float((cur + _WHEEL_SLOTS) << _WHEEL_SHIFT)
            while overflow and overflow[0][0] < bound:
                entry = heappop(overflow)
                wheel[(int(entry[0]) >> _WHEEL_SHIFT) & _WHEEL_MASK].append(
                    entry
                )
                self._wheel_count += 1
            slot = wheel[cur & _WHEEL_MASK]
            if slot:
                self._wheel_count -= len(slot)
                self._cursor = cur
                # Swap the empty ready list into the wheel and heapify the
                # bucket in C; within-bucket order is (time, seq), so the
                # global pop order matches the single-heap kernel exactly.
                wheel[cur & _WHEEL_MASK] = self._ready
                heapify(slot)
                self._ready = slot
                return
            if not self._wheel_count:
                # Everything left lives beyond the wheel horizon: jump.
                if not overflow:
                    raise SimError("timer wheel lost a live entry")
                cur = (int(overflow[0][0]) >> _WHEEL_SHIFT) - 1

    def step(self) -> None:
        """Process exactly one event (advancing the clock to it)."""
        if not self._prepare_head():
            raise SimError("step() on an empty event queue")
        when, _seq, event = heappop(self._ready)
        self._live -= 1
        self._now = when
        self.events_processed += 1
        profiler = self._profiler
        if profiler is None:
            event._process()
            return
        start = _profile.perf_counter_ns()
        try:
            event._process()
        finally:
            end = _profile.perf_counter_ns()
            profiler.on_event(event, when, end - start, end)

    # -- run loop -------------------------------------------------------

    def run(self, until: Until = None) -> Any:
        """Run the simulation.

        Args:
            until:
                * ``None`` — run until the event queue drains;
                * a number — run until the clock reaches that time (ns);
                * an :class:`Event` — run until that event is processed and
                  return its value (re-raising its exception on failure).

        Returns:
            The value of ``until`` when it is an event, else ``None``.
        """
        if isinstance(until, Event):
            if until.processed:
                return until.value
            until.add_callback(self._stop_on)
            try:
                self._drain(_INF)
            except StopSimulation as stop:
                return stop.event.value
            # Queue drained without the target firing: deadlock.
            raise SimError(
                f"simulation ran out of events before {until!r} fired"
            )
        if until is None:
            self._drain(_INF)
            return None
        horizon = float(until)
        if horizon < self._now:
            raise SimError(
                f"run(until={horizon}) is in the past (now={self._now})"
            )
        self._drain(horizon)
        self._now = horizon
        return None

    def _drain(self, horizon: float) -> None:
        """Process all events with time <= horizon, batching same-bucket
        deliveries through one tight loop."""
        pop = heappop
        count = 0
        try:
            while self._prepare_head():
                ready = self._ready
                when = ready[0][0]
                if when > horizon:
                    break
                when, _seq, event = pop(ready)
                self._live -= 1
                self._now = when
                count += 1
                profiler = self._profiler
                if profiler is None:
                    event._process()
                    continue
                start = _profile.perf_counter_ns()
                try:
                    event._process()
                finally:
                    end = _profile.perf_counter_ns()
                    profiler.on_event(event, when, end - start, end)
        finally:
            self.events_processed += count

    @staticmethod
    def _stop_on(event: Event) -> None:
        if event._exception is not None:
            event._defused = True
            raise event._exception
        raise StopSimulation(event)

    def shutdown(self) -> None:
        """Discard all pending events and reject further scheduling."""
        self._ready.clear()
        self._overflow.clear()
        for slot in self._wheel:
            slot.clear()
        self._wheel_count = 0
        self._live = 0
        self._dead = True

    def __repr__(self) -> str:
        return f"<Simulator t={self._now}ns queued={self._live}>"
