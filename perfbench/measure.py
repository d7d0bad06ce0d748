"""Timed reps of one workload: untraced, set-up only, or traced."""

from __future__ import annotations

import gc
import heapq
import resource
import statistics
import time

import layers
from instrument import Census, SetupClock, every, patched
from repro.channel.rpc import RpcEndpoint
from repro.cxl.cache import CpuCache
from repro.cxl.link import CxlLink
from repro.health.overload import AimdWindow
from repro.obs import runtime
from repro.scenarios.runner import AuditContext
from repro.sim import Simulator
from summary import percentile, support_problem

#: Events in one host-speed sample, and wall seconds between samples.
REFERENCE_EVENTS = 1500
REFERENCE_PERIOD_S = 0.1
#: Host seconds one sample takes on the host the metrics are scaled to
#: (a 2-core Xeon VM, Python 3.11, when the host was quiet).
REFERENCE_NOMINAL_S = 0.001

#: End-to-end metric -> unit.  BENCHMARK.json lists the same names.
END_TO_END_UNITS = {
    "sim_s_per_wall_s": "s/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ops_ok_frac": "ratio",
    "op_p50_sim_us": "us",
    "op_p99_sim_us": "us",
    "goodput_ops_per_sim_s": "1/s",
}


def _census() -> Census:
    return Census(Simulator, RpcEndpoint, CpuCache, CxlLink, AimdWindow,
                  AuditContext)


def _fresh() -> None:
    runtime.reset_metrics()
    gc.collect()


def reference_s() -> float:
    """Host seconds for a fixed pure-Python event loop.

    A heap of 64 generator processes, like the simulator's kernel but
    independent of the program, timed with the collector off so the
    program's heap cannot slow it.
    """
    def process(i):
        delay = 1 + i % 7
        while True:
            yield delay
            delay = 1 + (delay * 31 + i) % 97

    processes = [process(i) for i in range(64)]
    queue = [(0, i) for i in range(64)]
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(REFERENCE_EVENTS):
            now, i = heapq.heappop(queue)
            heapq.heappush(queue, (now + next(processes[i]), i))
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class HostSpeed:
    """Samples of :func:`reference_s` around and during one rep.

    On a shared host the speed swings within one rep, so the rep is
    scaled by samples taken every ``REFERENCE_PERIOD_S`` while it runs,
    one before it and one after (the caller's).  ``inside_s`` is what
    the samples inside :meth:`sampling` added to the rep's wall.
    """

    def __init__(self):
        self.samples = [reference_s()]
        self.inside_s = 0.0

    def _on_alarm(self, _frame) -> None:
        sample = reference_s()
        self.samples.append(sample)
        self.inside_s += sample

    def sampling(self):
        return every(REFERENCE_PERIOD_S, self._on_alarm)


def setup_probe(workload) -> list:
    """``(set-up s, reference s)`` per simulator built up to its first run.

    The reference is the mean of :func:`reference_s` before and after.
    """
    _fresh()
    before = reference_s()
    with _census() as census, SetupClock(Simulator, probe=True) as clock:
        workload.run_rep(census)
    reference = (before + reference_s()) / 2.0
    return [(setup, reference) for setup in clock.setups]


def untraced_rep(workload):
    """One rep: (Rep, wall s, reference s, set-ups as by setup_probe, census).

    The wall excludes the host-speed samples taken inside the rep; the
    reference is their mean (see :class:`HostSpeed`).
    """
    _fresh()
    with _census() as census, SetupClock(Simulator) as clock:
        speed = HostSpeed()
        start = time.perf_counter()
        with speed.sampling():
            rep = workload.run_rep(census)
        wall = time.perf_counter() - start - speed.inside_s
    speed.samples.append(reference_s())
    reference = statistics.fmean(speed.samples)
    return (rep, wall, reference,
            [(setup, reference) for setup in clock.setups], census)


def traced_rep(workload):
    """One traced rep: (Rep, wall s, per-layer metrics but ``sim.*``)."""
    _fresh()
    credit = layers.EventCredit()
    tracer = runtime.enable_tracing()
    try:
        with _census() as census, \
                patched(Simulator, "schedule", credit.wrap):
            start = time.perf_counter()
            sampler = layers.SelfTimeSampler()
            with sampler.sampling():
                rep = workload.run_rep(census)
            wall = time.perf_counter() - start
        found = layers.counters(census)
    finally:
        runtime.disable_tracing()
    for row in layers.ROWS:
        found[f"{row}.self_s"] = sampler.seconds[row]
        found[f"{row}.events_scheduled"] = credit.counts[row]
    found["trace.total_self_s"] = sum(sampler.seconds.values())
    found.update(layers.phases(tracer))
    return rep, wall, found


def ok_frac(rep) -> float:
    """Share of attempted ops that neither failed nor were refused."""
    return (rep.ops_attempted - rep.ops_failed) / rep.ops_attempted


def host_speed(rep, wall: float, reference: float) -> float:
    """Simulated seconds per wall second, scaled to the nominal host.

    Multiplying by ``reference / REFERENCE_NOMINAL_S`` cancels the shared
    host's speed swings, which move the rep and the reference loop alike;
    ``setup_s`` is scaled the same way.
    """
    return rep.sim_ns / 1e9 / wall * (reference / REFERENCE_NOMINAL_S)


def end_to_end(reps, setups, problems) -> dict:
    """End-to-end metrics from untraced ``(Rep, wall, reference)`` reps
    and ``(set-up s, reference s)`` samples.

    All reps share one seed.  Appends to ``problems`` when the samples
    cannot carry a percentile.
    """
    rep = reps[0][0]
    samples = rep.latencies_ns
    for q in (50, 99):
        problem = support_problem(len(samples), q)
        if problem:
            problems.append(problem)
    if not samples:
        samples = [float("nan")]
    return {
        "sim_s_per_wall_s": statistics.median(
            [host_speed(*r) for r in reps]),
        "setup_s": statistics.median(
            [setup * REFERENCE_NOMINAL_S / reference
             for setup, reference in setups]),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops_ok_frac": ok_frac(rep),
        "op_p50_sim_us": percentile(samples, 50) / 1000.0,
        "op_p99_sim_us": percentile(samples, 99) / 1000.0,
        "goodput_ops_per_sim_s": (rep.ops_attempted - rep.ops_failed)
        / (rep.sim_ns / 1e9),
    }
