"""The traced run: where host time and simulated time go, layer by layer.

Four sources, all recorded from outside the program:

* sampled self time, grouped by ``src/repro/<module>/`` (a sampler, not
  ``cProfile``: cProfile slows the overload cell about sixfold, to some
  180 s for one traced rep on a 2-core VM, and shifts the shares toward
  call-heavy code);
* a wrapper on ``Simulator.schedule`` crediting each scheduled event to
  the first module up the call stack that is not the ``sim`` kernel
  (``timeout``, ``spawn``, ``succeed`` and ``fire_early`` all schedule
  through it; events the kernel's own loop schedules stay ``sim``'s);
* public counters of the objects the run built (``RpcEndpoint``,
  ``CpuCache``, ``CxlLink``, ``AimdWindow``) and ``obs.runtime.METRICS``;
* simulated-time phases from ``repro.obs.attribution`` over the spans
  of the repository's own tracer.
"""

from __future__ import annotations

import os
import re
import sys
import time

from instrument import every
from repro.channel.rpc import RpcEndpoint
from repro.cxl.cache import CpuCache
from repro.cxl.link import CxlLink
from repro.health.overload import AimdWindow
from repro.obs import names, runtime
from repro.obs.attribution import (PHASE_ADMISSION, PHASE_DEVICE,
                                   PHASE_LINK, PHASE_PACING,
                                   PHASE_QUEUEING, attribute_tracer)

#: ``src/repro/<module>/`` directories reported as layers.
LAYERS = ("sim", "channel", "cxl", "pcie", "datapath", "health",
          "orchestrator", "core", "faults", "scenarios", "obs")
#: Table rows: the layers, the benchmark's own code, and everything else
#: (stdlib, numpy, builtins, repro modules outside the layers).
ROWS = LAYERS + ("bench", "other")

_HERE = os.path.dirname(os.path.abspath(__file__))
_REPRO_MODULE = re.compile(r"[\\/]src[\\/]repro[\\/](\w+)[\\/]")
_KERNEL_LOOP = ("run", "step", "_drain")

#: Wall seconds between self-time samples.
SAMPLE_INTERVAL_S = 0.001

#: Attribution phase -> per-layer metric (mean sim us per op).
PHASE_METRICS = {
    PHASE_PACING: "health.pacing_sim_us",
    PHASE_ADMISSION: "datapath.admission_sim_us",
    PHASE_QUEUEING: "channel.queueing_sim_us",
    PHASE_LINK: "cxl.link_sim_us",
    PHASE_DEVICE: "pcie.device_sim_us",
}


def layer_of(filename: str) -> str:
    """The table row a source file's time and events are credited to."""
    match = _REPRO_MODULE.search(filename)
    if match:
        return match.group(1) if match.group(1) in LAYERS else "other"
    if os.path.dirname(os.path.abspath(filename)) == _HERE:
        return "bench"
    return "other"


class SelfTimeSampler:
    """Host seconds per row, sampled from the running Python frame.

    Every :data:`SAMPLE_INTERVAL_S` of wall time inside :meth:`sampling`
    the time since the previous sample is credited to the row of the
    frame the alarm interrupted, so the rows sum exactly to the sampled
    span.  Time spent in builtins and C extensions lands on the Python
    frame that called them.
    """

    def __init__(self):
        self.seconds = dict.fromkeys(ROWS, 0.0)
        self._codes: dict = {}
        self._last = 0.0

    def _on_alarm(self, frame) -> None:
        now = time.perf_counter()
        row = "other"
        if frame is not None:
            code = frame.f_code
            row = self._codes.get(code)
            if row is None:
                row = self._codes[code] = layer_of(code.co_filename)
        self.seconds[row] += now - self._last
        self._last = now

    def sampling(self):
        self._last = time.perf_counter()
        return every(SAMPLE_INTERVAL_S, self._on_alarm)


class EventCredit:
    """``Simulator.schedule`` wrapper counting events per calling layer."""

    def __init__(self):
        self.counts = dict.fromkeys(ROWS, 0)
        self._codes: dict = {}

    def _classify(self, code) -> tuple:
        layer = layer_of(code.co_filename)
        in_loop = (layer == "sim" and code.co_name in _KERNEL_LOOP
                   and code.co_filename.endswith("kernel.py"))
        return layer, in_loop

    def wrap(self, original):
        counts, codes, classify = self.counts, self._codes, self._classify

        def schedule(sim, event, delay=0.0):
            frame = sys._getframe(1)
            layer = "sim"
            while frame is not None:
                code = frame.f_code
                info = codes.get(code)
                if info is None:
                    info = codes[code] = classify(code)
                layer, in_loop = info
                if layer != "sim" or in_loop:
                    break
                frame = frame.f_back
            counts[layer] += 1
            return original(sim, event, delay)
        return schedule


def counters(census) -> dict:
    """Per-layer counters read from the objects one run built."""
    handled = census.total(RpcEndpoint, "messages_handled")
    empty = census.total(RpcEndpoint, "empty_polls")
    parks = census.total(RpcEndpoint, "parks")
    notify = census.total(RpcEndpoint, "notify_wakeups")
    hits = census.total(CpuCache, "hits")
    misses = census.total(CpuCache, "misses")
    return {
        "channel.rpc.calls": census.total(RpcEndpoint, "calls_sent"),
        "channel.rpc.messages_handled": handled,
        "channel.rpc.empty_polls": empty,
        "channel.rpc.parks": parks,
        "channel.rpc.notify_wakeups": notify,
        "channel.rpc.watchdog_wakeups": parks - notify,
        "channel.rpc.useful_poll_ratio": _ratio(handled, handled + empty),
        "channel.rpc.retries": census.total(RpcEndpoint, "retries"),
        "channel.rpc.gave_up": census.total(RpcEndpoint, "calls_gave_up"),
        "cxl.link.bytes_read": census.total(CxlLink, "bytes_read"),
        "cxl.link.bytes_written": census.total(CxlLink, "bytes_written"),
        "cxl.cache.hits": hits,
        "cxl.cache.misses": misses,
        "cxl.cache.hit_ratio": _ratio(hits, hits + misses),
        "health.paced_waits": census.total(AimdWindow, "paced_waits"),
        "scenarios.invariant_checks": runtime.METRICS.value(
            names.SCEN_INVARIANT_CHECKS),
    }


def phases(tracer) -> dict:
    """Mean simulated microseconds per attributed op, per phase."""
    breakdown = attribute_tracer(tracer, registry=False)
    n_ops = breakdown.n_ops
    return {metric: _ratio(breakdown.totals[phase], n_ops) / 1000.0
            for phase, metric in PHASE_METRICS.items()}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


#: Every per-layer metric the traced run prints, with its unit.
PER_LAYER_UNITS = {
    **{f"{row}.self_s": "s" for row in ROWS},
    **{f"{row}.events_scheduled": "count" for row in ROWS},
    "sim.events": "count",
    "sim.host_ns_per_event": "ns",
    "channel.rpc.calls": "count",
    "channel.rpc.messages_handled": "count",
    "channel.rpc.empty_polls": "count",
    "channel.rpc.parks": "count",
    "channel.rpc.notify_wakeups": "count",
    "channel.rpc.watchdog_wakeups": "count",
    "channel.rpc.useful_poll_ratio": "ratio",
    "channel.rpc.retries": "count",
    "channel.rpc.gave_up": "count",
    "cxl.link.bytes_read": "bytes",
    "cxl.link.bytes_written": "bytes",
    "cxl.cache.hits": "count",
    "cxl.cache.misses": "count",
    "cxl.cache.hit_ratio": "ratio",
    "health.paced_waits": "count",
    **{metric: "us" for metric in PHASE_METRICS.values()},
    "scenarios.invariant_checks": "count",
    "trace.total_self_s": "s",
    "trace.overhead_x": "ratio",
}
