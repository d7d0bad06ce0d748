"""The benchmark's four workloads, each one whole simulation per rep.

Every workload builds its inputs from the seed alone and runs the
repository's own harness for it (``run_pingpong``, ``run_udp_point``,
``run_cell``); what the harness does not return is read from public
objects it built (see :mod:`instrument`).  ``run_rep`` is called again
and again with the same seed and must return the same :class:`Rep`.

README.md says why each workload was chosen.
"""

from __future__ import annotations

import dataclasses
import json
import math
import random
import struct
from dataclasses import dataclass, field

import numpy as np

from instrument import patched
from repro.channel.pingpong import run_pingpong
from repro.channel.rpc import RpcEndpoint
from repro.cxl.params import DEFAULT_TIMINGS
from repro.datapath.netstack import UdpSocket
from repro.datapath.placement import BufferPlacement
from repro.datapath.udpbench import (CLIENT_PORT, UdpBenchConfig,
                                     run_udp_point)
from repro.faults import ChaosCampaign
from repro.scenarios import builtin_runbooks, run_cell, runbook_from_dict
from repro.scenarios.runner import AuditContext
from repro.sim import Simulator


@dataclass
class Rep:
    """What one simulation produced, in simulated units."""

    sim_ns: float
    ops_attempted: int
    ops_failed: int
    latencies_ns: list
    signature: str = ""
    #: Wrong outputs; any entry fails the benchmark run.
    problems: list = field(default_factory=list)
    #: Workload-specific figures printed beside the metrics:
    #: name -> (value, unit, note).
    shown: dict = field(default_factory=dict)


def load_runbook(name: str) -> dict:
    return json.loads(builtin_runbooks()[name].read_text())


def pick_cell(doc: dict, axis: str, value: str, seed: int):
    runbook = runbook_from_dict(doc)
    [cell] = [c for c in runbook.expand(seeds=[seed])
              if c.axes == {axis: value}]
    return cell


def cell_problems(result) -> list:
    return ([f"invariant {v}" for v in result.violations]
            + [f"runbook {e}" for e in result.expect_failures]
            + ([f"cell error {result.error}"] if result.error else []))


class Fig4Ring:
    """Figure 4: closed-loop ping-pong over the CXL ring, one client."""

    name = "fig4-ring"
    default_seed = 0
    n_messages = 2000
    notes = {"op_p50_sim_us": "paper Fig 4: median ~0.6 us"}

    def prepare(self, seed: int) -> None:
        self.seed = seed

    def run_rep(self, census) -> Rep:
        result = run_pingpong(n_messages=self.n_messages, seed=self.seed)
        samples = [float(x) for x in result.samples_ns]
        floor = DEFAULT_TIMINGS.message_floor_ns
        low, med = min(samples), result.median_ns
        problems = []
        if not 450.0 <= med <= 700.0:
            problems.append(f"fig4 median {med:.1f} ns outside 450-700 ns")
        if not floor <= low <= 1.5 * floor:
            problems.append(f"fig4 minimum {low:.1f} ns not within "
                            f"[floor, 1.5 floor] = [{floor:.0f}, "
                            f"{1.5 * floor:.0f}] ns")
        if result.percentile(99) >= 1000.0:
            problems.append("fig4 p99 is not sub-microsecond")
        return Rep(sim_ns=result.sim_ns, ops_attempted=self.n_messages,
                   ops_failed=self.n_messages - len(samples),
                   latencies_ns=samples, problems=problems,
                   shown={"message_floor": (floor / 1000.0, "us",
                                            "1 CXL write + 1 CXL read")})


#: Request header of ``repro.datapath.udpbench``: id (u32), pad (u32),
#: send timestamp (f64).
_UDP_REQUEST = struct.Struct("<IId")


def _client_rtt_recorder(rtts: list):
    """Wrap ``UdpSocket.recv`` to log each echo's RTT on the client port.

    Computes exactly what ``run_udp_point`` computes for its own
    percentiles, which only reach the caller as summaries.
    """
    def make(original):
        def recv(sock):
            item = yield from original(sock)
            if sock.port == CLIENT_PORT:
                _rid, _pad, sent_at = _UDP_REQUEST.unpack_from(item[0], 0)
                rtts.append(sock.stack.sim.now - sent_at)
            return item
        return recv
    return make


class Fig3Udp:
    """Figure 3: open-loop UDP echo, LOCAL vs CXL server buffers."""

    name = "fig3-udp"
    default_seed = 11
    #: The sweep of ``benchmarks/test_fig3_udp.py``: payload -> loads (Gbps).
    sweeps = {1024: (2.0, 10.0, 25.0, 50.0), 4096: (10.0, 30.0, 60.0, 90.0)}
    n_requests = 100

    def prepare(self, seed: int) -> None:
        self.seed = seed

    def point_seed(self, index: int) -> int:
        """Arrival seed of the ``index``-th (payload, load) pair.

        LOCAL and CXL share it, so each comparison sees the same
        arrivals; the pairs draw apart, so the sweep's simulated length
        does not hang on one arrival sequence.
        """
        return self.seed * 100 + index

    def run_rep(self, census) -> Rep:
        rtts: list = []
        curves = {}
        points = []
        with patched(UdpSocket, "recv", _client_rtt_recorder(rtts)):
            pairs = [(payload, load) for payload, loads in self.sweeps.items()
                     for load in loads]
            for placement in BufferPlacement:
                for index, (payload, load) in enumerate(pairs):
                    config = UdpBenchConfig(
                        payload_bytes=payload, placement=placement,
                        n_requests=self.n_requests,
                        seed=self.point_seed(index))
                    start = len(rtts)
                    point = run_udp_point(config, load)
                    points.append((point, rtts[start:]))
                    curves.setdefault((payload, placement), []).append(point)
        problems = [f"fig3 RTT capture disagrees at {p.offered_gbps} Gbps"
                    for p, mine in points
                    if len(mine) != p.completed
                    or float(np.percentile(mine, 50)) != p.rtt_p50_ns]
        overheads, ratios = [], []
        for payload in self.sweeps:
            local = curves[payload, BufferPlacement.LOCAL]
            cxl = curves[payload, BufferPlacement.CXL]
            overheads.append(cxl[0].rtt_p50_ns / local[0].rtt_p50_ns - 1.0)
            ratios.append(cxl[-1].achieved_gbps / local[-1].achieved_gbps)
            if overheads[-1] >= 0.12:
                problems.append(f"fig3 {payload} B: CXL p50 RTT overhead "
                                f"{overheads[-1]:.1%} at lowest load >= 12%")
            if ratios[-1] < 0.88:
                problems.append(f"fig3 {payload} B: CXL Gbps {ratios[-1]:.1%}"
                                f" of LOCAL at highest load < 88%")
        offered = sum(p.offered_requests for p, _ in points)
        completed = sum(p.completed for p, _ in points)
        return Rep(
            sim_ns=sum(sim.now for sim in census[Simulator]),
            ops_attempted=offered, ops_failed=offered - completed,
            latencies_ns=rtts, problems=problems,
            shown={"cxl_rtt_overhead": (max(overheads), "ratio",
                                        "paper: within a few %"),
                   "cxl_gbps_ratio": (min(ratios), "ratio",
                                      "paper: saturation unchanged")})


def _drawn_campaign(cell) -> list:
    """The fault list a cell's chaos campaign draws, as runbook dicts.

    Runs the cell only up to the draw: ``ChaosCampaign.schedule`` is the
    first thing after bring-up that needs the campaign stream.
    """
    drawn: list = []

    class Drawn(BaseException):
        pass

    def make(original):
        def schedule(campaign):
            drawn.extend(original(campaign))
            raise Drawn
        return schedule

    with patched(ChaosCampaign, "schedule", make):
        try:
            run_cell(cell, label="perfbench-draw")
        except Drawn:
            pass
    return [{"kind": type(f).__name__, **dataclasses.asdict(f)}
            for f in drawn]


def _rpc_call_timer(latencies: list):
    """Wrap ``RpcEndpoint.call``: sim ns from call to matched reply."""
    def make(original):
        def call(endpoint, message, timeout_ns=None, parent=None):
            start = endpoint.sim.now
            reply = yield from original(endpoint, message, timeout_ns,
                                        parent)
            latencies.append(endpoint.sim.now - start)
            return reply
        return call
    return make


class ChaosLambda1:
    """The ``chaos`` runbook cell ``lambda=1``: 10 sim-s of control plane."""

    name = "chaos-lambda1"
    default_seed = 11
    #: The runbook's pinned seed: the fault campaign it draws is the
    #: workload's input whatever the benchmark seed.
    campaign_seed = 11
    #: The benchmark seed draws the control-plane tick within this share
    #: of the cell's 200 us.  RPC latency follows the tick, so without it
    #: every seed would report the same latencies.
    tick_jitter = 0.01

    def prepare(self, seed: int) -> None:
        doc = load_runbook("chaos")
        faults = _drawn_campaign(
            pick_cell(doc, "lambda", "1", self.campaign_seed))
        base = doc["base"]
        base["campaign"]["config"] = {count: 0 for count in _CAMPAIGN_COUNTS}
        base["campaign"]["faults"] = faults
        base["pod"]["ctl_poll_ns"] *= 1.0 + random.Random(seed).uniform(
            -self.tick_jitter, self.tick_jitter)
        self.cell = pick_cell(doc, "lambda", "1", seed)

    def run_rep(self, census) -> Rep:
        latencies: list = []
        with patched(RpcEndpoint, "call", _rpc_call_timer(latencies)):
            result = run_cell(self.cell, label="chaos")
        endpoints = census[RpcEndpoint]
        ledgers = census[AuditContext][-1].ledgers.values()
        sent = sum(len(ledger.sent) for ledger in ledgers)
        received = sum(len(ledger.received) for ledger in ledgers)
        attempted = sum(e.calls_sent for e in endpoints) + sent
        failed = sum(e.calls_gave_up for e in endpoints) + sent - received
        return Rep(sim_ns=result.sim_ns, ops_attempted=attempted,
                   ops_failed=failed, latencies_ns=latencies,
                   signature=result.signature,
                   problems=cell_problems(result))


#: ChaosConfig counts; unset ones fall back to non-zero defaults.
_CAMPAIGN_COUNTS = (
    "device_flaps", "link_flaps", "agent_crashes", "orchestrator_restarts",
    "mhd_crashes", "mhd_degrades", "mem_poisons", "host_partitions",
    "lease_expires", "mhd_slows", "link_degrades", "agent_stalls",
    "overload_storms")


class Overload2x:
    """The ``overload`` runbook cell ``load=2x``, open loop, shortened."""

    name = "overload-2x"
    default_seed = 17
    #: Arrival window (sim ms).  The runbook's is 600; 400 keeps the
    #: 100-250 ms OverloadStorm inside it and over 1000 completed writes,
    #: enough for a p99.
    duration_ms = 400.0
    runbook_duration_ms = 600.0
    #: The seed draws the offered rate within this share of the cell's
    #: 5000/s.  Arrivals are evenly spaced and the SSD has no random
    #: service time, so without it every seed would replay one run.
    rate_jitter = 0.01

    def prepare(self, seed: int) -> None:
        doc = load_runbook("overload")
        base = doc["base"]
        duration_ns = self.duration_ms * 1e6
        base["duration_ns"] = duration_ns
        arrivals = base["workloads"][0]
        arrivals["duration_ns"] = duration_ns
        arrivals["rate_per_s"] *= 1.0 + random.Random(seed).uniform(
            -self.rate_jitter, self.rate_jitter)
        # Completed writes scale with the arrival window.
        op, floor = base["expect"]["w0.vssd.ok"]
        base["expect"]["w0.vssd.ok"] = [op, math.ceil(
            floor * self.duration_ms / self.runbook_duration_ms)]
        self.cell = pick_cell(doc, "load", "2x", seed)

    def run_rep(self, census) -> Rep:
        result = run_cell(self.cell, label="overload")
        ledger = census[AuditContext][-1].ledgers["w0.vssd"]
        return Rep(sim_ns=result.sim_ns, ops_attempted=ledger.offered,
                   ops_failed=ledger.shed + ledger.errors,
                   latencies_ns=list(ledger.latencies),
                   signature=result.signature,
                   problems=cell_problems(result))


WORKLOADS = {w.name: w for w in (Overload2x, ChaosLambda1, Fig3Udp,
                                  Fig4Ring)}
