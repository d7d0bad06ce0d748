"""Golden record: runbook cells and the paper-figure samples.

Each artifact below must reproduce a checked-in record bit for bit:

* the first cell of the ``overload``, ``gray`` and ``chaos`` runbooks
  (fixed seed): fault-log signature, the full scenario-summary dict,
  the final simulated ns, and an order-sensitive hash of every
  ledger's latency samples;
* Figure 4: ``run_pingpong()``'s default one-way samples, its
  ``events_processed`` and final simulated ns;
* Figure 3: the per-point RTT samples of a scaled UDP sweep (LOCAL and
  CXL server buffers, two payload sizes, a light and a heavy load).

A change meant to keep behaviour (a faster wait, a leaner event path,
another scheduler) must leave the record as it is; a change meant to
alter behaviour re-pins it in the same change and names the keys that
moved and why.

Re-pin (writes ``runbook_cells.json`` next to this file)::

    PYTHONPATH=src python -m tests.golden.test_runbook_golden
"""

import hashlib
import json
import struct
from pathlib import Path

import pytest

from repro.channel.pingpong import run_pingpong
from repro.datapath.placement import BufferPlacement
from repro.datapath.udpbench import UdpBenchConfig, run_udp_point
from repro.scenarios import load_runbook
from repro.scenarios import runner
from repro.scenarios.schema import builtin_runbooks

RECORD = Path(__file__).with_name("runbook_cells.json")
CELLS = ("overload", "gray", "chaos")
#: Scaled Figure 3 sweep (100 requests a point): payload B -> loads (Gbps).
FIG3_SWEEP = {1024: (2.0, 50.0), 4096: (10.0, 90.0)}


def samples_sha(samples, h=None) -> str:
    """Order-sensitive sha256 of float samples, exact to the bit."""
    h = h or hashlib.sha256()
    for value in samples:
        h.update(struct.pack("<d", float(value)))
    return h.hexdigest()


def latency_sha(ledgers) -> str:
    """Order-sensitive sha256 of every ledger's samples, exact to the bit."""
    h = hashlib.sha256()
    for label in sorted(ledgers):
        h.update(label.encode())
        samples_sha(ledgers[label].latencies, h)
    return h.hexdigest()


def cell_record(name: str) -> dict:
    """Run the runbook's first cell and return its golden record."""
    cell = load_runbook(builtin_runbooks()[name]).expand()[0]
    contexts = []

    class Capture(runner.AuditContext):
        def __init__(self, *args):
            super().__init__(*args)
            contexts.append(self)

    original = runner.AuditContext
    runner.AuditContext = Capture
    try:
        result = runner.run_cell(cell, label=f"golden-{name}")
    finally:
        runner.AuditContext = original
    ledgers = contexts[-1].ledgers
    return {
        "cell_id": result.cell_id,
        "ok": result.ok,
        "signature": result.signature,
        "sim_ns": repr(float(result.sim_ns)),
        "samples": sum(len(ledger.latencies) for ledger in ledgers.values()),
        "latency_sha": latency_sha(ledgers),
        "summary": result.summary,
    }


def fig4_record() -> dict:
    """Figure 4 ping-pong at its defaults."""
    result = run_pingpong()
    return {
        "samples": len(result.samples_ns),
        "samples_sha": samples_sha(result.samples_ns),
        "events_processed": result.events_processed,
        "sim_ns": repr(float(result.sim_ns)),
    }


def fig3_record() -> dict:
    """Scaled Figure 3 sweep: one RTT-sample digest per point."""
    points = {}
    for payload, loads in FIG3_SWEEP.items():
        for placement in BufferPlacement:
            config = UdpBenchConfig(payload_bytes=payload,
                                    placement=placement,
                                    n_requests=100, seed=11)
            for load in loads:
                key = f"{payload}B/{placement.name}/{load:g}G"
                points[key] = samples_sha(run_udp_point(config, load).rtts_ns)
    return points


def expected(key: str) -> dict:
    return json.loads(RECORD.read_text())[key]


@pytest.mark.slow
@pytest.mark.parametrize("name", CELLS)
def test_runbook_cell_matches_golden_record(name):
    pinned = expected(name)
    actual = json.loads(json.dumps(cell_record(name)))
    for key in ("cell_id", "ok", "signature", "sim_ns", "samples",
                "latency_sha"):
        assert actual[key] == pinned[key], key
    moved = {key: (pinned["summary"].get(key), value)
             for key, value in actual["summary"].items()
             if pinned["summary"].get(key) != value}
    missing = set(pinned["summary"]) - set(actual["summary"])
    assert not moved and not missing, (moved, missing)


def test_fig4_pingpong_matches_golden_record():
    assert fig4_record() == expected("fig4")


def test_fig3_sweep_matches_golden_record():
    assert fig3_record() == expected("fig3")


if __name__ == "__main__":
    record = {name: cell_record(name) for name in CELLS}
    record.update(fig4=fig4_record(), fig3=fig3_record())
    RECORD.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {RECORD}")
