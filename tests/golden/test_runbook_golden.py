"""Golden record for the vSSD runbook cells.

The first cell of the ``overload`` and ``gray`` runbooks (fixed seed)
must reproduce a checked-in record bit for bit: fault-log signature,
the full scenario-summary dict, the final simulated ns, and an
order-sensitive hash of every ledger's latency samples.  A change meant
to keep behaviour (a faster wait, a leaner event path) must leave the
record as it is; a change meant to alter behaviour re-pins it in the
same change and names the keys that moved and why.

Re-pin (writes ``runbook_cells.json`` next to this file)::

    PYTHONPATH=src python -m tests.golden.test_runbook_golden
"""

import hashlib
import json
import struct
from pathlib import Path

import pytest

from repro.scenarios import load_runbook
from repro.scenarios import runner
from repro.scenarios.schema import builtin_runbooks

RECORD = Path(__file__).with_name("runbook_cells.json")
CELLS = ("overload", "gray")


def latency_sha(ledgers) -> str:
    """Order-sensitive sha256 of every ledger's samples, exact to the bit."""
    h = hashlib.sha256()
    for label in sorted(ledgers):
        h.update(label.encode())
        for value in ledgers[label].latencies:
            h.update(struct.pack("<d", float(value)))
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


@pytest.mark.slow
@pytest.mark.parametrize("name", CELLS)
def test_runbook_cell_matches_golden_record(name):
    expected = json.loads(RECORD.read_text())[name]
    actual = json.loads(json.dumps(cell_record(name)))
    for key in ("cell_id", "ok", "signature", "sim_ns", "samples",
                "latency_sha"):
        assert actual[key] == expected[key], key
    moved = {key: (expected["summary"].get(key), value)
             for key, value in actual["summary"].items()
             if expected["summary"].get(key) != value}
    missing = set(expected["summary"]) - set(actual["summary"])
    assert not moved and not missing, (moved, missing)


if __name__ == "__main__":
    RECORD.write_text(json.dumps({name: cell_record(name) for name in CELLS},
                                 indent=1, sort_keys=True) + "\n")
    print(f"wrote {RECORD}")
