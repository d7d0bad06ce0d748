"""The benchmark's own tests: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

import run

run.import_program()

import layers  # noqa: E402
import measure  # noqa: E402
import summary  # noqa: E402
import workloads  # noqa: E402
from instrument import Census, patched  # noqa: E402
from repro.cxl import cache  # noqa: E402
from repro.scenarios.runner import AuditContext  # noqa: E402
from repro.sim import Simulator  # noqa: E402


def test_source_paths_map_to_layers():
    assert layers.layer_of("/x/src/repro/cxl/cache.py") == "cxl"
    assert layers.layer_of("/x/src/repro/sim/kernel.py") == "sim"
    assert layers.layer_of("/x/src/repro/health/overload.py") == "health"
    assert layers.layer_of(cache.__file__) == "cxl"
    # repro modules outside the layer list, stdlib, builtins: "other".
    assert layers.layer_of("/x/src/repro/analysis/costs.py") == "other"
    assert layers.layer_of("/x/src/repro/cli.py") == "other"
    assert layers.layer_of("/usr/lib/python3.11/heapq.py") == "other"
    assert layers.layer_of("~") == "other"
    assert layers.layer_of(run.__file__) == "bench"


def test_percentile_needs_ten_samples_beyond_it():
    assert summary.tail_support(1000, 99) == pytest.approx(10.0)
    assert summary.support_problem(1000, 99) is None
    assert "999 samples" in summary.support_problem(999, 99)
    assert summary.support_problem(20, 50) is None
    assert summary.support_problem(19, 50) is not None
    samples = list(np.random.default_rng(3).exponential(500.0, 1234))
    for q in (50, 99):
        assert summary.percentile(samples, q) == pytest.approx(
            float(np.percentile(samples, q)), rel=1e-12)


def _tiny_overload_doc(queue_limit: int) -> dict:
    """20 ms of the overload cell's arrivals, no storm, no expectations."""
    doc = workloads.load_runbook("overload")
    base = doc["base"]
    base.update(duration_ns=20e6, settle_ns=5e6, expect={})
    base["campaign"]["faults"] = []
    base["workloads"][0].update(duration_ns=20e6, queue_limit=queue_limit)
    return doc


class TinyOverload(workloads.Overload2x):
    name = "tiny-overload"
    expect = {}

    def prepare(self, seed):
        doc = _tiny_overload_doc(queue_limit=8)
        doc["base"]["expect"] = dict(self.expect)
        self.cell = workloads.pick_cell(doc, "load", "2x", seed)


def test_ops_accounting_on_a_tiny_cell():
    workload = TinyOverload()
    workload.prepare(17)
    results = []

    def keep(original):
        def run_cell(cell, label):
            results.append(original(cell, label=label))
            return results[-1]
        return run_cell

    with patched(workloads, "run_cell", keep), \
            Census(Simulator, AuditContext) as census:
        rep = workload.run_rep(census)
    summary_ = results[0].summary
    shed, errors = summary_["w0.vssd.shed"], summary_["w0.vssd.errors"]
    assert shed > 0, "the tiny cell must refuse some arrivals"
    assert rep.ops_attempted == summary_["w0.vssd.offered"]
    assert rep.ops_failed == shed + errors
    assert len(rep.latencies_ns) == summary_["w0.vssd.ok"]
    assert measure.ok_frac(rep) == pytest.approx(
        1.0 - (shed + errors) / summary_["w0.vssd.offered"])


def _run_tiny(expect, capsys):
    class Workload(TinyOverload):
        pass

    Workload.expect = expect
    code = run.main(["--workload", "tiny-overload", "--seconds", "0"],
                    registry={"tiny-overload": Workload})
    lines = capsys.readouterr().out.splitlines()
    return code, lines, json.loads(lines[-1])


def test_perturbed_expect_fails_the_command(capsys):
    code, lines, result = _run_tiny({"w0.vssd.ok": [">=", 1]}, capsys)
    assert not [line for line in lines if "FAIL runbook" in line]
    code, lines, result = _run_tiny({"w0.vssd.ok": [">=", 10**9]}, capsys)
    assert code == 1
    assert result["correct"] is False
    assert [line for line in lines
            if "FAIL runbook expect w0.vssd.ok >= 1000000000" in line]


def test_benchmark_json_matches_the_printed_metrics():
    path = os.path.join(run.ROOT, "BENCHMARK.json")
    with open(path) as fh:
        spec = json.load(fh)
    assert ({m["name"]: m["unit"] for m in spec["end_to_end"]}
            == measure.END_TO_END_UNITS)
    assert ({m["name"]: m["unit"] for m in spec["per_layer"]}
            == layers.PER_LAYER_UNITS)
    assert ({w["name"] for w in spec["workloads"]}
            == set(workloads.WORKLOADS))
