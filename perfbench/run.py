"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload fig4-ring --seed 0 --seconds 10 --trace 0

Run from the root of a checkout: the program is imported from its
``src/``.  ``--trace 0`` repeats the workload untraced for ``--seconds``
and prints the end-to-end metrics; ``--trace 1`` runs it once untraced
and once traced and prints the per-layer metrics.  The last line of
standard output is one JSON object; the exit status is 0 only when every
output check passed.  README.md documents the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Set-up-only builds per ``--trace 0`` run, on top of the reps.
SETUP_PROBES = 21


def import_program() -> None:
    """Put the checkout's ``src/`` first on the path, or exit non-zero."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SystemExit(f"perfbench: no program source under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import repro
    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, "
                         f"not from {SRC}")


def parse_args(argv, names):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(names))
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="host seconds of untraced reps to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None, registry=None) -> int:
    import_program()
    import layers
    import measure
    import summary
    from repro.sim import Simulator
    from workloads import WORKLOADS

    registry = registry or WORKLOADS
    args = parse_args(argv, registry)
    workload = registry[args.workload]()
    seed = workload.default_seed if args.seed is None else args.seed
    workload.prepare(seed)

    run_problems = []
    record = {"workload": workload.name, "seed": seed, "trace": args.trace,
              "commit": summary.commit(ROOT), "machine": summary.machine()}
    if args.trace == 0:
        setups = []
        for _ in range(SETUP_PROBES):
            setups.extend(measure.setup_probe(workload))
        reps = []
        deadline = time.perf_counter() + args.seconds
        while not reps or time.perf_counter() < deadline:
            rep, wall, reference, rep_setups, _census = \
                measure.untraced_rep(workload)
            reps.append((rep, wall, reference))
            setups.extend(rep_setups)
        runs = [rep for rep, _wall, _reference in reps]
        units = measure.END_TO_END_UNITS
        metrics = measure.end_to_end(reps, setups, run_problems)
        record["tracing_overhead"] = "measured by --trace 1"
        record["rep_wall_s"] = [wall for _rep, wall, _ref in reps]
        record["rep_reference_s"] = [ref for _rep, _wall, ref in reps]
    else:
        untraced, wall, _ref, _setups, census = measure.untraced_rep(
            workload)
        traced, traced_wall, metrics = measure.traced_rep(workload)
        runs = [untraced, traced]
        units = layers.PER_LAYER_UNITS
        events = sum(sim.events_processed for sim in census[Simulator])
        metrics["sim.events"] = events
        metrics["sim.host_ns_per_event"] = wall * 1e9 / events
        metrics["trace.overhead_x"] = traced_wall / wall
        record["tracing_overhead"] = metrics["trace.overhead_x"]
    digests = [summary.digest(rep.signature, rep.latencies_ns, rep.sim_ns)
               for rep in runs]
    if any(d != digests[0] for d in digests):
        run_problems.append("reps of one seed disagree (traced vs "
                            "untraced, or run to run): "
                            + json.dumps(digests))
    problems = list(run_problems)
    for rep in runs:
        problems.extend(p for p in rep.problems if p not in problems)
    record.update(reps=len(runs), digest=digests[0],
                  ops={"attempted": runs[0].ops_attempted,
                       "failed_or_refused": runs[0].ops_failed})

    samples = len(runs[0].latencies_ns)
    print(f"perfbench {workload.name} seed={seed} trace={args.trace} "
          f"reps={len(runs)}")
    notes = getattr(workload, "notes", {})
    for name, unit in units.items():
        print(f"  {name:<32} {metrics[name]:>16.6g} {unit:<6} "
              f"{notes.get(name, '')}".rstrip())
    for name, (value, unit, note) in runs[0].shown.items():
        print(f"  {name:<32} {value:>16.6g} {unit:<6} {note}")
    print(f"  latency samples {samples} "
          f"({summary.tail_support(samples, 99):g} beyond the p99)")
    for problem in problems:
        print(f"  FAIL {problem}")
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": not problems,
        "attempted": len(runs),
        "failed": len(runs) if run_problems
        else sum(1 for rep in runs if rep.problems),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
