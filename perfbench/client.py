"""Workload client: one process that runs one workload as a closed loop.

Started by run.py, never by hand.  The client imports bslsim from the
checkout (or, with ``--code baseline``, from the benchmark's frozen copy),
makes its inputs from the seed, runs one untimed warm-up task and notes the
moment it is ready, then, by --mode:

* ``setup``: exits (run.py times several set-ups and takes the median);
* ``e2e``: prints the ready line, then runs one task for each ``go`` line
  it reads on standard input, checks its outputs and prints its time.
  run.py alternates the tasks of a checkout client and a baseline client;
* ``trace``: runs untraced for half of --seconds, installs the tracer, runs
  traced for the other half, sweeps the size ladder and derives the per-layer
  metrics.

It prints one JSON object on its last line of standard output (in ``e2e``
mode, one per line: the ready line, each task, and the peak memory).
"""

from __future__ import annotations

import argparse
import ctypes
import json
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

from checkout import CheckoutError, import_bslsim

SELF_TIMED = (
    "graphstate.apply", "graphstate.gate_ctor", "graphstate.state_check",
    "graphstate.gate_check", "graphstate.covariance",
    "lattice.build_bsl", "lattice.ideal_graph", "lattice.schedule",
    "lattice.edge_summary", "lattice.to_dot", "lattice.canonical_wire",
    "nullifiers.phi_transform", "nullifiers.quadrature_nullifiers",
    "nullifiers.nullifier_variances", "nullifiers.ingest_samples",
    "nullifiers.sample_homodyne_dataset",
    "mbqc.run_program", "mbqc.measure_with_response", "mbqc.decouple_wires",
    "oracle.rotate", "oracle.squeeze", "oracle.beamsplitter", "oracle.x_shift",
    "oracle.moments", "oracle.project_q", "oracle.product", "oracle.fidelity",
    "identities.teleport_identity", "identities.teleport_circuit",
    "identities.cubic_device", "identities.commutation", "identities.run_cases",
    "cli.build_bsl", "cli.verify_nullifiers", "cli.run_program",
    "cli.sample_homodyne", "cli.verify_identities",
)
COUNTED = (
    "graphstate.apply", "graphstate.gate_ctor", "graphstate.covariance",
    "nullifiers.sample_homodyne_dataset", "mbqc.measure_with_response",
    "oracle.rotate", "oracle.squeeze", "oracle.beamsplitter", "oracle.x_shift",
    "oracle.moments", "oracle.project_q", "oracle.product", "oracle.fidelity",
)
SCALING = ("graphstate.apply", "lattice.build_bsl", "lattice.ideal_graph",
           "nullifiers.phi_transform", "mbqc.run_program", "mbqc.decouple_wires")
GRID = ("rotate", "squeeze", "beamsplitter", "moments")
#: counts read from the workload outputs and the tracer, besides span calls
WORK_COUNTS = {"graphstate.gate_ctor.bytes": "B", "nullifiers.csv_bytes": "B",
               "mbqc.events": "count", "oracle.fft.calls": "count",
               "oracle.fft.points": "count", "cli.bytes_written": "B"}

#: per-layer metrics: name -> (unit, better)
PER_LAYER = {
    **{f"{n}.calls": ("count", "lower") for n in COUNTED},
    **{f"{n}.self_s": ("s", "lower") for n in SELF_TIMED},
    **{n: (unit, "lower") for n, unit in WORK_COUNTS.items()},
    **{f"{n}.scaling_exp": ("1", "lower") for n in SCALING},
    **{f"oracle.{g}.p{p}_s": ("s", "lower") for g in GRID for p in (512, 1024)},
    "identities.run_cases.concurrency": ("1", "higher"),
    "tracing_overhead": ("1", "lower"),
}


def blas_threads():
    """Thread count of the OpenBLAS this numpy loaded, or None if unknown."""
    import numpy as np
    libs = Path(np.__file__).parent.parent.glob("numpy.libs/*openblas*")
    for path in libs:
        lib = ctypes.CDLL(str(path))
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            if hasattr(lib, name):
                return int(getattr(lib, name)())
    return None


def closed_loop(workload, seconds, tracer=None, min_tasks=1) -> dict:
    """Run tasks back to back for `seconds`; time, check and count each."""
    times, failures, counts = [], [], []
    start = time.perf_counter()
    while len(times) < min_tasks or time.perf_counter() - start < seconds:
        if tracer is not None:
            tracer.task = len(times)
        t0 = time.perf_counter()
        try:
            out = workload.run_task()
            times.append(time.perf_counter() - t0)
            problems = workload.check(out)
            counts.append(workload.counts(out))
        except Exception:  # a crashing task is a failed task, not a crash
            times.append(time.perf_counter() - t0)
            problems = [traceback.format_exc(limit=3)]
            counts.append({})
        if problems:
            failures.append(problems)
    if tracer is not None:
        tracer.task = None
    return {"times": times, "failures": failures, "counts": counts}


def layer_metrics(tracer, traced, untraced, ladder):
    """Per-task averages over the traced tasks, plus ladder metrics.

    Returns (metrics, report lines, problems); a problem is a work count that
    did not repeat exactly from one traced task to the next.
    """
    tasks = range(len(traced["times"]))
    n = len(tasks)
    spans = tracer.by_task()
    per_task = []
    for task in tasks:
        agg = spans[task]
        row = Counter({f"{name}.calls": r["calls"] for name, r in agg.items()})
        row["graphstate.gate_ctor.bytes"] = agg["graphstate.gate_ctor"]["value"]
        row["oracle.fft.calls"] = tracer.fft[task]["calls"]
        row["oracle.fft.points"] = tracer.fft[task]["points"]
        row.update(traced["counts"][task])
        per_task.append(row)
    problems = []
    if any(row != per_task[0] for row in per_task):
        problems.append("work counts differ between traced tasks")

    def total(name, key):
        return sum(spans[task][name][key] for task in tasks) / n

    metrics = {f"{name}.calls": total(name, "calls") for name in COUNTED}
    metrics.update({f"{name}.self_s": total(name, "self_s") for name in SELF_TIMED})
    metrics.update({name: per_task[0][name] for name in WORK_COUNTS})
    concurrency, cases = tracer.concurrency(set(tasks))
    metrics["identities.run_cases.concurrency"] = concurrency
    metrics["tracing_overhead"] = (statistics.median(traced["times"])
                                   / statistics.median(untraced["times"]))
    metrics.update(ladder)
    lines = [f"work counts per task: {dict(sorted(per_task[0].items()))}"]
    if cases:
        lines.append(f"run_cases concurrency base: {cases / n:g} cases per task "
                     "on 4 worker threads")
    return metrics, lines, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "e2e", "trace"), required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--code", choices=("checkout", "baseline"),
                        default="checkout")
    args = parser.parse_args(argv)
    try:
        bslsim = import_bslsim(args.code)
    except CheckoutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import workloads
    workload = workloads.WORKLOADS[args.workload](args.seed, args.workdir)
    warmup = closed_loop(workload, 0.0)
    result = {"ready": time.monotonic(), "warmup_failures": warmup["failures"],
              "why": workload.why, "item_unit": workload.item_unit,
              "items_per_task": workload.items_per_task,
              "blas_threads": blas_threads()}
    if args.mode == "e2e":
        print(json.dumps(result), flush=True)
        for line in sys.stdin:
            if line.strip() != "go":
                break
            print(json.dumps(closed_loop(workload, 0.0)), flush=True)
        result = {}
    elif args.mode == "trace":
        from ladder import sweep
        from tracer import Tracer
        untraced = closed_loop(workload, args.seconds / 2)
        tracer = Tracer()
        tracer.install(bslsim)
        traced = closed_loop(workload, args.seconds / 2, tracer, min_tasks=2)
        ladder, ladder_lines = sweep(tracer, workloads.wire_program)
        metrics, lines, problems = layer_metrics(tracer, traced, untraced, ladder)
        result.update(metrics=metrics, lines=lines + ladder_lines,
                      problems=problems, traced_tasks=len(traced["times"]),
                      failures=untraced["failures"] + traced["failures"],
                      times=untraced["times"] + traced["times"])
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
