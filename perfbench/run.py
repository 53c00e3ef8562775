"""bslsim benchmark: four closed-loop workloads, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload lattice --seed 1 --seconds 16 --trace 0

Each workload runs as a single client process (client.py) that sends its
next task only after the previous one completes.  With ``--trace 0`` the
command reports the end-to-end metrics, with ``--trace 1`` a separate traced
client reports the per-layer metrics and the tracing overhead.  Every task's
outputs are checked; a wrong output counts as a failed task and makes the
command exit 1.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

The end-to-end times are paired.  The host this runs on changes speed by up
to 1.5 times within seconds, by different amounts for different kinds of
work, so a raw time measures the host as much as the program.  Beside the
checkout's client runs a baseline client, which imports the benchmark's own
frozen copy of bslsim (``baseline/``) and runs the same tasks.  The two
alternate, task by task and set-up by set-up, so each checkout time has a
baseline time taken moments apart on the same kind of work.  The reported
time is the median checkout / baseline ratio times the baseline's time on
the reference host: the checkout's time at the reference host's speed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

from checkout import BASELINE, ROOT, SRC, CheckoutError, require_sources

#: checkout/baseline set-up pairs per run; setup_s uses their median ratio
SETUP_PAIRS = 7
#: every process a run starts must be done by then; a run must end within 180 s
DEADLINE_S = 170.0
P90_MIN_TASKS = 100
WORKLOADS = ("lattice", "measure", "witness", "identities")
#: BLAS threads for the clients unless the caller sets them: one thread is as
#: fast on the benchmark's matrix sizes and leaves the other cores to the
#: rest of the machine instead of spinning on them
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
#: the metrics of the final JSON line; the raw task_min_s, task_p50_s,
#: task_p90_s, items_per_s and fail_ratio are reported on the lines before it
END_TO_END = {"setup_s": "s", "task_p50_ref_s": "s", "peak_rss_mb": "MB"}
#: the baseline's set-up and median task times on the reference host (2-core
#: Intel Xeon VM, Python 3.11, numpy 2.4 with scipy-openblas 0.3.31 on one
#: thread) in its slower state, rounded; they only scale the paired ratios
#: into seconds, and must change only if the baseline is frozen anew
REFERENCE_HOST_S = {
    "lattice": {"setup": 0.70, "task": 0.40},
    "measure": {"setup": 0.55, "task": 0.16},
    "witness": {"setup": 1.30, "task": 0.80},
    "identities": {"setup": 0.90, "task": 0.48},
}
CODES = ("checkout", "baseline")


class ClientError(RuntimeError):
    """A client process failed, timed out or printed no result."""


def client_command(workload, seed, seconds, mode, workdir, code):
    return [sys.executable, str(Path(__file__).with_name("client.py")),
            "--workload", workload, "--seed", str(seed), "--seconds",
            str(seconds), "--mode", mode, "--workdir", str(workdir / code),
            "--code", code]


def run_client(workload, seed, seconds, mode, workdir, deadline,
               code="checkout") -> dict:
    """Start one client, wait for it, return its result and set-up time."""
    # CLOCK_MONOTONIC is system-wide, so the client's ready stamp compares
    # with this one
    start = time.monotonic()
    proc = subprocess.Popen(
        client_command(workload, seed, seconds, mode, workdir, code),
        stdout=subprocess.PIPE, cwd=ROOT, text=True,
        env={**THREAD_ENV, **os.environ})
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise ClientError(f"{mode} client for {workload} ran past the deadline")
    finally:
        if proc.poll() is None:     # timed out, or this process is stopping
            proc.kill()
            proc.communicate()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ClientError(f"{mode} client for {workload} exited {proc.returncode}")
    result = json.loads(lines[-1])
    result["setup_s"] = result["ready"] - start
    return result


class TaskClient:
    """An e2e client that runs one task each time ``task`` is called.

    Between tasks it waits on its standard input, using no CPU.  Starting
    one returns once it is ready; ``close`` returns its last result.  As a
    context manager it kills a client that is still running on the way out.
    """

    def __init__(self, workload, seed, workdir, deadline, code):
        self.name = f"e2e {code} client for {workload}"
        start = time.monotonic()
        self.proc = subprocess.Popen(
            client_command(workload, seed, 0, "e2e", workdir, code),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=ROOT, text=True,
            env={**THREAD_ENV, **os.environ})
        # a client that hangs is killed at the deadline, which ends the reads
        self.timer = threading.Timer(max(1.0, deadline - start), self.proc.kill)
        self.timer.daemon = True
        self.timer.start()
        try:
            self.ready = self._receive()
        except BaseException:
            self.__exit__()
            raise
        self.ready["setup_s"] = self.ready["ready"] - start

    def _receive(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise ClientError(f"{self.name} exited {self.proc.wait()}")
        try:
            return json.loads(line)
        except ValueError as exc:
            raise ClientError(f"{self.name} printed {line[:80]!r}") from exc

    def task(self) -> dict:
        try:
            self.proc.stdin.write("go\n")
            self.proc.stdin.flush()
        except OSError as exc:      # the client is gone
            raise ClientError(f"{self.name}: {exc}") from exc
        return self._receive()

    def close(self) -> dict:
        self.proc.stdin.close()
        result = self._receive()
        if self.proc.wait() != 0:
            raise ClientError(f"{self.name} exited {self.proc.returncode}")
        return result

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.timer.cancel()
        if self.proc.poll() is None:    # failed, or this process is stopping
            self.proc.kill()
        self.proc.wait()
        for pipe in (self.proc.stdin, self.proc.stdout):
            with contextlib.suppress(OSError):
                pipe.close()


def pair_order(i):
    """Checkout first on even pairs, baseline first on odd ones."""
    return CODES if i % 2 == 0 else CODES[::-1]


def paired_run(workload, seed, seconds, workdir, deadline) -> dict:
    """Time set-ups and tasks of the checkout and the baseline, alternately."""
    setups = {code: [] for code in CODES}
    for i in range(SETUP_PAIRS - 1):
        for code in pair_order(i):
            setups[code].append(run_client(workload, seed, 0, "setup", workdir,
                                           deadline, code))
    with contextlib.ExitStack() as stack:
        clients = {}
        for code in pair_order(SETUP_PAIRS - 1):
            clients[code] = stack.enter_context(
                TaskClient(workload, seed, workdir, deadline, code))
            setups[code].append(clients[code].ready)
        tasks = {code: [] for code in CODES}
        end = time.monotonic() + seconds
        i = 0
        while i < 1 or time.monotonic() < end:
            for code in pair_order(i):
                tasks[code].append(clients[code].task())
            i += 1
        last = {code: client.close() for code, client in clients.items()}
    return {"setups": setups, "tasks": tasks, "last": last}


def end_to_end(workload, seed, seconds, workdir, deadline, report):
    run = paired_run(workload, seed, seconds, workdir, deadline)
    setups, tasks = run["setups"], run["tasks"]
    main = setups["checkout"][-1]
    report(f"why: {main['why']}")
    times = {code: [t["times"][0] for t in tasks[code]] for code in CODES}
    ratios = [a / b for a, b in zip(times["checkout"], times["baseline"])]
    setup_ratios = [a["setup_s"] / b["setup_s"]
                    for a, b in zip(setups["checkout"], setups["baseline"])]
    reference = REFERENCE_HOST_S[workload]
    setup_s = statistics.median(setup_ratios) * reference["setup"]
    task_p50_ref_s = statistics.median(ratios) * reference["task"]

    def failures_of(code):
        return ([f for s in setups[code] for f in s["warmup_failures"]]
                + [f for t in tasks[code] for f in t["failures"]])

    failures = failures_of("checkout")
    # the frozen baseline passes every gate, so a failure there is the
    # benchmark's or the host's fault, not the checkout's
    problems = [f"baseline task failed: {'; '.join(f)}"
                for f in failures_of("baseline")]
    report(f"setup_s {setup_s:.6g} s at reference speed (median checkout/"
           f"baseline ratio {statistics.median(setup_ratios):.4g} of "
           f"{len(setup_ratios)} pairs x {reference['setup']} s)")
    for code in CODES:
        report(f"raw set-up {code}: " + ", ".join(f"{s['setup_s']:.4g}"
                                                   for s in setups[code]) + " s")
    report(f"task_p50_ref_s {task_p50_ref_s:.6g} s at reference speed (median "
           f"checkout/baseline ratio {statistics.median(ratios):.4g} of "
           f"{len(ratios)} task pairs x {reference['task']} s)")
    own = times["checkout"]
    items = len(own) * main["items_per_task"]
    busy = sum(own)
    report(f"task_min_s {min(own):.6g} s (raw, fastest of n={len(own)} tasks)")
    report(f"task_p50_s {statistics.median(own):.6g} s (raw, n={len(own)} tasks; "
           f"baseline {statistics.median(times['baseline']):.6g} s)")
    if len(own) >= P90_MIN_TASKS:
        p90 = statistics.quantiles(own, n=10)[-1]
        report(f"task_p90_s {p90:.6g} s (raw, n={len(own)} tasks)")
    else:
        report(f"task_p90_s omitted: {len(own)} tasks < {P90_MIN_TASKS}, "
               "so fewer than ten samples would lie beyond it")
    report(f"items_per_s {items / busy:.6g} 1/s (raw, {items} "
           f"{main['item_unit']} in {busy:.4g} s of tasks)")
    peak_rss_mb = run["last"]["checkout"]["peak_rss_mb"]
    report(f"peak_rss_mb {peak_rss_mb:.6g} MB (checkout client process, getrusage)")
    return {
        "metrics": {"setup_s": setup_s, "task_p50_ref_s": task_p50_ref_s,
                    "peak_rss_mb": peak_rss_mb},
        # every checkout client ran one warm-up task before the timed ones
        "attempted": len(own) + len(setups["checkout"]),
        "failures": failures,
        "problems": problems,
        "timed": {"tasks": len(own), "task_seconds": busy,
                  "baseline_tasks": len(times["baseline"]),
                  "baseline_task_seconds": sum(times["baseline"]),
                  "blas_threads": main["blas_threads"]},
    }


def sources_sha256(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((src / "bslsim").rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(seed) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        commit = git.stdout.strip() or None
    return {
        "bslsim_commit": commit,
        "bslsim_sources_sha256": sources_sha256(SRC),
        "baseline_sources_sha256": sources_sha256(BASELINE),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def traced(workload, seed, seconds, workdir, deadline, report):
    from client import PER_LAYER
    result = run_client(workload, seed, seconds, "trace", workdir, deadline)
    report(f"why: {result['why']}")
    for line in result["lines"]:
        report(line)
    metrics = result["metrics"]
    if set(metrics) != set(PER_LAYER):
        raise ClientError("traced client reported another metric set: "
                          f"{sorted(set(metrics) ^ set(PER_LAYER))}")
    report(f"tracing_overhead {metrics['tracing_overhead']:.4g} "
           "(traced task_p50_s / untraced task_p50_s)")
    return {
        "metrics": metrics,
        "attempted": len(result["times"]) + 1,
        "failures": result["warmup_failures"] + result["failures"],
        "problems": result["problems"],
        "timed": {"tasks": len(result["times"]), "task_seconds": sum(result["times"]),
                  "traced_tasks": result["traced_tasks"],
                  "blas_threads": result["blas_threads"]},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so that the client is stopped and the work dir removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        require_sources()
    except CheckoutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    for code in CODES:
        (workdir / code).mkdir(parents=True)

    def report(line):
        print(f"[{args.workload}] {line}", flush=True)

    try:
        measure = traced if args.trace else end_to_end
        run = measure(args.workload, args.seed, args.seconds, workdir, deadline,
                      report)
    except ClientError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):   # other runs may still use it
            workdir.parent.rmdir()
    failures, problems, attempted = run["failures"], run["problems"], run["attempted"]
    report(f"fail_ratio {len(failures) / attempted:.6g} ({len(failures)} of "
           f"{attempted} tasks failed, warm-up tasks included)")
    report(f"provenance {json.dumps({**provenance(args.seed), **run['timed']})}")
    for task_problems in failures[:3]:
        print("failed task: " + "; ".join(task_problems), file=sys.stderr)
    for problem in problems:
        print(f"error: {problem}", file=sys.stderr)
    if args.trace:
        from client import PER_LAYER
        units = {name: unit for name, (unit, _) in PER_LAYER.items()}
    else:
        units = END_TO_END
    print(json.dumps({
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in run["metrics"].items()},
    }))
    return 1 if failures or problems else 0


if __name__ == "__main__":
    sys.exit(main())
