"""The four closed-loop workloads of the bslsim benchmark.

Each workload turns the seed into its input files once, then runs the same
task again and again.  A task goes through ``bslsim.cli.main(argv)``, or the
public library function where no subcommand exists, and its outputs are
checked against ``reference.json`` by gates that hold at every seed.

``bslsim`` must be importable before this module is imported; the caller puts
the checkout's ``src`` directory on ``sys.path``.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import numpy as np

# modules, not names: the traced run swaps the functions inside them
from bslsim import cli, lattice, nullifiers

REFERENCE = json.loads((Path(__file__).parent / "reference.json").read_text())

# Tasks are kept short (0.1 to 0.8 s) so that a run holds many checkout /
# baseline task pairs, each pair timed within about a second.
LATTICE = (3, 3)
WIRE_SITES = 32
WIRE_R = 5.0
WIRE_INPUT = {"n": 1, "Z_re": [[0.2]], "Z_im": [[0.8]], "mean": [0.3, -0.2]}
WITNESS_LATTICE = (2, 2)
WITNESS_SHOTS = 10_000
#: a sampled nullifier variance may sit this many sampling sigmas from the
#: analytic value; 32 rows at 6 sigma give a false alarm rate below 1e-7
WITNESS_SIGMAS = 6.0
IDENTITY_SUITES = ("M", "L", "commutation")
IDENTITY_GRID = (12.0, 256)      # half extent L, points per mode
CASES_PER_TASK = 8


def run_cli(argv):
    """bslsim.cli.main with its output captured; returns (code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


def wire_program(sites: int) -> dict:
    """Measurement program on a dual-rail wire of `sites` macronodes.

    Every fourth site below sites - 4 runs a chi = 0 cubic step (ancilla
    injection, beamsplitter, three measurements); every other site except the
    last is measured as a q(theta) pair.  The angles are fixed, so the final
    graph and the outcome-independent part of the mean do not depend on the
    seed; at 32 sites the program records 69 events.
    """
    steps = []
    for k in range(sites - 1):
        if k % 4 == 2 and k < sites - 4:
            steps.append({"time_index": k, "detector": "x",
                          "basis": {"cubic": {"chi": 0.0,
                                              "sigma": 0.2 + 0.1 * (k % 3)}}})
        else:
            steps.append({"time_index": k, "detector": "x",
                          "basis": {"theta": 0.3 + 0.05 * (k % 5)}})
            steps.append({"time_index": k, "detector": "a",
                          "basis": {"theta": -0.4 + 0.07 * (k % 4)}})
    return {"resource": {"kind": "wire", "macronodes": sites, "r": WIRE_R,
                         "input": WIRE_INPUT},
            "steps": steps}


def identity_case_pool() -> list[dict]:
    """Cubic-device (L) cases the seed draws from; reference.json holds the
    fidelity of each, by position."""
    return [{"identity": "L", "chi": chi, "sigma": sigma,
             "outcomes": list(outcomes), "r": 4.0}
            for chi in (0.05, 0.1, 0.15, 0.2)
            for sigma in (0.2, 0.3, 0.4)
            for outcomes in ((0.1, -0.2, 0.4), (-0.3, 0.2, 0.1))]


def program_events(program: dict) -> int:
    """Measurement events a program records: three per cubic step."""
    return sum(3 if "cubic" in step["basis"] else 1 for step in program["steps"])


def _max_dev(a, b) -> float:
    return float(np.abs(np.asarray(a) - np.asarray(b)).max())


class Workload:
    """One input set made from the seed, one task, one output check."""

    name = ""
    why = ""
    item_unit = ""
    items_per_task = 0

    def __init__(self, seed: int, workdir: Path):
        self.rng = np.random.default_rng(seed)
        self.dir = Path(workdir)

    def run_task(self) -> dict:
        """Run one task; returns its raw outputs for `check`."""
        raise NotImplementedError

    def check(self, out: dict) -> list[str]:
        """Problems with one task's outputs; empty when the task is correct."""
        raise NotImplementedError

    def counts(self, out: dict) -> dict:
        """Work counts read from one task's outputs (must repeat exactly)."""
        return {}

    def _codes(self, out: dict) -> list[str]:
        return [f"{cmd} exited {res[0]}: {(res[2] or res[1]).strip()[-200:]}"
                for cmd, res in out.items()
                if isinstance(res, tuple) and res[0] != 0]


class LatticeWorkload(Workload):
    name = "lattice"
    why = ("dense O(n^3)-per-gate graph updates: apply, the dense gate each "
           "constructor builds, the state checks, ideal_graph and phi_transform")
    item_unit = "lattice modes built and verified"
    items_per_task = 4 * LATTICE[0] * LATTICE[1]

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.r = round(float(self.rng.uniform(0.8, 1.2)), 6)
        self.out = self.dir / "bsl"
        self.size = f"{LATTICE[0]},{LATTICE[1]}"

    def run_task(self):
        return {
            "build-bsl": run_cli(["build-bsl", "--lattice", self.size,
                                  "-r", self.r, "--out", self.out]),
            "verify-nullifiers": run_cli(["verify-nullifiers", "--lattice",
                                          self.size, "--squeezing", self.r]),
        }

    def check(self, out):
        errors = self._codes(out)
        if errors:
            return errors
        if "analytic witness pass" not in out["verify-nullifiers"][1]:
            errors.append("analytic witness did not pass")
        payload = json.loads(self.out.with_suffix(".json").read_text())
        v_ref = np.array(REFERENCE["lattice"]["V"])
        n = v_ref.shape[0]
        z = np.array(payload["graph"]["Z_re"]) + 1j * np.array(payload["graph"]["Z_im"])
        # Z = i sech(2r) I + tanh(2r) V holds exactly for the interferometer
        z_ref = 1j / np.cosh(2 * self.r) * np.eye(n) + np.tanh(2 * self.r) * v_ref
        if z.shape != z_ref.shape or _max_dev(z, z_ref) > 1e-8:
            errors.append("graph Z differs from the reference by more than 1e-8")
        v = np.array(payload["ideal_graph"])
        if v.shape != v_ref.shape or _max_dev(v, v_ref) > 1e-8:
            errors.append("ideal graph V differs from the reference by more than 1e-8")
        return errors

    def counts(self, out):
        return {"cli.bytes_written": sum(
            self.out.with_suffix(s).stat().st_size for s in (".json", ".dot"))}


class MeasureWorkload(Workload):
    name = "measure"
    why = ("conditions and shrinks the state instead of growing it: "
           "measure_with_response, covariance and the outcome Jacobian of "
           "run_program; bypasses the lattice builder")
    item_unit = "measurement events"
    items_per_task = program_events(wire_program(WIRE_SITES))

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        program = wire_program(WIRE_SITES)
        # a quarter of the steps carry forced outcomes drawn from the seed
        for step in program["steps"]:
            if self.rng.random() < 0.25:
                n = 3 if "cubic" in step["basis"] else 1
                vals = [round(float(x), 6) for x in self.rng.normal(0.0, 1.0, n)]
                step["outcome"] = vals if n == 3 else vals[0]
        self.program = self.dir / "program.json"
        self.program.write_text(json.dumps(program))
        self.forced = {(s["time_index"], s["detector"]): s["outcome"]
                       for s in program["steps"] if "outcome" in s}
        self.run_seed = int(self.rng.integers(2 ** 31))
        self.record = self.dir / "record.json"

    def run_task(self):
        return {"run-program": run_cli(["run-program", self.program, "--seed",
                                        self.run_seed, "--out", self.record])}

    def check(self, out):
        errors = self._codes(out)
        if errors:
            return errors
        payload = json.loads(self.record.read_text())
        ref = REFERENCE["measure"]
        events = payload["record"]["events"]
        if len(events) != self.items_per_task:
            errors.append(f"{len(events)} events, expected {self.items_per_task}")
        final = payload["final_state"]
        z = np.array(final["Z_re"]) + 1j * np.array(final["Z_im"])
        z_ref = np.array(ref["Z_re"]) + 1j * np.array(ref["Z_im"])
        if z.shape != z_ref.shape or _max_dev(z, z_ref) > 1e-8:
            errors.append("final Z differs from the reference by more than 1e-8")
        jac = np.array(payload["outcome_jacobian"])
        outcomes = np.array([e["outcome"] for e in events])
        constant = np.array(final["mean"]) - outcomes @ jac
        if _max_dev(constant, ref["mean_minus_shift"]) > 1e-8:
            errors.append("mean - predicted_mean_shift differs from the "
                          "reference by more than 1e-8")
        by_mode = {e["mode"]: e["outcome"] for e in events
                   if isinstance(e["mode"], int)}
        for (site, det), value in self.forced.items():
            # a cubic step forces (m_a, m_e, m_f); m_e lands on x, m_a on a
            want = ({2 * site: value[1], 2 * site + 1: value[0]}
                    if isinstance(value, list)
                    else {2 * site + (det == "a"): value})
            if any(by_mode.get(mode) != v for mode, v in want.items()):
                errors.append(f"forced outcome at site {site} not recorded")
                break
        return errors

    def counts(self, out):
        return {"mbqc.events": len(json.loads(self.record.read_text())
                                   ["record"]["events"]),
                "cli.bytes_written": self.record.stat().st_size}


class WitnessWorkload(Workload):
    name = "witness"
    why = ("two-setting sampled witness at 10k shots: text CSV write and "
           "read plus Cholesky sampling do the work, the lattice is tiny")
    item_unit = "homodyne shots"
    items_per_task = 4 * WITNESS_SHOTS

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.seeds = [int(s) for s in self.rng.integers(2 ** 31, size=3)]
        self.csv = {s: self.dir / f"{s}.csv" for s in ("q", "p")}
        self.size = f"{WITNESS_LATTICE[0]},{WITNESS_LATTICE[1]}"

    def run_task(self):
        out = {}
        for (setting, path), seed in zip(self.csv.items(), self.seeds):
            out[f"sample-homodyne {setting}"] = run_cli([
                "sample-homodyne", "--lattice", self.size, "-r", 1.0,
                "--setting", setting, "--shots", WITNESS_SHOTS, "--seed", seed,
                "--out", path, "--phase-delayed"])
        config = lattice.LatticeConfig(*WITNESS_LATTICE, 1.0)
        nulls = nullifiers.quadrature_nullifiers(lattice.ideal_graph(config))
        out["ingest"] = nullifiers.ingest_samples(self.csv["q"], self.csv["p"],
                                                  nulls)[1]
        out["verify-nullifiers"] = run_cli([
            "verify-nullifiers", "--lattice", self.size, "--shots",
            WITNESS_SHOTS, "--seed", self.seeds[2]])
        return out

    def check(self, out):
        errors = self._codes(out)
        if errors:
            return errors
        report = out["ingest"]
        if not report.passed:
            errors.append("ingested two-setting witness did not pass")
        text = out["verify-nullifiers"][1]
        if "analytic witness pass" not in text or "sampled witness pass" not in text:
            errors.append("verify-nullifiers witness did not pass")
        analytic = np.array(REFERENCE["witness"]["variances"])
        sigma = analytic * np.sqrt(2.0 / (report.shots - 1))
        worst = np.max(np.abs(report.variances - analytic) / sigma)
        if report.shots != WITNESS_SHOTS or worst > WITNESS_SIGMAS:
            errors.append(f"sampled variance {worst:.2f} sigma from the analytic "
                          f"value (limit {WITNESS_SIGMAS})")
        return errors

    def counts(self, out):
        csv_bytes = sum(p.stat().st_size for p in self.csv.values())
        return {"nullifiers.csv_bytes": csv_bytes, "cli.bytes_written": csv_bytes}


class IdentitiesWorkload(Workload):
    name = "identities"
    why = ("the FFT grid oracle shares no code with the Gaussian layers; the "
           "serial suites beside the 4-thread case batch show a change that "
           "helps one use of the oracle and slows the other")
    item_unit = "identity reports"
    items_per_task = 7 + CASES_PER_TASK

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        pool = identity_case_pool()
        self.picks = [int(i) for i in self.rng.permutation(len(pool))[:CASES_PER_TASK]]
        self.cases = self.dir / "cases.json"
        self.cases.write_text(json.dumps([pool[i] for i in self.picks]))
        self.grid = "{},{}".format(*IDENTITY_GRID)
        self.reports = {key: self.dir / f"report_{key}.json"
                        for key in (*IDENTITY_SUITES, "cases")}

    def run_task(self):
        out = {f"verify-identities {suite}": run_cli([
            "verify-identities", suite, "--grid", self.grid,
            "--report", self.reports[suite]]) for suite in IDENTITY_SUITES}
        out["verify-identities --cases"] = run_cli([
            "verify-identities", "--cases", self.cases, "--grid", self.grid,
            "--report", self.reports["cases"]])
        return out

    def check(self, out):
        errors = self._codes(out)
        if errors:
            return errors
        ref = REFERENCE["identities"]
        expected = {**ref["suites"], "cases": [ref["pool"][i] for i in self.picks]}
        for key, path in self.reports.items():
            reports = json.loads(path.read_text())
            if len(reports) != len(expected[key]):
                errors.append(f"{key}: {len(reports)} reports, "
                              f"expected {len(expected[key])}")
                continue
            for rep, fid in zip(reports, expected[key]):
                if not rep.get("pass") or abs(rep["fidelity"] - fid) > 1e-6:
                    errors.append(f"{key}: {rep['identity']} report "
                                  f"{rep.get('params')} failed or moved from "
                                  f"its reference fidelity {fid:.8f}")
        return errors

    def counts(self, out):
        return {"cli.bytes_written": sum(p.stat().st_size
                                         for p in self.reports.values())}


WORKLOADS = {w.name: w for w in (LatticeWorkload, MeasureWorkload,
                                 WitnessWorkload, IdentitiesWorkload)}
