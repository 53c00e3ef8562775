"""Spans around the calls into bslsim's layers, recorded from outside.

``Tracer.install`` replaces the public functions of each module with timing
wrappers, in the defining module and under every other name bslsim bound at
import (``bslsim.lattice.apply``, ``bslsim.cli.build_bsl``, ...), plus the
WaveFunction gate methods and the two ``__post_init__`` checks at class
level.  Spans stay in memory until the run ends.  Only the traced client
process installs the wrappers.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import Counter, defaultdict

import numpy as np

#: span name -> (module, attribute) of the function it times
FUNCTIONS = {
    "graphstate.apply": ("graphstate", "apply"),
    "graphstate.covariance": ("graphstate", "covariance"),
    "lattice.build_bsl": ("lattice", "build_bsl"),
    "lattice.ideal_graph": ("lattice", "ideal_graph"),
    "lattice.schedule": ("lattice", "schedule"),
    "lattice.edge_summary": ("lattice", "edge_summary"),
    "lattice.to_dot": ("lattice", "to_dot"),
    "lattice.canonical_wire": ("lattice", "canonical_wire"),
    "nullifiers.phi_transform": ("nullifiers", "phi_transform"),
    "nullifiers.quadrature_nullifiers": ("nullifiers", "quadrature_nullifiers"),
    "nullifiers.nullifier_variances": ("nullifiers", "nullifier_variances"),
    "nullifiers.ingest_samples": ("nullifiers", "ingest_samples"),
    "nullifiers.sample_homodyne_dataset": ("nullifiers", "sample_homodyne_dataset"),
    "mbqc.run_program": ("mbqc", "run_program"),
    "mbqc.measure_with_response": ("mbqc", "measure_with_response"),
    "mbqc.decouple_wires": ("mbqc", "decouple_wires"),
    "oracle.fidelity": ("oracle", "fidelity_up_to_phase"),
    "identities.teleport_identity": ("identities", "verify_teleport_identity"),
    "identities.teleport_circuit": ("identities", "verify_teleport_circuit"),
    "identities.cubic_device": ("identities", "verify_cubic_device"),
    "identities.commutation": ("identities", "verify_commutation"),
    "identities.run_cases": ("identities", "run_cases"),
    "cli.build_bsl": ("cli", "cmd_build_bsl"),
    "cli.verify_nullifiers": ("cli", "cmd_verify_nullifiers"),
    "cli.run_program": ("cli", "cmd_run_program"),
    "cli.sample_homodyne": ("cli", "cmd_sample_homodyne"),
    "cli.verify_identities": ("cli", "cmd_verify_identities"),
}
GATE_CONSTRUCTORS = ("gate_identity", "gate_rotation", "gate_squeeze",
                     "gate_shear", "gate_displacement", "gate_beamsplitter",
                     "gate_cz")
WAVEFUNCTION_METHODS = ("z_shift", "x_shift", "shear", "kubic", "rotate",
                        "squeeze", "beamsplitter", "cz", "project_q",
                        "project_p_theta", "moments", "product")


class Tracer:
    """In-memory span recorder with thread-local parent stacks.

    A span is [name, start, end, parent, task, value]; `value` is a number a
    wrapper measured from the result (gate bytes).  Root spans opened on a
    worker thread while ``run_cases`` is open take it as their parent.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.task = None
        self.fft = defaultdict(Counter)    # task -> {"calls", "points"}
        self._adopt = None
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def wrap(self, name, fn, value=None, adopt=False):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else self._adopt
            with self._lock:
                sid = len(self.spans)
                self.spans.append([name, 0.0, 0.0, parent, self.task, None])
            if adopt:
                self._adopt = sid
            stack.append(sid)
            span = self.spans[sid]
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
                if adopt:
                    self._adopt = None
            if value is not None:
                span[5] = value(result)
            return result
        return traced

    def _count_fft(self, fn):
        @functools.wraps(fn)
        def counted(a, *args, **kwargs):
            with self._lock:
                counts = self.fft[self.task]
                counts["calls"] += 1
                counts["points"] += int(np.size(a))
            return fn(a, *args, **kwargs)
        return counted

    def install(self, bslsim_pkg):
        """Wrap bslsim's layer functions in this process."""
        from bslsim import graphstate, oracle
        mods = {name: sys.modules[f"bslsim.{name}"] for name in
                ("graphstate", "lattice", "nullifiers", "mbqc", "oracle",
                 "identities", "cli")}
        replaced = {}
        for span, (mod, attr) in FUNCTIONS.items():
            fn = getattr(mods[mod], attr)
            replaced[fn] = self.wrap(span, fn, adopt=span == "identities.run_cases")
        for attr in GATE_CONSTRUCTORS:
            fn = getattr(graphstate, attr)
            replaced[fn] = self.wrap("graphstate.gate_ctor", fn,
                                     value=lambda gate: gate.s.nbytes)
        # every name bslsim bound to a wrapped function, in any module
        for module in [bslsim_pkg, *mods.values()]:
            for attr, obj in list(vars(module).items()):
                if callable(obj) and obj in replaced:
                    setattr(module, attr, replaced[obj])
        for method in WAVEFUNCTION_METHODS:
            setattr(oracle.WaveFunction, method,
                    self.wrap(f"oracle.{method}",
                              getattr(oracle.WaveFunction, method)))
        for cls, span in ((graphstate.GraphState, "graphstate.state_check"),
                          (graphstate.SymplecticGate, "graphstate.gate_check")):
            cls.__post_init__ = self.wrap(span, cls.__post_init__)
        np.fft.fft = self._count_fft(np.fft.fft)
        np.fft.ifft = self._count_fft(np.fft.ifft)

    def self_times(self) -> list[float]:
        """Per span: duration minus the part of it its children cover."""
        children = defaultdict(list)
        for span in self.spans:
            if span[3] is not None:
                children[span[3]].append((span[1], span[2]))
        out = []
        for sid, (_, start, end, *_rest) in enumerate(self.spans):
            covered, reach = 0.0, start
            for a, b in sorted(children.get(sid, ())):
                a, b = max(a, reach), min(b, end)
                if b > a:
                    covered += b - a
                    reach = b
            out.append(end - start - covered)
        return out

    def by_task(self) -> dict:
        """task -> span name -> {calls, self_s, value}."""
        out = defaultdict(lambda: defaultdict(
            lambda: {"calls": 0, "self_s": 0.0, "value": 0}))
        for span, self_s in zip(self.spans, self.self_times()):
            row = out[span[4]][span[0]]
            row["calls"] += 1
            row["self_s"] += self_s
            row["value"] += span[5] or 0
        return out

    def concurrency(self, tasks) -> tuple[float, int]:
        """Summed case span time over run_cases wall time, and the case count."""
        busy = wall = 0.0
        cases = 0
        for sid, span in enumerate(self.spans):
            if span[0] == "identities.run_cases" and span[4] in tasks:
                wall += span[2] - span[1]
                for child in self.spans[sid + 1:]:
                    if child[3] == sid and child[0].startswith("identities."):
                        busy += child[2] - child[1]
                        cases += 1
        return (busy / wall if wall else 0.0), cases
