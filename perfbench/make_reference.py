"""Record the reference outputs the benchmark's correctness gates compare with.

Run once, from the root of a checkout, on the commit whose outputs are the
reference:

    python3 perfbench/make_reference.py

It rewrites perfbench/reference.json.  Every value stored here holds at any
benchmark seed: the seed changes squeezing, outcomes, sampling seeds and the
choice of identity cases, never the quantities recorded.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from checkout import import_bslsim

import_bslsim()

from bslsim.identities import run_cases, run_suite  # noqa: E402
from bslsim.lattice import LatticeConfig, build_bsl, ideal_graph  # noqa: E402
from bslsim.mbqc import run_program  # noqa: E402
from bslsim.nullifiers import (nullifier_variances, phi_transform,  # noqa: E402
                               quadrature_nullifiers)

OUT = Path(__file__).parent / "reference.json"


def main():
    # reference.json is read by workloads at import, so start from a stub
    if not OUT.exists():
        OUT.write_text("{}")
    import workloads as wl

    config = LatticeConfig(*wl.LATTICE, 1.0)
    v = ideal_graph(config)
    z = build_bsl(config)[0].z
    n = config.n_modes
    closed = 1j / np.cosh(2.0) * np.eye(n) + np.tanh(2.0) * v
    assert np.abs(z - closed).max() < 1e-10, "Z is not i sech(2r) I + tanh(2r) V"

    result = run_program(wl.wire_program(wl.WIRE_SITES), 0)
    assert len(result.record.events) == wl.MeasureWorkload.items_per_task

    wconf = LatticeConfig(*wl.WITNESS_LATTICE, 1.0)
    nulls = quadrature_nullifiers(ideal_graph(wconf))
    variances = nullifier_variances(phi_transform(build_bsl(wconf)[0]), nulls)

    half, points = wl.IDENTITY_GRID
    suites = {name: run_suite(name, points, half) for name in wl.IDENTITY_SUITES}
    pool = run_cases(wl.identity_case_pool(), points, half)
    assert all(r["pass"] for reports in [*suites.values(), pool] for r in reports)

    reference = {
        "lattice": {"config": list(wl.LATTICE), "V": v.tolist()},
        "measure": {
            "Z_re": result.state.z.real.tolist(),
            "Z_im": result.state.z.imag.tolist(),
            "mean_minus_shift": (result.state.mean
                                 - result.predicted_mean_shift()).tolist(),
        },
        "witness": {"config": list(wl.WITNESS_LATTICE), "r": 1.0,
                    "variances": variances.tolist()},
        "identities": {"grid": list(wl.IDENTITY_GRID),
                       "suites": {name: [r["fidelity"] for r in reports]
                                  for name, reports in suites.items()},
                       "pool": [r["fidelity"] for r in pool]},
    }
    OUT.write_text(json.dumps(reference) + "\n")
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
