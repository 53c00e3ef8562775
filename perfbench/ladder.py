"""Size ladder swept by the traced run: scaling exponents and grid timings.

Runs with the tracer installed and reads its spans, so every time here is a
span duration measured around the public call.
"""

from __future__ import annotations

import numpy as np

LATTICE_SIZES = (2, 3, 4, 5)        # N = M
WIRE_SITES = (16, 32, 64)
GRID_POINTS = (512, 1024)
GRID_REPEATS = 2                    # min-of-k per grid primitive


def _fit(points: dict) -> float:
    """Exponent of seconds against mode count, least squares in log-log."""
    modes = np.array(sorted(points))
    secs = np.array([points[m] for m in modes])
    return float(np.polyfit(np.log(modes), np.log(secs), 1)[0])


def sweep(tracer, wire_program) -> tuple[dict, list[str]]:
    """Run the ladder; returns (metrics, table lines for the report)."""
    import bslsim.lattice as lattice
    import bslsim.mbqc as mbqc
    import bslsim.nullifiers as nullifiers
    from bslsim.oracle import DEFAULT_L, WaveFunction

    def timed(label, modes, call):
        tracer.task = ("ladder", label, modes)
        first = len(tracer.spans)
        result = call()
        span = tracer.spans[first]
        series.setdefault(label, {})[modes] = span[2] - span[1]
        return result

    series: dict = {}
    apply_per_call = {}
    for n in LATTICE_SIZES:
        config = lattice.LatticeConfig(n, n, 1.0)
        modes = config.n_modes
        state, lat = timed("lattice.build_bsl", modes,
                           lambda: lattice.build_bsl(config))
        applies = [s[2] - s[1] for s in tracer.spans
                   if s[4] == ("ladder", "lattice.build_bsl", modes)
                   and s[0] == "graphstate.apply"]
        apply_per_call[modes] = float(np.mean(applies))
        timed("lattice.ideal_graph", modes, lambda: lattice.ideal_graph(config))
        timed("nullifiers.phi_transform", modes,
              lambda: nullifiers.phi_transform(state))
        timed("mbqc.decouple_wires", modes,
              lambda: mbqc.decouple_wires(state, lat, rng=1))
    series["graphstate.apply"] = apply_per_call
    for sites in WIRE_SITES:
        program = wire_program(sites)
        timed("mbqc.run_program", 2 * sites, lambda: mbqc.run_program(program, 0))
    metrics = {f"{name}.scaling_exp": _fit(points) for name, points in series.items()}

    for points in GRID_POINTS:
        psi = WaveFunction.vacuum(DEFAULT_L, points, 0.3, -0.2).product(
            WaveFunction.vacuum(DEFAULT_L, points))
        ops = {"rotate": lambda: psi.rotate(0.7, 0),
               "squeeze": lambda: psi.squeeze(0.5, 1),
               "beamsplitter": lambda: psi.beamsplitter(np.pi / 4),
               "moments": psi.moments}
        for name, call in ops.items():
            best = np.inf
            for _ in range(GRID_REPEATS):
                tracer.task = ("ladder", name, points)
                first = len(tracer.spans)
                call()
                span = tracer.spans[first]
                best = min(best, span[2] - span[1])
            metrics[f"oracle.{name}.p{points}_s"] = float(best)
    tracer.task = None

    lines = [f"ladder {name}: " + ", ".join(f"{m} modes {s:.4g} s"
                                             for m, s in sorted(points.items()))
             for name, points in series.items()]
    return metrics, lines
