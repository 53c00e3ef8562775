"""Acceptance battery: one test per criterion, each printing a verdict line.

Every tolerance is pinned here; the random draws are seeded and documented
where the criterion leaves the distribution open (noted in the comments).
"""

import numpy as np

from bslsim.graphstate import GraphState, apply, covariance
from bslsim.identities import (default_input, verify_commutation,
                               verify_teleport_identity, verify_cubic_device,
                               verify_teleport_circuit)
from bslsim.lattice import (LatticeConfig, _lattice_state, build_bsl,
                            ideal_graph)
from bslsim.mbqc import run_program, simulate_single_mode_gate, two_mode_gate, \
    cz_gate_angles, v_gate
from bslsim.nullifiers import (nullifier_variances, phi_transform,
                               quadrature_nullifiers, sample_homodyne_dataset)
from bslsim.oracle import WaveFunction, cubic_phase_amplitude


def _verdict(num, ok, detail):
    print(f"criterion {num:>2}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, detail


def test_criterion_01_loop_weight_identity():
    worst = 0.0
    for r in (0.1, 0.5, 1.0, 2.0):
        for sign in (1, -1):
            z = 1j / np.cosh(2 * r) + sign * np.tanh(2 * r)
            worst = max(worst, abs((1 + z) / (1 - z) - 1j * np.exp(sign * 2 * r)))
    _verdict(1, worst <= 1e-12, f"max deviation {worst:.2e} <= 1e-12")


def test_criterion_02_local_nullifier_transformation():
    rng = np.random.default_rng(100)
    worst = 0.0
    count = 0
    while count < 20:
        n = int(rng.integers(2, 5))           # V acts on 2n <= 8 modes
        a = rng.normal(size=(2 * n, 2 * n))
        l, _ = np.linalg.qr(a)
        v = l @ np.diag([1.0] * n + [-1.0] * n) @ l.T
        for r in (0.5, 1.0):
            z = phi_transform(_lattice_state(v, r)).z
            expect = (1j * np.cosh(2 * r) * np.eye(2 * n)
                      + 1j * np.sinh(2 * r) * v)
            dev = np.abs(z - expect).max()
            assert dev <= 1e-9 * np.cosh(2 * r)
            worst = max(worst, dev)
        count += 1
    _verdict(2, worst <= 1e-9, f"20 random graphs, max deviation {worst:.2e}")


def test_criterion_03_lattice_graph_structure():
    config = LatticeConfig(3, 3, 1.0)
    v = ideal_graph(config)          # exact, r-independent V
    tr = abs(np.trace(v))
    self_inv = np.abs(v @ v - np.eye(36)).max()
    worst_form = 0.0
    for r in (0.5, 1.0, 2.0):
        state, _ = build_bsl(LatticeConfig(3, 3, r))
        z_expect = 1j / np.cosh(2 * r) * np.eye(36) + np.tanh(2 * r) * v
        worst_form = max(worst_form, np.abs(state.z - z_expect).max())
    ok = tr <= 1e-8 and self_inv <= 1e-6 and worst_form <= 1e-8
    _verdict(3, ok, f"|tr V| = {tr:.2e}, |V^2 - I| = {self_inv:.2e}, "
                    f"graph-form deviation {worst_form:.2e}")


def test_criterion_04_nullifier_variance_scaling():
    v = ideal_graph(LatticeConfig(2, 2, 1.0))
    nulls = quadrature_nullifiers(v)
    var = {}
    phi = {}
    for r in (1.0, 2.0):
        state, _ = build_bsl(LatticeConfig(2, 2, r))
        phi[r] = phi_transform(state)
        var[r] = nullifier_variances(phi[r], nulls)
    ratio = var[2.0] / var[1.0]
    ratio_ok = np.abs(ratio - np.exp(-2.0)).max() <= 0.01 * np.exp(-2.0)
    shots = 100000
    qd = sample_homodyne_dataset(phi[1.0], "q", shots, seed=41)
    pd = sample_homodyne_dataset(phi[1.0], "p", shots, seed=42)
    emp = np.array([
        (pd @ nulls.coeff_p[k].real).var(ddof=1) if np.any(nulls.coeff_p[k])
        else (qd @ nulls.coeff_q[k].real).var(ddof=1)
        for k in range(nulls.n_rows)])
    rel = np.abs(emp - var[1.0]) / var[1.0]
    ok = ratio_ok and rel.max() <= 0.05
    _verdict(4, ok, f"variance ratio within {np.abs(ratio - np.exp(-2)).max() / np.exp(-2):.3%} "
                    f"of e^-2; sampled within {rel.max():.3%} at {shots} shots")


def test_criterion_05_macronode_gate_oracle():
    # draws: theta_plus uniform over [0, pi), theta_minus within 0.1 rad of
    # pi/4 (bounded gate squeezing; the finite-r noise coefficient implied by
    # the stated tolerances), outcomes N(0,1), displaced-vacuum inputs
    rng = np.random.default_rng(55)
    worst_cov = worst_mean = 0.0
    for _ in range(50):
        inp = GraphState(np.array([[1j]]), rng.normal(0, 0.5, 2))
        tp = rng.uniform(0, np.pi)
        tm = np.pi / 4 + rng.uniform(-0.1, 0.1)
        th1, th2 = tp + tm, tp - tm
        m1, m2 = rng.normal(0, 1, 2)
        out, _ = simulate_single_mode_gate(inp, th1, th2, r=6.0,
                                           outcomes=(m1, m2))
        target = apply(inp, v_gate(th1, th2, m1, m2))
        worst_cov = max(worst_cov,
                        np.abs(covariance(out) - covariance(target)).max())
        worst_mean = max(worst_mean, np.abs(out.mean - target.mean).max())
    ok = worst_cov <= 1e-5 and worst_mean <= 1e-4
    _verdict(5, ok, f"50 draws at r=6: cov dev {worst_cov:.2e} <= 1e-5, "
                    f"mean dev {worst_mean:.2e} <= 1e-4")


def test_criterion_06_entangling_gate_reduction():
    from bslsim.graphstate import gate_cz, gate_rotation
    worst = 0.0
    for k in (0, 1):
        for phi in (np.pi / 4, np.pi / 3):
            g = two_mode_gate(cz_gate_angles(phi, k), k=k)
            target = gate_cz(2 / np.tan(phi), 0, 1, 2)
            target = target.then(
                gate_rotation(((-1) ** (k + 1)) * 3 * np.pi / 4, 0, 2))
            target = target.then(gate_rotation(((-1) ** k) * np.pi / 4, 1, 2))
            worst = max(worst, np.abs(g.s - target.s).max())
    _verdict(6, worst <= 1e-9,
             f"both parities, phi in {{pi/4, pi/3}}: max deviation {worst:.2e}")


def test_criterion_07_ancilla_teleportation_identity():
    rng = np.random.default_rng(77)
    psi = WaveFunction.vacuum(12.0, 1024, 0.2, 0.1)
    worst = 0.0
    for _ in range(4):
        coef = rng.normal(size=3)
        width = rng.uniform(0.3, 0.6)

        def phi(s, c=coef, w=width):
            return (c[0] + c[1] * s + c[2] * s * s) * np.exp(-w * s ** 2)

        rep = verify_teleport_identity(phi, psi, float(rng.normal(0, 0.7)))
        worst = max(worst, 1 - rep["fidelity"])
    rep = verify_teleport_identity(cubic_phase_amplitude(0.1, 2.0), psi, -0.3)
    worst = max(worst, 1 - rep["fidelity"])
    _verdict(7, worst <= 1e-5,
             f"5 ancillas incl. regularized cubic state: worst 1-F {worst:.2e}")


def test_criterion_08_cubic_device_chain():
    psi = default_input(512)
    eps_m, eps_l = [], []
    for r in (2.0, 3.0, 4.0):
        rep_m = verify_teleport_circuit(np.pi / 6, 0.5, r, psi)
        rep_l = verify_cubic_device(0.25, 0.3, (0.1, -0.2, 0.4), r, psi)
        eps_m.append(1 - rep_m["fidelity"])
        eps_l.append(1 - rep_l["fidelity"])
    mono = all(a > b for a, b in zip(eps_m, eps_m[1:])) and \
        all(a > b for a, b in zip(eps_l, eps_l[1:]))
    ok = mono and eps_m[-1] <= 1e-3 and eps_l[-1] <= 1e-3
    _verdict(8, ok, f"fidelities at r=4: {1 - eps_m[-1]:.6f} (teleport), "
                    f"{1 - eps_l[-1]:.6f} (cubic chain); eps monotone: {mono}")


def test_criterion_09_adaptive_commutation():
    rng = np.random.default_rng(99)
    psi = default_input(512)
    worst = 0.0
    for _ in range(10):
        s = float(rng.uniform(-0.4, 0.4))
        t = float(rng.uniform(-0.4, 0.4))
        chi = float(rng.uniform(-0.25, 0.25))
        sigma = float(rng.uniform(-0.5, 0.5))
        outcomes = tuple(rng.uniform(-0.5, 0.5, 3))
        rep = verify_commutation(s, t, chi, sigma, outcomes, 4.0, psi)
        worst = max(worst, 1 - rep["fidelity"])
    _verdict(9, worst <= 1e-3,
             f"10 random draws at r=4: worst 1-F {worst:.2e} <= 1e-3")


def test_criterion_10_homodyne_determinism():
    prog = {
        "resource": {"kind": "wire", "macronodes": 6, "r": 5.0},
        "steps": [
            {"time_index": k, "detector": d,
             "basis": {"theta": (np.pi / 4 if d == "x" else -np.pi / 4)
                       - np.pi / 2}}
            for k in range(5) for d in ("x", "a")
        ],
    }
    res1 = run_program(prog, seed=1)
    res2 = run_program(prog, seed=2)
    dz = np.abs(res1.state.z - res2.state.z).max()
    inv1 = res1.state.mean - res1.predicted_mean_shift()
    inv2 = res2.state.mean - res2.predicted_mean_shift()
    dm = np.abs(inv1 - inv2).max()
    ok = dz <= 1e-9 and dm <= 1e-8
    _verdict(10, ok, f"10-step program, two seeds: |Z1 - Z2| = {dz:.2e}, "
                     f"frame-corrected mean difference {dm:.2e}")
