"""Homodyne measurement, wire protocols, two-mode gates, feedforward, runner."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bslsim.graphstate import (GraphState, GraphStateError, apply, covariance,
                               gate_beamsplitter, gate_cz, gate_displacement,
                               gate_rotation, gate_shear, gate_squeeze, omega,
                               squeezed_vacua, vacuum)
from bslsim import mbqc
from bslsim.lattice import (LatticeConfig, MacronodeLattice, _lattice_state,
                            build_bsl, ideal_graph)
from bslsim.mbqc import (MeasurementEvent, MeasurementRecord, ProgramError,
                         adapted_sigma, commutation_kick, cubic_kick,
                         cubic_shear,
                         cz_gate_angles, decouple_wires, feedforward,
                         measure_with_response, run_program,
                         simulate_single_mode_gate, two_mode_gate, v_gate,
                         v_gate_displacement)


def test_measure_product_state_leaves_others():
    st = squeezed_vacua([0.5, -0.3, 0.2])
    post, m = measure_with_response(st, 1, 0.7, outcome=0.4)[:2]
    assert m == 0.4
    assert np.abs(post.z - np.diag([st.z[0, 0], st.z[2, 2]])).max() < 1e-12


def test_measure_conditional_mean_matches_covariance_regression():
    # posterior mean = prior + Sigma_rk Sigma_kk^-1 (m - mu_k): standard
    # Gaussian conditioning, computed here directly from the covariance
    rng = np.random.default_rng(4)
    st = squeezed_vacua([0.6, -0.4])
    st = apply(st, gate_beamsplitter(0.9, 0, 1, 2))
    st = apply(st, gate_displacement(0.3, -0.2, 0, 2))
    sigma = covariance(st)
    m = 1.1
    post, _ = measure_with_response(st, 0, 0.0, outcome=m)[:2]
    gain = sigma[:, 0] / sigma[0, 0]
    expected = st.mean + gain * (m - st.mean[0])
    assert np.abs(post.mean - np.array([expected[1], expected[3]])).max() < 1e-10


def test_measurement_law_of_total_covariance():
    # Sigma_prior(rest) = Sigma_post + g Var(m) g^T with g the mean response
    st = squeezed_vacua([0.6, -0.4, 0.3])
    st = apply(st, gate_beamsplitter(0.9, 0, 1, 3))
    st = apply(st, gate_cz(0.7, 1, 2, 3))
    theta = 0.37
    rot = apply(st, gate_rotation(theta, 1, 3))
    var_m = covariance(rot)[1, 1]
    post, m, jac = measure_with_response(st, 1, theta)
    g = jac[:, -1]
    keep = [0, 2, 3, 5]   # q/p rows of the surviving modes in the prior
    prior = covariance(rot)[np.ix_(keep, keep)]
    total = covariance(post) + np.outer(g, g) * var_m
    assert np.abs(prior - total).max() < 1e-9


def test_measure_outcome_distribution():
    # sampled outcomes match the Gaussian marginal (KS test at 1e4 draws)
    st = apply(squeezed_vacua([0.7]), gate_displacement(0.4, 0.0, 0, 1))
    theta = 0.6
    rot = apply(st, gate_rotation(theta, 0, 1))
    mu, var = rot.mean[0], covariance(rot)[0, 0]
    rng = np.random.default_rng(12)
    draws = np.array([measure_with_response(st, 0, theta, rng=rng)[1]
                      for _ in range(10000)])
    from math import erf
    xs = np.sort((draws - mu) / np.sqrt(2 * var))
    cdf = 0.5 * (1 + np.array([erf(x) for x in xs]))
    d_stat = np.abs(cdf - (np.arange(1, 10001) - 0.5) / 10000).max()
    assert d_stat < 1.63 / np.sqrt(10000)   # alpha = 0.01


def test_sampled_outcome_uses_the_entangled_marginal():
    # on an entangled state the marginal variance of q_k is 1 / (2 Y_kk)
    # corrected by the other modes; the draw must use the exact value
    class Spy:
        def normal(self, mu, sigma):
            self.args = (mu, sigma)
            return mu

    st = squeezed_vacua([0.6, -0.4, 0.3])
    for g in (gate_beamsplitter(0.9, 0, 1, 3), gate_cz(0.7, 1, 2, 3),
              gate_displacement(0.5, -0.3, 1, 3)):
        st = apply(st, g)
    for mode in range(3):
        for theta in (0.0, 0.37, -1.2):
            spy = Spy()
            measure_with_response(st, mode, theta, rng=spy)
            rot = apply(st, gate_rotation(theta, mode, 3))
            assert spy.args[0] == pytest.approx(rot.mean[mode], abs=1e-12)
            var = covariance(rot)[mode, mode]
            assert spy.args[1] ** 2 == pytest.approx(var, rel=1e-12)


def test_decouple_wires_severs_rows_exactly():
    config = LatticeConfig(3, 3, 6.0)
    state, lattice = build_bsl(config)
    res = decouple_wires(state, lattice, rng=2)
    live = res.mode_index
    row = {lattice.mode_at(t, d): t % 3
           for t in lattice.xa_sites() for d in ("x", "a")}
    worst = 0.0
    for ma, ia in live.items():
        for mb, ib in live.items():
            if ma < mb and ma in row and mb in row and row[ma] != row[mb]:
                worst = max(worst, abs(res.state.z[ia, ib]))
    assert worst < 1e-6


def _wire_pair_edges(res, lattice, r, row=0):
    taus = lattice.wire_sites(row)
    modes = [lattice.mode_at(t, d) for t in taus for d in ("x", "a")]
    idx = [res.mode_index[m] for m in modes]
    z = res.state.z[np.ix_(idx, idx)]
    st = GraphState(z, np.zeros(2 * len(idx)))
    for k in range(len(taus)):
        st = apply(st, gate_beamsplitter(np.pi / 4, 2 * k, 2 * k + 1, len(idx)))
    edges = [st.z[2 * k, 2 * k + 3] for k in range(len(taus) - 1)]
    return np.array(edges), st


def test_decouple_wire_form_improves_with_squeezing():
    # surviving row wires approach the wire form i sech(2r) I + tanh(2r) V as
    # r grows: |Im Z - sech(2r) I| / tanh(2r) reads 0.083, 0.012, 2.2e-4 and
    # 4.1e-6 at r = 1, 2, 4 and 6
    residual = []
    for r in (1.0, 2.0, 4.0, 6.0):
        state, lattice = build_bsl(LatticeConfig(3, 4, r))
        res = decouple_wires(state, lattice, rng=0)
        edges, st = _wire_pair_edges(res, lattice, r)
        assert np.abs(np.abs(edges) - np.tanh(2 * r) * 2 * np.sqrt(2) / 3).max() < 0.15
        loops = np.eye(st.n_modes) / np.cosh(2 * r)
        residual.append(np.abs(st.z.imag - loops).max() / np.tanh(2 * r))
    assert all(a > b for a, b in zip(residual, residual[1:]))
    assert residual[-1] < 1e-4


def test_decouple_wrong_angle_fails():
    lattice = MacronodeLattice(LatticeConfig(3, 4, 6.0))

    def delete_bc_at(theta):
        # decouple_wires' measurements, every one at the same angle
        return run_program(
            {"resource": {"kind": "bsl", "N": 3, "M": 4, "r": 6.0},
             "steps": [{"time_index": tau, "detector": d,
                        "basis": {"theta": theta}}
                       for tau in lattice.bc_sites() for d in "bc"]}, 0)

    # constant-sign deletion destroys the wire chain entirely
    res = delete_bc_at(np.pi / 4)
    edges, _ = _wire_pair_edges(res, lattice, 6.0)
    # chain destroyed: edges collapse from ~0.94 to O(e^{-2r})
    assert np.abs(edges).max() < 1e-3
    # and a plain q-basis deletion leaves a non-self-inverse wire
    res_q = delete_bc_at(0.0)
    edges_q, st_q = _wire_pair_edges(res_q, lattice, 6.0)
    v = st_q.z.real / np.tanh(12.0)
    pair = v[np.ix_([2, 5], [2, 5])].real
    assert np.abs(pair @ pair - np.eye(2)).max() > 0.3


@pytest.mark.parametrize("size", [(2, 3), (3, 3)])
@pytest.mark.parametrize("seed", [0, 5])
def test_decouple_wires_is_the_bsl_deletion_program(size, seed):
    # the state a "bsl" program runs on, so the two runs agree bit for bit
    config = LatticeConfig(*size, 1.0)
    lattice = MacronodeLattice(config)
    res = decouple_wires(_lattice_state(ideal_graph(config), 1.0), lattice,
                         rng=seed)
    program = {"resource": {"kind": "bsl", "N": size[0], "M": size[1],
                            "r": 1.0},
               "steps": [{"time_index": tau, "detector": d,
                          "basis": {"theta": lattice.deletion_angle(tau)}}
                         for tau in lattice.bc_sites() for d in "bc"]}
    ref = run_program(program, seed)
    assert res.record.events == ref.record.events
    assert np.array_equal(res.state.z, ref.state.z)
    assert np.array_equal(res.state.mean, ref.state.mean)
    assert np.array_equal(res.outcome_jacobian, ref.outcome_jacobian)
    assert res.mode_index == ref.mode_index


def test_decouple_wires_jacobian_predicts_seed_difference():
    state, lattice = build_bsl(LatticeConfig(3, 3, 1.0))
    a = decouple_wires(state, lattice, rng=1)
    b = decouple_wires(state, lattice, rng=2)
    n = a.state.n_modes
    assert a.outcome_jacobian.shape == (2 * n, len(a.record.events))
    assert np.array_equal(a.state.z, b.state.z)
    diff = a.state.mean - b.state.mean
    shift = a.predicted_mean_shift() - b.predicted_mean_shift()
    assert np.abs(diff).max() > 1e-3
    assert np.abs(diff - shift).max() <= 1e-9 * max(1.0, np.abs(diff).max())


def test_cubic_step_ancillas_are_integer_modes_after_the_state():
    # two cubic steps on a 4-macronode wire of 8 modes: ancillas 8 and 9
    steps = [{"time_index": k, "detector": "x",
              "basis": {"cubic": {"chi": 0.0, "sigma": 0.3}}} for k in (0, 2)]
    res = run_program({"resource": {"kind": "wire", "macronodes": 4,
                                    "r": 2.0}, "steps": steps}, seed=3)
    modes = [e.mode for e in res.record.events]
    assert all(type(m) is int for m in modes)
    assert [m for m in modes if m >= 8] == [8, 9]
    assert all(type(m) is int for m in res.mode_index)
    assert sorted(res.mode_index) == [2, 3, 6, 7]


def test_v_gate_special_angles():
    g = v_gate(np.pi / 2, 0.0)
    assert np.abs(g.s - gate_rotation(np.pi / 2, 0, 1).s).max() < 1e-12
    g = v_gate(3 * np.pi / 8, np.pi / 8)
    target = gate_squeeze(np.log(np.tan(np.pi / 8)), 0, 1) \
        .then(gate_rotation(np.pi / 4, 0, 1))
    target = gate_rotation(np.pi / 4, 0, 1).then(target)
    assert np.abs(g.s - target.s).max() < 1e-12


def test_v_gate_branch_restriction():
    with pytest.raises(GraphStateError, match="branch"):
        v_gate(0.0, np.pi / 2)
    with pytest.raises(GraphStateError, match="singular"):
        v_gate(0.3, 0.3)


def test_v_gate_displacement_formula():
    th1, th2, m1, m2 = 1.1, 0.3, 0.7, -0.4
    alpha = (-1j * np.exp(1j * th2) * m1 - 1j * np.exp(1j * th1) * m2) \
        / np.sin(th1 - th2)
    dq, dp = v_gate_displacement(th1, th2, m1, m2)
    assert np.isclose(dq, np.sqrt(2) * alpha.real)
    assert np.isclose(dp, np.sqrt(2) * alpha.imag)


def test_simulate_single_mode_gate_matches_closed_form():
    rng = np.random.default_rng(31)
    inp = GraphState(np.array([[1j]]), np.array([0.4, -0.1]))
    for _ in range(10):
        tp = rng.uniform(0, np.pi)
        tm = np.pi / 4 + rng.uniform(-0.1, 0.1)
        th1, th2 = tp + tm, tp - tm
        m1, m2 = rng.normal(0, 1, 2)
        out, rec = simulate_single_mode_gate(inp, th1, th2, r=6.0,
                                             outcomes=(m1, m2))
        target = apply(inp, v_gate(th1, th2, m1, m2))
        assert np.abs(covariance(out) - covariance(target)).max() < 1e-5
        assert np.abs(out.mean - target.mean).max() < 1e-4
    # squeezed inputs amplify the finite-r noise by their antisqueezed
    # variance; the match degrades gracefully, not structurally
    sq = GraphState(np.array([[0.2 + 0.7j]]), np.array([0.4, -0.1]))
    out, _ = simulate_single_mode_gate(sq, 0.9 + np.pi / 4, 0.9 - np.pi / 4,
                                       r=6.0, outcomes=(0.5, -0.2))
    target = apply(sq, v_gate(0.9 + np.pi / 4, 0.9 - np.pi / 4, 0.5, -0.2))
    assert np.abs(covariance(out) - covariance(target)).max() < 3e-5


def test_simulated_step_equals_closed_form_up_to_phase():
    inp = GraphState(np.array([[1j]]), np.array([0.3, -0.4]))
    th1, th2 = 0.8 + np.pi / 4, 0.8 - np.pi / 4
    out, _ = simulate_single_mode_gate(inp, th1, th2, r=10.0,
                                       outcomes=(0.5, -0.2))
    target = apply(inp, v_gate(th1, th2, 0.5, -0.2))
    assert np.abs(out.z - target.z).max() <= 1e-8
    assert np.abs(out.mean - target.mean).max() <= 1e-8


def test_simulate_coherent_input_rotation():
    # theta = (pi/2, 0): the gate is a pure rotation; a displaced vacuum
    # stays a displaced vacuum with rotated mean
    inp = GraphState(np.array([[1j]]), np.array([0.8, -0.3]))
    out, rec = simulate_single_mode_gate(inp, np.pi / 2, 0.0, r=7.0,
                                         outcomes=(0.0, 0.0))
    rot = gate_rotation(np.pi / 2, 0, 1)
    assert np.abs(out.z - 1j).max() < 1e-5
    assert np.abs(out.mean - rot.s @ inp.mean).max() < 1e-5


def test_identity_direction_teleportation():
    inp = GraphState(np.array([[0.1 + 1.2j]]), np.array([0.5, 0.2]))
    out, rec = simulate_single_mode_gate(inp, np.pi / 4, -np.pi / 4, r=7.0,
                                         outcomes=(0.3, -0.6))
    # V(pi/4, -pi/4) is the identity up to the outcome displacement
    dq, dp = v_gate_displacement(np.pi / 4, -np.pi / 4, 0.3, -0.6)
    assert np.abs(out.z - inp.z).max() < 1e-5
    assert np.abs(out.mean - (inp.mean + [dq, dp])).max() < 1e-5


def test_two_mode_gate_factorizes_at_special_angles():
    for k in (0, 1):
        fixed = ((-1) ** (k + 1)) * np.pi / 4
        angles = (0.9, 0.2, fixed, fixed, -0.5, 1.1)
        g = two_mode_gate(angles, k=k)
        # off-diagonal mode blocks vanish: gate is a tensor product
        for a, b in ((0, 1), (1, 0)):
            for rr in (0, 2):
                for cc in (0, 2):
                    assert abs(g.s[a + rr, b + cc]) < 1e-10


@pytest.mark.parametrize("k", [0, 1])
@pytest.mark.parametrize("phi", [np.pi / 4, np.pi / 3])
def test_two_mode_gate_cz_table(phi, k):
    g = two_mode_gate(cz_gate_angles(phi, k), k=k)
    target = gate_cz(2 / np.tan(phi), 0, 1, 2)
    target = target.then(gate_rotation(((-1) ** (k + 1)) * 3 * np.pi / 4, 0, 2))
    target = target.then(gate_rotation(((-1) ** k) * np.pi / 4, 1, 2))
    assert np.abs(g.s - target.s).max() <= 1e-9


def test_two_mode_gate_cz_phi_half_pi_not_entangling():
    # C_Z(2 cot(pi/2)) = C_Z(0): no coupling between the two modes
    g = two_mode_gate(cz_gate_angles(np.pi / 2, 0), k=0)
    for a, b in ((0, 1), (1, 0)):
        for rr in (0, 2):
            for cc in (0, 2):
                assert abs(g.s[a + rr, b + cc]) < 1e-10


def test_two_mode_gate_symplectic_and_consistent_displacements():
    rng = np.random.default_rng(9)
    om = omega(2)
    outcomes = tuple(rng.normal(0, 1, 8))
    for k in (0, 1):
        g = two_mode_gate(cz_gate_angles(np.pi / 3, k), outcomes, k)
        assert np.abs(g.s @ om @ g.s.T - om).max() < 1e-10
        again = two_mode_gate(cz_gate_angles(np.pi / 3, k), outcomes, k)
        assert np.array_equal(g.d, again.d)


def test_record_rejects_a_mode_measured_twice():
    seeded = MeasurementRecord([MeasurementEvent(3, 0.0, 0.1)])
    with pytest.raises(ProgramError, match="mode 3 was already measured"):
        seeded.add(3, 0.5, 0.2)
    rec = MeasurementRecord()
    rec.add(("anc", 0), 0.0, 0.4)
    rec.add(2, 0.1, -0.3)
    with pytest.raises(ProgramError, match="already measured"):
        rec.add(("anc", 0), 0.0, 0.4)
    assert [e.mode for e in rec.events] == [("anc", 0), 2]
    assert rec == MeasurementRecord(list(rec.events))


def test_feedforward_gaussian_and_cubic():
    rec = MeasurementRecord()
    rec.frame = (0.3, -0.2)
    rot = gate_rotation(np.pi / 2, 0, 1)
    out = feedforward(rec, "gaussian", rot)
    assert np.allclose(out["frame"], rot.s @ np.array([0.3, -0.2]))

    rec = MeasurementRecord()
    rec.frame = (0.0, 0.7)
    out = feedforward(rec, "cubic",
                      {"chi": 0.2, "sigma": 0.5, "outcomes": (0.1, -0.4, 0.3)})
    # s = 0: zeta = 0, sigma unchanged, frame relabels (0, t) -> (t, 0)
    assert out["zeta"] == 0.0
    assert out["sigma_adapted"] == 0.5
    assert rec.frame == (0.7, 0.0)

    rec = MeasurementRecord()
    rec.frame = (0.3, 0.0)
    out = feedforward(rec, "cubic",
                      {"chi": 0.2, "sigma": 0.5, "outcomes": (0.0, 0.1, -0.4)})
    assert out["sigma_adapted"] == pytest.approx(0.5 + np.sqrt(2) * 0.3 * 0.2)
    assert out["zeta"] == pytest.approx(
        commutation_kick(0.3, 0.5, 0.2, 0.1, -0.4))
    assert rec.frame == (pytest.approx(out["zeta"]), -0.3)


def test_zeta_formula_spec_fixture():
    s, chi, sigma, m_e, m_f = 0.3, 0.2, 0.5, 0.1, -0.4
    sp = adapted_sigma(sigma, s, chi)
    zeta = commutation_kick(s, sigma, chi, m_e, m_f)
    expected = 4 * s * sigma + 2 * np.sqrt(2) * s * chi * (m_f + s) \
        - 2 * m_e * (np.sqrt(1 + sp ** 2) - np.sqrt(1 + sigma ** 2))
    assert zeta == pytest.approx(expected)


def test_run_program_empty_leaves_state():
    prog = {"resource": {"kind": "wire", "macronodes": 2, "r": 2.0}, "steps": []}
    res = run_program(prog, seed=0)
    assert res.state.n_modes == 4
    assert res.record.events == []


def test_run_program_identity_wire():
    r = 6.0
    inp = GraphState(np.array([[0.3 + 0.9j]]), np.array([0.2, -0.5]))
    forced = iter([0.4, -0.7, 0.2, 0.9, -0.3, 0.5])
    prog = {
        "resource": {"kind": "wire", "macronodes": 4, "r": r,
                     "input": inp.to_dict()},
        "steps": [
            {"time_index": k, "detector": d,
             "basis": {"theta": (np.pi / 4 if d == "x" else -np.pi / 4) - np.pi / 2},
             "outcome": next(forced)}
            for k in range(3) for d in ("x", "a")
        ],
    }
    res = run_program(prog, seed=3)
    out = apply(res.state, gate_beamsplitter(-np.pi / 4, 0, 1, 2))
    assert abs(out.z[0, 1]) < 1e-6
    assert np.abs(out.z[0, 0] - inp.z[0, 0]).max() < 1e-4
    # mean differs from the input only by the accumulated gate displacements
    logical = np.array([out.mean[0], out.mean[2]])
    frames = np.zeros(2)
    ms = [e.outcome for e in res.record.events]
    for k in range(3):
        dq, dp = v_gate_displacement(np.pi / 4, -np.pi / 4,
                                     ms[2 * k], ms[2 * k + 1])
        frames += np.array([dq, dp])
    assert np.abs(logical - (inp.mean + frames)).max() < 1e-3


def test_run_program_v_gate_matches_closed_form():
    r = 6.0
    inp = GraphState(np.array([[1j]]), np.array([0.4, -0.2]))
    th1, th2 = 0.9 + np.pi / 4, 0.9 - np.pi / 4
    prog = {
        "resource": {"kind": "wire", "macronodes": 2, "r": r,
                     "input": inp.to_dict()},
        "steps": [
            {"time_index": 0, "detector": "x", "basis": {"theta": th1 - np.pi / 2},
             "outcome": 0.6},
            {"time_index": 0, "detector": "a", "basis": {"theta": th2 - np.pi / 2},
             "outcome": -0.3},
        ],
    }
    res = run_program(prog, seed=0)
    out = apply(res.state, gate_beamsplitter(-np.pi / 4, 0, 1, 2))
    target = apply(inp, v_gate(th1, th2, 0.6, -0.3))
    assert np.abs(out.z[0, 0] - target.z[0, 0]) < 1e-4
    assert np.abs(np.array([out.mean[0], out.mean[2]]) - target.mean).max() < 1e-4


def test_run_program_determinism_up_to_frame():
    prog = {
        "resource": {"kind": "wire", "macronodes": 6, "r": 5.0},
        "steps": [
            {"time_index": k, "detector": d,
             "basis": {"theta": (np.pi / 4 if d == "x" else -np.pi / 4) - np.pi / 2}}
            for k in range(5) for d in ("x", "a")
        ],
    }
    res1 = run_program(prog, seed=1)
    res2 = run_program(prog, seed=2)
    assert np.abs(res1.state.z - res2.state.z).max() <= 1e-9
    inv1 = res1.state.mean - res1.predicted_mean_shift()
    inv2 = res2.state.mean - res2.predicted_mean_shift()
    assert np.abs(inv1 - inv2).max() <= 1e-8


def test_run_program_cubic_step_chi_zero():
    r, sigma = 6.0, 0.4
    inp = GraphState(np.array([[1j]]), np.array([0.3, -0.2]))
    prog = {
        "resource": {"kind": "wire", "macronodes": 2, "r": r,
                     "input": inp.to_dict()},
        "steps": [{"time_index": 0, "detector": "x",
                   "basis": {"cubic": {"chi": 0.0, "sigma": sigma}},
                   "outcome": [0.3, -0.5, 0.7]}],
    }
    res = run_program(prog, seed=8)
    m_a, m_e, m_f = res.record.adaptations[0]["outcomes"]
    assert (m_a, m_e, m_f) == (0.3, -0.5, 0.7)
    out = apply(res.state, gate_beamsplitter(-np.pi / 4, 0, 1, 2))
    tgt = apply(inp, gate_shear(cubic_shear(sigma, 0.0, m_a, m_f), 0, 1))
    tgt = apply(tgt, gate_rotation(-np.pi / 2, 0, 1))
    tgt = apply(tgt, gate_displacement(cubic_kick(sigma, 0.0, m_a, m_e, m_f),
                                       np.sqrt(2) * m_a, 0, 1))
    assert np.abs(out.z[0, 0] - tgt.z[0, 0]) < 1e-4
    assert np.abs(np.array([out.mean[0], out.mean[2]]) - tgt.mean).max() < 2e-3


def test_run_program_error_paths():
    base = {"resource": {"kind": "wire", "macronodes": 2, "r": 2.0}}
    with pytest.raises(ProgramError, match="malformed"):
        run_program({"steps": []})
    with pytest.raises(ProgramError, match="unknown resource"):
        run_program({"resource": {"kind": "ring"}, "steps": []})
    with pytest.raises(ProgramError, match="no mode"):
        run_program({**base, "steps": [{"time_index": 9, "detector": "x",
                                        "basis": {"theta": 0.0}}]})
    with pytest.raises(ProgramError, match="chi != 0"):
        run_program({**base, "steps": [{"time_index": 0, "detector": "x",
                                        "basis": {"cubic": {"chi": 0.1,
                                                            "sigma": 0.0}}}]})
    with pytest.raises(ProgramError, match="already consumed"):
        run_program({**base, "steps": [
            {"time_index": 0, "detector": "x", "basis": {"theta": 0.0}},
            {"time_index": 0, "detector": "x", "basis": {"theta": 0.0}},
        ]})


def test_run_program_on_bsl_resource():
    prog = {
        "resource": {"kind": "bsl", "N": 2, "M": 2, "r": 1.0},
        "steps": [{"time_index": 2, "detector": "b", "basis": {"theta": np.pi / 4},
                   "outcome": 0.1}],
    }
    res = run_program(prog, seed=0)
    assert res.state.n_modes == 15
    assert res.record.events[0].outcome == 0.1


def test_full_lattice_program_deletions_then_gate():
    # end-to-end on the lattice resource: delete every bc site, then run one
    # macronode gate on the row-0 wire; two seeds agree up to the frame
    n_rows, m_cols, r = 2, 3, 4.0
    _, lattice = build_bsl(LatticeConfig(n_rows, m_cols, r))
    steps = []
    for tau in lattice.bc_sites():
        theta = lattice.deletion_angle(tau)
        steps.append({"time_index": tau, "detector": "b",
                      "basis": {"theta": theta}})
        steps.append({"time_index": tau, "detector": "c",
                      "basis": {"theta": theta}})
    th1, th2 = 0.7 + np.pi / 4, 0.7 - np.pi / 4
    gate_site = lattice.wire_sites(0)[0]
    steps.append({"time_index": gate_site, "detector": "x",
                  "basis": {"theta": th1 - np.pi / 2}})
    steps.append({"time_index": gate_site, "detector": "a",
                  "basis": {"theta": th2 - np.pi / 2}})
    prog = {"resource": {"kind": "bsl", "N": n_rows, "M": m_cols, "r": r},
            "steps": steps}
    res1 = run_program(prog, seed=11)
    res2 = run_program(prog, seed=12)
    assert res1.state.n_modes == 4 * n_rows * m_cols - len(steps)
    assert np.abs(res1.state.z - res2.state.z).max() <= 1e-9
    inv1 = res1.state.mean - res1.predicted_mean_shift()
    inv2 = res2.state.mean - res2.predicted_mean_shift()
    assert np.abs(inv1 - inv2).max() <= 1e-8


def test_run_program_jacobian_through_cubic_step():
    # the cubic step's beamsplitter must carry earlier outcome sensitivities
    prog = {
        "resource": {"kind": "wire", "macronodes": 5, "r": 5.0},
        "steps": [
            {"time_index": 0, "detector": "x", "basis": {"theta": 0.3}},
            {"time_index": 0, "detector": "a", "basis": {"theta": -0.5}},
            {"time_index": 1, "detector": "x",
             "basis": {"cubic": {"chi": 0.0, "sigma": 0.3}}},
            {"time_index": 2, "detector": "x", "basis": {"theta": 0.2}},
            {"time_index": 2, "detector": "a", "basis": {"theta": -0.7}},
        ],
    }
    res1 = run_program(prog, seed=1)
    res2 = run_program(prog, seed=2)
    assert np.abs(res1.state.z - res2.state.z).max() <= 1e-9
    inv1 = res1.state.mean - res1.predicted_mean_shift()
    inv2 = res2.state.mean - res2.predicted_mean_shift()
    assert np.abs(inv1 - inv2).max() <= 1e-8


@st.composite
def wire_programs(draw):
    """Wire programs of 1-4 theta or chi = 0 cubic steps, leaving a mode."""
    sites = draw(st.integers(2, 4))
    slots = draw(st.permutations([(k, d) for k in range(sites) for d in "xa"]))
    steps, used, left = [], set(), 2 * sites
    for k, d in slots[:draw(st.integers(1, 4))]:
        if (k, d) in used or left == 1:
            continue
        if (d == "x" and (k, "a") not in used and left > 2
                and draw(st.booleans())):
            basis = {"cubic": {"chi": 0.0, "sigma": draw(st.floats(-1, 1))}}
            used.add((k, "a"))
            left -= 1
        else:
            basis = {"theta": draw(st.floats(-np.pi, np.pi))}
        used.add((k, d))
        left -= 1
        steps.append({"time_index": k, "detector": d, "basis": basis})
    r = draw(st.floats(0.2, 3.0))
    return {"resource": {"kind": "wire", "macronodes": sites, "r": r},
            "steps": steps}


@settings(max_examples=60, deadline=None)
@given(wire_programs())
def test_run_program_jacobian_predicts_seed_difference(program):
    a, b = run_program(program, seed=1), run_program(program, seed=2)
    n = a.state.n_modes
    assert a.outcome_jacobian.shape == (2 * n, len(a.record.events))
    assert np.array_equal(a.state.z, b.state.z)
    diff = a.state.mean - b.state.mean
    shift = a.predicted_mean_shift() - b.predicted_mean_shift()
    assert np.abs(diff - shift).max() <= 1e-9 * max(1.0, np.abs(diff).max())
    so = covariance(a.state) @ omega(n)
    assert np.abs(so @ so + 0.25 * np.eye(2 * n)).max() \
        <= 1e-10 * max(1.0, np.abs(so).max()) ** 2


def _deletion_program(n_rows, m_cols, last_step):
    """Delete every bc site of an N x M lattice, then run last_step."""
    _, lattice = build_bsl(LatticeConfig(n_rows, m_cols, 1.0))
    steps = [{"time_index": tau, "detector": d,
              "basis": {"theta": lattice.deletion_angle(tau)}}
             for tau in lattice.bc_sites() for d in "bc"]
    return {"resource": {"kind": "bsl", "N": n_rows, "M": m_cols, "r": 1.0},
            "steps": steps + [last_step]}


def _refuse_to_build(*args):
    raise AssertionError("the resource was built before the program was checked")


@pytest.mark.parametrize("last,message", [
    ({"time_index": 2, "detector": "b", "basis": {"theta": 0.0}},
     "already consumed"),
    ({"time_index": 99, "detector": "x", "basis": {"theta": 0.0}}, "no mode at"),
    ({"time_index": 0, "detector": "x", "basis": {"theta": "0"}},
     "steps[10].basis.theta"),
    ({"time_index": 0, "detector": "x",
      "basis": {"cubic": {"chi": 0.2, "sigma": 0.1}}}, "chi != 0"),
])
def test_bad_last_step_fails_before_the_lattice_is_built(monkeypatch, last,
                                                        message):
    prog = _deletion_program(3, 2, last)
    assert len(prog["steps"]) == 11
    monkeypatch.setattr(mbqc, "_lattice_state", _refuse_to_build)
    with pytest.raises(ProgramError, match=re.escape(message)):
        run_program(prog, seed=0)


def test_repeated_wire_mode_fails_before_the_wire_is_built(monkeypatch):
    monkeypatch.setattr(mbqc, "canonical_wire", _refuse_to_build)
    step = {"time_index": 0, "detector": "x", "basis": {"theta": 0.1}}
    with pytest.raises(ProgramError, match="already consumed"):
        run_program({"resource": {"kind": "wire", "macronodes": 3},
                     "steps": [step, step]})


def test_cubic_step_needs_its_partner_unconsumed():
    base = {"kind": "wire", "macronodes": 3, "r": 2.0}
    cubic = {"time_index": 1, "detector": "x",
             "basis": {"cubic": {"chi": 0.0, "sigma": 0.2}}}
    taken = {"time_index": 1, "detector": "a", "basis": {"theta": 0.3}}
    with pytest.raises(ProgramError, match=re.escape("partner mode (1, 'a')")):
        run_program({"resource": base, "steps": [taken, cubic]})
    with pytest.raises(ProgramError, match="already consumed"):
        run_program({"resource": base, "steps": [cubic, taken]})
    with pytest.raises(ProgramError, match="basis.cubic is missing"):
        run_program({"resource": base, "steps": [
            {**cubic, "basis": {"cubic": {"chi": 0.0}}}]})
