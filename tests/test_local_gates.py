"""Gate kernels and measurement steps against the dense reference.

Every gate is a 2k x 2k block on k modes.  The reference here is `apply`,
the dense Mobius solve Z' = (C + D Z)(A + B Z)^-1 on the whole 2n x 2n S.
"""

import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bslsim import lattice as lat
from bslsim.graphstate import (GraphState, GraphStateError, SymplecticGate,
                               apply, balanced_mix, covariance,
                               gate_beamsplitter, gate_cz, gate_displacement,
                               gate_rotation, gate_shear, gate_squeeze, omega,
                               squeezed_vacua)
from bslsim import mbqc
from bslsim.cli import main
from bslsim.mbqc import (decouple_wires, measure_with_response, run_program,
                         simulate_single_mode_gate, v_gate)
from bslsim.nullifiers import (lattice_factors, lattice_variances,
                               nullifier_variances, phi_transform,
                               quadrature_nullifiers, vacuum_variances)
from step_reference import rotation_cond

KINDS = ("rotation", "squeeze", "shear", "displacement", "beamsplitter", "cz",
         "pair")
angle = st.floats(-np.pi, np.pi)


@st.composite
def local_gate(draw, n):
    kind = draw(st.sampled_from(KINDS if n > 1 else KINDS[:4]))
    i = draw(st.integers(0, n - 1))
    j = draw(st.integers(0, n - 1).filter(lambda j: j != i)) if n > 1 else i
    if kind == "rotation":
        return gate_rotation(draw(angle), i, n)
    if kind == "squeeze":
        return gate_squeeze(draw(st.floats(-0.5, 0.5)), i, n)
    if kind == "shear":
        return gate_shear(draw(st.floats(-2, 2)), i, n)
    if kind == "displacement":
        return gate_displacement(draw(st.floats(-2, 2)), draw(st.floats(-2, 2)),
                                 i, n)
    if kind == "beamsplitter":
        return gate_beamsplitter(draw(angle), i, j, n)
    if kind == "cz":
        return gate_cz(draw(st.floats(-2, 2)), i, j, n)
    # a two-mode block with a B part: a rotation, then a beamsplitter
    pair = gate_rotation(draw(angle), 0, 2).then(
        gate_beamsplitter(draw(angle), 0, 1, 2))
    return SymplecticGate(pair.block, modes=(i, j), n_modes=n)


@st.composite
def circuit(draw, min_modes=1, max_modes=6):
    """(initial squeezed state, list of local gates) on min-max_modes modes."""
    n = draw(st.integers(min_modes, max_modes))
    r = draw(st.lists(st.floats(-0.5, 0.5), min_size=n, max_size=n))
    return squeezed_vacua(r), draw(st.lists(local_gate(n), min_size=1, max_size=8))


def scale(x):
    return max(1.0, float(np.abs(x).max()))


@settings(max_examples=80, deadline=None)
@given(circuit())
def test_purity_after_local_circuits(case):
    state, gates = case
    for g in gates:
        state = apply(state, g)
    n = state.n_modes
    so = covariance(state) @ omega(n)
    assert np.abs(so @ so + 0.25 * np.eye(2 * n)).max() <= 1e-10 * scale(so) ** 2


@settings(max_examples=80, deadline=None)
@given(circuit(min_modes=2), st.data())
def test_purity_after_measurements(case, data):
    state, gates = case
    for g in gates:
        state = apply(state, g)
    n = state.n_modes
    plan = [(data.draw(st.integers(0, n - 1 - k)), data.draw(angle))
            for k in range(data.draw(st.integers(1, min(3, n - 1))))]
    runs = []
    for seed in (1, 2):
        rng = np.random.default_rng(seed)
        post, jac, outcomes = state, None, []
        for mode, theta in plan:
            post, m, jac = measure_with_response(post, mode, theta, rng=rng,
                                                 jac=jac)
            outcomes.append(m)
        runs.append((post, jac, np.array(outcomes)))
    (a, jac, m_a), (b, _, m_b) = runs
    so = covariance(a) @ omega(a.n_modes)
    eye = np.eye(2 * a.n_modes)
    assert np.abs(so @ so + 0.25 * eye).max() <= 1e-10 * scale(so) ** 2
    # the outcomes move only the mean, and only through the Jacobian
    assert np.array_equal(a.z, b.z)
    assert jac.shape == (2 * a.n_modes, len(plan))
    diff = a.mean - b.mean
    assert np.abs(diff - jac @ (m_a - m_b)).max() <= 1e-9 * scale(diff)


def assert_dense_cond(got, z, gate):
    """got is cond(A + B Z) of the gate's dense S, the cond apply guards.

    The SVD behind np.linalg.cond is backward stable: the smallest singular
    value moves by up to about n eps times the largest, so the reference
    itself carries a relative error of order n eps cond on top of 1e-11.
    """
    n, s = gate.n_modes, gate.s
    want = np.linalg.cond(s[:n, :n] + s[:n, n:] @ z)
    tol = 1e-11 + n * np.finfo(float).eps * want
    assert abs(got - want) <= tol * want
    return want


@settings(max_examples=120, deadline=None)
@given(circuit(), st.sampled_from([0.0, np.pi / 2, -np.pi / 2]) | angle,
       st.integers(0, 5))
def test_rotation_cond_closed_form_matches_local_cond(case, theta, i):
    # the per-step runner's O(n) guard against the dense cond of the gate
    state, gates = case
    for g in gates:
        state = apply(state, g)
    n, k = state.n_modes, i % state.n_modes
    assert_dense_cond(rotation_cond(state.z, k, theta), state.z,
                      gate_rotation(theta, k, n))


def test_rotation_cond_closed_form_on_ill_conditioned_states():
    # a small Im Z with cot(theta) near Re Z_kk puts piv = cos - sin Z_kk
    # near 0, which drives the cond up to the COND_LIMIT range
    rng = np.random.default_rng(5)
    conds = []
    for trial in range(600):
        n = int(rng.integers(1, 9))
        x = rng.normal(size=(n, n))
        a = rng.normal(size=(n, n))
        y = (a @ a.T + 1e-3 * np.eye(n)) * 10.0 ** rng.uniform(-12, 3)
        z = (x + x.T) / 2 + 1j * y
        k = int(rng.integers(n))
        theta = (np.arctan2(1.0, z[k, k].real) if trial % 2
                 else rng.uniform(-np.pi, np.pi))
        conds.append(assert_dense_cond(rotation_cond(z, k, theta), z,
                                       gate_rotation(theta, k, n)))
    assert min(conds) == 1.0 and max(conds) > 1e12


def embed_reference(n, modes, block, disp):
    """The dense embedding loop local gates replace."""
    k = len(modes)
    s = np.eye(2 * n)
    for x, mx in enumerate(modes):
        for y, my in enumerate(modes):
            s[mx, my] = block[x, y]
            s[mx, n + my] = block[x, k + y]
            s[n + mx, my] = block[k + x, y]
            s[n + mx, n + my] = block[k + x, k + y]
    d = np.zeros(2 * n)
    for x, mx in enumerate(modes):
        d[mx] = disp[x]
        d[n + mx] = disp[k + x]
    return s, d


@settings(max_examples=120, deadline=None)
@given(st.integers(1, 6).flatmap(local_gate))
def test_cached_dense_matrix_equals_embedding(gate):
    s, d = embed_reference(gate.n_modes, gate.modes, gate.block, gate.disp)
    assert np.array_equal(gate.s, s)
    assert np.array_equal(gate.d, d)
    assert gate.s is gate.s             # built once, then cached


def test_non_finite_block_is_rejected():
    with pytest.raises(GraphStateError, match="not symplectic"):
        gate_rotation(float("nan"), 0, 2)


def test_omega_is_the_block_form():
    for n in (1, 2, 5):
        z, i = np.zeros((n, n)), np.eye(n)
        assert np.array_equal(omega(n), np.block([[z, i], [-i, z]]))


def dense_schedule(config):
    """Lattice graph from the full physical circuit, every gate applied.

    Per bin t: squeezers on the four rails, the cluster-pair fusions of
    rails (0, 1) and (2, 3), then the in-bin beamsplitter and the one-bin
    and N-bin delay-line beamsplitters.
    """
    n, rows = config.n_modes, config.n_rows
    gates = []
    for t in range(config.bins):
        base = 4 * t
        gates += [gate_squeeze(config.r, base + rail, n) for rail in range(4)]
        for i, j in ((base, base + 1), (base + 2, base + 3)):
            gates += [gate_rotation(np.pi / 2, i, n),
                      gate_beamsplitter(np.pi / 4, i, j, n),
                      gate_rotation(-np.pi / 4, i, n),
                      gate_rotation(-np.pi / 4, j, n)]
        gates.append(gate_beamsplitter(np.pi / 4, base, base + 2, n))
        if t >= 1:
            gates.append(gate_beamsplitter(np.pi / 4, base - 3, base, n))
        if t >= rows:
            gates.append(gate_beamsplitter(np.pi / 4, 4 * (t - rows) + 3,
                                           base + 2, n))
    state = squeezed_vacua(np.zeros(n))
    for g in gates:
        state = apply(state, g)
    return state


LATTICE_SIZES = [(2, 1), (2, 3), (3, 2)] + [(k, k) for k in range(2, 6)]


def quarter_delay_tol(r):
    """Bound on the dense quarter delay's roundoff: cond e^{2r}, entries up
    to cosh 2r, so about eps e^{2r} cosh 2r (1e-9 at r = 4)."""
    return max(1e-12, 1e-15 * np.exp(2 * r) * np.cosh(2 * r))


def test_lattice_build_matches_dense_reference():
    for (n, m), r in itertools.product(LATTICE_SIZES, (0.3, 1.0, 4.0)):
        config = lat.LatticeConfig(n, m, r)
        state, _ = lat.build_bsl(config)
        ref = dense_schedule(config)
        assert np.abs(state.z - ref.z).max() <= 1e-12
        phi, phi_ref = phi_transform(state), ref
        for k in range(config.n_modes):
            phi_ref = apply(phi_ref, gate_rotation(np.pi / 4, k,
                                                   config.n_modes))
        assert np.abs(phi.z - phi_ref.z).max() <= quarter_delay_tol(r)
        z_ideal = (1j / np.cosh(2 * r) * np.eye(config.n_modes)
                   + np.tanh(2 * r) * lat.ideal_graph(config))
        assert np.abs(z_ideal - ref.z).max() <= 1e-12


@pytest.mark.parametrize("size", LATTICE_SIZES)
@pytest.mark.parametrize("r", [0.3, 1.0, 4.0, 8.0])
def test_lattice_marginals_and_witness_match_dense_reference(size, r):
    config = lat.LatticeConfig(*size, r)
    n = config.n_modes
    state, _ = lat.build_bsl(config)
    phi = phi_transform(state)
    v = lat.ideal_graph(config)
    # the covariance entries reach cosh 2r / 2 and the nullifier variances
    # are e^{-2r}; the dense path carries the quarter delay's roundoff
    tol = quarter_delay_tol(r)
    for delayed, ref in ((True, phi), (False, state)):
        sigma = covariance(ref)
        f_q, f_p = lattice_factors(v, r, delayed)
        assert np.array_equal(f_q, f_q.T) and np.array_equal(f_p, f_p.T)
        assert np.abs(f_q @ f_q.T - sigma[:n, :n]).max() <= tol * np.cosh(2 * r)
        assert np.abs(f_p @ f_p.T - sigma[n:, n:]).max() <= tol * np.cosh(2 * r)
    assert np.abs(covariance(phi)[:n, n:]).max() <= tol * np.cosh(2 * r)
    nulls = quadrature_nullifiers(v)
    got = lattice_variances(vacuum_variances(nulls), r)
    want = nullifier_variances(phi, nulls)
    assert np.abs(got - want).max() <= tol * np.exp(-2 * r)


def ideal_graph_reference(config):
    """V from the pair graph through the dense congruence O V O^T of every
    schedule gate, O the q block of its S; each is an interferometer, S =
    O + O on (q, p), so the Mobius map of Z is that congruence."""
    n = config.n_modes
    v = lat._pairs(n)
    for gate in lat.schedule(config):
        o = gate.s[:n, :n]
        assert np.array_equal(gate.s, np.kron(np.eye(2), o))
        v = o @ v @ o.T
    return (v + v.T) / 2


@pytest.mark.parametrize("size", LATTICE_SIZES)
def test_ideal_graph_givens_matches_local_update(size):
    config = lat.LatticeConfig(*size, 1.0)
    v = lat.ideal_graph(config)
    assert np.array_equal(v, v.T)
    assert np.abs(v - ideal_graph_reference(config)).max() <= 1e-15


def ideal_graph_gate_loop(config):
    """V0 through each joining beamsplitter in schedule order, its Givens
    rotation applied in place to two rows and then two columns of V."""
    v = lat._pairs(config.n_modes)
    for a, b in lat._joins(config):
        balanced_mix(v, a, b)
        balanced_mix(v.T, a, b)
    return (v + v.T) / 2


@pytest.mark.parametrize("size", LATTICE_SIZES + [(8, 8), (16, 16)])
def test_two_layer_ideal_graph_is_the_gate_loop_bit_for_bit(size):
    config = lat.LatticeConfig(*size, 1.0)
    v, ref = lat.ideal_graph(config), ideal_graph_gate_loop(config)
    assert np.array_equal(v, ref)
    # zeros of one sign too, so that the written files keep their bytes
    assert np.array_equal(np.signbit(v), np.signbit(ref))


def test_measurement_response_matches_finite_differences():
    # the posterior mean is affine in the prior mean and the outcome, so unit
    # finite differences reproduce the returned Jacobian up to roundoff
    rng = np.random.default_rng(4)
    state = squeezed_vacua([0.3, -0.2, 0.5, 0.1])
    for g in (gate_beamsplitter(0.7, 0, 1, 4), gate_cz(0.4, 1, 2, 4),
              gate_shear(0.9, 0, 4), gate_displacement(0.3, -0.6, 3, 4)):
        state = apply(state, g)
    jac = rng.normal(size=(8, 3))
    for mode in range(4):
        theta, m = rng.uniform(-np.pi, np.pi), rng.normal()
        post, _, resp = measure_with_response(state, mode, theta, m, jac=jac)
        assert resp.shape == (6, 4)
        plain = measure_with_response(state, mode, theta, m)[0]
        assert np.abs(post.mean - plain.mean).max() <= 1e-12 * scale(post.mean)
        shifted = measure_with_response(state, mode, theta, m + 1)[0]
        want = shifted.mean - post.mean
        assert np.abs(resp[:, -1] - want).max() <= 1e-12 * scale(want)
        for i in range(jac.shape[1]):
            moved = GraphState(state.z, state.mean + jac[:, i])
            want = (measure_with_response(moved, mode, theta, m)[0].mean
                    - post.mean)
            assert np.abs(resp[:, i] - want).max() <= 1e-12 * scale(want)


@settings(max_examples=80, deadline=None)
@given(circuit(), st.data())
def test_posterior_is_the_rotated_graph_and_keeps_im_z_definite(case, data):
    # the posterior's Z is the rotated state's Z on the surviving modes, it
    # is returned as the checked GraphState leaves it, and measuring cannot
    # lower the smallest eigenvalue of Im Z
    state, gates = case
    for g in gates:
        state = apply(state, g)
    for _ in range(data.draw(st.integers(1, min(3, state.n_modes)))):
        n = state.n_modes
        mode, theta = data.draw(st.integers(0, n - 1)), data.draw(angle)
        rotated = apply(state, gate_rotation(theta, mode, n))
        y = state.z.imag
        low_in = np.linalg.eigvalsh(y).min()
        state, _, _ = measure_with_response(state, mode, theta,
                                            data.draw(st.floats(-3, 3)))
        rest = np.delete(np.arange(n), mode)
        want = rotated.z[np.ix_(rest, rest)]
        assert np.abs(state.z - want).max(initial=0) <= 1e-13 * scale(rotated.z)
        checked = GraphState(state.z, state.mean)
        assert np.array_equal(checked.z, state.z)
        assert np.array_equal(checked.mean, state.mean)
        if state.n_modes:
            low = np.linalg.eigvalsh(state.z.imag).min()
            assert low >= low_in - 1e-13 * scale(y)


def test_posterior_is_exactly_symmetric():
    # complex outer products can round mirror entries differently (fused
    # multiply-add); the posterior must still be exactly symmetric, as the
    # GraphState check leaves it
    rng = np.random.default_rng(8)
    for n in range(2, 9):
        x, a = rng.normal(size=(2, n, n))
        state = GraphState((x + x.T) / 2 + 1j * (a @ a.T + np.eye(n)),
                           rng.normal(size=2 * n))
        for mode in range(n):
            post, _, _ = measure_with_response(
                state, mode, rng.uniform(-np.pi, np.pi), 0.3)
            assert np.array_equal(post.z, post.z.T)


def measure_reference(state, mode, theta, outcome=None, rng=None, jac=None):
    """The measurement the rank-1 update replaces, on the rotated state.

    R(theta) is applied as a gate, which checks the rotated state, then one
    stacked solve conditions the mean, the carried columns and Z[rest, k].
    """
    n = state.n_modes
    if jac is None:
        jac = np.zeros((2 * n, 0))
    rot = gate_rotation(theta, mode, n)
    state = apply(state, rot)
    cols = np.column_stack([state.mean, jac])
    cols[rot.index, 1:] = rot.block @ cols[rot.index, 1:]
    rest = np.delete(np.arange(n), mode)
    zr = state.z[np.ix_(rest, rest)]
    c = (cols[n:] - state.z @ cols[:n])[rest]
    c = np.column_stack([c, state.z[rest, mode]])
    q = -np.linalg.solve(zr.imag, c.imag)
    resp = np.concatenate([q, c.real + zr.real @ q])
    if outcome is None:
        y = state.z.imag
        var = 0.5 / (y[mode, mode] + y[rest, mode] @ q[:, -1])
        outcome = float(rng.normal(state.mean[mode], np.sqrt(var)))
    post = GraphState(zr, resp[:, 0] + outcome * resp[:, -1])
    return post, outcome, resp[:, 1:]


def assert_close(got, want, tol=1e-12):
    """|got - want| <= tol max(1, |want|) entrywise."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= tol * np.maximum(1.0, np.abs(want)))


@settings(max_examples=120, deadline=None)
@given(circuit(max_modes=8), st.data())
def test_measurement_matches_dense_reference(case, data):
    state, gates = case
    for g in gates:
        state = apply(state, g)
    seed = data.draw(st.integers(0, 2 ** 32 - 1))
    j = data.draw(st.integers(0, 3))
    jac = np.random.default_rng(seed).normal(size=(2 * state.n_modes, j))
    for _ in range(data.draw(st.integers(1, min(3, state.n_modes)))):
        mode = data.draw(st.integers(0, state.n_modes - 1))
        theta = data.draw(st.sampled_from([0.0, np.pi / 2, -np.pi / 2]) | angle)
        forced = data.draw(st.none() | st.floats(-3, 3))
        post, m, resp = measure_with_response(
            state, mode, theta, forced, np.random.default_rng(seed), jac)
        want, m_ref, resp_ref = measure_reference(
            state, mode, theta, forced, np.random.default_rng(seed), jac)
        assert_close(m, m_ref)
        assert_close(post.z, want.z)
        assert_close(post.mean, want.mean)
        assert_close(resp, resp_ref)
        # both paths go on from the reference, so errors do not compound
        state, jac = want, resp_ref


def test_simulate_single_mode_gate_draws_as_the_reference_chain():
    # drawn outcomes: p(theta) = q(theta - pi/2) at alpha, then at beta, on
    # the same wire; one seed draws the same standard normals in both
    inp = GraphState(np.array([[0.1 + 0.9j]]), np.array([0.4, -0.1]))
    for seed, (th1, th2) in enumerate([(1.2, -0.3), (0.8 + np.pi / 4,
                                                     0.8 - np.pi / 4)]):
        out, rec = simulate_single_mode_gate(inp, th1, th2, r=6.0, rng=seed)
        rng = np.random.default_rng(seed)
        state, want = lat.canonical_wire(2, 6.0, inp), []
        for theta in (th1, th2):
            state, m, _ = measure_reference(state, 0, theta - np.pi / 2,
                                            rng=rng)
            want.append(m)
        got = [e.outcome for e in rec.events]
        assert_close(got, want, tol=1e-10)
        # drawn outcomes spread as sqrt(cosh 2r), tens to hundreds at r = 6,
        # and the finite-r deviation of the mean grows with them, so its
        # bound is relative to the mean
        target = apply(inp, v_gate(th1, th2, *got))
        assert np.abs(covariance(out) - covariance(target)).max() < 1e-5
        assert (np.abs(out.mean - target.mean).max()
                < 1e-4 * scale(target.mean))


def decouple_wires_reference(state, lattice, rng):
    """decouple_wires as a chain of measure_reference on checked states."""
    rng = np.random.default_rng(rng)
    alive, events = list(range(state.n_modes)), []
    for tau in lattice.bc_sites():
        theta = lattice.deletion_angle(tau)
        for det in ("b", "c"):
            mode = lattice.mode_at(tau, det)
            idx = alive.index(mode)
            del alive[idx]
            state, m, _ = measure_reference(state, idx, theta, rng=rng)
            events.append((mode, theta, m))
    return state, events, {m: i for i, m in enumerate(alive)}


@pytest.mark.parametrize("size", [3, 4])
def test_decouple_wires_matches_dense_reference(size):
    state, lattice = lat.build_bsl(lat.LatticeConfig(size, size, 1.0))
    res = decouple_wires(state, lattice, rng=1)
    ref_state, ref_events, ref_index = decouple_wires_reference(state,
                                                                lattice, 1)
    assert [(e.mode, e.theta) for e in res.record.events] == \
        [(mode, theta) for mode, theta, _ in ref_events]
    assert_close([e.outcome for e in res.record.events],
                 [m for _, _, m in ref_events])
    assert res.mode_index == ref_index
    assert_close(res.state.z, ref_state.z)
    assert_close(res.state.mean, ref_state.mean)


def run_program_reference(program, seed=None):
    """run_program as the per-step chain the c-coordinate carry replaces.

    Every measurement is measure_reference on a checked state, carrying the
    mean and the Jacobian in (q, p) coordinates with a solve per step, and a
    cubic step applies its beamsplitter as a gate.  Returns (state,
    outcomes, outcome Jacobian).
    """
    rng = np.random.default_rng(seed)
    build, r, steps = mbqc._parse_program(program)
    state = build()
    alive = list(range(state.n_modes))
    outcomes, jac = [], np.zeros((2 * state.n_modes, 0))

    def measure(mode_id, theta, forced):
        nonlocal state, jac
        idx = alive.index(mode_id)
        del alive[idx]
        state, m, jac = measure_reference(state, idx, theta, forced, rng, jac)
        outcomes.append(m)

    for step in steps:
        if len(step) == 3:
            measure(*step)
            continue
        alpha, beta, sigma, (f_a, f_e, f_f) = step
        n = state.n_modes
        z = np.pad(state.z, (0, 1))
        z[n, n] = 1j / np.cosh(2 * r)
        state = GraphState(z, np.insert(state.mean, [n, 2 * n], 0.0))
        jac = np.insert(jac, [n, 2 * n], 0.0, axis=0)
        anc = ("anc", len(outcomes))
        alive.append(anc)
        gate = gate_beamsplitter(np.pi / 4, alive.index(alpha), n, n + 1)
        state = apply(state, gate)
        jac[gate.index] = gate.block @ jac[gate.index]
        measure(beta, 0.0, f_a)
        measure(anc, 0.0, f_f)
        measure(alpha, np.arctan(sigma) - np.pi / 2, f_e)
    return state, np.array(outcomes), jac


def carry_programs():
    """Wire and bsl programs mixing q(theta) and chi = 0 cubic steps."""
    wire_input = GraphState(np.array([[0.3 + 0.8j]]), np.array([0.4, -0.7]))
    wire = {"resource": {"kind": "wire", "macronodes": 5, "r": 2.0,
                         "input": wire_input.to_dict()},
            "steps": [
                {"time_index": 0, "detector": "x", "basis": {"theta": 0.3}},
                {"time_index": 0, "detector": "a", "basis": {"theta": -1.1}},
                {"time_index": 1, "detector": "x",
                 "basis": {"cubic": {"chi": 0.0, "sigma": 0.4}}},
                {"time_index": 2, "detector": "a", "basis": {"theta": 1.4}},
                {"time_index": 3, "detector": "x",
                 "basis": {"cubic": {"chi": 0.0, "sigma": -0.7}}},
                {"time_index": 2, "detector": "x", "basis": {"theta": 0.0}},
            ]}
    config = lat.LatticeConfig(2, 3, 1.0)
    steps = [{"time_index": tau, "detector": d,
              "basis": {"theta": config.deletion_angle(tau)}}
             for tau in config.bc_sites() for d in "bc"]
    site, other = config.wire_sites(0)[:2]
    steps += [{"time_index": site, "detector": "x",
               "basis": {"cubic": {"chi": 0.0, "sigma": 0.25}}},
              {"time_index": other, "detector": "x", "basis": {"theta": 0.6}},
              {"time_index": other, "detector": "a", "basis": {"theta": -0.2}}]
    bsl = {"resource": {"kind": "bsl", "N": 2, "M": 3, "r": 1.0},
           "steps": steps}
    return [wire, bsl]


def forced(program, seed):
    """The program with every outcome forced to a seeded draw."""
    rng = np.random.default_rng(seed)
    steps = [{**step, "outcome": (rng.normal(size=3).tolist()
                                  if "cubic" in step["basis"]
                                  else float(rng.normal()))}
             for step in program["steps"]]
    return {**program, "steps": steps}


@pytest.mark.parametrize("program", carry_programs(), ids=["wire", "bsl"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_run_program_carry_matches_per_step_reference(program, seed):
    # forced outcomes: the state and the Jacobian of the one final solve
    # against the per-step chain
    res = run_program(forced(program, seed))
    state, outcomes, jac = run_program_reference(forced(program, seed))
    assert_close([e.outcome for e in res.record.events], outcomes, tol=0)
    assert_close(res.state.z, state.z)
    assert_close(res.state.mean, state.mean)
    assert_close(res.outcome_jacobian, jac)
    # drawn outcomes: the marginals of the carry give the same draws
    res = run_program(program, seed=seed)
    _, outcomes, _ = run_program_reference(program, seed=seed)
    assert_close([e.outcome for e in res.record.events], outcomes)


def test_non_finite_carried_coefficient_is_refused(tmp_path, capsys):
    # p-type homodyne on the wire's x mode divides by its self-loop
    # i sech 2r, so g = Z_rk / piv reaches |g| > 1 and the forced outcome
    # 1e308 overflows c; the step refuses it before any later solve
    prog = {"resource": {"kind": "wire", "macronodes": 3, "r": 1.0},
            "steps": [{"time_index": 0, "detector": "x",
                       "basis": {"theta": np.pi / 2}, "outcome": 1e308},
                      {"time_index": 0, "detector": "a",
                       "basis": {"theta": 0.3}}]}
    with np.errstate(over="ignore"), \
            pytest.raises(GraphStateError, match="mean must be finite"):
        run_program(prog, seed=0)
    path = tmp_path / "prog.json"
    path.write_text(json.dumps(prog))
    with np.errstate(over="ignore"):
        assert main(["run-program", str(path)]) == 2
    assert "error: mean must be finite" in capsys.readouterr().err


def test_posterior_with_non_finite_mean_is_rejected():
    # g_p = Re Z[1, 0] = 2, so the finite outcome 1e308 overflows the mean
    state = GraphState(np.array([[1j, 2.0], [2.0, 1j]]), np.zeros(4))
    with np.errstate(over="ignore"), \
            pytest.raises(GraphStateError, match="mean must be finite"):
        measure_with_response(state, 0, 0.0, 1e308)


def inverse(gate):
    """x -> S^-1 (x - d), with S^-1 = -Omega S^T Omega."""
    om = omega(gate.n_modes)
    s_inv = -om @ gate.s.T @ om
    return SymplecticGate(s_inv, -s_inv @ gate.d)


def gate_list(min_size, max_size):
    return st.integers(1, 6).flatmap(
        lambda n: st.lists(local_gate(n), min_size=min_size, max_size=max_size))


@settings(max_examples=80, deadline=None)
@given(gate_list(3, 3))
def test_then_is_associative(gates):
    a, b, c = gates
    left, right = a.then(b).then(c), a.then(b.then(c))
    assert np.abs(left.s - right.s).max() <= 1e-12 * scale(left.s) ** 2
    assert np.abs(left.d - right.d).max() <= 1e-12 * scale(left.s) * scale(left.d)


@settings(max_examples=80, deadline=None)
@given(gate_list(1, 4))
def test_then_inverse_is_identity(gates):
    g = gates[0]
    for h in gates[1:]:
        g = g.then(h)
    tol = 1e-12 * scale(g.s) ** 2 * scale(g.d)
    for ident in (g.then(inverse(g)), inverse(g).then(g)):
        assert np.abs(ident.s - np.eye(2 * g.n_modes)).max() <= tol
        assert np.abs(ident.d).max() <= tol


@settings(max_examples=80, deadline=None)
@given(circuit())
def test_composed_gate_matches_sequential_local_apply(case):
    state, gates = case
    composed = gates[0]
    for g in gates[1:]:
        composed = composed.then(g)
    want = np.eye(2 * state.n_modes)
    for g in gates:
        want = g.s @ want
    assert np.array_equal(composed.s, want)
    step = state
    for g in gates:
        step = apply(step, g)
    once = apply(state, composed)
    assert np.abs(once.z - step.z).max() <= 1e-10 * scale(step.z)
    assert np.abs(once.mean - step.mean).max() <= 1e-10 * scale(step.mean)
